//! Distributed-deadlock detection: two ranks blocked receiving from each
//! other (with nothing in flight) form a wait-for cycle; the monitor must
//! diagnose it and turn the silent hang into a failed job.
//!
//! Own integration-test binary: it force-enables the global sanity gate and
//! deliberately deadlocks a world.

use papyrus_mpi::{RecvSrc, RecvTag, World, WorldConfig};

#[test]
fn mutual_blocking_recv_is_diagnosed_as_a_wait_cycle() {
    papyrus_sanity::force_enable();

    let result = std::panic::catch_unwind(|| {
        World::run(WorldConfig::for_tests(2), |ctx| {
            // Each rank waits for the other; nobody ever sends.
            let peer = 1 - ctx.rank();
            ctx.world().recv(RecvSrc::Rank(peer), RecvTag::Tag(1));
        })
    });

    let err = result.expect_err("the deadlocked world must fail, not hang");
    let msg =
        err.downcast_ref::<String>().cloned().expect("rank panic carries the wait-cycle diagnosis");
    assert!(msg.contains("wait-cycle"), "panic names the check: {msg}");
    assert!(
        msg.contains("rank 0") && msg.contains("rank 1"),
        "both cycle members are named: {msg}"
    );
}
