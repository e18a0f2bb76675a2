//! Distributed deadlock: two ranks blocked receiving from each other, with
//! nothing in flight, leave their world with no runnable task and nobody
//! waiting timed. The world's scheduler must say so at once — naming every
//! parked task and the site it parked at — and fail the job, with the
//! `PAPYRUS_SANITY` gate off as much as on.

use papyrus_mpi::{RecvSrc, RecvTag, World, WorldConfig};

#[test]
fn mutual_blocking_recv_is_diagnosed_as_a_wait_cycle() {
    let result = std::panic::catch_unwind(|| {
        World::run(WorldConfig::for_tests(2), |ctx| {
            // Each rank waits for the other; nobody ever sends.
            let peer = 1 - ctx.rank();
            ctx.world().recv(RecvSrc::Rank(peer), RecvTag::Tag(1));
        })
    });

    let err = result.expect_err("the deadlocked world must fail, not hang");
    let msg = err.downcast_ref::<String>().cloned().expect("the failure carries the verdict");
    assert!(msg.contains("deadlock: no runnable task"), "panic names the verdict: {msg}");
    // The site is the receive in this file, not the condvar inside the
    // fabric: `#[track_caller]` carries it up from the park.
    for rank in 0..2 {
        let parked = format!("rank-{rank} parked at {}:", file!());
        assert!(msg.contains(&parked), "rank {rank} and its site are named: {msg}");
    }
}
