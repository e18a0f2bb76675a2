//! Distributed deadlock: two ranks blocked receiving from each other, with
//! nothing in flight, leave their world with no runnable task and nobody
//! waiting timed. The world's scheduler must say so at once — naming every
//! parked task and the site it parked at — and fail the job.

use papyrus_mpi::{RecvSrc, RecvTag, Verdict, World, WorldConfig};

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
    let verdict = err.downcast_ref::<Verdict>().expect("the failure carries the verdict");
    assert!(matches!(verdict, Verdict::Deadlock(_)), "{verdict}");
    // The site is the receive in this file (line 14, column 25), not the
    // condvar inside the fabric: `#[track_caller]` carries it up from the
    // park. The text is the one an unarmed world has always printed.
    let site = format!("{}:14:25", file!());
    assert_eq!(
        verdict.to_string(),
        format!(
            "deadlock: no runnable task and no timed waiter in the world; \
             rank-0 parked at {site}; rank-1 parked at {site}"
        )
    );
}
