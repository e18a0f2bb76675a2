//! Livelock: on an armed world a wait that nothing answers times out, and
//! the waiter probes its peers. Past the fault plan's horizon no probe's
//! answer can change, so a world whose timed waiters only time out, find
//! nothing and park where they were can never move again. The scheduler
//! must say so at once, naming every parked task and its site — and must
//! not say so before the horizon, where a probe can still find a death.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use papyrus_faultinject::{FaultEvent, FaultPlan, PROBE_DEADLINE_CAP_NS};
use papyrus_mpi::{Fabric, RecvSrc, RecvTag, Verdict, World, WorldConfig};

/// A world of `ranks` armed with `events`.
fn armed(ranks: usize, events: Vec<FaultEvent>) -> WorldConfig {
    WorldConfig::for_tests(ranks).with_faults(Arc::new(FaultPlan::with_events(1, events)))
}

#[test]
fn timing_out_past_the_horizon_is_a_livelock() {
    // The plan's only event ends at 50 ms: its horizon.
    let horizon = 5 * PROBE_DEADLINE_CAP_NS;
    let cfg = armed(2, vec![FaultEvent::NetDelaySpike { start: 0, end: horizon, extra_ns: 1 }]);
    let fabric: Arc<OnceLock<Arc<Fabric>>> = Arc::default();
    let slot = fabric.clone();
    let wall = std::time::Instant::now(); // lint:allow(real-time): bounds the test, not the world
    let result = catch_unwind(AssertUnwindSafe(|| {
        World::run(cfg, move |ctx| {
            let _ = slot.set(ctx.fabric().clone());
            if ctx.rank() == 0 {
                // An untimed receive nobody answers.
                ctx.world().recv(RecvSrc::Rank(1), RecvTag::Tag(1));
            } else {
                // Times out, finds rank 0 alive, waits again — forever.
                let _ = ctx.world().try_barrier();
            }
        })
    }));
    assert!(wall.elapsed().as_secs_f64() < 1.0, "the verdict took {:?}", wall.elapsed());

    let err = result.expect_err("the livelocked world must fail, not spin");
    let verdict = err.downcast_ref::<Verdict>().expect("the failure carries the verdict");
    assert!(matches!(verdict, Verdict::Livelock(_)), "{verdict}");
    let text = verdict.to_string();
    assert!(text.starts_with("livelock: "), "{text}");
    for (rank, line) in [(0, 33), (1, 36)] {
        let parked = format!("rank-{rank} parked at {}:{line}:", file!());
        assert!(text.contains(&parked), "rank {rank} and its site are named: {text}");
    }
    // Rank 1's clock gains one probe deadline per time-out, so the sixth is
    // the first at the horizon. Next time the world has only rank 1 to time
    // out, it is parked where the sixth left it, with nobody woken since.
    let fabric = fabric.get().expect("the world ran");
    assert_eq!(fabric.grants().timed_out, 6, "time-outs before the verdict");
}

#[test]
fn time_outs_before_the_horizon_are_no_livelock() {
    // Rank 2 dies at 100 ms, ten probe deadlines into the run; it never
    // arrives at the barrier.
    let kill = 10 * PROBE_DEADLINE_CAP_NS;
    let cfg = armed(3, vec![FaultEvent::RankKill { rank: 2, at: kill }]);
    let fabric: Arc<OnceLock<Arc<Fabric>>> = Arc::default();
    let slot = fabric.clone();
    let out = World::run(cfg, move |ctx| {
        let _ = slot.set(ctx.fabric().clone());
        if ctx.rank() == 2 {
            return Ok(()); // the victim does not participate
        }
        // Each time-out before 100 ms finds every member alive; the first
        // past it finds rank 2 dead.
        ctx.world().try_barrier()
    });
    assert_eq!(out, [Err(2), Err(2), Ok(())], "the survivors name the dead member");
    // Pinned: a rule that let fewer time-outs through would have called the
    // survivors livelocked before their clocks reached the kill.
    let fabric = fabric.get().expect("the world ran");
    assert_eq!(fabric.grants().timed_out, 20, "time-outs before the death is found");
}

/// An unarmed world's horizon is 0, so every time-out is past it. One that
/// wakes a task is still progress: rank 0 times out at the same site every
/// round, and each time its nudge wakes rank 1, whose answer it then takes.
#[test]
fn a_time_out_that_wakes_a_task_is_no_livelock() {
    let fabric: Arc<OnceLock<Arc<Fabric>>> = Arc::default();
    let slot = fabric.clone();
    World::run(WorldConfig::for_tests(2), move |ctx| {
        let _ = slot.set(ctx.fabric().clone());
        let w = ctx.world();
        for _ in 0..3 {
            if ctx.rank() == 1 {
                w.recv(RecvSrc::Rank(0), RecvTag::Tag(1));
                w.send(0, 2, Bytes::new());
                continue;
            }
            while w.recv_until_quiet(RecvSrc::Rank(1), RecvTag::Tag(2)).is_none() {
                w.send(1, 1, Bytes::new());
            }
        }
    });
    let fabric = fabric.get().expect("the world ran");
    assert_eq!(fabric.grants().timed_out, 3, "one time-out a round");
}
