//! Fault tolerance with asynchronous checkpoint/restart (paper §4.2,
//! Figure 5b-c) — plus the runtime failure path: a rank dying mid-job.
//!
//! Part 1: a long-running iterative solver stores its state in PapyrusKV
//! and checkpoints every few iterations — asynchronously, so the solver
//! keeps iterating while the compaction thread drains the snapshot to the
//! parallel file system. After a simulated node failure (the NVM scratch is
//! trimmed), the job restarts from the last snapshot; a second restart uses
//! the *redistribution* path as if the job came back with a different
//! layout.
//!
//! Part 2: instead of losing the whole node, one *rank* dies mid-run — its
//! world is armed with a fault plan (`WorldConfig::with_faults`) that kills
//! it. The failure detector confirms the death,
//! so keys owned by the dead rank surface as typed
//! [`papyruskv::error::Error::RankUnavailable`] errors — not hangs — while
//! local and surviving-rank keys stay serviceable (degraded mode). A fresh
//! job sharing the same PFS then restarts from the last snapshot and gets
//! every key back.

use std::sync::Arc;

use papyrus_examples::{fmt_sim, ranks_from_args};
use papyrus_faultinject::{FaultEvent, FaultPlan};
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::error::Error;
use papyruskv::{BarrierLevel, Context, OpenFlags, Options, Platform};

const STATE_VARS: usize = 400;
const CHECKPOINT_EVERY: usize = 3;
const ITERATIONS: usize = 9;

/// Degraded-mode demo sizing: keys, snapshot path, and the victim's kill
/// time (virtual) — comfortably after the snapshot completes.
const DEG_VARS: usize = 200;
const DEG_SNAP: &str = "pfs/degraded-snap";
const KILL_AT_NS: u64 = 1_000_000_000;

fn var_key(i: usize) -> String {
    format!("solver/u/{i:05}")
}

fn deg_key(i: usize) -> String {
    format!("deg/u/{i:04}")
}

fn main() {
    let n = ranks_from_args(4);
    let profile = SystemProfile::summitdev();
    println!("fault_tolerance: {n} ranks on a simulated {}", profile.name);

    solver_with_checkpoint_restart(n, &profile);
    degraded_mode_and_restart(n, &profile);
}

/// Part 1: asynchronous checkpoints overlapping compute, then two restarts
/// (verbatim and redistributed) after the NVM scratch is lost.
fn solver_with_checkpoint_restart(n: usize, profile: &SystemProfile) {
    let platform = Platform::new(profile.clone(), n);
    let net = profile.net.clone();
    let stats = World::run(WorldConfig::new(n, net), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://solver").unwrap();
        let me = ctx.rank();
        let db = ctx.open("state", OpenFlags::create(), Options::default()).unwrap();

        // Iterate a toy relaxation: u[i] <- (u[i] + i) / 2, checkpointing
        // every CHECKPOINT_EVERY iterations without stalling the solver.
        // `pending` remembers when the in-flight snapshot was issued so the
        // overlap credit below is measured from the transfer's start, not
        // from whenever we happened to ask for it.
        let mut pending: Option<(papyruskv::Event, u64)> = None;
        let mut ckpt_overlap_ns = 0u64;
        for iter in 0..ITERATIONS {
            for i in (me..STATE_VARS).step_by(ctx.size()) {
                let prev = db
                    .get_opt(var_key(i).as_bytes())
                    .unwrap()
                    .map(|v| String::from_utf8_lossy(&v).parse::<f64>().unwrap_or(0.0))
                    .unwrap_or(0.0);
                let next = (prev + i as f64) / 2.0;
                db.put(var_key(i).as_bytes(), format!("{next:.6}").as_bytes()).unwrap();
            }
            db.barrier(BarrierLevel::MemTable).unwrap();
            if (iter + 1) % CHECKPOINT_EVERY == 0 {
                // The previous checkpoint must be durable before we take the
                // next one (classic two-phase checkpoint discipline).
                if let Some((ev, t_issue)) = pending.take() {
                    let before = ctx.now();
                    let done = ev.wait_result().expect("checkpoint transfer failed");
                    // The transfer ran concurrently with compute from its
                    // issue until it finished (or until this wait, if we
                    // got here first).
                    ckpt_overlap_ns += done.min(before).saturating_sub(t_issue);
                }
                let ev = db.checkpoint("pfs/solver-snap").unwrap();
                pending = Some((ev, ctx.now()));
            }
        }
        if let Some((ev, _)) = pending.take() {
            ev.wait_result().expect("final checkpoint transfer failed");
        }

        // Record the solver's answer, then crash the node: scratch trimmed.
        let my_probe = var_key(me);
        let answer = db.get(my_probe.as_bytes()).unwrap();
        db.destroy().unwrap();
        ctx.barrier_all();
        if me == 0 {
            platform.storage.trim_nvm();
        }
        ctx.barrier_all();

        // Recovery 1: same layout — verbatim SSTable copy-back.
        let t0 = ctx.now();
        let (db2, ev) = ctx
            .restart("pfs/solver-snap", "state", OpenFlags::create(), Options::default(), false)
            .unwrap();
        ev.wait();
        let restart_ns = ctx.now() - t0;
        assert_eq!(db2.get(my_probe.as_bytes()).unwrap(), answer, "state lost in recovery");
        // A restart never fails on a damaged snapshot (it is collective); it
        // restores what exists and says what does not on the handle.
        let mut lost = data_loss(&db2);
        db2.destroy().unwrap();
        ctx.barrier_all();
        if me == 0 {
            platform.storage.trim_nvm();
        }
        ctx.barrier_all();

        // Recovery 2: layout changed — restart with redistribution.
        let t1 = ctx.now();
        let (db3, ev) = ctx
            .restart("pfs/solver-snap", "state", OpenFlags::create(), Options::default(), true)
            .unwrap();
        ev.wait();
        let rd_ns = ctx.now() - t1;
        assert_eq!(db3.get(my_probe.as_bytes()).unwrap(), answer);
        lost += data_loss(&db3);
        db3.close().unwrap();
        ctx.finalize().unwrap();
        (restart_ns, rd_ns, ckpt_overlap_ns, lost)
    });

    let restart = stats.iter().map(|s| s.0).max().unwrap();
    let rd = stats.iter().map(|s| s.1).max().unwrap();
    let overlap = stats.iter().map(|s| s.2).max().unwrap();
    let lost: usize = stats.iter().map(|s| s.3).sum();
    println!("recovered state verified on every rank after both restarts");
    println!("data loss reported by restart: {lost} findings");
    assert_eq!(lost, 0, "the snapshot was intact");
    println!("restart (verbatim)        : {}", fmt_sim(restart));
    println!("restart (redistribution)  : {}", fmt_sim(rd));
    println!("checkpoint/compute overlap: {}", fmt_sim(overlap));
    assert!(rd >= restart, "redistribution re-puts every pair, it cannot be cheaper");
    assert!(overlap > 0, "asynchronous checkpoints must overlap compute");
}

/// Print and count what a restart could not bring back: the
/// [`Error::DataLoss`] findings its database carries.
fn data_loss(db: &papyruskv::Db) -> usize {
    let lost = db.take_io_errors();
    for e in &lost {
        println!("restart: {e}");
    }
    lost.iter().filter(|e| matches!(e, Error::DataLoss(_))).count()
}

/// Part 2: one rank dies mid-run; survivors keep operating in degraded mode
/// with typed errors, and a fresh job restarts from the snapshot.
fn degraded_mode_and_restart(n: usize, profile: &SystemProfile) {
    let victim = n - 1;
    // The plan is an argument of the world it afflicts: the restart job
    // below runs on the same platform, unarmed, and sees no faults.
    let plan = Arc::new(FaultPlan::with_events(
        42,
        vec![FaultEvent::RankKill { rank: victim, at: KILL_AT_NS }],
    ));

    let platform = Platform::new(profile.clone(), n);
    let job_platform = platform.clone();
    let world = WorldConfig::new(n, profile.net.clone()).with_faults(plan);
    let counts = World::run(world, move |rank| {
        let ctx = Context::init(rank, job_platform.clone(), "nvm://degraded").unwrap();
        let me = ctx.rank();
        let db = ctx.open("state", OpenFlags::create(), Options::default()).unwrap();

        // Fill, make it durable, snapshot — all well before the kill time.
        for i in (me..DEG_VARS).step_by(ctx.size()) {
            db.put(deg_key(i).as_bytes(), format!("{i}").as_bytes()).unwrap();
        }
        db.barrier(BarrierLevel::SsTable).unwrap();
        db.checkpoint(DEG_SNAP).unwrap().wait_result().expect("snapshot transfer failed");

        // ... the job runs on; the victim's node dies.
        ctx.clock().advance(KILL_AT_NS + KILL_AT_NS / 4);
        if me == victim {
            // A dead rank does not close, finalize, or say goodbye.
            return (0usize, 0usize);
        }

        // Degraded mode: every key is either served or typed-unavailable.
        let mut served = 0usize;
        let mut unavailable = 0usize;
        for i in 0..DEG_VARS {
            match db.get_opt(deg_key(i).as_bytes()) {
                Ok(Some(v)) => {
                    assert_eq!(v.as_ref(), format!("{i}").as_bytes());
                    served += 1;
                }
                Ok(None) => panic!("key {i} vanished without an error"),
                Err(Error::RankUnavailable(dead)) => {
                    assert_eq!(dead, victim, "only the victim may be unavailable");
                    unavailable += 1;
                }
                Err(e) => panic!("untyped degraded-mode error: {e:?}"),
            }
        }
        // Collectives report the dead rank by number instead of hanging.
        match db.barrier(BarrierLevel::MemTable) {
            Err(Error::RankUnavailable(dead)) => assert_eq!(dead, victim),
            other => panic!("barrier over a dead member must fail typed, got {other:?}"),
        }
        // Background machinery reports typed errors, never panics.
        for e in db.take_io_errors() {
            match e {
                Error::RankUnavailable(_) | Error::StorageFull(_) | Error::Timeout(_) => {}
                other => panic!("untyped background error: {other:?}"),
            }
        }
        // No collective close/finalize with a dead member: the survivors
        // abandon the job like the victim's node abandoned it.
        (served, unavailable)
    });

    let served: usize = counts.iter().map(|c| c.0).sum();
    let unavailable: usize = counts.iter().map(|c| c.1).sum();
    assert!(unavailable > 0, "the victim must own some keys");
    assert_eq!(served + unavailable, (n - 1) * DEG_VARS);
    println!(
        "degraded mode: {served} keys served, {unavailable} typed-unavailable \
         across {} survivors",
        n - 1
    );

    // A fresh job (same PFS, new NVM scratch) restarts from the snapshot:
    // nothing acknowledged durable was lost to the rank failure.
    let fresh = Platform::new_job(profile.clone(), n, &platform);
    let net = profile.net.clone();
    World::run(WorldConfig::new(n, net), move |rank| {
        let ctx = Context::init(rank, fresh.clone(), "nvm://degraded-restart").unwrap();
        let (db, ev) =
            ctx.restart(DEG_SNAP, "state", OpenFlags::create(), Options::default(), false).unwrap();
        ev.wait();
        for i in 0..DEG_VARS {
            assert_eq!(
                db.get(deg_key(i).as_bytes()).unwrap().as_ref(),
                format!("{i}").as_bytes(),
                "key {i} lost across the restart"
            );
        }
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
    println!("restart after rank failure: all {DEG_VARS} keys recovered from {DEG_SNAP}");
}
