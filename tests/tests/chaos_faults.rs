//! Pinned-seed chaos soak: the deterministic fault plane drives seeded
//! fault schedules over a multi-rank workload while a KV oracle checks the
//! failure-aware protocol invariants — no acked write lost, no phantom
//! reads, no hangs, every surfaced error typed.
//!
//! Two directions, mirroring the crash-consistency suite:
//!  - a pinned-seed sweep across all five fault classes must come back
//!    clean (the protocol layer tolerates the faults), and
//!  - seeded protocol bugs must be *caught* (the oracle has teeth).
//!
//! Seeds are pinned so a failure here reproduces bit-for-bit with
//! `cargo xtask chaos --seeds 5 --per-rank 3 --rounds 2` (the seed base is
//! pinned at 1000).
//!
//! And one test of the plane itself: a fault plan afflicts the world it was
//! handed to and no other world in the process.

use std::sync::{mpsc, Arc};

use papyrus_chaos::{chaos_sweep, run_seed_bug, ChaosCfg, PlantedBug, SEED_BUGS};
use papyrus_faultinject::{FaultEvent, FaultPlan};
use papyrus_integration_tests::scenario_key;
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::{BarrierLevel, Context, Error, OpenFlags, Options, Platform};

/// Five seeds at the default base cycle through every fault class
/// (io-error, io-stall, net-delay, rank-kill, mixed) exactly once.
#[test]
fn pinned_seed_sweep_is_clean() {
    let cfg = ChaosCfg::tiny();
    assert_eq!(cfg.seeds, 5, "tiny sweep must still cover all five fault classes");
    let report = chaos_sweep(&cfg);
    assert_eq!(report.schedules, cfg.seeds);
    assert!(report.is_clean(), "pinned-seed chaos sweep found violations:\n{}", report.render());
    // The sweep must actually exercise the interesting paths, or a clean
    // report proves nothing.
    assert!(report.puts > 0 && report.gets > 0, "workload ran no operations");
    assert!(report.kill_schedules > 0, "no schedule exercised rank death");
    assert!(report.degraded_schedules > 0, "no schedule drove a rank into degraded mode");
    for (class, n) in &report.per_class {
        assert_eq!(*n, 1, "fault class {class} not covered exactly once");
    }
}

/// A protocol bug that acks a write the owner never applied must be caught
/// as `acked-write-lost` by the oracle's watermark check.
#[test]
fn seeded_lost_ack_is_detected() {
    assert_eq!(SEED_BUGS.len(), 2, "a planted bug without a detection test below");
    let report = run_seed_bug(&ChaosCfg::tiny(), PlantedBug::LostAck);
    assert!(!report.is_clean(), "planted lost-ack bug went undetected");
    assert!(
        report.violations.iter().any(|v| v.kind == "acked-write-lost"),
        "lost-ack bug surfaced, but not as acked-write-lost:\n{}",
        report.render()
    );
}

/// A protocol bug that blocks forever instead of honouring its deadline
/// must be caught by the world's livelock verdict as `chaos-hang`.
#[test]
fn seeded_hang_is_detected() {
    let report = run_seed_bug(&ChaosCfg::tiny(), PlantedBug::Hang);
    assert!(!report.is_clean(), "planted hang bug went undetected");
    assert!(
        report.violations.iter().any(|v| v.kind == "chaos-hang" && v.detail.contains("livelock: ")),
        "hang bug surfaced, but not as chaos-hang by the livelock verdict:\n{}",
        report.render()
    );
}

/// A clean 1-rank job on its own platform: puts, a flushing barrier, gets.
/// Returns the background errors it collected and its virtual end stamp.
fn clean_job() -> (Vec<Error>, u64) {
    let profile = SystemProfile::summitdev();
    let platform = Platform::new(profile.clone(), 1);
    let mut out = World::run(WorldConfig::new(1, profile.net), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://clean").unwrap();
        let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        for i in 0..200 {
            db.put(&scenario_key(0, i), &[i as u8; 64]).unwrap();
        }
        db.barrier(BarrierLevel::SsTable).unwrap();
        for i in 0..200 {
            assert_eq!(db.get(&scenario_key(0, i)).unwrap()[..], [i as u8; 64]);
        }
        let errors = db.take_io_errors();
        db.close().unwrap();
        ctx.finalize().unwrap();
        (errors, ctx.now())
    });
    out.pop().unwrap()
}

/// The plan rides on the world: while an armed world sits mid-run — its
/// devices full until virtual 2^40 ns, its network black-holing everything
/// from 2^39 on — a clean world in the same process runs exactly as it does
/// alone. (Arm the process instead of the world and the clean job's flush
/// collects a `StorageFull`, rides out to 2^40 and loses its barrier marks.)
#[test]
fn an_armed_world_afflicts_no_other_world() {
    let alone = clean_job();
    assert!(alone.0.is_empty(), "clean job alone: {:?}", alone.0);

    let plan = Arc::new(FaultPlan::with_events(
        7,
        vec![
            FaultEvent::NvmEnospc { start: 0, end: 1 << 40 },
            FaultEvent::NetDrop {
                start: 1 << 39,
                end: u64::MAX,
                to_rank: None,
                tag: None,
                budget: u32::MAX,
            },
        ],
    ));
    // A rendezvous channel: each `send` returns when the test thread takes
    // it, so the armed world announces itself with one and parks on a second.
    let (park_tx, park_rx) = mpsc::sync_channel::<()>(0);
    let armed = std::thread::spawn(move || {
        let profile = SystemProfile::summitdev();
        let platform = Platform::new(profile.clone(), 1);
        let world = WorldConfig::new(1, profile.net).with_faults(plan);
        World::run(world, move |rank| {
            let ctx = Context::init(rank, platform.clone(), "nvm://armed").unwrap();
            let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
            db.put(b"k", b"v").unwrap();
            // The flush meets ENOSPC, reports it typed, and rides it out.
            db.barrier(BarrierLevel::SsTable).unwrap();
            let errors = db.take_io_errors();
            assert!(
                matches!(errors[..], [Error::StorageFull(_)]),
                "the armed world must see its own plan: {errors:?}"
            );
            assert!(ctx.now() >= 1 << 40, "riding out ENOSPC ends past its window");
            // Mid-run, with the ENOSPC window the clean job's stamps fall
            // in and a drop window that never closes: park until the
            // neighbour is done.
            park_tx.send(()).unwrap();
            park_tx.send(()).unwrap();
            // Cut off by its own NetDrop: abandon the job, as a degraded
            // rank does, rather than close over a dead network.
        });
    });
    park_rx.recv().unwrap();
    let beside = clean_job();
    park_rx.recv().unwrap();
    armed.join().unwrap();

    assert!(beside.0.is_empty(), "the neighbour's faults leaked: {:?}", beside.0);
    assert_eq!(beside.1, alone.1, "virtual end stamp moved beside an armed world");
}
