//! Crash-consistency sweeps as integration tests.
//!
//! The heavyweight exhaustive sweep runs in CI via `cargo xtask
//! crashcheck`; these tests keep a smaller strided sweep — and the
//! seed-bug detectors — wired into `cargo test`, and pin down the
//! redistribution scenario the issue calls out: a checkpoint written by N
//! ranks, restored by M ≠ N ranks, with crash points *inside* a checkpoint
//! transfer among the swept states.
//!
//! A sweep's verdicts live in its own report, so the two tests below run
//! side by side — a clean sweep next to three seeded ones — and the clean
//! one also shares the process with a world that keeps losing data.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use papyrus_crashcheck::{sweep, CrashCfg, FaultMode, SEED_BUGS};
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::{Context, Error, OpenFlags, Options, Platform};

/// Reopen a database over a torn manifest until told to stop — every reopen
/// must report the loss on its own handle; returns how many there were.
#[allow(
    clippy::disallowed_methods,
    reason = "a bystander thread outside any world, paced by the host"
)]
fn keep_losing_data(stop: Arc<AtomicBool>) -> usize {
    let platform = Platform::new(SystemProfile::test_profile(), 1);
    let rounds = World::run(WorldConfig::for_tests(1), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://bystander").unwrap();
        let backend = platform.storage.nvm_of(0).backend();
        let mut rounds = 0;
        while rounds == 0 || !stop.load(Ordering::Acquire) {
            let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
            db.put(b"k", b"v").unwrap();
            db.close().unwrap();
            let manifest = backend.get_all("bystander/db/r0/MANIFEST").unwrap();
            backend.put("bystander/db/r0/MANIFEST", manifest.slice(..manifest.len() - 3));
            let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
            let lost = db.take_io_errors();
            assert!(matches!(&lost[..], [Error::DataLoss(_)]), "{lost:?}");
            db.close().unwrap();
            rounds += 1;
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        ctx.finalize().unwrap();
        rounds
    });
    rounds[0]
}

/// Strided clean sweep: every materialised crash state must recover with
/// zero violations, including every snapshot restore at `restore_ranks` —
/// while another world of this process reopens a torn manifest in a loop
/// (its findings are its own: none may land in this sweep's report).
#[test]
#[allow(clippy::disallowed_methods, reason = "the test races OS threads outside any world")]
fn strided_sweep_recovers_clean_with_redistribution() {
    let cfg = CrashCfg::tiny();
    assert_ne!(
        cfg.ranks, cfg.restore_ranks,
        "restores must run at a different rank count to force redistribution"
    );
    let stop = Arc::new(AtomicBool::new(false));
    let bystander = std::thread::spawn({
        let stop = stop.clone();
        move || keep_losing_data(stop)
    });
    let report = sweep(&cfg, FaultMode::None, false);
    stop.store(true, Ordering::Release);
    assert!(bystander.join().expect("every loss was reported to its own db") > 0);
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.states > 0 && report.ops > 0);

    // Restart-with-redistribution actually ran, and for at least one crash
    // point *inside* the second checkpoint's transfer window: the restore
    // of snapshot A must succeed while checkpoint B is mid-flight.
    assert!(report.restores > 0, "no snapshot restores swept:\n{}", report.render());
    let seq_of = |label: &str| {
        report
            .marks
            .iter()
            .find(|(l, _)| l == label)
            .map(|&(_, s)| s)
            .unwrap_or_else(|| panic!("mark {label} missing: {:?}", report.marks))
    };
    let (begin, done) = (seq_of("ckpt-b-begin"), seq_of("snap-b"));
    assert!(begin < done, "checkpoint B journaled no ops: {:?}", report.marks);
    assert!(
        report.restore_points.iter().any(|&p| begin < p && p < done),
        "no restore at a crash point inside the checkpoint window {begin}..{done}; \
         restored points: {:?}",
        report.restore_points
    );
}

/// Every seeded durability bug must be caught by the sweep (the checker's
/// self test: a sweep that can't see planted bugs proves nothing).
#[test]
fn seeded_bugs_are_all_detected() {
    let cfg = CrashCfg::tiny();
    for (name, fault) in SEED_BUGS {
        let report = sweep(&cfg, fault, true);
        assert!(!report.is_clean(), "seeded bug {name} was not detected:\n{}", report.render());
    }
}
