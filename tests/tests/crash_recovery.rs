//! Crash-consistency sweeps as integration tests.
//!
//! The heavyweight exhaustive sweep runs in CI via `cargo xtask
//! crashcheck`; these tests keep a smaller strided sweep — and the
//! seed-bug detectors — wired into `cargo test`, and pin down the
//! redistribution scenario the issue calls out: a checkpoint written by N
//! ranks, restored by M ≠ N ranks, with crash points *inside* a checkpoint
//! transfer among the swept states.

use papyrus_crashcheck::{sweep, CrashCfg, FaultMode, SEED_BUGS};

/// Strided clean sweep: every materialised crash state must recover with
/// zero violations, including every snapshot restore at `restore_ranks`.
#[test]
fn strided_sweep_recovers_clean_with_redistribution() {
    let cfg = CrashCfg::tiny();
    assert_ne!(
        cfg.ranks, cfg.restore_ranks,
        "restores must run at a different rank count to force redistribution"
    );
    let report = sweep(&cfg, FaultMode::None, false);
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
