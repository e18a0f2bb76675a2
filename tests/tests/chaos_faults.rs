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

use papyrus_chaos::{chaos_sweep, run_seed_bug, ChaosCfg, PlantedBug, SEED_BASE, SEED_BUGS};

/// Five seeds at the default base cycle through every fault class
/// (io-error, io-stall, net-delay, rank-kill, mixed) exactly once.
#[test]
fn pinned_seed_sweep_is_clean() {
    let cfg = ChaosCfg::tiny();
    assert_eq!(cfg.seeds, 5, "tiny sweep must still cover all five fault classes");
    let report = chaos_sweep(&cfg, SEED_BASE);
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
    let report = run_seed_bug(&ChaosCfg::tiny(), PlantedBug::LostAck);
    assert!(!report.is_clean(), "planted lost-ack bug went undetected");
    assert!(
        report.violations.iter().any(|v| v.kind == "acked-write-lost"),
        "lost-ack bug surfaced, but not as acked-write-lost:\n{}",
        report.render()
    );
}

/// A protocol bug that blocks forever instead of honouring its deadline
/// must be caught by the wall-clock watchdog as `chaos-hang`.
#[test]
fn seeded_hang_is_detected() {
    let mut cfg = ChaosCfg::tiny();
    cfg.timeout_secs = 10;
    let report = run_seed_bug(&cfg, PlantedBug::Hang);
    assert!(!report.is_clean(), "planted hang bug went undetected");
    assert!(
        report.violations.iter().any(|v| v.kind == "chaos-hang"),
        "hang bug surfaced, but not as chaos-hang:\n{}",
        report.render()
    );
}

/// The fault plane is opt-in: ordinary test runs must not set the env gate,
/// so production-path tests never see injected faults. (The sweep helpers
/// force-enable around their own runs and restore the default after.)
#[test]
fn fault_gate_defaults_off() {
    assert_eq!(SEED_BUGS.len(), 2);
    assert!(
        std::env::var_os("PAPYRUS_FAULTS").is_none(),
        "PAPYRUS_FAULTS must stay unset in the test environment"
    );
}
