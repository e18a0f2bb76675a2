//! End-to-end coverage of the serve plane: a real (micro) RESP load test
//! over the simulated world — clean oracles, visible group-commit
//! batching, byte-identical determinism across repeat runs — plus both
//! planted defects convicted by the right oracle.

use papyrus_serve::{run_serve, LoadMix, SeedBug, ServeCfg};

/// A micro serve world: 2 ranks x 128 connections, sized to stay fast
/// while keeping remote shards (for the durability probe) and duplicate
/// write keys (for the read-your-writes sweep) in play.
fn micro_cfg() -> ServeCfg {
    ServeCfg {
        ranks: 2,
        conns_per_rank: 128,
        keys_per_rank: 256,
        duration_ms: 20,
        ..ServeCfg::quick()
    }
}

#[test]
fn serve_world_is_clean_batching_and_deterministic() {
    let cfg = micro_cfg();
    let report = run_serve(&cfg);

    assert!(report.clean(), "oracle violations: {:?}", report.violation_example);
    assert_eq!(report.rows.len(), cfg.ranks, "one row per rank window");
    let expected =
        cfg.ranks as u64 * cfg.conns_per_rank as u64 * cfg.pipeline as u64 * cfg.bursts as u64;
    assert_eq!(report.total_cmds(), expected, "every generated command must be answered");
    assert!(
        report.batch_mean() > 1.0,
        "group commit degenerated to one fence per write: mean {}",
        report.batch_mean()
    );
    assert!(report.read.is_some() && report.write.is_some(), "both latency axes populated");

    // Same seed ⇒ byte-identical canonical report; different seed ⇒ a
    // different schedule (so the equality above is not vacuous).
    let again = run_serve(&cfg);
    assert_eq!(report.canonical(), again.canonical(), "repeat run diverged");
    let other = run_serve(&ServeCfg { seed: cfg.seed + 1, ..cfg.clone() });
    assert_ne!(report.canonical(), other.canonical(), "seed does not steer the schedule");
}

#[test]
fn ack_before_fence_is_convicted_by_the_durability_probe() {
    let cfg = ServeCfg {
        seed_bug: Some(SeedBug::AckBeforeFence),
        mix: LoadMix::WriteHeavy,
        ..micro_cfg()
    };
    let report = run_serve(&cfg);
    let (durability, _, protocol) = report.violations();
    assert!(durability > 0, "acked-before-fence writes went unnoticed");
    assert_eq!(protocol, 0, "the planted bug must not corrupt wire framing");
    assert!(report.violation_example.is_some(), "conviction must carry an example");
}

/// The planted fold drops a write only when it shares a group-commit round
/// with an earlier write to its key, and the sweep sees it only when it was
/// that key's last. How many writes a round drains follows how fast reads
/// are served, so the window is made to leave nothing to that: every burst
/// arrives within one millisecond — far above any service rate — and the
/// writes of a rank go to sixteen keys, so a round drains about a hundred writes
/// and folds most of them. That precondition is asserted: a change that
/// empties it fails here with a reason.
#[test]
fn dropped_folded_write_is_convicted_by_read_your_writes() {
    let cfg = ServeCfg {
        seed_bug: Some(SeedBug::DroppedWrite),
        mix: LoadMix::WriteHeavy,
        keys_per_rank: 16,
        duration_ms: 1,
        ..micro_cfg()
    };
    let report = run_serve(&cfg);
    let folded: u64 = report.rows.iter().map(|r| r.folded_dups).sum();
    let writes: u64 = report.rows.iter().map(|r| r.batch_records).sum();
    assert!(
        folded > writes / 2,
        "only {folded} of {writes} writes shared a round with an earlier write to their key: \
         the planted bug had nothing to drop"
    );
    let (_, ryw, _) = report.violations();
    assert!(ryw > 0, "dropped folded write went unnoticed");
    assert!(report.violation_example.is_some(), "conviction must carry an example");
}
