//! Pinned-seed replication suite: read failover and re-replication after
//! rank death (DESIGN §11), plus the replicated chaos sweep.
//!
//! The probe kills rank 3 of 4 at a fixed virtual time with replication
//! factor 2 and asserts exact outcomes; the sweep reruns the tiny pinned
//! chaos schedules with the replication oracle armed — acked keys must
//! stay readable through a single rank kill, with no owner-dead exemption.

use std::sync::Arc;

use papyrus_chaos::probes::{replication_probe, KEYS_PER_RANK, PROBE_RANKS, VICTIM};
use papyrus_chaos::{chaos_sweep, ChaosCfg};
use papyrus_telemetry::Registry;

/// Every key acked before the kill must read back through failover, and
/// re-replication must converge the heal target to a full copy.
#[test]
fn single_kill_failover_and_rereplication_converge() {
    let tel = Arc::new(Registry::with_enabled(true));
    let outcomes = replication_probe(&tel);
    let total_keys = PROBE_RANKS * KEYS_PER_RANK;

    // The victim returns an empty outcome; every survivor must have read
    // back all acked keys despite the dead owner.
    for (rank, out) in outcomes.iter().enumerate() {
        if rank == VICTIM {
            assert_eq!(out.reads_ok, 0, "the victim must not keep reading after its kill");
            continue;
        }
        assert!(
            out.reads_bad.is_empty(),
            "rank {rank}: acked keys unreadable after the kill:\n{}",
            out.reads_bad.join("\n")
        );
        assert_eq!(out.reads_ok, total_keys, "rank {rank} read fewer keys than were acked");
    }

    // Promotion: the victim's first live successor claimed its ranges.
    let first_successor = (VICTIM + 1) % PROBE_RANKS;
    assert!(outcomes[first_successor].promoted, "first successor did not promote");

    // Convergence: the promoted rank held the victim's full replica set
    // already; re-replication must have copied it to the heal target so
    // the ring is back at R = 2 copies.
    let heal_target = (VICTIM + 2) % PROBE_RANKS;
    assert_eq!(
        outcomes[first_successor].replica_pairs, total_keys,
        "promoted rank lost replica pairs"
    );
    assert_eq!(
        outcomes[heal_target].replica_pairs, total_keys,
        "re-replication did not converge the heal target"
    );

    // The failover/promotion/re-replication machinery is observable: the
    // new counters must have moved during the probe.
    let snap = tel.snapshot();
    let count = |name: &str| snap.counter_sum(name);
    assert!(count("repl.forwards") > 0, "no replica forwards counted");
    assert!(count("repl.failovers") > 0, "no failover gets counted");
    assert!(count("repl.promotions") > 0, "no promotion counted");
    assert!(count("repl.rereplicated.bytes") > 0, "no re-replicated bytes counted");
    // And they surface in the Chrome trace export as counter tracks.
    let trace = snap.to_chrome_trace();
    assert!(trace.contains("\"name\":\"repl.failovers\""));
    assert!(trace.contains("\"ph\":\"C\""));
}

/// The tiny pinned sweep, replicated: same five fault classes, but the
/// oracle now counts a dead owner's acked keys as losses if unreadable.
#[test]
fn pinned_seed_sweep_with_replication_is_clean() {
    let mut cfg = ChaosCfg::tiny();
    cfg.replicas = 2;
    let report = chaos_sweep(&cfg);
    assert_eq!(report.schedules, cfg.seeds);
    assert!(report.is_clean(), "replicated chaos sweep found violations:\n{}", report.render());
    assert!(report.puts > 0 && report.gets > 0, "workload ran no operations");
    assert!(report.kill_schedules > 0, "no schedule exercised rank death");
}
