//! End-to-end coverage of the perf-trajectory plane: a real (micro) suite
//! run over the simulated world, the snapshot's JSON round trip through
//! disk, and the regression gate catching a planted slowdown while a clean
//! rerun reproduces the baseline exactly.

use papyrus_bench::workload::{KeyDist, MIX_A, MIX_E, ZIPF_THETA};
use papyrus_perfline::{run_suite, SeedBug, SuiteCfg};
use papyrus_telemetry::{compare, PerfSnapshot, PERF_SCHEMA_VERSION};

/// A micro suite: 2 mixes x 2 skews x 2 rank counts, sized to stay fast
/// while keeping scan cells (E) in play for the seed-bug leg.
fn micro_cfg() -> SuiteCfg {
    let mut cfg = SuiteCfg::quick();
    cfg.ranks = vec![2, 4];
    cfg.mixes = vec![MIX_A, MIX_E];
    cfg.skews = vec![KeyDist::Uniform, KeyDist::Zipfian { theta: ZIPF_THETA }];
    cfg.keys_per_rank = 16;
    cfg.ops_per_rank = 64;
    cfg.cell_ops_target = 4096;
    cfg.vallen = 512;
    cfg.label = "integration micro suite".to_string();
    cfg
}

#[test]
fn suite_covers_every_cell_and_round_trips_through_disk() {
    let cfg = micro_cfg();
    let mut snap = run_suite(&cfg);
    snap.git_sha = "itest00".to_string();

    assert_eq!(snap.schema_version, PERF_SCHEMA_VERSION);
    assert_eq!(snap.workloads.len(), 2 * 2 * 2, "one row per suite cell");
    for (mix, skew, ranks) in
        [("A", "uniform", 2), ("E", "zipfian", 2), ("A", "zipfian", 4), ("E", "uniform", 4)]
    {
        let id = format!("{mix}/{skew}/r{ranks}");
        let row = snap.workload(&id).unwrap_or_else(|| panic!("row {id} missing"));
        assert_eq!(row.ranks, ranks);
        assert!(row.ops > 0 && row.elapsed_ns > 0 && row.qps > 0.0, "{id} must be measured");
        assert!(row.get.is_some(), "{id}: both A and E read");
        if mix == "E" {
            let scan = row.scan.as_ref().expect("E records whole-scan latency");
            assert!(scan.p99_ns >= scan.p50_ns && scan.count > 0);
        } else {
            assert!(row.scan.is_none(), "{id}: A has no scans");
        }
    }

    // Round trip through the file format the CI gate consumes.
    let dir = std::env::temp_dir().join(format!("perfline-itest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_itest.json");
    let path_s = path.to_string_lossy().to_string();
    snap.write_json(&path_s).unwrap();
    let back = PerfSnapshot::read_json(&path_s).unwrap();
    assert_eq!(back, snap, "disk round trip must be lossless");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gate_catches_planted_throughput_regression_and_passes_clean() {
    // Multi-rank: every world runs one task at a time in virtual-time
    // order, so remote handlers and their queue waits repeat exactly.
    let mut cfg = micro_cfg();
    cfg.cell_ops_target = 0;
    let baseline = run_suite(&cfg);

    // Identical seed and sizing: a rerun is the same snapshot, bit for bit.
    let rerun = run_suite(&cfg);
    assert_eq!(rerun.workloads, baseline.workloads, "clean rerun moved");
    assert!(compare(&rerun, &baseline).is_empty());

    // Planted drain: every op's virtual duration is stretched ~25% outside
    // the latency windows, so QPS regresses while p99s stay put.
    let mut bugged_cfg = cfg.clone();
    bugged_cfg.seed_bug = Some(SeedBug::Throughput);
    let bugged = run_suite(&bugged_cfg);
    let regs = compare(&bugged, &baseline);
    assert!(
        regs.iter().any(|r| r.metric == "qps"),
        "planted throughput drain must trip the qps gate: {regs:#?}"
    );
    assert!(
        regs.iter().all(|r| r.metric == "qps"),
        "drain sits outside latency windows, p99 must not fire: {regs:#?}"
    );
}
