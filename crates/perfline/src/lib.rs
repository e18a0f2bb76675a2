//! # papyrus-perfline
//!
//! The repo's **perf-trajectory plane**: a YCSB-style workload suite run
//! over the simulated world, exported as a schema-versioned
//! [`PerfSnapshot`] (`BENCH_<git-sha>.json`), plus the regression gate
//! that compares a fresh snapshot against a committed baseline
//! (`papyrus_telemetry::compare`).
//!
//! One suite = the cross product of workload mixes (YCSB A–F), key skews
//! (uniform / zipfian / hotspot), and rank counts. Every cell:
//!
//! 1. **Load**: each rank inserts a contiguous chunk of the ordered
//!    keyspace (`user%012d`), then a [`BarrierLevel::SsTable`] barrier
//!    flushes everything — the measured phase starts from the YCSB-like
//!    "loaded and settled" state.
//! 2. **Arm**: rank 0 zeroes the global telemetry registry and turns
//!    recording on, so the exported histograms cover the measured phase
//!    only (not the load or the final close).
//! 3. **Measure**: each rank runs `ops_per_rank` operations drawn from
//!    the cell's [`Mix`] and [`KeyChooser`]. Reads/updates/RMWs address
//!    the loaded keyspace; inserts extend per-rank disjoint regions;
//!    read-latest mixes (YCSB D) apply the skew to *recency* via
//!    [`KeyChooser::next_recency`]; scans are client-side range reads
//!    over consecutive ordered keys (the core engine is a hash-partitioned
//!    point store, so ranges are iterated at the client as in the paper's
//!    MDHIM comparison).
//! 4. **Export**: per-rank log-linear histograms are merged bucket-wise
//!    (exact — same layout) into job-wide put/get/scan percentiles; flush
//!    and compaction counters are summed; throughput is total ops over
//!    the slowest rank's virtual elapsed time.
//!
//! All timing is *virtual* ([`papyrus_simtime`]): snapshots measure the
//! modelled device/network cost of the engine's decisions, so they are
//! comparable across machines and CI runners. A world runs one task at a
//! time in virtual-time order, so each cell runs once and the same seed
//! gives the same snapshot, byte for byte, on one CPU or many; the gate
//! ([`papyrus_telemetry::compare`]) is exact.
//!
//! ## Seed bugs
//!
//! `SeedBug` plants deliberate virtual-time regressions so the gate can
//! be self-tested end-to-end (`perfline --seed-bug all`): a p99 spike
//! advances the rank clock *inside* the scan measurement window on a
//! deterministic 1-in-16 subset of scans; a throughput drain advances it
//! once after the last measured op, *outside* every latency window,
//! slowing elapsed time (and QPS) by 25% while leaving every op — and so
//! every queue wait — exactly where it was.

use papyrus_bench::value_of;
use papyrus_bench::workload::{
    ordered_key, KeyChooser, KeyDist, Mix, Op, ALL_MIXES, HOTSPOT_OP_FRACTION,
    HOTSPOT_SET_FRACTION, ZIPF_THETA,
};
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyrus_telemetry::{LatencySummary, PerfSnapshot, WorkloadPerf, PERF_SCHEMA_VERSION};
use papyruskv::{BarrierLevel, Consistency, Context, OpenFlags, Options, Platform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ordered keys are `user%012d` — 16 bytes.
const KEY_LEN: u64 = 16;

/// Deliberate regression planted into a suite run (gate self-test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedBug {
    /// Advance the clock inside the scan measurement window on every 16th
    /// scan: scan p99 explodes, throughput barely moves.
    ScanP99,
    /// Advance the clock after the last measured operation by a quarter of
    /// the measured phase's virtual duration: elapsed time grows 25% (QPS
    /// drops 20%) while latency percentiles are untouched.
    Throughput,
}

/// The planted regressions of the `--seed-bug` self test, by CLI name.
pub const SEED_BUGS: [(&str, SeedBug); 2] =
    [("scan-p99", SeedBug::ScanP99), ("throughput", SeedBug::Throughput)];

/// Virtual spike injected per poisoned scan by [`SeedBug::ScanP99`].
const SCAN_SPIKE_NS: u64 = 4_000_000;

/// Suite configuration. [`SuiteCfg::default_suite`] is the shape committed
/// as `BENCH_baseline.json`; [`SuiteCfg::quick`] is a scaled-down variant
/// for tests and the seed-bug self-check.
#[derive(Debug, Clone)]
pub struct SuiteCfg {
    /// Rank counts to sweep.
    pub ranks: Vec<usize>,
    /// Workload mixes to run.
    pub mixes: Vec<Mix>,
    /// Key-skew distributions to run.
    pub skews: Vec<KeyDist>,
    /// Keys loaded per rank (keyspace = `ranks * keys_per_rank`).
    pub keys_per_rank: usize,
    /// Minimum measured operations per rank.
    pub ops_per_rank: usize,
    /// Minimum measured operations per *cell*: low rank counts run more
    /// ops per rank (`max(ops_per_rank, cell_ops_target / ranks)`) so
    /// every cell's percentiles rest on comparable sample counts.
    pub cell_ops_target: usize,
    /// Value size in bytes.
    pub vallen: usize,
    /// Scan lengths are uniform in `[1, max_scan_len]`.
    pub max_scan_len: u64,
    /// Per-database MemTable capacity — small enough that the measured
    /// phase triggers flush (and occasionally compaction) activity.
    pub memtable_capacity: u64,
    /// Replication factor (R≥2 additionally exports `repl_lag`).
    pub replicas: usize,
    /// Workload seed.
    pub seed: u64,
    /// Free-form generator label recorded in the snapshot.
    pub label: String,
    /// Planted regression, if any (gate self-test).
    pub seed_bug: Option<SeedBug>,
}

impl SuiteCfg {
    /// The committed-baseline shape: 6 mixes x 3 skews x {4, 64} ranks.
    ///
    /// The sweep deliberately stops at 64 ranks: every rank and helper is
    /// a task handing the one baton around, so a 256-rank sweep costs
    /// minutes of hand-offs for no extra model fidelity. Larger counts
    /// remain a `--ranks 4,64,256` flag away for occasional deep runs.
    pub fn default_suite() -> Self {
        Self {
            ranks: vec![4, 64],
            mixes: ALL_MIXES.to_vec(),
            skews: default_skews(),
            keys_per_rank: 64,
            ops_per_rank: 96,
            cell_ops_target: 8192,
            vallen: 4096,
            max_scan_len: 12,
            memtable_capacity: 64 << 10,
            replicas: 1,
            seed: 0x5EED,
            label: String::new(),
            seed_bug: None,
        }
    }

    /// Scaled-down suite for tests and the seed-bug self-check.
    pub fn quick() -> Self {
        Self {
            ranks: vec![4],
            mixes: ALL_MIXES.to_vec(),
            skews: vec![KeyDist::Uniform, KeyDist::Zipfian { theta: ZIPF_THETA }],
            keys_per_rank: 32,
            ops_per_rank: 48,
            cell_ops_target: 8192,
            vallen: 1024,
            memtable_capacity: 32 << 10,
            ..Self::default_suite()
        }
    }

    /// Measured operations per rank at a given rank count (see
    /// [`SuiteCfg::cell_ops_target`]).
    pub fn ops_at(&self, ranks: usize) -> usize {
        self.ops_per_rank.max(self.cell_ops_target / ranks.max(1))
    }

    /// Human-readable sizing string recorded as the snapshot label.
    pub fn describe(&self, name: &str) -> String {
        format!(
            "{name}: {} mixes x {} skews x ranks {:?}, {} keys/rank, >={} ops/cell, {}B values, R={}, seed {:#x}",
            self.mixes.len(),
            self.skews.len(),
            self.ranks,
            self.keys_per_rank,
            self.cell_ops_target.max(self.ops_per_rank),
            self.vallen,
            self.replicas,
            self.seed,
        )
    }
}

/// The default skew sweep: uniform, zipfian(0.99), hotspot(20%/80%).
pub fn default_skews() -> Vec<KeyDist> {
    vec![
        KeyDist::Uniform,
        KeyDist::Zipfian { theta: ZIPF_THETA },
        KeyDist::Hotspot { set_fraction: HOTSPOT_SET_FRACTION, op_fraction: HOTSPOT_OP_FRACTION },
    ]
}

/// Stable row id for one suite cell: `"<mix>/<skew>/r<ranks>"`.
pub fn workload_id(mix: &Mix, skew: &KeyDist, ranks: usize) -> String {
    format!("{}/{}/r{}", mix.name, skew.label(), ranks)
}

/// Run the full suite and assemble the snapshot (`git_sha` left for the
/// caller — the library has no git dependency).
pub fn run_suite(cfg: &SuiteCfg) -> PerfSnapshot {
    let mut workloads = Vec::new();
    for &ranks in &cfg.ranks {
        for skew in &cfg.skews {
            for mix in &cfg.mixes {
                workloads.push(run_cell(cfg, *mix, *skew, ranks));
            }
        }
    }
    PerfSnapshot {
        schema_version: PERF_SCHEMA_VERSION,
        git_sha: "unknown".to_string(),
        label: cfg.label.clone(),
        workloads,
    }
}

/// Run one suite cell (a mix at one skew and rank count) and export its
/// row from the merged telemetry of the measured phase.
pub fn run_cell(cfg: &SuiteCfg, mix: Mix, skew: KeyDist, ranks: usize) -> WorkloadPerf {
    assert!(cfg.keys_per_rank > 0 && cfg.ops_per_rank > 0 && cfg.max_scan_len > 0);
    // The telemetry registry a cell resets, arms and reads back is
    // process-global: cells running concurrently in one process (parallel
    // test threads) would record into each other's histograms.
    static CELL: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    let _exclusive = CELL.lock();
    let profile = SystemProfile::summitdev();
    let platform = Platform::new(profile.clone(), ranks);
    let loaded = (cfg.keys_per_rank * ranks) as u64;
    let keys_per_rank = cfg.keys_per_rank as u64;
    let ops_per_rank = cfg.ops_at(ranks);
    let vallen = cfg.vallen;
    let max_scan_len = cfg.max_scan_len;
    let memtable_capacity = cfg.memtable_capacity;
    let replicas = cfg.replicas;
    let seed = cfg.seed;
    let seed_bug = cfg.seed_bug;
    // Read-latest (YCSB D) is the mix that both reads and inserts: its
    // reads are skewed toward recent items rather than keyspace position.
    let read_latest = mix.read > 0 && mix.insert > 0;

    let per_rank = World::run(WorldConfig::new(ranks, profile.net.clone()), move |rank| {
        let ctx = Context::init(rank.clone(), platform.clone(), "nvm://perfline").unwrap();
        let opt = Options::default()
            .with_memtable_capacity(memtable_capacity)
            .with_consistency(Consistency::Sequential)
            .with_replicas(replicas);
        let db = ctx.open("perfline", OpenFlags::create(), opt).unwrap();
        let r = ctx.rank() as u64;
        let value = value_of(vallen, b'v');

        // Load phase: contiguous ordered-key chunk per rank, then settle
        // everything into SSTables (quiescent, YCSB-like post-load state).
        for i in r * keys_per_rank..(r + 1) * keys_per_rank {
            db.put(&ordered_key(i), &value).unwrap();
        }
        db.barrier(BarrierLevel::SsTable).unwrap();

        // Arm telemetry for the measured phase only. Rank 0 resets before
        // entering the barrier, so no rank proceeds until the registry is
        // zeroed and recording is on.
        if r == 0 {
            papyrus_telemetry::reset();
            papyrus_telemetry::enable();
        }
        ctx.barrier_all();

        let scan_h = papyrus_telemetry::global().histogram(r as u32, "wl.scan.ns");
        let chooser = KeyChooser::new(skew, loaded);
        let mut rng = StdRng::seed_from_u64(
            seed ^ (r << 32) ^ (mix.name.as_bytes()[0] as u64) ^ ((skew.label().len() as u64) << 8),
        );
        let clock = ctx.clock();
        // Inserts extend per-rank disjoint index regions past the loaded
        // keyspace; only the inserting rank reads them back (read-latest).
        let insert_base = loaded + r * ops_per_rank as u64;
        let mut inserted = 0u64;
        let mut scans = 0u64;
        let mut bytes = 0u64;

        let t0 = ctx.now();
        for _ in 0..ops_per_rank {
            match mix.next_op(&mut rng) {
                Op::Read => {
                    let idx = if read_latest {
                        // Skew over recency: position in the global load
                        // order followed by this rank's own inserts.
                        let window = loaded + inserted;
                        let pos = window - 1 - chooser.next_recency(&mut rng, window);
                        if pos < loaded {
                            pos
                        } else {
                            insert_base + (pos - loaded)
                        }
                    } else {
                        chooser.next(&mut rng)
                    };
                    bytes += db.get(&ordered_key(idx)).unwrap().len() as u64 + KEY_LEN;
                }
                Op::Update => {
                    db.put(&ordered_key(chooser.next(&mut rng)), &value).unwrap();
                    bytes += vallen as u64 + KEY_LEN;
                }
                Op::Insert => {
                    db.put(&ordered_key(insert_base + inserted), &value).unwrap();
                    inserted += 1;
                    bytes += vallen as u64 + KEY_LEN;
                }
                Op::Scan => {
                    let start = chooser.next(&mut rng);
                    let len = 1 + rng.gen_range(0..max_scan_len);
                    let t = ctx.now();
                    for j in 0..len {
                        let k = ordered_key((start + j) % loaded);
                        bytes += db.get(&k).unwrap().len() as u64 + KEY_LEN;
                    }
                    scans += 1;
                    if seed_bug == Some(SeedBug::ScanP99) && scans.is_multiple_of(16) {
                        clock.advance(SCAN_SPIKE_NS);
                    }
                    scan_h.record(ctx.now() - t);
                }
                Op::Rmw => {
                    let k = ordered_key(chooser.next(&mut rng));
                    let v = db.get(&k).unwrap();
                    db.put(&k, &v).unwrap();
                    bytes += 2 * (v.len() as u64 + KEY_LEN);
                }
            }
        }
        if seed_bug == Some(SeedBug::Throughput) {
            clock.advance((ctx.now() - t0) / 4);
        }
        let t1 = ctx.now();

        // Stop recording before close() so close-triggered flushes don't
        // contaminate the cell's counters; second barrier keeps every
        // rank's close on the disabled side.
        ctx.barrier_all();
        if r == 0 {
            papyrus_telemetry::disable();
        }
        ctx.barrier_all();
        db.close().unwrap();
        ctx.finalize().unwrap();
        (ops_per_rank as u64, bytes, t1 - t0)
    });

    let snap = papyrus_telemetry::snapshot();
    let ops: u64 = per_rank.iter().map(|p| p.0).sum();
    let bytes_moved: u64 = per_rank.iter().map(|p| p.1).sum();
    let elapsed_ns = per_rank.iter().map(|p| p.2).max().unwrap_or(0);
    let qps = if elapsed_ns == 0 { 0.0 } else { ops as f64 * 1e9 / elapsed_ns as f64 };

    let mut get_h = snap.merged_histogram("kv.get.local.ns");
    get_h.merge(&snap.merged_histogram("kv.get.remote.ns"));
    let repl_lag = if replicas >= 2 {
        LatencySummary::from_hist(&snap.merged_histogram("repl.lag.ns"))
    } else {
        None
    };
    WorkloadPerf {
        id: workload_id(&mix, &skew, ranks),
        mix: mix.name.to_string(),
        skew: skew.label().to_string(),
        ranks,
        replicas,
        ops,
        elapsed_ns,
        qps,
        bytes_moved,
        flushes: snap.counter_sum("kv.flush.count"),
        compactions: snap.counter_sum("kv.compact.count"),
        put: LatencySummary::from_hist(&snap.merged_histogram("kv.put.ns")),
        get: LatencySummary::from_hist(&get_h),
        scan: LatencySummary::from_hist(&snap.merged_histogram("wl.scan.ns")),
        repl_lag,
    }
}

/// Short git sha of `repo_root`'s HEAD, or `"unknown"` outside a checkout.
pub fn git_short_sha(repo_root: &std::path::Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(repo_root)
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_ids_are_stable() {
        let id = workload_id(&papyrus_bench::workload::MIX_A, &KeyDist::Uniform, 64);
        assert_eq!(id, "A/uniform/r64");
        let z = KeyDist::Zipfian { theta: ZIPF_THETA };
        assert_eq!(workload_id(&papyrus_bench::workload::MIX_E, &z, 4), "E/zipfian/r4");
    }

    #[test]
    fn micro_cell_exports_populated_row() {
        let mut cfg = SuiteCfg::quick();
        cfg.keys_per_rank = 16;
        cfg.ops_per_rank = 32;
        cfg.cell_ops_target = 0;
        cfg.vallen = 256;
        let row = run_cell(&cfg, papyrus_bench::workload::MIX_A, KeyDist::Uniform, 2);
        assert_eq!(row.id, "A/uniform/r2");
        assert_eq!(row.ops, 64);
        assert!(row.elapsed_ns > 0);
        assert!(row.qps > 0.0);
        assert!(row.bytes_moved > 0);
        // A is 50/50 read/update: both put and get percentiles populated,
        // no scans.
        let put = row.put.expect("puts recorded");
        let get = row.get.expect("gets recorded");
        assert!(put.count > 0 && put.p99_ns >= put.p50_ns);
        assert!(get.count > 0 && get.p99_ns >= get.p50_ns);
        assert!(row.scan.is_none());
        assert!(row.repl_lag.is_none(), "R=1 exports no replica lag");
    }

    #[test]
    fn scan_mix_exports_scan_latency_and_seed_bug_inflates_it() {
        let mut cfg = SuiteCfg::quick();
        cfg.keys_per_rank = 16;
        cfg.ops_per_rank = 64;
        cfg.cell_ops_target = 0;
        cfg.vallen = 256;
        let clean = run_cell(&cfg, papyrus_bench::workload::MIX_E, KeyDist::Uniform, 2);
        let scan = clean.scan.expect("E records whole-scan latency");
        assert!(scan.count > 0);
        cfg.seed_bug = Some(SeedBug::ScanP99);
        let bugged = run_cell(&cfg, papyrus_bench::workload::MIX_E, KeyDist::Uniform, 2);
        let bscan = bugged.scan.unwrap();
        assert!(
            bscan.p99_ns as f64 > scan.p99_ns as f64 * 1.5,
            "planted spike must inflate scan p99 ({} vs {})",
            bscan.p99_ns,
            scan.p99_ns
        );
    }

    #[test]
    fn throughput_seed_bug_drops_qps_but_not_latency() {
        let mut cfg = SuiteCfg::quick();
        cfg.keys_per_rank = 16;
        cfg.ops_per_rank = 64;
        cfg.cell_ops_target = 0;
        cfg.vallen = 256;
        // Two ranks, remote gets included: the drain advances the clock
        // *outside* every latency window, and the world's one-task-at-a-
        // time order keeps every get's queue waits where they were.
        let clean = run_cell(&cfg, papyrus_bench::workload::MIX_C, KeyDist::Uniform, 2);
        cfg.seed_bug = Some(SeedBug::Throughput);
        let bugged = run_cell(&cfg, papyrus_bench::workload::MIX_C, KeyDist::Uniform, 2);
        assert!(
            bugged.qps < clean.qps * 0.88,
            "drain must slow QPS by >12% ({} vs {})",
            bugged.qps,
            clean.qps
        );
        // Latencies are recorded inside the engine: a drain that leaked
        // into a measurement window would move at least one field.
        assert_eq!(bugged.get.expect("C is all reads"), clean.get.expect("C is all reads"));
    }
}
