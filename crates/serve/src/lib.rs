//! papyrus-serve: a deterministic RESP front end over PapyrusKV.
//!
//! The ROADMAP's "serves heavy traffic" claim needs a network face. This
//! crate layers a RESP2-subset protocol server
//! (GET/SET/DEL/MGET/MSET/EXISTS/RANGE/PING/INFO) on [`papyruskv::Db`],
//! running entirely inside the simtime World so a 4-rank, 10k-connection
//! load test produces *bit-identical* virtual-time numbers for a given
//! seed — CI gates on the numbers themselves.
//!
//! Pieces, bottom up:
//!
//! - [`resp`] — incremental RESP codec (inline + bulk frames,
//!   pipelining-safe partial-read resumption, typed errors, no panics);
//!   a frame's payloads are slices of the buffer they were received in.
//! - [`cmd`] — frame → typed command parsing (keys and values stay those
//!   slices), typed replies.
//! - [`loadgen`] — open-loop memtier-style generator: fixed arrival
//!   schedule, pipelined bursts, skewed keys via
//!   `papyrus_bench::workload::KeyChooser`.
//! - [`server`] — the per-rank serving window: hash-sharded dispatch
//!   queues (shard = owner rank), greedy group commit (fold backlog →
//!   one relaxed batch → one fence → ack), plus durability,
//!   read-your-writes, and protocol oracles.
//! - [`report`] — per-rank rows, exact percentiles, canonical
//!   byte-stable rendering for the determinism self-test.
//!
//! [`run_serve`] wires them into a full World run; `cargo xtask serve`
//! drives it, and [`perf_rows`] exports `serve` row families into
//! perfline's `BENCH_<sha>.json` regression gate.

pub mod cmd;
pub mod loadgen;
pub mod report;
pub mod resp;
pub mod server;
pub mod tel;

use papyrus_bench::value_of;
use papyrus_bench::workload::ordered_key;
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyrus_telemetry::{LatencySummary, WorkloadPerf};
use papyruskv::{BarrierLevel, Consistency, Context, OpenFlags, Options, Platform};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use loadgen::{LoadMix, LoadSkew};
pub use report::{LatSummary, RankRow, ServeReport};
pub use server::{serve_window, WindowStats};

/// Defects the self-test can plant; each must be convicted by its oracle
/// (`cargo xtask serve --seed-bug all`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedBug {
    /// Ack writes (and run the durability probe) *before* the round's
    /// fence: clients are told "durable" while their records still sit in
    /// the staging MemTables. Convicted by the durability oracle.
    AckBeforeFence,
    /// Fold duplicate keys first-writer-wins, silently dropping the later
    /// client write from the batch. Convicted by the read-your-writes
    /// sweep.
    DroppedWrite,
}

/// The plantable defects of the `--seed-bug` self test, by CLI name.
pub const SEED_BUGS: [(&str, SeedBug); 2] =
    [("ack-before-fence", SeedBug::AckBeforeFence), ("dropped-write", SeedBug::DroppedWrite)];

/// Configuration for one serve run.
#[derive(Debug, Clone)]
pub struct ServeCfg {
    /// World size.
    pub ranks: usize,
    /// Simulated connections per rank's window.
    pub conns_per_rank: u32,
    /// Commands per pipelined burst.
    pub pipeline: u32,
    /// Bursts per connection (open-loop arrivals).
    pub bursts: u32,
    /// Arrival window length, virtual milliseconds.
    pub duration_ms: u64,
    /// Pre-loaded keys per rank (the RANGE/GET keyspace).
    pub keys_per_rank: u64,
    /// Value length for loads and SETs.
    pub vallen: usize,
    /// Command mix.
    pub mix: LoadMix,
    /// Read-key skew.
    pub skew: LoadSkew,
    /// Run seed; same seed ⇒ byte-identical report.
    pub seed: u64,
    /// Planted defect, if any.
    pub seed_bug: Option<SeedBug>,
}

impl ServeCfg {
    /// The acceptance-gate sizing: 4 ranks × 10k connections, pipelined
    /// GET/SET mix.
    pub fn full() -> Self {
        Self {
            ranks: 4,
            conns_per_rank: 10_000,
            pipeline: 4,
            bursts: 2,
            duration_ms: 200,
            keys_per_rank: 4096,
            vallen: 64,
            mix: LoadMix::Balanced,
            skew: LoadSkew::Zipfian,
            seed: 42,
            seed_bug: None,
        }
    }

    /// Reduced sizing for unit/integration tests and perfline rows.
    pub fn quick() -> Self {
        Self { conns_per_rank: 512, keys_per_rank: 1024, duration_ms: 40, ..Self::full() }
    }
}

/// Run a full serve world: load the keyspace, settle it into SSTables,
/// then serve every rank's window at once — each rank is a client-facing
/// server and, through its message handler, every other rank's storage
/// peer — and aggregate the per-rank stats. The world's scheduler makes
/// the whole run a pure function of `cfg.seed`.
pub fn run_serve(cfg: &ServeCfg) -> ServeReport {
    assert!(cfg.ranks > 0 && cfg.conns_per_rank > 0 && cfg.pipeline > 0 && cfg.bursts > 0);
    let profile = SystemProfile::summitdev();
    let platform = Platform::new(profile.clone(), cfg.ranks);
    let mem = profile.mem.clone();
    let cfg2 = cfg.clone();
    let per_rank = World::run(WorldConfig::new(cfg.ranks, profile.net.clone()), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://serve").unwrap();
        let opt = Options::default().with_consistency(Consistency::Relaxed);
        let db = ctx.open("serve", OpenFlags::create(), opt).unwrap();
        let r = ctx.rank();

        // Load: contiguous ordered-key chunk per rank, then settle it all
        // into SSTables so the measured windows start quiescent.
        let value = value_of(cfg2.vallen, b'i');
        let base = r as u64 * cfg2.keys_per_rank;
        for i in base..base + cfg2.keys_per_rank {
            db.put(&ordered_key(i), &value).unwrap();
        }
        db.barrier(BarrierLevel::SsTable).unwrap();

        if r == 0 {
            papyrus_telemetry::reset();
            papyrus_telemetry::enable();
        }
        ctx.barrier_all();

        let mut rng = StdRng::seed_from_u64(cfg2.seed ^ ((r as u64) << 32));
        let stats = serve_window(&ctx, &db, &cfg2, &mem, &mut rng);

        ctx.barrier_all();
        if r == 0 {
            papyrus_telemetry::disable();
        }
        ctx.barrier_all();
        db.close().unwrap();
        ctx.finalize().unwrap();
        stats
    });
    ServeReport::build(cfg, per_rank)
}

/// Approximate payload bytes a report moved (keys + values per store op).
fn bytes_moved(report: &ServeReport, vallen: usize) -> u64 {
    let ops: u64 = report.rows.iter().map(|r| r.store_ops).sum();
    ops * (16 + vallen as u64)
}

fn to_latency_summary(l: &LatSummary) -> LatencySummary {
    LatencySummary {
        count: l.count,
        mean_ns: l.mean_ns as f64,
        p50_ns: l.p50_ns,
        p95_ns: l.p95_ns,
        p99_ns: l.p99_ns,
        max_ns: l.max_ns,
    }
}

/// Perfline integration: run the serve plane at reduced sizing and
/// export one `serve` row per command mix: `put` carries write-command
/// latency, `get` read-command latency, and `qps` commands per virtual
/// second — all under the same exact gate as the engine rows.
pub fn perf_rows(seed: u64) -> Vec<WorkloadPerf> {
    [LoadMix::ReadHeavy, LoadMix::Balanced]
        .into_iter()
        .map(|mix| {
            let cfg = ServeCfg { mix, seed, ..ServeCfg::quick() };
            let report = run_serve(&cfg);
            assert!(report.clean(), "serve perf row ran dirty: {:?}", report.violation_example);
            WorkloadPerf {
                id: format!("serve_{}/{}/r{}", report.mix, report.skew, report.ranks),
                mix: format!("serve_{}", report.mix),
                skew: report.skew.clone(),
                ranks: report.ranks,
                replicas: 1,
                ops: report.total_cmds(),
                elapsed_ns: report.elapsed_ns(),
                qps: report.qps(),
                bytes_moved: bytes_moved(&report, cfg.vallen),
                flushes: 0,
                compactions: 0,
                put: report.write.as_ref().map(to_latency_summary),
                get: report.read.as_ref().map(to_latency_summary),
                scan: None,
                repl_lag: None,
            }
        })
        .collect()
}
