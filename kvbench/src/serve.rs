//! The `serve_resp` workload: the RESP front end on top of the whole stack.
//!
//! The benchmark builds the world and calls `papyrus_serve::serve_window`
//! for each rank in turn, as `papyrus_serve::run_serve` does, so set-up is
//! outside the timed region. It is the only open-loop workload: arrivals
//! follow a fixed schedule at a fixed rate whatever the server does, every
//! request is timed from when it was due, and the result is tail latency at
//! that rate, not throughput.

use std::sync::Arc;

use papyrus_bench::value_of;
use papyrus_mpi::{RankCtx, World};
use papyrus_serve::{serve_window, LoadMix, LoadSkew, ServeCfg, WindowStats};
use papyrus_telemetry::TelemetrySnapshot;
use papyruskv::{BarrierLevel, Consistency, Context, Error, OpenFlags, Options};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::calib::Reference;
use crate::count::{self, BackendCounts};
use crate::gen::key_of;
use crate::kv::{Mode, SetupStart, BASELINE_ROUNDS};
use crate::rig::{Rig, REPO};
use crate::stats::{percentile, sorted};

/// Arrival rate of one window, commands per virtual second: about 40% of
/// the ~84k/s at which a window saturates.
pub const RATE_PER_S: u64 = 32_000;
/// Latency limit: the write p99 (arrival to ack after the fence) may not
/// exceed this at [`RATE_PER_S`]. Over the limit is a failed run whatever
/// any bound says.
pub const WRITE_P99_LIMIT_NS: u64 = 100_000_000;
/// Rates of the traced run's ladder, commands per virtual second.
pub const LADDER: [u64; 3] = [16_000, 32_000, 64_000];

/// Large enough that no flush races a window (see `papyrus_serve`).
const MEMTABLE: u64 = 256 << 20;
const PIPELINE: u32 = 4;
const BURSTS: u32 = 4;

/// Sizing of the serve workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSpec {
    pub ranks: usize,
    pub conns_per_rank: u32,
    pub keys_per_rank: u64,
    pub rounds: usize,
}

impl ServeSpec {
    /// Commands one window delivers.
    pub fn cmds_per_window(&self) -> u64 {
        u64::from(self.conns_per_rank) * u64::from(PIPELINE) * u64::from(BURSTS)
    }

    /// The window configuration at `rate` commands per virtual second.
    fn cfg(&self, seed: u64, rate: u64) -> ServeCfg {
        ServeCfg {
            ranks: self.ranks,
            conns_per_rank: self.conns_per_rank,
            pipeline: PIPELINE,
            bursts: BURSTS,
            duration_ms: (self.cmds_per_window() * 1000 / rate).max(1),
            keys_per_rank: self.keys_per_rank,
            vallen: crate::gen::VAL_LEN,
            mix: LoadMix::Balanced,
            skew: LoadSkew::Zipfian,
            seed,
            seed_bug: None,
        }
    }
}

/// One rank's window of one round.
pub struct WindowRec {
    pub round: usize,
    pub rank: usize,
    /// Host nanoseconds since the world's epoch.
    pub host_start: u64,
    pub host_end: u64,
    pub virt_start: u64,
    pub virt_end: u64,
    pub allocs: u64,
    /// Reference kernel beside the window (see [`crate::calib`]).
    pub ref_ns: f64,
    pub stats: WindowStats,
}

impl WindowRec {
    pub fn host_ns(&self) -> u64 {
        self.host_end - self.host_start
    }

    /// Oracle convictions: durability, read-your-writes, protocol.
    pub fn violations(&self) -> u64 {
        self.stats.durability_violations
            + self.stats.ryw_violations
            + self.stats.protocol_violations
    }
}

/// What the traced rounds recorded.
pub struct ServeTrace {
    pub tel: TelemetrySnapshot,
    pub backend: BackendCounts,
    pub cpu_s: f64,
    /// Write p99 in virtual ns at each rate of [`LADDER`].
    pub ladder_write_p99: Vec<u64>,
}

struct RankOut {
    windows: Vec<WindowRec>,
    user_bytes: u64,
    setup_s: f64,
    /// Rank 0 only: keys read back at the end and how many of those reads
    /// failed; live user bytes found.
    swept: u64,
    sweep_failed: u64,
    live_bytes: u64,
    trace: Option<ServeTrace>,
}

/// Result of one serve world.
pub struct ServeOut {
    pub setup_s: f64,
    /// Every window, ordered by round then rank. In a traced run the first
    /// [`BASELINE_ROUNDS`] rounds are the untraced baseline.
    pub windows: Vec<WindowRec>,
    pub user_bytes: u64,
    pub live_bytes: u64,
    pub swept: u64,
    pub sweep_failed: u64,
    pub backend: BackendCounts,
    pub resident_bytes: u64,
    pub trace: Option<ServeTrace>,
}

/// Run one serve world.
pub fn run(spec: &ServeSpec, seed: u64, mode: Mode, reference: &Reference) -> ServeOut {
    let started = SetupStart::now(reference);
    let rig = Rig::new(spec.ranks);
    let (rig2, spec2, reference) = (rig.clone(), spec.clone(), reference.clone());
    let outs = World::run(rig.world_config(), move |rank| {
        rank_main(rank, &rig2, &spec2, seed, mode, started, reference.clone())
    });
    let mut out = ServeOut {
        setup_s: 0.0,
        windows: Vec::new(),
        user_bytes: 0,
        live_bytes: 0,
        swept: 0,
        sweep_failed: 0,
        backend: rig.counts(),
        resident_bytes: rig.resident_bytes(),
        trace: None,
    };
    for (r, rank_out) in outs.into_iter().enumerate() {
        out.windows.extend(rank_out.windows);
        out.user_bytes += rank_out.user_bytes;
        if r == 0 {
            out.setup_s = rank_out.setup_s;
            out.live_bytes = rank_out.live_bytes;
            out.swept = rank_out.swept;
            out.sweep_failed = rank_out.sweep_failed;
            out.trace = rank_out.trace;
        }
    }
    out.windows.sort_by_key(|w| (w.round, w.rank));
    out
}

fn rank_main(
    rank: RankCtx,
    rig: &Arc<Rig>,
    spec: &ServeSpec,
    seed: u64,
    mode: Mode,
    started: SetupStart,
    reference: Reference,
) -> RankOut {
    let ctx = Context::init_with_group(rank, rig.platform.clone(), REPO, 1).expect("init");
    let me = ctx.rank();
    let opt =
        Options::default().with_consistency(Consistency::Relaxed).with_memtable_capacity(MEMTABLE);
    let db = ctx.open("serve", OpenFlags::create(), opt).expect("open");
    let cfg = spec.cfg(seed, RATE_PER_S);
    let mem = rig.platform.profile.mem.clone();

    // Load a contiguous ordered-key chunk per rank and settle it, so the
    // windows start from quiescent SSTables.
    let value = value_of(cfg.vallen, b'i');
    let base = me as u64 * spec.keys_per_rank;
    for idx in base..base + spec.keys_per_rank {
        db.put(&key_of(idx), &value).expect("load");
    }
    db.barrier(BarrierLevel::SsTable).expect("settle");
    ctx.barrier_all();
    // Rank 0's set-up time is the one reported; the other rank goes on to
    // park at the first turn's barrier.
    let setup_s = if me == 0 { started.elapsed_s(&reference) } else { 0.0 };

    let mut out = RankOut {
        windows: Vec::new(),
        user_bytes: 0,
        setup_s,
        swept: 0,
        sweep_failed: 0,
        live_bytes: 0,
        trace: None,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ ((me as u64) << 32));
    let window = |round: usize, cfg: &ServeCfg, rng: &mut StdRng| {
        let ref_before = reference.measure();
        let (allocs, virt_start) = (count::allocs(), ctx.now());
        let host_start = started.at.elapsed().as_nanos() as u64;
        let stats = serve_window(&ctx, &db, cfg, &mem, rng);
        WindowRec {
            round,
            rank: me,
            host_start,
            host_end: started.at.elapsed().as_nanos() as u64,
            virt_start,
            virt_end: ctx.now(),
            allocs: count::allocs() - allocs,
            ref_ns: (ref_before + reference.measure()) / 2.0,
            stats,
        }
    };

    let rounds = if mode == Mode::SetupOnly { 0 } else { spec.rounds };
    let (mut backend_before, mut cpu_before) = (BackendCounts::default(), 0.0);
    for round in 0..rounds {
        if mode == Mode::Traced && round == BASELINE_ROUNDS && me == 0 {
            // Rank 1 is parked at the turn barrier with nothing in flight.
            backend_before = rig.counts();
            cpu_before = count::cpu_seconds();
            papyrus_telemetry::reset();
            papyrus_telemetry::enable();
        }
        for turn in 0..ctx.size() {
            if turn == me {
                out.windows.push(window(round, &cfg, &mut rng));
            }
            // Parked ranks sit here while their handler threads serve the
            // driver's remote reads and ingest its migrations.
            ctx.barrier_all();
        }
    }
    if mode == Mode::Traced && me == 0 {
        let tel = papyrus_telemetry::snapshot();
        papyrus_telemetry::disable();
        let backend = rig.counts().since(&backend_before);
        let cpu_s = count::cpu_seconds() - cpu_before;
        let ladder_write_p99 = LADDER
            .iter()
            .map(|&rate| {
                let stats = window(rounds, &spec.cfg(seed, rate), &mut rng).stats;
                percentile(&sorted(stats.lat_write), 99.0)
            })
            .collect();
        out.trace = Some(ServeTrace { tel, backend, cpu_s, ladder_write_p99 });
    }
    if me == 0 && mode != Mode::SetupOnly {
        // Read the whole keyspace back: what is live after the windows'
        // SETs and DELs, for space amplification.
        for idx in 0..spec.keys_per_rank * spec.ranks as u64 {
            out.swept += 1;
            match db.get(&key_of(idx)) {
                Ok(v) => out.live_bytes += (crate::gen::KEY_LEN + v.len()) as u64,
                Err(Error::NotFound) => {}
                Err(_) => out.sweep_failed += 1,
            }
        }
    }
    ctx.barrier_all();
    out.user_bytes = db.put_stats().bytes();
    db.close().expect("close");
    ctx.finalize().expect("finalize");
    out
}

/// `serve.server.wall_us_per_cmd_1rank`: the same window configuration on a
/// one-rank world, which takes the fabric out and leaves the serve layers
/// over a local `Db`. Host microseconds per command, median of `windows`
/// windows after one warm-up window.
pub fn one_rank_wall_us_per_cmd(
    spec: &ServeSpec,
    seed: u64,
    windows: usize,
    reference: &Reference,
) -> f64 {
    let one = ServeSpec { ranks: 1, rounds: windows + 1, ..spec.clone() };
    let out = run(&one, seed, Mode::EndToEnd, reference);
    let per_cmd: Vec<f64> = out.windows[1..]
        .iter()
        .map(|w| w.host_ns() as f64 / 1e3 / w.stats.cmds.max(1) as f64)
        .collect();
    crate::stats::median(&per_cmd)
}
