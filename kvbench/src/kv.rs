//! The five closed-loop workloads that drive `papyruskv::Db` directly.
//!
//! One driver thread (rank 0) issues every timed op and waits for each to
//! complete. In the two-rank workload the other rank's application thread is
//! parked in a barrier while its handler threads serve, which is also what
//! makes virtual time repeat exactly: every submission to a shared simtime
//! resource is causally ordered by the one driver.
//!
//! Op counts are fixed by the sizing, not by the clock, so counts, virtual
//! time and amplification repeat for a seed; only host time varies.

use std::sync::Arc;
use std::time::Instant;

use papyrus_mpi::{RankCtx, World};
use papyrus_simtime::OpStatsSnapshot;
use papyrus_telemetry::TelemetrySnapshot;
use papyruskv::{BarrierLevel, Context, Db, Error, OpenFlags, Options};

use crate::calib::Reference;
use crate::count::{self, BackendCounts};
use crate::gen::{value_matches, Gen, Mix, OpKind, Stream};
use crate::rig::{Rig, REPO};
use crate::span::{Span, Tracer, NONE};

/// What a call of [`run`] does after set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set up, then tear down: one sample of set-up time.
    SetupOnly,
    /// All rounds with tracing and telemetry off.
    EndToEnd,
    /// A few untraced rounds as the run's own baseline, then rounds with
    /// spans recorded and `papyrus_telemetry` enabled.
    Traced,
}

/// Rounds of a traced run that stay untraced, as its baseline.
pub const BASELINE_ROUNDS: usize = 4;

/// Keys read back after the timed rounds, outside the timed region.
const READBACK_KEYS: u64 = 2000;
/// Keys read back after the last ingest round's close and reopen.
const REOPEN_READBACK_KEYS: u64 = 10_000;

/// Sizing and shape of one closed-loop workload.
#[derive(Debug, Clone, PartialEq)]
pub struct KvSpec {
    pub name: &'static str,
    pub ranks: usize,
    /// The rank a custom hash sends every key to; rank 0 drives.
    pub owner: usize,
    pub memtable: u64,
    pub cache: u64,
    /// Keys loaded before timing; for ingest, keys put per round.
    pub keys: u64,
    /// `barrier(SsTable)` after the load.
    pub settle: bool,
    /// Live SSTables set-up must leave at least.
    pub min_ssts: usize,
    /// The owner reads every key once after the settle.
    pub warm_reads: bool,
    pub mix: Mix,
    pub rounds: usize,
    pub ops_per_round: u64,
}

impl KvSpec {
    fn options(&self) -> Options {
        let mut opt = Options::default().with_memtable_capacity(self.memtable);
        opt.local_cache_capacity = self.cache;
        if self.ranks > 1 {
            let owner = self.owner as u64;
            opt = opt.with_custom_hash(Arc::new(move |_key: &[u8]| owner));
        }
        opt
    }
}

/// One timed round.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundStat {
    /// Gets and puts issued (fences and settles are part of the round's
    /// time, not of its op count).
    pub ops: u64,
    pub gets: u64,
    pub host_ns: u64,
    pub virt_ns: u64,
    pub allocs: u64,
    /// Host time spent generating the round's stream, outside the round.
    pub gen_ns: u64,
    /// Reference kernel beside the round: host ns per reference op, mean of
    /// the slice before and the slice after.
    pub ref_ns: f64,
}

/// What the traced rounds recorded.
pub struct TraceOut {
    pub tracer: Tracer,
    pub tel: TelemetrySnapshot,
    /// Untraced baseline rounds run before tracing was switched on.
    pub baseline: Vec<RoundStat>,
    /// Backend traffic of the traced rounds.
    pub backend: BackendCounts,
    pub cpu_s: f64,
}

/// What the driver rank measured.
pub struct DriverOut {
    /// Set-up time, scaled by the reference kernel timed before and after.
    pub setup_s: f64,
    pub rounds: Vec<RoundStat>,
    pub live_bytes: u64,
    pub trace: Option<TraceOut>,
}

/// What every rank reports when its world ends.
pub struct RankOut {
    /// Ops this rank issued and checked, in and outside the timed rounds.
    pub attempted: u64,
    /// Those that errored or returned a wrong value.
    pub failed: u64,
    /// Key and value bytes this rank's application thread put.
    pub user_bytes: u64,
    /// Live SSTables on this rank before close.
    pub ssts: usize,
    /// This rank's cache hits and misses after set-up.
    pub cache: OpStatsSnapshot,
    pub driver: Option<DriverOut>,
}

/// Result of one world.
pub struct KvOut {
    pub driver: DriverOut,
    pub attempted: u64,
    pub failed: u64,
    pub user_bytes: u64,
    /// Live SSTables on the owner before close.
    pub ssts: usize,
    /// The owner's cache hits and misses after set-up.
    pub cache: OpStatsSnapshot,
    /// Backend counts from open to after close.
    pub backend: BackendCounts,
    pub resident_bytes: u64,
}

/// When a set-up began and what the reference kernel cost just before.
#[derive(Clone, Copy)]
pub struct SetupStart {
    pub at: Instant,
    pub ref_ns: f64,
}

impl SetupStart {
    pub fn now(reference: &Reference) -> Self {
        let ref_ns = reference.measure();
        Self { at: Instant::now(), ref_ns }
    }

    /// Seconds since the start, scaled by the reference measured then and
    /// now.
    pub fn elapsed_s(&self, reference: &Reference) -> f64 {
        let raw = self.at.elapsed().as_secs_f64();
        raw / Reference::scale((self.ref_ns + reference.measure()) / 2.0)
    }
}

/// Run one world of `spec`.
pub fn run(spec: &KvSpec, seed: u64, mode: Mode, reference: &Reference) -> KvOut {
    let started = SetupStart::now(reference);
    let rig = Rig::new(spec.ranks);
    let (rig2, spec2, reference) = (rig.clone(), spec.clone(), reference.clone());
    let mut outs = World::run(rig.world_config(), move |rank| {
        rank_main(rank, &rig2, &spec2, seed, mode, started, reference.clone())
    });
    let owner = &outs[spec.owner];
    let (ssts, cache) = (owner.ssts, owner.cache);
    let sum = |f: fn(&RankOut) -> u64| outs.iter().map(f).sum::<u64>();
    let (attempted, failed, user_bytes) =
        (sum(|o| o.attempted), sum(|o| o.failed), sum(|o| o.user_bytes));
    let driver = outs[0].driver.take().expect("rank 0 drives");
    KvOut {
        driver,
        attempted,
        failed,
        user_bytes,
        ssts,
        cache,
        backend: rig.counts(),
        resident_bytes: rig.resident_bytes(),
    }
}

/// Issue `stream` against `db` and check every outcome. Returns the number
/// of ops that errored or returned a wrong value.
fn run_stream(db: &Db, stream: &Stream) -> u64 {
    let mut failed = 0u64;
    let mut put = 0usize;
    for (i, op) in stream.ops.iter().enumerate() {
        let ok = match op.kind {
            OpKind::Get => check_get(db.get(stream.key(i)), u64::from(op.idx), op.version),
            OpKind::Put => {
                put += 1;
                db.put(stream.key(i), stream.val(put - 1)).is_ok()
            }
            OpKind::Fence => db.fence().is_ok(),
            OpKind::Settle => db.barrier(BarrierLevel::SsTable).is_ok(),
        };
        failed += u64::from(!ok);
    }
    failed
}

/// Present → exact bytes of the model's current version; absent →
/// `NotFound`; anything else is a failure.
fn check_get(got: Result<bytes::Bytes, Error>, idx: u64, version: u32) -> bool {
    match got {
        Ok(v) => version != 0 && value_matches(&v, idx, version),
        Err(Error::NotFound) => version == 0,
        Err(_) => false,
    }
}

/// [`run_stream`] with a span around every op, under the round span
/// `parent`.
fn run_stream_traced(
    db: &Db,
    ctx: &Context,
    stream: &Stream,
    tracer: &mut Tracer,
    parent: u32,
) -> u64 {
    let mut failed = 0u64;
    let mut put = 0usize;
    for (i, op) in stream.ops.iter().enumerate() {
        let (host_start, virt_start) = (tracer.now(), ctx.now());
        let (name, ok) = match op.kind {
            OpKind::Get => ("get", check_get(db.get(stream.key(i)), u64::from(op.idx), op.version)),
            OpKind::Put => {
                put += 1;
                ("put", db.put(stream.key(i), stream.val(put - 1)).is_ok())
            }
            OpKind::Fence => ("fence", db.fence().is_ok()),
            OpKind::Settle => ("settle", db.barrier(BarrierLevel::SsTable).is_ok()),
        };
        let (virt_end, host_end) = (ctx.now(), tracer.now());
        let id = tracer.reserve();
        tracer.close(
            id,
            Span { name, id, parent, op: id, host_start, host_end, virt_start, virt_end },
        );
        failed += u64::from(!ok);
    }
    failed
}

struct Driver<'a> {
    ctx: &'a Context,
    spec: &'a KvSpec,
    gen: Gen,
    stream: Stream,
    attempted: u64,
    failed: u64,
    /// Bytes put into ingest databases that have since been destroyed or
    /// closed.
    retired_user_bytes: u64,
    reference: Reference,
}

impl Driver<'_> {
    fn generate(&mut self, ops: u64) -> u64 {
        let t = Instant::now();
        self.gen.round(ops, &mut self.stream);
        t.elapsed().as_nanos() as u64
    }

    /// One round against `db`; with a tracer, every op gets a span.
    fn round(&mut self, db: &Db, gen_ns: u64, tracer: Option<&mut Tracer>) -> RoundStat {
        let gets = self.stream.ops.iter().filter(|o| o.kind == OpKind::Get).count() as u64;
        let puts = self.stream.ops.iter().filter(|o| o.kind == OpKind::Put).count() as u64;
        let ref_before = self.reference.measure();
        let (allocs, virt, host) = (count::allocs(), self.ctx.now(), Instant::now());
        let failed = match tracer {
            None => run_stream(db, &self.stream),
            Some(tracer) => {
                let (id, host_start) = (tracer.reserve(), tracer.now());
                let failed = run_stream_traced(db, self.ctx, &self.stream, tracer, id);
                let span = Span {
                    name: "round",
                    id,
                    parent: NONE,
                    op: NONE,
                    host_start,
                    host_end: tracer.now(),
                    virt_start: virt,
                    virt_end: self.ctx.now(),
                };
                tracer.close(id, span);
                failed
            }
        };
        let host_ns = host.elapsed().as_nanos() as u64;
        let stat = RoundStat {
            ops: gets + puts,
            gets,
            host_ns,
            virt_ns: self.ctx.now() - virt,
            allocs: count::allocs() - allocs,
            gen_ns,
            ref_ns: (ref_before + self.reference.measure()) / 2.0,
        };
        self.attempted += self.stream.len() as u64;
        self.failed += failed;
        stat
    }

    /// Read `n` sampled keys back and check them against the model.
    fn read_back(&mut self, db: &Db, n: u64) {
        let mut sample = Stream::default();
        self.gen.sample(n, &mut sample);
        self.attempted += sample.len() as u64;
        self.failed += run_stream(db, &sample);
    }

    /// Wait until the owner's handler has ingested everything sent so far.
    /// A fence returns once the batches are on the wire; a remote get is
    /// served by the same handler in arrival order, so its reply proves
    /// they were applied. Without this the telemetry window would open and
    /// close with a batch in flight, and its counts would depend on host
    /// timing.
    fn drain(&self, db: &Db) {
        if self.spec.ranks > 1 {
            let _ = db.get(&crate::gen::key_of(0));
        }
    }

    fn open(&self, name: &str) -> Db {
        self.ctx.open(name, OpenFlags::create(), self.spec.options()).expect("open")
    }
}

fn rank_main(
    rank: RankCtx,
    rig: &Rig,
    spec: &KvSpec,
    seed: u64,
    mode: Mode,
    started: SetupStart,
    reference: Reference,
) -> RankOut {
    let ctx = Context::init_with_group(rank, rig.platform.clone(), REPO, 1).expect("init");
    let me = ctx.rank();
    let ingest = spec.mix.ingest;
    let mut d = Driver {
        ctx: &ctx,
        spec,
        gen: Gen::new(seed, spec.keys, spec.mix),
        stream: Stream::default(),
        attempted: 0,
        failed: 0,
        retired_user_bytes: 0,
        reference,
    };

    // Set-up: load, settle, warm. Every rank walks the same generator so
    // the driver's model knows what the owner loaded.
    let mut db = (!ingest).then(|| d.open("kv"));
    if let Some(db) = &db {
        d.gen.load(&mut d.stream);
        if me == spec.owner {
            d.attempted += d.stream.len() as u64;
            d.failed += run_stream(db, &d.stream);
        }
        if spec.settle {
            db.barrier(BarrierLevel::SsTable).expect("settle");
        }
        if me == spec.owner {
            assert!(
                db.sstable_count() >= spec.min_ssts,
                "{}: set-up left {} live SSTables, the sizing promises at least {}",
                spec.name,
                db.sstable_count(),
                spec.min_ssts
            );
            if spec.warm_reads {
                d.gen.read_all(&mut d.stream);
                d.attempted += d.stream.len() as u64;
                d.failed += run_stream(db, &d.stream);
            }
        }
    }
    let cache_before = db.as_ref().map(|db| db.get_stats().snapshot());
    ctx.barrier_all();

    let mut driver = None;
    if me == 0 {
        driver = Some(drive(&mut d, &mut db, rig, mode, started));
    }
    // Parked ranks sit here while their handler threads serve the driver.
    ctx.barrier_all();

    let (mut user_bytes, mut ssts, mut cache) =
        (d.retired_user_bytes, 0, OpStatsSnapshot::default());
    if let Some(db) = &db {
        user_bytes += db.put_stats().bytes();
        ssts = db.sstable_count();
        if let Some(before) = &cache_before {
            cache = db.get_stats().delta(before);
        }
        db.close().expect("close");
    }
    ctx.finalize().expect("finalize");
    RankOut { attempted: d.attempted, failed: d.failed, user_bytes, ssts, cache, driver }
}

/// The driver's part after set-up: warm-up round, timed rounds, read-back.
fn drive(
    d: &mut Driver<'_>,
    db: &mut Option<Db>,
    rig: &Rig,
    mode: Mode,
    started: SetupStart,
) -> DriverOut {
    let spec = d.spec;
    let ingest = spec.mix.ingest;
    if let Some(db) = db.as_ref() {
        // Warm-up round, discarded: first-touch page faults and allocator
        // growth belong to set-up, not to round 1.
        d.generate(spec.ops_per_round / 4);
        d.round(db, 0, None);
    }
    let mut gen_ns = d.generate(spec.ops_per_round);
    let setup_s = started.elapsed_s(&d.reference);
    let mut out = DriverOut { setup_s, rounds: Vec::new(), live_bytes: 0, trace: None };
    if mode == Mode::SetupOnly {
        return out;
    }

    let baseline_rounds = if mode == Mode::Traced { BASELINE_ROUNDS } else { 0 };
    let mut baseline = Vec::new();
    let mut tracer = None;
    let (mut backend_before, mut cpu_before) = (BackendCounts::default(), 0.0);
    for r in 0..spec.rounds {
        if mode == Mode::Traced && r == baseline_rounds {
            if let Some(db) = db.as_ref() {
                d.drain(db);
            }
            tracer = Some(Tracer::new());
            backend_before = rig.counts();
            cpu_before = count::cpu_seconds();
            papyrus_telemetry::reset();
            papyrus_telemetry::enable();
        }
        if r > 0 {
            gen_ns = d.generate(spec.ops_per_round);
        }
        let round_db = if ingest { d.open(&format!("ingest{r}")) } else { db.clone().expect("db") };
        let stat = d.round(&round_db, gen_ns, tracer.as_mut());
        if r < baseline_rounds {
            baseline.push(stat);
        } else {
            out.rounds.push(stat);
        }
        if ingest {
            d.read_back(&round_db, READBACK_KEYS);
            d.retired_user_bytes += round_db.put_stats().bytes();
            if r + 1 < spec.rounds {
                round_db.destroy().expect("destroy").wait();
            } else {
                // Durability of the last round: close, reopen from the
                // SSTables alone (zero-copy compose), read back.
                round_db.close().expect("close");
                let reopened = d.open(&format!("ingest{r}"));
                d.read_back(&reopened, REOPEN_READBACK_KEYS);
                *db = Some(reopened);
            }
        }
    }
    if let Some(tracer) = tracer {
        if let Some(db) = db.as_ref() {
            d.drain(db);
        }
        let tel = papyrus_telemetry::snapshot();
        papyrus_telemetry::disable();
        out.trace = Some(TraceOut {
            tracer,
            tel,
            baseline,
            backend: rig.counts().since(&backend_before),
            cpu_s: count::cpu_seconds() - cpu_before,
        });
    }
    if !ingest {
        d.read_back(db.as_ref().expect("db"), READBACK_KEYS);
    }
    out.live_bytes = d.gen.live_bytes();
    out
}
