//! Sizing of the six workloads and the assembly of a run's report: the
//! end-to-end metrics of an untraced run, or the per-layer metrics of a
//! traced one.

use std::path::PathBuf;

use papyrus_telemetry::TelemetrySnapshot;

use crate::calib::Reference;
use crate::count::{self, BackendCounts};
use crate::gen::Mix;
use crate::kv::{self, KvSpec, Mode, RoundStat, BASELINE_ROUNDS};
use crate::metrics::{Report, Values, WORKLOADS};
use crate::probes::{self, Shape};
use crate::serve::{self, ServeSpec, WindowRec, LADDER, WRITE_P99_LIMIT_NS};
use crate::span::{self, Span, Tracer, NONE};
use crate::stats::{fastest_quartile, median, percentile, sorted, spread};

/// Set-ups per end-to-end run, at least; `setup_s` is their median.
pub const MIN_SETUPS: usize = 3;
/// Set-ups per end-to-end run, at most: short set-ups are repeated until
/// they add up to [`SETUP_BUDGET_S`].
pub const MAX_SETUPS: usize = 9;
pub const SETUP_BUDGET_S: f64 = 1.0;
/// Timed rounds of a closed-loop end-to-end run.
pub const ROUNDS: usize = 16;
/// Rounds of a traced run that record spans, after the baseline rounds.
pub const TRACED_ROUNDS: usize = 8;

const MIB: u64 = 1 << 20;

/// How large a run is. Round length scales with `seconds`: the op counts
/// are calibrated so that the timed rounds of a run take about that long
/// on the 2-core sandbox this benchmark was written on. They are counts,
/// not deadlines, so that a seed's counts and virtual time repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    pub seconds: u64,
    /// Shrink the data sets as well (self-tests).
    pub micro: bool,
}

/// Sizing of a closed-loop workload; `None` for `serve_resp` and unknown
/// names.
pub fn kv_spec(name: &str, sizing: Sizing, rounds: usize) -> Option<KvSpec> {
    let shrink = if sizing.micro { 16 } else { 1 };
    // Ops per round for each second of `--seconds`; a micro run is a
    // quarter as long again.
    let s = sizing.seconds;
    let ops = |per_second: u64| (per_second * s / if sizing.micro { 4 } else { 1 }).max(1);
    let read = |get_pct, absent_pct| Mix { get_pct, absent_pct, fence_every: 0, ingest: false };
    let base = KvSpec {
        name: "",
        ranks: 1,
        owner: 0,
        memtable: 1 << 30,
        cache: 16 * MIB,
        keys: 0,
        settle: false,
        min_ssts: 0,
        warm_reads: false,
        mix: read(50, 0),
        rounds,
        ops_per_round: 0,
    };
    Some(match name {
        // 100k keys (14 MB) in a 1 GiB MemTable: it never freezes.
        "mem_mix" => {
            KvSpec { name: "mem_mix", keys: 100_000 / shrink, ops_per_round: ops(28_000), ..base }
        }
        // 50k keys (7 MB) through a 1 MiB MemTable; the 16 MiB cache holds
        // them all once the warm-up has read each key.
        "cache_read" => KvSpec {
            name: "cache_read",
            memtable: MIB / shrink,
            keys: 50_000 / shrink,
            settle: true,
            min_ssts: 1,
            warm_reads: true,
            mix: read(100, 0),
            ops_per_round: ops(60_000),
            ..base
        },
        // 105k keys (16 MB of SSData) through a 2 MiB MemTable: 9 flushes,
        // of which the 4th and 7th merge everything, leaving three live
        // tables (one merged, two fresh). The cache is a tenth of the data.
        "sst_read" => KvSpec {
            name: "sst_read",
            memtable: 2 * MIB / shrink,
            cache: 3 * MIB / 2 / shrink,
            keys: 105_000 / shrink,
            settle: true,
            min_ssts: 3,
            mix: read(100, 10),
            ops_per_round: ops(4_800),
            ..base
        },
        // Each round: fresh database, distinct keys in shuffled order
        // through a 2 MiB MemTable (a flush per ~12.5k keys, a merge of
        // everything at every 4th SSID), settle.
        "ingest" => {
            let keys = 19_000 * s / shrink.min(4);
            KvSpec {
                name: "ingest",
                memtable: 2 * MIB / shrink,
                keys,
                mix: Mix { get_pct: 0, absent_pct: 0, fence_every: 0, ingest: true },
                ops_per_round: keys,
                ..base
            }
        }
        // 50k keys on rank 1, settled and read once into its cache; rank 0
        // drives. A put key is not read until after its fence.
        "remote_mix" => KvSpec {
            name: "remote_mix",
            ranks: 2,
            owner: 1,
            memtable: 64 * MIB,
            keys: 50_000 / shrink,
            settle: true,
            min_ssts: 1,
            warm_reads: true,
            mix: Mix { get_pct: 50, absent_pct: 0, fence_every: 256, ingest: false },
            ops_per_round: ops(8_000),
            ..base
        },
        _ => return None,
    })
}

/// Sizing of `serve_resp`: `rounds` rounds of one window per rank.
pub fn serve_spec(sizing: Sizing, rounds: usize) -> ServeSpec {
    ServeSpec {
        ranks: 2,
        conns_per_rank: (200 * sizing.seconds) as u32,
        keys_per_rank: if sizing.micro { 512 } else { 4096 },
        rounds,
    }
}

/// Rounds of a `serve_resp` end-to-end run: a round is two windows.
pub const SERVE_ROUNDS: usize = 6;

/// Run `workload` and report every metric of the run's kind.
pub fn run_workload(workload: &str, seed: u64, sizing: Sizing, traced: bool) -> Option<Report> {
    let name = WORKLOADS.iter().find(|w| w.name == workload)?.name;
    let mut report = Report {
        workload: name,
        traced,
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        values: Values::default(),
    };
    let run = Run { seed, sizing, reference: Reference::new() };
    match (kv_spec(name, sizing, ROUNDS), traced) {
        (Some(spec), false) => kv_end_to_end(&run, &spec, &mut report),
        (Some(spec), true) => {
            let spec = KvSpec { rounds: BASELINE_ROUNDS + TRACED_ROUNDS, ..spec };
            kv_traced(&run, &spec, &mut report);
        }
        (None, false) => serve_end_to_end(&run, &serve_spec(sizing, SERVE_ROUNDS), &mut report),
        (None, true) => {
            let spec = serve_spec(sizing, BASELINE_ROUNDS + TRACED_ROUNDS / 2);
            serve_traced(&run, &spec, &mut report);
        }
    }
    Some(report)
}

/// What every part of one run shares.
struct Run {
    seed: u64,
    sizing: Sizing,
    reference: Reference,
}

/// Set-up time samples before the measured world adds its own: `set_up`
/// sets a world up and tears it down again.
fn setup_samples(mut set_up: impl FnMut() -> f64) -> Vec<f64> {
    let mut samples = Vec::new();
    while samples.len() + 1 < MIN_SETUPS
        || (samples.len() + 1 < MAX_SETUPS && samples.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        samples.push(set_up());
    }
    samples
}

/// kops/s of `ops` in `ns` (of either clock).
fn kops(ops: u64, ns: u64) -> f64 {
    ops as f64 / ns.max(1) as f64 * 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics every workload reports the same way.
fn end_to_end_values(
    values: &mut Values,
    setups: &[f64],
    rounds: &[RoundStat],
    backend: &BackendCounts,
    user_bytes: u64,
    resident_bytes: u64,
    live_bytes: u64,
) {
    let n = rounds.len() as u64;
    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let virt_ns: u64 = rounds.iter().map(|r| r.virt_ns).sum();
    // The raw numbers behind `norm_kops`, for whoever reads the log.
    let per_round = |f: fn(&RoundStat) -> f64| {
        rounds.iter().map(|r| format!("{:.1}", f(r))).collect::<Vec<_>>().join(" ")
    };
    eprintln!("# per-round kops/s: {}", per_round(|r| kops(r.ops, r.host_ns)));
    eprintln!("# per-round ref ns: {}", per_round(|r| r.ref_ns));
    values.set("setup_s", median(setups), setups.len() as u64);
    values.set("norm_kops", norm_kops(rounds), n);
    values.set("virt_kops", kops(ops, virt_ns), ops);
    values.set(
        "write_amp",
        ratio(backend.written_bytes() as f64, user_bytes as f64),
        backend.write_ops(),
    );
    values.set("space_amp", ratio(resident_bytes as f64, live_bytes as f64), 1);
    values.set("peak_heap_mb", count::peak_heap_mib(), 1);
}

/// Median over the rounds of host throughput scaled by the reference kernel
/// timed beside each round (see [`crate::calib`]).
fn norm_kops(rounds: &[RoundStat]) -> f64 {
    let per_round: Vec<f64> =
        rounds.iter().map(|r| kops(r.ops, r.host_ns) * Reference::scale(r.ref_ns)).collect();
    median(&per_round)
}

fn kv_end_to_end(run: &Run, spec: &KvSpec, report: &mut Report) {
    let world = |mode| kv::run(spec, run.seed, mode, &run.reference);
    let mut setups = setup_samples(|| world(Mode::SetupOnly).driver.setup_s);
    let out = world(Mode::EndToEnd);
    setups.push(out.driver.setup_s);
    report.attempted = out.attempted;
    report.failed = out.failed;
    end_to_end_values(
        &mut report.values,
        &setups,
        &out.driver.rounds,
        &out.backend,
        out.user_bytes,
        out.resident_bytes,
        out.driver.live_bytes,
    );
}

/// Rounds of a serve world: the round's windows summed, their reference
/// measurements averaged.
fn serve_rounds(windows: &[WindowRec]) -> Vec<RoundStat> {
    let rounds = windows.iter().map(|w| w.round + 1).max().unwrap_or(0);
    (0..rounds)
        .map(|round| {
            let of: Vec<&WindowRec> = windows.iter().filter(|w| w.round == round).collect();
            let sum = |f: fn(&WindowRec) -> u64| of.iter().map(|w| f(w)).sum::<u64>();
            RoundStat {
                ops: sum(|w| w.stats.cmds),
                gets: 0,
                host_ns: sum(WindowRec::host_ns),
                virt_ns: sum(|w| w.stats.elapsed_ns),
                allocs: sum(|w| w.allocs),
                gen_ns: 0,
                ref_ns: of.iter().map(|w| w.ref_ns).sum::<f64>() / of.len().max(1) as f64,
            }
        })
        .collect()
}

/// Outcome counts and the latency limit of a serve world.
fn serve_outcome(out: &serve::ServeOut, report: &mut Report) -> (Vec<u64>, Vec<u64>) {
    report.attempted = out.windows.iter().map(|w| w.stats.cmds).sum::<u64>() + out.swept;
    report.failed = out.windows.iter().map(WindowRec::violations).sum::<u64>() + out.sweep_failed;
    if let Some(example) = out.windows.iter().find_map(|w| w.stats.violation_example.clone()) {
        report.violations.push(example);
    }
    let lat = |f: fn(&WindowRec) -> &Vec<u64>| {
        sorted(out.windows.iter().flat_map(|w| f(w).iter().copied()).collect())
    };
    let (read, write) = (lat(|w| &w.stats.lat_read), lat(|w| &w.stats.lat_write));
    let write_p99 = percentile(&write, 99.0);
    if write_p99 > WRITE_P99_LIMIT_NS {
        report.violations.push(format!(
            "write p99 {write_p99} virtual ns is over the {WRITE_P99_LIMIT_NS} ns limit at {} cmd/s",
            serve::RATE_PER_S
        ));
    }
    (read, write)
}

fn serve_end_to_end(run: &Run, spec: &ServeSpec, report: &mut Report) {
    let world = |mode| serve::run(spec, run.seed, mode, &run.reference);
    let mut setups = setup_samples(|| world(Mode::SetupOnly).setup_s);
    let out = world(Mode::EndToEnd);
    setups.push(out.setup_s);
    serve_outcome(&out, report);
    end_to_end_values(
        &mut report.values,
        &setups,
        &serve_rounds(&out.windows),
        &out.backend,
        out.user_bytes,
        out.resident_bytes,
        out.live_bytes,
    );
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

/// Host and virtual durations of the spans named `name`, each sorted.
fn durations(spans: &[Span], name: &str) -> (Vec<u64>, Vec<u64>) {
    let of = |f: fn(&Span) -> u64| sorted(spans.iter().filter(|s| s.name == name).map(f).collect());
    (of(Span::host_ns), of(Span::virt_ns))
}

/// Metrics read from the telemetry snapshot and the backend counters, the
/// same for every workload. `ops` and `gets` are those of the traced rounds.
fn tel_values(
    values: &mut Values,
    tel: &TelemetrySnapshot,
    backend: &BackendCounts,
    ops: u64,
    gets: u64,
) {
    let c = |name: &str| tel.counter_sum(name);
    let (ops_f, gets_f) = (ops as f64, gets as f64);
    values.set("core.db.flush_count", c("kv.flush.count") as f64, ops);
    values.set("core.db.compact_count", c("kv.compact.count") as f64, ops);
    values.set("core.db.freeze_stalls", c("kv.freeze.stall") as f64, ops);
    let (flush, compact) =
        (tel.merged_histogram("kv.flush.ns"), tel.merged_histogram("kv.compact.ns"));
    values.set("core.db.flush_virt_ms", flush.sum as f64 / 1e6, flush.count);
    values.set("core.db.compact_virt_ms", compact.sum as f64 / 1e6, compact.count);
    let (neg, pass) = (c("kv.bloom.neg"), c("kv.bloom.pass"));
    values.set("core.bloom.neg_ratio", ratio(neg as f64, (neg + pass) as f64), neg + pass);
    values.set("core.bloom.probes_per_get", ratio((neg + pass) as f64, gets_f), gets);
    values.set("core.runtime.serve_gets", c("kv.serve_get.count") as f64, ops);
    values.set("core.runtime.ingest_records", c("kv.ingest.records") as f64, ops);
    values.set("core.runtime.migrate_count", c("kv.migrate.count") as f64, ops);
    let fence = tel.merged_histogram("kv.fence.wait.ns");
    values.set("core.runtime.fence_wait_virt_us", fence.mean() / 1e3, fence.count);
    values.set("core.runtime.rpc_retries", c("rpc_retries") as f64, ops);
    let msgs = c("net.send.count");
    values.set("mpi.fabric.msgs_per_op", ratio(msgs as f64, ops_f), msgs);
    values.set("mpi.fabric.bytes_per_op", ratio(c("net.send.bytes") as f64, ops_f), msgs);
    let msg_ns = tel.merged_histogram("net.msg.ns");
    values.set("mpi.fabric.msg_virt_p50_ns", msg_ns.p50() as f64, msg_ns.count);
    values.set("nvm.store.write_ops", backend.write_ops() as f64, ops);
    values.set(
        "nvm.store.read_ops_per_get",
        ratio(backend.get_ops as f64, gets_f),
        backend.get_ops,
    );
    values.set(
        "nvm.store.read_bytes_per_get",
        ratio(backend.get_bytes as f64, gets_f),
        backend.get_ops,
    );
    // Telemetry sees the I/O that goes through `NvmStore`'s own calls:
    // flush, compaction, manifest and open. SSTable point reads charge the
    // device queue directly and show in the backend counts above instead.
    let (wait, service) =
        (tel.merged_histogram("io.queue_wait.ns"), tel.merged_histogram("io.service.ns"));
    values.set(
        "nvm.store.queue_wait_share",
        ratio(wait.sum as f64, (wait.sum + service.sum) as f64),
        wait.count,
    );
    values.set("nvm.store.service_virt_us_per_op", service.mean() / 1e3, service.count);
}

/// Metrics about the rounds themselves: the baseline, the tracing overhead,
/// and the harness's own share.
fn round_values(
    values: &mut Values,
    baseline: &[RoundStat],
    traced: &[RoundStat],
    spans: &[Span],
    cpu_s: f64,
) {
    let n = traced.len() as u64;
    let sum = |rounds: &[RoundStat], f: fn(&RoundStat) -> u64| rounds.iter().map(f).sum::<u64>();
    let ops = sum(traced, |r| r.ops);
    // Raw throughput of the untraced baseline rounds: the fastest-quartile
    // round, since without the reference the sandbox's noise only ever
    // slows a round down.
    let raw: Vec<f64> = baseline.iter().map(|r| kops(r.ops, r.host_ns)).collect();
    values.set("kvbench.raw_wall_kops", fastest_quartile(&raw), baseline.len() as u64);
    let refs: Vec<f64> = baseline.iter().chain(traced).map(|r| r.ref_ns).collect();
    values.set("kvbench.ref_ns", median(&refs), refs.len() as u64);
    // Counted over the untraced baseline rounds, so that the spans' own
    // buffer and the telemetry registry are not in the count.
    let base_ops = sum(baseline, |r| r.ops);
    values.set(
        "kvbench.allocs_per_op",
        ratio(sum(baseline, |r| r.allocs) as f64, base_ops as f64),
        base_ops,
    );
    let overhead = 1.0 - ratio(norm_kops(traced), norm_kops(baseline));
    values.set("telemetry.overhead_pct", overhead * 100.0, n);
    let (host, virt) = (sum(traced, |r| r.host_ns), sum(traced, |r| r.virt_ns));
    values.set("simtime.virt_per_wall", ratio(virt as f64, host as f64), n);
    values.set("kvbench.gen_ns_per_op", ratio(sum(traced, |r| r.gen_ns) as f64, ops as f64), ops);
    let self_times = span::self_times(spans);
    let (round_ns, round_self) = spans
        .iter()
        .zip(&self_times)
        .filter(|(s, _)| s.name == "round")
        .fold((0u64, 0u64), |a, (s, own)| (a.0 + s.host_ns(), a.1 + own));
    values.set("kvbench.round_self_pct", ratio(round_self as f64, round_ns as f64) * 100.0, n);
    let host_per_round: Vec<f64> = traced.iter().map(|r| r.host_ns as f64).collect();
    values.set("kvbench.round_spread_pct", spread(&host_per_round) * 100.0, n);
    values.set("kvbench.rounds", n as f64, n);
    values.set("kvbench.cpu_us_per_op", ratio(cpu_s * 1e6, ops as f64), ops);
    values.set("kvbench.peak_rss_mb", count::peak_rss_mib(), 1);
}

/// Probes, the one-rank serve probe, and the trace file.
fn finish_traced(run: &Run, report: &mut Report, tracer: &mut Tracer, shape: Shape) {
    probes::run_all(shape, tracer, &mut report.values);
    let one_rank =
        serve::one_rank_wall_us_per_cmd(&serve_spec(run.sizing, 0), run.seed, 3, &run.reference);
    report.values.set("serve.server.wall_us_per_cmd_1rank", one_rank, 3);
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = dir.join(format!("trace-{}.json", report.workload));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, span::chrome_trace(&tracer.spans)));
    match written {
        Ok(()) => eprintln!("# trace: {} spans recorded, {}", tracer.spans.len(), path.display()),
        Err(e) => eprintln!("# trace: could not write {}: {e}", path.display()),
    }
}

fn kv_traced(run: &Run, spec: &KvSpec, report: &mut Report) {
    let mut out = kv::run(spec, run.seed, Mode::Traced, &run.reference);
    report.attempted = out.attempted;
    report.failed = out.failed;
    let mut trace = out.driver.trace.take().expect("a traced run records a trace");
    let values = &mut report.values;
    let rounds = &out.driver.rounds;
    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let gets: u64 = rounds.iter().map(|r| r.gets).sum();
    let spans = &trace.tracer.spans;

    let (get_host, get_virt) = durations(spans, "get");
    let (put_host, put_virt) = durations(spans, "put");
    let (fence_host, fence_virt) = durations(spans, "fence");
    let (settle_host, settle_virt) = durations(spans, "settle");
    let p = |v: &[u64], q: f64| percentile(v, q) as f64;
    values.set("core.db.get_wall_p50_ns", p(&get_host, 50.0), get_host.len() as u64);
    values.set("core.db.get_wall_p99_ns", p(&get_host, 99.0), get_host.len() as u64);
    values.set("core.db.put_wall_p50_ns", p(&put_host, 50.0), put_host.len() as u64);
    values.set("core.db.put_wall_p99_ns", p(&put_host, 99.0), put_host.len() as u64);
    values.set("core.db.get_virt_p50_us", p(&get_virt, 50.0) / 1e3, get_virt.len() as u64);
    values.set("core.db.get_virt_p99_us", p(&get_virt, 99.0) / 1e3, get_virt.len() as u64);
    values.set("core.db.put_virt_p50_us", p(&put_virt, 50.0) / 1e3, put_virt.len() as u64);
    values.set("core.db.put_virt_p99_us", p(&put_virt, 99.0) / 1e3, put_virt.len() as u64);
    values.set("core.db.fence_wall_us", p(&fence_host, 50.0) / 1e3, fence_host.len() as u64);
    values.set("core.db.fence_virt_us", p(&fence_virt, 50.0) / 1e3, fence_virt.len() as u64);
    values.set("core.db.barrier_wall_ms", p(&settle_host, 50.0) / 1e6, settle_host.len() as u64);
    values.set("core.db.barrier_virt_ms", p(&settle_virt, 50.0) / 1e6, settle_virt.len() as u64);
    let remote_get = if spec.ranks > 1 { p(&get_host, 50.0) / 1e3 } else { 0.0 };
    values.set("core.runtime.remote_get_wall_us", remote_get, get_host.len() as u64);
    values.set("core.lru.hit_ratio", out.cache.hit_ratio(), out.cache.hits + out.cache.misses);
    values.set("core.sstable.live_count", out.ssts as f64, 1);

    tel_values(values, &trace.tel, &trace.backend, ops, gets);
    round_values(values, &trace.baseline, rounds, spans, trace.cpu_s);

    let shape = Shape { keys: spec.keys, cache: spec.cache };
    finish_traced(run, report, &mut trace.tracer, shape);

    // The Db front's own locks and copies: the op span's median minus the
    // timer and the probed cost of the layers below on this workload's path.
    let v = |name: &str| report.values.get(name).map_or(0.0, |v| v.value);
    let (mut get_front, mut put_front) = (0.0, 0.0);
    if spec.ranks == 1 {
        let c = &out.cache;
        let reached_cache = ratio((c.hits + c.misses) as f64, c.ops as f64);
        let sst_searches = v("core.bloom.probes_per_get") * (1.0 - v("core.bloom.neg_ratio"));
        let below_get = (1.0 - reached_cache) * v("core.memtable.get_hit_ns")
            + reached_cache * v("core.memtable.get_miss_ns")
            + ratio(c.hits as f64, c.ops as f64) * v("core.lru.get_hit_ns")
            + v("core.bloom.probes_per_get") * v("core.bloom.probe_ns")
            + sst_searches * v("core.sstable.get_hit_ns")
            + ratio(c.misses as f64, c.ops as f64) * v("core.lru.insert_evict_ns");
        get_front = (v("core.db.get_wall_p50_ns") - v("kvbench.timer_ns") - below_get).max(0.0);
        let below_put = v("core.memtable.insert_ns") + v("core.lru.invalidate_ns");
        put_front = (v("core.db.put_wall_p50_ns") - v("kvbench.timer_ns") - below_put).max(0.0);
    }
    let (gets_n, puts_n) = (get_host.len() as u64, put_host.len() as u64);
    report.values.set("core.db.get_front_ns", if gets_n == 0 { 0.0 } else { get_front }, gets_n);
    report.values.set("core.db.put_front_ns", if puts_n == 0 { 0.0 } else { put_front }, puts_n);
}

fn serve_traced(run: &Run, spec: &ServeSpec, report: &mut Report) {
    let mut out = serve::run(spec, run.seed, Mode::Traced, &run.reference);
    let (read, write) = serve_outcome(&out, report);
    let trace = out.trace.take().expect("a traced run records a trace");
    let values = &mut report.values;
    let traced: Vec<&WindowRec> =
        out.windows.iter().filter(|w| w.round >= BASELINE_ROUNDS).collect();
    let sum = |f: fn(&WindowRec) -> u64| traced.iter().map(|w| f(w)).sum::<u64>();
    let cmds = sum(|w| w.stats.cmds);
    let n = traced.len() as u64;

    // Round → serve_window spans, rebuilt from the per-rank window records.
    let mut tracer = Tracer::new();
    let mut round_ids: Vec<u32> = Vec::new();
    for w in &traced {
        let r = w.round - BASELINE_ROUNDS;
        if round_ids.len() <= r {
            round_ids.push(tracer.record(Span {
                name: "round",
                id: 0,
                parent: NONE,
                op: NONE,
                host_start: w.host_start,
                host_end: w.host_end,
                virt_start: w.virt_start,
                virt_end: w.virt_end,
            }));
        }
        let parent = round_ids[r];
        let id = tracer.record(Span {
            name: "serve_window",
            id: 0,
            parent,
            op: NONE,
            host_start: w.host_start,
            host_end: w.host_end,
            virt_start: w.virt_start,
            virt_end: w.virt_end,
        });
        tracer.spans[id as usize - 1].op = id;
        let round = &mut tracer.spans[parent as usize - 1];
        round.host_end = round.host_end.max(w.host_end);
        round.virt_end = round.virt_end.max(w.virt_end);
    }

    let per_cmd: Vec<f64> =
        traced.iter().map(|w| w.host_ns() as f64 / 1e3 / w.stats.cmds.max(1) as f64).collect();
    values.set("serve.server.wall_us_per_cmd", median(&per_cmd), n);
    let (rounds, records) = (sum(|w| w.stats.batch_rounds), sum(|w| w.stats.batch_records));
    values.set("serve.server.batch_mean", ratio(records as f64, rounds as f64), rounds);
    values.set("serve.server.rounds", rounds as f64, n);
    values.set("serve.server.folded_dups", sum(|w| w.stats.folded_dups) as f64, n);
    let polls = sum(|w| w.stats.polls);
    values.set(
        "serve.server.frames_per_poll",
        ratio(sum(|w| w.stats.frames) as f64, polls as f64),
        polls,
    );
    let p = |v: &[u64], q: f64| percentile(v, q) as f64 / 1e3;
    values.set("serve.server.read_virt_p50_us", p(&read, 50.0), read.len() as u64);
    values.set("serve.server.read_virt_p99_us", p(&read, 99.0), read.len() as u64);
    values.set("serve.server.write_virt_p50_us", p(&write, 50.0), write.len() as u64);
    values.set("serve.server.write_virt_p99_us", p(&write, 99.0), write.len() as u64);
    let max_rate = LADDER
        .iter()
        .zip(&trace.ladder_write_p99)
        .filter(|(_, &p99)| p99 <= WRITE_P99_LIMIT_NS)
        .map(|(&rate, _)| rate)
        .max()
        .unwrap_or(0);
    values.set("serve.server.max_rate_kops", max_rate as f64 / 1e3, LADDER.len() as u64);

    // The store under the windows is only visible through telemetry here;
    // the Db-level spans belong to the closed-loop workloads and read 0.
    let tel = &trace.tel;
    let get_virt = {
        let mut h = tel.merged_histogram("kv.get.local.ns");
        h.merge(&tel.merged_histogram("kv.get.remote.ns"));
        h
    };
    let put_virt = tel.merged_histogram("kv.put.ns");
    values.set("core.db.get_virt_p50_us", get_virt.p50() as f64 / 1e3, get_virt.count);
    values.set("core.db.get_virt_p99_us", get_virt.p99() as f64 / 1e3, get_virt.count);
    values.set("core.db.put_virt_p50_us", put_virt.p50() as f64 / 1e3, put_virt.count);
    values.set("core.db.put_virt_p99_us", put_virt.p99() as f64 / 1e3, put_virt.count);
    let fence = tel.merged_histogram("kv.fence.wait.ns");
    values.set("core.db.fence_virt_us", fence.p50() as f64 / 1e3, fence.count);

    tel_values(values, tel, &trace.backend, cmds, get_virt.count);
    let rounds = serve_rounds(&out.windows);
    let (baseline, traced_rounds) = rounds.split_at(BASELINE_ROUNDS.min(rounds.len()));
    round_values(values, baseline, traced_rounds, &tracer.spans, trace.cpu_s);

    let shape = Shape { keys: spec.keys_per_rank * spec.ranks as u64, cache: 16 * MIB };
    finish_traced(run, report, &mut tracer, shape);
}
