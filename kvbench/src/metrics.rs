//! The metric and workload names the benchmark is judged on, and how a
//! run's results are printed. `BENCHMARK.json` at the repository root lists
//! the same names; a self-test keeps the two in step.

use std::fmt::Write as _;

/// One workload and why it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "mem_mix",
        why: "1 rank, 100k keys in a MemTable that never freezes, 50% get / 50% update: core.db front and core.memtable do all the work; SSTable, NVM, fabric, serve idle",
    },
    WorkloadDef {
        name: "cache_read",
        why: "1 rank, 50k keys settled into SSTables, working set fits the 16 MiB cache, 100% get: every get misses the MemTable and hits core.lru behind its mutex",
    },
    WorkloadDef {
        name: "sst_read",
        why: "1 rank, 105k keys in >=3 SSTables, data ~10x the cache, 90% present / 10% absent gets: core.bloom, core.sstable search, nvm.store reads and lru insert+evict carry it",
    },
    WorkloadDef {
        name: "ingest",
        why: "1 rank, each round puts distinct shuffled keys into a fresh db through a 2 MiB MemTable and settles: freeze, sstable build/merge, nvm.store writes, compaction thread, stalls",
    },
    WorkloadDef {
        name: "remote_mix",
        why: "2 ranks, every key owned by rank 1, rank 0 drives 50% get / 50% relaxed put with a fence per 256 ops: core.msg, mpi.fabric and core.runtime hand-offs over a cache-hit read path",
    },
    WorkloadDef {
        name: "serve_resp",
        why: "2 ranks, RESP front end, open loop at a fixed 32k cmd/s per window, balanced zipfian mix: serve.resp/cmd/server on top of the whole stack; tail latency at fixed rate",
    },
];

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system would see, with the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub meaning: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "world spawn, load, settle, warm-up and first-round generation up to the first timed op, scaled by the reference kernel; median of 3-9 set-ups",
    },
    EndToEnd {
        name: "norm_kops",
        unit: "kops/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "completed ops per host second, each round scaled by the reference kernel timed beside it; median of the rounds (warm-up discarded)",
    },
    EndToEnd {
        name: "virt_kops",
        unit: "kops/s",
        better: Better::Higher,
        bound: 0.02,
        meaning: "ops per virtual second over the timed rounds, closing fence or settle included: the paper's axis",
    },
    EndToEnd {
        name: "write_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.03,
        meaning: "bytes written to the NVM backend from open to close over user bytes put (counting Backend)",
    },
    EndToEnd {
        name: "space_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.02,
        meaning: "backend bytes resident after close over live user bytes",
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
        meaning: "most heap bytes live at once over the whole process (counting global allocator)",
    },
];

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A public function timed in isolation on the workload's data shape.
    Probe,
    /// Timed around the call in the traced rounds.
    Span,
    /// Delta of the public `papyrus_telemetry::snapshot()`.
    Tel,
    /// A counter kept by the benchmark or read from a public accessor.
    Count,
}

/// A per-layer metric. `moves` names the end-to-end metric it should move
/// and on which workload.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, source, moves }
}

use Better::{Higher, Lower};
use Source::{Count, Probe, Span, Tel};

const M_SERVE_WALL: &str = "norm_kops on serve_resp";
const M_SERVE_LAT: &str = "serve.server.write_virt_p99_us, virt_kops on serve_resp";
const M_FRONT: &str = "norm_kops on mem_mix, cache_read";
const M_SYNC: &str = "virt_kops on remote_mix, ingest";
const M_LSM_WRITE: &str = "norm_kops, virt_kops, write_amp on ingest";
const M_SST: &str =
    "norm_kops on sst_read (get), ingest (build, merge); setup_s where data is settled";
const M_REMOTE: &str = "virt_kops on remote_mix, serve_resp";
const M_FABRIC: &str = "virt_kops, core.db.get_virt_p50_us on remote_mix";
const M_NVM: &str = "core.db.get_virt_p99_us on sst_read; write_amp, virt_kops on ingest";
const M_SIM: &str = "norm_kops on sst_read, ingest";
const M_SELF: &str = "none: the harness's own cost";

pub const PER_LAYER: &[PerLayer] = &[
    pl("serve.resp.decode_ns_per_cmd", "ns", Lower, Probe, M_SERVE_WALL),
    pl("serve.resp.encode_ns_per_reply", "ns", Lower, Probe, M_SERVE_WALL),
    pl("serve.cmd.parse_ns", "ns", Lower, Probe, M_SERVE_WALL),
    pl("serve.server.wall_us_per_cmd", "us", Lower, Span, M_SERVE_WALL),
    pl("serve.server.wall_us_per_cmd_1rank", "us", Lower, Probe, M_SERVE_WALL),
    pl("serve.server.batch_mean", "count", Higher, Count, M_SERVE_LAT),
    pl("serve.server.rounds", "count", Lower, Count, M_SERVE_LAT),
    pl("serve.server.folded_dups", "count", Higher, Count, M_SERVE_LAT),
    pl("serve.server.frames_per_poll", "count", Higher, Count, M_SERVE_LAT),
    pl("serve.server.read_virt_p50_us", "us", Lower, Count, "virt_kops on serve_resp"),
    pl("serve.server.read_virt_p99_us", "us", Lower, Count, "virt_kops on serve_resp"),
    pl("serve.server.write_virt_p50_us", "us", Lower, Count, "virt_kops on serve_resp"),
    pl(
        "serve.server.write_virt_p99_us",
        "us",
        Lower,
        Count,
        "the serve_resp latency limit (100 virtual ms)",
    ),
    pl("serve.server.max_rate_kops", "kops/s", Higher, Count, "the serve_resp latency limit"),
    pl("core.db.get_wall_p50_ns", "ns", Lower, Span, M_FRONT),
    pl("core.db.get_wall_p99_ns", "ns", Lower, Span, M_FRONT),
    pl("core.db.put_wall_p50_ns", "ns", Lower, Span, "norm_kops on mem_mix, ingest"),
    pl("core.db.put_wall_p99_ns", "ns", Lower, Span, "norm_kops on mem_mix, ingest"),
    pl("core.db.get_front_ns", "ns", Lower, Span, M_FRONT),
    pl("core.db.put_front_ns", "ns", Lower, Span, "norm_kops on mem_mix, ingest"),
    pl("core.db.get_virt_p50_us", "us", Lower, Span, "virt_kops on every closed-loop workload"),
    pl("core.db.get_virt_p99_us", "us", Lower, Span, "virt_kops on sst_read, remote_mix"),
    pl("core.db.put_virt_p50_us", "us", Lower, Span, "virt_kops on mem_mix, ingest, remote_mix"),
    pl("core.db.put_virt_p99_us", "us", Lower, Span, "virt_kops on ingest, remote_mix"),
    pl("core.db.fence_wall_us", "us", Lower, Span, M_SYNC),
    pl("core.db.fence_virt_us", "us", Lower, Span, M_SYNC),
    pl("core.db.barrier_wall_ms", "ms", Lower, Span, M_SYNC),
    pl("core.db.barrier_virt_ms", "ms", Lower, Span, M_SYNC),
    pl("core.db.flush_count", "count", Lower, Tel, M_LSM_WRITE),
    pl("core.db.compact_count", "count", Lower, Tel, M_LSM_WRITE),
    pl("core.db.freeze_stalls", "count", Lower, Tel, M_LSM_WRITE),
    pl("core.db.flush_virt_ms", "ms", Lower, Tel, M_LSM_WRITE),
    pl("core.db.compact_virt_ms", "ms", Lower, Tel, M_LSM_WRITE),
    pl("core.memtable.insert_ns", "ns", Lower, Probe, "norm_kops on mem_mix, ingest"),
    pl("core.memtable.get_hit_ns", "ns", Lower, Probe, "norm_kops on mem_mix"),
    pl("core.memtable.get_miss_ns", "ns", Lower, Probe, "norm_kops on cache_read, sst_read"),
    pl("core.memtable.freeze_ns_per_entry", "ns", Lower, Probe, "norm_kops on ingest"),
    pl("core.lru.get_hit_ns", "ns", Lower, Probe, "norm_kops on cache_read"),
    pl("core.lru.insert_evict_ns", "ns", Lower, Probe, "norm_kops on sst_read"),
    pl("core.lru.invalidate_ns", "ns", Lower, Probe, "norm_kops on mem_mix"),
    pl(
        "core.lru.hit_ratio",
        "ratio",
        Higher,
        Count,
        "core.db.get_virt_p50_us, virt_kops on sst_read",
    ),
    pl("core.bloom.probe_ns", "ns", Lower, Probe, "norm_kops on sst_read"),
    pl("core.bloom.false_pos_ratio", "ratio", Lower, Probe, "core.db.get_virt_p99_us on sst_read"),
    pl("core.bloom.neg_ratio", "ratio", Higher, Tel, "core.db.get_virt_p99_us on sst_read"),
    pl("core.bloom.probes_per_get", "count", Lower, Tel, "norm_kops on sst_read"),
    pl("core.sstable.get_hit_ns", "ns", Lower, Probe, M_SST),
    pl("core.sstable.get_miss_ns", "ns", Lower, Probe, M_SST),
    pl("core.sstable.backend_gets_per_get", "count", Lower, Probe, M_SST),
    pl("core.sstable.open_us", "us", Lower, Probe, M_SST),
    pl("core.sstable.build_mb_s", "MB/s", Higher, Probe, M_SST),
    pl("core.sstable.merge_mb_s", "MB/s", Higher, Probe, M_SST),
    pl("core.sstable.live_count", "count", Lower, Count, M_SST),
    pl(
        "core.msg.encode_get_ns",
        "ns",
        Lower,
        Probe,
        "kvbench.allocs_per_op, norm_kops on remote_mix",
    ),
    pl(
        "core.msg.decode_get_ns",
        "ns",
        Lower,
        Probe,
        "kvbench.allocs_per_op, norm_kops on remote_mix",
    ),
    pl(
        "core.msg.encode_migrate_ns_per_rec",
        "ns",
        Lower,
        Probe,
        "kvbench.allocs_per_op, norm_kops on remote_mix",
    ),
    pl(
        "core.msg.decode_migrate_ns_per_rec",
        "ns",
        Lower,
        Probe,
        "kvbench.allocs_per_op, norm_kops on remote_mix",
    ),
    pl("core.runtime.remote_get_wall_us", "us", Lower, Span, "norm_kops on remote_mix"),
    pl("core.runtime.serve_gets", "count", Lower, Tel, M_REMOTE),
    pl("core.runtime.ingest_records", "count", Lower, Tel, M_REMOTE),
    pl("core.runtime.migrate_count", "count", Lower, Tel, M_REMOTE),
    pl("core.runtime.fence_wait_virt_us", "us", Lower, Tel, M_REMOTE),
    pl("core.runtime.rpc_retries", "count", Lower, Tel, M_REMOTE),
    pl("mpi.fabric.pingpong_wall_ns", "ns", Lower, Probe, "norm_kops on remote_mix, serve_resp"),
    pl("mpi.fabric.send_ns", "ns", Lower, Probe, "norm_kops on remote_mix, serve_resp"),
    pl("mpi.fabric.barrier_wall_us", "us", Lower, Probe, "setup_s on remote_mix, serve_resp"),
    pl("mpi.fabric.msgs_per_op", "count", Lower, Tel, M_FABRIC),
    pl("mpi.fabric.bytes_per_op", "B", Lower, Tel, M_FABRIC),
    pl("mpi.fabric.msg_virt_p50_ns", "ns", Lower, Tel, M_FABRIC),
    pl("nvm.store.write_ops", "count", Lower, Count, M_NVM),
    pl("nvm.store.read_ops_per_get", "count", Lower, Count, M_NVM),
    pl("nvm.store.read_bytes_per_get", "B", Lower, Count, M_NVM),
    pl("nvm.store.queue_wait_share", "ratio", Lower, Tel, M_NVM),
    pl("nvm.store.service_virt_us_per_op", "us", Lower, Tel, M_NVM),
    pl("nvm.store.put_at_ns_per_kib", "ns", Lower, Probe, M_NVM),
    pl("nvm.store.read_at_ns", "ns", Lower, Probe, M_NVM),
    pl("simtime.resource.submit_ns", "ns", Lower, Probe, M_SIM),
    pl("simtime.clock.advance_ns", "ns", Lower, Probe, M_SIM),
    pl("simtime.virt_per_wall", "ratio", Higher, Span, M_SIM),
    pl(
        "telemetry.overhead_pct",
        "%",
        Lower,
        Span,
        "norm_kops on every workload, if telemetry were left on",
    ),
    pl("telemetry.hist.record_ns", "ns", Lower, Probe, "telemetry.overhead_pct"),
    pl("kvbench.gen_ns_per_op", "ns", Lower, Span, M_SELF),
    pl("kvbench.timer_ns", "ns", Lower, Probe, M_SELF),
    pl("kvbench.round_self_pct", "%", Lower, Span, M_SELF),
    pl("kvbench.round_spread_pct", "%", Lower, Span, M_SELF),
    pl("kvbench.rounds", "count", Higher, Count, M_SELF),
    pl(
        "kvbench.cpu_us_per_op",
        "us",
        Lower,
        Count,
        "norm_kops where helper threads share the work",
    ),
    pl(
        "kvbench.peak_rss_mb",
        "MiB",
        Lower,
        Count,
        "peak_heap_mb as the kernel sees it (VmHWM); varies with malloc arena placement",
    ),
    pl(
        "kvbench.allocs_per_op",
        "count",
        Lower,
        Count,
        "norm_kops on every workload; repeats exactly for a seed",
    ),
    pl(
        "kvbench.raw_wall_kops",
        "kops/s",
        Higher,
        Span,
        "norm_kops before scaling: fastest-quartile untraced round, this sandbox's host time",
    ),
    pl(
        "kvbench.ref_ns",
        "ns",
        Lower,
        Span,
        "none: the sandbox's own speed during the run (reference kernel, ns per op)",
    ),
];

/// One measured value with its sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// The values a run measured, by metric name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Values(pub Vec<Value>);

impl Values {
    /// Record `name`. Each name is recorded once.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push(Value { name, value, samples });
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.iter().find(|v| v.name == name)
    }
}

/// What a run reports: the outcome counts and every metric of the run's
/// kind (end-to-end, or per-layer for a traced run).
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub violations: Vec<String>,
    pub values: Values,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    fn rows(&self) -> Vec<(&'static str, &'static str, f64, u64, &'static str)> {
        let row = |name: &'static str, unit, note| {
            let v = self.values.get(name);
            (name, unit, v.map_or(0.0, |v| v.value), v.map_or(0, |v| v.samples), note)
        };
        if self.traced {
            PER_LAYER.iter().map(|m| row(m.name, m.unit, m.moves)).collect()
        } else {
            END_TO_END.iter().map(|m| row(m.name, m.unit, m.meaning)).collect()
        }
    }

    /// Human-readable table: name, value, unit, sample count and, for a
    /// per-layer metric, the end-to-end metric it should move.
    pub fn table(&self) -> String {
        let mut out = format!(
            "# kvbench {} ({}): attempted {} failed {} fail_ratio {}\n",
            self.workload,
            if self.traced { "traced run, per-layer" } else { "end-to-end" },
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for v in &self.violations {
            let _ = writeln!(out, "# VIOLATION: {v}");
        }
        let note = if self.traced { "should move" } else { "meaning" };
        let _ = writeln!(
            out,
            "{:<40} {:>16} {:<7} {:>9}  {note}",
            "metric", "value", "unit", "samples"
        );
        for (name, unit, value, samples, note) in self.rows() {
            let _ = writeln!(out, "{name:<40} {value:>16.4} {unit:<7} {samples:>9}  {note}");
        }
        out
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`; values with all their digits.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value, _, _)) in self.rows().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papyrus_telemetry::json::{self, Json};

    fn name_ok(name: &str) -> bool {
        let head = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        head && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for u in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(unit_ok(u), "bad unit {u}");
        }
        assert!(!name_ok("virt_get_p50_µs") && !unit_ok("µs") && !unit_ok("kops/s virtual"));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {}", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` lists exactly these workloads and metrics, with
    /// the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("valid json");
        let Json::Obj(members) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let s = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_string();

        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let ours: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                (
                    s(m, "name"),
                    s(m, "unit"),
                    s(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (m.name.to_string(), m.unit.to_string(), m.better.label().to_string(), m.bound)
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .items()
            .iter()
            .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.label().to_string()))
            .collect();
        assert_eq!(listed, ours);

        assert_eq!(doc.get("paths").unwrap().items(), [Json::Str("kvbench".into())]);
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::default();
        values.set("setup_s", 0.8127, 3);
        let report = Report {
            workload: "mem_mix",
            traced: false,
            attempted: 10,
            failed: 0,
            violations: vec![],
            values,
        };
        let doc = json::parse(&report.json_line()).expect("valid json");
        let Json::Obj(members) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("metrics") };
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert!(report.table().contains("setup_s"));
    }
}
