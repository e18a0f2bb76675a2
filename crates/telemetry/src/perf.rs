//! Structured perf snapshots: the machine-readable cross-PR trajectory.
//!
//! A [`PerfSnapshot`] is the JSON document written as `BENCH_<git-sha>.json`
//! at the repo root by `cargo xtask perfline`: one [`WorkloadPerf`] row per
//! (workload mix × key skew × rank count) cell, each carrying virtual-time
//! QPS, bytes moved, flush/compaction counts, and put/get/scan latency
//! percentiles read from the merged cross-rank log-linear histograms
//! ([`TelemetrySnapshot::merged_histogram`]).
//!
//! The document is schema-versioned ([`PERF_SCHEMA_VERSION`]): loaders
//! reject documents from a different schema rather than mis-reading them.
//! [`compare`] implements the regression gate — a current snapshot fails
//! against a baseline when any workload loses any throughput or gains any
//! put/get/scan p99: the world runs one task at a time in virtual-time
//! order, so the same code and seed give the same numbers, and any move is
//! the code's.
//!
//! [`TelemetrySnapshot::merged_histogram`]: crate::TelemetrySnapshot::merged_histogram

use std::io::Write as _;

use crate::hist::HistogramData;
use crate::json::{self, Json};

/// Version stamp written into (and required from) every snapshot document.
/// Bump when the JSON layout changes incompatibly.
pub const PERF_SCHEMA_VERSION: u64 = 1;

/// Document-kind marker, so a stray Chrome trace or unrelated JSON file
/// fails loading with a clear message instead of a field-by-field error.
pub const PERF_SCHEMA_KIND: &str = "papyruskv-perf-snapshot";

/// Percentile summary of one merged latency histogram (virtual ns).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Recorded operations.
    pub count: u64,
    /// Arithmetic mean (exact, from sum/count).
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Exact observed maximum.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarise a merged histogram; `None` when nothing was recorded (the
    /// JSON field is then `null`, distinguishing "not measured" from zeros).
    pub fn from_hist(h: &HistogramData) -> Option<Self> {
        if h.count == 0 {
            return None;
        }
        Some(Self {
            count: h.count,
            mean_ns: h.mean(),
            p50_ns: h.p50(),
            p95_ns: h.p95(),
            p99_ns: h.p99(),
            max_ns: h.max,
        })
    }
}

/// One suite cell: a workload mix at one skew and rank count.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPerf {
    /// Stable row key, e.g. `"A/zipfian/r64"` — the unit the regression
    /// gate matches baseline rows against.
    pub id: String,
    /// Workload mix name (`"A"`..`"F"`).
    pub mix: String,
    /// Key-skew label, e.g. `"uniform"`, `"zipfian"`, `"hotspot"`.
    pub skew: String,
    /// Rank count the cell ran at.
    pub ranks: usize,
    /// Replication factor (1 = unreplicated).
    pub replicas: usize,
    /// Operations completed in the measured phase (scans count once).
    pub ops: u64,
    /// Parallel virtual elapsed time of the measured phase (max over ranks).
    pub elapsed_ns: u64,
    /// Aggregate throughput: `ops` per virtual second.
    pub qps: f64,
    /// Payload bytes moved in the measured phase (keys + values).
    pub bytes_moved: u64,
    /// MemTable flushes across all ranks during the cell.
    pub flushes: u64,
    /// Merge compactions across all ranks during the cell.
    pub compactions: u64,
    /// Put latency (merged `kv.put.ns`).
    pub put: Option<LatencySummary>,
    /// Get latency (merged `kv.get.local.ns` + `kv.get.remote.ns`).
    pub get: Option<LatencySummary>,
    /// Whole-scan latency (merged `wl.scan.ns`; workload E only).
    pub scan: Option<LatencySummary>,
    /// Ack-to-replica-durable lag (merged `repl.lag.ns`; only when R≥2).
    pub repl_lag: Option<LatencySummary>,
}

/// A full suite result: the document committed as `BENCH_<git-sha>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfSnapshot {
    /// Schema version ([`PERF_SCHEMA_VERSION`] at write time).
    pub schema_version: u64,
    /// Git revision the suite ran against (short sha, or `"unknown"`).
    pub git_sha: String,
    /// Free-form generator label (suite name + sizing).
    pub label: String,
    /// One row per suite cell, in run order.
    pub workloads: Vec<WorkloadPerf>,
}

impl PerfSnapshot {
    /// Look up a row by its stable id.
    pub fn workload(&self, id: &str) -> Option<&WorkloadPerf> {
        self.workloads.iter().find(|w| w.id == id)
    }

    /// Serialise to the schema-versioned JSON document (pretty-printed,
    /// one workload row per line group — diffs of committed baselines stay
    /// reviewable).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.workloads.len() * 512);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        out.push_str(&format!("  \"kind\": {},\n", json::quote(PERF_SCHEMA_KIND)));
        out.push_str(&format!("  \"git_sha\": {},\n", json::quote(&self.git_sha)));
        out.push_str(&format!("  \"label\": {},\n", json::quote(&self.label)));
        out.push_str("  \"workloads\": [");
        for (i, w) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"id\": {}, ", json::quote(&w.id)));
            out.push_str(&format!("\"mix\": {}, ", json::quote(&w.mix)));
            out.push_str(&format!("\"skew\": {}, ", json::quote(&w.skew)));
            out.push_str(&format!("\"ranks\": {}, ", w.ranks));
            out.push_str(&format!("\"replicas\": {},\n", w.replicas));
            out.push_str(&format!("      \"ops\": {}, ", w.ops));
            out.push_str(&format!("\"elapsed_ns\": {}, ", w.elapsed_ns));
            out.push_str(&format!("\"qps\": {}, ", num(w.qps)));
            out.push_str(&format!("\"bytes_moved\": {},\n", w.bytes_moved));
            out.push_str(&format!("      \"flushes\": {}, ", w.flushes));
            out.push_str(&format!("\"compactions\": {},\n", w.compactions));
            out.push_str(&format!("      \"put\": {},\n", lat(&w.put)));
            out.push_str(&format!("      \"get\": {},\n", lat(&w.get)));
            out.push_str(&format!("      \"scan\": {},\n", lat(&w.scan)));
            out.push_str(&format!("      \"repl_lag\": {}\n", lat(&w.repl_lag)));
            out.push_str("    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// The human summary: one line per workload row, p99s in µs.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "{:<22} {:>10} {:>12} {:>10} {:>10} {:>10} {:>7} {:>7}\n",
            "workload", "qps", "elapsed-ms", "put-p99", "get-p99", "scan-p99", "flush", "compact"
        );
        let us = |l: &Option<LatencySummary>| match l {
            Some(s) => format!("{:.1}us", s.p99_ns as f64 / 1e3),
            None => "-".to_string(),
        };
        for w in &self.workloads {
            out.push_str(&format!(
                "{:<22} {:>10.0} {:>12.2} {:>10} {:>10} {:>10} {:>7} {:>7}\n",
                w.id,
                w.qps,
                w.elapsed_ns as f64 / 1e6,
                us(&w.put),
                us(&w.get),
                us(&w.scan),
                w.flushes,
                w.compactions,
            ));
        }
        out
    }

    /// Write the JSON document to `path`.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }

    /// Parse a snapshot document; rejects wrong kinds and schema versions.
    pub fn from_json(input: &str) -> Result<Self, String> {
        let doc = json::parse(input).map_err(|e| format!("invalid JSON: {e}"))?;
        let kind = doc.get("kind").and_then(Json::as_str).unwrap_or("<absent>");
        if kind != PERF_SCHEMA_KIND {
            return Err(format!("not a perf snapshot (kind = {kind:?})"));
        }
        let version =
            doc.get("schema_version").and_then(Json::as_f64).ok_or("missing schema_version")?
                as u64;
        if version != PERF_SCHEMA_VERSION {
            return Err(format!(
                "schema version {version} unsupported (this build reads {PERF_SCHEMA_VERSION})"
            ));
        }
        let workloads = doc
            .get("workloads")
            .ok_or("missing workloads array")?
            .items()
            .iter()
            .map(parse_workload)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            schema_version: version,
            git_sha: req_str(&doc, "git_sha")?,
            label: req_str(&doc, "label")?,
            workloads,
        })
    }

    /// Read and parse a snapshot from `path`.
    pub fn read_json(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::from_json(&text).map_err(|e| format!("{path}: {e}"))
    }
}

fn parse_workload(j: &Json) -> Result<WorkloadPerf, String> {
    Ok(WorkloadPerf {
        id: req_str(j, "id")?,
        mix: req_str(j, "mix")?,
        skew: req_str(j, "skew")?,
        ranks: req_num(j, "ranks")? as usize,
        replicas: req_num(j, "replicas")? as usize,
        ops: req_num(j, "ops")? as u64,
        elapsed_ns: req_num(j, "elapsed_ns")? as u64,
        qps: req_num(j, "qps")?,
        bytes_moved: req_num(j, "bytes_moved")? as u64,
        flushes: req_num(j, "flushes")? as u64,
        compactions: req_num(j, "compactions")? as u64,
        put: parse_lat(j, "put")?,
        get: parse_lat(j, "get")?,
        scan: parse_lat(j, "scan")?,
        repl_lag: parse_lat(j, "repl_lag")?,
    })
}

fn parse_lat(j: &Json, key: &str) -> Result<Option<LatencySummary>, String> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(l) => Ok(Some(LatencySummary {
            count: req_num(l, "count")? as u64,
            mean_ns: req_num(l, "mean_ns")?,
            p50_ns: req_num(l, "p50_ns")? as u64,
            p95_ns: req_num(l, "p95_ns")? as u64,
            p99_ns: req_num(l, "p99_ns")? as u64,
            max_ns: req_num(l, "max_ns")? as u64,
        })),
    }
}

fn req_str(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn req_num(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing numeric field {key:?}"))
}

/// Render an f64 as a JSON number (finite guaranteed by construction; be
/// defensive anyway — NaN/inf serialise as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn lat(l: &Option<LatencySummary>) -> String {
    match l {
        None => "null".to_string(),
        Some(l) => format!(
            "{{\"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \
             \"p99_ns\": {}, \"max_ns\": {}}}",
            l.count,
            num(l.mean_ns),
            l.p50_ns,
            l.p95_ns,
            l.p99_ns,
            l.max_ns
        ),
    }
}

/// One gate violation: a metric of one workload got worse.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Workload row id (`WorkloadPerf::id`).
    pub workload: String,
    /// What moved: `"qps"`, `"put.p99_ns"`, `"get.p99_ns"`, `"scan.p99_ns"`,
    /// or `"missing"` (the row/metric disappeared entirely).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Signed percentage change (positive = grew).
    pub delta_pct: f64,
}

impl Regression {
    /// One-line human rendering.
    pub fn render(&self) -> String {
        if self.metric == "missing" {
            return format!("{}: row or metric missing from current snapshot", self.workload);
        }
        format!(
            "{}: {} {:+.1}% (baseline {:.0}, current {:.0})",
            self.workload, self.metric, self.delta_pct, self.baseline, self.current
        )
    }
}

/// The regression gate: compare `current` against `baseline`.
///
/// For every baseline workload row, fail when:
/// - the row is absent from `current` (coverage loss is a regression);
/// - `qps` dropped at all;
/// - `put`/`get`/`scan` p99 grew at all (a metric present in the baseline
///   but absent now also fails).
///
/// Rows present only in `current` (new coverage) never fail.
pub fn compare(current: &PerfSnapshot, baseline: &PerfSnapshot) -> Vec<Regression> {
    let mut out = Vec::new();
    for base in &baseline.workloads {
        let mut worse = |metric: String, baseline: f64, current: f64| {
            let delta_pct =
                if baseline == 0.0 { 0.0 } else { (current - baseline) / baseline * 100.0 };
            out.push(Regression {
                workload: base.id.clone(),
                metric,
                baseline,
                current,
                delta_pct,
            });
        };
        let Some(cur) = current.workload(&base.id) else {
            worse("missing".into(), 0.0, 0.0);
            continue;
        };
        if cur.qps < base.qps {
            worse("qps".into(), base.qps, cur.qps);
        }
        for (name, b, c) in [
            ("put", &base.put, &cur.put),
            ("get", &base.get, &cur.get),
            ("scan", &base.scan, &cur.scan),
        ] {
            let Some(b) = b else { continue };
            match c {
                None => worse("missing".into(), b.p99_ns as f64, 0.0),
                Some(c) if c.p99_ns > b.p99_ns => {
                    worse(format!("{name}.p99_ns"), b.p99_ns as f64, c.p99_ns as f64)
                }
                Some(_) => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_lat(p99: u64) -> Option<LatencySummary> {
        Some(LatencySummary {
            count: 1000,
            mean_ns: p99 as f64 / 3.0,
            p50_ns: p99 / 4,
            p95_ns: p99 / 2,
            p99_ns: p99,
            max_ns: p99 * 2,
        })
    }

    fn sample_snapshot() -> PerfSnapshot {
        PerfSnapshot {
            schema_version: PERF_SCHEMA_VERSION,
            git_sha: "abc1234".into(),
            label: "test suite".into(),
            workloads: vec![
                WorkloadPerf {
                    id: "A/uniform/r4".into(),
                    mix: "A".into(),
                    skew: "uniform".into(),
                    ranks: 4,
                    replicas: 1,
                    ops: 4096,
                    elapsed_ns: 2_000_000,
                    qps: 2_048_000.0,
                    bytes_moved: 1 << 20,
                    flushes: 3,
                    compactions: 1,
                    put: sample_lat(40_000),
                    get: sample_lat(25_000),
                    scan: None,
                    repl_lag: None,
                },
                WorkloadPerf {
                    id: "E/zipfian/r4".into(),
                    mix: "E".into(),
                    skew: "zipfian".into(),
                    ranks: 4,
                    replicas: 2,
                    ops: 512,
                    elapsed_ns: 8_000_000,
                    qps: 64_000.0,
                    bytes_moved: 2 << 20,
                    flushes: 0,
                    compactions: 0,
                    put: sample_lat(50_000),
                    get: sample_lat(30_000),
                    scan: sample_lat(400_000),
                    repl_lag: sample_lat(90_000),
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = sample_snapshot();
        let parsed = PerfSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn loader_rejects_wrong_kind_and_version() {
        assert!(PerfSnapshot::from_json("{\"traceEvents\":[]}").unwrap_err().contains("kind"));
        let mut doc = sample_snapshot().to_json();
        doc = doc.replace("\"schema_version\": 1", "\"schema_version\": 99");
        assert!(PerfSnapshot::from_json(&doc).unwrap_err().contains("schema version 99"));
        assert!(PerfSnapshot::from_json("not json at all").is_err());
    }

    #[test]
    fn clean_compare_has_no_regressions() {
        let snap = sample_snapshot();
        assert!(compare(&snap, &snap).is_empty());
        // Improvements never fail the gate.
        let mut better = snap.clone();
        better.workloads[0].qps *= 2.0;
        better.workloads[0].put.as_mut().unwrap().p99_ns /= 2;
        assert!(compare(&better, &snap).is_empty());
    }

    #[test]
    fn p99_and_qps_regressions_detected_past_tolerance() {
        // There is no tolerance: the smallest step worse is a regression.
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.workloads[0].qps *= 0.85; // -15% throughput
        cur.workloads[1].scan.as_mut().unwrap().p99_ns = 480_000; // +20% p99
        let regs = compare(&cur, &base);
        let metrics: Vec<_> =
            regs.iter().map(|r| (r.workload.as_str(), r.metric.as_str())).collect();
        assert_eq!(
            metrics,
            vec![("A/uniform/r4", "qps"), ("E/zipfian/r4", "scan.p99_ns")],
            "{regs:#?}"
        );
        assert!((regs[0].delta_pct + 15.0).abs() < 0.01);
        assert!((regs[1].delta_pct - 20.0).abs() < 0.01);
        let mut by_a_hair = base.clone();
        by_a_hair.workloads[0].put.as_mut().unwrap().p99_ns += 1;
        by_a_hair.workloads[1].qps -= 0.5;
        assert_eq!(compare(&by_a_hair, &base).len(), 2, "one ns and half a qps are regressions");
    }

    #[test]
    fn missing_rows_and_metrics_are_regressions() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.workloads.remove(1);
        let regs = compare(&cur, &base);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "missing");
        assert_eq!(regs[0].workload, "E/zipfian/r4");

        let mut lost_metric = base.clone();
        lost_metric.workloads[1].scan = None;
        let regs = compare(&lost_metric, &base);
        assert_eq!(regs.len(), 1, "{regs:#?}");
        assert_eq!(regs[0].metric, "missing");

        // Extra rows in current are new coverage, not a failure.
        let mut extra = base.clone();
        extra.workloads.push(base.workloads[0].clone());
        extra.workloads[2].id = "F/hotspot/r64".into();
        assert!(compare(&extra, &base).is_empty());
    }

    #[test]
    fn render_names_the_workload_and_direction() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.workloads[0].qps *= 0.5;
        let regs = compare(&cur, &base);
        let line = regs[0].render();
        assert!(line.contains("A/uniform/r4") && line.contains("qps") && line.contains("-50.0%"));
    }
}
