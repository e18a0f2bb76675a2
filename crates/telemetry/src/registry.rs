//! Metric/span registry and whole-world snapshotting.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use papyrus_simtime::Resource;
use parking_lot::Mutex;

use crate::hist::{Histogram, HistogramData};
use crate::metrics::{Counter, Gauge};
use crate::spans::{self, SpanEvent, SpanRecorder, DEFAULT_SPAN_CAPACITY};

/// Trace pids below this are MPI ranks; NVM store timelines start here.
pub const NVM_PID_BASE: u32 = 10_000;

/// Lane (trace `tid`) for the application task's work on a rank timeline.
pub const TID_APP: u32 = 0;
/// Lane for the compaction task.
pub const TID_COMPACT: u32 = 1;
/// Lane for the migration dispatcher task.
pub const TID_DISPATCH: u32 = 2;
/// Lane for the remote-request handler task.
pub const TID_HANDLER: u32 = 3;

struct RegistryInner {
    counters: Mutex<BTreeMap<(u32, String), Counter>>,
    gauges: Mutex<BTreeMap<(u32, String), Gauge>>,
    histograms: Mutex<BTreeMap<(u32, String), Histogram>>,
    recorders: Mutex<BTreeMap<u32, SpanRecorder>>,
    pid_names: Mutex<BTreeMap<u32, String>>,
    tid_names: Mutex<BTreeMap<(u32, u32), String>>,
    /// Each store's device queue (it names the store, and the clone kept
    /// here keeps that name from being reused) with its timeline pid, in
    /// order of first use.
    store_pids: Mutex<Vec<(Resource, u32)>>,
}

/// Home of one world's telemetry state (`papyrus_mpi::WorldConfig`
/// carries it; two worlds share nothing unless handed the same one).
/// Handles returned by the `counter`/`gauge`/`histogram`/`recorder`
/// methods are interned: the same `(pid, name)` always yields the same
/// underlying atomic, so the world's tasks share metrics by name.
pub struct Registry {
    enabled: Arc<AtomicBool>,
    inner: RegistryInner,
}

impl Registry {
    /// New registry; telemetry starts disabled (near-zero-cost paths).
    pub fn new() -> Self {
        Self::with_enabled(false)
    }

    /// New registry with an explicit initial enabled state.
    pub fn with_enabled(enabled: bool) -> Self {
        Self {
            enabled: Arc::new(AtomicBool::new(enabled)),
            inner: RegistryInner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                recorders: Mutex::new(BTreeMap::new()),
                pid_names: Mutex::new(BTreeMap::new()),
                tid_names: Mutex::new(BTreeMap::new()),
                store_pids: Mutex::new(Vec::new()),
            },
        }
    }

    /// Turn recording on or off. Existing handles observe the change on
    /// their next operation (relaxed load).
    pub fn set_enabled(&self, on: bool) {
        // ordering: the flag gates only whether handles record; it guards
        // no data, so the documented "next operation" visibility is all
        // the relaxed latch needs to provide.
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        // ordering: latch read, as above.
        self.enabled.load(Ordering::Relaxed)
    }

    /// Interned counter `(pid, name)`.
    pub fn counter(&self, pid: u32, name: &str) -> Counter {
        let mut g = self.inner.counters.lock();
        g.entry((pid, name.to_string()))
            .or_insert_with(|| Counter::with_flag(self.enabled.clone()))
            .clone()
    }

    /// Interned gauge `(pid, name)`.
    pub fn gauge(&self, pid: u32, name: &str) -> Gauge {
        let mut g = self.inner.gauges.lock();
        g.entry((pid, name.to_string()))
            .or_insert_with(|| Gauge::with_flag(self.enabled.clone()))
            .clone()
    }

    /// Interned histogram `(pid, name)`.
    pub fn histogram(&self, pid: u32, name: &str) -> Histogram {
        let mut g = self.inner.histograms.lock();
        g.entry((pid, name.to_string()))
            .or_insert_with(|| Histogram::with_flag(self.enabled.clone()))
            .clone()
    }

    /// Interned span recorder for timeline `pid`.
    pub fn recorder(&self, pid: u32) -> SpanRecorder {
        let mut g = self.inner.recorders.lock();
        g.entry(pid)
            .or_insert_with(|| {
                SpanRecorder::with_flag(self.enabled.clone(), pid, DEFAULT_SPAN_CAPACITY)
            })
            .clone()
    }

    /// Recorder for an MPI rank; names the pid and its standard task
    /// lanes (app/compact/dispatch/handler) in the trace.
    pub fn recorder_for_rank(&self, rank: usize) -> SpanRecorder {
        let pid = rank as u32;
        self.name_pid(pid, &format!("rank {rank}"));
        self.name_tid(pid, TID_APP, "app");
        self.name_tid(pid, TID_COMPACT, "compact");
        self.name_tid(pid, TID_DISPATCH, "dispatch");
        self.name_tid(pid, TID_HANDLER, "handler");
        self.recorder(pid)
    }

    /// The timeline pid of the NVM store whose device queue is `queue`: on
    /// its first use here the next free pid (≥ [`NVM_PID_BASE`]), named
    /// `label`.
    pub fn store_pid(&self, queue: &Resource, label: &str) -> u32 {
        let mut g = self.inner.store_pids.lock();
        if let Some(&(_, pid)) = g.iter().find(|(q, _)| Resource::ptr_eq(q, queue)) {
            return pid;
        }
        let pid = NVM_PID_BASE + g.len() as u32;
        g.push((queue.clone(), pid));
        drop(g);
        self.name_pid(pid, label);
        pid
    }

    /// Set the display name of a trace pid.
    pub fn name_pid(&self, pid: u32, name: &str) {
        self.inner.pid_names.lock().insert(pid, name.to_string());
    }

    /// Set the display name of a `(pid, tid)` thread lane.
    pub fn name_tid(&self, pid: u32, tid: u32, name: &str) {
        self.inner.tid_names.lock().insert((pid, tid), name.to_string());
    }

    /// Collect a consistent point-in-time copy of every metric and span.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .iter()
            .map(|((pid, name), c)| (*pid, name.clone(), c.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .iter()
            .map(|((pid, name), g)| (*pid, name.clone(), g.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .iter()
            .map(|((pid, name), h)| (*pid, name.clone(), h.snapshot()))
            .collect();
        let mut events = Vec::new();
        let mut dropped_events = 0u64;
        for rec in self.inner.recorders.lock().values() {
            events.extend(rec.snapshot());
            dropped_events += rec.dropped();
        }
        // Perfetto/catapult want per-track ordering; sort by (pid, ts) so
        // each rank's timeline is monotone.
        events.sort_by_key(|e| (e.pid, e.ts, e.tid));
        TelemetrySnapshot {
            counters,
            gauges,
            histograms,
            events,
            pid_names: self.inner.pid_names.lock().iter().map(|(p, n)| (*p, n.clone())).collect(),
            tid_names: self
                .inner
                .tid_names
                .lock()
                .iter()
                .map(|((p, t), n)| (*p, *t, n.clone()))
                .collect(),
            dropped_events,
        }
    }

    /// Zero every metric and clear every span buffer (handles stay valid).
    pub fn reset(&self) {
        for c in self.inner.counters.lock().values() {
            c.reset();
        }
        for g in self.inner.gauges.lock().values() {
            g.reset();
        }
        for h in self.inner.histograms.lock().values() {
            h.reset();
        }
        for r in self.inner.recorders.lock().values() {
            r.reset();
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("enabled", &self.enabled()).finish_non_exhaustive()
    }
}

/// Point-in-time copy of a [`Registry`]: per-pid metric values plus the
/// merged, `(pid, ts)`-sorted event stream.
pub struct TelemetrySnapshot {
    /// `(pid, name, value)` sorted by pid then name.
    pub counters: Vec<(u32, String, u64)>,
    /// `(pid, name, value)` sorted by pid then name.
    pub gauges: Vec<(u32, String, i64)>,
    /// `(pid, name, data)` sorted by pid then name.
    pub histograms: Vec<(u32, String, HistogramData)>,
    /// All span events, sorted by `(pid, ts)`.
    pub events: Vec<SpanEvent>,
    /// Display names for trace pids.
    pub pid_names: Vec<(u32, String)>,
    /// Display names for `(pid, tid)` lanes.
    pub tid_names: Vec<(u32, u32, String)>,
    /// Events lost to full buffers.
    pub dropped_events: u64,
}

impl TelemetrySnapshot {
    /// Cross-rank aggregation: bucket-wise merge of every pid's histogram
    /// named `name` into one job-wide [`HistogramData`]. Empty if no pid
    /// recorded under that name. This is the percentile source for the
    /// perf snapshot exporter — per-rank log-linear histograms merge
    /// exactly (same bucket layout), so job-wide p50/p95/p99 carry no
    /// error beyond the bucket width already paid at record time.
    pub fn merged_histogram(&self, name: &str) -> HistogramData {
        let mut out = HistogramData::empty();
        for (_, n, h) in &self.histograms {
            if n == name {
                out.merge(h);
            }
        }
        out
    }

    /// Cross-rank aggregation: sum of every pid's counter named `name`.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters.iter().filter(|(_, n, _)| n == name).map(|(_, _, v)| v).sum()
    }

    /// Chrome Trace Event JSON (open in chrome://tracing or Perfetto).
    ///
    /// Histograms ride along as derived counter tracks
    /// (`<name>.count` / `.p50` / `.p99`), so latency families like
    /// `serve.req.ns` or `kv.put.ns` are visible next to the span
    /// timeline without a separate snapshot file.
    pub fn to_chrome_trace(&self) -> String {
        let mut counters = self.counters.clone();
        for (pid, name, h) in &self.histograms {
            if h.count == 0 {
                continue;
            }
            counters.push((*pid, format!("{name}.count"), h.count));
            counters.push((*pid, format!("{name}.p50"), h.quantile(0.50)));
            counters.push((*pid, format!("{name}.p99"), h.quantile(0.99)));
        }
        spans::to_chrome_trace(
            &self.events,
            &self.pid_names,
            &self.tid_names,
            &counters,
            self.dropped_events,
        )
    }

    /// Write the Chrome trace to `path`.
    pub fn write_chrome_trace(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_chrome_trace().as_bytes())
    }

    /// Human-readable per-pid table of counters, gauges, and histogram
    /// percentiles (virtual-time units). Zero-valued rows are omitted:
    /// every layer interns all its handles up front, and most of them
    /// stay at zero in any one run.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let counters: Vec<_> = self.counters.iter().filter(|(_, _, v)| *v != 0).collect();
        let gauges: Vec<_> = self.gauges.iter().filter(|(_, _, v)| *v != 0).collect();
        if !counters.is_empty() || !gauges.is_empty() {
            out.push_str(&format!("{:<6} {:<34} {:>16}\n", "pid", "counter/gauge", "value"));
            for (pid, name, v) in counters {
                out.push_str(&format!("{pid:<6} {name:<34} {v:>16}\n"));
            }
            for (pid, name, v) in gauges {
                out.push_str(&format!("{pid:<6} {name:<34} {v:>16}\n"));
            }
        }
        let histograms: Vec<_> = self.histograms.iter().filter(|(_, _, h)| h.count != 0).collect();
        if !histograms.is_empty() {
            out.push_str(&format!(
                "\n{:<6} {:<34} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "pid", "histogram", "count", "mean", "p50", "p95", "p99", "max"
            ));
            for (pid, name, h) in histograms {
                out.push_str(&format!(
                    "{pid:<6} {name:<34} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                    h.count,
                    fmt_ns(h.mean() as u64),
                    fmt_ns(h.p50()),
                    fmt_ns(h.p95()),
                    fmt_ns(h.p99()),
                    fmt_ns(h.max),
                ));
            }
        }
        if self.dropped_events > 0 {
            out.push_str(&format!(
                "\n(span buffer overflow: {} events dropped)\n",
                self.dropped_events
            ));
        }
        out
    }
}

/// Format virtual nanoseconds with a unit suffix.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}
