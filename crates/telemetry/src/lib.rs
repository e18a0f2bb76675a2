//! # papyrus-telemetry
//!
//! Lock-free metrics and virtual-time tracing for the PapyrusKV simulator.
//!
//! Three pieces:
//!
//! 1. **Metrics registry** ([`Registry`]) — named, interned atomic
//!    [`Counter`]s, [`Gauge`]s, and log-bucketed latency [`Histogram`]s
//!    (p50/p95/p99/max over virtual [`SimNs`] time, ≤6.25% relative error).
//! 2. **Span recorder** ([`SpanRecorder`]) — a bounded per-timeline buffer
//!    of complete spans and instant markers stamped with virtual time,
//!    exported as Chrome Trace Event JSON ([`TelemetrySnapshot::to_chrome_trace`])
//!    that opens directly in chrome://tracing or Perfetto.
//! 3. **A near-zero disabled path** — every handle checks one shared
//!    relaxed `AtomicBool` and returns; no locks, no allocation. The whole
//!    subsystem defaults to off and is flipped with [`enable`].
//! 4. **Perf snapshots** ([`perf`]) — schema-versioned `BENCH_*.json`
//!    documents summarising a workload suite (per-workload QPS and merged
//!    cross-rank latency percentiles) plus the [`compare`] regression gate
//!    that `cargo xtask perfline --check` runs against a committed baseline.
//!
//! Timeline ("pid") conventions: MPI rank `r` is pid `r`; each NVM store
//! gets its own pid at [`NVM_PID_BASE`]` + store_id`. Within a rank, tids
//! [`TID_APP`]/[`TID_COMPACT`]/[`TID_DISPATCH`]/[`TID_HANDLER`] separate
//! the application thread from the background service threads.
//!
//! Instrumented code uses the process-global registry:
//!
//! ```
//! use papyrus_telemetry as tel;
//!
//! tel::enable();
//! let puts = tel::global().counter(0, "kv.put.local");
//! let lat = tel::global().histogram(0, "kv.put.ns");
//! puts.inc();
//! lat.record(1_250);
//! let snap = tel::snapshot();
//! assert!(snap.to_chrome_trace().starts_with("{\"traceEvents\":["));
//! # tel::disable();
//! ```

mod hist;
pub mod json;
mod metrics;
pub mod perf;
mod registry;
mod spans;

pub use hist::{Histogram, HistogramData};
pub use metrics::{Counter, Gauge};
pub use perf::{
    compare, LatencySummary, PerfSnapshot, Regression, WorkloadPerf, PERF_SCHEMA_KIND,
    PERF_SCHEMA_VERSION,
};
pub use registry::{
    fmt_ns, Registry, TelemetrySnapshot, NVM_PID_BASE, TID_APP, TID_COMPACT, TID_DISPATCH,
    TID_HANDLER,
};
pub use spans::{EventKind, SpanEvent, SpanRecorder, DEFAULT_SPAN_CAPACITY};

use papyrus_simtime::SimNs;
use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry (created disabled on first use).
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Turn on recording in the global registry.
pub fn enable() {
    global().set_enabled(true);
}

/// Turn off recording in the global registry.
pub fn disable() {
    global().set_enabled(false);
}

/// Whether the global registry is recording.
pub fn is_enabled() -> bool {
    global().enabled()
}

/// Snapshot the global registry.
pub fn snapshot() -> TelemetrySnapshot {
    global().snapshot()
}

/// Zero all metrics and span buffers in the global registry.
pub fn reset() {
    global().reset()
}

/// Record a span on rank `rank`'s timeline in the global registry —
/// convenience for call sites without a cached recorder.
pub fn span(
    rank: usize,
    cat: &'static str,
    name: &'static str,
    tid: u32,
    start: SimNs,
    end: SimNs,
) {
    if !is_enabled() {
        return;
    }
    global().recorder(rank as u32).span(cat, name, tid, start, end);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_interns_handles() {
        let r = Registry::with_enabled(true);
        let a = r.counter(1, "x");
        let b = r.counter(1, "x");
        a.inc();
        b.inc();
        assert_eq!(r.counter(1, "x").get(), 2, "same (pid,name) must share state");
        assert_eq!(r.counter(2, "x").get(), 0, "different pid is a different counter");
    }

    #[test]
    fn disabled_registry_records_nothing_then_flips_on() {
        let r = Registry::new();
        let c = r.counter(0, "c");
        let h = r.histogram(0, "h");
        let rec = r.recorder(0);
        c.inc();
        h.record(5);
        rec.span("t", "s", 0, 0, 1);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert!(rec.is_empty());

        r.set_enabled(true);
        c.inc();
        h.record(5);
        rec.span("t", "s", 0, 0, 1);
        assert_eq!(c.get(), 1);
        assert_eq!(h.count(), 1);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn snapshot_sorts_events_by_pid_then_ts() {
        let r = Registry::with_enabled(true);
        let r1 = r.recorder_for_rank(1);
        let r0 = r.recorder_for_rank(0);
        r1.span("core", "b", 0, 50, 60);
        r0.span("core", "a", 0, 200, 210);
        r0.span("core", "a2", 0, 100, 110);
        let snap = r.snapshot();
        let order: Vec<(u32, u64)> = snap.events.iter().map(|e| (e.pid, e.ts)).collect();
        assert_eq!(order, vec![(0, 100), (0, 200), (1, 50)]);
    }

    #[test]
    fn store_pids_start_at_base_and_increment() {
        let r = Registry::new();
        assert_eq!(r.alloc_store_pid("nvm a"), NVM_PID_BASE);
        assert_eq!(r.alloc_store_pid("nvm b"), NVM_PID_BASE + 1);
    }

    #[test]
    fn reset_clears_but_keeps_handles_live() {
        let r = Registry::with_enabled(true);
        let c = r.counter(0, "c");
        let rec = r.recorder(0);
        c.add(7);
        rec.instant("t", "i", 0, 1);
        r.reset();
        assert_eq!(c.get(), 0);
        assert!(rec.is_empty());
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn table_renders_all_sections() {
        let r = Registry::with_enabled(true);
        r.counter(0, "kv.put").add(3);
        r.gauge(0, "q.depth").set(2);
        let h = r.histogram(0, "kv.put.ns");
        for v in [100u64, 2_000, 3_000_000] {
            h.record(v);
        }
        let t = r.snapshot().to_table();
        assert!(t.contains("kv.put"), "{t}");
        assert!(t.contains("q.depth"), "{t}");
        assert!(t.contains("p99"), "{t}");
    }
}

/// Schedule-exploration models for the telemetry hot paths. Built and run
/// only under `RUSTFLAGS="--cfg modelcheck"` (see `cargo xtask modelcheck`);
/// the atomics inside `Histogram`/`Counter` and the registry's enabled flag
/// are then the shimmed `papyrus_modelcheck::atomic` types, so every
/// interleaving of the wait-free record path is explored exhaustively.
#[cfg(all(test, modelcheck))]
mod modelcheck_tests {
    use std::sync::Arc;

    use papyrus_modelcheck as mc;

    use crate::{Histogram, Registry};

    /// Exhaustive interleavings of two racing recorders on the wait-free
    /// histogram record path. Pinned so a scheduler or DPOR change that
    /// silently shrinks coverage fails loudly.
    ///
    /// Deliberately no mid-flight `snapshot()` inside the model: a snapshot
    /// reads all 976 bucket atomics, which blows the conflict graph up to
    /// a ~10-minute exploration for zero extra signal (every bucket read
    /// conflicts with every record). The post-join snapshot is ordered by
    /// the joins, so it checks totals without widening the search.
    const PINNED_HIST_2REC: u64 = 251;

    /// Two threads record into one histogram; once both join, the totals
    /// must be exact in every interleaving (the relaxed RMWs on count, sum,
    /// and max are independent, so no schedule may lose a record).
    #[test]
    fn modelcheck_hist_concurrent_record_exhaustive() {
        let report = mc::explore(|| {
            let h = Histogram::new();
            let h1 = h.clone();
            let h2 = h.clone();
            let t1 = mc::thread::spawn(move || h1.record(100));
            let t2 = mc::thread::spawn(move || h2.record(3_000_000));
            t1.join().unwrap();
            t2.join().unwrap();
            let done = h.snapshot();
            assert_eq!(done.count, 2);
            assert_eq!(done.sum, 3_000_100);
            assert_eq!(done.max, 3_000_000);
        });
        assert!(report.ok(), "violation: {:?}", report.violations);
        assert_eq!(report.interleavings, PINNED_HIST_2REC, "DPOR coverage changed");
        report_to_registry(&report);
    }

    /// Two threads intern the same `(pid, name)` counter concurrently and
    /// bump it; interning must hand both the same underlying atomic so the
    /// snapshot sums to exactly 2 in every interleaving.
    #[test]
    fn modelcheck_registry_intern_exhaustive() {
        let report = mc::explore(|| {
            let r = Arc::new(Registry::with_enabled(true));
            let r1 = r.clone();
            let r2 = r.clone();
            let t1 = mc::thread::spawn(move || r1.counter(7, "mc.hits").inc());
            let t2 = mc::thread::spawn(move || r2.counter(7, "mc.hits").inc());
            t1.join().unwrap();
            t2.join().unwrap();
            assert_eq!(r.snapshot().counter_sum("mc.hits"), 2);
        });
        assert!(report.ok(), "violation: {:?}", report.violations);
        assert!(report.interleavings >= 2, "expected >1 interleaving");
        report_to_registry(&report);
    }

    /// Publish an exploration `Report` into a registry and check the
    /// `modelcheck.*` counters surface through the normal snapshot tooling
    /// (`counter_sum` and the human table) — the same path the perf
    /// snapshot exporter reads.
    fn report_to_registry(report: &mc::Report) {
        let reg = Registry::with_enabled(true);
        reg.counter(0, "modelcheck.interleavings").add(report.interleavings);
        reg.counter(0, "modelcheck.prunes").add(report.prunes);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_sum("modelcheck.interleavings"), report.interleavings);
        assert_eq!(snap.counter_sum("modelcheck.prunes"), report.prunes);
        let table = snap.to_table();
        assert!(table.contains("modelcheck.interleavings"), "{table}");
    }
}
