//! # papyrus-telemetry
//!
//! Lock-free metrics and virtual-time tracing for the PapyrusKV simulator.
//!
//! Four pieces:
//!
//! 1. **Metrics registry** ([`Registry`]) — named, interned atomic
//!    [`Counter`]s, [`Gauge`]s, and log-bucketed latency [`Histogram`]s
//!    (p50/p95/p99/max over virtual [`SimNs`](papyrus_simtime::SimNs) time,
//!    ≤6.25% relative error).
//! 2. **Span recorder** ([`SpanRecorder`]) — a bounded per-timeline buffer
//!    of complete spans and instant markers stamped with virtual time,
//!    exported as Chrome Trace Event JSON ([`TelemetrySnapshot::to_chrome_trace`])
//!    that opens directly in chrome://tracing or Perfetto.
//! 3. **A near-zero disabled path** — every handle checks its registry's
//!    relaxed `AtomicBool` and returns; no locks, no allocation. A registry
//!    starts off and is flipped with [`Registry::set_enabled`].
//! 4. **Perf snapshots** ([`perf`]) — schema-versioned `BENCH_*.json`
//!    documents summarising a workload suite (per-workload QPS and merged
//!    cross-rank latency percentiles) plus the [`compare`] regression gate
//!    that `cargo xtask perfline --check` runs against a committed baseline.
//!
//! A registry belongs to a world: `papyrus_mpi::WorldConfig` carries one
//! (a fresh, disabled one by default), every layer of the world interns
//! its handles from it, and whoever built the world reads its snapshot
//! afterwards. Two worlds running at once record nothing into each other.
//! Its locks are leaf locks that no world's scheduler sees, so recording
//! moves nothing in the world it records.
//!
//! Timeline ("pid") conventions: MPI rank `r` is pid `r`; each NVM store a
//! world touches gets its own pid from [`NVM_PID_BASE`] up, in order of
//! first use. Within a rank, tids [`TID_APP`]/[`TID_COMPACT`]/
//! [`TID_DISPATCH`]/[`TID_HANDLER`] separate the application task from
//! the rank's helper tasks.
//!
//! ```
//! use papyrus_telemetry::Registry;
//!
//! let reg = Registry::with_enabled(true);
//! let puts = reg.counter(0, "kv.put.local");
//! let lat = reg.histogram(0, "kv.put.ns");
//! puts.inc();
//! lat.record(1_250);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter_sum("kv.put.local"), 1);
//! assert!(snap.to_chrome_trace().starts_with("{\"traceEvents\":["));
//! ```

// No panic path outside tests (DESIGN §14): a site that must panic, index or
// unwrap says why in its `#[allow(clippy::…, reason = "…")]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

mod hist;
pub mod json;
mod leaf;
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

use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// The registry of the world whose task runs on this thread.
    static WORLD: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// Make `reg` the registry the shim functions act on, for the rest of this
/// thread's life. `papyrus_mpi::World::run` calls it on every rank's
/// thread, so a slice — run on some rank's thread of the same world — sees
/// its own world's registry.
///
/// The shim — [`reset`], [`enable`], [`disable`] and [`snapshot`] — is for
/// kvbench, its one caller, which calls it on rank 0 of its world. It goes
/// with ROADMAP item 1 (the kvbench catch-up), after which kvbench holds its
/// world's registry like every other caller.
pub fn enter_world(reg: Arc<Registry>) {
    WORLD.with(|w| *w.borrow_mut() = Some(reg));
}

/// The calling thread's world registry; panics off a world's thread.
#[allow(clippy::panic, reason = "the kvbench shim off a world's thread is a caller's bug")]
fn shim_registry(op: &str) -> Arc<Registry> {
    WORLD.with(|w| w.borrow().clone()).unwrap_or_else(|| {
        panic!(
            "papyrus_telemetry::{op} called outside a world: telemetry belongs to a world's \
             registry (papyrus_mpi::WorldConfig::with_telemetry), and only a world's thread has one"
        )
    })
}

/// Turn on recording in the calling thread's world registry (shim, see
/// [`enter_world`]).
pub fn enable() {
    shim_registry("enable").set_enabled(true);
}

/// Turn off recording in the calling thread's world registry (shim, see
/// [`enter_world`]).
pub fn disable() {
    shim_registry("disable").set_enabled(false);
}

/// Snapshot the calling thread's world registry (shim, see [`enter_world`]).
pub fn snapshot() -> TelemetrySnapshot {
    shim_registry("snapshot").snapshot()
}

/// Zero all metrics and span buffers in the calling thread's world registry
/// (shim, see [`enter_world`]).
pub fn reset() {
    shim_registry("reset").reset()
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "the test races OS threads outside any world")]
mod tests {
    use super::*;
    use papyrus_simtime::Resource;

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

    /// Two threads record into one histogram and intern-and-bump the same
    /// counter of one registry: no record or bump is lost, and both threads
    /// intern the same counter.
    #[test]
    fn two_threads_record_and_intern_exactly() {
        const EACH: u64 = 1_000;
        let r = Registry::with_enabled(true);
        let h = Histogram::new();
        std::thread::scope(|s| {
            for v in [100, 3_000_000] {
                let (r, h) = (&r, h.clone());
                s.spawn(move || {
                    for _ in 0..EACH {
                        h.record(v);
                        r.counter(7, "hits").inc();
                    }
                });
            }
        });
        let done = h.snapshot();
        assert_eq!((done.count, done.sum, done.max), (2 * EACH, EACH * 3_000_100, 3_000_000));
        assert_eq!(r.snapshot().counter_sum("hits"), 2 * EACH);
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
        let (a, b) = (Resource::new(), Resource::new());
        assert_eq!(r.store_pid(&a, "nvm a"), NVM_PID_BASE);
        assert_eq!(r.store_pid(&b, "nvm b"), NVM_PID_BASE + 1);
        assert_eq!(r.store_pid(&a.clone(), "nvm a"), NVM_PID_BASE, "one timeline per store");
        drop(a);
        let c = Resource::new();
        assert_eq!(r.store_pid(&c, "nvm c"), NVM_PID_BASE + 2, "a dropped store's pid stays its");
        assert_eq!(r.snapshot().pid_names.len(), 3);
    }

    /// The shim acts on the registry its thread entered, and refuses a
    /// thread that entered none.
    #[test]
    fn shim_acts_on_the_threads_world_and_refuses_other_threads() {
        let reg = Arc::new(Registry::new());
        let mine = reg.clone();
        std::thread::spawn(move || {
            enter_world(mine.clone());
            enable();
            mine.counter(0, "c").add(3);
            assert_eq!(snapshot().counter_sum("c"), 3);
            reset();
            disable();
        })
        .join()
        .unwrap();
        assert!(!reg.enabled());
        assert_eq!(reg.snapshot().counter_sum("c"), 0);
        let refused = std::thread::spawn(enable).join().unwrap_err();
        let msg = refused.downcast_ref::<String>().unwrap();
        assert!(msg.contains("enable called outside a world"), "{msg}");
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
