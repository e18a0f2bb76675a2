//! Bounded per-timeline event recorder with Chrome Trace Event export.
//!
//! Each timeline (a "pid" in trace terms — one per rank, plus one per NVM
//! store) owns a bounded buffer of events stamped with **virtual** time
//! ([`papyrus_simtime::SimNs`]). When the buffer fills, further events are
//! counted as dropped rather than reallocating without bound. The JSON
//! output follows the Chrome Trace Event format (the "JSON Array with
//! metadata" flavor) and opens directly in chrome://tracing or Perfetto.

// See hist.rs: shimmed under `--cfg modelcheck` (the registry's enabled
// flag is shared with metric handles, so the types must agree).
#[cfg(modelcheck)]
use papyrus_modelcheck::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(not(modelcheck))]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use papyrus_simtime::SimNs;

use parking_lot::Mutex;

use crate::json::quote;

/// Default per-timeline event capacity.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// What kind of trace event this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span with a duration (`ph: "X"`).
    Complete {
        /// Span duration in virtual ns.
        dur: SimNs,
    },
    /// A point-in-time marker (`ph: "i"`).
    Instant,
}

/// One recorded event on a timeline.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Event name (e.g. `"flush"`).
    pub name: &'static str,
    /// Category (e.g. `"core"`, `"mpi"`, `"nvm"`).
    pub cat: &'static str,
    /// Trace pid this event belongs to (rank, or NVM store timeline).
    pub pid: u32,
    /// Trace tid within the pid (e.g. app/compact/dispatch/handler thread).
    pub tid: u32,
    /// Start timestamp in virtual ns.
    pub ts: SimNs,
    /// Kind (complete span or instant).
    pub kind: EventKind,
}

struct RecorderInner {
    enabled: Arc<AtomicBool>,
    pid: u32,
    events: Mutex<Vec<SpanEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

/// Shareable handle to one timeline's bounded event buffer.
#[derive(Clone)]
pub struct SpanRecorder {
    inner: Arc<RecorderInner>,
}

impl SpanRecorder {
    pub(crate) fn with_flag(enabled: Arc<AtomicBool>, pid: u32, capacity: usize) -> Self {
        Self {
            inner: Arc::new(RecorderInner {
                enabled,
                pid,
                events: Mutex::new(Vec::new()),
                capacity,
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Standalone always-enabled recorder for timeline `pid`.
    pub fn new(pid: u32) -> Self {
        Self::with_flag(Arc::new(AtomicBool::new(true)), pid, DEFAULT_SPAN_CAPACITY)
    }

    /// The trace pid of this timeline.
    pub fn pid(&self) -> u32 {
        self.inner.pid
    }

    /// Record a complete span `[start, end]`. No-op when disabled.
    #[inline]
    pub fn span(&self, cat: &'static str, name: &'static str, tid: u32, start: SimNs, end: SimNs) {
        // ordering: enabled is a pure on/off latch; a stale read only
        // drops or keeps one extra event.
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.push(SpanEvent {
            name,
            cat,
            pid: self.inner.pid,
            tid,
            ts: start,
            kind: EventKind::Complete { dur: end.saturating_sub(start) },
        });
    }

    /// Record an instant marker at `ts`. No-op when disabled.
    #[inline]
    pub fn instant(&self, cat: &'static str, name: &'static str, tid: u32, ts: SimNs) {
        // ordering: enabled latch, as above.
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.push(SpanEvent { name, cat, pid: self.inner.pid, tid, ts, kind: EventKind::Instant });
    }

    fn push(&self, ev: SpanEvent) {
        let mut g = self.inner.events.lock();
        if g.len() >= self.inner.capacity {
            drop(g);
            // ordering: overflow tally; a stat cell publishing nothing.
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        g.push(ev);
    }

    /// Events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        // ordering: display read of the overflow tally.
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.events.lock().len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out the buffered events.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        self.inner.events.lock().clone()
    }

    /// Clear the buffer and drop counter.
    pub fn reset(&self) {
        self.inner.events.lock().clear();
        // ordering: reset is non-linearizable vs concurrent recorders by
        // contract; callers quiesce first.
        self.inner.dropped.store(0, Ordering::Relaxed);
    }
}

/// Serialize events (plus pid/tid name metadata) to a Chrome Trace Event
/// JSON string. `pids` maps trace pid → display name; `tids` maps
/// `(pid, tid)` → thread display name. Events must already be sorted by
/// `(pid, ts)`; timestamps are converted from virtual ns to trace µs.
///
/// Non-zero `counters` (`(pid, name, value)`) become `ph:"C"` counter
/// tracks: a zero sample at t=0 and the final value at the trace end, so
/// viewers render a step instead of an invisible point sample.
pub fn to_chrome_trace(
    events: &[SpanEvent],
    pids: &[(u32, String)],
    tids: &[(u32, u32, String)],
    counters: &[(u32, String, u64)],
    dropped_total: u64,
) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 1024);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (pid, name) in pids {
        push_meta(&mut out, &mut first, "process_name", *pid, None, name);
    }
    for (pid, tid, name) in tids {
        push_meta(&mut out, &mut first, "thread_name", *pid, Some(*tid), name);
    }
    let end_ts_us = events
        .iter()
        .map(|ev| match ev.kind {
            EventKind::Complete { dur } => ev.ts + dur,
            EventKind::Instant => ev.ts,
        })
        .max()
        .unwrap_or(0) as f64
        / 1_000.0;
    for (pid, name, value) in counters.iter().filter(|(_, _, v)| *v != 0) {
        for (ts, v) in [(0.0, 0u64), (end_ts_us, *value)] {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"args\":{{\"value\":{v}}}}}",
                quote(name)
            ));
        }
    }
    for ev in events {
        if !first {
            out.push(',');
        }
        first = false;
        let ts_us = ev.ts as f64 / 1_000.0;
        match ev.kind {
            EventKind::Complete { dur } => {
                let dur_us = dur as f64 / 1_000.0;
                out.push_str(&format!(
                    "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{ts_us},\"dur\":{dur_us},\"pid\":{},\"tid\":{}}}",
                    quote(ev.name),
                    quote(ev.cat),
                    ev.pid,
                    ev.tid
                ));
            }
            EventKind::Instant => {
                out.push_str(&format!(
                    "{{\"name\":{},\"cat\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us},\"pid\":{},\"tid\":{}}}",
                    quote(ev.name),
                    quote(ev.cat),
                    ev.pid,
                    ev.tid
                ));
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"virtual-SimNs\",\"droppedEvents\":");
    out.push_str(&dropped_total.to_string());
    out.push_str("}}");
    out
}

fn push_meta(
    out: &mut String,
    first: &mut bool,
    kind: &str,
    pid: u32,
    tid: Option<u32>,
    name: &str,
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let tid = tid.unwrap_or(0);
    out.push_str(&format!(
        "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
        quote(name)
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_is_bounded_and_counts_drops() {
        let rec = SpanRecorder::with_flag(Arc::new(AtomicBool::new(true)), 0, 4);
        for i in 0..10u64 {
            rec.span("t", "s", 0, i, i + 1);
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        rec.reset();
        assert_eq!(rec.len(), 0);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn span_records_duration() {
        let rec = SpanRecorder::new(3);
        rec.span("core", "flush", 1, 100, 350);
        let evs = rec.snapshot();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].pid, 3);
        assert_eq!(evs[0].tid, 1);
        assert_eq!(evs[0].ts, 100);
        assert_eq!(evs[0].kind, EventKind::Complete { dur: 250 });
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let flag = Arc::new(AtomicBool::new(false));
        let rec = SpanRecorder::with_flag(flag.clone(), 0, 16);
        rec.span("t", "s", 0, 0, 10);
        rec.instant("t", "i", 0, 5);
        assert!(rec.is_empty());
        // ordering: single-threaded test, no visibility at stake.
        flag.store(true, Ordering::Relaxed);
        rec.span("t", "s", 0, 0, 10);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn counters_become_counter_tracks() {
        let rec = SpanRecorder::new(0);
        rec.span("core", "flush", 1, 1_000, 3_000);
        let counters = vec![(0u32, "repl.forwards".to_string(), 7u64), (0, "zero".to_string(), 0)];
        let trace = to_chrome_trace(&rec.snapshot(), &[], &[], &counters, 0);
        // Two samples: a zero at t=0 and the final value at the trace end.
        assert_eq!(trace.matches("\"ph\":\"C\"").count(), 2);
        assert!(trace.contains("\"name\":\"repl.forwards\""));
        assert!(trace.contains("{\"value\":7}"));
        // Zero-valued counters are omitted entirely.
        assert!(!trace.contains("\"name\":\"zero\""));
    }
}
