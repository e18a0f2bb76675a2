//! In-memory spans for the traced run, written out as a Chrome trace when
//! the benchmark ends.
//!
//! A span is recorded at each boundary the benchmark can see from outside
//! the store: round → op (`get`, `put`, `fence`, `settle`, `serve_window`)
//! and probe group → probe. Each carries host and virtual start and end, its
//! own id, the id of the span that caused it, and the id of the op it
//! belongs to (spans of one op share it). Spans inside the crates are a
//! later change.

use std::fmt::Write as _;
use std::time::Instant;

/// Id of "no span" (a root's parent, or no op).
pub const NONE: u32 = 0;

/// One recorded span. Host times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub host_start: u64,
    pub host_end: u64,
    pub virt_start: u64,
    pub virt_end: u64,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end - self.host_start
    }

    pub fn virt_ns(&self) -> u64 {
        self.virt_end.saturating_sub(self.virt_start)
    }
}

/// Span buffer. Kept in memory; nothing is written until the run is over.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Host nanoseconds since the tracer's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The id the next recorded span gets (ids start at 1 and follow
    /// recording order, so a parent can hand its id to children that are
    /// recorded before it closes).
    pub fn reserve(&mut self) -> u32 {
        self.spans.push(Span {
            name: "",
            id: self.spans.len() as u32 + 1,
            parent: NONE,
            op: NONE,
            host_start: 0,
            host_end: 0,
            virt_start: 0,
            virt_end: 0,
        });
        self.spans.len() as u32
    }

    /// Fill in a reserved span.
    pub fn close(&mut self, id: u32, span: Span) {
        self.spans[id as usize - 1] = Span { id, ..span };
    }

    /// Record a finished span; returns its id.
    pub fn record(&mut self, span: Span) -> u32 {
        let id = self.reserve();
        self.close(id, span);
        id
    }
}

/// Self time of every span: its host duration minus the part of that
/// interval its direct children cover. Children of one parent are recorded
/// by one thread and never overlap each other, so the covered part is the
/// sum of their durations clipped to the parent. Returned in span order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent == NONE {
            continue;
        }
        let p = &spans[s.parent as usize - 1];
        let start = s.host_start.max(p.host_start);
        let end = s.host_end.min(p.host_end);
        covered[s.parent as usize - 1] += end.saturating_sub(start);
    }
    spans.iter().zip(covered).map(|(s, c)| s.host_ns().saturating_sub(c)).collect()
}

/// Op spans written per parent at most: a traced run records millions of
/// op spans, and a trace viewer needs the shape of a round, not every op.
pub const OPS_PER_PARENT_IN_TRACE: usize = 2000;

/// Chrome trace (`chrome://tracing`, Perfetto) of the spans: host time on
/// pid 1, the same spans on the virtual clock on pid 2. Every root span and
/// the first [`OPS_PER_PARENT_IN_TRACE`] children of each parent are
/// written.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str("{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"kvbench host time\"}},\n");
    out.push_str("{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"kvbench virtual time\"}}");
    let mut written = vec![0usize; spans.len() + 1];
    for s in spans {
        if s.parent != NONE {
            written[s.parent as usize] += 1;
            if written[s.parent as usize] > OPS_PER_PARENT_IN_TRACE {
                continue;
            }
        }
        let tid = if s.parent == NONE { 0 } else { 1 };
        for (pid, start, dur) in [(1, s.host_start, s.host_ns()), (2, s.virt_start, s.virt_ns())] {
            // Trace timestamps are microseconds; keep the nanoseconds as
            // decimals.
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{}\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                start / 1000,
                start % 1000,
                dur / 1000,
                dur % 1000,
                s.id,
                s.parent,
                s.op
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, host: (u64, u64)) -> Span {
        Span {
            name,
            id: 0,
            parent,
            op: NONE,
            host_start: host.0,
            host_end: host.1,
            virt_start: host.0 * 2,
            virt_end: host.1 * 2,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let round = t.reserve();
        let a = t.record(span("get", round, (10, 30)));
        let b = t.record(span("put", round, (40, 90)));
        t.close(round, span("round", NONE, (0, 100)));
        // A child reaching past its parent only counts for the part inside.
        let other = t.record(span("round", NONE, (200, 300)));
        t.record(span("get", other, (290, 320)));
        assert_eq!((round, a, b), (1, 2, 3));
        assert_eq!(self_times(&t.spans), vec![30, 20, 50, 90, 30]);
        assert_eq!(t.spans[0].name, "round");
        assert_eq!(t.spans[1].virt_ns(), 40);
    }

    #[test]
    fn trace_is_json_with_both_clocks_and_a_cap_on_children() {
        let mut t = Tracer::new();
        let round = t.reserve();
        for i in 0..(OPS_PER_PARENT_IN_TRACE as u64 + 50) {
            t.record(span("get", round, (i, i + 1)));
        }
        t.close(round, span("round", NONE, (0, 5000)));
        let text = chrome_trace(&t.spans);
        let doc = papyrus_telemetry::json::parse(&text).expect("valid json");
        let events = doc.get("traceEvents").expect("events").items();
        // 2 metadata + (1 round + capped ops) on each of the two clocks.
        assert_eq!(events.len(), 2 + 2 * (1 + OPS_PER_PARENT_IN_TRACE));
        assert!(text.contains("\"ts\":0.007,\"dur\":0.001"));
    }
}
