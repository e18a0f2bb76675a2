//! Per-rank telemetry handles for the serve plane.
//!
//! One [`ServeTel`] is created per serving window and caches interned
//! handles from its world's [`Registry`] (same pattern as the engine's
//! `CoreTel`), so the request path never takes the registry lock. The pid lane is the rank, matching every other plane,
//! so Chrome-trace output shows serve counters alongside the engine's
//! flush/migration spans for the same rank.

use std::sync::Arc;

use papyrus_telemetry::{Counter, Histogram, Registry};

/// Interned serve-plane metric handles for one rank.
pub struct ServeTel {
    reg: Arc<Registry>,
    /// Connections opened on this rank.
    pub conns: Counter,
    /// Commands fully executed (including PING/INFO).
    pub cmds: Counter,
    /// Protocol/command errors replied with `-ERR`.
    pub errors: Counter,
    /// Poll visits that found readable bytes on a connection.
    pub polls: Counter,
    /// Sum of decoded-frames-per-poll-visit; with [`ServeTel::polls`]
    /// this gives the observed pipeline depth.
    pub pipeline_depth: Counter,
    /// Group-commit rounds that reached the store (at least one write).
    pub batch_count: Counter,
    /// Store writes folded across all group-commit rounds; mean batch
    /// size = `batch_size / batch_count`, and the acceptance gate demands
    /// it be > 1 under backlog.
    pub batch_size: Counter,
    /// Writes whose folded batch entry was overwritten by a later write
    /// to the same key in the same round (the fold actually coalescing).
    pub folded_dups: Counter,
    /// End-to-end request latency, arrival to ack (queueing included).
    pub req_ns: Histogram,
    /// Read-command slice of `serve.req.ns` (GET/MGET/EXISTS/RANGE).
    pub req_read_ns: Histogram,
    /// Write-command slice of `serve.req.ns` (SET/DEL/MSET) — acked only
    /// after the group-commit fence.
    pub req_write_ns: Histogram,
}

impl ServeTel {
    /// Intern this rank's serve-plane handles from its world's `reg`.
    pub fn new(reg: &Arc<Registry>, rank: usize) -> Self {
        let pid = rank as u32;
        Self {
            reg: reg.clone(),
            conns: reg.counter(pid, "serve.conns"),
            cmds: reg.counter(pid, "serve.cmds"),
            errors: reg.counter(pid, "serve.errors"),
            polls: reg.counter(pid, "serve.polls"),
            pipeline_depth: reg.counter(pid, "serve.pipeline.depth"),
            batch_count: reg.counter(pid, "serve.batch.count"),
            batch_size: reg.counter(pid, "serve.batch.size"),
            folded_dups: reg.counter(pid, "serve.folded.dups"),
            req_ns: reg.histogram(pid, "serve.req.ns"),
            req_read_ns: reg.histogram(pid, "serve.req.read.ns"),
            req_write_ns: reg.histogram(pid, "serve.req.write.ns"),
        }
    }

    /// Whether recording is live (one relaxed load; callers guard blocks
    /// of telemetry work with this to skip even the handle-level checks).
    #[inline]
    pub fn on(&self) -> bool {
        self.reg.enabled()
    }
}
