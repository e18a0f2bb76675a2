//! Per-rank telemetry handles for the KV engine.
//!
//! One [`CoreTel`] is created per opened database and caches interned
//! handles from its world's [`Registry`] (reached through the rank's
//! fabric), so the hot paths never take the registry lock. Handles are
//! keyed by rank only — multiple databases opened by the same rank
//! aggregate into the same metrics, which matches how the paper reports
//! per-rank numbers.
//!
//! Span placement: per-operation put/get work is captured in histograms
//! only (spans would swamp the bounded buffer); the long-running engine
//! activities — flush, merge compaction, migration, handler ingest/serve,
//! fence/barrier waits — get real spans on the rank's timeline, on the tid
//! lane of the task that performs them.

use std::sync::Arc;

use papyrus_telemetry::{Counter, Histogram, Registry, SpanRecorder};

pub(crate) struct CoreTel {
    reg: Arc<Registry>,
    pub put_local: Counter,
    pub put_remote: Counter,
    pub put_sync: Counter,
    pub get_local: Counter,
    pub get_remote: Counter,
    pub freeze_local: Counter,
    pub freeze_remote: Counter,
    /// Times a freeze had to block on a full flush/migration queue (the
    /// paper's DRAM→NVM backpressure); such a wait has no virtual
    /// duration of its own, so it is counted rather than timed.
    pub freeze_stall: Counter,
    pub flush_count: Counter,
    pub compact_count: Counter,
    pub migrate_count: Counter,
    pub ingest_records: Counter,
    pub serve_gets: Counter,
    /// SSTable probes skipped because the bloom filter said "definitely
    /// absent". Deliberately NOT folded into `OpStats` hit/miss — those
    /// counters mean *cache* hits and feed the ablation harness's hit-ratio.
    pub bloom_neg: Counter,
    /// SSTable probes that passed the bloom filter (maybe-present).
    pub bloom_pass: Counter,
    /// Remote RPC attempts re-sent after a timeout (fault plane on).
    pub rpc_retries: Counter,
    /// Remote RPC receive deadlines that expired (fault plane on).
    pub rpc_timeouts: Counter,
    /// Replica batches forwarded to successor ranks (R >= 2).
    pub repl_forwards: Counter,
    /// Remote gets served from a replica after the owner was confirmed dead.
    pub repl_failovers: Counter,
    /// Promotion claims won: this rank became primary for a dead rank's
    /// ranges.
    pub repl_promotions: Counter,
    /// Bytes copied to new successors by background re-replication.
    pub repl_rereplicated_bytes: Counter,
    pub put_ns: Histogram,
    pub get_local_ns: Histogram,
    pub get_remote_ns: Histogram,
    pub flush_ns: Histogram,
    pub compact_ns: Histogram,
    pub migrate_ns: Histogram,
    pub fence_wait_ns: Histogram,
    pub barrier_wait_ns: Histogram,
    /// Virtual backoff delay charged before each RPC retry.
    pub backoff_ns: Histogram,
    /// Ack-to-replica-durable lag: virtual time from a replica batch's
    /// dispatch stamp to its ingest-complete (ack) stamp on the successor.
    pub repl_lag_ns: Histogram,
    pub rec: SpanRecorder,
}

impl CoreTel {
    pub fn new(reg: &Arc<Registry>, rank: usize) -> Self {
        let pid = rank as u32;
        Self {
            reg: reg.clone(),
            put_local: reg.counter(pid, "kv.put.local"),
            put_remote: reg.counter(pid, "kv.put.remote"),
            put_sync: reg.counter(pid, "kv.put.sync"),
            get_local: reg.counter(pid, "kv.get.local"),
            get_remote: reg.counter(pid, "kv.get.remote"),
            freeze_local: reg.counter(pid, "kv.freeze.local"),
            freeze_remote: reg.counter(pid, "kv.freeze.remote"),
            freeze_stall: reg.counter(pid, "kv.freeze.stall"),
            flush_count: reg.counter(pid, "kv.flush.count"),
            compact_count: reg.counter(pid, "kv.compact.count"),
            migrate_count: reg.counter(pid, "kv.migrate.count"),
            ingest_records: reg.counter(pid, "kv.ingest.records"),
            serve_gets: reg.counter(pid, "kv.serve_get.count"),
            bloom_neg: reg.counter(pid, "kv.bloom.neg"),
            bloom_pass: reg.counter(pid, "kv.bloom.pass"),
            rpc_retries: reg.counter(pid, "rpc_retries"),
            rpc_timeouts: reg.counter(pid, "rpc_timeouts"),
            repl_forwards: reg.counter(pid, "repl.forwards"),
            repl_failovers: reg.counter(pid, "repl.failovers"),
            repl_promotions: reg.counter(pid, "repl.promotions"),
            repl_rereplicated_bytes: reg.counter(pid, "repl.rereplicated.bytes"),
            put_ns: reg.histogram(pid, "kv.put.ns"),
            get_local_ns: reg.histogram(pid, "kv.get.local.ns"),
            get_remote_ns: reg.histogram(pid, "kv.get.remote.ns"),
            flush_ns: reg.histogram(pid, "kv.flush.ns"),
            compact_ns: reg.histogram(pid, "kv.compact.ns"),
            migrate_ns: reg.histogram(pid, "kv.migrate.ns"),
            fence_wait_ns: reg.histogram(pid, "kv.fence.wait.ns"),
            barrier_wait_ns: reg.histogram(pid, "kv.barrier.wait.ns"),
            backoff_ns: reg.histogram(pid, "rpc.backoff.ns"),
            repl_lag_ns: reg.histogram(pid, "repl.lag.ns"),
            rec: reg.recorder_for_rank(rank),
        }
    }

    /// Whether recording is live (one relaxed load; callers guard blocks of
    /// telemetry work with this to skip even the handle-level checks).
    #[inline]
    pub fn on(&self) -> bool {
        self.reg.enabled()
    }
}
