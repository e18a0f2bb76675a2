//! Throughput accounting helpers used by the benchmark harnesses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::{SimNs, MIB, SEC};

/// Kilo-requests-per-second for `ops` operations over `ns` virtual ns — the
/// KRPS metric the paper reports for small values.
pub fn krps(ops: u64, ns: SimNs) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    (ops as f64 * SEC as f64 / ns as f64) / 1_000.0
}

/// Megabytes-per-second for `bytes` over `ns` virtual ns — the MBPS metric
/// the paper reports for large values.
pub fn mbps(bytes: u64, ns: SimNs) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    bytes as f64 / MIB as f64 * SEC as f64 / ns as f64
}

/// Operation counters shared by a rank's tasks, the application's and the
/// runtime's. Each counter is a monotone accumulator.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    inner: Arc<OpStatsInner>,
}

#[derive(Debug, Default)]
struct OpStatsInner {
    ops: AtomicU64,
    bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl OpStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one operation moving `bytes`.
    #[inline]
    pub fn record(&self, bytes: u64) {
        // ordering: stat cells — atomic on their own, publishing nothing;
        // readers are display paths that tolerate tearing between cells.
        self.inner.ops.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a cache/bloom hit.
    #[inline]
    pub fn hit(&self) {
        // ordering: stat cell, see record().
        self.inner.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a cache/bloom miss.
    #[inline]
    pub fn miss(&self) {
        // ordering: stat cell, see record().
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Total operations recorded.
    pub fn ops(&self) -> u64 {
        // ordering: display read; quiescent totals are ordered by joins.
        self.inner.ops.load(Ordering::Relaxed)
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        // ordering: display read; quiescent totals are ordered by joins.
        self.inner.bytes.load(Ordering::Relaxed)
    }

    /// Total hits recorded.
    pub fn hits(&self) -> u64 {
        // ordering: display read; quiescent totals are ordered by joins.
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Total misses recorded.
    pub fn misses(&self) -> u64 {
        // ordering: display read; quiescent totals are ordered by joins.
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Hit ratio in `[0, 1]`; 0 when nothing recorded.
    pub fn hit_ratio(&self) -> f64 {
        let h = self.hits();
        let m = self.misses();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Point-in-time copy of all counters. Individual loads are relaxed, so
    /// under concurrent recording the fields are each individually accurate
    /// but not a single atomic cut — fine for reporting.
    pub fn snapshot(&self) -> OpStatsSnapshot {
        OpStatsSnapshot {
            ops: self.ops(),
            bytes: self.bytes(),
            hits: self.hits(),
            misses: self.misses(),
        }
    }

    /// Counters accumulated since `prev` was taken (interval accounting for
    /// phase-by-phase benchmark reporting). Saturates rather than wrapping
    /// if `prev` is newer than `self`.
    pub fn delta(&self, prev: &OpStatsSnapshot) -> OpStatsSnapshot {
        let cur = self.snapshot();
        OpStatsSnapshot {
            ops: cur.ops.saturating_sub(prev.ops),
            bytes: cur.bytes.saturating_sub(prev.bytes),
            hits: cur.hits.saturating_sub(prev.hits),
            misses: cur.misses.saturating_sub(prev.misses),
        }
    }

    /// Zero all counters (shared across every clone of this handle).
    pub fn reset(&self) {
        // ordering: reset is non-linearizable vs concurrent recorders by
        // contract; callers quiesce first.
        self.inner.ops.store(0, Ordering::Relaxed);
        self.inner.bytes.store(0, Ordering::Relaxed);
        self.inner.hits.store(0, Ordering::Relaxed);
        self.inner.misses.store(0, Ordering::Relaxed);
    }
}

/// An owned copy of [`OpStats`] counters at one instant; also the result
/// type of [`OpStats::delta`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStatsSnapshot {
    /// Operations recorded.
    pub ops: u64,
    /// Bytes recorded.
    pub bytes: u64,
    /// Cache/bloom hits recorded.
    pub hits: u64,
    /// Cache/bloom misses recorded.
    pub misses: u64,
}

impl OpStatsSnapshot {
    /// Hit ratio in `[0, 1]`; 0 when nothing recorded.
    pub fn hit_ratio(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn krps_basic() {
        // 1000 ops in 1 second = 1 KRPS.
        assert!((krps(1000, SEC) - 1.0).abs() < 1e-9);
        assert_eq!(krps(1000, 0), 0.0);
    }

    #[test]
    fn mbps_basic() {
        assert!((mbps(MIB, SEC) - 1.0).abs() < 1e-9);
        assert_eq!(mbps(MIB, 0), 0.0);
    }

    #[test]
    fn opstats_accumulate() {
        let s = OpStats::new();
        s.record(10);
        s.record(20);
        assert_eq!(s.ops(), 2);
        assert_eq!(s.bytes(), 30);
    }

    #[test]
    fn opstats_shared_across_clones() {
        let s = OpStats::new();
        let s2 = s.clone();
        s.record(5);
        assert_eq!(s2.ops(), 1);
    }

    #[test]
    fn hit_ratio() {
        let s = OpStats::new();
        assert_eq!(s.hit_ratio(), 0.0);
        s.hit();
        s.hit();
        s.miss();
        assert!((s.hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_delta_reset() {
        let s = OpStats::new();
        s.record(10);
        s.hit();
        let first = s.snapshot();
        assert_eq!(first, OpStatsSnapshot { ops: 1, bytes: 10, hits: 1, misses: 0 });
        s.record(20);
        s.miss();
        let d = s.delta(&first);
        assert_eq!(d, OpStatsSnapshot { ops: 1, bytes: 20, hits: 0, misses: 1 });
        assert_eq!(d.hit_ratio(), 0.0);
        s.reset();
        assert_eq!(s.snapshot(), OpStatsSnapshot::default());
        // A stale (pre-reset) snapshot saturates instead of wrapping.
        assert_eq!(s.delta(&first), OpStatsSnapshot::default());
    }
}
