//! Lock-free named counters and gauges.
//!
//! Handles are cheap `Arc` clones created once (at subsystem construction
//! time) through the [`crate::Registry`]; the hot path is a single relaxed
//! atomic check plus one relaxed RMW.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

struct CounterInner {
    enabled: Arc<AtomicBool>,
    value: AtomicU64,
}

/// Monotonically increasing counter.
#[derive(Clone)]
pub struct Counter {
    inner: Arc<CounterInner>,
}

impl Counter {
    pub(crate) fn with_flag(enabled: Arc<AtomicBool>) -> Self {
        Self { inner: Arc::new(CounterInner { enabled, value: AtomicU64::new(0) }) }
    }

    /// Increment by one. No-op when disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`. No-op when disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: the enabled latch guards no data (stale read = one
        // late/early event), and the value is a stat cell — atomic on its
        // own, publishing nothing. See hist.rs record() for the long form.
        if self.inner.enabled.load(Ordering::Relaxed) {
            self.inner.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: display read; quiescent readers are ordered by joins.
        self.inner.value.load(Ordering::Relaxed)
    }

    /// Zero the counter.
    pub fn reset(&self) {
        // ordering: reset is non-linearizable vs concurrent increments by
        // contract; callers quiesce first.
        self.inner.value.store(0, Ordering::Relaxed);
    }
}

struct GaugeInner {
    enabled: Arc<AtomicBool>,
    value: AtomicI64,
}

/// Signed instantaneous value (e.g. queue depth).
#[derive(Clone)]
pub struct Gauge {
    inner: Arc<GaugeInner>,
}

impl Gauge {
    pub(crate) fn with_flag(enabled: Arc<AtomicBool>) -> Self {
        Self { inner: Arc::new(GaugeInner { enabled, value: AtomicI64::new(0) }) }
    }

    /// Overwrite the value. No-op when disabled.
    #[inline]
    pub fn set(&self, v: i64) {
        // ordering: same stat-cell argument as Counter::add.
        if self.inner.enabled.load(Ordering::Relaxed) {
            self.inner.value.store(v, Ordering::Relaxed);
        }
    }

    /// Add `n` (may be negative via [`Gauge::sub`]). No-op when disabled.
    #[inline]
    pub fn add(&self, n: i64) {
        // ordering: same stat-cell argument as Counter::add.
        if self.inner.enabled.load(Ordering::Relaxed) {
            self.inner.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtract `n`. No-op when disabled.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        // ordering: display read; quiescent readers are ordered by joins.
        self.inner.value.load(Ordering::Relaxed)
    }

    /// Zero the gauge.
    pub fn reset(&self) {
        // ordering: reset is non-linearizable vs concurrent updates by
        // contract; callers quiesce first.
        self.inner.value.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_respects_flag() {
        let flag = Arc::new(AtomicBool::new(true));
        let c = Counter::with_flag(flag.clone());
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // ordering: single-threaded test, no visibility at stake.
        flag.store(false, Ordering::Relaxed);
        c.inc();
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::with_flag(Arc::new(AtomicBool::new(true)));
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }
}
