//! Per-rank virtual clocks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::SimNs;

/// A monotonically advancing virtual clock.
///
/// A `Clock` is owned by one simulated MPI rank but is shared (via `Arc`
/// internally, so `Clock` is `Clone`) with that rank's background tasks
/// (compaction, message dispatcher/handler). All operations are atomic;
/// `advance` is a fetch-add and `merge` a fetch-max, so concurrent use from
/// the owner and its helpers is safe.
///
/// Merging is how causality propagates: a message carries the sender's clock
/// at send time plus the modelled network delay, and the receiver merges that
/// stamp into its own clock on receipt.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: Arc<AtomicU64>,
}

impl Clock {
    /// Create a clock at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a clock starting at `t`.
    pub fn starting_at(t: SimNs) -> Self {
        Self { now: Arc::new(AtomicU64::new(t)) }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimNs {
        self.now.load(Ordering::Acquire)
    }

    /// Advance the clock by `dur` virtual ns, returning the new time.
    #[inline]
    pub fn advance(&self, dur: SimNs) -> SimNs {
        self.now.fetch_add(dur, Ordering::AcqRel) + dur
    }

    /// Merge an external timestamp: the clock becomes `max(now, t)`.
    /// Returns the (possibly unchanged) resulting time.
    #[inline]
    pub fn merge(&self, t: SimNs) -> SimNs {
        self.now.fetch_max(t, Ordering::AcqRel).max(t)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "the test races OS threads outside any world")]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn starts_at_zero() {
        assert_eq!(Clock::new().now(), 0);
    }

    #[test]
    fn starting_at_sets_origin() {
        assert_eq!(Clock::starting_at(42).now(), 42);
    }

    #[test]
    fn advance_accumulates() {
        let c = Clock::new();
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.advance(5), 15);
        assert_eq!(c.now(), 15);
    }

    #[test]
    fn merge_is_max() {
        let c = Clock::new();
        c.advance(100);
        assert_eq!(c.merge(50), 100); // older stamp ignored
        assert_eq!(c.merge(200), 200); // newer stamp adopted
        assert_eq!(c.now(), 200);
    }

    #[test]
    fn clone_shares_state() {
        let c = Clock::new();
        let c2 = c.clone();
        c.advance(7);
        assert_eq!(c2.now(), 7);
    }

    #[test]
    fn concurrent_advances_all_counted() {
        let c = Clock::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.now(), 8000);
    }

    #[test]
    fn concurrent_merges_monotonic() {
        let c = Clock::new();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let c = c.clone();
                thread::spawn(move || {
                    for j in 0..1000u64 {
                        c.merge(i * 1000 + j);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.now(), 7999);
    }
}
