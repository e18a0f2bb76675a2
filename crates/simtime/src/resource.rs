//! Busy-until serialising resources (devices, NICs).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::SimNs;

/// A shared resource that serialises modelled work.
///
/// Submitting work of duration `d` at virtual time `t` schedules it to start
/// at `max(busy_until, t)` and returns its completion time, updating
/// `busy_until`. Multiple clients submitting concurrently therefore queue
/// behind each other — this single mechanism models storage-device
/// queueing, NIC serialisation, and the all-to-all congestion that makes a
/// relaxed-mode barrier slower than incremental synchronous puts in the
/// paper's Figure 7.
///
/// **Bounded-overlap approximation.** A world runs one task at a time, but
/// the task holding the baton runs on until its next park point, so
/// submissions reach a resource in program order, not virtual-time order:
/// a rank whose clock runs ahead must not drag everyone else's small
/// operations behind its frontier (that would serialise the whole job in
/// virtual time). A request of duration `d` can therefore observe at most
/// [`MAX_OVERLAP`]` × d + `[`QUEUE_SLACK`] of queueing delay — enough to
/// capture `MAX_OVERLAP`-way genuine contention (device queueing inside a
/// storage group, barrier incast), while capping spurious cross-epoch
/// coupling at nanoseconds for small operations. The cap binds rarely: on
/// kvbench (seed 1, 8 s) it clamps `ingest` 80 times (365.5 of ≈ 1011
/// virtual ms), `cache_read` 30 and `sst_read` 40 times in set-up, and the
/// other workloads never.
///
/// `Resource` is `Clone` (shared handle) and lock-free (a CAS loop).
#[derive(Debug, Clone, Default)]
pub struct Resource {
    busy_until: Arc<AtomicU64>,
}

/// Maximum number of competing same-size requests a request can queue
/// behind (see [`Resource`] docs).
pub const MAX_OVERLAP: u64 = 64;

/// Constant queueing slack added to the overlap bound (ns).
pub const QUEUE_SLACK: SimNs = 500;

impl Resource {
    /// Create an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `a` and `b` are handles on one resource (clones of each
    /// other).
    pub fn ptr_eq(a: &Resource, b: &Resource) -> bool {
        Arc::ptr_eq(&a.busy_until, &b.busy_until)
    }

    /// Time at which all currently submitted work completes.
    #[inline]
    pub fn busy_until(&self) -> SimNs {
        self.busy_until.load(Ordering::Acquire)
    }

    /// Submit work of duration `dur` arriving at time `now`.
    ///
    /// Returns the completion timestamp. The caller decides whether the
    /// submitter blocks until completion (synchronous I/O: merge the stamp
    /// into the rank clock) or proceeds (background flush: remember the stamp
    /// and reconcile at the next fence/barrier). Queueing delay is capped by
    /// the bounded-overlap rule (see the type docs).
    pub fn submit(&self, now: SimNs, dur: SimNs) -> SimNs {
        self.submit_shared(now, dur, 1)
    }

    /// Submit work to a resource with internal parallelism (an NVMe device
    /// servicing multiple queue pairs): the submission *occupies* the
    /// resource for only `dur / parallelism` (throughput), while the caller
    /// still waits the full `dur` after its start slot (latency).
    ///
    /// Returns the caller-visible completion stamp.
    pub fn submit_shared(&self, now: SimNs, dur: SimNs, parallelism: u32) -> SimNs {
        let k = parallelism.max(1) as u64;
        self.submit_with_occupancy(now, dur, dur / k)
    }

    /// Submit work with an explicit occupancy: the caller experiences `dur`
    /// of latency, the resource is held for `occupancy` (e.g. an RDMA NIC
    /// pipelines the wire latency but is occupied for the transfer time).
    pub fn submit_with_occupancy(&self, now: SimNs, dur: SimNs, occupancy: SimNs) -> SimNs {
        // ordering: optimistic first read of a CAS retry loop; any stale
        // value is corrected by the compare_exchange below.
        let mut cur = self.busy_until.load(Ordering::Relaxed);
        loop {
            let (start, busy) = slot(cur, now, occupancy);
            match self.busy_until.compare_exchange_weak(
                cur,
                busy,
                Ordering::AcqRel,
                // ordering: failure path only refreshes `cur` for the next
                // CAS attempt; no data is read through it.
                Ordering::Relaxed,
            ) {
                Ok(_) => return start.saturating_add(dur),
                Err(observed) => cur = observed,
            }
        }
    }

    /// [`Resource::submit_shared`] for a resource that one client submits
    /// to at a time — a world's fabric, whose tasks run one at a time — so
    /// the update needs no read-modify-write: the same stamps for a plain
    /// load and store. Two clients submitting at once could lose one's
    /// occupancy.
    pub fn submit_shared_alone(&self, now: SimNs, dur: SimNs, parallelism: u32) -> SimNs {
        let occupancy = dur / parallelism.max(1) as u64;
        // ordering: the one client at a time is handed the resource by a
        // synchronising hand-off, which orders its load after the last store.
        let (start, busy) = slot(self.busy_until.load(Ordering::Relaxed), now, occupancy);
        // ordering: as above.
        self.busy_until.store(busy, Ordering::Relaxed);
        start.saturating_add(dur)
    }

    /// Reset to idle at time zero. Used when a simulated "job" ends and the
    /// same process reuses the world (e.g. coupled-application workflows).
    pub fn reset(&self) {
        self.busy_until.store(0, Ordering::Release);
    }
}

/// Where work occupying a resource for `occupancy` from `now` starts, and
/// the resource's new `busy_until`, given its current one `cur`.
fn slot(cur: SimNs, now: SimNs, occupancy: SimNs) -> (SimNs, SimNs) {
    // Bounded overlap: a request queues behind at most MAX_OVERLAP
    // competitors' *occupancies* (+slack). Occupancy is the
    // contention-relevant quantity — latency-dominated operations (small
    // messages, RDMA) occupy almost nothing and thus cannot pile up, while
    // bandwidth-dominated ones (flushes, incast transfers) queue for real.
    // This also stops out-of-order submissions from a rank running ahead
    // chaining the whole job onto one timeline.
    let latest_start =
        now.saturating_add(occupancy.saturating_mul(MAX_OVERLAP)).saturating_add(QUEUE_SLACK);
    let start = cur.max(now).min(latest_start);
    (start, cur.max(start.saturating_add(occupancy)))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "the test races OS threads outside any world")]
mod tests {
    use super::*;

    /// A resource one client submits to at a time gives the stamps of the
    /// shared one, queueing and the overlap cap included.
    #[test]
    fn a_resource_alone_stamps_as_a_shared_one() {
        let (shared, alone) = (Resource::new(), Resource::new());
        let work = [
            (0, 100, 1),
            (10, 100, 1),
            (5, 1_000, 4),
            (5_000, 10, 2),
            (0, 50_000, 1),
            (100, 10, 1),
        ];
        for (now, dur, parallelism) in work {
            assert_eq!(
                shared.submit_shared(now, dur, parallelism),
                alone.submit_shared_alone(now, dur, parallelism),
                "submitted at {now} for {dur} over {parallelism}"
            );
            assert_eq!(shared.busy_until(), alone.busy_until());
        }
    }
    use std::thread;

    #[test]
    fn idle_resource_starts_at_arrival() {
        let r = Resource::new();
        assert_eq!(r.submit(100, 50), 150);
    }

    #[test]
    fn busy_resource_queues() {
        let r = Resource::new();
        assert_eq!(r.submit(0, 100), 100);
        // Arrives at t=10 but device busy until 100 -> completes at 200.
        assert_eq!(r.submit(10, 100), 200);
    }

    #[test]
    fn late_arrival_creates_idle_gap() {
        let r = Resource::new();
        r.submit(0, 10);
        // Device idle from 10..500; work arriving at 500 starts then.
        assert_eq!(r.submit(500, 10), 510);
    }

    #[test]
    fn zero_duration_still_orders() {
        let r = Resource::new();
        r.submit(0, 100);
        assert_eq!(r.submit(0, 0), 100);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let r = Resource::new();
        assert_eq!(r.submit(u64::MAX - 1, 100), u64::MAX);
    }

    #[test]
    fn reset_clears() {
        let r = Resource::new();
        r.submit(0, 1000);
        r.reset();
        assert_eq!(r.busy_until(), 0);
    }

    #[test]
    fn concurrent_submissions_serialise() {
        // 64 jobs of duration 1000 stay within the overlap bound, so they
        // must serialise losslessly.
        let r = Resource::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = r.clone();
                thread::spawn(move || {
                    for _ in 0..8 {
                        r.submit(0, 1000);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.busy_until(), 64_000);
    }

    #[test]
    fn queueing_delay_is_bounded_by_overlap_rule() {
        let r = Resource::new();
        // Push the frontier far ahead with one big job.
        r.submit(0, 10_000_000);
        // A tiny job submitted "in the past" must not inherit the frontier:
        // its delay is capped at MAX_OVERLAP * dur + QUEUE_SLACK.
        let done = r.submit(100, 10);
        assert!(done <= 100 + MAX_OVERLAP * 10 + QUEUE_SLACK + 10, "done={done}");
        // And the frontier itself must not regress.
        assert!(r.busy_until() >= 10_000_000);
    }
}
