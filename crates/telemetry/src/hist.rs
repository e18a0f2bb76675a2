//! Log-linear latency histogram over virtual nanoseconds.
//!
//! Values are bucketed by the position of their most significant bit (the
//! "major" bucket, one per power of two) subdivided into 16 linear
//! sub-buckets, giving a worst-case relative error of 1/16 (6.25%) on any
//! reported percentile while covering the full `u64` range in 976 buckets.
//! Recording is wait-free: one relaxed load on the enabled flag, then four
//! relaxed atomic RMWs (bucket, count, sum, max).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use papyrus_simtime::SimNs;

/// 16 direct buckets for values < 16, then 16 sub-buckets per power of two
/// for bit positions 4..=63.
pub(crate) const BUCKETS: usize = 16 + 60 * 16;

/// Map a value to its bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (msb - 4)) & 0xF) as usize;
        16 + (msb - 4) * 16 + sub
    }
}

/// Representative value for a bucket: the midpoint of its range, so
/// percentile readout error is at most half the bucket width.
fn bucket_value(i: usize) -> u64 {
    if i < 16 {
        i as u64
    } else {
        let b = i - 16;
        let msb = b / 16 + 4;
        let sub = (b % 16) as u64;
        let width = 1u64 << (msb - 4);
        let lower = (1u64 << msb) + sub * width;
        lower + width / 2
    }
}

struct HistogramInner {
    enabled: Arc<AtomicBool>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A shareable, lock-free histogram handle.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Standalone always-enabled histogram (not tied to a registry flag).
    pub fn new() -> Self {
        Self::with_flag(Arc::new(AtomicBool::new(true)))
    }

    pub(crate) fn with_flag(enabled: Arc<AtomicBool>) -> Self {
        let buckets = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            inner: Arc::new(HistogramInner {
                enabled,
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Record one value. No-op (single relaxed load) when disabled.
    #[inline]
    #[allow(clippy::indexing_slicing, reason = "bucket_index maps every u64 to a bucket")]
    pub fn record(&self, v: SimNs) {
        let h = &*self.inner;
        // ordering: the enabled flag is a pure on/off latch guarding no
        // data; a stale read only delays the flip by one event.
        if !h.enabled.load(Ordering::Relaxed) {
            return;
        }
        // ordering: wait-free stat cells. Each RMW is atomic on its own
        // cell and nothing is published through them; cross-cell agreement
        // is explicitly not promised (snapshot() may tear mid-record), so
        // atomicity is all that is required.
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        // ordering: monotone display counter; no data depends on it.
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Copy out the current state for percentile readout or merging.
    pub fn snapshot(&self) -> HistogramData {
        let h = &*self.inner;
        HistogramData {
            // ordering: racy-by-design reads of independently updated
            // cells; a snapshot taken mid-record may see count ahead of
            // sum. The consumers (percentile tables, the perf gate)
            // tolerate that skew, and the post-quiescence reads the tests
            // assert on are ordered by thread joins, not by the atomics.
            buckets: h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: h.count.load(Ordering::Relaxed),
            sum: h.sum.load(Ordering::Relaxed),
            max: h.max.load(Ordering::Relaxed),
        }
    }

    /// Accumulate another histogram's current contents into this one
    /// (bucket-wise adds). Merging is an explicit aggregation step — e.g.
    /// folding per-rank histograms into a job-wide one for the perf
    /// snapshot — so it applies even while recording is disabled.
    pub fn merge(&self, other: &Histogram) {
        self.merge_data(&other.snapshot());
    }

    /// Accumulate an owned snapshot into this histogram (see [`merge`]).
    ///
    /// [`merge`]: Histogram::merge
    pub fn merge_data(&self, other: &HistogramData) {
        let h = &*self.inner;
        for (b, &v) in h.buckets.iter().zip(&other.buckets) {
            if v != 0 {
                b.fetch_add(v, Ordering::Relaxed); // ordering: stat cell, see record()
            }
        }
        // ordering: same argument as record(): independent stat cells,
        // atomicity without publication.
        h.count.fetch_add(other.count, Ordering::Relaxed);
        h.sum.fetch_add(other.sum, Ordering::Relaxed);
        h.max.fetch_max(other.max, Ordering::Relaxed);
    }

    /// Zero all state.
    pub fn reset(&self) {
        let h = &*self.inner;
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed); // ordering: stat cell, see record()
        }
        // ordering: reset is documented as non-linearizable with respect
        // to concurrent recorders; callers quiesce first.
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        h.max.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// An owned point-in-time copy of a [`Histogram`]; supports percentile
/// readout and bucket-wise merging (e.g. aggregating across ranks).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramData {
    buckets: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (exact, not bucketed).
    pub max: u64,
}

impl HistogramData {
    /// Raw per-bucket counts (log-linear layout; see [`Histogram`]).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// An empty histogram (useful as a merge accumulator).
    pub fn empty() -> Self {
        Self { buckets: vec![0; BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Bucket-wise accumulate `other` into `self`.
    pub fn merge(&mut self, other: &HistogramData) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `q` in [0, 1]; 0 if empty. `q = 1` returns the
    /// exact max rather than a bucket midpoint.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Never report beyond the observed max (the top bucket's
                // midpoint can overshoot it).
                return bucket_value(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean (exact, from sum/count).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut probes: Vec<u64> = (0u32..64)
            .flat_map(|shift| {
                let base = 1u64 << shift;
                let width = 1u64 << shift.saturating_sub(4);
                (0..16u64).map(move |sub| base.saturating_add(sub.saturating_mul(width)))
            })
            .collect();
        probes.push(u64::MAX);
        probes.sort_unstable();
        let mut last = 0usize;
        for v in probes {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "v={v} i={i}");
            assert!(i >= last, "index not monotone at v={v}");
            last = i;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    /// Deterministic pseudo-random value stream (splitmix64) so the merge
    /// tests cover the full log-linear range without a rand dependency.
    fn stream(seed: u64, n: usize) -> impl Iterator<Item = u64> {
        let mut s = seed;
        (0..n).map(move |_| {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z = z ^ (z >> 31);
            // Spread across ~6 decades: 1ns .. ~4ms.
            1 + (z % (1 << (10 + (z >> 60) % 12)))
        })
    }

    #[test]
    fn merged_quantiles_equal_single_stream_recording() {
        // Record 4 disjoint per-rank streams into 4 histograms and the
        // union into one reference histogram: merging the four must yield
        // bit-identical buckets, hence *exactly* equal quantiles — the
        // bucketing is deterministic, so cross-rank aggregation loses
        // nothing beyond the bucket width already paid at record time.
        let reference = Histogram::new();
        let merged = Histogram::new();
        let parts: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        for (rank, part) in parts.iter().enumerate() {
            for v in stream(0xC0FFEE + rank as u64, 10_000) {
                part.record(v);
                reference.record(v);
            }
        }
        for part in &parts {
            merged.merge(part);
        }
        let (m, r) = (merged.snapshot(), reference.snapshot());
        assert_eq!(m, r, "merge must be exactly bucket-wise");
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(m.quantile(q), r.quantile(q), "q={q}");
        }
        assert_eq!(m.count, 40_000);
        assert!((m.mean() - r.mean()).abs() < 1e-9);
    }

    #[test]
    fn merge_quantile_error_stays_within_bucket_bound() {
        // Merged percentiles must stay within the 6.25% bucket bound of the
        // true (sorted-stream) percentiles: merging adds no extra error.
        let mut all: Vec<u64> = Vec::new();
        let merged = Histogram::new();
        for rank in 0..3 {
            let h = Histogram::new();
            for v in stream(42 + rank, 20_000) {
                h.record(v);
                all.push(v);
            }
            merged.merge(&h);
        }
        all.sort_unstable();
        let m = merged.snapshot();
        for q in [0.5, 0.95, 0.99] {
            let exact = all[((q * all.len() as f64).ceil() as usize - 1).min(all.len() - 1)];
            let got = m.quantile(q);
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(err <= 0.0625, "q={q} exact={exact} got={got} err={err}");
        }
    }

    #[test]
    fn merge_data_accumulates_and_respects_disabled_recording() {
        let src = Histogram::new();
        for v in [5u64, 500, 50_000] {
            src.record(v);
        }
        // A disabled histogram still accepts merges (aggregation is explicit).
        let dst = Histogram::with_flag(Arc::new(AtomicBool::new(false)));
        dst.record(7); // dropped: recording is off
        dst.merge_data(&src.snapshot());
        dst.merge(&src);
        let d = dst.snapshot();
        assert_eq!(d.count, 6);
        assert_eq!(d.sum, 2 * (5 + 500 + 50_000));
        assert_eq!(d.max, 50_000);
    }

    #[test]
    fn bucket_value_relative_error_bounded() {
        for v in [16u64, 100, 1_000, 123_456, 1 << 30, (1 << 40) + 12345] {
            let rep = bucket_value(bucket_index(v));
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err <= 0.0625, "v={v} rep={rep} err={err}");
        }
        for v in 0u64..16 {
            assert_eq!(bucket_value(bucket_index(v)), v, "small values are exact");
        }
    }
}
