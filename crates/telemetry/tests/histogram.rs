//! Histogram integration tests: bucket boundaries, percentile accuracy
//! against an exact sorted reference, and concurrent recording.

use std::sync::Arc;
use std::thread;

use papyrus_telemetry::{Histogram, HistogramData};

/// Worst-case relative error of the log-linear bucketing: 16 linear
/// sub-buckets per power of two = width/value ≤ 1/16, plus the midpoint
/// readout halves it; 6.25% is the conservative bound.
const REL_ERR: f64 = 0.0625;

fn assert_close(approx: u64, exact: u64, what: &str) {
    if exact == 0 {
        assert_eq!(approx, 0, "{what}: expected exactly 0, got {approx}");
        return;
    }
    let err = (approx as f64 - exact as f64).abs() / exact as f64;
    assert!(
        err <= REL_ERR,
        "{what}: approx {approx} vs exact {exact} (rel err {err:.4} > {REL_ERR})"
    );
}

/// Exact percentile on a sorted slice, matching the histogram's
/// "smallest value with ceil(q*count) observations at or below it" rule.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let target = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[target - 1]
}

#[test]
fn small_values_are_exact() {
    // Values below 16 land in dedicated unit buckets — no rounding at all.
    let h = Histogram::new();
    for v in 0..16u64 {
        for _ in 0..=v {
            h.record(v);
        }
    }
    let d = h.snapshot();
    assert_eq!(d.count, (1..=16).sum::<u64>());
    assert_eq!(d.max, 15);
    assert_eq!(d.quantile(1.0), 15);
}

#[test]
fn bucket_boundaries_respect_error_bound() {
    // Probe around every power-of-two boundary: one below, at, and above.
    let h = Histogram::new();
    let mut probes = Vec::new();
    for shift in 4u32..63 {
        let base = 1u64 << shift;
        for v in [base - 1, base, base + 1, base + base / 2] {
            probes.push(v);
            h.record(v);
        }
    }
    probes.sort_unstable();
    let d = h.snapshot();
    assert_eq!(d.count, probes.len() as u64);
    // Every percentile readout stays within the bucketing error of the
    // exact order statistic.
    for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99] {
        assert_close(d.quantile(q), exact_quantile(&probes, q), "boundary sweep");
    }
    assert_eq!(d.max, *probes.last().unwrap());
}

#[test]
fn percentiles_match_sorted_reference() {
    // Deterministic pseudo-random mixture spanning ns..seconds magnitudes,
    // the range real virtual-latency samples cover.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let h = Histogram::new();
    let mut values = Vec::with_capacity(10_000);
    for i in 0..10_000u64 {
        // Mix magnitudes: 1..2^k for rotating k, plus occasional outliers.
        let k = 4 + (i % 40);
        let v = (next() % (1u64 << k)).max(1);
        values.push(v);
        h.record(v);
    }
    values.sort_unstable();
    let d = h.snapshot();
    assert_eq!(d.count, 10_000);
    for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
        assert_close(d.quantile(q), exact_quantile(&values, q), "random mixture");
    }
    assert_eq!(d.quantile(1.0), *values.last().unwrap());
    // Mean error is bounded by the same relative error (sum is exact).
    let exact_mean = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
    assert!((d.mean() - exact_mean).abs() / exact_mean < 1e-9, "sum is tracked exactly");
}

#[test]
#[allow(clippy::disallowed_methods, reason = "the test races OS threads outside any world")]
fn concurrent_recording_loses_nothing() {
    const THREADS: usize = 6;
    const PER_THREAD: u64 = 50_000;
    let h = Histogram::new();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = h.clone();
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Distinct magnitude band per thread so cross-thread
                    // interleavings touch different buckets too.
                    h.record((i % 1000) + (t as u64) * 10_000 + 1);
                }
            })
        })
        .collect();
    for jh in handles {
        jh.join().unwrap();
    }
    let d = h.snapshot();
    assert_eq!(d.count, THREADS as u64 * PER_THREAD, "no lost increments");
    assert_eq!(d.bucket_counts().iter().sum::<u64>(), d.count, "bucket totals agree");
    // Highest band: thread 5 records 50001..51000; max must be in there.
    assert!(d.max >= 50_001 && d.max <= 51_000, "max = {}", d.max);
}

#[test]
fn merge_equals_union() {
    let a = Histogram::new();
    let b = Histogram::new();
    let u = Histogram::new();
    for v in 1..5000u64 {
        if v % 2 == 0 {
            a.record(v)
        } else {
            b.record(v)
        };
        u.record(v);
    }
    let mut merged = HistogramData::empty();
    merged.merge(&a.snapshot());
    merged.merge(&b.snapshot());
    let union = u.snapshot();
    assert_eq!(merged.count, union.count);
    assert_eq!(merged.sum, union.sum);
    assert_eq!(merged.max, union.max);
    for q in [0.5, 0.95, 0.99] {
        assert_eq!(merged.quantile(q), union.quantile(q));
    }
}

#[test]
#[allow(clippy::disallowed_methods, reason = "the test races OS threads outside any world")]
fn shared_arc_handles_see_each_other() {
    let h = Histogram::new();
    let h2 = h.clone();
    let jh = {
        let h3: Histogram = h.clone();
        thread::spawn(move || {
            for _ in 0..100 {
                h3.record(42);
            }
        })
    };
    for _ in 0..100 {
        h2.record(7);
    }
    jh.join().unwrap();
    assert_eq!(h.count(), 200);
    let _ = Arc::new(h); // handle is cheaply shareable
}
