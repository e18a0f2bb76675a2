//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! fastest-quartile round, and the quartile spread.

/// Nearest-rank percentile of an ascending-sorted sample: the value at rank
/// `ceil(p/100 * n)` (1-based). 0 for an empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `v` in ascending order.
pub fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn sorted_f64(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Throughput of the fastest-quartile round: the nearest-rank 75th
/// percentile of per-round throughput. Neighbour noise on a shared box only
/// ever slows a round down, so the upper quartile moves far less between
/// runs than the mean or the median does, while still needing a quarter of
/// the rounds to agree (the single best round would reward one lucky
/// outlier).
pub fn fastest_quartile(per_round: &[f64]) -> f64 {
    let v = sorted_f64(per_round);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (0.75 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted_f64(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the method Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive): position
/// `k * (n + 1) / 4`, linearly interpolated, clamped to the sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted_f64(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Quartile distance as a share of the median: the run-to-run spread the
/// acceptance rule compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        // The textbook nearest-rank example.
        let w = [15, 20, 35, 40, 50];
        assert_eq!(percentile(&w, 5.0), 15);
        assert_eq!(percentile(&w, 30.0), 20);
        assert_eq!(percentile(&w, 40.0), 20);
        assert_eq!(percentile(&w, 50.0), 35);
        assert_eq!(percentile(&w, 100.0), 50);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn fastest_quartile_on_known_vectors() {
        let rounds: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(fastest_quartile(&rounds), 12.0);
        // One lucky round does not set the result; four agreeing ones do.
        let mut noisy = vec![10.0; 15];
        noisy.push(100.0);
        assert_eq!(fastest_quartile(&noisy), 10.0);
        let mut slowed = vec![5.0; 12];
        slowed.extend([10.0; 4]);
        assert_eq!(fastest_quartile(&slowed), 5.0);
        slowed[0] = 10.0;
        assert_eq!(fastest_quartile(&slowed), 10.0);
        assert_eq!(fastest_quartile(&[3.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25] extrapolates;
        // clamped here to the sample, which only ever narrows the spread
        // of a two-run set nobody gates on.
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }
}
