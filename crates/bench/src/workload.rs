//! YCSB-style workload mixes and key-skew generators, shared by the
//! figure binaries and the `papyrus-perfline` trajectory suite.
//!
//! Three pieces:
//!
//! - [`KeyDist`] / [`KeyChooser`] — uniform, zipfian (YCSB's
//!   Gray-et-al. rejection-free generator with FNV scatter), hotspot, and
//!   latest key-index distributions over an ordered keyspace.
//! - [`Mix`] — the six standard YCSB mixes A–F as operation-ratio tables,
//!   plus the figure-9 read/update mixes expressed in the same vocabulary.
//! - [`ordered_key`] — the `user<index>` keyspace encoding: ordered indices
//!   make scans meaningful (a scan reads `len` consecutive indices) while
//!   the store's key hash still spreads ownership across ranks.
//!
//! Everything is deterministic in the caller-provided seed, and — by
//! design — the *distribution over the keyspace* does not depend on how
//! many ranks are drawing from it: each rank seeds its own chooser, and
//! the union of their draws converges to the same shape at any rank count
//! (tested below).

use rand::rngs::StdRng;
use rand::Rng;

/// Default zipfian exponent (YCSB's `zipfian_const`).
pub const ZIPF_THETA: f64 = 0.99;

/// Default hotspot shape: 20% of the keyspace receives 80% of operations.
pub const HOTSPOT_SET_FRACTION: f64 = 0.2;
/// Fraction of operations aimed at the hot set.
pub const HOTSPOT_OP_FRACTION: f64 = 0.8;

/// Encode an ordered key index as a fixed-width key (`user000000000042`),
/// the bytes of `format!("user{index:012}")` written in place.
/// Fixed width keeps keys length-uniform (as in the paper's workloads)
/// and makes index order and lexicographic order agree.
pub fn ordered_key(index: u64) -> Vec<u8> {
    let digits = index.checked_ilog10().map_or(1, |d| d as usize + 1).max(12);
    let mut key = vec![b'0'; 4 + digits];
    key[..4].copy_from_slice(b"user");
    let mut rest = index;
    for digit in key[4..].iter_mut().rev() {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    key
}

/// Key-index distribution over an `n`-item keyspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every index equally likely.
    Uniform,
    /// Zipf-distributed popularity with exponent `theta`, scattered over
    /// the keyspace by an FNV hash so the hot items are not clustered on
    /// one owner rank (YCSB `ScrambledZipfianGenerator`).
    Zipfian {
        /// Skew exponent in (0, 1); [`ZIPF_THETA`] matches YCSB.
        theta: f64,
    },
    /// A hot subset of the keyspace absorbs most operations (YCSB
    /// `HotspotIntegerGenerator`): `set_fraction` of indices receive
    /// `op_fraction` of draws, the rest are uniform over the cold set.
    Hotspot {
        /// Fraction of the keyspace that is hot, in (0, 1).
        set_fraction: f64,
        /// Fraction of operations aimed at the hot set, in (0, 1).
        op_fraction: f64,
    },
    /// Recency-skewed: zipfian over "items ago" from the newest index
    /// (YCSB's `SkewedLatestGenerator`, used by workload D's reads).
    Latest,
}

impl KeyDist {
    /// Canonical short label used in snapshot row ids.
    pub fn label(&self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipfian { .. } => "zipfian",
            KeyDist::Hotspot { .. } => "hotspot",
            KeyDist::Latest => "latest",
        }
    }
}

/// FNV-1a over the index bytes: decorrelates zipfian rank from keyspace
/// position so popular keys spread across owner ranks.
fn fnv_scatter(i: u64, n: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in i.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h % n
}

/// Draws key indices in `[0, n)` from a [`KeyDist`]. One chooser per rank;
/// construction precomputes the zipfian normalisation constants (O(n),
/// done once per workload cell).
#[derive(Debug, Clone)]
pub struct KeyChooser {
    dist: KeyDist,
    n: u64,
    // Zipfian constants (Gray et al., "Quickly generating billion-record
    // synthetic databases"): zeta(n, theta), alpha, eta.
    zeta_n: f64,
    theta: f64,
    alpha: f64,
    eta: f64,
}

impl KeyChooser {
    /// Chooser over an `n`-index keyspace. Panics if `n == 0`.
    pub fn new(dist: KeyDist, n: u64) -> Self {
        assert!(n > 0, "empty keyspace");
        let theta = match dist {
            KeyDist::Zipfian { theta } => theta,
            KeyDist::Latest => ZIPF_THETA,
            _ => 0.0,
        };
        let (zeta_n, alpha, eta) = if theta > 0.0 {
            let zeta_n = zeta(n, theta);
            let zeta_2 = zeta(2.min(n), theta);
            let alpha = 1.0 / (1.0 - theta);
            let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n);
            (zeta_n, alpha, eta)
        } else {
            (0.0, 0.0, 0.0)
        };
        Self { dist, n, zeta_n, theta, alpha, eta }
    }

    /// Number of indices in the keyspace.
    pub fn keyspace(&self) -> u64 {
        self.n
    }

    /// Draw the next key index in `[0, n)`.
    pub fn next(&self, rng: &mut StdRng) -> u64 {
        match self.dist {
            KeyDist::Uniform => rng.gen_range(0..self.n),
            KeyDist::Zipfian { .. } => fnv_scatter(self.next_zipf_rank(rng), self.n),
            KeyDist::Hotspot { set_fraction, op_fraction } => {
                let hot = ((self.n as f64 * set_fraction) as u64).clamp(1, self.n);
                if rng.gen::<f64>() < op_fraction || hot == self.n {
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(hot..self.n)
                }
            }
            // Newest item (index n-1) is rank 0 of the zipfian.
            KeyDist::Latest => self.n - 1 - self.next_zipf_rank(rng),
        }
    }

    /// Draw a recency offset in `[0, window)` — 0 means "the newest item".
    /// This is how read-latest workloads (YCSB D) apply the cell's skew to
    /// *recency* rather than keyspace position: uniform stays uniform,
    /// zipfian/latest concentrate on the most recent items (unscattered —
    /// scattering would destroy the recency correlation), hotspot makes
    /// the newest `set_fraction` of the window the hot set. The window may
    /// differ from the chooser's keyspace (it grows as the caller
    /// inserts); draws are clamped into it.
    pub fn next_recency(&self, rng: &mut StdRng, window: u64) -> u64 {
        assert!(window > 0, "empty recency window");
        match self.dist {
            KeyDist::Uniform => rng.gen_range(0..window),
            KeyDist::Zipfian { .. } | KeyDist::Latest => self.next_zipf_rank(rng).min(window - 1),
            KeyDist::Hotspot { set_fraction, op_fraction } => {
                let hot = ((window as f64 * set_fraction) as u64).clamp(1, window);
                if rng.gen::<f64>() < op_fraction || hot == window {
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(hot..window)
                }
            }
        }
    }

    /// Popularity rank (0 = most popular) from the zipfian; unscattered.
    fn next_zipf_rank(&self, rng: &mut StdRng) -> u64 {
        if self.n == 1 {
            return 0;
        }
        let u: f64 = rng.gen();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// Harmonic-like normaliser `zeta(n, theta) = Σ_{i=1..n} 1/i^theta`.
fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// The operations a workload mix is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point read of one key.
    Read,
    /// Overwrite of one existing key.
    Update,
    /// Append of a fresh key (grows the keyspace).
    Insert,
    /// Range read of consecutive key indices.
    Scan,
    /// Read-modify-write of one key.
    Rmw,
}

/// A workload mix: operation ratios in percent (summing to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Mix name (`"A"`..`"F"`, or a figure-9 ratio label).
    pub name: &'static str,
    /// Point-read percentage.
    pub read: u8,
    /// Update percentage.
    pub update: u8,
    /// Insert percentage.
    pub insert: u8,
    /// Scan percentage.
    pub scan: u8,
    /// Read-modify-write percentage.
    pub rmw: u8,
}

impl Mix {
    /// Choose the next operation. Deterministic in the rng stream.
    pub fn next_op(&self, rng: &mut StdRng) -> Op {
        let roll = rng.gen_range(0..100u32) as u8;
        let mut acc = self.read;
        if roll < acc {
            return Op::Read;
        }
        acc += self.update;
        if roll < acc {
            return Op::Update;
        }
        acc += self.insert;
        if roll < acc {
            return Op::Insert;
        }
        acc += self.scan;
        if roll < acc {
            return Op::Scan;
        }
        Op::Rmw
    }
}

/// YCSB A: update-heavy (50/50 read/update) — session-store shape.
pub const MIX_A: Mix = Mix { name: "A", read: 50, update: 50, insert: 0, scan: 0, rmw: 0 };
/// YCSB B: read-mostly (95/5 read/update).
pub const MIX_B: Mix = Mix { name: "B", read: 95, update: 5, insert: 0, scan: 0, rmw: 0 };
/// YCSB C: read-only.
pub const MIX_C: Mix = Mix { name: "C", read: 100, update: 0, insert: 0, scan: 0, rmw: 0 };
/// YCSB D: read-latest (95/5 read/insert; reads skew to recent inserts).
pub const MIX_D: Mix = Mix { name: "D", read: 95, update: 0, insert: 5, scan: 0, rmw: 0 };
/// YCSB E: short ranges (95/5 scan/insert).
pub const MIX_E: Mix = Mix { name: "E", read: 0, update: 0, insert: 5, scan: 95, rmw: 0 };
/// YCSB F: read-modify-write (50/50 read/RMW).
pub const MIX_F: Mix = Mix { name: "F", read: 50, update: 0, insert: 0, scan: 0, rmw: 50 };

/// The six standard mixes, in letter order.
pub const ALL_MIXES: [Mix; 6] = [MIX_A, MIX_B, MIX_C, MIX_D, MIX_E, MIX_F];

/// Figure 9's read/update ratio expressed as a [`Mix`] (`update_pct` of
/// operations are puts over existing keys, the rest are gets).
pub const fn fig9_mix(name: &'static str, update_pct: u8) -> Mix {
    Mix { name, read: 100 - update_pct, update: update_pct, insert: 0, scan: 0, rmw: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn draw_counts(dist: KeyDist, n: u64, draws: usize, seed: u64) -> Vec<u64> {
        let chooser = KeyChooser::new(dist, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..draws {
            counts[chooser.next(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn choosers_are_deterministic_under_a_fixed_seed() {
        for dist in [
            KeyDist::Uniform,
            KeyDist::Zipfian { theta: ZIPF_THETA },
            KeyDist::Hotspot { set_fraction: 0.2, op_fraction: 0.8 },
            KeyDist::Latest,
        ] {
            let a = draw_counts(dist, 128, 5_000, 7);
            let b = draw_counts(dist, 128, 5_000, 7);
            let c = draw_counts(dist, 128, 5_000, 8);
            assert_eq!(a, b, "{dist:?} must be seed-deterministic");
            assert_ne!(a, c, "{dist:?} must vary with the seed");
        }
    }

    #[test]
    fn uniform_chi_square_within_bounds() {
        let n = 64u64;
        let draws = 64_000usize;
        let counts = draw_counts(KeyDist::Uniform, n, draws, 11);
        let expected = draws as f64 / n as f64;
        let chi2: f64 = counts.iter().map(|&c| (c as f64 - expected).powi(2) / expected).sum();
        // 63 dof: mean 63, std ~11.2. 120 is > 5 sigma — loose enough to be
        // deterministic-test-safe, tight enough to catch a broken sampler.
        assert!(chi2 < 120.0, "uniform chi2 = {chi2}");
        assert!(counts.iter().all(|&c| c > 0), "every index must be reachable");
    }

    #[test]
    fn zipfian_matches_theoretical_frequencies() {
        // Check the *popularity ranks* (pre-scatter) against 1/i^theta.
        let n = 100u64;
        let theta = ZIPF_THETA;
        let chooser = KeyChooser::new(KeyDist::Zipfian { theta }, n);
        let mut rng = StdRng::seed_from_u64(3);
        let draws = 200_000;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..draws {
            counts[chooser.next_zipf_rank(&mut rng) as usize] += 1;
        }
        let zeta_n = zeta(n, theta);
        // Chi-square-ish bounds on the head. Ranks 0 and 1 come from exact
        // branch probabilities (1/ζ and 0.5^θ/ζ) — tight tolerance; ranks
        // 2..10 go through Gray et al.'s continuous approximation, which
        // carries an inherent ~10-15% mid-rank bias at small n — loose
        // tolerance, enough to catch a broken sampler but not the
        // algorithm's own approximation error.
        for (rank, &count) in counts.iter().enumerate().take(10) {
            let expected = draws as f64 / ((rank + 1) as f64).powf(theta) / zeta_n;
            let got = count as f64;
            let err = (got - expected).abs() / expected;
            let tol = if rank < 2 { 0.05 } else { 0.25 };
            assert!(err < tol, "rank {rank}: expected {expected:.0}, got {got} (err {err:.3})");
        }
        // Monotone-ish decreasing head, heavy skew overall: theory puts
        // the top-10 share at Σ_{i≤10} i^-θ / ζ(100, θ) ≈ 56%.
        assert!(counts[0] > counts[5] && counts[5] > counts[30]);
        let head: u64 = counts[..10].iter().sum();
        assert!(
            head as f64 > 0.50 * draws as f64,
            "top-10 ranks should absorb >50% of zipf(0.99) draws, got {head}"
        );
    }

    #[test]
    fn zipfian_scatter_spreads_hot_keys() {
        // After FNV scatter the most popular *indices* must not be the
        // first indices — i.e. popularity is decoupled from owner layout.
        let counts = draw_counts(KeyDist::Zipfian { theta: ZIPF_THETA }, 256, 100_000, 5);
        let hottest = counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        assert_ne!(hottest, 0, "scatter must move the zipf head off index 0");
        // The scatter is a fixed hash: the hot set is stable across seeds.
        let again = draw_counts(KeyDist::Zipfian { theta: ZIPF_THETA }, 256, 100_000, 99);
        let hottest_again = again.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        assert_eq!(hottest, hottest_again);
    }

    #[test]
    fn hotspot_hits_the_hot_set_at_the_requested_rate() {
        let n = 200u64;
        let counts =
            draw_counts(KeyDist::Hotspot { set_fraction: 0.2, op_fraction: 0.8 }, n, 100_000, 13);
        let hot: u64 = counts[..40].iter().sum();
        let frac = hot as f64 / 100_000.0;
        assert!((frac - 0.8).abs() < 0.02, "hot-set fraction {frac}");
        // Cold keys still drawn (uniformly).
        assert!(counts[40..].iter().all(|&c| c > 0));
    }

    #[test]
    fn latest_skews_toward_newest_index() {
        let n = 100u64;
        let counts = draw_counts(KeyDist::Latest, n, 50_000, 17);
        assert!(counts[99] > counts[50] && counts[50] >= counts[0].saturating_sub(50));
        // Theory: newest decile = top-10 zipf ranks ≈ 56% of draws.
        let newest_decile: u64 = counts[90..].iter().sum();
        assert!(
            newest_decile as f64 > 0.5 * 50_000.0,
            "latest should concentrate on the newest decile, got {newest_decile}"
        );
    }

    #[test]
    fn distribution_agrees_across_rank_counts() {
        // The union of per-rank streams must converge to the same shape no
        // matter how many ranks draw: compare aggregate per-index
        // frequencies between a 2-rank and an 8-rank split of the same
        // total draw budget.
        let n = 64u64;
        let total = 160_000usize;
        for dist in [
            KeyDist::Uniform,
            KeyDist::Zipfian { theta: ZIPF_THETA },
            KeyDist::Hotspot { set_fraction: 0.25, op_fraction: 0.75 },
        ] {
            let agg = |ranks: usize| -> Vec<f64> {
                let mut counts = vec![0u64; n as usize];
                let chooser = KeyChooser::new(dist, n);
                for r in 0..ranks {
                    let mut rng = StdRng::seed_from_u64(0xBEEF + r as u64);
                    for _ in 0..total / ranks {
                        counts[chooser.next(&mut rng) as usize] += 1;
                    }
                }
                counts.iter().map(|&c| c as f64 / total as f64).collect()
            };
            let two = agg(2);
            let eight = agg(8);
            for i in 0..n as usize {
                let diff = (two[i] - eight[i]).abs();
                assert!(
                    diff < 0.01,
                    "{dist:?} index {i}: freq {two} vs {eight} differ by {diff}",
                    two = two[i],
                    eight = eight[i]
                );
            }
        }
    }

    #[test]
    fn mixes_sum_to_100_and_produce_their_ops() {
        for m in ALL_MIXES {
            assert_eq!(
                m.read as u32 + m.update as u32 + m.insert as u32 + m.scan as u32 + m.rmw as u32,
                100,
                "mix {} ratios must sum to 100",
                m.name
            );
        }
        let mut rng = StdRng::seed_from_u64(1);
        let mut saw_scan = false;
        let mut saw_insert = false;
        for _ in 0..1000 {
            match MIX_E.next_op(&mut rng) {
                Op::Scan => saw_scan = true,
                Op::Insert => saw_insert = true,
                op => panic!("mix E produced {op:?}"),
            }
        }
        assert!(saw_scan && saw_insert);
        let mut rng = StdRng::seed_from_u64(2);
        let reads = (0..10_000).filter(|_| MIX_B.next_op(&mut rng) == Op::Read).count();
        assert!((reads as f64 / 10_000.0 - 0.95).abs() < 0.01, "B read ratio {reads}");
    }

    #[test]
    fn ordered_keys_sort_like_their_indices() {
        let keys: Vec<_> =
            [0u64, 1, 9, 10, 99, 100, 12345].iter().map(|&i| ordered_key(i)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(ordered_key(42), b"user000000000042".to_vec());
        assert!(keys.iter().all(|k| k.len() == 16));
    }

    #[test]
    fn ordered_key_is_the_formatted_index() {
        for i in [0, 9, 999_999_999_999, 1_000_000_000_000, u64::MAX] {
            assert_eq!(ordered_key(i), format!("user{i:012}").into_bytes(), "index {i}");
        }
    }

    #[test]
    fn fig9_mixes_map_to_read_update_ratios() {
        let m = fig9_mix("95/5", 5);
        assert_eq!((m.read, m.update), (95, 5));
        let mut rng = StdRng::seed_from_u64(4);
        let updates = (0..10_000).filter(|_| m.next_op(&mut rng) == Op::Update).count();
        assert!((updates as f64 / 10_000.0 - 0.05).abs() < 0.01);
    }
}
