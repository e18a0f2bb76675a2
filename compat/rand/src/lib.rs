//! Offline stand-in for the `rand` crate (no crates.io access in the build
//! container). Provides a deterministic, seedable xoshiro256++ generator as
//! `rngs::StdRng` plus the `Rng`/`SeedableRng` trait surface the workspace
//! uses (`seed_from_u64`, `gen_range`, `gen`, `gen_bool`, `fill_bytes`).
//!
//! Determinism matters more than distribution quality here: every benchmark
//! and workload generator seeds explicitly, and the shim's sequences are
//! stable across runs and platforms (all arithmetic is wrapping u64).

/// Low-level generator interface.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// Types that can be sampled uniformly from a range.
pub trait SampleUniform: Sized {
    /// Sample uniformly from `[low, high)`. Panics if the range is empty.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range called with an empty range");
                let span = (high as i128 - low as i128) as u128 as u64;
                // Rejection sampling to avoid modulo bias. The zone is the
                // largest multiple of `span` that fits in u64.
                let zone = u64::MAX - (u64::MAX % span + 1) % span;
                loop {
                    let v = rng.next_u64();
                    if v <= zone || zone == u64::MAX {
                        return ((low as i128) + (v % span) as i128) as $t;
                    }
                }
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Range types accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Sample one value from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform + Copy> SampleRange<T> for std::ops::Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end)
    }
}

/// Values with a canonical "uniform over the whole domain" distribution.
pub trait Standard {
    /// Sample one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// High-level convenience interface (blanket-implemented for every
/// [`RngCore`]).
pub trait Rng: RngCore {
    /// Uniform sample from a range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Sample a value from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Bernoulli sample with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        <f64 as Standard>::sample(self) < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Generators constructible from seeds.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — deterministic, fast, good-quality 64-bit generator.
    /// (The real crate's `StdRng` is ChaCha12; same trait surface,
    /// different sequence — nothing in this workspace depends on the exact
    /// stream, only on determinism.)
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed, per the xoshiro authors.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            Self { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds_all_types() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: usize = r.gen_range(0..62);
            assert!(v < 62);
            let w: i32 = r.gen_range(-5..5);
            assert!((-5..5).contains(&w));
            let x: u64 = r.gen_range(10..11);
            assert_eq!(x, 10);
        }
    }

    #[test]
    fn gen_range_covers_the_range() {
        let mut r = StdRng::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 values should appear in 1000 draws");
    }

    #[test]
    fn gen_bool_roughly_balanced() {
        let mut r = StdRng::seed_from_u64(3);
        let heads = (0..10_000).filter(|_| r.gen_bool(0.5)).count();
        assert!((4500..5500).contains(&heads), "heads={heads}");
    }

    #[test]
    fn fill_bytes_fills_everything() {
        let mut r = StdRng::seed_from_u64(9);
        let mut buf = [0u8; 33];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
