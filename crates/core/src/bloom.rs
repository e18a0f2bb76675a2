//! Bloom filter: the per-SSTable membership test (paper §2.4).
//!
//! "Bloom filter is a bit vector used to test whether an element is a member
//! of a set. Given an arbitrary key, it identifies whether the key may exist
//! or definitely does not exist in the SSData." One filter is built per
//! SSTable at flush time, stored as the SSTable's third file, and consulted
//! before opening SSIndex/SSData on every get.

use crate::hashfn::{fnv1a64, mix64};

/// A serialisable Bloom filter over byte-string keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    bits: Vec<u64>,
    m: u64,
    k: u32,
}

impl Bloom {
    /// Build an empty filter sized for `expected` keys at `bits_per_key`
    /// bits each (10 bits/key ≈ 1% false-positive rate).
    pub fn with_capacity(expected: usize, bits_per_key: usize) -> Self {
        let m = (expected.max(1) * bits_per_key.max(1)).max(64) as u64;
        let m = m.next_multiple_of(64);
        // Optimal k = ln2 * bits/key, clamped to a practical range.
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        Self { bits: vec![0u64; (m / 64) as usize], m, k }
    }

    /// Insert a key.
    pub fn insert(&mut self, key: &[u8]) {
        self.insert_hash(fnv1a64(key));
    }

    /// Insert the key whose [`fnv1a64`] is `hash`: the table encoder keeps a
    /// hash per record as it streams and fills the filter once it can be
    /// sized, without walking the keys again.
    pub(crate) fn insert_hash(&mut self, hash: u64) {
        let (h1, h2) = Self::probes(hash);
        for i in 0..self.k {
            let bit = h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.m;
            self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// Whether the key *may* be present (false positives possible, false
    /// negatives impossible).
    pub fn maybe_contains(&self, key: &[u8]) -> bool {
        self.maybe_contains_hash(fnv1a64(key))
    }

    /// [`Bloom::maybe_contains`] of the key whose [`fnv1a64`] is `hash`: a
    /// get hashes its key once and probes every table's filter with it.
    pub(crate) fn maybe_contains_hash(&self, hash: u64) -> bool {
        let (h1, h2) = Self::probes(hash);
        (0..self.k).all(|i| {
            let bit = h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.m;
            self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }

    // Double hashing: two independent 64-bit hashes drive all k probes.
    fn probes(h: u64) -> (u64, u64) {
        (h, mix64(h) | 1) // force h2 odd so strides cover the table
    }

    /// Serialise to the SSTable bloom-file format:
    /// `[m: u64 le][k: u32 le][bit words: u64 le...]`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.bits.len() * 8);
        out.extend_from_slice(&self.m.to_le_bytes());
        out.extend_from_slice(&self.k.to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parse the bloom-file format; `None` on corruption.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        if data.len() < 12 {
            return None;
        }
        let m = u64::from_le_bytes(data[0..8].try_into().ok()?);
        let k = u32::from_le_bytes(data[8..12].try_into().ok()?);
        if m == 0 || m % 64 != 0 || k == 0 {
            return None;
        }
        let nwords = (m / 64) as usize;
        let body = &data[12..];
        if body.len() != nwords * 8 {
            return None;
        }
        let bits =
            body.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect(); // lint:allow(panic-path): chunks_exact(8) yields exactly-8-byte chunks
        Some(Self { bits, m, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut b = Bloom::with_capacity(1000, 10);
        for i in 0..1000 {
            b.insert(format!("key-{i}").as_bytes());
        }
        for i in 0..1000 {
            assert!(b.maybe_contains(format!("key-{i}").as_bytes()));
        }
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let mut b = Bloom::with_capacity(10_000, 10);
        for i in 0..10_000 {
            b.insert(format!("in-{i}").as_bytes());
        }
        let fp = (0..10_000).filter(|i| b.maybe_contains(format!("out-{i}").as_bytes())).count();
        // 10 bits/key targets ~1%; allow generous slack.
        assert!(fp < 500, "false positive count {fp} too high");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let b = Bloom::with_capacity(100, 10);
        assert!(!b.maybe_contains(b"anything"));
    }

    #[test]
    fn serialisation_roundtrip() {
        let mut b = Bloom::with_capacity(500, 12);
        for i in 0..500 {
            b.insert(&[i as u8, (i >> 8) as u8, 7]);
        }
        let bytes = b.to_bytes();
        let b2 = Bloom::from_bytes(&bytes).unwrap();
        assert_eq!(b, b2);
    }

    #[test]
    fn corrupt_bytes_rejected() {
        assert!(Bloom::from_bytes(&[]).is_none());
        assert!(Bloom::from_bytes(&[0u8; 5]).is_none());
        let mut good = Bloom::with_capacity(10, 10).to_bytes();
        good.pop(); // truncate body
        assert!(Bloom::from_bytes(&good).is_none());
        // m = 0 rejected.
        let mut zeroed = vec![0u8; 12];
        zeroed[8] = 1; // k = 1
        assert!(Bloom::from_bytes(&zeroed).is_none());
    }

    /// A probe by the key's hash is the probe by the key: same answer for
    /// members and non-members alike.
    #[test]
    fn a_probe_by_hash_is_a_probe_by_key() {
        let mut b = Bloom::with_capacity(200, 10);
        for i in 0..200 {
            b.insert(format!("in-{i}").as_bytes());
        }
        let keys = (0..400).map(|i| format!("in-{i}")).chain((0..400).map(|i| format!("out-{i}")));
        for key in keys {
            let key = key.as_bytes();
            assert_eq!(b.maybe_contains_hash(fnv1a64(key)), b.maybe_contains(key));
        }
    }

    #[test]
    fn tiny_capacity_still_works() {
        let mut b = Bloom::with_capacity(0, 0);
        b.insert(b"x");
        assert!(b.maybe_contains(b"x"));
    }
}
