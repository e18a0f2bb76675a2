//! Key hashing and owner-rank distribution.
//!
//! PapyrusKV "hashes the key and divides the result by the total number of
//! the running MPI ranks; the remainder maps the key to the owner rank"
//! (§2.4). The built-in hash is FNV-1a-64 with an avalanche finaliser;
//! applications can supply a custom hash through
//! [`crate::Options::custom_hash`] for load balancing (§2.4) or to match an
//! existing application's data affinity (the Meraculous port, §5.2).

use std::sync::Arc;

/// A key-hash function: application-visible customisation point.
pub type HashFn = Arc<dyn Fn(&[u8]) -> u64 + Send + Sync>;

/// FNV-1a 64-bit over the key bytes.
#[inline]
pub fn fnv1a64(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// splitmix64-style avalanche finaliser: decorrelates the low bits so that
/// `hash % n` distributes well even for small `n`.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The built-in PapyrusKV key hash.
#[inline]
pub fn builtin_hash(key: &[u8]) -> u64 {
    mix64(fnv1a64(key))
}

/// The key distributor: built-in or custom hash, plus the rank count.
#[derive(Clone)]
pub struct Distributor {
    hash: Option<HashFn>,
    nranks: usize,
}

impl std::fmt::Debug for Distributor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Distributor")
            .field("custom", &self.hash.is_some())
            .field("nranks", &self.nranks)
            .finish()
    }
}

impl Distributor {
    /// Distributor over `nranks` ranks; `hash = None` selects the built-in.
    pub fn new(hash: Option<HashFn>, nranks: usize) -> Self {
        assert!(nranks > 0, "distributor needs at least one rank");
        Self { hash, nranks }
    }

    /// Owner rank of `key`. A job of one rank hashes nothing — no hash,
    /// built-in or custom, could name another owner.
    #[inline]
    pub fn owner(&self, key: &[u8]) -> usize {
        if self.nranks == 1 {
            return 0;
        }
        let h = match &self.hash {
            Some(f) => f(key),
            None => builtin_hash(key),
        };
        (h % self.nranks as u64) as usize
    }

    /// Number of ranks keys are distributed over.
    pub fn nranks(&self) -> usize {
        self.nranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Standard FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn builtin_hash_deterministic() {
        assert_eq!(builtin_hash(b"key-1"), builtin_hash(b"key-1"));
        assert_ne!(builtin_hash(b"key-1"), builtin_hash(b"key-2"));
    }

    #[test]
    fn owner_in_range() {
        let d = Distributor::new(None, 7);
        for i in 0..1000 {
            let key = format!("k{i}");
            assert!(d.owner(key.as_bytes()) < 7);
        }
    }

    #[test]
    fn distribution_roughly_uniform() {
        // The load-balancing premise of §2.4: the built-in hash spreads
        // uniform random keys evenly across ranks.
        let n = 16;
        let d = Distributor::new(None, n);
        let mut counts = vec![0usize; n];
        let total = 32_000;
        for i in 0..total {
            counts[d.owner(format!("key:{i}").as_bytes())] += 1;
        }
        let expect = total / n;
        for (r, &c) in counts.iter().enumerate() {
            assert!(
                c > expect * 8 / 10 && c < expect * 12 / 10,
                "rank {r} got {c}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn custom_hash_overrides_builtin() {
        // A pathological custom hash sending everything to rank 3.
        let d = Distributor::new(Some(Arc::new(|_k: &[u8]| 3u64)), 5);
        for i in 0..50 {
            assert_eq!(d.owner(format!("{i}").as_bytes()), 3);
        }
    }

    #[test]
    fn single_rank_owns_everything() {
        let d = Distributor::new(None, 1);
        assert_eq!(d.owner(b"anything"), 0);
    }

    #[test]
    fn single_rank_never_calls_the_hash() {
        let d = Distributor::new(Some(Arc::new(|_k: &[u8]| panic!("hashed"))), 1);
        assert_eq!(d.owner(b"anything"), 0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Distributor::new(None, 0);
    }
}
