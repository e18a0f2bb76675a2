//! Keys: the one hash of the store's index (`index.rs`), which the
//! MemTable and the cache both use, and the word-at-a-time comparisons of
//! key order. No table keeps a key of its own type: a key lies in its
//! record, in a table's log (`log.rs`) or an SSData image, and the index
//! holds 32 bits of its [`KeyHasher`] hash and its record's place.
//!
//! Key order is byte order, and the two loops that make it — the flush's sort
//! (`MemTable::records`) and the compaction's k-way merge (`sstable::merge`) —
//! compare a machine word before they compare bytes: [`abbrev`] cuts a key to
//! its first `N` bytes past a prefix every compared key shares, zero-padded,
//! read big-endian. Words that differ order their keys as the bytes do; only
//! equal words fall back to comparing the keys.
//!
//! The index hashes with [`KeyHasher`]: fixed and seedless, so a table's
//! layout is the same in every process and every run, and a word at a time,
//! so a 16-byte key is three multiplies (its length, two words) and one
//! [`mix64`] finish.

use std::cmp::Ordering;
use std::hash::Hasher;

use crate::hashfn::mix64;

/// The hash of the store's index: FxHash's word step over the bytes
/// (rotate, xor, multiply), finished with [`mix64`] so that the low 32 bits
/// an index slot keeps depend on every byte. A key is hashed as a `[u8]`:
/// its length, then its bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    #[allow(clippy::indexing_slicing, reason = "as_chunks leaves a tail of under 8 bytes")]
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for word in words {
            self.add(u64::from_le_bytes(*word));
        }
        if !tail.is_empty() {
            let mut last = [0; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }
}

/// The abbreviation of `key` that orders it at word speed: its `N` bytes
/// from `skip` on, zero-padded, to be read as one big-endian word
/// (`u64::from_be_bytes`, `u128::from_be_bytes`). `skip` must not pass the
/// prefix every key compared with it shares. Of two such keys, unequal words
/// order them as their bytes do — padding sorts a key that ends below any
/// that goes on — and equal words say nothing: the keys are compared whole.
#[inline]
pub(crate) fn abbrev<const N: usize>(key: &[u8], skip: usize) -> [u8; N] {
    let rest = key.get(skip..).unwrap_or_default();
    if let Some(word) = rest.first_chunk::<N>() {
        return *word;
    }
    let mut word = [0; N];
    word[..rest.len()].copy_from_slice(rest);
    word
}

/// Byte order, `a.cmp(b)`, a machine word at a time: the first pair of
/// 8-byte words that differ orders the keys, read big-endian. Only keys
/// equal through the shorter one's whole words compare their tails as
/// bytes. The SSTable walk's compare: inline, where `<[u8]>::cmp` calls
/// `memcmp` once a record.
#[inline]
#[allow(clippy::indexing_slicing, reason = "at is at most the shorter key's whole words")]
pub(crate) fn cmp(a: &[u8], b: &[u8]) -> Ordering {
    let (a_words, _) = a.as_chunks::<8>();
    let (b_words, _) = b.as_chunks::<8>();
    let mut at = 0;
    for (x, y) in a_words.iter().zip(b_words) {
        if x != y {
            return u64::from_be_bytes(*x).cmp(&u64::from_be_bytes(*y));
        }
        at += 8;
    }
    a[at..].cmp(&b[at..])
}

/// How many bytes `a` and `b` share from the start, a machine word at a
/// time: the first pair of 8-byte words that differ ends the run at their
/// first differing byte. A MemTable keeps its keys' shared prefix with it,
/// once for each new key.
#[inline]
#[allow(clippy::indexing_slicing, reason = "at is at most the shorter key's whole words")]
pub(crate) fn shared_len(a: &[u8], b: &[u8]) -> usize {
    let (a_words, _) = a.as_chunks::<8>();
    let (b_words, _) = b.as_chunks::<8>();
    let mut at = 0;
    for (x, y) in a_words.iter().zip(b_words) {
        let differ = u64::from_be_bytes(*x) ^ u64::from_be_bytes(*y);
        if differ != 0 {
            return at + (differ.leading_zeros() / 8) as usize;
        }
        at += 8;
    }
    at + a[at..].iter().zip(&b[at..]).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::hash::Hash;

    fn key_hash_of(key: &[u8]) -> u64 {
        let mut state = KeyHasher::default();
        key.hash(&mut state);
        state.finish()
    }

    /// An index's layout is the same in every run, and keys one of which
    /// is the other zero-extended hash apart.
    #[test]
    fn the_key_hasher_is_seedless_and_hashes_the_length() {
        // Seedless: the same bytes hash the same in every process and run.
        assert_eq!(key_hash_of(&b"key-1"[..]), 0x866f_c3f9_667c_af7f);
        // A zero tail is not an absent one: the length tells them apart.
        assert_ne!(key_hash_of(&b"ab"[..]), key_hash_of(&b"ab\0"[..]));
        assert_ne!(key_hash_of(&[0u8; 8][..]), key_hash_of(&[0u8; 16][..]));
    }

    #[test]
    fn an_abbreviation_is_the_window_past_the_skip_zero_padded() {
        assert_eq!(abbrev::<8>(b"prefix-12345678-tail", 7), *b"12345678");
        assert_eq!(abbrev::<8>(b"prefix-123", 7), *b"123\0\0\0\0\0");
        assert_eq!(abbrev::<8>(b"prefix-", 7), [0; 8]);
        assert_eq!(abbrev::<8>(b"", 0), [0; 8]);
        assert_eq!(abbrev::<16>(b"0123456789abcdefXYZ", 0), *b"0123456789abcdef");
        assert_eq!(u64::from_be_bytes(abbrev(&[1, 2], 0)), 0x0102_0000_0000_0000);
    }

    /// Whether ordering `keys` by their `N`-byte abbreviations past `skip`,
    /// then whole, is byte order, pair by pair.
    fn abbreviated_order_is_byte_order<const N: usize>(keys: &[Vec<u8>], skip: usize) -> bool {
        let word = |key: &[u8]| abbrev::<N>(key, skip);
        keys.iter()
            .all(|a| keys.iter().all(|b| word(a).cmp(&word(b)).then_with(|| a.cmp(b)) == a.cmp(b)))
    }

    proptest! {
        /// The abbreviated order is byte order, for the sort's 8-byte words
        /// and the merge's 16-byte ones: keys that share a prefix of up to
        /// 40 bytes, cut past any part of it, and go on for 0–19 bytes of
        /// zeros, ones and `0xff` — so keys end inside each window, on its
        /// edge and past it, and a key and its zero-extension abbreviate
        /// alike. With no prefix cut, the empty key and the bare prefix are
        /// in every run.
        #[test]
        fn abbreviated_then_whole_comparison_is_byte_order(
            prefix in vec(0u8..3, 0..41),
            suffixes in vec(vec((0u8..3).prop_map(|b| [0, 1, 0xff][usize::from(b)]), 0..20), 1..24),
            cut in 0usize..41,
        ) {
            let mut keys: Vec<Vec<u8>> = suffixes.iter().map(|s| [&prefix[..], s].concat()).collect();
            keys.push(prefix.clone());
            keys.push([&prefix[..], &[0; 8]].concat());
            let skip = cut.min(prefix.len());
            prop_assert!(abbreviated_order_is_byte_order::<8>(&keys, skip));
            prop_assert!(abbreviated_order_is_byte_order::<16>(&keys, skip));
            keys.push(Vec::new());
            prop_assert!(abbreviated_order_is_byte_order::<8>(&keys, 0));
            prop_assert!(abbreviated_order_is_byte_order::<16>(&keys, 0));
        }

        /// The word-at-a-time compare is byte order, and the word-at-a-time
        /// shared length the bytes' shared run: keys sharing a prefix
        /// of 0, 7, 8, 9, 15, 16 or 17 bytes, then 0–23 more of `0x00`, `0x01`
        /// and `0xff` — so lengths run 0–40 and keys end and differ inside a
        /// word, on its edge and past it — against each other, the empty
        /// key, the bare prefix and each key's prefixes.
        #[test]
        fn a_word_compare_is_byte_order(
            pick in 0usize..7,
            prefix in vec(any::<u8>(), 17..18),
            tails in vec(vec((0u8..3).prop_map(|b| [0, 1, 0xff][usize::from(b)]), 0..24), 1..16),
        ) {
            let prefix = &prefix[..[0, 7, 8, 9, 15, 16, 17][pick]];
            let mut keys: Vec<Vec<u8>> = tails.iter().map(|t| [prefix, t].concat()).collect();
            let cuts: Vec<Vec<u8>> = keys.iter().flat_map(|k| (0..k.len()).map(|n| k[..n].to_vec())).collect();
            keys.extend(cuts);
            keys.extend([Vec::new(), prefix.to_vec()]);
            for a in &keys {
                for b in &keys {
                    prop_assert_eq!(cmp(a, b), a.as_slice().cmp(b.as_slice()), "{:?} against {:?}", a, b);
                    let shared = a.iter().zip(b).take_while(|(x, y)| x == y).count();
                    prop_assert_eq!(shared_len(a, b), shared, "{:?} against {:?}", a, b);
                }
            }
        }
    }
}
