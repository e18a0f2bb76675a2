//! The key of the in-memory maps, the MemTable's and the cache's, and the
//! one hash both index it with.
//!
//! A [`Key`] holds up to 22 bytes (`INLINE`) in place and boxes a longer key, in
//! the 24 bytes a `Vec<u8>` takes: a short key costs no allocation, and the
//! map compares it inside its slot instead of through a pointer. It equals
//! and hashes as the `[u8]` it holds, and borrows as one, so a map keyed by
//! it is searched with a `&[u8]`.
//!
//! Key order is byte order, and the two loops that make it — the flush's sort
//! (`MemTable::iter`) and the compaction's k-way merge (`sstable::merge`) —
//! compare a machine word before they compare bytes: [`abbrev`] cuts a key to
//! its first `N` bytes past a prefix every compared key shares, zero-padded,
//! read big-endian. Words that differ order their keys as the bytes do; only
//! equal words fall back to comparing the keys.
//!
//! [`KeyMap`] hashes with [`KeyHasher`]: fixed and seedless, so a map's
//! layout is the same in every process and every run, and a word at a time,
//! so a 16-byte key is three multiplies (its length, two words) and one
//! [`mix64`] finish.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::hashfn::mix64;

/// Longest key held in place: with the length and the tag, 24 bytes.
const INLINE: usize = 22;

/// An owned key.
#[derive(Clone)]
pub struct Key(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Boxed(Box<[u8]>),
}

impl Key {
    /// The key's bytes.
    #[inline]
    #[allow(clippy::indexing_slicing, reason = "an inline key's len is at most INLINE")]
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Boxed(bytes) => bytes,
        }
    }
}

impl From<&[u8]> for Key {
    #[inline]
    #[allow(clippy::indexing_slicing, reason = "a key past INLINE bytes is boxed above")]
    fn from(key: &[u8]) -> Self {
        if key.len() > INLINE {
            return Self(Repr::Boxed(key.into()));
        }
        let mut bytes = [0; INLINE];
        bytes[..key.len()].copy_from_slice(key);
        Self(Repr::Inline { len: key.len() as u8, bytes })
    }
}

/// The empty key.
impl Default for Key {
    fn default() -> Self {
        Self::from(&[][..])
    }
}

impl Borrow<[u8]> for Key {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Key {}

impl Hash for Key {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// The hash of every [`KeyMap`]: FxHash's word step over the bytes
/// (rotate, xor, multiply), finished with [`mix64`] so that a table's low
/// bits, which pick the bucket, and its high bits, which tag it, both depend
/// on every byte. A [`Key`] and the `&[u8]` it borrows as feed it the same
/// writes (`[u8]`'s length prefix, then its bytes), so they hash equal.
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

/// A hash map keyed by [`Key`] under [`KeyHasher`].
pub type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

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

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn key_hash_of(h: impl Hash) -> u64 {
        let mut state = KeyHasher::default();
        h.hash(&mut state);
        state.finish()
    }

    /// A `KeyMap` is searched by `&[u8]` only because a key and the bytes it
    /// borrows as hash equal: on both sides of the inline bound, at every
    /// tail length a word leaves.
    #[test]
    fn a_key_and_its_bytes_hash_equal_under_the_key_hasher() {
        for len in [0, 1, 7, 8, 9, 16, INLINE - 1, INLINE, INLINE + 1, 24, 64, 65] {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let key = Key::from(&bytes[..]);
            assert_eq!(key_hash_of(&key), key_hash_of(&bytes[..]), "{len} bytes");
        }
        // Seedless: the same bytes hash the same in every process and run.
        assert_eq!(key_hash_of(&b"key-1"[..]), 0x866f_c3f9_667c_af7f);
        // A zero tail is not an absent one: the length tells them apart.
        assert_ne!(key_hash_of(&b"ab"[..]), key_hash_of(&b"ab\0"[..]));
        assert_ne!(key_hash_of(&[0u8; 8][..]), key_hash_of(&[0u8; 16][..]));
    }

    #[test]
    fn a_key_is_as_wide_as_a_vec() {
        assert_eq!(std::mem::size_of::<Key>(), std::mem::size_of::<Vec<u8>>());
        assert_eq!(Key::default().as_slice(), b"");
        for len in [0, 1, INLINE - 1, INLINE, INLINE + 1, 64] {
            let bytes = vec![0xa5; len];
            let key = Key::from(&bytes[..]);
            assert_eq!(key.as_slice(), &bytes[..]);
            assert_eq!(matches!(key.0, Repr::Inline { .. }), len <= INLINE, "{len} bytes");
        }
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

    /// Keys of 0..=64 bytes over two byte values: equal prefixes, the empty
    /// key and both sides of the inline bound come up in every run.
    fn key_runs() -> impl Strategy<Value = Vec<Vec<u8>>> {
        vec(vec(0u8..2, 0..65), 1..40)
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

        /// A key equals and hashes exactly as the bytes it was made
        /// from, against every other key of the run and its own prefixes.
        #[test]
        fn a_key_compares_and_hashes_as_its_bytes(mut keys in key_runs()) {
            let cut = keys[0].len() / 2;
            keys.push(keys[0][..cut].to_vec());
            keys.push([&keys[0][..], &[0]].concat());
            let made: Vec<Key> = keys.iter().map(|k| Key::from(&k[..])).collect();
            for (a, ka) in keys.iter().zip(&made) {
                prop_assert_eq!(ka.as_slice(), &a[..]);
                prop_assert_eq!(Borrow::<[u8]>::borrow(ka), &a[..]);
                prop_assert_eq!(key_hash_of(ka), key_hash_of(&a[..]));
                prop_assert_eq!(ka, &ka.clone());
                for (b, kb) in keys.iter().zip(&made) {
                    prop_assert_eq!(ka == kb, a == b);
                }
            }
        }

        /// A map keyed by `Key` is searched by `&[u8]`: what was inserted is
        /// found, what was not is not.
        #[test]
        fn maps_keyed_by_a_key_are_searched_by_bytes(keys in key_runs(), absent in key_runs()) {
            let hashed: KeyMap<usize> =
                keys.iter().enumerate().map(|(i, k)| (Key::from(&k[..]), i)).collect();
            let model: BTreeMap<&[u8], usize> =
                keys.iter().enumerate().map(|(i, k)| (&k[..], i)).collect();
            for k in keys.iter().chain(&absent) {
                prop_assert_eq!(hashed.get(&k[..]), model.get(&k[..]));
            }
            prop_assert_eq!(hashed.len(), model.len());
        }
    }
}
