//! The key of the in-memory maps: the MemTable's tree and the cache's index.
//!
//! A [`Key`] holds up to 22 bytes (`INLINE`) in place and boxes a longer key, in
//! the 24 bytes a `Vec<u8>` takes: a short key costs no allocation, and the
//! tree compares it inside the node instead of through a pointer. It orders,
//! equals and hashes as the `[u8]` it holds, and borrows as one, so a map
//! keyed by it is searched with a `&[u8]`.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

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
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Boxed(bytes) => bytes,
        }
    }
}

impl From<&[u8]> for Key {
    #[inline]
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

impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Key {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
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
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BTreeMap, HashMap};

    fn hash_of(h: impl Hash) -> u64 {
        let mut state = DefaultHasher::new();
        h.hash(&mut state);
        state.finish()
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

    /// Keys of 0..=64 bytes over two byte values: equal prefixes, the empty
    /// key and both sides of the inline bound come up in every run.
    fn key_runs() -> impl Strategy<Value = Vec<Vec<u8>>> {
        vec(vec(0u8..2, 0..65), 1..40)
    }

    proptest! {
        /// A key orders, equals and hashes exactly as the bytes it was made
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
                prop_assert_eq!(hash_of(ka), hash_of(&a[..]));
                prop_assert_eq!(ka, &ka.clone());
                for (b, kb) in keys.iter().zip(&made) {
                    prop_assert_eq!(ka.cmp(kb), a.cmp(b));
                    prop_assert_eq!(ka.partial_cmp(kb), a.partial_cmp(b));
                    prop_assert_eq!(ka == kb, a == b);
                }
            }
        }

        /// Maps keyed by `Key` are searched by `&[u8]`: what was inserted is
        /// found, what was not is not, and the tree iterates in byte order.
        #[test]
        fn maps_keyed_by_a_key_are_searched_by_bytes(keys in key_runs(), absent in key_runs()) {
            let tree: BTreeMap<Key, usize> =
                keys.iter().enumerate().map(|(i, k)| (Key::from(&k[..]), i)).collect();
            let hashed: HashMap<Key, usize> = tree.clone().into_iter().collect();
            let model: BTreeMap<&[u8], usize> =
                keys.iter().enumerate().map(|(i, k)| (&k[..], i)).collect();
            for k in keys.iter().chain(&absent) {
                prop_assert_eq!(tree.get(&k[..]), model.get(&k[..]));
                prop_assert_eq!(hashed.get(&k[..]), model.get(&k[..]));
            }
            let in_order: Vec<&[u8]> = tree.keys().map(Key::as_slice).collect();
            prop_assert_eq!(in_order, model.keys().copied().collect::<Vec<_>>());
        }
    }
}
