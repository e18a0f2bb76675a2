//! MemTables: the in-memory write staging structure (paper §2.3-§2.4).
//!
//! A database owns four kinds of MemTable — local, immutable local, remote,
//! and immutable remote. All four share this one structure: a hash index of
//! entries plus byte accounting. The paper's MemTable is a red-black tree,
//! kept ordered for the one reader that needs order, the flush; here a put
//! or a get is one `KeyMap` probe (`key.rs`), and key order is made once, by
//! [`MemTable::iter`], when a frozen table is flushed or migrated (or a
//! table is audited) — a sort of its entries, O(n log n) for the whole
//! table, paid off the put and get paths (DESIGN §1). The sort compares
//! words, not bytes: each entry carries the 8 bytes of its key that follow
//! the prefix every key of the table shares (`key::abbrev`), and only keys
//! whose words tie are compared whole. "Immutable" is a usage
//! mode: a frozen table is wrapped in `Arc` and only read (by gets walking
//! the flushing / migration queues, and by the compaction or dispatcher
//! task consuming it).

use bytes::Bytes;

use crate::key::{abbrev, Key, KeyMap};

/// Fixed per-entry metadata overhead counted against the MemTable capacity
/// (the paper's tree node links, tombstone flag, owner rank). A hash index
/// has no node links; the charge is kept so that every freeze point, and
/// every number that follows from one, is the paper's accounting.
pub const ENTRY_OVERHEAD: u64 = 24;

/// Marker for entries in local MemTables, which carry no owner rank.
pub const NO_OWNER: u32 = u32::MAX;

/// One key's state in a MemTable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Value bytes; empty for tombstones.
    pub value: Bytes,
    /// Deletion marker: "PapyrusKV regards a delete operation as a put
    /// operation with zero-length value and a tombstone bit set to one"
    /// (§2.5).
    pub tombstone: bool,
    /// Owner rank — only meaningful in *remote* MemTables, where each pair
    /// records which rank it must migrate to (§2.4). [`NO_OWNER`] otherwise.
    pub owner: u32,
}

impl Entry {
    /// A live local value.
    pub fn value(v: Bytes) -> Self {
        Self { value: v, tombstone: false, owner: NO_OWNER }
    }

    /// A local tombstone.
    pub fn tombstone() -> Self {
        Self { value: Bytes::new(), tombstone: true, owner: NO_OWNER }
    }

    /// A remote entry destined for `owner`.
    pub fn remote(v: Bytes, tombstone: bool, owner: u32) -> Self {
        Self { value: v, tombstone, owner }
    }
}

/// An in-memory, byte-accounted table of [`Entry`]s, iterated in key order.
#[derive(Debug, Default)]
pub struct MemTable {
    index: KeyMap<Entry>,
    bytes: u64,
}

impl MemTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries (tombstones included).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Approximate memory footprint in bytes; compared against the MemTable
    /// capacity to decide freezing (§2.4 "when the local MemTable's size
    /// reaches its capacity limit...").
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    fn entry_size(key: &[u8], e: &Entry) -> u64 {
        key.len() as u64 + e.value.len() as u64 + ENTRY_OVERHEAD
    }

    /// Insert or replace. "If another key-value pair that has the same key
    /// already exists, PapyrusKV deletes the old one before it inserts the
    /// new one" (§2.4).
    pub fn insert(&mut self, key: &[u8], entry: Entry) {
        let new_size = Self::entry_size(key, &entry);
        match self.index.insert(Key::from(key), entry) {
            Some(old) => {
                self.bytes = self.bytes - Self::entry_size(key, &old) + new_size;
            }
            None => self.bytes += new_size,
        }
    }

    /// Look up an entry (tombstones are returned — the caller decides what a
    /// tombstone means at its level of the search).
    pub fn get(&self, key: &[u8]) -> Option<&Entry> {
        self.index.get(key)
    }

    /// Key-sorted iteration: the one place a MemTable's key order is made,
    /// by sorting its entries (keys are unique, so an unstable sort is
    /// exact). Hash order never leaves the table. An entry of the sort is
    /// 24 bytes: the big-endian word of the 8 key bytes past the table's
    /// shared prefix, the key and the entry; equal words compare the keys.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[u8], &Entry)> {
        let skip = self.shared_prefix();
        let mut sorted: Vec<(u64, &Key, &Entry)> = self
            .index
            .iter()
            .map(|(k, e)| (u64::from_be_bytes(abbrev(k.as_slice(), skip)), k, e))
            .collect();
        sorted.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0).then_with(|| a.1.as_slice().cmp(b.1.as_slice()))
        });
        sorted.into_iter().map(|(_, k, e)| (k.as_slice(), e))
    }

    /// Length of the prefix every key of the table shares.
    #[allow(clippy::indexing_slicing, reason = "shared starts at first.len() and only shrinks")]
    fn shared_prefix(&self) -> usize {
        let mut keys = self.index.keys().map(Key::as_slice);
        let Some(first) = keys.next() else { return 0 };
        keys.fold(first.len(), |shared, key| {
            first[..shared].iter().zip(key).take_while(|(a, b)| a == b).count()
        })
    }

    /// Freeze: take the current contents out, leaving this table empty. The
    /// returned table becomes the immutable MemTable; "a new MemTable is
    /// created to handle new writes" (§2.4).
    pub fn freeze(&mut self) -> MemTable {
        std::mem::take(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn bv(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }

    #[test]
    fn insert_and_get() {
        let mut m = MemTable::new();
        m.insert(b"k1", Entry::value(bv(b"v1")));
        assert_eq!(m.get(b"k1").unwrap().value.as_ref(), b"v1");
        assert!(m.get(b"nope").is_none());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn byte_accounting_on_insert_and_replace() {
        let mut m = MemTable::new();
        assert!(m.is_empty());
        m.insert(b"key", Entry::value(bv(b"12345")));
        assert_eq!(m.bytes(), 3 + 5 + ENTRY_OVERHEAD);
        m.insert(b"key", Entry::value(bv(b"1")));
        assert_eq!(m.bytes(), 3 + 1 + ENTRY_OVERHEAD);
        m.insert(b"key", Entry::tombstone());
        assert_eq!(m.bytes(), 3 + ENTRY_OVERHEAD);
    }

    #[test]
    fn tombstone_is_an_entry() {
        let mut m = MemTable::new();
        m.insert(b"k", Entry::value(bv(b"v")));
        m.insert(b"k", Entry::tombstone());
        let e = m.get(b"k").unwrap();
        assert!(e.tombstone);
        assert!(e.value.is_empty());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn remote_entry_carries_owner() {
        let mut m = MemTable::new();
        m.insert(b"k", Entry::remote(bv(b"v"), false, 7));
        assert_eq!(m.get(b"k").unwrap().owner, 7);
        assert_eq!(Entry::value(bv(b"v")).owner, NO_OWNER);
    }

    #[test]
    fn freeze_leaves_empty_table() {
        let mut m = MemTable::new();
        for i in 0..10u8 {
            m.insert(&[i], Entry::value(bv(&[i; 4])));
        }
        let frozen = m.freeze();
        assert_eq!(frozen.len(), 10);
        assert!(frozen.bytes() > 0);
        assert!(m.is_empty());
        assert_eq!(m.bytes(), 0);
        // The live table keeps working after a freeze.
        m.insert(b"new", Entry::value(bv(b"x")));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iter_is_sorted_by_key() {
        let mut m = MemTable::new();
        for k in [&b"zz"[..], b"aa", b"mm", b"bb"] {
            m.insert(k, Entry::value(bv(b"v")));
        }
        let keys: Vec<&[u8]> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![&b"aa"[..], b"bb", b"mm", b"zz"]);
    }

    /// Keys of 0..=40 bytes over two byte values behind a prefix they all
    /// share, of none, 7 or 29 arbitrary bytes, so the sort's word starts
    /// at different places and keys end inside it, on its edge and past it;
    /// inline (<= 22 B) and boxed keys come up in every run, and with no
    /// prefix the empty key too.
    fn key_pool() -> impl Strategy<Value = Vec<Vec<u8>>> {
        let prefix = (0usize..3, vec(any::<u8>(), 29..30));
        (prefix, vec(vec(0u8..2, 0..41), 1..24)).prop_map(|((len, prefix), keys)| {
            let prefix = &prefix[..[0, 7, 29][len]];
            keys.into_iter().map(|key| [prefix, &key].concat()).collect()
        })
    }

    /// Steps of a model run: a pool index (most steps overwrite), a value
    /// and whether the step is a tombstone instead.
    fn steps() -> impl Strategy<Value = Vec<(usize, Vec<u8>, bool)>> {
        vec((0usize..64, vec(any::<u8>(), 0..9), any::<bool>()), 0..200)
    }

    proptest! {
        /// Against a `BTreeMap` model of the same steps: every key of the
        /// run is found or not as the model says, `iter()` yields the
        /// model's entries in its key order, and the count and the bytes
        /// are the model's.
        #[test]
        fn a_memtable_is_a_byte_accounted_ordered_map(pool in key_pool(), steps in steps()) {
            let mut m = MemTable::new();
            let mut model: BTreeMap<Vec<u8>, Entry> = BTreeMap::new();
            for (i, value, tomb) in &steps {
                let e = if *tomb { Entry::tombstone() } else { Entry::value(bv(value)) };
                let key = &pool[i % pool.len()];
                m.insert(key, e.clone());
                model.insert(key.clone(), e);
            }
            for key in &pool {
                prop_assert_eq!(m.get(key), model.get(key));
                let longer = [&key[..], b"x"].concat();
                prop_assert_eq!(m.get(&longer), model.get(&longer));
            }
            let got: Vec<(&[u8], &Entry)> = m.iter().collect();
            let want: Vec<(&[u8], &Entry)> = model.iter().map(|(k, e)| (&k[..], e)).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(m.len(), model.len());
            prop_assert_eq!(m.iter().len(), model.len());
            let bytes = model.iter().map(|(k, e)| k.len() + e.value.len()).sum::<usize>() as u64;
            prop_assert_eq!(m.bytes(), bytes + model.len() as u64 * ENTRY_OVERHEAD);
        }
    }

    #[test]
    fn iter_sees_tombstones() {
        let mut m = MemTable::new();
        m.insert(b"a", Entry::value(bv(b"1")));
        m.insert(b"b", Entry::tombstone());
        let tombs: Vec<bool> = m.iter().map(|(_, e)| e.tombstone).collect();
        assert_eq!(tombs, vec![false, true]);
    }
}
