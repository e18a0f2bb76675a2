//! MemTables: the in-memory write staging structure (paper §2.3-§2.4).
//!
//! A database owns four kinds of MemTable — local, immutable local, remote,
//! and immutable remote. All four share this one structure: an ordered map
//! of entries plus byte accounting. The paper's MemTable is a red-black
//! tree; what it needs from it — O(log n) insert/lookup and key-ordered
//! iteration for the flush — is what `std`'s B-tree map provides (DESIGN §1).
//! "Immutable" is a usage mode: a frozen table is wrapped in `Arc` and only
//! read (by gets walking the flushing / migration queues, and by the
//! compaction or dispatcher task consuming it).

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::key::Key;

/// Fixed per-entry metadata overhead counted against the MemTable capacity
/// (tree node links, tombstone flag, owner rank).
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

/// An in-memory, byte-accounted, key-sorted table of [`Entry`]s.
#[derive(Debug, Default)]
pub struct MemTable {
    tree: BTreeMap<Key, Entry>,
    bytes: u64,
}

impl MemTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries (tombstones included).
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
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
        match self.tree.insert(Key::from(key), entry) {
            Some(old) => {
                self.bytes = self.bytes - Self::entry_size(key, &old) + new_size;
            }
            None => self.bytes += new_size,
        }
    }

    /// Look up an entry (tombstones are returned — the caller decides what a
    /// tombstone means at its level of the search).
    pub fn get(&self, key: &[u8]) -> Option<&Entry> {
        self.tree.get(key)
    }

    /// Key-sorted iteration.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[u8], &Entry)> {
        self.tree.iter().map(|(k, e)| (k.as_slice(), e))
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

    #[test]
    fn iter_sees_tombstones() {
        let mut m = MemTable::new();
        m.insert(b"a", Entry::value(bv(b"1")));
        m.insert(b"b", Entry::tombstone());
        let tombs: Vec<bool> = m.iter().map(|(_, e)| e.tombstone).collect();
        assert_eq!(tombs, vec![false, true]);
    }
}
