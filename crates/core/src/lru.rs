//! Byte-capacity LRU cache: the local and remote caches (paper §2.3).
//!
//! "The cache is a kind of MemTable, and it is managed in a LRU fashion. The
//! local and remote caches store key-value pairs fetched from SSTables and
//! other remote MPI ranks, respectively."
//!
//! Implemented as a hash map (a `KeyMap`, seedless like every map of a
//! key) into an index arena forming an intrusive doubly-linked recency list
//! — no per-entry allocation beyond the value's bytes and a key's too long
//! to sit in the slot (`key.rs`), O(1) get/insert/evict.

use bytes::Bytes;

use crate::key::{Key, KeyMap};

/// A cached lookup result: either a value or a cached tombstone (the key is
/// known deleted — caching this avoids re-searching SSTables for it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// Value bytes (empty for tombstones).
    pub value: Bytes,
    /// Whether this entry records a deletion.
    pub tombstone: bool,
}

impl CacheEntry {
    /// A live value entry.
    pub fn value(v: Bytes) -> Self {
        Self { value: v, tombstone: false }
    }

    /// A tombstone entry.
    pub fn tombstone() -> Self {
        Self { value: Bytes::new(), tombstone: true }
    }
}

const NONE: u32 = u32::MAX;

#[derive(Debug)]
struct Slot {
    key: Key,
    entry: CacheEntry,
    prev: u32,
    next: u32,
}

/// Byte-bounded LRU map from keys to [`CacheEntry`].
#[derive(Debug)]
pub struct LruCache {
    map: KeyMap<u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    head: u32, // most recent
    tail: u32, // least recent
    bytes: u64,
    capacity: u64,
    hits: u64,
    misses: u64,
}

impl LruCache {
    /// Cache bounded to `capacity` bytes of key+value payload.
    pub fn new(capacity: u64) -> Self {
        Self {
            map: KeyMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
            bytes: 0,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Current payload bytes held.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Configured byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn unlink(&mut self, i: u32) {
        let (p, n) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        if p != NONE {
            self.slots[p as usize].next = n;
        } else {
            self.head = n;
        }
        if n != NONE {
            self.slots[n as usize].prev = p;
        } else {
            self.tail = p;
        }
    }

    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[i as usize];
            s.prev = NONE;
            s.next = old_head;
        }
        if old_head != NONE {
            self.slots[old_head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NONE {
            self.tail = i;
        }
    }

    fn entry_size(key: &[u8], e: &CacheEntry) -> u64 {
        (key.len() + e.value.len()) as u64
    }

    /// Look up and promote to most-recently-used.
    pub fn get(&mut self, key: &[u8]) -> Option<CacheEntry> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.hits += 1;
                self.unlink(i);
                self.push_front(i);
                Some(self.slots[i as usize].entry.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peek without promoting or counting (tests/diagnostics).
    pub fn peek(&self, key: &[u8]) -> Option<&CacheEntry> {
        self.map.get(key).map(|&i| &self.slots[i as usize].entry)
    }

    /// Insert or replace; evicts LRU entries until the new total fits.
    /// Entries larger than the whole capacity are not cached.
    pub fn insert(&mut self, key: &[u8], entry: CacheEntry) {
        let size = Self::entry_size(key, &entry);
        if size > self.capacity {
            // Too big to cache; also drop any stale cached version.
            self.invalidate(key);
            return;
        }
        if let Some(&i) = self.map.get(key) {
            let old = Self::entry_size(key, &self.slots[i as usize].entry);
            self.bytes = self.bytes - old + size;
            self.slots[i as usize].entry = entry;
            self.unlink(i);
            self.push_front(i);
        } else {
            let key = Key::from(key);
            let slot = Slot { key: key.clone(), entry, prev: NONE, next: NONE };
            let i = if let Some(i) = self.free.pop() {
                self.slots[i as usize] = slot;
                i
            } else {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            };
            self.map.insert(key, i);
            self.push_front(i);
            self.bytes += size;
        }
        while self.bytes > self.capacity {
            self.evict_lru();
        }
    }

    fn evict_lru(&mut self) {
        let i = self.tail;
        debug_assert_ne!(i, NONE, "over capacity with empty list");
        self.unlink(i);
        let key = std::mem::take(&mut self.slots[i as usize].key);
        let size = Self::entry_size(key.as_slice(), &self.slots[i as usize].entry);
        self.slots[i as usize].entry = CacheEntry::tombstone();
        self.map.remove(key.as_slice());
        self.free.push(i);
        self.bytes -= size;
    }

    /// Drop a key if cached. Returns whether it was present. This is the
    /// stale-entry eviction on put (paper §2.4: "a stale cache entry that
    /// has the same key as the new key-value pair is evicted").
    pub fn invalidate(&mut self, key: &[u8]) -> bool {
        if let Some(i) = self.map.remove(key) {
            self.unlink(i);
            let size = Self::entry_size(key, &self.slots[i as usize].entry);
            self.slots[i as usize].key = Key::default();
            self.slots[i as usize].entry = CacheEntry::tombstone();
            self.free.push(i);
            self.bytes -= size;
            true
        } else {
            false
        }
    }

    /// Drop everything (protection-attribute transitions, §3.2).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NONE;
        self.tail = NONE;
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(v: &[u8]) -> CacheEntry {
        CacheEntry::value(Bytes::copy_from_slice(v))
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = LruCache::new(1024);
        c.insert(b"k", entry(b"v"));
        assert_eq!(c.get(b"k").unwrap().value.as_ref(), b"v");
        assert!(c.get(b"missing").is_none());
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(6); // each entry: 1-byte key + 2-byte value = 3
        c.insert(b"a", entry(b"11"));
        c.insert(b"b", entry(b"22"));
        assert_eq!(c.len(), 2);
        // Touch "a" so "b" is LRU.
        c.get(b"a");
        c.insert(b"c", entry(b"33"));
        assert!(c.peek(b"a").is_some());
        assert!(c.peek(b"b").is_none(), "b should have been evicted");
        assert!(c.peek(b"c").is_some());
        assert!(c.bytes() <= 6);
    }

    #[test]
    fn replace_updates_bytes() {
        let mut c = LruCache::new(100);
        c.insert(b"k", entry(b"123456789"));
        assert_eq!(c.bytes(), 10);
        c.insert(b"k", entry(b"1"));
        assert_eq!(c.bytes(), 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn oversized_entry_not_cached_and_invalidates_stale() {
        let mut c = LruCache::new(10);
        c.insert(b"k", entry(b"small"));
        assert!(c.peek(b"k").is_some());
        c.insert(b"k", entry(&[0u8; 100]));
        assert!(c.peek(b"k").is_none(), "stale entry must be dropped");
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn invalidate_works() {
        let mut c = LruCache::new(100);
        c.insert(b"x", entry(b"1"));
        assert!(c.invalidate(b"x"));
        assert!(!c.invalidate(b"x"));
        assert!(c.get(b"x").is_none());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn tombstone_entries_cached() {
        let mut c = LruCache::new(100);
        c.insert(b"dead", CacheEntry::tombstone());
        let e = c.get(b"dead").unwrap();
        assert!(e.tombstone);
        assert!(e.value.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(100);
        for i in 0..10u8 {
            c.insert(&[i], entry(&[i; 3]));
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        // Reusable after clear.
        c.insert(b"z", entry(b"9"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn heavy_churn_respects_capacity() {
        let mut c = LruCache::new(1000);
        for i in 0..10_000u32 {
            let k = format!("key-{}", i % 300);
            c.insert(k.as_bytes(), entry(&i.to_le_bytes()));
            assert!(c.bytes() <= 1000);
        }
        assert!(!c.is_empty());
        // Recency: the most recently inserted key (i = 9999 -> 9999 % 300)
        // must be present.
        assert!(c.peek(b"key-99").is_some());
    }

    #[test]
    fn slot_recycling_bounds_arena() {
        let mut c = LruCache::new(30);
        for i in 0..1000u32 {
            c.insert(format!("{i:04}").as_bytes(), entry(b"v"));
        }
        // Capacity 30 with 5-byte entries -> at most 6 live + freed slots
        // recycled; the arena must stay small.
        assert!(c.slots.len() <= 16, "arena grew to {}", c.slots.len());
    }
}
