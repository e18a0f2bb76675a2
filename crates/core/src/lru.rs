//! Byte-capacity LRU cache: the local and remote caches (paper §2.3).
//!
//! "The cache is a kind of MemTable, and it is managed in a LRU fashion. The
//! local and remote caches store key-value pairs fetched from SSTables and
//! other remote MPI ranks, respectively."
//!
//! It is indexed as a MemTable is: by the store's one keyless hash index
//! (`index.rs`), whose 12-byte slots hold a key's hash and its entry's
//! number in an arena, the key checked in the arena. The arena is split in
//! two dense arrays: the entries, each a key (inline up to 22 bytes,
//! `key.rs`) and its [`CacheEntry`] in one 64-byte line, and the links of
//! the doubly-linked recency list, 8 bytes an entry. At 50k entries the
//! index and the links fit in a core's L2 together, so a hit reads one line
//! outside it, its entry, before the value. The list is a ring: the most
//! recent entry's `prev` is the least recent. A free entry is chained
//! through its `next` link and reused last-freed first. An eviction finds its
//! victim's slot by hash and arena number, comparing no key, and removes it
//! by shifting back (`Index::remove`). No per-entry allocation beyond the
//! value's bytes and a key too long to sit in its entry; O(1) get, insert
//! and evict.

use bytes::Bytes;

use crate::index::{key_hash, Index, Slot, Vacancy};
use crate::key::Key;
use crate::memtable::NO_OWNER;

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

/// The arena number of no entry: the list's ends, and the free chain's.
const NONE: u32 = u32::MAX;

/// A cached key and its entry, one cache line; a free one holds the empty
/// key and a tombstone.
#[derive(Debug)]
#[repr(align(64))]
struct Cached {
    key: Key,
    entry: CacheEntry,
}

/// An entry's neighbours in the recency ring, by arena number: `prev` more
/// recent, `next` less, the most and least recent each other's. A free
/// entry's `next` is the next free one.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// Byte-bounded LRU map from keys to [`CacheEntry`].
#[derive(Debug)]
pub struct LruCache {
    index: Index,
    entries: Vec<Cached>,
    links: Vec<Link>,
    free: u32,
    head: u32, // most recent; its `prev` is the least recent
    bytes: u64,
    capacity: u64,
    hits: u64,
    misses: u64,
}

#[allow(
    clippy::indexing_slicing,
    reason = "an arena number comes from the index or the list, and the arena never shrinks"
)]
impl LruCache {
    /// Cache bounded to `capacity` bytes of key+value payload.
    pub fn new(capacity: u64) -> Self {
        Self {
            index: Index::default(),
            entries: Vec::new(),
            links: Vec::new(),
            free: NONE,
            head: NONE,
            bytes: 0,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.len == 0
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
        let Link { prev, next } = self.links[i as usize];
        if next == i {
            self.head = NONE;
            return;
        }
        self.links[prev as usize].next = next;
        self.links[next as usize].prev = prev;
        if self.head == i {
            self.head = next;
        }
    }

    fn push_front(&mut self, i: u32) {
        let head = std::mem::replace(&mut self.head, i);
        if head == NONE {
            self.links[i as usize] = Link { prev: i, next: i };
            return;
        }
        let tail = self.links[head as usize].prev;
        self.links[i as usize] = Link { prev: tail, next: head };
        self.links[head as usize].prev = i;
        self.links[tail as usize].next = i;
    }

    /// Make entry `i` the most recent.
    fn promote(&mut self, i: u32) {
        if i != self.head {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn entry_size(key: &[u8], e: &CacheEntry) -> u64 {
        (key.len() + e.value.len()) as u64
    }

    /// The slot holding `key`, and its entry's arena number. An empty cache
    /// hashes nothing.
    fn lookup(&self, key: &[u8]) -> Option<(usize, u32)> {
        if self.is_empty() {
            return None;
        }
        self.find(key_hash(key), key).ok()
    }

    /// A probe for `key`, hashed `hash`, each matching hash checked against
    /// the key in its entry.
    fn find(&self, hash: u32, key: &[u8]) -> Result<(usize, u32), Vacancy> {
        let entries = &self.entries;
        self.index.find(hash, |at| (entries[at as usize].key.as_slice() == key).then_some(at))
    }

    /// Look up and promote to most-recently-used.
    pub fn get(&mut self, key: &[u8]) -> Option<CacheEntry> {
        match self.lookup(key) {
            Some((_, i)) => {
                self.hits += 1;
                self.promote(i);
                Some(self.entries[i as usize].entry.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peek without promoting or counting (tests/diagnostics).
    pub fn peek(&self, key: &[u8]) -> Option<&CacheEntry> {
        self.lookup(key).map(|(_, i)| &self.entries[i as usize].entry)
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
        let hash = key_hash(key);
        match self.find(hash, key) {
            Ok((_, i)) => {
                let cached = &mut self.entries[i as usize];
                let old = Self::entry_size(key, &cached.entry);
                self.bytes = self.bytes - old + size;
                cached.entry = entry;
                self.promote(i);
            }
            Err(vacancy) => {
                let vacancy = if self.index.is_full() {
                    self.index.grow();
                    self.index.vacancy(hash)
                } else {
                    vacancy
                };
                let i = self.take_free(Cached { key: Key::from(key), entry });
                self.index.place(vacancy, Slot { hash, at: i, owner: NO_OWNER });
                self.push_front(i);
                self.bytes += size;
            }
        }
        while self.bytes > self.capacity {
            self.evict_lru();
        }
    }

    /// Put `cached` in the last-freed entry, or a new one: its number.
    fn take_free(&mut self, cached: Cached) -> u32 {
        let i = self.free;
        if let Some(slot) = self.entries.get_mut(i as usize) {
            *slot = cached;
            self.free = self.links[i as usize].next;
            return i;
        }
        self.entries.push(cached);
        self.links.push(Link { prev: NONE, next: NONE });
        (self.entries.len() - 1) as u32
    }

    /// Unlink entry `i`, whose slot is gone, uncount its bytes, drop its
    /// key and value and chain it first on the free list.
    fn release(&mut self, i: u32) {
        self.unlink(i);
        let cached = &mut self.entries[i as usize];
        let key = std::mem::take(&mut cached.key);
        let entry = std::mem::replace(&mut cached.entry, CacheEntry::tombstone());
        self.bytes -= Self::entry_size(key.as_slice(), &entry);
        self.links[i as usize].next = self.free;
        self.free = i;
    }

    /// Evict the least recent entry: its slot is found by its hash and
    /// arena number, comparing no key.
    fn evict_lru(&mut self) {
        let i = self.links[self.head as usize].prev;
        let hash = key_hash(self.entries[i as usize].key.as_slice());
        if let Some(pos) = self.index.position(hash, i) {
            self.index.remove(pos);
        }
        self.release(i);
    }

    /// Drop a key if cached. Returns whether it was present. This is the
    /// stale-entry eviction on put (paper §2.4: "a stale cache entry that
    /// has the same key as the new key-value pair is evicted").
    pub fn invalidate(&mut self, key: &[u8]) -> bool {
        let Some((pos, i)) = self.lookup(key) else { return false };
        self.index.remove(pos);
        self.release(i);
        true
    }

    /// Drop everything (protection-attribute transitions, §3.2).
    pub fn clear(&mut self) {
        self.index = Index::default();
        self.entries.clear();
        self.links.clear();
        self.free = NONE;
        self.head = NONE;
        self.bytes = 0;
    }

    /// The index's occupied slots, each with its position, the hash it
    /// keeps, and the key of its entry (empty past the arena; the auditor
    /// checks the hash).
    pub(crate) fn keys(&self) -> impl Iterator<Item = (usize, u32, &[u8])> {
        self.index.occupied().map(|(pos, slot)| {
            let key = self.entries.get(slot.at as usize).map(|c| c.key.as_slice());
            (pos, slot.hash, key.unwrap_or_default())
        })
    }

    /// The position of the slot a lookup of `key` finds, if one does.
    pub(crate) fn slot_of(&self, key: &[u8]) -> Option<usize> {
        self.lookup(key).map(|(pos, _)| pos)
    }

    /// The recency ring as its `next` links hold it, from the most recent
    /// entry up to the first that leads back to it: each entry's arena
    /// number, the `prev` it records, its key and entry. The walk takes at
    /// most one step more than the arena has entries, so a ring that does
    /// not close shows as a list too long.
    pub(crate) fn recency(&self) -> impl Iterator<Item = (u32, u32, &[u8], &CacheEntry)> {
        let head = self.head;
        let ring = self.chain(head).enumerate().take_while(move |&(n, (i, _))| n == 0 || i != head);
        ring.map(|(_, (i, prev))| {
            let cached = &self.entries[i as usize];
            (i, prev, cached.key.as_slice(), &cached.entry)
        })
    }

    /// The arena numbers of the free entries.
    pub(crate) fn free_entries(&self) -> impl Iterator<Item = u32> + '_ {
        self.chain(self.free).map(|(i, _)| i)
    }

    /// The entries from `first` on through their `next` links, each with
    /// its `prev`, at most one more than the arena holds.
    fn chain(&self, first: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let mut at = first;
        std::iter::from_fn(move || {
            let link = self.links.get(at as usize)?;
            let i = std::mem::replace(&mut at, link.next);
            Some((i, link.prev))
        })
        .take(self.links.len() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::with_hash_bits;
    use crate::sanity::{audit_cache, AuditReport, ViolationKind};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn entry(v: &[u8]) -> CacheEntry {
        CacheEntry::value(Bytes::copy_from_slice(v))
    }

    /// A hit reads one line outside the index and the links: its entry.
    #[test]
    fn an_entry_is_one_cache_line_and_a_link_eight_bytes() {
        assert_eq!(std::mem::size_of::<Cached>(), 64);
        assert_eq!(std::mem::size_of::<Link>(), 8);
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
        assert!(c.entries.len() <= 16, "arena grew to {}", c.entries.len());
    }

    /// A plain LRU to hold the cache to: entries most recent first, found
    /// by a scan.
    struct Reference {
        order: Vec<(Vec<u8>, CacheEntry)>,
        bytes: u64,
        capacity: u64,
        hits: u64,
        misses: u64,
        evictions: usize,
    }

    impl Reference {
        fn new(capacity: u64) -> Self {
            Self { order: Vec::new(), bytes: 0, capacity, hits: 0, misses: 0, evictions: 0 }
        }

        fn take(&mut self, key: &[u8]) -> Option<CacheEntry> {
            let at = self.order.iter().position(|(k, _)| k == key)?;
            let (k, e) = self.order.remove(at);
            self.bytes -= LruCache::entry_size(&k, &e);
            Some(e)
        }

        fn put_front(&mut self, key: &[u8], e: CacheEntry) {
            self.bytes += LruCache::entry_size(key, &e);
            self.order.insert(0, (key.to_vec(), e));
        }

        fn get(&mut self, key: &[u8]) -> Option<CacheEntry> {
            let Some(e) = self.take(key) else {
                self.misses += 1;
                return None;
            };
            self.hits += 1;
            self.put_front(key, e.clone());
            Some(e)
        }

        fn insert(&mut self, key: &[u8], e: CacheEntry) {
            self.take(key);
            if LruCache::entry_size(key, &e) > self.capacity {
                return;
            }
            self.put_front(key, e);
            while self.bytes > self.capacity {
                let (k, e) = self.order.pop().unwrap();
                self.bytes -= LruCache::entry_size(&k, &e);
                self.evictions += 1;
            }
        }
    }

    /// One step of a model run: what it does (of 100: 40 gets, 40
    /// inserts — a tombstone one time in two — 9 oversized inserts, 10
    /// invalidations, one clear), to which key of the pool, with which
    /// value.
    type Step = (u8, usize, Vec<u8>, bool);

    /// Run `steps` on a cache of `capacity` bytes and on the reference:
    /// after every step each hit, value, `len()`, `bytes()` and `stats()`
    /// agree, the recency list holds the reference's keys and entries in
    /// its order — so the same ones were evicted — and the auditor finds
    /// nothing. The slots the index grew to, and how many entries the
    /// reference evicted.
    fn run_against_the_reference(
        capacity: u64,
        pool: &[Vec<u8>],
        steps: &[Step],
    ) -> (usize, usize) {
        let mut cache = LruCache::new(capacity);
        let mut model = Reference::new(capacity);
        for (n, (kind, i, value, tomb)) in steps.iter().enumerate() {
            let key = &pool[i % pool.len()][..];
            let e = if *tomb { CacheEntry::tombstone() } else { entry(value) };
            match kind {
                0..40 => assert_eq!(cache.get(key), model.get(key), "step {n}: get {key:?}"),
                40..80 => {
                    cache.insert(key, e.clone());
                    model.insert(key, e);
                }
                80..89 => {
                    let big = entry(&vec![0; capacity as usize + 1]);
                    cache.insert(key, big.clone());
                    model.insert(key, big);
                }
                89..99 => {
                    assert_eq!(cache.invalidate(key), model.take(key).is_some(), "step {n}");
                }
                _ => {
                    cache.clear();
                    model.order.clear();
                    model.bytes = 0;
                }
            }
            let got: Vec<(&[u8], &CacheEntry)> =
                cache.recency().map(|(_, _, k, e)| (k, e)).collect();
            let want: Vec<(&[u8], &CacheEntry)> =
                model.order.iter().map(|(k, e)| (&k[..], e)).collect();
            assert_eq!(got, want, "step {n}");
            assert_eq!(cache.len(), model.order.len(), "step {n}");
            assert_eq!(cache.bytes(), model.bytes, "step {n}");
            assert_eq!(cache.stats(), (model.hits, model.misses), "step {n}");
            let mut report = AuditReport::default();
            audit_cache("model", &cache, &mut report);
            assert!(report.is_clean(), "step {n}: {}", report.render());
        }
        (cache.index.slots.len(), model.evictions)
    }

    /// Keys of 0..=29 bytes over three byte values, so that keys are each
    /// other's prefixes and both sides of the inline bound come up; up to
    /// 47 of them, so the index grows four times.
    fn key_pool() -> impl Strategy<Value = Vec<Vec<u8>>> {
        vec(vec(0u8..3, 0..30), 1..48)
    }

    fn model_steps() -> impl Strategy<Value = Vec<Step>> {
        vec((0u8..100, 0usize..64, vec(any::<u8>(), 0..48), any::<bool>()), 0..300)
    }

    proptest! {
        /// Against a plain LRU of the same steps, with full hashes
        /// (`run_against_the_reference`).
        #[test]
        fn an_lru_cache_is_its_reference_model(
            capacity in 16u64..2048,
            pool in key_pool(),
            steps in model_steps(),
        ) {
            run_against_the_reference(capacity, &pool, &steps);
        }

        /// The same with hashes cut to 0 to 3 bits: every key of a run may
        /// share its hash with every other, so a hit is told from its
        /// neighbours only by the key in its entry, and an eviction or
        /// invalidation shifts long runs back.
        #[test]
        fn an_lru_cache_of_colliding_hashes_is_its_reference_model(
            capacity in 16u64..2048,
            pool in key_pool(),
            steps in model_steps(),
            bits in 0u32..4,
        ) {
            with_hash_bits(bits, || run_against_the_reference(capacity, &pool, &steps));
        }
    }

    /// Hundreds of keys over 3-bit hashes, through seven growths and
    /// hundreds of evictions: the reference run holds throughout.
    #[test]
    fn colliding_hashes_match_the_reference_across_growths_and_evictions() {
        let pool: Vec<Vec<u8>> = (0..300).map(|i| format!("key-{i}").into_bytes()).collect();
        // Every key put once, then gets, inserts of 4–64-byte values and
        // tombstones, oversized inserts and invalidations; no clear.
        let steps: Vec<Step> = (0..300)
            .map(|i| (40, i, vec![i as u8; 4], false))
            .chain(
                (0..3000)
                    .map(|n| ((n * 37 % 99) as u8, n * 7, vec![n as u8; 4 + n % 61], n % 5 == 0)),
            )
            .collect();
        let (slots, evictions) =
            with_hash_bits(3, || run_against_the_reference(3500, &pool, &steps));
        assert_eq!(slots, 4 << 7);
        assert!(evictions > 100, "{evictions} evictions");
    }

    /// The auditor reads the index and the list: a slot whose hash is not
    /// its key's, an entry whose `prev` is not the entry before it, and a
    /// byte count the entries do not add up to are each an `LsmState`
    /// fault.
    #[test]
    fn the_auditor_convicts_a_wrong_hash_a_broken_link_and_a_miscount() {
        let faults = |c: &LruCache| {
            let mut report = AuditReport::default();
            audit_cache("planted", c, &mut report);
            assert!(report.violations.iter().all(|v| v.kind == ViolationKind::LsmState));
            report.violations.into_iter().map(|v| v.detail).collect::<Vec<_>>()
        };
        let cache = || {
            let mut c = LruCache::new(100);
            for key in [&b"a"[..], b"b", b"c"] {
                c.insert(key, entry(b"v"));
            }
            c.invalidate(b"b");
            c.insert(b"d", entry(b"v"));
            c.insert(b"e", entry(b"v"));
            c
        };
        assert_eq!(faults(&cache()), Vec::<String>::new());

        let mut wrong = cache();
        let pos = wrong.slot_of(b"c").unwrap();
        wrong.index.slots[pos].hash ^= 1 << 31;
        let got = faults(&wrong);
        assert!(got.iter().any(|d| d.contains(&format!("slot {pos} keeps hash"))), "{got:?}");

        let mut broken = cache();
        let (_, i) = broken.lookup(b"c").unwrap();
        broken.links[i as usize].prev = i;
        let got = faults(&broken);
        assert!(got.iter().any(|d| d.contains(&format!("entry {i} links back to {i}"))), "{got:?}");

        let mut miscounted = cache();
        miscounted.bytes += 1;
        let got = faults(&miscounted);
        assert!(got.iter().any(|d| d.contains("recount 8, tracked 9")), "{got:?}");
    }
}
