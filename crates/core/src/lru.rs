//! Byte-capacity LRU cache: the local and remote caches (paper §2.3).
//!
//! "The cache is a kind of MemTable, and it is managed in a LRU fashion. The
//! local and remote caches store key-value pairs fetched from SSTables and
//! other remote MPI ranks, respectively."
//!
//! So it is one (`log.rs`): the same record log under the same index, in
//! chunks of its own kind (`CacheChunk`), so that a hit's value is a slice
//! of its frozen chunk — no allocation, and nothing a caller holds changes.
//! A slot's tag is its entry's number; an entry is a 16-byte link in a
//! dense array — its recency-ring neighbours, its key's hash and its
//! logical size — so an eviction finds its victim's slot by hash and number
//! and reads no record. A fill or a replace appends; a
//! removal counts the record dead. Byte accounting is logical, key and value
//! bytes, so the capacity, eviction order, hits and misses are those of a
//! cache of pairs.

use std::ops::Deref;

use bytes::{BufMut, Bytes, BytesMut};

use crate::index::{key_hash, Index, Slot};
use crate::log::{split, Chunk, Log};
use crate::sstable::{Record, RECORD_HEADER};

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

/// A chunk of the cache's log, with the bytes of its live records: open,
/// written at its end, while it is the last; frozen whole
/// (`BytesMut::freeze`, no copy), its unused room zeroed and counted dead,
/// once the log moves past it or a hit lands in it. A rewrite copies it if
/// it is at most half live.
#[derive(Debug)]
pub(crate) enum CacheChunk {
    Open(BytesMut, usize),
    Frozen(Bytes, usize),
}

impl Default for CacheChunk {
    fn default() -> Self {
        Self::Frozen(Bytes::new(), 0)
    }
}

impl Deref for CacheChunk {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Self::Open(open, _) => open,
            Self::Frozen(frozen, _) => frozen,
        }
    }
}

impl Chunk for CacheChunk {
    fn with_room(size: usize) -> Self {
        Self::Open(BytesMut::with_capacity(size), 0)
    }

    fn room(&mut self, len: usize) -> Option<&mut impl BufMut> {
        match self {
            Self::Open(open, _) if open.capacity() - open.len() >= len => Some(open),
            _ => None,
        }
    }

    fn close(&mut self) -> usize {
        let Self::Open(open, live) = self else { return 0 };
        let (mut open, live) = (std::mem::take(open), *live);
        let room = open.capacity() - open.len();
        open.resize(open.capacity(), 0);
        *self = Self::Frozen(open.freeze(), live);
        room
    }

    fn live(&mut self) -> Option<&mut usize> {
        let (Self::Open(_, live) | Self::Frozen(_, live)) = self;
        Some(live)
    }

    fn copied(&self) -> bool {
        let (Self::Open(_, live) | Self::Frozen(_, live)) = self;
        2 * *live <= self.len()
    }
}

/// The number of no entry: the ring's ends, the free chain's.
const NONE: u32 = u32::MAX;

/// An entry: its neighbours by number, `prev` more recent and `next` less
/// (a free entry's `next` is the next free one), its key's hash and its
/// size, key and value bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Link {
    pub(crate) prev: u32,
    pub(crate) next: u32,
    pub(crate) hash: u32,
    pub(crate) size: u32,
}

/// Byte-bounded LRU map from keys to [`CacheEntry`].
#[derive(Debug)]
pub struct LruCache {
    pub(crate) index: Index,
    pub(crate) log: Log<CacheChunk>,
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
    reason = "an entry number comes from the index or the ring, the links never shrink, and a \
              slot's place is in a chunk that exists"
)]
impl LruCache {
    /// Cache bounded to `capacity` bytes of key+value payload.
    pub fn new(capacity: u64) -> Self {
        Self {
            index: Index::default(),
            log: Log::default(),
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
        let Link { prev, next, .. } = self.links[i as usize];
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
        let (prev, next) = if head == NONE {
            (i, i)
        } else {
            let tail = self.links[head as usize].prev;
            self.links[head as usize].prev = i;
            self.links[tail as usize].next = i;
            (tail, head)
        };
        let link = &mut self.links[i as usize];
        (link.prev, link.next) = (prev, next);
    }

    /// Make entry `i` the most recent.
    fn promote(&mut self, i: u32) {
        if i != self.head {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Look up and promote to most-recently-used.
    pub fn get(&mut self, key: &[u8]) -> Option<CacheEntry> {
        let Some((pos, rec)) = self.log.lookup(&self.index, key) else {
            self.misses += 1;
            return None;
        };
        let (Slot { at, tag: i, .. }, len, tombstone) =
            (self.index.slots[pos], rec.value.len(), rec.tombstone);
        let (n, offset) = split(at);
        // A hit freezes the open chunk, the last, to slice it.
        if let CacheChunk::Open(..) = self.log.chunks[n] {
            self.log.close(true);
        }
        let CacheChunk::Frozen(chunk, _) = &self.log.chunks[n] else { return None };
        let start = offset + RECORD_HEADER + key.len();
        let value = chunk.slice(start..start + len);
        self.hits += 1;
        self.promote(i);
        self.log.tidy(&mut self.index);
        Some(CacheEntry { value, tombstone })
    }

    /// Peek without promoting or counting (tests/diagnostics): the record
    /// in the log.
    pub fn peek(&self, key: &[u8]) -> Option<Record<'_>> {
        self.log.lookup(&self.index, key).map(|(_, rec)| rec)
    }

    /// Insert or replace; evicts LRU entries until the new total fits.
    /// Entries larger than the whole capacity are not cached.
    pub fn insert(&mut self, key: &[u8], entry: CacheEntry) {
        self.put(Record { key, value: &entry.value, tombstone: entry.tombstone });
    }

    /// Insert `rec` as [`LruCache::insert`] does, copying it into the log
    /// from wherever it lies. An entry larger than a link's 32-bit size
    /// counts as too big.
    pub(crate) fn put(&mut self, rec: Record<'_>) {
        let (key, size) = (rec.key, rec.key.len() + rec.value.len());
        let Some(size32) = u32::try_from(size).ok().filter(|_| size as u64 <= self.capacity) else {
            // Too big to cache; also drop any stale cached version.
            self.invalidate(key);
            return;
        };
        // A replace is a removal and a fill; the entry's number comes back.
        let hash = key_hash(key);
        let vacancy = match self.log.find(&self.index, hash, key) {
            Ok((pos, _)) => {
                self.remove(pos);
                self.index.vacancy(hash)
            }
            Err(vacancy) => vacancy,
        };
        let i = match self.links.get(self.free as usize) {
            Some(free) => std::mem::replace(&mut self.free, free.next),
            None => {
                self.links.push(Link { prev: NONE, next: NONE, hash, size: 0 });
                (self.links.len() - 1) as u32
            }
        };
        let at = self.log.append(rec, RECORD_HEADER + size);
        self.index.insert(vacancy, Slot { hash, at, tag: i });
        let link = &mut self.links[i as usize];
        (link.hash, link.size) = (hash, size32);
        self.push_front(i);
        self.bytes += size as u64;
        while self.bytes > self.capacity {
            // The least recent entry's slot, found by its hash and number.
            let i = self.links[self.head as usize].prev;
            let Some(pos) = self.index.position(self.links[i as usize].hash, |s| s.tag == i) else {
                break;
            };
            self.remove(pos);
        }
        self.log.tidy(&mut self.index);
    }

    /// Empty slot `pos`: unlink its entry, count its bytes out and its
    /// record dead, and chain the entry first on the free list.
    fn remove(&mut self, pos: usize) {
        let Slot { at, tag: i, .. } = self.index.slots[pos];
        self.index.remove(pos);
        self.unlink(i);
        let link = &mut self.links[i as usize];
        self.bytes -= u64::from(link.size);
        self.log.kill(at, RECORD_HEADER + link.size as usize);
        link.next = self.free;
        self.free = i;
    }

    /// Drop a key if cached. Returns whether it was present. This is the
    /// stale-entry eviction on put (paper §2.4: "a stale cache entry that
    /// has the same key as the new key-value pair is evicted").
    pub fn invalidate(&mut self, key: &[u8]) -> bool {
        let Some((pos, _)) = self.log.lookup(&self.index, key) else { return false };
        self.remove(pos);
        self.log.tidy(&mut self.index);
        true
    }

    /// Drop everything (protection-attribute transitions, §3.2).
    pub fn clear(&mut self) {
        *self = Self { hits: self.hits, misses: self.misses, ..Self::new(self.capacity) };
    }

    /// The recency ring as its `next` links hold it, from the most recent
    /// entry up to the first that leads back to it: each entry's number,
    /// link and the record at its slot's place, if it has a slot (found by
    /// hash and number) and a record is there. The walk takes at most one
    /// step more than there are entries, so a ring that does not close
    /// shows as a list too long.
    pub(crate) fn recency(&self) -> impl Iterator<Item = (u32, Link, Option<Record<'_>>)> {
        let head = self.head;
        let ring = self.chain(head).enumerate().take_while(move |&(n, (i, _))| n == 0 || i != head);
        ring.map(|(_, (i, link))| {
            let slot = self.index.position(link.hash, |s| s.tag == i);
            let record = slot.and_then(|pos| self.log.record(self.index.slots[pos].at));
            (i, link, record.map(|enc| enc.rec))
        })
    }

    /// The numbers of the free entries.
    pub(crate) fn free_entries(&self) -> impl Iterator<Item = u32> + '_ {
        self.chain(self.free).map(|(i, _)| i)
    }

    /// The entries from `first` on through their `next` links, each with
    /// its link, at most one more than there are.
    fn chain(&self, first: u32) -> impl Iterator<Item = (u32, Link)> + '_ {
        let mut at = first;
        std::iter::from_fn(move || {
            let link = *self.links.get(at as usize)?;
            Some((std::mem::replace(&mut at, link.next), link))
        })
        .take(self.links.len() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::with_hash_bits;
    use crate::log::{CHUNK, FIRST_CHUNK};
    use crate::sanity::{audit_cache, AuditReport, ViolationKind};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn entry(v: &[u8]) -> CacheEntry {
        CacheEntry::value(Bytes::copy_from_slice(v))
    }

    /// Key and value bytes: what an entry counts against the capacity.
    fn size(key: &[u8], e: &CacheEntry) -> u64 {
        (key.len() + e.value.len()) as u64
    }

    /// Bytes a chunk takes: a frozen one whole, an open one to its
    /// capacity.
    fn capacity(chunk: &CacheChunk) -> usize {
        match chunk {
            CacheChunk::Open(open, _) => open.capacity(),
            CacheChunk::Frozen(frozen, _) => frozen.len(),
        }
    }

    /// Bytes the log's chunks take.
    fn log_capacity(c: &LruCache) -> usize {
        c.log.chunks.iter().map(capacity).sum()
    }

    /// The position of `key`'s slot, and its entry's number.
    fn slot_of(c: &LruCache, key: &[u8]) -> (usize, u32) {
        let (pos, _) = c.log.lookup(&c.index, key).unwrap();
        (pos, c.index.slots[pos].tag)
    }

    /// An eviction reads the index and the links alone: each link holds
    /// its ring neighbours and its key's hash and size.
    #[test]
    fn a_link_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Link>(), 16);
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
        // Capacity 30 with 5-byte entries -> at most 6 live + freed links
        // recycled; the links must stay few.
        assert!(c.links.len() <= 16, "{} links", c.links.len());
    }

    /// A hit freezes the chunk it lands in: the frozen one keeps its unused
    /// room, counted dead, and the next record opens a chunk of the first
    /// size. A record in a chunk of its own is a hit too.
    #[test]
    fn a_hit_freezes_its_chunk() {
        let mut c = LruCache::new(1 << 30);
        (0..400u32).for_each(|i| c.insert(&i.to_be_bytes(), entry(&[0; 87]))); // 100-byte records
        let Some(CacheChunk::Open(open, _)) = c.log.chunks.last() else { panic!("no open chunk") };
        let (dead, room) = (c.log.dead, open.capacity() - open.len());
        assert!(c.get(&399u32.to_be_bytes()).is_some());
        assert_eq!(c.log.dead, dead + room);
        assert!(
            matches!(c.log.chunks.last(), Some(CacheChunk::Frozen(frozen, _)) if frozen.len() == CHUNK)
        );
        c.insert(b"next", entry(b"v"));
        assert_eq!(c.log.chunks.last().map(capacity), Some(FIRST_CHUNK));
        let big = Bytes::from(vec![7; CHUNK + 1]);
        c.insert(b"big", CacheEntry::value(big.clone()));
        assert_eq!(c.get(b"big").unwrap().value, big);
    }

    /// A value a hit returned is a slice of a frozen chunk: it stays as it
    /// was when its entry is replaced, invalidated or evicted, and when the
    /// log is rewritten under it.
    #[test]
    fn a_value_a_hit_returned_outlives_its_entry_and_the_log() {
        let mut c = LruCache::new(200);
        let pairs = [(&b"a"[..], &b"alpha"[..]), (b"b", b"beta"), (b"c", b"gamma")];
        for (key, value) in pairs {
            c.insert(key, entry(value));
        }
        let held: Vec<Bytes> = pairs.iter().map(|(key, _)| c.get(key).unwrap().value).collect();
        c.insert(b"a", entry(b"ALPHA, longer"));
        assert!(c.invalidate(b"b"));
        let mut rewrites = 0;
        for n in 0..40u8 {
            let dead = c.log.dead;
            c.insert(&[n], entry(&[n; 30]));
            rewrites += usize::from(c.log.dead < dead);
        }
        assert!(c.peek(b"c").is_none() && c.peek(b"a").is_none());
        assert!(rewrites >= 3, "{rewrites} rewrites");
        for ((_, value), held) in pairs.iter().zip(&held) {
            assert_eq!(&held[..], *value);
        }
    }

    /// Filling the cache and then hitting the key just put freezes every
    /// chunk after one record. The frozen room counts dead and the rewrite
    /// rule — dead bytes reaching live ones — bounds it: the chunks never
    /// take more than twice the live records and one chunk.
    #[test]
    fn filling_then_hitting_the_newest_key_keeps_the_log_within_twice_its_live_bytes() {
        let mut c = LruCache::new(64 << 10);
        let mut rewrites = 0;
        for n in 0..20_000u32 {
            let key = format!("key-{n}");
            let dead = c.log.dead;
            c.insert(key.as_bytes(), entry(&[n as u8; 100]));
            assert_eq!(c.get(key.as_bytes()).unwrap().value, entry(&[n as u8; 100]).value);
            rewrites += usize::from(c.log.dead < dead);
            let (held, live) = (log_capacity(&c), c.log.live);
            assert!(held <= 2 * live + CHUNK, "step {n}: {held} B of chunks for {live} live");
        }
        assert!(rewrites > 3, "{rewrites} rewrites");
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
            self.bytes -= size(&k, &e);
            Some(e)
        }

        fn put_front(&mut self, key: &[u8], e: CacheEntry) {
            self.bytes += size(key, &e);
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
            if size(key, &e) > self.capacity {
                return;
            }
            self.put_front(key, e);
            while self.bytes > self.capacity {
                let (k, e) = self.order.pop().unwrap();
                self.bytes -= size(&k, &e);
                self.evictions += 1;
            }
        }

        /// The bytes of its entries as records.
        fn encoded(&self) -> usize {
            self.order.iter().map(|(k, e)| RECORD_HEADER + k.len() + e.value.len()).sum()
        }
    }

    /// One step of a model run: what it does (of 100: 40 gets, 40
    /// inserts — a tombstone one time in two — 9 oversized inserts, 10
    /// invalidations, one clear), to which key of the pool, with which
    /// value.
    type Step = (u8, usize, Vec<u8>, bool);

    /// What a run of the reference came to: the slots the index grew to,
    /// the entries the reference evicted, and the rewrites of the log.
    struct Run {
        slots: usize,
        evictions: usize,
        rewrites: usize,
    }

    /// Run `steps` on a cache of `capacity` bytes and on the reference,
    /// then a churn that rewrites the log: a dozen inserts of three keys
    /// outside the pool, each of half the capacity, so each evicts the one
    /// before last. After every step each hit, value, `len()`, `bytes()`
    /// and `stats()` agree, the recency ring holds the reference's keys and
    /// entries in its order — so the same ones were evicted — the log's
    /// live bytes are the reference's records' and its dead bytes no more,
    /// and the auditor finds nothing. At least three rewrites happen.
    fn run_against_the_reference(capacity: u64, pool: &[Vec<u8>], steps: &[Step]) -> Run {
        let mut cache = LruCache::new(capacity);
        let mut model = Reference::new(capacity);
        let half = vec![0xa5; capacity as usize / 2 - 1];
        let drawn = steps
            .iter()
            .map(|(kind, i, value, tomb)| (*kind, &pool[i % pool.len()][..], &value[..], *tomb));
        let churn =
            (0..12u8).map(|n| (40, [&[7][..], &[8], &[9]][usize::from(n % 3)], &half[..], false));
        let mut rewrites = 0;
        for (n, (kind, key, value, tomb)) in drawn.chain(churn).enumerate() {
            let e = if tomb { CacheEntry::tombstone() } else { entry(value) };
            let dead = cache.log.dead;
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
            rewrites += usize::from(kind < 99 && cache.log.dead < dead);
            let got: Vec<(&[u8], CacheEntry)> = cache
                .recency()
                .map(|(_, _, rec)| {
                    let rec = rec.unwrap();
                    let e = CacheEntry {
                        value: Bytes::copy_from_slice(rec.value),
                        tombstone: rec.tombstone,
                    };
                    (rec.key, e)
                })
                .collect();
            let want: Vec<(&[u8], CacheEntry)> =
                model.order.iter().map(|(k, e)| (&k[..], e.clone())).collect();
            assert_eq!(got, want, "step {n}");
            assert_eq!(cache.len(), model.order.len(), "step {n}");
            assert_eq!(cache.bytes(), model.bytes, "step {n}");
            assert_eq!(cache.stats(), (model.hits, model.misses), "step {n}");
            let (live, dead) = (cache.log.live, cache.log.dead);
            assert_eq!(live, model.encoded(), "step {n}");
            assert!(dead <= live, "step {n}: {dead} dead bytes over {live} live");
            let mut report = AuditReport::default();
            audit_cache("model", &cache, &mut report);
            assert!(report.is_clean(), "step {n}: {}", report.render());
        }
        assert!(rewrites >= 3, "{rewrites} rewrites");
        Run { slots: cache.index.slots.len(), evictions: model.evictions, rewrites }
    }

    /// Keys of 0..=29 bytes over three byte values, so that keys are each
    /// other's prefixes; up to 47 of them, so the index grows four times.
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
        /// neighbours only by the key of its record, and an eviction or
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

    /// Hundreds of keys over 3-bit hashes, through seven growths, hundreds
    /// of evictions and many rewrites of the log: the reference run holds
    /// throughout.
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
        let run = with_hash_bits(3, || run_against_the_reference(3500, &pool, &steps));
        assert_eq!(run.slots, 4 << 7);
        assert!(run.evictions > 100, "{} evictions", run.evictions);
        assert!(run.rewrites > 10, "{} rewrites", run.rewrites);
    }

    /// The auditor reads the index, the ring and the log: a slot whose hash
    /// is not its key's, an entry whose `prev` is not the entry before it, a
    /// byte count the records do not add up to, a slot whose place holds
    /// another key's record, a link whose size is not its record's, and a
    /// dead-byte count the chunks do not add up to are each an `LsmState`
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
        let (pos, _) = slot_of(&wrong, b"c");
        wrong.index.slots[pos].hash ^= 1 << 31;
        let got = faults(&wrong);
        assert!(got.iter().any(|d| d.contains(&format!("slot {pos} keeps hash"))), "{got:?}");

        let mut broken = cache();
        let (_, i) = slot_of(&broken, b"c");
        broken.links[i as usize].prev = i;
        let got = faults(&broken);
        assert!(got.iter().any(|d| d.contains(&format!("entry {i} links back to {i}"))), "{got:?}");

        let mut miscounted = cache();
        miscounted.bytes += 1;
        let got = faults(&miscounted);
        assert!(got.iter().any(|d| d.contains("recount 8, tracked 9")), "{got:?}");

        let mut misplaced = cache();
        let (pos, i) = slot_of(&misplaced, b"c");
        let (to, _) = slot_of(&misplaced, b"d");
        misplaced.index.slots[pos].at = misplaced.index.slots[to].at;
        let got = faults(&misplaced);
        assert!(got.iter().any(|d| d.contains(&format!("entry {i} keeps hash"))), "{got:?}");

        let mut missized = cache();
        let (_, i) = slot_of(&missized, b"c");
        missized.links[i as usize].size += 1;
        let got = faults(&missized);
        assert!(got.iter().any(|d| d.contains(&format!("entry {i} keeps hash"))), "{got:?}");
        assert!(got.iter().any(|d| d.contains("and size 3, its record")), "{got:?}");

        let mut dead_miscounted = cache();
        dead_miscounted.log.dead += 1;
        let got = faults(&dead_miscounted);
        assert!(got.iter().any(|d| d.contains("log drift")), "{got:?}");
    }
}
