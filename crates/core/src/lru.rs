//! Byte-capacity LRU cache: the local and remote caches (paper §2.3).
//!
//! "The cache is a kind of MemTable, and it is managed in a LRU fashion. The
//! local and remote caches store key-value pairs fetched from SSTables and
//! other remote MPI ranks, respectively."
//!
//! So it is a log of records in the SSData codec, in chunks sized as a
//! MemTable's (`memtable.rs`), under the store's one keyless index
//! (`index.rs`), whose slot holds a key's hash and its entry's number. An
//! entry is a 20-byte link in a dense array: its neighbours in the recency
//! ring and its record's place, hash and logical size, so an eviction, an
//! invalidation and a rewrite read the links and the index, and a hit its
//! slot, its link and the line of its record where the key is checked. A
//! record is never overwritten: a fill or a replace appends, a removal
//! counts its bytes dead. A chunk is frozen (`BytesMut::freeze`, no copy)
//! when a record does not fit it or a hit lands in it, so a hit's value is a
//! slice of its chunk: no allocation, and nothing a caller holds changes.
//! The unused room of a frozen chunk counts dead, and dead bytes reaching
//! live ones start a rewrite (`LruCache::rewrite`). Byte accounting is
//! logical, key and value bytes, so the capacity, eviction order, hits and
//! misses are those of a cache of pairs.

use bytes::{Bytes, BytesMut};

use crate::index::{key_hash, Index, Slot, Vacancy};
use crate::memtable::{CHUNK, CHUNK_BITS, FIRST_CHUNK, NO_OWNER};
use crate::sstable::{encoded_at, Encoded, PutRecord, Record, RECORD_HEADER};

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

/// The number of no entry — the ring's ends, the free chain's — and the
/// place of a free entry's record.
const NONE: u32 = u32::MAX;

/// An entry: its neighbours by number, `prev` more recent and `next` less
/// (a free entry's `next` is the next free one), and its record's place in
/// the log ([`NONE`] if free), its key's hash and its size, key and value
/// bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Link {
    pub(crate) prev: u32,
    pub(crate) next: u32,
    pub(crate) at: u32,
    pub(crate) hash: u32,
    pub(crate) size: u32,
}

impl Link {
    /// Bytes of its record, encoded.
    fn encoded_len(self) -> usize {
        RECORD_HEADER + self.size as usize
    }
}

/// The chunk number of place `at`, and the offset in it.
fn split(at: u32) -> (usize, usize) {
    ((at >> CHUNK_BITS) as usize, at as usize & (CHUNK - 1))
}

/// The records: `frozen` chunks, then the `open` one, written at its end
/// (none while it has no capacity). `live` bytes are records a link names,
/// `dead` ones what else the chunks hold.
#[derive(Debug, Default)]
struct Log {
    frozen: Vec<Bytes>,
    open: BytesMut,
    /// Capacity of the next chunk opened; 0 for the first size.
    next: usize,
    live: usize,
    dead: usize,
}

impl Log {
    /// The record at `at`.
    fn record(&self, at: u32) -> Option<Encoded<'_>> {
        let (n, pos) = split(at);
        match self.frozen.get(n) {
            Some(chunk) => encoded_at(chunk, pos),
            None => encoded_at(&self.open, pos).filter(|_| n == self.frozen.len()),
        }
    }

    /// Append `rec`, `len` bytes encoded: its place. The open chunk takes it
    /// if it has room; else it is frozen, and a new chunk takes it, the next
    /// size up or, for a record larger than that, the record's own size.
    fn append<'a>(&mut self, rec: impl PutRecord<'a>, len: usize) -> u32 {
        if self.open.capacity() - self.open.len() < len {
            self.freeze(false);
            let size = self.next.max(FIRST_CHUNK);
            self.next = CHUNK.min(2 * size);
            self.open = BytesMut::with_capacity(size.max(len));
        }
        let n = self.frozen.len();
        // The last chunk number is never used: no place is NONE.
        assert!(n + 1 < 1 << (u32::BITS - CHUNK_BITS), "a cache log past 4 GiB");
        self.live += len;
        let at = (n << CHUNK_BITS | self.open.len()) as u32;
        rec.put_into(&mut self.open);
        at
    }

    /// Freeze the open chunk, if there is one, whole, its unused room
    /// counted dead; after one frozen `early`, by a hit, the next chunk is
    /// of the first size.
    fn freeze(&mut self, early: bool) {
        let mut open = std::mem::take(&mut self.open);
        if open.capacity() > 0 {
            self.dead += open.capacity() - open.len();
            open.resize(open.capacity(), 0);
            self.frozen.push(open.freeze());
        }
        if early {
            self.next = 0;
        }
    }

    /// Count a record of `len` bytes dead.
    fn kill(&mut self, len: usize) {
        self.live -= len;
        self.dead += len;
    }
}

/// Byte-bounded LRU map from keys to [`CacheEntry`].
#[derive(Debug)]
pub struct LruCache {
    index: Index,
    links: Vec<Link>,
    log: Log,
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
              live link's place is in a chunk that exists"
)]
impl LruCache {
    /// Cache bounded to `capacity` bytes of key+value payload.
    pub fn new(capacity: u64) -> Self {
        Self {
            index: Index::default(),
            links: Vec::new(),
            log: Log::default(),
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

    /// The position of the slot holding `key`, and its entry's number. An
    /// empty cache hashes nothing.
    pub(crate) fn slot_of(&self, key: &[u8]) -> Option<(usize, u32)> {
        if self.is_empty() {
            return None;
        }
        self.find(key_hash(key), key).ok()
    }

    /// A probe for `key`, hashed `hash`, each matching hash checked against
    /// the key of its entry's record.
    fn find(&self, hash: u32, key: &[u8]) -> Result<(usize, u32), Vacancy> {
        let (links, log) = (&self.links, &self.log);
        let matches = |i: u32| log.record(links[i as usize].at).filter(|enc| enc.rec.key == key);
        self.index.find(hash, |i| matches(i).map(|_| i))
    }

    /// Look up and promote to most-recently-used.
    pub fn get(&mut self, key: &[u8]) -> Option<CacheEntry> {
        let Some((_, i)) = self.slot_of(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.promote(i);
        let Link { at, size, .. } = self.links[i as usize];
        let (n, pos) = split(at);
        // Only a frozen chunk is sliced: the open one is frozen first.
        if n == self.log.frozen.len() {
            self.log.freeze(true);
        }
        let chunk = &self.log.frozen[n];
        let start = pos + RECORD_HEADER + key.len();
        let value = chunk.slice(start..pos + RECORD_HEADER + size as usize);
        let entry = CacheEntry { value, tombstone: chunk[pos + RECORD_HEADER - 1] != 0 };
        self.tidy();
        Some(entry)
    }

    /// Peek without promoting or counting (tests/diagnostics): the record
    /// in the log.
    pub fn peek(&self, key: &[u8]) -> Option<Record<'_>> {
        let (_, i) = self.slot_of(key)?;
        self.log.record(self.links[i as usize].at).map(|enc| enc.rec)
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
        let hash = key_hash(key);
        let i = match self.find(hash, key) {
            Ok((_, i)) => {
                let old = self.links[i as usize];
                self.log.kill(old.encoded_len());
                self.bytes -= u64::from(old.size);
                self.unlink(i);
                i
            }
            Err(vacancy) => {
                let vacancy = if self.index.is_full() {
                    self.index.grow();
                    self.index.vacancy(hash)
                } else {
                    vacancy
                };
                let i = match self.links.get(self.free as usize) {
                    Some(free) => std::mem::replace(&mut self.free, free.next),
                    None => {
                        self.links.push(Link { prev: NONE, next: NONE, at: NONE, hash, size: 0 });
                        (self.links.len() - 1) as u32
                    }
                };
                self.index.place(vacancy, Slot { hash, at: i, owner: NO_OWNER });
                i
            }
        };
        let at = self.log.append(rec, RECORD_HEADER + size);
        let link = &mut self.links[i as usize];
        (link.at, link.hash, link.size) = (at, hash, size32);
        self.push_front(i);
        self.bytes += size as u64;
        while self.bytes > self.capacity {
            // The least recent entry's slot is found by its hash and number.
            let i = self.links[self.head as usize].prev;
            if let Some(pos) = self.index.position(self.links[i as usize].hash, i) {
                self.index.remove(pos);
            }
            self.release(i);
        }
        self.tidy();
    }

    /// Unlink entry `i`, whose slot is gone, count its bytes out and its
    /// record dead, and chain it first on the free list.
    fn release(&mut self, i: u32) {
        self.unlink(i);
        let link = &mut self.links[i as usize];
        self.bytes -= u64::from(link.size);
        self.log.kill(link.encoded_len());
        (link.at, link.next) = (NONE, self.free);
        self.free = i;
    }

    /// Drop a key if cached. Returns whether it was present. This is the
    /// stale-entry eviction on put (paper §2.4: "a stale cache entry that
    /// has the same key as the new key-value pair is evicted").
    pub fn invalidate(&mut self, key: &[u8]) -> bool {
        let Some((pos, i)) = self.slot_of(key) else { return false };
        self.index.remove(pos);
        self.release(i);
        self.tidy();
        true
    }

    /// Drop everything (protection-attribute transitions, §3.2).
    pub fn clear(&mut self) {
        *self = Self { hits: self.hits, misses: self.misses, ..Self::new(self.capacity) };
    }

    /// Rewrite the log once its dead bytes reach its live ones.
    fn tidy(&mut self) {
        if self.log.dead > 0 && self.log.dead >= self.log.live {
            self.rewrite();
        }
    }

    /// Freeze the open chunk, copy the live records of every chunk at most
    /// half live to the log's end, in log order, drop those chunks and
    /// number the rest from 0 again. Dead bytes are then fewer than live
    /// ones: a chunk kept is more than half live, and a chunk the copies
    /// filled was closed by a live record too long for its room. A record is
    /// live if a link names its place; the index holds entry numbers, so it
    /// is untouched.
    fn rewrite(&mut self) {
        let log = &mut self.log;
        log.freeze(false);
        let mut used = vec![0; log.frozen.len()];
        for link in self.links.iter().filter(|link| link.at != NONE) {
            used[split(link.at).0] += link.encoded_len();
        }
        let sparse: Vec<bool> =
            log.frozen.iter().zip(&used).map(|(chunk, &used)| 2 * used <= chunk.len()).collect();
        let mut moving: Vec<u64> = (self.links.iter().zip(0u32..))
            .filter(|(link, _)| link.at != NONE && sparse[split(link.at).0])
            .map(|(link, i)| u64::from(link.at) << 32 | u64::from(i))
            .collect();
        moving.sort_unstable();
        let mut old = vec![Bytes::new(); sparse.len()];
        for (n, _) in sparse.iter().enumerate().filter(|(_, &sparse)| sparse) {
            old[n] = std::mem::take(&mut log.frozen[n]);
            log.dead -= old[n].len() - used[n];
            log.live -= used[n];
        }
        for record in moving {
            let (n, pos) = split((record >> 32) as u32);
            let link = &mut self.links[record as u32 as usize];
            link.at = encoded_at(&old[n], pos).map_or(NONE, |enc| log.append(enc, enc.bytes.len()));
        }
        // Number the chunks left from 0, the open one last.
        let number: Vec<u32> = (log.frozen.iter().map(|chunk| u32::from(!chunk.is_empty())))
            .chain([1])
            .scan(0, |kept, keep| Some(std::mem::replace(kept, *kept + keep) << CHUNK_BITS))
            .collect();
        log.frozen.retain(|chunk| !chunk.is_empty());
        for link in self.links.iter_mut().filter(|link| link.at != NONE) {
            let (n, pos) = split(link.at);
            link.at = number[n] | pos as u32;
        }
    }

    /// The index's occupied slots, each with its position, the hash it
    /// keeps, and the key of its entry's record (empty if there is none;
    /// the auditor checks the hash).
    pub(crate) fn keys(&self) -> impl Iterator<Item = (usize, u32, &[u8])> {
        self.index.occupied().map(|(pos, slot)| {
            let at = self.links.get(slot.at as usize).map_or(NONE, |link| link.at);
            (pos, slot.hash, self.log.record(at).map(|enc| enc.rec.key).unwrap_or_default())
        })
    }

    /// The log's live and dead bytes as counted, and the bytes its chunks
    /// hold: every frozen one whole, the open one as far as it is written.
    pub(crate) fn log_bytes(&self) -> (usize, usize, usize) {
        let held = self.log.frozen.iter().map(Bytes::len).sum::<usize>() + self.log.open.len();
        (self.log.live, self.log.dead, held)
    }

    /// The recency ring as its `next` links hold it, from the most recent
    /// entry up to the first that leads back to it: each entry's number,
    /// link and the record at its place, if one is there. The walk takes at
    /// most one step more than there are entries, so a ring that does not
    /// close shows as a list too long.
    pub(crate) fn recency(&self) -> impl Iterator<Item = (u32, Link, Option<Record<'_>>)> {
        let head = self.head;
        let ring = self.chain(head).enumerate().take_while(move |&(n, (i, _))| n == 0 || i != head);
        ring.map(|(_, (i, link))| (i, link, self.log.record(link.at).map(|enc| enc.rec)))
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

    /// Bytes the log's chunks take: every frozen one whole, the open one
    /// to its capacity.
    fn log_capacity(c: &LruCache) -> usize {
        c.log.frozen.iter().map(Bytes::len).sum::<usize>() + c.log.open.capacity()
    }

    /// An eviction reads the index and the links alone: each link holds
    /// its ring neighbours and its record's place, hash and size.
    #[test]
    fn a_link_is_twenty_bytes() {
        assert_eq!(std::mem::size_of::<Link>(), 20);
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

    /// Chunks grow from the first size to a full one, a record larger than
    /// a chunk gets one of its own, and a hit freezes the chunk it lands in:
    /// the next record opens a chunk of the first size, and the frozen one
    /// keeps its unused room, counted dead.
    #[test]
    fn chunks_grow_and_a_hit_freezes_its_chunk() {
        let mut c = LruCache::new(1 << 30);
        (0..400u32).for_each(|i| c.insert(&i.to_be_bytes(), entry(&[0; 87]))); // 100-byte records
        let sizes: Vec<usize> = c.log.frozen.iter().map(Bytes::len).collect();
        assert_eq!(sizes[..6], [512, 1024, 2048, 4096, 8192, CHUNK]);
        assert_eq!(c.log.open.capacity(), CHUNK);
        let (dead, written) = (c.log.dead, c.log.open.len());
        assert!(c.get(&399u32.to_be_bytes()).is_some());
        assert_eq!(c.log.dead, dead + CHUNK - written);
        assert_eq!(c.log.open.capacity(), 0);
        c.insert(b"next", entry(b"v"));
        assert_eq!(c.log.open.capacity(), FIRST_CHUNK);
        let big = Bytes::from(vec![7; CHUNK + 1]);
        c.insert(b"big", CacheEntry::value(big.clone()));
        assert_eq!(c.log.open.capacity(), RECORD_HEADER + 3 + CHUNK + 1);
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
    /// byte count the records do not add up to, a link whose place holds
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
        let (pos, _) = wrong.slot_of(b"c").unwrap();
        wrong.index.slots[pos].hash ^= 1 << 31;
        let got = faults(&wrong);
        assert!(got.iter().any(|d| d.contains(&format!("slot {pos} keeps hash"))), "{got:?}");

        let mut broken = cache();
        let (_, i) = broken.slot_of(b"c").unwrap();
        broken.links[i as usize].prev = i;
        let got = faults(&broken);
        assert!(got.iter().any(|d| d.contains(&format!("entry {i} links back to {i}"))), "{got:?}");

        let mut miscounted = cache();
        miscounted.bytes += 1;
        let got = faults(&miscounted);
        assert!(got.iter().any(|d| d.contains("recount 8, tracked 9")), "{got:?}");

        let mut misplaced = cache();
        let (_, i) = misplaced.slot_of(b"c").unwrap();
        let (_, j) = misplaced.slot_of(b"d").unwrap();
        misplaced.links[i as usize].at = misplaced.links[j as usize].at;
        let got = faults(&misplaced);
        assert!(got.iter().any(|d| d.contains(&format!("entry {i} keeps hash"))), "{got:?}");

        let mut missized = cache();
        let (_, i) = missized.slot_of(b"c").unwrap();
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
