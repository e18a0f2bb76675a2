//! The record log of the store's in-memory tables, the MemTable's
//! (`memtable.rs`) and the cache's (`lru.rs`), which "is a kind of MemTable"
//! (paper §2.3): rskv's append log (SNIPPETS.md #1–2) under the keyless hash
//! index of `index.rs`, whose slot holds the place of its key's record.
//!
//! Records are in the one SSData codec (`sstable::put_record`), back to back
//! in chunks that are never reallocated. A place is 32 bits: the chunk's
//! number above the low [`CHUNK_BITS`] bits, the offset in it below them.
//! Chunks start at [`FIRST_CHUNK`] bytes and double up to [`CHUNK`]; a larger
//! record gets a chunk of its own size. The records whose places the index
//! holds are `live`, all else the chunks hold `dead`, and once dead bytes
//! reach live ones the log is rewritten ([`Log::rewrite`]). The two tables
//! differ only in their [`Chunk`]: a MemTable's is a `Vec<u8>`, where a
//! same-length update overwrites its record in place; the cache's is
//! `lru::CacheChunk`, frozen so that a hit's value is a slice of it.

use std::ops::Deref;

use bytes::BufMut;

use crate::index::{key_hash, Index, Vacancy, VACANT};
use crate::sstable::{encoded_at, overwrite_at, Encoded, PutRecord, Record};

/// Bytes of a full chunk of a log.
pub const CHUNK: usize = 1 << CHUNK_BITS;
/// Bits of a place that are the record's offset in its chunk.
pub(crate) const CHUNK_BITS: u32 = 14;
/// Bytes of a log's first chunk.
pub(crate) const FIRST_CHUNK: usize = 512;

/// The chunk number of place `at`, and the offset in it.
pub(crate) fn split(at: u32) -> (usize, usize) {
    ((at >> CHUNK_BITS) as usize, at as usize & (CHUNK - 1))
}

/// What a log keeps its records in: a run of bytes, written at its end
/// while it is open.
pub(crate) trait Chunk: Default + Deref<Target = [u8]> {
    /// An empty, open chunk with room for `size` bytes.
    fn with_room(size: usize) -> Self;
    /// What to write to, if the chunk is open and has room for `len` bytes.
    fn room(&mut self, len: usize) -> Option<&mut impl BufMut>;
    /// Close the chunk to records: the bytes of room it now holds, dead
    /// (none, unless its kind keeps its room).
    fn close(&mut self) -> usize {
        0
    }
    /// The bytes of its live records, if its kind counts them.
    fn live(&mut self) -> Option<&mut usize> {
        None
    }
    /// Whether a rewrite copies its live records (every chunk's, unless its
    /// kind says otherwise).
    fn copied(&self) -> bool {
        true
    }
}

/// A MemTable's chunk.
impl Chunk for Vec<u8> {
    fn with_room(size: usize) -> Self {
        Vec::with_capacity(size)
    }

    fn room(&mut self, len: usize) -> Option<&mut impl BufMut> {
        (self.capacity() - self.len() >= len).then_some(self)
    }
}

/// The records of a table, in chunks, and their byte counts.
#[derive(Debug, Default)]
pub(crate) struct Log<C> {
    pub(crate) chunks: Vec<C>,
    /// Bytes of the records the index holds the places of.
    pub(crate) live: usize,
    /// Bytes the chunks hold besides.
    pub(crate) dead: usize,
    /// Capacity of the next chunk started; 0 for the first size.
    next: usize,
}

impl<C: Chunk> Log<C> {
    /// The record at `at`.
    pub(crate) fn record(&self, at: u32) -> Option<Encoded<'_>> {
        let (n, offset) = split(at);
        encoded_at(self.chunks.get(n)?, offset)
    }

    /// A probe of `index` for `key`, hashed `hash`: the slot whose record is
    /// the key's, and the record; else where the probe stopped.
    #[inline]
    pub(crate) fn find(
        &self,
        index: &Index,
        hash: u32,
        key: &[u8],
    ) -> Result<(usize, Record<'_>), Vacancy> {
        index.find(hash, |slot| self.record(slot.at).map(|enc| enc.rec).filter(|r| r.key == key))
    }

    /// The slot of `index` holding `key`, and its record. Most lookups of a
    /// read-mostly store search an empty table, which hashes nothing.
    pub(crate) fn lookup(&self, index: &Index, key: &[u8]) -> Option<(usize, Record<'_>)> {
        if index.len == 0 {
            return None;
        }
        self.find(index, key_hash(key), key).ok()
    }

    /// Append `rec`, `len` bytes encoded, as live: its place. The last chunk
    /// takes it if it has room; otherwise it is closed and a new chunk
    /// takes it, the next size up or, for a record larger than that, the
    /// record's own size.
    #[allow(clippy::indexing_slicing, reason = "the last chunk has room or was just pushed")]
    pub(crate) fn append<'a>(&mut self, rec: impl PutRecord<'a>, len: usize) -> u32 {
        let fits = |last: &mut C| last.len() < CHUNK && last.room(len).is_some();
        if !self.chunks.last_mut().is_some_and(fits) {
            self.close(false);
            let n = self.chunks.len();
            // The last chunk number is never used: no place is VACANT.
            assert!(n + 1 < 1 << (u32::BITS - CHUNK_BITS), "a log past 4 GiB");
            let size = self.next.max(FIRST_CHUNK);
            self.next = CHUNK.min(2 * size);
            self.chunks.push(C::with_room(size.max(len)));
        }
        let n = self.chunks.len() - 1;
        let chunk = &mut self.chunks[n];
        let at = (n << CHUNK_BITS | chunk.len()) as u32;
        if let Some(buf) = chunk.room(len) {
            rec.put_into(buf);
        }
        if let Some(live) = chunk.live() {
            *live += len;
        }
        self.live += len;
        at
    }

    /// Close the last chunk, its room counted dead as its kind says; after
    /// one closed `early`, by a hit, the next chunk is of the first size.
    pub(crate) fn close(&mut self, early: bool) {
        if let Some(last) = self.chunks.last_mut() {
            self.dead += last.close();
        }
        if early {
            self.next = 0;
        }
    }

    /// Count the record at `at`, of `len` bytes, dead.
    pub(crate) fn kill(&mut self, at: u32, len: usize) {
        if let Some(live) = self.chunks.get_mut(split(at).0).and_then(C::live) {
            *live -= len;
        }
        self.live -= len;
        self.dead += len;
    }

    /// Every record the log holds, dead or live, with its place, in log
    /// order: a walk of a log whose chunks hold no room.
    pub(crate) fn walk(&self) -> impl Iterator<Item = (u32, Encoded<'_>)> {
        self.chunks.iter().enumerate().flat_map(|(n, chunk)| {
            let mut offset = 0;
            std::iter::from_fn(move || {
                let enc = encoded_at(chunk, offset)?;
                let at = (n << CHUNK_BITS | offset) as u32;
                offset += enc.bytes.len();
                Some((at, enc))
            })
        })
    }

    /// Rewrite the log once its dead bytes reach its live ones.
    pub(crate) fn tidy(&mut self, index: &mut Index) {
        if self.dead > 0 && self.dead >= self.live {
            self.rewrite(index);
        }
    }

    /// Close the last chunk and copy the live records (those whose places
    /// `index` holds) of every chunk its kind copies to the log's end, in
    /// place order, freeing each old chunk as soon as the walk passes it;
    /// then number the chunks left from 0 again and put each record's new
    /// place in its slot. The log never holds more than before and a chunk.
    #[allow(
        clippy::indexing_slicing,
        reason = "a place in the index is in a chunk of the log, and a slot's position is in it"
    )]
    pub(crate) fn rewrite(&mut self, index: &mut Index) {
        self.close(false);
        let (live, copied) = (self.live, self.chunks.iter().map(C::copied).collect::<Vec<_>>());
        // A log whose every chunk is copied starts again from the first size.
        self.next = if copied.contains(&false) { self.next } else { 0 };
        let mut places: Vec<u64> = (index.occupied().filter(|(_, slot)| copied[split(slot.at).0]))
            .map(|(pos, slot)| u64::from(slot.at) << 32 | pos as u64)
            .collect();
        places.sort_unstable();
        // The copies start after an empty chunk, so none lands in a chunk
        // still to be walked.
        self.chunks.push(C::default());
        let mut rest = &places[..];
        for n in (0..copied.len()).filter(|&n| copied[n]) {
            let run;
            (run, rest) = rest.split_at(rest.partition_point(|&p| split((p >> 32) as u32).0 == n));
            let chunk = std::mem::take(&mut self.chunks[n]);
            for &p in run {
                if let Some(enc) = encoded_at(&chunk, split((p >> 32) as u32).1) {
                    index.slots[p as u32 as usize].at = self.append(enc, enc.bytes.len());
                }
            }
        }
        // Every chunk left holds live records, as many bytes as before; what
        // else the chunks hold is dead.
        let number: Vec<u32> = (self.chunks.iter().map(|chunk| u32::from(!chunk.is_empty())))
            .scan(0, |kept, keep| Some(std::mem::replace(kept, *kept + keep)))
            .collect();
        self.chunks.retain(|chunk| !chunk.is_empty());
        for slot in index.slots.iter_mut().filter(|slot| slot.at != VACANT) {
            let (n, offset) = split(slot.at);
            slot.at = number[n] << CHUNK_BITS | offset as u32;
        }
        self.live = live;
        self.dead = self.chunks.iter().map(|chunk| chunk.len()).sum::<usize>() - live;
    }
}

impl Log<Vec<u8>> {
    /// Overwrite the record at `at` with `value` if its value is as long
    /// (`sstable::overwrite_at`): the length of the record there, encoded,
    /// 0 if there is none.
    pub(crate) fn overwrite(&mut self, at: u32, value: &[u8], tombstone: bool) -> usize {
        let (n, offset) = split(at);
        let Some(chunk) = self.chunks.get_mut(n) else { return 0 };
        overwrite_at(chunk, offset, value, tombstone).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Slot;
    use crate::lru::CacheChunk;
    use crate::sstable::RECORD_HEADER;

    /// Bytes a cache chunk takes: an open one to its capacity, a frozen
    /// one whole.
    fn cache_capacity(chunk: &CacheChunk) -> usize {
        match chunk {
            CacheChunk::Open(open, _) => open.capacity(),
            CacheChunk::Frozen(frozen, _) => frozen.len(),
        }
    }

    /// The capacity of each chunk a log of `C` starts for 400 records of
    /// 100 bytes, one larger than a full chunk, and one more of 100.
    fn sizes<C: Chunk>(capacity: impl Fn(&C) -> usize) -> Vec<usize> {
        let mut log = Log::<C>::default();
        let (small, big) = ([0; 91], vec![7; CHUNK + 1]);
        for value in std::iter::repeat_n(&small[..], 400).chain([&big[..], &small]) {
            let rec = Record { key: b"", value, tombstone: false };
            log.append(rec, RECORD_HEADER + value.len());
        }
        assert_eq!(log.live, 401 * 100 + RECORD_HEADER + CHUNK + 1);
        log.chunks.iter().map(capacity).collect()
    }

    /// Chunks start at the first size and double to a full one, and a
    /// record larger than that gets a chunk of its own size, after which the
    /// growth goes on: alike for a MemTable's chunks and the cache's.
    #[test]
    fn chunks_double_to_a_full_one_and_a_larger_record_gets_its_own() {
        let want: Vec<usize> = [512, 1024, 2048, 4096, 8192]
            .into_iter()
            .chain([CHUNK; 2])
            .chain([RECORD_HEADER + CHUNK + 1, CHUNK])
            .collect();
        assert_eq!(sizes::<Vec<u8>>(Vec::capacity), want);
        assert_eq!(sizes::<CacheChunk>(cache_capacity), want);
    }

    /// A log of `C` and an index of 400 records of 100 bytes, keyed by
    /// their numbers, those for which `dead` holds counted dead and left
    /// out of the index; rewritten.
    fn rewritten<C: Chunk>(dead: impl Fn(u32) -> bool) -> (Log<C>, Index) {
        let (mut log, mut index) = (Log::<C>::default(), Index::default());
        for i in 0..400u32 {
            let (key, hash) = (i.to_be_bytes(), key_hash(&i.to_be_bytes()));
            let at = log.append(Record { key: &key, value: &[0; 87], tombstone: false }, 100);
            if dead(i) {
                log.kill(at, 100);
            } else {
                index.insert(index.vacancy(hash), Slot { hash, at, tag: i });
            }
        }
        log.rewrite(&mut index);
        for i in (0..400u32).filter(|&i| !dead(i)) {
            let (pos, rec) = log.lookup(&index, &i.to_be_bytes()).expect("a live record");
            assert_eq!((index.slots[pos].tag, rec.value), (i, &[0; 87][..]));
        }
        let held = log.chunks.iter().map(|chunk| chunk.len()).sum::<usize>();
        assert_eq!((log.live, log.dead), (index.len * 100, held - index.len * 100));
        (log, index)
    }

    /// A rewrite keeps every live record where the index finds it and copies
    /// the chunks its kind says: a MemTable's log every chunk, into chunks
    /// of the first size on, and nothing dead is left; the cache's only the
    /// chunks at most half live. With the first 200 records dead, its sixth
    /// chunk, 119 of 163 records live, stays, and the last, closed whole
    /// with 81, is copied after it; a log whose every chunk is copied starts
    /// again from the first size.
    #[test]
    fn a_rewrite_copies_the_chunks_its_kind_says() {
        let (log, _) = rewritten::<Vec<u8>>(|i| i < 200);
        let sizes: Vec<usize> = log.chunks.iter().map(Vec::capacity).collect();
        assert_eq!((sizes, log.dead), (vec![512, 1024, 2048, 4096, 8192, CHUNK], 0));
        let (log, _) = rewritten::<CacheChunk>(|i| i < 200);
        assert!(
            matches!(&log.chunks[..], [CacheChunk::Frozen(kept, 11_900), CacheChunk::Open(copies, 8100)]
            if kept.len() == CHUNK && copies.len() == 8100)
        );
        // Two records in three dead: every chunk is copied, and the copies
        // start again from the first size.
        let (log, _) = rewritten::<CacheChunk>(|i| i % 3 != 0);
        let sizes: Vec<usize> = log.chunks.iter().map(cache_capacity).collect();
        assert_eq!(sizes[..3], [512, 1024, 2048]);
    }
}
