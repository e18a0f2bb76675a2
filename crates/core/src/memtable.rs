//! MemTables: the in-memory write staging structure (paper §2.3-§2.4).
//!
//! A database owns four kinds of MemTable — local, immutable local, remote,
//! and immutable remote. All four share this one structure: a log of
//! records plus a hash index and byte accounting (DESIGN §1). The paper's
//! MemTable is a red-black tree, kept ordered for the one reader that needs
//! order, the flush; here it is rskv's layout, an append log and a hash
//! index over it (SNIPPETS.md #1–2):
//!
//! * **The log** holds every record in the one SSData codec
//!   (`sstable::put_record`), back to back in chunks of at most [`CHUNK`]
//!   bytes — the first small, each next twice the last — so it never
//!   reallocates and a table of a few records costs a few hundred bytes. A
//!   record larger than a chunk gets a chunk of its own.
//! * **The index** holds no keys, as FASTER's does not: the key is in the
//!   log already. It is the store's one hash index (`index.rs`), which the
//!   cache uses too: 12-byte slots, each 32 bits of the key's hash, its
//!   record's place in the log and, in a staging table, the rank the record
//!   is bound for, probed Robin Hood at most 7/8 full. A slot whose hash
//!   matches has its key checked where its record lies. A MemTable never
//!   removes a slot: a freeze takes the whole table. A put or a get is one
//!   probe, which also finds where a new key goes.
//! * **An update** of the same length — a new value as long as the old, or
//!   a tombstone over a tombstone or an empty value — overwrites its record
//!   in place. Any other update appends, and the old record's bytes are
//!   dead; once dead bytes reach live bytes the log is rewritten, its live
//!   records copied in log order into fresh chunks, each old chunk freed as
//!   soon as it has been walked.
//! * **A get** copies its value out (`Record::outcome`, as an SSTable get
//!   does), so no caller ever holds a view into the log, and an in-place
//!   update changes nothing anyone was handed.
//! * **Key order** is made once, by `MemTable::records`, when a frozen
//!   table is flushed or migrated (or a table is audited): a sort of
//!   `(word, place)` pairs, O(n log n) for the whole table, paid off the put
//!   and get paths. The sort compares words, not bytes: the 8 bytes of a key
//!   that follow the prefix every key of the table shares (`key::abbrev`);
//!   only keys whose words tie are compared whole. A consumer copies the
//!   records' bytes — into the flush's SSData, a migration's batch, the
//!   stack's record list — and encodes none of them again.
//!
//! "Immutable" is a usage mode: a frozen table is wrapped in `Arc` and only
//! read (by gets walking the flushing / migration queues, and by the
//! compaction or dispatcher task consuming it).

use bytes::Bytes;

use crate::index::{key_hash, Index, Slot};
use crate::key::abbrev;
use crate::sstable::{encoded_at, overwrite_at, Encoded, PutRecord, Record, RECORD_HEADER};

/// Fixed per-entry metadata overhead counted against the MemTable capacity
/// (the paper's tree node links, tombstone flag, owner rank). A log has no
/// node links; the charge is kept so that every freeze point, and every
/// number that follows from one, is the paper's accounting.
pub const ENTRY_OVERHEAD: u64 = 24;

/// Marker for entries in local MemTables, which carry no owner rank.
pub const NO_OWNER: u32 = u32::MAX;

/// Bytes of a full chunk of a MemTable's log: a record's place in the log
/// is its chunk's number above the low `CHUNK_BITS` bits and its offset in
/// the chunk below them, in 32 bits.
pub const CHUNK: usize = 1 << CHUNK_BITS;
const CHUNK_BITS: u32 = 14;
/// Bytes of a log's first chunk; each next one holds twice the last, up to
/// [`CHUNK`].
const FIRST_CHUNK: usize = 512;

/// One key's state as a caller hands it to [`MemTable::insert`] or reads it
/// back from [`MemTable::iter`]. The table itself keeps records, not
/// entries.
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

/// The records of a table, in chunks, and their byte counts: `live` bytes
/// the index points at, `dead` bytes of records it no longer does.
#[derive(Debug, Default)]
struct Log {
    chunks: Vec<Vec<u8>>,
    live: usize,
    dead: usize,
}

impl Log {
    /// The record at `at`.
    fn encoded(&self, at: u32) -> Option<Encoded<'_>> {
        let chunk = self.chunks.get((at >> CHUNK_BITS) as usize)?;
        encoded_at(chunk, (at as usize) & (CHUNK - 1))
    }

    /// Append `rec`, `len` bytes encoded: its place. The last chunk takes it
    /// if it has room; otherwise a new chunk does, the next size up or, for
    /// a record larger than that, the record's own size.
    #[allow(clippy::indexing_slicing, reason = "the last chunk has room or was just pushed")]
    fn append<'a>(&mut self, rec: impl PutRecord<'a>, len: usize) -> u32 {
        let room = |chunk: &Vec<u8>| chunk.len() < CHUNK && chunk.capacity() - chunk.len() >= len;
        if !self.chunks.last().is_some_and(room) {
            let n = self.chunks.len();
            // The last chunk number is never used: no place is VACANT.
            assert!(n + 1 < 1 << (u32::BITS - CHUNK_BITS), "a MemTable log past 4 GiB");
            let size = CHUNK.min(FIRST_CHUNK << n.min(CHUNK_BITS as usize));
            self.chunks.push(Vec::with_capacity(size.max(len)));
        }
        let n = self.chunks.len() - 1;
        let chunk = &mut self.chunks[n];
        let at = (n << CHUNK_BITS | chunk.len()) as u32;
        rec.put_into(chunk);
        at
    }

    /// The record at `at`, if it is `key`'s.
    fn record_of(&self, at: u32, key: &[u8]) -> Option<Record<'_>> {
        self.encoded(at).map(|enc| enc.rec).filter(|rec| rec.key == key)
    }

    /// Overwrite the record at `at` with `value` if its value is as long
    /// (`sstable::overwrite_at`): the length of the record there, encoded,
    /// 0 if there is none.
    fn overwrite(&mut self, at: u32, value: &[u8], tombstone: bool) -> usize {
        let Some(chunk) = self.chunks.get_mut((at >> CHUNK_BITS) as usize) else { return 0 };
        overwrite_at(chunk, (at as usize) & (CHUNK - 1), value, tombstone).unwrap_or(0)
    }
}

/// An in-memory, byte-accounted table of records, iterated in key order.
#[derive(Debug, Default)]
pub struct MemTable {
    index: Index,
    log: Log,
    bytes: u64,
}

impl MemTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries (tombstones included).
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.index.len == 0
    }

    /// Approximate memory footprint in bytes; compared against the MemTable
    /// capacity to decide freezing (§2.4 "when the local MemTable's size
    /// reaches its capacity limit..."). Logical: each entry's key, value and
    /// [`ENTRY_OVERHEAD`], whatever the log holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Bytes of the table's live records, encoded: what a flush of it
    /// writes as SSData.
    pub(crate) fn encoded_len(&self) -> usize {
        self.log.live
    }

    /// Bytes of records the log still holds that no key points at.
    pub(crate) fn dead_len(&self) -> usize {
        self.log.dead
    }

    /// Insert or replace. "If another key-value pair that has the same key
    /// already exists, PapyrusKV deletes the old one before it inserts the
    /// new one" (§2.4).
    pub fn insert(&mut self, key: &[u8], entry: Entry) {
        self.put(Record::from((key, &entry)), entry.owner);
    }

    /// Insert or replace `rec`, bound for `owner` ([`NO_OWNER`] in a local
    /// table): in place if the key has a record of the same length, else
    /// appended — copied as its bytes if it is [`Encoded`] already.
    pub(crate) fn put<'a>(&mut self, rec: impl PutRecord<'a>, owner: u32) {
        let Record { key, value, .. } = rec.record();
        let len = RECORD_HEADER + key.len() + value.len();
        let hash = key_hash(key);
        let log = &self.log;
        let vacancy = match self.index.find(hash, |at| log.record_of(at, key)) {
            Ok((pos, _)) => return self.update(pos, rec, len, owner),
            Err(_) if self.index.is_full() => {
                self.index.grow();
                self.index.vacancy(hash)
            }
            Err(vacancy) => vacancy,
        };
        let at = self.log.append(rec, len);
        self.index.place(vacancy, Slot { hash, at, owner });
        self.log.live += len;
        self.bytes += (key.len() + value.len()) as u64 + ENTRY_OVERHEAD;
    }

    /// Replace the record of the key in slot `pos` with `rec`, `len` bytes
    /// encoded, bound for `owner`.
    fn update<'a>(&mut self, pos: usize, rec: impl PutRecord<'a>, len: usize, owner: u32) {
        let Record { value, tombstone, .. } = rec.record();
        let Some(slot) = self.index.slots.get_mut(pos) else { return };
        slot.owner = owner;
        // Same key: the record is as long as the old one if the value is.
        let old = self.log.overwrite(slot.at, value, tombstone);
        if old == len {
            return;
        }
        slot.at = self.log.append(rec, len);
        self.log.live = self.log.live + len - old;
        self.log.dead += old;
        // Same key: the logical size moves by what the value's length does.
        self.bytes = self.bytes + len as u64 - old as u64;
        if self.log.dead >= self.log.live {
            self.rewrite();
        }
    }

    /// Copy the live records into a fresh log, in log order, freeing each
    /// old chunk once it has been walked: the log never holds more than it
    /// did before the rewrite and one new chunk. A record is live if the
    /// slot of its hash and place is still there; a key's live record is
    /// the last of its records in log order, so its slot has not moved yet
    /// when the walk meets a dead one.
    fn rewrite(&mut self) {
        let mut fresh = Log { live: self.log.live, ..Log::default() };
        for (n, chunk) in std::mem::take(&mut self.log.chunks).into_iter().enumerate() {
            let mut pos = 0;
            while let Some(enc) = encoded_at(&chunk, pos) {
                let at = (n << CHUNK_BITS | pos) as u32;
                let found = self.index.position(key_hash(enc.rec.key), at);
                if let Some(slot) = found.and_then(|pos| self.index.slots.get_mut(pos)) {
                    slot.at = fresh.append(enc, enc.bytes.len());
                }
                pos += enc.bytes.len();
            }
        }
        self.log = fresh;
    }

    /// Look up a key's record (tombstones are returned — the caller decides
    /// what a tombstone means at its level of the search). It borrows the
    /// log: a caller copies out what it keeps (`Record::outcome`).
    pub fn get(&self, key: &[u8]) -> Option<Record<'_>> {
        // Most gets of a read-mostly store search an empty table: no hash.
        if self.is_empty() {
            return None;
        }
        let found = self.index.find(key_hash(key), |at| self.log.record_of(at, key));
        found.ok().map(|(_, rec)| rec)
    }

    /// Key-sorted records, each with its owner: the one place a MemTable's
    /// key order is made, by sorting `(word, place, owner)` triples of 16
    /// bytes — the big-endian word of the 8 key bytes past the table's
    /// shared prefix, then where the record is; equal words compare the
    /// keys (keys are unique, so an unstable sort is exact). Hash order
    /// never leaves the table.
    pub(crate) fn records(&self) -> impl Iterator<Item = (Encoded<'_>, u32)> {
        let skip = self.shared_prefix();
        let key = |at| self.log.encoded(at).map(|enc| enc.rec.key);
        let word = |at| u64::from_be_bytes(abbrev(key(at).unwrap_or_default(), skip));
        let mut sorted = Vec::with_capacity(self.len());
        sorted.extend(self.index.occupied().map(|(_, s)| (word(s.at), s.at, s.owner)));
        sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| key(a.1).cmp(&key(b.1))));
        sorted.into_iter().filter_map(|(_, at, owner)| Some((self.log.encoded(at)?, owner)))
    }

    /// Key-sorted entries, each value copied out of the log.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Entry)> {
        self.records().map(|(Encoded { rec, .. }, owner)| {
            let value = Bytes::copy_from_slice(rec.value);
            (rec.key, Entry::remote(value, rec.tombstone, owner))
        })
    }

    /// Length of the prefix every key of the table shares.
    #[allow(clippy::indexing_slicing, reason = "shared starts at first.len() and only shrinks")]
    fn shared_prefix(&self) -> usize {
        let mut keys = self.keys().map(|(_, _, key)| key);
        let Some(first) = keys.next() else { return 0 };
        keys.fold(first.len(), |shared, key| {
            first[..shared].iter().zip(key).take_while(|(a, b)| a == b).count()
        })
    }

    /// The index's occupied slots, each with its position, the hash it
    /// keeps, and the key of the record at its place (empty if there is
    /// none; the auditor counts whole records apart).
    pub(crate) fn keys(&self) -> impl Iterator<Item = (usize, u32, &[u8])> {
        self.index.occupied().map(|(pos, slot)| {
            (pos, slot.hash, self.log.encoded(slot.at).map(|enc| enc.rec.key).unwrap_or_default())
        })
    }

    /// The position of the slot a lookup of `key` finds, if one does.
    pub(crate) fn slot_of(&self, key: &[u8]) -> Option<usize> {
        let found = self.index.find(key_hash(key), |at| self.log.record_of(at, key));
        found.ok().map(|(pos, _)| pos)
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
    use crate::index::tests::with_hash_bits;
    use crate::index::{Vacancy, FIRST_SLOTS, VACANT};
    use crate::sanity::{audit_memtable, AuditReport, ViolationKind};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn bv(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }

    /// The place in the log of `key`'s record.
    fn place(m: &MemTable, key: &[u8]) -> u32 {
        m.index.slots[m.slot_of(key).unwrap()].at
    }

    #[test]
    fn insert_and_get() {
        let mut m = MemTable::new();
        m.insert(b"k1", Entry::value(bv(b"v1")));
        assert_eq!(m.get(b"k1").unwrap().value, b"v1");
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
        assert_eq!(m.iter().next().unwrap().1.owner, 7);
        // An update in place moves the owner too.
        m.insert(b"k", Entry::remote(bv(b"w"), false, 3));
        assert_eq!(
            m.iter().map(|(_, e)| e).collect::<Vec<_>>(),
            [Entry::remote(bv(b"w"), false, 3)]
        );
        assert_eq!(Entry::value(bv(b"v")).owner, NO_OWNER);
    }

    /// A same-length update overwrites its record where it lies — a value
    /// with a value, a tombstone with an empty value and back — and adds
    /// nothing to the log; any other update appends and leaves the old
    /// record's bytes dead, until dead bytes reach live ones and the log is
    /// rewritten to its live records alone.
    #[test]
    fn a_same_length_update_stays_in_place_and_a_rewrite_drops_the_dead() {
        let mut m = MemTable::new();
        m.insert(b"a", Entry::value(bv(b"1234")));
        m.insert(b"b", Entry::value(Bytes::new()));
        let (live, at) = (m.log.live, place(&m, b"a"));
        m.insert(b"a", Entry::value(bv(b"5678")));
        m.insert(b"b", Entry::tombstone());
        assert_eq!((m.log.live, m.log.dead, place(&m, b"a")), (live, 0, at));
        assert_eq!(m.get(b"a").unwrap().value, b"5678");
        assert!(m.get(b"b").unwrap().tombstone);
        m.insert(b"b", Entry::value(Bytes::new()));
        assert!(!m.get(b"b").unwrap().tombstone);
        // Longer: appended, the old 14 bytes dead (9 + key + value).
        m.insert(b"a", Entry::value(bv(b"123456")));
        assert_eq!((m.log.live, m.log.dead), (live + 2, 14));
        assert_ne!(place(&m, b"a"), at);
        // Dead reaches live: one chunk of live records and nothing dead.
        m.insert(b"a", Entry::value(bv(b"1")));
        assert_eq!((m.log.live, m.log.dead), (live - 3, 0));
        assert_eq!(m.log.chunks.iter().map(Vec::len).sum::<usize>(), m.log.live);
        assert_eq!(m.get(b"a").unwrap().value, b"1");
        assert_eq!(m.bytes(), 1 + 1 + 1 + 2 * ENTRY_OVERHEAD);
    }

    /// A record larger than a chunk gets a chunk of its own, and the next
    /// record a new one; chunks grow from the first's size to a full one.
    #[test]
    fn a_record_larger_than_a_chunk_gets_a_chunk_of_its_own() {
        let mut m = MemTable::new();
        m.insert(b"small", Entry::value(bv(b"v")));
        let big = Bytes::from(vec![7; CHUNK + 1]);
        m.insert(b"big", Entry::value(big.clone()));
        m.insert(b"after", Entry::value(bv(b"w")));
        let sizes: Vec<usize> = m.log.chunks.iter().map(Vec::capacity).collect();
        assert_eq!(sizes, [FIRST_CHUNK, RECORD_HEADER + 3 + CHUNK + 1, FIRST_CHUNK << 2]);
        assert_eq!(m.get(b"big").unwrap().value, &big[..]);
        assert_eq!(m.get(b"after").unwrap().value, b"w");
        let mut n = MemTable::new();
        (0..12_000u32).for_each(|i| n.insert(&i.to_be_bytes(), Entry::value(bv(&[0; 100]))));
        let sizes: Vec<usize> = n.log.chunks.iter().map(Vec::capacity).collect();
        assert!(sizes.len() > 64, "{} chunks", sizes.len());
        assert_eq!(sizes[..6], [512, 1024, 2048, 4096, 8192, CHUNK]);
        assert!(sizes[6..].iter().all(|&size| size == CHUNK));
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

    /// Run `steps` on a MemTable and on a `BTreeMap` model: after every
    /// step the log's live bytes are the model's records' and its dead bytes
    /// never more; at the end every key of the run is found or not as the
    /// model says, `iter()` yields the model's entries in its key order, the
    /// count and the bytes are the model's, and the auditor finds nothing.
    /// How many steps rewrote the log, and the table.
    fn run_against_a_model(
        pool: &[Vec<u8>],
        steps: &[(usize, Vec<u8>, bool)],
    ) -> (usize, MemTable) {
        let mut m = MemTable::new();
        let mut model: BTreeMap<Vec<u8>, Entry> = BTreeMap::new();
        let mut rewrites = 0;
        for (i, value, tomb) in steps {
            let e = if *tomb { Entry::tombstone() } else { Entry::value(bv(value)) };
            let key = &pool[i % pool.len()];
            let dead = m.log.dead;
            m.insert(key, e.clone());
            model.insert(key.clone(), e);
            rewrites += usize::from(m.log.dead < dead);
            let live: usize =
                model.iter().map(|(k, e)| RECORD_HEADER + k.len() + e.value.len()).sum();
            assert_eq!(m.log.live, live);
            assert!(m.log.dead <= live, "{} dead bytes over {live} live", m.log.dead);
        }
        for key in pool {
            let longer = [&key[..], b"x"].concat();
            for key in [&key[..], &longer] {
                assert_eq!(m.get(key), model.get(key).map(|e| Record::from((key, e))));
            }
        }
        let got: Vec<(&[u8], Entry)> = m.iter().collect();
        let want: Vec<(&[u8], Entry)> = model.iter().map(|(k, e)| (&k[..], e.clone())).collect();
        assert_eq!(got, want);
        assert_eq!(m.len(), model.len());
        assert_eq!(m.iter().count(), model.len());
        let bytes = model.iter().map(|(k, e)| k.len() + e.value.len()).sum::<usize>() as u64;
        assert_eq!(m.bytes(), bytes + model.len() as u64 * ENTRY_OVERHEAD);
        let mut report = AuditReport::default();
        audit_memtable("model", &m, &mut report);
        assert!(report.is_clean(), "{}", report.render());
        (rewrites, m)
    }

    proptest! {
        /// Against a `BTreeMap` model of the same steps
        /// (`run_against_a_model`): values change length, and flip to
        /// tombstones and back, in place and appended, across rewrites of
        /// the log.
        #[test]
        fn a_memtable_is_a_byte_accounted_ordered_map(pool in key_pool(), steps in steps()) {
            run_against_a_model(&pool, &steps);
        }
    }

    /// The model run through rewrites, made sure of: two keys, values of
    /// alternating lengths, every third step a tombstone.
    #[test]
    fn a_memtable_matches_its_model_across_log_rewrites() {
        let pool = [b"key-a".to_vec(), b"key-b".to_vec()];
        let steps: Vec<_> =
            (0..60).map(|i| (i, vec![i as u8; [3, 0, 8][i % 3]], i % 3 == 1)).collect();
        assert!(run_against_a_model(&pool, &steps).0 > 3);
    }

    /// Hashes cut to 3 bits, so that hundreds of keys share each one: the
    /// index still matches the model through inserts, same-length and
    /// other-length updates, tombstones, log rewrites and seven growths —
    /// a key is told from another of its hash only where its record lies.
    #[test]
    fn colliding_hashes_match_the_model_across_growths_and_rewrites() {
        let pool: Vec<Vec<u8>> = (0..300u32).map(|i| format!("key-{i}").into_bytes()).collect();
        // Every key put once, then updates of a few keys: values of
        // alternating lengths (appended, so the log is rewritten), of the
        // same length (in place) and tombstones.
        let steps: Vec<_> = (0..300)
            .chain((0..2400).map(|i| i * 7 % 41))
            .enumerate()
            .map(|(step, i)| (i, vec![step as u8; [4, 4, 9, 0][step % 4]], step % 7 == 6))
            .collect();
        let (rewrites, m) = with_hash_bits(3, || run_against_a_model(&pool, &steps));
        assert!(rewrites > 3, "{rewrites} rewrites");
        assert_eq!(m.index.slots.len(), FIRST_SLOTS << 7);
        let hashes: std::collections::BTreeSet<u32> =
            m.index.occupied().map(|(_, s)| s.hash).collect();
        assert_eq!(hashes.len(), 8);
    }

    proptest! {
        /// The model run with hashes cut to 0 to 3 bits: every key of a run
        /// may share its hash with every other.
        #[test]
        fn a_memtable_of_colliding_hashes_is_an_ordered_map(
            pool in key_pool(),
            steps in steps(),
            bits in 0u32..4,
        ) {
            with_hash_bits(bits, || run_against_a_model(&pool, &steps));
        }
    }

    /// A table at its most full, 7/8 of its slots: a key it does not hold
    /// is answered in under 6 slot reads on average and never more than 24 —
    /// a probe stops at the first slot nearer its home than the key would
    /// be. Probing on to the first vacant slot reads about 48 here.
    #[test]
    fn a_miss_in_a_full_table_reads_few_slots() {
        let mut m = MemTable::new();
        let mut i = 0u32;
        while m.index.slots.len() < 4096 || !m.index.is_full() {
            m.insert(format!("key-{i}").as_bytes(), Entry::value(Bytes::new()));
            i += 1;
        }
        assert_eq!((m.len(), m.index.slots.len()), (3584, 4096));
        let log = &m.log;
        let reads: Vec<usize> = (0..10_000)
            .map(|j| format!("absent-{j}"))
            .map(|key| {
                match m.index.find(key_hash(key.as_bytes()), |at| log.record_of(at, key.as_bytes()))
                {
                    Ok((pos, _)) => panic!("{key} found at {pos}"),
                    Err(Vacancy { dist, .. }) => dist + 1,
                }
            })
            .collect();
        let mean = reads.iter().sum::<usize>() as f64 / reads.len() as f64;
        let most = reads.iter().max().unwrap();
        assert!(mean < 6.0 && *most <= 24, "{mean:.2} slot reads a miss, at most {most}");
    }

    /// The auditor reads the index: a slot whose hash is not its key's, a
    /// slot moved where a probe from its home stops short of it, and a
    /// count of keys the slots do not hold are each an `LsmState` fault.
    #[test]
    fn the_auditor_convicts_a_wrong_hash_a_misplaced_slot_and_a_miscount() {
        let faults = |m: &MemTable| {
            let mut report = AuditReport::default();
            audit_memtable("planted", m, &mut report);
            assert!(report.violations.iter().all(|v| v.kind == ViolationKind::LsmState));
            report.violations.into_iter().map(|v| v.detail).collect::<Vec<_>>()
        };
        let table = || {
            let mut m = MemTable::new();
            for key in [&b"a"[..], b"b", b"c"] {
                m.insert(key, Entry::value(bv(b"v")));
            }
            m
        };
        assert_eq!(faults(&table()), Vec::<String>::new());

        let mut wrong = table();
        let pos = wrong.slot_of(b"b").unwrap();
        wrong.index.slots[pos].hash ^= 1 << 31;
        let got = faults(&wrong);
        assert!(got.iter().any(|d| d.contains(&format!("slot {pos} keeps hash"))), "{got:?}");

        // Into the vacant slot: the probe from its home stops where it was.
        let mut moved = table();
        let pos = moved.slot_of(b"c").unwrap();
        let to = (0..4).find(|&to| moved.index.slots[to].at == VACANT).unwrap();
        moved.index.slots.swap(pos, to);
        let got = faults(&moved);
        let lost = |d: &String| d.contains("\"c\" in slot") && d.contains("not found");
        assert!(got.iter().any(lost), "{got:?}");

        let mut miscounted = table();
        miscounted.index.len += 1;
        assert!(faults(&miscounted).iter().any(|d| d.contains("occupies 3 slots for 4 keys")));
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
