//! MemTables: the in-memory write staging structure (paper §2.3-§2.4).
//!
//! A database owns four kinds of MemTable — local, immutable local, remote,
//! and immutable remote. All four share this one structure: a log of
//! records plus a hash index and byte accounting (DESIGN §1). The paper's
//! MemTable is a red-black tree, kept ordered for the one reader that needs
//! order, the flush; here it is an append log and a hash index over it, as
//! the cache is (`lru.rs`):
//!
//! * **The log** (`log.rs`) holds every record in the one SSData codec, in
//!   `Vec<u8>` chunks; **the index** (`index.rs`) holds no keys, and a
//!   slot's tag is the rank a staging table's record is bound for. A put or
//!   a get is one probe, which also finds where a new key goes. A MemTable
//!   never removes a slot: a freeze takes the whole table.
//! * **An update** of the same length — a new value as long as the old, or
//!   a tombstone over a tombstone or an empty value — overwrites its record
//!   in place. Any other update appends, and the old record's bytes are
//!   dead until the log is rewritten.
//! * **A get** copies its value out (`Record::outcome`, as an SSTable get
//!   does), so no caller ever holds a view into the log, and an in-place
//!   update changes nothing anyone was handed.
//! * **Key order** is made once, by `MemTable::records`, when a frozen
//!   table is flushed or migrated (or a table is audited), off the put and
//!   get paths. It reads each live record once, for its word: the 8 bytes
//!   of its key that follow the prefix every key of the table shares
//!   (`key::abbrev`), a prefix the table keeps as it grows, since a put of
//!   a new key holds the key already. The words are sorted — a table of
//!   `RADIX_FROM` keys or more by an LSD radix sort that skips every byte
//!   the words all agree on, a smaller one by a comparison sort — and only
//!   keys whose words tie are compared whole. A consumer copies the records'
//!   bytes — into the flush's SSData, a migration's batch, the stack's
//!   record list — and encodes none of them again.
//!
//! "Immutable" is a usage mode: a frozen table is wrapped in `Arc` and only
//! read (by gets walking the flushing / migration queues, and by the
//! compaction or dispatcher task consuming it).

use bytes::Bytes;

use crate::index::{key_hash, Index, Slot};
use crate::key::{abbrev, shared_len};
use crate::log::Log;
pub use crate::log::CHUNK;
use crate::sstable::{Encoded, PutRecord, Record, RECORD_HEADER};

/// Fixed per-entry metadata overhead counted against the MemTable capacity
/// (the paper's tree node links, tombstone flag, owner rank). A log has no
/// node links; the charge is kept so that every freeze point, and every
/// number that follows from one, is the paper's accounting.
pub const ENTRY_OVERHEAD: u64 = 24;

/// Marker for entries in local MemTables, which carry no owner rank.
pub const NO_OWNER: u32 = u32::MAX;

/// Keys from which a table's key order is made by a radix sort of its
/// words rather than a comparison sort. The radix sort pays a fixed cost —
/// its byte histograms and one pass over the words for each byte they do
/// not all agree on — that a small table does not earn back: timed on
/// `(word, place, owner)` triples of 16-byte `user`-and-twelve-digit keys
/// (six varying bytes, so six passes), best of seven runs, the comparison
/// sort took 6–12 ns a key up to 192 keys against the radix sort's 16–310,
/// the two were level at 512–1024 (20–28 ns each), and at 12 600 keys — an
/// `ingest` flush — the radix sort took 17–24 ns against 29–40. A
/// migration's staging table, of one or two keys under `serve_resp`,
/// stays far below.
pub(crate) const RADIX_FROM: usize = 1024;

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

/// An in-memory, byte-accounted table of records, iterated in key order.
#[derive(Debug, Default)]
pub struct MemTable {
    pub(crate) index: Index,
    pub(crate) log: Log<Vec<u8>>,
    bytes: u64,
    /// Length of the prefix every key of the table shares.
    prefix: usize,
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
        let vacancy = match self.log.find(&self.index, hash, key) {
            Ok((pos, _)) => return self.update(pos, rec, len, owner),
            Err(vacancy) => vacancy,
        };
        self.prefix = if self.is_empty() {
            key.len()
        } else {
            // The log's first record is of a key of the table: a key once
            // put stays one, and the log holds a record of it.
            let first = self.log.record(0).map(|enc| enc.rec.key).unwrap_or_default();
            shared_len(first.get(..self.prefix).unwrap_or_default(), key)
        };
        let at = self.log.append(rec, len);
        self.index.insert(vacancy, Slot { hash, at, tag: owner });
        self.bytes += (key.len() + value.len()) as u64 + ENTRY_OVERHEAD;
    }

    /// Replace the record of the key in slot `pos` with `rec`, `len` bytes
    /// encoded, bound for `owner`.
    fn update<'a>(&mut self, pos: usize, rec: impl PutRecord<'a>, len: usize, owner: u32) {
        let Record { value, tombstone, .. } = rec.record();
        let Some(slot) = self.index.slots.get_mut(pos) else { return };
        slot.tag = owner;
        // Same key: the record is as long as the old one if the value is.
        let old = self.log.overwrite(slot.at, value, tombstone);
        if old == len {
            return;
        }
        let was = std::mem::replace(&mut slot.at, self.log.append(rec, len));
        self.log.kill(was, old);
        // Same key: the logical size moves by what the value's length does.
        self.bytes = self.bytes + len as u64 - old as u64;
        self.log.tidy(&mut self.index);
    }

    /// Look up a key's record (tombstones are returned — the caller decides
    /// what a tombstone means at its level of the search). It borrows the
    /// log: a caller copies out what it keeps (`Record::outcome`).
    pub fn get(&self, key: &[u8]) -> Option<Record<'_>> {
        self.log.lookup(&self.index, key).map(|(_, rec)| rec)
    }

    /// Key-sorted records, each with its owner: the one place a MemTable's
    /// key order is made, by sorting `(word, place, owner)` triples of 16
    /// bytes — the big-endian word of the 8 key bytes past the table's
    /// shared prefix, then where the record is — by word, [`radix_sort`]ed
    /// from [`RADIX_FROM`] keys on; a run of equal words is then sorted by
    /// its keys (keys are unique, so an unstable sort is exact). Each live
    /// record is read once for its word, and again as the consumer takes it.
    /// A table whose log holds no dead record and whose records are bound
    /// for no rank — a local table that was never updated to another
    /// length, as a flush's mostly is — is read in log order, chunk by
    /// chunk; any other in the index's order, each record where it lies.
    /// Hash order never leaves the table.
    pub(crate) fn records(&self) -> impl Iterator<Item = (Encoded<'_>, u32)> {
        let key = |at| self.log.record(at).map(|enc| enc.rec.key).unwrap_or_default();
        let word = |key| u64::from_be_bytes(abbrev(key, self.prefix));
        let mut sorted = Vec::with_capacity(self.len());
        if self.log.dead == 0 && self.index.occupied().all(|(_, s)| s.tag == NO_OWNER) {
            sorted.extend(self.log.walk().map(|(at, enc)| (word(enc.rec.key), at, NO_OWNER)));
        } else {
            sorted.extend(self.index.occupied().map(|(_, s)| (word(key(s.at)), s.at, s.tag)));
        }
        if sorted.len() >= RADIX_FROM {
            radix_sort(&mut sorted);
        } else {
            sorted.sort_unstable_by_key(|&(word, ..)| word);
        }
        for ties in sorted.chunk_by_mut(|a, b| a.0 == b.0).filter(|run| run.len() > 1) {
            ties.sort_unstable_by(|a, b| key(a.1).cmp(key(b.1)));
        }
        sorted.into_iter().filter_map(|(_, at, owner)| Some((self.log.record(at)?, owner)))
    }

    /// Key-sorted entries, each value copied out of the log.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Entry)> {
        self.records().map(|(Encoded { rec, .. }, owner)| {
            let value = Bytes::copy_from_slice(rec.value);
            (rec.key, Entry::remote(value, rec.tombstone, owner))
        })
    }

    /// Length of the prefix every key of the table shares, as the table
    /// kept it while it grew (0 while it is empty).
    pub(crate) fn shared_prefix(&self) -> usize {
        self.prefix
    }

    /// Freeze: take the current contents out, leaving this table empty. The
    /// returned table becomes the immutable MemTable; "a new MemTable is
    /// created to handle new writes" (§2.4).
    pub fn freeze(&mut self) -> MemTable {
        std::mem::take(self)
    }
}

/// Sort `words` by their first field, stably: an LSD radix sort a byte at a
/// time, least significant first, that skips each byte on which every word
/// agrees. All eight byte histograms are counted in one pass; each byte
/// sorted is then one pass that scatters the words from one buffer into the
/// other: `words` and a scratch buffer as long, freed before the sort
/// returns, so the table's encoder never holds it beside the image.
#[allow(
    clippy::indexing_slicing,
    reason = "a byte indexes 256 counts; a count's running offset stays below the words' length"
)]
fn radix_sort(words: &mut Vec<(u64, u32, u32)>) {
    let n = words.len();
    let Some(&(first, ..)) = words.first() else { return };
    let mut counts = [[0u32; 256]; 8];
    for &(word, ..) in words.iter() {
        for (digit, count) in counts.iter_mut().enumerate() {
            count[(word >> (8 * digit)) as u8 as usize] += 1;
        }
    }
    let mut scratch = vec![(0, 0, 0); n];
    let (mut from, mut to) = (&mut words[..], &mut scratch[..]);
    let mut in_scratch = false;
    for (digit, count) in counts.iter().enumerate() {
        let shift = 8 * digit;
        if count[(first >> shift) as u8 as usize] as usize == n {
            continue;
        }
        let mut at = [0u32; 256];
        let mut sum = 0;
        for (at, count) in at.iter_mut().zip(count) {
            (*at, sum) = (sum, sum + count);
        }
        for &triple in from.iter() {
            let byte = (triple.0 >> shift) as u8 as usize;
            to[at[byte] as usize] = triple;
            at[byte] += 1;
        }
        (from, to) = (to, from);
        in_scratch = !in_scratch;
    }
    if in_scratch {
        std::mem::swap(words, &mut scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::with_hash_bits;
    use crate::index::{Vacancy, FIRST_SLOTS, VACANT};
    use crate::log::FIRST_CHUNK;
    use crate::sanity::{audit_memtable, AuditReport, ViolationKind};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn bv(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }

    /// The position of `key`'s slot.
    fn slot_of(m: &MemTable, key: &[u8]) -> usize {
        m.log.lookup(&m.index, key).unwrap().0
    }

    /// The place in the log of `key`'s record.
    fn place(m: &MemTable, key: &[u8]) -> u32 {
        m.index.slots[slot_of(m, key)].at
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
    /// record a new one.
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

    /// Owners a model run binds its steps for: none, as in a local table,
    /// or one of three ranks and none, as in a staging table.
    const UNBOUND: &[u32] = &[NO_OWNER];
    const BOUND: &[u32] = &[NO_OWNER, 0, 1, 7];

    /// Run `steps` on a MemTable and on a `BTreeMap` model, each step bound
    /// for one of `owners`, picked by its place in the run and its value's
    /// length: after every step the log's live bytes are the model's
    /// records' and its dead bytes never more; at the end every key of the
    /// run is found or not as the model says, `iter()` yields the model's
    /// entries, owners included, in its key order, the count and the bytes
    /// are the model's, and the auditor finds nothing. How many steps
    /// rewrote the log, and the table.
    fn run_against_a_model(
        pool: &[Vec<u8>],
        steps: &[(usize, Vec<u8>, bool)],
        owners: &[u32],
    ) -> (usize, MemTable) {
        let mut m = MemTable::new();
        let mut model: BTreeMap<Vec<u8>, Entry> = BTreeMap::new();
        let (mut rewrites, mut live) = (0, 0);
        let encoded = |key: &[u8], e: &Entry| RECORD_HEADER + key.len() + e.value.len();
        for (step, (i, value, tomb)) in steps.iter().enumerate() {
            let owner = owners[(step + value.len()) % owners.len()];
            let value = if *tomb { Bytes::new() } else { bv(value) };
            let e = Entry::remote(value, *tomb, owner);
            let key = &pool[i % pool.len()];
            let dead = m.log.dead;
            m.insert(key, e.clone());
            live += encoded(key, &e);
            live -= model.insert(key.clone(), e).map_or(0, |old| encoded(key, &old));
            rewrites += usize::from(m.log.dead < dead);
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
        fn a_memtable_is_a_byte_accounted_ordered_map(
            pool in key_pool(),
            steps in steps(),
            bound in any::<bool>(),
        ) {
            run_against_a_model(&pool, &steps, if bound { BOUND } else { UNBOUND });
        }
    }

    /// The model run through rewrites, made sure of: two keys, values of
    /// alternating lengths, every third step a tombstone.
    #[test]
    fn a_memtable_matches_its_model_across_log_rewrites() {
        let pool = [b"key-a".to_vec(), b"key-b".to_vec()];
        let steps: Vec<_> =
            (0..60).map(|i| (i, vec![i as u8; [3, 0, 8][i % 3]], i % 3 == 1)).collect();
        assert!(run_against_a_model(&pool, &steps, BOUND).0 > 3);
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
        let (rewrites, m) = with_hash_bits(3, || run_against_a_model(&pool, &steps, BOUND));
        assert!(rewrites > 3, "{rewrites} rewrites");
        assert_eq!(m.index.slots.len(), FIRST_SLOTS << 7);
        let hashes: std::collections::BTreeSet<u32> =
            m.index.occupied().map(|(_, s)| s.hash).collect();
        assert_eq!(hashes.len(), 8);
    }

    /// Keys for a table of 40 keys either side of [`RADIX_FROM`], so that
    /// its order is made by either sort, whose words tie in runs: behind a
    /// prefix they all share, of none, 7 or 29 arbitrary bytes, a key is
    /// either 8 equal bytes, `0x00` or `0x01`, and a tail of up to 4 bytes
    /// — each such key's word ties 30 others' — or a tail alone, of up to
    /// 12 bytes; tails are over `0x00` and `0x01`, so keys are prefixes and
    /// zero-extensions of each other. Drawn from a seeded generator until
    /// there are as many keys as asked for.
    fn tying_pool() -> impl Strategy<Value = Vec<Vec<u8>>> {
        let prefix = (0usize..3, vec(any::<u8>(), 29..30));
        let size = RADIX_FROM - 40..RADIX_FROM + 40;
        (prefix, size, any::<u64>()).prop_map(|((len, prefix), size, seed)| {
            let prefix = &prefix[..[0, 7, 29][len]];
            let mut state = seed | 1;
            let mut draw = |below: u64| {
                state =
                    state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(0x1405_7b7e_f767_814f);
                (state >> 33) % below
            };
            let mut keys = std::collections::BTreeSet::new();
            while keys.len() < size {
                let (head, tail) = match draw(4) {
                    0 => (vec![draw(2) as u8; 8], draw(5)),
                    _ => (Vec::new(), draw(13)),
                };
                let tail: Vec<u8> = (0..tail).map(|_| draw(2) as u8).collect();
                keys.insert([prefix, &head, &tail].concat());
            }
            let mut keys: Vec<Vec<u8>> = keys.into_iter().collect();
            // Put in an order of the seed's, not the keys'.
            for i in (1..keys.len()).rev() {
                keys.swap(i, draw(i as u64 + 1) as usize);
            }
            keys
        })
    }

    proptest! {
        /// The model run on a table of about [`RADIX_FROM`] keys whose words
        /// tie (`tying_pool`), its steps bound for ranks or not: every key
        /// put — a log of live records alone — and then, in a second run,
        /// updated twice, each time to a value of another length, so the log
        /// is rewritten on the way; every ninth step a tombstone.
        #[test]
        fn a_table_either_side_of_the_crossover_is_an_ordered_map(
            pool in tying_pool(),
            bound in any::<bool>(),
        ) {
            let n = pool.len();
            let owners = if bound { BOUND } else { UNBOUND };
            let steps: Vec<_> = (0..3 * n)
                .map(|step| (step, vec![step as u8; [1, 6, 3][step / n]], step % 9 == 4))
                .collect();
            let (_, m) = run_against_a_model(&pool, &steps[..n], owners);
            prop_assert_eq!((m.len(), m.log.dead), (n, 0));
            let (rewrites, m) = run_against_a_model(&pool, &steps, owners);
            prop_assert!(rewrites > 0, "no rewrite");
            prop_assert_eq!(m.len(), n);
        }
    }

    proptest! {
        /// The radix sort is a stable sort by word, whichever bytes of the
        /// words vary — none, one, an odd or an even number of them — so the
        /// sorted words end in the scratch buffer as often as in place.
        #[test]
        fn the_radix_sort_is_a_stable_sort_by_word(
            words in vec(any::<u64>(), 0..600),
            mask in any::<u64>(),
            varying in any::<u8>(),
        ) {
            let mask = mask & u64::from_le_bytes(std::array::from_fn(|b| {
                if varying & (1 << b) != 0 { 0xff } else { 0 }
            }));
            let mut triples: Vec<(u64, u32, u32)> =
                words.iter().enumerate().map(|(i, w)| (w & mask, i as u32, i as u32 % 3)).collect();
            let mut want = triples.clone();
            want.sort_by_key(|&(word, ..)| word);
            radix_sort(&mut triples);
            prop_assert_eq!(triples, want);
        }
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
            with_hash_bits(bits, || run_against_a_model(&pool, &steps, UNBOUND));
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
        let reads: Vec<usize> = (0..10_000)
            .map(|j| format!("absent-{j}"))
            .map(|key| match m.log.find(&m.index, key_hash(key.as_bytes()), key.as_bytes()) {
                Ok((pos, _)) => panic!("{key} found at {pos}"),
                Err(Vacancy { dist, .. }) => dist + 1,
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
        let pos = slot_of(&wrong, b"b");
        wrong.index.slots[pos].hash ^= 1 << 31;
        let got = faults(&wrong);
        assert!(got.iter().any(|d| d.contains(&format!("slot {pos} keeps hash"))), "{got:?}");

        // Into the vacant slot: the probe from its home stops where it was.
        let mut moved = table();
        let pos = slot_of(&moved, b"c");
        let to = (0..4).find(|&to| moved.index.slots[to].at == VACANT).unwrap();
        moved.index.slots.swap(pos, to);
        let got = faults(&moved);
        let lost = |d: &String| d.contains("\"c\" in slot") && d.contains("not found");
        assert!(got.iter().any(lost), "{got:?}");

        let mut miscounted = table();
        miscounted.index.len += 1;
        assert!(faults(&miscounted).iter().any(|d| d.contains("occupies 3 slots for 4 keys")));
    }

    /// The prefix a table keeps as it grows is its keys' shared prefix:
    /// grown with the first key, cut by each new one, left alone by an
    /// update and a rewrite of the log. One kept too long or too short is
    /// an `LsmState` fault — too long, the sort would skip bytes some keys
    /// differ in.
    #[test]
    fn the_kept_prefix_is_the_keys_shared_prefix_and_the_auditor_recounts_it() {
        let mut m = MemTable::new();
        assert_eq!(m.shared_prefix(), 0);
        m.insert(b"user-0001", Entry::value(bv(b"v")));
        assert_eq!(m.shared_prefix(), 9);
        m.insert(b"user-0002", Entry::value(bv(b"v")));
        assert_eq!(m.shared_prefix(), 8);
        m.insert(b"user-0102", Entry::value(bv(b"v")));
        assert_eq!(m.shared_prefix(), 6);
        // Updates, one rewriting the log whose first record was dead.
        for value in [&b"longer"[..], b"even longer", b"longer"] {
            m.insert(b"user-0001", Entry::value(bv(value)));
        }
        assert_eq!((m.shared_prefix(), m.log.record(0).unwrap().rec.key), (6, &b"user-0002"[..]));
        m.insert(b"user-1", Entry::tombstone());
        assert_eq!(m.shared_prefix(), 5);
        assert_eq!(m.freeze().shared_prefix(), 5);
        assert_eq!(m.shared_prefix(), 0);

        let convicted = |m: &MemTable, want: &str| {
            let mut report = AuditReport::default();
            audit_memtable("planted", m, &mut report);
            assert!(report.violations.iter().all(|v| v.kind == ViolationKind::LsmState));
            assert!(report.violations.iter().any(|v| v.detail.contains(want)), "{report:?}");
        };
        for (kept, want) in [(6, "prefix of 6 bytes; its keys share 5"), (2, "of 2 bytes")] {
            let mut planted = MemTable::new();
            planted.insert(b"user-1", Entry::value(bv(b"v")));
            planted.insert(b"user-2", Entry::value(bv(b"v")));
            planted.prefix = kept;
            convicted(&planted, want);
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
