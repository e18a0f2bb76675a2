//! SSTables: immutable sorted on-NVM tables (paper §2.4-§2.6).
//!
//! Each SSTable consists of three files ([`SST_FILES`]):
//!
//! * **SSData** — the key-value records, sorted by key:
//!   `[keylen: u32][vallen: u32][tombstone: u8][key][value]*`
//! * **SSIndex** — a sparse fence index over SSData, one entry per
//!   **block**: `[record count: u64][block count: u64]([block offset: u64]
//!   [keylen: u32][first key])*`. A block is a run of whole records that the
//!   encoder closes once it holds 4 KiB (`BLOCK_BYTES`) of SSData —
//!   byte-bounded, so a record of a large value is a block of its own and a
//!   get never drags a neighbour's value along. (The paper's SSIndex holds
//!   "the offsets and lengths of keys" of every record and no key, which
//!   costs a device read per search probe; carrying the fence keys is a
//!   beyond-the-paper deviation, DESIGN §5.)
//! * **bloom** — the serialized [`crate::bloom::Bloom`] filter.
//!
//! The record layout has one home, the codec (`put_record` / `record_at`),
//! and one walk: a [`Cursor`] over a run of records — an SSData image, one
//! block of it, or the body of a batch on the wire ([`crate::msg::Batch`]) —
//! yields the [`Record`]s in place and says whether it stopped on the last
//! byte. Both gets, [`merge_at`], restart's redistribution, the stack's
//! record list, the auditor and the message handler's ingest are callers of
//! it. The SSIndex layout has one home too (`put_fence` / `Fences::decode`).
//!
//! A get either **binary searches** the fence keys of the in-memory SSIndex
//! — in DRAM, uncharged like the bloom probe — and then reads the one block
//! that can hold the key (**one random NVM read per table searched**, none
//! when the key sorts below the table's first key; the §2.6 optimisation
//! exploiting NVM's fast random access), or **linearly scans** one SSData
//! image from the start (the Figure 8 "Default" baseline). Either way the
//! records read are walked in place by the one cursor. A value found is
//! copied out of what was read, so it never pins the block or the table it
//! was cut from. Whether the bloom filter is consulted first is the caller's
//! decision (`Options::bloom_filter`, made once in the database's SSTable
//! walk): [`SstReader::get_at`] itself always searches.
//!
//! SSTables are immutable: updates and deletes go to new SSTables with
//! higher SSIDs; [`merge_at`] is the §2.5 compaction that folds a set of
//! SSTables into one under that section's rule, `merge`: a k-way merge of
//! cursors and MemTable iterators that streams straight into the encoder —
//! what a merge holds is its inputs' images and its output's, never a
//! decoded copy.

use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use papyrus_nvm::{IoFault, NvmStore};
use papyrus_simtime::{AccessPattern, SimNs};

use crate::bloom::Bloom;
use crate::error::{Error, Result};
use crate::hashfn::fnv1a64;
use crate::lru::CacheEntry;
use crate::memtable::{Entry, MemTable, ENTRY_OVERHEAD};

/// Per-database, per-rank, unique increasing SSTable number, starting at 1.
pub type Ssid = u64;

/// The three objects of an SSTable, as extensions of its base path, in the
/// order they are written: SSData, SSIndex, bloom filter.
pub const SST_FILES: [&str; 3] = ["data", "index", "bloom"];

/// Outcome of searching one storage level — a MemTable, a cache, an
/// SSTable — for a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SstGet {
    /// Key found with a live value.
    Found(Bytes),
    /// Key found but tombstoned (search stops: the key is deleted).
    Tombstone,
    /// Key not at this level (search continues in older levels).
    NotFound,
}

impl SstGet {
    /// The live value, if any: a tombstone and a miss both read as absent.
    pub fn into_value(self) -> Option<Bytes> {
        match self {
            SstGet::Found(v) => Some(v),
            SstGet::Tombstone | SstGet::NotFound => None,
        }
    }

    /// What a cache remembers of this outcome: nothing for a miss.
    pub(crate) fn cache_entry(&self) -> Option<CacheEntry> {
        match self {
            SstGet::Found(v) => Some(CacheEntry::value(v.clone())),
            SstGet::Tombstone => Some(CacheEntry::tombstone()),
            SstGet::NotFound => None,
        }
    }
}

impl From<&Entry> for SstGet {
    fn from(e: &Entry) -> Self {
        if e.tombstone {
            SstGet::Tombstone
        } else {
            SstGet::Found(e.value.clone())
        }
    }
}

impl From<CacheEntry> for SstGet {
    fn from(e: CacheEntry) -> Self {
        if e.tombstone {
            SstGet::Tombstone
        } else {
            SstGet::Found(e.value)
        }
    }
}

/// The three object names of an SSTable at `base`, in [`SST_FILES`] order.
fn files_of(base: &str) -> [String; 3] {
    SST_FILES.map(|ext| format!("{base}.{ext}"))
}

/// Canonical base path of an SSTable:
/// `<repo>/<db>/r<rank>/sst<ssid, zero padded>`.
pub fn sst_base(repo: &str, db: &str, rank: usize, ssid: Ssid) -> String {
    format!("{repo}/{db}/r{rank}/sst{ssid:010}")
}

/// Base path of a *replica* SSTable held by `rank` for `origin`'s ranges
/// (DESIGN §11). The `rep<origin>-` prefix keeps replica tables in a
/// namespace disjoint from primary `sst*` files: salvage, the manifest,
/// and checkpoint all match on the `sst` prefix and therefore never see
/// replica data, while `destroy` removes the whole `r<rank>/` directory
/// and takes replica files with it.
pub fn repl_sst_base(repo: &str, db: &str, rank: usize, origin: usize, ssid: Ssid) -> String {
    format!("{repo}/{db}/r{rank}/rep{origin:04}-sst{ssid:010}")
}

// ----- the SSData record codec -----

const RECORD_HEADER: usize = 9; // keylen u32 + vallen u32 + tombstone u8

/// One record — a key's state at one level of a stack — borrowing the
/// SSData image or the MemTable that holds it. Empty value for a tombstone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    pub key: &'a [u8],
    pub value: &'a [u8],
    pub tombstone: bool,
}

impl Record<'_> {
    /// What a search that matched this record returns: the value copied
    /// out, owning only its own bytes.
    fn outcome(&self) -> SstGet {
        if self.tombstone {
            SstGet::Tombstone
        } else {
            SstGet::Found(Bytes::copy_from_slice(self.value))
        }
    }
}

impl<'a> From<(&'a [u8], &'a Entry)> for Record<'a> {
    fn from((key, e): (&'a [u8], &'a Entry)) -> Self {
        Self { key, value: &e.value, tombstone: e.tombstone }
    }
}

/// Append `rec` to a run of records: an SSData image or a batch body.
pub(crate) fn put_record(data: &mut impl BufMut, rec: Record<'_>) {
    let mut header = [0; RECORD_HEADER];
    header[0..4].copy_from_slice(&(rec.key.len() as u32).to_le_bytes());
    header[4..8].copy_from_slice(&(rec.value.len() as u32).to_le_bytes());
    header[8] = u8::from(rec.tombstone);
    data.put_slice(&header);
    data.put_slice(rec.key);
    data.put_slice(rec.value);
}

/// Decode the record starting at `pos` of `data`. Total: `None` when
/// `pos`, the header or the lengths it names run past the end.
fn record_at(data: &[u8], pos: usize) -> Option<Record<'_>> {
    let rest = data.get(pos..)?;
    let header = rest.get(..RECORD_HEADER)?;
    let keylen = u32::from_le_bytes(header[0..4].try_into().ok()?) as usize;
    let vallen = u32::from_le_bytes(header[4..8].try_into().ok()?) as usize;
    let tombstone = header[8] != 0;
    let key_end = RECORD_HEADER.checked_add(keylen)?;
    let end = key_end.checked_add(vallen)?;
    Some(Record {
        key: rest.get(RECORD_HEADER..key_end)?,
        value: rest.get(key_end..end)?,
        tombstone,
    })
}

/// The one walk of the record format: the records of `data` — an SSData
/// image or one block of it — in place, in file order. It stops at the
/// first position that does not decode; [`Cursor::is_whole`] tells an image
/// of whole records from one cut short or followed by garbage.
pub struct Cursor<'a> {
    data: &'a [u8],
    /// Bytes walked: where the next record starts.
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the first record of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Walk what is left: whether the walk stops on the image's last byte —
    /// the image is nothing but whole records — or short of it.
    pub fn is_whole(mut self) -> bool {
        self.by_ref().for_each(drop);
        self.pos == self.data.len()
    }
}

impl<'a> Iterator for Cursor<'a> {
    type Item = Record<'a>;

    fn next(&mut self) -> Option<Record<'a>> {
        let rec = record_at(self.data, self.pos)?;
        self.pos += RECORD_HEADER + rec.key.len() + rec.value.len();
        Some(rec)
    }
}

/// Walk `data` up to `key`. Returns what the record holding `key` says, if
/// there is one, and the bytes walked: through that record, or through the
/// first record that sorts after `key` (records are sorted: once past the
/// key, it's absent).
fn seek(data: &[u8], key: &[u8]) -> (SstGet, usize) {
    let mut records = Cursor::new(data);
    while let Some(rec) = records.next() {
        match key.cmp(rec.key) {
            std::cmp::Ordering::Equal => return (rec.outcome(), records.pos),
            std::cmp::Ordering::Less => break,
            std::cmp::Ordering::Greater => {}
        }
    }
    (SstGet::NotFound, records.pos)
}

/// The §2.5 rule, once: a k-way merge of key-sorted levels, given **newest
/// first**, that yields every key once, in key order, with the record of
/// the newest level holding it — "the key-value pair in the newest SSTable
/// that has the highest SSID is inserted in the new merged SSTable".
/// Tombstones are records; a caller that may drop them filters. The heads
/// are compared directly (a stack has a handful of levels): no heap, no map
/// and nothing allocated per record.
pub(crate) fn merge<'a, L: Iterator<Item = Record<'a>>>(
    newest_first: impl IntoIterator<Item = L>,
) -> impl Iterator<Item = Record<'a>> {
    // Each level with its next record.
    let mut levels: Vec<(Option<Record<'a>>, L)> =
        newest_first.into_iter().map(|mut level| (level.next(), level)).collect();
    std::iter::from_fn(move || {
        // The lowest head; of equal ones the first, which is the newest.
        let winner = levels.iter().filter_map(|(head, _)| *head).min_by_key(|head| head.key)?;
        for (head, level) in &mut levels {
            if head.is_some_and(|h| h.key == winner.key) {
                *head = level.next();
            }
        }
        Some(winner)
    })
}

// ----- the SSIndex fence codec -----

/// SSData bytes at which the encoder closes a block. A constant: one device
/// read of this size costs little more than the device's random-access
/// latency, and a bound in *bytes* keeps a block of large records at one
/// record (a bound in records would make every get of a 128 KiB value read
/// its neighbours too).
const BLOCK_BYTES: usize = 4096;

const INDEX_HEADER: usize = 16; // record count u64 + block count u64
const FENCE_HEADER: usize = 12; // block offset u64 + keylen u32

/// Append the fence of the block starting at `offset`, whose first record
/// holds `key`, to an SSIndex image.
fn put_fence(index: &mut Vec<u8>, offset: u64, key: &[u8]) {
    index.extend_from_slice(&offset.to_le_bytes());
    index.extend_from_slice(&(key.len() as u32).to_le_bytes());
    index.extend_from_slice(key);
}

/// Whether `start..end` lies forward and has room for a record header.
fn holds_record(start: u64, end: u64) -> bool {
    end >= start && end - start >= RECORD_HEADER as u64
}

/// One block of SSData as the in-memory SSIndex knows it.
#[derive(Debug)]
struct Block {
    /// Where the block starts in SSData.
    offset: u64,
    /// Where its first key lies in the SSIndex image.
    key: std::ops::Range<usize>,
}

/// The in-memory SSIndex: the image as stored — fence keys are compared in
/// place, in that one flat buffer, so a search allocates nothing — plus the
/// decoded position of every block.
#[derive(Debug)]
struct Fences {
    records: usize,
    image: Bytes,
    blocks: Vec<Block>,
}

impl Fences {
    /// Decode an SSIndex image against an SSData of `data_len` bytes. Total
    /// and strict: `None` unless the counts are plausible (no more blocks
    /// than records, none of either together, no more records than SSData
    /// has room for), the image is exactly its header and that many fences,
    /// the first block starts SSData, every block's extent — up to the next
    /// block, the last one's up to `data_len` — has room for a record, and
    /// the fence keys are strictly increasing.
    fn decode(image: Bytes, data_len: u64) -> Option<Self> {
        let word = |at: usize| Some(u64::from_le_bytes(image.get(at..at + 8)?.try_into().ok()?));
        let (records, block_count) = (word(0)?, word(8)?);
        if block_count > records
            || (block_count == 0 && records > 0)
            || records > data_len / RECORD_HEADER as u64
        {
            return None;
        }
        // Bounded: no more blocks than records, no more records than bytes.
        let mut blocks: Vec<Block> = Vec::with_capacity(usize::try_from(block_count).ok()?);
        let mut pos = INDEX_HEADER;
        for _ in 0..block_count {
            let header = image.get(pos..pos.checked_add(FENCE_HEADER)?)?;
            let offset = u64::from_le_bytes(header[..8].try_into().ok()?);
            let keylen = u32::from_le_bytes(header[8..].try_into().ok()?) as usize;
            let key = pos + FENCE_HEADER..(pos + FENCE_HEADER).checked_add(keylen)?;
            let first_key = image.get(key.clone())?;
            let fits = match blocks.last() {
                None => offset == 0,
                Some(prev) => {
                    holds_record(prev.offset, offset) && image[prev.key.clone()] < *first_key
                }
            };
            if !fits {
                return None;
            }
            pos = key.end;
            blocks.push(Block { offset, key });
        }
        let tail_fits = blocks.last().is_none_or(|last| holds_record(last.offset, data_len));
        (tail_fits && pos == image.len()).then_some(Self {
            records: records as usize,
            image,
            blocks,
        })
    }

    /// Every block's offset in SSData and first key, in block order.
    fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.blocks.iter().map(|b| (b.offset, &self.image[b.key.clone()]))
    }

    /// The extent `start..end` of the one block that can hold `key` — the
    /// last whose first key is not above it; `None` when `key` sorts below
    /// every record. A binary search of the fence keys, in memory.
    fn block_of(&self, key: &[u8], data_len: u64) -> Option<(u64, u64)> {
        let after = self.blocks.partition_point(|b| &self.image[b.key.clone()] <= key);
        let block = after.checked_sub(1)?;
        let end = self.blocks.get(after).map_or(data_len, |next| next.offset);
        Some((self.blocks[block].offset, end))
    }
}

/// The encoded form of one SSTable: the three file images plus the
/// in-memory index and filter its reader keeps.
pub(crate) struct TableImage {
    /// File images in [`SST_FILES`] order.
    images: [Bytes; 3],
    fences: Fences,
    bloom: Bloom,
}

impl TableImage {
    /// Encode `entries`, a stream of records in strict key order — a
    /// MemTable's (a flush) and a [`merge`]'s are by construction — in one
    /// pass: every key is hashed as its record streams past, and the bloom
    /// filter is sized once the stream has ended, from the count it came to,
    /// and filled from those hashes (8 B a record, gone before the write).
    /// `data_bound` is what the caller knows SSData cannot exceed — the image
    /// is reserved once, not regrown, and written where the store keeps it.
    pub(crate) fn encode<'a>(data_bound: usize, entries: impl Iterator<Item = Record<'a>>) -> Self {
        let mut data = BytesMut::with_capacity(data_bound);
        let mut index = vec![0u8; INDEX_HEADER];
        let mut blocks: Vec<Block> = Vec::new();
        let mut hashes: Vec<u64> = Vec::new();
        // SSData length at which the open block is full: the record that
        // finds it so starts the next one (the first record, the first).
        let mut block_full = 0usize;
        for rec in entries {
            if data.len() >= block_full {
                block_full = data.len() + BLOCK_BYTES;
                let key_at = index.len() + FENCE_HEADER;
                put_fence(&mut index, data.len() as u64, rec.key);
                blocks.push(Block { offset: data.len() as u64, key: key_at..index.len() });
            }
            put_record(&mut data, rec);
            hashes.push(fnv1a64(rec.key));
        }
        let records = hashes.len();
        let mut bloom = Bloom::with_capacity(records, 10);
        hashes.into_iter().for_each(|hash| bloom.insert_hash(hash));
        index[..8].copy_from_slice(&(records as u64).to_le_bytes());
        index[8..INDEX_HEADER].copy_from_slice(&(blocks.len() as u64).to_le_bytes());
        let images = [data.freeze(), Bytes::from(index), Bytes::from(bloom.to_bytes())];
        let fences = Fences { records, image: images[1].clone(), blocks };
        Self { images, fences, bloom }
    }

    /// SSData bytes of a flush of `mt`, to the byte: what the MemTable
    /// counts, less the share of its per-entry overhead that is not a
    /// record header.
    fn flush_len(mt: &MemTable) -> usize {
        (mt.bytes() - mt.len() as u64 * (ENTRY_OVERHEAD - RECORD_HEADER as u64)) as usize
    }

    /// The table a flush of `mt` writes. Its SSData is reserved exactly: the
    /// buffer is the one the store keeps, so slack would live as long as
    /// the table does.
    pub(crate) fn of_memtable(mt: &MemTable) -> Self {
        Self::encode(Self::flush_len(mt), mt.iter().map(Record::from))
    }

    /// One attempt at writing the three files under `base`, one sequential
    /// submission each chained from `now`, surfacing the NVM faults injected
    /// through `store`'s handle. On `Err` a partial triple may remain —
    /// unreferenced debris (the manifest is only updated after a successful
    /// build) that a whole-file rewrite overwrites cleanly.
    pub(crate) fn try_write_at(
        &self,
        store: &NvmStore,
        base: &str,
        now: SimNs,
    ) -> std::result::Result<SimNs, IoFault> {
        let mut files = files_of(base).into_iter().zip(&self.images);
        files.try_fold(now, |t, (path, image)| store.try_put_at(&path, image.clone(), t))
    }

    /// The same writes with injected faults ridden out by the store.
    pub(crate) fn write_at(&self, store: &NvmStore, base: &str, now: SimNs) -> SimNs {
        let files = files_of(base).into_iter().zip(&self.images);
        files.fold(now, |t, (path, image)| store.put_at(&path, image.clone(), t))
    }

    /// The reader of the table this image was written as.
    pub(crate) fn into_reader(self, store: &NvmStore, base: &str, ssid: Ssid) -> SstReader {
        SstReader(Arc::new(Table {
            store: store.clone(),
            base: base.to_string(),
            files: files_of(base),
            ssid,
            fences: self.fences,
            bloom: self.bloom,
            data_len: self.images[0].len() as u64,
        }))
    }
}

/// Build one SSTable from key-sorted entries, writing its three files with
/// one sequential submission each starting at `now`. Injected NVM faults
/// are ridden out by the store. A thin adaptor over `TableImage` (which
/// flushes and merges feed an iterator) for callers that hold a slice.
///
/// Returns `(reader, completion stamp)`. Entries must be sorted by key
/// (asserted in debug builds).
pub fn build_at(
    store: &NvmStore,
    base: &str,
    ssid: Ssid,
    entries: &[(Vec<u8>, Entry)],
    now: SimNs,
) -> (SstReader, SimNs) {
    debug_assert!(
        entries.windows(2).all(|w| w[0].0 < w[1].0),
        "SSTable input must be strictly key-sorted"
    );
    let data_len = entries.iter().map(|(k, e)| RECORD_HEADER + k.len() + e.value.len()).sum();
    let records = entries.iter().map(|(k, e)| Record::from((k.as_slice(), e)));
    let image = TableImage::encode(data_len, records);
    let done = image.write_at(store, base, now);
    (image.into_reader(store, base, ssid), done)
}

/// An open SSTable: bloom filter and SSIndex held in memory ("PapyrusKV
/// loads the SSIndex in memory and searches SSData", §2.6); SSData read a
/// block at a time through the cost-accounted store. A handle: clones share
/// the index and the filter.
#[derive(Debug, Clone)]
pub struct SstReader(Arc<Table>);

#[derive(Debug)]
struct Table {
    store: NvmStore,
    base: String,
    /// Object names in [`SST_FILES`] order, kept so no probe formats one.
    files: [String; 3],
    ssid: Ssid,
    fences: Fences,
    bloom: Bloom,
    data_len: u64,
}

impl SstReader {
    /// Open an SSTable at `base`, charging the open/metadata and
    /// bloom+index read costs starting at `now`. Returns `None` if the
    /// SSTable's files are missing (e.g. deleted by a concurrent compaction
    /// in the owner rank — a peer then asks the owner) or do not fit
    /// together — a torn SSIndex reads as "unreadable", not as a table that
    /// opens and misses.
    pub fn open_at(store: &NvmStore, base: &str, ssid: Ssid, now: SimNs) -> Option<(Self, SimNs)> {
        let files = files_of(base);
        let [data_path, index_path, bloom_path] = &files;
        let t = store.open_at(now);
        let (bloom_bytes, t) = store.read_all_at(bloom_path, t)?;
        let bloom = Bloom::from_bytes(&bloom_bytes)?;
        let (index_bytes, t) = store.read_all_at(index_path, t)?;
        let data_len = store.len(data_path)?;
        let fences = Fences::decode(index_bytes, data_len)?;
        let store = store.clone();
        let table = Table { store, base: base.to_string(), files, ssid, fences, bloom, data_len };
        Some((Self(Arc::new(table)), t))
    }

    /// This table's SSID.
    pub fn ssid(&self) -> Ssid {
        self.0.ssid
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.0.fences.records
    }

    /// Whether the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.0.fences.records == 0
    }

    /// SSData size in bytes.
    pub fn data_len(&self) -> u64 {
        self.0.data_len
    }

    /// Base object path.
    pub fn base(&self) -> &str {
        &self.0.base
    }

    /// Bloom-filter membership pre-test (in-memory, free): "given an
    /// arbitrary key, it identifies whether the key may exist or definitely
    /// does not exist in the SSData" (§2.4).
    pub fn maybe_contains(&self, key: &[u8]) -> bool {
        self.0.bloom.maybe_contains(key)
    }

    /// The block `start..end` of SSData in one ranged read; `None` when
    /// SSData is gone.
    fn read_block(&self, (start, end): (u64, u64)) -> Option<Bytes> {
        self.0.store.backend().get(&self.0.files[0], start, end.saturating_sub(start))
    }

    /// The whole SSData image as stored, uncharged; `None` when it is gone.
    fn image(&self) -> Option<Bytes> {
        self.0.store.backend().get_all(&self.0.files[0])
    }

    /// The SSData image for a [`Cursor`] to walk, if it is there and is
    /// nothing but whole records — WITHOUT charging virtual time: for the
    /// `papyruskv::sanity` auditor and the dumps, which must observe the
    /// store without perturbing the simulation's cost model.
    pub(crate) fn records_image(&self) -> Option<Bytes> {
        self.image().filter(|data| Cursor::new(data).is_whole())
    }

    /// The same image, charged as the one sequential read of all of SSData
    /// that compaction and restart with redistribution do. `Err` names the
    /// table when SSData is missing or does not parse to its last byte.
    pub fn scan_at(&self, now: SimNs) -> Result<(Bytes, SimNs)> {
        let unreadable =
            |why| Error::DataLoss(format!("sst {} {why}: {}", self.0.ssid, self.0.files[0]));
        let data = self.image().ok_or_else(|| unreadable("SSData missing"))?;
        let t = self.charge_read(data.len().max(1) as u64, AccessPattern::Sequential, now);
        let whole = Cursor::new(&data).is_whole();
        whole.then_some((data, t)).ok_or_else(|| unreadable("SSData corrupt"))
    }

    /// Search SSData for `key` starting at `now`, without consulting the
    /// bloom filter (see [`SstReader::maybe_contains`]).
    ///
    /// `bin_search = true`: a binary search of the in-memory SSIndex, then
    /// one random-access read of the block it names. `false`: sequential
    /// scan of SSData from the start (the cost contrast behind Figure 8).
    /// A table whose SSData is gone reads as a miss, uncharged.
    pub fn get_at(&self, key: &[u8], bin_search: bool, now: SimNs) -> (SstGet, SimNs) {
        self.try_get_at(key, bin_search, now).unwrap_or((SstGet::NotFound, now))
    }

    /// [`SstReader::get_at`] that tells a miss from a table that is no
    /// longer there: `None` when the SSData the search had to read is gone
    /// (a storage-group peer's view of a table its owner has merged away).
    pub(crate) fn try_get_at(
        &self,
        key: &[u8],
        bin_search: bool,
        now: SimNs,
    ) -> Option<(SstGet, SimNs)> {
        if bin_search {
            self.get_binary(key, now)
        } else {
            self.get_linear(key, now)
        }
    }

    /// Search the fences in DRAM — free, like the bloom probe — and read
    /// the one block that can hold `key`: one random device read, or none
    /// when the key sorts below the table's first.
    fn get_binary(&self, key: &[u8], now: SimNs) -> Option<(SstGet, SimNs)> {
        let Some(extent) = self.0.fences.block_of(key, self.0.data_len) else {
            return Some((SstGet::NotFound, now));
        };
        let block = self.read_block(extent)?;
        Some((
            seek(&block, key).0,
            self.charge_read(block.len() as u64, AccessPattern::Random, now),
        ))
    }

    /// Decode forward through one SSData image — the one sequential read
    /// the scan is charged as.
    fn get_linear(&self, key: &[u8], now: SimNs) -> Option<(SstGet, SimNs)> {
        let data = self.image()?;
        let (hit, scanned) = seek(&data, key);
        Some((hit, self.charge_read(scanned.max(1) as u64, AccessPattern::Sequential, now)))
    }

    fn charge_read(&self, bytes: u64, pattern: AccessPattern, now: SimNs) -> SimNs {
        let cost = self.0.store.device().read_ns(bytes, pattern);
        self.0.store.queue().submit_shared(now, cost, self.0.store.device().parallelism)
    }

    /// How the SSIndex lies about `data`, this table's SSData image, if it
    /// does: the first fence whose offset is not a record boundary or whose
    /// key is not that record's — for the auditor. `None` when every fence
    /// holds.
    pub(crate) fn fence_mismatch(&self, data: &[u8]) -> Option<String> {
        let mut records = Cursor::new(data);
        for (offset, key) in self.0.fences.iter() {
            while (records.pos as u64) < offset && records.next().is_some() {}
            let on_fence = records.pos as u64 == offset;
            let lossy = String::from_utf8_lossy;
            match records.next() {
                Some(rec) if on_fence && rec.key == key => {}
                Some(rec) if on_fence => {
                    return Some(format!(
                        "fence at offset {offset} names key {:?} but the record there holds {:?}",
                        lossy(key),
                        lossy(rec.key)
                    ));
                }
                _ => return Some(format!("fence offset {offset} is not a record boundary")),
            }
        }
        None
    }

    /// Delete this SSTable's three files starting at `now` (post-compaction
    /// cleanup, §2.5 "the old SSTables are deleted to save storage space").
    pub fn delete_files_at(&self, now: SimNs) -> SimNs {
        self.0.files.iter().fold(now, |t, path| self.0.store.delete_at(path, t).1)
    }
}

/// Merge a set of SSTables (any order) into one new table with SSID
/// `new_ssid`, starting at `now` (§2.5 compaction): one sequential read per
/// input, newest first, then `merge` streamed over the images into the
/// encoder, once. When `drop_tombstones` is set (legal when merging *all*
/// live tables), deleted keys vanish entirely.
///
/// `Err` before anything is written names the input whose SSData is missing
/// or corrupt ([`Error::DataLoss`]). An injected `ENOSPC` aborts with
/// [`Error::StorageFull`]; transient EIO is ridden out. Either way the
/// caller keeps the inputs live, so nothing more is lost.
///
/// Returns the merged reader and the completion stamp. The inputs are NOT
/// deleted — the caller swaps the live set first, then deletes.
pub fn merge_at(
    store: &NvmStore,
    tables: &[SstReader],
    new_base: &str,
    new_ssid: Ssid,
    drop_tombstones: bool,
    now: SimNs,
) -> Result<(SstReader, SimNs)> {
    let mut newest_first: Vec<&SstReader> = tables.iter().collect();
    newest_first.sort_by_key(|r| std::cmp::Reverse(r.ssid()));
    // "The compaction needs sequential file read because the key-value pairs
    // in each SSTable are sorted by the key" (§2.5).
    let mut t = now;
    let mut images = Vec::with_capacity(tables.len());
    for reader in newest_first {
        let (image, done) = reader.scan_at(t)?;
        t = done;
        images.push(image);
    }
    let levels = images.iter().map(|image| Cursor::new(image));
    let merged = merge(levels).filter(|rec| !(drop_tombstones && rec.tombstone));
    let image = TableImage::encode(images.iter().map(Bytes::len).sum(), merged);
    let done = match image.try_write_at(store, new_base, t) {
        Ok(done) => done,
        Err(IoFault::NoSpace) => {
            return Err(Error::StorageFull(format!("compaction into {new_base}")));
        }
        Err(IoFault::TransientEio) => image.write_at(store, new_base, t),
    };
    Ok((image.into_reader(store, new_base, new_ssid), done))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use papyrus_simtime::DeviceModel;
    use proptest::collection::{btree_map, vec};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn store() -> NvmStore {
        NvmStore::in_memory(DeviceModel::nvme_summitdev())
    }

    /// A `MemBackend` that counts the reads it serves and their bytes.
    #[derive(Default)]
    pub(crate) struct CountingBackend {
        inner: papyrus_nvm::MemBackend,
        gets: AtomicU64,
        get_bytes: AtomicU64,
        /// Every whole-object read and write, rename (by its target) and
        /// delete, in order: `(op, path, bytes)`.
        pub(crate) log: parking_lot::Mutex<Vec<(&'static str, String, usize)>>,
    }

    impl CountingBackend {
        /// `(gets, bytes)` served since the last call.
        fn take(&self) -> (u64, u64) {
            (self.gets.swap(0, Ordering::AcqRel), self.get_bytes.swap(0, Ordering::AcqRel))
        }

        fn count(&self, got: Option<Bytes>) -> Option<Bytes> {
            self.gets.fetch_add(1, Ordering::AcqRel);
            self.get_bytes.fetch_add(got.as_ref().map_or(0, |b| b.len() as u64), Ordering::AcqRel);
            got
        }
    }

    impl papyrus_nvm::Backend for CountingBackend {
        fn put(&self, path: &str, data: Bytes) {
            self.log.lock().push(("put", path.to_string(), data.len()));
            self.inner.put(path, data);
        }
        fn append(&self, path: &str, data: &[u8]) {
            self.inner.append(path, data);
        }
        fn get(&self, path: &str, offset: u64, len: u64) -> Option<Bytes> {
            self.count(self.inner.get(path, offset, len))
        }
        fn get_all(&self, path: &str) -> Option<Bytes> {
            let got = self.count(self.inner.get_all(path));
            self.log.lock().push(("get_all", path.to_string(), got.as_ref().map_or(0, Bytes::len)));
            got
        }
        fn len(&self, path: &str) -> Option<u64> {
            self.inner.len(path)
        }
        fn delete(&self, path: &str) -> bool {
            self.log.lock().push(("delete", path.to_string(), 0));
            self.inner.delete(path)
        }
        fn rename(&self, from: &str, to: &str) -> bool {
            self.log.lock().push(("rename", to.to_string(), 0));
            self.inner.rename(from, to)
        }
        fn list(&self, prefix: &str) -> Vec<String> {
            self.inner.list(prefix)
        }
        fn clear(&self) {
            self.inner.clear();
        }
    }

    /// `n` records `key000000..` with values of `value_len` bytes.
    fn uniform(n: usize, value_len: usize) -> Vec<(Vec<u8>, Entry)> {
        let value = Bytes::from(vec![b'v'; value_len]);
        (0..n).map(|i| (format!("key{i:06}").into_bytes(), Entry::value(value.clone()))).collect()
    }

    /// A hand-made SSIndex image.
    fn index_of(records: u64, fences: &[(u64, &[u8])]) -> Vec<u8> {
        let mut index = [records, fences.len() as u64].map(u64::to_le_bytes).concat();
        fences.iter().for_each(|(offset, key)| put_fence(&mut index, *offset, key));
        index
    }

    fn encode(entries: &[(Vec<u8>, Entry)]) -> TableImage {
        TableImage::encode(0, records_of(entries).into_iter())
    }

    /// The images the count-first encoder wrote, spelt out: the filter sized
    /// from the count before the first insert, a fence at every record that
    /// finds 4 KiB of SSData behind the last one.
    fn count_first_images(entries: &[(Vec<u8>, Entry)]) -> [Vec<u8>; 3] {
        let mut bloom = Bloom::with_capacity(entries.len(), 10);
        let (mut data, mut fences, mut block_full) = (Vec::new(), Vec::new(), 0);
        for rec in records_of(entries) {
            if data.len() >= block_full {
                block_full = data.len() + BLOCK_BYTES;
                fences.push((data.len() as u64, rec.key));
            }
            bloom.insert(rec.key);
            put_record(&mut data, rec);
        }
        [data, index_of(entries.len() as u64, &fences), bloom.to_bytes()]
    }

    fn records_of(entries: &[(Vec<u8>, Entry)]) -> Vec<Record<'_>> {
        entries.iter().map(|(k, e)| Record::from((k.as_slice(), e))).collect()
    }

    type Level = BTreeMap<Vec<u8>, Entry>;

    /// The `BTreeMap` fold that [`merge`] replaced, kept as its model: the
    /// levels, oldest first, inserted newest first — a key keeps the entry
    /// of the first level to write it.
    fn fold(oldest_first: &[Level]) -> Vec<(Vec<u8>, Entry)> {
        let mut newest = BTreeMap::new();
        for (key, e) in oldest_first.iter().rev().flatten() {
            newest.entry(key.clone()).or_insert_with(|| e.clone());
        }
        newest.into_iter().collect()
    }

    fn entries(pairs: &[(&str, &str)]) -> Vec<(Vec<u8>, Entry)> {
        let mut v: Vec<(Vec<u8>, Entry)> = pairs
            .iter()
            .map(|(k, val)| {
                (k.as_bytes().to_vec(), Entry::value(Bytes::copy_from_slice(val.as_bytes())))
            })
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    #[test]
    fn build_creates_three_files() {
        let s = store();
        let (r, done) = build_at(&s, "repo/db/r0/sst0000000001", 1, &entries(&[("a", "1")]), 0);
        assert!(done > 0);
        assert!(s.exists("repo/db/r0/sst0000000001.data"));
        assert!(s.exists("repo/db/r0/sst0000000001.index"));
        assert!(s.exists("repo/db/r0/sst0000000001.bloom"));
        assert_eq!(r.len(), 1);
    }

    proptest! {
        /// Both searches answer like a `BTreeMap` of the table's entries —
        /// tables of up to a dozen blocks — for keys it holds (live or
        /// tombstoned) and keys it does not: arbitrary ones, one below the
        /// first fence, every stored key's successor (between two records,
        /// between two blocks, past the last record) and one past them all.
        #[test]
        fn get_binary_and_linear_agree(
            table in btree_map(
                vec(any::<u8>(), 1..6),
                (vec(any::<u8>(), 0..1024), any::<bool>()),
                0..80,
            ),
            probes in vec(vec(any::<u8>(), 1..6), 0..40),
        ) {
            let entry = |v, tomb| if tomb { Entry::tombstone() } else { Entry::value(Bytes::from(v)) };
            let es: Vec<(Vec<u8>, Entry)> =
                table.into_iter().map(|(k, (v, tomb))| (k, entry(v, tomb))).collect();
            let model: BTreeMap<Vec<u8>, Entry> = es.iter().cloned().collect();
            let (r, _) = build_at(&store(), "b", 1, &es, 0);
            let blocks = r.0.fences.blocks.len();
            prop_assert!(blocks >= r.data_len() as usize / (BLOCK_BYTES + 1100));
            let successors = model.keys().map(|k| [k.as_slice(), &[0]].concat());
            let edges = [vec![], vec![0], vec![0xff; 6]];
            for key in model.keys().cloned().chain(probes).chain(successors).chain(edges) {
                let want = model.get(&key).map_or(SstGet::NotFound, SstGet::from);
                prop_assert_eq!(&r.get_at(&key, true, 0).0, &want);
                prop_assert_eq!(&r.get_at(&key, false, 0).0, &want);
            }
        }

        /// The merge against the fold it replaced, kept as the model (`fold`):
        /// 1–4 tables under 0–2 MemTables of overlapping keys with tombstones.
        /// [`merge`] over the MemTables and the tables yields the model's
        /// records; `merge_at` over the tables — handed over in any order,
        /// tombstones kept or dropped — holds the model's records and wrote
        /// the three images `TableImage` encodes from the model's entries,
        /// byte for byte.
        #[test]
        fn merge_matches_the_btreemap_fold(
            levels in vec(
                btree_map(
                    vec(0u8..4, 1..4),
                    (vec(any::<u8>(), 0..300), any::<bool>()),
                    0..40,
                ),
                1..7,
            ),
            mems in 0usize..3,
            order in any::<u64>(),
            drop_tombstones in any::<bool>(),
        ) {
            let entry = |(v, tomb)| if tomb { Entry::tombstone() } else { Entry::value(Bytes::from(v)) };
            let levels: Vec<Level> = levels
                .into_iter()
                .map(|level| level.into_iter().map(|(k, e)| (k, entry(e))).collect())
                .collect();
            // Oldest first: up to four tables, SSIDs 1.., then `mems` MemTables.
            let mems = mems.min(levels.len() - 1);
            let (tables, rest) = levels.split_at((levels.len() - mems).min(4));
            let mems = &rest[..mems];
            let s = store();
            let built = |(i, level)| build_at(&s, &format!("t{i}"), i as u64 + 1, &fold(&[level]), 0).0;
            let mut readers: Vec<SstReader> = tables.iter().cloned().enumerate().map(built).collect();
            let mem_tables: Vec<MemTable> = mems
                .iter()
                .map(|level| {
                    let mut mt = MemTable::new();
                    level.iter().for_each(|(k, e)| mt.insert(k, e.clone()));
                    mt
                })
                .collect();

            // The stack's walk: MemTables newest first over tables newest first.
            let model = fold(&levels[..tables.len() + mems.len()]);
            let images: Vec<Bytes> = readers.iter().rev().map(|r| r.scan_at(0).unwrap().0).collect();
            type Boxed<'a> = Box<dyn Iterator<Item = Record<'a>> + 'a>;
            let newest_first = mem_tables
                .iter()
                .rev()
                .map(|mt| Box::new(mt.iter().map(Record::from)) as Boxed)
                .chain(images.iter().map(|image| Box::new(Cursor::new(image)) as Boxed));
            prop_assert_eq!(merge(newest_first).collect::<Vec<_>>(), records_of(&model));

            // Compaction: the tables alone, in any order.
            let mut model = fold(tables);
            model.retain(|(_, e)| !(drop_tombstones && e.tombstone));
            readers.rotate_left(order as usize % tables.len());
            if order & 1 << 32 != 0 {
                readers.reverse();
            }
            let (merged, _) = merge_at(&s, &readers, "merged", 9, drop_tombstones, 0).unwrap();
            prop_assert_eq!(merged.len(), model.len());
            let written = files_of("merged").map(|path| s.backend().get_all(&path).unwrap());
            prop_assert!(written == encode(&model).images, "not the images the model encodes to");
            let (image, _) = merged.scan_at(0).unwrap();
            prop_assert_eq!(Cursor::new(&image).collect::<Vec<_>>(), records_of(&model));
        }

        /// The one-pass encoder writes what the count-first one did, whatever
        /// bound it is handed: `[records][blocks]`, every fence, and a filter
        /// that is `Bloom::with_capacity(n, 10)` plus an insert of every key
        /// — for tables from none to a dozen blocks. And the body of a
        /// migration batch of the same records is the SSData image, byte for
        /// byte: one record codec from the wire to the table.
        #[test]
        fn encoder_writes_the_count_first_images(
            table in btree_map(
                vec(any::<u8>(), 1..6),
                (vec(any::<u8>(), 0..1024), any::<bool>()),
                0..80,
            ),
            bound in 0usize..100_000,
        ) {
            let entry = |v, tomb| if tomb { Entry::tombstone() } else { Entry::value(Bytes::from(v)) };
            let es: Vec<(Vec<u8>, Entry)> =
                table.into_iter().map(|(k, (v, tomb))| (k, entry(v, tomb))).collect();
            let want = count_first_images(&es);
            for image in [encode(&es), TableImage::encode(bound, records_of(&es).into_iter())] {
                prop_assert!(image.images == want, "not the count-first images");
                prop_assert_eq!(image.fences.records, es.len());
            }
            let (built, _) = build_at(&store(), "b", 1, &es, 0);
            prop_assert_eq!(built.data_len() as usize, want[0].len());

            let batch: crate::msg::Batch = records_of(&es).into_iter().collect();
            prop_assert_eq!(&batch.migrate(1, 2)[16..], &want[0][..]);
            let owned = |(key, e): &(Vec<u8>, Entry)| crate::msg::KvRecord {
                key: key.clone(),
                value: e.value.clone(),
                tombstone: e.tombstone,
            };
            let owned: Vec<_> = es.iter().map(owned).collect();
            prop_assert_eq!(&crate::msg::encode_migrate(1, 2, &owned)[16..], &want[0][..]);
        }

        /// The filter filled from the hashes kept during the pass is, byte for
        /// byte, the one a second walk of the finished image builds — for the
        /// flush of each of 1–4 MemTables of overlapping keys, and for their
        /// merge, shadowed keys folded and tombstones kept or dropped. And a
        /// flush reserves its SSData to the byte.
        #[test]
        fn the_filter_of_the_pass_is_the_filter_of_a_second_walk(
            levels in vec(
                vec((vec(0u8..4, 1..30), vec(any::<u8>(), 0..300), any::<bool>()), 0..60),
                1..5,
            ),
            drop_tombstones in any::<bool>(),
        ) {
            let rewalked = |data: &[u8]| {
                let mut bloom = Bloom::with_capacity(Cursor::new(data).count(), 10);
                Cursor::new(data).for_each(|rec| bloom.insert(rec.key));
                bloom.to_bytes()
            };
            let s = store();
            let mut readers = Vec::new();
            for (i, level) in levels.into_iter().enumerate() {
                let mut mt = MemTable::new();
                for (key, value, tomb) in level {
                    mt.insert(&key, crate::write::entry_of(Bytes::from(value), tomb));
                }
                let image = TableImage::of_memtable(&mt);
                prop_assert_eq!(image.images[0].len(), TableImage::flush_len(&mt));
                prop_assert_eq!(&image.images[2][..], &rewalked(&image.images[0])[..]);
                let base = format!("t{i}");
                image.write_at(&s, &base, 0);
                readers.push(image.into_reader(&s, &base, i as u64 + 1));
            }
            merge_at(&s, &readers, "merged", 9, drop_tombstones, 0).unwrap();
            let [data, _, bloom] = files_of("merged").map(|path| s.backend().get_all(&path).unwrap());
            prop_assert_eq!(&bloom[..], &rewalked(&data)[..]);
        }

        /// SSIndex decode is total: arbitrary bytes, and an encoder's image
        /// with arbitrary bytes overwritten and an arbitrary cut or tail,
        /// against an arbitrary SSData length, decode to `None` or to an
        /// index every search of which names a block inside SSData with
        /// room for a record.
        #[test]
        fn ssindex_decode_is_total(
            junk in vec(any::<u8>(), 0..96),
            records in 0usize..40,
            edits in vec((0usize..400, any::<u8>()), 0..3),
            resize in 0usize..400,
            len_delta in 0u64..20,
            probe in vec(any::<u8>(), 0..10),
        ) {
            let image = encode(&uniform(records, 700));
            let data_len = image.images[0].len() as u64;
            let mut index = image.images[1].to_vec();
            prop_assert!(Fences::decode(Bytes::from(index.clone()), data_len).is_some());
            for (at, byte) in edits {
                let at = at % index.len();
                index[at] = byte;
            }
            if resize < 200 {
                index.truncate(index.len().saturating_sub(resize % 40));
            } else if resize < 300 {
                index.extend_from_slice(&junk);
            }
            for (image, data_len) in [(index, (data_len + 10).saturating_sub(len_delta)), (junk, len_delta * 40)] {
                let Some(fences) = Fences::decode(Bytes::from(image), data_len) else { continue };
                prop_assert!(fences.blocks.len() <= fences.records);
                for key in [&probe[..], b"key000020", b"zzz"] {
                    if let Some((start, end)) = fences.block_of(key, data_len) {
                        prop_assert!(start + RECORD_HEADER as u64 <= end && end <= data_len);
                    }
                }
            }
        }

        /// `record_at` is total — arbitrary bytes, arbitrary positions — and
        /// whatever it decodes lies inside the bytes it was given.
        #[test]
        fn record_at_is_total(junk in vec(any::<u8>(), 0..64), pos in 0usize..80) {
            for pos in [pos, usize::MAX - pos] {
                if let Some(rec) = record_at(&junk, pos) {
                    prop_assert!(pos + RECORD_HEADER + rec.key.len() + rec.value.len() <= junk.len());
                }
            }
        }

        /// `put_record` → `record_at` round-trips any run of records,
        /// zero-length values and tombstones included, and a cut anywhere
        /// inside the last record decodes to `None`, never to a shorter one
        /// — so the cursor walks the whole run to its end and a cut one to
        /// the start of the cut record, short of the end.
        #[test]
        fn codec_round_trips(
            records in vec(
                (vec(any::<u8>(), 0..24), vec(any::<u8>(), 0..64), any::<bool>()),
                1..20,
            ),
        ) {
            let mut data = Vec::new();
            let records: Vec<Record> =
                records.iter().map(|(key, value, tomb)| Record { key, value, tombstone: *tomb }).collect();
            for rec in &records {
                put_record(&mut data, *rec);
            }
            let (mut pos, mut last) = (0, 0);
            for want in &records {
                let rec = record_at(&data, pos).expect("an encoded record decodes");
                prop_assert_eq!(&rec, want);
                last = pos;
                pos += RECORD_HEADER + rec.key.len() + rec.value.len();
            }
            prop_assert_eq!(pos, data.len());
            prop_assert!(record_at(&data, pos).is_none());
            let mut whole = Cursor::new(&data);
            prop_assert_eq!(whole.by_ref().collect::<Vec<_>>(), records.clone());
            prop_assert!(whole.is_whole() && Cursor::new(&data).is_whole());
            for cut in last..data.len() {
                prop_assert!(record_at(&data[..cut], last).is_none());
                let mut torn = Cursor::new(&data[..cut]);
                prop_assert_eq!(torn.by_ref().count(), records.len() - 1);
                prop_assert_eq!((torn.pos, torn.is_whole()), (last, cut == last));
            }
        }
    }

    /// Nothing else pins the linear scan's charges (Figure 8's "Default"
    /// column) — kvbench's `sst_read` only drives the binary search.
    #[test]
    fn get_completion_stamps_are_pinned() {
        let s = store();
        let es: Vec<(Vec<u8>, Entry)> = (0..64usize)
            .map(|i| {
                let e = if i == 40 {
                    Entry::tombstone()
                } else {
                    Entry::value(Bytes::from(vec![b'v'; 16 + i % 7]))
                };
                (format!("key{i:02}").into_bytes(), e)
            })
            .collect();
        let (r, _) = build_at(&s, "pin/sst", 1, &es, 0);
        let stamps = |key: &[u8]| {
            s.queue().reset();
            let (_, bin) = r.get_at(key, true, 0);
            s.queue().reset();
            let (_, lin) = r.get_at(key, false, 0);
            (bin, lin)
        };
        // (binary-search stamp, linear-scan stamp) of the first, middle, last
        // and tombstoned key, a key absent inside the range, one past it and
        // one below it. The table is one block: a binary search that reads
        // at all reads all of it, at one random access.
        let got: Vec<(SimNs, SimNs)> =
            [&b"key00"[..], b"key31", b"key63", b"key40", b"key31x", b"zzz", b"a"]
                .iter()
                .map(|k| stamps(k))
                .collect();
        assert_eq!(
            got,
            vec![
                (12778, 12010),
                (12778, 12326),
                (12778, 12649),
                (12778, 12413),
                (12778, 12337),
                (12778, 12649),
                (0, 12010)
            ]
        );
    }

    /// A merge's I/O is pinned: every input's SSData fetched whole, newest
    /// SSID first, all before the first write; each charged one sequential
    /// read of its size, then the three sequential writes — the completion
    /// stamp is the one this input had before the merge streamed.
    #[test]
    fn merge_io_and_completion_stamp_are_pinned() {
        let backend = Arc::new(CountingBackend::default());
        let s = NvmStore::with_backend(DeviceModel::nvme_summitdev(), backend.clone());
        // Three overlapping tables handed over out of order: sst 2 rewrites
        // every third key of sst 1 and deletes key 10, sst 3 adds a tail.
        let table = |range: std::ops::Range<usize>, step: usize, len: usize| -> Vec<_> {
            let key = |i: usize| format!("key{i:04}").into_bytes();
            let e = |i: usize| match i {
                10 if step == 3 => Entry::tombstone(),
                _ => Entry::value(Bytes::from(vec![b'a' + step as u8; len + i % 5])),
            };
            range.step_by(step).map(|i| (key(i), e(i))).collect()
        };
        let (t1, _) = build_at(&s, "pin/sst1", 1, &table(0..300, 1, 100), 0);
        let (t2, _) = build_at(&s, "pin/sst2", 2, &table(1..300, 3, 40), 0);
        let (t3, _) = build_at(&s, "pin/sst3", 3, &table(250..400, 2, 70), 0);
        let sizes = [t3.data_len(), t2.data_len(), t1.data_len()];
        s.queue().reset();
        backend.log.lock().clear();
        let (merged, done) = merge_at(&s, &[t2, t3, t1], "pin/sst4", 4, true, 1000).unwrap();

        let log = backend.log.lock().clone();
        let written: Vec<usize> = log[3..].iter().map(|op| op.2).collect();
        let op = |op, path: &str, bytes: usize| (op, path.to_string(), bytes);
        assert_eq!(
            log,
            vec![
                op("get_all", "pin/sst3.data", sizes[0] as usize),
                op("get_all", "pin/sst2.data", sizes[1] as usize),
                op("get_all", "pin/sst1.data", sizes[2] as usize),
                op("put", "pin/sst4.data", merged.data_len() as usize),
                op("put", "pin/sst4.index", written[1]),
                op("put", "pin/sst4.bloom", written[2]),
            ]
        );
        // The same charges, replayed on an idle device.
        let replay = NvmStore::in_memory(DeviceModel::nvme_summitdev());
        let seq = AccessPattern::Sequential;
        let submit = |t, cost| replay.queue().submit_shared(t, cost, replay.device().parallelism);
        let t = sizes.iter().fold(1000, |t, &n| submit(t, replay.device().read_ns(n, seq)));
        let t = written.iter().fold(t, |t, &n| submit(t, replay.device().write_ns(n as u64, seq)));
        assert_eq!(done, t);
        assert_eq!(
            (merged.len(), merged.data_len(), written[1], written[2]),
            (349, 33534, 187, 452)
        );
        assert_eq!(done, 127_743);
    }

    /// One binary get is one backend read of one block — none when the key
    /// sorts below the table's first — charged as exactly that read; and a
    /// block is bounded in bytes, not records, so a table of large values
    /// reads exactly one record per get.
    #[test]
    fn a_binary_get_reads_one_block_once() {
        let backend = Arc::new(CountingBackend::default());
        let s = NvmStore::with_backend(DeviceModel::nvme_summitdev(), backend.clone());
        let read_ns = |bytes: u64| s.device().read_ns(bytes, AccessPattern::Random);
        let get = |r: &SstReader, key: &[u8]| {
            s.queue().reset();
            let (hit, t) = r.get_at(key, true, 1000);
            let (gets, bytes) = backend.take();
            (hit != SstGet::NotFound, t - 1000, gets, bytes)
        };

        // 146-byte records: the 29th (4234 bytes) closes a block.
        let (small, _) = build_at(&s, "small", 1, &uniform(1000, 128), 0);
        let record = (RECORD_HEADER + 9 + 128) as u64;
        let block = 29 * record;
        assert_eq!(small.0.fences.blocks.len(), 1000usize.div_ceil(29));
        for i in [0, 28, 29, 500, 985] {
            let key = format!("key{i:06}");
            assert_eq!(get(&small, key.as_bytes()), (true, read_ns(block), 1, block), "{key}");
            let absent = format!("key{i:06}x");
            assert_eq!(get(&small, absent.as_bytes()), (false, read_ns(block), 1, block));
        }
        let tail = (1000 % 29) * record;
        assert_eq!(
            get(&small, b"key000999"),
            (true, read_ns(tail), 1, tail),
            "the short last block"
        );
        assert_eq!(get(&small, b"zzz"), (false, read_ns(tail), 1, tail), "past the last record");
        assert_eq!(get(&small, b"a"), (false, 0, 0, 0), "below the first fence: settled in DRAM");

        let (large, _) = build_at(&s, "large", 2, &uniform(8, 128 << 10), 0);
        let record = (RECORD_HEADER + 9 + (128 << 10)) as u64;
        assert_eq!(large.0.fences.blocks.len(), 8);
        for i in 0..8 {
            let key = format!("key{i:06}");
            assert_eq!(get(&large, key.as_bytes()), (true, read_ns(record), 1, record), "{key}");
        }
    }

    #[test]
    fn binary_search_cheaper_than_linear_for_large_tables() {
        let s = store();
        let (r, _) = build_at(&s, "b", 1, &uniform(20_000, 200), 0);
        s.queue().reset();
        let (_, t_bin) = r.get_at(b"key019999", true, 0);
        s.queue().reset();
        let (_, t_lin) = r.get_at(b"key019999", false, 0);
        assert!(t_bin < t_lin / 2, "binary {t_bin} should beat linear {t_lin} on a deep key");
    }

    #[test]
    fn tombstones_surface_as_tombstone() {
        let s = store();
        let mut es = entries(&[("a", "1")]);
        es.push((b"dead".to_vec(), Entry::tombstone()));
        es.sort_by(|a, b| a.0.cmp(&b.0));
        let (r, _) = build_at(&s, "b", 1, &es, 0);
        assert_eq!(r.get_at(b"dead", true, 0).0, SstGet::Tombstone);
        assert_eq!(r.get_at(b"dead", false, 0).0, SstGet::Tombstone);
    }

    #[test]
    fn open_roundtrip() {
        let s = store();
        let (built, _) = build_at(&s, "x/y", 3, &entries(&[("k1", "v1"), ("k2", "v2")]), 0);
        let (opened, t) = SstReader::open_at(&s, "x/y", 3, 0).unwrap();
        assert!(t > 0, "open must charge I/O");
        assert_eq!(opened.len(), built.len());
        assert_eq!(opened.ssid(), 3);
        assert_eq!(opened.get_at(b"k2", true, 0).0, SstGet::Found(Bytes::from_static(b"v2")));
    }

    #[test]
    fn open_missing_is_none() {
        let s = store();
        assert!(SstReader::open_at(&s, "nope", 1, 0).is_none());
    }

    /// A torn or mismatched SSIndex reads as "unreadable" at open, not as a
    /// table that opens and then misses.
    #[test]
    fn open_rejects_an_index_that_does_not_fit_the_data() {
        let s = store();
        // 3011-byte records: two fill a block, five make three blocks.
        let es: Vec<(Vec<u8>, Entry)> = [b"k1", b"k2", b"k3", b"k4", b"k5"]
            .iter()
            .map(|k| (k.to_vec(), Entry::value(Bytes::from(vec![b'v'; 3000]))))
            .collect();
        let (built, _) = build_at(&s, "t", 1, &es, 0);
        let data_len = built.data_len();
        let rec = data_len / 5;
        let header = RECORD_HEADER as u64;
        let opens_image = |index: Vec<u8>| {
            s.backend().put("t.index", Bytes::from(index));
            SstReader::open_at(&s, "t", 1, 0).is_some()
        };
        let opens = |records: u64, fences: &[(u64, &[u8])]| opens_image(index_of(records, fences));
        let built_index = index_of(5, &[(0, b"k1"), (2 * rec, b"k3"), (4 * rec, b"k5")]);
        assert_eq!(s.backend().get_all("t.index").unwrap(), built_index, "the encoder's layout");
        assert!(opens_image(built_index.clone()), "the index as built");

        for cut in 0..built_index.len() {
            assert!(!opens_image(built_index[..cut].to_vec()), "truncated to {cut} bytes");
        }
        assert!(!opens_image([&built_index[..], &[0]].concat()), "a trailing byte");
        let mut long_key = built_index.clone();
        long_key[built_index.len() - 6] += 1;
        assert!(!opens_image(long_key), "a key length past the end");

        assert!(!opens(2, &[(0, b"k1"), (2 * rec, b"k3"), (4 * rec, b"k5")]), "blocks > records");
        assert!(!opens(5, &[]), "records but no block");
        assert!(!opens(data_len / header + 1, &[(0, b"k1")]), "more records than SSData holds");
        assert!(opens(data_len / header, &[(0, b"k1")]), "as many as headers fit (the auditor's)");
        assert!(!opens(5, &[(rec, b"k2"), (2 * rec, b"k3")]), "a first block that skips records");

        assert!(
            !opens(5, &[(0, b"k1"), (4 * rec, b"k3"), (2 * rec, b"k5")]),
            "a decreasing offset"
        );
        assert!(!opens(5, &[(0, b"k1"), (2 * rec, b"k3"), (2 * rec, b"k5")]), "a repeated offset");
        assert!(!opens(5, &[(0, b"k1"), (2 * rec, b"k3"), (data_len + 1, b"k5")]), "past SSData");
        assert!(
            !opens(5, &[(0, b"k1"), (2 * rec, b"k3"), (data_len - header + 1, b"k5")]),
            "a last extent below a header"
        );
        assert!(
            opens(5, &[(0, b"k1"), (2 * rec, b"k3"), (data_len - header, b"k5")]),
            "room for exactly a header (the auditor's to convict)"
        );
        assert!(
            !opens(5, &[(0, b"k1"), (2 * rec, b"k3"), (u64::MAX, b"k5")]),
            "an overflowing offset"
        );

        assert!(!opens(5, &[(0, b"k1"), (2 * rec, b"k3"), (4 * rec, b"k3")]), "an equal fence key");
        assert!(
            !opens(5, &[(0, b"k1"), (2 * rec, b"k5"), (4 * rec, b"k3")]),
            "a decreasing fence key"
        );
        assert!(
            !opens(5, &[(0, b"k1"), (2 * rec, b"k"), (4 * rec, b"k5")]),
            "a fence key that is a prefix"
        );
        assert!(
            opens(5, &[(0, b""), (2 * rec, b"k"), (4 * rec, b"k5")]),
            "an empty first key sorts first"
        );
    }

    #[test]
    fn scan_all_returns_everything_in_order() {
        let s = store();
        let es = entries(&[("c", "3"), ("a", "1"), ("b", "2")]);
        let (r, _) = build_at(&s, "b", 1, &es, 0);
        let (image, t) = r.scan_at(0).unwrap();
        assert!(t > 0);
        let keys: Vec<&[u8]> = Cursor::new(&image).map(|rec| rec.key).collect();
        assert_eq!(keys, vec![&b"a"[..], b"b", b"c"]);
    }

    #[test]
    fn empty_sstable_is_legal() {
        let s = store();
        let (r, _) = build_at(&s, "b", 1, &[], 0);
        assert!(r.is_empty());
        let written = files_of("b").map(|path| s.backend().get_all(&path).unwrap());
        assert_eq!(written, count_first_images(&[]), "the empty stream's images");
        assert_eq!(written.each_ref().map(Bytes::len), [0, INDEX_HEADER, 12 + 8]);
        assert_eq!(r.get_at(b"k", true, 0).0, SstGet::NotFound);
        let (opened, _) = SstReader::open_at(&s, "b", 1, 0).unwrap();
        assert!(opened.is_empty());
    }

    #[test]
    fn merge_newest_ssid_wins_and_drops_tombstones() {
        let s = store();
        // sst1: a=old, b=1, dead=x
        let (t1, _) =
            build_at(&s, "r/sst1", 1, &entries(&[("a", "old"), ("b", "1"), ("dead", "x")]), 0);
        // sst2: a=new, dead tombstoned
        let mut es2 = entries(&[("a", "new")]);
        es2.push((b"dead".to_vec(), Entry::tombstone()));
        es2.sort_by(|x, y| x.0.cmp(&y.0));
        let (t2, _) = build_at(&s, "r/sst2", 2, &es2, 0);

        let (merged, _) = merge_at(&s, &[t1, t2], "r/sst3", 3, true, 0).unwrap();
        assert_eq!(merged.ssid(), 3);
        assert_eq!(merged.get_at(b"a", true, 0).0, SstGet::Found(Bytes::from_static(b"new")));
        assert_eq!(merged.get_at(b"b", true, 0).0, SstGet::Found(Bytes::from_static(b"1")));
        assert_eq!(merged.get_at(b"dead", true, 0).0, SstGet::NotFound);
        assert_eq!(merged.len(), 2);
    }

    /// A merge whose inputs shadow each other sizes the filter from the
    /// records that survive — duplicates folded, tombstones dropped — not
    /// from its inputs': three tables of the same 200 keys, the newest
    /// deleting half, merge to the table a build of the 100 survivors is.
    #[test]
    fn merge_sizes_the_filter_from_the_surviving_records() {
        let s = store();
        let (t1, _) = build_at(&s, "r/sst1", 1, &uniform(200, 30), 0);
        let (t2, _) = build_at(&s, "r/sst2", 2, &uniform(200, 50), 0);
        let mut newest = uniform(200, 70);
        newest.iter_mut().step_by(2).for_each(|(_, e)| *e = Entry::tombstone());
        let (t3, _) = build_at(&s, "r/sst3", 3, &newest, 0);
        let tables = [t1, t2, t3];

        let (merged, _) = merge_at(&s, &tables, "r/sst4", 4, true, 0).unwrap();
        newest.retain(|(_, e)| !e.tombstone);
        let want = count_first_images(&newest);
        assert_eq!(merged.len(), 100);
        assert_eq!(files_of("r/sst4").map(|path| s.backend().get_all(&path).unwrap()), want);
        assert_eq!(want[2].len(), 12 + 8 * (100 * 10usize).div_ceil(64), "1000 bits, not 6000");

        let (kept, _) = merge_at(&s, &tables, "r/sst5", 5, false, 0).unwrap();
        assert_eq!(kept.len(), 200, "duplicates fold; tombstones stay when asked");
        assert_eq!(
            s.backend().get_all("r/sst5.bloom").unwrap().len(),
            12 + 8 * 2000usize.div_ceil(64)
        );
    }

    /// A merge input cut anywhere inside its last record — or gone — makes
    /// the merge an `Err` that names the table, with nothing written under
    /// the new base.
    #[test]
    fn merge_of_a_torn_or_missing_input_is_an_error_and_writes_nothing() {
        let s = store();
        let (t1, _) = build_at(&s, "r/sst1", 1, &entries(&[("a", "1"), ("b", "2")]), 0);
        let (t2, _) = build_at(&s, "r/sst2", 2, &entries(&[("b", "3"), ("c", "4")]), 0);
        let whole = s.backend().get_all("r/sst1.data").unwrap();
        let last = whole.len() - (RECORD_HEADER + 2);
        let tables = [t1, t2];
        let merge = || merge_at(&s, &tables, "r/sst3", 3, true, 0);
        for cut in last + 1..whole.len() {
            s.backend().put("r/sst1.data", whole.slice(..cut));
            let err = merge().expect_err("a torn input must not merge");
            assert!(
                matches!(&err, Error::DataLoss(what)
                    if what.contains("sst 1 SSData corrupt") && what.contains("r/sst1.data")),
                "cut at {cut}: {err:?}"
            );
            assert_eq!(s.list("r/sst3"), Vec::<String>::new(), "cut at {cut}");
        }
        s.backend().delete("r/sst1.data");
        let err = merge().expect_err("a missing input must not merge");
        assert!(
            matches!(&err, Error::DataLoss(what) if what.contains("sst 1 SSData missing")),
            "{err:?}"
        );
        assert_eq!(s.list("r/sst3"), Vec::<String>::new());
        s.backend().put("r/sst1.data", whole);
        assert_eq!(merge().unwrap().0.len(), 3);
    }

    #[test]
    fn merge_keeps_tombstones_when_asked() {
        let s = store();
        let mut es = entries(&[("a", "1")]);
        es.push((b"dead".to_vec(), Entry::tombstone()));
        es.sort_by(|x, y| x.0.cmp(&y.0));
        let (t1, _) = build_at(&s, "r/sst1", 1, &es, 0);
        let (merged, _) = merge_at(&s, &[t1], "r/sst2", 2, false, 0).unwrap();
        assert_eq!(merged.get_at(b"dead", true, 0).0, SstGet::Tombstone);
    }

    #[test]
    fn delete_files_removes_all_three() {
        let s = store();
        let (r, _) = build_at(&s, "b", 1, &entries(&[("a", "1")]), 0);
        r.delete_files_at(0);
        assert!(!s.exists("b.data"));
        assert!(!s.exists("b.index"));
        assert!(!s.exists("b.bloom"));
    }

    /// A fetched value owns its bytes: once the table is merged away and its
    /// files deleted, nothing a get returned keeps the SSData alive.
    #[test]
    fn a_fetched_value_does_not_pin_its_table() {
        let s = store();
        let (old, _) =
            build_at(&s, "r/sst1", 1, &entries(&[("a", "1"), ("b", "2"), ("c", "3")]), 0);
        let stored = s.backend().get_all("r/sst1.data").unwrap();
        let fetched = [old.get_at(b"b", true, 0).0, old.get_at(b"c", false, 0).0];
        let cached = fetched[0].cache_entry();
        let (merged, _) = merge_at(&s, std::slice::from_ref(&old), "r/sst2", 2, true, 0).unwrap();
        assert!(!stored.is_unique(), "the store still holds the old table");
        old.delete_files_at(0);
        drop(old);
        assert!(
            stored.is_unique(),
            "a value, a cache entry or the merged table pins the old SSData"
        );
        assert_eq!(fetched[0], SstGet::Found(Bytes::from_static(b"2")));
        assert_eq!(fetched[1], merged.get_at(b"c", true, 0).0);
        assert!(cached.is_some());
    }

    #[test]
    fn sst_base_layout() {
        assert_eq!(sst_base("repo", "mydb", 7, 42), "repo/mydb/r7/sst0000000042");
    }

    #[test]
    fn large_values_roundtrip() {
        let s = store();
        let big = "v".repeat(1 << 20);
        let (r, _) = build_at(&s, "b", 1, &entries(&[("k", big.as_str())]), 0);
        match r.get_at(b"k", true, 0).0 {
            SstGet::Found(v) => assert_eq!(v.len(), 1 << 20),
            other => panic!("unexpected {other:?}"),
        }
    }
}
