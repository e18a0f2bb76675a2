//! SSTables: immutable sorted on-NVM tables (paper §2.4-§2.6).
//!
//! Each SSTable consists of three files ([`SST_FILES`]):
//!
//! * **SSData** — the key-value records, sorted by key:
//!   `[keylen: u32][vallen: u32][tombstone: u8][key][value]*`
//! * **SSIndex** — "the offsets and lengths of keys of the key-value pairs
//!   in SSData": `[count: u64][record offset: u64]*` (lengths live in the
//!   record headers the offsets point at).
//! * **bloom** — the serialized [`crate::bloom::Bloom`] filter.
//!
//! The record layout has one home, the codec (`put_record` / `record_at`),
//! behind the encoder, both searches, the full scan and the auditor's
//! hand-made tables.
//!
//! A get either **binary searches** SSData via the in-memory SSIndex
//! (O(log n) random NVM reads — the §2.6 optimisation exploiting NVM's fast
//! random access; a probe is one ranged read of one record's extent) or
//! **linearly scans** one SSData image from the start (the Figure 8
//! "Default" baseline). A value found is copied out of what was read, so it
//! never pins the record or the table it was cut from. Whether the bloom
//! filter is consulted first is the caller's decision
//! (`Options::bloom_filter`, made once in the database's SSTable walk):
//! [`SstReader::get_at`] itself always searches.
//!
//! SSTables are immutable: updates and deletes go to new SSTables with
//! higher SSIDs; [`merge_at`] is the §2.5 compaction that folds a set of
//! SSTables into one under that section's rule, `newest_wins` — the one fold
//! compaction, re-replication and the auditor's dumps share.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use papyrus_nvm::{IoFault, NvmStore};
use papyrus_simtime::{AccessPattern, SimNs};

use crate::bloom::Bloom;
use crate::error::{Error, Result};
use crate::lru::CacheEntry;
use crate::memtable::{Entry, NO_OWNER};

/// Per-database, per-rank, unique increasing SSTable number, starting at 1.
pub type Ssid = u64;

/// Parsed SSTable records: (key, entry) pairs in file order.
pub type Records = Vec<(Vec<u8>, Entry)>;

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

/// One decoded SSData record, borrowing the bytes it was decoded from.
struct Record<'a> {
    key: &'a [u8],
    value: &'a [u8],
    tombstone: bool,
    /// Encoded length: header + key + value.
    len: usize,
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

/// Append the record of `key` to an SSData image.
fn put_record(data: &mut Vec<u8>, key: &[u8], e: &Entry) {
    data.extend_from_slice(&(key.len() as u32).to_le_bytes());
    data.extend_from_slice(&(e.value.len() as u32).to_le_bytes());
    data.push(u8::from(e.tombstone));
    data.extend_from_slice(key);
    data.extend_from_slice(&e.value);
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
    let len = key_end.checked_add(vallen)?;
    Some(Record {
        key: rest.get(RECORD_HEADER..key_end)?,
        value: rest.get(key_end..len)?,
        tombstone,
        len,
    })
}

/// Whether every extent — `offsets[i]..offsets[i + 1]`, the last one up to
/// `data_len` — has room for a record header: the offsets are then strictly
/// increasing and inside SSData.
fn extents_hold_records(offsets: &[u64], data_len: u64) -> bool {
    let room = |start: u64, end: u64| end >= start && end - start >= RECORD_HEADER as u64;
    offsets.windows(2).all(|w| room(w[0], w[1]))
        && offsets.last().is_none_or(|&last| room(last, data_len))
}

/// The §2.5 rule, once: fold `levels`, given **newest first**, into one
/// key-ordered map where each key keeps the record of the newest level
/// holding it — "the key-value pair in the newest SSTable that has the
/// highest SSID is inserted in the new merged SSTable". Tombstones are
/// records; a caller that may drop them does so afterwards.
pub(crate) fn newest_wins<L>(levels: impl IntoIterator<Item = L>) -> BTreeMap<Vec<u8>, Entry>
where
    L: IntoIterator<Item = (Vec<u8>, Entry)>,
{
    let mut newest = BTreeMap::new();
    for level in levels {
        for (key, entry) in level {
            // Newest-first insertion: existing keys already hold newer data.
            newest.entry(key).or_insert(entry);
        }
    }
    newest
}

/// The encoded form of one SSTable: the three file images plus the
/// in-memory index and filter its reader keeps.
pub(crate) struct TableImage {
    /// File images in [`SST_FILES`] order.
    images: [Bytes; 3],
    offsets: Vec<u64>,
    bloom: Bloom,
}

impl TableImage {
    /// Encode `entries` straight from an iterator in strict key order — a
    /// MemTable's (a flush) and the [`newest_wins`] fold's (a merge) are by
    /// construction.
    pub(crate) fn encode<'a>(
        entries: impl ExactSizeIterator<Item = (&'a [u8], &'a Entry)>,
    ) -> Self {
        let mut data = Vec::new();
        let mut offsets: Vec<u64> = Vec::with_capacity(entries.len());
        let mut bloom = Bloom::with_capacity(entries.len(), 10);
        for (key, e) in entries {
            offsets.push(data.len() as u64);
            bloom.insert(key);
            put_record(&mut data, key, e);
        }
        let mut index = Vec::with_capacity(8 + offsets.len() * 8);
        index.extend_from_slice(&(offsets.len() as u64).to_le_bytes());
        for off in &offsets {
            index.extend_from_slice(&off.to_le_bytes());
        }
        let images = [Bytes::from(data), Bytes::from(index), Bytes::from(bloom.to_bytes())];
        Self { images, offsets, bloom }
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
            offsets: self.offsets,
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
    let image = TableImage::encode(entries.iter().map(|(k, e)| (k.as_slice(), e)));
    let done = image.write_at(store, base, now);
    (image.into_reader(store, base, ssid), done)
}

/// An open SSTable: bloom filter and SSIndex held in memory ("PapyrusKV
/// loads the SSIndex in memory and searches SSData", §2.6); SSData probed
/// through the cost-accounted store. A handle: clones share the index and
/// the filter.
#[derive(Debug, Clone)]
pub struct SstReader(Arc<Table>);

#[derive(Debug)]
struct Table {
    store: NvmStore,
    base: String,
    /// Object names in [`SST_FILES`] order, kept so no probe formats one.
    files: [String; 3],
    ssid: Ssid,
    offsets: Vec<u64>,
    bloom: Bloom,
    data_len: u64,
}

impl SstReader {
    /// Open an SSTable at `base`, charging the open/metadata and
    /// bloom+index read costs starting at `now`. Returns `None` if the
    /// SSTable's files are missing (e.g. deleted by a concurrent compaction
    /// in the owner rank — callers skip it) or do not fit together — a torn
    /// SSIndex reads as "unreadable", not as a table that opens and misses.
    pub fn open_at(store: &NvmStore, base: &str, ssid: Ssid, now: SimNs) -> Option<(Self, SimNs)> {
        let files = files_of(base);
        let [data_path, index_path, bloom_path] = &files;
        let t = store.open_at(now);
        let (bloom_bytes, t) = store.read_all_at(bloom_path, t)?;
        let bloom = Bloom::from_bytes(&bloom_bytes)?;
        let (index_bytes, t) = store.read_all_at(index_path, t)?;
        let (count, offsets) = index_bytes.split_at_checked(8)?;
        let count = u64::from_le_bytes(count.try_into().ok()?) as usize;
        if offsets.len() != count.checked_mul(8)? {
            return None;
        }
        let offsets: Vec<u64> = offsets
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap())) // lint:allow(panic-path): chunks_exact(8) yields exactly-8-byte chunks
            .collect();
        let data_len = store.len(data_path)?;
        if !extents_hold_records(&offsets, data_len) {
            return None;
        }
        let store = store.clone();
        let table = Table { store, base: base.to_string(), files, ssid, offsets, bloom, data_len };
        Some((Self(Arc::new(table)), t))
    }

    /// This table's SSID.
    pub fn ssid(&self) -> Ssid {
        self.0.ssid
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.0.offsets.len()
    }

    /// Whether the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.0.offsets.is_empty()
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

    /// Record `i`'s extent in one ranged read; `None` when SSData is gone.
    fn read_record(&self, i: usize) -> Option<Bytes> {
        let table = &*self.0;
        let start = table.offsets[i];
        let end = table.offsets.get(i + 1).copied().unwrap_or(table.data_len);
        table.store.backend().get(&table.files[0], start, end.saturating_sub(start))
    }

    /// The whole SSData image, uncharged; `None` when it is gone.
    fn image(&self) -> Option<Bytes> {
        self.0.store.backend().get_all(&self.0.files[0])
    }

    /// Search SSData for `key` starting at `now`, without consulting the
    /// bloom filter (see [`SstReader::maybe_contains`]).
    ///
    /// `bin_search = true`: O(log n) random-access probes of SSData guided
    /// by the in-memory SSIndex. `false`: sequential scan of SSData from the
    /// start (the cost contrast behind Figure 8).
    pub fn get_at(&self, key: &[u8], bin_search: bool, now: SimNs) -> (SstGet, SimNs) {
        if bin_search {
            self.get_binary(key, now)
        } else {
            self.get_linear(key, now)
        }
    }

    fn get_binary(&self, key: &[u8], now: SimNs) -> (SstGet, SimNs) {
        let mut t = now;
        let mut lo = 0usize;
        let mut hi = self.0.offsets.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let extent = self.read_record(mid);
            let Some(rec) = extent.as_deref().and_then(|bytes| record_at(bytes, 0)) else {
                return (SstGet::NotFound, t);
            };
            // One random probe touches the header + key (+ value on hit).
            match key.cmp(rec.key) {
                std::cmp::Ordering::Equal => {
                    t = self.charge_read(rec.len as u64, AccessPattern::Random, t);
                    return (rec.outcome(), t);
                }
                std::cmp::Ordering::Less => hi = mid,
                std::cmp::Ordering::Greater => lo = mid + 1,
            }
            let touched = (rec.len - rec.value.len()) as u64;
            t = self.charge_read(touched, AccessPattern::Random, t);
        }
        (SstGet::NotFound, t)
    }

    /// Decode forward through one SSData image — the one sequential read
    /// the scan is charged as.
    fn get_linear(&self, key: &[u8], now: SimNs) -> (SstGet, SimNs) {
        let data = self.image().unwrap_or_default();
        let mut scanned = 0usize;
        while let Some(rec) = record_at(&data, scanned) {
            scanned += rec.len;
            match key.cmp(rec.key) {
                std::cmp::Ordering::Equal => {
                    let t = self.charge_read(scanned as u64, AccessPattern::Sequential, now);
                    return (rec.outcome(), t);
                }
                // Records are sorted: once past the key, it's absent.
                std::cmp::Ordering::Less => break,
                std::cmp::Ordering::Greater => {}
            }
        }
        (SstGet::NotFound, self.charge_read(scanned.max(1) as u64, AccessPattern::Sequential, now))
    }

    fn charge_read(&self, bytes: u64, pattern: AccessPattern, now: SimNs) -> SimNs {
        let cost = self.0.store.device().read_ns(bytes, pattern);
        self.0.store.queue().submit_shared(now, cost, self.0.store.device().parallelism)
    }

    /// Sequentially read and parse every record (compaction, restart with
    /// redistribution). Charges one full sequential read.
    pub fn scan_all_at(&self, now: SimNs) -> Result<(Records, SimNs)> {
        let data_path = &self.0.files[0];
        let Some(data) = self.image() else {
            return Err(Error::Internal(format!("SSData missing: {data_path}")));
        };
        let t = self.charge_read(data.len().max(1) as u64, AccessPattern::Sequential, now);
        match self.parse_records(&data) {
            Some(records) => Ok((records, t)),
            None => Err(Error::Internal(format!("corrupt SSData: {data_path}"))),
        }
    }

    /// Read and parse every record WITHOUT charging virtual time — for the
    /// `papyruskv::sanity` auditor, which must observe the store without
    /// perturbing the simulation's cost model. `None` on missing/corrupt
    /// SSData (the auditor reports that as a finding, not a panic).
    pub fn records_uncharged(&self) -> Option<Records> {
        self.parse_records(&self.image()?)
    }

    /// Parse an SSData image, values as zero-copy slices of it; `None` if
    /// it does not end on a record boundary.
    fn parse_records(&self, data: &Bytes) -> Option<Records> {
        let mut out = Vec::with_capacity(self.0.offsets.len());
        let mut pos = 0usize;
        while pos < data.len() {
            let rec = record_at(data, pos)?;
            let value = data.slice(pos + rec.len - rec.value.len()..pos + rec.len);
            let entry = Entry { value, tombstone: rec.tombstone, owner: NO_OWNER };
            out.push((rec.key.to_vec(), entry));
            pos += rec.len;
        }
        Some(out)
    }

    /// Delete this SSTable's three files starting at `now` (post-compaction
    /// cleanup, §2.5 "the old SSTables are deleted to save storage space").
    pub fn delete_files_at(&self, now: SimNs) -> SimNs {
        self.0.files.iter().fold(now, |t, path| self.0.store.delete_at(path, t).1)
    }
}

/// Merge a set of SSTables (any order) into one new table with SSID
/// `new_ssid`, starting at `now` (§2.5 compaction): one sequential scan per
/// input, folded by `newest_wins` and encoded straight from the fold. When
/// `drop_tombstones` is set (legal when merging *all* live tables), deleted
/// keys vanish entirely.
///
/// An injected `ENOSPC` aborts with [`Error::StorageFull`] (the caller
/// keeps the inputs live, so nothing is lost); transient EIO is ridden out.
/// Through an unarmed store no write can fail: `Err` then means an input's
/// SSData is missing or corrupt.
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
    let mut levels = Vec::with_capacity(tables.len());
    for reader in newest_first {
        let (records, done) = reader.scan_all_at(t)?;
        t = done;
        levels.push(records);
    }
    let mut merged = newest_wins(levels);
    if drop_tombstones {
        merged.retain(|_, e| !e.tombstone);
    }
    let image = TableImage::encode(merged.iter().map(|(k, e)| (k.as_slice(), e)));
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
mod tests {
    use super::*;
    use papyrus_simtime::DeviceModel;
    use proptest::collection::{btree_map, vec};
    use proptest::prelude::*;

    fn store() -> NvmStore {
        NvmStore::in_memory(DeviceModel::nvme_summitdev())
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
        /// Both searches answer like a `BTreeMap` of the table's entries, for
        /// keys it holds (live or tombstoned) and keys it does not.
        #[test]
        fn get_binary_and_linear_agree(
            table in btree_map(
                vec(any::<u8>(), 1..6),
                (vec(any::<u8>(), 0..40), any::<bool>()),
                0..80,
            ),
            probes in vec(vec(any::<u8>(), 1..6), 0..40),
        ) {
            let entry = |v, tomb| if tomb { Entry::tombstone() } else { Entry::value(Bytes::from(v)) };
            let es: Vec<(Vec<u8>, Entry)> =
                table.into_iter().map(|(k, (v, tomb))| (k, entry(v, tomb))).collect();
            let model: BTreeMap<Vec<u8>, Entry> = es.iter().cloned().collect();
            let (r, _) = build_at(&store(), "b", 1, &es, 0);
            for key in model.keys().chain(&probes) {
                let want = model.get(key).map_or(SstGet::NotFound, SstGet::from);
                prop_assert_eq!(&r.get_at(key, true, 0).0, &want);
                prop_assert_eq!(&r.get_at(key, false, 0).0, &want);
            }
        }

        /// `record_at` is total — arbitrary bytes, arbitrary positions — and
        /// whatever it decodes lies inside the bytes it was given.
        #[test]
        fn record_at_is_total(junk in vec(any::<u8>(), 0..64), pos in 0usize..80) {
            for pos in [pos, usize::MAX - pos] {
                if let Some(rec) = record_at(&junk, pos) {
                    prop_assert!(pos + rec.len <= junk.len());
                    prop_assert_eq!(rec.len, RECORD_HEADER + rec.key.len() + rec.value.len());
                }
            }
        }

        /// `put_record` → `record_at` round-trips any run of records,
        /// zero-length values and tombstones included, and a cut anywhere
        /// inside the last record decodes to `None`, never to a shorter one.
        #[test]
        fn codec_round_trips(
            records in vec(
                (vec(any::<u8>(), 0..24), vec(any::<u8>(), 0..64), any::<bool>()),
                1..20,
            ),
        ) {
            let mut data = Vec::new();
            for (k, v, tomb) in &records {
                let value = Bytes::copy_from_slice(v);
                put_record(&mut data, k, &Entry { value, tombstone: *tomb, owner: NO_OWNER });
            }
            let (mut pos, mut last) = (0, 0);
            for (k, v, tomb) in &records {
                let rec = record_at(&data, pos).expect("an encoded record decodes");
                prop_assert_eq!((rec.key, rec.value, rec.tombstone), (&k[..], &v[..], *tomb));
                last = pos;
                pos += rec.len;
            }
            prop_assert_eq!(pos, data.len());
            prop_assert!(record_at(&data, pos).is_none());
            for cut in last..data.len() {
                prop_assert!(record_at(&data[..cut], last).is_none());
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
        // and tombstoned key, a key absent inside the range and one past it.
        let got: Vec<(SimNs, SimNs)> =
            [&b"key00"[..], b"key31", b"key63", b"key40", b"key31x", b"zzz"]
                .iter()
                .map(|k| stamps(k))
                .collect();
        assert_eq!(
            got,
            vec![
                (84048, 12010),
                (72043, 12326),
                (72042, 12649),
                (36018, 12413),
                (72036, 12337),
                (72036, 12649)
            ]
        );
    }

    #[test]
    fn binary_search_cheaper_than_linear_for_large_tables() {
        let s = store();
        let value = "x".repeat(200);
        let pairs: Vec<(String, String)> =
            (0..20_000).map(|i| (format!("key{i:06}"), value.clone())).collect();
        let refs: Vec<(&str, &str)> = pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let (r, _) = build_at(&s, "b", 1, &entries(&refs), 0);
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
        let (built, _) =
            build_at(&s, "t", 1, &entries(&[("k1", "v1"), ("k2", "v2"), ("k3", "v3")]), 0);
        let data_len = built.data_len();
        let rec = data_len / 3;
        let opens = |offsets: &[u64]| {
            let mut index = (offsets.len() as u64).to_le_bytes().to_vec();
            offsets.iter().for_each(|off| index.extend_from_slice(&off.to_le_bytes()));
            s.backend().put("t.index", Bytes::from(index));
            SstReader::open_at(&s, "t", 1, 0).is_some()
        };
        assert!(opens(&[0, rec, 2 * rec]), "the index as built");
        assert!(!opens(&[0, 2 * rec, rec]), "a decreasing offset");
        assert!(!opens(&[0, rec, rec]), "a repeated offset");
        assert!(!opens(&[0, rec, data_len + 1]), "an offset past SSData");
        assert!(
            !opens(&[0, rec, data_len - RECORD_HEADER as u64 + 1]),
            "a last extent below a header"
        );
        assert!(opens(&[0, rec, data_len - RECORD_HEADER as u64]), "room for exactly a header");
        assert!(!opens(&[0, rec, u64::MAX]), "an offset that overflows");
    }

    #[test]
    fn scan_all_returns_everything_in_order() {
        let s = store();
        let es = entries(&[("c", "3"), ("a", "1"), ("b", "2")]);
        let (r, _) = build_at(&s, "b", 1, &es, 0);
        let (scanned, t) = r.scan_all_at(0).unwrap();
        assert!(t > 0);
        let keys: Vec<&[u8]> = scanned.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![&b"a"[..], b"b", b"c"]);
    }

    #[test]
    fn empty_sstable_is_legal() {
        let s = store();
        let (r, _) = build_at(&s, "b", 1, &[], 0);
        assert!(r.is_empty());
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
