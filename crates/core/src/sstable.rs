//! SSTables: immutable sorted on-NVM tables (paper §2.4-§2.6).
//!
//! Each SSTable consists of three files:
//!
//! * **SSData** — the key-value records, sorted by key:
//!   `[keylen: u32][vallen: u32][tombstone: u8][key][value]*`
//! * **SSIndex** — "the offsets and lengths of keys of the key-value pairs
//!   in SSData": `[count: u64][record offset: u64]*` (lengths live in the
//!   record headers the offsets point at).
//! * **bloom** — the serialized [`crate::bloom::Bloom`] filter.
//!
//! A get either **binary searches** SSData via the in-memory SSIndex
//! (O(log n) random NVM reads — the §2.6 optimisation exploiting NVM's fast
//! random access) or **linearly scans** SSData from the start (the Figure 8
//! "Default" baseline). Whether the bloom filter is consulted first is the
//! caller's decision (`Options::bloom_filter`, made once in the database's
//! SSTable walk): [`SstReader::get_at`] itself always searches.
//!
//! SSTables are immutable: updates and deletes go to new SSTables with
//! higher SSIDs; [`merge_at`] implements the §2.5 compaction that folds a set
//! of SSTables into one, newest-SSID-wins.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use papyrus_nvm::NvmStore;
use papyrus_simtime::{AccessPattern, SimNs};

use crate::bloom::Bloom;
use crate::error::{Error, Result};
use crate::lru::CacheEntry;
use crate::memtable::Entry;

/// Per-database, per-rank, unique increasing SSTable number, starting at 1.
pub type Ssid = u64;

/// Parsed SSTable records: (key, entry) pairs in file order.
pub type Records = Vec<(Vec<u8>, Entry)>;

const RECORD_HEADER: u64 = 9; // keylen u32 + vallen u32 + tombstone u8

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

/// The three object names of an SSTable at `base` (no extension).
fn paths(base: &str) -> (String, String, String) {
    (format!("{base}.data"), format!("{base}.index"), format!("{base}.bloom"))
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

/// The encoded form of one SSTable: the SSData and SSIndex file images
/// plus the in-memory index and filter the reader keeps (the filter is
/// also the third file).
struct TableImage {
    data: Bytes,
    index: Bytes,
    offsets: Vec<u64>,
    bloom: Bloom,
}

impl TableImage {
    /// Encode key-sorted `entries` (MemTables iterate in key order, so
    /// flushes satisfy this by construction; asserted in debug builds).
    fn encode(entries: &[(Vec<u8>, Entry)]) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "SSTable input must be strictly key-sorted"
        );
        let mut data = Vec::new();
        let mut offsets: Vec<u64> = Vec::with_capacity(entries.len());
        let mut bloom = Bloom::with_capacity(entries.len(), 10);
        for (key, e) in entries {
            offsets.push(data.len() as u64);
            bloom.insert(key);
            data.extend_from_slice(&(key.len() as u32).to_le_bytes());
            data.extend_from_slice(&(e.value.len() as u32).to_le_bytes());
            data.push(u8::from(e.tombstone));
            data.extend_from_slice(key);
            data.extend_from_slice(&e.value);
        }
        let mut index = Vec::with_capacity(8 + offsets.len() * 8);
        index.extend_from_slice(&(offsets.len() as u64).to_le_bytes());
        for off in &offsets {
            index.extend_from_slice(&off.to_le_bytes());
        }
        Self { data: Bytes::from(data), index: Bytes::from(index), offsets, bloom }
    }

    /// Write the three files with one sequential submission each, chained
    /// from `now`, through `put` (the store's riding-out or fallible write).
    fn write<E>(
        self,
        store: &NvmStore,
        base: &str,
        ssid: Ssid,
        now: SimNs,
        put: impl Fn(&str, Bytes, SimNs) -> std::result::Result<SimNs, E>,
    ) -> std::result::Result<(SstReader, SimNs), E> {
        let (data_path, index_path, bloom_path) = paths(base);
        let data_len = self.data.len() as u64;
        let t1 = put(&data_path, self.data, now)?;
        let t2 = put(&index_path, self.index, t1)?;
        let done = put(&bloom_path, Bytes::from(self.bloom.to_bytes()), t2)?;
        let reader = SstReader(Arc::new(Table {
            store: store.clone(),
            base: base.to_string(),
            ssid,
            offsets: self.offsets,
            bloom: self.bloom,
            data_len,
        }));
        Ok((reader, done))
    }
}

/// Build one SSTable from key-sorted entries, writing its three files with
/// one sequential submission each starting at `now`. Injected NVM faults
/// are ridden out by the store.
///
/// Returns `(reader, completion stamp)`. Entries must be sorted by key.
pub fn build_at(
    store: &NvmStore,
    base: &str,
    ssid: Ssid,
    entries: &[(Vec<u8>, Entry)],
    now: SimNs,
) -> (SstReader, SimNs) {
    let put =
        |path: &str, bytes, t| Ok::<_, std::convert::Infallible>(store.put_at(path, bytes, t));
    match TableImage::encode(entries).write(store, base, ssid, now, put) {
        Ok(built) => built,
        Err(never) => match never {},
    }
}

/// Fallible [`build_at`]: the three file writes surface the NVM faults
/// injected through `store`'s handle instead of riding them out. On `Err` a
/// partial triple may remain — it is unreferenced debris (the manifest is
/// only updated after a successful build) and whole-file rewrites overwrite
/// it cleanly.
pub fn try_build_at(
    store: &NvmStore,
    base: &str,
    ssid: Ssid,
    entries: &[(Vec<u8>, Entry)],
    now: SimNs,
) -> std::result::Result<(SstReader, SimNs), papyrus_nvm::IoFault> {
    let put = |path: &str, bytes, t| store.try_put_at(path, bytes, t);
    TableImage::encode(entries).write(store, base, ssid, now, put)
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
    ssid: Ssid,
    offsets: Vec<u64>,
    bloom: Bloom,
    data_len: u64,
}

impl SstReader {
    /// Open an SSTable at `base`, charging the open/metadata and
    /// bloom+index read costs starting at `now`. Returns `None` if the
    /// SSTable's files are missing (e.g. deleted by a concurrent compaction
    /// in the owner rank — callers skip it).
    pub fn open_at(store: &NvmStore, base: &str, ssid: Ssid, now: SimNs) -> Option<(Self, SimNs)> {
        let (data_path, index_path, bloom_path) = paths(base);
        let t = store.open_at(now);
        let (bloom_bytes, t) = store.read_all_at(&bloom_path, t)?;
        let bloom = Bloom::from_bytes(&bloom_bytes)?;
        let (index_bytes, t) = store.read_all_at(&index_path, t)?;
        if index_bytes.len() < 8 {
            return None;
        }
        let count = u64::from_le_bytes(index_bytes[0..8].try_into().ok()?) as usize;
        if index_bytes.len() != 8 + count * 8 {
            return None;
        }
        let offsets = index_bytes[8..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap())) // lint:allow(panic-path): chunks_exact(8) yields exactly-8-byte chunks
            .collect();
        let data_len = store.len(&data_path)?;
        let table =
            Table { store: store.clone(), base: base.to_string(), ssid, offsets, bloom, data_len };
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

    // Read and parse the record at offset `off`. Returns
    // (key, value, tombstone, modelled-bytes-touched). `None` on missing
    // or corrupt data.
    fn read_record(&self, off: u64) -> Option<(Bytes, Bytes, bool, u64)> {
        let backend = self.0.store.backend();
        let (data_path, _, _) = paths(&self.0.base);
        let header = backend.get(&data_path, off, RECORD_HEADER)?;
        if header.len() < RECORD_HEADER as usize {
            return None;
        }
        let keylen = u32::from_le_bytes(header[0..4].try_into().ok()?) as u64;
        let vallen = u32::from_le_bytes(header[4..8].try_into().ok()?) as u64;
        let tomb = header[8] != 0;
        let key = backend.get(&data_path, off + RECORD_HEADER, keylen)?;
        let value = backend.get(&data_path, off + RECORD_HEADER + keylen, vallen)?;
        if key.len() as u64 != keylen || value.len() as u64 != vallen {
            return None;
        }
        Some((key, value, tomb, RECORD_HEADER + keylen + vallen))
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
            let Some((k, v, tomb, _)) = self.read_record(self.0.offsets[mid]) else {
                return (SstGet::NotFound, t);
            };
            // One random probe touches the header + key (+ value on hit).
            match key.cmp(&k) {
                std::cmp::Ordering::Equal => {
                    let touched = RECORD_HEADER + k.len() as u64 + v.len() as u64;
                    t = self.charge_read(touched, AccessPattern::Random, t);
                    return if tomb { (SstGet::Tombstone, t) } else { (SstGet::Found(v), t) };
                }
                std::cmp::Ordering::Less => hi = mid,
                std::cmp::Ordering::Greater => lo = mid + 1,
            }
            t = self.charge_read(RECORD_HEADER + k.len() as u64, AccessPattern::Random, t);
        }
        (SstGet::NotFound, t)
    }

    fn get_linear(&self, key: &[u8], now: SimNs) -> (SstGet, SimNs) {
        let mut scanned = 0u64;
        for &off in &self.0.offsets {
            let Some((k, v, tomb, rec_bytes)) = self.read_record(off) else {
                break;
            };
            scanned += rec_bytes;
            match key.cmp(&k) {
                std::cmp::Ordering::Equal => {
                    let t = self.charge_read(scanned, AccessPattern::Sequential, now);
                    return if tomb { (SstGet::Tombstone, t) } else { (SstGet::Found(v), t) };
                }
                // Records are sorted: once past the key, it's absent.
                std::cmp::Ordering::Less => break,
                std::cmp::Ordering::Greater => {}
            }
        }
        (SstGet::NotFound, self.charge_read(scanned.max(1), AccessPattern::Sequential, now))
    }

    fn charge_read(&self, bytes: u64, pattern: AccessPattern, now: SimNs) -> SimNs {
        let cost = self.0.store.device().read_ns(bytes, pattern);
        self.0.store.queue().submit_shared(now, cost, self.0.store.device().parallelism)
    }

    /// Sequentially read and parse every record (compaction, restart with
    /// redistribution). Charges one full sequential read.
    pub fn scan_all_at(&self, now: SimNs) -> Result<(Records, SimNs)> {
        let (data_path, _, _) = paths(&self.0.base);
        let Some(data) = self.0.store.backend().get_all(&data_path) else {
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
        let (data_path, _, _) = paths(&self.0.base);
        self.parse_records(&self.0.store.backend().get_all(&data_path)?)
    }

    /// Parse an SSData image; `None` if a record runs past its end.
    fn parse_records(&self, data: &Bytes) -> Option<Records> {
        let mut out = Vec::with_capacity(self.0.offsets.len());
        let mut pos = 0usize;
        while pos + RECORD_HEADER as usize <= data.len() {
            let keylen = u32::from_le_bytes(data[pos..pos + 4].try_into().ok()?) as usize;
            let vallen = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().ok()?) as usize;
            let tomb = data[pos + 8] != 0;
            pos += RECORD_HEADER as usize;
            if pos + keylen + vallen > data.len() {
                return None;
            }
            let key = data[pos..pos + keylen].to_vec();
            let value = data.slice(pos + keylen..pos + keylen + vallen);
            pos += keylen + vallen;
            out.push((key, Entry { value, tombstone: tomb, owner: crate::memtable::NO_OWNER }));
        }
        Some(out)
    }

    /// Delete this SSTable's three files starting at `now` (post-compaction
    /// cleanup, §2.5 "the old SSTables are deleted to save storage space").
    pub fn delete_files_at(&self, now: SimNs) -> SimNs {
        let (d, i, b) = paths(&self.0.base);
        let (_, t) = self.0.store.delete_at(&d, now);
        let (_, t) = self.0.store.delete_at(&i, t);
        let (_, t) = self.0.store.delete_at(&b, t);
        t
    }
}

/// Fold `tables` (any order) into one key-sorted record list starting at
/// `now`: for duplicate keys "the key-value pair in the newest SSTable that
/// has the highest SSID is inserted in the new merged SSTable" (§2.5).
/// When `drop_tombstones` is set (legal when merging *all* live tables),
/// deleted keys vanish entirely.
fn merge_records(
    tables: &[SstReader],
    drop_tombstones: bool,
    now: SimNs,
) -> Result<(Records, SimNs)> {
    // "The compaction needs sequential file read because the key-value pairs
    // in each SSTable are sorted by the key" (§2.5).
    let mut t = now;
    let mut by_ssid: Vec<&SstReader> = tables.iter().collect();
    by_ssid.sort_by_key(|r| std::cmp::Reverse(r.ssid()));
    let mut merged: BTreeMap<Vec<u8>, Entry> = BTreeMap::new();
    for reader in by_ssid {
        let (entries, done) = reader.scan_all_at(t)?;
        t = done;
        for (k, e) in entries {
            // Newest-first insertion: existing keys already hold newer data.
            merged.entry(k).or_insert(e);
        }
    }
    if drop_tombstones {
        merged.retain(|_, e| !e.tombstone);
    }
    Ok((merged.into_iter().collect(), t))
}

/// Merge a set of SSTables into one new table with SSID `new_ssid`
/// (§2.5 compaction; see `merge_records` for the merge rule).
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
    let (sorted, t) = merge_records(tables, drop_tombstones, now)?;
    Ok(build_at(store, new_base, new_ssid, &sorted, t))
}

/// Fault-aware [`merge_at`]: the merged table is built through
/// [`try_build_at`]. `ENOSPC` aborts with [`Error::StorageFull`] (the
/// caller keeps the inputs live, so nothing is lost); transient EIO is
/// ridden out by falling back to the infallible build, which escapes the
/// fault window deterministically. With the fault plane off no write can
/// fail and this is [`merge_at`].
pub fn try_merge_at(
    store: &NvmStore,
    tables: &[SstReader],
    new_base: &str,
    new_ssid: Ssid,
    drop_tombstones: bool,
    now: SimNs,
) -> Result<(SstReader, SimNs)> {
    let (sorted, t) = merge_records(tables, drop_tombstones, now)?;
    match try_build_at(store, new_base, new_ssid, &sorted, t) {
        Ok(built) => Ok(built),
        Err(papyrus_nvm::IoFault::NoSpace) => {
            Err(Error::StorageFull(format!("compaction into {new_base}")))
        }
        Err(papyrus_nvm::IoFault::TransientEio) => {
            Ok(build_at(store, new_base, new_ssid, &sorted, t))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papyrus_simtime::DeviceModel;

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

    #[test]
    fn get_binary_and_linear_agree() {
        let s = store();
        let pairs: Vec<(String, String)> =
            (0..200).map(|i| (format!("key{i:04}"), format!("val{i}"))).collect();
        let refs: Vec<(&str, &str)> = pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let (r, _) = build_at(&s, "b", 1, &entries(&refs), 0);
        for i in (0..200).step_by(17) {
            let k = format!("key{i:04}");
            let (bin, _) = r.get_at(k.as_bytes(), true, 0);
            let (lin, _) = r.get_at(k.as_bytes(), false, 0);
            assert_eq!(bin, SstGet::Found(Bytes::from(format!("val{i}"))));
            assert_eq!(bin, lin);
        }
        let (bin, _) = r.get_at(b"missing", true, 0);
        let (lin, _) = r.get_at(b"missing", false, 0);
        assert_eq!(bin, SstGet::NotFound);
        assert_eq!(lin, SstGet::NotFound);
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
