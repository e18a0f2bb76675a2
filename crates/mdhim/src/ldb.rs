//! MiniLdb: a miniature LevelDB-style local store, private to one rank.
//!
//! Structure: an ordered-map MemTable plus a tier of immutable table files on
//! the rank's storage, each with an in-memory (key → offset) index and a
//! [min, max] key-range filter (LevelDB's table-level filtering; no bloom by
//! default, as in the MDHIM-era configuration). When the tier grows past a
//! threshold, all tables merge into one.
//!
//! Table file format (one object per table):
//! `[count: u64][record: keylen u32, vallen u32, marker u8, key, value]*`

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use papyrus_nvm::NvmStore;
use papyrus_simtime::{AccessPattern, Clock};

const HEADER: usize = 8;
const REC_HEADER: u64 = 9;

/// The MemTable: staged writes in key order (`None` is a deletion marker —
/// LevelDB encodes deletes as marker entries) plus the payload byte count
/// (key + value) that is compared against the flush capacity.
#[derive(Default)]
struct MemTable {
    map: BTreeMap<Vec<u8>, Option<Bytes>>,
    bytes: u64,
}

impl MemTable {
    /// Insert or replace.
    fn insert(&mut self, key: &[u8], value: Option<Bytes>) {
        let new_len = value.as_ref().map_or(0, |v| v.len() as u64);
        match self.map.insert(key.to_vec(), value) {
            Some(old) => self.bytes = self.bytes - old.map_or(0, |v| v.len() as u64) + new_len,
            None => self.bytes += key.len() as u64 + new_len,
        }
    }

    /// Drain into a key-sorted vector, leaving the table empty.
    fn drain_sorted(&mut self) -> Vec<(Vec<u8>, Option<Bytes>)> {
        self.bytes = 0;
        std::mem::take(&mut self.map).into_iter().collect()
    }
}

/// One immutable table file.
struct Table {
    path: String,
    /// Sorted (key, offset) pairs — the in-memory index built at open/flush.
    index: Vec<(Vec<u8>, u64)>,
    min: Vec<u8>,
    max: Vec<u8>,
}

/// A single-rank LevelDB-like store over an [`NvmStore`].
pub struct MiniLdb {
    store: NvmStore,
    prefix: String,
    mem: MemTable,
    mem_capacity: u64,
    tables: Vec<Table>, // ascending seq
    next_seq: u64,
    merge_threshold: usize,
}

impl MiniLdb {
    /// Open a store writing under `prefix` on `store`.
    pub fn new(store: NvmStore, prefix: impl Into<String>, mem_capacity: u64) -> Self {
        Self {
            store,
            prefix: prefix.into(),
            mem: MemTable::default(),
            mem_capacity,
            tables: Vec::new(),
            next_seq: 1,
            merge_threshold: 8,
        }
    }

    /// Number of table files on storage.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Insert or update; flushes the MemTable synchronously when full
    /// (classic embedded-LevelDB behaviour — no PapyrusKV-style background
    /// compaction thread in this layer).
    pub fn put(&mut self, key: &[u8], value: Bytes, clock: &Clock) {
        self.mem.insert(key, Some(value));
        if self.mem.bytes >= self.mem_capacity {
            self.flush(clock);
        }
    }

    /// Delete a key (write a deletion marker).
    pub fn delete(&mut self, key: &[u8], clock: &Clock) {
        self.mem.insert(key, None);
        if self.mem.bytes >= self.mem_capacity {
            self.flush(clock);
        }
    }

    /// Look up a key: MemTable first, then tables newest-first.
    pub fn get(&self, key: &[u8], clock: &Clock) -> Option<Bytes> {
        if let Some(staged) = self.mem.map.get(key) {
            return staged.clone(); // `None` is a deletion marker
        }
        for t in self.tables.iter().rev() {
            if key < t.min.as_slice() || key > t.max.as_slice() {
                continue;
            }
            match t.index.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                Ok(i) => {
                    let off = t.index[i].1;
                    return self.read_value(t, off, clock);
                }
                Err(_) => continue,
            }
        }
        None
    }

    fn read_value(&self, t: &Table, off: u64, clock: &Clock) -> Option<Bytes> {
        let header = self.store.read(&t.path, off, REC_HEADER, AccessPattern::Random, clock)?;
        if header.len() < REC_HEADER as usize {
            return None;
        }
        let keylen = u32::from_le_bytes(header[0..4].try_into().unwrap()) as u64;
        let vallen = u32::from_le_bytes(header[4..8].try_into().unwrap()) as u64;
        let marker = header[8];
        if marker != 0 {
            return None; // persisted deletion marker
        }
        self.store.read(&t.path, off + REC_HEADER + keylen, vallen, AccessPattern::Random, clock)
    }

    /// Flush the MemTable into a new table file (synchronous).
    pub fn flush(&mut self, clock: &Clock) {
        if self.mem.map.is_empty() {
            return;
        }
        let entries = self.mem.drain_sorted();
        self.write_table(&entries, clock);
        if self.tables.len() > self.merge_threshold {
            self.merge_all(clock);
        }
    }

    /// Write key-sorted, non-empty `entries` as the next table file.
    fn write_table(&mut self, entries: &[(Vec<u8>, Option<Bytes>)], clock: &Clock) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let path = format!("{}/ldb{:08}.tbl", self.prefix, seq);

        let mut buf = BytesMut::new();
        buf.put_u64_le(entries.len() as u64);
        let mut index = Vec::with_capacity(entries.len());
        for (key, value) in entries {
            index.push((key.clone(), buf.len() as u64));
            buf.put_u32_le(key.len() as u32);
            buf.put_u32_le(value.as_ref().map_or(0, |v| v.len() as u32));
            buf.put_u8(u8::from(value.is_none()));
            buf.put_slice(key);
            if let Some(v) = value {
                buf.put_slice(v);
            }
        }
        let min = entries.first().map(|(k, _)| k.clone()).unwrap_or_default();
        let max = entries.last().map(|(k, _)| k.clone()).unwrap_or_default();
        self.store.put(&path, buf.freeze(), clock);
        self.tables.push(Table { path, index, min, max });
    }

    /// Merge every table into one (tiered compaction), newest-seq wins,
    /// dropping deletion markers.
    fn merge_all(&mut self, clock: &Clock) {
        let mut merged: BTreeMap<Vec<u8>, Option<Bytes>> = BTreeMap::new();
        let old = std::mem::take(&mut self.tables);
        for t in old.iter().rev() {
            // Sequential read of the whole table.
            let Some(data) = self.store.read_all(&t.path, clock) else { continue };
            for (key, value) in parse_table(&data) {
                merged.entry(key).or_insert(value);
            }
        }
        merged.retain(|_, v| v.is_some());
        if !merged.is_empty() {
            let entries: Vec<_> = merged.into_iter().collect();
            self.write_table(&entries, clock);
        }
        for t in &old {
            self.store.delete(&t.path, clock);
        }
    }
}

/// Parse a table file into `(key, value-or-marker)` pairs (skips the count
/// header; tolerates truncation by stopping early).
fn parse_table(data: &Bytes) -> Vec<(Vec<u8>, Option<Bytes>)> {
    let mut out = Vec::new();
    if data.len() < HEADER {
        return out;
    }
    let mut pos = HEADER;
    while pos + REC_HEADER as usize <= data.len() {
        let mut h = &data[pos..pos + REC_HEADER as usize];
        let keylen = h.get_u32_le() as usize;
        let vallen = h.get_u32_le() as usize;
        let marker = h.get_u8();
        pos += REC_HEADER as usize;
        if pos + keylen + vallen > data.len() {
            break;
        }
        let key = data[pos..pos + keylen].to_vec();
        let value = (marker == 0).then(|| data.slice(pos + keylen..pos + keylen + vallen));
        pos += keylen + vallen;
        out.push((key, value));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use papyrus_simtime::DeviceModel;

    fn ldb(cap: u64) -> MiniLdb {
        MiniLdb::new(NvmStore::in_memory(DeviceModel::dram()), "r0", cap)
    }

    #[test]
    fn memtable_markers_overwrites_and_bytes() {
        let mut m = MemTable::default();
        m.insert(b"k", Some(Bytes::from_static(b"12345")));
        assert_eq!(m.bytes, 1 + 5);
        // Overwrite: one entry, only the value's share of the bytes moves.
        m.insert(b"k", Some(Bytes::from_static(b"1")));
        assert_eq!((m.map.len(), m.bytes), (1, 1 + 1));
        // A deletion marker is an entry, distinct from a never-written key.
        m.insert(b"k", None);
        m.insert(b"dead", None);
        assert_eq!(m.map.get(&b"k"[..]), Some(&None));
        assert_eq!(m.map.get(&b"never"[..]), None);
        assert_eq!((m.map.len(), m.bytes), (2, 1 + 4));
        m.insert(b"a", Some(Bytes::from_static(b"v")));
        // Drain is key-sorted, keeps markers, and resets the accounting.
        let drained = m.drain_sorted();
        let keys: Vec<&[u8]> = drained.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![&b"a"[..], b"dead", b"k"]);
        assert_eq!(drained[1].1, None);
        assert_eq!((m.map.len(), m.bytes), (0, 0));
        m.insert(b"x", Some(Bytes::from_static(b"1")));
        assert_eq!(m.bytes, 2, "usable after a drain");
    }

    #[test]
    fn put_get_memtable_only() {
        let mut l = ldb(1 << 20);
        let c = Clock::new();
        l.put(b"a", Bytes::from_static(b"1"), &c);
        assert_eq!(l.get(b"a", &c).unwrap().as_ref(), b"1");
        assert!(l.get(b"b", &c).is_none());
        assert_eq!(l.table_count(), 0);
    }

    #[test]
    fn flush_then_get_from_table() {
        let mut l = ldb(1 << 20);
        let c = Clock::new();
        for i in 0..100 {
            l.put(format!("k{i:03}").as_bytes(), Bytes::from(format!("v{i}")), &c);
        }
        l.flush(&c);
        assert_eq!(l.table_count(), 1);
        for i in (0..100).step_by(7) {
            assert_eq!(
                l.get(format!("k{i:03}").as_bytes(), &c).unwrap(),
                Bytes::from(format!("v{i}"))
            );
        }
        assert!(l.get(b"k999", &c).is_none());
    }

    #[test]
    fn capacity_triggers_flush() {
        let mut l = ldb(256);
        let c = Clock::new();
        for i in 0..50 {
            l.put(format!("c{i}").as_bytes(), Bytes::from(vec![b'x'; 32]), &c);
        }
        assert!(l.table_count() >= 1, "capacity must force flushes");
        for i in 0..50 {
            assert!(l.get(format!("c{i}").as_bytes(), &c).is_some(), "c{i}");
        }
    }

    #[test]
    fn newest_table_wins() {
        let mut l = ldb(1 << 20);
        let c = Clock::new();
        l.put(b"k", Bytes::from_static(b"old"), &c);
        l.flush(&c);
        l.put(b"k", Bytes::from_static(b"new"), &c);
        l.flush(&c);
        assert_eq!(l.get(b"k", &c).unwrap().as_ref(), b"new");
    }

    #[test]
    fn deletes_persist_across_flush() {
        let mut l = ldb(1 << 20);
        let c = Clock::new();
        l.put(b"d", Bytes::from_static(b"v"), &c);
        l.flush(&c);
        l.delete(b"d", &c);
        l.flush(&c);
        assert!(l.get(b"d", &c).is_none());
    }

    #[test]
    fn merge_compaction_bounds_tables() {
        let mut l = ldb(1 << 20);
        let c = Clock::new();
        for round in 0..20 {
            for i in 0..20 {
                l.put(format!("m{i:02}").as_bytes(), Bytes::from(format!("r{round}")), &c);
            }
            l.flush(&c);
        }
        assert!(l.table_count() <= 9, "merge must bound tables, got {}", l.table_count());
        for i in 0..20 {
            assert_eq!(
                l.get(format!("m{i:02}").as_bytes(), &c).unwrap(),
                Bytes::from_static(b"r19")
            );
        }
    }

    #[test]
    fn merge_drops_deleted_keys() {
        let mut l = ldb(1 << 20);
        let c = Clock::new();
        for i in 0..30 {
            l.put(format!("x{i}").as_bytes(), Bytes::from_static(b"v"), &c);
            l.flush(&c);
        }
        l.delete(b"x0", &c);
        for _ in 0..10 {
            l.flush(&c);
            l.put(b"keepalive", Bytes::from_static(b"1"), &c);
            l.flush(&c);
        }
        assert!(l.get(b"x0", &c).is_none());
        assert!(l.get(b"x1", &c).is_some());
    }

    #[test]
    fn io_costs_charged() {
        let store = NvmStore::in_memory(DeviceModel::ssd_stampede());
        let mut l = MiniLdb::new(store, "r0", 1 << 20);
        let c = Clock::new();
        for i in 0..50 {
            l.put(format!("k{i}").as_bytes(), Bytes::from(vec![0u8; 1024]), &c);
        }
        l.flush(&c);
        let after_flush = c.now();
        assert!(after_flush > 0, "flush must cost time");
        l.get(b"k25", &c).unwrap();
        assert!(c.now() > after_flush, "table read must cost time");
    }
}
