//! One LSM stack: a MemTable, the frozen MemTables queued behind it, and
//! the SSTables they flush into (paper §2.4-§2.6), searched newest first.
//!
//! A database holds the same shape three times (DESIGN §2): the primary
//! stack of this rank's own keys (`DbInner::stack`), one replica stack per
//! origin rank it backs up (`DbInner::repl`, DESIGN §11), and the staging
//! stack of puts bound for other owners (`DbInner::staging`), whose frozen
//! tables drain to their owners instead of to NVM, so it never grows
//! SSTables. A stack has no lock of its own: whoever holds its owner's lock
//! sees MemTables, SSTables and the SSID allocator move together.

use std::sync::Arc;

use crate::memtable::MemTable;
use crate::msg::Batch;
use crate::sstable::{merge, Cursor, Record, Ssid, SstReader};

pub(crate) struct Stack {
    pub(crate) mem: MemTable,
    /// Frozen MemTables awaiting flush or migration, oldest first.
    pub(crate) imm: Vec<Arc<MemTable>>,
    /// Live SSTables, ascending SSID.
    pub(crate) ssts: Vec<SstReader>,
    /// The next SSID to hand out: above every table in `ssts`.
    pub(crate) next_ssid: Ssid,
}

impl Stack {
    /// Empty MemTables over `ssts` (ascending SSID, all below `next_ssid`).
    pub(crate) fn new(next_ssid: Ssid, ssts: Vec<SstReader>) -> Self {
        Self { mem: MemTable::new(), imm: Vec::new(), ssts, next_ssid }
    }

    /// The MemTable, then the frozen ones newest first: the order a search
    /// takes them in (`DbInner::get_mem`, which spells the walk out — on the
    /// get path this chain measured ~15 ns slower than the loop).
    pub(crate) fn mem_tables(&self) -> impl Iterator<Item = &MemTable> {
        std::iter::once(&self.mem).chain(self.imm.iter().rev().map(Arc::as_ref))
    }

    /// Every record the stack holds, copied out as one batch, in key order,
    /// newest writer wins ([`merge`]): the MemTables in search order shadow
    /// the SSTables, newest first; tombstones are records. Tables are read
    /// uncharged (an unreadable one is skipped): for observers — the auditor,
    /// re-replication — never for the get path.
    pub(crate) fn records(&self) -> Batch {
        type Level<'a> = Box<dyn Iterator<Item = Record<'a>> + 'a>;
        let images: Vec<_> = self.ssts.iter().rev().filter_map(SstReader::records_image).collect();
        let mems = self.mem_tables().map(|mt| Box::new(mt.iter().map(Record::from)) as Level);
        let ssts = images.iter().map(|image| Box::new(Cursor::new(image)) as Level);
        merge(mems.chain(ssts)).collect()
    }

    /// Freeze the MemTable onto the frozen queue (§2.4); `None` if it is
    /// empty. The table stays searchable until [`Stack::retire`] (flush) or
    /// [`Stack::drop_frozen`] (migration) takes it off.
    pub(crate) fn freeze(&mut self) -> Option<Arc<MemTable>> {
        if self.mem.is_empty() {
            return None;
        }
        let frozen = Arc::new(self.mem.freeze());
        self.imm.push(frozen.clone());
        Some(frozen)
    }

    pub(crate) fn alloc_ssid(&mut self) -> Ssid {
        let ssid = self.next_ssid;
        self.next_ssid += 1;
        ssid
    }

    /// A flush finished: `table` now holds what the frozen `mt` held.
    pub(crate) fn retire(&mut self, mt: &Arc<MemTable>, table: SstReader) {
        self.ssts.push(table);
        self.drop_frozen(mt);
    }

    /// A merge finished: `merged`, under a fresh SSID, now holds what the
    /// newest `take` tables held. They are a suffix of the list, so it stays
    /// in ascending SSID order and newest-first-wins needs no re-sorting.
    pub(crate) fn replace_newest(&mut self, take: usize, merged: SstReader) {
        self.ssts.truncate(self.ssts.len() - take);
        self.ssts.push(merged);
    }

    pub(crate) fn drop_frozen(&mut self, mt: &Arc<MemTable>) {
        self.imm.retain(|m| !Arc::ptr_eq(m, mt));
    }

    /// Live SSIDs, ascending.
    pub(crate) fn live_ssids(&self) -> Vec<Ssid> {
        self.ssts.iter().map(SstReader::ssid).collect()
    }
}
