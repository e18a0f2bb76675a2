//! Database options, flags, and modes (`papyruskv_option_t` and friends).

use crate::hashfn::HashFn;

/// Memory consistency mode (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consistency {
    /// `PAPYRUSKV_SEQUENTIAL`: every remote put/delete migrates to the owner
    /// immediately and synchronously; every such operation is a
    /// synchronisation point.
    Sequential,
    /// `PAPYRUSKV_RELAXED`: remote puts stage in the remote MemTable and
    /// migrate asynchronously; data visible to different ranks may differ
    /// except at fence/barrier synchronisation points.
    Relaxed,
}

/// Protection attribute (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// `PAPYRUSKV_RDWR`: reads and writes allowed; local cache enabled,
    /// remote cache disabled.
    ReadWrite,
    /// `PAPYRUSKV_WRONLY`: write-only phase; the local cache is invalidated
    /// and disabled so puts skip cache maintenance.
    WriteOnly,
    /// `PAPYRUSKV_RDONLY`: read-only phase; the remote cache is enabled and
    /// entries stay valid until the database becomes writable again.
    ReadOnly,
}

/// Flushing level for `papyruskv_barrier` (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierLevel {
    /// `PAPYRUSKV_MEMTABLE`: all remote data migrated; local MemTables may
    /// stay in memory.
    MemTable,
    /// `PAPYRUSKV_SSTABLE`: additionally flush every local MemTable (and the
    /// immutable queue) to SSTables on NVM.
    SsTable,
}

/// When merge compaction runs and how much it merges (§2.5). A merge takes
/// a *suffix* of the live list — the newest tables — into one table with a
/// fresh SSID, so SSID order stays age order; the rule answers how many of
/// the newest tables to take after a flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionTrigger {
    /// Size-tiered (the default, `fan_in` 4). A table's tier is its SSData
    /// size on a scale of `memtable_capacity × fan_in^k`, read off the table
    /// itself, so a reopened database tiers itself. When the newest table
    /// and the tables next to it that are no larger than its tier make
    /// `fan_in` they merge; if the output would complete the next tier,
    /// those older tables join the same pass. Bytes written per user byte
    /// grow with the logarithm of the database size, live tables stay below
    /// `fan_in` per tier, and an older table is never smaller than a newer
    /// one's tier. A `fan_in` below 2 is read as 2.
    ///
    /// The paper merges *all* live tables "whenever the SSID of a new
    /// SSTable is a multiple of the predefined number" (§2.5), which
    /// rewrites the whole database every `fan_in`th flush: 13 and 16 equal
    /// flushes write 47 and 66 tables' worth where this rule writes 25 and
    /// 44 (EXPERIMENTS.md, "size-tiered merges").
    Tiered {
        /// Tables of one tier that merge into one of the next.
        fan_in: usize,
    },
    /// Never merge: every flush adds a live table.
    Off,
}

impl Default for CompactionTrigger {
    fn default() -> Self {
        Self::Tiered { fan_in: 4 }
    }
}

/// Open flags for `papyruskv_open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// Create the database if it does not exist.
    pub create: bool,
    /// Fail if SSTables for this database already exist in the repository
    /// (otherwise an existing database is *composed* from the retained
    /// SSTables — the §4.1 zero-copy workflow).
    pub exclusive: bool,
}

impl OpenFlags {
    /// Create-if-missing (the common case).
    pub fn create() -> Self {
        Self { create: true, exclusive: false }
    }

    /// Create-and-must-be-new.
    pub fn create_new() -> Self {
        Self { create: true, exclusive: true }
    }
}

/// Database configuration (`papyruskv_option_t` plus the artifact's
/// environment knobs `PAPYRUSKV_*`).
#[derive(Clone)]
pub struct Options {
    /// MemTable capacity in bytes before it freezes and flushes
    /// (`PAPYRUSKV_MEMTABLE`-threshold; the paper's evaluation used 1 GB).
    pub memtable_capacity: u64,
    /// Remote MemTable capacity in bytes before it migrates.
    pub remote_memtable_capacity: u64,
    /// Flushing/migration queue depth (fixed-size FIFO, §2.4).
    pub flush_queue_len: usize,
    /// Enable the local cache (key-value pairs fetched from SSTables).
    pub local_cache: bool,
    /// Local cache capacity in bytes.
    pub local_cache_capacity: u64,
    /// Remote cache capacity in bytes (the cache is live only under
    /// `Protection::ReadOnly`, §3.2).
    pub remote_cache_capacity: u64,
    /// Initial consistency mode (`PAPYRUSKV_CONSISTENCY`).
    pub consistency: Consistency,
    /// Initial protection attribute.
    pub protection: Protection,
    /// Use SSTable binary search (`PAPYRUSKV_BIN_SEARCH`; Figure 8's "B").
    pub bin_search: bool,
    /// Consult per-SSTable bloom filters before probing SSData (§2.4).
    /// Disabling is an ablation knob: every get then probes every table.
    pub bloom_filter: bool,
    /// The merge-compaction rule, consulted after every flush.
    pub compaction_trigger: CompactionTrigger,
    /// Application-supplied hash for key → owner-rank distribution (§2.4
    /// load balancing; §5.2 Meraculous affinity). `None` = built-in hash.
    pub custom_hash: Option<HashFn>,
    /// Total copies of each key on the ring: the owner plus `replicas - 1`
    /// successor ranks (DESIGN §11). `1` (the default) is the paper's
    /// behaviour — no replica traffic, bit-identical to builds before the
    /// replication subsystem existed. Clamped to the job size at open.
    pub replicas: usize,
}

impl std::fmt::Debug for Options {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Options")
            .field("memtable_capacity", &self.memtable_capacity)
            .field("remote_memtable_capacity", &self.remote_memtable_capacity)
            .field("flush_queue_len", &self.flush_queue_len)
            .field("local_cache", &self.local_cache)
            .field("local_cache_capacity", &self.local_cache_capacity)
            .field("remote_cache_capacity", &self.remote_cache_capacity)
            .field("consistency", &self.consistency)
            .field("protection", &self.protection)
            .field("bin_search", &self.bin_search)
            .field("bloom_filter", &self.bloom_filter)
            .field("compaction_trigger", &self.compaction_trigger)
            .field("custom_hash", &self.custom_hash.is_some())
            .field("replicas", &self.replicas)
            .finish()
    }
}

impl Default for Options {
    fn default() -> Self {
        Self {
            memtable_capacity: 64 << 20,
            remote_memtable_capacity: 64 << 20,
            flush_queue_len: 4,
            local_cache: true,
            local_cache_capacity: 16 << 20,
            remote_cache_capacity: 16 << 20,
            consistency: Consistency::Relaxed,
            protection: Protection::ReadWrite,
            bin_search: true,
            bloom_filter: true,
            compaction_trigger: CompactionTrigger::default(),
            custom_hash: None,
            replicas: 1,
        }
    }
}

impl Options {
    /// Options sized for unit tests: small MemTables so flush/migration
    /// paths trigger quickly.
    pub fn small() -> Self {
        Self {
            memtable_capacity: 4 << 10,
            remote_memtable_capacity: 4 << 10,
            local_cache_capacity: 4 << 10,
            remote_cache_capacity: 4 << 10,
            ..Self::default()
        }
    }

    /// Builder-style: set consistency.
    pub fn with_consistency(mut self, c: Consistency) -> Self {
        self.consistency = c;
        self
    }

    /// Builder-style: set MemTable capacities.
    pub fn with_memtable_capacity(mut self, bytes: u64) -> Self {
        self.memtable_capacity = bytes;
        self.remote_memtable_capacity = bytes;
        self
    }

    /// Builder-style: set the custom hash.
    pub fn with_custom_hash(mut self, hash: HashFn) -> Self {
        self.custom_hash = Some(hash);
        self
    }

    /// Builder-style: toggle SSTable binary search.
    pub fn with_bin_search(mut self, on: bool) -> Self {
        self.bin_search = on;
        self
    }

    /// Builder-style: toggle the per-SSTable bloom filters (ablation).
    pub fn with_bloom_filter(mut self, on: bool) -> Self {
        self.bloom_filter = on;
        self
    }

    /// Builder-style: set the merge-compaction rule.
    pub fn with_compaction_trigger(mut self, trigger: CompactionTrigger) -> Self {
        self.compaction_trigger = trigger;
        self
    }

    /// Builder-style: set the replication factor (total copies per key).
    pub fn with_replicas(mut self, r: usize) -> Self {
        self.replicas = r;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn defaults_match_paper_defaults() {
        let o = Options::default();
        assert_eq!(o.consistency, Consistency::Relaxed);
        assert_eq!(o.protection, Protection::ReadWrite);
        assert!(o.bin_search);
        assert!(o.bloom_filter);
        assert!(o.local_cache);
        assert!(o.custom_hash.is_none());
        assert_eq!(o.flush_queue_len, 4);
        assert_eq!(o.replicas, 1);
        // The one departure: merges are size-tiered, not of everything.
        assert_eq!(o.compaction_trigger, CompactionTrigger::Tiered { fan_in: 4 });
    }

    #[test]
    fn builders_compose() {
        let o = Options::default()
            .with_consistency(Consistency::Sequential)
            .with_memtable_capacity(1 << 30)
            .with_bin_search(false)
            .with_replicas(2)
            .with_custom_hash(Arc::new(|_k: &[u8]| 0));
        assert_eq!(o.consistency, Consistency::Sequential);
        assert_eq!(o.memtable_capacity, 1 << 30);
        assert_eq!(o.remote_memtable_capacity, 1 << 30);
        assert!(!o.bin_search);
        assert!(o.custom_hash.is_some());
        assert_eq!(o.replicas, 2);
    }

    #[test]
    fn open_flags_constructors() {
        assert!(OpenFlags::create().create);
        assert!(!OpenFlags::create().exclusive);
        assert!(OpenFlags::create_new().exclusive);
        assert_eq!(OpenFlags::default(), OpenFlags { create: false, exclusive: false });
    }

    #[test]
    fn debug_impl_does_not_leak_hash_fn() {
        let o = Options::default().with_custom_hash(Arc::new(|_k: &[u8]| 1));
        let s = format!("{o:?}");
        assert!(s.contains("custom_hash: true"));
        for field in [
            "bloom_filter",
            "remote_memtable_capacity",
            "local_cache_capacity",
            "remote_cache_capacity",
        ] {
            assert!(s.contains(field), "Debug omits `{field}`: {s}");
        }
    }
}
