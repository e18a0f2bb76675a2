//! The database object: its state and locks, open/compose, and the public
//! handle (paper §2-§3). The protocol bodies live beside it, split by
//! concern: `write.rs` (put, freeze, flush, compaction, migration),
//! `read.rs` (local and remote get), `replica.rs` (DESIGN §11) and
//! `sync.rs` (fence, barrier, close).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use papyrus_simtime::{Clock, MemModel, OpStats, SimNs};
use parking_lot::{Condvar, Mutex};

use crate::ckpt;
use crate::error::{Error, Result};
use crate::hashfn::Distributor;
use crate::lru::LruCache;
use crate::msg::RpcSeq;
use crate::options::{BarrierLevel, Consistency, OpenFlags, Options, Protection};
use crate::runtime::{CtxInner, Event, Shipment};
use crate::sstable::{self, Ssid, SstReader};
use crate::stack::Stack;
use crate::sync;
use crate::tel::CoreTel;

/// Mutable database attributes (changed by the collective
/// `papyruskv_consistency` / `papyruskv_protect`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DbState {
    pub consistency: Consistency,
    pub protection: Protection,
}

/// Condvar-guarded synchronisation state.
pub(crate) struct DbSync {
    /// Frozen local MemTables queued or being flushed.
    pub pending_flushes: usize,
    /// Frozen staging MemTables queued or being migrated.
    pub migration_inflight: usize,
    /// Barrier-mark bookkeeping: epoch -> (marks received, max stamp).
    pub barrier_marks: HashMap<u64, (usize, SimNs)>,
}

/// Internal database representation shared by a rank's application task
/// and its runtime tasks (handler, dispatcher, compaction), one running at a
/// time. Its locks and their order: DESIGN §2. The local cache has no lock:
/// it is part of the primary stack (`Stack::cache`), so a local get takes
/// one lock, `stack`, from its MemTable probe to its cache fill.
pub struct DbInner {
    pub(crate) id: u32,
    pub(crate) name: String,
    pub(crate) opt: Options,
    /// Effective replication factor: `opt.replicas` clamped to the job
    /// size. `1` means replication is off and every replica code path is
    /// skipped (bit-compatible with pre-replication builds).
    pub(crate) repl_n: usize,
    /// DRAM cost model of the platform this database runs on.
    pub(crate) mem: MemModel,
    pub(crate) state: Mutex<DbState>,
    pub(crate) dist: Distributor,

    /// This rank's own keys. One lock covers MemTable, frozen MemTables,
    /// the local cache, SSTables and the SSID allocator, so a get never sees
    /// a gap between a retired MemTable and its SSTable and the cache never
    /// outlives the value it copied.
    pub(crate) stack: Mutex<Stack>,
    /// Puts bound for other owners, awaiting migration.
    pub(crate) staging: Mutex<Stack>,
    /// Per-origin replica stacks (R >= 2 only; empty otherwise). Fed by
    /// the message handler, read by failover gets and re-replication. Kept
    /// apart from the primary stack so compaction, the manifest and
    /// checkpoint never mix primary and replica data; not manifested — a
    /// successor that lost them re-receives via re-replication, so crash
    /// debris is harmless and reopen composes primaries only.
    pub(crate) repl: Mutex<HashMap<u32, Stack>>,

    pub(crate) remote_cache: Mutex<LruCache>,

    pub(crate) sync: Mutex<DbSync>,
    pub(crate) sync_cv: Condvar,
    /// Set by close; all subsequent operations fail with `InvalidDb`. Read
    /// by every operation, so it is not behind `sync`'s lock.
    pub(crate) closed: AtomicBool,

    /// Completion stamps of background work, reconciled at fences/barriers.
    pub(crate) flush_backlog: Clock,
    pub(crate) migrate_backlog: Clock,
    pub(crate) ingest_backlog: Clock,

    pub(crate) barrier_epoch: AtomicU64,

    /// Cached readers for *other* ranks' SSTables in the shared storage
    /// (storage-group fast path, §2.7). Keyed by (owner rank, SSID).
    pub(crate) peer_readers: Mutex<HashMap<(usize, Ssid), SstReader>>,

    /// Operation statistics.
    pub(crate) put_stats: OpStats,
    pub(crate) get_stats: OpStats,

    /// Typed errors with no caller to return to: raised by the runtime's
    /// tasks (migration to a dead owner, `ENOSPC` during flush/compaction)
    /// and by recovery ([`Error::DataLoss`]: open and restart stay tolerant
    /// and say here what they could not bring back). Drained by
    /// [`Db::take_io_errors`]; under the fault plane the chaos oracle uses
    /// this to check every failure is typed.
    pub(crate) io_errors: Mutex<Vec<Error>>,
    /// Armed world: the batches the dispatcher sent whose acks the next
    /// fence collects, by sequence number.
    pub(crate) unacked: Mutex<BTreeMap<RpcSeq, Shipment>>,

    /// Telemetry handles (interned per rank; near-zero cost when disabled).
    pub(crate) tel: CoreTel,
}

impl DbInner {
    /// A database in a job of `n_ranks` recording into `tel`, over `stack`,
    /// which takes the local cache the options call for.
    pub(crate) fn new(
        id: u32,
        name: &str,
        tel: CoreTel,
        n_ranks: usize,
        mem: MemModel,
        opt: Options,
        mut stack: Stack,
    ) -> DbInner {
        stack.cache = local_cache(&opt, opt.protection);
        DbInner {
            id,
            name: name.to_string(),
            repl_n: papyrus_replica::effective_factor(opt.replicas, n_ranks),
            mem,
            state: Mutex::new(DbState { consistency: opt.consistency, protection: opt.protection }),
            dist: Distributor::new(opt.custom_hash.clone(), n_ranks),
            stack: Mutex::new(stack),
            staging: Mutex::new(Stack::new(1, Vec::new())),
            repl: Mutex::new(HashMap::new()),
            remote_cache: Mutex::new(LruCache::new(opt.remote_cache_capacity)),
            sync: Mutex::new(DbSync {
                pending_flushes: 0,
                migration_inflight: 0,
                barrier_marks: HashMap::new(),
            }),
            sync_cv: Condvar::new(),
            closed: AtomicBool::new(false),
            flush_backlog: Clock::new(),
            migrate_backlog: Clock::new(),
            ingest_backlog: Clock::new(),
            barrier_epoch: AtomicU64::new(0),
            peer_readers: Mutex::new(HashMap::new()),
            put_stats: OpStats::new(),
            get_stats: OpStats::new(),
            io_errors: Mutex::new(Vec::new()),
            unacked: Mutex::new(BTreeMap::new()),
            tel,
            opt,
        }
    }

    /// Open or create (compose) the database. See [`Context::open`].
    pub(crate) fn open(
        ctx: &Arc<CtxInner>,
        id: u32,
        name: &str,
        flags: OpenFlags,
        opt: Options,
    ) -> Result<Arc<DbInner>> {
        let clock = ctx.clock();
        let store = ctx.repo_store();
        let me = ctx.rank.rank();
        store.open(clock); // repository metadata touch

        let manifest = ckpt::read_manifest(&store, &ctx.repo.prefix, name, me);
        if flags.exclusive && manifest != ckpt::ManifestRead::Absent {
            return Err(Error::InvalidArgument("database already exists"));
        }
        // `lost`: what opened is not what the manifest on NVM says. The open
        // still succeeds — a rank erroring out of this collective would
        // strand its peers — and the database carries the finding.
        let mut lost = None;
        let (next_ssid, readers) = match manifest {
            ckpt::ManifestRead::Present(next, ssids) => {
                // Zero-copy compose (§4.1): empty MemTables + retained
                // SSTables; only manifest/index/bloom metadata is read.
                let (readers, unreadable) = Self::open_tables(ctx, name, ssids);
                if !unreadable.is_empty() {
                    // A committed manifest references tables that are gone:
                    // acknowledged data was lost. Compose without them.
                    lost = Some(ckpt::data_loss(format!(
                        "db {name} rank {me}: manifest-listed SSTables {unreadable:?} \
                         missing or unreadable — composing without them"
                    )));
                }
                (next, readers)
            }
            ckpt::ManifestRead::Corrupt(why) => {
                // Torn or corrupt manifest: report, then salvage every
                // complete, readable SSTable triple left in this rank's
                // repository directory instead of masking the damage as a
                // fresh database. Incomplete triples (crash debris) are
                // skipped.
                lost = Some(ckpt::data_loss(format!(
                    "db {name} rank {me}: {why} — salvaging from SSTable files"
                )));
                let dir = format!("{}/{}/r{}/", ctx.repo.prefix, name, me);
                let found = store.list(&dir).into_iter().filter_map(|obj| {
                    let file = obj.strip_prefix(&dir)?.strip_prefix("sst")?;
                    file.strip_suffix(".data")?.parse::<Ssid>().ok()
                });
                let (readers, _) = Self::open_tables(ctx, name, found);
                (readers.last().map_or(1, |r| r.ssid() + 1), readers)
            }
            ckpt::ManifestRead::Absent => {
                if !flags.create {
                    return Err(Error::NotFound);
                }
                // Orphan SSTable triples without any manifest are possible
                // crash debris (a flush cut down before its first manifest
                // commit) — tolerated: new SSIDs start at 1 and overwrite
                // whole triples, so debris can never become visible.
                (1, Vec::new())
            }
        };
        let stack = Stack::new(next_ssid, readers);
        if lost.is_some() {
            let done =
                ckpt::commit_manifest(ctx, name, next_ssid, &stack.live_ssids(), clock.now());
            clock.merge(done);
        }
        let (n_ranks, mem) = (ctx.rank.size(), ctx.platform.profile.mem.clone());
        let tel = CoreTel::new(ctx.rank.fabric().telemetry(), me);
        let db = DbInner::new(id, name, tel, n_ranks, mem, opt, stack);
        db.io_errors.lock().extend(lost);
        Ok(Arc::new(db))
    }

    /// Open this rank's SSTables `ssids` of database `name`: the readers in
    /// ascending SSID order, and the SSIDs that would not open.
    fn open_tables(
        ctx: &CtxInner,
        name: &str,
        ssids: impl IntoIterator<Item = Ssid>,
    ) -> (Vec<SstReader>, Vec<Ssid>) {
        let (store, clock) = (ctx.repo_store(), ctx.clock());
        let (mut readers, mut unreadable) = (Vec::new(), Vec::new());
        for ssid in ssids {
            let base = sstable::sst_base(&ctx.repo.prefix, name, ctx.rank.rank(), ssid);
            match SstReader::open_at(&store, &base, ssid, clock.now()) {
                Some((r, done)) => {
                    clock.merge(done);
                    readers.push(r);
                }
                None => unreadable.push(ssid),
            }
        }
        readers.sort_by_key(SstReader::ssid);
        (readers, unreadable)
    }

    pub(crate) fn check_open(&self) -> Result<()> {
        // ordering: pairs with close's Release store — an operation that is
        // refused has seen everything the close did before it.
        if self.closed.load(Ordering::Acquire) {
            Err(Error::InvalidDb)
        } else {
            Ok(())
        }
    }

    /// Let go of what the database holds in memory: every stack — its
    /// MemTables, local cache and SSTable readers, with their fence images,
    /// filters and, for tables this rank wrote, SSData — the remote cache
    /// and the peer readers. For a database that is closing: what it
    /// flushed stays on NVM for a reopen (§4.1), and the primary stack keeps
    /// its SSID allocator for a checkpoint transfer still to commit.
    pub(crate) fn release(&self) {
        let mut stack = self.stack.lock();
        *stack = Stack::new(stack.next_ssid, Vec::new());
        drop(stack);
        *self.staging.lock() = Stack::new(1, Vec::new());
        *self.repl.lock() = HashMap::new();
        *self.remote_cache.lock() = LruCache::new(self.opt.remote_cache_capacity);
        *self.peer_readers.lock() = HashMap::new();
    }

    /// The remote cache, if in use: the database is read-only (§3.2).
    pub(crate) fn live_remote_cache(&self, protection: Protection) -> Option<&Mutex<LruCache>> {
        (protection == Protection::ReadOnly).then_some(&self.remote_cache)
    }
}

/// A fresh local cache for the primary stack under `protection`, if one is
/// in use: configured on, and the database not write-only (§3.2).
fn local_cache(opt: &Options, protection: Protection) -> Option<LruCache> {
    let on = opt.local_cache && protection != Protection::WriteOnly;
    on.then(|| LruCache::new(opt.local_cache_capacity))
}

/// A PapyrusKV database handle (`papyruskv_db_t`).
///
/// Obtained from [`crate::Context::open`]; cheap to clone. Operations map 1:1 to
/// the paper's Table 1 API. `put`/`get`/`delete`/`fence` are per-rank;
/// `barrier`, `set_consistency`, `protect`, `checkpoint`, `close`, and
/// `destroy` are collective.
#[derive(Clone)]
pub struct Db {
    pub(crate) ctx: Arc<CtxInner>,
    pub(crate) inner: Arc<DbInner>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("name", &self.inner.name)
            .field("rank", &self.ctx.rank.rank())
            .field("sstables", &self.sstable_count())
            .finish()
    }
}

impl Db {
    pub(crate) fn new(ctx: Arc<CtxInner>, inner: Arc<DbInner>) -> Self {
        Self { ctx, inner }
    }

    /// Database name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Owner rank of a key under this database's hash.
    pub fn owner_of(&self, key: &[u8]) -> usize {
        self.inner.dist.owner(key)
    }

    /// `papyruskv_fence`: drain this rank's remote MemTables to the owners.
    pub fn fence(&self) -> Result<()> {
        self.inner.check_open()?;
        sync::fence_inner(&self.ctx, &self.inner)
    }

    /// `papyruskv_barrier`: collective memory fence with a flushing level.
    pub fn barrier(&self, level: BarrierLevel) -> Result<()> {
        self.inner.check_open()?;
        sync::barrier_inner(&self.ctx, &self.inner, level)
    }

    /// `papyruskv_consistency`: collectively switch consistency mode (§3.1).
    pub fn set_consistency(&self, mode: Consistency) -> Result<()> {
        self.inner.check_open()?;
        sync::barrier_inner(&self.ctx, &self.inner, BarrierLevel::MemTable)?;
        self.inner.state.lock().consistency = mode;
        Ok(())
    }

    /// Current consistency mode.
    pub fn consistency(&self) -> Consistency {
        self.inner.state.lock().consistency
    }

    /// `papyruskv_protect`: collectively switch the protection attribute
    /// (§3.2). Entering `WriteOnly` drops the local cache, leaving it starts
    /// an empty one; leaving `ReadOnly` evicts and disables the remote cache.
    pub fn protect(&self, prot: Protection) -> Result<()> {
        self.inner.check_open()?;
        sync::barrier_inner(&self.ctx, &self.inner, BarrierLevel::MemTable)?;
        let prev = {
            let mut st = self.inner.state.lock();
            let prev = st.protection;
            st.protection = prot;
            if prev == Protection::WriteOnly && prot != Protection::WriteOnly {
                self.inner.stack.lock().cache = local_cache(&self.inner.opt, prot);
            }
            prev
        };
        if prot == Protection::WriteOnly {
            self.inner.stack.lock().cache = None;
        }
        if prev == Protection::ReadOnly && prot != Protection::ReadOnly {
            self.inner.remote_cache.lock().clear();
        }
        Ok(())
    }

    /// Current protection attribute.
    pub fn protection(&self) -> Protection {
        self.inner.state.lock().protection
    }

    /// `papyruskv_close`: collective close; all data is flushed to SSTables
    /// which remain in the repository for zero-copy reopen (§4.1).
    pub fn close(&self) -> Result<()> {
        sync::close_inner(&self.ctx, &self.inner)
    }

    /// `papyruskv_destroy`: collectively remove the database and all its
    /// data from NVM.
    pub fn destroy(&self) -> Result<Event> {
        self.inner.check_open()?;
        sync::close_inner(&self.ctx, &self.inner)?;
        let clock = self.ctx.clock();
        let store = self.ctx.repo_store();
        let me = self.ctx.rank.rank();
        let prefix = format!("{}/{}/r{}/", self.ctx.repo.prefix, self.inner.name, me);
        let mut t = clock.now();
        for obj in store.list(&prefix) {
            let (_, done) = store.delete_at(&obj, t);
            t = done;
        }
        self.ctx.comm_ctl.barrier();
        Ok(Event::completed(clock.clone(), t))
    }

    /// Put-side statistics (ops, bytes).
    pub fn put_stats(&self) -> &OpStats {
        &self.inner.put_stats
    }

    /// Get-side statistics (ops, bytes, cache hits/misses).
    pub fn get_stats(&self) -> &OpStats {
        &self.inner.get_stats
    }

    /// Drain the typed errors that had no caller to return to: raised by
    /// the runtime's tasks (migration to a confirmed-dead owner, `ENOSPC`
    /// during flush or compaction) or by the recovery that produced this
    /// handle ([`Error::DataLoss`] — check after `open`/`restart` of a
    /// database that should have survived). Empty in a healthy run; under
    /// the fault plane applications poll this after fences/barriers to
    /// learn about degraded-mode data.
    pub fn take_io_errors(&self) -> Vec<Error> {
        std::mem::take(&mut *self.inner.io_errors.lock())
    }

    /// Number of live SSTables on this rank (diagnostics).
    pub fn sstable_count(&self) -> usize {
        self.inner.stack.lock().ssts.len()
    }

    /// Bytes currently staged in the local MemTable (diagnostics).
    pub fn memtable_bytes(&self) -> u64 {
        self.inner.stack.lock().mem.bytes()
    }

    /// Whether `key` is still staged on this rank awaiting migration —
    /// in the mutable remote MemTable or a frozen immutable one
    /// (diagnostics). The serve plane's durability oracle asserts this is
    /// `false` at write-ack time: a fenced record has left the staging
    /// area and been ingested by its owner (the FIFO-channel argument
    /// behind `BARRIER_MARK` then extends ingestion to durability).
    pub fn staged_remote_contains(&self, key: &[u8]) -> bool {
        self.inner.staging.lock().mem_tables().any(|mt| mt.get(key).is_some())
    }
}
