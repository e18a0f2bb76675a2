//! The database object: put/get/delete, consistency control, storage
//! groups, fence/barrier, protection attributes (paper §2-§3).
//!
//! Set `PKV_TRACE=1` in the environment to stream a per-event protocol
//! trace (puts, migrations, handler ingests, fences, barrier marks, remote
//! get decisions) to stderr — invaluable when debugging consistency
//! interleavings across ranks.

use std::collections::HashMap;
use std::sync::Arc;

// Protocol atomics go through the sanity facade, which swaps in the model
// checker's shimmed types under `--cfg modelcheck` so `cargo xtask
// modelcheck` can explore SSID/barrier-epoch interleavings.
use papyrus_sanity::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::Bytes;
use papyrus_faultinject as fi;
use papyrus_simtime::{Clock, OpStats, SimNs};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::ckpt;
use crate::error::{Error, Result};
use crate::hashfn::Distributor;
use crate::lru::{CacheEntry, LruCache};
use crate::memtable::{Entry, MemTable};
use crate::msg::{self, tags, GetResp, KvRecord};
use crate::options::{BarrierLevel, Consistency, OpenFlags, Options, Protection};
use crate::runtime::{CompactJob, Context, CtxInner, Event, MigrateJob};
use crate::sstable::{self, Ssid, SstGet, SstReader};
use crate::tel::CoreTel;
use papyrus_telemetry::{TID_APP, TID_COMPACT, TID_DISPATCH, TID_HANDLER};

/// Whether `PKV_TRACE` is set, read from the environment once per process.
fn trace_on() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("PKV_TRACE").is_some())
}

macro_rules! pkv_trace {
    ($($arg:tt)*) => {
        if trace_on() {
            eprintln!($($arg)*);
        }
    };
}

/// Mutable database attributes (changed by the collective
/// `papyruskv_consistency` / `papyruskv_protect`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DbState {
    pub consistency: Consistency,
    pub protection: Protection,
}

/// Condvar-guarded synchronisation state.
pub(crate) struct DbSync {
    /// Immutable local MemTables queued or being flushed.
    pub pending_flushes: usize,
    /// Immutable remote MemTables queued or being migrated.
    pub migration_inflight: usize,
    /// Barrier-mark bookkeeping: epoch -> (marks received, max stamp).
    pub barrier_marks: HashMap<u64, (usize, SimNs)>,
    /// Set by close; all subsequent operations fail with `InvalidDb`.
    pub closed: bool,
}

/// Replica data held on behalf of one origin rank (DESIGN §11): a
/// MemTable fed by `REPL_PUT` batches plus the replica SSTables it flushes
/// into. Kept per origin and entirely separate from the primary stack so
/// compaction, the manifest, `audit_db`, and checkpoint never mix primary
/// and replica data. Replica tables are deliberately *not* manifested:
/// they are re-derivable from the ring (a successor that lost them
/// re-receives via re-replication), so crash debris is harmless and
/// reopen composes primaries only.
pub(crate) struct ReplicaStack {
    pub(crate) mem: MemTable,
    /// Replica SSTables, ascending SSID.
    pub(crate) ssts: Vec<SstReader>,
    pub(crate) next_ssid: Ssid,
}

impl ReplicaStack {
    pub(crate) fn new() -> Self {
        Self { mem: MemTable::new(), ssts: Vec::new(), next_ssid: 1 }
    }
}

/// Internal database representation shared by the application thread and
/// the runtime's helper threads.
pub struct DbInner {
    pub(crate) id: u32,
    pub(crate) name: String,
    pub(crate) opt: Options,
    /// Effective replication factor: `opt.replicas` clamped to the job
    /// size. `1` means replication is off and every replica code path is
    /// skipped (bit-compatible with pre-replication builds).
    pub(crate) repl_n: usize,
    pub(crate) state: RwLock<DbState>,
    pub(crate) dist: Distributor,

    pub(crate) local: RwLock<MemTable>,
    pub(crate) imm_local: RwLock<Vec<Arc<MemTable>>>,
    pub(crate) remote: Mutex<MemTable>,
    pub(crate) imm_remote: RwLock<Vec<Arc<MemTable>>>,

    pub(crate) local_cache: Mutex<LruCache>,
    pub(crate) remote_cache: Mutex<LruCache>,

    /// Live SSTables, ascending SSID.
    pub(crate) ssts: RwLock<Vec<SstReader>>,
    pub(crate) next_ssid: AtomicU64,

    /// Per-origin replica stacks (R >= 2 only; empty otherwise). Fed by
    /// the handler thread, read by failover gets and re-replication.
    pub(crate) repl: Mutex<HashMap<u32, ReplicaStack>>,

    pub(crate) sync: Mutex<DbSync>,
    pub(crate) sync_cv: Condvar,

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

    /// Typed errors raised by background threads (migration to a dead
    /// owner, `ENOSPC` during flush/compaction) that have no caller to
    /// return to. Drained by [`Db::take_io_errors`]; under the fault plane
    /// the chaos oracle uses this to check every failure is typed.
    pub(crate) io_errors: Mutex<Vec<Error>>,

    /// Telemetry handles (interned per rank; near-zero cost when disabled).
    pub(crate) tel: CoreTel,
}

/// Search result inside one storage level.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Lookup {
    Found(Bytes),
    Tombstone,
    Miss,
}

impl From<&Entry> for Lookup {
    fn from(e: &Entry) -> Self {
        if e.tombstone {
            Lookup::Tombstone
        } else {
            Lookup::Found(e.value.clone())
        }
    }
}

impl DbInner {
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
        let (next_ssid, readers) = match manifest {
            ckpt::ManifestRead::Present(next, ssids) => {
                if flags.exclusive {
                    return Err(Error::InvalidArgument("database already exists"));
                }
                // Zero-copy compose (§4.1): empty MemTables + retained
                // SSTables; only manifest/index/bloom metadata is read.
                let mut readers = Vec::with_capacity(ssids.len());
                let mut unreadable: Vec<Ssid> = Vec::new();
                for ssid in ssids {
                    let base = sstable::sst_base(&ctx.repo.prefix, name, me, ssid);
                    if let Some((r, done)) = SstReader::open_at(&store, &base, ssid, clock.now()) {
                        clock.merge(done);
                        readers.push(r);
                    } else {
                        unreadable.push(ssid);
                    }
                }
                readers.sort_by_key(SstReader::ssid);
                if !unreadable.is_empty() {
                    // A committed manifest references tables that are gone:
                    // acknowledged data was lost. Compose without them and
                    // repair the manifest so it matches what actually opened.
                    ckpt::report_recovery_anomaly(
                        papyrus_sanity::ViolationKind::SstUnreadable,
                        format!(
                            "db {name} rank {me}: manifest-listed SSTables {unreadable:?} \
                             missing or unreadable — composing without them"
                        ),
                    );
                    let live: Vec<Ssid> = readers.iter().map(SstReader::ssid).collect();
                    let done = ckpt::write_manifest_at(
                        &store,
                        &ctx.repo.prefix,
                        name,
                        me,
                        next,
                        &live,
                        clock.now(),
                    );
                    clock.merge(done);
                }
                (next, readers)
            }
            ckpt::ManifestRead::Corrupt(why) => {
                if flags.exclusive {
                    return Err(Error::InvalidArgument("database already exists"));
                }
                // Torn or corrupt manifest: report, then salvage every
                // complete SSTable triple left in the repository instead of
                // masking the damage as a fresh database.
                ckpt::report_recovery_anomaly(
                    papyrus_sanity::ViolationKind::ManifestCorrupt,
                    format!("db {name} rank {me}: {why} — salvaging from SSTable files"),
                );
                let (next, readers) = Self::salvage_ssts(ctx, name, me, &store, clock);
                let live: Vec<Ssid> = readers.iter().map(SstReader::ssid).collect();
                let done = ckpt::write_manifest_at(
                    &store,
                    &ctx.repo.prefix,
                    name,
                    me,
                    next,
                    &live,
                    clock.now(),
                );
                clock.merge(done);
                (next, readers)
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

        let dist = Distributor::new(opt.custom_hash.clone(), ctx.rank.size());
        let repl_n = papyrus_replica::effective_factor(opt.replicas, ctx.rank.size());
        let db = Arc::new(DbInner {
            id,
            name: name.to_string(),
            repl_n,
            state: RwLock::new(DbState {
                consistency: opt.consistency,
                protection: opt.protection,
            }),
            dist,
            local: RwLock::new(MemTable::new()),
            imm_local: RwLock::new(Vec::new()),
            remote: Mutex::new(MemTable::new()),
            imm_remote: RwLock::new(Vec::new()),
            local_cache: Mutex::new(LruCache::new(opt.local_cache_capacity)),
            remote_cache: Mutex::new(LruCache::new(opt.remote_cache_capacity)),
            ssts: RwLock::new(readers),
            next_ssid: AtomicU64::new(next_ssid),
            repl: Mutex::new(HashMap::new()),
            sync: Mutex::new(DbSync {
                pending_flushes: 0,
                migration_inflight: 0,
                barrier_marks: HashMap::new(),
                closed: false,
            }),
            sync_cv: Condvar::new(),
            flush_backlog: Clock::new(),
            migrate_backlog: Clock::new(),
            ingest_backlog: Clock::new(),
            barrier_epoch: AtomicU64::new(0),
            peer_readers: Mutex::new(HashMap::new()),
            put_stats: OpStats::new(),
            get_stats: OpStats::new(),
            io_errors: Mutex::new(Vec::new()),
            tel: CoreTel::new(me),
            opt,
        });
        Ok(db)
    }

    /// Best-effort salvage when the manifest is unusable: adopt every
    /// complete, readable SSTable triple left in this rank's repository
    /// directory. Incomplete triples (crash debris) are skipped.
    fn salvage_ssts(
        ctx: &Arc<CtxInner>,
        name: &str,
        me: usize,
        store: &papyrus_nvm::NvmStore,
        clock: &Clock,
    ) -> (Ssid, Vec<SstReader>) {
        let dir = format!("{}/{}/r{}/", ctx.repo.prefix, name, me);
        let mut readers = Vec::new();
        let mut next: Ssid = 1;
        for obj in store.list(&dir) {
            let Some(ssid) = obj
                .strip_prefix(&dir)
                .and_then(|f| f.strip_prefix("sst"))
                .and_then(|f| f.strip_suffix(".data"))
                .and_then(|digits| digits.parse::<Ssid>().ok())
            else {
                continue;
            };
            let base = sstable::sst_base(&ctx.repo.prefix, name, me, ssid);
            if let Some((r, done)) = SstReader::open_at(store, &base, ssid, clock.now()) {
                clock.merge(done);
                next = next.max(ssid + 1);
                readers.push(r);
            }
        }
        readers.sort_by_key(SstReader::ssid);
        (next, readers)
    }

    fn check_open(&self) -> Result<()> {
        if self.sync.lock().closed {
            Err(Error::InvalidDb)
        } else {
            Ok(())
        }
    }

    /// Live SSIDs, newest first (for SearchShared responses).
    fn live_ssids_desc(&self) -> Vec<Ssid> {
        let mut v: Vec<Ssid> = self.ssts.read().iter().map(SstReader::ssid).collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

/// Insert an entry into the *local* stack of this rank (used by local puts
/// and by the handler ingesting migrated / sync-put records).
fn insert_local_entry(ctx: &CtxInner, db: &Arc<DbInner>, key: &[u8], entry: Entry, clock: &Clock) {
    let prot = db.state.read().protection;
    // DRAM cost of the tree insert + copy.
    clock.advance(ctx.platform.profile.mem.op_ns((key.len() + entry.value.len()) as u64));
    // "a stale cache entry that has the same key as the new key-value pair
    // is evicted from the local cache" (§2.4) — skipped under WRONLY (§3.2).
    if db.opt.local_cache && prot != Protection::WriteOnly {
        db.local_cache.lock().invalidate(key);
    }
    let over_capacity = {
        let mut local = db.local.write();
        local.insert(key, entry);
        local.bytes() >= db.opt.memtable_capacity
    };
    if over_capacity {
        freeze_local(ctx, db, clock.now());
    }
}

/// Freeze the local MemTable into the flushing queue (§2.4). Blocks while
/// the fixed-size queue is full — the paper's DRAM/NVM backpressure.
fn freeze_local(ctx: &CtxInner, db: &Arc<DbInner>, stamp: SimNs) {
    {
        let mut sync = db.sync.lock();
        if sync.pending_flushes >= db.opt.flush_queue_len {
            db.tel.freeze_stall.inc();
        }
        while sync.pending_flushes >= db.opt.flush_queue_len {
            db.sync_cv.wait(&mut sync);
        }
        sync.pending_flushes += 1;
    }
    let frozen = {
        let mut local = db.local.write();
        if local.is_empty() {
            let mut sync = db.sync.lock();
            sync.pending_flushes -= 1;
            db.sync_cv.notify_all();
            return;
        }
        let frozen = Arc::new(local.freeze());
        db.imm_local.write().push(frozen.clone());
        frozen
    };
    db.tel.freeze_local.inc();
    db.tel.rec.instant("core", "freeze.local", TID_APP, stamp);
    ctx.compact_q.push(CompactJob::Flush { db: db.clone(), mt: frozen, stamp });
}

/// Freeze the remote MemTable into the migration queue (§2.4).
fn freeze_remote(ctx: &CtxInner, db: &Arc<DbInner>, stamp: SimNs) {
    {
        let mut sync = db.sync.lock();
        if sync.migration_inflight >= db.opt.flush_queue_len {
            db.tel.freeze_stall.inc();
        }
        while sync.migration_inflight >= db.opt.flush_queue_len {
            db.sync_cv.wait(&mut sync);
        }
        sync.migration_inflight += 1;
    }
    let frozen = {
        let mut remote = db.remote.lock();
        if remote.is_empty() {
            let mut sync = db.sync.lock();
            sync.migration_inflight -= 1;
            db.sync_cv.notify_all();
            return;
        }
        let frozen = Arc::new(remote.freeze());
        db.imm_remote.write().push(frozen.clone());
        frozen
    };
    db.tel.freeze_remote.inc();
    db.tel.rec.instant("core", "freeze.remote", TID_APP, stamp);
    ctx.migrate_q.push(MigrateJob::Migrate { db: db.clone(), mt: frozen, stamp });
}

/// Build an SSTable that must not be lost (a flush backs acked writes).
/// An injected NVM fault is recorded — `ENOSPC` as a typed
/// [`Error::StorageFull`] naming `what`, transient EIO just retried — and
/// the build falls back to the store's riding-out writes, which escape the
/// fault window deterministically (a partial triple left by the failed
/// attempt is overwritten whole). With the fault plane off the first
/// attempt cannot fail.
fn build_riding_out(
    db: &DbInner,
    store: &papyrus_nvm::NvmStore,
    base: &str,
    ssid: Ssid,
    entries: &[(Vec<u8>, Entry)],
    now: SimNs,
    what: std::fmt::Arguments<'_>,
) -> (SstReader, SimNs) {
    match sstable::try_build_at(store, base, ssid, entries, now) {
        Ok(built) => built,
        Err(fault) => {
            if fault == papyrus_nvm::IoFault::NoSpace {
                db.io_errors.lock().push(Error::StorageFull(format!("{what} of db {}", db.name)));
            }
            sstable::build_at(store, base, ssid, entries, now)
        }
    }
}

/// Compaction-thread body for one flush job: build the SSTable, register
/// it, retire the immutable MemTable, and run SSID-triggered merge
/// compaction (§2.4 "flushing", §2.5 "compaction").
pub(crate) fn run_flush(ctx: &CtxInner, db: &Arc<DbInner>, mt: Arc<MemTable>, stamp: SimNs) {
    let store = ctx.repo_store();
    let me = ctx.rank.rank();
    let entries: Vec<(Vec<u8>, Entry)> = mt.iter().map(|(k, e)| (k.to_vec(), e.clone())).collect();

    // ordering: SSID allocation is SeqCst so manifest writers reading the
    // counter (run_flush/compaction/checkpoint) totally agree on which ids
    // are spoken for; audit relies on registered id < next_ssid.
    let ssid = db.next_ssid.fetch_add(1, Ordering::SeqCst);
    let base = sstable::sst_base(&ctx.repo.prefix, &db.name, me, ssid);
    let what = format_args!("flush sst{ssid}");
    let (reader, done) = build_riding_out(db, &store, &base, ssid, &entries, stamp, what);
    db.ssts.write().push(reader);

    // Retire the immutable MemTable only after the SSTable is visible, so
    // concurrent gets never observe a gap.
    db.imm_local.write().retain(|m| !Arc::ptr_eq(m, &mt));

    let done = ckpt::write_manifest_at(
        &store,
        &ctx.repo.prefix,
        &db.name,
        me,
        // ordering: SeqCst pairs with the allocator's fetch_add above.
        db.next_ssid.load(Ordering::SeqCst),
        &db.ssts.read().iter().map(SstReader::ssid).collect::<Vec<_>>(),
        done,
    );
    db.flush_backlog.merge(done);
    db.tel.flush_count.inc();
    db.tel.flush_ns.record(done.saturating_sub(stamp));
    db.tel.rec.span("core", "flush", TID_COMPACT, stamp, done);

    // Merge compaction "whenever the SSID of a new SSTable is a multiple of
    // the predefined number" (§2.5).
    let trigger = db.opt.compaction_trigger;
    if trigger > 0 && ssid.is_multiple_of(trigger) && db.ssts.read().len() > 1 {
        run_merge_compaction(ctx, db, done);
    }

    let mut sync = db.sync.lock();
    sync.pending_flushes -= 1;
    db.sync_cv.notify_all();
}

/// Merge all live SSTables into one (compaction thread only).
fn run_merge_compaction(ctx: &CtxInner, db: &Arc<DbInner>, stamp: SimNs) {
    let store = ctx.repo_store();
    let me = ctx.rank.rank();
    let snapshot: Vec<SstReader> = db.ssts.read().clone();
    if snapshot.len() <= 1 {
        return;
    }
    // ordering: same SeqCst SSID allocator as run_flush.
    let new_ssid = db.next_ssid.fetch_add(1, Ordering::SeqCst);
    let base = sstable::sst_base(&ctx.repo.prefix, &db.name, me, new_ssid);
    // Merging ALL live tables: tombstones can be dropped outright.
    // An injected `ENOSPC` aborts the compaction with a typed error: the
    // inputs stay live and referenced by the manifest, so nothing is lost and
    // the merge re-triggers at the next SSID multiple. Debris from a partial
    // merged triple is unreferenced and harmless.
    let (merged, done) =
        match sstable::try_merge_at(&store, &snapshot, &base, new_ssid, true, stamp) {
            Ok(ok) => ok,
            Err(e @ Error::StorageFull(_)) => {
                db.io_errors.lock().push(e);
                return;
            }
            Err(_) => return,
        };
    {
        let mut ssts = db.ssts.write();
        ssts.clear();
        ssts.push(merged);
    }
    // Commit the manifest before deleting the merged inputs: a crash
    // between the two steps leaves unreferenced debris, never a manifest
    // pointing at deleted tables.
    let mut t = ckpt::write_manifest_at(
        &store,
        &ctx.repo.prefix,
        &db.name,
        me,
        // ordering: SeqCst pairs with the allocator's fetch_add above.
        db.next_ssid.load(Ordering::SeqCst),
        &[new_ssid],
        done,
    );
    // "When the compaction is finished, the old SSTables are deleted to
    // save storage space" (§2.5).
    for old in &snapshot {
        t = old.delete_files_at(t);
    }
    db.flush_backlog.merge(t);
    db.tel.compact_count.inc();
    db.tel.compact_ns.record(t.saturating_sub(stamp));
    db.tel.rec.span("core", "compact", TID_COMPACT, stamp, t);
}

/// Dispatcher-thread body for one migration job: sort the frozen remote
/// MemTable's pairs by owner, accumulate per-rank chunks, and send them
/// (§2.4 "migration").
pub(crate) fn run_migration(ctx: &CtxInner, db: &Arc<DbInner>, mt: Arc<MemTable>, stamp: SimNs) {
    let mut per_owner: HashMap<usize, Vec<KvRecord>> = HashMap::new();
    for (k, e) in mt.iter() {
        per_owner.entry(e.owner as usize).or_default().push(KvRecord {
            key: k.to_vec(),
            value: e.value.clone(),
            tombstone: e.tombstone,
        });
    }
    let mut owners: Vec<usize> = per_owner.keys().copied().collect();
    owners.sort_unstable();
    let fault_on = fi::enabled();
    let me = ctx.rank.rank();
    let mut last_arrive = stamp;
    for owner in owners {
        let records = &per_owner[&owner];
        // An `owner == me` group exists only under R >= 2: local puts are
        // staged here purely so their replica copies ride the batched path.
        // The primary copy is already in the local stack — no self-migrate.
        if owner != me {
            pkv_trace!("[r{me}] migrate {} records -> r{owner}", records.len());
            if !fault_on {
                let payload = msg::encode_migrate(db.id, 0, records);
                let arrive = ctx.comm_req.send_at(owner, tags::MIGRATE, payload, stamp);
                last_arrive = last_arrive.max(arrive);
                db.migrate_backlog.merge(arrive);
            } else {
                // Fault plane on: the batch is acked by the owner's handler
                // so a black-holed send is detected and resent (re-applying
                // a batch is idempotent). A confirmed-dead owner's records
                // are dropped with a typed error in the sink — their keys
                // are unavailable until restart, which the chaos oracle
                // accounts for.
                match crate::runtime::rpc_with_retry(
                    ctx,
                    &db.tel,
                    owner,
                    tags::MIGRATE,
                    tags::MIGRATE_ACK,
                    "migrate",
                    &mut |seq| msg::encode_migrate(db.id, seq, records),
                ) {
                    Ok(ack) => {
                        last_arrive = last_arrive.max(ack.stamp);
                        db.migrate_backlog.merge(ack.stamp);
                    }
                    Err(e) => {
                        if let Error::RankUnavailable(dead) = e {
                            maybe_promote(ctx, db, dead);
                        }
                        db.io_errors.lock().push(e);
                    }
                }
            }
        }
        // Replica fan-out (R >= 2): every batch is also copied to the
        // owner's successor ranks on the ring. Replica batches ride the
        // same FIFO request channel as barrier marks, so a successful
        // barrier proves every replica copy sent before it was ingested —
        // the "bounded replication queue drained at barrier/fence".
        if db.repl_n >= 2 {
            match forward_replicas(ctx, db, owner, records, stamp, false) {
                Ok(arrive) => {
                    last_arrive = last_arrive.max(arrive);
                    db.migrate_backlog.merge(arrive);
                }
                Err(e) => db.io_errors.lock().push(e),
            }
        }
    }
    db.tel.migrate_count.inc();
    db.tel.migrate_ns.record(last_arrive.saturating_sub(stamp));
    db.tel.rec.span("core", "migrate", TID_DISPATCH, stamp, last_arrive);
    db.imm_remote.write().retain(|m| !Arc::ptr_eq(m, &mt));
    let mut sync = db.sync.lock();
    sync.migration_inflight -= 1;
    db.sync_cv.notify_all();
}

/// Handler-side ingestion of migrated / sync-put records into the owner's
/// local stack. Returns the service-completion stamp.
pub(crate) fn apply_incoming_records(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    records: &[KvRecord],
    stamp: SimNs,
) -> SimNs {
    let clk = Clock::starting_at(stamp);
    for r in records {
        pkv_trace!("[r{}] ingest key={:?}", ctx.rank.rank(), String::from_utf8_lossy(&r.key));
        let entry = if r.tombstone { Entry::tombstone() } else { Entry::value(r.value.clone()) };
        insert_local_entry(ctx, db, &r.key, entry, &clk);
    }
    let done = clk.now();
    db.ingest_backlog.merge(done);
    db.tel.ingest_records.add(records.len() as u64);
    db.tel.rec.span("core", "ingest", TID_HANDLER, stamp, done);
    done
}

// ---------------------------------------------------------------------------
// Replication (DESIGN §11)
// ---------------------------------------------------------------------------
//
// Replication is writer-driven: the application thread (sequential mode)
// or the dispatcher thread (relaxed mode) fans a put batch out to the
// owner's successor ranks. The message handler only ever ingests replica
// batches locally — it never forwards or blocks on another rank's ack —
// so synchronous writers waiting on `REPL_ACK` cannot close a cross-rank
// cycle of blocked handlers.

/// Copy `records` (owned by `origin`) to one successor rank. Fire-and-
/// forget on the happy path; deadline/retry/failure-detection RPC under
/// the fault plane. Returns the arrive/ack stamp.
fn send_repl_batch(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    dst: usize,
    origin: usize,
    records: &[KvRecord],
    stamp: SimNs,
) -> Result<SimNs> {
    if !fi::enabled() {
        let payload = msg::encode_repl_put(db.id, origin as u32, false, 0, records);
        return Ok(ctx.comm_req.send_at(dst, tags::REPL_PUT, payload, stamp));
    }
    let ack = crate::runtime::rpc_with_retry(
        ctx,
        &db.tel,
        dst,
        tags::REPL_PUT,
        tags::REPL_ACK,
        "replica forward",
        &mut |seq| msg::encode_repl_put(db.id, origin as u32, true, seq, records),
    )?;
    Ok(ack.stamp)
}

/// Fan `records` out to every successor of `owner` (self-copies are
/// applied locally). With `sync` set (sequential-consistency writers) a
/// non-fatal delivery failure other than a confirmed-dead successor
/// aborts the put so the caller never acks an under-replicated write;
/// without it (dispatcher batches) every failure lands in `io_errors`
/// and the remaining successors still get their copy. A confirmed-dead
/// successor is always non-fatal: the primary copy is intact and the
/// ring is merely degraded until re-replication heals it.
fn forward_replicas(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    owner: usize,
    records: &[KvRecord],
    stamp: SimNs,
    sync: bool,
) -> Result<SimNs> {
    let me = ctx.rank.rank();
    let n = ctx.rank.size();
    let mut last = stamp;
    for s in papyrus_replica::successors(owner, n, db.repl_n) {
        if s == me {
            last = last.max(apply_replica_records(ctx, db, owner, records, stamp));
            continue;
        }
        match send_repl_batch(ctx, db, s, owner, records, stamp) {
            Ok(arrive) => {
                last = last.max(arrive);
                if db.tel.on() {
                    db.tel.repl_forwards.inc();
                    db.tel.repl_lag_ns.record(arrive.saturating_sub(stamp));
                }
            }
            Err(e @ Error::RankUnavailable(_)) => {
                if let Error::RankUnavailable(dead) = e {
                    maybe_promote(ctx, db, dead);
                }
                db.io_errors.lock().push(e);
            }
            Err(e) if sync => return Err(e),
            Err(e) => db.io_errors.lock().push(e),
        }
    }
    Ok(last)
}

/// Handler-side (or self-copy) ingestion of a replica batch into the
/// per-origin replica stack. Purely local: inserts into the replica
/// MemTable and flushes it inline to a replica SSTable when over
/// capacity. Returns the service-completion stamp.
pub(crate) fn apply_replica_records(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    origin: usize,
    records: &[KvRecord],
    stamp: SimNs,
) -> SimNs {
    let clk = Clock::starting_at(stamp);
    let mem = &ctx.platform.profile.mem;
    {
        let mut repl = db.repl.lock();
        let stack = repl.entry(origin as u32).or_insert_with(ReplicaStack::new);
        for r in records {
            clk.advance(mem.op_ns((r.key.len() + r.value.len()) as u64));
            let entry =
                if r.tombstone { Entry::tombstone() } else { Entry::value(r.value.clone()) };
            stack.mem.insert(&r.key, entry);
        }
        if stack.mem.bytes() >= db.opt.memtable_capacity {
            flush_replica_stack(ctx, db, origin, stack, &clk); // lint:allow(blocking-under-lock): flush must stay atomic with ingest — `stack` borrows from the `repl` map, and readers must never observe the memtable/SSTable gap
        }
    }
    let done = clk.now();
    db.ingest_backlog.merge(done);
    if db.tel.on() {
        db.tel.ingest_records.add(records.len() as u64);
        db.tel.rec.span("core", "repl.ingest", TID_HANDLER, stamp, done);
    }
    done
}

/// Flush a replica MemTable into a replica SSTable (inline on the calling
/// thread — replica stacks skip the flush queue and the manifest: they
/// are re-derivable via re-replication, so crash debris is harmless).
fn flush_replica_stack(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    origin: usize,
    stack: &mut ReplicaStack,
    clk: &Clock,
) {
    if stack.mem.is_empty() {
        return;
    }
    let store = ctx.repo_store();
    let me = ctx.rank.rank();
    let entries: Vec<(Vec<u8>, Entry)> =
        stack.mem.iter().map(|(k, e)| (k.to_vec(), e.clone())).collect();
    let ssid = stack.next_ssid;
    stack.next_ssid += 1;
    let base = sstable::repl_sst_base(&ctx.repo.prefix, &db.name, me, origin, ssid);
    // Replica data backs acked writes, so like `run_flush` the build must
    // not drop it.
    let what = format_args!("replica flush rep{origin}-sst{ssid}");
    let (reader, done) = build_riding_out(db, &store, &base, ssid, &entries, clk.now(), what);
    clk.merge(done);
    stack.ssts.push(reader);
    stack.mem = MemTable::new();
}

/// Search the replica stack held for `origin`: replica MemTable first,
/// then replica SSTables newest-first.
fn replica_lookup(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    origin: usize,
    key: &[u8],
    clk: &Clock,
) -> Lookup {
    let mem = &ctx.platform.profile.mem;
    let repl = db.repl.lock();
    let Some(stack) = repl.get(&(origin as u32)) else { return Lookup::Miss };
    clk.advance(mem.op_ns(key.len() as u64));
    if let Some(e) = stack.mem.get(key) {
        return Lookup::from(e);
    }
    for reader in stack.ssts.iter().rev() {
        if db.opt.bloom_filter {
            if !reader.maybe_contains(key) {
                db.tel.bloom_neg.inc();
                continue;
            }
            db.tel.bloom_pass.inc();
        }
        let (res, done) = reader.get_at(key, db.opt.bin_search, clk.now());
        clk.merge(done);
        match res {
            SstGet::Found(v) => return Lookup::Found(v),
            SstGet::Tombstone => return Lookup::Tombstone,
            SstGet::NotFound => continue,
        }
    }
    Lookup::Miss
}

/// Handler-side service of a failover get against the replica stack for
/// `origin`. Returns the response and the service-completion stamp.
pub(crate) fn serve_replica_get(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    origin: usize,
    key: &[u8],
    stamp: SimNs,
) -> (GetResp, SimNs) {
    let clk = Clock::starting_at(stamp);
    let resp = match replica_lookup(ctx, db, origin, key, &clk) {
        Lookup::Found(v) => GetResp::Found(v),
        Lookup::Tombstone | Lookup::Miss => GetResp::NotFound,
    };
    let end = clk.now();
    if db.tel.on() {
        db.tel.serve_gets.inc();
        db.tel.rec.span("core", "repl.serve_get", TID_HANDLER, stamp, end);
    }
    (resp, end)
}

/// Read failover (R >= 2): the owner is confirmed dead, so walk its
/// successors in ring order and serve the get from the first live
/// replica. A self-copy is read directly from the local replica stack.
fn failover_get(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    key: &[u8],
    owner: usize,
    clock: &Clock,
) -> Result<Lookup> {
    let me = ctx.rank.rank();
    let n = ctx.rank.size();
    if db.tel.on() {
        db.tel.repl_failovers.inc();
    }
    pkv_trace!("[r{me}] failover get key={:?} dead owner={owner}", String::from_utf8_lossy(key));
    let remote_cache_on = db.opt.remote_cache || db.state.read().protection == Protection::ReadOnly;
    let mut last_err = Error::RankUnavailable(owner);
    for s in papyrus_replica::successors(owner, n, db.repl_n) {
        if s == me {
            // This rank holds a replica itself: promote if first-live, then
            // answer from the local replica stack.
            maybe_promote(ctx, db, owner);
            return Ok(replica_lookup(ctx, db, owner, key, clock));
        }
        if ctx.comm_req.rank_known_dead(s) {
            continue;
        }
        match crate::runtime::rpc_with_retry(
            ctx,
            &db.tel,
            s,
            tags::REPL_GET,
            tags::REPL_RESP,
            "failover get",
            &mut |seq| msg::encode_repl_get(db.id, owner as u32, seq, key),
        ) {
            Ok(m) => {
                let resp = msg::decode_get_resp(m.payload).ok().map(|(_, r)| r);
                return Ok(match resp {
                    Some(GetResp::Found(v)) => {
                        if remote_cache_on {
                            db.remote_cache.lock().insert(key, CacheEntry::value(v.clone()));
                        }
                        Lookup::Found(v)
                    }
                    _ => Lookup::Miss,
                });
            }
            Err(e @ Error::RankUnavailable(_)) => {
                last_err = e;
                continue;
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err)
}

/// Promotion check, called wherever a rank discovers `dead` is gone
/// (failed barrier, failover get, RPC failure, incoming `REPL_GET`). If
/// this rank is the first live successor of `dead` it claims primary
/// ownership of the dead rank's ranges in the job-wide promotion table
/// (first claim wins) and queues background re-replication to bring the
/// ring back to `R` copies. Free when replication is off.
pub(crate) fn maybe_promote(ctx: &CtxInner, db: &Arc<DbInner>, dead: usize) {
    if db.repl_n < 2 {
        return;
    }
    let me = ctx.rank.rank();
    if dead == me || dead >= ctx.rank.size() {
        return;
    }
    let n = ctx.rank.size();
    let is_dead = |r: usize| r == dead || ctx.comm_req.rank_known_dead(r);
    if papyrus_replica::first_live_successor(dead, n, &is_dead) != Some(me) {
        return;
    }
    if ctx.platform.repl.claim(db.id, dead, me) != papyrus_replica::Claim::Won {
        return;
    }
    if db.tel.on() {
        db.tel.repl_promotions.inc();
    }
    pkv_trace!("[r{me}] promoted to primary for dead rank {dead} (db {})", db.name);
    // Counted in `migration_inflight` so `fence` doubles as the
    // re-replication drain point.
    db.sync.lock().migration_inflight += 1;
    ctx.migrate_q.push(MigrateJob::Rereplicate {
        db: db.clone(),
        origin: dead,
        stamp: ctx.clock().now(),
    });
}

/// Everything this rank replicates for `origin`, merged newest-wins
/// across the replica MemTable and replica SSTables. Tombstones are kept
/// as records — re-replication must propagate deletions.
fn replica_records(db: &Arc<DbInner>, origin: usize) -> Vec<KvRecord> {
    use std::collections::BTreeMap;
    let repl = db.repl.lock();
    let Some(stack) = repl.get(&(origin as u32)) else { return Vec::new() };
    let mut merged: BTreeMap<Vec<u8>, (Bytes, bool)> = BTreeMap::new();
    // Oldest layer first so newer layers overwrite.
    for reader in stack.ssts.iter() {
        if let Some(records) = reader.records_uncharged() {
            for (k, e) in records {
                merged.insert(k, (e.value, e.tombstone));
            }
        }
    }
    for (k, e) in stack.mem.iter() {
        merged.insert(k.to_vec(), (e.value.clone(), e.tombstone));
    }
    merged.into_iter().map(|(key, (value, tombstone))| KvRecord { key, value, tombstone }).collect()
}

/// Dispatcher-thread body for one re-replication job: copy the promoted
/// ranges of `origin` to the new successor set so the ring holds `R`
/// copies again (DESIGN §11). Runs only after a promotion claim, i.e.
/// always under the fault plane.
pub(crate) fn run_rereplication(ctx: &CtxInner, db: &Arc<DbInner>, origin: usize, stamp: SimNs) {
    let me = ctx.rank.rank();
    let n = ctx.rank.size();
    let records = replica_records(db, origin);
    let is_dead = |r: usize| r == origin || ctx.comm_req.rank_known_dead(r);
    let targets: Vec<usize> = papyrus_replica::heal_set(origin, n, db.repl_n, &is_dead)
        .into_iter()
        .filter(|&r| r != me)
        .collect();
    let bytes: u64 = records.iter().map(|r| (r.key.len() + r.value.len()) as u64).sum();
    let mut last = stamp;
    if !records.is_empty() {
        for t in targets {
            pkv_trace!("[r{me}] rereplicate {} records of r{origin} -> r{t}", records.len());
            match send_repl_batch(ctx, db, t, origin, &records, stamp) {
                Ok(done) => {
                    last = last.max(done);
                    db.migrate_backlog.merge(done);
                    if db.tel.on() {
                        db.tel.repl_forwards.inc();
                        db.tel.repl_rereplicated_bytes.add(bytes);
                        db.tel.repl_lag_ns.record(done.saturating_sub(stamp));
                    }
                }
                Err(e) => db.io_errors.lock().push(e),
            }
        }
    }
    if db.tel.on() {
        db.tel.rec.span("core", "rereplicate", TID_DISPATCH, stamp, last);
    }
    let mut sync = db.sync.lock();
    sync.migration_inflight -= 1;
    db.sync_cv.notify_all();
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

/// Search this rank's in-memory structures: local MemTable, immutable local
/// MemTables (newest first), then the local cache (§2.6, Figure 3).
fn search_local_memory(ctx: &CtxInner, db: &DbInner, key: &[u8], clock: &Clock) -> Lookup {
    let mem = &ctx.platform.profile.mem;
    clock.advance(mem.op_ns(key.len() as u64));
    if let Some(e) = db.local.read().get(key) {
        return Lookup::from(e);
    }
    {
        let imm = db.imm_local.read();
        for mt in imm.iter().rev() {
            clock.advance(mem.op_ns(key.len() as u64));
            if let Some(e) = mt.get(key) {
                return Lookup::from(e);
            }
        }
    }
    let prot = db.state.read().protection;
    if db.opt.local_cache && prot != Protection::WriteOnly {
        if let Some(hit) = db.local_cache.lock().get(key) {
            clock.advance(mem.op_ns((key.len() + hit.value.len()) as u64));
            db.get_stats.hit();
            return if hit.tombstone { Lookup::Tombstone } else { Lookup::Found(hit.value) };
        }
        db.get_stats.miss();
    }
    Lookup::Miss
}

/// Walk this rank's SSTables newest-SSID-first (§2.6), consulting each
/// bloom filter first, and populate the local cache on a hit.
fn search_local_ssts(_ctx: &CtxInner, db: &DbInner, key: &[u8], clock: &Clock) -> Lookup {
    let prot = db.state.read().protection;
    let cache_ok = db.opt.local_cache && prot != Protection::WriteOnly;
    let ssts = db.ssts.read();
    for reader in ssts.iter().rev() {
        if db.opt.bloom_filter {
            if !reader.maybe_contains(key) {
                db.tel.bloom_neg.inc();
                continue;
            }
            db.tel.bloom_pass.inc();
        }
        let (res, done) = reader.get_at(key, db.opt.bin_search, clock.now());
        clock.merge(done);
        match res {
            SstGet::Found(v) => {
                if cache_ok {
                    db.local_cache.lock().insert(key, CacheEntry::value(v.clone()));
                }
                return Lookup::Found(v);
            }
            SstGet::Tombstone => {
                if cache_ok {
                    db.local_cache.lock().insert(key, CacheEntry::tombstone());
                }
                return Lookup::Tombstone;
            }
            SstGet::NotFound => continue,
        }
    }
    Lookup::Miss
}

/// Full local get: memory then SSTables.
fn local_get(ctx: &CtxInner, db: &DbInner, key: &[u8], clock: &Clock) -> Lookup {
    match search_local_memory(ctx, db, key, clock) {
        Lookup::Miss => search_local_ssts(ctx, db, key, clock),
        hit => hit,
    }
}

/// Handler-side service of a remote get (§2.6; storage-group fast path
/// §2.7). Returns the response and the service-completion stamp.
pub(crate) fn serve_remote_get(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    key: &[u8],
    caller_group: u32,
    caller_rank: usize,
    stamp: SimNs,
) -> (GetResp, SimNs) {
    let clk = Clock::starting_at(stamp);
    let me = ctx.rank.rank();
    let shared = caller_group != msg::NO_GROUP
        && caller_group == ctx.group_of(me)
        && ctx.shares_storage(me, caller_rank);
    let resp = if shared {
        // Same storage group: "the message handler looks into the local
        // MemTable, immutable local MemTables, and local cache only" (§2.7).
        match search_local_memory(ctx, db, key, &clk) {
            Lookup::Found(v) => GetResp::Found(v),
            Lookup::Tombstone => GetResp::NotFound,
            Lookup::Miss => GetResp::SearchShared(db.live_ssids_desc()),
        }
    } else {
        match local_get(ctx, db, key, &clk) {
            Lookup::Found(v) => GetResp::Found(v),
            _ => GetResp::NotFound,
        }
    };
    let end = clk.now();
    if db.tel.on() {
        db.tel.serve_gets.inc();
        db.tel.rec.span("core", "serve_get", TID_HANDLER, stamp, end);
    }
    (resp, end)
}

/// Caller-side remote get. Delegates to the primary-owner path and, with
/// replication on, falls over to the owner's successor replicas when the
/// owner is confirmed dead (DESIGN §11) — an acked write stays readable
/// through a single rank kill.
fn remote_get(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    key: &[u8],
    owner: usize,
    clock: &Clock,
) -> Result<Lookup> {
    if db.repl_n >= 2 && ctx.comm_req.rank_known_dead(owner) {
        // The fabric already returned a sticky dead verdict for the owner;
        // skip the doomed primary round trip entirely.
        maybe_promote(ctx, db, owner);
        return failover_get(ctx, db, key, owner, clock);
    }
    match remote_get_primary(ctx, db, key, owner, clock) {
        Err(Error::RankUnavailable(dead)) if db.repl_n >= 2 && dead == owner => {
            maybe_promote(ctx, db, dead);
            failover_get(ctx, db, key, owner, clock)
        }
        other => other,
    }
}

/// Primary-owner remote get: remote MemTable / migration queue / remote
/// cache, then a request message, then (storage group) shared-SSTable
/// search (§2.6-§2.7, Figure 3).
fn remote_get_primary(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    key: &[u8],
    owner: usize,
    clock: &Clock,
) -> Result<Lookup> {
    let mem = &ctx.platform.profile.mem;
    let state = *db.state.read();
    if state.consistency == Consistency::Relaxed {
        clock.advance(mem.op_ns(key.len() as u64));
        if let Some(e) = db.remote.lock().get(key) {
            return Ok(Lookup::from(e));
        }
        let imm = db.imm_remote.read();
        for mt in imm.iter().rev() {
            clock.advance(mem.op_ns(key.len() as u64));
            if let Some(e) = mt.get(key) {
                return Ok(Lookup::from(e));
            }
        }
    }
    let remote_cache_on = db.opt.remote_cache || state.protection == Protection::ReadOnly;
    if remote_cache_on {
        if let Some(hit) = db.remote_cache.lock().get(key) {
            clock.advance(mem.op_ns((key.len() + hit.value.len()) as u64));
            db.get_stats.hit();
            return Ok(if hit.tombstone { Lookup::Tombstone } else { Lookup::Found(hit.value) });
        }
        db.get_stats.miss();
    }

    // Request/response round trip through the owner's message handler. The
    // fast path (fault plane off) is a plain blocking exchange; under the
    // fault plane the request gets a deadline, seq-matched retries, and
    // failure detection — a confirmed-dead owner surfaces as
    // `Error::RankUnavailable` instead of a hang, while local and
    // surviving-rank keys stay serviceable (degraded mode).
    let me = ctx.rank.rank();
    let round_trip = |group: u32| -> Result<Option<GetResp>> {
        if !fi::enabled() {
            let payload = msg::encode_get_req(db.id, group, 0, key);
            ctx.comm_req.send(owner, tags::GET_REQ, payload);
            let m = ctx
                .comm_rep
                .recv(papyrus_mpi::RecvSrc::Rank(owner), papyrus_mpi::RecvTag::Tag(tags::GET_RESP));
            return Ok(msg::decode_get_resp(m.payload).ok().map(|(_, resp)| resp));
        }
        let m = crate::runtime::rpc_with_retry(
            ctx,
            &db.tel,
            owner,
            tags::GET_REQ,
            tags::GET_RESP,
            "remote get",
            &mut |seq| msg::encode_get_req(db.id, group, seq, key),
        )?;
        Ok(msg::decode_get_resp(m.payload).ok().map(|(_, resp)| resp))
    };
    let Some(resp) = round_trip(ctx.group_of(me))? else { return Ok(Lookup::Miss) };
    pkv_trace!("[r{me}] remote_get key={:?} -> {:?}", String::from_utf8_lossy(key), resp);
    Ok(match resp {
        GetResp::Found(v) => {
            if remote_cache_on {
                db.remote_cache.lock().insert(key, CacheEntry::value(v.clone()));
            }
            Lookup::Found(v)
        }
        GetResp::NotFound => Lookup::Miss,
        GetResp::SearchShared(ssids) => {
            match search_peer_ssts(ctx, db, key, owner, &ssids, remote_cache_on, clock) {
                Lookup::Miss => {
                    // The owner's compaction may have merged and deleted the
                    // listed SSTables while we were probing them. Retry with
                    // the storage-group fast path disabled (FULL_GROUP
                    // sentinel): the owner searches its own SSTables under
                    // its registry lock, which compaction cannot race.
                    match round_trip(msg::NO_GROUP)? {
                        Some(GetResp::Found(v)) => {
                            if remote_cache_on {
                                db.remote_cache.lock().insert(key, CacheEntry::value(v.clone()));
                            }
                            Lookup::Found(v)
                        }
                        _ => Lookup::Miss,
                    }
                }
                hit => hit,
            }
        }
    })
}

/// Storage-group shared-SSTable search: read the owner's SSTables directly
/// from the shared NVM "as if it were a local get operation" (§2.7).
fn search_peer_ssts(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    key: &[u8],
    owner: usize,
    ssids_desc: &[Ssid],
    cache_ok: bool,
    clock: &Clock,
) -> Lookup {
    let store = ctx.repo_store_for(owner);
    for &ssid in ssids_desc {
        // Probe the cache, then open OUTSIDE the lock: `open_at` is charged
        // NVM I/O, and holding `peer_readers` across it would serialise
        // every cross-rank read behind one device stall. Two threads may
        // race to open the same SSTable; the loser's insert overwrites an
        // identical reader.
        let cached = db.peer_readers.lock().get(&(owner, ssid)).cloned();
        let reader = match cached {
            Some(r) => r,
            None => {
                let base = sstable::sst_base(&ctx.repo.prefix, &db.name, owner, ssid);
                match SstReader::open_at(&store, &base, ssid, clock.now()) {
                    Some((r, done)) => {
                        clock.merge(done);
                        db.peer_readers.lock().insert((owner, ssid), r.clone());
                        r
                    }
                    // Deleted by the owner's compaction meanwhile: skip.
                    None => continue,
                }
            }
        };
        if db.opt.bloom_filter {
            if !reader.maybe_contains(key) {
                db.tel.bloom_neg.inc();
                continue;
            }
            db.tel.bloom_pass.inc();
        }
        let (res, done) = reader.get_at(key, db.opt.bin_search, clock.now());
        clock.merge(done);
        match res {
            SstGet::Found(v) => {
                if cache_ok {
                    db.remote_cache.lock().insert(key, CacheEntry::value(v.clone()));
                }
                return Lookup::Found(v);
            }
            SstGet::Tombstone => return Lookup::Tombstone,
            SstGet::NotFound => continue,
        }
    }
    Lookup::Miss
}

/// Record a barrier mark received by the handler.
pub(crate) fn note_barrier_mark(db: &Arc<DbInner>, epoch: u64, stamp: SimNs) {
    let mut sync = db.sync.lock();
    let slot = sync.barrier_marks.entry(epoch).or_insert((0, 0));
    slot.0 += 1;
    pkv_trace!("[db {}] mark epoch={epoch} count={}", db.id, slot.0);
    slot.1 = slot.1.max(stamp);
    db.tel.rec.instant("core", "barrier.mark", TID_HANDLER, stamp);
    db.sync_cv.notify_all();
}

/// Collective close: synchronise, flush everything to SSTables, and mark
/// the handle invalid. SSTables are retained for zero-copy reopen (§4.1).
pub(crate) fn close_inner(ctx: &Arc<CtxInner>, db: &Arc<DbInner>) -> Result<()> {
    if db.sync.lock().closed {
        return Ok(());
    }
    barrier_inner(ctx, db, BarrierLevel::SsTable)?;
    let mut sync = db.sync.lock();
    if papyrus_sanity::enabled() {
        // After the close barrier every epoch this rank entered has
        // completed, so any mark entry for an already-completed epoch means
        // a reconciliation round failed to consume exactly n marks.
        // ordering: SeqCst pairs with the barrier's epoch fetch_add; the
        // audit must see every epoch a completed barrier entered.
        let epoch = db.barrier_epoch.load(Ordering::SeqCst);
        for (&e, &(count, _)) in sync.barrier_marks.iter().filter(|(&e, _)| e < epoch) {
            papyrus_sanity::record_violation(
                papyrus_sanity::ViolationKind::BarrierEpochMismatch,
                format!(
                    "db {}: rank {} closing with leftover barrier marks for completed \
                     epoch {e} (count {count})",
                    db.name,
                    ctx.rank.rank()
                ),
            );
        }
    }
    sync.closed = true;
    Ok(())
}

/// Fence (§3.1): migrate the remote MemTable and every immutable remote
/// MemTable to the owner ranks immediately; returns when the migration
/// queue has drained.
pub(crate) fn fence_inner(ctx: &CtxInner, db: &Arc<DbInner>) -> Result<()> {
    let clock = ctx.clock();
    let start = clock.now();
    pkv_trace!("[r{}] fence start", ctx.rank.rank());
    freeze_remote(ctx, db, start);
    {
        let mut sync = db.sync.lock();
        while sync.migration_inflight > 0 {
            db.sync_cv.wait(&mut sync);
        }
    }
    clock.merge(db.migrate_backlog.now());
    if db.tel.on() {
        let end = clock.now();
        db.tel.fence_wait_ns.record(end.saturating_sub(start));
        db.tel.rec.span("core", "fence.wait", TID_APP, start, end);
    }
    pkv_trace!("[r{}] fence done", ctx.rank.rank());
    Ok(())
}

/// Collective barrier (§3.1): after it, all ranks see the same data; with
/// `BarrierLevel::SsTable` the whole database is flushed to SSTables.
pub(crate) fn barrier_inner(ctx: &CtxInner, db: &Arc<DbInner>, level: BarrierLevel) -> Result<()> {
    let clock = ctx.clock();
    let barrier_start = clock.now();
    fence_inner(ctx, db)?;

    // FIFO barrier marks: per-sender channel ordering guarantees every data
    // message sent before the mark is ingested before the mark is counted.
    // ordering: barrier epochs form a single global sequence; SeqCst keeps
    // every rank's mark accounting and the close-time audit on one total
    // order of epochs.
    let epoch = db.barrier_epoch.fetch_add(1, Ordering::SeqCst);
    let n = ctx.rank.size();
    let mark = msg::encode_barrier_mark(db.id, epoch);
    for r in 0..n {
        ctx.comm_req.send(r, tags::BARRIER_MARK, mark.clone());
    }
    let mark_stamp = if !fi::enabled() {
        let mut sync = db.sync.lock();
        loop {
            if let Some(&(count, stamp)) = sync.barrier_marks.get(&epoch) {
                if count == n {
                    sync.barrier_marks.remove(&epoch);
                    break stamp;
                }
            }
            db.sync_cv.wait(&mut sync);
        }
    } else {
        // Fault plane on: a dead rank never sends its mark, so the wait is
        // timed and probes the failure detector between slices (outside the
        // sync lock so the handler can keep recording marks). The dead rank
        // is reported by number instead of hanging the barrier.
        await_barrier_marks_faulty(ctx, db, epoch, n).map_err(|e| {
            if let Error::RankUnavailable(dead) = e {
                maybe_promote(ctx, db, dead);
            }
            e
        })?
    };
    clock.merge(mark_stamp);
    clock.merge(db.ingest_backlog.now());

    if level == BarrierLevel::SsTable {
        freeze_local(ctx, db, clock.now());
        let mut sync = db.sync.lock();
        while sync.pending_flushes > 0 {
            db.sync_cv.wait(&mut sync);
        }
        drop(sync);
        clock.merge(db.flush_backlog.now());
    }

    if fi::enabled() {
        ctx.comm_ctl.try_barrier().map_err(|dead| {
            maybe_promote(ctx, db, dead);
            Error::RankUnavailable(dead)
        })?;
    } else {
        ctx.comm_ctl.barrier();
    }
    if db.tel.on() {
        let end = clock.now();
        db.tel.barrier_wait_ns.record(end.saturating_sub(barrier_start));
        db.tel.rec.span("core", "barrier.wait", TID_APP, barrier_start, end);
    }
    Ok(())
}

/// Timed wait for all `n` barrier marks of `epoch`, probing the failure
/// detector on each timeout slice. Returns the max mark stamp, or
/// `Error::RankUnavailable` naming the first confirmed-dead rank.
fn await_barrier_marks_faulty(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    epoch: u64,
    n: usize,
) -> Result<SimNs> {
    loop {
        {
            let mut sync = db.sync.lock();
            if let Some(&(count, stamp)) = sync.barrier_marks.get(&epoch) {
                if count == n {
                    sync.barrier_marks.remove(&epoch);
                    return Ok(stamp);
                }
            }
            if !db.sync_cv.wait_for(&mut sync, Duration::from_millis(10)).timed_out() {
                continue; // woken by a new mark: re-check under the lock
            }
        }
        // Slice expired with marks missing: waiting burns virtual time too
        // (without this a waiter whose clock lags the plan's kill times
        // would probe "alive" forever), then suspect a dead sender. Self
        // counts — see `Communicator::any_dead_member`. Only with the
        // plane armed: an unconditional advance would bill fault-free
        // runs for wall-clock scheduling noise.
        if fi::enabled() {
            ctx.clock().advance(fi::PROBE_DEADLINE_CAP_NS);
        }
        if let Some((_, world)) = ctx.comm_req.any_dead_member() {
            return Err(Error::RankUnavailable(world));
        }
    }
}

// ---------------------------------------------------------------------------
// Public handle
// ---------------------------------------------------------------------------

/// A PapyrusKV database handle (`papyruskv_db_t`).
///
/// Obtained from [`Context::open`]; cheap to clone. Operations map 1:1 to
/// the paper's Table 1 API. `put`/`get`/`delete`/`fence` are per-rank;
/// `barrier`, `set_consistency`, `protect`, `checkpoint`, `close`, and
/// `destroy` are collective.
#[derive(Clone)]
pub struct Db {
    ctx: Arc<CtxInner>,
    inner: Arc<DbInner>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("name", &self.inner.name)
            .field("rank", &self.ctx.rank.rank())
            .field("sstables", &self.inner.ssts.read().len())
            .finish()
    }
}

impl Db {
    pub(crate) fn new(ctx: Arc<CtxInner>, inner: Arc<DbInner>) -> Self {
        Self { ctx, inner }
    }

    /// Internal handles for the invariant auditor (`crate::sanity`).
    pub(crate) fn sanity_parts(&self) -> (&Arc<CtxInner>, &Arc<DbInner>) {
        (&self.ctx, &self.inner)
    }

    /// Database name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Owner rank of a key under this database's hash.
    pub fn owner_of(&self, key: &[u8]) -> usize {
        self.inner.dist.owner(key)
    }

    /// `papyruskv_put`: insert or update a key-value pair.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write_entry(key, Bytes::copy_from_slice(value), false)
    }

    /// `papyruskv_delete`: delete a key (a put of a zero-length value with
    /// the tombstone bit set, §2.5).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.write_entry(key, Bytes::new(), true)
    }

    fn write_entry(&self, key: &[u8], value: Bytes, tombstone: bool) -> Result<()> {
        self.inner.check_open()?;
        if key.is_empty() {
            return Err(Error::InvalidArgument("empty key"));
        }
        let state = *self.inner.state.read();
        if state.protection == Protection::ReadOnly {
            return Err(Error::Protected);
        }
        let ctx = &self.ctx;
        let db = &self.inner;
        let clock = ctx.clock();
        db.put_stats.record((key.len() + value.len()) as u64);
        let start = clock.now();

        let owner = db.dist.owner(key);
        let me = ctx.rank.rank();
        if owner == me {
            pkv_trace!("[r{me}] put local key={:?}", String::from_utf8_lossy(key));
            let repl_val = if db.repl_n >= 2 { Some(value.clone()) } else { None };
            let entry = if tombstone { Entry::tombstone() } else { Entry::value(value) };
            insert_local_entry(ctx, db, key, entry, clock);
            if let Some(v) = repl_val {
                match state.consistency {
                    Consistency::Sequential => {
                        // Synchronous fan-out: the put does not return until
                        // every live successor holds the record (DESIGN §11).
                        let rec = KvRecord { key: key.to_vec(), value: v, tombstone };
                        forward_replicas(
                            ctx,
                            db,
                            me,
                            std::slice::from_ref(&rec),
                            clock.now(),
                            true,
                        )?;
                    }
                    Consistency::Relaxed => {
                        // Stage the copy in the remote MemTable under owner =
                        // me — the bounded replication queue. The dispatcher's
                        // migration pass fans owner==me groups out to the
                        // successors, and the FIFO barrier mark proves they
                        // are ingested before the barrier completes.
                        let mem = &ctx.platform.profile.mem;
                        clock.advance(mem.op_ns((key.len() + v.len()) as u64));
                        let over = {
                            let mut remote = db.remote.lock();
                            remote.insert(key, Entry::remote(v, tombstone, me as u32));
                            remote.bytes() >= db.opt.remote_memtable_capacity
                        };
                        if over {
                            freeze_remote(ctx, db, clock.now());
                        }
                    }
                }
            }
            if db.tel.on() {
                db.tel.put_local.inc();
                db.tel.put_ns.record(clock.now().saturating_sub(start));
            }
            return Ok(());
        }
        match state.consistency {
            Consistency::Relaxed => {
                let mem = &ctx.platform.profile.mem;
                clock.advance(mem.op_ns((key.len() + value.len()) as u64));
                if db.opt.remote_cache {
                    db.remote_cache.lock().invalidate(key);
                }
                pkv_trace!(
                    "[r{me}] put remote key={:?} owner={owner}",
                    String::from_utf8_lossy(key)
                );
                let over = {
                    let mut remote = db.remote.lock();
                    remote.insert(key, Entry::remote(value, tombstone, owner as u32));
                    remote.bytes() >= db.opt.remote_memtable_capacity
                };
                if over {
                    freeze_remote(ctx, db, clock.now());
                }
                if db.tel.on() {
                    db.tel.put_remote.inc();
                    db.tel.put_ns.record(clock.now().saturating_sub(start));
                }
                Ok(())
            }
            Consistency::Sequential => {
                // "sent to the remote owner rank synchronously and directly
                // without staging in the remote MemTable" (§3.1). Under the
                // fault plane the synchronous put is deadline-guarded and
                // retried (idempotent re-apply); a confirmed-dead owner
                // surfaces as `Error::RankUnavailable`.
                let rec = KvRecord { key: key.to_vec(), value, tombstone };
                if fi::enabled() {
                    crate::runtime::rpc_with_retry(
                        ctx,
                        &db.tel,
                        owner,
                        tags::PUT_SYNC,
                        tags::PUT_ACK,
                        "synchronous put",
                        &mut |seq| msg::encode_put_sync(db.id, seq, &rec),
                    )
                    .map_err(|e| {
                        if let Error::RankUnavailable(dead) = e {
                            maybe_promote(ctx, db, dead);
                        }
                        e
                    })?;
                } else {
                    ctx.comm_req.send(owner, tags::PUT_SYNC, msg::encode_put_sync(db.id, 0, &rec));
                    ctx.comm_rep.recv(
                        papyrus_mpi::RecvSrc::Rank(owner),
                        papyrus_mpi::RecvTag::Tag(tags::PUT_ACK),
                    );
                }
                if db.repl_n >= 2 {
                    // The owner has acked; its successors must hold the
                    // record before this put returns, so a single rank kill
                    // cannot lose an acked sequential write.
                    forward_replicas(
                        ctx,
                        db,
                        owner,
                        std::slice::from_ref(&rec),
                        clock.now(),
                        true,
                    )?;
                }
                if db.tel.on() {
                    db.tel.put_sync.inc();
                    db.tel.put_ns.record(clock.now().saturating_sub(start));
                }
                Ok(())
            }
        }
    }

    /// `papyruskv_get`: retrieve the value for `key`. Returns
    /// `Err(Error::NotFound)` if absent or deleted (the C API's
    /// `PAPYRUSKV_NOT_FOUND`).
    pub fn get(&self, key: &[u8]) -> Result<Bytes> {
        self.inner.check_open()?;
        if key.is_empty() {
            return Err(Error::InvalidArgument("empty key"));
        }
        let ctx = &self.ctx;
        let db = &self.inner;
        let clock = ctx.clock();
        db.get_stats.record(key.len() as u64);
        let start = clock.now();
        let owner = db.dist.owner(key);
        let me = ctx.rank.rank();
        let res = if owner == me {
            let res = local_get(ctx, db, key, clock);
            if db.tel.on() {
                db.tel.get_local.inc();
                db.tel.get_local_ns.record(clock.now().saturating_sub(start));
            }
            res
        } else {
            let res = remote_get(ctx, db, key, owner, clock);
            if db.tel.on() {
                db.tel.get_remote.inc();
                db.tel.get_remote_ns.record(clock.now().saturating_sub(start));
            }
            res?
        };
        match res {
            Lookup::Found(v) => Ok(v),
            Lookup::Tombstone | Lookup::Miss => Err(Error::NotFound),
        }
    }

    /// Convenience: `get` with `Option` instead of `NotFound` errors.
    pub fn get_opt(&self, key: &[u8]) -> Result<Option<Bytes>> {
        match self.get(key) {
            Ok(v) => Ok(Some(v)),
            Err(Error::NotFound) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// `papyruskv_fence`: drain this rank's remote MemTables to the owners.
    pub fn fence(&self) -> Result<()> {
        self.inner.check_open()?;
        fence_inner(&self.ctx, &self.inner)
    }

    /// `papyruskv_barrier`: collective memory fence with a flushing level.
    pub fn barrier(&self, level: BarrierLevel) -> Result<()> {
        self.inner.check_open()?;
        barrier_inner(&self.ctx, &self.inner, level)
    }

    /// `papyruskv_consistency`: collectively switch consistency mode (§3.1).
    pub fn set_consistency(&self, mode: Consistency) -> Result<()> {
        self.inner.check_open()?;
        barrier_inner(&self.ctx, &self.inner, BarrierLevel::MemTable)?;
        self.inner.state.write().consistency = mode;
        Ok(())
    }

    /// Current consistency mode.
    pub fn consistency(&self) -> Consistency {
        self.inner.state.read().consistency
    }

    /// `papyruskv_protect`: collectively switch the protection attribute
    /// (§3.2). Entering `WriteOnly` invalidates and disables the local
    /// cache; leaving `ReadOnly` evicts and disables the remote cache.
    pub fn protect(&self, prot: Protection) -> Result<()> {
        self.inner.check_open()?;
        barrier_inner(&self.ctx, &self.inner, BarrierLevel::MemTable)?;
        let prev = {
            let mut st = self.inner.state.write();
            let prev = st.protection;
            st.protection = prot;
            prev
        };
        if prot == Protection::WriteOnly {
            self.inner.local_cache.lock().clear();
        }
        if prev == Protection::ReadOnly && prot != Protection::ReadOnly {
            self.inner.remote_cache.lock().clear();
        }
        Ok(())
    }

    /// Current protection attribute.
    pub fn protection(&self) -> Protection {
        self.inner.state.read().protection
    }

    /// `papyruskv_close`: collective close; all data is flushed to SSTables
    /// which remain in the repository for zero-copy reopen (§4.1).
    pub fn close(&self) -> Result<()> {
        close_inner(&self.ctx, &self.inner)
    }

    /// `papyruskv_checkpoint`: asynchronously snapshot the database to
    /// `dest` on the parallel file system (§4.2). Collective. The returned
    /// [`Event`] completes when this rank's transfer finishes.
    pub fn checkpoint(&self, dest: &str) -> Result<Event> {
        self.inner.check_open()?;
        ckpt::checkpoint(&self.ctx, &self.inner, dest)
    }

    /// `papyruskv_destroy`: collectively remove the database and all its
    /// data from NVM.
    pub fn destroy(&self) -> Result<Event> {
        self.inner.check_open()?;
        close_inner(&self.ctx, &self.inner)?;
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

    /// Drain the typed errors raised by background threads (migration to a
    /// confirmed-dead owner, `ENOSPC` during flush or compaction). Empty in
    /// a healthy run; under the fault plane applications poll this after
    /// fences/barriers to learn about degraded-mode data.
    pub fn take_io_errors(&self) -> Vec<Error> {
        std::mem::take(&mut *self.inner.io_errors.lock())
    }

    /// Number of live SSTables on this rank (diagnostics).
    pub fn sstable_count(&self) -> usize {
        self.inner.ssts.read().len()
    }

    /// Bytes currently staged in the local MemTable (diagnostics).
    pub fn memtable_bytes(&self) -> u64 {
        self.inner.local.read().bytes()
    }

    /// Whether `key` is still staged on this rank awaiting migration —
    /// in the mutable remote MemTable or a frozen immutable one
    /// (diagnostics). The serve plane's durability oracle asserts this is
    /// `false` at write-ack time: a fenced record has left the staging
    /// area and been ingested by its owner (the FIFO-channel argument
    /// behind `BARRIER_MARK` then extends ingestion to durability).
    pub fn staged_remote_contains(&self, key: &[u8]) -> bool {
        if self.inner.remote.lock().get(key).is_some() {
            return true;
        }
        self.inner.imm_remote.read().iter().any(|m| m.get(key).is_some())
    }
}

/// `papyruskv_restart` lives on [`Context`] since it creates the database.
impl Context {
    /// Revert database `name` from the snapshot at `path` (§4.2). If the
    /// snapshot was taken with the same number of ranks (and
    /// `force_redistribute` is off), SSTables are copied back verbatim;
    /// otherwise every key-value pair is re-put under the new distribution
    /// ("restart with redistribution", Figure 5(c)).
    ///
    /// Collective. Returns the database and an [`Event`] carrying the
    /// virtual completion time of the transfer.
    pub fn restart(
        &self,
        path: &str,
        name: &str,
        flags: OpenFlags,
        opt: Options,
        force_redistribute: bool,
    ) -> Result<(Db, Event)> {
        ckpt::restart(self, path, name, flags, opt, force_redistribute)
    }
}
