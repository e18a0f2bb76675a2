//! The write path: put, freeze, flush, merge compaction, migration and
//! handler-side ingest (paper §2.4-§2.5, §3.1).

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use papyrus_simtime::{Clock, SimNs};
use papyrus_telemetry::{TID_APP, TID_COMPACT, TID_DISPATCH, TID_HANDLER};

use crate::ckpt;
use crate::db::{Db, DbInner, DbSync};
use crate::error::{Error, Result};
use crate::memtable::{Entry, MemTable};
use crate::msg::{tags, Batch, BatchBuf};
use crate::options::{Consistency, Protection};
use crate::replica::forward_replicas;
use crate::runtime::{request, send_batch, CompactJob, CtxInner, MigrateJob};
use crate::sstable::{self, Record, Ssid, SstReader, TableImage};

impl Db {
    /// `papyruskv_put`: insert or update a key-value pair.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        put(&self.ctx, &self.inner, key, Bytes::copy_from_slice(value), false)
    }

    /// `papyruskv_delete`: delete a key (a put of a zero-length value with
    /// the tombstone bit set, §2.5).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        put(&self.ctx, &self.inner, key, Bytes::new(), true)
    }
}

fn put(ctx: &CtxInner, db: &Arc<DbInner>, key: &[u8], value: Bytes, tombstone: bool) -> Result<()> {
    db.check_open()?;
    if key.is_empty() {
        return Err(Error::InvalidArgument("empty key"));
    }
    let state = *db.state.read();
    if state.protection == Protection::ReadOnly {
        return Err(Error::Protected);
    }
    let clock = ctx.clock();
    db.put_stats.record((key.len() + value.len()) as u64);
    let start = clock.now();
    let owner = db.dist.owner(key);
    let me = ctx.rank.rank();
    let kind = match state.consistency {
        Consistency::Relaxed if owner == me => {
            // With replication the copy is staged under owner = me — the
            // bounded replication queue. The dispatcher's migration pass
            // fans owner==me groups out to the successors, and the FIFO
            // barrier mark proves they are ingested before the barrier
            // completes.
            let copy = (db.repl_n >= 2).then(|| Entry::remote(value.clone(), tombstone, me as u32));
            insert_local_entry(ctx, db, key, entry_of(value, tombstone), clock);
            if let Some(copy) = copy {
                stage(ctx, db, key, copy, clock);
            }
            &db.tel.put_local
        }
        Consistency::Relaxed => {
            stage(ctx, db, key, Entry::remote(value, tombstone, owner as u32), clock);
            &db.tel.put_remote
        }
        Consistency::Sequential => {
            // One record, encoded once from the caller's key and value: the
            // PUT_SYNC body and, replicated, the REPL_PUT body.
            let batch: Batch = [Record { key, value: &value, tombstone }].into_iter().collect();
            let kind = if owner == me {
                insert_local_entry(ctx, db, key, entry_of(value, tombstone), clock);
                &db.tel.put_local
            } else {
                // "sent to the remote owner rank synchronously and directly
                // without staging in the remote MemTable" (§3.1). Under the
                // fault plane the synchronous put is deadline-guarded and
                // retried (idempotent re-apply); a confirmed-dead owner
                // surfaces as `Error::RankUnavailable`.
                let encode = &mut |seq| batch.migrate(db.id, seq);
                request(
                    ctx,
                    db,
                    (owner, tags::PUT_SYNC, tags::PUT_ACK),
                    "synchronous put",
                    encode,
                )?;
                &db.tel.put_sync
            };
            if db.repl_n >= 2 {
                // Synchronous fan-out: the owner holds the record; its live
                // successors must too before this put returns, so a single
                // rank kill cannot lose an acked sequential write (DESIGN
                // §11).
                forward_replicas(ctx, db, owner, &batch, clock.now(), true)?;
            }
            kind
        }
    };
    if db.tel.on() {
        kind.inc();
        db.tel.put_ns.record(clock.now().saturating_sub(start));
    }
    Ok(())
}

/// The primary-stack entry of a put (`tombstone` unset) or delete (set).
pub(crate) fn entry_of(value: Bytes, tombstone: bool) -> Entry {
    if tombstone {
        Entry::tombstone()
    } else {
        Entry::value(value)
    }
}

/// Insert an entry into the primary stack (local puts, and the handler
/// ingesting migrated / sync-put records). Insert, then invalidate, under
/// the stack's write lock: "a stale cache entry that has the same key as the
/// new key-value pair is evicted from the local cache" (§2.4), and no get
/// can put the old value back in between (gets fill the cache holding the
/// read lock). Skipped under WRONLY (§3.2).
fn insert_local_entry(ctx: &CtxInner, db: &Arc<DbInner>, key: &[u8], entry: Entry, clock: &Clock) {
    // DRAM cost of the tree insert + copy.
    clock.advance(db.mem.op_ns((key.len() + entry.value.len()) as u64));
    if db.insert_local(key, entry) {
        freeze(ctx, db, Side::Local, clock.now());
    }
}

impl DbInner {
    /// The locked part of [`insert_local_entry`]; whether the MemTable has
    /// reached its capacity.
    pub(crate) fn insert_local(&self, key: &[u8], entry: Entry) -> bool {
        let cache = self.live_local_cache();
        let mut stack = self.stack.write();
        stack.mem.insert(key, entry);
        if let Some(cache) = cache {
            cache.lock().invalidate(key);
        }
        stack.mem.bytes() >= self.opt.memtable_capacity
    }
}

/// Stage an entry for its owner in the staging MemTable (§2.4): a relaxed
/// put to a remote owner, or the replica copy of a relaxed local put.
fn stage(ctx: &CtxInner, db: &Arc<DbInner>, key: &[u8], entry: Entry, clock: &Clock) {
    clock.advance(db.mem.op_ns((key.len() + entry.value.len()) as u64));
    let over = {
        let mut staging = db.staging.lock();
        staging.mem.insert(key, entry);
        staging.mem.bytes() >= db.opt.remote_memtable_capacity
    };
    if over {
        freeze(ctx, db, Side::Staging, clock.now());
    }
}

/// Which MemTable a freeze takes: the primary stack's, bound for the flush
/// queue, or the staging stack's, bound for the migration queue.
#[derive(Clone, Copy)]
pub(crate) enum Side {
    Local,
    Staging,
}

impl DbSync {
    /// The in-flight count that bounds `side`'s queue.
    pub(crate) fn slots(&mut self, side: Side) -> &mut usize {
        match side {
            Side::Local => &mut self.pending_flushes,
            Side::Staging => &mut self.migration_inflight,
        }
    }
}

/// Freeze a MemTable into its queue (§2.4). Blocks while the fixed-size
/// queue is full — the paper's DRAM/NVM backpressure — and does so before
/// taking the stack's lock, so gets and the flush that frees the slot keep
/// running.
pub(crate) fn freeze(ctx: &CtxInner, db: &Arc<DbInner>, side: Side, stamp: SimNs) {
    {
        let mut sync = db.sync.lock();
        if *sync.slots(side) >= db.opt.flush_queue_len {
            db.tel.freeze_stall.inc();
        }
        while *sync.slots(side) >= db.opt.flush_queue_len {
            db.sync_cv.wait(&mut sync);
        }
        *sync.slots(side) += 1;
    }
    let frozen = match side {
        Side::Local => db.stack.write().freeze(),
        Side::Staging => db.staging.lock().freeze(),
    };
    let Some(mt) = frozen else {
        let mut sync = db.sync.lock();
        *sync.slots(side) -= 1;
        db.sync_cv.notify_all();
        return;
    };
    let db = db.clone();
    match side {
        Side::Local => {
            db.tel.freeze_local.inc();
            db.tel.rec.instant("core", "freeze.local", TID_APP, stamp);
            ctx.compact_q.push(CompactJob::Flush { db, mt, stamp });
        }
        Side::Staging => {
            db.tel.freeze_remote.inc();
            db.tel.rec.instant("core", "freeze.remote", TID_APP, stamp);
            ctx.migrate_q.push(MigrateJob::Migrate { db, mt, stamp });
        }
    }
}

/// Build the SSTable of a frozen MemTable, encoded straight from its
/// iterator. It must not be lost (a flush backs acked writes): an injected
/// NVM fault is recorded — `ENOSPC` as a typed [`Error::StorageFull`] naming
/// `what`, transient EIO just retried — and the same image is written again
/// through the store's riding-out writes, which escape the fault window
/// deterministically (a partial triple left by the failed attempt is
/// overwritten whole). With the fault plane off the first attempt cannot
/// fail.
pub(crate) fn build_riding_out(
    db: &DbInner,
    store: &papyrus_nvm::NvmStore,
    base: &str,
    ssid: Ssid,
    mt: &MemTable,
    now: SimNs,
    what: std::fmt::Arguments<'_>,
) -> (SstReader, SimNs) {
    let image = TableImage::encode(mt.bytes() as usize, mt.iter().map(Record::from));
    let done = image.try_write_at(store, base, now).unwrap_or_else(|fault| {
        if fault == papyrus_nvm::IoFault::NoSpace {
            db.io_errors.lock().push(Error::StorageFull(format!("{what} of db {}", db.name)));
        }
        image.write_at(store, base, now)
    });
    (image.into_reader(store, base, ssid), done)
}

/// Compaction-thread body for one flush job: build the SSTable, swap it in
/// for the frozen MemTable, commit the manifest, and run SSID-triggered
/// merge compaction (§2.4 "flushing", §2.5 "compaction").
pub(crate) fn run_flush(ctx: &CtxInner, db: &Arc<DbInner>, mt: Arc<MemTable>, stamp: SimNs) {
    let store = ctx.repo_store();
    let ssid = db.stack.write().alloc_ssid();
    let base = sstable::sst_base(&ctx.repo.prefix, &db.name, ctx.rank.rank(), ssid);
    let what = format_args!("flush sst{ssid}");
    let (reader, done) = build_riding_out(db, &store, &base, ssid, &mt, stamp, what);
    let (next, live) = {
        let mut stack = db.stack.write();
        stack.retire(&mt, reader);
        (stack.next_ssid, stack.live_ssids())
    };
    let done = ckpt::commit_manifest(ctx, &db.name, next, &live, done);
    db.flush_backlog.merge(done);
    db.tel.flush_count.inc();
    db.tel.flush_ns.record(done.saturating_sub(stamp));
    db.tel.rec.span("core", "flush", TID_COMPACT, stamp, done);

    // Merge compaction "whenever the SSID of a new SSTable is a multiple of
    // the predefined number" (§2.5).
    let trigger = db.opt.compaction_trigger;
    if trigger > 0 && ssid.is_multiple_of(trigger) {
        run_merge_compaction(ctx, db, done);
    }

    let mut sync = db.sync.lock();
    sync.pending_flushes -= 1;
    db.sync_cv.notify_all();
}

/// Merge all live SSTables into one (compaction thread only).
fn run_merge_compaction(ctx: &CtxInner, db: &Arc<DbInner>, stamp: SimNs) {
    let store = ctx.repo_store();
    let (snapshot, new_ssid) = {
        let mut stack = db.stack.write();
        if stack.ssts.len() <= 1 {
            return;
        }
        (stack.ssts.clone(), stack.alloc_ssid())
    };
    let base = sstable::sst_base(&ctx.repo.prefix, &db.name, ctx.rank.rank(), new_ssid);
    // Merging ALL live tables: tombstones can be dropped outright.
    // An injected `ENOSPC` or an unreadable input aborts the compaction with
    // a typed error: the inputs stay live and referenced by the manifest, so
    // nothing (more) is lost and the merge re-triggers at the next SSID
    // multiple. Debris from a partial merged triple is unreferenced and
    // harmless.
    let (merged, done) = match sstable::merge_at(&store, &snapshot, &base, new_ssid, true, stamp) {
        Ok(ok) => ok,
        Err(e) => {
            let named = |what| format!("compaction of db {} skipped: {what}", db.name);
            let e = if let Error::DataLoss(what) = e { ckpt::data_loss(named(what)) } else { e };
            db.io_errors.lock().push(e);
            return;
        }
    };
    let next = {
        let mut stack = db.stack.write();
        stack.ssts.clear();
        stack.ssts.push(merged);
        stack.next_ssid
    };
    // Commit the manifest before deleting the merged inputs: a crash
    // between the two steps leaves unreferenced debris, never a manifest
    // pointing at deleted tables.
    let mut t = ckpt::commit_manifest(ctx, &db.name, next, &[new_ssid], done);
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

/// Dispatcher-thread body for one migration job: sort the frozen staging
/// MemTable's pairs by owner — each encoded, once, straight into its owner's
/// batch — and send the batches, owners ascending (§2.4 "migration").
pub(crate) fn run_migration(ctx: &CtxInner, db: &Arc<DbInner>, mt: Arc<MemTable>, stamp: SimNs) {
    let mut per_owner: BTreeMap<usize, BatchBuf> = BTreeMap::new();
    for (k, e) in mt.iter() {
        per_owner.entry(e.owner as usize).or_default().push(Record::from((k, e)));
    }
    let me = ctx.rank.rank();
    let mut last_arrive = stamp;
    let mut settle = |sent: Result<SimNs>| match sent {
        Ok(arrive) => {
            last_arrive = last_arrive.max(arrive);
            db.migrate_backlog.merge(arrive);
        }
        Err(e) => db.io_errors.lock().push(e),
    };
    for (owner, batch) in per_owner {
        let batch = &batch.freeze();
        // An `owner == me` group exists only under R >= 2: local puts are
        // staged here purely so their replica copies ride the batched path.
        // The primary copy is already in the local stack — no self-migrate.
        if owner != me {
            // Under the fault plane a confirmed-dead owner's records are
            // dropped with a typed error in the sink — their keys are
            // unavailable until restart, which the chaos oracle accounts
            // for.
            let encode = &mut |seq| batch.migrate(db.id, seq);
            let sent = send_batch(
                ctx,
                db,
                (owner, tags::MIGRATE, tags::MIGRATE_ACK),
                "migrate",
                stamp,
                encode,
            );
            settle(sent);
        }
        // Replica fan-out (R >= 2): every batch is also copied to the
        // owner's successor ranks on the ring. Replica batches ride the
        // same FIFO request channel as barrier marks, so a successful
        // barrier proves every replica copy sent before it was ingested —
        // the "bounded replication queue drained at barrier/fence".
        if db.repl_n >= 2 {
            settle(forward_replicas(ctx, db, owner, batch, stamp, false));
        }
    }
    db.tel.migrate_count.inc();
    db.tel.migrate_ns.record(last_arrive.saturating_sub(stamp));
    db.tel.rec.span("core", "migrate", TID_DISPATCH, stamp, last_arrive);
    db.staging.lock().drop_frozen(&mt);
    let mut sync = db.sync.lock();
    sync.migration_inflight -= 1;
    db.sync_cv.notify_all();
}

/// Handler-side ingestion of migrated / sync-put records into the owner's
/// primary stack. Returns the service-completion stamp.
pub(crate) fn apply_incoming_records(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    records: &Batch,
    stamp: SimNs,
) -> SimNs {
    let clk = Clock::starting_at(stamp);
    for (key, entry) in records.entries() {
        insert_local_entry(ctx, db, key, entry, &clk);
    }
    let done = clk.now();
    db.ingest_backlog.merge(done);
    db.tel.ingest_records.add(records.len() as u64);
    db.tel.rec.span("core", "ingest", TID_HANDLER, stamp, done);
    done
}
