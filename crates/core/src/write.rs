//! The write path: put, freeze, flush, merge compaction, migration and
//! handler-side ingest (paper §2.4-§2.5, §3.1).

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use papyrus_mpi::{Sending, Slice};
use papyrus_simtime::{Clock, SimNs};
use papyrus_telemetry::{TID_APP, TID_COMPACT, TID_DISPATCH, TID_HANDLER};

use crate::ckpt;
use crate::db::{Db, DbInner, DbSync};
use crate::error::{Error, Result};
use crate::memtable::{Entry, MemTable};
use crate::msg::{Batch, BatchBuf, Request};
use crate::options::{CompactionTrigger, Consistency, Options, Protection};
use crate::replica::{apply_replica_records, forward_replicas};
use crate::runtime::{request, send_batch, CompactJob, CtxInner, MigrateJob, Shipment};
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
    let state = *db.state.lock();
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
            // bounded replication queue. The dispatcher's migration plan
            // fans owner==me groups out to the successors, and the FIFO
            // barrier mark proves they are ingested before the barrier
            // completes.
            let copy = (db.repl_n >= 2).then(|| Entry::remote(value.clone(), tombstone, me as u32));
            let entry = entry_of(value, tombstone);
            insert_local_entry(ctx, db, key, entry, clock);
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
                let entry = entry_of(value, tombstone);
                insert_local_entry(ctx, db, key, entry, clock);
                &db.tel.put_local
            } else {
                // "sent to the remote owner rank synchronously and directly
                // without staging in the remote MemTable" (§3.1). Under the
                // fault plane the synchronous put is deadline-guarded and
                // retried (idempotent re-apply); a confirmed-dead owner
                // surfaces as `Error::RankUnavailable`.
                let encode = &mut |seq| batch.migrate(db.id, seq);
                request(ctx, db, (owner, Request::PutSync), "synchronous put", encode)?;
                &db.tel.put_sync
            };
            if db.repl_n >= 2 {
                // Synchronous fan-out: the owner holds the record; its live
                // successors must too before this put returns, so a single
                // rank kill cannot lose an acked sequential write (DESIGN
                // §11).
                forward_replicas(ctx, db, owner, &batch, clock.now())?;
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

/// Insert an entry into the primary stack (a local put; the handler's
/// [`Ingest`] does the same). Insert, then invalidate, under
/// the stack's lock: "a stale cache entry that has the same key as the
/// new key-value pair is evicted from the local cache" (§2.4), and no get
/// can put the old value back in between (gets fill the cache holding the
/// same lock). Under WRONLY (§3.2) there is no cache to invalidate.
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
        let mut stack = self.stack.lock();
        stack.mem.insert(key, entry);
        if let Some(cache) = &mut stack.cache {
            cache.invalidate(key);
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

/// Freeze a MemTable into its queue (§2.4). The side's slot count against
/// `Options::flush_queue_len` is the one backpressure — the paper's
/// fixed-size flushing queue: a freeze parks while the count is full, before
/// taking the stack's lock, so gets and the flush that frees the slot keep
/// running. The handler's ingest waits for its slot without parking
/// ([`Ingest`]).
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
    freeze_slotted(ctx, db, side, stamp);
}

/// [`freeze`] with a slot of `side`'s queue taken. The push never parks.
fn freeze_slotted(ctx: &CtxInner, db: &Arc<DbInner>, side: Side, stamp: SimNs) {
    let frozen = match side {
        Side::Local => db.stack.lock().freeze(),
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
            let plan = plan_migration(ctx, &db, &mt);
            ctx.migrate_q.push(MigrateJob::Ship(Shipping::new(db, Some(mt), plan, stamp)));
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
    let image = TableImage::of_memtable(mt);
    let done = image.try_write_at(store, base, now).unwrap_or_else(|fault| {
        if fault == papyrus_nvm::IoFault::NoSpace {
            db.io_errors.lock().push(Error::StorageFull(format!("{what} of db {}", db.name)));
        }
        image.write_at(store, base, now)
    });
    (image.into_reader(store, base, ssid), done)
}

/// Compaction-task body for one flush job: build the SSTable, swap it in
/// for the frozen MemTable, commit the manifest, and merge as many of the
/// newest tables as the database's rule now asks for (§2.4 "flushing", §2.5
/// "compaction").
pub(crate) fn run_flush(ctx: &CtxInner, db: &Arc<DbInner>, mt: Arc<MemTable>, stamp: SimNs) {
    let store = ctx.repo_store();
    let ssid = db.stack.lock().alloc_ssid();
    let base = sstable::sst_base(&ctx.repo.prefix, &db.name, ctx.rank.rank(), ssid);
    let what = format_args!("flush sst{ssid}");
    let (reader, done) = build_riding_out(db, &store, &base, ssid, &mt, stamp, what);
    let (next, live, take) = {
        let mut stack = db.stack.lock();
        stack.retire(&mt, reader);
        (stack.next_ssid, stack.live_ssids(), merge_width(&db.opt, &stack.ssts))
    };
    let done = ckpt::commit_manifest(ctx, &db.name, next, &live, done);
    db.flush_backlog.merge(done);
    db.tel.flush_count.inc();
    db.tel.flush_ns.record(done.saturating_sub(stamp));
    db.tel.rec.span("core", "flush", TID_COMPACT, stamp, done);

    if take > 1 {
        run_merge_compaction(ctx, db, take, done);
    }

    let mut sync = db.sync.lock();
    sync.pending_flushes -= 1;
    db.sync_cv.notify_all();
}

/// Size tier of a table holding `bytes` of SSData, on a scale of `cap`, the
/// MemTable capacity, times powers of the fan-in `n`: a flush is tier 0, a
/// merge of `n` flushes tier 1, of `n²` tier 2. Tier `k` is centred on
/// `cap × n^k` and bounded by the geometric midpoints `cap × n^(k ± ½)`, so
/// neither the record a MemTable froze over its capacity nor the shadowed
/// records a merge shed move a table to the tier next door. Compared
/// squared, in integers.
fn tier(bytes: u64, cap: u64, n: u64) -> u32 {
    let squared = u128::from(bytes).pow(2);
    let mut bound = u128::from(cap.max(1)).pow(2) * u128::from(n);
    let mut tier = 0;
    while squared >= bound {
        tier += 1;
        bound = bound.saturating_mul(u128::from(n).pow(2));
    }
    tier
}

/// The one compaction picker: how many of the newest tables of `ssts`, the
/// live list, to merge now that a flush has joined it (§2.5). Fewer than two
/// is no merge.
#[allow(clippy::indexing_slicing, reason = "take <= ssts.len() and peers <= older.len()")]
fn merge_width(opt: &Options, ssts: &[SstReader]) -> usize {
    let fan_in = match opt.compaction_trigger {
        CompactionTrigger::Off => return 0,
        CompactionTrigger::Tiered { fan_in } => fan_in.max(2),
    };
    let tier_of = |bytes| tier(bytes, opt.memtable_capacity, fan_in as u64);
    // The run starts as the newest table alone. Whenever the tables next to
    // it that are no larger than its tier number `fan_in - 1` or more, they
    // join, and the run goes on as one table of the joined size: the merge
    // that completes a tier takes that tier along in the same pass instead
    // of writing a table only to read it back. "No larger", not "equal":
    // what a failed merge or an outsized record left smaller than the run
    // goes with it, so no table is ever stranded behind a larger, newer one.
    let (mut take, mut bytes) = (1, ssts.last().map_or(0, SstReader::data_len));
    loop {
        let older = &ssts[..ssts.len().saturating_sub(take)];
        let run = tier_of(bytes);
        let peers = older.iter().rev().take_while(|t| tier_of(t.data_len()) <= run).count();
        if peers + 1 < fan_in {
            return take;
        }
        bytes += older[older.len() - peers..].iter().map(SstReader::data_len).sum::<u64>();
        take += peers;
    }
}

/// Merge the newest `take` live SSTables into one (compaction task only).
#[allow(
    clippy::indexing_slicing,
    reason = "take came from merge_width over this list, which only this task shrinks"
)]
fn run_merge_compaction(ctx: &CtxInner, db: &Arc<DbInner>, take: usize, stamp: SimNs) {
    let store = ctx.repo_store();
    let (inputs, whole, new_ssid) = {
        let mut stack = db.stack.lock();
        let older = stack.ssts.len() - take;
        (stack.ssts[older..].to_vec(), older == 0, stack.alloc_ssid())
    };
    let base = sstable::sst_base(&ctx.repo.prefix, &db.name, ctx.rank.rank(), new_ssid);
    // Tombstones go only when the run is `whole`, the entire live list:
    // under an older table left out a deleted key would come back.
    // An injected `ENOSPC` or an unreadable input aborts the compaction with
    // a typed error: the inputs stay live and referenced by the manifest, so
    // nothing (more) is lost and the picker sees them again after the next
    // flush. Debris from a partial merged triple is unreferenced and
    // harmless.
    let (merged, done) = match sstable::merge_at(&store, &inputs, &base, new_ssid, whole, stamp) {
        Ok(ok) => ok,
        Err(e) => {
            let named = |what| format!("compaction of db {} skipped: {what}", db.name);
            let e = if let Error::DataLoss(what) = e { ckpt::data_loss(named(what)) } else { e };
            db.io_errors.lock().push(e);
            return;
        }
    };
    let (next, live) = {
        let mut stack = db.stack.lock();
        stack.replace_newest(take, merged);
        (stack.next_ssid, stack.live_ssids())
    };
    // Commit the manifest before deleting the merged inputs: a crash
    // between the two steps leaves unreferenced debris, never a manifest
    // pointing at deleted tables.
    let mut t = ckpt::commit_manifest(ctx, &db.name, next, &live, done);
    // "When the compaction is finished, the old SSTables are deleted to
    // save storage space" (§2.5).
    for old in &inputs {
        t = old.delete_files_at(t);
    }
    db.flush_backlog.merge(t);
    db.tel.compact_count.inc();
    db.tel.compact_ns.record(t.saturating_sub(stamp));
    db.tel.rec.span("core", "compact", TID_COMPACT, stamp, t);
}

/// Plan a migration (§2.4 "migration"): sort the frozen staging MemTable's
/// pairs by owner — each encoded, once, straight into its owner's batch —
/// into the batches to ship, owners ascending, each owner's replica copies
/// behind its batch.
fn plan_migration(ctx: &CtxInner, db: &DbInner, mt: &MemTable) -> Vec<Shipment> {
    let mut per_owner: BTreeMap<usize, BatchBuf> = BTreeMap::new();
    for (k, e) in mt.iter() {
        per_owner.entry(e.owner as usize).or_default().push(Record::from((k, e)));
    }
    let (me, n) = (ctx.rank.rank(), ctx.rank.size());
    let mut plan = Vec::new();
    for (owner, batch) in per_owner {
        let records = batch.freeze();
        // An `owner == me` group exists only under R >= 2: local puts are
        // staged here purely so their replica copies ride the batched path.
        // The primary copy is already in the local stack — no self-migrate.
        if owner != me {
            plan.push(Shipment { to: owner, copy_of: None, records: records.clone() });
        }
        // Replica fan-out (R >= 2): every batch is also copied to the
        // owner's successor ranks on the ring. Replica batches ride the
        // same FIFO request channel as barrier marks, so a successful
        // barrier proves every replica copy sent before it was ingested —
        // the "bounded replication queue drained at barrier/fence".
        for s in papyrus_replica::successors(owner, n, db.repl_n) {
            plan.push(Shipment { to: s, copy_of: Some(owner), records: records.clone() });
        }
    }
    plan
}

/// A migration or re-replication the message dispatcher carries out, one
/// step a slice: a batch is sent in three ([`send_batch`], then two of
/// [`papyrus_mpi::Communicator::carry_on`]), a copy to this rank is one,
/// then the job is recorded, a migration's frozen MemTable dropped and the
/// job's slot freed. A step lets go of one guard at most and wakes a task
/// only as its last action, so slices end where a thread blocked.
pub(crate) struct Shipping {
    db: Arc<DbInner>,
    /// A migration's frozen MemTable until it is dropped; `None` for a
    /// re-replication.
    mt: Option<Arc<MemTable>>,
    plan: std::vec::IntoIter<Shipment>,
    sending: Option<Sending>,
    recorded: bool,
    stamp: SimNs,
    /// The latest arrival so far.
    last: SimNs,
}

impl Shipping {
    pub(crate) fn new(
        db: Arc<DbInner>,
        mt: Option<Arc<MemTable>>,
        plan: Vec<Shipment>,
        stamp: SimNs,
    ) -> Self {
        let plan = plan.into_iter();
        Self { db, mt, plan, sending: None, recorded: false, stamp, last: stamp }
    }

    /// Take the next step; what is left of the job.
    pub(crate) fn step(mut self, ctx: &CtxInner) -> Option<Self> {
        let (db, stamp) = (&self.db, self.stamp);
        if let Some(sending) = &mut self.sending {
            if ctx.comm_req.carry_on(sending) {
                self.sending = None;
            }
        } else if let Some(ship) = self.plan.next() {
            let arrive = if let Some(origin) = ship.copy_of.filter(|_| ship.to == ctx.rank.rank()) {
                apply_replica_records(ctx, db, origin, &ship.records, stamp)
            } else {
                let healed = (self.mt.is_none() && db.tel.on()).then(|| {
                    ship.records.records().map(|r| (r.key.len() + r.value.len()) as u64).sum()
                });
                // Under the fault plane a confirmed-dead receiver's records
                // are dropped with a typed error in the sink — an owner's
                // keys are unavailable until restart, which the chaos oracle
                // accounts for.
                let sent =
                    send_batch(ctx, db, ship, stamp).map_err(|e| db.io_errors.lock().push(e));
                let Ok(sending) = sent else { return Some(self) };
                healed.into_iter().for_each(|bytes| db.tel.repl_rereplicated_bytes.add(bytes));
                self.sending.insert(sending).stamp
            };
            self.last = self.last.max(arrive);
            db.migrate_backlog.merge(arrive);
        } else if !std::mem::replace(&mut self.recorded, true) {
            let last = self.last;
            if self.mt.is_some() {
                db.tel.migrate_count.inc();
                db.tel.migrate_ns.record(last.saturating_sub(stamp));
                db.tel.rec.span("core", "migrate", TID_DISPATCH, stamp, last);
            } else if db.tel.on() {
                db.tel.rec.span("core", "rereplicate", TID_DISPATCH, stamp, last);
            }
        } else if let Some(mt) = self.mt.take() {
            db.staging.lock().drop_frozen(&mt);
        } else {
            let mut sync = db.sync.lock();
            sync.migration_inflight -= 1;
            db.sync_cv.notify_all();
            return None;
        }
        Some(self)
    }
}

/// A MIGRATE or PUT_SYNC batch the message handler ingests into the owner's
/// primary stack, one record at a time, so that it can stop between two
/// without parking: when its MemTable freezes into a full flush queue it
/// enlists for a slot, and when a preemption point ends its slice it keeps
/// the rest for the next.
pub(crate) struct Ingest {
    db: Arc<DbInner>,
    records: Batch,
    /// The service clock, from the batch's arrival stamp.
    clk: Clock,
    stamp: SimNs,
    /// Records inserted so far.
    done: usize,
    /// The last insert filled the MemTable: its freeze is owed.
    full: bool,
    /// The owed freeze found the flush queue full (a stall, counted once).
    stalled: bool,
}

impl Ingest {
    pub(crate) fn new(db: Arc<DbInner>, records: Batch, stamp: SimNs) -> Self {
        let clk = Clock::starting_at(stamp);
        Self { db, records, clk, stamp, done: 0, full: false, stalled: false }
    }

    /// Ingest on: the service-completion stamp once every record is in, or
    /// how the slice must end — `Parked`, enlisted for a flush-queue slot,
    /// or `Ran`, past a preemption point that handed the baton on.
    pub(crate) fn step(&mut self, ctx: &CtxInner) -> std::result::Result<SimNs, Slice> {
        let db = &self.db;
        let mut records = self.records.entries().skip(self.done);
        loop {
            if Slice::yielded() {
                return Err(Slice::Ran);
            }
            if self.full {
                let mut sync = db.sync.lock();
                if *sync.slots(Side::Local) >= db.opt.flush_queue_len {
                    if !std::mem::replace(&mut self.stalled, true) {
                        db.tel.freeze_stall.inc();
                    }
                    db.sync_cv.enlist(&sync);
                    return Err(Slice::Parked);
                }
                *sync.slots(Side::Local) += 1;
                drop(sync);
                (self.full, self.stalled) = (false, false);
                freeze_slotted(ctx, db, Side::Local, self.clk.now());
                continue;
            }
            let Some((key, entry)) = records.next() else { break };
            // `insert_local_entry`, with the freeze it owes left to the loop.
            self.clk.advance(db.mem.op_ns((key.len() + entry.value.len()) as u64));
            self.full = db.insert_local(key, entry);
            self.done += 1;
        }
        let done = self.clk.now();
        db.ingest_backlog.merge(done);
        db.tel.ingest_records.add(self.records.len() as u64);
        db.tel.rec.span("core", "ingest", TID_HANDLER, self.stamp, done);
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{BarrierLevel, OpenFlags};
    use crate::runtime::{Context, Platform};
    use crate::sanity::audit_db;
    use crate::sstable::tests::CountingBackend;
    use papyrus_faultinject::{FaultEvent, FaultPlan};
    use papyrus_mpi::{World, WorldConfig};
    use papyrus_nvm::{NvmStore, StorageMap, SystemProfile};

    #[test]
    fn a_tier_is_centred_on_a_power_of_the_fan_in() {
        let cap = 1 << 20;
        for n in [2u64, 3, 4, 8] {
            // A flush, whatever it froze at, and anything smaller: tier 0.
            for bytes in [0, 1, cap / 2, cap, cap + (64 << 10)] {
                assert_eq!(tier(bytes, cap, n), 0, "{bytes} B at fan-in {n}");
            }
            // `n^k` flushes' worth, merged with or without losses: tier k.
            for k in 1..=4 {
                let full = cap * n.pow(k);
                for bytes in [full - full / 5, full, full + full / 5] {
                    assert_eq!(tier(bytes, cap, n), k, "{bytes} B at fan-in {n}");
                }
            }
        }
        // The boundary is the geometric midpoint: 2 × cap at fan-in 4.
        assert_eq!((tier(2 * cap - 1, cap, 4), tier(2 * cap, cap, 4)), (0, 1));
        assert_eq!((tier(8 * cap - 1, cap, 4), tier(8 * cap, cap, 4)), (1, 2));
        // Total: no capacity, the largest table.
        assert_eq!(tier(0, 0, 4), 0);
        assert_eq!(tier(u64::MAX, 1, 2), 64);
    }

    /// Records a flush holds, and the bytes of a value: one flush is 65 088 B
    /// of SSData from a MemTable of 66 048 B.
    const RECORDS: usize = 64;
    const VALUE: [u8; 1000] = [b'v'; 1000];
    /// Never reached by one flush's puts: a flush is a barrier's.
    const CAPACITY: u64 = 70_000;

    fn options(rule: CompactionTrigger) -> Options {
        Options::default().with_memtable_capacity(CAPACITY).with_compaction_trigger(rule)
    }

    fn key(flush: usize, i: usize) -> Vec<u8> {
        format!("f{flush:03}-{i:03}").into_bytes()
    }

    /// Put flush number `flush`'s distinct keys and settle them into a table.
    fn fill(db: &Db, flush: usize) {
        (0..RECORDS).for_each(|i| db.put(&key(flush, i), &VALUE).unwrap());
        db.barrier(BarrierLevel::SsTable).unwrap();
    }

    fn live(db: &Db) -> Vec<Ssid> {
        db.inner.stack.lock().live_ssids()
    }

    /// A one-rank platform whose NVM is `backend`.
    fn platform_over(backend: Arc<CountingBackend>) -> Arc<Platform> {
        let profile = SystemProfile::test_profile();
        let nvm = NvmStore::with_backend(profile.nvm.clone(), backend);
        let pfs = NvmStore::in_memory(profile.pfs.clone());
        Platform::with_storage(profile, StorageMap::from_parts(vec![nvm], 1, pfs), 1)
    }

    /// What `flushes` equal flushes of distinct keys under `rule` wrote:
    /// `(table-units of SSData written, inputs of each merge, live SSIDs)`, a
    /// unit being one flush's SSData. Along the way: the manifest on the
    /// device lists the live set after every flush and merge, is committed
    /// before any merged input is deleted, and every byte written is within
    /// 1% of units × one flush's three images.
    fn equal_flushes(rule: CompactionTrigger, flushes: usize) -> (usize, Vec<usize>, Vec<Ssid>) {
        let backend = Arc::new(CountingBackend::default());
        let platform = platform_over(backend.clone());
        let live = World::run(WorldConfig::for_tests(1), move |rank| {
            let ctx = Context::init(rank, platform.clone(), "nvm://units").expect("init");
            let db = ctx.open("db", OpenFlags::create(), options(rule)).expect("open");
            for flush in 0..flushes {
                fill(&db, flush);
                let next = db.inner.stack.lock().next_ssid;
                let live = live(&db);
                let manifest = ckpt::read_manifest(&ctx.inner.repo_store(), "units", "db", 0);
                assert_eq!(manifest, ckpt::ManifestRead::Present(next, live), "flush {flush}");
            }
            let live = live(&db);
            for flush in 0..flushes {
                assert_eq!(&db.get(&key(flush, flush % RECORDS)).unwrap()[..], &VALUE);
            }
            db.close().expect("close");
            ctx.finalize().expect("finalize");
            live
        });

        let log = backend.log.lock().clone();
        let is_sst = |path: &str| path.contains("/sst");
        let puts = |ext: &str| -> usize {
            let put = log.iter().filter(|(op, path, _)| *op == "put" && path.ends_with(ext));
            put.map(|op| op.2).sum()
        };
        let unit = log.iter().find(|op| op.1.ends_with(".data")).expect("a flush").2;
        assert_eq!(unit, RECORDS * (9 + key(0, 0).len() + VALUE.len()));
        assert_eq!(puts(".data") % unit, 0, "distinct keys: a merge writes its inputs' bytes");
        let units = puts(".data") / unit;

        let image: usize = log.iter().filter(|op| is_sst(&op.1)).take(3).map(|op| op.2).sum();
        let (device, ideal) = (puts("") as f64, (units * image) as f64);
        assert!((device - ideal).abs() <= ideal / 100.0, "{device} B written, {ideal} B of tables");

        // A merge reads all of its inputs, then writes; nothing else reads
        // SSData whole. And no table is deleted ahead of the manifest that
        // stops listing it.
        let (mut merges, mut reading, mut committed) = (Vec::new(), 0, true);
        for (op, path, _) in &log {
            match *op {
                "get_all" if path.ends_with(".data") => reading += 1,
                "put" if is_sst(path) => {
                    merges.extend((reading > 0).then_some(reading));
                    (reading, committed) = (0, false);
                }
                "rename" => committed |= path.ends_with("MANIFEST"),
                "delete" if is_sst(path) => assert!(committed, "{path} deleted uncommitted"),
                _ => {}
            }
        }
        (units, merges, live.into_iter().next().expect("one rank"))
    }

    /// Write amplification, exactly: a flush is rewritten once per tier it
    /// climbs, and the live tables are the base-4 digits of the flush count.
    /// (The paper's rule, all live tables at every 4th SSID, rewrites
    /// everything written so far each time: 47 and 66 units, merges of 4, 7,
    /// 10, 13 and 16 units.)
    #[test]
    fn equal_flushes_write_exactly_their_tiers() {
        let tiered = CompactionTrigger::default();
        assert_eq!(equal_flushes(tiered, 13), (25, vec![4, 4, 4], vec![5, 10, 15, 16]));
        assert_eq!(equal_flushes(tiered, 16), (44, vec![4, 4, 4, 7], vec![20]));
        let off = CompactionTrigger::Off;
        assert_eq!(equal_flushes(off, 5), (5, vec![], vec![1, 2, 3, 4, 5]));
    }

    /// A partial merge that meets `ENOSPC` leaves its inputs live and listed
    /// by the manifest and says so once, typed; the next flush's pick takes
    /// them again.
    #[test]
    fn a_partial_merge_out_of_space_keeps_its_inputs_for_the_next_flush() {
        // The device is full from a virtual time the flushes never reach.
        let full_from = 1 << 40;
        let full = FaultEvent::NvmEnospc { start: full_from, end: u64::MAX };
        let plan = Arc::new(FaultPlan::with_events(1, vec![full]));
        let platform = platform_over(Arc::default());
        World::run(WorldConfig::for_tests(1).with_faults(plan), move |rank| {
            let ctx = Context::init(rank, platform.clone(), "nvm://enospc").expect("init");
            let rule = CompactionTrigger::default();
            let db = ctx.open("db", OpenFlags::create(), options(rule)).expect("open");
            (0..7).for_each(|flush| fill(&db, flush));
            assert_eq!(live(&db), vec![5, 6, 7, 8]);

            // The compaction task is idle: merge the three newest tables
            // from here, at a time the device is full.
            run_merge_compaction(&db.ctx, &db.inner, 3, full_from);
            let errors = db.take_io_errors();
            assert!(
                matches!(&errors[..], [Error::StorageFull(what)] if what.contains("compaction")),
                "{errors:?}"
            );
            assert_eq!(live(&db), vec![5, 6, 7, 8]);
            let manifest = ckpt::read_manifest(&ctx.inner.repo_store(), "enospc", "db", 0);
            assert_eq!(manifest, ckpt::ManifestRead::Present(9, vec![5, 6, 7, 8]));

            // SSID 9 went with the failed merge; the flush of 10 finds four
            // tier-0 tables again.
            fill(&db, 7);
            assert_eq!(db.take_io_errors(), vec![]);
            assert_eq!(live(&db), vec![5, 11]);
            assert!(audit_db(&db).is_clean(), "{}", audit_db(&db).render());
            for flush in 0..8 {
                assert_eq!(&db.get(&key(flush, 7 * flush)).unwrap()[..], &VALUE);
            }
            db.close().expect("close");
            ctx.finalize().expect("finalize");
        });
    }

    /// A merge that fails leaves tables of a lower tier in front of an older
    /// one of a higher. The next merge takes them all, the older table too:
    /// left behind a larger output it would be no run's peer again, and no
    /// merge would be of the whole list. Fan-in 2: table 3 holds two
    /// flushes (tier 1), and the three behind the failure are tier 2 merged.
    #[test]
    fn the_survivors_of_a_failed_merge_take_the_smaller_table_behind_them() {
        use papyrus_nvm::Backend;
        let backend = Arc::new(CountingBackend::default());
        let platform = platform_over(backend.clone());
        World::run(WorldConfig::for_tests(1), move |rank| {
            let ctx = Context::init(rank, platform.clone(), "nvm://stranded").expect("init");
            let opt =
                options(CompactionTrigger::Tiered { fan_in: 2 }).with_memtable_capacity(66_100);
            let db = ctx.open("db", OpenFlags::create(), opt).expect("open");
            (0..3).for_each(|flush| fill(&db, flush));
            assert_eq!(live(&db), vec![3, 4]);

            // Table 4's SSData is out of reach while the flush of table 5
            // merges all three: one typed error, every input still live.
            let data = format!("{}.data", sstable::sst_base("stranded", "db", 0, 4));
            assert!(backend.rename(&data, "elsewhere"));
            fill(&db, 3);
            let errors = db.take_io_errors();
            assert!(
                matches!(&errors[..], [Error::DataLoss(what)] if what.contains("compaction")),
                "{errors:?}"
            );
            assert_eq!(live(&db), vec![3, 4, 5]);
            assert!(backend.rename("elsewhere", &data));

            fill(&db, 4);
            assert_eq!(db.take_io_errors(), vec![]);
            assert_eq!(live(&db), vec![8], "no older, smaller table behind the output");
            assert!(audit_db(&db).is_clean(), "{}", audit_db(&db).render());
            for flush in 0..5 {
                assert_eq!(&db.get(&key(flush, 9 * flush)).unwrap()[..], &VALUE);
            }
            db.close().expect("close");
            ctx.finalize().expect("finalize");
        });
    }

    /// A migration's batches are a function of the frozen staging table's
    /// entries, not of the order they were put in: the same remote entries
    /// (owners 0–2 of 3 ranks, two copies each, keys inline and boxed), put
    /// in key order and in a scrambled one, plan the same shipments, record
    /// for record. Hash order never reaches the wire.
    #[test]
    fn a_migration_plan_does_not_depend_on_insertion_order() {
        let platform = Platform::new(SystemProfile::test_profile(), 3);
        World::run(WorldConfig::for_tests(3), move |rank| {
            let ctx = Context::init(rank, platform.clone(), "nvm://plan").expect("init");
            let opt = Options::default().with_replicas(2);
            let db = ctx.open("db", OpenFlags::create(), opt).expect("open");
            let entries: Vec<(Vec<u8>, Entry)> = (0..300u32)
                .map(|i| {
                    let key = format!("{i:0width$}", width = 1 + (i as usize % 5) * 8);
                    let value = Bytes::from(vec![i as u8; i as usize % 17]);
                    (key.into_bytes(), Entry::remote(value, i % 7 == 0, i % 3))
                })
                .collect();
            let plan = |order: &mut dyn Iterator<Item = &(Vec<u8>, Entry)>| {
                let mut mt = MemTable::new();
                order.for_each(|(key, e)| mt.insert(key, e.clone()));
                let plan = plan_migration(&ctx.inner, &db.inner, &mt);
                plan.into_iter().map(|s| (s.to, s.copy_of, s.records)).collect::<Vec<_>>()
            };
            let in_order = plan(&mut entries.iter());
            let scrambled =
                plan(&mut entries.iter().rev().step_by(2).chain(entries.iter().step_by(2)));
            // Two owners' batches and three owners' copies.
            assert_eq!(in_order.len(), 5);
            assert_eq!(in_order, scrambled);
            db.close().expect("close");
            ctx.finalize().expect("finalize");
        });
    }
}
