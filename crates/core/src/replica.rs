//! Replication (DESIGN §11): fan-out of put batches to successor ranks,
//! per-origin replica stacks, read failover, promotion and
//! re-replication.
//!
//! Replication is writer-driven: the application thread (sequential mode)
//! or the dispatcher thread (relaxed mode) fans a put batch out to the
//! owner's successor ranks. The message handler only ever ingests replica
//! batches locally — it never forwards or blocks on another rank's ack —
//! so synchronous writers waiting on `REPL_ACK` cannot close a cross-rank
//! cycle of blocked handlers.

use std::sync::Arc;

use papyrus_simtime::{Clock, SimNs};
use papyrus_telemetry::{TID_DISPATCH, TID_HANDLER};

use crate::db::DbInner;
use crate::error::{Error, Result};
use crate::msg::{self, tags, Batch};
use crate::read::{absorb_reply, reply_of, walk_ssts};
use crate::runtime::{self, CtxInner, MigrateJob};
use crate::sstable::{self, SstGet};
use crate::stack::Stack;
use crate::write::build_riding_out;

/// Copy `records` (owned by `origin`) to one successor rank. Returns the
/// arrive/ack stamp.
fn copy_to_successor(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    dst: usize,
    origin: usize,
    records: &Batch,
    stamp: SimNs,
) -> Result<SimNs> {
    let encode = &mut |seq| records.repl_put(db.id, origin as u32, seq != 0, seq);
    let arrive = runtime::send_batch(
        ctx,
        db,
        (dst, tags::REPL_PUT, tags::REPL_ACK),
        "replica forward",
        stamp,
        encode,
    )?;
    if db.tel.on() {
        db.tel.repl_forwards.inc();
        db.tel.repl_lag_ns.record(arrive.saturating_sub(stamp));
    }
    Ok(arrive)
}

/// Fan `records` out to every successor of `owner` (self-copies are
/// applied locally). With `sync` set (sequential-consistency writers) a
/// non-fatal delivery failure other than a confirmed-dead successor
/// aborts the put so the caller never acks an under-replicated write;
/// without it (dispatcher batches) every failure lands in `io_errors`
/// and the remaining successors still get their copy. A confirmed-dead
/// successor is always non-fatal: the primary copy is intact and the
/// ring is merely degraded until re-replication heals it.
pub(crate) fn forward_replicas(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    owner: usize,
    records: &Batch,
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
        match copy_to_successor(ctx, db, s, owner, records, stamp) {
            Ok(arrive) => last = last.max(arrive),
            Err(e) if sync && !matches!(e, Error::RankUnavailable(_)) => return Err(e),
            Err(e) => db.io_errors.lock().push(e),
        }
    }
    Ok(last)
}

/// Handler-side (or self-copy) ingestion of a replica batch into the
/// per-origin replica stack. Purely local: inserts into the replica
/// MemTable and flushes it inline to a replica SSTable when over
/// capacity, under the `repl` lock so readers never see the gap between
/// the two (the flush's NVM I/O only advances a clock; it never parks).
/// Returns the service-completion stamp.
pub(crate) fn apply_replica_records(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    origin: usize,
    records: &Batch,
    stamp: SimNs,
) -> SimNs {
    let clk = Clock::starting_at(stamp);
    {
        let mut repl = db.repl.lock();
        let stack = repl.entry(origin as u32).or_insert_with(|| Stack::new(1, Vec::new()));
        for (key, entry) in records.entries() {
            clk.advance(db.mem.op_ns((key.len() + entry.value.len()) as u64));
            stack.mem.insert(key, entry);
        }
        if stack.mem.bytes() >= db.opt.memtable_capacity {
            flush_replica_stack(ctx, db, origin, stack, &clk);
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
    stack: &mut Stack,
    clk: &Clock,
) {
    let Some(mt) = stack.freeze() else { return };
    let ssid = stack.alloc_ssid();
    let base = sstable::repl_sst_base(&ctx.repo.prefix, &db.name, ctx.rank.rank(), origin, ssid);
    // Replica data backs acked writes, so like `run_flush` the build must
    // not drop it.
    let what = format_args!("replica flush rep{origin}-sst{ssid}");
    let (reader, done) = build_riding_out(db, &ctx.repo_store(), &base, ssid, &mt, clk.now(), what);
    clk.merge(done);
    stack.retire(&mt, reader);
}

/// Search the replica stack held for `origin`.
pub(crate) fn replica_lookup(db: &DbInner, origin: usize, key: &[u8], clk: &Clock) -> SstGet {
    let repl = db.repl.lock();
    let Some(stack) = repl.get(&(origin as u32)) else { return SstGet::NotFound };
    match db.get_mem(stack, key, clk) {
        Some(e) => e.into(),
        None => walk_ssts(db, stack.ssts.iter().rev(), key, clk),
    }
}

/// Read failover (R >= 2): the owner is confirmed dead, so walk its
/// successors in ring order and serve the get from the first live
/// replica. A self-copy is read directly from the local replica stack.
pub(crate) fn failover_get(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    key: &[u8],
    owner: usize,
    clock: &Clock,
) -> Result<SstGet> {
    let me = ctx.rank.rank();
    let n = ctx.rank.size();
    if db.tel.on() {
        db.tel.repl_failovers.inc();
    }
    let cache = db.live_remote_cache(db.state.read().protection);
    let mut last_err = Error::RankUnavailable(owner);
    for s in papyrus_replica::successors(owner, n, db.repl_n) {
        if s == me {
            // This rank holds a replica itself: promote if first-live, then
            // answer from the local replica stack.
            maybe_promote(ctx, db, owner);
            return Ok(replica_lookup(db, owner, key, clock));
        }
        if ctx.comm_req.rank_known_dead(s) {
            continue;
        }
        let encode = &mut |seq| msg::encode_get_req(db.id, owner as u32, seq, key);
        match runtime::request(
            ctx,
            db,
            (s, tags::REPL_GET, tags::REPL_RESP),
            "failover get",
            encode,
        ) {
            Ok(m) => return Ok(absorb_reply(cache, key, reply_of(m))),
            Err(e @ Error::RankUnavailable(_)) => last_err = e,
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
    // Counted in `migration_inflight` so `fence` doubles as the
    // re-replication drain point.
    db.sync.lock().migration_inflight += 1;
    ctx.migrate_q.push(MigrateJob::Rereplicate {
        db: db.clone(),
        origin: dead,
        stamp: ctx.clock().now(),
    });
}

/// Everything this rank replicates for `origin`, newest writer wins
/// across the replica MemTable and replica SSTables. Tombstones are kept
/// as records — re-replication must propagate deletions.
pub(crate) fn replica_records(db: &Arc<DbInner>, origin: usize) -> Batch {
    db.repl.lock().get(&(origin as u32)).map_or_else(Batch::default, Stack::records)
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
    let bytes: u64 = records.records().map(|r| (r.key.len() + r.value.len()) as u64).sum();
    let mut last = stamp;
    if !records.is_empty() {
        for t in targets {
            match copy_to_successor(ctx, db, t, origin, &records, stamp) {
                Ok(done) => {
                    last = last.max(done);
                    db.migrate_backlog.merge(done);
                    if db.tel.on() {
                        db.tel.repl_rereplicated_bytes.add(bytes);
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
