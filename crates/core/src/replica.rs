//! Replication (DESIGN §11): fan-out of put batches to successor ranks,
//! per-origin replica stacks, read failover, promotion and
//! re-replication.
//!
//! Replication is writer-driven: the application thread (sequential mode)
//! or the dispatcher task (relaxed mode) fans a put batch out to the
//! owner's successor ranks. The message handler only ever ingests replica
//! batches locally — it never forwards or blocks on another rank's ack —
//! so synchronous writers waiting on `REPL_ACK` cannot close a cross-rank
//! cycle of blocked handlers.

use std::sync::Arc;

use papyrus_simtime::{Clock, SimNs};
use papyrus_telemetry::TID_HANDLER;

use crate::db::DbInner;
use crate::error::{Error, Result};
use crate::memtable::NO_OWNER;
use crate::msg::{self, Batch, Request};
use crate::read::{absorb_reply, reply_of, walk_ssts};
use crate::runtime::{self, CtxInner, MigrateJob, Shipment};
use crate::sstable::{self, SstGet};
use crate::stack::Stack;
use crate::write::{build_riding_out, Shipping};

/// Count a replica copy sent as of `stamp` that arrived at `arrive`.
pub(crate) fn note_forward(db: &DbInner, stamp: SimNs, arrive: SimNs) {
    if db.tel.on() {
        db.tel.repl_forwards.inc();
        db.tel.repl_lag_ns.record(arrive.saturating_sub(stamp));
    }
}

/// A sequential-consistency writer's fan-out: copy `records` to every
/// successor of `owner` (a self-copy is applied locally) before the put
/// returns — in an armed world each copy's ack is awaited. A delivery
/// failure other than a confirmed-dead successor aborts the put, so the
/// caller never acks an under-replicated write. A confirmed-dead successor
/// is non-fatal and lands in `io_errors`: the primary copy is intact and
/// the ring is merely degraded until re-replication heals it. (Relaxed
/// batches are fanned out by the migration plan, `write::plan_migration`.)
pub(crate) fn forward_replicas(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    owner: usize,
    records: &Batch,
    stamp: SimNs,
) -> Result<()> {
    let me = ctx.rank.rank();
    for s in papyrus_replica::successors(owner, ctx.rank.size(), db.repl_n) {
        if s == me {
            apply_replica_records(ctx, db, owner, records, stamp);
            continue;
        }
        let ship = Shipment { to: s, copy_of: Some(owner), records: records.clone() };
        let sent = match ctx.faults() {
            None => {
                Ok(ctx.comm_req.send_at(s, Request::ReplPut.tag(), ship.encode(db.id, 0), stamp))
            }
            Some(_) => {
                let ((route, what), encode) = (ship.route(), &mut |seq| ship.encode(db.id, seq));
                runtime::request(ctx, db, route, what, encode).map(|ack| ack.stamp)
            }
        };
        match sent {
            Ok(arrive) => note_forward(db, stamp, arrive),
            Err(e @ Error::RankUnavailable(_)) => db.io_errors.lock().push(e),
            Err(e) => return Err(e),
        }
    }
    Ok(())
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
        for enc in records.records().encoded() {
            clk.advance(db.mem.op_ns((enc.rec.key.len() + enc.rec.value.len()) as u64));
            stack.mem.put(enc, NO_OWNER);
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
        Some(rec) => rec.outcome(),
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
    let cache = db.live_remote_cache(db.state.lock().protection);
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
        match runtime::request(ctx, db, (s, Request::ReplGet), "failover get", encode) {
            Ok(m) => return reply_of(m).map(|reply| absorb_reply(cache, key, reply)),
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
    let plan = plan_rereplication(ctx, db, dead);
    let heal = Shipping::new(db.clone(), None, plan, ctx.clock().now());
    ctx.migrate_q.push(MigrateJob::Ship(heal));
}

/// Everything this rank replicates for `origin`, newest writer wins
/// across the replica MemTable and replica SSTables. Tombstones are kept
/// as records — re-replication must propagate deletions.
pub(crate) fn replica_records(db: &Arc<DbInner>, origin: usize) -> Batch {
    db.repl.lock().get(&(origin as u32)).map_or_else(Batch::default, Stack::records)
}

/// Plan one re-replication: copies of the promoted ranges of `origin` to
/// the new successor set, so the ring holds `R` copies again (DESIGN §11).
/// Runs only after a promotion claim, i.e. always under the fault plane.
fn plan_rereplication(ctx: &CtxInner, db: &Arc<DbInner>, origin: usize) -> Vec<Shipment> {
    let me = ctx.rank.rank();
    let records = replica_records(db, origin);
    if records.is_empty() {
        return Vec::new();
    }
    let is_dead = |r: usize| r == origin || ctx.comm_req.rank_known_dead(r);
    let targets = papyrus_replica::heal_set(origin, ctx.rank.size(), db.repl_n, &is_dead);
    let copy = |to| Shipment { to, copy_of: Some(origin), records: records.clone() };
    targets.into_iter().filter(|&r| r != me).map(copy).collect()
}
