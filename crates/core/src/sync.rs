//! Synchronisation: barrier marks, fence, collective barrier and close
//! (paper §3.1).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use papyrus_faultinject as fi;
use papyrus_simtime::SimNs;
use papyrus_telemetry::{TID_APP, TID_HANDLER};

use crate::db::{DbInner, DbSync};
use crate::error::{Error, Result};
use crate::msg::{self, Request};
use crate::options::BarrierLevel;
use crate::replica::maybe_promote;
use crate::runtime::{collect_acks, CtxInner};
use crate::write::{freeze, Side};

/// Record a barrier mark received by the handler.
pub(crate) fn note_barrier_mark(db: &Arc<DbInner>, epoch: u64, stamp: SimNs) {
    let mut sync = db.sync.lock();
    let slot = sync.barrier_marks.entry(epoch).or_insert((0, 0));
    slot.0 += 1;
    slot.1 = slot.1.max(stamp);
    db.tel.rec.instant("core", "barrier.mark", TID_HANDLER, stamp);
    db.sync_cv.notify_all();
}

/// Collective close: synchronise, flush everything to SSTables, and mark
/// the handle invalid. SSTables are retained for zero-copy reopen (§4.1).
pub(crate) fn close_inner(ctx: &Arc<CtxInner>, db: &Arc<DbInner>) -> Result<()> {
    if db.check_open().is_err() {
        return Ok(());
    }
    barrier_inner(ctx, db, BarrierLevel::SsTable)?;
    // After the close barrier every epoch this rank entered has completed,
    // so a leftover mark means a reconciliation round failed to consume
    // exactly n marks. Under the same guard the database releases its
    // stacks: their locks nest inside it, so no release of theirs is a
    // preemption point the close did not already have.
    let stale = {
        let sync = db.sync.lock();
        db.release();
        db.stale_barrier_marks(&sync)
    };
    for (e, count) in stale {
        let what = format!(
            "db {}: rank {} closing with leftover barrier marks for completed \
             epoch {e} (count {count})",
            db.name,
            ctx.rank.rank()
        );
        eprintln!("papyruskv: {what}");
        db.io_errors.lock().push(Error::Internal(what));
    }
    // ordering: publishes the close — the barrier's flushes included — to
    // whichever thread's `check_open` then refuses an operation.
    db.closed.store(true, Ordering::Release);
    Ok(())
}

/// Fence (§3.1): migrate the remote MemTable and every immutable remote
/// MemTable to the owner ranks immediately; returns when the migration
/// queue has drained and, in an armed world, every batch it sent is acked
/// or has failed into `io_errors`. A promotion while the acks are collected
/// queues a re-replication, which drains too.
pub(crate) fn fence_inner(ctx: &CtxInner, db: &Arc<DbInner>) -> Result<()> {
    let clock = ctx.clock();
    let start = clock.now();
    freeze(ctx, db, Side::Staging, start);
    db.wait_drained(Side::Staging);
    while collect_acks(ctx, db) {
        db.wait_drained(Side::Staging);
    }
    clock.merge(db.migrate_backlog.now());
    if db.tel.on() {
        let end = clock.now();
        db.tel.fence_wait_ns.record(end.saturating_sub(start));
        db.tel.rec.span("core", "fence.wait", TID_APP, start, end);
    }
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
        ctx.comm_req.send(r, Request::BarrierMark.tag(), mark.clone());
    }
    // A barrier that names a dead rank runs the promotion check for it.
    let promote = |dead| {
        maybe_promote(ctx, db, dead);
        Error::RankUnavailable(dead)
    };
    clock.merge(await_barrier_marks(ctx, db, epoch, n).map_err(promote)?);
    clock.merge(db.ingest_backlog.now());

    if level == BarrierLevel::SsTable {
        freeze(ctx, db, Side::Local, clock.now());
        db.wait_drained(Side::Local);
        clock.merge(db.flush_backlog.now());
    }

    ctx.comm_ctl.try_barrier().map_err(promote)?;
    if db.tel.on() {
        let end = clock.now();
        db.tel.barrier_wait_ns.record(end.saturating_sub(barrier_start));
        db.tel.rec.span("core", "barrier.wait", TID_APP, barrier_start, end);
    }
    Ok(())
}

/// Wait for all `n` barrier marks of `epoch`; returns the max mark stamp.
/// On an armed world a dead rank never sends its mark, so whenever the wait
/// times out — no other task can run — it probes the failure detector
/// (outside the sync lock): the first confirmed-dead rank is returned
/// instead of hanging the barrier.
fn await_barrier_marks(
    ctx: &CtxInner,
    db: &DbInner,
    epoch: u64,
    n: usize,
) -> std::result::Result<SimNs, usize> {
    let timed = ctx.faults().is_some();
    loop {
        {
            let mut sync = db.sync.lock();
            if let Some(&(count, stamp)) = sync.barrier_marks.get(&epoch) {
                if count == n {
                    sync.barrier_marks.remove(&epoch);
                    return Ok(stamp);
                }
            }
            if !timed {
                db.sync_cv.wait(&mut sync);
                continue;
            }
            if !db.sync_cv.wait_until_quiet(&mut sync).timed_out() {
                continue; // woken by a new mark: re-check under the lock
            }
        }
        // Nothing else can run and marks are missing: waiting burns virtual
        // time too (without this a waiter whose clock lags the plan's kill
        // times would probe "alive" forever), then suspect a dead sender.
        // Self counts — see `Communicator::any_dead_member`.
        ctx.clock().advance(fi::PROBE_DEADLINE_CAP_NS);
        if let Some((_, world)) = ctx.comm_req.any_dead_member() {
            return Err(world);
        }
    }
}

impl DbInner {
    /// Block until `side`'s queue has drained.
    fn wait_drained(&self, side: Side) {
        let mut sync = self.sync.lock();
        while *sync.slots(side) > 0 {
            self.sync_cv.wait(&mut sync);
        }
    }

    /// Barrier marks left over for epochs this rank has completed, as
    /// (epoch, count). Marks for later epochs are in-flight arrivals for a
    /// barrier this rank has not entered yet — legitimate. Marks for
    /// completed epochs should have been consumed exactly at count == n.
    pub(crate) fn stale_barrier_marks(&self, sync: &DbSync) -> Vec<(u64, usize)> {
        // ordering: SeqCst pairs with the barrier's epoch fetch_add; an
        // audit must see every epoch a completed barrier entered.
        let epoch = self.barrier_epoch.load(Ordering::SeqCst);
        let stale = sync.barrier_marks.iter().filter(|(&e, _)| e < epoch);
        stale.map(|(&e, &(count, _))| (e, count)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{OpenFlags, Options};
    use crate::runtime::{Context, Platform};
    use papyrus_mpi::{World, WorldConfig};
    use papyrus_nvm::SystemProfile;

    /// A barrier mark for an epoch that has completed is one a
    /// reconciliation round failed to consume: close reports it on the
    /// handle's typed-error sink, in every world.
    #[test]
    fn close_reports_a_leftover_mark_of_a_completed_epoch() {
        let platform = Platform::new(SystemProfile::test_profile(), 1);
        let errors = World::run(WorldConfig::for_tests(1), move |rank| {
            let ctx = Context::init(rank, platform.clone(), "nvm://stale-mark").expect("init");
            let db = ctx.open("db", OpenFlags::create(), Options::default()).expect("open");
            db.barrier(BarrierLevel::MemTable).expect("barrier");
            note_barrier_mark(&db.inner, 0, ctx.clock().now());
            db.close().expect("close");
            ctx.finalize().expect("finalize");
            db.take_io_errors()
        });
        let [Error::Internal(what)] = &errors[0][..] else {
            panic!("one internal error expected, got {:?}", errors[0]);
        };
        assert!(what.contains("leftover barrier marks for completed epoch 0"), "{what}");
    }
}
