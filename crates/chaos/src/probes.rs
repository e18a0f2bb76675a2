//! Deterministic replication probes: targeted single-kill schedules that
//! pin down the two behaviours the sweep can only observe statistically.
//!
//! Both probes run a 4-rank world at replication factor 2 with exactly one
//! planted [`FaultEvent::RankKill`] and a fixed key set, so a failure here
//! replays bit-for-bit. They are stricter than the sweep: instead of
//! judging observations through the oracle they assert the exact outcome —
//! every key acked before the kill must read back its value through
//! failover, and re-replication must converge the ring back to `R` copies
//! (checked against the heal target's replica tables directly).
//!
//! Probe geometry (`VICTIM = 3`, n = 4, R = 2): the victim's one successor
//! is rank 0, so rank 0 serves failover gets (locally) and ranks 1..2 fetch
//! from it over `REPL_GET`; rank 0 also wins the promotion claim and
//! re-replicates the promoted ranges to the heal target, rank 1.

use std::sync::Arc;

use papyrus_faultinject::{FaultEvent, FaultPlan};
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::{BarrierLevel, Context, OpenFlags, Options, Platform};

/// Ranks in a probe world.
pub const PROBE_RANKS: usize = 4;
/// The rank the plan kills.
pub const VICTIM: usize = 3;
/// Virtual kill time: after the acking barrier, before the reads.
pub const KILL_AT: u64 = 2_000_000_000;
/// Pinned plan seed (replayable).
pub const PROBE_SEED: u64 = 0x5EED_FA11;
/// Keys owned by the victim that each rank writes.
pub const KEYS_PER_RANK: usize = 4;
/// Signal number: "re-replication has converged on the promoted rank".
const SIG_HEALED: u32 = 7;

/// What one probe rank observed.
#[derive(Debug, Default, Clone)]
pub struct ProbeOutcome {
    /// Acked keys this rank read back correctly after the kill.
    pub reads_ok: usize,
    /// Acked keys that were unreadable or wrong after the kill.
    pub reads_bad: Vec<String>,
    /// Victim-owned pairs visible in this rank's replica tables at the end
    /// (the heal target uses this to prove convergence).
    pub replica_pairs: usize,
    /// This rank won the promotion claim for the victim.
    pub promoted: bool,
}

/// The first `KEYS_PER_RANK` keys written by `writer` that hash to the
/// victim. Deterministic given the database's hash, so every rank can
/// enumerate every writer's victim-owned keys without coordination.
fn victim_keys(db: &papyruskv::Db, writer: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for j in 0.. {
        let k = format!("v{writer}-{j:03}").into_bytes();
        if db.owner_of(&k) == VICTIM {
            out.push(k);
            if out.len() == KEYS_PER_RANK {
                break;
            }
        }
    }
    out
}

fn value_of(key: &[u8]) -> Vec<u8> {
    let mut v = b"val:".to_vec();
    v.extend_from_slice(key);
    v
}

/// Run the pinned single-kill schedule and return per-rank outcomes.
///
/// Every rank writes `KEYS_PER_RANK` victim-owned keys, acks them with a
/// collective barrier, rides past the kill, then reads back *all* acked
/// keys (its own and every peer's). The promoted rank additionally drains
/// re-replication with a fence and signals the heal target, which then
/// counts the victim's pairs in its own replica tables.
pub fn replication_probe() -> Vec<ProbeOutcome> {
    let plan = Arc::new(FaultPlan::with_events(
        PROBE_SEED,
        vec![FaultEvent::RankKill { rank: VICTIM, at: KILL_AT }],
    ));
    let platform = Platform::new(SystemProfile::test_profile(), PROBE_RANKS);
    let world = WorldConfig::for_tests(PROBE_RANKS).with_faults(plan.clone());
    World::run(world, move |rank| {
        let ctx = Context::init_with_group(rank, platform.clone(), "nvm://chaos-probe", 1)
            .expect("probe init");
        let db = ctx
            .open("probe", OpenFlags::create(), Options::small().with_replicas(2))
            .expect("probe open");
        let me = ctx.rank();
        let mut out = ProbeOutcome::default();

        // Phase 1 (before the kill): write, then ack with a barrier. The
        // barrier's FIFO marks prove every successor ingested its copies.
        for k in victim_keys(&db, me) {
            db.put(&k, &value_of(&k)).expect("probe put");
        }
        db.barrier(BarrierLevel::MemTable).expect("probe ack barrier");

        // Phase 2: ride the virtual clock past the kill. The victim stops
        // participating exactly as a sweep victim would — no close, no
        // finalize, helper threads abandoned with the job.
        ctx.clock().advance(KILL_AT + KILL_AT / 2);
        if plan.rank_dead(me, ctx.now()) {
            return out;
        }

        // Phase 3: every acked key must still read back, dead owner and
        // all. Rank 0 answers from its own replica tables (and promotes);
        // ranks 1..2 fail over via REPL_GET to rank 0.
        for w in 0..PROBE_RANKS {
            for k in victim_keys(&db, w) {
                match db.get_opt(&k) {
                    Ok(Some(v)) if v == value_of(&k) => out.reads_ok += 1,
                    other => {
                        out.reads_bad.push(format!("{}: {other:?}", String::from_utf8_lossy(&k)));
                    }
                }
            }
        }

        // Phase 4: convergence. The promoted rank drains the background
        // re-replication job (fence counts it as an in-flight migration)
        // and then tells the heal target to inspect its replica tables.
        let survivors: Vec<usize> = (0..PROBE_RANKS).filter(|&r| r != VICTIM).collect();
        let first_successor = (VICTIM + 1) % PROBE_RANKS;
        if me == first_successor {
            db.fence().expect("probe fence");
            out.promoted = true;
            ctx.signal_notify(SIG_HEALED, &survivors).expect("probe notify");
        }
        ctx.signal_wait(SIG_HEALED, &[first_successor]).expect("probe wait");
        out.replica_pairs = papyruskv::sanity::replica_visible(&db, VICTIM)
            .iter()
            .filter(|(_, v)| v.is_some())
            .count();

        // Degraded world: the collective close/finalize cannot complete
        // with a dead member, so survivors skip it like the sweep does.
        out
    })
}
