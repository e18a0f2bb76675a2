//! The multi-rank workload one chaos schedule runs on a world armed with
//! its fault plan.
//!
//! A Figure-6-style put/get job at `cfg.ranks` ranks: every rank owns a
//! writer namespace (`k<rank>-<i>`) whose keys hash across all owners, so
//! each round produces local writes, staged remote writes, migrations, and
//! cross-rank reads. Rounds are separated by collective barriers and by
//! explicit virtual-time steps sized so the middle rounds land inside the
//! plan's fault windows and the verify phase lands past its horizon:
//!
//! 1. **Rounds 1..=N** — each rank overwrites its keys with the round's
//!    value, reads a couple of peer keys (phantom/typing checks only —
//!    migrations may be in flight), then barriers; a successful barrier
//!    promotes that rank's `Ok` puts to *acknowledged* in the oracle.
//! 2. **Mid-run extras** (round 2, fault windows active, no kill planned):
//!    a sequential-consistency phase (synchronous remote puts — the
//!    `PUT_SYNC` retry path) and an asynchronous checkpoint whose
//!    [`papyruskv::Event::wait_result`] must be `Ok` or typed.
//! 3. **Verify** — advance past [`FaultPlan::horizon`], final barrier, then
//!    probe every key ever written and judge each observation strictly.
//!
//! Rank death is the plan's: a rank observing its own kill time stops
//! participating immediately (no close, no finalize — its helper threads
//! are abandoned, as a real dead process would abandon its). Survivors see
//! the failed barrier as a typed [`Error::RankUnavailable`], switch to
//! degraded mode, keep serving local and surviving-rank keys, and skip the
//! collective close — that is the degraded-semantics contract under test.

use std::sync::Arc;

use papyrus_faultinject::FaultPlan;
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyrus_sanity::ViolationKind;
use papyruskv::error::Error;
use papyruskv::{BarrierLevel, Consistency, Context, OpenFlags, Options, Platform};

use crate::oracle::{error_is_typed, value_for, ChaosOracle};

/// PapyrusKV repository string for chaos jobs.
pub const REPOSITORY: &str = "nvm://chaos";
/// Database name.
pub const DB_NAME: &str = "soak";
/// Checkpoint destination on the PFS (mid-run extras phase).
pub const CKPT_DEST: &str = "pfs-chaos/snap";

/// Soak sizing.
#[derive(Debug, Clone)]
pub struct ChaosCfg {
    /// Ranks per schedule.
    pub ranks: usize,
    /// Keys per writer rank.
    pub per_rank: usize,
    /// Overwrite rounds per schedule.
    pub rounds: u32,
    /// Virtual horizon handed to [`FaultPlan::generate`]; rounds step
    /// through it so fault windows overlap real traffic.
    pub horizon_ns: u64,
    /// Schedules in the default sweep (classes cycle per seed).
    pub seeds: usize,
    /// Replication factor handed to [`Options::with_replicas`]. At 1
    /// (default) the soak judges the paper's unreplicated semantics: keys
    /// of a killed owner may become unavailable. At >= 2 the oracle drops
    /// that exemption — an acked write must stay readable through a
    /// single rank kill (read failover + re-replication under test).
    pub replicas: usize,
    /// Print per-schedule progress.
    pub verbose: bool,
}

impl Default for ChaosCfg {
    fn default() -> Self {
        Self {
            ranks: 4,
            per_rank: 6,
            rounds: 3,
            horizon_ns: 4_000_000_000,
            seeds: 20,
            replicas: 1,
            verbose: false,
        }
    }
}

impl ChaosCfg {
    /// A minimal configuration for unit/CI tests in debug builds.
    pub fn tiny() -> Self {
        Self { per_rank: 3, rounds: 2, seeds: 5, ..Self::default() }
    }
}

/// What one rank did and saw in a schedule.
#[derive(Debug, Default, Clone)]
pub struct RankOutcome {
    pub puts: usize,
    pub gets: usize,
    /// Typed errors surfaced to the application (all legal).
    pub typed_errors: usize,
    /// This rank was killed by the plan and stopped participating.
    pub died: bool,
    /// This rank observed a dead peer and finished in degraded mode.
    pub degraded: bool,
}

/// Key `i` of writer rank `w` (relaxed rounds).
pub fn key(writer: usize, i: usize) -> Vec<u8> {
    format!("k{writer}-{i:03}").into_bytes()
}

/// Key `i` of writer rank `w` (sequential-consistency phase).
pub fn seq_key(writer: usize, i: usize) -> Vec<u8> {
    format!("s{writer}-{i:03}").into_bytes()
}

/// Count a typed error, or convict the schedule of an untyped one.
fn note_error(
    oracle: &ChaosOracle,
    e: &Error,
    what: &str,
    seed: u64,
    rank: usize,
    out: &mut RankOutcome,
) {
    if error_is_typed(e) {
        out.typed_errors += 1;
    } else {
        oracle.convict(
            ViolationKind::UntypedError,
            format!("seed {seed} rank {rank}: {what} surfaced untyped error {e:?}"),
        );
    }
}

/// Run one schedule on a world armed with `plan` and return each rank's
/// outcome. Violations are collected in `oracle` ([`ChaosOracle::convict`]).
pub fn run_schedule(
    cfg: &ChaosCfg,
    plan: Arc<FaultPlan>,
    oracle: Arc<ChaosOracle>,
) -> Vec<RankOutcome> {
    let platform = Platform::new(SystemProfile::test_profile(), cfg.ranks);
    let cfg = cfg.clone();
    let seed = plan.seed();
    let world = WorldConfig::for_tests(cfg.ranks).with_faults(plan.clone());
    World::run(world, move |rank| {
        let ctx =
            Context::init_with_group(rank, platform.clone(), REPOSITORY, 1).expect("chaos init");
        let db = ctx
            .open(DB_NAME, OpenFlags::create(), Options::small().with_replicas(cfg.replicas))
            .expect("chaos open");
        let me = ctx.rank();
        let n = ctx.size();
        let step = cfg.horizon_ns / u64::from(cfg.rounds + 1);
        let mut out = RankOutcome::default();

        'rounds: for r in 1..=cfg.rounds {
            // Overwrite this rank's namespace with the round's values.
            for i in 0..cfg.per_rank {
                if plan.rank_dead(me, ctx.now()) {
                    out.died = true;
                    break 'rounds;
                }
                let k = key(me, i);
                oracle.will_put(&k, r);
                match db.put(&k, &value_for(&k, r, me)) {
                    Ok(()) => {
                        oracle.put_ok(&k, r);
                        out.puts += 1;
                    }
                    Err(e) => note_error(&oracle, &e, "put", seed, me, &mut out),
                }
            }
            // Cross-rank reads while faults are live: phantom + typing only.
            for j in 0..2usize {
                if plan.rank_dead(me, ctx.now()) {
                    out.died = true;
                    break 'rounds;
                }
                let w = (me + 1 + j) % n;
                let k = key(w, (r as usize + j) % cfg.per_rank);
                let got = db.get_opt(&k);
                out.gets += 1;
                if got.is_err() {
                    out.typed_errors += 1;
                }
                // With replication on, a dead owner is no excuse: the ring
                // must keep acked keys readable, so the exemption is dropped.
                let owner_dead = plan.rank_dead(db.owner_of(&k), ctx.now()) && cfg.replicas < 2;
                if let Some((kind, detail)) = oracle.judge(&k, &got, owner_dead, false) {
                    oracle
                        .convict(kind, format!("seed {seed} round {r} rank {me} (live): {detail}"));
                }
            }
            // Collective sync point; success acknowledges this rank's puts.
            if !out.degraded {
                match db.barrier(BarrierLevel::MemTable) {
                    Ok(()) => {
                        for i in 0..cfg.per_rank {
                            oracle.ack_key(&key(me, i));
                        }
                    }
                    Err(Error::RankUnavailable(_)) => out.degraded = true,
                    Err(e) => {
                        note_error(&oracle, &e, "barrier", seed, me, &mut out);
                        out.degraded = true;
                    }
                }
            }
            // Mid-run extras, while fault windows are still active. Gated on
            // plan properties (identical on every rank) so the collectives
            // never diverge.
            if r == cfg.rounds.min(2) && !plan.has_kill() && !out.degraded {
                sequential_phase(&db, &oracle, &plan, r, me, &mut out);
                match db.checkpoint(CKPT_DEST) {
                    Ok(ev) => {
                        if let Err(e) = ev.wait_result() {
                            note_error(&oracle, &e, "checkpoint", seed, me, &mut out);
                        }
                    }
                    Err(e) => note_error(&oracle, &e, "checkpoint", seed, me, &mut out),
                }
            }
            ctx.clock().advance(step);
        }

        // A rank whose kill time passed while it was inside a collective
        // sees its own death as a failed barrier; it is still dead.
        if plan.rank_dead(me, ctx.now()) {
            out.died = true;
        }
        if !out.died {
            // Quiesce: ride past every fault window, then one final sync.
            ctx.clock().advance(plan.horizon().saturating_add(cfg.horizon_ns / 10));
            if !out.degraded {
                match db.barrier(BarrierLevel::MemTable) {
                    Ok(()) => {
                        for i in 0..cfg.per_rank {
                            oracle.ack_key(&key(me, i));
                        }
                    }
                    Err(Error::RankUnavailable(_)) => out.degraded = true,
                    Err(e) => {
                        note_error(&oracle, &e, "final barrier", seed, me, &mut out);
                        out.degraded = true;
                    }
                }
            }
            // Strict verify: probe every key anyone ever wrote.
            for k in oracle.all_keys() {
                // With replication on, a dead owner is no excuse: the ring
                // must keep acked keys readable, so the exemption is dropped.
                let owner_dead = plan.rank_dead(db.owner_of(&k), ctx.now()) && cfg.replicas < 2;
                let got = db.get_opt(&k);
                out.gets += 1;
                if got.is_err() {
                    out.typed_errors += 1;
                }
                if let Some((kind, detail)) = oracle.judge(&k, &got, owner_dead, true) {
                    oracle.convict(kind, format!("seed {seed} rank {me} (verify): {detail}"));
                }
            }
            // Background flush/compaction/migration failures must be typed.
            for e in db.take_io_errors() {
                note_error(&oracle, &e, "background io", seed, me, &mut out);
            }
            if !out.degraded {
                if let Err(e) = db.close() {
                    note_error(&oracle, &e, "close", seed, me, &mut out);
                } else if let Err(e) = ctx.finalize() {
                    note_error(&oracle, &e, "finalize", seed, me, &mut out);
                }
            }
            // Degraded ranks skip the collective close/finalize: those
            // barriers cannot complete with a dead member. Their helper
            // threads are abandoned with the job, like the victim's.
        }
        out
    })
}

/// Sequential-consistency phase: synchronous remote puts are their own
/// synchronisation points, so an `Ok` acknowledges immediately.
fn sequential_phase(
    db: &papyruskv::Db,
    oracle: &ChaosOracle,
    plan: &FaultPlan,
    round: u32,
    me: usize,
    out: &mut RankOutcome,
) {
    let seed = plan.seed();
    match db.set_consistency(Consistency::Sequential) {
        Ok(()) => {
            for i in 0..2 {
                let k = seq_key(me, i);
                oracle.will_put(&k, round);
                match db.put(&k, &value_for(&k, round, me)) {
                    Ok(()) => {
                        oracle.put_ok(&k, round);
                        oracle.ack_key(&k);
                        out.puts += 1;
                    }
                    Err(e) => note_error(oracle, &e, "sync put", seed, me, out),
                }
            }
            if let Err(e) = db.set_consistency(Consistency::Relaxed) {
                note_error(oracle, &e, "set_consistency", seed, me, out);
            }
        }
        Err(e) => note_error(oracle, &e, "set_consistency", seed, me, out),
    }
}
