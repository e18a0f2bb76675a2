//! Crash-point sweep: materialise every crash state, re-open the store,
//! and verify recovery.
//!
//! For each crash point `k` (every `stride`-th journal position) the sweep
//! builds up to `1 + 1 + reorder_cap` states:
//!
//! * **clean cut** at `k`;
//! * **torn tail** — if op `k` carries data, only the first half of its
//!   payload survives;
//! * **reorder** — each of the newest `reorder_cap` unfenced mutations
//!   before `k` is dropped individually ([`droppable_tail`]).
//!
//! Each state is checked two ways, each a world of its own (a recovery that
//! panics, or whose world ends in a deadlock or livelock verdict, is itself
//! a violation):
//!
//! 1. **NVM recovery** at the original rank count: re-open the database
//!    from the surviving bytes, run [`papyruskv::sanity::audit_db`], dump
//!    the visible pairs, and probe every key the workload ever wrote
//!    through the normal `get` path. Observations are judged by the
//!    [`crate::Oracle`]: nothing acknowledged before the governing durable mark
//!    may be lost, and nothing unacknowledged may appear.
//! 2. **Snapshot restore** at `restore_ranks ≠ ranks` — forced
//!    redistribution — whenever a completed checkpoint precedes `k`: the
//!    restored store must reproduce the snapshot exactly.
//!
//! Verdicts are values of the sweep that found them: each recovered rank
//! returns its `audit_db` findings and the typed errors its reopened
//! database carried (`data-loss`: a torn manifest, an unreadable table),
//! the oracle judges what the ranks observed, and all of it lands in the
//! [`SweepReport`] under the crash state that produced it — nothing is
//! shared with any other sweep or world of the process. With atomic
//! manifest commits and correct fencing a clean run produces **zero**
//! violations at every crash point; the `--seed-bug` self test proves each
//! seeded bug class is caught.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use bytes::Bytes;
use papyrus_mpi::{panic_message, Verdict, World, WorldConfig};
use papyrus_nvm::{Backend, MemBackend, NvmStore, StorageMap, SystemProfile};
use papyrus_sanity::ViolationKind;
use papyruskv::{Context, Db, Error, OpenFlags, Options, Platform};

use crate::journal::{droppable_tail, materialize, CrashPolicy, FaultMode};
use crate::workload::{record_workload, CrashCfg, Recorded, DB_NAME, PFS_NS, REPOSITORY};

/// One confirmed violation, tagged with the crash state that produced it.
#[derive(Debug, Clone)]
pub struct SweepViolation {
    /// Crash point (journal position).
    pub point: usize,
    /// Crash policy description.
    pub policy: String,
    /// Violation kind name (`papyrus_sanity::ViolationKind::name`).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

/// Outcome of a full sweep.
#[derive(Debug, Default)]
pub struct SweepReport {
    /// Journal length of the recorded workload.
    pub ops: usize,
    /// Crash points visited.
    pub points: usize,
    /// Crash states materialised and recovered.
    pub states: usize,
    /// Snapshot restores performed (each at `restore_ranks`).
    pub restores: usize,
    /// Crash points at which a snapshot restore ran.
    pub restore_points: Vec<usize>,
    /// `(label, journal position)` of every workload mark.
    pub marks: Vec<(String, usize)>,
    /// Everything that failed verification.
    pub violations: Vec<SweepViolation>,
}

impl SweepReport {
    /// No violations anywhere in the sweep.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Multi-line summary for CLI output.
    pub fn render(&self) -> String {
        let mut out = format!(
            "swept {} crash points ({} states, {} snapshot restores) over {} journaled ops\n",
            self.points, self.states, self.restores, self.ops
        );
        for (label, seq) in &self.marks {
            out.push_str(&format!("  mark {label:<14} @ op {seq}\n"));
        }
        if self.is_clean() {
            out.push_str("no violations\n");
        } else {
            out.push_str(&format!("{} VIOLATIONS:\n", self.violations.len()));
            for v in &self.violations {
                out.push_str(&format!(
                    "  point {} [{}] {}: {}\n",
                    v.point, v.policy, v.kind, v.detail
                ));
            }
        }
        out
    }
}

/// What one recovered rank observed.
struct RankObs {
    /// Owned visible pairs from `sanity::dump_visible` (tombstone = `None`).
    visible: Vec<(Vec<u8>, Option<Bytes>)>,
    /// `get` result for every key the workload ever wrote.
    probes: Vec<(Vec<u8>, Option<Bytes>)>,
    /// What the rank's own recovery said, as `(kind, detail)`: `audit_db`
    /// findings and the typed errors the reopened database carried.
    findings: Vec<(&'static str, String)>,
}

/// Record the workload, then sweep every crash point. `stop_on_first`
/// short-circuits at the first violating state (seed-bug mode) and walks
/// points newest-first, where a recording fault is certain to surface.
pub fn sweep(cfg: &CrashCfg, fault: FaultMode, stop_on_first: bool) -> SweepReport {
    let rec = record_workload(cfg, fault);

    let mut report = SweepReport {
        ops: rec.ops.len(),
        marks: rec.oracle.marks().iter().map(|m| (m.label.clone(), m.seq)).collect(),
        ..SweepReport::default()
    };

    let probe_keys = Arc::new(rec.oracle.keys());
    let stride = cfg.stride.max(1);
    let mut points: Vec<usize> = (0..=rec.ops.len()).step_by(stride).collect();
    if stop_on_first {
        points.reverse();
    }

    for k in points {
        report.points += 1;
        let mut policies = vec![CrashPolicy::CleanCut { point: k }];
        if let Some(op) = rec.ops.get(k) {
            if op.payload_len() >= 2 {
                policies.push(CrashPolicy::TornTail { point: k, keep: op.payload_len() / 2 });
            }
        }
        for &i in droppable_tail(&rec.ops, k).iter().rev().take(cfg.reorder_cap) {
            policies.push(CrashPolicy::Reorder { point: k, drop: vec![i] });
        }

        for policy in policies {
            let label = policy_label(&policy);
            if cfg.verbose {
                eprintln!("crashcheck: point {k} [{label}]");
            }
            report.states += 1;
            check_state(cfg, &rec, &policy, k, &label, &probe_keys, &mut report);
            if stop_on_first && !report.is_clean() {
                return report;
            }
        }
    }
    report
}

fn policy_label(policy: &CrashPolicy) -> String {
    match policy {
        CrashPolicy::CleanCut { .. } => "clean-cut".to_string(),
        CrashPolicy::TornTail { keep, .. } => format!("torn-tail keep={keep}"),
        CrashPolicy::Reorder { drop, .. } => format!("reorder drop={drop:?}"),
    }
}

/// Materialise, recover, judge; violations land in `report`.
fn check_state(
    cfg: &CrashCfg,
    rec: &Recorded,
    policy: &CrashPolicy,
    point: usize,
    label: &str,
    probe_keys: &Arc<Vec<Vec<u8>>>,
    report: &mut SweepReport,
) {
    // Everything this crash state is convicted of, as `(kind, detail)`.
    let mut found: Vec<(&'static str, String)> = Vec::new();
    let named = |(kind, detail): (ViolationKind, String)| (kind.name(), detail);

    // --- NVM recovery at the original rank count -------------------------
    let state = materialize(&rec.ops, policy);
    let recovered =
        run_guarded("nvm-recovery", point, label, || recover_nvm(cfg.ranks, &state, probe_keys));
    match recovered {
        Ok(obs) => {
            let guarantee = rec.oracle.durable_at(point).map(|m| &m.guarantee);
            for rank_obs in obs {
                for (key, val) in rank_obs.visible.iter().chain(&rank_obs.probes) {
                    let verdict = rec.oracle.judge_recovered(guarantee, key, val.as_ref());
                    found.extend(verdict.map(named));
                }
                found.extend(rank_obs.findings);
            }
        }
        Err(failed) => found.push(named(failed)),
    }

    // --- Snapshot restore with redistribution ----------------------------
    if let Some(snap) = rec.oracle.snapshot_at(point) {
        let state = materialize(&rec.ops, policy);
        let path = match &snap.kind {
            crate::oracle::MarkKind::Snapshot { path } => path,
            _ => unreachable!("snapshot_at returns snapshot marks only"),
        };
        report.restores += 1;
        report.restore_points.push(point);
        let restored = run_guarded("snapshot-restore", point, label, || {
            restore_snapshot(cfg.restore_ranks, &state, path, probe_keys)
        });
        match restored {
            Ok(obs) => {
                for rank_obs in &obs {
                    for (key, val) in rank_obs.visible.iter().chain(&rank_obs.probes) {
                        found.extend(rec.oracle.judge_restored(snap, key, val.as_ref()).map(named));
                    }
                }
                // Coverage: every snapshotted live pair must be visible again.
                let union: HashMap<&[u8], &Option<Bytes>> = obs
                    .iter()
                    .flat_map(|o| o.visible.iter())
                    .map(|(k, v)| (k.as_slice(), v))
                    .collect();
                for key in snap.guarantee.keys() {
                    if !union.contains_key(key.as_slice()) {
                        found.extend(rec.oracle.judge_restored(snap, key, None).map(named));
                    }
                }
                found.extend(obs.into_iter().flat_map(|o| o.findings));
            }
            Err(failed) => found.push(named(failed)),
        }
    }

    report.violations.extend(found.into_iter().map(|(kind, detail)| SweepViolation {
        point,
        policy: label.to_string(),
        kind: kind.to_string(),
        detail,
    }));
}

/// Run `f`, a recovery world. `Err` — a [`ViolationKind::RecoveryFailed`]
/// verdict — if it panics or its world can never finish (a hung
/// collective: the world's deadlock or livelock [`Verdict`]).
fn run_guarded<T>(
    what: &str,
    point: usize,
    label: &str,
    f: impl FnOnce() -> T,
) -> Result<T, (ViolationKind, String)> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        let how = if panic.is::<Verdict>() { "hung" } else { "panicked" };
        let detail = format!("point {point} [{label}] {what} {how}: {}", panic_message(&*panic));
        (ViolationKind::RecoveryFailed, detail)
    })
}

/// Backend for namespace `ns` in a materialised crash state (empty when
/// the namespace never appeared in the surviving prefix).
fn backend_of(state: &HashMap<String, Arc<MemBackend>>, ns: &str) -> Arc<dyn Backend> {
    state.get(ns).cloned().unwrap_or_default()
}

/// Audit, dump and probe a recovered database on rank `me`, close it, and
/// collect what its recovery and the audit reported.
fn observe(db: &Db, me: usize, probe_keys: &[Vec<u8>]) -> RankObs {
    let audit = papyruskv::sanity::audit_db(db);
    let visible = papyruskv::sanity::dump_visible(db)
        .into_iter()
        .filter(|(k, _)| db.owner_of(k) == me)
        .collect();
    let probes = probe_keys
        .iter()
        .map(|k| (k.clone(), db.get_opt(k).expect("recovered get must not error")))
        .collect();
    db.close().expect("recovery close");
    let audited = audit.violations.into_iter().map(|v| (v.kind.name(), v.detail));
    let carried = db.take_io_errors().into_iter().map(|e| match e {
        Error::DataLoss(what) => ("data-loss", what),
        other => ("background-error", other.to_string()),
    });
    RankObs { visible, probes, findings: audited.chain(carried).collect() }
}

/// Re-open the database from the surviving NVM bytes at `n` ranks; audit,
/// dump, and probe on every rank.
fn recover_nvm(
    n: usize,
    state: &HashMap<String, Arc<MemBackend>>,
    probe_keys: &Arc<Vec<Vec<u8>>>,
) -> Vec<RankObs> {
    let profile = SystemProfile::test_profile();
    let groups: Vec<NvmStore> = (0..n)
        .map(|g| {
            NvmStore::with_backend(
                profile.nvm.clone(),
                backend_of(state, &crate::workload::nvm_ns(g)),
            )
        })
        .collect();
    let pfs = NvmStore::with_backend(profile.pfs.clone(), backend_of(state, PFS_NS));
    let storage = StorageMap::from_parts(groups, 1, pfs);
    let platform = Arc::new(Platform {
        profile,
        storage,
        n_ranks: n,
        repl: papyrus_replica::PromotionTable::new(),
    });
    let probe_keys = probe_keys.clone();
    World::run(WorldConfig::for_tests(n), move |rank| {
        let ctx =
            Context::init_with_group(rank, platform.clone(), REPOSITORY, 1).expect("recovery init");
        let db = ctx
            .open(DB_NAME, OpenFlags::create(), Options::small())
            .expect("recovery open must tolerate any crash state");
        let obs = observe(&db, ctx.rank(), &probe_keys);
        ctx.finalize().expect("recovery finalize");
        obs
    })
}

/// Restart from the checkpoint at `path` with `m` ranks (≠ the writer
/// count, so the restore redistributes) and observe every rank.
fn restore_snapshot(
    m: usize,
    state: &HashMap<String, Arc<MemBackend>>,
    path: &str,
    probe_keys: &Arc<Vec<Vec<u8>>>,
) -> Vec<RankObs> {
    let profile = SystemProfile::test_profile();
    let pfs = NvmStore::with_backend(profile.pfs.clone(), backend_of(state, PFS_NS));
    // Fresh NVM scratch: a new job restoring an old snapshot.
    let storage = StorageMap::with_pfs(&profile, m, 1, pfs);
    let platform = Arc::new(Platform {
        profile,
        storage,
        n_ranks: m,
        repl: papyrus_replica::PromotionTable::new(),
    });
    let probe_keys = probe_keys.clone();
    let path = path.to_string();
    World::run(WorldConfig::for_tests(m), move |rank| {
        let ctx = Context::init_with_group(rank, platform.clone(), "nvm://crash-restore", 1)
            .expect("restore init");
        let (db, ev) = ctx
            .restart(&path, DB_NAME, OpenFlags::create(), Options::small(), false)
            .expect("restore from a completed snapshot must succeed");
        ev.wait();
        let obs = observe(&db, ctx.rank(), &probe_keys);
        ctx.finalize().expect("restore finalize");
        obs
    })
}

/// The seeded bug classes of the `--seed-bug` self test, by CLI name.
pub const SEED_BUGS: [(&str, FaultMode); 3] = [
    ("drop-index", FaultMode::DropIndexWrites),
    ("skip-manifest-rename", FaultMode::SkipManifestRename),
    ("torn-manifest", FaultMode::TornManifest),
];

#[cfg(test)]
mod tests {
    use super::*;
    use papyrus_mpi::{RecvSrc, RecvTag};

    /// A recovery whose world wedges — a rank waits on a message nobody
    /// sends — fails at once with the world's verdict, which names the
    /// parked rank and its site.
    #[test]
    fn a_wedged_recovery_fails_with_the_worlds_verdict() {
        let wedged = run_guarded("nvm-recovery", 7, "clean-cut", || {
            World::run(WorldConfig::for_tests(2), |ctx| {
                if ctx.rank() == 0 {
                    ctx.world().recv(RecvSrc::Rank(1), RecvTag::Tag(1));
                }
            })
        });
        let (kind, detail) = wedged.expect_err("a wedged recovery is a violation");
        assert_eq!(kind, ViolationKind::RecoveryFailed);
        let verdict = "point 7 [clean-cut] nvm-recovery hung: deadlock: no runnable task";
        assert!(detail.starts_with(verdict), "{detail}");
        assert!(detail.contains(&format!("rank-0 parked at {}:", file!())), "{detail}");
    }
}
