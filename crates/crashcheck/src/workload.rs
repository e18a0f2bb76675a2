//! The instrumented workload whose crash points the sweep enumerates.
//!
//! A Figure-10-style checkpoint/restart job at `cfg.ranks` ranks, run
//! against stores whose backends are wrapped in [`JournaledBackend`] so
//! every NVM/PFS mutation lands in one shared [`Journal`] as a numbered
//! crash point:
//!
//! 1. **Phase A** — every rank fills `per_rank` keys, then a collective
//!    `barrier(SsTable)` flushes all MemTables to SSTables (durable mark
//!    `phase-a`).
//! 2. **Checkpoint A** — snapshot to the PFS (snapshot mark `snap-a`).
//! 3. **Phase B** — overwrites, a delete, and fresh keys; small MemTables
//!    and a merge fan-in of 2 force flush *and* merge-compaction
//!    traffic; another `barrier(SsTable)` (durable mark `phase-b`).
//! 4. **Checkpoint B** — a second snapshot (`snap-b`), with a `Note` mark
//!    at its start so tests can assert crash points *inside* the transfer
//!    were swept.
//! 5. Collective close + finalize (more flush/manifest traffic).
//!
//! Every write is mirrored into the [`Oracle`]; marks are taken by rank 0
//! between two `barrier_all` calls, when no rank has an operation in
//! flight and the journal position is stable.

use std::sync::Arc;

use bytes::Bytes;
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::{MemBackend, NvmStore, StorageMap, SystemProfile};
use papyruskv::{BarrierLevel, CompactionTrigger, Context, OpenFlags, Options, Platform};
use parking_lot::Mutex;

use crate::journal::{FaultMode, Journal, JournalOp, JournaledBackend};
use crate::oracle::{MarkKind, Oracle};

/// Sweep and workload sizing.
#[derive(Debug, Clone)]
pub struct CrashCfg {
    /// Ranks in the workload job (and in NVM recovery).
    pub ranks: usize,
    /// Ranks in the snapshot-restore job — different from `ranks` so every
    /// restore exercises restart-with-redistribution (Figure 5(c)).
    pub restore_ranks: usize,
    /// Keys per rank in phase A.
    pub per_rank: usize,
    /// Check every `stride`-th crash point (1 = exhaustive).
    pub stride: usize,
    /// Max single-drop reorder variants per crash point.
    pub reorder_cap: usize,
    /// Print per-point progress.
    pub verbose: bool,
}

impl Default for CrashCfg {
    fn default() -> Self {
        Self { ranks: 2, restore_ranks: 3, per_rank: 6, stride: 1, reorder_cap: 8, verbose: false }
    }
}

impl CrashCfg {
    /// A minimal configuration for unit/CI tests in debug builds.
    pub fn tiny() -> Self {
        Self { per_rank: 3, stride: 3, reorder_cap: 2, ..Self::default() }
    }
}

/// PapyrusKV repository string the workload (and NVM recovery) uses.
pub const REPOSITORY: &str = "nvm://crash";
/// Checkpoint A destination on the PFS.
pub const SNAP_A: &str = "pfs-crash/snap-a";
/// Checkpoint B destination on the PFS.
pub const SNAP_B: &str = "pfs-crash/snap-b";
/// Database name.
pub const DB_NAME: &str = "data";

/// Journal namespace of rank-group `g`'s NVM store.
pub fn nvm_ns(group: usize) -> String {
    format!("nvm{group}")
}

/// Journal namespace of the parallel file system store.
pub const PFS_NS: &str = "pfs";

/// The recorded run: the journal's op sequence plus the oracle.
pub struct Recorded {
    /// Total order of backend mutations and fences.
    pub ops: Vec<JournalOp>,
    /// Ground truth + quiesce marks.
    pub oracle: Oracle,
}

fn key(rank: usize, i: usize) -> Vec<u8> {
    format!("k{rank}-{i:04}").into_bytes()
}

fn value(rank: usize, i: usize, phase: char) -> Bytes {
    Bytes::from(format!("val-{phase}-{rank}-{i}-{}", "x".repeat(24)))
}

/// Options sized so the tiny workload still exercises flushes and
/// merge-compaction: 4 KiB MemTables, two tables of a tier merge.
fn workload_options() -> Options {
    Options::small().with_compaction_trigger(CompactionTrigger::Tiered { fan_in: 2 })
}

/// Run the workload against journaled backends and return the recording.
/// `fault` distorts what the journal captures (seed-bug self test); the
/// live run always sees every write, so the workload itself succeeds.
pub fn record_workload(cfg: &CrashCfg, fault: FaultMode) -> Recorded {
    let journal = Arc::new(Journal::new());
    journal.set_fault(fault);
    let profile = SystemProfile::test_profile();

    // One single-rank storage group per rank, each journaled under its own
    // namespace, plus the shared PFS. These are the only journaled stores
    // in the process: wrapping is explicit, here and nowhere else.
    let groups: Vec<NvmStore> = (0..cfg.ranks)
        .map(|g| {
            let wrapped =
                JournaledBackend::new(nvm_ns(g), journal.clone(), Arc::new(MemBackend::new()));
            NvmStore::with_backend(profile.nvm.clone(), Arc::new(wrapped))
        })
        .collect();
    let pfs_backend = JournaledBackend::new(PFS_NS, journal.clone(), Arc::new(MemBackend::new()));
    let pfs = NvmStore::with_backend(profile.pfs.clone(), Arc::new(pfs_backend));
    let storage = StorageMap::from_parts(groups, 1, pfs);
    let platform = Arc::new(Platform {
        profile,
        storage,
        n_ranks: cfg.ranks,
        repl: papyrus_replica::PromotionTable::new(),
    });

    let oracle = Arc::new(Mutex::new(Oracle::new()));
    let per_rank = cfg.per_rank.max(2); // phase B deletes key 1

    {
        let journal = journal.clone();
        let oracle = oracle.clone();
        World::run(WorldConfig::for_tests(cfg.ranks), move |rank| {
            let ctx = Context::init_with_group(rank, platform.clone(), REPOSITORY, 1)
                .expect("workload init");
            let db =
                ctx.open(DB_NAME, OpenFlags::create(), workload_options()).expect("workload open");
            let me = ctx.rank();

            // A mark is valid only while every rank is quiesced: barrier,
            // record on rank 0, barrier again before anyone resumes.
            let mark = |label: &str, kind: MarkKind| {
                ctx.barrier_all();
                if me == 0 {
                    oracle.lock().mark(label, journal.len(), kind);
                }
                ctx.barrier_all();
            };

            // Phase A: fill.
            for i in 0..per_rank {
                let (k, v) = (key(me, i), value(me, i, 'a'));
                oracle.lock().record_write(&k, Some(v.clone()));
                db.put(&k, &v).expect("phase A put");
            }
            db.barrier(BarrierLevel::SsTable).expect("phase A barrier");
            mark("phase-a", MarkKind::Durable);

            // Checkpoint A.
            db.checkpoint(SNAP_A).expect("checkpoint A").wait();
            mark("snap-a", MarkKind::Snapshot { path: SNAP_A.to_string() });

            // Phase B: overwrite evens, delete key 1, add fresh keys.
            for i in (0..per_rank).step_by(2) {
                let (k, v) = (key(me, i), value(me, i, 'b'));
                oracle.lock().record_write(&k, Some(v.clone()));
                db.put(&k, &v).expect("phase B put");
            }
            let dead = key(me, 1);
            oracle.lock().record_write(&dead, None);
            db.delete(&dead).expect("phase B delete");
            for i in per_rank..per_rank + 2 {
                let (k, v) = (key(me, i), value(me, i, 'b'));
                oracle.lock().record_write(&k, Some(v.clone()));
                db.put(&k, &v).expect("phase B put-new");
            }
            db.barrier(BarrierLevel::SsTable).expect("phase B barrier");
            mark("phase-b", MarkKind::Durable);

            // Checkpoint B, with a position-only mark at its start so the
            // sweep can prove it covered points inside the transfer.
            mark("ckpt-b-begin", MarkKind::Note);
            db.checkpoint(SNAP_B).expect("checkpoint B").wait();
            mark("snap-b", MarkKind::Snapshot { path: SNAP_B.to_string() });

            db.close().expect("workload close");
            ctx.finalize().expect("workload finalize");
        });
    }

    journal.freeze();
    let oracle = Arc::into_inner(oracle).expect("oracle uniquely owned").into_inner();
    Recorded { ops: journal.ops(), oracle }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_records_marks_in_order_and_journals_both_devices() {
        let rec = record_workload(&CrashCfg::tiny(), FaultMode::None);
        assert!(!rec.ops.is_empty());
        let labels: Vec<&str> = rec.oracle.marks().iter().map(|m| m.label.as_str()).collect();
        assert_eq!(labels, ["phase-a", "snap-a", "phase-b", "ckpt-b-begin", "snap-b"]);
        // Marks sit at increasing journal positions, all within the run.
        let seqs: Vec<usize> = rec.oracle.marks().iter().map(|m| m.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] <= w[1]), "marks out of order: {seqs:?}");
        assert!(*seqs.last().unwrap() <= rec.ops.len());
        // Both device classes saw traffic, with fences on each.
        for ns in [nvm_ns(0), nvm_ns(1), PFS_NS.to_string()] {
            assert!(
                rec.ops.iter().any(|op| op.is_mutation() && op.ns() == ns),
                "no mutations journaled on {ns}"
            );
            assert!(
                rec.ops.iter().any(|op| !op.is_mutation() && op.ns() == ns),
                "no fences journaled on {ns}"
            );
        }
        // Merge-compaction ran (fan-in 2 with two flushes):
        // its input SSTables get deleted, putting sst-file deletions among
        // the crash points.
        assert!(
            rec.ops.iter().any(|op| matches!(
                op,
                JournalOp::Delete { ns, path } if ns.starts_with("nvm") && path.contains("sst")
            )),
            "no compaction input deletions journaled:\n{}",
            rec.ops.iter().map(JournalOp::describe).collect::<Vec<_>>().join("\n")
        );
        // Manifests commit atomically: every live-manifest publish is a
        // rename, never a direct put.
        assert!(
            !rec.ops.iter().any(|op| matches!(
                op,
                JournalOp::Put { path, .. } if path.ends_with("/MANIFEST")
            )),
            "live manifest written without tmp+rename"
        );
    }
}
