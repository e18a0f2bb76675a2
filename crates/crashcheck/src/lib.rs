//! # papyrus-crashcheck
//!
//! Crash-consistency checker for the PapyrusKV NVM substrate.
//!
//! PapyrusKV's durability story (paper §4) rests on SSTables and manifests
//! surviving process and node crashes on NVM, and on checkpoints surviving
//! them on the PFS. This crate turns that claim into an exhaustive check:
//!
//! 1. [`workload::record_workload`] runs a checkpoint/restart workload
//!    against [`JournaledBackend`]-wrapped stores ([`journal`]), so every
//!    backend mutation becomes a numbered crash point in one shared
//!    journal, and mirrors every acknowledged write into a shadow
//!    [`oracle::Oracle`].
//! 2. [`sweep::sweep`] enumerates every crash point under three crash
//!    policies (clean cut, torn tail, unsynced reorder), materialises the
//!    surviving bytes, re-opens the store, and verifies: recovery never
//!    panics or hangs (a hung world ends in its scheduler's deadlock or
//!    livelock verdict), `audit_db` invariants hold, every pair acknowledged
//!    durable is readable, and no phantom pairs appear. Completed
//!    checkpoints are additionally restored at a *different* rank count
//!    (restart with redistribution) and must reproduce the snapshot
//!    exactly.
//! 3. The `--seed-bug` self test re-records the workload under
//!    [`FaultMode`] distortions (dropped SSIndex writes,
//!    skipped manifest renames, torn manifests) and proves the sweep
//!    catches each class.
//!
//! Run it via `cargo xtask crashcheck`.

pub mod journal;
pub mod oracle;
pub mod sweep;
pub mod workload;

pub use journal::{CrashPolicy, FaultMode, Journal, JournalOp, JournaledBackend};
pub use oracle::{Mark, MarkKind, Oracle};
pub use sweep::{sweep, SweepReport, SweepViolation, SEED_BUGS};
pub use workload::{record_workload, CrashCfg, Recorded};
