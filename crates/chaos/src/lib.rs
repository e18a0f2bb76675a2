//! # papyrus-chaos
//!
//! Seeded chaos soak for the PapyrusKV failure-aware protocol layer.
//!
//! PR 3's crashcheck proves PapyrusKV survives *power loss*; this crate
//! proves it survives *runtime* faults: transient NVM I/O errors, `ENOSPC`,
//! device stalls, network delay spikes, and rank death. Each schedule is a
//! [`papyrus_faultinject::FaultPlan`] generated deterministically from a
//! seed, armed on that schedule's own world, and run against a
//! Figure-6-style multi-rank put/get workload ([`workload`]), whose every
//! observation is judged by a shadow KV oracle
//! ([`oracle`]):
//!
//! * **no acknowledged write is lost** — anything `Ok` before a successful
//!   barrier (or any sequential-consistency `Ok`) must still be readable
//!   after the faults pass, unless its owner rank was killed;
//! * **no phantom reads** — every observed value must describe its own key
//!   and a round that was actually attempted;
//! * **no hangs** — every schedule's world finishes, dead ranks included
//!   (degraded mode), instead of ending in its scheduler's deadlock or
//!   livelock verdict;
//! * **every error is typed** — only `NotFound` / `RankUnavailable` /
//!   `StorageFull` / `Timeout` may reach the application.
//!
//! The [`sweep`] runs `seeds` schedules cycling all five fault classes; the
//! `--seed-bug` self test plants a real protocol bug ([`PlantedBug`]) and
//! fails unless the harness catches it — a lost acknowledgement caught by
//! the oracle, an undeadlined receive caught by the livelock verdict.
//!
//! Run it via `cargo xtask chaos`.

pub mod oracle;
pub mod probes;
pub mod sweep;
pub mod workload;

pub use oracle::ChaosOracle;
pub use papyrus_faultinject::PlantedBug;
pub use sweep::{chaos_sweep, run_seed_bug, ChaosReport, ChaosViolation, SEED_BUGS};
pub use workload::{run_schedule, ChaosCfg, RankOutcome};
