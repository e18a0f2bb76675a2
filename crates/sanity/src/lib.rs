//! # papyrus-sanity
//!
//! Always-available, cheaply-gated concurrency and protocol sanity
//! detectors for the PapyrusKV workspace.
//!
//! Three detector families plug into this crate:
//!
//! 1. **Lock-order analysis** ([`lockorder`]) — the `compat/parking_lot`
//!    shim calls the hooks in this module on every acquire/release/condvar
//!    wait. Acquisition sites are interned into stable IDs, each thread
//!    keeps a held-lock stack, and a global lock-order graph is maintained;
//!    any cycle (a potential ABBA deadlock) is reported with both
//!    acquisition sites. Waiting on a `Condvar` while holding a second lock
//!    is reported too.
//! 2. **Protocol checking** — `papyrus-mpi` counts every fabric channel's
//!    sends and receives and watches blocked ranks, reporting unmatched
//!    sends, tag leaks, and wait-for cycles. The monitor lives in
//!    `papyrus-mpi`, one per world.
//! 3. **LSM invariant auditing** — `papyruskv::sanity::audit_db` checks
//!    SSTable ordering, bloom consistency, manifest agreement, and
//!    barrier/migration quiescence, returning an [`AuditReport`].
//!
//! ## Gating
//!
//! Everything is switched by the `PAPYRUS_SANITY` environment variable
//! (any value but `0`), mirroring the telemetry design: when off, every
//! hook costs **one relaxed atomic load** and returns. Tests that need a
//! detector regardless of the environment call [`force_enable`] (in a
//! dedicated integration-test process, since the switch is global).
//!
//! ## Where findings go
//!
//! There is no process-wide list of verdicts. Each detector hands its
//! findings to the scope that owns them: the protocol monitor to the world
//! it watches (`World::run` fails the job on them), the auditor to the
//! [`AuditReport`] it returns, and the lock-order detector — whose graph
//! spans every lock of the process and so cannot belong to one world — to
//! its own list behind [`lockorder::take_findings`]. [`ViolationKind`] and
//! [`Violation`] are the vocabulary they share.

pub mod atomic;
pub mod lockorder;

use std::sync::atomic::{AtomicU8, Ordering};

// ---------------------------------------------------------------------------
// Gate
// ---------------------------------------------------------------------------

/// 0 = uninitialised, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether the sanity detectors are live. One relaxed atomic load on the
/// hot path; the first call reads `PAPYRUS_SANITY` from the environment.
#[inline]
pub fn enabled() -> bool {
    // ordering: env-derived on/off latch; it guards no data and every
    // reader re-checks it per call, so relaxed is sufficient.
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var_os("PAPYRUS_SANITY").is_some_and(|v| v != "0" && !v.is_empty());
    // ordering: idempotent latch init — racing initialisers compute the
    // same value from the same environment, so lost stores are harmless.
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Force the detectors on regardless of the environment (tests). Global:
/// use only from a dedicated integration-test process, before the workload
/// under test starts.
pub fn force_enable() {
    // ordering: latch write; takes effect on each reader's next check.
    STATE.store(2, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Violation vocabulary
// ---------------------------------------------------------------------------

/// What kind of sanity violation was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A cycle in the lock-order graph (potential ABBA deadlock).
    LockOrderCycle,
    /// The same thread acquired the same exclusive lock twice (guaranteed
    /// deadlock on the std-backed shim).
    RecursiveLock,
    /// A `Condvar` wait entered while a second lock was held.
    CondvarHoldingLock,
    /// A lock guard was dropped on a different thread than acquired it.
    GuardCrossThread,
    /// `DbInner::barrier_marks` held unreconciled epochs at close.
    BarrierEpochMismatch,
    /// SSTable keys out of order, or SSID sequence not monotonic.
    SstOrder,
    /// A bloom filter reported "definitely absent" for a resident key.
    BloomFalseNegative,
    /// The on-NVM manifest disagrees with the live SSTable set.
    ManifestMismatch,
    /// MemTable byte accounting or migration/flush quiescence violated.
    LsmState,
    /// A manifest existed but could not be parsed (torn or corrupt write) —
    /// distinct from "absent", which composes a fresh database.
    ManifestCorrupt,
    /// An acknowledged-durable key-value pair was not readable (or had an
    /// impossible value) after crash recovery.
    DurabilityLost,
    /// Recovery surfaced a pair the workload never wrote, or a stale value
    /// that durability marks rule out.
    PhantomPair,
    /// Re-opening a database from crash-state bytes panicked, ended in its
    /// world's deadlock or livelock verdict, or returned an error instead of
    /// recovering.
    RecoveryFailed,
    /// A write acknowledged to the application vanished under injected
    /// faults (chaos oracle; excludes keys owned by a killed rank).
    AckedWriteLost,
    /// A get under injected faults returned a value the workload never
    /// wrote for that key (chaos oracle).
    PhantomRead,
    /// An operation under injected faults failed in an untyped way (panic
    /// or an error outside the failure-mode whitelist) where a typed error
    /// was required (chaos oracle).
    UntypedError,
    /// A chaos schedule's world ended in a deadlock or livelock verdict:
    /// some rank hung instead of timing out with a typed error.
    ChaosHang,
    /// Replication state broken: replica tables out of key order, replica
    /// SSIDs colliding with primary SSIDs, or a dead rank's promoted
    /// ranges claimed by zero or multiple live primaries.
    ReplicaState,
}

impl ViolationKind {
    /// Stable short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::LockOrderCycle => "lock-order-cycle",
            ViolationKind::RecursiveLock => "recursive-lock",
            ViolationKind::CondvarHoldingLock => "condvar-holding-lock",
            ViolationKind::GuardCrossThread => "guard-cross-thread",
            ViolationKind::BarrierEpochMismatch => "barrier-epoch-mismatch",
            ViolationKind::SstOrder => "sst-order",
            ViolationKind::BloomFalseNegative => "bloom-false-negative",
            ViolationKind::ManifestMismatch => "manifest-mismatch",
            ViolationKind::LsmState => "lsm-state",
            ViolationKind::ManifestCorrupt => "manifest-corrupt",
            ViolationKind::DurabilityLost => "durability-lost",
            ViolationKind::PhantomPair => "phantom-pair",
            ViolationKind::RecoveryFailed => "recovery-failed",
            ViolationKind::AckedWriteLost => "acked-write-lost",
            ViolationKind::PhantomRead => "phantom-read",
            ViolationKind::UntypedError => "untyped-error",
            ViolationKind::ChaosHang => "chaos-hang",
            ViolationKind::ReplicaState => "replica-state",
        }
    }
}

/// One recorded sanity violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Violation category.
    pub kind: ViolationKind,
    /// Human-readable description including the sites/ranks involved.
    pub detail: String,
}

// ---------------------------------------------------------------------------
// Audit report
// ---------------------------------------------------------------------------

/// Result of an invariant audit pass (e.g. `papyruskv::sanity::audit_db`):
/// the violations found by that pass, plus counters describing what was
/// checked.
#[derive(Debug, Default, Clone)]
pub struct AuditReport {
    /// Violations found by this pass.
    pub violations: Vec<Violation>,
    /// Number of SSTables examined.
    pub sstables_checked: usize,
    /// Number of records examined across all SSTables.
    pub records_checked: usize,
}

impl AuditReport {
    /// Whether the audit found nothing wrong.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Record a violation found by this pass.
    pub fn push(&mut self, kind: ViolationKind, detail: String) {
        self.violations.push(Violation { kind, detail });
    }

    /// One-line-per-violation rendering (empty string when clean).
    pub fn render(&self) -> String {
        self.violations
            .iter()
            .map(|v| format!("[{}] {}", v.kind.name(), v.detail))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_defaults_from_env_and_forces() {
        // Whatever the env says, forcing wins and is observable.
        force_enable();
        assert!(enabled());
    }

    #[test]
    fn audit_report_collects() {
        let mut r = AuditReport::default();
        assert!(r.is_clean());
        r.push(ViolationKind::BloomFalseNegative, "test: bloom fn (audit)".into());
        assert!(!r.is_clean());
        assert!(r.render().contains("bloom-false-negative"));
    }
}
