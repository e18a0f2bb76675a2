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
//! 2. **Happens-before / protocol checking** — `papyrus-mpi` attaches
//!    [`vclock::VectorClock`]s to every fabric message and collective and
//!    reports unmatched sends, tag leaks, and wait-for cycles between
//!    blocked ranks at finalize. The monitor lives in `papyrus-mpi`; the
//!    clock type and the violation registry live here.
//! 3. **LSM invariant auditing** — `papyruskv::sanity::audit_db` checks
//!    SSTable ordering, bloom consistency, manifest agreement, and
//!    barrier/migration quiescence, reporting into this registry.
//!
//! ## Gating
//!
//! Everything is switched by the `PAPYRUS_SANITY` environment variable
//! (any value but `0`), mirroring the telemetry design: when off, every
//! hook costs **one relaxed atomic load** and returns. Tests that need a
//! detector regardless of the environment call [`force_enable`] (in a
//! dedicated integration-test process, since the switch is global).
//!
//! Violations are recorded in a process-global registry ([`violations`],
//! [`take_violations`], [`count_kind`]) and echoed to stderr once per
//! distinct report so they are visible even when nothing asserts on them.

pub mod atomic;
pub mod lockorder;
pub mod vclock;

use std::collections::HashSet;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

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
// Violation registry
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
    /// A message was sent but never received (per-channel count mismatch
    /// at finalize).
    UnmatchedSend,
    /// A mailbox still held undrained envelopes at finalize.
    TagLeak,
    /// `DbInner::barrier_marks` held unreconciled epochs at close.
    BarrierEpochMismatch,
    /// A persistent wait-for cycle between blocked ranks (potential
    /// distributed deadlock).
    WaitCycle,
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
    /// A manifest-referenced SSTable triple was missing or unreadable at
    /// recovery.
    SstUnreadable,
    /// An acknowledged-durable key-value pair was not readable (or had an
    /// impossible value) after crash recovery.
    DurabilityLost,
    /// Recovery surfaced a pair the workload never wrote, or a stale value
    /// that durability marks rule out.
    PhantomPair,
    /// Re-opening a database from crash-state bytes panicked, hung, or
    /// returned an error instead of recovering.
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
    /// A chaos schedule exceeded the watchdog deadline: some rank hung
    /// instead of timing out with a typed error.
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
            ViolationKind::UnmatchedSend => "unmatched-send",
            ViolationKind::TagLeak => "tag-leak",
            ViolationKind::BarrierEpochMismatch => "barrier-epoch-mismatch",
            ViolationKind::WaitCycle => "wait-cycle",
            ViolationKind::SstOrder => "sst-order",
            ViolationKind::BloomFalseNegative => "bloom-false-negative",
            ViolationKind::ManifestMismatch => "manifest-mismatch",
            ViolationKind::LsmState => "lsm-state",
            ViolationKind::ManifestCorrupt => "manifest-corrupt",
            ViolationKind::SstUnreadable => "sst-unreadable",
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

struct RegistryState {
    violations: Vec<Violation>,
    /// Dedup keys already echoed to stderr (kind + detail).
    reported: HashSet<(ViolationKind, String)>,
}

static REGISTRY: OnceLock<Mutex<RegistryState>> = OnceLock::new();

fn registry() -> std::sync::MutexGuard<'static, RegistryState> {
    REGISTRY
        .get_or_init(|| {
            Mutex::new(RegistryState { violations: Vec::new(), reported: HashSet::new() })
        })
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Record a violation: appended to the registry and echoed to stderr the
/// first time this exact (kind, detail) pair is seen.
pub fn record_violation(kind: ViolationKind, detail: String) {
    let mut reg = registry();
    if reg.reported.insert((kind, detail.clone())) {
        eprintln!("papyrus-sanity[{}]: {detail}", kind.name());
    }
    reg.violations.push(Violation { kind, detail });
}

/// Snapshot of every violation recorded so far in this process.
pub fn violations() -> Vec<Violation> {
    registry().violations.clone()
}

/// Drain the registry, returning everything recorded so far.
pub fn take_violations() -> Vec<Violation> {
    std::mem::take(&mut registry().violations)
}

/// Number of recorded violations of one kind.
pub fn count_kind(kind: ViolationKind) -> usize {
    registry().violations.iter().filter(|v| v.kind == kind).count()
}

// ---------------------------------------------------------------------------
// Audit report
// ---------------------------------------------------------------------------

/// Result of an invariant audit pass (e.g. `papyruskv::sanity::audit_db`):
/// the violations found by that pass (also recorded in the global
/// registry), plus counters describing what was checked.
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

    /// Record a violation into both this report and the global registry.
    pub fn push(&mut self, kind: ViolationKind, detail: String) {
        record_violation(kind, detail.clone());
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
    fn registry_records_and_counts() {
        record_violation(ViolationKind::SstOrder, "test: keys out of order (registry)".into());
        assert!(count_kind(ViolationKind::SstOrder) >= 1);
        assert!(violations()
            .iter()
            .any(|v| v.detail.contains("registry") && v.kind == ViolationKind::SstOrder));
    }

    #[test]
    fn audit_report_collects() {
        let mut r = AuditReport::default();
        assert!(r.is_clean());
        r.push(ViolationKind::BloomFalseNegative, "test: bloom fn (audit)".into());
        assert!(!r.is_clean());
        assert!(r.render().contains("bloom-false-negative"));
        assert!(count_kind(ViolationKind::BloomFalseNegative) >= 1);
    }
}
