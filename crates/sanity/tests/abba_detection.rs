//! End-to-end lock-order detection through the instrumented
//! `compat/parking_lot` shim.
//!
//! Lives in its own integration-test binary (own process) because it
//! force-enables the global sanity gate and seeds the global lock-order
//! graph with an intentional ABBA ordering — state that must not leak into
//! other tests. The graph's findings are one list per process, so the two
//! tests here take turns: each drains exactly what it seeded.

use papyrus_sanity::lockorder::take_findings;
use papyrus_sanity::ViolationKind;
use parking_lot::{Condvar, Mutex, RwLock};

/// A std lock, not the shim's: held across a test, a tracked lock would be
/// the "second lock" of every check below.
static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn intentional_abba_is_detected_with_both_sites() {
    let _turn = TURN.lock();
    papyrus_sanity::force_enable();

    let a = Mutex::new(0u32);
    let b = Mutex::new(0u32);

    // Consistent order first: A then B.
    {
        let _ga = a.lock();
        let _gb = b.lock(); // site X
    }
    // Reverse order: B then A — a potential deadlock had another thread
    // been in the first section concurrently.
    {
        let _gb = b.lock();
        let _ga = a.lock(); // site Y
    }

    let cycles = take_findings();
    assert_eq!(cycles.len(), 1, "exactly the seeded ABBA is reported: {cycles:?}");
    assert_eq!(cycles[0].kind, ViolationKind::LockOrderCycle);
    let detail = &cycles[0].detail;
    // Both acquisition sites (this file) appear in the report: the blocked
    // acquisition and the reverse edge recorded earlier.
    let mentions = detail.matches("abba_detection.rs").count();
    assert!(mentions >= 3, "expected both sites and the reverse chain in: {detail}");

    // Clean up the seeded graph for good measure (own process anyway).
    papyrus_sanity::lockorder::reset_for_tests();
}

#[test]
fn rwlock_and_condvar_checks_fire_through_the_shim() {
    let _turn = TURN.lock();
    papyrus_sanity::force_enable();

    // Same-thread read/read recursion is legitimate on parking_lot and
    // must not trip the recursion check.
    let l = RwLock::new(1u32);
    {
        let _r1 = l.read();
        let _r2 = l.read(); // same-thread shared recursion: not a violation
    }
    let found = take_findings();
    assert!(found.is_empty(), "read/read recursion must not be flagged: {found:?}");

    // Condvar wait while holding a second lock.
    let extra = Mutex::new(());
    let m = Mutex::new(());
    let cv = Condvar::new();
    {
        let _held = extra.lock();
        let mut g = m.lock();
        let res = cv.wait_until_quiet(&mut g);
        assert!(res.timed_out());
    }
    let found = take_findings();
    assert_eq!(found.len(), 1, "condvar wait holding a second lock must be reported: {found:?}");
    assert_eq!(found[0].kind, ViolationKind::CondvarHoldingLock);

    papyrus_sanity::lockorder::reset_for_tests();
}
