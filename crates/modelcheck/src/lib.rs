//! # papyrus-modelcheck
//!
//! A loom-style deterministic schedule explorer for the workspace's
//! concurrent components.
//!
//! Code under test swaps its synchronization primitives for the shims in
//! [`atomic`], [`sync`], [`cell`], [`thread`] and [`hint`] (under `--cfg
//! modelcheck`; outside a model execution every shim passes through to
//! std, so shimmed code still runs normally). [`model`] / [`explore`] then
//! run a closure under a cooperative scheduler that owns every
//! interleaving decision:
//!
//! - every synchronization operation is a scheduling point; exactly one
//!   model thread runs at a time, so executions are fully deterministic
//!   and replayable;
//! - the DFS explorer enumerates schedules with DPOR-style pruning
//!   (alternatives are revisited only where operations *conflict*:
//!   same object, at least one write), with an optional unpruned mode and
//!   a seeded random-walk mode for larger state spaces;
//! - memory orderings feed a vector-clock happens-before relation
//!   (release stores publish, acquire loads adopt, relaxed stores break
//!   release chains, RMWs extend them, SeqCst ops additionally share one
//!   total order; locks publish on unlock and adopt on lock);
//! - non-atomic shared state goes through [`cell::UnsafeCell`], whose
//!   accesses are checked FastTrack-style against happens-before — a
//!   `Relaxed` store where `Release` was needed surfaces as a
//!   [`ViolationKind::DataRace`] on the data it failed to publish;
//! - deadlocks (all live threads blocked), model panics (assertion
//!   failures) and step-bound overruns (livelock) are the other violation
//!   classes.
//!
//! [`baton`] is the other scheduler here: the one every simulated world
//! runs under, one task at a time in virtual-time order.
//!
//! ```
//! use std::sync::Arc;
//!
//! papyrus_modelcheck::model(|| {
//!     let n = Arc::new(papyrus_modelcheck::atomic::AtomicUsize::new(0));
//!     let handles: Vec<_> = (0..2)
//!         .map(|_| {
//!             let n = Arc::clone(&n);
//!             papyrus_modelcheck::thread::spawn(move || {
//!                 n.fetch_add(1, papyrus_modelcheck::atomic::Ordering::Relaxed);
//!             })
//!         })
//!         .collect();
//!     for h in handles {
//!         h.join().unwrap();
//!     }
//!     assert_eq!(n.load(papyrus_modelcheck::atomic::Ordering::Relaxed), 2);
//! });
//! ```

mod clock;
mod exec;
mod explore;

pub mod atomic;
pub mod baton;
pub mod cell;
pub mod hint;
pub mod sync;
pub mod thread;

pub use exec::{Violation, ViolationKind};
pub use explore::{explore, model, Builder, Report};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::atomic::{AtomicBool, AtomicUsize, Ordering};
    use super::cell::UnsafeCell;
    use super::*;

    /// Two threads doing non-atomic read-modify-write through an atomic
    /// (load; store) — the classic lost update. The explorer must find the
    /// interleaving where both loads happen before either store.
    fn lost_update_model() {
        let n = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                thread::spawn(move || {
                    // ordering: deliberately racy increment under test.
                    let v = n.load(Ordering::Relaxed);
                    n.store(v + 1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // ordering: single-threaded after the joins.
        assert_eq!(n.load(Ordering::Relaxed), 2, "lost update");
    }

    #[test]
    fn modelcheck_finds_lost_update() {
        let report = explore(lost_update_model);
        assert!(!report.ok(), "lost update must be found");
        assert_eq!(report.violations[0].kind, ViolationKind::Panic);
        assert!(report.schedule.is_some());
    }

    /// Same counter with a proper atomic RMW: clean, and the exploration
    /// counts are pinned (they are deterministic; a change means the
    /// scheduler or DPOR logic changed and EXPERIMENTS.md needs updating).
    #[test]
    fn modelcheck_counter_exhaustive_pinned() {
        let run = || {
            let n = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        // ordering: counter only, no data published.
                        n.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            // ordering: single-threaded after the joins.
            assert_eq!(n.load(Ordering::Relaxed), 2);
        };
        let dpor = explore(run);
        assert!(dpor.ok(), "correct counter must be clean: {:?}", dpor.violations);
        let full = Builder::new().full().check(run);
        assert!(full.ok());
        // DPOR explores no more schedules than the full tree.
        assert!(dpor.interleavings <= full.interleavings);
        // Pinned: see EXPERIMENTS.md (modelcheck table).
        assert_eq!(dpor.interleavings, PINNED_COUNTER_DPOR);
        assert_eq!(full.interleavings, PINNED_COUNTER_FULL);
    }

    const PINNED_COUNTER_DPOR: u64 = 5;
    const PINNED_COUNTER_FULL: u64 = 10;

    /// Seed bug (a) of the issue: a message published with a `Relaxed`
    /// store where `Release` is needed. The reader observes the flag but
    /// has no happens-before edge to the write of the payload: data race.
    fn publication_model(publish_order: Ordering) -> impl Fn() + Send + Sync + 'static {
        move || {
            struct Chan {
                data: UnsafeCell<u64>,
                ready: AtomicBool,
            }
            // SAFETY: all access to `data` goes through the modelcheck
            // UnsafeCell shim, which verifies (under every explored
            // schedule) that reads of `data` happen after the publishing
            // write; `ready` is atomic.
            unsafe impl Sync for Chan {}
            let ch = Arc::new(Chan { data: UnsafeCell::new(0), ready: AtomicBool::new(false) });
            let producer = {
                let ch = Arc::clone(&ch);
                thread::spawn(move || {
                    // SAFETY: model-verified exclusive access (this is the
                    // access the seeded Relaxed publication makes racy).
                    unsafe { ch.data.with_mut(|p| *p = 42) };
                    ch.ready.store(true, publish_order);
                })
            };
            let consumer = {
                let ch = Arc::clone(&ch);
                thread::spawn(move || {
                    // ordering: acquire side of the publication handshake.
                    if ch.ready.load(Ordering::Acquire) {
                        // SAFETY: model-verified read-after-publication.
                        let v = unsafe { ch.data.with(|p| *p) };
                        assert_eq!(v, 42);
                    }
                })
            };
            producer.join().unwrap();
            consumer.join().unwrap();
        }
    }

    #[test]
    fn modelcheck_seedbug_relaxed_publication_detected() {
        // ordering: the planted bug — Relaxed where Release is required.
        let report = explore(publication_model(Ordering::Relaxed));
        assert!(!report.ok(), "relaxed publication must race");
        assert_eq!(report.violations[0].kind, ViolationKind::DataRace);
        let schedule = report.schedule.expect("violating schedule rendered");
        assert!(schedule.contains("data-"), "schedule names the data accesses:\n{schedule}");
    }

    #[test]
    fn modelcheck_release_publication_clean() {
        // ordering: the correct publication pairing (Release/Acquire).
        let report = explore(publication_model(Ordering::Release));
        assert!(report.ok(), "release publication is race-free: {:?}", report.violations);
    }

    #[test]
    fn modelcheck_detects_deadlock() {
        let report = explore(|| {
            let a = Arc::new(sync::Mutex::new(()));
            let b = Arc::new(sync::Mutex::new(()));
            let t = {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                thread::spawn(move || {
                    let _ga = a.lock();
                    let _gb = b.lock();
                })
            };
            {
                let _gb = b.lock();
                let _ga = a.lock();
            }
            t.join().unwrap();
        });
        assert!(!report.ok(), "AB/BA lock order must deadlock in some schedule");
        assert_eq!(report.violations[0].kind, ViolationKind::Deadlock);
    }

    #[test]
    fn modelcheck_mutex_counter_clean() {
        let report = explore(|| {
            let n = Arc::new(sync::Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        *n.lock() += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*n.lock(), 2);
        });
        assert!(report.ok(), "mutex counter is clean: {:?}", report.violations);
    }

    #[test]
    fn modelcheck_rwlock_readers_see_consistent_state() {
        let report = explore(|| {
            // Writer keeps (a, b) equal under the write lock; readers must
            // never observe a != b.
            let pair = Arc::new(sync::RwLock::new((0u64, 0u64)));
            let writer = {
                let pair = Arc::clone(&pair);
                thread::spawn(move || {
                    let mut g = pair.write();
                    g.0 += 1;
                    g.1 += 1;
                })
            };
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let pair = Arc::clone(&pair);
                    thread::spawn(move || {
                        let g = pair.read();
                        assert_eq!(g.0, g.1, "readers must see a consistent pair");
                    })
                })
                .collect();
            writer.join().unwrap();
            for r in readers {
                r.join().unwrap();
            }
        });
        assert!(report.ok(), "rwlock invariant holds: {:?}", report.violations);
    }

    #[test]
    fn modelcheck_random_walk_is_deterministic() {
        // ordering: deliberately racy model; the buggy publication is the
        // fixture this determinism test walks.
        let mk = || publication_model(Ordering::Relaxed);
        let a = Builder::new().random_walk(0xDEAD_BEEF, 64).keep_going().check(mk());
        let b = Builder::new().random_walk(0xDEAD_BEEF, 64).keep_going().check(mk());
        assert_eq!(a.interleavings, b.interleavings);
        assert_eq!(a.violations.len(), b.violations.len());
        assert!(!a.ok(), "64 random walks find the publication race");
    }

    #[test]
    fn modelcheck_step_bound_reports_livelock() {
        let report = Builder::new().max_steps(128).check(|| {
            let stop = Arc::new(AtomicBool::new(false));
            let stop2 = Arc::clone(&stop);
            // Nobody ever sets `stop`: a genuine livelock.
            let t = thread::spawn(move || {
                // ordering: spin flag in a deliberate livelock model.
                while !stop2.load(Ordering::Acquire) {
                    hint::spin_loop();
                }
            });
            t.join().unwrap();
        });
        assert!(!report.ok());
        assert_eq!(report.violations[0].kind, ViolationKind::StepBound);
    }

    #[test]
    fn shims_pass_through_outside_model() {
        // No model(): everything must behave like plain std primitives.
        let n = AtomicUsize::new(1);
        // ordering: passthrough smoke test, single-threaded.
        assert_eq!(n.fetch_add(1, Ordering::SeqCst), 1);
        let m = sync::Mutex::new(5);
        assert_eq!(*m.lock(), 5);
        let rw = sync::RwLock::new(7);
        assert_eq!(*rw.read(), 7);
        let t = thread::spawn(|| 3);
        assert_eq!(t.join().unwrap(), 3);
        let cv = sync::Condvar::new();
        let mut g = m.lock();
        // Outside a world nothing else can run: a quiet wait ends at once.
        let res = cv.wait_until_quiet(&mut g);
        assert!(res.timed_out());
    }
}
