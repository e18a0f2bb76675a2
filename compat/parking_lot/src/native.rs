//! Offline stand-in for the `parking_lot` crate.
//!
//! The build container has no access to crates.io, so this workspace ships a
//! minimal API-compatible implementation on top of `std::sync`. It covers
//! exactly the surface the workspace uses: a non-poisoning `Mutex` and a
//! `Condvar` whose `wait`/`wait_until_quiet` take `&mut MutexGuard` (the
//! parking_lot calling convention, unlike std's by-value guards). There is
//! no reader-writer lock: a world runs one task at a time, so a read lock's
//! sharing would never be used.
//!
//! Poisoning is deliberately swallowed (`into_inner`) to match parking_lot's
//! semantics: a panic while holding a lock does not wedge every later user.
//!
//! ## World scheduling
//!
//! Inside a simulated world one task runs at a time (`papyrus_baton`): a
//! condvar wait parks the task and hands the baton on (a run-to-completion
//! task enlists instead, without blocking; a wait under a second guard is
//! refused), a notify wakes parked tasks in order, and every guard records
//! its lock as held by the thread, so the release of a thread's last guard
//! can hand the baton to a task it woke. A lock the thread already holds is
//! refused before the std acquire: re-taken, a std mutex blocks its own
//! thread, where no verdict sees it.
//! Outside a world that is two thread-local updates per guard, and the lock
//! itself stays a plain `std` lock.

// The shim is where the std locks belong: it wraps them in the lock a
// world's scheduler sees.
#![allow(clippy::disallowed_types, reason = "the shim wraps the std locks")]

use std::any::type_name;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;
use std::sync::atomic::{AtomicUsize, Ordering};

use papyrus_baton::{Held, WaitList};

/// A lock's identity while it is held: its address.
fn address<L: ?Sized>(lock: &L) -> usize {
    (lock as *const L).cast::<()>() as usize
}

/// A mutual-exclusion primitive (non-poisoning `std::sync::Mutex` wrapper).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]. Holds the std guard in an `Option` so
/// [`Condvar::wait`] can temporarily take it by value.
#[must_use = "a lock guard is released as soon as it is dropped"]
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a sync::Mutex<T>,
    guard: Option<sync::MutexGuard<'a, T>>,
    /// Last field: dropped after the std guard is released.
    _held: Held,
}

impl<T> Mutex<T> {
    /// Create a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self { inner: sync::Mutex::new(value) }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available. Never poisons; refuses
    /// a lock the thread already holds.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = Held::on_lock(address(self), type_name::<Self>());
        let guard = self.inner.lock().unwrap_or_else(sync::PoisonError::into_inner);
        MutexGuard { lock: &self.inner, guard: Some(guard), _held: held }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard taken during condvar wait")
    }
}

/// Result of a timed wait: whether the timeout elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable compatible with [`Mutex`]/[`MutexGuard`].
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
    /// Threads outside a world waiting on `inner`, counted under the mutex:
    /// a notify with none skips `inner`, whose wake is a system call even
    /// with nobody to wake.
    native: AtomicUsize,
    /// World tasks parked here (they never wait on `inner`).
    waiters: WaitList,
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Self { inner: sync::Condvar::new(), native: AtomicUsize::new(0), waiters: WaitList::new() }
    }

    /// Block until notified, releasing the guard's lock while waiting. In a
    /// world the caller's site is what a deadlock verdict names.
    #[track_caller]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.park(guard, false);
    }

    /// Block until notified or until nothing else can run: in a world, the
    /// wait times out only when no other task is runnable; outside one the
    /// caller is alone, so it returns at once, timed out.
    #[track_caller]
    pub fn wait_until_quiet<T>(&self, guard: &mut MutexGuard<'_, T>) -> WaitTimeoutResult {
        WaitTimeoutResult(self.park(guard, true))
    }

    #[track_caller]
    fn park<T>(&self, guard: &mut MutexGuard<'_, T>, timed: bool) -> bool {
        let g = guard.guard.take().expect("guard taken during condvar wait");
        let (g, parked) = match self.waiters.wait(timed, g) {
            Ok(parked) => (guard.lock.lock().unwrap_or_else(sync::PoisonError::into_inner), parked),
            Err(g) if timed => (g, Ok(true)),
            Err(g) => {
                // ordering: counted and read under the condvar's mutex, whose
                // release by the wait orders the count before any notify.
                self.native.fetch_add(1, Ordering::Relaxed);
                let g = self.inner.wait(g).unwrap_or_else(sync::PoisonError::into_inner);
                // ordering: as above; the mutex is held again.
                self.native.fetch_sub(1, Ordering::Relaxed);
                (g, Ok(false))
            }
        };
        guard.guard = Some(g);
        // A world that can never move again unwinds its parked tasks.
        parked.unwrap_or_else(|p| std::panic::resume_unwind(p))
    }

    /// Park the calling run-to-completion task of a world here without
    /// blocking: its slice must end, and a notify makes the task runnable
    /// again. `guard` (this condvar's mutex) is held, so a notify after the
    /// caller's check cannot be missed.
    #[track_caller]
    pub fn enlist<T>(&self, _guard: &MutexGuard<'_, T>) {
        self.waiters.enlist();
    }

    /// Whether a thread outside a world may wait on `inner`.
    fn native_waiters(&self) -> bool {
        // ordering: a waiter counts itself under the mutex the notifier took
        // to change what it waits for, so that lock orders the two.
        self.native.load(Ordering::Relaxed) > 0
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        if self.native_waiters() {
            self.inner.notify_one();
        }
        self.waiters.notify(false);
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        if self.native_waiters() {
            self.inner.notify_all();
        }
        self.waiters.notify(true);
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "the test races OS threads outside any world")]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(format!("{m:?}"), "Mutex { data: 2, poisoned: false, .. }");
    }

    #[test]
    fn condvar_wait_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let h = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        thread::sleep(Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        // Outside a world nobody else can run: a quiet wait ends at once.
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_until_quiet(&mut g);
        assert!(r.timed_out());
    }

    #[test]
    fn mutex_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: the lock is usable afterwards.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
