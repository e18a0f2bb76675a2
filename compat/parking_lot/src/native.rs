//! Offline stand-in for the `parking_lot` crate.
//!
//! The build container has no access to crates.io, so this workspace ships a
//! minimal API-compatible implementation on top of `std::sync`. It covers
//! exactly the surface the workspace uses: non-poisoning `Mutex`, `RwLock`,
//! and a `Condvar` whose `wait`/`wait_for` take `&mut MutexGuard` (the
//! parking_lot calling convention, unlike std's by-value guards).
//!
//! Poisoning is deliberately swallowed (`into_inner`) to match parking_lot's
//! semantics: a panic while holding a lock does not wedge every later user.
//!
//! ## Sanity instrumentation
//!
//! Because every lock in the workspace flows through this shim, it doubles
//! as the instrumentation point for `papyrus-sanity`'s lock-order analysis:
//! when `PAPYRUS_SANITY` is on, each acquisition reports its call site
//! (`#[track_caller]`) and lock address to the detector, which maintains
//! per-thread held-lock stacks and a global lock-order graph and reports
//! potential ABBA deadlocks, recursive acquisitions, and condvar waits that
//! keep a second lock held. When the gate is off, the entire overhead is
//! **one relaxed atomic load** per acquisition (`papyrus_sanity::enabled()`)
//! and zero on guard drop (a plain `Option` check).
//!
//! ## World scheduling
//!
//! Inside a simulated world one task runs at a time
//! (`papyrus_modelcheck::baton`): a condvar wait parks the task and hands
//! the baton on (a run-to-completion task enlists instead, without
//! blocking), a notify wakes parked tasks in order, and every guard counts
//! itself so the release of a thread's last guard can hand the baton to a
//! task it woke. Outside a world that is two thread-local updates per
//! guard, and the lock itself stays a plain `std` lock.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ThreadId;

use papyrus_modelcheck::baton::{Held, WaitList};
use papyrus_sanity::lockorder::{self, LockKind};

/// Sanity bookkeeping attached to a guard that was acquired while the
/// detector was enabled.
struct Track {
    addr: usize,
    owner: ThreadId,
}

impl Track {
    /// Pre-acquisition hook for a blocking acquisition: runs the lock-order
    /// checks (against the locks this thread already holds) *before* we
    /// block, so a real deadlock still gets its report.
    #[track_caller]
    fn attempt(addr: usize, kind: LockKind) -> Option<u32> {
        if papyrus_sanity::enabled() {
            Some(lockorder::on_acquire_attempt(addr, kind))
        } else {
            None
        }
    }

    /// Post-acquisition hook paired with [`Track::attempt`].
    fn acquired(addr: usize, site: Option<u32>, kind: LockKind) -> Option<Track> {
        let site = site?;
        lockorder::on_acquired(addr, site, kind);
        Some(Track { addr, owner: std::thread::current().id() })
    }

    /// Guard-drop hook: asserts same-thread release (the detector reports a
    /// cross-thread one) and pops the held entry.
    fn release(self) {
        debug_assert!(
            std::thread::current().id() == self.owner,
            "lock guard for 0x{:x} released on a different thread than acquired it",
            self.addr
        );
        lockorder::on_release(self.addr, self.owner);
    }
}

/// Stable identity of a lock for the order graph: its address.
fn addr_of<T: ?Sized>(lock: &T) -> usize {
    lock as *const T as *const () as usize
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
    track: Option<Track>,
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
    /// Acquire the lock, blocking until available. Never poisons.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let addr = addr_of(self);
        let site = Track::attempt(addr, LockKind::Mutex);
        let guard = self.inner.lock().unwrap_or_else(sync::PoisonError::into_inner);
        let track = Track::acquired(addr, site, LockKind::Mutex);
        MutexGuard { lock: &self.inner, guard: Some(guard), track, _held: Held::on_lock() }
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

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(t) = self.track.take() {
            t.release();
        }
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

    /// Sanity hook before the mutex is released for the wait: reports any
    /// *other* lock the thread keeps holding across the sleep and pops the
    /// mutex from the held stack. Only fires for guards that were tracked
    /// at acquisition (no atomic load on the untracked path).
    fn wait_begin<T>(guard: &MutexGuard<'_, T>) -> Option<(usize, Option<(u32, LockKind)>)> {
        let t = guard.track.as_ref()?;
        Some((t.addr, lockorder::on_condvar_wait_begin(t.addr)))
    }

    fn wait_end(token: Option<(usize, Option<(u32, LockKind)>)>) {
        if let Some((addr, tok)) = token {
            lockorder::on_condvar_wait_end(addr, tok);
        }
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
        let token = Self::wait_begin(guard);
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
        Self::wait_end(token);
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

/// Reader-writer lock (non-poisoning `std::sync::RwLock` wrapper).
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared-read RAII guard for [`RwLock`].
#[must_use = "a lock guard is released as soon as it is dropped"]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: sync::RwLockReadGuard<'a, T>,
    track: Option<Track>,
    _held: Held,
}

/// Exclusive-write RAII guard for [`RwLock`].
#[must_use = "a lock guard is released as soon as it is dropped"]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: sync::RwLockWriteGuard<'a, T>,
    track: Option<Track>,
    _held: Held,
}

impl<T> RwLock<T> {
    /// Create an RwLock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self { inner: sync::RwLock::new(value) }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock. Never poisons.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let addr = addr_of(self);
        let site = Track::attempt(addr, LockKind::Read);
        let guard = self.inner.read().unwrap_or_else(sync::PoisonError::into_inner);
        RwLockReadGuard {
            guard,
            track: Track::acquired(addr, site, LockKind::Read),
            _held: Held::on_lock(),
        }
    }

    /// Acquire an exclusive write lock. Never poisons.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let addr = addr_of(self);
        let site = Track::attempt(addr, LockKind::Write);
        let guard = self.inner.write().unwrap_or_else(sync::PoisonError::into_inner);
        RwLockWriteGuard {
            guard,
            track: Track::acquired(addr, site, LockKind::Write),
            _held: Held::on_lock(),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(t) = self.track.take() {
            t.release();
        }
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(t) = self.track.take() {
            t.release();
        }
    }
}

#[cfg(test)]
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
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
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
