//! Shimmed `Mutex` / `RwLock` / `Condvar`, API-compatible with the
//! workspace's `parking_lot` compat shim (non-poisoning, `Condvar::wait`
//! takes `&mut MutexGuard`).
//!
//! Inside a model execution, acquisition is a scheduling point and the
//! model's lock table decides who may hold the lock; the underlying std
//! primitive is then taken uncontended (the model never grants a held
//! lock). Release is an immediate effect. Lock/unlock pairs feed the
//! vector-clock happens-before relation, so data protected by a lock is
//! ordered and data that escapes it races. Outside a model they behave as
//! the native shim does, world scheduling ([`crate::baton`]) included.

use std::panic::Location;

use crate::baton::{Held, WaitList};
use crate::exec::{self, LockReq, ObjTag};

fn unpoison<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Shimmed counterpart of the compat `parking_lot::Mutex`.
pub struct Mutex<T> {
    tag: ObjTag,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(t: T) -> Self {
        Self { tag: ObjTag::new(), inner: std::sync::Mutex::new(t) }
    }

    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let model = exec::lock_acquire(&self.tag, LockReq::Mutex, Location::caller());
        let guard = unpoison(self.inner.lock());
        MutexGuard { lock: self, guard: Some(guard), model, _held: Held::on_lock() }
    }

    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.inner, f)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// Guard for [`Mutex`]; releases the model lock (if any) on drop.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    guard: Option<std::sync::MutexGuard<'a, T>>,
    model: bool,
    /// Last field: dropped after the std guard.
    _held: Held,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside condvar wait")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside condvar wait")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.guard = None;
        if self.model {
            exec::lock_release(&self.lock.tag, LockReq::Mutex);
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Result of a timed wait; mirrors the compat shim's type.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Shimmed counterpart of the compat `parking_lot::Condvar`.
pub struct Condvar {
    tag: ObjTag,
    inner: std::sync::Condvar,
    waiters: WaitList,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    pub const fn new() -> Self {
        Self { tag: ObjTag::new(), inner: std::sync::Condvar::new(), waiters: WaitList::new() }
    }

    #[track_caller]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.park(guard, false);
    }

    /// Like the compat shim's: in a model the wake-up and the timeout are
    /// both explored; in a world it times out when nothing else can run.
    #[track_caller]
    pub fn wait_until_quiet<T>(&self, guard: &mut MutexGuard<'_, T>) -> WaitTimeoutResult {
        WaitTimeoutResult { timed_out: self.park(guard, true) }
    }

    #[track_caller]
    fn park<T>(&self, guard: &mut MutexGuard<'_, T>, timed: bool) -> bool {
        let site = Location::caller();
        if guard.model && exec::condvar_wait_begin(&self.tag, &guard.lock.tag, timed, site) {
            guard.guard = None;
            let timed_out = exec::condvar_wait_finish(site);
            guard.guard = Some(unpoison(guard.lock.inner.lock()));
            return timed_out;
        }
        let inner = guard.guard.take().expect("guard present before wait");
        let (inner, parked) = match self.waiters.wait(timed, inner) {
            Ok(parked) => (unpoison(guard.lock.inner.lock()), parked),
            Err(inner) if timed => (inner, Ok(true)),
            Err(inner) => (unpoison(self.inner.wait(inner)), Ok(false)),
        };
        guard.guard = Some(inner);
        parked.unwrap_or_else(|p| std::panic::resume_unwind(p))
    }

    /// Like the compat shim's: a world task enlists without blocking (no
    /// model runs one).
    #[track_caller]
    pub fn enlist<T>(&self, _guard: &MutexGuard<'_, T>) {
        self.waiters.enlist();
    }

    pub fn notify_one(&self) {
        exec::condvar_notify(&self.tag, false);
        self.inner.notify_one();
        self.waiters.notify(false);
    }

    pub fn notify_all(&self) {
        exec::condvar_notify(&self.tag, true);
        self.inner.notify_all();
        self.waiters.notify(true);
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// Shimmed counterpart of the compat `parking_lot::RwLock`.
pub struct RwLock<T> {
    tag: ObjTag,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(t: T) -> Self {
        Self { tag: ObjTag::new(), inner: std::sync::RwLock::new(t) }
    }

    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let model = exec::lock_acquire(&self.tag, LockReq::Read, Location::caller());
        let guard = unpoison(self.inner.read());
        RwLockReadGuard { lock: self, guard: Some(guard), model, _held: Held::on_lock() }
    }

    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let model = exec::lock_acquire(&self.tag, LockReq::Write, Location::caller());
        let guard = unpoison(self.inner.write());
        RwLockWriteGuard { lock: self, guard: Some(guard), model, _held: Held::on_lock() }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.inner, f)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T> {
    lock: &'a RwLock<T>,
    guard: Option<std::sync::RwLockReadGuard<'a, T>>,
    model: bool,
    _held: Held,
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("read guard present")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.guard = None;
        if self.model {
            exec::lock_release(&self.lock.tag, LockReq::Read);
        }
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T> {
    lock: &'a RwLock<T>,
    guard: Option<std::sync::RwLockWriteGuard<'a, T>>,
    model: bool,
    _held: Held,
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("write guard present")
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("write guard present")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.guard = None;
        if self.model {
            exec::lock_release(&self.lock.tag, LockReq::Write);
        }
    }
}
