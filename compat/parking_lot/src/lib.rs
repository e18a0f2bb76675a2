//! Offline stand-in for the `parking_lot` crate: non-poisoning `Mutex` /
//! `RwLock` and a `Condvar` whose `wait`/`wait_until_quiet` take
//! `&mut MutexGuard`, as `std::sync` wrappers that take part in world
//! scheduling — see `native`'s module docs.

mod native;
pub use native::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};
