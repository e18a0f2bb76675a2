//! Offline stand-in for the `parking_lot` crate: a non-poisoning `Mutex`
//! and a `Condvar` whose `wait`/`wait_until_quiet` take `&mut MutexGuard`,
//! as `std::sync` wrappers that take part in world scheduling — see
//! `native`'s module docs.

mod native;
pub use native::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
