//! Offline stand-in for the `parking_lot` crate.
//!
//! Two backends behind one API surface (non-poisoning `Mutex` / `RwLock`,
//! `Condvar` whose `wait`/`wait_until_quiet` take `&mut MutexGuard`):
//!
//! - **native** (default): `std::sync` wrappers with `papyrus-sanity`
//!   lock-order instrumentation — see `native`'s module docs.
//! - **modelcheck** (`--cfg modelcheck`): the `papyrus-modelcheck` shim
//!   types, which make every acquisition a scheduling point of the
//!   deterministic schedule explorer. Because every lock in the workspace
//!   flows through this crate, switching the backend here puts *all*
//!   lock-based code under the model checker without touching it.

#[cfg(not(modelcheck))]
mod native;
#[cfg(not(modelcheck))]
pub use native::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(modelcheck)]
pub use papyrus_modelcheck::sync::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};
