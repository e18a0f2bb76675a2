//! Telemetry's one lock: a leaf lock that no world's scheduler sees.

// A std mutex, not the `parking_lot` shim: the release of a shim guard is
// a point where a world's scheduler may hand the baton on, so an observer
// that took one would move the schedule it records. Nothing locks or parks
// while a leaf guard is held, so the scheduler has nothing to see.
#![allow(clippy::disallowed_types, reason = "telemetry's leaf lock stays out of the schedule")]

use std::sync::{Mutex, MutexGuard, PoisonError};

/// A mutex whose poisoning is ignored: a panic under it leaves whole maps
/// and buffers behind.
#[derive(Default)]
pub(crate) struct Leaf<T>(Mutex<T>);

impl<T> Leaf<T> {
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
