//! Atomics facade for protocol code.
//!
//! Protocol-path files (`papyruskv`'s `db.rs`/`runtime.rs`, the MPI
//! fabric) must not name `std::sync::atomic` directly — the
//! `no-atomic-in-protocol` lint enforces it. They import this module
//! instead, which is a plain re-export of the std types in a normal build
//! and of the model checker's shimmed types under
//! `RUSTFLAGS="--cfg modelcheck"`. The swap is what lets
//! `cargo xtask modelcheck` explore protocol interleavings: every load,
//! store, and RMW on a facade atomic becomes a scheduling point with
//! happens-before tracking, without the protocol code changing at all.
//!
//! This mirrors how `compat/parking_lot` swaps its lock types; the facade
//! lives here (not in the compat shim) because protocol crates already
//! depend on `papyrus-sanity` for its gate, and the atomics story is part
//! of the same sanity plane.
//!
//! Only the types the protocol paths use are re-exported. Add more as
//! needed — but each addition widens what the model checker must shim, so
//! keep the surface deliberate.

#[cfg(modelcheck)]
pub use papyrus_modelcheck::atomic::{AtomicBool, AtomicU64, Ordering};

#[cfg(not(modelcheck))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
