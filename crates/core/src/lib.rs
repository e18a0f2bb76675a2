//! # PapyrusKV
//!
//! A from-scratch Rust reproduction of **PapyrusKV: A High-Performance
//! Parallel Key-Value Store for Distributed NVM Architectures** (Kim, Lee,
//! Vetter — SC 2017).
//!
//! PapyrusKV is an *embedded*, MPI-style distributed key-value store
//! following the log-structured merge-tree design: keys and values (arbitrary
//! byte arrays) are distributed across ranks by a hash of the key, staged in
//! in-memory key-ordered MemTables, and flushed to immutable sorted
//! SSTables on NVM. On top of the standard put/get/delete operations it
//! provides the paper's HPC-specific features:
//!
//! * **Dynamic consistency control** (§3.1) — per-database relaxed vs.
//!   sequential consistency, switchable at runtime; fence and barrier
//!   synchronisation primitives; signal notify/wait.
//! * **Protection attributes** (§3.2) — read-write / write-only / read-only
//!   phases driving cache policy (the read-only remote cache).
//! * **Storage groups** (§2.7) — ranks sharing an NVM device read each
//!   other's SSTables directly, skipping data transfer.
//! * **Zero-copy workflow** (§4.1) — SSTables persist past a database close
//!   and are recomposed by a later `open` with no data movement.
//! * **Asynchronous checkpoint/restart** (§4.2) — background snapshot to a
//!   parallel file system, restart with optional redistribution.
//!
//! The execution substrate is simulated (see the `papyrus-mpi` and
//! `papyrus-nvm` crates): ranks are threads, the interconnect and storage
//! devices are cost models over virtual time, which is how this repository
//! regenerates the paper's evaluation on a laptop.
//!
//! ## Quickstart
//!
//! ```
//! use papyruskv::{Context, Options, OpenFlags, Platform};
//! use papyrus_mpi::{World, WorldConfig};
//! use papyrus_nvm::SystemProfile;
//!
//! let platform = Platform::new(SystemProfile::test_profile(), 4);
//! World::run(WorldConfig::for_tests(4), move |rank| {
//!     let ctx = Context::init(rank, platform.clone(), "nvm://quickstart").unwrap();
//!     let db = ctx.open("mydb", OpenFlags::create(), Options::default()).unwrap();
//!     let key = format!("rank{}-key", ctx.rank());
//!     db.put(key.as_bytes(), b"hello").unwrap();
//!     db.barrier(papyruskv::BarrierLevel::MemTable).unwrap();
//!     assert_eq!(&db.get(key.as_bytes()).unwrap()[..], b"hello");
//!     db.close().unwrap();
//!     ctx.finalize().unwrap();
//! });
//! ```
//!
//! ### C API mapping
//!
//! For porting code written against the original C library: every
//! `papyruskv_*` entry point has a method here, options structs replace
//! the flag words, and [`Error`] replaces the integer return codes.
//!
//! | C function | Rust equivalent |
//! |---|---|
//! | `papyruskv_init` / `papyruskv_finalize` | [`Context::init`] / [`Context::finalize`] |
//! | `papyruskv_open` / `papyruskv_close` | [`Context::open`] / [`Db::close`] |
//! | `papyruskv_put` / `get` / `delete` | [`Db::put`] / [`Db::get`] / [`Db::delete`] |
//! | `papyruskv_free` | dropping the returned [`bytes::Bytes`] |
//! | `papyruskv_fence` / `papyruskv_barrier` | [`Db::fence`] / [`Db::barrier`] |
//! | `papyruskv_consistency` / `papyruskv_protect` | [`Db::set_consistency`] / [`Db::protect`] |
//! | `papyruskv_signal_notify` / `wait` | [`Context::signal_notify`] / [`Context::signal_wait`] |
//! | `papyruskv_checkpoint` / `restart` / `destroy` | [`Db::checkpoint`] / [`Context::restart`] / [`Db::destroy`] |
//! | `papyruskv_wait` | [`Event::wait`] |

pub mod bloom;
mod ckpt;
mod db;
pub mod error;
pub mod hashfn;
mod key;
pub mod lru;
pub mod memtable;
pub mod msg;
pub mod options;
pub mod queue;
mod read;
mod replica;
mod runtime;
pub mod sanity;
pub mod sstable;
mod stack;
mod sync;
mod tel;
mod write;

pub use db::Db;
pub use error::{Error, Result};
pub use options::{BarrierLevel, CompactionTrigger, Consistency, OpenFlags, Options, Protection};
pub use runtime::{Context, Event, Platform, RepoKind};
