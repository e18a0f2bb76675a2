//! # mdhim — the comparison baseline for Figure 11
//!
//! A faithful-in-spirit reimplementation of MDHIM (Greenberg, Bent, Grider —
//! HotStorage'15): "a parallel embedded key/value framework for HPC" that
//! "presents a communication/distribution layer on top of the local data
//! store such as LevelDB".
//!
//! The PapyrusKV paper's §5.2 attributes MDHIM's performance gap to two
//! architectural properties, both reproduced here:
//!
//! 1. **Two discrete layers with duplicated memory structures** — the
//!    communication/distribution layer ([`Mdhim`] client + range server)
//!    keeps its own buffers and hands records to an independent local store
//!    ([`ldb::MiniLdb`], a miniature LevelDB with its own MemTable
//!    and table files), incurring "additional duplicated memory allocation
//!    and data transfer between the two layers".
//! 2. **No SSTable sharing** — each rank's LevelDB instance is private, so
//!    every remote get moves the full value over the interconnect even when
//!    the ranks share an NVM device.
//!
//! Keys are range-partitioned across ranks (MDHIM's sliced key space), each
//! rank acting as the range server for its slice.

pub mod ldb;
mod store;

pub use store::{range_owner, Mdhim, MdhimConfig, MdhimError};
