//! # papyrus-mpi
//!
//! An in-process SPMD message-passing substrate standing in for MPI.
//!
//! PapyrusKV is an *embedded* KVS: it is a user-level library linked into an
//! MPI application, using tagged point-to-point messages (at
//! `MPI_THREAD_MULTIPLE` level, from dispatcher/handler helper threads),
//! duplicated communicators for runtime-internal traffic, and a handful of
//! collectives. It never uses one-sided MPI. This crate provides exactly that
//! surface with each *rank* running as an OS thread inside one process, one
//! thread of a world at a time, in virtual-time order:
//!
//! * [`World::run`] — launch `n` ranks executing the same closure (SPMD);
//!   [`RankCtx::spawn`] adds a rank's helper threads as [`Task`]s, and
//!   [`RankCtx::spawn_slices`] a run-to-completion helper whose [`Slice`]s
//!   run on the thread that hands it the baton.
//! * [`RankCtx`] — per-rank handle: `rank()`, `size()`, the world
//!   [`Communicator`], the rank's virtual [`papyrus_simtime::Clock`], and
//!   collective helpers.
//! * [`Communicator`] — tagged, FIFO-per-(sender,tag) point-to-point
//!   messaging with `MPI_ANY_SOURCE`/`MPI_ANY_TAG`-style wildcards, plus
//!   `dup` so library-internal traffic cannot collide with application
//!   traffic (paper §2.4 "the runtime creates new independent
//!   MPI communicators").
//!
//! Virtual time: each message is charged to the sender's egress NIC and the
//! receiver's ingress NIC ([`papyrus_simtime::Resource`] busy-until queues)
//! plus a wire latency, so incast congestion — which the paper credits for
//! `Seq+B` beating `Rel+B` in Figure 7 — emerges naturally.
//!
//! Faults: a world runs under a `papyrus_faultinject::FaultPlan` iff its
//! [`WorldConfig`] names one ([`WorldConfig::with_faults`]). The plan lives
//! on that world's [`Fabric`] — delay spikes, drops, rank death and the
//! heartbeat failure detector all read it from there — so worlds in one
//! process never share faults, and an unarmed world's receives and
//! collectives park untimed.

mod comm;
mod fabric;
mod world;

pub use comm::{Communicator, Message, RecvSrc, RecvTag};
pub use fabric::{Fabric, RankStatus};
pub use papyrus_modelcheck::baton::{Grants, Slice, Task, Verdict};
pub use world::{panic_message, RankCtx, World, WorldConfig};

/// A rank index within a communicator.
pub type Rank = usize;

/// A message tag (like an MPI tag).
pub type Tag = u32;
