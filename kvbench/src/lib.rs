//! kvbench: the repository's benchmark.
//!
//! Six workloads, each run in its own process, on two axes: *host* time
//! (what the Rust takes) and *virtual* time (what the modelled machine would
//! take). An end-to-end run has tracing and telemetry off and reports the
//! metrics a user of the store would see; a separate traced run records
//! spans at every boundary visible from outside the store, enables
//! `papyrus_telemetry`, probes each layer's public functions in isolation,
//! and reports the per-layer metrics. Nothing in the repository's crates is
//! changed: every layer is measured from outside. See `README.md` beside
//! this package for the tables.

pub mod calib;
pub mod compare;
pub mod count;
pub mod gen;
pub mod kv;
pub mod metrics;
pub mod probes;
pub mod rig;
pub mod run;
pub mod serve;
pub mod span;
pub mod stats;

#[global_allocator]
static GLOBAL: count::CountingAlloc = count::CountingAlloc;
