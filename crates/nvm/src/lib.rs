//! # papyrus-nvm
//!
//! Virtual NVM / parallel-file-system storage substrate.
//!
//! PapyrusKV accesses NVM through the POSIX file-system interface (paper
//! §2.3) and distinguishes two distributed NVM architectures (§2.7):
//!
//! * **Local NVM** — each compute node has private NVMe/SSD; all ranks on a
//!   node form one *storage group* and share that device.
//! * **Dedicated NVM** — burst-buffer nodes hold the SSDs; every rank can
//!   reach them, so all ranks form a single storage group.
//!
//! This crate reproduces that model in-process:
//!
//! * [`NvmStore`] — a named-object store (paths ≈ files) with a
//!   [`papyrus_simtime::DeviceModel`] cost model and a shared device queue,
//!   so concurrent ranks in a storage group contend realistically. The
//!   bytes live behind the [`Backend`] trait: [`MemBackend`] here, and any
//!   decorator a checker or benchmark wraps around it (crashcheck's
//!   journal, kvbench's counter).
//! * [`StorageMap`] — rank → storage-group mapping for a given group size,
//!   giving each group its own shared [`NvmStore`].
//! * [`SystemProfile`] — full machine descriptions of the paper's Table 2
//!   systems (Summitdev, Stampede KNL, Cori Haswell): interconnect, NVM
//!   device, parallel file system, ranks per node, iteration counts.

mod backend;
mod store;
mod system;

pub use backend::{Backend, MemBackend};
pub use papyrus_faultinject::IoFault;
pub use store::NvmStore;
pub use system::{NvmArch, StorageMap, SystemProfile};
