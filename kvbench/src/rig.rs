//! The simulated machine a workload runs on, with a counting backend under
//! every rank's NVM store.

use std::sync::Arc;

use papyrus_mpi::WorldConfig;
use papyrus_nvm::{NvmStore, StorageMap, SystemProfile};
use papyruskv::Platform;

use crate::count::{BackendCounts, CountingBackend};

/// Repository path every workload uses.
pub const REPO: &str = "nvm://kvbench";

/// A Summitdev-profile platform (node-local NVMe, InfiniBand EDR, DDR4) for
/// `ranks` ranks with storage-group size 1: each rank owns its device, so a
/// device is only ever touched on behalf of one driver and virtual time
/// repeats exactly.
pub struct Rig {
    pub platform: Arc<Platform>,
    backends: Vec<Arc<CountingBackend>>,
}

impl Rig {
    pub fn new(ranks: usize) -> Arc<Self> {
        let profile = SystemProfile::summitdev();
        let backends: Vec<Arc<CountingBackend>> =
            (0..ranks).map(|_| CountingBackend::new()).collect();
        let stores = backends
            .iter()
            .map(|b| NvmStore::with_backend(profile.nvm.clone(), b.clone()))
            .collect();
        let storage = StorageMap::from_parts(stores, 1, NvmStore::in_memory(profile.pfs.clone()));
        let platform = Arc::new(Platform {
            profile,
            storage,
            n_ranks: ranks,
            repl: papyrus_replica::PromotionTable::new(),
        });
        Arc::new(Self { platform, backends })
    }

    pub fn world_config(&self) -> WorldConfig {
        WorldConfig::new(self.platform.n_ranks, self.platform.profile.net.clone())
    }

    /// Backend counts summed over every rank's store.
    pub fn counts(&self) -> BackendCounts {
        self.backends.iter().fold(BackendCounts::default(), |acc, b| acc.plus(&b.counts()))
    }

    /// Bytes resident in every rank's store.
    pub fn resident_bytes(&self) -> u64 {
        self.backends.iter().map(|b| b.resident_bytes()).sum()
    }
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and every thread it spawns from now on, to the
/// CPU it is running on. Returns that CPU, or `None` if the kernel refused
/// (the run then proceeds unpinned).
///
/// Why: a rank's helper threads hand work to each other through futex
/// wake-ups, and on a two-core box where the woken thread lands decides
/// whether a hand-off costs 2 µs or 30 µs, for a whole run at a time. On
/// one CPU a hand-off is a context switch and host time is the CPU cost of
/// the code, which is what a change to the code can move. The CPU the
/// scheduler last chose for this thread is the one a busy neighbour is
/// least likely to be on.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads kernel state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed; pid 0 names the calling thread; the call writes nothing.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}
