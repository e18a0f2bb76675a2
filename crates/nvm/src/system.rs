//! Machine profiles (the paper's Table 2) and rank → storage-group mapping.

use std::sync::Arc;

use papyrus_simtime::{DeviceModel, MemModel, NetModel};

use crate::store::NvmStore;

/// Distributed NVM architecture class (paper §2.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmArch {
    /// NVM devices are private to each compute node (Summitdev, Stampede,
    /// future Summit/Theta/Sierra). A storage group = the ranks of one node.
    Local,
    /// NVM lives on dedicated burst-buffer nodes reachable by everyone
    /// (Cori, Trinity). All ranks form a single storage group.
    Dedicated,
}

/// A full target-system description, mirroring the paper's Table 2.
#[derive(Debug, Clone)]
pub struct SystemProfile {
    /// System name, e.g. `"summitdev"`.
    pub name: &'static str,
    /// Site, e.g. `"OLCF"`.
    pub site: &'static str,
    /// NVM architecture class.
    pub arch: NvmArch,
    /// Interconnect model.
    pub net: NetModel,
    /// DRAM model (MemTable operations).
    pub mem: MemModel,
    /// The NVM device class of this system.
    pub nvm: DeviceModel,
    /// The parallel file system reachable from all ranks.
    pub pfs: DeviceModel,
    /// Physical cores per node == MPI ranks used per node in the paper.
    pub ranks_per_node: usize,
    /// Iteration count the paper used on this system (10K, or 1K on
    /// Stampede due to SSD capacity).
    pub iters: usize,
    /// NVM capacity per storage group in bytes (for capacity accounting).
    pub nvm_capacity: u64,
}

impl SystemProfile {
    /// OLCF Summitdev: POWER8, node-local 800 GB NVMe, InfiniBand EDR.
    pub fn summitdev() -> Self {
        Self {
            name: "summitdev",
            site: "OLCF",
            arch: NvmArch::Local,
            net: NetModel::infiniband_edr(),
            mem: MemModel::ddr4(),
            nvm: DeviceModel::nvme_summitdev(),
            pfs: DeviceModel::lustre(),
            ranks_per_node: 20,
            iters: 10_000,
            nvm_capacity: 800 * 1_000_000_000,
        }
    }

    /// TACC Stampede (KNL): node-local 112 GB SSD, Omni-Path.
    pub fn stampede() -> Self {
        Self {
            name: "stampede",
            site: "TACC",
            arch: NvmArch::Local,
            net: NetModel::omni_path(),
            mem: MemModel::ddr4(),
            nvm: DeviceModel::ssd_stampede(),
            pfs: DeviceModel::lustre(),
            ranks_per_node: 68,
            iters: 1_000,
            nvm_capacity: 112 * 1_000_000_000,
        }
    }

    /// NERSC Cori (Haswell): dedicated burst-buffer SSDs, Aries Dragonfly.
    pub fn cori() -> Self {
        Self {
            name: "cori",
            site: "NERSC",
            arch: NvmArch::Dedicated,
            net: NetModel::aries_dragonfly(),
            mem: MemModel::ddr4(),
            nvm: DeviceModel::burst_buffer_cori(),
            pfs: DeviceModel::lustre(),
            ranks_per_node: 32,
            iters: 10_000,
            nvm_capacity: 1_800_000_000_000_000 / 1000, // 1.8 PB aggregate, scaled per job
        }
    }

    /// A free-cost profile for unit tests (single-rank groups by default).
    pub fn test_profile() -> Self {
        Self {
            name: "test",
            site: "local",
            arch: NvmArch::Local,
            net: NetModel::free(),
            mem: MemModel::free(),
            nvm: DeviceModel::dram(),
            pfs: DeviceModel::dram(),
            ranks_per_node: 1,
            iters: 100,
            nvm_capacity: u64::MAX,
        }
    }

    /// The three evaluation systems, in the paper's order.
    pub fn all_eval_systems() -> Vec<SystemProfile> {
        vec![Self::summitdev(), Self::stampede(), Self::cori()]
    }

    /// Default storage-group size for `n_ranks` ranks on this system: the
    /// ranks of one node for local NVM, everyone for dedicated NVM.
    pub fn default_group_size(&self, n_ranks: usize) -> usize {
        match self.arch {
            NvmArch::Local => self.ranks_per_node.min(n_ranks.max(1)),
            NvmArch::Dedicated => n_ranks.max(1),
        }
    }
}

/// Rank → storage-group mapping plus the per-group shared [`NvmStore`]s and
/// the globally shared parallel file system.
///
/// Ranks `[k*g, (k+1)*g)` form group `k` (like consecutive ranks placed on
/// the same node). All ranks in a group share one NVM device queue; all
/// ranks in the world share the PFS queue.
#[derive(Clone)]
pub struct StorageMap {
    group_size: usize,
    groups: Arc<Vec<NvmStore>>,
    pfs: NvmStore,
}

impl StorageMap {
    /// Build a map for `n_ranks` ranks with `group_size` ranks per group,
    /// using in-memory backends.
    pub fn new(profile: &SystemProfile, n_ranks: usize, group_size: usize) -> Self {
        Self::with_pfs(profile, n_ranks, group_size, NvmStore::in_memory(profile.pfs.clone()))
    }

    /// Build with an explicit parallel file system store. The PFS outlives
    /// jobs: passing the same store to maps of *different* rank counts
    /// models coupled applications in different jobs sharing snapshots
    /// (paper Figure 5(b)-(c)).
    pub fn with_pfs(
        profile: &SystemProfile,
        n_ranks: usize,
        group_size: usize,
        pfs: NvmStore,
    ) -> Self {
        assert!(n_ranks > 0 && group_size > 0);
        let n_groups = n_ranks.div_ceil(group_size);
        let groups = (0..n_groups).map(|_| NvmStore::in_memory(profile.nvm.clone())).collect();
        Self { group_size, groups: Arc::new(groups), pfs }
    }

    /// Build with the system's default group size.
    pub fn with_default_groups(profile: &SystemProfile, n_ranks: usize) -> Self {
        Self::new(profile, n_ranks, profile.default_group_size(n_ranks))
    }

    /// Build from prebuilt stores: one per storage group plus the PFS. The
    /// crash-consistency checker uses this to run a job against journaled
    /// backends, and again to re-open a database from backends materialised
    /// at a crash point.
    pub fn from_parts(groups: Vec<NvmStore>, group_size: usize, pfs: NvmStore) -> Self {
        assert!(!groups.is_empty() && group_size > 0);
        Self { group_size, groups: Arc::new(groups), pfs }
    }

    /// Storage-group id of a rank.
    pub fn group_of(&self, rank: usize) -> usize {
        rank / self.group_size
    }

    /// Ranks per group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of storage groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// The shared NVM store of `rank`'s storage group.
    pub fn nvm_of(&self, rank: usize) -> &NvmStore {
        &self.groups[self.group_of(rank)]
    }

    /// The parallel file system shared by all ranks.
    pub fn pfs(&self) -> &NvmStore {
        &self.pfs
    }

    /// Whether two ranks share NVM storage (same storage group).
    pub fn same_group(&self, a: usize, b: usize) -> bool {
        self.group_of(a) == self.group_of(b)
    }

    /// Trim all NVM scratch (end of job) but keep the PFS contents —
    /// exactly the situation motivating checkpoint/restart in §4.2.
    pub fn trim_nvm(&self) {
        for g in self.groups.iter() {
            g.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_profiles_match_paper() {
        let s = SystemProfile::summitdev();
        assert_eq!(s.ranks_per_node, 20);
        assert_eq!(s.arch, NvmArch::Local);
        assert_eq!(s.iters, 10_000);

        let t = SystemProfile::stampede();
        assert_eq!(t.ranks_per_node, 68);
        assert_eq!(t.iters, 1_000); // SSD capacity limit

        let c = SystemProfile::cori();
        assert_eq!(c.ranks_per_node, 32);
        assert_eq!(c.arch, NvmArch::Dedicated);
    }

    #[test]
    fn default_group_size_local_vs_dedicated() {
        assert_eq!(SystemProfile::summitdev().default_group_size(320), 20);
        assert_eq!(SystemProfile::stampede().default_group_size(4352), 68);
        assert_eq!(SystemProfile::cori().default_group_size(512), 512);
        // Fewer ranks than a node still forms one group.
        assert_eq!(SystemProfile::summitdev().default_group_size(8), 8);
    }

    #[test]
    fn storage_map_group_assignment() {
        let p = SystemProfile::test_profile();
        let m = StorageMap::new(&p, 10, 4);
        assert_eq!(m.n_groups(), 3);
        assert_eq!(m.group_of(0), 0);
        assert_eq!(m.group_of(3), 0);
        assert_eq!(m.group_of(4), 1);
        assert_eq!(m.group_of(9), 2);
        assert!(m.same_group(4, 7));
        assert!(!m.same_group(3, 4));
    }

    #[test]
    fn group_members_share_store_others_do_not() {
        let p = SystemProfile::test_profile();
        let m = StorageMap::new(&p, 4, 2);
        let c = papyrus_simtime::Clock::new();
        m.nvm_of(0).put("f", bytes::Bytes::from_static(b"x"), &c);
        assert!(m.nvm_of(1).exists("f")); // same node
        assert!(!m.nvm_of(2).exists("f")); // different node
    }

    #[test]
    fn trim_nvm_preserves_pfs() {
        let p = SystemProfile::test_profile();
        let m = StorageMap::new(&p, 2, 1);
        let c = papyrus_simtime::Clock::new();
        m.nvm_of(0).put("scratch", bytes::Bytes::from_static(b"x"), &c);
        m.pfs().put("checkpoint", bytes::Bytes::from_static(b"y"), &c);
        m.trim_nvm();
        assert!(!m.nvm_of(0).exists("scratch"));
        assert!(m.pfs().exists("checkpoint"));
    }

    #[test]
    fn all_eval_systems_listed() {
        let names: Vec<_> = SystemProfile::all_eval_systems().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["summitdev", "stampede", "cori"]);
    }
}
