//! # papyrus-dsm
//!
//! A UPC-style distributed-shared-memory (PGAS) substrate: the baseline the
//! paper compares PapyrusKV against for the Meraculous assembler (§5.2,
//! Figure 13).
//!
//! Unified Parallel C presents a single global address space over
//! distributed memory; Meraculous implements its de Bruijn graph as a
//! distributed hash table whose accesses compile down to *one-sided* RDMA
//! gets/puts and built-in remote atomics — no software handler on the
//! remote side, which is exactly the advantage the paper measures during
//! graph traversal ("UPC shows better performance than PapyrusKV due to its
//! RDMA capability and built-in remote atomic operations").
//!
//! This crate reproduces that mechanism in-process:
//!
//! * [`GlobalHashTable`] — a hash table partitioned across ranks by key
//!   affinity (like `upc_all_alloc`-ed buckets). Remote accesses touch the
//!   owner's memory directly (threads share an address space) and are
//!   charged one-sided RDMA costs (`NetModel::rdma_ns`), lower than the
//!   two-sided message costs PapyrusKV pays.
//!
//! UPC's built-in remote atomics are not modelled: the assembler here
//! partitions traversal seeds by owner, so no vertex is claimed remotely
//! (DESIGN §2).

use std::sync::Arc;

use bytes::Bytes;
use papyrus_mpi::RankCtx;
use papyrus_simtime::{MemModel, NetModel, Resource};
use parking_lot::Mutex;

/// One stored entry.
#[derive(Debug, Clone)]
struct Slot {
    key: Vec<u8>,
    value: Bytes,
}

/// One rank's partition: chained buckets under fine-grained locks (UPC
/// programs guard hash-table buckets with `upc_lock_t` the same way).
struct Segment {
    buckets: Vec<Mutex<Vec<Slot>>>,
}

impl Segment {
    fn new(n_buckets: usize) -> Self {
        Self { buckets: (0..n_buckets).map(|_| Mutex::new(Vec::new())).collect() }
    }
}

/// The shared (world-wide) state of a [`GlobalHashTable`]: build once with
/// [`GlobalHashTable::shared`] outside the SPMD closure, then `attach` per
/// rank.
pub struct DsmShared {
    segments: Vec<Segment>,
    nics: Vec<Resource>,
    net: NetModel,
    mem: MemModel,
    buckets_per_rank: usize,
}

/// Per-rank handle to a distributed hash table in the global address space.
#[derive(Clone)]
pub struct GlobalHashTable {
    shared: Arc<DsmShared>,
    rank: RankCtx,
}

/// FNV-1a over the key — the affinity function (UPC applications pick their
/// own; Meraculous hashes the k-mer).
fn fnv(key: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    // Avalanche so both rank and bucket selection are well mixed.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^ (h >> 33)
}

impl GlobalHashTable {
    /// Build the shared state for `n_ranks` ranks with `buckets_per_rank`
    /// buckets each.
    pub fn shared(
        n_ranks: usize,
        buckets_per_rank: usize,
        net: NetModel,
        mem: MemModel,
    ) -> Arc<DsmShared> {
        assert!(n_ranks > 0 && buckets_per_rank > 0);
        Arc::new(DsmShared {
            segments: (0..n_ranks).map(|_| Segment::new(buckets_per_rank)).collect(),
            nics: (0..n_ranks).map(|_| Resource::new()).collect(),
            net,
            mem,
            buckets_per_rank,
        })
    }

    /// Attach this rank to the shared table.
    pub fn attach(shared: Arc<DsmShared>, rank: RankCtx) -> Self {
        assert_eq!(shared.segments.len(), rank.size(), "shared state built for another world");
        Self { shared, rank }
    }

    /// Owner rank of `key` (thread-data affinity).
    pub fn owner_of(&self, key: &[u8]) -> usize {
        (fnv(key) % self.shared.segments.len() as u64) as usize
    }

    fn bucket_of(&self, key: &[u8]) -> usize {
        ((fnv(key) >> 32) as usize) % self.shared.buckets_per_rank
    }

    /// Charge a one-sided access of `bytes` to/from `owner`; returns after
    /// merging the completion stamp into the caller's clock (one-sided ops
    /// are synchronous at the caller).
    fn charge(&self, owner: usize, bytes: u64) {
        let clock = self.rank.clock();
        let me = self.rank.rank();
        if owner == me {
            clock.advance(self.shared.mem.op_ns(bytes));
            return;
        }
        let cost = self.shared.net.rdma_ns(bytes);
        // The transfer occupies the remote NIC (contention — incast during
        // graph construction — emerges from the shared resource); the wire
        // latency is pipelined and does not hold the NIC.
        let occupancy = cost.saturating_sub(self.shared.net.rdma_latency);
        let done = self.shared.nics[owner].submit_with_occupancy(clock.now(), cost, occupancy);
        clock.merge(done);
    }

    /// One-sided put: insert or overwrite `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) {
        let owner = self.owner_of(key);
        self.charge(owner, (key.len() + value.len()) as u64);
        let bucket = &self.shared.segments[owner].buckets[self.bucket_of(key)];
        let mut b = bucket.lock();
        match b.iter_mut().find(|s| s.key == key) {
            Some(slot) => slot.value = Bytes::copy_from_slice(value),
            None => b.push(Slot { key: key.to_vec(), value: Bytes::copy_from_slice(value) }),
        }
    }

    /// One-sided get.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        let owner = self.owner_of(key);
        let bucket = &self.shared.segments[owner].buckets[self.bucket_of(key)];
        let found = bucket.lock().iter().find(|s| s.key == key).map(|s| s.value.clone());
        let bytes = key.len() as u64 + found.as_ref().map_or(0, |v| v.len() as u64);
        self.charge(owner, bytes);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papyrus_mpi::{World, WorldConfig};

    fn world(n: usize) -> (Arc<DsmShared>, WorldConfig) {
        (
            GlobalHashTable::shared(n, 1024, NetModel::free(), MemModel::free()),
            WorldConfig::for_tests(n),
        )
    }

    #[test]
    fn put_get_across_ranks() {
        let (shared, cfg) = world(4);
        World::run(cfg, move |rank| {
            let t = GlobalHashTable::attach(shared.clone(), rank.clone());
            for i in 0..100 {
                t.put(format!("r{}k{i}", rank.rank()).as_bytes(), &[rank.rank() as u8, i as u8]);
            }
            rank.world().barrier();
            for r in 0..rank.size() {
                for i in 0..100 {
                    let v = t.get(format!("r{r}k{i}").as_bytes()).expect("present");
                    assert_eq!(&v[..], &[r as u8, i as u8]);
                }
            }
            assert!(t.get(b"missing").is_none());
        });
    }

    #[test]
    fn put_overwrites() {
        let (shared, cfg) = world(2);
        World::run(cfg, move |rank| {
            let t = GlobalHashTable::attach(shared.clone(), rank.clone());
            if rank.rank() == 0 {
                t.put(b"k", b"first");
                assert_eq!(&t.get(b"k").unwrap()[..], b"first");
                t.put(b"k", b"third");
                assert_eq!(&t.get(b"k").unwrap()[..], b"third");
            }
        });
    }

    #[test]
    fn rdma_costs_charged_remote_only() {
        let shared = GlobalHashTable::shared(2, 64, NetModel::infiniband_edr(), MemModel::free());
        let times = World::run(WorldConfig::new(2, NetModel::infiniband_edr()), move |rank| {
            let t = GlobalHashTable::attach(shared.clone(), rank.clone());
            if rank.rank() == 0 {
                // Half the keys land remote; RDMA latency must accrue.
                for i in 0..100 {
                    t.put(format!("q{i}").as_bytes(), &[0u8; 64]);
                }
            }
            rank.now()
        });
        assert!(times[0] > 0);
        assert_eq!(times[1], 0, "remote side pays nothing for one-sided ops");
    }

    #[test]
    fn rdma_cheaper_than_two_sided_round_trip() {
        let net = NetModel::infiniband_edr();
        // A one-sided get of 64B vs. a request+response message pair.
        assert!(net.rdma_ns(64) < 2 * net.msg_ns(64));
    }
}
