//! Property-based tests for the virtual-time substrate's invariants.

use papyrus_simtime::{
    transfer_ns, AccessPattern, Clock, DeviceModel, NetModel, Resource, MAX_OVERLAP, QUEUE_SLACK,
    SEC,
};
use proptest::prelude::*;

proptest! {
    /// The `u64` path of `transfer_ns` is the `u128` formula: every byte
    /// count below 16 TiB at every bandwidth from 1 B/s to 1 TiB/s.
    #[test]
    fn transfer_ns_equals_the_u128_formula(bytes in 0u64..1 << 44, bw in 1u64..1 << 40) {
        let wide = (bytes as u128 * SEC as u128).div_ceil(bw as u128);
        prop_assert_eq!(transfer_ns(bytes, bw) as u128, wide.min(u64::MAX as u128));
    }

    /// Clocks are monotone under any interleaving of advances and merges.
    #[test]
    fn clock_monotonic(ops in prop::collection::vec((any::<bool>(), 0u64..1_000_000), 0..200)) {
        let c = Clock::new();
        let mut last = 0;
        for (advance, x) in ops {
            let now = if advance { c.advance(x) } else { c.merge(x) };
            prop_assert!(now >= last, "clock went backwards");
            prop_assert_eq!(now, c.now());
            last = now;
        }
    }

    /// Resource completions always include the full duration, never start
    /// before the arrival, and honour the bounded-overlap cap.
    #[test]
    fn resource_completion_bounds(jobs in prop::collection::vec((0u64..1_000_000, 0u64..100_000), 1..100)) {
        let r = Resource::new();
        for (now, dur) in jobs {
            let done = r.submit(now, dur);
            prop_assert!(done >= now + dur, "completion before arrival+duration");
            prop_assert!(
                done <= now + dur + MAX_OVERLAP * dur + QUEUE_SLACK,
                "queueing delay exceeded the overlap bound"
            );
        }
    }

    /// The busy frontier never regresses.
    #[test]
    fn resource_frontier_monotone(jobs in prop::collection::vec((0u64..1_000_000, 0u64..100_000, 1u32..64), 1..100)) {
        let r = Resource::new();
        let mut last = 0;
        for (now, dur, par) in jobs {
            r.submit_shared(now, dur, par);
            let b = r.busy_until();
            prop_assert!(b >= last);
            last = b;
        }
    }

    /// transfer_ns is monotone in bytes and antitone in bandwidth.
    #[test]
    fn transfer_monotonicity(bytes in 1u64..1_000_000_000, bw in 1u64..100_000_000_000) {
        let t = transfer_ns(bytes, bw);
        prop_assert!(transfer_ns(bytes + 1, bw) >= t);
        prop_assert!(transfer_ns(bytes, bw + 1) <= t);
        prop_assert!(t >= 1, "nonzero transfers cost at least 1 ns");
    }

    /// Device reads: sequential never slower than random on every preset;
    /// cost is monotone in size.
    #[test]
    fn device_cost_sanity(bytes in 1u64..(64 << 20)) {
        for dev in [
            DeviceModel::nvme_summitdev(),
            DeviceModel::ssd_stampede(),
            DeviceModel::burst_buffer_cori(),
            DeviceModel::lustre(),
        ] {
            let seq = dev.read_ns(bytes, AccessPattern::Sequential);
            let rand = dev.read_ns(bytes, AccessPattern::Random);
            prop_assert!(seq <= rand, "{}: sequential slower than random", dev.name);
            prop_assert!(dev.read_ns(bytes + 1024, AccessPattern::Random) >= rand);
            prop_assert!(dev.write_ns(bytes, AccessPattern::Sequential) >= dev.write_latency);
        }
    }

    /// RDMA is never more expensive than a two-sided message of the same
    /// size on any interconnect preset.
    #[test]
    fn rdma_never_worse(bytes in 0u64..(16 << 20)) {
        for net in [
            NetModel::infiniband_edr(),
            NetModel::omni_path(),
            NetModel::aries_dragonfly(),
        ] {
            prop_assert!(net.rdma_ns(bytes) <= net.msg_ns(bytes));
        }
    }
}
