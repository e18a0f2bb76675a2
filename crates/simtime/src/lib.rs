//! # papyrus-simtime
//!
//! Virtual-time substrate for the PapyrusKV reproduction.
//!
//! The original PapyrusKV evaluation ran on three supercomputers and reported
//! wall-clock throughput. This crate replaces wall-clock with *virtual
//! nanoseconds* so the whole evaluation is deterministic and runs on one
//! machine while preserving the relative device/network characteristics the
//! paper's results depend on.
//!
//! Three building blocks:
//!
//! * [`Clock`] — a per-rank monotonically advancing virtual clock. Ranks
//!   advance their own clock as they perform modelled work; clocks are
//!   max-merged at synchronisation points (message receipt, barriers) so
//!   causality is respected without a full discrete-event engine.
//! * [`Resource`] — a shared serialising resource (a storage device, a NIC)
//!   with *busy-until* semantics: work of duration `d` submitted at time `t`
//!   completes at `max(busy_until, t) + d`. This is what produces contention
//!   effects such as all-to-all network congestion and shared-device queueing
//!   inside a storage group.
//! * Cost models ([`DeviceModel`], [`NetModel`], [`MemModel`]) — analytic
//!   latency/bandwidth models calibrated to the magnitudes discussed in the
//!   paper (NVMe ≫ Lustre random reads, striped Lustre sequential writes,
//!   burst-buffer striping, DDR4 random-access put costs).

// No panic path outside tests (DESIGN §14): a site that must panic, index or
// unwrap says why in its `#[allow(clippy::…, reason = "…")]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

mod clock;
mod cost;
mod resource;
mod stats;

pub use clock::Clock;
pub use cost::{AccessPattern, DeviceModel, MemModel, NetModel};
pub use resource::{Resource, MAX_OVERLAP, QUEUE_SLACK};
pub use stats::{krps, mbps, OpStats, OpStatsSnapshot};

/// Virtual time in nanoseconds since simulation start.
pub type SimNs = u64;

/// One second in [`SimNs`].
pub const SEC: SimNs = 1_000_000_000;

/// One millisecond in [`SimNs`].
pub const MS: SimNs = 1_000_000;

/// One microsecond in [`SimNs`].
pub const US: SimNs = 1_000;

/// Kibibyte, mebibyte, gibibyte — byte-count helpers used by cost models and
/// workload generators.
pub const KIB: u64 = 1024;
/// Mebibyte.
pub const MIB: u64 = 1024 * 1024;
/// Gibibyte.
pub const GIB: u64 = 1024 * 1024 * 1024;

/// Convert a `bytes`-over-`bandwidth` (bytes/sec) transfer into virtual ns,
/// rounding up so that nonzero transfers always cost at least 1 ns.
#[inline]
pub fn transfer_ns(bytes: u64, bandwidth_bytes_per_sec: u64) -> SimNs {
    if bytes == 0 || bandwidth_bytes_per_sec == 0 {
        return 0;
    }
    // ns = bytes * 1e9 / bw: in u64 while the product fits (every transfer
    // below 18 GB), in u128 past that, so TB-scale transfers cannot overflow.
    if let Some(scaled) = bytes.checked_mul(SEC) {
        return scaled.div_ceil(bandwidth_bytes_per_sec);
    }
    let ns = (bytes as u128 * SEC as u128).div_ceil(bandwidth_bytes_per_sec as u128);
    ns.min(u64::MAX as u128) as SimNs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_ns_zero_bytes_is_free() {
        assert_eq!(transfer_ns(0, GIB), 0);
    }

    #[test]
    fn transfer_ns_zero_bandwidth_is_free() {
        // Degenerate model (disabled accounting) must not divide by zero.
        assert_eq!(transfer_ns(123, 0), 0);
    }

    #[test]
    fn transfer_ns_one_gib_per_sec() {
        assert_eq!(transfer_ns(GIB, GIB), SEC);
        assert_eq!(transfer_ns(GIB / 2, GIB), SEC / 2);
    }

    #[test]
    fn transfer_ns_rounds_up() {
        // 1 byte at 1 GiB/s is a fraction of a ns; must round to >= 1.
        assert!(transfer_ns(1, GIB) >= 1);
    }

    #[test]
    fn transfer_ns_huge_values_no_overflow() {
        let ns = transfer_ns(u64::MAX, 1);
        assert_eq!(ns, u64::MAX);
    }

    /// Either side of the last byte count whose product with `SEC` fits a
    /// `u64`: the word path and the wide one meet without a step.
    #[test]
    fn transfer_ns_at_the_u64_edge() {
        let edge = u64::MAX / SEC;
        for bytes in [edge - 1, edge, edge + 1, edge + 2] {
            let wide = (bytes as u128 * SEC as u128).div_ceil(GIB as u128) as u64;
            assert_eq!(transfer_ns(bytes, GIB), wide, "{bytes} B");
        }
        // Just past `u64::MAX` ns·B over a bandwidth of `u64::MAX`: 2 ns.
        assert_eq!(transfer_ns(edge + 1, u64::MAX), 2);
    }
}
