//! Deterministic runtime fault-injection plane.
//!
//! PR 3's crashcheck covers *power-loss* faults; this crate covers *runtime*
//! faults: transient NVM I/O errors, `ENOSPC`, slow-device stalls, network
//! delay spikes, and rank death mid-run. Faults are described by a seeded
//! [`FaultPlan`] — a list of **virtual-time windows** ([`papyrus_simtime::SimNs`])
//! generated deterministically from a `u64` seed, so a chaos schedule is
//! reproducible regardless of OS thread interleaving: whether an operation
//! is faulted depends only on its virtual stamp, not on wall-clock timing.
//!
//! A plan is an argument, never ambient state: it is named once per world
//! (`papyrus_mpi::WorldConfig::with_faults`), lives on that world's fabric,
//! and reaches the NVM layer as a field of the store *handles* the runtime
//! hands out. Two worlds in one process never see each other's faults, and
//! an unarmed world pays one `Option` field load per injection site.
//! Injection sites live in `papyrus-nvm` (store primitives) and
//! `papyrus-mpi` (fabric wire model); this crate only decides *what* fails
//! *when*.
//!
//! Also here: the deterministic exponential [`Backoff`] policy shared by all
//! retry loops, virtual-time failure-detector tuning constants, and the
//! [`PlantedBug`] a plan can carry, used by `cargo xtask chaos --seed-bug`
//! to prove the oracle can catch a lost acknowledged write and a hang.

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

use std::sync::atomic::{AtomicU32, Ordering};

use papyrus_simtime::SimNs;

// ---------------------------------------------------------------------------
// Planted bugs (chaos self-test)
// ---------------------------------------------------------------------------

/// A deliberately-introduced protocol bug, used by `--seed-bug` to verify
/// the chaos oracle and the world's livelock verdict actually detect what
/// they claim to. Rides
/// on the [`FaultPlan`] of the world it afflicts ([`FaultPlan::with_bug`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlantedBug {
    /// A sync-put RPC acknowledges success after its first timeout without
    /// the remote ever applying the write (acknowledged-write loss).
    LostAck,
    /// An RPC retry loop blocks forever instead of honouring its deadline.
    Hang,
}

// ---------------------------------------------------------------------------
// Deterministic randomness
// ---------------------------------------------------------------------------

/// splitmix64 step — the standard 64-bit mixer; plenty for fault schedules.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stateless mix of `(seed, salt)` — used for per-attempt backoff jitter so
/// two `Backoff` instances with the same seed produce identical schedules.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut s = seed ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93);
    splitmix64(&mut s)
}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

/// Bounded exponential backoff over **virtual** time, deterministic by seed.
///
/// Attempt `n` sleeps `cap(base << n)` scaled by a jitter factor in
/// `[0.5, 1.0)` derived from `mix(seed, n)`. Virtual delays advance the
/// caller's [`papyrus_simtime::Clock`]; no wall-clock sleeping happens here.
#[derive(Debug, Clone)]
pub struct Backoff {
    seed: u64,
    base_ns: SimNs,
    cap_ns: SimNs,
    attempt: u32,
}

impl Backoff {
    pub fn new(seed: u64, base_ns: SimNs, cap_ns: SimNs) -> Self {
        Self { seed, base_ns: base_ns.max(1), cap_ns: cap_ns.max(1), attempt: 0 }
    }

    /// Number of delays handed out so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The next virtual delay in the schedule.
    pub fn next_delay(&mut self) -> SimNs {
        let shift = self.attempt.min(20);
        let exp = self.base_ns.saturating_mul(1u64 << shift).min(self.cap_ns).max(2);
        let half = exp / 2;
        let jitter = mix(self.seed, u64::from(self.attempt)) % half.max(1);
        self.attempt += 1;
        half + jitter
    }
}

// ---------------------------------------------------------------------------
// Failure-detector tuning (virtual heartbeat model; see papyrus-mpi)
// ---------------------------------------------------------------------------

/// Initial virtual deadline for one heartbeat probe.
pub const PROBE_DEADLINE_INIT_NS: SimNs = 100_000; // 100 µs
/// Deadline cap after exponential growth.
pub const PROBE_DEADLINE_CAP_NS: SimNs = 10_000_000; // 10 ms
/// Consecutive missed probes before a rank is declared dead. With doubling
/// deadlines this tolerates delay spikes up to ~`INIT << (MISSES-2)` without
/// a false positive.
pub const PROBE_MISS_THRESHOLD: u32 = 6;

// ---------------------------------------------------------------------------
// Fault events and plans
// ---------------------------------------------------------------------------

/// The five fault classes the chaos sweep must cover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    TransientEio,
    Enospc,
    SlowDevice,
    DelaySpike,
    RankKill,
}

pub const ALL_CLASSES: [FaultClass; 5] = [
    FaultClass::TransientEio,
    FaultClass::Enospc,
    FaultClass::SlowDevice,
    FaultClass::DelaySpike,
    FaultClass::RankKill,
];

pub fn class_name(c: FaultClass) -> &'static str {
    match c {
        FaultClass::TransientEio => "transient-eio",
        FaultClass::Enospc => "enospc",
        FaultClass::SlowDevice => "slow-device",
        FaultClass::DelaySpike => "delay-spike",
        FaultClass::RankKill => "rank-kill",
    }
}

/// Error returned by a faulted NVM primitive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// Transient `EIO`: retrying later (in virtual time) succeeds.
    TransientEio,
    /// Device full (`ENOSPC`): writes fail until the window passes.
    NoSpace,
}

/// One scheduled fault. All windows are half-open `[start, end)` in
/// virtual ns; an operation is affected iff its issue stamp falls inside.
#[derive(Clone, Debug)]
pub enum FaultEvent {
    /// NVM reads and/or writes fail with transient `EIO` inside the window.
    NvmTransientEio { start: SimNs, end: SimNs, reads: bool, writes: bool },
    /// NVM writes fail with `ENOSPC` inside the window.
    NvmEnospc { start: SimNs, end: SimNs },
    /// NVM ops are slowed by `extra_ns` inside the window (device stall).
    NvmStall { start: SimNs, end: SimNs, extra_ns: SimNs },
    /// Messages sent inside the window arrive `extra_ns` later (virtually).
    NetDelaySpike { start: SimNs, end: SimNs, extra_ns: SimNs },
    /// Up to `budget` messages matching `(to_rank, tag)` sent inside the
    /// window vanish. Used by retry-path coverage and `--seed-bug`.
    NetDrop { start: SimNs, end: SimNs, to_rank: Option<usize>, tag: Option<u32>, budget: u32 },
    /// World rank `rank` dies at virtual time `at`: it stops sending and
    /// receiving; messages to or from it black-hole.
    RankKill { rank: usize, at: SimNs },
}

/// A seeded, deterministic fault schedule.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
    /// Remaining drop budget per event (0 for non-drop events). Atomic so
    /// concurrent senders share one budget; the *decision* to drop is still
    /// deterministic in virtual time up to the budget.
    drops_left: Vec<AtomicU32>,
    /// The protocol bug this plan's world runs with (chaos self-test only).
    bug: Option<PlantedBug>,
}

fn in_window(start: SimNs, end: SimNs, now: SimNs) -> bool {
    now >= start && now < end
}

impl FaultPlan {
    pub fn with_events(seed: u64, events: Vec<FaultEvent>) -> Self {
        let drops_left = events
            .iter()
            .map(|e| {
                let b = match e {
                    FaultEvent::NetDrop { budget, .. } => *budget,
                    _ => 0,
                };
                AtomicU32::new(b)
            })
            .collect();
        Self { seed, events, drops_left, bug: None }
    }

    /// The same schedule with `bug` planted in the protocol layer of the
    /// world it arms.
    pub fn with_bug(mut self, bug: PlantedBug) -> Self {
        self.bug = Some(bug);
        self
    }

    /// The planted protocol bug, if any.
    pub fn planted_bug(&self) -> Option<PlantedBug> {
        self.bug
    }

    /// Generate the schedule for one chaos seed: one or two events of the
    /// given class, placed deterministically inside `[0, horizon_ns)`.
    pub fn generate(seed: u64, class: FaultClass, ranks: usize, horizon_ns: SimNs) -> Self {
        let h = horizon_ns.max(1_000_000);
        let mut s = seed ^ 0xc4a5_7a90_66d1_2f3b;
        let mut r = || splitmix64(&mut s);
        let window = |r1: u64, r2: u64| {
            let start = h / 10 + r1 % (h / 3);
            let dur = h / 100 + r2 % (h / 10);
            (start, start + dur)
        };
        let mut events = Vec::new();
        let n_events = 1 + (r() % 2) as usize;
        for _ in 0..n_events {
            let (start, end) = window(r(), r());
            events.push(match class {
                FaultClass::TransientEio => {
                    let which = r() % 3;
                    FaultEvent::NvmTransientEio {
                        start,
                        end,
                        reads: which != 1,
                        writes: which != 0,
                    }
                }
                FaultClass::Enospc => FaultEvent::NvmEnospc { start, end },
                FaultClass::SlowDevice => {
                    FaultEvent::NvmStall { start, end, extra_ns: 20_000 + r() % 480_000 }
                }
                FaultClass::DelaySpike => {
                    // Cap well below what the failure detector's growing
                    // deadlines tolerate, so spikes never look like death.
                    FaultEvent::NetDelaySpike { start, end, extra_ns: 50_000 + r() % 700_000 }
                }
                FaultClass::RankKill => FaultEvent::RankKill {
                    rank: (r() % ranks.max(1) as u64) as usize,
                    at: h / 8 + r() % (h / 4),
                },
            });
            if class == FaultClass::RankKill {
                break; // one death per schedule keeps the oracle crisp
            }
        }
        Self::with_events(seed, events)
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Outcome for an NVM primitive issued at `now`. `Ok(extra_ns)` is an
    /// added stall (0 = clean); `Err` is a typed I/O fault. `ENOSPC` only
    /// affects writes; it takes priority over transient `EIO`.
    pub fn io_fault(&self, write: bool, now: SimNs) -> Result<SimNs, IoFault> {
        let mut stall: SimNs = 0;
        let mut eio = false;
        for e in &self.events {
            match *e {
                FaultEvent::NvmEnospc { start, end } if write && in_window(start, end, now) => {
                    return Err(IoFault::NoSpace);
                }
                FaultEvent::NvmTransientEio { start, end, reads, writes }
                    if in_window(start, end, now) && if write { writes } else { reads } =>
                {
                    eio = true;
                }
                FaultEvent::NvmStall { start, end, extra_ns } if in_window(start, end, now) => {
                    stall += extra_ns;
                }
                _ => {}
            }
        }
        if eio {
            Err(IoFault::TransientEio)
        } else {
            Ok(stall)
        }
    }

    /// Extra virtual latency for a message sent at `now`.
    pub fn net_extra_ns(&self, now: SimNs) -> SimNs {
        self.events
            .iter()
            .map(|e| match *e {
                FaultEvent::NetDelaySpike { start, end, extra_ns }
                    if in_window(start, end, now) =>
                {
                    extra_ns
                }
                _ => 0,
            })
            .sum()
    }

    /// Should a message `(to_rank, tag)` sent at `now` vanish? Consumes one
    /// unit of the matching event's budget when it fires.
    pub fn should_drop(&self, to_rank: usize, tag: u32, now: SimNs) -> bool {
        for (e, left) in self.events.iter().zip(&self.drops_left) {
            if let FaultEvent::NetDrop { start, end, to_rank: tr, tag: tg, .. } = *e {
                if !in_window(start, end, now) {
                    continue;
                }
                if tr.is_some_and(|r| r != to_rank) || tg.is_some_and(|t| t != tag) {
                    continue;
                }
                // ordering: the budget counter is the only shared state —
                // the CAS only needs atomicity of the decrement, and the
                // failure load merely refreshes `cur` for the retry. No
                // other memory is published through it.
                let mut cur = left.load(Ordering::Relaxed);
                while cur > 0 {
                    match left.compare_exchange_weak(
                        cur,
                        cur - 1,
                        // ordering: budget decrement; atomicity only.
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return true,
                        Err(v) => cur = v,
                    }
                }
            }
        }
        false
    }

    /// When (if ever) does `rank` die?
    pub fn kill_time(&self, rank: usize) -> Option<SimNs> {
        self.events.iter().find_map(|e| match *e {
            FaultEvent::RankKill { rank: r, at } if r == rank => Some(at),
            _ => None,
        })
    }

    /// Is `rank` dead as observed at virtual time `now`?
    pub fn rank_dead(&self, rank: usize, now: SimNs) -> bool {
        self.kill_time(rank).is_some_and(|at| now >= at)
    }

    pub fn has_kill(&self) -> bool {
        self.events.iter().any(|e| matches!(e, FaultEvent::RankKill { .. }))
    }

    /// Latest virtual time at which any event is still active. Retry loops
    /// are guaranteed to succeed once past this.
    pub fn horizon(&self) -> SimNs {
        self.events
            .iter()
            .map(|e| match *e {
                FaultEvent::NvmTransientEio { end, .. }
                | FaultEvent::NvmEnospc { end, .. }
                | FaultEvent::NvmStall { end, .. }
                | FaultEvent::NetDelaySpike { end, .. }
                | FaultEvent::NetDrop { end, .. } => end,
                FaultEvent::RankKill { at, .. } => at,
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_by_seed() {
        let mut a = Backoff::new(42, 1_000, 1_000_000);
        let mut b = Backoff::new(42, 1_000, 1_000_000);
        let sa: Vec<SimNs> = (0..12).map(|_| a.next_delay()).collect();
        let sb: Vec<SimNs> = (0..12).map(|_| b.next_delay()).collect();
        assert_eq!(sa, sb);
        let mut c = Backoff::new(43, 1_000, 1_000_000);
        let sc: Vec<SimNs> = (0..12).map(|_| c.next_delay()).collect();
        assert_ne!(sa, sc, "different seeds must give different jitter");
    }

    #[test]
    fn backoff_grows_and_respects_cap() {
        let mut b = Backoff::new(7, 1_000, 64_000);
        let delays: Vec<SimNs> = (0..20).map(|_| b.next_delay()).collect();
        // Each delay is within [exp/2, exp) for exp = min(base << n, cap).
        for (n, d) in delays.iter().enumerate() {
            let exp = 1_000u64.saturating_mul(1 << n.min(20)).clamp(2, 64_000);
            assert!(*d >= exp / 2 && *d < exp, "attempt {n}: {d} not in [{}, {exp})", exp / 2);
        }
        // Early schedule must actually grow.
        assert!(delays[4] > delays[0]);
    }

    #[test]
    fn plan_generation_is_deterministic_and_class_pure() {
        for class in ALL_CLASSES {
            let a = FaultPlan::generate(99, class, 4, 2_000_000_000);
            let b = FaultPlan::generate(99, class, 4, 2_000_000_000);
            assert_eq!(format!("{:?}", a.events()), format!("{:?}", b.events()));
            assert!(!a.events().is_empty());
            for e in a.events() {
                let ok = match class {
                    FaultClass::TransientEio => matches!(e, FaultEvent::NvmTransientEio { .. }),
                    FaultClass::Enospc => matches!(e, FaultEvent::NvmEnospc { .. }),
                    FaultClass::SlowDevice => matches!(e, FaultEvent::NvmStall { .. }),
                    FaultClass::DelaySpike => matches!(e, FaultEvent::NetDelaySpike { .. }),
                    FaultClass::RankKill => matches!(e, FaultEvent::RankKill { .. }),
                };
                assert!(ok, "class {class:?} generated {e:?}");
            }
            assert!(a.horizon() > 0 && a.horizon() < 2_000_000_000);
        }
    }

    #[test]
    fn io_fault_windows_and_priorities() {
        let plan = FaultPlan::with_events(
            1,
            vec![
                FaultEvent::NvmTransientEio { start: 100, end: 200, reads: true, writes: false },
                FaultEvent::NvmEnospc { start: 150, end: 250 },
                FaultEvent::NvmStall { start: 0, end: 1_000, extra_ns: 7 },
            ],
        );
        // Outside every error window: just the stall.
        assert_eq!(plan.io_fault(true, 50), Ok(7));
        // Read inside the EIO window.
        assert_eq!(plan.io_fault(false, 150), Err(IoFault::TransientEio));
        // Write at 150: ENOSPC wins (EIO event is read-only anyway).
        assert_eq!(plan.io_fault(true, 150), Err(IoFault::NoSpace));
        // Write at 120: EIO is reads-only, ENOSPC not started -> stall only.
        assert_eq!(plan.io_fault(true, 120), Ok(7));
        // Past the horizon: clean.
        assert_eq!(plan.io_fault(true, 5_000), Ok(0));
        assert_eq!(plan.horizon(), 1_000);
    }

    #[test]
    fn drop_budget_is_consumed() {
        let plan = FaultPlan::with_events(
            2,
            vec![FaultEvent::NetDrop {
                start: 0,
                end: 1_000,
                to_rank: Some(1),
                tag: Some(9),
                budget: 2,
            }],
        );
        assert!(!plan.should_drop(0, 9, 10), "wrong rank must not match");
        assert!(!plan.should_drop(1, 8, 10), "wrong tag must not match");
        assert!(plan.should_drop(1, 9, 10));
        assert!(plan.should_drop(1, 9, 20));
        assert!(!plan.should_drop(1, 9, 30), "budget exhausted");
        assert!(!plan.should_drop(1, 9, 2_000), "outside window");
    }

    #[test]
    fn rank_kill_observed_in_virtual_time() {
        let plan = FaultPlan::with_events(3, vec![FaultEvent::RankKill { rank: 2, at: 500 }]);
        assert!(!plan.rank_dead(2, 499));
        assert!(plan.rank_dead(2, 500));
        assert!(!plan.rank_dead(1, 9_999));
        assert_eq!(plan.kill_time(2), Some(500));
        assert!(plan.has_kill());
    }
}
