//! Protocol checking for the fabric.
//!
//! One [`ProtoMonitor`] per [`crate::Fabric`]. When `PAPYRUS_SANITY` is on
//! it maintains:
//!
//! - **per-channel send/recv counters** keyed by `(comm, src world rank,
//!   dst world rank, tag)`: at finalize, any channel whose counts disagree
//!   is an unmatched send; envelopes still sitting in a mailbox are tag
//!   leaks;
//! - a **blocked-rank registry** for distributed-deadlock detection: a
//!   blocking receive with a known source registers "rank R waits on rank
//!   S"; when a wait-for cycle persists across two timeout ticks with no
//!   fabric progress in between (generation counter unchanged), it is
//!   reported as a wait cycle.
//!
//! Findings are returned to the fabric that owns the monitor — the
//! finalize problems to [`crate::World::run`], a confirmed cycle to the
//! blocked receive — and both fail that world's job; nothing is recorded
//! outside it. Every hook starts with `papyrus_sanity::enabled()` — one
//! relaxed atomic load — and returns immediately when the gate is off.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::fabric::CommId;
use crate::{Rank, Tag};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ChannelKey {
    comm: CommId,
    src_world: Rank,
    dst_world: Rank,
    tag: Tag,
}

#[derive(Default)]
struct ChannelStats {
    sends: u64,
    recvs: u64,
}

/// What a blocked rank is waiting for.
struct BlockedOn {
    /// World rank of the awaited sender, when the receive names one
    /// (wildcard receives cannot contribute wait-for edges).
    src_world: Option<Rank>,
    comm: CommId,
    tag: Option<Tag>,
}

#[derive(Default)]
pub(crate) struct ProtoMonitor {
    channels: Mutex<HashMap<ChannelKey, ChannelStats>>,
    blocked: Mutex<HashMap<Rank, BlockedOn>>,
    /// Bumped on every delivery, completed receive and collective: a
    /// wait-for cycle is only credible if this hasn't moved between two
    /// observations.
    generation: AtomicU64,
}

impl ProtoMonitor {
    /// Send hook: counts the channel.
    pub(crate) fn on_send(&self, comm: CommId, src_world: Rank, dst_world: Rank, tag: Tag) {
        if papyrus_sanity::enabled() {
            self.channels
                .lock()
                .entry(ChannelKey { comm, src_world, dst_world, tag })
                .or_default()
                .sends += 1;
        }
    }

    /// Receive hook: counts the channel and marks fabric progress.
    pub(crate) fn on_recv(&self, comm: CommId, src_world: Rank, dst_world: Rank, tag: Tag) {
        if papyrus_sanity::enabled() {
            self.channels
                .lock()
                .entry(ChannelKey { comm, src_world, dst_world, tag })
                .or_default()
                .recvs += 1;
            self.on_progress();
        }
    }

    /// Mark fabric progress (a delivery, a completed receive or collective):
    /// invalidates in-flight wait-cycle observations.
    pub(crate) fn on_progress(&self) {
        if papyrus_sanity::enabled() {
            // ordering: progress heartbeat; a stale read only delays
            // deadlock confirmation by one observation round.
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Register `me` as blocked in a receive.
    pub(crate) fn block(&self, me: Rank, comm: CommId, src_world: Option<Rank>, tag: Option<Tag>) {
        self.blocked.lock().insert(me, BlockedOn { src_world, comm, tag });
    }

    /// The receive completed; `me` is no longer blocked.
    pub(crate) fn unblock(&self, me: Rank) {
        self.blocked.lock().remove(&me);
    }

    /// Called by a blocked receiver on a wait timeout. Walks the wait-for
    /// edges starting at `me`; if the walk returns to `me`, the cycle is
    /// compared with the previous observation in `prev` — confirmed only if
    /// identical *and* the fabric made no progress in between (a real
    /// standstill, not a transient). Returns the rendered cycle when
    /// confirmed; the caller turns it into a panic, converting a silent
    /// distributed deadlock into a diagnosed failure.
    pub(crate) fn check_stalled(
        &self,
        me: Rank,
        prev: &mut Option<(u64, Vec<Rank>)>,
    ) -> Option<String> {
        // ordering: heartbeat read; equality across two observations is a
        // heuristic, a torn/stale value only costs an extra round.
        let gen = self.generation.load(Ordering::Relaxed);
        let cycle = {
            let blocked = self.blocked.lock();
            let mut cycle = vec![me];
            let mut cur = me;
            loop {
                let next = blocked.get(&cur).and_then(|b| b.src_world)?;
                if next == me {
                    break;
                }
                if cycle.contains(&next) {
                    // A cycle exists but not through `me`; its own members
                    // will report it.
                    return None;
                }
                cycle.push(next);
                cur = next;
            }
            cycle
        };
        match prev {
            Some((g, c)) if *g == gen && *c == cycle => {
                let detail = {
                    let blocked = self.blocked.lock();
                    let hops: Vec<String> = cycle
                        .iter()
                        .map(|r| {
                            let what = blocked
                                .get(r)
                                .map(|b| {
                                    format!(
                                        "comm {} tag {}",
                                        b.comm,
                                        b.tag.map_or("any".into(), |t| t.to_string())
                                    )
                                })
                                .unwrap_or_else(|| "?".into());
                            format!("rank {r} (recv {what})")
                        })
                        .collect();
                    format!(
                        "wait-for cycle between blocked ranks, no fabric progress across \
                         two checks: {}",
                        hops.join(" -> ")
                    )
                };
                Some(detail)
            }
            _ => {
                *prev = Some((gen, cycle));
                None
            }
        }
    }

    /// Finalize pass over the channel counters: report any channel whose
    /// send and receive counts disagree. Returns the rendered problems.
    pub(crate) fn finalize_channels(&self) -> Vec<String> {
        let channels = self.channels.lock();
        let mut problems: Vec<String> = Vec::new();
        for (k, s) in channels.iter() {
            if s.sends != s.recvs {
                problems.push(format!(
                    "unmatched send: comm {} rank {} -> rank {} tag {}: {} sent, {} received",
                    k.comm, k.src_world, k.dst_world, k.tag, s.sends, s.recvs
                ));
            }
        }
        problems.sort();
        problems
    }
}
