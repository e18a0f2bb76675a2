//! Rank-level replication primitives for PapyrusKV.
//!
//! PapyrusKV shards keys over ranks with a consistent-hash ring
//! (`Distributor`); this crate adds the replica-placement layer on top.
//! With a replication factor `R`, the owner of a key keeps the primary
//! copy and the next `R-1` ranks clockwise on the ring (the *successors*)
//! keep replica copies. When the owner dies, the first live successor is
//! *promoted* to primary for the dead rank's ranges and re-replicates the
//! promoted data to the next live ranks until the ring holds `R` copies
//! again.
//!
//! The crate is deliberately mechanism-free: it computes placement and
//! arbitrates promotion claims, while the actual data movement (replica
//! MemTables/SSTables, REPL_PUT/REPL_GET wire traffic, re-replication
//! jobs) lives in `papyruskv`. Keeping the math here makes it unit-testable
//! without a runtime and keeps core's dependency on it one-directional.

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

use parking_lot::Mutex;
use std::collections::HashMap;

/// Clamp a configured replication factor to what the job can support:
/// at least 1 (primary only) and at most `n_ranks` distinct copies.
pub fn effective_factor(requested: usize, n_ranks: usize) -> usize {
    requested.max(1).min(n_ranks.max(1))
}

/// The `r - 1` successor ranks that hold replicas for `owner` on a ring of
/// `n` ranks, in ring (preference) order. Empty when `r <= 1` or the ring
/// is a single rank.
pub fn successors(owner: usize, n: usize, r: usize) -> Vec<usize> {
    if n < 2 || r < 2 {
        return Vec::new();
    }
    let copies = effective_factor(r, n) - 1;
    (1..=copies).map(|k| (owner + k) % n).collect()
}

/// Full holder set for `owner`'s ranges: the owner itself followed by its
/// successors, in preference order.
pub fn holders(owner: usize, n: usize, r: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(effective_factor(r, n));
    out.push(owner % n.max(1));
    out.extend(successors(owner, n, r));
    out
}

/// First rank clockwise from `dead` (exclusive) that `is_dead` reports
/// alive — the rank that must promote itself to primary for `dead`'s
/// ranges. `None` when every other rank is dead too.
pub fn first_live_successor(
    dead: usize,
    n: usize,
    is_dead: &dyn Fn(usize) -> bool,
) -> Option<usize> {
    (1..n).map(|k| (dead + k) % n).find(|&r| !is_dead(r))
}

/// The ranks that should hold copies of `dead`'s ranges once the ring has
/// healed: the first `r` live ranks clockwise from `dead` (exclusive).
/// The first entry is the promoted primary; the rest are the
/// re-replication targets.
pub fn heal_set(dead: usize, n: usize, r: usize, is_dead: &dyn Fn(usize) -> bool) -> Vec<usize> {
    let want = effective_factor(r, n);
    (1..n).map(|k| (dead + k) % n).filter(|&rank| !is_dead(rank)).take(want).collect()
}

/// Outcome of a promotion claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// The caller is the first claimant: it owns promotion and must run
    /// re-replication for the dead rank's ranges.
    Won,
    /// The caller already holds the claim (duplicate discovery path; no
    /// new re-replication work).
    AlreadyOwned,
    /// Another rank claimed first.
    Lost,
}

/// Job-wide promotion arbiter, shared by every rank of a job through the
/// platform. Promotion discovery is racy by nature — several survivors can
/// notice a death concurrently (failed barrier, failover get, RPC error) —
/// so the registry serialises claims per `(db, dead rank)` and the first
/// claimant wins. "Promoted ranges owned by exactly one live primary" is
/// thereby true by construction; `force_claim` exists so sanity tests can
/// seed the violated state and prove the auditor catches it.
#[derive(Default)]
pub struct PromotionTable {
    claims: Mutex<HashMap<(u32, usize), Vec<usize>>>,
}

impl PromotionTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Claim promotion of `(db, dead)` for `rank`. First claim wins.
    pub fn claim(&self, db: u32, dead: usize, rank: usize) -> Claim {
        let mut claims = self.claims.lock();
        let slot = claims.entry((db, dead)).or_default();
        match slot.first() {
            None => {
                slot.push(rank);
                Claim::Won
            }
            Some(&holder) if holder == rank => Claim::AlreadyOwned,
            Some(_) => Claim::Lost,
        }
    }

    /// The promoted primary for `(db, dead)`, if any rank has claimed it.
    pub fn claimant(&self, db: u32, dead: usize) -> Option<usize> {
        self.claims.lock().get(&(db, dead)).and_then(|v| v.first().copied())
    }

    /// All claims recorded for `db`, as `(dead rank, claimants)` pairs.
    /// A healthy table has exactly one claimant per entry.
    pub fn claims_for(&self, db: u32) -> Vec<(usize, Vec<usize>)> {
        let claims = self.claims.lock();
        let mut out: Vec<_> = claims
            .iter()
            .filter(|((d, _), _)| *d == db)
            .map(|((_, dead), v)| (*dead, v.clone()))
            .collect();
        out.sort_unstable_by_key(|(dead, _)| *dead);
        out
    }

    /// Record a claim unconditionally, even when another rank already holds
    /// it. Test-only seeding hook for the `audit_db` replica invariants —
    /// the normal `claim` path cannot produce a double claim.
    pub fn force_claim(&self, db: u32, dead: usize, rank: usize) {
        self.claims.lock().entry((db, dead)).or_default().push(rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_clamps_to_ring_size() {
        assert_eq!(effective_factor(0, 4), 1);
        assert_eq!(effective_factor(1, 4), 1);
        assert_eq!(effective_factor(3, 4), 3);
        assert_eq!(effective_factor(9, 4), 4);
        assert_eq!(effective_factor(2, 1), 1);
    }

    #[test]
    fn successors_walk_the_ring() {
        assert_eq!(successors(0, 4, 2), vec![1]);
        assert_eq!(successors(3, 4, 2), vec![0]);
        assert_eq!(successors(2, 4, 3), vec![3, 0]);
        assert!(successors(2, 4, 1).is_empty());
        assert!(successors(0, 1, 2).is_empty());
        // R larger than the ring degrades to n copies total.
        assert_eq!(successors(1, 3, 8), vec![2, 0]);
    }

    #[test]
    fn holders_lead_with_owner() {
        assert_eq!(holders(3, 4, 2), vec![3, 0]);
        assert_eq!(holders(1, 4, 1), vec![1]);
    }

    #[test]
    fn first_live_successor_skips_dead_ranks() {
        let dead = |r: usize| r == 0;
        assert_eq!(first_live_successor(3, 4, &dead), Some(1));
        let all_dead = |_: usize| true;
        assert_eq!(first_live_successor(3, 4, &all_dead), None);
        let none_dead = |_: usize| false;
        assert_eq!(first_live_successor(1, 4, &none_dead), Some(2));
    }

    #[test]
    fn heal_set_returns_promoted_primary_then_targets() {
        let dead = |r: usize| r == 3;
        assert_eq!(heal_set(3, 4, 2, &dead), vec![0, 1]);
        let dead2 = |r: usize| r == 3 || r == 0;
        assert_eq!(heal_set(3, 4, 2, &dead2), vec![1, 2]);
        // Ring of survivors smaller than R: take what exists.
        let most_dead = |r: usize| r != 2;
        assert_eq!(heal_set(3, 4, 3, &most_dead), vec![2]);
    }

    #[test]
    fn promotion_first_claim_wins() {
        let t = PromotionTable::new();
        assert_eq!(t.claim(1, 3, 0), Claim::Won);
        assert_eq!(t.claim(1, 3, 0), Claim::AlreadyOwned);
        assert_eq!(t.claim(1, 3, 2), Claim::Lost);
        assert_eq!(t.claimant(1, 3), Some(0));
        // Distinct db or dead rank: independent slots.
        assert_eq!(t.claim(2, 3, 2), Claim::Won);
        assert_eq!(t.claim(1, 0, 2), Claim::Won);
        assert_eq!(t.claims_for(1), vec![(0, vec![2]), (3, vec![0])]);
    }

    #[test]
    fn force_claim_seeds_double_ownership() {
        let t = PromotionTable::new();
        assert_eq!(t.claim(7, 2, 3), Claim::Won);
        t.force_claim(7, 2, 1);
        assert_eq!(t.claims_for(7), vec![(2, vec![3, 1])]);
        // claimant still reports the first winner.
        assert_eq!(t.claimant(7, 2), Some(3));
    }
}
