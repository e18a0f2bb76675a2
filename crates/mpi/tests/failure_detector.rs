//! Failure-detector semantics on armed fabrics. Every test builds its own
//! `Fabric`/`WorldConfig` around its own plan, so they run in parallel.

use std::sync::Arc;

use papyrus_faultinject::{FaultEvent, FaultPlan};
use papyrus_mpi::{Fabric, RankStatus, World, WorldConfig};
use papyrus_simtime::NetModel;

fn armed(ranks: usize, events: Vec<FaultEvent>) -> Arc<Fabric> {
    let plan = Arc::new(FaultPlan::with_events(1, events));
    Fabric::with_faults(ranks, NetModel::infiniband_edr(), Some(plan))
}

/// Delay spikes delay acks but must NOT look like death: the growing probe
/// deadline eventually admits the late ack (false-positive resistance).
/// 750 µs is the generator's worst-case spike.
#[test]
fn a_delay_spike_is_not_a_death() {
    let f = armed(
        4,
        vec![FaultEvent::NetDelaySpike { start: 0, end: 1_000_000_000, extra_ns: 750_000 }],
    );
    let (status, cost) = f.confirm_rank(0, 1, 10_000);
    assert_eq!(status, RankStatus::Alive, "a slow rank is not a dead rank");
    assert!(cost > 0, "riding out a spike must consume virtual time");
    assert!(!f.rank_known_dead(1));
}

/// A killed rank never acks: confirmed dead after the miss budget.
#[test]
fn a_killed_rank_is_confirmed_dead() {
    let f = armed(4, vec![FaultEvent::RankKill { rank: 2, at: 0 }]);
    let (status, cost) = f.confirm_rank(0, 2, 5_000);
    assert_eq!(status, RankStatus::Dead);
    assert!(cost > 0);
    assert!(f.rank_known_dead(2));
    assert!(!f.rank_known_dead(1), "only the killed rank is suspected");
}

/// Once confirmed, a death costs nothing to re-confirm, from any prober.
#[test]
fn verdicts_are_sticky() {
    let f = armed(4, vec![FaultEvent::RankKill { rank: 2, at: 0 }]);
    assert_eq!(f.confirm_rank(0, 2, 5_000).0, RankStatus::Dead);
    assert_eq!(f.confirm_rank(0, 2, 99_000), (RankStatus::Dead, 0));
    assert_eq!(f.confirm_rank(1, 2, 0), (RankStatus::Dead, 0));
    // Probing yourself is free even when the plan has killed you.
    assert_eq!(f.confirm_rank(2, 2, 99_000), (RankStatus::Alive, 0));
}

/// Without a plan there is no detector: no rank is ever suspected, and a
/// second fabric's plan (same process, same moment) changes nothing.
#[test]
fn no_plan_means_confirm_rank_is_free_and_alive() {
    let _armed_neighbour = armed(4, vec![FaultEvent::RankKill { rank: 3, at: 0 }]);
    let f = Fabric::new(4, NetModel::infiniband_edr());
    assert!(f.faults().is_none());
    assert_eq!(f.confirm_rank(0, 3, 1 << 40), (RankStatus::Alive, 0));
    assert!(!f.rank_known_dead(3));
}

/// End-to-end: a barrier over a world with a dead member reports the dead
/// rank by number instead of hanging.
#[test]
fn a_barrier_names_the_dead_member() {
    let plan = Arc::new(FaultPlan::with_events(3, vec![FaultEvent::RankKill { rank: 1, at: 0 }]));
    let cfg = WorldConfig::new(2, NetModel::infiniband_edr()).with_faults(plan);
    World::run(cfg, |ctx| {
        if ctx.rank() == 1 {
            return; // the victim does not participate
        }
        let err = ctx.world().try_barrier().expect_err("barrier must not hang on a dead member");
        assert_eq!(err, 1, "the dead rank is reported by number");
    });
}
