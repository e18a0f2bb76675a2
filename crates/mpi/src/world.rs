//! SPMD world launcher and per-rank context.

use std::sync::Arc;

use papyrus_faultinject::FaultPlan;
use papyrus_modelcheck::baton::{Slice, Task, Verdict};
use papyrus_sanity::lockorder;
use papyrus_simtime::{Clock, NetModel, SimNs};

use crate::comm::Communicator;
use crate::fabric::Fabric;
use crate::Rank;

/// Configuration for a simulated SPMD job.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of MPI ranks (each a task of the world, see [`World::run`]).
    pub ranks: usize,
    /// Interconnect cost model shared by all ranks.
    pub net: NetModel,
    /// The fault schedule this world runs under (`None`, the default, = no
    /// faults). This is the one place a plan is named: it lives on the
    /// world's [`Fabric`] and reaches everything else from there, so arming
    /// one world arms no other.
    pub faults: Option<Arc<FaultPlan>>,
}

impl WorldConfig {
    /// A world of `ranks` ranks on the given interconnect.
    pub fn new(ranks: usize, net: NetModel) -> Self {
        Self { ranks, net, faults: None }
    }

    /// The same world, armed with a fault plan.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// A world with a free (unaccounted) network, for unit tests.
    pub fn for_tests(ranks: usize) -> Self {
        Self::new(ranks, NetModel::free())
    }
}

/// Handle to a launched world; produced by [`World::run`].
pub struct World;

impl World {
    /// Run an SPMD job: `config.ranks` tasks, each executing `f` with its
    /// own [`RankCtx`]. Returns each rank's result, indexed by rank.
    ///
    /// Every rank and every helper spawned through [`RankCtx::spawn`] is a
    /// task of the world's scheduler (`papyrus_modelcheck::baton`): one runs
    /// at a time, handing over at blocking points in virtual-time order, so
    /// a run is a function of its inputs alone. A world that can never move
    /// again — deadlocked, or livelocked past its fault horizon — unwinds
    /// with its [`Verdict`] as the panic payload, once every thread of the
    /// world has returned.
    ///
    /// Panics in any rank are propagated (naming the rank; a rank's own
    /// panic is preferred to the verdict it left the others in).
    pub fn run<T, F>(config: WorldConfig, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(RankCtx) -> T + Send + Sync + 'static,
    {
        let fabric = Fabric::with_faults(config.ranks, config.net.clone(), config.faults.clone());
        let f = Arc::new(f);
        let tasks: Vec<Task<T>> = (0..config.ranks)
            .map(|rank| {
                let (ctx_fabric, f) = (fabric.clone(), f.clone());
                let clock = fabric.clock(rank).clone();
                fabric.baton().spawn(
                    format!("rank-{rank}"),
                    rank,
                    Some(Box::new(move || clock.now())),
                    move || f(RankCtx::new(ctx_fabric, rank)),
                )
            })
            .collect();
        fabric.baton().start();
        let results: Vec<std::thread::Result<T>> = tasks.into_iter().map(Task::join).collect();
        let verdict = fabric.baton().verdict();
        if verdict.is_some() {
            fabric.baton().join_all();
        }
        let mut failed =
            results.iter().enumerate().filter_map(|(rank, r)| Some((rank, r.as_ref().err()?)));
        if let Some((rank, p)) = failed.find(|(_, p)| !p.is::<Verdict>()) {
            panic!("rank {rank} panicked: {}", panic_message(&**p));
        }
        if let Some(verdict) = verdict {
            std::panic::resume_unwind(Box::new(verdict));
        }
        let out: Vec<T> = results.into_iter().flatten().collect();
        // Audit once every rank has exited cleanly: under PAPYRUS_SANITY an
        // unmatched send, a tag leak or a lock-order finding fails the job
        // (free and empty when the gate is off). The lock-order graph spans
        // the process, so its findings fail whichever world drains them.
        let mut problems = fabric.sanity_finalize();
        if papyrus_sanity::enabled() {
            let locks = papyrus_sanity::lockorder::take_findings();
            problems.extend(locks.iter().map(|v| format!("{}: {}", v.kind.name(), v.detail)));
        }
        if !problems.is_empty() {
            panic!("papyrus-sanity: violations at finalize:\n{}", problems.join("\n"));
        }
        out
    }
}

/// What a panic that left a world says: its [`Verdict`], or the message of
/// a rank's own panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let verdict = payload.downcast_ref::<Verdict>().map(Verdict::to_string);
    verdict
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

/// Per-rank execution context handed to the SPMD closure.
///
/// Cheap to clone; clones share the same rank identity, clock, and fabric
/// (this is how PapyrusKV's helper threads participate in their rank —
/// spawned with [`RankCtx::spawn`]).
#[derive(Clone)]
pub struct RankCtx {
    fabric: Arc<Fabric>,
    rank: Rank,
    world: Communicator,
}

impl std::fmt::Debug for RankCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankCtx").field("rank", &self.rank).field("size", &self.size()).finish()
    }
}

impl RankCtx {
    fn new(fabric: Arc<Fabric>, rank: Rank) -> Self {
        let (id, record) = fabric.world_comm();
        let world = Communicator::new(fabric.clone(), id, record, rank);
        Self { fabric, rank, world }
    }

    /// This rank's index in the world.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size (number of ranks).
    pub fn size(&self) -> usize {
        self.fabric.world_size()
    }

    /// The world communicator (like `MPI_COMM_WORLD`).
    pub fn world(&self) -> &Communicator {
        &self.world
    }

    /// This rank's virtual clock.
    pub fn clock(&self) -> &Clock {
        self.fabric.clock(self.rank)
    }

    /// Current virtual time on this rank.
    pub fn now(&self) -> SimNs {
        self.clock().now()
    }

    /// The underlying fabric (shared with all ranks).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Spawn a helper task of this rank: a thread named `name` that is one
    /// of the world's tasks, first woken at its spawner's clock. Every
    /// thread that waits on anything of the world must be one: a raw thread
    /// parked on a world condvar is invisible to the scheduler.
    pub fn spawn<T, F>(&self, name: String, f: F) -> Task<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.fabric.baton().spawn(name, self.rank, None, f)
    }

    /// Spawn a run-to-completion helper of this rank (PapyrusKV's message
    /// handler): `slice` serves one unit of work per call and never blocks
    /// where another task's thread runs it (`true`); a unit that can park
    /// goes to the helper's own thread `name`. See
    /// `papyrus_modelcheck::baton`.
    pub fn spawn_slices<F>(&self, name: String, mut slice: F) -> Task<()>
    where
        F: FnMut(bool) -> Slice + Send + 'static,
    {
        self.fabric.baton().spawn_slices(name, self.rank, move |lent| {
            // On another task's thread the slice orders its locks from a
            // held-lock stack of its own, not from that task's.
            let _own = (lent && papyrus_sanity::enabled()).then(lockorder::set_aside);
            slice(lent)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RecvSrc, RecvTag};
    use bytes::Bytes;
    use papyrus_simtime::US;

    #[test]
    fn run_returns_per_rank_results() {
        let out = World::run(WorldConfig::for_tests(4), |ctx| ctx.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(WorldConfig::for_tests(1), |ctx| ctx.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn ring_send_recv() {
        let out = World::run(WorldConfig::for_tests(5), |ctx| {
            let w = ctx.world();
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            w.send(next, 1, Bytes::from(vec![ctx.rank() as u8]));
            let m = w.recv(RecvSrc::Rank(prev), RecvTag::Tag(1));
            m.payload[0] as usize
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn messages_fifo_per_sender_and_tag() {
        let out = World::run(WorldConfig::for_tests(2), |ctx| {
            let w = ctx.world();
            if ctx.rank() == 0 {
                for i in 0..100u8 {
                    w.send(1, 3, vec![i]);
                }
                Vec::new()
            } else {
                (0..100).map(|_| w.recv(RecvSrc::Rank(0), RecvTag::Tag(3)).payload[0]).collect()
            }
        });
        assert_eq!(out[1], (0..100).collect::<Vec<u8>>());
    }

    #[test]
    fn any_source_any_tag() {
        let out = World::run(WorldConfig::for_tests(3), |ctx| {
            let w = ctx.world();
            if ctx.rank() == 0 {
                let mut got = vec![
                    w.recv(RecvSrc::Any, RecvTag::Any).src,
                    w.recv(RecvSrc::Any, RecvTag::Any).src,
                ];
                got.sort_unstable();
                got
            } else {
                w.send(0, ctx.rank() as u32, Bytes::new());
                vec![]
            }
        });
        assert_eq!(out[0], vec![1, 2]);
    }

    #[test]
    fn barrier_merges_clocks() {
        let cfg = WorldConfig::new(3, NetModel::infiniband_edr());
        let out = World::run(cfg, |ctx| {
            // Rank 2 does a lot of virtual work before the barrier.
            if ctx.rank() == 2 {
                ctx.clock().advance(1_000 * US);
            }
            ctx.world().barrier();
            ctx.now()
        });
        // Everyone's clock is at least rank 2's pre-barrier time.
        for t in out {
            assert!(t >= 1_000 * US);
        }
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        let out = World::run(WorldConfig::for_tests(4), |ctx| {
            let bufs = ctx.world().allgather_bytes(vec![ctx.rank() as u8; 2]);
            bufs.iter().map(|b| b[0]).collect::<Vec<u8>>()
        });
        for row in out {
            assert_eq!(row, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn dup_isolates_traffic() {
        let out = World::run(WorldConfig::for_tests(2), |ctx| {
            let w = ctx.world();
            let internal = w.dup();
            if ctx.rank() == 0 {
                internal.send(1, 5, Bytes::from_static(b"internal"));
                w.send(1, 5, Bytes::from_static(b"app"));
                0
            } else {
                // Receive on the app comm first even though the internal
                // message was sent first: comms do not cross-match.
                let app = w.recv(RecvSrc::Rank(0), RecvTag::Tag(5));
                assert_eq!(&app.payload[..], b"app");
                let int = internal.recv(RecvSrc::Rank(0), RecvTag::Tag(5));
                assert_eq!(&int.payload[..], b"internal");
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn dup_repeated_creates_distinct_comms() {
        World::run(WorldConfig::for_tests(2), |ctx| {
            let a = ctx.world().dup();
            let b = ctx.world().dup();
            if ctx.rank() == 0 {
                a.send(1, 1, Bytes::from_static(b"a"));
                b.send(1, 1, Bytes::from_static(b"b"));
            } else {
                assert_eq!(&b.recv(RecvSrc::Any, RecvTag::Any).payload[..], b"b");
                assert_eq!(&a.recv(RecvSrc::Any, RecvTag::Any).payload[..], b"a");
            }
        });
    }

    #[test]
    fn helper_thread_shares_rank_clock() {
        let out = World::run(WorldConfig::for_tests(2), |ctx| {
            let helper_ctx = ctx.clone();
            let h = ctx.spawn(format!("helper-{}", ctx.rank()), move || {
                helper_ctx.clock().advance(500);
            });
            h.join().unwrap();
            ctx.now()
        });
        assert!(out.iter().all(|&t| t >= 500));
    }

    #[test]
    fn send_charges_virtual_time() {
        let cfg = WorldConfig::new(2, NetModel::infiniband_edr());
        let out = World::run(cfg, |ctx| {
            if ctx.rank() == 0 {
                for _ in 0..10 {
                    ctx.world().send(1, 0, Bytes::from(vec![0u8; 1024]));
                }
                ctx.now()
            } else {
                for _ in 0..10 {
                    ctx.world().recv(RecvSrc::Rank(0), RecvTag::Any);
                }
                ctx.now()
            }
        });
        assert!(out[0] > 0, "sender clock must advance");
        // Receiver saw arrival stamps that include wire latency.
        assert!(out[1] > out[0] / 2);
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked")]
    fn rank_panic_propagates() {
        World::run(WorldConfig::for_tests(2), |ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
        });
    }
}
