//! The shared message fabric: mailboxes, NIC resources, communicator registry.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use papyrus_baton::{Baton, Grants};
use papyrus_faultinject::{
    FaultPlan, PROBE_DEADLINE_CAP_NS, PROBE_DEADLINE_INIT_NS, PROBE_MISS_THRESHOLD,
};
use papyrus_simtime::{transfer_ns, Clock, NetModel, Resource, SimNs};
use papyrus_telemetry::{Counter, Gauge, Histogram, Registry, SpanRecorder, TID_APP};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::{Rank, Tag, WorldConfig};

/// Per-rank channel telemetry: message/byte counts in both directions,
/// instantaneous mailbox depth, and per-message wire time. Lives on the
/// rank's trace timeline (pid == world rank) under category `mpi`.
pub(crate) struct RankNetTel {
    reg: Arc<Registry>,
    send_count: Counter,
    send_bytes: Counter,
    recv_count: Counter,
    recv_bytes: Counter,
    queue_depth: Gauge,
    /// Transitions of a peer rank to confirmed-dead observed by this rank.
    failover: Counter,
    msg_ns: Histogram,
    rec: SpanRecorder,
}

impl RankNetTel {
    fn new(reg: &Arc<Registry>, rank: Rank) -> Self {
        let pid = rank as u32;
        Self {
            reg: reg.clone(),
            send_count: reg.counter(pid, "net.send.count"),
            send_bytes: reg.counter(pid, "net.send.bytes"),
            recv_count: reg.counter(pid, "net.recv.count"),
            recv_bytes: reg.counter(pid, "net.recv.bytes"),
            queue_depth: reg.gauge(pid, "net.mailbox.depth"),
            failover: reg.counter(pid, "rank_failovers"),
            msg_ns: reg.histogram(pid, "net.msg.ns"),
            rec: reg.recorder_for_rank(rank),
        }
    }

    /// Account an outbound message: `now` is the send time on the sender's
    /// clock, `stamp` the computed arrival time.
    pub(crate) fn on_send(&self, bytes: u64, now: SimNs, stamp: SimNs) {
        if !self.reg.enabled() {
            return;
        }
        self.send_count.inc();
        self.send_bytes.add(bytes);
        self.msg_ns.record(stamp.saturating_sub(now));
        self.rec.span("mpi", "send", TID_APP, now, stamp);
    }

    fn on_deliver(&self, depth: usize) {
        if self.reg.enabled() {
            self.queue_depth.set(depth as i64);
        }
    }

    fn on_recv(&self, bytes: u64, depth: usize) {
        if !self.reg.enabled() {
            return;
        }
        self.recv_count.inc();
        self.recv_bytes.add(bytes);
        self.queue_depth.set(depth as i64);
    }
}

/// Internal communicator identifier (unique within a [`Fabric`]).
pub(crate) type CommId = u64;

/// A delivered message envelope as stored in a rank's mailbox.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    pub comm: CommId,
    /// Sender's rank *within the communicator* the message was sent on.
    pub src: Rank,
    pub tag: Tag,
    /// Virtual arrival timestamp (sender clock + NIC queueing + wire time).
    pub stamp: SimNs,
    pub payload: Bytes,
}

/// A rank's incoming envelopes, on every communicator, behind one lock.
type Mailbox = VecDeque<Envelope>;

/// State used to rendezvous one barrier on one communicator.
pub(crate) struct CollectiveState {
    inner: Mutex<CollectiveInner>,
    cv: Condvar,
}

struct CollectiveInner {
    /// Members of the communicator.
    n: usize,
    arrived: usize,
    consumed: usize,
    max_stamp: SimNs,
    /// Release stamp of the round being released. While `Some`, the round
    /// is draining and no new round may start.
    released: Option<SimNs>,
}

impl CollectiveState {
    fn new(n: usize) -> Self {
        Self {
            inner: Mutex::new(CollectiveInner {
                n,
                arrived: 0,
                consumed: 0,
                max_stamp: 0,
                released: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Barrier across the members: returns the release timestamp, the
    /// latest arrival `stamp` plus `cost`. Blocks until all members of this
    /// round arrive. Back-to-back rounds are safe: a new round cannot begin
    /// until every member of the previous round has consumed its release.
    ///
    /// `check` is the liveness probe of an armed world (`None` on a world
    /// without a fault plan, which then parks untimed): the wait times out
    /// whenever no other task of the world can run, and calls it then. If it
    /// names a dead member the caller *withdraws* its arrival and returns
    /// `Err(dead_world_rank)`, leaving the round clean for the surviving
    /// members (who will each detect the same death and withdraw too,
    /// instead of hanging forever on a member that will never arrive).
    #[track_caller]
    pub(crate) fn barrier(
        &self,
        stamp: SimNs,
        cost: SimNs,
        mut check: Option<&mut dyn FnMut() -> Option<Rank>>,
    ) -> Result<SimNs, Rank> {
        let mut g = self.inner.lock();
        // Phase 0: if a previous round is still draining, wait it out.
        while g.released.is_some() {
            if self.park(&mut g, check.is_some()) {
                if let Some(dead) = check.as_mut().and_then(|check| check()) {
                    return Err(dead);
                }
            }
        }
        // Phase 1: arrive.
        g.max_stamp = g.max_stamp.max(stamp);
        g.arrived += 1;
        if g.arrived == g.n {
            g.released = Some(g.max_stamp + cost);
            g.consumed = 0;
            self.cv.notify_all();
        }
        // Phase 2: wait for the release (the releasing member falls straight
        // through), then consume; the last consumer resets for the next
        // round. The reset cannot race a member still waiting here: it
        // requires all n members to have consumed, which requires each to
        // have seen `released` as `Some`. So a member that finds no release
        // here has arrived in the round being gathered, and withdraws by
        // taking its arrival back.
        let out = loop {
            if let Some(out) = g.released {
                break out;
            }
            if self.park(&mut g, check.is_some()) && g.released.is_none() {
                if let Some(dead) = check.as_mut().and_then(|check| check()) {
                    g.arrived -= 1;
                    self.cv.notify_all();
                    return Err(dead);
                }
            }
        };
        g.consumed += 1;
        if g.consumed == g.n {
            g.released = None;
            g.arrived = 0;
            g.max_stamp = 0;
            self.cv.notify_all();
        }
        Ok(out)
    }

    /// Park once; true iff a timed park timed out.
    #[track_caller]
    fn park(&self, g: &mut MutexGuard<'_, CollectiveInner>, timed: bool) -> bool {
        if timed {
            self.cv.wait_until_quiet(g).timed_out()
        } else {
            self.cv.wait(g);
            false
        }
    }
}

/// Record of a communicator known to the fabric.
pub(crate) struct CommRecord {
    /// World ranks of the members, in comm-rank order.
    pub members: Arc<Vec<Rank>>,
    pub collective: Arc<CollectiveState>,
    /// One condvar per member, in comm-rank order, that its receivers on
    /// this communicator wait on under its mailbox's lock: a delivery wakes
    /// only its own communicator's receivers (a rank's handler and
    /// application thread share the mailbox, not a comm).
    pub ready: Vec<Condvar>,
}

impl CommRecord {
    fn new(members: Vec<Rank>) -> Self {
        Self {
            collective: Arc::new(CollectiveState::new(members.len())),
            ready: members.iter().map(|_| Condvar::new()).collect(),
            members: Arc::new(members),
        }
    }
}

/// Child-comm registry: (parent id, per-parent sequence number) -> created
/// (comm id, record).
type ChildComms = HashMap<(CommId, u64), (CommId, Arc<CommRecord>)>;

/// The shared fabric connecting all ranks of a [`crate::World`].
///
/// Holds one mailbox, one egress-NIC resource and one ingress-NIC resource
/// per rank, plus the registry of communicators. Cheap to share via `Arc`.
pub struct Fabric {
    n: usize,
    net: NetModel,
    mailboxes: Vec<Mutex<Mailbox>>,
    nic_tx: Vec<Resource>,
    nic_rx: Vec<Resource>,
    /// Shared switch fabric: bisection bandwidth is a fraction of the sum of
    /// link bandwidths (fat-tree oversubscription), so synchronised
    /// all-to-all bursts (a relaxed-mode barrier migrating everything at
    /// once) queue here while paced traffic (sequential-mode synchronous
    /// puts) does not — the congestion effect behind the paper's Figure 7
    /// `Seq+B` ≳ `Rel+B` observation.
    backbone: Resource,
    backbone_links: u32,
    clocks: Vec<Clock>,
    /// The world's telemetry ([`crate::WorldConfig::with_telemetry`]):
    /// every layer of the world interns its handles from it.
    telemetry: Arc<Registry>,
    tel: Vec<RankNetTel>,
    /// The world's scheduler: every rank thread and helper of this world
    /// is one of its tasks ([`crate::RankCtx::spawn_slices`]).
    baton: Arc<Baton>,
    /// The world communicator (comm id 0).
    world_record: Arc<CommRecord>,
    /// Deterministic child-comm registry: (parent id, per-parent sequence
    /// number) -> created record. SPMD programs create comms in the same
    /// order on every rank, so the first arrival creates and the rest join.
    /// Child ids count from 1 in order of creation.
    children: Mutex<ChildComms>,
    /// The fault schedule this world runs under, if it was armed with one
    /// ([`crate::WorldConfig::with_faults`]). Every injection site below
    /// reads this field; nothing about faults is process-global.
    faults: Option<Arc<FaultPlan>>,
    /// Failure-detector verdicts: `dead[r]` once the heartbeat protocol has
    /// confirmed world rank `r` unresponsive. Only ever set on an armed
    /// world; sticky for the life of the world.
    dead: Mutex<Vec<bool>>,
}

/// How long a mailbox wait may park.
pub(crate) enum Wait {
    /// Until a matching envelope arrives.
    Forever,
    /// Until a matching envelope arrives or no other task of the world can
    /// run — then none ever will, so the caller checks on its peer.
    /// Outside a world: take what is queued right now.
    UntilQuiet,
    /// Never: a run-to-completion task enlists to be woken by the next
    /// delivery instead, and its slice ends.
    Enlist,
}

/// Verdict of a failure-detector confirmation round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankStatus {
    Alive,
    Dead,
}

#[allow(
    clippy::indexing_slicing,
    reason = "a world rank is below the world's size, which sizes every per-rank table"
)]
impl Fabric {
    /// Create a fabric for `n` ranks with the given interconnect model, no
    /// fault plan and a fresh, disabled registry.
    pub fn new(n: usize, net: NetModel) -> Arc<Self> {
        Self::for_world(&WorldConfig::new(n, net))
    }

    /// Create the fabric of a world configured by `config`: its ranks, its
    /// interconnect, its fault plan and its telemetry.
    pub fn for_world(config: &WorldConfig) -> Arc<Self> {
        let (n, faults, telemetry) = (config.ranks, config.faults.clone(), &config.telemetry);
        assert!(n > 0, "a world needs at least one rank");
        // Bisection ≈ n/8 full-rate links: job placement on production
        // machines shares the fabric with other jobs, so the effective
        // all-to-all capacity seen by one job is well below the sum of its
        // link rates.
        let backbone_links = (n as u32 / 8).max(1);
        Arc::new(Self {
            n,
            net: config.net.clone(),
            mailboxes: (0..n).map(|_| Mutex::default()).collect(),
            nic_tx: (0..n).map(|_| Resource::new()).collect(),
            nic_rx: (0..n).map(|_| Resource::new()).collect(),
            backbone: Resource::new(),
            backbone_links,
            clocks: (0..n).map(|_| Clock::new()).collect(),
            telemetry: telemetry.clone(),
            tel: (0..n).map(|rank| RankNetTel::new(telemetry, rank)).collect(),
            baton: Baton::new(faults.as_ref().map_or(0, |plan| plan.horizon())),
            world_record: Arc::new(CommRecord::new((0..n).collect())),
            children: Mutex::new(HashMap::new()),
            faults,
            dead: Mutex::new(vec![false; n]),
        })
    }

    /// Number of ranks in the world.
    pub fn world_size(&self) -> usize {
        self.n
    }

    /// The interconnect cost model.
    pub fn net(&self) -> &NetModel {
        &self.net
    }

    /// The virtual clock of a world rank.
    pub fn clock(&self, world_rank: Rank) -> &Clock {
        &self.clocks[world_rank]
    }

    /// The fault plan this world was armed with, if any.
    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// The world's telemetry registry.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// The world's scheduler.
    pub(crate) fn baton(&self) -> &Arc<Baton> {
        &self.baton
    }

    /// How the world's baton changed hands so far: run on the granting
    /// thread, or handed to another OS thread (a futex wake each).
    pub fn grants(&self) -> Grants {
        self.baton.grants()
    }

    pub(crate) fn world_comm(&self) -> (CommId, Arc<CommRecord>) {
        (0, self.world_record.clone())
    }

    /// Create-or-join a child communicator. `members` must be identical on
    /// every creating rank (deterministic, e.g. from a `dup` every member calls): a rank
    /// that joins with other members is a fatal error, as under MPI's
    /// default error handler.
    pub(crate) fn create_child(
        &self,
        parent: CommId,
        seq: u64,
        members: Vec<Rank>,
    ) -> (CommId, Arc<CommRecord>) {
        let mut children = self.children.lock();
        if let Some((id, rec)) = children.get(&(parent, seq)) {
            assert!(
                **rec.members == members,
                "dup {seq} of comm {parent} called with mismatched membership across ranks: \
                 created with world ranks {:?}, joined with {members:?}",
                rec.members
            );
            return (*id, rec.clone());
        }
        let id = children.len() as CommId + 1;
        let rec = Arc::new(CommRecord::new(members));
        children.insert((parent, seq), (id, rec.clone()));
        (id, rec)
    }

    /// Model the cost of moving `bytes` from world rank `src` to `dst` with
    /// the sender's clock at `now`: egress NIC queueing, wire latency, then
    /// ingress NIC queueing. Returns the virtual arrival stamp.
    pub(crate) fn wire_stamp(&self, src: Rank, dst: Rank, bytes: u64, now: SimNs) -> SimNs {
        // Injected delay spike: purely virtual — the message is still
        // delivered immediately, it just *arrives* later.
        let extra = self.faults.as_ref().map_or(0, |p| p.net_extra_ns(now));
        if src == dst {
            // Intra-rank delivery: loopback, just the software latency.
            return now + self.net.msg_latency / 4 + extra;
        }
        let t = transfer_ns(bytes, self.net.bandwidth);
        let tx_done = self.nic_tx[src].submit(now, t);
        let tx_start = tx_done - t;
        // The message then traverses the shared switch fabric (occupying a
        // slice of the bisection bandwidth)...
        let bb_done = self.backbone.submit_shared(tx_start, t, self.backbone_links);
        // ...and occupies the receiver NIC for its transfer time starting
        // one wire-latency after it cleared the backbone.
        self.nic_rx[dst].submit(bb_done - t + self.net.msg_latency, t) + extra
    }

    /// Should a message from `src_world` to `dst_world` vanish? True when
    /// either endpoint is dead per this world's fault plan (black-hole) or a
    /// drop event matches.
    pub(crate) fn fault_drop(
        &self,
        src_world: Rank,
        dst_world: Rank,
        tag: Tag,
        now: SimNs,
    ) -> bool {
        self.faults.as_ref().is_some_and(|p| {
            p.rank_dead(src_world, now)
                || p.rank_dead(dst_world, now)
                || p.should_drop(dst_world, tag, now)
        })
    }

    /// Has the failure detector already confirmed this world rank dead?
    pub fn rank_known_dead(&self, world_rank: Rank) -> bool {
        self.dead.lock()[world_rank]
    }

    /// Run one heartbeat confirmation round against `target`, modelled
    /// entirely in virtual time: probes with exponentially growing virtual
    /// deadlines, a miss per unanswered-or-late ack, dead after
    /// [`PROBE_MISS_THRESHOLD`] consecutive misses. A delay spike makes the
    /// first probes miss, but the growing deadline eventually admits the
    /// late ack — false-positive resistance; a killed rank never acks.
    ///
    /// Returns the verdict and the virtual time the round consumed (the
    /// caller merges it into its clock if it has one). On a world without
    /// a fault plan this is free and always `Alive`.
    pub fn confirm_rank(&self, me: Rank, target: Rank, now: SimNs) -> (RankStatus, SimNs) {
        let plan = match &self.faults {
            Some(plan) if me != target => plan,
            _ => return (RankStatus::Alive, 0),
        };
        if self.dead.lock()[target] {
            return (RankStatus::Dead, 0);
        }
        let lat = self.net.msg_latency.max(1);
        let mut t = now;
        let mut deadline = PROBE_DEADLINE_INIT_NS.max(4 * lat);
        let mut misses = 0u32;
        loop {
            let req_arrive = t + lat + plan.net_extra_ns(t);
            let acked = !plan.rank_dead(target, req_arrive);
            let ack_at = req_arrive + lat + plan.net_extra_ns(req_arrive);
            if acked && ack_at <= t + deadline {
                return (RankStatus::Alive, ack_at.saturating_sub(now));
            }
            misses += 1;
            t += deadline;
            deadline = (deadline * 2).min(PROBE_DEADLINE_CAP_NS);
            if misses >= PROBE_MISS_THRESHOLD {
                let first = {
                    let mut dead = self.dead.lock();
                    let first = !dead[target];
                    dead[target] = true;
                    first
                };
                if first && self.telemetry.enabled() {
                    self.tel[me].failover.inc();
                }
                return (RankStatus::Dead, t.saturating_sub(now));
            }
        }
    }

    /// Per-rank channel telemetry handles.
    pub(crate) fn tel(&self, world_rank: Rank) -> &RankNetTel {
        &self.tel[world_rank]
    }

    /// Queue `env` at `dst_world`; the sender then notifies the condvar its
    /// communicator's receivers wait on there ([`CommRecord::ready`]).
    pub(crate) fn queue(&self, dst_world: Rank, env: Envelope) {
        let depth = {
            let mut mb = self.mailboxes[dst_world].lock();
            mb.push_back(env);
            mb.len()
        };
        self.tel[dst_world].on_deliver(depth);
    }

    /// The one mailbox wait: remove and return the first (FIFO) envelope on
    /// `comm` matching the `src`/`tag` wildcards, parking on `ready` (the
    /// receiver's condvar of `comm`) as `wait` says. `None` iff a
    /// [`Wait::UntilQuiet`] gave up or a [`Wait::Enlist`] enlisted (never
    /// for [`Wait::Forever`]).
    #[track_caller]
    pub(crate) fn wait_match(
        &self,
        me_world: Rank,
        ready: &Condvar,
        comm: CommId,
        src: Option<Rank>,
        tag: Option<Tag>,
        wait: Wait,
    ) -> Option<Envelope> {
        let mut mb = self.mailboxes[me_world].lock();
        let mut quiet = false;
        let found = loop {
            let pos = mb.iter().position(|e| {
                e.comm == comm && src.is_none_or(|s| e.src == s) && tag.is_none_or(|t| e.tag == t)
            });
            if let Some(env) = pos.and_then(|p| mb.remove(p)) {
                self.tel[me_world].on_recv(env.payload.len() as u64, mb.len());
                break Some(env);
            }
            if quiet {
                break None;
            }
            match wait {
                Wait::Forever => ready.wait(&mut mb),
                Wait::UntilQuiet => quiet = ready.wait_until_quiet(&mut mb).timed_out(),
                Wait::Enlist => {
                    ready.enlist(&mb);
                    break None;
                }
            }
        };
        // The release is a preemption point; nothing follows it.
        drop(mb);
        found
    }

    /// Blocking receive with wildcards, parking on `ready`.
    #[track_caller]
    pub(crate) fn recv(
        &self,
        me_world: Rank,
        ready: &Condvar,
        comm: CommId,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Envelope {
        // `Wait::Forever` has no give-up exit, so this loop runs once.
        loop {
            if let Some(env) = self.wait_match(me_world, ready, comm, src, tag, Wait::Forever) {
                return env;
            }
        }
    }

    /// Count of undelivered messages in a rank's mailbox (diagnostics).
    pub fn pending(&self, world_rank: Rank) -> usize {
        self.mailboxes[world_rank].lock().len()
    }

    /// End-of-job protocol check: every envelope still queued in a mailbox
    /// once the world's tasks have all exited is a tag leak — a send nobody
    /// received. Returns one rendered line per envelope; empty when clean.
    pub(crate) fn leftover_envelopes(&self) -> Vec<String> {
        let mut leaks = Vec::new();
        for (rank, mb) in self.mailboxes.iter().enumerate() {
            for env in mb.lock().iter() {
                leaks.push(format!(
                    "tag leak: rank {rank} mailbox still holds comm {} src {} tag {} \
                     ({} bytes) at finalize",
                    env.comm,
                    env.src,
                    env.tag,
                    env.payload.len()
                ));
            }
        }
        leaks
    }

    /// Collective synchronisation cost for an `n`-member operation:
    /// a tree of message latencies down and up.
    pub(crate) fn collective_cost(&self, n: usize) -> SimNs {
        let log2 = if n <= 1 { 0 } else { (n as f64).log2().ceil() as u64 };
        2 * log2 * self.net.msg_latency
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "the test races OS threads outside any world")]
mod tests {
    use super::*;
    use papyrus_simtime::US;

    /// Queue `env` at `dst` and wake its receivers, as a send on the world
    /// communicator does.
    fn deliver(f: &Fabric, dst: Rank, env: Envelope) {
        f.queue(dst, env);
        f.world_record.ready[dst].notify_all();
    }

    fn fabric(n: usize) -> Arc<Fabric> {
        Fabric::new(n, NetModel::infiniband_edr())
    }

    impl Fabric {
        /// Blocking receive on the world communicator's condvar.
        fn recv_world(
            &self,
            me: Rank,
            comm: CommId,
            src: Option<Rank>,
            tag: Option<Tag>,
        ) -> Envelope {
            self.recv(me, &self.world_record.ready[me], comm, src, tag)
        }

        /// Non-blocking receive: outside a world a quiet wait gives up at
        /// once.
        fn try_recv(
            &self,
            me: Rank,
            comm: CommId,
            src: Option<Rank>,
            tag: Option<Tag>,
        ) -> Option<Envelope> {
            self.wait_match(me, &Condvar::new(), comm, src, tag, Wait::UntilQuiet)
        }
    }

    #[test]
    fn deliver_and_recv() {
        let f = fabric(2);
        deliver(
            &f,
            1,
            Envelope { comm: 0, src: 0, tag: 7, stamp: 123, payload: Bytes::from_static(b"hi") },
        );
        let e = f.recv_world(1, 0, None, None);
        assert_eq!(e.src, 0);
        assert_eq!(e.tag, 7);
        assert_eq!(&e.payload[..], b"hi");
    }

    #[test]
    fn recv_filters_by_tag() {
        let f = fabric(1);
        for tag in [1u32, 2, 3] {
            deliver(&f, 0, Envelope { comm: 0, src: 0, tag, stamp: 0, payload: Bytes::new() });
        }
        let e = f.recv_world(0, 0, None, Some(2));
        assert_eq!(e.tag, 2);
        // The others are still there, in order.
        assert_eq!(f.recv_world(0, 0, None, None).tag, 1);
        assert_eq!(f.recv_world(0, 0, None, None).tag, 3);
    }

    #[test]
    fn recv_filters_by_src_and_comm() {
        let f = fabric(4);
        deliver(&f, 0, Envelope { comm: 5, src: 2, tag: 0, stamp: 0, payload: Bytes::new() });
        deliver(&f, 0, Envelope { comm: 0, src: 3, tag: 0, stamp: 0, payload: Bytes::new() });
        assert!(f.try_recv(0, 0, Some(2), None).is_none());
        assert!(f.try_recv(0, 5, Some(2), None).is_some());
        assert!(f.try_recv(0, 0, Some(3), None).is_some());
    }

    #[test]
    fn try_recv_empty_is_none() {
        let f = fabric(1);
        assert!(f.try_recv(0, 0, None, None).is_none());
        assert_eq!(f.pending(0), 0);
    }

    #[test]
    fn timed_recv_expires_past_a_non_matching_envelope() {
        // Rank 0 gives up on tag 2 once rank 1 has nothing left to run,
        // not on a wall-clock deadline, and the tag-1 envelope stays queued.
        let out = crate::World::run(crate::WorldConfig::for_tests(2), |ctx| {
            let w = ctx.world();
            if ctx.rank() == 1 {
                w.send(0, 1, Bytes::new());
                return None;
            }
            let gave_up = w.recv_until_quiet(crate::RecvSrc::Rank(1), crate::RecvTag::Tag(2));
            assert!(gave_up.is_none());
            assert_eq!(w.fabric().pending(0), 1, "the non-matching envelope stays queued");
            w.recv_until_quiet(crate::RecvSrc::Rank(1), crate::RecvTag::Tag(1)).map(|m| m.tag)
        });
        assert_eq!(out[0], Some(1));
    }

    #[test]
    fn wire_stamp_uncontended_is_latency_plus_transfer() {
        let f = Fabric::new(
            2,
            NetModel {
                name: "t",
                msg_latency: 10 * US,
                bandwidth: papyrus_simtime::GIB,
                rdma_latency: US,
            },
        );
        let stamp = f.wire_stamp(0, 1, papyrus_simtime::GIB, 0);
        assert_eq!(stamp, 10 * US + papyrus_simtime::SEC);
    }

    #[test]
    fn wire_stamp_incast_serialises_on_receiver() {
        let f = Fabric::new(
            3,
            NetModel {
                name: "t",
                msg_latency: 0,
                bandwidth: papyrus_simtime::GIB,
                rdma_latency: 0,
            },
        );
        let a = f.wire_stamp(0, 2, papyrus_simtime::GIB, 0);
        let b = f.wire_stamp(1, 2, papyrus_simtime::GIB, 0);
        // Two different senders, same receiver: second transfer queues.
        assert_eq!(a.min(b), papyrus_simtime::SEC);
        assert_eq!(a.max(b), 2 * papyrus_simtime::SEC);
    }

    #[test]
    fn loopback_is_cheap() {
        let f = fabric(2);
        let stamp = f.wire_stamp(1, 1, 1 << 20, 100);
        assert!(stamp < 100 + f.net().msg_latency);
    }

    #[test]
    fn blocking_recv_wakes_on_delivery() {
        let f = fabric(2);
        let f2 = f.clone();
        let h = std::thread::spawn(move || f2.recv_world(0, 0, Some(1), Some(9)).stamp);
        std::thread::sleep(std::time::Duration::from_millis(20));
        deliver(&f, 0, Envelope { comm: 0, src: 1, tag: 9, stamp: 555, payload: Bytes::new() });
        assert_eq!(h.join().unwrap(), 555);
    }

    #[test]
    fn child_comm_created_once() {
        let f = fabric(4);
        let (id1, r1) = f.create_child(0, 0, vec![0, 1]);
        let (id2, r2) = f.create_child(0, 0, vec![0, 1]);
        assert_eq!(id1, id2);
        assert!(Arc::ptr_eq(&r1.members, &r2.members));
        let (id3, _) = f.create_child(0, 1, vec![2, 3]);
        assert_ne!(id1, id3);
    }

    #[test]
    fn child_comm_ids_count_in_creation_order() {
        let f = fabric(4);
        let ids: Vec<CommId> = [(0, 0), (0, 1), (1, 0), (0, 2)]
            .into_iter()
            .map(|(parent, seq)| f.create_child(parent, seq, vec![0, 1]).0)
            .collect();
        assert_eq!(ids, [1, 2, 3, 4]);
        assert_eq!(f.create_child(1, 0, vec![0, 1]).0, 3, "a join finds the created id");
    }

    #[test]
    #[should_panic(expected = "dup 0 of comm 0 called with mismatched membership across ranks: \
                               created with world ranks [0, 1], joined with [0, 2]")]
    fn a_dup_with_other_members_is_fatal() {
        let f = fabric(4);
        f.create_child(0, 0, vec![0, 1]);
        f.create_child(0, 0, vec![0, 2]);
    }

    #[test]
    fn collective_cost_scales_logarithmically() {
        let f = fabric(2);
        assert_eq!(f.collective_cost(1), 0);
        let c2 = f.collective_cost(2);
        let c16 = f.collective_cost(16);
        assert_eq!(c16, 4 * c2);
    }

    #[test]
    fn collective_state_allgather_exchanges_all() {
        let st = Arc::new(CollectiveState::new(3));
        let handles: Vec<_> = (0..3u64)
            .map(|me| {
                let st = st.clone();
                std::thread::spawn(move || st.barrier((me + 1) * 100, 7, None).unwrap())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 307); // max(100,200,300) + 7
        }
    }

    #[test]
    fn collective_state_reusable_across_generations() {
        let st = Arc::new(CollectiveState::new(2));
        for round in 0..5u64 {
            let handles: Vec<_> = (0..2u64)
                .map(|me| {
                    let st = st.clone();
                    std::thread::spawn(move || st.barrier((5 - round) * 10 + me, 0, None).unwrap())
                })
                .collect();
            for h in handles {
                // Each round releases at its own latest arrival, earlier
                // than the round before it: nothing of that round is left.
                assert_eq!(h.join().unwrap(), (5 - round) * 10 + 1);
            }
        }
    }
}
