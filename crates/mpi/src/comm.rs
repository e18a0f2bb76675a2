//! Communicators: tagged point-to-point messaging plus collectives.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use papyrus_simtime::SimNs;

use crate::fabric::{CommId, CommRecord, Envelope, Fabric, Wait};
use crate::{Rank, Tag};

/// Source selector for receives (`MPI_ANY_SOURCE` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvSrc {
    /// Match messages from any sender.
    Any,
    /// Match only messages from this comm rank.
    Rank(Rank),
}

/// Tag selector for receives (`MPI_ANY_TAG` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTag {
    /// Match any tag.
    Any,
    /// Match only this tag.
    Tag(Tag),
}

/// A received message.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sender's rank within this communicator.
    pub src: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Payload bytes (zero-copy shared).
    pub payload: Bytes,
    /// Virtual arrival timestamp (already merged into the receiving rank's
    /// clock by the time the caller sees the message).
    pub stamp: SimNs,
}

/// A communicator: a subset of world ranks with private message space.
///
/// Like MPI communicators, messages sent on one communicator can never be
/// received on another, and each communicator has its own rank numbering.
/// `Communicator` is `Clone` and `Send + Sync`; helper threads (PapyrusKV's
/// message dispatcher and handler) clone the handle they are given.
pub struct Communicator {
    fabric: Arc<Fabric>,
    id: CommId,
    record: Arc<CommRecord>,
    /// This handle's rank within the communicator.
    me: Rank,
    /// World rank backing `me` (for mailbox addressing and clock access).
    me_world: Rank,
    /// Per-parent sequence counter for deterministic child-comm creation.
    next_child_seq: Arc<AtomicU64>,
}

impl Clone for Communicator {
    fn clone(&self) -> Self {
        Self {
            fabric: self.fabric.clone(),
            id: self.id,
            record: self.record.clone(),
            me: self.me,
            me_world: self.me_world,
            next_child_seq: self.next_child_seq.clone(),
        }
    }
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("id", &self.id)
            .field("rank", &self.me)
            .field("size", &self.size())
            .finish()
    }
}

impl Communicator {
    pub(crate) fn new(fabric: Arc<Fabric>, id: CommId, record: Arc<CommRecord>, me: Rank) -> Self {
        let me_world = record.members[me];
        Self { fabric, id, record, me, me_world, next_child_seq: Arc::new(AtomicU64::new(0)) }
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> Rank {
        self.me
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.record.members.len()
    }

    /// Send `payload` to `dst` (comm rank) with `tag`.
    ///
    /// Charges the sender's virtual clock with the software send overhead and
    /// the fabric with NIC/wire time; the computed arrival stamp travels with
    /// the message and is merged into the receiver's clock on receipt.
    pub fn send(&self, dst: Rank, tag: Tag, payload: impl Into<Bytes>) {
        let payload = payload.into();
        let dst_world = self.record.members[dst];
        let clock = self.fabric.clock(self.me_world);
        // Sender-side software overhead (an MPI_Send on the happy path).
        let now = clock.advance(self.fabric.net().msg_latency / 4);
        if self.fabric.fault_drop(self.me_world, dst_world, tag, now) {
            return; // black-holed by the fault plane
        }
        let stamp = self.fabric.wire_stamp(self.me_world, dst_world, payload.len() as u64, now);
        self.fabric.tel(self.me_world).on_send(payload.len() as u64, now, stamp);
        self.fabric.count((self.id, self.me_world, dst_world, tag), false);
        self.fabric
            .deliver(dst_world, Envelope { comm: self.id, src: self.me, tag, stamp, payload });
    }

    /// Timestamp-explicit send for background threads (PapyrusKV's message
    /// dispatcher): does NOT touch the rank clock. The message is charged to
    /// the NICs/wire starting from `now` and the computed arrival stamp is
    /// returned (and travels with the message).
    pub fn send_at(&self, dst: Rank, tag: Tag, payload: impl Into<Bytes>, now: SimNs) -> SimNs {
        let payload = payload.into();
        let dst_world = self.record.members[dst];
        if self.fabric.fault_drop(self.me_world, dst_world, tag, now) {
            return now; // black-holed by the fault plane
        }
        let stamp = self.fabric.wire_stamp(self.me_world, dst_world, payload.len() as u64, now);
        self.fabric.tel(self.me_world).on_send(payload.len() as u64, now, stamp);
        self.fabric.count((self.id, self.me_world, dst_world, tag), false);
        self.fabric
            .deliver(dst_world, Envelope { comm: self.id, src: self.me, tag, stamp, payload });
        stamp
    }

    /// Blocking receive matching `src`/`tag`. Merges the message's arrival
    /// stamp into this rank's clock.
    #[track_caller]
    pub fn recv(&self, src: RecvSrc, tag: RecvTag) -> Message {
        let env = self.fabric.recv(self.me_world, self.id, src.into_option(), tag.into_option());
        self.stamp_in(&env);
        Message { src: env.src, tag: env.tag, payload: env.payload, stamp: env.stamp }
    }

    /// Blocking receive that gives up (`None`) once no other task of the
    /// world can run: the message can then never come, and the caller
    /// checks on its peer. On success the arrival stamp is merged into this
    /// rank's clock as with `recv`.
    #[track_caller]
    pub fn recv_until_quiet(&self, src: RecvSrc, tag: RecvTag) -> Option<Message> {
        let env = self.fabric.wait_match(
            self.me_world,
            self.id,
            src.into_option(),
            tag.into_option(),
            Wait::UntilQuiet,
        )?;
        self.stamp_in(&env);
        Some(Message { src: env.src, tag: env.tag, payload: env.payload, stamp: env.stamp })
    }

    /// Blocking receive that does NOT merge the arrival stamp into the rank
    /// clock — for background threads (mdhim's range server) whose receipt
    /// must not advance the application rank's virtual time. The
    /// stamp stays available on the returned [`Message`] for service-time
    /// accounting.
    #[track_caller]
    pub fn recv_unstamped(&self, src: RecvSrc, tag: RecvTag) -> Message {
        let env = self.fabric.recv(self.me_world, self.id, src.into_option(), tag.into_option());
        Message { src: env.src, tag: env.tag, payload: env.payload, stamp: env.stamp }
    }

    /// Receive without parking, for a run-to-completion task (PapyrusKV's
    /// message handler): the first matching message, unstamped as with
    /// [`Communicator::recv_unstamped`], or `None` with the task enlisted
    /// to be woken by the next delivery — its slice then ends.
    #[track_caller]
    pub fn take_unstamped(&self, src: RecvSrc, tag: RecvTag) -> Option<Message> {
        let (src, tag) = (src.into_option(), tag.into_option());
        let env = self.fabric.wait_match(self.me_world, self.id, src, tag, Wait::Enlist)?;
        Some(Message { src: env.src, tag: env.tag, payload: env.payload, stamp: env.stamp })
    }

    fn stamp_in(&self, env: &Envelope) {
        let clock = self.fabric.clock(self.me_world);
        clock.merge(env.stamp);
        clock.advance(self.fabric.net().msg_latency / 4); // receive-side software overhead
    }

    /// Collective barrier: returns once all members arrive; clocks are merged
    /// to the latest member plus a logarithmic synchronisation cost.
    #[track_caller]
    pub fn barrier(&self) {
        let _ = self.allgather_bytes(Vec::new());
    }

    /// Collective all-gather of raw byte buffers; result is indexed by comm
    /// rank. All members must call this the same number of times in the same
    /// order (standard MPI collective semantics). On an armed world a member
    /// that dies before arriving is fatal here, as under MPI's default error
    /// handler; [`Communicator::try_barrier`] is the recoverable form.
    #[track_caller]
    pub(crate) fn allgather_bytes(&self, contribution: Vec<u8>) -> Arc<Vec<Vec<u8>>> {
        match self.rendezvous(contribution) {
            Ok(bufs) => bufs,
            Err(dead) => panic!("collective on comm {}: world rank {dead} is dead", self.id), // lint:allow(panic-path): fail-stop like MPI_ERRORS_ARE_FATAL; reachable only under a plan that kills a rank
        }
    }

    /// The one rendezvous behind every collective. A world without a fault
    /// plan parks until all members arrive and cannot fail. An armed world
    /// probes the failure detector whenever its wait times out — when no
    /// other task can run: `Err(dead_world_rank)` instead of hanging when a
    /// member dies before arriving.
    #[track_caller]
    fn rendezvous(&self, contribution: Vec<u8>) -> Result<Arc<Vec<Vec<u8>>>, Rank> {
        let n = self.size();
        let clock = self.fabric.clock(self.me_world);
        let cost = self.fabric.collective_cost(n);
        let mut check = || {
            // Each timed-out wait consumes virtual time too; advancing here
            // lets a rank whose clock lags the plan's kill times cross them
            // instead of probing forever. Armed worlds only.
            clock.advance(papyrus_faultinject::PROBE_DEADLINE_CAP_NS);
            self.any_dead_member().map(|(_, wr)| wr)
        };
        let armed = self.fabric.faults().is_some();
        let check = armed.then_some(&mut check as &mut dyn FnMut() -> Option<Rank>);
        let (bufs, stamp) =
            self.record.collective.allgather(n, self.me, contribution, clock.now(), cost, check)?;
        clock.merge(stamp);
        Ok(bufs)
    }

    /// Failure-detector confirmation round against comm rank `dst` at this
    /// rank's current virtual time. Dead verdicts are sticky on the fabric.
    /// The round's virtual cost is merged into this rank's clock.
    pub fn confirm_rank(&self, dst: Rank) -> crate::fabric::RankStatus {
        let clock = self.fabric.clock(self.me_world);
        let (status, cost) =
            self.fabric.confirm_rank(self.me_world, self.record.members[dst], clock.now());
        if cost > 0 {
            clock.advance(cost);
        }
        status
    }

    /// First member of this communicator confirmed dead (probing each in
    /// comm-rank order), as `(comm_rank, world_rank)`; `None` if all alive.
    /// Free on a world without a fault plan.
    ///
    /// Self counts: a rank whose own kill time has passed reports *itself*,
    /// so a victim stuck in a collective withdraws instead of waiting on
    /// peers whose messages black-hole (the join of its world thread would
    /// otherwise deadlock the whole job).
    pub fn any_dead_member(&self) -> Option<(Rank, Rank)> {
        let plan = self.fabric.faults()?;
        let clock = self.fabric.clock(self.me_world);
        if plan.rank_dead(self.me_world, clock.now()) {
            return Some((self.me, self.me_world));
        }
        for (cr, &wr) in self.record.members.iter().enumerate() {
            if wr == self.me_world {
                continue;
            }
            let (status, cost) = self.fabric.confirm_rank(self.me_world, wr, clock.now());
            if cost > 0 {
                clock.advance(cost);
            }
            if status == crate::fabric::RankStatus::Dead {
                return Some((cr, wr));
            }
        }
        None
    }

    /// Barrier that reports a dead member (`Err(dead_world_rank)`) instead
    /// of failing the job. On a world without a fault plan it is exactly
    /// [`Communicator::barrier`] and always `Ok`.
    #[track_caller]
    pub fn try_barrier(&self) -> Result<(), Rank> {
        self.rendezvous(Vec::new()).map(drop)
    }

    /// Collective duplicate: a new communicator with identical membership.
    /// PapyrusKV duplicates the world communicator so runtime-internal
    /// messages cannot collide with application messages.
    pub fn dup(&self) -> Communicator {
        // ordering: child-sequence allocator; collective agreement on the
        // child id comes from every member calling in the same order, not
        // from this counter's memory ordering.
        let seq = self.next_child_seq.fetch_add(1, Ordering::Relaxed);
        let (id, record) = self.fabric.create_child(self.id, seq, self.record.members.to_vec());
        // Collective semantics: every member must arrive before any proceeds,
        // matching MPI_Comm_dup.
        self.barrier();
        Communicator::new(self.fabric.clone(), id, record, self.me)
    }

    /// Whether the failure detector has already confirmed `dst` (a rank of
    /// this communicator) dead. Sticky-verdict lookup only: no probe round,
    /// no virtual-time charge — suitable for hot paths that must stay free
    /// when no death has been detected (replica ring walks, promotion
    /// checks).
    pub fn rank_known_dead(&self, dst: Rank) -> bool {
        self.fabric.rank_known_dead(self.record.members[dst])
    }

    /// The fabric this communicator lives on (for diagnostics/tests).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }
}

impl RecvSrc {
    fn into_option(self) -> Option<Rank> {
        match self {
            RecvSrc::Any => None,
            RecvSrc::Rank(r) => Some(r),
        }
    }
}

impl RecvTag {
    fn into_option(self) -> Option<Tag> {
        match self {
            RecvTag::Any => None,
            RecvTag::Tag(t) => Some(t),
        }
    }
}
