//! The PapyrusKV runtime: per-rank execution context, background tasks,
//! and the environment API (`papyruskv_init` / `papyruskv_finalize`).
//!
//! Per rank, the runtime owns (paper §2.4):
//!
//! * a **compaction task** — takes immutable local MemTables off the
//!   flushing queue, writes SSTables, performs size-tiered merge
//!   compaction, and executes asynchronous checkpoint transfers;
//! * a **message dispatcher task** — takes immutable remote MemTables off
//!   the migration queue, sorts their pairs by owner rank, and ships
//!   per-owner batches over the interconnect;
//! * a **message handler task** — services MIGRATE / PUT_SYNC / GET_REQ /
//!   BARRIER_MARK requests from other ranks "without remote MPI ranks'
//!   intervention", and with replication on REPL_PUT / REPL_GET (DESIGN
//!   §11).
//!
//! The tasks have no thread: each runs to completion, one unit of work a
//! slice, on the thread of whichever task hands it the baton, and no unit
//! parks, so a rank runs one OS thread. A migration waits for no ack: in an
//! armed world `fence` collects them ([`collect_acks`]).
//!
//! The runtime duplicates independent communicators at init so its internal
//! traffic never collides with application messages.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use papyrus_faultinject as fi;
use papyrus_mpi::{
    Communicator, Message, RankCtx, RankStatus, RecvSrc, RecvTag, Sending, Slice, Task,
};
use papyrus_nvm::{NvmStore, StorageMap, SystemProfile};
use papyrus_simtime::{Clock, SimNs};
use papyrus_telemetry::Registry;
use parking_lot::{Condvar, Mutex};

// See db.rs: protocol atomics go through the facade.
use crate::db::{Db, DbInner};
use crate::error::{Error, Result};
use crate::memtable::MemTable;
use crate::msg::{self, Batch, Reply, Request};
use crate::options::{OpenFlags, Options};
use crate::queue::BlockingQueue;
use crate::sstable::SstReader;
use crate::write::{Ingest, Shipping};

/// The simulated machine a job runs on: system profile plus the shared
/// storage fabric. Build once per job and share (`Arc`) across all ranks.
pub struct Platform {
    /// The machine description (Table 2 entry).
    pub profile: SystemProfile,
    /// Physical rank → NVM-store mapping plus the shared PFS.
    pub storage: StorageMap,
    /// Number of ranks this platform was built for.
    pub n_ranks: usize,
    /// Job-wide promotion arbiter for the replication subsystem (DESIGN
    /// §11): survivors that discover a rank death race to claim primary
    /// ownership of its ranges here, and the first claim wins. Lives on the
    /// platform so all ranks of a job share one table while concurrent
    /// jobs/tests stay isolated.
    pub repl: papyrus_replica::PromotionTable,
}

impl Platform {
    /// Platform for `n_ranks` ranks over prebuilt `storage`, with a fresh
    /// promotion table.
    pub fn with_storage(profile: SystemProfile, storage: StorageMap, n_ranks: usize) -> Arc<Self> {
        Arc::new(Self { profile, storage, n_ranks, repl: papyrus_replica::PromotionTable::new() })
    }

    /// Platform for `n_ranks` ranks with the system's *physical* NVM sharing
    /// (ranks-per-node for local NVM, everyone for dedicated NVM).
    pub fn new(profile: SystemProfile, n_ranks: usize) -> Arc<Self> {
        let storage = StorageMap::with_default_groups(&profile, n_ranks);
        Self::with_storage(profile, storage, n_ranks)
    }

    /// Platform with an explicit physical sharing factor (tests).
    pub fn with_physical_groups(
        profile: SystemProfile,
        n_ranks: usize,
        group_size: usize,
    ) -> Arc<Self> {
        let storage = StorageMap::new(&profile, n_ranks, group_size);
        Self::with_storage(profile, storage, n_ranks)
    }

    /// Platform for a *new job* sharing the parallel file system of a
    /// previous one. This is how coupled applications in different jobs —
    /// possibly with different rank counts — hand snapshots to each other
    /// (paper Figure 5(b)-(c)): the NVM scratch is fresh, the PFS persists.
    pub fn new_job(profile: SystemProfile, n_ranks: usize, pfs_of: &Arc<Platform>) -> Arc<Self> {
        let group = profile.default_group_size(n_ranks);
        let storage = StorageMap::with_pfs(&profile, n_ranks, group, pfs_of.storage.pfs().clone());
        Self::with_storage(profile, storage, n_ranks)
    }
}

/// Which store backs the repository path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepoKind {
    /// Node-local / burst-buffer NVM (the normal case).
    Nvm,
    /// The parallel file system — the artifact's "Lustre" configurations
    /// (`PAPYRUSKV_REPOSITORY=$SCRATCH/...`).
    Pfs,
}

/// Parsed repository reference.
#[derive(Debug, Clone)]
pub(crate) struct RepoRef {
    pub kind: RepoKind,
    pub prefix: String,
}

impl RepoRef {
    /// Parse `"nvm://path"`, `"pfs://path"`, or a bare path (defaults to
    /// NVM, like `PAPYRUSKV_REPOSITORY` pointing at the scratch NVM mount).
    fn parse(repository: &str) -> Result<Self> {
        let (kind, rest) = if let Some(rest) = repository.strip_prefix("nvm://") {
            (RepoKind::Nvm, rest)
        } else if let Some(rest) = repository.strip_prefix("pfs://") {
            (RepoKind::Pfs, rest)
        } else {
            (RepoKind::Nvm, repository)
        };
        let prefix = rest.trim_matches('/').to_string();
        if prefix.is_empty() {
            return Err(Error::InvalidArgument("empty repository path"));
        }
        Ok(Self { kind, prefix })
    }
}

/// An asynchronous-operation handle (`papyruskv_event_t`): returned by
/// checkpoint/restart/destroy; completed by the background task that
/// finishes the work.
#[derive(Clone)]
pub struct Event {
    inner: Arc<EventInner>,
    clock: Clock,
}

struct EventInner {
    /// Completion stamp plus the typed error, if the operation failed. The
    /// stamp is always present on completion so `wait` keeps its legacy
    /// "returns a stamp" contract even for failed operations.
    done: Mutex<Option<(SimNs, Option<Error>)>>,
    cv: Condvar,
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event").field("done", &self.is_done()).finish()
    }
}

impl Event {
    pub(crate) fn new(clock: Clock) -> Self {
        Self { inner: Arc::new(EventInner { done: Mutex::new(None), cv: Condvar::new() }), clock }
    }

    /// An already-completed event at the given stamp (synchronous fallback).
    pub(crate) fn completed(clock: Clock, stamp: SimNs) -> Self {
        let e = Self::new(clock);
        e.complete(stamp, None);
        e
    }

    /// Complete the event at `stamp`, with its typed failure if it failed
    /// (e.g. `StorageFull` from a checkpoint transfer that hit `ENOSPC`).
    /// `wait` returns the stamp either way; `wait_result` surfaces the error.
    pub(crate) fn complete(&self, stamp: SimNs, err: Option<Error>) {
        let mut g = self.inner.done.lock();
        *g = Some((stamp, err));
        self.inner.cv.notify_all();
    }

    /// Whether the pending operation finished.
    pub fn is_done(&self) -> bool {
        self.inner.done.lock().is_some()
    }

    fn wait_inner(&self) -> (SimNs, Option<Error>) {
        let mut g = self.inner.done.lock();
        let done = loop {
            if let Some(ref done) = *g {
                break done.clone();
            }
            self.inner.cv.wait(&mut g);
        };
        drop(g);
        self.clock.merge(done.0);
        done
    }

    /// `papyruskv_wait`: block until the pending operation completes, merge
    /// its completion stamp into the rank clock, and return the stamp.
    pub fn wait(&self) -> SimNs {
        self.wait_inner().0
    }

    /// Like [`Event::wait`] but surfacing the typed outcome: `Ok(stamp)` on
    /// success, the operation's error (e.g. [`Error::StorageFull`]) on
    /// failure. The stamp is merged into the rank clock either way.
    pub fn wait_result(&self) -> Result<SimNs> {
        let (stamp, err) = self.wait_inner();
        match err {
            None => Ok(stamp),
            Some(e) => Err(e),
        }
    }
}

/// Work items for the compaction task, one a slice.
pub(crate) enum CompactJob {
    /// Flush an immutable local MemTable into a new SSTable.
    Flush { db: Arc<DbInner>, mt: Arc<MemTable>, stamp: SimNs },
    /// Copy a snapshot of SSTables to the parallel file system (§4.2).
    Checkpoint {
        db: Arc<DbInner>,
        dest: String,
        snapshot: Vec<SstReader>,
        event: Event,
        stamp: SimNs,
    },
    /// End the task (finalize).
    Shutdown,
}

/// Work items for the message dispatcher.
pub(crate) enum MigrateJob {
    /// A migration or a re-replication, planned, shipped a step a slice.
    Ship(Shipping),
    /// End the task (finalize).
    Shutdown,
}

pub(crate) struct CtxInner {
    pub rank: RankCtx,
    pub platform: Arc<Platform>,
    /// This rank's repository store, as this world's handle.
    store: NvmStore,
    /// The PFS as this world's handle, made at its first use (a checkpoint
    /// or a restart): a world that never touches the PFS names no timeline.
    pfs: Mutex<Option<NvmStore>>,
    pub repo: RepoRef,
    /// Logical storage-group size (`PAPYRUSKV_GROUP_SIZE`).
    pub sg_size: usize,
    /// Requests into message handlers.
    pub comm_req: Communicator,
    /// Replies back to waiting callers.
    pub comm_rep: Communicator,
    /// Runtime collectives (open/close/barrier release).
    pub comm_ctl: Communicator,
    /// Application-level signals (§3.1).
    pub comm_sig: Communicator,
    pub dbs: Mutex<Vec<Arc<DbInner>>>,
    pub compact_q: Arc<BlockingQueue<CompactJob>>,
    pub migrate_q: Arc<BlockingQueue<MigrateJob>>,
    /// RPC sequence numbers for this rank's outgoing requests and armed-world
    /// batches (replies echo the seq, so a stale reply is told apart).
    rpc_seq: AtomicU64,
    /// The rank's helper tasks: compaction, dispatcher, message handler.
    tasks: Mutex<Vec<Task<()>>>,
    finalized: AtomicBool,
}

/// A world's handle on `store`, under its fault plan and recording into its
/// registry: the platform's stores keep neither, so each world has its own.
fn world_handle(rank: &RankCtx, store: &NvmStore) -> NvmStore {
    let fabric = rank.fabric();
    store.with_faults(fabric.faults().cloned()).with_telemetry(fabric.telemetry())
}

impl CtxInner {
    /// The fault plan this rank's world was armed with
    /// (`WorldConfig::with_faults`), if any.
    pub fn faults(&self) -> Option<&Arc<fi::FaultPlan>> {
        self.rank.fabric().faults()
    }

    /// The parallel file system (checkpoint/restart target), as this
    /// world's handle.
    pub fn pfs(&self) -> NvmStore {
        let mut pfs = self.pfs.lock();
        pfs.get_or_insert_with(|| world_handle(&self.rank, self.platform.storage.pfs())).clone()
    }

    /// This rank's repository store, as this world's handle; the SSTables of
    /// every rank it [shares storage](CtxInner::shares_storage) with are on it.
    pub fn repo_store(&self) -> NvmStore {
        self.store.clone()
    }

    /// Logical storage-group id of a rank.
    pub fn group_of(&self, rank: usize) -> u32 {
        (rank / self.sg_size.max(1)) as u32
    }

    /// Whether `a` can directly read `b`'s SSTables: logically grouped AND
    /// physically sharing a store (always true on the PFS).
    pub fn shares_storage(&self, a: usize, b: usize) -> bool {
        if self.group_of(a) != self.group_of(b) {
            return false;
        }
        match self.repo.kind {
            RepoKind::Pfs => true,
            RepoKind::Nvm => self.platform.storage.same_group(a, b),
        }
    }

    pub fn clock(&self) -> &Clock {
        self.rank.clock()
    }

    /// Next RPC sequence number (unique per rank; never 0).
    pub(crate) fn next_rpc_seq(&self) -> msg::RpcSeq {
        // ordering: unique-ID allocator; only the atomicity of the RMW
        // matters, the value publishes no other data.
        self.rpc_seq.fetch_add(1, Ordering::Relaxed) + 1
    }
}

// ---------------------------------------------------------------------------
// Failure-aware RPC
// ---------------------------------------------------------------------------

/// Virtual backoff before an RPC retry: first delay ~100 µs, doubling to a
/// 50 ms cap (with deterministic seeded jitter from `papyrus_faultinject`).
const RPC_BACKOFF_BASE_NS: u64 = 100_000;
const RPC_BACKOFF_CAP_NS: u64 = 50_000_000;
/// Attempts before giving up with `Error::Timeout` on a peer that is slow
/// but not confirmed dead.
const RPC_MAX_ATTEMPTS: u32 = 5;

/// The echoed sequence number leading every reply payload (`encode_ack` and
/// `encode_get_resp` both start with the seq, little-endian).
fn peek_seq(payload: &bytes::Bytes) -> Option<msg::RpcSeq> {
    payload.first_chunk::<8>().map(|b| u64::from_le_bytes(*b))
}

/// A request's destination: (rank, request).
pub(crate) type Route = (usize, Request);

/// One batch for another rank's handler: a MIGRATE to its owner or, with
/// `copy_of`, a REPL_PUT copy of that origin's records to a successor.
pub(crate) struct Shipment {
    pub to: usize,
    pub copy_of: Option<usize>,
    pub records: Batch,
}

impl Shipment {
    /// Its route, and what a failure calls it.
    pub(crate) fn route(&self) -> (Route, &'static str) {
        match self.copy_of {
            None => ((self.to, Request::Migrate), "migrate"),
            Some(_) => ((self.to, Request::ReplPut), "replica forward"),
        }
    }

    /// Its payload under `seq`; sequence 0 asks for no ack.
    pub(crate) fn encode(&self, db: u32, seq: msg::RpcSeq) -> bytes::Bytes {
        match self.copy_of {
            None => self.records.migrate(db, seq),
            Some(origin) => self.records.repl_put(db, origin as u32, seq != 0, seq),
        }
    }
}

/// A death the failure detector confirmed is sticky: a request to a rank it
/// named fails at once, as a timed-out one would, after the promotion check.
fn refuse_dead(ctx: &CtxInner, db: &Arc<DbInner>, to: usize) -> Result<()> {
    if ctx.comm_rep.rank_known_dead(to) {
        crate::replica::maybe_promote(ctx, db, to);
        return Err(Error::RankUnavailable(to));
    }
    Ok(())
}

/// Begin shipping a batch to another rank's handler as of `stamp`, in steps
/// ([`Communicator::carry_on`]); nothing waits for it. Unarmed world: no
/// ack. Armed world: the batch goes under a fresh sequence number into
/// `db`'s unacked batches, whose acks the next fence collects.
pub(crate) fn send_batch(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    ship: Shipment,
    stamp: SimNs,
) -> Result<Sending> {
    let ((to, req), _) = ship.route();
    let seq = match ctx.faults() {
        None => 0,
        Some(_) => refuse_dead(ctx, db, to).map(|()| ctx.next_rpc_seq())?,
    };
    let sending = ctx.comm_req.send_in_steps(to, req.tag(), ship.encode(db.id, seq), stamp);
    if ship.copy_of.is_some() {
        crate::replica::note_forward(db, stamp, sending.stamp);
    }
    if seq != 0 {
        db.unacked.lock().insert(seq, ship);
    }
    Ok(sending)
}

/// Armed world: collect the acks of `db`'s unacked batches, in the order
/// they were sent, through [`request`]'s wait, backoff and resend. An ack's
/// stamp merges into `migrate_backlog`, a failure goes to `io_errors`.
/// Whether there were any.
pub(crate) fn collect_acks(ctx: &CtxInner, db: &Arc<DbInner>) -> bool {
    let Some(plan) = ctx.faults() else { return false };
    let mut any = false;
    loop {
        let next = db.unacked.lock().pop_first();
        let Some((seq, ship)) = next else { return any };
        any = true;
        let (route, what) = ship.route();
        let encode = &mut |seq| ship.encode(db.id, seq);
        let acked = await_reply(ctx, db, plan, route, what, seq, encode);
        if let Err(e) = acked.map(|ack| db.migrate_backlog.merge(ack.stamp)) {
            db.io_errors.lock().push(e);
        }
    }
}

/// One request/reply exchange with another rank's message handler.
/// `encode` builds the payload around the sequence number the reply will
/// echo. Unarmed world: a plain blocking send + receive (sequence 0). Armed
/// world ([`CtxInner::faults`]): a fresh seq, then [`await_reply`]'s
/// bounded retry and failure detection. Retries are safe: PUT_SYNC /
/// MIGRATE / REPL_PUT re-apply the same records idempotently and GET_REQ
/// is read-only.
pub(crate) fn request(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    route: Route,
    what: &str,
    encode: &mut dyn FnMut(msg::RpcSeq) -> bytes::Bytes,
) -> Result<Message> {
    let (owner, req) = route;
    let reply = awaited(req)?;
    let Some(plan) = ctx.faults() else {
        ctx.comm_req.send(owner, req.tag(), encode(0));
        return Ok(ctx.comm_rep.recv(RecvSrc::Rank(owner), RecvTag::Tag(reply.tag())));
    };
    refuse_dead(ctx, db, owner)?;
    let seq = ctx.next_rpc_seq();
    ctx.comm_req.send(owner, req.tag(), encode(seq));
    await_reply(ctx, db, plan, route, what, seq, encode)
}

/// Armed world: wait for the reply to the request sent to `owner` under
/// `seq`. Per attempt: wait for a reply echoing the attempt's seq until none
/// can come — no other task of the world can run. A reply echoing another
/// seq is the ack of one of `db`'s unacked batches, collected here, or a
/// stale reply to a timed-out attempt, dropped. Then run a failure-detector
/// confirmation round against the owner — a confirmed-dead owner gets the
/// promotion check (DESIGN §11) and yields [`Error::RankUnavailable`] —
/// otherwise charge a deterministic virtual backoff and resend under a
/// fresh seq, up to [`RPC_MAX_ATTEMPTS`] attempts ([`Error::Timeout`] after
/// that).
fn await_reply(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    plan: &fi::FaultPlan,
    (owner, req): Route,
    what: &str,
    mut seq: msg::RpcSeq,
    encode: &mut dyn FnMut(msg::RpcSeq) -> bytes::Bytes,
) -> Result<Message> {
    let resp_tag = awaited(req)?.tag();
    let tel = &db.tel;
    let me = ctx.rank.rank();
    let mut backoff = fi::Backoff::new(
        fi::mix(me as u64, fi::mix(owner as u64, u64::from(req.tag()))),
        RPC_BACKOFF_BASE_NS,
        RPC_BACKOFF_CAP_NS,
    );
    let mut attempt = 1u32;
    loop {
        if plan.planted_bug() == Some(fi::PlantedBug::Hang) {
            // Planted bug (chaos `--seed-bug hang`): a blocking receive
            // where a deadline belongs. With the request black-holed this
            // never returns; the world's livelock verdict must catch it.
            let m = ctx.comm_rep.recv(RecvSrc::Rank(owner), RecvTag::Tag(resp_tag));
            return Ok(m);
        }
        let reply = loop {
            match ctx.comm_rep.recv_until_quiet(RecvSrc::Rank(owner), RecvTag::Tag(resp_tag)) {
                Some(m) if peek_seq(&m.payload) == Some(seq) => break Some(m),
                Some(other) => {
                    if peek_seq(&other.payload)
                        .is_some_and(|s| db.unacked.lock().remove(&s).is_some())
                    {
                        db.migrate_backlog.merge(other.stamp);
                    }
                }
                None => break None,
            }
        };
        if let Some(m) = reply {
            return Ok(m);
        }
        if tel.on() {
            tel.rpc_timeouts.inc();
        }
        if plan.planted_bug() == Some(fi::PlantedBug::LostAck) && req != Request::Get {
            // Planted bug (chaos `--seed-bug lost-ack`): treat the timeout
            // as success. The write was never applied; the soak oracle must
            // flag the acked-write loss.
            return Ok(Message {
                src: owner,
                tag: resp_tag,
                payload: msg::encode_ack(seq),
                stamp: ctx.clock().now(),
            });
        }
        // A rank past its own kill time hears no reply — its sends and the
        // replies to it vanish — so, as in a collective, it names itself.
        if plan.rank_dead(me, ctx.clock().now()) {
            return Err(Error::RankUnavailable(me));
        }
        if ctx.comm_rep.confirm_rank(owner) == RankStatus::Dead {
            crate::replica::maybe_promote(ctx, db, owner);
            return Err(Error::RankUnavailable(owner));
        }
        if attempt >= RPC_MAX_ATTEMPTS {
            return Err(Error::Timeout(format!("{what} to rank {owner} after {attempt} attempts")));
        }
        if tel.on() {
            tel.rpc_retries.inc();
        }
        let delay = backoff.next_delay();
        ctx.clock().advance(delay);
        if tel.on() {
            tel.backoff_ns.record(delay);
        }
        attempt += 1;
        seq = ctx.next_rpc_seq();
        ctx.comm_req.send(owner, req.tag(), encode(seq));
    }
}

/// The reply `req` is answered with; a one-way request awaits none.
fn awaited(req: Request) -> Result<Reply> {
    req.reply().ok_or_else(|| Error::Internal(format!("{req:?} is one-way: no reply to await")))
}

/// Per-rank PapyrusKV execution context (`papyruskv_init`).
///
/// `Context` is cheap to clone (shared handle). Every rank of the SPMD job
/// must create one (collective), and every rank must call
/// [`Context::finalize`] before the job ends.
#[derive(Clone)]
pub struct Context {
    pub(crate) inner: Arc<CtxInner>,
}

impl Context {
    /// Initialise the runtime on this rank with the system's default
    /// logical storage-group size. Collective.
    pub fn init(rank: RankCtx, platform: Arc<Platform>, repository: &str) -> Result<Context> {
        let sg = platform.profile.default_group_size(rank.size());
        Self::init_with_group(rank, platform, repository, sg)
    }

    /// Initialise with an explicit logical storage-group size
    /// (`PAPYRUSKV_GROUP_SIZE`; 1 disables the storage-group optimisation).
    /// Collective.
    pub fn init_with_group(
        rank: RankCtx,
        platform: Arc<Platform>,
        repository: &str,
        sg_size: usize,
    ) -> Result<Context> {
        if sg_size == 0 {
            return Err(Error::InvalidArgument("storage group size must be >= 1"));
        }
        if platform.n_ranks != rank.size() {
            return Err(Error::InvalidArgument("platform built for a different rank count"));
        }
        let repo = RepoRef::parse(repository)?;
        // Independent runtime communicators (§2.4) — collective creation.
        let world = rank.world();
        let comm_req = world.dup();
        let comm_rep = world.dup();
        let comm_ctl = world.dup();
        let comm_sig = world.dup();

        let store = match repo.kind {
            RepoKind::Nvm => platform.storage.nvm_of(rank.rank()),
            RepoKind::Pfs => platform.storage.pfs(),
        };
        let store = world_handle(&rank, store);
        let pfs = matches!(repo.kind, RepoKind::Pfs).then(|| store.clone());
        let inner = Arc::new(CtxInner {
            rank,
            platform,
            store,
            pfs: Mutex::new(pfs),
            repo,
            sg_size,
            comm_req,
            comm_rep,
            comm_ctl,
            comm_sig,
            dbs: Mutex::new(Vec::new()),
            compact_q: BlockingQueue::new(),
            migrate_q: BlockingQueue::new(),
            rpc_seq: AtomicU64::new(0),
            tasks: Mutex::new(Vec::new()),
            finalized: AtomicBool::new(false),
        });

        // Spawned in this order: a task's id breaks ties between equal
        // virtual clocks.
        let name = |what| format!("pkv-{what}-{}", inner.rank.rank());
        let tasks = vec![
            inner.rank.spawn_slices(name("compact"), compaction(inner.clone())),
            inner.rank.spawn_slices(name("dispatch"), dispatcher(inner.clone())),
            inner.rank.spawn_slices(name("handler"), handler(inner.clone())),
        ];
        *inner.tasks.lock() = tasks;
        Ok(Context { inner })
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.inner.rank.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.inner.rank.size()
    }

    /// The rank's virtual clock.
    pub fn clock(&self) -> &Clock {
        self.inner.clock()
    }

    /// The telemetry registry of this rank's world.
    pub fn telemetry(&self) -> &Arc<Registry> {
        self.inner.rank.fabric().telemetry()
    }

    /// Current virtual time on this rank.
    pub fn now(&self) -> SimNs {
        self.inner.clock().now()
    }

    /// `papyruskv_open`: open or create database `name`. Collective — every
    /// rank must call with the same name/flags. If SSTables for `name`
    /// already exist in the repository, the database is *composed* from them
    /// with empty MemTables, no communication and no file I/O beyond
    /// manifest reads: the §4.1 zero-copy workflow.
    pub fn open(&self, name: &str, flags: OpenFlags, opt: Options) -> Result<Db> {
        if self.inner.finalized.load(Ordering::Acquire) {
            return Err(Error::InvalidDb);
        }
        if name.is_empty() || name.contains('/') {
            return Err(Error::InvalidArgument("database name must be a non-empty path segment"));
        }
        let id = self.inner.dbs.lock().len() as u32;
        let db = DbInner::open(&self.inner, id, name, flags, opt)?;
        self.inner.dbs.lock().push(db.clone());
        // Collective: all ranks agree the db exists before any messages
        // referencing its id can fly.
        self.inner.comm_ctl.barrier();
        Ok(Db::new(self.inner.clone(), db))
    }

    /// A runtime-level collective barrier over all ranks (independent of any
    /// database). Useful for phase changes in coupled-application workflows.
    pub fn barrier_all(&self) {
        self.inner.comm_ctl.barrier();
    }

    /// `papyruskv_signal_notify`: send signal `signum` to `ranks`.
    pub fn signal_notify(&self, signum: u32, ranks: &[usize]) -> Result<()> {
        for &r in ranks {
            if r >= self.size() {
                return Err(Error::InvalidArgument("signal target out of range"));
            }
            self.inner.comm_sig.send(r, signum, bytes::Bytes::new());
        }
        Ok(())
    }

    /// `papyruskv_signal_wait`: block until `signum` arrives from every rank
    /// in `ranks`.
    pub fn signal_wait(&self, signum: u32, ranks: &[usize]) -> Result<()> {
        for &r in ranks {
            if r >= self.size() {
                return Err(Error::InvalidArgument("signal source out of range"));
            }
            self.inner.comm_sig.recv(RecvSrc::Rank(r), RecvTag::Tag(signum));
        }
        Ok(())
    }

    /// `papyruskv_finalize`: shut down the runtime on this rank. Collective.
    /// Open databases are closed (flushing their contents to SSTables).
    pub fn finalize(&self) -> Result<()> {
        if self.inner.finalized.swap(true, Ordering::AcqRel) {
            return Err(Error::InvalidDb);
        }
        // Close any still-open databases (collective, same order everywhere).
        let dbs: Vec<Arc<DbInner>> = self.inner.dbs.lock().clone();
        for db in dbs {
            let _ = crate::sync::close_inner(&self.inner, &db);
        }
        // Everyone must be done sending before handlers go away.
        self.inner.comm_ctl.barrier();
        // Stop own helper tasks.
        let me = self.rank();
        self.inner.comm_req.send(me, Request::Shutdown.tag(), bytes::Bytes::new());
        self.inner.compact_q.push(CompactJob::Shutdown);
        self.inner.migrate_q.push(MigrateJob::Shutdown);
        // Join every task, then report the first that panicked.
        let tasks = std::mem::take(&mut *self.inner.tasks.lock());
        let mut failed = None;
        for t in tasks {
            let name = t.name();
            if let (Err(why), None) = (t.join(), &failed) {
                let why = papyrus_mpi::panic_message(&*why);
                failed = Some(Error::Internal(format!("runtime task {name} panicked: {why}")));
            }
        }
        self.inner.comm_ctl.barrier();
        failed.map_or(Ok(()), Err)
    }
}

/// The compaction task (§2.4 "flushing", §2.5 "compaction", §4.2
/// checkpoint transfer), a run-to-completion task of the world: each slice
/// runs one job off the flushing queue. A job only does NVM I/O, which never
/// parks, and wakes at most one waiter, as its last step. A job taken after
/// a preemption point ended the slice waits in `held` for the next one.
fn compaction(ctx: Arc<CtxInner>) -> impl FnMut() -> Slice + Send {
    let mut held = None;
    move || {
        let Some(job) = held.take().or_else(|| ctx.compact_q.take()) else { return Slice::Parked };
        if Slice::yielded() {
            held = Some(job);
            return Slice::Ran;
        }
        match job {
            CompactJob::Flush { db, mt, stamp } => crate::write::run_flush(&ctx, &db, mt, stamp),
            CompactJob::Checkpoint { db, dest, snapshot, event, stamp } => {
                let (done, err) =
                    crate::ckpt::run_checkpoint_transfer(&ctx, &db, &dest, &snapshot, stamp);
                event.complete(done, err);
            }
            CompactJob::Shutdown => return Slice::Exit,
        }
        Slice::Ran
    }
}

/// The message dispatcher (§2.4 "migration"), a run-to-completion task of
/// the world: each slice takes one step of the job at the front of the
/// migration queue ([`Shipping`]). A job taken when a preemption point
/// ended the slice, or part-shipped, waits in `held` for the next one.
fn dispatcher(ctx: Arc<CtxInner>) -> impl FnMut() -> Slice + Send {
    let mut held = None;
    move || {
        let Some(job) = held.take().or_else(|| ctx.migrate_q.take()) else { return Slice::Parked };
        let MigrateJob::Ship(shipping) = job else { return Slice::Exit };
        if Slice::yielded() {
            held = Some(MigrateJob::Ship(shipping));
            return Slice::Ran;
        }
        held = shipping.step(&ctx).map(MigrateJob::Ship);
        Slice::Ran
    }
}

/// What the message handler began and has not finished, kept across its
/// slices. Each is served by a fn its request's arm calls too.
enum Work {
    /// A request taken off `comm_req`.
    Request(Message),
    /// A MIGRATE or PUT_SYNC part-ingested.
    Ingest(Ingesting),
    /// A REPL_GET past its promotion claim: the lookup and the reply.
    ReplLookup(ReplGet),
}

/// A MIGRATE or PUT_SYNC (`tag`) from `src`: its batch, then its ack under
/// `seq`.
struct Ingesting {
    batch: Ingest,
    src: usize,
    req: Request,
    seq: msg::RpcSeq,
}

/// A failover get (REPL_GET) from `src`, decoded once: the key of `origin`'s
/// ranges to look up in `db`, the reply's `seq`, the request's `stamp`.
struct ReplGet {
    db: Arc<DbInner>,
    origin: usize,
    seq: msg::RpcSeq,
    key: bytes::Bytes,
    src: usize,
    stamp: SimNs,
}

/// The message handler (§2.4, §2.6, §2.7), a run-to-completion task of the
/// world: each slice serves one unit of its work — a request taken off
/// `comm_req`, or what one left — and then takes the request its next slice
/// begins with, or enlists for one and parks. No unit parks: on whichever
/// task's thread hands the handler the baton, it would block that task.
/// What a unit leaves in `held` waits there for a flush-queue slot (its
/// slice `Parked`) or for the next slice, behind a preemption point that
/// ended this one.
fn handler(ctx: Arc<CtxInner>) -> impl FnMut() -> Slice + Send {
    let mut handler = Handler { ctx, held: None, clock: Clock::new(), dbs: Vec::new() };
    move || handler.slice()
}

/// The message handler's state across its slices.
struct Handler {
    ctx: Arc<CtxInner>,
    held: Option<Work>,
    /// The clock a get is served on, restarted at its request's stamp: no
    /// other task shares it.
    clock: Clock,
    /// This rank's databases by id, listed again only for an id past the
    /// list (one opened since): a request finds its database without
    /// `dbs`'s lock.
    dbs: Vec<Arc<DbInner>>,
}

impl Handler {
    fn slice(&mut self) -> Slice {
        let Some(work) = self.held.take().or_else(|| self.take()) else { return Slice::Parked };
        if Slice::yielded() {
            self.held = Some(work);
            return Slice::Ran;
        }
        let slice = self.serve(work);
        if slice != Slice::Ran || self.held.is_some() || Slice::yielded() {
            return slice;
        }
        // What the next slice would begin with, taken in this one: with no
        // request queued, the handler enlists and parks at the end of it.
        match self.take() {
            Some(work) => self.held = Some(work),
            None => return Slice::Parked,
        }
        Slice::Ran
    }

    /// The next request, or `None` with the handler enlisted for one.
    fn take(&self) -> Option<Work> {
        self.ctx.comm_req.take_unstamped(RecvSrc::Any, RecvTag::Any).map(Work::Request)
    }

    /// Database `id` of this rank.
    fn db(&mut self, id: u32) -> Result<&Arc<DbInner>> {
        listed(&self.ctx, &mut self.dbs, id)
    }

    /// Serve one unit of `work`: how its slice ends, what is left in `held`.
    fn serve(&mut self, work: Work) -> Slice {
        let (what, served) = match work {
            Work::Request(m) => match Request::from_tag(m.tag) {
                Ok(Request::Shutdown) => return Slice::Exit,
                Ok(req @ Request::Migrate) => ("migrate", self.begin_ingest(m, req)),
                Ok(req @ Request::PutSync) => ("put_sync", self.begin_ingest(m, req)),
                Ok(Request::Get) => ("get_req", self.get_req(&m)),
                Ok(Request::BarrierMark) => ("barrier_mark", self.barrier_mark(m)),
                Ok(Request::ReplPut) => ("repl_put", self.repl_put(m)),
                Ok(Request::ReplGet) => ("repl_get", self.repl_get(&m)),
                Err(e) => ("dispatch", Err(e)),
            },
            Work::Ingest(work) => return ingest(&self.ctx, work, &mut self.held),
            Work::ReplLookup(get) => ("repl_get", self.repl_lookup(get)),
        };
        served.unwrap_or_else(|e| {
            // Handler errors indicate wire corruption or internal bugs;
            // surface them loudly (they fail tests) without killing the
            // handler.
            eprintln!("papyruskv[rank {}] handler {what} error: {e}", self.ctx.rank.rank());
            Slice::Ran
        })
    }

    fn begin_ingest(&mut self, m: Message, req: Request) -> Result<Slice> {
        let decode =
            if req == Request::PutSync { msg::decode_put_sync } else { msg::decode_migrate };
        let (db_id, seq, records) = decode(m.payload)?;
        let batch = Ingest::new(self.db(db_id)?.clone(), records, m.stamp);
        let work = Ingesting { batch, src: m.src, req, seq };
        Ok(ingest(&self.ctx, work, &mut self.held))
    }

    /// A get, its key read in place in the request.
    fn get_req(&mut self, m: &Message) -> Result<Slice> {
        let (db_id, caller_group, seq, key) = msg::get_req_fields(&m.payload)?;
        let Handler { ctx, clock, dbs, .. } = self;
        let db = listed(ctx, dbs, db_id)?;
        let (reply, done) = crate::read::serve_get(db, "serve_get", clock, m.stamp, |clk| {
            crate::read::remote_get_reply(ctx, db, key, (caller_group, m.src), seq, clk)
        });
        ctx.comm_rep.send_at(m.src, Reply::GetResp.tag(), reply, done);
        Ok(Slice::Ran)
    }

    fn barrier_mark(&mut self, m: Message) -> Result<Slice> {
        let (db_id, epoch) = msg::decode_barrier_mark(m.payload)?;
        crate::sync::note_barrier_mark(self.db(db_id)?, epoch, m.stamp);
        Ok(Slice::Ran)
    }

    fn repl_put(&mut self, m: Message) -> Result<Slice> {
        let (db_id, origin, want_ack, seq, records) = msg::decode_repl_put(m.payload)?;
        let ctx = Arc::clone(&self.ctx);
        let db = self.db(db_id)?;
        let done =
            crate::replica::apply_replica_records(&ctx, db, origin as usize, &records, m.stamp);
        // The handler never blocks on other ranks here (replica ingest is
        // purely local), so synchronous writers awaiting this ack cannot
        // form a cross-rank handler cycle.
        if want_ack {
            ctx.comm_rep.send_at(m.src, Reply::ReplAck.tag(), msg::encode_ack(seq), done);
        }
        Ok(Slice::Ran)
    }

    fn repl_get(&mut self, m: &Message) -> Result<Slice> {
        let (db_id, origin, seq, key) = msg::get_req_fields(&m.payload)?;
        let key = m.payload.slice_ref(key);
        let db = Arc::clone(self.db(db_id)?);
        let get = ReplGet { db, origin: origin as usize, seq, key, src: m.src, stamp: m.stamp };
        // A failover get is proof a reader saw `origin` confirmed dead: if
        // this rank is origin's first live successor, claim the promotion
        // now. The claim may wake the dispatcher and the reply the reader,
        // so they are two units.
        crate::replica::maybe_promote(&self.ctx, &get.db, get.origin);
        if Slice::yielded() {
            self.held = Some(Work::ReplLookup(get));
            return Ok(Slice::Ran);
        }
        self.repl_lookup(get)
    }

    fn repl_lookup(&mut self, get: ReplGet) -> Result<Slice> {
        let ReplGet { db, origin, seq, key, src, stamp } = get;
        let (resp, done) =
            crate::read::serve_get(&db, "repl.serve_get", &self.clock, stamp, |clk| {
                crate::read::get_resp(crate::replica::replica_lookup(&db, origin, &key, clk))
            });
        let reply = msg::encode_get_resp(seq, &resp);
        self.ctx.comm_rep.send_at(src, Reply::ReplResp.tag(), reply, done);
        Ok(Slice::Ran)
    }
}

/// Database `id` of `ctx` in `dbs`, the handler's list, which is listed
/// again under `dbs`'s lock only for an id past it (one opened since).
fn listed<'a>(ctx: &CtxInner, dbs: &'a mut Vec<Arc<DbInner>>, id: u32) -> Result<&'a Arc<DbInner>> {
    if id as usize >= dbs.len() {
        dbs.clone_from(&ctx.dbs.lock());
    }
    dbs.get(id as usize).ok_or(Error::InvalidDb)
}

/// Ingest on; once every record is in, send the ack the request owes.
fn ingest(ctx: &CtxInner, mut work: Ingesting, held: &mut Option<Work>) -> Slice {
    let done = match work.batch.step(ctx) {
        Ok(done) => done,
        Err(slice) => {
            *held = Some(Work::Ingest(work));
            return slice;
        }
    };
    let Ingesting { src, req, seq, .. } = work;
    if req == Request::PutSync {
        // Acknowledge with the service-completion stamp; the caller blocks
        // on it ("the caller MPI rank halts its execution until ... the
        // completion of migration", §3.1).
        ctx.comm_rep.send_at(src, Reply::PutAck.tag(), msg::encode_ack(seq), done);
    } else if seq != 0 {
        // Sequence 0 is `send_batch`'s fire-and-forget; anything else is its
        // armed-world request, whose sender awaits this ack.
        ctx.comm_rep.send_at(src, Reply::MigrateAck.tag(), msg::encode_ack(seq), done);
    }
    Slice::Ran
}
