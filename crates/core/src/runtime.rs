//! The PapyrusKV runtime: per-rank execution context, background threads,
//! and the environment API (`papyruskv_init` / `papyruskv_finalize`).
//!
//! Per rank, the runtime owns (paper §2.4):
//!
//! * a **compaction thread** — dequeues immutable local MemTables from the
//!   flushing queue, writes SSTables, performs size-tiered merge
//!   compaction, and executes asynchronous checkpoint transfers;
//! * a **message dispatcher thread** — dequeues immutable remote MemTables
//!   from the migration queue, sorts their pairs by owner rank, and ships
//!   per-owner batches over the interconnect;
//! * a **message handler task** — services MIGRATE / PUT_SYNC / GET_REQ /
//!   BARRIER_MARK requests from other ranks "without remote MPI ranks'
//!   intervention". It runs to completion, one request a slice, on the
//!   thread of whichever task hands it the baton; an arm that can park
//!   ([`PARKING_ARMS`]) runs on its own thread.
//!
//! The runtime duplicates independent communicators at init so its internal
//! traffic never collides with application messages.

use std::sync::Arc;

// Protocol atomics go through the sanity facade (modelcheck-shimmed under
// `--cfg modelcheck`); see papyrus_sanity::atomic.
use papyrus_sanity::atomic::{AtomicBool, AtomicU64, Ordering};

use papyrus_faultinject as fi;
use papyrus_mpi::{Communicator, Message, RankCtx, RankStatus, RecvSrc, RecvTag, Slice, Task};
use papyrus_nvm::{NvmStore, StorageMap, SystemProfile};
use papyrus_simtime::{Clock, SimNs};
use parking_lot::{Condvar, Mutex};

use crate::db::{Db, DbInner};
use crate::error::{Error, Result};
use crate::memtable::MemTable;
use crate::msg::{self, tags};
use crate::options::{OpenFlags, Options};
use crate::queue::BlockingQueue;
use crate::sstable::SstReader;

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
    /// Platform for `n_ranks` ranks with the system's *physical* NVM sharing
    /// (ranks-per-node for local NVM, everyone for dedicated NVM).
    pub fn new(profile: SystemProfile, n_ranks: usize) -> Arc<Self> {
        let storage = StorageMap::with_default_groups(&profile, n_ranks);
        Arc::new(Self { profile, storage, n_ranks, repl: papyrus_replica::PromotionTable::new() })
    }

    /// Platform with an explicit physical sharing factor (tests).
    pub fn with_physical_groups(
        profile: SystemProfile,
        n_ranks: usize,
        group_size: usize,
    ) -> Arc<Self> {
        let storage = StorageMap::new(&profile, n_ranks, group_size);
        Arc::new(Self { profile, storage, n_ranks, repl: papyrus_replica::PromotionTable::new() })
    }

    /// Platform for a *new job* sharing the parallel file system of a
    /// previous one. This is how coupled applications in different jobs —
    /// possibly with different rank counts — hand snapshots to each other
    /// (paper Figure 5(b)-(c)): the NVM scratch is fresh, the PFS persists.
    pub fn new_job(profile: SystemProfile, n_ranks: usize, pfs_of: &Arc<Platform>) -> Arc<Self> {
        let group = profile.default_group_size(n_ranks);
        let storage = StorageMap::with_pfs(&profile, n_ranks, group, pfs_of.storage.pfs().clone());
        Arc::new(Self { profile, storage, n_ranks, repl: papyrus_replica::PromotionTable::new() })
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
/// checkpoint/restart/destroy; completed by the background thread that
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
        e.complete(stamp);
        e
    }

    pub(crate) fn complete(&self, stamp: SimNs) {
        let mut g = self.inner.done.lock();
        *g = Some((stamp, None));
        self.inner.cv.notify_all();
    }

    /// Complete the event with a typed failure (e.g. `StorageFull` from a
    /// checkpoint transfer that hit `ENOSPC`). `wait` still returns the
    /// stamp; `wait_result` surfaces the error.
    pub(crate) fn complete_err(&self, stamp: SimNs, err: Error) {
        let mut g = self.inner.done.lock();
        *g = Some((stamp, Some(err)));
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

/// Work items for the compaction thread.
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
    /// Terminate the thread (finalize).
    Shutdown,
}

/// Work items for the message dispatcher thread.
pub(crate) enum MigrateJob {
    /// Migrate an immutable remote MemTable to its owner ranks.
    Migrate { db: Arc<DbInner>, mt: Arc<MemTable>, stamp: SimNs },
    /// Copy a dead rank's promoted ranges to their new successor ranks so
    /// the ring returns to `R` copies (DESIGN §11). Queued by the rank that
    /// won the promotion claim; counted in `migration_inflight` so `fence`
    /// doubles as the re-replication drain point.
    Rereplicate { db: Arc<DbInner>, origin: usize, stamp: SimNs },
    /// Terminate the thread (finalize).
    Shutdown,
}

pub(crate) struct CtxInner {
    pub rank: RankCtx,
    pub platform: Arc<Platform>,
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
    /// RPC sequence numbers for this rank's outgoing requests (app thread
    /// and dispatcher thread share the space; replies echo the seq so stale
    /// replies from timed-out attempts are discarded).
    rpc_seq: AtomicU64,
    threads: Mutex<Vec<Task<()>>>,
    finalized: AtomicBool,
}

impl CtxInner {
    /// The fault plan this rank's world was armed with
    /// (`WorldConfig::with_faults`), if any.
    pub fn faults(&self) -> Option<&Arc<fi::FaultPlan>> {
        self.rank.fabric().faults()
    }

    /// The store backing `rank`'s repository objects, as a handle carrying
    /// this world's fault plan. The platform's stores keep no fault state:
    /// another world on the same platform gets its own handles.
    pub fn repo_store_for(&self, rank: usize) -> NvmStore {
        let store = match self.repo.kind {
            RepoKind::Nvm => self.platform.storage.nvm_of(rank),
            RepoKind::Pfs => self.platform.storage.pfs(),
        };
        store.with_faults(self.faults().cloned())
    }

    /// The parallel file system (checkpoint/restart target), as a handle
    /// carrying this world's fault plan.
    pub fn pfs(&self) -> NvmStore {
        self.platform.storage.pfs().with_faults(self.faults().cloned())
    }

    /// This rank's repository store.
    pub fn repo_store(&self) -> NvmStore {
        self.repo_store_for(self.rank.rank())
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

    pub fn db_by_id(&self, id: u32) -> Result<Arc<DbInner>> {
        self.dbs.lock().get(id as usize).cloned().ok_or(Error::InvalidDb)
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

/// A request's destination: (rank, request tag, reply tag).
pub(crate) type Route = (usize, u32, u32);

/// Ship one batch of records to another rank's handler as of `stamp`;
/// returns when it is (or will be) ingested there. Unarmed world:
/// fire-and-forget — sequence 0 asks for no ack and the result is the
/// arrival stamp. Armed world: a [`request`] whose ack carries the
/// ingest-completion stamp, so a black-holed batch is detected and resent.
pub(crate) fn send_batch(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    route: Route,
    what: &str,
    stamp: SimNs,
    encode: &mut dyn FnMut(msg::RpcSeq) -> bytes::Bytes,
) -> Result<SimNs> {
    if ctx.faults().is_none() {
        return Ok(ctx.comm_req.send_at(route.0, route.1, encode(0), stamp));
    }
    Ok(request(ctx, db, route, what, encode)?.stamp)
}

/// One request/reply exchange with another rank's message handler.
/// `encode` builds the payload around the sequence number the reply will
/// echo.
///
/// Unarmed world: a plain blocking send + receive (sequence 0). Armed
/// world ([`CtxInner::faults`]): bounded retry and failure detection. Per
/// attempt: send with a fresh seq, then wait for a reply echoing that seq
/// (stale replies from earlier attempts are discarded) until none can come
/// — no other task of the world can run. Then run a failure-detector
/// confirmation round against the owner — a confirmed-dead owner gets the
/// promotion check (DESIGN §11) and yields [`Error::RankUnavailable`] —
/// otherwise charge a deterministic virtual backoff and retry, up to
/// [`RPC_MAX_ATTEMPTS`] ([`Error::Timeout`] after that).
///
/// Retries are safe: PUT_SYNC / MIGRATE re-apply the same records
/// idempotently and GET_REQ is read-only.
pub(crate) fn request(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    (owner, req_tag, resp_tag): Route,
    what: &str,
    encode: &mut dyn FnMut(msg::RpcSeq) -> bytes::Bytes,
) -> Result<Message> {
    let Some(plan) = ctx.faults() else {
        ctx.comm_req.send(owner, req_tag, encode(0));
        return Ok(ctx.comm_rep.recv(RecvSrc::Rank(owner), RecvTag::Tag(resp_tag)));
    };
    // A death the failure detector confirmed is sticky: a request to a rank
    // it named fails at once, as a timed-out one would.
    if ctx.comm_rep.rank_known_dead(owner) {
        crate::replica::maybe_promote(ctx, db, owner);
        return Err(Error::RankUnavailable(owner));
    }
    let tel = &db.tel;
    let me = ctx.rank.rank();
    let mut backoff = fi::Backoff::new(
        fi::mix(me as u64, fi::mix(owner as u64, u64::from(req_tag))),
        RPC_BACKOFF_BASE_NS,
        RPC_BACKOFF_CAP_NS,
    );
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let seq = ctx.next_rpc_seq();
        ctx.comm_req.send(owner, req_tag, encode(seq));
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
                Some(_stale) => continue, // reply to a timed-out attempt
                None => break None,
            }
        };
        if let Some(m) = reply {
            return Ok(m);
        }
        if tel.on() {
            tel.rpc_timeouts.inc();
        }
        if plan.planted_bug() == Some(fi::PlantedBug::LostAck) && resp_tag != tags::GET_RESP {
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
    }
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

        let inner = Arc::new(CtxInner {
            rank,
            platform,
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
            threads: Mutex::new(Vec::new()),
            finalized: AtomicBool::new(false),
        });

        let helpers =
            [("compact", compaction_thread as fn(Arc<CtxInner>)), ("dispatch", dispatcher_thread)];
        let mut threads: Vec<Task<()>> = helpers
            .into_iter()
            .map(|(what, body)| {
                let ctx = inner.clone();
                inner.rank.spawn(format!("pkv-{what}-{}", inner.rank.rank()), move || body(ctx))
            })
            .collect();
        let handler = handler(inner.clone());
        threads
            .push(inner.rank.spawn_slices(format!("pkv-handler-{}", inner.rank.rank()), handler));
        *inner.threads.lock() = threads;
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
        // Stop own helper threads.
        let me = self.rank();
        self.inner.comm_req.send(me, tags::SHUTDOWN, bytes::Bytes::new());
        self.inner.compact_q.push(CompactJob::Shutdown);
        self.inner.migrate_q.push(MigrateJob::Shutdown);
        let threads = std::mem::take(&mut *self.inner.threads.lock());
        for t in threads {
            t.join().map_err(|_| Error::Internal("runtime thread panicked".into()))?;
        }
        self.inner.comm_ctl.barrier();
        Ok(())
    }
}

/// Compaction thread main loop (§2.4 "flushing", §2.5 "compaction",
/// §4.2 checkpoint transfer).
fn compaction_thread(ctx: Arc<CtxInner>) {
    loop {
        match ctx.compact_q.pop() {
            CompactJob::Flush { db, mt, stamp } => {
                crate::write::run_flush(&ctx, &db, mt, stamp);
            }
            CompactJob::Checkpoint { db, dest, snapshot, event, stamp } => {
                match crate::ckpt::run_checkpoint_transfer(&ctx, &db, &dest, &snapshot, stamp) {
                    Ok(done) => event.complete(done),
                    // Typed failure (ENOSPC on the PFS): recoverable — the
                    // snapshot's SSTables are untouched on NVM, so the
                    // caller can retry once space is reclaimed.
                    Err((done, e)) => event.complete_err(done, e),
                }
            }
            CompactJob::Shutdown => return,
        }
    }
}

/// Message dispatcher main loop (§2.4 "migration").
fn dispatcher_thread(ctx: Arc<CtxInner>) {
    loop {
        match ctx.migrate_q.pop() {
            MigrateJob::Migrate { db, mt, stamp } => {
                crate::write::run_migration(&ctx, &db, mt, stamp);
            }
            MigrateJob::Rereplicate { db, origin, stamp } => {
                crate::replica::run_rereplication(&ctx, &db, origin, stamp);
            }
            MigrateJob::Shutdown => return,
        }
    }
}

/// The request arms served on the handler's own thread. MIGRATE and
/// PUT_SYNC can park, on `write::freeze`'s wait for a queue slot. REPL_GET
/// cannot, but it can wake two tasks: `replica::maybe_promote` may wake the
/// dispatcher before the reply wakes the reader, and the dispatcher's key
/// can order first (a lower task id at an equal clock). On a lent thread
/// that first wake ends the slice (`Slice::yielded`) and the baton refuses
/// the second with a panic. Every other arm wakes at most one task, at its
/// end, and runs on whichever task's thread hands the handler the baton;
/// `lint --deep` proves none of them can park.
const PARKING_ARMS: &[u32] = &[tags::MIGRATE, tags::PUT_SYNC, tags::REPL_GET];

/// The message handler (§2.4, §2.6, §2.7), a run-to-completion task of the
/// world: each slice takes one request off `comm_req` and serves it. A
/// request it cannot serve where it runs — the slice yielded, or the arm
/// can park on a lent thread — waits for the next slice.
fn handler(ctx: Arc<CtxInner>) -> impl FnMut(bool) -> Slice + Send {
    let mut held: Option<Message> = None;
    move |lent| {
        let next = held.take().or_else(|| ctx.comm_req.take_unstamped(RecvSrc::Any, RecvTag::Any));
        let Some(m) = next else { return Slice::Parked };
        if Slice::yielded() || (lent && PARKING_ARMS.contains(&m.tag)) {
            held = Some(m);
            return if Slice::yielded() { Slice::Ran } else { Slice::OwnThread };
        }
        serve_request(&ctx, m)
    }
}

fn serve_request(ctx: &CtxInner, m: Message) -> Slice {
    let (what, served) = match m.tag {
        tags::SHUTDOWN => return Slice::Exit,
        tags::MIGRATE => ("migrate", handle_migrate(ctx, m.src, m.payload, m.stamp)),
        tags::PUT_SYNC => ("put_sync", handle_put_sync(ctx, m.src, m.payload, m.stamp)),
        tags::GET_REQ => ("get_req", handle_get_req(ctx, m.src, m.payload, m.stamp)),
        tags::BARRIER_MARK => ("barrier_mark", handle_barrier_mark(ctx, m.payload, m.stamp)),
        tags::REPL_PUT => ("repl_put", handle_repl_put(ctx, m.src, m.payload, m.stamp)),
        tags::REPL_GET => ("repl_get", handle_repl_get(ctx, m.src, m.payload, m.stamp)),
        other => ("dispatch", Err(Error::Internal(format!("unknown request tag {other}")))),
    };
    if let Err(e) = served {
        // Handler errors indicate wire corruption or internal bugs; surface
        // them loudly (they fail tests) without killing the handler.
        eprintln!("papyruskv[rank {}] handler {what} error: {e}", ctx.rank.rank());
    }
    Slice::Ran
}

fn handle_migrate(ctx: &CtxInner, src: usize, payload: bytes::Bytes, stamp: SimNs) -> Result<()> {
    let (db_id, seq, records) = msg::decode_migrate(payload)?;
    let db = ctx.db_by_id(db_id)?;
    let done = crate::write::apply_incoming_records(ctx, &db, &records, stamp);
    // Sequence 0 is `send_batch`'s fire-and-forget; anything else is its
    // armed-world request, whose sender awaits this ack.
    if seq != 0 {
        ctx.comm_rep.send_at(src, tags::MIGRATE_ACK, msg::encode_ack(seq), done);
    }
    Ok(())
}

fn handle_put_sync(ctx: &CtxInner, src: usize, payload: bytes::Bytes, stamp: SimNs) -> Result<()> {
    let (db_id, seq, record) = msg::decode_put_sync(payload)?;
    let db = ctx.db_by_id(db_id)?;
    let done = crate::write::apply_incoming_records(ctx, &db, &record, stamp);
    // Acknowledge with the service-completion stamp; the caller blocks on it
    // ("the caller MPI rank halts its execution until ... the completion of
    // migration", §3.1).
    ctx.comm_rep.send_at(src, tags::PUT_ACK, msg::encode_ack(seq), done);
    Ok(())
}

fn handle_get_req(ctx: &CtxInner, src: usize, payload: bytes::Bytes, stamp: SimNs) -> Result<()> {
    let (db_id, caller_group, seq, key) = msg::decode_get_req(payload)?;
    let db = ctx.db_by_id(db_id)?;
    let (resp, done) = crate::read::serve_get(&db, "serve_get", stamp, |clk| {
        crate::read::remote_get_reply(ctx, &db, &key, caller_group, src, clk)
    });
    ctx.comm_rep.send_at(src, tags::GET_RESP, msg::encode_get_resp(seq, &resp), done);
    Ok(())
}

fn handle_barrier_mark(ctx: &CtxInner, payload: bytes::Bytes, stamp: SimNs) -> Result<()> {
    let (db_id, epoch) = msg::decode_barrier_mark(payload)?;
    let db = ctx.db_by_id(db_id)?;
    crate::sync::note_barrier_mark(&db, epoch, stamp);
    Ok(())
}

fn handle_repl_put(ctx: &CtxInner, src: usize, payload: bytes::Bytes, stamp: SimNs) -> Result<()> {
    let (db_id, origin, want_ack, seq, records) = msg::decode_repl_put(payload)?;
    let db = ctx.db_by_id(db_id)?;
    let done = crate::replica::apply_replica_records(ctx, &db, origin as usize, &records, stamp);
    // The handler never blocks on other ranks here (replica ingest is
    // purely local), so synchronous writers awaiting this ack cannot form
    // a cross-rank handler cycle.
    if want_ack {
        ctx.comm_rep.send_at(src, tags::REPL_ACK, msg::encode_ack(seq), done);
    }
    Ok(())
}

fn handle_repl_get(ctx: &CtxInner, src: usize, payload: bytes::Bytes, stamp: SimNs) -> Result<()> {
    let (db_id, origin, seq, key) = msg::decode_get_req(payload)?;
    let db = ctx.db_by_id(db_id)?;
    // A failover get is proof a reader saw `origin` confirmed dead: if this
    // rank is origin's first live successor, claim the promotion now.
    crate::replica::maybe_promote(ctx, &db, origin as usize);
    let (resp, done) = crate::read::serve_get(&db, "repl.serve_get", stamp, |clk| {
        crate::read::get_resp(crate::replica::replica_lookup(&db, origin as usize, &key, clk))
    });
    ctx.comm_rep.send_at(src, tags::REPL_RESP, msg::encode_get_resp(seq, &resp), done);
    Ok(())
}
