//! One model execution: cooperative scheduling of real OS threads.
//!
//! Exactly one model thread runs at a time. Every shimmed synchronization
//! operation is a *scheduling point*: the thread announces the operation it
//! is about to perform, a scheduling decision picks which announced
//! operation executes next (replaying the explorer's chosen prefix, then
//! extending it), and only the granted thread proceeds. Because every
//! parked thread is parked *at* its next operation, the scheduler always
//! knows the full frontier of pending operations — which is what makes
//! DPOR-style conflict analysis (in `explore.rs`) possible.
//!
//! Threads are real `std::thread`s recycled through a process-global worker
//! pool (an execution costs two context switches per step instead of a
//! spawn per thread per interleaving). Outside an execution every shim
//! passes through to the underlying std primitive, so code compiled with
//! `--cfg modelcheck` still behaves normally when not under the explorer.
//!
//! Known state-space reductions (documented, deliberate): lock release,
//! condvar notify, and thread spawn are *immediate effects* (not decision
//! points) — sound for mutual-exclusion properties because they only
//! enable more operations, and the enabled operations are themselves
//! decision points. Timed condvar waits treat "timeout fires" as an
//! always-enabled choice, so the timeout path is explored eagerly.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::Location;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use crate::clock::VClock;

/// Hard ceiling on model threads per execution (keeps clocks small).
pub(crate) const MAX_THREADS: usize = 8;

// ---------------------------------------------------------------------------
// Violations
// ---------------------------------------------------------------------------

/// What kind of concurrency bug the explorer found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Two unordered accesses to the same non-atomic location, at least one
    /// a write: a C++11-style data race (e.g. a `Relaxed` store publishing
    /// data that needed `Release`).
    DataRace,
    /// Every unfinished thread was blocked: deadlock or lost wakeup.
    Deadlock,
    /// A model thread panicked (an assertion inside the model failed).
    Panic,
    /// An execution exceeded the step bound: livelock or an unbounded spin
    /// loop in the model.
    StepBound,
}

impl ViolationKind {
    /// Stable short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::DataRace => "data-race",
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::Panic => "panic",
            ViolationKind::StepBound => "step-bound",
        }
    }
}

/// One concurrency bug found by the explorer.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Bug category.
    pub kind: ViolationKind,
    /// Human-readable description naming the sites/threads involved.
    pub detail: String,
}

/// Panic payload used to unwind model threads when an execution is
/// abandoned (violation found): control flow, not itself a bug.
pub(crate) struct ExecAbort;

// ---------------------------------------------------------------------------
// Objects
// ---------------------------------------------------------------------------

/// Lock flavours for [`Pending::Lock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LockReq {
    Mutex,
    Read,
    Write,
}

/// Per-execution state of one shimmed object.
#[derive(Debug)]
pub(crate) enum ObjectState {
    Atomic {
        /// Clock published by the release-sequence head (cleared by a
        /// relaxed store, joined by RMWs).
        sync: VClock,
    },
    Lock {
        /// Exclusive holder (mutex or rwlock writer).
        writer: Option<usize>,
        /// Shared holders (rwlock readers).
        readers: Vec<usize>,
        /// Clock of the last exclusive release.
        write_sync: VClock,
        /// Join of all shared releases since the last exclusive release.
        read_sync: VClock,
    },
    Data {
        /// Last write: `(tid, epoch, site)`.
        last_write: Option<(usize, u64, &'static Location<'static>)>,
        /// Reads since the last write: `(tid, epoch, site)`.
        reads: Vec<(usize, u64, &'static Location<'static>)>,
    },
    Condvar {
        /// Parked waiters in arrival order (`notify_one` wakes FIFO).
        waiters: VecDeque<usize>,
    },
}

/// Identity cell embedded in every shim object: maps the object onto a
/// per-execution dense id, assigned on first touch. Ids are ephemeral —
/// they only need to be stable *within* one execution (the trace and the
/// conflict analysis never compare objects across executions).
#[derive(Debug)]
pub(crate) struct ObjTag {
    epoch: AtomicU64,
    id: AtomicU32,
}

impl ObjTag {
    pub(crate) const fn new() -> Self {
        Self { epoch: AtomicU64::new(0), id: AtomicU32::new(0) }
    }
}

/// Kind used when an [`ObjTag`] is first touched in an execution.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ObjKind {
    Atomic,
    Lock,
    Data,
    Condvar,
}

// ---------------------------------------------------------------------------
// Pending operations
// ---------------------------------------------------------------------------

/// The operation a thread is parked in front of. Enabledness of the whole
/// frontier drives each scheduling decision.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pending {
    /// First scheduling of a newly spawned thread.
    Begin,
    /// A shimmed atomic operation (`write` covers stores and RMWs).
    AtomicOp { obj: usize, write: bool },
    /// A tracked non-atomic access through the `UnsafeCell` shim.
    DataOp { obj: usize, write: bool },
    /// Blocking lock acquisition; enabled iff the lock admits `req`.
    Lock { obj: usize, req: LockReq },
    /// Condvar wait, phase 1: release the mutex and park.
    CondWait { cv: usize },
    /// Condvar wait, parked: disabled until notified; a timed wait stays
    /// enabled (scheduling it = the timeout firing).
    CondBlocked { cv: usize, mutex: usize, timed: bool },
    /// Join on another model thread; enabled once it finished.
    Join { target: usize },
    /// Pure yield (`yield_now` / `spin_loop`): no object, no conflict.
    Yield,
}

impl Pending {
    /// The object this operation touches and whether it writes it — the
    /// conflict relation for DPOR.
    pub(crate) fn access(&self) -> Option<(usize, bool)> {
        match *self {
            Pending::AtomicOp { obj, write } | Pending::DataOp { obj, write } => Some((obj, write)),
            Pending::Lock { obj, .. } => Some((obj, true)),
            Pending::CondWait { cv, .. } | Pending::CondBlocked { cv, .. } => Some((cv, true)),
            Pending::Begin | Pending::Join { .. } | Pending::Yield => None,
        }
    }

    fn describe(&self) -> &'static str {
        match self {
            Pending::Begin => "begin",
            Pending::AtomicOp { write: true, .. } => "atomic-write",
            Pending::AtomicOp { write: false, .. } => "atomic-read",
            Pending::DataOp { write: true, .. } => "data-write",
            Pending::DataOp { write: false, .. } => "data-read",
            Pending::Lock { .. } => "lock",
            Pending::CondWait { .. } => "cond-wait",
            Pending::CondBlocked { .. } => "cond-timeout",
            Pending::Join { .. } => "join",
            Pending::Yield => "yield",
        }
    }
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadStatus {
    Live,
    Finished,
}

pub(crate) struct ThreadState {
    pub(crate) status: ThreadStatus,
    pub(crate) pending: Option<(Pending, &'static Location<'static>)>,
    pub(crate) clock: VClock,
    /// Set when a timed condvar wait was scheduled as a timeout.
    timed_out: bool,
}

/// One recorded scheduling decision (the explorer turns these into its
/// DFS/backtrack stack).
#[derive(Debug, Clone)]
pub(crate) struct DecisionRec {
    /// Threads whose pending op was enabled, ascending.
    pub(crate) enabled: Vec<usize>,
    /// The thread whose op was executed.
    pub(crate) chosen: usize,
}

/// One executed step (1:1 with decisions) for conflict analysis and
/// schedule rendering.
#[derive(Debug, Clone)]
pub(crate) struct StepRec {
    pub(crate) tid: usize,
    /// Touched object and write-ness, if any.
    pub(crate) access: Option<(usize, bool)>,
    pub(crate) what: &'static str,
    pub(crate) site: &'static Location<'static>,
}

pub(crate) struct ExecState {
    /// Monotone id of this execution (object tags key off it).
    epoch: u64,
    threads: Vec<ThreadState>,
    objects: Vec<ObjectState>,
    /// Chosen-thread prefix to replay before extending.
    replay: Vec<usize>,
    /// Seeded RNG state for random-walk extension (`None` = DFS policy).
    rng: Option<u64>,
    decisions: Vec<DecisionRec>,
    trace: Vec<StepRec>,
    /// Thread currently allowed to run (`usize::MAX` = none yet).
    active: usize,
    /// The first violation found in this execution.
    violation: Option<Violation>,
    /// Set with `violation`: model threads unwind at their next park.
    poisoned: bool,
    /// All threads finished (the explorer's completion signal).
    done: bool,
    max_steps: usize,
    live_threads: usize,
    /// Join of the clocks of all SeqCst operations so far (models the
    /// single total order of SeqCst ops as synchronising — conservative).
    sc_clock: VClock,
}

pub(crate) struct ExecShared {
    mx: Mutex<ExecState>,
    cv: Condvar,
}

fn lock_state(shared: &ExecShared) -> MutexGuard<'_, ExecState> {
    shared.mx.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ExecState {
    /// Dense per-execution id for a shim object, assigning on first touch.
    fn obj_id(&mut self, tag: &ObjTag, kind: ObjKind) -> usize {
        // ordering: tags are only read/written under the execution state
        // lock (a single thread runs at a time); the atomics exist for
        // const-init and cross-execution reuse, not for unsynchronised
        // concurrent access.
        if tag.epoch.load(Ordering::Relaxed) != self.epoch {
            let id = self.objects.len() as u32;
            self.objects.push(match kind {
                ObjKind::Atomic => ObjectState::Atomic { sync: VClock::new() },
                ObjKind::Lock => ObjectState::Lock {
                    writer: None,
                    readers: Vec::new(),
                    write_sync: VClock::new(),
                    read_sync: VClock::new(),
                },
                ObjKind::Data => ObjectState::Data { last_write: None, reads: Vec::new() },
                ObjKind::Condvar => ObjectState::Condvar { waiters: VecDeque::new() },
            });
            // ordering: same single-threaded-under-lock regime as above.
            tag.id.store(id, Ordering::Relaxed);
            tag.epoch.store(self.epoch, Ordering::Relaxed);
        }
        // ordering: read back under the same state lock that wrote it.
        tag.id.load(Ordering::Relaxed) as usize
    }

    fn is_enabled(&self, tid: usize) -> bool {
        let t = &self.threads[tid];
        if t.status != ThreadStatus::Live {
            return false;
        }
        let Some((pending, _)) = t.pending else { return false };
        match pending {
            Pending::Begin
            | Pending::AtomicOp { .. }
            | Pending::DataOp { .. }
            | Pending::CondWait { .. }
            | Pending::Yield => true,
            Pending::Lock { obj, req } => match &self.objects[obj] {
                ObjectState::Lock { writer, readers, .. } => match req {
                    LockReq::Mutex | LockReq::Write => writer.is_none() && readers.is_empty(),
                    LockReq::Read => writer.is_none(),
                },
                _ => unreachable!("lock pending on non-lock object"),
            },
            Pending::CondBlocked { timed, .. } => timed,
            Pending::Join { target } => self.threads[target].status == ThreadStatus::Finished,
        }
    }

    fn enabled_set(&self) -> Vec<usize> {
        (0..self.threads.len()).filter(|&t| self.is_enabled(t)).collect()
    }

    fn record_violation(&mut self, kind: ViolationKind, detail: String) {
        if self.violation.is_none() {
            self.violation = Some(Violation { kind, detail });
        }
        self.poisoned = true;
    }

    /// DFS extension policy: keep the current thread running (fewest
    /// context switches) unless it just yielded or would fire a condvar
    /// timeout — those deprioritise so spin-wait models make progress and
    /// notify paths get explored first.
    fn dfs_pick(&self, cur: usize, enabled: &[usize]) -> usize {
        let deprioritised = |t: usize| {
            matches!(
                self.threads[t].pending,
                Some((Pending::Yield, _)) | Some((Pending::CondBlocked { .. }, _))
            )
        };
        if enabled.contains(&cur) && !deprioritised(cur) {
            return cur;
        }
        // Round-robin from cur+1 so yielding threads hand off; prefer
        // non-deprioritised ops.
        let n = self.threads.len();
        for off in 1..=n {
            let t = (cur.wrapping_add(off)) % n;
            if enabled.contains(&t) && !deprioritised(t) {
                return t;
            }
        }
        for off in 1..=n {
            let t = (cur.wrapping_add(off)) % n;
            if enabled.contains(&t) {
                return t;
            }
        }
        enabled[0]
    }

    /// Pick and grant the next operation. Called by the running thread at
    /// every scheduling point (after announcing its own pending op), by
    /// `finish_thread`, and once by the driver to start the execution.
    /// Wakes the granted thread via the shared condvar.
    fn decide(&mut self, cur: usize, cv: &Condvar) {
        if self.poisoned {
            // Abandon: wake everyone so parked threads can unwind.
            self.check_done();
            cv.notify_all();
            return;
        }
        let enabled = self.enabled_set();
        if enabled.is_empty() {
            if self.live_threads == 0 {
                self.done = true;
            } else {
                let stuck: Vec<String> = (0..self.threads.len())
                    .filter(|&t| self.threads[t].status == ThreadStatus::Live)
                    .map(|t| match self.threads[t].pending {
                        Some((p, site)) => format!("t{t} blocked at {} ({site})", p.describe()),
                        None => format!("t{t} (no pending op)"),
                    })
                    .collect();
                self.record_violation(
                    ViolationKind::Deadlock,
                    format!("all live threads blocked: {}", stuck.join("; ")),
                );
            }
            cv.notify_all();
            return;
        }
        if self.decisions.len() >= self.max_steps {
            self.record_violation(
                ViolationKind::StepBound,
                format!(
                    "execution exceeded {} steps (livelock or unbounded spin loop in model)",
                    self.max_steps
                ),
            );
            cv.notify_all();
            return;
        }
        let k = self.decisions.len();
        let chosen = if k < self.replay.len() {
            let c = self.replay[k];
            debug_assert!(
                enabled.contains(&c),
                "replay divergence at step {k}: t{c} not enabled in {enabled:?}"
            );
            c
        } else if let Some(rng) = self.rng.as_mut() {
            // splitmix64: deterministic per (seed, step).
            *rng = rng.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = *rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            enabled[(z % enabled.len() as u64) as usize]
        } else {
            self.dfs_pick(cur, &enabled)
        };
        let (pending, site) = self.threads[chosen].pending.expect("chosen thread has a pending op");
        self.decisions.push(DecisionRec { enabled, chosen });
        self.trace.push(StepRec {
            tid: chosen,
            access: pending.access(),
            what: pending.describe(),
            site,
        });
        self.active = chosen;
        if chosen != cur {
            cv.notify_all();
        }
    }

    fn check_done(&mut self) {
        if self.live_threads == 0 {
            self.done = true;
        }
    }

    /// Render the schedule that led here (for violation reports).
    fn render_schedule(&self) -> String {
        self.trace
            .iter()
            .map(|s| match s.access {
                Some((obj, _)) => format!("t{} {}#{obj} ({})", s.tid, s.what, s.site),
                None => format!("t{} {} ({})", s.tid, s.what, s.site),
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

// ---------------------------------------------------------------------------
// Worker pool (process-global; threads park on their channel between jobs)
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

fn pool_idle() -> &'static Mutex<Vec<Sender<Job>>> {
    static IDLE: OnceLock<Mutex<Vec<Sender<Job>>>> = OnceLock::new();
    IDLE.get_or_init(|| Mutex::new(Vec::new()))
}

fn dispatch(job: Job) {
    let worker = pool_idle().lock().unwrap_or_else(std::sync::PoisonError::into_inner).pop();
    match worker {
        Some(tx) => {
            if let Err(returned) = tx.send(job) {
                spawn_worker(returned.0);
            }
        }
        None => spawn_worker(job),
    }
}

fn spawn_worker(first: Job) {
    let (tx, rx) = channel::<Job>();
    std::thread::spawn(move || {
        let mut next = Some(first);
        loop {
            let job = match next.take() {
                Some(j) => j,
                None => match rx.recv() {
                    Ok(j) => j,
                    Err(_) => return,
                },
            };
            job();
            pool_idle().lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(tx.clone());
        }
    });
}

// ---------------------------------------------------------------------------
// Thread-local execution context
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Ctx {
    shared: Arc<ExecShared>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// Whether the calling thread is running inside a model execution.
pub(crate) fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

// ---------------------------------------------------------------------------
// Scheduling protocol
// ---------------------------------------------------------------------------

/// Park (state lock held on entry) until `tid` is the active thread;
/// unwinds with [`ExecAbort`] if the execution is abandoned meanwhile.
/// The state lock is *dropped* on return — the caller re-locks to run its
/// effect (safe: only the granted thread runs, nothing intervenes).
fn wait_granted_locked(shared: &Arc<ExecShared>, mut st: MutexGuard<'_, ExecState>, tid: usize) {
    loop {
        if st.poisoned {
            drop(st);
            std::panic::panic_any(ExecAbort);
        }
        if st.active == tid {
            return;
        }
        st = shared.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

/// Announce `op`, trigger a scheduling decision, park until granted, and
/// return the state guard ready for the operation's effect.
fn arrive_granted<'a>(
    shared: &'a Arc<ExecShared>,
    tid: usize,
    op: Pending,
    site: &'static Location<'static>,
) -> MutexGuard<'a, ExecState> {
    {
        let mut st = lock_state(shared);
        debug_assert_eq!(st.active, tid, "only the active thread reaches a scheduling point");
        st.threads[tid].pending = Some((op, site));
        st.decide(tid, &shared.cv);
        wait_granted_locked(shared, st, tid);
    }
    let st = lock_state(shared);
    debug_assert_eq!(st.active, tid);
    st
}

fn clear_pending(st: &mut ExecState, tid: usize) {
    st.threads[tid].pending = None;
}

// ---------------------------------------------------------------------------
// Happens-before application
// ---------------------------------------------------------------------------

/// Orderings condensed to their acquire/release halves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HbFlags {
    acquire: bool,
    release: bool,
    seq_cst: bool,
}

impl HbFlags {
    pub(crate) fn of(ord: Ordering) -> Self {
        match ord {
            // ordering: this table DEFINES the checker's semantics for each
            // strength; the patterns themselves synchronise nothing.
            Ordering::Relaxed => Self { acquire: false, release: false, seq_cst: false },
            Ordering::Acquire => Self { acquire: true, release: false, seq_cst: false },
            Ordering::Release => Self { acquire: false, release: true, seq_cst: false },
            Ordering::AcqRel => Self { acquire: true, release: true, seq_cst: false },
            // Ordering is #[non_exhaustive]; treat unknown orderings like
            // SeqCst (strongest known).
            _ => Self { acquire: true, release: true, seq_cst: true },
        }
    }
}

/// Apply the HB rules of one atomic operation. `load`/`store` carry the
/// operation's halves: plain load = `(Some, None)`, plain store =
/// `(None, Some)`, RMW = both.
fn apply_atomic_hb(
    st: &mut ExecState,
    tid: usize,
    obj: usize,
    load: Option<HbFlags>,
    store: Option<HbFlags>,
) {
    st.threads[tid].clock.tick(tid);
    let seq_cst =
        load.map(|f| f.seq_cst).unwrap_or(false) || store.map(|f| f.seq_cst).unwrap_or(false);
    if seq_cst {
        // All SeqCst operations participate in one total order; modelling
        // that order as synchronising is conservative (it can hide races
        // *between two SeqCst accesses*, which are not races anyway) and
        // avoids false positives on SeqCst-published data.
        let sc = st.sc_clock.clone();
        st.threads[tid].clock.join(&sc);
    }
    // Acquire half first, so a release/RMW publishes a clock that already
    // includes what this operation acquired.
    if load.map(|f| f.acquire).unwrap_or(false) {
        let acquired = match &st.objects[obj] {
            ObjectState::Atomic { sync } => sync.clone(),
            _ => unreachable!("atomic op on non-atomic object"),
        };
        st.threads[tid].clock.join(&acquired);
    }
    if let Some(f) = store {
        let tclock = st.threads[tid].clock.clone();
        let is_rmw = load.is_some();
        let ObjectState::Atomic { sync } = &mut st.objects[obj] else {
            unreachable!("atomic op on non-atomic object")
        };
        if f.release {
            if is_rmw {
                // An RMW continues the release sequence: join, don't replace.
                sync.join(&tclock);
            } else {
                *sync = tclock;
            }
        } else if !is_rmw {
            // A relaxed plain store breaks the release chain: later acquire
            // loads of this value must not synchronise with older releases.
            sync.clear();
        }
        // A relaxed RMW leaves the release-sequence clock intact (release
        // sequences include RMWs by any thread).
    }
    if seq_cst {
        let tclock = st.threads[tid].clock.clone();
        st.sc_clock.join(&tclock);
    }
}

// ---------------------------------------------------------------------------
// Shim entry points
// ---------------------------------------------------------------------------

/// A shimmed atomic operation. `f` performs the real memory operation
/// (serialized by the scheduler, or run immediately outside a model).
pub(crate) fn atomic_op<R>(
    tag: &ObjTag,
    write: bool,
    site: &'static Location<'static>,
    load: Option<HbFlags>,
    store: Option<HbFlags>,
    f: impl FnOnce() -> R,
) -> R {
    let Some(c) = ctx() else { return f() };
    let obj = {
        let mut st = lock_state(&c.shared);
        st.obj_id(tag, ObjKind::Atomic)
    };
    let mut st = arrive_granted(&c.shared, c.tid, Pending::AtomicOp { obj, write }, site);
    let r = f();
    apply_atomic_hb(&mut st, c.tid, obj, load, store);
    clear_pending(&mut st, c.tid);
    r
}

/// A shimmed compare-exchange: HB flags depend on whether it succeeded.
pub(crate) fn atomic_cas<T>(
    tag: &ObjTag,
    site: &'static Location<'static>,
    success: Ordering,
    failure: Ordering,
    f: impl FnOnce() -> Result<T, T>,
) -> Result<T, T> {
    let Some(c) = ctx() else { return f() };
    let obj = {
        let mut st = lock_state(&c.shared);
        st.obj_id(tag, ObjKind::Atomic)
    };
    let mut st = arrive_granted(&c.shared, c.tid, Pending::AtomicOp { obj, write: true }, site);
    let r = f();
    match &r {
        Ok(_) => apply_atomic_hb(
            &mut st,
            c.tid,
            obj,
            Some(HbFlags::of(success)),
            Some(HbFlags::of(success)),
        ),
        Err(_) => apply_atomic_hb(&mut st, c.tid, obj, Some(HbFlags::of(failure)), None),
    }
    clear_pending(&mut st, c.tid);
    r
}

/// A tracked non-atomic access (the `UnsafeCell` shim): checks for data
/// races against every unordered prior access, FastTrack-style.
pub(crate) fn data_op(tag: &ObjTag, write: bool, site: &'static Location<'static>) {
    let Some(c) = ctx() else { return };
    let obj = {
        let mut st = lock_state(&c.shared);
        st.obj_id(tag, ObjKind::Data)
    };
    let mut st = arrive_granted(&c.shared, c.tid, Pending::DataOp { obj, write }, site);
    let epoch = st.threads[c.tid].clock.tick(c.tid);
    let clock = st.threads[c.tid].clock.clone();
    let mut race: Option<String> = None;
    {
        let ObjectState::Data { last_write, reads } = &mut st.objects[obj] else {
            unreachable!("data op on non-data object")
        };
        if let Some((wt, we, wsite)) = *last_write {
            if wt != c.tid && clock.get(wt) < we {
                race = Some(format!(
                    "{} at {site} (t{}) races with write at {wsite} (t{wt})",
                    if write { "write" } else { "read" },
                    c.tid
                ));
            }
        }
        if write && race.is_none() {
            for &(rt, re, rsite) in reads.iter() {
                if rt != c.tid && clock.get(rt) < re {
                    race = Some(format!(
                        "write at {site} (t{}) races with read at {rsite} (t{rt})",
                        c.tid
                    ));
                    break;
                }
            }
        }
        if write {
            *last_write = Some((c.tid, epoch, site));
            reads.clear();
        } else {
            reads.retain(|&(rt, _, _)| rt != c.tid);
            reads.push((c.tid, epoch, site));
        }
    }
    if let Some(detail) = race {
        st.record_violation(ViolationKind::DataRace, detail);
        st.check_done();
        c.shared.cv.notify_all();
        drop(st);
        std::panic::panic_any(ExecAbort);
    }
    clear_pending(&mut st, c.tid);
}

/// Blocking lock acquisition (mutex lock, rwlock read/write). Returns
/// `true` if the calling thread is inside a model execution (the caller
/// then tags its guard so the drop releases the model lock too).
pub(crate) fn lock_acquire(tag: &ObjTag, req: LockReq, site: &'static Location<'static>) -> bool {
    let Some(c) = ctx() else { return false };
    let obj = {
        let mut st = lock_state(&c.shared);
        st.obj_id(tag, ObjKind::Lock)
    };
    let mut st = arrive_granted(&c.shared, c.tid, Pending::Lock { obj, req }, site);
    lock_effect(&mut st, c.tid, obj, req);
    clear_pending(&mut st, c.tid);
    true
}

fn lock_effect(st: &mut ExecState, tid: usize, obj: usize, req: LockReq) {
    st.threads[tid].clock.tick(tid);
    let mut acq = VClock::new();
    {
        let ObjectState::Lock { writer, readers, write_sync, read_sync } = &mut st.objects[obj]
        else {
            unreachable!("lock op on non-lock object")
        };
        match req {
            LockReq::Mutex | LockReq::Write => {
                debug_assert!(writer.is_none() && readers.is_empty(), "model granted a held lock");
                *writer = Some(tid);
                acq.join(write_sync);
                acq.join(read_sync);
            }
            LockReq::Read => {
                debug_assert!(writer.is_none(), "model granted a write-held lock to a reader");
                readers.push(tid);
                acq.join(write_sync);
            }
        }
    }
    st.threads[tid].clock.join(&acq);
}

/// Lock release: an immediate effect (no scheduling decision — the next
/// decision sees the lock free, which is equivalent up to commutation
/// with the release itself).
pub(crate) fn lock_release(tag: &ObjTag, req: LockReq) {
    let Some(c) = ctx() else { return };
    let mut st = lock_state(&c.shared);
    if st.done || st.poisoned {
        return;
    }
    let obj = st.obj_id(tag, ObjKind::Lock);
    st.threads[c.tid].clock.tick(c.tid);
    let clock = st.threads[c.tid].clock.clone();
    let ObjectState::Lock { writer, readers, write_sync, read_sync } = &mut st.objects[obj] else {
        unreachable!("unlock on non-lock object")
    };
    match req {
        LockReq::Mutex | LockReq::Write => {
            debug_assert_eq!(*writer, Some(c.tid), "unlock by non-holder");
            *writer = None;
            *write_sync = clock;
            read_sync.clear();
        }
        LockReq::Read => {
            readers.retain(|&r| r != c.tid);
            read_sync.join(&clock);
        }
    }
}

/// Condvar wait, phase 1, called with the shim's std guard still held:
/// releases the mutex on the model side, registers as a waiter, and hands
/// the schedule off. The shim then drops its std guard and calls
/// [`condvar_wait_finish`]. Returns `false` outside a model (the shim
/// falls back to the std condvar).
pub(crate) fn condvar_wait_begin(
    cv_tag: &ObjTag,
    mx_tag: &ObjTag,
    timed: bool,
    site: &'static Location<'static>,
) -> bool {
    let Some(c) = ctx() else { return false };
    let (cv_obj, mx_obj) = {
        let mut st = lock_state(&c.shared);
        (st.obj_id(cv_tag, ObjKind::Condvar), st.obj_id(mx_tag, ObjKind::Lock))
    };
    let mut st = arrive_granted(&c.shared, c.tid, Pending::CondWait { cv: cv_obj }, site);
    st.threads[c.tid].clock.tick(c.tid);
    let clock = st.threads[c.tid].clock.clone();
    {
        let ObjectState::Lock { writer, write_sync, read_sync, .. } = &mut st.objects[mx_obj]
        else {
            unreachable!("condvar wait on non-lock mutex")
        };
        debug_assert_eq!(*writer, Some(c.tid), "condvar wait without holding the mutex");
        *writer = None;
        *write_sync = clock;
        read_sync.clear();
    }
    {
        let ObjectState::Condvar { waiters } = &mut st.objects[cv_obj] else {
            unreachable!("condvar wait on non-condvar object")
        };
        waiters.push_back(c.tid);
    }
    st.threads[c.tid].timed_out = false;
    st.threads[c.tid].pending =
        Some((Pending::CondBlocked { cv: cv_obj, mutex: mx_obj, timed }, site));
    st.decide(c.tid, &c.shared.cv);
    drop(st);
    true
}

/// Condvar wait, phase 2: park until woken (notify rewrites the pending op
/// to a lock re-acquisition; a timed wait may instead be scheduled as a
/// timeout), then re-acquire the mutex in the model. The shim re-acquires
/// the std lock afterwards (guaranteed uncontended: the model granted it).
/// Returns `timed_out`.
pub(crate) fn condvar_wait_finish(site: &'static Location<'static>) -> bool {
    let c = ctx().expect("condvar_wait_finish outside a model execution");
    loop {
        let st = lock_state(&c.shared);
        wait_granted_locked(&c.shared, st, c.tid);
        let mut st = lock_state(&c.shared);
        let (pending, _) = st.threads[c.tid].pending.expect("parked thread keeps a pending op");
        match pending {
            Pending::CondBlocked { cv, mutex, .. } => {
                // Scheduled while still parked: the timeout fires. Convert
                // to a pending lock re-acquisition and hand off again.
                st.threads[c.tid].timed_out = true;
                {
                    let ObjectState::Condvar { waiters } = &mut st.objects[cv] else {
                        unreachable!("condvar timeout on non-condvar object")
                    };
                    waiters.retain(|&w| w != c.tid);
                }
                st.threads[c.tid].clock.tick(c.tid);
                st.threads[c.tid].pending =
                    Some((Pending::Lock { obj: mutex, req: LockReq::Mutex }, site));
                st.decide(c.tid, &c.shared.cv);
            }
            Pending::Lock { obj, req } => {
                lock_effect(&mut st, c.tid, obj, req);
                let timed_out = st.threads[c.tid].timed_out;
                st.threads[c.tid].timed_out = false;
                clear_pending(&mut st, c.tid);
                return timed_out;
            }
            other => unreachable!("condvar waiter woke with pending {other:?}"),
        }
    }
}

/// Notify: an immediate effect (like unlock). Woken waiters' pending ops
/// become lock re-acquisitions, so they re-enter the enabled set.
pub(crate) fn condvar_notify(tag: &ObjTag, all: bool) {
    let Some(c) = ctx() else { return };
    let mut st = lock_state(&c.shared);
    if st.done || st.poisoned {
        return;
    }
    let obj = st.obj_id(tag, ObjKind::Condvar);
    st.threads[c.tid].clock.tick(c.tid);
    let to_wake: Vec<usize> = {
        let ObjectState::Condvar { waiters } = &mut st.objects[obj] else {
            unreachable!("notify on non-condvar object")
        };
        if all {
            waiters.drain(..).collect()
        } else {
            waiters.pop_front().into_iter().collect()
        }
    };
    for w in to_wake {
        let Some((Pending::CondBlocked { mutex, .. }, wsite)) = st.threads[w].pending else {
            unreachable!("condvar waiter without a CondBlocked pending op")
        };
        st.threads[w].pending = Some((Pending::Lock { obj: mutex, req: LockReq::Mutex }, wsite));
    }
}

/// Spawn a model thread: immediate effect (the child becomes schedulable
/// at the next decision). Returns the child's model tid, or `None` outside
/// a model (the shim falls back to `std::thread::spawn`).
#[track_caller]
pub(crate) fn spawn_thread(body: Box<dyn FnOnce() + Send + 'static>) -> Option<usize> {
    let c = ctx()?;
    let site = Location::caller();
    let tid = {
        let mut st = lock_state(&c.shared);
        assert!(st.threads.len() < MAX_THREADS, "model spawned more than {MAX_THREADS} threads");
        let tid = st.threads.len();
        st.threads[c.tid].clock.tick(c.tid);
        let mut clock = st.threads[c.tid].clock.clone();
        clock.tick(tid);
        st.threads.push(ThreadState {
            status: ThreadStatus::Live,
            pending: Some((Pending::Begin, site)),
            clock,
            timed_out: false,
        });
        st.live_threads += 1;
        tid
    };
    let shared = Arc::clone(&c.shared);
    dispatch(Box::new(move || run_model_thread(shared, tid, body)));
    Some(tid)
}

/// Join: blocks until the target thread finished; merges its clock.
pub(crate) fn join_thread(target: usize, site: &'static Location<'static>) {
    let c = ctx().expect("model JoinHandle joined outside its execution");
    let mut st = arrive_granted(&c.shared, c.tid, Pending::Join { target }, site);
    st.threads[c.tid].clock.tick(c.tid);
    let tclock = st.threads[target].clock.clone();
    st.threads[c.tid].clock.join(&tclock);
    clear_pending(&mut st, c.tid);
}

/// Pure scheduling point (`yield_now`, `spin_loop`).
pub(crate) fn yield_point(site: &'static Location<'static>) {
    let Some(c) = ctx() else { return };
    let mut st = arrive_granted(&c.shared, c.tid, Pending::Yield, site);
    st.threads[c.tid].clock.tick(c.tid);
    clear_pending(&mut st, c.tid);
}

// ---------------------------------------------------------------------------
// Thread lifecycle
// ---------------------------------------------------------------------------

fn run_model_thread(shared: Arc<ExecShared>, tid: usize, body: Box<dyn FnOnce() + Send>) {
    CTX.with(|c| *c.borrow_mut() = Some(Ctx { shared: Arc::clone(&shared), tid }));
    // Park until the Begin op is granted.
    let begin = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let st = lock_state(&shared);
        wait_granted_locked(&shared, st, tid);
        let mut st = lock_state(&shared);
        st.threads[tid].clock.tick(tid);
        clear_pending(&mut st, tid);
    }));
    let result = match begin {
        Ok(()) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)),
        Err(e) => Err(e),
    };
    CTX.with(|c| *c.borrow_mut() = None);
    finish_thread(&shared, tid, result);
}

fn finish_thread(
    shared: &Arc<ExecShared>,
    tid: usize,
    result: Result<(), Box<dyn std::any::Any + Send>>,
) {
    let mut st = lock_state(shared);
    st.threads[tid].status = ThreadStatus::Finished;
    st.threads[tid].pending = None;
    st.live_threads -= 1;
    if let Err(payload) = result {
        if payload.downcast_ref::<ExecAbort>().is_none() {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "model thread panicked".to_string());
            st.record_violation(ViolationKind::Panic, format!("t{tid} panicked: {msg}"));
        }
    }
    if st.poisoned {
        st.check_done();
        shared.cv.notify_all();
    } else {
        st.decide(tid, &shared.cv);
    }
}

// ---------------------------------------------------------------------------
// Execution driver (called by explore.rs)
// ---------------------------------------------------------------------------

/// Everything the explorer needs from a finished execution.
pub(crate) struct ExecOutcome {
    pub(crate) decisions: Vec<DecisionRec>,
    pub(crate) trace: Vec<StepRec>,
    pub(crate) violation: Option<Violation>,
    pub(crate) schedule: String,
}

/// Monotone execution counter (object-tag epochs key off it; 0 is the
/// "never in an execution" sentinel every fresh tag starts at).
static EXEC_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Run `f` once under the scheduler, replaying `replay` and extending per
/// `rng` (random walk) or the DFS policy. Blocks until every model thread
/// finished.
pub(crate) fn run_once(
    f: &Arc<dyn Fn() + Send + Sync>,
    replay: Vec<usize>,
    rng: Option<u64>,
    max_steps: usize,
) -> ExecOutcome {
    // ordering: a plain unique-id counter; threads never synchronise
    // through it.
    let epoch = EXEC_EPOCH.fetch_add(1, Ordering::Relaxed);
    let mut root_clock = VClock::new();
    root_clock.tick(0);
    let shared = Arc::new(ExecShared {
        mx: Mutex::new(ExecState {
            epoch,
            threads: vec![ThreadState {
                status: ThreadStatus::Live,
                pending: Some((Pending::Begin, Location::caller())),
                clock: root_clock,
                timed_out: false,
            }],
            objects: Vec::new(),
            replay,
            rng,
            decisions: Vec::new(),
            trace: Vec::new(),
            active: usize::MAX,
            violation: None,
            poisoned: false,
            done: false,
            max_steps,
            live_threads: 1,
            sc_clock: VClock::new(),
        }),
        cv: Condvar::new(),
    });
    let shared2 = Arc::clone(&shared);
    let f2 = Arc::clone(f);
    dispatch(Box::new(move || run_model_thread(shared2, 0, Box::new(move || f2()))));
    // Kick off: the first decision is made by the driver.
    {
        let mut st = lock_state(&shared);
        st.decide(usize::MAX, &shared.cv);
    }
    let mut st = lock_state(&shared);
    while !st.done {
        st = shared.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    let schedule = st.render_schedule();
    ExecOutcome {
        decisions: std::mem::take(&mut st.decisions),
        trace: std::mem::take(&mut st.trace),
        violation: st.violation.take(),
        schedule,
    }
}

/// Install (once, process-wide) a panic hook that silences panics inside
/// model threads: aborts are control flow, and assertion failures are
/// converted to [`ViolationKind::Panic`] violations and reported with a
/// schedule by the explorer.
pub(crate) fn init_panic_hook() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ExecAbort>().is_some() || in_model() {
                return;
            }
            prev(info);
        }));
    });
}
