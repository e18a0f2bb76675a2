//! # papyrus-baton
//!
//! The world scheduler: one task of a world runs at a time.
//!
//! A [`Baton`] owns the tasks of one simulated world — each rank's thread
//! and the helpers it spawns. Only the task holding the baton runs. The
//! baton changes hands only at points fixed by the program, never by host
//! timing:
//!
//! - **park points** — a `parking_lot` condvar wait ([`WaitList`]), a
//!   [`Task::join`], and task exit. The parking task hands the baton to the
//!   runnable task that orders first by `(virtual clock, rank, task id)`:
//!   smallest clock first, the conservative parallel-discrete-event rule.
//! - **preemption points** — a task woken with an earlier key than its
//!   waker's runs at the waker's next step that holds no lock: the release
//!   of the waker's last `parking_lot` guard ([`Held`]; its park, if that
//!   comes first, hands over anyway). Handing over under a lock would leave
//!   the next runner blocked natively on it.
//!
//! So a task parks holding no `parking_lot` guard but the one its wait lets
//! go of (a condvar's mutex), and a lock of a world is never contended: a
//! park under any other guard is refused with a panic naming the task and
//! its site — the task granted next could block on that lock outside the
//! scheduler, where no verdict sees it. The refusal is the only check of
//! this rule; nothing proves it statically. For the same reason a
//! thread may not take a lock it already holds, read after read included
//! (std documents that a re-entrant `read` may deadlock): [`Held`] keeps the
//! locks the thread holds with the sites that took them, and refuses the
//! second acquire, before it blocks, with a panic naming the task, the lock
//! and both sites.
//!
//! A task's virtual clock is its rank's clock when it was spawned with one
//! (the rank threads); a helper's is the clock of whoever last woke it —
//! when the compaction task is handed a flush at `t`, it runs at `t`.
//!
//! A task is one of two kinds. A *thread task* ([`Baton::spawn`]) is an OS
//! thread that blocks at its park points. A *run-to-completion task*
//! ([`Baton::spawn_slices`]) has no thread: it runs in slices, one unit of
//! work each, and parks between them without blocking
//! ([`WaitList::enlist`]). It is granted the baton only by a task about to
//! wait — at its park, its preemption point or its exit — and the granting
//! thread runs the slice itself, as that task, and then carries on its
//! hand-off: the tasks are granted in the order they would be were the task
//! a thread, and no OS thread is woken. On a thread lent this way:
//!
//! - a preemption point that hands the baton on ends the slice instead of
//!   blocking it: the slice starts no further unit ([`Slice::yielded`]),
//!   and its task is runnable behind the task it woke once it returns.
//!   What the slice still does before returning must touch no other task;
//!   waking one is refused.
//! - a park is a bug, refused with a panic naming the task and its site: a
//!   unit that must wait enlists and ends its slice instead.
//!
//! A timed wait reports "timed out" only when no task of the world is
//! runnable. While a task spawned from outside the world (a rank) is
//! parked, the world can never move again in two cases, and every parked
//! task unwinds with a [`Verdict`] naming each parked task and the
//! `#[track_caller]` site it parked at:
//!
//! - **deadlock** — nothing is runnable and nobody waits timed;
//! - **livelock** — only timed waiters are left, and timing them out
//!   changes nothing: since the world last woke a task, each has timed out
//!   at a clock past the world's fault horizon (the plan's last event; 0
//!   unarmed), where no probe's answer can change any more, and parked
//!   again at the site where it timed out.
//!
//! (Helpers left parked by ranks that returned stay parked.)
//!
//! Outside a world every hook is a thread-local check.

// The scheduler's own state lives on OS primitives: the `parking_lot` shim,
// the lock a world's tasks use, is built on this crate.
#![allow(clippy::disallowed_types, reason = "the scheduler under the shim uses std locks")]

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe, Location};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{JoinHandle, Thread};

/// A task's virtual clock, read live (a rank's clock).
pub type ClockFn = Box<dyn Fn() -> u64 + Send + Sync>;

type Payload = Box<dyn Any + Send>;
type Site = &'static Location<'static>;
/// A run-to-completion task's body: one slice per call.
type SliceFn = Box<dyn FnMut() -> Slice + Send>;

/// What one slice of a run-to-completion task did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    /// Ran one unit of work — or kept it, because the task yielded
    /// ([`Slice::yielded`]).
    Ran,
    /// Enlisted the task on a wait list ([`WaitList::enlist`]).
    Parked,
    /// The task is finished.
    Exit,
}

impl Slice {
    /// Whether the slice running here, on another task's thread, passed a
    /// preemption point that hands the baton on: it must start no further
    /// unit — keep it for its next slice — and return.
    pub fn yielded() -> bool {
        INLINE.get() == Inline::Yielded
    }
}

/// How a world's grants were carried out ([`Baton::grants`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Grants {
    /// Run on the granting thread: a run-to-completion task's slices, or
    /// the granting task itself.
    pub inline: u64,
    /// Handed to another task's OS thread, which is woken.
    pub handed: u64,
    /// Given to a timed waiter because nothing was runnable.
    pub timed_out: u64,
}

/// Why a world can never move again (see the module docs): the panic
/// payload every task parked in it unwinds with. Each variant carries the
/// parked tasks and their sites; `Display` renders the verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Nothing is runnable and nobody waits timed.
    Deadlock(String),
    /// Timing out the timed waiters changes nothing any more.
    Livelock(String),
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Deadlock(parked) => {
                write!(f, "deadlock: no runnable task and no timed waiter in the world; {parked}")
            }
            Verdict::Livelock(parked) => write!(
                f,
                "livelock: every timed waiter times out past the fault horizon and wakes \
                 no task; {parked}"
            ),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Default)]
enum Status {
    Runnable,
    Running,
    /// Blocked at `site` — on the wait list at address `on`, or joining
    /// task `join`.
    Parked {
        site: Site,
        timed: bool,
        on: usize,
        join: Option<usize>,
    },
    #[default]
    Done,
}

/// How a granted task is let through: `SHUT` until a grant stores `GO` or
/// `TIMED_OUT`, with `OWES` set when a task it woke is still runnable.
#[derive(Default)]
struct Gate {
    state: AtomicU8,
    thread: OnceLock<Thread>,
}

const SHUT: u8 = 0;
const GO: u8 = 1;
const TIMED_OUT: u8 = 2;
const OWES: u8 = 4;

#[derive(Default)]
struct TaskState {
    name: String,
    rank: usize,
    /// Spawned from outside the world (a rank thread), not by a task.
    root: bool,
    clock: Option<ClockFn>,
    /// Virtual time of the last wake-up, for tasks without a live clock.
    vt: u64,
    status: Status,
    /// The task whose wake-up made this one runnable, until it runs: it
    /// may preempt that waker.
    woken_by: Option<usize>,
    gate: Arc<Gate>,
    /// A run-to-completion task's body between its slices, until it ends;
    /// `None` for a thread task.
    slice: Option<SliceFn>,
    /// How a run-to-completion task ended, for its [`Task::join`].
    ended: Option<Result<(), Payload>>,
    /// The world's wake count and the site when it last timed out past the
    /// fault horizon.
    stuck: Option<(u64, Site)>,
}

#[derive(Default)]
struct State {
    tasks: Vec<TaskState>,
    runnable: Vec<usize>,
    /// The task holding the baton.
    running: Option<usize>,
    started: bool,
    verdict: Option<Verdict>,
    grants: Grants,
    /// Virtual time past which the world's fault plan changes nothing.
    horizon: u64,
    /// Wake-ups so far.
    wakes: u64,
    /// Task threads that have not returned yet.
    live: usize,
}

/// The scheduler of one world. See the module docs.
#[derive(Default)]
pub struct Baton {
    st: Mutex<State>,
    /// Notified when a task's thread returns.
    exited: Condvar,
    /// Set with `State::verdict`: every waiter unwinds.
    poisoned: AtomicBool,
    /// The latest task to park (task id + 1): it yield-spins at its gate
    /// before it sleeps.
    spinner: AtomicUsize,
}

/// Whether this thread runs a slice of a task lent its thread.
#[derive(Clone, Copy, PartialEq)]
enum Inline {
    No,
    Running,
    /// ... and the slice passed a preemption point that hands over.
    Yielded,
}

/// How many `parking_lot` guards one thread may hold at once.
const MAX_HELD: usize = 8;

/// The `parking_lot` locks a thread holds, innermost last: each lock's
/// address and the site that took it, in fixed slots, so taking a lock
/// never allocates. A slice run on a lent thread holds the slots from
/// `base` up; those below are its host task's.
struct Holds {
    base: Cell<usize>,
    len: Cell<usize>,
    locks: [Cell<(usize, Site)>; MAX_HELD],
}

impl Holds {
    /// The locks the running task holds.
    #[inline]
    fn held(&self) -> &[Cell<(usize, Site)>] {
        &self.locks[self.base.get()..self.len.get()]
    }

    /// `lock` was let go of; returns how many locks the running task still
    /// holds.
    #[inline]
    fn release(&self, lock: usize) -> usize {
        let locks = &self.locks[..self.len.get()];
        if let Some(i) = locks.iter().rposition(|l| l.get().0 == lock) {
            locks[i..].windows(2).for_each(|w| w[0].set(w[1].get()));
            self.len.set(locks.len() - 1);
        }
        self.held().len()
    }
}

thread_local! {
    /// The world of the calling thread's task, for the life of its thread.
    static BATON: RefCell<Option<Arc<Baton>>> = const { RefCell::new(None) };
    /// The task the calling thread runs as: its own, or the one whose slice
    /// it runs.
    static TID: Cell<usize> = const { Cell::new(0) };
    /// `parking_lot` locks the calling thread holds.
    static HELD: Holds = const {
        // The site in a slot not yet taken is never read.
        let locks = [const { Cell::new((0, Location::caller())) }; MAX_HELD];
        Holds { base: Cell::new(0), len: Cell::new(0), locks }
    };
    /// This task woke a task that has not run since.
    static PENDING: Cell<bool> = const { Cell::new(false) };
    static INLINE: Cell<Inline> = const { Cell::new(Inline::No) };
}

fn current() -> Option<(Arc<Baton>, usize)> {
    with_current(|baton, tid| (Arc::clone(baton), tid))
}

/// `f` of the calling thread's world and task, borrowed; `None` outside a
/// world. `f` may run the world's slices on this thread ([`run_as`]).
fn with_current<R>(f: impl FnOnce(&Arc<Baton>, usize) -> R) -> Option<R> {
    BATON.with(|b| b.borrow().as_ref().map(|baton| f(baton, TID.get())))
}

/// The calling thread's task id, if it is a task of `baton`.
fn task_of(baton: &Baton) -> Option<usize> {
    BATON.with(|b| match &*b.borrow() {
        Some(b) if std::ptr::eq(Arc::as_ptr(b), baton) => Some(TID.get()),
        _ => None,
    })
}

/// Make the calling thread run as task `tid` of the baton it already
/// belongs to; returns the task it ran as.
fn run_as(tid: usize) -> Option<usize> {
    BATON.with(|b| b.borrow().is_some()).then(|| TID.replace(tid))
}

fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Why the running task may not park, if it may not (see the module docs):
/// it runs a slice on a lent thread, or it holds a guard besides the `own`
/// ones its park lets go of (a condvar wait's mutex).
fn refusal(own: usize) -> Option<&'static str> {
    if INLINE.get() != Inline::No {
        Some(
            "in a slice run on another task's thread; \
             a unit that must wait enlists and ends its slice",
        )
    } else if HELD.with(|h| h.held().len()) > own {
        Some(
            "holding a lock guard its park does not let go of; \
             the task granted next could block on it",
        )
    } else {
        None
    }
}

impl State {
    fn key(&self, t: usize) -> (u64, usize, usize) {
        let task = &self.tasks[t];
        (task.clock.as_ref().map_or(task.vt, |now| now()), task.rank, t)
    }

    /// The runnable task that orders first (`by`: among those `by` woke).
    fn first(&self, by: Option<usize>) -> Option<usize> {
        let woke = |t: &usize| by.is_none() || self.tasks[*t].woken_by == by;
        self.runnable.iter().copied().filter(woke).min_by_key(|&t| self.key(t))
    }

    /// Make `t` runnable, woken by `by` (a task of this world, whose clock
    /// it takes) or from outside the world (`None`).
    fn wake(&mut self, t: usize, by: Option<usize>) {
        let at = by.map_or(0, |w| self.key(w).0);
        let task = &mut self.tasks[t];
        (task.vt, task.status, task.woken_by) = (task.vt.max(at), Status::Runnable, by);
        self.runnable.push(t);
        self.wakes += 1;
        PENDING.set(PENDING.get() || by.is_some());
    }

    /// Nothing is runnable: the timed waiter to time out, or `None` when
    /// there is none or the world is livelocked (see the module docs).
    fn time_out(&mut self) -> Option<usize> {
        let wakes = self.wakes;
        let timed_at = |t: &TaskState| match t.status {
            Status::Parked { site, timed: true, .. } => Some((wakes, site)),
            _ => None,
        };
        let timed = (0..self.tasks.len()).filter(|&t| timed_at(&self.tasks[t]).is_some());
        if timed.clone().all(|t| self.tasks[t].stuck == timed_at(&self.tasks[t])) {
            return None;
        }
        let t = timed.min_by_key(|&t| self.key(t))?;
        if self.key(t).0 >= self.horizon {
            self.tasks[t].stuck = timed_at(&self.tasks[t]);
        }
        Some(t)
    }

    /// `OWES` if a task `t` woke is still runnable: only then can a guard
    /// release of `t`'s preempt (the thread's `PENDING`).
    fn owes(&self, t: usize) -> u8 {
        if self.first(Some(t)).is_some() {
            OWES
        } else {
            0
        }
    }

    fn grant(&mut self, t: usize) {
        self.running = Some(t);
        self.runnable.retain(|&r| r != t);
        let task = &mut self.tasks[t];
        (task.status, task.woken_by) = (Status::Running, None);
    }

    /// Task `tid` is finished: its joiners run on, woken by it.
    fn finish(&mut self, tid: usize) {
        for t in 0..self.tasks.len() {
            if matches!(self.tasks[t].status, Status::Parked { join: Some(j), .. } if j == tid) {
                self.wake(t, Some(tid));
            }
        }
        (self.tasks[tid].status, self.tasks[tid].clock) = (Status::Done, None);
    }
}

impl Gate {
    fn open(&self, how: u8) {
        self.state.store(how, Ordering::Release);
        self.thread.get().into_iter().for_each(Thread::unpark);
    }
}

impl Baton {
    /// A world with no tasks yet, whose fault plan changes nothing past
    /// virtual time `horizon` (0: the world runs no plan).
    pub fn new(horizon: u64) -> Arc<Self> {
        Arc::new(Self { st: Mutex::new(State { horizon, ..State::default() }), ..Self::default() })
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        lock(&self.st)
    }

    /// How this world's grants were carried out so far.
    pub fn grants(&self) -> Grants {
        self.lock().grants
    }

    /// Nobody holds the baton: give it to the first runnable task, else time
    /// out the first timed waiter, else — with a rank parked — poison the
    /// world with its verdict. `me` is the calling task when it is about to
    /// wait or exit: a run-to-completion task granted then runs here, and a
    /// grant of `me` itself wakes no thread — it is returned, and `me` has
    /// the baton without waiting at its gate. A gate opens after the state
    /// lock is let go, so the next runner never waits on it.
    fn hand_off<'a>(&'a self, mut st: MutexGuard<'a, State>, me: Option<usize>) -> Option<u8> {
        loop {
            st.running = None;
            if !st.started || st.verdict.is_some() {
                return None;
            }
            let next = match st.first(None) {
                Some(t) => Some((t, GO)),
                None => st.time_out().map(|t| (t, TIMED_OUT)),
            };
            let Some((t, how)) = next else { break };
            st.grant(t);
            let inline = st.tasks[t].slice.is_some() || Some(t) == me;
            let grants = &mut st.grants;
            *match how {
                TIMED_OUT => &mut grants.timed_out,
                _ if inline => &mut grants.inline,
                _ => &mut grants.handed,
            } += 1;
            if Some(t) == me {
                return Some(how | st.owes(t));
            }
            let Some(mut body) = st.tasks[t].slice.take() else {
                let (how, gate) = (how | st.owes(t), Arc::clone(&st.tasks[t].gate));
                drop(st);
                gate.open(how);
                return None;
            };
            // The grants made by no task are `start`'s, of roots (spawned
            // from outside the world), and those of a notify from outside,
            // which finds the baton free only once every rank has returned.
            assert!(me.is_some(), "{} granted with no task's thread to run it", st.tasks[t].name);
            drop(st);
            let ran = self.run_inline(t, &mut body);
            // A body that ended can own what owns this world: it is dropped
            // with the state lock let go.
            let body = matches!(ran, Ok(Slice::Ran | Slice::Parked)).then_some(body);
            st = self.lock();
            st.tasks[t].slice = body;
            match ran {
                Ok(Slice::Parked) => {}
                Ok(Slice::Ran) => st.wake(t, None),
                ended => {
                    // The joiners it wakes were woken by the task, not by
                    // this one.
                    let pending = PENDING.get();
                    st.finish(t);
                    PENDING.set(pending);
                    st.tasks[t].ended = Some(ended.map(drop));
                }
            }
        }
        if st.tasks.iter().any(|t| t.root && t.status != Status::Done) {
            let parked = st.tasks.iter().filter_map(|t| match t.status {
                Status::Parked { site, .. } => Some(format!("{} parked at {site}", t.name)),
                _ => None,
            });
            let parked = parked.collect::<Vec<String>>().join("; ");
            let timed =
                st.tasks.iter().any(|t| matches!(t.status, Status::Parked { timed: true, .. }));
            st.verdict =
                Some(if timed { Verdict::Livelock(parked) } else { Verdict::Deadlock(parked) });
            self.poisoned.store(true, Ordering::Release);
            st.tasks.iter().filter_map(|t| t.gate.thread.get()).for_each(Thread::unpark);
        }
        None
    }

    /// Run the run-to-completion task `t`, just granted, on this thread — a
    /// task of the world about to wait or exit — as `t`: its task id, with a
    /// guard count and a pending flag of its own. Slices run while they run
    /// a unit and hold the baton; returns the last one's outcome (its panic,
    /// if it panicked).
    fn run_inline(&self, t: usize, body: &mut SliceFn) -> Result<Slice, Payload> {
        let me = run_as(t);
        let base = HELD.with(|h| h.base.replace(h.len.get()));
        let outer = (base, PENDING.replace(false), INLINE.replace(Inline::Running));
        let ran = loop {
            let ran = catch_unwind(AssertUnwindSafe(&mut *body));
            if !matches!(ran, Ok(Slice::Ran)) || Slice::yielded() {
                break ran;
            }
        };
        me.and_then(run_as);
        HELD.with(|h| h.base.set(outer.0));
        PENDING.set(outer.1);
        INLINE.set(outer.2);
        ran
    }

    /// Wait until `tid` is granted the baton: `Ok(timed_out)`, or the
    /// verdict to unwind with. A hand-off between threads is often answered
    /// within microseconds (a collective's last arrival, a reply from
    /// another rank), so the latest task to wait yields the
    /// CPU a few dozen times before it sleeps: one waiter off the sleep/wake
    /// path, the runner not starved even on one CPU. Host timing decides
    /// only *when* a waiter sees its grant, never who is granted.
    fn wait_turn(&self, tid: usize) -> Result<bool, Payload> {
        // A grant may already be waiting at the gate: it keeps.
        let gate = Arc::clone(&self.lock().tasks[tid].gate);
        self.spinner.store(tid + 1, Ordering::Release);
        for spin in 0u64.. {
            match gate.state.swap(SHUT, Ordering::AcqRel) {
                SHUT if self.poisoned.load(Ordering::Acquire) => break,
                SHUT if spin < 64 && self.spinner.load(Ordering::Acquire) == tid + 1 => {
                    std::thread::yield_now()
                }
                SHUT => std::thread::park(),
                how => return Ok(let_through(how)),
            }
        }
        PENDING.set(false);
        Err(Box::new(self.verdict().expect("a poisoned world has its verdict")))
    }

    /// Park the running task `tid`, which `st` — held since — shows
    /// `Parked`, and hand the baton on.
    fn park<'a>(&'a self, st: MutexGuard<'a, State>, tid: usize) -> Result<bool, Payload> {
        match self.hand_off(st, Some(tid)) {
            Some(how) => Ok(let_through(how)),
            None => self.wait_turn(tid),
        }
    }

    /// Spawn a task running `f` on its own OS thread named `name`. Spawned
    /// by a task of this world, it is woken at its spawner's clock; spawned
    /// from outside, it is a root that waits for [`Baton::start`]. `clock`,
    /// when given, is read live as the task's virtual clock.
    pub fn spawn<T, F>(
        self: &Arc<Self>,
        name: String,
        rank: usize,
        clock: Option<ClockFn>,
        f: F,
    ) -> Task<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let tid = self.add_task(name.clone(), rank, clock, None);
        let baton = Arc::clone(self);
        #[allow(clippy::disallowed_methods, reason = "a world task is an OS thread the baton runs")]
        let handle = std::thread::Builder::new()
            .name(name)
            .stack_size(2 << 20)
            .spawn(move || baton.run_task(tid, f))
            .unwrap_or_else(|e| panic!("spawn world task: {e}"));
        // Registered before any grant needs it: a child is granted once its
        // spawner hands over, a root once the world starts.
        let _ = self.lock().tasks[tid].gate.thread.set(handle.thread().clone());
        Task { baton: Arc::clone(self), tid, ends: Ok(handle) }
    }

    /// Spawn a run-to-completion task of this world named `name`, from a
    /// task of it: `slice` is called for one slice at a time on the thread
    /// of whichever task grants it the baton — first its spawner's, once
    /// that waits — and it has no thread of its own.
    pub fn spawn_slices<F>(self: &Arc<Self>, name: String, rank: usize, slice: F) -> Task<()>
    where
        F: FnMut() -> Slice + Send + 'static,
    {
        let tid = self.add_task(name, rank, None, Some(Box::new(slice)));
        Task { baton: Arc::clone(self), tid, ends: Err(()) }
    }

    /// Add a task, woken at its spawner's clock — or, spawned from outside
    /// the world, a root that waits for [`Baton::start`]; returns its id.
    fn add_task(
        &self,
        name: String,
        rank: usize,
        clock: Option<ClockFn>,
        slice: Option<SliceFn>,
    ) -> usize {
        let parent = task_of(self);
        let mut st = self.lock();
        st.live += usize::from(slice.is_none());
        let root = parent.is_none();
        st.tasks.push(TaskState { name, rank, root, clock, slice, ..TaskState::default() });
        let tid = st.tasks.len() - 1;
        st.wake(tid, parent);
        tid
    }

    /// Start scheduling: the first runnable root takes the baton.
    pub fn start(&self) {
        let mut st = self.lock();
        st.started = true;
        self.hand_off(st, None);
    }

    /// The verdict, once the world has reached one.
    pub fn verdict(&self) -> Option<Verdict> {
        self.lock().verdict.clone()
    }

    /// Wait until the thread of every task of this world has returned.
    /// Once the world has a verdict every task unwinds, so this returns;
    /// before that, a helper left parked would keep it waiting.
    pub fn join_all(&self) {
        let mut st = self.lock();
        while st.live > 0 {
            st = self.exited.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn run_task<T>(self: Arc<Self>, tid: usize, f: impl FnOnce() -> T) -> T {
        BATON.with(|b| *b.borrow_mut() = Some(Arc::clone(&self)));
        TID.set(tid);
        let result = self.wait_turn(tid).and_then(|_| catch_unwind(AssertUnwindSafe(f)));
        let mut st = self.lock();
        st.finish(tid);
        if st.running == Some(tid) {
            self.hand_off(st, Some(tid));
        } else {
            drop(st);
        }
        BATON.with(|b| *b.borrow_mut() = None);
        PENDING.set(false);
        self.lock().live -= 1;
        self.exited.notify_all();
        result.unwrap_or_else(|p| resume_unwind(p))
    }

    /// A lock-free step of the running task `tid`: if a task it woke orders
    /// before it, hand that task the baton and wait for it back. A slice
    /// cannot wait: it yields instead ([`Slice::yielded`]).
    fn preempt(&self, tid: usize) {
        let mut st = self.lock();
        let Some(first) = st.first(Some(tid)).filter(|_| st.running == Some(tid)) else {
            return PENDING.set(false);
        };
        if st.key(first) < st.key(tid) {
            if INLINE.get() != Inline::No {
                PENDING.set(false);
                return INLINE.set(Inline::Yielded);
            }
            st.wake(tid, None);
            if self.hand_off(st, Some(tid)).is_none() {
                // A poisoned world runs free; the next park unwinds.
                let _ = self.wait_turn(tid);
            }
            PENDING.set(true);
        }
    }
}

/// A task of a world; joining it from another task is a park point.
pub struct Task<T> {
    baton: Arc<Baton>,
    tid: usize,
    /// A thread task's thread, which returns its result; or, for a
    /// run-to-completion task, whose outcome waits in its state, the value
    /// it returns when its slices ended well.
    ends: Result<JoinHandle<T>, T>,
}

impl<T> Task<T> {
    /// The name the task was spawned with.
    pub fn name(&self) -> String {
        self.baton.lock().tasks[self.tid].name.clone()
    }

    /// Wait for the task to finish and return its result (`Err` carries its
    /// panic). From a task of the same world the wait hands the baton on; a
    /// run-to-completion task is joined from one.
    #[track_caller]
    pub fn join(self) -> std::thread::Result<T> {
        if let Some(me) = task_of(&self.baton) {
            let mut st = self.baton.lock();
            if st.tasks[self.tid].status != Status::Done {
                let (site, join) = (Location::caller(), Some(self.tid));
                if let Some(why) = refusal(0) {
                    let name = st.tasks[me].name.clone();
                    drop(st);
                    panic!("{name} parked at {site} {why}");
                }
                st.tasks[me].status = Status::Parked { site, timed: false, on: 0, join };
                self.baton.park(st, me).unwrap_or_else(|p| resume_unwind(p));
            }
        }
        match self.ends {
            Ok(handle) => handle.join(),
            Err(value) => {
                let ended = self.baton.lock().tasks[self.tid].ended.take();
                ended.expect("a run-to-completion task is joined once it ended").map(|()| value)
            }
        }
    }
}

/// The world tasks waiting on one condvar, in arrival order.
#[derive(Default)]
pub struct WaitList(Mutex<Vec<(Arc<Baton>, usize)>>);

impl WaitList {
    /// An empty list.
    pub const fn new() -> Self {
        Self(Mutex::new(Vec::new()))
    }

    fn lock(&self) -> MutexGuard<'_, Vec<(Arc<Baton>, usize)>> {
        lock(&self.0)
    }

    /// Park the calling world task here at the caller's site: enlisted
    /// before `guard` (the condvar's mutex) is let go, so no later notify is
    /// lost, until notified — or, `timed`, until nothing else of the world
    /// can run. `Ok(timed_out)`, or the verdict to unwind with once the
    /// caller has its mutex back; `Err(guard)` outside a world.
    #[track_caller]
    pub fn wait<G>(&self, timed: bool, guard: G) -> Result<Result<bool, Payload>, G> {
        let (site, on) = (Location::caller(), self as *const Self as usize);
        // The world stays borrowed while the park runs its slices here.
        BATON.with(|b| {
            let Some(baton) = &*b.borrow() else { return Err(guard) };
            let tid = TID.get();
            // The list's lock, then the baton's, as a notify takes them.
            let mut list = self.lock();
            let mut st = baton.lock();
            if let Some(why) = refusal(1) {
                let name = st.tasks[tid].name.clone();
                drop((st, list, guard));
                panic!("{name} parked at {site} {why}");
            }
            st.tasks[tid].status = Status::Parked { site, timed, on, join: None };
            list.push((Arc::clone(baton), tid));
            drop((list, guard));
            let parked = baton.park(st, tid);
            if !matches!(parked, Ok(false)) {
                self.lock().retain(|(b, t)| !(Arc::ptr_eq(b, baton) && *t == tid));
            }
            Ok(parked)
        })
    }

    /// Park the calling run-to-completion task here at the caller's site
    /// without blocking: its slice returns [`Slice::Parked`] next, and a
    /// notify makes it runnable again. The caller holds the condvar's
    /// mutex, so no notify after its check is lost.
    #[track_caller]
    pub fn enlist(&self) {
        let site = Location::caller();
        let Some((baton, tid)) = current().filter(|_| INLINE.get() != Inline::No) else {
            panic!("enlisted at {site} outside a slice: only a run-to-completion task parks so")
        };
        let on = self as *const Self as usize;
        baton.lock().tasks[tid].status = Status::Parked { site, timed: false, on, join: None };
        self.lock().push((baton, tid));
        // Its park hands the baton on: no preemption on the way there.
        PENDING.set(false);
    }

    /// Wake the first (`all`: every) task still parked here. One that orders
    /// before the notifier runs at the notifier's next guard release.
    pub fn notify(&self, all: bool) {
        let mut list = self.lock();
        while !list.is_empty() {
            let (baton, tid) = list.remove(0);
            let waker = task_of(&baton);
            let mut st = baton.lock();
            let here = self as *const Self as usize;
            if !matches!(st.tasks[tid].status, Status::Parked { on, .. } if on == here) {
                continue; // timed out since, or woken from outside the world
            }
            if let (Some(w), Inline::Yielded) = (waker, INLINE.get()) {
                let (waker, woken) = (st.tasks[w].name.clone(), st.tasks[tid].name.clone());
                drop((st, list));
                panic!("{waker} woke {woken} after the preemption point that ended its slice");
            }
            st.wake(tid, waker);
            if waker.is_none() && st.running.is_none() {
                baton.hand_off(st, None);
            }
            if !all {
                return;
            }
        }
    }
}

/// What a grant of `how` tells the task let through: whether its wait timed
/// out and — its thread's `PENDING` — whether a task it woke is still
/// runnable.
fn let_through(how: u8) -> bool {
    PENDING.set(how & OWES != 0);
    how & !OWES == TIMED_OUT
}

/// The name of the calling thread's task, or of the thread outside a world.
fn task_name() -> String {
    match current() {
        Some((baton, tid)) => baton.lock().tasks[tid].name.clone(),
        None => std::thread::current().name().unwrap_or("a thread outside any world").to_string(),
    }
}

/// Held for the life of a `parking_lot` guard: records the lock as held by
/// the thread, and makes the release of the thread's last guard a
/// preemption point.
pub struct Held(usize);

impl Held {
    /// The caller is about to acquire the lock at address `lock`, of type
    /// `what`: refused with a panic if the thread already holds it (see the
    /// module docs), else recorded as held.
    #[inline]
    #[track_caller]
    pub fn on_lock(lock: usize, what: &'static str) -> Self {
        let site = Location::caller();
        HELD.with(|h| {
            let len = h.len.get();
            if len == MAX_HELD || h.held().iter().any(|l| l.get().0 == lock) {
                refuse(h, lock, what, site);
            }
            h.locks[len].set((lock, site));
            h.len.set(len + 1);
        });
        Held(lock)
    }
}

/// Refuse the acquire of `lock` at `site` that [`Held::on_lock`] was asked
/// for.
#[cold]
#[inline(never)]
fn refuse(h: &Holds, lock: usize, what: &str, site: Site) -> ! {
    let task = task_name();
    match h.held().iter().find(|l| l.get().0 == lock) {
        Some(since) => panic!(
            "{task} took {what} at {site}, which it already holds since {}; \
             a lock re-taken by its holder blocks its thread outside the scheduler",
            since.get().1
        ),
        None => panic!("{task} took {what} at {site} holding {MAX_HELD} lock guards"),
    }
}

impl Drop for Held {
    #[inline]
    fn drop(&mut self) {
        let depth = HELD.with(|h| h.release(self.0));
        if depth == 0 && PENDING.get() {
            with_current(|baton, tid| baton.preempt(tid));
        }
    }
}
