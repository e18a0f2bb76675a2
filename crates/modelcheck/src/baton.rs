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
//! A task's virtual clock is its rank's clock when it was spawned with one
//! (the rank threads); a helper's is the clock of whoever last woke it —
//! when the compaction thread is handed a flush at `t`, it runs at `t`.
//!
//! A task is one of two kinds. A *thread task* ([`Baton::spawn`]) is an OS
//! thread that blocks at its park points. A *run-to-completion task*
//! ([`Baton::spawn_slices`]) runs in slices, one unit of work each, and
//! parks between them without blocking ([`WaitList::enlist`]). When the
//! baton is granted to one between slices by a task about to wait — at its
//! park, its preemption point or its exit — the granting thread runs the
//! slice itself, as that task, and then carries on its hand-off: the tasks
//! are granted in the order they always were, and no OS thread is woken.
//! On a thread lent this way:
//!
//! - a preemption point that hands the baton on ends the slice instead of
//!   blocking it: the slice starts no further unit ([`Slice::yielded`]),
//!   and its task is runnable behind the task it woke once it returns.
//!   What the slice still does before returning must touch no other task;
//!   waking one is refused.
//! - a park is a bug, refused with a panic naming the task and its site:
//!   a unit that can park is run on the task's own OS thread instead
//!   ([`Slice::OwnThread`]), which serves it as a thread task would.
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
//! Outside a world every hook is a thread-local check. This is not
//! `exec.rs`'s hand-off: the explorer parks every thread before *every*
//! shimmed operation and decides by replay, DPOR or a seeded walk over a
//! per-execution object table; a world parks only where a thread would
//! block anyway and decides by virtual time, with tasks that return values
//! through real join handles. A stepping core shared by both would need a
//! policy trait and a state type generic over both, larger than either.

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
/// A run-to-completion task's body: one slice per call, told whether it
/// runs on another task's thread.
type SliceFn = Box<dyn FnMut(bool) -> Slice + Send>;

/// What one slice of a run-to-completion task did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    /// Ran one unit of work — or kept it, because the task yielded
    /// ([`Slice::yielded`]).
    Ran,
    /// Enlisted the task on a wait list ([`WaitList::enlist`]).
    Parked,
    /// Kept a unit that can park: the task goes on on its own thread.
    OwnThread,
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
    /// Handed to another OS thread, which is woken: a grant, or a slice's
    /// unit that can park moved to its task's own thread.
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

#[derive(Clone, Copy, PartialEq)]
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
    Done,
}

/// How a granted task is let through: `SHUT` until a grant stores `GO` or
/// `TIMED_OUT`.
#[derive(Default)]
struct Gate {
    state: AtomicU8,
    thread: OnceLock<Thread>,
}

const SHUT: u8 = 0;
const GO: u8 = 1;
const TIMED_OUT: u8 = 2;

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
    /// A run-to-completion task's body; `None` for a thread task.
    slice: Option<Arc<Mutex<SliceFn>>>,
    /// A run-to-completion task parked or yielded between slices: a grant
    /// may run its next slice on the granting thread.
    idle: bool,
    /// How a run-to-completion task ended in a slice another thread ran,
    /// for its own thread to return.
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

thread_local! {
    static TASK: RefCell<Option<(Arc<Baton>, usize)>> = const { RefCell::new(None) };
    /// `parking_lot` guards the calling thread holds.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// This task woke a task that has not run since.
    static PENDING: Cell<bool> = const { Cell::new(false) };
    static INLINE: Cell<Inline> = const { Cell::new(Inline::No) };
}

fn current() -> Option<(Arc<Baton>, usize)> {
    TASK.with(|t| t.borrow().clone())
}

/// The calling thread's task id, if it is a task of `baton`.
fn task_of(baton: &Baton) -> Option<usize> {
    TASK.with(|t| match &*t.borrow() {
        Some((b, tid)) if std::ptr::eq(Arc::as_ptr(b), baton) => Some(*tid),
        _ => None,
    })
}

/// Make the calling thread run as task `tid` of the baton it already
/// belongs to; returns the task it ran as.
fn run_as(tid: usize) -> Option<usize> {
    TASK.with(|t| t.borrow_mut().as_mut().map(|(_, me)| std::mem::replace(me, tid)))
}

fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A slice on a lent thread reached a park point (see the module docs).
fn refuse_park(name: &str, site: Site) -> ! {
    panic!(
        "{name} parked at {site} in a slice run on another task's thread; \
         work that can park must run on its task's own thread"
    )
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

    fn grant(&mut self, t: usize) -> Arc<Gate> {
        self.running = Some(t);
        self.runnable.retain(|&r| r != t);
        let task = &mut self.tasks[t];
        (task.status, task.woken_by, task.idle) = (Status::Running, None, false);
        Arc::clone(&task.gate)
    }

    /// Task `tid` is finished: its joiners run on, woken by it. Returns its
    /// slice body, if any: the body can own what owns this world, so it is
    /// dropped once the state lock is let go.
    fn finish(&mut self, tid: usize) -> Option<Arc<Mutex<SliceFn>>> {
        for t in 0..self.tasks.len() {
            if matches!(self.tasks[t].status, Status::Parked { join: Some(j), .. } if j == tid) {
                self.wake(t, Some(tid));
            }
        }
        (self.tasks[tid].status, self.tasks[tid].clock) = (Status::Done, None);
        self.tasks[tid].slice.take()
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
    /// wait or exit: a run-to-completion task granted between slices then
    /// runs here, and a grant of `me` itself wakes no thread. A gate opens
    /// after the state lock is let go, so the next runner never waits on it.
    fn hand_off<'a>(&'a self, mut st: MutexGuard<'a, State>, me: Option<usize>) {
        loop {
            st.running = None;
            if !st.started || st.verdict.is_some() {
                return;
            }
            let next = match st.first(None) {
                Some(t) => Some((t, GO)),
                None => st.time_out().map(|t| (t, TIMED_OUT)),
            };
            let Some((t, how)) = next else { break };
            let lent = match &st.tasks[t].slice {
                Some(slice) if st.tasks[t].idle && how == GO && me.is_some_and(|me| me != t) => {
                    Some(Arc::clone(slice))
                }
                _ => None,
            };
            let gate = st.grant(t);
            let grants = &mut st.grants;
            *match how {
                TIMED_OUT => &mut grants.timed_out,
                _ if lent.is_some() || Some(t) == me => &mut grants.inline,
                _ => &mut grants.handed,
            } += 1;
            if Some(t) == me {
                return gate.state.store(how, Ordering::Release);
            }
            drop(st);
            let Some(slice) = lent else { return gate.open(how) };
            let (ran, yielded) = self.run_inline(t, &slice);
            st = self.lock();
            match ran {
                Ok(Slice::OwnThread) if !yielded => {
                    st.grants.handed += 1;
                    drop(st);
                    return gate.open(how);
                }
                Ok(Slice::Parked) => st.tasks[t].idle = true,
                Ok(Slice::Ran | Slice::OwnThread) => {
                    st.wake(t, None);
                    st.tasks[t].idle = true;
                }
                ended => {
                    // Its own thread, waiting for the task's next grant,
                    // returns how it ended and drops the body last. The
                    // joiners it wakes were woken by the task, not by this
                    // one.
                    let pending = PENDING.get();
                    st.finish(t);
                    PENDING.set(pending);
                    st.tasks[t].ended = Some(ended.map(drop));
                    gate.open(GO);
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
    }

    /// Run the run-to-completion task `t`, just granted between slices, on
    /// this thread — a task of the world about to wait or exit — as `t`:
    /// its task id, with a guard count and a pending flag of its own.
    /// Slices run while they run a unit and hold the baton; returns the
    /// last one's outcome (its panic, if it panicked) and whether it
    /// yielded.
    fn run_inline(&self, t: usize, slice: &Mutex<SliceFn>) -> (Result<Slice, Payload>, bool) {
        let me = run_as(t);
        let outer = (DEPTH.replace(0), PENDING.replace(false), INLINE.replace(Inline::Running));
        let ran = loop {
            let ran = catch_unwind(AssertUnwindSafe(|| lock(slice)(true)));
            if !matches!(ran, Ok(Slice::Ran)) || Slice::yielded() {
                break ran;
            }
        };
        let yielded = Slice::yielded();
        me.and_then(run_as);
        DEPTH.set(outer.0);
        PENDING.set(outer.1);
        INLINE.set(outer.2);
        (ran, yielded)
    }

    /// Wait until `tid` is granted the baton: `Ok(timed_out)`, or the
    /// verdict to unwind with. A hand-off between threads is often answered
    /// within microseconds (a collective's last arrival, a flush handed to
    /// the compaction task and back), so the latest task to wait yields the
    /// CPU a few dozen times before it sleeps: one waiter off the sleep/wake
    /// path, the runner not starved even on one CPU. Host timing decides
    /// only *when* a waiter sees its grant, never who is granted.
    fn wait_turn(&self, tid: usize, gate: &Gate) -> Result<bool, Payload> {
        self.spinner.store(tid + 1, Ordering::Release);
        for spin in 0u64.. {
            match gate.state.swap(SHUT, Ordering::AcqRel) {
                SHUT if self.poisoned.load(Ordering::Acquire) => break,
                SHUT if spin < 64 && self.spinner.load(Ordering::Acquire) == tid + 1 => {
                    std::thread::yield_now()
                }
                SHUT => std::thread::park(),
                how => return Ok(how == TIMED_OUT),
            }
        }
        PENDING.set(false);
        Err(Box::new(self.verdict().expect("a poisoned world has its verdict")))
    }

    /// Park the running task `tid` — already `Parked`, unless a notify from
    /// outside the world beat it here — and hand the baton on. `idle`: a
    /// run-to-completion task parked between slices.
    fn park(&self, tid: usize, idle: bool) -> Result<bool, Payload> {
        let mut st = self.lock();
        if st.tasks[tid].status == Status::Runnable {
            st.grant(tid);
            return Ok(false);
        }
        st.tasks[tid].idle = idle;
        let gate = Arc::clone(&st.tasks[tid].gate);
        self.hand_off(st, Some(tid));
        self.wait_turn(tid, &gate)
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
        self.spawn_task(name, rank, clock, None, |_, _| f())
    }

    /// Spawn a run-to-completion task of this world: `slice` is called for
    /// one slice at a time, told whether it runs on another task's thread,
    /// and its own OS thread `name` runs the slices no other thread can.
    /// Its first grant goes to that thread.
    pub fn spawn_slices<F>(self: &Arc<Self>, name: String, rank: usize, slice: F) -> Task<()>
    where
        F: FnMut(bool) -> Slice + Send + 'static,
    {
        let slice: Arc<Mutex<SliceFn>> = Arc::new(Mutex::new(Box::new(slice)));
        let own = Arc::clone(&slice);
        self.spawn_task(name, rank, None, Some(slice), move |baton, tid| {
            baton.own_slices(tid, &own)
        })
    }

    fn spawn_task<T, F>(
        self: &Arc<Self>,
        name: String,
        rank: usize,
        clock: Option<ClockFn>,
        slice: Option<Arc<Mutex<SliceFn>>>,
        f: F,
    ) -> Task<T>
    where
        T: Send + 'static,
        F: FnOnce(&Self, usize) -> T + Send + 'static,
    {
        let parent = task_of(self);
        let gate = Arc::new(Gate::default());
        let tid = {
            let mut st = self.lock();
            let (name, root, gate) = (name.clone(), parent.is_none(), Arc::clone(&gate));
            let (vt, status, woken_by, idle, ended) = (0, Status::Done, None, false, None);
            st.tasks.push(TaskState {
                name,
                rank,
                root,
                clock,
                vt,
                status,
                woken_by,
                gate,
                slice,
                idle,
                ended,
                stuck: None,
            });
            let tid = st.tasks.len() - 1;
            st.wake(tid, parent);
            st.live += 1;
            tid
        };
        let baton = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(name)
            .stack_size(2 << 20)
            .spawn(move || baton.run_task(tid, f))
            .unwrap_or_else(|e| panic!("spawn world task: {e}"));
        // Registered before any grant needs it: a child is granted once its
        // spawner hands over, a root once the world starts.
        let _ = gate.thread.set(handle.thread().clone());
        Task { baton: Arc::clone(self), tid, handle }
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

    fn run_task<T>(self: Arc<Self>, tid: usize, f: impl FnOnce(&Self, usize) -> T) -> T {
        TASK.with(|t| *t.borrow_mut() = Some((Arc::clone(&self), tid)));
        let gate = Arc::clone(&self.lock().tasks[tid].gate);
        let result = self
            .wait_turn(tid, &gate)
            .and_then(|_| catch_unwind(AssertUnwindSafe(|| f(&self, tid))));
        let mut st = self.lock();
        let body = st.finish(tid);
        if st.running == Some(tid) {
            self.hand_off(st, Some(tid));
        } else {
            drop(st);
        }
        drop(body);
        TASK.with(|t| *t.borrow_mut() = None);
        PENDING.set(false);
        self.lock().live -= 1;
        self.exited.notify_all();
        result.unwrap_or_else(|p| resume_unwind(p))
    }

    /// The own thread of run-to-completion task `tid`: run its slices while
    /// the task holds the baton here, and wait here between them — for a
    /// grant no other thread took, or for how the task ended elsewhere.
    fn own_slices(&self, tid: usize, slice: &Mutex<SliceFn>) {
        loop {
            // Another thread runs the next slice while this one waits.
            let ran = lock(slice)(false);
            match ran {
                Slice::Exit => return,
                Slice::Parked => {
                    self.park(tid, true).unwrap_or_else(|p| resume_unwind(p));
                    if let Some(ended) = self.lock().tasks[tid].ended.take() {
                        return ended.unwrap_or_else(|p| resume_unwind(p));
                    }
                }
                Slice::Ran | Slice::OwnThread => {}
            }
        }
    }

    /// A lock-free step of the running task `tid`: if a task it woke orders
    /// before it, hand that task the baton and wait for it back. A slice on
    /// a lent thread cannot wait: it yields instead ([`Slice::yielded`]).
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
            let gate = Arc::clone(&st.tasks[tid].gate);
            self.hand_off(st, Some(tid));
            // A poisoned world runs free; the next park unwinds.
            let _ = self.wait_turn(tid, &gate);
            PENDING.set(true);
        }
    }
}

/// A task of a world; joining it from another task is a park point.
pub struct Task<T> {
    baton: Arc<Baton>,
    tid: usize,
    handle: JoinHandle<T>,
}

impl<T> Task<T> {
    /// Wait for the task to finish and return its result (`Err` carries its
    /// panic). From a task of the same world the wait hands the baton on.
    #[track_caller]
    pub fn join(self) -> std::thread::Result<T> {
        if let Some(me) = task_of(&self.baton) {
            let mut st = self.baton.lock();
            if st.tasks[self.tid].status != Status::Done {
                let (site, join) = (Location::caller(), Some(self.tid));
                if INLINE.get() != Inline::No {
                    let name = st.tasks[me].name.clone();
                    drop(st);
                    refuse_park(&name, site);
                }
                st.tasks[me].status = Status::Parked { site, timed: false, on: 0, join };
                drop(st);
                self.baton.park(me, false).unwrap_or_else(|p| resume_unwind(p));
            }
        }
        self.handle.join()
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
        let Some((baton, tid)) = current() else { return Err(guard) };
        let (site, on) = (Location::caller(), self as *const Self as usize);
        {
            let mut st = baton.lock();
            if INLINE.get() != Inline::No {
                let name = st.tasks[tid].name.clone();
                drop((st, guard));
                refuse_park(&name, site);
            }
            st.tasks[tid].status = Status::Parked { site, timed, on, join: None };
        }
        self.lock().push((Arc::clone(&baton), tid));
        drop(guard);
        let parked = baton.park(tid, false);
        if !matches!(parked, Ok(false)) {
            self.lock().retain(|(b, t)| !(Arc::ptr_eq(b, &baton) && *t == tid));
        }
        Ok(parked)
    }

    /// Park the calling run-to-completion task here at the caller's site
    /// without blocking: its slice returns [`Slice::Parked`] next, and a
    /// notify makes it runnable again. The caller holds the condvar's
    /// mutex, so no notify after its check is lost.
    #[track_caller]
    pub fn enlist(&self) {
        let site = Location::caller();
        let Some((baton, tid)) = current() else {
            panic!("enlisted at {site} outside a world: only its tasks park without blocking")
        };
        {
            let mut st = baton.lock();
            let task = &mut st.tasks[tid];
            assert!(
                task.slice.is_some(),
                "{} enlisted at {site}: only a run-to-completion task parks without blocking",
                task.name
            );
            task.status =
                Status::Parked { site, timed: false, on: self as *const Self as usize, join: None };
        }
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

/// Held for the life of a `parking_lot` guard: counts the guards the
/// thread holds, and makes the release of the last one a preemption point.
pub struct Held(());

impl Held {
    /// A guard was taken.
    #[inline]
    pub fn on_lock() -> Self {
        DEPTH.set(DEPTH.get() + 1);
        Held(())
    }
}

impl Drop for Held {
    #[inline]
    fn drop(&mut self) {
        let depth = DEPTH.get().saturating_sub(1);
        DEPTH.set(depth);
        if depth == 0 && PENDING.get() {
            if let Some((baton, tid)) = current() {
                baton.preempt(tid);
            }
        }
    }
}
