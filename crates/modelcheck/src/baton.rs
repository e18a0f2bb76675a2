//! The world scheduler: one task of a world runs at a time.
//!
//! A [`Baton`] owns the tasks of one simulated world — each rank's thread
//! and the helpers it spawns. Tasks are real OS threads, but only the one
//! holding the baton runs. The baton changes hands only at points fixed by
//! the program, never by host timing:
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
//! A timed wait reports "timed out" only when no task of the world is
//! runnable. When nothing is runnable and nobody waits timed while a task
//! spawned from outside the world (a rank) is parked, the world can never
//! move again: every parked task unwinds with a verdict naming each parked
//! task and the `#[track_caller]` site it parked at. (Helpers left parked by
//! ranks that returned stay parked.)
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
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe, Location};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::{JoinHandle, Thread};

/// A task's virtual clock, read live (a rank's clock).
pub type ClockFn = Box<dyn Fn() -> u64 + Send + Sync>;

type Payload = Box<dyn Any + Send>;
type Site = &'static Location<'static>;

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
}

#[derive(Default)]
struct State {
    tasks: Vec<TaskState>,
    runnable: Vec<usize>,
    /// The task holding the baton.
    running: Option<usize>,
    started: bool,
    verdict: Option<String>,
}

/// The scheduler of one world. See the module docs.
#[derive(Default)]
pub struct Baton {
    st: Mutex<State>,
    /// Set with `State::verdict`: every waiter unwinds.
    poisoned: AtomicBool,
    /// The latest task to park (task id + 1): it yield-spins at its gate
    /// before it sleeps.
    spinner: AtomicUsize,
}

thread_local! {
    static TASK: RefCell<Option<(Arc<Baton>, usize)>> = const { RefCell::new(None) };
    /// `parking_lot` guards the calling thread holds.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// This task woke a task that has not run since.
    static PENDING: Cell<bool> = const { Cell::new(false) };
}

fn current() -> Option<(Arc<Baton>, usize)> {
    TASK.with(|t| t.borrow().clone())
}

/// The calling thread's task id, if it is a task of `baton`.
fn task_of(baton: &Baton) -> Option<usize> {
    let (b, tid) = current()?;
    std::ptr::eq(Arc::as_ptr(&b), baton).then_some(tid)
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
        PENDING.with(|p| p.set(p.get() || by.is_some()));
    }

    fn grant(&mut self, t: usize) -> Arc<Gate> {
        self.running = Some(t);
        self.runnable.retain(|&r| r != t);
        (self.tasks[t].status, self.tasks[t].woken_by) = (Status::Running, None);
        Arc::clone(&self.tasks[t].gate)
    }
}

impl Baton {
    /// A world with no tasks yet.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.st.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Nobody holds the baton: give it to the first runnable task, else time
    /// out the first timed waiter, else — with a rank parked — poison the
    /// world. The gate opens after the state lock is let go, so the next
    /// runner never waits on it.
    fn hand_off(&self, mut st: MutexGuard<'_, State>) {
        st.running = None;
        if !st.started || st.verdict.is_some() {
            return;
        }
        let timed = (0..st.tasks.len())
            .filter(|&t| matches!(st.tasks[t].status, Status::Parked { timed: true, .. }));
        let next = match st.first(None) {
            Some(t) => Some((t, GO)),
            None => timed.min_by_key(|&t| st.key(t)).map(|t| (t, TIMED_OUT)),
        };
        if let Some((t, how)) = next {
            let gate = st.grant(t);
            drop(st);
            gate.state.store(how, Ordering::Release);
            return gate.thread.get().into_iter().for_each(Thread::unpark);
        }
        if st.tasks.iter().any(|t| t.root && t.status != Status::Done) {
            let parked = st.tasks.iter().filter_map(|t| match t.status {
                Status::Parked { site, .. } => Some(format!("{} parked at {site}", t.name)),
                _ => None,
            });
            let parked: Vec<String> = parked.collect();
            st.verdict = Some(format!(
                "deadlock: no runnable task and no timed waiter in the world; {}",
                parked.join("; ")
            ));
            self.poisoned.store(true, Ordering::Release);
            st.tasks.iter().filter_map(|t| t.gate.thread.get()).for_each(Thread::unpark);
        }
    }

    /// Wait until `tid` is granted the baton: `Ok(timed_out)`, or the
    /// verdict to unwind with. A hand-off is often answered within
    /// microseconds (a request's reply), so the latest task to wait yields
    /// the CPU a few dozen times before it sleeps: one waiter off the
    /// sleep/wake path, the runner not starved even on one CPU. Host timing
    /// decides only *when* a waiter sees its grant, never who is granted.
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
        PENDING.with(|p| p.set(false));
        Err(Box::new(self.lock().verdict.clone().unwrap_or_default()))
    }

    /// Park the running task `tid` — already `Parked`, unless a notify from
    /// outside the world beat it here — and hand the baton on.
    fn park(&self, tid: usize) -> Result<bool, Payload> {
        let mut st = self.lock();
        if st.tasks[tid].status == Status::Runnable {
            st.grant(tid);
            return Ok(false);
        }
        let gate = Arc::clone(&st.tasks[tid].gate);
        self.hand_off(st);
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
        let parent = task_of(self);
        let gate = Arc::new(Gate::default());
        let tid = {
            let mut st = self.lock();
            let (name, root, gate) = (name.clone(), parent.is_none(), Arc::clone(&gate));
            let (status, woken_by) = (Status::Done, None);
            st.tasks.push(TaskState { name, rank, root, clock, vt: 0, status, woken_by, gate });
            let tid = st.tasks.len() - 1;
            st.wake(tid, parent);
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
        self.hand_off(st);
    }

    /// The deadlock verdict, once the world has reached one.
    pub fn verdict(&self) -> Option<String> {
        self.lock().verdict.clone()
    }

    fn run_task<T>(self: Arc<Self>, tid: usize, f: impl FnOnce() -> T) -> T {
        TASK.with(|t| *t.borrow_mut() = Some((Arc::clone(&self), tid)));
        let gate = Arc::clone(&self.lock().tasks[tid].gate);
        let result = self.wait_turn(tid, &gate).and_then(|_| catch_unwind(AssertUnwindSafe(f)));
        let mut st = self.lock();
        for t in 0..st.tasks.len() {
            if matches!(st.tasks[t].status, Status::Parked { join: Some(j), .. } if j == tid) {
                st.wake(t, Some(tid));
            }
        }
        (st.tasks[tid].status, st.tasks[tid].clock) = (Status::Done, None);
        if st.running == Some(tid) {
            self.hand_off(st);
        }
        TASK.with(|t| *t.borrow_mut() = None);
        PENDING.with(|p| p.set(false));
        result.unwrap_or_else(|p| resume_unwind(p))
    }

    /// A lock-free step of the running task `tid`: if a task it woke orders
    /// before it, hand that task the baton and wait for it back.
    fn preempt(&self, tid: usize) {
        let mut st = self.lock();
        let Some(first) = st.first(Some(tid)).filter(|_| st.running == Some(tid)) else {
            return PENDING.with(|p| p.set(false));
        };
        if st.key(first) < st.key(tid) {
            st.wake(tid, None);
            let gate = Arc::clone(&st.tasks[tid].gate);
            self.hand_off(st);
            // A poisoned world runs free; the next park unwinds.
            let _ = self.wait_turn(tid, &gate);
            PENDING.with(|p| p.set(true));
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
                st.tasks[me].status = Status::Parked { site, timed: false, on: 0, join };
                drop(st);
                self.baton.park(me).unwrap_or_else(|p| resume_unwind(p));
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
        self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
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
        baton.lock().tasks[tid].status = Status::Parked { site, timed, on, join: None };
        self.lock().push((Arc::clone(&baton), tid));
        drop(guard);
        let parked = baton.park(tid);
        if !matches!(parked, Ok(false)) {
            self.lock().retain(|(b, t)| !(Arc::ptr_eq(b, &baton) && *t == tid));
        }
        Ok(parked)
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
            st.wake(tid, waker);
            if waker.is_none() && st.running.is_none() {
                baton.hand_off(st);
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
        DEPTH.with(|d| d.set(d.get() + 1));
        Held(())
    }
}

impl Drop for Held {
    #[inline]
    fn drop(&mut self) {
        let depth = DEPTH.with(|d| {
            d.set(d.get().saturating_sub(1));
            d.get()
        });
        if depth == 0 && PENDING.with(Cell::get) {
            if let Some((baton, tid)) = current() {
                baton.preempt(tid);
            }
        }
    }
}
