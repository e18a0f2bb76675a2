//! Lockdep-style lock-order analysis.
//!
//! The `compat/parking_lot` shim calls these hooks around every lock
//! operation. Each thread keeps a stack of currently-held locks; a global
//! directed graph records "lock A was held while lock B was acquired"
//! edges between lock *instances* (keyed by address), with the acquisition
//! sites (`file:line:col` of the caller, via `#[track_caller]`) kept as
//! edge metadata. When a new edge closes a cycle, a
//! [`ViolationKind::LockOrderCycle`] is reported with both acquisition
//! sites and the reverse-order chain already in the graph — i.e. a
//! potential ABBA deadlock, even if this particular run never interleaved
//! fatally.
//!
//! The graph spans every lock of the process — two worlds in one process
//! can order the same pair of locks — so its findings cannot belong to one
//! world: they are kept beside the graph and handed out by
//! [`take_findings`]. `World::run` drains them at finalize when the gate is
//! on and fails the job on any, as it does on an unmatched send.
//!
//! Additional checks:
//! - acquiring an exclusive lock already held by the same thread
//!   ([`ViolationKind::RecursiveLock`] — a guaranteed deadlock on the
//!   std-backed shim); same-thread read/read recursion is permitted and
//!   excluded from the graph,
//! - entering a `Condvar` wait while holding a second lock
//!   ([`ViolationKind::CondvarHoldingLock`] — the second lock stays held
//!   across the sleep and inverts with whoever must signal),
//! - dropping a guard on a different thread than the one that acquired it
//!   ([`ViolationKind::GuardCrossThread`]).
//!
//! These hooks are **unconditional**: the `PAPYRUS_SANITY` gate is checked
//! by the instrumented call sites (one relaxed atomic load when off), not
//! here. Successful `try_lock`s are pushed onto the held stack without
//! adding graph edges — a non-blocking acquisition cannot deadlock, but the
//! locks it holds still order later blocking acquisitions.
//!
//! Known limitation: the shim's constructors are `const fn`, so there is no
//! creation hook and ordering state is keyed by lock address. If the
//! allocator reuses a dropped lock's address, stale edges are attributed to
//! the new lock and can in principle report a spurious cycle. In this
//! workspace the ordered locks are long-lived (per-`Db`, per-`Fabric`
//! state), so this has not been observed; reports include addresses so a
//! suspect cycle can be checked against lock lifetimes.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::panic::Location;
use std::sync::{Mutex, OnceLock};
use std::thread::ThreadId;

use crate::{Violation, ViolationKind};

/// How a lock is being acquired; read acquisitions are shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `Mutex::lock` / `try_lock`.
    Mutex,
    /// `RwLock::read` / `try_read` (shared; same-thread recursion allowed).
    Read,
    /// `RwLock::write` / `try_write`.
    Write,
}

impl LockKind {
    fn exclusive(self) -> bool {
        !matches!(self, LockKind::Read)
    }
}

/// One entry on a thread's held-lock stack.
#[derive(Clone, Copy)]
struct Held {
    addr: usize,
    site: u32,
    kind: LockKind,
}

thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
}

/// An order edge: while `from` (addr) was held, `to` (addr) was acquired.
#[derive(Clone, Copy)]
struct Edge {
    to: usize,
    from_site: u32,
    to_site: u32,
}

struct State {
    site_ids: HashMap<(&'static str, u32, u32), u32>,
    site_names: Vec<String>,
    edges: HashMap<usize, Vec<Edge>>,
    seen_edges: HashSet<(usize, usize)>,
    /// Everything reported since the last [`take_findings`].
    findings: Vec<Violation>,
}

static STATE: OnceLock<Mutex<State>> = OnceLock::new();

fn state() -> std::sync::MutexGuard<'static, State> {
    STATE
        .get_or_init(|| {
            Mutex::new(State {
                site_ids: HashMap::new(),
                site_names: Vec::new(),
                edges: HashMap::new(),
                seen_edges: HashSet::new(),
                findings: Vec::new(),
            })
        })
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Keep a finding for [`take_findings`], echoed to stderr so it is visible
/// even when nothing drains the list.
fn report(st: &mut State, kind: ViolationKind, detail: String) {
    eprintln!("papyrus-sanity[{}]: {detail}", kind.name());
    st.findings.push(Violation { kind, detail });
}

/// Drain the lock-order findings of this process: everything the hooks
/// reported since the last call.
pub fn take_findings() -> Vec<Violation> {
    std::mem::take(&mut state().findings)
}

fn intern(st: &mut State, loc: &'static Location<'static>) -> u32 {
    let key = (loc.file(), loc.line(), loc.column());
    if let Some(&id) = st.site_ids.get(&key) {
        return id;
    }
    let id = st.site_names.len() as u32;
    st.site_names.push(format!("{}:{}:{}", loc.file(), loc.line(), loc.column()));
    st.site_ids.insert(key, id);
    id
}

/// Iterative DFS over addr edges: a path `from -> ... -> to`, as the list
/// of edges walked, if one exists.
fn find_path(
    edges: &HashMap<usize, Vec<Edge>>,
    from: usize,
    to: usize,
) -> Option<Vec<(usize, Edge)>> {
    let mut parent: HashMap<usize, (usize, Edge)> = HashMap::new();
    let mut stack = vec![from];
    let mut visited: HashSet<usize> = HashSet::new();
    visited.insert(from);
    while let Some(node) = stack.pop() {
        if node == to {
            let mut path = Vec::new();
            let mut cur = to;
            while cur != from {
                let (prev, edge) = parent[&cur];
                path.push((prev, edge));
                cur = prev;
            }
            path.reverse();
            return Some(path);
        }
        for &edge in edges.get(&node).into_iter().flatten() {
            if visited.insert(edge.to) {
                parent.insert(edge.to, (node, edge));
                stack.push(edge.to);
            }
        }
    }
    None
}

fn snapshot_held() -> Vec<Held> {
    HELD.with(|h| h.borrow().clone())
}

/// Called before a blocking acquisition. Interns the caller's site, checks
/// same-thread recursion, adds lock-order edges from every held lock, and
/// reports any cycle those edges close. Returns the site ID to pass to
/// [`on_acquired`] once the lock is actually obtained.
#[track_caller]
pub fn on_acquire_attempt(addr: usize, kind: LockKind) -> u32 {
    let loc = Location::caller();
    let held = snapshot_held();
    let mut st = state();
    let site = intern(&mut st, loc);
    let mut recursion_reported = false;
    for h in &held {
        if h.addr == addr {
            // Read/read recursion is fine; anything else self-deadlocks
            // on the std-backed shim. Either way, no graph edge. One
            // report per attempt, even if several guards are held.
            if (kind.exclusive() || h.kind.exclusive()) && !recursion_reported {
                recursion_reported = true;
                let detail = format!(
                    "recursive acquisition of lock 0x{addr:x}: held since {} ({:?}), \
                     re-acquired at {} ({kind:?})",
                    st.site_names[h.site as usize], h.kind, st.site_names[site as usize]
                );
                report(&mut st, ViolationKind::RecursiveLock, detail);
            }
            continue;
        }
        if !st.seen_edges.insert((h.addr, addr)) {
            continue;
        }
        // New edge h.addr -> addr: does the graph already order these
        // locks the other way? If so the pair can deadlock (ABBA).
        if let Some(path) = find_path(&st.edges, addr, h.addr) {
            let chain = path
                .iter()
                .map(|(from, e)| {
                    format!(
                        "0x{from:x}@{} -> 0x{:x}@{}",
                        st.site_names[e.from_site as usize],
                        e.to,
                        st.site_names[e.to_site as usize]
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let detail = format!(
                "lock-order cycle: acquiring lock 0x{addr:x} at {} while holding \
                 lock 0x{:x} taken at {}, but the reverse order already exists: {chain}",
                st.site_names[site as usize], h.addr, st.site_names[h.site as usize]
            );
            report(&mut st, ViolationKind::LockOrderCycle, detail);
        }
        st.edges.entry(h.addr).or_default().push(Edge {
            to: addr,
            from_site: h.site,
            to_site: site,
        });
    }
    site
}

/// Called after a blocking acquisition succeeds; pushes the lock onto the
/// calling thread's held stack.
pub fn on_acquired(addr: usize, site: u32, kind: LockKind) {
    // try_with: tolerate hooks firing from TLS destructors during thread
    // teardown (the stack is gone, and so is the thread's ordering state).
    let _ = HELD.try_with(|h| h.borrow_mut().push(Held { addr, site, kind }));
}

/// Called after a successful `try_*` acquisition: interns the site and
/// pushes the held entry, but adds no ordering edges — a non-blocking
/// attempt cannot participate in a deadlock as the waiter.
#[track_caller]
pub fn on_try_acquired(addr: usize, kind: LockKind) {
    let loc = Location::caller();
    let site = intern(&mut state(), loc);
    on_acquired(addr, site, kind);
}

/// Called when a guard drops, with the thread that acquired it: a drop on
/// any other thread is reported ([`ViolationKind::GuardCrossThread`]).
/// Pops the topmost held entry for `addr` on this thread; returns false if
/// none was found (guard acquired while the gate was off, or released on a
/// different thread).
pub fn on_release(addr: usize, owner: ThreadId) -> bool {
    if std::thread::current().id() != owner {
        let detail = format!("lock guard for 0x{addr:x} released on a different thread");
        report(&mut state(), ViolationKind::GuardCrossThread, detail);
    }
    pop_held(addr)
}

fn pop_held(addr: usize) -> bool {
    HELD.try_with(|h| {
        let mut held = h.borrow_mut();
        match held.iter().rposition(|e| e.addr == addr) {
            Some(idx) => {
                held.remove(idx);
                true
            }
            None => false,
        }
    })
    .unwrap_or(false)
}

/// Called as a `Condvar` wait releases `mutex_addr`. Any *other* lock still
/// held across the sleep is reported (the waiter keeps it while blocking on
/// a wakeup that may need it). Pops the mutex's held entry and returns it
/// for [`on_condvar_wait_end`] to restore.
pub fn on_condvar_wait_begin(mutex_addr: usize) -> Option<(u32, LockKind)> {
    let held = snapshot_held();
    let entry = held.iter().rposition(|e| e.addr == mutex_addr).map(|i| held[i]);
    let others: Vec<Held> = held.iter().filter(|e| e.addr != mutex_addr).copied().collect();
    if !others.is_empty() {
        let mut st = state();
        for o in &others {
            let waiting = entry
                .map(|e| st.site_names[e.site as usize].clone())
                .unwrap_or_else(|| format!("0x{mutex_addr:x}"));
            let detail = format!(
                "condvar wait on mutex taken at {waiting} while still holding lock \
                 0x{:x} taken at {} ({:?})",
                o.addr, st.site_names[o.site as usize], o.kind
            );
            report(&mut st, ViolationKind::CondvarHoldingLock, detail);
        }
    }
    let entry = entry?;
    pop_held(mutex_addr);
    Some((entry.site, entry.kind))
}

/// Called after a `Condvar` wait reacquires the mutex: restores the held
/// entry popped by [`on_condvar_wait_begin`].
pub fn on_condvar_wait_end(mutex_addr: usize, token: Option<(u32, LockKind)>) {
    if let Some((site, kind)) = token {
        on_acquired(mutex_addr, site, kind);
    }
}

/// The calling thread's held-lock stack, set aside while the thread runs a
/// slice of another world task ([`set_aside`]); dropping it puts it back.
pub struct SetAside(Vec<Held>);

/// Set the calling thread's held-lock stack aside: what runs next orders
/// its locks from an empty stack of its own, not from the locks of the task
/// it interrupted.
pub fn set_aside() -> SetAside {
    SetAside(HELD.with(|h| std::mem::take(&mut *h.borrow_mut())))
}

impl Drop for SetAside {
    fn drop(&mut self) {
        let _ = HELD.try_with(|h| *h.borrow_mut() = std::mem::take(&mut self.0));
    }
}

/// Clear the global order graph and the calling thread's held stack.
/// Test-only: the graph deliberately persists across lock lifetimes, so a
/// test that seeds a poisoned order must clean up after itself.
#[doc(hidden)]
pub fn reset_for_tests() {
    let mut st = state();
    st.edges.clear();
    st.seen_edges.clear();
    let _ = HELD.try_with(|h| h.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ViolationKind;

    // The hooks are unconditional (gating lives in the instrumented call
    // sites), so these tests drive the detector directly and never touch
    // the global PAPYRUS_SANITY gate. The order graph and its findings are
    // process-global and the tests run in parallel, so each test uses lock
    // addresses unique to it (far below any heap address) and reads the
    // findings that mention them without draining the list.

    #[track_caller]
    fn acquire(addr: usize, kind: LockKind) -> u32 {
        let site = on_acquire_attempt(addr, kind);
        on_acquired(addr, site, kind);
        site
    }

    fn on_release(addr: usize) -> bool {
        super::on_release(addr, std::thread::current().id())
    }

    fn site_name(site: u32) -> String {
        state().site_names[site as usize].clone()
    }

    fn held_count() -> usize {
        HELD.with(|h| h.borrow().len())
    }

    fn reports_mentioning(kind: ViolationKind, addr: usize) -> Vec<String> {
        let needle = format!("0x{addr:x}");
        state()
            .findings
            .iter()
            .filter(|v| v.kind == kind && v.detail.contains(&needle))
            .map(|v| v.detail.clone())
            .collect()
    }

    #[test]
    fn abba_order_reported_with_both_sites() {
        let (a, b) = (0x1000_usize, 0x1008_usize);
        // Thread-order A then B...
        let _sa1 = acquire(a, LockKind::Mutex);
        let sb1 = acquire(b, LockKind::Mutex);
        assert!(on_release(b));
        assert!(on_release(a));
        // ...then B then A: closes the cycle.
        let sb2 = acquire(b, LockKind::Mutex);
        let sa2 = acquire(a, LockKind::Mutex);
        assert!(on_release(a));
        assert!(on_release(b));
        let cycles = reports_mentioning(ViolationKind::LockOrderCycle, a);
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        // Both acquisition sites of the offending pair appear in the report.
        assert!(cycles[0].contains(&site_name(sa2)), "{}", cycles[0]);
        assert!(cycles[0].contains(&site_name(sb2)), "{}", cycles[0]);
        // ...as does the previously-recorded reverse chain.
        assert!(cycles[0].contains(&site_name(sb1)), "{}", cycles[0]);
    }

    #[test]
    fn consistent_order_is_clean() {
        let (a, b) = (0x2000_usize, 0x2008_usize);
        for _ in 0..3 {
            acquire(a, LockKind::Mutex);
            acquire(b, LockKind::Write);
            assert!(on_release(b));
            assert!(on_release(a));
        }
        assert!(reports_mentioning(ViolationKind::LockOrderCycle, a).is_empty());
        assert!(reports_mentioning(ViolationKind::LockOrderCycle, b).is_empty());
    }

    #[test]
    fn recursive_exclusive_reported_read_read_allowed() {
        let a = 0x3000_usize;
        acquire(a, LockKind::Read);
        acquire(a, LockKind::Read); // fine: shared recursion
        assert!(reports_mentioning(ViolationKind::RecursiveLock, a).is_empty());
        acquire(a, LockKind::Write); // self-deadlock candidate
        assert_eq!(reports_mentioning(ViolationKind::RecursiveLock, a).len(), 1);
        on_release(a);
        on_release(a);
        on_release(a);
    }

    #[test]
    fn three_lock_cycle_found_through_path() {
        let (a, b, c) = (0x4000_usize, 0x4008_usize, 0x4010_usize);
        acquire(a, LockKind::Mutex);
        acquire(b, LockKind::Mutex);
        on_release(b);
        on_release(a);
        acquire(b, LockKind::Mutex);
        acquire(c, LockKind::Mutex);
        on_release(c);
        on_release(b);
        // c -> a closes the three-lock cycle a -> b -> c -> a.
        acquire(c, LockKind::Mutex);
        acquire(a, LockKind::Mutex);
        on_release(a);
        on_release(c);
        let cycles = reports_mentioning(ViolationKind::LockOrderCycle, c);
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert!(cycles[0].contains("0x4008"), "path goes through b: {}", cycles[0]);
    }

    #[test]
    fn condvar_wait_with_extra_lock_reported() {
        let (m, extra) = (0x5000_usize, 0x5008_usize);
        acquire(extra, LockKind::Mutex);
        acquire(m, LockKind::Mutex);
        let token = on_condvar_wait_begin(m);
        assert!(token.is_some());
        assert_eq!(reports_mentioning(ViolationKind::CondvarHoldingLock, extra).len(), 1);
        assert_eq!(held_count(), 1); // mutex popped across the sleep
        on_condvar_wait_end(m, token);
        assert_eq!(held_count(), 2);
        on_release(m);
        on_release(extra);
    }

    #[test]
    fn condvar_wait_alone_is_clean() {
        let m = 0x6000_usize;
        acquire(m, LockKind::Mutex);
        let token = on_condvar_wait_begin(m);
        on_condvar_wait_end(m, token);
        on_release(m);
        assert!(reports_mentioning(ViolationKind::CondvarHoldingLock, m).is_empty());
    }

    #[test]
    fn try_acquire_tracks_held_but_adds_no_edges() {
        let (a, b) = (0x7000_usize, 0x7008_usize);
        // Establish b -> a via blocking acquisitions.
        acquire(b, LockKind::Mutex);
        acquire(a, LockKind::Mutex);
        on_release(a);
        on_release(b);
        // a (try) then b (try): were these blocking, a -> b would close a
        // cycle; try-acquisitions must not.
        on_try_acquired(a, LockKind::Mutex);
        on_try_acquired(b, LockKind::Mutex);
        assert_eq!(held_count(), 2);
        on_release(b);
        on_release(a);
        assert!(reports_mentioning(ViolationKind::LockOrderCycle, a).is_empty());
    }

    #[test]
    fn release_without_entry_is_tolerated() {
        assert!(!on_release(0x8000));
        assert!(reports_mentioning(ViolationKind::GuardCrossThread, 0x8000).is_empty());
    }

    #[test]
    fn release_on_another_thread_is_reported() {
        let owner = std::thread::spawn(|| std::thread::current().id()).join().unwrap();
        assert!(!super::on_release(0x9000, owner));
        assert_eq!(reports_mentioning(ViolationKind::GuardCrossThread, 0x9000).len(), 1);
    }
}
