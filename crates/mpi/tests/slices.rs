//! Run-to-completion tasks at their edges. A slice task has no thread: each
//! slice runs on the thread of whichever task hands its task the baton;
//! there it must not park — that is refused by name — a panic in it is its
//! own task's panic, and a task it wakes with an earlier clock takes the
//! baton exactly where a thread of its own would have handed it over.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use papyrus_mpi::{
    Communicator, Message, RankCtx, RecvSrc, RecvTag, Slice, Task, World, WorldConfig,
};
use parking_lot::{Condvar, Mutex};

const REQ: u32 = 1;
const REPLY: u32 = 2;

/// The name of the OS thread running the caller.
fn thread_name() -> String {
    std::thread::current().name().unwrap_or_default().to_string()
}

/// A run-to-completion helper of `ctx`'s rank: each slice takes one `REQ`
/// off `req` and hands it to `serve`. A request taken after its slice
/// yielded waits for the next.
fn helper<F>(ctx: &RankCtx, req: Communicator, mut serve: F) -> Task<()>
where
    F: FnMut(&Message) -> Slice + Send + 'static,
{
    let mut held = None;
    ctx.spawn_slices(format!("helper-{}", ctx.rank()), move || {
        let next = held.take().or_else(|| req.take_unstamped(RecvSrc::Any, RecvTag::Tag(REQ)));
        let Some(m) = next else { return Slice::Parked };
        if Slice::yielded() {
            held = Some(m);
            return Slice::Ran;
        }
        serve(&m)
    })
}

/// A helper has no thread of its own: on a one-rank world its every slice,
/// the first included, runs on the thread of the rank that spawned it —
/// here once that rank parks to join it.
#[test]
fn a_slice_tasks_first_slice_runs_on_its_spawners_thread() {
    let out = World::run(WorldConfig::for_tests(1), |ctx| {
        let req = ctx.world().dup();
        let threads: Arc<Mutex<Vec<String>>> = Arc::default();
        let log = threads.clone();
        let helper = helper(&ctx, req.clone(), move |m| {
            log.lock().push(thread_name());
            if m.payload.is_empty() {
                Slice::Exit
            } else {
                Slice::Ran
            }
        });
        req.send(0, REQ, Bytes::from_static(b"one"));
        req.send(0, REQ, Bytes::new());
        helper.join().expect("helper");
        let threads = threads.lock().clone();
        threads
    });
    assert_eq!(out[0], ["rank-0", "rank-0"]);
}

/// On a one-rank world, a helper is handed `request` — its first unit of
/// work — on the thread of the rank that joins it. Returns the helper's
/// panic message, the line it parked at, and what the rank did after the
/// join.
fn lent_slice_panics(request: &'static [u8]) -> (String, u32, Option<u8>) {
    let parked_at = Arc::new(AtomicU32::new(0));
    let at = parked_at.clone();
    let out = World::run(WorldConfig::for_tests(1), move |ctx| {
        let req = ctx.world().dup();
        let at = at.clone();
        let helper = helper(&ctx, req.clone(), move |m| {
            let (lock, cv) = (Mutex::new(()), Condvar::new());
            match &m.payload[..] {
                b"park" => {
                    let mut g = lock.lock();
                    // ordering: a record for after the world; nothing is published.
                    at.store(line!() + 1, Ordering::Relaxed);
                    cv.wait(&mut g);
                }
                _ => panic!("boom"),
            }
            Slice::Ran
        });
        req.send(0, REQ, Bytes::from_static(request));
        let err = helper.join().expect_err("the helper's slice panicked");
        let msg = err.downcast_ref::<String>().cloned();
        let msg = msg.or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()));
        // The rank the slice ran on carries on.
        ctx.world().send(0, 9, Bytes::from_static(&[7]));
        let after = ctx.world().recv(RecvSrc::Rank(0), RecvTag::Tag(9)).payload.first().copied();
        (msg.unwrap_or_default(), after)
    });
    let (msg, after) = out.into_iter().next().expect("one rank");
    // ordering: read after the world's threads were joined.
    (msg, parked_at.load(Ordering::Relaxed), after)
}

/// Refused even in the helper's first slice: there is no thread of its own
/// to fall back to.
#[test]
fn a_slice_that_parks_on_a_lent_thread_is_refused_by_name() {
    let (msg, line, after) = lent_slice_panics(b"park");
    let site = format!("helper-0 parked at {}:{line}:", file!());
    assert!(msg.contains(&site), "names the task and its site ({site}): {msg}");
    assert!(msg.contains("on another task's thread"), "{msg}");
    assert_eq!(after, Some(7));
}

#[test]
fn a_slice_that_panics_is_its_tasks_panic() {
    let (msg, _, after) = lent_slice_panics(b"boom");
    assert_eq!(msg, "boom", "the join carries the slice's own payload");
    assert_eq!(after, Some(7));
}

/// Three tasks: rank 0 requests, rank 1's helper serves, and rank 1's own
/// task waits on a flag the helper's `mark` sets. That task's clock is
/// earlier than the requester's, so the helper must hand it the baton at the
/// flag's release — inside a slice that runs on the requester's thread,
/// whose own guard, held across its park, must not hide the preemption
/// point — before serving the `get` queued behind the mark. `slices`: the
/// helper is a run-to-completion task; otherwise a thread of its own.
/// Returns the steps and the thread the mark was served on.
fn three_tasks(slices: bool) -> (Vec<&'static str>, String) {
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::default();
    let mark_thread: Arc<Mutex<String>> = Arc::default();
    let (out, marked) = (log.clone(), mark_thread.clone());
    World::run(WorldConfig::for_tests(2), move |ctx| {
        let (req, rep) = (ctx.world().dup(), ctx.world().dup());
        if ctx.rank() == 0 {
            ctx.world().barrier();
            req.send(1, REQ, Bytes::from_static(b"ping"));
            rep.recv(RecvSrc::Rank(1), RecvTag::Tag(REPLY));
            ctx.clock().advance(1_000);
            req.send(1, REQ, Bytes::from_static(b"mark"));
            req.send(1, REQ, Bytes::from_static(b"get"));
            rep.recv(RecvSrc::Rank(1), RecvTag::Tag(REPLY));
            log.lock().push("rank 0: reply");
            req.send(1, REQ, Bytes::from_static(b"stop"));
            return;
        }
        let flag = Arc::new((Mutex::new(false), Condvar::new()));
        let (log2, flag2, marked) = (log.clone(), flag.clone(), mark_thread.clone());
        let serve = move |m: &Message| match &m.payload[..] {
            b"ping" | b"get" => {
                log2.lock().push(if m.payload[0] == b'p' { "helper: ping" } else { "helper: get" });
                rep.send(0, REPLY, Bytes::new());
                Slice::Ran
            }
            b"mark" => {
                log2.lock().push("helper: mark");
                *marked.lock() = thread_name();
                let mut set = flag2.0.lock();
                *set = true;
                flag2.1.notify_all();
                drop(set);
                Slice::Ran
            }
            _ => Slice::Exit,
        };
        let helper = if slices {
            helper(&ctx, req, serve)
        } else {
            ctx.spawn("helper-1".into(), move || loop {
                let m = req.recv_unstamped(RecvSrc::Any, RecvTag::Tag(REQ));
                if serve(&m) == Slice::Exit {
                    return;
                }
            })
        };
        ctx.world().barrier();
        let mut set = flag.0.lock();
        while !*set {
            flag.1.wait(&mut set);
        }
        drop(set);
        log.lock().push("rank 1: woken");
        helper.join().expect("helper");
    });
    let log = out.lock().clone();
    let marked = marked.lock().clone();
    (log, marked)
}

#[test]
fn a_task_woken_mid_slice_runs_where_a_thread_would_hand_over() {
    let (lent, marked) = three_tasks(true);
    let (threaded, _) = three_tasks(false);
    assert_eq!(marked, "rank-0", "the mark is served on the requester's thread");
    assert_eq!(lent, threaded, "the same steps as a helper with a thread of its own");
    assert_eq!(
        lent,
        ["helper: ping", "helper: mark", "rank 1: woken", "helper: get", "rank 0: reply"],
    );
}

/// A finished task lets go of its body, which can own its own world: the
/// message handler's owns the runtime context, which owns the fabric,
/// which owns the world's scheduler, which keeps every task.
#[test]
fn a_finished_task_lets_go_of_its_body() {
    let held = Arc::new(());
    let mine = held.clone();
    World::run(WorldConfig::for_tests(1), move |ctx| {
        let req = ctx.world().dup();
        let (world, body) = (ctx.clone(), mine.clone());
        let helper = helper(&ctx, req.clone(), move |_| {
            let _ = (&world, &body);
            Slice::Exit
        });
        req.send(0, REQ, Bytes::new());
        helper.join().expect("helper");
    });
    assert_eq!(Arc::strong_count(&held), 1, "the helper's body outlived the world");
}

/// A delivery wakes only its own communicator's receivers: a helper
/// enlisted on comm B runs no slice when rank 0 sends to its rank on comm A,
/// and one when rank 0 sends on B. Returns the helper's slice count when it
/// took the message on B.
#[test]
fn a_delivery_wakes_only_its_own_communicators_receivers() {
    const READY: u32 = 1;
    const ON_A: u32 = 2;
    const ACK: u32 = 3;
    const ON_B: u32 = 4;
    const COUNT: u32 = 5;
    let out = World::run(WorldConfig::for_tests(2), |ctx| {
        let (w, a, b) = (ctx.world().clone(), ctx.world().dup(), ctx.world().dup());
        if ctx.rank() == 0 {
            w.recv(RecvSrc::Rank(1), RecvTag::Tag(READY));
            a.send(1, ON_A, Bytes::new());
            // Any task the send woke now orders before this rank, so it runs
            // before the ack comes back.
            ctx.clock().advance(1_000_000);
            w.recv(RecvSrc::Rank(1), RecvTag::Tag(ACK));
            b.send(1, ON_B, Bytes::new());
            return w.recv(RecvSrc::Rank(1), RecvTag::Tag(COUNT)).payload[0];
        }
        let (to_rank_0, mut slices) = (w.clone(), 0u8);
        let helper = ctx.spawn_slices("helper-1".into(), move || {
            slices += 1;
            if slices == 1 {
                to_rank_0.send(0, READY, Bytes::new());
            }
            match b.take_unstamped(RecvSrc::Any, RecvTag::Any) {
                None => Slice::Parked,
                Some(_) => {
                    to_rank_0.send(0, COUNT, Bytes::from(vec![slices]));
                    Slice::Exit
                }
            }
        });
        a.recv(RecvSrc::Rank(0), RecvTag::Tag(ON_A));
        w.send(0, ACK, Bytes::new());
        helper.join().expect("helper");
        0
    });
    assert_eq!(out[0], 2, "one slice to enlist on B, one for the message on B");
}
