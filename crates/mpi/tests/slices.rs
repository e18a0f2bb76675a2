//! Run-to-completion tasks at their edges. A slice runs on the thread of
//! whichever task hands its task the baton; there it must not park — that
//! is refused by name — a panic in it is its own task's panic, and a task
//! it wakes with an earlier clock takes the baton exactly where a thread of
//! its own would have handed it over.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use papyrus_mpi::{
    Communicator, Message, RankCtx, RecvSrc, RecvTag, Slice, Task, World, WorldConfig,
};
use parking_lot::{Condvar, Mutex};

const REQ: u32 = 1;
const REPLY: u32 = 2;

/// A run-to-completion helper of `ctx`'s rank: each slice takes one `REQ`
/// off `req` and hands it to `serve`, told whether the slice runs on a lent
/// thread. A request taken after its slice yielded waits for the next.
fn helper<F>(ctx: &RankCtx, req: Communicator, mut serve: F) -> Task<()>
where
    F: FnMut(&Message, bool) -> Slice + Send + 'static,
{
    let mut held = None;
    ctx.spawn_slices(format!("helper-{}", ctx.rank()), move |lent| {
        let next = held.take().or_else(|| req.take_unstamped(RecvSrc::Any, RecvTag::Tag(REQ)));
        let Some(m) = next else { return Slice::Parked };
        if Slice::yielded() {
            held = Some(m);
            return Slice::Ran;
        }
        serve(&m, lent)
    })
}

/// On a one-rank world, a helper answers a ping on its own thread, then is
/// handed `request` on the thread of the rank that joins it. Returns the
/// helper's panic message and what the rank did after the join.
fn lent_slice_panics(request: &'static [u8]) -> (String, u32, Option<u8>) {
    let parked_at = Arc::new(AtomicU32::new(0));
    let at = parked_at.clone();
    let out = World::run(WorldConfig::for_tests(1), move |ctx| {
        let (req, rep) = (ctx.world().dup(), ctx.world().dup());
        let at = at.clone();
        let replies = rep.clone();
        let helper = helper(&ctx, req.clone(), move |m, _| {
            let (lock, cv) = (Mutex::new(()), Condvar::new());
            match &m.payload[..] {
                b"ping" => replies.send(0, REPLY, Bytes::new()),
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
        req.send(0, REQ, Bytes::from_static(b"ping"));
        rep.recv(RecvSrc::Rank(0), RecvTag::Tag(REPLY));
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
fn three_tasks(slices: bool) -> (Vec<&'static str>, bool) {
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::default();
    let mark_lent = Arc::new(AtomicBool::new(false));
    let (out, lent) = (log.clone(), mark_lent.clone());
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
        let (log2, flag2, lent) = (log.clone(), flag.clone(), mark_lent.clone());
        let serve = move |m: &Message, on_lent: bool| match &m.payload[..] {
            b"ping" | b"get" => {
                log2.lock().push(if m.payload[0] == b'p' { "helper: ping" } else { "helper: get" });
                rep.send(0, REPLY, Bytes::new());
                Slice::Ran
            }
            b"mark" => {
                log2.lock().push("helper: mark");
                // ordering: a record for after the world; nothing is published.
                lent.store(on_lent, Ordering::Relaxed);
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
                if serve(&m, false) == Slice::Exit {
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
    // ordering: read after the world's threads were joined.
    (log, lent.load(Ordering::Relaxed))
}

#[test]
fn a_task_woken_mid_slice_runs_where_a_thread_would_hand_over() {
    let (lent, mark_lent) = three_tasks(true);
    let (threaded, _) = three_tasks(false);
    assert!(mark_lent, "the mark must be served on a lent thread");
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
        let helper = helper(&ctx, req.clone(), move |_, _| {
            let _ = (&world, &body);
            Slice::Exit
        });
        req.send(0, REQ, Bytes::new());
        helper.join().expect("helper");
    });
    assert_eq!(Arc::strong_count(&held), 1, "the helper's body outlived the world");
}
