//! A task of a world parks holding no lock guard but the one its wait lets
//! go of: the scheduler refuses any other park by name, because the task
//! granted next could block on the held lock where no verdict sees it. This
//! is the run-time twin of lint's `blocking-under-lock`, on in every world.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use papyrus_mpi::{panic_message, RecvSrc, RecvTag, World, WorldConfig};
use parking_lot::{Condvar, Mutex};

const TAG: u32 = 9;

/// How the rank parks.
#[derive(Clone, Copy)]
enum Park {
    /// On a condvar, with a second guard held besides the condvar's mutex.
    Wait,
    /// In a fabric receive.
    Recv,
    /// In a join of a task.
    Join,
}

/// On a one-rank world, the rank takes a guard and then parks as `park`
/// says, on what a helper it spawned answers: a notify, a message, or its
/// own exit. Without the refusal the world would finish cleanly, the helper
/// running at the park. Returns the world's panic message and the line the
/// rank parked at.
fn park_under_a_guard(park: Park) -> (String, u32) {
    let parked_at = Arc::new(AtomicU32::new(0));
    let at = parked_at.clone();
    let run = std::panic::catch_unwind(move || {
        World::run(WorldConfig::for_tests(1), move |ctx| {
            let flag = Arc::new((Mutex::new(false), Condvar::new()));
            let (world, set) = (ctx.world().clone(), flag.clone());
            let helper = ctx.spawn("helper-0".into(), move || match park {
                Park::Wait => {
                    *set.0.lock() = true;
                    set.1.notify_all();
                }
                Park::Recv => world.send(0, TAG, Bytes::new()),
                Park::Join => {}
            });
            let outer = Mutex::new(());
            let _outer = outer.lock();
            // ordering: a record for after the world; nothing is published.
            let here = |line| at.store(line, Ordering::Relaxed);
            match park {
                Park::Wait => {
                    let mut set = flag.0.lock();
                    here(line!() + 2);
                    while !*set {
                        flag.1.wait(&mut set);
                    }
                }
                Park::Recv => {
                    here(line!() + 1);
                    ctx.world().recv(RecvSrc::Rank(0), RecvTag::Tag(TAG));
                }
                Park::Join => {
                    here(line!() + 1);
                    helper.join().expect("helper");
                }
            }
        })
    });
    let err = run.expect_err("a park under a second guard fails the world");
    // ordering: read after the world's threads were joined.
    (panic_message(&*err), parked_at.load(Ordering::Relaxed))
}

fn assert_refused(park: Park) {
    let (msg, line) = park_under_a_guard(park);
    let site = format!("rank-0 parked at {}:{line}:", file!());
    assert!(msg.contains(&site), "names the task and its site ({site}): {msg}");
    assert!(msg.contains("holding a lock guard"), "{msg}");
}

#[test]
fn a_condvar_wait_under_a_second_guard_is_refused_by_name() {
    assert_refused(Park::Wait);
}

#[test]
fn a_fabric_receive_under_a_guard_is_refused_by_name() {
    assert_refused(Park::Recv);
}

#[test]
fn a_join_under_a_guard_is_refused_by_name() {
    assert_refused(Park::Join);
}
