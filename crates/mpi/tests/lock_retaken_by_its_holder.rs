//! A task of a world may not take a lock it already holds: a std mutex taken
//! again by its holder blocks that thread, outside the scheduler, where no
//! verdict sees it. The acquire is refused before it blocks, with a panic
//! naming the task, the lock and both sites.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use papyrus_mpi::{panic_message, World, WorldConfig};
use parking_lot::Mutex;

#[test]
fn a_mutex_retaken_by_its_holder_is_refused_by_name() {
    // On a one-rank world, the rank takes a lock and then takes it again,
    // the second acquire on the line after the first.
    let first = Arc::new(AtomicU32::new(0));
    let at = first.clone();
    let run = std::panic::catch_unwind(move || {
        World::run(WorldConfig::for_tests(1), move |_| {
            let m = Mutex::new(0);
            // ordering: a record for after the world; nothing is published.
            at.store(line!() + 1, Ordering::Relaxed);
            let _held = m.lock();
            let _again = m.lock();
        })
    });
    let err = run.expect_err("a lock re-taken by its holder fails the world");
    // ordering: read after the world's threads were joined.
    let (msg, line) = (panic_message(&*err), first.load(Ordering::Relaxed));
    let again = format!("rank-0 took parking_lot::native::Mutex<i32> at {}:{}:", file!(), line + 1);
    assert!(msg.contains(&again), "names the task, the lock and its site ({again}): {msg}");
    let since = format!("which it already holds since {}:{line}:", file!());
    assert!(msg.contains(&since), "names the holding site ({since}): {msg}");
}
