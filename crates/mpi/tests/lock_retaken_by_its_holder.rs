//! A task of a world may not take a lock it already holds: a std lock taken
//! again by its holder blocks that thread (std says a second `read` may),
//! outside the scheduler, where no verdict sees it. The acquire is refused
//! before it blocks, with a panic naming the task, the lock and both sites.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use papyrus_mpi::{panic_message, World, WorldConfig};
use parking_lot::{Mutex, RwLock};

/// How the rank takes its lock, twice.
#[derive(Clone, Copy)]
enum Retake {
    LockLock,
    ReadWrite,
    ReadRead,
}

/// On a one-rank world, the rank takes a lock and then takes it again as
/// `how` says, the second acquire on the line after the first. Returns the
/// world's panic message and the line of the first acquire.
fn retake(how: Retake) -> (String, u32) {
    let first = Arc::new(AtomicU32::new(0));
    let at = first.clone();
    let run = std::panic::catch_unwind(move || {
        World::run(WorldConfig::for_tests(1), move |_| {
            let (m, l) = (Mutex::new(0), RwLock::new(0));
            // ordering: a record for after the world; nothing is published.
            let here = |line| at.store(line, Ordering::Relaxed);
            match how {
                Retake::LockLock => {
                    here(line!() + 1);
                    let _held = m.lock();
                    let _again = m.lock();
                }
                Retake::ReadWrite => {
                    here(line!() + 1);
                    let _held = l.read();
                    let _again = l.write();
                }
                Retake::ReadRead => {
                    here(line!() + 1);
                    let _held = l.read();
                    let _again = l.read();
                }
            }
        })
    });
    let err = run.expect_err("a lock re-taken by its holder fails the world");
    // ordering: read after the world's threads were joined.
    (panic_message(&*err), first.load(Ordering::Relaxed))
}

fn assert_refused(how: Retake, lock: &str) {
    let (msg, line) = retake(how);
    let again = format!("rank-0 took parking_lot::native::{lock} at {}:{}:", file!(), line + 1);
    assert!(msg.contains(&again), "names the task, the lock and its site ({again}): {msg}");
    let since = format!("which it already holds since {}:{line}:", file!());
    assert!(msg.contains(&since), "names the holding site ({since}): {msg}");
}

#[test]
fn a_mutex_retaken_by_its_holder_is_refused_by_name() {
    assert_refused(Retake::LockLock, "Mutex<i32>");
}

#[test]
fn a_write_under_its_own_read_is_refused_by_name() {
    assert_refused(Retake::ReadWrite, "RwLock<i32>");
}

#[test]
fn a_read_under_its_own_read_is_refused_by_name() {
    assert_refused(Retake::ReadRead, "RwLock<i32>");
}
