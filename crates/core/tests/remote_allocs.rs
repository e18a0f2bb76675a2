//! What a warm remote get allocates, counted exactly by a global allocator
//! that keeps each thread's allocations. A rank runs one OS thread, and the
//! owner's message handler serves a get on the thread of the task that
//! hands it the baton, so the caller's thread counts the whole round trip.

#[allow(dead_code, reason = "this binary counts allocations, not live bytes")]
mod heap;

use std::sync::Arc;

use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::{BarrierLevel, Context, OpenFlags, Options, Platform};

use heap::counted;

const KEYS: usize = 1000;

fn key(i: usize) -> Vec<u8> {
    format!("key-{i:05}").into_bytes()
}

/// On a 2-rank world whose keys rank 1 owns: rank 1 puts `KEYS` keys and,
/// if `cached`, flushes them and reads each once into its cache; rank 0
/// gets every key once to warm, then again, counted. The allocations a
/// counted get made, on average.
fn allocs_per_warm_remote_get(cached: bool) -> f64 {
    let platform = Platform::new(SystemProfile::test_profile(), 2);
    let out = World::run(WorldConfig::for_tests(2), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://remote-allocs").expect("init");
        let opt = Options::default().with_custom_hash(Arc::new(|_: &[u8]| 1));
        let db = ctx.open("db", OpenFlags::create(), opt).expect("open");
        if ctx.rank() == 1 {
            (0..KEYS).for_each(|i| db.put(&key(i), b"value").expect("put"));
        }
        if cached {
            db.barrier(BarrierLevel::SsTable).expect("flush");
            if ctx.rank() == 1 {
                (0..KEYS).for_each(|i| assert!(db.get_opt(&key(i)).expect("get").is_some()));
            }
        }
        ctx.barrier_all();
        let mut allocs = 0;
        if ctx.rank() == 0 {
            let keys: Vec<Vec<u8>> = (0..KEYS).map(key).collect();
            let gets = || keys.iter().all(|key| db.get_opt(key).expect("get").is_some());
            assert!(gets());
            let (all, n) = counted(gets);
            assert!(all);
            allocs = n;
        }
        ctx.barrier_all();
        db.close().expect("close");
        ctx.finalize().expect("finalize");
        allocs
    });
    out[0] as f64 / KEYS as f64
}

/// A warm remote get allocates its request and its reply, and nothing
/// else: the handler serves it on one clock of its own, restarted at the
/// request's stamp, and the owner's MemTable or cache hands its value to
/// the reply without a copy of its own.
#[test]
fn a_warm_remote_get_allocates_its_request_and_its_reply() {
    assert_eq!(allocs_per_warm_remote_get(false), 2.0, "an owner's MemTable hit");
    assert_eq!(allocs_per_warm_remote_get(true), 2.0, "an owner's cache hit");
}
