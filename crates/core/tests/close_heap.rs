//! What a closed or destroyed database leaves on the heap, counted exactly
//! by a global allocator that keeps each thread's live bytes.
//!
//! A context keeps every database it opened, closed ones too, so that ids
//! stay valid. What a closed one held in memory — MemTables, the local
//! cache's values, each SSTable reader's fence index and filter and the
//! SSData image a reader that wrote its table keeps — must go with the
//! close: a job that opens and destroys databases in turn would otherwise
//! hold every one of them until it finalizes.

mod heap;

use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::{BarrierLevel, CompactionTrigger, Context, Db, OpenFlags, Options, Platform};

use heap::{held, live};

/// Heap a closed database may keep beyond what the store holds: its
/// shell in the context (name, options, telemetry handles, empty maps) and
/// the store's index of its objects, 2.3–2.8 KiB. The cache's 240 KiB of
/// values, or the SSData a reader keeps, do not fit.
const SHELL: i64 = 8 << 10;

/// Bytes of every object in the repository store of rank 0.
fn stored(platform: &Platform) -> i64 {
    let store = platform.storage.nvm_of(0);
    let len = |path: &String| store.backend().len(path).unwrap_or(0);
    store.list("").iter().map(len).sum::<u64>() as i64
}

/// On a 1-rank world: open a database, flush three tables of 80 records of
/// 1 KiB (merges off, so all three stay live), fill the local cache with a
/// get of every record, then `end` it. Returns the heap the open through
/// the end left live on the rank's thread, and the bytes the store holds
/// at the end.
fn left_by(end: fn(&Db)) -> (i64, i64) {
    let platform = Platform::new(SystemProfile::test_profile(), 1);
    let out = World::run(WorldConfig::for_tests(1), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://heap").expect("init");
        // A first database makes what a context makes once — its list of
        // databases, the telemetry names a database interns — so the
        // count below sees only what one database holds.
        let warm = ctx.open("warm", OpenFlags::create(), Options::default()).expect("open");
        warm.destroy().expect("destroy").wait();
        drop(warm);
        let opt = Options {
            compaction_trigger: CompactionTrigger::Off,
            local_cache_capacity: 1 << 20,
            ..Options::default()
        };
        let value = vec![b'v'; 1024];
        let ((), left) = held(|| {
            let db = ctx.open("db", OpenFlags::create(), opt).expect("open");
            for table in 0..3 {
                for i in 0..80 {
                    db.put(format!("key{table}-{i:03}").as_bytes(), &value).expect("put");
                }
                db.barrier(BarrierLevel::SsTable).expect("flush");
            }
            assert_eq!(db.sstable_count(), 3);
            let cached = live();
            for table in 0..3 {
                for i in 0..80 {
                    db.get(format!("key{table}-{i:03}").as_bytes()).expect("get");
                }
            }
            assert!(live() - cached > 240 << 10, "the gets filled the cache");
            end(&db);
        });
        let stored = stored(&platform);
        ctx.finalize().expect("finalize");
        (left, stored)
    });
    out[0]
}

#[test]
fn a_destroyed_database_frees_what_it_held() {
    let (left, stored) = left_by(|db| {
        db.destroy().expect("destroy").wait();
    });
    assert_eq!(stored, 0, "destroy leaves no object");
    assert!(left < SHELL, "a destroyed database left {left} B live");
}

#[test]
fn a_closed_database_keeps_only_its_tables_on_nvm() {
    let (left, stored) = left_by(|db| db.close().expect("close"));
    assert!(stored > 3 * 80 * 1024, "the tables stay for a reopen");
    assert!(left < stored + SHELL, "a closed database left {left} B live, {stored} B of it stored");
}
