//! End-to-end tests of the PapyrusKV runtime: SPMD worlds of thread-ranks
//! exercising the full put/get/delete, consistency, storage-group,
//! zero-copy, and checkpoint/restart machinery.

use std::sync::Arc;

use papyrus_faultinject::{FaultEvent, FaultPlan};
use papyrus_mpi::{Grants, World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyrus_telemetry::Registry;
use papyruskv::{
    BarrierLevel, Consistency, Context, Error, OpenFlags, Options, Platform, Protection,
};

/// Run `f` on an `n`-rank test world with free cost models.
fn run_world<T, F>(n: usize, repo: &str, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(&Context, &papyruskv::Db) -> T + Send + Sync + 'static,
{
    let platform = Platform::new(SystemProfile::test_profile(), n);
    let repo = format!("nvm://{repo}");
    World::run(WorldConfig::for_tests(n), move |rank| {
        let ctx = Context::init(rank, platform.clone(), &repo).unwrap();
        let db = ctx.open("testdb", OpenFlags::create(), Options::small()).unwrap();
        let out = f(&ctx, &db);
        db.close().unwrap();
        ctx.finalize().unwrap();
        out
    })
}

#[test]
fn put_get_single_rank() {
    run_world(1, "t-single", |_ctx, db| {
        db.put(b"hello", b"world").unwrap();
        assert_eq!(&db.get(b"hello").unwrap()[..], b"world");
        assert_eq!(db.get(b"missing").unwrap_err(), Error::NotFound);
    });
}

/// Two 4-rank worlds run side by side in one process and come out exactly
/// as each other: every world hands one baton among its own tasks in
/// virtual-time order, whatever the host does with the other world's
/// threads. Relaxed puts all go to remote owners, gets read remote keys,
/// and a flushing barrier sits between them.
#[test]
#[allow(clippy::disallowed_methods, reason = "the test races OS threads outside any world")]
fn concurrent_worlds_repeat_each_other_exactly() {
    fn job() -> Vec<(u64, Vec<Vec<u8>>)> {
        let profile = SystemProfile::summitdev();
        let platform = Platform::new(profile.clone(), 4);
        World::run(WorldConfig::new(4, profile.net), move |rank| {
            let ctx = Context::init(rank, platform.clone(), "nvm://twins").unwrap();
            // Key `w<r>-…` was written by rank r and is owned by rank r+1.
            let owner = |k: &[u8]| u64::from(k[1] - b'0' + 1) % 4;
            let opt = Options::small().with_custom_hash(Arc::new(owner));
            let db = ctx.open("db", OpenFlags::create(), opt).unwrap();
            let me = ctx.rank();
            for i in 0..300 {
                db.put(format!("w{me}-{i}").as_bytes(), &[i as u8; 200]).unwrap();
            }
            db.barrier(BarrierLevel::SsTable).unwrap();
            let peer = (me + 1) % 4; // its keys live on rank me+2
            let values = (0..300)
                .step_by(7)
                .map(|i| db.get(format!("w{peer}-{i}").as_bytes()).unwrap().to_vec())
                .collect();
            db.close().unwrap();
            ctx.finalize().unwrap();
            (ctx.now(), values)
        })
    }
    let twins = [std::thread::spawn(job), std::thread::spawn(job)];
    let [a, b] = twins.map(|t| t.join().unwrap());
    assert!(a.iter().all(|(now, values)| *now > 0 && values.len() == 43));
    assert_eq!(a, b, "per-rank clocks and values");
}

#[test]
fn put_get_across_ranks_relaxed_with_barrier() {
    run_world(4, "t-relaxed", |ctx, db| {
        // Every rank writes 50 keys; ownership is hash-scattered.
        for i in 0..50 {
            let k = format!("r{}-k{}", ctx.rank(), i);
            let v = format!("value-{}-{}", ctx.rank(), i);
            db.put(k.as_bytes(), v.as_bytes()).unwrap();
        }
        db.barrier(BarrierLevel::MemTable).unwrap();
        // Every rank reads every key, local or remote.
        for r in 0..ctx.size() {
            for i in 0..50 {
                let k = format!("r{r}-k{i}");
                let want = format!("value-{r}-{i}");
                assert_eq!(&db.get(k.as_bytes()).unwrap()[..], want.as_bytes(), "key {k}");
            }
        }
    });
}

#[test]
fn sequential_mode_immediately_visible() {
    let platform = Platform::new(SystemProfile::test_profile(), 3);
    World::run(WorldConfig::for_tests(3), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-seq").unwrap();
        let opt = Options::small().with_consistency(Consistency::Sequential);
        let db = ctx.open("db", OpenFlags::create(), opt).unwrap();
        // Rank 0 writes everything synchronously, then signals; other ranks
        // wait and read — no barrier needed in sequential mode.
        if ctx.rank() == 0 {
            for i in 0..40 {
                db.put(format!("sk{i}").as_bytes(), format!("sv{i}").as_bytes()).unwrap();
            }
            ctx.signal_notify(7, &[1, 2]).unwrap();
        } else {
            ctx.signal_wait(7, &[0]).unwrap();
            for i in 0..40 {
                assert_eq!(
                    &db.get(format!("sk{i}").as_bytes()).unwrap()[..],
                    format!("sv{i}").as_bytes()
                );
            }
        }
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
}

#[test]
fn delete_tombstones_across_ranks() {
    run_world(4, "t-del", |ctx, db| {
        if ctx.rank() == 0 {
            for i in 0..30 {
                db.put(format!("d{i}").as_bytes(), b"alive").unwrap();
            }
        }
        db.barrier(BarrierLevel::MemTable).unwrap();
        if ctx.rank() == 1 {
            for i in 0..30 {
                if i % 2 == 0 {
                    db.delete(format!("d{i}").as_bytes()).unwrap();
                }
            }
        }
        db.barrier(BarrierLevel::MemTable).unwrap();
        for i in 0..30 {
            let r = db.get(format!("d{i}").as_bytes());
            if i % 2 == 0 {
                assert_eq!(r.unwrap_err(), Error::NotFound, "d{i} should be deleted");
            } else {
                assert_eq!(&r.unwrap()[..], b"alive", "d{i} should survive");
            }
        }
    });
}

#[test]
fn flushes_create_sstables_and_reads_survive() {
    run_world(2, "t-flush", |ctx, db| {
        // Options::small has a 4 KiB MemTable; write ~40 KiB per rank.
        let value = vec![b'x'; 200];
        for i in 0..200 {
            db.put(format!("r{}-f{i}", ctx.rank()).as_bytes(), &value).unwrap();
        }
        db.barrier(BarrierLevel::SsTable).unwrap();
        assert!(db.sstable_count() >= 1, "flushes must have produced SSTables");
        assert_eq!(db.memtable_bytes(), 0, "SSTable barrier must empty the MemTable");
        for r in 0..ctx.size() {
            for i in (0..200).step_by(13) {
                let got = db.get(format!("r{r}-f{i}").as_bytes()).unwrap();
                assert_eq!(got.len(), 200);
            }
        }
    });
}

#[test]
fn updates_overwrite_across_sstables() {
    run_world(1, "t-update", |_ctx, db| {
        for round in 0..5 {
            for i in 0..50 {
                let v = format!("round{round}-{}", "p".repeat(100));
                db.put(format!("u{i}").as_bytes(), v.as_bytes()).unwrap();
            }
            db.barrier(BarrierLevel::SsTable).unwrap();
        }
        for i in 0..50 {
            let got = db.get(format!("u{i}").as_bytes()).unwrap();
            assert!(got.starts_with(b"round4-"), "latest round must win");
        }
    });
}

#[test]
fn compaction_merges_sstables() {
    let platform = Platform::new(SystemProfile::test_profile(), 1);
    World::run(WorldConfig::for_tests(1), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-compact").unwrap();
        let opt = Options::small();
        let db = ctx.open("db", OpenFlags::create(), opt).unwrap();
        let value = vec![b'y'; 400];
        for i in 0..400 {
            db.put(format!("c{i:04}").as_bytes(), &value).unwrap();
        }
        db.barrier(BarrierLevel::SsTable).unwrap();
        // With fan-in 4 and many flushes, merges must have kept the live
        // set well below the total number of flushes.
        assert!(
            db.sstable_count() < 8,
            "compaction should bound live SSTables, got {}",
            db.sstable_count()
        );
        for i in (0..400).step_by(37) {
            assert_eq!(db.get(format!("c{i:04}").as_bytes()).unwrap().len(), 400);
        }
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
}

#[test]
fn zero_copy_reopen_same_job() {
    // Figure 5(a): two application phases in one job reuse the SSTables.
    let platform = Platform::new(SystemProfile::test_profile(), 2);
    World::run(WorldConfig::for_tests(2), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-zerocopy").unwrap();
        // "Application 1": write and close.
        let db = ctx.open("shared", OpenFlags::create(), Options::small()).unwrap();
        for i in 0..60 {
            db.put(format!("z{i}").as_bytes(), format!("zv{i}").as_bytes()).unwrap();
        }
        db.close().unwrap();
        // "Application 2": reopen by name; data composed from SSTables.
        let db2 = ctx.open("shared", OpenFlags::create(), Options::small()).unwrap();
        assert!(db2.sstable_count() >= 1, "reopen must compose from SSTables");
        for i in 0..60 {
            assert_eq!(
                &db2.get(format!("z{i}").as_bytes()).unwrap()[..],
                format!("zv{i}").as_bytes()
            );
        }
        db2.close().unwrap();
        ctx.finalize().unwrap();
    });
}

#[test]
fn exclusive_open_of_existing_db_fails() {
    let platform = Platform::new(SystemProfile::test_profile(), 1);
    World::run(WorldConfig::for_tests(1), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-excl").unwrap();
        let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        db.put(b"k", b"v").unwrap();
        db.close().unwrap();
        let err = ctx.open("db", OpenFlags::create_new(), Options::small()).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)));
        ctx.finalize().unwrap();
    });
}

#[test]
fn open_missing_without_create_fails() {
    let platform = Platform::new(SystemProfile::test_profile(), 1);
    World::run(WorldConfig::for_tests(1), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-nocreate").unwrap();
        let err = ctx.open("ghost", OpenFlags::default(), Options::small()).unwrap_err();
        assert_eq!(err, Error::NotFound);
        ctx.finalize().unwrap();
    });
}

#[test]
fn checkpoint_restart_same_ranks() {
    let platform = Platform::new(SystemProfile::test_profile(), 3);
    World::run(WorldConfig::for_tests(3), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-cr").unwrap();
        let db = ctx.open("cr", OpenFlags::create(), Options::small()).unwrap();
        for i in 0..90 {
            db.put(format!("cr{i}").as_bytes(), format!("crv{i}").as_bytes()).unwrap();
        }
        let ev = db.checkpoint("pfs-snap").unwrap();
        ev.wait();
        assert!(ev.is_done());
        db.destroy().unwrap();

        // Simulate the job-end NVM trim (§4): scratch is gone, PFS survives.
        // One rank trims, fenced by collective barriers so the trim cannot
        // race other ranks' restart copies.
        ctx.barrier_all();
        if ctx.rank() == 0 {
            platform.storage.trim_nvm();
        }
        ctx.barrier_all();

        let (db2, ev2) =
            ctx.restart("pfs-snap", "cr", OpenFlags::create(), Options::small(), false).unwrap();
        ev2.wait();
        for i in 0..90 {
            assert_eq!(
                &db2.get(format!("cr{i}").as_bytes()).unwrap()[..],
                format!("crv{i}").as_bytes()
            );
        }
        db2.close().unwrap();
        ctx.finalize().unwrap();
    });
}

#[test]
fn checkpoint_restart_with_forced_redistribution() {
    let platform = Platform::new(SystemProfile::test_profile(), 4);
    World::run(WorldConfig::for_tests(4), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-rd").unwrap();
        let db = ctx.open("rd", OpenFlags::create(), Options::small()).unwrap();
        for i in 0..80 {
            let k = format!("rd-{}-{i}", ctx.rank());
            db.put(k.as_bytes(), format!("val{i}").as_bytes()).unwrap();
        }
        // Include deletions so tombstones survive the snapshot correctly.
        db.barrier(BarrierLevel::MemTable).unwrap();
        if ctx.rank() == 0 {
            db.delete(b"rd-1-0").unwrap();
        }
        let ev = db.checkpoint("rd-snap").unwrap();
        ev.wait();
        db.destroy().unwrap();
        ctx.barrier_all();
        if ctx.rank() == 0 {
            platform.storage.trim_nvm();
        }
        ctx.barrier_all();

        // Same rank count but force the redistribution path (the paper's
        // Figure 10 "RD" evaluation forces it too).
        let (db2, ev2) =
            ctx.restart("rd-snap", "rd", OpenFlags::create(), Options::small(), true).unwrap();
        ev2.wait();
        for r in 0..4 {
            for i in 0..80 {
                let k = format!("rd-{r}-{i}");
                let res = db2.get(k.as_bytes());
                if k == "rd-1-0" {
                    assert_eq!(res.unwrap_err(), Error::NotFound);
                } else {
                    assert_eq!(&res.unwrap()[..], format!("val{i}").as_bytes(), "key {k}");
                }
            }
        }
        db2.close().unwrap();
        ctx.finalize().unwrap();
    });
}

#[test]
fn protect_readonly_rejects_writes_and_enables_remote_cache() {
    let platform = Platform::new(SystemProfile::test_profile(), 2);
    World::run(WorldConfig::for_tests(2), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-prot").unwrap();
        let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        for i in 0..20 {
            db.put(format!("p{i}").as_bytes(), b"v").unwrap();
        }
        db.barrier(BarrierLevel::MemTable).unwrap();
        db.protect(Protection::ReadOnly).unwrap();
        assert_eq!(db.protection(), Protection::ReadOnly);
        assert_eq!(db.put(b"new", b"x").unwrap_err(), Error::Protected);
        assert_eq!(db.delete(b"p0").unwrap_err(), Error::Protected);
        // Repeated remote reads: the second pass must hit the remote cache.
        for _pass in 0..2 {
            for i in 0..20 {
                assert_eq!(&db.get(format!("p{i}").as_bytes()).unwrap()[..], b"v");
            }
        }
        let hits_ro = db.get_stats().hits();
        db.protect(Protection::ReadWrite).unwrap();
        db.put(b"new", b"x").unwrap();
        assert!(hits_ro > 0, "read-only phase must produce remote-cache hits");
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
}

#[test]
fn protect_writeonly_skips_cache() {
    run_world(1, "t-wronly", |_ctx, db| {
        db.put(b"w", b"1").unwrap();
        db.protect(Protection::WriteOnly).unwrap();
        for i in 0..10 {
            db.put(format!("w{i}").as_bytes(), b"2").unwrap();
        }
        db.protect(Protection::ReadWrite).unwrap();
        assert_eq!(&db.get(b"w5").unwrap()[..], b"2");
    });
}

#[test]
fn consistency_switch_mid_run() {
    run_world(2, "t-switch", |ctx, db| {
        assert_eq!(db.consistency(), Consistency::Relaxed);
        for i in 0..10 {
            db.put(format!("a{i}").as_bytes(), b"1").unwrap();
        }
        db.set_consistency(Consistency::Sequential).unwrap();
        assert_eq!(db.consistency(), Consistency::Sequential);
        // The switch is a barrier: relaxed-phase data is now visible.
        for i in 0..10 {
            assert_eq!(&db.get(format!("a{i}").as_bytes()).unwrap()[..], b"1");
        }
        for i in 0..10 {
            db.put(format!("b{}-{i}", ctx.rank()).as_bytes(), b"2").unwrap();
        }
        db.barrier(BarrierLevel::MemTable).unwrap();
        for r in 0..ctx.size() {
            for i in 0..10 {
                assert_eq!(&db.get(format!("b{r}-{i}").as_bytes()).unwrap()[..], b"2");
            }
        }
    });
}

#[test]
fn custom_hash_controls_ownership() {
    let platform = Platform::new(SystemProfile::test_profile(), 4);
    World::run(WorldConfig::for_tests(4), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-hash").unwrap();
        // Key "k<r>" is owned by rank r: hash = first digit.
        let opt = Options::small().with_custom_hash(Arc::new(|key: &[u8]| (key[1] - b'0') as u64));
        let db = ctx.open("db", OpenFlags::create(), opt).unwrap();
        for r in 0..4 {
            assert_eq!(db.owner_of(format!("k{r}").as_bytes()), r);
        }
        if ctx.rank() == 0 {
            for r in 0..4 {
                db.put(format!("k{r}").as_bytes(), b"owned").unwrap();
            }
        }
        db.barrier(BarrierLevel::MemTable).unwrap();
        // Each rank holds exactly its own key in its local stack.
        let k = format!("k{}", ctx.rank());
        assert_eq!(&db.get(k.as_bytes()).unwrap()[..], b"owned");
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
}

#[test]
fn storage_group_shared_sstable_reads() {
    // All 4 ranks in one physical+logical storage group: remote gets of
    // flushed data take the SearchShared path (§2.7).
    let platform = Platform::with_physical_groups(SystemProfile::test_profile(), 4, 4);
    World::run(WorldConfig::for_tests(4), move |rank| {
        let ctx = Context::init_with_group(rank, platform.clone(), "nvm://t-sg", 4).unwrap();
        let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        let value = vec![b'g'; 300];
        for i in 0..100 {
            db.put(format!("sg{}-{i}", ctx.rank()).as_bytes(), &value).unwrap();
        }
        // Flush everything to SSTables so gets must go through storage.
        db.barrier(BarrierLevel::SsTable).unwrap();
        for r in 0..ctx.size() {
            for i in (0..100).step_by(9) {
                let got = db.get(format!("sg{r}-{i}").as_bytes()).unwrap();
                assert_eq!(got.len(), 300);
            }
        }
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
}

#[test]
fn fence_makes_remote_puts_visible_to_owner() {
    let platform = Platform::new(SystemProfile::test_profile(), 2);
    World::run(WorldConfig::for_tests(2), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-fence").unwrap();
        let opt = Options::small().with_custom_hash(Arc::new(|_k: &[u8]| 1)); // rank 1 owns all
        let db = ctx.open("db", OpenFlags::create(), opt).unwrap();
        if ctx.rank() == 0 {
            db.put(b"fenced", b"yes").unwrap();
            db.fence().unwrap(); // push it to rank 1 now
                                 // The fence left nothing staged here, so the owner answers; its
                                 // handler serves this get after the migration (one FIFO channel).
            assert_eq!(&db.get(b"fenced").unwrap()[..], b"yes");
            ctx.signal_notify(1, &[1]).unwrap();
        } else {
            ctx.signal_wait(1, &[0]).unwrap();
            // Owner-local read sees the migrated pair: the signal left rank 0
            // after the owner's handler had ingested it.
            assert_eq!(&db.get(b"fenced").unwrap()[..], b"yes");
        }
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
}

#[test]
fn operations_after_close_fail() {
    let platform = Platform::new(SystemProfile::test_profile(), 1);
    World::run(WorldConfig::for_tests(1), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-closed").unwrap();
        let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        db.put(b"k", b"v").unwrap();
        db.close().unwrap();
        assert_eq!(db.put(b"k", b"v").unwrap_err(), Error::InvalidDb);
        assert_eq!(db.get(b"k").unwrap_err(), Error::InvalidDb);
        assert_eq!(db.fence().unwrap_err(), Error::InvalidDb);
        // Double close is idempotent.
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
}

#[test]
fn empty_keys_rejected() {
    run_world(1, "t-emptykey", |_ctx, db| {
        assert!(matches!(db.put(b"", b"v").unwrap_err(), Error::InvalidArgument(_)));
        assert!(matches!(db.get(b"").unwrap_err(), Error::InvalidArgument(_)));
    });
}

#[test]
fn multiple_databases_independent() {
    let platform = Platform::new(SystemProfile::test_profile(), 2);
    World::run(WorldConfig::for_tests(2), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-multi").unwrap();
        let a = ctx.open("alpha", OpenFlags::create(), Options::small()).unwrap();
        let b = ctx
            .open(
                "beta",
                OpenFlags::create(),
                Options::small().with_consistency(Consistency::Sequential),
            )
            .unwrap();
        a.put(format!("k{}", ctx.rank()).as_bytes(), b"A").unwrap();
        b.put(format!("k{}", ctx.rank()).as_bytes(), b"B").unwrap();
        a.barrier(BarrierLevel::MemTable).unwrap();
        b.barrier(BarrierLevel::MemTable).unwrap();
        for r in 0..2 {
            assert_eq!(&a.get(format!("k{r}").as_bytes()).unwrap()[..], b"A");
            assert_eq!(&b.get(format!("k{r}").as_bytes()).unwrap()[..], b"B");
        }
        assert_eq!(a.consistency(), Consistency::Relaxed);
        assert_eq!(b.consistency(), Consistency::Sequential);
        a.close().unwrap();
        b.close().unwrap();
        ctx.finalize().unwrap();
    });
}

#[test]
fn get_opt_maps_not_found_to_none() {
    run_world(1, "t-getopt", |_ctx, db| {
        db.put(b"present", b"1").unwrap();
        assert!(db.get_opt(b"present").unwrap().is_some());
        assert!(db.get_opt(b"absent").unwrap().is_none());
    });
}

#[test]
fn large_values_roundtrip_remote() {
    run_world(2, "t-large", |ctx, db| {
        let big = vec![0xAB; 128 * 1024];
        if ctx.rank() == 0 {
            for i in 0..4 {
                db.put(format!("big{i}").as_bytes(), &big).unwrap();
            }
        }
        db.barrier(BarrierLevel::MemTable).unwrap();
        for i in 0..4 {
            let got = db.get(format!("big{i}").as_bytes()).unwrap();
            assert_eq!(got.len(), 128 * 1024);
            assert!(got.iter().all(|&b| b == 0xAB));
        }
    });
}

#[test]
fn virtual_time_advances_with_work() {
    // Real device models: puts and barriers must cost virtual time.
    let platform = Platform::new(SystemProfile::summitdev(), 2);
    let cfg = WorldConfig::new(2, SystemProfile::summitdev().net);
    let times = World::run(cfg, move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-time").unwrap();
        let db = ctx
            .open("db", OpenFlags::create(), Options::default().with_memtable_capacity(1 << 20))
            .unwrap();
        let value = vec![1u8; 64 * 1024];
        for i in 0..100 {
            db.put(format!("t{}-{i}", ctx.rank()).as_bytes(), &value).unwrap();
        }
        let before_barrier = ctx.now();
        db.barrier(BarrierLevel::SsTable).unwrap();
        let after_barrier = ctx.now();
        db.close().unwrap();
        ctx.finalize().unwrap();
        (before_barrier, after_barrier)
    });
    for (before, after) in times {
        assert!(before > 0, "puts must cost virtual time");
        assert!(after > before, "SSTable barrier must add flush I/O time");
    }
}

/// `Options::bloom_filter` decides whether a get consults the SSTables'
/// filters: on, a definite miss is settled in memory (`kv.bloom.neg`
/// counts it); off, every SSTable is searched on NVM and nothing is
/// counted. The absent keys interleave the present ones (`present7x`
/// sorts inside the tables' range): a key below a table's first is settled
/// by the fence index with no read, filter or not.
#[test]
fn bloom_filter_option_decides_the_probe() {
    const RANKS: usize = 6;
    const PROBE: usize = RANKS - 1;
    let misses = |bloom: bool| -> (u64, u64) {
        let profile = SystemProfile::summitdev();
        let platform = Platform::new(profile.clone(), RANKS);
        let tel = Arc::new(Registry::with_enabled(true));
        let world = WorldConfig::new(RANKS, profile.net).with_telemetry(tel);
        let out = World::run(world, move |rank| {
            let repo = format!("nvm://t-bloom-{bloom}");
            let ctx = Context::init(rank, platform.clone(), &repo).unwrap();
            let opt = Options::small().with_bloom_filter(bloom);
            let db = ctx.open("db", OpenFlags::create(), opt).unwrap();
            let mine = |suffix: &str| -> Vec<String> {
                let keys = (0..600).map(|i| format!("present{i}{suffix}"));
                keys.filter(|k| db.owner_of(k.as_bytes()) == ctx.rank()).collect()
            };
            for k in mine("") {
                db.put(k.as_bytes(), &[7u8; 64]).unwrap();
            }
            db.barrier(BarrierLevel::SsTable).unwrap();
            assert!(db.sstable_count() >= 1, "the probes must reach SSTables");
            let neg = ctx.telemetry().counter(PROBE as u32, "kv.bloom.neg");
            let (t0, n0) = (ctx.now(), neg.get());
            if ctx.rank() == PROBE {
                for k in mine("x") {
                    assert_eq!(db.get(k.as_bytes()).unwrap_err(), Error::NotFound);
                }
            }
            let out = (ctx.now() - t0, neg.get() - n0);
            db.close().unwrap();
            ctx.finalize().unwrap();
            out
        });
        out[PROBE]
    };
    let (on_ns, on_neg) = misses(true);
    let (off_ns, off_neg) = misses(false);
    assert!(on_neg > 0, "bloom on: definite misses are settled by the filter");
    assert_eq!(off_neg, 0, "bloom off: the filter is never consulted");
    assert!(off_ns > on_ns, "bloom off must search NVM on a miss: on {on_ns} ns, off {off_ns} ns");
}

/// The message handler has no thread: it runs on the thread that hands it
/// the baton. Once warm, a remote get served from the owner's cache hands
/// the baton to no other OS thread: the requester parks for the reply, runs
/// the owner's GET_REQ arm itself, and is granted back the baton it gave
/// up. (A handler with a thread of its own cost two hand-offs a get:
/// requester → handler → requester.) The dispatcher has no thread either:
/// a fence's migrations ship on the thread of the rank that waits for them,
/// and their MIGRATEs are served on whichever thread grants the handler, as
/// every other request is. (A dispatcher thread cost two hand-offs a
/// migration, rank → dispatcher → rank, and the get queued behind four of
/// them two more.)
#[test]
fn a_warm_remote_get_hands_the_baton_to_no_thread() {
    let platform = Platform::new(SystemProfile::test_profile(), 2);
    World::run(WorldConfig::for_tests(2), move |rank| {
        let fabric = rank.fabric().clone();
        let ctx = Context::init(rank, platform.clone(), "nvm://t-lent").unwrap();
        let mut opt = Options::small().with_custom_hash(Arc::new(|_k: &[u8]| 1));
        opt.local_cache_capacity = 1 << 20;
        let db = ctx.open("db", OpenFlags::create(), opt).unwrap();
        let key = |i: usize| format!("k{}", i % 64);
        if ctx.rank() == 1 {
            (0..64).for_each(|i| db.put(key(i).as_bytes(), b"v").unwrap());
        }
        db.barrier(BarrierLevel::SsTable).unwrap();
        if ctx.rank() == 1 {
            (0..64).for_each(|i| assert_eq!(&db.get(key(i).as_bytes()).unwrap()[..], b"v"));
        }
        ctx.barrier_all();
        if ctx.rank() == 0 {
            let get = |i| assert_eq!(&db.get(key(i).as_bytes()).unwrap()[..], b"v");
            (0..64).for_each(get);
            let warm = fabric.grants();
            (0..1000).for_each(get);
            let gets = fabric.grants();
            assert_eq!(gets.handed, warm.handed, "a warm remote get wakes no thread");
            assert_eq!(gets.inline - warm.inline, 2000, "the handler's slice, then the requester");
            for i in 0..256 {
                db.put(format!("p{i}").as_bytes(), &[b'w'; 32]).unwrap();
            }
            db.fence().unwrap();
            let fenced = fabric.grants();
            assert_eq!(fenced.handed - gets.handed, 0, "four migrations wake no thread");
            // Served after the MIGRATEs (one FIFO channel), on the
            // requester's thread, as the MIGRATEs and the flushes their
            // ingest yields to were.
            assert_eq!(&db.get(b"p255").unwrap()[..], &[b'w'; 32]);
            assert_eq!(fabric.grants().handed - fenced.handed, 0);
        }
        ctx.barrier_all();
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
}

/// The compaction task has no thread either: at one rank, a flush runs on
/// the thread of the rank that waits for it, and hands the baton to no other.
/// (A compaction thread cost two hand-offs a flush: rank → compaction →
/// rank.)
#[test]
fn a_one_rank_flush_hands_the_baton_to_no_thread() {
    let platform = Platform::new(SystemProfile::test_profile(), 1);
    World::run(WorldConfig::for_tests(1), move |rank| {
        let fabric = rank.fabric().clone();
        let ctx = Context::init(rank, platform.clone(), "nvm://t-flush").unwrap();
        let mut opt = Options::small();
        opt.memtable_capacity = 4096;
        let db = ctx.open("db", OpenFlags::create(), opt).unwrap();
        let before = fabric.grants();
        (0..256).for_each(|i| db.put(format!("f{i}").as_bytes(), &[b'f'; 100]).unwrap());
        db.barrier(BarrierLevel::SsTable).unwrap();
        assert_eq!(fabric.grants().handed, before.handed, "a flush wakes no thread");
        assert!(db.sstable_count() > 0, "the puts flushed");
        all_readable(&db, "f", 256, &[b'f'; 100]);
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
}

/// Options under which the owner's MemTable holds a few 100-byte records
/// and its flush queue one MemTable, and every key is `owner`'s.
fn one_slot(owner: usize) -> Options {
    let mut opt = Options::small().with_custom_hash(Arc::new(move |_k: &[u8]| owner as u64));
    (opt.memtable_capacity, opt.remote_memtable_capacity, opt.flush_queue_len) = (1024, 1 << 20, 1);
    opt
}

/// Every rank reads back `n` keys `{prefix}{i}` of value `value`; the owner's
/// database is audit-clean.
fn all_readable(db: &papyruskv::Db, prefix: &str, n: usize, value: &[u8]) {
    for i in 0..n {
        assert_eq!(&db.get(format!("{prefix}{i}").as_bytes()).unwrap()[..], value, "key {i}");
    }
    let audit = papyruskv::sanity::audit_db(db);
    assert!(audit.is_clean(), "{}", audit.render());
}

/// One MIGRATE batch fills the owner's MemTable many times over, into a
/// flush queue of one slot. The owner, running first (a lower rank at an
/// equal clock), freezes a MemTable of its own a virtual second ahead, so
/// its compaction task flushes only once the world's clocks reach that
/// second: the ingest stalls at its first freeze, enlists for the slot on
/// the thread it was lent, and goes on when the flush frees it.
#[test]
fn a_migrate_that_stalls_mid_batch_waits_for_its_slot_without_parking() {
    const RANKS: usize = 8;
    const OWNER: usize = 6;
    const WRITER: usize = 7;
    let platform = Platform::new(SystemProfile::test_profile(), RANKS);
    let tel = Arc::new(Registry::with_enabled(true));
    World::run(WorldConfig::for_tests(RANKS).with_telemetry(tel), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-stall").unwrap();
        let db = ctx.open("db", OpenFlags::create(), one_slot(OWNER)).unwrap();
        let stalls = ctx.telemetry().counter(OWNER as u32, "kv.freeze.stall");
        let before = stalls.get();
        if ctx.rank() == OWNER {
            ctx.clock().advance(1_000_000_000);
            (0..12).for_each(|i| db.put(format!("own{i}").as_bytes(), &[b'o'; 100]).unwrap());
        }
        if ctx.rank() == WRITER {
            (0..200).for_each(|i| db.put(format!("m{i}").as_bytes(), &[b'm'; 100]).unwrap());
        }
        db.barrier(BarrierLevel::SsTable).unwrap();
        all_readable(&db, "m", 200, &[b'm'; 100]);
        if ctx.rank() == OWNER {
            assert!(stalls.get() > before, "the ingest found the flush queue full");
        }
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
}

/// Sequential puts to a remote owner whose MemTable fills every few
/// records. A PUT_SYNC that freezes wakes the compaction task, which orders
/// first, so the ingest's slice ends at the push; its ack, a second wake,
/// goes out in the handler's next slice — sent in the same one, it would be
/// refused with a panic ("woke … after the preemption point").
#[test]
fn a_put_sync_whose_freeze_yields_acks_in_its_next_slice() {
    let platform = Platform::new(SystemProfile::test_profile(), 2);
    World::run(WorldConfig::for_tests(2), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-sync-yield").unwrap();
        let opt = one_slot(1).with_consistency(Consistency::Sequential);
        let db = ctx.open("db", OpenFlags::create(), opt).unwrap();
        if ctx.rank() == 0 {
            (0..64).for_each(|i| db.put(format!("s{i}").as_bytes(), &[b's'; 100]).unwrap());
        }
        db.barrier(BarrierLevel::SsTable).unwrap();
        all_readable(&db, "s", 64, &[b's'; 100]);
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
}

/// A two-rank world armed to kill rank `victim` at 1 s opens a database
/// whose key `a` rank 1 owns; rank 1 then leaves the job, and rank 0 runs
/// `f` at 2 s, past the kill. Returns what `f` saw and the world's
/// time-outs so far.
fn past_a_kill<T, F>(victim: usize, f: F) -> (T, u64)
where
    T: Send + 'static,
    F: Fn(&papyruskv::Db) -> T + Send + Sync + 'static,
{
    let kill = FaultEvent::RankKill { rank: victim, at: 1_000_000_000 };
    let plan = Arc::new(FaultPlan::with_events(1, vec![kill]));
    let platform = Platform::new(SystemProfile::test_profile(), 2);
    let mut out = World::run(WorldConfig::for_tests(2).with_faults(plan), move |rank| {
        let fabric = rank.fabric().clone();
        let ctx = Context::init(rank, platform.clone(), "nvm://kill").unwrap();
        let owner = |k: &[u8]| u64::from(k == b"a");
        let opt = Options::small().with_custom_hash(Arc::new(owner));
        let db = ctx.open("db", OpenFlags::create(), opt).unwrap();
        // Neither rank closes: a dead or degraded rank abandons the job.
        (ctx.rank() == 0).then(|| {
            ctx.clock().advance(2_000_000_000);
            (f(&db), fabric.grants().timed_out)
        })
    });
    out.remove(0).expect("rank 0 ran `f`")
}

/// Past its own kill time a rank hears no reply — its request and any
/// answer to it vanish — so its first timed-out request names itself,
/// instead of retrying into a world with nothing left to wake.
#[test]
fn a_dead_ranks_request_names_itself() {
    let (got, timed_out) = past_a_kill(0, |db| db.get(b"a"));
    assert_eq!(got.unwrap_err(), Error::RankUnavailable(0));
    assert_eq!(timed_out, 1);
}

/// Once the failure detector has confirmed a rank dead, a request to it
/// fails at once: only the first get to the dead owner waits.
#[test]
fn a_confirmed_death_fails_later_requests_at_once() {
    let (got, timed_out) = past_a_kill(1, |db| [db.get(b"a"), db.get(b"a")]);
    assert_eq!(got.map(Result::unwrap_err), [Error::RankUnavailable(1), Error::RankUnavailable(1)]);
    assert_eq!(timed_out, 1, "the second get did not wait");
}

/// Rank 0 stages two migrations' worth of relaxed puts for rank 1 before
/// one fence, and the network drops the first MIGRATE. The dispatcher waits
/// for no ack: the fence collects both, and resends the dropped batch once.
/// The second batch's ack, which arrives while the first's is awaited, is
/// collected there, not thrown away as stale, so it is not resent too.
#[test]
fn a_dropped_migrate_is_resent_once_by_the_fence() {
    // The window ends at 1 s: a world whose plan never settles has no
    // livelock verdict, and a failed assertion on rank 0 would leave rank 1
    // probing it forever.
    let drop = FaultEvent::NetDrop {
        start: 0,
        end: 1_000_000_000,
        to_rank: Some(1),
        tag: Some(papyruskv::msg::Request::Migrate.tag()),
        budget: 1,
    };
    let plan = Arc::new(FaultPlan::with_events(1, vec![drop]));
    let platform = Platform::new(SystemProfile::test_profile(), 2);
    let tel = Arc::new(Registry::with_enabled(true));
    World::run(WorldConfig::for_tests(2).with_faults(plan).with_telemetry(tel), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-drop").unwrap();
        let opt = Options::small().with_custom_hash(Arc::new(|_k: &[u8]| 1));
        let db = ctx.open("db", OpenFlags::create(), opt).unwrap();
        let tel = ctx.telemetry();
        let (retries, migrations) =
            (tel.counter(0, "rpc_retries"), tel.counter(0, "kv.migrate.count"));
        let before = (retries.get(), migrations.get());
        if ctx.rank() == 0 {
            // 60 records of 100 B fill the 4 KiB staging MemTable once; the
            // fence ships the rest.
            (0..60).for_each(|i| db.put(format!("d{i}").as_bytes(), &[b'd'; 100]).unwrap());
            db.fence().unwrap();
            assert_eq!(migrations.get() - before.1, 2, "two migrations");
            assert_eq!(retries.get() - before.0, 1, "only the dropped batch is resent");
            assert_eq!(db.take_io_errors(), vec![]);
        }
        db.barrier(BarrierLevel::SsTable).unwrap();
        if ctx.rank() == 1 {
            all_readable(&db, "d", 60, &[b'd'; 100]);
        }
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
}

/// A mixed three-rank world's schedule, pinned: relaxed puts to every
/// owner, a fence, then local and remote gets, some answered from SSTables
/// and some from the cache, a flushing barrier and close. A CPU-only change
/// keeps every lock acquire and release, park and wake where it was, so the
/// baton's grants and every rank's clock come out exactly as they did.
#[test]
fn a_mixed_world_keeps_its_schedule() {
    let profile = SystemProfile::summitdev();
    let platform = Platform::new(profile.clone(), 3);
    let out = World::run(WorldConfig::new(3, profile.net), move |rank| {
        let fabric = rank.fabric().clone();
        let ctx = Context::init(rank, platform.clone(), "nvm://t-pin").unwrap();
        // Key `o<r>-…` is owned by rank r.
        let opt = Options::small().with_custom_hash(Arc::new(|k: &[u8]| u64::from(k[1] - b'0')));
        let db = ctx.open("db", OpenFlags::create(), opt).unwrap();
        let me = ctx.rank();
        let key = |i: usize| format!("o{}-{me}-{i}", i % 3);
        (0..90).for_each(|i| db.put(key(i).as_bytes(), &[i as u8; 100]).unwrap());
        db.fence().unwrap();
        let tables = db.sstable_count();
        for _ in 0..2 {
            (0..90)
                .for_each(|i| assert_eq!(&db.get(key(i).as_bytes()).unwrap()[..], &[i as u8; 100]));
        }
        let read = (tables, db.get_stats().hits(), ctx.now());
        db.barrier(BarrierLevel::SsTable).unwrap();
        db.close().unwrap();
        ctx.finalize().unwrap();
        (fabric, ctx.now(), read)
    });
    let grants = out[0].0.grants();
    assert_eq!(grants, Grants { inline: 388, handed: 422, timed_out: 0 });
    // (SSTables after the fence, cache hits, clock after the gets): a
    // second read of a key the first read found in an SSTable hits the
    // cache.
    let reads: Vec<_> = out.iter().map(|(_, _, read)| *read).collect();
    assert_eq!(reads, [(1, 30, 3_487_264), (1, 30, 3_465_599), (1, 30, 3_442_397)]);
    let clocks: Vec<_> = out.iter().map(|(_, now, _)| *now).collect();
    assert_eq!(clocks, [3_806_633; 3]);
}
