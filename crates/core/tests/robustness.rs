//! Failure-injection and robustness tests: corrupt on-NVM state, missing
//! objects, and lifecycle edge cases must degrade gracefully, never panic.

use bytes::Bytes;
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::{BarrierLevel, Context, Error, OpenFlags, Options, Platform};

#[test]
fn corrupt_manifest_falls_back_to_fresh_database() {
    let platform = Platform::new(SystemProfile::test_profile(), 1);
    World::run(WorldConfig::for_tests(1), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://corrupt-manifest").unwrap();
        // Plant garbage where the manifest would be.
        platform
            .storage
            .nvm_of(0)
            .backend()
            .put("corrupt-manifest/db/r0/MANIFEST", Bytes::from_static(b"!!not a manifest!!"));
        // Open must treat the database as absent (create it fresh).
        let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        db.put(b"k", b"v").unwrap();
        assert_eq!(&db.get(b"k").unwrap()[..], b"v");
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
}

/// A manifest cut short of its end sentinel is lost acknowledged state, and
/// the database that was opened over it says so: the finding is a typed
/// error on that handle — no environment variable, no `force_*` call, just
/// the reopen — and on no other database of the process.
#[test]
fn torn_manifest_is_recorded_as_manifest_corrupt() {
    // A healthy database, reopened by a second world on another thread of
    // this process while the torn one reopens.
    let healthy = || {
        let platform = Platform::new(SystemProfile::test_profile(), 1);
        World::run(WorldConfig::for_tests(1), move |rank| {
            let ctx = Context::init(rank, platform.clone(), "nvm://whole-manifest").unwrap();
            let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
            db.put(b"k", b"v").unwrap();
            db.close().unwrap();
            let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
            assert_eq!(&db.get(b"k").unwrap()[..], b"v");
            db.close().unwrap();
            ctx.finalize().unwrap();
            db.take_io_errors()
        })
    };
    let platform = Platform::new(SystemProfile::test_profile(), 1);
    World::run(WorldConfig::for_tests(1), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://torn-manifest").unwrap();
        let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        db.put(b"k", b"v").unwrap();
        db.close().unwrap();
        assert_eq!(db.take_io_errors(), vec![], "nothing was lost yet");

        let backend = platform.storage.nvm_of(0).backend();
        let manifest = backend.get_all("torn-manifest/db/r0/MANIFEST").unwrap();
        let torn = manifest.slice(..manifest.len() - "ok\n".len());
        backend.put("torn-manifest/db/r0/MANIFEST", torn);

        let bystander = std::thread::spawn(healthy);
        // Recovery salvages the flushed table from its files...
        let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        assert_eq!(&db.get(b"k").unwrap()[..], b"v");
        // ...and the handle says what it found, once.
        let found = db.take_io_errors();
        assert!(
            matches!(&found[..], [Error::DataLoss(what)]
                if what.contains("torn-manifest/db/r0/MANIFEST") && what.contains("torn write")),
            "torn manifest went unreported: {found:?}"
        );
        assert_eq!(db.take_io_errors(), vec![]);
        assert_eq!(bystander.join().unwrap(), vec![vec![]], "another world's db heard of it");
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
}

#[test]
fn corrupt_sstable_files_are_skipped_on_reopen() {
    let platform = Platform::new(SystemProfile::test_profile(), 1);
    World::run(WorldConfig::for_tests(1), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://corrupt-sst").unwrap();
        let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        for i in 0..60 {
            db.put(format!("k{i}").as_bytes(), &[b'x'; 200]).unwrap();
        }
        db.barrier(BarrierLevel::SsTable).unwrap();
        db.close().unwrap();

        // Corrupt one SSTable's bloom filter on storage.
        let store = platform.storage.nvm_of(0);
        let blooms: Vec<String> = store
            .list("corrupt-sst/db/r0/")
            .into_iter()
            .filter(|p| p.ends_with(".bloom"))
            .collect();
        assert!(!blooms.is_empty());
        store.backend().put(&blooms[0], Bytes::from_static(b"xx"));

        // Reopen: the corrupt table is skipped (its data is lost and the
        // handle says so, but the open must not panic and the rest must
        // still be readable).
        let db2 = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        let lost = db2.take_io_errors();
        assert!(
            matches!(&lost[..], [Error::DataLoss(what)] if what.contains("manifest-listed")),
            "{lost:?}"
        );
        let mut found = 0;
        for i in 0..60 {
            if db2.get(format!("k{i}").as_bytes()).is_ok() {
                found += 1;
            }
        }
        // At least the tables that weren't corrupted still serve.
        let _ = found;
        db2.close().unwrap();
        ctx.finalize().unwrap();
    });
}

/// A merge input that is gone or cut short under a live database is not
/// swallowed: the compaction is skipped with exactly one typed `DataLoss`
/// naming the database and the table, the inputs stay live and
/// manifest-listed, nothing is written for the merged table, and every key
/// in a table that still reads is served.
#[test]
fn an_unreadable_merge_input_is_reported_and_the_inputs_stay_live() {
    for (damage, why) in [("delete", "SSData missing"), ("truncate", "SSData corrupt")] {
        let platform = Platform::new(SystemProfile::test_profile(), 1);
        World::run(WorldConfig::for_tests(1), move |rank| {
            let repo = format!("merge-{damage}");
            let ctx = Context::init(rank, platform.clone(), &format!("nvm://{repo}")).unwrap();
            // The default trigger: a merge of all live tables at SSID 4.
            let db = ctx.open("db", OpenFlags::create(), Options::default()).unwrap();
            let flush = |table: usize| {
                for i in 0..20 {
                    db.put(format!("t{table}-k{i:02}").as_bytes(), &[b'0' + table as u8; 64])
                        .unwrap();
                }
                db.barrier(BarrierLevel::SsTable).unwrap();
            };
            (1..=3).for_each(flush);
            assert_eq!(db.take_io_errors(), vec![]);

            let backend = platform.storage.nvm_of(0).backend();
            let victim = format!("{repo}/db/r0/sst0000000002.data");
            let whole = backend.get_all(&victim).expect("sst 2 is live");
            match damage {
                "delete" => assert!(backend.delete(&victim)),
                _ => backend.put(&victim, whole.slice(..whole.len() - 1)),
            }
            flush(4); // ...whose flush triggers the merge into sst 5

            let found = db.take_io_errors();
            assert!(
                matches!(&found[..], [Error::DataLoss(what)]
                    if what.contains("db db") && what.contains("sst 2") && what.contains(why)
                        && what.contains(&victim)),
                "{damage}: {found:?}"
            );
            let manifest = backend.get_all(&format!("{repo}/db/r0/MANIFEST")).unwrap();
            assert_eq!(&manifest[..], b"next:5\n1 2 3 4\nok\n", "{damage}: the live set moved");
            let files = platform.storage.nvm_of(0).list(&format!("{repo}/db/r0/sst"));
            assert_eq!(files.len(), 4 * 3 - usize::from(damage == "delete"), "{damage}: {files:?}");
            assert!(!files.iter().any(|f| f.contains("sst0000000005")), "{damage}: {files:?}");
            for table in [1, 3, 4] {
                for i in 0..20 {
                    let got = db.get(format!("t{table}-k{i:02}").as_bytes());
                    assert_eq!(got.as_deref(), Ok(&[b'0' + table as u8; 64][..]), "{damage}");
                }
            }
            // The damaged table answers or misses; it never panics.
            let _ = db.get(b"t2-k00");
            db.close().unwrap();
            ctx.finalize().unwrap();
        });
    }
}

#[test]
fn restart_from_missing_snapshot_errors_cleanly() {
    let platform = Platform::new(SystemProfile::test_profile(), 1);
    World::run(WorldConfig::for_tests(1), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://nosnap").unwrap();
        let err = ctx
            .restart("no/such/snapshot", "db", OpenFlags::create(), Options::small(), false)
            .unwrap_err();
        assert!(matches!(err, Error::InvalidSnapshot(_)), "got {err}");
        ctx.finalize().unwrap();
    });
}

#[test]
fn restart_with_corrupt_meta_errors_cleanly() {
    let platform = Platform::new(SystemProfile::test_profile(), 1);
    World::run(WorldConfig::for_tests(1), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://badmeta").unwrap();
        platform.storage.pfs().backend().put("snap/db/META", Bytes::from_static(b"not-a-number"));
        let err =
            ctx.restart("snap", "db", OpenFlags::create(), Options::small(), false).unwrap_err();
        assert!(matches!(err, Error::InvalidSnapshot(_)));
        ctx.finalize().unwrap();
    });
}

/// A snapshot missing one rank's manifest and one table's index restores
/// what exists — on the verbatim path and under redistribution — and the
/// restarted database carries one `DataLoss` per missing piece.
#[test]
fn restart_from_a_damaged_snapshot_restores_the_rest_and_reports_data_loss() {
    let platform = Platform::new(SystemProfile::test_profile(), 2);
    let writer = platform.clone();
    World::run(WorldConfig::for_tests(2), move |rank| {
        let ctx = Context::init(rank, writer.clone(), "nvm://dmg-write").unwrap();
        let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        // Two flushes: every rank snapshots tables 1 and 2.
        for i in 0..40 {
            db.put(format!("s{}-{i}", ctx.rank()).as_bytes(), &[b's'; 50]).unwrap();
            if i == 19 {
                db.barrier(BarrierLevel::SsTable).unwrap();
            }
        }
        db.checkpoint("snap/dmg").unwrap().wait();
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
    let pfs = platform.storage.pfs();
    pfs.backend().delete("snap/dmg/db/r0/MANIFEST");
    assert!(pfs.backend().delete("snap/dmg/db/r1/sst0000000001.index"));

    for (ranks, force) in [(2, false), (1, true)] {
        let fresh = Platform::new_job(SystemProfile::test_profile(), ranks, &platform);
        let per_rank = World::run(WorldConfig::for_tests(ranks), move |rank| {
            let ctx = Context::init(rank, fresh.clone(), "nvm://dmg-read").unwrap();
            let (db, ev) = ctx
                .restart("snap/dmg", "db", OpenFlags::create(), Options::small(), force)
                .unwrap();
            ev.wait();
            let lost = db.take_io_errors();
            let readable = (0..80)
                .filter(|i| {
                    db.get_opt(format!("s{}-{}", i / 40, i % 40).as_bytes()).unwrap().is_some()
                })
                .count();
            db.close().unwrap();
            ctx.finalize().unwrap();
            (lost, readable)
        });
        let lost: Vec<&Error> = per_rank.iter().flat_map(|(lost, _)| lost).collect();
        assert_eq!(lost.len(), 2, "ranks={ranks} force={force}: {lost:?}");
        assert!(lost.iter().all(|e| matches!(e, Error::DataLoss(_))), "{lost:?}");
        assert!(lost.iter().any(|e| e.to_string().contains("manifest for rank 0 missing")));
        assert!(lost.iter().any(|e| e.to_string().contains("sst 1 of")), "{lost:?}");
        // What the damage did not reach came back.
        let readable = per_rank[0].1;
        assert!(readable > 0 && readable < 80, "ranks={ranks} force={force}: {readable} of 80");
    }
}

#[test]
fn reopen_continues_ssid_sequence() {
    // Zero-copy reopen must continue the per-rank SSID sequence, not reuse
    // IDs (reuse would let a stale peer-reader cache serve wrong data).
    let platform = Platform::new(SystemProfile::test_profile(), 1);
    World::run(WorldConfig::for_tests(1), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://ssids").unwrap();
        let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        for i in 0..40 {
            db.put(format!("a{i}").as_bytes(), &[b'a'; 200]).unwrap();
        }
        db.barrier(BarrierLevel::SsTable).unwrap();
        db.close().unwrap();

        let db2 = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        for i in 0..40 {
            db2.put(format!("b{i}").as_bytes(), &[b'b'; 200]).unwrap();
        }
        db2.barrier(BarrierLevel::SsTable).unwrap();
        // Both generations readable.
        assert!(db2.get(b"a5").is_ok());
        assert!(db2.get(b"b5").is_ok());
        // SSIDs on storage are unique.
        let names = platform.storage.nvm_of(0).list("ssids/db/r0/");
        let mut datas: Vec<&String> = names.iter().filter(|p| p.ends_with(".data")).collect();
        let before = datas.len();
        datas.dedup();
        assert_eq!(before, datas.len());
        db2.close().unwrap();
        ctx.finalize().unwrap();
    });
}

#[test]
fn destroy_removes_everything_reopen_is_fresh() {
    let platform = Platform::new(SystemProfile::test_profile(), 2);
    World::run(WorldConfig::for_tests(2), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://destroy").unwrap();
        let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        for i in 0..50 {
            db.put(format!("d{}-{i}", ctx.rank()).as_bytes(), &[b'd'; 200]).unwrap();
        }
        db.barrier(BarrierLevel::SsTable).unwrap();
        let ev = db.destroy().unwrap();
        ev.wait();
        assert!(
            platform
                .storage
                .nvm_of(ctx.rank())
                .list(&format!("destroy/db/r{}/", ctx.rank()))
                .is_empty(),
            "destroy must remove all objects"
        );
        // Reopen creates an empty database.
        let db2 = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        assert_eq!(db2.get(b"d0-0").unwrap_err(), Error::NotFound);
        db2.close().unwrap();
        ctx.finalize().unwrap();
    });
}

#[test]
fn flush_queue_backpressure_does_not_deadlock() {
    // A tiny flush queue with a burst of writes: puts must block and resume
    // (the §2.4 DRAM/NVM backpressure), never deadlock.
    let platform = Platform::new(SystemProfile::test_profile(), 2);
    World::run(WorldConfig::for_tests(2), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://backpressure").unwrap();
        let mut opt = Options::small();
        opt.memtable_capacity = 512;
        opt.flush_queue_len = 1;
        let db = ctx.open("db", OpenFlags::create(), opt).unwrap();
        for i in 0..300 {
            db.put(format!("bp{}-{i}", ctx.rank()).as_bytes(), &[b'q'; 100]).unwrap();
        }
        db.barrier(BarrierLevel::SsTable).unwrap();
        for i in (0..300).step_by(23) {
            assert!(db.get(format!("bp{}-{i}", ctx.rank()).as_bytes()).is_ok());
        }
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
}

#[test]
fn checkpoint_while_updating_snapshots_consistently() {
    // §4.2: "the MPI rank is free to update the database because updates do
    // not touch the existing SSTables in the snapshot". Updates racing the
    // checkpoint must not corrupt the snapshot.
    let platform = Platform::new(SystemProfile::test_profile(), 2);
    World::run(WorldConfig::for_tests(2), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://ckptrace").unwrap();
        let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        let me = ctx.rank();
        for i in 0..50 {
            db.put(format!("c{me}-{i}").as_bytes(), b"epoch1").unwrap();
        }
        let ev = db.checkpoint("snap/race").unwrap();
        // Keep updating while the transfer runs.
        for i in 0..50 {
            db.put(format!("c{me}-{i}").as_bytes(), b"epoch2").unwrap();
        }
        ev.wait();
        db.barrier(BarrierLevel::MemTable).unwrap();
        // Live database has epoch2.
        assert_eq!(&db.get(format!("c{me}-0").as_bytes()).unwrap()[..], b"epoch2");
        db.destroy().unwrap();
        ctx.barrier_all();
        if me == 0 {
            platform.storage.trim_nvm();
        }
        ctx.barrier_all();
        // Snapshot restores epoch1 for every key.
        let (db2, ev) =
            ctx.restart("snap/race", "db", OpenFlags::create(), Options::small(), false).unwrap();
        ev.wait();
        for r in 0..2 {
            for i in 0..50 {
                assert_eq!(
                    &db2.get(format!("c{r}-{i}").as_bytes()).unwrap()[..],
                    b"epoch1",
                    "snapshot must hold the pre-checkpoint state"
                );
            }
        }
        db2.close().unwrap();
        ctx.finalize().unwrap();
    });
}
