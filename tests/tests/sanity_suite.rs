//! End-to-end sanity sweep: run a Figure-6-style fill/read workload with
//! every `papyrus-sanity` check armed, then ask each owner of findings: the
//! world (its finalize fails the job on a protocol finding), each rank's
//! LSM audit, and each database's typed-error sink. A healthy tree must
//! produce nothing anywhere.
//!
//! Own integration-test binary: it force-enables the global sanity gate.

use papyrus_integration_tests::scenario_key;
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::sanity::audit_db;
use papyruskv::{BarrierLevel, Context, OpenFlags, Options, Platform};

#[test]
fn fig6_workload_is_violation_free_and_audits_clean() {
    papyrus_sanity::force_enable();

    let profile = SystemProfile::summitdev();
    let platform = Platform::new(profile.clone(), 4);
    let reports = World::run(WorldConfig::new(4, profile.net.clone()), move |rank| {
        let ctx = Context::init(rank.clone(), platform.clone(), "nvm://sanity-suite").unwrap();
        // Small MemTable so the workload exercises flushes, SSTable builds,
        // remote migration, and barrier reconciliation — the paths the
        // monitor and auditor watch.
        let db = ctx
            .open("db", OpenFlags::create(), Options::default().with_memtable_capacity(8 << 10))
            .unwrap();
        let me = ctx.rank();
        for i in 0..120 {
            db.put(&scenario_key(me, i), &vec![b'v'; 256]).unwrap();
        }
        // A sprinkling of remote writes and deletes crosses rank ownership.
        db.put(b"shared-key", &[me as u8]).unwrap();
        db.delete(&scenario_key(me, 0)).unwrap();
        db.barrier(BarrierLevel::SsTable).unwrap();

        for r in 0..ctx.size() {
            for i in (1..120).step_by(7) {
                assert_eq!(db.get(&scenario_key(r, i)).unwrap(), vec![b'v'; 256]);
            }
        }

        // Quiesced point: the barrier above drained flushes and migrations.
        let report = audit_db(&db);
        db.close().unwrap();
        ctx.finalize().unwrap();
        (report, db.take_io_errors())
    });

    for (rank, (report, io_errors)) in reports.iter().enumerate() {
        assert!(report.is_clean(), "rank {rank} audit found problems:\n{}", report.render());
        assert!(io_errors.is_empty(), "rank {rank} db carried errors: {io_errors:?}");
        assert!(report.sstables_checked > 0, "rank {rank}: flushes must have produced SSTables");
        assert!(report.records_checked > 0, "rank {rank}: audit must have scanned records");
    }
}
