//! What a message carries stays as it was sent while anything holds it: a
//! value a caller keeps from a remote get, each a slice of its reply, and
//! the key of a failover get its handler decoded once and holds across a
//! slice, whatever the messages after them carry.

use std::sync::Arc;

use papyrus_faultinject::{FaultEvent, FaultPlan};
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyrus_telemetry::Registry;
use papyruskv::{BarrierLevel, Context, OpenFlags, Options, Platform};

const GETS: usize = 1000;

fn key(i: usize) -> Vec<u8> {
    format!("key-{i:05}").into_bytes()
}

/// Key `i`'s value: its own bytes, 128 of them.
fn value(i: usize) -> Vec<u8> {
    (0..128).map(|b| (i * 131 + b * 7) as u8).collect()
}

/// Rank 0 keeps every value `GETS` remote gets returned — each a slice of
/// the reply it came in — while it issues `GETS` more, then checks each one
/// byte for byte.
#[test]
fn values_kept_from_remote_gets_outlive_the_gets_after_them() {
    let platform = Platform::new(SystemProfile::test_profile(), 2);
    World::run(WorldConfig::for_tests(2), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://held-values").expect("init");
        let opt = Options::default().with_custom_hash(Arc::new(|_: &[u8]| 1));
        let db = ctx.open("db", OpenFlags::create(), opt).expect("open");
        if ctx.rank() == 1 {
            (0..2 * GETS).for_each(|i| db.put(&key(i), &value(i)).expect("put"));
        }
        ctx.barrier_all();
        if ctx.rank() == 0 {
            let kept: Vec<_> = (0..GETS).map(|i| db.get(&key(i)).expect("get")).collect();
            for i in GETS..2 * GETS {
                assert_eq!(db.get(&key(i)).expect("get")[..], value(i), "key {i}");
            }
            for (i, got) in kept.iter().enumerate() {
                assert_eq!(got[..], value(i), "kept value of key {i}");
            }
        }
        ctx.barrier_all();
        db.close().expect("close");
        ctx.finalize().expect("finalize");
    });
}

/// Rank 2 dies at R=2, and rank 1 reads ten of its keys, each through a
/// failover get (REPL_GET) to rank 0, its successor. The first makes rank 0
/// claim rank 2's ranges; the claim wakes rank 0's dispatcher, which orders
/// before the handler, so the handler's slice ends at the claim and the
/// lookup waits in `Work::ReplLookup` for the next one, holding the key it
/// decoded. Every get still reads its own key's value.
#[test]
fn a_failover_get_held_across_a_slice_reads_its_own_key() {
    const KILL: u64 = 1_000_000_000;
    const KEYS: usize = 10;
    let gone = |i: usize| format!("o2-{i}").into_bytes();
    let kill = FaultEvent::RankKill { rank: 2, at: KILL };
    let plan = Arc::new(FaultPlan::with_events(1, vec![kill]));
    let platform = Platform::new(SystemProfile::test_profile(), 3);
    let tel = Arc::new(Registry::with_enabled(true));
    let world = WorldConfig::for_tests(3).with_faults(plan).with_telemetry(tel.clone());
    let out = World::run(world, move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://held-failover").expect("init");
        // Key `o<r>-…` is owned by rank r.
        let opt = Options::small()
            .with_replicas(2)
            .with_custom_hash(Arc::new(|k: &[u8]| u64::from(k[1] - b'0')));
        let db = ctx.open("db", OpenFlags::create(), opt).expect("open");
        if ctx.rank() == 2 {
            (0..KEYS).for_each(|i| db.put(&gone(i), &value(i)).expect("put"));
        }
        db.barrier(BarrierLevel::MemTable).expect("barrier");
        ctx.clock().advance(2 * KILL);
        // A degraded world skips close and finalize.
        match ctx.rank() {
            0 => {
                ctx.signal_wait(1, &[1]).expect("signal");
                db.fence().expect("fence");
                ctx.signal_notify(2, &[1]).expect("signal");
                Vec::new()
            }
            1 => {
                let got: Vec<_> =
                    (0..KEYS).map(|i| db.get_opt(&gone(i)).expect("failover get")).collect();
                ctx.signal_notify(1, &[0]).expect("signal");
                ctx.signal_wait(2, &[0]).expect("signal");
                got
            }
            _ => Vec::new(),
        }
    });
    for (i, got) in out[1].iter().enumerate() {
        assert_eq!(got.as_deref(), Some(&value(i)[..]), "key o2-{i}");
    }
    assert_eq!(tel.counter(1, "repl.failovers").get(), KEYS as u64);
    assert_eq!(tel.counter(0, "repl.promotions").get(), 1, "the first get's claim");
}
