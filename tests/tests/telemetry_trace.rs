//! End-to-end telemetry validation: a Figure-6-style put / barrier / get
//! run with recording enabled must produce a Chrome Trace Event JSON
//! document that parses, contains spans from all three layers (KV engine,
//! MPI fabric, NVM stores), and keeps every rank timeline monotone. Each
//! world records into its own registry, so worlds running at once see
//! only their own counts, and recording moves nothing in the world it
//! records.

use std::sync::{Arc, Barrier};

use papyrus_integration_tests::json::{self, Json};
use papyrus_integration_tests::{scenario_key, scenario_value};
use papyrus_mpi::{Grants, World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyrus_telemetry::{Registry, TelemetrySnapshot, NVM_PID_BASE};
use papyruskv::{BarrierLevel, Consistency, Context, OpenFlags, Options, Platform};

const RANKS: usize = 3;
const ITERS: usize = 40;

/// One Figure-6-shaped workload recording into `tel`: fill,
/// barrier(SSTABLE) to force flushes, then read everything back (half the
/// keys are remote).
fn run_workload(repo: &str, tel: &Arc<Registry>) -> TelemetrySnapshot {
    let platform = Platform::new(SystemProfile::test_profile(), RANKS);
    let repo = repo.to_string();
    World::run(WorldConfig::for_tests(RANKS).with_telemetry(tel.clone()), move |rank| {
        let ctx = Context::init(rank.clone(), platform.clone(), &repo).unwrap();
        // Small memtable so the fill phase also exercises freeze + flush.
        let db = ctx
            .open("tel", OpenFlags::create(), Options::small().with_memtable_capacity(4 << 10))
            .unwrap();
        let r = rank.rank();
        for i in 0..ITERS {
            db.put(&scenario_key(r, i), &scenario_value(r, i, b't')).unwrap();
        }
        db.barrier(BarrierLevel::SsTable).unwrap();
        for i in 0..ITERS {
            // Read own keys and a neighbour's: exercises local and remote gets.
            let _ = db.get(&scenario_key(r, i)).unwrap();
            let _ = db.get(&scenario_key((r + 1) % RANKS, i)).unwrap();
        }
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
    tel.snapshot()
}

/// What a world did that recording could move: how its baton was granted,
/// and each rank's final clock and the values its gets read.
type Outcome = (Grants, Vec<(u64, Vec<bytes::Bytes>)>);

/// [`run_workload`]'s world at `ranks` ranks under `consistency`, on a
/// priced network and device (Summitdev's), recording into `tel`.
fn run_shape(ranks: usize, consistency: Consistency, tel: &Arc<Registry>) -> Outcome {
    let profile = SystemProfile::summitdev();
    let world = WorldConfig::new(ranks, profile.net.clone()).with_telemetry(tel.clone());
    let platform = Platform::new(profile, ranks);
    let per_rank = World::run(world, move |rank| {
        let ctx = Context::init(rank.clone(), platform.clone(), "nvm://tel-shape").unwrap();
        let opt = Options::small().with_memtable_capacity(4 << 10).with_consistency(consistency);
        let db = ctx.open("tel", OpenFlags::create(), opt).unwrap();
        let r = rank.rank();
        for i in 0..ITERS {
            db.put(&scenario_key(r, i), &scenario_value(r, i, b't')).unwrap();
        }
        db.barrier(BarrierLevel::SsTable).unwrap();
        let mut got = Vec::new();
        for i in 0..ITERS {
            got.push(db.get(&scenario_key(r, i)).unwrap());
            got.push(db.get(&scenario_key((r + 1) % ranks, i)).unwrap());
        }
        db.close().unwrap();
        ctx.finalize().unwrap();
        (rank.fabric().clone(), rank.now(), got)
    });
    let grants = per_rank[0].0.grants();
    (grants, per_rank.into_iter().map(|(_, now, got)| (now, got)).collect())
}

/// A traced world is the untraced world: recording takes only leaf locks
/// the scheduler never sees, so the baton is granted the same number of
/// times, every rank ends at the same clock and every get reads the same
/// value, with the registry on or off.
#[test]
fn a_traced_world_is_the_untraced_world() {
    for (ranks, consistency) in
        [(3, Consistency::Relaxed), (3, Consistency::Sequential), (8, Consistency::Relaxed)]
    {
        let on = Arc::new(Registry::with_enabled(true));
        let traced = run_shape(ranks, consistency, &on);
        assert!(!on.snapshot().events.is_empty(), "the traced run recorded");
        let untraced = run_shape(ranks, consistency, &Arc::new(Registry::new()));
        assert_eq!(traced.0, untraced.0, "{ranks} ranks, {consistency:?}: grants");
        assert_eq!(traced.1, untraced.1, "{ranks} ranks, {consistency:?}: clocks and values");
    }
}

/// A world whose registry is off leaves nothing behind.
#[test]
fn a_disabled_registry_records_nothing() {
    let off = run_workload("nvm://tel-off", &Arc::new(Registry::new()));
    assert!(off.events.is_empty(), "disabled run recorded {} events", off.events.len());
    assert!(off.counters.iter().all(|(_, _, v)| *v == 0), "disabled run bumped a counter");
    assert!(off.histograms.iter().all(|(_, _, h)| h.count == 0), "disabled run filled a histogram");
}

#[test]
fn chrome_trace_covers_all_layers_and_is_monotone() {
    let snap = run_workload("nvm://tel-on", &Arc::new(Registry::with_enabled(true)));

    // Spans from each layer, by category.
    let cat_of = |name: &str| -> usize { snap.events.iter().filter(|e| e.cat == name).count() };
    assert!(cat_of("core") > 0, "no KV-engine spans");
    assert!(cat_of("mpi") > 0, "no fabric spans");
    assert!(cat_of("nvm") > 0, "no device spans");
    // The specific activities the acceptance criteria name.
    for name in ["flush", "send", "write"] {
        assert!(
            snap.events.iter().any(|e| e.name == name),
            "expected a '{name}' span in the trace"
        );
    }
    assert_eq!(snap.dropped_events, 0, "span buffer overflowed in a small run");

    // Counters and histograms got real traffic.
    let counter = |name: &str| snap.counter_sum(name);
    // Keys are hash-distributed, so the local/remote split depends on the
    // hash — but the totals must account for every operation.
    assert_eq!(counter("kv.put.local") + counter("kv.put.remote"), (RANKS * ITERS) as u64);
    assert_eq!(counter("kv.get.local") + counter("kv.get.remote"), (2 * RANKS * ITERS) as u64);
    assert!(counter("kv.get.local") > 0 && counter("kv.get.remote") > 0);
    assert!(counter("net.send.count") > 0);
    assert!(counter("io.write.ops") > 0);

    // --- Chrome Trace JSON: parses, and is structurally sound. ---
    let trace = snap.to_chrome_trace();
    let doc = json::parse(&trace).expect("chrome trace must be valid JSON");
    let events = doc.get("traceEvents").expect("traceEvents key").items();
    assert!(!events.is_empty());

    let ph = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap_or("").to_string();
    // Metadata names every rank pid and the NVM store pids.
    let meta_named: Vec<f64> = events
        .iter()
        .filter(|e| ph(e) == "M")
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
        .map(|e| e.get("pid").and_then(Json::as_f64).unwrap())
        .collect();
    for r in 0..RANKS {
        assert!(meta_named.contains(&(r as f64)), "rank {r} pid unnamed");
    }
    assert!(meta_named.iter().any(|&p| p >= NVM_PID_BASE as f64), "no NVM store timeline in trace");

    // Per-pid timestamps are monotone non-decreasing, and durations
    // non-negative, for all real (X/i) events.
    let mut last_ts: std::collections::BTreeMap<u64, f64> = Default::default();
    let mut real = 0usize;
    for e in events {
        let phase = ph(e);
        if phase != "X" && phase != "i" {
            continue;
        }
        real += 1;
        let pid = e.get("pid").and_then(Json::as_f64).expect("pid") as u64;
        let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
        assert!(ts >= 0.0);
        if phase == "X" {
            assert!(e.get("dur").and_then(Json::as_f64).expect("dur") >= 0.0);
        }
        let prev = last_ts.insert(pid, ts).unwrap_or(f64::MIN);
        assert!(ts >= prev, "pid {pid}: ts {ts} went backwards (prev {prev})");
    }
    assert!(real > 0, "no X/i events in trace");
    assert_eq!(real, snap.events.len(), "every snapshot event serialised");

    // Top-level annotations survive round-trip.
    assert_eq!(
        doc.get("otherData").and_then(|o| o.get("clock")).and_then(Json::as_str),
        Some("virtual-SimNs")
    );
}

/// A world of two ranks recording into `tel`: rank 0 puts `puts` keys, all
/// its own, and rank 1 reads every one back from it.
fn owner_and_reader(puts: usize, tel: &Arc<Registry>) -> TelemetrySnapshot {
    let platform = Platform::new(SystemProfile::test_profile(), 2);
    World::run(WorldConfig::for_tests(2).with_telemetry(tel.clone()), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://tel-own").unwrap();
        let opt = Options::small().with_custom_hash(Arc::new(|_k: &[u8]| 0));
        let db = ctx.open("own", OpenFlags::create(), opt).unwrap();
        if ctx.rank() == 0 {
            (0..puts).for_each(|i| db.put(&scenario_key(0, i), b"v").unwrap());
        }
        db.barrier(BarrierLevel::MemTable).unwrap();
        if ctx.rank() == 1 {
            (0..puts).for_each(|i| assert_eq!(&db.get(&scenario_key(0, i)).unwrap()[..], b"v"));
        }
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
    tel.snapshot()
}

/// Two worlds run at once, on two OS threads, each recording into its own
/// registry and doing a different amount of work: each snapshot holds
/// exactly its own world's puts and messages, the counts each world makes
/// when it runs alone.
#[test]
fn worlds_running_at_once_count_only_their_own_work() {
    const PUTS: [usize; 2] = [30, 70];
    let alone = PUTS.map(|puts| owner_and_reader(puts, &Arc::new(Registry::with_enabled(true))));
    let start = Barrier::new(2);
    let together = std::thread::scope(|s| {
        let world = |puts| {
            let start = &start;
            s.spawn(move || {
                let tel = Arc::new(Registry::with_enabled(true));
                start.wait();
                owner_and_reader(puts, &tel)
            })
        };
        PUTS.map(world).map(|t| t.join().unwrap())
    });
    for ((puts, alone), together) in PUTS.iter().zip(&alone).zip(&together) {
        let count = |snap: &TelemetrySnapshot, name| snap.counter_sum(name);
        assert_eq!(count(together, "kv.put.local"), *puts as u64);
        assert_eq!(count(together, "kv.get.remote"), *puts as u64);
        assert!(count(alone, "net.send.count") > 2 * *puts as u64, "a remote get is two messages");
        assert_eq!(count(together, "net.send.count"), count(alone, "net.send.count"));
    }
}
