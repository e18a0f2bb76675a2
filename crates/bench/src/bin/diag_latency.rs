//! Diagnostic: per-op-class virtual-latency distribution for a mixed
//! put/get workload — prints count, mean, p50/p95/p99, and max per class
//! from the telemetry histograms, so tail-latency anomalies (stragglers,
//! backlog saturation, remote round-trip contention) are visible. Not part
//! of the paper reproduction.
//!
//! With `--telemetry out.json` the final sweep point's span timeline is
//! also written as Chrome Trace JSON.

use std::sync::Arc;

use papyrus_bench::{random_keys, value_of, BenchArgs};
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyrus_telemetry::{fmt_ns, Registry};
use papyruskv::{Consistency, Context, OpenFlags, Options, Platform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Histogram names from the KV engine, one row per op class.
const CLASSES: &[(&str, &str)] = &[
    ("put", "kv.put.ns"),
    ("get-local", "kv.get.local.ns"),
    ("get-remote", "kv.get.remote.ns"),
    ("fence-wait", "kv.fence.wait.ns"),
    ("barrier-wait", "kv.barrier.wait.ns"),
];

fn main() {
    let args = BenchArgs::parse();
    let profile = SystemProfile::summitdev();
    let iters = args.iters_or(30, 1000);
    println!(
        "{:<4} {:<14} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "n", "class", "count", "mean", "p50", "p95", "p99", "max"
    );
    for &n in &args.ranks_or(&[2, 4, 8, 16], &[2, 4, 8, 16, 32, 64]) {
        let platform = Platform::new(profile.clone(), n);
        let seed = args.seed;
        // The diagnostic runs on the histograms, so recording is always on;
        // --telemetry additionally writes the span trace.
        let tel = Arc::new(Registry::with_enabled(true));
        let world = WorldConfig::new(n, profile.net.clone()).with_telemetry(tel.clone());
        World::run(world, move |rank| {
            let ctx = Context::init(rank.clone(), platform.clone(), "nvm://diag").unwrap();
            let opt = Options::default()
                .with_memtable_capacity(1 << 30)
                .with_consistency(Consistency::Sequential);
            let db = ctx.open("diag", OpenFlags::create(), opt).unwrap();
            let keys = random_keys(iters, 16, seed + rank.rank() as u64);
            let value = value_of(8, b'v');
            for k in &keys {
                db.put(k, &value).unwrap();
            }
            db.barrier(papyruskv::BarrierLevel::MemTable).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ (rank.rank() as u64) << 32);
            for k in &keys {
                if rng.gen_range(0..100) < 50 {
                    db.put(k, &value).unwrap();
                } else {
                    let _ = db.get(k).unwrap();
                }
            }
            db.close().unwrap();
            ctx.finalize().unwrap();
        });
        let snap = tel.snapshot();
        for &(label, name) in CLASSES {
            // Merge the per-rank histograms into one distribution per class.
            let merged = snap.merged_histogram(name);
            if merged.count == 0 {
                continue;
            }
            println!(
                "{n:<4} {label:<14} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                merged.count,
                fmt_ns(merged.mean() as u64),
                fmt_ns(merged.p50()),
                fmt_ns(merged.p95()),
                fmt_ns(merged.p99()),
                fmt_ns(merged.max),
            );
        }
        if let Some(path) = &args.telemetry {
            // Last sweep point wins: each World::run restarts virtual time
            // at 0, so merging runs would overlay their timelines.
            if let Err(e) = snap.write_chrome_trace(path) {
                eprintln!("# telemetry: failed to write {path}: {e}");
            }
        }
    }
    if let Some(path) = &args.telemetry {
        eprintln!("# telemetry: chrome trace written to {path}");
    }
}
