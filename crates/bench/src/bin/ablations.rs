//! Ablation studies for PapyrusKV's design choices (not a paper figure —
//! the complementary experiments DESIGN.md calls out): bloom filters,
//! merge-compaction fan-in, local-cache capacity, and flush-queue depth.
//!
//! Each ablation runs the same fill + mixed-read workload on Summitdev's
//! profile with one knob varied, reporting get virtual-time throughput, live
//! SSTables and write amplification; the growth table fills one database
//! that is never reset.

use papyrus_bench::{random_keys, value_of, BenchArgs, PhaseResult, RankPhase};
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::{BarrierLevel, CompactionTrigger, Context, OpenFlags, Options, Platform};

const VALUE_LEN: usize = 32 << 10;

struct AblationOut {
    get: PhaseResult,
    sstables: usize,
    hit_ratio: f64,
    /// Device bytes written per byte of key and value put.
    write_amp: f64,
    /// Bloom filters consulted per get of the read passes.
    probes_per_get: f64,
}

fn run(
    profile: &SystemProfile,
    ranks: usize,
    iters: usize,
    opt: Options,
    seed: u64,
) -> AblationOut {
    let platform = Platform::new(profile.clone(), ranks);
    // The stores' and the database's own counters, for this run alone.
    let world = WorldConfig::new(ranks, profile.net.clone());
    let tel = world.telemetry.clone();
    tel.set_enabled(true);
    let per_rank = World::run(world, move |rank| {
        let ctx = Context::init(rank.clone(), platform.clone(), "nvm://ablate").unwrap();
        let db = ctx.open("db", OpenFlags::create(), opt.clone()).unwrap();
        let keys = random_keys(iters, 16, seed + rank.rank() as u64);
        let value = value_of(VALUE_LEN, b'v');
        for k in &keys {
            db.put(k, &value).unwrap();
        }
        db.barrier(BarrierLevel::SsTable).unwrap();
        let t0 = ctx.now();
        // Two passes: the second exercises the caches; plus misses.
        for pass in 0..2 {
            for k in &keys {
                let _ = db.get(k).unwrap();
            }
            if pass == 0 {
                for k in &keys {
                    let mut missing = k.clone();
                    missing.push(b'!');
                    let _ = db.get(&missing); // definite miss: bloom's case
                }
            }
        }
        let t1 = ctx.now();
        let ssts = db.sstable_count();
        let (h, m) = (db.get_stats().hits(), db.get_stats().misses());
        db.close().unwrap();
        ctx.finalize().unwrap();
        (
            RankPhase {
                ops: 3 * iters as u64,
                bytes: (3 * iters * (16 + VALUE_LEN)) as u64,
                ns: t1 - t0,
            },
            ssts,
            if h + m == 0 { 0.0 } else { h as f64 / (h + m) as f64 },
        )
    });
    let counted = tel.snapshot();
    let probes = counted.counter_sum("kv.bloom.pass") + counted.counter_sum("kv.bloom.neg");
    AblationOut {
        get: PhaseResult::aggregate(&per_rank.iter().map(|r| r.0).collect::<Vec<_>>()),
        sstables: per_rank.iter().map(|r| r.1).max().unwrap_or(0),
        hit_ratio: per_rank.iter().map(|r| r.2).sum::<f64>() / per_rank.len() as f64,
        write_amp: counted.counter_sum("io.write.bytes") as f64
            / (ranks * iters * (16 + VALUE_LEN)) as f64,
        probes_per_get: probes as f64 / (ranks * 3 * iters) as f64,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let profile = SystemProfile::summitdev();
    let ranks = 8;
    let iters = args.iters_or(60, 1000);
    let base = || Options::default().with_memtable_capacity(256 << 10);

    println!("# Ablations (summitdev profile, {ranks} ranks, {iters} iters/rank, 32KB values)");
    println!("# workload: fill, barrier(SSTABLE), then hit+miss read passes\n");

    println!("## Bloom filters (skip-table test on definite misses)");
    println!("{:>10} {:>12} {:>10}", "bloom", "get-MBPS", "ssts");
    for on in [true, false] {
        let out = run(&profile, ranks, iters, base().with_bloom_filter(on), args.seed);
        println!("{:>10} {:>12.1} {:>10}", on, out.get.mbps(), out.sstables);
    }

    println!("\n## Merge-compaction fan-in (size-tiered; 0 = off)");
    println!("{:>10} {:>12} {:>10} {:>10}", "fan-in", "get-MBPS", "ssts", "write-amp");
    for fan_in in [0, 2, 4, 8] {
        let rule = match fan_in {
            0 => CompactionTrigger::Off,
            fan_in => CompactionTrigger::Tiered { fan_in },
        };
        let out = run(&profile, ranks, iters, base().with_compaction_trigger(rule), args.seed);
        let (mbps, ssts) = (out.get.mbps(), out.sstables);
        println!("{fan_in:>10} {mbps:>12.1} {ssts:>10} {:>10.2}", out.write_amp);
    }

    // What a benchmark that resets its database every round cannot show:
    // how write amplification, live tables and get cost grow with one
    // database. Powers of the fan-in end on one table; the counts just
    // below them (15, 47, 63) are the most tables the rule ever holds.
    println!("\n## One database, never reset (1 rank, distinct keys, 8 puts a flush)");
    println!(
        "{:>8} {:>10} {:>6} {:>12} {:>11}",
        "flushes", "write-amp", "ssts", "get-MBPS", "probes/get"
    );
    for flushes in [15, 16, 32, 47, 63, 64] {
        let mut opt = base();
        opt.local_cache = false;
        let out = run(&profile, 1, 8 * flushes, opt, args.seed);
        let (amp, ssts, mbps) = (out.write_amp, out.sstables, out.get.mbps());
        println!("{flushes:>8} {amp:>10.2} {ssts:>6} {mbps:>12.1} {:>11.2}", out.probes_per_get);
    }

    println!("\n## Local cache capacity (repeat-read hit ratio)");
    println!("{:>10} {:>12} {:>10}", "capacity", "get-MBPS", "hit-ratio");
    for cap in [0u64, 256 << 10, 4 << 20, 64 << 20] {
        let mut opt = base();
        opt.local_cache = cap > 0;
        opt.local_cache_capacity = cap.max(1);
        let out = run(&profile, ranks, iters, opt, args.seed);
        println!("{:>10} {:>12.1} {:>10.3}", cap >> 10, out.get.mbps(), out.hit_ratio);
    }

    println!("\n## Flush-queue depth (put-side backpressure)");
    println!("{:>10} {:>12}", "depth", "get-MBPS");
    for depth in [1usize, 2, 4, 16] {
        let mut opt = base();
        opt.flush_queue_len = depth;
        let out = run(&profile, ranks, iters, opt, args.seed);
        println!("{:>10} {:>12.1}", depth, out.get.mbps());
    }
}
