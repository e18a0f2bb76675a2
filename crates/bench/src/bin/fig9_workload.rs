//! Figure 9: various workloads and caching.
//!
//! Two phases per run, both in *sequential* consistency mode (as in the
//! artifact's workload app): an initialisation phase of puts, then a
//! read/update phase mixing gets and puts over the same keys at ratios
//! 50/50, 95/5, and 100/0. The `100/0+P` configuration additionally sets
//! `PAPYRUSKV_RDONLY` protection during the read phase, enabling the remote
//! cache (§3.2).
//!
//! The read/update mixes are expressed through the shared YCSB-style
//! vocabulary in [`papyrus_bench::workload`] (the same generators drive
//! the `papyrus-perfline` trajectory suite).

use papyrus_bench::workload::{fig9_mix, Mix, Op};
use papyrus_bench::{print_header, random_keys, value_of, BenchArgs, PhaseResult, RankPhase};
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::{Consistency, Context, OpenFlags, Options, Platform, Protection};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run init + read/update phases; returns the read/update phase aggregate.
fn run_config(
    args: &BenchArgs,
    profile: &SystemProfile,
    ranks: usize,
    iters: usize,
    vallen: usize,
    mix: Mix,
    protect_readonly: bool,
) -> PhaseResult {
    let platform = Platform::new(profile.clone(), ranks);
    let seed = args.seed;
    let world = WorldConfig::new(ranks, profile.net.clone()).with_telemetry(args.telemetry_begin());
    let per_rank = World::run(world, move |rank| {
        let ctx = Context::init(rank.clone(), platform.clone(), "nvm://workload").unwrap();
        let opt = Options::default()
            .with_memtable_capacity(32 << 20)
            .with_consistency(Consistency::Sequential);
        let db = ctx.open("workload", OpenFlags::create(), opt).unwrap();
        let keys = random_keys(iters, 16, seed + rank.rank() as u64);
        let value = value_of(vallen, b'v');
        // Initialisation phase.
        for k in &keys {
            db.put(k, &value).unwrap();
        }
        db.barrier(papyruskv::BarrierLevel::MemTable).unwrap();
        if protect_readonly {
            db.protect(Protection::ReadOnly).unwrap();
        }
        // Read/update phase over the same keys.
        let mut rng = StdRng::seed_from_u64(seed ^ (rank.rank() as u64) << 32);
        let t0 = ctx.now();
        let mut bytes = 0u64;
        for k in &keys {
            match mix.next_op(&mut rng) {
                Op::Update => {
                    db.put(k, &value).unwrap();
                    bytes += (16 + vallen) as u64;
                }
                _ => bytes += db.get(k).unwrap().len() as u64 + 16,
            }
        }
        let t1 = ctx.now();
        if protect_readonly {
            db.protect(Protection::ReadWrite).unwrap();
        }
        db.close().unwrap();
        ctx.finalize().unwrap();
        RankPhase { ops: iters as u64, bytes, ns: t1 - t0 }
    });
    PhaseResult::aggregate(&per_rank)
}

fn main() {
    let args = BenchArgs::parse();
    print_header(
        "Figure 9",
        "read/update workload mixes (P = PAPYRUSKV_RDONLY protection enabling the remote cache)",
    );

    let m5050 = fig9_mix("50/50", 50);
    let m955 = fig9_mix("95/5", 5);
    let m1000 = fig9_mix("100/0", 0);
    let vallen = 128 << 10;
    for profile in SystemProfile::all_eval_systems() {
        let rpn = profile.ranks_per_node;
        let sweep = args.ranks_or(&[1, 2, 4, 8, 16], &[1, 2, 4, 8, rpn, rpn * 2, rpn * 4, rpn * 8]);
        let iters = args.iters_or(16, profile.iters.min(1000));
        println!("\n## {} ({} iters/rank, 16B keys, 128KB values)", profile.name, iters);
        println!("{:>6} {:>12} {:>12} {:>12} {:>12}", "ranks", "50/50", "95/5", "100/0", "100/0+P");
        for &n in &sweep {
            let run = |mix, protect| run_config(&args, &profile, n, iters, vallen, mix, protect);
            let r5050 = run(m5050, false);
            let r955 = run(m955, false);
            let r1000 = run(m1000, false);
            let r1000p = run(m1000, true);
            println!(
                "{:>6} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
                n,
                r5050.mbps(),
                r955.mbps(),
                r1000.mbps(),
                r1000p.mbps()
            );
        }
    }
    args.telemetry_end();
}
