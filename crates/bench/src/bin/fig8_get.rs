//! Figure 8: get-operation performance with the two get-path optimisations
//! toggled — storage group (SG) and SSTable binary search (B).
//!
//! Workload: fill (relaxed puts) + barrier(SSTABLE) so gets hit SSTables,
//! then random gets. Configurations, as in the artifact's env toggles:
//!
//! * `Default` — `PAPYRUSKV_GROUP_SIZE=1`, linear SSData scans
//! * `Def+SG`  — node-sized (or job-sized on Cori) storage groups
//! * `Def+B`   — binary search via the in-memory SSIndex
//! * `Def+SG+B` — both (the paper's best configuration)

use papyrus_bench::{print_header, random_keys, value_of, BenchArgs, PhaseResult, RankPhase};
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::{BarrierLevel, Context, OpenFlags, Options, Platform};

fn run_config(
    args: &BenchArgs,
    profile: &SystemProfile,
    ranks: usize,
    iters: usize,
    vallen: usize,
    sg: bool,
    bin_search: bool,
) -> PhaseResult {
    let platform = Platform::new(profile.clone(), ranks);
    let sg_size = if sg { profile.default_group_size(ranks) } else { 1 };
    let seed = args.seed;
    let world = WorldConfig::new(ranks, profile.net.clone()).with_telemetry(args.telemetry_begin());
    let per_rank = World::run(world, move |rank| {
        let ctx = Context::init_with_group(rank.clone(), platform.clone(), "nvm://basic", sg_size)
            .unwrap();
        let opt = Options::default().with_memtable_capacity(8 << 20).with_bin_search(bin_search);
        let db = ctx.open("basic", OpenFlags::create(), opt).unwrap();
        let keys = random_keys(iters, 16, seed + rank.rank() as u64);
        let value = value_of(vallen, b'v');
        for k in &keys {
            db.put(k, &value).unwrap();
        }
        db.barrier(BarrierLevel::SsTable).unwrap();
        let t0 = ctx.now();
        for k in &keys {
            let _ = db.get(k).unwrap();
        }
        let t1 = ctx.now();
        db.close().unwrap();
        ctx.finalize().unwrap();
        RankPhase { ops: iters as u64, bytes: (iters * (16 + vallen)) as u64, ns: t1 - t0 }
    });
    PhaseResult::aggregate(&per_rank)
}

fn main() {
    let args = BenchArgs::parse();
    print_header("Figure 8", "get throughput: storage group (SG) and SSTable binary search (B)");

    let vallen = 128 << 10;
    for profile in SystemProfile::all_eval_systems() {
        let rpn = profile.ranks_per_node;
        let sweep =
            args.ranks_or(&[2, 4, 8, 16, 32], &[1, 2, 4, 8, rpn, rpn * 2, rpn * 4, rpn * 8]);
        let iters = args.iters_or(16, profile.iters.min(1000));
        println!("\n## {} ({} iters/rank, 16B keys, 128KB values)", profile.name, iters);
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>12}",
            "ranks", "Def-MBPS", "Def+SG", "Def+B", "Def+SG+B"
        );
        for &n in &sweep {
            let d = run_config(&args, &profile, n, iters, vallen, false, false);
            let sg = run_config(&args, &profile, n, iters, vallen, true, false);
            let b = run_config(&args, &profile, n, iters, vallen, false, true);
            let sgb = run_config(&args, &profile, n, iters, vallen, true, true);
            println!(
                "{:>6} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
                n,
                d.mbps(),
                sg.mbps(),
                b.mbps(),
                sgb.mbps()
            );
        }
    }
    args.telemetry_end();
}
