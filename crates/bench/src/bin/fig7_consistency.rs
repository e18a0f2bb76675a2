//! Figure 7: put-operation performance in relaxed (Rel) vs sequential
//! (Seq) consistency modes, with (+B) and without the trailing
//! barrier(SSTABLE), across a rank sweep on each system.
//!
//! 16-byte keys, 128 KB values. Expected shape (paper §5.2): Rel put
//! throughput ≫ Seq put throughput (memory-only vs synchronous migration),
//! but Seq+B slightly beats Rel+B because the barrier's all-to-all
//! migration congests the network harder than incremental synchronous puts.

use papyrus_bench::{print_header, random_keys, value_of, BenchArgs, PhaseResult, RankPhase};
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::{BarrierLevel, Consistency, Context, OpenFlags, Options, Platform};

/// One run: returns (put phase, put+barrier phase) aggregates.
fn run_config(
    args: &BenchArgs,
    profile: &SystemProfile,
    ranks: usize,
    iters: usize,
    vallen: usize,
    mode: Consistency,
) -> (PhaseResult, PhaseResult) {
    let platform = Platform::new(profile.clone(), ranks);
    let (seed, replicas) = (args.seed, args.replicas);
    let world = WorldConfig::new(ranks, profile.net.clone()).with_telemetry(args.telemetry_begin());
    let per_rank = World::run(world, move |rank| {
        let ctx = Context::init(rank.clone(), platform.clone(), "nvm://basic").unwrap();
        let opt = Options::default()
            .with_memtable_capacity(64 << 20)
            .with_consistency(mode)
            .with_replicas(replicas);
        let db = ctx.open("basic", OpenFlags::create(), opt).unwrap();
        let keys = random_keys(iters, 16, seed + rank.rank() as u64);
        let value = value_of(vallen, b'v');
        let t0 = ctx.now();
        for k in &keys {
            db.put(k, &value).unwrap();
        }
        let t1 = ctx.now();
        db.barrier(BarrierLevel::SsTable).unwrap();
        let t2 = ctx.now();
        db.close().unwrap();
        ctx.finalize().unwrap();
        let moved = (iters * (16 + vallen)) as u64;
        (
            RankPhase { ops: iters as u64, bytes: moved, ns: t1 - t0 },
            RankPhase { ops: iters as u64, bytes: moved, ns: t2 - t0 },
        )
    });
    let put: Vec<RankPhase> = per_rank.iter().map(|r| r.0).collect();
    let put_b: Vec<RankPhase> = per_rank.iter().map(|r| r.1).collect();
    (PhaseResult::aggregate(&put), PhaseResult::aggregate(&put_b))
}

fn main() {
    let args = BenchArgs::parse();
    print_header("Figure 7", "put throughput: relaxed vs sequential consistency (B = +barrier)");

    let vallen = 128 << 10;
    for profile in SystemProfile::all_eval_systems() {
        let ranks_default: Vec<usize> = vec![1, 2, 4, 8, 16, 32];
        let rpn = profile.ranks_per_node;
        let ranks_full: Vec<usize> =
            vec![1, 2, 4, 8, rpn / 2, rpn, rpn * 2, rpn * 4, rpn * 8, rpn * 16];
        let sweep = args.ranks_or(&ranks_default, &ranks_full);
        let iters = args.iters_or(16, profile.iters.min(1000));
        let repl = if args.replicas > 1 { format!(", R={}", args.replicas) } else { String::new() };
        println!("\n## {} ({} iters/rank, 16B keys, 128KB values{repl})", profile.name, iters);
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>12}",
            "ranks", "Rel-MBPS", "Seq-MBPS", "Rel+B-MBPS", "Seq+B-MBPS"
        );
        for &n in &sweep {
            let (rel, rel_b) = run_config(&args, &profile, n, iters, vallen, Consistency::Relaxed);
            let (seq, seq_b) =
                run_config(&args, &profile, n, iters, vallen, Consistency::Sequential);
            println!(
                "{:>6} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
                n,
                rel.mbps(),
                seq.mbps(),
                rel_b.mbps(),
                seq_b.mbps()
            );
        }
    }
    args.telemetry_end();
}
