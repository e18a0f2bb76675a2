//! Figure 6: basic-operations performance in a single node.
//!
//! For each evaluation system (Summitdev, Stampede KNL, Cori Haswell) and
//! each repository placement (NVM vs Lustre), one node's worth of ranks
//! performs put / barrier(SSTABLE) / get with 16-byte keys and value sizes
//! from 256 B to 1 MB on a relaxed-consistency database. Metrics: KRPS for
//! values < 64 KB, MBPS at and above (matching the paper's two panels).
//!
//! Also prints Table 2 (the target-system summary) with `--systems`.

use papyrus_bench::{
    print_header, random_keys, size_label, value_of, BenchArgs, PhaseResult, RankPhase,
};
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::{BarrierLevel, Context, OpenFlags, Options, Platform};

fn print_table2() {
    println!("# Table 2: The target HPC systems.");
    println!(
        "{:<12} {:<6} {:<11} {:>6} {:>6} {:>12} {:>16} {:>10}",
        "system", "site", "nvm-arch", "rpn", "iters", "nvm-device", "interconnect", "pfs"
    );
    for s in SystemProfile::all_eval_systems() {
        println!(
            "{:<12} {:<6} {:<11} {:>6} {:>6} {:>12} {:>16} {:>10}",
            s.name,
            s.site,
            format!("{:?}", s.arch).to_lowercase(),
            s.ranks_per_node,
            s.iters,
            s.nvm.name,
            s.net.name,
            s.pfs.name,
        );
    }
}

/// One configuration run: returns (put, barrier, get) phase results.
fn run_config(
    profile: &SystemProfile,
    repo: &str,
    ranks: usize,
    iters: usize,
    vallen: usize,
    seed: u64,
    replicas: usize,
) -> (PhaseResult, PhaseResult, PhaseResult) {
    let platform = Platform::new(profile.clone(), ranks);
    let repo = repo.to_string();
    let per_rank = World::run(WorldConfig::new(ranks, profile.net.clone()), move |rank| {
        let ctx = Context::init(rank.clone(), platform.clone(), &repo).unwrap();
        let opt = Options::default().with_memtable_capacity(64 << 20).with_replicas(replicas);
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
        for k in &keys {
            let _ = db.get(k).unwrap();
        }
        let t3 = ctx.now();
        db.close().unwrap();
        ctx.finalize().unwrap();
        let moved = (iters * (16 + vallen)) as u64;
        (
            RankPhase { ops: iters as u64, bytes: moved, ns: t1 - t0 },
            RankPhase { ops: 1, bytes: moved, ns: t2 - t1 },
            RankPhase { ops: iters as u64, bytes: moved, ns: t3 - t2 },
        )
    });
    let put: Vec<RankPhase> = per_rank.iter().map(|r| r.0).collect();
    let bar: Vec<RankPhase> = per_rank.iter().map(|r| r.1).collect();
    let get: Vec<RankPhase> = per_rank.iter().map(|r| r.2).collect();
    (PhaseResult::aggregate(&put), PhaseResult::aggregate(&bar), PhaseResult::aggregate(&get))
}

fn main() {
    let args = BenchArgs::parse();
    if args.systems {
        print_table2();
        return;
    }
    print_header("Figure 6", "basic operations performance in a single node (put / barrier / get)");

    // The paper sweeps 256B..1MB; default keeps a representative subset.
    let sizes: Vec<usize> = if args.full {
        (8..=20).map(|p| 1usize << p).collect() // 256B .. 1MB
    } else {
        vec![256, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20]
    };

    for profile in SystemProfile::all_eval_systems() {
        // One node's worth of ranks (paper: 20 / 68 / 32).
        let ranks = if args.full { profile.ranks_per_node } else { profile.ranks_per_node.min(16) };
        let iters = args.iters_or(24, profile.iters.min(1000));
        for (storage, repo) in [("nvm", "nvm://basic"), ("lustre", "pfs://basic")] {
            let repl =
                if args.replicas > 1 { format!(", R={}", args.replicas) } else { String::new() };
            println!(
                "\n## {} / {} ({} ranks, {} iters/rank{repl})",
                profile.name, storage, ranks, iters
            );
            println!(
                "{:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
                "value", "put-KRPS", "put-MBPS", "bar-MBPS", "get-KRPS", "get-MBPS", "bar-sec"
            );
            for &vallen in &sizes {
                // With --telemetry, each begin resets the registry so the
                // written trace covers the final configuration only.
                args.telemetry_begin();
                let (put, bar, get) =
                    run_config(&profile, repo, ranks, iters, vallen, args.seed, args.replicas);
                println!(
                    "{:>8} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.4}",
                    size_label(vallen),
                    put.krps(),
                    put.mbps(),
                    bar.mbps(),
                    get.krps(),
                    get.mbps(),
                    bar.seconds(),
                );
            }
        }
    }
    args.telemetry_end();
}
