//! Figure 11: PapyrusKV (PKV) vs MDHIM on Summitdev, with NVMe (N) and
//! Lustre (L) storage, 8 B and 128 KB values.
//!
//! Workload: the Figure 9 app at a 50/50 update/read ratio — each rank runs
//! an init fill, then mixed puts and gets over the same keys. PKV runs in
//! sequential consistency (apples-to-apples with MDHIM's synchronous ops).
//!
//! Expected shape (paper §5.2): PKV above MDHIM in throughput and scaling;
//! for 8 B values both pairs (N, L) coincide (the data never leaves DRAM);
//! for 128 KB values NVMe beats Lustre for both systems, and PKV's storage
//! groups widen its lead.

use mdhim::{Mdhim, MdhimConfig};
use papyrus_bench::{print_header, random_keys, value_of, BenchArgs, PhaseResult, RankPhase};
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::{Consistency, Context, OpenFlags, Options, Platform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn run_pkv(
    args: &BenchArgs,
    profile: &SystemProfile,
    ranks: usize,
    iters: usize,
    vallen: usize,
    on_pfs: bool,
) -> PhaseResult {
    let platform = Platform::new(profile.clone(), ranks);
    let repo = if on_pfs { "pfs://workload" } else { "nvm://workload" };
    let (repo, seed) = (repo.to_string(), args.seed);
    let world = WorldConfig::new(ranks, profile.net.clone()).with_telemetry(args.telemetry_begin());
    let per_rank = World::run(world, move |rank| {
        let ctx = Context::init(rank.clone(), platform.clone(), &repo).unwrap();
        // 1 MiB MemTables: the 8 B workload never reaches capacity (it
        // stays in DRAM — the paper's observation that N and L coincide),
        // while the 128 KB workload flushes to SSTables naturally.
        let opt = Options::default()
            .with_memtable_capacity(1 << 20)
            .with_consistency(Consistency::Sequential);
        let db = ctx.open("workload", OpenFlags::create(), opt).unwrap();
        let keys = random_keys(iters, 16, seed + rank.rank() as u64);
        let value = value_of(vallen, b'v');
        for k in &keys {
            db.put(k, &value).unwrap();
        }
        db.barrier(papyruskv::BarrierLevel::MemTable).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ (rank.rank() as u64) << 32);
        let t0 = ctx.now();
        let mut bytes = 0u64;
        for k in &keys {
            if rng.gen_range(0..100) < 50 {
                db.put(k, &value).unwrap();
                bytes += (16 + vallen) as u64;
            } else {
                bytes += db.get(k).unwrap().len() as u64 + 16;
            }
        }
        let t1 = ctx.now();
        db.close().unwrap();
        ctx.finalize().unwrap();
        RankPhase { ops: iters as u64, bytes, ns: t1 - t0 }
    });
    PhaseResult::aggregate(&per_rank)
}

fn run_mdhim(
    profile: &SystemProfile,
    ranks: usize,
    iters: usize,
    vallen: usize,
    on_pfs: bool,
    seed: u64,
) -> PhaseResult {
    let platform = Platform::new(profile.clone(), ranks);
    let prof = profile.clone();
    let per_rank = World::run(WorldConfig::new(ranks, profile.net.clone()), move |rank| {
        let mut m = Mdhim::init(
            rank.clone(),
            prof.clone(),
            &platform.storage,
            "workload",
            MdhimConfig { memtable_capacity: 1 << 20, use_pfs: on_pfs },
        );
        let keys = random_keys(iters, 16, seed + rank.rank() as u64);
        let value = value_of(vallen, b'v');
        for k in &keys {
            m.put(k, &value).unwrap();
        }
        rank.world().barrier();
        let mut rng = StdRng::seed_from_u64(seed ^ (rank.rank() as u64) << 32);
        let t0 = rank.now();
        let mut bytes = 0u64;
        for k in &keys {
            if rng.gen_range(0..100) < 50 {
                m.put(k, &value).unwrap();
                bytes += (16 + vallen) as u64;
            } else {
                bytes += m.get(k).unwrap().map_or(0, |v| v.len() as u64) + 16;
            }
        }
        let t1 = rank.now();
        m.finalize().unwrap();
        RankPhase { ops: iters as u64, bytes, ns: t1 - t0 }
    });
    PhaseResult::aggregate(&per_rank)
}

fn main() {
    let args = BenchArgs::parse();
    print_header("Figure 11", "PapyrusKV (PKV) vs MDHIM; NVMe (N) and Lustre (L) storage");

    let profile = SystemProfile::summitdev();
    let rpn = profile.ranks_per_node;
    let sweep = args
        .ranks_or(&[1, 2, 4, 8, 16], &[1, 2, 4, 8, 16, rpn, rpn * 2, rpn * 4, rpn * 8, rpn * 16]);
    for vallen in [8usize, 128 << 10] {
        let iters = args.iters_or(16, 10_000.min(if vallen == 8 { 10_000 } else { 1_000 }));
        println!("\n## summitdev, {}B values ({} iters/rank, update/read 50/50)", vallen, iters);
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>12}",
            "ranks", "PKV-N-KRPS", "PKV-L-KRPS", "MDH-N-KRPS", "MDH-L-KRPS"
        );
        for &n in &sweep {
            let pkv_n = run_pkv(&args, &profile, n, iters, vallen, false);
            let mdh_n = run_mdhim(&profile, n, iters, vallen, false, args.seed);
            let mdh_l = run_mdhim(&profile, n, iters, vallen, true, args.seed);
            let pkv_l = run_pkv(&args, &profile, n, iters, vallen, true);
            println!(
                "{:>6} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
                n,
                pkv_n.krps(),
                pkv_l.krps(),
                mdh_n.krps(),
                mdh_l.krps()
            );
        }
    }
    args.telemetry_end();
}
