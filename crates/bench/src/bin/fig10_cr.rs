//! Figure 10: checkpoint, restart, and restart-with-redistribution (RD)
//! performance.
//!
//! The artifact's three coupled `cr` applications: (1) fill the database
//! and checkpoint it to Lustre; (2) restart from the snapshot verbatim;
//! (3) restart with the redistribution path forced
//! (`PAPYRUSKV_FORCE_REDISTRIBUTE=1`), even though rank counts match.
//! Reports total time and aggregate bandwidth for each step.

use papyrus_bench::{print_header, random_keys, value_of, BenchArgs};
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::{Context, OpenFlags, Options, Platform};

struct CrResult {
    ckpt_ns: u64,
    restart_ns: u64,
    rd_ns: u64,
    bytes: u64,
}

fn run_config(
    args: &BenchArgs,
    profile: &SystemProfile,
    ranks: usize,
    iters: usize,
    vallen: usize,
) -> CrResult {
    let platform = Platform::new(profile.clone(), ranks);
    let seed = args.seed;
    let world = WorldConfig::new(ranks, profile.net.clone()).with_telemetry(args.telemetry_begin());
    let results = World::run(world, move |rank| {
        let ctx = Context::init(rank.clone(), platform.clone(), "nvm://cr").unwrap();
        let opt = Options::default().with_memtable_capacity(16 << 20);

        // Application 1: fill + checkpoint.
        let db = ctx.open("cr", OpenFlags::create(), opt.clone()).unwrap();
        let keys = random_keys(iters, 16, seed + rank.rank() as u64);
        let value = value_of(vallen, b'v');
        for k in &keys {
            db.put(k, &value).unwrap();
        }
        let t0 = ctx.now();
        let ev = db.checkpoint("lustre-snap").unwrap();
        let ckpt_done = ev.wait();
        let ckpt_ns = ckpt_done.saturating_sub(t0);
        db.destroy().unwrap();
        ctx.barrier_all();
        if ctx.rank() == 0 {
            platform.storage.trim_nvm(); // job boundary: scratch trimmed
        }
        ctx.barrier_all();

        // Application 2: restart (same rank count, verbatim copy-back).
        let t1 = ctx.now();
        let (db2, ev2) =
            ctx.restart("lustre-snap", "cr", OpenFlags::create(), opt.clone(), false).unwrap();
        let restart_done = ev2.wait();
        let restart_ns = restart_done.saturating_sub(t1);
        db2.destroy().unwrap();
        ctx.barrier_all();
        if ctx.rank() == 0 {
            platform.storage.trim_nvm();
        }
        ctx.barrier_all();

        // Application 3: restart with forced redistribution.
        let t2 = ctx.now();
        let (db3, ev3) =
            ctx.restart("lustre-snap", "cr", OpenFlags::create(), opt.clone(), true).unwrap();
        let rd_done = ev3.wait();
        let rd_ns = rd_done.saturating_sub(t2);
        db3.close().unwrap();
        ctx.finalize().unwrap();
        (ckpt_ns, restart_ns, rd_ns)
    });
    CrResult {
        ckpt_ns: results.iter().map(|r| r.0).max().unwrap_or(0),
        restart_ns: results.iter().map(|r| r.1).max().unwrap_or(0),
        rd_ns: results.iter().map(|r| r.2).max().unwrap_or(0),
        bytes: (ranks * iters * (16 + vallen)) as u64,
    }
}

fn main() {
    let args = BenchArgs::parse();
    print_header("Figure 10", "checkpoint / restart / restart with redistribution (RD)");

    let vallen = 128 << 10;
    for profile in SystemProfile::all_eval_systems() {
        let sweep = args.ranks_or(&[2, 4, 8, 16], &[32, 64, 128, 256, 512]);
        let iters = args.iters_or(16, profile.iters.min(1000));
        println!("\n## {} ({} iters/rank, 16B keys, 128KB values)", profile.name, iters);
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "ranks", "ckpt-s", "ckpt-MBPS", "rst-s", "rst-MBPS", "rd-s", "rd-MBPS"
        );
        for &n in &sweep {
            let r = run_config(&args, &profile, n, iters, vallen);
            let mbps = |ns: u64| papyrus_simtime::mbps(r.bytes, ns);
            println!(
                "{:>6} {:>10.3} {:>10.1} {:>10.3} {:>10.1} {:>10.3} {:>10.1}",
                n,
                r.ckpt_ns as f64 / 1e9,
                mbps(r.ckpt_ns),
                r.restart_ns as f64 / 1e9,
                mbps(r.restart_ns),
                r.rd_ns as f64 / 1e9,
                mbps(r.rd_ns),
            );
        }
    }
    args.telemetry_end();
}
