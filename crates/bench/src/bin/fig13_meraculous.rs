//! Figure 13: Meraculous performance — PapyrusKV (PKV) vs UPC on Cori.
//!
//! Total execution time (de Bruijn graph construction + traversal) on a
//! synthetic chr14-scale genome across a thread sweep, for the PapyrusKV
//! port of the distributed k-mer hash table vs. the UPC (one-sided DSM)
//! original. Expected shape: UPC faster thanks to RDMA gets and remote
//! atomics during traversal, with the gap narrowing as threads increase
//! (~1.5x at the top of the sweep in the paper).
//!
//! Also verifies the two versions' contigs agree (the artifact's
//! `check_results.sh`).

use std::sync::Arc;

use meraculous::{
    assemble::{construct, meraculous_hash, traverse, DsmBackend, PkvBackend},
    genome::{synthesize_genome, synthesize_reads, GenomeConfig},
    ufx::build_dataset,
    verify::check_contigs,
};
use papyrus_bench::{print_header, BenchArgs};
use papyrus_dsm::GlobalHashTable;
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::{Context, OpenFlags, Options, Platform};

struct RunOut {
    total_ns: u64,
    contigs: Vec<Vec<u8>>,
}

fn run_pkv(
    args: &BenchArgs,
    profile: &SystemProfile,
    threads: usize,
    dataset: Arc<Vec<meraculous::UfxRecord>>,
    k: usize,
) -> RunOut {
    let platform = Platform::new(profile.clone(), threads);
    let world =
        WorldConfig::new(threads, profile.net.clone()).with_telemetry(args.telemetry_begin());
    let per_rank = World::run(world, move |rank| {
        let ctx = Context::init(rank.clone(), platform.clone(), "nvm://meraculous").unwrap();
        let opt = Options::default()
            .with_memtable_capacity(32 << 20)
            .with_custom_hash(Arc::new(meraculous_hash));
        let db = ctx.open("kmers", OpenFlags::create(), opt).unwrap();
        let backend = PkvBackend::new(db.clone());
        let t0 = ctx.now();
        construct(&backend, &dataset, rank.rank(), rank.size());
        let contigs = traverse(&backend, &dataset, rank.rank(), k, dataset.len() + 10);
        let t1 = ctx.now();
        db.close().unwrap();
        ctx.finalize().unwrap();
        (t1 - t0, contigs)
    });
    RunOut {
        total_ns: per_rank.iter().map(|r| r.0).max().unwrap_or(0),
        contigs: per_rank.into_iter().flat_map(|r| r.1).collect(),
    }
}

fn run_upc(
    profile: &SystemProfile,
    threads: usize,
    dataset: Arc<Vec<meraculous::UfxRecord>>,
    k: usize,
) -> RunOut {
    let shared =
        GlobalHashTable::shared(threads, 1 << 16, profile.net.clone(), profile.mem.clone());
    let per_rank = World::run(WorldConfig::new(threads, profile.net.clone()), move |rank| {
        let backend =
            DsmBackend::new(GlobalHashTable::attach(shared.clone(), rank.clone()), rank.clone());
        let t0 = rank.now();
        construct(&backend, &dataset, rank.rank(), rank.size());
        let contigs = traverse(&backend, &dataset, rank.rank(), k, dataset.len() + 10);
        let t1 = rank.now();
        (t1 - t0, contigs)
    });
    RunOut {
        total_ns: per_rank.iter().map(|r| r.0).max().unwrap_or(0),
        contigs: per_rank.into_iter().flat_map(|r| r.1).collect(),
    }
}

fn main() {
    let args = BenchArgs::parse();
    print_header("Figure 13", "Meraculous: PapyrusKV (PKV) vs UPC total execution time");

    // Synthetic stand-in for human chr14 (not redistributable); --full uses
    // a ~2 Mbp genome, default a ~200 kbp one.
    let gcfg = GenomeConfig {
        length: if args.full { 2_000_000 } else { 200_000 },
        repeats: if args.full { 400 } else { 40 },
        repeat_len: 64,
        read_len: 150,
        coverage: 6,
        seed: args.seed,
    };
    let k = 21;
    let genome = synthesize_genome(&gcfg);
    let reads = synthesize_reads(&genome, &gcfg);
    let dataset = Arc::new(build_dataset(&reads, k));
    println!(
        "# genome {} bp, {} reads, {} UFX records, k={k}",
        genome.len(),
        reads.len(),
        dataset.len()
    );

    let profile = SystemProfile::cori();
    let sweep = args.ranks_or(&[4, 8, 16, 32], &[32, 64, 128, 256, 512]);
    println!("{:>8} {:>10} {:>10} {:>10}", "threads", "PKV-s", "UPC-s", "PKV/UPC");
    let mut verified = true;
    for &n in &sweep {
        let upc = run_upc(&profile, n, dataset.clone(), k);
        let pkv = run_pkv(&args, &profile, n, dataset.clone(), k);
        println!(
            "{:>8} {:>10.3} {:>10.3} {:>10.2}",
            n,
            pkv.total_ns as f64 / 1e9,
            upc.total_ns as f64 / 1e9,
            pkv.total_ns as f64 / upc.total_ns.max(1) as f64
        );
        match check_contigs(&genome, &pkv.contigs, &upc.contigs, 900) {
            Ok(report) => {
                if n == sweep[0] {
                    println!(
                        "# verified: {} contigs, {} bases, {}.{}% genome coverage",
                        report.contigs,
                        report.bases,
                        report.coverage_permille / 10,
                        report.coverage_permille % 10
                    );
                }
            }
            Err(e) => {
                verified = false;
                println!("# VERIFICATION FAILED at {n} threads: {e}");
            }
        }
    }
    if verified {
        println!("# all contig sets verified identical across backends (check_results.sh OK)");
    }
    args.telemetry_end();
}
