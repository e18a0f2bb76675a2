//! # papyrus-bench
//!
//! Benchmark harnesses regenerating every table and figure of the paper's
//! evaluation (§5). One binary per figure under `src/bin/`:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig6_basic` | Figure 6 (put/barrier/get vs. value size, NVM vs Lustre, 3 systems) + Table 2 |
//! | `fig7_consistency` | Figure 7 (put throughput, relaxed vs sequential, ± barrier) |
//! | `fig8_get` | Figure 8 (get throughput: Default / +SG / +B / +SG+B) |
//! | `fig9_workload` | Figure 9 (read/update mixes, ± read-only protection) |
//! | `fig10_cr` | Figure 10 (checkpoint / restart / restart+redistribution) |
//! | `fig11_mdhim` | Figure 11 (PapyrusKV vs MDHIM, NVMe vs Lustre) |
//! | `fig13_meraculous` | Figure 13 (Meraculous: PapyrusKV vs UPC) |
//! | `ablations` | extra design-choice ablations (bloom, compaction trigger, cache, queue depth) |
//! | `diag_latency` | diagnostic: per-rank phase-time distribution (not a paper figure) |
//!
//! Numbers are *virtual-time* throughputs from the calibrated device and
//! network models; the goal is the paper's shape (who wins, by what factor,
//! where curves cross), not its absolute values. Every binary accepts
//! `--full` for paper-scale parameters and prints scaled-down defaults
//! otherwise; see `EXPERIMENTS.md` for recorded outputs.

pub mod workload;

use papyrus_simtime::SimNs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Alphanumeric alphabet used by the paper's key generator ("random strings
/// containing letters (a-Z) and digits (0-9) ... uniformly distributed").
const ALPHANUM: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";

/// Generate `n` uniformly random alphanumeric keys of `len` bytes.
/// Deterministic in `seed` (each rank passes a distinct seed).
pub fn random_keys(n: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..len).map(|_| ALPHANUM[rng.gen_range(0..ALPHANUM.len())]).collect()).collect()
}

/// Generate a value buffer of `len` bytes.
pub fn value_of(len: usize, tag: u8) -> Vec<u8> {
    vec![tag; len]
}

/// Per-rank measurement of one phase: operations, payload bytes, and the
/// rank's virtual time spent.
#[derive(Debug, Clone, Copy)]
pub struct RankPhase {
    /// Operations completed.
    pub ops: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Virtual nanoseconds elapsed on this rank.
    pub ns: SimNs,
}

/// Aggregated phase result across ranks.
#[derive(Debug, Clone, Copy)]
pub struct PhaseResult {
    /// Total operations across ranks.
    pub ops: u64,
    /// Total payload bytes across ranks.
    pub bytes: u64,
    /// Slowest rank's virtual time — the parallel elapsed time.
    pub max_ns: SimNs,
    /// Fastest rank's virtual time.
    pub min_ns: SimNs,
    /// Mean rank virtual time.
    pub avg_ns: f64,
}

impl PhaseResult {
    /// Aggregate per-rank phases (parallel semantics: elapsed = max).
    pub fn aggregate(per_rank: &[RankPhase]) -> Self {
        let ops = per_rank.iter().map(|p| p.ops).sum();
        let bytes = per_rank.iter().map(|p| p.bytes).sum();
        let max_ns = per_rank.iter().map(|p| p.ns).max().unwrap_or(0);
        let min_ns = per_rank.iter().map(|p| p.ns).min().unwrap_or(0);
        let avg_ns = if per_rank.is_empty() {
            0.0
        } else {
            per_rank.iter().map(|p| p.ns as f64).sum::<f64>() / per_rank.len() as f64
        };
        Self { ops, bytes, max_ns, min_ns, avg_ns }
    }

    /// Aggregate throughput in kilo-requests/second (the paper's KRPS).
    pub fn krps(&self) -> f64 {
        papyrus_simtime::krps(self.ops, self.max_ns)
    }

    /// Aggregate bandwidth in MB/s (the paper's MBPS).
    pub fn mbps(&self) -> f64 {
        papyrus_simtime::mbps(self.bytes, self.max_ns)
    }

    /// Elapsed parallel time in seconds.
    pub fn seconds(&self) -> f64 {
        self.max_ns as f64 / 1e9
    }
}

/// Parsed CLI arguments shared by the figure binaries: `--full`
/// (paper-scale), `--iters N`, `--ranks a,b,c`, `--seed N`, `--replicas R`,
/// `--telemetry out.json` (Chrome trace + metrics table), `--systems`.
/// Anything else — an unknown flag, a missing or unparsable value, a zero
/// count — is an error, as it is for every `cargo xtask` plane.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Paper-scale parameters requested.
    pub full: bool,
    /// Iteration-count override.
    pub iters: Option<usize>,
    /// Rank-sweep override.
    pub ranks: Option<Vec<usize>>,
    /// Workload seed.
    pub seed: u64,
    /// Replication factor (`--replicas R`, default 1 = the paper's
    /// unreplicated behaviour). At 2+ every put also lands on R-1
    /// successor ranks, so the put columns show the replication overhead.
    pub replicas: usize,
    /// Chrome-trace output path; `Some` turns telemetry recording on.
    pub telemetry: Option<String>,
    /// Print Table 2, the target-system summary, instead of running
    /// (`fig6_basic` only).
    pub systems: bool,
}

const USAGE: &str = "usage: [--full] [--iters N] [--ranks a,b,c] [--seed N] [--replicas R] \
                     [--telemetry out.json] [--systems]";

/// A positive count given as the value (or one comma-separated part of the
/// value) of `flag`.
fn positive(flag: &str, v: &str) -> Result<usize, String> {
    match v.trim().parse() {
        Ok(0) | Err(_) => Err(format!("{flag}: expected a positive integer, got {v:?}")),
        Ok(n) => Ok(n),
    }
}

impl BenchArgs {
    /// Parse from `std::env::args`; on a bad command line print the error
    /// and the usage line and exit 2.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parse from an explicit iterator (tests).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self {
            full: false,
            iters: None,
            ranks: None,
            seed: 0x5EED,
            replicas: 1,
            telemetry: None,
            systems: false,
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{a}: missing value"));
            match a.as_str() {
                "--full" => out.full = true,
                "--systems" => out.systems = true,
                "--iters" => out.iters = Some(positive(&a, &value()?)?),
                "--replicas" => out.replicas = positive(&a, &value()?)?,
                "--telemetry" => out.telemetry = Some(value()?),
                "--ranks" => {
                    let ranks: Result<_, _> =
                        value()?.split(',').map(|n| positive(&a, n)).collect();
                    out.ranks = Some(ranks?);
                }
                "--seed" => {
                    let v = value()?;
                    out.seed = v.parse().map_err(|_| format!("{a}: bad seed {v:?}"))?;
                }
                _ => return Err(format!("unknown flag {a}")),
            }
        }
        Ok(out)
    }

    /// Pick iteration count: explicit > full-scale > default.
    pub fn iters_or(&self, default: usize, full_scale: usize) -> usize {
        self.iters.unwrap_or(if self.full { full_scale } else { default })
    }

    /// Pick the rank sweep: explicit > full-scale > default.
    pub fn ranks_or(&self, default: &[usize], full_scale: &[usize]) -> Vec<usize> {
        match &self.ranks {
            Some(r) if !r.is_empty() => r.clone(),
            _ => if self.full { full_scale } else { default }.to_vec(),
        }
    }

    /// Start a telemetry capture window if `--telemetry` was given: zeroes
    /// the global registry and turns recording on. Call before each sweep
    /// point so the trace covers a single run (virtual clocks restart at 0
    /// every `World::run`, so merging runs would overlay their timelines).
    pub fn telemetry_begin(&self) {
        if self.telemetry.is_some() {
            papyrus_telemetry::reset();
            papyrus_telemetry::enable();
        }
    }

    /// Finish the capture: write the Chrome trace JSON (open in
    /// chrome://tracing or Perfetto), print the per-rank metrics table,
    /// and turn recording back off. No-op without `--telemetry`.
    pub fn telemetry_end(&self) {
        let Some(path) = &self.telemetry else { return };
        let snap = papyrus_telemetry::snapshot();
        papyrus_telemetry::disable();
        match snap.write_chrome_trace(path) {
            Ok(()) => eprintln!("# telemetry: chrome trace written to {path}"),
            Err(e) => eprintln!("# telemetry: failed to write {path}: {e}"),
        }
        print!("{}", snap.to_table());
    }
}

/// Human-readable value-size label (256B, 4KB, 1MB...).
pub fn size_label(bytes: usize) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}MB", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes.is_multiple_of(1 << 10) {
        format!("{}KB", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

/// Print a figure header in a consistent style.
pub fn print_header(figure: &str, description: &str) {
    println!("# {figure}: {description}");
    println!("# (virtual-time reproduction; compare shapes, not absolutes)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_deterministic_alphanumeric_and_distinct() {
        let a = random_keys(100, 16, 1);
        let b = random_keys(100, 16, 1);
        let c = random_keys(100, 16, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|k| k.len() == 16));
        assert!(a.iter().all(|k| k.iter().all(|ch| ch.is_ascii_alphanumeric())));
        let uniq: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(uniq.len(), 100, "16-byte random keys should not collide");
    }

    #[test]
    fn aggregate_parallel_semantics() {
        let per_rank = vec![
            RankPhase { ops: 10, bytes: 100, ns: 50 },
            RankPhase { ops: 10, bytes: 100, ns: 200 },
        ];
        let agg = PhaseResult::aggregate(&per_rank);
        assert_eq!(agg.ops, 20);
        assert_eq!(agg.bytes, 200);
        assert_eq!(agg.max_ns, 200);
        assert_eq!(agg.min_ns, 50);
        assert!((agg.avg_ns - 125.0).abs() < 1e-9);
        // 20 ops over 200 ns = 100_000 KRPS.
        assert!((agg.krps() - 100_000.0).abs() < 1.0);
    }

    #[test]
    fn args_parse() {
        let parse = |args: &[&str]| BenchArgs::from_args(args.iter().map(|a| a.to_string()));
        let a = parse(&["--full", "--iters", "99", "--ranks", "1,2,4", "--seed", "7"]).unwrap();
        assert!(a.full && !a.systems);
        assert_eq!(a.iters, Some(99));
        assert_eq!(a.ranks, Some(vec![1, 2, 4]));
        assert_eq!(a.seed, 7);
        assert_eq!(parse(&["--replicas", "2"]).unwrap().replicas, 2);
        assert_eq!(a.iters_or(10, 100), 99);

        let d = parse(&[]).unwrap();
        assert!(!d.full);
        assert_eq!(d.replicas, 1);
        assert_eq!(d.iters_or(10, 100), 10);
        assert_eq!(d.ranks_or(&[1, 2], &[1, 2, 3]), vec![1, 2]);
        let f = parse(&["--full", "--systems"]).unwrap();
        assert!(f.systems);
        assert_eq!(f.iters_or(10, 100), 100);
        assert_eq!(f.ranks_or(&[1, 2], &[1, 2, 3]), vec![1, 2, 3]);

        // What it does not understand it rejects, naming the flag.
        for (bad, names) in [
            (&["--rank", "4"][..], "--rank"),
            (&["--iters", "x"], "--iters"),
            (&["--iters"], "--iters"),
            (&["--ranks", "2,0"], "--ranks"),
            (&["--replicas", "0"], "--replicas"),
            (&["--seed", "-1"], "--seed"),
            (&["--telemetry"], "--telemetry"),
        ] {
            let err = parse(bad).expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains(names), "{bad:?}: {err}");
        }
    }

    #[test]
    fn size_labels() {
        assert_eq!(size_label(256), "256B");
        assert_eq!(size_label(4096), "4KB");
        assert_eq!(size_label(1 << 20), "1MB");
        assert_eq!(size_label(1500), "1500B");
    }
}
