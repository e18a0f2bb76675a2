//! `cargo xtask perfline` — run the YCSB-style perf-trajectory suite plus the
//! serve rows, then write the `BENCH_<git-sha>.json` snapshot or, with
//! `--check`, gate the run against a committed baseline (writing a snapshot
//! only where `--out` says). Fails when `--check` finds any row worse, when
//! a snapshot cannot be written, or when the self-test misses a planted
//! regression or its clean rerun is not the reference, byte for byte.

use std::process::ExitCode;

use papyrus_perfline::{git_short_sha, run_suite, SeedBug, SuiteCfg, SEED_BUGS};
use papyrus_telemetry::{compare, PerfSnapshot};

use crate::plane::{self, count, positive, switch, text, value};
use crate::{verdict, workspace_root};

pub fn run(args: &[String]) -> ExitCode {
    // `--quick` picks the suite the other flags then override, wherever it
    // appears on the line.
    let mut quick = args.iter().any(|a| a == "--quick");
    let mut cfg = if quick { SuiteCfg::quick() } else { SuiteCfg::default_suite() };
    let (mut out, mut check, mut seed_bug) = (None, None, None);
    let flags = vec![
        text(
            "--out",
            "PATH",
            "snapshot path (BENCH_<sha>.json at the root unless --check)",
            &mut out,
        ),
        text("--check", "BASELINE.json", "gate: fail on any worse p99 or QPS", &mut check),
        switch("--quick", "scaled-down suite: 4 ranks, 2 skews", &mut quick),
        value("--ranks", "A,B,..", "rank counts to sweep", &mut cfg.ranks, |v| {
            v.split(',').map(|n| positive(n.trim())).collect()
        }),
        count("--replicas", "replication factor (2+ also exports repl_lag)", &mut cfg.replicas),
        plane::seed_bug(&mut seed_bug),
    ];
    if let Err(code) = plane::parse("perfline", "perf-trajectory suite and gate", flags, args) {
        return code;
    }
    if let Some(which) = seed_bug {
        return self_test(&which);
    }

    cfg.label = cfg.describe(if quick { "quick suite" } else { "default suite" });
    let root = workspace_root();
    let sha = git_short_sha(&root);
    println!("# perfline: {} ({} cells, git {sha})", cfg.label, suite_cells(&cfg));
    let mut snap = run_suite(&cfg);
    // Serve-plane rows ride the same snapshot and gate.
    println!("# serve rows: RESP front end at reduced sizing...");
    snap.workloads.extend(papyrus_serve::perf_rows(cfg.seed));
    snap.git_sha = sha.clone();
    print!("{}", snap.to_table());

    // A check writes nothing it was not asked to; a plain run is for its
    // snapshot.
    let by_sha = || root.join(format!("BENCH_{sha}.json")).display().to_string();
    let out = out.or_else(|| check.is_none().then(by_sha));
    let mut ok = check.is_none_or(|baseline| gate(&snap, &baseline));
    if let Some(out) = out {
        match snap.write_json(&out) {
            Ok(()) => println!("# snapshot written to {out}"),
            Err(e) => {
                eprintln!("xtask perfline: failed to write {out}: {e}");
                ok = false;
            }
        }
    }
    verdict(ok)
}

fn suite_cells(cfg: &SuiteCfg) -> usize {
    cfg.ranks.len() * cfg.skews.len() * cfg.mixes.len()
}

/// `--check`: compare against the baseline file and print the verdict.
fn gate(current: &PerfSnapshot, baseline_path: &str) -> bool {
    let baseline = match PerfSnapshot::read_json(baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("xtask perfline: cannot read baseline {baseline_path}: {e}");
            return false;
        }
    };
    let regressions = compare(current, &baseline);
    let against = format!("{baseline_path} (git {})", baseline.git_sha);
    if regressions.is_empty() {
        println!("# gate PASS: no row worse than {against}");
    } else {
        println!("# gate FAIL: {} regression(s) against {against}:", regressions.len());
        for r in &regressions {
            println!("#   {}", r.render());
        }
    }
    regressions.is_empty()
}

/// `--seed-bug`: a clean rerun of the quick suite must equal the reference
/// byte for byte, and the gate must fire, on the planted metric, for each
/// planted regression. A suite that does not repeat itself convicts nothing.
fn self_test(which: &str) -> ExitCode {
    let mut cfg = SuiteCfg::quick();
    cfg.label = cfg.describe("seed-bug self-test");
    // Run lazily, so an unknown bug name costs no suite run.
    let mut clean: Option<(PerfSnapshot, bool)> = None;
    plane::self_test("perfline", which, &SEED_BUGS, |_, &bug| {
        let (reference, same) = clean.get_or_insert_with(|| {
            println!("# self-test: clean reference run ({} cells)...", suite_cells(&cfg));
            let reference = run_suite(&cfg);
            println!("# self-test: clean rerun (must equal the reference)...");
            let same = run_suite(&cfg).to_json() == reference.to_json();
            (reference, same)
        });
        if !*same {
            return Err("the clean rerun differs from the reference".to_string());
        }
        let expect = match bug {
            SeedBug::ScanP99 => "scan.p99",
            SeedBug::Throughput => "qps",
        };
        println!("# self-test: planted {bug:?} run...");
        let bugged = run_suite(&SuiteCfg { seed_bug: Some(bug), ..cfg.clone() });
        let regs = compare(&bugged, reference);
        match regs.iter().find(|r| r.metric.contains(expect)) {
            Some(hit) => Ok(format!("{} regression(s), e.g. {}", regs.len(), hit.render())),
            None => Err(format!("expected a `{expect}` regression; the gate saw {}", regs.len())),
        }
    })
}
