//! The `lint`, `crashcheck`, `chaos` and `serve` subcommands: each is a flag
//! table, a clean gate that prints the library's report, and a conviction
//! closure for the shared `--seed-bug` loop.

use std::process::ExitCode;

use papyrus_chaos::{chaos_sweep, run_seed_bug, ChaosCfg};
use papyrus_crashcheck::{sweep, CrashCfg, FaultMode};
use papyrus_lint::{render_json, render_sarif, SourceTree};
use papyrus_serve::{run_serve, LoadMix, LoadSkew, SeedBug, ServeCfg};

use crate::plane::{self, count, switch, text, value};
use crate::{verdict, workspace_root};

/// A machine-readable lint report format.
type Render = fn(&[papyrus_lint::Finding]) -> String;

/// `cargo xtask lint`: the seven token rules, plus the two interprocedural
/// analyses under `--deep`, over the workspace sources.
pub fn lint(args: &[String]) -> ExitCode {
    let (mut deep, mut render, mut out, mut seed_bug) = (false, None::<Render>, None, None);
    let flags = vec![
        switch("--deep", "add the two interprocedural analyses", &mut deep),
        value("--format", "human|json|sarif", "report format", &mut render, |v| match v {
            "human" => Some(None),
            "json" => Some(Some(render_json as Render)),
            "sarif" => Some(Some(render_sarif as Render)),
            _ => None,
        }),
        text("--out", "FILE", "write the json/sarif report to FILE", &mut out),
        plane::seed_bug(&mut seed_bug),
    ];
    if let Err(code) = plane::parse("lint", "protocol lint over the workspace", flags, args) {
        return code;
    }
    let tree = SourceTree::load(&workspace_root());

    if let Some(which) = seed_bug {
        // Seeds patch a clone of the snapshot; the checkout is never touched.
        return plane::self_test("lint", &which, papyrus_lint::seedbug::SEEDS, |_, seed| {
            papyrus_lint::seedbug::run_one(&tree, seed)
        });
    }

    let mut findings = papyrus_lint::rules::run_rules(&tree);
    if deep {
        findings.extend(papyrus_lint::run_deep(&tree));
        findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }
    let deep_note = if deep { " (deep)" } else { "" };
    match (&out, render.map(|render| render(&findings))) {
        (Some(path), Some(doc)) => {
            if let Err(e) = std::fs::write(path, doc + "\n") {
                eprintln!("xtask lint: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("xtask lint: {} finding(s){deep_note} -> {path}", findings.len());
        }
        (None, Some(doc)) => println!("{doc}"),
        (_, None) => {
            for f in &findings {
                println!("{}", f.render());
            }
            if findings.is_empty() {
                println!("xtask lint: clean{deep_note}");
            } else {
                println!("xtask lint: {} finding(s)", findings.len());
            }
        }
    }
    verdict(findings.is_empty())
}

/// `cargo xtask crashcheck`: record the checkpoint/restart workload and
/// sweep every crash point of its journal.
pub fn crashcheck(args: &[String]) -> ExitCode {
    let (mut cfg, mut seed_bug) = (CrashCfg::default(), None);
    let flags = vec![
        count("--ranks", "ranks in the recorded job (restores run at 3)", &mut cfg.ranks),
        count("--per-rank", "keys per rank in phase A", &mut cfg.per_rank),
        count("--stride", "check every Nth crash point (1 = exhaustive)", &mut cfg.stride),
        switch("--verbose", "per-point progress on stderr", &mut cfg.verbose),
        plane::seed_bug(&mut seed_bug),
    ];
    if let Err(code) = plane::parse("crashcheck", "crash-consistency sweep", flags, args) {
        return code;
    }
    if cfg.ranks == cfg.restore_ranks {
        // Restores must exercise redistribution.
        let restore = cfg.restore_ranks;
        eprintln!("xtask crashcheck: `--ranks` must differ from the restore job's {restore}");
        return ExitCode::FAILURE;
    }
    let Some(which) = seed_bug else {
        let report = sweep(&cfg, FaultMode::None, false);
        print!("{}", report.render());
        return verdict(report.is_clean());
    };
    plane::self_test("crashcheck", &which, &papyrus_crashcheck::SEED_BUGS, |_, &fault| {
        let report = sweep(&cfg, fault, true);
        let v = report.violations.first().ok_or("every crash state recovered clean")?;
        Ok(format!("at point {} [{}]: [{}] {}", v.point, v.policy, v.kind, v.detail))
    })
}

/// `cargo xtask chaos`: seeded fault schedules over a multi-rank workload,
/// judged by the KV oracle.
pub fn chaos(args: &[String]) -> ExitCode {
    let (mut cfg, mut seed_bug) = (ChaosCfg::default(), None);
    let flags = vec![
        count("--ranks", "ranks per schedule", &mut cfg.ranks),
        count("--per-rank", "keys per writer rank", &mut cfg.per_rank),
        count("--rounds", "overwrite rounds per schedule", &mut cfg.rounds),
        count("--seeds", "schedules in the sweep (fault classes cycle)", &mut cfg.seeds),
        count(
            "--replicas",
            "replication factor; 2+ drops the dead-owner exemption",
            &mut cfg.replicas,
        ),
        switch("--verbose", "per-schedule progress on stderr", &mut cfg.verbose),
        plane::seed_bug(&mut seed_bug),
    ];
    if let Err(code) = plane::parse("chaos", "fault-injection chaos soak", flags, args) {
        return code;
    }
    let Some(which) = seed_bug else {
        let report = chaos_sweep(&cfg);
        print!("{}", report.render());
        return verdict(report.is_clean());
    };
    plane::self_test("chaos", &which, &papyrus_chaos::SEED_BUGS, |_, &bug| {
        let report = run_seed_bug(&cfg, bug);
        let v = report.violations.first().ok_or("the schedule ran clean")?;
        Ok(format!("[{}] {}", v.kind, v.detail))
    })
}

/// `cargo xtask serve`: the RESP front-end load test. The clean gate runs
/// the world twice and demands byte-identical reports, clean oracles and a
/// group commit that is visibly batching.
pub fn serve(args: &[String]) -> ExitCode {
    // `--quick` picks the sizing the other flags then override, wherever
    // it appears on the line.
    let mut quick = args.iter().any(|a| a == "--quick");
    let mut cfg = if quick { ServeCfg::quick() } else { ServeCfg::full() };
    let (mut telemetry, mut seed_bug) = (None, None);
    let flags = vec![
        count("--ranks", "world size", &mut cfg.ranks),
        count("--conns", "simulated connections per rank", &mut cfg.conns_per_rank),
        count("--pipeline", "commands per pipelined burst", &mut cfg.pipeline),
        count("--bursts", "bursts per connection", &mut cfg.bursts),
        count("--duration-ms", "arrival window, virtual milliseconds", &mut cfg.duration_ms),
        value("--seed", "N", "run seed; same seed, same bytes", &mut cfg.seed, |v| v.parse().ok()),
        value(
            "--mix",
            "read_heavy|write_heavy|balanced",
            "command mix",
            &mut cfg.mix,
            LoadMix::parse,
        ),
        value("--skew", "uniform|zipfian", "read-key skew", &mut cfg.skew, LoadSkew::parse),
        switch("--quick", "reduced sizing (512 conns/rank) for a fast local check", &mut quick),
        text("--telemetry", "PATH", "write a Chrome trace of the serving windows", &mut telemetry),
        plane::seed_bug(&mut seed_bug),
    ];
    if let Err(code) = plane::parse("serve", "RESP front-end load test", flags, args) {
        return code;
    }

    if let Some(which) = seed_bug {
        // Seeded runs use the reduced sizing: conviction is about the
        // oracle firing, not about scale.
        return plane::self_test("serve", &which, &papyrus_serve::SEED_BUGS, |_, &bug| {
            let seeded =
                ServeCfg { seed_bug: Some(bug), seed: cfg.seed, mix: cfg.mix, ..ServeCfg::quick() };
            let report = run_serve(&seeded);
            let (durability, ryw, _) = report.violations();
            let convicted = match bug {
                SeedBug::AckBeforeFence => durability > 0,
                SeedBug::DroppedWrite => ryw > 0,
            };
            if convicted {
                Ok(report.violation_example.unwrap_or_else(|| "(no example captured)".into()))
            } else {
                Err(format!("oracles saw durability={durability} ryw={ryw}"))
            }
        });
    }

    let report = run_serve(&cfg);
    print!("{}", report.render());
    if let Some(path) = telemetry {
        if let Err(e) = papyrus_telemetry::snapshot().write_chrome_trace(&path) {
            eprintln!("xtask serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("serve: chrome trace -> {path}");
    }

    let mut ok = true;
    if !report.clean() {
        let (d, w, p) = report.violations();
        println!("serve: FAIL — oracle violations (durability {d}, ryw {w}, protocol {p})");
        ok = false;
    }
    if report.batch_mean() <= 1.0 {
        println!(
            "serve: FAIL — group commit not batching (batch mean {:.2} <= 1)",
            report.batch_mean()
        );
        ok = false;
    }
    if run_serve(&cfg).canonical() == report.canonical() {
        println!("serve: determinism OK — repeat run byte-identical");
    } else {
        println!("serve: FAIL — repeat run diverged (same seed, different report)");
        ok = false;
    }
    if ok {
        println!("serve: PASS");
    }
    verdict(ok)
}
