//! `cargo xtask modelcheck` — build and run the schedule-exploration
//! models under `--cfg modelcheck`.
//!
//! The models live in `#[cfg(all(test, modelcheck))]` modules next to the
//! code they check (core's blocking queue and its local-cache coherence,
//! telemetry's histogram and registry, replica's promotion table) plus
//! `papyrus-modelcheck`'s own self-tests. A plain `cargo test` never compiles them; this driver
//! rebuilds the affected packages with `RUSTFLAGS="--cfg modelcheck"` into
//! a separate target dir (`target/modelcheck`, so the flag flip doesn't
//! thrash the main incremental cache) and runs every `modelcheck_`-named
//! test in release mode (the exhaustive blocking-queue model explores ~16k
//! interleavings; debug mode roughly doubles the wall time).
//!
//! `--seed-bug all` instead runs the `modelcheck_seedbug_` tests: each
//! plants a known concurrency bug (a Relaxed store where publication needs
//! Release, a check-then-act promotion race, a cache fill outside the lock
//! that orders it against the put's invalidation) and asserts the explorer
//! *finds* it. All planted bugs must be detected or the driver fails —
//! this is the evidence that a quiet clean run means something.

use std::process::{Command, ExitCode};

use crate::workspace_root;

/// Packages that carry modelcheck models or self-tests.
const MODEL_PACKAGES: &[&str] =
    &["papyrus-modelcheck", "papyruskv", "papyrus-telemetry", "papyrus-replica"];

/// Number of planted seed bugs `--seed-bug all` must detect.
const SEEDED_BUGS: usize = 3;

pub fn run(args: &[String]) -> ExitCode {
    let mut seed_bug = false;
    let mut filter: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed-bug" => match it.next().map(String::as_str) {
                Some("all") => seed_bug = true,
                other => {
                    eprintln!("xtask modelcheck: --seed-bug takes `all`, got {other:?}");
                    return ExitCode::FAILURE;
                }
            },
            "--filter" => filter = it.next().cloned(),
            other => {
                eprintln!("xtask modelcheck: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let default_filter = if seed_bug { "modelcheck_seedbug_" } else { "modelcheck_" };
    let filter = filter.unwrap_or_else(|| default_filter.to_string());

    let mut total_passed = 0usize;
    for pkg in MODEL_PACKAGES {
        match run_package(pkg, &filter) {
            Ok(passed) => {
                println!("xtask modelcheck: {pkg}: {passed} model test(s) passed");
                total_passed += passed;
            }
            Err(msg) => {
                eprintln!("xtask modelcheck: {pkg}: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }

    if seed_bug {
        if total_passed == SEEDED_BUGS {
            println!(
                "xtask modelcheck --seed-bug: {total_passed}/{SEEDED_BUGS} planted bugs detected"
            );
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "xtask modelcheck --seed-bug: expected {SEEDED_BUGS} planted-bug detections, \
                 got {total_passed} — a seed bug went undetected or a test was renamed"
            );
            ExitCode::FAILURE
        }
    } else if total_passed == 0 {
        // A filter that matches nothing would otherwise report success
        // while running zero models.
        eprintln!("xtask modelcheck: no tests matched filter `{filter}`");
        ExitCode::FAILURE
    } else {
        println!(
            "xtask modelcheck: {total_passed} model test(s) passed across {} package(s)",
            MODEL_PACKAGES.len()
        );
        ExitCode::SUCCESS
    }
}

/// Run `cargo test` for one package under `--cfg modelcheck`; returns the
/// passed-test count parsed from the harness summary line.
fn run_package(pkg: &str, filter: &str) -> Result<usize, String> {
    // Append to any ambient RUSTFLAGS rather than clobbering them.
    let mut rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !rustflags.is_empty() {
        rustflags.push(' ');
    }
    rustflags.push_str("--cfg modelcheck");

    let out = Command::new(env!("CARGO"))
        .current_dir(workspace_root())
        .env("RUSTFLAGS", rustflags)
        .args([
            "test",
            "--release",
            "--lib",
            "-p",
            pkg,
            "--target-dir",
            "target/modelcheck",
            filter,
        ])
        .output()
        .map_err(|e| format!("failed to run cargo: {e}"))?;

    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!(
            "model tests FAILED\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
        ));
    }
    parse_passed(&stdout)
        .ok_or_else(|| format!("could not parse test summary from output:\n{stdout}"))
}

/// Sum the `N passed` counts from libtest `test result:` summary lines.
fn parse_passed(stdout: &str) -> Option<usize> {
    let mut total = None;
    for line in stdout.lines() {
        let Some(rest) = line.trim().strip_prefix("test result: ok.") else { continue };
        let n = rest.trim().split(' ').next()?.parse::<usize>().ok()?;
        *total.get_or_insert(0) += n;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_libtest_summary() {
        let out = "running 2 tests\ntest a ... ok\ntest b ... ok\n\n\
                   test result: ok. 2 passed; 0 failed; 0 ignored; 0 measured; 5 filtered out; finished in 0.01s\n";
        assert_eq!(parse_passed(out), Some(2));
        assert_eq!(parse_passed("no summary here"), None);
        // Doctest + unit summaries sum.
        let two = "test result: ok. 2 passed; 0 failed\ntest result: ok. 3 passed; 0 failed\n";
        assert_eq!(parse_passed(two), Some(5));
    }
}
