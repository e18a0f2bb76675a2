//! `cargo xtask modelcheck` — build and run the schedule-exploration
//! models under `--cfg modelcheck`.
//!
//! The models live in `#[cfg(all(test, modelcheck))]` modules next to the
//! code they check, so a plain `cargo test` never compiles them. This driver
//! rebuilds the packages that carry them with `RUSTFLAGS="--cfg modelcheck"`
//! into `target/modelcheck` (the flag flip must not thrash the main cache)
//! and runs every `modelcheck_` test in release mode. `--seed-bug` runs one
//! `modelcheck_seedbug_<name>_detected` test per planted bug; each asserts
//! the explorer *finds* it, and one that fails or is gone is named.

use std::process::{Command, ExitCode};

use crate::plane;
use crate::{verdict, workspace_root};

/// Packages that carry modelcheck models or self-tests.
const MODEL_PACKAGES: &[&str] =
    &["papyrus-modelcheck", "papyruskv", "papyrus-telemetry", "papyrus-replica"];

/// The planted concurrency bugs and the package whose seed test finds each:
/// a Relaxed store where publication needs Release, two ranks passing the
/// promotion check before either acts, a cache fill outside the lock that
/// orders it against the put's invalidation.
const SEED_BUGS: [(&str, &str); 3] = [
    ("relaxed-publication", "papyrus-modelcheck"),
    ("promotion-check-then-act", "papyrus-replica"),
    ("stale-cache-fill", "papyruskv"),
];

pub fn run(args: &[String]) -> ExitCode {
    let mut seed_bug = None;
    let flags = vec![plane::seed_bug(&mut seed_bug)];
    if let Err(code) = plane::parse("modelcheck", "interleaving exploration", flags, args) {
        return code;
    }
    if let Some(which) = seed_bug {
        return plane::self_test("modelcheck", &which, &SEED_BUGS, |name, pkg| {
            let test = format!("modelcheck_seedbug_{}_detected", name.replace('-', "_"));
            match run_package(pkg, &test)? {
                0 => Err(format!("no test `{test}` in {pkg} — was it renamed?")),
                _ => Ok(format!("{pkg}: {test} passed (the explorer found the planted bug)")),
            }
        });
    }

    let mut total_passed = 0usize;
    for pkg in MODEL_PACKAGES {
        match run_package(pkg, "modelcheck_") {
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
    println!(
        "xtask modelcheck: {total_passed} model test(s) passed across {} package(s)",
        MODEL_PACKAGES.len()
    );
    // Zero models run is not a clean sweep.
    verdict(total_passed > 0)
}

/// Run `cargo test` for one package under `--cfg modelcheck`; returns the
/// passed-test count parsed from the harness summary line.
fn run_package(pkg: &str, filter: &str) -> Result<usize, String> {
    // Append to any ambient RUSTFLAGS rather than clobbering them.
    let ambient = std::env::var("RUSTFLAGS").unwrap_or_default();
    let rustflags = format!("{ambient} --cfg modelcheck");

    let out = Command::new(env!("CARGO"))
        .current_dir(workspace_root())
        .env("RUSTFLAGS", rustflags)
        .args(["test", "--release", "--lib", "-p", pkg])
        .args(["--target-dir", "target/modelcheck", filter])
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
