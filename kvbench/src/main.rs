//! `kvbench --workload <name> --seed <n> --seconds <n> --trace <0|1>` runs
//! one workload and prints its metrics, the result line last;
//! `kvbench --compare A.jsonl B.jsonl` applies the bounds to two result sets.

use std::process::ExitCode;

use kvbench::metrics::WORKLOADS;
use kvbench::run::{run_workload, Sizing};

const USAGE: &str =
    "usage: kvbench --workload <name> --seed <u64> [--seconds <1..60>] [--trace <0|1>]
       kvbench --compare <parent.jsonl> <change.jsonl>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let [_, parent, change] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match kvbench::compare::compare_files(parent, change) {
            Ok(outcome) => {
                print!("{}", outcome.table);
                if outcome.regressions == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("kvbench --compare: {e}");
                ExitCode::from(2)
            }
        };
    }

    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 8u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().map(String::as_str);
        let parsed = match (flag.as_str(), value) {
            ("--workload", Some(v)) => {
                workload = Some(v.to_string());
                true
            }
            ("--seed", Some(v)) => {
                seed = v.parse::<u64>().ok();
                seed.is_some()
            }
            ("--seconds", Some(v)) => v.parse().map(|s| seconds = s).is_ok(),
            ("--trace", Some("0")) => true,
            ("--trace", Some("1")) => {
                trace = true;
                true
            }
            _ => false,
        };
        if !parsed {
            eprintln!("kvbench: bad argument {flag} {}\n{USAGE}", value.unwrap_or(""));
            return ExitCode::from(2);
        }
    }
    let (Some(workload), Some(seed), 1..=60) = (workload, seed, seconds) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match kvbench::rig::pin_to_current_cpu() {
        Some(cpu) => eprintln!("# pinned to cpu {cpu}"),
        None => eprintln!("# could not pin to one cpu; host times will be noisier"),
    }
    let Some(report) = run_workload(&workload, seed, Sizing { seconds, micro: false }, trace)
    else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("kvbench: unknown workload {workload}; one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    print!("{}", report.table());
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
