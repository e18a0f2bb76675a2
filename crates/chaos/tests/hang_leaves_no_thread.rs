//! A hung schedule is over when its verdict is: once `run_seed_bug` has
//! convicted the planted hang, no thread of the convicted world is left.
//! Its own test binary, so no other world's threads share the process.
#![cfg(target_os = "linux")]

use papyrus_chaos::{run_seed_bug, ChaosCfg, PlantedBug};

/// Threads of any world in this process: rank tasks (`rank-N`) and the
/// runtime's helpers (`pkv-…`), by their kernel thread names.
fn world_threads() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("a Linux process table");
    let names = tasks.flatten().filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok());
    names
        .map(|name| name.trim_end().to_string())
        .filter(|name| name.starts_with("rank-") || name.starts_with("pkv-"))
        .collect()
}

#[test]
fn a_convicted_world_leaves_no_thread_behind() {
    assert_eq!(world_threads(), Vec::<String>::new(), "no world runs yet");
    let report = run_seed_bug(&ChaosCfg::tiny(), PlantedBug::Hang);
    assert!(
        report.violations.iter().any(|v| v.kind == "chaos-hang"),
        "the planted hang must be convicted:\n{}",
        report.render()
    );
    // Every thread of the world has returned from its task by now; the
    // kernel drops a returned thread from the table a moment later.
    let mut left = world_threads();
    for _ in 0..100_000 {
        if left.is_empty() {
            break;
        }
        std::thread::yield_now();
        left = world_threads();
    }
    assert_eq!(left, Vec::<String>::new(), "threads of the convicted world are still running");
}
