//! Every workload at micro sizing: the names it prints are exactly the names
//! `BENCHMARK.json` lists, its outputs are correct, and everything on the
//! virtual axis repeats for a seed.
//!
//! One test function: the workloads share the process-global telemetry
//! registry and allocation counter, so they run one after another.

use kvbench::metrics::{Report, Source, END_TO_END, PER_LAYER, WORKLOADS};
use kvbench::run::{run_workload, Sizing};
use papyrus_telemetry::json::{self, Json};

const MICRO: Sizing = Sizing { seconds: 1, micro: true };

fn run(workload: &str, seed: u64, traced: bool) -> Report {
    let report = run_workload(workload, seed, MICRO, traced).expect("a listed workload");
    assert!(report.correct(), "{workload}: {} failed, {:?}", report.failed, report.violations);
    assert!(report.attempted > 0);
    report
}

/// Names under `metrics` in the result line, in print order.
fn printed(report: &Report) -> Vec<String> {
    let doc = json::parse(&report.json_line()).expect("the result line is json");
    let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("no metrics object") };
    metrics.iter().map(|(name, _)| name.clone()).collect()
}

fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
    let names = doc.get(key).expect("key").items().iter();
    names.map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string()).collect()
}

fn value(report: &Report, name: &str) -> f64 {
    report.values.get(name).map_or(0.0, |v| v.value)
}

#[test]
fn every_workload_prints_its_metrics_and_repeats_on_the_virtual_axis() {
    assert_eq!(listed("workloads"), WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    let (end_to_end, per_layer) = (listed("end_to_end"), listed("per_layer"));
    assert!(run_workload("no_such_workload", 1, MICRO, false).is_none());

    for w in WORKLOADS {
        // End to end: every listed metric, none of them 0, nothing else.
        let a = run(w.name, 7, false);
        assert_eq!(printed(&a), end_to_end, "{}", w.name);
        for v in &a.values.0 {
            assert!(END_TO_END.iter().any(|m| m.name == v.name), "{}: unlisted {}", w.name, v.name);
            assert!(v.value.is_finite() && v.value > 0.0, "{}: {} = {}", w.name, v.name, v.value);
        }
        // Same seed: the virtual axis and the amplifications repeat bit for
        // bit.
        let b = run(w.name, 7, false);
        for name in ["virt_kops", "write_amp", "space_amp"] {
            assert_eq!(value(&a, name).to_bits(), value(&b, name).to_bits(), "{} {name}", w.name);
        }
        assert_eq!(a.attempted, b.attempted);

        // Traced: every listed per-layer metric and nothing else; counts
        // and virtual times read from telemetry repeat as well.
        let t = run(w.name, 7, true);
        assert_eq!(printed(&t), per_layer, "{}", w.name);
        for v in &t.values.0 {
            assert!(PER_LAYER.iter().any(|m| m.name == v.name), "{}: unlisted {}", w.name, v.name);
            assert!(v.value.is_finite(), "{}: {} = {}", w.name, v.name, v.value);
        }
        // (Except the stall count: whether a freeze finds the flush queue
        // full depends on how far the compaction thread got on the host.)
        let u = run(w.name, 7, true);
        let repeats = |m: &&kvbench::metrics::PerLayer| {
            (m.source == Source::Tel || m.name.contains("_virt_"))
                && m.name != "core.db.freeze_stalls"
        };
        for m in PER_LAYER.iter().filter(repeats) {
            assert_eq!(
                value(&t, m.name).to_bits(),
                value(&u, m.name).to_bits(),
                "{} {}",
                w.name,
                m.name
            );
        }
        assert!(value(&t, "kvbench.rounds") > 0.0 && value(&t, "kvbench.timer_ns") > 0.0);
    }
}
