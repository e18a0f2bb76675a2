//! `kvbench --compare parent.jsonl change.jsonl`: apply the end-to-end
//! bounds to two result sets.
//!
//! A result set is what `run.sh` writes: one JSON object per line,
//! `{"workload": .., "seed": .., "trace": 0|1, "result": <result line>}`.
//! Per (workload, end-to-end metric) the medians over each side's untraced
//! runs are compared; the change regresses when its median is worse than the
//! parent's by more than the metric's bound, or when a run of it is not
//! correct. With four or more runs a side, a quartile spread wider than the
//! bound marks the pair unresolved rather than unchanged.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use papyrus_telemetry::json::{self, Json};

use crate::metrics::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

struct ResultSet {
    /// (workload, metric) → values over the set's untraced runs.
    samples: BTreeMap<(String, String), Vec<f64>>,
    /// Workloads with a run that reported `correct: false`.
    incorrect: Vec<String>,
}

impl ResultSet {
    fn parse(text: &str) -> Result<Self, String> {
        let mut set = ResultSet { samples: BTreeMap::new(), incorrect: Vec::new() };
        for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            let doc = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let field = |k: &str| doc.get(k).ok_or(format!("line {}: no \"{k}\"", n + 1));
            if field("trace")?.as_f64() != Some(0.0) {
                continue;
            }
            let workload = field("workload")?.as_str().unwrap_or_default().to_string();
            let result = field("result")?;
            if result.get("correct") != Some(&Json::Bool(true)) {
                set.incorrect.push(workload.clone());
            }
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                return Err(format!("line {}: result has no \"metrics\"", n + 1));
            };
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or(format!("line {}: {name} has no value", n + 1))?;
                set.samples.entry((workload.clone(), name.clone())).or_default().push(value);
            }
        }
        Ok(set)
    }

    fn get(&self, workload: &str, metric: &str) -> Option<&Vec<f64>> {
        self.samples.get(&(workload.to_string(), metric.to_string()))
    }
}

/// By what share of the parent's median the change's median is worse
/// (negative when it is better).
pub fn worse_by(metric: &EndToEnd, parent: f64, change: f64) -> f64 {
    if parent == 0.0 {
        return if change == parent { 0.0 } else { f64::INFINITY };
    }
    match metric.better {
        Better::Lower => (change - parent) / parent.abs(),
        Better::Higher => (parent - change) / parent.abs(),
    }
}

/// What a comparison found.
pub struct Outcome {
    pub table: String,
    pub regressions: usize,
    pub unresolved: usize,
}

/// Compare two result sets given as text.
pub fn compare(parent: &str, change: &str) -> Result<Outcome, String> {
    let (a, b) = (ResultSet::parse(parent)?, ResultSet::parse(change)?);
    let mut out = Outcome { table: String::new(), regressions: 0, unresolved: 0 };
    let _ = writeln!(
        out.table,
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "parent", "change", "worse by", "bound", "spread"
    );
    for w in WORKLOADS {
        for m in END_TO_END {
            let (Some(pa), Some(ch)) = (a.get(w.name, m.name), b.get(w.name, m.name)) else {
                continue;
            };
            let (pm, cm) = (median(pa), median(ch));
            let worse = worse_by(m, pm, cm);
            let wide = spread(pa).max(spread(ch));
            let verdict = if worse > m.bound {
                out.regressions += 1;
                "REGRESSION"
            } else if pa.len().min(ch.len()) >= 4 && wide > m.bound {
                out.unresolved += 1;
                "unresolved"
            } else {
                "ok"
            };
            let _ = writeln!(
                out.table,
                "{:<12} {:<14} {pm:>14.4} {cm:>14.4} {:>8.2}% {:>6.0}% {:>7.2}%  {verdict}",
                w.name,
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                wide * 100.0
            );
        }
        if b.incorrect.iter().any(|x| x == w.name) {
            out.regressions += 1;
            let _ = writeln!(
                out.table,
                "{:<12} a run of the change is not correct  REGRESSION",
                w.name
            );
        }
    }
    let _ = writeln!(out.table, "{} regressions, {} unresolved", out.regressions, out.unresolved);
    Ok(out)
}

/// Compare two result-set files.
pub fn compare_files(parent: &str, change: &str) -> Result<Outcome, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    compare(&read(parent)?, &read(change)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, correct: bool, wall: f64, setup: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": 0, \"result\": {{\"correct\": {correct}, \
             \"attempted\": 10, \"failed\": 0, \"metrics\": {{\"norm_kops\": {{\"value\": {wall}, \"unit\": \
             \"kops/s\"}}, \"setup_s\": {{\"value\": {setup}, \"unit\": \"s\"}}}}}}}}\n"
        )
    }

    #[test]
    fn bounds_apply_in_the_metric_s_direction() {
        let wall = END_TO_END.iter().find(|m| m.name == "norm_kops").unwrap();
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!((worse_by(wall, 100.0, 85.0) - 0.15).abs() < 1e-12);
        assert!(worse_by(wall, 100.0, 120.0) < 0.0);
        assert!((worse_by(setup, 2.0, 2.2) - 0.1).abs() < 1e-12);

        let parent = line("mem_mix", true, 100.0, 1.0) + &line("sst_read", true, 50.0, 2.0);
        let same = compare(&parent, &parent).unwrap();
        assert_eq!((same.regressions, same.unresolved), (0, 0));
        // Throughput down 30% (bound 25%) regresses; set-up up 20% (bound 25%) does not.
        let slower = line("mem_mix", true, 70.0, 1.2) + &line("sst_read", true, 50.0, 2.0);
        let found = compare(&parent, &slower).unwrap();
        assert_eq!(found.regressions, 1);
        assert!(found.table.contains("REGRESSION"));
        // An incorrect run regresses whatever its numbers say.
        let wrong = line("mem_mix", false, 100.0, 1.0) + &line("sst_read", true, 50.0, 2.0);
        assert_eq!(compare(&parent, &wrong).unwrap().regressions, 1);
        // Traced lines and blank lines are skipped.
        let traced = parent.replace("\"trace\": 0", "\"trace\": 1") + "\n";
        assert!(compare(&traced, &traced).unwrap().table.lines().count() == 2);
        assert!(compare("not json", &parent).is_err());
    }
}
