//! The serve run report: per-rank rows, aggregate percentiles, oracle
//! verdicts, and a canonical byte-stable rendering.
//!
//! Every number here is derived from virtual-time deltas and counts, so
//! two runs with the same seed produce byte-identical
//! [`ServeReport::canonical`] strings — the self-test compares them
//! directly to prove determinism.

use crate::server::WindowStats;
use crate::ServeCfg;

/// Exact percentile summary over a latency sample set (virtual ns). All
/// fields are integers (mean truncates) so the canonical rendering is
/// trivially byte-stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatSummary {
    /// Samples.
    pub count: u64,
    /// Truncated arithmetic mean.
    pub mean_ns: u64,
    /// Median (nearest-rank on the sorted samples).
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Observed maximum.
    pub max_ns: u64,
}

impl LatSummary {
    /// Summarise `samples` (consumed and sorted); `None` when empty.
    pub fn from_samples(mut samples: Vec<u64>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let count = samples.len() as u64;
        let sum: u64 = samples.iter().sum();
        let pick = |q: u64| samples[((samples.len() - 1) * q as usize) / 100];
        Some(Self {
            count,
            mean_ns: sum / count,
            p50_ns: pick(50),
            p95_ns: pick(95),
            p99_ns: pick(99),
            max_ns: samples[samples.len() - 1],
        })
    }

    fn canon(&self) -> String {
        format!(
            "n={} mean={} p50={} p95={} p99={} max={}",
            self.count, self.mean_ns, self.p50_ns, self.p95_ns, self.p99_ns, self.max_ns
        )
    }
}

/// One rank's window, summarised.
#[derive(Debug, Clone)]
pub struct RankRow {
    /// Serving rank.
    pub rank: usize,
    /// Connections served.
    pub conns: u32,
    /// Commands executed.
    pub cmds: u64,
    /// Store ops those commands expanded to.
    pub store_ops: u64,
    /// Write ops routed through group commit.
    pub writes: u64,
    /// Group-commit rounds.
    pub batch_rounds: u64,
    /// Write ops drained across rounds.
    pub batch_records: u64,
    /// Duplicate-key folds within rounds.
    pub folded_dups: u64,
    /// Poll visits that decoded at least one frame.
    pub polls: u64,
    /// Frames decoded.
    pub frames: u64,
    /// Window serving time, virtual ns.
    pub elapsed_ns: u64,
    /// Read-command latency (GET/MGET/EXISTS/RANGE).
    pub read: Option<LatSummary>,
    /// Write-command latency (SET/DEL/MSET; fence included).
    pub write: Option<LatSummary>,
    /// Durability-oracle violations.
    pub durability_violations: u64,
    /// Read-your-writes sweep violations.
    pub ryw_violations: u64,
    /// Protocol-oracle violations.
    pub protocol_violations: u64,
}

impl RankRow {
    /// Commands per virtual second in this rank's window.
    pub fn qps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.cmds as f64 * 1e9 / self.elapsed_ns as f64
        }
    }
}

/// Full run report.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// World size.
    pub ranks: usize,
    /// Simulated connections per rank.
    pub conns_per_rank: u32,
    /// Commands per burst.
    pub pipeline: u32,
    /// Bursts per connection.
    pub bursts: u32,
    /// Command mix label.
    pub mix: String,
    /// Read-skew label.
    pub skew: String,
    /// Run seed.
    pub seed: u64,
    /// Planted defect, if any.
    pub seed_bug: Option<&'static str>,
    /// Per-rank rows, rank order.
    pub rows: Vec<RankRow>,
    /// All-rank read latency.
    pub read: Option<LatSummary>,
    /// All-rank write latency.
    pub write: Option<LatSummary>,
    /// All-rank admin (PING/INFO) latency.
    pub admin: Option<LatSummary>,
    /// First oracle violation, if any.
    pub violation_example: Option<String>,
}

impl ServeReport {
    /// Build the report from per-rank window stats (consumes the latency
    /// sample vectors).
    pub fn build(cfg: &ServeCfg, per_rank: Vec<WindowStats>) -> Self {
        let mut all_read = Vec::new();
        let mut all_write = Vec::new();
        let mut all_admin = Vec::new();
        let mut example = None;
        let rows = per_rank
            .into_iter()
            .map(|mut w| {
                all_read.extend_from_slice(&w.lat_read);
                all_write.extend_from_slice(&w.lat_write);
                all_admin.extend_from_slice(&w.lat_admin);
                if example.is_none() {
                    example = w.violation_example.take();
                }
                RankRow {
                    rank: w.rank,
                    conns: w.conns,
                    cmds: w.cmds,
                    store_ops: w.store_ops,
                    writes: w.writes,
                    batch_rounds: w.batch_rounds,
                    batch_records: w.batch_records,
                    folded_dups: w.folded_dups,
                    polls: w.polls,
                    frames: w.frames,
                    elapsed_ns: w.elapsed_ns,
                    read: LatSummary::from_samples(std::mem::take(&mut w.lat_read)),
                    write: LatSummary::from_samples(std::mem::take(&mut w.lat_write)),
                    durability_violations: w.durability_violations,
                    ryw_violations: w.ryw_violations,
                    protocol_violations: w.protocol_violations,
                }
            })
            .collect();
        Self {
            ranks: cfg.ranks,
            conns_per_rank: cfg.conns_per_rank,
            pipeline: cfg.pipeline,
            bursts: cfg.bursts,
            mix: cfg.mix.label().to_string(),
            skew: cfg.skew.label().to_string(),
            seed: cfg.seed,
            seed_bug: crate::SEED_BUGS
                .iter()
                .find(|(_, b)| Some(*b) == cfg.seed_bug)
                .map(|(name, _)| *name),
            rows,
            read: LatSummary::from_samples(all_read),
            write: LatSummary::from_samples(all_write),
            admin: LatSummary::from_samples(all_admin),
            violation_example: example,
        }
    }

    /// Total commands across ranks.
    pub fn total_cmds(&self) -> u64 {
        self.rows.iter().map(|r| r.cmds).sum()
    }

    /// Serving time of the run: every window starts at the same virtual
    /// time, so the longest.
    pub fn elapsed_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.elapsed_ns).max().unwrap_or(0)
    }

    /// Commands per virtual second over the run.
    pub fn qps(&self) -> f64 {
        let ns = self.elapsed_ns();
        if ns == 0 {
            0.0
        } else {
            self.total_cmds() as f64 * 1e9 / ns as f64
        }
    }

    /// Mean group-commit batch size (write ops per round).
    pub fn batch_mean(&self) -> f64 {
        let rounds: u64 = self.rows.iter().map(|r| r.batch_rounds).sum();
        let records: u64 = self.rows.iter().map(|r| r.batch_records).sum();
        if rounds == 0 {
            0.0
        } else {
            records as f64 / rounds as f64
        }
    }

    /// Total oracle violations (durability, read-your-writes, protocol).
    pub fn violations(&self) -> (u64, u64, u64) {
        let d = self.rows.iter().map(|r| r.durability_violations).sum();
        let w = self.rows.iter().map(|r| r.ryw_violations).sum();
        let p = self.rows.iter().map(|r| r.protocol_violations).sum();
        (d, w, p)
    }

    /// Whether every oracle came back clean.
    pub fn clean(&self) -> bool {
        self.violations() == (0, 0, 0)
    }

    /// Byte-stable canonical form: every integer quantity of every row.
    /// Two runs with the same seed must produce identical strings — the
    /// determinism self-test compares these directly.
    pub fn canonical(&self) -> String {
        let mut s = format!(
            "serve ranks={} conns={} pipeline={} bursts={} mix={} skew={} seed={} bug={}\n",
            self.ranks,
            self.conns_per_rank,
            self.pipeline,
            self.bursts,
            self.mix,
            self.skew,
            self.seed,
            self.seed_bug.unwrap_or("none"),
        );
        for r in &self.rows {
            s.push_str(&format!(
                "rank={} cmds={} ops={} writes={} rounds={} records={} dups={} polls={} \
                 frames={} elapsed={} read=[{}] write=[{}] viol={}/{}/{}\n",
                r.rank,
                r.cmds,
                r.store_ops,
                r.writes,
                r.batch_rounds,
                r.batch_records,
                r.folded_dups,
                r.polls,
                r.frames,
                r.elapsed_ns,
                r.read.as_ref().map(|l| l.canon()).unwrap_or_default(),
                r.write.as_ref().map(|l| l.canon()).unwrap_or_default(),
                r.durability_violations,
                r.ryw_violations,
                r.protocol_violations,
            ));
        }
        s
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let (d, w, p) = self.violations();
        let mut s = format!(
            "serve: {} ranks x {} conns, pipeline {}, bursts {}, mix {}, skew {}, seed {}{}\n",
            self.ranks,
            self.conns_per_rank,
            self.pipeline,
            self.bursts,
            self.mix,
            self.skew,
            self.seed,
            self.seed_bug.map(|b| format!(", seeded bug: {b}")).unwrap_or_default(),
        );
        s.push_str(&format!(
            "  total: {} cmds in {:.3} ms virtual -> {:.0} cmds/s, batch mean {:.2}\n",
            self.total_cmds(),
            self.elapsed_ns() as f64 / 1e6,
            self.qps(),
            self.batch_mean(),
        ));
        for lat in [("read", &self.read), ("write", &self.write), ("admin", &self.admin)] {
            if let (name, Some(l)) = lat {
                s.push_str(&format!(
                    "  {name:<5} n={:<8} p50={:>8} ns  p95={:>8} ns  p99={:>8} ns  max={} ns\n",
                    l.count, l.p50_ns, l.p95_ns, l.p99_ns, l.max_ns
                ));
            }
        }
        for r in &self.rows {
            s.push_str(&format!(
                "  rank {}: {} cmds, {:.0} cmds/s, {} rounds, batch mean {:.2}, dups {}\n",
                r.rank,
                r.cmds,
                r.qps(),
                r.batch_rounds,
                if r.batch_rounds == 0 {
                    0.0
                } else {
                    r.batch_records as f64 / r.batch_rounds as f64
                },
                r.folded_dups,
            ));
        }
        s.push_str(&format!("  oracles: durability {d}, read-your-writes {w}, protocol {p}\n"));
        if let Some(e) = &self.violation_example {
            s.push_str(&format!("  first violation: {e}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let l = LatSummary::from_samples((1..=100).collect()).unwrap();
        assert_eq!(l.count, 100);
        assert_eq!(l.p50_ns, 50);
        assert_eq!(l.p95_ns, 95);
        assert_eq!(l.p99_ns, 99);
        assert_eq!(l.max_ns, 100);
        assert_eq!(l.mean_ns, 50);
        assert_eq!(LatSummary::from_samples(vec![]), None);
    }
}
