//! The chaos sweep: seeded schedules and the seed-bug self test.
//!
//! The default sweep runs `cfg.seeds` schedules, cycling the five fault
//! classes ([`ALL_CLASSES`]) so every class is covered several times. Each
//! schedule generates its [`FaultPlan`] from the seed, arms its own world
//! with it, runs the [`crate::workload`] on the calling thread, and
//! collects oracle verdicts, untyped errors, and a hung world in that
//! schedule's own [`ChaosOracle`]. A world that can never finish ends in
//! its scheduler's verdict — deadlock, or livelock past the plan's horizon
//! — and every thread of it returns before the sweep goes on. A clean sweep
//! proves, for every seed: no acknowledged write was lost, no phantom value
//! appeared, no schedule hung, and every surfaced error was typed.
//!
//! `--seed-bug` proves the harness can actually catch what it claims to:
//! each [`PlantedBug`] rides on a message-drop plan that triggers it, and
//! the run must end dirty — [`PlantedBug::LostAck`] caught by the oracle as
//! an acknowledged-write loss, [`PlantedBug::Hang`] caught by the livelock
//! verdict as a hung schedule.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use papyrus_faultinject::{class_name, FaultEvent, FaultPlan, PlantedBug, ALL_CLASSES};
use papyrus_mpi::{panic_message, Verdict};
use papyruskv::sanity::ViolationKind;

use crate::oracle::ChaosOracle;
use crate::workload::{run_schedule, ChaosCfg, RankOutcome};

/// One confirmed violation, tagged with the schedule that produced it.
#[derive(Debug, Clone)]
pub struct ChaosViolation {
    /// Schedule seed.
    pub seed: u64,
    /// Fault class (or planted-bug label) of the schedule.
    pub class: String,
    /// Violation kind name (`papyruskv::sanity::ViolationKind::name`).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

/// Outcome of a sweep (or of one seed-bug run).
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// Schedules run.
    pub schedules: usize,
    /// `(class name, schedules run)` coverage.
    pub per_class: Vec<(String, usize)>,
    /// Total puts acknowledged across all ranks and schedules.
    pub puts: usize,
    /// Total gets issued across all ranks and schedules.
    pub gets: usize,
    /// Typed errors surfaced to the workload (all legal).
    pub typed_errors: usize,
    /// Schedules in which at least one rank finished degraded.
    pub degraded_schedules: usize,
    /// Schedules in which the plan killed a rank.
    pub kill_schedules: usize,
    /// Everything that failed verification.
    pub violations: Vec<ChaosViolation>,
}

impl ChaosReport {
    /// No violations anywhere in the sweep.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Multi-line summary for CLI output.
    pub fn render(&self) -> String {
        let mut out = format!(
            "soaked {} schedules: {} puts, {} gets, {} typed errors, \
             {} degraded, {} with a rank kill\n",
            self.schedules,
            self.puts,
            self.gets,
            self.typed_errors,
            self.degraded_schedules,
            self.kill_schedules
        );
        for (class, count) in &self.per_class {
            out.push_str(&format!("  class {class:<14} x{count}\n"));
        }
        if self.is_clean() {
            out.push_str("no violations\n");
        } else {
            out.push_str(&format!("{} VIOLATIONS:\n", self.violations.len()));
            for v in &self.violations {
                out.push_str(&format!(
                    "  seed {} [{}] {}: {}\n",
                    v.seed, v.class, v.kind, v.detail
                ));
            }
        }
        out
    }
}

/// Run one schedule on a world armed with `plan`. Returns rank outcomes
/// (`None` if the world reached a verdict or panicked) plus the violations
/// it was convicted of.
fn run_schedule_guarded(
    cfg: &ChaosCfg,
    plan: Arc<FaultPlan>,
    label: &str,
) -> (Option<Vec<RankOutcome>>, Vec<papyruskv::sanity::Violation>) {
    let oracle = Arc::new(ChaosOracle::new());
    let run = catch_unwind(AssertUnwindSafe(|| run_schedule(cfg, plan, oracle.clone())));
    let outcome = run.map_err(|panic| {
        let (kind, how) = if panic.is::<Verdict>() {
            (ViolationKind::ChaosHang, "hung")
        } else {
            (ViolationKind::UntypedError, "panicked instead of returning a typed error")
        };
        oracle.convict(kind, format!("{label} {how}: {}", panic_message(&*panic)));
    });
    (outcome.ok(), oracle.take_verdicts())
}

/// Fold one schedule's results into the report.
fn absorb(
    report: &mut ChaosReport,
    seed: u64,
    class: &str,
    had_kill: bool,
    outcomes: Option<Vec<RankOutcome>>,
    violations: Vec<papyruskv::sanity::Violation>,
) {
    report.schedules += 1;
    match report.per_class.iter_mut().find(|(c, _)| c == class) {
        Some((_, n)) => *n += 1,
        None => report.per_class.push((class.to_string(), 1)),
    }
    report.kill_schedules += usize::from(had_kill);
    if let Some(outs) = outcomes {
        report.puts += outs.iter().map(|o| o.puts).sum::<usize>();
        report.gets += outs.iter().map(|o| o.gets).sum::<usize>();
        report.typed_errors += outs.iter().map(|o| o.typed_errors).sum::<usize>();
        report.degraded_schedules += usize::from(outs.iter().any(|o| o.degraded || o.died));
    }
    for v in violations {
        report.violations.push(ChaosViolation {
            seed,
            class: class.to_string(),
            kind: v.kind.name().to_string(),
            detail: v.detail,
        });
    }
}

/// Seed of the sweep's first schedule; schedule `i` runs seed `SEED_BASE + i`
/// (any value works; this one is pinned so CI runs are reproducible and
/// failures can be replayed by seed).
pub const SEED_BASE: u64 = 1000;

/// Run the default sweep: `cfg.seeds` schedules cycling all fault classes.
pub fn chaos_sweep(cfg: &ChaosCfg) -> ChaosReport {
    let mut report = ChaosReport::default();
    for i in 0..cfg.seeds {
        let seed = SEED_BASE + i as u64;
        let class = ALL_CLASSES[i % ALL_CLASSES.len()];
        let plan = Arc::new(FaultPlan::generate(seed, class, cfg.ranks, cfg.horizon_ns));
        if cfg.verbose {
            eprintln!("chaos: seed {seed} [{}] {} events", class_name(class), plan.events().len());
        }
        let had_kill = plan.has_kill();
        let label = format!("seed {seed} [{}]", class_name(class));
        let (outcomes, violations) = run_schedule_guarded(cfg, plan, &label);
        absorb(&mut report, seed, class_name(class), had_kill, outcomes, violations);
    }
    report
}

/// The planted protocol bugs of the `--seed-bug` self test, by CLI name.
pub const SEED_BUGS: [(&str, PlantedBug); 2] =
    [("lost-ack", PlantedBug::LostAck), ("hang", PlantedBug::Hang)];

/// Run one schedule whose plan carries `bug`, planted in the protocol layer
/// of that schedule's world, plus the message drops that trigger it. The
/// report must be dirty — a clean report means the harness failed to detect
/// its own planted bug.
pub fn run_seed_bug(cfg: &ChaosCfg, bug: PlantedBug) -> ChaosReport {
    let events = match bug {
        // Drop the first two PUT_SYNC requests: the planted bug then
        // acknowledges those sequential puts after their first timeout
        // without the owner ever applying them. The oracle must report the
        // acknowledged-write loss at verify.
        PlantedBug::LostAck => vec![FaultEvent::NetDrop {
            start: 0,
            end: cfg.horizon_ns,
            to_rank: None,
            tag: Some(papyruskv::msg::Request::PutSync.tag()),
            budget: 2,
        }],
        // Drop one GET_REQ: the planted bug blocks that RPC on an undeadlined
        // receive forever, wedging the whole schedule — the other ranks time
        // out at their barrier until the world's livelock verdict.
        PlantedBug::Hang => vec![FaultEvent::NetDrop {
            start: 0,
            end: cfg.horizon_ns,
            to_rank: None,
            tag: Some(papyruskv::msg::Request::Get.tag()),
            budget: 1,
        }],
    };
    let seed = 0xB0C5 + bug as u64;
    let plan = Arc::new(FaultPlan::with_events(seed, events).with_bug(bug));
    let name = SEED_BUGS.iter().find(|(_, b)| *b == bug).map_or("unnamed", |(n, _)| n);
    let label = format!("seed-bug {name}");
    let (outcomes, violations) = run_schedule_guarded(cfg, plan, &label);
    let mut report = ChaosReport::default();
    absorb(&mut report, seed, &label, false, outcomes, violations);
    report
}
