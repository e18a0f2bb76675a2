//! The chaos sweep: seeded schedules, a watchdog, and the seed-bug self test.
//!
//! The default sweep runs `cfg.seeds` schedules, cycling the five
//! [`FaultClass`]es so every class is covered several times. Each schedule
//! generates its [`FaultPlan`] from the seed, installs it, runs the
//! [`crate::workload`] under a supervised thread, and drains the global
//! `papyrus-sanity` registry: oracle verdicts, untyped errors, and watchdog
//! findings all become violations of that schedule. A clean sweep proves,
//! for every seed: no acknowledged write was lost, no phantom value
//! appeared, no schedule hung, and every surfaced error was typed.
//!
//! `--seed-bug` proves the harness can actually catch what it claims to:
//! each [`PlantedBug`] is armed together with a message-drop plan that
//! triggers it, and the run must end dirty — [`PlantedBug::LostAck`] caught
//! by the oracle as an acknowledged-write loss, [`PlantedBug::Hang`] caught
//! by the watchdog as a hung schedule.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use papyrus_faultinject::{
    self as fi, class_name, FaultClass, FaultEvent, FaultPlan, PlantedBug, ALL_CLASSES,
};
use papyrus_sanity::ViolationKind;
use parking_lot::Mutex;

use crate::workload::{run_schedule, ChaosCfg, RankOutcome};

/// One confirmed violation, tagged with the schedule that produced it.
#[derive(Debug, Clone)]
pub struct ChaosViolation {
    /// Schedule seed.
    pub seed: u64,
    /// Fault class (or planted-bug label) of the schedule.
    pub class: String,
    /// Violation kind name (`papyrus_sanity::ViolationKind::name`).
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

/// Serialises chaos runs within one process: each run owns the global fault
/// gate, plan registry, planted-bug slot, and sanity registry.
pub(crate) fn chaos_lock() -> &'static Mutex<()> {
    static LOCK: std::sync::OnceLock<Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Install `plan`, run one schedule under the watchdog, drain the registry.
/// Returns rank outcomes (`None` if the schedule hung or panicked) plus the
/// violations recorded against it.
fn run_schedule_guarded(
    cfg: &ChaosCfg,
    plan: Arc<FaultPlan>,
    label: &str,
) -> (Option<Vec<RankOutcome>>, Vec<papyrus_sanity::Violation>) {
    let _ = papyrus_sanity::take_violations(); // isolate this schedule
    fi::install_plan(plan.clone());
    let oracle = Arc::new(crate::oracle::ChaosOracle::new());
    let (tx, rx) = mpsc::channel();
    let cfg2 = cfg.clone();
    let what = label.to_string();
    let spawned = std::thread::Builder::new().name(format!("chaos-{label}")).spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(move || run_schedule(&cfg2, plan, oracle)));
        let _ = tx.send(result);
    });
    let outcome = match spawned {
        Ok(handle) => match rx.recv_timeout(Duration::from_secs(cfg.timeout_secs)) {
            Ok(Ok(v)) => {
                let _ = handle.join();
                Some(v)
            }
            Ok(Err(panic)) => {
                let _ = handle.join();
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                papyrus_sanity::record_violation(
                    ViolationKind::UntypedError,
                    format!("{what} panicked instead of returning a typed error: {msg}"),
                );
                None
            }
            Err(_) => {
                // Hung schedule: abandon its world and flag it.
                papyrus_sanity::record_violation(
                    ViolationKind::ChaosHang,
                    format!("{what} hung (> {}s wall clock)", cfg.timeout_secs),
                );
                None
            }
        },
        Err(e) => {
            papyrus_sanity::record_violation(
                ViolationKind::ChaosHang,
                format!("{what}: spawn failed: {e}"),
            );
            None
        }
    };
    fi::clear_plan();
    (outcome, papyrus_sanity::take_violations())
}

/// Fold one schedule's results into the report.
fn absorb(
    report: &mut ChaosReport,
    seed: u64,
    class: &str,
    had_kill: bool,
    outcomes: Option<Vec<RankOutcome>>,
    violations: Vec<papyrus_sanity::Violation>,
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

/// The fault class schedule `i` of a sweep exercises.
pub fn class_of(i: usize) -> FaultClass {
    ALL_CLASSES[i % ALL_CLASSES.len()]
}

/// The seed schedule `i` of a sweep uses (`seed_base + i`).
pub fn seed_of(seed_base: u64, i: usize) -> u64 {
    seed_base.wrapping_add(i as u64)
}

/// Default seed base of the sweep (any value works; this one is pinned so
/// CI runs are reproducible and failures can be replayed by seed).
pub const SEED_BASE: u64 = 1000;

/// Run the default sweep: `cfg.seeds` schedules cycling all fault classes.
pub fn chaos_sweep(cfg: &ChaosCfg, seed_base: u64) -> ChaosReport {
    let _guard = chaos_lock().lock();
    fi::force_enable();
    fi::set_planted_bug(None);
    let mut report = ChaosReport::default();
    for i in 0..cfg.seeds {
        let seed = seed_of(seed_base, i);
        let class = class_of(i);
        let plan = Arc::new(FaultPlan::generate(seed, class, cfg.ranks, cfg.horizon_ns));
        if cfg.verbose {
            eprintln!("chaos: seed {seed} [{}] {} events", class_name(class), plan.events().len());
        }
        let had_kill = plan.has_kill();
        let label = format!("seed {seed} [{}]", class_name(class));
        let (outcomes, violations) = run_schedule_guarded(cfg, plan, &label);
        absorb(&mut report, seed, class_name(class), had_kill, outcomes, violations);
    }
    fi::force_disable();
    report
}

/// The planted protocol bugs of the `--seed-bug` self test, by CLI name.
pub const SEED_BUGS: [(&str, PlantedBug); 2] =
    [("lost-ack", PlantedBug::LostAck), ("hang", PlantedBug::Hang)];

/// Run one schedule with `bug` planted in the protocol layer plus the
/// message-drop plan that triggers it. The report must be dirty — a clean
/// report means the harness failed to detect its own planted bug.
pub fn run_seed_bug(cfg: &ChaosCfg, bug: PlantedBug) -> ChaosReport {
    let _guard = chaos_lock().lock();
    fi::force_enable();
    fi::set_planted_bug(Some(bug));
    let mut cfg = cfg.clone();
    let events = match bug {
        // Drop the first two PUT_SYNC requests: the planted bug then
        // acknowledges those sequential puts after their first timeout
        // without the owner ever applying them. The oracle must report the
        // acknowledged-write loss at verify.
        PlantedBug::LostAck => vec![FaultEvent::NetDrop {
            start: 0,
            end: cfg.horizon_ns,
            to_rank: None,
            tag: Some(papyruskv::msg::tags::PUT_SYNC),
            budget: 2,
        }],
        // Drop one GET_REQ: the planted bug blocks that RPC on an undeadlined
        // receive forever, wedging the whole schedule. The watchdog must
        // report the hang. A short fuse keeps the self test fast.
        PlantedBug::Hang => {
            cfg.timeout_secs = cfg.timeout_secs.min(10);
            vec![FaultEvent::NetDrop {
                start: 0,
                end: cfg.horizon_ns,
                to_rank: None,
                tag: Some(papyruskv::msg::tags::GET_REQ),
                budget: 1,
            }]
        }
    };
    let seed = 0xB0C5 + bug as u64;
    let plan = Arc::new(FaultPlan::with_events(seed, events));
    let name = SEED_BUGS.iter().find(|(_, b)| *b == bug).map_or("unnamed", |(n, _)| n);
    let label = format!("seed-bug {name}");
    let (outcomes, violations) = run_schedule_guarded(&cfg, plan, &label);
    fi::set_planted_bug(None);
    fi::force_disable();
    let mut report = ChaosReport::default();
    absorb(&mut report, seed, &label, false, outcomes, violations);
    report
}
