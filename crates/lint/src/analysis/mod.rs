//! The five interprocedural analyses.
//!
//! All five run over the same parsed universe: the runtime crates whose
//! interactions the PapyrusKV protocol depends on. Tooling crates
//! (modelcheck, crashcheck, chaos, perfline, bench), the compat shims,
//! examples, and the demo apps are excluded — name+arity resolution over
//! the whole tree would drown the runtime signal in lookalike edges from
//! code that never runs in a protocol thread (policy: DESIGN.md §14).
//!
//! Two of them ask the same question — can this call park? — and [`Parks`]
//! is the one answer both use.

pub mod atomics;
pub mod blocking;
pub mod inline;
pub mod panics;
pub mod tags;

use crate::callgraph::{CallGraph, Ws};
use crate::parse::{CallSite, Callee};
use crate::report::Finding;
use crate::SourceTree;

/// The files that implement the parking primitives. Their own mutex +
/// condvar shape IS the primitive, so they are not scanned for guards or
/// park sites, and reachability ends at them: a fn here parks only if
/// [`PRIMITIVES`] names it.
const PRIMITIVE_FILES: &[&str] =
    &["crates/mpi/src/fabric.rs", "crates/mpi/src/comm.rs", "crates/nvm/src/store.rs"];

/// The message-passing primitives that park, by (file suffix, fn name).
/// `Fabric::wait_match` is not one (`take_unstamped` enlists without
/// parking): its parking callers are named instead.
const PRIMITIVES: &[(&str, &str)] = &[
    ("crates/mpi/src/fabric.rs", "recv"),
    ("crates/mpi/src/fabric.rs", "allgather"),
    ("crates/mpi/src/comm.rs", "recv"),
    ("crates/mpi/src/comm.rs", "recv_until_quiet"),
    ("crates/mpi/src/comm.rs", "recv_unstamped"),
    ("crates/mpi/src/comm.rs", "barrier"),
    ("crates/mpi/src/comm.rs", "try_barrier"),
    ("crates/mpi/src/comm.rs", "allgather_bytes"),
    ("crates/mpi/src/comm.rs", "dup"),
];

pub(crate) fn primitive_file(rel: &str) -> bool {
    PRIMITIVE_FILES.iter().any(|p| rel.ends_with(p))
}

/// What parks — waits until another task of the world wakes it (DESIGN.md
/// §14): a named primitive, a direct park site (a condvar `.wait(g)` /
/// `.wait_until_quiet(g)`, a task `.join()`), and every fn that reaches one
/// outside the primitive files. Charged NVM I/O only advances a clock, so
/// it is not here.
pub struct Parks {
    /// Per fn: can it park?
    reach: Vec<bool>,
    /// Reverse-BFS parents, for traces down to the park.
    parent: Vec<usize>,
}

impl Parks {
    pub fn build(ws: &Ws, cg: &CallGraph) -> Parks {
        let seeds: Vec<usize> = (0..ws.fns.len())
            .filter(|&f| {
                let (item, rel) = (&ws.fns[f], ws.rel_of(f));
                !item.is_test
                    && if primitive_file(rel) {
                        PRIMITIVES.iter().any(|(pf, pn)| item.name == *pn && rel.ends_with(pf))
                    } else {
                        ws.calls_by_fn[f].iter().any(|&c| direct(&ws.calls[c]))
                    }
            })
            .collect();
        let (reach, parent) = cg.reach_rev(&seeds, &|f| !primitive_file(ws.rel_of(f)));
        Parks { reach, parent }
    }

    /// Why call `ci` parks: the chain from the called fn down to its park
    /// site (empty when the call is the park site), or `None` if it cannot.
    pub fn trace(&self, ws: &Ws, cg: &CallGraph, ci: usize) -> Option<Vec<String>> {
        if direct(&ws.calls[ci]) {
            return Some(Vec::new());
        }
        let &target = cg.call_targets[ci].iter().find(|&&t| self.reach[t])?;
        let mut chain = CallGraph::path_to(&self.parent, target);
        chain.reverse(); // called fn first, park site last
        Some(chain.iter().map(|&f| ws.fn_label(f)).collect())
    }
}

/// Does `call` park by its own shape?
fn direct(call: &CallSite) -> bool {
    matches!(call.callee, Callee::Method | Callee::SelfMethod)
        && matches!(
            (call.name.as_str(), call.arity),
            ("wait" | "wait_until_quiet", 1) | ("join", 0)
        )
}

/// Crates in the interprocedural analysis universe.
const UNIVERSE: &[&str] = &[
    "crates/core/",
    "crates/mpi/",
    "crates/nvm/",
    "crates/replica/",
    "crates/simtime/",
    "crates/telemetry/",
    "crates/faultinject/",
    "crates/serve/",
];

/// A universe crate's own sources; its integration tests are not in it.
fn in_universe(rel: &str) -> bool {
    UNIVERSE.iter().any(|p| rel.starts_with(p)) && !rel.contains("/tests/")
}

/// Run all five analyses over `tree`, sorted by (file, line, rule).
pub fn run_deep(tree: &SourceTree) -> Vec<Finding> {
    let ws = Ws::build(tree, &in_universe);
    let cg = CallGraph::build(&ws);
    let parks = Parks::build(&ws, &cg);
    let mut findings = Vec::new();
    findings.extend(panics::run(&ws, &cg));
    findings.extend(blocking::run(&ws, &cg, &parks));
    findings.extend(inline::run(&ws, &cg, &parks));
    findings.extend(tags::run(&ws));
    findings.extend(atomics::run(&ws));
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// Deep-analysis findings over `fixtures/deep` — a miniature workspace
    /// with one planted violation per finding kind plus the lexical-guard
    /// negatives the analyses must stay silent on.
    fn fixture_findings() -> Vec<Finding> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/deep");
        let tree = SourceTree::load(&root);
        assert!(!tree.files.is_empty(), "deep fixture missing");
        run_deep(&tree)
    }

    fn lines_of(findings: &[Finding], rule: &str, path: &str) -> Vec<usize> {
        findings.iter().filter(|f| f.rule == rule && f.path == path).map(|f| f.line).collect()
    }

    #[test]
    fn panic_reachability_pins_fixture_findings() {
        let all = fixture_findings();
        let findings: Vec<&Finding> = all.iter().filter(|f| f.rule == "panic-path").collect();
        // decode's raw indexing (entry file) + parse8's transitive unwrap.
        // NOT: the waived decode_checked line, the unreachable
        // orphan_unwrap, or parse8's raw slice index (non-entry file).
        assert_eq!(findings.len(), 2, "{findings:#?}");
        assert_eq!(lines_of(&all, "panic-path", "crates/core/src/msg.rs"), vec![19]);
        let transitive = findings
            .iter()
            .find(|f| f.path == "crates/core/src/util.rs")
            .expect("transitive unwrap finding");
        // Full call path: entry -> helper -> sink.
        assert_eq!(transitive.trace.len(), 3, "{:?}", transitive.trace);
        assert!(transitive.trace[0].contains("dispatch"), "{:?}", transitive.trace);
        assert!(transitive.trace[1].contains("handle_put"), "{:?}", transitive.trace);
        assert!(transitive.trace[2].contains("parse8"), "{:?}", transitive.trace);
    }

    #[test]
    fn blocking_under_lock_pins_fixture_findings() {
        let all = fixture_findings();
        let lines = lines_of(&all, "blocking-under-lock", "crates/core/src/db.rs");
        // direct recv, transitive relay, condvar callee, match-scrutinee,
        // recv through a tuple-field receiver, a wait under a second guard —
        // and nothing from NVM I/O, the leaf rule, the deref-copy /
        // drop-first / if-condition fns, a condvar wait on its own guard, or
        // the primitive files' own mutexes.
        assert_eq!(lines.len(), 6, "{all:#?}");
        assert!(
            !all.iter()
                .any(|f| f.path.starts_with("crates/mpi/") || f.path.starts_with("crates/nvm/")),
            "primitive files must be excluded: {all:#?}"
        );
        let traced = |callee: &str| {
            let f = all.iter().find(|f| f.rule == "blocking-under-lock" && f.text.contains(callee));
            f.unwrap_or_else(|| panic!("no finding for {callee}: {all:#?}")).trace.clone()
        };
        assert!(traced("relay").iter().any(|s| s.contains("recv")), "trace reaches the primitive");
        assert!(traced("wait_drained").last().is_some_and(|s| s.starts_with("wait_drained ")));
        let second = all.iter().find(|f| f.text.contains("guard `outer`")).expect("wait finding");
        assert!(second.trace.is_empty(), "the call is the park site: {second:#?}");
    }

    #[test]
    fn nvm_io_under_a_guard_is_silent() {
        let all = fixture_findings();
        let text = |f: &Finding| f.text.clone();
        let texts: Vec<String> =
            all.iter().filter(|f| f.rule == "blocking-under-lock").map(text).collect();
        assert!(!texts.iter().any(|t| t.contains("read_at")), "{texts:#?}");
    }

    #[test]
    fn reachability_ends_at_the_primitive_files() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/deep");
        let ws = Ws::build(&SourceTree::load(&root), &in_universe);
        let cg = CallGraph::build(&ws);
        let parks = Parks::build(&ws, &cg);
        let reaches = |name: &str| {
            let f = ws.fns.iter().position(|f| f.display() == name);
            parks.reach[f.unwrap_or_else(|| panic!("no fn {name}"))]
        };
        // `try_put_at`'s `backend.put(..)` resolves to the parking `Db::put`,
        // but a primitive-file fn parks only if it is a named primitive.
        assert!(reaches("Db::put") && reaches("Fabric::recv"));
        assert!(!reaches("NvmStore::try_put_at") && !reaches("NvmStore::read_at"));
        let all = fixture_findings();
        assert!(!all.iter().any(|f| f.text.contains("try_put_at")), "{all:#?}");
    }

    #[test]
    fn tag_matrix_pins_fixture_findings() {
        let all = fixture_findings();
        let findings: Vec<&Finding> = all.iter().filter(|f| f.rule == "tag-matrix").collect();
        let texts: Vec<&str> = findings.iter().map(|f| f.text.as_str()).collect();
        assert!(texts.iter().any(|t| t.contains("`GET`") && t.contains("sent")), "{texts:#?}");
        assert!(
            texts.iter().any(|t| t.contains("`ACK`") && t.contains("never sent")),
            "{texts:#?}"
        );
        assert!(texts.iter().any(|t| t.contains("duplicate tag value 3")), "{texts:#?}");
        assert!(texts.iter().any(|t| t.contains("`SPARE`")), "{texts:#?}");
        // PUT is sent AND handled — silent.
        assert!(!texts.iter().any(|t| t.contains("`PUT`")), "{texts:#?}");
    }

    #[test]
    fn atomic_pairing_pins_fixture_findings() {
        let all = fixture_findings();
        let findings: Vec<&Finding> = all.iter().filter(|f| f.rule == "atomic-pairing").collect();
        let texts: Vec<&str> = findings.iter().map(|f| f.text.as_str()).collect();
        assert_eq!(findings.len(), 3, "{findings:#?}");
        assert!(texts.iter().any(|t| t.contains("`orphan`")), "{texts:#?}");
        assert!(texts.iter().any(|t| t.contains("`lonely`")), "{texts:#?}");
        assert!(texts.iter().any(|t| t.contains("AtomicPtr field `hot`")), "{texts:#?}");
        // `ready` (store/load pair) and `cnt` (AcqRel RMW) are silent.
        assert!(!texts.iter().any(|t| t.contains("`ready`") || t.contains("`cnt`")), "{texts:#?}");
    }

    /// The real workspace must be deep-clean modulo justified
    /// `lint:allow` waivers — the same gate CI enforces.
    #[test]
    fn real_workspace_is_deep_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
        let tree = SourceTree::load(root);
        assert!(!tree.files.is_empty());
        let findings = run_deep(&tree);
        assert!(
            findings.is_empty(),
            "deep analyses must be clean (fix or waive with lint:allow):\n{}",
            findings.iter().map(Finding::render).collect::<Vec<_>>().join("\n")
        );
    }
}
