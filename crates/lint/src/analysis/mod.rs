//! The five interprocedural analyses.
//!
//! All five run over the same parsed universe: the runtime crates whose
//! interactions the PapyrusKV protocol depends on. Tooling crates
//! (modelcheck, crashcheck, chaos, perfline, bench), the compat shims,
//! examples, and the demo apps are excluded — name+arity resolution over
//! the whole tree would drown the runtime signal in lookalike edges from
//! code that never runs in a protocol thread (policy: DESIGN.md §14).

pub mod atomics;
pub mod blocking;
pub mod inline;
pub mod panics;
pub mod tags;

use crate::callgraph::{CallGraph, Ws};
use crate::report::Finding;
use crate::SourceTree;

/// Crates in the interprocedural analysis universe.
const UNIVERSE: &[&str] = &[
    "crates/core/",
    "crates/mpi/",
    "crates/nvm/",
    "crates/replica/",
    "crates/simtime/",
    "crates/sanity/",
    "crates/telemetry/",
    "crates/faultinject/",
    "crates/serve/",
];

pub fn in_universe(rel: &str) -> bool {
    UNIVERSE.iter().any(|p| rel.starts_with(p))
}

/// Run all five analyses over `tree`, sorted by (file, line, rule).
pub fn run_deep(tree: &SourceTree) -> Vec<Finding> {
    let ws = Ws::build(tree, &in_universe);
    let cg = CallGraph::build(&ws);
    let mut findings = Vec::new();
    findings.extend(panics::run(&ws, &cg));
    findings.extend(blocking::run(&ws, &cg));
    findings.extend(inline::run(&ws, &cg));
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
        // direct recv, transitive relay, thread::sleep, match-scrutinee,
        // recv through a tuple-field receiver — and nothing from the
        // deref-copy / drop-first / if-condition fns or from the primitive
        // file's own internal mutex.
        assert_eq!(lines.len(), 5, "{all:#?}");
        assert!(
            !all.iter().any(|f| f.path == "crates/mpi/src/fabric.rs"),
            "primitive file must be excluded: {all:#?}"
        );
        let transitive = all
            .iter()
            .find(|f| f.rule == "blocking-under-lock" && f.text.contains("relay"))
            .expect("transitive finding");
        assert!(
            transitive.trace.iter().any(|s| s.contains("recv")),
            "trace reaches the primitive: {:?}",
            transitive.trace
        );
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
