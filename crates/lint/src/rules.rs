//! Token-based file-local rules.
//!
//! Rules the repo enforces that rustc/clippy cannot express. All matching
//! runs over the lexed token stream from [`crate::lexer`], so banned
//! patterns inside string literals or comments never trip a rule, and
//! justification comments are looked up by line rather than substring.
//!
//! Rules:
//!
//! - **std-sync-lock** — no `std::sync::{Mutex, RwLock, Condvar}` outside
//!   `compat/` (the parking_lot shim wraps them). A raw std lock is
//!   invisible to a world's scheduler: its release counts no guard, so it
//!   is not a preemption point, and a wait on it is not a park the
//!   scheduler sees. Carve-outs: `crates/baton` (the scheduler's own state
//!   must live on real OS primitives — shimming it would recurse) and
//!   `xtask`.
//! - **protocol-unwrap** — no `.unwrap()` / `.expect(` in protocol-handler
//!   paths: a panic in the dispatcher or in a request arm run on a granting
//!   task's thread fails that task instead of a typed error reaching the
//!   ranks that wait on it. Test modules are exempt.
//! - **recovery-unwrap** — same, for recovery paths that run against
//!   arbitrary crash debris.
//! - **real-time** — no `std::time::{Instant, SystemTime}` under `crates/`
//!   outside `crates/simtime`: all timing must flow through virtual SimNs
//!   clocks or results become wall-clock dependent. Outside test code (test
//!   modules, `tests/` directories) no wall-clock wait either —
//!   `std::time::Duration`, `.recv_timeout(`, `thread::sleep`: a world that
//!   cannot finish ends in its scheduler's verdict, not in a timeout.
//! - **atomic-ordering-justified** — every `Ordering::Relaxed` and
//!   `Ordering::SeqCst` use needs an `// ordering:` comment on the same
//!   line or in the comment block directly above, saying why that extreme
//!   of the ordering spectrum is correct. `Acquire`/`Release`/`AcqRel` are
//!   the defaults the repo reaches for and need no ceremony; `Relaxed`
//!   (no synchronisation at all) and `SeqCst` (global order, usually a
//!   smell for a missing design) are the two that demand an argument. An
//!   ordering still decides what another thread sees only where OS threads
//!   race outside one world's turn-taking: in the baton itself, in the
//!   `parking_lot` shim, and in a telemetry registry that threads outside
//!   any world share (its own tests do). Inside a world every
//!   hand-off goes through the baton's mutex, so there the comment says
//!   what the atomic records and that nothing is published through it.
//! - **unsafe-needs-safety-comment** — every `unsafe {` block and
//!   `unsafe impl` carries a `// SAFETY:` comment on the same line or in
//!   the comment block directly above.
//! - **raw-thread** — no `thread::spawn` / `thread::Builder` outside test
//!   code of the crates that run inside a simulated world (core, mpi,
//!   mdhim, meraculous, dsm, serve): a helper of a rank is one of the
//!   world's tasks, a run-to-completion task (`RankCtx::spawn_slices`) with
//!   no thread. A raw thread that parks on a world condvar is invisible to
//!   the world's scheduler, whose "no runnable task" would then call a live
//!   world deadlocked.
//!
//! A finding on a specific line can be waived with a trailing
//! `// lint:allow(<rule>)` comment.

use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::report::Finding;
use crate::SourceTree;

/// Files where `.unwrap()` / `.expect(` would panic inside the protocol
/// dispatcher or a request arm of the message handler (or while decoding a
/// wire message another rank's retry loop will resend).
pub(crate) const PROTOCOL_PATHS: &[&str] = &[
    "crates/mpi/src/fabric.rs",
    "crates/core/src/db.rs",
    "crates/core/src/stack.rs",
    "crates/core/src/write.rs",
    "crates/core/src/read.rs",
    "crates/core/src/replica.rs",
    "crates/core/src/sync.rs",
    "crates/core/src/runtime.rs",
    "crates/core/src/msg.rs",
    // The serve codec decodes bytes straight off client sockets: a panic
    // there takes down the whole rank, not just one connection.
    "crates/serve/src/resp.rs",
    "crates/serve/src/cmd.rs",
];

/// Recovery-path files that must tolerate arbitrary crash debris: a panic
/// here strands the peer ranks at the next collective.
pub(crate) const RECOVERY_PATHS: &[&str] = &["crates/core/src/ckpt.rs"];

/// The crates whose code runs on the tasks of a simulated world: the scope
/// of `raw-thread` (in their `src/`; their `tests/` are test code).
const WORLD_CRATES: [&str; 6] = ["core", "mpi", "mdhim", "meraculous", "dsm", "serve"];

/// Path prefixes exempt from `atomic-ordering-justified`. Kept empty on
/// purpose: every Relaxed/SeqCst in the tree carries its argument. The
/// mechanism exists so a future vendored crate can be carved out without
/// weakening the rule for first-party code.
const ORDERING_ALLOWLIST: &[&str] = &[];

/// Run every token rule over all files of `tree`; returns the findings.
pub fn run_rules(tree: &SourceTree) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &tree.files {
        lint_file(&f.rel, &f.text, &mut findings);
    }
    findings
}

/// Per-file lint context: lexed streams plus line-indexed lookups. Shared
/// with the interprocedural analyses for waiver / test-module lookups.
pub(crate) struct FileCtx<'a> {
    pub(crate) rel: &'a str,
    lines: Vec<&'a str>,
    pub(crate) lx: Lexed,
    /// See [`tests_from`].
    tests_from: Option<usize>,
}

impl<'a> FileCtx<'a> {
    pub(crate) fn new(rel: &'a str, source: &'a str) -> Self {
        let lx = lex(source);
        let tests_from = tests_from(&lx.tokens);
        Self { rel, lines: source.lines().collect(), lx, tests_from }
    }

    pub(crate) fn in_tests(&self, line: usize) -> bool {
        self.tests_from.is_some_and(|t| line >= t)
    }

    pub(crate) fn line_text(&self, line: usize) -> String {
        self.lines.get(line - 1).copied().unwrap_or("").to_string()
    }

    /// Waived if any comment on `line` carries `lint:allow(<rule>)`.
    pub(crate) fn allowed(&self, line: usize, rule: &str) -> bool {
        let needle = format!("lint:allow({rule})");
        self.lx.comments_on(line).any(|c| c.text.contains(&needle))
    }

    /// True if a comment containing `marker` sits on `line` itself or in
    /// the contiguous block of comment-only lines directly above it.
    ///
    /// When `run_ident` is set, the upward walk also crosses code lines
    /// that mention that identifier: one justification block may cover an
    /// unbroken run of related sites (e.g. the four stat-cell RMWs of a
    /// histogram record) instead of demanding four copies of the same
    /// sentence. Any unrelated code line still breaks the chain.
    fn justified(&self, line: usize, marker: &str, run_ident: Option<&str>) -> bool {
        if self.lx.comments_on(line).any(|c| c.text.contains(marker)) {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            // A line belongs to the justification block if a comment starts
            // on it and no code token does.
            let has_comment = self.lx.comments_on(l).next().is_some();
            let has_code = self.lx.tokens.iter().any(|t| t.line == l);
            if has_code || !has_comment {
                // Attribute lines (`#[inline]`, `#[test]`) between the
                // comment and the item are common; skip pure-attribute
                // lines and keep walking.
                if has_code
                    && self.lines.get(l - 1).is_some_and(|s| s.trim_start().starts_with("#["))
                {
                    continue;
                }
                // Same-rule run: keep walking up through sibling sites.
                if has_code
                    && run_ident.is_some_and(|id| {
                        self.lx.tokens.iter().any(|t| t.line == l && t.text == id)
                    })
                {
                    continue;
                }
                return false;
            }
            if self.lx.comments_on(l).any(|c| c.text.contains(marker)) {
                return true;
            }
        }
        false
    }

    fn push(&self, findings: &mut Vec<Finding>, rule: &'static str, line: usize) {
        findings.push(Finding {
            rule,
            path: self.rel.to_string(),
            line,
            text: self.line_text(line),
            trace: vec![],
        });
    }
}

/// Match `pat` against token texts starting at `i` (idents and puncts by
/// exact text; `::` must be written as two `:` entries).
pub(crate) fn seq_at(toks: &[Tok], i: usize, pat: &[&str]) -> bool {
    i + pat.len() <= toks.len() && pat.iter().zip(&toks[i..]).all(|(p, t)| t.text == *p)
}

/// First index where `pat` matches.
/// Line of the first `#[cfg(test)]` / `#[cfg(all(test, ..))]` attribute, if
/// any; everything from that line on is test code (the repo convention is
/// trailing test modules).
pub(crate) fn tests_from(toks: &[Tok]) -> Option<usize> {
    [&["#", "[", "cfg", "(", "test"][..], &["#", "[", "cfg", "(", "all", "(", "test"]]
        .iter()
        .filter_map(|pat| find_seq(toks, pat))
        .min()
        .map(|i| toks[i].line)
}

pub(crate) fn find_seq(toks: &[Tok], pat: &[&str]) -> Option<usize> {
    (0..toks.len().saturating_sub(pat.len() - 1)).find(|&i| seq_at(toks, i, pat))
}

fn lint_file(rel: &str, source: &str, findings: &mut Vec<Finding>) {
    let ctx = FileCtx::new(rel, source);
    let toks = &ctx.lx.tokens;

    let std_sync_applies = !(rel.starts_with("compat/")
        || rel.starts_with("crates/baton/")
        || rel.starts_with("xtask/"));
    let protocol_applies = PROTOCOL_PATHS.contains(&rel);
    let recovery_applies = RECOVERY_PATHS.contains(&rel);
    let real_time_applies = rel.starts_with("crates/") && !rel.starts_with("crates/simtime/");
    let raw_thread_applies =
        WORLD_CRATES.iter().any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    let ordering_applies = !ORDERING_ALLOWLIST.iter().any(|p| rel.starts_with(p));

    let mut i = 0;
    while i < toks.len() {
        let line = toks[i].line;

        // --- std-sync-lock: path uses.
        if std_sync_applies && seq_at(toks, i, &["std", ":", ":", "sync", ":", ":"]) {
            // A `use std::sync::{...}` group is scanned to its matching
            // brace, skipping any nested `atomic::{...}` subgroup.
            let after = i + 6;
            let hit = toks.get(after).is_some_and(|t| {
                is_sync_lock_name(&t.text) || (t.text == "{" && group_names_lock(toks, after))
            });
            if hit && !ctx.allowed(line, "std-sync-lock") {
                ctx.push(findings, "std-sync-lock", line);
            }
        }

        // --- real-time.
        if real_time_applies && !ctx.allowed(line, "real-time") {
            let waits = !rel.contains("/tests/") && !ctx.in_tests(line);
            let named = |name: &str| is_real_time_name(name) || (waits && name == "Duration");
            let direct = seq_at(toks, i, &["std", ":", ":", "time", ":", ":"])
                && toks.get(i + 6).is_some_and(|t| {
                    named(&t.text) || (t.text == "{" && scan_group(toks, i + 6, &named))
                });
            let bare_now = (seq_at(toks, i, &["Instant", ":", ":", "now", "("])
                || seq_at(toks, i, &["SystemTime", ":", ":", "now", "("]))
                // `SimInstant::now()` etc. must not match; bare names only —
                // check the previous token is not a path separator.
                && (i == 0 || toks[i - 1].text != ":");
            let wait = waits
                && (seq_at(toks, i, &[".", "recv_timeout", "("])
                    || seq_at(toks, i, &["thread", ":", ":", "sleep"]));
            if direct || bare_now || wait {
                ctx.push(findings, "real-time", line);
            }
        }

        // --- raw-thread.
        if raw_thread_applies
            && (seq_at(toks, i, &["thread", ":", ":", "spawn"])
                || seq_at(toks, i, &["thread", ":", ":", "Builder"]))
            && !ctx.in_tests(line)
            && !ctx.allowed(line, "raw-thread")
        {
            ctx.push(findings, "raw-thread", line);
        }

        // --- protocol-unwrap / recovery-unwrap.
        if (protocol_applies || recovery_applies) && !ctx.in_tests(line) {
            let unwrapish = seq_at(toks, i, &[".", "unwrap", "(", ")"])
                || seq_at(toks, i, &[".", "expect", "("]);
            if unwrapish {
                if protocol_applies && !ctx.allowed(line, "protocol-unwrap") {
                    ctx.push(findings, "protocol-unwrap", line);
                }
                if recovery_applies && !ctx.allowed(line, "recovery-unwrap") {
                    ctx.push(findings, "recovery-unwrap", line);
                }
            }
        }

        // --- atomic-ordering-justified.
        if ordering_applies
            && seq_at(toks, i, &["Ordering", ":", ":"])
            && toks.get(i + 3).is_some_and(|t| t.text == "Relaxed" || t.text == "SeqCst")
            && !ctx.justified(line, "ordering:", Some("Ordering"))
            && !ctx.allowed(line, "atomic-ordering-justified")
        {
            ctx.push(findings, "atomic-ordering-justified", line);
        }

        // --- unsafe-needs-safety-comment: `unsafe {` blocks and
        // `unsafe impl`; `unsafe fn` signatures document their contract in
        // rustdoc instead and every *call* to one sits in an unsafe block.
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "unsafe"
            && toks.get(i + 1).is_some_and(|t| t.text == "{" || t.text == "impl")
            && !ctx.justified(line, "SAFETY:", None)
            && !ctx.allowed(line, "unsafe-needs-safety-comment")
        {
            ctx.push(findings, "unsafe-needs-safety-comment", line);
        }

        i += 1;
    }
}

fn is_sync_lock_name(name: &str) -> bool {
    matches!(name, "Mutex" | "RwLock" | "Condvar")
}

fn is_real_time_name(name: &str) -> bool {
    matches!(name, "Instant" | "SystemTime")
}

/// Scan a `{ ... }` use-group starting at the `{` token for a lock name,
/// skipping any `atomic::{...}` / `atomic::X` subpaths (those are atomics,
/// covered by their own rules).
fn group_names_lock(toks: &[Tok], open: usize) -> bool {
    scan_group(toks, open, &is_sync_lock_name)
}

fn scan_group(toks: &[Tok], open: usize, hit: &dyn Fn(&str) -> bool) -> bool {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            "atomic" => {
                // Skip `atomic::{...}` or `atomic::Name` subpaths.
                if seq_at(toks, j, &["atomic", ":", ":", "{"]) {
                    let mut d = 0usize;
                    j += 3;
                    while j < toks.len() {
                        match toks[j].text.as_str() {
                            "{" => d += 1,
                            "}" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                } else if seq_at(toks, j, &["atomic", ":", ":"]) {
                    j += 3;
                }
            }
            name if hit(name) => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_lint;
    use std::path::{Path, PathBuf};

    fn fixture_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/tree")
    }

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/lint has a workspace root two levels up")
            .to_path_buf()
    }

    fn rules_hit(findings: &[Finding]) -> Vec<&'static str> {
        let mut rules: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
        rules.sort();
        rules.dedup();
        rules
    }

    #[test]
    fn fixture_tree_trips_every_rule() {
        let findings = run_lint(&fixture_root());
        let rules = rules_hit(&findings);
        assert_eq!(
            rules,
            vec![
                "atomic-ordering-justified",
                "protocol-unwrap",
                "raw-thread",
                "real-time",
                "recovery-unwrap",
                "std-sync-lock",
                "unsafe-needs-safety-comment",
            ],
            "findings: {:#?}",
            findings
        );
    }

    #[test]
    fn fixture_findings_point_at_seeded_lines() {
        let findings = run_lint(&fixture_root());
        assert!(findings
            .iter()
            .any(|f| f.rule == "std-sync-lock" && f.path == "crates/core/src/bad_sync.rs"));
        assert!(findings
            .iter()
            .any(|f| f.rule == "protocol-unwrap" && f.path == "crates/mpi/src/fabric.rs"));
        assert!(findings
            .iter()
            .any(|f| f.rule == "protocol-unwrap" && f.path == "crates/core/src/msg.rs"));
        // The fixture fabric and msg files also have an .unwrap() under
        // #[cfg(test)] and a lint:allow'd one — none of those may be
        // reported: exactly one finding per file.
        assert_eq!(
            findings.iter().filter(|f| f.rule == "protocol-unwrap").count(),
            2,
            "{:#?}",
            findings
        );
        // Same exemptions for the recovery-path rule: its fixture seeds one
        // reportable unwrap plus a waived .expect( and a test-module one.
        assert_eq!(
            findings.iter().filter(|f| f.rule == "recovery-unwrap").count(),
            1,
            "{:#?}",
            findings
        );
        assert!(findings
            .iter()
            .any(|f| f.rule == "recovery-unwrap" && f.path == "crates/core/src/ckpt.rs"));
    }

    /// The serve codec is a protocol path, but its panic-free decode idiom
    /// (`get` + `match`), its waived length-checked `.expect(`, and its
    /// test-module `.unwrap()` are all exempt: the fixture file must
    /// produce zero findings of any rule.
    #[test]
    fn serve_codec_negatives_stay_quiet() {
        let findings = run_lint(&fixture_root());
        assert!(
            !findings.iter().any(|f| f.path == "crates/serve/src/resp.rs"),
            "serve codec negative fixture tripped a rule: {:#?}",
            findings
        );
    }

    /// The false-positive surface the regex generation had: banned names in
    /// string literals and comments. The fixture `strings.rs` is stuffed
    /// with them and must produce zero findings.
    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let findings = run_lint(&fixture_root());
        assert!(
            !findings.iter().any(|f| f.path.ends_with("strings.rs")),
            "string/comment content tripped a rule: {:#?}",
            findings
        );
    }

    #[test]
    fn ordering_rule_seeds_and_exemptions() {
        let findings = run_lint(&fixture_root());
        let hits: Vec<_> =
            findings.iter().filter(|f| f.rule == "atomic-ordering-justified").collect();
        // atomics.rs seeds exactly two unjustified sites (one Relaxed, one
        // SeqCst); the justified / waived / Acquire sites must not report.
        assert_eq!(hits.len(), 2, "{hits:#?}");
        assert!(hits.iter().all(|f| f.path.ends_with("atomics.rs")), "{hits:#?}");
    }

    #[test]
    fn unsafe_rule_seeds_and_exemptions() {
        let findings = run_lint(&fixture_root());
        let hits: Vec<_> =
            findings.iter().filter(|f| f.rule == "unsafe-needs-safety-comment").collect();
        // unsafe_blocks.rs seeds one bare `unsafe {` and one bare
        // `unsafe impl`; commented and waived ones stay quiet.
        assert_eq!(hits.len(), 2, "{hits:#?}");
        assert!(hits.iter().all(|f| f.path.ends_with("unsafe_blocks.rs")), "{hits:#?}");
    }

    #[test]
    fn raw_thread_rule_seeds_and_exemptions() {
        let findings = run_lint(&fixture_root());
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == "raw-thread").collect();
        // raw_thread.rs seeds one `thread::spawn` and one `thread::Builder`
        // in world-crate code; the waived one, the test-module one and
        // clocky.rs's (not a world crate) stay quiet.
        assert_eq!(hits.len(), 2, "{hits:#?}");
        assert!(hits.iter().all(|f| f.path == "crates/core/src/raw_thread.rs"), "{hits:#?}");
    }

    #[test]
    fn real_time_rule_seeds_and_exemptions() {
        let findings = run_lint(&fixture_root());
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == "real-time").collect();
        // clocky.rs seeds three wall-clock reads and three wall-clock waits;
        // the waits in its test module stay quiet.
        assert_eq!(hits.len(), 6, "{hits:#?}");
        assert!(hits.iter().all(|f| f.path == "crates/other/src/clocky.rs"), "{hits:#?}");
        let waits = ["use std::time::Duration;", ".recv_timeout(", "thread::sleep"];
        for wait in waits {
            assert_eq!(hits.iter().filter(|f| f.text.contains(wait)).count(), 1, "{wait}");
        }
    }

    #[test]
    fn real_tree_is_clean() {
        let findings = run_lint(&workspace_root());
        assert!(
            findings.is_empty(),
            "lint findings in tree:\n{}",
            findings.iter().map(|f| f.render()).collect::<Vec<_>>().join("\n")
        );
    }
}
