//! `papyrus-lint`: whole-workspace static analyzer.
//!
//! Two layers:
//!
//! 1. **Token rules** ([`rules`]) — the seven file-local rules
//!    (std-sync-lock, protocol-unwrap, recovery-unwrap, real-time,
//!    atomic-ordering-justified, unsafe-needs-safety-comment, raw-thread). These match token sequences from
//!    [`lexer`] and need no cross-file knowledge.
//! 2. **Interprocedural analyses** ([`analysis`]) — built on a lightweight
//!    item/body parser ([`parse`]) and a workspace call graph
//!    ([`callgraph`]): panic-reachability from protocol/recovery entry
//!    points and the protocol tag matrix.
//!
//! Everything operates on a [`SourceTree`] — an in-memory snapshot of the
//! workspace `.rs` files — so the `--seed-bug` self-test ([`seedbug`]) can
//! plant violations without touching the checkout.
//!
//! False-positive policy, the analysis universe, and the waiver format are
//! documented in `DESIGN.md` §14.

pub mod analysis;
pub mod callgraph;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod seedbug;

use std::fs;
use std::path::{Path, PathBuf};

pub use report::{render_json, render_sarif, Finding};

/// One workspace source file, path relative to the root with `/` separators.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub rel: String,
    pub text: String,
}

/// In-memory snapshot of every `.rs` file under a root. All rules and
/// analyses read from here, never from disk, so planted-bug runs can patch
/// sources without modifying the checkout.
#[derive(Debug, Clone, Default)]
pub struct SourceTree {
    pub files: Vec<SourceFile>,
}

impl SourceTree {
    /// Load all `.rs` files under `root` (sorted by path). Skips build
    /// output, VCS metadata, lint fixtures, and the `xtask` crate (the tool
    /// layer: it drives the planes and runs in no world).
    pub fn load(root: &Path) -> SourceTree {
        let mut paths = Vec::new();
        collect_rs_files(root, root, &mut paths);
        paths.sort();
        let mut files = Vec::new();
        for rel in paths {
            let Ok(text) = fs::read_to_string(root.join(&rel)) else { continue };
            files.push(SourceFile { rel: rel.to_string_lossy().replace('\\', "/"), text });
        }
        SourceTree { files }
    }

    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }

    /// Replace the first occurrence of `anchor` in `rel` with `replacement`;
    /// returns the 1-based line of the replacement. Errors loudly if the
    /// file or anchor is missing, so a drifted seed-bug patch fails the
    /// self-test instead of silently planting nothing.
    pub fn patch(&mut self, rel: &str, anchor: &str, replacement: &str) -> Result<usize, String> {
        let f = self
            .files
            .iter_mut()
            .find(|f| f.rel == rel)
            .ok_or_else(|| format!("seed patch target missing: {rel}"))?;
        let at = f
            .text
            .find(anchor)
            .ok_or_else(|| format!("seed patch anchor not found in {rel}: {anchor:?}"))?;
        let line = f.text[..at].matches('\n').count() + 1;
        f.text = f.text.replacen(anchor, replacement, 1);
        Ok(line)
    }
}

/// Recursively gather `.rs` files, paths relative to `root`.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "fixtures" | "xtask") {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

/// The seven token rules over all files under `root` (the
/// `cargo xtask lint` pass without `--deep`).
pub fn run_lint(root: &Path) -> Vec<Finding> {
    rules::run_rules(&SourceTree::load(root))
}

/// The two interprocedural analyses over an already-loaded tree.
pub fn run_deep(tree: &SourceTree) -> Vec<Finding> {
    analysis::run_deep(tree)
}
