//! The docs name only what exists: every repo path that DESIGN.md,
//! README.md or EXPERIMENTS.md names is in the tree, and every `DESIGN §N`
//! a Rust source cites is a `## N.` heading of DESIGN.md.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("workspace root").to_path_buf()
}

fn is_path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '/')
}

/// Repo paths named in `text`: a run of path characters that starts at a
/// word boundary with one of the checked top-level directories. A run
/// followed by `*`, `<` or `{` is a pattern, not a path.
fn repo_paths(text: &str) -> Vec<String> {
    const DIRS: &[&str] = &["crates/", "tests/", "xtask/", "kvbench/", "results/"];
    let mut found = Vec::new();
    let mut prev = ' ';
    for (i, c) in text.char_indices() {
        let starts = !is_path_char(prev) && DIRS.iter().any(|d| text[i..].starts_with(d));
        prev = c;
        if !starts {
            continue;
        }
        let end = text[i..].find(|c| !is_path_char(c)).map_or(text.len(), |n| i + n);
        if text[end..].starts_with(['*', '<', '{']) {
            continue;
        }
        found.push(text[i..end].trim_end_matches('.').to_string());
    }
    found
}

/// Section numbers cited as `DESIGN §N` / `` `DESIGN.md` §N `` in `text`.
fn design_cites(text: &str) -> Vec<u32> {
    text.match_indices("DESIGN")
        .filter_map(|(i, _)| {
            let rest = text[i + "DESIGN".len()..].trim_start_matches(".md").trim_start_matches('`');
            let digits = rest.trim_start().strip_prefix('§')?.trim_start();
            let n = digits.find(|c: char| !c.is_ascii_digit()).unwrap_or(digits.len());
            digits[..n].parse().ok()
        })
        .collect()
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() && name != "target" && name != ".git" {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_repo_path_the_docs_name_exists() {
    let root = root();
    let mut missing = Vec::new();
    for doc in ["DESIGN.md", "README.md", "EXPERIMENTS.md"] {
        let text = fs::read_to_string(root.join(doc)).expect(doc);
        for (n, line) in text.lines().enumerate() {
            for path in repo_paths(line) {
                if !root.join(&path).exists() {
                    missing.push(format!("{doc}:{}: {path}", n + 1));
                }
            }
        }
    }
    assert!(missing.is_empty(), "docs name paths that do not exist:\n{}", missing.join("\n"));
}

#[test]
fn every_design_section_a_source_cites_is_a_heading() {
    let root = root();
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let headings: Vec<u32> = design
        .lines()
        .filter_map(|l| l.strip_prefix("## ")?.split_once('.')?.0.parse().ok())
        .collect();
    let mut sources = Vec::new();
    for dir in ["crates", "compat", "xtask", "tests", "examples", "kvbench"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    assert!(sources.len() > 100, "found only {} Rust sources", sources.len());
    let mut dangling = Vec::new();
    for path in &sources {
        let text = fs::read_to_string(path).expect("readable source");
        for n in design_cites(&text).into_iter().filter(|n| !headings.contains(n)) {
            dangling.push(format!("{}: DESIGN §{n}", path.strip_prefix(&root).unwrap().display()));
        }
    }
    assert!(dangling.is_empty(), "sources cite missing DESIGN sections:\n{}", dangling.join("\n"));
}

#[test]
fn the_scanners_find_what_they_look_for() {
    let line = "see `tests/tests/x.rs`, crates/core/src/a.rs. Not crates/*/src nor BENCH_<sha> \
                nor my/crates/y.rs; results/fig{6,7}.txt is a pattern";
    assert_eq!(repo_paths(line), ["tests/tests/x.rs", "crates/core/src/a.rs"]);
    assert_eq!(design_cites("DESIGN §11, `DESIGN.md` §14 and DESIGN.md §2."), [11, 14, 2]);
}
