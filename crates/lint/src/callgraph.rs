//! Workspace call graph.
//!
//! Nodes are the `fn` items parsed by [`crate::parse`]; edges are call
//! sites resolved by **name + arity**, with receiver/qualifier shape used
//! to narrow candidates when it can. There is no type inference, so a
//! method call with several same-name-same-arity candidates links to all
//! of them and the ambiguity is recorded explicitly — over-approximation
//! makes the reachability analyses conservative (they can false-positive,
//! never silently miss an edge the resolver knew about).

use std::collections::HashMap;

use crate::lexer::{lex, Lexed};
use crate::parse::{extract_calls, parse_fns, CallSite, Callee, FnItem};
use crate::rules::tests_from;
use crate::SourceTree;

/// Parsed view of the files an analysis runs over.
pub struct Ws {
    pub rels: Vec<String>,
    pub lexed: Vec<Lexed>,
    pub tests_from: Vec<Option<usize>>,
    pub lines: Vec<Vec<String>>,
    pub fns: Vec<FnItem>,
    /// Per file: indices into `fns`.
    pub file_fns: Vec<Vec<usize>>,
    pub calls: Vec<CallSite>,
    /// Per fn: indices into `calls`.
    pub calls_by_fn: Vec<Vec<usize>>,
}

impl Ws {
    /// Parse every file of `tree` whose path passes `filter`.
    pub fn build(tree: &SourceTree, filter: &dyn Fn(&str) -> bool) -> Ws {
        let mut ws = Ws {
            rels: Vec::new(),
            lexed: Vec::new(),
            tests_from: Vec::new(),
            lines: Vec::new(),
            fns: Vec::new(),
            file_fns: Vec::new(),
            calls: Vec::new(),
            calls_by_fn: Vec::new(),
        };
        for f in tree.files.iter().filter(|f| filter(&f.rel)) {
            let lx = lex(&f.text);
            let tests_from = tests_from(&lx.tokens);
            let file = ws.rels.len();
            let before = ws.fns.len();
            parse_fns(file, &lx, tests_from, &mut ws.fns);
            ws.file_fns.push((before..ws.fns.len()).collect());
            ws.rels.push(f.rel.clone());
            ws.lexed.push(lx);
            ws.tests_from.push(tests_from);
            ws.lines.push(f.text.lines().map(str::to_string).collect());
        }
        for file in 0..ws.rels.len() {
            for &fi in &ws.file_fns[file] {
                if ws.fns[fi].is_test {
                    continue;
                }
                extract_calls(
                    fi,
                    &ws.fns,
                    &ws.file_fns[file],
                    &ws.lexed[file].tokens,
                    &mut ws.calls,
                );
            }
        }
        ws.calls_by_fn = vec![Vec::new(); ws.fns.len()];
        for (ci, c) in ws.calls.iter().enumerate() {
            ws.calls_by_fn[c.caller].push(ci);
        }
        ws
    }

    pub fn rel_of(&self, f: usize) -> &str {
        &self.rels[self.fns[f].file]
    }

    pub fn line_text(&self, file: usize, line: usize) -> String {
        self.lines[file].get(line - 1).cloned().unwrap_or_default()
    }

    /// `name (file:line)` for reports.
    pub fn fn_label(&self, f: usize) -> String {
        let item = &self.fns[f];
        format!("{} ({}:{})", item.display(), self.rels[item.file], item.line)
    }

    /// Waived if a comment carrying `lint:allow(rule)` sits on `line`
    /// (trailing style) or on the line directly above it (attribute style —
    /// what rustfmt produces when a trailing comment overflows the width).
    pub fn allowed(&self, file: usize, line: usize, rule: &str) -> bool {
        let needle = format!("lint:allow({rule})");
        self.lexed[file]
            .comments_on(line)
            .chain(self.lexed[file].comments_on(line.saturating_sub(1)))
            .any(|c| c.text.contains(&needle))
    }

    pub fn in_tests(&self, file: usize, line: usize) -> bool {
        self.tests_from[file].is_some_and(|t| line >= t)
    }
}

/// One ambiguously resolved call: several same-name-same-arity candidates.
#[derive(Debug)]
pub struct Ambiguity {
    pub file: String,
    pub line: usize,
    pub name: String,
    pub arity: usize,
    pub candidates: Vec<usize>,
}

/// Resolved call graph over a [`Ws`].
pub struct CallGraph {
    /// Per fn: deduped callee fn indices.
    pub edges: Vec<Vec<usize>>,
    /// Per call site (parallel to `ws.calls`): resolved targets.
    pub call_targets: Vec<Vec<usize>>,
    /// Calls that resolved to more than one candidate — reported, never
    /// silently dropped.
    pub ambiguous: Vec<Ambiguity>,
    /// Calls with no in-workspace candidate (std / external / shim calls).
    pub unresolved: usize,
}

impl CallGraph {
    pub fn build(ws: &Ws) -> CallGraph {
        // Name index over non-test fns.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, f) in ws.fns.iter().enumerate() {
            if !f.is_test {
                by_name.entry(&f.name).or_default().push(i);
            }
        }
        let mut edges = vec![Vec::new(); ws.fns.len()];
        let mut call_targets = vec![Vec::new(); ws.calls.len()];
        let mut ambiguous = Vec::new();
        let mut unresolved = 0usize;
        for (ci, call) in ws.calls.iter().enumerate() {
            let cands = resolve(ws, &by_name, call);
            if cands.is_empty() {
                unresolved += 1;
                continue;
            }
            if cands.len() > 1 {
                ambiguous.push(Ambiguity {
                    file: ws.rel_of(call.caller).to_string(),
                    line: call.line,
                    name: call.name.clone(),
                    arity: call.arity,
                    candidates: cands.clone(),
                });
            }
            for &t in &cands {
                if !edges[call.caller].contains(&t) {
                    edges[call.caller].push(t);
                }
            }
            call_targets[ci] = cands;
        }
        CallGraph { edges, call_targets, ambiguous, unresolved }
    }

    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Forward BFS from `seeds`; returns (visited, parent) with
    /// `parent[seed] == seed`.
    pub fn reach(&self, seeds: &[usize]) -> (Vec<bool>, Vec<usize>) {
        bfs(seeds, &self.edges)
    }

    /// Reverse BFS: every fn from which some seed is reachable through fns
    /// that pass `through` (a seed itself need not pass).
    pub fn reach_rev(
        &self,
        seeds: &[usize],
        through: &dyn Fn(usize) -> bool,
    ) -> (Vec<bool>, Vec<usize>) {
        let mut redges = vec![Vec::new(); self.edges.len()];
        for (from, tos) in self.edges.iter().enumerate().filter(|&(from, _)| through(from)) {
            for &to in tos {
                redges[to].push(from);
            }
        }
        bfs(seeds, &redges)
    }

    /// Path `seed -> ... -> target` following the parent map from
    /// [`Self::reach`].
    pub fn path_to(parent: &[usize], target: usize) -> Vec<usize> {
        let mut path = vec![target];
        let mut cur = target;
        while parent[cur] != cur {
            cur = parent[cur];
            path.push(cur);
        }
        path.reverse();
        path
    }
}

fn bfs(seeds: &[usize], edges: &[Vec<usize>]) -> (Vec<bool>, Vec<usize>) {
    let mut visited = vec![false; edges.len()];
    let mut parent: Vec<usize> = (0..edges.len()).collect();
    let mut queue = std::collections::VecDeque::new();
    for &s in seeds {
        if !visited[s] {
            visited[s] = true;
            queue.push_back(s);
        }
    }
    while let Some(f) = queue.pop_front() {
        for &t in &edges[f] {
            if !visited[t] {
                visited[t] = true;
                parent[t] = f;
                queue.push_back(t);
            }
        }
    }
    (visited, parent)
}

/// Method names on std collections / smart pointers / Option-Result that
/// same-named workspace methods would shadow. A `.get(..)` on a HashMap is
/// lexically identical to a `.get(..)` on `Db`, and linking every such
/// call to every workspace `get` poisons reachability with thousands of
/// false edges (the first real-tree sweep produced 100+ findings that
/// were all `map.get`/`vec.push` lookalikes). Method calls with these
/// names only resolve through the `self.m(...)` own-impl narrowing; a
/// receiver we cannot type does NOT link them. Policy: DESIGN.md §14.
const COMMON_METHODS: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "clear",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "retain",
    "extend",
    "drain",
    "iter",
    "iter_mut",
    "keys",
    "values",
    "entry",
    "clone",
    "new",
    "take",
    "replace",
    "write",
    "read",
    "lock",
];

/// Candidate set for one call. Resolution rules, in order:
/// - method calls match `has_self` fns by name+arity; `self.m(...)`
///   narrows to the enclosing impl type when it defines a match;
///   [`COMMON_METHODS`] names never link without that narrowing;
/// - `Qual::f(...)` narrows to impls of `Qual`, then to fns in a
///   file/crate spelled like a module path `qual`; a qualifier matching
///   neither is an external type (`HashMap::new`) and stays unresolved;
/// - bare calls prefer same-file definitions before going global.
fn resolve(ws: &Ws, by_name: &HashMap<&str, Vec<usize>>, call: &CallSite) -> Vec<usize> {
    let Some(all) = by_name.get(call.name.as_str()) else { return Vec::new() };
    let caller = &ws.fns[call.caller];
    match &call.callee {
        Callee::SelfMethod | Callee::Method => {
            let methods: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&i| ws.fns[i].has_self && ws.fns[i].arity == call.arity)
                .collect();
            if call.callee == Callee::SelfMethod {
                if let Some(ty) = &caller.impl_type {
                    let own: Vec<usize> = methods
                        .iter()
                        .copied()
                        .filter(|&i| ws.fns[i].impl_type.as_deref() == Some(ty))
                        .collect();
                    if !own.is_empty() {
                        return own;
                    }
                }
            }
            if COMMON_METHODS.contains(&call.name.as_str()) {
                return Vec::new();
            }
            methods
        }
        Callee::Qualified(q) => {
            let arity_ok: Vec<usize> =
                all.iter().copied().filter(|&i| ws.fns[i].arity == call.arity).collect();
            let typed: Vec<usize> = arity_ok
                .iter()
                .copied()
                .filter(|&i| ws.fns[i].impl_type.as_deref() == Some(q.as_str()))
                .collect();
            if !typed.is_empty() {
                return typed;
            }
            let moduled: Vec<usize> = arity_ok
                .iter()
                .copied()
                .filter(|&i| !ws.fns[i].has_self && module_matches(ws.rel_of(i), q))
                .collect();
            if !moduled.is_empty() {
                return moduled;
            }
            // Qualifier matched no workspace impl or module: an external
            // type (`HashMap::new`, `Arc::new`) — do not guess.
            Vec::new()
        }
        Callee::Bare => {
            let frees: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&i| !ws.fns[i].has_self && ws.fns[i].arity == call.arity)
                .collect();
            let same_file: Vec<usize> =
                frees.iter().copied().filter(|&i| ws.fns[i].file == caller.file).collect();
            if !same_file.is_empty() {
                return same_file;
            }
            frees
        }
    }
}

/// Does path qualifier `q` plausibly name the file at `rel`? Matches the
/// file stem (`msg::encode` -> `.../msg.rs`), the crate directory
/// (`mpi::...` -> `crates/mpi/...`), or the crate's package ident
/// (`papyrus_mpi::...`, `papyruskv::...`).
fn module_matches(rel: &str, q: &str) -> bool {
    let stem = rel.rsplit('/').next().unwrap_or("").trim_end_matches(".rs");
    if stem == q {
        return true;
    }
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(dir) = parts.next() {
            if dir == q {
                return true;
            }
            if q.strip_prefix("papyrus_") == Some(dir) {
                return true;
            }
            if dir == "core" && q == "papyruskv" {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn fixture_ws() -> Ws {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/callgraph");
        let tree = SourceTree::load(&root);
        assert!(!tree.files.is_empty(), "callgraph fixture missing");
        Ws::build(&tree, &|_| true)
    }

    fn fn_idx(ws: &Ws, display: &str) -> usize {
        ws.fns
            .iter()
            .position(|f| f.display() == display)
            .unwrap_or_else(|| panic!("no fn {display}"))
    }

    #[test]
    fn node_and_edge_counts_are_pinned() {
        let ws = fixture_ws();
        let cg = CallGraph::build(&ws);
        // The fixture workspace defines exactly these fns (non-test):
        // alpha: entry, local_helper, recurse, shared (util.rs)
        // beta:  beta_helper, shared, leaf, Widget::new, Widget::poke,
        //        trait decl poke, Widget2::poke (Gadget impl), Widget2::new
        assert_eq!(
            ws.fns.iter().filter(|f| !f.is_test).count(),
            12,
            "fns: {:#?}",
            ws.fns.iter().map(|f| f.display()).collect::<Vec<_>>()
        );
        // Pinned edge count: entry->local_helper, entry->beta_helper,
        // entry->{shared x2}, entry->recurse, entry->Widget::new,
        // entry->{poke x3}, recurse->recurse, beta_helper->shared,
        // beta_helper->leaf, Widget::poke->leaf, Widget2::poke->leaf.
        assert_eq!(cg.edge_count(), 14, "edges");
        // Recursion: recurse has a self-edge.
        let r = fn_idx(&ws, "recurse");
        assert!(cg.edges[r].contains(&r), "recursion edge");
    }

    #[test]
    fn cross_crate_qualified_call_resolves_uniquely() {
        let ws = fixture_ws();
        let cg = CallGraph::build(&ws);
        let entry = fn_idx(&ws, "entry");
        let beta_helper = fn_idx(&ws, "beta_helper");
        assert!(cg.edges[entry].contains(&beta_helper));
        // beta::beta_helper is qualified by crate dir, so it must NOT be
        // ambiguous even though resolution fell through to module match.
        assert!(!cg.ambiguous.iter().any(|a| a.name == "beta_helper"), "{:#?}", cg.ambiguous);
    }

    #[test]
    fn same_name_free_fns_are_reported_ambiguous() {
        let ws = fixture_ws();
        let cg = CallGraph::build(&ws);
        // `shared(n)` exists in both crates; the bare call inside beta
        // narrows to beta's own file, but alpha's `entry` calls it with no
        // same-file candidate... alpha defines shared in util.rs (other
        // file, same crate) so the call goes global: 2 candidates.
        let amb = cg
            .ambiguous
            .iter()
            .find(|a| a.name == "shared" && a.file.contains("alpha"))
            .expect("shared ambiguity recorded");
        assert_eq!(amb.candidates.len(), 2);
        assert_eq!(amb.arity, 1);
        // Both candidates got edges — never silently dropped.
        let entry = fn_idx(&ws, "entry");
        for &c in &amb.candidates {
            assert!(cg.edges[entry].contains(&c));
        }
    }

    #[test]
    fn trait_method_ambiguity_links_all_impls() {
        let ws = fixture_ws();
        let cg = CallGraph::build(&ws);
        let amb = cg
            .ambiguous
            .iter()
            .find(|a| a.name == "poke")
            .expect("poke ambiguity across Widget and Widget2 impls");
        // Inherent Widget::poke, the bodyless trait declaration, and the
        // Gadget-for-Widget2 impl — all linked, none dropped.
        assert_eq!(amb.candidates.len(), 3, "{amb:#?}");
        let entry = fn_idx(&ws, "entry");
        let leaf = fn_idx(&ws, "leaf");
        // Reachability flows through both impls to the shared leaf.
        let (visited, _) = cg.reach(&[entry]);
        assert!(visited[leaf]);
    }

    #[test]
    fn reverse_reachability_and_paths() {
        let ws = fixture_ws();
        let cg = CallGraph::build(&ws);
        let entry = fn_idx(&ws, "entry");
        let leaf = fn_idx(&ws, "leaf");
        let (rev, _) = cg.reach_rev(&[leaf], &|_| true);
        assert!(rev[entry], "entry reaches leaf, so reverse BFS from leaf hits entry");
        let (vis, parent) = cg.reach(&[entry]);
        assert!(vis[leaf]);
        let path = CallGraph::path_to(&parent, leaf);
        assert_eq!(path.first(), Some(&entry));
        assert_eq!(path.last(), Some(&leaf));
        assert!(path.len() >= 3, "path goes through an intermediate fn: {path:?}");
    }
}
