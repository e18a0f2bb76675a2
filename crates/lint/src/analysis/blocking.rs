//! Blocking-under-lock: calls made while a parking_lot guard is live whose
//! transitive call graph reaches a blocking primitive — fabric recv/wait,
//! a collective, `thread::sleep`, or papyrus-nvm backend I/O.
//!
//! A rank that blocks on the fabric while holding a lock that the message
//! handler thread also needs is a distributed deadlock; holding one across
//! charged NVM I/O serialises every reader behind a device-latency stall.
//!
//! Guard detection is lexical: `let g = x.lock();` / `.read()` /
//! `.write()` binds a guard live until its enclosing block closes or a
//! `drop(g)`; a lock call that is *not* the whole initializer is a
//! statement temporary, live to the end of its statement (or through the
//! block it is scrutinee/condition for).
//!
//! False-positive policy (DESIGN.md §14): the files that *implement* the
//! blocking primitives (fabric.rs, comm.rs, nvm store.rs) are excluded —
//! their internal mailbox-mutex + condvar shape IS the primitive;
//! `BlockingQueue::push/pop` (core's mutex + condvar FIFO, which parks on
//! full/empty by design) and backend `clear/len/list` are not seeds
//! (name+arity would collide with `Vec`/`VecDeque` methods); condvar waits
//! are excluded automatically by arity. Accepted sites carry
//! `// lint:allow(blocking-under-lock)` with a justification.

use crate::callgraph::{CallGraph, Ws};
use crate::report::Finding;
use crate::rules::seq_at;

const RULE: &str = "blocking-under-lock";

/// Blocking primitive leaves, as (file suffix, fn name). Everything that
/// transitively calls one of these is "blocking" via reverse BFS.
const SEEDS: &[(&str, &str)] = &[
    // `Fabric::wait_match` itself is not a seed: its parking callers are
    // named instead.
    ("crates/mpi/src/fabric.rs", "recv"),
    ("crates/mpi/src/fabric.rs", "allgather"),
    ("crates/mpi/src/comm.rs", "recv"),
    ("crates/mpi/src/comm.rs", "recv_until_quiet"),
    ("crates/mpi/src/comm.rs", "barrier"),
    ("crates/mpi/src/comm.rs", "allgather_bytes"),
    // Every charged NVM operation funnels through `NvmStore::io`.
    ("crates/nvm/src/store.rs", "io"),
];

/// Primitive-implementation files: not scanned for guards.
pub(crate) const PRIMITIVE_FILES: &[&str] =
    &["crates/mpi/src/fabric.rs", "crates/mpi/src/comm.rs", "crates/nvm/src/store.rs"];

struct Guard {
    /// Live token range within the file (half-open).
    range: std::ops::Range<usize>,
    /// `g` for a let-bound guard, the receiver text otherwise.
    name: String,
    line: usize,
}

pub fn run(ws: &Ws, cg: &CallGraph) -> Vec<Finding> {
    let seeds: Vec<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            !f.is_test
                && SEEDS.iter().any(|(sf, sn)| f.name == *sn && ws.rels[f.file].ends_with(sf))
        })
        .map(|(i, _)| i)
        .collect();
    if seeds.is_empty() {
        return Vec::new();
    }
    let (blocking, rparent) = cg.reach_rev(&seeds);
    let mut findings = Vec::new();
    for (fi, item) in ws.fns.iter().enumerate() {
        if item.is_test || item.body.is_empty() {
            continue;
        }
        let file = item.file;
        if PRIMITIVE_FILES.iter().any(|p| ws.rels[file].ends_with(p)) {
            continue;
        }
        let toks = &ws.lexed[file].tokens;
        let guards = find_guards(ws, fi, toks);
        if guards.is_empty() {
            continue;
        }
        for &ci in &ws.calls_by_fn[fi] {
            let call = &ws.calls[ci];
            // The guard-acquisition calls themselves.
            if call.arity == 0 && matches!(call.name.as_str(), "lock" | "read" | "write") {
                continue;
            }
            let Some(g) = guards.iter().find(|g| g.range.contains(&call.tok)) else { continue };
            let Some(&target) = cg.call_targets[ci].iter().find(|&&t| blocking[t]) else {
                continue;
            };
            if ws.in_tests(file, call.line) || ws.allowed(file, call.line, RULE) {
                continue;
            }
            // Chain from the called fn down to the primitive it reaches.
            let mut chain = CallGraph::path_to(&rparent, target);
            chain.reverse(); // called fn first, primitive last
            let trace: Vec<String> = chain.iter().map(|&f| ws.fn_label(f)).collect();
            findings.push(Finding {
                rule: RULE,
                path: ws.rels[file].clone(),
                line: call.line,
                text: format!(
                    "`{}({} args)` blocks while guard `{}` (line {}) is held: {}",
                    call.name,
                    call.arity,
                    g.name,
                    g.line,
                    ws.line_text(file, call.line).trim()
                ),
                trace,
            });
        }
        // Raw `thread::sleep` under a guard (unresolvable by the call graph).
        for g in &guards {
            for i in g.range.clone() {
                if seq_at(toks, i, &["thread", ":", ":", "sleep"]) {
                    let line = toks[i].line;
                    if ws.in_tests(file, line) || ws.allowed(file, line, RULE) {
                        continue;
                    }
                    findings.push(Finding {
                        rule: RULE,
                        path: ws.rels[file].clone(),
                        line,
                        text: format!(
                            "`thread::sleep` while guard `{}` (line {}) is held: {}",
                            g.name,
                            g.line,
                            ws.line_text(file, line).trim()
                        ),
                        trace: Vec::new(),
                    });
                }
            }
        }
    }
    findings
}

/// Is `fi` the innermost fn whose body contains token `k`?
fn innermost(ws: &Ws, fi: usize, k: usize) -> bool {
    let file = ws.fns[fi].file;
    !ws.file_fns[file].iter().any(|&other| {
        other != fi
            && ws.fns[other].body.contains(&k)
            && ws.fns[other].body.len() < ws.fns[fi].body.len()
    })
}

/// Lexical scan of one fn body for live guard ranges.
fn find_guards(ws: &Ws, fi: usize, toks: &[crate::lexer::Tok]) -> Vec<Guard> {
    let item = &ws.fns[fi];
    let body = item.body.clone();
    // Brace depth before each body token, relative to the body start.
    let mut depth = Vec::with_capacity(body.len());
    let mut d = 0i32;
    for i in body.clone() {
        depth.push(d);
        match toks[i].text.as_str() {
            "{" => d += 1,
            "}" => d -= 1,
            _ => {}
        }
    }
    let dep = |i: usize| depth[i - body.start];
    let mut guards = Vec::new();
    for k in body.clone() {
        let acq = ["lock", "read", "write"].iter().any(|m| seq_at(toks, k, &[".", m, "(", ")"]));
        if !acq || !innermost(ws, fi, k) {
            continue;
        }
        let line = toks[k].line;
        // Statement head (previous `;`, `{`, or `}`).
        let mut head = k;
        while head > body.start && !matches!(toks[head - 1].text.as_str(), ";" | "{" | "}") {
            head -= 1;
        }
        // Let-bound guard: `let [mut] g = <recv chain> .lock();`
        //                                            k^        k+4 is `;`
        // The initializer must BE the guard: `let v = *x.read();` or
        // `let v = &x.read()...;` binds a copied/borrowed value, and the
        // guard itself is a statement temporary.
        let bound = toks.get(k + 4).is_some_and(|t| t.text == ";") && toks[head].text == "let" && {
            let name_at = if toks[head + 1].text == "mut" { head + 2 } else { head + 1 };
            toks[name_at].kind == crate::lexer::TokKind::Ident
                && toks.get(name_at + 1).is_some_and(|t| t.text == "=")
                && toks
                    .get(name_at + 2)
                    .is_some_and(|t| t.kind == crate::lexer::TokKind::Ident || t.text == "self")
        };
        if bound {
            let j = head;
            let ident = if toks[j + 1].text == "mut" {
                toks[j + 2].text.clone()
            } else {
                toks[j + 1].text.clone()
            };
            // Live from after the `;` to the end of the enclosing block,
            // or an explicit `drop(ident)`.
            let d0 = dep(k);
            let mut end = body.end;
            for m in (k + 5)..body.end {
                if dep(m) < d0 {
                    end = m;
                    break;
                }
                if seq_at(toks, m, &["drop", "(", ident.as_str(), ")"]) {
                    end = m;
                    break;
                }
            }
            guards.push(Guard { range: (k + 5)..end, name: ident, line });
        } else {
            // Statement temporary: live to the end of its statement, or —
            // for `match`/`for`/`if let`/`while let` scrutinees — through
            // the block (Rust extends scrutinee temporaries to the end of
            // the expression; plain `if`/`while` conditions drop theirs
            // before the block runs).
            let extends = matches!(toks[head].text.as_str(), "match" | "for")
                || (matches!(toks[head].text.as_str(), "if" | "while")
                    && toks.get(head + 1).is_some_and(|t| t.text == "let"));
            let recv = if k > 0 { toks[k - 1].text.clone() } else { String::new() };
            let (mut p, mut b, mut c) = (0i32, 0i32, 0i32);
            let mut in_block = false;
            let mut end = body.end;
            for (m, tok) in toks.iter().enumerate().take(body.end).skip(k + 4) {
                match tok.text.as_str() {
                    "(" => p += 1,
                    ")" => p -= 1,
                    "[" => b += 1,
                    "]" => b -= 1,
                    "{" => {
                        if p == 0 && b == 0 && c == 0 {
                            if !extends {
                                end = m;
                                break;
                            }
                            in_block = true;
                        }
                        c += 1;
                    }
                    "}" => {
                        c -= 1;
                        if in_block && c == 0 {
                            end = m + 1;
                            break;
                        }
                    }
                    ";" if p == 0 && b == 0 && c == 0 => {
                        end = m;
                        break;
                    }
                    _ => {}
                }
                if p < 0 || c < 0 {
                    // Statement closed by the surrounding expression.
                    end = m;
                    break;
                }
            }
            guards.push(Guard { range: k..end, name: recv, line });
        }
    }
    guards
}
