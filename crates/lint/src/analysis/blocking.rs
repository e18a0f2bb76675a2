//! Blocking-under-lock: a call that can park (see [`super::Parks`]) made
//! while a parking_lot guard is live.
//!
//! One task of a world runs at a time, so a task that parks holding a lock
//! hands the baton to a runner that may need that lock, and it blocks
//! natively, outside the world's scheduler: no verdict, just a hung world.
//! A condvar wait is exempt for the guard it is handed, which it releases.
//!
//! Guard detection is lexical: `let g = x.lock();` / `.read()` /
//! `.write()` binds a guard live until its enclosing block closes or a
//! `drop(g)`; a lock call that is *not* the whole initializer is a
//! statement temporary, live to the end of its statement (or through the
//! block it is scrutinee/condition for). The primitive files are not
//! scanned: their internal mailbox mutex is the primitive. Accepted sites
//! carry `// lint:allow(blocking-under-lock)` with a justification.

use super::Parks;
use crate::callgraph::{CallGraph, Ws};
use crate::lexer::Tok;
use crate::parse::CallSite;
use crate::report::Finding;
use crate::rules::seq_at;

const RULE: &str = "blocking-under-lock";

struct Guard {
    /// Live token range within the file (half-open).
    range: std::ops::Range<usize>,
    /// `g` for a let-bound guard, the receiver text otherwise.
    name: String,
    line: usize,
}

pub fn run(ws: &Ws, cg: &CallGraph, parks: &Parks) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (fi, item) in ws.fns.iter().enumerate() {
        let file = item.file;
        if item.is_test || item.body.is_empty() || super::primitive_file(&ws.rels[file]) {
            continue;
        }
        let toks = &ws.lexed[file].tokens;
        let guards = find_guards(ws, fi, toks);
        if guards.is_empty() {
            continue;
        }
        for &ci in &ws.calls_by_fn[fi] {
            let call = &ws.calls[ci];
            let live = |g: &&Guard| g.range.contains(&call.tok) && !hands_over(toks, call, g);
            let Some(g) = guards.iter().find(live) else { continue };
            let Some(trace) = parks.trace(ws, cg, ci) else { continue };
            if ws.in_tests(file, call.line) || ws.allowed(file, call.line, RULE) {
                continue;
            }
            findings.push(Finding {
                rule: RULE,
                path: ws.rels[file].clone(),
                line: call.line,
                text: format!(
                    "`{}({} args)` can park while guard `{}` (line {}) is held: {}",
                    call.name,
                    call.arity,
                    g.name,
                    g.line,
                    ws.line_text(file, call.line).trim()
                ),
                trace,
            });
        }
    }
    findings
}

/// Is `call` a condvar wait handed guard `g` (which it releases)?
fn hands_over(toks: &[Tok], call: &CallSite, g: &Guard) -> bool {
    matches!(call.name.as_str(), "wait" | "wait_until_quiet")
        && toks[call.tok + 2..].iter().take_while(|t| t.text != ")").any(|t| t.text == g.name)
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
fn find_guards(ws: &Ws, fi: usize, toks: &[Tok]) -> Vec<Guard> {
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
