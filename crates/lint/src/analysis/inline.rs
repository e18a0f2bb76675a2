//! Inline arms: the message handler's request arms that run on a lent
//! thread must not be able to park.
//!
//! The handler is a run-to-completion task of its world: a request arm runs
//! on the thread of whichever task hands the handler the baton, and that
//! thread cannot block on the handler's behalf — the world scheduler panics
//! if it tries. The arms that can park are listed in `runtime.rs`'s
//! `PARKING_ARMS` and run on the handler's own thread; every other
//! `tags::X =>` arm there is an inline arm. Each call an inline arm makes
//! is checked against the park-reaching set: a reverse BFS over the shared
//! call graph from
//!
//! - the message-passing primitives that park, named by file
//!   (`SEEDS`); their own files are not scanned for direct waits, since
//!   the one mailbox wait also serves the non-parking take;
//! - every fn with a direct park site: a condvar `.wait(g)` /
//!   `.wait_until_quiet(g)`, a task `.join()`, or a `push`/`pop` on a field
//!   declared as a `BlockingQueue`. A queue call is the one seed that needs
//!   the field's type: `push`/`pop` never resolve by name (they would
//!   collide with `Vec`'s), so the receiver stands in for it.

use std::collections::HashSet;

use crate::callgraph::{CallGraph, Ws};
use crate::lexer::{Tok, TokKind};
use crate::parse::{CallSite, Callee};
use crate::report::Finding;
use crate::rules::{find_seq, seq_at};

const RULE: &str = "inline-park";
const RUNTIME: &str = "crates/core/src/runtime.rs";

/// Parking primitives by (file suffix, fn name).
const SEEDS: &[(&str, &str)] = &[
    ("crates/mpi/src/fabric.rs", "recv"),
    ("crates/mpi/src/fabric.rs", "allgather"),
    ("crates/mpi/src/comm.rs", "recv_until_quiet"),
    ("crates/core/src/queue.rs", "push"),
    ("crates/core/src/queue.rs", "pop"),
];

pub fn run(ws: &Ws, cg: &CallGraph) -> Vec<Finding> {
    let Some(rt) = ws.rels.iter().position(|r| r.ends_with(RUNTIME)) else { return Vec::new() };
    let queues = queue_fields(ws);
    let parks_here =
        |c: &CallSite| direct_park(&ws.lexed[ws.fns[c.caller].file].tokens, c, &queues);
    let seeds: Vec<usize> = (0..ws.fns.len())
        .filter(|&f| {
            let (item, rel) = (&ws.fns[f], &ws.rels[ws.fns[f].file]);
            let named = SEEDS.iter().any(|(sf, sn)| item.name == *sn && rel.ends_with(sf));
            let primitive = super::blocking::PRIMITIVE_FILES.iter().any(|p| rel.ends_with(p));
            !item.is_test
                && (named
                    || !primitive && ws.calls_by_fn[f].iter().any(|&c| parks_here(&ws.calls[c])))
        })
        .collect();
    let (parks, rparent) = cg.reach_rev(&seeds);
    let toks = &ws.lexed[rt].tokens;
    let own_thread = parking_arms(toks);
    let mut findings = Vec::new();
    for (tag, arm) in arms(toks) {
        if own_thread.contains(tag.as_str()) || ws.in_tests(rt, toks[arm.start].line) {
            continue;
        }
        for (ci, call) in ws.calls.iter().enumerate() {
            if ws.fns[call.caller].file != rt || !arm.contains(&call.tok) {
                continue;
            }
            let trace = match cg.call_targets[ci].iter().find(|&&t| parks[t]) {
                _ if parks_here(call) => Vec::new(),
                Some(&target) => {
                    let mut chain = CallGraph::path_to(&rparent, target);
                    chain.reverse(); // called fn first, park point last
                    chain.iter().map(|&f| ws.fn_label(f)).collect()
                }
                None => continue,
            };
            if ws.allowed(rt, call.line, RULE) {
                continue;
            }
            findings.push(Finding {
                rule: RULE,
                path: ws.rels[rt].clone(),
                line: call.line,
                text: format!(
                    "arm `{tag}` runs on a lent thread, but `{}({} args)` can park: \
                     list it in PARKING_ARMS or keep it from parking: {}",
                    call.name,
                    call.arity,
                    ws.line_text(rt, call.line).trim()
                ),
                trace,
            });
        }
    }
    findings
}

/// A call that parks by its own shape (see the module docs).
fn direct_park(toks: &[Tok], call: &CallSite, queues: &HashSet<String>) -> bool {
    let method = matches!(call.callee, Callee::Method | Callee::SelfMethod);
    let receiver = call.tok.checked_sub(2).map(|r| toks[r].text.as_str());
    method
        && match (call.name.as_str(), call.arity) {
            ("wait" | "wait_until_quiet", 1) | ("join", 0) => true,
            ("push", 1) | ("pop", 0) => receiver.is_some_and(|r| queues.contains(r)),
            _ => false,
        }
}

/// Names declared with a `BlockingQueue` type — `name: Arc<BlockingQueue<T>>`
/// fields, `name: BlockingQueue::new(n)` initialisers — anywhere in `ws`.
fn queue_fields(ws: &Ws) -> HashSet<String> {
    let mut names = HashSet::new();
    for lexed in &ws.lexed {
        let toks = &lexed.tokens;
        for k in (0..toks.len()).filter(|&k| toks[k].text == "BlockingQueue") {
            let colon = (k.saturating_sub(4).max(1)..k).rev().find(|&j| {
                toks[j].text == ":" && toks[j - 1].text != ":" && toks[j + 1].text != ":"
            });
            if let Some(j) = colon.filter(|&j| toks[j - 1].kind == TokKind::Ident) {
                names.insert(toks[j - 1].text.clone());
            }
        }
    }
    names
}

/// The tags named in `const PARKING_ARMS: … = &[tags::X, …];`.
fn parking_arms(toks: &[Tok]) -> HashSet<String> {
    let Some(start) = find_seq(toks, &["const", "PARKING_ARMS"]) else { return HashSet::new() };
    let end = (start..toks.len()).find(|&i| toks[i].text == ";").unwrap_or(toks.len());
    (start..end)
        .filter(|&i| seq_at(toks, i, &["tags", ":", ":"]))
        .filter_map(|i| toks.get(i + 3).map(|t| t.text.clone()))
        .collect()
}

/// Every `tags::X => <expr>` match arm: the tag and the arm's token range.
fn arms(toks: &[Tok]) -> Vec<(String, std::ops::Range<usize>)> {
    let heads = (0..toks.len()).filter(|&i| seq_at(toks, i, &["tags", ":", ":"]));
    let heads = heads.filter(|&i| seq_at(toks, i + 4, &["=", ">"]));
    heads
        .map(|i| {
            let start = i + 6;
            let mut depth = 0i32;
            let mut end = start;
            while end < toks.len() {
                match toks[end].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" if depth == 0 => break,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => break,
                    _ => {}
                }
                end += 1;
            }
            (toks[i + 3].text.clone(), start..end)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SourceFile, SourceTree};

    fn findings(runtime: &str) -> Vec<Finding> {
        let file = |rel: &str, text: &str| SourceFile { rel: rel.into(), text: text.into() };
        let queue = "impl<T> BlockingQueue<T> {\n\
                     pub fn push(&self, v: T) { while full { self.not_full.wait(&mut g); } }\n}\n";
        let tree = SourceTree {
            files: vec![file(RUNTIME, runtime), file("crates/core/src/queue.rs", queue)],
        };
        let ws = Ws::build(&tree, &|_| true);
        run(&ws, &CallGraph::build(&ws))
    }

    const RUNTIME_SRC: &str = "\
pub struct Ctx { pub work_q: Arc<BlockingQueue<u32>> }
const PARKING_ARMS: &[u32] = &[tags::PUT];
fn serve(ctx: &Ctx, tag: u32) {
    match tag {
        tags::PUT => put(ctx),
        tags::GET => get(ctx),
        tags::MARK => { note(ctx) }
    }
}
fn put(ctx: &Ctx) { ctx.work_q.push(1); }
fn get(ctx: &Ctx) { let v = vec![1]; v.len(); }
fn note(ctx: &Ctx) { ctx.cv.notify_all(); }
";

    #[test]
    fn parking_arms_may_park_inline_arms_may_not() {
        assert!(findings(RUNTIME_SRC).is_empty(), "{:#?}", findings(RUNTIME_SRC));
        let all = findings(&RUNTIME_SRC.replace("&[tags::PUT]", "&[]"));
        assert_eq!(all.len(), 1, "{all:#?}");
        assert!(all[0].text.contains("arm `PUT`"), "{all:#?}");
        assert!(all[0].trace.iter().any(|t| t.starts_with("put ")), "{all:#?}");
        // A wait in the arm's own braces parks as surely as one below it.
        let direct = RUNTIME_SRC.replace("{ note(ctx) }", "{ ctx.cv.wait(&mut g) }");
        let all = findings(&direct);
        assert_eq!(all.len(), 1, "{all:#?}");
        assert!(all[0].text.contains("arm `MARK`") && all[0].trace.is_empty(), "{all:#?}");
    }
}
