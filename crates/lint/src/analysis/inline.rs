//! Inline arms: no request arm of the message handler may be able to park.
//!
//! The handler is a run-to-completion task of its world with no thread of
//! its own: a request arm runs on the thread of whichever task hands the
//! handler the baton, and that thread cannot block on the handler's behalf
//! — the world scheduler panics if it tries. So every `tags::X =>` arm in
//! `runtime.rs` is an inline arm, and each call it makes is checked against
//! [`super::Parks`].

use super::Parks;
use crate::callgraph::{CallGraph, Ws};
use crate::lexer::Tok;
use crate::report::Finding;
use crate::rules::seq_at;

const RULE: &str = "inline-park";
const RUNTIME: &str = "crates/core/src/runtime.rs";

pub fn run(ws: &Ws, cg: &CallGraph, parks: &Parks) -> Vec<Finding> {
    let Some(rt) = ws.rels.iter().position(|r| r.ends_with(RUNTIME)) else { return Vec::new() };
    let toks = &ws.lexed[rt].tokens;
    let mut findings = Vec::new();
    for (tag, arm) in arms(toks) {
        if ws.in_tests(rt, toks[arm.start].line) {
            continue;
        }
        for (ci, call) in ws.calls.iter().enumerate() {
            if ws.fns[call.caller].file != rt || !arm.contains(&call.tok) {
                continue;
            }
            let Some(trace) = parks.trace(ws, cg, ci) else { continue };
            if ws.allowed(rt, call.line, RULE) {
                continue;
            }
            findings.push(Finding {
                rule: RULE,
                path: ws.rels[rt].clone(),
                line: call.line,
                text: format!(
                    "arm `{tag}` runs on a lent thread, but `{}({} args)` can park: \
                     a unit that must wait enlists and ends its slice instead: {}",
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
                     pub fn push(&self, v: T) { self.not_empty.notify_one(); }\n\
                     pub fn pop(&self) -> T { loop { self.not_empty.wait(&mut g); } }\n}\n";
        let tree = SourceTree {
            files: vec![file(RUNTIME, runtime), file("crates/core/src/queue.rs", queue)],
        };
        let ws = Ws::build(&tree, &|_| true);
        let cg = CallGraph::build(&ws);
        run(&ws, &cg, &Parks::build(&ws, &cg))
    }

    const RUNTIME_SRC: &str = "\
pub struct Ctx { pub work_q: Arc<BlockingQueue<u32>> }
fn serve(ctx: &Ctx, tag: u32) {
    match tag {
        tags::PUT => put(ctx),
        tags::GET => get(ctx),
        tags::MARK => { note(ctx) }
    }
}
fn put(ctx: &Ctx) { ctx.cv.enlist(&g); }
fn get(ctx: &Ctx) { ctx.work_q.push(1); let v = vec![1]; v.len(); }
fn note(ctx: &Ctx) { ctx.cv.notify_all(); }
";

    #[test]
    fn no_handler_arm_may_park() {
        // An enlist or a `push` never parks; a `pop` parks until a push
        // arrives, whichever arm it is in.
        assert!(findings(RUNTIME_SRC).is_empty(), "{:#?}", findings(RUNTIME_SRC));
        let all = findings(&RUNTIME_SRC.replace("ctx.cv.enlist(&g);", "ctx.work_q.pop();"));
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
