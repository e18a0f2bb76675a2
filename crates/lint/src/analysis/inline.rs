//! Slice tasks: no run-to-completion task may be able to park.
//!
//! A task spawned with `spawn_slices` has no thread of its own: each slice
//! runs on the thread of whichever task hands it the baton, and that thread
//! cannot block on its behalf — the world scheduler panics if it tries. So
//! every non-test `spawn_slices(.., f(..))` call names a slice task, `f`
//! (the compaction task, the message dispatcher and the message handler),
//! and each call in `f`'s body is checked against [`super::Parks`].

use super::Parks;
use crate::callgraph::{CallGraph, Ws};
use crate::parse::{matching_brace, Callee};
use crate::report::Finding;

const RULE: &str = "inline-park";

pub fn run(ws: &Ws, cg: &CallGraph, parks: &Parks) -> Vec<Finding> {
    let mut findings = Vec::new();
    for task in slice_tasks(ws) {
        let file = ws.fns[task].file;
        for &ci in &ws.calls_by_fn[task] {
            let call = &ws.calls[ci];
            let Some(trace) = parks.trace(ws, cg, ci) else { continue };
            if ws.allowed(file, call.line, RULE) {
                continue;
            }
            findings.push(Finding {
                rule: RULE,
                path: ws.rels[file].clone(),
                line: call.line,
                text: format!(
                    "slice task `{}` runs on a lent thread, but `{}({} args)` can park: \
                     a unit that must wait enlists and ends its slice instead: {}",
                    ws.fns[task].name,
                    call.name,
                    call.arity,
                    ws.line_text(file, call.line).trim()
                ),
                trace,
            });
        }
    }
    findings
}

/// The fn `f` of every `spawn_slices(.., f(..))` call outside tests: each
/// plain call among the spawn's arguments that names a fn of its file.
fn slice_tasks(ws: &Ws) -> Vec<usize> {
    let mut tasks = Vec::new();
    for spawn in ws.calls.iter().filter(|c| c.name == "spawn_slices") {
        let file = ws.fns[spawn.caller].file;
        let args = spawn.tok..matching_brace(&ws.lexed[file].tokens, spawn.tok + 1);
        for &c in &ws.calls_by_fn[spawn.caller] {
            let arg = &ws.calls[c];
            if arg.callee == Callee::Bare && args.contains(&arg.tok) {
                let named = ws.file_fns[file].iter().filter(|&&f| ws.fns[f].name == arg.name);
                tasks.extend(named.filter(|&&f| !ws.fns[f].is_test));
            }
        }
    }
    tasks.sort_unstable();
    tasks.dedup();
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SourceFile, SourceTree};

    const RUNTIME: &str = "crates/core/src/runtime.rs";

    fn findings(runtime: &str) -> Vec<Finding> {
        let file = |rel: &str, text: &str| SourceFile { rel: rel.into(), text: text.into() };
        let queue = "impl<T> BlockingQueue<T> {\n\
                     pub fn push(&self, v: T) { self.not_empty.notify_one(); }\n}\n";
        let tree = SourceTree {
            files: vec![file(RUNTIME, runtime), file("crates/core/src/queue.rs", queue)],
        };
        let ws = Ws::build(&tree, &|_| true);
        let cg = CallGraph::build(&ws);
        run(&ws, &cg, &Parks::build(&ws, &cg))
    }

    const RUNTIME_SRC: &str = "\
pub struct Ctx { pub work_q: Arc<BlockingQueue<u32>> }
fn init(rank: &Rank, ctx: Ctx) {
    rank.spawn_slices(name(\"serve\"), serve(ctx));
    rank.spawn(name(\"pump\"), move || pump(ctx));
}
fn serve(ctx: Ctx) -> impl FnMut() -> Slice {
    move || {
        match next(&ctx) {
            tags::PUT => put(&ctx),
            tags::GET => get(&ctx),
            _ => { note(&ctx) }
        }
        Slice::Ran
    }
}
fn next(ctx: &Ctx) -> u32 { 1 }
fn put(ctx: &Ctx) { ctx.cv.enlist(&g); }
fn get(ctx: &Ctx) { ctx.work_q.push(1); let v = vec![1]; v.len(); }
fn note(ctx: &Ctx) { ctx.cv.notify_all(); }
fn pump(ctx: Ctx) { loop { ctx.cv.wait(&mut g); } }
";

    #[test]
    fn no_slice_task_may_park() {
        // An enlist or a `push` never parks; a condvar wait parks until a
        // notify, wherever the task's body reaches it — but the thread task
        // `pump` may park.
        assert!(findings(RUNTIME_SRC).is_empty(), "{:#?}", findings(RUNTIME_SRC));
        let all = findings(&RUNTIME_SRC.replace("ctx.cv.enlist(&g);", "ctx.cv.wait(&mut g);"));
        assert_eq!(all.len(), 1, "{all:#?}");
        assert!(all[0].text.contains("slice task `serve`"), "{all:#?}");
        assert!(all[0].trace.iter().any(|t| t.starts_with("put ")), "{all:#?}");
        // A wait in the body itself parks as surely as one below it, and a
        // continuation outside any `tags::X` arm is checked too.
        let direct = RUNTIME_SRC.replace("{ note(&ctx) }", "{ ctx.cv.wait(&mut g) }");
        let all = findings(&direct);
        assert_eq!(all.len(), 1, "{all:#?}");
        assert!(all[0].text.contains("`wait(1 args)`") && all[0].trace.is_empty(), "{all:#?}");
    }
}
