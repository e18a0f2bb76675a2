//! Protocol tag matrix: every `tags::X` send site and handler match arm
//! across core/mpi/replica, cross-checked so that a tag cannot be sent
//! with no handler (the message rots in a mailbox and the protocol monitor
//! reports an unmatched channel at finalize) or handled but never sent
//! (dead protocol surface that silently diverges from the spec).
//!
//! Classification is lexical over the enclosing-call stack:
//! - inside a `.send(` / `.send_at(` argument list        -> SENT
//! - 1st / 2nd `tags::` of a bare tuple — a `Route`,
//!   `(rank, request tag, reply tag)`, core's RPC front  -> SENT / AWAITED
//! - inside `RecvTag::Tag(..)` / `Tag(..)` recv argument  -> AWAITED
//! - match arm `tags::X =>`                               -> HANDLED
//! - `== tags::X` / `tags::X ==` comparisons              -> neutral
//!
//! The static matrix complements the runtime `ProtoMonitor`, which keys
//! channel accounting by `(comm, src, dst, tag)`: two tags declared with
//! the same value would alias a monitor channel, so duplicate values are
//! also an error here.

use std::collections::HashMap;

use crate::callgraph::Ws;
use crate::report::Finding;
use crate::rules::{find_seq, seq_at};

const RULE: &str = "tag-matrix";

/// Crates whose send/handle sites feed the matrix.
const TAG_UNIVERSE: &[&str] = &["crates/core/", "crates/mpi/", "crates/replica/"];

#[derive(Default)]
struct TagUse {
    decl: Option<(usize, usize, u32)>, // (file, line, value)
    sent: Vec<(usize, usize)>,
    awaited: Vec<(usize, usize)>,
    handled: Vec<(usize, usize)>,
}

pub fn run(ws: &Ws) -> Vec<Finding> {
    let mut uses: HashMap<String, TagUse> = HashMap::new();
    // 1. Declared tags: `pub const NAME: u32 = N;` inside `pub mod tags`
    //    of crates/core/src/msg.rs.
    let Some(msg_file) = ws.rels.iter().position(|r| r.ends_with("crates/core/src/msg.rs")) else {
        return Vec::new();
    };
    {
        let toks = &ws.lexed[msg_file].tokens;
        let Some(m) = find_seq(toks, &["mod", "tags", "{"]) else { return Vec::new() };
        let open = m + 2;
        let mut depth = 0i32;
        let mut i = open;
        while i < toks.len() {
            match toks[i].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "const" if depth == 1 => {
                    let name = toks[i + 1].text.clone();
                    // const NAME : u32 = VALUE ;
                    if let Some(v) = toks.get(i + 5).and_then(|t| t.text.parse::<u32>().ok()) {
                        uses.entry(name).or_default().decl = Some((msg_file, toks[i + 1].line, v));
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    if uses.is_empty() {
        return Vec::new();
    }
    // 2. Classify every `tags::NAME` occurrence in the tag universe.
    for file in 0..ws.rels.len() {
        if !TAG_UNIVERSE
            .iter()
            .any(|p| ws.rels[file].starts_with(p) || ws.rels[file].contains(&format!("/{p}")))
        {
            continue;
        }
        let toks = &ws.lexed[file].tokens;
        // Enclosing-call stack: (callee name, paren depth at which it opened,
        // count of tags:: arguments seen so far in this frame).
        let mut stack: Vec<(String, i32, u32)> = Vec::new();
        let mut paren = 0i32;
        for i in 0..toks.len() {
            match toks[i].text.as_str() {
                "(" => {
                    paren += 1;
                    // A call's frame is named by its callee, a bare paren's
                    // (a tuple) is "("; a macro's has none.
                    let prev = i.checked_sub(1).map(|p| &toks[p]);
                    if prev.is_some_and(|t| t.kind == crate::lexer::TokKind::Ident) {
                        stack.push((toks[i - 1].text.clone(), paren, 0));
                    } else if prev.is_some_and(|t| t.text != "!") {
                        stack.push(("(".to_string(), paren, 0));
                    }
                }
                ")" => {
                    if stack.last().is_some_and(|f| f.1 == paren) {
                        stack.pop();
                    }
                    paren -= 1;
                }
                "tags" if seq_at(toks, i, &["tags", ":", ":"]) => {
                    let n = i + 3;
                    let Some(name_tok) = toks.get(n) else { continue };
                    let name = name_tok.text.clone();
                    if !uses.contains_key(&name) {
                        continue;
                    }
                    let line = name_tok.line;
                    if ws.in_tests(file, line) {
                        continue;
                    }
                    let site = (file, line);
                    // Neutral: comparison operand.
                    let eq_before = i >= 2
                        && (toks[i - 1].text == "="
                            || (toks[i - 1].text == "!" && toks[i - 2].text != "="));
                    let eq_after = toks.get(n + 1).is_some_and(|t| t.text == "=")
                        && toks.get(n + 2).is_some_and(|t| t.text == "=");
                    let arm = toks.get(n + 1).is_some_and(|t| t.text == "=")
                        && toks.get(n + 2).is_some_and(|t| t.text == ">");
                    let u = uses.get_mut(&name).unwrap();
                    if arm {
                        u.handled.push(site);
                        continue;
                    }
                    if eq_after || eq_before {
                        continue; // comparison, neutral
                    }
                    // Innermost classifying frame wins; a mention with no
                    // classifying frame is neutral.
                    for f in stack.iter_mut().rev() {
                        match f.0.as_str() {
                            "send" | "send_at" => u.sent.push(site),
                            "(" => {
                                f.2 += 1;
                                if f.2 == 1 {
                                    u.sent.push(site);
                                } else {
                                    u.awaited.push(site);
                                }
                            }
                            "Tag" => u.awaited.push(site),
                            _ => continue,
                        }
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    // 3. The matrix.
    let mut findings = Vec::new();
    let mut names: Vec<&String> = uses.keys().collect();
    names.sort();
    // Duplicate values alias monitor channels.
    let mut by_value: HashMap<u32, Vec<&String>> = HashMap::new();
    for n in &names {
        if let Some((_, _, v)) = uses[*n].decl {
            by_value.entry(v).or_default().push(n);
        }
    }
    for (v, tags) in &by_value {
        if tags.len() > 1 {
            for dup in &tags[1..] {
                let (file, line, _) = uses[*dup].decl.unwrap();
                if ws.allowed(file, line, RULE) {
                    continue;
                }
                findings.push(Finding {
                    rule: RULE,
                    path: ws.rels[file].clone(),
                    line,
                    text: format!(
                        "duplicate tag value {v}: `{}` aliases `{}` — monitor channels are keyed by (comm, src, dst, tag) and would merge",
                        dup, tags[0]
                    ),
                    trace: Vec::new(),
                });
            }
        }
    }
    for n in names {
        let u = &uses[n];
        let Some((dfile, dline, val)) = u.decl else { continue };
        let consumed = !u.handled.is_empty() || !u.awaited.is_empty();
        if !u.sent.is_empty() && !consumed {
            let &(file, line) = u.sent.first().unwrap();
            if !ws.allowed(file, line, RULE) {
                findings.push(Finding {
                    rule: RULE,
                    path: ws.rels[file].clone(),
                    line,
                    text: format!(
                        "tag `{n}` ({val}) is sent here but no handler arm or recv awaits it"
                    ),
                    trace: Vec::new(),
                });
            }
        } else if consumed && u.sent.is_empty() {
            let &(file, line) = u.handled.first().or(u.awaited.first()).unwrap();
            if !ws.allowed(file, line, RULE) {
                findings.push(Finding {
                    rule: RULE,
                    path: ws.rels[file].clone(),
                    line,
                    text: format!(
                        "tag `{n}` ({val}) is handled/awaited here but never sent anywhere"
                    ),
                    trace: Vec::new(),
                });
            }
        } else if u.sent.is_empty() && !consumed && !ws.allowed(dfile, dline, RULE) {
            findings.push(Finding {
                rule: RULE,
                path: ws.rels[dfile].clone(),
                line: dline,
                text: format!("tag `{n}` ({val}) is declared but never sent or handled"),
                trace: Vec::new(),
            });
        }
    }
    findings
}
