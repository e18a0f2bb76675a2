//! Lightweight item/body parser over the token stream.
//!
//! Extracts just enough structure for interprocedural analysis: `fn` items
//! (name, enclosing `impl` type, visibility, arity, body token range) and
//! the call sites inside each body (callee name, qualifier or receiver
//! shape, argument count). It is not a real Rust parser — no types, no
//! macro expansion, no trait solving — and the call-graph layer is built
//! to tolerate that: resolution is by name + arity with every ambiguity
//! recorded explicitly (see `DESIGN.md` §14).

use crate::lexer::{Lexed, Tok, TokKind};

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index of the file in the [`crate::SourceTree`].
    pub file: usize,
    pub name: String,
    /// Enclosing `impl` type name, if inside an `impl` block.
    pub impl_type: Option<String>,
    /// True if the first parameter is (some form of) `self`.
    pub has_self: bool,
    /// Parameter count excluding `self`.
    pub arity: usize,
    /// Carries any `pub` / `pub(crate)` / `pub(super)` marker.
    pub is_pub: bool,
    pub line: usize,
    /// Token index range of the body (exclusive of the outer braces).
    /// Empty for body-less trait method declarations.
    pub body: std::ops::Range<usize>,
    /// True if the item sits at/after the file's `#[cfg(test)]` marker.
    pub is_test: bool,
}

impl FnItem {
    /// `Type::name` or bare `name`, for reports.
    pub fn display(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Shape of a call site's receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `foo(...)` with no path or receiver.
    Bare,
    /// `qual::foo(...)` — `qual` is the immediately preceding path segment
    /// (a type for associated fns, a module for free fns).
    Qualified(String),
    /// `self.foo(...)` — method on the enclosing impl type.
    SelfMethod,
    /// `expr.foo(...)` — method with an arbitrary receiver expression.
    Method,
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the calling [`FnItem`] in the parsed file set.
    pub caller: usize,
    pub name: String,
    pub callee: Callee,
    /// Argument count (excluding any method receiver).
    pub arity: usize,
    pub line: usize,
    /// Token index of the callee name within the file's token stream.
    pub tok: usize,
}

/// Parse result for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Indices into the global fn list of fns defined in this file.
    pub fns: Vec<usize>,
}

/// Keywords and constructors that look like `name(` but are not calls.
pub(crate) fn is_call_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "in"
            | "as"
            | "fn"
            | "move"
            | "let"
            | "else"
            | "Some"
            | "None"
            | "Ok"
            | "Err"
            | "box"
            | "dyn"
            | "impl"
            | "where"
            | "use"
            | "mod"
            | "pub"
            | "crate"
            | "super"
            | "ref"
            | "mut"
            | "break"
            | "continue"
    )
}

/// Extract `fn` items from a lexed file. `file` is the tree index; `fns`
/// is the global accumulator (body ranges index into this file's tokens).
pub fn parse_fns(file: usize, lx: &Lexed, tests_from: Option<usize>, fns: &mut Vec<FnItem>) {
    let toks = &lx.tokens;
    // Impl contexts as (type name, brace depth of the impl body).
    let mut impls: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                while impls.last().is_some_and(|(_, d)| *d > depth) {
                    impls.pop();
                }
            }
            "impl" if toks[i].kind == TokKind::Ident => {
                if let Some((ty, open)) = parse_impl_header(toks, i) {
                    impls.push((ty, depth + 1));
                    depth += 1;
                    i = open;
                }
            }
            "fn" if toks[i].kind == TokKind::Ident
                && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) =>
            {
                let name_tok = i + 1;
                let name = toks[name_tok].text.clone();
                let line = toks[name_tok].line;
                let is_pub = has_pub_before(toks, i);
                // Skip generics between name and `(`.
                let mut j = name_tok + 1;
                if toks.get(j).is_some_and(|t| t.text == "<") {
                    j = skip_angles(toks, j);
                }
                if toks.get(j).is_none_or(|t| t.text != "(") {
                    i += 1;
                    continue;
                }
                let (arity, has_self, params_end) = count_params(toks, j);
                // Scan to the body `{` or a `;` (trait declaration).
                let mut k = params_end;
                let mut body = 0..0;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "{" => {
                            let close = matching_brace(toks, k);
                            body = (k + 1)..close;
                            break;
                        }
                        ";" => break,
                        "<" => k = skip_angles(toks, k),
                        _ => k += 1,
                    }
                }
                fns.push(FnItem {
                    file,
                    name,
                    impl_type: impls.last().map(|(t, _)| t.clone()),
                    has_self,
                    arity,
                    is_pub,
                    line,
                    body,
                    is_test: tests_from.is_some_and(|t| line >= t),
                });
                i = name_tok;
            }
            _ => {}
        }
        i += 1;
    }
}

/// Parse an `impl` header starting at token `i` (`impl`); returns the type
/// name and the index of the opening body brace.
fn parse_impl_header(toks: &[Tok], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.text == "<") {
        j = skip_angles(toks, j);
    }
    let mut after_for: Option<usize> = None;
    let start = j;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => {
                // The implemented type: last path segment after `for` if
                // present (`impl Trait for Type`), else after `impl`.
                let seg_start = after_for.unwrap_or(start);
                let ty = last_path_segment(toks, seg_start, j)?;
                return Some((ty, j));
            }
            ";" => return None,
            "for" => after_for = Some(j + 1),
            "<" => j = skip_angles(toks, j),
            _ => {}
        }
        j += 1;
    }
    None
}

/// Last identifier of the leading path in `toks[start..end]` (e.g.
/// `crate :: msg :: GetResp < 'a >` -> `GetResp`).
fn last_path_segment(toks: &[Tok], start: usize, end: usize) -> Option<String> {
    let mut last = None;
    let mut j = start;
    while j < end {
        let t = &toks[j];
        if t.kind == TokKind::Ident {
            if t.text == "for" || t.text == "where" {
                break;
            }
            last = Some(t.text.clone());
            j += 1;
        } else if t.text == ":" {
            j += 1;
        } else if t.text == "<" {
            break;
        } else if t.text == "&" || t.text == "(" {
            // `impl Trait for &Type` / tuple impls: keep scanning.
            j += 1;
        } else {
            break;
        }
    }
    last
}

/// Skip a balanced `< ... >` region starting at the `<` token; returns the
/// index just past the matching `>`. Lifetimes are separate tokens so only
/// `<` / `>` puncts count.
fn skip_angles(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            // `(`/`{` inside generics (const generics) — bail out rather
            // than mis-skip; the caller degrades gracefully.
            "(" | "{" | ";" => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Token index of the delimiter closing the `{`, `(` or `[` at `open`.
pub(crate) fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// True if a `pub` marker directly precedes the `fn` keyword at `fn_idx`
/// (allowing `pub(crate)`, `pub(super)`, `pub(in path)`, and the
/// `unsafe` / `const` / `extern "C"` qualifiers in between).
fn has_pub_before(toks: &[Tok], fn_idx: usize) -> bool {
    let mut j = fn_idx;
    let mut steps = 0;
    while j > 0 && steps < 8 {
        j -= 1;
        steps += 1;
        match toks[j].text.as_str() {
            "pub" => return true,
            "unsafe" | "const" | "extern" | ")" | "(" | "crate" | "super" | "in" => continue,
            _ => {
                if toks[j].kind == TokKind::Str {
                    continue; // extern "C"
                }
                return false;
            }
        }
    }
    false
}

/// Count parameters of the list opening at `open` (a `(`). Returns
/// (arity excluding self, has_self, index past the closing `)`).
fn count_params(toks: &[Tok], open: usize) -> (usize, bool, usize) {
    let mut depth = 0usize;
    let mut j = open;
    let mut commas = 0usize;
    let mut content = false;
    let mut last_was_comma = false;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "<" if depth == 1 => {
                // Generic args in a param type: skip so their commas
                // (`HashMap<K, V>`) don't count as parameter separators.
                let next = skip_angles(toks, j);
                if next > j {
                    j = next;
                    content = true;
                    last_was_comma = false;
                    continue;
                }
            }
            "," if depth == 1 => {
                commas += 1;
                last_was_comma = true;
                j += 1;
                continue;
            }
            _ => content = true,
        }
        if toks[j].text != "(" || depth != 1 {
            last_was_comma = false;
        }
        j += 1;
    }
    let close = j;
    if !content {
        return (0, false, close + 1);
    }
    let mut params = commas + 1;
    if last_was_comma {
        params -= 1; // trailing comma
    }
    // Self detection: first tokens inside are `self` / `& self` /
    // `& mut self` / `& 'a mut self` / `mut self`.
    let mut k = open + 1;
    while toks
        .get(k)
        .is_some_and(|t| t.text == "&" || t.text == "mut" || t.kind == TokKind::Lifetime)
    {
        k += 1;
    }
    let has_self = toks.get(k).is_some_and(|t| t.text == "self");
    let arity = if has_self { params.saturating_sub(1) } else { params };
    (arity, has_self, close + 1)
}

/// Count arguments of a call whose `(` is at `open`. Commas inside nested
/// delimiters do not count, and commas inside closure parameter pipes
/// (`|a, b|`) are skipped so `fold(0, |acc, x| ...)` reads as two args.
pub fn count_args(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    let mut commas = 0usize;
    let mut content = false;
    let mut last_was_comma = false;
    let mut prev_text = String::new();
    while j < toks.len() {
        let text = toks[j].text.as_str();
        match text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => {
                commas += 1;
                last_was_comma = true;
                prev_text = text.to_string();
                j += 1;
                continue;
            }
            "|" if depth == 1 && matches!(prev_text.as_str(), "(" | "," | "move" | "=" | "") => {
                // Closure parameter list: skip to the matching `|`,
                // ignoring its commas. Nested delimiters inside patterns
                // (`|(k, v)|`) keep their own balance.
                content = true;
                let mut d = 0usize;
                let mut k = j + 1;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "(" | "[" | "<" => d += 1,
                        ")" | "]" | ">" => d = d.saturating_sub(1),
                        "|" if d == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                prev_text = "|".to_string();
                j = k + 1;
                last_was_comma = false;
                continue;
            }
            _ => content = true,
        }
        if !(text == "(" && depth == 1) {
            last_was_comma = false;
        }
        prev_text = text.to_string();
        j += 1;
    }
    if !content {
        return 0;
    }
    let mut args = commas + 1;
    if last_was_comma {
        args -= 1;
    }
    args
}

/// Extract call sites from the body of `fns[f]`. `toks` is the owning
/// file's token stream. Calls inside nested fn bodies are attributed to
/// the innermost fn, so pass the full per-file fn list for containment
/// checks.
pub fn extract_calls(
    f: usize,
    fns: &[FnItem],
    file_fns: &[usize],
    toks: &[Tok],
    out: &mut Vec<CallSite>,
) {
    let body = fns[f].body.clone();
    'toks: for i in body.clone() {
        if toks[i].kind != TokKind::Ident || toks.get(i + 1).is_none_or(|t| t.text != "(") {
            continue;
        }
        let name = toks[i].text.as_str();
        if is_call_keyword(name) {
            continue;
        }
        if i > 0 && toks[i - 1].text == "fn" {
            continue; // definition, not a call
        }
        // Innermost-fn attribution: skip if another fn's body in this file
        // contains the token and is nested inside ours.
        for &other in file_fns {
            if other != f
                && fns[other].body.contains(&i)
                && fns[other].body.start > body.start
                && fns[other].body.end < body.end
            {
                continue 'toks;
            }
        }
        let callee = if i > 0 && toks[i - 1].text == "." {
            if i >= 2 && toks[i - 2].text == "self" && (i < 3 || toks[i - 3].text != ".") {
                Callee::SelfMethod
            } else {
                Callee::Method
            }
        } else if i >= 2 && toks[i - 1].text == ":" && toks[i - 2].text == ":" {
            match toks.get(i.wrapping_sub(3)) {
                Some(q) if q.kind == TokKind::Ident => Callee::Qualified(q.text.clone()),
                _ => Callee::Bare,
            }
        } else {
            Callee::Bare
        };
        out.push(CallSite {
            caller: f,
            name: name.to_string(),
            callee,
            arity: count_args(toks, i + 1),
            line: toks[i].line,
            tok: i,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> (Vec<FnItem>, Vec<CallSite>) {
        let lx = lex(src);
        let mut fns = Vec::new();
        parse_fns(0, &lx, None, &mut fns);
        let file_fns: Vec<usize> = (0..fns.len()).collect();
        let mut calls = Vec::new();
        for f in 0..fns.len() {
            extract_calls(f, &fns, &file_fns, &lx.tokens, &mut calls);
        }
        (fns, calls)
    }

    #[test]
    fn fn_items_with_impl_context_and_arity() {
        let src = r#"
            pub struct Table;
            impl Table {
                pub fn new(cap: usize) -> Self { Table }
                fn get(&self, key: &[u8]) -> Option<u32> { None }
                pub(crate) fn put(&mut self, key: Vec<u8>, val: Vec<u8>) {}
            }
            impl Default for Table {
                fn default() -> Self { Table::new(0) }
            }
            fn free_helper(a: u32, b: u32, c: u32) -> u32 { a + b + c }
        "#;
        let (fns, calls) = parse_src(src);
        let names: Vec<_> = fns.iter().map(|f| f.display()).collect();
        assert_eq!(
            names,
            vec!["Table::new", "Table::get", "Table::put", "Table::default", "free_helper"]
        );
        assert_eq!(fns[0].arity, 1);
        assert!(!fns[0].has_self);
        assert!(fns[0].is_pub);
        assert_eq!(fns[1].arity, 1);
        assert!(fns[1].has_self);
        assert!(!fns[1].is_pub);
        assert_eq!(fns[2].arity, 2);
        assert!(fns[2].is_pub);
        assert_eq!(fns[4].arity, 3);
        // The default() body calls Table::new with one argument.
        let call = calls.iter().find(|c| c.name == "new").expect("call to new");
        assert_eq!(call.callee, Callee::Qualified("Table".into()));
        assert_eq!(call.arity, 1);
    }

    #[test]
    fn closure_commas_do_not_inflate_arity() {
        let src = r#"
            fn caller(v: Vec<(u32, u32)>) {
                consume(v.iter().fold(0, |acc, x| acc + x.0));
                transform(v, |(k, val)| k + val);
                spawn(move || step());
            }
        "#;
        let (_, calls) = parse_src(src);
        let arity = |n: &str| calls.iter().find(|c| c.name == n).map(|c| c.arity);
        assert_eq!(arity("fold"), Some(2));
        assert_eq!(arity("transform"), Some(2));
        assert_eq!(arity("spawn"), Some(1));
        assert_eq!(arity("step"), Some(0));
    }

    #[test]
    fn generic_params_do_not_split() {
        let src = "fn f(m: HashMap<String, u32>, n: usize) {}";
        let (fns, _) = parse_src(src);
        assert_eq!(fns[0].arity, 2);
    }

    #[test]
    fn self_receivers_and_qualifiers_classified() {
        let src = r#"
            impl Db {
                fn run(&self) {
                    self.step(1);
                    self.inner.deep_step(2);
                    msg::encode(3, 4);
                    helper();
                }
            }
        "#;
        let (_, calls) = parse_src(src);
        let shape = |n: &str| calls.iter().find(|c| c.name == n).map(|c| c.callee.clone());
        assert_eq!(shape("step"), Some(Callee::SelfMethod));
        assert_eq!(shape("deep_step"), Some(Callee::Method));
        assert_eq!(shape("encode"), Some(Callee::Qualified("msg".into())));
        assert_eq!(shape("helper"), Some(Callee::Bare));
    }

    #[test]
    fn nested_fns_get_innermost_attribution() {
        let src = r#"
            fn outer() {
                fn inner() { deep_call(); }
                outer_call();
            }
        "#;
        let (fns, calls) = parse_src(src);
        assert_eq!(fns.len(), 2);
        let deep = calls.iter().find(|c| c.name == "deep_call").expect("deep_call");
        assert_eq!(fns[deep.caller].name, "inner");
        let outer = calls.iter().find(|c| c.name == "outer_call").expect("outer_call");
        assert_eq!(fns[outer.caller].name, "outer");
    }

    #[test]
    fn trait_decls_without_bodies_are_kept_bodyless() {
        let src = r#"
            trait Backend {
                fn get(&self, path: &str) -> Option<u32>;
                fn put(&self, path: &str, data: u32) { default_put(path, data) }
            }
        "#;
        let (fns, _) = parse_src(src);
        assert_eq!(fns.len(), 2);
        assert!(fns[0].body.is_empty());
        assert!(!fns[1].body.is_empty());
    }
}
