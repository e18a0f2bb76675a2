//! Minimal Rust lexer for the lint pass.
//!
//! The previous lint generation matched regex-ish substrings against raw
//! source lines, which meant a banned pattern inside a string literal or a
//! comment tripped the rule (and a justification comment could silence a
//! *different* line's finding). This lexer splits a source file into real
//! tokens — identifiers, punctuation, literals — and a separate comment
//! stream, so rules match against code shapes (`std :: sync :: Mutex`) and
//! look up justifications (`// ordering:`, `// SAFETY:`) in comments by
//! line, never confusing the two.
//!
//! It is deliberately not a full parser: no expression trees, no macro
//! expansion. Token-sequence matching over a comment-free stream is enough
//! for every rule the repo enforces, and keeps the linter dependency-free
//! (the container has no registry access, so vendoring `syn` is not an
//! option).

/// Token classes the lint rules distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`std`, `unsafe`, `Ordering`, ...).
    Ident,
    /// One punctuation character (`:`, `{`, `.`, ...). Multi-char operators
    /// arrive as consecutive tokens; rules match `:` `:` for `::`.
    Punct,
    /// String / raw-string / byte-string literal (contents opaque).
    Str,
    /// Character literal.
    Char,
    /// Lifetime (`'a`) — distinct from `Char` so `'a` never eats code.
    Lifetime,
    /// Numeric literal.
    Num,
}

/// One code token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
}

/// One comment with its 1-based starting line. Block comments keep their
/// full text; `text` includes the delimiters.
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub line: usize,
}

/// Lexed file: code tokens and comments, both in source order.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Tok>,
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// All comments that start on `line`.
    pub fn comments_on(&self, line: usize) -> impl Iterator<Item = &Comment> {
        self.comments.iter().filter(move |c| c.line == line)
    }
}

/// Lex `source`. Unterminated literals degrade gracefully: the rest of the
/// file becomes one literal token, which can only *suppress* findings in
/// already-broken code that rustc will reject anyway.
pub fn lex(source: &str) -> Lexed {
    let b = source.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment { text: source[start..i].to_string(), line });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment { text: source[start..i].to_string(), line: start_line });
            }
            b'"' => {
                let (end, nl) = scan_string(b, i + 1, 0);
                out.tokens.push(Tok { kind: TokKind::Str, text: String::new(), line });
                line += nl;
                i = end;
            }
            b'r' | b'b' if raw_or_byte_string(b, i).is_some() => {
                // r"..", r#".."#, b"..", br".." etc.
                let (body_start, hashes) = raw_or_byte_string(b, i).expect("checked above");
                let (end, nl) = if hashes == usize::MAX {
                    scan_string(b, body_start, 0)
                } else {
                    scan_raw_string(b, body_start, hashes)
                };
                out.tokens.push(Tok { kind: TokKind::Str, text: String::new(), line });
                line += nl;
                i = end;
            }
            b'\'' => {
                // Lifetime vs char literal: a lifetime is `'ident` NOT
                // followed by a closing quote.
                let mut j = i + 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                if j > i + 1 && b.get(j) != Some(&b'\'') {
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        text: source[i..j].to_string(),
                        line,
                    });
                    i = j;
                } else {
                    // Char literal: skip escapes; cannot span lines.
                    let mut j = i + 1;
                    while j < b.len() && b[j] != b'\'' && b[j] != b'\n' {
                        if b[j] == b'\\' {
                            j += 1;
                        }
                        j += 1;
                    }
                    out.tokens.push(Tok { kind: TokKind::Char, text: String::new(), line });
                    i = (j + 1).min(b.len());
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: source[start..i].to_string(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                // After a `.` the digits are a tuple field (`self.0.store`):
                // they end at the first non-digit. Elsewhere a `.` belongs
                // to the literal only before a digit (`1.5`), so a field or
                // method named after it (`h.0.fabric.recv(..)`, `1.max(2)`)
                // stays a token of its own and keeps its call site.
                let tuple_field = out.tokens.last().is_some_and(|t| t.text == ".");
                let in_literal = |i: usize| match b[i] {
                    c if c.is_ascii_digit() => true,
                    _ if tuple_field => false,
                    b'.' => b.get(i + 1).is_some_and(u8::is_ascii_digit),
                    c => c.is_ascii_alphanumeric() || c == b'_',
                };
                while i < b.len() && in_literal(i) {
                    i += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Num,
                    text: source[start..i].to_string(),
                    line,
                });
            }
            _ => {
                out.tokens.push(Tok { kind: TokKind::Punct, text: (c as char).to_string(), line });
                i += 1;
            }
        }
    }
    out
}

/// Scan a (cooked) string body from `i` (past the opening quote); returns
/// (index past closing quote, newline count). `_hashes` unused for cooked.
fn scan_string(b: &[u8], mut i: usize, _hashes: usize) -> (usize, usize) {
    let mut nl = 0;
    while i < b.len() {
        match b[i] {
            // An escape skips the next byte — which may be the newline of a
            // `\`-line-continuation, still a real source line.
            b'\\' => {
                if b.get(i + 1) == Some(&b'\n') {
                    nl += 1;
                }
                i += 2;
            }
            b'\n' => {
                nl += 1;
                i += 1;
            }
            b'"' => return (i + 1, nl),
            _ => i += 1,
        }
    }
    (i, nl)
}

/// Scan a raw-string body from `i`; closing delimiter is `"` + `hashes`
/// `#`s. Returns (index past delimiter, newline count).
fn scan_raw_string(b: &[u8], mut i: usize, hashes: usize) -> (usize, usize) {
    let mut nl = 0;
    while i < b.len() {
        if b[i] == b'\n' {
            nl += 1;
            i += 1;
        } else if b[i] == b'"'
            && b[i + 1..].iter().take(hashes).filter(|&&c| c == b'#').count() == hashes
        {
            return (i + 1 + hashes, nl);
        } else {
            i += 1;
        }
    }
    (i, nl)
}

/// If position `i` starts a raw/byte string (`r"`, `r#"`, `b"`, `br#"` ...),
/// return `(body_start, hashes)`; `hashes == usize::MAX` means a cooked
/// byte string (`b"`), which scans like a normal string.
fn raw_or_byte_string(b: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    let mut saw_b = false;
    let mut saw_r = false;
    if b[j] == b'b' {
        saw_b = true;
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        saw_r = true;
        j += 1;
    }
    if !saw_b && !saw_r {
        return None;
    }
    if saw_r {
        let mut hashes = 0;
        while j < b.len() && b[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j < b.len() && b[j] == b'"' {
            return Some((j + 1, hashes));
        }
        return None;
    }
    // b"..." cooked byte string.
    if j < b.len() && b[j] == b'"' {
        return Some((j + 1, usize::MAX));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn strings_and_comments_produce_no_idents() {
        let src = r##"
            // std::sync::Mutex in a comment
            /* Ordering::Relaxed in a block comment */
            let s = "std::sync::Mutex";
            let r = r#"Ordering::SeqCst"#;
            let b = b"unsafe {";
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"Mutex".to_string()), "{ids:?}");
        assert!(!ids.contains(&"Ordering".to_string()), "{ids:?}");
        assert!(!ids.contains(&"unsafe".to_string()), "{ids:?}");
    }

    #[test]
    fn comments_carry_lines() {
        let src = "let a = 1;\n// ordering: fine\nlet b = 2;";
        let lx = lex(src);
        assert_eq!(lx.comments.len(), 1);
        assert_eq!(lx.comments[0].line, 2);
        assert!(lx.comments[0].text.contains("ordering:"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'y' }";
        let lx = lex(src);
        let lifetimes: Vec<_> = lx.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2, "{lifetimes:?}");
        assert_eq!(lx.tokens.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }

    #[test]
    fn tuple_fields_and_float_literals_do_not_swallow_what_follows() {
        let texts = |src: &str| lex(src).tokens.into_iter().map(|t| t.text).collect::<Vec<_>>();
        assert_eq!(
            texts("self.0.store.read_at(1.5, 0x1f_u8)"),
            ["self", ".", "0", ".", "store", ".", "read_at", "(", "1.5", ",", "0x1f_u8", ")"]
        );
        assert_eq!(texts("t.0.1.go()"), ["t", ".", "0", ".", "1", ".", "go", "(", ")"]);
        assert_eq!(texts("1.max(2)"), ["1", ".", "max", "(", "2", ")"]);
        assert_eq!(texts("0..n"), ["0", ".", ".", "n"]);
    }

    #[test]
    fn multiline_string_advances_line_numbers() {
        let src = "let s = \"a\nb\nc\";\nlet t = 1;";
        let lx = lex(src);
        let t = lx.tokens.iter().find(|t| t.text == "t").expect("t token");
        assert_eq!(t.line, 4);
    }

    #[test]
    fn line_continuation_in_string_advances_line_numbers() {
        // `\` at end of line inside a cooked string: the newline is escaped
        // away from the *value* but is still a source line.
        let src = "let s = \"a \\\n   b\";\nlet t = 1;";
        let lx = lex(src);
        let t = lx.tokens.iter().find(|t| t.text == "t").expect("t token");
        assert_eq!(t.line, 3);
    }

    #[test]
    fn nested_block_comment_terminates() {
        let src = "/* outer /* inner */ still outer */ let x = 1;";
        let lx = lex(src);
        assert!(lx.tokens.iter().any(|t| t.text == "x"));
        assert_eq!(lx.comments.len(), 1);
    }
}
