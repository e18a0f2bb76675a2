//! Finding type and output renderers (human, JSON, SARIF).

/// One lint finding. `trace` is empty for file-local token rules; the
/// interprocedural analyses fill it with the call path that makes the
/// finding reachable (entry point first, flagged function last).
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub text: String,
    pub trace: Vec<String>,
}

impl Finding {
    pub fn render(&self) -> String {
        let mut out = format!("{}:{}: [{}] {}", self.path, self.line, self.rule, self.text.trim());
        if !self.trace.is_empty() {
            out.push_str("\n    via: ");
            out.push_str(&self.trace.join(" -> "));
        }
        out
    }

    fn json(&self) -> String {
        let mut out = format!(
            r#"{{"rule":{},"file":{},"line":{},"snippet":{}"#,
            json_str(self.rule),
            json_str(&self.path),
            self.line,
            json_str(self.text.trim())
        );
        if !self.trace.is_empty() {
            out.push_str(",\"trace\":[");
            for (i, hop) in self.trace.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(hop));
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// Render findings as a JSON array (machine-readable `--format json`).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str("  ");
        out.push_str(&f.json());
    }
    out.push_str(if findings.is_empty() { "]" } else { "\n]" });
    out
}

/// Render findings as a minimal SARIF 2.1.0 log (one run, one result per
/// finding) so CI can upload the pass as a code-scanning artifact. The call
/// trace, when present, is appended to the message text — SARIF codeFlows
/// buy nothing for a grep-able artifact.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    let mut out = String::from(
        "{\n  \"version\": \"2.1.0\",\n  \
         \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"runs\": [{\n    \"tool\": {\"driver\": {\"name\": \"papyrus-lint\", \"rules\": [",
    );
    for (i, r) in rules.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{{\"id\": {}}}", json_str(r)));
    }
    out.push_str("]}},\n    \"results\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut message = f.text.trim().to_string();
        if !f.trace.is_empty() {
            message.push_str(" [via: ");
            message.push_str(&f.trace.join(" -> "));
            message.push(']');
        }
        out.push_str(&format!(
            "\n      {{\"ruleId\": {}, \"level\": \"error\", \"message\": {{\"text\": {}}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}",
            json_str(f.rule),
            json_str(&message),
            json_str(&f.path),
            f.line
        ));
    }
    out.push_str(if findings.is_empty() { "]\n  }]\n}" } else { "\n    ]\n  }]\n}" });
    out
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_format_is_stable() {
        let findings = vec![Finding {
            rule: "std-sync-lock",
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            text: "    use std::sync::Mutex; // \"quoted\"".into(),
            trace: vec![],
        }];
        assert_eq!(
            render_json(&findings),
            "[\n  {\"rule\":\"std-sync-lock\",\"file\":\"crates/x/src/lib.rs\",\"line\":3,\
             \"snippet\":\"use std::sync::Mutex; // \\\"quoted\\\"\"}\n]"
        );
        assert_eq!(render_json(&[]), "[]");
    }

    #[test]
    fn json_includes_trace_when_present() {
        let findings = vec![Finding {
            rule: "panic-path",
            path: "crates/x/src/lib.rs".into(),
            line: 9,
            text: "x.unwrap()".into(),
            trace: vec!["entry (a.rs:1)".into(), "inner (b.rs:2)".into()],
        }];
        let json = render_json(&findings);
        assert!(json.contains("\"trace\":[\"entry (a.rs:1)\",\"inner (b.rs:2)\"]"), "{json}");
    }

    #[test]
    fn sarif_has_schema_rules_and_locations() {
        let findings = vec![Finding {
            rule: "panic-path",
            path: "crates/core/src/db.rs".into(),
            line: 42,
            text: "x.unwrap()".into(),
            trace: vec!["f (db.rs:40)".into()],
        }];
        let sarif = render_sarif(&findings);
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"name\": \"papyrus-lint\""));
        assert!(sarif.contains("\"id\": \"panic-path\""));
        assert!(sarif.contains("\"uri\": \"crates/core/src/db.rs\""));
        assert!(sarif.contains("\"startLine\": 42"));
        assert!(sarif.contains("[via: f (db.rs:40)]"));
        // Empty log is still well-formed.
        assert!(render_sarif(&[]).contains("\"results\": []"));
    }
}
