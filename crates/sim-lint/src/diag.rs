//! Diagnostic types shared by the rule matchers and the CLI.

use std::fmt;

/// How strongly a finding gates the build.
///
/// `Error` always fails the run; `Warning` fails it under `--deny warnings`
/// (the CI configuration); `Info` is advisory output only and never gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The rule families sim-lint enforces. The first four are token-level
/// rules; the four flow rules operate on the cross-file event-protocol
/// graph built by [`crate::flow`]; the three dataflow rules
/// (`seed-taint`, `dead-config`, `panic-reach`) run over the workspace
/// call graph and taint engine ([`crate::callgraph`],
/// [`crate::dataflow`]). `Directive` covers problems with suppression
/// comments themselves (malformed, missing reason, unused) and is not
/// itself suppressible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    Nondet,
    Panic,
    Hygiene,
    Event,
    DeadEvent,
    UnhandledEvent,
    MultiDispatch,
    TaxonomyWiring,
    SeedTaint,
    DeadConfig,
    PanicReach,
    Directive,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::Nondet => "nondet",
            Rule::Panic => "panic",
            Rule::Hygiene => "hygiene",
            Rule::Event => "event",
            Rule::DeadEvent => "dead-event",
            Rule::UnhandledEvent => "unhandled-event",
            Rule::MultiDispatch => "multi-dispatch",
            Rule::TaxonomyWiring => "taxonomy-wiring",
            Rule::SeedTaint => "seed-taint",
            Rule::DeadConfig => "dead-config",
            Rule::PanicReach => "panic-reach",
            Rule::Directive => "directive",
        }
    }

    /// Parse a rule name as written in an `allow(...)` directive. The
    /// `directive` rule is deliberately not parseable: suppressing the
    /// suppression checker would defeat the reason requirement.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "nondet" => Some(Rule::Nondet),
            "panic" => Some(Rule::Panic),
            "hygiene" => Some(Rule::Hygiene),
            "event" => Some(Rule::Event),
            "dead-event" => Some(Rule::DeadEvent),
            "unhandled-event" => Some(Rule::UnhandledEvent),
            "multi-dispatch" => Some(Rule::MultiDispatch),
            "taxonomy-wiring" => Some(Rule::TaxonomyWiring),
            "seed-taint" => Some(Rule::SeedTaint),
            "dead-config" => Some(Rule::DeadConfig),
            "panic-reach" => Some(Rule::PanicReach),
            _ => None,
        }
    }
}

/// One row of the `--list-rules` table.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    pub rule: Rule,
    /// Default severity of the rule's findings (nondet's raw-pointer
    /// variant and directive's unused-allow variant downgrade to warning).
    pub severity: Severity,
    /// Which analysis layer produces it: `token`, `flow`, `dataflow`, or
    /// `directive`.
    pub layer: &'static str,
    pub summary: &'static str,
}

/// Every rule with its default severity, layer and one-line summary, in
/// `Rule` declaration order — the canonical reference `--list-rules`
/// renders and suppression reasons should cite.
#[must_use]
pub fn rule_metas() -> Vec<RuleMeta> {
    use Severity::{Error, Warning};
    vec![
        RuleMeta {
            rule: Rule::Nondet,
            severity: Error,
            layer: "token",
            summary: "no hash-ordered containers, wall-clock time, thread identity or \
                      raw-pointer values in simulation state",
        },
        RuleMeta {
            rule: Rule::Panic,
            severity: Warning,
            layer: "token",
            summary: "unwrap/expect/panic! in library code needs a documented invariant",
        },
        RuleMeta {
            rule: Rule::Hygiene,
            severity: Warning,
            layer: "token",
            summary: "asserts on simulation paths must use the check-gated idiom",
        },
        RuleMeta {
            rule: Rule::Event,
            severity: Error,
            layer: "token",
            summary: "raw .schedule( is engine-only; .pop_batch(/.rescind_delivered( \
                      belong to the central dispatch loop",
        },
        RuleMeta {
            rule: Rule::DeadEvent,
            severity: Error,
            layer: "flow",
            summary: "an Event variant no schedule* call constructs",
        },
        RuleMeta {
            rule: Rule::UnhandledEvent,
            severity: Error,
            layer: "flow",
            summary: "an Event variant with no dispatch arm",
        },
        RuleMeta {
            rule: Rule::MultiDispatch,
            severity: Error,
            layer: "flow",
            summary: "an Event variant consumed by more than one match block",
        },
        RuleMeta {
            rule: Rule::TaxonomyWiring,
            severity: Error,
            layer: "flow",
            summary: "every Resolution variant wired through obs, core and sim-check",
        },
        RuleMeta {
            rule: Rule::SeedTaint,
            severity: Error,
            layer: "dataflow",
            summary: "every RNG stream seeded transitively from the master seed, and \
                      no two streams in a crate from the same expression",
        },
        RuleMeta {
            rule: Rule::DeadConfig,
            severity: Error,
            layer: "dataflow",
            summary: "every *Config field read somewhere outside dead feature gates",
        },
        RuleMeta {
            rule: Rule::PanicReach,
            severity: Error,
            layer: "dataflow",
            summary: "panic sites reachable from the dispatch hot loop (upgraded from \
                      the panic rule via the call graph)",
        },
        RuleMeta {
            rule: Rule::Directive,
            severity: Error,
            layer: "directive",
            summary: "malformed/unreasoned/unused allow directives (not suppressible)",
        },
    ]
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, addressed to a file and 1-based line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub rule: Rule,
    pub severity: Severity,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}] {}",
            self.file, self.line, self.severity, self.rule, self.message
        )
    }
}

/// Append `s` to `out` as a JSON string literal (RFC 8259 escaping).
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Call-graph counts for the JSON document header.
#[derive(Debug, Clone, Copy)]
pub struct GraphSummary {
    pub functions: usize,
    pub edges: usize,
    pub roots: usize,
    pub hot: usize,
}

/// Machine-readable diagnostics document for `--format json`: a stable
/// schema CI tooling can parse without depending on sim-lint's output
/// wording. Version 2 added the `callgraph` summary block; version 3
/// added a `par` block, which version 4 drops again. The writer is
/// hand-rolled so the tool itself stays dependency-free; the output is
/// verified to round-trip through the workspace's `serde_json` in
/// `tests/json_roundtrip.rs`.
#[must_use]
pub fn to_json(diags: &[Diagnostic], graph: Option<&GraphSummary>) -> String {
    use fmt::Write as _;
    let (errors, warnings, infos) = crate::tally(diags);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"version\":4,\"summary\":{{\"errors\":{errors},\"warnings\":{warnings},\
         \"infos\":{infos}}},"
    );
    if let Some(g) = graph {
        let _ = write!(
            out,
            "\"callgraph\":{{\"functions\":{},\"edges\":{},\"roots\":{},\"hot\":{}}},",
            g.functions, g.edges, g.roots, g.hot
        );
    }
    out.push_str("\"diagnostics\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"file\":");
        push_json_str(&mut out, &d.file);
        let _ = write!(out, ",\"line\":{}", d.line);
        out.push_str(",\"rule\":");
        push_json_str(&mut out, d.rule.name());
        out.push_str(",\"severity\":");
        push_json_str(&mut out, &d.severity.to_string());
        out.push_str(",\"message\":");
        push_json_str(&mut out, &d.message);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Percent-escape the characters GitHub workflow commands treat as
/// message terminators.
fn github_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// One GitHub Actions workflow-command annotation per diagnostic
/// (`::error file=...,line=...::message`), so CI failures surface inline
/// on the pull-request diff.
#[must_use]
pub fn to_github_annotations(diags: &[Diagnostic]) -> String {
    use fmt::Write as _;
    let mut out = String::new();
    for d in diags {
        let kind = match d.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "notice",
        };
        let _ = writeln!(
            out,
            "::{kind} file={},line={},title=sim-lint[{}]::{}",
            github_escape(&d.file),
            d.line,
            d.rule,
            github_escape(&d.message)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_counts() {
        let diags = vec![Diagnostic {
            file: "a \"b\"\\c.rs".to_string(),
            line: 7,
            rule: Rule::DeadEvent,
            severity: Severity::Error,
            message: "line1\nline2\ttab".to_string(),
        }];
        let json = to_json(&diags, None);
        assert!(json.contains("\"version\":4"));
        assert!(json.contains("\"errors\":1"));
        assert!(json.contains("\"rule\":\"dead-event\""));
        assert!(json.contains("a \\\"b\\\"\\\\c.rs"));
        assert!(json.contains("line1\\nline2\\ttab"));
        assert!(!json.contains("callgraph"));
    }

    #[test]
    fn json_includes_callgraph_summary_when_present() {
        let g = GraphSummary {
            functions: 10,
            edges: 20,
            roots: 2,
            hot: 7,
        };
        let json = to_json(&[], Some(&g));
        assert!(
            json.contains("\"callgraph\":{\"functions\":10,\"edges\":20,\"roots\":2,\"hot\":7}")
        );
    }

    #[test]
    fn github_annotations_escape_newlines() {
        let diags = vec![Diagnostic {
            file: "x.rs".to_string(),
            line: 3,
            rule: Rule::Nondet,
            severity: Severity::Warning,
            message: "a%b\nc".to_string(),
        }];
        let ann = to_github_annotations(&diags);
        assert_eq!(
            ann,
            "::warning file=x.rs,line=3,title=sim-lint[nondet]::a%25b%0Ac\n"
        );
    }

    #[test]
    fn flow_rule_names_roundtrip() {
        for r in [
            Rule::DeadEvent,
            Rule::UnhandledEvent,
            Rule::MultiDispatch,
            Rule::TaxonomyWiring,
            Rule::SeedTaint,
            Rule::DeadConfig,
            Rule::PanicReach,
        ] {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
        assert_eq!(Rule::from_name("directive"), None);
    }

    #[test]
    fn rule_metas_cover_every_rule_exactly_once() {
        let metas = rule_metas();
        let all = [
            Rule::Nondet,
            Rule::Panic,
            Rule::Hygiene,
            Rule::Event,
            Rule::DeadEvent,
            Rule::UnhandledEvent,
            Rule::MultiDispatch,
            Rule::TaxonomyWiring,
            Rule::SeedTaint,
            Rule::DeadConfig,
            Rule::PanicReach,
            Rule::Directive,
        ];
        assert_eq!(metas.len(), all.len());
        for (m, r) in metas.iter().zip(all) {
            assert_eq!(m.rule, r, "metas must stay in Rule declaration order");
        }
    }
}
