//! The `--format json` document is hand-written (sim-lint is
//! dependency-free); these tests prove it parses with the workspace's
//! `serde_json` and preserves every field — including hostile strings.

use serde::Value;
use sim_lint::diag::{to_json, Diagnostic, GraphSummary, Rule, Severity};

fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
    obj.as_object()
        .unwrap_or_else(|| panic!("expected object, got {obj:?}"))
        .iter()
        .find(|(k, _)| k == key)
        .map_or_else(|| panic!("missing key {key}"), |(_, v)| v)
}

fn sample() -> Vec<Diagnostic> {
    vec![
        Diagnostic {
            file: "crates/core/src/system/mod.rs".to_string(),
            line: 199,
            rule: Rule::DeadEvent,
            severity: Severity::Error,
            message: "dead event: `Event::Ghost` is never produced".to_string(),
        },
        Diagnostic {
            file: "weird \"path\"\\with\nnasties.rs".to_string(),
            line: 7,
            rule: Rule::TaxonomyWiring,
            severity: Severity::Warning,
            message: "tab\there, control\u{1} char, quote \" and backslash \\".to_string(),
        },
        Diagnostic {
            file: "x.rs".to_string(),
            line: 1,
            rule: Rule::Hygiene,
            severity: Severity::Info,
            message: String::new(),
        },
    ]
}

#[test]
fn json_output_roundtrips_through_serde_json() {
    let diags = sample();
    let json = to_json(&diags, None);
    let v: Value = serde_json::from_str(&json).expect("emitter output must be valid JSON");

    assert_eq!(field(&v, "version"), &Value::U64(4));
    let summary = field(&v, "summary");
    assert_eq!(field(summary, "errors"), &Value::U64(1));
    assert_eq!(field(summary, "warnings"), &Value::U64(1));
    assert_eq!(field(summary, "infos"), &Value::U64(1));

    let items = field(&v, "diagnostics")
        .as_array()
        .expect("diagnostics is an array");
    assert_eq!(items.len(), diags.len());
    for (item, d) in items.iter().zip(&diags) {
        assert_eq!(field(item, "file"), &Value::Str(d.file.clone()));
        assert_eq!(field(item, "line"), &Value::U64(u64::from(d.line)));
        assert_eq!(field(item, "rule"), &Value::Str(d.rule.name().to_string()));
        assert_eq!(field(item, "severity"), &Value::Str(d.severity.to_string()));
        assert_eq!(field(item, "message"), &Value::Str(d.message.clone()));
    }
}

#[test]
fn empty_diagnostics_is_still_a_valid_document() {
    let v: Value = serde_json::from_str(&to_json(&[], None)).expect("valid JSON");
    let summary = field(&v, "summary");
    assert_eq!(field(summary, "errors"), &Value::U64(0));
    assert!(field(&v, "diagnostics")
        .as_array()
        .is_some_and(Vec::is_empty));
}

#[test]
fn callgraph_summary_block_parses_when_present() {
    let g = GraphSummary {
        functions: 12,
        edges: 34,
        roots: 2,
        hot: 9,
    };
    let v: Value = serde_json::from_str(&to_json(&[], Some(&g))).expect("valid JSON");
    let cg = field(&v, "callgraph");
    assert_eq!(field(cg, "functions"), &Value::U64(12));
    assert_eq!(field(cg, "edges"), &Value::U64(34));
    assert_eq!(field(cg, "roots"), &Value::U64(2));
    assert_eq!(field(cg, "hot"), &Value::U64(9));
}

#[test]
fn workspace_json_document_parses() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let diags = sim_lint::lint_workspace(root).expect("workspace walk succeeds");
    let v: Value = serde_json::from_str(&to_json(&diags, None)).expect("valid JSON");
    let items = field(&v, "diagnostics").as_array().expect("array");
    assert_eq!(items.len(), diags.len());
}
