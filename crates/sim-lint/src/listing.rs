//! `--list-rules` rendering: every rule with its default severity,
//! analysis layer and summary, plus the per-crate policy table and the
//! skipped-crate list — as an aligned human table or as JSON.

use std::fmt::Write as _;

use crate::config;
use crate::diag::{self, rule_metas};
use crate::rules::FilePolicy;

/// The policied rule families in table-column order. The flow and
/// dataflow rules beyond these run wherever their anchor constructs
/// live; `panic-reach` inherits the `panic` column (it is the same
/// findings, upgraded by reachability).
fn policy_cells(p: FilePolicy) -> [(&'static str, bool); 7] {
    [
        ("nondet", p.nondet),
        ("wallclock", p.wallclock),
        ("panic", p.panic),
        ("hygiene", p.hygiene),
        ("event", p.event),
        ("seed-taint", p.seed_taint),
        ("dead-config", p.dead_config),
    ]
}

/// The human-readable listing.
#[must_use]
pub fn render_table() -> String {
    let mut out = String::new();
    out.push_str("RULES\n");
    let _ = writeln!(
        out,
        "  {:<16} {:<8} {:<9} summary",
        "rule", "severity", "layer"
    );
    for m in rule_metas() {
        let _ = writeln!(
            out,
            "  {:<16} {:<8} {:<9} {}",
            m.rule.name(),
            m.severity.to_string(),
            m.layer,
            m.summary
        );
    }
    out.push_str("\nCRATE POLICY (on = rule family applies)\n");
    let header: Vec<&str> = policy_cells(FilePolicy::ALL)
        .iter()
        .map(|(n, _)| *n)
        .collect();
    let _ = write!(out, "  {:<12}", "crate");
    for h in &header {
        let _ = write!(out, " {h:<12}");
    }
    out.push('\n');
    for (name, p) in config::policy_rows() {
        let _ = write!(out, "  {name:<12}");
        for (_, on) in policy_cells(p) {
            let _ = write!(out, " {:<12}", if on { "on" } else { "off" });
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "\nSKIPPED CRATES (never linted)\n  {}",
        config::skipped_crates().join(", ")
    );
    out
}

/// The same listing as a JSON document (`--list-rules --format json`).
#[must_use]
pub fn render_json() -> String {
    let mut out = String::from("{\"version\":4,\"rules\":[");
    for (i, m) in rule_metas().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":");
        diag::push_json_str(&mut out, m.rule.name());
        out.push_str(",\"severity\":");
        diag::push_json_str(&mut out, &m.severity.to_string());
        out.push_str(",\"layer\":");
        diag::push_json_str(&mut out, m.layer);
        out.push_str(",\"summary\":");
        diag::push_json_str(&mut out, m.summary);
        out.push('}');
    }
    out.push_str("],\"policies\":[");
    for (i, (name, p)) in config::policy_rows().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"crate\":");
        diag::push_json_str(&mut out, name);
        for (rule, on) in policy_cells(p) {
            out.push(',');
            diag::push_json_str(&mut out, rule);
            let _ = write!(out, ":{on}");
        }
        out.push('}');
    }
    out.push_str("],\"skipped_crates\":[");
    for (i, c) in config::skipped_crates().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        diag::push_json_str(&mut out, c);
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lists_every_rule_and_crate_row() {
        let t = render_table();
        for m in rule_metas() {
            assert!(t.contains(m.rule.name()), "missing rule {}", m.rule.name());
        }
        for name in [
            "sim-check",
            "sim-engine",
            "fabric",
            "obs::prof",
            "(default)",
        ] {
            assert!(t.contains(name), "missing policy row {name}");
        }
        assert!(t.contains("sim-lint"), "skip list should name sim-lint");
    }

    #[test]
    fn json_listing_is_well_formed_enough_to_spot_check() {
        let j = render_json();
        assert!(j.starts_with("{\"version\":4,\"rules\":["));
        assert!(j.contains("\"rule\":\"seed-taint\""));
        assert!(j.contains("\"rule\":\"panic-reach\""));
        assert!(j.contains("\"crate\":\"sim-check\""));
        assert!(j.contains("\"crate\":\"obs::prof\""));
        assert!(j.contains("\"panic\":false"));
        assert!(j.contains("\"wallclock\":false"));
        assert!(j.contains("\"skipped_crates\":[\"serde\""));
        assert!(j.trim_end().ends_with("]}"));
    }
}
