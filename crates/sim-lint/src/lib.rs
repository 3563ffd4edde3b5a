//! sim-lint: the workspace's custom static-analysis pass.
//!
//! Enforces the project rules that `rustc`/`clippy` cannot express:
//!
//! - **nondet** — no hash-ordered containers, wall-clock time, thread
//!   identity or raw-pointer values in simulation-state code (the paper's
//!   figures must be bit-identical across runs and `--jobs` values). The
//!   wall-clock arm is policied separately (`FilePolicy::wallclock`) so
//!   the one sanctioned host-side profiler, `crates/obs/src/prof.rs`, can
//!   read `std::time::Instant` while every other nondet check still
//!   applies to it;
//! - **panic** — no `unwrap`/`expect`/`panic!`-family calls in library
//!   crates without a documented justification;
//! - **hygiene** — asserts on hot paths must use the check-gated idiom
//!   (`if cfg!(any(debug_assertions, feature = "check"))`) so release runs
//!   stay assert-free but `--features check` can re-arm them;
//! - **event** — raw `EventQueue::schedule(at)` is reserved for the engine;
//!   models use `schedule_after`/`schedule_no_earlier`.
//!
//! On top of the token rules, the **flow pass** ([`flow`]) builds the
//! cross-file event-protocol graph (every `Event` variant's `schedule*`
//! producers and dispatch arms) and checks it:
//!
//! - **dead-event** — a variant no producer constructs;
//! - **unhandled-event** — a variant with no dispatch arm;
//! - **multi-dispatch** — a variant consumed by more than one match;
//! - **taxonomy-wiring** — every `Resolution` variant wired through obs,
//!   the core serve sites, and the sim-check mirror.
//!
//! The **dataflow layer** ([`callgraph`] + [`dataflow`]) assembles a
//! workspace call graph (function definitions, lexically-resolved call
//! edges, reachability from the `.pop_batch(` dispatch loops) and runs
//! three interprocedural analyses over it:
//!
//! - **seed-taint** — every RNG-state construction must be transitively
//!   derived from the master seed; untracked entropy and two independent
//!   streams built from the same seed expression both flag;
//! - **dead-config** — every field of every `*Config` struct must reach
//!   a consumer; parsed-but-never-read fields and fields read only
//!   behind undeclared feature gates both flag;
//! - **panic-reach** — the per-line `panic` Warnings upgrade to Errors,
//!   with the root→function chain in the message, when the panic is
//!   reachable from a dispatch loop.
//!
//! Checks that other mechanisms already carry are deliberately absent:
//! `unsafe` is forbidden workspace-wide by rustc (`unsafe_code =
//! "forbid"` in the root manifest's `[workspace.lints.rust]`), and
//! scheduling-dependent output is caught by CI's byte-compare of
//! `figures --jobs 1` against `--jobs 4`.
//!
//! Findings can be suppressed per line with
//! `// sim-lint: allow(<rule>, reason = "...")` — a non-empty reason is
//! mandatory, and unused suppressions are themselves flagged.
//!
//! The tool is entirely self-contained (hand-written lexer, no
//! dependencies) so it builds and runs offline, in CI, with nothing but
//! the workspace checkout.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod config;
pub mod dataflow;
pub mod diag;
pub mod fix;
pub mod flow;
pub mod graph;
pub mod lexer;
pub mod listing;
pub mod model;
pub mod rules;
pub mod rules_flow;
pub mod scan;

use std::path::Path;

use diag::{Diagnostic, Rule, Severity};
use rules::FilePolicy;
use scan::Allow;

/// Apply one file's suppression directives to its raw findings, validate
/// the directives themselves, and return the final per-file diagnostics
/// sorted by (line, rule). Shared by the single-file and flow entry
/// points so flow findings suppress identically to token findings.
pub(crate) fn finalize(file: &str, raw: Vec<Diagnostic>, allows: &[Allow]) -> Vec<Diagnostic> {
    let mut used = vec![false; allows.len()];
    let mut out: Vec<Diagnostic> = Vec::new();
    for d in raw {
        let suppressed = allows.iter().enumerate().any(|(j, a)| {
            let hit = !a.malformed
                && Rule::from_name(&a.rule) == Some(d.rule)
                && a.target_line == Some(d.line);
            if hit {
                used[j] = true;
            }
            hit
        });
        if !suppressed {
            out.push(d);
        }
    }
    for (j, a) in allows.iter().enumerate() {
        let mut directive = |severity: Severity, message: String| {
            out.push(Diagnostic {
                file: file.to_string(),
                line: a.line,
                rule: Rule::Directive,
                severity,
                message,
            });
        };
        if a.malformed {
            directive(
                Severity::Error,
                "malformed sim-lint directive; expected \
                 `sim-lint: allow(<rule>, reason = \"...\")`"
                    .to_string(),
            );
        } else if Rule::from_name(&a.rule).is_none() {
            directive(
                Severity::Error,
                format!(
                    "unknown rule `{}` in allow; rules are nondet, panic, hygiene, \
                     event, dead-event, unhandled-event, multi-dispatch, \
                     taxonomy-wiring, seed-taint, dead-config, panic-reach",
                    a.rule
                ),
            );
        } else if !a.has_reason {
            directive(
                Severity::Error,
                format!(
                    "allow({}) without a reason; write \
                     `sim-lint: allow({}, reason = \"why this is sound\")`",
                    a.rule, a.rule
                ),
            );
        } else if !used[j] {
            directive(
                Severity::Warning,
                format!(
                    "unused allow({}): no {} finding on its target line — remove it",
                    a.rule, a.rule
                ),
            );
        }
    }
    out.sort_by_key(|a| (a.line, a.rule));
    out
}

/// Lint one source file with the token rules only: lex, scan context, run
/// rules, apply suppressions, and validate the suppressions themselves.
/// (The flow rules need the whole file set; see [`flow::analyze_sources`].)
pub fn lint_source(file: &str, src: &str, policy: &FilePolicy) -> Vec<Diagnostic> {
    let lx = lexer::lex(src);
    let cx = scan::scan(&lx);
    let raw = rules::check_tokens(file, &lx, &cx, policy);
    let allows = scan::parse_allows(&lx);
    finalize(file, raw, &allows)
}

/// Lint the whole workspace rooted at `root`: token rules and the flow
/// pass. Returns all findings in deterministic (path, line) order.
/// Unreadable or non-UTF-8 files produce a `directive` error rather than
/// being skipped silently.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    flow::analyze_workspace(root).map(|a| a.diags)
}

/// The gating outcome for a set of findings under a `--deny warnings`
/// setting: `(errors, warnings, infos)` counts.
pub fn tally(diags: &[Diagnostic]) -> (usize, usize, usize) {
    let mut e = 0;
    let mut w = 0;
    let mut i = 0;
    for d in diags {
        match d.severity {
            Severity::Error => e += 1,
            Severity::Warning => w += 1,
            Severity::Info => i += 1,
        }
    }
    (e, w, i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_suppresses_and_is_marked_used() {
        let src = "fn f() { x.unwrap(); } // sim-lint: allow(panic, reason = \"test invariant\")";
        assert!(lint_source("t.rs", src, &FilePolicy::ALL).is_empty());
    }

    #[test]
    fn standalone_allow_above_suppresses() {
        let src =
            "// sim-lint: allow(nondet, reason = \"telemetry only\")\nuse std::time::Instant;";
        assert!(lint_source("t.rs", src, &FilePolicy::ALL).is_empty());
    }

    #[test]
    fn allow_without_reason_is_an_error() {
        let src = "// sim-lint: allow(panic)\nfn f() { x.unwrap(); }";
        let diags = lint_source("t.rs", src, &FilePolicy::ALL);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::Directive);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("without a reason"));
    }

    #[test]
    fn unused_allow_is_a_warning() {
        let src = "// sim-lint: allow(panic, reason = \"nothing here\")\nlet x = 1;";
        let diags = lint_source("t.rs", src, &FilePolicy::ALL);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::Directive);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let src =
            "// sim-lint: allow(panic, reason = \"wrong rule\")\nuse std::collections::HashMap;";
        let diags = lint_source("t.rs", src, &FilePolicy::ALL);
        // The nondet finding survives and the panic allow is unused.
        assert!(diags.iter().any(|d| d.rule == Rule::Nondet));
        assert!(diags.iter().any(|d| d.rule == Rule::Directive));
    }

    #[test]
    fn directive_rule_is_not_suppressible() {
        assert!(Rule::from_name("directive").is_none());
    }

    #[test]
    fn flow_rule_allow_names_parse() {
        let src = "// sim-lint: allow(taxonomy-wiring, reason = \"staged rollout\")\nlet x = 1;";
        let diags = lint_source("t.rs", src, &FilePolicy::ALL);
        // Known rule, reasoned, but nothing to suppress → unused warning
        // (not an unknown-rule or malformed error).
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::Directive);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("unused"));
    }
}
