//! Fixture-corpus tests: every rule catches its seeded violations at the
//! right file:line, clean snippets pass, and suppression directives behave
//! as documented.

use std::path::Path;

use sim_lint::diag::{Diagnostic, Rule, Severity};
use sim_lint::flow::{analyze_sources, Analysis, SourceText};
use sim_lint::lint_source;
use sim_lint::rules::FilePolicy;

fn read_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"))
}

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    lint_source(name, &read_fixture(name), &FilePolicy::ALL)
}

/// Run the flow pass over fixture files mounted at virtual workspace
/// paths (the taxonomy-wiring rule classifies files by crate component).
fn analyze_fixtures(mounts: &[(&str, &str)]) -> Analysis {
    let sources: Vec<SourceText> = mounts
        .iter()
        .map(|(virtual_path, fixture)| SourceText {
            name: (*virtual_path).to_string(),
            src: read_fixture(fixture),
            policy: FilePolicy::ALL,
        })
        .collect();
    analyze_sources(&sources)
}

/// `(rule, line)` pairs of all findings at or above Warning severity.
fn gating(diags: &[Diagnostic]) -> Vec<(Rule, u32)> {
    diags
        .iter()
        .filter(|d| d.severity >= Severity::Warning)
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn nondet_fixture_is_caught_at_each_line() {
    let diags = lint_fixture("nondet_bad.rs");
    assert_eq!(
        gating(&diags),
        vec![
            (Rule::Nondet, 4),  // use ... HashMap
            (Rule::Nondet, 5),  // use ... HashSet
            (Rule::Nondet, 6),  // use std::time::Instant
            (Rule::Nondet, 9),  // HashMap field
            (Rule::Nondet, 10), // HashSet field
            (Rule::Nondet, 18), // std::thread::current()
            (Rule::Nondet, 22), // as *const (warning)
        ]
    );
    // Everything except the raw-pointer cast is a hard error.
    assert!(diags
        .iter()
        .filter(|d| d.line != 22)
        .all(|d| d.severity == Severity::Error));
}

#[test]
fn panic_fixture_is_caught_at_each_line() {
    let diags = lint_fixture("panic_bad.rs");
    assert_eq!(
        gating(&diags),
        vec![
            (Rule::Panic, 5),  // .unwrap()
            (Rule::Panic, 9),  // .expect()
            (Rule::Panic, 14), // panic!
            (Rule::Panic, 17), // todo!
            (Rule::Panic, 18), // unimplemented!
            (Rule::Panic, 19), // unreachable!
        ]
    );
}

#[test]
fn hygiene_fixture_flags_bare_asserts_only() {
    let diags = lint_fixture("hygiene_bad.rs");
    assert_eq!(
        gating(&diags),
        vec![
            (Rule::Hygiene, 5), // bare assert! on a sim path
            (Rule::Hygiene, 6), // debug_assert!
        ]
    );
    // The check-gated assert (line 11), the constructor assert (line 16)
    // and the #[cfg(test)] assert_eq (line 24) are all accepted.
}

#[test]
fn event_fixture_flags_raw_schedule_and_rogue_batch_drains() {
    let diags = lint_fixture("event_bad.rs");
    assert_eq!(
        gating(&diags),
        vec![
            (Rule::Event, 5),  // raw .schedule(at)
            (Rule::Event, 12), // .pop_batch( outside the dispatch loop
            (Rule::Event, 15), // .rescind_delivered( outside the dispatch loop
        ]
    );
    // The schedule_after/schedule_no_earlier calls (lines 6-7) and the
    // allow-sanctioned pop_batch loop (line 20) are accepted.
    assert!(
        !diags
            .iter()
            .any(|d| d.line == 20 && d.severity == Severity::Error),
        "allow directive must sanction the dispatch-loop pop_batch: {diags:?}"
    );
}

#[test]
fn obs_wallclock_fixture_is_flagged() {
    // The obs crate is linted under the full rule set (`crate_policy`
    // maps "obs" to `FilePolicy::ALL`, same as this harness passes), so
    // wall-clock time leaking into an observability histogram is a hard
    // nondet error.
    let diags = lint_fixture("obs_wallclock.rs");
    assert_eq!(gating(&diags), vec![(Rule::Nondet, 4)]);
    assert!(
        diags.iter().any(|d| d.line == 4
            && d.severity == Severity::Error
            && d.message.contains("wall-clock")),
        "wall-clock import must be a nondet error: {diags:?}"
    );
}

#[test]
fn prof_wallclock_fixture_splits_on_the_wallclock_policy_bit() {
    // Under the full policy (any file other than the sanctioned profiler)
    // the fixture's std::time sites are nondet errors alongside the
    // HashMap ones.
    let full = gating(&lint_fixture("prof_wallclock.rs"));
    assert_eq!(
        full,
        vec![
            (Rule::Nondet, 5),  // use std::time::Instant
            (Rule::Nondet, 7),  // use ... HashMap
            (Rule::Nondet, 11), // HashMap field
        ]
    );
    assert!(
        lint_fixture("prof_wallclock.rs")
            .iter()
            .any(|d| d.line == 5 && d.message.contains("wall-clock")),
        "the std::time finding must be the wall-clock diagnostic"
    );
}

#[test]
fn prof_policy_allows_wallclock_but_still_flags_hash_containers() {
    // The per-file policy `collect_workspace` assigns to
    // `crates/obs/src/prof.rs`: full rules with `wallclock` off.
    let prof_policy = FilePolicy {
        wallclock: false,
        ..FilePolicy::ALL
    };
    let diags = lint_source(
        "crates/obs/src/prof.rs",
        &read_fixture("prof_wallclock.rs"),
        &prof_policy,
    );
    let findings = gating(&diags);
    assert!(
        findings.iter().all(|(_, line)| *line != 5),
        "std::time must be sanctioned under the prof policy: {diags:?}"
    );
    assert!(
        findings.contains(&(Rule::Nondet, 7)) && findings.contains(&(Rule::Nondet, 11)),
        "HashMap must stay a nondet error under the prof policy: {diags:?}"
    );
}

#[test]
fn nondet_alias_fixture_catches_aliased_hash_iteration() {
    let diags = lint_fixture("nondet_alias.rs");
    assert_eq!(
        gating(&diags),
        vec![
            (Rule::Nondet, 4),  // HashMap type ascription
            (Rule::Nondet, 6),  // for k in alias.keys() — through the alias
            (Rule::Nondet, 12), // HashSet constructor
            (Rule::Nondet, 13), // for v in s.iter() — direct local
        ]
    );
    // The BTreeMap alias iteration (lines 18-23) stays clean.
    assert!(
        diags.iter().all(|d| d.line < 18),
        "BTreeMap alias wrongly flagged: {diags:?}"
    );
    // The aliased-iteration finding names the alias, proving it fired via
    // local tracking and not the type token.
    assert!(diags
        .iter()
        .any(|d| d.line == 6 && d.message.contains("`alias`")));
}

#[test]
fn flow_fixture_trips_all_three_graph_rules_at_exact_lines() {
    let a = analyzed_events();
    assert_eq!(
        gating(&a.diags),
        vec![
            (Rule::DeadEvent, 6),      // Orphan: consumed, never produced
            (Rule::UnhandledEvent, 7), // Ghost: produced, wildcard only
            (Rule::MultiDispatch, 8),  // Dup: dispatch + elsewhere
        ]
    );
    let ghost = a
        .diags
        .iter()
        .find(|d| d.rule == Rule::UnhandledEvent)
        .expect("ghost diag");
    assert!(
        ghost.message.contains("wildcard"),
        "unhandled-event should name the swallowing wildcard: {}",
        ghost.message
    );
    let dup = a
        .diags
        .iter()
        .find(|d| d.rule == Rule::MultiDispatch)
        .expect("dup diag");
    assert!(
        dup.message.contains("dispatch") && dup.message.contains("elsewhere"),
        "multi-dispatch should list both consuming matches: {}",
        dup.message
    );
}

fn analyzed_events() -> Analysis {
    analyze_fixtures(&[("crates/core/src/system/events.rs", "flow_proto/events.rs")])
}

#[test]
fn flow_fixture_graph_reflects_the_protocol() {
    let a = analyzed_events();
    let g = a.graph.expect("Event enum found in fixture");
    let names: Vec<&str> = g.variants.iter().map(|v| v.name.as_str()).collect();
    assert_eq!(names, vec!["Ping", "Pong", "Orphan", "Ghost", "Dup"]);
    let by_name = |n: &str| g.variants.iter().find(|v| v.name == n).unwrap();
    assert_eq!(by_name("Ping").producers.len(), 1);
    assert_eq!(by_name("Ping").consumers.len(), 1);
    assert_eq!(by_name("Orphan").producers.len(), 0);
    assert_eq!(by_name("Ghost").consumers.len(), 0);
    assert_eq!(by_name("Dup").consumers.len(), 2);
    assert_eq!(g.wildcards.len(), 2); // dispatch + elsewhere
}

const TAXONOMY_OBS: (&str, &str) = ("crates/obs/src/span.rs", "flow_proto/obs_span.rs");
const TAXONOMY_CORE: (&str, &str) = ("crates/core/src/serve.rs", "flow_proto/core_serve.rs");

#[test]
fn fully_wired_taxonomy_is_clean() {
    let a = analyze_fixtures(&[
        TAXONOMY_OBS,
        TAXONOMY_CORE,
        ("crates/sim-check/src/mirror.rs", "flow_proto/mirror.rs"),
    ]);
    assert!(gating(&a.diags).is_empty(), "{:?}", a.diags);
}

#[test]
fn deleting_one_mirror_field_trips_taxonomy_wiring_at_the_variant() {
    let a = analyze_fixtures(&[
        TAXONOMY_OBS,
        TAXONOMY_CORE,
        (
            "crates/sim-check/src/mirror.rs",
            "flow_proto/mirror_sabotaged.rs",
        ),
    ]);
    // GammaSpill is declared on line 6 of obs_span.rs; the finding anchors
    // there, in the file that owns the taxonomy.
    assert_eq!(gating(&a.diags), vec![(Rule::TaxonomyWiring, 6)]);
    let d = &a.diags[0];
    assert_eq!(d.file, "crates/obs/src/span.rs");
    assert!(
        d.message.contains("GammaSpill") && d.message.contains("sim-check"),
        "message should name the variant and the missing layer: {}",
        d.message
    );
}

#[test]
fn clean_fixture_passes_every_rule() {
    let diags = lint_fixture("clean.rs");
    assert!(
        diags.is_empty(),
        "clean fixture produced findings: {diags:?}"
    );
}

#[test]
fn allow_with_reason_suppresses_standalone_and_trailing() {
    let diags = lint_fixture("allow_cases.rs");
    // Lines 6 (standalone-above) and 25 (trailing) are suppressed.
    assert!(
        !diags.iter().any(|d| d.line == 6 || d.line == 25),
        "suppressed findings resurfaced: {diags:?}"
    );
}

#[test]
fn allow_without_reason_is_rejected() {
    let diags = lint_fixture("allow_cases.rs");
    let d = diags
        .iter()
        .find(|d| d.line == 10 && d.rule == Rule::Directive)
        .expect("missing-reason directive error");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("without a reason"));
}

#[test]
fn unused_allow_is_warned() {
    let diags = lint_fixture("allow_cases.rs");
    let d = diags
        .iter()
        .find(|d| d.line == 15 && d.rule == Rule::Directive)
        .expect("unused-allow warning");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("unused"));
}

#[test]
fn unknown_rule_in_allow_is_rejected_and_does_not_suppress() {
    let diags = lint_fixture("allow_cases.rs");
    assert!(diags
        .iter()
        .any(|d| d.line == 20 && d.rule == Rule::Directive && d.severity == Severity::Error));
    // The unwrap under the bogus allow still fires.
    assert!(diags.iter().any(|d| d.line == 21 && d.rule == Rule::Panic));
}
