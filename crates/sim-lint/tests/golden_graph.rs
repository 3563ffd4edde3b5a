//! Golden snapshot of the real event-protocol graph's DOT export.
//!
//! The committed golden (`tests/golden/event-graph.dot`) is the reviewed
//! shape of the protocol. The DOT carries no line numbers, so pure line
//! shifts never churn it, and it compares raw; any change to the Event
//! enum, a producer site, or the dispatcher still shows up as a
//! reviewable diff. Refresh deliberately with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sim-lint --test golden_graph
//! ```

use std::path::Path;

#[test]
fn event_graph_dot_matches_committed_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let a = sim_lint::flow::analyze_workspace(root).expect("workspace walk succeeds");
    let g = a.graph.expect("Event protocol enum found");
    let dot = g.to_dot();

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/event-graph.dot");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &dot).expect("write refreshed golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden missing; run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        dot, golden,
        "event-protocol graph changed; review the diff, then refresh with \
         UPDATE_GOLDEN=1 cargo test -p sim-lint --test golden_graph"
    );
}

#[test]
fn dot_export_is_stable_across_runs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let d1 = sim_lint::flow::analyze_workspace(root)
        .expect("walk 1")
        .graph
        .expect("graph 1")
        .to_dot();
    let d2 = sim_lint::flow::analyze_workspace(root)
        .expect("walk 2")
        .graph
        .expect("graph 2")
        .to_dot();
    assert_eq!(d1, d2, "DOT export must be byte-identical across runs");
}
