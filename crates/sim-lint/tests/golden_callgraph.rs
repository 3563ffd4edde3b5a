//! Pinned invariants of the workspace call graph.
//!
//! The call graph feeds `seed-taint`, `dead-config` and `panic-reach`.
//! Instead of a whole-graph snapshot that every function change would
//! re-pin, this test pins the facts those rules depend on: the exact set
//! of dispatch roots, and that every event handler is reachable from
//! them (so a panic in any handler upgrades to `panic-reach`).

use std::path::Path;

#[test]
fn callgraph_has_the_two_dispatch_roots() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let a = sim_lint::flow::analyze_workspace(root).expect("workspace walk succeeds");
    let g = &a.callgraph;
    // System::drain and System::run both drain via pop_batch; no other
    // function may.
    let mut root_names: Vec<String> = g.roots.iter().map(|&r| g.fns[r].qual_name()).collect();
    root_names.sort();
    assert_eq!(root_names, ["System::drain", "System::run"]);

    // Every `on_*` event handler runs under dispatch, so each must be hot.
    let handlers: Vec<usize> = (0..g.fns.len())
        .filter(|&i| {
            g.fns[i].file == "crates/core/src/system/handlers.rs"
                && g.fns[i].name.starts_with("on_")
        })
        .collect();
    assert!(
        handlers.len() >= 14,
        "on_* handler count suspiciously low: {}",
        handlers.len()
    );
    let cold: Vec<&str> = handlers
        .iter()
        .filter(|&&i| !g.hot[i])
        .map(|&i| g.fns[i].name.as_str())
        .collect();
    assert!(
        cold.is_empty(),
        "handlers not reachable from dispatch: {cold:?}"
    );

    let (nf, ne, nr, nh) = g.summary();
    assert!(nf > 300, "function count suspiciously low: {nf}");
    assert!(ne > 500, "edge count suspiciously low: {ne}");
    assert!(nr == 2 && nh > nr, "roots {nr} / hot {nh}");
}
