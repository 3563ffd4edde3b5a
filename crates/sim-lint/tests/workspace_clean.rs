//! Self-run test: the workspace itself must be clean under
//! `sim-lint --deny warnings`. This is the same gate CI applies, so a
//! regression fails `cargo test` locally before it ever reaches CI.

use std::path::Path;

use sim_lint::diag::Severity;

#[test]
fn workspace_has_no_errors_or_warnings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("sim-lint lives two levels below the workspace root");
    let diags = sim_lint::lint_workspace(root).expect("workspace walk succeeds");
    let gating: Vec<_> = diags
        .iter()
        .filter(|d| d.severity >= Severity::Warning)
        .collect();
    assert!(
        gating.is_empty(),
        "sim-lint found gating diagnostics:\n{}",
        gating
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_event_protocol_graph_is_complete_and_single_dispatch() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let a = sim_lint::flow::analyze_workspace(root).expect("workspace walk succeeds");
    let g = a
        .graph
        .expect("the workspace defines the Event protocol enum");
    // The protocol is the 14-variant Event enum in core::system. If a
    // variant is added or removed, this count (and the DOT golden) must
    // be updated deliberately.
    assert_eq!(g.enum_file, "crates/core/src/system/mod.rs");
    assert_eq!(g.variants.len(), 14, "Event variant count changed");
    // Fabric delivery: every network message re-enters the protocol
    // through the single FabricHop variant, and that variant — like all
    // others — must have exactly one dispatcher (checked per-variant
    // below); here we pin that it exists at all, so the transport can
    // never silently fall out of the flow analysis.
    assert!(
        g.variants.iter().any(|v| v.name == "FabricHop"),
        "the fabric transport variant disappeared from the Event protocol"
    );
    for v in &g.variants {
        assert!(
            !v.producers.is_empty(),
            "Event::{} has no schedule* producer",
            v.name
        );
        let mut blocks: Vec<(&str, u32)> = v
            .consumers
            .iter()
            .map(|c| (c.file.as_str(), c.match_line))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        assert_eq!(
            blocks.len(),
            1,
            "Event::{} must be consumed by exactly one match block, got {blocks:?}",
            v.name
        );
        assert!(
            v.consumers.iter().all(|c| c.fn_name == "dispatch"),
            "Event::{} consumed outside System::dispatch",
            v.name
        );
    }
    assert!(
        g.wildcards.is_empty(),
        "the dispatch match must stay wildcard-free so new variants are \
         force-handled: {:?}",
        g.wildcards
    );
}

#[test]
fn rustc_forbids_unsafe_in_every_first_party_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    // The workspace lint table forbids `unsafe` ...
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let rust_lints = manifest
        .split("[workspace.lints.rust]")
        .nth(1)
        .and_then(|rest| rest.split("\n[").next())
        .expect("root manifest has a [workspace.lints.rust] table");
    assert!(
        rust_lints
            .lines()
            .any(|l| l.replace(' ', "") == "unsafe_code=\"forbid\""),
        "[workspace.lints.rust] must set unsafe_code = \"forbid\""
    );
    assert!(
        manifest.contains("[lints]\nworkspace = true"),
        "the root package must inherit the workspace lints"
    );

    // ... and every first-party crate inherits that table. The vendored
    // facades mirror third-party APIs and stay exempt.
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crates.sort();
    let mut checked = 0;
    for dir in crates {
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if ["serde", "serde-derive", "serde-json", "criterion"].contains(&name) {
            continue;
        }
        let toml = std::fs::read_to_string(dir.join("Cargo.toml")).expect("crate manifest");
        assert!(
            toml.contains("[lints]\nworkspace = true"),
            "crates/{name}/Cargo.toml must opt in with `[lints] workspace = true`"
        );
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} first-party crates found");
}

#[test]
fn workspace_walk_covers_the_simulation_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let files = sim_lint::config::collect_workspace(root).expect("walk succeeds");
    let seen = |fragment: &str| {
        files
            .iter()
            .any(|f| f.path.to_string_lossy().contains(fragment))
    };
    // Simulation-state crates must be walked...
    for covered in [
        "crates/tlb",
        "crates/iommu",
        "crates/gcn-model",
        "crates/core",
        "crates/fabric",
    ] {
        assert!(seen(covered), "{covered} missing from the walk");
    }
    // ...while vendored facades, the tool itself and driver code must not be.
    for skipped in [
        "crates/serde",
        "crates/criterion",
        "crates/sim-lint",
        "src/bin",
    ] {
        assert!(!seen(skipped), "{skipped} should be exempt from the walk");
    }
}
