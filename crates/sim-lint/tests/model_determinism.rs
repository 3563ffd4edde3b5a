//! Determinism properties of the model/dataflow layer: per-file model
//! extraction is byte-stable, and the whole analysis — diagnostics and
//! the call graph — is independent of the order files are fed in.

use std::path::{Path, PathBuf};

use sim_lint::flow::{analyze_sources_with, SourceText};
use sim_lint::lexer::lex;
use sim_lint::model::extract;
use sim_lint::scan::scan;
use sim_lint::{config, rules::FilePolicy};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

fn workspace_sources() -> Vec<SourceText> {
    let root = workspace_root();
    config::collect_workspace(root)
        .expect("workspace walk")
        .into_iter()
        .map(|f| SourceText {
            name: f
                .path
                .strip_prefix(root)
                .unwrap_or(&f.path)
                .display()
                .to_string(),
            src: std::fs::read_to_string(&f.path).expect("readable source"),
            policy: f.policy,
        })
        .collect()
}

#[test]
fn per_file_model_extraction_is_byte_stable() {
    let root = workspace_root();
    let files: Vec<PathBuf> = config::collect_workspace(root)
        .expect("workspace walk")
        .into_iter()
        .map(|f| f.path)
        .collect();
    assert!(files.len() > 20, "workspace should have many files");
    for path in files {
        let src = std::fs::read_to_string(&path).expect("readable");
        let render = |s: &str| {
            let lx = lex(s);
            let cx = scan(&lx);
            format!("{:?}", extract(&path.display().to_string(), &lx, &cx))
        };
        assert_eq!(
            render(&src),
            render(&src),
            "model extraction not deterministic for {}",
            path.display()
        );
    }
}

#[test]
fn analysis_is_independent_of_file_ordering() {
    let features = config::declared_features(workspace_root()).expect("features");
    let sorted = workspace_sources();
    let reference = analyze_sources_with(&sorted, &features);
    let ref_diags = format!("{:?}", reference.diags);
    let ref_graph = format!("{:?}", reference.callgraph);

    // Reversed, and rotated by a third: both must match byte-for-byte.
    let mut reversed = workspace_sources();
    reversed.reverse();
    let mut rotated = workspace_sources();
    let third = rotated.len() / 3;
    rotated.rotate_left(third);

    for (label, variant) in [("reversed", reversed), ("rotated", rotated)] {
        let a = analyze_sources_with(&variant, &features);
        assert_eq!(
            format!("{:?}", a.diags),
            ref_diags,
            "diagnostics differ under {label} input order"
        );
        assert_eq!(
            format!("{:?}", a.callgraph),
            ref_graph,
            "call graph differs under {label} input order"
        );
    }
}

#[test]
fn synthetic_corpus_is_order_independent_too() {
    // A small set with cross-file edges in both directions, so resolution
    // genuinely depends on the combined model rather than on input order.
    let files = [
        (
            "crates/a/src/lib.rs",
            "pub struct AConfig { pub knob: u64 }\nfn a_entry(seed: u64) { b_helper(seed); }\n",
        ),
        (
            "crates/b/src/lib.rs",
            "fn b_helper(start: u64) { let rng = start | 1; a_reader(); }\nfn a_reader() -> u64 { cfg.knob }\n",
        ),
    ];
    let mk = |order: &[usize]| {
        let srcs: Vec<SourceText> = order
            .iter()
            .map(|&i| SourceText {
                name: files[i].0.to_string(),
                src: files[i].1.to_string(),
                policy: FilePolicy::ALL,
            })
            .collect();
        let a = analyze_sources_with(&srcs, &std::collections::BTreeSet::new());
        (format!("{:?}", a.diags), format!("{:?}", a.callgraph))
    };
    assert_eq!(mk(&[0, 1]), mk(&[1, 0]));
}
