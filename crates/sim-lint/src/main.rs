//! CLI entry point. Usage:
//!
//! ```text
//! cargo run -p sim-lint -- [--root <path>] [--deny warnings] [--quiet]
//!                          [--format <human|json|github>] [--emit-graph <path>]
//!                          [--list-rules] [--fix-unused-allows]
//! ```
//!
//! `--format json` writes the machine-readable diagnostics document to
//! stdout (summary goes to stderr); `--format github` prints one GitHub
//! Actions annotation per finding. `--emit-graph` writes the event-protocol
//! graph as DOT to the given path.
//! `--list-rules` prints every rule with its severity and the per-crate
//! policy table (honors `--format json`) and exits.
//! `--fix-unused-allows` deletes unused suppression comments in place
//! and then lints the fixed tree.
//!
//! Exit codes: 0 clean, 1 gated findings, 2 usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use sim_lint::diag::{self, GraphSummary, Severity};
use sim_lint::{fix, listing};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
    Github,
}

const USAGE: &str = "usage: sim-lint [--root <path>] [--deny warnings] [--quiet] \
     [--format <human|json|github>] [--emit-graph <path>] [--list-rules] \
     [--fix-unused-allows]";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("sim-lint: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut deny_warnings = false;
    let mut quiet = false;
    let mut format = Format::Human;
    let mut emit_graph: Option<PathBuf> = None;
    let mut list_rules = false;
    let mut fix_unused = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => match args.next().as_deref() {
                Some("warnings") => deny_warnings = true,
                other => {
                    return usage_error(&format!(
                        "--deny takes exactly one value, `warnings`; got {}",
                        other.map_or_else(|| "nothing".to_string(), |o| format!("`{o}`"))
                    ));
                }
            },
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage_error("--root requires a path to the workspace root"),
            },
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                other => {
                    return usage_error(&format!(
                        "--format takes one of human, json, github; got {}",
                        other.map_or_else(|| "nothing".to_string(), |o| format!("`{o}`"))
                    ));
                }
            },
            "--emit-graph" => match args.next() {
                Some(p) => emit_graph = Some(PathBuf::from(p)),
                None => {
                    return usage_error("--emit-graph requires an output path for the DOT file")
                }
            },
            "--list-rules" => list_rules = true,
            "--fix-unused-allows" => fix_unused = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "sim-lint: workspace static analysis (token rules nondet, panic, \
                     hygiene, event; flow rules dead-event, unhandled-event, \
                     multi-dispatch, taxonomy-wiring; dataflow rules seed-taint, \
                     dead-config, panic-reach)"
                );
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                return usage_error(&format!(
                    "unknown flag `{other}`; accepted flags are --root <path>, \
                     --deny warnings, --quiet, --format <human|json|github>, \
                     --emit-graph <path>, --list-rules, --fix-unused-allows"
                ));
            }
        }
    }

    if list_rules {
        match format {
            Format::Json => print!("{}", listing::render_json()),
            _ => print!("{}", listing::render_table()),
        }
        return ExitCode::SUCCESS;
    }

    if fix_unused {
        match fix::fix_unused_allows(&root) {
            Ok(fixed) => {
                for (path, n) in &fixed {
                    eprintln!(
                        "sim-lint: removed {n} unused allow(s) from {}",
                        path.display()
                    );
                }
                if fixed.is_empty() {
                    eprintln!("sim-lint: no unused allows to remove");
                }
            }
            Err(e) => {
                return usage_error(&format!("cannot fix workspace at {}: {e}", root.display()))
            }
        }
    }

    let analysis = match sim_lint::flow::analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => return usage_error(&format!("cannot walk workspace at {}: {e}", root.display())),
    };
    let diags = &analysis.diags;
    let (nf, ne, nr, nh) = analysis.callgraph.summary();
    let graph_summary = GraphSummary {
        functions: nf,
        edges: ne,
        roots: nr,
        hot: nh,
    };

    if let Some(path) = &emit_graph {
        let Some(graph) = &analysis.graph else {
            return usage_error(&format!(
                "--emit-graph: no `{}` enum found in the workspace, nothing to plot",
                sim_lint::flow::PROTOCOL_ENUM
            ));
        };
        if let Err(e) = std::fs::write(path, graph.to_dot()) {
            return usage_error(&format!("cannot write graph to {}: {e}", path.display()));
        }
    }

    match format {
        Format::Human => {
            if !quiet {
                for d in diags {
                    println!("{d}");
                }
            }
        }
        Format::Json => print!("{}", diag::to_json(diags, Some(&graph_summary))),
        Format::Github => {
            // Annotate only what can gate: GitHub caps annotations per
            // step, and advisory Info notes would drown the findings
            // that matter (the JSON artifact carries them all).
            let gating: Vec<_> = diags
                .iter()
                .filter(|d| d.severity >= Severity::Warning)
                .cloned()
                .collect();
            print!("{}", diag::to_github_annotations(&gating));
        }
    }

    let (errors, warnings, infos) = sim_lint::tally(diags);
    let summary = format!(
        "sim-lint: {errors} error(s), {warnings} warning(s), {infos} info note(s); \
         call graph: {nf} fns, {ne} edges, {nr} dispatch roots, {nh} hot"
    );
    // Keep stdout machine-parseable under --format json.
    if format == Format::Json {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }

    let gated = errors > 0 || (deny_warnings && warnings > 0);
    if gated {
        // Re-show what gated even in quiet/json mode, so CI logs are
        // actionable without opening the artifact.
        if quiet || format == Format::Json {
            for d in diags.iter().filter(|d| {
                d.severity == Severity::Error || (deny_warnings && d.severity == Severity::Warning)
            }) {
                eprintln!("{d}");
            }
        }
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
