//! The flow pass: cross-file analysis over the whole file set.
//!
//! Token rules see one file at a time; the flow rules need every file's
//! model at once (the `Event` enum lives in one file, its producers and
//! dispatcher in others). `analyze_sources` runs both layers: per-file
//! token rules and model extraction, then the protocol graph, the
//! workspace call graph with its interprocedural passes (seed-taint,
//! dead-config, the panic→panic-reach upgrade on dispatch-reachable
//! functions), and the flow rules over the combined model, then the
//! shared suppression machinery — a `// sim-lint: allow(dead-event,
//! reason = "...")` on a variant's declaration line works exactly like a
//! token-rule allow.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::callgraph::{self, CallGraph};
use crate::config;
use crate::dataflow;
use crate::diag::{Diagnostic, Rule, Severity};
use crate::graph::{self, ProtocolGraph};
use crate::lexer;
use crate::model::{self, FileModel};
use crate::rules::{self, FilePolicy};
use crate::rules_flow;
use crate::scan;

/// The protocol enum the graph is built over.
pub const PROTOCOL_ENUM: &str = "Event";

/// One in-memory source file with its rule policy. `name` should be the
/// workspace-relative path (`crates/core/src/system/mod.rs`): the
/// taxonomy-wiring rule classifies files by their `crates/<name>/`
/// component.
#[derive(Debug)]
pub struct SourceText {
    pub name: String,
    pub src: String,
    pub policy: FilePolicy,
}

/// The result of a full analysis: all diagnostics (token + flow +
/// dataflow, after suppression), the protocol graph if the file set
/// defines the protocol enum, and the workspace call graph.
#[derive(Debug)]
pub struct Analysis {
    pub diags: Vec<Diagnostic>,
    pub graph: Option<ProtocolGraph>,
    pub callgraph: CallGraph,
}

/// Analyze a set of in-memory sources with no declared cargo features:
/// every `#[cfg(feature = ...)]` gate is treated as dead. Workspace runs
/// go through `analyze_workspace`, which feeds the real feature set.
pub fn analyze_sources(files: &[SourceText]) -> Analysis {
    analyze_sources_with(files, &BTreeSet::new())
}

/// Analyze a set of in-memory sources: token rules per file, flow and
/// dataflow rules across files, suppressions applied to all of them.
/// Input order does not matter — files are processed in sorted-name
/// order — and diagnostics come back in deterministic (file, line, rule)
/// order.
pub fn analyze_sources_with(files: &[SourceText], features: &BTreeSet<String>) -> Analysis {
    let mut order: Vec<&SourceText> = files.iter().collect();
    order.sort_by(|a, b| a.name.cmp(&b.name));

    let mut units: Vec<(String, Vec<Diagnostic>, Vec<scan::Allow>)> = Vec::new();
    let mut models: Vec<FileModel> = Vec::new();
    let mut policies: BTreeMap<String, FilePolicy> = BTreeMap::new();
    for f in order {
        let lx = lexer::lex(&f.src);
        let cx = scan::scan(&lx);
        let raw = rules::check_tokens(&f.name, &lx, &cx, &f.policy);
        let allows = scan::parse_allows(&lx);
        models.push(model::extract(&f.name, &lx, &cx));
        policies.insert(f.name.clone(), f.policy);
        units.push((f.name.clone(), raw, allows));
    }

    let cg = callgraph::build(&models);

    // Upgrade per-line panic Warnings to path-aware Errors when the
    // enclosing function is reachable from a dispatch loop. The upgraded
    // diagnostic carries the root→function chain so the report explains
    // *why* this panic gates.
    for (name, raw, _) in &mut units {
        for d in raw.iter_mut() {
            if d.rule != Rule::Panic {
                continue;
            }
            let Some(fi) = cg.fn_at(name, d.line) else {
                continue;
            };
            if cg.hot[fi] {
                d.rule = Rule::PanicReach;
                d.severity = Severity::Error;
                d.message = format!(
                    "{}; reachable from dispatch: {}",
                    d.message,
                    cg.hot_path(fi)
                );
            }
        }
    }

    let graph = graph::build(&models, PROTOCOL_ENUM);
    let taint = dataflow::taint(&models, &cg);
    let mut flow_diags = rules_flow::check_flow(&models, graph.as_ref());
    flow_diags.extend(dataflow::check_seed_taint(&models, &cg, &taint, &policies));
    flow_diags.extend(dataflow::check_dead_config(&models, features, &policies));

    let mut orphans = Vec::new();
    for d in flow_diags {
        // Route each flow finding to its anchor file so that file's
        // allows can suppress it (and unused-allow accounting sees it).
        match units.iter_mut().find(|u| u.0 == d.file) {
            Some(u) => u.1.push(d),
            None => orphans.push(d),
        }
    }

    let mut diags = Vec::new();
    for (name, raw, allows) in units {
        diags.extend(crate::finalize(&name, raw, &allows));
    }
    diags.extend(orphans);
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Analysis {
        diags,
        graph,
        callgraph: cg,
    }
}

/// Analyze the whole workspace rooted at `root`: the same file set and
/// policies as `lint_workspace`, plus the flow pass, protocol graph, and
/// call-graph passes with the workspace's declared cargo features.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    let files = config::collect_workspace(root)?;
    let features = config::declared_features(root)?;
    let mut sources = Vec::new();
    let mut io_diags = Vec::new();
    for f in files {
        let name = f
            .path
            .strip_prefix(root)
            .unwrap_or(&f.path)
            .display()
            .to_string();
        match std::fs::read_to_string(&f.path) {
            Ok(src) => sources.push(SourceText {
                name,
                src,
                policy: f.policy,
            }),
            Err(e) => io_diags.push(Diagnostic {
                file: name,
                line: 0,
                rule: Rule::Directive,
                severity: Severity::Error,
                message: format!("unreadable source file: {e}"),
            }),
        }
    }
    let mut a = analyze_sources_with(&sources, &features);
    a.diags.extend(io_diags);
    a.diags
        .sort_by(|x, y| (&x.file, x.line, x.rule).cmp(&(&y.file, y.line, y.rule)));
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(name: &str, body: &str) -> SourceText {
        SourceText {
            name: name.to_string(),
            src: body.to_string(),
            policy: FilePolicy::ALL,
        }
    }

    #[test]
    fn clean_protocol_produces_graph_and_no_diags() {
        let files = [src(
            "crates/core/src/p.rs",
            "pub enum Event { Tick }\n\
             fn produce(q: &mut Q) { q.schedule_after(1, Event::Tick); }\n\
             fn dispatch(e: Event) { match e { Event::Tick => {} } }\n",
        )];
        let a = analyze_sources(&files);
        assert!(a.diags.is_empty(), "{:?}", a.diags);
        let g = a.graph.expect("graph built");
        assert_eq!(g.variants.len(), 1);
        assert_eq!(g.variants[0].producers.len(), 1);
        assert_eq!(g.variants[0].consumers.len(), 1);
    }

    #[test]
    fn flow_diag_is_suppressible_with_allow() {
        let files = [src(
            "crates/core/src/p.rs",
            "pub enum Event {\n\
             // sim-lint: allow(dead-event, reason = \"seeded externally\")\n\
             Tick,\n\
             }\n\
             fn dispatch(e: Event) { match e { Event::Tick => {} } }\n",
        )];
        let a = analyze_sources(&files);
        assert!(
            !a.diags.iter().any(|d| d.rule == Rule::DeadEvent),
            "{:?}",
            a.diags
        );
        // The allow was used, so no unused-allow warning either.
        assert!(!a.diags.iter().any(|d| d.rule == Rule::Directive));
    }

    #[test]
    fn no_protocol_enum_means_no_graph() {
        let files = [src("crates/core/src/p.rs", "fn f() {}\n")];
        let a = analyze_sources(&files);
        assert!(a.graph.is_none());
        assert!(a.diags.is_empty());
    }

    #[test]
    fn panic_in_dispatch_reachable_fn_upgrades_to_error() {
        let files = [src(
            "crates/core/src/p.rs",
            "impl Sys {\n\
             fn run(&mut self, q: &mut Q) { q.pop_batch(&mut self.b); self.step(); }\n\
             fn step(&mut self) { serve(); }\n\
             }\n\
             fn serve() { panic!(\"boom\"); }\n\
             fn cli_only() { panic!(\"usage\"); }\n",
        )];
        let a = analyze_sources(&files);
        let reach: Vec<_> = a
            .diags
            .iter()
            .filter(|d| d.rule == Rule::PanicReach)
            .collect();
        assert_eq!(reach.len(), 1, "{:?}", a.diags);
        assert_eq!(reach[0].line, 5);
        assert_eq!(reach[0].severity, Severity::Error);
        assert!(reach[0].message.contains("Sys::run -> Sys::step -> serve"));
        // The cold panic stays a plain panic Warning.
        let cold: Vec<_> = a.diags.iter().filter(|d| d.rule == Rule::Panic).collect();
        assert_eq!(cold.len(), 1);
        assert_eq!(cold[0].line, 6);
        assert_eq!(cold[0].severity, Severity::Warning);
    }

    #[test]
    fn panic_reach_is_suppressible_with_its_own_allow() {
        let files = [src(
            "crates/core/src/p.rs",
            "impl Sys {\n\
             fn run(&mut self, q: &mut Q) {\n\
             // sim-lint: allow(event, reason = \"this test's dispatch loop\")\n\
             q.pop_batch(&mut self.b);\n\
             // sim-lint: allow(panic-reach, reason = \"corruption is fatal by design\")\n\
             self.slot.take().unwrap();\n\
             }\n\
             }\n",
        )];
        let a = analyze_sources(&files);
        assert!(a.diags.is_empty(), "{:?}", a.diags);
    }

    #[test]
    fn analysis_is_independent_of_input_order() {
        let a_src = (
            "crates/core/src/a.rs",
            "pub struct TlbConfig { pub ways: u32 }\nfn f() { panic!(\"x\"); }\n",
        );
        let b_src = (
            "crates/core/src/b.rs",
            "fn g(c: &TlbConfig) { let _ = c.ways; }\n",
        );
        let fwd = [src(a_src.0, a_src.1), src(b_src.0, b_src.1)];
        let rev = [src(b_src.0, b_src.1), src(a_src.0, a_src.1)];
        let x = analyze_sources(&fwd);
        let y = analyze_sources(&rev);
        assert_eq!(format!("{:?}", x.diags), format!("{:?}", y.diags));
        assert_eq!(format!("{:?}", x.callgraph), format!("{:?}", y.callgraph));
    }

    #[test]
    fn seed_taint_and_dead_config_flow_through_analysis() {
        let files = [src(
            "crates/core/src/p.rs",
            "pub struct RunConfig { pub seed: u64, pub ghost: u32 }\n\
             fn go(config: &RunConfig) {\n\
             let rng = Splitmix::new(0xdeadbeef);\n\
             let _ = config.seed;\n\
             }\n",
        )];
        let a = analyze_sources(&files);
        assert!(
            a.diags
                .iter()
                .any(|d| d.rule == Rule::SeedTaint && d.line == 3),
            "{:?}",
            a.diags
        );
        assert!(
            a.diags
                .iter()
                .any(|d| d.rule == Rule::DeadConfig && d.line == 1 && d.message.contains("ghost")),
            "{:?}",
            a.diags
        );
    }
}
