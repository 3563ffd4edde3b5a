//! The event-protocol graph: per enum variant, who produces it (schedule
//! calls) and who consumes it (dispatch match arms), plus a deterministic
//! DOT rendering for CI artifacts and golden-snapshot comparison.

use std::fmt::Write as _;

use crate::model::FileModel;

/// One `schedule*` call constructing the variant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Producer {
    pub file: String,
    pub line: u32,
    /// `schedule` / `schedule_after` / `schedule_no_earlier`.
    pub via: String,
    /// Enclosing function of the call (`?` when at item scope) — the
    /// stable part of the DOT node key, so line churn never re-keys it.
    pub fn_name: String,
}

/// One match arm consuming the variant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Consumer {
    pub file: String,
    /// Line of the `match` keyword (identifies the match block).
    pub match_line: u32,
    /// Line of the arm's pattern.
    pub arm_line: u32,
    /// Enclosing function of the match.
    pub fn_name: String,
}

/// A variant node with its producer and consumer edges.
#[derive(Debug, Clone)]
pub struct VariantNode {
    pub name: String,
    pub decl_line: u32,
    pub producers: Vec<Producer>,
    pub consumers: Vec<Consumer>,
}

/// A wildcard (`_` or binding) arm in a match that otherwise matches on
/// the protocol enum — it can swallow new variants silently.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WildcardSite {
    pub file: String,
    pub line: u32,
    pub fn_name: String,
}

/// The protocol graph for one enum, in variant declaration order.
#[derive(Debug, Clone)]
pub struct ProtocolGraph {
    pub enum_name: String,
    pub enum_file: String,
    pub enum_line: u32,
    pub variants: Vec<VariantNode>,
    pub wildcards: Vec<WildcardSite>,
}

/// Build the protocol graph for the enum named `enum_name`, or `None` if
/// no file in the model set defines it. `models` must be in deterministic
/// (path-sorted) order; the graph inherits that order for its sites.
pub fn build(models: &[FileModel], enum_name: &str) -> Option<ProtocolGraph> {
    let (def_file, def) = models.iter().find_map(|m| {
        m.enums
            .iter()
            .find(|e| e.name == enum_name)
            .map(|e| (m.file.clone(), e))
    })?;

    let mut variants: Vec<VariantNode> = def
        .variants
        .iter()
        .map(|(name, line)| VariantNode {
            name: name.clone(),
            decl_line: *line,
            producers: Vec::new(),
            consumers: Vec::new(),
        })
        .collect();
    let mut wildcards = Vec::new();

    for m in models {
        for p in &m.producers {
            if p.enum_name != enum_name {
                continue;
            }
            if let Some(v) = variants.iter_mut().find(|v| v.name == p.variant) {
                v.producers.push(Producer {
                    file: m.file.clone(),
                    line: p.line,
                    via: p.via.clone(),
                    fn_name: p.fn_name.clone(),
                });
            }
        }
        for mm in &m.matches {
            let on_enum = mm.arms.iter().any(|a| a.owner == enum_name);
            if !on_enum {
                continue;
            }
            for a in &mm.arms {
                if a.owner != enum_name {
                    continue;
                }
                if let Some(v) = variants.iter_mut().find(|v| v.name == a.name) {
                    v.consumers.push(Consumer {
                        file: m.file.clone(),
                        match_line: mm.line,
                        arm_line: a.line,
                        fn_name: mm.fn_name.clone(),
                    });
                }
            }
            if let Some(wl) = mm.wildcard {
                wildcards.push(WildcardSite {
                    file: m.file.clone(),
                    line: wl,
                    fn_name: mm.fn_name.clone(),
                });
            }
        }
    }
    for v in &mut variants {
        v.producers.sort();
        v.producers.dedup();
        v.consumers.sort();
        v.consumers.dedup();
    }
    wildcards.sort();
    wildcards.dedup();
    Some(ProtocolGraph {
        enum_name: enum_name.to_string(),
        enum_file: def_file,
        enum_line: def.line,
        variants,
        wildcards,
    })
}

impl ProtocolGraph {
    /// Render as Graphviz DOT. Output is fully deterministic: variants in
    /// declaration order, sites in (file, line) order, node declarations
    /// deduplicated on first use — so the golden snapshot is byte-stable.
    ///
    /// Node keys are line-free (`file::fn via`, `fn @ file`) and no node
    /// carries a line number, so a pure line shift leaves the DOT
    /// byte-identical. Two same-named call sites in one function merge
    /// into one node (their edges dedup), which is the right granularity
    /// for a protocol diagram.
    #[must_use]
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph event_protocol {{");
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [fontname=\"monospace\"];");
        let _ = writeln!(
            out,
            "  label=\"{}::{} protocol ({})\";",
            esc(&self.enum_file),
            esc(&self.enum_name),
            self.variants.len()
        );
        let mut declared: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let mut edges: std::collections::BTreeSet<(String, String)> =
            std::collections::BTreeSet::new();
        let mut edge = |out: &mut String, from: &str, to: &str| {
            if edges.insert((from.to_string(), to.to_string())) {
                let _ = writeln!(out, "  \"{}\" -> \"{}\";", esc(from), esc(to));
            }
        };
        for v in &self.variants {
            let vn = format!("{}::{}", self.enum_name, v.name);
            let _ = writeln!(out, "  \"{}\" [shape=ellipse];", esc(&vn));
            for p in &v.producers {
                let pn = format!("{}::{} {}", p.file, p.fn_name, p.via);
                if declared.insert(pn.clone()) {
                    let _ = writeln!(out, "  \"{}\" [shape=box];", esc(&pn));
                }
                edge(&mut out, &pn, &vn);
            }
            for c in &v.consumers {
                let cn = format!("{} @ {}", c.fn_name, c.file);
                if declared.insert(cn.clone()) {
                    let _ = writeln!(out, "  \"{}\" [shape=box];", esc(&cn));
                }
                edge(&mut out, &vn, &cn);
            }
        }
        for w in &self.wildcards {
            let wn = format!("wildcard @ {}::{}", w.file, w.fn_name);
            if declared.insert(wn.clone()) {
                let _ = writeln!(out, "  \"{}\" [shape=diamond];", esc(&wn));
            }
        }
        let _ = writeln!(out, "}}");
        out
    }
}

/// Escape a string for use inside a double-quoted DOT identifier.
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::model::extract;
    use crate::scan::scan;

    fn models(files: &[(&str, &str)]) -> Vec<FileModel> {
        files
            .iter()
            .map(|(name, src)| {
                let lx = lex(src);
                let cx = scan(&lx);
                extract(name, &lx, &cx)
            })
            .collect()
    }

    const PROTO: &str = "pub enum Ev {\n    A,\n    B { x: u8 },\n}\nfn produce(q: &mut Q) {\n    q.schedule_after(1, Ev::A);\n    q.schedule_no_earlier(2, Ev::B { x: 0 });\n}\nfn dispatch(e: Ev) {\n    match e {\n        Ev::A => {}\n        Ev::B { x } => go(x),\n    }\n}\n";

    #[test]
    fn build_links_producers_and_consumers() {
        let ms = models(&[("p.rs", PROTO)]);
        let g = build(&ms, "Ev").expect("enum found");
        assert_eq!(g.variants.len(), 2);
        let a = &g.variants[0];
        assert_eq!(a.name, "A");
        assert_eq!(a.producers.len(), 1);
        assert_eq!(a.producers[0].via, "schedule_after");
        assert_eq!(a.consumers.len(), 1);
        assert_eq!(a.consumers[0].fn_name, "dispatch");
        assert!(g.wildcards.is_empty());
    }

    #[test]
    fn missing_enum_yields_none() {
        let ms = models(&[("p.rs", "fn f() {}")]);
        assert!(build(&ms, "Ev").is_none());
    }

    #[test]
    fn dot_is_deterministic_and_names_all_variants() {
        let ms = models(&[("p.rs", PROTO)]);
        let g = build(&ms, "Ev").expect("enum found");
        let d1 = g.to_dot();
        let d2 = g.to_dot();
        assert_eq!(d1, d2);
        assert!(d1.contains("\"Ev::A\""));
        assert!(d1.contains("\"Ev::B\""));
        assert!(d1.contains("\"p.rs::produce schedule_after\" [shape=box];"));
        assert!(d1.contains("\"dispatch @ p.rs\" [shape=box];"));
    }

    #[test]
    fn dot_is_invariant_under_line_shift() {
        let ms = models(&[("p.rs", PROTO)]);
        let shifted = format!("// header\n// more header\n{PROTO}");
        let ms2 = models(&[("p.rs", shifted.as_str())]);
        let d1 = build(&ms, "Ev").expect("enum found").to_dot();
        let d2 = build(&ms2, "Ev").expect("enum found").to_dot();
        assert_eq!(d1, d2);
    }
}
