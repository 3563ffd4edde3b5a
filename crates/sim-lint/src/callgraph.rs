//! The workspace call graph: every non-test function definition as a
//! node, name-resolved call edges between them, and reachability from the
//! event-dispatch hot loops (the functions that drain the queue via
//! `.pop_batch(`).
//!
//! Resolution is lexical, like everything in sim-lint:
//!
//! - `recv.method(...)` resolves to every workspace function named
//!   `method` (trait-default methods have no owner, so owner filtering
//!   would drop real edges);
//! - `Type::func(...)` resolves to functions named `func` inside an
//!   `impl Type` block; `Self::func(...)` substitutes the caller's owner;
//! - `func(...)` resolves to ownerless functions named `func`.
//!
//! Calls into `std` or vendored crates resolve to nothing and simply
//! produce no edge. The result over-approximates (same-named methods on
//! different types merge), which is the safe direction for the
//! panic-reach analysis: a function is "hot" if *some* resolution chain
//! reaches it from a dispatch loop. See DESIGN.md §8.10 for the
//! imprecision budget.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::model::{CallKind, FileModel};

/// One function node.
#[derive(Debug, Clone)]
pub struct FnNode {
    pub file: String,
    pub owner: Option<String>,
    pub name: String,
    pub line: u32,
    pub line_end: u32,
    /// Parameter names, for argument→parameter taint propagation.
    pub params: Vec<String>,
}

impl FnNode {
    /// `Owner::name`, or just `name` for free functions.
    #[must_use]
    pub fn qual_name(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call site with its resolved callee set, kept alongside the raw
/// model so the dataflow layer can walk argument flows.
#[derive(Debug, Clone)]
pub struct ResolvedCall {
    /// Index of the model (file) the site lives in.
    pub model: usize,
    /// Index into that model's `calls`.
    pub site: usize,
    /// Global index of the enclosing function, if any.
    pub caller: Option<usize>,
    /// Global indices of every function the callee name resolves to.
    pub callees: Vec<usize>,
}

/// The assembled graph. Node order is deterministic: models in path
/// order, functions in declaration order within each file.
#[derive(Debug)]
pub struct CallGraph {
    pub fns: Vec<FnNode>,
    /// `fns` index of each model's first function (parallel to the models
    /// slice `build` was given); `offsets[m] + local_idx` is the global
    /// index of a `FileModel::fns` entry.
    pub offsets: Vec<usize>,
    pub edges: BTreeSet<(usize, usize)>,
    pub calls: Vec<ResolvedCall>,
    /// Dispatch loops: functions containing a `.pop_batch(` call.
    pub roots: Vec<usize>,
    /// Reachable from a root (roots included).
    pub hot: Vec<bool>,
    /// BFS tree parent, for rendering a root→function chain.
    parent: Vec<Option<usize>>,
}

/// Build the graph over a path-sorted model set.
#[must_use]
pub fn build(models: &[FileModel]) -> CallGraph {
    let mut fns: Vec<FnNode> = Vec::new();
    let mut offsets = Vec::with_capacity(models.len());
    for m in models {
        offsets.push(fns.len());
        for f in &m.fns {
            fns.push(FnNode {
                file: m.file.clone(),
                owner: f.owner.clone(),
                name: f.name.clone(),
                line: f.line,
                line_end: f.line_end,
                params: f.params.clone(),
            });
        }
    }

    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_owner: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (g, f) in fns.iter().enumerate() {
        by_name.entry(&f.name).or_default().push(g);
        match &f.owner {
            Some(o) => by_owner.entry((o, &f.name)).or_default().push(g),
            None => free_by_name.entry(&f.name).or_default().push(g),
        }
    }

    let mut edges = BTreeSet::new();
    let mut calls = Vec::new();
    let mut roots_set = BTreeSet::new();
    for (mi, m) in models.iter().enumerate() {
        for (si, c) in m.calls.iter().enumerate() {
            let caller = c.caller.map(|k| offsets[mi] + k);
            if c.kind == CallKind::Method && c.callee == "pop_batch" {
                if let Some(g) = caller {
                    roots_set.insert(g);
                }
            }
            let callees: Vec<usize> = match &c.kind {
                CallKind::Method => by_name.get(c.callee.as_str()).cloned().unwrap_or_default(),
                CallKind::Free => free_by_name
                    .get(c.callee.as_str())
                    .cloned()
                    .unwrap_or_default(),
                CallKind::Path(owner) => {
                    let owner = if owner == "Self" {
                        caller.and_then(|g| fns[g].owner.clone())
                    } else {
                        Some(owner.clone())
                    };
                    owner
                        .and_then(|o| by_owner.get(&(o.as_str(), c.callee.as_str())).cloned())
                        .unwrap_or_default()
                }
            };
            if let Some(g) = caller {
                for &t in &callees {
                    edges.insert((g, t));
                }
            }
            calls.push(ResolvedCall {
                model: mi,
                site: si,
                caller,
                callees,
            });
        }
    }

    // BFS from the dispatch roots over the edge set.
    let roots: Vec<usize> = roots_set.into_iter().collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    for &(a, b) in &edges {
        adj[a].push(b);
    }
    let mut hot = vec![false; fns.len()];
    let mut parent = vec![None; fns.len()];
    let mut q: VecDeque<usize> = VecDeque::new();
    for &r in &roots {
        hot[r] = true;
        q.push_back(r);
    }
    while let Some(u) = q.pop_front() {
        for &v in &adj[u] {
            if !hot[v] {
                hot[v] = true;
                parent[v] = Some(u);
                q.push_back(v);
            }
        }
    }
    CallGraph {
        fns,
        offsets,
        edges,
        calls,
        roots,
        hot,
        parent,
    }
}

impl CallGraph {
    /// Index of the innermost function in `file` whose body contains
    /// `line`.
    #[must_use]
    pub fn fn_at(&self, file: &str, line: u32) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.line <= line && line <= f.line_end)
            .max_by_key(|(_, f)| f.line)
            .map(|(g, _)| g)
    }

    /// A `root → ... → fn` chain for a hot function, via the BFS tree.
    #[must_use]
    pub fn hot_path(&self, mut idx: usize) -> String {
        let mut chain = vec![self.fns[idx].qual_name()];
        while let Some(p) = self.parent[idx] {
            chain.push(self.fns[p].qual_name());
            idx = p;
        }
        chain.reverse();
        chain.join(" -> ")
    }

    /// `(functions, edges, roots, hot)` counts for the JSON summary.
    #[must_use]
    pub fn summary(&self) -> (usize, usize, usize, usize) {
        (
            self.fns.len(),
            self.edges.len(),
            self.roots.len(),
            self.hot.iter().filter(|h| **h).count(),
        )
    }
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

    const HOT: &str = "impl Sys {\n    fn run(&mut self, q: &mut Q) {\n        q.pop_batch(&mut self.batch);\n        self.dispatch();\n    }\n    fn dispatch(&mut self) { serve(self.x); }\n}\nfn serve(x: u8) { inner(x); }\nfn inner(x: u8) {}\nfn cold(x: u8) {}\n";

    #[test]
    fn pop_batch_roots_and_reachability() {
        let ms = models(&[("crates/core/src/a.rs", HOT)]);
        let g = build(&ms);
        assert_eq!(g.fns.len(), 5);
        assert_eq!(g.roots.len(), 1);
        assert_eq!(g.fns[g.roots[0]].qual_name(), "Sys::run");
        let hot_names: Vec<String> = g
            .fns
            .iter()
            .enumerate()
            .filter(|(i, _)| g.hot[*i])
            .map(|(_, f)| f.qual_name())
            .collect();
        assert_eq!(
            hot_names,
            vec!["Sys::run", "Sys::dispatch", "serve", "inner"]
        );
        let inner = g.fns.iter().position(|f| f.name == "inner").unwrap();
        assert_eq!(
            g.hot_path(inner),
            "Sys::run -> Sys::dispatch -> serve -> inner"
        );
    }

    #[test]
    fn path_calls_resolve_by_owner() {
        let ms = models(&[(
            "a.rs",
            "impl A { fn go() { B::make(); Self::help(); } fn help() {} }\nimpl B { fn make() {} }\nfn make() {}\n",
        )]);
        let g = build(&ms);
        let idx = |owner: Option<&str>, name: &str| {
            g.fns
                .iter()
                .position(|f| f.owner.as_deref() == owner && f.name == name)
                .unwrap()
        };
        let go = idx(Some("A"), "go");
        assert!(g.edges.contains(&(go, idx(Some("B"), "make"))));
        assert!(g.edges.contains(&(go, idx(Some("A"), "help"))));
        // The free fn `make` is not B::make.
        assert!(!g.edges.contains(&(go, idx(None, "make"))));
    }

    #[test]
    fn fn_at_finds_innermost_by_line() {
        let ms = models(&[("a.rs", HOT)]);
        let g = build(&ms);
        let at = g.fn_at("a.rs", 3).unwrap();
        assert_eq!(g.fns[at].qual_name(), "Sys::run");
        assert!(g.fn_at("a.rs", 999).is_none());
        assert!(g.fn_at("other.rs", 3).is_none());
    }
}
