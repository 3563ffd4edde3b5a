//! The rule matchers. Each rule walks the token stream with small
//! neighbourhood patterns; the [`Context`] masks carry the semantic
//! exemptions (test code, check gates, constructors).

use crate::diag::{Diagnostic, Rule, Severity};
use crate::lexer::{Lexed, Tok};
use crate::scan::Context;

/// Which rule families apply to a given file. Built by [`crate::config`]
/// from the crate/directory policy table.
#[derive(Debug, Clone, Copy)]
pub struct FilePolicy {
    pub nondet: bool,
    /// The wall-clock arm of `nondet` (`std::time` paths). Separate from
    /// the rest of the family so the one sanctioned host-side profiler
    /// (`crates/obs/src/prof.rs`) can read `Instant` while every other
    /// nondet check still applies to it.
    pub wallclock: bool,
    pub panic: bool,
    pub hygiene: bool,
    pub event: bool,
    /// Dataflow rules (checked per *defining* file: RNG sites here for
    /// `seed-taint`, `*Config` structs here for `dead-config` — consumers
    /// anywhere in the workspace count regardless of their own policy).
    pub seed_taint: bool,
    pub dead_config: bool,
}

impl FilePolicy {
    pub const ALL: FilePolicy = FilePolicy {
        nondet: true,
        wallclock: true,
        panic: true,
        hygiene: true,
        event: true,
        seed_taint: true,
        dead_config: true,
    };
}

fn ident(lx: &Lexed, i: usize) -> Option<&str> {
    match lx.tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(lx: &Lexed, i: usize, c: char) -> bool {
    matches!(lx.tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// `i` and `i+1` form a `::` path separator.
fn path_sep(lx: &Lexed, i: usize) -> bool {
    punct(lx, i, ':') && punct(lx, i + 1, ':')
}

/// Iteration methods whose order is the container's order.
const ORDER_SENSITIVE_ITERS: &[&str] = &["iter", "iter_mut", "keys", "values", "values_mut"];

/// Locals whose declared or constructed type is a hash container, tracked
/// per function body — including aliases of already-tracked locals
/// (`let alias = m;`, `let alias = &m;`, `let alias = m.clone();`).
///
/// Tracking is flow-insensitive *within* a function (a name is tracked
/// from its first hash-typed binding onward) but scoped to the innermost
/// enclosing `fn`, so a sibling function reusing the same local names for
/// a `BTreeMap` is not polluted.
struct HashLocals {
    /// `(span_start, span_end, tracked_names)` per function body.
    spans: Vec<(usize, usize, std::collections::BTreeSet<String>)>,
}

impl HashLocals {
    fn tracked(&self, i: usize, name: &str) -> bool {
        self.spans
            .iter()
            .filter(|(a, b, _)| *a <= i && i <= *b)
            .max_by_key(|(a, _, _)| *a)
            .is_some_and(|(_, _, set)| set.contains(name))
    }
}

fn hash_locals(lx: &Lexed, cx: &Context) -> HashLocals {
    let n = lx.tokens.len();
    let mut spans = Vec::new();
    for i in 0..n {
        if cx.test[i] || ident(lx, i) != Some("fn") {
            continue;
        }
        let end = crate::scan::find_item_end(lx, i + 1);
        spans.push((i, end, hash_locals_in(lx, i, end)));
    }
    HashLocals { spans }
}

/// The `let` pre-pass over one token span.
fn hash_locals_in(lx: &Lexed, start: usize, end: usize) -> std::collections::BTreeSet<String> {
    let mut tracked = std::collections::BTreeSet::new();
    let n = lx.tokens.len().min(end + 1);
    for i in start..n {
        if ident(lx, i) != Some("let") {
            continue;
        }
        // `let [mut] name [: Type] = rhs ;`
        let mut j = i + 1;
        if ident(lx, j) == Some("mut") {
            j += 1;
        }
        let Some(name) = ident(lx, j) else { continue };
        if name == "_" {
            continue;
        }
        j += 1;
        // Optional type ascription: scan it for hash-container names.
        let mut hashy = false;
        if punct(lx, j, ':') && !punct(lx, j + 1, ':') {
            j += 1;
            let mut angle = 0i64;
            while j < n {
                match &lx.tokens[j].tok {
                    Tok::Punct('<') => angle += 1,
                    Tok::Punct('>') => angle -= 1,
                    Tok::Punct('=' | ';') if angle <= 0 => break,
                    Tok::Ident(s) if s == "HashMap" || s == "HashSet" => hashy = true,
                    _ => {}
                }
                j += 1;
            }
        }
        if !punct(lx, j, '=') {
            continue;
        }
        j += 1;
        // RHS head: skip `&`/`mut`, then look at the leading ident — a
        // hash-container constructor path or an already-tracked alias.
        while punct(lx, j, '&') || ident(lx, j) == Some("mut") {
            j += 1;
        }
        if let Some(head) = ident(lx, j) {
            if head == "HashMap" || head == "HashSet" {
                hashy = true;
            } else if tracked.contains(head) {
                // Alias only if the RHS is the bare local, optionally
                // `.clone()`: `m`, `&m`, `m.clone()`.
                let plain = punct(lx, j + 1, ';');
                let cloned = punct(lx, j + 1, '.')
                    && ident(lx, j + 2) == Some("clone")
                    && punct(lx, j + 3, '(')
                    && punct(lx, j + 4, ')')
                    && punct(lx, j + 5, ';');
                if plain || cloned {
                    hashy = true;
                }
            }
        }
        if hashy {
            tracked.insert(name.to_string());
        }
    }
    tracked
}

/// Run every enabled rule over one lexed file and collect raw findings
/// (suppressions are applied by the caller).
pub fn check_tokens(file: &str, lx: &Lexed, cx: &Context, p: &FilePolicy) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = lx.tokens.len();
    let hash_locals = if p.nondet {
        hash_locals(lx, cx)
    } else {
        HashLocals { spans: Vec::new() }
    };
    let mut emit = |i: usize, rule: Rule, severity: Severity, message: String| {
        out.push(Diagnostic {
            file: file.to_string(),
            line: lx.tokens[i].line,
            rule,
            severity,
            message,
        });
    };

    for i in 0..n {
        let in_test = cx.test[i];
        let Some(id) = ident(lx, i) else {
            continue;
        };

        // --- nondet ---------------------------------------------------
        if p.nondet && !in_test {
            match id {
                "HashMap" | "HashSet" => emit(
                    i,
                    Rule::Nondet,
                    Severity::Error,
                    format!(
                        "std::collections::{id} iterates in hash order, which varies \
                         between processes; use mgpu_types::{} for simulation state",
                        if id == "HashMap" { "DetMap" } else { "DetSet" }
                    ),
                ),
                "RandomState" | "DefaultHasher" => emit(
                    i,
                    Rule::Nondet,
                    Severity::Error,
                    format!(
                        "{id} is seeded per-process; simulation state must hash deterministically"
                    ),
                ),
                "std" if p.wallclock && path_sep(lx, i + 1) && ident(lx, i + 3) == Some("time") => {
                    emit(
                        i,
                        Rule::Nondet,
                        Severity::Error,
                        "wall-clock time must not reach simulation state; model time \
                         lives in sim_engine::Cycle (the sole exemption is the \
                         obs::prof host-side profiler)"
                            .to_string(),
                    );
                }
                "thread" if path_sep(lx, i + 1) && ident(lx, i + 3) == Some("current") => emit(
                    i,
                    Rule::Nondet,
                    Severity::Error,
                    "thread identity is nondeterministic across runs; derive ordering \
                     from simulation state instead"
                        .to_string(),
                ),
                "as" if punct(lx, i + 1, '*')
                    && matches!(ident(lx, i + 2), Some("const" | "mut")) =>
                {
                    emit(
                        i,
                        Rule::Nondet,
                        Severity::Warning,
                        "raw-pointer casts expose nondeterministic address values; \
                         never let them feed keys or ordering"
                            .to_string(),
                    );
                }
                _ => {}
            }
            // Hash-order iteration through a local (or a `let` alias of
            // one): `for x in m.iter()/.keys()/.values()`.
            if i > 0
                && ident(lx, i - 1) == Some("in")
                && hash_locals.tracked(i, id)
                && punct(lx, i + 1, '.')
                && ident(lx, i + 2).is_some_and(|m| ORDER_SENSITIVE_ITERS.contains(&m))
                && punct(lx, i + 3, '(')
            {
                emit(
                    i,
                    Rule::Nondet,
                    Severity::Error,
                    format!(
                        "`{id}` is a hash container (possibly through a let alias); \
                         iterating it visits entries in hash order, which varies \
                         between processes — collect and sort, or use mgpu_types \
                         deterministic containers"
                    ),
                );
            }
        }

        // --- panic ----------------------------------------------------
        if p.panic && !in_test {
            let is_method = i > 0 && punct(lx, i - 1, '.') && punct(lx, i + 1, '(');
            if is_method && (id == "unwrap" || id == "expect") {
                emit(
                    i,
                    Rule::Panic,
                    Severity::Warning,
                    format!(
                        ".{id}() aborts the simulation on failure; return a Result, \
                         or allow with the documented invariant as the reason"
                    ),
                );
            }
            if punct(lx, i + 1, '!')
                && matches!(id, "panic" | "unreachable" | "todo" | "unimplemented")
            {
                emit(
                    i,
                    Rule::Panic,
                    Severity::Warning,
                    format!(
                        "{id}! in library code aborts the simulation; prefer an error \
                         path, or allow with the invariant that makes it unreachable"
                    ),
                );
            }
        }

        // --- hygiene --------------------------------------------------
        if p.hygiene && !in_test && punct(lx, i + 1, '!') {
            match id {
                "assert" | "assert_eq" | "assert_ne" if !cx.gated[i] && !cx.ctor[i] => emit(
                    i,
                    Rule::Hygiene,
                    Severity::Warning,
                    format!(
                        "bare {id}! on a simulation path: gate it behind \
                         `if cfg!(any(debug_assertions, feature = \"check\"))` so \
                         release runs stay assert-free, or allow with a reason"
                    ),
                ),
                "debug_assert" | "debug_assert_eq" | "debug_assert_ne" => emit(
                    i,
                    Rule::Hygiene,
                    Severity::Warning,
                    format!(
                        "{id}! vanishes in release builds, so `--features check` \
                         cannot turn it on; use the check-gated assert idiom instead"
                    ),
                ),
                _ => {}
            }
        }

        // --- event ----------------------------------------------------
        if p.event && !in_test && i > 0 && punct(lx, i - 1, '.') && punct(lx, i + 1, '(') {
            match id {
                "schedule" => emit(
                    i,
                    Rule::Event,
                    Severity::Error,
                    "raw .schedule(at) panics on past timestamps; use schedule_after \
                     for relative delays or schedule_no_earlier for absolute resource \
                     timestamps"
                        .to_string(),
                ),
                // The batch-drain API advances the clock and bulk-counts
                // delivery, so it belongs in the one dispatch loop that owns
                // the simulation's main loop — a handler draining the queue
                // mid-dispatch would reorder events and corrupt telemetry.
                // The sanctioned call sites carry allow directives.
                "pop_batch" => emit(
                    i,
                    Rule::Event,
                    Severity::Error,
                    ".pop_batch( advances the clock and bulk-counts delivered \
                     events; only the central dispatch loop may drain the queue — \
                     handlers must schedule, never pop"
                        .to_string(),
                ),
                "rescind_delivered" => emit(
                    i,
                    Rule::Event,
                    Severity::Error,
                    ".rescind_delivered( rewrites delivery telemetry; it is only \
                     correct paired with the dispatch loop's own abandoned \
                     pop_batch tail"
                        .to_string(),
                ),
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scan::scan;

    fn run(src: &str) -> Vec<Diagnostic> {
        let lx = lex(src);
        let cx = scan(&lx);
        check_tokens("t.rs", &lx, &cx, &FilePolicy::ALL)
    }

    fn rules_hit(src: &str) -> Vec<(Rule, u32)> {
        run(src).into_iter().map(|d| (d.rule, d.line)).collect()
    }

    #[test]
    fn hashmap_flagged_outside_tests_only() {
        let live = "use std::collections::HashMap;\nstruct S { m: HashMap<u8, u8> }";
        assert_eq!(rules_hit(live), vec![(Rule::Nondet, 1), (Rule::Nondet, 2)]);
        let test = "#[cfg(test)]\nmod tests { use std::collections::HashMap; }";
        assert!(rules_hit(test).is_empty());
    }

    #[test]
    fn std_time_path_flagged_once_per_site() {
        let src = "use std::time::Instant;\nfn f() { let t = other::time::now(); }";
        assert_eq!(rules_hit(src), vec![(Rule::Nondet, 1)]);
    }

    #[test]
    fn unwrap_and_macros_flagged() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"no\"); }";
        let hits = rules_hit(src);
        assert_eq!(hits.iter().filter(|(r, _)| *r == Rule::Panic).count(), 3);
    }

    #[test]
    fn unwrap_named_fn_not_flagged() {
        // A fn *named* unwrap (no preceding dot) is not a panic site.
        let src = "fn unwrap(x: u8) -> u8 { x }";
        assert!(rules_hit(src).iter().all(|(r, _)| *r != Rule::Panic));
    }

    #[test]
    fn gated_and_ctor_asserts_pass_bare_asserts_fail() {
        let gated =
            r#"fn f() { if cfg!(any(debug_assertions, feature = "check")) { assert!(x); } }"#;
        assert!(rules_hit(gated).is_empty());
        let ctor = "fn new(x: u8) { assert!(x < 4); }";
        assert!(rules_hit(ctor).is_empty());
        let bare = "fn step(x: u8) { assert!(x < 4); }";
        assert_eq!(rules_hit(bare), vec![(Rule::Hygiene, 1)]);
    }

    #[test]
    fn debug_assert_always_flagged_in_lib_code() {
        let src = "fn step() { debug_assert!(ok); }";
        assert_eq!(rules_hit(src), vec![(Rule::Hygiene, 1)]);
    }

    #[test]
    fn schedule_method_flagged_but_variants_pass() {
        let src = "fn f(q: &mut Q) { q.schedule(t, e); q.schedule_after(3, e); q.schedule_no_earlier(t, e); }";
        assert_eq!(rules_hit(src), vec![(Rule::Event, 1)]);
    }

    #[test]
    fn batch_drain_api_confined_to_dispatch_loops() {
        let src = "fn f(q: &mut Q, out: &mut Vec<E>) {\n    q.pop_batch(out);\n    q.rescind_delivered(2);\n}";
        assert_eq!(rules_hit(src), vec![(Rule::Event, 2), (Rule::Event, 3)]);
        // Free functions and unrelated identifiers stay clean.
        let clean = "fn f() { pop_batch(); let rescind_delivered = 1; }";
        assert!(rules_hit(clean).is_empty());
    }

    #[test]
    fn aliased_hash_iteration_is_flagged() {
        let src = "fn f() {\n    let m = HashMap::new();\n    let alias = m;\n    for k in alias.keys() { use_it(k); }\n}";
        let hits = rules_hit(src);
        // Line 2: the HashMap token itself; line 4: the aliased iteration.
        assert!(hits.contains(&(Rule::Nondet, 2)));
        assert!(hits.contains(&(Rule::Nondet, 4)));
    }

    #[test]
    fn btreemap_alias_iteration_is_clean() {
        let src = "fn f() {\n    let m = BTreeMap::new();\n    let alias = m;\n    for k in alias.keys() { use_it(k); }\n}";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn declared_type_tracks_without_constructor() {
        let src = "fn f(seed: Vec<(u8, u8)>) {\n    let m: HashMap<u8, u8> = seed.into_iter().collect();\n    for v in m.values() { use_it(v); }\n}";
        let hits = rules_hit(src);
        assert!(hits.contains(&(Rule::Nondet, 3)), "{hits:?}");
    }

    #[test]
    fn banned_names_inside_strings_do_not_match() {
        let src = "fn f() { let s = \"HashMap .unwrap() .schedule( assert!\"; }";
        assert!(run(src).is_empty());
    }
}
