//! Item-level model extraction for the flow pass.
//!
//! The token rules in [`crate::rules`] look at small neighbourhoods; the
//! flow rules need to know *what items exist* across files: enum
//! definitions with their variants, `match` expressions with their arms,
//! and `schedule*` call sites with the enum paths they construct. This
//! module lifts a lexed file into that shape. It is still not an AST —
//! just delimiter-matched spans over the token stream, which is exact
//! enough for the protocol idioms this workspace actually uses (and the
//! self-run test in `tests/workspace_clean.rs` pins that it stays so).
//!
//! Everything inside `#[test]`/`#[cfg(test)]` regions is excluded: test
//! code may mention variants freely without counting as protocol wiring.

use std::collections::BTreeSet;

use crate::lexer::{Lexed, Tok};
use crate::scan::{find_item_end, match_delim, Context};

/// A `Owner::Name` path occurrence (both segments capitalized), e.g.
/// `Event::Fill` or `Resolution::Walk`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathRef {
    pub owner: String,
    pub name: String,
    pub line: u32,
}

/// An `enum` definition with its variants in declaration order.
#[derive(Debug, Clone)]
pub struct EnumDef {
    pub name: String,
    pub line: u32,
    /// `(variant_name, decl_line)` pairs.
    pub variants: Vec<(String, u32)>,
}

/// One `match` expression: the enum paths matched by its arms, plus the
/// wildcard arm if present.
#[derive(Debug, Clone)]
pub struct MatchModel {
    /// Line of the `match` keyword.
    pub line: u32,
    /// Name of the enclosing function (innermost), or `"<file>"` at
    /// module scope.
    pub fn_name: String,
    /// Enum paths appearing in arm patterns (or-patterns yield several).
    pub arms: Vec<PathRef>,
    /// Line of a `_ => ...` arm, if any.
    pub wildcard: Option<u32>,
}

/// One enum path constructed inside a `schedule*` call's argument list.
#[derive(Debug, Clone)]
pub struct ProducerSite {
    pub enum_name: String,
    pub variant: String,
    pub line: u32,
    /// Which scheduling method carried it (`schedule_after`, ...).
    pub via: String,
    /// Name of the enclosing function (innermost), or the file name at
    /// module scope — the stable half of the producer's graph key.
    pub fn_name: String,
}

/// A function definition: signature plus body span, one node of the
/// workspace call graph.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// Type of the enclosing `impl` block, if any.
    pub owner: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Line of the body's closing brace (or trailing `;`).
    pub line_end: u32,
    /// Parameter names in declaration order, `self` excluded. Aligned
    /// positionally with [`CallSite::args`] for taint propagation.
    pub params: Vec<String>,
    /// Token span of the whole item, for enclosing-fn lookups.
    pub start: usize,
    pub end: usize,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.method(...)`.
    Method,
    /// `Type::func(...)` with a capitalized qualifier (`Self` included).
    Path(String),
    /// `func(...)`, or a `module::func(...)` path with a lowercase head.
    Free,
}

/// One call site. Macros never appear here (`name!(...)` puts a `!`
/// between the name and the parenthesis).
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index into [`FileModel::fns`] of the innermost enclosing function.
    pub caller: Option<usize>,
    pub kind: CallKind,
    pub callee: String,
    pub line: u32,
    /// The identifiers mentioned in each argument expression, in argument
    /// order — the dataflow layer's argument→parameter flow edges.
    pub args: Vec<BTreeSet<String>>,
}

/// A brace-bodied `struct` definition with its named fields.
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub line: u32,
    /// `(field_name, decl_line)` pairs.
    pub fields: Vec<(String, u32)>,
}

/// One `.field` access (read or write) outside test code.
#[derive(Debug, Clone)]
pub struct FieldAccess {
    pub name: String,
    pub line: u32,
    /// A plain `.field = ...` assignment. Compound assignments (`+=` and
    /// friends) read the old value, so they count as reads.
    pub write: bool,
    /// `#[cfg(feature = ...)]` groups guarding the access, outermost
    /// first; each group is live if any of its features is declared.
    pub cfg_groups: Vec<Vec<String>>,
}

/// A `let name = rhs;` binding with an identifier pattern — the
/// intraprocedural flow edges for taint propagation.
#[derive(Debug, Clone)]
pub struct LetBind {
    /// Index into [`FileModel::fns`] of the enclosing function.
    pub fn_idx: Option<usize>,
    pub name: String,
    pub line: u32,
    /// Identifiers mentioned in the right-hand side.
    pub rhs: BTreeSet<String>,
}

/// A site that constructs RNG state: a `let`/field-assignment/struct-
/// literal init whose destination name looks like an RNG (`rng`, `prng`,
/// `*_rng`, `rng_*`), or a `RngType::new(...)` / `RngType(...)` call.
/// The seed-taint rule demands the seeding expression derive from the
/// master seed.
#[derive(Debug, Clone)]
pub struct RngSite {
    pub fn_idx: Option<usize>,
    pub dest: String,
    pub line: u32,
    /// Identifiers mentioned in the seeding expression.
    pub rhs: BTreeSet<String>,
    /// Normalized source text of the seeding expression, used to detect
    /// the same seed feeding two independent streams.
    pub rhs_text: String,
}

/// Everything the flow rules need to know about one source file.
#[derive(Debug)]
pub struct FileModel {
    pub file: String,
    pub enums: Vec<EnumDef>,
    pub matches: Vec<MatchModel>,
    pub producers: Vec<ProducerSite>,
    /// Every non-test `Owner::Name` path in the file.
    pub path_refs: Vec<PathRef>,
    /// Raw text of every non-test string literal (quotes included).
    pub lits: BTreeSet<String>,
    /// Every non-test identifier.
    pub idents: BTreeSet<String>,
    /// Function definitions in declaration order.
    pub fns: Vec<FnDef>,
    /// Call sites in token order.
    pub calls: Vec<CallSite>,
    /// Brace-bodied struct definitions.
    pub structs: Vec<StructDef>,
    /// `.field` reads and writes.
    pub fields: Vec<FieldAccess>,
    /// `let` bindings with identifier patterns.
    pub lets: Vec<LetBind>,
    /// RNG-state construction sites.
    pub rng_sites: Vec<RngSite>,
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

fn is_cap(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// `Owner::Name` with both segments capitalized starting at token `i`.
fn cap_path_at(lx: &Lexed, i: usize) -> Option<PathRef> {
    let owner = ident(lx, i)?;
    if !is_cap(owner) || !punct(lx, i + 1, ':') || !punct(lx, i + 2, ':') {
        return None;
    }
    let name = ident(lx, i + 3)?;
    if !is_cap(name) {
        return None;
    }
    Some(PathRef {
        owner: owner.to_string(),
        name: name.to_string(),
        line: lx.tokens[i].line,
    })
}

/// Does this name follow the workspace's RNG-state naming convention?
pub(crate) fn is_rng_name(name: &str) -> bool {
    name == "rng" || name == "prng" || name.ends_with("_rng") || name.starts_with("rng_")
}

/// Type names whose construction *is* an RNG stream (`Gen(seed)` in
/// sim-check, any `*Rng*`/`*Random*` type elsewhere).
fn is_rng_type(name: &str) -> bool {
    name == "Gen" || name.contains("Rng") || name.contains("Random")
}

/// Keywords that precede `(` without being call sites.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "let", "loop", "in", "as", "move", "unsafe",
    "else", "impl", "use", "pub", "mod", "where", "dyn", "ref", "mut", "break", "continue",
    "struct", "enum", "union", "trait", "type", "const", "static", "crate", "super", "self",
];

/// Keywords that, appearing right before a `Type {`, make the brace a
/// definition/item body rather than a struct literal.
const DEF_KEYWORDS: &[&str] = &[
    "struct", "enum", "union", "trait", "impl", "mod", "fn", "for",
];

/// Token spans of `impl` blocks with their subject type: the first
/// capitalized identifier of the header, reset by `for` so
/// `impl Trait for Type` yields `Type`.
fn impl_spans(lx: &Lexed, cx: &Context) -> Vec<(usize, usize, String)> {
    let n = lx.tokens.len();
    let mut out = Vec::new();
    for i in 0..n {
        if cx.test[i] || ident(lx, i) != Some("impl") {
            continue;
        }
        let mut angle = 0i64;
        let mut ty: Option<&str> = None;
        let mut j = i + 1;
        while j < n {
            match &lx.tokens[j].tok {
                Tok::Punct('<') => angle += 1,
                // `->` in a where-clause bound must not unbalance the count.
                Tok::Punct('>') if !punct(lx, j.wrapping_sub(1), '-') => {
                    angle = (angle - 1).max(0);
                }
                Tok::Punct('{' | ';') if angle == 0 => break,
                Tok::Ident(s) if angle == 0 => {
                    if s == "for" {
                        ty = None;
                    } else if ty.is_none() && is_cap(s) {
                        ty = Some(s.as_str());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j < n && punct(lx, j, '{') {
            if let Some(t) = ty {
                out.push((i, match_delim(lx, j, '{', '}'), t.to_string()));
            }
        }
    }
    out
}

/// Parameter names of the `fn` whose name token is at `i_name`:
/// `ident :` pairs at depth 0 of the parameter list, `self` excluded.
fn fn_params(lx: &Lexed, i_name: usize) -> Vec<String> {
    let n = lx.tokens.len();
    let mut j = i_name + 1;
    // Skip generics `<...>` (watching for `->` inside bounds).
    if punct(lx, j, '<') {
        let mut angle = 0i64;
        while j < n {
            match lx.tokens[j].tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') if !punct(lx, j.wrapping_sub(1), '-') => {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    if !punct(lx, j, '(') {
        return Vec::new();
    }
    let rp = match_delim(lx, j, '(', ')');
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut k = j + 1;
    while k < rp {
        match &lx.tokens[k].tok {
            Tok::Punct('(' | '{' | '[') => depth += 1,
            Tok::Punct(')' | '}' | ']') => depth -= 1,
            Tok::Ident(s)
                if depth == 0
                    && s != "self"
                    && s != "mut"
                    && punct(lx, k + 1, ':')
                    && !punct(lx, k + 2, ':') =>
            {
                out.push(s.clone());
            }
            _ => {}
        }
        k += 1;
    }
    out
}

/// All non-test function definitions with owners, params and spans.
fn fn_defs(lx: &Lexed, cx: &Context) -> Vec<FnDef> {
    let impls = impl_spans(lx, cx);
    let mut out = Vec::new();
    for i in 0..lx.tokens.len() {
        if cx.test[i] || ident(lx, i) != Some("fn") {
            continue;
        }
        let Some(name) = ident(lx, i + 1) else {
            continue;
        };
        let end = find_item_end(lx, i + 2);
        let owner = impls
            .iter()
            .filter(|(a, b, _)| *a <= i && i <= *b)
            .max_by_key(|(a, _, _)| *a)
            .map(|(_, _, t)| t.clone());
        out.push(FnDef {
            name: name.to_string(),
            owner,
            line: lx.tokens[i].line,
            line_end: lx.tokens[end].line,
            params: fn_params(lx, i + 1),
            start: i,
            end,
        });
    }
    out
}

/// Index of the innermost function definition containing token `i`.
fn enclosing_fn_idx(defs: &[FnDef], i: usize) -> Option<usize> {
    defs.iter()
        .enumerate()
        .filter(|(_, d)| d.start <= i && i <= d.end)
        .max_by_key(|(_, d)| d.start)
        .map(|(k, _)| k)
}

/// Name of the innermost function containing token `i`.
fn enclosing_fn(defs: &[FnDef], i: usize, fallback: &str) -> String {
    enclosing_fn_idx(defs, i).map_or_else(|| fallback.to_string(), |k| defs[k].name.clone())
}

/// All identifiers in a token range.
fn idents_in(lx: &Lexed, start: usize, end: usize) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for t in &lx.tokens[start..end.min(lx.tokens.len())] {
        if let Tok::Ident(s) = &t.tok {
            out.insert(s.clone());
        }
    }
    out
}

/// Normalized (single-spaced) source text of a token range.
fn text_of(lx: &Lexed, start: usize, end: usize) -> String {
    let mut s = String::new();
    for t in &lx.tokens[start..end.min(lx.tokens.len())] {
        if !s.is_empty() {
            s.push(' ');
        }
        match &t.tok {
            Tok::Ident(i) => s.push_str(i),
            Tok::Lit(l) => s.push_str(l),
            Tok::Punct(p) => s.push(*p),
        }
    }
    s
}

/// Skip any `#[...]` attributes starting at `i`; return the first
/// non-attribute token index.
fn skip_attrs(lx: &Lexed, mut i: usize) -> usize {
    while punct(lx, i, '#') && punct(lx, i + 1, '[') {
        i = match_delim(lx, i + 1, '[', ']') + 1;
    }
    i
}

/// Parse the variant list of an `enum` whose body spans `(lb, rb)`
/// (exclusive of the braces).
fn parse_variants(lx: &Lexed, lb: usize, rb: usize) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut i = lb + 1;
    while i < rb {
        i = skip_attrs(lx, i);
        if i >= rb {
            break;
        }
        let Some(name) = ident(lx, i) else {
            i += 1;
            continue;
        };
        out.push((name.to_string(), lx.tokens[i].line));
        // Skip the payload/discriminant to the `,` closing this variant.
        let mut depth = 0i64;
        while i < rb {
            match lx.tokens[i].tok {
                Tok::Punct('(' | '{' | '[') => depth += 1,
                Tok::Punct(')' | '}' | ']') => depth -= 1,
                Tok::Punct(',') if depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        i += 1;
    }
    out
}

/// Parse the arms of a `match` whose body spans `(lb, rb)`.
fn parse_match_body(lx: &Lexed, lb: usize, rb: usize) -> (Vec<PathRef>, Option<u32>) {
    let mut arms = Vec::new();
    let mut wildcard = None;
    let mut i = lb + 1;
    while i < rb {
        i = skip_attrs(lx, i);
        // Pattern: tokens until `=>` at zero nested depth.
        let pat_start = i;
        let mut depth = 0i64;
        while i < rb {
            match lx.tokens[i].tok {
                Tok::Punct('(' | '{' | '[') => depth += 1,
                Tok::Punct(')' | '}' | ']') => depth -= 1,
                Tok::Punct('=') if depth == 0 && punct(lx, i + 1, '>') => break,
                _ => {}
            }
            i += 1;
        }
        if i >= rb {
            break;
        }
        let pat_end = i; // index of `=`
        let mut saw_path = false;
        let mut j = pat_start;
        while j < pat_end {
            if let Some(p) = cap_path_at(lx, j) {
                arms.push(p);
                saw_path = true;
                j += 4;
            } else {
                j += 1;
            }
        }
        // A single-token `_` or lowercase binding pattern is a catch-all.
        if !saw_path && pat_end == pat_start + 1 {
            if let Some(id) = ident(lx, pat_start) {
                if id == "_" || id.chars().next().is_some_and(char::is_lowercase) {
                    wildcard.get_or_insert(lx.tokens[pat_start].line);
                }
            }
        }
        // Arm expression: a brace block, or tokens to the `,` at depth 0.
        i = pat_end + 2;
        if punct(lx, i, '{') {
            i = match_delim(lx, i, '{', '}') + 1;
            if punct(lx, i, ',') {
                i += 1;
            }
        } else {
            let mut depth = 0i64;
            while i < rb {
                match lx.tokens[i].tok {
                    Tok::Punct('(' | '{' | '[') => depth += 1,
                    Tok::Punct(')' | '}' | ']') => depth -= 1,
                    Tok::Punct(',') if depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
                i += 1;
            }
        }
    }
    (arms, wildcard)
}

/// Parse the named fields of a struct whose body spans `(lb, rb)`.
fn parse_struct_fields(lx: &Lexed, lb: usize, rb: usize) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut i = lb + 1;
    while i < rb {
        i = skip_attrs(lx, i);
        if i >= rb {
            break;
        }
        if ident(lx, i) == Some("pub") {
            i += 1;
            if punct(lx, i, '(') {
                i = match_delim(lx, i, '(', ')') + 1;
            }
        }
        if let Some(f) = ident(lx, i) {
            if punct(lx, i + 1, ':') && !punct(lx, i + 2, ':') {
                out.push((f.to_string(), lx.tokens[i].line));
            }
        }
        // Skip the field type to the `,` closing this field. Generic
        // argument commas can split early, but a spurious split never
        // starts with `ident :` at depth 0, so no false fields result.
        let mut depth = 0i64;
        while i < rb {
            match lx.tokens[i].tok {
                Tok::Punct('(' | '{' | '[') => depth += 1,
                Tok::Punct(')' | '}' | ']') => depth -= 1,
                Tok::Punct(',') if depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        i += 1;
    }
    out
}

/// Token spans of struct-literal bodies: a `{` preceded by a capitalized
/// path (or `Self`) that is not itself a definition header. Known
/// imprecision: `-> Type {` and `where T: Bound {` headers match too, but
/// their statement-level `ident :` occurrences are filtered out by the
/// `=`-in-rhs check in [`literal_rng_sites`].
fn literal_spans(lx: &Lexed, cx: &Context) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 1..lx.tokens.len() {
        if cx.test[i] || !punct(lx, i, '{') {
            continue;
        }
        let Some(last) = ident(lx, i - 1) else {
            continue;
        };
        if !is_cap(last) && last != "Self" {
            continue;
        }
        // Walk back over `A::B::C` to the path head.
        let mut k = i - 1;
        while k >= 3 && punct(lx, k - 1, ':') && punct(lx, k - 2, ':') && ident(lx, k - 3).is_some()
        {
            k -= 3;
        }
        if k >= 1 {
            if let Some(prev) = ident(lx, k - 1) {
                if DEF_KEYWORDS.contains(&prev) || prev == "match" {
                    continue;
                }
            }
        }
        out.push((i, match_delim(lx, i, '{', '}')));
    }
    out
}

/// RNG-named field initializers inside struct-literal spans:
/// `Stream { rng: <expr>, ... }`. An rhs containing `=` marks a false
/// span (a statement, not a field init) and is dropped.
fn literal_rng_sites(lx: &Lexed, spans: &[(usize, usize)], defs: &[FnDef], out: &mut Vec<RngSite>) {
    for &(lb, rb) in spans {
        let mut i = lb + 1;
        let mut depth = 0i64;
        while i < rb {
            match &lx.tokens[i].tok {
                Tok::Punct('(' | '{' | '[') => depth += 1,
                Tok::Punct(')' | '}' | ']') => depth -= 1,
                Tok::Punct('#') if depth == 0 && punct(lx, i + 1, '[') => {
                    i = match_delim(lx, i + 1, '[', ']');
                }
                Tok::Ident(s)
                    if depth == 0
                        && punct(lx, i + 1, ':')
                        && !punct(lx, i + 2, ':')
                        && !punct(lx, i - 1, ':') =>
                {
                    let start = i + 2;
                    let mut j = start;
                    let mut d2 = 0i64;
                    let mut has_eq = false;
                    while j < rb {
                        match lx.tokens[j].tok {
                            Tok::Punct('(' | '{' | '[') => d2 += 1,
                            Tok::Punct(')' | '}' | ']') => d2 -= 1,
                            Tok::Punct(',') if d2 == 0 => break,
                            Tok::Punct('=') if d2 == 0 => has_eq = true,
                            _ => {}
                        }
                        j += 1;
                    }
                    if is_rng_name(s) && !has_eq && j > start {
                        out.push(RngSite {
                            fn_idx: enclosing_fn_idx(defs, i),
                            dest: s.clone(),
                            line: lx.tokens[i].line,
                            rhs: idents_in(lx, start, j),
                            rhs_text: text_of(lx, start, j),
                        });
                    }
                    i = j;
                }
                _ => {}
            }
            i += 1;
        }
    }
}

/// Scan an expression from `start` to the `;` (or unbalanced close) that
/// ends it; returns the end index (exclusive).
fn expr_end(lx: &Lexed, start: usize) -> usize {
    let n = lx.tokens.len();
    let mut depth = 0i64;
    let mut j = start;
    while j < n {
        match lx.tokens[j].tok {
            Tok::Punct('(' | '{' | '[') => depth += 1,
            Tok::Punct(')' | '}' | ']') => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            Tok::Punct(';') if depth == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    n
}

/// Split a call's argument list `( ... )` into per-argument ident sets.
fn parse_args(lx: &Lexed, lp: usize, rp: usize) -> Vec<BTreeSet<String>> {
    let mut out = Vec::new();
    if rp <= lp + 1 {
        return out;
    }
    let mut cur = BTreeSet::new();
    let mut depth = 0i64;
    for j in lp + 1..rp {
        match &lx.tokens[j].tok {
            Tok::Punct('(' | '{' | '[') => depth += 1,
            Tok::Punct(')' | '}' | ']') => depth -= 1,
            Tok::Punct(',') if depth == 0 => {
                out.push(std::mem::take(&mut cur));
            }
            Tok::Ident(s) => {
                cur.insert(s.clone());
            }
            _ => {}
        }
    }
    out.push(cur);
    out
}

/// The scheduling methods whose arguments count as event production.
const SCHEDULE_METHODS: &[&str] = &["schedule", "schedule_after", "schedule_no_earlier"];

/// Lift one lexed file into its item-level model. `cx` supplies the test
/// mask; tokens inside test regions contribute nothing.
pub fn extract(file: &str, lx: &Lexed, cx: &Context) -> FileModel {
    let mut m = FileModel {
        file: file.to_string(),
        enums: Vec::new(),
        matches: Vec::new(),
        producers: Vec::new(),
        path_refs: Vec::new(),
        lits: BTreeSet::new(),
        idents: BTreeSet::new(),
        fns: fn_defs(lx, cx),
        calls: Vec::new(),
        structs: Vec::new(),
        fields: Vec::new(),
        lets: Vec::new(),
        rng_sites: Vec::new(),
    };
    let n = lx.tokens.len();
    for i in 0..n {
        if cx.test[i] {
            continue;
        }
        match &lx.tokens[i].tok {
            Tok::Lit(s) => {
                if s.starts_with('"') || s.starts_with("r\"") || s.starts_with("r#") {
                    m.lits.insert(s.clone());
                }
                continue;
            }
            Tok::Ident(s) => {
                m.idents.insert(s.clone());
            }
            Tok::Punct(_) => continue,
        }
        if let Some(p) = cap_path_at(lx, i) {
            m.path_refs.push(p);
        }
        let id = ident(lx, i).unwrap_or("");
        // Enum definition: `enum Name { ... }`.
        if id == "enum" {
            if let Some(name) = ident(lx, i + 1) {
                // The body brace is the first `{` at zero paren/bracket
                // depth (generics use `<>`, which the lexer leaves as
                // plain puncts and which never nest braces before the
                // body in this codebase).
                let mut j = i + 2;
                let mut ok = false;
                while j < n {
                    match lx.tokens[j].tok {
                        Tok::Punct('{') => {
                            ok = true;
                            break;
                        }
                        Tok::Punct(';') => break,
                        _ => j += 1,
                    }
                }
                if ok {
                    let rb = match_delim(lx, j, '{', '}');
                    m.enums.push(EnumDef {
                        name: name.to_string(),
                        line: lx.tokens[i].line,
                        variants: parse_variants(lx, j, rb),
                    });
                }
            }
        }
        // Match expression: `match scrutinee { arms }`.
        if id == "match" {
            let mut j = i + 1;
            let mut paren = 0i64;
            let mut bracket = 0i64;
            while j < n {
                match lx.tokens[j].tok {
                    Tok::Punct('(') => paren += 1,
                    Tok::Punct(')') => paren -= 1,
                    Tok::Punct('[') => bracket += 1,
                    Tok::Punct(']') => bracket -= 1,
                    Tok::Punct('{') if paren == 0 && bracket == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if j < n {
                let rb = match_delim(lx, j, '{', '}');
                let (arms, wildcard) = parse_match_body(lx, j, rb);
                m.matches.push(MatchModel {
                    line: lx.tokens[i].line,
                    fn_name: enclosing_fn(&m.fns, i, file),
                    arms,
                    wildcard,
                });
            }
        }
        // Producer site: `.schedule*( ... Owner::Variant ... )`. Requiring
        // the leading `.` excludes the methods' own definitions.
        if SCHEDULE_METHODS.contains(&id) && i > 0 && punct(lx, i - 1, '.') && punct(lx, i + 1, '(')
        {
            let rp = match_delim(lx, i + 1, '(', ')');
            let mut j = i + 2;
            while j < rp {
                if let Some(p) = cap_path_at(lx, j) {
                    m.producers.push(ProducerSite {
                        enum_name: p.owner,
                        variant: p.name,
                        line: p.line,
                        via: id.to_string(),
                        fn_name: enclosing_fn(&m.fns, i, file),
                    });
                    j += 4;
                } else {
                    j += 1;
                }
            }
        }
        // Call site: `name(` that is neither a keyword nor a definition
        // (`fn name(` and tuple-struct `struct Name(` both excluded).
        if punct(lx, i + 1, '(')
            && !NON_CALL_KEYWORDS.contains(&id)
            && !(i > 0 && matches!(ident(lx, i - 1), Some("fn" | "struct")))
        {
            let kind = if i > 0 && punct(lx, i - 1, '.') {
                CallKind::Method
            } else if i >= 3 && punct(lx, i - 1, ':') && punct(lx, i - 2, ':') {
                match ident(lx, i - 3) {
                    Some(o) if is_cap(o) || o == "Self" => CallKind::Path(o.to_string()),
                    _ => CallKind::Free,
                }
            } else {
                CallKind::Free
            };
            let rp = match_delim(lx, i + 1, '(', ')');
            let args = parse_args(lx, i + 1, rp);
            let caller = enclosing_fn_idx(&m.fns, i);
            // RNG-typed constructions are seed-taint sites regardless of
            // destination name: `SmallRng::new(seed)`, `Gen(seed)`.
            let rng_ctor = match &kind {
                CallKind::Path(o) if is_rng_type(o) && (id == "new" || id == "seeded") => {
                    Some(o.clone())
                }
                CallKind::Free if is_cap(id) && is_rng_type(id) => Some(id.to_string()),
                _ => None,
            };
            if let Some(ty) = rng_ctor {
                m.rng_sites.push(RngSite {
                    fn_idx: caller,
                    dest: ty,
                    line: lx.tokens[i].line,
                    rhs: idents_in(lx, i + 2, rp),
                    rhs_text: text_of(lx, i + 2, rp),
                });
            }
            m.calls.push(CallSite {
                caller,
                kind,
                callee: id.to_string(),
                line: lx.tokens[i].line,
                args,
            });
        }
        // Field access: `.name` not part of a range, a method call, or a
        // float literal (the lexer folds those into one Lit token).
        if i > 0
            && punct(lx, i - 1, '.')
            && !(i > 1 && punct(lx, i - 2, '.'))
            && !punct(lx, i + 1, '(')
        {
            let write = punct(lx, i + 1, '=') && !punct(lx, i + 2, '=');
            m.fields.push(FieldAccess {
                name: id.to_string(),
                line: lx.tokens[i].line,
                write,
                cfg_groups: cx
                    .features
                    .iter()
                    .filter(|(a, b, _)| *a <= i && i <= *b)
                    .map(|(_, _, g)| g.clone())
                    .collect(),
            });
            // RNG field assignment: `recv.rng = <expr>;`.
            if write && is_rng_name(id) {
                let start = i + 2;
                let end = expr_end(lx, start);
                m.rng_sites.push(RngSite {
                    fn_idx: enclosing_fn_idx(&m.fns, i),
                    dest: id.to_string(),
                    line: lx.tokens[i].line,
                    rhs: idents_in(lx, start, end),
                    rhs_text: text_of(lx, start, end),
                });
            }
        }
        // Struct definition: `struct Name { fields }` (tuple and unit
        // structs carry no named fields and are skipped).
        if id == "struct" {
            if let Some(name) = ident(lx, i + 1) {
                let mut j = i + 2;
                let mut angle = 0i64;
                let mut body = None;
                while j < n {
                    match lx.tokens[j].tok {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') if !punct(lx, j.wrapping_sub(1), '-') => {
                            angle = (angle - 1).max(0);
                        }
                        Tok::Punct('{') if angle == 0 => {
                            body = Some(j);
                            break;
                        }
                        Tok::Punct(';' | '(') if angle == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(lb) = body {
                    let rb = match_delim(lx, lb, '{', '}');
                    m.structs.push(StructDef {
                        name: name.to_string(),
                        line: lx.tokens[i].line,
                        fields: parse_struct_fields(lx, lb, rb),
                    });
                }
            }
        }
        // Let binding with an identifier pattern: `let [mut] name [: T] = rhs;`.
        if id == "let" {
            let mut j = i + 1;
            if ident(lx, j) == Some("mut") {
                j += 1;
            }
            if let Some(name) = ident(lx, j) {
                if name != "_" && !is_cap(name) {
                    j += 1;
                    if punct(lx, j, ':') && !punct(lx, j + 1, ':') {
                        j += 1;
                        let mut angle = 0i64;
                        while j < n {
                            match lx.tokens[j].tok {
                                Tok::Punct('<') => angle += 1,
                                Tok::Punct('>') if !punct(lx, j.wrapping_sub(1), '-') => {
                                    angle -= 1;
                                }
                                Tok::Punct('=' | ';') if angle <= 0 => break,
                                _ => {}
                            }
                            j += 1;
                        }
                    }
                    if punct(lx, j, '=') && !punct(lx, j + 1, '=') {
                        let start = j + 1;
                        let end = expr_end(lx, start);
                        let rhs = idents_in(lx, start, end);
                        if is_rng_name(name) {
                            m.rng_sites.push(RngSite {
                                fn_idx: enclosing_fn_idx(&m.fns, i),
                                dest: name.to_string(),
                                line: lx.tokens[i].line,
                                rhs: rhs.clone(),
                                rhs_text: text_of(lx, start, end),
                            });
                        }
                        m.lets.push(LetBind {
                            fn_idx: enclosing_fn_idx(&m.fns, i),
                            name: name.to_string(),
                            line: lx.tokens[i].line,
                            rhs,
                        });
                    }
                }
            }
        }
    }
    literal_rng_sites(lx, &literal_spans(lx, cx), &m.fns, &mut m.rng_sites);
    m.rng_sites.sort_by_key(|s| (s.line, s.dest.clone()));
    m.rng_sites
        .dedup_by(|a, b| a.line == b.line && a.dest == b.dest);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scan::scan;

    fn model(src: &str) -> FileModel {
        let lx = lex(src);
        let cx = scan(&lx);
        extract("t.rs", &lx, &cx)
    }

    #[test]
    fn enum_variants_with_payloads_and_attrs() {
        let src = "/// doc\npub enum E {\n    A,\n    #[allow(dead_code)]\n    B { x: u8, y: Vec<u8> },\n    C(u8, (u8, u8)),\n}\n";
        let m = model(src);
        assert_eq!(m.enums.len(), 1);
        assert_eq!(m.enums[0].name, "E");
        assert_eq!(
            m.enums[0].variants,
            vec![
                ("A".to_string(), 3),
                ("B".to_string(), 5),
                ("C".to_string(), 6)
            ]
        );
    }

    #[test]
    fn match_arms_struct_patterns_and_wildcard() {
        let src = "fn go(e: E) {\n    match e {\n        E::A => one(),\n        E::B { x, .. } | E::C(..) => { two(x) }\n        _ => {}\n    }\n}\n";
        let m = model(src);
        assert_eq!(m.matches.len(), 1);
        let mm = &m.matches[0];
        assert_eq!(mm.fn_name, "go");
        let arms: Vec<(&str, u32)> = mm.arms.iter().map(|p| (p.name.as_str(), p.line)).collect();
        assert_eq!(arms, vec![("A", 3), ("B", 4), ("C", 4)]);
        assert_eq!(mm.wildcard, Some(5));
    }

    #[test]
    fn producer_sites_require_method_call_form() {
        let src = "fn f(q: &mut Q) {\n    q.schedule_after(3, Event::Fill { res: Resolution::Walk });\n}\nfn schedule_after(x: u8) {}\n";
        let m = model(src);
        let sites: Vec<(&str, &str)> = m
            .producers
            .iter()
            .map(|p| (p.enum_name.as_str(), p.variant.as_str()))
            .collect();
        assert_eq!(sites, vec![("Event", "Fill"), ("Resolution", "Walk")]);
        assert!(m.producers.iter().all(|p| p.via == "schedule_after"));
    }

    #[test]
    fn test_regions_are_excluded() {
        let src = "#[cfg(test)]\nmod tests {\n    pub enum Hidden { X }\n    fn f(q: &mut Q) { q.schedule_after(1, Event::Ghost); }\n}\n";
        let m = model(src);
        assert!(m.enums.is_empty());
        assert!(m.producers.is_empty());
        assert!(m.path_refs.is_empty());
    }

    #[test]
    fn lits_and_idents_collected() {
        let src = "fn name() -> &'static str { match r { R::A => \"a_hit\" } }\nstruct M { a_hit: u64 }\n";
        let m = model(src);
        assert!(m.lits.contains("\"a_hit\""));
        assert!(m.idents.contains("a_hit"));
    }

    #[test]
    fn fn_defs_carry_owner_and_params() {
        let src = "impl Sys {\n    fn run(&mut self, budget: u64, cap: usize) { self.step(budget); }\n}\nimpl Clone for Sys {\n    fn clone(&self) -> Sys { todo() }\n}\nfn free(x: u8) {}\n";
        let m = model(src);
        let sigs: Vec<(Option<&str>, &str, &[String])> = m
            .fns
            .iter()
            .map(|f| (f.owner.as_deref(), f.name.as_str(), f.params.as_slice()))
            .collect();
        assert_eq!(sigs.len(), 3);
        assert_eq!(sigs[0].0, Some("Sys"));
        assert_eq!(sigs[0].1, "run");
        assert_eq!(sigs[0].2, &["budget".to_string(), "cap".to_string()]);
        assert_eq!(sigs[1], (Some("Sys"), "clone", &[][..]));
        assert_eq!(sigs[2], (None, "free", &["x".to_string()][..]));
        assert_eq!(m.fns[0].line, 2);
        assert!(m.fns[0].line_end >= 2);
    }

    #[test]
    fn call_sites_classified_by_kind() {
        let src = "fn f(q: &mut Q) {\n    q.pop_batch(out);\n    Sys::boot(seed, cap);\n    helper(x);\n    macro_call!(y);\n}\n";
        let m = model(src);
        let calls: Vec<(&CallKind, &str)> = m
            .calls
            .iter()
            .map(|c| (&c.kind, c.callee.as_str()))
            .collect();
        assert_eq!(
            calls,
            vec![
                (&CallKind::Method, "pop_batch"),
                (&CallKind::Path("Sys".to_string()), "boot"),
                (&CallKind::Free, "helper"),
            ]
        );
        assert_eq!(m.calls[1].args.len(), 2);
        assert!(m.calls[1].args[0].contains("seed"));
        assert!(m.calls[1].args[1].contains("cap"));
        assert_eq!(m.calls[0].caller, Some(0));
    }

    #[test]
    fn struct_fields_and_accesses() {
        let src = "pub struct FooConfig {\n    pub entries: usize,\n    pub(crate) ways: u8,\n    map: BTreeMap<u64, u64>,\n}\nfn use_it(c: &FooConfig) {\n    read(c.entries);\n    c.ways = 2;\n}\n";
        let m = model(src);
        assert_eq!(m.structs.len(), 1);
        assert_eq!(m.structs[0].name, "FooConfig");
        let names: Vec<&str> = m.structs[0]
            .fields
            .iter()
            .map(|(f, _)| f.as_str())
            .collect();
        assert_eq!(names, vec!["entries", "ways", "map"]);
        let acc: Vec<(&str, bool)> = m
            .fields
            .iter()
            .map(|a| (a.name.as_str(), a.write))
            .collect();
        assert_eq!(acc, vec![("entries", false), ("ways", true)]);
    }

    #[test]
    fn feature_gated_read_records_its_group() {
        let src = "#[cfg(feature = \"ghost\")]\nfn g(c: &C) { read(c.knob); }\nfn h(c: &C) { read(c.live); }\n";
        let m = model(src);
        let knob = m.fields.iter().find(|a| a.name == "knob").unwrap();
        assert_eq!(knob.cfg_groups, vec![vec!["ghost".to_string()]]);
        let live = m.fields.iter().find(|a| a.name == "live").unwrap();
        assert!(live.cfg_groups.is_empty());
    }

    #[test]
    fn rng_sites_from_let_assign_literal_and_ctor() {
        let src = "fn a(seed: u64) { let mut rng = seed ^ 7; }\n\
                   fn b(s: &mut S) { s.rng = 0xbeef; }\n\
                   fn c(cfg: &C) -> T { T { rng: cfg.seed | 1, x: 0 } }\n\
                   fn d(seed: u64) -> Gen { Gen(seed) }\n\
                   struct T { rng: u64, x: u8 }\n";
        let m = model(src);
        let sites: Vec<(&str, u32)> = m
            .rng_sites
            .iter()
            .map(|s| (s.dest.as_str(), s.line))
            .collect();
        assert_eq!(
            sites,
            vec![("rng", 1), ("rng", 2), ("rng", 3), ("Gen", 4)],
            "{:?}",
            m.rng_sites
        );
        // The struct *definition* field `rng: u64` (line 5) is not a site.
        assert!(m.rng_sites.iter().all(|s| s.line != 5));
        assert!(m.rng_sites[0].rhs.contains("seed"));
        assert_eq!(m.rng_sites[0].rhs_text, "seed ^ 7");
        assert!(m.rng_sites[2].rhs.contains("seed"));
    }

    #[test]
    fn compound_rng_evolution_is_not_a_site() {
        // `self.rng ^= x` reads the old value (not a construction), and
        // `self.rng = self.rng.wrapping_mul(k)` names itself in the rhs
        // (the checker exempts self-evolution via that ident).
        let src = "fn step(&mut self) { self.rng ^= 17; }\n";
        let m = model(src);
        assert!(m.rng_sites.is_empty(), "{:?}", m.rng_sites);
    }

    #[test]
    fn let_binds_capture_rhs_idents() {
        let src =
            "fn f(seed: u64) {\n    let salt = mix(seed, 3);\n    let stream = salt + 1;\n}\n";
        let m = model(src);
        let binds: Vec<(&str, bool)> = m
            .lets
            .iter()
            .map(|l| (l.name.as_str(), l.rhs.contains("seed")))
            .collect();
        assert_eq!(binds, vec![("salt", true), ("stream", false)]);
        assert!(m.lets[1].rhs.contains("salt"));
        assert_eq!(m.lets[0].fn_idx, Some(0));
    }
}
