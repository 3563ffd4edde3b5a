//! Workspace walking and the crate/directory policy table.
//!
//! Policy summary (see DESIGN.md "Static analysis" for the rationale):
//! - vendored facade crates (`serde`, `serde-derive`, `serde-json`,
//!   `criterion`) are third-party-shaped code and are skipped entirely;
//! - `sim-lint` itself is skipped (its fixtures and tests contain
//!   deliberately-bad snippets), as is the `bench` measurement harness;
//! - `sim-check` is a test oracle that asserts by design: only the
//!   `nondet` and `event` rules apply there;
//! - `sim-engine` defines the event queue, so the `event` rule (which
//!   bans raw `.schedule(` *callers* and confines the `.pop_batch(` /
//!   `.rescind_delivered(` batch-drain API to the sanctioned dispatch
//!   loops) is off inside it;
//! - `obs` (the observability layer) gets the full rule set — it exists
//!   to report *simulated* time, so the `nondet` wall-clock ban applies
//!   with one surgical allowance: `crates/obs/src/prof.rs`, the
//!   sanctioned host-side profiler, may read `std::time` (its output is
//!   declared non-deterministic and kept out of every deterministic
//!   artifact), while every other nondet check still applies to it;
//! - `fabric` (the interconnect model) also gets the full rule set: link
//!   timestamps are simulated time and routing tables must be
//!   construction-order deterministic, so both the wall-clock ban and
//!   the hygiene rules apply in full;
//! - binaries (`src/bin/`), `tests/`, `benches/`, `examples/` and any
//!   directory named `fixtures` are exempt: they are driver/test code
//!   where panicking on bad input or asserting freely is correct.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::FilePolicy;

/// Crates that are vendored third-party facades, or the lint tool itself.
const SKIP_CRATES: &[&str] = &[
    "serde",
    "serde-derive",
    "serde-json",
    "criterion",
    "sim-lint",
    "bench",
];

/// Directory names whose contents are never linted.
const SKIP_DIRS: &[&str] = &["tests", "benches", "examples", "bin", "fixtures", "target"];

/// A source file plus the rule families that apply to it.
#[derive(Debug)]
pub struct SourceFile {
    pub path: PathBuf,
    pub policy: FilePolicy,
}

/// Enumerate every lintable `.rs` file under the workspace `root`,
/// tagged with its policy. Deterministic order (sorted paths).
pub fn collect_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} has no crates/ directory; pass the workspace root",
                root.display()
            ),
        ));
    }
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        if SKIP_CRATES.contains(&name.as_str()) {
            continue;
        }
        let policy = crate_policy(&name);
        collect_rs(&dir.join("src"), policy, &mut out)?;
    }
    // The root package: its src/ holds the re-export facade; its tests/ and
    // examples/ are exempt driver code (excluded by not walking them).
    collect_rs(&root.join("src"), FilePolicy::ALL, &mut out)?;
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn crate_policy(name: &str) -> FilePolicy {
    match name {
        // Differential oracle: re-asserting simulator invariants is its job,
        // but it must still be deterministic and event-disciplined.
        "sim-check" => FilePolicy {
            nondet: true,
            wallclock: true,
            event: true,
            panic: false,
            hygiene: false,
            // The fuzzer derives every Gen from the case seed; keeping the
            // taint rule on here is exactly what catches a stray
            // `Gen(0xdead)` debugging constant before it lands.
            seed_taint: true,
            dead_config: true,
        },
        // Defining crate of the schedule API; its own internals may call
        // the raw primitive.
        "sim-engine" => FilePolicy {
            event: false,
            ..FilePolicy::ALL
        },
        // The interconnect model: full rules, spelled out rather than
        // left to the default so the policy table names every
        // simulation-time crate explicitly. Link admission times are
        // simulated cycles (nondet), and routing-table construction must
        // be deterministic in the face of arbitrary link-spec order
        // (hygiene); it schedules nothing itself, but the `event` rule
        // still bans any future drift toward raw `.schedule(` calls.
        "fabric" => FilePolicy {
            nondet: true,
            wallclock: true,
            event: true,
            panic: true,
            hygiene: true,
            seed_taint: true,
            dead_config: true,
        },
        // Everything else — including `obs`, the observability layer,
        // which is deterministic by contract (sim-time only: metrics and
        // traces must be bit-identical across `--jobs`) — gets every
        // rule, the wall-clock ban most of all.
        _ => FilePolicy::ALL,
    }
}

/// Per-file override layered on top of the crate policy: the sanctioned
/// host-side handler profiler, `crates/obs/src/prof.rs`, is exempt from
/// the wall-clock arm of `nondet` (it exists to read `Instant`). Every
/// other rule of the full set still applies to it.
fn file_policy(path: &Path, policy: FilePolicy) -> FilePolicy {
    if path.ends_with(Path::new("obs/src/prof.rs")) {
        return FilePolicy {
            wallclock: false,
            ..policy
        };
    }
    policy
}

/// The crate names `collect_workspace` skips, for `--list-rules`.
#[must_use]
pub fn skipped_crates() -> &'static [&'static str] {
    SKIP_CRATES
}

/// The policy table as displayable rows, for `--list-rules`: explicit
/// per-crate entries first, then the default everything-else row.
#[must_use]
pub fn policy_rows() -> Vec<(&'static str, FilePolicy)> {
    vec![
        ("sim-check", crate_policy("sim-check")),
        ("sim-engine", crate_policy("sim-engine")),
        ("fabric", crate_policy("fabric")),
        (
            "obs::prof",
            file_policy(Path::new("crates/obs/src/prof.rs"), FilePolicy::ALL),
        ),
        ("(default)", crate_policy("")),
    ]
}

/// Every cargo feature declared anywhere in the workspace: `[features]`
/// section keys from the root manifest and each `crates/*/Cargo.toml`.
/// The dead-config rule uses this to tell a live feature gate from a
/// gate on a feature nobody declares.
pub fn declared_features(root: &Path) -> io::Result<BTreeSet<String>> {
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        manifests.extend(dirs.into_iter().map(|d| d.join("Cargo.toml")));
    }
    let mut out = BTreeSet::new();
    for m in manifests {
        let Ok(text) = fs::read_to_string(&m) else {
            continue;
        };
        let mut in_features = false;
        for line in text.lines() {
            let line = line.trim();
            if let Some(section) = line.strip_prefix('[') {
                in_features = section.trim_end_matches(']').trim() == "features";
                continue;
            }
            if !in_features || line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((key, _)) = line.split_once('=') {
                let key = key.trim().trim_matches('"');
                if !key.is_empty() {
                    out.insert(key.to_string());
                }
            }
        }
    }
    Ok(out)
}

fn collect_rs(dir: &Path, policy: FilePolicy, out: &mut Vec<SourceFile>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            let dname = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&dname) {
                continue;
            }
            collect_rs(&p, policy, out)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            let policy = file_policy(&p, policy);
            out.push(SourceFile { path: p, policy });
        }
    }
    Ok(())
}
