//! Regenerates the paper's tables and figures as text tables.
//!
//! ```text
//! figures [--quick] [--budget N] [--seed N] [--jobs N]
//!         [--breakdown] [--metrics-json FILE]
//!         [--timeline] [--timeline-json FILE] [--timeline-window N]
//!         [--trace-out FILE] [--trace-sample N] [--profile-json FILE]
//!         [--topology-sweep] [fig14 fig16 ... | all]
//! ```
//!
//! With no experiment arguments, runs everything in DESIGN.md order.
//! `--topology-sweep` (or the experiment name `topology-sweep`) adds the
//! interconnect scaling sweep — an extension experiment kept out of
//! `all` so the default output stays exactly the paper's figure set.
//! `--jobs N` runs independent experiments on N worker threads; the table
//! output on stdout is byte-identical for every `--jobs` value (runners
//! are pure functions of their derived options), so parallelism is purely
//! a wall-time knob. A per-runner telemetry summary (wall time,
//! simulations, instructions, events, sim-rate) is printed to stderr at
//! the end.
//!
//! `--breakdown` turns on the observability layer and prints each
//! runner's per-app translation-latency breakdown to stderr;
//! `--metrics-json FILE` writes the suite's merged metrics snapshot
//! (schema in `EXPERIMENTS.md`). Both outputs are byte-identical across
//! `--jobs` values: per-runner snapshots merge commutatively and are
//! combined in input order.
//!
//! Timeline & profiling: `--timeline` prints each run's epoch-windowed
//! sparkline phase table to stderr; `--timeline-json FILE` writes every
//! run's timeline as one JSON document (schema `timeline/v1`, runners in
//! input order — byte-identical across `--jobs` values);
//! `--timeline-window N` overrides the window length in cycles (0 =
//! auto). `--trace-out FILE` writes one Perfetto trace per simulated run,
//! named `{stem}-{runner}-{i}{ext}` (`--trace-sample N` keeps every Nth
//! span); when a timeline is also collected the windows appear as counter
//! tracks in each trace. `--profile-json FILE` enables the host-side
//! handler profiler and writes the suite-merged report — wall-clock
//! derived, non-deterministic, never part of the byte-stable outputs.
//!
//! Output files are created before the suite runs, so an unwritable
//! `--metrics-json`, `--timeline-json` or `--profile-json` path exits 2 at
//! once; a per-run `--trace-out` file that cannot be written also exits 2.

use std::fs::File;
use std::io::Write;
use std::time::Instant;

use least_tlb::experiments::{run_suite, telemetry_table, ExpOptions, ALL_EXPERIMENTS};

/// Extension experiments: answer by name but stay out of `all`.
const EXTENSIONS: &[&str] = &["topology-sweep"];

/// Reports a usage error without a panic backtrace and exits with the
/// conventional usage-error code.
fn usage_error(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    eprintln!(
        "usage: figures [--quick] [--budget N] [--seed N] [--jobs N] \
         [--breakdown] [--metrics-json FILE] \
         [--timeline] [--timeline-json FILE] [--timeline-window N] \
         [--trace-out FILE] [--trace-sample N] [--profile-json FILE] \
         [--topology-sweep] [experiments... | all]"
    );
    std::process::exit(2);
}

/// Reports an output file that cannot be created or written, without a
/// panic backtrace, and exits 2.
fn file_error(flag: &str, path: &str, e: &std::io::Error) -> ! {
    eprintln!("figures: {flag} {path}: {e}");
    std::process::exit(2);
}

/// An output file named by `flag`, created before the suite runs so an
/// unwritable path costs no simulation time.
struct Output {
    flag: &'static str,
    path: String,
    file: File,
}

impl Output {
    fn create(flag: &'static str, path: Option<&String>) -> Option<Output> {
        let path = path?.clone();
        match File::create(&path) {
            Ok(file) => Some(Output { flag, path, file }),
            Err(e) => file_error(flag, &path, &e),
        }
    }

    /// Writes `json` and returns the path, for the caller's report.
    fn write(mut self, json: &str) -> String {
        if let Err(e) = self.file.write_all(json.as_bytes()) {
            file_error(self.flag, &self.path, &e);
        }
        self.path
    }
}

/// The next argument parsed as `T`, or a usage error naming the flag and
/// what it accepts.
fn parsed_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    expected: &str,
) -> T {
    match args.next().map(|s| s.parse::<T>()) {
        Some(Ok(v)) => v,
        _ => usage_error(&format!("{flag} takes {expected}")),
    }
}

fn main() {
    let mut opts = ExpOptions::paper();
    let mut jobs = 1usize;
    let mut breakdown = false;
    let mut metrics_json: Option<String> = None;
    let mut timeline = false;
    let mut timeline_json: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut profile_json: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                let seed = opts.seed;
                opts = ExpOptions::quick();
                opts.seed = seed;
            }
            "--budget" => {
                let n = parsed_value(
                    &mut args,
                    "--budget",
                    "an instruction count, e.g. --budget 2000000",
                );
                opts.budget_single = n;
                opts.budget_multi = n;
            }
            "--seed" => {
                opts.seed = parsed_value(&mut args, "--seed", "a 64-bit seed, e.g. --seed 42");
            }
            "--jobs" => {
                jobs = parsed_value(&mut args, "--jobs", "a worker count >= 1, e.g. --jobs 4");
                if jobs < 1 {
                    usage_error("--jobs takes a worker count >= 1, e.g. --jobs 4");
                }
            }
            "--breakdown" => breakdown = true,
            "--topology-sweep" => wanted.push("topology-sweep".to_string()),
            "--metrics-json" => {
                metrics_json = Some(args.next().unwrap_or_else(|| {
                    usage_error("--metrics-json takes an output path, e.g. --metrics-json m.json")
                }));
            }
            "--timeline" => timeline = true,
            "--timeline-json" => {
                timeline_json = Some(args.next().unwrap_or_else(|| {
                    usage_error(
                        "--timeline-json takes an output path, e.g. --timeline-json tl.json",
                    )
                }));
            }
            "--timeline-window" => {
                opts.timeline_window = parsed_value(
                    &mut args,
                    "--timeline-window",
                    "a cycle count (0 = auto), e.g. --timeline-window 4096",
                );
            }
            "--trace-out" => {
                trace_out = Some(args.next().unwrap_or_else(|| {
                    usage_error("--trace-out takes an output path, e.g. --trace-out trace.json")
                }));
            }
            "--trace-sample" => {
                opts.trace_sample = parsed_value(
                    &mut args,
                    "--trace-sample",
                    "a span count, e.g. --trace-sample 16",
                );
            }
            "--profile-json" => {
                profile_json = Some(args.next().unwrap_or_else(|| {
                    usage_error("--profile-json takes an output path, e.g. --profile-json p.json")
                }));
            }
            "all" => wanted.extend(ALL_EXPERIMENTS.iter().map(std::string::ToString::to_string)),
            other if other.starts_with('-') => usage_error(&format!(
                "unknown flag '{other}'; accepted flags are --quick, --budget N, --seed N, \
                 --jobs N, --breakdown, --metrics-json FILE, \
                 --timeline, --timeline-json FILE, --timeline-window N, --trace-out FILE, \
                 --trace-sample N, --profile-json FILE, --topology-sweep"
            )),
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        wanted.extend(ALL_EXPERIMENTS.iter().map(std::string::ToString::to_string));
    }
    if let Some(unknown) = wanted
        .iter()
        .find(|n| !ALL_EXPERIMENTS.contains(&n.as_str()) && !EXTENSIONS.contains(&n.as_str()))
    {
        eprintln!(
            "unknown experiment '{unknown}'; available: {}, {}",
            ALL_EXPERIMENTS.join(", "),
            EXTENSIONS.join(", ")
        );
        std::process::exit(2);
    }

    let metrics_out = Output::create("--metrics-json", metrics_json.as_ref());
    let timeline_out = Output::create("--timeline-json", timeline_json.as_ref());
    let profile_out = Output::create("--profile-json", profile_json.as_ref());

    opts.metrics = breakdown || metrics_json.is_some();
    opts.timeline = timeline || timeline_json.is_some() || opts.timeline_window > 0;
    opts.trace = trace_out.is_some();
    opts.profile = profile_json.is_some();

    let total = Instant::now();
    let outcomes = run_suite(&wanted, &opts, jobs);
    for outcome in &outcomes {
        match &outcome.result {
            Ok(table) => {
                println!("==== {} ====", outcome.name);
                println!("{table}");
            }
            Err(unknown) => {
                // Unreachable after the upfront check; defensive.
                eprintln!("unknown experiment '{unknown}'");
                std::process::exit(2);
            }
        }
    }
    if breakdown {
        for outcome in &outcomes {
            if outcome.metrics.is_empty() {
                continue;
            }
            eprintln!("==== breakdown: {} (cycles) ====", outcome.name);
            eprintln!("{}", least_tlb::latency_breakdown(&outcome.metrics));
        }
    }
    if let Some(out) = metrics_out {
        let mut merged = obs::MetricsSnapshot::default();
        for outcome in &outcomes {
            merged.absorb(&outcome.metrics);
        }
        let json = serde_json::to_string_pretty(&merged).expect("serializable");
        let path = out.write(&json);
        eprintln!("wrote merged metrics snapshot to {path}");
    }
    if timeline {
        for outcome in &outcomes {
            for (workload, tl) in &outcome.timelines {
                eprintln!(
                    "==== timeline: {} / {workload} ({} windows of {} cycles) ====",
                    outcome.name,
                    tl.windows.len(),
                    tl.window
                );
                eprintln!("{}", least_tlb::timeline_report(tl));
            }
        }
    }
    if let Some(out) = timeline_out {
        let path = out.write(&timeline_json_report(&outcomes));
        eprintln!("wrote timeline series to {path}");
    }
    if let Some(base) = &trace_out {
        write_traces(base, &outcomes);
    }
    if let Some(out) = profile_out {
        let mut merged = obs::ProfileReport::default();
        for outcome in &outcomes {
            merged.absorb(&outcome.profile);
        }
        let json = serde_json::to_string_pretty(&merged).expect("serializable");
        let path = out.write(&json);
        for h in merged.handlers.iter().take(5) {
            eprintln!(
                "  profile: {:<14} {:>12} events  {:>8} ns/event",
                h.name, h.events, h.ns_per_event
            );
        }
        eprintln!("wrote merged handler profile to {path}");
    }
    eprintln!("==== telemetry ({jobs} jobs) ====");
    eprintln!("{}", telemetry_table(&outcomes));
    eprintln!("total wall time: {:.1}s", total.elapsed().as_secs_f64());
}

/// Renders every run's timeline as one JSON document (schema
/// `timeline/v1`): runners in input order, each with its runs in the
/// runner's own execution order. Pure sim-time content, so the bytes are
/// identical across `--jobs` values.
fn timeline_json_report(outcomes: &[least_tlb::experiments::SuiteOutcome]) -> String {
    use serde::Serialize;

    // Owned structs: the vendored serde derive does not support
    // lifetime-generic types, and the clone cost is trivial next to the
    // simulations that produced the data.
    #[derive(Serialize)]
    struct Run {
        workload: String,
        timeline: obs::Timeline,
    }

    #[derive(Serialize)]
    struct Runner {
        name: String,
        runs: Vec<Run>,
    }

    #[derive(Serialize)]
    struct Report {
        schema: String,
        runners: Vec<Runner>,
    }

    let report = Report {
        schema: "timeline/v1".to_string(),
        runners: outcomes
            .iter()
            .map(|o| Runner {
                name: o.name.clone(),
                runs: o
                    .timelines
                    .iter()
                    .map(|(workload, timeline)| Run {
                        workload: workload.clone(),
                        timeline: timeline.clone(),
                    })
                    .collect(),
            })
            .collect(),
    };
    serde_json::to_string_pretty(&report).expect("serializable")
}

/// Writes one Perfetto trace file per simulated run, named
/// `{stem}-{runner}-{i}{ext}` after the `--trace-out` base path.
fn write_traces(base: &str, outcomes: &[least_tlb::experiments::SuiteOutcome]) {
    let (stem, ext) = match base.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => (stem, format!(".{ext}")),
        _ => (base, String::new()),
    };
    let mut files = 0usize;
    for outcome in outcomes {
        for (i, (workload, doc)) in outcome.traces.iter().enumerate() {
            let path = format!("{stem}-{}-{i}{ext}", outcome.name);
            if let Err(e) = std::fs::write(&path, doc) {
                file_error("--trace-out", &path, &e);
            }
            eprintln!("wrote trace for {} / {workload} to {path}", outcome.name);
            files += 1;
        }
    }
    eprintln!("wrote {files} Perfetto trace files (load at https://ui.perfetto.dev)");
}
