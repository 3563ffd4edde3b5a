//! The timed loop, the output checks and the metrics.
//!
//! Ops run in passes until the time budget is spent (the first pass
//! always completes). The simulator is deterministic, so an op's host
//! time is the fastest of its repeats: the minimum filters out
//! interference from the host, which only ever adds time. Set-up time is
//! the median over complete passes instead.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use least_tlb::experiments::run_suite;

use crate::counts::Counts;
use crate::digest;
use crate::host;
use crate::ledger::{self, LayerCosts, Ledger};
use crate::spans::Spans;
use crate::stats::{median, min, quantile, ratio};
use crate::suite_sims::Sim;
use crate::workload::{self, run_op, wf_ops, Execution, Inputs, Sample, WfOp, Workload};
use crate::DEFAULT_SEED;

/// Reference digests and the host they were recorded on.
const REFERENCE: &str = include_str!("../reference.json");

/// Set-up samples of the quick suite, each building every simulation's
/// system once.
const QUICK_SETUP_REPEATS: usize = 21;

/// Repeats of each wavefront op with observability off and on,
/// alternating, when a traced `quick-suite` run measures the
/// observability overhead.
const OBS_REPEATS: usize = 3;

/// The `reference.json` section that pins the wavefront ops' digests.
const WF_OPS_REFERENCE: &str = "wf-ops";

/// A named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Metric {
    pub(crate) name: String,
    pub(crate) value: f64,
    pub(crate) unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    pub(crate) labels: Vec<String>,
    /// First-execution digest per op.
    pub(crate) digests: Vec<Option<u64>>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// Why ops failed, one line each.
    pub(crate) failures: Vec<String>,
    pub(crate) passes: usize,
    pub(crate) end_to_end: Vec<Metric>,
    /// Extra end-to-end figures printed for people, not in the JSON.
    pub(crate) notes: Vec<Metric>,
    pub(crate) per_layer: Vec<Metric>,
    pub(crate) ledger: Option<Ledger>,
    /// Self time per span name (traced runs).
    pub(crate) span_self_s: Vec<(&'static str, f64)>,
    pub(crate) spans_file: Option<String>,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        eprintln!("perfbench: failed op: {why}");
        self.failures.push(why);
    }
}

/// Samples of one op across its repeats.
#[derive(Debug, Default)]
struct OpRecord {
    samples: Vec<(bool, Sample)>,
    /// Resident-set high-water of each repeat, in MiB.
    rss_mb: Vec<f64>,
    first: Option<Execution>,
}

impl OpRecord {
    /// Fastest repeat of each of the op's simulations, summed.
    fn fastest(&self, pick: fn(&Sample) -> &[f64], traced: Option<bool>) -> Option<f64> {
        let chosen: Vec<&Sample> = self
            .samples
            .iter()
            .filter(|(t, _)| traced.is_none_or(|want| *t == want))
            .map(|(_, s)| s)
            .collect();
        let width = pick(chosen.first()?).len();
        Some(
            (0..width)
                .map(|i| min(&chosen.iter().map(|s| pick(s)[i]).collect::<Vec<_>>()))
                .sum(),
        )
    }
}

fn timed(s: &Sample) -> &[f64] {
    &s.timed_s
}

fn in_loop(s: &Sample) -> &[f64] {
    &s.loop_s
}

/// Runs `f`, turning a panic into an error.
fn guarded(f: impl FnOnce() -> Result<Execution, String>) -> Result<Execution, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .map_or_else(|| "panic".to_string(), |m| format!("panic: {m}"))),
    }
}

/// Reference digests of `section` of `reference.json` (a workload's
/// name, or [`WF_OPS_REFERENCE`]) at [`DEFAULT_SEED`], by op label.
pub(crate) fn reference_digests(section: &str) -> Result<Vec<(String, String)>, String> {
    let doc: serde::Value =
        serde_json::from_str(REFERENCE).map_err(|e| format!("reference.json: {e}"))?;
    let find = |v: &serde::Value, key: &str| -> Option<serde::Value> {
        v.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let Some(ops) = find(&doc, "digests").and_then(|d| find(&d, section)) else {
        return Ok(Vec::new());
    };
    ops.as_object()
        .ok_or("reference.json: digests must map op labels to strings")?
        .iter()
        .map(|(k, v)| match v {
            serde::Value::Str(s) => Ok((k.clone(), s.clone())),
            _ => Err(format!("reference.json: digest of {k} is not a string")),
        })
        .collect()
}

/// The digest each op of `labels` must have at `seed`: the pinned one
/// from `section` at the default seed, none otherwise.
fn pinned_digests(section: &str, labels: &[String], seed: u64) -> Result<Vec<Option<u64>>, String> {
    let mut pinned = vec![None; labels.len()];
    if seed != DEFAULT_SEED {
        return Ok(pinned);
    }
    for (label, hex) in reference_digests(section)? {
        let i = labels
            .iter()
            .position(|l| *l == label)
            .ok_or_else(|| format!("reference.json names unknown op {label}"))?;
        pinned[i] =
            Some(u64::from_str_radix(&hex, 16).map_err(|_| format!("bad digest for {label}"))?);
    }
    Ok(pinned)
}

/// Runs `workload` on the inputs of `seed` for `budget`, checks its
/// outputs, and computes the end-to-end metrics (plus, when `trace`,
/// the per-layer metrics and the ledger).
pub(crate) fn run(
    w: Workload,
    seed: u64,
    budget: Duration,
    trace: bool,
) -> Result<Outcome, String> {
    let inputs = Inputs::generate(w, seed)?;
    let labels = inputs.op_labels();
    let n = labels.len();
    let mut out = Outcome {
        labels,
        digests: vec![None; n],
        ..Outcome::default()
    };

    // Outputs every run must reproduce: those of the quick suite's
    // metrics pass (below), and the pinned digests (default seed).
    let mut expected: Vec<Option<(u64, &'static str)>> = vec![None; n];
    let pinned = pinned_digests(w.name(), &out.labels, seed)?;

    let start = Instant::now();
    // The quick suite's work counts need one pass with the metrics
    // registry on; traced runs spend part of their budget on it, and its
    // tables must equal the timed passes'.
    let mut suite_counts = None;
    if let (true, Inputs::Suite { runners, opts, .. }) = (trace, &inputs) {
        let (counts, digests) = metrics_pass(runners, opts, &mut out);
        for (e, d) in expected.iter_mut().zip(digests) {
            *e = d.map(|d| (d, "the metrics pass"));
        }
        suite_counts = Some(counts);
    }

    let mut spans = Spans::new();
    let mut records: Vec<OpRecord> = (0..n).map(|_| OpRecord::default()).collect();
    let mut pass_setup: Vec<f64> = Vec::new();
    let mut pass_build: Vec<f64> = Vec::new();
    'passes: loop {
        let (mut setup, mut build, mut whole) = (0.0, 0.0, true);
        for (op, record) in records.iter_mut().enumerate() {
            if out.passes > 0 && start.elapsed() >= budget {
                break 'passes;
            }
            // Traced runs alternate traced and untraced executions so the
            // tracing overhead is measured on the same ops.
            spans.set_enabled(trace && (out.passes + op).is_multiple_of(2));
            out.attempted += 1;
            let label = out.labels[op].clone();
            host::reset_peak_rss();
            let result = guarded(|| run_op(&inputs, op, &mut spans));
            let rss = host::peak_rss_mb();
            let exec = match result {
                Ok(e) => e,
                Err(e) => {
                    spans.abandon();
                    whole = false;
                    out.fail(format!("{label}: {e}"));
                    continue;
                }
            };
            let d = exec.sample.digest;
            let first = *out.digests[op].get_or_insert(d);
            let mismatch = if d != first {
                Some("its first repeat".to_string())
            } else if let Some((want, what)) = expected[op].filter(|(want, _)| *want != d) {
                Some(format!("{what} ({})", digest::hex(want)))
            } else {
                pinned[op]
                    .filter(|want| *want != d)
                    .map(|want| format!("reference.json ({})", digest::hex(want)))
            };
            // A wrong output fails the op, but the op did its work, so its
            // host time still counts.
            if let Some(what) = mismatch {
                out.fail(format!(
                    "{label}: digest {} differs from {what}",
                    digest::hex(d)
                ));
            }
            setup += exec.sample.setup_s;
            build += exec.sample.setup_s - exec.sample.parse_s;
            record.samples.push((spans.enabled(), exec.sample.clone()));
            record.rss_mb.extend(rss);
            record.first.get_or_insert(exec);
        }
        out.passes += 1;
        if whole {
            pass_setup.push(setup);
            pass_build.push(build);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    spans.set_enabled(false);
    // An op's memory need is deterministic; its smallest high-water
    // filters allocator noise, and the workload needs its largest op's.
    let peak_rss_mb = records.iter().map(|r| min(&r.rss_mb)).fold(0.0, f64::max);

    if let Some(i) = records.iter().position(|r| r.first.is_none()) {
        return Err(format!("op {} never completed", out.labels[i]));
    }
    let firsts: Vec<&Execution> = records.iter().filter_map(|r| r.first.as_ref()).collect();
    let mut counts = Counts::default();
    for e in &firsts {
        counts.absorb(&e.counts);
    }
    let timed_s: f64 = records.iter().filter_map(|r| r.fastest(timed, None)).sum();
    let loop_s: f64 = records
        .iter()
        .filter_map(|r| r.fastest(in_loop, None))
        .sum();
    let requests: u64 = firsts.iter().map(|e| e.requests).sum();
    let setup_s = match &inputs {
        Inputs::Suite { runners, sims, .. } => {
            let made: Vec<u64> = firsts.iter().map(|e| e.counts.sims).collect();
            suite_setup_s(runners, sims, &made)?
        }
        Inputs::Replay(_) => median(&pass_setup),
    };
    let ns_per_event = ratio(loop_s * 1e9, counts.events as f64);
    let replay_kreq_per_s = ratio(requests as f64 / 1e3, timed_s);
    let sim_minstr_per_s = ratio(counts.instructions as f64 / 1e6, timed_s);
    // The unit of work a user of each workload asks for: replayed
    // requests for the replay, simulated instructions otherwise.
    let (work_rate, named_rate) = if requests > 0 {
        let m = metric("replay_kreq_per_s", replay_kreq_per_s, "kreq/s");
        (replay_kreq_per_s, m)
    } else {
        let m = metric("sim_minstr_per_s", sim_minstr_per_s, "Minstr/s");
        (sim_minstr_per_s * 1e3, m)
    };
    out.end_to_end = vec![
        metric("work_rate", work_rate, "kwork/s"),
        metric("ns_per_event", ns_per_event, "ns"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    out.notes = vec![
        named_rate,
        metric("op_set_s", timed_s, "s"),
        metric("setup_share", ratio(setup_s, timed_s), "ratio"),
        metric("passes", out.passes as f64, "count"),
    ];

    if trace {
        if let Some(c) = suite_counts {
            counts = c;
        }
        let observed = match w {
            Workload::QuickSuite => Some(observability_cost(seed, &mut out)),
            Workload::XlatReplay => None,
        };
        let costs = ledger::measure(&inputs, &counts)?;
        let ledger = Ledger::reconcile(ns_per_event, &counts, &costs);
        let traced: f64 = records
            .iter()
            .filter_map(|r| r.fastest(timed, Some(true)))
            .sum();
        let untraced: f64 = records
            .iter()
            .filter_map(|r| r.fastest(timed, Some(false)))
            .sum();
        let both = records
            .iter()
            .all(|r| r.samples.iter().any(|s| s.0) && r.samples.iter().any(|s| !s.0));
        let overhead = if both {
            ratio(traced, untraced) - 1.0
        } else {
            0.0
        };
        out.notes.push(metric("trace_overhead", overhead, "ratio"));
        let ctx = LayerContext {
            w,
            inputs: &inputs,
            records: &records,
            counts: &counts,
            costs: &costs,
            ledger: &ledger,
            // The quick suite's set-up is all `System::new` calls.
            build_s: match &inputs {
                Inputs::Suite { .. } => setup_s,
                Inputs::Replay(_) => median(&pass_build),
            },
            mpki_rel_err: mpki_rel_err(&inputs, observed.as_ref()),
            observed,
            replay_kreq_per_s,
            trace_overhead: overhead,
        };
        out.per_layer = per_layer(&ctx);
        out.ledger = Some(ledger);
        out.span_self_s = spans.self_seconds();
        out.spans_file = write_spans(w, seed, &spans);
    }
    Ok(out)
}

/// The quick suite's set-up time: per runner, the mean `System::new`
/// time of its simulations' systems times the simulations it `made`
/// (from the suite's telemetry), summed over runners. Median over
/// [`QUICK_SETUP_REPEATS`] samples.
fn suite_setup_s(runners: &[String], sims: &[Vec<Sim>], made: &[u64]) -> Result<f64, String> {
    for ((name, rebuilt), &made) in runners.iter().zip(sims).zip(made) {
        if rebuilt.len() as u64 != made {
            eprintln!(
                "perfbench: warning: {name} made {made} simulations; the set-up \
                 stand-in rebuilds {}",
                rebuilt.len()
            );
        }
    }
    let samples = (0..QUICK_SETUP_REPEATS)
        .map(|_| {
            let per_build = workload::suite_build_once(sims)?;
            Ok(per_build.iter().zip(made).map(|(s, &m)| s * m as f64).sum())
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&samples))
}

/// Mean relative error of the simulated MPKI against the paper's
/// Table 3, over the wavefront ops (re-run for the observability cost)
/// and the apps of the W10 recording.
fn mpki_rel_err(inputs: &Inputs, observed: Option<&Observability>) -> f64 {
    let mut pairs: Vec<(workloads::AppKind, f64)> =
        observed.map_or_else(Vec::new, |o| o.mpki.clone());
    if let Inputs::Replay(r) = inputs {
        pairs.extend(r.recording.apps.iter().map(|a| (a.kind, a.stats.mpki())));
    }
    let errs: Vec<f64> = pairs
        .iter()
        .map(|(k, m)| (m - k.paper_mpki()).abs() / k.paper_mpki())
        .collect();
    ratio(errs.iter().sum(), errs.len() as f64)
}

/// Work counts of the quick suite from one untimed pass with the
/// metrics registry on, and that pass's table digests.
fn metrics_pass(
    runners: &[String],
    opts: &least_tlb::experiments::ExpOptions,
    out: &mut Outcome,
) -> (Counts, Vec<Option<u64>>) {
    let mut counts = Counts::default();
    let mut digests = Vec::with_capacity(runners.len());
    let with_metrics = least_tlb::experiments::ExpOptions {
        metrics: true,
        ..*opts
    };
    for name in runners {
        out.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_suite(std::slice::from_ref(name), &with_metrics, 1).pop()
        }));
        let table = match outcome {
            Ok(Some(o)) => match o.result {
                Ok(table) => {
                    let t = o.telemetry;
                    counts.absorb(&Counts::of_metrics(
                        &o.metrics,
                        t.sims,
                        t.instructions,
                        t.events,
                    ));
                    Some(table)
                }
                Err(e) => {
                    out.fail(format!("{name} (metrics pass): unknown runner {e}"));
                    None
                }
            },
            _ => {
                out.fail(format!("{name} (metrics pass): no outcome"));
                None
            }
        };
        digests.push(table.as_ref().map(digest::table));
    }
    (counts, digests)
}

/// The observability layer's cost on the wavefront ops.
#[derive(Debug, Clone)]
struct Observability {
    /// Observed minus unobserved event-loop ns per event.
    overhead_ns_per_event: f64,
    timeline_windows: u64,
    /// Per-app `(kind, simulated MPKI)` of the ops.
    mpki: Vec<(workloads::AppKind, f64)>,
}

/// Runs wavefront op `op` once, counting it as attempted, and as failed
/// when it panics, fails to build or misses a budget.
fn execute(op: &WfOp, what: &str, out: &mut Outcome, spans: &mut Spans) -> Option<Execution> {
    out.attempted += 1;
    match guarded(|| workload::run_wf(op, spans)) {
        Ok(e) => Some(e),
        Err(e) => {
            out.fail(format!("{} {what}: {e}", op.label));
            None
        }
    }
}

/// Runs every wavefront op [`OBS_REPEATS`] times with the metrics
/// registry and the timeline off and on, alternating, and compares the
/// fastest of each. An unobserved run must match the digest pinned at the
/// default seed, and an observed run must simulate exactly what the
/// unobserved run did; one that does not is a failed op.
fn observability_cost(seed: u64, out: &mut Outcome) -> Observability {
    let mut quiet = Spans::new();
    let ops = wf_ops(seed, false);
    let labels: Vec<String> = ops.iter().map(|o| o.label.clone()).collect();
    let pinned = match pinned_digests(WF_OPS_REFERENCE, &labels, seed) {
        Ok(p) => p,
        Err(e) => {
            out.fail(e);
            vec![None; ops.len()]
        }
    };
    let (mut off_s, mut on_s, mut events, mut timeline_windows) = (0.0, 0.0, 0, 0);
    let mut mpki = Vec::new();
    for ((off, on), want) in ops.iter().zip(wf_ops(seed, true)).zip(pinned) {
        let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
        let (mut observed, mut op_mpki) = (None, None);
        for _ in 0..OBS_REPEATS {
            let Some(quiet_run) = execute(off, "unobserved", out, &mut quiet) else {
                continue;
            };
            let d = quiet_run.sample.digest;
            if let Some(want) = want.filter(|want| *want != d) {
                out.fail(format!(
                    "{} unobserved: digest {} differs from reference.json ({})",
                    off.label,
                    digest::hex(d),
                    digest::hex(want)
                ));
            }
            best_off = best_off.min(quiet_run.sample.loop_s.iter().sum());
            op_mpki.get_or_insert(quiet_run.mpki);
            let Some(e) = execute(&on, "observed", out, &mut quiet) else {
                continue;
            };
            if e.sample.digest != d {
                out.fail(format!(
                    "{} observed: digest differs from the unobserved run",
                    on.label
                ));
            }
            best_on = best_on.min(e.sample.loop_s.iter().sum());
            observed.get_or_insert(e);
        }
        mpki.extend(op_mpki.unwrap_or_default());
        // An op without a completed pair adds nothing to the comparison.
        if let (Some(e), true) = (observed, best_off.is_finite()) {
            off_s += best_off;
            on_s += best_on;
            events += e.counts.events;
            timeline_windows += e.counts.timeline_windows;
        }
    }
    Observability {
        overhead_ns_per_event: ratio((on_s - off_s) * 1e9, events as f64),
        timeline_windows,
        mpki,
    }
}

/// What the per-layer metrics are computed from.
struct LayerContext<'a> {
    w: Workload,
    inputs: &'a Inputs,
    records: &'a [OpRecord],
    counts: &'a Counts,
    costs: &'a LayerCosts,
    ledger: &'a Ledger,
    build_s: f64,
    mpki_rel_err: f64,
    observed: Option<Observability>,
    replay_kreq_per_s: f64,
    trace_overhead: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order. Every workload
/// prints all of them; a layer a workload bypasses reads zero.
fn per_layer(x: &LayerContext<'_>) -> Vec<Metric> {
    let c = x.counts;
    let k = x.costs;
    let f = |n: u64| n as f64;
    let row = |layer: &str| {
        x.ledger
            .rows
            .iter()
            .find(|r| r.0 == layer)
            .map_or(0.0, |r| r.1)
    };
    let (entries, parse_ns) = match x.inputs {
        Inputs::Replay(r) => {
            let parse = min(&x.records[0]
                .samples
                .iter()
                .map(|(_, s)| s.parse_s)
                .collect::<Vec<_>>());
            (r.entries, ratio(parse * 1e9, r.entries as f64))
        }
        _ => (0, 0.0),
    };
    let runner_s: Vec<f64> = match x.w {
        Workload::QuickSuite => x
            .records
            .iter()
            .filter_map(|r| r.fastest(timed, None))
            .collect(),
        _ => Vec::new(),
    };
    vec![
        metric("workloads.next_op.count", f(c.next_op), "count"),
        metric("workloads.next_op.ns", k.next_op, "ns"),
        metric("workloads.ns_per_event", row("workloads"), "ns"),
        metric("gcn-model.charge_compute.count", f(c.next_op), "count"),
        metric("gcn-model.charge_compute.ns", k.charge_compute, "ns"),
        metric("gcn-model.l1.lookups", f(c.l1_lookups), "count"),
        metric(
            "gcn-model.l1.hit_ratio",
            ratio(f(c.l1_hits), f(c.l1_lookups)),
            "ratio",
        ),
        metric("gcn-model.l1.lookup.ns", k.l1_lookup, "ns"),
        metric("gcn-model.ns_per_event", row("gcn-model"), "ns"),
        metric("tlb.l2.lookups", f(c.l2_lookups), "count"),
        metric(
            "tlb.l2.hit_ratio",
            ratio(f(c.l2_hits), f(c.l2_lookups)),
            "ratio",
        ),
        metric("tlb.iommu.lookups", f(c.iommu_lookups), "count"),
        metric(
            "tlb.iommu.hit_ratio",
            ratio(f(c.iommu_hits), f(c.iommu_lookups)),
            "ratio",
        ),
        metric("tlb.lookup.ns", k.tlb_lookup, "ns"),
        metric("tlb.insert_evict.ns", k.tlb_insert_evict, "ns"),
        metric("tlb.ns_per_event", row("tlb"), "ns"),
        metric("filters.tracker.queries", f(c.tracker_queries), "count"),
        metric(
            "filters.tracker.positive_ratio",
            ratio(f(c.tracker_positives), f(c.tracker_queries)),
            "ratio",
        ),
        metric(
            "filters.tracker.dropped_inserts",
            f(c.tracker_dropped),
            "count",
        ),
        metric("filters.tracker.op.ns", k.tracker_op, "ns"),
        metric("filters.ns_per_event", row("filters"), "ns"),
        metric("iommu.requests", f(c.iommu_requests), "count"),
        metric("iommu.merged", f(c.merged), "count"),
        metric("iommu.walks", f(c.walks), "count"),
        metric(
            "iommu.walk_useful_ratio",
            ratio(f(c.walks.saturating_sub(c.wasted_walks)), f(c.walks)),
            "ratio",
        ),
        metric(
            "iommu.probe_hit_ratio",
            ratio(f(c.probe_hits), f(c.probes)),
            "ratio",
        ),
        metric("iommu.spills", f(c.spills), "count"),
        metric("iommu.spill_chain", f(c.spill_chain), "count"),
        metric("iommu.pending.ns", k.pending, "ns"),
        metric("iommu.walker.ns", k.walker, "ns"),
        metric("iommu.ns_per_event", row("iommu"), "ns"),
        metric("pagetable.translate.count", f(c.walks), "count"),
        metric("pagetable.translate.ns", k.pt_translate, "ns"),
        metric("pagetable.map.ns", k.pt_map, "ns"),
        metric("pagetable.ns_per_event", row("pagetable"), "ns"),
        metric("fabric.messages", f(c.fabric_messages), "count"),
        metric("fabric.busy_cycles", f(c.fabric_busy_cycles), "cycles"),
        metric("fabric.queue_peak", f(c.fabric_queue_peak), "count"),
        metric("fabric.send.ns", k.fabric_send, "ns"),
        metric("fabric.ns_per_event", row("fabric"), "ns"),
        metric("sim-engine.events", f(c.events), "count"),
        metric("sim-engine.queue_peak", f(c.queue_peak), "count"),
        metric("sim-engine.ring.ns", k.ring, "ns"),
        metric("sim-engine.overflow.ns", k.overflow, "ns"),
        metric("sim-engine.ns_per_event", row("sim-engine"), "ns"),
        metric(
            "obs.overhead_ns_per_event",
            x.observed.as_ref().map_or(0.0, |o| o.overhead_ns_per_event),
            "ns",
        ),
        metric(
            "obs.timeline.windows",
            x.observed.as_ref().map_or(0.0, |o| f(o.timeline_windows)),
            "count",
        ),
        metric("core.trace.entries", entries as f64, "count"),
        metric("core.trace.parse_ns_per_entry", parse_ns, "ns"),
        metric(
            "core.trace.replay_kreq_per_s",
            x.replay_kreq_per_s,
            "kreq/s",
        ),
        metric("core.experiments.sims", f(c.sims), "count"),
        metric(
            "core.experiments.runner_s.p50",
            quantile(&runner_s, 0.5),
            "s",
        ),
        metric(
            "core.experiments.runner_s.max",
            quantile(&runner_s, 1.0),
            "s",
        ),
        metric("core.system.build_s", x.build_s, "s"),
        metric("core.system.ns_per_event", x.ledger.ns_per_event, "ns"),
        metric(
            "core.system.remainder_ns_per_event",
            x.ledger.remainder,
            "ns",
        ),
        metric(
            "core.system.remainder_share",
            ratio(x.ledger.remainder, x.ledger.ns_per_event),
            "ratio",
        ),
        metric(
            "core.system.events_below_l1_share",
            ratio(f(c.events_below_l1()), f(c.events)),
            "ratio",
        ),
        metric("core.model.mpki_rel_err", x.mpki_rel_err, "ratio"),
        metric("perfbench.trace_overhead", x.trace_overhead, "ratio"),
    ]
}

/// Writes the traced run's spans under `perfbench/out/`; returns the
/// path, or `None` (with a warning) when the file cannot be written.
fn write_spans(w: Workload, seed: u64, spans: &Spans) -> Option<String> {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("spans-{}-seed{seed}.json", w.name()));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_json()));
    match written {
        Ok(()) => Some(path.display().to_string()),
        Err(e) => {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            None
        }
    }
}
