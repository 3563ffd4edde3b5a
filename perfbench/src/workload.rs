//! The workloads: the inputs each generates from the seed, and the ops
//! it times.
//!
//! * `xlat-replay` — the L2-level translation trace of mix W10
//!   (MT, MT, ST, ST), parsed and replayed under four configurations.
//!   The translation path below the L1 carries the time.
//! * `quick-suite` — every experiment runner at quick scale, one runner
//!   at a time.
//!
//! The wavefront ops (paper-scale 4-GPU least-TLB systems running each
//! Low-MPKI app of mix W1 alone on all GPUs) are not a workload of their
//! own: traced `quick-suite` runs time them with the metrics registry and
//! the timeline off and on, which differ only in the observability layer.

use std::io;
use std::str::FromStr;
use std::time::Instant;

use least_tlb::experiments::{run_suite, ExpOptions, ALL_EXPERIMENTS};
use least_tlb::trace::TranslationTrace;
use least_tlb::{FabricConfig, Policy, RunResult, System, SystemConfig, Topology, WorkloadSpec};
use mgpu_types::{Asid, Cycle, GpuId, VirtPage};
use workloads::{multi_app_workloads, AppKind};

use crate::counts::Counts;
use crate::digest;
use crate::spans::Spans;
use crate::stats::ratio;
use crate::suite_sims::{runner_sims, Sim};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    XlatReplay,
    QuickSuite,
}

impl Workload {
    pub(crate) const ALL: [Workload; 2] = [Workload::XlatReplay, Workload::QuickSuite];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::XlatReplay => "xlat-replay",
            Workload::QuickSuite => "quick-suite",
        }
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload '{s}'"))
    }
}

/// The Low-MPKI apps of mix W1, each run alone on all four GPUs by the
/// wavefront ops.
pub(crate) const WF_APPS: [AppKind; 4] = [AppKind::Fir, AppKind::Fft, AppKind::Aes, AppKind::Sc];

/// The mix whose L2-level trace `xlat-replay` replays.
const REPLAY_MIX: &str = "W10";

/// Requests every replay replays: the first this many of the recorded
/// trace. Fixing the length keeps the replay's input size, and with it
/// its memory and per-event cost, the same for every seed (full traces
/// ran from about 12.6 k to 15 k requests).
pub(crate) const REPLAY_ENTRIES: usize = 10_000;

/// Per-GPU instruction budget of the recording: enough that every seed
/// records more than [`REPLAY_ENTRIES`] requests.
const RECORD_BUDGET: u64 = 4_000_000;

/// Link serialization of the mesh replay, in cycles per message (the
/// value the topology sweep uses).
const MESH_MESSAGE_CYCLES: u64 = 4;

/// Maps the benchmark seed to the simulator's master seed (splitmix64),
/// so neighbouring benchmark seeds give unrelated inputs.
pub(crate) fn sim_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One wavefront op: a full simulation of one configuration.
#[derive(Debug, Clone)]
pub(crate) struct WfOp {
    pub(crate) label: String,
    pub(crate) cfg: SystemConfig,
    pub(crate) spec: WorkloadSpec,
}

/// The replay workload's inputs: a serialized trace and the
/// configurations it is replayed under.
#[derive(Debug, Clone)]
pub(crate) struct ReplayInputs {
    pub(crate) trace_jsonl: Vec<u8>,
    pub(crate) entries: usize,
    pub(crate) configs: Vec<(&'static str, SystemConfig)>,
    /// The recording run (its MPKI feeds the model check).
    pub(crate) recording: RunResult,
}

/// Everything a workload hands the simulator, generated from the seed
/// before any timing starts.
#[derive(Debug, Clone)]
pub(crate) enum Inputs {
    Replay(Box<ReplayInputs>),
    Suite {
        runners: Vec<String>,
        opts: ExpOptions,
        /// Per runner, the simulations it makes, for timing set-up.
        sims: Vec<Vec<Sim>>,
    },
}

/// Paper-scale 4-GPU least-TLB configuration on the flat fabric.
fn wf_config(seed: u64, observed: bool) -> SystemConfig {
    let mut cfg = SystemConfig::paper(4);
    cfg.policy = Policy::least_tlb();
    cfg.seed = sim_seed(seed);
    cfg.obs.metrics = observed;
    cfg.obs.timeline = observed;
    cfg
}

/// The wavefront ops; `observed` turns on the metrics registry and the
/// timeline.
pub(crate) fn wf_ops(seed: u64, observed: bool) -> Vec<WfOp> {
    WF_APPS
        .iter()
        .map(|&kind| WfOp {
            label: kind.name().to_string(),
            cfg: wf_config(seed, observed),
            spec: WorkloadSpec::single_app(kind, 4),
        })
        .collect()
}

/// The four replay configurations, all paper-scale with 4 GPUs.
fn replay_configs(seed: u64) -> Vec<(&'static str, SystemConfig)> {
    let with = |policy: Policy, fabric: Option<FabricConfig>| {
        let mut cfg = SystemConfig::paper(4);
        cfg.policy = policy;
        cfg.fabric = fabric;
        cfg.seed = sim_seed(seed);
        cfg
    };
    let mut mesh = FabricConfig::new(Topology::Mesh2d);
    mesh.message_cycles = MESH_MESSAGE_CYCLES;
    vec![
        ("baseline", with(Policy::baseline(), None)),
        ("least-spill", with(Policy::least_tlb_spilling(), None)),
        ("probing", with(Policy::probing_ring(), None)),
        (
            "least-spill-mesh",
            with(Policy::least_tlb_spilling(), Some(mesh)),
        ),
    ]
}

/// Records mix W10's L2-level translation trace under least-TLB with
/// spilling, keeps its first [`REPLAY_ENTRIES`] requests and serializes
/// them to JSON lines.
fn replay_inputs(seed: u64) -> Result<ReplayInputs, String> {
    let mixes = multi_app_workloads();
    let mix = mixes
        .iter()
        .find(|m| m.name == REPLAY_MIX)
        .ok_or("mix W10 is missing from the workload table")?;
    let mut cfg = SystemConfig::paper(4);
    cfg.policy = Policy::least_tlb_spilling();
    cfg.record_trace = true;
    cfg.instructions_per_gpu = RECORD_BUDGET;
    cfg.seed = sim_seed(seed);
    let spec = WorkloadSpec::from_mix(mix);
    let mut recording = System::new(&cfg, &spec)
        .map_err(|e| format!("recording W10: {e}"))?
        .run();
    let missing = budget_shortfall(&recording, &cfg);
    if !missing.is_empty() {
        return Err(format!("recording W10: {missing}"));
    }
    let mut trace = recording
        .trace
        .take()
        .ok_or("recording produced no trace")?;
    if trace.len() < REPLAY_ENTRIES {
        return Err(format!(
            "recording W10: {} requests, fewer than {REPLAY_ENTRIES}",
            trace.len()
        ));
    }
    trace.entries.truncate(REPLAY_ENTRIES);
    let mut trace_jsonl = Vec::new();
    trace
        .write_to(&mut trace_jsonl)
        .map_err(|e| format!("serializing the trace: {e}"))?;
    Ok(ReplayInputs {
        trace_jsonl,
        entries: trace.len(),
        configs: replay_configs(seed),
        recording,
    })
}

impl Inputs {
    /// Generates the workload's inputs from `seed`.
    pub(crate) fn generate(w: Workload, seed: u64) -> Result<Inputs, String> {
        Ok(match w {
            Workload::XlatReplay => Inputs::Replay(Box::new(replay_inputs(seed)?)),
            Workload::QuickSuite => {
                let runners: Vec<String> =
                    ALL_EXPERIMENTS.iter().map(|s| (*s).to_string()).collect();
                let opts = ExpOptions {
                    seed: sim_seed(seed),
                    ..ExpOptions::quick()
                };
                let sims = runners.iter().map(|r| runner_sims(r, &opts)).collect();
                Inputs::Suite {
                    runners,
                    opts,
                    sims,
                }
            }
        })
    }

    /// Op labels, in execution order.
    pub(crate) fn op_labels(&self) -> Vec<String> {
        match self {
            Inputs::Replay(_) => vec![REPLAY_MIX.to_string()],
            Inputs::Suite { runners, .. } => runners.clone(),
        }
    }
}

/// Host times of one execution of one op.
#[derive(Debug, Clone, Default)]
pub(crate) struct Sample {
    /// Trace parsing (replays only).
    pub(crate) parse_s: f64,
    /// Set-up before the first event: building systems (and injecting
    /// the trace, for replays), parse included.
    pub(crate) setup_s: f64,
    /// Per simulation of the op: host seconds in `run` (wavefront ops),
    /// `drain` (replays) or the whole runner call (quick suite).
    pub(crate) timed_s: Vec<f64>,
    /// Per simulation: host seconds in the event loop alone. `run`'s
    /// own loop timer for wavefront ops; equal to `timed_s` otherwise.
    pub(crate) loop_s: Vec<f64>,
    /// Digest of the op's simulated output.
    pub(crate) digest: u64,
}

/// What one execution of an op produced.
#[derive(Debug, Clone)]
pub(crate) struct Execution {
    pub(crate) sample: Sample,
    /// Work counts of the op's simulations (quick suite: zero except
    /// sims, instructions and events).
    pub(crate) counts: Counts,
    /// Replayed translation requests (replays only).
    pub(crate) requests: u64,
    /// Per-app `(kind, simulated MPKI)` (wavefront ops only).
    pub(crate) mpki: Vec<(AppKind, f64)>,
}

/// Apps that did not reach their instruction budget, described; empty
/// when every app completed its first full execution.
pub(crate) fn budget_shortfall(r: &RunResult, cfg: &SystemConfig) -> String {
    r.apps
        .iter()
        .filter(|a| {
            let budget = cfg.instructions_per_gpu * a.gpus.len() as u64;
            a.stats.completion_cycle.is_none() || a.stats.instructions < budget
        })
        .map(|a| {
            format!(
                "{} stopped at {} instructions",
                a.kind, a.stats.instructions
            )
        })
        .collect::<Vec<_>>()
        .join("; ")
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs wavefront op `op`: build, run, digest, check the budgets.
pub(crate) fn run_wf(op: &WfOp, spans: &mut Spans) -> Result<Execution, String> {
    let span = spans.open("op", &op.label);
    let s = spans.open("build", &op.label);
    let t = Instant::now();
    let sys = System::new(&op.cfg, &op.spec).map_err(|e| format!("{}: {e}", op.label))?;
    let setup_s = seconds_since(t);
    spans.close(s);
    let s = spans.open("run", &op.label);
    let t = Instant::now();
    let result = sys.run();
    let run_s = seconds_since(t);
    spans.close(s);
    let s = spans.open("check", &op.label);
    let missing = budget_shortfall(&result, &op.cfg);
    let digest = digest::result(&result);
    spans.close(s);
    spans.close(span);
    if !missing.is_empty() {
        return Err(format!("{}: {missing}", op.label));
    }
    let loop_s = result.telemetry.map_or(run_s, |t| t.wall_seconds);
    Ok(Execution {
        sample: Sample {
            parse_s: 0.0,
            setup_s,
            timed_s: vec![run_s],
            loop_s: vec![loop_s],
            digest,
        },
        counts: Counts::of_result(&result),
        requests: 0,
        mpki: result
            .apps
            .iter()
            .map(|a| (a.kind, a.stats.mpki()))
            .collect(),
    })
}

/// Runs the replay op: parse the trace, then replay it under every
/// configuration. Checks that each replay looked up every trace entry
/// at the L2 exactly once.
pub(crate) fn run_replay(inp: &ReplayInputs, spans: &mut Spans) -> Result<Execution, String> {
    let span = spans.open("op", REPLAY_MIX);
    let s = spans.open("parse", REPLAY_MIX);
    let t = Instant::now();
    let trace = TranslationTrace::read_from(io::Cursor::new(&inp.trace_jsonl))
        .map_err(|e| format!("parsing the trace: {e}"))?;
    let parse_s = seconds_since(t);
    spans.close(s);
    let mut sample = Sample {
        parse_s,
        setup_s: parse_s,
        ..Sample::default()
    };
    let mut counts = Counts::default();
    let mut digests = Vec::with_capacity(inp.configs.len());
    for (name, cfg) in &inp.configs {
        let s = spans.open("build", name);
        let t = Instant::now();
        let mut sys = System::new_scripted(cfg, &trace.spec).map_err(|e| format!("{name}: {e}"))?;
        sample.setup_s += seconds_since(t);
        spans.close(s);
        let s = spans.open("inject", name);
        let t = Instant::now();
        for e in &trace.entries {
            sys.inject_translation(GpuId(e.gpu), Asid(e.asid), VirtPage(e.vpn), Cycle(e.cycle));
        }
        sample.setup_s += seconds_since(t);
        spans.close(s);
        let s = spans.open("drain", name);
        let t = Instant::now();
        sys.drain();
        let drain_s = seconds_since(t);
        spans.close(s);
        sample.timed_s.push(drain_s);
        sample.loop_s.push(drain_s);
        let s = spans.open("finish", name);
        let result = sys.finish();
        spans.close(s);
        let s = spans.open("check", name);
        let lookups: u64 = result.gpu_l2.iter().map(|l| l.lookups).sum();
        digests.push(digest::result(&result));
        spans.close(s);
        if lookups != trace.len() as u64 {
            return Err(format!(
                "{name}: {lookups} L2 lookups for a {}-entry trace",
                trace.len()
            ));
        }
        let mut c = Counts::of_result(&result);
        c.injected = trace.len() as u64;
        counts.absorb(&c);
    }
    spans.close(span);
    sample.digest = digest::combine(&digests);
    Ok(Execution {
        sample,
        counts,
        requests: (trace.len() * inp.configs.len()) as u64,
        mpki: Vec::new(),
    })
}

/// Runs one experiment runner through the suite harness with one job.
pub(crate) fn run_runner(
    name: &str,
    opts: &ExpOptions,
    spans: &mut Spans,
) -> Result<Execution, String> {
    let span = spans.open("op", name);
    let s = spans.open("run", name);
    let t = Instant::now();
    let mut outcomes = run_suite(&[name.to_string()], opts, 1);
    let run_s = seconds_since(t);
    spans.close(s);
    let s = spans.open("check", name);
    let outcome = outcomes.pop().ok_or("the suite returned no outcome")?;
    let table = outcome.result.map_err(|e| format!("unknown runner {e}"))?;
    let digest = digest::table(&table);
    spans.close(s);
    spans.close(span);
    let tel = outcome.telemetry;
    Ok(Execution {
        sample: Sample {
            parse_s: 0.0,
            setup_s: 0.0,
            timed_s: vec![run_s],
            loop_s: vec![run_s],
            digest,
        },
        counts: Counts::of_metrics(&outcome.metrics, tel.sims, tel.instructions, tel.events),
        requests: 0,
        mpki: Vec::new(),
    })
}

/// Runs op `op` of `inputs` once.
pub(crate) fn run_op(inputs: &Inputs, op: usize, spans: &mut Spans) -> Result<Execution, String> {
    match inputs {
        Inputs::Replay(r) => run_replay(r, spans),
        Inputs::Suite { runners, opts, .. } => run_runner(&runners[op], opts, spans),
    }
}

/// The quick suite's set-up: builds the system of every simulation the
/// suite makes (see [`suite_sims`]) and returns, per runner, the mean
/// host seconds of one `System::new`.
pub(crate) fn suite_build_once(sims: &[Vec<Sim>]) -> Result<Vec<f64>, String> {
    sims.iter()
        .map(|runner| {
            let t = Instant::now();
            for (cfg, spec) in runner {
                let sys = System::new(cfg, spec).map_err(|e| format!("{}: {e}", spec.name))?;
                std::hint::black_box(&sys);
            }
            Ok(ratio(seconds_since(t), runner.len() as f64))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(w.name().parse::<Workload>(), Ok(w));
        }
    }

    #[test]
    fn a_second_seed_changes_the_generated_inputs() {
        let a = wf_ops(1, false);
        let b = wf_ops(2, false);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.cfg.seed != y.cfg.seed));
        assert_eq!(wf_ops(1, false)[0].cfg, a[0].cfg, "same seed, same inputs");
        let ra = replay_inputs(1).unwrap();
        let rb = replay_inputs(2).unwrap();
        assert_ne!(ra.trace_jsonl, rb.trace_jsonl);
        assert_eq!((ra.entries, rb.entries), (REPLAY_ENTRIES, REPLAY_ENTRIES));
        assert_eq!(ra.trace_jsonl, replay_inputs(1).unwrap().trace_jsonl);
    }

    #[test]
    fn replays_bypass_the_front_end() {
        let inputs = replay_inputs(4).unwrap();
        let e = run_replay(&inputs, &mut Spans::new()).unwrap();
        assert_eq!(e.counts.next_op, 0, "workloads.next_op.count");
        assert_eq!(e.counts.l1_lookups, 0);
        assert_eq!(
            e.counts.l2_lookups,
            (inputs.entries * inputs.configs.len()) as u64
        );
        assert_eq!(e.counts.injected, e.counts.l2_lookups);
    }

    #[test]
    fn the_front_end_carries_the_wavefront_ops() {
        let op = &wf_ops(4, false)[0];
        let e = run_wf(op, &mut Spans::new()).unwrap();
        let below = e.counts.events_below_l1() as f64 / e.counts.events as f64;
        assert!(below < 0.01, "{below} of events below the L1");
        assert!(e.counts.next_op > 0);
    }

    #[test]
    fn observed_ops_differ_from_front_ops_only_in_obs() {
        for (f, o) in wf_ops(3, false).iter().zip(wf_ops(3, true)) {
            let mut o = o.cfg.clone();
            assert!(o.obs.metrics && o.obs.timeline);
            o.obs = f.cfg.obs;
            assert_eq!(o, f.cfg);
        }
    }
}
