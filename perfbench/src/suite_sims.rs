//! The simulations each quick-suite runner makes, rebuilt from the
//! runners' source: the configuration (GPU count, policy and every field
//! the runner sets) and the workload of each, in the runner's order.
//!
//! The quick suite's set-up cannot be timed inside `run_suite`, so
//! `quick-suite` times building these systems instead. Alone runs for
//! weighted speedups appear once per app kind, as the runners' cache makes
//! them. A test checks every runner's count against the suite's own
//! telemetry.

use filters::TrackerBackend;
use iommu::WalkerMode;
use least_tlb::experiments::ExpOptions;
use least_tlb::{Policy, ReceiverPolicy, SystemConfig, WorkloadSpec};
use mgpu_types::PageSize;
use workloads::{
    mix_workloads, multi_app_workloads, scaling_workloads, single_app_kinds, AppKind, MultiAppMix,
};

/// One simulation: what `System::new` receives.
pub(crate) type Sim = (SystemConfig, WorkloadSpec);

/// The single apps of the heavier sweeps (one per MPKI class).
const SWEEP_APPS: [AppKind; 3] = [AppKind::Fft, AppKind::Pr, AppKind::St];

/// The quick-scale configuration a runner starts from (the harness's
/// `config`/`config_multi`, which differ only in the budget).
fn config(o: &ExpOptions, gpus: usize, multi: bool) -> SystemConfig {
    let mut cfg = SystemConfig::scaled_down(gpus);
    cfg.instructions_per_gpu = if multi {
        o.budget_multi
    } else {
        o.budget_single
    };
    cfg.seed = o.seed;
    cfg
}

/// `cfg` under `policy`.
fn with(mut cfg: SystemConfig, policy: Policy) -> SystemConfig {
    cfg.policy = policy;
    cfg
}

/// Every app of `kinds` alone on all `gpus` GPUs, under each of `cfgs`.
fn singles(kinds: &[AppKind], gpus: usize, cfgs: &[SystemConfig]) -> Vec<Sim> {
    kinds
        .iter()
        .flat_map(|&k| {
            cfgs.iter()
                .map(move |c| (c.clone(), WorkloadSpec::single_app(k, gpus)))
        })
        .collect()
}

/// Every mix of `mixes` under each of `cfgs`.
fn mixed(mixes: &[&MultiAppMix], cfgs: &[SystemConfig]) -> Vec<Sim> {
    mixes
        .iter()
        .flat_map(|m| cfgs.iter().map(|c| (c.clone(), WorkloadSpec::from_mix(m))))
        .collect()
}

/// The alone runs a weighted speedup over `mixes` needs: each app kind
/// once, alone on GPU 0 under `cfg`.
fn alone(mixes: &[&MultiAppMix], cfg: &SystemConfig) -> Vec<Sim> {
    let mut kinds: Vec<AppKind> = Vec::new();
    for p in mixes.iter().flat_map(|m| &m.placements) {
        if !kinds.contains(&p.app) {
            kinds.push(p.app);
        }
    }
    kinds
        .into_iter()
        .map(|k| (cfg.clone(), WorkloadSpec::alone_on(k, 0)))
        .collect()
}

/// The simulations runner `name` makes under the suite options `opts`
/// (before the per-runner seed is derived). Unknown runners make none.
pub(crate) fn runner_sims(name: &str, opts: &ExpOptions) -> Vec<Sim> {
    let o = opts.for_runner(name);
    let all = multi_app_workloads();
    let every: Vec<&MultiAppMix> = all.iter().collect();
    let named = |names: &[&str]| -> Vec<&MultiAppMix> {
        names
            .iter()
            .filter_map(|n| all.iter().find(|m| m.name == *n))
            .collect()
    };
    let apps = single_app_kinds();
    let single = config(&o, 4, false);
    let multi = config(&o, 4, true);
    let base = with(single.clone(), Policy::baseline());
    let least = with(single.clone(), Policy::least_tlb());
    let infinite = with(single.clone(), Policy::infinite_iommu());
    let probing = with(single.clone(), Policy::probing_ring());
    let spill = with(multi.clone(), Policy::least_tlb_spilling());
    let set = |f: &dyn Fn(&mut SystemConfig)| {
        let mut c = single.clone();
        f(&mut c);
        c
    };
    match name {
        "table3" | "fig2" => singles(&apps, 4, &[base]),
        "fig3" => singles(&apps, 4, &[base, infinite]),
        "fig4" => singles(&apps, 4, &[set(&|c| c.track_sharing = true)]),
        "fig5" => singles(&apps, 4, &[set(&|c| c.track_reuse = true)]),
        "fig6" => [(AppKind::Mm, 40_000), (AppKind::Pr, 20_000)]
            .into_iter()
            .flat_map(|(k, interval)| {
                singles(&[k], 4, &[set(&|c| c.snapshot_interval = Some(interval))])
            })
            .collect(),
        "fig7" => [
            mixed(&every, std::slice::from_ref(&multi)),
            alone(&every, &multi),
        ]
        .concat(),
        "fig8" => {
            let mut c = multi.clone();
            c.track_reuse = true;
            mixed(&named(&["W1", "W5", "W6", "W9"]), &[c])
        }
        "fig11" => {
            let mut c = multi.clone();
            c.snapshot_interval = Some(20_000);
            mixed(&named(&["W4", "W6"]), &[c])
        }
        "fig14" => singles(&apps, 4, &[base, least, infinite]),
        "fig15" => singles(&apps, 4, &[base, least]),
        "fig16" => [
            mixed(&every, &[multi.clone(), spill]),
            alone(&every, &multi),
        ]
        .concat(),
        "fig17" | "fig18" => mixed(&every, &[multi, spill]),
        "fig19" => {
            let n = |n| with(multi.clone(), Policy::least_tlb_n(n));
            mixed(&every, &[multi.clone(), n(1), n(2)])
        }
        "iommu-size" => [false, true]
            .into_iter()
            .flat_map(|half| {
                let shrink = |mut c: SystemConfig| {
                    if half {
                        c.iommu.tlb.entries /= 2;
                    }
                    c
                };
                [
                    singles(
                        &SWEEP_APPS,
                        4,
                        &[shrink(base.clone()), shrink(least.clone())],
                    ),
                    mixed(
                        &named(&["W4"]),
                        &[shrink(multi.clone()), shrink(spill.clone())],
                    ),
                ]
                .concat()
            })
            .collect(),
        "fig20" => {
            let st = |c: SystemConfig| (c, WorkloadSpec::single_app(AppKind::St, 4));
            let w4 = |c: SystemConfig| (c, WorkloadSpec::from_mix(&all[3]));
            let mut sims = vec![st(single.clone()), w4(multi.clone())];
            for mult in [1, 2, 4, 7, 10] {
                for serialize in [false, true] {
                    let remote = |c: &SystemConfig| {
                        let mut c = c.clone();
                        c.inter_gpu_latency = 500 * mult / 4;
                        c.policy.serialize_remote = serialize;
                        c
                    };
                    sims.push(st(remote(&least)));
                    sims.push(w4(remote(&spill)));
                }
            }
            sims
        }
        "fig21" => [8usize, 16]
            .into_iter()
            .flat_map(|gpus| {
                let single = config(&o, gpus, false);
                let multi = config(&o, gpus, true);
                let scaling = scaling_workloads(gpus);
                let scaling: Vec<&MultiAppMix> = scaling.iter().collect();
                [
                    singles(
                        &SWEEP_APPS,
                        gpus,
                        &[single.clone(), with(single, Policy::least_tlb())],
                    ),
                    mixed(
                        &scaling,
                        &[
                            multi.clone(),
                            with(multi.clone(), Policy::least_tlb_spilling()),
                        ],
                    ),
                    alone(&scaling, &multi),
                ]
                .concat()
            })
            .collect(),
        "fig22" => mix_workloads()
            .iter()
            .flat_map(|mix| {
                let multi = config(&o, mix.gpus().max(4), true);
                [
                    mixed(
                        &[mix],
                        &[
                            multi.clone(),
                            with(multi.clone(), Policy::least_tlb_spilling()),
                        ],
                    ),
                    alone(&[mix], &multi),
                ]
                .concat()
            })
            .collect(),
        "fig23" | "fig24" => {
            let vary = |mut c: SystemConfig| {
                if name == "fig23" {
                    c.policy.local_page_tables = true;
                } else {
                    c.page_size = PageSize::Size2M;
                }
                c
            };
            [
                singles(&SWEEP_APPS, 4, &[vary(single.clone()), vary(least)]),
                mixed(&named(&["W4", "W8"]), &[vary(multi), vary(spill)]),
            ]
            .concat()
        }
        "fig25" => [
            singles(&apps, 4, &[base, probing, least]),
            mixed(
                &named(&["W4", "W7", "W8"]),
                &[
                    multi.clone(),
                    with(multi.clone(), Policy::probing_ring()),
                    spill,
                ],
            ),
        ]
        .concat(),
        "fig26" => {
            let mut dws = spill.clone();
            dws.iommu.walker_mode = WalkerMode::Dws;
            [mixed(&every, &[spill, dws]), alone(&every, &multi)].concat()
        }
        "ablation-tracker" => {
            let backends = [
                TrackerBackend::paper_default(4),
                TrackerBackend::Cuckoo {
                    entries_per_gpu: 1024,
                    fingerprint_bits: 8,
                },
                TrackerBackend::Bloom {
                    counters_per_gpu: 2048,
                    hashes: 3,
                },
                TrackerBackend::Exact,
            ];
            let mut cfgs = vec![single.clone()];
            cfgs.extend(backends.into_iter().map(|b| {
                let mut c = least.clone();
                c.policy.tracker = Some(b);
                c
            }));
            singles(&[AppKind::St], 4, &cfgs)
        }
        "ablation-blocking-l1" => [true, false]
            .into_iter()
            .flat_map(|blocking| {
                let cfgs = [&base, &infinite, &least].map(|c| {
                    let mut c = c.clone();
                    c.gpu.blocking_l1 = blocking;
                    c
                });
                singles(&[AppKind::St], 4, &cfgs)
            })
            .collect(),
        "ablation-receiver" => {
            let mut cfgs = vec![multi];
            cfgs.extend(
                [
                    ReceiverPolicy::MinEvictionCounter,
                    ReceiverPolicy::RoundRobin,
                    ReceiverPolicy::Fixed,
                ]
                .map(|rp| {
                    let mut c = spill.clone();
                    c.policy.spill_receiver = rp;
                    c
                }),
            );
            mixed(&[&all[3]], &cfgs)
        }
        "ext-qos-quota" => {
            let entries = multi.iommu.tlb.entries as u64;
            let cfgs = [None, None, Some(entries / 2), Some(entries / 4)].map(|q| {
                let mut c = spill.clone();
                c.policy.iommu_quota = q;
                c
            });
            mixed(&named(&["W6"]), &cfgs)
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use least_tlb::experiments::{run_suite, ALL_EXPERIMENTS};
    use least_tlb::System;

    use super::*;

    #[test]
    fn every_runner_makes_the_rebuilt_simulations() {
        let opts = ExpOptions::quick();
        let names: Vec<String> = ALL_EXPERIMENTS.iter().map(|s| (*s).to_string()).collect();
        let mut total = 0;
        for outcome in run_suite(&names, &opts, 1) {
            let sims = runner_sims(&outcome.name, &opts);
            assert_eq!(
                sims.len() as u64,
                outcome.telemetry.sims,
                "{}: rebuilt simulations vs the suite's",
                outcome.name
            );
            for (cfg, spec) in &sims {
                assert!(
                    System::new(cfg, spec).is_ok(),
                    "{}: {}",
                    outcome.name,
                    spec.name
                );
            }
            total += sims.len();
        }
        assert_eq!(total, 438);
    }
}
