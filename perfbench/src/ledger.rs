//! The layer ledger: host nanoseconds per delivered event, by layer.
//!
//! After the timed passes, each layer's public API is re-driven with the
//! workload's own key stream, structure geometry and queue occupancy,
//! and the calls are timed (fastest of three repeats). A layer's row is
//! its exact work count from the run times its per-call cost, divided by
//! the run's delivered events. What the rows do not explain of the
//! measured `ns_per_event` is the `core.system.remainder` row, so the
//! rows and the remainder add up to `ns_per_event` by construction.
//!
//! Known gaps, whose time stays in the remainder:
//! * fabric sends on the flat fabric: `RunResult` reports link counters
//!   only for configurations with an explicit fabric section;
//! * the quick suite's tracker operations: its tables carry no tracker
//!   counters;
//! * page-table walks by per-GPU local walkers and PRI fault handling.

use std::hint::black_box;
use std::time::Instant;

use filters::{LocalTlbTracker, TrackerBackend};
use gcn_model::{ComputeUnit, Gpu};
use iommu::{PendingTable, WalkRequest, WalkerScheduler};
use least_tlb::trace::TranslationTrace;
use least_tlb::SystemConfig;
use mgpu_types::{Asid, CuId, Cycle, GpuId, PageSize, PhysPage, TranslationKey, VirtPage};
use pagetable::PageTable;
use sim_engine::EventQueue;
use tlb::{Tlb, TlbConfig, TlbEntry};
use workloads::{AppKind, AppWorkload, Scale};

use crate::counts::Counts;
use crate::stats::ratio;
use crate::workload::Inputs;

/// Memory ops generated per app when re-driving a key stream.
const STREAM_OPS: usize = 1 << 16;

/// Timing repeats per measurement; the fastest is kept.
const REPEATS: usize = 3;

/// Per-call host cost of each layer operation, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LayerCosts {
    pub(crate) next_op: f64,
    pub(crate) charge_compute: f64,
    pub(crate) l1_lookup: f64,
    pub(crate) tlb_lookup: f64,
    pub(crate) tlb_insert_evict: f64,
    pub(crate) tracker_op: f64,
    pub(crate) pending: f64,
    pub(crate) walker: f64,
    pub(crate) pt_translate: f64,
    pub(crate) pt_map: f64,
    pub(crate) fabric_send: f64,
    pub(crate) ring: f64,
    pub(crate) overflow: f64,
}

/// One ledger row: a layer and the host ns per event it accounts for.
pub(crate) type Row = (&'static str, f64);

/// The reconciled ledger of one workload.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Ledger {
    /// Measured end-to-end host ns per delivered event.
    pub(crate) ns_per_event: f64,
    pub(crate) rows: Vec<Row>,
    /// `ns_per_event` minus the rows.
    pub(crate) remainder: f64,
}

impl Ledger {
    /// Builds the ledger: `count × ns` per layer over `c.events`, and the
    /// remainder of `ns_per_event` that the rows leave unexplained.
    pub(crate) fn reconcile(ns_per_event: f64, c: &Counts, k: &LayerCosts) -> Ledger {
        let per_event = |ns: f64| ratio(ns, c.events as f64);
        let f = |n: u64| n as f64;
        let tracker_ops = c.tracker_queries + c.tracker_inserts + c.tracker_removes;
        let ring_events = c.events.saturating_sub(c.injected);
        let rows = vec![
            ("workloads", per_event(f(c.next_op) * k.next_op)),
            (
                "gcn-model",
                per_event(f(c.next_op) * k.charge_compute + f(c.l1_lookups) * k.l1_lookup),
            ),
            (
                "tlb",
                per_event(
                    f(c.l2_lookups + c.iommu_lookups) * k.tlb_lookup
                        + f(c.l2_insertions + c.iommu_insertions) * k.tlb_insert_evict,
                ),
            ),
            ("filters", per_event(f(tracker_ops) * k.tracker_op)),
            (
                "iommu",
                per_event(f(c.iommu_requests) * k.pending + f(c.walks) * k.walker),
            ),
            ("pagetable", per_event(f(c.walks) * k.pt_translate)),
            ("fabric", per_event(f(c.fabric_messages) * k.fabric_send)),
            (
                "sim-engine",
                per_event(f(ring_events) * k.ring + f(c.injected) * k.overflow),
            ),
        ];
        let explained: f64 = rows.iter().map(|r| r.1).sum();
        Ledger {
            ns_per_event,
            rows,
            remainder: ns_per_event - explained,
        }
    }
}

/// Nanoseconds per call of `body`, which performs `calls` calls; the
/// fastest of [`REPEATS`] runs, each on fresh state from `setup`.
fn time_per_call<S>(calls: usize, setup: impl Fn() -> S, body: impl Fn(&mut S)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let mut state = setup();
        let t = Instant::now();
        body(&mut state);
        best = best.min(t.elapsed().as_secs_f64());
        black_box(&state);
    }
    best * 1e9 / calls.max(1) as f64
}

/// One request of a key stream.
#[derive(Debug, Clone, Copy)]
struct StreamOp {
    gpu: usize,
    lane: usize,
    compute: u32,
    key: TranslationKey,
}

/// A workload's re-drive material: its structure geometry and its key
/// stream at each level of the translation path.
struct Material {
    cfg: SystemConfig,
    /// `(kind, lanes per GPU, scale, seed)` per app whose generator is
    /// re-driven for `next_op`.
    apps: Vec<(AppKind, usize, Scale, u64)>,
    /// Memory ops as the front end issues them (empty for replays).
    ops: Vec<StreamOp>,
    /// Requests reaching the L2 TLBs (the L1 misses, or the trace).
    l2: Vec<StreamOp>,
    /// Requests reaching the IOMMU (the L2 misses).
    iommu: Vec<StreamOp>,
    /// Configuration whose fabric prices a send (the mesh replay's, when
    /// present).
    fabric_cfg: SystemConfig,
    /// Absolute cycles of injected events (replays), or empty.
    injected_at: Vec<u64>,
}

fn generate_stream(apps: &[(AppKind, usize, Scale, u64)], gpus: usize) -> Vec<StreamOp> {
    let mut ops = Vec::with_capacity(apps.len() * STREAM_OPS);
    for (i, &(kind, lanes, scale, seed)) in apps.iter().enumerate() {
        let asid = Asid(i as u16);
        let mut w = AppWorkload::new(kind, asid, gpus, lanes, scale, seed);
        for n in 0..STREAM_OPS {
            let (gpu, lane) = (n % gpus, (n / gpus) % lanes);
            let op = w.next_op(gpu, lane);
            ops.push(StreamOp {
                gpu,
                lane,
                compute: op.compute,
                key: TranslationKey::new(asid, op.vpn),
            });
        }
    }
    ops
}

/// The requests of `stream` that miss in a bank of `geometry` TLBs, one
/// per value of `bank` (per CU for L1s, per GPU for L2s), filled on miss.
fn misses(
    stream: &[StreamOp],
    geometry: TlbConfig,
    bank: impl Fn(&StreamOp) -> usize,
) -> Vec<StreamOp> {
    let mut tlbs: Vec<Tlb> = Vec::new();
    let mut out = Vec::new();
    for op in stream {
        let b = bank(op);
        while tlbs.len() <= b {
            tlbs.push(Tlb::new(geometry));
        }
        if tlbs[b].lookup(op.key).is_none() {
            tlbs[b].insert(op.key, entry(op.key));
            out.push(*op);
        }
    }
    out
}

impl Material {
    /// Builds the front-end-driven material: the apps' streams filtered
    /// through the L1 and L2 geometry of `cfg`.
    fn from_apps(cfg: SystemConfig, apps: Vec<(AppKind, usize, Scale, u64)>) -> Material {
        let ops = generate_stream(&apps, cfg.gpus);
        let (wpc, cus) = (cfg.gpu.wavefronts_per_cu, cfg.gpu.cus);
        let l2 = misses(&ops, cfg.gpu.l1_tlb, |o| o.gpu * cus + (o.lane / wpc) % cus);
        let iommu = misses(&l2, cfg.gpu.l2_tlb, |o| o.gpu);
        Material {
            fabric_cfg: cfg.clone(),
            cfg,
            apps,
            ops,
            l2,
            iommu,
            injected_at: Vec::new(),
        }
    }
}

fn material(inputs: &Inputs) -> Result<Material, String> {
    Ok(match inputs {
        Inputs::Replay(r) => {
            let trace = TranslationTrace::read_from(std::io::Cursor::new(&r.trace_jsonl))
                .map_err(|e| format!("ledger: parsing the trace: {e}"))?;
            let (_, cfg) = r
                .configs
                .iter()
                .find(|(_, c)| c.policy.tracker.is_some())
                .ok_or("ledger: no replay configuration has a tracker")?;
            let fabric_cfg = r
                .configs
                .iter()
                .find(|(_, c)| c.fabric.is_some())
                .map_or_else(|| cfg.clone(), |(_, c)| c.clone());
            let l2: Vec<StreamOp> = trace
                .entries
                .iter()
                .map(|e| StreamOp {
                    gpu: usize::from(e.gpu),
                    lane: 0,
                    compute: 0,
                    key: TranslationKey::new(Asid(e.asid), VirtPage(e.vpn)),
                })
                .collect();
            let iommu = misses(&l2, cfg.gpu.l2_tlb, |o| o.gpu);
            Material {
                cfg: cfg.clone(),
                apps: Vec::new(),
                ops: Vec::new(),
                l2,
                iommu,
                fabric_cfg,
                injected_at: trace.entries.iter().map(|e| e.cycle).collect(),
            }
        }
        Inputs::Suite { opts, .. } => {
            let mut cfg = SystemConfig::scaled_down(4);
            cfg.policy = least_tlb::Policy::least_tlb();
            cfg.seed = opts.seed;
            let lanes = cfg.gpu.cus * cfg.gpu.wavefronts_per_cu;
            let apps = AppKind::ALL
                .iter()
                .map(|&k| (k, lanes, cfg.scale, cfg.seed))
                .collect();
            Material::from_apps(cfg, apps)
        }
    })
}

/// Fewest calls a cost is measured over; short streams are cycled.
const MIN_CALLS: usize = 1 << 18;

/// `(calls, stream)`: the number of calls to time and the stream to
/// cycle through, falling back to `fallback` when `stream` is empty.
fn cycled<'a>(stream: &'a [StreamOp], fallback: &'a [StreamOp]) -> (usize, &'a [StreamOp]) {
    let s = if stream.is_empty() { fallback } else { stream };
    (s.len().max(MIN_CALLS), s)
}

fn next_op_cost(m: &Material) -> f64 {
    if m.apps.is_empty() {
        return 0.0;
    }
    let gpus = m.cfg.gpus;
    let per_app: Vec<f64> = m
        .apps
        .iter()
        .map(|&(kind, lanes, scale, seed)| {
            time_per_call(
                STREAM_OPS,
                || AppWorkload::new(kind, Asid(0), gpus, lanes, scale, seed),
                |w| {
                    for n in 0..STREAM_OPS {
                        black_box(w.next_op(n % gpus, (n / gpus) % lanes));
                    }
                },
            )
        })
        .collect();
    per_app.iter().sum::<f64>() / per_app.len() as f64
}

fn charge_compute_cost(m: &Material) -> f64 {
    let (calls, s) = cycled(&m.ops, &m.l2);
    time_per_call(
        calls,
        || ComputeUnit::new(m.cfg.gpu.l1_tlb, m.cfg.gpu.wavefronts_per_cu),
        |cu| {
            for j in 0..calls {
                let op = &s[j % s.len()];
                black_box(cu.charge_compute(Cycle(j as u64), u64::from(op.compute) + 1));
            }
        },
    )
}

/// L1 lookup, filling on a miss, with each op's lane mapped to its CU.
fn l1_lookup_cost(m: &Material) -> f64 {
    let (calls, s) = cycled(&m.ops, &m.l2);
    let (wpc, cus) = (m.cfg.gpu.wavefronts_per_cu, m.cfg.gpu.cus);
    time_per_call(
        calls,
        || Gpu::new(GpuId(0), &m.cfg.gpu),
        |gpu| {
            for j in 0..calls {
                let op = &s[j % s.len()];
                let cu = CuId(((op.lane / wpc) % cus) as u16);
                if gpu.l1_lookup(cu, op.key).is_none() {
                    gpu.l1_fill(cu, op.key, PhysPage(op.key.vpn.0));
                }
            }
        },
    )
}

fn entry(key: TranslationKey) -> TlbEntry {
    TlbEntry::new(PhysPage(key.vpn.0))
}

/// Lookup cost on a TLB warmed with its level's stream, and the cost of
/// inserting that stream into a full TLB, weighted across the L2 and
/// IOMMU levels by how often the run used each.
fn tlb_costs(m: &Material, c: &Counts) -> (f64, f64) {
    let levels: [(TlbConfig, &[StreamOp], u64, u64); 2] = [
        (m.cfg.gpu.l2_tlb, &m.l2, c.l2_lookups, c.l2_insertions),
        (
            m.cfg.iommu.tlb,
            &m.iommu,
            c.iommu_lookups,
            c.iommu_insertions,
        ),
    ];
    let (mut lookup, mut insert) = ((0.0, 0.0), (0.0, 0.0));
    for (geometry, stream, lookups, inserts) in levels {
        let (calls, s) = cycled(stream, &m.l2);
        let warm = || {
            let mut t = Tlb::new(geometry);
            for op in s {
                t.insert(op.key, entry(op.key));
            }
            t
        };
        let l = time_per_call(calls, warm, |t| {
            for j in 0..calls {
                black_box(t.lookup(s[j % s.len()].key));
            }
        });
        let i = time_per_call(calls, warm, |t| {
            for j in 0..calls {
                let key = s[s.len() - 1 - j % s.len()].key;
                black_box(t.insert(key, entry(key)));
            }
        });
        // A level the run never used still counts once, so a workload that
        // bypasses both reports their plain average.
        let (wl, wi) = ((lookups + 1) as f64, (inserts + 1) as f64);
        lookup = (lookup.0 + wl * l, lookup.1 + wl);
        insert = (insert.0 + wi * i, insert.1 + wi);
    }
    (lookup.0 / lookup.1, insert.0 / insert.1)
}

/// Insert, remove and query on the tracker over the IOMMU-level stream
/// (L2 fills register, L2 evictions deregister, IOMMU misses query),
/// with up to one L2 TLB's worth of keys resident per GPU.
fn tracker_cost(m: &Material) -> f64 {
    let gpus = m.cfg.gpus;
    let backend = m
        .cfg
        .policy
        .tracker
        .unwrap_or_else(|| TrackerBackend::paper_default(gpus));
    let (calls, s) = cycled(&m.iommu, &m.l2);
    let resident = (m.cfg.gpu.l2_tlb.entries * gpus).min(s.len() / 2);
    let gpu = |op: &StreamOp| GpuId((op.gpu % gpus) as u8);
    time_per_call(
        3 * calls,
        || LocalTlbTracker::new(gpus, backend),
        |t| {
            for j in 0..calls {
                let op = &s[j % s.len()];
                black_box(t.query(op.key, gpu(op)));
                t.insert(gpu(op), op.key);
                let old = &s[(j + s.len() - resident) % s.len()];
                t.remove(gpu(old), old.key);
            }
        },
    )
}

/// One pending-table lifetime (register, mark the walk, walk result)
/// per IOMMU request, with as many requests in flight as walkers.
fn pending_cost(m: &Material) -> f64 {
    let window = m.cfg.iommu.walkers.max(1);
    let (calls, s) = cycled(&m.iommu, &m.l2);
    time_per_call(calls, PendingTable::new, |p| {
        for j in 0..calls {
            let op = &s[j % s.len()];
            black_box(p.register(op.key, GpuId((op.gpu % m.cfg.gpus) as u8)));
            p.mark_walk(op.key);
            if j >= window {
                black_box(p.walk_result(s[(j - window) % s.len()].key));
            }
        }
    })
}

/// One walk through a saturated walker pool: submit, then complete.
fn walker_cost(m: &Material) -> f64 {
    let walkers = m.cfg.iommu.walkers.max(1);
    let (calls, s) = cycled(&m.iommu, &m.l2);
    time_per_call(
        calls,
        || WalkerScheduler::new(walkers, m.cfg.iommu.walker_mode),
        |w| {
            for j in 0..calls {
                let op = &s[j % s.len()];
                let req = WalkRequest {
                    key: op.key,
                    requester: GpuId((op.gpu % m.cfg.gpus) as u8),
                };
                black_box(w.submit(Cycle(j as u64), req, 500));
                if w.busy() == walkers {
                    black_box(w.complete());
                }
            }
        },
    )
}

/// Page-table map cost per page over the footprint the streams touch,
/// and translate cost per IOMMU-level request.
fn pagetable_costs(m: &Material) -> (f64, f64) {
    let pages = m
        .ops
        .iter()
        .chain(&m.l2)
        .map(|o| o.key.vpn.0 + 1)
        .max()
        .unwrap_or(1);
    let map_all = || {
        let mut t = PageTable::new();
        for v in 0..pages {
            t.map(VirtPage(v), PhysPage(v), PageSize::Size4K)
                .expect("a fresh table maps every page once");
        }
        t
    };
    let map = time_per_call(
        pages as usize,
        || (),
        |()| {
            black_box(map_all());
        },
    );
    let (calls, s) = cycled(&m.iommu, &m.l2);
    let translate = time_per_call(calls, map_all, |t| {
        for j in 0..calls {
            black_box(t.translate(s[j % s.len()].key.vpn));
        }
    });
    (map, translate)
}

/// Sends a GPU→IOMMU message hop by hop; returns the link traversals.
fn route(f: &mut fabric::Fabric, mut at: Cycle, src: usize, dst: usize) -> usize {
    let (mut node, mut hops) = (src, 0);
    while node != dst {
        let hop = f.send(at, node, dst);
        node = hop.node;
        at = hop.arrive;
        hops += 1;
    }
    hops
}

/// Cost per link traversal of the IOMMU-level requests.
fn fabric_cost(m: &Material) -> f64 {
    let gpus = m.fabric_cfg.gpus;
    let (calls, s) = cycled(&m.iommu, &m.l2);
    let send_all = |f: &mut fabric::Fabric| {
        let iommu = f.iommu_node();
        (0..calls)
            .map(|j| route(f, Cycle(j as u64 * 2), s[j % s.len()].gpu % gpus, iommu))
            .sum::<usize>()
    };
    let sends = send_all(&mut m.fabric_cfg.build_fabric());
    time_per_call(
        sends,
        || m.fabric_cfg.build_fabric(),
        |f| {
            black_box(send_all(f));
        },
    )
}

/// Schedule-and-deliver cost per event with `occupancy` events pending
/// at short horizons, as in the wavefront front end.
fn ring_cost(m: &Material, occupancy: u64) -> f64 {
    let occupancy = occupancy.clamp(1, 1 << 16) as usize;
    let (calls, s) = cycled(&m.ops, &m.l2);
    let deltas: Vec<u64> = s
        .iter()
        .map(|o| u64::from(o.compute) + 1 + (o.key.vpn.0 & 63))
        .collect();
    time_per_call(
        calls,
        || {
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..occupancy {
                q.schedule_after(deltas[i % deltas.len()], i as u32);
            }
            (q, Vec::new())
        },
        |(q, batch)| {
            let mut handled = 0;
            while handled < calls && q.pop_batch(batch).is_some() {
                for ev in batch.drain(..) {
                    q.schedule_after(deltas[handled % deltas.len()], ev);
                    handled += 1;
                }
            }
        },
    )
}

/// Schedule-and-deliver cost per event for events injected ahead of
/// time, most of which wait in the overflow heap: at the replay's own
/// cycles or, without a replay, spread past the ring's horizon.
fn overflow_cost(m: &Material) -> f64 {
    let at: Vec<u64> = if m.injected_at.is_empty() {
        (0..MIN_CALLS as u64).map(|i| (1 << 20) + i * 3).collect()
    } else {
        m.injected_at.clone()
    };
    time_per_call(
        at.len(),
        || (),
        |()| {
            let mut q: EventQueue<u32> = EventQueue::new();
            for (i, &t) in at.iter().enumerate() {
                q.schedule_no_earlier(Cycle(t), i as u32);
            }
            let mut batch = Vec::new();
            while q.pop_batch(&mut batch).is_some() {
                black_box(batch.drain(..).count());
            }
        },
    )
}

/// Events pending at short horizons: the run's queue peak less what one
/// replay injected up front, or, without a recorded peak, one event per
/// wavefront lane.
fn ring_occupancy(m: &Material, c: &Counts) -> u64 {
    if c.queue_peak > 0 {
        c.queue_peak.saturating_sub(c.injected / c.sims.max(1))
    } else {
        (m.cfg.gpus * m.cfg.gpu.cus * m.cfg.gpu.wavefronts_per_cu) as u64
    }
}

/// Re-drives every layer with `inputs`' streams and geometry.
pub(crate) fn measure(inputs: &Inputs, c: &Counts) -> Result<LayerCosts, String> {
    let m = material(inputs)?;
    let (tlb_lookup, tlb_insert_evict) = tlb_costs(&m, c);
    let (pt_map, pt_translate) = pagetable_costs(&m);
    Ok(LayerCosts {
        next_op: next_op_cost(&m),
        charge_compute: charge_compute_cost(&m),
        l1_lookup: l1_lookup_cost(&m),
        tlb_lookup,
        tlb_insert_evict,
        tracker_op: tracker_cost(&m),
        pending: pending_cost(&m),
        walker: walker_cost(&m),
        pt_translate,
        pt_map,
        fabric_send: fabric_cost(&m),
        ring: ring_cost(&m, ring_occupancy(&m, c)),
        overflow: overflow_cost(&m),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts() -> Counts {
        Counts {
            events: 1000,
            injected: 100,
            next_op: 400,
            l1_lookups: 400,
            l2_lookups: 50,
            l2_insertions: 20,
            iommu_lookups: 30,
            iommu_insertions: 10,
            tracker_queries: 30,
            iommu_requests: 30,
            walks: 25,
            fabric_messages: 60,
            ..Counts::default()
        }
    }

    #[test]
    fn the_ledger_reconciles_exactly() {
        let k = LayerCosts {
            next_op: 12.0,
            charge_compute: 1.5,
            l1_lookup: 9.0,
            tlb_lookup: 18.0,
            tlb_insert_evict: 80.0,
            tracker_op: 30.0,
            pending: 40.0,
            walker: 15.0,
            pt_translate: 13.0,
            pt_map: 20.0,
            fabric_send: 7.0,
            ring: 11.0,
            overflow: 60.0,
        };
        for base in [123.0, 10.0] {
            let l = Ledger::reconcile(base, &counts(), &k);
            let total: f64 = l.rows.iter().map(|r| r.1).sum::<f64>() + l.remainder;
            assert!((total - base).abs() < 1e-9, "{total} != {base}");
            assert_eq!(l.rows.len(), 8, "one row per timed layer");
        }
        let l = Ledger::reconcile(123.0, &counts(), &k);
        let workloads = l.rows.iter().find(|r| r.0 == "workloads").unwrap().1;
        assert!((workloads - 400.0 * 12.0 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn costs_are_positive_on_a_small_stream() {
        let inputs = Inputs::Suite {
            runners: Vec::new(),
            opts: least_tlb::experiments::ExpOptions::quick(),
            sims: Vec::new(),
        };
        let k = measure(&inputs, &counts()).unwrap();
        for v in [
            k.next_op,
            k.charge_compute,
            k.l1_lookup,
            k.tlb_lookup,
            k.tlb_insert_evict,
            k.tracker_op,
            k.pending,
            k.walker,
            k.pt_translate,
            k.pt_map,
            k.fabric_send,
            k.ring,
            k.overflow,
        ] {
            assert!(v.is_finite() && v > 0.0, "{k:?}");
        }
    }
}
