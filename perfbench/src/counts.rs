//! Per-layer work counts of a workload, summed over its ops.
//!
//! Wavefront and replay ops read them from `RunResult`, where they are
//! exact. The quick suite only returns tables, so its counts come from
//! the merged observability counters of one extra pass with
//! `ExpOptions::metrics` on (see `measure`).

use least_tlb::RunResult;
use obs::MetricsSnapshot;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Counts {
    pub(crate) sims: u64,
    pub(crate) instructions: u64,
    pub(crate) events: u64,
    pub(crate) queue_peak: u64,
    /// Events injected before draining (replays); they wait in the
    /// engine's overflow heap.
    pub(crate) injected: u64,
    pub(crate) next_op: u64,
    pub(crate) l1_lookups: u64,
    pub(crate) l1_hits: u64,
    pub(crate) l2_lookups: u64,
    pub(crate) l2_hits: u64,
    pub(crate) l2_insertions: u64,
    pub(crate) iommu_lookups: u64,
    pub(crate) iommu_hits: u64,
    pub(crate) iommu_insertions: u64,
    pub(crate) tracker_queries: u64,
    pub(crate) tracker_positives: u64,
    pub(crate) tracker_inserts: u64,
    pub(crate) tracker_removes: u64,
    pub(crate) tracker_dropped: u64,
    pub(crate) iommu_requests: u64,
    pub(crate) merged: u64,
    pub(crate) walks: u64,
    pub(crate) wasted_walks: u64,
    pub(crate) probes: u64,
    pub(crate) probe_hits: u64,
    pub(crate) spills: u64,
    pub(crate) spill_chain: u64,
    pub(crate) fabric_messages: u64,
    pub(crate) fabric_busy_cycles: u64,
    pub(crate) fabric_queue_peak: u64,
    pub(crate) timeline_windows: u64,
}

impl Counts {
    /// Counts of one simulation. `next_op` and `charge_compute` happen once
    /// per issued memory instruction, which `AppRunStats::mem_ops` counts.
    pub(crate) fn of_result(r: &RunResult) -> Self {
        let mut c = Counts {
            sims: 1,
            events: r.events,
            ..Counts::default()
        };
        if let Some(t) = &r.telemetry {
            c.instructions = t.instructions;
            c.queue_peak = t.queue_high_water;
        }
        for a in &r.apps {
            c.next_op += a.stats.mem_ops;
            c.l1_lookups += a.stats.l1_lookups;
            c.l1_hits += a.stats.l1_hits;
        }
        for s in &r.gpu_l2 {
            c.l2_lookups += s.lookups;
            c.l2_hits += s.hits;
            c.l2_insertions += s.insertions;
        }
        c.iommu_lookups = r.iommu_tlb.lookups;
        c.iommu_hits = r.iommu_tlb.hits;
        c.iommu_insertions = r.iommu_tlb.insertions;
        if let Some(t) = &r.tracker {
            c.tracker_queries = t.queries;
            c.tracker_positives = t.positives;
            c.tracker_inserts = t.inserts;
            c.tracker_removes = t.removes;
            c.tracker_dropped = t.dropped_inserts;
        }
        let i = &r.iommu;
        c.iommu_requests = i.requests;
        c.merged = i.merged;
        c.walks = i.walks;
        c.wasted_walks = i.wasted_walks;
        c.probes = i.probes;
        c.probe_hits = i.probe_hits;
        c.spills = i.spills;
        c.spill_chain = i.spill_chain;
        if let Some(f) = &r.fabric {
            c.fabric_messages = f.messages();
            c.fabric_busy_cycles = f.links.iter().map(|l| l.busy_cycles).sum();
            c.fabric_queue_peak = f.queue_peak();
        }
        c.timeline_windows = r.timeline.as_ref().map_or(0, |t| t.windows.len() as u64);
        c
    }

    /// Counts of an experiment runner from its merged observability
    /// counters. Memory ops are counted by their resolutions (`hops.*`),
    /// so ops still in flight when a simulation ended are not included.
    pub(crate) fn of_metrics(
        m: &MetricsSnapshot,
        sims: u64,
        instructions: u64,
        events: u64,
    ) -> Self {
        let sum = |pred: &dyn Fn(&str) -> bool| -> u64 {
            m.counters
                .iter()
                .filter(|c| pred(&c.name))
                .map(|c| c.value)
                .sum()
        };
        let gpu = |suffix: &'static str| move |n: &str| n.starts_with("gpu") && n.ends_with(suffix);
        let exact = |name: &str| m.counter(name).unwrap_or(0);
        Counts {
            sims,
            instructions,
            events,
            next_op: sum(&|n| n.starts_with("hops.")),
            l1_lookups: sum(&gpu(".l1_tlb.lookups")),
            l1_hits: sum(&gpu(".l1_tlb.hits")),
            l2_lookups: sum(&gpu(".l2_tlb.lookups")),
            l2_hits: sum(&gpu(".l2_tlb.hits")),
            l2_insertions: sum(&gpu(".l2_tlb.insertions")),
            iommu_lookups: exact("iommu.tlb.lookups"),
            iommu_hits: exact("iommu.tlb.hits"),
            iommu_insertions: exact("iommu.tlb.insertions"),
            iommu_requests: exact("iommu.requests"),
            merged: exact("iommu.merged"),
            walks: exact("iommu.walks"),
            wasted_walks: exact("iommu.wasted_walks"),
            probes: exact("iommu.probes"),
            probe_hits: exact("iommu.probe_hits"),
            spills: exact("iommu.spills"),
            spill_chain: exact("iommu.spill_chain"),
            fabric_messages: sum(&|n| n.starts_with("fabric.link.") && n.ends_with(".messages")),
            fabric_busy_cycles: sum(&|n| {
                n.starts_with("fabric.link.") && n.ends_with(".busy_cycles")
            }),
            ..Counts::default()
        }
    }

    /// Adds `o` into `self`; peaks take the maximum.
    pub(crate) fn absorb(&mut self, o: &Counts) {
        let Counts {
            sims,
            instructions,
            events,
            queue_peak,
            injected,
            next_op,
            l1_lookups,
            l1_hits,
            l2_lookups,
            l2_hits,
            l2_insertions,
            iommu_lookups,
            iommu_hits,
            iommu_insertions,
            tracker_queries,
            tracker_positives,
            tracker_inserts,
            tracker_removes,
            tracker_dropped,
            iommu_requests,
            merged,
            walks,
            wasted_walks,
            probes,
            probe_hits,
            spills,
            spill_chain,
            fabric_messages,
            fabric_busy_cycles,
            fabric_queue_peak,
            timeline_windows,
        } = *o;
        self.sims += sims;
        self.instructions += instructions;
        self.events += events;
        self.queue_peak = self.queue_peak.max(queue_peak);
        self.injected += injected;
        self.next_op += next_op;
        self.l1_lookups += l1_lookups;
        self.l1_hits += l1_hits;
        self.l2_lookups += l2_lookups;
        self.l2_hits += l2_hits;
        self.l2_insertions += l2_insertions;
        self.iommu_lookups += iommu_lookups;
        self.iommu_hits += iommu_hits;
        self.iommu_insertions += iommu_insertions;
        self.tracker_queries += tracker_queries;
        self.tracker_positives += tracker_positives;
        self.tracker_inserts += tracker_inserts;
        self.tracker_removes += tracker_removes;
        self.tracker_dropped += tracker_dropped;
        self.iommu_requests += iommu_requests;
        self.merged += merged;
        self.walks += walks;
        self.wasted_walks += wasted_walks;
        self.probes += probes;
        self.probe_hits += probe_hits;
        self.spills += spills;
        self.spill_chain += spill_chain;
        self.fabric_messages += fabric_messages;
        self.fabric_busy_cycles += fabric_busy_cycles;
        self.fabric_queue_peak = self.fabric_queue_peak.max(fabric_queue_peak);
        self.timeline_windows += timeline_windows;
    }

    /// Events handled below the L1 TLB: everything but the wavefront
    /// front end's one `wf_next` and one `wf_mem` per memory op.
    pub(crate) fn events_below_l1(&self) -> u64 {
        self.events.saturating_sub(2 * self.next_op)
    }
}
