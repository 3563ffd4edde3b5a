//! The per-GPU aggregate: CUs, shared L2 TLB, MSHRs, statistics.

use mgpu_types::{CuId, GpuId, PhysPage, TranslationKey};
use serde::{Deserialize, Serialize};
use tlb::{ReplacementPolicy, Tlb, TlbConfig, TlbEntry, TlbStats};

use crate::{ComputeUnit, MshrOutcome, MshrTable, Waiter};

/// Geometry and latencies of one GPU (paper Table 2 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Compute units per GPU (64 in the paper).
    pub cus: usize,
    /// Wavefront contexts per CU.
    pub wavefronts_per_cu: usize,
    /// L1 TLB geometry (16-entry fully-associative, LRU).
    pub l1_tlb: TlbConfig,
    /// L2 TLB geometry (512-entry, 16-way, LRU).
    pub l2_tlb: TlbConfig,
    /// L1 TLB lookup latency in cycles (1).
    pub l1_latency: u64,
    /// L2 TLB lookup latency in cycles (10).
    pub l2_latency: u64,
    /// Post-translation data access latency (cache/DRAM abstracted).
    pub data_latency: u64,
    /// Whether the per-CU L1 TLB is blocking (one outstanding miss stalls
    /// the CU's memory path), as in MGPUSim. Disabled only by the
    /// `ablation-blocking-l1` study.
    pub blocking_l1: bool,
}

impl GpuConfig {
    /// The paper's Table 2 configuration.
    #[must_use]
    pub fn paper() -> Self {
        GpuConfig {
            cus: 64,
            wavefronts_per_cu: 4,
            l1_tlb: TlbConfig::fully_associative(16, ReplacementPolicy::Lru),
            l2_tlb: TlbConfig::new(512, 16, ReplacementPolicy::Lru),
            l1_latency: 1,
            l2_latency: 10,
            data_latency: 80,
            blocking_l1: true,
        }
    }

    /// A scaled-down configuration with `cus` compute units and the same
    /// latencies/ratios, for fast tests and CI.
    #[must_use]
    pub fn paper_scaled(cus: usize) -> Self {
        GpuConfig {
            cus,
            ..Self::paper()
        }
    }
}

/// Per-GPU counters the experiments report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpuStats {
    /// Translation requests that reached the L2 TLB (L1 misses).
    pub l2_requests: u64,
    /// ATS requests sent to the IOMMU (L2 primary misses).
    pub ats_sent: u64,
    /// Remote-probe requests arriving from peer GPUs (least-TLB sharing).
    pub remote_probes_in: u64,
    /// Remote probes that hit this GPU's L2 TLB.
    pub remote_hits_in: u64,
    /// Translations spilled *into* this GPU's L2 TLB by the IOMMU.
    pub spills_received: u64,
}

/// One GPU of the multi-GPU system.
#[derive(Debug, Clone)]
pub struct Gpu {
    id: GpuId,
    /// Compute units.
    pub cus: Vec<ComputeUnit>,
    /// Shared L2 TLB.
    pub l2_tlb: Tlb,
    /// MSHRs in front of the IOMMU path.
    pub mshrs: MshrTable,
    /// Counters.
    pub stats: GpuStats,
}

impl Gpu {
    /// Builds a GPU from `config`.
    #[must_use]
    pub fn new(id: GpuId, config: &GpuConfig) -> Self {
        Gpu {
            id,
            cus: (0..config.cus)
                .map(|_| ComputeUnit::new(config.l1_tlb, config.wavefronts_per_cu))
                .collect(),
            l2_tlb: Tlb::new(config.l2_tlb),
            mshrs: MshrTable::new(),
            stats: GpuStats::default(),
        }
    }

    /// This GPU's identifier.
    #[must_use]
    pub fn id(&self) -> GpuId {
        self.id
    }

    /// L1 TLB lookup on behalf of `cu` (records L1 hit/miss stats).
    pub fn l1_lookup(&mut self, cu: CuId, key: TranslationKey) -> Option<PhysPage> {
        self.cus[cu.index()].l1_tlb.lookup(key).map(|e| e.frame)
    }

    /// Installs a translation into `cu`'s L1 TLB (evictions are silent:
    /// L1↔L2 is mostly-inclusive in both the baseline and least-TLB).
    pub fn l1_fill(&mut self, cu: CuId, key: TranslationKey, frame: PhysPage) {
        self.cus[cu.index()]
            .l1_tlb
            .insert(key, TlbEntry::new(frame));
    }

    /// L2 TLB lookup (records stats; refreshes recency).
    pub fn l2_lookup(&mut self, key: TranslationKey) -> Option<TlbEntry> {
        self.stats.l2_requests += 1;
        self.l2_tlb.lookup(key)
    }

    /// Registers an L2 miss in the MSHRs; `Primary` means the caller must
    /// send the ATS request to the IOMMU.
    pub fn l2_miss(&mut self, key: TranslationKey, waiter: Waiter) -> MshrOutcome {
        let outcome = self.mshrs.register(key, waiter);
        if outcome == MshrOutcome::Primary {
            self.stats.ats_sent += 1;
        }
        outcome
    }

    /// Serves a remote probe from a peer GPU (least-TLB sharing path).
    /// Does not perturb local hit-rate statistics; refreshes recency on hit.
    pub fn remote_probe(&mut self, key: TranslationKey) -> Option<TlbEntry> {
        self.stats.remote_probes_in += 1;
        let hit = self.l2_tlb.touch_mut(key).copied();
        if hit.is_some() {
            self.stats.remote_hits_in += 1;
        }
        hit
    }

    /// Aggregated L1 TLB statistics across CUs.
    #[must_use]
    pub fn l1_stats(&self) -> TlbStats {
        let mut total = TlbStats::default();
        for cu in &self.cus {
            total.merge(cu.l1_tlb.stats());
        }
        total
    }

    /// Total wavefront contexts on this GPU.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.cus.iter().map(|c| c.wavefronts.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_types::{Asid, VirtPage, WavefrontId};

    fn key(v: u64) -> TranslationKey {
        TranslationKey::new(Asid(0), VirtPage(v))
    }

    fn gpu() -> Gpu {
        Gpu::new(GpuId(1), &GpuConfig::paper_scaled(2))
    }

    #[test]
    fn paper_config_matches_table2() {
        let c = GpuConfig::paper();
        assert_eq!(c.cus, 64);
        assert_eq!(c.l1_tlb.entries, 16);
        assert_eq!(c.l1_tlb.ways, 16, "L1 is fully associative");
        assert_eq!(c.l2_tlb.entries, 512);
        assert_eq!(c.l2_tlb.ways, 16);
        assert_eq!(c.l1_latency, 1);
        assert_eq!(c.l2_latency, 10);
    }

    #[test]
    fn l1_miss_then_fill_then_hit() {
        let mut g = gpu();
        assert!(g.l1_lookup(CuId(0), key(5)).is_none());
        g.l1_fill(CuId(0), key(5), PhysPage(50));
        assert_eq!(g.l1_lookup(CuId(0), key(5)), Some(PhysPage(50)));
        // Other CU's L1 is independent.
        assert!(g.l1_lookup(CuId(1), key(5)).is_none());
    }

    #[test]
    fn l2_miss_registers_primary_once() {
        let mut g = gpu();
        let w0 = Waiter {
            cu: CuId(0),
            wf: WavefrontId(0),
        };
        let w1 = Waiter {
            cu: CuId(1),
            wf: WavefrontId(0),
        };
        assert!(g.l2_lookup(key(9)).is_none());
        assert_eq!(g.l2_miss(key(9), w0), MshrOutcome::Primary);
        assert_eq!(g.l2_miss(key(9), w1), MshrOutcome::Secondary);
        assert_eq!(g.stats.ats_sent, 1, "one ATS per distinct page");
        assert_eq!(Vec::from(g.mshrs.drain(key(9))), vec![w0, w1]);
    }

    #[test]
    fn remote_probe_does_not_skew_local_stats() {
        let mut g = gpu();
        g.l2_tlb.insert(key(3), TlbEntry::new(PhysPage(30)));
        let local_lookups = g.l2_tlb.stats().lookups;
        assert!(g.remote_probe(key(3)).is_some());
        assert!(g.remote_probe(key(4)).is_none());
        assert_eq!(g.l2_tlb.stats().lookups, local_lookups);
        assert_eq!(g.stats.remote_probes_in, 2);
        assert_eq!(g.stats.remote_hits_in, 1);
    }

    #[test]
    fn l1_stats_aggregate_across_cus() {
        let mut g = gpu();
        g.l1_lookup(CuId(0), key(1));
        g.l1_lookup(CuId(1), key(1));
        let s = g.l1_stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn lanes_counts_all_wavefronts() {
        let g = gpu();
        assert_eq!(g.lanes(), 2 * 4);
        assert_eq!(g.id(), GpuId(1));
    }
}
