//! CPU-side IOMMU model (paper §2.2).
//!
//! The IOMMU owns the shared last-level TLB (4096 entries, 64-way, 200-cycle
//! lookup in Table 2), eight shared page-table walkers, the ATS
//! pending-request table that least-TLB uses to race remote-GPU probes
//! against page-table walks, per-GPU *eviction counters* (the spill-receiver
//! selection state of §4.2), and the PRI queue that batches page faults
//! toward the CPU.
//!
//! Like the GPU model, everything here is mechanism; the least-TLB *policy*
//! (what gets inserted/removed where) lives in the `least-tlb` crate.
//!
//! # Examples
//!
//! ```
//! use iommu::{Iommu, IommuConfig};
//! use mgpu_types::{Asid, Cycle, TranslationKey, VirtPage};
//!
//! let mut iommu = Iommu::new(&IommuConfig::paper(4));
//! let key = TranslationKey::new(Asid(0), VirtPage(3));
//! assert!(iommu.tlb.lookup(key).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pending;
mod pri;
mod walker;

pub use pending::PendingTable;
pub use pri::{PriBatcher, PriConfig};
pub use walker::{WalkRequest, WalkerMode, WalkerScheduler};

use mgpu_types::GpuId;
use pagetable::WalkLatency;
use serde::{Deserialize, Serialize};
use tlb::{ReplacementPolicy, Tlb, TlbConfig};

/// Static configuration of the IOMMU (paper Table 2 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IommuConfig {
    /// Shared IOMMU TLB geometry (4096 entries, 64-way, LRU).
    pub tlb: TlbConfig,
    /// IOMMU TLB lookup latency in cycles (200).
    pub tlb_latency: u64,
    /// Number of shared page-table walkers (8).
    pub walkers: usize,
    /// Walk cost model (flat 500 cycles).
    pub walk_latency: WalkLatency,
    /// Walker scheduling discipline (FIFO baseline, or DWS-style fair
    /// queueing for the §5.6 combination study).
    pub walker_mode: WalkerMode,
    /// Page-fault (PRI) batching parameters.
    pub pri: PriConfig,
    /// Optional page-walk cache (an MMU cache over the upper page-table
    /// levels, cf. Bhattacharjee MICRO'13): a hit skips the upper levels,
    /// halving the effective walk latency. `None` (the paper's baseline)
    /// disables it.
    pub pwc: Option<TlbConfig>,
    /// Number of GPUs attached (sizes the eviction counters).
    pub gpus: usize,
}

impl IommuConfig {
    /// The paper's configuration for a system with `gpus` GPUs.
    #[must_use]
    pub fn paper(gpus: usize) -> Self {
        IommuConfig {
            tlb: TlbConfig::new(4096, 64, ReplacementPolicy::Lru),
            tlb_latency: 200,
            walkers: 8,
            walk_latency: WalkLatency::Flat(500),
            walker_mode: WalkerMode::Fifo,
            pri: PriConfig::default(),
            pwc: None,
            gpus,
        }
    }
}

/// Counters accumulated by the IOMMU beyond the TLB's own stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IommuStats {
    /// ATS requests received from GPUs.
    pub requests: u64,
    /// Requests merged into an already-pending entry.
    pub merged: u64,
    /// Page-table walks launched.
    pub walks: u64,
    /// Walks whose result was discarded because a remote probe won the race.
    pub wasted_walks: u64,
    /// Queued walks cancelled before starting because a remote probe won.
    pub cancelled_walks: u64,
    /// Remote-GPU probes launched on tracker positives.
    pub probes: u64,
    /// Probes that hit the remote L2 TLB and served the request.
    pub probe_hits: u64,
    /// Translations spilled from the IOMMU TLB into a GPU L2 TLB.
    pub spills: u64,
    /// Length of spill "chain" reactions (paper §4.2's ping-pong effect):
    /// total secondary evictions caused by spills.
    pub spill_chain: u64,
    /// Page faults raised (PRI).
    pub faults: u64,
    /// Walks shortened by a page-walk-cache hit.
    pub pwc_hits: u64,
}

impl IommuStats {
    /// Exports every counter into an observability registry under
    /// `prefix` (e.g. `iommu.walks`). Cold path: called once per run at
    /// result-collection time.
    pub fn export(&self, reg: &mut obs::Registry, prefix: &str) {
        for (name, value) in [
            ("requests", self.requests),
            ("merged", self.merged),
            ("walks", self.walks),
            ("wasted_walks", self.wasted_walks),
            ("cancelled_walks", self.cancelled_walks),
            ("probes", self.probes),
            ("probe_hits", self.probe_hits),
            ("spills", self.spills),
            ("spill_chain", self.spill_chain),
            ("faults", self.faults),
            ("pwc_hits", self.pwc_hits),
        ] {
            let id = reg.counter(&format!("{prefix}.{name}"));
            reg.add(id, value);
        }
    }
}

/// The IOMMU: shared TLB + walker scheduler + pending table + PRI queue +
/// eviction counters.
#[derive(Debug)]
pub struct Iommu {
    /// The shared IOMMU TLB.
    pub tlb: Tlb,
    /// Page-table walker pool/scheduler.
    pub walkers: WalkerScheduler,
    /// ATS pending-request table (race bookkeeping).
    pub pending: PendingTable,
    /// PRI page-fault batcher.
    pub pri: PriBatcher,
    /// Optional page-walk cache (upper-level MMU cache).
    pub pwc: Option<Tlb>,
    /// Per-GPU count of entries currently resident in the IOMMU TLB that
    /// originated from that GPU's L2 evictions (paper §4.2 "where to
    /// spill"). Maintained by the policy layer; the invariant (counter ==
    /// actual per-origin entry count) is checked by integration tests.
    pub eviction_counters: Vec<u64>,
    /// Counters.
    pub stats: IommuStats,
}

impl Iommu {
    /// Builds an IOMMU from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.gpus` is zero or the TLB geometry is invalid.
    #[must_use]
    pub fn new(config: &IommuConfig) -> Self {
        assert!(config.gpus > 0, "IOMMU needs at least one attached GPU");
        Iommu {
            tlb: Tlb::new(config.tlb),
            walkers: WalkerScheduler::new(config.walkers, config.walker_mode),
            pending: PendingTable::new(),
            pri: PriBatcher::new(config.pri),
            pwc: config.pwc.map(Tlb::new),
            eviction_counters: vec![0; config.gpus],
            stats: IommuStats::default(),
        }
    }

    /// The GPU with the fewest IOMMU-TLB-resident entries — the spill
    /// receiver of paper §4.2. Ties break toward the lowest GPU id
    /// (deterministic).
    #[must_use]
    pub fn spill_receiver(&self) -> GpuId {
        let (idx, _) = self
            .eviction_counters
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| **c)
            // sim-lint: allow(panic-reach, reason = "eviction_counters holds one entry per GPU and systems have at least one GPU")
            .expect("at least one GPU");
        GpuId(idx as u8)
    }

    /// Increments the eviction counter for `origin` (an L2 eviction from
    /// that GPU entered the IOMMU TLB).
    pub fn count_insert(&mut self, origin: GpuId) {
        self.eviction_counters[origin.index()] += 1;
    }

    /// Decrements the eviction counter for `origin` (its entry left the
    /// IOMMU TLB by hit-move, eviction, spill, or shootdown).
    ///
    /// # Panics
    ///
    /// Panics on underflow — the counter invariant is load-bearing for the
    /// spill-receiver choice, so a mismatch is a policy bug.
    pub fn count_remove(&mut self, origin: GpuId) {
        let c = &mut self.eviction_counters[origin.index()];
        // sim-lint: allow(hygiene, reason = "documented API contract: counter underflow corrupts spill-receiver choice and must abort release runs too")
        assert!(*c > 0, "eviction counter underflow for {origin}");
        *c -= 1;
    }

    /// Hardware cost of the eviction counters in bits (paper §4.3 charges
    /// 32 bits total for four counters).
    #[must_use]
    pub fn counter_bits(&self) -> u64 {
        self.eviction_counters.len() as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table2() {
        let c = IommuConfig::paper(4);
        assert_eq!(c.tlb.entries, 4096);
        assert_eq!(c.tlb.ways, 64);
        assert_eq!(c.tlb_latency, 200);
        assert_eq!(c.walkers, 8);
        assert_eq!(c.walk_latency, WalkLatency::Flat(500));
    }

    #[test]
    fn spill_receiver_is_min_counter() {
        let mut i = Iommu::new(&IommuConfig::paper(4));
        i.count_insert(GpuId(0));
        i.count_insert(GpuId(0));
        i.count_insert(GpuId(1));
        i.count_insert(GpuId(2));
        i.count_insert(GpuId(3));
        assert_eq!(i.spill_receiver(), GpuId(1), "lowest id among ties 1..3");
        i.count_remove(GpuId(3));
        assert_eq!(i.spill_receiver(), GpuId(3));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn counter_underflow_panics() {
        let mut i = Iommu::new(&IommuConfig::paper(2));
        i.count_remove(GpuId(0));
    }

    #[test]
    fn counter_bits_scale_with_gpus() {
        let i = Iommu::new(&IommuConfig::paper(4));
        assert_eq!(i.counter_bits(), 32, "paper §4.3: 32 bits for 4 GPUs");
    }
}
