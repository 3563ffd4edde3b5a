//! The multi-GPU system simulator: policies, events, construction and the
//! main loop. Event handlers live in [`handlers`].

mod handlers;
mod instrument;

use filters::{LocalTlbTracker, TrackerBackend};
use gcn_model::Gpu;
use iommu::{Iommu, WalkerScheduler};
use mgpu_types::{
    Asid, Cycle, DetSet, FlatMap, GpuId, PageSize, PhysPage, TranslationKey, VirtPage,
};
use obs::Resolution;
use pagetable::{FrameAllocator, PageTable, Walk};
use serde::{Deserialize, Serialize};
use sim_engine::EventQueue;
use workloads::AppWorkload;

use crate::config::{BuildError, SystemConfig, WorkloadSpec};
use crate::metrics::{ReuseTracker, SharingSets};
use crate::results::{AppResult, AppRunStats, RunResult, RunTelemetry, SnapshotRecord};

/// Inclusion relationship between the GPU L2 TLBs and the IOMMU TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Inclusion {
    /// The paper's baseline (§2.2): fills populate every level; evictions
    /// do not invalidate other levels.
    MostlyInclusive,
    /// least-TLB (§4.1): the IOMMU TLB is a victim TLB for the L2s —
    /// fills go to the L2 only, L2 evictions enter the IOMMU TLB, IOMMU
    /// hits *move* the entry to the requester's L2.
    LeastInclusive,
    /// Strictly exclusive: like least-inclusive, but inserting an entry
    /// into the IOMMU TLB invalidates every other L2 copy (the design the
    /// paper contrasts least-TLB against in §4.1).
    Exclusive,
}

/// The translation-hierarchy policy under test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Policy {
    /// L2 ↔ IOMMU inclusion discipline.
    pub inclusion: Inclusion,
    /// Local TLB Tracker backend; `Some` enables tracker-mediated peer
    /// sharing (least-TLB §4.1).
    pub tracker: Option<TrackerBackend>,
    /// Enable the IOMMU→L2 spilling engine (least-TLB §4.2,
    /// multi-application mode).
    pub spilling: bool,
    /// Spill counter `N`: how many times a translation may re-circulate
    /// through the hierarchy (§4.2; the paper picks 1).
    pub spill_credits: u8,
    /// Model an infinite IOMMU TLB (Fig. 3's limit study).
    pub infinite_iommu: bool,
    /// Valkyrie-style ring probing of neighbour L2 TLBs before the IOMMU
    /// (§5.5 comparison). Mutually exclusive with `tracker`.
    pub probing_ring: bool,
    /// Per-GPU local page tables; only faults reach the IOMMU (§5.3).
    pub local_page_tables: bool,
    /// Serialize the remote probe before the walk instead of racing them
    /// (the "colored solid line" of Fig. 20: only remote misses fall back
    /// to the page table).
    pub serialize_remote: bool,
    /// How the spill receiver GPU is chosen (§4.2 "where to spill"; the
    /// paper uses the eviction-counter minimum).
    pub spill_receiver: ReceiverPolicy,
    /// Per-GPU IOMMU TLB occupancy quota (the §4.4 "device-aware"
    /// extension the paper sketches as future work): a GPU whose
    /// victim-entry count reaches the quota has further victims bypass
    /// the IOMMU TLB instead of evicting other devices' entries,
    /// protecting light tenants from heavy ones.
    pub iommu_quota: Option<u64>,
}

/// Spill-receiver selection policy (ablation of §4.2's "where to spill").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReceiverPolicy {
    /// The GPU with the fewest IOMMU-TLB-resident entries (the paper's
    /// dynamic, phase-aware choice).
    MinEvictionCounter,
    /// Round-robin over GPUs, ignoring load.
    RoundRobin,
    /// Always the same GPU (degenerate static choice).
    Fixed,
}

impl Policy {
    /// The paper's baseline: mostly-inclusive hierarchy, no tracker.
    #[must_use]
    pub fn baseline() -> Self {
        Policy {
            inclusion: Inclusion::MostlyInclusive,
            tracker: None,
            spilling: false,
            spill_credits: 1,
            infinite_iommu: false,
            probing_ring: false,
            local_page_tables: false,
            serialize_remote: false,
            spill_receiver: ReceiverPolicy::MinEvictionCounter,
            iommu_quota: None,
        }
    }

    /// least-TLB for single-application execution (paper Algorithm 1):
    /// least-inclusive hierarchy + cuckoo tracker, no spilling.
    #[must_use]
    pub fn least_tlb() -> Self {
        Policy {
            inclusion: Inclusion::LeastInclusive,
            // Sized at 2x the L2 TLB per GPU with 8-bit fingerprints:
            // cuckoo filters lose insertions (-> false negatives) near
            // 100% load, so the paper's exactly-L2-sized partition is
            // under-provisioned; see DESIGN.md. The paper-sized filter is
            // evaluated in the tracker ablation experiment.
            tracker: Some(TrackerBackend::Cuckoo {
                entries_per_gpu: 1024,
                fingerprint_bits: 8,
            }),
            ..Self::baseline()
        }
    }

    /// least-TLB for multi-application execution (paper Algorithm 2):
    /// additionally spills IOMMU TLB victims into the least-loaded GPU's
    /// L2 with `N = 1`.
    #[must_use]
    pub fn least_tlb_spilling() -> Self {
        Policy {
            spilling: true,
            ..Self::least_tlb()
        }
    }

    /// Spilling least-TLB with a different spill counter `N` (Fig. 19).
    #[must_use]
    pub fn least_tlb_n(n: u8) -> Self {
        Policy {
            spill_credits: n,
            ..Self::least_tlb_spilling()
        }
    }

    /// The infinite-IOMMU-TLB limit study (Fig. 3).
    #[must_use]
    pub fn infinite_iommu() -> Self {
        Policy {
            infinite_iommu: true,
            ..Self::baseline()
        }
    }

    /// Strictly exclusive hierarchy (ablation).
    #[must_use]
    pub fn exclusive() -> Self {
        Policy {
            inclusion: Inclusion::Exclusive,
            ..Self::baseline()
        }
    }

    /// Valkyrie-extended TLB probing over a GPU ring (§5.5).
    #[must_use]
    pub fn probing_ring() -> Self {
        Policy {
            probing_ring: true,
            ..Self::baseline()
        }
    }

    /// Whether the IOMMU deduplicates concurrent cross-GPU requests via
    /// the pending-request table. This table is part of the least-TLB
    /// design (§4.1, where it arbitrates the probe/walk race); the paper's
    /// baseline IOMMU walks every arriving request, so concurrent requests
    /// for a shared page from different GPUs each occupy a walker — the
    /// contention least-TLB then relieves.
    #[must_use]
    pub(crate) fn uses_pending(&self) -> bool {
        self.tracker.is_some()
    }

    /// Whether the least-TLB victim-TLB discipline is active.
    #[must_use]
    pub(crate) fn is_victim_hierarchy(&self) -> bool {
        matches!(
            self.inclusion,
            Inclusion::LeastInclusive | Inclusion::Exclusive
        )
    }
}

/// Tag bit distinguishing folded 2 MB keys from 4 KB keys in the same
/// address space.
pub(crate) const SUPERPAGE_TAG: u64 = 1 << 62;

/// Simulation events. One flat enum keeps the entire system's control flow
/// in a single dispatch match.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// A wavefront is ready to issue its next operation.
    WfNext { gpu: GpuId, cu: u16, wf: u16 },
    /// Compute done; the memory access reaches the L1 TLB.
    WfMem {
        gpu: GpuId,
        cu: u16,
        wf: u16,
        key: TranslationKey,
    },
    /// The translation request reaches the L2 TLB.
    L2Access {
        gpu: GpuId,
        cu: u16,
        wf: u16,
        key: TranslationKey,
    },
    /// An ATS request arrives at the IOMMU.
    IommuArrive { gpu: GpuId, key: TranslationKey },
    /// A tracker-directed probe arrives at a peer GPU's L2 TLB.
    ProbeArrive { target: GpuId, key: TranslationKey },
    /// A page-table walk completes. `requester` routes the response when
    /// the policy does not use the pending table (baseline).
    PtwDone {
        key: TranslationKey,
        frame: PhysPage,
        requester: GpuId,
    },
    /// A batched page fault finishes CPU handling.
    FaultDone {
        key: TranslationKey,
        frame: PhysPage,
        requester: GpuId,
    },
    /// A GPU-local page-table walk completes (§5.3 system).
    LocalPtwDone {
        gpu: GpuId,
        key: TranslationKey,
        frame: PhysPage,
    },
    /// A translation response arrives at a GPU. `res` names where the
    /// hierarchy served it (observability; policy-inert).
    Fill {
        gpu: GpuId,
        key: TranslationKey,
        frame: PhysPage,
        res: Resolution,
    },
    /// A ring probe arrives at a neighbour (§5.5 policy).
    RingProbe {
        target: GpuId,
        origin: GpuId,
        key: TranslationKey,
    },
    /// A ring probe response returns to the requester.
    RingResult {
        origin: GpuId,
        key: TranslationKey,
        hit: Option<PhysPage>,
    },
    /// Check the PRI queue for a dispatchable fault batch.
    PriDispatch,
    /// Periodic TLB-content snapshot.
    Snapshot,
    /// A remote message reached intermediate fabric node `node` and must
    /// advance another hop toward its destination. Single-hop routes
    /// (every route of the flat topology) never produce this event — the
    /// terminal event is scheduled directly, which is what keeps the flat
    /// fabric byte-identical to the pre-fabric scalar model.
    FabricHop { node: usize, msg: NetMsg },
}

impl Event {
    /// Handler labels in declaration order — the profiler's attribution
    /// axis. `System::dispatch` returns the index of the variant it
    /// handled (the protocol's one match stays its only consumer).
    pub(crate) const VARIANT_NAMES: &'static [&'static str] = &[
        "wf_next",
        "wf_mem",
        "l2_access",
        "iommu_arrive",
        "probe_arrive",
        "ptw_done",
        "fault_done",
        "local_ptw_done",
        "fill",
        "ring_probe",
        "ring_result",
        "pri_dispatch",
        "snapshot",
        "fabric_hop",
    ];
}

/// A remote message in flight on the interconnect fabric. Each variant
/// carries exactly the payload of the terminal [`Event`] it becomes on
/// arrival; the destination node is derived from the payload (see
/// `System::msg_dest`), so a message cannot be delivered anywhere else.
#[derive(Debug, Clone, Copy)]
pub(crate) enum NetMsg {
    /// An ATS translation request on its way to the IOMMU
    /// (becomes [`Event::IommuArrive`]).
    IommuReq { gpu: GpuId, key: TranslationKey },
    /// A tracker-directed probe on its way to the holder GPU
    /// (becomes [`Event::ProbeArrive`]).
    Probe { target: GpuId, key: TranslationKey },
    /// A translation response on its way to a GPU
    /// (becomes [`Event::Fill`]).
    Fill {
        gpu: GpuId,
        key: TranslationKey,
        frame: PhysPage,
        res: Resolution,
    },
    /// A ring probe on its way to a neighbour
    /// (becomes [`Event::RingProbe`]).
    RingProbe {
        target: GpuId,
        origin: GpuId,
        key: TranslationKey,
    },
    /// A ring probe response on its way back to the requester
    /// (becomes [`Event::RingResult`]).
    RingResult {
        origin: GpuId,
        key: TranslationKey,
        hit: Option<PhysPage>,
    },
}

/// One application instance in the running system.
#[derive(Debug)]
pub(crate) struct AppInstance {
    pub workload: AppWorkload,
    /// Physical GPUs, in app-local order.
    pub gpus: Vec<GpuId>,
    /// Total instruction budget (per-GPU budget × GPUs).
    pub budget: u64,
    /// Instructions issued so far (first run).
    pub issued: u64,
    /// Whether the first full execution is still in progress.
    pub recording: bool,
    pub stats: AppRunStats,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneOwner {
    pub app: u16,
    pub app_gpu: u16,
    pub app_lane: u32,
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RingState {
    pub remaining: u8,
    pub served: bool,
}

/// The assembled multi-GPU system.
///
/// Membership map over superpage numbers (`vpn >> 9`).
///
/// Superpage numbers are drawn from the contiguous footprint range laid out
/// by `map_footprint`, so membership fits a dense bitmap; `fold_key` probes
/// it once per memory operation. Insertion order never matters (the map is
/// only read pointwise), so the bitmap is as deterministic as `DetSet`.
#[derive(Debug, Default)]
pub(crate) struct SuperpageMap {
    bits: Vec<u64>,
}

impl SuperpageMap {
    fn insert(&mut self, sp: VirtPage) {
        let i = sp.0 as usize;
        let w = i >> 6;
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        self.bits[w] |= 1 << (i & 63);
    }

    #[inline]
    fn contains(&self, sp: VirtPage) -> bool {
        let i = sp.0 as usize;
        self.bits
            .get(i >> 6)
            .is_some_and(|w| w & (1 << (i & 63)) != 0)
    }
}

/// See the [crate-level docs](crate) for a quickstart.
#[derive(Debug)]
pub struct System {
    pub(crate) cfg: SystemConfig,
    workload_name: String,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) gpus: Vec<Gpu>,
    pub(crate) iommu: Iommu,
    pub(crate) tracker: Option<LocalTlbTracker>,
    pub(crate) frames: FrameAllocator,
    pub(crate) tables: Vec<PageTable>,
    /// Superpage-mapped 2 MB page numbers per ASID (2 MB-page runs).
    pub(crate) superpages: Vec<SuperpageMap>,
    pub(crate) apps: Vec<AppInstance>,
    /// Per GPU, per lane (cu × wavefronts_per_cu + wf): the owning app.
    pub(crate) lane_owner: Vec<Vec<Option<LaneOwner>>>,
    /// Infinite-IOMMU policy membership set.
    pub(crate) infinite_seen: DetSet<TranslationKey>,
    /// In-flight ring probes (§5.5 policy).
    pub(crate) ring_pending: FlatMap<(GpuId, TranslationKey), RingState>,
    /// Per-GPU local page-table presence (§5.3 system).
    pub(crate) local_pt: Vec<DetSet<TranslationKey>>,
    /// Per-GPU local walkers (§5.3 system).
    pub(crate) gpu_walkers: Vec<WalkerScheduler>,
    /// Per-app reuse-distance trackers (when enabled).
    pub(crate) reuse: Vec<ReuseTracker>,
    /// Per-app sharing sets (when enabled).
    pub(crate) sharing: Vec<SharingSets>,
    pub(crate) snapshots: Vec<SnapshotRecord>,
    pub(crate) completed: usize,
    pub(crate) end_cycle: Option<Cycle>,
    /// Scripted mode: wavefronts are inert; translation requests come only
    /// from [`System::inject_translation`] (used by the paper walk-through
    /// tests and by trace replay).
    pub(crate) scripted: bool,
    /// Round-robin cursor for `ReceiverPolicy::RoundRobin`.
    pub(crate) spill_rr: usize,
    /// The interconnect fabric every remote message traverses
    /// (flat-compatibility graph unless `cfg.fabric` selects a topology).
    pub(crate) fabric: fabric::Fabric,
    /// Observability state (`cfg.obs`); `None` when fully disabled, so
    /// the instrumentation sites cost one branch each.
    pub(crate) obs: Option<Box<instrument::Instrument>>,
    /// Next timeline window boundary (`u64::MAX` when no timeline is
    /// collected): the dispatch loops compare the pop time against this
    /// before dispatching, so the disabled path costs one compare.
    pub(crate) timeline_next: u64,
    /// Host-side dispatch profiler (`cfg.obs.profile`); wall-clock state
    /// that never feeds simulation time or deterministic outputs.
    pub(crate) prof: Option<Box<obs::Prof>>,
    /// Recorded L2-level requests (when `cfg.record_trace`).
    pub(crate) trace: Vec<crate::trace::TraceEntry>,
    /// The spec, kept for trace headers.
    pub(crate) spec: WorkloadSpec,
}

impl System {
    /// Builds a system running `spec` under `cfg`. Footprints are mapped
    /// into per-ASID page tables up front (on-demand faulting via PRI is
    /// exercised by disabling pre-mapping in `cfg`).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the spec does not fit the
    /// configuration (GPU range, lane slots, physical memory).
    pub fn new(cfg: &SystemConfig, spec: &WorkloadSpec) -> Result<Self, BuildError> {
        if spec.placements.is_empty() {
            return Err(BuildError::EmptyWorkload);
        }
        if spec.gpus_required() > cfg.gpus {
            return Err(BuildError::GpuOutOfRange {
                required: spec.gpus_required(),
                available: cfg.gpus,
            });
        }
        // How many apps share each GPU.
        let mut per_gpu_apps: Vec<Vec<usize>> = vec![Vec::new(); cfg.gpus];
        for (i, p) in spec.placements.iter().enumerate() {
            for &g in &p.gpus {
                per_gpu_apps[usize::from(g)].push(i);
            }
        }
        for (g, apps) in per_gpu_apps.iter().enumerate() {
            if apps.len() > cfg.gpu.wavefronts_per_cu {
                return Err(BuildError::TooManyAppsPerGpu {
                    gpu: g as u8,
                    apps: apps.len(),
                    slots: cfg.gpu.wavefronts_per_cu,
                });
            }
        }

        // Build app instances. Lanes per GPU: each co-resident app gets an
        // equal share of the wavefront slots in every CU.
        let mut apps = Vec::with_capacity(spec.placements.len());
        for (i, p) in spec.placements.iter().enumerate() {
            let tenants = p
                .gpus
                .iter()
                .map(|&g| per_gpu_apps[usize::from(g)].len())
                .max()
                .unwrap_or(1);
            let share = cfg.gpu.wavefronts_per_cu / tenants;
            let lanes_per_gpu = cfg.gpu.cus * share.max(1);
            let workload = AppWorkload::new(
                p.app,
                Asid(i as u16),
                p.gpus.len(),
                lanes_per_gpu,
                cfg.scale,
                cfg.seed ^ (i as u64) << 32,
            );
            apps.push(AppInstance {
                workload,
                gpus: p.gpus.iter().map(|&g| GpuId(g)).collect(),
                budget: cfg.instructions_per_gpu * p.gpus.len() as u64,
                issued: 0,
                recording: true,
                stats: AppRunStats::default(),
            });
        }

        // Lane ownership map.
        let wpc = cfg.gpu.wavefronts_per_cu;
        let mut lane_owner: Vec<Vec<Option<LaneOwner>>> =
            vec![vec![None; cfg.gpu.cus * wpc]; cfg.gpus];
        for (app_idx, p) in spec.placements.iter().enumerate() {
            for (app_gpu, &g) in p.gpus.iter().enumerate() {
                let tenants = &per_gpu_apps[usize::from(g)];
                let slot = tenants
                    .iter()
                    .position(|&a| a == app_idx)
                    // sim-lint: allow(panic-reach, reason = "per_gpu_apps was built from these placements lines above; absence is a construction bug")
                    .expect("app is a tenant of its own GPU");
                let share = wpc / tenants.len();
                for cu in 0..cfg.gpu.cus {
                    for s in 0..share {
                        let wf = slot * share + s;
                        let lane = cu * wpc + wf;
                        lane_owner[usize::from(g)][lane] = Some(LaneOwner {
                            app: app_idx as u16,
                            app_gpu: app_gpu as u16,
                            app_lane: (cu * share + s) as u32,
                        });
                    }
                }
            }
        }

        // Physical memory + page tables.
        let mut frames = FrameAllocator::new(cfg.phys_frames);
        if let Some((count, stride)) = cfg.fragmentation {
            frames.inject_fragmentation(count, stride);
        }
        let total_pages: u64 = apps.iter().map(|a| a.workload.footprint_pages()).sum();
        if total_pages > frames.free_frames() as u64 {
            return Err(BuildError::OutOfPhysicalMemory);
        }
        let mut tables: Vec<PageTable> = (0..apps.len()).map(|_| PageTable::new()).collect();
        let mut superpages: Vec<SuperpageMap> =
            (0..apps.len()).map(|_| SuperpageMap::default()).collect();
        if cfg.premap {
            for (i, app) in apps.iter().enumerate() {
                Self::map_footprint(
                    cfg,
                    &mut frames,
                    &mut tables[i],
                    &mut superpages[i],
                    app.workload.footprint_pages(),
                )?;
            }
        }

        let tracker = cfg
            .policy
            .tracker
            .map(|b| LocalTlbTracker::new(cfg.gpus, b));
        let gpus: Vec<Gpu> = (0..cfg.gpus)
            .map(|g| Gpu::new(GpuId(g as u8), &cfg.gpu))
            .collect();
        let reuse = if cfg.track_reuse {
            (0..apps.len()).map(|_| ReuseTracker::new()).collect()
        } else {
            Vec::new()
        };
        let sharing = if cfg.track_sharing {
            apps.iter()
                .map(|a| SharingSets::new(a.gpus.len()))
                .collect()
        } else {
            Vec::new()
        };

        let obs = cfg.obs.enabled().then(|| {
            let labels: Vec<String> = apps
                .iter()
                .enumerate()
                .map(|(i, a)| format!("app{i}:{}", a.workload.kind().name()))
                .collect();
            Box::new(instrument::Instrument::new(
                &cfg.obs,
                &labels,
                cfg.timeline_window(),
            ))
        });
        let timeline_next = obs.as_ref().map_or(u64::MAX, |o| o.timeline_next());
        let mut system = System {
            cfg: cfg.clone(),
            workload_name: spec.name.clone(),
            queue: EventQueue::new(),
            gpus,
            iommu: Iommu::new(&cfg.iommu),
            tracker,
            frames,
            tables,
            superpages,
            apps,
            lane_owner,
            infinite_seen: DetSet::new(),
            ring_pending: FlatMap::new(),
            local_pt: vec![DetSet::new(); cfg.gpus],
            gpu_walkers: (0..cfg.gpus)
                .map(|_| WalkerScheduler::new(cfg.iommu.walkers, cfg.iommu.walker_mode))
                .collect(),
            reuse,
            sharing,
            snapshots: Vec::new(),
            completed: 0,
            end_cycle: None,
            scripted: false,
            spill_rr: 0,
            fabric: cfg.build_fabric(),
            obs,
            timeline_next,
            prof: cfg
                .obs
                .profile
                .then(|| Box::new(obs::Prof::new(Event::VARIANT_NAMES))),
            trace: Vec::new(),
            spec: spec.clone(),
        };
        system.seed_events();
        Ok(system)
    }

    /// Builds a *scripted* system: the workload's wavefronts are inert and
    /// translation requests are driven explicitly via
    /// [`inject_translation`](Self::inject_translation) — the harness used
    /// by the paper's Fig. 10/13 walk-through tests and by translation
    /// trace replay. The spec still determines address spaces and
    /// pre-mapped footprints.
    ///
    /// # Errors
    ///
    /// Same as [`System::new`].
    pub fn new_scripted(cfg: &SystemConfig, spec: &WorkloadSpec) -> Result<Self, BuildError> {
        let mut system = Self::new(cfg, spec)?;
        system.scripted = true;
        // Drop the seeded wavefront events: scripted runs are driven by
        // injections only.
        system.queue = EventQueue::new();
        Ok(system)
    }

    /// Schedules a translation request for `(asid, vpn)` from `gpu`,
    /// entering the hierarchy at the L2 TLB (as an L1 miss would) at time
    /// `at` (clamped to the current time if already past). Scripted-mode
    /// only, but also usable mid-run from tests.
    pub fn inject_translation(&mut self, gpu: GpuId, asid: Asid, vpn: VirtPage, at: Cycle) {
        let key = self.fold_key(asid, vpn);
        self.queue.schedule_no_earlier(
            at,
            Event::L2Access {
                gpu,
                cu: 0,
                wf: 0,
                key,
            },
        );
    }

    /// Processes events until the queue drains, returning the final time.
    /// Used with [`inject_translation`](Self::inject_translation): inject
    /// a batch, drain, inspect state via [`gpu`](Self::gpu) /
    /// [`iommu`](Self::iommu).
    ///
    /// # Panics
    ///
    /// Panics if the event budget is exhausted (non-scripted systems never
    /// drain — their wavefronts run forever).
    pub fn drain(&mut self) -> Cycle {
        let mut batch: Vec<Event> = Vec::new();
        // sim-lint: allow(event, reason = "scripted-flow dispatch loop is a sanctioned pop_batch call site; handlers must route through dispatch")
        while let Some(t) = self.queue.pop_batch(&mut batch) {
            if t.0 >= self.timeline_next {
                self.roll_timeline(t.0, batch.len() as u64);
            }
            for ev in batch.drain(..) {
                self.dispatch(t, ev);
            }
            // sim-lint: allow(hygiene, reason = "liveness guard: must fire in release builds too, or a scheduling bug hangs the harness")
            assert!(
                self.queue.delivered() <= self.cfg.max_events,
                "event budget exhausted while draining"
            );
        }
        self.queue.now()
    }

    /// Drains the fabric's per-window link accumulators into the obs
    /// layer's window shape. Gated on an explicit fabric section, like
    /// the cumulative link export in `collect`.
    fn link_windows(&mut self) -> Vec<obs::LinkWindow> {
        if self.cfg.fabric.is_none() {
            return Vec::new();
        }
        self.fabric
            .window_sample()
            .into_iter()
            .map(|l| obs::LinkWindow {
                from: l.from as u64,
                to: l.to as u64,
                messages: l.messages,
                busy_cycles: l.busy_cycles,
                queue_peak: l.queue_peak,
            })
            .collect()
    }

    /// Closes every timeline window with a boundary `<= now`. Called from
    /// the dispatch loops *before* dispatching the batch popped at `now`,
    /// so all deltas accumulated since the previous close belong to the
    /// first unclosed window (see `obs::timeline`). `batch_len` is
    /// subtracted from the delivered count because `pop_batch` counts the
    /// whole batch as delivered before any of it is dispatched.
    #[cold]
    fn roll_timeline(&mut self, now: u64, batch_len: u64) {
        let delivered = self.queue.delivered().saturating_sub(batch_len);
        let depth = self.queue.len() as u64;
        let links = self.link_windows();
        match &mut self.obs {
            Some(o) => {
                o.timeline_roll(now, delivered, depth, links);
                self.timeline_next = o.timeline_next();
            }
            None => self.timeline_next = u64::MAX,
        }
    }

    /// Timeline windows closed so far (the sim-check oracle diffs these
    /// against an independent per-window re-derivation), or `None` when
    /// no timeline is collected.
    #[must_use]
    pub fn timeline_windows(&self) -> Option<&[obs::TimelineWindow]> {
        self.obs.as_ref().and_then(|o| o.timeline_windows())
    }

    fn map_footprint(
        cfg: &SystemConfig,
        frames: &mut FrameAllocator,
        table: &mut PageTable,
        superpages: &mut SuperpageMap,
        footprint: u64,
    ) -> Result<(), BuildError> {
        match cfg.page_size {
            PageSize::Size4K => {
                for vpn in 0..footprint {
                    let frame = frames
                        .allocate()
                        .map_err(|_| BuildError::OutOfPhysicalMemory)?;
                    table
                        .map(VirtPage(vpn), frame, PageSize::Size4K)
                        // sim-lint: allow(panic-reach, reason = "tables are freshly built in this loop; a conflict is a construction bug")
                        .expect("fresh table has no conflicting mappings");
                }
            }
            PageSize::Size2M => {
                let mut vpn = 0;
                while vpn < footprint {
                    if vpn % 512 == 0 && vpn + 512 <= footprint {
                        // Try a superpage; fall back to 4 KB pages when
                        // physical memory is too fragmented (§5.4).
                        if let Ok(base) = frames.allocate_contiguous(512) {
                            table
                                .map(VirtPage(vpn), base, PageSize::Size2M)
                                // sim-lint: allow(panic-reach, reason = "tables are freshly built in this loop; a conflict is a construction bug")
                                .expect("fresh table has no conflicting mappings");
                            superpages.insert(VirtPage(vpn >> 9));
                            vpn += 512;
                            continue;
                        }
                    }
                    let frame = frames
                        .allocate()
                        .map_err(|_| BuildError::OutOfPhysicalMemory)?;
                    table
                        .map(VirtPage(vpn), frame, PageSize::Size4K)
                        // sim-lint: allow(panic-reach, reason = "tables are freshly built in this loop; a conflict is a construction bug")
                        .expect("fresh table has no conflicting mappings");
                    vpn += 1;
                }
            }
        }
        Ok(())
    }

    fn seed_events(&mut self) {
        let wpc = self.cfg.gpu.wavefronts_per_cu;
        let mut stagger = 0u64;
        for g in 0..self.cfg.gpus {
            for cu in 0..self.cfg.gpu.cus {
                for wf in 0..wpc {
                    if self.lane_owner[g][cu * wpc + wf].is_some() {
                        // Stagger lane start-up to decorrelate first bursts.
                        self.queue.schedule_after(
                            stagger % 197,
                            Event::WfNext {
                                gpu: GpuId(g as u8),
                                cu: cu as u16,
                                wf: wf as u16,
                            },
                        );
                        stagger += 13;
                    }
                }
            }
        }
        if let Some(interval) = self.cfg.snapshot_interval {
            self.queue.schedule_after(interval, Event::Snapshot);
        }
    }

    /// Folds a 4 KB-granule generator page onto the TLB key under the
    /// configured page size (superpage-backed pages collapse to a tagged
    /// 2 MB key; fragmentation-fallback pages stay 4 KB).
    ///
    /// This sits on the per-memory-op hot path of every 2 MB-page
    /// simulation, which is why [`SuperpageMap`] below is a bitmap and not
    /// an ordered set.
    pub(crate) fn fold_key(&self, asid: Asid, vpn: VirtPage) -> TranslationKey {
        match self.cfg.page_size {
            PageSize::Size4K => TranslationKey::new(asid, vpn),
            PageSize::Size2M => {
                let sp = vpn.fold_to(PageSize::Size2M);
                if self.superpages[usize::from(asid.0)].contains(sp) {
                    TranslationKey::new(asid, VirtPage(sp.0 | SUPERPAGE_TAG))
                } else {
                    TranslationKey::new(asid, vpn)
                }
            }
        }
    }

    /// Functional page-table walk for a (possibly folded) key.
    pub(crate) fn walk_key(&self, key: TranslationKey) -> Option<Walk> {
        let vpn = if key.vpn.0 & SUPERPAGE_TAG != 0 {
            VirtPage((key.vpn.0 & !SUPERPAGE_TAG) << 9)
        } else {
            key.vpn
        };
        self.tables[usize::from(key.asid.0)].translate(vpn)
    }

    /// Runs the simulation until every application finishes its first full
    /// execution, then collects results.
    ///
    /// # Panics
    ///
    /// Panics if the event budget (`cfg.max_events`) is exhausted — that
    /// indicates a scheduling bug, not a long workload.
    pub fn run(mut self) -> RunResult {
        // sim-lint: allow(nondet, reason = "wall-clock telemetry only; never feeds simulation state or output ordering")
        let wall_start = std::time::Instant::now();
        let mut batch: Vec<Event> = Vec::new();
        let profiling = self.prof.is_some();
        let mut prof_counts = [0u32; Event::VARIANT_NAMES.len()];
        if let Some(p) = &mut self.prof {
            // Start timing at the loop head so construction cost is not
            // attributed to the first batch.
            p.rearm();
        }
        // sim-lint: allow(event, reason = "the core dispatch loop is the sanctioned pop_batch call site; handlers must route through dispatch")
        'sim: while let Some(t) = self.queue.pop_batch(&mut batch) {
            if t.0 >= self.timeline_next {
                self.roll_timeline(t.0, batch.len() as u64);
            }
            let mut pending = batch.drain(..);
            while let Some(ev) = pending.next() {
                let variant = self.dispatch(t, ev);
                if profiling {
                    prof_counts[variant] += 1;
                }
                if self.completed == self.apps.len() {
                    // Events left in the batch were never dispatched; undo
                    // their delivered-count so telemetry matches the
                    // one-pop-per-dispatch contract exactly.
                    let undelivered = pending.len() as u64;
                    drop(pending);
                    // sim-lint: allow(event, reason = "paired with the pop_batch above; keeps RunResult.events identical to per-event popping")
                    self.queue.rescind_delivered(undelivered);
                    break 'sim;
                }
                // sim-lint: allow(hygiene, reason = "liveness guard: must fire in release builds too, or a scheduling bug hangs the harness")
                assert!(
                    // Subtract the not-yet-dispatched tail of the batch so the
                    // guard trips at exactly the same event as per-pop looping.
                    self.queue.delivered() - pending.len() as u64 <= self.cfg.max_events,
                    "event budget exhausted: simulation is not converging"
                );
            }
            if let Some(p) = &mut self.prof {
                p.batch(&prof_counts);
                prof_counts = [0; Event::VARIANT_NAMES.len()];
            }
        }
        let wall = wall_start.elapsed().as_secs_f64();
        self.finish_with_wall_time(wall)
    }

    /// Assembles the result record without running (scripted flows: build
    /// with [`new_scripted`](Self::new_scripted), drive with
    /// [`inject_translation`](Self::inject_translation) +
    /// [`drain`](Self::drain), then call this). The telemetry block is
    /// present but carries zero wall time; callers that timed the scripted
    /// phase themselves use
    /// [`finish_with_wall_time`](Self::finish_with_wall_time).
    #[must_use]
    pub fn finish(self) -> RunResult {
        self.finish_with_wall_time(0.0)
    }

    /// Like [`finish`](Self::finish), recording `wall_seconds` as the
    /// host time the caller measured for the run.
    #[must_use]
    pub fn finish_with_wall_time(self, wall_seconds: f64) -> RunResult {
        let events_scheduled = self.queue.scheduled();
        let queue_high_water = self.queue.high_water() as u64;
        let mut result = self.collect();
        result.telemetry = Some(RunTelemetry {
            wall_seconds,
            instructions: result.apps.iter().map(|a| a.stats.instructions).sum(),
            events_delivered: result.events,
            events_scheduled,
            queue_high_water,
        });
        result
    }

    fn collect(mut self) -> RunResult {
        let end = self.end_cycle.unwrap_or(self.queue.now());
        let profile = self.prof.take().map(|p| p.report());
        // Flush the trailing partial timeline window before taking the
        // instrument: all dispatched events happened at or before the
        // queue's final time, so the remaining deltas belong to the
        // current (partial) window.
        let flush_end = self.queue.now().0;
        let flush_delivered = self.queue.delivered();
        let flush_depth = self.queue.len() as u64;
        let flush_links = if self.timeline_next != u64::MAX {
            self.link_windows()
        } else {
            Vec::new()
        };
        // Fold the structural end-of-run counters (TLB/IOMMU stats) into
        // the registry, then snapshot it and serialize the trace.
        let (metrics, trace_events, timeline) = match self.obs.take() {
            Some(mut o) => {
                if self.cfg.obs.timeline {
                    o.timeline_flush(flush_end, flush_delivered, flush_depth, flush_links);
                }
                self.iommu.stats.export(&mut o.reg, "iommu");
                self.iommu.tlb.stats().export(&mut o.reg, "iommu.tlb");
                for (g, gpu) in self.gpus.iter().enumerate() {
                    gpu.l2_tlb
                        .stats()
                        .export(&mut o.reg, &format!("gpu{g}.l2_tlb"));
                    gpu.l1_stats().export(&mut o.reg, &format!("gpu{g}.l1_tlb"));
                }
                // Per-link fabric telemetry, only when a fabric section is
                // configured: pre-fabric metric snapshots stay byte-stable.
                if self.cfg.fabric.is_some() {
                    for l in self.fabric.link_stats() {
                        let prefix = format!("fabric.link.{}-{}", l.from, l.to);
                        for (name, value) in [
                            ("messages", l.messages),
                            ("busy_cycles", l.busy_cycles),
                            ("queue_peak", l.queue_peak),
                            ("overflows", l.overflows),
                        ] {
                            let id = o.reg.counter(&format!("{prefix}.{name}"));
                            o.reg.add(id, value);
                        }
                    }
                }
                let timeline = o.take_timeline();
                // Append the timeline as Perfetto counter tracks under a
                // dedicated pid (the first id past the GPU pids).
                if let (Some(tl), Some(sink)) = (&timeline, o.trace.as_mut()) {
                    let pid = self.cfg.gpus as u64;
                    sink.set_process_name(pid, "timeline");
                    for w in &tl.windows {
                        sink.counter(pid, "timeline.events", w.start, w.events);
                        sink.counter(pid, "timeline.queue_depth", w.start, w.queue_depth);
                        for l in &w.links {
                            let base = format!("timeline.link.{}-{}", l.from, l.to);
                            sink.counter(pid, &format!("{base}.busy"), w.start, l.busy_cycles);
                            sink.counter(pid, &format!("{base}.queue_peak"), w.start, l.queue_peak);
                        }
                    }
                }
                let trace_events = o.trace.as_ref().and_then(|t| t.finish().ok());
                let metrics = self.cfg.obs.metrics.then(|| o.reg.snapshot());
                (metrics, trace_events, timeline)
            }
            None => (None, None, None),
        };
        let track_reuse = self.cfg.track_reuse;
        let track_sharing = self.cfg.track_sharing;
        let apps = self
            .apps
            .iter()
            .enumerate()
            .map(|(i, a)| AppResult {
                kind: a.workload.kind(),
                gpus: a.gpus.clone(),
                stats: a.stats,
                reuse: track_reuse.then(|| self.reuse[i].histogram().clone()),
                sharing: track_sharing.then(|| self.sharing[i].shared_fractions()),
            })
            .collect();
        RunResult {
            workload: self.workload_name,
            end_cycle: end.0,
            events: self.queue.delivered(),
            apps,
            iommu: self.iommu.stats,
            iommu_tlb: *self.iommu.tlb.stats(),
            gpu_l2: self.gpus.iter().map(|g| *g.l2_tlb.stats()).collect(),
            tracker: self.tracker.as_ref().map(|t| *t.stats()),
            snapshots: self.snapshots,
            trace: if self.cfg.record_trace {
                Some(crate::trace::TranslationTrace {
                    spec: self.spec,
                    entries: self.trace,
                })
            } else {
                None
            },
            metrics,
            trace_events,
            telemetry: None,
            fabric: self
                .cfg
                .fabric
                .is_some()
                .then(|| crate::results::FabricSummary {
                    topology: self.cfg.topology().name().to_string(),
                    nodes: self.fabric.nodes(),
                    links: self.fabric.link_stats(),
                }),
            timeline,
            profile,
        }
    }

    /// Current value of a named observability counter, or `None` when
    /// observability is disabled or the name was never interned. The
    /// sim-check differential oracle diffs the `hops.*` counters against
    /// an independent mirror after every injected request.
    #[must_use]
    pub fn metrics_counter(&self, name: &str) -> Option<u64> {
        self.obs.as_ref().and_then(|o| o.reg.counter_value(name))
    }

    /// Read access to a GPU (tests and invariant checks).
    #[must_use]
    pub fn gpu(&self, g: usize) -> &Gpu {
        &self.gpus[g]
    }

    /// Read access to the IOMMU (tests and invariant checks).
    #[must_use]
    pub fn iommu(&self) -> &Iommu {
        &self.iommu
    }

    /// Full GPU-local TLB shootdown (paper §4.4): invalidates the GPU's L1
    /// and L2 TLBs (spilled entries included) and deregisters its L2
    /// contents from the tracker.
    pub fn shootdown_gpu(&mut self, gpu: GpuId) {
        let keys = self.gpus[gpu.index()].l2_tlb.resident_keys();
        if let Some(tracker) = &mut self.tracker {
            for k in keys {
                tracker.remove(gpu, k);
            }
        }
        self.gpus[gpu.index()].l2_tlb.flush();
        for cu in &mut self.gpus[gpu.index()].cus {
            cu.l1_tlb.flush();
        }
    }

    /// IOMMU TLB shootdown (paper §4.4): flushes the IOMMU TLB, resets the
    /// tracker and zeroes the eviction counters.
    pub fn shootdown_iommu(&mut self) {
        self.iommu.tlb.flush();
        self.infinite_seen.clear();
        if let Some(tracker) = &mut self.tracker {
            tracker.reset();
        }
        for c in &mut self.iommu.eviction_counters {
            *c = 0;
        }
    }

    /// Checks the load-bearing cross-structure invariants; panics with a
    /// description on violation. Used by integration tests.
    ///
    /// # Panics
    ///
    /// Panics if the IOMMU eviction counters disagree with the actual
    /// per-origin entry counts, or (with the `Exact` tracker backend) if
    /// tracker contents diverge from L2 contents.
    pub fn check_invariants(&self) {
        // Eviction counters == per-origin entry counts in the IOMMU TLB.
        let mut counts = vec![0u64; self.cfg.gpus];
        for (_, e) in self.iommu.tlb.iter() {
            counts[e.origin.index()] += 1;
        }
        // sim-lint: allow(hygiene, reason = "check_invariants is a test-facing checker whose whole contract is to panic on violation")
        assert_eq!(
            counts, self.iommu.eviction_counters,
            "eviction counters diverged from IOMMU TLB contents"
        );
        // With an exact tracker, tracker contents must equal L2 contents.
        if let (Some(tracker), Some(TrackerBackend::Exact)) =
            (&self.tracker, self.cfg.policy.tracker)
        {
            for (g, gpu) in self.gpus.iter().enumerate() {
                for (key, _) in gpu.l2_tlb.iter() {
                    // sim-lint: allow(hygiene, reason = "check_invariants is a test-facing checker whose whole contract is to panic on violation")
                    assert!(
                        tracker.peek(GpuId(g as u8), key),
                        "L2-resident {key} missing from tracker partition {g}"
                    );
                }
            }
        }
    }
}
