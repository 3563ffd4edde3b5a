//! Event handlers: the GPU-side translation path, the IOMMU-side policy
//! machinery (least-inclusive moves, tracker probes, walk racing,
//! spilling), and the auxiliary paths (ring probing, local page tables,
//! PRI faulting, snapshots).

use gcn_model::{MshrOutcome, Waiter};
use iommu::WalkRequest;
use mgpu_types::{
    CuId, Cycle, DetMap, FlatEntry, GpuId, PhysPage, TranslationKey, WaitList, WavefrontId,
};
use obs::Resolution;
use tlb::{Displaced, TlbEntry};

use super::{Event, Inclusion, NetMsg, RingState, System};
use crate::results::SnapshotRecord;

/// Spill chains longer than this are cut (paper §4.2's ping-pong effect is
/// short with N=1; the cap only guards pathological configurations).
const MAX_SPILL_CHAIN: u32 = 64;

impl System {
    /// The protocol's single dispatcher. Returns the handled variant's
    /// index into [`Event::VARIANT_NAMES`] so the run loop can attribute
    /// profiler batches without a second match over the protocol.
    pub(crate) fn dispatch(&mut self, t: Cycle, ev: Event) -> usize {
        match ev {
            Event::WfNext { gpu, cu, wf } => {
                self.on_wf_next(t, gpu, cu, wf);
                0
            }
            Event::WfMem { gpu, cu, wf, key } => {
                self.on_wf_mem(t, gpu, cu, wf, key);
                1
            }
            Event::L2Access { gpu, cu, wf, key } => {
                self.on_l2_access(t, gpu, cu, wf, key);
                2
            }
            Event::IommuArrive { gpu, key } => {
                self.on_iommu_arrive(t, gpu, key);
                3
            }
            Event::ProbeArrive { target, key } => {
                self.on_probe_arrive(t, target, key);
                4
            }
            Event::PtwDone {
                key,
                frame,
                requester,
            } => {
                self.on_ptw_done(t, key, frame, requester);
                5
            }
            Event::FaultDone {
                key,
                frame,
                requester,
            } => {
                self.on_fault_done(t, key, frame, requester);
                6
            }
            Event::LocalPtwDone { gpu, key, frame } => {
                self.on_local_ptw_done(t, gpu, key, frame);
                7
            }
            Event::Fill {
                gpu,
                key,
                frame,
                res,
            } => {
                self.on_fill(t, gpu, key, frame, res);
                8
            }
            Event::RingProbe {
                target,
                origin,
                key,
            } => {
                self.on_ring_probe(t, target, origin, key);
                9
            }
            Event::RingResult { origin, key, hit } => {
                self.on_ring_result(t, origin, key, hit);
                10
            }
            Event::PriDispatch => {
                self.on_pri_dispatch(t);
                11
            }
            Event::Snapshot => {
                self.on_snapshot(t);
                12
            }
            Event::FabricHop { node, msg } => {
                self.on_fabric_hop(t, node, msg);
                13
            }
        }
    }

    // ------------------------------------------------------------------
    // Interconnect transport
    // ------------------------------------------------------------------

    /// Hands a message to the interconnect at `at` from fabric node `src`.
    ///
    /// The destination node is a function of the message (GPUs map to their
    /// index, the IOMMU to node `cfg.gpus`). Single-hop routes — every
    /// route under the flat topology — deliver directly; multi-hop routes
    /// re-enter the fabric via `Event::FabricHop` at each intermediate
    /// node, so contention is modelled per link.
    pub(crate) fn net_send(&mut self, at: Cycle, src: usize, msg: NetMsg) {
        let dst = self.msg_dest(msg);
        if src == dst {
            // Local delivery (e.g. a fill for a waiter that also holds the
            // entry): no link is traversed, no latency is charged.
            self.deliver(at, msg);
            return;
        }
        let hop = self.fabric.send(at, src, dst);
        if hop.node == dst {
            self.deliver(hop.arrive, msg);
        } else {
            self.queue.schedule_no_earlier(
                hop.arrive,
                Event::FabricHop {
                    node: hop.node,
                    msg,
                },
            );
        }
    }

    /// A message reached intermediate fabric node `node`: forward it along
    /// its route.
    fn on_fabric_hop(&mut self, t: Cycle, node: usize, msg: NetMsg) {
        self.net_send(t, node, msg);
    }

    /// Terminal delivery: unwraps the network message into its protocol
    /// event at the destination.
    fn deliver(&mut self, at: Cycle, msg: NetMsg) {
        match msg {
            NetMsg::IommuReq { gpu, key } => self
                .queue
                .schedule_no_earlier(at, Event::IommuArrive { gpu, key }),
            NetMsg::Probe { target, key } => self
                .queue
                .schedule_no_earlier(at, Event::ProbeArrive { target, key }),
            NetMsg::Fill {
                gpu,
                key,
                frame,
                res,
            } => self.queue.schedule_no_earlier(
                at,
                Event::Fill {
                    gpu,
                    key,
                    frame,
                    res,
                },
            ),
            NetMsg::RingProbe {
                target,
                origin,
                key,
            } => self.queue.schedule_no_earlier(
                at,
                Event::RingProbe {
                    target,
                    origin,
                    key,
                },
            ),
            NetMsg::RingResult { origin, key, hit } => self
                .queue
                .schedule_no_earlier(at, Event::RingResult { origin, key, hit }),
        }
    }

    /// The fabric node a message is addressed to.
    fn msg_dest(&self, msg: NetMsg) -> usize {
        match msg {
            NetMsg::IommuReq { .. } => self.cfg.gpus,
            NetMsg::Probe { target, .. } | NetMsg::RingProbe { target, .. } => target.index(),
            NetMsg::Fill { gpu, .. } => gpu.index(),
            NetMsg::RingResult { origin, .. } => origin.index(),
        }
    }

    // ------------------------------------------------------------------
    // GPU side
    // ------------------------------------------------------------------

    fn on_wf_next(&mut self, t: Cycle, gpu: GpuId, cu: u16, wf: u16) {
        if self.scripted {
            return;
        }
        let wpc = self.cfg.gpu.wavefronts_per_cu;
        let lane = usize::from(cu) * wpc + usize::from(wf);
        let Some(owner) = self.lane_owner[gpu.index()][lane] else {
            return;
        };
        let idx = usize::from(owner.app);
        let (op, asid, recording) = {
            let app = &mut self.apps[idx];
            let op = app
                .workload
                .next_op(usize::from(owner.app_gpu), owner.app_lane as usize);
            (op, app.workload.asid(), app.recording)
        };
        let key = self.fold_key(asid, op.vpn);
        let instructions = u64::from(op.compute) + 1;
        if recording {
            if self.cfg.track_sharing {
                self.sharing[idx].touch(usize::from(owner.app_gpu), key);
            }
            let app = &mut self.apps[idx];
            app.stats.instructions += instructions;
            app.stats.mem_ops += 1;
            app.issued += instructions;
            if app.issued >= app.budget {
                app.recording = false;
                app.stats.completion_cycle = Some(t.0);
                self.completed += 1;
                if self.completed == self.apps.len() {
                    self.end_cycle = Some(t);
                }
            }
        }
        let done = self.gpus[gpu.index()].cus[usize::from(cu)].charge_compute(t, instructions);
        self.queue
            .schedule_no_earlier(done, Event::WfMem { gpu, cu, wf, key });
    }

    fn on_wf_mem(&mut self, t: Cycle, gpu: GpuId, cu: u16, wf: u16, key: TranslationKey) {
        let lane = usize::from(cu) * self.cfg.gpu.wavefronts_per_cu + usize::from(wf);
        if self.obs.is_some() {
            // The span opens (and the stall starts) at the lane's *first*
            // arrival here; blocking-L1 replays keep the original stamps,
            // so time in the retry queue is attributed as queueing.
            self.gpus[gpu.index()].cus[usize::from(cu)].wavefronts[usize::from(wf)]
                .begin_stall(t, key);
            if let Some(o) = self.obs.as_deref_mut() {
                o.open_span(gpu, lane, t.0);
            }
        }
        // Blocking L1 TLB (as in MGPUSim): while one miss is outstanding,
        // every other memory operation of the CU queues behind it.
        let blocking = self.cfg.gpu.blocking_l1;
        let cu_state = &mut self.gpus[gpu.index()].cus[usize::from(cu)];
        if blocking && cu_state.is_blocked() {
            cu_state.retry_queue.push_back((WavefrontId(wf), key));
            return;
        }
        if let Some(o) = self.obs.as_deref_mut() {
            o.stamp_l1(gpu, lane, t.0);
        }
        let idx = usize::from(key.asid.0);
        let recording = self.apps[idx].recording;
        if recording {
            self.apps[idx].stats.l1_lookups += 1;
        }
        let l1_latency = self.cfg.gpu.l1_latency;
        if self.gpus[gpu.index()].l1_lookup(CuId(cu), key).is_some() {
            if recording {
                self.apps[idx].stats.l1_hits += 1;
            }
            self.obs_resolve(t, gpu, cu, wf, idx, Resolution::L1Hit);
            self.queue.schedule_after(
                l1_latency + self.cfg.gpu.data_latency,
                Event::WfNext { gpu, cu, wf },
            );
        } else {
            if blocking {
                self.gpus[gpu.index()].cus[usize::from(cu)].blocking_miss = Some(WavefrontId(wf));
            }
            self.queue.schedule_after(
                l1_latency + self.cfg.gpu.l2_latency,
                Event::L2Access { gpu, cu, wf, key },
            );
        }
    }

    /// Observability tail of a translation resolved at the GPU itself
    /// (L1/L2 hit): counts the hop, then closes the lane's span and
    /// wavefront stall. No-op when observability is off.
    fn obs_resolve(&mut self, t: Cycle, gpu: GpuId, cu: u16, wf: u16, app: usize, res: Resolution) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.hop(res);
        }
        self.obs_finish_waiter(t, gpu, cu, wf, app, res);
    }

    /// Closes one waiter's lifecycle span and memory stall at `t` (the
    /// fill-side tail; the hop was already counted once at the serve
    /// site, not per merged waiter). No-op when observability is off or
    /// the lane has no open span (scripted injections).
    fn obs_finish_waiter(
        &mut self,
        t: Cycle,
        gpu: GpuId,
        cu: u16,
        wf: u16,
        app: usize,
        res: Resolution,
    ) {
        if self.obs.is_none() {
            return;
        }
        let lane = usize::from(cu) * self.cfg.gpu.wavefronts_per_cu + usize::from(wf);
        let dur =
            self.gpus[gpu.index()].cus[usize::from(cu)].wavefronts[usize::from(wf)].end_stall(t);
        if let Some(o) = self.obs.as_deref_mut() {
            o.close_span(gpu, lane, app, res, t.0);
            if let Some(dur) = dur {
                o.stall(gpu, lane, t.0, dur);
            }
        }
    }

    /// The blocking L1 miss of `(gpu, cu, wf)` resolved: release and replay
    /// any queued memory operations.
    fn unblock_l1(&mut self, _t: Cycle, gpu: GpuId, cu: u16, wf: u16) {
        let replay = self.gpus[gpu.index()].cus[usize::from(cu)].unblock(WavefrontId(wf));
        for (qwf, qkey) in replay {
            self.queue.schedule_after(
                0,
                Event::WfMem {
                    gpu,
                    cu,
                    wf: qwf.0,
                    key: qkey,
                },
            );
        }
    }

    fn on_l2_access(&mut self, t: Cycle, gpu: GpuId, cu: u16, wf: u16, key: TranslationKey) {
        let idx = usize::from(key.asid.0);
        let recording = self.apps[idx].recording;
        if self.cfg.record_trace && recording {
            self.trace.push(crate::trace::TraceEntry {
                cycle: t.0,
                gpu: gpu.0,
                asid: key.asid.0,
                vpn: key.vpn.0,
            });
        }
        if recording {
            self.apps[idx].stats.l2_lookups += 1;
        }
        if let Some(o) = self.obs.as_deref_mut() {
            let lane = usize::from(cu) * self.cfg.gpu.wavefronts_per_cu + usize::from(wf);
            o.stamp_l2(gpu, lane, t.0);
        }
        if let Some(entry) = self.gpus[gpu.index()].l2_lookup(key) {
            if recording {
                self.apps[idx].stats.l2_hits += 1;
            }
            self.gpus[gpu.index()].l1_fill(CuId(cu), key, entry.frame);
            self.unblock_l1(t, gpu, cu, wf);
            self.obs_resolve(t, gpu, cu, wf, idx, Resolution::L2Hit);
            self.queue
                .schedule_after(self.cfg.gpu.data_latency, Event::WfNext { gpu, cu, wf });
            return;
        }
        let waiter = Waiter {
            cu: CuId(cu),
            wf: WavefrontId(wf),
        };
        if self.gpus[gpu.index()].l2_miss(key, waiter) == MshrOutcome::Secondary {
            return;
        }
        // Primary miss: route per policy.
        let g = gpu.index();
        if self.cfg.policy.local_page_tables && self.local_pt[g].contains(&key) {
            let walk = self
                .walk_key(key)
                // sim-lint: allow(panic-reach, reason = "local_pt membership implies a mapping; divergence is a state-machine bug")
                .expect("locally-resident translations are mapped");
            let service = self.cfg.iommu.walk_latency.cycles(walk.levels);
            let req = WalkRequest {
                key,
                requester: gpu,
            };
            if let Some(done) = self.gpu_walkers[g].submit(t, req, service) {
                self.queue.schedule_no_earlier(
                    done,
                    Event::LocalPtwDone {
                        gpu,
                        key,
                        frame: walk.frame,
                    },
                );
            }
        } else if self.cfg.policy.probing_ring && self.cfg.gpus > 1 {
            let n = self.cfg.gpus;
            let left = GpuId(((g + n - 1) % n) as u8);
            let right = GpuId(((g + 1) % n) as u8);
            let pair = [left, right];
            let targets = if left == right { &pair[..1] } else { &pair[..] };
            self.ring_pending.insert(
                (gpu, key),
                RingState {
                    remaining: targets.len() as u8,
                    served: false,
                },
            );
            for &target in targets {
                self.net_send(
                    t,
                    gpu.index(),
                    NetMsg::RingProbe {
                        target,
                        origin: gpu,
                        key,
                    },
                );
            }
        } else {
            self.net_send(t, gpu.index(), NetMsg::IommuReq { gpu, key });
        }
    }

    // ------------------------------------------------------------------
    // IOMMU side
    // ------------------------------------------------------------------

    fn on_iommu_arrive(&mut self, t: Cycle, gpu: GpuId, key: TranslationKey) {
        self.iommu.stats.requests += 1;
        let idx = usize::from(key.asid.0);
        let recording = self.apps[idx].recording;
        if self.cfg.track_reuse && recording {
            self.reuse[idx].record(key);
        }
        // Merge onto an in-flight (not yet served) request for the same
        // translation. Only least-TLB has the pending table (§4.1); the
        // baseline IOMMU walks every arriving request individually.
        if self.cfg.policy.uses_pending() && self.iommu.pending.merge(key, gpu) {
            self.iommu.stats.merged += 1;
            return;
        }
        if recording {
            self.apps[idx].stats.iommu_lookups += 1;
        }
        let tlb_latency = self.cfg.iommu.tlb_latency;

        if self.cfg.policy.infinite_iommu {
            if self.infinite_seen.contains(&key) {
                if recording {
                    self.apps[idx].stats.iommu_hits += 1;
                }
                if let Some(o) = self.obs.as_deref_mut() {
                    o.hop(Resolution::IommuHit);
                }
                let frame = self
                    .walk_key(key)
                    // sim-lint: allow(panic-reach, reason = "infinite_seen membership implies a mapping; divergence is a state-machine bug")
                    .expect("infinite-TLB entries are mapped")
                    .frame;
                let iommu = self.fabric.iommu_node();
                self.net_send(
                    t.after(tlb_latency),
                    iommu,
                    NetMsg::Fill {
                        gpu,
                        key,
                        frame,
                        res: Resolution::IommuHit,
                    },
                );
            } else {
                if self.cfg.policy.uses_pending() {
                    self.iommu.pending.mark_walk(key);
                }
                self.launch_walk(t.after(tlb_latency), gpu, key, recording, idx);
            }
            return;
        }

        // least-inclusive: a hit *moves* the entry to the requesting GPU's
        // L2 (paper Algorithm 1/2 lines 7-10), so the lookup takes it out.
        let moves = self.cfg.policy.is_victim_hierarchy();
        let hit = if moves {
            self.iommu.tlb.lookup_take(key)
        } else {
            self.iommu.tlb.lookup(key)
        };
        match hit {
            Some(entry) => {
                if recording {
                    self.apps[idx].stats.iommu_hits += 1;
                }
                if let Some(o) = self.obs.as_deref_mut() {
                    o.hop(Resolution::IommuHit);
                }
                if moves {
                    self.iommu.count_remove(entry.origin);
                }
                let iommu = self.fabric.iommu_node();
                self.net_send(
                    t.after(tlb_latency),
                    iommu,
                    NetMsg::Fill {
                        gpu,
                        key,
                        frame: entry.frame,
                        res: Resolution::IommuHit,
                    },
                );
            }
            None => {
                // Tracker lookup happens in parallel with the TLB lookup
                // (paper Fig. 9 ①②); on a positive, the probe and the walk
                // race (Algorithm 1 lines 12-20). least-TLB races them; the
                // serialized variant (Fig. 20's comparison line) walks only
                // after a probe miss.
                let mut walk = true;
                if self.cfg.policy.uses_pending() {
                    let target = self.tracker.as_mut().and_then(|tr| tr.query(key, gpu));
                    walk = !(target.is_some() && self.cfg.policy.serialize_remote);
                    self.iommu.pending.launch(key, gpu, target.is_some(), walk);
                    if let Some(target) = target {
                        self.iommu.stats.probes += 1;
                        // The probe travels the requester→holder inter-GPU
                        // distance (paper Fig. 9 ③ charges one inter-GPU
                        // traversal), so it enters the fabric at the
                        // requester's node rather than the IOMMU's.
                        self.net_send(
                            t.after(tlb_latency),
                            gpu.index(),
                            NetMsg::Probe { target, key },
                        );
                    }
                }
                if walk {
                    self.launch_walk(t.after(tlb_latency), gpu, key, recording, idx);
                }
            }
        }
    }

    /// Starts the page-table walk (or PRI fault) for `key`. Under the
    /// pending table the caller has already counted the walk there.
    fn launch_walk(
        &mut self,
        t: Cycle,
        gpu: GpuId,
        key: TranslationKey,
        recording: bool,
        idx: usize,
    ) {
        match self.walk_key(key) {
            Some(walk) => {
                self.iommu.stats.walks += 1;
                if recording {
                    self.apps[idx].stats.walks += 1;
                }
                let service = self.walk_service(key, walk.levels);
                let req = WalkRequest {
                    key,
                    requester: gpu,
                };
                if let Some(done) = self.iommu.walkers.submit(t, req, service) {
                    self.queue.schedule_no_earlier(
                        done,
                        Event::PtwDone {
                            key,
                            frame: walk.frame,
                            requester: gpu,
                        },
                    );
                }
            }
            None => {
                self.iommu.stats.faults += 1;
                if recording {
                    self.apps[idx].stats.faults += 1;
                }
                self.iommu.pri.push(key, gpu, t);
                if let Some(d) = self.iommu.pri.dispatch_at() {
                    // `t` may already be ahead of `now` (launch_walk is
                    // entered post-TLB-lookup); keep the dispatch no
                    // earlier than the push that queued the fault.
                    self.queue.schedule_no_earlier(d.max(t), Event::PriDispatch);
                }
            }
        }
    }

    /// Walk service time, shortened by a page-walk-cache hit on the upper
    /// page-table levels (the PWC is indexed by the PDE-level region the
    /// page lives in).
    fn walk_service(&mut self, key: TranslationKey, levels: u32) -> u64 {
        let full = self.cfg.iommu.walk_latency.cycles(levels);
        let Some(pwc) = &mut self.iommu.pwc else {
            return full;
        };
        let region = TranslationKey::new(key.asid, mgpu_types::VirtPage(key.vpn.0 >> 9));
        if pwc.lookup(region).is_some() {
            self.iommu.stats.pwc_hits += 1;
            full / 2
        } else {
            pwc.insert(region, TlbEntry::new(PhysPage(0)));
            full
        }
    }

    fn on_ptw_done(&mut self, t: Cycle, key: TranslationKey, frame: PhysPage, requester: GpuId) {
        if self.cfg.policy.uses_pending() {
            match self.iommu.pending.walk_result(key) {
                Some(waiters) => {
                    self.deliver_walk_result(t, key, frame, waiters, Resolution::Walk);
                }
                None => self.iommu.stats.wasted_walks += 1,
            }
        } else {
            self.deliver_walk_result(t, key, frame, WaitList::one(requester), Resolution::Walk);
        }
        // Start the next queued walk on the freed walker.
        if let Some(req) = self.iommu.walkers.complete() {
            let walk = self
                .walk_key(req.key)
                // sim-lint: allow(panic-reach, reason = "walker backlog only holds mapped keys (faults take the PRI path); divergence is a state-machine bug")
                .expect("queued walks target mapped pages");
            let service = self.walk_service(req.key, walk.levels);
            self.queue.schedule_after(
                service,
                Event::PtwDone {
                    key: req.key,
                    frame: walk.frame,
                    requester: req.requester,
                },
            );
        }
    }

    fn on_fault_done(&mut self, t: Cycle, key: TranslationKey, frame: PhysPage, requester: GpuId) {
        if self.cfg.policy.uses_pending() {
            if let Some(waiters) = self.iommu.pending.walk_result(key) {
                self.deliver_walk_result(t, key, frame, waiters, Resolution::Fault);
            }
        } else {
            self.deliver_walk_result(t, key, frame, WaitList::one(requester), Resolution::Fault);
        }
    }

    /// Common tail of the walk/fault completion paths: policy insertion
    /// plus responses to every merged waiter. `res` distinguishes walk
    /// completions from PRI fault round-trips (observability only).
    fn deliver_walk_result(
        &mut self,
        t: Cycle,
        key: TranslationKey,
        frame: PhysPage,
        waiters: WaitList<GpuId>,
        res: Resolution,
    ) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.hop(res);
        }
        if self.cfg.policy.infinite_iommu {
            self.infinite_seen.insert(key);
        } else if !self.cfg.policy.is_victim_hierarchy() {
            // Mostly-inclusive baseline: the walk fill populates the IOMMU
            // TLB too (paper §2.2 step ⑤).
            let origin = waiters.first().unwrap_or(GpuId(0));
            self.insert_iommu(t, key, frame, self.cfg.policy.spill_credits, origin, 0);
        }
        // least-inclusive: the translation goes only to the requesting L2
        // (paper Algorithm 1 lines 12-14).
        let iommu = self.fabric.iommu_node();
        for gpu in waiters {
            self.net_send(
                t,
                iommu,
                NetMsg::Fill {
                    gpu,
                    key,
                    frame,
                    res,
                },
            );
        }
    }

    fn on_probe_arrive(&mut self, t: Cycle, target: GpuId, key: TranslationKey) {
        // A tracker false positive (or an eviction racing the probe) is a
        // miss: the in-flight walk covers the request (paper Algorithm 1
        // lines 12-13). A hit serves the waiters only if the walk has not
        // already won the race.
        let hit = self.gpus[target.index()].remote_probe(key);
        let Some(waiters) = self.iommu.pending.probe_result(key, hit.is_some()) else {
            // Serialized-probe mode: a probe miss now falls back to the
            // page-table walk it skipped at lookup time.
            if hit.is_none()
                && self.cfg.policy.serialize_remote
                && self.iommu.pending.walk_if_live(key)
            {
                let idx = usize::from(key.asid.0);
                let recording = self.apps[idx].recording;
                // Route the walk response back via the pending table; the
                // requester recorded there is authoritative.
                self.launch_walk(t, GpuId(0), key, recording, idx);
            }
            return;
        };
        // sim-lint: allow(panic-reach, reason = "probe_result returns Some only when called with hit=true; divergence is a state-machine bug")
        let entry = hit.expect("probe_result only serves on a hit");
        self.iommu.stats.probe_hits += 1;
        // The probe won: a still-queued parallel walk is useless — cancel
        // it before it occupies a walker.
        if self.iommu.walkers.cancel(key) {
            self.iommu.pending.cancel_walk(key);
            self.iommu.stats.cancelled_walks += 1;
        }
        let idx = usize::from(key.asid.0);
        if self.apps[idx].recording {
            self.apps[idx].stats.remote_hits += 1;
        }
        // Sharing keeps the translation in both L2s (single-application,
        // §4.1); a spilled entry is *moved* back to its owner
        // (multi-application, §4.2) — distinguished by whether the holder
        // GPU actually runs the owning application.
        let holder_runs_app = self.apps[idx].gpus.contains(&target);
        let res = if holder_runs_app {
            Resolution::RemoteShared
        } else {
            Resolution::RemoteSpill
        };
        if let Some(o) = self.obs.as_deref_mut() {
            o.hop(res);
        }
        if !holder_runs_app {
            self.gpus[target.index()].l2_tlb.remove(key);
            if let Some(tracker) = &mut self.tracker {
                tracker.remove(target, key);
            }
        }
        let serve = t.after(self.cfg.gpu.l2_latency);
        for gpu in waiters {
            self.net_send(
                serve,
                target.index(),
                NetMsg::Fill {
                    gpu,
                    key,
                    frame: entry.frame,
                    res,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Fills, evictions, spilling
    // ------------------------------------------------------------------

    fn on_fill(
        &mut self,
        t: Cycle,
        gpu: GpuId,
        key: TranslationKey,
        frame: PhysPage,
        res: Resolution,
    ) {
        let waiters = self.gpus[gpu.index()].mshrs.drain(key);
        self.install_l2(t, gpu, key, frame, self.cfg.policy.spill_credits, 0);
        if self.cfg.policy.local_page_tables {
            self.local_pt[gpu.index()].insert(key);
        }
        for w in waiters {
            self.gpus[gpu.index()].l1_fill(w.cu, key, frame);
            self.unblock_l1(t, gpu, w.cu.0, w.wf.0);
            self.obs_finish_waiter(t, gpu, w.cu.0, w.wf.0, usize::from(key.asid.0), res);
            self.queue.schedule_after(
                self.cfg.gpu.data_latency,
                Event::WfNext {
                    gpu,
                    cu: w.cu.0,
                    wf: w.wf.0,
                },
            );
        }
    }

    /// Installs a translation into a GPU's L2 TLB, registering it in the
    /// tracker and handling the resulting eviction per policy.
    fn install_l2(
        &mut self,
        t: Cycle,
        gpu: GpuId,
        key: TranslationKey,
        frame: PhysPage,
        credits: u8,
        depth: u32,
    ) {
        let g = gpu.index();
        if let Some(e) = self.gpus[g].l2_tlb.touch_mut(key) {
            // Racing duplicate (e.g. a spill landed while a fill was in
            // flight): refresh in place, keep the tracker's single
            // registration.
            e.spill_credits = e.spill_credits.max(credits);
            return;
        }
        if let Some(tracker) = &mut self.tracker {
            tracker.insert(gpu, key);
        }
        let entry = TlbEntry::new(frame)
            .with_origin(gpu)
            .with_spill_credits(credits);
        if let Some((vk, ve)) = self.gpus[g].l2_tlb.insert(key, entry) {
            self.l2_eviction(t, gpu, vk, ve, depth);
        }
    }

    fn l2_eviction(
        &mut self,
        t: Cycle,
        gpu: GpuId,
        vkey: TranslationKey,
        ventry: TlbEntry,
        depth: u32,
    ) {
        if let Some(tracker) = &mut self.tracker {
            tracker.remove(gpu, vkey);
        }
        match self.cfg.policy.inclusion {
            // Mostly-inclusive: evictions are silent (paper §2.2).
            Inclusion::MostlyInclusive => {}
            Inclusion::LeastInclusive | Inclusion::Exclusive => {
                if ventry.spill_credits > 0 {
                    // Victim-TLB insertion (paper Algorithm 1 lines 24-26).
                    // The eviction push-down rides the GPU→IOMMU route;
                    // off the critical path, so counted but not timed.
                    let iommu = self.fabric.iommu_node();
                    self.fabric.note(gpu.index(), iommu);
                    self.insert_iommu(t, vkey, ventry.frame, ventry.spill_credits, gpu, depth);
                }
                // Spilled entries (zero credits) are discarded without
                // re-entering the IOMMU TLB (paper Algorithm 2 lines 27-29).
            }
        }
    }

    /// Inserts an entry into the IOMMU TLB, maintaining the eviction
    /// counters and running the spill engine on the displaced victim.
    fn insert_iommu(
        &mut self,
        t: Cycle,
        key: TranslationKey,
        frame: PhysPage,
        credits: u8,
        origin: GpuId,
        depth: u32,
    ) {
        if self.cfg.policy.infinite_iommu {
            self.infinite_seen.insert(key);
            return;
        }
        // Device-aware QoS quota (§4.4 extension): an over-quota origin's
        // victims bypass the shared IOMMU TLB rather than crowd out other
        // devices' entries.
        if let Some(quota) = self.cfg.policy.iommu_quota {
            if self.iommu.eviction_counters[origin.index()] >= quota
                && self.iommu.tlb.probe(key).is_none()
            {
                return;
            }
        }
        if self.cfg.policy.inclusion == Inclusion::Exclusive {
            // Strict exclusion: no other L2 may keep a copy.
            for g in 0..self.gpus.len() {
                if g != origin.index() && self.gpus[g].l2_tlb.remove(key).is_some() {
                    if let Some(tracker) = &mut self.tracker {
                        tracker.remove(GpuId(g as u8), key);
                    }
                }
            }
        }
        let entry = TlbEntry::new(frame)
            .with_origin(origin)
            .with_spill_credits(credits);
        let displaced = self.iommu.tlb.insert_displacing(key, entry);
        if let Displaced::Updated(old) = displaced {
            // Re-insertion of a key already resident: retarget its origin.
            self.iommu.count_remove(old.origin);
        }
        self.iommu.count_insert(origin);
        let Displaced::Evicted(vk, ve) = displaced else {
            return;
        };
        self.iommu.count_remove(ve.origin);
        if self.cfg.policy.spilling && ve.spill_credits > 0 && depth < MAX_SPILL_CHAIN {
            // Spill the IOMMU victim into a receiver GPU's L2 (paper
            // Algorithm 2 lines 30-34), burning one spill credit. The
            // paper selects the least-loaded GPU via the eviction
            // counters; the alternatives are ablations.
            let receiver = match self.cfg.policy.spill_receiver {
                super::ReceiverPolicy::MinEvictionCounter => self.iommu.spill_receiver(),
                super::ReceiverPolicy::RoundRobin => {
                    self.spill_rr = (self.spill_rr + 1) % self.cfg.gpus;
                    GpuId(self.spill_rr as u8)
                }
                super::ReceiverPolicy::Fixed => GpuId(0),
            };
            self.iommu.stats.spills += 1;
            if depth > 0 {
                self.iommu.stats.spill_chain += 1;
            }
            self.gpus[receiver.index()].stats.spills_received += 1;
            // The spill push travels IOMMU→receiver; like the eviction
            // push-down it is off the critical path (counted, not timed).
            let iommu = self.fabric.iommu_node();
            self.fabric.note(iommu, receiver.index());
            self.install_l2(t, receiver, vk, ve.frame, ve.spill_credits - 1, depth + 1);
        }
    }

    // ------------------------------------------------------------------
    // Ring probing (§5.5 comparison policy)
    // ------------------------------------------------------------------

    fn on_ring_probe(&mut self, t: Cycle, target: GpuId, origin: GpuId, key: TranslationKey) {
        let hit = self.gpus[target.index()].remote_probe(key).map(|e| e.frame);
        self.net_send(
            t.after(self.cfg.gpu.l2_latency),
            target.index(),
            NetMsg::RingResult { origin, key, hit },
        );
    }

    fn on_ring_result(
        &mut self,
        t: Cycle,
        origin: GpuId,
        key: TranslationKey,
        hit: Option<PhysPage>,
    ) {
        let FlatEntry::Occupied(mut slot) = self.ring_pending.entry((origin, key)) else {
            return;
        };
        let state = slot.get_mut();
        state.remaining -= 1;
        let mut serve = None;
        if !state.served {
            if let Some(frame) = hit {
                state.served = true;
                serve = Some(frame);
            }
        }
        let finished = state.remaining == 0;
        let served = state.served;
        if finished {
            slot.remove();
        }
        if let Some(frame) = serve {
            let idx = usize::from(key.asid.0);
            if self.apps[idx].recording {
                self.apps[idx].stats.remote_hits += 1;
            }
            if let Some(o) = self.obs.as_deref_mut() {
                o.hop(Resolution::RingRemote);
            }
            self.queue.schedule_after(
                0,
                Event::Fill {
                    gpu: origin,
                    key,
                    frame,
                    res: Resolution::RingRemote,
                },
            );
        }
        // Both neighbours missed: only now does the request go to the
        // IOMMU — the serialization penalty the paper identifies in §5.5.
        if finished && !served {
            self.net_send(t, origin.index(), NetMsg::IommuReq { gpu: origin, key });
        }
    }

    // ------------------------------------------------------------------
    // Local page tables (§5.3 system) and PRI faulting
    // ------------------------------------------------------------------

    fn on_local_ptw_done(&mut self, _t: Cycle, gpu: GpuId, key: TranslationKey, frame: PhysPage) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.hop(Resolution::LocalWalk);
        }
        self.queue.schedule_after(
            0,
            Event::Fill {
                gpu,
                key,
                frame,
                res: Resolution::LocalWalk,
            },
        );
        if let Some(req) = self.gpu_walkers[gpu.index()].complete() {
            let walk = self
                .walk_key(req.key)
                // sim-lint: allow(panic-reach, reason = "local-walker backlog only holds mapped keys; divergence is a state-machine bug")
                .expect("queued local walks target mapped pages");
            let service = self.cfg.iommu.walk_latency.cycles(walk.levels);
            self.queue.schedule_after(
                service,
                Event::LocalPtwDone {
                    gpu,
                    key: req.key,
                    frame: walk.frame,
                },
            );
        }
    }

    fn on_pri_dispatch(&mut self, t: Cycle) {
        let Some(due) = self.iommu.pri.dispatch_at() else {
            return;
        };
        if due > t {
            return; // stale event; the one scheduled at `due` handles it
        }
        let batch = self.iommu.pri.take_batch(t);
        let latency = self.iommu.pri.config().handling_latency;
        for fault in batch {
            // The CPU fault handler maps the page now.
            let frame = match self.walk_key(fault.key) {
                Some(w) => w.frame,
                None => {
                    let frame = self
                        .frames
                        .allocate()
                        // sim-lint: allow(panic-reach, reason = "System::new rejects footprints larger than physical memory; exhaustion mid-run is a config bug the simulator cannot recover from")
                        .expect("physical memory exhausted during fault handling");
                    self.tables[usize::from(fault.key.asid.0)]
                        .map(fault.key.vpn, frame, mgpu_types::PageSize::Size4K)
                        // sim-lint: allow(panic-reach, reason = "walk_key returned None for this key on this path; a mapping conflict is a state-machine bug")
                        .expect("faulting page is unmapped");
                    frame
                }
            };
            self.queue.schedule_after(
                latency,
                Event::FaultDone {
                    key: fault.key,
                    frame,
                    requester: fault.requester,
                },
            );
        }
        if let Some(next) = self.iommu.pri.dispatch_at() {
            self.queue.schedule_no_earlier(next, Event::PriDispatch);
        }
    }

    // ------------------------------------------------------------------
    // Snapshots (Figs. 6 and 11)
    // ------------------------------------------------------------------

    fn on_snapshot(&mut self, t: Cycle) {
        let mut copies: DetMap<TranslationKey, u32> = DetMap::new();
        for gpu in &self.gpus {
            for (key, _) in gpu.l2_tlb.iter() {
                *copies.entry(key).or_insert(0) += 1;
            }
        }
        let distinct = copies.len().max(1) as f64;
        let redundant = copies.values().filter(|c| **c >= 2).count() as f64;
        let in_iommu = copies
            .keys()
            .filter(|k| self.iommu.tlb.probe(**k).is_some())
            .count() as f64;
        let mut per_origin = vec![0u64; self.cfg.gpus];
        let mut per_asid = vec![0u64; self.apps.len()];
        for (key, e) in self.iommu.tlb.iter() {
            per_origin[e.origin.index()] += 1;
            per_asid[usize::from(key.asid.0)] += 1;
        }
        self.snapshots.push(SnapshotRecord {
            cycle: t.0,
            l2_redundant_frac: redundant / distinct,
            l2_in_iommu_frac: in_iommu / distinct,
            iommu_per_origin: per_origin,
            iommu_per_asid: per_asid,
        });
        if let Some(interval) = self.cfg.snapshot_interval {
            self.queue.schedule_after(interval, Event::Snapshot);
        }
    }
}
