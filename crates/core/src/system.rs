//! The simulated machine: the world type all memif experiments run on.
//!
//! [`System`] bundles the hardware substrates (topology, physical
//! memory, DMA engine, bandwidth flows, cost model), the memory manager
//! (frame allocator plus per-process address spaces), the usage meter,
//! and the open memif devices. Experiment scripts own a `System` and a
//! [`Sim<System>`] and drive both.

use memif_hwsim::dma::DmaEngine;
use memif_hwsim::{
    Context, CostModel, FlowSystem, NodeId, PhysAddr, PhysMem, ResourceId, Route, Sim, SimDuration,
    SimTime, TcScheduler, Topology, UsageMeter,
};
use memif_mm::{AddressSpace, FrameAllocator};

use crate::device::{DeviceId, MemifDevice};
use crate::event::SimEvent;

/// One entry of the driver execution trace (Figure 5 reconstruction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the activity started.
    pub at: SimTime,
    /// How long it occupied its context (zero for instant events).
    pub duration: SimDuration,
    /// The execution context (syscall / interrupt / kernel thread / DMA).
    pub ctx: Context,
    /// What happened.
    pub label: String,
    /// The request involved, if any.
    pub req: Option<u64>,
}

/// Identifies a simulated process address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpaceId(pub usize);

/// Bandwidth resources registered with the flow network.
#[derive(Debug)]
pub struct Resources {
    nodes: Vec<ResourceId>,
    /// One resource per transfer-controller channel; `tcs[0]` is the
    /// engine-wide resource of the single-channel (paper) configuration.
    tcs: Vec<ResourceId>,
    /// Per-node *write* pipe, present only for NVM-like nodes whose
    /// writes are slower than reads. `None` elsewhere, so machines
    /// without an NVM bank are resource-for-resource unchanged.
    nvm_writes: Vec<Option<ResourceId>>,
}

impl Resources {
    /// The resource of a memory node's bus.
    #[must_use]
    pub fn node(&self, id: NodeId) -> ResourceId {
        self.nodes[id.0 as usize]
    }

    /// The write-side pipe of an NVM node, if the node has one.
    #[must_use]
    pub fn node_write(&self, id: NodeId) -> Option<ResourceId> {
        self.nvm_writes.get(id.0 as usize).copied().flatten()
    }

    /// The DMA engine's aggregate-bandwidth resource (transfer-controller
    /// channel 0).
    #[must_use]
    pub fn engine(&self) -> ResourceId {
        self.tcs[0]
    }

    /// The bandwidth resource of transfer-controller channel `tc`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range channel index.
    #[must_use]
    pub fn tc(&self, tc: usize) -> ResourceId {
        self.tcs[tc]
    }

    /// Number of transfer-controller channels.
    #[must_use]
    pub fn tc_count(&self) -> usize {
        self.tcs.len()
    }
}

/// Occupancy and migration traffic of one tier rank, as reported by
/// [`System::tier_usage`] (and surfaced as the `tiers` array of the CLI's
/// `--json` output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierUsage {
    /// Tier rank (0 = fastest).
    pub rank: u16,
    /// Technology label of the tier's banks ("fast", "slow", "nvm",
    /// "compressed").
    pub kind: &'static str,
    /// Bytes currently allocated across the tier's banks.
    pub used_bytes: u64,
    /// Total bytes across the tier's banks.
    pub capacity_bytes: u64,
    /// Successful migrations that landed on this tier.
    pub moves_in: u64,
    /// Successful migrations that left this tier.
    pub moves_out: u64,
}

/// The whole simulated machine.
#[derive(Debug)]
pub struct System {
    /// Memory topology (booted; all banks online).
    pub topo: Topology,
    /// Per-operation cost model.
    pub cost: CostModel,
    /// Byte-backed physical memory.
    pub phys: PhysMem,
    /// Per-node frame allocator.
    pub alloc: FrameAllocator,
    /// Bandwidth-contention flows (DMA transfers, CPU streaming).
    pub flows: FlowSystem<System>,
    /// The EDMA3-model engine.
    pub dma: DmaEngine,
    /// CPU/engine busy-time accounting.
    pub meter: UsageMeter,
    /// Flow-resource handles.
    pub resources: Resources,
    /// Tenant registry: weights, quotas, and per-tenant accounting for
    /// QoS-enabled devices. Present on every machine (registration is
    /// machine state, like address spaces), but consulted on the issue
    /// path only when a device's config has `qos = true`.
    pub qos: memif_qos::QosRegistry,
    pub(crate) devices: Vec<Option<MemifDevice>>,
    pub(crate) spaces: Vec<AddressSpace>,
    pub(crate) trace: Option<Vec<TraceEntry>>,
    /// Transfer-controller channels: admission (the hardware's global
    /// controller cap), least-loaded routing, and per-channel launch
    /// queues. Tickets are `(device, token)` of the launch to re-run.
    pub(crate) tc: TcScheduler<(DeviceId, u64)>,
    /// Hook callbacks dispatched by [`SimEvent::Hook`].
    pub(crate) hooks: crate::event::Hooks,
    /// JSON-lines record of every dispatched event, when enabled.
    pub(crate) event_log: Option<Vec<String>>,
    /// The persistent write-ahead move journal (crash recovery).
    pub(crate) journal: crate::journal::MoveJournal,
    /// Set by a crash: the world has halted; every further event is
    /// dropped until [`System::recover`] runs.
    pub(crate) crashed: bool,
    /// The armed crash plan: halt at this crash opportunity (1-based),
    /// counted in `opportunities`. `None` counts nothing.
    crash_at: Option<u64>,
    /// Crash opportunities passed since the plan was armed.
    opportunities: u64,
    /// When the last logged event was dispatched (kept only while the
    /// event log is on): the time of a crash on the application's
    /// retrieve path, which has no simulator at hand.
    pub(crate) logged_at: SimTime,
}

impl System {
    /// A booted KeyStone II machine with the paper's cost profile.
    #[must_use]
    pub fn keystone_ii() -> Self {
        Self::with_profile(Topology::keystone_ii(), CostModel::keystone_ii())
    }

    /// A machine over a custom topology and cost model. Boot completes
    /// here: hidden banks come online and get allocators, reproducing
    /// the §6.1 bring-up order.
    #[must_use]
    pub fn with_profile(mut topo: Topology, cost: CostModel) -> Self {
        let pre_boot = FrameAllocator::new(&topo); // boot-visible banks only
        let mut alloc = pre_boot;
        topo.complete_boot();
        for node in topo.online_nodes() {
            if alloc.total_bytes(node.id) == 0 {
                alloc.online_node(node);
            }
        }
        let mut flows = FlowSystem::new(|| SimEvent::FlowTick);
        let nodes = topo
            .all_nodes()
            .iter()
            .map(|n| flows.add_resource(n.bandwidth_gbps))
            .collect();
        // NVM and CXL nodes get a second, slower write-side pipe; DMA
        // routes targeting them are constrained by it (asymmetric
        // read/write cost). Machines without such a bank add no extra
        // resources.
        let nvm_writes = topo
            .all_nodes()
            .iter()
            .map(|n| {
                if n.kind.is_persistent() {
                    Some(flows.add_resource(cost.nvm_write_bw_gbps))
                } else if n.kind == memif_hwsim::MemoryKind::Cxl {
                    Some(flows.add_resource(cost.cxl_write_bw_gbps))
                } else {
                    None
                }
            })
            .collect();
        // Transfer-controller channels. Channel 0 keeps the historical
        // DMA-engine resource id, so a one-channel machine is
        // resource-for-resource identical to the pre-TC layout.
        let tc_count = cost.dma_tc_count.max(1) as usize;
        let mut tc = TcScheduler::new(cost.dma_transfer_controllers as usize);
        let mut tcs = Vec::with_capacity(tc_count);
        for _ in 0..tc_count {
            let r = flows.add_resource(cost.dma_engine_bw_gbps);
            tc.add_channel(r);
            tcs.push(r);
        }
        System {
            topo,
            cost,
            phys: PhysMem::new(),
            alloc,
            flows,
            dma: DmaEngine::new(),
            meter: UsageMeter::new(),
            resources: Resources {
                nodes,
                tcs,
                nvm_writes,
            },
            qos: memif_qos::QosRegistry::new(),
            devices: Vec::new(),
            spaces: Vec::new(),
            trace: None,
            tc,
            hooks: crate::event::Hooks::default(),
            event_log: None,
            journal: crate::journal::MoveJournal::default(),
            crashed: false,
            crash_at: None,
            opportunities: 0,
            logged_at: SimTime::ZERO,
        }
    }

    /// Transfers currently executing on the engine's transfer
    /// controllers (diagnostics).
    #[must_use]
    pub fn active_transfers(&self) -> usize {
        self.tc.active()
    }

    /// Installs a chaos-mode fault plan: the DMA engine gets a seeded
    /// [`memif_hwsim::FaultInjector`], and every scheduled brownout
    /// becomes a pair of events scaling the affected node's bus capacity
    /// down at its start and back at its end.
    ///
    /// Installing a plan also arms the driver's per-request watchdogs
    /// and bounded-retry machinery; without one (the default), none of
    /// that machinery exists and simulation output is byte-identical to
    /// a build without this feature. A no-op plan with brownouts still
    /// installs (the watchdog must cover brownout-stretched transfers).
    ///
    /// Brownouts naming unknown nodes are skipped.
    pub fn install_faults(&mut self, sim: &mut Sim<System>, plan: memif_hwsim::FaultPlan) {
        for b in &plan.brownouts {
            let Some(node) = self.topo.node(b.node) else {
                continue;
            };
            let base = node.bandwidth_gbps;
            let factor = b.factor.clamp(f64::MIN_POSITIVE, 1.0);
            let resource = self.resources.node(b.node);
            let (start, end) = (b.start, b.start + b.duration);
            sim.schedule_at(
                start,
                SimEvent::SetCapacity {
                    resource,
                    gbps: base * factor,
                },
            );
            sim.schedule_at(
                end,
                SimEvent::SetCapacity {
                    resource,
                    gbps: base,
                },
            );
        }
        self.dma
            .install_injector(memif_hwsim::FaultInjector::new(plan));
    }

    /// True once a fault plan has been installed: the driver arms
    /// watchdogs and bounds its retries.
    #[must_use]
    pub fn chaos_enabled(&self) -> bool {
        self.dma.injector().is_some()
    }

    /// True after a crash: the world is halted and only
    /// [`System::recover`] makes it usable again.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The persistent move journal (diagnostics, recovery tests).
    #[must_use]
    pub fn journal(&self) -> &crate::journal::MoveJournal {
        &self.journal
    }

    /// Arms a crash plan: the world halts at the `k`-th crash
    /// opportunity from now (1-based; `0` never fires, and only counts).
    ///
    /// An opportunity is the end of every dispatched event, plus two
    /// instants inside one: a chained batch's completion between the
    /// leader's copy and its members' copies, and a retrieval on a
    /// journaling device before its acknowledgement is durable. Sweeping
    /// `k` over `1..=N`, where `N` is [`crash_opportunities`] after an
    /// unfired run, crashes a run at every point where its durable
    /// state can differ. Counting draws no randomness and schedules
    /// nothing, so a plan that never fires leaves the run byte-identical.
    /// A plan fires at most once.
    ///
    /// [`crash_opportunities`]: Self::crash_opportunities
    pub fn arm_crash(&mut self, k: u64) {
        self.crash_at = Some(k);
        self.opportunities = 0;
    }

    /// Crash opportunities passed since [`arm_crash`](Self::arm_crash)
    /// (0 when no plan is armed).
    #[must_use]
    pub fn crash_opportunities(&self) -> u64 {
        self.opportunities
    }

    /// Counts one crash opportunity at simulated time `now` and halts
    /// the world if the armed plan names it. Returns `true` exactly
    /// when the crash fired *now*; the caller must stop its work. Free
    /// when no plan is armed.
    #[inline]
    pub(crate) fn crash_opportunity(&mut self, now: SimTime, site: &str) -> bool {
        self.crash_at.is_some() && self.count_opportunity(now, site)
    }

    #[cold]
    fn count_opportunity(&mut self, now: SimTime, site: &str) -> bool {
        if self.crashed {
            return false;
        }
        self.opportunities += 1;
        let fired = self.crash_at == Some(self.opportunities);
        if fired {
            self.halt(now, site);
        }
        fired
    }

    /// Halts the world as a crash would, unconditionally (test hook and
    /// the crash plan's common path). All volatile state is considered
    /// lost from this instant; pending events drain undelivered.
    pub fn force_crash(&mut self, sim: &mut Sim<System>, label: &str) {
        self.halt(sim.now(), label);
    }

    fn halt(&mut self, now: SimTime, label: &str) {
        self.crashed = true;
        if let Some(log) = &mut self.event_log {
            log.push(format!(
                "{{\"t\":{},\"type\":\"crash\",\"point\":\"{}\"}}",
                now.as_ns(),
                label
            ));
        }
    }

    /// Turns on driver execution tracing (the raw material for the
    /// Figure 5 timeline). Costs nothing when off.
    pub fn enable_tracing(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// True when tracing is on. Callers whose label needs formatting
    /// check this first, so an untraced run never builds one.
    pub(crate) fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// The recorded trace, if tracing is enabled.
    #[must_use]
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    pub(crate) fn trace_emit(
        &mut self,
        at: SimTime,
        duration: SimDuration,
        ctx: Context,
        label: impl Into<String>,
        req: Option<u64>,
    ) {
        if let Some(t) = &mut self.trace {
            t.push(TraceEntry {
                at,
                duration,
                ctx,
                label: label.into(),
                req,
            });
        }
    }

    /// Creates an empty process address space.
    pub fn new_space(&mut self) -> SpaceId {
        self.spaces.push(AddressSpace::new());
        SpaceId(self.spaces.len() - 1)
    }

    /// The address space `id`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    #[must_use]
    pub fn space(&self, id: SpaceId) -> &AddressSpace {
        &self.spaces[id.0]
    }

    /// Mutable access to the address space `id`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn space_mut(&mut self, id: SpaceId) -> &mut AddressSpace {
        &mut self.spaces[id.0]
    }

    /// Maps an anonymous region in `space`, eagerly backed on `node` —
    /// a convenience around [`AddressSpace::mmap_anonymous`] that
    /// supplies the machine's frame allocator.
    ///
    /// # Errors
    ///
    /// Propagates [`memif_mm::MmError`].
    pub fn mmap(
        &mut self,
        space: SpaceId,
        pages: u32,
        page_size: memif_mm::PageSize,
        node: NodeId,
    ) -> Result<memif_mm::VirtAddr, memif_mm::MmError> {
        self.spaces[space.0].mmap_anonymous(&mut self.alloc, pages, page_size, node)
    }

    /// Maps an anonymous region under an arbitrary allocation policy
    /// (interleave/preferred/bind) with eager or lazy population — the
    /// `mbind`-policy surface of the pseudo-NUMA abstraction.
    ///
    /// # Errors
    ///
    /// Propagates [`memif_mm::MmError`].
    pub fn mmap_with(
        &mut self,
        space: SpaceId,
        pages: u32,
        page_size: memif_mm::PageSize,
        policy: memif_mm::AllocPolicy,
        populate: memif_mm::Populate,
    ) -> Result<memif_mm::VirtAddr, memif_mm::MmError> {
        self.spaces[space.0].mmap_with(&mut self.alloc, pages, page_size, policy, populate)
    }

    /// Writes bytes into `space` at `vaddr` through ordinary CPU
    /// accesses (page faults are *not* recovered; see
    /// [`System::cpu_write`] for proceed-and-recover semantics).
    ///
    /// # Errors
    ///
    /// Propagates [`memif_mm::Fault`].
    pub fn write_user(
        &mut self,
        space: SpaceId,
        vaddr: memif_mm::VirtAddr,
        data: &[u8],
    ) -> Result<(), memif_mm::Fault> {
        loop {
            match self.spaces[space.0].write_bytes(&mut self.phys, vaddr, data) {
                Err(memif_mm::Fault::DemandPage(page)) => {
                    self.spaces[space.0]
                        .handle_demand_fault(&mut self.alloc, page)
                        .map_err(|_| memif_mm::Fault::Unmapped(page))?;
                }
                other => return other,
            }
        }
    }

    /// Reads bytes from `space` at `vaddr` through ordinary CPU accesses.
    ///
    /// # Errors
    ///
    /// Propagates [`memif_mm::Fault`].
    pub fn read_user(
        &mut self,
        space: SpaceId,
        vaddr: memif_mm::VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), memif_mm::Fault> {
        loop {
            match self.spaces[space.0].read_bytes(&self.phys, vaddr, buf) {
                Err(memif_mm::Fault::DemandPage(page)) => {
                    self.spaces[space.0]
                        .handle_demand_fault(&mut self.alloc, page)
                        .map_err(|_| memif_mm::Fault::Unmapped(page))?;
                }
                other => return other,
            }
        }
    }

    /// Shares the region at `vaddr` in `from` into `to`: the new space
    /// maps the *same* backing frames (reference counts bumped). The
    /// substrate behind moving "pages shared among processes", which the
    /// paper's prototype supported only primitively (§6.7); migration of
    /// shared pages here updates every mapper through reverse mapping.
    ///
    /// # Errors
    ///
    /// [`memif_mm::MmError::NoSuchRegion`] if `vaddr` does not start a
    /// region in `from`, or mapping failures from the target space.
    pub fn share_region(
        &mut self,
        from: SpaceId,
        vaddr: memif_mm::VirtAddr,
        to: SpaceId,
    ) -> Result<memif_mm::VirtAddr, memif_mm::MmError> {
        let (frames, page_size, node) = {
            let space = &self.spaces[from.0];
            let vma = *space
                .vma_at(vaddr)
                .filter(|v| v.start == vaddr)
                .ok_or(memif_mm::MmError::NoSuchRegion(vaddr))?;
            let mut frames = Vec::with_capacity(vma.pages as usize);
            for i in 0..vma.pages {
                let va = vaddr.offset(u64::from(i) * vma.page_size.bytes());
                let pa = space
                    .translate(va)
                    .ok_or(memif_mm::MmError::NoSuchRegion(va))?;
                frames.push(pa);
            }
            (frames, vma.page_size, space.policy(&vma).home())
        };
        self.spaces[to.0].map_shared(&mut self.alloc, &frames, page_size, node)
    }

    /// Reverse mapping: every `(space, vaddr)` whose present entry maps
    /// `frame` at `page_size` granularity. Linear in the machine's
    /// mapped pages — fine at simulation scale; the cost model charges
    /// per mapping found.
    #[must_use]
    pub fn rmap_mappers(
        &self,
        frame: PhysAddr,
        page_size: memif_mm::PageSize,
    ) -> Vec<(SpaceId, memif_mm::VirtAddr)> {
        let mut out = Vec::new();
        for (sid, space) in self.spaces.iter().enumerate() {
            for vma in space.vmas() {
                if vma.page_size != page_size {
                    continue;
                }
                for i in 0..vma.pages {
                    let va = vma.start.offset(u64::from(i) * page_size.bytes());
                    if let Some(pte) = space.table().peek(va, page_size) {
                        if pte.is_present() && pte.frame() == frame {
                            out.push((SpaceId(sid), va));
                        }
                    }
                }
            }
        }
        out
    }

    /// Splits out the pieces the synchronous Linux-baseline path needs
    /// (`memif-baseline` runs against the same machine state but outside
    /// the event loop): the address spaces, the frame allocator, and
    /// physical memory.
    pub fn split_for_baseline(
        &mut self,
    ) -> (&mut Vec<AddressSpace>, &mut FrameAllocator, &mut PhysMem) {
        (&mut self.spaces, &mut self.alloc, &mut self.phys)
    }

    /// The flow route a DMA transfer between two nodes occupies: the
    /// engine (transfer-controller channel 0) plus each distinct node
    /// bus.
    #[must_use]
    pub fn dma_route(&self, src: NodeId, dst: NodeId) -> Route {
        self.dma_route_on(0, src, dst)
    }

    /// The flow route of a transfer dispatched onto transfer-controller
    /// channel `tc`: that channel's pipe plus each distinct node bus.
    /// Held inline: building a route allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range channel index.
    #[must_use]
    pub fn dma_route_on(&self, tc: usize, src: NodeId, dst: NodeId) -> Route {
        let mut route = Route::new(self.resources.tc(tc));
        route.push(self.resources.node(src));
        if let Some(wr) = self.resources.node_write(dst) {
            // Writes into an NVM node go through its slower write pipe.
            route.push(wr);
        } else if src != dst {
            route.push(self.resources.node(dst));
        }
        route
    }

    /// Which node backs a physical address.
    #[must_use]
    pub fn node_of(&self, addr: PhysAddr) -> Option<NodeId> {
        self.topo.node_of_addr(addr)
    }

    /// End-of-run occupancy and migration traffic per tier rank, in rank
    /// order (the `tiers` array of `stats --json` / `policy --json`).
    /// Occupancy comes from the frame allocator; move counts sum the
    /// per-node counters of every open device over the tier's banks.
    #[must_use]
    pub fn tier_usage(&self) -> Vec<TierUsage> {
        (0..self.topo.tier_count())
            .map(|rank| {
                let rank = memif_hwsim::TierRank(rank as u16);
                let mut usage = TierUsage {
                    rank: rank.0,
                    kind: "?",
                    used_bytes: 0,
                    capacity_bytes: 0,
                    moves_in: 0,
                    moves_out: 0,
                };
                for node in self.topo.nodes_of_tier(rank) {
                    usage.kind = node.kind.label();
                    let total = self.alloc.total_bytes(node.id);
                    usage.capacity_bytes += total;
                    usage.used_bytes += total - self.alloc.free_bytes(node.id);
                    for device in self.devices.iter().flatten() {
                        usage.moves_in += device
                            .stats
                            .node_moves_in
                            .get(&node.id.0)
                            .copied()
                            .unwrap_or(0);
                        usage.moves_out += device
                            .stats
                            .node_moves_out
                            .get(&node.id.0)
                            .copied()
                            .unwrap_or(0);
                    }
                }
                usage
            })
            .collect()
    }

    /// Runs the given closure as a fresh simulation over this system,
    /// returning the closure's value (convenience for tests/examples).
    ///
    /// # Examples
    ///
    /// ```
    /// use memif::{Memif, MemifConfig, MoveSpec, NodeId, PageSize, System};
    ///
    /// let mut sys = System::keystone_ii();
    /// let space = sys.new_space();
    /// let memif = Memif::open(&mut sys, space, MemifConfig::default()).unwrap();
    /// let va = sys.mmap(space, 4, PageSize::Small4K, NodeId(0)).unwrap();
    /// sys.run_sim(|sys, sim| {
    ///     memif.submit(sys, sim, MoveSpec::migrate(va, 4, PageSize::Small4K, NodeId(1))).unwrap();
    /// });
    /// assert!(memif.retrieve_completed(&mut sys).unwrap().unwrap().status.is_ok());
    /// ```
    pub fn run_sim<T>(&mut self, f: impl FnOnce(&mut System, &mut Sim<System>) -> T) -> T {
        let mut sim = Sim::new();
        let out = f(self, &mut sim);
        sim.run(self);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memif_hwsim::MemoryKind;
    use memif_mm::PageSize;

    #[test]
    fn keystone_boots_with_both_nodes() {
        let sys = System::keystone_ii();
        assert!(sys.topo.is_booted());
        assert_eq!(sys.topo.online_nodes().count(), 2);
        assert_eq!(
            sys.alloc.total_bytes(NodeId(1)),
            6 << 20,
            "SRAM onlined post-boot"
        );
        assert_eq!(sys.alloc.total_bytes(NodeId(0)), 8 << 30);
    }

    #[test]
    fn spaces_are_independent() {
        let mut sys = System::keystone_ii();
        let a = sys.new_space();
        let b = sys.new_space();
        let va = {
            let alloc = &mut sys.alloc;
            sys.spaces[a.0]
                .mmap_anonymous(alloc, 2, PageSize::Small4K, NodeId(0))
                .unwrap()
        };
        assert!(sys.space(a).translate(va).is_some());
        assert!(sys.space(b).translate(va).is_none());
    }

    #[test]
    fn dma_route_dedups_same_node() {
        let sys = System::keystone_ii();
        assert_eq!(sys.dma_route(NodeId(0), NodeId(1)).len(), 3);
        assert_eq!(sys.dma_route(NodeId(0), NodeId(0)).len(), 2);
    }

    #[test]
    fn node_lookup_by_phys_addr() {
        let sys = System::keystone_ii();
        let fast = sys.topo.node_of_kind(MemoryKind::Fast).unwrap().base;
        assert_eq!(sys.node_of(fast), Some(NodeId(1)));
    }
}
