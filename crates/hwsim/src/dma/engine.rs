//! The DMA engine: descriptor programming and transfer execution.
//!
//! Configuration is a CPU-side activity (the driver writes PaRAM fields
//! through uncached I/O space); execution is engine-side (descriptors are
//! walked, bytes move, a completion interrupt fires). Accordingly
//! [`DmaEngine::configure`] mutates engine state and *returns the CPU
//! cost* for the caller to charge, while [`DmaEngine::launch`] rolls the
//! transfer's fate and returns a [`LaunchTicket`] describing the flow the
//! caller must start and how the completion interrupt will be delivered.
//! The engine knows nothing about the caller's world type: completions
//! come back as typed data ([`DmaOutcome`] via [`CompletionDelivery`]),
//! never as captured closures.
//!
//! Per §2.3 the engine is cache-coherent with the CPUs (no cache
//! maintenance needed around transfers) and supports scatter-gather
//! chaining. Memory-to-memory transfer — which the authors had to add to
//! the ported EDMA3 driver themselves (§6.1) — is the only mode
//! implemented. The sim is single-threaded, so the "couple of locks for
//! thread-safety" of §6.1 have no analogue here.

use crate::cost::CostModel;
use crate::dma::chain::{ChainError, ChainId, ChainManager, ChainPlan};
use crate::dma::param::{ParamSet, NULL_LINK, NUM_PARAM_SETS};
use crate::fault::{FaultInjector, FaultStats, TransferFault};
use crate::flow::FlowId;
use crate::hash::IdMap;
use crate::phys::PhysAddr;
use crate::time::SimDuration;

/// One physically contiguous piece of a scatter-gather transfer (one
/// page, in memif's usage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SgSegment {
    /// Physical source address.
    pub src: PhysAddr,
    /// Physical destination address.
    pub dst: PhysAddr,
    /// Bytes to move.
    pub bytes: u64,
}

/// A transfer that has been programmed into the PaRAM but not launched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfiguredTransfer {
    /// The chain carrying the transfer (busy until released).
    pub chain: ChainId,
    /// First descriptor of the chain.
    pub head: u16,
    /// Number of descriptors.
    pub descriptors: usize,
    /// Total bytes.
    pub bytes: u64,
    /// CPU cost of the configuration (to be charged by the caller).
    pub config_cost: SimDuration,
    /// Engine-side latency before/while walking the chain: trigger plus
    /// per-descriptor processing. This serialization is what keeps small-
    /// page DMA throughput below pin bandwidth.
    pub engine_overhead: SimDuration,
}

/// How many leading segments of `segments` an errored transfer fully
/// moved before the engine stopped: descriptors are walked in chain
/// order, so a mid-chain error at `bytes_done` leaves exactly the
/// segments whose cumulative byte count fits inside `bytes_done` at
/// their destinations. Batched issue uses this to attribute a failure
/// to individual requests instead of the whole chain.
#[must_use]
pub fn segments_done(segments: &[SgSegment], bytes_done: u64) -> usize {
    let mut moved = 0u64;
    for (i, seg) in segments.iter().enumerate() {
        moved += seg.bytes;
        if moved > bytes_done {
            return i;
        }
    }
    segments.len()
}

/// Counters of engine activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Transfers launched.
    pub transfers: u64,
    /// Transfers aborted before completion.
    pub aborted: u64,
    /// Transfers terminated by a mid-flight engine error.
    pub errors: u64,
    /// Bytes moved by completed transfers.
    pub bytes_moved: u64,
    /// Descriptors configured from scratch (12 field writes each).
    pub full_configs: u64,
    /// Descriptors reconfigured via reuse (src/dst rewrites only).
    pub reuse_configs: u64,
    /// Completion interrupts delivered (including error interrupts).
    pub interrupts: u64,
}

/// How a launched transfer ended, as carried by its completion event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaOutcome {
    /// The whole scatter-gather chain was walked; the bytes are at their
    /// destination.
    Completed,
    /// The engine raised an error interrupt partway through. No bytes
    /// are guaranteed at the destination; the caller passes the outcome
    /// to [`DmaEngine::complete`] and decides whether to retry.
    Error {
        /// Bytes the engine had moved before the error.
        bytes_done: u64,
    },
}

/// How (and whether) a launched transfer's completion interrupt reaches
/// the driver. Decided at launch time — with a [`FaultInjector`]
/// installed the fate may be an early error, a lost interrupt, or a late
/// one; without one it is always `Interrupt(Completed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionDelivery {
    /// The completion (or error) interrupt fires the moment the flow
    /// drains: dispatch the completion event directly.
    Interrupt(DmaOutcome),
    /// The interrupt is delivered `delay` after the flow drains: schedule
    /// the completion event that much later.
    Delayed {
        /// The outcome the late interrupt reports.
        outcome: DmaOutcome,
        /// Injected interrupt latency.
        delay: SimDuration,
    },
    /// The interrupt is silently lost: the bytes arrive but the driver is
    /// never told. Only an external watchdog plus [`DmaEngine::abort`]
    /// can reclaim the transfer.
    Dropped,
}

/// What [`DmaEngine::launch`] hands back: the transfer identity, the flow
/// the caller must start on the fabric, and how the completion interrupt
/// will be delivered. The caller starts a flow of `flow_bytes` over its
/// chosen route, registers it with [`DmaEngine::attach_flow`], and
/// attaches a completion payload derived from `delivery`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "the caller must start the transfer's flow"]
pub struct LaunchTicket {
    /// The in-flight transfer's identity.
    pub id: TransferId,
    /// Bytes the fabric flow must carry: the payload (possibly truncated
    /// by an injected error) plus the engine-overhead-equivalent bytes.
    pub flow_bytes: u64,
    /// How the completion interrupt will be delivered.
    pub delivery: CompletionDelivery,
}

/// What [`DmaEngine::abort`] reclaimed: the fabric flow (if one was
/// attached and should be cancelled by the caller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortedTransfer {
    /// The transfer's fabric flow, still to be cancelled by the caller
    /// (the engine does not own the flow network).
    pub flow: Option<FlowId>,
}

/// The simulated EDMA3-class engine.
#[derive(Debug)]
pub struct DmaEngine {
    params: Vec<ParamSet>,
    chains: ChainManager,
    /// Per-descriptor byte sizes of the list being configured, reused.
    sizes: Vec<u64>,
    stats: DmaStats,
    in_flight: IdMap<u64, InFlight>,
    next_transfer: u64,
    /// Installed fault injector; `None` (the default) means the engine
    /// is perfectly reliable and the hot path pays nothing.
    injector: Option<FaultInjector>,
}

#[derive(Debug)]
struct InFlight {
    chain: ChainId,
    flow: Option<FlowId>,
    bytes: u64,
}

/// Handle to an in-flight transfer (for completion and abort).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(u64);

impl TransferId {
    /// The raw transfer number (stable within one engine; used by event
    /// logs).
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl Default for DmaEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl DmaEngine {
    /// An engine with the KeyStone II PaRAM capacity (512 descriptors).
    #[must_use]
    pub fn new() -> Self {
        Self::with_pool(NUM_PARAM_SETS)
    }

    /// An engine with a custom descriptor pool size.
    ///
    /// # Panics
    ///
    /// Panics on a zero or oversized pool.
    #[must_use]
    pub fn with_pool(pool: usize) -> Self {
        DmaEngine {
            params: vec![ParamSet::default(); pool],
            chains: ChainManager::new(pool),
            sizes: Vec::new(),
            stats: DmaStats::default(),
            in_flight: IdMap::default(),
            next_transfer: 0,
            injector: None,
        }
    }

    /// Engine activity counters.
    #[must_use]
    pub fn stats(&self) -> DmaStats {
        self.stats
    }

    /// Installs a fault injector: subsequent configures and launches
    /// consult it. Replaces any previous injector.
    pub fn install_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// The installed injector, if any.
    #[must_use]
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Mutable access to the installed injector (crash-point rolls).
    #[must_use]
    pub fn injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.injector.as_mut()
    }

    /// Drops all volatile engine state after a simulated crash: every
    /// in-flight transfer vanishes and its descriptor chain is released.
    /// Counters, the descriptor pool, the reuse cache, and the installed
    /// injector survive (they model simulation bookkeeping, not device
    /// RAM).
    pub fn reset_volatile(&mut self) {
        let chains: Vec<ChainId> = self.in_flight.drain().map(|(_, t)| t.chain).collect();
        for chain in chains {
            self.chains.release(chain);
        }
    }

    /// Injected-fault counters, if an injector is installed.
    #[must_use]
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.injector.as_ref().map(FaultInjector::stats)
    }

    /// Enables/disables descriptor-chain reuse (ablation A1).
    pub fn set_reuse_enabled(&mut self, enabled: bool) {
        self.chains.set_reuse_enabled(enabled);
    }

    /// Largest scatter-gather list a single transfer can carry.
    #[must_use]
    pub fn max_segments(&self) -> usize {
        self.params.len()
    }

    /// Inspects a descriptor (tests/diagnostics).
    #[must_use]
    pub fn param(&self, idx: u16) -> &ParamSet {
        &self.params[idx as usize]
    }

    /// Programs a scatter-gather transfer into the PaRAM.
    ///
    /// All segments must be the same size (memif dedicates one descriptor
    /// per page). The engine reads the segment list (a `Vec` or a slice)
    /// and keeps none of it: the caller performs the byte copies at
    /// completion from its own copy. Returns the configured transfer,
    /// whose `config_cost` the caller charges to the executing CPU
    /// context.
    ///
    /// # Errors
    ///
    /// * [`ChainError::Empty`] on an empty segment list and
    ///   [`ChainError::MixedSizes`] on non-uniform segment sizes —
    ///   malformed driver input must surface as an error, never a panic.
    /// * [`ChainError::TooLarge`] / [`ChainError::AllBusy`] when the
    ///   descriptor pool cannot serve the request. An installed
    ///   [`FaultInjector`] may also report `AllBusy` spuriously to model
    ///   transient PaRAM exhaustion by other tenants.
    pub fn configure(
        &mut self,
        segments: impl AsRef<[SgSegment]>,
        cost: &CostModel,
    ) -> Result<ConfiguredTransfer, ChainError> {
        let segments = segments.as_ref();
        let Some(first) = segments.first() else {
            return Err(ChainError::Empty);
        };
        let per = first.bytes;
        if segments.iter().any(|s| s.bytes != per) {
            return Err(ChainError::MixedSizes);
        }
        if let Some(inj) = &mut self.injector {
            if inj.roll_configure() {
                return Err(ChainError::AllBusy);
            }
        }
        let plan = self.chains.plan(segments.len(), per)?;
        Ok(self.program(plan, segments, per * segments.len() as u64, cost))
    }

    /// Programs a scatter-gather transfer whose segments may differ in
    /// size — the coalesced issue path, where physically contiguous pages
    /// have been merged into larger descriptors. A uniform segment list
    /// behaves byte-for-byte like [`DmaEngine::configure`]; a mixed list
    /// is carried by a geometry-keyed chain (see
    /// [`ChainManager::plan_segments`]). Descriptor-write cost is charged
    /// per *merged* descriptor: a 256-page contiguous transfer coalesced
    /// into one segment pays for one descriptor, not 256.
    ///
    /// # Errors
    ///
    /// As for [`DmaEngine::configure`], minus `MixedSizes` (mixed sizes
    /// are the point).
    pub fn configure_segments(
        &mut self,
        segments: impl AsRef<[SgSegment]>,
        cost: &CostModel,
    ) -> Result<ConfiguredTransfer, ChainError> {
        let segments = segments.as_ref();
        if segments.is_empty() {
            return Err(ChainError::Empty);
        }
        if let Some(inj) = &mut self.injector {
            if inj.roll_configure() {
                return Err(ChainError::AllBusy);
            }
        }
        self.sizes.clear();
        self.sizes.extend(segments.iter().map(|s| s.bytes));
        let plan = self.chains.plan_segments(&self.sizes)?;
        let bytes = self.sizes.iter().sum();
        Ok(self.program(plan, segments, bytes, cost))
    }

    /// Writes `segments` into `plan`'s descriptors and describes the
    /// resulting transfer of `bytes`.
    fn program(
        &mut self,
        plan: ChainPlan,
        segments: &[SgSegment],
        bytes: u64,
        cost: &CostModel,
    ) -> ConfiguredTransfer {
        let descs = self.chains.descriptors(plan.chain);
        let mut config_cost = SimDuration::ZERO;
        for (i, (&idx, seg)) in descs.iter().zip(segments).enumerate() {
            let link = descs.get(i + 1).copied().unwrap_or(NULL_LINK);
            let slot = &mut self.params[idx as usize];
            if i < plan.reused && slot.total_bytes() == seg.bytes && slot.link == link {
                // Reused descriptor: geometry and link already correct —
                // "only needs to overwrite the source and destination
                // fields" (§5.3).
                slot.src = seg.src;
                slot.dst = seg.dst;
                config_cost += cost.desc_config_reuse();
                self.stats.reuse_configs += 1;
            } else {
                let mut fresh = ParamSet::contiguous(seg.src, seg.dst, seg.bytes);
                fresh.link = link;
                *slot = fresh;
                config_cost += cost.desc_config_full();
                self.stats.full_configs += 1;
            }
        }
        ConfiguredTransfer {
            chain: plan.chain,
            head: descs[0],
            descriptors: segments.len(),
            bytes,
            config_cost,
            engine_overhead: cost.dma_trigger + cost.dma_per_desc_engine * segments.len() as u64,
        }
    }

    /// Launches a configured transfer: rolls its fate against the
    /// installed [`FaultInjector`] (if any) and returns a
    /// [`LaunchTicket`].
    ///
    /// The engine knows nothing about the caller's world type or flow
    /// network: the caller starts a fabric flow of `ticket.flow_bytes` at
    /// `demand_gbps` over its chosen route, attaches a typed completion
    /// payload derived from `ticket.delivery`, and registers the flow via
    /// [`DmaEngine::attach_flow`]. When the completion event is
    /// dispatched, the caller performs the byte copies and retires the
    /// transfer through [`DmaEngine::complete`] (every terminal path —
    /// complete, error, abort — releases the chain exactly once).
    ///
    /// The engine overhead is modeled as equivalent bytes at the
    /// transfer's demand rate, so chained descriptors serialize inside
    /// the flow without a separate timer.
    pub fn launch(&mut self, transfer: &ConfiguredTransfer, demand_gbps: f64) -> LaunchTicket {
        let id = TransferId(self.next_transfer);
        self.next_transfer += 1;
        self.stats.transfers += 1;
        let overhead_bytes = (transfer.engine_overhead.as_ns() as f64 * demand_gbps) as u64;
        let fault = match &mut self.injector {
            Some(inj) => inj.roll_transfer(transfer.bytes),
            None => TransferFault::None,
        };
        let (flow_bytes, delivery) = match fault {
            TransferFault::None => (
                transfer.bytes + overhead_bytes,
                CompletionDelivery::Interrupt(DmaOutcome::Completed),
            ),
            TransferFault::Error { bytes_done } => (
                bytes_done + overhead_bytes,
                CompletionDelivery::Interrupt(DmaOutcome::Error { bytes_done }),
            ),
            TransferFault::DropCompletion => {
                // The transfer runs to completion on the fabric, but the
                // interrupt is lost: nobody is told.
                (transfer.bytes + overhead_bytes, CompletionDelivery::Dropped)
            }
            TransferFault::DelayCompletion(delay) => (
                transfer.bytes + overhead_bytes,
                CompletionDelivery::Delayed {
                    outcome: DmaOutcome::Completed,
                    delay,
                },
            ),
        };
        self.in_flight.insert(
            id.0,
            InFlight {
                chain: transfer.chain,
                flow: None,
                bytes: transfer.bytes,
            },
        );
        LaunchTicket {
            id,
            flow_bytes,
            delivery,
        }
    }

    /// Records the fabric flow carrying transfer `id`, so a later
    /// [`DmaEngine::abort`] can hand it back for cancellation.
    pub fn attach_flow(&mut self, id: TransferId, flow: FlowId) {
        if let Some(t) = self.in_flight.get_mut(&id.0) {
            t.flow = Some(flow);
        }
    }

    /// Retires a transfer on its completion interrupt — the single
    /// terminal path for both successful and errored transfers. Releases
    /// the chain (exactly once) and counts statistics according to
    /// `outcome`. Returns `false` if the transfer was no longer in flight
    /// (already aborted or already completed), in which case nothing is
    /// released.
    pub fn complete(&mut self, id: TransferId, outcome: DmaOutcome) -> bool {
        match self.in_flight.remove(&id.0) {
            Some(t) => {
                match outcome {
                    DmaOutcome::Completed => self.stats.bytes_moved += t.bytes,
                    DmaOutcome::Error { .. } => self.stats.errors += 1,
                }
                self.stats.interrupts += 1;
                self.chains.release(t.chain);
                true
            }
            None => false,
        }
    }

    /// Aborts an in-flight transfer ("drops the outstanding DMA
    /// transfer", §5.2 proceed-and-recover; also the watchdog's reclaim
    /// path for lost interrupts). The completion event, if it still
    /// fires, finds the transfer gone and [`DmaEngine::complete`] becomes
    /// a no-op — the chain is never released twice. Returns the attached
    /// fabric flow for the caller to cancel, or `None` if the transfer
    /// was not in flight.
    pub fn abort(&mut self, id: TransferId) -> Option<AbortedTransfer> {
        match self.in_flight.remove(&id.0) {
            Some(t) => {
                self.chains.release(t.chain);
                self.stats.aborted += 1;
                Some(AbortedTransfer { flow: t.flow })
            }
            None => None,
        }
    }

    /// Read access to the chain manager (diagnostics).
    #[must_use]
    pub fn chains(&self) -> &ChainManager {
        &self.chains
    }

    /// Releases a configured-but-never-launched chain back to idle (the
    /// launch/finish path does this automatically for real transfers).
    pub fn release_chain(&mut self, chain: ChainId) {
        self.chains.release(chain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowSystem, ResourceId, Route};
    use crate::phys::PhysMem;
    use crate::sim::{EventWorld, Sim};
    use crate::time::SimTime;

    fn seg(i: u64) -> SgSegment {
        SgSegment {
            src: PhysAddr::new(0x1_0000 + i * 4096),
            dst: PhysAddr::new(0x8_0000 + i * 4096),
            bytes: 4096,
        }
    }

    #[test]
    fn configure_costs_match_reuse_state() {
        let cm = CostModel::keystone_ii();
        let mut e = DmaEngine::with_pool(32);
        let t1 = e
            .configure((0..4).map(seg).collect::<Vec<_>>(), &cm)
            .unwrap();
        assert_eq!(t1.config_cost, cm.desc_config_full() * 4);
        assert_eq!(t1.descriptors, 4);
        assert_eq!(t1.bytes, 4 * 4096);
        e.finish_for_test(t1.chain);
        let t2 = e
            .configure((4..8).map(seg).collect::<Vec<_>>(), &cm)
            .unwrap();
        assert_eq!(
            t2.config_cost,
            cm.desc_config_reuse() * 4,
            "4× cheaper on reuse"
        );
        assert_eq!(e.stats().full_configs, 4);
        assert_eq!(e.stats().reuse_configs, 4);
    }

    #[test]
    fn descriptors_are_linked_in_order() {
        let cm = CostModel::keystone_ii();
        let mut e = DmaEngine::with_pool(8);
        let t = e
            .configure((0..3).map(seg).collect::<Vec<_>>(), &cm)
            .unwrap();
        let descs: Vec<u16> = {
            // Walk the chain from head via link fields.
            let mut v = vec![t.head];
            loop {
                let link = e.param(*v.last().unwrap()).link;
                if link == NULL_LINK {
                    break;
                }
                v.push(link);
            }
            v
        };
        assert_eq!(descs.len(), 3);
        assert_eq!(e.param(descs[0]).src, seg(0).src);
        assert_eq!(e.param(descs[2]).dst, seg(2).dst);
    }

    struct World {
        flows: FlowSystem<World>,
        dma: DmaEngine,
        phys: PhysMem,
        done_at: Option<u64>,
        copies: Vec<SgSegment>,
        expect_error: bool,
    }

    #[derive(Debug, Clone, Copy)]
    enum Ev {
        FlowTick,
        DmaDone(TransferId, DmaOutcome),
        DmaLate(TransferId, DmaOutcome, SimDuration),
        IrqLost,
        Abort(TransferId),
        AbortKeepFlow(TransferId),
    }

    impl EventWorld for World {
        type Event = Ev;
        fn dispatch(&mut self, sim: &mut Sim<Self>, event: Ev) {
            match event {
                Ev::FlowTick => FlowSystem::on_tick(self, sim, |w| &mut w.flows),
                Ev::DmaDone(id, outcome) => {
                    if self.expect_error {
                        assert!(
                            matches!(outcome, DmaOutcome::Error { bytes_done } if bytes_done < 4 * 4096)
                        );
                    }
                    if matches!(outcome, DmaOutcome::Completed) {
                        let copies = std::mem::take(&mut self.copies);
                        for sg in &copies {
                            self.phys.copy(sg.src, sg.dst, sg.bytes);
                        }
                    }
                    if self.dma.complete(id, outcome) {
                        self.done_at = Some(sim.now().as_ns());
                    }
                }
                Ev::DmaLate(id, outcome, delay) => {
                    sim.schedule_after(delay, Ev::DmaDone(id, outcome));
                }
                Ev::IrqLost => {}
                Ev::Abort(id) => {
                    let aborted = self.dma.abort(id).expect("still in flight");
                    if let Some(f) = aborted.flow {
                        self.flows.cancel_flow(sim, f);
                    }
                    assert!(self.dma.abort(id).is_none(), "second abort is a no-op");
                }
                Ev::AbortKeepFlow(id) => {
                    // Simulates the watchdog racing a late interrupt: the
                    // transfer is reclaimed but its flow (already drained)
                    // is left alone.
                    assert!(self.dma.abort(id).is_some());
                }
            }
        }
    }

    fn world(pool: usize) -> World {
        World {
            flows: FlowSystem::new(|| Ev::FlowTick),
            dma: DmaEngine::with_pool(pool),
            phys: PhysMem::new(),
            done_at: None,
            copies: Vec::new(),
            expect_error: false,
        }
    }

    /// Starts the transfer's flow with the payload its delivery demands —
    /// what the memif driver does with a ticket.
    fn launch(
        w: &mut World,
        sim: &mut Sim<World>,
        resource: ResourceId,
        t: &ConfiguredTransfer,
        demand: f64,
    ) -> TransferId {
        let ticket = w.dma.launch(t, demand);
        let payload = match ticket.delivery {
            CompletionDelivery::Interrupt(outcome) => Ev::DmaDone(ticket.id, outcome),
            CompletionDelivery::Delayed { outcome, delay } => {
                Ev::DmaLate(ticket.id, outcome, delay)
            }
            CompletionDelivery::Dropped => Ev::IrqLost,
        };
        let flow = w.flows.start_flow(
            sim,
            Route::new(resource),
            ticket.flow_bytes,
            demand,
            payload,
        );
        w.dma.attach_flow(ticket.id, flow);
        ticket.id
    }

    #[test]
    fn launch_moves_bytes_at_completion() {
        let cm = CostModel::keystone_ii();
        let mut sim: Sim<World> = Sim::new();
        let mut w = world(16);
        let ddr = w.flows.add_resource(6.2);
        w.phys.fill(seg(0).src, 4096, 0x77);

        w.copies = vec![seg(0)];
        let t = w.dma.configure(&w.copies, &cm).unwrap();
        launch(&mut w, &mut sim, ddr, &t, 5.8);
        sim.run(&mut w);
        assert!(w.done_at.is_some());
        assert_eq!(
            w.phys.read_u8(seg(0).dst),
            0x77,
            "bytes arrive at completion"
        );
        assert_eq!(w.dma.stats().bytes_moved, 4096);
        assert_eq!(w.dma.stats().interrupts, 1);
        // Chain released: a follow-up transfer reuses it.
        let t2 = w.dma.configure(vec![seg(1)], &cm).unwrap();
        assert_eq!(t2.config_cost, cm.desc_config_reuse());
    }

    #[test]
    fn completion_time_includes_engine_overhead() {
        let cm = CostModel::keystone_ii();
        let mut sim: Sim<World> = Sim::new();
        let mut w = world(16);
        let ddr = w.flows.add_resource(8.0);
        let t = w
            .dma
            .configure((0..4).map(seg).collect::<Vec<_>>(), &cm)
            .unwrap();
        let expected_overhead = cm.dma_trigger + cm.dma_per_desc_engine * 4;
        assert_eq!(t.engine_overhead, expected_overhead);
        launch(&mut w, &mut sim, ddr, &t, 4.0);
        sim.run(&mut w);
        // 16384 bytes at 4 GB/s = 4096 ns, plus overhead-equivalent bytes.
        let done = w.done_at.unwrap();
        let pure = 16_384 / 4;
        assert!(done > pure, "overhead lengthens the transfer");
        let with_overhead = pure + expected_overhead.as_ns();
        assert!(
            done.abs_diff(with_overhead) <= 2,
            "expected ≈{with_overhead}, got {done}"
        );
    }

    #[test]
    fn abort_cancels_flow_and_skips_completion() {
        let cm = CostModel::keystone_ii();
        let mut sim: Sim<World> = Sim::new();
        let mut w = world(16);
        let ddr = w.flows.add_resource(1.0);
        let t = w.dma.configure(vec![seg(0)], &cm).unwrap();
        let id = launch(&mut w, &mut sim, ddr, &t, 1.0);
        sim.schedule_at(SimTime::from_ns(10), Ev::Abort(id));
        sim.run(&mut w);
        assert!(w.done_at.is_none(), "completion event never dispatched");
        assert_eq!(w.dma.stats().aborted, 1);
        assert_eq!(w.dma.stats().bytes_moved, 0);
        // The chain was released by the abort; reuse works afterwards.
        let t2 = w.dma.configure(vec![seg(1)], &cm).unwrap();
        assert_eq!(t2.config_cost, cm.desc_config_reuse());
    }

    #[test]
    fn late_completion_after_abort_releases_exactly_once() {
        // A transfer reclaimed by the watchdog while its (delayed)
        // completion interrupt is still in the queue: the late interrupt
        // finds the transfer gone and must not release the chain a second
        // time or double-count statistics.
        let cm = CostModel::keystone_ii();
        let mut sim: Sim<World> = Sim::new();
        let mut w = world(16);
        let ddr = w.flows.add_resource(6.2);
        let t = w.dma.configure(vec![seg(0)], &cm).unwrap();
        let id = launch(&mut w, &mut sim, ddr, &t, 4.0);
        // Reclaim while the flow is still running, but leave the flow (and
        // therefore the pending completion event) in place.
        sim.schedule_at(SimTime::from_ns(10), Ev::AbortKeepFlow(id));
        sim.run(&mut w);
        assert!(w.done_at.is_none(), "complete() after abort is a no-op");
        assert_eq!(w.dma.stats().aborted, 1);
        assert_eq!(w.dma.stats().interrupts, 0);
        assert_eq!(w.dma.stats().bytes_moved, 0);
        assert_eq!(w.dma.chains().busy_descriptors(), 0, "released once");
        // The pool is healthy: the chain is reusable.
        let t2 = w.dma.configure(vec![seg(1)], &cm).unwrap();
        assert_eq!(t2.config_cost, cm.desc_config_reuse());
    }

    #[test]
    fn malformed_sg_lists_are_errors_not_panics() {
        let cm = CostModel::keystone_ii();
        let mut e = DmaEngine::with_pool(8);
        assert_eq!(
            e.configure(Vec::<SgSegment>::new(), &cm),
            Err(ChainError::Empty)
        );
        let mut segs: Vec<SgSegment> = (0..2).map(seg).collect();
        segs[1].bytes = 8192;
        assert_eq!(e.configure(segs, &cm), Err(ChainError::MixedSizes));
        // An oversized list propagates the pool error rather than
        // asserting.
        let r = e.configure((0..9).map(seg).collect::<Vec<_>>(), &cm);
        assert!(matches!(
            r,
            Err(ChainError::TooLarge {
                requested: 9,
                pool: 8
            })
        ));
        // The pool is untouched by any of the rejections.
        assert_eq!(e.chains().free_descriptors(), 8);
    }

    #[test]
    fn injected_error_delivers_error_outcome_and_complete_releases() {
        use crate::fault::{FaultInjector, FaultPlan};
        let cm = CostModel::keystone_ii();
        let mut sim: Sim<World> = Sim::new();
        let mut w = world(16);
        w.expect_error = true;
        let ddr = w.flows.add_resource(6.2);
        w.dma
            .install_injector(FaultInjector::new(FaultPlan::dma_errors(9, 1.0)));
        let t = w
            .dma
            .configure((0..4).map(seg).collect::<Vec<_>>(), &cm)
            .unwrap();
        launch(&mut w, &mut sim, ddr, &t, 4.0);
        sim.run(&mut w);
        assert!(w.done_at.is_some(), "error interrupt was delivered");
        assert_eq!(w.dma.stats().errors, 1);
        assert_eq!(w.dma.stats().bytes_moved, 0);
        assert_eq!(w.dma.fault_stats().unwrap().dma_errors, 1);
        // The chain was released; a follow-up configure succeeds (no
        // injected exhaustion in this plan).
        assert_eq!(w.dma.chains().busy_descriptors(), 0);
    }

    #[test]
    fn dropped_completion_never_fires_until_aborted() {
        use crate::fault::{FaultInjector, FaultPlan};
        let cm = CostModel::keystone_ii();
        let mut sim: Sim<World> = Sim::new();
        let mut w = world(16);
        let ddr = w.flows.add_resource(6.2);
        w.dma.install_injector(FaultInjector::new(FaultPlan {
            seed: 1,
            drop_rate: 1.0,
            ..FaultPlan::default()
        }));
        let t = w.dma.configure(vec![seg(0)], &cm).unwrap();
        let id = launch(&mut w, &mut sim, ddr, &t, 4.0);
        sim.run(&mut w);
        assert!(w.done_at.is_none(), "completion interrupt was dropped");
        assert_eq!(w.dma.chains().busy_descriptors(), 1, "chain still held");
        // A watchdog-style abort reclaims the chain (the flow has already
        // drained, so there is nothing left to cancel).
        assert!(w.dma.abort(id).is_some());
        assert_eq!(w.dma.chains().busy_descriptors(), 0);
    }

    #[test]
    fn delayed_completion_arrives_late() {
        use crate::fault::{FaultInjector, FaultPlan};
        let cm = CostModel::keystone_ii();

        // Fault-free reference time.
        let baseline = {
            let mut sim: Sim<World> = Sim::new();
            let mut w = world(16);
            let ddr = w.flows.add_resource(6.2);
            let t = w.dma.configure(vec![seg(0)], &cm).unwrap();
            launch(&mut w, &mut sim, ddr, &t, 4.0);
            sim.run(&mut w);
            w.done_at.unwrap()
        };

        let mut sim: Sim<World> = Sim::new();
        let mut w = world(16);
        let ddr = w.flows.add_resource(6.2);
        w.dma.install_injector(FaultInjector::new(FaultPlan {
            seed: 2,
            delay_rate: 1.0,
            max_delay: SimDuration::from_us(100),
            ..FaultPlan::default()
        }));
        let t = w.dma.configure(vec![seg(0)], &cm).unwrap();
        launch(&mut w, &mut sim, ddr, &t, 4.0);
        sim.run(&mut w);
        let delayed = w.done_at.expect("delayed interrupt still arrives");
        assert!(
            delayed > baseline,
            "delay pushed completion past {baseline}"
        );
        assert!(delayed <= baseline + 100_000, "bounded by max_delay");
        assert_eq!(w.dma.stats().bytes_moved, 4096);
    }

    #[test]
    fn injected_exhaustion_reports_all_busy() {
        use crate::fault::{FaultInjector, FaultPlan};
        let cm = CostModel::keystone_ii();
        let mut e = DmaEngine::with_pool(64);
        e.install_injector(FaultInjector::new(FaultPlan {
            seed: 4,
            desc_exhaust_rate: 1.0,
            desc_exhaust_burst: 2,
            ..FaultPlan::default()
        }));
        assert_eq!(
            e.configure(vec![seg(0)], &cm),
            Err(ChainError::AllBusy),
            "pool is empty-handed despite 64 free descriptors"
        );
        assert!(e.fault_stats().unwrap().desc_exhaustions >= 1);
    }

    #[test]
    fn coalesced_configure_charges_per_merged_descriptor() {
        let cm = CostModel::keystone_ii();
        let mut e = DmaEngine::with_pool(32);
        // Three merged descriptors standing in for 7 pages.
        let segs = vec![
            SgSegment {
                src: PhysAddr::new(0x1_0000),
                dst: PhysAddr::new(0x8_0000),
                bytes: 4 * 4096,
            },
            SgSegment {
                src: PhysAddr::new(0x2_0000),
                dst: PhysAddr::new(0x9_0000),
                bytes: 4096,
            },
            SgSegment {
                src: PhysAddr::new(0x3_0000),
                dst: PhysAddr::new(0xA_0000),
                bytes: 2 * 4096,
            },
        ];
        let t = e.configure_segments(&segs, &cm).unwrap();
        assert_eq!(t.descriptors, 3, "one descriptor per merged segment");
        assert_eq!(t.bytes, 7 * 4096);
        assert_eq!(t.config_cost, cm.desc_config_full() * 3);
        assert_eq!(
            t.engine_overhead,
            cm.dma_trigger + cm.dma_per_desc_engine * 3
        );
        e.finish_for_test(t.chain);
        // Exact-geometry reuse rewrites src/dst only.
        let t2 = e.configure_segments(segs, &cm).unwrap();
        assert_eq!(t2.config_cost, cm.desc_config_reuse() * 3);
    }

    #[test]
    fn uniform_configure_segments_matches_configure() {
        let cm = CostModel::keystone_ii();
        let mut a = DmaEngine::with_pool(32);
        let mut b = DmaEngine::with_pool(32);
        let ta = a
            .configure((0..4).map(seg).collect::<Vec<_>>(), &cm)
            .unwrap();
        let tb = b
            .configure_segments((0..4).map(seg).collect::<Vec<_>>(), &cm)
            .unwrap();
        assert_eq!(ta, tb, "uniform lists take the identical path");
        assert_eq!(
            b.configure_segments(Vec::<SgSegment>::new(), &cm),
            Err(ChainError::Empty)
        );
    }

    #[test]
    fn segments_done_attributes_partial_errors() {
        let cm = CostModel::keystone_ii();
        let mut e = DmaEngine::with_pool(32);
        let segs: Vec<SgSegment> = (0..4).map(seg).collect();
        let t = e.configure(&segs, &cm).unwrap();
        assert_eq!(t.descriptors, segs.len());
        assert_eq!(segments_done(&segs, 0), 0);
        assert_eq!(
            segments_done(&segs, 4095),
            0,
            "partial segment doesn't count"
        );
        assert_eq!(segments_done(&segs, 4096), 1);
        assert_eq!(segments_done(&segs, 3 * 4096 + 1), 3);
        assert_eq!(segments_done(&segs, 4 * 4096), 4);
        assert_eq!(segments_done(&segs, u64::MAX), 4);
    }

    impl DmaEngine {
        fn finish_for_test(&mut self, chain: ChainId) {
            self.chains.release(chain);
        }
    }
}
