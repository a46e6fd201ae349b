//! The placement daemon: an epoch loop over the simulation.
//!
//! Each epoch the daemon scans its tracked regions' reference bits
//! ([`memif_mm::AddressSpace::scan_referenced`]), folds the results
//! into the [`PolicyEngine`]'s decayed heat, asks for a waterfall plan
//! over its [`TierMap`], and issues the moves through
//! [`Memif::submit_background`] — staged on the blue queue and drained
//! by the kernel workers like any other request, but with no
//! user/kernel crossing and a bounded in-flight window so placement
//! repair never crowds out application submissions. Its own CPU time
//! (wakeup, PTE scans, heat updates) is priced by the cost model and
//! charged to the kernel-thread context.
//!
//! Waterfall moves step one rank at a time; a frozen region's plunge to
//! the compressed floor rides a [`memif::MoveChain`] through the
//! intermediate tiers, every hop an ordinary journaled request. With
//! [`PolicyConfig::cascade`] set, moves that did not fit their target
//! tier park until a completion frees capacity and retry immediately —
//! the demote-then-promote cascade — instead of waiting a whole epoch.
//!
//! Regions with a move outstanding are neither scanned (re-arming
//! young on a semi-final PTE would mask the Release race check) nor
//! re-planned; their heat decays until the completion retires.

use std::cell::RefCell;
use std::rc::Rc;

use memif::{
    ChainStep, Context, HookId, Memif, MoveChain, MoveSpec, NodeId, PageSize, Sim, SimDuration,
    SimEvent, SpaceId, System, TierRank, VirtAddr,
};
use memif_hwsim::hash::IdMap;
use memif_hwsim::{MemoryKind, Topology};

use crate::engine::{PolicyEngine, TierOccupancy};
use crate::PolicyConfig;

/// The ordered ladder of memory tiers a daemon manages: one node per
/// rank, fastest first. The engine's [`TierRank`]s index this map.
#[derive(Debug, Clone)]
pub struct TierMap {
    slots: Vec<(NodeId, MemoryKind)>,
}

impl TierMap {
    /// One managed tier per topology rank, fastest first, backed by the
    /// first node of each rank.
    #[must_use]
    pub fn from_topology(topo: &Topology) -> Self {
        let slots = (0..topo.tier_count())
            .filter_map(|t| topo.node_of_tier(TierRank(t as u16)))
            .map(|n| (n.id, n.kind))
            .collect();
        TierMap { slots }
    }

    /// An explicit ladder over `nodes`, fastest first — e.g. the
    /// classic two-tier fast/slow pair on a taller machine.
    ///
    /// # Panics
    ///
    /// Panics if a node is not in the topology.
    #[must_use]
    pub fn of_nodes(topo: &Topology, nodes: &[NodeId]) -> Self {
        let slots = nodes
            .iter()
            .map(|&id| {
                let n = topo
                    .all_nodes()
                    .iter()
                    .find(|n| n.id == id)
                    .expect("tier map node exists in the topology");
                (n.id, n.kind)
            })
            .collect();
        TierMap { slots }
    }

    /// Managed tiers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no tiers are managed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The node backing rank `rank`.
    #[must_use]
    pub fn node(&self, rank: usize) -> NodeId {
        self.slots[rank].0
    }

    /// The storage class of rank `rank`.
    #[must_use]
    pub fn kind(&self, rank: usize) -> MemoryKind {
        self.slots[rank].1
    }

    /// The managed rank of `node`, if the map includes it.
    #[must_use]
    pub fn rank_of(&self, node: NodeId) -> Option<usize> {
        self.slots.iter().position(|&(id, _)| id == node)
    }

    /// True when the bottom rank is compressed storage (enables the
    /// freeze rule).
    #[must_use]
    pub fn has_compressed_floor(&self) -> bool {
        self.slots.last().is_some_and(|&(_, k)| k.is_compressed())
    }
}

/// Counters the daemon maintains, surfaced through `memifctl` stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Sampling epochs completed.
    pub epochs: u64,
    /// PTEs inspected by reference scans (including skipped entries).
    pub pages_scanned: u64,
    /// Pages observed referenced since their previous scan.
    pub pages_referenced: u64,
    /// Promotions issued up the waterfall.
    pub promotions: u64,
    /// Demotions issued down the waterfall.
    pub demotions: u64,
    /// Policy moves that completed successfully.
    pub moves_ok: u64,
    /// Policy moves that completed without relocating cleanly (aborted
    /// by a racing write, failed, or raced); the region stays tracked
    /// and a later epoch retries.
    pub moves_failed: u64,
    /// Planned moves dropped because their target tier was over its
    /// watermark (retried once capacity frees).
    pub dropped: u64,
    /// Capacity-pressure cascade steps: chain hops advanced through
    /// intermediate tiers plus parked moves re-issued the moment a
    /// completion freed their target tier.
    pub cascades: u64,
}

struct Inner {
    memif: Memif,
    space: SpaceId,
    cfg: PolicyConfig,
    engine: PolicyEngine,
    tiers: TierMap,
    /// Outstanding policy moves: request id → region base.
    inflight: IdMap<u64, u64>,
    /// Multi-hop floor plunges in flight: region base → chain.
    chains: IdMap<u64, MoveChain>,
    /// Moves that did not fit their target tier, parked for the
    /// cascade retry: `(base, target rank)`, cleared every epoch.
    waiting: Vec<(u64, usize)>,
    stats: PolicyStats,
    running: bool,
    epoch_hook: Option<HookId>,
    drain_hook: Option<HookId>,
    poll_armed: bool,
    /// Events parked by [`PolicyDaemon::when_idle`], released when the
    /// in-flight window drains (the synchronous-migration comparator's
    /// app gate).
    on_idle: Vec<SimEvent>,
}

/// Handle to a launched placement daemon.
#[derive(Clone)]
pub struct PolicyDaemon {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for PolicyDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let i = self.inner.borrow();
        f.debug_struct("PolicyDaemon")
            .field("running", &i.running)
            .field("inflight", &i.inflight.len())
            .field("stats", &i.stats)
            .finish()
    }
}

impl PolicyDaemon {
    /// Starts the daemon over the whole ranked hierarchy (one managed
    /// tier per topology rank): registers its epoch and completion
    /// hooks and schedules the first epoch one period out. The daemon
    /// assumes it owns `memif`'s completion queue — open a dedicated
    /// instance for it rather than sharing the application's.
    pub fn launch(
        sys: &mut System,
        sim: &mut Sim<System>,
        memif: Memif,
        space: SpaceId,
        cfg: PolicyConfig,
    ) -> Self {
        let tiers = TierMap::from_topology(&sys.topo);
        Self::launch_with_tiers(sys, sim, memif, space, cfg, tiers)
    }

    /// Starts the daemon over an explicit [`TierMap`] — e.g. the
    /// classic two-tier pair on a taller machine, for comparison runs.
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is empty.
    pub fn launch_with_tiers(
        sys: &mut System,
        sim: &mut Sim<System>,
        memif: Memif,
        space: SpaceId,
        cfg: PolicyConfig,
        tiers: TierMap,
    ) -> Self {
        assert!(!tiers.is_empty(), "a daemon needs at least one tier");
        let engine = PolicyEngine::with_tiers(&cfg, tiers.len(), tiers.has_compressed_floor());
        let inner = Rc::new(RefCell::new(Inner {
            memif,
            space,
            engine,
            cfg,
            tiers,
            inflight: IdMap::default(),
            chains: IdMap::default(),
            waiting: Vec::new(),
            stats: PolicyStats::default(),
            running: true,
            epoch_hook: None,
            drain_hook: None,
            poll_armed: false,
            on_idle: Vec::new(),
        }));
        let epoch_hook = {
            let inner = Rc::clone(&inner);
            sys.register_hook(move |sys, sim, arg| Inner::epoch(&inner, sys, sim, arg))
        };
        let drain_hook = {
            let inner = Rc::clone(&inner);
            sys.register_hook(move |sys, sim, _arg| Inner::drain(&inner, sys, sim))
        };
        let epoch = {
            let mut i = inner.borrow_mut();
            i.epoch_hook = Some(epoch_hook);
            i.drain_hook = Some(drain_hook);
            i.cfg.epoch
        };
        sim.schedule_after(
            epoch,
            SimEvent::Hook {
                hook: epoch_hook,
                arg: 1,
            },
        );
        PolicyDaemon { inner }
    }

    /// Registers a region for placement; its tier is read from the
    /// current mapping.
    pub fn track(&self, sys: &System, base: VirtAddr, pages: u32, page_size: PageSize) {
        let mut i = self.inner.borrow_mut();
        let rank = resident_rank(sys, i.space, base, &i.tiers);
        i.engine
            .track(base.as_u64(), pages, page_size, TierRank(rank as u16));
    }

    /// Stops the epoch loop: the next scheduled epoch becomes a no-op
    /// and nothing further is scheduled. Outstanding moves still drain.
    pub fn stop(&self) {
        self.inner.borrow_mut().running = false;
    }

    /// True while any policy move is outstanding.
    #[must_use]
    pub fn busy(&self) -> bool {
        !self.inner.borrow().inflight.is_empty()
    }

    /// Runs `event` once the in-flight window drains — immediately if
    /// the daemon is already idle. The synchronous-migration comparator
    /// parks the application's next tick here.
    pub fn when_idle(&self, sim: &mut Sim<System>, event: SimEvent) {
        let mut i = self.inner.borrow_mut();
        if i.inflight.is_empty() {
            sim.schedule_after(SimDuration::from_ns(0), event);
        } else {
            i.on_idle.push(event);
        }
    }

    /// A snapshot of the daemon's counters.
    #[must_use]
    pub fn stats(&self) -> PolicyStats {
        self.inner.borrow().stats
    }

    /// The tier rank currently backing `base`, per the engine's
    /// bookkeeping (0 = fastest). `None` for untracked regions.
    #[must_use]
    pub fn resident_tier(&self, base: VirtAddr) -> Option<TierRank> {
        self.inner
            .borrow()
            .engine
            .region(base.as_u64())
            .map(|r| r.tier)
    }
}

/// The managed rank backing `base`'s first page. Nodes outside the tier
/// map count as the bottom rank — the daemon can only pull them up.
fn resident_rank(sys: &System, space: SpaceId, base: VirtAddr, tiers: &TierMap) -> usize {
    sys.space(space)
        .translate(base)
        .and_then(|pa| sys.node_of(pa))
        .and_then(|n| tiers.rank_of(n))
        .unwrap_or(tiers.len() - 1)
}

impl Inner {
    /// One sampling epoch: scan, fold, plan, issue, reschedule.
    fn epoch(inner: &Rc<RefCell<Inner>>, sys: &mut System, sim: &mut Sim<System>, arg: u64) {
        let (space, regions, period) = {
            let i = inner.borrow();
            if !i.running {
                return; // stopped: no reschedule, the loop quiesces
            }
            let regions: Vec<(u64, u32, PageSize, bool)> = i
                .engine
                .regions()
                .map(|r| (r.base, r.pages, r.page_size, r.inflight))
                .collect();
            (i.space, regions, i.cfg.epoch)
        };

        // Scan outside the borrow (scans mutate the address space, not
        // the daemon), then fold results in.
        let mut scans: Vec<(u64, Option<u32>)> = Vec::with_capacity(regions.len());
        let mut pte_work = 0u64;
        for &(base, pages, page_size, inflight) in &regions {
            if inflight {
                scans.push((base, None)); // decay only; see module docs
            } else {
                let out =
                    sys.space_mut(space)
                        .scan_referenced(VirtAddr::new(base), pages, page_size);
                pte_work += u64::from(out.scanned) + u64::from(out.skipped);
                scans.push((base, Some(out.referenced)));
            }
        }

        let mut i = inner.borrow_mut();
        i.stats.epochs += 1;
        i.stats.pages_scanned += pte_work;
        i.waiting.clear(); // parked moves replan from fresh heat
        for &(base, referenced) in &scans {
            match referenced {
                Some(n) => {
                    i.stats.pages_referenced += u64::from(n);
                    i.engine.observe(base, n);
                }
                None => i.engine.decay(base),
            }
        }
        for &(base, _, _, inflight) in &regions {
            if !inflight {
                let rank = resident_rank(sys, space, VirtAddr::new(base), &i.tiers);
                i.engine.set_tier(base, TierRank(rank as u16));
            }
        }

        let cost = sys.cost.policy_epoch_base
            + sys.cost.policy_scan_pte * pte_work
            + sys.cost.policy_heat_update * regions.len() as u64;
        sys.meter.charge(Context::KernelThread, cost);

        let occ: Vec<TierOccupancy> = (0..i.tiers.len())
            .map(|t| {
                let node = i.tiers.node(t);
                TierOccupancy {
                    free: sys.alloc.free_bytes(node),
                    total: sys.alloc.total_bytes(node),
                }
            })
            .collect();
        let plan = i.engine.plan(&occ);
        i.stats.dropped += u64::from(plan.dropped);
        let floor = i.tiers.len() - 1;

        let mut budget = i.cfg.max_inflight.saturating_sub(i.inflight.len());
        // Classic order issues demotions first so capacity frees ahead
        // of demand. With cascades on, promotions claim the window
        // first — a whole cold pool sinking must not starve the hot
        // set — and anything that does not fit parks until a demotion
        // completes and frees its tier.
        let (first, second) = if i.cfg.cascade {
            (&plan.promote, &plan.demote)
        } else {
            (&plan.demote, &plan.promote)
        };
        for m in first.iter().chain(second) {
            let (from, to) = (m.from.0 as usize, m.to.0 as usize);
            if budget == 0 {
                if i.cfg.cascade {
                    // Park the overflow: drain re-issues it the moment
                    // a completion frees a window slot.
                    Inner::park(&mut i, m.base, to);
                    continue;
                }
                break;
            }
            // The plan's projection credits bytes freed by this epoch's
            // other selections; those moves are still in flight, so
            // re-check actual free bytes and defer what does not fit
            // yet. The floor always accepts.
            if to != floor && !Inner::fits(&i, sys, m.base, to) {
                Inner::park(&mut i, m.base, to);
                continue;
            }
            if Inner::issue(&mut i, sys, sim, m.base, from, to) {
                budget -= 1;
            } else {
                break; // request slots exhausted; retry next epoch
            }
        }

        if !i.inflight.is_empty() && !i.poll_armed {
            Inner::arm_poll(&mut i, sys, sim);
        }
        let hook = i.epoch_hook.expect("set at launch");
        drop(i);
        sim.schedule_after(period, SimEvent::Hook { hook, arg: arg + 1 });
    }

    /// Whether `base`'s bytes fit on rank `to` right now.
    fn fits(i: &std::cell::RefMut<'_, Inner>, sys: &System, base: u64, to: usize) -> bool {
        i.engine
            .region(base)
            .is_some_and(|r| sys.alloc.free_bytes(i.tiers.node(to)) >= r.bytes())
    }

    /// Parks an unfittable move for the cascade retry (or counts it
    /// dropped when cascades are off).
    fn park(i: &mut std::cell::RefMut<'_, Inner>, base: u64, to: usize) {
        if i.cfg.cascade {
            i.waiting.push((base, to));
        } else {
            i.stats.dropped += 1;
        }
    }

    /// Issues one policy move from rank `from` to rank `to`; true on
    /// success. A plunge spanning more than one rank becomes a
    /// [`MoveChain`] hopping through every intermediate tier.
    fn issue(
        i: &mut std::cell::RefMut<'_, Inner>,
        sys: &mut System,
        sim: &mut Sim<System>,
        base: u64,
        from: usize,
        to: usize,
    ) -> bool {
        let Some(r) = i.engine.region(base).copied() else {
            return false;
        };
        let memif = i.memif;
        let va = VirtAddr::new(base);
        let submitted = if to > from + 1 {
            let hops: Vec<NodeId> = (from + 1..=to).map(|t| i.tiers.node(t)).collect();
            let mut chain =
                MoveChain::new(va, r.pages, r.page_size, hops, base).with_tenant(i.cfg.tenant);
            match chain.start(&memif, sys, sim) {
                Ok(rid) => {
                    i.chains.insert(base, chain);
                    Some(rid)
                }
                Err(_) => None,
            }
        } else {
            let dst = i.tiers.node(to);
            let spec = MoveSpec::migrate(va, r.pages, r.page_size, dst)
                .with_user_data(base)
                .with_tenant(i.cfg.tenant);
            i.memif
                .submit_background(sys, sim, spec)
                .ok()
                .map(|(rid, _)| rid)
        };
        match submitted {
            Some(rid) => {
                i.inflight.insert(rid.0, base);
                i.engine.set_inflight(base, true);
                if to < from {
                    i.stats.promotions += 1;
                } else {
                    i.stats.demotions += 1;
                }
                true
            }
            None => false,
        }
    }

    /// Completion waker: retire finished policy moves, advance chains,
    /// cascade parked moves into freed capacity, and re-arm.
    fn drain(inner: &Rc<RefCell<Inner>>, sys: &mut System, sim: &mut Sim<System>) {
        let mut i = inner.borrow_mut();
        i.poll_armed = false;
        let memif = i.memif;
        while let Ok(Some(c)) = memif.retrieve_completed(sys) {
            let Some(base) = i.inflight.remove(&c.req_id.0) else {
                continue;
            };
            // A floor plunge mid-journey: submit the next hop and keep
            // the region in flight.
            if let Some(mut chain) = i.chains.remove(&base) {
                match chain.on_completion(&memif, sys, sim, &c) {
                    Ok(ChainStep::Advanced(rid)) => {
                        i.inflight.insert(rid.0, base);
                        i.chains.insert(base, chain);
                        i.stats.cascades += 1;
                        continue;
                    }
                    Ok(ChainStep::Finished | ChainStep::Failed(_) | ChainStep::NotMine)
                    | Err(_) => {} // terminal either way: retire below
                }
            }
            i.engine.set_inflight(base, false);
            if c.status.is_ok() {
                i.stats.moves_ok += 1;
            } else {
                i.stats.moves_failed += 1;
            }
            // Residency follows the *mapping*, not the status: an
            // aborted migration restored the original frames, while a
            // raced one still relocated them. The page table is the
            // truth either way.
            let space = i.space;
            let rank = resident_rank(sys, space, VirtAddr::new(base), &i.tiers);
            i.engine.set_tier(base, TierRank(rank as u16));
            // Release installs final PTEs with young cleared — the same
            // state an application reference leaves. Re-arm the bits now
            // (discarding the scan) so the next epoch does not mistake
            // the move itself for references and ping-pong the region.
            if let Some(region) = i.engine.region(base).copied() {
                let _ = sys.space_mut(space).scan_referenced(
                    VirtAddr::new(base),
                    region.pages,
                    region.page_size,
                );
                sys.meter.charge(
                    Context::KernelThread,
                    sys.cost.policy_scan_pte * u64::from(region.pages),
                );
            }
        }
        // Cascade: freed capacity lets parked moves go now rather than
        // next epoch.
        if i.cfg.cascade && !i.waiting.is_empty() {
            let mut budget = i.cfg.max_inflight.saturating_sub(i.inflight.len());
            let parked = std::mem::take(&mut i.waiting);
            for (base, to) in parked {
                let from = i.engine.region(base).map_or(to, |r| usize::from(r.tier.0));
                let ready = budget > 0
                    && i.engine.region(base).is_some_and(|r| !r.inflight)
                    && from != to
                    && Inner::fits(&i, sys, base, to);
                if ready && Inner::issue(&mut i, sys, sim, base, from, to) {
                    budget -= 1;
                    i.stats.cascades += 1;
                } else {
                    i.waiting.push((base, to));
                }
            }
        }
        if i.inflight.is_empty() {
            for ev in std::mem::take(&mut i.on_idle) {
                sim.schedule_after(SimDuration::from_ns(0), ev);
            }
        } else {
            Inner::arm_poll(&mut i, sys, sim);
        }
    }

    fn arm_poll(i: &mut std::cell::RefMut<'_, Inner>, sys: &mut System, sim: &mut Sim<System>) {
        let hook = i.drain_hook.expect("set at launch");
        let memif = i.memif;
        if memif
            .poll_event(sys, sim, SimEvent::Hook { hook, arg: 0 })
            .is_ok()
        {
            i.poll_armed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memif::{MemifConfig, RaceMode};
    use memif_mm::AccessKind;

    const PAGE: PageSize = PageSize::Small4K;
    const PAGES: u32 = 32; // 128 KiB regions

    /// End-to-end daemon run on KeyStone II: a repeatedly-touched slow
    /// region is promoted to SRAM and an untouched SRAM resident is
    /// demoted, with all bookkeeping consistent.
    #[test]
    fn daemon_promotes_hot_and_demotes_cold() {
        let mut sys = System::keystone_ii();
        let mut sim = Sim::new();
        let space = sys.new_space();
        let hot = sys.mmap(space, PAGES, PAGE, NodeId(0)).unwrap();
        let cold = sys.mmap(space, PAGES, PAGE, NodeId(1)).unwrap();

        let config = MemifConfig {
            race_mode: RaceMode::DetectRecover,
            ..MemifConfig::default()
        };
        let memif = Memif::open(&mut sys, space, config).unwrap();
        let daemon =
            PolicyDaemon::launch(&mut sys, &mut sim, memif, space, PolicyConfig::default());
        daemon.track(&sys, hot, PAGES, PAGE);
        daemon.track(&sys, cold, PAGES, PAGE);
        assert_eq!(daemon.resident_tier(hot), Some(TierRank(1)), "DDR rank");
        assert_eq!(daemon.resident_tier(cold), Some(TierRank(0)), "SRAM rank");

        // The app: touch every page of `hot` each 400 µs, ten times.
        // Touches sit between the daemon's 1 ms epoch boundaries, so the
        // promotion window never overlaps a touch.
        let d3 = daemon.clone();
        let touch: Rc<RefCell<Option<HookId>>> = Rc::new(RefCell::new(None));
        let touch2 = Rc::clone(&touch);
        let id = sys.register_hook(move |sys, sim, tick| {
            for p in 0..PAGES {
                let va = hot.offset(u64::from(p) * PAGE.bytes());
                sys.space_mut(space).access(va, AccessKind::Read).unwrap();
            }
            if tick < 10 {
                let hook = touch2.borrow().expect("set before run");
                sim.schedule_after(
                    SimDuration::from_ns(400_000),
                    SimEvent::Hook {
                        hook,
                        arg: tick + 1,
                    },
                );
            } else {
                d3.stop();
            }
        });
        *touch.borrow_mut() = Some(id);
        sim.schedule_after(SimDuration::from_ns(0), SimEvent::Hook { hook: id, arg: 1 });
        sim.run(&mut sys);

        let stats = daemon.stats();
        assert!(stats.epochs >= 3, "epoch loop ran: {stats:?}");
        assert!(stats.promotions >= 1, "hot region promoted: {stats:?}");
        assert!(stats.demotions >= 1, "cold region demoted: {stats:?}");
        assert!(stats.moves_ok >= 2, "moves completed: {stats:?}");
        assert_eq!(
            daemon.resident_tier(hot),
            Some(TierRank(0)),
            "hot now on SRAM: {stats:?}"
        );
        assert_eq!(
            daemon.resident_tier(cold),
            Some(TierRank(1)),
            "cold now on DDR: {stats:?}"
        );
        assert!(!daemon.busy(), "window drained");
    }

    /// A stopped daemon schedules nothing further: the simulation
    /// quiesces even with tracked regions.
    #[test]
    fn stop_quiesces_the_loop() {
        let mut sys = System::keystone_ii();
        let mut sim = Sim::new();
        let space = sys.new_space();
        let base = sys.mmap(space, PAGES, PAGE, NodeId(0)).unwrap();
        let memif = Memif::open(&mut sys, space, MemifConfig::default()).unwrap();
        let daemon =
            PolicyDaemon::launch(&mut sys, &mut sim, memif, space, PolicyConfig::default());
        daemon.track(&sys, base, PAGES, PAGE);
        daemon.stop();
        sim.run(&mut sys);
        assert_eq!(daemon.stats().epochs, 0, "stopped before the first epoch");
    }

    /// On a four-rank ladder with freezing on, a never-touched DRAM
    /// region plunges to the compressed floor via a chained multi-hop
    /// move, with codec work visible on the meter.
    #[test]
    fn frozen_region_sinks_to_the_compressed_floor() {
        let mut sys = System::with_profile(
            memif_hwsim::Topology::ranked(4),
            memif_hwsim::CostModel::keystone_ii(),
        );
        let mut sim = Sim::new();
        let space = sys.new_space();
        // node0 = DRAM, rank 1 on the 4-tier ladder.
        let idle = sys.mmap(space, PAGES, PAGE, NodeId(0)).unwrap();
        let memif = Memif::open(&mut sys, space, MemifConfig::default()).unwrap();
        let cfg = PolicyConfig {
            freeze_permille: 50,
            ..PolicyConfig::default()
        };
        let daemon = PolicyDaemon::launch(&mut sys, &mut sim, memif, space, cfg);
        daemon.track(&sys, idle, PAGES, PAGE);
        assert_eq!(daemon.resident_tier(idle), Some(TierRank(1)));

        // Let a few epochs pass, then stop the loop.
        let d2 = daemon.clone();
        let stopper = sys.register_hook(move |_sys, _sim, _| d2.stop());
        sim.schedule_after(
            SimDuration::from_ns(4_500_000),
            SimEvent::Hook {
                hook: stopper,
                arg: 0,
            },
        );
        sim.run(&mut sys);

        let stats = daemon.stats();
        assert_eq!(daemon.resident_tier(idle), Some(TierRank(3)), "{stats:?}");
        assert!(stats.cascades >= 1, "chained through NVM: {stats:?}");
        assert!(stats.moves_ok >= 1, "{stats:?}");
        let end = sys.space(space).translate(idle).unwrap();
        assert_eq!(sys.node_of(end), Some(NodeId(3)), "zram backs it");
        assert!(
            sys.meter.compress_busy().as_ns() > 0,
            "sinking into zram paid compression"
        );
        assert!(!daemon.busy());
    }
}
