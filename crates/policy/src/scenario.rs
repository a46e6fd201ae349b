//! The phased hot-set evaluation harness (experiment E14).
//!
//! An application streams over a rotating hot subset of a region pool
//! that exceeds the fast node several times over
//! ([`memif_workloads::phased_hot_set`]); each tick it streams one hot
//! region, round-robin, at the bandwidth of whichever node currently
//! backs it. The same application runs under three placement regimes:
//!
//! * [`Mode::None`] — no policy; everything stays on the slow node;
//! * [`Mode::Sync`] — the daemon's decisions, but the application
//!   blocks while moves are in flight (the synchronous `mbind`-style
//!   comparator);
//! * [`Mode::Async`] — the memif thesis: the daemon repairs placement
//!   with background moves while the application keeps computing.
//!
//! Runs are deterministic: identical configurations yield byte-identical
//! event logs, so `memifctl policy --trace-events` round-trips through
//! `memifctl replay` like any move trace.

use std::cell::RefCell;
use std::rc::Rc;

use memif::{
    Context, FaultPlan, HookId, Memif, MemifConfig, NodeId, PageSize, RaceMode, Sim, SimDuration,
    SimEvent, SimTime, System, TierRank, TierUsage, VirtAddr,
};
use memif_hwsim::{CostModel, MemoryKind, Topology};
use memif_mm::AccessKind;
use memif_workloads::{phased_hot_set, tiered_phased_hot_set};

use crate::daemon::{PolicyDaemon, PolicyStats, TierMap};
use crate::PolicyConfig;

/// Placement regime for a scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No placement policy: the pool stays where it was mapped.
    None,
    /// Policy decisions with synchronous migration: the application
    /// parks whenever policy moves are outstanding.
    Sync,
    /// Policy decisions over asynchronous background moves.
    Async,
}

impl Mode {
    /// The mode's stable command-line name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::None => "none",
            Mode::Sync => "sync",
            Mode::Async => "async",
        }
    }

    /// Parses a command-line mode name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(Mode::None),
            "sync" => Some(Mode::Sync),
            "async" => Some(Mode::Async),
            _ => None,
        }
    }
}

/// Everything that defines one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Placement regime.
    pub mode: Mode,
    /// Seed for the phase schedule.
    pub seed: u64,
    /// Regions in the pool.
    pub regions: usize,
    /// Pages per region.
    pub pages_per_region: u32,
    /// Page granularity.
    pub page_size: PageSize,
    /// Phases in the schedule.
    pub phases: usize,
    /// Hot regions per phase.
    pub hot: usize,
    /// Hot regions carried over between phases.
    pub carry: usize,
    /// Application ticks per phase (each streams one hot region).
    pub ticks_per_phase: u32,
    /// Memory tiers on the machine: 2 runs the classic KeyStone II
    /// pair, 3 or 4 the ranked ladder ([`Topology::ranked`]) with NVM
    /// and a compressed floor. Taller machines force
    /// [`PolicyConfig::cascade`] on and default
    /// [`PolicyConfig::freeze_permille`] to 50 when unset, so one
    /// `tiers` knob fully determines the run.
    pub tiers: usize,
    /// Swap the ranked ladder's NVM rank for a CXL-attached DRAM
    /// expander ([`Topology::ranked_cxl`]): DRAM-class read latency
    /// behind a serial link with a steep read/write asymmetry. Only
    /// meaningful with `tiers >= 3`; ignored on the two-tier machine.
    pub cxl: bool,
    /// Tiers the *daemon* manages: 0 means all of them. Fewer gives the
    /// comparison regime — e.g. a classic two-tier policy (top rank +
    /// pool home) running on a four-tier machine.
    pub policy_tiers: usize,
    /// Warm regions per phase ([`memif_workloads::tiered_phased_hot_set`]):
    /// a halo whose first quarter of pages is touched every tick —
    /// enough decayed heat to earn the middle tiers under the
    /// graduated thresholds, never enough for the top rank. Zero
    /// streams hot regions only.
    pub warm: usize,
    /// Daemon tuning.
    pub policy: PolicyConfig,
    /// The daemon's memif instance configuration.
    pub memif: MemifConfig,
    /// Optional chaos plan installed before the run.
    pub faults: Option<FaultPlan>,
    /// Record the typed event log (for tracing/replay).
    pub log_events: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            mode: Mode::Async,
            seed: 42,
            regions: 24,
            pages_per_region: 64, // 256 KiB regions; the pool equals SRAM
            page_size: PageSize::Small4K,
            phases: 6,
            hot: 8,
            carry: 3,
            ticks_per_phase: 32,
            tiers: 2,
            cxl: false,
            policy_tiers: 0,
            warm: 0,
            policy: PolicyConfig::default(),
            memif: MemifConfig {
                // Transparent to the app: racing writes abort the move
                // (read disturbance finalizes harmlessly), and the
                // modern issue path drains policy batches efficiently.
                race_mode: RaceMode::DetectRecover,
                batch_max: 4,
                coalesce: true,
                issue_shards: 2,
                ..MemifConfig::default()
            },
            faults: None,
            log_events: false,
        }
    }
}

/// Measurements from one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The regime that ran.
    pub mode: Mode,
    /// End-to-end application runtime (first tick to last).
    pub wall: SimDuration,
    /// Application ticks executed.
    pub ticks: u64,
    /// Streams served from the top rank (tier 0).
    pub fast_ticks: u64,
    /// Streams served from any lower rank.
    pub slow_ticks: u64,
    /// Streams served per tier rank, indexed by rank.
    pub tier_ticks: Vec<u64>,
    /// Per-tier occupancy and move traffic at the end of the run.
    pub tiers: Vec<TierUsage>,
    /// CPU time spent compressing into the cold floor.
    pub compress_busy: SimDuration,
    /// CPU time spent decompressing out of the cold floor.
    pub decompress_busy: SimDuration,
    /// CPU accesses counted by the address space's sampling layer.
    pub page_touches: u64,
    /// CPU busy fraction over the run (all contexts).
    pub cpu_usage: f64,
    /// Daemon counters (zero in [`Mode::None`]).
    pub policy: PolicyStats,
    /// The daemon device's driver counters (default in [`Mode::None`]).
    pub driver: memif::DriverStats,
    /// JSON-lines event log, when requested.
    pub events: Vec<String>,
    /// `(req_id, terminal status)` of every policy move, log order.
    pub statuses: Vec<(u64, String)>,
}

struct App {
    bases: Vec<VirtAddr>,
    hot_sets: Vec<Vec<usize>>,
    warm_sets: Vec<Vec<usize>>,
    pages: u32,
    page_size: PageSize,
    ticks_per_phase: u32,
    total_ticks: u64,
    fast_ticks: u64,
    slow_ticks: u64,
    tier_ticks: Vec<u64>,
    finished_at: Option<SimTime>,
    hook: Option<HookId>,
}

/// The CPU's streaming bandwidth against a given storage class.
fn stream_bw(cost: &CostModel, kind: Option<MemoryKind>) -> f64 {
    match kind {
        Some(MemoryKind::Fast) => cost.cpu_stream_fast_gbps,
        Some(MemoryKind::Nvm) => cost.cpu_stream_nvm_gbps,
        Some(MemoryKind::Cxl) => cost.cpu_stream_cxl_gbps,
        Some(MemoryKind::Compressed) => cost.cpu_stream_compressed_gbps,
        Some(MemoryKind::Slow) | None => cost.cpu_stream_slow_gbps,
    }
}

/// Runs one scenario to completion and collects the measurements.
///
/// # Panics
///
/// Panics on setup failure (mapping the pool, opening the daemon's
/// memif instance) or if the application never finishes — all
/// impossible with a well-formed configuration.
#[must_use]
pub fn run_scenario(cost: &CostModel, cfg: &ScenarioConfig) -> ScenarioResult {
    let topo = if cfg.tiers <= 2 {
        Topology::keystone_ii()
    } else if cfg.cxl {
        Topology::ranked_cxl(cfg.tiers)
    } else {
        Topology::ranked(cfg.tiers)
    };
    let mut sys = System::with_profile(topo, cost.clone());
    if cfg.log_events {
        sys.enable_event_log();
    }
    let mut sim = Sim::new();
    if let Some(plan) = cfg.faults.clone() {
        sys.install_faults(&mut sim, plan);
    }

    // The pool's home: the lowest non-compressed rank (DDR on KeyStone,
    // NVM on the ranked ladders). The compressed floor is policy-only
    // territory — nothing is mapped there directly.
    let tier_count = sys.topo.tier_count();
    let home = (0..tier_count)
        .rev()
        .filter_map(|t| sys.topo.node_of_tier(TierRank(t as u16)))
        .find(|n| !n.kind.is_compressed())
        .map(|n| n.id)
        .expect("a ladder has an uncompressed rank");

    let space = sys.new_space();
    sys.space_mut(space).enable_sampling();
    let bases: Vec<VirtAddr> = (0..cfg.regions)
        .map(|_| {
            sys.mmap(space, cfg.pages_per_region, cfg.page_size, home)
                .expect("home node holds the pool")
        })
        .collect();
    let (hot_sets, warm_sets) = if cfg.warm > 0 {
        let s = tiered_phased_hot_set(
            cfg.seed,
            cfg.regions,
            cfg.phases,
            cfg.hot,
            cfg.carry,
            cfg.warm,
        );
        (s.hot, s.warm)
    } else {
        let s = phased_hot_set(cfg.seed, cfg.regions, cfg.phases, cfg.hot, cfg.carry);
        (s.phases, vec![Vec::new(); cfg.phases])
    };

    let mut policy_cfg = cfg.policy.clone();
    if cfg.tiers > 2 {
        // One knob determines the run: taller machines always cascade,
        // freeze to the compressed floor, and grade their promotion
        // bars unless explicitly tuned — the lower ranks promote at a
        // third of the global bar, so the warm halo's steady heat earns
        // DRAM without ever earning SRAM.
        policy_cfg.cascade = true;
        if policy_cfg.freeze_permille == 0 {
            policy_cfg.freeze_permille = 50;
        }
        if policy_cfg.tier_overrides.is_empty() {
            let eased = crate::TierTuning {
                promote_permille: Some(policy_cfg.promote_permille / 2),
                ..crate::TierTuning::default()
            };
            policy_cfg.tier_overrides = (0..cfg.tiers)
                .map(|t| {
                    if t >= 2 {
                        eased
                    } else {
                        crate::TierTuning::default()
                    }
                })
                .collect();
        }
    }
    let policy_tiers = if cfg.policy_tiers == 0 {
        tier_count
    } else {
        cfg.policy_tiers
    };
    let daemon = match cfg.mode {
        Mode::None => None,
        Mode::Sync | Mode::Async => {
            let memif = Memif::open(&mut sys, space, cfg.memif.clone()).expect("daemon instance");
            let d = if policy_tiers >= tier_count {
                PolicyDaemon::launch(&mut sys, &mut sim, memif, space, policy_cfg)
            } else {
                // The comparison regime: a shorter ladder (top ranks
                // plus the pool's home) on the same machine.
                let mut nodes: Vec<NodeId> = (0..policy_tiers.saturating_sub(1))
                    .filter_map(|t| sys.topo.node_of_tier(TierRank(t as u16)))
                    .map(|n| n.id)
                    .collect();
                nodes.push(home);
                let map = TierMap::of_nodes(&sys.topo, &nodes);
                PolicyDaemon::launch_with_tiers(&mut sys, &mut sim, memif, space, policy_cfg, map)
            };
            for &b in &bases {
                d.track(&sys, b, cfg.pages_per_region, cfg.page_size);
            }
            Some(d)
        }
    };
    let app = Rc::new(RefCell::new(App {
        bases,
        hot_sets,
        warm_sets,
        pages: cfg.pages_per_region,
        page_size: cfg.page_size,
        ticks_per_phase: cfg.ticks_per_phase,
        total_ticks: u64::from(cfg.ticks_per_phase) * cfg.phases as u64,
        fast_ticks: 0,
        slow_ticks: 0,
        tier_ticks: vec![0; tier_count],
        finished_at: None,
        hook: None,
    }));

    let sync_gate = cfg.mode == Mode::Sync;
    let app2 = Rc::clone(&app);
    let daemon2 = daemon.clone();
    let hook = sys.register_hook(move |sys, sim, tick| {
        let hook = app2.borrow().hook.expect("set before scheduling");
        if tick >= app2.borrow().total_ticks {
            app2.borrow_mut().finished_at = Some(sim.now());
            if let Some(d) = &daemon2 {
                d.stop();
            }
            return;
        }
        // Synchronous comparator: placement repair blocks the app.
        if sync_gate {
            if let Some(d) = &daemon2 {
                if d.busy() {
                    d.when_idle(sim, SimEvent::Hook { hook, arg: tick });
                    return;
                }
            }
        }
        let (hot_base, warm_bases, pages, page_size) = {
            let a = app2.borrow();
            let phase = (tick / u64::from(a.ticks_per_phase)) as usize;
            let hot = &a.hot_sets[phase];
            let slot = hot[(tick % u64::from(a.ticks_per_phase)) as usize % hot.len()];
            let warm: Vec<VirtAddr> = a.warm_sets[phase].iter().map(|&w| a.bases[w]).collect();
            (a.bases[slot], warm, a.pages, a.page_size)
        };
        // Stream each region: pages referenced (clearing young, feeding
        // the sampling layer), priced at the backing storage class's
        // bandwidth. The hot region streams whole; the warm halo's
        // regions stream their first quarter each.
        let mut d = SimDuration::from_ns(0);
        let quarter = (pages / 4).max(1);
        for (base, touched) in
            std::iter::once((hot_base, pages)).chain(warm_bases.iter().map(|&b| (b, quarter)))
        {
            for p in 0..touched {
                let va = base.offset(u64::from(p) * page_size.bytes());
                let _ = sys.space_mut(space).access(va, AccessKind::Read);
            }
            let node = sys
                .space(space)
                .translate(base)
                .and_then(|pa| sys.node_of(pa));
            let kind = node.and_then(|n| {
                sys.topo
                    .all_nodes()
                    .iter()
                    .find(|m| m.id == n)
                    .map(|m| m.kind)
            });
            let rank = node
                .and_then(|n| sys.topo.tier_of(n))
                .unwrap_or_else(|| sys.topo.max_tier());
            {
                let mut a = app2.borrow_mut();
                if rank.0 == 0 {
                    a.fast_ticks += 1;
                } else {
                    a.slow_ticks += 1;
                }
                a.tier_ticks[rank.0 as usize] += 1;
            }
            let bytes = u64::from(touched) * page_size.bytes();
            d += SimDuration::for_bytes(bytes, stream_bw(&sys.cost, kind));
        }
        sys.meter.charge(Context::App, d);
        sim.schedule_after(
            d,
            SimEvent::Hook {
                hook,
                arg: tick + 1,
            },
        );
    });
    app.borrow_mut().hook = Some(hook);
    sim.schedule_after(SimDuration::from_ns(0), SimEvent::Hook { hook, arg: 0 });

    sim.run(&mut sys);

    let a = app.borrow();
    let finished = a.finished_at.expect("application ran to completion");
    let wall = finished.since(SimTime::ZERO);
    let policy = daemon.as_ref().map(PolicyDaemon::stats).unwrap_or_default();
    let (driver, statuses) = match &daemon {
        Some(_) => {
            // The daemon's instance is the only device in the system.
            let dev = sys
                .device(memif::DeviceId(0))
                .expect("daemon device stays open");
            (
                dev.stats.clone(),
                dev.log
                    .iter()
                    .map(|r| (r.req_id, format!("{:?}", r.status)))
                    .collect(),
            )
        }
        None => (memif::DriverStats::default(), Vec::new()),
    };
    let page_touches = sys.space_mut(space).take_sampled_accesses();
    ScenarioResult {
        mode: cfg.mode,
        wall,
        ticks: a.total_ticks,
        fast_ticks: a.fast_ticks,
        slow_ticks: a.slow_ticks,
        tier_ticks: a.tier_ticks.clone(),
        tiers: sys.tier_usage(),
        compress_busy: sys.meter.compress_busy(),
        decompress_busy: sys.meter.decompress_busy(),
        page_touches,
        cpu_usage: sys.meter.cpu_busy().as_ns() as f64 / wall.as_ns().max(1) as f64,
        policy,
        driver,
        events: sys.take_event_log(),
        statuses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mode: Mode) -> ScenarioConfig {
        ScenarioConfig {
            mode,
            phases: 3,
            ticks_per_phase: 16,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn no_policy_stays_on_the_slow_node() {
        let r = run_scenario(&CostModel::keystone_ii(), &quick(Mode::None));
        assert_eq!(r.fast_ticks, 0);
        assert_eq!(r.slow_ticks, r.ticks);
        assert_eq!(r.policy, PolicyStats::default());
        assert!(r.page_touches >= r.ticks * 64, "sampling layer counted");
    }

    #[test]
    fn async_policy_moves_compute_to_the_fast_node() {
        let none = run_scenario(&CostModel::keystone_ii(), &quick(Mode::None));
        let r = run_scenario(&CostModel::keystone_ii(), &quick(Mode::Async));
        assert!(r.policy.promotions > 0, "promotions issued: {:?}", r.policy);
        assert!(r.fast_ticks > 0, "some ticks ran from SRAM");
        assert!(
            r.wall < none.wall,
            "policy beats no policy: {:?} vs {:?}",
            r.wall,
            none.wall
        );
    }

    #[test]
    fn async_beats_sync_migration() {
        let sync = run_scenario(&CostModel::keystone_ii(), &quick(Mode::Sync));
        let async_ = run_scenario(&CostModel::keystone_ii(), &quick(Mode::Async));
        assert!(
            async_.wall < sync.wall,
            "overlap wins: async {:?} vs sync {:?}",
            async_.wall,
            sync.wall
        );
    }

    #[test]
    fn identical_configs_replay_byte_identically() {
        let cfg = ScenarioConfig {
            log_events: true,
            ..quick(Mode::Async)
        };
        let a = run_scenario(&CostModel::keystone_ii(), &cfg);
        let b = run_scenario(&CostModel::keystone_ii(), &cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.statuses, b.statuses);
        assert_eq!(a.wall, b.wall);
    }

    fn waterfall(mode: Mode) -> ScenarioConfig {
        ScenarioConfig {
            mode,
            tiers: 4,
            warm: 6,
            phases: 3,
            ticks_per_phase: 16,
            ..ScenarioConfig::default()
        }
    }

    /// On the four-rank ladder the waterfall spreads the pool across
    /// tiers: hot streams reach the top, frozen leftovers sink to the
    /// compressed floor and pay visible codec time.
    #[test]
    fn four_tier_waterfall_spreads_the_pool() {
        let r = run_scenario(&CostModel::keystone_ii(), &waterfall(Mode::Async));
        assert_eq!(r.tier_ticks.len(), 4);
        assert!(
            r.fast_ticks > 0,
            "hot work reached tier 0: {:?}",
            r.tier_ticks
        );
        assert!(r.policy.promotions > 0 && r.policy.demotions > 0);
        assert!(
            r.tiers
                .iter()
                .any(|t| t.kind == "compressed" && t.used_bytes > 0),
            "frozen regions reached the floor: {:?}",
            r.tiers
        );
        assert!(
            r.compress_busy.as_ns() > 0,
            "compression work was priced and attributed"
        );
        let none = run_scenario(&CostModel::keystone_ii(), &waterfall(Mode::None));
        assert!(r.wall < none.wall, "waterfall beats no policy");
    }

    /// The CXL ladder keeps the waterfall shape — ticks still reach the
    /// top rank and the expander rank exists — and the expander's
    /// DRAM-class read bandwidth shows: the *no-policy* baseline is
    /// much faster on CXL than on the NVM ladder, which is exactly why
    /// the placement win narrows on expander-backed pools.
    #[test]
    fn cxl_ladder_keeps_the_waterfall_and_speeds_the_baseline() {
        let cfg = ScenarioConfig {
            cxl: true,
            ..waterfall(Mode::Async)
        };
        let r = run_scenario(&CostModel::keystone_ii(), &cfg);
        assert!(
            r.tiers.iter().any(|t| t.kind == "cxl"),
            "the expander rank exists: {:?}",
            r.tiers
        );
        assert!(r.fast_ticks > 0 && r.policy.promotions > 0);
        let none_cxl = run_scenario(
            &CostModel::keystone_ii(),
            &ScenarioConfig {
                cxl: true,
                ..waterfall(Mode::None)
            },
        );
        let none_nvm = run_scenario(&CostModel::keystone_ii(), &waterfall(Mode::None));
        assert!(
            none_cxl.wall < none_nvm.wall,
            "expander reads beat NVM reads: {:?} vs {:?}",
            none_cxl.wall,
            none_nvm.wall
        );
    }

    /// Four-tier runs replay byte-identically too — chained floor
    /// plunges, cascade retries, codec charges and all.
    #[test]
    fn four_tier_runs_replay_byte_identically() {
        let cfg = ScenarioConfig {
            log_events: true,
            ..waterfall(Mode::Async)
        };
        let a = run_scenario(&CostModel::keystone_ii(), &cfg);
        let b = run_scenario(&CostModel::keystone_ii(), &cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.statuses, b.statuses);
        assert_eq!(a.wall, b.wall);
    }
}
