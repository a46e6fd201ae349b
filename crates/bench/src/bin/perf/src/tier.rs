//! `tier4_policy`: the placement daemon over a four-tier waterfall.
//!
//! An application streams a seed-drawn phased hot set out of a 48-region
//! pool homed on NVM: each tick reads one hot region whole and the first
//! quarter of every warm region, priced at the bandwidth of whichever
//! tier backs it. `PolicyDaemon` samples reference bits every 4 ms and
//! cascades regions up and down SRAM / DRAM / NVM / compressed floor
//! with background moves. The application's own callback is `perf`'s.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use memif::{
    Context, HookId, Memif, MoveStatus, NodeId, PageSize, Sim, SimDuration, SimEvent, SimTime,
    System, VirtAddr,
};
use memif_hwsim::{CostModel, MemoryKind, Topology};
use memif_mm::AccessKind;
use memif_policy::{PolicyConfig, PolicyDaemon, TierTuning};

use crate::rng::Rng;
use crate::stream::{layer_counters, machine, sim_clock};
use crate::{memif_config, scaled, trace, Round, Workload};

const REGIONS: usize = 48;
const PAGES: u32 = 64;
const PAGE: PageSize = PageSize::Small4K;
const HOT: usize = 4;
const WARM: usize = 24;
/// Hot regions kept from one phase to the next.
const CARRY: usize = 2;
const TICKS_PER_PHASE: u32 = 32;
/// The pool's home: the NVM rank.
const HOME: NodeId = NodeId(2);

pub struct Tier {
    phases: usize,
}

/// SRAM 6 MiB, DRAM 24 MiB, NVM 512 MiB and a 1 GiB compressed floor:
/// hot plus warm exceed SRAM, so placement faces real capacity pressure
/// on every rank.
fn ladder() -> Topology {
    machine(&[
        ("dram", MemoryKind::Slow, 1, 0x8_0000_0000, 24 << 20, 6.2),
        ("sram", MemoryKind::Fast, 0, 0x0C00_0000, 6 << 20, 24.0),
        ("nvm", MemoryKind::Nvm, 2, 0x10_0000_0000, 512 << 20, 6.2),
        (
            "zram",
            MemoryKind::Compressed,
            3,
            0x20_0000_0000,
            1 << 30,
            6.2,
        ),
    ])
}

/// The waterfall daemon: cascades on, regions at or below 5% heat
/// freeze straight to the floor, and the lower ranks promote at half
/// the global bar so the warm halo earns DRAM without earning SRAM.
fn policy() -> PolicyConfig {
    let base = PolicyConfig::default();
    let eased = TierTuning {
        promote_permille: Some(base.promote_permille / 2),
        ..TierTuning::default()
    };
    PolicyConfig {
        epoch: SimDuration::from_ns(4_000_000),
        cascade: true,
        freeze_permille: 50,
        tier_overrides: (0..4)
            .map(|t| if t >= 2 { eased } else { TierTuning::default() })
            .collect(),
        ..base
    }
}

/// Per phase, the hot regions (keeping `CARRY` of the previous phase's)
/// and the warm regions drawn from the rest.
fn schedule(seed: u64, phases: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut rng = Rng::new(seed, 1);
    let mut out: Vec<(Vec<usize>, Vec<usize>)> = Vec::with_capacity(phases);
    for p in 0..phases {
        let mut hot = Vec::with_capacity(HOT);
        if p > 0 {
            let mut prev = out[p - 1].0.clone();
            for _ in 0..CARRY {
                hot.push(prev.swap_remove(rng.below(prev.len() as u64) as usize));
            }
        }
        let mut rest: Vec<usize> = (0..REGIONS).filter(|r| !hot.contains(r)).collect();
        while hot.len() < HOT {
            hot.push(rest.swap_remove(rng.below(rest.len() as u64) as usize));
        }
        let mut warm = Vec::with_capacity(WARM);
        for _ in 0..WARM {
            warm.push(rest.swap_remove(rng.below(rest.len() as u64) as usize));
        }
        out.push((hot, warm));
    }
    out
}

struct App {
    bases: Vec<VirtAddr>,
    schedule: Vec<(Vec<usize>, Vec<usize>)>,
    ticks: u64,
    bytes_read: u64,
    /// Region streams served per tier rank.
    rank_streams: [u64; 4],
    access_faults: u64,
    finished_at: Option<SimTime>,
}

/// The CPU's streaming bandwidth out of a storage class.
fn stream_gbps(cost: &CostModel, kind: Option<MemoryKind>) -> f64 {
    match kind {
        Some(MemoryKind::Fast) => cost.cpu_stream_fast_gbps,
        Some(MemoryKind::Nvm) => cost.cpu_stream_nvm_gbps,
        Some(MemoryKind::Cxl) => cost.cpu_stream_cxl_gbps,
        Some(MemoryKind::Compressed) => cost.cpu_stream_compressed_gbps,
        Some(MemoryKind::Slow) | None => cost.cpu_stream_slow_gbps,
    }
}

impl Tier {
    /// 1,200 phases of 32 ticks each at full size.
    pub fn new(scale: f64) -> Self {
        Tier {
            phases: scaled(1_200, scale) as usize,
        }
    }

    pub fn round(&self, seed: u64, traced: bool) -> Round {
        let setup = Instant::now();
        let mut sys = System::with_profile(ladder(), CostModel::keystone_ii());
        let mut sim = Sim::new();
        let space = sys.new_space();
        sys.space_mut(space).enable_sampling();
        let bases: Vec<VirtAddr> = (0..REGIONS)
            .map(|_| {
                sys.mmap(space, PAGES, PAGE, HOME)
                    .expect("NVM holds the pool")
            })
            .collect();
        let memif = Memif::open(&mut sys, space, memif_config(Workload::Tier4Policy))
            .expect("daemon device opens");
        let daemon = PolicyDaemon::launch(&mut sys, &mut sim, memif, space, policy());
        for &b in &bases {
            daemon.track(&sys, b, PAGES, PAGE);
        }
        let total = self.phases as u64 * u64::from(TICKS_PER_PHASE);
        let app = Rc::new(RefCell::new(App {
            bases,
            schedule: schedule(seed, self.phases),
            ticks: 0,
            bytes_read: 0,
            rank_streams: [0; 4],
            access_faults: 0,
            finished_at: None,
        }));
        let self_hook: Rc<Cell<Option<HookId>>> = Rc::default();
        let hook = {
            let (app, daemon, self_hook) = (Rc::clone(&app), daemon.clone(), Rc::clone(&self_hook));
            sys.register_hook(move |sys, sim, tick| {
                if tick >= total {
                    app.borrow_mut().finished_at = Some(sim.now());
                    daemon.stop();
                    return;
                }
                let mut a = app.borrow_mut();
                a.ticks += 1;
                let (hot, warm) = &a.schedule[(tick / u64::from(TICKS_PER_PHASE)) as usize];
                let streams: Vec<(VirtAddr, u32)> =
                    std::iter::once((a.bases[hot[(tick % HOT as u64) as usize]], PAGES))
                        .chain(warm.iter().map(|&w| (a.bases[w], PAGES / 4)))
                        .collect();
                let mut busy = SimDuration::from_ns(0);
                for (base, pages) in streams {
                    for p in 0..pages {
                        let va = base.offset(u64::from(p) * PAGE.bytes());
                        let read = trace::span("mm.access", || {
                            sys.space_mut(space).access(va, AccessKind::Read)
                        });
                        a.access_faults += u64::from(read.is_err());
                    }
                    let node = sys
                        .space(space)
                        .translate(base)
                        .and_then(|pa| sys.node_of(pa));
                    let rank = node.and_then(|n| sys.topo.tier_of(n)).map_or(3, |r| r.0);
                    a.rank_streams[usize::from(rank).min(3)] += 1;
                    let kind = node.and_then(|n| sys.topo.node(n)).map(|n| n.kind);
                    let bytes = u64::from(pages) * PAGE.bytes();
                    a.bytes_read += bytes;
                    busy += SimDuration::for_bytes(bytes, stream_gbps(&sys.cost, kind));
                }
                sys.meter.charge(Context::App, busy);
                let hook = self_hook.get().expect("set before the first tick");
                sim.schedule_after(
                    busy,
                    SimEvent::Hook {
                        hook,
                        arg: tick + 1,
                    },
                );
            })
        };
        self_hook.set(Some(hook));
        let setup_s = setup.elapsed().as_secs_f64();

        let start = Instant::now();
        sim.schedule_after(SimDuration::from_ns(0), SimEvent::Hook { hook, arg: 0 });
        trace::drive(&mut sys, &mut sim, traced, Some(hook));
        let host_s = start.elapsed().as_secs_f64();

        let a = app.borrow();
        let dev = sys
            .device(memif.device())
            .expect("daemon device stays open");
        let stats = daemon.stats();
        let mut problems = Vec::new();
        let streams: u64 = a.rank_streams.iter().sum();
        let tick_bytes = u64::from(PAGES + WARM as u32 * (PAGES / 4)) * PAGE.bytes();
        if a.ticks != total
            || streams != total * (1 + WARM as u64)
            || a.bytes_read != total * tick_bytes
            || a.finished_at.is_none()
        {
            problems.push(format!(
                "{} of {total} ticks, {streams} region streams and {} bytes ran",
                a.ticks, a.bytes_read
            ));
        }
        if a.access_faults > 0 {
            problems.push(format!("{} application reads faulted", a.access_faults));
        }
        let failed = dev
            .log
            .iter()
            .filter(|r| r.status != MoveStatus::Done)
            .count() as u64;
        if stats.moves_failed != 0 || failed != 0 || daemon.busy() {
            problems.push(format!(
                "policy moves: {failed} not done, {} failed, busy at the end: {}",
                stats.moves_failed,
                daemon.busy()
            ));
        }
        for &b in &a.bases {
            let rank = sys
                .space(space)
                .translate(b)
                .and_then(|pa| sys.node_of(pa))
                .and_then(|n| sys.topo.tier_of(n));
            if rank != daemon.resident_tier(b) {
                problems.push(format!(
                    "region {b}: mapped on rank {rank:?}, daemon believes {:?}",
                    daemon.resident_tier(b)
                ));
            }
        }
        let mut lat: Vec<u64> = dev.log.iter().map(|r| r.latency().as_ns()).collect();
        let wall_ns = a.finished_at.unwrap_or(sim.now()).as_ns();
        let mut counters = layer_counters(&sys, &sim, memif);
        let clock = sim_clock(&sys, wall_ns, a.bytes_read, &mut lat, &mut counters);
        counters.extend([
            ("policy.epochs", stats.epochs as f64),
            ("policy.pages_scanned", stats.pages_scanned as f64),
            ("policy.promotions", stats.promotions as f64),
            ("policy.demotions", stats.demotions as f64),
            ("policy.cascades", stats.cascades as f64),
            ("policy.dropped", stats.dropped as f64),
            ("policy.moves_failed", stats.moves_failed as f64),
            (
                "tier.fast_share",
                (a.rank_streams[0] + a.rank_streams[1]) as f64 / streams.max(1) as f64,
            ),
            (
                "meter.codec_ms",
                (sys.meter.compress_busy() + sys.meter.decompress_busy()).as_ns() as f64 / 1e6,
            ),
        ]);
        Round {
            setup_s,
            host_s,
            attempted: dev.log.len() as u64,
            failed,
            clock,
            simulated: true,
            counters,
            problems,
        }
    }
}
