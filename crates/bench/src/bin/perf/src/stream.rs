//! Closed-loop move streams: `mig4k_wide`, `nvm16_journal`, `qos_bully`.
//!
//! Each caller class is one application thread that keeps a fixed window
//! of migrations in flight over its own pool of regions: it sends its
//! next request as soon as it retrieves a completion. It visits the
//! regions in a seed-permuted cycle and ping-pongs each between node 0
//! and node 1.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use memif::{
    Completion, Memif, MemifConfig, MoveSpec, NodeId, PageSize, Phase, Sim, SimTime, System,
    TenantConfig, TenantId, VirtAddr,
};
use memif_hwsim::{CostModel, MemoryKind, MemoryNode, PhysAddr, TierRank, Topology};

use crate::metrics::percentile;
use crate::rng::Rng;
use crate::{memif_config, scaled, trace, Round, Workload};

/// One class of identical closed-loop callers sharing the device.
#[derive(Clone)]
struct Caller {
    tenant: TenantId,
    /// QoS registration (QoS-enabled devices only).
    qos: Option<TenantConfig>,
    pages: u32,
    page_size: PageSize,
    window: usize,
    pool: usize,
    /// Completions after which the class stops. `None` marks the
    /// antagonist: it streams until every other class has finished, and
    /// its latencies are not the workload's.
    target: Option<u64>,
}

/// A stream workload: the machine, the device and the callers.
pub struct Stream {
    topo: Topology,
    memif: MemifConfig,
    callers: Vec<Caller>,
}

/// One memory bank: name, kind, tier rank, physical base, bytes, GB/s.
pub type Bank = (&'static str, MemoryKind, u16, u64, u64, f64);

/// A four-CPU machine of `banks`, node ids in order. Node 0 is the boot
/// bank; the others come online after boot.
pub fn machine(banks: &[Bank]) -> Topology {
    let nodes = banks
        .iter()
        .enumerate()
        .map(|(id, &(name, kind, tier, base, bytes, gbps))| MemoryNode {
            id: NodeId(id as u16),
            name: name.to_owned(),
            kind,
            tier: TierRank(tier),
            base: PhysAddr::new(base),
            bytes,
            bandwidth_gbps: gbps,
            boot_visible: id == 0,
        })
        .collect();
    Topology::must_custom(nodes, 4)
}

const DDR3: Bank = ("ddr3", MemoryKind::Slow, 1, 0x8_0000_0000, 8 << 30, 6.2);

/// Two 8 GiB banks at KeyStone II bandwidths: the whole 262,144-region
/// pool fits on either side of the ping-pong.
fn twin_banks() -> Topology {
    machine(&[
        DDR3,
        (
            "fast-bank",
            MemoryKind::Fast,
            0,
            0x20_0000_0000,
            8 << 30,
            24.0,
        ),
    ])
}

/// DDR3 plus a persistent NVM bank with its slower write pipe.
fn ddr_nvm() -> Topology {
    machine(&[
        ("ddr3", MemoryKind::Slow, 0, 0x8_0000_0000, 8 << 30, 6.2),
        ("nvm", MemoryKind::Nvm, 1, 0x10_0000_0000, 1 << 30, 6.2),
    ])
}

/// KeyStone II bandwidths with a 256 MiB fast bank.
fn ddr_fast() -> Topology {
    machine(&[
        DDR3,
        (
            "fast-bank",
            MemoryKind::Fast,
            0,
            0x0C00_0000,
            256 << 20,
            24.0,
        ),
    ])
}

/// A single root-tenant class of `count` 4 KiB-page migrations.
fn solo(pages: u32, window: usize, pool: usize, count: u64) -> Caller {
    Caller {
        tenant: TenantId::ROOT,
        qos: None,
        pages,
        page_size: PageSize::Small4K,
        window,
        pool,
        target: Some(count),
    }
}

impl Stream {
    /// Single-page migrations over a pool of 262,144 regions, window 64.
    pub fn mig4k_wide(scale: f64) -> Self {
        let count = scaled(400_000, scale);
        let pool = 262_144.min(count as usize);
        Stream {
            topo: twin_banks(),
            memif: memif_config(Workload::Mig4kWide),
            callers: vec![solo(1, 64, pool, count)],
        }
    }

    /// 64 KiB migrations between DDR and NVM through the journaled,
    /// batched, coalescing issue path; window 16 over 16 regions.
    pub fn nvm16_journal(scale: f64) -> Self {
        Stream {
            topo: ddr_nvm(),
            memif: memif_config(Workload::Nvm16Journal),
            callers: vec![solo(16, 16, 16, scaled(100_000, scale))],
        }
    }

    /// Four 1 MiB interactive tenants against a 512 KiB bully under QoS.
    pub fn qos_bully(scale: f64) -> Self {
        let tenant = |id, weight, inflight_cap, pages, window, target| Caller {
            tenant: TenantId(id),
            qos: Some(TenantConfig {
                weight,
                inflight_cap,
                ..TenantConfig::default()
            }),
            pages,
            page_size: PageSize::Medium64K,
            window,
            pool: window,
            target,
        };
        let target = Some(scaled(20_000, scale));
        let mut callers: Vec<Caller> = (1..=4)
            .map(|id| tenant(id, 4, None, 16, 1, target))
            .collect();
        // Admission grants the bully one engine slot at a time.
        callers.push(tenant(99, 1, Some(1), 8, 32, None));
        Stream {
            topo: ddr_fast(),
            memif: memif_config(Workload::QosBully),
            callers,
        }
    }

    /// One round: set up the machine, run the stream to completion,
    /// check it.
    pub fn round(&self, seed: u64, traced: bool) -> Round {
        let setup = Instant::now();
        let mut sys = System::with_profile(self.topo.clone(), CostModel::keystone_ii());
        let mut sim = Sim::new();
        let space = sys.new_space();
        let memif = Memif::open(&mut sys, space, self.memif.clone()).expect("device opens");
        let mut inputs = Rng::new(seed, 1);
        let callers: Vec<CallerState> = self
            .callers
            .iter()
            .map(|c| {
                if let Some(cfg) = c.qos {
                    sys.qos.register(c.tenant, cfg);
                }
                let regions = (0..c.pool)
                    .map(|_| {
                        sys.mmap(space, c.pages, c.page_size, NodeId(0))
                            .expect("node 0 holds the pool")
                    })
                    .collect();
                CallerState {
                    plan: c.clone(),
                    regions,
                    node: vec![NodeId(0); c.pool],
                    order: inputs.permutation(c.pool),
                    submitted: 0,
                    completed: 0,
                    bytes: 0,
                    submit_at: Vec::new(),
                    lat_ns: Vec::new(),
                }
            })
            .collect();
        let state = Rc::new(RefCell::new(Loop {
            memif,
            callers,
            outstanding: 0,
            stop: false,
            finished_at: None,
            failed: 0,
            problems: Vec::new(),
        }));
        let setup_s = setup.elapsed().as_secs_f64();

        let start = Instant::now();
        for (class, c) in self.callers.iter().enumerate() {
            for _ in 0..c.window {
                submit_next(&state, class, &mut sys, &mut sim);
            }
        }
        pump(Rc::clone(&state), &mut sys, &mut sim);
        trace::drive(&mut sys, &mut sim, traced, None);
        let host_s = start.elapsed().as_secs_f64();

        let mut l = state.borrow_mut();
        let Loop {
            memif,
            callers,
            finished_at,
            failed,
            problems,
            ..
        } = &mut *l;
        check(&sys, space, *memif, callers, problems);
        let stats = &sys.device(memif.device()).expect("device stays open").stats;
        // The run ends when the last targeted class retrieves its last
        // completion.
        let wall_ns = finished_at.unwrap_or(sim.now()).as_ns();
        let mut lat: Vec<u64> = callers
            .iter()
            .flat_map(|c| c.lat_ns.iter().copied())
            .collect();
        // The worst single tenant, on a QoS device only.
        let worst_good_p99 = callers
            .iter()
            .filter(|c| self.memif.qos && c.plan.target.is_some())
            .map(|c| percentile(&mut c.lat_ns.clone(), 0.99))
            .max()
            .unwrap_or(0);
        let bytes = |targeted: bool| -> u64 {
            callers
                .iter()
                .filter(|c| c.plan.target.is_some() == targeted)
                .map(|c| c.bytes)
                .sum()
        };
        let mut counters = layer_counters(&sys, &sim, *memif);
        counters.extend([
            ("qos.parked", stats.requests_parked as f64),
            ("qos.readmitted", stats.requests_readmitted as f64),
            ("qos.bully_gb", bytes(false) as f64 / 1e9),
            ("qos.worst_good_p99_us", worst_good_p99 as f64 / 1e3),
        ]);
        Round {
            setup_s,
            host_s,
            attempted: callers.iter().map(|c| c.submitted).sum(),
            failed: *failed,
            clock: sim_clock(&sys, wall_ns, bytes(true), &mut lat, &mut counters),
            simulated: true,
            counters,
            problems: std::mem::take(problems),
        }
    }
}

/// A simulated round's end-to-end values — `sim_gbps` (the workload's
/// `bytes` over its wall time) and `sim_cpu_util` — and, added to
/// `counters`, its wall time and latency percentiles.
pub fn sim_clock(
    sys: &System,
    wall_ns: u64,
    bytes: u64,
    lat: &mut [u64],
    counters: &mut Vec<(&'static str, f64)>,
) -> Vec<f64> {
    counters.extend([
        ("sim.wall_ms", wall_ns as f64 / 1e6),
        ("sim.lat_p50_us", percentile(lat, 0.50) as f64 / 1e3),
        ("sim.lat_p99_us", percentile(lat, 0.99) as f64 / 1e3),
    ]);
    let wall = wall_ns.max(1) as f64;
    vec![bytes as f64 / wall, sys.meter.cpu_busy().as_ns() as f64 / wall]
}

/// The scheduler's, driver's, DMA engine's, mm phases' and journal's
/// counters after a run of `memif`'s device; simulated costs are per
/// retired request.
pub fn layer_counters(sys: &System, sim: &Sim<System>, memif: Memif) -> Vec<(&'static str, f64)> {
    let dev = sys.device(memif.device()).expect("device stays open");
    let stats = &dev.stats;
    let retired = dev.log.len().max(1) as f64;
    let per_req = |phase| stats.phases.get(phase).as_ns() as f64 / retired;
    let copy_ns: u64 = dev
        .log
        .iter()
        .filter_map(|r| r.dma_started_at.map(|s| r.completed_at.since(s).as_ns()))
        .sum();
    let dma = sys.dma.stats();
    let journal = sys.journal().records();
    vec![
        ("sched.events", sim.executed() as f64),
        ("sched.cancelled", sim.cancelled() as f64),
        ("sched.peak_pending", sim.peak_pending() as f64),
        ("driver.ioctls", stats.ioctls as f64),
        ("driver.interrupts", stats.interrupts as f64),
        ("driver.polled", stats.polled as f64),
        ("driver.wakeups", stats.kthread_wakeups as f64),
        ("driver.batched", stats.requests_batched as f64),
        ("driver.deferred", stats.requests_deferred as f64),
        ("driver.rearm_saved", stats.timer_rearm_saved as f64),
        ("driver.retries", stats.retries as f64),
        ("driver.notify_sim_ns", per_req(Phase::Notify)),
        ("dma.descriptors_written", stats.descriptors_written as f64),
        ("dma.writes_saved", stats.descriptor_writes_saved as f64),
        ("dma.segments_coalesced", stats.segments_coalesced as f64),
        (
            "dma.reuse_ratio",
            dma.reuse_configs as f64 / (dma.reuse_configs + dma.full_configs).max(1) as f64,
        ),
        ("dma.cfg_sim_ns", per_req(Phase::DmaConfig)),
        ("dma.copy_sim_ns", copy_ns as f64 / retired),
        ("mm.prep_sim_ns", per_req(Phase::Prep)),
        ("mm.remap_sim_ns", per_req(Phase::Remap)),
        ("mm.release_sim_ns", per_req(Phase::Release)),
        ("api.interface_sim_ns", per_req(Phase::Interface)),
        ("journal.records", journal.len() as f64),
        (
            "journal.unsealed",
            journal.iter().filter(|r| r.sealed.is_none()).count() as f64,
        ),
    ]
}

struct CallerState {
    plan: Caller,
    regions: Vec<VirtAddr>,
    /// Where each region will be once every submitted move has landed.
    node: Vec<NodeId>,
    /// The seed-permuted cycle the class visits its regions in.
    order: Vec<u32>,
    submitted: u64,
    completed: u64,
    bytes: u64,
    /// Submit instant (ns) per cookie sequence number; `u64::MAX` once
    /// the cookie's completion has been retrieved.
    submit_at: Vec<u64>,
    /// Submit-to-retrieve latencies (the antagonist records none).
    lat_ns: Vec<u64>,
}

impl CallerState {
    fn may_submit(&self, stop: bool) -> bool {
        match self.plan.target {
            Some(t) => self.submitted < t,
            None => !stop,
        }
    }
}

struct Loop {
    memif: Memif,
    callers: Vec<CallerState>,
    /// Requests in flight.
    outstanding: u64,
    /// Set once every targeted class has finished: the antagonist stops.
    stop: bool,
    finished_at: Option<SimTime>,
    failed: u64,
    problems: Vec<String>,
}

const SEQ_BITS: u32 = 40;

impl Loop {
    /// Books one retrieved completion; returns its caller class.
    fn complete(&mut self, c: &Completion, now: SimTime) -> usize {
        self.outstanding -= 1;
        let class = (c.user_data >> SEQ_BITS) as usize;
        let seq = (c.user_data & ((1 << SEQ_BITS) - 1)) as usize;
        if !c.status.is_ok() {
            self.failed += 1;
            self.problems
                .push(format!("request {} ended {:?}", c.req_id.0, c.status.0));
        }
        let caller = &mut self.callers[class];
        let at = std::mem::replace(&mut caller.submit_at[seq], u64::MAX);
        if at == u64::MAX {
            self.problems
                .push(format!("cookie {:#x} completed twice", c.user_data));
        } else if caller.plan.target.is_some() {
            caller.lat_ns.push(now.as_ns() - at);
        }
        caller.completed += 1;
        caller.bytes += c.bytes;
        if !self.stop
            && self
                .callers
                .iter()
                .all(|c| c.plan.target.is_none_or(|t| c.completed >= t))
        {
            self.stop = true;
            self.finished_at = Some(now);
        }
        class
    }
}

/// Sends caller class `class`'s next request, if it has one.
fn submit_next(state: &Rc<RefCell<Loop>>, class: usize, sys: &mut System, sim: &mut Sim<System>) {
    let (memif, spec) = {
        let mut l = state.borrow_mut();
        let stop = l.stop;
        let c = &mut l.callers[class];
        if !c.may_submit(stop) {
            return;
        }
        let seq = c.submitted;
        c.submitted += 1;
        let r = c.order[(seq % c.plan.pool as u64) as usize] as usize;
        let to = NodeId(1 - c.node[r].0);
        c.node[r] = to;
        c.submit_at.push(sim.now().as_ns());
        let spec = MoveSpec::migrate(c.regions[r], c.plan.pages, c.plan.page_size, to)
            .with_user_data(((class as u64) << SEQ_BITS) | seq)
            .with_tenant(c.plan.tenant);
        l.outstanding += 1;
        (l.memif, spec)
    };
    if let Err(e) = trace::span("api.submit", || memif.submit(sys, sim, spec)) {
        let mut l = state.borrow_mut();
        l.outstanding -= 1;
        l.problems.push(format!("submit refused: {e}"));
    }
}

/// The application's completion handler: retrieve everything, send each
/// caller's next request, and sleep in `poll` until the next completion
/// while anything is outstanding.
fn pump(state: Rc<RefCell<Loop>>, sys: &mut System, sim: &mut Sim<System>) {
    let memif = state.borrow().memif;
    loop {
        let c = match trace::span("api.retrieve", || memif.retrieve_completed(sys)) {
            Ok(Some(c)) => c,
            Ok(None) => break,
            Err(e) => {
                state
                    .borrow_mut()
                    .problems
                    .push(format!("retrieve failed: {e}"));
                break;
            }
        };
        let class = state.borrow_mut().complete(&c, sim.now());
        submit_next(&state, class, sys, sim);
    }
    if state.borrow().outstanding > 0 {
        let again = Rc::clone(&state);
        trace::span("api.poll", || {
            memif.poll(sys, sim, move |sys, sim| pump(again, sys, sim))
        })
        .expect("device open");
    }
}

/// End-of-round correctness: every request retired exactly once and
/// `Done`, targets met, bytes accounted, every region where its
/// ping-pong parity says, and no journal record left unsealed.
fn check(
    sys: &System,
    space: memif::SpaceId,
    memif: Memif,
    callers: &[CallerState],
    problems: &mut Vec<String>,
) {
    let mut moved = 0;
    for (i, c) in callers.iter().enumerate() {
        if let Some(t) = c.plan.target {
            if c.completed != t {
                problems.push(format!(
                    "class {i}: {} of {t} requests completed",
                    c.completed
                ));
            }
        }
        if c.completed != c.submitted || c.submit_at.iter().any(|&at| at != u64::MAX) {
            problems.push(format!(
                "class {i}: {} submitted, {} completed",
                c.submitted, c.completed
            ));
        }
        let per_req = u64::from(c.plan.pages) * c.plan.page_size.bytes();
        if c.bytes != c.completed * per_req {
            problems.push(format!(
                "class {i}: {} bytes for {} requests",
                c.bytes, c.completed
            ));
        }
        moved += c.bytes;
        for (r, &va) in c.regions.iter().enumerate() {
            let last = va.offset(u64::from(c.plan.pages - 1) * c.plan.page_size.bytes());
            for page in [va, last] {
                let at = sys
                    .space(space)
                    .translate(page)
                    .and_then(|pa| sys.node_of(pa));
                if at != Some(c.node[r]) {
                    problems.push(format!(
                        "class {i} region {r}: on {at:?}, expected {:?}",
                        c.node[r]
                    ));
                }
            }
        }
    }
    let stats = &sys.device(memif.device()).expect("device open").stats;
    if stats.bytes_moved != moved || stats.failed != 0 {
        problems.push(format!(
            "driver moved {} bytes with {} failures; the application saw {moved}",
            stats.bytes_moved, stats.failed
        ));
    }
    if sys.journal().records().iter().any(|r| r.sealed.is_none()) {
        problems.push("journal records left unsealed".to_owned());
    }
}
