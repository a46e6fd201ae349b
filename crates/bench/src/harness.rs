//! Experiment drivers shared by the figure/table binaries.
//!
//! Two families:
//!
//! * **single-request probes** ([`probe_memif_once`], [`probe_linux_once`])
//!   — Figure 6's per-request time breakdown and CPU usage;
//! * **streaming drivers** ([`stream`], [`stream_linux`]) — the
//!   continuous-request workloads behind Figures 7 and 8 (completion
//!   timelines and throughput).
//!
//! Capacity note: the real KeyStone II fast node holds only 6 MiB, which
//! the paper worked around by *emulating* larger pages (§6.2). We instead
//! run the page-size sweeps on a topology with an enlarged fast bank of
//! identical bandwidth ([`bigfast_topology`]) — per-request costs do not
//! depend on bank capacity — and keep the true 6 MiB bank for the
//! capacity-sensitive experiments (Table 4, microbenches).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use memif::{
    FaultPlan, HookId, Memif, MemifConfig, MoveSpec, MoveStatus, NodeId, PageSize, RecoveryReport,
    Sim, SimDuration, SimEvent, SimTime, System,
};
use memif_baseline::{mbind, RegionRequest};
use memif_hwsim::{
    CostModel, MemoryKind, MemoryNode, PhaseBreakdown, PhysAddr, TierRank, Topology,
};
use memif_workloads::ShapeKind;

/// A topology with KeyStone II bandwidths but a 256 MiB fast bank, for
/// sweeps whose working sets exceed 6 MiB (see module docs).
#[must_use]
pub fn bigfast_topology() -> Topology {
    Topology::must_custom(
        vec![
            MemoryNode {
                id: NodeId(0),
                name: "ddr3".to_owned(),
                kind: MemoryKind::Slow,
                tier: TierRank(1),
                base: PhysAddr::new(0x8_0000_0000),
                bytes: 8 << 30,
                bandwidth_gbps: 6.2,
                boot_visible: true,
            },
            MemoryNode {
                id: NodeId(1),
                name: "fast-bank".to_owned(),
                kind: MemoryKind::Fast,
                tier: TierRank(0),
                base: PhysAddr::new(0x0C00_0000),
                bytes: 256 << 20,
                bandwidth_gbps: 24.0,
                boot_visible: false,
            },
        ],
        4,
    )
}

/// A topology with KeyStone II bandwidths but 8 GiB banks on *both*
/// tiers, for the million-region sweeps (`claims fig8 --huge`):
/// the whole pool must fit each node, since a migration pass parks
/// every region on the destination bank at once.
#[must_use]
pub fn hugefast_topology() -> Topology {
    Topology::must_custom(
        vec![
            MemoryNode {
                id: NodeId(0),
                name: "ddr3".to_owned(),
                kind: MemoryKind::Slow,
                tier: TierRank(1),
                base: PhysAddr::new(0x8_0000_0000),
                bytes: 8 << 30,
                bandwidth_gbps: 6.2,
                boot_visible: true,
            },
            MemoryNode {
                id: NodeId(1),
                name: "fast-bank".to_owned(),
                kind: MemoryKind::Fast,
                tier: TierRank(0),
                base: PhysAddr::new(0x20_0000_0000),
                bytes: 8 << 30,
                bandwidth_gbps: 24.0,
                boot_visible: false,
            },
        ],
        4,
    )
}

/// A two-tier topology for the crash-consistency experiments (E15): a
/// DDR3 bank plus an NVM-like persistent node of equal read bandwidth.
/// The NVM node's contents survive a simulated crash; its writes are
/// throttled separately by `CostModel::nvm_write_bw_gbps`.
#[must_use]
pub fn nvm_topology() -> Topology {
    Topology::must_custom(
        vec![
            MemoryNode {
                id: NodeId(0),
                name: "ddr3".to_owned(),
                kind: MemoryKind::Slow,
                tier: TierRank(0),
                base: PhysAddr::new(0x8_0000_0000),
                bytes: 8 << 30,
                bandwidth_gbps: 6.2,
                boot_visible: true,
            },
            MemoryNode {
                id: NodeId(1),
                name: "nvm".to_owned(),
                kind: MemoryKind::Nvm,
                tier: TierRank(1),
                base: PhysAddr::new(0x10_0000_0000),
                bytes: 1 << 30,
                bandwidth_gbps: 6.2,
                boot_visible: false,
            },
        ],
        4,
    )
}

/// Result of a single-request probe (one Figure 6 data point).
#[derive(Debug, Clone)]
pub struct ProbeResult {
    /// Time from submission to completion notification.
    pub wall: SimDuration,
    /// Driver/kernel cost per phase for this request.
    pub phases: PhaseBreakdown,
    /// CPU busy time over the request's lifetime, as a fraction of one
    /// core (the Figure 6 line series).
    pub cpu_usage: f64,
}

/// Probes one memif request of `pages`×`page_size` (replication or
/// migration) under the default configuration, after two identical
/// requests that warm the descriptor chains. Runs on
/// [`bigfast_topology`].
///
/// # Panics
///
/// Panics if any request fails (probe setups are always valid).
#[must_use]
pub fn probe_memif_once(
    cost: &CostModel,
    kind: ShapeKind,
    page_size: PageSize,
    pages: u32,
) -> ProbeResult {
    let mut sys = System::with_profile(bigfast_topology(), cost.clone());
    let mut sim = Sim::new();
    let space = sys.new_space();
    let memif = Memif::open(&mut sys, space, MemifConfig::default()).unwrap();

    let run_one = |sys: &mut System, sim: &mut Sim<System>| {
        let src = sys.mmap(space, pages, page_size, NodeId(0)).unwrap();
        let spec = match kind {
            ShapeKind::Replicate => {
                let dst = sys.mmap(space, pages, page_size, NodeId(1)).unwrap();
                MoveSpec::replicate(src, dst, pages, page_size)
            }
            ShapeKind::Migrate => MoveSpec::migrate(src, pages, page_size, NodeId(1)),
        };
        memif.submit(sys, sim, spec).unwrap();
        sim.run(sys);
        let c = memif.retrieve_completed(sys).unwrap().expect("completed");
        assert!(c.status.is_ok(), "probe request failed: {:?}", c.status);
    };

    for _ in 0..2 {
        run_one(&mut sys, &mut sim);
    }

    let phases_before = sys.device(memif.device()).unwrap().stats.phases.clone();
    let cpu_before = sys.meter.cpu_busy();
    let t0 = sim.now();
    run_one(&mut sys, &mut sim);
    let record = sys.device(memif.device()).unwrap().log.last().unwrap();
    let wall = record.completed_at.since(t0);
    // CPU usage is measured over the request's full footprint, including
    // the trailing kernel-thread work after the notification.
    let window = sim.now().max(record.completed_at).since(t0);
    // Per-request delta.
    let mut phases = PhaseBreakdown::new();
    for (phase, cost_after) in sys.device(memif.device()).unwrap().stats.phases.iter() {
        phases.add(phase, cost_after.saturating_sub(phases_before.get(phase)));
    }
    // Add the DMA transfer itself as the Copy column (memif offloads it).
    phases.add(
        memif_hwsim::Phase::Copy,
        record
            .completed_at
            .since(record.dma_started_at.unwrap_or(record.completed_at)),
    );
    let cpu_busy = sys.meter.cpu_busy().saturating_sub(cpu_before);
    ProbeResult {
        wall,
        phases,
        cpu_usage: cpu_busy.as_ns() as f64 / window.as_ns().max(1) as f64,
    }
}

/// Probes one Linux `mbind` migration of the same shape.
#[must_use]
pub fn probe_linux_once(cost: &CostModel, page_size: PageSize, pages: u32) -> ProbeResult {
    let mut sys = System::with_profile(bigfast_topology(), cost.clone());
    let space = sys.new_space();
    let start = sys.mmap(space, pages, page_size, NodeId(0)).unwrap();
    let mut meter = memif_hwsim::UsageMeter::new();
    let out = {
        let (spaces, alloc, phys) = sys.split_for_baseline();
        mbind(
            &mut spaces[space.0],
            alloc,
            phys,
            cost,
            &mut meter,
            &[RegionRequest {
                start,
                pages,
                page_size,
                dst_node: NodeId(1),
            }],
        )
    };
    ProbeResult {
        wall: out.duration,
        phases: out.phases,
        cpu_usage: 1.0, // synchronous and CPU-bound by construction
    }
}

/// Result of a streaming run.
#[derive(Debug, Clone, Default)]
pub struct StreamResult {
    /// Bytes moved.
    pub bytes: u64,
    /// Wall time from first submission to last completion.
    pub wall: SimDuration,
    /// Move throughput, GB/s.
    pub throughput_gbps: f64,
    /// Completion time of each request, in submission order.
    pub completion_times: Vec<SimTime>,
    /// CPU usage over the run (fraction of one core).
    pub cpu_usage: f64,
    /// The device's driver counters at the end of the run: syscalls,
    /// completion paths, chaos retries and fallbacks, failures (the
    /// harness retrieves every request, so `failed` counts each failed
    /// one), batching and coalescing, and the phase breakdown.
    pub stats: memif::DriverStats,
    /// Kernel-worker busy time per issue shard (index = shard). Empty
    /// when the run recorded no worker-attributed time (e.g. the Linux
    /// baseline).
    pub worker_busy: Vec<SimDuration>,
    /// Per-tier occupancy and migration counts at the end of the run
    /// ([`memif::System::tier_usage`]). Empty for the Linux baseline,
    /// which models no tiered machine.
    pub tiers: Vec<memif::TierUsage>,
    /// Events the DES scheduler executed over the run. Zero for the
    /// Linux baseline, which is computed closed-form without the DES.
    pub events_executed: u64,
    /// Pending events cancelled before firing (flow-timer rearms,
    /// watchdog disarms).
    pub events_cancelled: u64,
    /// High-water mark of concurrently pending scheduler events.
    pub peak_pending: usize,
    /// Bytes the device's completion log takes at the end of the run
    /// ([`memif::CompletionLog::encoded_bytes`]). Zero for the Linux
    /// baseline, which keeps no log.
    pub log_bytes: usize,
    /// Per-tenant snapshot of the QoS registry at the end of the run,
    /// ascending by id. Empty for single-tenant runs (nothing was ever
    /// registered).
    pub tenant_stats: Vec<TenantReport>,
    /// JSON-lines event log of the whole run, in execution order. Empty
    /// unless [`StreamSpec::log_events`].
    pub events: Vec<String>,
    /// `(req_id, terminal MoveStatus)` per request, completion order.
    /// Empty unless [`StreamSpec::log_events`].
    pub statuses: Vec<(u64, String)>,
}

/// One tenant's end-of-run accounting: its QoS registry entry plus the
/// latency percentiles of its retired requests.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant id.
    pub id: u16,
    /// Scheduling weight.
    pub weight: u32,
    /// The registry's live counters.
    pub stats: memif::TenantStats,
    /// Nearest-rank median submission-to-notification latency, ns, from
    /// the completion log. 0 unless the device ran with `qos` on.
    pub p50_ns: u64,
    /// Nearest-rank 99th-percentile latency, ns (see `p50_ns`).
    pub p99_ns: u64,
}

/// The nearest-rank `q`-quantile of ascending `sorted`: the
/// `ceil(q·n)`-th sample, clamped to the first and last. 0 when empty.
#[must_use]
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl StreamResult {
    /// Mean completion time since the first submission, in µs (the
    /// Figure 7 latency).
    #[must_use]
    pub fn mean_latency_us(&self) -> f64 {
        let sum: f64 = self.completion_times.iter().map(|t| t.as_ns() as f64).sum();
        sum / self.completion_times.len() as f64 / 1_000.0
    }
}

/// One streaming run's shape: `count` identical memif requests of
/// `pages`×`page_size` (replication or migration), keeping up to
/// `window` outstanding. Build it with struct-update syntax over
/// [`StreamSpec::default`]: [`bigfast_topology`], the keystone cost
/// model, [`MemifConfig::default`], a pool as large as the window, no
/// faults, no tenants, and the event log off.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// The machine the run streams on.
    pub topo: Topology,
    /// The cost profile.
    pub cost: CostModel,
    /// The device configuration.
    pub config: MemifConfig,
    /// Replication or migration.
    pub kind: ShapeKind,
    /// Page granularity of every request.
    pub page_size: PageSize,
    /// Pages per request.
    pub pages: u32,
    /// Requests to stream.
    pub count: usize,
    /// Maximum requests outstanding at once.
    pub window: usize,
    /// Distinct regions the requests cycle over (the address-space
    /// footprint). Anything up to `window`, the default 0 included,
    /// means `window`: the classic ping-pong over exactly the window's
    /// regions. The huge sweeps (`claims fig8 --huge`) stream one
    /// request over each of a million regions while `window` still caps
    /// concurrency.
    pub pool: usize,
    /// A fault plan installed before the first submission (the E10
    /// chaos workloads). With a plan, failed completions are counted
    /// instead of panicking.
    pub faults: Option<FaultPlan>,
    /// `(id, weight)` tenant roster: requests are tagged round-robin
    /// across it, and each tenant is registered in the QoS registry
    /// before the first submission. Empty leaves every request on the
    /// root tenant.
    pub tenants: Vec<(u16, u32)>,
    /// Record the typed event log and the terminal statuses
    /// ([`StreamResult::events`], [`StreamResult::statuses`]).
    pub log_events: bool,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            topo: bigfast_topology(),
            cost: CostModel::keystone_ii(),
            config: MemifConfig::default(),
            kind: ShapeKind::Migrate,
            page_size: PageSize::Small4K,
            pages: 1,
            count: 1,
            window: 1,
            pool: 0,
            faults: None,
            tenants: Vec::new(),
            log_events: false,
        }
    }
}

/// Streams the requests `spec` describes and measures throughput and
/// the completion timeline.
///
/// Migrations ping-pong their regions between nodes 0 and 1 so the
/// destination bank never overflows (only forward-direction bytes are
/// counted — both directions cost the same, so throughput is
/// unaffected). Two runs of the same spec produce byte-identical event
/// logs; `memifctl` builds its trace dump and replay check on this.
///
/// # Panics
///
/// Panics if any request fails while no fault plan is installed, or if
/// any request never completes.
#[must_use]
pub fn stream(spec: StreamSpec) -> StreamResult {
    struct State {
        memif: Memif,
        kind: ShapeKind,
        page_size: PageSize,
        pages: u32,
        submitted: usize,
        completed: usize,
        count: usize,
        // Region pool; for migration, tracks which node each sits on.
        regions: Vec<(memif::VirtAddr, memif::VirtAddr, NodeId)>,
        completion_times: Vec<SimTime>,
        finished_at: Option<SimTime>,
        chaos: bool,
        // Round-robin tenant roster; empty = everything on the root
        // tenant (the classic single-tenant runs).
        tenants: Vec<memif::TenantId>,
    }

    let StreamSpec {
        topo,
        cost,
        config,
        kind,
        page_size,
        pages,
        count,
        window,
        pool,
        faults,
        tenants,
        log_events,
    } = spec;
    let mut sys = System::with_profile(topo, cost);
    if log_events {
        sys.enable_event_log();
    }
    let mut sim = Sim::new();
    let space = sys.new_space();
    let memif = Memif::open(&mut sys, space, config).unwrap();
    let chaos = faults.is_some();
    for (id, weight) in &tenants {
        sys.qos.register(
            memif::TenantId(*id),
            memif::TenantConfig {
                weight: *weight,
                ..memif::TenantConfig::default()
            },
        );
    }
    if let Some(plan) = faults {
        sys.install_faults(&mut sim, plan);
    }

    let window = window.min(count).max(1);
    let pool = pool.min(count).max(window);
    let mut regions = Vec::with_capacity(pool);
    for _ in 0..pool {
        let src = sys.mmap(space, pages, page_size, NodeId(0)).unwrap();
        let dst = match kind {
            ShapeKind::Replicate => sys.mmap(space, pages, page_size, NodeId(1)).unwrap(),
            ShapeKind::Migrate => memif::VirtAddr::new(0),
        };
        regions.push((src, dst, NodeId(0)));
    }

    let state = Rc::new(RefCell::new(State {
        memif,
        kind,
        page_size,
        pages,
        submitted: 0,
        completed: 0,
        count,
        regions,
        completion_times: vec![SimTime::ZERO; count],
        finished_at: None,
        chaos,
        tenants: tenants.iter().map(|(id, _)| memif::TenantId(*id)).collect(),
    }));

    fn submit_next(state: &Rc<RefCell<State>>, sys: &mut System, sim: &mut Sim<System>) {
        let (memif, spec, idx) = {
            let mut st = state.borrow_mut();
            if st.submitted >= st.count {
                return;
            }
            let idx = st.submitted;
            st.submitted += 1;
            let slot = idx % st.regions.len();
            let (src, dst, node) = st.regions[slot];
            let spec = match st.kind {
                ShapeKind::Replicate => MoveSpec::replicate(src, dst, st.pages, st.page_size),
                ShapeKind::Migrate => {
                    let target = if node == NodeId(0) {
                        NodeId(1)
                    } else {
                        NodeId(0)
                    };
                    st.regions[slot].2 = target;
                    MoveSpec::migrate(src, st.pages, st.page_size, target)
                }
            }
            .with_user_data(idx as u64);
            let spec = if st.tenants.is_empty() {
                spec
            } else {
                spec.with_tenant(st.tenants[idx % st.tenants.len()])
            };
            (st.memif, spec, idx)
        };
        let (id, _) = memif.submit(sys, sim, spec).expect("stream submission");
        // The tenant report bills log record `id` to `tenants[id % len]`.
        assert_eq!(id.0, idx as u64, "request ids follow submission order");
    }

    fn pump(state: Rc<RefCell<State>>, sys: &mut System, sim: &mut Sim<System>) {
        let memif = state.borrow().memif;
        while let Some(c) = memif.retrieve_completed(sys).expect("region healthy") {
            let mut st = state.borrow_mut();
            assert!(
                c.status.is_ok() || st.chaos,
                "stream request failed without faults: {:?}",
                c.status
            );
            let idx = c.user_data as usize;
            st.completion_times[idx] = sim.now();
            st.completed += 1;
            if st.completed == st.count {
                st.finished_at = Some(sim.now());
                return;
            }
            drop(st);
            submit_next(&state, sys, sim);
        }
        let st2 = Rc::clone(&state);
        memif
            .poll(sys, sim, move |sys, sim| pump(st2, sys, sim))
            .expect("bench device open");
    }

    for _ in 0..window {
        submit_next(&state, &mut sys, &mut sim);
    }
    let t0 = sim.now();
    pump(Rc::clone(&state), &mut sys, &mut sim);
    sim.run(&mut sys);

    let st = state.borrow();
    let finished = st.finished_at.expect("all requests completed");
    let wall = finished.since(t0);
    let bytes = u64::from(pages) * page_size.bytes() * count as u64;
    let events = sys.take_event_log();
    let dev = sys.device(st.memif.device()).unwrap();
    let statuses = if log_events {
        dev.log
            .iter()
            .map(|r| (r.req_id, format!("{:?}", r.status)))
            .collect()
    } else {
        Vec::new()
    };
    // Each tenant's latencies from the completion log; QoS-off runs
    // report none.
    let mut latencies: BTreeMap<u16, Vec<u64>> = BTreeMap::new();
    if dev.config.qos && !st.tenants.is_empty() {
        for r in dev.log.iter() {
            let tenant = st.tenants[r.req_id as usize % st.tenants.len()];
            latencies
                .entry(tenant.0)
                .or_default()
                .push(r.latency().as_ns());
        }
    }
    StreamResult {
        bytes,
        wall,
        throughput_gbps: bytes as f64 / wall.as_ns().max(1) as f64,
        completion_times: st.completion_times.clone(),
        cpu_usage: sys.meter.cpu_busy().as_ns() as f64 / wall.as_ns().max(1) as f64,
        stats: dev.stats.clone(),
        worker_busy: sys.meter.workers().to_vec(),
        tiers: sys.tier_usage(),
        events_executed: sim.executed(),
        events_cancelled: sim.cancelled(),
        peak_pending: sim.peak_pending(),
        log_bytes: dev.log.encoded_bytes(),
        tenant_stats: sys
            .qos
            .tenants()
            .map(|(id, cfg, stats)| {
                let mut sorted = latencies.remove(&id.0).unwrap_or_default();
                sorted.sort_unstable();
                TenantReport {
                    id: id.0,
                    weight: cfg.weight,
                    stats: stats.clone(),
                    p50_ns: nearest_rank(&sorted, 0.50),
                    p99_ns: nearest_rank(&sorted, 0.99),
                }
            })
            .collect(),
        events,
        statuses,
    }
}

/// Outcome of a [`crash_migrate_nvm`] run: every request's terminal
/// status (exactly one each), the final placement and byte contents of
/// every region, the allocator balance and any transient PTE left —
/// everything the recovery sweeps compare against an uncrashed
/// reference run.
#[derive(Debug, Clone)]
pub struct CrashOutcome {
    /// Whether the crash plan actually fired.
    pub crashed: bool,
    /// Crash opportunities counted over the whole run, re-drive
    /// included. An uncrashed run's count is the `N` that a sweep of
    /// `1..=N` covers.
    pub opportunities: u64,
    /// The recovery report, when a crash fired.
    pub recovery: Option<RecoveryReport>,
    /// Requests the post-crash application re-submitted (journal showed
    /// no `Done` terminal for them).
    pub resubmitted: usize,
    /// `(cookie, status)` — the single terminal status the application
    /// attributes to each request, in cookie order.
    pub statuses: Vec<(u64, MoveStatus)>,
    /// Final memory node of each region, in region order.
    pub placement: Vec<NodeId>,
    /// Per-page virtual-memory checksums, region order.
    pub fingerprint: Vec<u64>,
    /// Free bytes per memory node, node-id order (a doubled or leaked
    /// move unbalances the allocator).
    pub free_bytes: Vec<u64>,
    /// Migration entries and write-watches left in the page table once
    /// the run quiesced: each is a page a move never finished with.
    pub transient_ptes: Vec<(memif::VirtAddr, memif_mm::Pte)>,
    /// Journal records appended over the whole run, including
    /// re-submissions.
    pub journal_records: u64,
    /// Simulated time when the run quiesced.
    pub wall: SimDuration,
    /// JSON-lines event log of the whole run. Empty unless the run was
    /// asked to log events.
    pub events: Vec<String>,
}

impl CrashOutcome {
    /// The exactly-once acceptance: after recovery plus the WAL re-drive
    /// protocol, this (crashed) run is indistinguishable from
    /// `reference`, one that never crashed. Every request ends `Done`,
    /// request count, placement, contents and allocator balance match,
    /// and no transient PTE survives the re-drive.
    ///
    /// # Panics
    ///
    /// Panics, naming `label`, on the first difference.
    pub fn assert_converged(&self, reference: &CrashOutcome, label: &str) {
        let stray = self.statuses.iter().find(|(_, s)| *s != MoveStatus::Done);
        assert!(
            stray.is_none(),
            "{label}: did not converge to Done: {stray:?}"
        );
        assert_eq!(
            self.statuses.len(),
            reference.statuses.len(),
            "{label}: request count diverged"
        );
        assert_eq!(
            self.placement, reference.placement,
            "{label}: final placement diverged from the uncrashed reference"
        );
        assert_eq!(
            self.fingerprint, reference.fingerprint,
            "{label}: final memory diverged from the uncrashed reference"
        );
        assert_eq!(
            self.free_bytes, reference.free_bytes,
            "{label}: allocator balance diverged (lost or doubled frames)"
        );
        assert!(
            self.transient_ptes.is_empty(),
            "{label}: transient PTEs survived the re-drive: {:?}",
            self.transient_ptes
        );
    }
}

/// One [`crash_migrate_nvm`] run: `count` journaled migrations of
/// `pages` pages each, and an optional crash.
#[derive(Debug, Clone)]
pub struct CrashRun {
    /// The cost profile.
    pub cost: CostModel,
    /// The device configuration (`journal` is forced on).
    pub config: MemifConfig,
    /// Page granularity of every request.
    pub page_size: PageSize,
    /// Pages per request.
    pub pages: u32,
    /// Requests, one region each.
    pub count: usize,
    /// The crash opportunity the world halts at
    /// ([`System::arm_crash`]); 0 never fires and runs the uncrashed
    /// reference, which still counts its opportunities.
    pub crash_at: u64,
    /// The application retrieves completions as they are posted, so
    /// some are retrieved, and some of those durably acknowledged,
    /// before a crash. Otherwise it retrieves them once the run has
    /// quiesced (and again after any recovery).
    pub retrieve_early: bool,
    /// Record the JSON-lines event log ([`CrashOutcome::events`]).
    pub log_events: bool,
}

impl Default for CrashRun {
    fn default() -> Self {
        CrashRun {
            cost: CostModel::keystone_ii(),
            config: MemifConfig::default(),
            page_size: PageSize::Small4K,
            pages: 8,
            count: 8,
            crash_at: 0,
            retrieve_early: false,
            log_events: false,
        }
    }
}

/// Runs `count` journaled migrations on [`nvm_topology`] — even cookies
/// DDR→NVM, odd cookies NVM→DDR, one region each, alternating
/// `submit`/`submit_background` — optionally crashing per `crash_at`, then
/// recovering and driving every request to exactly one terminal status.
///
/// The post-crash application protocol is the write-ahead-log contract:
/// the application merges the statuses it retrieved before the crash
/// with the ones the recovery report re-delivers (a completion whose
/// acknowledgement was not yet durable arrives twice, with the same
/// status). Requests with a `Done` are **not** re-driven; everything
/// else (rolled back, or vanished before journaling) has its source
/// data restored — volatile payload is the application's durability
/// problem, the journal only makes the *move* exactly-once — and is
/// re-submitted.
///
/// With `log_events` the outcome carries the JSON-lines event log
/// spanning the crash, the recovery (one `"recover"` record), and the
/// post-crash re-drive. Two runs of the same scenario produce
/// byte-identical logs; `memifctl recover --trace-events` and its
/// replay check build on this.
///
/// # Panics
///
/// Panics if any request fails, a status is delivered twice with two
/// values, or the run does not quiesce.
#[must_use]
pub fn crash_migrate_nvm(run: CrashRun) -> CrashOutcome {
    let CrashRun {
        cost,
        config: mut memif_config,
        page_size,
        pages,
        count,
        crash_at,
        retrieve_early,
        log_events,
    } = run;
    memif_config.journal = true;
    let mut sys = System::with_profile(nvm_topology(), cost);
    if log_events {
        sys.enable_event_log();
    }
    let mut sim = Sim::new();
    let space = sys.new_space();
    let memif = Memif::open(&mut sys, space, memif_config).unwrap();
    sys.arm_crash(crash_at);

    // One region per request; even cookies start on DDR and migrate to
    // NVM, odd cookies the other way.
    let src_node = |cookie: usize| NodeId((cookie % 2) as u16);
    let dst_node = |cookie: usize| NodeId(1 - (cookie % 2) as u16);
    let regions: Vec<memif::VirtAddr> = (0..count)
        .map(|i| sys.mmap(space, pages, page_size, src_node(i)).unwrap())
        .collect();
    let fill = |sys: &mut System, region: usize| {
        let va = regions[region];
        for p in 0..pages {
            let page = va.offset(u64::from(p) * page_size.bytes());
            let pa = sys.space(space).translate(page).unwrap();
            let pattern = 1u8
                .wrapping_add((region as u8).wrapping_mul(31))
                .wrapping_add((p as u8).wrapping_mul(7));
            sys.phys.fill(pa, page_size.bytes(), pattern);
        }
    };
    for r in 0..count {
        fill(&mut sys, r);
    }

    /// Retrieves every posted completion into `statuses`, by cookie:
    /// nothing on a halted machine, and a crash at a retrieval may halt
    /// it part-way.
    fn drain(memif: Memif, sys: &mut System, statuses: &mut [Option<MoveStatus>]) {
        while let Some(c) = memif.retrieve_completed(sys).unwrap() {
            let slot = &mut statuses[c.user_data as usize];
            assert!(
                slot.is_none(),
                "cookie {} completed twice: {:?} then {:?}",
                c.user_data,
                slot,
                c.status.0
            );
            *slot = Some(c.status.0);
        }
    }

    // Completions the application retrieved before any crash, by cookie.
    let early: Rc<RefCell<Vec<Option<MoveStatus>>>> = Rc::new(RefCell::new(vec![None; count]));
    if retrieve_early {
        let retrieved = Rc::clone(&early);
        let hook: Rc<RefCell<Option<HookId>>> = Rc::new(RefCell::new(None));
        let me = Rc::clone(&hook);
        let id = sys.register_hook(move |sys, sim, _| {
            let mut retrieved = retrieved.borrow_mut();
            drain(memif, sys, &mut retrieved);
            if !sys.crashed() && retrieved.iter().any(Option::is_none) {
                let hook = me.borrow().expect("registered");
                memif
                    .poll_event(sys, sim, SimEvent::Hook { hook, arg: 0 })
                    .unwrap();
            }
        });
        *hook.borrow_mut() = Some(id);
        memif
            .poll_event(&mut sys, &mut sim, SimEvent::Hook { hook: id, arg: 0 })
            .unwrap();
    }

    let spec_for = |cookie: usize| {
        MoveSpec::migrate(regions[cookie], pages, page_size, dst_node(cookie))
            .with_user_data(cookie as u64)
    };
    for cookie in 0..count {
        // Alternate the two submission entry points so a crash can
        // strike either one's requests.
        if cookie % 2 == 0 {
            memif.submit(&mut sys, &mut sim, spec_for(cookie)).unwrap();
        } else {
            memif
                .submit_background(&mut sys, &mut sim, spec_for(cookie))
                .unwrap();
        }
    }
    sim.run(&mut sys);

    let mut statuses = early.take();
    drain(memif, &mut sys, &mut statuses);
    let mut resubmitted = 0usize;
    let crashed = sys.crashed();
    let mut recovery = None;
    if crashed {
        let report = sys.recover(&mut sim);
        let mut reported = vec![false; count];
        for &(_, status, cookie) in &report.statuses {
            let cookie = cookie as usize;
            assert!(
                !std::mem::replace(&mut reported[cookie], true),
                "journal reported cookie {cookie} twice"
            );
            // At-least-once delivery: a retrieval whose acknowledgement
            // died with the crash is re-delivered, with the same status.
            let slot = &mut statuses[cookie];
            assert!(
                slot.is_none_or(|s| s == status),
                "cookie {cookie} retrieved as {slot:?} but recovered as {status:?}"
            );
            *slot = Some(status);
        }
        recovery = Some(report);
        // The WAL contract: everything without a durable `Done` is the
        // application's to re-drive. Restore its (volatile) source data
        // first, then resubmit. Requests that completed onto a volatile
        // node are durably *moved* but their payload died with the
        // crash — reconstructing volatile data after a reboot is the
        // application's job, never the journal's promise — so restore
        // those in place without re-driving.
        for cookie in 0..count {
            if statuses[cookie] == Some(MoveStatus::Done) {
                let pa = sys.space(space).translate(regions[cookie]).unwrap();
                let node = sys.node_of(pa).and_then(|n| sys.topo.node(n));
                if node.is_some_and(|n| !n.kind.is_persistent()) {
                    fill(&mut sys, cookie);
                }
                continue;
            }
            statuses[cookie] = None; // superseded by the re-drive below
            fill(&mut sys, cookie);
            memif.submit(&mut sys, &mut sim, spec_for(cookie)).unwrap();
            resubmitted += 1;
        }
        sim.run(&mut sys);
        drain(memif, &mut sys, &mut statuses);
    }
    assert!(!sys.crashed(), "a crash plan fires at most once");

    let statuses: Vec<(u64, MoveStatus)> = statuses
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            (
                i as u64,
                s.unwrap_or_else(|| panic!("cookie {i} never terminal")),
            )
        })
        .collect();
    let mut placement = Vec::with_capacity(count);
    let mut fingerprint = Vec::with_capacity(count * pages as usize);
    for va in &regions {
        let pa = sys.space(space).translate(*va).expect("region mapped");
        placement.push(sys.node_of(pa).expect("on a known node"));
        for p in 0..pages {
            let page = va.offset(u64::from(p) * page_size.bytes());
            let pa = sys.space(space).translate(page).expect("page mapped");
            fingerprint.push(sys.phys.checksum(pa, page_size.bytes()));
        }
    }
    let free_bytes = sys
        .topo
        .all_nodes()
        .iter()
        .map(|n| sys.alloc.free_bytes(n.id))
        .collect();
    let journal_records = sys.journal().len() as u64;
    for rec in sys.journal().records() {
        assert!(
            rec.sealed.is_some(),
            "journal record for request {} left unsealed",
            rec.req.id
        );
    }
    CrashOutcome {
        crashed,
        opportunities: sys.crash_opportunities(),
        recovery,
        resubmitted,
        statuses,
        placement,
        fingerprint,
        free_bytes,
        transient_ptes: sys.space(space).scan_transient(),
        journal_records,
        wall: sim.now().since(SimTime::ZERO),
        events: sys.take_event_log(),
    }
}

/// Streams `count` migrations through Linux `mbind`, batching `batch`
/// requests per syscall — the §6.4 comparator.
///
/// # Panics
///
/// Panics if any page fails to migrate.
#[must_use]
pub fn stream_linux(
    cost: &CostModel,
    page_size: PageSize,
    pages: u32,
    count: usize,
    batch: usize,
) -> StreamResult {
    let mut sys = System::with_profile(bigfast_topology(), cost.clone());
    let space = sys.new_space();
    let mut meter = memif_hwsim::UsageMeter::new();

    // Region pool ping-pongs like the memif driver above.
    let pool = batch.max(1);
    let mut regions: Vec<(memif::VirtAddr, NodeId)> = (0..pool)
        .map(|_| {
            (
                sys.mmap(space, pages, page_size, NodeId(0)).unwrap(),
                NodeId(0),
            )
        })
        .collect();

    let mut now = SimTime::ZERO;
    let mut completion_times = Vec::with_capacity(count);
    let mut syscalls = 0u64;
    let mut done = 0usize;
    while done < count {
        let n = batch.min(count - done);
        let mut reqs = Vec::with_capacity(n);
        for r in regions.iter_mut().take(n) {
            let target = if r.1 == NodeId(0) {
                NodeId(1)
            } else {
                NodeId(0)
            };
            reqs.push(RegionRequest {
                start: r.0,
                pages,
                page_size,
                dst_node: target,
            });
            r.1 = target;
        }
        let out = {
            let (spaces, alloc, phys) = sys.split_for_baseline();
            mbind(&mut spaces[space.0], alloc, phys, cost, &mut meter, &reqs)
        };
        assert!(out.failed.is_empty(), "baseline failures: {:?}", out.failed);
        syscalls += 1;
        // Requests complete inside the syscall, but the *application*
        // only learns at syscall exit — which is what latency means to
        // it (§6.4).
        for _ in 0..n {
            completion_times.push(now + out.duration);
        }
        now += out.duration;
        done += n;
    }

    let bytes = u64::from(pages) * page_size.bytes() * count as u64;
    let wall = now.since(SimTime::ZERO);
    StreamResult {
        bytes,
        wall,
        throughput_gbps: bytes as f64 / wall.as_ns().max(1) as f64,
        completion_times,
        cpu_usage: 1.0,
        stats: memif::DriverStats {
            ioctls: syscalls,
            ..memif::DriverStats::default()
        },
        ..StreamResult::default()
    }
}

#[cfg(test)]
mod tests {
    use super::nearest_rank;

    #[test]
    fn latency_percentiles() {
        assert_eq!(nearest_rank(&[], 0.5), 0);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, 0.50), 50);
        assert_eq!(nearest_rank(&sorted, 0.99), 99);
        assert_eq!(nearest_rank(&sorted, 0.0), 1);
        assert_eq!(nearest_rank(&sorted, 1.0), 100);
    }
}
