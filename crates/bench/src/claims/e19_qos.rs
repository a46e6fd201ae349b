//! E19: multi-tenant QoS — weighted-fair issue scheduling and admission
//! control under an antagonist.
//!
//! Three scenarios on one device with a single shared transfer channel
//! (`dma_tc_count = 1`, the KeyStone II default — every tenant's moves
//! contend for the same pipe):
//!
//! * **baseline** — four good tenants alone, one small request each in
//!   flight (closed loop), QoS off: the uncontended per-request p99.
//! * **bully/FIFO** — the same four, plus a bully streaming 512 KiB
//!   requests at depth 32, QoS off: the engine's bandwidth is split
//!   across the bully's whole burst, inflating good p99 by over 4×.
//! * **bully/QoS** — identical load, QoS on: admission caps the bully
//!   at one transfer in flight (parking the rest) and the deficit-
//!   round-robin dequeue interleaves tenants, holding the good p99
//!   within 2× of the uncontended baseline.
//!
//! A fourth scenario pins the *weighted* half of weighted-fair: two
//! saturating tenants at weights 2:1 must split the pipe at least
//! 1.6:1 in bytes completed while both are active.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use memif::{
    Memif, MemifConfig, MoveSpec, NodeId, PageSize, Sim, SimTime, System, TenantConfig, TenantId,
};
use memif_hwsim::CostModel;

use super::Report;
use crate::{bigfast_topology, Table};

/// One tenant's load shape.
#[derive(Clone)]
struct TenantPlan {
    tenant: TenantId,
    pages: u32,
    page_size: PageSize,
    /// Outstanding requests kept in flight (closed loop).
    window: usize,
    /// Completions after which this tenant stops submitting. Zero means
    /// "stream until every targeted tenant has finished" (the bully).
    target: usize,
    config: TenantConfig,
}

/// What one tenant saw over a run.
#[derive(Debug, Default, Clone)]
struct TenantOutcome {
    completed: usize,
    bytes: u64,
    /// Per-request submit→completion latency, completion order.
    latencies_ns: Vec<u64>,
    /// Completion instants, completion order.
    completion_times: Vec<SimTime>,
}

impl TenantOutcome {
    fn p99_ns(&self) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        sorted[(sorted.len() - 1) * 99 / 100]
    }
}

/// Drives every plan's closed loop on one shared device until all
/// targeted tenants reach their target; untargeted (bully) tenants then
/// stop submitting and the run drains.
fn run_mix(cost: &CostModel, qos: bool, plans: &[TenantPlan]) -> Vec<TenantOutcome> {
    struct State {
        memif: Memif,
        plans: Vec<TenantPlan>,
        // Per plan: region pool as (src, current-node) ping-pong pairs.
        regions: Vec<Vec<(memif::VirtAddr, NodeId)>>,
        submitted: Vec<usize>,
        outcomes: Vec<TenantOutcome>,
        submit_times: HashMap<u64, SimTime>,
        stop_streaming: bool,
    }

    impl State {
        fn targets_met(&self) -> bool {
            self.plans
                .iter()
                .zip(&self.outcomes)
                .all(|(p, o)| p.target == 0 || o.completed >= p.target)
        }

        fn may_submit(&self, idx: usize) -> bool {
            let p = &self.plans[idx];
            if p.target > 0 {
                self.submitted[idx] < p.target
            } else {
                !self.stop_streaming
            }
        }
    }

    let mut sys = System::with_profile(bigfast_topology(), cost.clone());
    let mut sim = Sim::new();
    let space = sys.new_space();
    let memif = Memif::open(
        &mut sys,
        space,
        MemifConfig {
            qos,
            ..MemifConfig::default()
        },
    )
    .unwrap();
    for p in plans {
        sys.qos.register(p.tenant, p.config);
    }

    let mut regions = Vec::new();
    for p in plans {
        let pool: Vec<(memif::VirtAddr, NodeId)> = (0..p.window)
            .map(|_| {
                (
                    sys.mmap(space, p.pages, p.page_size, NodeId(0)).unwrap(),
                    NodeId(0),
                )
            })
            .collect();
        regions.push(pool);
    }

    let state = Rc::new(RefCell::new(State {
        memif,
        plans: plans.to_vec(),
        regions,
        submitted: vec![0; plans.len()],
        outcomes: vec![TenantOutcome::default(); plans.len()],
        submit_times: HashMap::new(),
        stop_streaming: false,
    }));

    fn submit_next(
        state: &Rc<RefCell<State>>,
        idx: usize,
        sys: &mut System,
        sim: &mut Sim<System>,
    ) {
        let (memif, spec) = {
            let mut st = state.borrow_mut();
            if !st.may_submit(idx) {
                return;
            }
            let seq = st.submitted[idx];
            st.submitted[idx] += 1;
            let p = st.plans[idx].clone();
            let slot = seq % p.window;
            let (src, node) = st.regions[idx][slot];
            let target = if node == NodeId(0) {
                NodeId(1)
            } else {
                NodeId(0)
            };
            st.regions[idx][slot].1 = target;
            let cookie = ((idx as u64) << 40) | seq as u64;
            let spec = MoveSpec::migrate(src, p.pages, p.page_size, target)
                .with_user_data(cookie)
                .with_tenant(p.tenant);
            st.submit_times.insert(cookie, sim.now());
            (st.memif, spec)
        };
        memif.submit(sys, sim, spec).expect("e19 submission");
    }

    fn pump(state: Rc<RefCell<State>>, sys: &mut System, sim: &mut Sim<System>) {
        let memif = state.borrow().memif;
        while let Some(c) = memif.retrieve_completed(sys).expect("region healthy") {
            assert!(c.status.is_ok(), "e19 request failed: {:?}", c.status);
            let idx = {
                let mut st = state.borrow_mut();
                let idx = (c.user_data >> 40) as usize;
                let submitted_at = st
                    .submit_times
                    .remove(&c.user_data)
                    .expect("every completion was submitted");
                let p = &st.plans[idx];
                let bytes = u64::from(p.pages) * p.page_size.bytes();
                let o = &mut st.outcomes[idx];
                o.completed += 1;
                o.bytes += bytes;
                o.latencies_ns.push(sim.now().since(submitted_at).as_ns());
                o.completion_times.push(sim.now());
                if st.targets_met() {
                    st.stop_streaming = true;
                }
                idx
            };
            submit_next(&state, idx, sys, sim);
        }
        if state.borrow().submit_times.is_empty() {
            return; // fully drained: nothing in flight, nothing to wake for
        }
        let st2 = Rc::clone(&state);
        memif
            .poll(sys, sim, move |sys, sim| pump(st2, sys, sim))
            .expect("e19 device open");
    }

    for (idx, plan) in plans.iter().enumerate() {
        for _ in 0..plan.window {
            submit_next(&state, idx, &mut sys, &mut sim);
        }
    }
    pump(Rc::clone(&state), &mut sys, &mut sim);
    sim.run(&mut sys);

    let st = state.borrow();
    assert!(st.targets_met(), "every targeted tenant finished");
    assert!(
        st.submit_times.is_empty(),
        "every submission reached a completion"
    );
    st.outcomes.clone()
}

fn good_plans(target: usize) -> Vec<TenantPlan> {
    (0..4)
        .map(|i| TenantPlan {
            tenant: TenantId(1 + i),
            pages: 16,
            page_size: PageSize::Medium64K, // 1 MiB per request
            window: 1,
            target,
            config: TenantConfig {
                weight: 4,
                ..TenantConfig::default()
            },
        })
        .collect()
}

fn bully_plan() -> TenantPlan {
    TenantPlan {
        tenant: TenantId(99),
        pages: 8,
        page_size: PageSize::Medium64K, // 512 KiB per request
        window: 32,
        target: 0,
        config: TenantConfig {
            weight: 1,
            // DMA transfers are not preemptible and the engine's
            // bandwidth is shared across everything in flight: with no
            // cap the bully keeps 32 transfers active and the good
            // tenants' share collapses. Admission grants the antagonist
            // one engine slot at a time — its interference is bounded
            // by a single 512 KiB transfer's worth of sharing.
            inflight_cap: Some(1),
            ..TenantConfig::default()
        },
    }
}

fn good_p99_ms(outcomes: &[TenantOutcome]) -> f64 {
    // Worst good tenant's p99 — protection must hold for all of them.
    outcomes[..4]
        .iter()
        .map(TenantOutcome::p99_ns)
        .max()
        .unwrap_or(0) as f64
        / 1e6
}

pub(super) fn run() -> Report {
    let target = 200;
    let cost = CostModel::keystone_ii();

    // Scenario 1–3: antagonist protection.
    let baseline = run_mix(&cost, false, &good_plans(target));
    let mut with_bully = good_plans(target);
    with_bully.push(bully_plan());
    let fifo = run_mix(&cost, false, &with_bully);
    let qos = run_mix(&cost, true, &with_bully);

    let p99_base = good_p99_ms(&baseline);
    let p99_fifo = good_p99_ms(&fifo);
    let p99_qos = good_p99_ms(&qos);

    // Scenario 4: 2:1 weights on two saturating tenants.
    let share_target = 400;
    let share_plans = vec![
        TenantPlan {
            tenant: TenantId(1),
            pages: 64,
            page_size: PageSize::Small4K, // 256 KiB
            window: 8,
            target: share_target,
            config: TenantConfig {
                weight: 2,
                ..TenantConfig::default()
            },
        },
        TenantPlan {
            tenant: TenantId(2),
            pages: 64,
            page_size: PageSize::Small4K,
            window: 8,
            target: share_target,
            config: TenantConfig {
                weight: 1,
                ..TenantConfig::default()
            },
        },
    ];
    let share = run_mix(&cost, true, &share_plans);
    // Compare bytes completed while BOTH tenants were still running:
    // cut at the earlier finisher's last completion.
    let cutoff = share
        .iter()
        .map(|o| *o.completion_times.last().expect("targeted tenant ran"))
        .min()
        .expect("two tenants");
    let bytes_at = |o: &TenantOutcome| -> u64 {
        let per_req = o.bytes / o.completed.max(1) as u64;
        o.completion_times.iter().filter(|&&t| t <= cutoff).count() as u64 * per_req
    };
    let (heavy, light) = (bytes_at(&share[0]), bytes_at(&share[1]));
    let share_ratio = heavy as f64 / light.max(1) as f64;

    let mut table = Table::new(
        "E19: multi-tenant QoS under an antagonist (single shared TC)",
        &["scenario", "good p99 ms", "vs baseline", "bully GB moved"],
    );
    let bully_gb = |o: &[TenantOutcome]| -> String {
        o.get(4)
            .map(|b| format!("{:.2}", b.bytes as f64 / 1e9))
            .unwrap_or_else(|| "-".to_owned())
    };
    table.row(&[
        "baseline (no bully)".to_owned(),
        format!("{p99_base:.3}"),
        "1.00x".to_owned(),
        bully_gb(&baseline),
    ]);
    table.row(&[
        "bully, qos off".to_owned(),
        format!("{p99_fifo:.3}"),
        format!("{:.2}x", p99_fifo / p99_base),
        bully_gb(&fifo),
    ]);
    table.row(&[
        "bully, qos on".to_owned(),
        format!("{p99_qos:.3}"),
        format!("{:.2}x", p99_qos / p99_base),
        bully_gb(&qos),
    ]);
    table.row(&[
        "2:1 weights share".to_owned(),
        format!("{share_ratio:.2}:1"),
        "-".to_owned(),
        "-".to_owned(),
    ]);

    // The acceptance bars.
    assert!(
        p99_fifo >= 4.0 * p99_base,
        "FIFO under the bully must inflate good p99 at least 4x: \
         {p99_fifo:.3} ms vs {p99_base:.3} ms"
    );
    assert!(
        p99_qos <= 2.0 * p99_base,
        "QoS must hold good p99 within 2x of the uncontended baseline: \
         {p99_qos:.3} ms vs {p99_base:.3} ms"
    );
    assert!(
        share_ratio >= 1.6,
        "2:1 weights must yield at least a 1.6:1 byte share: {share_ratio:.2}:1"
    );
    for (i, o) in qos.iter().take(4).enumerate() {
        assert!(
            o.completed >= target,
            "good tenant {i} starved under QoS: {o:?}"
        );
    }

    Report {
        tables: vec![("e19_qos", table)],
        note: format!(
            "Shape checks: the bully inflates unprotected good-tenant p99 \
             {:.1}x; weighted-fair DRR plus a single-slot admission cap pulls it \
             back to {:.2}x of baseline while the bully still moves {} GB; \
             2:1 weights split the pipe {share_ratio:.2}:1.",
            p99_fifo / p99_base,
            p99_qos / p99_base,
            bully_gb(&qos),
        ),
    }
}
