//! E8: multi-application scaling — the evaluation the paper did not run.
//!
//! §6.7: "although by design memif is capable of serving multiple
//! concurrent applications, we have not evaluated the feature." This
//! entry does: N tenants (each its own process, address space, and
//! memif device) stream migrations concurrently; we report per-tenant
//! and aggregate throughput, fairness, and how the shared engine
//! saturates.
//!
//! Gates: every tenant request succeeds and every tenant finishes; the
//! aggregate rises with each tenant added up to four, and every
//! multi-tenant run beats one tenant alone.

use std::cell::RefCell;
use std::rc::Rc;

use memif::{Memif, MemifConfig, MoveSpec, NodeId, PageSize, Sim, SimTime, System, VirtAddr};
use memif_hwsim::CostModel;

use super::Report;
use crate::{bigfast_topology, Table};

const REQUESTS: usize = 64;
const PAGES: u32 = 64; // 256 KiB per request

struct Tenant {
    memif: Memif,
    regions: Vec<(VirtAddr, NodeId)>,
    submitted: usize,
    completed: usize,
    finished_at: SimTime,
}

fn run_tenants(tenants: usize) -> (Vec<f64>, f64, f64) {
    let mut sys = System::with_profile(bigfast_topology(), CostModel::keystone_ii());
    let mut sim = Sim::new();

    let states: Vec<Rc<RefCell<Tenant>>> = (0..tenants)
        .map(|_| {
            let space = sys.new_space();
            let memif = Memif::open(&mut sys, space, MemifConfig::default()).unwrap();
            let regions = (0..2)
                .map(|_| {
                    (
                        sys.mmap(space, PAGES, PageSize::Small4K, NodeId(0))
                            .unwrap(),
                        NodeId(0),
                    )
                })
                .collect();
            Rc::new(RefCell::new(Tenant {
                memif,
                regions,
                submitted: 0,
                completed: 0,
                finished_at: SimTime::ZERO,
            }))
        })
        .collect();

    /// Submits the next migration *for a specific region slot*: a region
    /// must never have two moves in flight (the driver would correctly
    /// flag the overlap as a race), so each completion re-arms only its
    /// own slot.
    fn submit_for_slot(
        t: &Rc<RefCell<Tenant>>,
        slot: usize,
        sys: &mut System,
        sim: &mut Sim<System>,
    ) {
        let (memif, spec) = {
            let mut tt = t.borrow_mut();
            if tt.submitted >= REQUESTS {
                return;
            }
            tt.submitted += 1;
            // Ping-pong the region between nodes 0 and 1.
            let (va, node) = tt.regions[slot];
            let target = NodeId(1 - node.0);
            tt.regions[slot].1 = target;
            (
                tt.memif,
                MoveSpec::migrate(va, PAGES, PageSize::Small4K, target).with_user_data(slot as u64),
            )
        };
        memif.submit(sys, sim, spec).expect("submit");
    }

    fn pump(t: Rc<RefCell<Tenant>>, sys: &mut System, sim: &mut Sim<System>) {
        let memif = t.borrow().memif;
        while let Some(c) = memif.retrieve_completed(sys).expect("retrieve") {
            assert!(c.status.is_ok(), "tenant request failed: {:?}", c.status);
            let mut tt = t.borrow_mut();
            tt.completed += 1;
            if tt.completed == REQUESTS {
                tt.finished_at = sim.now();
            }
            drop(tt);
            submit_for_slot(&t, c.user_data as usize, sys, sim);
        }
        if t.borrow().completed < REQUESTS {
            let t2 = Rc::clone(&t);
            memif
                .poll(sys, sim, move |sys, sim| pump(t2, sys, sim))
                .expect("tenant device open for the run");
        }
    }

    for t in &states {
        submit_for_slot(t, 0, &mut sys, &mut sim);
        submit_for_slot(t, 1, &mut sys, &mut sim);
        pump(Rc::clone(t), &mut sys, &mut sim);
    }
    sim.run(&mut sys);

    let bytes_per_tenant = (REQUESTS as u64) * u64::from(PAGES) * 4096;
    let mut per_tenant = Vec::new();
    let mut end = SimTime::ZERO;
    for t in &states {
        let tt = t.borrow();
        assert_eq!(tt.completed, REQUESTS);
        per_tenant.push(bytes_per_tenant as f64 / tt.finished_at.as_ns() as f64);
        end = end.max(tt.finished_at);
    }
    let aggregate = (bytes_per_tenant * tenants as u64) as f64 / end.as_ns() as f64;
    let fairness = {
        // Jain's fairness index over per-tenant throughputs.
        let s: f64 = per_tenant.iter().sum();
        let s2: f64 = per_tenant.iter().map(|x| x * x).sum();
        s * s / (per_tenant.len() as f64 * s2)
    };
    (per_tenant, aggregate, fairness)
}

pub(super) fn run() -> Report {
    let mut table = Table::new(
        "Multi-tenant scaling: N apps x 64 migrations x 64 pages (4KB)",
        &[
            "tenants",
            "aggregate GB/s",
            "per-tenant GB/s (min..max)",
            "Jain fairness",
        ],
    );
    let mut aggregates = Vec::new();
    for n in [1usize, 2, 3, 4, 6, 8] {
        let (per, agg, fair) = run_tenants(n);
        let min = per.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per.iter().copied().fold(0.0f64, f64::max);
        table.row(&[
            n.to_string(),
            format!("{agg:.2}"),
            format!("{min:.2}..{max:.2}"),
            format!("{fair:.3}"),
        ]);
        aggregates.push(agg);
    }
    assert!(
        aggregates[..4].windows(2).all(|w| w[1] > w[0]),
        "aggregate must rise from 1 to 4 tenants: {aggregates:?}"
    );
    assert!(
        aggregates[1..].iter().all(|&a| a > aggregates[0]),
        "every multi-tenant run must beat one tenant alone: {aggregates:?}"
    );
    Report {
        tables: vec![("multi_tenant_scaling", table)],
        note: "Expected shape: aggregate grows with tenants until the engine's 3 GB/s m2m\n\
               rate (or the per-tenant kthread CPU) saturates; fairness stays near 1.0 —\n\
               per-device queues isolate tenants while the flow network splits bandwidth."
            .to_owned(),
    }
}
