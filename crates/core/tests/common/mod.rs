//! The equivalence runner shared by the batching and sharding suites:
//! an issue-path optimization must drive every request to the same
//! terminal status and leave physical memory byte-identical to the
//! sequential default path, for any workload and fault plan.

use memif::{
    FaultPlan, Memif, MemifConfig, MoveSpec, MoveStatus, NodeId, PageSize, Sim, SimDuration, System,
};
use proptest::prelude::*;

pub const REGIONS: usize = 4;
pub const PAGES: u32 = 8;
pub const PAGE: PageSize = PageSize::Small4K;

#[derive(Debug, Clone)]
pub enum WorkOp {
    /// Migrate region `r` toward fast (`true`) or slow.
    Migrate(usize, bool),
    /// Replicate region `src` into region `dst` (no-op when equal).
    Replicate(usize, usize),
    /// Let the machine run for a bounded slice, so submissions land on
    /// queues of varying depth (solo rounds, partial and full batches,
    /// across all shards).
    RunFor(u32),
}

pub fn op_strategy() -> impl Strategy<Value = WorkOp> {
    prop_oneof![
        ((0..REGIONS), any::<bool>()).prop_map(|(r, f)| WorkOp::Migrate(r, f)),
        ((0..REGIONS), (0..REGIONS)).prop_map(|(a, b)| WorkOp::Replicate(a, b)),
        (1u32..1_500).prop_map(WorkOp::RunFor),
    ]
}

fn rate() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1e-3), Just(1e-2), Just(0.05)]
}

pub fn plan_strategy() -> impl Strategy<Value = Option<FaultPlan>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), rate(), rate(), rate()).prop_map(|(seed, err, drop, exhaust)| {
            Some(FaultPlan {
                seed,
                dma_error_rate: err,
                drop_rate: drop,
                desc_exhaust_rate: exhaust,
                ..FaultPlan::default()
            })
        }),
    ]
}

/// Runs `ops` under `config` and returns (terminal status per cookie,
/// per-page physical-memory checksums). Pages are pre-filled with a
/// position-derived pattern so a misdirected or partially-copied
/// segment shows up in the fingerprint.
///
/// The runner quiesces before submitting a request that touches a
/// region with an outstanding move: concurrent conflicting moves are
/// *races* whose outcome depends on issue timing even in the seed
/// driver (the pipelined plan remaps under the earlier move and
/// `DetectFail` surfaces `Raced`), so no issue-path optimization can —
/// or should — reproduce them. The quiesce decision depends only on
/// the submission history, never on timing, so every configuration
/// sees the identical op stream.
fn run_workload(
    config: MemifConfig,
    plan: Option<&FaultPlan>,
    ops: &[WorkOp],
) -> (Vec<(u64, MoveStatus)>, Vec<u64>) {
    let mut sys = System::keystone_ii();
    let mut sim = Sim::new();
    if let Some(p) = plan {
        sys.install_faults(&mut sim, p.clone());
    }
    let space = sys.new_space();
    let memif = Memif::open(&mut sys, space, config).unwrap();
    let regions: Vec<_> = (0..REGIONS)
        .map(|_| sys.mmap(space, PAGES, PAGE, NodeId(0)).unwrap())
        .collect();
    for (r, va) in regions.iter().enumerate() {
        for i in 0..PAGES {
            let page = va.offset(u64::from(i) * PAGE.bytes());
            let pa = sys.space(space).translate(page).unwrap();
            let pattern = 1 + (r as u8) * 31 + (i as u8) * 7;
            sys.phys.fill(pa, PAGE.bytes(), pattern);
        }
    }

    let mut cookie = 0u64;
    let mut outcomes = Vec::new();
    // Regions with a move submitted since the last full quiesce. Only a
    // quiesce clears it: mid-run completions are timing-dependent and
    // must not influence which ops get submitted.
    let mut outstanding = [false; REGIONS];
    for op in ops {
        let conflicts = |outstanding: &[bool; REGIONS]| match op {
            WorkOp::Migrate(r, _) => outstanding[*r],
            WorkOp::Replicate(a, b) => outstanding[*a] || outstanding[*b],
            WorkOp::RunFor(_) => false,
        };
        if conflicts(&outstanding) {
            sim.run(&mut sys);
            while let Some(c) = memif.retrieve_completed(&mut sys).unwrap() {
                outcomes.push((c.user_data, c.status.0));
            }
            outstanding = [false; REGIONS];
        }
        match op {
            WorkOp::Migrate(r, to_fast) => {
                let node = if *to_fast { NodeId(1) } else { NodeId(0) };
                let spec = MoveSpec::migrate(regions[*r], PAGES, PAGE, node).with_user_data(cookie);
                memif.submit(&mut sys, &mut sim, spec).unwrap();
                cookie += 1;
                outstanding[*r] = true;
            }
            WorkOp::Replicate(a, b) => {
                if a != b {
                    let spec = MoveSpec::replicate(regions[*a], regions[*b], PAGES, PAGE)
                        .with_user_data(cookie);
                    memif.submit(&mut sys, &mut sim, spec).unwrap();
                    cookie += 1;
                    outstanding[*a] = true;
                    outstanding[*b] = true;
                }
            }
            WorkOp::RunFor(us) => {
                let until = sim.now() + SimDuration::from_us(u64::from(*us));
                sim.run_until(&mut sys, until);
            }
        }
        while let Some(c) = memif.retrieve_completed(&mut sys).unwrap() {
            outcomes.push((c.user_data, c.status.0));
        }
    }
    sim.run(&mut sys);
    while let Some(c) = memif.retrieve_completed(&mut sys).unwrap() {
        outcomes.push((c.user_data, c.status.0));
    }
    outcomes.sort_unstable_by_key(|(cookie, _)| *cookie);

    let mut fingerprint = Vec::with_capacity(REGIONS * PAGES as usize);
    for va in &regions {
        for i in 0..PAGES {
            let page = va.offset(u64::from(i) * PAGE.bytes());
            let pa = sys.space(space).translate(page).expect("page still mapped");
            fingerprint.push(sys.phys.checksum(pa, PAGE.bytes()));
        }
    }
    memif.close(&mut sys).unwrap();
    (outcomes, fingerprint)
}

/// The sequential default path, with only the issue-path knobs changed.
pub fn config_for(issue_shards: usize, batch_max: usize, coalesce: bool) -> MemifConfig {
    MemifConfig {
        issue_shards,
        batch_max,
        coalesce,
        ..MemifConfig::default()
    }
}

/// Runs `ops` under the default configuration and under each of
/// `variants`, and asserts every variant reproduces the default run's
/// terminal statuses and final memory.
pub fn assert_matches_sequential(
    ops: &[WorkOp],
    plan: Option<&FaultPlan>,
    variants: &[(usize, usize, bool)],
) {
    let (base_status, base_mem) = run_workload(MemifConfig::default(), plan, ops);
    for &(shards, batch_max, coalesce) in variants {
        let (status, mem) = run_workload(config_for(shards, batch_max, coalesce), plan, ops);
        assert_eq!(
            status, base_status,
            "terminal statuses diverged at shards={shards} batch_max={batch_max} \
             coalesce={coalesce}"
        );
        assert_eq!(
            mem, base_mem,
            "final memory diverged at shards={shards} batch_max={batch_max} \
             coalesce={coalesce}"
        );
    }
}

/// The typed event log of four back-to-back migrations under `config`.
/// A feature that is off must reproduce the default configuration's log
/// verbatim.
pub fn event_log(config: MemifConfig) -> Vec<String> {
    let mut sys = System::keystone_ii();
    sys.enable_event_log();
    let mut sim = Sim::new();
    let space = sys.new_space();
    let memif = Memif::open(&mut sys, space, config).unwrap();
    for r in 0..REGIONS {
        let va = sys.mmap(space, PAGES, PAGE, NodeId(0)).unwrap();
        memif
            .submit(
                &mut sys,
                &mut sim,
                MoveSpec::migrate(va, PAGES, PAGE, NodeId(1)).with_user_data(r as u64),
            )
            .unwrap();
    }
    sim.run(&mut sys);
    while memif.retrieve_completed(&mut sys).unwrap().is_some() {}
    memif.close(&mut sys).unwrap();
    sys.take_event_log()
}
