//! Batching/coalescing equivalence: the chained-SG issue path is an
//! *optimization*, not a semantic change. For any workload, every
//! `batch_max` x coalescing configuration must drive each request to
//! the same terminal status and leave physical memory byte-identical
//! to the sequential (batch_max=1, no-coalesce) path — including under
//! a seeded chaos [`FaultPlan`], where the CPU-copy fallback guarantees
//! termination even when the fault draws land differently.
//!
//! A second test pins byte-identity harder: explicitly configuring the
//! defaults (`batch_max=1`, `coalesce=false`) must reproduce the
//! default configuration's typed event log verbatim, so the seed
//! benchmarks cannot drift while the feature is off.

use memif::{
    FaultPlan, Memif, MemifConfig, MoveSpec, MoveStatus, NodeId, PageSize, Sim, SimDuration, System,
};
use proptest::prelude::*;

const REGIONS: usize = 4;
const PAGES: u32 = 8;
const PAGE: PageSize = PageSize::Small4K;

#[derive(Debug, Clone)]
enum WorkOp {
    /// Migrate region `r` toward fast (`true`) or slow.
    Migrate(usize, bool),
    /// Replicate region `src` into region `dst` (no-op when equal).
    Replicate(usize, usize),
    /// Let the machine run for a bounded slice, so submissions land on
    /// queues of varying depth (solo rounds, partial and full batches).
    RunFor(u32),
}

fn op_strategy() -> impl Strategy<Value = WorkOp> {
    prop_oneof![
        ((0..REGIONS), any::<bool>()).prop_map(|(r, f)| WorkOp::Migrate(r, f)),
        ((0..REGIONS), (0..REGIONS)).prop_map(|(a, b)| WorkOp::Replicate(a, b)),
        (1u32..1_500).prop_map(WorkOp::RunFor),
    ]
}

fn rate() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1e-3), Just(1e-2), Just(0.05)]
}

fn plan_strategy() -> impl Strategy<Value = Option<FaultPlan>> {
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

fn config_for(batch_max: usize, coalesce: bool) -> MemifConfig {
    MemifConfig {
        batch_max,
        coalesce,
        ..MemifConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every batching/coalescing configuration is observationally
    /// equivalent to the sequential issue path.
    #[test]
    fn batched_runs_match_sequential(
        ops in proptest::collection::vec(op_strategy(), 1..32),
        plan in plan_strategy(),
    ) {
        let (base_status, base_mem) =
            run_workload(config_for(1, false), plan.as_ref(), &ops);
        for (batch_max, coalesce) in
            [(1, true), (4, false), (4, true), (16, false), (16, true)]
        {
            let (status, mem) =
                run_workload(config_for(batch_max, coalesce), plan.as_ref(), &ops);
            prop_assert_eq!(
                &status, &base_status,
                "terminal statuses diverged at batch_max={} coalesce={}",
                batch_max, coalesce
            );
            prop_assert_eq!(
                &mem, &base_mem,
                "final memory diverged at batch_max={} coalesce={}",
                batch_max, coalesce
            );
        }
    }
}

/// The feature is invisible while off: explicitly setting the default
/// knobs replays the default configuration's event stream verbatim.
#[test]
fn explicit_defaults_are_event_identical() {
    let run = |config: MemifConfig| {
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
    };
    let default_log = run(MemifConfig::default());
    let explicit_log = run(config_for(1, false));
    assert!(!default_log.is_empty(), "event log must capture the run");
    assert_eq!(
        default_log, explicit_log,
        "batch_max=1 without coalescing must be byte-identical to the default path"
    );
}

/// A chained batch's completion fans out N same-instant releases; the
/// N worker wakes they schedule collapse to one wheel insert and the
/// rest are counted as saved. Unbatched issue never fans out.
#[test]
fn batch_rearm_counts_saved_inserts_on_fanout() {
    let run = |batch_max: usize| {
        let mut sys = System::keystone_ii();
        let mut sim = Sim::new();
        let space = sys.new_space();
        let memif = Memif::open(
            &mut sys,
            space,
            MemifConfig {
                batch_max,
                ..MemifConfig::default()
            },
        )
        .unwrap();
        for r in 0..8u64 {
            let va = sys.mmap(space, PAGES, PAGE, NodeId(0)).unwrap();
            memif
                .submit(
                    &mut sys,
                    &mut sim,
                    MoveSpec::migrate(va, PAGES, PAGE, NodeId(1)).with_user_data(r),
                )
                .unwrap();
        }
        sim.run(&mut sys);
        let stats = &sys.device(memif.device()).unwrap().stats;
        assert_eq!(stats.completed, 8, "all moves retire");
        stats.timer_rearm_saved
    };
    assert_eq!(run(1), 0, "one request per wake schedules no duplicates");
    assert!(
        run(16) > 0,
        "a batch fan-out must save duplicate timer rearms"
    );
}

/// `max_dma_retries = 0` forbids every retry, batched or not: with the
/// descriptor pool always exhausted each request goes straight to the
/// CPU-copy fallback. A batch is a group of solo requests sharing one
/// chain, so the budget applies per member exactly as it does at
/// `batch_max = 1`.
#[test]
fn zero_retry_budget_holds_for_batched_requests() {
    let run = |batch_max: usize| {
        let mut sys = System::keystone_ii();
        let mut sim = Sim::new();
        sys.install_faults(
            &mut sim,
            FaultPlan {
                seed: 7,
                desc_exhaust_rate: 1.0,
                ..FaultPlan::default()
            },
        );
        let space = sys.new_space();
        let memif = Memif::open(
            &mut sys,
            space,
            MemifConfig {
                batch_max,
                max_dma_retries: 0,
                ..MemifConfig::default()
            },
        )
        .unwrap();
        for r in 0..8u64 {
            let va = sys.mmap(space, 4, PAGE, NodeId(0)).unwrap();
            memif
                .submit(
                    &mut sys,
                    &mut sim,
                    MoveSpec::migrate(va, 4, PAGE, NodeId(1)).with_user_data(r),
                )
                .unwrap();
        }
        sim.run(&mut sys);
        let stats = &sys.device(memif.device()).unwrap().stats;
        (stats.retries, stats.fallbacks, stats.completed)
    };
    for batch_max in [1, 4] {
        assert_eq!(
            run(batch_max),
            (0, 8, 8),
            "(retries, fallbacks, completed) at batch_max={batch_max}"
        );
    }
}
