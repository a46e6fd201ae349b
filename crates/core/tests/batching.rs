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

mod common;

use common::{assert_matches_sequential, config_for, event_log, op_strategy, plan_strategy};
use common::{PAGE, PAGES};
use memif::{FaultPlan, Memif, MemifConfig, MoveSpec, NodeId, Sim, System};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every batching/coalescing configuration is observationally
    /// equivalent to the sequential issue path.
    #[test]
    fn batched_runs_match_sequential(
        ops in proptest::collection::vec(op_strategy(), 1..32),
        plan in plan_strategy(),
    ) {
        assert_matches_sequential(
            &ops,
            plan.as_ref(),
            &[(1, 1, true), (1, 4, false), (1, 4, true), (1, 16, false), (1, 16, true)],
        );
    }
}

/// The feature is invisible while off: explicitly setting the default
/// knobs replays the default configuration's event stream verbatim.
#[test]
fn explicit_defaults_are_event_identical() {
    let default_log = event_log(MemifConfig::default());
    assert!(!default_log.is_empty(), "event log must capture the run");
    assert_eq!(
        default_log,
        event_log(config_for(1, 1, false)),
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
