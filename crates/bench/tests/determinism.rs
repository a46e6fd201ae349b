//! Determinism guarantees for the typed event core.
//!
//! The refactor from opaque closures to typed [`memif::SimEvent`]s is
//! only safe if the simulation stays bit-deterministic: the same seed
//! and fault plan must produce the same event stream, and the default
//! single-controller configuration must reproduce the pre-refactor
//! figures exactly. These tests pin both properties.

use memif::FaultPlan;
use memif_bench::{stream, StreamSpec};
use memif_hwsim::CostModel;
use memif_mm::PageSize;
use memif_policy::{run_scenario, Mode, PolicyStats, ScenarioConfig};
use memif_workloads::ShapeKind;
use proptest::prelude::*;

const PAGE: PageSize = PageSize::Small4K;
const PAGES: u32 = 64;
const WINDOW: usize = 8;
const COUNT: usize = 24;

fn chaos_plan(seed: u64, error: f64, drop: f64, delay: f64) -> FaultPlan {
    FaultPlan {
        dma_error_rate: error,
        drop_rate: drop,
        delay_rate: delay,
        ..FaultPlan::new(seed)
    }
}

proptest! {
    // Each case replays a faulted stream twice from scratch; keep the
    // case count small enough for a debug test run.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed + same fault plan ⇒ byte-identical event logs and
    /// terminal statuses, for any fault mix the generator produces.
    #[test]
    fn same_seed_same_event_log(
        seed in 0u64..1_000,
        error_ppm in 0u32..50_000,
        drop_ppm in 0u32..10_000,
        delay_ppm in 0u32..20_000,
        kind_sel in 0u32..2,
    ) {
        let kind = if kind_sel == 1 { ShapeKind::Migrate } else { ShapeKind::Replicate };
        let plan = chaos_plan(
            seed,
            f64::from(error_ppm) * 1e-6,
            f64::from(drop_ppm) * 1e-6,
            f64::from(delay_ppm) * 1e-6,
        );
        let run = || stream(StreamSpec {
            kind, page_size: PAGE, pages: PAGES, count: COUNT, window: WINDOW,
            faults: Some(plan.clone()), log_events: true, ..StreamSpec::default()
        });
        let (a, b) = (run(), run());
        prop_assert_eq!(&a.events, &b.events, "event logs diverged");
        prop_assert_eq!(&a.statuses, &b.statuses, "terminal statuses diverged");
        prop_assert!(!a.events.is_empty(), "event log must record the run");
    }
}

fn policy_config(mode: Mode, schedule_seed: u64, faults: Option<FaultPlan>) -> ScenarioConfig {
    ScenarioConfig {
        mode,
        seed: schedule_seed,
        phases: 3,
        ticks_per_phase: 16,
        faults,
        log_events: true,
        ..ScenarioConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The policy daemon's epoch loop is deterministic: identical
    /// schedule seeds and fault plans replay to byte-identical event
    /// logs, policy counters, and wall clocks — in both placement
    /// regimes and under chaos.
    #[test]
    fn policy_same_seed_same_event_log(
        schedule_seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
        error_ppm in 0u32..50_000,
        drop_ppm in 0u32..10_000,
        sync_sel in 0u32..2,
    ) {
        let mode = if sync_sel == 1 { Mode::Sync } else { Mode::Async };
        let plan = chaos_plan(fault_seed, f64::from(error_ppm) * 1e-6, f64::from(drop_ppm) * 1e-6, 0.0);
        let cfg = policy_config(mode, schedule_seed, Some(plan));
        let cost = CostModel::keystone_ii();
        let a = run_scenario(&cost, &cfg);
        let b = run_scenario(&cost, &cfg);
        prop_assert_eq!(&a.events, &b.events, "policy event logs diverged");
        prop_assert_eq!(&a.statuses, &b.statuses, "policy terminal statuses diverged");
        prop_assert_eq!(a.policy, b.policy, "policy counters diverged");
        prop_assert_eq!(a.wall, b.wall, "wall clocks diverged");
        prop_assert!(!a.events.is_empty(), "event log must record the run");
    }
}

/// Policy off ([`Mode::None`]) leaves the simulated system exactly as
/// it was before the policy subsystem existed: no memif device is
/// opened, no driver events reach the log (only the application's own
/// hook ticks), and every policy counter stays zero. Together with
/// `golden_single_tc_figures` this pins that the disabled-by-default
/// daemon cannot perturb seed behaviour.
#[test]
fn policy_off_adds_no_driver_events() {
    let cost = CostModel::keystone_ii();
    let r = run_scenario(&cost, &policy_config(Mode::None, 42, None));
    assert_eq!(r.policy, PolicyStats::default());
    assert_eq!(r.driver, memif::DriverStats::default());
    assert!(r.statuses.is_empty());
    assert!(!r.events.is_empty());
    for e in &r.events {
        assert!(
            e.contains("\"type\":\"hook\""),
            "policy-off run logged a non-hook event: {e}"
        );
    }
}

/// `dma_tc_count = 1` (the explicit value) behaves byte-for-byte like
/// the default cost model: the multi-TC scheduler is invisible until
/// more channels are configured.
#[test]
fn explicit_tc1_matches_default() {
    let mut explicit = CostModel::keystone_ii();
    explicit.dma_tc_count = 1;
    let run = |cost| {
        stream(StreamSpec {
            cost,
            page_size: PAGE,
            pages: PAGES,
            count: COUNT,
            window: WINDOW,
            faults: Some(chaos_plan(7, 1e-2, 1e-3, 1e-3)),
            log_events: true,
            ..StreamSpec::default()
        })
    };
    let (a, b) = (run(CostModel::keystone_ii()), run(explicit));
    assert_eq!(a.events, b.events);
    assert_eq!(a.statuses, b.statuses);
}

/// Golden pin: the fault-free single-TC replication figure from the
/// pre-refactor scheduler, to the nanosecond. If this moves, the typed
/// event core changed simulated behaviour, not just representation.
#[test]
fn golden_single_tc_figures() {
    let run = stream(StreamSpec {
        kind: ShapeKind::Replicate,
        page_size: PAGE,
        pages: PAGES,
        count: COUNT,
        window: WINDOW,
        ..StreamSpec::default()
    });
    assert_eq!(run.bytes, u64::from(PAGES) * PAGE.bytes() * COUNT as u64);
    assert_eq!(run.stats.failed, 0);
    assert_eq!(run.wall.as_ns(), GOLDEN_WALL_NS, "wall clock drifted");
}

/// Pinned against the pre-refactor closure scheduler (same inputs);
/// re-pin with `cargo test -p memif-bench print_golden_probe -- --ignored --nocapture`.
const GOLDEN_WALL_NS: u64 = 3_493_595;

#[test]
#[ignore]
fn print_golden_probe() {
    let run = stream(StreamSpec {
        kind: ShapeKind::Replicate,
        page_size: PAGE,
        pages: PAGES,
        count: COUNT,
        window: WINDOW,
        ..StreamSpec::default()
    });
    println!(
        "wall_ns={} gbps={:.6}",
        run.wall.as_ns(),
        run.throughput_gbps
    );
}

/// Four transfer controllers must beat one on aggregate DMA throughput
/// for a deep window of large requests — the whole point of multi-TC
/// dispatch.
#[test]
fn four_tcs_outrun_one() {
    let mut four = CostModel::keystone_ii();
    four.dma_tc_count = 4;
    let run = |cost| {
        stream(StreamSpec {
            cost,
            kind: ShapeKind::Replicate,
            page_size: PAGE,
            pages: 256,
            count: COUNT,
            window: WINDOW,
            ..StreamSpec::default()
        })
    };
    let (a, b) = (run(CostModel::keystone_ii()), run(four));
    assert!(
        b.throughput_gbps > a.throughput_gbps * 1.05,
        "4 TCs ({:.3} GB/s) should clearly beat 1 TC ({:.3} GB/s)",
        b.throughput_gbps,
        a.throughput_gbps
    );
}

/// A bandwidth brownout on the middle tier (DRAM, rank 1 of the
/// four-tier ladder) must degrade the waterfall gracefully — moves
/// route through or wait, every issued hop reaches exactly one
/// terminal status — and deterministically: the run is pinned
/// byte-for-byte by its event trace across replays.
#[test]
fn middle_tier_brownout_replays_byte_identically() {
    use std::collections::HashSet;

    use memif::{Brownout, NodeId, SimDuration, SimTime};

    let browned = ScenarioConfig {
        mode: Mode::Async,
        tiers: 4,
        regions: 24,
        hot: 4,
        warm: 8,
        carry: 2,
        phases: 2,
        ticks_per_phase: 12,
        log_events: true,
        faults: Some(FaultPlan {
            brownouts: vec![Brownout {
                node: NodeId(0),
                start: SimTime::from_ns(1_000_000),
                duration: SimDuration::from_ns(6_000_000),
                factor: 0.2,
            }],
            ..FaultPlan::default()
        }),
        ..ScenarioConfig::default()
    };
    let clean = ScenarioConfig {
        faults: None,
        ..browned.clone()
    };

    let cost = CostModel::keystone_ii();
    let a = run_scenario(&cost, &browned);
    let b = run_scenario(&cost, &browned);

    // Event-trace pin: same config, same bytes.
    assert!(!a.events.is_empty(), "the trace actually recorded");
    assert_eq!(a.events, b.events, "brownout runs must replay identically");
    assert_eq!(a.statuses, b.statuses);
    assert_eq!(a.wall, b.wall);

    // Graceful degradation: the application does all its work, the
    // brownout only slows the middle tier down.
    // (Wall clock is *not* monotone in the fault: throttling a tier
    // redirects the placement trajectory, which can win back more than
    // the lost bandwidth — so only work conservation is asserted.)
    let reference = run_scenario(&cost, &clean);
    assert_eq!(a.ticks, reference.ticks, "no application work lost");
    assert_ne!(
        a.events, reference.events,
        "the brownout must be visible in the trace"
    );

    // Exactly-once: every issued hop reaches one terminal status, and
    // none reaches two.
    let distinct: HashSet<u64> = a.statuses.iter().map(|(id, _)| *id).collect();
    assert_eq!(distinct.len(), a.statuses.len(), "no request retires twice");
    assert_eq!(
        a.statuses.len() as u64,
        a.driver.completed + a.driver.failed,
        "no request is lost: {:?}",
        a.driver
    );
}
