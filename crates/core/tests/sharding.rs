//! Issue-shard equivalence: sharding the staging/submission pair and
//! the kernel worker is a *performance* change, not a semantic one. For
//! any workload, every `issue_shards` x `batch_max` x coalescing
//! configuration must drive each request to the same terminal status
//! and leave physical memory byte-identical to the sequential
//! single-worker path — including under a seeded chaos [`FaultPlan`],
//! where the CPU-copy fallback guarantees termination even when the
//! fault draws land differently across shard interleavings.
//!
//! Two further pins:
//!
//! * explicitly configuring `issue_shards = 1` must reproduce the
//!   default configuration's typed event log verbatim, so the seed
//!   benchmarks cannot drift while the feature is off;
//! * a *cross-shard* overlap (a replicate whose destination collides
//!   with another shard's in-flight migration) must be deferred by the
//!   device-wide span index, counted in `cross_shard_deferred`, and
//!   still retired — the peer-wake path keeps the parked shard live.

mod common;

use common::{assert_matches_sequential, config_for, event_log, op_strategy, plan_strategy};
use common::{PAGE, PAGES};
use memif::{Memif, MemifConfig, MoveSpec, MoveStatus, NodeId, Sim, SimDuration, System};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every sharded configuration — alone and combined with batching
    /// and coalescing — is observationally equivalent to the sequential
    /// single-worker issue path.
    #[test]
    fn sharded_runs_match_sequential(
        ops in proptest::collection::vec(op_strategy(), 1..32),
        plan in plan_strategy(),
    ) {
        assert_matches_sequential(
            &ops,
            plan.as_ref(),
            &[(2, 1, false), (2, 16, true), (4, 1, false), (4, 16, false), (4, 16, true)],
        );
    }
}

/// The feature is invisible while off: explicitly setting
/// `issue_shards = 1` replays the default configuration's event stream
/// verbatim (queue layout, wakeup accounting, event JSON — everything).
#[test]
fn explicit_single_shard_is_event_identical() {
    let default_log = event_log(MemifConfig::default());
    assert!(!default_log.is_empty(), "event log must capture the run");
    assert_eq!(
        default_log,
        event_log(config_for(1, 1, false)),
        "issue_shards=1 must be byte-identical to the default path"
    );
}

/// `kthread_wakeups` counts logical wakeups, not wake *events*: two
/// `KthreadRun` events landing on one shard at the same instant (a
/// retire wake colliding with a peer wake) are one `wake_up()` of an
/// already-running thread and must bump the counter once. Wakes at
/// distinct instants still count separately.
#[test]
fn same_instant_wakeups_count_once() {
    use memif::SimEvent;

    let count_wakeups = |kicks: &[u64]| {
        let mut sys = System::keystone_ii();
        let mut sim = Sim::new();
        let space = sys.new_space();
        // Empty queues: every kick runs a full round that issues
        // nothing, so no `busy_until` early-out hides the double count.
        let memif = Memif::open(&mut sys, space, MemifConfig::default()).unwrap();
        for &at in kicks {
            sim.schedule_after(
                SimDuration::from_ns(at),
                SimEvent::KthreadRun {
                    device: memif.device(),
                    shard: 0,
                },
            );
        }
        sim.run(&mut sys);
        let wakeups = sys.device(memif.device()).unwrap().stats.kthread_wakeups;
        memif.close(&mut sys).unwrap();
        wakeups
    };

    assert_eq!(count_wakeups(&[500, 500]), 1, "same instant: one wakeup");
    assert_eq!(
        count_wakeups(&[500, 500, 500]),
        1,
        "any same-instant pile-up"
    );
    assert_eq!(
        count_wakeups(&[500, 600]),
        2,
        "distinct instants both count"
    );
}

/// The routing hash `submit` uses (kept in lockstep by the assertions
/// in [`cross_shard_overlap_defers_and_retires`]).
fn shard_of(base: u64, shards: usize) -> usize {
    (base.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % shards
}

/// A replicate routed by its *source* region can collide with another
/// shard's in-flight migration through its *destination* — the one
/// overlap affinity routing cannot co-locate. The device-wide span
/// index must defer it (counted as `cross_shard_deferred`), and the
/// peer-wake path must re-run the parked shard once the migration
/// retires, so both requests still reach `Done`.
#[test]
fn cross_shard_overlap_defers_and_retires() {
    const SHARDS: usize = 2;
    let mut sys = System::keystone_ii();
    let mut sim = Sim::new();
    let space = sys.new_space();
    let memif = Memif::open(&mut sys, space, config_for(SHARDS, 1, false)).unwrap();

    // Hunt for two regions whose VMA bases route to different shards.
    let mut on_shard: [Option<memif::VirtAddr>; SHARDS] = [None; SHARDS];
    for _ in 0..16 {
        let va = sys.mmap(space, PAGES, PAGE, NodeId(0)).unwrap();
        on_shard[shard_of(va.as_u64(), SHARDS)].get_or_insert(va);
        if on_shard.iter().all(Option::is_some) {
            break;
        }
    }
    let x = on_shard[0].expect("a region routed to shard 0");
    let y = on_shard[1].expect("a region routed to shard 1");

    // Big enough to hold the migration in flight while the replicate is
    // dequeued; both requests below the descriptor-pool bound.
    memif
        .submit(
            &mut sys,
            &mut sim,
            MoveSpec::migrate(x, PAGES, PAGE, NodeId(1)).with_user_data(1),
        )
        .unwrap();
    memif
        .submit(
            &mut sys,
            &mut sim,
            MoveSpec::replicate(y, x, PAGES, PAGE).with_user_data(2),
        )
        .unwrap();
    sim.run(&mut sys);

    let stats = &sys.device(memif.device()).unwrap().stats;
    assert_eq!(stats.completed, 2, "both requests must retire");
    assert_eq!(stats.failed, 0);
    assert!(
        stats.cross_shard_deferred >= 1,
        "the dst-overlapping replicate must be deferred across shards \
         (deferred={}, cross={})",
        stats.requests_deferred,
        stats.cross_shard_deferred
    );
    let mut statuses = Vec::new();
    while let Some(c) = memif.retrieve_completed(&mut sys).unwrap() {
        statuses.push((c.user_data, c.status.0));
    }
    statuses.sort_unstable_by_key(|(cookie, _)| *cookie);
    assert_eq!(
        statuses,
        vec![(1, MoveStatus::Done), (2, MoveStatus::Done)],
        "overlap must serialize, not fail"
    );
    memif.close(&mut sys).unwrap();
}
