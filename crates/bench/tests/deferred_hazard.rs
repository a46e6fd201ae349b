//! Issue-time overlap hazard guard regression (found by chaos testing).
//!
//! A batched migrate stream whose combined completion interrupt is lost
//! leaves 16 requests parked on their (large, combined-byte-scaled)
//! watchdog while younger batches finish. The streaming application
//! legally reuses a region slot as soon as *any* completion frees a
//! window slot, so a new migration of the stuck requests' region
//! arrives while they are still in flight. Without the guard the new
//! request's plan overwrites the stuck request's semi-final PTEs and
//! every member of the stuck batch terminates `Raced`; with it, the
//! conflicting request defers until the in-flight one retires.

use memif::{FaultPlan, MemifConfig};
use memif_bench::{stream, StreamSpec};
use memif_hwsim::CostModel;
use memif_mm::PageSize;
use memif_workloads::ShapeKind;

/// The exact chaos mix that exposed the hazard: 20% mid-flight DMA
/// errors plus 1% lost completion interrupts, seed 9. Deterministic.
#[test]
fn lost_batch_completion_does_not_race_region_reuse() {
    let cost = CostModel::keystone_ii();
    let config = MemifConfig {
        batch_max: 16,
        coalesce: true,
        ..MemifConfig::default()
    };
    let plan = FaultPlan {
        dma_error_rate: 0.2,
        drop_rate: 0.01,
        ..FaultPlan::new(9)
    };
    let run = stream(StreamSpec {
        cost: cost.clone(),
        config,
        kind: ShapeKind::Migrate,
        page_size: PageSize::Small4K,
        pages: 16,
        count: 256,
        window: 32,
        faults: Some(plan),
        ..StreamSpec::default()
    });
    // `stream` itself panics unless every request reaches a terminal
    // state.
    assert_eq!(
        run.stats.failed, 0,
        "a lost completion must never fail requests that only raced \
         with the driver's own recovery"
    );
    assert!(
        run.stats.requests_deferred > 0,
        "the scenario must actually exercise the hazard guard \
         (a region reused while its previous request was in flight)"
    );
}

/// With the submission window comfortably wider than the batch, in-order
/// (fault-free) completions never create an overlap hazard, so the
/// guard is invisible to the default and E12 measurement paths. (A
/// window no wider than the batch *can* defer fault-free: the batch
/// retires its members one release event at a time, and a resubmission
/// landing between two of them overlaps a not-yet-released member —
/// precisely the hazard the guard serializes.)
#[test]
fn fault_free_streams_never_defer() {
    let cost = CostModel::keystone_ii();
    for (batch_max, coalesce) in [(1, false), (16, true)] {
        let config = MemifConfig {
            batch_max,
            coalesce,
            ..MemifConfig::default()
        };
        let run = stream(StreamSpec {
            cost: cost.clone(),
            config,
            kind: ShapeKind::Migrate,
            page_size: PageSize::Small4K,
            pages: 16,
            count: 128,
            window: 32,
            ..StreamSpec::default()
        });
        assert_eq!(run.stats.failed, 0);
        assert_eq!(
            run.stats.requests_deferred, 0,
            "in-order completions never create an overlap hazard"
        );
    }
}
