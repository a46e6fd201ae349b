//! E10: throughput under injected DMA faults (degraded-mode study).
//!
//! Repeats the Figure 8 replication/migration workload (4 KB pages,
//! 64 pages per request) while a seeded [`FaultPlan`] errors out a
//! fraction of DMA transfers mid-flight. The hardened driver re-issues
//! each failed transfer up to `max_dma_retries` times with exponential
//! backoff and then falls back to the costed CPU copy (4 µs/page), so
//! every request still completes — the study measures how much
//! throughput survives as the error rate grows.
//!
//! Expected shape: at 1e-4 the retry path absorbs nearly everything and
//! throughput stays within a few percent of fault-free; at 1e-2 repeated
//! retries and CPU-copy fallbacks cost real bandwidth, but *zero*
//! requests are lost or wedged.

use memif::{FaultPlan, MemifConfig};
use memif_hwsim::CostModel;
use memif_mm::PageSize;
use memif_workloads::ShapeKind;

use super::Report;
use crate::{stream, StreamSpec, Table};

const SEED: u64 = 0xE10;
const PAGE: PageSize = PageSize::Small4K;
const PAGES: u32 = 64;
const WINDOW: usize = 8;

pub(super) fn run() -> Report {
    let cost = CostModel::keystone_ii();
    let bytes_per_req = u64::from(PAGES) * PAGE.bytes();
    let count = ((64u64 << 20) / bytes_per_req).clamp(24, 512) as usize;
    let spec = |kind| StreamSpec {
        cost: cost.clone(),
        kind,
        page_size: PAGE,
        pages: PAGES,
        count,
        window: WINDOW,
        ..StreamSpec::default()
    };

    let mut table = Table::new(
        "E10: throughput under injected DMA errors (4K x 64 pages/req)",
        &[
            "shape",
            "error-rate",
            "GB/s",
            "retained",
            "retries",
            "fallbacks",
            "failed",
        ],
    );
    for kind in [ShapeKind::Replicate, ShapeKind::Migrate] {
        let shape = format!("{kind:?}").to_lowercase();
        // Fault-free baseline for the "retained" column.
        let base = stream(spec(kind));
        for rate in [0.0, 1e-4, 1e-3, 1e-2] {
            let run = stream(StreamSpec {
                faults: (rate > 0.0).then(|| FaultPlan::dma_errors(SEED, rate)),
                ..spec(kind)
            });
            assert_eq!(run.failed, 0, "CPU fallback must keep requests succeeding");
            table.row(&[
                shape.clone(),
                format!("{rate:.0e}"),
                format!("{:.2}", run.throughput_gbps),
                format!("{:.1}%", 100.0 * run.throughput_gbps / base.throughput_gbps),
                run.retries.to_string(),
                run.fallbacks.to_string(),
                run.failed.to_string(),
            ]);
        }
    }

    // Second study: fault modes beyond clean error interrupts, on the
    // replication workload. Dropped completions exercise the watchdog;
    // the no-retry configuration forces the CPU-copy fallback so its
    // costed degradation is visible in the throughput column.
    let base = stream(spec(ShapeKind::Replicate));
    let drops = FaultPlan {
        drop_rate: 1e-3,
        ..FaultPlan::new(SEED)
    };
    let mix = FaultPlan {
        dma_error_rate: 1e-3,
        drop_rate: 1e-3,
        delay_rate: 1e-2,
        desc_exhaust_rate: 1e-2,
        ..FaultPlan::new(SEED)
    };
    let no_retry = MemifConfig {
        max_dma_retries: 0,
        ..MemifConfig::default()
    };
    let scenarios = [
        ("dropped-irqs 1e-3", MemifConfig::default(), drops),
        ("chaos mix", MemifConfig::default(), mix),
        (
            "errors 1e-2, no retries",
            no_retry,
            FaultPlan::dma_errors(SEED, 1e-2),
        ),
    ];
    let mut modes = Table::new(
        "E10b: fault modes, replicate (4K x 64 pages/req)",
        &[
            "scenario",
            "GB/s",
            "retained",
            "retries",
            "timeouts",
            "dma-errs",
            "fallbacks",
            "failed",
        ],
    );
    for (name, config, plan) in scenarios {
        let run = stream(StreamSpec {
            config,
            faults: Some(plan),
            ..spec(ShapeKind::Replicate)
        });
        assert_eq!(run.failed, 0, "CPU fallback must keep requests succeeding");
        modes.row(&[
            name.to_owned(),
            format!("{:.2}", run.throughput_gbps),
            format!("{:.1}%", 100.0 * run.throughput_gbps / base.throughput_gbps),
            run.retries.to_string(),
            run.timeouts.to_string(),
            run.dma_errors.to_string(),
            run.fallbacks.to_string(),
            run.failed.to_string(),
        ]);
    }

    Report {
        tables: vec![("e10_degraded", table), ("e10_degraded_modes", modes)],
        note: "Shape checks: throughput retained decreases monotonically-ish with the error \
               rate; rare faults (1e-4) cost almost nothing; all requests complete (failed=0) \
               because exhausted retries degrade to the costed CPU copy instead of dropping \
               the request."
            .to_owned(),
    }
}
