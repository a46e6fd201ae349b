//! E12: request batching and segment coalescing in the DMA issue path.
//!
//! Sweeps `batch_max` x coalescing over the Figure 8 streaming workload
//! (4 KB pages, 16 pages per request, a deep submission window so the
//! kernel thread actually finds compatible neighbors to drain). Regions
//! come from the harness's fresh per-request mmaps, so each request's
//! frames are physically ascending-contiguous — the best case the
//! EDMA3's PaRAM sets were built for.
//!
//! The study measures *issue-side CPU*: the DmaConfig + Interface phase
//! time the driver spends programming descriptors and crossing the
//! user/kernel boundary. Batching amortizes the crossing and the
//! completion interrupt over the whole batch; coalescing collapses each
//! run of contiguous pages into one descriptor so the uncached PaRAM
//! writes shrink with it.
//!
//! Expected shape: batch_max=1 without coalescing reproduces the seed
//! driver exactly (same descriptors, same interrupts). At batch_max=16
//! with coalescing the issue-side CPU drops by well over 2x while
//! throughput holds and every request still reaches the same terminal
//! state — including under an injected DMA error rate (E12b).

use memif::{FaultPlan, MemifConfig, Phase, SimDuration};
use memif_hwsim::CostModel;
use memif_mm::PageSize;
use memif_workloads::ShapeKind;

use super::Report;
use crate::{stream, StreamResult, StreamSpec, Table};

const SEED: u64 = 0xE12;
const PAGE: PageSize = PageSize::Small4K;
const PAGES: u32 = 16;
const WINDOW: usize = 32;

fn config(batch_max: usize, coalesce: bool) -> MemifConfig {
    MemifConfig {
        batch_max,
        coalesce,
        ..MemifConfig::default()
    }
}

fn issue_cpu(run: &StreamResult) -> SimDuration {
    run.stats.phases.get(Phase::DmaConfig) + run.stats.phases.get(Phase::Interface)
}

pub(super) fn run() -> Report {
    let cost = CostModel::keystone_ii();
    let bytes_per_req = u64::from(PAGES) * PAGE.bytes();
    let count = ((64u64 << 20) / bytes_per_req).clamp(64, 1024) as usize;
    let spec = |kind, batch, coalesce| StreamSpec {
        cost: cost.clone(),
        config: config(batch, coalesce),
        kind,
        page_size: PAGE,
        pages: PAGES,
        count,
        window: WINDOW,
        ..StreamSpec::default()
    };

    let mut table = Table::new(
        "E12: issue-side cost vs batch_max x coalescing (4K x 16 pages/req)",
        &[
            "shape",
            "batch",
            "coalesce",
            "GB/s",
            "issue-cpu-us",
            "vs-base",
            "descs",
            "coalesced",
            "batched",
            "irqs+polls",
        ],
    );
    for kind in [ShapeKind::Replicate, ShapeKind::Migrate] {
        let shape = format!("{kind:?}").to_lowercase();
        let mut base_issue = SimDuration::ZERO;
        let mut base_bytes = 0u64;
        let mut best_issue = SimDuration::ZERO;
        for (batch, coalesce) in [1, 4, 16].into_iter().flat_map(|b| [(b, false), (b, true)]) {
            let run = stream(spec(kind, batch, coalesce));
            let issue = issue_cpu(&run);
            if batch == 1 && !coalesce {
                base_issue = issue;
                base_bytes = run.stats.bytes_moved;
            } else {
                assert_eq!(
                    run.stats.bytes_moved, base_bytes,
                    "batched/coalesced runs must move the same bytes"
                );
            }
            if batch == 16 && coalesce {
                best_issue = issue;
            }
            table.row(&[
                shape.clone(),
                batch.to_string(),
                coalesce.to_string(),
                format!("{:.2}", run.throughput_gbps),
                format!("{:.1}", issue.as_ns() as f64 / 1e3),
                format!(
                    "{:.2}x",
                    base_issue.as_ns() as f64 / issue.as_ns().max(1) as f64
                ),
                run.stats.descriptors_written.to_string(),
                run.stats.segments_coalesced.to_string(),
                run.stats.requests_batched.to_string(),
                (run.stats.interrupts + run.stats.polled).to_string(),
            ]);
        }
        // The acceptance bar: batching + coalescing must at least halve
        // the issue-side CPU on the contiguous-frame workload.
        assert!(
            best_issue.as_ns() * 2 <= base_issue.as_ns(),
            "{shape}: batch 16 + coalesce issue cpu {best_issue} must be \
             <= half of the sequential path's {base_issue}"
        );
    }

    // E12b: the same batched configuration under injected DMA errors.
    // Mid-chain failures must be attributed per request — only requests
    // whose segments had not completed retry (or degrade to the CPU
    // copy); finished batch members keep their success.
    let mut chaos = Table::new(
        "E12b: batch 16 + coalesce under injected DMA errors (replicate)",
        &[
            "error-rate",
            "GB/s",
            "retries",
            "fallbacks",
            "batched",
            "failed",
        ],
    );
    for rate in [1e-4, 1e-3, 1e-2] {
        let run = stream(StreamSpec {
            faults: Some(FaultPlan::dma_errors(SEED, rate)),
            ..spec(ShapeKind::Replicate, 16, true)
        });
        let st = &run.stats;
        assert_eq!(st.failed, 0, "CPU fallback must keep requests succeeding");
        chaos.row(&[
            format!("{rate:.0e}"),
            format!("{:.2}", run.throughput_gbps),
            st.retries.to_string(),
            st.fallbacks.to_string(),
            st.requests_batched.to_string(),
            st.failed.to_string(),
        ]);
    }

    Report {
        tables: vec![("e12_batching", table), ("e12_batching_chaos", chaos)],
        note: "Shape checks: batch 1 without coalescing matches the seed driver; the \
               issue-side CPU (descriptor programming + crossings) falls superlinearly as \
               batching amortizes the ioctl/interrupt pair and coalescing collapses each \
               16-page run into one PaRAM set; all configurations move identical bytes and \
               lose zero requests, with or without injected DMA errors."
            .to_owned(),
    }
}
