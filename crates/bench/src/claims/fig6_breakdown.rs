//! Figure 6: time breakdown (columns) and CPU usage (lines) in
//! fulfilling a single `mov_req`, per page size (4 KB / 64 KB / 2 MB)
//! and pages-per-request.
//!
//! Three systems, as in the paper: Linux page migration, memif
//! migration, and memif replication. Times are per-phase microseconds;
//! CPU usage is busy-time over the request's wall time (1.0 = one core
//! saturated — the synchronous Linux path by construction).
//!
//! Gates (abstract: "memif reduces CPU usage by up to 15% for small
//! pages and by up to 38× for large pages"): at 4 KB × 64 memif uses
//! less CPU than Linux but more than half as much; at 2 MB × 4 the
//! reduction exceeds 20×.

use memif_hwsim::{CostModel, Phase};
use memif_mm::PageSize;
use memif_workloads::ShapeKind;

use super::Report;
use crate::{probe_linux_once, probe_memif_once, Table};

pub(super) fn run() -> Report {
    let cost = CostModel::keystone_ii();
    let sweeps: &[(PageSize, &str, &[u32])] = &[
        (PageSize::Small4K, "fig6_4KB", &[1, 4, 16, 64, 256]),
        (PageSize::Medium64K, "fig6_64KB", &[1, 4, 16, 64]),
        (PageSize::Large2M, "fig6_2MB", &[1, 4, 16]),
    ];

    let mut tables = Vec::new();
    for &(page_size, csv, page_counts) in sweeps {
        let mut table = Table::new(
            format!("Figure 6: single mov_req breakdown — {page_size} pages"),
            &[
                "pages",
                "system",
                "prep",
                "remap",
                "dma-cfg",
                "copy",
                "release",
                "notify",
                "iface",
                "cache",
                "total(us)",
                "cpu",
            ],
        );
        for &pages in page_counts {
            let linux = probe_linux_once(&cost, page_size, pages);
            let memif = |kind| probe_memif_once(&cost, kind, page_size, pages);
            let (mig, rep) = (memif(ShapeKind::Migrate), memif(ShapeKind::Replicate));
            match (page_size, pages) {
                (PageSize::Small4K, 64) => {
                    // Small pages: a modest reduction (memif still does
                    // per-page VM work).
                    assert!(
                        mig.cpu_usage < linux.cpu_usage,
                        "memif uses less CPU at 4KB"
                    );
                    assert!(
                        mig.cpu_usage > linux.cpu_usage * 0.5,
                        "at 4KB the reduction is modest (paper: up to 15%)"
                    );
                }
                (PageSize::Large2M, 4) => {
                    // Large pages: an order-of-magnitude-plus reduction.
                    let factor = linux.cpu_usage / mig.cpu_usage;
                    assert!(factor > 20.0, "paper: up to 38x; got {factor:.0}x");
                }
                _ => {}
            }
            for (name, probe) in [
                ("linux", &linux),
                ("memif-migrate", &mig),
                ("memif-replicate", &rep),
            ] {
                let us = |p: Phase| format!("{:.1}", probe.phases.get(p).as_us_f64());
                table.row(&[
                    pages.to_string(),
                    name.to_owned(),
                    us(Phase::Prep),
                    us(Phase::Remap),
                    us(Phase::DmaConfig),
                    us(Phase::Copy),
                    us(Phase::Release),
                    us(Phase::Notify),
                    us(Phase::Interface),
                    us(Phase::CacheMaint),
                    format!("{:.1}", probe.wall.as_us_f64()),
                    format!("{:.2}", probe.cpu_usage),
                ]);
            }
        }
        tables.push((csv, table));
    }

    Report {
        tables,
        note: "Shape checks (paper §6.3): memif needs far less CPU; with 4KB pages \
               management overheads dominate, and the paper reports memif at parity or \
               behind at 1 page/request, where this model still leaves it ahead (EXPERIMENTS \
               \"Known deviations\" #2); at 64KB/2MB byte copy dominates and DMA wins \
               everywhere."
            .to_owned(),
    }
}
