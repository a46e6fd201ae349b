//! §2.2 microbenchmark: Linux page-migration throughput.
//!
//! Paper: "In migrating 1500 4KB pages with one mbind() syscall, a
//! server-class ARM SoC shows a throughput of 0.30 GB/sec. On a 2×8
//! Xeon E5-4650 NUMA machine, the same test shows a throughput of
//! 0.66 GB/sec; even when we migrate 1 million pages in one syscall,
//! the throughput is only 1.41 GB/Sec. All observed throughputs are
//! below 10% of the corresponding memory bandwidths."

use memif_baseline::{run_migspeed, MigspeedConfig};
use memif_hwsim::{CostModel, NodeId, Topology};
use memif_mm::PageSize;

use super::Report;
use crate::Table;

pub(super) fn run() -> Report {
    let mut table = Table::new(
        "Section 2.2: Linux page migration microbenchmark",
        &[
            "platform",
            "pages/syscall",
            "GB/s",
            "us/page",
            "paper GB/s",
            "% of mem bw",
        ],
    );

    let mut arm_topo = Topology::keystone_ii();
    arm_topo.complete_boot();
    let arm = CostModel::keystone_ii();
    let xeon = CostModel::xeon_e5();

    let mut run = |name: &str, cost: &CostModel, pages: u32, batches: u32, paper: &str| {
        let report = run_migspeed(
            &arm_topo,
            cost,
            MigspeedConfig {
                pages_per_syscall: pages.min(1_500),
                batches: batches.max(pages / pages.min(1_500)),
                page_size: PageSize::Small4K,
                from: NodeId(0),
                to: NodeId(1),
            },
        );
        // The paper's point: every throughput is below 10% of the
        // memory bandwidth.
        assert!(
            report.throughput_gbps < 0.1 * cost.slow_bw_gbps,
            "{name} x{pages}: {:.3} GB/s is not below 10% of memory bandwidth",
            report.throughput_gbps
        );
        let pct = report.throughput_gbps / cost.slow_bw_gbps * 100.0;
        table.row(&[
            name.to_owned(),
            pages.to_string(),
            format!("{:.2}", report.throughput_gbps),
            format!("{:.1}", report.per_page_us),
            paper.to_owned(),
            format!("{pct:.1}%"),
        ]);
        report.throughput_gbps
    };

    let arm_gbps = run("keystone-ii (ARM)", &arm, 1_500, 1, "0.30");
    // The ARM SoC migrates 1500 4 KB pages at ≈0.30 GB/s.
    assert!((0.25..0.35).contains(&arm_gbps), "got {arm_gbps:.3}");
    run("xeon-e5-4650", &xeon, 1_500, 1, "0.66");
    // The paper's 1 M-page Xeon case benefits from kernel batching
    // effects our constant-cost model does not capture; we run a scaled
    // 24k-page stand-in and report the model's (flat) number. See
    // EXPERIMENTS.md.
    run("xeon-e5-4650", &xeon, 24_000, 16, "1.41");

    Report {
        tables: vec![("sec2_microbench", table)],
        note: "Check: all throughputs are below 10% of the slow-node bandwidth, the paper's point."
            .to_owned(),
    }
}
