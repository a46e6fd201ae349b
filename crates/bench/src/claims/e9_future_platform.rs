//! E9: the paper's forward-looking prediction, tested.
//!
//! §6.7: "We expect the limitations to disappear from emerging
//! platforms as large fast memory and medium/large pages become
//! pervasive. For instance, fast memory is expected to be as large as
//! 1/8 of the main memory. With them, memif will substantially benefit
//! a much wider range of applications."
//!
//! This entry runs the Table 4 streaming workloads on three platforms:
//!
//! 1. **KeyStone II** as evaluated (6 MiB fast bank, 4 KiB pages);
//! 2. the same machine with **medium (64 KiB) pages** available to the
//!    runtime — the per-page driver cost amortizes 16×;
//! 3. a **future platform**: fast memory = 1/8 of an 8 GiB main memory
//!    (1 GiB, die-stacked-DRAM-like bandwidth) *and* 64 KiB pages, with
//!    a correspondingly faster DMA path.
//!
//! Gate: for every kernel, memif gains over Linux on KeyStone II at
//! 4 KiB pages, gains more at 64 KiB pages, and more again on the
//! future platform.

use memif::{NodeId, System};
use memif_hwsim::{CostModel, MemoryKind, MemoryNode, PhysAddr, TierRank, Topology};
use memif_mm::PageSize;
use memif_runtime::Placement;
use memif_workloads::table4_kernels;

use super::tab4_streaming::run_kernel;
use super::Report;
use crate::{mbs, Table};

fn future_topology() -> Topology {
    Topology::must_custom(
        vec![
            MemoryNode {
                id: NodeId(0),
                name: "ddr4".to_owned(),
                kind: MemoryKind::Slow,
                tier: TierRank(1),
                base: PhysAddr::new(0x8_0000_0000),
                bytes: 8 << 30,
                bandwidth_gbps: 6.2,
                boot_visible: true,
            },
            MemoryNode {
                id: NodeId(1),
                name: "stacked-dram".to_owned(),
                kind: MemoryKind::Fast,
                tier: TierRank(0),
                base: PhysAddr::new(0x0C00_0000),
                bytes: 1 << 30, // 1/8 of main memory, as the paper expects
                bandwidth_gbps: 48.0,
                boot_visible: false,
            },
        ],
        4,
    )
}

fn future_cost() -> CostModel {
    // Same software stack; the hardware path to the stacked DRAM is
    // wider (the EDMA successor sustains more m2m bandwidth), and the
    // CPUs stream faster from it.
    CostModel {
        name: "future-platform".to_owned(),
        dma_engine_bw_gbps: 5.5,
        cpu_stream_fast_gbps: 16.0,
        ..CostModel::keystone_ii()
    }
}

pub(super) fn run() -> Report {
    let mut table = Table::new(
        "E9: the paper's future-platform prediction (workload MB/s)",
        &["kernel", "platform", "linux", "memif", "gain"],
    );
    /// A row label, the machine, and the runtime's page size.
    type Platform = (&'static str, fn() -> System, PageSize);
    let future = || System::with_profile(future_topology(), future_cost());
    let platforms: [Platform; 3] = [
        ("keystone-ii / 4KB", System::keystone_ii, PageSize::Small4K),
        (
            "keystone-ii / 64KB",
            System::keystone_ii,
            PageSize::Medium64K,
        ),
        ("future (1GiB fast) / 64KB", future, PageSize::Medium64K),
    ];

    for kernel in table4_kernels() {
        let mut last_gain = 0.0;
        for (name, system, page_size) in platforms {
            let gbps =
                |placement| run_kernel(system(), placement, page_size, kernel.clone()).traffic_gbps;
            let linux = gbps(Placement::SlowOnly);
            let memif_run = gbps(Placement::MemifPrefetch);
            let gain = memif_run / linux - 1.0;
            // Each step down the list (64 KiB pages, then the future
            // platform) lifts the kernel's gain.
            assert!(
                gain > last_gain,
                "{} on {name}: gain {:+.1}% does not exceed the previous platform's",
                kernel.name,
                gain * 100.0
            );
            last_gain = gain;
            table.row(&[
                kernel.name.clone(),
                name.to_owned(),
                mbs(linux),
                mbs(memif_run),
                format!("{:+.1}%", gain * 100.0),
            ]);
        }
    }

    Report {
        tables: vec![("future_platform", table)],
        note: "Prediction check (§6.7): moving from 4 KiB to 64 KiB pages amortizes the\n\
               per-page driver cost 16x and lifts every gain; the future platform's wider\n\
               fast-memory path lifts them further. memif's benefit widens exactly as the\n\
               authors expected."
            .to_owned(),
    }
}
