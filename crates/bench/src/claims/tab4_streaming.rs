//! Table 4: throughputs of streaming workloads on the mini runtime.
//!
//! Three kernels (StreamCluster.pgain, STREAM.triad, STREAM.add) run
//! twice each: with all data in slow memory ("Linux") and with the
//! memif-backed prefetch-buffer runtime ("Memif"). Paper numbers:
//!
//! |       | pgain  | triad  | add    |
//! |-------|--------|--------|--------|
//! | Linux | 1440.1 | 2384.1 | 2390.1 |
//! | Memif | 1778.4 | 3184.4 | 3186.9 |
//!
//! Gate (§6.6): every kernel's gain lies in [10%, 55%), the paper's
//! 20–35% neighbourhood.

use memif::{Memif, MemifConfig, Sim, System};
use memif_mm::PageSize;
use memif_runtime::{KernelProfile, Placement, StreamConfig, StreamReport, StreamRuntime};
use memif_workloads::table4_kernels;

use super::Report;
use crate::{mbs, Table};

/// Runs `kernel` over 64 MiB of input on `sys` with its data placed by
/// `placement`. The buffer array stays 8 × 256 KiB = 2 MiB at any page
/// size, so it fits the capacity-limited fast bank, as in the paper.
pub(super) fn run_kernel(
    mut sys: System,
    placement: Placement,
    page_size: PageSize,
    kernel: KernelProfile,
) -> StreamReport {
    let mut sim = Sim::new();
    let space = sys.new_space();
    let memif = match placement {
        Placement::MemifPrefetch => {
            Some(Memif::open(&mut sys, space, MemifConfig::default()).unwrap())
        }
        Placement::SlowOnly => None,
    };
    let config = StreamConfig {
        placement,
        page_size,
        buffer_pages: ((2u64 << 20) / 8 / page_size.bytes()) as u32,
        num_buffers: 8,
        total_input: 64 << 20,
        ..StreamConfig::default()
    };
    let rt = StreamRuntime::launch(&mut sys, &mut sim, space, memif, config, kernel);
    sim.run(&mut sys);
    rt.report()
}

pub(super) fn run() -> Report {
    let paper: &[(&str, f64, f64)] = &[
        ("StreamCluster.pgain", 1440.1, 1778.4),
        ("STREAM.triad", 2384.1, 3184.4),
        ("STREAM.add", 2390.1, 3186.9),
    ];

    let mut table = Table::new(
        "Table 4: streaming workload throughputs (MB/s)",
        &[
            "kernel",
            "linux",
            "memif",
            "gain",
            "paper-linux",
            "paper-memif",
            "paper-gain",
            "fallback%",
        ],
    );
    for (kernel, (_, p_linux, p_memif)) in table4_kernels().into_iter().zip(paper) {
        let run = |placement| {
            run_kernel(
                System::keystone_ii(),
                placement,
                PageSize::Small4K,
                kernel.clone(),
            )
        };
        let linux = run(Placement::SlowOnly);
        let memif_run = run(Placement::MemifPrefetch);
        let gain = memif_run.traffic_gbps / linux.traffic_gbps - 1.0;
        assert!(
            (0.10..0.55).contains(&gain),
            "{}: gain {:.1}% outside the paper's 20–35% neighborhood",
            kernel.name,
            gain * 100.0
        );
        let paper_gain = p_memif / p_linux - 1.0;
        table.row(&[
            kernel.name.clone(),
            mbs(linux.traffic_gbps),
            mbs(memif_run.traffic_gbps),
            format!("{:+.1}%", gain * 100.0),
            format!("{p_linux:.1}"),
            format!("{p_memif:.1}"),
            format!("{:+.1}%", paper_gain * 100.0),
            format!(
                "{:.0}%",
                memif_run.fallback_bytes as f64 / memif_run.input_bytes.max(1) as f64 * 100.0
            ),
        ]);
    }

    Report {
        tables: vec![("tab4_streaming", table)],
        note: "Shape checks: every kernel gains from the memif runtime; the bandwidth-bound \
               STREAM kernels gain the most; pgain's compute share caps its improvement."
            .to_owned(),
    }
}
