//! Ablations of the design choices called out in DESIGN.md.
//!
//! * `descriptor-reuse` (A1, §5.3): chain reuse on/off.
//! * `gang-lookup` (A2, §5.1): gang vs per-page vertical walks.
//! * `race-mode` (A3, §5.2): detection vs Linux-style prevention, and
//!   the proceed-and-recover alternative.
//! * `poll-threshold` (A4, §5.4): interrupt/poll switch point.
//! * `pipeline-depth` (A5): transfers kept in flight per device — 1 is
//!   strictly serial service, 2 overlaps the next request's CPU
//!   preparation with the current DMA transfer.
//!
//! Run all with no argument, or pass one name.

use memif::{MemifConfig, RaceMode};
use memif_bench::{stream, StreamSpec, Table};
use memif_hwsim::CostModel;
use memif_mm::PageSize;
use memif_workloads::ShapeKind;

fn throughput(config: MemifConfig, kind: ShapeKind, pages: u32) -> f64 {
    let cost = CostModel::keystone_ii();
    let count = ((32u64 << 20) / (u64::from(pages) * 4096)).clamp(16, 256) as usize;
    stream(StreamSpec {
        cost: cost.clone(),
        config,
        kind,
        page_size: PageSize::Small4K,
        pages,
        count,
        window: 8,
        ..StreamSpec::default()
    })
    .throughput_gbps
}

fn descriptor_reuse() {
    let mut table = Table::new(
        "A1: DMA descriptor-chain reuse (§5.3) — migration throughput (GB/s)",
        &["pages/req", "reuse on", "reuse off", "speedup"],
    );
    for pages in [4u32, 16, 64, 256] {
        let on = throughput(MemifConfig::default(), ShapeKind::Migrate, pages);
        let off = throughput(
            MemifConfig {
                descriptor_reuse: false,
                ..MemifConfig::default()
            },
            ShapeKind::Migrate,
            pages,
        );
        table.row(&[
            pages.to_string(),
            format!("{on:.2}"),
            format!("{off:.2}"),
            format!("{:.2}x", on / off),
        ]);
    }
    table.print();
    table.write_csv("ablation_descriptor_reuse");
}

fn gang_lookup() {
    let mut table = Table::new(
        "A2: gang page lookup (§5.1) — migration throughput (GB/s)",
        &["pages/req", "gang", "per-page", "speedup"],
    );
    for pages in [4u32, 16, 64, 256] {
        let on = throughput(MemifConfig::default(), ShapeKind::Migrate, pages);
        let off = throughput(
            MemifConfig {
                gang_lookup: false,
                ..MemifConfig::default()
            },
            ShapeKind::Migrate,
            pages,
        );
        table.row(&[
            pages.to_string(),
            format!("{on:.2}"),
            format!("{off:.2}"),
            format!("{:.2}x", on / off),
        ]);
    }
    table.print();
    table.write_csv("ablation_gang_lookup");
}

fn race_mode() {
    // Run strictly serial (depth 1) so Release sits on the critical
    // path: with the default pipelining, release costs hide under the
    // next request's preparation and all three modes tie — itself a
    // result worth knowing (see EXPERIMENTS.md).
    let base = MemifConfig {
        pipeline_depth: 1,
        ..MemifConfig::default()
    };
    let mut table = Table::new(
        "A3: race handling (§5.2) — serial migration throughput (GB/s)",
        &[
            "pages/req",
            "detect-fail",
            "detect-recover",
            "prevent (Linux-style)",
        ],
    );
    for pages in [4u32, 16, 64, 256] {
        let detect = throughput(base.clone(), ShapeKind::Migrate, pages);
        let recover = throughput(
            MemifConfig {
                race_mode: RaceMode::DetectRecover,
                ..base.clone()
            },
            ShapeKind::Migrate,
            pages,
        );
        let prevent = throughput(
            MemifConfig {
                race_mode: RaceMode::Prevent,
                ..base.clone()
            },
            ShapeKind::Migrate,
            pages,
        );
        table.row(&[
            pages.to_string(),
            format!("{detect:.2}"),
            format!("{recover:.2}"),
            format!("{prevent:.2}"),
        ]);
    }
    table.print();
    table.write_csv("ablation_race_mode");
}

fn poll_threshold() {
    let mut table = Table::new(
        "A4: kernel-thread poll threshold (§5.4) — 128 x 4-page migrations",
        &[
            "threshold",
            "interrupts",
            "polled",
            "mean latency (us)",
            "throughput (GB/s)",
        ],
    );
    let cost = CostModel::keystone_ii();
    for (name, thr) in [
        ("always-interrupt (0)", Some(0u64)),
        ("512KB (paper)", None),
        ("always-poll (max)", Some(u64::MAX)),
    ] {
        let config = MemifConfig {
            poll_threshold_bytes: thr,
            ..MemifConfig::default()
        };
        let run = stream(StreamSpec {
            cost: cost.clone(),
            config: config.clone(),
            kind: ShapeKind::Migrate,
            page_size: PageSize::Small4K,
            pages: 4,
            count: 128,
            window: 8,
            ..StreamSpec::default()
        });
        let mean = run
            .completion_times
            .iter()
            .map(|t| t.as_ns() as f64)
            .sum::<f64>()
            / run.completion_times.len() as f64
            / 1_000.0;
        table.row(&[
            name.to_owned(),
            run.interrupts.to_string(),
            run.polled.to_string(),
            format!("{mean:.1}"),
            format!("{:.2}", run.throughput_gbps),
        ]);
    }
    table.print();
    table.write_csv("ablation_poll_threshold");
}

fn pipeline_depth() {
    let mut table = Table::new(
        "A5: driver pipeline depth — replication throughput (GB/s)",
        &["pages/req", "depth 1 (serial)", "depth 2", "depth 4"],
    );
    // Depth x pages is capped by the 512-entry PaRAM (depth 4 x 128
    // descriptors fills the pool exactly).
    for pages in [8u32, 32, 128] {
        let cells: Vec<String> = [1usize, 2, 4]
            .iter()
            .map(|&d| {
                let config = MemifConfig {
                    pipeline_depth: d,
                    ..MemifConfig::default()
                };
                format!("{:.2}", throughput(config, ShapeKind::Replicate, pages))
            })
            .collect();
        table.row(&[
            pages.to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);
    }
    table.print();
    table.write_csv("ablation_pipeline_depth");
}

fn main() {
    let arg = std::env::args().nth(1);
    match arg.as_deref() {
        Some("descriptor-reuse") => descriptor_reuse(),
        Some("gang-lookup") => gang_lookup(),
        Some("race-mode") => race_mode(),
        Some("poll-threshold") => poll_threshold(),
        Some("pipeline-depth") => pipeline_depth(),
        Some(other) => {
            eprintln!("unknown ablation '{other}'");
            eprintln!(
                "choices: descriptor-reuse gang-lookup race-mode poll-threshold pipeline-depth"
            );
            std::process::exit(2);
        }
        None => {
            descriptor_reuse();
            gang_lookup();
            race_mode();
            poll_threshold();
            pipeline_depth();
        }
    }
}
