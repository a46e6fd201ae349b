//! Ablations A1–A5 of the design choices called out in DESIGN.md, one
//! claims-table entry each.
//!
//! * A1 (§5.3): descriptor-chain reuse on/off.
//! * A2 (§5.1): gang vs per-page vertical walks.
//! * A3 (§5.2): detection vs Linux-style prevention, and the
//!   proceed-and-recover alternative.
//! * A4 (§5.4): the interrupt/poll switch point.
//! * A5: transfers kept in flight per device — 1 is strictly serial
//!   service, 2 overlaps the next request's CPU preparation with the
//!   current DMA transfer.
//!
//! Gates are orderings only: each design choice beats its ablated
//! alternative, and A4's completion modes follow the threshold.

use memif::{MemifConfig, RaceMode};
use memif_hwsim::CostModel;
use memif_mm::PageSize;
use memif_workloads::ShapeKind;

use super::Report;
use crate::{stream, StreamSpec, Table};

const PAGES: [u32; 4] = [4, 16, 64, 256];

fn throughput(config: MemifConfig, kind: ShapeKind, pages: u32) -> f64 {
    let count = ((32u64 << 20) / (u64::from(pages) * 4096)).clamp(16, 256) as usize;
    stream(StreamSpec {
        cost: CostModel::keystone_ii(),
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

/// A1 and A2: migration throughput with one paper optimization on (the
/// default) and off (`off`); the optimization must win at every size.
fn toggle(title: &str, csv: &'static str, labels: [&str; 2], off: MemifConfig) -> Report {
    let mut table = Table::new(title, &["pages/req", labels[0], labels[1], "speedup"]);
    for pages in PAGES {
        let on = throughput(MemifConfig::default(), ShapeKind::Migrate, pages);
        let off = throughput(off.clone(), ShapeKind::Migrate, pages);
        assert!(
            on > off,
            "{csv} x{pages}: {on:.2} GB/s does not beat {off:.2}"
        );
        table.row(&[
            pages.to_string(),
            format!("{on:.2}"),
            format!("{off:.2}"),
            format!("{:.2}x", on / off),
        ]);
    }
    Report::table(csv, table)
}

pub(super) fn descriptor_reuse() -> Report {
    toggle(
        "A1: DMA descriptor-chain reuse (§5.3) — migration throughput (GB/s)",
        "ablation_descriptor_reuse",
        ["reuse on", "reuse off"],
        MemifConfig {
            descriptor_reuse: false,
            ..MemifConfig::default()
        },
    )
}

pub(super) fn gang_lookup() -> Report {
    toggle(
        "A2: gang page lookup (§5.1) — migration throughput (GB/s)",
        "ablation_gang_lookup",
        ["gang", "per-page"],
        MemifConfig {
            gang_lookup: false,
            ..MemifConfig::default()
        },
    )
}

pub(super) fn race_mode() -> Report {
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
    for pages in PAGES {
        let mode = |race_mode| {
            let config = MemifConfig {
                race_mode,
                ..base.clone()
            };
            throughput(config, ShapeKind::Migrate, pages)
        };
        let detect = mode(RaceMode::DetectFail);
        let recover = mode(RaceMode::DetectRecover);
        let prevent = mode(RaceMode::Prevent);
        assert!(
            detect > prevent && recover > prevent,
            "x{pages}: detection ({detect:.2}, {recover:.2}) must beat prevention ({prevent:.2})"
        );
        table.row(&[
            pages.to_string(),
            format!("{detect:.2}"),
            format!("{recover:.2}"),
            format!("{prevent:.2}"),
        ]);
    }
    Report::table("ablation_race_mode", table)
}

pub(super) fn poll_threshold() -> Report {
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
    for (name, thr) in [
        ("always-interrupt (0)", Some(0u64)),
        ("512KB (paper)", None),
        ("always-poll (max)", Some(u64::MAX)),
    ] {
        let run = stream(StreamSpec {
            cost: CostModel::keystone_ii(),
            config: MemifConfig {
                poll_threshold_bytes: thr,
                ..MemifConfig::default()
            },
            kind: ShapeKind::Migrate,
            page_size: PageSize::Small4K,
            pages: 4,
            count: 128,
            window: 8,
            ..StreamSpec::default()
        });
        // 16 KiB requests sit below the paper's 512 KB threshold, so
        // only the zero threshold takes completions by interrupt.
        let interrupt_mode = thr == Some(0);
        assert_eq!(
            run.interrupts > run.polled,
            interrupt_mode,
            "{name}: {} interrupts vs {} polled",
            run.interrupts,
            run.polled
        );
        table.row(&[
            name.to_owned(),
            run.interrupts.to_string(),
            run.polled.to_string(),
            format!("{:.1}", run.mean_latency_us()),
            format!("{:.2}", run.throughput_gbps),
        ]);
    }
    Report::table("ablation_poll_threshold", table)
}

pub(super) fn pipeline_depth() -> Report {
    let mut table = Table::new(
        "A5: driver pipeline depth — replication throughput (GB/s)",
        &["pages/req", "depth 1 (serial)", "depth 2", "depth 4"],
    );
    // Depth x pages is capped by the 512-entry PaRAM (depth 4 x 128
    // descriptors fills the pool exactly).
    for pages in [8u32, 32, 128] {
        let gbps = [1usize, 2, 4].map(|d| {
            let config = MemifConfig {
                pipeline_depth: d,
                ..MemifConfig::default()
            };
            throughput(config, ShapeKind::Replicate, pages)
        });
        assert!(
            gbps[1] > gbps[0] && gbps[2] > gbps[0],
            "x{pages}: pipelining must beat serial service: {gbps:?}"
        );
        let mut row = vec![pages.to_string()];
        row.extend(gbps.iter().map(|g| format!("{g:.2}")));
        table.row(&row);
    }
    Report::table("ablation_pipeline_depth", table)
}
