//! Figure 7: latency in completing a sequence of eight migration
//! requests, each covering sixteen 4 KB pages.
//!
//! memif receives each notification soon after the corresponding
//! request completes, with a single `ioctl` for the whole sequence. The
//! Linux comparator batches 1, 4, or 8 requests per syscall: small
//! batches pay crossing overhead per request; large batches delay every
//! completion to the end of the long syscall.
//!
//! Gates (§6.4): memif makes one syscall; its completions are evenly
//! spaced (max gap < 3× min gap); its mean latency is below 0.75× Linux
//! batch-1's and 0.5× batch-8's.

use memif::SimTime;
use memif_hwsim::CostModel;
use memif_mm::PageSize;
use memif_workloads::ShapeKind;

use super::Report;
use crate::{stream, stream_linux, StreamSpec, Table};

pub(super) fn run() -> Report {
    let cost = CostModel::keystone_ii();
    let (pages, count) = (16u32, 8usize);

    let memif_run = stream(StreamSpec {
        cost: cost.clone(),
        kind: ShapeKind::Migrate,
        page_size: PageSize::Small4K,
        pages,
        count,
        window: count, // all eight submitted up front, as in the paper
        ..StreamSpec::default()
    });
    let linux: Vec<(usize, _)> = [1usize, 4, 8]
        .iter()
        .map(|&b| (b, stream_linux(&cost, PageSize::Small4K, pages, count, b)))
        .collect();

    let us = |t: SimTime| format!("{:.1}", t.as_ns() as f64 / 1_000.0);
    let mut table = Table::new(
        "Figure 7: completion time of 8 migration requests x 16 4KB pages (us since start)",
        &[
            "request#",
            "memif",
            "linux-batch1",
            "linux-batch4",
            "linux-batch8",
        ],
    );
    for i in 0..count {
        let mut row = vec![(i + 1).to_string(), us(memif_run.completion_times[i])];
        row.extend(linux.iter().map(|(_, run)| us(run.completion_times[i])));
        table.row(&row);
    }

    let mut summary = Table::new(
        "Figure 7 summary",
        &[
            "system",
            "syscalls",
            "last-completion(us)",
            "mean-latency(us)",
        ],
    );
    let systems = linux
        .iter()
        .map(|(b, run)| (format!("linux-batch{b}"), run));
    for (name, run) in std::iter::once(("memif".to_owned(), &memif_run)).chain(systems) {
        summary.row(&[
            name,
            run.ioctls.to_string(),
            us(run.completion_times[count - 1]),
            format!("{:.1}", run.mean_latency_us()),
        ]);
    }

    // memif: one kick-start for the whole burst, and pipelined
    // completions evenly spaced.
    assert_eq!(memif_run.ioctls, 1, "one kick-start for the whole burst");
    let gaps: Vec<u64> = memif_run
        .completion_times
        .windows(2)
        .map(|w| w[1].as_ns() - w[0].as_ns())
        .collect();
    let (min, max) = (gaps.iter().min().unwrap(), gaps.iter().max().unwrap());
    assert!(
        *max < *min * 3,
        "pipelined completions are evenly spaced: {gaps:?}"
    );
    // Linux either pays one syscall per request (batch 1) or delays
    // every completion to the batch end (batch 8); the paper reports up
    // to 63% lower latency.
    let memif_mean = memif_run.mean_latency_us();
    let linux_means: Vec<f64> = linux.iter().map(|(_, run)| run.mean_latency_us()).collect();
    let (batch1, batch8) = (linux_means[0], linux_means[2]);
    assert!(
        memif_mean < batch1 * 0.75,
        "memif mean latency well below batch-1"
    );
    assert!(memif_mean < batch8 * 0.5, "and far below batch-8");
    let reduction = 1.0 - memif_mean / batch8;
    assert!(reduction > 0.5, "got {:.0}%", reduction * 100.0);

    let best_linux_mean = linux_means.iter().copied().fold(f64::INFINITY, f64::min);
    Report {
        tables: vec![("fig7_latency", table), ("fig7_summary", summary)],
        note: format!(
            "memif mean latency {:.1} us vs best Linux {:.1} us ({:.0}% lower), with {} syscall(s).",
            memif_mean,
            best_linux_mean,
            (1.0 - memif_mean / best_linux_mean) * 100.0,
            memif_run.ioctls
        ),
    }
}
