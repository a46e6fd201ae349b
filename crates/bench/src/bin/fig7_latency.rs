//! Figure 7: latency in completing a sequence of eight migration
//! requests, each covering sixteen 4 KB pages.
//!
//! memif receives each notification soon after the corresponding
//! request completes, with a single `ioctl` for the whole sequence. The
//! Linux comparator batches 1, 4, or 8 requests per syscall: small
//! batches pay crossing overhead per request; large batches delay every
//! completion to the end of the long syscall.

use memif_bench::{stream, stream_linux, StreamSpec, Table};
use memif_hwsim::CostModel;
use memif_mm::PageSize;
use memif_workloads::ShapeKind;

fn main() {
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
        let mut row = vec![(i + 1).to_string()];
        row.push(format!(
            "{:.1}",
            memif_run.completion_times[i].as_ns() as f64 / 1_000.0
        ));
        for (_, run) in &linux {
            row.push(format!(
                "{:.1}",
                run.completion_times[i].as_ns() as f64 / 1_000.0
            ));
        }
        table.row(&row);
    }
    table.print();
    table.write_csv("fig7_latency");

    let mut summary = Table::new(
        "Figure 7 summary",
        &[
            "system",
            "syscalls",
            "last-completion(us)",
            "mean-latency(us)",
        ],
    );
    let mean = |times: &[memif::SimTime]| {
        times.iter().map(|t| t.as_ns() as f64).sum::<f64>() / times.len() as f64 / 1_000.0
    };
    summary.row(&[
        "memif".to_owned(),
        memif_run.ioctls.to_string(),
        format!(
            "{:.1}",
            memif_run.completion_times[count - 1].as_ns() as f64 / 1_000.0
        ),
        format!("{:.1}", mean(&memif_run.completion_times)),
    ]);
    for (b, run) in &linux {
        summary.row(&[
            format!("linux-batch{b}"),
            run.ioctls.to_string(),
            format!(
                "{:.1}",
                run.completion_times[count - 1].as_ns() as f64 / 1_000.0
            ),
            format!("{:.1}", mean(&run.completion_times)),
        ]);
    }
    summary.print();
    summary.write_csv("fig7_summary");

    // The paper's headline: up to 63% latency reduction while making
    // only one syscall.
    let best_linux_mean = linux
        .iter()
        .map(|(_, r)| mean(&r.completion_times))
        .fold(f64::INFINITY, f64::min);
    let memif_mean = mean(&memif_run.completion_times);
    println!(
        "memif mean latency {:.1} us vs best Linux {:.1} us ({:.0}% lower), with {} syscall(s).",
        memif_mean,
        best_linux_mean,
        (1.0 - memif_mean / best_linux_mean) * 100.0,
        memif_run.ioctls
    );
}
