//! Figure 8: memory-move throughput across page granularities.
//!
//! Three series per page size, as in the paper: `migspeed` (Linux),
//! memif migration, and memif replication, sweeping pages-per-request.
//! Expected shape (§6.5): except at one 4 KB page per request, memif
//! beats migspeed by at least ~40% for small pages and up to ~3× for
//! large ones; replication exceeds migration because it skips virtual
//! memory management entirely.
//!
//! Gates: memif migration over migspeed falls in [1.4, 6) at 4 KB × 16,
//! [2, 5) at 64 KB × 16 and [2, 3.5) at 2 MB × 4, and replication at
//! least matches migration (within 1%) at those three points.

use memif_hwsim::CostModel;
use memif_mm::PageSize;
use memif_workloads::ShapeKind;

use super::Report;
use crate::{hugefast_topology, stream, stream_linux, StreamSpec, Table};

/// `(page size, pages per request, min, max)` of migration's speedup
/// over migspeed at the gated points.
const GATES: &[(PageSize, u32, f64, f64)] = &[
    (PageSize::Small4K, 16, 1.4, 6.0),
    (PageSize::Medium64K, 16, 2.0, 5.0),
    (PageSize::Large2M, 4, 2.0, 3.5),
];

pub(super) fn run() -> Report {
    let cost = CostModel::keystone_ii();
    let sweeps: &[(PageSize, &[u32])] = &[
        (PageSize::Small4K, &[1, 4, 16, 64, 256]),
        (PageSize::Medium64K, &[1, 4, 16, 64]),
        (PageSize::Large2M, &[1, 4, 8]),
    ];

    let mut table = Table::new(
        "Figure 8: move throughput (GB/s)",
        &[
            "page",
            "pages/req",
            "migspeed",
            "memif-migrate",
            "memif-replicate",
            "mig/linux",
        ],
    );

    let mut gated = 0;
    for &(page_size, page_counts) in sweeps {
        for &pages in page_counts {
            // Move ~64 MiB per point (min 24 requests) to amortize warmup.
            let bytes_per_req = u64::from(pages) * page_size.bytes();
            let count = ((64u64 << 20) / bytes_per_req).clamp(24, 512) as usize;

            let linux = stream_linux(&cost, page_size, pages, count, 1);
            let memif = |kind| {
                stream(StreamSpec {
                    cost: cost.clone(),
                    kind,
                    page_size,
                    pages,
                    count,
                    window: 8,
                    ..StreamSpec::default()
                })
            };
            let (mig, rep) = (memif(ShapeKind::Migrate), memif(ShapeKind::Replicate));
            let ratio = mig.throughput_gbps / linux.throughput_gbps;
            let gate = GATES.iter().find(|g| (g.0, g.1) == (page_size, pages));
            if let Some(&(_, _, min_ratio, max_ratio)) = gate {
                gated += 1;
                assert!(
                    (min_ratio..max_ratio).contains(&ratio),
                    "{page_size} x{pages}: mig/linux = {ratio:.2}"
                );
                assert!(
                    rep.throughput_gbps >= mig.throughput_gbps * 0.99,
                    "{page_size}: replication at least matches migration"
                );
            }
            table.row(&[
                page_size.to_string(),
                pages.to_string(),
                format!("{:.2}", linux.throughput_gbps),
                format!("{:.2}", mig.throughput_gbps),
                format!("{:.2}", rep.throughput_gbps),
                format!("{ratio:.2}x"),
            ]);
        }
    }
    assert_eq!(gated, GATES.len(), "every gated point is on the sweep");

    Report {
        tables: vec![("fig8_throughput", table)],
        note: "Shape checks: migspeed is pinned near the ~1 GB/s CPU-copy rate (0.3 GB/s at 4KB \
               once per-page management is added); memif replication > memif migration; the \
               memif advantage grows with page size."
            .to_owned(),
    }
}

/// The million-region row (`claims fig8 --huge`): one migration over
/// each of a million distinct 4 KiB regions (a 4 GiB footprint),
/// outstanding window 64 — the thousands-of-address-spaces scale the
/// QoS work targets, where the region *pool* dwarfs the concurrency
/// window. Sparse physical memory keeps the host cost at page tables,
/// not page contents. Its CSV is committed once.
pub(super) fn huge() -> Report {
    const REGIONS: usize = 1_000_000;
    let mut table = Table::new(
        "Figure 8 (huge): million-region migration sweep",
        &[
            "page", "regions", "window", "GB/s", "wall ms", "events", "peak-q",
        ],
    );
    let r = stream(StreamSpec {
        topo: hugefast_topology(),
        cost: CostModel::keystone_ii(),
        kind: ShapeKind::Migrate,
        page_size: PageSize::Small4K,
        pages: 1,
        count: REGIONS,
        window: 64,
        pool: REGIONS,
        ..StreamSpec::default()
    });
    table.row(&[
        "4KB".to_owned(),
        REGIONS.to_string(),
        "64".to_owned(),
        format!("{:.2}", r.throughput_gbps),
        format!("{:.2}", r.wall.as_ns() as f64 / 1e6),
        r.events_executed.to_string(),
        r.peak_pending.to_string(),
    ]);
    assert_eq!(r.failed, 0, "million-region sweep must be clean");
    Report {
        tables: vec![("fig8_throughput_huge", table)],
        note: format!(
            "Shape checks: {REGIONS} requests over {REGIONS} distinct regions complete with \
             window 64; throughput matches the small-pool 4KB point (per-request \
             cost does not depend on pool size)."
        ),
    }
}
