//! E13: issue-path sharding — aggregate move rate vs `issue_shards`.
//!
//! The single kernel worker is the issue-side bottleneck for streams of
//! *small* requests: each 4-page move is far below the 512 KB polling
//! threshold, so the worker's CPU pays prep + remap + DMA config *and*
//! the timed-sleep completion poll for every request, while the
//! transfer itself is over in microseconds. Sharding the staging/
//! submission pair and the worker S ways gives the device S issue CPUs
//! that contend only for the shared transfer controllers and the
//! descriptor pool.
//!
//! The workload is the disjoint-region multi-tenant stream: a window of
//! independent mmapped regions, each request touching exactly one.
//! Region-affinity routing spreads the regions across shards, so
//! shards=1 reproduces the seed driver and shards=4 issues four
//! requests' kernel work concurrently (4 transfer-controller channels
//! keep the engine out of the way).
//!
//! Expected shape: aggregate completed-moves/sec scales to >= 2x at
//! shards=4 (the acceptance assertion), per-shard worker busy time
//! stays balanced, and `cross_shard_deferred` stays 0 — disjoint
//! regions never hit the cross-shard hazard guard. E13b pins the other
//! side: a single-region stream routes every request to one shard, so
//! extra shards must *not* break same-region FIFO serialization (the
//! move rate stays flat and the idle shards stay idle).

use memif::{MemifConfig, SimDuration};
use memif_hwsim::CostModel;
use memif_mm::PageSize;
use memif_workloads::ShapeKind;

use super::Report;
use crate::{stream, StreamResult, StreamSpec, Table};

const PAGE: PageSize = PageSize::Small4K;
const PAGES: u32 = 4; // 16 KB per request: firmly in polling territory
const WINDOW: usize = 32;
const COUNT: usize = 512;

fn moves_per_sec(run: &StreamResult, count: usize) -> f64 {
    count as f64 / (run.wall.as_ns().max(1) as f64 / 1e9)
}

fn worker_spread(busy: &[SimDuration]) -> String {
    match (busy.iter().min(), busy.iter().max()) {
        (Some(min), Some(max)) => format!(
            "{:.0}/{:.0}us",
            min.as_ns() as f64 / 1e3,
            max.as_ns() as f64 / 1e3
        ),
        _ => "-".to_owned(),
    }
}

pub(super) fn run() -> Report {
    let mut cost = CostModel::keystone_ii();
    // Four independent transfer-controller channels, so the engine is
    // never the reason issue-side scaling stalls (E11 studies TCs).
    cost.dma_tc_count = 4;
    let spec = |issue_shards, count, window| StreamSpec {
        cost: cost.clone(),
        config: MemifConfig {
            issue_shards,
            ..MemifConfig::default()
        },
        kind: ShapeKind::Migrate,
        page_size: PAGE,
        pages: PAGES,
        count,
        window,
        ..StreamSpec::default()
    };

    let mut table = Table::new(
        "E13: move rate vs issue_shards (disjoint regions, 4K x 4 pages/req)",
        &[
            "shards",
            "moves/s",
            "speedup",
            "GB/s",
            "worker-busy min/max",
            "deferred",
            "cross-shard",
            "wakeups",
        ],
    );
    let mut base_rate = 0.0f64;
    let mut base_bytes = 0u64;
    let mut rate_at_4 = 0.0f64;
    for shards in [1, 2, 4, 8] {
        let run = stream(spec(shards, COUNT, WINDOW));
        assert_eq!(
            run.stats.cross_shard_deferred, 0,
            "disjoint regions must never defer across shards"
        );
        let rate = moves_per_sec(&run, COUNT);
        if shards == 1 {
            base_rate = rate;
            base_bytes = run.stats.bytes_moved;
        } else {
            assert_eq!(
                run.stats.bytes_moved, base_bytes,
                "sharded runs must move the same bytes"
            );
        }
        if shards == 4 {
            rate_at_4 = rate;
        }
        table.row(&[
            shards.to_string(),
            format!("{rate:.0}"),
            format!("{:.2}x", rate / base_rate.max(1e-9)),
            format!("{:.2}", run.throughput_gbps),
            worker_spread(&run.worker_busy),
            run.stats.requests_deferred.to_string(),
            run.stats.cross_shard_deferred.to_string(),
            run.stats.kthread_wakeups.to_string(),
        ]);
    }
    // The acceptance bar: four issue shards must at least double the
    // aggregate move rate on the disjoint-region stream.
    assert!(
        rate_at_4 >= 2.0 * base_rate,
        "shards=4 move rate {rate_at_4:.0}/s must be >= 2x the single-worker \
         rate {base_rate:.0}/s"
    );

    // E13b: one region, every request serialized behind its
    // predecessor's in-flight spans. Affinity routing sends the whole
    // stream to one shard, so adding shards must change neither the
    // rate (beyond noise) nor correctness — the serialization tests in
    // `deferred_hazard.rs` pin the same invariant under faults.
    let mut single = Table::new(
        "E13b: single-region stream (window=1) — sharding must not help",
        &["shards", "moves/s", "vs-1", "deferred", "cross-shard"],
    );
    let mut base_b = 0.0f64;
    for shards in [1, 4, 8] {
        let run = stream(spec(shards, COUNT / 4, 1));
        assert_eq!(
            run.stats.cross_shard_deferred, 0,
            "a single region lives on a single shard"
        );
        let rate = moves_per_sec(&run, COUNT / 4);
        if shards == 1 {
            base_b = rate;
        } else {
            // Same-region FIFO means the extra shards sit idle: the
            // rate must not exceed the single-worker rate (identical
            // routing, identical schedule).
            assert!(
                (rate - base_b).abs() / base_b.max(1e-9) < 1e-6,
                "single-region stream must be shard-count invariant \
                 ({rate:.0}/s vs {base_b:.0}/s)"
            );
        }
        single.row(&[
            shards.to_string(),
            format!("{rate:.0}"),
            format!("{:.2}x", rate / base_b.max(1e-9)),
            run.stats.requests_deferred.to_string(),
            run.stats.cross_shard_deferred.to_string(),
        ]);
    }

    Report {
        tables: vec![
            ("e13_issue_scaling", table),
            ("e13_issue_scaling_single", single),
        ],
        note: "Shape checks: the disjoint-region stream scales superlinearly in issue \
               CPUs until the shared engine bounds it, per-shard worker busy stays \
               balanced under region-affinity routing, and the single-region stream is \
               shard-count invariant — same-region FIFO and the hazard guard never \
               relax."
            .to_owned(),
    }
}
