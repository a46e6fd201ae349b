//! E15: crash-detectable moves over the persistent NVM tier.
//!
//! Two questions, two tables:
//!
//! * **E15a — what does the journal cost when nothing crashes?** The
//!   Figure 8 streaming workload ping-pongs between DDR and the NVM
//!   node with the write-ahead move journal off vs on. Every issued
//!   request pays two persistent `journal_write`s (append at issue,
//!   seal at retire), so the bar is a small constant per request; the
//!   asserted acceptance is **< 15% wall-clock overhead** at 4 KB × 16
//!   pages — the worst case in the sweep, since smaller requests
//!   amortize the least.
//!
//! * **E15b — does recovery terminate every move exactly once?** For
//!   each issue path (batching, coalescing, sharding) a journaled run is
//!   crashed at every one of its crash opportunities in turn
//!   ([`memif::System::arm_crash`]: every event boundary, plus the two
//!   instants inside a chained completion and a journaled retrieval),
//!   recovered (`System::recover`), and re-driven per the WAL contract;
//!   each run must converge to the uncrashed reference: every request
//!   `Done` exactly once, identical final placement, byte-identical
//!   region contents, balanced allocator, no transient PTE left. These
//!   are the same invariants the `recovery` tests sweep, through the
//!   same [`CrashOutcome::assert_converged`](crate::CrashOutcome::assert_converged).
//!
//! Expected shape: journaling costs low-single-digit percent; across a
//! sweep most crashes roll moves back (nothing reached the
//! destination), a few roll forward (bytes already on NVM), and every
//! request without a durable `Done` is resubmitted once.

use memif::MemifConfig;
use memif_hwsim::CostModel;
use memif_mm::PageSize;
use memif_workloads::ShapeKind;

use super::Report;
use crate::{crash_migrate_nvm, nvm_topology, stream, CrashRun, StreamSpec, Table};

const PAGE: PageSize = PageSize::Small4K;
const PAGES: u32 = 16;
const WINDOW: usize = 8;
/// Requests in each E15b stream.
const CRASH_COUNT: usize = 8;
/// `(batch_max, coalesce, issue_shards)` of each E15b row.
const ISSUE_PATHS: [(usize, bool, usize); 4] =
    [(1, false, 1), (4, false, 1), (4, true, 1), (3, true, 2)];

fn journal_config(journal: bool) -> MemifConfig {
    MemifConfig {
        journal,
        batch_max: 4,
        coalesce: true,
        ..MemifConfig::default()
    }
}

pub(super) fn run() -> Report {
    let cost = CostModel::keystone_ii();

    // E15a: journaling overhead on the fault-free hot path.
    let mut overhead = Table::new(
        "E15a: write-ahead journal overhead (DDR<->NVM stream, 4K x 16 pages/req)",
        &["journal", "GB/s", "wall-ms", "overhead", "cpu"],
    );
    let mut base_wall = 0u64;
    for journal in [false, true] {
        let run = stream(StreamSpec {
            cost: cost.clone(),
            config: journal_config(journal),
            kind: ShapeKind::Migrate,
            page_size: PAGE,
            pages: PAGES,
            count: 256,
            window: WINDOW,
            topo: nvm_topology(),
            ..StreamSpec::default()
        });
        let wall = run.wall.as_ns();
        if !journal {
            base_wall = wall;
        }
        let over = wall as f64 / base_wall.max(1) as f64 - 1.0;
        overhead.row(&[
            journal.to_string(),
            format!("{:.2}", run.throughput_gbps),
            format!("{:.2}", wall as f64 / 1e6),
            format!("{:+.2}%", over * 100.0),
            format!("{:.2}", run.cpu_usage),
        ]);
        // The asserted recovery-overhead bar: durable exactly-once
        // moves for under 15% of the hot path.
        assert!(
            over < 0.15,
            "journaling overhead {:.1}% exceeds the 15% acceptance bar",
            over * 100.0
        );
    }

    // E15b: crash at every crash opportunity of each issue path,
    // recover, re-drive, and compare against the uncrashed reference.
    let mut crashes = Table::new(
        "E15b: crash -> recover -> re-drive at every crash opportunity, per issue path",
        &[
            "batch-max",
            "coalesce",
            "shards",
            "opportunities",
            "fired",
            "rolled-back",
            "rolled-forward",
            "resubmitted",
        ],
    );
    for (batch_max, coalesce, issue_shards) in ISSUE_PATHS {
        let config = MemifConfig {
            journal: true,
            batch_max,
            coalesce,
            issue_shards,
            ..MemifConfig::default()
        };
        let run = |crash_at| {
            crash_migrate_nvm(CrashRun {
                cost: cost.clone(),
                config: config.clone(),
                page_size: PAGE,
                pages: PAGES,
                count: CRASH_COUNT,
                crash_at,
                ..CrashRun::default()
            })
        };
        let reference = run(0);
        let opportunities = reference.opportunities;
        let (mut fired, mut rolled_back, mut rolled_forward, mut resubmitted) = (0, 0, 0, 0);
        for k in 1..=opportunities {
            let run = run(k);
            run.assert_converged(
                &reference,
                &format!(
                    "batch-max={batch_max} coalesce={coalesce} shards={issue_shards} crash-at={k}"
                ),
            );
            fired += u64::from(run.crashed);
            if let Some(r) = &run.recovery {
                rolled_back += r.rolled_back;
                rolled_forward += r.redriven;
            }
            resubmitted += run.resubmitted;
        }
        assert_eq!(
            fired, opportunities,
            "every opportunity of an unfired run fires"
        );
        crashes.row(&[
            batch_max.to_string(),
            coalesce.to_string(),
            issue_shards.to_string(),
            opportunities.to_string(),
            fired.to_string(),
            rolled_back.to_string(),
            rolled_forward.to_string(),
            resubmitted.to_string(),
        ]);
    }

    Report {
        tables: vec![
            ("e15_recovery_overhead", overhead),
            ("e15_recovery_crash", crashes),
        ],
        note: "Shape checks: journaling stays under the 15% overhead bar while a crash \
               at every opportunity recovers to the uncrashed reference — each journaled move \
               reaches exactly one terminal status, rolled-back work is re-driven \
               once, roll-forward completes copies that already reached the NVM tier, \
               and final placement, contents, and allocator balance are identical."
            .to_owned(),
    }
}
