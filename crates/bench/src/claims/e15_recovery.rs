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
//!   each crash point a journaled run is crashed mid-stream, recovered
//!   (`System::recover`), and re-driven per the WAL contract; the run
//!   must converge to the uncrashed reference: every request `Done`
//!   exactly once, identical final placement, byte-identical region
//!   contents, balanced allocator. These are the same invariants the
//!   `recovery` proptest sweeps, through the same
//!   [`CrashOutcome::assert_converged`](crate::CrashOutcome::assert_converged).
//!
//! Expected shape: journaling costs low-single-digit percent;
//! submit/post-launch crashes roll everything back (nothing reached the
//! destination), pre-retire crashes roll forward (bytes already on
//! NVM), post-retire crashes only re-report sealed statuses.

use memif::{CrashPlan, CrashPoint, MemifConfig};
use memif_hwsim::CostModel;
use memif_mm::PageSize;
use memif_workloads::ShapeKind;

use super::Report;
use crate::{crash_migrate_nvm, nvm_topology, stream, CrashRun, StreamSpec, Table};

const PAGE: PageSize = PageSize::Small4K;
const PAGES: u32 = 16;
const WINDOW: usize = 8;

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

    // E15b: crash at every lifecycle point, recover, re-drive, and
    // compare against the uncrashed reference run.
    let crash_count = 16;
    let config = journal_config(true);
    let run = |crash| {
        crash_migrate_nvm(CrashRun {
            cost: cost.clone(),
            config: config.clone(),
            page_size: PAGE,
            pages: PAGES,
            count: crash_count,
            crash,
            ..CrashRun::default()
        })
    };
    let reference = run(None);
    let mut crashes = Table::new(
        "E15b: crash -> recover -> re-drive, per crash point (nth=2)",
        &[
            "crash-point",
            "fired",
            "records",
            "sealed-pre",
            "rolled-back",
            "redriven",
            "resubmitted",
            "wall-us",
        ],
    );
    // The driver's lifecycle points. Post-retrieve, on the application's
    // side, is swept by the `recovery` tests.
    let points = CrashPoint::ALL
        .into_iter()
        .filter(|&p| p != CrashPoint::PostRetrieve);
    for point in points {
        let run = run(Some(CrashPlan::at(point, 2)));
        run.assert_converged(&reference, point.as_str());
        let (records, rolled_back, redriven, sealed_pre) =
            run.recovery.as_ref().map_or((0, 0, 0, 0), |r| {
                (
                    r.journal_records,
                    r.rolled_back,
                    r.redriven,
                    r.journal_records - r.recovered_requests(),
                )
            });
        crashes.row(&[
            point.as_str().to_owned(),
            run.crashed.to_string(),
            records.to_string(),
            sealed_pre.to_string(),
            rolled_back.to_string(),
            redriven.to_string(),
            run.resubmitted.to_string(),
            format!("{:.1}", run.wall.as_ns() as f64 / 1e3),
        ]);
    }

    Report {
        tables: vec![
            ("e15_recovery_overhead", overhead),
            ("e15_recovery_crash", crashes),
        ],
        note: "Shape checks: journaling stays under the 15% overhead bar while every \
               crash point recovers to the uncrashed reference — each journaled move \
               reaches exactly one terminal status, rolled-back work is re-driven \
               once, roll-forward completes copies that already reached the NVM tier, \
               and final placement, contents, and allocator balance are identical."
            .to_owned(),
    }
}
