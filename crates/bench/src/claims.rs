//! The claims table: every experiment of the evaluation — the paper's
//! §2.2 microbenchmark, Figures 5–8, Table 4, ablations A1–A5, and the
//! extension experiments E8–E19 (E11 lives in `memifctl`) — as one
//! entry that runs its published sweep and asserts its gates.
//!
//! Each entry returns its tables and its closing note; nothing here
//! prints or writes files. The `claims` binary prints the tables and
//! writes their CSVs, and `tests/paper_claims.rs` runs every entry that
//! does not read the host clock.

use crate::Table;

mod ablation;
mod e10_degraded;
mod e12_batching;
mod e13_issue_scaling;
mod e14_policy;
mod e15_recovery;
mod e16_waterfall;
mod e17_simspeed;
mod e18_overlap;
mod e19_qos;
mod e8_multi_tenant;
mod e9_future_platform;
mod fig5_timeline;
mod fig6_breakdown;
mod fig7_latency;
mod fig8_throughput;
mod sec2_microbench;
mod tab4_streaming;

/// What one entry produced: its `(csv name, table)` pairs, in print
/// order, and the note printed after them.
pub struct Report {
    /// Tables in print order, each with the CSV name it is written as.
    pub tables: Vec<(&'static str, Table)>,
    /// Text printed after the tables (the shape checks, or Figure 5's
    /// rendered timeline); empty when the tables say it all.
    pub note: String,
}

impl Report {
    /// A report of one table and no note.
    fn table(csv: &'static str, table: Table) -> Report {
        Report {
            tables: vec![(csv, table)],
            note: String::new(),
        }
    }
}

/// One experiment of the claims table.
pub struct Claim {
    /// Short selector, e.g. `e13`.
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Whether a gate reads the host clock. Such gates only hold in
    /// optimized builds, so the debug test suite skips these entries.
    pub host_timed: bool,
    /// Runs the published sweep; panics if a gate fails.
    pub run: fn() -> Report,
    /// A million-request row that only `claims --huge` runs; its CSV is
    /// committed once.
    pub huge: Option<fn() -> Report>,
}

impl Claim {
    /// Runs the entry. A failed gate panics with the entry's ID (the
    /// gate's own message is printed first, by the panic hook).
    #[must_use]
    pub fn check(&self) -> Report {
        self.guarded(self.run)
    }

    /// Runs the entry's million-request row, if it has one; a failed
    /// gate panics with the entry's ID, as in [`Claim::check`].
    #[must_use]
    pub fn check_huge(&self) -> Option<Report> {
        self.huge.map(|row| self.guarded(row))
    }

    fn guarded(&self, run: fn() -> Report) -> Report {
        std::panic::catch_unwind(run)
            .unwrap_or_else(|_| panic!("claim {} ({}) failed a gate", self.id, self.title))
    }
}

/// A sim-clock entry with no huge row.
const fn claim(id: &'static str, title: &'static str, run: fn() -> Report) -> Claim {
    Claim {
        id,
        title,
        host_timed: false,
        run,
        huge: None,
    }
}

/// Every entry, in experiment order.
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    claim("sec2", "Linux page-migration throughput (§2.2)", sec2_microbench::run),
    claim("fig5", "driver timeline across kernel contexts (Figure 5)", fig5_timeline::run),
    claim("fig6", "per-request time breakdown and CPU usage (Figure 6)", fig6_breakdown::run),
    claim("fig7", "completion latency, memif vs batched mbind (Figure 7)", fig7_latency::run),
    Claim {
        huge: Some(fig8_throughput::huge),
        ..claim("fig8", "move throughput by page granularity (Figure 8)", fig8_throughput::run)
    },
    claim("tab4", "streaming workloads on the mini runtime (Table 4)", tab4_streaming::run),
    claim("a1", "descriptor-chain reuse on/off (§5.3)", ablation::descriptor_reuse),
    claim("a2", "gang page lookup vs per-page walks (§5.1)", ablation::gang_lookup),
    claim("a3", "race detection vs Linux-style prevention (§5.2)", ablation::race_mode),
    claim("a4", "kernel-thread poll threshold (§5.4)", ablation::poll_threshold),
    claim("a5", "driver pipeline depth", ablation::pipeline_depth),
    claim("e8", "N concurrent applications on one device", e8_multi_tenant::run),
    claim("e9", "§6.7's future-platform prediction", e9_future_platform::run),
    claim("e10", "throughput under injected DMA faults (degraded mode)", e10_degraded::run),
    claim("e12", "request batching + segment coalescing on the issue path", e12_batching::run),
    claim("e13", "aggregate move rate vs issue shards", e13_issue_scaling::run),
    claim("e14", "hot/cold placement: none vs sync vs async daemon", e14_policy::run),
    claim("e15", "journal overhead + crash/recover exactly-once convergence", e15_recovery::run),
    claim("e16", "the N-tier waterfall vs two-tier and no policy", e16_waterfall::run),
    Claim {
        host_timed: true,
        huge: Some(e17_simspeed::huge),
        ..claim("e17", "event-core dispatch speed: timing wheel vs binary heap", e17_simspeed::run)
    },
    claim("e18", "overlap-depth-K streaming + the real-thread front-end", e18_overlap::run),
    claim("e19", "multi-tenant QoS under an antagonist", e19_qos::run),
];
