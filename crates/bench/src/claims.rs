//! The claims table: every extension experiment (E10, E12–E19) as one
//! entry that runs its published sweep and asserts its gates.
//!
//! Each entry returns its tables and its closing "Shape checks" note;
//! nothing here prints or writes files. The `claims` binary prints the
//! tables and writes their CSVs, and `tests/paper_claims.rs` runs every
//! entry that does not read the host clock.

use crate::Table;

mod e10_degraded;
mod e12_batching;
mod e13_issue_scaling;
mod e14_policy;
mod e15_recovery;
mod e16_waterfall;
mod e17_simspeed;
mod e18_overlap;
mod e19_qos;

pub use e17_simspeed::huge as e17_huge;

/// What one entry produced: its `(csv name, table)` pairs, in print
/// order, and the closing "Shape checks" note.
pub struct Report {
    /// Tables in print order, each with the CSV name it is written as.
    pub tables: Vec<(&'static str, Table)>,
    /// The closing "Shape checks" line.
    pub note: String,
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
}

impl Claim {
    /// Runs the entry. A failed gate panics with the entry's ID (the
    /// gate's own message is printed first, by the panic hook).
    #[must_use]
    pub fn check(&self) -> Report {
        std::panic::catch_unwind(self.run)
            .unwrap_or_else(|_| panic!("claim {} ({}) failed a gate", self.id, self.title))
    }
}

/// Every entry, in experiment order.
pub const CLAIMS: &[Claim] = &[
    Claim {
        id: "e10",
        title: "throughput under injected DMA faults (degraded mode)",
        host_timed: false,
        run: e10_degraded::run,
    },
    Claim {
        id: "e12",
        title: "request batching + segment coalescing on the issue path",
        host_timed: false,
        run: e12_batching::run,
    },
    Claim {
        id: "e13",
        title: "aggregate move rate vs issue shards",
        host_timed: false,
        run: e13_issue_scaling::run,
    },
    Claim {
        id: "e14",
        title: "hot/cold placement: none vs sync vs async daemon",
        host_timed: false,
        run: e14_policy::run,
    },
    Claim {
        id: "e15",
        title: "journal overhead + crash/recover exactly-once convergence",
        host_timed: false,
        run: e15_recovery::run,
    },
    Claim {
        id: "e16",
        title: "the N-tier waterfall vs two-tier and no policy",
        host_timed: false,
        run: e16_waterfall::run,
    },
    Claim {
        id: "e17",
        title: "event-core dispatch speed: timing wheel vs binary heap",
        host_timed: true,
        run: e17_simspeed::run,
    },
    Claim {
        id: "e18",
        title: "overlap-depth-K streaming + the real-thread front-end",
        host_timed: false,
        run: e18_overlap::run,
    },
    Claim {
        id: "e19",
        title: "multi-tenant QoS under an antagonist",
        host_timed: false,
        run: e19_qos::run,
    },
];
