//! E14: automatic hot/cold placement — no policy vs synchronous
//! migration vs the async memif daemon.
//!
//! The workload is a phased hot-set application: a 6 MiB pool of
//! 256 KiB regions on DDR, of which a rotating subset is streamed each
//! phase. The placement policy (identical sampling, heat, and
//! watermark logic in every run) repairs placement at epoch boundaries;
//! only *how* its moves execute differs:
//!
//! * **none** — no moves; every tick streams from DDR;
//! * **sync** — moves via memif DMA, but the application parks while
//!   any policy move is outstanding (the `mbind`-style comparator:
//!   placement change costs application time);
//! * **async** — moves ride the blue staging queue as background work
//!   and the application keeps computing (the paper's thesis applied
//!   to a policy daemon).
//!
//! Acceptance: async must beat sync by >= 1.3x on end-to-end runtime
//! and must beat no-policy outright; policy runs must be fault-free
//! deterministic (no failed moves without a fault plan).

use memif_hwsim::CostModel;
use memif_policy::{run_scenario, Mode, ScenarioConfig, ScenarioResult};

use super::Report;
use crate::Table;

fn row(table: &mut Table, label: &str, r: &ScenarioResult, base: &ScenarioResult) {
    table.row(&[
        label.to_owned(),
        format!("{:.2}", r.wall.as_ns() as f64 / 1e6),
        format!("{:.2}x", base.wall.as_ns() as f64 / r.wall.as_ns() as f64),
        format!("{}/{}", r.fast_ticks, r.ticks),
        r.policy.epochs.to_string(),
        format!("{}+{}", r.policy.promotions, r.policy.demotions),
        r.policy.moves_failed.to_string(),
        format!("{:.2}", r.cpu_usage),
    ]);
}

pub(super) fn run() -> Report {
    let cost = CostModel::keystone_ii();
    let scenario = |mode| {
        run_scenario(
            &cost,
            &ScenarioConfig {
                mode,
                ..ScenarioConfig::default()
            },
        )
    };
    let none = scenario(Mode::None);
    let sync = scenario(Mode::Sync);
    let async_ = scenario(Mode::Async);

    let mut table = Table::new(
        "E14: phased hot-set runtime by placement regime (KeyStone II)",
        &[
            "regime",
            "wall ms",
            "vs none",
            "fast-ticks",
            "epochs",
            "pro+dem",
            "failed",
            "cpu",
        ],
    );
    row(&mut table, "none", &none, &none);
    row(&mut table, "sync", &sync, &none);
    row(&mut table, "async", &async_, &none);

    for (label, r) in [("none", &none), ("sync", &sync), ("async", &async_)] {
        assert_eq!(
            r.policy.moves_failed, 0,
            "{label}: fault-free policy runs must not fail moves"
        );
        assert_eq!(r.ticks, none.ticks, "{label}: identical application work");
    }
    assert_eq!(none.fast_ticks, 0, "no policy leaves everything on DDR");
    assert!(
        async_.policy.promotions > 0 && async_.policy.demotions > 0,
        "the async daemon both promoted and demoted: {:?}",
        async_.policy
    );

    // The acceptance bars: overlap must pay for itself.
    let sync_ns = sync.wall.as_ns() as f64;
    let async_ns = async_.wall.as_ns() as f64;
    assert!(
        async_ns * 1.3 <= sync_ns,
        "async ({:.2} ms) must beat synchronous migration ({:.2} ms) by >= 1.3x",
        async_ns / 1e6,
        sync_ns / 1e6,
    );
    assert!(
        async_.wall < none.wall,
        "async policy ({:?}) must beat no policy ({:?})",
        async_.wall,
        none.wall,
    );

    Report {
        tables: vec![("e14_policy", table)],
        note: format!(
            "Shape checks: the daemon's background moves shift {} of {} ticks onto \
             SRAM while the application never blocks, beating both the stalled \
             synchronous comparator ({:.2}x) and static DDR placement ({:.2}x).",
            async_.fast_ticks,
            async_.ticks,
            sync_ns / async_ns,
            none.wall.as_ns() as f64 / async_ns,
        ),
    }
}
