//! E16: the N-tier memory waterfall — ranked placement vs the classic
//! two-tier policy on the same four-tier machine.
//!
//! The machine is the ranked ladder ([`memif_hwsim::Topology::ranked`]):
//! SRAM (tier 0), DRAM (tier 1), NVM (tier 2), and a compressed zram
//! floor (tier 3). The workload is a tiered phased hot-set: a region
//! pool homed on NVM with a hot set streamed every tick and a warm halo
//! touched every fourth tick — together larger than SRAM, so placement
//! faces genuine capacity pressure. Three regimes run the identical
//! application:
//!
//! * **none** — no policy; everything streams from NVM;
//! * **2-tier** — the classic fast/slow daemon (SRAM + NVM home): the
//!   hot set is served well, but the warm halo has nowhere to go once
//!   SRAM's watermark fills;
//! * **4-tier** — the waterfall over all ranks: hot climbs to SRAM,
//!   the warm overflow settles on DRAM, and frozen regions sink to the
//!   compressed floor (paying costed compress/decompress work) via
//!   chained multi-hop moves with cascade retries.
//!
//! A brownout row repeats the 4-tier run with the DRAM tier browned out
//! mid-run: the waterfall degrades gracefully — no lost or doubled
//! terminal statuses.
//!
//! Acceptance: 4-tier must beat 2-tier and no-policy outright on
//! end-to-end runtime under the capacity-pressure cascade, and the
//! 4-tier run must show nonzero compress time in the meter's
//! attribution (the floor is actually exercised).

use std::collections::HashSet;

use memif::{Brownout, FaultPlan, NodeId, SimDuration, SimTime};
use memif_hwsim::CostModel;
use memif_policy::{run_scenario, Mode, PolicyConfig, ScenarioConfig, ScenarioResult};

use super::Report;
use crate::Table;

/// The capacity-pressure workload: 12 MiB pool on NVM, 2 MiB hot set,
/// 6 MiB warm halo — hot + warm exceed SRAM's 5.4 MiB watermark, so
/// the warm class needs a middle tier to live on.
fn scenario(policy_tiers: usize) -> ScenarioConfig {
    ScenarioConfig {
        mode: if policy_tiers == 1 {
            Mode::None
        } else {
            Mode::Async
        },
        tiers: 4,
        policy_tiers,
        regions: 48,
        hot: 4,
        warm: 24,
        carry: 2,
        phases: 6,
        ticks_per_phase: 32,
        policy: PolicyConfig {
            // Ticks here are ~25x slower than E14's while everything
            // still streams from NVM; the epoch must comfortably cover
            // one hot-set rotation or promoted regions alias cold.
            epoch: SimDuration::from_ns(4_000_000),
            ..PolicyConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

fn row(table: &mut Table, label: &str, r: &ScenarioResult, base: &ScenarioResult) {
    table.row(&[
        label.to_owned(),
        format!("{:.2}", r.wall.as_ns() as f64 / 1e6),
        format!("{:.2}x", base.wall.as_ns() as f64 / r.wall.as_ns() as f64),
        r.tier_ticks
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join("/"),
        format!("{}+{}", r.policy.promotions, r.policy.demotions),
        r.policy.cascades.to_string(),
        format!("{:.2}", r.compress_busy.as_ns() as f64 / 1e6),
        format!("{:.2}", r.decompress_busy.as_ns() as f64 / 1e6),
    ]);
}

pub(super) fn run() -> Report {
    let cost = CostModel::keystone_ii();

    let none = run_scenario(&cost, &scenario(1));
    let two = run_scenario(&cost, &scenario(2));
    let four = run_scenario(&cost, &scenario(0));
    // The same waterfall on a CXL expander ladder: the NVM rank is
    // swapped for DRAM-class reads behind an asymmetric serial link
    // (reads ~11 GB/s, writes ~4 GB/s), so the *pool home* is fast to
    // stream from but demotions into it pay the narrow write pipe.
    let cxl = run_scenario(
        &cost,
        &ScenarioConfig {
            cxl: true,
            ..scenario(0)
        },
    );
    // DRAM (node 0, tier 1) browns out to quarter speed mid-run.
    let browned = run_scenario(
        &cost,
        &ScenarioConfig {
            faults: Some(FaultPlan {
                brownouts: vec![Brownout {
                    node: NodeId(0),
                    start: SimTime::from_ns(2_000_000),
                    duration: SimDuration::from_ns(4_000_000),
                    factor: 0.25,
                }],
                ..FaultPlan::default()
            }),
            ..scenario(0)
        },
    );

    let mut table = Table::new(
        "E16: tiered phased hot-set by placement regime (4-tier ladder)",
        &[
            "regime",
            "wall ms",
            "vs none",
            "ticks@tier0-3",
            "pro+dem",
            "cascades",
            "comp ms",
            "decomp ms",
        ],
    );
    row(&mut table, "none", &none, &none);
    row(&mut table, "2-tier", &two, &none);
    row(&mut table, "4-tier", &four, &none);
    row(&mut table, "4-tier-cxl", &cxl, &none);
    row(&mut table, "4-tier+brownout", &browned, &none);

    for (label, r) in [("none", &none), ("2-tier", &two), ("4-tier", &four)] {
        assert_eq!(
            r.policy.moves_failed, 0,
            "{label}: fault-free runs must not fail moves"
        );
        assert_eq!(r.ticks, none.ticks, "{label}: identical application work");
    }
    assert_eq!(none.fast_ticks, 0, "no policy leaves everything on NVM");
    assert!(
        four.policy.cascades > 0,
        "the waterfall cascaded under pressure: {:?}",
        four.policy
    );
    assert!(
        four.compress_busy.as_ns() > 0,
        "the compressed floor was exercised and its codec work priced"
    );
    assert!(
        four.tiers
            .iter()
            .any(|t| t.kind == "compressed" && t.moves_in > 0),
        "moves actually landed on the floor: {:?}",
        four.tiers
    );

    // The CXL row exercises the asymmetric-expander rank: the ladder
    // really carries a cxl tier, the app streams from it, and the
    // waterfall still climbs hot work to SRAM.
    assert!(
        cxl.tiers.iter().any(|t| t.kind == "cxl"),
        "the expander rank exists: {:?}",
        cxl.tiers
    );
    assert!(
        cxl.fast_ticks > 0 && cxl.policy.promotions > 0,
        "hot work still climbs on the CXL ladder: {:?}",
        cxl.policy
    );

    // The acceptance bars: more ranks must pay for themselves.
    assert!(
        four.wall < two.wall,
        "4-tier ({:?}) must beat the classic 2-tier policy ({:?})",
        four.wall,
        two.wall,
    );
    assert!(
        four.wall < none.wall,
        "4-tier ({:?}) must beat no policy ({:?})",
        four.wall,
        none.wall,
    );
    // Brownouts degrade bandwidth, never correctness: every issued hop
    // reaches exactly one terminal status.
    let distinct: HashSet<u64> = browned.statuses.iter().map(|(id, _)| *id).collect();
    assert_eq!(
        distinct.len(),
        browned.statuses.len(),
        "no request retires twice"
    );
    assert_eq!(
        browned.statuses.len() as u64,
        browned.driver.completed + browned.driver.failed,
        "no request is lost: {:?}",
        browned.driver
    );

    Report {
        tables: vec![("e16_waterfall", table)],
        note: format!(
            "Shape checks: the waterfall serves {}/{} streams from SRAM+DRAM \
             (vs {} under the 2-tier policy), sinks frozen regions to zram \
             ({:.2} ms of codec time), and beats the 2-tier regime {:.2}x \
             end-to-end.",
            four.tier_ticks[0] + four.tier_ticks[1],
            four.tier_ticks.iter().sum::<u64>(),
            two.tier_ticks[0] + two.tier_ticks[1],
            (four.compress_busy.as_ns() + four.decompress_busy.as_ns()) as f64 / 1e6,
            two.wall.as_ns() as f64 / four.wall.as_ns() as f64,
        ),
    }
}
