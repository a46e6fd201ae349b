//! Exactly-once crash recovery over the persistent NVM tier.
//!
//! A crash point halts the world mid-move and drops all volatile state;
//! `System::recover` must then terminate every journaled request in
//! exactly one terminal status — no lost moves, no doubled moves — and
//! the post-crash application protocol (re-drive everything without a
//! durable `Done`) must land the machine byte-identical to a run that
//! never crashed. The proptest sweeps crash point × firing index ×
//! {batch, coalesce, shards} configurations; a second proptest drives
//! the same crash points through the placement daemon's background
//! traffic; deterministic tests pin a promoted-heir chain crash and the
//! all-points smoke matrix that CI runs.

use std::cell::RefCell;
use std::rc::Rc;

use memif::{
    CrashPlan, CrashPoint, FaultPlan, HookId, Memif, MemifConfig, MoveSpec, MoveStatus, NodeId,
    RaceMode, Sim, SimDuration, SimEvent, System, VirtAddr,
};
use memif_bench::{crash_migrate_nvm, nvm_topology, CrashOutcome};
use memif_hwsim::CostModel;
use memif_mm::{AccessKind, PageSize};
use memif_policy::{PolicyConfig, PolicyDaemon};
use proptest::prelude::*;

const PAGE: PageSize = PageSize::Small4K;
const PAGES: u32 = 8;

fn config_for(batch_max: usize, coalesce: bool, issue_shards: usize) -> MemifConfig {
    MemifConfig {
        batch_max,
        coalesce,
        issue_shards,
        journal: true,
        ..MemifConfig::default()
    }
}

/// The equality the tentpole promises: after recovery plus the WAL
/// re-drive protocol, a crashed run is indistinguishable from one that
/// never crashed.
fn assert_matches_reference(crashed: &CrashOutcome, reference: &CrashOutcome, label: &str) {
    for (cookie, status) in &crashed.statuses {
        assert_eq!(
            *status,
            MoveStatus::Done,
            "{label}: cookie {cookie} did not end Done: {status:?}"
        );
    }
    assert_eq!(
        crashed.statuses.len(),
        reference.statuses.len(),
        "{label}: request count diverged"
    );
    assert_eq!(
        crashed.placement, reference.placement,
        "{label}: final placement diverged"
    );
    assert_eq!(
        crashed.fingerprint, reference.fingerprint,
        "{label}: final memory diverged"
    );
    assert_eq!(
        crashed.free_bytes, reference.free_bytes,
        "{label}: allocator balance diverged (lost or doubled frames)"
    );
    if let Some(report) = &crashed.recovery {
        assert_eq!(
            report.recovered_requests,
            report.rolled_back + report.redriven,
            "{label}: recovery counters inconsistent"
        );
    }
}

proptest! {
    // Each case runs a reference and a crashed+recovered stream from
    // scratch; keep the count in tier-2 smoke territory.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every crash point × firing index × issue-path configuration,
    /// recovery terminates every journaled request exactly once and the
    /// re-driven run converges to the uncrashed reference.
    #[test]
    fn exactly_once_recovery(
        point_sel in 0usize..5,
        nth in 1u64..8,
        cfg_sel in 0usize..4,
        count in 4usize..10,
    ) {
        let point = CrashPoint::ALL[point_sel];
        let (batch, coalesce, shards) =
            [(1, false, 1), (4, false, 1), (4, true, 1), (3, true, 2)][cfg_sel];
        let cost = CostModel::keystone_ii();
        let config = config_for(batch, coalesce, shards);
        let reference = crash_migrate_nvm(&cost, config.clone(), PAGE, PAGES, count, None, false);
        prop_assert!(!reference.crashed);
        let crashed = crash_migrate_nvm(
            &cost, config, PAGE, PAGES, count, Some(CrashPlan::at(point, nth)), false);
        assert_matches_reference(
            &crashed,
            &reference,
            &format!("{}#{nth} batch={batch} coalesce={coalesce} shards={shards}", point.as_str()),
        );
    }

    /// The same crash points landing inside the placement daemon's
    /// background traffic: every journaled policy move seals exactly
    /// once, and data the journal durably calls `Done` is intact on the
    /// persistent node.
    #[test]
    fn policy_traffic_crash_recovers_exactly_once(
        point_sel in 0usize..5,
        nth in 1u64..4,
    ) {
        let point = CrashPoint::ALL[point_sel];
        policy_crash_run(Some(CrashPlan::at(point, nth)));
    }
}

/// Deterministic all-points matrix — the CI tier-2 smoke entry point
/// (`cargo test -p memif-bench --release --test recovery`).
#[test]
fn every_crash_point_recovers_under_batching_and_sharding() {
    let cost = CostModel::keystone_ii();
    let config = config_for(4, true, 2);
    let reference = crash_migrate_nvm(&cost, config.clone(), PAGE, PAGES, 8, None, false);
    let mut fired = 0;
    for point in CrashPoint::ALL {
        for nth in 1..=3 {
            let crashed = crash_migrate_nvm(
                &cost,
                config.clone(),
                PAGE,
                PAGES,
                8,
                Some(CrashPlan::at(point, nth)),
                false,
            );
            fired += usize::from(crashed.crashed);
            assert_matches_reference(&crashed, &reference, &format!("{}#{nth}", point.as_str()));
        }
    }
    assert!(
        fired >= 10,
        "most plans in the matrix must actually fire: {fired}"
    );
}

/// A crash plan that never fires (its point is never crossed) leaves
/// the run byte-identical to no plan at all.
#[test]
fn unfired_crash_plan_is_invisible() {
    let cost = CostModel::keystone_ii();
    // batch_max=1: no chains, so mid-chain is never crossed.
    let config = config_for(1, false, 1);
    let reference = crash_migrate_nvm(&cost, config.clone(), PAGE, PAGES, 6, None, false);
    let unfired = crash_migrate_nvm(
        &cost,
        config,
        PAGE,
        PAGES,
        6,
        Some(CrashPlan::at(CrashPoint::MidChain, 1)),
        false,
    );
    assert!(!unfired.crashed);
    assert!(unfired.recovery.is_none());
    assert_eq!(unfired.resubmitted, 0);
    assert_eq!(
        unfired.wall, reference.wall,
        "unfired plan perturbed timing"
    );
    assert_matches_reference(&unfired, &reference, "unfired mid-chain");
}

/// Crash points inside a batched chain whose leader was aborted by a
/// racing write: the journal's leader/member linkage must survive heir
/// promotion, and recovery must classify the heir (`CopyDone`, NVM
/// destination → roll forward) differently from the members (`Issued`
/// → roll back) — the satellite-c scenario.
#[test]
fn midchain_crash_with_promoted_heir_recovers_exactly_once() {
    const COUNT: usize = 4;
    let mut sys = System::with_profile(nvm_topology(), CostModel::keystone_ii());
    let mut sim = Sim::new();
    let space = sys.new_space();
    let config = MemifConfig {
        journal: true,
        batch_max: COUNT,
        race_mode: RaceMode::DetectRecover,
        ..MemifConfig::default()
    };
    let memif = Memif::open(&mut sys, space, config).unwrap();
    sys.install_faults(&mut sim, FaultPlan::crash_at(CrashPoint::MidChain, 1));

    let regions: Vec<VirtAddr> = (0..COUNT)
        .map(|_| sys.mmap(space, PAGES, PAGE, NodeId(0)).unwrap())
        .collect();
    let fill = |sys: &mut System, r: usize| {
        for p in 0..PAGES {
            let page = regions[r].offset(u64::from(p) * PAGE.bytes());
            let pa = sys.space(space).translate(page).unwrap();
            sys.phys
                .fill(pa, PAGE.bytes(), 1 + (r as u8) * 31 + (p as u8) * 7);
        }
    };
    for r in 0..COUNT {
        fill(&mut sys, r);
    }
    // Background submission: all four stage on the blue queue and the
    // kernel worker drains them into a single chained launch (a
    // foreground `submit` would issue the first request inline, solo).
    for (i, va) in regions.iter().enumerate() {
        memif
            .submit_background(
                &mut sys,
                &mut sim,
                MoveSpec::migrate(*va, PAGES, PAGE, NodeId(1)).with_user_data(i as u64),
            )
            .unwrap();
    }

    // Step until the chain's descriptors are on the engine, then land a
    // racing store on the chain leader's first page: DetectRecover
    // aborts the leader mid-flight and promotes the next member to
    // heir, rewriting the journal linkage.
    let mut guard = 0;
    while sys
        .device(memif.device())
        .unwrap()
        .stats
        .descriptors_written
        == 0
    {
        let until = sim.now() + SimDuration::from_us(1);
        sim.run_until(&mut sys, until);
        guard += 1;
        assert!(guard < 100_000, "chain never launched");
    }
    sys.cpu_write(&mut sim, space, regions[0].offset(64), &[0xEE])
        .unwrap();

    // Promotion happened synchronously in the fault path: check the
    // journal linkage before the chain completes.
    let recs = sys.journal().records().to_vec();
    assert_eq!(recs.len(), COUNT);
    let by_cookie = |cookie: u64| recs.iter().find(|r| r.req.user_data == cookie).unwrap();
    let old_leader = by_cookie(0);
    let heir = by_cookie(1);
    assert_eq!(
        old_leader.sealed,
        Some(MoveStatus::Aborted),
        "racing write aborts the leader"
    );
    assert_eq!(heir.batch_leader, None, "heir took over the chain");
    for cookie in 2..COUNT as u64 {
        assert_eq!(
            by_cookie(cookie).batch_leader,
            Some(heir.token),
            "member {cookie} must follow the promoted heir"
        );
    }

    sim.run(&mut sys);
    assert!(sys.crashed(), "mid-chain crash fired on the heir's chain");

    let report = sys.recover(&mut sim);
    assert_eq!(report.journal_records, COUNT as u64);
    assert_eq!(report.recovered_requests, 3, "heir + two members");
    assert_eq!(report.redriven, 1, "heir was CopyDone onto NVM");
    assert_eq!(report.rolled_back, 2, "members had no bytes in place");
    let status_of = |cookie: u64| {
        let matches: Vec<MoveStatus> = report
            .statuses
            .iter()
            .filter(|(_, _, ud)| *ud == cookie)
            .map(|(_, s, _)| *s)
            .collect();
        assert_eq!(matches.len(), 1, "cookie {cookie} must seal exactly once");
        matches[0]
    };
    assert_eq!(status_of(0), MoveStatus::Aborted);
    assert_eq!(status_of(1), MoveStatus::Done);
    assert_eq!(status_of(2), MoveStatus::Aborted);
    assert_eq!(status_of(3), MoveStatus::Aborted);

    // WAL re-drive: restore source data for the three non-Done requests
    // and resubmit; everything must converge onto NVM with the original
    // pattern (the heir's pages untouched by the second pass).
    for cookie in [0usize, 2, 3] {
        fill(&mut sys, cookie);
        memif
            .submit(
                &mut sys,
                &mut sim,
                MoveSpec::migrate(regions[cookie], PAGES, PAGE, NodeId(1))
                    .with_user_data(cookie as u64),
            )
            .unwrap();
    }
    sim.run(&mut sys);
    let mut redriven = 0;
    while let Some(c) = memif.retrieve_completed(&mut sys).unwrap() {
        assert!(c.status.is_ok(), "re-drive failed: {:?}", c.status);
        redriven += 1;
    }
    assert_eq!(redriven, 3);
    for (r, va) in regions.iter().enumerate() {
        for p in 0..PAGES {
            let page = va.offset(u64::from(p) * PAGE.bytes());
            let pa = sys.space(space).translate(page).expect("page mapped");
            assert_eq!(sys.node_of(pa), Some(NodeId(1)), "region {r} on NVM");
            let expect = 1 + (r as u8) * 31 + (p as u8) * 7;
            let mut byte = [0u8];
            sys.phys.read(pa, &mut byte);
            assert_eq!(byte[0], expect, "region {r} page {p} content");
        }
    }
    for rec in sys.journal().records() {
        assert!(rec.sealed.is_some(), "record left unsealed after re-drive");
    }
}

/// Drives the placement daemon on the NVM topology with an optional
/// crash plan: hot regions promote into the persistent node, the crash
/// lands inside that background traffic, and recovery must seal every
/// journaled policy move exactly once with persistent-resident data
/// intact.
fn policy_crash_run(crash: Option<CrashPlan>) {
    const REGIONS: usize = 4;
    const POLICY_PAGES: u32 = 32;
    let mut sys = System::with_profile(nvm_topology(), CostModel::keystone_ii());
    let mut sim = Sim::new();
    let space = sys.new_space();
    let config = MemifConfig {
        journal: true,
        race_mode: RaceMode::DetectRecover,
        ..MemifConfig::default()
    };
    let memif = Memif::open(&mut sys, space, config).unwrap();
    if let Some(plan) = crash {
        sys.install_faults(
            &mut sim,
            FaultPlan {
                crash: Some(plan),
                ..FaultPlan::default()
            },
        );
    }
    let daemon = PolicyDaemon::launch(&mut sys, &mut sim, memif, space, PolicyConfig::default());
    let regions: Vec<VirtAddr> = (0..REGIONS)
        .map(|_| sys.mmap(space, POLICY_PAGES, PAGE, NodeId(0)).unwrap())
        .collect();
    for (r, va) in regions.iter().enumerate() {
        for p in 0..POLICY_PAGES {
            let page = va.offset(u64::from(p) * PAGE.bytes());
            let pa = sys.space(space).translate(page).unwrap();
            sys.phys
                .fill(pa, PAGE.bytes(), 1 + (r as u8) * 29 + (p as u8) * 5);
        }
        daemon.track(&sys, *va, POLICY_PAGES, PAGE);
    }

    // The app: touch the first two regions every 400 µs so the daemon
    // promotes them into NVM; stop after ten ticks.
    let d2 = daemon.clone();
    let hot = [regions[0], regions[1]];
    let touch: Rc<RefCell<Option<HookId>>> = Rc::new(RefCell::new(None));
    let touch2 = Rc::clone(&touch);
    let id = sys.register_hook(move |sys, sim, tick| {
        for va in hot {
            for p in 0..POLICY_PAGES {
                let page = va.offset(u64::from(p) * PAGE.bytes());
                let _ = sys.space_mut(space).access(page, AccessKind::Read);
            }
        }
        if tick < 10 {
            let hook = touch2.borrow().expect("set before run");
            sim.schedule_after(
                SimDuration::from_ns(400_000),
                SimEvent::Hook {
                    hook,
                    arg: tick + 1,
                },
            );
        } else {
            d2.stop();
        }
    });
    *touch.borrow_mut() = Some(id);
    sim.schedule_after(SimDuration::from_ns(0), SimEvent::Hook { hook: id, arg: 1 });
    sim.run(&mut sys);

    if sys.crashed() {
        let report = sys.recover(&mut sim);
        assert_eq!(
            report.recovered_requests,
            report.rolled_back + report.redriven
        );
        // Exactly one terminal status per journaled policy move.
        let mut seen = std::collections::HashSet::new();
        for (req_id, status, _) in &report.statuses {
            assert!(seen.insert(*req_id), "request {req_id} reported twice");
            assert!(
                matches!(
                    status,
                    MoveStatus::Done
                        | MoveStatus::Aborted
                        | MoveStatus::Failed(_)
                        | MoveStatus::Raced
                ),
                "non-terminal status {status:?}"
            );
        }
        assert_eq!(report.statuses.len() as u64, report.journal_records);
    } else {
        // The plan's point was crossed fewer than `nth` times: the run
        // simply completed; the journal must still be fully sealed.
        assert!(daemon.stats().epochs > 0, "daemon ran even without a crash");
    }
    for rec in sys.journal().records() {
        assert!(
            rec.sealed.is_some(),
            "policy move {} left unsealed",
            rec.req.id
        );
    }
    // Every page still mapped, and data the system placed on the
    // persistent node survived the crash byte-for-byte.
    for (r, va) in regions.iter().enumerate() {
        for p in 0..POLICY_PAGES {
            let page = va.offset(u64::from(p) * PAGE.bytes());
            let pa = sys.space(space).translate(page).expect("page still mapped");
            if sys.node_of(pa) == Some(NodeId(1)) {
                let mut byte = [0u8];
                sys.phys.read(pa, &mut byte);
                assert_eq!(
                    byte[0],
                    1 + (r as u8) * 29 + (p as u8) * 5,
                    "NVM-resident region {r} page {p} lost its bytes"
                );
            }
        }
    }
}

/// The policy run must also hold up with no crash at all (reference
/// behaviour for the proptest above).
#[test]
fn policy_traffic_reference_run_is_clean() {
    policy_crash_run(None);
}
