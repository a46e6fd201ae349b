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
//! traffic; deterministic tests pin a promoted-heir chain crash, the
//! all-points matrix, and the acknowledgement contract: a completion is
//! delivered at least once until its retrieval is durable, and not
//! after.

use std::cell::RefCell;
use std::rc::Rc;

use memif::{
    CrashPlan, CrashPoint, FaultPlan, HookId, Memif, MemifConfig, MoveSpec, MoveStatus, NodeId,
    RaceMode, Sim, SimDuration, SimEvent, System, VirtAddr,
};
use memif_bench::{crash_migrate_nvm, nvm_topology, CrashOutcome, CrashRun};
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

/// `count` journaled migrations of `PAGES` pages under `config`.
fn crash_run(
    config: &MemifConfig,
    count: usize,
    crash: Option<CrashPlan>,
    retrieve_early: bool,
) -> CrashOutcome {
    crash_migrate_nvm(CrashRun {
        config: config.clone(),
        page_size: PAGE,
        pages: PAGES,
        count,
        crash,
        retrieve_early,
        ..CrashRun::default()
    })
}

proptest! {
    // Each case runs a reference and a crashed+recovered stream from
    // scratch; keep the count small enough for a debug test run.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every crash point × firing index × issue-path configuration,
    /// with the application retrieving completions before the crash or
    /// only after it, recovery terminates every journaled request
    /// exactly once and the re-driven run, merged with what the
    /// application retrieved, converges to the uncrashed reference.
    #[test]
    fn exactly_once_recovery(
        point_sel in 0usize..6,
        nth in 1u64..8,
        cfg_sel in 0usize..4,
        count in 4usize..10,
        early in 0usize..2,
    ) {
        let point = CrashPoint::ALL[point_sel];
        // Post-retrieve is crossed only by an application that retrieves.
        let early = early == 1 || point == CrashPoint::PostRetrieve;
        let (batch, coalesce, shards) =
            [(1, false, 1), (4, false, 1), (4, true, 1), (3, true, 2)][cfg_sel];
        let config = config_for(batch, coalesce, shards);
        let reference = crash_run(&config, count, None, false);
        prop_assert!(!reference.crashed);
        let crashed = crash_run(&config, count, Some(CrashPlan::at(point, nth)), early);
        crashed.assert_converged(
            &reference,
            &format!(
                "{}#{nth} batch={batch} coalesce={coalesce} shards={shards} early={early}",
                point.as_str()
            ),
        );
    }

    /// The same crash points landing inside the placement daemon's
    /// background traffic: every journaled policy move seals exactly
    /// once, and data the journal durably calls `Done` is intact on the
    /// persistent node.
    #[test]
    fn policy_traffic_crash_recovers_exactly_once(
        point_sel in 0usize..6,
        nth in 1u64..4,
    ) {
        let point = CrashPoint::ALL[point_sel];
        policy_crash_run(Some(CrashPlan::at(point, nth)));
    }
}

/// Deterministic all-points matrix: every crash point at its first three
/// crossings, under batching, coalescing and two issue shards, with the
/// application retrieving before the crash and without.
#[test]
fn every_crash_point_recovers_under_batching_and_sharding() {
    let config = config_for(4, true, 2);
    let reference = crash_run(&config, 8, None, false);
    let mut fired = 0;
    for point in CrashPoint::ALL {
        for nth in 1..=3 {
            for early in [false, true] {
                let crashed = crash_run(&config, 8, Some(CrashPlan::at(point, nth)), early);
                fired += usize::from(crashed.crashed);
                crashed.assert_converged(
                    &reference,
                    &format!("{}#{nth} early={early}", point.as_str()),
                );
            }
        }
    }
    assert!(
        fired >= 20,
        "most plans in the matrix must actually fire: {fired}"
    );
}

/// Opens a journaled device on [`nvm_topology`] and maps `count` 8-page
/// regions on DDR.
fn journaled_machine(count: usize) -> (System, Sim<System>, Memif, Vec<VirtAddr>) {
    let mut sys = System::with_profile(nvm_topology(), CostModel::keystone_ii());
    let sim = Sim::new();
    let space = sys.new_space();
    let memif = Memif::open(&mut sys, space, config_for(1, false, 1)).unwrap();
    let regions = (0..count)
        .map(|_| sys.mmap(space, PAGES, PAGE, NodeId(0)).unwrap())
        .collect();
    (sys, sim, memif, regions)
}

fn migrate(sys: &mut System, sim: &mut Sim<System>, memif: Memif, va: VirtAddr, cookie: u64) {
    let spec = MoveSpec::migrate(va, PAGES, PAGE, NodeId(1)).with_user_data(cookie);
    memif.submit(sys, sim, spec).unwrap();
}

fn reported_cookies(report: &memif::RecoveryReport) -> Vec<u64> {
    let mut cookies: Vec<u64> = report.statuses.iter().map(|&(_, _, c)| c).collect();
    cookies.sort_unstable();
    cookies
}

/// A crash after the application retrieved completions but before any
/// journal write carried the acknowledgements: recovery reports those
/// requests again, each exactly once, with the status already seen.
#[test]
fn pending_acknowledgement_is_reported_again_exactly_once() {
    let (mut sys, mut sim, memif, regions) = journaled_machine(4);
    sys.install_faults(&mut sim, FaultPlan::crash_at(CrashPoint::PostRetrieve, 3));
    for (cookie, va) in regions.iter().enumerate() {
        migrate(&mut sys, &mut sim, memif, *va, cookie as u64);
    }
    sim.run(&mut sys);
    assert_eq!(sys.journal().records().len(), 4, "sealed, not retrieved");
    let mut seen = Vec::new();
    while !sys.crashed() {
        let c = memif.retrieve_completed(&mut sys).unwrap().expect("posted");
        assert_eq!(c.status.0, MoveStatus::Done);
        seen.push(c.user_data);
    }
    assert_eq!(seen.len(), 3, "the third retrieval crashed");
    assert!(
        memif.retrieve_completed(&mut sys).unwrap().is_none(),
        "a halted machine delivers nothing"
    );
    let report = sys.recover(&mut sim);
    assert_eq!(report.journal_records, 4);
    assert_eq!(report.recovered_requests(), 0, "every move had retired");
    assert_eq!(
        reported_cookies(&report),
        [0, 1, 2, 3],
        "no journal write followed the three retrievals"
    );
    assert!(report.statuses.iter().all(|s| s.1 == MoveStatus::Done));
}

/// A retrieval whose acknowledgement rode on a later journal write is
/// durable: recovery does not report the request, and its record is
/// gone from the journal.
#[test]
fn durably_acknowledged_request_is_not_reported_and_its_record_is_gone() {
    let (mut sys, mut sim, memif, regions) = journaled_machine(3);
    for (cookie, va) in regions[..2].iter().enumerate() {
        migrate(&mut sys, &mut sim, memif, *va, cookie as u64);
    }
    sim.run(&mut sys);
    for _ in 0..2 {
        memif.retrieve_completed(&mut sys).unwrap().expect("posted");
    }
    let cookies = |sys: &System| -> Vec<u64> {
        sys.journal()
            .records()
            .iter()
            .map(|r| r.req.user_data)
            .collect()
    };
    assert_eq!(cookies(&sys), [0, 1], "acknowledgements still pending");
    // The next submission issues inline; its append carries both
    // acknowledgements.
    migrate(&mut sys, &mut sim, memif, regions[2], 2);
    assert_eq!(cookies(&sys), [2]);
    sys.force_crash(&mut sim, "test");
    let report = sys.recover(&mut sim);
    assert_eq!(report.journal_records, 3, "appends, dropped ones included");
    assert_eq!(reported_cookies(&report), [2], "only the move in flight");
    assert_eq!(report.rolled_back, 1);
    assert!(
        !cookies(&sys).iter().any(|&c| c < 2),
        "acknowledged records are gone"
    );
}

/// A re-opened device's request ids continue past every id the journal
/// recorded for it: no request submitted after the reboot shares an id
/// with a request the recovery report names.
#[test]
fn requests_after_a_reboot_get_ids_the_report_does_not_name() {
    let (mut sys, mut sim, memif, regions) = journaled_machine(4);
    for (cookie, va) in regions.iter().enumerate() {
        migrate(&mut sys, &mut sim, memif, *va, cookie as u64);
    }
    sim.run(&mut sys);
    sys.force_crash(&mut sim, "test");
    let report = sys.recover(&mut sim);
    assert_eq!(reported_cookies(&report), [0, 1, 2, 3], "none retrieved");
    let mut fresh = Vec::new();
    for (cookie, va) in regions.iter().enumerate() {
        let spec = MoveSpec::migrate(*va, PAGES, PAGE, NodeId(0)).with_user_data(cookie as u64);
        fresh.push(memif.submit(&mut sys, &mut sim, spec).unwrap().0 .0);
    }
    sim.run(&mut sys);
    while let Some(c) = memif.retrieve_completed(&mut sys).unwrap() {
        assert_eq!(c.status.0, MoveStatus::Done);
    }
    for id in &fresh {
        assert!(
            !report.statuses.iter().any(|s| s.0 == *id),
            "request {id}, submitted after the reboot, reuses a reported id: {:?}",
            report.statuses
        );
    }
}

/// A crash plan that never fires (its point is never crossed) leaves
/// the run byte-identical to no plan at all.
#[test]
fn unfired_crash_plan_is_invisible() {
    // batch_max=1: no chains, so mid-chain is never crossed.
    let config = config_for(1, false, 1);
    let reference = crash_run(&config, 6, None, false);
    let unfired = crash_run(
        &config,
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
    unfired.assert_converged(&reference, "unfired mid-chain");
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
    assert_eq!(report.recovered_requests(), 3, "heir + two members");
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
        // What the journal held at the crash: the records not durably
        // acknowledged, and the retrievals whose acknowledgement was
        // still waiting for a journal write.
        let retained: Vec<u64> = sys
            .journal()
            .records()
            .iter()
            .filter(|r| !r.acknowledged)
            .map(|r| r.req.id)
            .collect();
        let pending: Vec<u64> = sys.journal().pending_acks().map(|(_, id)| id).collect();
        let unsealed = sys
            .journal()
            .records()
            .iter()
            .filter(|r| r.sealed.is_none())
            .count() as u64;
        let report = sys.recover(&mut sim);
        assert_eq!(
            report.recovered_requests(),
            unsealed,
            "each move in flight at the crash is recovered once"
        );
        // At most one terminal status per journaled policy move.
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
        // The daemon retrieved completions as it drained them. Merged
        // with those retrievals, the report covers every journaled move
        // exactly once: it names each record not durably acknowledged
        // (a retrieval whose acknowledgement was pending is reported
        // again), and the records dropped are exactly the retrievals
        // made durable.
        let reported: Vec<u64> = report.statuses.iter().map(|s| s.0).collect();
        assert_eq!(reported, retained, "every retained record, in append order");
        assert!(
            pending.iter().all(|id| seen.contains(id)),
            "pending acknowledgements {pending:?} not all reported again"
        );
        assert!(reported.iter().all(|&id| id < report.journal_records));
        let durable = daemon.stats().retrieved - pending.len() as u64;
        assert_eq!(
            report.journal_records - reported.len() as u64,
            durable,
            "records dropped vs. retrievals made durable"
        );
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
