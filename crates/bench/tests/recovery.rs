//! Exactly-once crash recovery over the persistent NVM tier.
//!
//! A crash halts the world mid-move and drops all volatile state;
//! `System::recover` must then terminate every journaled request in
//! exactly one terminal status — no lost moves, no doubled moves — and
//! the post-crash application protocol (re-drive everything without a
//! durable `Done`) must land the machine byte-identical to a run that
//! never crashed.
//!
//! The tests do not sample crash points: each runs a scenario once
//! under `System::arm_crash(0)`, which never fires, to count its `N`
//! crash opportunities, then crashes it at every `K` in `1..=N` — each
//! {batch, coalesce, shards} issue path, with the application
//! retrieving before the crash or only after, the placement daemon's
//! background traffic, and a chain whose leader a racing write aborted.
//! Every failure names its `K`. More tests pin the acknowledgement
//! contract (a completion is delivered at least once until its
//! retrieval is durable, and not after) and that a halted machine
//! journals and issues no submission.

use std::cell::RefCell;
use std::rc::Rc;

use memif::{
    HookId, Memif, MemifConfig, MoveSpec, MoveStatus, NodeId, RaceMode, Sim, SimDuration, SimEvent,
    SpaceId, System, VirtAddr,
};
use memif_bench::{crash_migrate_nvm, nvm_topology, CrashOutcome, CrashRun};
use memif_hwsim::CostModel;
use memif_mm::{AccessKind, PageSize};
use memif_policy::{PolicyConfig, PolicyDaemon};

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
    crash_at: u64,
    retrieve_early: bool,
) -> CrashOutcome {
    crash_migrate_nvm(CrashRun {
        config: config.clone(),
        page_size: PAGE,
        pages: PAGES,
        count,
        crash_at,
        retrieve_early,
        ..CrashRun::default()
    })
}

/// For every issue-path configuration, with the application retrieving
/// completions before the crash or only after, and for three stream
/// lengths, a crash at every opportunity `K` of the run fires, and
/// recovery plus the re-drive, merged with what the application
/// retrieved, converges to the uncrashed reference. With 8 requests,
/// batch-max 4, coalescing and 2 shards, each shard runs a full
/// 4-member chain.
#[test]
fn every_crash_opportunity_recovers_exactly_once() {
    for (batch, coalesce, shards) in [
        (1, false, 1),
        (4, false, 1),
        (4, true, 1),
        (4, true, 2),
        (3, true, 2),
    ] {
        let config = config_for(batch, coalesce, shards);
        for count in [4, 8, 9] {
            for early in [false, true] {
                let reference = crash_run(&config, count, 0, early);
                assert!(!reference.crashed);
                let n = reference.opportunities;
                assert!(n > 0, "a run passes crash opportunities");
                let mut fired = 0;
                for k in 1..=n {
                    let crashed = crash_run(&config, count, k, early);
                    fired += u64::from(crashed.crashed);
                    crashed.assert_converged(
                        &reference,
                        &format!(
                            "crash-at={k} of {n}: batch={batch} coalesce={coalesce} \
                             shards={shards} count={count} early={early}"
                        ),
                    );
                }
                assert_eq!(fired, n, "every opportunity of the unfired run fires");
            }
        }
    }
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
    for (cookie, va) in regions.iter().enumerate() {
        migrate(&mut sys, &mut sim, memif, *va, cookie as u64);
    }
    sim.run(&mut sys);
    assert_eq!(sys.journal().records().len(), 4, "sealed, not retrieved");
    // No event runs between the retrievals: each is the next crash
    // opportunity.
    sys.arm_crash(3);
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

/// A halted machine stages a submission into queues the crash already
/// lost: neither entry point journals or issues it, and recovery does
/// not name it — the request is the application's to resubmit.
#[test]
fn submissions_on_a_halted_machine_journal_and_issue_nothing() {
    let (mut sys, mut sim, memif, regions) = journaled_machine(2);
    sys.force_crash(&mut sim, "test");
    migrate(&mut sys, &mut sim, memif, regions[0], 0);
    let spec = MoveSpec::migrate(regions[1], PAGES, PAGE, NodeId(1)).with_user_data(1);
    memif.submit_background(&mut sys, &mut sim, spec).unwrap();
    sim.run(&mut sys);
    assert!(sys.journal().records().is_empty(), "nothing journaled");
    assert_eq!(
        sys.device(memif.device())
            .unwrap()
            .stats
            .descriptors_written,
        0,
        "nothing issued"
    );
    let report = sys.recover(&mut sim);
    assert_eq!(report.journal_records, 0);
    assert!(report.statuses.is_empty(), "{:?}", report.statuses);
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

/// A crash plan that never fires (`K = N + 1`) leaves a run byte-
/// identical to one that only counts (`K = 0`) and to one with no plan
/// armed at all: the same event log, record for record, for the
/// journaled stream and for the placement daemon's traffic.
#[test]
fn unfired_crash_plan_is_invisible() {
    let run = |crash_at| {
        crash_migrate_nvm(CrashRun {
            config: config_for(4, true, 2),
            page_size: PAGE,
            pages: PAGES,
            count: 6,
            crash_at,
            retrieve_early: true,
            log_events: true,
            ..CrashRun::default()
        })
    };
    let reference = run(0);
    let n = reference.opportunities;
    let unfired = run(n + 1);
    assert!(!unfired.crashed);
    assert!(unfired.recovery.is_none());
    assert_eq!(unfired.resubmitted, 0);
    assert_eq!(unfired.opportunities, n);
    assert!(!reference.events.is_empty());
    assert_eq!(
        unfired.events, reference.events,
        "an unfired plan changed the event log"
    );
    assert_eq!(unfired.wall, reference.wall);
    unfired.assert_converged(&reference, "unfired plan");

    let (_, _, unarmed) = policy_crash_run(None, "no plan");
    let (_, n, counted) = policy_crash_run(Some(0), "K = 0");
    let (crashed, _, unfired) = policy_crash_run(Some(n + 1), "K = N + 1");
    assert!(!crashed);
    assert!(!unarmed.is_empty());
    assert_eq!(counted, unarmed, "counting changed the event log");
    assert_eq!(unfired, unarmed, "an unfired plan changed the event log");
}

const HEIR_COUNT: usize = 4;

fn heir_fill(sys: &mut System, space: SpaceId, regions: &[VirtAddr], r: usize) {
    for p in 0..PAGES {
        let page = regions[r].offset(u64::from(p) * PAGE.bytes());
        let pa = sys.space(space).translate(page).unwrap();
        sys.phys
            .fill(pa, PAGE.bytes(), 1 + (r as u8) * 31 + (p as u8) * 7);
    }
}

/// Four background migrations in one chained launch, and a racing
/// write that aborts the chain's leader mid-flight and promotes the
/// next member to heir. Checks the journal's linkage after the
/// promotion and returns the machine an instant after the write.
fn promoted_heir_machine() -> (System, Sim<System>, Memif, SpaceId, Vec<VirtAddr>) {
    let mut sys = System::with_profile(nvm_topology(), CostModel::keystone_ii());
    let mut sim = Sim::new();
    let space = sys.new_space();
    let config = MemifConfig {
        journal: true,
        batch_max: HEIR_COUNT,
        race_mode: RaceMode::DetectRecover,
        ..MemifConfig::default()
    };
    let memif = Memif::open(&mut sys, space, config).unwrap();
    let regions: Vec<VirtAddr> = (0..HEIR_COUNT)
        .map(|_| sys.mmap(space, PAGES, PAGE, NodeId(0)).unwrap())
        .collect();
    for r in 0..HEIR_COUNT {
        heir_fill(&mut sys, space, &regions, r);
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
    assert_eq!(recs.len(), HEIR_COUNT);
    let by_cookie = |cookie: u64| recs.iter().find(|r| r.req.user_data == cookie).unwrap();
    let old_leader = by_cookie(0);
    let heir = by_cookie(1);
    assert_eq!(
        old_leader.sealed,
        Some(MoveStatus::Aborted),
        "racing write aborts the leader"
    );
    assert_eq!(heir.batch_leader, None, "heir took over the chain");
    for cookie in 2..HEIR_COUNT as u64 {
        assert_eq!(
            by_cookie(cookie).batch_leader,
            Some(heir.token),
            "member {cookie} must follow the promoted heir"
        );
    }
    (sys, sim, memif, space, regions)
}

/// A crash at every opportunity after a racing write promoted a batch
/// heir: the journal's leader/member linkage must survive the
/// promotion, and recovery must classify the heir and the members by
/// their own milestones. One `K` lands inside the heir's chain
/// completion, between the heir's copy and the members': the heir
/// (`CopyDone`, NVM destination) rolls forward while the two members
/// (`Issued`) roll back.
#[test]
fn crash_after_a_promoted_heir_recovers_exactly_once() {
    let (mut sys, mut sim, ..) = promoted_heir_machine();
    sys.arm_crash(0);
    sim.run(&mut sys);
    let n = sys.crash_opportunities();
    let mut inside_chain = 0;
    for k in 1..=n {
        let (mut sys, mut sim, memif, space, regions) = promoted_heir_machine();
        sys.arm_crash(k);
        sim.run(&mut sys);
        assert!(sys.crashed(), "crash-at={k} of {n} did not fire");

        let report = sys.recover(&mut sim);
        assert_eq!(report.journal_records, HEIR_COUNT as u64, "crash-at={k}");
        let status_of = |cookie: u64| {
            let matches: Vec<MoveStatus> = report
                .statuses
                .iter()
                .filter(|(_, _, ud)| *ud == cookie)
                .map(|(_, s, _)| *s)
                .collect();
            assert_eq!(
                matches.len(),
                1,
                "crash-at={k}: cookie {cookie} must seal exactly once"
            );
            matches[0]
        };
        assert_eq!(status_of(0), MoveStatus::Aborted, "crash-at={k}");
        if (
            report.recovered_requests(),
            report.redriven,
            report.rolled_back,
        ) == (3, 1, 2)
        {
            inside_chain += 1;
            assert_eq!(status_of(1), MoveStatus::Done, "crash-at={k}: heir");
            assert_eq!(status_of(2), MoveStatus::Aborted, "crash-at={k}");
            assert_eq!(status_of(3), MoveStatus::Aborted, "crash-at={k}");
        }

        // WAL re-drive: restore source data for the requests without a
        // `Done` and resubmit; everything must converge onto NVM with
        // the original pattern (a `Done` move's pages stay untouched).
        let mut resubmitted = 0;
        for cookie in 0..HEIR_COUNT {
            if status_of(cookie as u64) == MoveStatus::Done {
                continue;
            }
            heir_fill(&mut sys, space, &regions, cookie);
            memif
                .submit(
                    &mut sys,
                    &mut sim,
                    MoveSpec::migrate(regions[cookie], PAGES, PAGE, NodeId(1))
                        .with_user_data(cookie as u64),
                )
                .unwrap();
            resubmitted += 1;
        }
        sim.run(&mut sys);
        let mut redriven = 0;
        while let Some(c) = memif.retrieve_completed(&mut sys).unwrap() {
            assert!(
                c.status.is_ok(),
                "crash-at={k}: re-drive failed: {:?}",
                c.status
            );
            redriven += 1;
        }
        assert_eq!(redriven, resubmitted, "crash-at={k}");
        for (r, va) in regions.iter().enumerate() {
            for p in 0..PAGES {
                let page = va.offset(u64::from(p) * PAGE.bytes());
                let pa = sys.space(space).translate(page).expect("page mapped");
                assert_eq!(
                    sys.node_of(pa),
                    Some(NodeId(1)),
                    "crash-at={k}: region {r} on NVM"
                );
                let expect = 1 + (r as u8) * 31 + (p as u8) * 7;
                let mut byte = [0u8];
                sys.phys.read(pa, &mut byte);
                assert_eq!(byte[0], expect, "crash-at={k}: region {r} page {p} content");
            }
        }
        for rec in sys.journal().records() {
            assert!(
                rec.sealed.is_some(),
                "crash-at={k}: record left unsealed after re-drive"
            );
        }
        assert_eq!(
            sys.space(space).scan_transient(),
            [],
            "crash-at={k}: transient PTEs survived the re-drive"
        );
    }
    assert_eq!(
        inside_chain, 1,
        "exactly one crash opportunity lies inside the heir's chain completion"
    );
}

/// A crash at every opportunity inside the placement daemon's
/// background traffic: every journaled policy move seals exactly once,
/// and data the journal durably calls `Done` is intact on the
/// persistent node.
#[test]
fn policy_traffic_crash_recovers_exactly_once() {
    let (_, n, _) = policy_crash_run(Some(0), "count");
    assert!(n > 0, "the daemon's run passes crash opportunities");
    for k in 1..=n {
        let (crashed, ..) = policy_crash_run(Some(k), &format!("crash-at={k} of {n}"));
        assert!(crashed, "crash-at={k} of {n} did not fire");
    }
}

/// Drives the placement daemon on the NVM topology with an optional
/// crash plan: hot regions promote into the persistent node, the crash
/// lands inside that background traffic, and recovery must seal every
/// journaled policy move exactly once with persistent-resident data
/// intact. Failures name `label`. Returns whether the plan fired, the
/// crash opportunities the run passed and its event log.
fn policy_crash_run(crash_at: Option<u64>, label: &str) -> (bool, u64, Vec<String>) {
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
    sys.enable_event_log();
    let memif = Memif::open(&mut sys, space, config).unwrap();
    if let Some(k) = crash_at {
        sys.arm_crash(k);
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

    let crashed = sys.crashed();
    if crashed {
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
            "{label}: each move in flight at the crash is recovered once"
        );
        // At most one terminal status per journaled policy move.
        let mut seen = std::collections::HashSet::new();
        for (req_id, status, _) in &report.statuses {
            assert!(
                seen.insert(*req_id),
                "{label}: request {req_id} reported twice"
            );
            assert!(
                matches!(
                    status,
                    MoveStatus::Done
                        | MoveStatus::Aborted
                        | MoveStatus::Failed(_)
                        | MoveStatus::Raced
                ),
                "{label}: non-terminal status {status:?}"
            );
        }
        // The daemon retrieved completions as it drained them. Merged
        // with those retrievals, the report covers every journaled move
        // exactly once: it names each record not durably acknowledged
        // (a retrieval whose acknowledgement was pending is reported
        // again), and the records dropped are exactly the retrievals
        // made durable.
        let reported: Vec<u64> = report.statuses.iter().map(|s| s.0).collect();
        assert_eq!(
            reported, retained,
            "{label}: every retained record, in append order"
        );
        assert!(
            pending.iter().all(|id| seen.contains(id)),
            "{label}: pending acknowledgements {pending:?} not all reported again"
        );
        assert!(
            reported.iter().all(|&id| id < report.journal_records),
            "{label}: a reported id was never journaled"
        );
        let durable = daemon.stats().retrieved - pending.len() as u64;
        assert_eq!(
            report.journal_records - reported.len() as u64,
            durable,
            "{label}: records dropped vs. retrievals made durable"
        );
    } else {
        // No plan, or one that never fired: the run simply completed;
        // the journal must still be fully sealed.
        assert!(
            daemon.stats().epochs > 0,
            "{label}: daemon ran even without a crash"
        );
    }
    for rec in sys.journal().records() {
        assert!(
            rec.sealed.is_some(),
            "{label}: policy move {} left unsealed",
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
                    "{label}: NVM-resident region {r} page {p} lost its bytes"
                );
            }
        }
    }
    (crashed, sys.crash_opportunities(), sys.take_event_log())
}

/// The policy run must also hold up with no crash plan at all, and
/// then counts no opportunity.
#[test]
fn policy_traffic_reference_run_is_clean() {
    let (crashed, opportunities, _) = policy_crash_run(None, "reference");
    assert_eq!((crashed, opportunities), (false, 0));
}
