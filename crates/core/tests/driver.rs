//! End-to-end driver tests: the full submit → flush → MOV_ONE → DMA →
//! release → notify pipeline, including race handling in all three
//! modes, the interrupt/poll mode switch, validation failures, and
//! multi-device isolation.

use std::collections::BTreeMap;

use memif::{
    FaultPlan, Memif, MemifConfig, MemifError, MoveSpec, NodeId, PageSize, RaceMode, Sim, SimEvent,
    SimTime, System,
};
use memif_mm::{AccessKind, Fault};

const PAGE: u64 = 4096;

struct Setup {
    sys: System,
    sim: Sim<System>,
    space: memif::SpaceId,
    memif: Memif,
}

fn setup_with(config: MemifConfig) -> Setup {
    let mut sys = System::keystone_ii();
    let sim = Sim::new();
    let space = sys.new_space();
    let memif = Memif::open(&mut sys, space, config).unwrap();
    Setup {
        sys,
        sim,
        space,
        memif,
    }
}

fn setup() -> Setup {
    setup_with(MemifConfig::default())
}

fn pattern(len: u64, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_add((i % 251) as u8))
        .collect()
}

#[test]
fn replication_moves_bytes() {
    let mut s = setup();
    let src = s
        .sys
        .mmap(s.space, 8, PageSize::Small4K, NodeId(0))
        .unwrap();
    let dst = s
        .sys
        .mmap(s.space, 8, PageSize::Small4K, NodeId(1))
        .unwrap();
    let data = pattern(8 * PAGE, 7);
    s.sys.write_user(s.space, src, &data).unwrap();

    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::replicate(src, dst, 8, PageSize::Small4K),
        )
        .unwrap();
    s.sim.run(&mut s.sys);

    let done = s
        .memif
        .retrieve_completed(&mut s.sys)
        .unwrap()
        .expect("completed");
    assert!(done.status.is_ok());
    assert_eq!(done.bytes, 8 * PAGE);

    let mut back = vec![0u8; data.len()];
    s.sys.read_user(s.space, dst, &mut back).unwrap();
    assert_eq!(back, data);
}

#[test]
fn migration_replaces_backing_and_preserves_data() {
    let mut s = setup();
    let va = s
        .sys
        .mmap(s.space, 16, PageSize::Small4K, NodeId(0))
        .unwrap();
    let data = pattern(16 * PAGE, 42);
    s.sys.write_user(s.space, va, &data).unwrap();
    let live_before = s.sys.alloc.live_frames();
    let sram_free_before = s.sys.alloc.free_bytes(NodeId(1));

    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 16, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.sim.run(&mut s.sys);

    let done = s
        .memif
        .retrieve_completed(&mut s.sys)
        .unwrap()
        .expect("completed");
    assert!(done.status.is_ok(), "status: {:?}", done.status);

    // Backing moved to SRAM; data identical; no frame leak.
    let pa = s.sys.space(s.space).translate(va).unwrap();
    assert_eq!(s.sys.node_of(pa), Some(NodeId(1)));
    let mut back = vec![0u8; data.len()];
    s.sys.read_user(s.space, va, &mut back).unwrap();
    assert_eq!(back, data);
    assert_eq!(s.sys.alloc.live_frames(), live_before);
    assert_eq!(
        s.sys.alloc.free_bytes(NodeId(1)),
        sram_free_before - 16 * PAGE
    );
}

#[test]
fn burst_of_requests_needs_one_syscall() {
    // §6.4: "Through the course, the application only makes one syscall
    // — ioctl() for the first request."
    let mut s = setup();
    let mut regions = Vec::new();
    for _ in 0..8 {
        regions.push(
            s.sys
                .mmap(s.space, 16, PageSize::Small4K, NodeId(0))
                .unwrap(),
        );
    }
    for va in &regions {
        s.memif
            .submit(
                &mut s.sys,
                &mut s.sim,
                MoveSpec::migrate(*va, 16, PageSize::Small4K, NodeId(1)),
            )
            .unwrap();
    }
    s.sim.run(&mut s.sys);

    let dev = s.sys.device(s.memif.device()).unwrap();
    assert_eq!(
        dev.stats.ioctls, 1,
        "single kick-start syscall for the whole burst"
    );
    assert_eq!(dev.stats.completed, 8);
    assert_eq!(dev.log.len(), 8);
    // Completions arrive in submission order and strictly spread in time
    // (each request completes soon after the previous one, Figure 7).
    let times: Vec<_> = dev.log.iter().map(|r| r.completed_at).collect();
    for w in times.windows(2) {
        assert!(w[0] < w[1]);
    }
    for i in 0..8 {
        let c = s
            .memif
            .retrieve_completed(&mut s.sys)
            .unwrap()
            .expect("one per request");
        assert!(c.status.is_ok(), "request {i}");
    }
    assert!(s.memif.retrieve_completed(&mut s.sys).unwrap().is_none());
}

#[test]
fn race_detection_fails_the_request() {
    let mut s = setup();
    let va = s
        .sys
        .mmap(s.space, 4, PageSize::Small4K, NodeId(0))
        .unwrap();
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 4, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    // Touch one page while the DMA is in flight: the reference clears the
    // young bit of the semi-final PTE and Release's CAS must detect it.
    s.sim.schedule_at(
        SimTime::from_ns(1),
        SimEvent::call(move |sys: &mut System, _| {
            sys.space_mut(memif::SpaceId(0))
                .access(va, AccessKind::Read)
                .unwrap();
        }),
    );
    s.sim.run(&mut s.sys);

    let done = s
        .memif
        .retrieve_completed(&mut s.sys)
        .unwrap()
        .expect("completed");
    assert!(
        done.status.is_race(),
        "SEGFAULT-equivalent under proceed-and-fail"
    );
    let dev = s.sys.device(s.memif.device()).unwrap();
    assert_eq!(dev.stats.races_detected, 1, "only the touched page raced");
    assert_eq!(dev.stats.failed, 1);
}

/// The per-node move counters credit a migration once it lands: source
/// node out, destination node in. One that loses a proceed-and-fail
/// race left its pages where they were and credits neither; one the CPU
/// copy served after the descriptor pool stayed exhausted landed and is
/// credited like any other.
#[test]
fn node_moves_credit_each_landed_migration_once() {
    let moves = |s: &Setup| {
        let stats = &s.sys.device(s.memif.device()).unwrap().stats;
        (stats.node_moves_out.clone(), stats.node_moves_in.clone())
    };
    let migrate = |s: &mut Setup| {
        let va = s
            .sys
            .mmap(s.space, 4, PageSize::Small4K, NodeId(0))
            .unwrap();
        s.memif
            .submit(
                &mut s.sys,
                &mut s.sim,
                MoveSpec::migrate(va, 4, PageSize::Small4K, NodeId(1)),
            )
            .unwrap();
        va
    };
    let once = (BTreeMap::from([(0, 1)]), BTreeMap::from([(1, 1)]));

    let mut s = setup();
    migrate(&mut s);
    s.sim.run(&mut s.sys);
    assert_eq!(moves(&s), once, "a landed migration credits 0 -> 1 once");

    let mut s = setup();
    let va = migrate(&mut s);
    s.sim.schedule_at(
        SimTime::from_ns(1),
        SimEvent::call(move |sys: &mut System, _| {
            sys.space_mut(memif::SpaceId(0))
                .access(va, AccessKind::Read)
                .unwrap();
        }),
    );
    s.sim.run(&mut s.sys);
    let done = s.memif.retrieve_completed(&mut s.sys).unwrap().unwrap();
    assert!(done.status.is_race());
    assert_eq!(
        moves(&s),
        Default::default(),
        "a raced migration moved nothing"
    );

    let mut s = setup_with(MemifConfig {
        max_dma_retries: 0,
        ..MemifConfig::default()
    });
    s.sys.install_faults(
        &mut s.sim,
        FaultPlan {
            seed: 1,
            desc_exhaust_rate: 1.0,
            ..FaultPlan::default()
        },
    );
    migrate(&mut s);
    s.sim.run(&mut s.sys);
    let done = s.memif.retrieve_completed(&mut s.sys).unwrap().unwrap();
    assert!(done.status.is_ok(), "{:?}", done.status);
    assert_eq!(s.sys.device(s.memif.device()).unwrap().stats.fallbacks, 1);
    assert_eq!(moves(&s), once, "the CPU copy landed it 0 -> 1");
}

#[test]
fn undisturbed_migration_skips_release_tlb_flushes() {
    // §5.2: "On success, no TLB flush is needed since the semi-final PTE
    // never enters TLB."
    let mut s = setup();
    let va = s
        .sys
        .mmap(s.space, 8, PageSize::Small4K, NodeId(0))
        .unwrap();
    let flushes_before = s.sys.space(s.space).tlb().stats().page_flushes;
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 8, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.sim.run(&mut s.sys);
    let flushes = s.sys.space(s.space).tlb().stats().page_flushes - flushes_before;
    assert_eq!(flushes, 8, "one flush per page (Remap); none in Release");
}

#[test]
fn prevention_mode_flushes_twice_and_blocks_access() {
    let config = MemifConfig {
        race_mode: RaceMode::Prevent,
        ..MemifConfig::default()
    };
    let mut s = setup_with(config);
    let va = s
        .sys
        .mmap(s.space, 8, PageSize::Small4K, NodeId(0))
        .unwrap();
    let flushes_before = s.sys.space(s.space).tlb().stats().page_flushes;
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 8, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    // Mid-flight access hits the migration entry and blocks.
    s.sim.schedule_at(
        SimTime::from_ns(1),
        SimEvent::call(move |sys: &mut System, _| {
            let err = sys
                .space_mut(memif::SpaceId(0))
                .access(va, AccessKind::Read)
                .unwrap_err();
            assert!(matches!(err, Fault::BlockedByMigration(_)));
        }),
    );
    s.sim.run(&mut s.sys);
    let done = s
        .memif
        .retrieve_completed(&mut s.sys)
        .unwrap()
        .expect("completed");
    assert!(done.status.is_ok(), "prevention never reports races");
    let flushes = s.sys.space(s.space).tlb().stats().page_flushes - flushes_before;
    assert_eq!(flushes, 16, "Remap and Release both flush, as in Linux");
}

#[test]
fn recover_mode_aborts_and_preserves_the_write() {
    let config = MemifConfig {
        race_mode: RaceMode::DetectRecover,
        ..MemifConfig::default()
    };
    let mut s = setup_with(config);
    let va = s
        .sys
        .mmap(s.space, 4, PageSize::Small4K, NodeId(0))
        .unwrap();
    s.sys
        .write_user(s.space, va, &pattern(4 * PAGE, 1))
        .unwrap();
    let sram_free = s.sys.alloc.free_bytes(NodeId(1));

    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 4, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    // A mid-flight store traps, aborts the migration, and succeeds
    // against the restored old mapping.
    let space = s.space;
    s.sim.schedule_at(
        SimTime::from_ns(1),
        SimEvent::call(move |sys: &mut System, sim| {
            sys.cpu_write(sim, space, va.offset(100), &[0xEE])
                .expect("write preserved");
        }),
    );
    s.sim.run(&mut s.sys);

    let done = s
        .memif
        .retrieve_completed(&mut s.sys)
        .unwrap()
        .expect("notified");
    assert!(done.status.is_aborted());
    let dev = s.sys.device(s.memif.device()).unwrap();
    assert_eq!(dev.stats.aborts, 1);

    // Old mapping restored (still DDR), write visible, new frames freed.
    let pa = s.sys.space(s.space).translate(va).unwrap();
    assert_eq!(s.sys.node_of(pa), Some(NodeId(0)));
    let mut byte = [0u8];
    s.sys.read_user(s.space, va.offset(100), &mut byte).unwrap();
    assert_eq!(byte[0], 0xEE);
    assert_eq!(
        s.sys.alloc.free_bytes(NodeId(1)),
        sram_free,
        "SRAM fully returned"
    );
}

#[test]
fn poll_wakes_on_completion() {
    let mut s = setup();
    let va = s
        .sys
        .mmap(s.space, 4, PageSize::Small4K, NodeId(0))
        .unwrap();
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 4, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();

    // Sleep until the notification; record when we woke.
    static WOKE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    WOKE.store(0, std::sync::atomic::Ordering::SeqCst);
    let memif = s.memif;
    memif
        .poll(&mut s.sys, &mut s.sim, move |sys, sim| {
            WOKE.store(sim.now().as_ns(), std::sync::atomic::Ordering::SeqCst);
            let c = memif
                .retrieve_completed(sys)
                .unwrap()
                .expect("ready at wake");
            assert!(c.status.is_ok());
        })
        .unwrap();
    s.sim.run(&mut s.sys);
    let woke = WOKE.load(std::sync::atomic::Ordering::SeqCst);
    assert!(woke > 0, "waker ran");

    // Polling when a completion is already queued fires immediately.
    let va2 = s
        .sys
        .mmap(s.space, 4, PageSize::Small4K, NodeId(0))
        .unwrap();
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va2, 4, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.sim.run(&mut s.sys);
    let fired;
    {
        static FIRED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
        FIRED.store(false, std::sync::atomic::Ordering::SeqCst);
        memif
            .poll(&mut s.sys, &mut s.sim, |_, _| {
                FIRED.store(true, std::sync::atomic::Ordering::SeqCst);
            })
            .unwrap();
        s.sim.run(&mut s.sys);
        fired = FIRED.load(std::sync::atomic::Ordering::SeqCst);
    }
    assert!(fired);
}

#[test]
fn validation_failures_arrive_asynchronously() {
    let mut s = setup();
    let va = s
        .sys
        .mmap(s.space, 4, PageSize::Small4K, NodeId(0))
        .unwrap();

    // Unaligned source.
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va.offset(1), 4, PageSize::Small4K, NodeId(1)).with_user_data(1),
        )
        .unwrap();
    // Unknown node.
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 4, PageSize::Small4K, NodeId(9)).with_user_data(2),
        )
        .unwrap();
    // Range exceeding the VMA.
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 400, PageSize::Small4K, NodeId(1)).with_user_data(3),
        )
        .unwrap();
    // Page-size mismatch.
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 1, PageSize::Medium64K, NodeId(1)).with_user_data(4),
        )
        .unwrap();
    s.sim.run(&mut s.sys);

    let mut seen = Vec::new();
    while let Some(c) = s.memif.retrieve_completed(&mut s.sys).unwrap() {
        assert_eq!(c.status.0, memif::MoveStatus::Invalid);
        seen.push(c.user_data);
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![1, 2, 3, 4]);
    let dev = s.sys.device(s.memif.device()).unwrap();
    assert_eq!(dev.stats.failed, 4);
    assert_eq!(dev.stats.completed, 0);
}

#[test]
fn migration_oom_reports_and_rolls_back() {
    let mut s = setup();
    // 1537 pages exceed the 1536-page SRAM.
    let va = s
        .sys
        .mmap(s.space, 1_537, PageSize::Small4K, NodeId(0))
        .unwrap();
    let sram_free = s.sys.alloc.free_bytes(NodeId(1));
    // Request only covers 512 pages at a time (descriptor pool limit);
    // submit three full 512s then the remainder — the last one OOMs only
    // if SRAM is full; instead make one request that cannot fit:
    // fill SRAM first.
    let hog = s
        .sys
        .mmap(s.space, 1_200, PageSize::Small4K, NodeId(1))
        .unwrap();
    let _ = hog;
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 400, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.sim.run(&mut s.sys);

    let done = s
        .memif
        .retrieve_completed(&mut s.sys)
        .unwrap()
        .expect("notified");
    assert_eq!(done.status.0, memif::MoveStatus::OutOfMemory);
    // Nothing leaked: free SRAM unchanged apart from the hog region.
    assert_eq!(s.sys.alloc.free_bytes(NodeId(1)), sram_free - 1_200 * PAGE);
    // Source mapping untouched.
    let pa = s.sys.space(s.space).translate(va).unwrap();
    assert_eq!(s.sys.node_of(pa), Some(NodeId(0)));
}

#[test]
fn poll_threshold_selects_completion_path() {
    // Small request (64 KiB < 512 KiB): polling mode, no interrupt.
    let mut s = setup();
    let va = s
        .sys
        .mmap(s.space, 16, PageSize::Small4K, NodeId(0))
        .unwrap();
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 16, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.sim.run(&mut s.sys);
    let dev = s.sys.device(s.memif.device()).unwrap();
    assert_eq!(dev.stats.polled, 1);
    assert_eq!(dev.stats.interrupts, 0);

    // Large request (1 MiB ≥ 512 KiB): interrupt path.
    let va2 = s
        .sys
        .mmap(s.space, 256, PageSize::Small4K, NodeId(0))
        .unwrap();
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va2, 256, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.sim.run(&mut s.sys);
    let dev = s.sys.device(s.memif.device()).unwrap();
    assert_eq!(dev.stats.interrupts, 1);
    assert_eq!(dev.stats.polled, 1);
}

#[test]
fn descriptor_reuse_cheapens_second_request() {
    let mut s = setup();
    let a = s
        .sys
        .mmap(s.space, 32, PageSize::Small4K, NodeId(0))
        .unwrap();
    let b = s
        .sys
        .mmap(s.space, 32, PageSize::Small4K, NodeId(0))
        .unwrap();
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(a, 32, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.sim.run(&mut s.sys);
    let full_after_first = s.sys.dma.stats().full_configs;
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(b, 32, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.sim.run(&mut s.sys);
    let stats = s.sys.dma.stats();
    assert_eq!(full_after_first, 32);
    assert_eq!(
        stats.full_configs, 32,
        "second transfer reused the whole chain"
    );
    assert_eq!(stats.reuse_configs, 32);
}

#[test]
fn reuse_disabled_reconfigures_fully() {
    let config = MemifConfig {
        descriptor_reuse: false,
        ..MemifConfig::default()
    };
    let mut s = setup_with(config);
    s.sys.dma.set_reuse_enabled(false);
    let a = s
        .sys
        .mmap(s.space, 16, PageSize::Small4K, NodeId(0))
        .unwrap();
    for _ in 0..2 {
        s.memif
            .submit(
                &mut s.sys,
                &mut s.sim,
                MoveSpec::migrate(a, 16, PageSize::Small4K, NodeId(1)),
            )
            .unwrap();
        s.sim.run(&mut s.sys);
    }
    let stats = s.sys.dma.stats();
    assert_eq!(stats.full_configs, 32);
    assert_eq!(stats.reuse_configs, 0);
}

#[test]
fn slot_exhaustion_is_synchronous() {
    let config = MemifConfig {
        queue_capacity: 2,
        ..MemifConfig::default()
    };
    let mut s = setup_with(config);
    let va = s
        .sys
        .mmap(s.space, 2, PageSize::Small4K, NodeId(0))
        .unwrap();
    // Submit without running the sim: slots stay in flight.
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 1, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 1, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    let err = s
        .memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 1, PageSize::Small4K, NodeId(1)),
        )
        .unwrap_err();
    assert_eq!(err, MemifError::Exhausted);
    // Drain; slots return; submission works again.
    s.sim.run(&mut s.sys);
    while s.memif.retrieve_completed(&mut s.sys).unwrap().is_some() {}
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 1, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.sim.run(&mut s.sys);
}

#[test]
fn devices_are_isolated_and_share_the_engine() {
    let mut sys = System::keystone_ii();
    let mut sim = Sim::new();
    let p1 = sys.new_space();
    let p2 = sys.new_space();
    let m1 = Memif::open(&mut sys, p1, MemifConfig::default()).unwrap();
    let m2 = Memif::open(&mut sys, p2, MemifConfig::default()).unwrap();
    let a = sys.mmap(p1, 64, PageSize::Small4K, NodeId(0)).unwrap();
    let b = sys.mmap(p2, 64, PageSize::Small4K, NodeId(0)).unwrap();

    m1.submit(
        &mut sys,
        &mut sim,
        MoveSpec::migrate(a, 64, PageSize::Small4K, NodeId(1)),
    )
    .unwrap();
    m2.submit(
        &mut sys,
        &mut sim,
        MoveSpec::migrate(b, 64, PageSize::Small4K, NodeId(1)),
    )
    .unwrap();
    sim.run(&mut sys);

    assert!(m1
        .retrieve_completed(&mut sys)
        .unwrap()
        .unwrap()
        .status
        .is_ok());
    assert!(m2
        .retrieve_completed(&mut sys)
        .unwrap()
        .unwrap()
        .status
        .is_ok());
    assert!(m1.retrieve_completed(&mut sys).unwrap().is_none());
    let d1 = sys.device(m1.device()).unwrap();
    let d2 = sys.device(m2.device()).unwrap();
    assert_eq!(d1.stats.completed, 1);
    assert_eq!(d2.stats.completed, 1);
    assert_eq!(d1.stats.ioctls, 1);
    assert_eq!(d2.stats.ioctls, 1, "each instance kick-starts itself");
}

#[test]
fn close_refuses_busy_device() {
    let mut s = setup();
    let va = s
        .sys
        .mmap(s.space, 4, PageSize::Small4K, NodeId(0))
        .unwrap();
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 4, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    assert!(
        s.memif.close(&mut s.sys).is_err(),
        "in-flight work blocks close"
    );
    s.sim.run(&mut s.sys);
    while s.memif.retrieve_completed(&mut s.sys).unwrap().is_some() {}
    s.memif.close(&mut s.sys).unwrap();
}

#[test]
fn latency_log_is_consistent() {
    let mut s = setup();
    let va = s
        .sys
        .mmap(s.space, 16, PageSize::Small4K, NodeId(0))
        .unwrap();
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 16, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.sim.run(&mut s.sys);
    let dev = s.sys.device(s.memif.device()).unwrap();
    let rec = dev.log.iter().next().expect("request retired");
    assert_eq!(rec.bytes, 16 * PAGE);
    let started = rec.dma_started_at.expect("launched");
    assert!(rec.submitted_at <= started);
    assert!(started < rec.completed_at);
    assert!(rec.latency().as_ns() > 0);
}

#[test]
fn large_pages_migrate_with_fewer_descriptors() {
    let mut s = setup();
    let va = s
        .sys
        .mmap(s.space, 2, PageSize::Large2M, NodeId(0))
        .unwrap();
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 2, PageSize::Large2M, NodeId(1)),
        )
        .unwrap();
    s.sim.run(&mut s.sys);
    let done = s.memif.retrieve_completed(&mut s.sys).unwrap().unwrap();
    assert!(done.status.is_ok());
    assert_eq!(done.bytes, 4 << 20);
    assert_eq!(
        s.sys.dma.stats().full_configs,
        2,
        "one descriptor per 2 MiB page"
    );
    let pa = s.sys.space(s.space).translate(va).unwrap();
    assert_eq!(s.sys.node_of(pa), Some(NodeId(1)));
}

#[test]
fn overlapping_migrations_of_one_region_serialize() {
    // Two queued migrations of the *same* region are a driver-visible
    // ordering hazard: planning the second while the first is in flight
    // would overwrite the first's semi-final PTEs and misreport it as
    // raced. The issue-time overlap guard instead parks the second
    // until the first retires, so both succeed in submission order and
    // the region ends where the *last* request put it. (A racing CPU
    // store is still detected as a race — the guard only serializes the
    // driver against itself.)
    let mut s = setup();
    let va = s
        .sys
        .mmap(s.space, 16, PageSize::Small4K, NodeId(0))
        .unwrap();
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 16, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 16, PageSize::Small4K, NodeId(0)),
        )
        .unwrap();
    s.sim.run(&mut s.sys);

    let mut statuses = std::collections::HashMap::new();
    while let Some(c) = s.memif.retrieve_completed(&mut s.sys).unwrap() {
        statuses.insert(c.req_id.0, c.status);
    }
    assert!(statuses[&0].is_ok(), "first migration completes untouched");
    assert!(
        statuses[&1].is_ok(),
        "second migration runs after the first"
    );
    let dev = s.sys.device(s.memif.device()).unwrap();
    assert_eq!(
        dev.stats.requests_deferred, 1,
        "the overlap guard parked the second migration exactly once"
    );
    // The region ends where the second migration put it: back on DDR.
    let pa = s.sys.space(s.space).translate(va).unwrap();
    assert_eq!(s.sys.node_of(pa), Some(NodeId(0)));
}

#[test]
fn descriptor_pool_exhaustion_retries_until_served() {
    // Two devices, each pipelining two 256-page requests, want
    // 4 x 256 = 1024 descriptors from the 512-entry PaRAM. The driver
    // backs off and retries instead of failing requests.
    let mut sys = System::keystone_ii();
    let mut sim = Sim::new();
    let mut handles = Vec::new();
    for _ in 0..2 {
        let space = sys.new_space();
        let memif = Memif::open(&mut sys, space, MemifConfig::default()).unwrap();
        for _ in 0..3 {
            let src = sys.mmap(space, 256, PageSize::Small4K, NodeId(0)).unwrap();
            let dst = sys.mmap(space, 256, PageSize::Small4K, NodeId(0)).unwrap();
            memif
                .submit(
                    &mut sys,
                    &mut sim,
                    MoveSpec::replicate(src, dst, 256, PageSize::Small4K),
                )
                .unwrap();
        }
        handles.push(memif);
    }
    sim.run(&mut sys);
    for memif in handles {
        let mut done = 0;
        while let Some(c) = memif.retrieve_completed(&mut sys).unwrap() {
            assert!(c.status.is_ok(), "{:?}", c.status);
            done += 1;
        }
        assert_eq!(
            done, 3,
            "every request eventually served despite pool pressure"
        );
    }
}

#[test]
fn pipeline_depth_one_is_strictly_serial() {
    let config = MemifConfig {
        pipeline_depth: 1,
        ..MemifConfig::default()
    };
    let mut s = setup_with(config);
    let mut regions = Vec::new();
    for _ in 0..4 {
        regions.push(
            s.sys
                .mmap(s.space, 16, PageSize::Small4K, NodeId(0))
                .unwrap(),
        );
    }
    for va in &regions {
        s.memif
            .submit(
                &mut s.sys,
                &mut s.sim,
                MoveSpec::migrate(*va, 16, PageSize::Small4K, NodeId(1)),
            )
            .unwrap();
    }
    s.sim.run(&mut s.sys);
    let dev = s.sys.device(s.memif.device()).unwrap();
    assert_eq!(dev.stats.completed, 4);
    // Strict serialization: request k+1's DMA starts only after request
    // k's completion notification.
    for (a, b) in dev.log.iter().zip(dev.log.iter().skip(1)) {
        assert!(
            b.dma_started_at.unwrap() >= a.completed_at,
            "serial service: {:?} vs {:?}",
            b.dma_started_at,
            a.completed_at
        );
    }
}

#[test]
fn tracing_records_the_three_paths() {
    let mut s = setup();
    s.sys.enable_tracing();
    // Large request => interrupt path; small => polling path.
    let big = s
        .sys
        .mmap(s.space, 256, PageSize::Small4K, NodeId(0))
        .unwrap();
    let small = s
        .sys
        .mmap(s.space, 4, PageSize::Small4K, NodeId(0))
        .unwrap();
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(big, 256, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(small, 4, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.sim.run(&mut s.sys);

    let trace = s.sys.trace();
    assert!(!trace.is_empty());
    let has = |needle: &str| trace.iter().any(|e| e.label.contains(needle));
    assert!(has("ioctl(MOV_ONE)"), "syscall path traced");
    assert!(
        has("interrupt entry"),
        "interrupt path traced (large request)"
    );
    assert!(has("kthread wakes"), "polling path traced (small request)");
    assert!(has("ops 1-3"), "preparation traced");
    assert!(has("ops 4-5"), "release traced");
    assert!(has("recolored blue"), "idle hand-off traced");
    // Every entry carries a monotone, in-range timestamp.
    for w in trace.windows(2) {
        assert!(w[0].at <= w[1].at, "trace is time-ordered");
    }
}

#[test]
fn transfer_controllers_bound_concurrency() {
    // Table 2: six transfer controllers. Eight simultaneous tenants can
    // keep at most six transfers on the engine; the rest queue and all
    // eventually complete.
    let mut sys = System::keystone_ii();
    let mut sim = Sim::new();
    let mut handles = Vec::new();
    for _ in 0..8 {
        let space = sys.new_space();
        let memif = Memif::open(&mut sys, space, MemifConfig::default()).unwrap();
        let src = sys.mmap(space, 32, PageSize::Small4K, NodeId(0)).unwrap();
        let dst = sys.mmap(space, 32, PageSize::Small4K, NodeId(0)).unwrap();
        memif
            .submit(
                &mut sys,
                &mut sim,
                MoveSpec::replicate(src, dst, 32, PageSize::Small4K),
            )
            .unwrap();
        handles.push(memif);
    }
    // Probe concurrency while transfers are in flight.
    let peak = std::rc::Rc::new(std::cell::Cell::new(0usize));
    for t in (0..4000u64).step_by(50) {
        let peak = std::rc::Rc::clone(&peak);
        sim.schedule_at(
            SimTime::from_ns(t * 1_000),
            SimEvent::call(move |sys: &mut System, _| {
                peak.set(peak.get().max(sys.active_transfers()));
            }),
        );
    }
    sim.run(&mut sys);
    assert!(
        peak.get() >= 5,
        "the engine was actually loaded: peak {}",
        peak.get()
    );
    assert!(
        peak.get() <= 6,
        "never more transfers than controllers: peak {}",
        peak.get()
    );
    for memif in handles {
        let c = memif
            .retrieve_completed(&mut sys)
            .unwrap()
            .expect("completed");
        assert!(c.status.is_ok());
    }
}

#[test]
fn interleaved_region_migrates_to_one_node() {
    // A region spread across both nodes by policy is gathered onto the
    // fast node by one migration — the driver handles mixed-source
    // scatter-gather fine.
    use memif_mm::{AllocPolicy, Populate};
    let mut s = setup();
    let va = s
        .sys
        .mmap_with(
            s.space,
            8,
            PageSize::Small4K,
            AllocPolicy::Interleave(vec![NodeId(0), NodeId(1)]),
            Populate::Eager,
        )
        .unwrap();
    let data = pattern(8 * PAGE, 3);
    s.sys.write_user(s.space, va, &data).unwrap();

    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 8, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.sim.run(&mut s.sys);
    assert!(s
        .memif
        .retrieve_completed(&mut s.sys)
        .unwrap()
        .unwrap()
        .status
        .is_ok());

    for i in 0..8u64 {
        let pa = s.sys.space(s.space).translate(va.offset(i * PAGE)).unwrap();
        assert_eq!(s.sys.node_of(pa), Some(NodeId(1)), "page {i} gathered");
    }
    let mut back = vec![0u8; data.len()];
    s.sys.read_user(s.space, va, &mut back).unwrap();
    assert_eq!(back, data);
}

#[test]
fn migrating_an_unpopulated_lazy_region_fails_cleanly() {
    use memif_mm::{AllocPolicy, Populate};
    let mut s = setup();
    let va = s
        .sys
        .mmap_with(
            s.space,
            4,
            PageSize::Small4K,
            AllocPolicy::Bind(NodeId(0)),
            Populate::Lazy,
        )
        .unwrap();
    // Touch only the first page.
    s.sys.write_user(s.space, va, &[1]).unwrap();
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 4, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.sim.run(&mut s.sys);
    let c = s.memif.retrieve_completed(&mut s.sys).unwrap().unwrap();
    assert_eq!(
        c.status.0,
        memif::MoveStatus::Invalid,
        "holes are rejected, mapping untouched"
    );
    assert!(s.sys.space(s.space).translate(va).is_some());
}

#[test]
fn recover_mode_tolerates_reads() {
    // Proceed-and-recover traps *writes*; a mid-flight read clears the
    // young bit but must not fail the migration — the driver finalizes
    // the read-disturbed entry, clears the write trap, and the request
    // completes Done. (Found and pinned by the driver fuzzer.)
    let config = MemifConfig {
        race_mode: RaceMode::DetectRecover,
        ..MemifConfig::default()
    };
    let mut s = setup_with(config);
    let va = s
        .sys
        .mmap(s.space, 4, PageSize::Small4K, NodeId(0))
        .unwrap();
    s.memif
        .submit(
            &mut s.sys,
            &mut s.sim,
            MoveSpec::migrate(va, 4, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    s.sim.schedule_at(
        SimTime::from_ns(1),
        SimEvent::call(move |sys: &mut System, _| {
            sys.space_mut(memif::SpaceId(0))
                .access(va, AccessKind::Read)
                .unwrap();
        }),
    );
    s.sim.run(&mut s.sys);

    let done = s
        .memif
        .retrieve_completed(&mut s.sys)
        .unwrap()
        .expect("completed");
    assert!(
        done.status.is_ok(),
        "reads are transparent in recover mode: {:?}",
        done.status
    );
    // Migration took effect, and the page is writable again (no leaked
    // watch bit).
    let pa = s.sys.space(s.space).translate(va).unwrap();
    assert_eq!(s.sys.node_of(pa), Some(NodeId(1)));
    assert!(s
        .sys
        .space_mut(s.space)
        .access(va, AccessKind::Write)
        .is_ok());
}
