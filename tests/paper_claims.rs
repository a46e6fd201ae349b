//! The paper's evaluation claims, as executable assertions.
//!
//! Each test pins one qualitative result of §6 (the *shape*: who wins,
//! by roughly what factor, where the crossovers fall). Exact paper
//! magnitudes live in EXPERIMENTS.md; the tolerances here are loose
//! enough to survive re-calibration but tight enough to catch a
//! regression that would invalidate the reproduction.

use memif::{Memif, MemifConfig, MoveSpec, NodeId, PageSize, Sim, System};
use memif_baseline::{run_migspeed, MigspeedConfig};
use memif_bench::claims::CLAIMS;
use memif_bench::{probe_linux_once, probe_memif_once, stream, stream_linux, StreamSpec};
use memif_hwsim::{CostModel, Topology};
use memif_runtime::{Placement, StreamConfig, StreamRuntime};
use memif_workloads::{table4_kernels, ShapeKind};

fn booted() -> Topology {
    let mut t = Topology::keystone_ii();
    t.complete_boot();
    t
}

/// §2.2 / abstract: Linux migrates 1500 4 KB pages at ≈0.30 GB/s on the
/// ARM SoC — below 10% of the DDR bandwidth.
#[test]
fn claim_linux_migration_is_slow() {
    let r = run_migspeed(
        &booted(),
        &CostModel::keystone_ii(),
        MigspeedConfig {
            pages_per_syscall: 1_500,
            batches: 1,
            page_size: PageSize::Small4K,
            from: NodeId(0),
            to: NodeId(1),
        },
    );
    assert!(
        (0.25..0.35).contains(&r.throughput_gbps),
        "got {:.3}",
        r.throughput_gbps
    );
    assert!(
        r.throughput_gbps < 0.1 * 6.2,
        "below 10% of memory bandwidth"
    );
}

/// Abstract: "memif reduces CPU usage by up to 15% for small pages and
/// by up to 38× for large pages."
#[test]
fn claim_cpu_usage_reductions() {
    // Small pages: modest reduction (memif still does per-page VM work).
    let linux4k = probe_linux_once(&CostModel::keystone_ii(), PageSize::Small4K, 64);
    let memif4k = probe_memif_once(
        &CostModel::keystone_ii(),
        MemifConfig::default(),
        ShapeKind::Migrate,
        PageSize::Small4K,
        64,
        2,
    );
    assert!(
        memif4k.cpu_usage < linux4k.cpu_usage,
        "memif uses less CPU at 4KB"
    );
    assert!(
        memif4k.cpu_usage > linux4k.cpu_usage * 0.5,
        "at 4KB the reduction is modest (paper: up to 15%)"
    );
    // Large pages: an order-of-magnitude-plus reduction.
    let linux2m = probe_linux_once(&CostModel::keystone_ii(), PageSize::Large2M, 4);
    let memif2m = probe_memif_once(
        &CostModel::keystone_ii(),
        MemifConfig::default(),
        ShapeKind::Migrate,
        PageSize::Large2M,
        4,
        2,
    );
    let factor = linux2m.cpu_usage / memif2m.cpu_usage;
    assert!(factor > 20.0, "paper: up to 38x; got {factor:.0}x");
}

/// §6.4: in a burst of eight 16-page requests, memif makes one syscall
/// and each completion arrives soon after the previous; Linux either
/// pays one syscall per request or delays all completions to the batch
/// end.
#[test]
fn claim_latency_shape() {
    let memif_run = stream(StreamSpec {
        pages: 16,
        count: 8,
        window: 8,
        ..StreamSpec::default()
    });
    assert_eq!(memif_run.ioctls, 1, "one kick-start for the whole burst");
    // Evenly spread completions: max gap below 2x min gap.
    let gaps: Vec<u64> = memif_run
        .completion_times
        .windows(2)
        .map(|w| w[1].as_ns() - w[0].as_ns())
        .collect();
    let (min, max) = (gaps.iter().min().unwrap(), gaps.iter().max().unwrap());
    assert!(
        *max < *min * 3,
        "pipelined completions are evenly spaced: {gaps:?}"
    );

    let linux1 = stream_linux(&CostModel::keystone_ii(), PageSize::Small4K, 16, 8, 1);
    let linux8 = stream_linux(&CostModel::keystone_ii(), PageSize::Small4K, 16, 8, 8);
    let mean =
        |ts: &[memif::SimTime]| ts.iter().map(|t| t.as_ns()).sum::<u64>() as f64 / ts.len() as f64;
    let m = mean(&memif_run.completion_times);
    assert!(
        m < mean(&linux1.completion_times) * 0.75,
        "memif mean latency well below batch-1"
    );
    assert!(
        m < mean(&linux8.completion_times) * 0.5,
        "and far below batch-8"
    );
    // Paper: reduces latency by up to 63%.
    let reduction = 1.0 - m / mean(&linux8.completion_times);
    assert!(reduction > 0.5, "got {:.0}%", reduction * 100.0);
}

/// §6.5: except at one 4 KB page per request, memif migration beats
/// migspeed by ≥40%, by up to ~3× at large pages; replication is faster
/// still.
#[test]
fn claim_throughput_shape() {
    for (page, pages, min_ratio, max_ratio) in [
        (PageSize::Small4K, 16u32, 1.4, 6.0),
        (PageSize::Medium64K, 16, 2.0, 5.0),
        (PageSize::Large2M, 4, 2.0, 3.5),
    ] {
        let linux = stream_linux(&CostModel::keystone_ii(), page, pages, 24, 1);
        let mig = stream(StreamSpec {
            page_size: page,
            pages,
            count: 24,
            window: 8,
            ..StreamSpec::default()
        });
        let rep = stream(StreamSpec {
            kind: ShapeKind::Replicate,
            page_size: page,
            pages,
            count: 24,
            window: 8,
            ..StreamSpec::default()
        });
        let ratio = mig.throughput_gbps / linux.throughput_gbps;
        assert!(
            (min_ratio..max_ratio).contains(&ratio),
            "{page} x{pages}: mig/linux = {ratio:.2}"
        );
        assert!(
            rep.throughput_gbps >= mig.throughput_gbps * 0.99,
            "{page}: replication at least matches migration"
        );
    }
}

/// §6.6 / Table 4: every streaming kernel gains from the memif runtime;
/// STREAM kernels gain ≈⅓, pgain ≈¼.
#[test]
fn claim_streaming_gains() {
    for kernel in table4_kernels() {
        let mut gains = Vec::new();
        for placement in [Placement::SlowOnly, Placement::MemifPrefetch] {
            let mut sys = System::keystone_ii();
            let mut sim = Sim::new();
            let space = sys.new_space();
            let memif = (placement == Placement::MemifPrefetch)
                .then(|| Memif::open(&mut sys, space, MemifConfig::default()).unwrap());
            let config = StreamConfig {
                placement,
                total_input: 32 << 20,
                ..StreamConfig::default()
            };
            let rt =
                StreamRuntime::launch(&mut sys, &mut sim, space, memif, config, kernel.clone());
            sim.run(&mut sys);
            gains.push(rt.report().traffic_gbps);
        }
        let gain = gains[1] / gains[0] - 1.0;
        assert!(
            (0.10..0.55).contains(&gain),
            "{}: gain {:.1}% outside the paper's 20–35% neighborhood",
            kernel.name,
            gain * 100.0
        );
    }
}

/// §5.2: success-path Release does no TLB flushing (semi-final PTEs
/// never enter the TLB), halving the flush count vs prevention.
#[test]
fn claim_release_needs_no_flush() {
    let mut sys = System::keystone_ii();
    let mut sim = Sim::new();
    let space = sys.new_space();
    let memif = Memif::open(&mut sys, space, MemifConfig::default()).unwrap();
    let va = sys.mmap(space, 32, PageSize::Small4K, NodeId(0)).unwrap();
    let before = sys.space(space).tlb().stats().page_flushes;
    memif
        .submit(
            &mut sys,
            &mut sim,
            MoveSpec::migrate(va, 32, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    sim.run(&mut sys);
    assert!(memif
        .retrieve_completed(&mut sys)
        .unwrap()
        .unwrap()
        .status
        .is_ok());
    assert_eq!(sys.space(space).tlb().stats().page_flushes - before, 32);
}

/// The extension experiments (E10, E12–E19): every claims-table entry
/// whose gates read only the simulated clock runs its published sweep
/// and asserts every gate at its exact bound. A failure names the
/// entry. E17's wheel ≥ 5× heap gate reads the host clock, so it runs
/// only in the optimized `claims` binary.
#[test]
fn claims_table_holds() {
    for claim in CLAIMS.iter().filter(|c| !c.host_timed) {
        let report = claim.check();
        assert!(
            !report.tables.is_empty() && report.note.starts_with("Shape checks:"),
            "claim {} reported nothing",
            claim.id
        );
    }
}
