//! E18: overlap-depth-K pipelined streaming and the real-thread
//! futures front-end.
//!
//! Two tables:
//!
//! * **E18a — the overlap sweep, the asserted bar.** The §6.6 streaming
//!   runtime on a deliberately DMA-bound profile (a pass-through reader
//!   on KeyStone II: compute drains fast memory at 8 GB/s while the
//!   EDMA engine refills at 3 GB/s, over a deep ring of small buffers).
//!   At depth 1 a fill unit is a whole buffer: whenever compute outruns
//!   the fills it falls back to slow memory and marks a whole in-flight
//!   chunk Stale, so the engine keeps paying per-request descriptor
//!   setup for bytes that arrive dead. At depth K each buffer splits
//!   into K independently filled sub-units — a unit is consumable after
//!   1/K of the bytes, a fallback wastes only 1/K of the DMA, and the
//!   deep configs batch their kthread wakes in sub-chunk pairs
//!   (`batch_max = 2`). The acceptance bar
//!   asserts depth 4 moves
//!   input **≥ 1.3×** faster than depth 1 in simulated time, and that
//!   the deep config's `timer_rearm_saved` counter actually fired.
//!
//! * **E18b — real-thread stress rows.** The same deterministic
//!   valid/invalid move schedule runs twice: through the DES driver
//!   (`Memif::submit` + completion drain) and through the `memif-rt`
//!   futures front-end with M ∈ {1, 4, 8} real producer threads
//!   submitting over the identical lock-free red-blue region layout.
//!   The rows assert the terminal status of every cookie is identical
//!   on both paths — valid single-page migrations land `Done`, moves
//!   over unmapped/unregistered ranges land `Invalid` — i.e. the
//!   threaded front-end preserves the DES path's completion semantics
//!   under genuine preemptive contention.
//!
//! `--quick` trims input sizes and request counts for CI smoke runs but
//! keeps both acceptance bars.

use std::collections::HashMap;
use std::sync::Mutex;

use memif::{Memif, MemifConfig, MoveSpec, MoveStatus, NodeId, PageSize, Sim, System, VirtAddr};
use memif_bench::Table;
use memif_hwsim::{CostModel, Topology};
use memif_rt::{MemBackend, MoveDesc, Rt};
use memif_runtime::{KernelProfile, Placement, StreamConfig, StreamReport, StreamRuntime};

/// The DMA-bound kernel: pure pass-through reads, perfectly sequential.
/// Compute can drain fast memory at the full 8 GB/s CPU streaming rate,
/// so the 3 GB/s DMA engine is always the bottleneck — the regime where
/// pipelining depth pays.
fn dma_bound_kernel() -> KernelProfile {
    KernelProfile {
        name: "dma-bound.reader".to_owned(),
        read_bytes_per_input: 1.0,
        write_bytes_per_input: 0.0,
        compute_ns_per_input: 0.0,
        fast_efficiency: 1.0,
    }
}

struct OverlapRun {
    report: StreamReport,
    rearm_saved: u64,
}

/// One streaming run at overlap depth `depth`. Deep configs pair the
/// finer fill units with paired issue batching, exactly as `memifctl stream --overlap-depth K` configures
/// the device.
fn run_depth(depth: usize, total: u64) -> OverlapRun {
    // KeyStone II, except the input stream is resident on a cold,
    // CPU-hostile slow tier: direct CPU streaming runs at the
    // compressed-tier rate while the DMA engine still pulls at its full
    // 3 GB/s. Exactly the asymmetry that makes prefetch depth matter —
    // every fallback byte is paid at the hostile rate, so wasted
    // (Stale) fill bytes and coarse fill granularity both show up as
    // lost throughput.
    let mut cost = CostModel::keystone_ii();
    cost.cpu_stream_slow_gbps = cost.cpu_stream_compressed_gbps;
    let mut sys = System::with_profile(Topology::keystone_ii(), cost);
    let mut sim = Sim::new();
    let space = sys.new_space();
    let memif = Memif::open(
        &mut sys,
        space,
        MemifConfig {
            // Configs deeper than 2 batch fills in pairs: pairs are
            // wide enough to fan completions out at the same instant
            // (so wake deduplication has duplicates to elide) yet — at
            // depth ≥ 4 — still sub-chunk, keeping the readiness
            // stagger that pipelining is for. Batching a buffer's whole
            // complement of units would complete them as a single flow
            // and cancel the granularity win.
            batch_max: if depth > 2 { 2 } else { 1 },
            ..MemifConfig::default()
        },
    )
    .unwrap();
    let config = StreamConfig {
        placement: Placement::MemifPrefetch,
        buffer_pages: 64, // 256 KiB buffers
        num_buffers: 2,   // a shallow ring: depth-1 ping-pongs into fallback
        total_input: total,
        overlap_depth: depth,
        ..StreamConfig::default()
    };
    let rt = StreamRuntime::launch(
        &mut sys,
        &mut sim,
        space,
        Some(memif),
        config,
        dma_bound_kernel(),
    );
    sim.run(&mut sys);
    let rearm_saved = sys.device(memif.device()).unwrap().stats.timer_rearm_saved;
    OverlapRun {
        report: rt.report(),
        rearm_saved,
    }
}

const PAGE: PageSize = PageSize::Small4K;
const PAGE_SHIFT: u8 = 12;

/// The deterministic stress schedule: `(cookie, valid)` — every fifth
/// request targets an unmapped/unregistered range and must complete
/// `Invalid` on both paths.
fn stress_schedule(total: u64) -> Vec<(u64, bool)> {
    (0..total).map(|c| (c, c % 5 != 4)).collect()
}

/// The schedule through the DES driver: one mapped page per valid
/// request (so migrations never conflict), unmapped aligned addresses
/// for the invalid ones. Returns terminal status per cookie.
fn des_statuses(schedule: &[(u64, bool)]) -> HashMap<u64, MoveStatus> {
    let mut sys = System::keystone_ii();
    let mut sim = Sim::new();
    let space = sys.new_space();
    let memif = Memif::open(&mut sys, space, MemifConfig::default()).unwrap();
    let region = sys
        .mmap(space, schedule.len() as u32, PAGE, NodeId(0))
        .unwrap();
    let mut statuses = HashMap::new();
    for (cookie, valid) in schedule {
        let src = if *valid {
            region.offset(cookie * PAGE.bytes())
        } else {
            VirtAddr::new(0x7F00_0000_0000 + cookie * PAGE.bytes())
        };
        let spec = MoveSpec::migrate(src, 1, PAGE, NodeId(1)).with_user_data(*cookie);
        memif.submit(&mut sys, &mut sim, spec).unwrap();
        sim.run(&mut sys);
        while let Some(c) = memif.retrieve_completed(&mut sys).unwrap() {
            statuses.insert(c.user_data, c.status.0);
        }
    }
    statuses
}

/// The same schedule through the `memif-rt` futures front-end with
/// `producers` real threads, each submitting its stride of the schedule
/// and awaiting every future. Returns terminal status per cookie plus
/// the runtime's counter snapshot.
fn rt_statuses(
    schedule: &[(u64, bool)],
    producers: u64,
) -> (HashMap<u64, MoveStatus>, memif_rt::RtStats) {
    let rt = Rt::new();
    let backend = MemBackend::new();
    // One registered window covering every valid page; the invalid
    // addresses live outside it, as they live outside the DES mapping.
    backend.register(0, schedule.len() as u64 * PAGE.bytes());
    let dev = rt.open(16, backend);
    let statuses = Mutex::new(HashMap::new());
    std::thread::scope(|s| {
        for p in 0..producers {
            let dev = dev.clone();
            let statuses = &statuses;
            s.spawn(move || {
                for (cookie, valid) in schedule.iter().skip(p as usize).step_by(producers as usize)
                {
                    let src = if *valid {
                        cookie * PAGE.bytes()
                    } else {
                        0x7F00_0000_0000 + cookie * PAGE.bytes()
                    };
                    let c = dev.move_blocking(
                        MoveDesc::migrate(src, 1, PAGE_SHIFT).with_user_data(*cookie),
                    );
                    statuses.lock().unwrap().insert(c.user_data, c.status);
                }
            });
        }
    });
    let stats = dev.stats();
    (statuses.into_inner().unwrap(), stats)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // E18a: the overlap-depth sweep.
    let total: u64 = if quick { 8 << 20 } else { 32 << 20 };
    let mut table = Table::new(
        format!(
            "E18a: overlap-depth sweep, DMA-bound stream ({} MiB)",
            total >> 20
        ),
        &[
            "depth",
            "GB/s",
            "speedup",
            "fallback%",
            "fills",
            "rearm-saved",
        ],
    );
    let mut runs = Vec::new();
    for depth in [1usize, 2, 4, 8] {
        let run = run_depth(depth, total);
        runs.push((depth, run));
    }
    let base = runs[0].1.report.input_gbps;
    for (depth, run) in &runs {
        table.row(&[
            depth.to_string(),
            format!("{:.2}", run.report.input_gbps),
            format!("{:.2}x", run.report.input_gbps / base),
            format!(
                "{:.0}%",
                run.report.fallback_bytes as f64 / run.report.input_bytes.max(1) as f64 * 100.0
            ),
            run.report.fills.to_string(),
            run.rearm_saved.to_string(),
        ]);
    }
    table.print();
    table.write_csv("e18_overlap");

    let depth4 = &runs.iter().find(|(d, _)| *d == 4).unwrap().1;
    let speedup = depth4.report.input_gbps / base;
    assert!(
        speedup >= 1.3,
        "overlap depth 4 is only {speedup:.2}x depth 1 on the DMA-bound stream (bar: >= 1.3x)"
    );
    assert!(
        depth4.rearm_saved > 0,
        "the deep config's paired batches must save at least one timer rearm"
    );
    assert_eq!(
        runs[0].1.rearm_saved, 0,
        "depth 1 issues unbatched and saves nothing"
    );

    // E18b: real-thread stress rows against the DES oracle.
    let total_reqs: u64 = if quick { 200 } else { 1_000 };
    let schedule = stress_schedule(total_reqs);
    let oracle = des_statuses(&schedule);
    assert_eq!(oracle.len() as u64, total_reqs, "DES retired every request");

    let mut stress = Table::new(
        format!("E18b: real-thread futures front-end vs DES oracle ({total_reqs} moves)"),
        &[
            "threads",
            "done",
            "invalid",
            "kicks",
            "syscall-free",
            "match",
        ],
    );
    for producers in [1u64, 4, 8] {
        let (statuses, stats) = rt_statuses(&schedule, producers);
        assert_eq!(
            statuses.len() as u64,
            total_reqs,
            "M={producers}: rt path retired every cookie"
        );
        let mut done = 0u64;
        let mut invalid = 0u64;
        for (cookie, status) in &statuses {
            assert_eq!(
                status,
                oracle.get(cookie).unwrap(),
                "M={producers}: cookie {cookie} diverged from the DES terminal status"
            );
            match status {
                MoveStatus::Done => done += 1,
                MoveStatus::Invalid => invalid += 1,
                other => panic!("unexpected terminal status {other:?}"),
            }
        }
        assert!(done > 0 && invalid > 0, "schedule exercises both outcomes");
        stress.row(&[
            producers.to_string(),
            done.to_string(),
            invalid.to_string(),
            stats.kicks.to_string(),
            stats.syscall_free.to_string(),
            "yes".to_owned(),
        ]);
    }
    stress.print();
    stress.write_csv("e18_overlap_threads");

    println!(
        "Shape checks: on the DMA-bound profile depth-4 pipelining streams input \
         {speedup:.2}x faster than the classic one-fill-per-buffer mode (bar: 1.3x) \
         while the deep config's paired batches saved {} duplicate wake inserts, and the \
         real-thread futures front-end reproduces the DES driver's terminal status \
         for every cookie at 1, 4, and 8 producer threads.",
        depth4.rearm_saved,
    );
}
