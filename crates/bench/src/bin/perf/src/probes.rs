//! Layer probes: isolated, host-timed calls to one layer's public API,
//! each shaped like the requests of the workload that leans on it.
//! Every probe reports the median over batches of host ns per call.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use memif::{Sim, SimDuration, SimTime};
use memif_hwsim::dma::{DmaEngine, SgSegment};
use memif_hwsim::{CostModel, EventWorld, PhysAddr};
use memif_lockfree::{Color, MovReq, QueueId, Region};
use memif_mm::{PageSize, PageTable, Pte, VirtAddr};

use crate::metrics::median;

const BATCHES: usize = 7;

/// Pending events kept on the scheduler by `sched.step_ns`: the
/// high-water mark `mig4k_wide` reaches (`sched.peak_pending`).
const STEP_PENDING: u32 = 20;

/// Runs `batch(iters)` once to warm up, then `BATCHES` more times, and
/// returns the median host ns per iteration.
fn ns_per_op(iters: u64, mut batch: impl FnMut(u64)) -> f64 {
    batch(iters);
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch(iters);
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per)
}

pub fn run() -> Vec<(&'static str, f64)> {
    vec![
        ("lockfree.submit_ns", submit_protocol()),
        ("lockfree.mpsc_2t_ns", mpsc_two_threads()),
        ("mm.gang_lookup_ns_per_page", lookup(true)),
        ("mm.walk_lookup_ns_per_page", lookup(false)),
        ("dma.configure_ns", configure()),
        ("sched.step_ns", sched_step()),
    ]
}

/// A `mig4k_wide` request: one 4 KiB page.
fn one_page(id: u64) -> MovReq {
    MovReq {
        id,
        nr_pages: 1,
        page_shift: 12,
        ..MovReq::default()
    }
}

/// The §4.4 submit on one region: enqueue on staging; on blue, flush to
/// submission and recolor red; then the kernel side drains and recolors
/// blue, so every iteration takes the flushing path.
fn submit_protocol() -> f64 {
    let region = Region::new(64).expect("valid capacity");
    let mut id = 0;
    ns_per_op(200_000, |n| {
        for _ in 0..n {
            id += 1;
            let slot = region.alloc_slot().expect("slot free");
            let color = region
                .enqueue(QueueId::Staging, slot, &one_page(id))
                .expect("region healthy");
            if color == Color::Blue {
                while let Some(d) = region.dequeue(QueueId::Staging).expect("region healthy") {
                    region
                        .enqueue(QueueId::Submission, d.slot, &d.req)
                        .expect("region healthy");
                }
                let _ = black_box(region.set_color(QueueId::Staging, Color::Red));
            }
            while let Some(d) = region.dequeue(QueueId::Submission).expect("region healthy") {
                region.free_slot(d.slot).expect("slot owned");
            }
            let _ = black_box(region.set_color(QueueId::Staging, Color::Blue));
        }
    })
}

/// One producer thread stages requests while the measuring thread
/// dequeues them: host ns per dequeued request.
fn mpsc_two_threads() -> f64 {
    /// Stops the producer however the measuring thread leaves the scope,
    /// so a panic cannot leave the scope waiting on it forever.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    let region = Region::new(64).expect("valid capacity");
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let _stop = StopOnDrop(&stop);
        s.spawn(|| {
            let mut id = 0;
            while !stop.load(Ordering::Relaxed) {
                match region.alloc_slot() {
                    Ok(slot) => {
                        id += 1;
                        region
                            .enqueue(QueueId::Staging, slot, &one_page(id))
                            .expect("region healthy");
                    }
                    Err(_) => std::hint::spin_loop(),
                }
            }
        });
        ns_per_op(100_000, |n| {
            let mut drained = 0;
            while drained < n {
                if let Some(d) = region.dequeue(QueueId::Staging).expect("region healthy") {
                    region.free_slot(black_box(d).slot).expect("slot owned");
                    drained += 1;
                }
            }
        })
    })
}

/// `nvm16_journal`'s request: 16 consecutive 4 KiB pages.
fn lookup(gang: bool) -> f64 {
    let mut table = PageTable::new();
    let base = VirtAddr::new(0x4000_0000);
    for i in 0..16 {
        let pte = Pte::mapping(PhysAddr::new(0x8_0000_0000 + i * 4096), PageSize::Small4K);
        table.map(base.offset(i * 4096), pte).expect("fresh table");
    }
    let mut out = Vec::new();
    ns_per_op(100_000, |n| {
        for _ in 0..n {
            black_box(table.lookup_range_into(
                black_box(base),
                16,
                PageSize::Small4K,
                gang,
                &mut out,
            ));
        }
    }) / 16.0
}

/// `nvm16_journal`'s launch: 16 coalesced 64 KiB segments, chain reuse on.
fn configure() -> f64 {
    let cost = CostModel::keystone_ii();
    let mut engine = DmaEngine::new();
    let segments: Vec<SgSegment> = (0..16)
        .map(|i| SgSegment {
            src: PhysAddr::new(0x8_0000_0000 + i * 0x1_0000),
            dst: PhysAddr::new(0x10_0000_0000 + i * 0x1_0000),
            bytes: 0x1_0000,
        })
        .collect();
    ns_per_op(50_000, |n| {
        for _ in 0..n {
            let t = engine
                .configure(segments.clone(), &cost)
                .expect("descriptors free");
            engine.release_chain(black_box(t).chain);
        }
    })
}

/// A world whose every event schedules its successor a pseudo-random
/// delay later, so the pending set stays constant.
struct Ticker;

impl EventWorld for Ticker {
    type Event = u32;

    fn dispatch(&mut self, sim: &mut Sim<Self>, event: u32) {
        let delay = 1 + u64::from(event.wrapping_mul(0x9E37_79B9) >> 20);
        sim.schedule_after(SimDuration::from_ns(delay), event.wrapping_add(1));
    }
}

/// `schedule_after` plus `step` with `STEP_PENDING` events pending.
fn sched_step() -> f64 {
    let mut sim: Sim<Ticker> = Sim::new();
    for i in 0..STEP_PENDING {
        sim.schedule_at(SimTime::from_ns(u64::from(i)), i * 7919);
    }
    ns_per_op(200_000, |n| {
        for _ in 0..n {
            sim.step(&mut Ticker);
        }
    })
}
