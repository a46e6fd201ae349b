//! E17: event-core dispatch speed — the timing wheel vs the old heap.
//!
//! Two tables:
//!
//! * **E17a — microbench, the asserted bar.** A dispatch-dominated
//!   steady state at 10⁶ pending events: every iteration pops the
//!   earliest event and schedules a short-horizon replacement, plus
//!   four cancel+reschedules of a fixed ring of rearm timers (the
//!   flow-network rearm pattern, the dominant cancel workload in real
//!   runs). The identical deterministic op script drives both the
//!   production hierarchical timing wheel (`memif_hwsim::Sim`) and a
//!   private copy of the pre-PR-8 `BinaryHeap` + tombstone-set
//!   scheduler. The acceptance bar asserts the wheel dispatches **≥ 5×**
//!   faster — a relative bar, so it holds across host speeds. `--quick`
//!   trims the measured iteration count but keeps the 10⁶ pending pool,
//!   so CI exercises the same regime.
//!
//! * **E17b — macro rows.** Fig8-class streaming workloads timed with
//!   the host clock, reporting simulated events per host-second plus
//!   the new scheduler counters (`events_executed`, `events_cancelled`,
//!   `peak_pending`) so the metronome's speed is pinned in the same
//!   table family as every other experiment.
//!
//! Expected shape: the heap pays ~log₂(10⁶) ≈ 20 cache-missing sift
//! steps per pop plus tombstone churn on every cancel; the wheel pays a
//! bitmap scan and an O(1) unlink, so the micro gap is well past the
//! 5× bar. The macro rows show the other side of the story: once
//! events carry real driver work, the scheduler stops being the
//! bottleneck at all — which is exactly what the refactor buys.

use std::time::Instant;

use memif::MemifConfig;
use memif_bench::{stream, StreamSpec, Table};
use memif_hwsim::{CostModel, EventWorld, Sim, SimDuration, SimTime};
use memif_mm::PageSize;
use memif_workloads::ShapeKind;

/// Pending-pool size for the microbench (the bar's "at 10⁶ pending").
const PENDING: usize = 1_000_000;
/// Rearm-timer ring size: a fixed set of timers that are cancelled and
/// rescheduled, modelling the flow network's completion timers.
const CHURN_WINDOW: usize = 4096;
/// Cancel+reschedule pairs per dispatched event. The flow network
/// rearms its completion timer on every start/finish/capacity change,
/// so in real runs most scheduled timers are cancelled before firing;
/// 4:1 mirrors that regime.
const CHURN_PER_DISPATCH: usize = 4;
/// How far ahead rearm timers land. Far enough that a ring slot is
/// almost always rearmed again before it fires (its mean rearm period
/// is ~2 µs of virtual time), near enough that the heap baseline's
/// tombstones are eventually popped — the comparison measures dispatch
/// and churn, not the old scheduler's unbounded tombstone leak.
const TIMER_HORIZON_NS: u64 = 10_000;

/// Deterministic 64-bit LCG (same constants as PCG's state update);
/// the bench must not depend on `rand`, and both schedulers must see
/// the identical op script.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// The pre-PR-8 scheduler, verbatim in spirit: `BinaryHeap` ordered by
/// `(time, insertion id)` with a `HashSet` tombstone set consulted on
/// every pop. Kept here as the measured baseline (the differential
/// *correctness* oracle lives in `memif_hwsim::sim`'s tests).
mod heap_baseline {
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashSet};

    use memif_hwsim::SimTime;

    struct Scheduled {
        time: SimTime,
        id: u64,
    }

    impl PartialEq for Scheduled {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.id == other.id
        }
    }
    impl Eq for Scheduled {}
    impl PartialOrd for Scheduled {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Scheduled {
        fn cmp(&self, other: &Self) -> Ordering {
            other.time.cmp(&self.time).then(other.id.cmp(&self.id))
        }
    }

    #[derive(Default)]
    pub struct HeapSim {
        now: SimTime,
        heap: BinaryHeap<Scheduled>,
        next_id: u64,
        cancelled: HashSet<u64>,
        pub executed: u64,
    }

    impl HeapSim {
        pub fn schedule_at(&mut self, at: SimTime) -> u64 {
            let id = self.next_id;
            self.next_id += 1;
            self.heap.push(Scheduled { time: at, id });
            id
        }

        pub fn cancel(&mut self, id: u64) {
            self.cancelled.insert(id);
        }

        pub fn step(&mut self) -> bool {
            while let Some(ev) = self.heap.pop() {
                if self.cancelled.remove(&ev.id) {
                    continue;
                }
                self.now = ev.time;
                self.executed += 1;
                return true;
            }
            false
        }

        pub fn now(&self) -> SimTime {
            self.now
        }
    }
}

/// Minimal world for the wheel side: dispatch counts and nothing else,
/// so the measurement isolates the scheduler.
#[derive(Default)]
struct CountWorld {
    dispatched: u64,
}

impl EventWorld for CountWorld {
    type Event = ();
    fn dispatch(&mut self, _sim: &mut Sim<Self>, (): ()) {
        self.dispatched += 1;
    }
}

/// Spread for the initial 10⁶-event pool (≈ 0.5 events/ns), and the
/// short horizon for steady-state dispatch-pool replacements.
fn ramp_at(rng: &mut Lcg) -> u64 {
    1 + rng.next() % 2_000_000
}
fn rearm_delta(rng: &mut Lcg) -> u64 {
    1 + rng.next() % 2_048
}

/// One measured steady-state run over the wheel. Returns elapsed
/// host-seconds for `measure` dispatches over a constant 10⁶-event
/// pending pool: every dispatch schedules a replacement, and each of
/// the ring's rearm timers is cancelled+rescheduled before it fires,
/// so the pool neither drains nor drifts.
fn drive_wheel(measure: u64) -> (f64, Sim<CountWorld>) {
    let mut sim: Sim<CountWorld> = Sim::new();
    let mut world = CountWorld::default();
    let mut rng = Lcg(42);
    for _ in 0..PENDING {
        sim.schedule_at(SimTime::from_ns(ramp_at(&mut rng)), ());
    }
    let mut timers: Vec<_> = (0..CHURN_WINDOW)
        .map(|_| {
            let at = SimTime::from_ns(TIMER_HORIZON_NS + rearm_delta(&mut rng));
            sim.schedule_at(at, ())
        })
        .collect();
    assert_eq!(
        sim.pending(),
        PENDING + CHURN_WINDOW,
        "pool must hold 10^6 pending"
    );
    let t0 = Instant::now();
    for _ in 0..measure {
        assert!(sim.step(&mut world));
        let at = sim.now() + SimDuration::from_ns(rearm_delta(&mut rng));
        sim.schedule_at(at, ());
        for _ in 0..CHURN_PER_DISPATCH {
            let t = rng.next() as usize % CHURN_WINDOW;
            sim.cancel(timers[t]);
            let at = sim.now() + SimDuration::from_ns(TIMER_HORIZON_NS + rearm_delta(&mut rng));
            timers[t] = sim.schedule_at(at, ());
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(world.dispatched, measure);
    (secs, sim)
}

/// The identical op script over the heap baseline.
fn drive_heap(measure: u64) -> (f64, heap_baseline::HeapSim) {
    let mut sim = heap_baseline::HeapSim::default();
    let mut rng = Lcg(42);
    for _ in 0..PENDING {
        sim.schedule_at(SimTime::from_ns(ramp_at(&mut rng)));
    }
    let mut timers: Vec<_> = (0..CHURN_WINDOW)
        .map(|_| {
            let at = SimTime::from_ns(TIMER_HORIZON_NS + rearm_delta(&mut rng));
            sim.schedule_at(at)
        })
        .collect();
    let t0 = Instant::now();
    for _ in 0..measure {
        assert!(sim.step());
        let at = sim.now() + SimDuration::from_ns(rearm_delta(&mut rng));
        sim.schedule_at(at);
        for _ in 0..CHURN_PER_DISPATCH {
            let t = rng.next() as usize % CHURN_WINDOW;
            sim.cancel(timers[t]);
            let at = sim.now() + SimDuration::from_ns(TIMER_HORIZON_NS + rearm_delta(&mut rng));
            timers[t] = sim.schedule_at(at);
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(sim.executed, measure);
    (secs, sim)
}

fn main() {
    // `--quick` trims the measured iterations for CI smoke runs but
    // keeps the 10^6-event pool and the same acceptance bar. `--huge`
    // appends the million-request macro row (E17c) — minutes of host
    // time, so it is opt-in and its CSV is committed once.
    let quick = std::env::args().any(|a| a == "--quick");
    let huge = std::env::args().any(|a| a == "--huge");
    let measure: u64 = if quick { 200_000 } else { 2_000_000 };

    // E17a: dispatch-dominated micro, wheel vs heap on one op script.
    let (heap_secs, heap) = drive_heap(measure);
    let (wheel_secs, wheel) = drive_wheel(measure);
    // Both ran the same script, so virtual time must agree exactly —
    // a correctness tripwire inside the perf bench.
    assert_eq!(
        wheel.now(),
        heap.now(),
        "schedulers diverged on the same op script"
    );
    let speedup = heap_secs / wheel_secs;

    let mut micro = Table::new(
        format!("E17a: dispatch throughput at 10^6 pending ({measure} dispatches, rearm churn)"),
        &["scheduler", "Mdisp/s", "host-ms", "speedup"],
    );
    for (name, secs) in [("binary-heap", heap_secs), ("timing-wheel", wheel_secs)] {
        micro.row(&[
            name.to_owned(),
            format!("{:.2}", measure as f64 / secs / 1e6),
            format!("{:.1}", secs * 1e3),
            format!("{:.1}x", heap_secs / secs),
        ]);
    }
    micro.print();
    micro.write_csv("e17_simspeed_micro");
    // The asserted perf bar: scheduler regressions fail CI like any
    // other experiment regression.
    assert!(
        speedup >= 5.0,
        "timing wheel is only {speedup:.1}x the heap at 10^6 pending \
         (bar: >= 5x)"
    );

    // E17b: fig8-class macro rows, host-clocked. The single-page
    // unbatched stream is the most event-dense shape the figure family
    // has (every request exercises the full ioctl → launch → DMA →
    // completion chain plus flow-timer rearms); the batched 64-page
    // stream shows the other extreme, where each event carries a whole
    // batch and the scheduler is far from the bottleneck.
    let cost = CostModel::keystone_ii();
    let mut macro_table = Table::new(
        "E17b: fig8-class macro runs, host-clocked",
        &[
            "config",
            "GB/s",
            "sim-events",
            "cancelled",
            "peak-pending",
            "kev/s-host",
        ],
    );
    let shapes: &[(&str, MemifConfig, ShapeKind, u32, usize, usize)] = &[
        (
            "migrate 4K x 1 page",
            MemifConfig::default(),
            ShapeKind::Migrate,
            1,
            if quick { 2_048 } else { 16_384 },
            32,
        ),
        (
            "replicate 4K x 64, batch 16",
            MemifConfig {
                batch_max: 16,
                coalesce: true,
                ..MemifConfig::default()
            },
            ShapeKind::Replicate,
            64,
            if quick { 192 } else { 1_024 },
            16,
        ),
    ];
    let mut dense_run = None;
    for (label, config, kind, pages, count, window) in shapes {
        let t0 = Instant::now();
        let run = stream(StreamSpec {
            cost: cost.clone(),
            config: config.clone(),
            kind: *kind,
            page_size: PageSize::Small4K,
            pages: *pages,
            count: *count,
            window: *window,
            ..StreamSpec::default()
        });
        let host_secs = t0.elapsed().as_secs_f64();
        assert_eq!(run.requests, *count, "every request terminates");
        assert!(run.events_executed > 0, "macro run must execute events");
        assert!(run.peak_pending > 0, "macro run must queue events");
        macro_table.row(&[
            format!("{label} x{count}"),
            format!("{:.2}", run.throughput_gbps),
            run.events_executed.to_string(),
            run.events_cancelled.to_string(),
            run.peak_pending.to_string(),
            format!("{:.0}", run.events_executed as f64 / host_secs / 1e3),
        ]);
        if dense_run.is_none() {
            dense_run = Some((run, host_secs));
        }
    }
    macro_table.print();
    macro_table.write_csv("e17_simspeed_macro");
    let (run, host_secs) = dense_run.expect("macro rows ran");

    // E17c (`--huge` only): the headline scale row — one million
    // single-page migrations through the full driver chain over a
    // 32-deep submission window. This is the regime the PR 8 event core
    // was built for: a sustained million-event working set with real
    // driver work attached to every event.
    if huge {
        let mut huge_table = Table::new(
            "E17c: million-request macro run, host-clocked",
            &[
                "config",
                "GB/s",
                "sim-events",
                "cancelled",
                "peak-pending",
                "kev/s-host",
            ],
        );
        let count = 1_000_000usize;
        let t0 = Instant::now();
        let run = stream(StreamSpec {
            cost: cost.clone(),
            kind: ShapeKind::Migrate,
            page_size: PageSize::Small4K,
            pages: 1,
            count,
            window: 32,
            ..StreamSpec::default()
        });
        let host_secs = t0.elapsed().as_secs_f64();
        assert_eq!(run.requests, count, "every request terminates");
        huge_table.row(&[
            format!("migrate 4K x 1 page x{count}"),
            format!("{:.2}", run.throughput_gbps),
            run.events_executed.to_string(),
            run.events_cancelled.to_string(),
            run.peak_pending.to_string(),
            format!("{:.0}", run.events_executed as f64 / host_secs / 1e3),
        ]);
        huge_table.print();
        huge_table.write_csv("e17_simspeed_huge");
    }

    println!(
        "Shape checks: at a 10^6-event pending pool the timing wheel dispatches \
         {speedup:.1}x faster than the old binary heap (bar: 5x) while agreeing \
         with it tick-for-tick, and the event-dense fig8-class stream executes \
         {} simulated events at {:.0}k events per host-second.",
        run.events_executed,
        run.events_executed as f64 / host_secs / 1e3,
    );
}
