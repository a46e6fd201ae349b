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
//!   private copy of the pre-wheel `BinaryHeap` + tombstone-set
//!   scheduler. The acceptance bar asserts the wheel dispatches **≥ 5×**
//!   faster — a relative bar, so it holds across host speeds, but only
//!   in optimized builds, so the entry is host-timed.
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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::time::Instant;

use memif::MemifConfig;
use memif_hwsim::{CostModel, EventId, EventWorld, Sim, SimDuration, SimTime};
use memif_mm::PageSize;
use memif_workloads::ShapeKind;

use super::Report;
use crate::{stream, StreamSpec, Table};

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

/// The scheduler surface the op script drives.
trait Scheduler {
    type Id: Copy;
    fn schedule_at(&mut self, at: SimTime) -> Self::Id;
    fn cancel(&mut self, id: Self::Id);
    /// Dispatches the earliest live event; false when none is pending.
    fn step(&mut self) -> bool;
    fn now(&self) -> SimTime;
}

/// The pre-wheel scheduler, verbatim in spirit: `BinaryHeap` ordered by
/// `(time, insertion id)` with a `HashSet` tombstone set consulted on
/// every pop. Kept here as the measured baseline (the differential
/// *correctness* oracle lives in `memif_hwsim::sim`'s tests).
#[derive(Default)]
struct HeapSim {
    now: SimTime,
    /// Min-heap on `(time, insertion id)`.
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    next_id: u64,
    cancelled: HashSet<u64>,
}

impl Scheduler for HeapSim {
    type Id = u64;

    fn schedule_at(&mut self, at: SimTime) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.heap.push(Reverse((at, id)));
        id
    }

    fn cancel(&mut self, id: u64) {
        self.cancelled.insert(id);
    }

    fn step(&mut self) -> bool {
        while let Some(Reverse((time, id))) = self.heap.pop() {
            if !self.cancelled.remove(&id) {
                self.now = time;
                return true;
            }
        }
        false
    }

    fn now(&self) -> SimTime {
        self.now
    }
}

/// A world whose events do nothing, so the measurement isolates the
/// scheduler.
struct NullWorld;

impl EventWorld for NullWorld {
    type Event = ();
    fn dispatch(&mut self, _sim: &mut Sim<Self>, (): ()) {}
}

/// The production timing wheel.
struct Wheel(Sim<NullWorld>);

impl Scheduler for Wheel {
    type Id = EventId;

    fn schedule_at(&mut self, at: SimTime) -> EventId {
        self.0.schedule_at(at, ())
    }

    fn cancel(&mut self, id: EventId) {
        self.0.cancel(id);
    }

    fn step(&mut self) -> bool {
        self.0.step(&mut NullWorld)
    }

    fn now(&self) -> SimTime {
        self.0.now()
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

/// One measured steady-state run of the op script. Returns elapsed
/// host-seconds for `measure` dispatches over a constant 10⁶-event
/// pending pool: every dispatch schedules a replacement, and each of
/// the ring's rearm timers is cancelled+rescheduled before it fires,
/// so the pool neither drains nor drifts.
fn drive<S: Scheduler>(mut sim: S, measure: u64) -> (f64, S) {
    let mut rng = Lcg(42);
    for _ in 0..PENDING {
        sim.schedule_at(SimTime::from_ns(ramp_at(&mut rng)));
    }
    let mut timers: Vec<_> = (0..CHURN_WINDOW)
        .map(|_| sim.schedule_at(SimTime::from_ns(TIMER_HORIZON_NS + rearm_delta(&mut rng))))
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
    (t0.elapsed().as_secs_f64(), sim)
}

pub(super) fn run() -> Report {
    let measure: u64 = 2_000_000;

    // E17a: dispatch-dominated micro, wheel vs heap on one op script.
    let (heap_secs, heap) = drive(HeapSim::default(), measure);
    let (wheel_secs, wheel) = drive(Wheel(Sim::new()), measure);
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
    let mut macro_table = macro_table("E17b: fig8-class macro runs, host-clocked");
    let batched = MemifConfig {
        batch_max: 16,
        coalesce: true,
        ..MemifConfig::default()
    };
    let (dense_events, dense_rate) = macro_row(
        &mut macro_table,
        "migrate 4K x 1 page",
        MemifConfig::default(),
        ShapeKind::Migrate,
        1,
        16_384,
        32,
    );
    macro_row(
        &mut macro_table,
        "replicate 4K x 64, batch 16",
        batched,
        ShapeKind::Replicate,
        64,
        1_024,
        16,
    );

    Report {
        tables: vec![
            ("e17_simspeed_micro", micro),
            ("e17_simspeed_macro", macro_table),
        ],
        note: format!(
            "Shape checks: at a 10^6-event pending pool the timing wheel dispatches \
             {speedup:.1}x faster than the old binary heap (bar: 5x) while agreeing \
             with it tick-for-tick, and the event-dense fig8-class stream executes \
             {dense_events} simulated events at {dense_rate:.0}k events per host-second."
        ),
    }
}

/// E17c: the headline scale row — one million single-page migrations
/// through the full driver chain over a 32-deep submission window, the
/// regime the timing-wheel event core was built for: a sustained
/// million-event working set with real driver work attached to every
/// event. It runs only on request (`claims e17 --huge`).
pub(super) fn huge() -> Report {
    let mut table = macro_table("E17c: million-request macro run, host-clocked");
    macro_row(
        &mut table,
        "migrate 4K x 1 page",
        MemifConfig::default(),
        ShapeKind::Migrate,
        1,
        1_000_000,
        32,
    );
    Report::table("e17_simspeed_huge", table)
}

fn macro_table(title: &str) -> Table {
    Table::new(
        title,
        &[
            "config",
            "GB/s",
            "sim-events",
            "cancelled",
            "peak-pending",
            "kev/s-host",
        ],
    )
}

/// Runs one host-clocked macro stream and appends its row. Returns the
/// events executed and the rate in thousands of events per host-second.
fn macro_row(
    table: &mut Table,
    label: &str,
    config: MemifConfig,
    kind: ShapeKind,
    pages: u32,
    count: usize,
    window: usize,
) -> (u64, f64) {
    let t0 = Instant::now();
    let run = stream(StreamSpec {
        cost: CostModel::keystone_ii(),
        config,
        kind,
        page_size: PageSize::Small4K,
        pages,
        count,
        window,
        ..StreamSpec::default()
    });
    let host_secs = t0.elapsed().as_secs_f64();
    assert!(run.events_executed > 0, "macro run must execute events");
    assert!(run.peak_pending > 0, "macro run must queue events");
    let rate = run.events_executed as f64 / host_secs / 1e3;
    table.row(&[
        format!("{label} x{count}"),
        format!("{:.2}", run.throughput_gbps),
        run.events_executed.to_string(),
        run.events_cancelled.to_string(),
        run.peak_pending.to_string(),
        format!("{rate:.0}"),
    ]);
    (run.events_executed, rate)
}
