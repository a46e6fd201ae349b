//! The discrete-event simulation engine.
//!
//! A minimal, deterministic DES: events are *typed values* ordered by
//! `(time, sequence-number)`, executed against a caller-supplied world
//! `W`. The engine corresponds to the real machine's passage of time; all
//! memif "actors" — application threads, the kernel worker, interrupt
//! handlers, the DMA engine — are expressed as events that charge costs
//! and schedule follow-ups.
//!
//! The queue stores data, not code: each world defines an event type
//! (usually an enum) and one central [`EventWorld::dispatch`] that
//! interprets it. That keeps every scheduled continuation inspectable —
//! it can be logged, serialized, compared across runs, and routed — which
//! is what makes simulations deterministically replayable.
//!
//! Events may be cancelled (needed by the bandwidth-sharing flow network,
//! which reschedules completions whenever contention changes, and by the
//! proceed-and-recover migration abort path).
//!
//! # Scheduler internals: hierarchical timing wheel over a slab arena
//!
//! The queue is a hierarchical timing wheel (a calendar queue), not a
//! binary heap: `LEVELS` levels of `SLOTS` buckets each, where a
//! level-`l` bucket spans `64^l` nanoseconds. Level 0 buckets are 1 ns
//! wide, so every event in a level-0 bucket shares the exact same
//! timestamp and a bucket's FIFO order *is* insertion order — the
//! `(time, sequence)` dispatch contract falls out structurally, with no
//! comparisons at all. With 6 bits per level, 11 levels cover 66 bits:
//! the top level spans all of `u64` time, so there is no separate
//! overflow list — arbitrarily far futures simply park high and cascade
//! down as the cursor reaches their window.
//!
//! Event records live in a slab arena with an intrusive free list;
//! buckets are doubly-linked chains through the slab, and a per-level
//! 64-bit occupancy bitmap finds the next non-empty bucket with one
//! `trailing_zeros`. An [`EventId`] is a slab index plus a generation
//! stamped into the slot and bumped on every free, so `cancel()` of a
//! live, already-executed, or stale id is an O(1) no-op-or-unlink —
//! no tombstone set, nothing to leak, and `pending()` is a counter
//! read. See DESIGN §15 for the layout, the cascade policy, and the
//! determinism proof.

use crate::time::{SimDuration, SimTime};

/// Bits of virtual time consumed per wheel level.
const LEVEL_BITS: usize = 6;
/// Buckets per level (`2^LEVEL_BITS`).
const SLOTS: usize = 1 << LEVEL_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// `LEVEL_BITS * LEVELS >= 64`: the top level spans all of `u64` time,
/// so every schedulable instant has a bucket and nothing can overflow.
const LEVELS: usize = 11;
/// Null link in the intrusive bucket/free lists.
const NIL: u32 = u32::MAX;
/// `bucket` value marking a slab slot as free (not queued anywhere).
const FREE_BUCKET: u16 = u16::MAX;

/// Handle to a scheduled event, usable for cancellation.
///
/// A slab slot index plus the generation the slot carried when this
/// event was scheduled. The generation is bumped every time the slot is
/// recycled, so a stale handle (the event already ran, or was already
/// cancelled) simply fails the generation check — cancellation is
/// always O(1) and allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    index: u32,
    generation: u32,
}

/// A world the simulation can drive: a state type plus the typed events
/// that advance it.
///
/// `dispatch` is the *single* point where scheduled events are
/// interpreted; the [`Sim`] never executes code of its own. Worlds are
/// free to dispatch synthesized events recursively (e.g. a flow-network
/// tick fanning out per-flow completion events) — recursion goes through
/// `dispatch` too, so an event log captured there sees everything.
pub trait EventWorld: Sized {
    /// The typed event vocabulary of this world.
    type Event;

    /// Executes one event at the simulation's current time.
    fn dispatch(&mut self, sim: &mut Sim<Self>, event: Self::Event);
}

/// One slab-arena record: an event while queued, a free-list link after.
struct Slot<E> {
    time: SimTime,
    /// Bumped on every free; part of the [`EventId`] ABA guard.
    generation: u32,
    /// Intrusive links: bucket neighbours while queued, `next` doubles
    /// as the free-list link while free.
    prev: u32,
    next: u32,
    /// `level * SLOTS + slot` while queued; [`FREE_BUCKET`] while free.
    bucket: u16,
    event: Option<E>,
}

/// Head/tail of one bucket's FIFO chain through the slab.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// The event queue and virtual clock.
///
/// # Examples
///
/// ```
/// use memif_hwsim::{EventWorld, Sim, SimDuration, SimTime};
///
/// struct Counter(u32);
/// enum Tick {
///     Add(u32),
///     AddLater(u32),
/// }
/// impl EventWorld for Counter {
///     type Event = Tick;
///     fn dispatch(&mut self, sim: &mut Sim<Self>, event: Tick) {
///         match event {
///             Tick::Add(n) => self.0 += n,
///             Tick::AddLater(n) => {
///                 // Events can schedule follow-ups.
///                 sim.schedule_after(SimDuration::from_ns(50), Tick::Add(n));
///             }
///         }
///     }
/// }
///
/// let mut sim: Sim<Counter> = Sim::new();
/// let mut world = Counter(0);
/// sim.schedule_at(SimTime::from_ns(100), Tick::Add(1));
/// sim.schedule_at(SimTime::from_ns(100), Tick::AddLater(10));
/// sim.run(&mut world);
/// assert_eq!(world.0, 11);
/// assert_eq!(sim.now(), SimTime::from_ns(150));
/// ```
pub struct Sim<W: EventWorld> {
    now: SimTime,
    /// Wheel anchor: `<=` the time of every pending event. Equal to the
    /// last executed event's time between steps; advances through
    /// cascade window starts inside a pop.
    cursor: u64,
    /// Per-level bucket-occupancy bitmaps (bit `s` = bucket `s` non-empty).
    occupancy: [u64; LEVELS],
    /// `LEVELS * SLOTS` bucket chains.
    buckets: Vec<Bucket>,
    slab: Vec<Slot<W::Event>>,
    free_head: u32,
    /// Live (scheduled, not yet executed or cancelled) events.
    live: usize,
    executed: u64,
    cancelled: u64,
    peak_pending: usize,
}

impl<W: EventWorld> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: EventWorld> std::fmt::Debug for Sim<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.live)
            .field("executed", &self.executed)
            .finish()
    }
}

impl<W: EventWorld> Sim<W> {
    /// A simulation at time zero with no pending events.
    #[must_use]
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            cursor: 0,
            occupancy: [0; LEVELS],
            buckets: vec![EMPTY_BUCKET; LEVELS * SLOTS],
            slab: Vec::new(),
            free_head: NIL,
            live: 0,
            executed: 0,
            cancelled: 0,
            peak_pending: 0,
        }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (diagnostics).
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events cancelled while still pending (diagnostics).
    /// Cancelling an already-executed or stale id is a no-op and does
    /// not count.
    #[must_use]
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// High-water mark of concurrently pending events (diagnostics).
    #[must_use]
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Number of slab slots ever allocated. Bounded by [`peak_pending`]
    /// (slots are recycled), never by the number of schedule or cancel
    /// calls — the bound the cancel-leak regression test pins.
    ///
    /// [`peak_pending`]: Sim::peak_pending
    #[must_use]
    pub fn arena_capacity(&self) -> usize {
        self.slab.len()
    }

    /// Number of pending (non-cancelled) events. O(1): a counter
    /// maintained at schedule/cancel/pop.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.live
    }

    /// The wheel level whose bucket `time` belongs in, relative to the
    /// current cursor: the lowest level whose bucket span still covers
    /// the highest bit in which `time` differs from the cursor.
    fn level_for(&self, time: u64) -> usize {
        let diff = time ^ self.cursor;
        if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros() as usize) / LEVEL_BITS
        }
    }

    /// Appends slab slot `index` to the tail of its bucket (computed
    /// from its time and the current cursor). Tail-append preserves
    /// insertion order, which is what makes same-time dispatch order
    /// structural.
    fn link(&mut self, index: u32) {
        let time = self.slab[index as usize].time.as_ns();
        let level = self.level_for(time);
        let slot = ((time >> (LEVEL_BITS * level)) & SLOT_MASK) as usize;
        let bucket = level * SLOTS + slot;
        let tail = self.buckets[bucket].tail;
        {
            let s = &mut self.slab[index as usize];
            s.prev = tail;
            s.next = NIL;
            s.bucket = bucket as u16;
        }
        if tail == NIL {
            self.buckets[bucket].head = index;
        } else {
            self.slab[tail as usize].next = index;
        }
        self.buckets[bucket].tail = index;
        self.occupancy[level] |= 1 << slot;
    }

    /// Unlinks slab slot `index` from its bucket chain, clearing the
    /// occupancy bit if the bucket empties. O(1).
    fn unlink(&mut self, index: u32) {
        let (prev, next, bucket) = {
            let s = &self.slab[index as usize];
            (s.prev, s.next, s.bucket as usize)
        };
        if prev == NIL {
            self.buckets[bucket].head = next;
        } else {
            self.slab[prev as usize].next = next;
        }
        if next == NIL {
            self.buckets[bucket].tail = prev;
        } else {
            self.slab[next as usize].prev = prev;
        }
        if self.buckets[bucket].head == NIL {
            self.occupancy[bucket / SLOTS] &= !(1u64 << (bucket % SLOTS));
        }
    }

    /// Returns slot `index` to the free list, bumping its generation so
    /// every outstanding [`EventId`] for it goes stale.
    fn release(&mut self, index: u32) -> W::Event {
        let free_head = self.free_head;
        let s = &mut self.slab[index as usize];
        let event = s.event.take().expect("releasing an empty slot");
        s.generation = s.generation.wrapping_add(1);
        s.bucket = FREE_BUCKET;
        s.prev = NIL;
        s.next = free_head;
        self.free_head = index;
        self.live -= 1;
        event
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        if self.live == 0 {
            // Empty wheel: catch the anchor up to `now` (it lags when
            // `run_until` advanced an idle clock). Anchoring at `now` —
            // not at `at` — keeps the invariant that the cursor never
            // exceeds any pending event's time: a later schedule may
            // still land anywhere in `[now, at)`.
            self.cursor = self.now.as_ns();
        }
        let index = if self.free_head == NIL {
            let index = u32::try_from(self.slab.len()).expect("event arena exceeds u32 slots");
            self.slab.push(Slot {
                time: at,
                generation: 0,
                prev: NIL,
                next: NIL,
                bucket: FREE_BUCKET,
                event: Some(event),
            });
            index
        } else {
            let index = self.free_head;
            let s = &mut self.slab[index as usize];
            self.free_head = s.next;
            s.time = at;
            s.event = Some(event);
            index
        };
        let generation = self.slab[index as usize].generation;
        self.link(index);
        self.live += 1;
        self.peak_pending = self.peak_pending.max(self.live);
        EventId { index, generation }
    }

    /// Schedules `event` after a delay.
    pub fn schedule_after(&mut self, delay: SimDuration, event: W::Event) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a previously scheduled event. Cancelling an event that has
    /// already run (or was already cancelled) is a no-op: the slot's
    /// generation no longer matches the handle. O(1) either way, and no
    /// tombstone state survives the call.
    pub fn cancel(&mut self, id: EventId) {
        let Some(s) = self.slab.get(id.index as usize) else {
            return;
        };
        if s.generation != id.generation || s.bucket == FREE_BUCKET {
            return;
        }
        self.unlink(id.index);
        let _ = self.release(id.index);
        self.cancelled += 1;
    }

    /// Removes and returns the earliest pending event (earliest time,
    /// then earliest insertion), cascading higher wheel levels down as
    /// needed. Advances the cursor to the popped event's time.
    fn pop_earliest(&mut self) -> Option<(SimTime, W::Event)> {
        if self.live == 0 {
            return None;
        }
        loop {
            // Level 0 first: the earliest pending event, if any bucket at
            // or after the cursor's slot is occupied, is the FIFO head of
            // the first such bucket (level-0 buckets are 1 ns wide).
            let c0 = (self.cursor & SLOT_MASK) as u32;
            let mask = self.occupancy[0] & (!0u64 << c0);
            if mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                let head = self.buckets[slot].head;
                debug_assert_ne!(head, NIL);
                let time = self.slab[head as usize].time;
                self.unlink(head);
                let event = self.release(head);
                self.cursor = time.as_ns();
                return Some((time, event));
            }
            // Level 0 is empty at/after the cursor: cascade. The first
            // occupied bucket at the lowest occupied level holds the
            // earliest pending event (see DESIGN §15); advance the
            // cursor to that bucket's window start and redistribute its
            // chain — in order, so FIFO sequence is preserved — into the
            // levels below.
            let mut cascaded = false;
            for level in 1..LEVELS {
                let shift = LEVEL_BITS * level;
                let c = ((self.cursor >> shift) & SLOT_MASK) as u32;
                let mask = self.occupancy[level] & (!0u64 << c);
                if mask == 0 {
                    continue;
                }
                let slot = mask.trailing_zeros() as usize;
                let span = shift + LEVEL_BITS;
                let high = if span >= 64 {
                    0
                } else {
                    (self.cursor >> span) << span
                };
                self.cursor = high | ((slot as u64) << shift);
                let bucket = level * SLOTS + slot;
                let mut index = self.buckets[bucket].head;
                self.buckets[bucket] = EMPTY_BUCKET;
                self.occupancy[level] &= !(1u64 << slot);
                while index != NIL {
                    let next = self.slab[index as usize].next;
                    self.link(index);
                    index = next;
                }
                cascaded = true;
                break;
            }
            assert!(cascaded, "live events but no occupied wheel bucket");
        }
    }

    /// The earliest pending event time, without disturbing the wheel
    /// (no cascading — the cursor must not move, or a later
    /// `schedule_at` between `now` and the cursor would misfile).
    fn peek_time(&self) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        let c0 = (self.cursor & SLOT_MASK) as u32;
        let mask = self.occupancy[0] & (!0u64 << c0);
        if mask != 0 {
            let slot = u64::from(mask.trailing_zeros());
            return Some(SimTime::from_ns((self.cursor & !SLOT_MASK) | slot));
        }
        for level in 1..LEVELS {
            let shift = LEVEL_BITS * level;
            let c = ((self.cursor >> shift) & SLOT_MASK) as u32;
            let mask = self.occupancy[level] & (!0u64 << c);
            if mask == 0 {
                continue;
            }
            // The first occupied bucket at the lowest occupied level
            // contains the earliest event; scan its (one) chain for the
            // minimum time.
            let bucket = level * SLOTS + mask.trailing_zeros() as usize;
            let mut index = self.buckets[bucket].head;
            let mut min = SimTime::MAX;
            while index != NIL {
                let s = &self.slab[index as usize];
                min = min.min(s.time);
                index = s.next;
            }
            return Some(min);
        }
        unreachable!("live events but no occupied wheel bucket")
    }

    /// Executes one event. Returns `false` if the queue was empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        let Some((time, event)) = self.pop_earliest() else {
            return false;
        };
        debug_assert!(time >= self.now);
        self.now = time;
        self.executed += 1;
        world.dispatch(self, event);
        true
    }

    /// Runs until no events remain.
    ///
    /// # Panics
    ///
    /// Panics after 500 million events — a runaway-simulation backstop.
    pub fn run(&mut self, world: &mut W) {
        let limit = self.executed + 500_000_000;
        while self.step(world) {
            assert!(self.executed < limit, "simulation did not converge");
        }
    }

    /// Runs until the clock would pass `until` (events at exactly `until`
    /// still execute) or no events remain.
    pub fn run_until(&mut self, world: &mut W, until: SimTime) {
        loop {
            match self.peek_time() {
                Some(t) if t <= until => {
                    self.step(world);
                }
                _ => break,
            }
        }
        if self.now < until && self.live == 0 {
            self.now = until;
        }
    }
}

#[cfg(test)]
mod reference {
    //! The pre-wheel `BinaryHeap` + tombstone-set scheduler, kept as the
    //! differential-testing oracle: the wheel must reproduce its dispatch
    //! sequence, clock trajectory, and executed count exactly.
    //!
    //! Stripped to a pure priority queue (`step` returns the popped
    //! event instead of dispatching) so the oracle needs no `EventWorld`.
    //! One deliberate deviation: the old `run_until` peeked *including*
    //! tombstones, so a cancelled entry at the heap head with time
    //! `<= until` could trigger a step that executed a live event *past*
    //! `until`. The oracle skims tombstones before peeking, specifying
    //! the intended clamp semantics — which the wheel implements.

    use std::cmp::Ordering as CmpOrdering;
    use std::collections::BinaryHeap;
    use std::collections::HashSet;

    use crate::time::SimTime;

    struct Scheduled<E> {
        time: SimTime,
        id: u64,
        event: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.id == other.id
        }
    }
    impl<E> Eq for Scheduled<E> {}
    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> CmpOrdering {
            // BinaryHeap is a max-heap; invert for earliest-first order.
            // Ties break by insertion order for determinism.
            other.time.cmp(&self.time).then(other.id.cmp(&self.id))
        }
    }

    pub struct HeapSim<E> {
        pub now: SimTime,
        heap: BinaryHeap<Scheduled<E>>,
        next_id: u64,
        cancelled: HashSet<u64>,
        pub executed: u64,
    }

    impl<E> HeapSim<E> {
        pub fn new() -> Self {
            HeapSim {
                now: SimTime::ZERO,
                heap: BinaryHeap::new(),
                next_id: 0,
                cancelled: HashSet::new(),
                executed: 0,
            }
        }

        pub fn pending(&self) -> usize {
            self.heap
                .iter()
                .filter(|ev| !self.cancelled.contains(&ev.id))
                .count()
        }

        pub fn schedule_at(&mut self, at: SimTime, event: E) -> u64 {
            assert!(at >= self.now);
            let id = self.next_id;
            self.next_id += 1;
            self.heap.push(Scheduled {
                time: at,
                id,
                event,
            });
            id
        }

        pub fn cancel(&mut self, id: u64) {
            self.cancelled.insert(id);
        }

        pub fn step(&mut self) -> Option<(SimTime, E)> {
            while let Some(ev) = self.heap.pop() {
                if self.cancelled.remove(&ev.id) {
                    continue;
                }
                self.now = ev.time;
                self.executed += 1;
                return Some((ev.time, ev.event));
            }
            None
        }

        /// Pops tombstones off the heap head so `peek` sees a live event.
        fn skim(&mut self) {
            while let Some(ev) = self.heap.peek() {
                if self.cancelled.contains(&ev.id) {
                    let ev = self.heap.pop().expect("peeked");
                    self.cancelled.remove(&ev.id);
                } else {
                    break;
                }
            }
        }

        pub fn run_until_into(&mut self, until: SimTime, log: &mut Vec<(SimTime, E)>) {
            loop {
                self.skim();
                match self.heap.peek() {
                    Some(ev) if ev.time <= until => {
                        let popped = self.step().expect("peeked a live event");
                        log.push(popped);
                    }
                    _ => break,
                }
            }
            if self.now < until && self.heap.is_empty() {
                self.now = until;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::HeapSim;
    use super::*;
    use proptest::prelude::*;

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    enum Ev {
        Log(&'static str),
        LogAt(u64, &'static str),
        Chain(&'static str),
        SchedulePast,
    }

    impl EventWorld for World {
        type Event = Ev;
        fn dispatch(&mut self, sim: &mut Sim<Self>, event: Ev) {
            match event {
                Ev::Log(tag) => self.log.push((sim.now().as_ns(), tag)),
                Ev::LogAt(at, tag) => self.log.push((at, tag)),
                Ev::Chain(tag) => {
                    sim.schedule_after(SimDuration::from_ns(4), Ev::Log(tag));
                }
                Ev::SchedulePast => {
                    sim.schedule_at(SimTime::from_ns(5), Ev::Log("never"));
                }
            }
        }
    }

    #[test]
    fn events_run_in_time_order() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime::from_ns(30), Ev::Log("c"));
        sim.schedule_at(SimTime::from_ns(10), Ev::Log("a"));
        sim.schedule_at(SimTime::from_ns(20), Ev::Log("b"));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(10, "a"), (20, "b"), (30, "c")]);
        assert_eq!(sim.now(), SimTime::from_ns(30));
        assert_eq!(sim.executed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let t = SimTime::from_ns(5);
        sim.schedule_at(t, Ev::LogAt(0, "first"));
        sim.schedule_at(t, Ev::LogAt(0, "second"));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(0, "first"), (0, "second")]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime::from_ns(1), Ev::Chain("chained"));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(5, "chained")]);
    }

    #[test]
    fn cancellation() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let id = sim.schedule_at(SimTime::from_ns(10), Ev::LogAt(0, "cancelled"));
        sim.schedule_at(SimTime::from_ns(5), Ev::LogAt(0, "kept"));
        sim.cancel(id);
        sim.run(&mut w);
        assert_eq!(w.log, vec![(0, "kept")]);
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.cancelled(), 1);
    }

    #[test]
    fn run_until_stops_the_clock() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime::from_ns(10), Ev::LogAt(0, "early"));
        sim.schedule_at(SimTime::from_ns(100), Ev::LogAt(0, "late"));
        sim.run_until(&mut w, SimTime::from_ns(50));
        assert_eq!(w.log, vec![(0, "early")]);
        assert_eq!(sim.now(), SimTime::from_ns(10));
        sim.run(&mut w);
        assert_eq!(w.log.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime::from_ns(10), Ev::SchedulePast);
        sim.run(&mut w);
    }

    #[test]
    fn far_future_events_cascade_down_in_order() {
        // Times spread across every wheel level, including the top
        // (bit 63), scheduled in shuffled order with same-time ties.
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let times = [
            1u64 << 40,
            3,
            (1 << 62) + 5,
            1 << 62,
            (1 << 40) + 1,
            u64::MAX - 1,
            3,
            1 << 13,
        ];
        for (i, &t) in times.iter().enumerate() {
            let tags = ["a", "b", "c", "d", "e", "f", "g", "h"];
            sim.schedule_at(SimTime::from_ns(t), Ev::LogAt(t, tags[i]));
        }
        sim.run(&mut w);
        assert_eq!(
            w.log,
            vec![
                (3, "b"),
                (3, "g"), // tie preserved in insertion order
                (1 << 13, "h"),
                (1 << 40, "a"),
                ((1 << 40) + 1, "e"),
                (1 << 62, "d"),
                ((1 << 62) + 5, "c"),
                (u64::MAX - 1, "f"),
            ]
        );
        assert_eq!(sim.now(), SimTime::from_ns(u64::MAX - 1));
    }

    #[test]
    fn cancelling_executed_ids_cannot_grow_memory() {
        // The old scheduler's tombstone set grew unboundedly when
        // already-executed ids were cancelled (the tombstone was never
        // popped). Generation-checked slab ids make the cancel a pure
        // no-op: after 100k schedule/run/cancel rounds the arena still
        // holds exactly as many slots as the peak number of concurrently
        // pending events.
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let mut stale: Vec<EventId> = Vec::new();
        for round in 0..100_000u64 {
            let id = sim.schedule_after(SimDuration::from_ns(1), Ev::Log("tick"));
            sim.run(&mut w);
            sim.cancel(id); // already executed: must be a no-op
            if round < 4 {
                stale.push(id);
            }
            for &old in &stale {
                sim.cancel(old); // long-stale ids too
            }
        }
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.executed(), 100_000);
        assert_eq!(sim.cancelled(), 0, "no live event was ever cancelled");
        assert_eq!(sim.peak_pending(), 1);
        assert_eq!(
            sim.arena_capacity(),
            1,
            "arena must stay bounded by peak pending, not by cancel calls"
        );
    }

    #[test]
    fn recycled_slots_go_stale_for_old_handles() {
        // id_a's slot is recycled by a later schedule; cancelling id_a
        // must not kill the new occupant.
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let id_a = sim.schedule_at(SimTime::from_ns(1), Ev::LogAt(1, "a"));
        sim.run(&mut w);
        let _id_b = sim.schedule_at(SimTime::from_ns(2), Ev::LogAt(2, "b"));
        sim.cancel(id_a); // stale: same slot, older generation
        assert_eq!(sim.pending(), 1);
        sim.run(&mut w);
        assert_eq!(w.log, vec![(1, "a"), (2, "b")]);
    }

    #[test]
    fn rearm_churn_recycles_one_slot() {
        // The flow-network pattern: cancel + reschedule the single
        // completion timer on every contention change.
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let mut timer = sim.schedule_at(SimTime::from_ns(1_000), Ev::LogAt(0, "unreached"));
        for i in 0..10_000u64 {
            sim.cancel(timer);
            timer = sim.schedule_at(SimTime::from_ns(1_000 + i), Ev::LogAt(1_000 + i, "fired"));
        }
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.cancelled(), 10_000);
        assert_eq!(sim.arena_capacity(), 1);
        sim.run(&mut w);
        assert_eq!(w.log, vec![(10_999, "fired")]);
    }

    #[test]
    fn run_until_with_only_cancelled_events_advances_the_clock() {
        // A cancelled event beyond `until` leaves nothing live, so the
        // clock clamps to `until` (the old scheduler left tombstones in
        // the heap and stalled the clock here).
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let id = sim.schedule_at(SimTime::from_ns(100), Ev::LogAt(0, "cancelled"));
        sim.cancel(id);
        sim.run_until(&mut w, SimTime::from_ns(50));
        assert!(w.log.is_empty());
        assert_eq!(sim.now(), SimTime::from_ns(50));
    }

    // --- Differential test: wheel vs the old heap scheduler ---------

    /// Minimal world for the differential test: events are schedule
    /// sequence numbers, dispatch just logs `(now, tag)`.
    #[derive(Default)]
    struct TagWorld {
        log: Vec<(SimTime, u32)>,
    }

    impl EventWorld for TagWorld {
        type Event = u32;
        fn dispatch(&mut self, sim: &mut Sim<Self>, tag: u32) {
            self.log.push((sim.now(), tag));
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Schedule at `now + delta`.
        Schedule { delta: u64 },
        /// Cancel the `which % issued`-th id ever issued — may be live,
        /// executed, already cancelled, or recycled.
        Cancel { which: usize },
        /// The flow-rearm pattern: cancel an old id, schedule a fresh one.
        Reschedule { which: usize, delta: u64 },
        /// Execute up to `n` events.
        Step { n: u8 },
        /// Run both schedulers until `now + delta`.
        RunUntil { delta: u64 },
    }

    /// Deltas spanning every wheel level: same-tick (0), near, mid, and
    /// far-future (top-level, cascade-heavy) horizons. Entries repeat to
    /// weight toward the near-future common case.
    fn delta_strategy() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..4,
            0u64..4,
            0u64..1_000,
            0u64..1_000,
            (1u64 << 30)..(1u64 << 34),
            (1u64 << 55)..(1u64 << 62),
        ]
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            delta_strategy().prop_map(|delta| Op::Schedule { delta }),
            delta_strategy().prop_map(|delta| Op::Schedule { delta }),
            delta_strategy().prop_map(|delta| Op::Schedule { delta }),
            any::<usize>().prop_map(|which| Op::Cancel { which }),
            (any::<usize>(), delta_strategy())
                .prop_map(|(which, delta)| Op::Reschedule { which, delta }),
            (1u8..8).prop_map(|n| Op::Step { n }),
            (1u8..8).prop_map(|n| Op::Step { n }),
            delta_strategy().prop_map(|delta| Op::RunUntil { delta }),
        ]
    }

    fn run_differential(ops: &[Op]) {
        let mut wheel: Sim<TagWorld> = Sim::new();
        let mut world = TagWorld::default();
        let mut oracle: HeapSim<u32> = HeapSim::new();
        let mut oracle_log: Vec<(SimTime, u32)> = Vec::new();
        let mut wheel_ids: Vec<EventId> = Vec::new();
        let mut oracle_ids: Vec<u64> = Vec::new();
        let mut tag = 0u32;

        let mut schedule = |delta: u64,
                            wheel: &mut Sim<TagWorld>,
                            oracle: &mut HeapSim<u32>,
                            wheel_ids: &mut Vec<EventId>,
                            oracle_ids: &mut Vec<u64>| {
            let at = SimTime::from_ns(wheel.now().as_ns().saturating_add(delta));
            wheel_ids.push(wheel.schedule_at(at, tag));
            oracle_ids.push(oracle.schedule_at(at, tag));
            tag += 1;
        };

        for op in ops {
            match *op {
                Op::Schedule { delta } => {
                    schedule(
                        delta,
                        &mut wheel,
                        &mut oracle,
                        &mut wheel_ids,
                        &mut oracle_ids,
                    );
                }
                Op::Cancel { which } => {
                    if !wheel_ids.is_empty() {
                        let i = which % wheel_ids.len();
                        wheel.cancel(wheel_ids[i]);
                        oracle.cancel(oracle_ids[i]);
                    }
                }
                Op::Reschedule { which, delta } => {
                    if !wheel_ids.is_empty() {
                        let i = which % wheel_ids.len();
                        wheel.cancel(wheel_ids[i]);
                        oracle.cancel(oracle_ids[i]);
                    }
                    schedule(
                        delta,
                        &mut wheel,
                        &mut oracle,
                        &mut wheel_ids,
                        &mut oracle_ids,
                    );
                }
                Op::Step { n } => {
                    for _ in 0..n {
                        let advanced = wheel.step(&mut world);
                        match oracle.step() {
                            Some(popped) => {
                                assert!(advanced);
                                oracle_log.push(popped);
                            }
                            None => assert!(!advanced),
                        }
                    }
                }
                Op::RunUntil { delta } => {
                    let until = SimTime::from_ns(wheel.now().as_ns().saturating_add(delta));
                    wheel.run_until(&mut world, until);
                    oracle.run_until_into(until, &mut oracle_log);
                }
            }
            assert_eq!(wheel.pending(), oracle.pending());
            assert_eq!(wheel.now(), oracle.now);
            assert_eq!(wheel.executed(), oracle.executed);
        }

        // Drain both to completion and compare the full dispatch record.
        while let Some(popped) = oracle.step() {
            assert!(wheel.step(&mut world));
            oracle_log.push(popped);
        }
        assert!(!wheel.step(&mut world));
        assert_eq!(world.log, oracle_log);
        assert_eq!(wheel.now(), oracle.now);
        assert_eq!(wheel.executed(), oracle.executed);
        assert_eq!(wheel.pending(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The wheel must be observationally identical to the old heap
        /// scheduler on arbitrary schedule/cancel/reschedule/step streams:
        /// same dispatch sequence (same-tick ties included), same `now()`
        /// trajectory, same executed counts.
        #[test]
        fn wheel_matches_heap_oracle(
            ops in proptest::collection::vec(op_strategy(), 1..250)
        ) {
            run_differential(&ops);
        }
    }
}
