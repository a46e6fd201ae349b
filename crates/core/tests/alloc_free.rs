//! The steady-state allocation gate: once warm, the request path —
//! submit, issue (walk, remap, descriptor programming), launch, flow
//! completion, release, notify, retrieve and `poll_event` — makes no
//! heap allocation at all. Every per-request buffer is owned by a
//! long-lived structure and recycled (the paper's preallocated queue
//! slots of §4.4 and reused descriptor chains of §5.3).
//!
//! A test-local global allocator counts the calling thread's own
//! allocations while armed, so tests running on other harness threads
//! never leak into a count. Each stream drives its own closed loop: a
//! registered [`SimEvent::Hook`] retrieves every completion, submits
//! that window slot's next request and re-arms itself through
//! [`Memif::poll_event`]. The hook arms the counter when the `WARM`-th
//! request retires and disarms it `WINDOW` retirements later, with the
//! window still full, and the gate requires exactly zero allocations in
//! between.
//!
//! The only growth allowed is the amortized doubling (`realloc`) of the
//! one append-only ledger that keeps an entry per request by design:
//! the completion log [`memif::MemifDevice::log`], a byte buffer of
//! encoded records whose capacity doubles from 8. QoS keeps counters
//! only, and the write-ahead journal drops each record once its
//! completion is retrieved and acknowledged, so the journaled stream
//! must hold it in the space it warmed up to. Every reallocation is
//! recorded by its old and new byte size, and the log's doublings are
//! derived from its capacity before and after the window. The recorded
//! reallocations must be exactly those doublings: one more anywhere, or
//! the log growing by other than doubling, fails the gate.
//!
//! Pages are never written: simulated memory contents are themselves
//! heap-backed (`PhysMem` materializes a frame on first write), and the
//! gate is about the driver's bookkeeping, not the simulated bytes.
//!
//! The same six streams also pin the event core's work per request: run
//! again with the event log on (its records are allocations, so that
//! run's allocation counts go unchecked), each must dispatch exactly
//! the pinned number of events of each record `type` over the same
//! window.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::thread::LocalKey;

use memif::{
    HookId, Memif, MemifConfig, MoveSpec, NodeId, PageSize, Sim, SimEvent, System, TenantConfig,
    TenantId, VirtAddr,
};
use memif_hwsim::{CostModel, Topology};

struct Counting;

/// Reallocations recorded per window; more fail the gate.
const MAX_GROWS: usize = 64;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static GROWS: Cell<u64> = const { Cell::new(0) };
    /// `(old bytes, new bytes)` of the first `MAX_GROWS` reallocations.
    static GROWN: RefCell<[(usize, usize); MAX_GROWS]> =
        const { RefCell::new([(0, 0); MAX_GROWS]) };
}

fn armed() -> bool {
    // `try_with`: the allocator also runs during thread teardown.
    ARMED.try_with(Cell::get).unwrap_or(false)
}

fn bump(counter: &'static LocalKey<Cell<u64>>) -> u64 {
    counter
        .try_with(|n| {
            n.set(n.get() + 1);
            n.get() - 1
        })
        .unwrap_or(0)
}

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only bumps a thread-local counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            bump(&ALLOCS);
        }
        unsafe { Heap.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            bump(&ALLOCS);
        }
        unsafe { Heap.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { Heap.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            let k = bump(&GROWS) as usize;
            if k < MAX_GROWS {
                let _ = GROWN.try_with(|g| g.borrow_mut()[k] = (layout.size(), new_size));
            }
        }
        unsafe { Heap.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Requests retired before counting starts.
const WARM: u64 = 3_000;
/// Requests retired while counting.
const WINDOW: u64 = 2_000;

/// Most encoded completion-log bytes per retired request any stream
/// may take. The six streams take 1.01 (solo), 3.63 (journaled), 5.22
/// (batched), 5.67 (QoS), 6.01 (sharded) and 8.00 (replication); the
/// bound is the largest rounded up to a whole byte.
const LOG_BYTES_PER_REQUEST: f64 = 9.0;

/// What each window slot moves.
#[derive(Clone, Copy)]
enum Shape {
    /// Ping-pong the slot's region between two nodes.
    Migrate(NodeId, NodeId),
    /// Copy the slot's source region (node 0) into its own destination
    /// region (node 1).
    Replicate,
}

struct Stream {
    topo: Topology,
    config: MemifConfig,
    shape: Shape,
    pages: u32,
    page_size: PageSize,
    /// Requests kept in flight; slot `i` bills `tenants[i % len]`.
    window: usize,
    tenants: Vec<(TenantId, TenantConfig)>,
    /// Requests submitted in all (at least `WARM + WINDOW + window`).
    requests: u64,
}

/// The closed loop's state, shared with its hook.
struct Loop {
    memif: Memif,
    hook: Option<HookId>,
    /// Per slot: source, replication destination, node the source is on.
    slots: Vec<(VirtAddr, VirtAddr, NodeId)>,
    tenants: Vec<TenantId>,
    shape: Shape,
    pages: u32,
    page_size: PageSize,
    /// Requests still to submit, and requests submitted but not retired.
    budget: u64,
    outstanding: u64,
    completed: u64,
    /// Completion-log capacities, in bytes, and event-log lengths when
    /// the counter was armed and disarmed.
    marks: Vec<(usize, usize)>,
    /// Most journal records and request-id index slots held at any
    /// retirement.
    journal_peak: (usize, usize),
}

/// The capacity of `memif`'s completion log, in bytes.
fn log_capacity(sys: &System, memif: Memif) -> usize {
    sys.device(memif.device())
        .expect("device open")
        .log
        .capacity()
}

/// The reallocations the completion log made growing from `from` to
/// `until` bytes of capacity, as `(old bytes, new bytes)`. Capacities
/// run 8 bytes, twice that, ...: the log doubles at every power of two
/// in `[from, until)`.
fn log_doublings(from: usize, until: usize) -> Vec<Grown> {
    let mut cap = from.next_power_of_two().max(8);
    let mut grown = Vec::new();
    while cap < until {
        grown.push((cap, 2 * cap));
        cap *= 2;
    }
    grown
}

/// One expected doubling of the log: `(old bytes, new bytes)`.
type Grown = (usize, usize);

impl Loop {
    /// Submits slot `slot`'s next request, if the budget allows.
    fn submit(&mut self, sys: &mut System, sim: &mut Sim<System>, slot: usize) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        let (src, dst, node) = self.slots[slot];
        let spec = match self.shape {
            Shape::Migrate(a, b) => {
                let to = if node == a { b } else { a };
                self.slots[slot].2 = to;
                MoveSpec::migrate(src, self.pages, self.page_size, to)
            }
            Shape::Replicate => MoveSpec::replicate(src, dst, self.pages, self.page_size),
        };
        let spec = spec
            .with_user_data(slot as u64)
            .with_tenant(self.tenants[slot % self.tenants.len()]);
        self.memif.submit(sys, sim, spec).expect("slot free");
        self.outstanding += 1;
    }

    /// The hook body: retire every completion, refill its slot, and
    /// sleep in `poll_event` while anything is outstanding.
    fn pump(&mut self, sys: &mut System, sim: &mut Sim<System>) {
        while let Some(c) = self.memif.retrieve_completed(sys).expect("device open") {
            assert!(
                c.status.is_ok(),
                "request {:?} ended {:?}",
                c.req_id,
                c.status
            );
            self.outstanding -= 1;
            self.completed += 1;
            let journal = sys.journal();
            self.journal_peak.0 = self.journal_peak.0.max(journal.records().len());
            self.journal_peak.1 = self.journal_peak.1.max(journal.index_slots());
            if self.completed == WARM {
                self.marks
                    .push((log_capacity(sys, self.memif), sys.event_log().len()));
                ARMED.with(|a| a.set(true));
            }
            if self.completed == WARM + WINDOW {
                ARMED.with(|a| a.set(false));
                self.marks
                    .push((log_capacity(sys, self.memif), sys.event_log().len()));
            }
            self.submit(sys, sim, c.user_data as usize);
        }
        if self.outstanding > 0 {
            let hook = self.hook.expect("registered");
            self.memif
                .poll_event(sys, sim, SimEvent::Hook { hook, arg: 0 })
                .expect("device open");
        }
    }
}

/// What one stream did over the counted window.
struct Measured {
    allocs: u64,
    /// Reallocations that are no log doubling, as `(old bytes, new
    /// bytes)`.
    unexplained: Vec<(usize, usize)>,
    /// Reallocations made in all.
    grows: u64,
    /// Log doublings that did not happen as one reallocation each.
    missing: Vec<Grown>,
    /// Parked requests re-admitted over the whole run.
    readmitted: u64,
    /// Requests submitted over the whole run.
    submitted: u64,
    /// Journal records appended over the whole run.
    journal_appends: usize,
    /// Most journal records and index slots held at any retirement.
    journal_peak: (usize, usize),
    /// Encoded completion-log bytes per retired request.
    log_bytes_per_request: f64,
    /// Events dispatched over the counted window, by record `type`
    /// (empty unless the event log was on).
    events: BTreeMap<String, u64>,
}

/// Runs `stream` through `WARM` requests, counts the allocations of the
/// next `WINDOW` (the window stays full throughout), then drains it
/// once `stream.requests` have been submitted. With `log_events`, the
/// event log is on and the window's events are counted instead (the
/// log's records are themselves allocations).
fn measure(stream: Stream, log_events: bool) -> Measured {
    let mut sys = System::with_profile(stream.topo, CostModel::keystone_ii());
    let mut sim = Sim::new();
    if log_events {
        sys.enable_event_log();
    }
    for &(t, cfg) in &stream.tenants {
        sys.qos.register(t, cfg);
    }
    let space = sys.new_space();
    let memif = Memif::open(&mut sys, space, stream.config).expect("device opens");
    let (home, other) = match stream.shape {
        Shape::Migrate(a, _) => (a, NodeId(1)),
        Shape::Replicate => (NodeId(0), NodeId(1)),
    };
    let slots = (0..stream.window)
        .map(|_| {
            let src = sys
                .mmap(space, stream.pages, stream.page_size, home)
                .expect("source maps");
            let dst = match stream.shape {
                Shape::Replicate => sys
                    .mmap(space, stream.pages, stream.page_size, other)
                    .expect("destination maps"),
                Shape::Migrate(..) => VirtAddr::new(0),
            };
            (src, dst, home)
        })
        .collect();
    let state = Rc::new(RefCell::new(Loop {
        memif,
        hook: None,
        slots,
        tenants: stream.tenants.iter().map(|t| t.0).collect(),
        shape: stream.shape,
        pages: stream.pages,
        page_size: stream.page_size,
        budget: stream.requests,
        outstanding: 0,
        completed: 0,
        marks: Vec::new(),
        journal_peak: (0, 0),
    }));
    let for_hook = Rc::clone(&state);
    let hook = sys.register_hook(move |sys, sim, _| for_hook.borrow_mut().pump(sys, sim));
    state.borrow_mut().hook = Some(hook);

    ALLOCS.with(|n| n.set(0));
    GROWS.with(|n| n.set(0));
    for slot in 0..stream.window {
        state.borrow_mut().submit(&mut sys, &mut sim, slot);
    }
    state.borrow_mut().pump(&mut sys, &mut sim);
    sim.run(&mut sys);
    let l = state.borrow();
    assert_eq!((l.budget, l.outstanding), (0, 0), "the loop drained");
    let [(before, from), (after, until)] = l.marks[..] else {
        panic!("the counter was armed and disarmed once");
    };
    let mut events = BTreeMap::new();
    for record in &sys.event_log()[from..until] {
        let kind = record
            .split("\"type\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("every record has a type");
        *events.entry(kind.to_owned()).or_insert(0) += 1;
    }
    let device = sys.device(l.memif.device()).expect("device open");
    let grows = GROWS.with(Cell::get);
    let mut unexplained: Vec<(usize, usize)> =
        GROWN.with(|g| g.borrow()[..(grows as usize).min(MAX_GROWS)].to_vec());
    let mut missing = Vec::new();
    for grown in log_doublings(before, after) {
        match unexplained.iter().position(|&g| g == grown) {
            Some(at) => {
                unexplained.swap_remove(at);
            }
            None => missing.push(grown),
        }
    }
    Measured {
        allocs: ALLOCS.with(Cell::get),
        unexplained,
        grows,
        missing,
        readmitted: device.stats.requests_readmitted,
        submitted: device.stats.submitted,
        journal_appends: sys.journal().len(),
        journal_peak: l.journal_peak,
        log_bytes_per_request: device.log.encoded_bytes() as f64 / device.log.len() as f64,
        events,
    }
}

fn assert_allocation_free(name: &str, stream: Stream) -> Measured {
    let m = measure(stream, false);
    assert!(
        m.grows <= MAX_GROWS as u64,
        "{name}: {} reallocations",
        m.grows
    );
    assert!(
        m.allocs == 0 && m.unexplained.is_empty() && m.missing.is_empty(),
        "{name}, over {WINDOW} steady-state requests: {} allocations; {} reallocations, of which \
         these (old, new bytes) are no log doubling: {:?}; log doublings not seen: {:?}",
        m.allocs,
        m.grows,
        m.unexplained,
        m.missing,
    );
    assert!(
        m.log_bytes_per_request <= LOG_BYTES_PER_REQUEST,
        "{name}: the completion log took {:.2} bytes per request",
        m.log_bytes_per_request
    );
    m
}

fn migrate4k(config: MemifConfig, pages: u32, window: usize) -> Stream {
    Stream {
        topo: Topology::keystone_ii(),
        config,
        shape: Shape::Migrate(NodeId(0), NodeId(1)),
        pages,
        page_size: PageSize::Small4K,
        window,
        tenants: vec![(TenantId::ROOT, TenantConfig::default())],
        requests: WARM + WINDOW + window as u64,
    }
}

/// Requests the journaled stream submits in all.
const JOURNALED_REQUESTS: u64 = 50_000;

fn solo() -> Stream {
    migrate4k(MemifConfig::default(), 1, 8)
}

fn batched() -> Stream {
    let config = MemifConfig {
        batch_max: 8,
        coalesce: true,
        ..MemifConfig::default()
    };
    migrate4k(config, 16, 8)
}

fn sharded() -> Stream {
    let config = MemifConfig {
        issue_shards: 4,
        ..MemifConfig::default()
    };
    migrate4k(config, 1, 16)
}

/// Two tenants share the device, two slots each; the second is capped
/// at one request in flight, so its second request parks at submit, is
/// re-admitted when the first retires, and its parked queue empties and
/// refills every round.
fn qos() -> Stream {
    let config = MemifConfig {
        qos: true,
        ..MemifConfig::default()
    };
    let mut stream = migrate4k(config, 4, 4);
    stream.tenants = vec![
        (
            TenantId(1),
            TenantConfig {
                weight: 3,
                ..TenantConfig::default()
            },
        ),
        (
            TenantId(2),
            TenantConfig {
                weight: 1,
                inflight_cap: Some(1),
                ..TenantConfig::default()
            },
        ),
    ];
    stream
}

/// Batched, coalesced 64 KiB migrations between DRAM and NVM with the
/// write-ahead journal on.
fn journaled() -> Stream {
    let config = MemifConfig {
        journal: true,
        batch_max: 16,
        coalesce: true,
        ..MemifConfig::default()
    };
    let mut stream = migrate4k(config, 16, 16);
    stream.topo = Topology::ranked(3);
    stream.shape = Shape::Migrate(NodeId(0), NodeId(2));
    stream.requests = JOURNALED_REQUESTS;
    stream
}

fn replication() -> Stream {
    Stream {
        topo: Topology::keystone_ii(),
        config: MemifConfig::default(),
        shape: Shape::Replicate,
        pages: 4,
        page_size: PageSize::Medium64K,
        window: 4,
        tenants: vec![(TenantId::ROOT, TenantConfig::default())],
        requests: WARM + WINDOW + 4,
    }
}

#[test]
fn solo_4k_migration_allocates_nothing() {
    assert_allocation_free("solo", solo());
}

#[test]
fn batched_coalesced_migration_allocates_nothing() {
    assert_allocation_free("batched", batched());
}

#[test]
fn sharded_issue_allocates_nothing() {
    assert_allocation_free("4 shards", sharded());
}

#[test]
fn qos_roster_allocates_nothing() {
    let m = assert_allocation_free("qos", qos());
    assert!(m.readmitted > WINDOW / 4, "the capped tenant parks");
}

/// The journal holds what is in flight or not yet acknowledged, not
/// one record per request ever issued: over 50,000 journaled requests
/// at window 16, its records and its request-id index stay within a
/// small constant, while `len()` still counts every append.
#[test]
fn journaled_nvm_migration_allocates_nothing() {
    let m = assert_allocation_free("journaled", journaled());
    assert_eq!(m.submitted, JOURNALED_REQUESTS);
    assert_eq!(
        m.journal_appends as u64, JOURNALED_REQUESTS,
        "len() counts appends"
    );
    let (records, slots) = m.journal_peak;
    assert!(
        records <= 64 && slots <= 64,
        "journal held up to {records} records and {slots} index slots at window 16"
    );
}

#[test]
fn replication_64k_allocates_nothing() {
    assert_allocation_free("replication", replication());
}

/// Events of each record `type` over a stream's counted window.
type Pins = &'static [(&'static str, u64)];

/// Events each stream dispatches over its `WINDOW` counted retirements,
/// by record `type`, pinned exactly: a change to the event core's work
/// per request fails here as a named diff. In all, a request takes 7.0
/// events (solo), 2.664 (batched), 5.75 (4 shards), 7.333 (QoS), 2.583
/// (journaled) and 7.0 (replication).
#[test]
fn events_per_request_are_pinned() {
    let pinned: [(&str, Stream, Pins); 6] = [
        (
            "solo",
            solo(),
            &[
                ("dma_done", 2000),
                ("flow_tick", 2000),
                ("hook", 2000),
                ("kthread_continue", 2000),
                ("kthread_run", 2000),
                ("launch", 2000),
                ("poll_release", 2000),
            ],
        ),
        (
            "batched",
            batched(),
            &[
                ("dma_done", 555),
                ("flow_tick", 555),
                ("hook", 555),
                ("irq_release", 888),
                ("kthread_continue", 333),
                ("kthread_run", 777),
                ("launch", 555),
                ("poll_release", 1110),
            ],
        ),
        (
            "4 shards",
            sharded(),
            &[
                ("dma_done", 2000),
                ("flow_tick", 750),
                ("hook", 750),
                ("kthread_continue", 2000),
                ("kthread_run", 2000),
                ("launch", 2000),
                ("poll_release", 2000),
            ],
        ),
        (
            "qos",
            qos(),
            &[
                ("dma_done", 2000),
                ("flow_tick", 2000),
                ("hook", 2000),
                ("kthread_continue", 2000),
                ("kthread_run", 2666),
                ("launch", 2000),
                ("poll_release", 2000),
            ],
        ),
        (
            "journaled",
            journaled(),
            &[
                ("dma_done", 528),
                ("flow_tick", 528),
                ("hook", 528),
                ("irq_release", 1575),
                ("kthread_continue", 422),
                ("kthread_run", 634),
                ("launch", 528),
                ("poll_release", 423),
            ],
        ),
        (
            "replication",
            replication(),
            &[
                ("dma_done", 2000),
                ("flow_tick", 2000),
                ("hook", 2000),
                ("kthread_continue", 2000),
                ("kthread_run", 2000),
                ("launch", 2000),
                ("poll_release", 2000),
            ],
        ),
    ];
    let mut diffs = Vec::new();
    for (name, stream, want) in pinned {
        let got = measure(stream, true).events;
        let mut kinds: Vec<&str> = got.keys().map(String::as_str).collect();
        kinds.extend(want.iter().map(|&(kind, _)| kind));
        kinds.sort_unstable();
        kinds.dedup();
        for kind in kinds {
            let have = got.get(kind).copied().unwrap_or(0);
            let pin = want.iter().find(|w| w.0 == kind).map_or(0, |w| w.1);
            if have != pin {
                diffs.push(format!(
                    "{name}: {have} `{kind}` events, pinned {pin} ({:.3} vs {:.3} a request)",
                    have as f64 / WINDOW as f64,
                    pin as f64 / WINDOW as f64
                ));
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "events over {WINDOW} retired requests changed:\n{}",
        diffs.join("\n")
    );
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(3));
    ARMED.with(|a| a.set(false));
    drop(v);
    assert_eq!(ALLOCS.with(Cell::get), 1);
}
