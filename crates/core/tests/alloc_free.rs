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
//! append-only ledgers that keep one entry per request by design: the
//! completion log [`memif::MemifDevice::log`], the journal's record list
//! and its request-id index (journaled stream only), and each QoS
//! tenant's latency samples (QoS stream only). Every reallocation is
//! recorded by its old and new byte size, and each ledger's doublings
//! are derived from its own capacity (or, for the journal's private
//! lists, its exact length) before and after the window. The recorded
//! reallocations must be exactly those doublings: one more anywhere, or
//! one ledger growing by other than doubling, fails the gate.
//!
//! Pages are never written: simulated memory contents are themselves
//! heap-backed (`PhysMem` materializes a frame on first write), and the
//! gate is about the driver's bookkeeping, not the simulated bytes.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::{Cell, RefCell};
use std::mem::size_of;
use std::rc::Rc;
use std::thread::LocalKey;

use memif::{
    DeviceId, HookId, Memif, MemifConfig, MoveSpec, NodeId, PageSize, Sim, SimEvent, System,
    TenantConfig, TenantId, VirtAddr,
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
    /// Ledger lengths when the counter was armed and disarmed.
    marks: Vec<Ledgers>,
}

/// Sizes of the ledgers that grow by one entry per request.
#[derive(Clone, Copy)]
struct Ledgers {
    /// Capacity of the device's completion log.
    log: usize,
    /// Length of the journal's record list.
    journal: usize,
    /// Length of the device's table in the journal's request-id index:
    /// one slot per request id up to the largest journaled one.
    index: usize,
    /// Capacities of the first two tenants' latency samples.
    samples: [usize; 2],
}

/// A ledger's name, its element size, and its sizes at arm and disarm.
type Growth = (&'static str, usize, usize, usize);

impl Ledgers {
    fn of(sys: &System, l: &Loop) -> Self {
        let id = l.memif.device();
        let device = sys.device(id).expect("device open");
        let samples = |i: usize| {
            l.tenants
                .get(i)
                .and_then(|&t| sys.qos.stats(t))
                .map_or(0, |s| s.latency_samples_ns.capacity())
        };
        let records = sys.journal().records();
        Ledgers {
            log: device.log.capacity(),
            journal: records.len(),
            index: records
                .iter()
                .filter(|r| r.device == id)
                .map(|r| r.req.id as usize + 1)
                .max()
                .unwrap_or(0),
            samples: [samples(0), samples(1)],
        }
    }

    /// The reallocations each ledger made growing from `self` to `to`,
    /// as `(ledger, old bytes, new bytes)`.
    fn doublings_until(&self, to: &Ledgers, sys: &System, device: DeviceId) -> Vec<Grown> {
        let log = elem_size(&sys.device(device).expect("device open").log);
        let record = elem_size(sys.journal().records());
        let sample = size_of::<u64>();
        let ledgers: [Growth; 5] = [
            ("completion log", log, self.log, to.log),
            ("journal records", record, self.journal, to.journal),
            // The index is a `Vec<u32>` per device.
            ("journal index", size_of::<u32>(), self.index, to.index),
            ("tenant 0 samples", sample, self.samples[0], to.samples[0]),
            ("tenant 1 samples", sample, self.samples[1], to.samples[1]),
        ];
        let mut grown = Vec::new();
        for (name, size, from, until) in ledgers {
            // Capacities run 4, 8, 16, ...: a ledger doubles at every
            // power of two in `[from, until)`, whether those bound its
            // capacity or (for pushes from empty) its length.
            let mut cap = from.next_power_of_two().max(4);
            while cap < until {
                grown.push((name, cap * size, 2 * cap * size));
                cap *= 2;
            }
        }
        grown
    }
}

/// One expected doubling: `(ledger, old bytes, new bytes)`.
type Grown = (&'static str, usize, usize);

fn elem_size<T>(_: &[T]) -> usize {
    size_of::<T>()
}

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
            if self.completed == WARM {
                self.marks.push(Ledgers::of(sys, self));
                ARMED.with(|a| a.set(true));
            }
            if self.completed == WARM + WINDOW {
                ARMED.with(|a| a.set(false));
                self.marks.push(Ledgers::of(sys, self));
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
    /// Reallocations that are no ledger's doubling, as `(old bytes,
    /// new bytes)`.
    unexplained: Vec<(usize, usize)>,
    /// Reallocations made in all.
    grows: u64,
    /// Ledger doublings that did not happen as one reallocation each.
    missing: Vec<Grown>,
    /// Parked requests re-admitted over the whole run.
    readmitted: u64,
}

/// Runs `stream` through `WARM` requests, counts the allocations of the
/// next `WINDOW` (the window stays full throughout), then drains it.
fn measure(stream: Stream) -> Measured {
    let mut sys = System::with_profile(stream.topo, CostModel::keystone_ii());
    let mut sim = Sim::new();
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
        budget: WARM + WINDOW + stream.window as u64,
        outstanding: 0,
        completed: 0,
        marks: Vec::new(),
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
    let [before, after] = l.marks[..] else {
        panic!("the counter was armed and disarmed once");
    };
    let grows = GROWS.with(Cell::get);
    let mut unexplained: Vec<(usize, usize)> =
        GROWN.with(|g| g.borrow()[..(grows as usize).min(MAX_GROWS)].to_vec());
    let mut missing = Vec::new();
    for grown in before.doublings_until(&after, &sys, l.memif.device()) {
        match unexplained.iter().position(|&g| g == (grown.1, grown.2)) {
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
        readmitted: sys
            .device(l.memif.device())
            .expect("device open")
            .stats
            .requests_readmitted,
    }
}

fn assert_allocation_free(name: &str, stream: Stream) -> Measured {
    let m = measure(stream);
    assert!(
        m.grows <= MAX_GROWS as u64,
        "{name}: {} reallocations",
        m.grows
    );
    assert!(
        m.allocs == 0 && m.unexplained.is_empty() && m.missing.is_empty(),
        "{name}, over {WINDOW} steady-state requests: {} allocations; {} reallocations, of which \
         these (old, new bytes) are no ledger's doubling: {:?}; ledger doublings not seen: {:?}",
        m.allocs,
        m.grows,
        m.unexplained,
        m.missing,
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
    }
}

#[test]
fn solo_4k_migration_allocates_nothing() {
    assert_allocation_free("solo", migrate4k(MemifConfig::default(), 1, 8));
}

#[test]
fn batched_coalesced_migration_allocates_nothing() {
    let config = MemifConfig {
        batch_max: 8,
        coalesce: true,
        ..MemifConfig::default()
    };
    assert_allocation_free("batched", migrate4k(config, 16, 8));
}

#[test]
fn sharded_issue_allocates_nothing() {
    let config = MemifConfig {
        issue_shards: 4,
        ..MemifConfig::default()
    };
    assert_allocation_free("4 shards", migrate4k(config, 1, 16));
}

#[test]
fn qos_roster_allocates_nothing() {
    // Two tenants share the device, two slots each; the second is capped
    // at one request in flight, so its second request parks at submit,
    // is re-admitted when the first retires, and its parked queue
    // empties and refills every round.
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
    let m = assert_allocation_free("qos", stream);
    assert!(m.readmitted > WINDOW / 4, "the capped tenant parks");
}

#[test]
fn journaled_nvm_migration_allocates_nothing() {
    let config = MemifConfig {
        journal: true,
        batch_max: 16,
        coalesce: true,
        ..MemifConfig::default()
    };
    let mut stream = migrate4k(config, 16, 16);
    stream.topo = Topology::ranked(3);
    stream.shape = Shape::Migrate(NodeId(0), NodeId(2));
    assert_allocation_free("journaled", stream);
}

#[test]
fn replication_64k_allocates_nothing() {
    let stream = Stream {
        topo: Topology::keystone_ii(),
        config: MemifConfig::default(),
        shape: Shape::Replicate,
        pages: 4,
        page_size: PageSize::Medium64K,
        window: 4,
        tenants: vec![(TenantId::ROOT, TenantConfig::default())],
    };
    assert_allocation_free("replication", stream);
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
