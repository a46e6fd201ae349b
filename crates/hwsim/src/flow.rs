//! Bandwidth-shared data flows.
//!
//! Memory traffic on the simulated SoC — DMA transfers, CPU streaming
//! loads/stores — contends for the finite bandwidth of each memory node
//! and of the DMA engine. This module models each ongoing transfer as a
//! *flow* over a set of *resources*; concurrently active flows share each
//! resource equally, and a flow progresses at the minimum of its own
//! demand and its fair share on every resource it touches (an
//! equal-share approximation of max-min fairness, adequate at the small
//! flow counts the experiments generate).
//!
//! [`FlowNet`] is the pure fluid model; [`FlowSystem`] couples it to the
//! DES, rescheduling the single completion timer whenever the contention
//! picture changes. A flow's resources are a [`Route`] held inline, and
//! the network keeps its per-resource rate scratch, so starting,
//! finishing and re-rating flows allocates nothing once warm.

use crate::hash::IdMap;
use crate::sim::{EventId, EventWorld, Sim};
use crate::time::{SimDuration, SimTime};

/// Handle to a bandwidth resource (a memory node's bus, the DMA engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(usize);

impl ResourceId {
    /// The resource's stable index within its network (used by event
    /// logs and diagnostics).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

/// Handle to an active flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(u64);

/// Most resources one flow crosses. A DMA route is the longest: a
/// transfer-controller pipe, the source bus, and the destination bus or
/// its write pipe.
pub const MAX_HOPS: usize = 3;

/// The resources a flow crosses, held inline (at most [`MAX_HOPS`]).
/// Dereferences to a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    hops: [ResourceId; MAX_HOPS],
    len: u8,
}

impl Route {
    /// A route of one resource.
    #[must_use]
    pub fn new(first: ResourceId) -> Self {
        Route {
            hops: [first; MAX_HOPS],
            len: 1,
        }
    }

    /// Appends a hop.
    ///
    /// # Panics
    ///
    /// Panics if the route already has [`MAX_HOPS`] hops.
    pub fn push(&mut self, r: ResourceId) {
        let at = usize::from(self.len);
        assert!(at < MAX_HOPS, "a route has at most {MAX_HOPS} hops");
        self.hops[at] = r;
        self.len += 1;
    }
}

impl std::ops::Deref for Route {
    type Target = [ResourceId];

    fn deref(&self) -> &[ResourceId] {
        &self.hops[..usize::from(self.len)]
    }
}

/// Bytes below which a flow counts as finished (absorbs the ±1 ns
/// rounding of completion times).
const EPSILON_BYTES: f64 = 0.5;

#[derive(Debug)]
struct Resource {
    name: String,
    capacity_gbps: f64,
}

#[derive(Debug)]
struct Flow {
    id: u64,
    resources: Route,
    remaining_bytes: f64,
    /// Current progress rate in bytes/ns (== GB/s numerically).
    rate: f64,
    demand_gbps: f64,
}

/// The pure fluid-flow bandwidth model (no event coupling).
///
/// # Examples
///
/// ```
/// use memif_hwsim::{FlowNet, Route, SimTime};
///
/// let mut net = FlowNet::new();
/// let bus = net.add_resource("ddr", 2.0); // 2 GB/s
/// net.start(SimTime::ZERO, Route::new(bus), 2_000, 100.0);
/// net.start(SimTime::ZERO, Route::new(bus), 2_000, 100.0);
/// // Two equal flows share the bus: each finishes after 2000 ns.
/// assert_eq!(net.next_completion(SimTime::ZERO), Some(SimTime::from_ns(2_000)));
/// ```
#[derive(Debug, Default)]
pub struct FlowNet {
    resources: Vec<Resource>,
    /// Active flows in creation order (ascending id): every pass over
    /// them — progress, re-rating, finishing — runs in that order.
    flows: Vec<Flow>,
    next_flow: u64,
    last_advance: SimTime,
    /// Total bytes ever delivered, per resource (utilization accounting).
    delivered: Vec<f64>,
    /// Active flows per resource, rebuilt by every re-rating.
    sharing: Vec<usize>,
}

impl FlowNet {
    /// An empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a resource with `capacity_gbps` gigabytes per second.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not strictly positive.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity_gbps: f64) -> ResourceId {
        assert!(capacity_gbps > 0.0, "resource capacity must be positive");
        self.resources.push(Resource {
            name: name.into(),
            capacity_gbps,
        });
        self.delivered.push(0.0);
        ResourceId(self.resources.len() - 1)
    }

    /// Resource name (diagnostics).
    #[must_use]
    pub fn resource_name(&self, r: ResourceId) -> &str {
        &self.resources[r.0].name
    }

    /// Current capacity of resource `r` in GB/s.
    #[must_use]
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.resources[r.0].capacity_gbps
    }

    /// Changes the capacity of resource `r` at instant `now` (a bandwidth
    /// brownout or its recovery). Flow progress is brought up to `now`
    /// under the old capacity first; every sharing flow then proceeds at
    /// its new rate.
    ///
    /// # Panics
    ///
    /// Panics if the new capacity is not strictly positive.
    pub fn set_capacity(&mut self, now: SimTime, r: ResourceId, capacity_gbps: f64) {
        assert!(capacity_gbps > 0.0, "resource capacity must be positive");
        self.advance(now);
        self.resources[r.0].capacity_gbps = capacity_gbps;
        self.recompute_rates();
    }

    /// Starts a flow of `bytes` over `resources`, self-capped at
    /// `demand_gbps`. Progress of all flows is brought up to `now` first.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive demand or a resource id from another
    /// network.
    pub fn start(
        &mut self,
        now: SimTime,
        resources: Route,
        bytes: u64,
        demand_gbps: f64,
    ) -> FlowId {
        assert!(demand_gbps > 0.0, "flow demand must be positive");
        for r in resources.iter() {
            assert!(r.0 < self.resources.len(), "unknown resource");
        }
        self.advance(now);
        let id = self.next_flow;
        self.next_flow += 1;
        self.flows.push(Flow {
            id,
            resources,
            remaining_bytes: bytes as f64,
            rate: 0.0,
            demand_gbps,
        });
        self.recompute_rates();
        FlowId(id)
    }

    /// Removes a flow before completion (e.g. an aborted DMA transfer).
    /// Returns the bytes that had not yet been moved, or `None` if the
    /// flow no longer exists.
    pub fn cancel(&mut self, now: SimTime, id: FlowId) -> Option<u64> {
        self.advance(now);
        let at = self.flows.binary_search_by_key(&id.0, |f| f.id).ok()?;
        let flow = self.flows.remove(at);
        self.recompute_rates();
        Some(flow.remaining_bytes.max(0.0).round() as u64)
    }

    /// Number of active flows.
    #[must_use]
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Drops every active flow without crediting further progress
    /// (simulated crash: in-flight data vanishes). Resources, their
    /// capacities, and delivered-byte accounting survive.
    pub fn drop_all_flows(&mut self, now: SimTime) {
        self.advance(now);
        self.flows.clear();
    }

    /// Advances all flows to `now`, removes the finished ones, and
    /// returns their ids in creation order.
    pub fn take_finished(&mut self, now: SimTime) -> Vec<FlowId> {
        let mut finished = Vec::new();
        self.take_finished_into(now, &mut finished);
        finished
    }

    /// [`take_finished`](Self::take_finished) appending into a
    /// caller-owned buffer, so a hot loop reuses one allocation.
    pub fn take_finished_into(&mut self, now: SimTime, finished: &mut Vec<FlowId>) {
        self.advance(now);
        let from = finished.len();
        finished.extend(
            self.flows
                .iter()
                .filter(|f| f.remaining_bytes <= EPSILON_BYTES)
                .map(|f| FlowId(f.id)),
        );
        if finished.len() > from {
            self.flows.retain(|f| f.remaining_bytes > EPSILON_BYTES);
            self.recompute_rates();
        }
    }

    /// The earliest instant at which some flow completes, if any flow is
    /// active.
    #[must_use]
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        self.flows
            .iter()
            .map(|f| {
                if f.remaining_bytes <= EPSILON_BYTES {
                    0
                } else {
                    // rate > 0: every flow has positive demand and every
                    // resource positive capacity.
                    (f.remaining_bytes / f.rate).ceil() as u64
                }
            })
            .min()
            .map(|eta| now + SimDuration::from_ns(eta))
    }

    /// Total bytes delivered through resource `r` so far.
    #[must_use]
    pub fn delivered_bytes(&self, r: ResourceId) -> f64 {
        self.delivered[r.0]
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.last_advance).as_ns() as f64;
        self.last_advance = self.last_advance.max(now);
        if dt <= 0.0 {
            return;
        }
        for flow in &mut self.flows {
            let moved = (flow.rate * dt).min(flow.remaining_bytes);
            flow.remaining_bytes -= moved;
            for r in flow.resources.iter() {
                self.delivered[r.0] += moved;
            }
        }
    }

    fn recompute_rates(&mut self) {
        let sharing = &mut self.sharing;
        sharing.clear();
        sharing.resize(self.resources.len(), 0);
        for flow in &self.flows {
            for r in flow.resources.iter() {
                sharing[r.0] += 1;
            }
        }
        for flow in &mut self.flows {
            let share = flow
                .resources
                .iter()
                .map(|r| self.resources[r.0].capacity_gbps / sharing[r.0] as f64)
                .fold(f64::INFINITY, f64::min);
            flow.rate = share.min(flow.demand_gbps);
        }
    }
}

/// [`FlowNet`] wired into the DES: every flow carries a typed completion
/// payload, and the single pending timer is rescheduled whenever flows
/// start, finish, or are cancelled.
///
/// `W` is the experiment's world type. The system stores a plain function
/// pointer that constructs the world's "flow tick" event, so its timer
/// can be scheduled without capturing code; the world's dispatcher routes
/// that tick back into [`FlowSystem::on_tick`], which hands each finished
/// flow's payload to [`EventWorld::dispatch`] *synchronously and in flow
/// creation order* (so same-instant completions interleave exactly like
/// direct calls would, and a logging dispatcher still sees them all).
pub struct FlowSystem<W: EventWorld> {
    net: FlowNet,
    payloads: IdMap<u64, W::Event>,
    timer: Option<EventId>,
    tick: fn() -> W::Event,
    /// Reused by every tick: the flows that finished, then their payloads.
    finished: Vec<FlowId>,
    ready: Vec<W::Event>,
}

impl<W: EventWorld> std::fmt::Debug for FlowSystem<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowSystem")
            .field("active", &self.net.active())
            .field("armed", &self.timer.is_some())
            .finish()
    }
}

impl<W: EventWorld> FlowSystem<W> {
    /// Creates a flow system. `tick` constructs the world event that the
    /// world's dispatcher must route to [`FlowSystem::on_tick`].
    pub fn new(tick: fn() -> W::Event) -> Self {
        FlowSystem {
            net: FlowNet::new(),
            payloads: IdMap::default(),
            timer: None,
            tick,
            finished: Vec::new(),
            ready: Vec::new(),
        }
    }

    /// Registers a bandwidth resource.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not strictly positive.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity_gbps: f64) -> ResourceId {
        self.net.add_resource(name, capacity_gbps)
    }

    /// Read access to the underlying fluid model.
    #[must_use]
    pub fn net(&self) -> &FlowNet {
        &self.net
    }

    /// Starts a flow whose completion dispatches `on_complete`.
    ///
    /// # Panics
    ///
    /// Propagates the panics of [`FlowNet::start`].
    pub fn start_flow(
        &mut self,
        sim: &mut Sim<W>,
        resources: Route,
        bytes: u64,
        demand_gbps: f64,
        on_complete: W::Event,
    ) -> FlowId {
        let id = self.net.start(sim.now(), resources, bytes, demand_gbps);
        self.payloads.insert(id.0, on_complete);
        self.rearm(sim);
        id
    }

    /// Changes a resource's capacity mid-simulation and reschedules the
    /// completion timer: active flows slow down (brownout) or speed up
    /// (recovery) from `sim.now()` onwards.
    ///
    /// # Panics
    ///
    /// Propagates the panics of [`FlowNet::set_capacity`].
    pub fn set_capacity(&mut self, sim: &mut Sim<W>, r: ResourceId, capacity_gbps: f64) {
        self.net.set_capacity(sim.now(), r, capacity_gbps);
        self.rearm(sim);
    }

    /// Cancels a flow; its completion payload is dropped undispatched.
    /// Returns the unmoved bytes, or `None` if the flow had already
    /// completed.
    pub fn cancel_flow(&mut self, sim: &mut Sim<W>, id: FlowId) -> Option<u64> {
        let left = self.net.cancel(sim.now(), id)?;
        self.payloads.remove(&id.0);
        self.rearm(sim);
        Some(left)
    }

    /// Drops all volatile flow state after a simulated crash: every
    /// active flow and its pending completion payload vanish and the
    /// completion timer is disarmed. Resources and capacities survive.
    pub fn reset_volatile(&mut self, sim: &mut Sim<W>) {
        self.net.drop_all_flows(sim.now());
        self.payloads.clear();
        if let Some(t) = self.timer.take() {
            sim.cancel(t);
        }
    }

    fn rearm(&mut self, sim: &mut Sim<W>) {
        if let Some(t) = self.timer.take() {
            sim.cancel(t);
        }
        if let Some(at) = self.net.next_completion(sim.now()) {
            self.timer = Some(sim.schedule_at(at, (self.tick)()));
        }
    }

    /// Handles the flow-tick event: collects flows that have finished by
    /// `sim.now()`, rearms the timer, and dispatches each finished flow's
    /// payload in creation order. The world's dispatcher must call this
    /// for the event produced by its `tick` constructor.
    pub fn on_tick(world: &mut W, sim: &mut Sim<W>, accessor: fn(&mut W) -> &mut FlowSystem<W>) {
        let this = accessor(world);
        this.timer = None;
        this.finished.clear();
        this.net.take_finished_into(sim.now(), &mut this.finished);
        let mut ready = std::mem::take(&mut this.ready);
        ready.extend(
            this.finished
                .iter()
                .filter_map(|id| this.payloads.remove(&id.0)),
        );
        this.rearm(sim);
        // Borrow of `this` ends here; payloads are dispatched against the
        // full world.
        for ev in ready.drain(..) {
            world.dispatch(sim, ev);
        }
        accessor(world).ready = ready;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_flow_runs_at_demand() {
        let mut net = FlowNet::new();
        let ddr = net.add_resource("ddr", 2.0);
        let t0 = SimTime::ZERO;
        net.start(t0, Route::new(ddr), 2_000, 100.0); // capped by resource
        let eta = net.next_completion(t0).unwrap();
        assert_eq!(eta.as_ns(), 1_000);
        let done = net.take_finished(eta);
        assert_eq!(done.len(), 1);
        assert!((net.delivered_bytes(ddr) - 2_000.0).abs() < 1.0);
    }

    #[test]
    fn demand_caps_below_capacity() {
        let mut net = FlowNet::new();
        let ddr = net.add_resource("ddr", 6.2);
        net.start(SimTime::ZERO, Route::new(ddr), 1_000, 1.0); // 1 GB/s demand
        let eta = net.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(eta.as_ns(), 1_000);
    }

    #[test]
    fn two_flows_share_equally() {
        let mut net = FlowNet::new();
        let ddr = net.add_resource("ddr", 4.0);
        net.start(SimTime::ZERO, Route::new(ddr), 4_000, 100.0);
        net.start(SimTime::ZERO, Route::new(ddr), 4_000, 100.0);
        // Each runs at 2 GB/s => 2000 ns.
        let eta = net.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(eta.as_ns(), 2_000);
        assert_eq!(net.take_finished(eta).len(), 2);
    }

    #[test]
    fn departure_speeds_up_survivor() {
        let mut net = FlowNet::new();
        let ddr = net.add_resource("ddr", 4.0);
        net.start(SimTime::ZERO, Route::new(ddr), 2_000, 100.0); // finishes first
        net.start(SimTime::ZERO, Route::new(ddr), 4_000, 100.0);
        let t1 = net.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(t1.as_ns(), 1_000); // 2000 bytes at 2 GB/s
        assert_eq!(net.take_finished(t1).len(), 1);
        // Survivor has 2000 bytes left, now at full 4 GB/s: +500 ns.
        let t2 = net.next_completion(t1).unwrap();
        assert_eq!(t2.as_ns(), 1_500);
    }

    #[test]
    fn multi_resource_flow_is_bottlenecked() {
        let mut net = FlowNet::new();
        let slow = net.add_resource("ddr", 6.0);
        let fast = net.add_resource("sram", 24.0);
        let engine = net.add_resource("edma", 5.0);
        let mut route = Route::new(slow);
        route.push(fast);
        route.push(engine);
        net.start(SimTime::ZERO, route, 5_000, 100.0);
        let eta = net.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(eta.as_ns(), 1_000, "bottlenecked by the 5 GB/s engine");
    }

    #[test]
    fn cancel_returns_unmoved_bytes() {
        let mut net = FlowNet::new();
        let ddr = net.add_resource("ddr", 1.0);
        let id = net.start(SimTime::ZERO, Route::new(ddr), 1_000, 100.0);
        let left = net.cancel(SimTime::from_ns(400), id).unwrap();
        assert_eq!(left, 600);
        assert!(net.next_completion(SimTime::from_ns(400)).is_none());
        assert_eq!(net.cancel(SimTime::from_ns(400), id), None);
    }

    #[test]
    fn capacity_change_rescales_progress() {
        let mut net = FlowNet::new();
        let ddr = net.add_resource("ddr", 2.0);
        assert_eq!(net.capacity(ddr), 2.0);
        net.start(SimTime::ZERO, Route::new(ddr), 4_000, 100.0);
        // Halve the capacity after 1000 ns (2000 bytes done).
        net.set_capacity(SimTime::from_ns(1_000), ddr, 1.0);
        assert_eq!(net.capacity(ddr), 1.0);
        // Remaining 2000 bytes at 1 GB/s: completes at t=3000.
        let eta = net.next_completion(SimTime::from_ns(1_000)).unwrap();
        assert_eq!(eta.as_ns(), 3_000);
    }

    // ---- FlowSystem / DES coupling ----

    struct World {
        flows: FlowSystem<World>,
        completions: Vec<(u64, u64)>, // (flow tag, completion ns)
        chain_resource: Option<ResourceId>,
    }

    enum Ev {
        FlowTick,
        Done(u64),
        DoneThenStart(u64),
        Cancel(FlowId),
        SetCapacity(ResourceId, f64),
    }

    impl EventWorld for World {
        type Event = Ev;
        fn dispatch(&mut self, sim: &mut Sim<Self>, event: Ev) {
            match event {
                Ev::FlowTick => FlowSystem::on_tick(self, sim, |w| &mut w.flows),
                Ev::Done(tag) => self.completions.push((tag, sim.now().as_ns())),
                Ev::DoneThenStart(tag) => {
                    self.completions.push((tag, sim.now().as_ns()));
                    let ddr = self.chain_resource.expect("chain resource set");
                    self.flows
                        .start_flow(sim, Route::new(ddr), 500, 100.0, Ev::Done(tag + 1));
                }
                Ev::Cancel(id) => {
                    let left = self.flows.cancel_flow(sim, id);
                    assert_eq!(left, Some(900));
                }
                Ev::SetCapacity(r, gbps) => self.flows.set_capacity(sim, r, gbps),
            }
        }
    }

    fn world() -> World {
        World {
            flows: FlowSystem::new(|| Ev::FlowTick),
            completions: Vec::new(),
            chain_resource: None,
        }
    }

    #[test]
    fn system_fires_completions_through_des() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = world();
        let ddr = w.flows.add_resource("ddr", 2.0);
        w.flows
            .start_flow(&mut sim, Route::new(ddr), 2_000, 100.0, Ev::Done(1));
        w.flows
            .start_flow(&mut sim, Route::new(ddr), 4_000, 100.0, Ev::Done(2));
        sim.run(&mut w);
        // Flow 1: shares 1 GB/s until t=2000 (2000 bytes done).
        // Flow 2: 2000 bytes left at t=2000, then 2 GB/s => t=3000.
        assert_eq!(w.completions, vec![(1, 2_000), (2, 3_000)]);
    }

    #[test]
    fn system_cancel_drops_payload() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = world();
        let ddr = w.flows.add_resource("ddr", 1.0);
        let id = w
            .flows
            .start_flow(&mut sim, Route::new(ddr), 1_000, 100.0, Ev::Done(9));
        sim.schedule_at(SimTime::from_ns(100), Ev::Cancel(id));
        sim.run(&mut w);
        assert!(w.completions.is_empty());
    }

    #[test]
    fn system_capacity_change_reschedules_timer() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = world();
        let ddr = w.flows.add_resource("ddr", 2.0);
        w.flows
            .start_flow(&mut sim, Route::new(ddr), 4_000, 100.0, Ev::Done(1));
        // Brownout at t=1000 (half speed), recovery at t=2000.
        sim.schedule_at(SimTime::from_ns(1_000), Ev::SetCapacity(ddr, 1.0));
        sim.schedule_at(SimTime::from_ns(2_000), Ev::SetCapacity(ddr, 2.0));
        sim.run(&mut w);
        // 2000 bytes by t=1000, 1000 more by t=2000, last 1000 at 2 GB/s.
        assert_eq!(w.completions, vec![(1, 2_500)]);
    }

    #[test]
    fn completion_payload_can_start_flows() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = world();
        let ddr = w.flows.add_resource("ddr", 1.0);
        w.chain_resource = Some(ddr);
        w.flows
            .start_flow(&mut sim, Route::new(ddr), 500, 100.0, Ev::DoneThenStart(1));
        sim.run(&mut w);
        assert_eq!(w.completions, vec![(1, 500), (2, 1_000)]);
    }
}
