//! The mini streaming runtime (§6.6).
//!
//! "The runtime is based on a simple idea: using the fast memory as an
//! array of prefetch buffers and managing outstanding moves just like
//! asynchronous I/O requests." On start it fills every buffer with
//! memif replications from slow memory; whenever a buffer is ready the
//! compute kernel consumes it from fast memory; the moment a buffer is
//! consumed, a refill is submitted. If every prefetched chunk is spent
//! while moves are still in flight, compute falls back to consuming
//! input directly from slow memory — exactly the policy of the paper.
//!
//! The baseline mode (`Placement::SlowOnly`) runs the same kernel with
//! all data resident in slow memory and no memif involvement — the
//! "Linux" rows of Table 4.

use std::cell::RefCell;
use std::rc::Rc;

use memif::{Memif, MoveSpec, Sim, SimDuration, SimEvent, SimTime, SpaceId, System};
use memif_hwsim::{Context, MemoryKind, ResourceId, Route};
use memif_mm::{PageSize, VirtAddr};

use crate::kernel::KernelProfile;

/// Where the working data lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Everything in slow memory; no moves (the Linux baseline rows).
    SlowOnly,
    /// memif prefetch buffers in fast memory.
    MemifPrefetch,
}

/// Streaming-run configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Data placement strategy.
    pub placement: Placement,
    /// Pages per prefetch buffer.
    pub buffer_pages: u32,
    /// Page granularity (the paper's platform allows only 4 KiB).
    pub page_size: PageSize,
    /// Number of prefetch buffers in the array.
    pub num_buffers: usize,
    /// Total input bytes to stream through.
    pub total_input: u64,
    /// Compute cores (profiles are calibrated at 4).
    pub cores: u32,
    /// Overlap depth K: each prefetch buffer is split into K
    /// independently filled sub-units, so up to `num_buffers × K`
    /// refills are in flight at once and a unit becomes consumable
    /// after only 1/K of the buffer's bytes have arrived. Depth 1 is
    /// the classic one-fill-per-buffer mode of §6.6.
    pub overlap_depth: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            placement: Placement::MemifPrefetch,
            buffer_pages: 64, // 256 KiB buffers
            page_size: PageSize::Small4K,
            num_buffers: 8,
            total_input: 64 << 20,
            cores: 4,
            overlap_depth: 1,
        }
    }
}

impl StreamConfig {
    /// Bytes per buffer/chunk.
    #[must_use]
    pub fn chunk_bytes(&self) -> u64 {
        u64::from(self.buffer_pages) * self.page_size.bytes()
    }

    /// Bytes per fill unit (`chunk_bytes / overlap_depth`).
    #[must_use]
    pub fn unit_bytes(&self) -> u64 {
        self.chunk_bytes() / self.overlap_depth.max(1) as u64
    }
}

/// Result of a streaming run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamReport {
    /// Input bytes consumed.
    pub input_bytes: u64,
    /// Total memory traffic generated (the STREAM-style figure).
    pub traffic_bytes: u64,
    /// Wall time.
    pub elapsed: SimDuration,
    /// Input consumption rate, GB/s.
    pub input_gbps: f64,
    /// Traffic rate, GB/s — the MB/s numbers of Table 4 (×1000).
    pub traffic_gbps: f64,
    /// Input consumed from slow memory because no buffer was ready.
    pub fallback_bytes: u64,
    /// Fill requests submitted.
    pub fills: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BufferState {
    Idle,
    Filling,
    Ready,
    /// The fill is still in flight but compute already consumed this
    /// chunk straight from its slow-memory source (the §6.6 fallback);
    /// the arriving data is discarded and the buffer refilled with
    /// fresh input.
    Stale,
}

struct Inner {
    config: StreamConfig,
    kernel: KernelProfile,
    memif: Option<Memif>,
    fast_res: ResourceId,
    slow_res: ResourceId,
    /// Prefetch fill units in fast memory (`num_buffers × overlap_depth`
    /// entries; at depth 1 a unit is a whole buffer).
    buffers: Vec<(VirtAddr, BufferState)>,
    /// Source windows in slow memory (one per fill unit).
    windows: Vec<VirtAddr>,
    /// Terminal completions in retirement order (req id, status string),
    /// recorded for trace emission.
    completions: Vec<(u64, String)>,
    /// Input bytes handed to fills so far.
    dispatched: u64,
    /// Input bytes fully consumed by compute.
    consumed: u64,
    traffic: u64,
    fallback: u64,
    fills: u64,
    compute_busy: bool,
    poll_armed: bool,
    started_at: SimTime,
    finished_at: Option<SimTime>,
}

/// Handle to a launched streaming run.
pub struct StreamRuntime {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for StreamRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("StreamRuntime")
            .field("kernel", &inner.kernel.name)
            .field("consumed", &inner.consumed)
            .field("finished", &inner.finished_at.is_some())
            .finish()
    }
}

impl StreamRuntime {
    /// Launches a streaming run. In [`Placement::MemifPrefetch`] mode a
    /// memif instance must be supplied; buffers are allocated in the
    /// fast node and refilled with asynchronous replications.
    ///
    /// Drive the simulation to completion, then call
    /// [`StreamRuntime::report`].
    ///
    /// # Panics
    ///
    /// Panics if the topology lacks a fast or slow node, if allocation
    /// of buffers fails, or if `MemifPrefetch` mode lacks a memif
    /// handle.
    pub fn launch(
        sys: &mut System,
        sim: &mut Sim<System>,
        space: SpaceId,
        memif: Option<Memif>,
        config: StreamConfig,
        kernel: KernelProfile,
    ) -> StreamRuntime {
        let fast_node = sys
            .topo
            .node_of_kind(MemoryKind::Fast)
            .expect("fast node")
            .id;
        let slow_node = sys
            .topo
            .node_of_kind(MemoryKind::Slow)
            .expect("slow node")
            .id;
        let fast_res = sys.resources.node(fast_node);
        let slow_res = sys.resources.node(slow_node);

        let prefetch = config.placement == Placement::MemifPrefetch;
        assert!(
            !prefetch || memif.is_some(),
            "MemifPrefetch mode needs a memif instance"
        );
        let depth = config.overlap_depth;
        assert!(depth >= 1, "overlap depth must be at least 1");
        assert!(
            (config.buffer_pages as usize).is_multiple_of(depth),
            "overlap depth {depth} must divide buffer_pages {}",
            config.buffer_pages
        );

        let mut buffers = Vec::new();
        let mut windows = Vec::new();
        if prefetch {
            let unit_bytes = config.unit_bytes();
            for _ in 0..config.num_buffers {
                let buf = sys
                    .mmap(space, config.buffer_pages, config.page_size, fast_node)
                    .expect("fast memory holds the buffer array");
                let win = sys
                    .mmap(space, config.buffer_pages, config.page_size, slow_node)
                    .expect("slow memory holds the stream window");
                for sub in 0..depth as u64 {
                    buffers.push((buf.offset(sub * unit_bytes), BufferState::Idle));
                    windows.push(win.offset(sub * unit_bytes));
                }
            }
        }

        let inner = Rc::new(RefCell::new(Inner {
            config,
            kernel,
            memif,
            fast_res,
            slow_res,
            buffers,
            windows,
            completions: Vec::new(),
            dispatched: 0,
            consumed: 0,
            traffic: 0,
            fallback: 0,
            fills: 0,
            compute_busy: false,
            poll_armed: false,
            started_at: sim.now(),
            finished_at: None,
        }));

        let rt = StreamRuntime {
            inner: Rc::clone(&inner),
        };
        if prefetch {
            // "As soon as one application starts, the runtime fills all
            // buffers by replicating data from the slow memory
            // asynchronously." At depth K every sub-unit gets its own
            // fill, so K refills per buffer are in flight from the start.
            let n = inner.borrow().buffers.len();
            for i in 0..n {
                Self::submit_fill(&inner, sys, sim, i);
            }
            Self::arm_poll(&inner, sys, sim);
        }
        Self::schedule_compute(&inner, sys, sim);
        rt
    }

    /// The run's results.
    ///
    /// # Panics
    ///
    /// Panics if the run has not finished (drive the sim first).
    #[must_use]
    pub fn report(&self) -> StreamReport {
        let inner = self.inner.borrow();
        let finished = inner.finished_at.expect("run finished");
        let elapsed = finished.since(inner.started_at);
        let ns = elapsed.as_ns().max(1) as f64;
        StreamReport {
            input_bytes: inner.consumed,
            traffic_bytes: inner.traffic,
            elapsed,
            input_gbps: inner.consumed as f64 / ns,
            traffic_gbps: inner.traffic as f64 / ns,
            fallback_bytes: inner.fallback,
            fills: inner.fills,
        }
    }

    /// Terminal fill completions in retirement order, as
    /// `(req_id, status)` pairs — the trace's `#=` lines.
    #[must_use]
    pub fn completions(&self) -> Vec<(u64, String)> {
        self.inner.borrow().completions.clone()
    }

    fn remaining_unclaimed(inner: &Inner) -> u64 {
        inner.config.total_input.saturating_sub(inner.dispatched)
    }

    fn submit_fill(
        inner: &Rc<RefCell<Inner>>,
        sys: &mut System,
        sim: &mut Sim<System>,
        idx: usize,
    ) {
        let (memif, spec) = {
            let mut me = inner.borrow_mut();
            let chunk = me.config.unit_bytes().min(Self::remaining_unclaimed(&me));
            if chunk < me.config.page_size.bytes() {
                return; // stream exhausted (partial pages fall back)
            }
            let pages = (chunk / me.config.page_size.bytes()) as u32;
            me.dispatched += u64::from(pages) * me.config.page_size.bytes();
            me.buffers[idx].1 = BufferState::Filling;
            me.fills += 1;
            let spec = MoveSpec::replicate(
                me.windows[idx],
                me.buffers[idx].0,
                pages,
                me.config.page_size,
            )
            .with_user_data(idx as u64);
            (me.memif.expect("prefetch mode"), spec)
        };
        memif.submit(sys, sim, spec).expect("fill submission");
    }

    fn arm_poll(inner: &Rc<RefCell<Inner>>, sys: &mut System, sim: &mut Sim<System>) {
        {
            let mut me = inner.borrow_mut();
            if me.poll_armed || me.finished_at.is_some() {
                return;
            }
            me.poll_armed = true;
        }
        let memif = inner.borrow().memif.expect("prefetch mode");
        let inner2 = Rc::clone(inner);
        memif
            .poll(sys, sim, move |sys, sim| {
                inner2.borrow_mut().poll_armed = false;
                Self::drain_completions(&inner2, sys, sim);
            })
            .expect("device open for the run");
    }

    fn drain_completions(inner: &Rc<RefCell<Inner>>, sys: &mut System, sim: &mut Sim<System>) {
        let memif = inner.borrow().memif.expect("prefetch mode");
        let mut refill = Vec::new();
        while let Some(c) = memif.retrieve_completed(sys).expect("region healthy") {
            assert!(
                c.status.is_ok(),
                "fills never race: buffers are runtime-private"
            );
            let idx = c.user_data as usize;
            let mut me = inner.borrow_mut();
            me.completions
                .push((c.req_id.0, format!("{:?}", c.status.0)));
            if me.buffers[idx].1 == BufferState::Stale {
                // Compute already took this chunk from slow memory; the
                // moved bytes are dead. Reuse the buffer for new input.
                me.buffers[idx].1 = BufferState::Idle;
                refill.push(idx);
            } else {
                me.buffers[idx].1 = BufferState::Ready;
            }
        }
        for idx in refill {
            Self::submit_fill(inner, sys, sim, idx);
        }
        Self::schedule_compute(inner, sys, sim);
        // Keep listening while fills remain outstanding.
        let outstanding = inner
            .borrow()
            .buffers
            .iter()
            .any(|(_, s)| *s == BufferState::Filling);
        if outstanding {
            Self::arm_poll(inner, sys, sim);
        }
    }

    /// Starts the compute engine on the next available work, if idle.
    fn schedule_compute(inner: &Rc<RefCell<Inner>>, sys: &mut System, sim: &mut Sim<System>) {
        enum Work {
            Chunk {
                idx: Option<usize>,
                input: u64,
                from_fast: bool,
            },
            Wait,
            Done,
        }
        let work = {
            let mut me = inner.borrow_mut();
            if me.compute_busy || me.finished_at.is_some() {
                return;
            }
            if me.consumed >= me.config.total_input {
                me.finished_at = Some(sim.now());
                Work::Done
            } else if me.config.placement == Placement::SlowOnly {
                let input = me
                    .config
                    .chunk_bytes()
                    .min(me.config.total_input - me.consumed);
                me.compute_busy = true;
                Work::Chunk {
                    idx: None,
                    input,
                    from_fast: false,
                }
            } else if let Some(idx) = me
                .buffers
                .iter()
                .position(|(_, s)| *s == BufferState::Ready)
            {
                me.buffers[idx].1 = BufferState::Idle;
                let input = me
                    .config
                    .unit_bytes()
                    .min(me.config.total_input - me.consumed);
                me.compute_busy = true;
                Work::Chunk {
                    idx: Some(idx),
                    input,
                    from_fast: true,
                }
            } else if let Some(idx) = me
                .buffers
                .iter()
                .position(|(_, s)| *s == BufferState::Filling)
            {
                // "If all prefetched data are consumed when memory move is
                // still in flight, the runtime invokes compute function to
                // consume data in the slow memory" (§6.6): take the next
                // in-flight chunk straight from its slow source; the fill's
                // bytes will arrive dead and the buffer is refilled. At
                // depth K only one unit's worth of DMA bytes is wasted.
                let input = me
                    .config
                    .unit_bytes()
                    .min(me.config.total_input - me.consumed);
                me.buffers[idx].1 = BufferState::Stale;
                me.fallback += input;
                me.compute_busy = true;
                Work::Chunk {
                    idx: None,
                    input,
                    from_fast: false,
                }
            } else if Self::remaining_unclaimed(&me) > 0 {
                // Nothing prefetched and nothing in flight (start-up or
                // tail): consume directly from slow memory.
                let input = me.config.unit_bytes().min(Self::remaining_unclaimed(&me));
                me.dispatched += input;
                me.fallback += input;
                me.compute_busy = true;
                Work::Chunk {
                    idx: None,
                    input,
                    from_fast: false,
                }
            } else {
                Work::Wait // fills in flight carry the rest of the input
            }
        };

        match work {
            Work::Done | Work::Wait => {}
            Work::Chunk {
                idx,
                input,
                from_fast,
            } => {
                Self::run_chunk(inner, sys, sim, idx, input, from_fast);
            }
        }
    }

    /// One chunk through the kernel: read stream, then write stream,
    /// then the pure-compute tail (additive, as on in-order cores).
    fn run_chunk(
        inner: &Rc<RefCell<Inner>>,
        sys: &mut System,
        sim: &mut Sim<System>,
        buffer: Option<usize>,
        input: u64,
        from_fast: bool,
    ) {
        let (read_bytes, write_bytes, compute_ns, read_res, read_demand, write_demand) = {
            let me = inner.borrow();
            let k = &me.kernel;
            let cores_scale = f64::from(me.config.cores) / 4.0;
            let read_bytes = (input as f64 * k.read_bytes_per_input) as u64;
            let write_bytes = (input as f64 * k.write_bytes_per_input) as u64;
            let compute_ns = (input as f64 * k.compute_ns_per_input / cores_scale).round() as u64;
            let (read_res, read_demand) = if from_fast {
                (
                    me.fast_res,
                    sys.cost.cpu_stream_fast_gbps * k.fast_efficiency,
                )
            } else {
                (me.slow_res, sys.cost.cpu_stream_slow_gbps)
            };
            (
                read_bytes,
                write_bytes,
                compute_ns,
                read_res,
                read_demand,
                sys.cost.cpu_stream_slow_gbps,
            )
        };

        let inner2 = Rc::clone(inner);
        let after_write = move |sys: &mut System, sim: &mut Sim<System>| {
            // Pure-compute tail, then chunk retirement.
            let inner3 = Rc::clone(&inner2);
            sys.meter
                .charge(Context::App, SimDuration::from_ns(compute_ns));
            sim.schedule_after(
                SimDuration::from_ns(compute_ns),
                SimEvent::call(move |sys, sim| {
                    {
                        let mut me = inner3.borrow_mut();
                        me.consumed += input;
                        me.traffic += read_bytes + write_bytes;
                        me.compute_busy = false;
                    }
                    // "Immediately after any buffer is consumed, the runtime
                    // requests to fill the buffer with fresh data again."
                    if let Some(idx) = buffer {
                        if Self::remaining_unclaimed(&inner3.borrow()) > 0 {
                            Self::submit_fill(&inner3, sys, sim, idx);
                            Self::arm_poll(&inner3, sys, sim);
                        }
                    }
                    Self::schedule_compute(&inner3, sys, sim);
                }),
            );
        };

        let slow_res = inner.borrow().slow_res;
        let charge_read = SimDuration::from_ns((read_bytes as f64 / read_demand) as u64);
        sys.meter.charge(Context::App, charge_read);
        let inner_w = Rc::clone(inner);
        let _ = inner_w;
        sys.flows.start_flow(
            sim,
            Route::new(read_res),
            read_bytes.max(1),
            read_demand,
            SimEvent::call(move |sys, sim| {
                if write_bytes > 0 {
                    let charge_write =
                        SimDuration::from_ns((write_bytes as f64 / write_demand) as u64);
                    sys.meter.charge(Context::App, charge_write);
                    sys.flows.start_flow(
                        sim,
                        Route::new(slow_res),
                        write_bytes,
                        write_demand,
                        SimEvent::call(after_write),
                    );
                } else {
                    after_write(sys, sim);
                }
            }),
        );
    }
}
