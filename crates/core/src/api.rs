//! The memif user API (§4.1, Figure 2).
//!
//! The C prototype exposes `MemifOpen`/`AllocRequest`/`SubmitRequest`/
//! `RetrieveCompleted`/`poll`/`MemifClose`. [`Memif`] carries the same
//! surface against the simulated [`System`]. Because the world is a DES,
//! API calls return the [`SimDuration`] of application CPU time they
//! consumed; scripted applications advance their own timeline by that
//! amount (the harnesses in `memif-bench` do exactly this).
//!
//! ```
//! use memif::{Memif, MemifConfig, MoveSpec, System};
//! use memif_hwsim::{NodeId, Sim};
//! use memif_mm::PageSize;
//!
//! let mut sys = System::keystone_ii();
//! let mut sim = Sim::new();
//! let proc0 = sys.new_space();
//! let src = sys.mmap(proc0, 4, PageSize::Small4K, NodeId(0)).unwrap();
//! let dst = sys.mmap(proc0, 4, PageSize::Small4K, NodeId(1)).unwrap();
//!
//! let memif = Memif::open(&mut sys, proc0, MemifConfig::default()).unwrap();
//! let (_id, _cpu) = memif
//!     .submit(&mut sys, &mut sim, MoveSpec::replicate(src, dst, 4, PageSize::Small4K))
//!     .unwrap();
//! sim.run(&mut sys);
//! let done = memif.retrieve_completed(&mut sys).unwrap().expect("one completion");
//! assert!(done.status.is_ok());
//! ```

use memif_hwsim::{Context, Sim, SimDuration};
use memif_lockfree::{Color, MovReq, MoveKind, MoveStatus, QueueId};
use memif_mm::{AccessKind, Fault, PageSize, VirtAddr};

use crate::config::MemifConfig;
use crate::device::DeviceId;
use crate::driver::{self, dev};
use crate::error::MemifError;
use crate::event::SimEvent;
use crate::system::{SpaceId, System};

/// Identifier the application uses to correlate completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

/// A move request as the application states it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveSpec {
    /// Replication or migration.
    pub kind: MoveKind,
    /// Source region base.
    pub src: VirtAddr,
    /// Destination region base (replication only).
    pub dst: VirtAddr,
    /// Pages covered.
    pub pages: u32,
    /// Page granularity (must match the regions' VMAs).
    pub page_size: PageSize,
    /// Destination node (migration only).
    pub dst_node: memif_hwsim::NodeId,
    /// Opaque cookie echoed in the completion.
    pub user_data: u64,
    /// The tenant (address-space owner class) this request bills to.
    /// Defaults to the root tenant; consulted only by QoS-enabled
    /// devices.
    pub tenant: memif_qos::TenantId,
}

impl MoveSpec {
    /// A replication (asynchronous `memcpy`) of `pages` pages.
    #[must_use]
    pub fn replicate(src: VirtAddr, dst: VirtAddr, pages: u32, page_size: PageSize) -> Self {
        MoveSpec {
            kind: MoveKind::Replicate,
            src,
            dst,
            pages,
            page_size,
            dst_node: memif_hwsim::NodeId(0),
            user_data: 0,
            tenant: memif_qos::TenantId::ROOT,
        }
    }

    /// A migration of `pages` pages onto `dst_node`.
    #[must_use]
    pub fn migrate(
        src: VirtAddr,
        pages: u32,
        page_size: PageSize,
        dst_node: memif_hwsim::NodeId,
    ) -> Self {
        MoveSpec {
            kind: MoveKind::Migrate,
            src,
            dst: VirtAddr::new(0),
            pages,
            page_size,
            dst_node,
            user_data: 0,
            tenant: memif_qos::TenantId::ROOT,
        }
    }

    /// Attaches a user cookie.
    #[must_use]
    pub fn with_user_data(mut self, user_data: u64) -> Self {
        self.user_data = user_data;
        self
    }

    /// Bills the request to `tenant` (QoS-enabled devices only; others
    /// carry the tag without consulting it).
    #[must_use]
    pub fn with_tenant(mut self, tenant: memif_qos::TenantId) -> Self {
        self.tenant = tenant;
        self
    }
}

/// A retrieved completion notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request this completes.
    pub req_id: ReqId,
    /// Terminal status.
    pub status: CompletionStatus,
    /// The cookie from the submission.
    pub user_data: u64,
    /// Replication or migration.
    pub kind: MoveKind,
    /// Bytes covered.
    pub bytes: u64,
}

/// Completion status exposed to applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionStatus(pub MoveStatus);

impl CompletionStatus {
    /// True for a successful move.
    #[must_use]
    pub fn is_ok(self) -> bool {
        self.0 == MoveStatus::Done
    }

    /// True when a CPU/DMA race was detected (the SEGFAULT-equivalent of
    /// proceed-and-fail).
    #[must_use]
    pub fn is_race(self) -> bool {
        self.0 == MoveStatus::Raced
    }

    /// True when proceed-and-recover aborted the migration.
    #[must_use]
    pub fn is_aborted(self) -> bool {
        self.0 == MoveStatus::Aborted
    }

    /// True when the DMA path gave up on the request (retries exhausted,
    /// no CPU fallback configured).
    #[must_use]
    pub fn is_failed(self) -> bool {
        matches!(self.0, MoveStatus::Failed(_))
    }
}

/// A handle to an open memif instance (the `memfd` of Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Memif {
    device: DeviceId,
    owner: SpaceId,
}

impl Memif {
    /// `MemifOpen`: creates an instance owned by `owner`.
    ///
    /// # Errors
    ///
    /// Propagates region-construction failures.
    pub fn open(sys: &mut System, owner: SpaceId, config: MemifConfig) -> Result<Self, MemifError> {
        let journaled = config.journal.then(|| config.clone());
        let device = sys.open_device(owner, config)?;
        if let Some(cfg) = journaled {
            // Durable device metadata: recovery re-opens the instance at
            // this id so journal records resolve after a crash.
            sys.journal.record_open(device, owner, &cfg);
        }
        Ok(Memif { device, owner })
    }

    /// `MemifClose`: tears the instance down.
    ///
    /// # Errors
    ///
    /// [`MemifError::Busy`] if the device still has queued or in-flight
    /// work (retrieve completions first), or
    /// [`MemifError::NoSuchDevice`] if already closed.
    pub fn close(self, sys: &mut System) -> Result<(), MemifError> {
        let device = sys.device(self.device).ok_or(MemifError::NoSuchDevice)?;
        if !device.is_idle() {
            return Err(MemifError::Busy);
        }
        sys.close_device(self.device)?;
        Ok(())
    }

    /// The underlying device id.
    #[must_use]
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// `AllocRequest` + populate + `SubmitRequest` (§4.4), as one call.
    ///
    /// Non-blocking: enqueues the request on the staging queue. If the
    /// observed color is **blue**, this thread flushes staging to the
    /// submission queue, recolors to red, and — if it won the recolor —
    /// makes the single `ioctl(MOV_ONE)` kick-start syscall. If the
    /// color is **red**, an active kernel worker will pick the request
    /// up with no syscall at all.
    ///
    /// Returns the request id and the application CPU time consumed
    /// (including any syscall).
    ///
    /// # Errors
    ///
    /// [`MemifError::Exhausted`] when all request slots are in flight,
    /// [`MemifError::NoSuchDevice`] if the instance has been closed.
    /// Semantic errors (bad ranges, unknown nodes) are reported
    /// asynchronously through the completion queue, as in the paper.
    pub fn submit(
        &self,
        sys: &mut System,
        sim: &mut Sim<System>,
        spec: MoveSpec,
    ) -> Result<(ReqId, SimDuration), MemifError> {
        let (id, shard, color) = self.stage(sys, sim, spec)?;
        let mut cpu = sys.cost.queue_op;

        // A halted machine stages into queues the crash already lost:
        // nothing is flushed, kicked or journaled, and the write-ahead
        // contract makes the request the application's to resubmit.
        if sys.crashed {
            return Ok((ReqId(id), cpu));
        }

        if color == Some(Color::Blue) {
            // This thread is the flusher (§4.4 pseudo-code) — for its
            // own shard only; each shard runs the color protocol
            // independently.
            loop {
                // flush: staging -> submission
                while let Some(d) = dev(sys, self.device)
                    .region
                    .dequeue_sharded(QueueId::Staging, shard)?
                {
                    dev(sys, self.device).region.enqueue_sharded(
                        QueueId::Submission,
                        shard,
                        d.slot,
                        &d.req,
                    )?;
                    cpu += sys.cost.queue_op * 2;
                }
                match dev(sys, self.device).region.set_color_sharded(
                    QueueId::Staging,
                    shard,
                    Color::Red,
                ) {
                    Err(_) => continue,      // queue refilled: re-flush
                    Ok(Color::Red) => break, // another thread already kicked
                    Ok(Color::Blue) => {
                        cpu += driver::syscall::mov_one(sys, sim, self.device, shard);
                        break;
                    }
                }
            }
        }
        sys.meter.charge(Context::App, sys.cost.queue_op);
        Ok((ReqId(id), cpu))
    }

    /// Low-priority submission for in-kernel producers (the
    /// `memif-policy` placement daemon): the request is staged on the
    /// shard's **blue** queue and the shard's kernel worker is kicked —
    /// no user/kernel crossing, no flush race with applications. An
    /// already-running worker treats the kick as a no-op and drains the
    /// staging queue on its normal rounds, so background work never
    /// preempts application submissions; at worst it waits for the
    /// worker's next idle round.
    ///
    /// Returns the request id and the (kernel-thread) CPU time consumed.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_background(
        &self,
        sys: &mut System,
        sim: &mut Sim<System>,
        spec: MoveSpec,
    ) -> Result<(ReqId, SimDuration), MemifError> {
        let (id, shard, color) = self.stage(sys, sim, spec)?;
        let cpu = sys.cost.queue_op;
        // A halted machine kicks no worker (see submit).
        if sys.crashed {
            return Ok((ReqId(id), cpu));
        }
        sys.meter.charge(Context::KernelThread, cpu);
        // A parked request has nothing queued yet — no worker to kick.
        if color.is_some() {
            sim.schedule_after(
                cpu,
                SimEvent::KthreadRun {
                    device: self.device,
                    shard,
                },
            );
        }
        Ok((ReqId(id), cpu))
    }

    /// Routes `spec` to its issue shard and stages it (queue color as
    /// observed by the enqueue), or — on a QoS device whose tenant is
    /// over budget — parks it (`None`). A parked request has an id, a
    /// submit time, and counts as submitted, but holds no slot and sits
    /// on no queue; a retire in [`crate::driver::readmit_parked`] stages
    /// it later. Shared by [`submit`](Self::submit) and
    /// [`submit_background`](Self::submit_background).
    fn stage(
        &self,
        sys: &mut System,
        sim: &mut Sim<System>,
        spec: MoveSpec,
    ) -> Result<(u64, usize, Option<Color>), MemifError> {
        let device_ro = sys.device(self.device).ok_or(MemifError::NoSuchDevice)?;
        let shards = device_ro.config.issue_shards.max(1);
        let qos_on = device_ro.config.qos;
        // Region-affinity routing: hash the covering VMA's base (not the
        // request's own address) so every request touching one mapped
        // region lands on the same shard — same-region FIFO and the
        // deferred-hazard guard then compose per shard exactly as in the
        // single-worker driver. Requests outside any VMA (rejected later
        // in planning) fall back to their own base address.
        let shard = if shards == 1 {
            0
        } else {
            let len = u64::from(spec.pages) * spec.page_size.bytes();
            let base = sys
                .space(self.owner)
                .vma_covering(spec.src, len)
                .map_or(spec.src.as_u64(), |v| v.start.as_u64());
            (base.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % shards
        };
        let device = sys
            .device_mut(self.device)
            .ok_or(MemifError::NoSuchDevice)?;
        // Allocate the slot before consulting admission so a pool-
        // exhaustion error propagates without charging the tenant.
        let slot = device.region.alloc_slot()?;
        let admitted = !qos_on || sys.qos.admit(spec.tenant);
        let device = sys
            .device_mut(self.device)
            .ok_or(MemifError::NoSuchDevice)?;
        let id = device.next_req_id;
        device.next_req_id += 1;
        device.stats.submitted += 1;
        device.submit_times.insert(id, sim.now());

        let req = MovReq {
            id,
            kind: spec.kind,
            src_base: spec.src.as_u64(),
            dst_base: spec.dst.as_u64(),
            nr_pages: spec.pages,
            page_shift: spec.page_size.shift(),
            dst_node: spec.dst_node.0,
            status: MoveStatus::Pending,
            user_data: spec.user_data,
            tenant: spec.tenant.0,
        };
        if !admitted {
            // Park: give back the slot (a throttled tenant must not pin
            // shared pool capacity) and hold the built request until a
            // retire frees this tenant's budget. The submit time already
            // recorded means completion latency includes the park wait.
            device.region.free_slot(slot)?;
            device.stats.requests_parked += 1;
            device
                .parked
                .entry(spec.tenant.0)
                .or_insert_with(|| device.spare_parked.pop().unwrap_or_default())
                .push_back(crate::device::ParkedReq { req, shard });
            sys.qos.note_parked(spec.tenant);
            return Ok((id, shard, None));
        }
        let color =
            dev(sys, self.device)
                .region
                .enqueue_sharded(QueueId::Staging, shard, slot, &req)?;
        crate::driver::dev_mut(sys, self.device).note_enqueued(shard, spec.tenant.0);
        Ok((id, shard, Some(color)))
    }

    /// `RetrieveCompleted`: takes one completion notification, failure
    /// queue first, without blocking. The request slot returns to the
    /// free list. On a journaling device this acknowledges the request:
    /// the acknowledgement persists with the next journal write, and
    /// its record is dropped there. A halted (crashed) machine delivers
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`MemifError::NoSuchDevice`] if the instance has been closed;
    /// region-validation failures (not expected in normal operation).
    pub fn retrieve_completed(&self, sys: &mut System) -> Result<Option<Completion>, MemifError> {
        let device = sys.device(self.device).ok_or(MemifError::NoSuchDevice)?;
        if sys.crashed {
            return Ok(None);
        }
        let journaled = device.config.journal;
        let deq = match device.region.dequeue(QueueId::CompletionErr)? {
            Some(d) => Some(d),
            None => device.region.dequeue(QueueId::CompletionOk)?,
        };
        sys.meter.charge(Context::App, sys.cost.queue_op);
        match deq {
            Some(d) => {
                dev(sys, self.device).region.free_slot(d.slot)?;
                if journaled {
                    sys.journal.retrieved(self.device, d.req.id);
                    // Crash opportunity: retrieved, acknowledgement not
                    // yet durable — recovery must report the request again.
                    sys.crash_opportunity(sys.logged_at, "retrieve");
                }
                Ok(Some(Completion {
                    req_id: ReqId(d.req.id),
                    status: CompletionStatus(d.req.status),
                    user_data: d.req.user_data,
                    kind: d.req.kind,
                    bytes: d.req.len_bytes(),
                }))
            }
            None => Ok(None),
        }
    }

    /// `poll()`: runs `waker` as soon as a completion is (or becomes)
    /// available — immediately if one is already queued, otherwise when
    /// the driver posts the next notification. The application sleeps in
    /// between, burning no CPU.
    ///
    /// A closure of any type must be stored on the event queue, so this
    /// form boxes `waker` — one heap allocation per call. A loop that
    /// polls once per request should register its continuation once
    /// with [`System::register_hook`] and re-arm it through
    /// [`poll_event`](Self::poll_event) with a [`SimEvent::Hook`]: that
    /// form allocates nothing.
    ///
    /// # Errors
    ///
    /// [`MemifError::NoSuchDevice`] if the instance has been closed.
    pub fn poll(
        &self,
        sys: &mut System,
        sim: &mut Sim<System>,
        waker: impl FnOnce(&mut System, &mut Sim<System>) + 'static,
    ) -> Result<(), MemifError> {
        self.poll_event(sys, sim, SimEvent::call(waker))
    }

    /// Event-valued `poll()`: schedules `event` when a completion is (or
    /// becomes) available. This is the typed form [`poll`](Self::poll)
    /// wraps; use it directly to keep the event log free of opaque
    /// thunks. It is also the allocation-free form: the device keeps its
    /// sleeping pollers in two buffers it swaps on every notification,
    /// so once warm, arming a typed event never touches the heap.
    ///
    /// # Errors
    ///
    /// [`MemifError::NoSuchDevice`] if the instance has been closed.
    pub fn poll_event(
        &self,
        sys: &mut System,
        sim: &mut Sim<System>,
        event: SimEvent,
    ) -> Result<(), MemifError> {
        let device = sys.device(self.device).ok_or(MemifError::NoSuchDevice)?;
        let ready = !device.region.is_empty(QueueId::CompletionErr)
            || !device.region.is_empty(QueueId::CompletionOk);
        if ready {
            sim.schedule_after(sys.cost.queue_op, event);
        } else if let Some(device) = sys.device_mut(self.device) {
            device.pollers.push(event);
        }
        Ok(())
    }
}

impl System {
    /// A CPU store to `vaddr` in `space` with proceed-and-recover
    /// semantics: a write-protection trap invokes the memif fault
    /// handler (aborting the covering migration) and the store retries
    /// against the restored mapping, exactly as on real hardware.
    ///
    /// # Errors
    ///
    /// Any non-recoverable [`Fault`].
    pub fn cpu_write(
        &mut self,
        sim: &mut Sim<System>,
        space: SpaceId,
        vaddr: VirtAddr,
        data: &[u8],
    ) -> Result<(), Fault> {
        match self.spaces[space.0].access(vaddr, AccessKind::Write) {
            Ok(pa) => {
                self.phys.write(pa, data);
                Ok(())
            }
            Err(Fault::WriteProtected(va)) => {
                if driver::fault::handle_write_fault(self, sim, space, va) {
                    let pa = self.spaces[space.0].access(vaddr, AccessKind::Write)?;
                    self.phys.write(pa, data);
                    Ok(())
                } else {
                    Err(Fault::WriteProtected(va))
                }
            }
            Err(other) => Err(other),
        }
    }
}
