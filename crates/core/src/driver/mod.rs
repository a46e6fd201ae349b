//! The memif driver: the kernel side of the service.
//!
//! Three execution paths serve requests (§5.4, Figure 5):
//!
//! * the **syscall path** ([`syscall::mov_one`]) — `ioctl(MOV_ONE)` runs
//!   operations 1–3 for one queued request in the caller's process
//!   context and returns as soon as the DMA transfer starts;
//! * the **interrupt path** ([`complete`]) — the DMA completion
//!   interrupt performs Release and Notify immediately (possible only
//!   because race *detection* removed the sleepable-lock requirement)
//!   and wakes the kernel thread;
//! * the **kernel thread path** ([`kthread`]) — the woken worker drains
//!   the submission and staging queues, switching between
//!   interrupt-driven and polling completion at the 512 KB threshold,
//!   and recolors the staging queue blue before going back to sleep.
//!
//! The three paths share one issue function and one retire funnel.
//! [`exec::issue`] runs operations 1–3 for a batch of one or more
//! requests — a solo request is a batch of one — whether the syscall,
//! the kernel worker or a descriptor-exhaustion retry calls it.
//! [`complete::retire`] runs Release and Notify for every completion,
//! whether the interrupt handler, the polling worker or the degraded
//! CPU-copy path reached it; the three differ only in execution context,
//! in who pays the worker wake, and in their trace label.
//!
//! Every deferred step of these paths is a typed
//! [`SimEvent`](crate::SimEvent) — launch, retry, watchdog, interrupt
//! and polling release, kernel-thread continuation — dispatched by the
//! central `EventWorld` implementation in `crate::event`. The driver
//! schedules *data*, not closures, so a simulation's event stream can be
//! logged and replayed verbatim. DMA launches are admitted onto one of
//! the engine's transfer-controller channels by the system's
//! [`TcScheduler`](memif_hwsim::TcScheduler) (least-loaded routing;
//! FIFO queueing when all channels are busy), and the channel slot is
//! recorded in the in-flight entry so each terminal path — completion,
//! error, abort, teardown — releases it exactly once.

pub(crate) mod complete;
pub(crate) mod exec;
pub(crate) mod fault;
pub(crate) mod kthread;
pub(crate) mod syscall;

use crate::device::{DeviceId, MemifDevice};
use crate::system::System;

/// Immutable device access for driver internals.
///
/// # Panics
///
/// Panics if the device has been closed: driver continuations are only
/// scheduled while the device is open, and close refuses busy devices.
pub(crate) fn dev(sys: &System, id: DeviceId) -> &MemifDevice {
    sys.devices[id.0].as_ref().expect("device open")
}

/// Mutable device access for driver internals.
///
/// # Panics
///
/// Panics if the device has been closed (see [`dev`]).
pub(crate) fn dev_mut(sys: &mut System, id: DeviceId) -> &mut MemifDevice {
    sys.devices[id.0].as_mut().expect("device open")
}

/// A shared-region queue operation failed — the application-mapped
/// region no longer validates (a real driver would treat this as memory
/// corruption by a buggy or hostile mapper). The driver stops trusting
/// the queues: the fault is traced and the issue path parks instead of
/// panicking the kernel. In-flight transfers complete normally.
pub(crate) fn region_fault(
    sys: &mut System,
    sim: &memif_hwsim::Sim<System>,
    id: DeviceId,
    ctx: memif_hwsim::Context,
    err: &memif_lockfree::RegionError,
) {
    if sys.tracing() {
        sys.trace_emit(
            sim.now(),
            memif_hwsim::SimDuration::ZERO,
            ctx,
            format!("shared region fault: {err}; device {} parks", id.0),
            None,
        );
    }
}

/// Arms a `KthreadRun` wake for shard `shard`, `delay` after now.
///
/// All retire-path worker wakes funnel through here, so same-instant
/// wakes are deduplicated at one choke point: a wake aimed at an
/// instant this shard already has a pending wake armed for is skipped
/// (counted in `timer_rearm_saved`) instead of inserted into the timing
/// wheel again. This collapses a chained batch's N same-instant release
/// wakes into one timer rearm. The pending event runs at exactly that
/// instant, and a duplicate round after it could issue nothing: either
/// it hit the worker's busy/pipeline early-outs, or it found both queues
/// drained, charged one `queue_op` of worker CPU for the empty dequeue
/// probe, and slept again. Skipping it changes no terminal status and no
/// final memory, but it does save that simulated CPU charge.
/// `armed_wake` is cleared when the event dispatches (`kthread::run`),
/// so a recorded instant always refers to a wake that is genuinely
/// still pending.
pub(crate) fn schedule_worker_wake(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    shard: usize,
    delay: memif_hwsim::SimDuration,
) {
    let at = sim.now() + delay;
    let device = dev_mut(sys, id);
    if device.shards[shard].armed_wake == Some(at) {
        device.stats.timer_rearm_saved += 1;
        return;
    }
    device.shards[shard].armed_wake = Some(at);
    sim.schedule_after(
        delay,
        crate::event::SimEvent::KthreadRun { device: id, shard },
    );
}

/// Re-admits parked (admission-throttled) requests after a retire freed
/// tenant budget. Rotates over the parked tenants starting after the
/// device's `park_cursor` — so no parked tenant is structurally favored
/// — re-checking admission for each; an admitted request allocates its
/// slot, enqueues on its shard's staging queue exactly as `stage` would
/// have, and kicks that shard's worker. Stops when no parked tenant
/// admits or the slot pool is exhausted. A strict no-op when nothing is
/// parked, so non-QoS devices (which never park) pay nothing.
pub(crate) fn readmit_parked(sys: &mut System, sim: &mut memif_hwsim::Sim<System>, id: DeviceId) {
    use memif_lockfree::QueueId;
    use memif_qos::TenantId;
    loop {
        if dev(sys, id).parked.is_empty() {
            return;
        }
        if !dev(sys, id).region.has_free_slot() {
            // Whole-pool exhaustion: the next slot-freeing retire (or
            // retrieve) re-enters here via its own notify.
            return;
        }
        // Tenant rotation: tenants after the cursor first, then wrap.
        let device = sys.devices[id.0].as_ref().expect("device open");
        let cursor = device.park_cursor;
        let admitted = device
            .parked
            .range(cursor.wrapping_add(1)..)
            .chain(device.parked.range(..=cursor))
            .map(|(t, _)| *t)
            .find(|&t| sys.qos.admit(TenantId(t)));
        let Some(t) = admitted else { return };
        let device = dev_mut(sys, id);
        device.park_cursor = t;
        let queue = device.parked.get_mut(&t).expect("candidate from the map");
        let parked = queue.pop_front().expect("parked queues never left empty");
        if queue.is_empty() {
            let queue = device.parked.remove(&t).expect("candidate from the map");
            device.spare_parked.push(queue);
        }
        let shard = parked.shard;
        let req = parked.req;
        let slot = device
            .region
            .alloc_slot()
            .expect("free-slot probe above guarantees capacity");
        device.stats.requests_readmitted += 1;
        device
            .region
            .enqueue_sharded(QueueId::Staging, shard, slot, &req)
            .expect("slot owned by driver");
        device.note_enqueued(shard, req.tenant);
        sys.qos.note_unparked(TenantId(req.tenant));
        schedule_worker_wake(sys, sim, id, shard, memif_hwsim::SimDuration::ZERO);
    }
}

/// Wakes every *other* shard's worker that has parked deferred work,
/// `delay` after now. Called from each retire path right after the
/// owning shard's own wakeup: a request deferred on shard A may have
/// been waiting on a conflict shard B just retired, and B's release
/// only re-runs B's worker. A no-op with a single shard (and whenever
/// no peer has deferred work), so the default configuration's event
/// stream is untouched.
pub(crate) fn wake_deferred_peers(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    shard: usize,
    delay: memif_hwsim::SimDuration,
) {
    let shards = dev(sys, id).shards.len();
    for s in 0..shards {
        if s != shard && !dev(sys, id).shards[s].deferred.is_empty() {
            schedule_worker_wake(sys, sim, id, s, delay);
        }
    }
}
