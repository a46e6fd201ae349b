//! memif device instances and their driver-side state.
//!
//! Each open device corresponds to one `/dev/memifN` file in the paper:
//! it is owned by exactly one process, holds the shared lock-free region
//! (Figure 3), and carries the driver bookkeeping — the in-flight
//! transfer, statistics, completion log, and registered pollers.

use std::collections::{BTreeMap, VecDeque};

use memif_hwsim::dma::{SgSegment, TransferId};
use memif_hwsim::hash::IdMap;
use memif_hwsim::{PhaseBreakdown, PhysAddr, SimTime};
use memif_lockfree::{MovReq, Region};
use memif_mm::{PageSize, Pte, VirtAddr};

use crate::config::MemifConfig;
use crate::error::MemifError;
use crate::event::SimEvent;
use crate::log::CompletionLog;
use crate::system::{SpaceId, System};

/// Handle to an open memif device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId(pub usize);

/// Driver activity counters for one device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Requests submitted by the application.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests completed with a failure status.
    pub failed: u64,
    /// `ioctl(MOV_ONE)` kick-start syscalls made.
    pub ioctls: u64,
    /// Completions taken through the interrupt path.
    pub interrupts: u64,
    /// Completions taken through the kernel thread's polling mode.
    pub polled: u64,
    /// Kernel-thread wakeups.
    pub kthread_wakeups: u64,
    /// Pages whose Release CAS detected a race.
    pub races_detected: u64,
    /// Migrations aborted by the proceed-and-recover fault handler.
    pub aborts: u64,
    /// Watchdog expiries: transfers declared lost after the deadline.
    pub timeouts: u64,
    /// DMA error interrupts taken (mid-flight engine failures).
    pub dma_errors: u64,
    /// DMA re-issues after an error, timeout, or chaos exhaustion.
    pub retries: u64,
    /// Requests that degraded to the costed CPU-copy path after
    /// exhausting their DMA retries.
    pub fallbacks: u64,
    /// Bytes successfully moved.
    pub bytes_moved: u64,
    /// Requests issued as part of a multi-request chained batch (counts
    /// every request in a batch of two or more, never solo launches).
    pub requests_batched: u64,
    /// Scatter-gather segments eliminated by merging physically
    /// contiguous neighbors into one descriptor.
    pub segments_coalesced: u64,
    /// PaRAM descriptors actually programmed (full or reuse-patched),
    /// across first launches and retries.
    pub descriptors_written: u64,
    /// Uncached descriptor field writes avoided by coalescing
    /// (eliminated segments × the PaRAM set's field count).
    pub descriptor_writes_saved: u64,
    /// Requests held back at issue because their address range overlaps
    /// a still-in-flight request (same-region hazard guard).
    pub requests_deferred: u64,
    /// The subset of `requests_deferred` whose conflicting in-flight
    /// request was issued by a *different* shard — overlaps the
    /// region-affinity routing could not co-locate, caught by the
    /// cross-shard span index. Always 0 at `issue_shards = 1`.
    pub cross_shard_deferred: u64,
    /// Write-ahead journal records appended for this device's requests
    /// (0 unless the device was opened with `journal = true`).
    pub journal_records: u64,
    /// Recovered requests rolled back to their original mapping (sealed
    /// `Aborted`: the payload had not reached the destination).
    pub rolled_back: u64,
    /// Recovered requests rolled forward to completion (sealed `Done`:
    /// the payload was already in place, only the release was lost).
    pub redriven: u64,
    /// Duplicate same-instant worker-wake timer inserts skipped on the
    /// retire fan-out (see `driver::schedule_worker_wake`).
    pub timer_rearm_saved: u64,
    /// Requests parked at submit by QoS admission control (tenant at
    /// its inflight cap). 0 unless `qos` is on.
    pub requests_parked: u64,
    /// Parked requests re-admitted onto the issue path after a retire
    /// freed their tenant's budget. 0 unless `qos` is on.
    pub requests_readmitted: u64,
    /// Driver cost per phase (Figure 6 columns).
    pub phases: PhaseBreakdown,
    /// Successful migrations whose pages landed *on* each node, keyed by
    /// node id (the per-tier `moves_in` of `stats --json`).
    pub node_moves_in: BTreeMap<u16, u64>,
    /// Successful migrations whose pages left each node.
    pub node_moves_out: BTreeMap<u16, u64>,
}

impl DriverStats {
    /// Journaled requests that were in flight at a crash and terminated
    /// by [`crate::System::recover`].
    #[must_use]
    pub fn recovered_requests(&self) -> u64 {
        self.rolled_back + self.redriven
    }
}

/// Per-page migration bookkeeping carried across the DMA window.
#[derive(Debug, Clone)]
pub(crate) struct PagePlan {
    pub vaddr: VirtAddr,
    pub old_frame: PhysAddr,
    pub new_frame: PhysAddr,
    /// The entry found before Remap (for proceed-and-recover restore).
    pub original: Pte,
    /// The entry installed by Remap (semi-final / migration entry).
    pub installed: Pte,
    /// The entry Release swaps in on success.
    pub final_pte: Pte,
    /// Mappings of the same frame in *other* address spaces (shared
    /// pages, §6.7). During the transfer they hold migration entries;
    /// Release rewrites them to the new frame.
    pub remote: Vec<(crate::system::SpaceId, VirtAddr)>,
}

/// An in-flight request. Up to `pipeline_depth` coexist per device: the
/// kernel thread prepares the next request while the previous transfer
/// is still on the engine.
#[derive(Debug)]
pub(crate) struct Inflight {
    /// Driver-internal identity (find-by-token across events).
    pub token: u64,
    pub req: MovReq,
    pub slot: memif_lockfree::SlotIndex,
    /// Set once the DMA transfer is launched.
    pub transfer: Option<TransferId>,
    /// The transfer-controller channel the launch was admitted onto.
    /// Taken (exactly once) at the release point, so every terminal
    /// path frees the controller slot without double-releasing.
    pub tc: Option<usize>,
    /// The programmed transfer, consumed at launch time.
    pub cfg: Option<memif_hwsim::dma::ConfiguredTransfer>,
    pub segments: Vec<SgSegment>,
    pub pages: Vec<PagePlan>,
    pub page_size: PageSize,
    pub interrupt_mode: bool,
    /// When the DMA transfer started.
    pub dma_started_at: Option<SimTime>,
    /// The transfer finished; Release is pending. The request stays
    /// registered so a trapping write can still abort it, but it no
    /// longer occupies the pipeline (the engine is free).
    pub completed: bool,
    /// DMA issues consumed so far (0 = first attempt). Drives the
    /// bounded-retry/backoff policy under fault injection.
    pub attempt: u32,
    /// The armed per-request watchdog event, cancelled on completion.
    /// `None` on the fault-free path (watchdogs are chaos-only).
    pub watchdog: Option<memif_hwsim::EventId>,
    /// Tokens of the member requests riding this request's chained
    /// scatter-gather launch, in chain order. Non-empty only on a batch
    /// leader while the combined transfer is outstanding; completion or
    /// failure disbands the batch.
    pub batch_members: Vec<u64>,
    /// For a batch member: the token of the leader whose transfer
    /// carries this request's segments.
    pub batch_leader: Option<u64>,
    /// Byte offset of this request's first segment within the launched
    /// chain (0 for solo requests and leaders). A mid-chain DMA error
    /// reporting `bytes_done` completed exactly the requests whose
    /// `chain_offset + own bytes <= bytes_done`.
    pub chain_offset: u64,
    /// The issue shard whose worker planned and launched this request;
    /// its release/poll work returns to the same worker's CPU.
    pub shard: usize,
}

/// Reusable per-shard working buffers for request planning. Taken out
/// of the device for the duration of one issue (sidestepping borrow
/// conflicts with the address-space walks) and put back afterwards, so
/// steady-state planning allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct PlanScratch {
    /// Gang-lookup results (migration source / replication source).
    pub ptes: Vec<Option<Pte>>,
    /// Gang-lookup results for replication's destination region.
    pub dst_ptes: Vec<Option<Pte>>,
    /// Destination frames a migration allocates before it remaps.
    pub new_frames: Vec<memif_hwsim::PhysAddr>,
    /// The members of the batch being issued that planned successfully.
    pub planned: Vec<(memif_lockfree::Dequeued, crate::driver::exec::Plan)>,
    /// A batch's members' segments, concatenated into its one chain.
    pub chain: Vec<SgSegment>,
}

/// Emptied per-request lists of retired in-flight records. A plan takes
/// its lists from here and a retired record gives them back, so the
/// steady-state request path allocates none. At most one set per
/// request ever in flight at once is kept.
#[derive(Debug, Default)]
pub(crate) struct SpareLists {
    pub segments: Vec<Vec<SgSegment>>,
    pub pages: Vec<Vec<PagePlan>>,
    pub members: Vec<Vec<u64>>,
}

impl SpareLists {
    /// Keeps a retired plan's lists for reuse.
    pub fn put(&mut self, segments: Vec<SgSegment>, pages: Vec<PagePlan>) {
        keep(&mut self.segments, segments);
        keep(&mut self.pages, pages);
    }

    /// Keeps a disbanded batch's member list for reuse.
    pub fn put_members(&mut self, members: Vec<u64>) {
        keep(&mut self.members, members);
    }
}

/// Empties `list` and keeps it in `spares`, unless it never allocated.
pub(crate) fn keep<T>(spares: &mut Vec<Vec<T>>, mut list: Vec<T>) {
    if list.capacity() > 0 {
        list.clear();
        spares.push(list);
    }
}

/// Frame lists Release reuses across requests.
#[derive(Debug, Default)]
pub(crate) struct ReleaseScratch {
    /// The old frame of each page, one reference to drop per entry.
    pub old: Vec<memif_hwsim::PhysAddr>,
    /// The blocks those drops freed, ascending.
    pub freed: Vec<memif_hwsim::PhysAddr>,
}

/// Per-shard kernel-worker state. Each issue shard owns one worker: its
/// own CPU-occupancy model, deferred FIFO, and planning scratch, so S
/// shards prepare requests on S simulated CPUs concurrently while still
/// contending for the shared transfer controllers and descriptor pool.
#[derive(Debug, Default)]
pub(crate) struct IssueShard {
    /// Dequeued requests parked because their address range overlaps a
    /// still-in-flight request: planning them now would overwrite the
    /// in-flight remap's semi-final PTEs and turn a driver-visible
    /// ordering hazard into a spurious `Raced`. Re-examined (FIFO) every
    /// worker round; a parked request issues once its conflict retires.
    pub deferred: Vec<memif_lockfree::Dequeued>,
    /// Planning scratch buffers, reused across this shard's requests.
    pub scratch: PlanScratch,
    /// The batch a worker round assembles, reused across rounds.
    pub batch: Vec<memif_lockfree::Dequeued>,
    /// This shard's worker CPU is occupied until this instant (a worker
    /// prepares requests one at a time even when transfers overlap).
    pub busy_until: SimTime,
    /// Instant of the last wakeup counted in `stats.kthread_wakeups`.
    /// Several `KthreadRun` events can land on one shard at the same
    /// instant (a retire wake colliding with a peer wake); on real
    /// hardware `wake_up()` on an already-running thread is a no-op, so
    /// the counter must record one wakeup per instant, not per event.
    pub last_counted_wakeup: Option<SimTime>,
    /// Instant of the most recently armed (still pending) `KthreadRun`
    /// wake for this shard, cleared when that event dispatches. A retire
    /// path about to schedule a wake at an instant that is already
    /// armed skips the duplicate wheel insert — a batch fan-out of N same-instant releases rearms the
    /// worker's timer once instead of N times.
    pub armed_wake: Option<SimTime>,
    /// How many queued (Staging + Submission) requests each tenant has
    /// on this shard. Maintained only when `qos` is on; the weighted-
    /// fair dequeue consults it to know which tenants are active without
    /// scanning the queues.
    pub queued_by_tenant: BTreeMap<u16, u32>,
    /// Deficit-round-robin state for this shard's weighted-fair dequeue.
    /// Untouched (default) unless `qos` is on and two or more tenants
    /// are active on the shard.
    pub drr: memif_qos::DrrState,
    /// Per-tenant software queues, FIFO each. The shared lock-free
    /// queues only ever serve their *front* (`dequeue_if` must not
    /// disturb a mismatched head), so a weighted-fair scheduler cannot
    /// pull a back-of-queue tenant out of them directly. Instead — as a
    /// NIC driver splits one hardware ring into per-flow software
    /// queues — the worker drains the shared queues into these lists
    /// and DRR serves the list fronts. Populated only when `qos` is on
    /// **and** two or more tenants are queued on the shard; otherwise
    /// the plain FIFO prefix drain never touches it, keeping
    /// single-tenant event logs byte-identical.
    pub pending: BTreeMap<u16, VecDeque<memif_lockfree::Dequeued>>,
    /// Emptied `pending` queues, reused when a tenant is listed again.
    pub spare_pending: Vec<VecDeque<memif_lockfree::Dequeued>>,
}

/// A request held back at submit time by QoS admission control. It has
/// an id, a recorded submit time, and counts as submitted, but holds
/// **no** request slot while parked — a throttled tenant cannot starve
/// the shared slot pool. Re-admission (at retire sites) allocates the
/// slot and enqueues it exactly as `stage` would have.
#[derive(Debug)]
pub(crate) struct ParkedReq {
    pub req: MovReq,
    /// The issue shard region-affinity routing chose at submit.
    pub shard: usize,
}

/// An open memif device.
pub struct MemifDevice {
    /// Device id.
    pub id: DeviceId,
    /// Owning process.
    pub owner: SpaceId,
    /// Instance configuration.
    pub config: MemifConfig,
    /// The shared lock-free region (Figure 3).
    pub region: Region,
    /// Driver counters.
    pub stats: DriverStats,
    /// Completion log: one record per retired request, kept for the
    /// device's lifetime: one byte for a steady request, at most 51.
    pub log: CompletionLog,
    pub(crate) inflight: Vec<Inflight>,
    /// Per-shard worker state; length = `config.issue_shards` (min 1).
    pub(crate) shards: Vec<IssueShard>,
    /// Byte spans of every in-flight request (source, plus replication
    /// destination), device-wide. The issue-time hazard check consults
    /// this instead of rescanning `inflight`, which also makes it catch
    /// overlaps across shards.
    pub(crate) spans: memif_lockfree::InflightIndex,
    pub(crate) next_req_id: u64,
    pub(crate) next_token: u64,
    pub(crate) submit_times: IdMap<u64, SimTime>,
    pub(crate) pollers: Vec<SimEvent>,
    /// The pollers a notification is waking; swapped with `pollers` so
    /// both buffers are reused.
    pub(crate) waking: Vec<SimEvent>,
    /// Requests parked by admission control, FIFO per tenant. Only ever
    /// non-empty when `qos` is on.
    pub(crate) parked: BTreeMap<u16, VecDeque<ParkedReq>>,
    /// Emptied `parked` queues, reused when a tenant parks again.
    pub(crate) spare_parked: Vec<VecDeque<ParkedReq>>,
    /// Round-robin cursor over `parked` tenants: each retire re-admits
    /// starting *after* the last served tenant, so no parked tenant is
    /// structurally favored.
    pub(crate) park_cursor: u16,
    /// Frame lists Release reuses across requests.
    pub(crate) release_scratch: ReleaseScratch,
    /// Lists of retired in-flight records, reused by the next plans.
    pub(crate) spare: SpareLists,
}

impl std::fmt::Debug for MemifDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemifDevice")
            .field("id", &self.id)
            .field("owner", &self.owner)
            .field("inflight", &self.inflight.len())
            .field("pollers", &self.pollers.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl MemifDevice {
    pub(crate) fn new(
        id: DeviceId,
        owner: SpaceId,
        config: MemifConfig,
    ) -> Result<Self, MemifError> {
        let shard_count = config.issue_shards.max(1);
        let region = Region::new_sharded(config.queue_capacity, shard_count)?;
        Ok(MemifDevice {
            id,
            owner,
            config,
            region,
            stats: DriverStats::default(),
            log: CompletionLog::default(),
            inflight: Vec::new(),
            shards: (0..shard_count).map(|_| IssueShard::default()).collect(),
            spans: memif_lockfree::InflightIndex::new(),
            next_req_id: 0,
            next_token: 0,
            submit_times: IdMap::default(),
            pollers: Vec::new(),
            waking: Vec::new(),
            parked: BTreeMap::new(),
            spare_parked: Vec::new(),
            park_cursor: 0,
            release_scratch: ReleaseScratch::default(),
            spare: SpareLists::default(),
        })
    }

    /// Records a request entering shard `shard`'s queues (Staging or
    /// Submission) for the per-tenant active count. No-op unless `qos`
    /// is on.
    pub(crate) fn note_enqueued(&mut self, shard: usize, tenant: u16) {
        if self.config.qos {
            *self.shards[shard]
                .queued_by_tenant
                .entry(tenant)
                .or_default() += 1;
        }
    }

    /// Records a request leaving shard `shard`'s queues. No-op unless
    /// `qos` is on.
    pub(crate) fn note_dequeued(&mut self, shard: usize, tenant: u16) {
        if self.config.qos {
            let count = self.shards[shard]
                .queued_by_tenant
                .get_mut(&tenant)
                .expect("dequeue of a tenant never counted in");
            *count -= 1;
            if *count == 0 {
                self.shards[shard].queued_by_tenant.remove(&tenant);
            }
        }
    }

    /// Removes the in-flight record at `index`, dropping its byte spans
    /// from the cross-shard overlap index in the same motion. Every
    /// terminal path (release, abort, failure teardown) retires records
    /// through here so the index can never leak a span.
    pub(crate) fn take_inflight(&mut self, index: usize) -> Inflight {
        let inflight = self.inflight.remove(index);
        self.spans.remove(inflight.token);
        inflight
    }

    /// The poll threshold in effect (§5.4): config override or the cost
    /// model's 512 KB default.
    #[must_use]
    pub fn poll_threshold(&self, default_bytes: u64) -> u64 {
        self.config.poll_threshold_bytes.unwrap_or(default_bytes)
    }

    /// True if the device has neither queued, parked, nor in-flight work.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        use memif_lockfree::QueueId;
        self.inflight.is_empty()
            && self.parked.is_empty()
            && self.shards.iter().all(|s| s.pending.is_empty())
            && self.region.is_empty(QueueId::Staging)
            && self.region.is_empty(QueueId::Submission)
    }

    /// True when shard `shard` is in weighted-fair (drain) mode: QoS is
    /// on and either requests already sit on the per-tenant software
    /// queues or two or more tenants are queued on the shared queues.
    /// While this holds, every dequeue must go through the worker's DRR
    /// path — a direct front dequeue would jump the schedule.
    pub(crate) fn qos_multi(&self, shard: usize) -> bool {
        self.config.qos
            && (!self.shards[shard].pending.is_empty()
                || self.shards[shard].queued_by_tenant.len() >= 2)
    }
}

impl System {
    /// The device `id`, if open.
    #[must_use]
    pub fn device(&self, id: DeviceId) -> Option<&MemifDevice> {
        self.devices.get(id.0).and_then(Option::as_ref)
    }

    /// Mutable access to device `id`, if open.
    pub fn device_mut(&mut self, id: DeviceId) -> Option<&mut MemifDevice> {
        self.devices.get_mut(id.0).and_then(Option::as_mut)
    }

    pub(crate) fn open_device(
        &mut self,
        owner: SpaceId,
        config: MemifConfig,
    ) -> Result<DeviceId, MemifError> {
        let id = DeviceId(self.devices.len());
        let dev = MemifDevice::new(id, owner, config)?;
        self.devices.push(Some(dev));
        Ok(id)
    }

    pub(crate) fn close_device(&mut self, id: DeviceId) -> Result<MemifDevice, MemifError> {
        let slot = self.devices.get_mut(id.0).ok_or(MemifError::NoSuchDevice)?;
        match slot.take() {
            Some(dev) => Ok(dev),
            None => Err(MemifError::NoSuchDevice),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_close_lifecycle() {
        let mut sys = System::keystone_ii();
        let space = sys.new_space();
        let id = sys.open_device(space, MemifConfig::default()).unwrap();
        assert!(sys.device(id).is_some());
        assert!(sys.device(id).unwrap().is_idle());
        let dev = sys.close_device(id).unwrap();
        assert_eq!(dev.id, id);
        assert!(sys.device(id).is_none());
        assert!(matches!(
            sys.close_device(id),
            Err(MemifError::NoSuchDevice)
        ));
    }

    #[test]
    fn poll_threshold_resolution() {
        let mut sys = System::keystone_ii();
        let space = sys.new_space();
        let id = sys.open_device(space, MemifConfig::default()).unwrap();
        assert_eq!(
            sys.device(id).unwrap().poll_threshold(512 * 1024),
            512 * 1024
        );
        let forced = MemifConfig {
            poll_threshold_bytes: Some(0),
            ..MemifConfig::default()
        };
        let id2 = sys.open_device(space, forced).unwrap();
        assert_eq!(sys.device(id2).unwrap().poll_threshold(512 * 1024), 0);
    }

    #[test]
    fn devices_have_isolated_regions() {
        let mut sys = System::keystone_ii();
        let space = sys.new_space();
        let a = sys.open_device(space, MemifConfig::default()).unwrap();
        let b = sys.open_device(space, MemifConfig::default()).unwrap();
        let slot = sys.device(a).unwrap().region.alloc_slot().unwrap();
        let _ = slot;
        assert_eq!(
            sys.device(a).unwrap().region.stats().free + 1,
            sys.device(b).unwrap().region.stats().free,
            "allocating in one device leaves the other untouched"
        );
    }
}
