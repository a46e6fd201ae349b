//! The shared request region (paper Figure 3).
//!
//! One region backs one memif instance. In the paper this is a set of
//! pinned kernel pages mapped into the application's address space; here
//! it is a single heap allocation shared by the "user" and "kernel" sides
//! through an `Arc`. Layout mirrors the paper: queue/list metadata
//! followed by an array of `mov_req` slots.
//!
//! The staging and submission queues may be **sharded** (one pair per
//! issue shard, [`Region::new_sharded`]): each shard is an independent
//! red–blue queue pair drained by its own kernel worker, while the free
//! list and the two completion queues stay region-global. Requests are
//! routed to shards by region affinity in the driver, so per-region FIFO
//! holds within a shard by construction; [`InflightIndex`] is the
//! cross-shard overlap net for the rare routing collision.

use std::fmt;

use crate::freelist::FreeList;
use crate::link::{Color, SlotIndex, MAX_SLOTS};
use crate::movreq::MovReq;
use crate::queue::{ColorQueue, Dequeued, SetColorError};
use crate::slot::Slot;

/// Identifies one of the region's queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueId {
    /// Holds submitted requests not yet known to the kernel. This is the
    /// red–blue queue; its color assigns flushing responsibility.
    Staging,
    /// Holds requests known to the kernel, waiting to be processed.
    Submission,
    /// Completed requests posted back to the application — successes.
    CompletionOk,
    /// Completed requests posted back to the application — failures.
    /// (The paper implements the completion queue "as two: one for
    /// successful moves and the other for failed ones".)
    CompletionErr,
}

impl QueueId {
    /// All queue identifiers, in layout order.
    pub const ALL: [QueueId; 4] = [
        QueueId::Staging,
        QueueId::Submission,
        QueueId::CompletionOk,
        QueueId::CompletionErr,
    ];
}

/// Errors arising from region operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionError {
    /// The requested capacity was zero or above [`MAX_SLOTS`].
    BadCapacity(usize),
    /// The requested shard count was zero.
    BadShardCount(usize),
    /// A slot index failed kernel-side validation (out of bounds). The
    /// paper: indices "will be validated by the memif driver before use".
    InvalidSlot(SlotIndex),
    /// The free list was empty — too many requests in flight.
    Exhausted,
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::BadCapacity(n) => write!(f, "bad region capacity {n}"),
            RegionError::BadShardCount(n) => write!(f, "bad shard count {n}"),
            RegionError::InvalidSlot(i) => write!(f, "slot index {i} out of bounds"),
            RegionError::Exhausted => f.write_str("no free request slots"),
        }
    }
}

impl std::error::Error for RegionError {}

/// Occupancy snapshot of a region (diagnostics; quiescent only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegionStats {
    /// Free request slots.
    pub free: usize,
    /// Requests staged but not yet flushed to the kernel (all shards).
    pub staging: usize,
    /// Requests queued for the kernel workers (all shards).
    pub submission: usize,
    /// Successful completions awaiting retrieval.
    pub completion_ok: usize,
    /// Failed completions awaiting retrieval.
    pub completion_err: usize,
}

/// The shared region: slot arena, free list, and the queues.
///
/// `capacity` request slots are usable by the application; `2·S + 2`
/// extra slots serve as the queues' initial dummies for `S` issue shards
/// (the dummy identity rotates as elements flow, but the total is
/// conserved). The single-shard layout is identical to the original
/// four-queue region.
pub struct Region {
    slots: Box<[Slot]>,
    capacity: usize,
    free: FreeList,
    staging: Vec<ColorQueue>,
    submission: Vec<ColorQueue>,
    completion_ok: ColorQueue,
    completion_err: ColorQueue,
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Region")
            .field("capacity", &self.capacity)
            .field("shards", &self.staging.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Region {
    /// Creates a region with `capacity` usable request slots and a single
    /// issue shard.
    ///
    /// The staging queue starts **blue**: with no kernel thread active,
    /// the first submitter is responsible for flushing and kicking the
    /// kernel (§4.4).
    ///
    /// # Errors
    ///
    /// [`RegionError::BadCapacity`] if `capacity` is zero or exceeds
    /// [`MAX_SLOTS`] − 4.
    pub fn new(capacity: usize) -> Result<Self, RegionError> {
        Self::new_sharded(capacity, 1)
    }

    /// Creates a region with `capacity` usable request slots and `shards`
    /// staging/submission queue pairs (one per issue shard).
    ///
    /// Every staging queue starts **blue** (first submitter flushes).
    ///
    /// # Errors
    ///
    /// [`RegionError::BadShardCount`] if `shards` is zero;
    /// [`RegionError::BadCapacity`] if `capacity` is zero or
    /// `capacity + 2·shards + 2` exceeds [`MAX_SLOTS`].
    pub fn new_sharded(capacity: usize, shards: usize) -> Result<Self, RegionError> {
        if shards == 0 {
            return Err(RegionError::BadShardCount(shards));
        }
        let dummies = 2 * shards + 2;
        if capacity == 0 || capacity > MAX_SLOTS.saturating_sub(dummies) {
            return Err(RegionError::BadCapacity(capacity));
        }
        let total = capacity + dummies;
        let slots: Box<[Slot]> = (0..total).map(|_| Slot::new()).collect();
        let free = FreeList::new();
        for i in 0..capacity {
            free.push(&slots, i as SlotIndex);
        }
        // Dummy layout: staging shards first, then submission shards,
        // then the two completion queues — at `shards == 1` this is the
        // original staging/submission/ok/err order, byte-identical.
        let dummy = |k: usize| (capacity + k) as SlotIndex;
        let staging = (0..shards)
            .map(|s| ColorQueue::new(&slots, dummy(s), Color::Blue))
            .collect();
        let submission = (0..shards)
            .map(|s| ColorQueue::new(&slots, dummy(shards + s), Color::Blue))
            .collect();
        let region = Region {
            completion_ok: ColorQueue::new(&slots, dummy(2 * shards), Color::Blue),
            completion_err: ColorQueue::new(&slots, dummy(2 * shards + 1), Color::Blue),
            staging,
            submission,
            slots,
            capacity,
            free,
        };
        Ok(region)
    }

    /// Usable request-slot capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of issue shards (staging/submission queue pairs).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.staging.len()
    }

    /// Resolves a queue id to a concrete queue. For the sharded queues
    /// (`Staging`, `Submission`) the `shard` index selects the pair; the
    /// completion queues are region-global and ignore it.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()` for a sharded queue id — shard
    /// routing is driver-internal and a bad index is a driver bug.
    fn queue_sharded(&self, id: QueueId, shard: usize) -> &ColorQueue {
        match id {
            QueueId::Staging => &self.staging[shard],
            QueueId::Submission => &self.submission[shard],
            QueueId::CompletionOk => &self.completion_ok,
            QueueId::CompletionErr => &self.completion_err,
        }
    }

    fn queue(&self, id: QueueId) -> &ColorQueue {
        self.queue_sharded(id, 0)
    }

    /// Validates a slot index as the kernel driver does before use.
    ///
    /// # Errors
    ///
    /// [`RegionError::InvalidSlot`] if out of bounds.
    pub fn validate(&self, slot: SlotIndex) -> Result<(), RegionError> {
        if (slot as usize) < self.slots.len() {
            Ok(())
        } else {
            Err(RegionError::InvalidSlot(slot))
        }
    }

    /// Takes a blank slot from the free list (`AllocRequest`).
    ///
    /// # Errors
    ///
    /// [`RegionError::Exhausted`] when every slot is in flight.
    pub fn alloc_slot(&self) -> Result<SlotIndex, RegionError> {
        self.free.pop(&self.slots).ok_or(RegionError::Exhausted)
    }

    /// True if the free list held a slot at the read instant: an O(1)
    /// probe, where [`stats`](Self::stats) walks every list.
    pub fn has_free_slot(&self) -> bool {
        !self.free.is_empty()
    }

    /// Returns a slot to the free list (`FreeRequest`).
    ///
    /// # Errors
    ///
    /// [`RegionError::InvalidSlot`] if out of bounds.
    pub fn free_slot(&self, slot: SlotIndex) -> Result<(), RegionError> {
        self.validate(slot)?;
        self.free.push(&self.slots, slot);
        Ok(())
    }

    /// Enqueues the caller-owned `slot` carrying `req` onto queue `id`
    /// (shard 0 for sharded queues), returning the observed queue color.
    ///
    /// # Errors
    ///
    /// [`RegionError::InvalidSlot`] if out of bounds.
    pub fn enqueue(
        &self,
        id: QueueId,
        slot: SlotIndex,
        req: &MovReq,
    ) -> Result<Color, RegionError> {
        self.enqueue_sharded(id, 0, slot, req)
    }

    /// Enqueues onto shard `shard` of queue `id`.
    ///
    /// # Errors
    ///
    /// [`RegionError::InvalidSlot`] if out of bounds.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range for a sharded queue id.
    pub fn enqueue_sharded(
        &self,
        id: QueueId,
        shard: usize,
        slot: SlotIndex,
        req: &MovReq,
    ) -> Result<Color, RegionError> {
        self.validate(slot)?;
        Ok(self
            .queue_sharded(id, shard)
            .enqueue(&self.slots, slot, req))
    }

    /// Dequeues from queue `id` (shard 0 for sharded queues); `Ok(None)`
    /// means empty.
    ///
    /// # Errors
    ///
    /// Currently infallible; `Result` reserves room for kernel-side
    /// validation failures.
    pub fn dequeue(&self, id: QueueId) -> Result<Option<Dequeued>, RegionError> {
        self.dequeue_sharded(id, 0)
    }

    /// Dequeues from shard `shard` of queue `id`; `Ok(None)` means empty.
    ///
    /// # Errors
    ///
    /// Currently infallible; `Result` reserves room for kernel-side
    /// validation failures.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range for a sharded queue id.
    pub fn dequeue_sharded(
        &self,
        id: QueueId,
        shard: usize,
    ) -> Result<Option<Dequeued>, RegionError> {
        Ok(self.queue_sharded(id, shard).dequeue(&self.slots))
    }

    /// Dequeues from queue `id` (shard 0) only if the front request
    /// satisfies `pred`; `Ok(None)` means empty *or* mismatched front
    /// (which is left in place). The batched issue path uses this to
    /// drain only requests compatible with the batch being assembled.
    ///
    /// # Errors
    ///
    /// Currently infallible; `Result` reserves room for kernel-side
    /// validation failures.
    pub fn dequeue_matching(
        &self,
        id: QueueId,
        pred: impl FnMut(&MovReq) -> bool,
    ) -> Result<Option<Dequeued>, RegionError> {
        self.dequeue_matching_sharded(id, 0, pred)
    }

    /// Like [`Region::dequeue_matching`], on shard `shard`.
    ///
    /// # Errors
    ///
    /// Currently infallible; `Result` reserves room for kernel-side
    /// validation failures.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range for a sharded queue id.
    pub fn dequeue_matching_sharded(
        &self,
        id: QueueId,
        shard: usize,
        pred: impl FnMut(&MovReq) -> bool,
    ) -> Result<Option<Dequeued>, RegionError> {
        Ok(self.queue_sharded(id, shard).dequeue_if(&self.slots, pred))
    }

    /// Attempts to recolor queue `id` (shard 0; only succeeds when empty,
    /// §4.3).
    ///
    /// # Errors
    ///
    /// [`SetColorError::NotEmpty`] if the queue holds elements.
    pub fn set_color(&self, id: QueueId, new: Color) -> Result<Color, SetColorError> {
        self.set_color_sharded(id, 0, new)
    }

    /// Attempts to recolor shard `shard` of queue `id`.
    ///
    /// # Errors
    ///
    /// [`SetColorError::NotEmpty`] if the queue holds elements.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range for a sharded queue id.
    pub fn set_color_sharded(
        &self,
        id: QueueId,
        shard: usize,
        new: Color,
    ) -> Result<Color, SetColorError> {
        self.queue_sharded(id, shard).set_color(&self.slots, new)
    }

    /// The current color of queue `id` (shard 0 for sharded queues).
    pub fn color(&self, id: QueueId) -> Color {
        self.color_sharded(id, 0)
    }

    /// The current color of shard `shard` of queue `id`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range for a sharded queue id.
    pub fn color_sharded(&self, id: QueueId, shard: usize) -> Color {
        self.queue_sharded(id, shard).color(&self.slots)
    }

    /// True if queue `id` held no element at the read instant — for the
    /// sharded queues, no element in **any** shard (idle checks).
    pub fn is_empty(&self, id: QueueId) -> bool {
        match id {
            QueueId::Staging | QueueId::Submission => {
                (0..self.shards()).all(|s| self.is_empty_sharded(id, s))
            }
            _ => self.queue(id).is_empty(&self.slots),
        }
    }

    /// True if shard `shard` of queue `id` held no element at the read
    /// instant.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range for a sharded queue id.
    pub fn is_empty_sharded(&self, id: QueueId, shard: usize) -> bool {
        self.queue_sharded(id, shard).is_empty(&self.slots)
    }

    /// Occupancy snapshot (diagnostics; meaningful when quiescent).
    /// Sharded queue counts are summed across shards.
    pub fn stats(&self) -> RegionStats {
        RegionStats {
            free: self.free.len_approx(&self.slots),
            staging: self.staging.iter().map(|q| q.len_approx(&self.slots)).sum(),
            submission: self
                .submission
                .iter()
                .map(|q| q.len_approx(&self.slots))
                .sum(),
            completion_ok: self.completion_ok.len_approx(&self.slots),
            completion_err: self.completion_err.len_approx(&self.slots),
        }
    }
}

/// Cross-shard in-flight span index.
///
/// Shard routing sends every request for the same region (VMA) to the
/// same shard, so the per-shard deferred-hazard guard already serializes
/// overlapping requests that hash together. This index is the safety net
/// for the remaining case: two *different* regions whose byte spans
/// overlap (or a routing fallback) landing on different shards. The
/// driver registers every in-flight request's source (and, for
/// replication, destination) span here and consults it before issuing.
///
/// Spans are `(base, len, token)` triples; a token may own several spans
/// and all of them are dropped by [`InflightIndex::remove`]. The set is
/// small (bounded by pipeline depth × shards), so a linear scan beats
/// anything fancier.
#[derive(Debug, Default)]
pub struct InflightIndex {
    spans: Vec<(u64, u64, u64)>,
}

impl InflightIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the half-open byte span `[base, base + len)` under
    /// `token`. Zero-length spans are ignored (they overlap nothing).
    pub fn insert(&mut self, base: u64, len: u64, token: u64) {
        if len > 0 {
            self.spans.push((base, len, token));
        }
    }

    /// Drops every span registered under `token`.
    pub fn remove(&mut self, token: u64) {
        self.spans.retain(|&(_, _, t)| t != token);
    }

    /// The token of the oldest-registered span overlapping
    /// `[base, base + len)`, if any.
    #[must_use]
    pub fn first_overlap(&self, base: u64, len: u64) -> Option<u64> {
        if len == 0 {
            return None;
        }
        let (qb, qe) = (u128::from(base), u128::from(base) + u128::from(len));
        self.spans
            .iter()
            .find(|&&(b, l, _)| qb < u128::from(b) + u128::from(l) && u128::from(b) < qe)
            .map(|&(_, _, t)| t)
    }

    /// True if no span is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of registered spans (not distinct tokens).
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movreq::MoveKind;

    fn req(id: u64) -> MovReq {
        MovReq {
            id,
            kind: MoveKind::Replicate,
            nr_pages: 1,
            page_shift: 12,
            ..MovReq::default()
        }
    }

    #[test]
    fn lifecycle_through_all_queues() {
        let r = Region::new(4).unwrap();
        let s = r.alloc_slot().unwrap();
        let color = r.enqueue(QueueId::Staging, s, &req(1)).unwrap();
        assert_eq!(color, Color::Blue);

        let d = r.dequeue(QueueId::Staging).unwrap().unwrap();
        r.enqueue(QueueId::Submission, d.slot, &d.req).unwrap();

        let d = r.dequeue(QueueId::Submission).unwrap().unwrap();
        assert_eq!(d.req.id, 1);
        r.enqueue(QueueId::CompletionOk, d.slot, &d.req).unwrap();

        let d = r.dequeue(QueueId::CompletionOk).unwrap().unwrap();
        assert_eq!(d.req.id, 1);
        r.free_slot(d.slot).unwrap();

        let stats = r.stats();
        assert_eq!(stats.free, 4);
        assert_eq!(
            stats.staging + stats.submission + stats.completion_ok + stats.completion_err,
            0
        );
    }

    #[test]
    fn capacity_limits() {
        assert!(matches!(Region::new(0), Err(RegionError::BadCapacity(0))));
        assert!(Region::new(MAX_SLOTS).is_err());
        let r = Region::new(2).unwrap();
        assert_eq!(r.capacity(), 2);
        let a = r.alloc_slot().unwrap();
        let _b = r.alloc_slot().unwrap();
        assert_eq!(r.alloc_slot(), Err(RegionError::Exhausted));
        r.free_slot(a).unwrap();
        assert!(r.alloc_slot().is_ok());
    }

    #[test]
    fn slot_validation() {
        let r = Region::new(2).unwrap();
        assert!(r.validate(0).is_ok());
        assert!(r.validate(5).is_ok()); // 2 + 4 dummies = 6 slots
        assert_eq!(r.validate(6), Err(RegionError::InvalidSlot(6)));
        assert_eq!(r.free_slot(1000), Err(RegionError::InvalidSlot(1000)));
        assert!(r.enqueue(QueueId::Staging, 999, &req(0)).is_err());
    }

    #[test]
    fn queues_are_isolated() {
        let r = Region::new(4).unwrap();
        let a = r.alloc_slot().unwrap();
        let b = r.alloc_slot().unwrap();
        r.enqueue(QueueId::Staging, a, &req(1)).unwrap();
        r.enqueue(QueueId::Submission, b, &req(2)).unwrap();
        assert!(r.dequeue(QueueId::CompletionOk).unwrap().is_none());
        assert_eq!(r.dequeue(QueueId::Submission).unwrap().unwrap().req.id, 2);
        assert_eq!(r.dequeue(QueueId::Staging).unwrap().unwrap().req.id, 1);
    }

    #[test]
    fn dequeue_matching_respects_fifo_front() {
        let r = Region::new(4).unwrap();
        let a = r.alloc_slot().unwrap();
        let b = r.alloc_slot().unwrap();
        r.enqueue(QueueId::Submission, a, &req(1)).unwrap();
        r.enqueue(QueueId::Submission, b, &req(2)).unwrap();
        // Front (id 1) mismatches: nothing moves.
        assert!(r
            .dequeue_matching(QueueId::Submission, |m| m.id == 2)
            .unwrap()
            .is_none());
        assert_eq!(r.stats().submission, 2);
        let d = r
            .dequeue_matching(QueueId::Submission, |m| m.id == 1)
            .unwrap()
            .unwrap();
        assert_eq!(d.req.id, 1);
    }

    #[test]
    fn staging_color_protocol() {
        let r = Region::new(4).unwrap();
        assert_eq!(r.color(QueueId::Staging), Color::Blue);
        let s = r.alloc_slot().unwrap();
        assert_eq!(
            r.enqueue(QueueId::Staging, s, &req(1)).unwrap(),
            Color::Blue
        );
        assert!(r.set_color(QueueId::Staging, Color::Red).is_err());
        let d = r.dequeue(QueueId::Staging).unwrap().unwrap();
        assert_eq!(r.set_color(QueueId::Staging, Color::Red), Ok(Color::Blue));
        assert_eq!(
            r.enqueue(QueueId::Staging, d.slot, &req(2)).unwrap(),
            Color::Red
        );
        assert_eq!(r.color(QueueId::Staging), Color::Red);
    }

    #[test]
    fn sharded_layout_and_isolation() {
        assert!(matches!(
            Region::new_sharded(4, 0),
            Err(RegionError::BadShardCount(0))
        ));
        let r = Region::new_sharded(4, 3).unwrap();
        assert_eq!(r.shards(), 3);
        // 4 usable + 2·3 + 2 dummies = 12 slots.
        assert!(r.validate(11).is_ok());
        assert_eq!(r.validate(12), Err(RegionError::InvalidSlot(12)));

        let a = r.alloc_slot().unwrap();
        let b = r.alloc_slot().unwrap();
        r.enqueue_sharded(QueueId::Staging, 0, a, &req(1)).unwrap();
        r.enqueue_sharded(QueueId::Staging, 2, b, &req(2)).unwrap();
        // Shards are independent FIFOs...
        assert!(r.dequeue_sharded(QueueId::Staging, 1).unwrap().is_none());
        assert_eq!(
            r.dequeue_sharded(QueueId::Staging, 2)
                .unwrap()
                .unwrap()
                .req
                .id,
            2
        );
        // ...with independent colors...
        assert_eq!(
            r.set_color_sharded(QueueId::Staging, 2, Color::Red),
            Ok(Color::Blue)
        );
        assert_eq!(r.color_sharded(QueueId::Staging, 2), Color::Red);
        assert_eq!(r.color_sharded(QueueId::Staging, 0), Color::Blue);
        // ...while the unsharded emptiness check spans all shards.
        assert!(!r.is_empty(QueueId::Staging));
        assert!(r.is_empty_sharded(QueueId::Staging, 2));
        assert_eq!(r.stats().staging, 1);
        assert_eq!(
            r.dequeue_sharded(QueueId::Staging, 0)
                .unwrap()
                .unwrap()
                .req
                .id,
            1
        );
        assert!(r.is_empty(QueueId::Staging));
    }

    #[test]
    fn single_shard_matches_seed_layout() {
        // `new` is `new_sharded(_, 1)`: same slot count, same dummy order.
        let r = Region::new(2).unwrap();
        assert_eq!(r.shards(), 1);
        assert!(r.validate(5).is_ok());
        assert_eq!(r.validate(6), Err(RegionError::InvalidSlot(6)));
    }

    #[test]
    fn inflight_index_overlap_and_removal() {
        let mut ix = InflightIndex::new();
        assert!(ix.is_empty());
        assert_eq!(ix.first_overlap(0, u64::MAX), None);

        ix.insert(0x1000, 0x2000, 7); // [0x1000, 0x3000)
        ix.insert(0x8000, 0x1000, 8); // [0x8000, 0x9000)
        ix.insert(0x9000, 0x1000, 8); // replicate dst span, same token
        assert_eq!(ix.len(), 3);

        assert_eq!(ix.first_overlap(0x2fff, 1), Some(7));
        assert_eq!(ix.first_overlap(0x3000, 0x1000), None); // half-open
        assert_eq!(ix.first_overlap(0x0, 0x1001), Some(7));
        assert_eq!(ix.first_overlap(0x8fff, 0x2000), Some(8));
        assert_eq!(ix.first_overlap(0x1000, 0), None); // empty span

        ix.remove(8); // drops both of token 8's spans
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.first_overlap(0x8000, 0x2000), None);
        ix.remove(7);
        assert!(ix.is_empty());

        // No overflow at the top of the address space.
        ix.insert(u64::MAX - 1, 10, 9);
        assert_eq!(ix.first_overlap(u64::MAX, 1), Some(9));
    }

    /// Adjacent (touching, non-overlapping) spans must never report a
    /// conflict: the intervals are half-open on both sides of the query.
    #[test]
    fn inflight_index_adjacent_spans_do_not_conflict() {
        let mut ix = InflightIndex::new();
        ix.insert(0x4000, 0x1000, 1); // [0x4000, 0x5000)
        ix.insert(0x5000, 0x1000, 2); // [0x5000, 0x6000) — touches token 1

        // The spans touch each other without overlapping: both insert
        // fine and each is found only by queries inside its own range.
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.first_overlap(0x4fff, 1), Some(1));
        assert_eq!(ix.first_overlap(0x5000, 1), Some(2));

        // A query ending exactly where a span begins, or beginning
        // exactly where a span ends, does not touch it.
        assert_eq!(ix.first_overlap(0x3000, 0x1000), None); // ends at token 1's base
        assert_eq!(ix.first_overlap(0x6000, 0x1000), None); // begins at token 2's end
                                                            // A query spanning the shared boundary sees the older span first.
        assert_eq!(ix.first_overlap(0x4fff, 2), Some(1));
        ix.remove(1);
        assert_eq!(ix.first_overlap(0x4000, 0x1000), None); // ends exactly at 0x5000
                                                            // One byte over either edge of the surviving span does conflict.
        assert_eq!(ix.first_overlap(0x4000, 0x1001), Some(2));
        assert_eq!(ix.first_overlap(0x5fff, 0x1000), Some(2));
    }

    /// The overlap test runs in u128: spans and queries whose `base +
    /// len` exceeds `u64::MAX` must neither wrap nor panic.
    #[test]
    fn inflight_index_max_address_arithmetic() {
        let mut ix = InflightIndex::new();

        // A span ending exactly at the top of the address space
        // (base + len == 2^64, representable only in u128).
        ix.insert(u64::MAX - 0xfff, 0x1000, 3);
        assert_eq!(ix.first_overlap(u64::MAX, 1), Some(3));
        assert_eq!(ix.first_overlap(u64::MAX - 0x1000, 1), None);
        // A query that also runs to the top overlaps it.
        assert_eq!(ix.first_overlap(u64::MAX - 0x1fff, 0x2000), Some(3));
        // ...but one ending exactly at the span's base does not.
        assert_eq!(ix.first_overlap(u64::MAX - 0x1fff, 0x1000), None);

        // A maximal query (the whole address space) against a maximal
        // span: base + len overflows u64 on both sides.
        ix.remove(3);
        ix.insert(1, u64::MAX, 4); // [1, 2^64 - 1 + 1) == [1, 2^64)
        assert_eq!(ix.first_overlap(0, u64::MAX), Some(4));
        assert_eq!(ix.first_overlap(u64::MAX, u64::MAX), Some(4));
        assert_eq!(ix.first_overlap(0, 1), None); // [0, 1) stops short

        // Degenerate: zero-length span at u64::MAX is ignored entirely.
        ix.remove(4);
        ix.insert(u64::MAX, 0, 5);
        assert!(ix.is_empty());
        assert_eq!(ix.first_overlap(u64::MAX, 1), None);
    }

    #[test]
    fn debug_is_nonempty() {
        let r = Region::new(2).unwrap();
        assert!(!format!("{r:?}").is_empty());
    }
}
