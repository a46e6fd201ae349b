//! The persistent write-ahead move journal.
//!
//! memif's moves are asynchronous kernel-side work, so a crash can
//! strike while a migration is mid-flight. Following the
//! detectably-recoverable style of memento (PLDI 2023), every *issued*
//! request writes one journal record before its DMA launches and seals
//! it with the terminal status at retire. Together with the transient
//! PTEs a migration leaves in the page table (migration entries,
//! watched or semi-final mappings), the journal classifies every
//! in-flight move after a crash:
//!
//! * **unsealed, milestone `Issued`** — no bytes reached the
//!   destination; recovery *rolls back* (restore original PTEs, free
//!   the new frames) and seals the record `Aborted`.
//! * **unsealed, milestone `CopyDone`** — the bytes are in place but
//!   the release never ran; recovery *rolls forward* (install the
//!   final PTEs, free the old frames) and seals the record `Done`.
//! * **sealed** — the move retired before the crash; recovery only
//!   reports its status.
//!
//! Requests still sitting in the submission queues at the crash were
//! never journaled and simply vanish — the classic write-ahead-log
//! contract that unacknowledged work is the client's to resubmit.
//!
//! A sealed record lives until the application has retrieved its
//! completion *and* that retrieval is durable. [`crate::Memif::retrieve_completed`]
//! marks the record retrieved; the acknowledgement rides on the next
//! journal write (an append or a seal, which the model already charges)
//! and the record is dropped there. The journal therefore holds the
//! moves in flight plus the completions not yet durably acknowledged,
//! not one record per request ever issued. The contract: every move
//! happens exactly once, and every completion is delivered at least
//! once until it is acknowledged — a crash between a retrieval and the
//! next journal write reports that request again.
//!
//! The journal itself is modeled as living on persistent media: it
//! survives [`crate::System::recover`] untouched, except for the
//! acknowledgements still waiting for a write, which were volatile.
//! Writes are charged [`memif_hwsim::CostModel::journal_write`] and
//! happen only for devices opened with [`crate::MemifConfig::journal`]
//! set, so default runs pay nothing and stay byte-identical.

use memif_hwsim::dma::SgSegment;
use memif_lockfree::{MovReq, MoveStatus};
use memif_mm::{PageSize, Pte, VirtAddr};

use crate::config::MemifConfig;
use crate::device::{DeviceId, PagePlan};
use crate::system::SpaceId;

/// How far a journaled move had progressed when last recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalMilestone {
    /// Issued: planned and (about to be) launched; destination bytes
    /// not yet in place.
    Issued,
    /// The payload bytes have been applied at the destination; only
    /// the release (PTE finalization + notification) remains.
    CopyDone,
}

/// The journaled shadow of one page's migration plan — everything
/// recovery needs to redo or undo the remap.
#[derive(Debug, Clone)]
pub struct JournalPage {
    /// The page's virtual address in the owning space.
    pub vaddr: VirtAddr,
    /// Frame backing the page before the move.
    pub old_frame: memif_hwsim::PhysAddr,
    /// Freshly allocated destination frame.
    pub new_frame: memif_hwsim::PhysAddr,
    /// PTE before the move (rollback target).
    pub original: Pte,
    /// Final PTE after a successful move (roll-forward target).
    pub final_pte: Pte,
    /// Additional mappers of a shared page: their PTEs move with ours.
    pub remote: Vec<(SpaceId, VirtAddr)>,
}

impl JournalPage {
    pub(crate) fn of_plan(plan: &PagePlan) -> Self {
        JournalPage {
            vaddr: plan.vaddr,
            old_frame: plan.old_frame,
            new_frame: plan.new_frame,
            original: plan.original,
            final_pte: plan.final_pte,
            remote: plan.remote.clone(),
        }
    }
}

/// One write-ahead record: a single issued move request.
///
/// A sealed record keeps the request's identity and terminal status
/// and drops its plan (`pages`, `segments`); it is dropped itself once
/// the application's retrieval of its completion is durable.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    /// Device the request was issued on.
    pub device: DeviceId,
    /// Owning address space.
    pub space: SpaceId,
    /// Driver-internal token of the issue (re-issued retries reuse the
    /// record and refresh the token).
    pub token: u64,
    /// The request as issued.
    pub req: MovReq,
    /// Issue shard that carried the request.
    pub shard: usize,
    /// Batch linkage: `Some(leader_token)` for chained members, `None`
    /// for leaders and solo requests. Updated on heir promotion.
    pub batch_leader: Option<u64>,
    /// Page size of the covered region.
    pub page_size: PageSize,
    /// Per-page remap plans (empty for replications, which change no
    /// mappings). Released when the record is sealed: only recovery of
    /// an unsealed record reads them.
    pub pages: Vec<JournalPage>,
    /// The scatter-gather segments of this member's payload. Released
    /// when the record is sealed, like `pages`.
    pub segments: Vec<SgSegment>,
    /// Progress milestone last durably recorded.
    pub milestone: JournalMilestone,
    /// Terminal status once the move retired; `None` while in flight.
    pub sealed: Option<MoveStatus>,
    /// The application's retrieval of the completion is durable: the
    /// record is dead and leaves the journal once every older record
    /// has. Only a record retrieved out of append order is seen with
    /// this set.
    pub acknowledged: bool,
}

/// One device's part of the request-id index.
#[derive(Debug, Default)]
struct IdIndex {
    /// `(request id, position in records)` of each record not yet
    /// acknowledged, sorted by id and searched by bisection, so its
    /// length is bounded by the retained records whatever ids they
    /// hold. Requests are keyed by id, not token: a retried issue
    /// overwrites its own record.
    ids: Vec<(u64, usize)>,
    /// Records appended for this device (retries overwrite, and do not
    /// count).
    appended: u64,
    /// One past the highest request id appended for this device.
    next_id: u64,
}

impl IdIndex {
    /// Where request `id` is, or would be inserted, in `ids`. Ids are
    /// issued in order and retained ones are mostly consecutive, so a
    /// new id goes at the end and a retained one is tried `id - first
    /// id` places from the front before bisecting.
    fn find(&self, id: u64) -> Result<usize, usize> {
        let (Some(&(first, _)), Some(&(last, _))) = (self.ids.first(), self.ids.last()) else {
            return Err(0);
        };
        if id > last {
            return Err(self.ids.len());
        }
        let k = id.wrapping_sub(first) as usize;
        if self.ids.get(k).is_some_and(|e| e.0 == id) {
            return Ok(k);
        }
        self.ids.binary_search_by_key(&id, |&(id, _)| id)
    }

    /// Points request `id` at position `at`, shadowing any older
    /// record with that id.
    fn set(&mut self, id: u64, at: usize) {
        match self.find(id) {
            Ok(k) => self.ids[k].1 = at,
            Err(k) => self.ids.insert(k, (id, at)),
        }
    }
}

/// The machine-wide journal: per-device open records (so recovery can
/// rebuild devices) plus the append-ordered move records still needed.
#[derive(Debug, Default)]
pub struct MoveJournal {
    /// Journaling devices, in open order: recovery re-opens these.
    opens: Vec<(DeviceId, SpaceId, MemifConfig)>,
    /// Records in append order. `records[..head]` are acknowledged and
    /// wait to be compacted away; the rest are retained.
    records: Vec<JournalRecord>,
    head: usize,
    /// Acknowledged records in `records`, in the prefix or behind an
    /// older retained record.
    dead: usize,
    /// Per-device request-id index, by device id.
    index: Vec<IdIndex>,
    /// Positions in `records` of retrieved records whose acknowledgement
    /// rides on the next journal write. Volatile: a crash loses them.
    pending_acks: Vec<usize>,
    /// Plan lists released by sealed records, reused by the next
    /// appends.
    spare_pages: Vec<Vec<JournalPage>>,
    spare_segments: Vec<Vec<SgSegment>>,
}

impl MoveJournal {
    /// Records a journaling device's open (durable device metadata).
    pub(crate) fn record_open(&mut self, device: DeviceId, owner: SpaceId, config: &MemifConfig) {
        self.opens.push((device, owner, config.clone()));
    }

    /// Journaling devices in open order.
    #[must_use]
    pub fn opens(&self) -> &[(DeviceId, SpaceId, MemifConfig)] {
        &self.opens
    }

    /// The retained records, in append order: every record from the
    /// oldest one not yet both sealed and durably acknowledged on.
    #[must_use]
    pub fn records(&self) -> &[JournalRecord] {
        &self.records[self.head..]
    }

    /// Number of records appended so far, dropped ones included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.iter().map(|w| w.appended as usize).sum()
    }

    /// True when no record has been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries in the request-id index, across devices: one per
    /// retained record not yet acknowledged.
    #[must_use]
    pub fn index_slots(&self) -> usize {
        self.index.iter().map(|d| d.ids.len()).sum()
    }

    /// `(device, req_id)` of each retrieved request whose
    /// acknowledgement waits for the next journal write, in retrieval
    /// order. A crash before that write loses them, and recovery
    /// reports these requests again.
    pub fn pending_acks(&self) -> impl Iterator<Item = (DeviceId, u64)> + '_ {
        self.pending_acks.iter().map(|&i| {
            let r = &self.records[i];
            (r.device, r.req.id)
        })
    }

    /// Records appended for `device` so far.
    pub(crate) fn appended_on(&self, device: DeviceId) -> u64 {
        self.index.get(device.0).map_or(0, |d| d.appended)
    }

    /// One past the highest request id appended for `device`: where a
    /// re-opened device's ids continue.
    pub(crate) fn next_id_on(&self, device: DeviceId) -> u64 {
        self.index.get(device.0).map_or(0, |d| d.next_id)
    }

    /// Empty plan lists for the next record, recycled from sealed ones.
    pub(crate) fn spare_lists(&mut self) -> (Vec<JournalPage>, Vec<SgSegment>) {
        (
            self.spare_pages.pop().unwrap_or_default(),
            self.spare_segments.pop().unwrap_or_default(),
        )
    }

    /// Keeps a released record's plan lists for reuse.
    fn recycle(&mut self, pages: Vec<JournalPage>, segments: Vec<SgSegment>) {
        crate::device::keep(&mut self.spare_pages, pages);
        crate::device::keep(&mut self.spare_segments, segments);
    }

    /// Appends (or, for a re-issued retry of the same request,
    /// overwrites) the record for an issued move. The write also makes
    /// every pending acknowledgement durable.
    pub(crate) fn append(&mut self, record: JournalRecord) {
        self.persist_acks();
        match self.position(record.device, record.req.id) {
            Some(i) if self.records[i].sealed.is_none() => {
                // A retry re-planned and re-issued the same request; the
                // prior attempt was rolled back, so its plan is stale.
                let stale = std::mem::replace(&mut self.records[i], record);
                self.recycle(stale.pages, stale.segments);
            }
            _ => {
                let (device, id) = (record.device.0, record.req.id);
                if self.index.len() <= device {
                    self.index.resize_with(device + 1, IdIndex::default);
                }
                let d = &mut self.index[device];
                d.appended += 1;
                d.next_id = d.next_id.max(id.saturating_add(1));
                d.set(id, self.records.len());
                self.records.push(record);
            }
        }
    }

    /// Position in `records` of request `req_id`'s record, if any.
    fn position(&self, device: DeviceId, req_id: u64) -> Option<usize> {
        let d = self.index.get(device.0)?;
        Some(d.ids[d.find(req_id).ok()?].1)
    }

    fn get_mut(&mut self, device: DeviceId, req_id: u64) -> Option<&mut JournalRecord> {
        let i = self.position(device, req_id)?;
        self.records.get_mut(i)
    }

    /// Marks the request's payload bytes as applied at the destination.
    pub(crate) fn copy_done(&mut self, device: DeviceId, req_id: u64) {
        if let Some(rec) = self.get_mut(device, req_id) {
            debug_assert!(rec.sealed.is_none(), "copy_done after seal");
            rec.milestone = JournalMilestone::CopyDone;
        }
    }

    /// Updates a member's batch linkage (heir promotion, disband).
    pub(crate) fn set_leader(&mut self, device: DeviceId, req_id: u64, leader: Option<u64>) {
        if let Some(rec) = self.get_mut(device, req_id) {
            rec.batch_leader = leader;
        }
    }

    /// Seals a record with its terminal status and releases its plan;
    /// returns whether a record was sealed (so the caller can charge the
    /// persistent write, which also makes every pending acknowledgement
    /// durable). No-op for requests that were never journaled (e.g.
    /// validation rejects); a second seal of the same record is a
    /// driver bug caught by the debug_assert — the five retire sites
    /// must each fire at most once per request.
    pub(crate) fn seal(&mut self, device: DeviceId, req_id: u64, status: MoveStatus) -> bool {
        let Some(i) = self.position(device, req_id) else {
            return false;
        };
        let rec = &mut self.records[i];
        debug_assert!(
            rec.sealed.is_none(),
            "retire site re-sealed request {req_id} ({:?} -> {status:?})",
            rec.sealed
        );
        if rec.sealed.is_some() {
            return false;
        }
        rec.sealed = Some(status);
        let pages = std::mem::take(&mut rec.pages);
        let segments = std::mem::take(&mut rec.segments);
        self.recycle(pages, segments);
        self.persist_acks();
        true
    }

    /// The application retrieved request `req_id`'s completion: its
    /// acknowledgement becomes durable with the next journal write.
    /// No-op for requests that were never journaled.
    pub(crate) fn retrieved(&mut self, device: DeviceId, req_id: u64) {
        if let Some(i) = self.position(device, req_id) {
            debug_assert!(
                self.records[i].sealed.is_some(),
                "request {req_id} retrieved before its seal"
            );
            self.pending_acks.push(i);
        }
    }

    /// Makes the pending acknowledgements durable: their records die
    /// and leave the index, and once the dead records are at least as
    /// many as the retained ones, the list is compacted in place. Each
    /// compaction moves no more records than died since the last, and
    /// the list never holds more than twice its retained records.
    fn persist_acks(&mut self) {
        if self.pending_acks.is_empty() {
            return;
        }
        for k in 0..self.pending_acks.len() {
            let i = self.pending_acks[k];
            let rec = &mut self.records[i];
            // A record queued twice is acknowledged once.
            if std::mem::replace(&mut rec.acknowledged, true) {
                continue;
            }
            self.dead += 1;
            let d = &mut self.index[rec.device.0];
            if let Ok(k) = d.find(rec.req.id) {
                if d.ids[k].1 == i {
                    d.ids.remove(k);
                }
            }
        }
        self.pending_acks.clear();
        while self.records.get(self.head).is_some_and(|r| r.acknowledged) {
            self.head += 1;
        }
        if self.dead >= self.records.len() - self.dead {
            self.compact();
        }
    }

    /// Removes every acknowledged record and re-points the index at
    /// the records' new positions. Allocation-free once the tables have
    /// grown to the retained records.
    fn compact(&mut self) {
        debug_assert!(self.pending_acks.is_empty(), "positions would go stale");
        self.records.retain(|r| !r.acknowledged);
        self.head = 0;
        self.dead = 0;
        for d in &mut self.index {
            d.ids.clear();
        }
        for (i, r) in self.records.iter().enumerate() {
            self.index[r.device.0].set(r.req.id, i);
        }
    }

    /// Crash: the acknowledgements still waiting for a journal write
    /// were volatile and are lost; the acknowledged records go.
    pub(crate) fn lose_pending_acks(&mut self) {
        self.pending_acks.clear();
        self.compact();
    }

    /// Recovery reported every retained record to the application: that
    /// delivery is acknowledged with the next journal write, like a
    /// retrieval.
    pub(crate) fn delivered_all(&mut self) {
        self.pending_acks.extend(self.head..self.records.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(req_id: u64, token: u64) -> JournalRecord {
        JournalRecord {
            device: DeviceId(0),
            space: SpaceId(0),
            token,
            req: MovReq {
                id: req_id,
                ..MovReq::default()
            },
            shard: 0,
            batch_leader: None,
            page_size: PageSize::Small4K,
            pages: Vec::new(),
            segments: Vec::new(),
            milestone: JournalMilestone::Issued,
            sealed: None,
            acknowledged: false,
        }
    }

    /// Appends, seals and retrieves request `id`.
    fn retire(j: &mut MoveJournal, id: u64) {
        j.append(record(id, id));
        assert!(j.seal(DeviceId(0), id, MoveStatus::Done));
        j.retrieved(DeviceId(0), id);
    }

    fn ids(j: &MoveJournal) -> Vec<u64> {
        j.records().iter().map(|r| r.req.id).collect()
    }

    #[test]
    fn an_acknowledgement_drops_its_record_at_the_next_write() {
        let mut j = MoveJournal::default();
        j.append(record(0, 0));
        j.append(record(1, 1));
        j.seal(DeviceId(0), 0, MoveStatus::Done);
        j.retrieved(DeviceId(0), 0);
        assert_eq!(ids(&j), [0, 1], "a retrieval alone is not durable");
        j.seal(DeviceId(0), 1, MoveStatus::Done);
        assert_eq!(ids(&j), [1], "the seal carried the acknowledgement");
        assert_eq!(j.len(), 2, "len counts appends");
        assert_eq!(j.position(DeviceId(0), 0), None, "left the index");
        j.retrieved(DeviceId(0), 1);
        j.append(record(2, 2));
        assert_eq!(ids(&j), [2], "the append carried it");
    }

    #[test]
    fn out_of_order_acknowledgements_stay_bounded() {
        let mut j = MoveJournal::default();
        // Request 0 is never retrieved; everything after it is.
        j.append(record(0, 0));
        j.seal(DeviceId(0), 0, MoveStatus::Done);
        for id in 1..1_000 {
            retire(&mut j, id);
        }
        j.append(record(1_000, 1_000));
        assert!(j.records.len() <= 4, "{} records kept", j.records.len());
        assert!(
            j.index_slots() <= j.records().len(),
            "{} index entries for {} retained records",
            j.index_slots(),
            j.records().len()
        );
        assert_eq!(j.records()[0].req.id, 0, "the unretrieved one stays");
        assert!(j
            .records()
            .iter()
            .all(|r| r.req.id == 0 || r.req.id == 1_000 || r.acknowledged));
        assert_eq!(j.len(), 1_001);
    }

    #[test]
    fn a_second_acknowledgement_of_one_record_counts_once() {
        let mut j = MoveJournal::default();
        retire(&mut j, 0);
        j.retrieved(DeviceId(0), 0);
        j.append(record(1, 1));
        assert_eq!((j.dead, ids(&j)), (0, vec![1]));
    }

    #[test]
    fn in_order_retirement_keeps_a_small_index() {
        let mut j = MoveJournal::default();
        for id in 0..10_000 {
            retire(&mut j, id);
        }
        j.append(record(10_000, 10_000));
        assert!(j.records.len() <= 2, "{} records kept", j.records.len());
        assert_eq!(j.index_slots(), 1, "only request 10,000 is indexed");
        assert_eq!(ids(&j), [10_000]);
    }

    #[test]
    fn a_late_issue_below_the_retained_ids_is_indexed() {
        // Request 3 issues after 0..10 except itself retired, and after
        // compaction dropped every id below 10.
        let mut j = MoveJournal::default();
        for id in (0..10).filter(|&id| id != 3) {
            retire(&mut j, id);
        }
        j.append(record(10, 10));
        assert_eq!(j.index[0].ids, [(10, 0)]);
        j.append(record(3, 3));
        assert_eq!(j.index[0].ids, [(3, 1), (10, 0)], "sorted by id");
        assert_eq!(ids(&j), [10, 3]);
        let indexed = |id| j.position(DeviceId(0), id).map(|i| j.records[i].req.id);
        assert_eq!((indexed(3), indexed(10)), (Some(3), Some(10)));
        assert!(j.seal(DeviceId(0), 3, MoveStatus::Done));
        assert_eq!(j.records()[1].sealed, Some(MoveStatus::Done));
        assert!(j.seal(DeviceId(0), 10, MoveStatus::Done));
        assert_eq!(j.len(), 11);
    }

    #[test]
    fn a_crash_loses_pending_acknowledgements() {
        let mut j = MoveJournal::default();
        retire(&mut j, 0);
        j.lose_pending_acks();
        assert_eq!(ids(&j), [0], "reported again after the crash");
        j.delivered_all();
        assert_eq!(
            j.next_id_on(DeviceId(0)),
            1,
            "the re-opened device's ids go on"
        );
        j.append(record(1, 7));
        assert_eq!(
            ids(&j),
            [1],
            "recovery's report was acknowledged by the next write"
        );
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn retry_overwrites_its_unsealed_record() {
        let mut j = MoveJournal::default();
        j.append(record(7, 1));
        j.append(record(7, 2));
        assert_eq!(j.len(), 1, "retries reuse the record, keyed by req id");
        assert_eq!(j.records()[0].token, 2, "retry refreshes the token");
    }

    #[test]
    fn seal_charges_once_and_skips_unjournaled_requests() {
        let mut j = MoveJournal::default();
        j.append(record(7, 1));
        assert!(j.seal(DeviceId(0), 7, MoveStatus::Done));
        assert_eq!(j.records()[0].sealed, Some(MoveStatus::Done));
        assert!(
            !j.seal(DeviceId(0), 8, MoveStatus::Done),
            "never-journaled requests (validation rejects) seal nothing"
        );
    }

    #[test]
    fn seal_releases_the_plan() {
        let mut j = MoveJournal::default();
        let frame = memif_hwsim::PhysAddr::new(0x8000_0000);
        let page = JournalPage {
            vaddr: VirtAddr::new(0x4000_0000),
            old_frame: frame,
            new_frame: frame.offset(4096),
            original: Pte::mapping(frame, PageSize::Small4K),
            final_pte: Pte::mapping(frame.offset(4096), PageSize::Small4K),
            remote: Vec::new(),
        };
        let segment = SgSegment {
            src: frame,
            dst: frame.offset(4096),
            bytes: 4096,
        };
        j.append(JournalRecord {
            pages: vec![page.clone()],
            segments: vec![segment],
            ..record(7, 1)
        });
        j.append(JournalRecord {
            pages: vec![page],
            segments: vec![segment],
            ..record(8, 2)
        });
        assert!(j.seal(DeviceId(0), 7, MoveStatus::Done));
        let sealed = &j.records()[0];
        assert_eq!(sealed.sealed, Some(MoveStatus::Done));
        assert_eq!((sealed.req.id, sealed.token), (7, 1), "identity kept");
        assert!(sealed.pages.is_empty() && sealed.segments.is_empty());
        assert_eq!(sealed.pages.capacity() + sealed.segments.capacity(), 0);
        let open = &j.records()[1];
        assert_eq!(
            (open.pages.len(), open.segments.len()),
            (1, 1),
            "an unsealed record keeps what recovery needs"
        );
    }

    #[test]
    fn heir_promotion_relinks_members() {
        let mut j = MoveJournal::default();
        j.append(JournalRecord {
            batch_leader: Some(10),
            ..record(7, 1)
        });
        j.set_leader(DeviceId(0), 7, Some(11));
        assert_eq!(j.records()[0].batch_leader, Some(11));
        j.set_leader(DeviceId(0), 7, None);
        assert_eq!(j.records()[0].batch_leader, None, "heir itself unlinks");
    }

    /// Retire-site idempotence audit: all five retire paths funnel into
    /// one seal, so a second seal of the same record means a retire
    /// path re-entered — caught by the guard in debug builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "re-sealed request 7")]
    fn double_seal_is_a_retire_reentry_bug() {
        let mut j = MoveJournal::default();
        j.append(record(7, 1));
        j.seal(DeviceId(0), 7, MoveStatus::Done);
        j.seal(DeviceId(0), 7, MoveStatus::Aborted);
    }

    /// Copy progress reported after the request already retired means a
    /// completion path fired out of order.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "copy_done after seal")]
    fn copy_done_after_seal_is_a_reentry_bug() {
        let mut j = MoveJournal::default();
        j.append(record(7, 1));
        j.seal(DeviceId(0), 7, MoveStatus::Done);
        j.copy_done(DeviceId(0), 7);
    }
}

/// What [`crate::System::recover`] did, record by record.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Journal records appended before the crash, dropped ones
    /// included.
    pub journal_records: u64,
    /// Unsealed `Issued` records rolled back (sealed `Aborted`).
    pub rolled_back: u64,
    /// Unsealed `CopyDone` records rolled forward (sealed `Done`).
    pub redriven: u64,
    /// Terminal status of every journaled request whose completion was
    /// not durably acknowledged — the moves in flight at the crash and
    /// the completions the application had not retrieved, or retrieved
    /// too late for the acknowledgement to persist — in journal append
    /// order: `(req_id, status, user_data)`.
    pub statuses: Vec<(u64, MoveStatus, u64)>,
}

impl RecoveryReport {
    /// Records that were unsealed at the crash and needed recovery.
    #[must_use]
    pub fn recovered_requests(&self) -> u64 {
        self.rolled_back + self.redriven
    }
}
