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
//! The journal itself is modeled as living on persistent media: it
//! survives [`crate::System::recover`] untouched. Appends are charged
//! [`memif_hwsim::CostModel::journal_write`] and happen only for
//! devices opened with [`crate::MemifConfig::journal`] set, so default
//! runs pay nothing and stay byte-identical.

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
/// and drops its plan (`pages`, `segments`), so a long run's journal
/// grows by a fixed size per retired move, not by its page count.
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
}

/// The machine-wide journal: per-device open records (so recovery can
/// rebuild devices) plus the append-ordered move records.
#[derive(Debug, Default)]
pub struct MoveJournal {
    /// Journaling devices, in open order: recovery re-opens these.
    opens: Vec<(DeviceId, SpaceId, MemifConfig)>,
    records: Vec<JournalRecord>,
    /// `index[device][req_id]` is 1 + the request's position in
    /// `records`, or 0 if it has none. Requests are keyed by id, not
    /// token: a retried issue overwrites its own record. Request ids are
    /// dense per device, so each table grows by doubling, like
    /// `records`.
    index: Vec<Vec<u32>>,
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

    /// All records, in append order.
    #[must_use]
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Number of records appended so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no record has been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
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
    /// overwrites) the record for an issued move.
    pub(crate) fn append(&mut self, record: JournalRecord) {
        match self.position(record.device, record.req.id) {
            Some(i) if self.records[i].sealed.is_none() => {
                // A retry re-planned and re-issued the same request; the
                // prior attempt was rolled back, so its plan is stale.
                let stale = std::mem::replace(&mut self.records[i], record);
                self.recycle(stale.pages, stale.segments);
            }
            _ => {
                let (device, id) = (record.device.0, record.req.id as usize);
                if self.index.len() <= device {
                    self.index.resize_with(device + 1, Vec::new);
                }
                let table = &mut self.index[device];
                if table.len() <= id {
                    table.resize(id + 1, 0);
                }
                table[id] = u32::try_from(self.records.len() + 1).expect("under 2^32 records");
                self.records.push(record);
            }
        }
    }

    /// Position in `records` of request `req_id`'s record, if any.
    fn position(&self, device: DeviceId, req_id: u64) -> Option<usize> {
        let slot = *self
            .index
            .get(device.0)?
            .get(usize::try_from(req_id).ok()?)?;
        (slot > 0).then(|| slot as usize - 1)
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
    /// persistent write). No-op for requests that were never journaled (e.g.
    /// validation rejects); a second seal of the same record is a
    /// driver bug caught by the debug_assert — the five retire sites
    /// must each fire at most once per request.
    pub(crate) fn seal(&mut self, device: DeviceId, req_id: u64, status: MoveStatus) -> bool {
        let Some(rec) = self.get_mut(device, req_id) else {
            return false;
        };
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
        true
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
        }
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
    /// Journal records examined (all appends, sealed or not).
    pub journal_records: u64,
    /// Records that were unsealed at the crash and needed recovery.
    pub recovered_requests: u64,
    /// Unsealed `Issued` records rolled back (sealed `Aborted`).
    pub rolled_back: u64,
    /// Unsealed `CopyDone` records rolled forward (sealed `Done`).
    pub redriven: u64,
    /// Terminal status of every journaled request after recovery, in
    /// journal append order: `(req_id, status, user_data)`.
    pub statuses: Vec<(u64, MoveStatus, u64)>,
}
