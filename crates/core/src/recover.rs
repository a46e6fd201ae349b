//! Crash recovery: rebuilding a consistent machine from the persistent
//! move journal ([`crate::MoveJournal`]) and the surviving page tables.
//!
//! A crash halts the world: every pending event dies undelivered and
//! all volatile state — DMA engine chains, transfer controllers,
//! bandwidth flows, device queues, and the contents of every
//! non-persistent memory node — is lost. [`System::arm_crash`] halts at
//! a chosen crash opportunity: the end of any dispatched event, a
//! chained batch's completion between its leader's copy and its
//! members', or a journaled retrieval before its acknowledgement is
//! durable. [`System::force_crash`] halts at once.
//! [`System::recover`] is the reboot path. It terminates every journaled
//! move in **exactly one** terminal status:
//!
//! * sealed and durably acknowledged before the crash → already gone
//!   from the journal: the application has its status;
//! * sealed but not durably acknowledged → reported as-is (the seal is
//!   durable; the acknowledgement was not);
//! * unsealed at milestone `Issued` → **rolled back**: original PTEs
//!   restored, destination frames freed, sealed `Aborted`;
//! * unsealed at milestone `CopyDone` with every destination byte on
//!   persistent media → **rolled forward**: final PTEs installed, old
//!   frames freed, sealed `Done`;
//! * unsealed at `CopyDone` but with a *volatile* destination → the
//!   copied bytes did not survive, so the move rolls back like `Issued`.
//!
//! Modeling notes, also spelled out in `docs/DESIGN.md` §13: page
//! tables and the frame allocator are treated as recoverable (a real
//! kernel reconstructs them from its persistent process image during
//! reboot); requests staged but never issued were never journaled and
//! simply vanish — the write-ahead contract makes unacknowledged work
//! the application's to resubmit. Race detection cannot run post-crash
//! (the CAS-witness CPU state is gone), so a rolled-forward move seals
//! `Done` unconditionally.

use memif_hwsim::Sim;
use memif_lockfree::MoveStatus;

use crate::device::MemifDevice;
use crate::journal::{JournalMilestone, JournalRecord, RecoveryReport};
use crate::log::CompletionRecord;
use crate::system::System;

impl System {
    /// Recovers the machine after a crash. Safe (and a
    /// near-no-op) on an uncrashed system: the report then just lists
    /// the sealed records not yet durably acknowledged.
    ///
    /// Only devices opened with [`crate::MemifConfig::journal`] are
    /// rebuilt — a non-journaled device's entire state was volatile and
    /// is unrecoverable by design. Completions posted before the crash
    /// sat in volatile queues, and retrievals whose acknowledgement had
    /// not reached the journal were lost with them; the returned
    /// [`RecoveryReport::statuses`] re-delivers every journaled request
    /// not durably acknowledged — the ones recovered here plus the
    /// sealed ones. A durably acknowledged request is not reported
    /// again: its record is gone. The report itself is acknowledged by
    /// the next journal write, like a retrieval.
    pub fn recover(&mut self, sim: &mut Sim<System>) -> RecoveryReport {
        let mut report = RecoveryReport {
            journal_records: self.journal.len() as u64,
            ..RecoveryReport::default()
        };
        if !self.crashed {
            for rec in self.journal.records() {
                if let (Some(status), false) = (rec.sealed, rec.acknowledged) {
                    report
                        .statuses
                        .push((rec.req.id, status, rec.req.user_data));
                }
            }
            return report;
        }
        self.journal.lose_pending_acks();

        // Drain the dead world: dispatch drops every pending event while
        // the crashed flag is up, so this only advances the clock to the
        // last scheduled instant.
        while sim.step(self) {}

        // Transient-PTE audit (debug builds): every migration entry or
        // write-watch a move left behind must be covered by an unsealed
        // journal record — an orphan would be a page stuck unreachable
        // forever. Only meaningful when every open device journaled;
        // a non-journaled device legitimately strands its transients.
        #[cfg(debug_assertions)]
        if self.devices.iter().flatten().all(|d| d.config.journal) {
            let covered: std::collections::HashSet<(usize, u64)> = self
                .journal
                .records()
                .iter()
                .filter(|r| r.sealed.is_none())
                .flat_map(|r| {
                    r.pages.iter().flat_map(move |p| {
                        std::iter::once((r.space.0, p.vaddr.as_u64()))
                            .chain(p.remote.iter().map(|(sid, rva)| (sid.0, rva.as_u64())))
                    })
                })
                .collect();
            for (sid, space) in self.spaces.iter().enumerate() {
                for (va, pte) in space.scan_transient() {
                    debug_assert!(
                        covered.contains(&(sid, va.as_u64())),
                        "orphan transient PTE at space {sid} va {va}: {pte}"
                    );
                }
            }
        }

        // Volatile memory nodes lose their contents; persistent (NVM)
        // banks keep theirs — that asymmetry is what makes roll-forward
        // sound.
        let volatile: Vec<(memif_hwsim::PhysAddr, u64)> = self
            .topo
            .all_nodes()
            .iter()
            .filter(|n| !n.kind.is_persistent())
            .map(|n| (n.base, n.bytes))
            .collect();
        for (base, bytes) in volatile {
            self.phys.discard(base, bytes);
        }

        // Reset the volatile hardware: in-flight descriptor chains,
        // transfer-controller slots, bandwidth flows, CPU TLBs.
        self.dma.reset_volatile();
        self.tc.reset_volatile();
        self.flows.reset_volatile(sim);
        for space in &mut self.spaces {
            space.tlb_mut().flush_all();
        }

        // Device state (queues, in-flight records, logs) was volatile.
        // Re-open journaling devices at their recorded ids so journal
        // records resolve; everything else stays closed. Request ids
        // continue past every id the journal recorded, so a request
        // submitted after the reboot never shares an id with one the
        // report below names.
        self.devices.clear();
        let opens: Vec<_> = self.journal.opens().to_vec();
        for (id, owner, config) in opens {
            while self.devices.len() <= id.0 {
                self.devices.push(None);
            }
            let mut device = MemifDevice::new(id, owner, config)
                .expect("region geometry was valid at first open");
            device.next_req_id = self.journal.next_id_on(id);
            self.devices[id.0] = Some(device);
        }

        // Classify and terminate every in-flight move, in journal append
        // order (the order they were issued).
        let records: Vec<JournalRecord> = self.journal.records().to_vec();
        for rec in &records {
            if rec.sealed.is_some() {
                continue;
            }
            let dst_persistent = rec.segments.iter().all(|s| {
                self.node_of(s.dst)
                    .and_then(|n| self.topo.node(n))
                    .is_some_and(|node| node.kind.is_persistent())
            });
            let forward = rec.milestone == JournalMilestone::CopyDone && dst_persistent;
            let status = if forward {
                self.roll_forward(rec);
                MoveStatus::Done
            } else {
                self.roll_back(rec);
                MoveStatus::Aborted
            };
            self.journal.seal(rec.device, rec.req.id, status);
            if forward {
                report.redriven += 1;
            } else {
                report.rolled_back += 1;
            }
            if let Some(device) = self.device_mut(rec.device) {
                if forward {
                    device.stats.redriven += 1;
                    device.stats.completed += 1;
                    device.stats.bytes_moved += rec.req.len_bytes();
                } else {
                    device.stats.rolled_back += 1;
                    device.stats.failed += 1;
                }
                device.log.push(CompletionRecord {
                    req_id: rec.req.id,
                    kind: rec.req.kind,
                    bytes: rec.req.len_bytes(),
                    submitted_at: sim.now(),
                    dma_started_at: None,
                    completed_at: sim.now(),
                    status,
                });
            }
        }

        // Mirror the journal's per-device append count into the rebuilt
        // stats so `memifctl stats` reports it after a reboot.
        for device in self.devices.iter_mut().flatten() {
            device.stats.journal_records = self.journal.appended_on(device.id);
        }

        for rec in self.journal.records() {
            let status = rec.sealed.expect("every record sealed above");
            report
                .statuses
                .push((rec.req.id, status, rec.req.user_data));
        }
        self.journal.delivered_all();

        self.crashed = false;
        if let Some(log) = &mut self.event_log {
            log.push(format!(
                "{{\"t\":{},\"type\":\"recover\",\"records\":{},\"rolled_back\":{},\"redriven\":{}}}",
                sim.now().as_ns(),
                report.journal_records,
                report.rolled_back,
                report.redriven
            ));
        }
        report
    }

    /// Restores the pre-move mapping of an interrupted migration: the
    /// exact PTE image the journal recorded, remote mappers included;
    /// destination frames return to the allocator. Mirrors the live
    /// driver's teardown path. Pure seal for replications (no mappings
    /// changed).
    fn roll_back(&mut self, rec: &JournalRecord) {
        for page in &rec.pages {
            let space = &mut self.spaces[rec.space.0];
            space
                .table_mut()
                .replace(page.vaddr, page.original)
                .expect("journaled page still mapped");
            for (sid, rva) in &page.remote {
                let restored = page.original.with_young(false);
                let rspace = &mut self.spaces[sid.0];
                rspace
                    .table_mut()
                    .replace(*rva, restored)
                    .expect("journaled remote mapping still present");
                let _ = self.alloc.free(page.new_frame);
            }
            let _ = self.alloc.free(page.new_frame);
            if self.alloc.frame_info(page.new_frame).is_none() {
                self.phys.discard(page.new_frame, rec.page_size.bytes());
            }
        }
    }

    /// Completes an interrupted migration whose payload already reached
    /// persistent destination frames: installs the final PTEs (remote
    /// mappers included) and frees the old frames. Mirrors the live
    /// driver's release path, minus race detection — the CAS witness
    /// died with the CPUs.
    fn roll_forward(&mut self, rec: &JournalRecord) {
        for page in &rec.pages {
            let space = &mut self.spaces[rec.space.0];
            space
                .table_mut()
                .replace(page.vaddr, page.final_pte)
                .expect("journaled page still mapped");
            for (sid, rva) in &page.remote {
                let rspace = &mut self.spaces[sid.0];
                rspace
                    .table_mut()
                    .replace(*rva, page.final_pte)
                    .expect("journaled remote mapping still present");
                let _ = self.alloc.free(page.old_frame);
            }
            let freed = self.alloc.free(page.old_frame).is_ok();
            if freed && self.alloc.frame_info(page.old_frame).is_none() {
                self.phys.discard(page.old_frame, rec.page_size.bytes());
            }
        }
    }
}
