//! Operations 4–5 of Table 1: Release (with race detection) and Notify,
//! on the interrupt path or the kernel thread's polling path (§5.4).

use memif_hwsim::dma::{DmaOutcome, TransferId};
use memif_hwsim::{Context, CrashPoint, Phase, Sim, SimDuration, SimTime};
use memif_lockfree::{FailReason, MovReq, MoveKind, MoveStatus, QueueId, SlotIndex};
use memif_mm::{Pte, VirtAddr};

use crate::config::RaceMode;
use crate::device::{DeviceId, Inflight};
use crate::driver::{dev, dev_mut};
use crate::event::SimEvent;
use crate::log::CompletionRecord;
use crate::system::System;

/// Runs when the DMA engine finishes (or errors out) a device's
/// transfer.
pub(crate) fn on_dma_complete(
    sys: &mut System,
    sim: &mut Sim<System>,
    id: DeviceId,
    transfer: TransferId,
    outcome: DmaOutcome,
) {
    let Some(index) = dev(sys, id)
        .inflight
        .iter()
        .position(|i| i.transfer == Some(transfer))
    else {
        return; // aborted concurrently
    };

    if let DmaOutcome::Error { bytes_done } = outcome {
        // Error interrupt: the engine faulted mid-transfer. The partial
        // destination bytes of the faulting request are untrusted and
        // discarded; retire this attempt and route the request into the
        // retry machinery. The controller slot is released exactly once:
        // only if the engine still held the transfer (complete returns
        // true).
        let held_tc = dev_mut(sys, id).inflight[index].tc.take();
        if sys.dma.complete(transfer, outcome) {
            if let Some(tc) = held_tc {
                crate::driver::exec::release_tc(sys, sim, tc);
            }
        }
        let irq_cost = sys.cost.interrupt;
        sys.meter.charge(Context::Interrupt, irq_cost);
        let (token, req_id, members) = {
            let inflight = &mut dev_mut(sys, id).inflight[index];
            inflight.transfer = None;
            (
                inflight.token,
                inflight.req.id,
                std::mem::take(&mut inflight.batch_members),
            )
        };
        dev_mut(sys, id).stats.dma_errors += 1;
        sys.trace_emit(
            sim.now(),
            irq_cost,
            Context::Interrupt,
            "DMA error interrupt",
            Some(req_id),
        );
        if members.is_empty() {
            crate::driver::exec::handle_dma_failure(sys, sim, id, token, FailReason::DmaError);
            return;
        }
        // Chained batch: descriptors run in order, so segments before
        // the fault point finished and their bytes sit at the
        // destination. Attribute per request by each one's byte range
        // within the chain — fully-finished requests complete normally
        // off this (single) error interrupt; the faulting request and
        // everything after it retry or degrade individually.
        for t in std::iter::once(token).chain(members.iter().copied()) {
            let device = sys.devices[id.0].as_mut().expect("device open");
            let Some(i) = device.inflight.iter_mut().find(|i| i.token == t) else {
                continue; // aborted mid-flight
            };
            i.batch_leader = None;
            let rid = i.req.id;
            let own_bytes: u64 = i.segments.iter().map(|s| s.bytes).sum();
            let finished = i.chain_offset + own_bytes <= bytes_done;
            i.chain_offset = 0;
            if finished {
                i.completed = true;
                if let Some(w) = i.watchdog.take() {
                    sim.cancel(w);
                }
                for seg in &i.segments {
                    sys.phys.copy(seg.src, seg.dst, seg.bytes);
                }
                sys.journal.copy_done(id, rid);
                sim.schedule_after(
                    irq_cost,
                    SimEvent::IrqRelease {
                        device: id,
                        token: t,
                    },
                );
            } else {
                crate::driver::exec::handle_dma_failure(sys, sim, id, t, FailReason::DmaError);
            }
            sys.journal.set_leader(id, rid, None);
        }
        dev_mut(sys, id).spare.put_members(members);
        return;
    }

    // The bytes materialize now: perform the programmed copies — the
    // found request's own segments plus, for a chained batch, each
    // surviving member's.
    let member_tokens = std::mem::take(&mut dev_mut(sys, id).inflight[index].batch_members);
    let leader = &sys.devices[id.0].as_ref().expect("device open").inflight[index];
    for seg in &leader.segments {
        sys.phys.copy(seg.src, seg.dst, seg.bytes);
    }
    sys.journal.copy_done(id, leader.req.id);
    // Crash point: the leader's bytes are applied and journaled
    // CopyDone, the members' are not — the asymmetric mid-chain state
    // recovery must untangle (leader rolls forward, members roll back).
    if !member_tokens.is_empty() && sys.maybe_crash(sim, CrashPoint::MidChain) {
        dev_mut(sys, id).spare.put_members(member_tokens);
        return;
    }
    for t in &member_tokens {
        let device = sys.devices[id.0].as_ref().expect("device open");
        let Some(member) = device.inflight.iter().find(|i| i.token == *t) else {
            continue; // aborted mid-flight; its remap was rolled back
        };
        for seg in &member.segments {
            sys.phys.copy(seg.src, seg.dst, seg.bytes);
        }
        sys.journal.copy_done(id, member.req.id);
    }
    let held_tc = dev_mut(sys, id).inflight[index].tc.take();
    if sys.dma.complete(transfer, outcome) {
        if let Some(tc) = held_tc {
            crate::driver::exec::release_tc(sys, sim, tc);
        }
    }

    // The request stays registered (so a trapping write can still find
    // and abort it) until the Release event actually runs; it is pulled
    // out by token there. Marking it completed frees its pipeline slot.
    let inflight = &mut dev_mut(sys, id).inflight[index];
    inflight.completed = true;
    if let Some(w) = inflight.watchdog.take() {
        sim.cancel(w);
    }
    let token = inflight.token;
    let req_id = inflight.req.id;
    let interrupt_mode = inflight.interrupt_mode;
    let shard = inflight.shard;
    for t in &member_tokens {
        if let Some(i) = dev_mut(sys, id).inflight.iter_mut().find(|i| i.token == *t) {
            i.completed = true;
            i.batch_leader = None;
            i.chain_offset = 0;
        }
    }

    if interrupt_mode {
        // Interrupt path: Release and Notify run in the handler — legal
        // only because detection freed Release of sleepable locks (§5.2)
        // — then the kernel thread is woken. The notification lands
        // after the interrupt entry has been paid.
        let irq_cost = sys.cost.interrupt;
        sys.meter.charge(Context::Interrupt, irq_cost);
        {
            let stats = &mut dev_mut(sys, id).stats;
            stats.interrupts += 1;
            stats.phases.add(Phase::Interface, irq_cost);
        }
        sys.trace_emit(
            sim.now(),
            irq_cost,
            Context::Interrupt,
            "interrupt entry",
            Some(req_id),
        );
        sim.schedule_after(irq_cost, SimEvent::IrqRelease { device: id, token });
        // Batch fan-out: one interrupt was taken for the whole chain;
        // the handler releases every member, leader first (chain order).
        for t in &member_tokens {
            sim.schedule_after(
                irq_cost,
                SimEvent::IrqRelease {
                    device: id,
                    token: *t,
                },
            );
        }
    } else {
        // Polling path: the kernel thread slept through the (short)
        // transfer and wakes right about now from its timed sleep — no
        // device interrupt was taken, but the timer wakeup itself is not
        // free.
        let poll_cost = sys.cost.queue_op + sys.cost.kthread_wakeup;
        sys.meter.charge(Context::KernelThread, poll_cost);
        sys.meter.attribute_worker(shard, poll_cost);
        {
            let stats = &mut dev_mut(sys, id).stats;
            stats.polled += 1;
            stats.phases.add(Phase::Interface, poll_cost);
        }
        // The owning shard's worker may still be preparing another
        // request (pipelining); Release must wait for its CPU — one
        // thread, one activity.
        let ready_at = (sim.now() + poll_cost).max(dev(sys, id).shards[shard].busy_until);
        sys.trace_emit(
            sim.now(),
            poll_cost,
            Context::KernelThread,
            "kthread wakes from timed sleep",
            Some(req_id),
        );
        dev_mut(sys, id).shards[shard].busy_until = ready_at;
        sim.schedule_at(ready_at, SimEvent::PollRelease { device: id, token });
        // Batch fan-out: one timed wakeup serviced the whole chain; the
        // worker releases every member in chain order.
        for t in &member_tokens {
            sim.schedule_at(
                ready_at,
                SimEvent::PollRelease {
                    device: id,
                    token: *t,
                },
            );
        }
    }
    dev_mut(sys, id).spare.put_members(member_tokens);
}

/// Where a completed request retires: each site is one
/// [`SimEvent`] variant dispatching to [`retire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RetireSite {
    /// In the completion interrupt handler, after the interrupt entry
    /// has been paid ([`SimEvent::IrqRelease`]); the handler then wakes
    /// the kernel thread, whose CPU pays the wakeup.
    Interrupt,
    /// On the kernel thread after its timed poll sleep, once the
    /// worker's CPU frees up ([`SimEvent::PollRelease`]).
    Poll,
    /// On the kernel thread after the degraded CPU-copy fallback
    /// ([`SimEvent::DegradedRelease`]).
    Degraded,
}

/// Release + Notify for in-flight request `token` at `site`: the one
/// retire funnel of the three completion paths.
pub(crate) fn retire(
    sys: &mut System,
    sim: &mut Sim<System>,
    id: DeviceId,
    token: u64,
    site: RetireSite,
) {
    if sys.device(id).is_none() {
        return;
    }
    let Some(index) = dev(sys, id).inflight.iter().position(|i| i.token == token) else {
        return; // aborted in the completion (or copy) window
    };
    // Crash point: copy applied, release not yet run.
    if sys.maybe_crash(sim, CrashPoint::PreRetire) {
        return;
    }
    let inflight = dev_mut(sys, id).take_inflight(index);
    let req_id = inflight.req.id;
    let shard = inflight.shard;
    let ctx = match site {
        RetireSite::Interrupt => Context::Interrupt,
        RetireSite::Poll | RetireSite::Degraded => Context::KernelThread,
    };
    let release_cost = release_and_notify(sys, sim, id, inflight, ctx);
    let wake_delay = match site {
        RetireSite::Interrupt => {
            let wakeup = sys.cost.kthread_wakeup;
            sys.meter.charge(Context::KernelThread, wakeup);
            sys.meter.attribute_worker(shard, wakeup);
            release_cost + wakeup
        }
        RetireSite::Poll | RetireSite::Degraded => {
            // Release/Notify occupies the owning worker's CPU.
            sys.meter.attribute_worker(shard, release_cost);
            let busy_until = sim.now() + release_cost;
            let device = dev_mut(sys, id);
            device.shards[shard].busy_until = device.shards[shard].busy_until.max(busy_until);
            release_cost
        }
    };
    let label = match site {
        RetireSite::Degraded => "ops 4-5: release+notify (degraded)",
        RetireSite::Interrupt | RetireSite::Poll => "ops 4-5: release+notify",
    };
    sys.trace_emit(sim.now(), release_cost, ctx, label, Some(req_id));
    crate::driver::schedule_worker_wake(sys, sim, id, shard, wake_delay);
    crate::driver::wake_deferred_peers(sys, sim, id, shard, wake_delay);
    // Crash point: the request retired (journal sealed) an instant ago.
    sys.maybe_crash(sim, CrashPoint::PostRetire);
}

/// Op 4 + Op 5 for one completed request. Returns the CPU cost.
pub(crate) fn release_and_notify(
    sys: &mut System,
    sim: &mut Sim<System>,
    id: DeviceId,
    inflight: Inflight,
    ctx: Context,
) -> SimDuration {
    let Inflight {
        req,
        slot,
        segments,
        pages,
        page_size,
        dma_started_at,
        ..
    } = inflight;
    let race_mode = crate::driver::dev(sys, id).config.race_mode;
    let owner = crate::driver::dev(sys, id).owner;

    let mut cost = SimDuration::ZERO;
    let mut races = 0u64;

    // Op 4 — Release (migration only; replication needs no VM work).
    // The pages are the request's consecutive virtual pages, so one gang
    // write visits their entries with one descent per leaf table; each
    // page still pays its own CAS (or update and flush).
    let start = pages.first().map_or(VirtAddr::new(0), |p| p.vaddr);
    debug_assert!(pages
        .iter()
        .enumerate()
        .all(|(i, p)| p.vaddr == start.offset(i as u64 * page_size.bytes())));
    let space = &mut sys.spaces[owner.0];
    debug_assert!(
        race_mode != RaceMode::DetectFail
            || pages.iter().all(|page| {
                !space.tlb().contains(page.vaddr, page_size)
                    || space.table().peek(page.vaddr, page_size) != Some(page.installed)
            }),
        "semi-final PTE must not be TLB-resident unless referenced"
    );
    let count = pages.len() as u32;
    space
        .table_mut()
        .update_range(start, count, page_size, |i, entry| {
            let page = &pages[i as usize];
            match race_mode {
                // Clear the young bit with a CAS; failure means the entry
                // was disturbed during the transfer: a race. No TLB flush
                // on success — the semi-final PTE never entered the TLB.
                RaceMode::DetectFail => match entry {
                    Ok(Some(pte)) if pte == page.installed => Some(page.final_pte),
                    _ => {
                        races += 1;
                        None
                    }
                },
                // Writes during the transfer trapped and aborted the
                // migration, so a surviving entry can differ from the
                // semi-final only by a harmless *read* (the reference
                // cleared young). Finalize either form; anything else is
                // an anomaly — report it, but always remove the write
                // trap so the page is not protected forever.
                RaceMode::DetectRecover => match entry.expect("entry exists") {
                    Some(pte)
                        if pte == page.installed || pte == page.installed.with_young(false) =>
                    {
                        Some(page.final_pte)
                    }
                    found => {
                        races += 1;
                        Some(found.unwrap_or(Pte::EMPTY).with_watch(false))
                    }
                },
                // Linux-style: swap the migration entry for the final PTE
                // and pay the second TLB flush (below).
                RaceMode::Prevent => {
                    entry.expect("entry exists");
                    Some(page.final_pte)
                }
            }
        });
    let mut scratch = std::mem::take(&mut dev_mut(sys, id).release_scratch);
    scratch.old.clear();
    scratch.freed.clear();
    for page in &pages {
        if race_mode == RaceMode::Prevent {
            sys.spaces[owner.0]
                .tlb_mut()
                .flush_page(page.vaddr, page_size);
            cost += sys.cost.pte_update_with_flush();
        } else {
            cost += sys.cost.pte_cas;
        }
        // Remote mappers (shared pages): rewrite their migration
        // entries to the new frame; they were blocked for the window.
        for (sid, rva) in &page.remote {
            let rspace = &mut sys.spaces[sid.0];
            rspace
                .table_mut()
                .replace(*rva, page.final_pte)
                .expect("remote migration entry present");
            rspace.tlb_mut().flush_page(*rva, page_size);
            cost += sys.cost.pte_update_with_flush();
            // Drop one old-frame reference per remote mapper.
            let _ = sys.alloc.free(page.old_frame);
        }
        scratch.old.push(page.old_frame);
        cost += sys.cost.page_free;
    }
    // The owner's old-frame references go in one batch: the buddy frees
    // each run of adjacent frames at once, and each freed run's contents
    // are dropped with one discard.
    let _ = sys.alloc.free_many(&scratch.old, &mut scratch.freed);
    let bytes = page_size.bytes();
    for run in scratch
        .freed
        .chunk_by(|a, b| b.as_u64() == a.as_u64() + bytes)
    {
        sys.phys.discard(run[0], run.len() as u64 * bytes);
    }
    // Races are program errors under proceed-and-fail: the application
    // receives the equivalent of a SEGFAULT through the failure queue.
    let status = if races > 0 {
        MoveStatus::Raced
    } else {
        MoveStatus::Done
    };
    // A landed migration moved its pages off the old frames' node and
    // onto the destination (replications copy and are not counted).
    let src = match pages.first() {
        Some(page) if status == MoveStatus::Done && req.kind == MoveKind::Migrate => {
            sys.node_of(page.old_frame)
        }
        _ => None,
    };
    let device = dev_mut(sys, id);
    device.release_scratch = scratch;
    if !pages.is_empty() {
        device.stats.phases.add(Phase::Release, cost);
        device.stats.races_detected += races;
    }
    if let Some(src) = src {
        *device.stats.node_moves_out.entry(src.0).or_default() += 1;
        *device.stats.node_moves_in.entry(req.dst_node).or_default() += 1;
    }
    device.spare.put(segments, pages);
    sys.meter.charge(ctx, cost);
    cost += notify(sys, sim, id, slot, req, status, dma_started_at, ctx);
    cost
}

/// Op 5 — Notify: posts the completion to the application without any
/// user/kernel crossing, logs it, and wakes sleeping pollers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn notify(
    sys: &mut System,
    sim: &mut Sim<System>,
    id: DeviceId,
    slot: SlotIndex,
    mut req: MovReq,
    status: MoveStatus,
    dma_started_at: Option<SimTime>,
    ctx: Context,
) -> SimDuration {
    req.status = status;
    let mut cost = sys.cost.queue_op;
    sys.meter.charge(ctx, cost);

    // Seal the journal record (journaling devices only): the terminal
    // status becomes durable before the completion is posted, so a
    // crash from here on only re-reports it. Every retire site funnels
    // through this one seal; the journal debug_asserts it fires at most
    // once per request.
    if sys.journal.seal(id, req.id, status) {
        let seal_cost = sys.cost.journal_write;
        sys.meter.charge(ctx, seal_cost);
        cost += seal_cost;
    }

    let now = sim.now();
    let device = dev_mut(sys, id);
    let queue = if status.is_failure() {
        QueueId::CompletionErr
    } else {
        QueueId::CompletionOk
    };
    device
        .region
        .enqueue(queue, slot, &req)
        .expect("slot owned by driver");
    device.stats.phases.add(Phase::Notify, cost);

    // Retire-site idempotence audit: the first notification consumes the
    // submit timestamp, so a second pass for the same request means a
    // retire site re-entered — site 4/5 teardowns and the three release
    // paths must be mutually exclusive per request.
    let submitted_at = device.submit_times.remove(&req.id);
    debug_assert!(
        submitted_at.is_some(),
        "request {} notified twice (retire-site re-entry)",
        req.id
    );
    let submitted_at = submitted_at.unwrap_or(now);
    device.log.push(CompletionRecord {
        req_id: req.id,
        kind: req.kind,
        bytes: req.len_bytes(),
        submitted_at,
        dma_started_at,
        completed_at: now,
        status,
    });
    if status.is_failure() {
        device.stats.failed += 1;
    } else {
        device.stats.completed += 1;
        device.stats.bytes_moved += req.len_bytes();
    }

    // QoS retire accounting: credit the tenant, return its admission
    // budget, and let a parked request take the freed headroom. Every
    // retire site funnels through this notify, so park/re-admit needs no
    // other hook — exactly like the deferred-hazard wake protocol.
    if device.config.qos {
        let moved = if status.is_failure() {
            0
        } else {
            req.len_bytes()
        };
        sys.qos.release(memif_qos::TenantId(req.tenant), moved);
        crate::driver::readmit_parked(sys, sim, id);
    }

    // Wake anyone sleeping in poll() — the notification itself needed no
    // syscall, unlike epoll/kqueue (§7). The two poller buffers swap, so
    // neither is ever reallocated.
    let device = dev_mut(sys, id);
    std::mem::swap(&mut device.pollers, &mut device.waking);
    for waker in device.waking.drain(..) {
        sim.schedule_after(SimDuration::ZERO, waker);
    }
    cost
}

/// Retire-site idempotence audits. They trip `debug_assert!` guards, so
/// they exist only in builds that have them.
#[cfg(test)]
#[cfg(debug_assertions)]
mod tests {
    use super::*;
    use crate::api::{Memif, MoveSpec};
    use crate::config::MemifConfig;
    use memif_hwsim::NodeId;
    use memif_mm::PageSize;

    /// Runs one migrate to retirement and returns everything needed to
    /// re-enter the retire tail for the same request.
    fn retire_once(journal: bool) -> (System, Sim<System>, DeviceId, MovReq) {
        let mut sys = System::keystone_ii();
        let mut sim = Sim::new();
        let space = sys.new_space();
        let memif = Memif::open(
            &mut sys,
            space,
            MemifConfig {
                journal,
                ..MemifConfig::default()
            },
        )
        .unwrap();
        let va = sys.mmap(space, 4, PageSize::Small4K, NodeId(0)).unwrap();
        let (id, _) = memif
            .submit(
                &mut sys,
                &mut sim,
                MoveSpec::migrate(va, 4, PageSize::Small4K, NodeId(1)),
            )
            .unwrap();
        sim.run(&mut sys);
        let rec = dev(&sys, memif.device())
            .log
            .last()
            .expect("request retired");
        assert_eq!(rec.req_id, id.0);
        assert_eq!(rec.status, MoveStatus::Done);
        let req = MovReq {
            id: id.0,
            nr_pages: 4,
            page_shift: 12,
            ..MovReq::default()
        };
        (sys, sim, memif.device(), req)
    }

    /// Retire-site idempotence audit, journaled flavor: re-driving the
    /// retire tail after the record sealed trips the journal guard
    /// before anything else mutates.
    #[test]
    #[should_panic(expected = "re-sealed request")]
    fn double_driving_a_retire_site_trips_the_seal_guard() {
        let (mut sys, mut sim, id, req) = retire_once(true);
        notify(
            &mut sys,
            &mut sim,
            id,
            0,
            req,
            MoveStatus::Done,
            None,
            Context::KernelThread,
        );
    }

    /// Same audit without a journal: the consumed submit timestamp is
    /// the remaining witness that a retire path ran twice.
    #[test]
    #[should_panic(expected = "notified twice (retire-site re-entry)")]
    fn double_notify_without_journal_trips_the_submit_time_guard() {
        let (mut sys, mut sim, id, req) = retire_once(false);
        notify(
            &mut sys,
            &mut sim,
            id,
            0,
            req,
            MoveStatus::Done,
            None,
            Context::KernelThread,
        );
    }
}
