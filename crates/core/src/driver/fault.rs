//! The proceed-and-recover fault handler (§5.2).
//!
//! In [`RaceMode::DetectRecover`](crate::RaceMode::DetectRecover) the
//! Remap step write-watches migrating pages. A store that traps lands
//! here: the handler restores the original mapping for the whole
//! request, drops the outstanding DMA transfer, and enqueues the aborted
//! `mov_req` so the application learns of the abort. "The CPU's new
//! write that causes the race will thus be preserved" — the caller
//! retries the store against the restored old page and it succeeds.

use memif_hwsim::{Context, Phase, Sim};
use memif_lockfree::MoveStatus;
use memif_mm::VirtAddr;

use crate::device::DeviceId;
use crate::driver::{complete, dev, dev_mut, exec};
use crate::event::SimEvent;
use crate::system::{SpaceId, System};

/// Handles a write-protection fault at `vaddr` in `space`. Returns
/// `true` if an in-flight migration was aborted (the faulting store
/// should be retried); `false` if no migration covered the address.
pub fn handle_write_fault(
    sys: &mut System,
    sim: &mut Sim<System>,
    space: SpaceId,
    vaddr: VirtAddr,
) -> bool {
    // Find the device whose in-flight migration covers the fault.
    let hit = sys.devices.iter().flatten().find_map(|d| {
        if d.owner != space {
            return None;
        }
        d.inflight.iter().find_map(|inflight| {
            let covers = inflight.pages.iter().any(|p| {
                p.vaddr <= vaddr && vaddr.as_u64() < p.vaddr.as_u64() + inflight.page_size.bytes()
            });
            covers.then_some((d.id, inflight.token))
        })
    });
    let Some((id, token)) = hit else {
        return false;
    };
    abort_inflight(sys, sim, id, token);
    true
}

/// Aborts one in-flight migration: restores the original mapping, frees
/// the new pages, cancels the DMA transfer, and delivers an `Aborted`
/// notification. Runs in the faulting process's context.
pub(crate) fn abort_inflight(sys: &mut System, sim: &mut Sim<System>, id: DeviceId, token: u64) {
    let index = dev(sys, id)
        .inflight
        .iter()
        .position(|i| i.token == token)
        .expect("fault hit an inflight request");
    let mut inflight = dev_mut(sys, id).take_inflight(index);
    if let Some(watchdog) = inflight.watchdog.take() {
        sim.cancel(watchdog);
    }

    // Batch bookkeeping. A dying *leader* hands its combined chained
    // transfer (and controller slot) to the first surviving member —
    // aborting it would cancel every member's DMA for one request's
    // fault. The heir's byte offsets stay valid (the chain geometry is
    // unchanged); the old leader's segments still transfer but their
    // bytes are simply never copied out (its destination frames are
    // freed below). The leader's chaos watchdog was cancelled above and
    // is not re-armed — its deadline belonged to the old token. A dying
    // *member* just unlinks from its leader's roster.
    if !inflight.batch_members.is_empty() {
        let mut members = std::mem::take(&mut inflight.batch_members);
        let heir_pos = members
            .iter()
            .position(|t| dev(sys, id).inflight.iter().any(|i| i.token == *t));
        if let Some(pos) = heir_pos {
            let heir_token = members.remove(pos);
            let transfer = inflight.transfer.take();
            let tc = inflight.tc.take();
            let cfg = inflight.cfg.take();
            let interrupt_mode = inflight.interrupt_mode;
            for m in &members {
                let mut rid = None;
                if let Some(i) = dev_mut(sys, id).inflight.iter_mut().find(|i| i.token == *m) {
                    i.batch_leader = Some(heir_token);
                    rid = Some(i.req.id);
                }
                // Keep the journal's chain linkage in step with the
                // promotion, so a crash after it still reconstructs the
                // surviving chain correctly.
                if let Some(rid) = rid {
                    sys.journal.set_leader(id, rid, Some(heir_token));
                }
            }
            let heir = dev_mut(sys, id)
                .inflight
                .iter_mut()
                .find(|i| i.token == heir_token)
                .expect("heir located above");
            heir.batch_leader = None;
            heir.batch_members = members;
            heir.transfer = transfer;
            heir.tc = tc;
            heir.interrupt_mode = interrupt_mode;
            let heir_req = heir.req.id;
            let relaunch = cfg.is_some() && transfer.is_none();
            if relaunch {
                // The batch had not launched yet (the pending Launch —
                // or the controller wait — carries the dead token and
                // will no-op): the heir takes the programmed chain and
                // a fresh Launch. `cancel_waiting` below clears any
                // old-token controller-queue entry.
                heir.cfg = cfg;
                sim.schedule_after(
                    memif_hwsim::SimDuration::ZERO,
                    SimEvent::Launch {
                        device: id,
                        token: heir_token,
                    },
                );
            }
            sys.journal.set_leader(id, heir_req, None);
        }
        // No surviving member: fall through and abort like a solo.
    } else if let Some(leader) = inflight.batch_leader.take() {
        let aborted_token = inflight.token;
        if let Some(l) = dev_mut(sys, id)
            .inflight
            .iter_mut()
            .find(|i| i.token == leader)
        {
            l.batch_members.retain(|t| *t != aborted_token);
        }
    }

    // Drop the outstanding DMA transfer (it may not have launched yet,
    // or may still be waiting for a transfer controller).
    let (transfer, tc) = (inflight.transfer.take(), inflight.tc.take());
    exec::reclaim_engine(sys, sim, id, token, transfer, tc);

    teardown_inflight(sys, sim, id, inflight, MoveStatus::Aborted);
}

/// Rolls back one already-removed in-flight migration — restores the
/// original PTEs, frees the would-be destination frames — and delivers
/// `status` (`Aborted` for proceed-and-recover, `Failed` when the DMA
/// path gave up without a CPU fallback). The caller has already
/// reclaimed the engine-side resources.
pub(crate) fn teardown_inflight(
    sys: &mut System,
    sim: &mut Sim<System>,
    id: DeviceId,
    inflight: crate::device::Inflight,
    status: MoveStatus,
) {
    // Restore the original PTEs (including remote mappers of shared
    // pages) and release the would-be destination.
    let cost = exec::restore_pages(sys, id, &inflight.pages, inflight.page_size, true);
    sys.meter.charge(Context::Syscall, cost);
    {
        let stats = &mut dev_mut(sys, id).stats;
        if status == MoveStatus::Aborted {
            stats.aborts += 1;
        }
        stats.phases.add(Phase::Release, cost);
    }

    complete::notify(
        sys,
        sim,
        id,
        inflight.slot,
        inflight.req,
        status,
        inflight.dma_started_at,
        Context::Syscall,
    );

    // Let the owning shard's worker move on to queued requests.
    let wakeup = sys.cost.kthread_wakeup;
    sys.meter.charge(Context::KernelThread, wakeup);
    sys.meter.attribute_worker(inflight.shard, wakeup);
    crate::driver::schedule_worker_wake(sys, sim, id, inflight.shard, cost + wakeup);
    crate::driver::wake_deferred_peers(sys, sim, id, inflight.shard, cost + wakeup);
    dev_mut(sys, id)
        .spare
        .put(inflight.segments, inflight.pages);
}
