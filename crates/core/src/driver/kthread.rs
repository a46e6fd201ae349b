//! The memif kernel workers (§5.4).
//!
//! Once woken, a worker issues all requests queued on its issue shard —
//! from the shard's submission queue and directly from its staging
//! queue — one at a time, continuing from each completion. When both
//! queues are drained it recolors the shard's staging queue **blue**,
//! handing flushing responsibility back to the application, and goes
//! back to sleep. Running on schedulable kernel threads (not in the
//! application's context) shields the data-intensive application from
//! context switches and exceptions, and permits the sleepable operations
//! Remap needs.
//!
//! With `issue_shards` > 1 each shard's worker models its own CPU
//! (`IssueShard::busy_until`), so S workers prepare requests
//! concurrently while contending for the shared transfer controllers
//! and descriptor pool. Region-affinity routing (see `api::submit`)
//! guarantees same-region requests share a shard, so the per-shard FIFO
//! and the deferred-hazard guard compose exactly as in the single-worker
//! driver; the device-wide span index extends the guard across shards.

use std::collections::VecDeque;

use memif_hwsim::{Context, Sim};
use memif_lockfree::{Color, Dequeued, MovReq, QueueId};

use crate::device::DeviceId;
use crate::driver::exec::issue;
use crate::driver::{dev, dev_mut, region_fault};
use crate::event::SimEvent;
use crate::system::System;

/// A fresh wakeup of shard `shard`'s worker: counts a wakeup if the
/// round actually runs (the early-outs — pipeline full, CPU still busy —
/// were never real wakeups and are not counted).
pub(crate) fn run(sys: &mut System, sim: &mut Sim<System>, id: DeviceId, shard: usize) {
    // This wake has now fired: clear the armed-wake marker so wake
    // deduplication (`driver::schedule_worker_wake`) never skips a wake
    // on the strength of an event that already dispatched.
    if sys.device(id).is_some() {
        let device = dev_mut(sys, id);
        if device.shards[shard].armed_wake == Some(sim.now()) {
            device.shards[shard].armed_wake = None;
        }
    }
    run_round(sys, sim, id, shard, true);
}

/// The worker's continuation after preparing a request: same round, but
/// never counts a wakeup (the thread was already awake).
pub(crate) fn run_continue(sys: &mut System, sim: &mut Sim<System>, id: DeviceId, shard: usize) {
    run_round(sys, sim, id, shard, false);
}

/// One scheduling round of a shard's worker: issue the next queued
/// request — if the shard's pipeline has room — or go idle.
///
/// With `pipeline_depth` > 1 the worker prepares request *k+1* while
/// request *k*'s transfer is still on the engine (the EDMA3's multiple
/// transfer controllers run them concurrently), overlapping the
/// driver's CPU time with DMA time. The depth budget is per shard: each
/// worker keeps its own requests pipelined.
fn run_round(
    sys: &mut System,
    sim: &mut Sim<System>,
    id: DeviceId,
    shard: usize,
    count_wakeup: bool,
) {
    if sys.device(id).is_none() {
        return; // device closed while the wakeup was in flight
    }
    let depth = dev(sys, id).config.pipeline_depth.max(1);
    // A chained batch occupies one pipeline slot (one engine launch):
    // members ride their leader's transfer and do not count.
    if dev(sys, id)
        .inflight
        .iter()
        .filter(|i| i.shard == shard && !i.completed && i.batch_leader.is_none())
        .count()
        >= depth
    {
        return; // pipeline full; a completion re-runs us
    }
    if sim.now() < dev(sys, id).shards[shard].busy_until {
        // The worker's CPU is mid-preparation of an earlier request; its
        // own continuation (scheduled for that instant) picks up the
        // queues. One thread, one request at a time.
        return;
    }
    if count_wakeup {
        // Dedupe same-instant wakeups: when a peer wake (a conflicting
        // request retiring on another shard) lands at the same instant
        // as this shard's own wake, both events reach this point if the
        // first round issued nothing — but a `wake_up()` on an
        // already-running thread is a no-op, one logical wakeup.
        let device = dev_mut(sys, id);
        if device.shards[shard].last_counted_wakeup != Some(sim.now()) {
            device.shards[shard].last_counted_wakeup = Some(sim.now());
            device.stats.kthread_wakeups += 1;
        }
    }

    loop {
        // Deferred requests first: one may have been waiting on a
        // conflict that has since retired. They were dequeued (and their
        // queue operation charged) in an earlier round, so re-examining
        // them costs nothing, and each issues alone. FIFO scan keeps
        // same-region order.
        let parked = {
            let device = dev(sys, id);
            device.shards[shard]
                .deferred
                .iter()
                .position(|d| conflicting_token(device, &d.req).is_none())
        };
        let (first, assemble) = match parked {
            Some(pos) => (dev_mut(sys, id).shards[shard].deferred.remove(pos), false),
            None => {
                let queue_cost = sys.cost.queue_op;
                sys.meter.charge_worker(shard, queue_cost);
                match dequeue_next(sys, sim, id, shard) {
                    Err(()) => return, // region fault already reported
                    Ok(Some(deq)) if defer_if_conflicting(sys, id, shard, deq) => continue,
                    Ok(Some(deq)) => (deq, true),
                    Ok(None) => {
                        // Both queues drained: hand the flush duty back
                        // to the application. A failed recolor means new
                        // requests raced in — keep draining.
                        let region = &dev(sys, id).region;
                        if region
                            .set_color_sharded(QueueId::Staging, shard, Color::Blue)
                            .is_err()
                        {
                            continue;
                        }
                        sys.trace_emit(
                            sim.now(),
                            memif_hwsim::SimDuration::ZERO,
                            Context::KernelThread,
                            "queues drained: staging recolored blue, kthread sleeps",
                            None,
                        );
                        return; // idle; apps flush + ioctl from now on
                    }
                }
            }
        };
        let mut batch = std::mem::take(&mut dev_mut(sys, id).shards[shard].batch);
        batch.push(first);
        if assemble {
            assemble_batch(sys, id, shard, &mut batch);
        }
        let elapsed = issue(sys, sim, id, &batch, Context::KernelThread, 0, shard);
        // Whether launched or rejected, the worker's CPU is busy for
        // `elapsed`; it looks for more work afterwards (and issues it if
        // the pipeline still has room).
        dev_mut(sys, id).shards[shard].busy_until = sim.now() + elapsed;
        sys.meter.attribute_worker(shard, elapsed);
        if dev(sys, id).config.qos {
            // Weighted-fair accounting: the round's service bytes draw
            // down the tenant's DRR deficit (a batch is one tenant —
            // `assemble_batch` enforces it under QoS).
            let tenant = first.req.tenant;
            let served_bytes = batch.iter().map(|d| d.req.len_bytes()).sum();
            dev_mut(sys, id).shards[shard]
                .drr
                .charge(memif_qos::TenantId(tenant), served_bytes);
            sys.meter.attribute_tenant(tenant, elapsed);
        }
        batch.clear();
        dev_mut(sys, id).shards[shard].batch = batch;
        sim.schedule_after(elapsed, SimEvent::KthreadContinue { device: id, shard });
        return;
    }
}

/// Issue-time hazard guard: a request whose pages overlap a
/// still-in-flight request must wait for it to retire. Planning it now
/// would re-read (and overwrite) the in-flight remap's semi-final PTEs —
/// with out-of-order completions (a lost interrupt riding out its
/// watchdog while younger requests finish) the application can legally
/// have both queued. FIFO within a region is preserved: a later
/// same-region request conflicts with the same in-flight entry and
/// parks behind this one. The span index is device-wide, so the guard
/// also sees requests another shard put in flight; the conflicting
/// request's retire path wakes every shard with deferred work. Parks
/// `deq` on shard `shard` and returns `true` if it conflicts.
pub(crate) fn defer_if_conflicting(
    sys: &mut System,
    id: DeviceId,
    shard: usize,
    deq: Dequeued,
) -> bool {
    let Some(tok) = conflicting_token(dev(sys, id), &deq.req) else {
        return false;
    };
    let cross = dev(sys, id)
        .inflight
        .iter()
        .find(|i| i.token == tok)
        .is_some_and(|i| i.shard != shard);
    let device = dev_mut(sys, id);
    device.stats.requests_deferred += 1;
    if cross {
        device.stats.cross_shard_deferred += 1;
    }
    device.shards[shard].deferred.push(deq);
    true
}

/// Takes the next request off shard `shard`'s queues (Submission first,
/// then Staging — the seed's order) and keeps the per-tenant queue
/// counts current. On a QoS device with two or more tenants active on
/// the shard, the dequeue is **weighted-fair**: the shared queues only
/// serve their front, so the worker first drains them into the shard's
/// per-tenant software queues (`IssueShard::pending`), then the
/// deficit-round-robin state picks the tenant whose byte deficit allows
/// service and the oldest request *of that tenant* is taken — other
/// tenants' requests stay listed, in order. With QoS off (or one
/// tenant) this is the plain FIFO prefix drain, instruction for
/// instruction, and the software queues are never touched.
///
/// `Err(())` means a region fault was reported; the round must stop.
fn dequeue_next(
    sys: &mut System,
    sim: &mut Sim<System>,
    id: DeviceId,
    shard: usize,
) -> Result<Option<Dequeued>, ()> {
    use memif_qos::TenantId;
    if !dev(sys, id).qos_multi(shard) {
        let device = dev(sys, id);
        let deq = match device.region.dequeue_sharded(QueueId::Submission, shard) {
            Ok(Some(d)) => Ok(Some(d)),
            Ok(None) => device.region.dequeue_sharded(QueueId::Staging, shard),
            Err(e) => Err(e),
        };
        return match deq {
            Ok(Some(d)) => {
                let tenant = d.req.tenant;
                dev_mut(sys, id).note_dequeued(shard, tenant);
                Ok(Some(d))
            }
            Ok(None) => Ok(None),
            Err(e) => {
                region_fault(sys, sim, id, Context::KernelThread, &e);
                Err(())
            }
        };
    }

    // Drain mode: move everything off the shared queues onto the
    // per-tenant software queues. Each pull pays a queue operation, as
    // the plain path's per-round dequeue does.
    loop {
        let device = dev(sys, id);
        let deq = match device.region.dequeue_sharded(QueueId::Submission, shard) {
            Ok(Some(d)) => Some(d),
            Ok(None) => match device.region.dequeue_sharded(QueueId::Staging, shard) {
                Ok(d) => d,
                Err(e) => {
                    region_fault(sys, sim, id, Context::KernelThread, &e);
                    return Err(());
                }
            },
            Err(e) => {
                region_fault(sys, sim, id, Context::KernelThread, &e);
                return Err(());
            }
        };
        let Some(d) = deq else { break };
        sys.meter.charge_worker(shard, sys.cost.queue_op);
        let tenant = d.req.tenant;
        let device = dev_mut(sys, id);
        device.note_dequeued(shard, tenant);
        device.shards[shard]
            .pending
            .entry(tenant)
            .or_default()
            .push_back(d);
    }

    // Serve the software queues weighted-fair. A single listed tenant
    // needs no arbitration; with several, DRR picks — `pick` always
    // returns a tenant for a non-empty active set.
    let tenants: Vec<u16> = dev(sys, id).shards[shard].pending.keys().copied().collect();
    let choice = match tenants.len() {
        0 => return Ok(None),
        1 => tenants[0],
        _ => {
            let pairs: Vec<(TenantId, u32)> = tenants
                .iter()
                .map(|t| (TenantId(*t), sys.qos.weight(TenantId(*t))))
                .collect();
            dev_mut(sys, id).shards[shard]
                .drr
                .pick(pairs.iter().map(|(t, _)| *t), |t| {
                    pairs.iter().find(|(x, _)| *x == t).map_or(1, |(_, w)| *w)
                })
                .expect("DRR pick on a non-empty active set")
                .0
        }
    };
    let device = dev_mut(sys, id);
    let queue = device.shards[shard]
        .pending
        .get_mut(&choice)
        .expect("picked tenant is listed");
    let d = queue.pop_front().expect("listed tenants have requests");
    if queue.is_empty() {
        device.shards[shard].pending.remove(&choice);
    }
    Ok(Some(d))
}

/// Drains up to `batch_max` compatible requests behind the batch's
/// first member into it: same kind and page size (one chain, one
/// geometry), the combined page count bounded by the descriptor pool,
/// and no address overlap with an earlier batch member (FIFO is the
/// queues' only ordering guarantee — an overlapping request must stay
/// behind the batch). Only this shard's queues are probed — a batch
/// never crosses shards — and none at all with `batch_max` 1.
/// Incompatible requests are left in place, in order. Each extra probe
/// pays a queue operation like the first dequeue; a region fault merely
/// stops assembly — the already-drained requests must still be served.
fn assemble_batch(sys: &mut System, id: DeviceId, shard: usize, batch: &mut Vec<Dequeued>) {
    let batch_max = dev(sys, id).config.batch_max.max(1);
    let max_pages = sys.dma.max_segments();
    let first = batch[0].req;
    // Under QoS a batch never mixes tenants: the weighted-fair dequeue
    // charged this round to `first`'s tenant, so only that tenant's
    // requests may ride the chain.
    let same_tenant = dev(sys, id).config.qos.then_some(first.tenant);
    let mut total_pages = first.nr_pages as usize;
    while batch.len() < batch_max && total_pages < max_pages {
        let queue_cost = sys.cost.queue_op;
        sys.meter.charge_worker(shard, queue_cost);
        let device = dev(sys, id);
        let fits = |m: &MovReq| {
            m.kind == first.kind
                && m.page_shift == first.page_shift
                && same_tenant.is_none_or(|t| m.tenant == t)
                && total_pages + m.nr_pages as usize <= max_pages
                && !overlaps_batch(batch, m)
                && conflicting_token(device, m).is_none()
        };
        let queue_hit =
            match device
                .region
                .dequeue_matching_sharded(QueueId::Submission, shard, fits)
            {
                Ok(Some(d)) => Some(d),
                Ok(None) => device
                    .region
                    .dequeue_matching_sharded(QueueId::Staging, shard, fits)
                    .unwrap_or_default(),
                Err(_) => None,
            };
        let next = match (queue_hit, same_tenant) {
            (Some(d), _) => {
                // Left the shared queues here: keep the count current.
                // (Software-queue pulls below were already noted at
                // drain time.)
                dev_mut(sys, id).note_dequeued(shard, d.req.tenant);
                Some(d)
            }
            (None, Some(t)) => {
                // Under QoS drain mode the shared queues were already
                // emptied into the per-tenant software queues; the
                // leader's own list front is the only other legal
                // source (same tenant, FIFO within it).
                let front_fits = {
                    let device = dev(sys, id);
                    device.shards[shard]
                        .pending
                        .get(&t)
                        .and_then(VecDeque::front)
                        .is_some_and(|d| fits(&d.req))
                };
                if front_fits {
                    let device = dev_mut(sys, id);
                    let list = device.shards[shard]
                        .pending
                        .get_mut(&t)
                        .expect("front just matched");
                    let d = list.pop_front();
                    if list.is_empty() {
                        device.shards[shard].pending.remove(&t);
                    }
                    d
                } else {
                    None
                }
            }
            (None, None) => None,
        };
        let Some(d) = next else { break };
        total_pages += d.req.nr_pages as usize;
        batch.push(d);
    }
}

/// The virtual address ranges `req` reads or writes: its source, and
/// for a replication its destination too.
pub(crate) fn spans_of(req: &MovReq) -> impl Iterator<Item = (u64, u64)> {
    let len = u64::from(req.nr_pages) << req.page_shift;
    let dst = (req.kind == memif_lockfree::MoveKind::Replicate).then_some((req.dst_base, len));
    std::iter::once((req.src_base, len)).chain(dst)
}

/// The token of an in-flight request (any shard; including
/// completed-but-unreleased entries, whose semi-final PTEs are still
/// installed) whose address ranges overlap `req`'s, if one exists. Such
/// a request cannot be planned yet: its page walk would observe — and
/// its remap overwrite — the in-flight entry's transient mappings. The
/// check runs against the device-wide span index, which mirrors
/// `inflight` exactly (spans registered at issue, dropped at retire).
pub(crate) fn conflicting_token(device: &crate::device::MemifDevice, req: &MovReq) -> Option<u64> {
    spans_of(req).find_map(|(base, len)| device.spans.first_overlap(base, len))
}

/// True if any of `req`'s address ranges intersects one of a batch
/// member's.
fn overlaps_batch(batch: &[Dequeued], req: &MovReq) -> bool {
    batch.iter().any(|member| {
        spans_of(&member.req).any(|(mbase, mlen)| {
            spans_of(req).any(|(base, len)| base < mbase + mlen && mbase < base + len)
        })
    })
}
