//! Operations 1–3 of Table 1: Prep (gang lookup), Remap, DMA config and
//! launch.

use memif_hwsim::dma::SgSegment;
use memif_hwsim::{CompletionDelivery, Context, Phase, PhysAddr, SimDuration};
use memif_lockfree::{Dequeued, FailReason, MovReq, MoveKind, MoveStatus};
use memif_mm::{PageSize, Pte, VirtAddr};

use crate::config::{RaceMode, RETRY_BACKOFF, WATCHDOG_FACTOR, WATCHDOG_SLACK};
use crate::device::{DeviceId, Inflight, PagePlan, PlanScratch};
use crate::driver::{complete, dev, dev_mut, fault, kthread};
use crate::event::SimEvent;
use crate::system::System;

/// A planned request: its scatter-gather segments, its remap, and the
/// CPU cost of planning it.
#[derive(Debug)]
pub(crate) struct Plan {
    segments: Vec<SgSegment>,
    pages: Vec<PagePlan>,
    page_size: PageSize,
    prep_cost: SimDuration,
    remap_cost: SimDuration,
    /// Segments eliminated by coalescing (0 with coalescing off).
    coalesced_away: u64,
}

/// Merges adjacent segments whose source **and** destination runs are
/// both physically contiguous into one larger descriptor, in place.
/// Returns the number of segments eliminated.
fn coalesce_in_place(segs: &mut Vec<SgSegment>) -> u64 {
    if segs.len() < 2 {
        return 0;
    }
    let before = segs.len();
    let mut w = 0usize;
    for r in 1..segs.len() {
        let seg = segs[r];
        let prev = segs[w];
        if prev.src.offset(prev.bytes) == seg.src && prev.dst.offset(prev.bytes) == seg.dst {
            segs[w].bytes += seg.bytes;
        } else {
            w += 1;
            segs[w] = seg;
        }
    }
    segs.truncate(w + 1);
    (before - segs.len()) as u64
}

/// Books the coalescing savings of a freshly built plan: eliminated
/// segments and the descriptor field writes they would have cost.
fn record_coalescing(sys: &mut System, id: DeviceId, plan: &Plan) {
    if plan.coalesced_away > 0 {
        let stats = &mut dev_mut(sys, id).stats;
        stats.segments_coalesced += plan.coalesced_away;
        stats.descriptor_writes_saved +=
            plan.coalesced_away * u64::from(memif_hwsim::dma::PARAM_FIELDS);
    }
}

/// CPU codec work a segment list implies on topologies with a
/// compressed bank: bytes landing in such a bank charge compression,
/// bytes leaving one charge decompression — costed kernel work like the
/// CPU-copy degradation path, attributed separately in the meter.
/// Returns the charged duration (zero on ordinary topologies).
fn codec_charge(sys: &mut System, segments: &[SgSegment], ctx: Context) -> SimDuration {
    if !sys.topo.all_nodes().iter().any(|n| n.kind.is_compressed()) {
        return SimDuration::ZERO;
    }
    let kind_of = |sys: &System, addr: PhysAddr| {
        sys.topo
            .all_nodes()
            .iter()
            .find(|n| n.contains(addr))
            .map(|n| n.kind)
    };
    let (mut into, mut out_of) = (0u64, 0u64);
    for seg in segments {
        if kind_of(sys, seg.dst).is_some_and(memif_hwsim::MemoryKind::is_compressed) {
            into += seg.bytes;
        }
        if kind_of(sys, seg.src).is_some_and(memif_hwsim::MemoryKind::is_compressed) {
            out_of += seg.bytes;
        }
    }
    let mut cost = SimDuration::ZERO;
    if into > 0 {
        let c = sys.cost.compress(into);
        sys.meter.charge_compress(ctx, c);
        cost += c;
    }
    if out_of > 0 {
        let c = sys.cost.decompress(out_of);
        sys.meter.charge_decompress(ctx, c);
        cost += c;
    }
    cost
}

/// Runs operations 1–3 for `batch` in context `ctx` and returns the
/// kernel time consumed (the caller resumes after it). A solo request
/// is a batch of one. Each member is planned (its remap installed) on
/// its own; the survivors' segment lists are concatenated into **one**
/// scatter-gather chain, programmed and launched once, completing with
/// a single interrupt whose handler fans status back out per request.
/// A plan rejection notifies that member alone. Descriptor exhaustion
/// hands every member to the retry budget individually, at `attempt`:
/// retry, degrade and fail operate per request, never per batch.
pub(crate) fn issue(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    batch: &[Dequeued],
    ctx: Context,
    attempt: u32,
    shard: usize,
) -> SimDuration {
    let mut elapsed = SimDuration::ZERO;
    let mut scratch = std::mem::take(&mut dev_mut(sys, id).shards[shard].scratch);
    for deq in batch {
        match plan_request(sys, id, &deq.req, &mut scratch) {
            Ok(p) => scratch.planned.push((*deq, p)),
            Err((status, cost)) => {
                elapsed += cost;
                sys.meter.charge(ctx, cost);
                complete::notify(sys, sim, id, deq.slot, deq.req, status, None, ctx);
            }
        }
    }
    if !scratch.planned.is_empty() {
        elapsed = issue_planned(sys, sim, id, &mut scratch, ctx, attempt, shard, elapsed);
    }
    dev_mut(sys, id).shards[shard].scratch = scratch;
    elapsed
}

/// [`issue`] from the charge of Prep and Remap on: programs and launches
/// the chain of every member in `scratch.planned` (draining it),
/// `elapsed` into the issue. Returns the issue's total elapsed time.
#[allow(clippy::too_many_arguments)]
fn issue_planned(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    scratch: &mut PlanScratch,
    ctx: Context,
    attempt: u32,
    shard: usize,
    mut elapsed: SimDuration,
) -> SimDuration {
    let planned = &mut scratch.planned;
    let mut prep = SimDuration::ZERO;
    let mut remap = SimDuration::ZERO;
    for (_, p) in planned.iter() {
        record_coalescing(sys, id, p);
        prep += p.prep_cost;
        remap += p.remap_cost;
    }
    sys.meter.charge(ctx, prep + remap);
    {
        let stats = &mut dev_mut(sys, id).stats;
        stats.phases.add(Phase::Prep, prep);
        stats.phases.add(Phase::Remap, remap);
    }
    elapsed += prep + remap;

    // Op 3, once: program the concatenated chain. The engine-level reuse
    // switch follows the device's configuration (ablation A1).
    scratch.chain.clear();
    for (_, p) in planned.iter() {
        scratch.chain.extend_from_slice(&p.segments);
    }
    sys.dma
        .set_reuse_enabled(dev(sys, id).config.descriptor_reuse);
    let cfg = match sys.dma.configure_segments(&scratch.chain, &sys.cost) {
        Ok(cfg) => cfg,
        Err(memif_hwsim::dma::ChainError::AllBusy) => {
            // Every descriptor is tied up in other tenants' in-flight
            // transfers. A real driver waits for the PaRAM.
            for (deq, plan) in planned.drain(..) {
                elapsed =
                    descriptors_exhausted(sys, sim, id, deq, plan, ctx, attempt, shard, elapsed);
            }
            return elapsed;
        }
        Err(
            memif_hwsim::dma::ChainError::TooLarge { .. }
            | memif_hwsim::dma::ChainError::Empty
            | memif_hwsim::dma::ChainError::MixedSizes,
        ) => {
            // Cannot ever fit or malformed scatter-gather geometry
            // (validation and batch assembly bound the page count by the
            // pool size and plans use one uniform page size, so this is
            // belt-and-braces).
            for (deq, plan) in planned.drain(..) {
                restore_pages(sys, id, &plan.pages, plan.page_size, false);
                dev_mut(sys, id).spare.put(plan.segments, plan.pages);
                let status = MoveStatus::Invalid;
                complete::notify(sys, sim, id, deq.slot, deq.req, status, None, ctx);
            }
            return elapsed;
        }
    };
    sys.meter.charge(ctx, cfg.config_cost);
    elapsed += cfg.config_cost;
    let n = planned.len();
    {
        let stats = &mut dev_mut(sys, id).stats;
        stats.phases.add(Phase::DmaConfig, cfg.config_cost);
        stats.descriptors_written += cfg.descriptors as u64;
        if n >= 2 {
            stats.requests_batched += n as u64;
        }
    }

    // One completion for the whole chain: the leader's mode is decided
    // by the combined size. Members remember their own-size mode for
    // the day they are split off into solo retries.
    let threshold = dev(sys, id).poll_threshold(sys.cost.poll_threshold_bytes);
    let batch_interrupt = cfg.bytes >= threshold;
    let leader = planned[0].0.req;
    let mut total_pages = 0;
    let mut cfg = Some(cfg);
    let mut offset = 0u64;
    let mut leader_token = None;
    let mut member_tokens = if n >= 2 {
        dev_mut(sys, id).spare.members.pop().unwrap_or_default()
    } else {
        Vec::new()
    };
    for (deq, plan) in planned.drain(..) {
        // Compressed-tier moves pay their codec before the engine starts.
        elapsed += codec_charge(sys, &plan.segments, ctx);
        total_pages += deq.req.nr_pages;
        let own_bytes: u64 = plan.segments.iter().map(|s| s.bytes).sum();
        let interrupt_mode = match leader_token {
            None => batch_interrupt,
            Some(_) => own_bytes >= threshold,
        };
        let (token, journal_cost) = register_inflight(
            sys,
            id,
            &deq,
            cfg.take(),
            plan,
            interrupt_mode,
            attempt,
            shard,
            (offset, leader_token),
            ctx,
        );
        elapsed += journal_cost;
        offset += own_bytes;
        match leader_token {
            None => leader_token = Some(token),
            Some(_) => member_tokens.push(token),
        }
    }
    let leader_token = leader_token.expect("a planned batch has a leader");
    if !member_tokens.is_empty() {
        // The leader was registered first of the `n` entries just pushed.
        let device = dev_mut(sys, id);
        let at = device.inflight.len() - n;
        debug_assert_eq!(device.inflight[at].token, leader_token);
        device.inflight[at].batch_members = member_tokens;
    }

    if sys.tracing() {
        let label = if n == 1 {
            format!("ops 1-3: prep+remap+cfg ({} pages)", leader.nr_pages)
        } else {
            format!("ops 1-3: batched prep+remap+cfg ({n} reqs, {total_pages} pages)")
        };
        sys.trace_emit(sim.now(), elapsed, ctx, label, Some(leader.id));
    }
    // The transfer begins once the CPU-side work above has elapsed.
    sim.schedule_after(
        elapsed,
        SimEvent::Launch {
            device: id,
            token: leader_token,
        },
    );
    elapsed
}

/// The descriptor pool is exhausted for `deq`, planned `elapsed` into
/// its issue at attempt `attempt`. Returns the issue's elapsed time.
/// The fault-free path keeps its historical unbounded fixed backoff;
/// under chaos the backoff doubles per attempt and `max_dma_retries`
/// bounds it, after which the request is served degraded (the remap is
/// still installed) or rolled back and failed — never dropped silently.
#[allow(clippy::too_many_arguments)]
fn descriptors_exhausted(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    deq: Dequeued,
    plan: Plan,
    ctx: Context,
    attempt: u32,
    shard: usize,
    elapsed: SimDuration,
) -> SimDuration {
    let chaos = sys.chaos_enabled();
    let (max_retries, fallback) = {
        let c = &dev(sys, id).config;
        (c.max_dma_retries, c.cpu_fallback)
    };
    let exhausted = chaos && attempt >= max_retries;
    if exhausted && fallback {
        let link = (0, None);
        let (token, journal_cost) =
            register_inflight(sys, id, &deq, None, plan, false, attempt, shard, link, ctx);
        let elapsed = elapsed + journal_cost;
        sim.schedule_after(
            elapsed,
            SimEvent::DegradeOrFail {
                device: id,
                token,
                reason: FailReason::Descriptors,
            },
        );
        return elapsed;
    }
    restore_pages(sys, id, &plan.pages, plan.page_size, false);
    dev_mut(sys, id).spare.put(plan.segments, plan.pages);
    if exhausted {
        let status = MoveStatus::Failed(FailReason::Descriptors);
        complete::notify(sys, sim, id, deq.slot, deq.req, status, None, ctx);
        return elapsed;
    }
    let (backoff, next_attempt) = if chaos {
        dev_mut(sys, id).stats.retries += 1;
        (RETRY_BACKOFF * (1u64 << attempt.min(16)), attempt + 1)
    } else {
        (RETRY_BACKOFF, 0)
    };
    sim.schedule_after(
        backoff,
        SimEvent::ExecRetry {
            device: id,
            slot: deq.slot,
            req: deq.req,
            color: deq.color,
            ctx,
            attempt: next_attempt,
            shard,
        },
    );
    elapsed
}

/// Registers a prepared request with the device, linked into its chain
/// as `(chain_offset, batch_leader)`, and appends its write-ahead
/// record. Returns its token and the journal's cost: journaling devices
/// (`journal = true`) pay one `journal_write` per issue, folded into the
/// issue path's elapsed time. The record is written once the entry is
/// fully linked, so it captures the member's leader from the start.
/// The request's virtual address spans enter the device-wide in-flight
/// index here (and leave it in `MemifDevice::take_inflight`), so every
/// shard's issue-time hazard guard sees it immediately.
#[allow(clippy::too_many_arguments)]
fn register_inflight(
    sys: &mut System,
    id: DeviceId,
    deq: &Dequeued,
    cfg: Option<memif_hwsim::dma::ConfiguredTransfer>,
    plan: Plan,
    interrupt_mode: bool,
    attempt: u32,
    shard: usize,
    (chain_offset, batch_leader): (u64, Option<u64>),
    ctx: Context,
) -> (u64, SimDuration) {
    let device = sys.devices[id.0].as_mut().expect("device open");
    let token = device.next_token;
    device.next_token += 1;
    for (base, len) in kthread::spans_of(&deq.req) {
        device.spans.insert(base, len, token);
    }
    device.inflight.push(Inflight {
        token,
        req: deq.req,
        slot: deq.slot,
        transfer: None,
        tc: None,
        cfg,
        segments: plan.segments,
        pages: plan.pages,
        page_size: plan.page_size,
        interrupt_mode,
        dma_started_at: None,
        completed: false,
        attempt,
        watchdog: None,
        batch_members: Vec::new(),
        batch_leader,
        chain_offset,
        shard,
    });
    if !device.config.journal {
        return (token, SimDuration::ZERO);
    }
    device.stats.journal_records += 1;
    let owner = device.owner;
    let i = device.inflight.last().expect("just pushed");
    let (mut pages, mut segments) = sys.journal.spare_lists();
    pages.extend(i.pages.iter().map(crate::journal::JournalPage::of_plan));
    segments.extend_from_slice(&i.segments);
    let record = crate::journal::JournalRecord {
        device: id,
        space: owner,
        token,
        req: i.req,
        shard,
        batch_leader,
        page_size: i.page_size,
        pages,
        segments,
        milestone: crate::journal::JournalMilestone::Issued,
        sealed: None,
        acknowledged: false,
    };
    sys.journal.append(record);
    let cost = sys.cost.journal_write;
    sys.meter.charge(ctx, cost);
    (token, cost)
}

pub(crate) fn launch(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    token: u64,
) {
    let now = sim.now();
    let Some(at) = sys
        .device(id)
        .and_then(|d| d.inflight.iter().position(|i| i.token == token))
    else {
        // Aborted before launch (recover mode): free the slot this
        // launch would have taken for whoever is waiting.
        launch_next_waiting(sys, sim);
        return;
    };
    // Nothing below adds or removes in-flight records, so `at` stays
    // this request's index throughout.
    let req_id = dev(sys, id).inflight[at].req.id;
    // Table 2: the engine has a fixed number of transfer controllers;
    // a launch with all of them busy queues until one frees. Admission
    // routes onto the least-loaded controller channel.
    let Some(tc) = sys.tc.admit((id, token)) else {
        sys.trace_emit(
            now,
            memif_hwsim::SimDuration::ZERO,
            Context::DmaEngine,
            "transfer queued: all transfer controllers busy",
            Some(req_id),
        );
        return;
    };
    let inflight = &mut dev_mut(sys, id).inflight[at];
    let cfg = inflight
        .cfg
        .take()
        .expect("launch consumes a programmed cfg");
    inflight.tc = Some(tc);
    if inflight.dma_started_at.is_none() {
        inflight.dma_started_at = Some(now);
    }
    // The chain's first segment is this request's own: a batch leader
    // heads its chain.
    let first = inflight.segments[0];
    // Batch members ride this launch: stamp their DMA start too.
    let members = std::mem::take(&mut inflight.batch_members);
    for m in &members {
        if let Some(i) = dev_mut(sys, id).inflight.iter_mut().find(|i| i.token == *m) {
            if i.dma_started_at.is_none() {
                i.dma_started_at = Some(now);
            }
        }
    }
    dev_mut(sys, id).inflight[at].batch_members = members;
    let src_node = sys.node_of(first.src).expect("segment in a known bank");
    let dst_node = sys.node_of(first.dst).expect("segment in a known bank");
    let route = sys.dma_route_on(tc, src_node, dst_node);
    let demand = sys.cost.dma_engine_bw_gbps;
    let ticket = sys.dma.launch(&cfg, demand);
    let payload = match ticket.delivery {
        CompletionDelivery::Interrupt(outcome) => SimEvent::DmaDone {
            device: id,
            transfer: ticket.id,
            outcome,
        },
        CompletionDelivery::Delayed { outcome, delay } => SimEvent::DmaIrqDelayed {
            device: id,
            transfer: ticket.id,
            outcome,
            delay,
        },
        CompletionDelivery::Dropped => SimEvent::DmaIrqLost {
            device: id,
            transfer: ticket.id,
        },
    };
    let flow = sys
        .flows
        .start_flow(sim, route, ticket.flow_bytes, demand, payload);
    sys.dma.attach_flow(ticket.id, flow);
    dev_mut(sys, id).inflight[at].transfer = Some(ticket.id);
    // Account the engine's busy time for utilization plots.
    let wall = SimDuration::for_bytes(cfg.bytes, demand) + cfg.engine_overhead;
    sys.meter.charge(Context::DmaEngine, wall);
    sys.trace_emit(now, wall, Context::DmaEngine, "DMA transfer", Some(req_id));

    // Chaos-only watchdog: arm a deadline generous enough for queueing
    // and brownouts; if the completion interrupt never arrives the timer
    // reclaims the transfer. Fault-free runs never schedule this event,
    // keeping the hot path and the event stream identical to pre-
    // hardening builds.
    if sys.chaos_enabled() {
        let deadline = wall * WATCHDOG_FACTOR + WATCHDOG_SLACK;
        let wd = sim.schedule_after(deadline, SimEvent::WatchdogFire { device: id, token });
        dev_mut(sys, id).inflight[at].watchdog = Some(wd);
    }
}

/// The per-request watchdog: declares the transfer lost if it is still
/// pending when the deadline expires, then routes it into the bounded
/// retry machinery.
pub(crate) fn watchdog_fire(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    token: u64,
) {
    if sys.device(id).is_none() {
        return;
    }
    let Some(inflight) = dev(sys, id).inflight.iter().find(|i| i.token == token) else {
        return; // finished or aborted; stale timer
    };
    if inflight.completed {
        return;
    }
    let req_id = inflight.req.id;
    dev_mut(sys, id).stats.timeouts += 1;
    sys.trace_emit(
        sim.now(),
        SimDuration::ZERO,
        Context::Interrupt,
        "watchdog: completion interrupt lost",
        Some(req_id),
    );
    handle_dma_failure(sys, sim, id, token, FailReason::Timeout);
}

/// Common failure funnel for watchdog expiry and DMA error interrupts:
/// reclaims the engine resources of the failed attempt, then either
/// re-issues the request (bounded, exponential backoff) or degrades it.
pub(crate) fn handle_dma_failure(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    token: u64,
    reason: FailReason,
) {
    // A batch leader entering the failure funnel drags its members with
    // it — the combined chained transfer is gone for everyone. Disband
    // first, then funnel each request individually, so retry, degrade
    // and fallback all operate per request, never per batch. (A
    // mid-chain error interrupt disbands in `complete` instead, where
    // the fault-point byte count lets finished members complete.)
    let members = match dev_mut(sys, id)
        .inflight
        .iter_mut()
        .find(|i| i.token == token)
    {
        Some(i) => std::mem::take(&mut i.batch_members),
        None => return,
    };
    for m in &members {
        let mut rid = None;
        if let Some(i) = dev_mut(sys, id).inflight.iter_mut().find(|i| i.token == *m) {
            i.batch_leader = None;
            rid = Some(i.req.id);
        }
        if let Some(rid) = rid {
            sys.journal.set_leader(id, rid, None);
        }
    }
    fail_one(sys, sim, id, token, reason);
    for &m in &members {
        fail_one(sys, sim, id, m, reason);
    }
    dev_mut(sys, id).spare.put_members(members);
}

/// [`handle_dma_failure`] for a single (already unlinked) request.
fn fail_one(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    token: u64,
    reason: FailReason,
) {
    let Some(inflight) = dev_mut(sys, id)
        .inflight
        .iter_mut()
        .find(|i| i.token == token)
    else {
        return;
    };
    if let Some(w) = inflight.watchdog.take() {
        sim.cancel(w);
    }
    let attempt = inflight.attempt;
    let (transfer, tc) = (inflight.transfer.take(), inflight.tc.take());
    reclaim_engine(sys, sim, id, token, transfer, tc);
    let max_retries = dev(sys, id).config.max_dma_retries;
    if attempt < max_retries {
        {
            let device = dev_mut(sys, id);
            device.stats.retries += 1;
            if let Some(i) = device.inflight.iter_mut().find(|i| i.token == token) {
                i.attempt += 1;
            }
        }
        let backoff = RETRY_BACKOFF * (1u64 << attempt.min(16));
        sim.schedule_after(backoff, SimEvent::RetryLaunch { device: id, token });
        return;
    }
    degrade_or_fail(sys, sim, id, token, reason);
}

/// Re-issues a request whose previous DMA attempt failed: reprograms the
/// scatter-gather chain from the retained segments and relaunches.
pub(crate) fn retry_launch(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    token: u64,
) {
    let Some(device) = sys.devices.get(id.0).and_then(Option::as_ref) else {
        return;
    };
    let Some(inflight) = device.inflight.iter().find(|i| i.token == token) else {
        return; // aborted while backing off
    };
    let req_id = Some(inflight.req.id);
    sys.dma.set_reuse_enabled(device.config.descriptor_reuse);
    match sys.dma.configure_segments(&inflight.segments, &sys.cost) {
        Ok(cfg) => {
            let cost = cfg.config_cost;
            sys.meter.charge(Context::KernelThread, cost);
            {
                let device = dev_mut(sys, id);
                device.stats.phases.add(Phase::DmaConfig, cost);
                device.stats.descriptors_written += cfg.descriptors as u64;
                if let Some(i) = device.inflight.iter_mut().find(|i| i.token == token) {
                    i.cfg = Some(cfg);
                }
            }
            sys.trace_emit(
                sim.now(),
                cost,
                Context::KernelThread,
                "retry: reprogram chain",
                req_id,
            );
            sim.schedule_after(cost, SimEvent::Launch { device: id, token });
        }
        Err(memif_hwsim::dma::ChainError::AllBusy) => {
            // Still exhausted: charge another attempt against the budget.
            handle_dma_failure(sys, sim, id, token, FailReason::Descriptors);
        }
        Err(_) => {
            // Geometry errors cannot heal by retrying.
            degrade_or_fail(sys, sim, id, token, FailReason::Descriptors);
        }
    }
}

/// Retry budget exhausted: serve the request on the costed CPU-copy path
/// (configurable), or tear it down and deliver `Failed`. Either way the
/// request reaches exactly one terminal state.
pub(crate) fn degrade_or_fail(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    token: u64,
    reason: FailReason,
) {
    let Some(index) = dev(sys, id).inflight.iter().position(|i| i.token == token) else {
        return;
    };
    if !dev(sys, id).config.cpu_fallback {
        let mut inflight = dev_mut(sys, id).take_inflight(index);
        if let Some(w) = inflight.watchdog.take() {
            sim.cancel(w);
        }
        let (transfer, tc) = (inflight.transfer.take(), inflight.tc.take());
        reclaim_engine(sys, sim, id, token, transfer, tc);
        fault::teardown_inflight(sys, sim, id, inflight, MoveStatus::Failed(reason));
        return;
    }
    // Degraded service: the kernel worker performs the copy itself at the
    // costed CPU-copy bandwidth (4 µs per 4 KB page on Keystone II).
    let copy_cost = {
        let inflight = &dev(sys, id).inflight[index];
        let bytes: u64 = inflight.segments.iter().map(|s| s.bytes).sum();
        sys.cost.cpu_copy(bytes)
    };
    sys.meter.charge(Context::KernelThread, copy_cost);
    let device = sys.devices[id.0].as_ref().expect("device open");
    for seg in &device.inflight[index].segments {
        sys.phys.copy(seg.src, seg.dst, seg.bytes);
    }
    let (req_id, shard) = {
        let device = dev_mut(sys, id);
        device.stats.fallbacks += 1;
        device.stats.phases.add(Phase::Copy, copy_cost);
        let inflight = &mut device.inflight[index];
        inflight.completed = true; // engine freed; pipeline slot opens
        inflight.cfg = None;
        (inflight.req.id, inflight.shard)
    };
    sys.meter.attribute_worker(shard, copy_cost);
    // The payload is at the destination; a crash from here on rolls the
    // move forward instead of back.
    sys.journal.copy_done(id, req_id);
    sys.trace_emit(
        sim.now(),
        copy_cost,
        Context::KernelThread,
        "degraded: CPU-copy fallback",
        Some(req_id),
    );
    // Release must wait for the owning worker's CPU, like the polling
    // path.
    let ready_at = (sim.now() + copy_cost).max(dev(sys, id).shards[shard].busy_until);
    dev_mut(sys, id).shards[shard].busy_until = ready_at;
    sim.schedule_at(ready_at, SimEvent::DegradedRelease { device: id, token });
}

/// Reclaims the engine side of request `token`'s dying attempt. A
/// launched `transfer` still owns its chain and controller slot (its
/// completion never ran): abort cancels its flow and frees the slot `tc`
/// — a transfer already retired by its error interrupt aborts as a
/// no-op. An unlaunched one may still be waiting for a controller and
/// leaves that queue instead.
pub(crate) fn reclaim_engine(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    token: u64,
    transfer: Option<memif_hwsim::dma::TransferId>,
    tc: Option<usize>,
) {
    match transfer {
        Some(t) => {
            if let Some(aborted) = sys.dma.abort(t) {
                if let Some(flow) = aborted.flow {
                    sys.flows.cancel_flow(sim, flow);
                }
                if let Some(tc) = tc {
                    release_tc(sys, sim, tc);
                }
            }
        }
        None => sys.tc.cancel_waiting(|(d, t)| *d == id && *t == token),
    }
}

/// Frees the transfer-controller slot a retired transfer held on channel
/// `tc` and launches the next waiting transfer, if any. Called from
/// every completion/abort path, with the channel taken from the
/// in-flight record (exactly once per launch).
pub(crate) fn release_tc(sys: &mut System, sim: &mut memif_hwsim::Sim<System>, tc: usize) {
    if let Some((id, token)) = sys.tc.release(tc) {
        launch(sys, sim, id, token);
    }
}

fn launch_next_waiting(sys: &mut System, sim: &mut memif_hwsim::Sim<System>) {
    if let Some((id, token)) = sys.tc.take_waiting() {
        launch(sys, sim, id, token);
    }
}

/// Validates a request and builds its execution plan.
#[allow(clippy::type_complexity)]
fn plan_request(
    sys: &mut System,
    id: DeviceId,
    req: &MovReq,
    scratch: &mut PlanScratch,
) -> Result<Plan, (MoveStatus, SimDuration)> {
    let device = dev(sys, id);
    let owner = device.owner;
    let gang = device.config.gang_lookup;
    let race_mode = device.config.race_mode;
    let coalesce = device.config.coalesce;
    let validate_cost = sys.cost.queue_op;

    let Some(page_size) = PageSize::from_shift(req.page_shift) else {
        return Err((MoveStatus::Invalid, validate_cost));
    };
    if req.nr_pages == 0 || req.nr_pages as usize > sys.dma.max_segments() {
        return Err((MoveStatus::Invalid, validate_cost));
    }
    let src = VirtAddr::new(req.src_base);
    let len = u64::from(req.nr_pages) * page_size.bytes();
    if !src.is_aligned(page_size) {
        return Err((MoveStatus::Invalid, validate_cost));
    }

    if sys.space(owner).covering_page_size(src, len) != Some(page_size) {
        return Err((MoveStatus::Invalid, validate_cost));
    }

    match req.kind {
        MoveKind::Replicate => plan_replication(sys, id, req, page_size, gang, coalesce, scratch),
        MoveKind::Migrate => {
            plan_migration(sys, id, req, page_size, gang, race_mode, coalesce, scratch)
        }
    }
}

/// A recycled (empty) segment list for a new plan.
fn spare_segments(sys: &mut System, id: DeviceId) -> Vec<SgSegment> {
    dev_mut(sys, id).spare.segments.pop().unwrap_or_default()
}

fn lookup_cost(sys: &System, stats: memif_mm::WalkStats) -> SimDuration {
    sys.cost.pt_walk_vertical * u64::from(stats.vertical)
        + sys.cost.pt_walk_horizontal * u64::from(stats.horizontal)
}

fn plan_replication(
    sys: &mut System,
    id: DeviceId,
    req: &MovReq,
    page_size: PageSize,
    gang: bool,
    coalesce: bool,
    scratch: &mut PlanScratch,
) -> Result<Plan, (MoveStatus, SimDuration)> {
    let src = VirtAddr::new(req.src_base);
    let dst = VirtAddr::new(req.dst_base);
    let len = u64::from(req.nr_pages) * page_size.bytes();
    let validate_cost = sys.cost.queue_op;
    if !dst.is_aligned(page_size) {
        return Err((MoveStatus::Invalid, validate_cost));
    }
    // Overlapping replication has no sane page-wise semantics; reject.
    if src.as_u64() < dst.offset(len).as_u64() && dst.as_u64() < src.offset(len).as_u64() {
        return Err((MoveStatus::Invalid, validate_cost));
    }
    let space = sys.space(dev(sys, id).owner);
    if space.covering_page_size(dst, len) != Some(page_size) {
        return Err((MoveStatus::Invalid, validate_cost));
    }

    // Op 1 for both regions: replication looks up source and destination
    // descriptors but manages no virtual memory (§3).
    let s1 = space.lookup_range_into(src, req.nr_pages, page_size, gang, &mut scratch.ptes);
    let s2 = space.lookup_range_into(dst, req.nr_pages, page_size, gang, &mut scratch.dst_ptes);
    let mut prep_cost = lookup_cost(sys, s1) + lookup_cost(sys, s2);
    prep_cost += sys.cost.gang_bookkeeping * u64::from(req.nr_pages);

    let all_present = scratch
        .ptes
        .iter()
        .zip(&scratch.dst_ptes)
        .all(|(s, d)| s.is_some_and(Pte::is_present) && d.is_some_and(Pte::is_present));
    if !all_present {
        return Err((MoveStatus::Invalid, prep_cost));
    }
    let mut segments = spare_segments(sys, id);
    segments.extend(
        scratch
            .ptes
            .iter()
            .zip(&scratch.dst_ptes)
            .map(|(s, d)| SgSegment {
                src: s.expect("checked present").frame(),
                dst: d.expect("checked present").frame(),
                bytes: page_size.bytes(),
            }),
    );
    let coalesced_away = if coalesce {
        coalesce_in_place(&mut segments)
    } else {
        0
    };
    Ok(Plan {
        segments,
        pages: Vec::new(),
        page_size,
        prep_cost,
        remap_cost: SimDuration::ZERO,
        coalesced_away,
    })
}

#[allow(clippy::too_many_arguments)]
fn plan_migration(
    sys: &mut System,
    id: DeviceId,
    req: &MovReq,
    page_size: PageSize,
    gang: bool,
    race_mode: RaceMode,
    coalesce: bool,
    scratch: &mut PlanScratch,
) -> Result<Plan, (MoveStatus, SimDuration)> {
    let owner = dev(sys, id).owner;
    let src = VirtAddr::new(req.src_base);
    let dst_node = memif_hwsim::NodeId(req.dst_node);
    if sys.topo.node(dst_node).is_none() {
        return Err((MoveStatus::Invalid, sys.cost.queue_op));
    }

    // Op 1: gang page lookup.
    let walk =
        sys.space(owner)
            .lookup_range_into(src, req.nr_pages, page_size, gang, &mut scratch.ptes);
    let mut prep_cost = lookup_cost(sys, walk);
    prep_cost += sys.cost.gang_bookkeeping * u64::from(req.nr_pages);
    if !scratch.ptes.iter().all(|p| p.is_some_and(Pte::is_present)) {
        return Err((MoveStatus::Invalid, prep_cost));
    }

    // Op 2 (first half): allocate every destination page up front so a
    // mid-request exhaustion leaves the address space untouched.
    scratch.new_frames.clear();
    if sys
        .alloc
        .alloc_run(dst_node, page_size, req.nr_pages, &mut scratch.new_frames)
        .is_err()
    {
        let cost = prep_cost + sys.cost.page_alloc * u64::from(req.nr_pages);
        return Err((MoveStatus::OutOfMemory, cost));
    }

    // Op 2 (second half): install the in-flight entries. Shared pages
    // (frames also mapped by other spaces) are discovered through the
    // reverse map; remote mappers get Linux-style migration entries for
    // the transfer window and are rewritten at Release (§6.7 extension).
    let mut pages = dev_mut(sys, id).spare.pages.pop().unwrap_or_default();
    let mut remap_cost = sys.cost.page_alloc * u64::from(req.nr_pages);
    for (i, (original, &new_frame)) in scratch.ptes.iter().zip(&scratch.new_frames).enumerate() {
        let original = original.expect("checked present above");
        let vaddr = src.offset(i as u64 * page_size.bytes());
        let shared = sys
            .alloc
            .frame_info(original.frame())
            .is_some_and(|f| f.refcount > 1);
        let remote: Vec<(crate::system::SpaceId, VirtAddr)> = if shared {
            remap_cost += sys.cost.page_bookkeeping; // rmap walk
            sys.rmap_mappers(original.frame(), page_size)
                .into_iter()
                .filter(|(s, v)| !(*s == owner && *v == vaddr))
                .collect()
        } else {
            Vec::new()
        };
        let final_pte = original
            .with_frame(new_frame)
            .with_young(false)
            .with_watch(false);
        let installed = match race_mode {
            // Semi-final PTE: identical to final except young set (§5.2).
            RaceMode::DetectFail => final_pte.with_young(true),
            // Recover mode additionally write-watches the page.
            RaceMode::DetectRecover => final_pte.with_young(true).with_watch(true),
            // Ablation: Linux-style migration entry blocks accessors.
            RaceMode::Prevent => Pte::migration_entry(page_size),
        };
        pages.push(PagePlan {
            vaddr,
            old_frame: original.frame(),
            new_frame,
            original,
            installed,
            final_pte,
            remote,
        });
    }
    // One gang write installs every entry, one descent per leaf table;
    // each page still pays its own PTE update and flush.
    sys.spaces[owner.0]
        .table_mut()
        .update_range(src, req.nr_pages, page_size, |i, entry| {
            entry.expect("entry present above");
            Some(pages[i as usize].installed)
        });
    for page in &pages {
        sys.spaces[owner.0]
            .tlb_mut()
            .flush_page(page.vaddr, page_size);
        remap_cost += sys.cost.pte_update_with_flush();
        for (sid, rva) in &page.remote {
            // The new frame gains one reference per remote mapper up
            // front, so an abort can roll back uniformly.
            sys.alloc.get_ref(page.new_frame).expect("new frame live");
            let rspace = &mut sys.spaces[sid.0];
            rspace
                .table_mut()
                .replace(*rva, Pte::migration_entry(page_size))
                .expect("remote mapping present");
            rspace.tlb_mut().flush_page(*rva, page_size);
            remap_cost += sys.cost.pte_update_with_flush();
        }
    }

    let mut segments = spare_segments(sys, id);
    segments.extend(pages.iter().map(|p| SgSegment {
        src: p.old_frame,
        dst: p.new_frame,
        bytes: page_size.bytes(),
    }));
    let coalesced_away = if coalesce {
        coalesce_in_place(&mut segments)
    } else {
        0
    };
    Ok(Plan {
        segments,
        pages,
        page_size,
        prep_cost,
        remap_cost,
        coalesced_away,
    })
}

/// Rolls Remap back for `pages`: restores the original PTEs (including
/// remote mappers of shared pages) and frees the would-be destination
/// frames, dropping their contents too if `discard`. Returns the CPU
/// cost of the rollback; only a teardown after launch charges it (an
/// issue-time rollback is folded into the failed issue).
pub(crate) fn restore_pages(
    sys: &mut System,
    id: DeviceId,
    pages: &[PagePlan],
    page_size: PageSize,
    discard: bool,
) -> SimDuration {
    let owner = dev(sys, id).owner;
    let mut cost = SimDuration::ZERO;
    for page in pages {
        let space = &mut sys.spaces[owner.0];
        space
            .table_mut()
            .replace(page.vaddr, page.original)
            .expect("entry exists");
        space.tlb_mut().flush_page(page.vaddr, page_size);
        cost += sys.cost.pte_update_with_flush();
        for (sid, rva) in &page.remote {
            let restored = page.original.with_young(false);
            let rspace = &mut sys.spaces[sid.0];
            rspace
                .table_mut()
                .replace(*rva, restored)
                .expect("remote entry exists");
            rspace.tlb_mut().flush_page(*rva, page_size);
            cost += sys.cost.pte_update_with_flush();
            let _ = sys.alloc.free(page.new_frame); // remote's reference
        }
        let _ = sys.alloc.free(page.new_frame);
        if discard && sys.alloc.frame_info(page.new_frame).is_none() {
            sys.phys.discard(page.new_frame, page_size.bytes());
        }
        cost += sys.cost.page_free;
    }
    cost
}
