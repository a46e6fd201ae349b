//! Operations 1–3 of Table 1: Prep (gang lookup), Remap, DMA config and
//! launch.

use memif_hwsim::dma::SgSegment;
use memif_hwsim::{CompletionDelivery, Context, Phase, PhysAddr, SimDuration};
use memif_lockfree::{Dequeued, FailReason, MovReq, MoveKind, MoveStatus};
use memif_mm::{PageSize, Pte, VirtAddr};

use crate::config::RaceMode;
use crate::device::{DeviceId, Inflight, PagePlan, PlanScratch};
use crate::driver::{complete, dev, dev_mut, fault};
use crate::event::SimEvent;
use crate::system::System;

/// What happened to a request handed to the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExecOutcome {
    /// A DMA transfer was launched; completion continues asynchronously.
    Launched,
    /// The request was rejected and its failure notification delivered.
    Rejected,
}

struct Plan {
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

/// Remembers which nodes a planned migration moves between, so the
/// retire site can credit the per-node move counters after the remap has
/// erased the source. Replications copy rather than move and are not
/// counted.
fn record_route(sys: &mut System, id: DeviceId, req: &MovReq, plan: &Plan) {
    if req.kind != MoveKind::Migrate {
        return;
    }
    let src = plan.pages.first().and_then(|p| sys.node_of(p.old_frame));
    if let Some(src) = src {
        dev_mut(sys, id)
            .routes
            .insert(req.id, (src.0, req.dst_node));
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

/// Runs operations 1–3 for `deq` in context `ctx`. Returns the kernel
/// time consumed (the caller resumes after it) and the outcome.
pub(crate) fn execute_request(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    deq: Dequeued,
    ctx: Context,
    shard: usize,
) -> (SimDuration, ExecOutcome) {
    execute_attempt(sys, sim, id, deq, ctx, 0, shard)
}

/// [`execute_request`] with an attempt budget carried across descriptor-
/// exhaustion retries. On the fault-free path the attempt counter stays
/// zero and the retry loop is unbounded, exactly as before hardening.
pub(crate) fn execute_attempt(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    deq: Dequeued,
    ctx: Context,
    attempt: u32,
    shard: usize,
) -> (SimDuration, ExecOutcome) {
    let req = deq.req;
    let mut elapsed = SimDuration::ZERO;

    let mut scratch = std::mem::take(&mut dev_mut(sys, id).shards[shard].scratch);
    let planned = plan_request(sys, id, &req, &mut scratch);
    dev_mut(sys, id).shards[shard].scratch = scratch;
    let plan = match planned {
        Ok(p) => p,
        Err((status, cost)) => {
            elapsed += cost;
            sys.meter.charge(ctx, cost);
            complete::notify(sys, sim, id, deq.slot, req, status, None, ctx);
            return (elapsed, ExecOutcome::Rejected);
        }
    };
    record_coalescing(sys, id, &plan);

    // Charge Prep and Remap.
    sys.meter.charge(ctx, plan.prep_cost + plan.remap_cost);
    {
        let stats = &mut dev_mut(sys, id).stats;
        stats.phases.add(Phase::Prep, plan.prep_cost);
        stats.phases.add(Phase::Remap, plan.remap_cost);
    }
    elapsed += plan.prep_cost + plan.remap_cost;

    // Op 3: program the scatter-gather chain. The engine-level reuse
    // switch follows the device's configuration (ablation A1).
    sys.dma
        .set_reuse_enabled(dev(sys, id).config.descriptor_reuse);
    let cfg = match sys.dma.configure_segments(plan.segments.clone(), &sys.cost) {
        Ok(cfg) => cfg,
        Err(memif_hwsim::dma::ChainError::AllBusy) => {
            // Every descriptor is tied up in other tenants' in-flight
            // transfers. A real driver waits for the PaRAM.
            let chaos = sys.chaos_enabled();
            let (max_retries, base_backoff, fallback) = {
                let c = &dev(sys, id).config;
                (c.max_dma_retries, c.retry_backoff, c.cpu_fallback)
            };
            if chaos && attempt >= max_retries {
                // Retry budget exhausted under fault injection: serve the
                // request degraded (the remap is still installed) or roll
                // it back and fail it — never drop it silently.
                if fallback {
                    let token =
                        register_inflight(sys, id, req, &deq, None, plan, false, attempt, shard);
                    elapsed += journal_issue(sys, id, token, ctx);
                    sim.schedule_after(
                        elapsed,
                        SimEvent::DegradeOrFail {
                            device: id,
                            token,
                            reason: FailReason::Descriptors,
                        },
                    );
                    return (elapsed, ExecOutcome::Launched);
                }
                undo_remap(sys, id, &plan);
                complete::notify(
                    sys,
                    sim,
                    id,
                    deq.slot,
                    req,
                    MoveStatus::Failed(FailReason::Descriptors),
                    None,
                    ctx,
                );
                return (elapsed, ExecOutcome::Rejected);
            }
            // Undo the remap and retry the whole request shortly. The
            // fault-free path keeps its historical unbounded fixed
            // backoff; under chaos the backoff doubles per attempt and
            // the budget above bounds it.
            undo_remap(sys, id, &plan);
            let (backoff, next_attempt) = if chaos {
                dev_mut(sys, id).stats.retries += 1;
                (base_backoff * (1u64 << attempt.min(16)), attempt + 1)
            } else {
                (base_backoff, 0)
            };
            sim.schedule_after(
                backoff,
                SimEvent::ExecRetry {
                    device: id,
                    slot: deq.slot,
                    req,
                    color: deq.color,
                    ctx,
                    attempt: next_attempt,
                    shard,
                },
            );
            return (elapsed, ExecOutcome::Launched);
        }
        Err(
            memif_hwsim::dma::ChainError::TooLarge { .. }
            | memif_hwsim::dma::ChainError::Empty
            | memif_hwsim::dma::ChainError::MixedSizes,
        ) => {
            // Cannot ever fit or malformed scatter-gather geometry
            // (validation bounds nr_pages by the pool size and plans use
            // one uniform page size, so this is belt-and-braces).
            undo_remap(sys, id, &plan);
            complete::notify(sys, sim, id, deq.slot, req, MoveStatus::Invalid, None, ctx);
            return (elapsed, ExecOutcome::Rejected);
        }
    };
    sys.meter.charge(ctx, cfg.config_cost);
    elapsed += cfg.config_cost;
    {
        let stats = &mut dev_mut(sys, id).stats;
        stats.phases.add(Phase::DmaConfig, cfg.config_cost);
        stats.descriptors_written += cfg.descriptors as u64;
    }
    record_route(sys, id, &req, &plan);
    // Compressed-tier moves pay their codec before the engine starts.
    elapsed += codec_charge(sys, &plan.segments, ctx);

    let bytes = cfg.bytes;
    let threshold = dev(sys, id).poll_threshold(sys.cost.poll_threshold_bytes);
    let interrupt_mode = bytes >= threshold;
    let token = register_inflight(
        sys,
        id,
        req,
        &deq,
        Some(cfg),
        plan,
        interrupt_mode,
        attempt,
        shard,
    );
    elapsed += journal_issue(sys, id, token, ctx);

    if sys.tracing() {
        sys.trace_emit(
            sim.now(),
            elapsed,
            ctx,
            format!("ops 1-3: prep+remap+cfg ({} pages)", req.nr_pages),
            Some(req.id),
        );
    }
    // The transfer begins once the CPU-side work above has elapsed.
    sim.schedule_after(elapsed, SimEvent::Launch { device: id, token });
    (elapsed, ExecOutcome::Launched)
}

/// Appends the issued request's write-ahead record. No-op (and free)
/// unless the device was opened with `journal = true`; journaling
/// devices pay one `journal_write` per issue, returned here so the
/// caller folds it into the issue path's elapsed time. Called after the
/// in-flight entry is fully linked (batch offsets and leader set), so
/// the record captures the final chain linkage.
fn journal_issue(sys: &mut System, id: DeviceId, token: u64, ctx: Context) -> SimDuration {
    let record = {
        let device = dev_mut(sys, id);
        if !device.config.journal {
            return SimDuration::ZERO;
        }
        let owner = device.owner;
        let Some(i) = device.inflight.iter().find(|i| i.token == token) else {
            return SimDuration::ZERO;
        };
        device.stats.journal_records += 1;
        crate::journal::JournalRecord {
            device: id,
            space: owner,
            token,
            req: i.req,
            shard: i.shard,
            batch_leader: i.batch_leader,
            page_size: i.page_size,
            pages: i
                .pages
                .iter()
                .map(crate::journal::JournalPage::of_plan)
                .collect(),
            segments: i.segments.clone(),
            milestone: crate::journal::JournalMilestone::Issued,
            sealed: None,
        }
    };
    sys.journal.append(record);
    let cost = sys.cost.journal_write;
    sys.meter.charge(ctx, cost);
    cost
}

/// Registers a prepared request with the device and returns its token.
/// The request's virtual address spans enter the device-wide in-flight
/// index here (and leave it in `MemifDevice::take_inflight`), so every
/// shard's issue-time hazard guard sees it immediately.
#[allow(clippy::too_many_arguments)]
fn register_inflight(
    sys: &mut System,
    id: DeviceId,
    req: MovReq,
    deq: &Dequeued,
    cfg: Option<memif_hwsim::dma::ConfiguredTransfer>,
    plan: Plan,
    interrupt_mode: bool,
    attempt: u32,
    shard: usize,
) -> u64 {
    let device = dev_mut(sys, id);
    let token = device.next_token;
    device.next_token += 1;
    let len = u64::from(req.nr_pages) << req.page_shift;
    device.spans.insert(req.src_base, len, token);
    if req.kind == MoveKind::Replicate {
        device.spans.insert(req.dst_base, len, token);
    }
    device.inflight.push(Inflight {
        token,
        req,
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
        batch_leader: None,
        chain_offset: 0,
        shard,
    });
    token
}

/// Runs operations 1–3 for a drained batch of compatible requests as
/// **one** chained scatter-gather launch. Each member is planned (and
/// its remap installed) individually; the per-request segment lists are
/// concatenated into a single descriptor chain programmed and launched
/// once, completing with a single interrupt whose handler fans status
/// back out per request. Per-member plan rejections notify that member
/// alone; descriptor exhaustion disbands the batch into per-member
/// retries so no request is ever dropped.
pub(crate) fn execute_batch(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    batch: Vec<Dequeued>,
    ctx: Context,
    shard: usize,
) -> (SimDuration, ExecOutcome) {
    let mut elapsed = SimDuration::ZERO;

    // Plan every member. Rejections drop out of the batch here with
    // their failure notification; survivors have their remaps installed.
    let mut scratch = std::mem::take(&mut dev_mut(sys, id).shards[shard].scratch);
    let mut planned: Vec<(Dequeued, Plan)> = Vec::with_capacity(batch.len());
    for deq in batch {
        match plan_request(sys, id, &deq.req, &mut scratch) {
            Ok(p) => planned.push((deq, p)),
            Err((status, cost)) => {
                elapsed += cost;
                sys.meter.charge(ctx, cost);
                complete::notify(sys, sim, id, deq.slot, deq.req, status, None, ctx);
            }
        }
    }
    dev_mut(sys, id).shards[shard].scratch = scratch;
    if planned.is_empty() {
        return (elapsed, ExecOutcome::Rejected);
    }

    // Charge Prep and Remap for every member.
    let mut prep = SimDuration::ZERO;
    let mut remap = SimDuration::ZERO;
    for (_, p) in &planned {
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

    // Op 3, once: program the concatenated chain.
    sys.dma
        .set_reuse_enabled(dev(sys, id).config.descriptor_reuse);
    let combined: Vec<SgSegment> = planned
        .iter()
        .flat_map(|(_, p)| p.segments.iter().copied())
        .collect();
    let cfg = match sys.dma.configure_segments(combined, &sys.cost) {
        Ok(cfg) => cfg,
        Err(memif_hwsim::dma::ChainError::AllBusy) => {
            // Descriptor exhaustion: disband. Each member's remap rolls
            // back and the member re-enters execution solo after the
            // backoff, exactly as a solo AllBusy would — retry operates
            // per request, never per batch.
            let chaos = sys.chaos_enabled();
            let base_backoff = dev(sys, id).config.retry_backoff;
            let next_attempt = u32::from(chaos);
            for (deq, plan) in planned {
                undo_remap(sys, id, &plan);
                if chaos {
                    dev_mut(sys, id).stats.retries += 1;
                }
                sim.schedule_after(
                    base_backoff,
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
            }
            return (elapsed, ExecOutcome::Launched);
        }
        Err(_) => {
            // Geometry errors (belt-and-braces: assembly bounds the
            // total page count by the pool size).
            for (deq, plan) in planned {
                undo_remap(sys, id, &plan);
                complete::notify(
                    sys,
                    sim,
                    id,
                    deq.slot,
                    deq.req,
                    MoveStatus::Invalid,
                    None,
                    ctx,
                );
            }
            return (elapsed, ExecOutcome::Rejected);
        }
    };
    sys.meter.charge(ctx, cfg.config_cost);
    elapsed += cfg.config_cost;
    {
        let stats = &mut dev_mut(sys, id).stats;
        stats.phases.add(Phase::DmaConfig, cfg.config_cost);
        stats.descriptors_written += cfg.descriptors as u64;
        if planned.len() >= 2 {
            stats.requests_batched += planned.len() as u64;
        }
    }
    for (deq, plan) in &planned {
        record_route(sys, id, &deq.req, plan);
        // Codec work for the whole chain, member by member.
        elapsed += codec_charge(sys, &plan.segments, ctx);
    }

    let threshold = dev(sys, id).poll_threshold(sys.cost.poll_threshold_bytes);
    // One completion for the whole chain: the leader's mode is decided
    // by the combined size. Members remember their own-size mode for
    // the day they are split off into solo retries.
    let batch_interrupt = cfg.bytes >= threshold;
    let n = planned.len();
    let mut cfg_slot = Some(cfg);
    let mut offset = 0u64;
    let mut leader_token = 0u64;
    let mut member_tokens = Vec::with_capacity(n.saturating_sub(1));
    let mut total_pages = 0u32;
    for (i, (deq, plan)) in planned.into_iter().enumerate() {
        let own_bytes: u64 = plan.segments.iter().map(|s| s.bytes).sum();
        let interrupt_mode = if i == 0 {
            batch_interrupt
        } else {
            own_bytes >= threshold
        };
        total_pages += deq.req.nr_pages;
        let token = register_inflight(
            sys,
            id,
            deq.req,
            &deq,
            if i == 0 { cfg_slot.take() } else { None },
            plan,
            interrupt_mode,
            0,
            shard,
        );
        let entry = dev_mut(sys, id)
            .inflight
            .iter_mut()
            .find(|f| f.token == token)
            .expect("just registered");
        entry.chain_offset = offset;
        offset += own_bytes;
        if i == 0 {
            leader_token = token;
        } else {
            entry.batch_leader = Some(leader_token);
            member_tokens.push(token);
        }
        // Journal after the chain linkage above is final, so the record
        // carries the member's leader token from the start.
        elapsed += journal_issue(sys, id, token, ctx);
    }
    dev_mut(sys, id)
        .inflight
        .iter_mut()
        .find(|f| f.token == leader_token)
        .expect("registered above")
        .batch_members = member_tokens;

    if sys.tracing() {
        let leader = dev(sys, id)
            .inflight
            .iter()
            .find(|f| f.token == leader_token)
            .map(|f| f.req.id);
        sys.trace_emit(
            sim.now(),
            elapsed,
            ctx,
            format!("ops 1-3: batched prep+remap+cfg ({n} reqs, {total_pages} pages)"),
            leader,
        );
    }
    sim.schedule_after(
        elapsed,
        SimEvent::Launch {
            device: id,
            token: leader_token,
        },
    );
    (elapsed, ExecOutcome::Launched)
}

pub(crate) fn launch(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    token: u64,
) {
    let now = sim.now();
    if sys.device(id).is_none() || dev(sys, id).inflight.iter().all(|i| i.token != token) {
        // Aborted before launch (recover mode): free the slot this
        // launch would have taken for whoever is waiting.
        launch_next_waiting(sys, sim);
        return;
    }
    // Table 2: the engine has a fixed number of transfer controllers;
    // a launch with all of them busy queues until one frees. Admission
    // routes onto the least-loaded controller channel.
    let Some(tc) = sys.tc.admit((id, token)) else {
        sys.trace_emit(
            now,
            memif_hwsim::SimDuration::ZERO,
            Context::DmaEngine,
            "transfer queued: all transfer controllers busy",
            dev(sys, id)
                .inflight
                .iter()
                .find(|i| i.token == token)
                .map(|i| i.req.id),
        );
        return;
    };
    let Some(inflight) = dev_mut(sys, id)
        .inflight
        .iter_mut()
        .find(|i| i.token == token)
    else {
        unreachable!("checked above");
    };
    let cfg = inflight
        .cfg
        .take()
        .expect("launch consumes a programmed cfg");
    inflight.tc = Some(tc);
    if inflight.dma_started_at.is_none() {
        inflight.dma_started_at = Some(now);
    }
    // Batch members ride this launch: stamp their DMA start too.
    let member_tokens = inflight.batch_members.clone();
    for m in &member_tokens {
        if let Some(i) = dev_mut(sys, id).inflight.iter_mut().find(|i| i.token == *m) {
            if i.dma_started_at.is_none() {
                i.dma_started_at = Some(now);
            }
        }
    }
    let (src, dst) = (cfg.segments[0].src, cfg.segments[0].dst);
    let src_node = sys.node_of(src).expect("segment in a known bank");
    let dst_node = sys.node_of(dst).expect("segment in a known bank");
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
        .start_flow(sim, &route, ticket.flow_bytes, demand, payload);
    sys.dma.attach_flow(ticket.id, flow);
    let req_id = dev(sys, id)
        .inflight
        .iter()
        .find(|i| i.token == token)
        .map(|i| i.req.id);
    dev_mut(sys, id)
        .inflight
        .iter_mut()
        .find(|i| i.token == token)
        .expect("still inflight")
        .transfer = Some(ticket.id);
    // Account the engine's busy time for utilization plots.
    let wall = SimDuration::for_bytes(cfg.bytes, demand) + cfg.engine_overhead;
    sys.meter.charge(Context::DmaEngine, wall);
    sys.trace_emit(now, wall, Context::DmaEngine, "DMA transfer", req_id);

    // Chaos-only watchdog: arm a deadline generous enough for queueing
    // and brownouts; if the completion interrupt never arrives the timer
    // reclaims the transfer. Fault-free runs never schedule this event,
    // keeping the hot path and the event stream identical to pre-
    // hardening builds.
    if sys.chaos_enabled() {
        let (factor, slack) = {
            let c = &dev(sys, id).config;
            (c.watchdog_factor, c.watchdog_slack)
        };
        let deadline = wall * u64::from(factor) + slack;
        let wd = sim.schedule_after(deadline, SimEvent::WatchdogFire { device: id, token });
        dev_mut(sys, id)
            .inflight
            .iter_mut()
            .find(|i| i.token == token)
            .expect("still inflight")
            .watchdog = Some(wd);
    }

    // Crash point: the transfer is on the engine and the journal record
    // (if any) is durable — power fails right after the DMA starts.
    sys.maybe_crash(sim, memif_hwsim::CrashPoint::PostLaunch);
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
    for m in members {
        fail_one(sys, sim, id, m, reason);
    }
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
    let held_tc = inflight.tc.take();
    match inflight.transfer.take() {
        Some(t) => {
            // A lost transfer still owns its chain and controller slot
            // (its completion never ran); abort reclaims both. A transfer
            // already retired by its error interrupt aborts as a no-op.
            if let Some(aborted) = sys.dma.abort(t) {
                if let Some(flow) = aborted.flow {
                    sys.flows.cancel_flow(sim, flow);
                }
                if let Some(tc) = held_tc {
                    release_tc(sys, sim, tc);
                }
            }
        }
        None => {
            sys.tc.cancel_waiting(|(d, t)| *d == id && *t == token);
        }
    }
    let (max_retries, base_backoff) = {
        let c = &dev(sys, id).config;
        (c.max_dma_retries, c.retry_backoff)
    };
    if attempt < max_retries {
        {
            let device = dev_mut(sys, id);
            device.stats.retries += 1;
            if let Some(i) = device.inflight.iter_mut().find(|i| i.token == token) {
                i.attempt += 1;
            }
        }
        let backoff = base_backoff * (1u64 << attempt.min(16));
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
    if sys.device(id).is_none() {
        return;
    }
    let Some(segments) = dev(sys, id)
        .inflight
        .iter()
        .find(|i| i.token == token)
        .map(|i| i.segments.clone())
    else {
        return; // aborted while backing off
    };
    let req_id = dev(sys, id)
        .inflight
        .iter()
        .find(|i| i.token == token)
        .map(|i| i.req.id);
    sys.dma
        .set_reuse_enabled(dev(sys, id).config.descriptor_reuse);
    match sys.dma.configure_segments(segments, &sys.cost) {
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
        let held_tc = inflight.tc.take();
        if let Some(t) = inflight.transfer.take() {
            if let Some(aborted) = sys.dma.abort(t) {
                if let Some(flow) = aborted.flow {
                    sys.flows.cancel_flow(sim, flow);
                }
                if let Some(tc) = held_tc {
                    release_tc(sys, sim, tc);
                }
            }
        }
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
    let segments = dev(sys, id).inflight[index].segments.clone();
    for seg in &segments {
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

/// Release + Notify for a request served by the degraded CPU-copy path,
/// once the worker's CPU frees up ([`SimEvent::DegradedRelease`]).
pub(crate) fn degraded_release(
    sys: &mut System,
    sim: &mut memif_hwsim::Sim<System>,
    id: DeviceId,
    token: u64,
) {
    if sys.device(id).is_none() {
        return;
    }
    let Some(index) = dev(sys, id).inflight.iter().position(|i| i.token == token) else {
        return; // aborted in the copy window
    };
    // Crash point: copy applied, release not yet run (retire site 3).
    if sys.maybe_crash(sim, memif_hwsim::CrashPoint::PreRetire) {
        return;
    }
    let inflight = dev_mut(sys, id).take_inflight(index);
    let req_id = inflight.req.id;
    let shard = inflight.shard;
    let release_cost = complete::release_and_notify(sys, sim, id, inflight, Context::KernelThread);
    sys.meter.attribute_worker(shard, release_cost);
    sys.trace_emit(
        sim.now(),
        release_cost,
        Context::KernelThread,
        "ops 4-5: release+notify (degraded)",
        Some(req_id),
    );
    let busy_until = sim.now() + release_cost;
    let device = dev_mut(sys, id);
    device.shards[shard].busy_until = device.shards[shard].busy_until.max(busy_until);
    crate::driver::schedule_worker_wake(sys, sim, id, shard, release_cost);
    crate::driver::wake_deferred_peers(sys, sim, id, shard, release_cost);
    // Crash point: the request retired (journal sealed) an instant ago.
    sys.maybe_crash(sim, memif_hwsim::CrashPoint::PostRetire);
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

    let space = sys.space(owner);
    let Some(vma) = space.vma_covering(src, len) else {
        return Err((MoveStatus::Invalid, validate_cost));
    };
    if vma.page_size != page_size {
        return Err((MoveStatus::Invalid, validate_cost));
    }

    match req.kind {
        MoveKind::Replicate => {
            plan_replication(sys, owner, req, page_size, gang, coalesce, scratch)
        }
        MoveKind::Migrate => plan_migration(
            sys, owner, req, page_size, gang, race_mode, coalesce, scratch,
        ),
    }
}

/// Finalizes a plan's segment list from the scratch build area:
/// coalesces in place when enabled, then copies out at exact size.
fn finish_segments(coalesce: bool, scratch: &mut PlanScratch) -> (Vec<SgSegment>, u64) {
    let coalesced_away = if coalesce {
        coalesce_in_place(&mut scratch.segments)
    } else {
        0
    };
    (scratch.segments.clone(), coalesced_away)
}

fn lookup_cost(sys: &System, stats: memif_mm::WalkStats) -> SimDuration {
    sys.cost.pt_walk_vertical * u64::from(stats.vertical)
        + sys.cost.pt_walk_horizontal * u64::from(stats.horizontal)
}

fn plan_replication(
    sys: &mut System,
    owner: crate::system::SpaceId,
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
    let space = sys.space(owner);
    if space.vma_covering(dst, len).map(|v| v.page_size) != Some(page_size) {
        return Err((MoveStatus::Invalid, validate_cost));
    }

    // Op 1 for both regions: replication looks up source and destination
    // descriptors but manages no virtual memory (§3).
    let s1 = space.lookup_range_into(src, req.nr_pages, page_size, gang, &mut scratch.ptes);
    let s2 = space.lookup_range_into(dst, req.nr_pages, page_size, gang, &mut scratch.dst_ptes);
    let mut prep_cost = lookup_cost(sys, s1) + lookup_cost(sys, s2);
    prep_cost += sys.cost.gang_bookkeeping * u64::from(req.nr_pages);

    scratch.segments.clear();
    for (s, d) in scratch.ptes.iter().zip(&scratch.dst_ptes) {
        match (s, d) {
            (Some(sp), Some(dp)) if sp.is_present() && dp.is_present() => {
                scratch.segments.push(SgSegment {
                    src: sp.frame(),
                    dst: dp.frame(),
                    bytes: page_size.bytes(),
                });
            }
            _ => return Err((MoveStatus::Invalid, prep_cost)),
        }
    }
    let (segments, coalesced_away) = finish_segments(coalesce, scratch);
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
    owner: crate::system::SpaceId,
    req: &MovReq,
    page_size: PageSize,
    gang: bool,
    race_mode: RaceMode,
    coalesce: bool,
    scratch: &mut PlanScratch,
) -> Result<Plan, (MoveStatus, SimDuration)> {
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
    let mut originals = Vec::with_capacity(req.nr_pages as usize);
    for (i, pte) in scratch.ptes.iter().enumerate() {
        match pte {
            Some(p) if p.is_present() => {
                originals.push((src.offset(i as u64 * page_size.bytes()), *p));
            }
            _ => return Err((MoveStatus::Invalid, prep_cost)),
        }
    }

    // Op 2 (first half): allocate every destination page up front so a
    // mid-request exhaustion leaves the address space untouched.
    let mut new_frames = Vec::with_capacity(originals.len());
    for _ in &originals {
        match sys.alloc.alloc(dst_node, page_size) {
            Ok(f) => new_frames.push(f),
            Err(_) => {
                for f in new_frames {
                    let _ = sys.alloc.free(f);
                }
                let cost = prep_cost + sys.cost.page_alloc * u64::from(req.nr_pages);
                return Err((MoveStatus::OutOfMemory, cost));
            }
        }
    }

    // Op 2 (second half): install the in-flight entries. Shared pages
    // (frames also mapped by other spaces) are discovered through the
    // reverse map; remote mappers get Linux-style migration entries for
    // the transfer window and are rewritten at Release (§6.7 extension).
    let mut pages = Vec::with_capacity(originals.len());
    let mut remap_cost = sys.cost.page_alloc * originals.len() as u64;
    for ((vaddr, original), new_frame) in originals.into_iter().zip(new_frames) {
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
        let space = &mut sys.spaces[owner.0];
        space
            .table_mut()
            .replace(vaddr, installed)
            .expect("entry present above");
        space.tlb_mut().flush_page(vaddr, page_size);
        remap_cost += sys.cost.pte_update_with_flush();
        for (sid, rva) in &remote {
            // The new frame gains one reference per remote mapper up
            // front, so an abort can roll back uniformly.
            sys.alloc.get_ref(new_frame).expect("new frame live");
            let rspace = &mut sys.spaces[sid.0];
            rspace
                .table_mut()
                .replace(*rva, Pte::migration_entry(page_size))
                .expect("remote mapping present");
            rspace.tlb_mut().flush_page(*rva, page_size);
            remap_cost += sys.cost.pte_update_with_flush();
        }
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

    scratch.segments.clear();
    scratch.segments.extend(pages.iter().map(|p| SgSegment {
        src: p.old_frame,
        dst: p.new_frame,
        bytes: page_size.bytes(),
    }));
    let (segments, coalesced_away) = finish_segments(coalesce, scratch);
    Ok(Plan {
        segments,
        pages,
        page_size,
        prep_cost,
        remap_cost,
        coalesced_away,
    })
}

/// Rolls Remap back after a post-remap failure (descriptor exhaustion).
fn undo_remap(sys: &mut System, id: DeviceId, plan: &Plan) {
    let owner = dev(sys, id).owner;
    for page in &plan.pages {
        let space = &mut sys.spaces[owner.0];
        space
            .table_mut()
            .replace(page.vaddr, page.original)
            .expect("entry exists");
        space.tlb_mut().flush_page(page.vaddr, plan.page_size);
        for (sid, rva) in &page.remote {
            let restored = page.original.with_young(false);
            let rspace = &mut sys.spaces[sid.0];
            rspace
                .table_mut()
                .replace(*rva, restored)
                .expect("remote entry exists");
            rspace.tlb_mut().flush_page(*rva, plan.page_size);
            let _ = sys.alloc.free(page.new_frame); // drop remote's ref
        }
    }
    for page in &plan.pages {
        let _ = sys.alloc.free(page.new_frame);
    }
}
