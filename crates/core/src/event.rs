//! The typed event vocabulary of the simulated machine.
//!
//! Every continuation the driver schedules — DMA completions, launch
//! points, watchdogs, kernel-thread wakeups, brownout transitions — is a
//! [`SimEvent`] value, and [`System`]'s [`EventWorld`] implementation is
//! the single place they are interpreted. The event queue therefore
//! stores *data, not code*: a run can log every event it executes (see
//! [`System::enable_event_log`]), compare two logs byte-for-byte, and
//! replay a scenario deterministically.
//!
//! The one escape hatch is [`SimEvent::Thunk`]: applications and test
//! harnesses (not the driver) may still schedule an arbitrary one-shot
//! closure via [`SimEvent::call`]. Thunks appear in event logs as opaque
//! `"thunk"` records; all driver-internal events are fully structured.

use memif_hwsim::{
    DmaOutcome, EventWorld, FlowSystem, ResourceId, Sim, SimDuration, SimTime, TransferId,
};
use memif_lockfree::{Color, Dequeued, FailReason, MovReq, SlotIndex};

use crate::device::DeviceId;
use crate::driver::complete::{self, RetireSite};
use crate::driver::{exec, kthread};
use crate::system::System;

/// A one-shot closure scheduled as an event (application/test escape
/// hatch; the driver itself schedules only structured variants).
pub type Thunk = Box<dyn FnOnce(&mut System, &mut Sim<System>)>;

/// Handle to a callback registered with [`System::register_hook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HookId(pub(crate) usize);

type HookFn = Box<dyn FnMut(&mut System, &mut Sim<System>, u64)>;

/// The registered hook callbacks (see [`System::register_hook`]). A slot
/// is `None` while its hook is executing (take–call–restore), so a hook
/// that re-enters the system never aliases itself.
#[derive(Default)]
pub(crate) struct Hooks(Vec<Option<HookFn>>);

impl std::fmt::Debug for Hooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hooks").field("len", &self.0.len()).finish()
    }
}

/// Everything that can sit on the simulated machine's event queue.
///
/// Variants map one-to-one onto the driver's continuation points
/// (§5.4's three execution paths plus the chaos-hardening machinery);
/// the names follow the driver functions they dispatch to.
pub enum SimEvent {
    /// The flow network's next-completion timer.
    FlowTick,
    /// An opaque one-shot closure ([`SimEvent::call`]).
    Thunk(Thunk),
    /// A DMA completion (or error) interrupt for `transfer`.
    DmaDone {
        /// Device whose transfer completed.
        device: DeviceId,
        /// The engine transfer.
        transfer: TransferId,
        /// How the transfer ended.
        outcome: DmaOutcome,
    },
    /// A completion interrupt injected-fault-delayed by `delay`: the
    /// bytes have arrived, the interrupt fires later.
    DmaIrqDelayed {
        /// Device whose transfer completed.
        device: DeviceId,
        /// The engine transfer.
        transfer: TransferId,
        /// How the late interrupt will report the transfer.
        outcome: DmaOutcome,
        /// Injected interrupt latency.
        delay: SimDuration,
    },
    /// A completion interrupt silently lost to fault injection: the
    /// bytes arrived but the driver is never told (only the watchdog
    /// can reclaim the transfer). Dispatching this is a no-op; it exists
    /// so the loss is visible in event logs.
    DmaIrqLost {
        /// Device whose interrupt was lost.
        device: DeviceId,
        /// The engine transfer.
        transfer: TransferId,
    },
    /// Launch the programmed transfer of in-flight request `token` (ops
    /// 1–3 CPU time has elapsed).
    Launch {
        /// Owning device.
        device: DeviceId,
        /// In-flight request token.
        token: u64,
    },
    /// Re-issue a request whose previous DMA attempt failed: reprogram
    /// the chain from retained segments, then launch.
    RetryLaunch {
        /// Owning device.
        device: DeviceId,
        /// In-flight request token.
        token: u64,
    },
    /// Re-run operations 1–3 for a request that found the descriptor
    /// pool exhausted (the whole request retries after a backoff).
    ExecRetry {
        /// Owning device.
        device: DeviceId,
        /// The request's queue slot.
        slot: SlotIndex,
        /// The request.
        req: MovReq,
        /// The queue color observed at dequeue.
        color: Color,
        /// The execution context charged for the retry.
        ctx: memif_hwsim::Context,
        /// Attempt number (drives the bounded-retry budget under chaos).
        attempt: u32,
        /// The issue shard whose worker owns the retry.
        shard: usize,
    },
    /// The per-request watchdog deadline expired (chaos mode only).
    WatchdogFire {
        /// Owning device.
        device: DeviceId,
        /// In-flight request token.
        token: u64,
    },
    /// Retry budget exhausted: degrade the request to the CPU-copy path
    /// or fail it.
    DegradeOrFail {
        /// Owning device.
        device: DeviceId,
        /// In-flight request token.
        token: u64,
        /// Why the DMA path gave up.
        reason: FailReason,
    },
    /// Release + Notify for a request served by the degraded CPU-copy
    /// fallback (runs when the worker's CPU frees up).
    DegradedRelease {
        /// Owning device.
        device: DeviceId,
        /// In-flight request token.
        token: u64,
    },
    /// Release + Notify in the completion interrupt handler (§5.4
    /// interrupt path; legal because detection removed sleepable locks).
    IrqRelease {
        /// Owning device.
        device: DeviceId,
        /// In-flight request token.
        token: u64,
    },
    /// Release + Notify on the kernel thread after its timed poll sleep
    /// (§5.4 polling path).
    PollRelease {
        /// Owning device.
        device: DeviceId,
        /// In-flight request token.
        token: u64,
    },
    /// Wake one issue shard's kernel worker (counts a wakeup if the
    /// round actually runs).
    KthreadRun {
        /// Device whose worker wakes.
        device: DeviceId,
        /// The issue shard whose worker wakes (0 when unsharded).
        shard: usize,
    },
    /// The worker's continuation after preparing a request (does not
    /// re-count a wakeup).
    KthreadContinue {
        /// Device whose worker continues.
        device: DeviceId,
        /// The issue shard whose worker continues (0 when unsharded).
        shard: usize,
    },
    /// A bandwidth-brownout transition: set `resource`'s capacity.
    SetCapacity {
        /// The flow resource (a node bus).
        resource: ResourceId,
        /// The new capacity in GB/s.
        gbps: f64,
    },
    /// Invoke the registered hook `hook` with `arg` (runtime-layer
    /// continuations: stream chunk stages, placement-daemon epochs).
    Hook {
        /// The registered callback.
        hook: HookId,
        /// Opaque argument interpreted by the hook.
        arg: u64,
    },
}

impl SimEvent {
    /// Wraps a one-shot closure as a schedulable event.
    pub fn call(f: impl FnOnce(&mut System, &mut Sim<System>) + 'static) -> Self {
        SimEvent::Thunk(Box::new(f))
    }

    /// One JSON-lines record describing this event at instant `now`
    /// (the event-log format of `memifctl --trace-events`). Hand-rolled
    /// so the format is stable and dependency-free; every value is
    /// deterministic across runs of the same scenario.
    #[must_use]
    pub fn to_record(&self, now: SimTime) -> String {
        let t = now.as_ns();
        match self {
            SimEvent::FlowTick => format!("{{\"t\":{t},\"type\":\"flow_tick\"}}"),
            SimEvent::Thunk(_) => format!("{{\"t\":{t},\"type\":\"thunk\"}}"),
            SimEvent::DmaDone {
                device,
                transfer,
                outcome,
            } => format!(
                "{{\"t\":{t},\"type\":\"dma_done\",\"device\":{},\"transfer\":{},\"outcome\":{}}}",
                device.0,
                transfer.as_u64(),
                outcome_json(*outcome),
            ),
            SimEvent::DmaIrqDelayed {
                device,
                transfer,
                outcome,
                delay,
            } => format!(
                "{{\"t\":{t},\"type\":\"dma_irq_delayed\",\"device\":{},\"transfer\":{},\"outcome\":{},\"delay_ns\":{}}}",
                device.0,
                transfer.as_u64(),
                outcome_json(*outcome),
                delay.as_ns(),
            ),
            SimEvent::DmaIrqLost { device, transfer } => format!(
                "{{\"t\":{t},\"type\":\"dma_irq_lost\",\"device\":{},\"transfer\":{}}}",
                device.0,
                transfer.as_u64(),
            ),
            SimEvent::Launch { device, token } => format!(
                "{{\"t\":{t},\"type\":\"launch\",\"device\":{},\"token\":{token}}}",
                device.0
            ),
            SimEvent::RetryLaunch { device, token } => format!(
                "{{\"t\":{t},\"type\":\"retry_launch\",\"device\":{},\"token\":{token}}}",
                device.0
            ),
            SimEvent::ExecRetry {
                device,
                req,
                attempt,
                shard,
                ..
            } => format!(
                "{{\"t\":{t},\"type\":\"exec_retry\",\"device\":{},\"req\":{},\"attempt\":{attempt}{}}}",
                device.0,
                req.id,
                shard_json(*shard),
            ),
            SimEvent::WatchdogFire { device, token } => format!(
                "{{\"t\":{t},\"type\":\"watchdog_fire\",\"device\":{},\"token\":{token}}}",
                device.0
            ),
            SimEvent::DegradeOrFail {
                device,
                token,
                reason,
            } => format!(
                "{{\"t\":{t},\"type\":\"degrade_or_fail\",\"device\":{},\"token\":{token},\"reason\":\"{reason:?}\"}}",
                device.0
            ),
            SimEvent::DegradedRelease { device, token } => format!(
                "{{\"t\":{t},\"type\":\"degraded_release\",\"device\":{},\"token\":{token}}}",
                device.0
            ),
            SimEvent::IrqRelease { device, token } => format!(
                "{{\"t\":{t},\"type\":\"irq_release\",\"device\":{},\"token\":{token}}}",
                device.0
            ),
            SimEvent::PollRelease { device, token } => format!(
                "{{\"t\":{t},\"type\":\"poll_release\",\"device\":{},\"token\":{token}}}",
                device.0
            ),
            SimEvent::KthreadRun { device, shard } => format!(
                "{{\"t\":{t},\"type\":\"kthread_run\",\"device\":{}{}}}",
                device.0,
                shard_json(*shard),
            ),
            SimEvent::KthreadContinue { device, shard } => format!(
                "{{\"t\":{t},\"type\":\"kthread_continue\",\"device\":{}{}}}",
                device.0,
                shard_json(*shard),
            ),
            SimEvent::SetCapacity { resource, gbps } => format!(
                "{{\"t\":{t},\"type\":\"set_capacity\",\"resource\":{},\"gbps\":{gbps}}}",
                resource.index()
            ),
            SimEvent::Hook { hook, arg } => format!(
                "{{\"t\":{t},\"type\":\"hook\",\"hook\":{},\"arg\":{arg}}}",
                hook.0
            ),
        }
    }
}

/// Shard-index record fragment. Shard 0 is omitted so unsharded runs
/// (and replays of pre-sharding traces) keep the exact seed record
/// shapes, byte for byte.
fn shard_json(shard: usize) -> String {
    if shard == 0 {
        String::new()
    } else {
        format!(",\"shard\":{shard}")
    }
}

fn outcome_json(outcome: DmaOutcome) -> String {
    match outcome {
        DmaOutcome::Completed => "\"completed\"".to_owned(),
        DmaOutcome::Error { bytes_done } => {
            format!("{{\"error\":{{\"bytes_done\":{bytes_done}}}}}")
        }
    }
}

impl std::fmt::Debug for SimEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The JSON record minus the timestamp is the best single-line
        // description we have; reuse it.
        f.write_str(&self.to_record(SimTime::ZERO))
    }
}

impl EventWorld for System {
    type Event = SimEvent;

    /// The central dispatcher: the only place scheduled events are
    /// interpreted. Events against a closed device are dropped here
    /// (drivers may race a close with their own stale continuations).
    fn dispatch(&mut self, sim: &mut Sim<System>, event: SimEvent) {
        if self.crashed {
            // The world has halted: volatile events die undelivered (and
            // unlogged — they never happened as far as the record shows).
            return;
        }
        if self.event_log.is_some() {
            self.logged_at = sim.now();
            let line = event.to_record(sim.now());
            if let Some(log) = &mut self.event_log {
                log.push(line);
            }
        }
        match event {
            SimEvent::FlowTick => FlowSystem::on_tick(self, sim, |sys| &mut sys.flows),
            SimEvent::Thunk(f) => f(self, sim),
            SimEvent::DmaDone {
                device,
                transfer,
                outcome,
            } => {
                if self.device(device).is_some() {
                    complete::on_dma_complete(self, sim, device, transfer, outcome);
                }
            }
            SimEvent::DmaIrqDelayed {
                device,
                transfer,
                outcome,
                delay,
            } => {
                sim.schedule_after(
                    delay,
                    SimEvent::DmaDone {
                        device,
                        transfer,
                        outcome,
                    },
                );
            }
            SimEvent::DmaIrqLost { .. } => {}
            SimEvent::Launch { device, token } => exec::launch(self, sim, device, token),
            SimEvent::RetryLaunch { device, token } => {
                exec::retry_launch(self, sim, device, token);
            }
            SimEvent::ExecRetry {
                device,
                slot,
                req,
                color,
                ctx,
                attempt,
                shard,
            } => {
                if self.device(device).is_some() {
                    let deq = Dequeued { slot, req, color };
                    exec::issue(self, sim, device, &[deq], ctx, attempt, shard);
                }
            }
            SimEvent::WatchdogFire { device, token } => {
                exec::watchdog_fire(self, sim, device, token);
            }
            SimEvent::DegradeOrFail {
                device,
                token,
                reason,
            } => {
                if self.device(device).is_some() {
                    exec::degrade_or_fail(self, sim, device, token, reason);
                }
            }
            SimEvent::DegradedRelease { device, token } => {
                complete::retire(self, sim, device, token, RetireSite::Degraded);
            }
            SimEvent::IrqRelease { device, token } => {
                complete::retire(self, sim, device, token, RetireSite::Interrupt);
            }
            SimEvent::PollRelease { device, token } => {
                complete::retire(self, sim, device, token, RetireSite::Poll);
            }
            SimEvent::KthreadRun { device, shard } => kthread::run(self, sim, device, shard),
            SimEvent::KthreadContinue { device, shard } => {
                kthread::run_continue(self, sim, device, shard);
            }
            SimEvent::SetCapacity { resource, gbps } => {
                self.flows.set_capacity(sim, resource, gbps);
            }
            SimEvent::Hook { hook, arg } => self.run_hook(sim, hook, arg),
        }
        // Every event boundary is a crash opportunity.
        self.crash_opportunity(sim.now(), "event");
    }
}

impl System {
    /// Runs hook `hook` with `arg`. A hook that re-enters itself drops
    /// the nested call.
    fn run_hook(&mut self, sim: &mut Sim<System>, hook: HookId, arg: u64) {
        let Some(slot) = self.hooks.0.get_mut(hook.0) else {
            return;
        };
        let Some(mut f) = slot.take() else {
            return;
        };
        f(self, sim, arg);
        if let Some(slot) = self.hooks.0.get_mut(hook.0) {
            if slot.is_none() {
                *slot = Some(f);
            }
        }
    }

    /// Registers a reusable callback and returns its handle; schedule it
    /// with [`SimEvent::Hook`]. Unlike a [`SimEvent::call`] thunk a hook
    /// is `FnMut` and survives any number of invocations, so the runtime
    /// layer can drive multi-stage state machines (streaming chunks,
    /// placement-daemon epochs) through a fixed, loggable event shape.
    pub fn register_hook(
        &mut self,
        f: impl FnMut(&mut System, &mut Sim<System>, u64) + 'static,
    ) -> HookId {
        self.hooks.0.push(Some(Box::new(f)));
        HookId(self.hooks.0.len() - 1)
    }

    /// Starts recording every dispatched event as a JSON-lines record.
    /// Costs nothing when off (the default).
    pub fn enable_event_log(&mut self) {
        self.event_log = Some(Vec::new());
    }

    /// The recorded event log, if enabled.
    #[must_use]
    pub fn event_log(&self) -> &[String] {
        self.event_log.as_deref().unwrap_or(&[])
    }

    /// Takes the recorded event log, leaving recording enabled.
    pub fn take_event_log(&mut self) -> Vec<String> {
        match &mut self.event_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }
}
