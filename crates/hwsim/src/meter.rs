//! CPU-usage and phase-cost accounting.
//!
//! Figure 6 of the paper reports, per move request, both a *time
//! breakdown* across driver operations and the *CPU usage* each design
//! incurs. [`UsageMeter`] accumulates busy nanoseconds per execution
//! context, and [`PhaseBreakdown`] accumulates cost per driver phase
//! (Table 1 rows), letting the harness print the same columns.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// Execution contexts that can consume CPU (paper §5.4's three paths plus
/// the application itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Context {
    /// Application code on its own behalf (compute, submit protocol).
    App,
    /// Kernel code run in the caller's process context (ioctl/mbind).
    Syscall,
    /// Interrupt handlers.
    Interrupt,
    /// The memif kernel worker thread.
    KernelThread,
    /// The DMA engine (not a CPU; tracked for utilization plots).
    DmaEngine,
}

impl Context {
    /// All contexts, in declaration order (their meter index).
    pub const ALL: [Context; 5] = [
        Context::App,
        Context::Syscall,
        Context::Interrupt,
        Context::KernelThread,
        Context::DmaEngine,
    ];

    /// Whether time in this context occupies a CPU core.
    #[must_use]
    pub fn is_cpu(self) -> bool {
        !matches!(self, Context::DmaEngine)
    }
}

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Context::App => "app",
            Context::Syscall => "syscall",
            Context::Interrupt => "irq",
            Context::KernelThread => "kthread",
            Context::DmaEngine => "dma",
        };
        f.write_str(s)
    }
}

/// Driver operations of Table 1 (plus interface costs), the columns of
/// Figure 6's breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// Op 1 — locating physical page descriptors (gang or per-page).
    Prep,
    /// Op 2 — allocating destination pages and replacing PTEs.
    Remap,
    /// Op 3 — assembling the scatter-gather list and programming the
    /// DMA engine descriptors.
    DmaConfig,
    /// The byte copy itself (DMA transfer time, or CPU memcpy for the
    /// baseline).
    Copy,
    /// Op 4 — releasing old pages (CAS/final PTE + frees).
    Release,
    /// Op 5 — delivering the completion notification.
    Notify,
    /// User/kernel crossings and queue operations.
    Interface,
    /// Cache maintenance (baseline only — memif's engine is coherent).
    CacheMaint,
}

impl Phase {
    /// All phases in presentation order (their breakdown index).
    pub const ALL: [Phase; 8] = [
        Phase::Prep,
        Phase::Remap,
        Phase::DmaConfig,
        Phase::Copy,
        Phase::Release,
        Phase::Notify,
        Phase::Interface,
        Phase::CacheMaint,
    ];
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Prep => "prep",
            Phase::Remap => "remap",
            Phase::DmaConfig => "dma-cfg",
            Phase::Copy => "copy",
            Phase::Release => "release",
            Phase::Notify => "notify",
            Phase::Interface => "interface",
            Phase::CacheMaint => "cache",
        };
        f.write_str(s)
    }
}

/// Accumulated cost per phase.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Cost per phase, indexed by `Phase as usize`.
    costs: [SimDuration; Phase::ALL.len()],
}

impl PhaseBreakdown {
    /// An empty breakdown.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cost` to `phase`.
    pub fn add(&mut self, phase: Phase, cost: SimDuration) {
        self.costs[phase as usize] += cost;
    }

    /// Cost accumulated for `phase`.
    #[must_use]
    pub fn get(&self, phase: Phase) -> SimDuration {
        self.costs[phase as usize]
    }

    /// Sum over all phases.
    #[must_use]
    pub fn total(&self) -> SimDuration {
        self.costs.iter().copied().sum()
    }

    /// Sum over all phases except the byte copy — the "management"
    /// overhead the paper's optimizations target.
    #[must_use]
    pub fn overhead(&self) -> SimDuration {
        self.total().saturating_sub(self.get(Phase::Copy))
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        for (cost, more) in self.costs.iter_mut().zip(other.costs) {
            *cost += more;
        }
    }

    /// Iterates over `(phase, cost)` pairs in presentation order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, SimDuration)> + '_ {
        Phase::ALL.iter().map(|p| (*p, self.get(*p)))
    }
}

/// Busy-time accumulation per execution context.
///
/// When the issue path is sharded, kernel-worker time is additionally
/// attributed per worker via [`UsageMeter::charge_worker`], so a harness
/// can report the per-shard CPU series next to the aggregate
/// [`Context::KernelThread`] line.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UsageMeter {
    /// Busy time per context, indexed by `Context as usize`.
    busy: [SimDuration; Context::ALL.len()],
    workers: Vec<SimDuration>,
    /// CPU time spent compressing bytes bound for a compressed bank
    /// (also charged to its context in `busy`; this is attribution).
    compress: SimDuration,
    /// CPU time spent decompressing bytes leaving a compressed bank.
    decompress: SimDuration,
    /// Busy time attributed per tenant id, sorted by id (attribution-
    /// only, like `workers`: the time was already charged to its
    /// context). Empty unless a QoS-enabled driver records tenant
    /// attribution.
    tenants: Vec<(u16, SimDuration)>,
}

impl UsageMeter {
    /// An empty meter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `cost` of busy time to `ctx`.
    pub fn charge(&mut self, ctx: Context, cost: SimDuration) {
        self.busy[ctx as usize] += cost;
    }

    /// Charges `cost` of [`Context::KernelThread`] busy time, attributing
    /// it to kernel worker `worker` as well as the aggregate context.
    pub fn charge_worker(&mut self, worker: usize, cost: SimDuration) {
        self.charge(Context::KernelThread, cost);
        self.attribute_worker(worker, cost);
    }

    /// Attributes `cost` to kernel worker `worker` **without** touching
    /// the aggregate contexts — for time that was already charged (e.g.
    /// inside the execution path) and only needs per-worker bookkeeping.
    pub fn attribute_worker(&mut self, worker: usize, cost: SimDuration) {
        if self.workers.len() <= worker {
            self.workers.resize(worker + 1, SimDuration::ZERO);
        }
        self.workers[worker] += cost;
    }

    /// Attributes `cost` to `tenant` **without** touching the aggregate
    /// contexts — tenant attribution mirrors worker attribution: the
    /// time was already charged on the execution path and only needs
    /// per-tenant bookkeeping for QoS accounting.
    pub fn attribute_tenant(&mut self, tenant: u16, cost: SimDuration) {
        match self.tenants.binary_search_by_key(&tenant, |t| t.0) {
            Ok(i) => self.tenants[i].1 += cost,
            Err(i) => self.tenants.insert(i, (tenant, cost)),
        }
    }

    /// Busy time attributed to `tenant` (zero if it never ran).
    #[must_use]
    pub fn tenant_busy(&self, tenant: u16) -> SimDuration {
        self.tenants
            .binary_search_by_key(&tenant, |t| t.0)
            .map_or(SimDuration::ZERO, |i| self.tenants[i].1)
    }

    /// Per-tenant attributed busy times, ascending by tenant id. Empty
    /// unless tenant attribution was recorded.
    pub fn tenants(&self) -> impl Iterator<Item = (u16, SimDuration)> + '_ {
        self.tenants.iter().copied()
    }

    /// Busy time accumulated by kernel worker `worker` (zero if it never
    /// ran).
    #[must_use]
    pub fn worker_busy(&self, worker: usize) -> SimDuration {
        self.workers.get(worker).copied().unwrap_or_default()
    }

    /// Per-worker kernel-thread busy times, indexed by worker (shard).
    /// Empty when no worker-attributed charge was recorded.
    #[must_use]
    pub fn workers(&self) -> &[SimDuration] {
        &self.workers
    }

    /// Charges `cost` of compression work to `ctx`, additionally
    /// attributing it to the compressed-tier codec. The time counts
    /// toward `ctx`'s busy total *and* shows up in
    /// [`UsageMeter::compress_busy`].
    pub fn charge_compress(&mut self, ctx: Context, cost: SimDuration) {
        self.charge(ctx, cost);
        self.compress += cost;
    }

    /// Charges `cost` of decompression work to `ctx` (see
    /// [`UsageMeter::charge_compress`]).
    pub fn charge_decompress(&mut self, ctx: Context, cost: SimDuration) {
        self.charge(ctx, cost);
        self.decompress += cost;
    }

    /// CPU time attributed to compressing bytes into compressed banks.
    #[must_use]
    pub fn compress_busy(&self) -> SimDuration {
        self.compress
    }

    /// CPU time attributed to decompressing bytes out of compressed banks.
    #[must_use]
    pub fn decompress_busy(&self) -> SimDuration {
        self.decompress
    }

    /// Busy time accumulated by `ctx`.
    #[must_use]
    pub fn busy(&self, ctx: Context) -> SimDuration {
        self.busy[ctx as usize]
    }

    /// Total CPU busy time (all contexts with [`Context::is_cpu`]).
    #[must_use]
    pub fn cpu_busy(&self) -> SimDuration {
        Context::ALL
            .into_iter()
            .filter(|c| c.is_cpu())
            .map(|c| self.busy(c))
            .sum()
    }

    /// CPU usage over a wall-clock window, as a fraction of one core
    /// (1.0 = one core fully busy). This is the line series in Figure 6.
    #[must_use]
    pub fn cpu_usage(&self, window: SimDuration) -> f64 {
        if window == SimDuration::ZERO {
            return 0.0;
        }
        self.cpu_busy().as_ns() as f64 / window.as_ns() as f64
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        self.busy = Default::default();
        self.workers.clear();
        self.compress = SimDuration::ZERO;
        self.decompress = SimDuration::ZERO;
        self.tenants.clear();
    }
}

/// A pairing of a wall-clock interval with meters, convenient for
/// experiment harnesses.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Measurement {
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
    /// Busy time per context.
    pub meter: UsageMeter,
    /// Cost per driver phase.
    pub phases: PhaseBreakdown,
}

impl Measurement {
    /// Wall-clock span of the measurement.
    #[must_use]
    pub fn wall(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// CPU usage over the measurement window (fraction of one core).
    #[must_use]
    pub fn cpu_usage(&self) -> f64 {
        self.meter.cpu_usage(self.wall())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_accumulation() {
        let mut b = PhaseBreakdown::new();
        b.add(Phase::Prep, SimDuration::from_ns(100));
        b.add(Phase::Prep, SimDuration::from_ns(50));
        b.add(Phase::Copy, SimDuration::from_ns(1_000));
        assert_eq!(b.get(Phase::Prep).as_ns(), 150);
        assert_eq!(b.total().as_ns(), 1_150);
        assert_eq!(b.overhead().as_ns(), 150);
        assert_eq!(b.get(Phase::Release), SimDuration::ZERO);
    }

    #[test]
    fn phase_merge() {
        let mut a = PhaseBreakdown::new();
        a.add(Phase::Remap, SimDuration::from_ns(10));
        let mut b = PhaseBreakdown::new();
        b.add(Phase::Remap, SimDuration::from_ns(5));
        b.add(Phase::Notify, SimDuration::from_ns(1));
        a.merge(&b);
        assert_eq!(a.get(Phase::Remap).as_ns(), 15);
        assert_eq!(a.get(Phase::Notify).as_ns(), 1);
    }

    #[test]
    fn usage_fractions() {
        let mut m = UsageMeter::new();
        m.charge(Context::Syscall, SimDuration::from_ns(250));
        m.charge(Context::KernelThread, SimDuration::from_ns(250));
        m.charge(Context::DmaEngine, SimDuration::from_ns(9_999));
        assert_eq!(m.cpu_busy().as_ns(), 500, "DMA time is not CPU time");
        let usage = m.cpu_usage(SimDuration::from_ns(1_000));
        assert!((usage - 0.5).abs() < 1e-9);
        assert_eq!(m.cpu_usage(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn measurement_window() {
        let mut meas = Measurement {
            start: SimTime::from_ns(1_000),
            end: SimTime::from_ns(3_000),
            ..Measurement::default()
        };
        meas.meter.charge(Context::App, SimDuration::from_ns(1_000));
        assert_eq!(meas.wall().as_ns(), 2_000);
        assert!((meas.cpu_usage() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn per_worker_attribution() {
        let mut m = UsageMeter::new();
        assert!(m.workers().is_empty());
        m.charge_worker(2, SimDuration::from_ns(100));
        m.charge_worker(0, SimDuration::from_ns(40));
        m.charge_worker(2, SimDuration::from_ns(1));
        assert_eq!(m.worker_busy(0).as_ns(), 40);
        assert_eq!(m.worker_busy(1), SimDuration::ZERO);
        assert_eq!(m.worker_busy(2).as_ns(), 101);
        assert_eq!(m.worker_busy(99), SimDuration::ZERO);
        // Worker charges flow into the aggregate kernel-thread context;
        // attribution-only does not (the time was charged elsewhere).
        assert_eq!(m.busy(Context::KernelThread).as_ns(), 141);
        m.attribute_worker(0, SimDuration::from_ns(9));
        assert_eq!(m.worker_busy(0).as_ns(), 49);
        assert_eq!(m.busy(Context::KernelThread).as_ns(), 141);
        m.reset();
        assert!(m.workers().is_empty());
    }

    #[test]
    fn codec_attribution() {
        let mut m = UsageMeter::new();
        assert_eq!(m.compress_busy(), SimDuration::ZERO);
        m.charge_compress(Context::KernelThread, SimDuration::from_ns(300));
        m.charge_decompress(Context::KernelThread, SimDuration::from_ns(100));
        m.charge(Context::KernelThread, SimDuration::from_ns(50));
        assert_eq!(m.compress_busy().as_ns(), 300);
        assert_eq!(m.decompress_busy().as_ns(), 100);
        // Codec time is real kernel-thread CPU time, not a side channel.
        assert_eq!(m.busy(Context::KernelThread).as_ns(), 450);
        m.reset();
        assert_eq!(m.compress_busy(), SimDuration::ZERO);
        assert_eq!(m.decompress_busy(), SimDuration::ZERO);
    }

    #[test]
    fn per_tenant_attribution() {
        let mut m = UsageMeter::new();
        assert_eq!(m.tenant_busy(0), SimDuration::ZERO);
        m.charge(Context::KernelThread, SimDuration::from_ns(100));
        m.attribute_tenant(0, SimDuration::from_ns(70));
        m.attribute_tenant(7, SimDuration::from_ns(30));
        m.attribute_tenant(7, SimDuration::from_ns(5));
        assert_eq!(m.tenant_busy(0).as_ns(), 70);
        assert_eq!(m.tenant_busy(7).as_ns(), 35);
        assert_eq!(m.tenant_busy(1), SimDuration::ZERO);
        let collected: Vec<_> = m.tenants().collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0].0, 0, "ascending tenant order");
        // Attribution-only: aggregate contexts untouched.
        assert_eq!(m.busy(Context::KernelThread).as_ns(), 100);
        m.reset();
        assert_eq!(m.tenant_busy(7), SimDuration::ZERO);
        assert_eq!(m.tenants().count(), 0);
    }

    #[test]
    fn dense_indices_follow_declaration_order() {
        for (i, c) in Context::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i);
        }
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i);
        }
    }

    #[test]
    fn context_properties() {
        assert!(Context::App.is_cpu());
        assert!(!Context::DmaEngine.is_cpu());
        assert_eq!(Context::Interrupt.to_string(), "irq");
        assert_eq!(Phase::DmaConfig.to_string(), "dma-cfg");
    }
}
