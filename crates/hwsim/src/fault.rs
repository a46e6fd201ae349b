//! Deterministic, seedable hardware fault injection.
//!
//! The simulated EDMA3 engine and the bandwidth fabric are, by default,
//! perfectly reliable — every launched transfer completes and every
//! interrupt arrives. Real hardware is not: completion interrupts get
//! lost or coalesced late, transfers error out mid-flight (ECC, bus
//! aborts), the PaRAM descriptor pool is transiently hogged by other
//! tenants, and a memory node's effective bandwidth sags under thermal
//! or refresh pressure. This module models all four as a *fault plan*:
//! a pure function of a seed and the engine's call sequence, so a chaos
//! run is exactly reproducible from its seed.
//!
//! Injection is strictly opt-in. No [`FaultInjector`] installed means no
//! extra events, no RNG draws, and byte-identical simulation output —
//! the zero-cost default the figure replications rely on.
//!
//! A simulated crash is not one of these faults: it halts the whole
//! machine, not one transfer, so it has no place in a [`FaultPlan`].
//! The machine schedules it itself, as a count of crash opportunities
//! (`memif::System::arm_crash`).

use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;

/// A deterministic xorshift-free PRNG (SplitMix64): tiny state, good
/// avalanche, and — crucially — identical streams on every platform.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; returns 0 for a zero bound.
    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// A scheduled bandwidth brownout on one memory node: between `start`
/// and `start + duration` the node's bus capacity is multiplied by
/// `factor` (e.g. `0.25` = quarter speed).
#[derive(Debug, Clone, PartialEq)]
pub struct Brownout {
    /// The affected memory node.
    pub node: NodeId,
    /// When the brownout begins.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
    /// Capacity multiplier during the window, in `(0, 1]`.
    pub factor: f64,
}

/// The complete fault configuration for one chaos run.
///
/// All rates are per-event probabilities in `[0, 1]`. The default plan
/// injects nothing; [`FaultPlan::is_noop`] tells installers whether they
/// can skip installation entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Probability a launched transfer errors out mid-flight (the engine
    /// raises an error interrupt after a uniformly random prefix of the
    /// transfer's bytes).
    pub dma_error_rate: f64,
    /// Probability a transfer's completion interrupt is silently lost
    /// (the bytes arrive, the driver is never told).
    pub drop_rate: f64,
    /// Probability a completion interrupt is delivered late.
    pub delay_rate: f64,
    /// Upper bound of the injected interrupt delay (uniform in
    /// `(0, max_delay]`).
    pub max_delay: SimDuration,
    /// Probability a descriptor-pool allocation hits a transient
    /// exhaustion burst (other tenants hogging the PaRAM).
    pub desc_exhaust_rate: f64,
    /// Consecutive allocations that fail once a burst starts.
    pub desc_exhaust_burst: u32,
    /// Scheduled bandwidth brownouts.
    pub brownouts: Vec<Brownout>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            dma_error_rate: 0.0,
            drop_rate: 0.0,
            delay_rate: 0.0,
            max_delay: SimDuration::from_us(500),
            desc_exhaust_rate: 0.0,
            desc_exhaust_burst: 4,
            brownouts: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// An empty (inject-nothing) plan with the given seed, ready for
    /// struct-update customization.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// A plan that injects only DMA mid-flight errors at `rate`.
    #[must_use]
    pub fn dma_errors(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            dma_error_rate: rate,
            ..FaultPlan::default()
        }
    }

    /// True if the plan can never inject anything.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.dma_error_rate <= 0.0
            && self.drop_rate <= 0.0
            && self.delay_rate <= 0.0
            && self.desc_exhaust_rate <= 0.0
            && self.brownouts.is_empty()
    }
}

/// What the injector decided for one launched transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferFault {
    /// The transfer proceeds normally.
    None,
    /// The engine errors out after `bytes_done` of the payload.
    Error {
        /// Bytes transferred before the error interrupt.
        bytes_done: u64,
    },
    /// The transfer completes but its completion interrupt is lost.
    DropCompletion,
    /// The completion interrupt is delivered `delay` late.
    DelayCompletion(SimDuration),
}

/// Counters of injected faults (diagnostics and experiment reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transfers forced to error mid-flight.
    pub dma_errors: u64,
    /// Completion interrupts dropped.
    pub dropped_completions: u64,
    /// Completion interrupts delayed.
    pub delayed_completions: u64,
    /// Descriptor allocations failed by transient exhaustion.
    pub desc_exhaustions: u64,
}

/// The stateful injector: owns the seeded RNG and rolls each fault
/// decision in a fixed order, so the fault stream is a deterministic
/// function of `(seed, sequence of engine operations)`.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    exhaust_left: u32,
    stats: FaultStats,
}

impl FaultInjector {
    /// An injector executing `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SplitMix64::new(plan.seed);
        FaultInjector {
            plan,
            rng,
            exhaust_left: 0,
            stats: FaultStats::default(),
        }
    }

    /// The plan being executed.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection counters so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Rolls the fate of a transfer of `bytes` about to launch. Draws
    /// are made in a fixed order (error, drop, delay) regardless of the
    /// configured rates, keeping downstream decisions aligned across
    /// plans that differ in one rate.
    pub fn roll_transfer(&mut self, bytes: u64) -> TransferFault {
        let error = self.rng.next_f64() < self.plan.dma_error_rate;
        let drop = self.rng.next_f64() < self.plan.drop_rate;
        let delay = self.rng.next_f64() < self.plan.delay_rate;
        if error {
            self.stats.dma_errors += 1;
            // Fail after a strict prefix: at least 0, less than all.
            let bytes_done = self.rng.below(bytes.max(1));
            return TransferFault::Error { bytes_done };
        }
        if drop {
            self.stats.dropped_completions += 1;
            return TransferFault::DropCompletion;
        }
        if delay {
            self.stats.delayed_completions += 1;
            let ns = 1 + self.rng.below(self.plan.max_delay.as_ns().max(1));
            return TransferFault::DelayCompletion(SimDuration::from_ns(ns));
        }
        TransferFault::None
    }

    /// Rolls whether a descriptor-pool allocation transiently fails.
    /// Once a burst begins, the next `desc_exhaust_burst - 1`
    /// allocations fail too (a tenant hogging the PaRAM does not vanish
    /// between two back-to-back configure attempts).
    pub fn roll_configure(&mut self) -> bool {
        if self.exhaust_left > 0 {
            self.exhaust_left -= 1;
            self.stats.desc_exhaustions += 1;
            return true;
        }
        if self.rng.next_f64() < self.plan.desc_exhaust_rate {
            self.exhaust_left = self.plan.desc_exhaust_burst.saturating_sub(1);
            self.stats.desc_exhaustions += 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let plan = FaultPlan {
            seed: 42,
            dma_error_rate: 0.3,
            drop_rate: 0.2,
            delay_rate: 0.2,
            desc_exhaust_rate: 0.1,
            ..FaultPlan::default()
        };
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for i in 0..256 {
            assert_eq!(
                a.roll_transfer(4096 * (i + 1)),
                b.roll_transfer(4096 * (i + 1))
            );
            assert_eq!(a.roll_configure(), b.roll_configure());
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 7,
            ..FaultPlan::default()
        });
        for _ in 0..100 {
            assert_eq!(inj.roll_transfer(4096), TransferFault::None);
            assert!(!inj.roll_configure());
        }
        assert_eq!(inj.stats(), FaultStats::default());
        assert!(inj.plan().is_noop());
    }

    #[test]
    fn error_prefix_is_a_strict_prefix() {
        let mut inj = FaultInjector::new(FaultPlan::dma_errors(3, 1.0));
        for _ in 0..100 {
            match inj.roll_transfer(8192) {
                TransferFault::Error { bytes_done } => assert!(bytes_done < 8192),
                other => panic!("expected an error, got {other:?}"),
            }
        }
        assert_eq!(inj.stats().dma_errors, 100);
    }

    #[test]
    fn exhaustion_comes_in_bursts() {
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 11,
            desc_exhaust_rate: 0.05,
            desc_exhaust_burst: 3,
            ..FaultPlan::default()
        });
        // Every exhaustion run must be at least `burst` long.
        let rolls: Vec<bool> = (0..2000).map(|_| inj.roll_configure()).collect();
        let mut run = 0u32;
        let mut saw_burst = false;
        for &fail in &rolls {
            if fail {
                run += 1;
            } else {
                if run > 0 {
                    assert!(run >= 3, "burst shorter than configured: {run}");
                    saw_burst = true;
                }
                run = 0;
            }
        }
        assert!(saw_burst, "rate 0.05 over 2000 rolls should burst");
    }

    #[test]
    fn delay_bounded_by_max_delay() {
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 5,
            delay_rate: 1.0,
            max_delay: SimDuration::from_us(10),
            ..FaultPlan::default()
        });
        for _ in 0..100 {
            match inj.roll_transfer(4096) {
                TransferFault::DelayCompletion(d) => {
                    assert!(d.as_ns() >= 1 && d.as_ns() <= 10_000);
                }
                other => panic!("expected a delay, got {other:?}"),
            }
        }
    }
}
