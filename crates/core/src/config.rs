//! memif instance configuration.

use memif_hwsim::SimDuration;

/// How the driver handles CPU/DMA races during migration (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RaceMode {
    /// **Proceed and fail** (the paper's default): Remap installs a
    /// semi-final PTE with the young bit set; Release CASes in the final
    /// PTE and treats a failed CAS as a program error, delivering a
    /// SEGFAULT-equivalent failure notification.
    #[default]
    DetectFail,
    /// **Proceed and recover** (the paper's alternative): migrating pages
    /// are additionally write-watched; a trapping write aborts the
    /// migration, restores the original mapping, drops the DMA transfer,
    /// and delivers an `Aborted` notification. Higher complexity and
    /// overhead, but the racing write is preserved.
    DetectRecover,
    /// **Prevent** (ablation A3): the Linux-baseline behavior grafted
    /// onto memif — install migration entries that block accessors, and
    /// pay the second PTE+TLB update in Release. Shows what the
    /// detection design buys.
    Prevent,
}

/// Per-instance tunables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemifConfig {
    /// Usable request slots in the shared region.
    pub queue_capacity: usize,
    /// Race handling for migrations.
    pub race_mode: RaceMode,
    /// Use gang page lookup (§5.1). Off = per-page vertical walks
    /// (ablation A2).
    pub gang_lookup: bool,
    /// Reuse DMA descriptor chains (§5.3). Off = full reconfiguration
    /// every transfer (ablation A1).
    pub descriptor_reuse: bool,
    /// Requests below this size complete via the kernel thread's polling
    /// mode instead of an interrupt (§5.4; the paper uses 512 KB).
    /// `None` inherits the cost model's threshold. `Some(0)` forces
    /// interrupts always; `Some(u64::MAX)` forces polling always
    /// (ablation A4).
    pub poll_threshold_bytes: Option<u64>,
    /// Maximum transfers the driver keeps in flight per device. At 2
    /// (default) the kernel thread prepares and issues the next request
    /// while the previous transfer is still on the engine — the EDMA3's
    /// multiple transfer controllers make this free — pipelining CPU
    /// work with DMA time. 1 reproduces strictly serial service
    /// (ablation A5).
    pub pipeline_depth: usize,
    /// How many times the driver re-issues a request whose DMA path
    /// failed (engine error, watchdog timeout, descriptor exhaustion
    /// under chaos) before degrading. Only consulted when a fault plan
    /// is installed; the fault-free hot path never retries this way.
    pub max_dma_retries: u32,
    /// Base backoff before a retry; attempt *k* waits
    /// `retry_backoff * 2^k`. Also the (fixed) descriptor-exhaustion
    /// backoff on the fault-free path.
    pub retry_backoff: SimDuration,
    /// Watchdog deadline multiplier: a transfer is declared lost after
    /// `expected_time * watchdog_factor + watchdog_slack`, where the
    /// expected time comes from the transfer's bytes at the engine's
    /// demand bandwidth plus the per-descriptor overhead. The watchdog
    /// is armed only when a fault plan is installed.
    pub watchdog_factor: u32,
    /// Constant slack added to every watchdog deadline (absorbs queueing
    /// behind other tenants' transfers).
    pub watchdog_slack: SimDuration,
    /// When DMA retries are exhausted, fall back to a costed CPU copy
    /// (4 µs/page-class memcpy charged to the kernel thread) instead of
    /// failing the request. Off = deliver `MoveStatus::Failed`.
    pub cpu_fallback: bool,
    /// How many compatible queued requests (same kind, same page size)
    /// the kernel thread may drain into one chained scatter-gather
    /// launch per scheduling round. The batch completes with a single
    /// interrupt whose handler fans status back out per request; the
    /// fan-out's same-instant worker wakes share one timer (counted in
    /// `timer_rearm_saved`). 1 (default) reproduces the classic
    /// one-request-per-wake issue path exactly.
    pub batch_max: usize,
    /// Merge adjacent scatter-gather segments whose source and
    /// destination frames are both physically contiguous into one larger
    /// descriptor, so descriptor-write cost is paid per merged
    /// descriptor. Off by default: the seed figures dedicate one
    /// descriptor per page.
    pub coalesce: bool,
    /// Number of issue shards: staging/submission queue pairs, each
    /// drained by its own kernel worker on its own simulated CPU.
    /// Submissions are routed by a region-affinity hash of the request's
    /// covering VMA, so requests that could overlap land on the same
    /// shard and keep per-region FIFO order; a cross-shard in-flight
    /// span index catches the residue. 1 (default) reproduces the
    /// single-queue, single-worker issue path exactly.
    pub issue_shards: usize,
    /// Write-ahead journal every issued move to persistent media so a
    /// crash mid-move is recoverable by [`crate::System::recover`].
    /// Each issue pays one `journal_write` from the cost model. Off by
    /// default: moves are volatile, exactly as the paper's prototype,
    /// and the hot path pays nothing.
    pub journal: bool,
    /// Multi-tenant QoS: per-tenant admission control at submit time
    /// (over-quota requests park and re-admit at retire, like deferred
    /// hazards), deficit-round-robin weighted-fair dequeue at each issue
    /// shard when more than one tenant is active, and per-tenant
    /// accounting in stats and the usage meter. Off by default: every
    /// request belongs to the root tenant, no per-tenant bookkeeping
    /// runs, and the issue path is instruction-for-instruction the plain
    /// FIFO one — recorded traces and figures stay byte-identical.
    pub qos: bool,
}

impl Default for MemifConfig {
    fn default() -> Self {
        MemifConfig {
            queue_capacity: 64,
            race_mode: RaceMode::DetectFail,
            gang_lookup: true,
            descriptor_reuse: true,
            poll_threshold_bytes: None,
            pipeline_depth: 2,
            max_dma_retries: 3,
            retry_backoff: SimDuration::from_us(20),
            watchdog_factor: 8,
            watchdog_slack: SimDuration::from_us(100),
            cpu_fallback: true,
            batch_max: 1,
            coalesce: false,
            issue_shards: 1,
            journal: false,
            qos: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MemifConfig::default();
        assert_eq!(c.race_mode, RaceMode::DetectFail);
        assert!(c.gang_lookup);
        assert!(c.descriptor_reuse);
        assert_eq!(c.poll_threshold_bytes, None);
        assert!(c.queue_capacity > 0);
        assert_eq!(c.pipeline_depth, 2);
    }

    #[test]
    fn hardening_defaults() {
        let c = MemifConfig::default();
        assert_eq!(c.max_dma_retries, 3);
        assert_eq!(c.retry_backoff, SimDuration::from_us(20));
        assert_eq!(c.watchdog_factor, 8);
        assert_eq!(c.watchdog_slack, SimDuration::from_us(100));
        assert!(c.cpu_fallback);
    }

    #[test]
    fn batching_defaults_preserve_seed_behaviour() {
        let c = MemifConfig::default();
        assert_eq!(c.batch_max, 1, "one request per wake, as the seed");
        assert!(!c.coalesce, "one descriptor per page, as the seed");
    }

    #[test]
    fn sharding_default_preserves_seed_behaviour() {
        let c = MemifConfig::default();
        assert_eq!(
            c.issue_shards, 1,
            "one staging queue, one kernel worker, as the seed"
        );
    }

    #[test]
    fn journal_default_preserves_seed_behaviour() {
        let c = MemifConfig::default();
        assert!(!c.journal, "moves are volatile by default, as the seed");
    }

    #[test]
    fn qos_default_preserves_seed_behaviour() {
        let c = MemifConfig::default();
        assert!(
            !c.qos,
            "single root tenant, plain FIFO issue order, as the seed"
        );
    }
}
