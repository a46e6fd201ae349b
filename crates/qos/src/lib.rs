//! Multi-tenant quality of service for memif.
//!
//! The paper pitches memif as a *protected kernel service* (§2, §4): the
//! syscall interface isolates address spaces from each other, but the
//! prototype arbitrates nothing behind that boundary — one tenant
//! streaming huge moves monopolizes the transfer controllers, the
//! descriptor pool, and the issue workers that latency-sensitive small
//! movers depend on. This crate supplies the arbitration:
//!
//! * [`TenantId`] — the QoS principal a request is accounted to. Tenant
//!   0 is the **root** tenant every untagged request belongs to, so a
//!   single-tenant system behaves exactly as before.
//! * [`QosRegistry`] — per-tenant weights, descriptor (request-slot)
//!   quotas, in-flight caps, and live accounting (inflight, pages held,
//!   parked, completion-latency samples).
//! * [`DrrState`] — deficit-round-robin scheduling state for one issue
//!   shard. The driver consults it to pick which tenant's request to
//!   dequeue next when more than one tenant has queued work; byte-level
//!   service then converges to the weight proportions.
//!
//! The crate is deliberately free of driver types: the driver calls
//! [`QosRegistry::admit`] at submit time (parking over-quota requests),
//! [`DrrState::pick`]/[`DrrState::charge`] at each worker dequeue, and
//! [`QosRegistry::release`] (charges and latency) at the retire sites.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// A QoS principal: the client address space a request is accounted to.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct TenantId(pub u16);

impl TenantId {
    /// The root tenant: every request not explicitly tagged belongs to
    /// it, so single-tenant systems keep their exact historical behavior.
    pub const ROOT: TenantId = TenantId(0);

    /// The background tenant in-kernel producers (the placement daemon)
    /// tag their traffic with, so application tenants can outweigh it.
    pub const BACKGROUND: TenantId = TenantId(u16::MAX);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Per-tenant service parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantConfig {
    /// Scheduling weight: long-run issued-byte share is proportional to
    /// weight among backlogged tenants. Clamped to at least 1.
    pub weight: u32,
    /// Maximum request slots (descriptors) the tenant may hold across
    /// the queues and in flight, `None` = unlimited.
    pub descriptor_quota: Option<u32>,
    /// Maximum requests the tenant may have admitted but not yet
    /// retired, `None` = unlimited.
    pub inflight_cap: Option<u32>,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1,
            descriptor_quota: None,
            inflight_cap: None,
        }
    }
}

/// Live accounting for one tenant.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Requests admitted and not yet retired.
    pub inflight: u64,
    /// Request slots (descriptors) currently held.
    pub descriptors_held: u64,
    /// Requests currently parked on the admission wait queue.
    pub parked: u64,
    /// Requests that were parked at least once before admission.
    pub total_parked: u64,
    /// Requests retired (any terminal status).
    pub retired: u64,
    /// Bytes successfully moved.
    pub bytes_moved: u64,
    /// Submission-to-notification latency samples, nanoseconds, in
    /// retirement order.
    pub latency_samples_ns: Vec<u64>,
}

impl TenantStats {
    /// The `q`-quantile (0.0..=1.0) of the recorded latency samples,
    /// nearest-rank on a sorted copy. `None` without samples.
    #[must_use]
    pub fn latency_quantile_ns(&self, q: f64) -> Option<u64> {
        if self.latency_samples_ns.is_empty() {
            return None;
        }
        let mut sorted = self.latency_samples_ns.clone();
        sorted.sort_unstable();
        let rank =
            ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// Median completion latency, nanoseconds.
    #[must_use]
    pub fn p50_ns(&self) -> Option<u64> {
        self.latency_quantile_ns(0.50)
    }

    /// 99th-percentile completion latency, nanoseconds.
    #[must_use]
    pub fn p99_ns(&self) -> Option<u64> {
        self.latency_quantile_ns(0.99)
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct TenantState {
    config: TenantConfig,
    stats: TenantStats,
}

/// The per-system tenant registry: configuration plus live accounting.
///
/// Unregistered tenants get [`TenantConfig::default`] (weight 1, no
/// quotas), so a system that never touches the registry admits
/// everything — QoS is strictly opt-in.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QosRegistry {
    tenants: BTreeMap<u16, TenantState>,
}

impl QosRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or reconfigures) `tenant` with `config`. Live
    /// accounting survives reconfiguration.
    pub fn register(&mut self, tenant: TenantId, config: TenantConfig) {
        self.tenants.entry(tenant.0).or_default().config = config;
    }

    /// The effective configuration of `tenant` (defaults when
    /// unregistered).
    #[must_use]
    pub fn config(&self, tenant: TenantId) -> TenantConfig {
        self.tenants
            .get(&tenant.0)
            .map_or_else(TenantConfig::default, |t| t.config)
    }

    /// The scheduling weight of `tenant`, never below 1.
    #[must_use]
    pub fn weight(&self, tenant: TenantId) -> u32 {
        self.config(tenant).weight.max(1)
    }

    /// Live accounting of `tenant`, if it has ever been registered or
    /// charged.
    #[must_use]
    pub fn stats(&self, tenant: TenantId) -> Option<&TenantStats> {
        self.tenants.get(&tenant.0).map(|t| &t.stats)
    }

    /// Every tenant with registered configuration or recorded activity,
    /// ascending by id.
    pub fn tenants(&self) -> impl Iterator<Item = (TenantId, &TenantConfig, &TenantStats)> {
        self.tenants
            .iter()
            .map(|(id, t)| (TenantId(*id), &t.config, &t.stats))
    }

    /// Admission control: charges one request (and one descriptor slot)
    /// to `tenant` if its caps allow, returning whether the request may
    /// proceed. A tenant with **no** admitted work is always admitted —
    /// the work-conserving minimum that keeps every tenant live even
    /// under a cap smaller than one request.
    pub fn admit(&mut self, tenant: TenantId) -> bool {
        let state = self.tenants.entry(tenant.0).or_default();
        let idle = state.stats.inflight == 0 && state.stats.descriptors_held == 0;
        if !idle {
            if let Some(cap) = state.config.inflight_cap {
                if state.stats.inflight >= u64::from(cap) {
                    return false;
                }
            }
            if let Some(quota) = state.config.descriptor_quota {
                if state.stats.descriptors_held >= u64::from(quota) {
                    return false;
                }
            }
        }
        state.stats.inflight += 1;
        state.stats.descriptors_held += 1;
        true
    }

    /// Releases one admitted request's charges at its retire site and
    /// records its terminal accounting. `bytes` is the payload credited
    /// on success (0 for failures); `latency_ns` the
    /// submission-to-notification latency.
    pub fn release(&mut self, tenant: TenantId, bytes: u64, latency_ns: u64) {
        let state = self.tenants.entry(tenant.0).or_default();
        state.stats.inflight = state.stats.inflight.saturating_sub(1);
        state.stats.descriptors_held = state.stats.descriptors_held.saturating_sub(1);
        state.stats.retired += 1;
        state.stats.bytes_moved += bytes;
        state.stats.latency_samples_ns.push(latency_ns);
    }

    /// Records that one of `tenant`'s requests parked on the admission
    /// wait queue.
    pub fn note_parked(&mut self, tenant: TenantId) {
        let state = self.tenants.entry(tenant.0).or_default();
        state.stats.parked += 1;
        state.stats.total_parked += 1;
    }

    /// Records that one of `tenant`'s parked requests was re-admitted.
    pub fn note_unparked(&mut self, tenant: TenantId) {
        let state = self.tenants.entry(tenant.0).or_default();
        state.stats.parked = state.stats.parked.saturating_sub(1);
    }
}

/// Deficit-round-robin scheduling state for one issue shard (a
/// negative-deficit variant).
///
/// Each backlogged tenant carries a byte deficit. A round picks, in
/// ascending tenant-id order starting after the last served tenant, the
/// first backlogged tenant whose deficit is positive; when none is, every
/// backlogged tenant is replenished by `quantum × weight` first (so
/// replenishment frequency — and therefore byte share — is proportional
/// to weight). The served request's actual bytes are charged afterwards
/// and may push the deficit negative; a tenant that over-drew then sits
/// out replenishment rounds until its debt is repaid. Serving whole
/// requests against a byte ledger is exactly the classic DRR guarantee:
/// long-run service within one maximum request size of the weighted fair
/// share, with no starvation of any backlogged tenant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrrState {
    deficits: BTreeMap<u16, i64>,
    last_served: u16,
    /// Bytes added per weight unit on a replenishment round.
    pub quantum: u64,
}

impl Default for DrrState {
    fn default() -> Self {
        DrrState {
            deficits: BTreeMap::new(),
            last_served: 0,
            quantum: 64 * 1024,
        }
    }
}

impl DrrState {
    /// Picks the tenant to serve next among `active` (the backlogged
    /// tenants of this shard), replenishing deficits if needed.
    /// `weight_of` supplies each tenant's weight. Returns `None` only
    /// when `active` is empty.
    pub fn pick(
        &mut self,
        active: impl Iterator<Item = TenantId> + Clone,
        mut weight_of: impl FnMut(TenantId) -> u32,
    ) -> Option<TenantId> {
        // `active` is walked (cloned) as often as needed instead of
        // being collected, so a pick allocates nothing.
        let ids = active.map(|t| t.0);
        ids.clone().next()?;
        // Deficits of tenants that went idle are forgotten: classic DRR
        // resets an empty queue's deficit so credit cannot be banked.
        self.deficits
            .retain(|id, _| ids.clone().any(|active| active == *id));
        loop {
            // Round-robin scan: ascending ids strictly after the last
            // served tenant, then wrapping.
            let next = ids
                .clone()
                .filter(|id| *id > self.last_served)
                .chain(ids.clone())
                .find(|id| self.deficits.get(id).copied().unwrap_or(0) > 0);
            if let Some(id) = next {
                self.last_served = id;
                return Some(TenantId(id));
            }
            for id in ids.clone() {
                let add = self
                    .quantum
                    .saturating_mul(u64::from(weight_of(TenantId(id)).max(1)));
                let d = self.deficits.entry(id).or_insert(0);
                *d = d.saturating_add(add as i64);
            }
        }
    }

    /// Charges the served request's actual bytes to `tenant`'s deficit.
    pub fn charge(&mut self, tenant: TenantId, bytes: u64) {
        let d = self.deficits.entry(tenant.0).or_insert(0);
        *d = d.saturating_sub(i64::try_from(bytes).unwrap_or(i64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_and_background_are_distinct() {
        assert_eq!(TenantId::ROOT.0, 0);
        assert_ne!(TenantId::ROOT, TenantId::BACKGROUND);
        assert_eq!(TenantId(3).to_string(), "tenant3");
    }

    #[test]
    fn unregistered_tenants_admit_freely() {
        let mut reg = QosRegistry::new();
        for _ in 0..1_000 {
            assert!(reg.admit(TenantId(7)));
        }
        assert_eq!(reg.stats(TenantId(7)).unwrap().inflight, 1_000);
    }

    #[test]
    fn inflight_cap_blocks_and_release_reopens() {
        let mut reg = QosRegistry::new();
        reg.register(
            TenantId(1),
            TenantConfig {
                inflight_cap: Some(2),
                ..TenantConfig::default()
            },
        );
        assert!(reg.admit(TenantId(1)));
        assert!(reg.admit(TenantId(1)));
        assert!(!reg.admit(TenantId(1)));
        reg.release(TenantId(1), 4096, 10);
        assert!(reg.admit(TenantId(1)));
        let s = reg.stats(TenantId(1)).unwrap();
        assert_eq!(s.inflight, 2);
        assert_eq!(s.retired, 1);
        assert_eq!(s.bytes_moved, 4096);
    }

    #[test]
    fn descriptor_quota_blocks() {
        let mut reg = QosRegistry::new();
        reg.register(
            TenantId(2),
            TenantConfig {
                descriptor_quota: Some(3),
                ..TenantConfig::default()
            },
        );
        for _ in 0..3 {
            assert!(reg.admit(TenantId(2)));
        }
        assert!(!reg.admit(TenantId(2)));
    }

    #[test]
    fn idle_tenant_always_admits_once() {
        // Work-conserving minimum: a zero cap cannot freeze a tenant out.
        let mut reg = QosRegistry::new();
        reg.register(
            TenantId(3),
            TenantConfig {
                inflight_cap: Some(0),
                descriptor_quota: Some(0),
                ..TenantConfig::default()
            },
        );
        assert!(reg.admit(TenantId(3)));
        assert!(!reg.admit(TenantId(3)));
        reg.release(TenantId(3), 0, 1);
        assert!(reg.admit(TenantId(3)));
    }

    #[test]
    fn park_accounting() {
        let mut reg = QosRegistry::new();
        reg.note_parked(TenantId(4));
        reg.note_parked(TenantId(4));
        reg.note_unparked(TenantId(4));
        let s = reg.stats(TenantId(4)).unwrap();
        assert_eq!(s.parked, 1);
        assert_eq!(s.total_parked, 2);
    }

    #[test]
    fn latency_percentiles() {
        let mut s = TenantStats::default();
        assert_eq!(s.p50_ns(), None);
        s.latency_samples_ns = (1..=100).rev().collect();
        assert_eq!(s.p50_ns(), Some(50));
        assert_eq!(s.p99_ns(), Some(99));
        assert_eq!(s.latency_quantile_ns(0.0), Some(1));
        assert_eq!(s.latency_quantile_ns(1.0), Some(100));
    }

    /// Byte service under DRR converges to the weight proportions.
    #[test]
    fn drr_byte_share_tracks_weights() {
        let mut reg = QosRegistry::new();
        reg.register(
            TenantId(1),
            TenantConfig {
                weight: 2,
                ..TenantConfig::default()
            },
        );
        let mut drr = DrrState::default();
        let active = [TenantId(1), TenantId(2)];
        let mut served = BTreeMap::new();
        let bytes = 64 * 1024u64; // equal request sizes
        for _ in 0..3_000 {
            let t = drr.pick(active.iter().copied(), |t| reg.weight(t)).unwrap();
            drr.charge(t, bytes);
            *served.entry(t.0).or_insert(0u64) += bytes;
        }
        let a = served[&1] as f64;
        let b = served[&2] as f64;
        let ratio = a / b;
        assert!(
            (1.9..=2.1).contains(&ratio),
            "2:1 weights should give ~2:1 bytes, got {ratio:.3}"
        );
    }

    /// Unequal request sizes: the heavier requests are served less often
    /// so the byte shares still track the weights.
    #[test]
    fn drr_compensates_request_size() {
        let reg = QosRegistry::new(); // both weight 1
        let mut drr = DrrState::default();
        let active = [TenantId(1), TenantId(2)];
        let mut served = BTreeMap::new();
        for _ in 0..5_000 {
            let t = drr.pick(active.iter().copied(), |t| reg.weight(t)).unwrap();
            let bytes = if t.0 == 1 { 2 << 20 } else { 64 * 1024u64 }; // bully vs small
            drr.charge(t, bytes);
            *served.entry(t.0).or_insert(0u64) += bytes;
        }
        let ratio = served[&1] as f64 / served[&2] as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "equal weights should give ~equal bytes despite 32x request sizes, got {ratio:.3}"
        );
    }

    // Property form of the no-starvation guarantee: for *any* roster
    // of weights and per-tenant request sizes, the gap between two
    // services of the same always-backlogged tenant is bounded by the
    // DRR ledger arithmetic — no draw of the parameters can starve a
    // tenant.
    //
    // The bound: tenant `t` leaves a service owing at most its own
    // request size, so it turns positive within
    // `R = size_t / (quantum * w_t) + 2` replenish rounds. Over those
    // rounds the other tenants collectively gain
    // `sum(w_i) * quantum * R` bytes of credit plus at most one
    // request of carryover each, and every pick of theirs burns at
    // least the smallest request size — which caps how many picks can
    // separate `t`'s services.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn drr_no_starvation_for_any_roster(
            roster in proptest::collection::vec(
                (
                    1u32..=32,
                    proptest::prop_oneof![
                        proptest::strategy::Just(64 * 1024u64),
                        proptest::strategy::Just(256 * 1024u64),
                        proptest::strategy::Just(1u64 << 20),
                        proptest::strategy::Just(2u64 << 20),
                    ],
                ),
                2..=5,
            ),
        ) {
            let mut reg = QosRegistry::new();
            for (i, (w, _)) in roster.iter().enumerate() {
                reg.register(
                    TenantId(i as u16),
                    TenantConfig { weight: *w, ..TenantConfig::default() },
                );
            }
            let mut drr = DrrState::default();
            let quantum = drr.quantum;
            let active: Vec<TenantId> =
                (0..roster.len()).map(|i| TenantId(i as u16)).collect();
            let min_bytes = roster.iter().map(|(_, b)| *b).min().unwrap();
            let sum_weights: u64 = roster.iter().map(|(w, _)| u64::from(*w)).sum();
            let bound = |t: usize| -> u64 {
                let (w, bytes) = roster[t];
                let rounds = bytes / (quantum * u64::from(w)) + 2;
                (sum_weights * quantum * rounds
                    + roster.len() as u64 * (2 << 20))
                    / min_bytes
                    + roster.len() as u64
                    + 2
            };
            let iterations = (0..roster.len()).map(&bound).max().unwrap() * 4;
            let mut gaps = vec![0u64; roster.len()];
            for _ in 0..iterations {
                let t = drr
                    .pick(active.iter().copied(), |t| reg.weight(t))
                    .unwrap();
                drr.charge(t, roster[t.0 as usize].1);
                for (i, gap) in gaps.iter_mut().enumerate() {
                    if i == t.0 as usize {
                        *gap = 0;
                    } else {
                        *gap += 1;
                        proptest::prop_assert!(
                            *gap <= bound(i),
                            "tenant {} (weight {}, {} B requests) went {} \
                             picks unserved, bound {}",
                            i,
                            roster[i].0,
                            roster[i].1,
                            gap,
                            bound(i)
                        );
                    }
                }
            }
            // Everyone was actually served within the run, not merely
            // "not yet over the bound".
            proptest::prop_assert!(gaps.iter().all(|g| *g < iterations));
        }
    }

    /// No starvation: every backlogged tenant is served within a bounded
    /// number of rounds.
    #[test]
    fn drr_never_starves() {
        let reg = {
            let mut r = QosRegistry::new();
            r.register(
                TenantId(0),
                TenantConfig {
                    weight: 64,
                    ..TenantConfig::default()
                },
            );
            r
        };
        let mut drr = DrrState::default();
        let active = [TenantId(0), TenantId(9)];
        let mut gap = 0u32;
        let mut worst = 0u32;
        for _ in 0..10_000 {
            let t = drr.pick(active.iter().copied(), |t| reg.weight(t)).unwrap();
            drr.charge(t, 64 * 1024);
            if t.0 == 9 {
                worst = worst.max(gap);
                gap = 0;
            } else {
                gap += 1;
            }
        }
        assert!(
            worst <= 2 * 64 + 2,
            "weight-1 tenant starved for {worst} rounds against weight-64 peer"
        );
    }
}
