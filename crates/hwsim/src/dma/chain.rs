//! Descriptor-chain bookkeeping and reuse (§5.3).
//!
//! The enhanced DMA driver of the paper "maintains the knowledge of
//! existing descriptor chains": knowing that "starting from descriptor
//! 42, there exists a chain of 32 descriptors, each configured for a 4 KB
//! transfer", it reuses part of or the whole chain, rewriting only the
//! source and destination fields of each reused descriptor. This module
//! implements that knowledge: a pool of descriptor indices, records of
//! configured chains keyed by their per-descriptor size, LRU eviction
//! when the pool runs dry, and busy-marking so a chain serving an
//! in-flight transfer is never reconfigured under the engine.

use crate::hash::IdMap;

/// Identifier of a recorded chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChainId(u64);

/// How a planned transfer maps onto descriptors. The descriptors
/// themselves, in chain order, are [`ChainManager::descriptors`] of
/// `chain`: the reused prefix first, then the fresh ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainPlan {
    /// The chain the transfer will run on.
    pub chain: ChainId,
    /// Leading descriptors reused from a previous configuration (src/dst
    /// rewrite only).
    pub reused: usize,
    /// Trailing descriptors needing a full 12-field configuration.
    pub fresh: usize,
}

impl ChainPlan {
    /// Total descriptors in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.reused + self.fresh
    }

    /// True if the plan holds no descriptors.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug)]
struct ChainRecord {
    descs: Vec<u16>,
    bytes_per_desc: u64,
    /// Per-descriptor byte sizes for mixed-size (coalesced) chains;
    /// `None` for the uniform chains of the classic one-page-per-
    /// descriptor path. Mixed chains carry `bytes_per_desc = 0` so a
    /// uniform plan can never match them.
    sizes: Option<Vec<u64>>,
    last_use: u64,
    busy: bool,
}

/// Errors from chain planning and transfer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainError {
    /// More descriptors were requested than the PaRAM can ever hold.
    TooLarge {
        /// Descriptors the caller asked for.
        requested: usize,
        /// Total descriptors in the PaRAM pool.
        pool: usize,
    },
    /// Every descriptor is currently tied up in busy (in-flight) chains.
    AllBusy,
    /// The scatter-gather list holds no segments at all.
    Empty,
    /// The scatter-gather segments are not uniformly sized (memif
    /// dedicates one equally-sized descriptor per page).
    MixedSizes,
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::TooLarge { requested, pool } => {
                write!(f, "{requested} descriptors requested, pool holds {pool}")
            }
            ChainError::AllBusy => f.write_str("all descriptors busy with in-flight transfers"),
            ChainError::Empty => f.write_str("empty scatter-gather list"),
            ChainError::MixedSizes => f.write_str("scatter-gather segments not uniformly sized"),
        }
    }
}

impl std::error::Error for ChainError {}

/// The descriptor pool and chain-reuse knowledge base.
///
/// Planning allocates nothing once warm: a forgotten chain's descriptor
/// and size lists return to spare lists that the next recorded chain
/// takes over.
#[derive(Debug)]
pub struct ChainManager {
    free: Vec<u16>,
    pool_size: usize,
    chains: IdMap<u64, ChainRecord>,
    next_chain: u64,
    clock: u64,
    reuse_enabled: bool,
    /// Emptied descriptor lists of forgotten chains.
    spare_descs: Vec<Vec<u16>>,
    /// Emptied size lists of forgotten mixed chains.
    spare_sizes: Vec<Vec<u64>>,
}

impl ChainManager {
    /// A manager over `pool_size` descriptor indices (`0..pool_size`).
    ///
    /// # Panics
    ///
    /// Panics if `pool_size` is 0 or above `u16::MAX`.
    #[must_use]
    pub fn new(pool_size: usize) -> Self {
        assert!(
            pool_size > 0 && pool_size < u16::MAX as usize,
            "bad pool size"
        );
        ChainManager {
            free: (0..pool_size as u16).rev().collect(),
            pool_size,
            chains: IdMap::default(),
            next_chain: 0,
            clock: 0,
            reuse_enabled: true,
            spare_descs: Vec::new(),
            spare_sizes: Vec::new(),
        }
    }

    /// Enables or disables chain reuse (ablation A1). With reuse off,
    /// every plan gets freshly configured descriptors and previous chains
    /// are recycled rather than remembered.
    pub fn set_reuse_enabled(&mut self, enabled: bool) {
        self.reuse_enabled = enabled;
    }

    /// Whether reuse is enabled.
    #[must_use]
    pub fn reuse_enabled(&self) -> bool {
        self.reuse_enabled
    }

    /// Free descriptors currently in the pool.
    #[must_use]
    pub fn free_descriptors(&self) -> usize {
        self.free.len()
    }

    /// Plans a transfer of `n` descriptors, each moving `bytes_per_desc`
    /// bytes. The returned plan's chain is marked busy until
    /// [`ChainManager::release`].
    ///
    /// # Errors
    ///
    /// * [`ChainError::TooLarge`] if `n` exceeds the pool size.
    /// * [`ChainError::AllBusy`] if in-flight chains hold every
    ///   descriptor needed.
    pub fn plan(&mut self, n: usize, bytes_per_desc: u64) -> Result<ChainPlan, ChainError> {
        if n > self.pool_size {
            return Err(ChainError::TooLarge {
                requested: n,
                pool: self.pool_size,
            });
        }
        self.clock += 1;

        if !self.reuse_enabled {
            return self.record_fresh(n, bytes_per_desc, None);
        }

        // Best candidate: an idle chain with the same per-descriptor size,
        // preferring the one whose length is closest to (but ideally at
        // least) n so long chains are preserved for large requests.
        let candidate = self
            .chains
            .iter()
            .filter(|(_, c)| !c.busy && c.sizes.is_none() && c.bytes_per_desc == bytes_per_desc)
            .max_by_key(|(_, c)| {
                let len = c.descs.len();
                if len >= n {
                    // Smallest sufficient chain wins among sufficient ones.
                    (1, usize::MAX - len)
                } else {
                    (0, len)
                }
            })
            .map(|(id, _)| *id);

        let Some(id) = candidate else {
            return self.record_fresh(n, bytes_per_desc, None);
        };
        // Mark the candidate busy *before* drawing fresh descriptors so
        // the eviction path cannot steal it, and return any tail beyond
        // the reused prefix to the pool (a longer chain shrinks rather
        // than leaking).
        let c = self.chains.get_mut(&id).expect("candidate exists");
        c.busy = true;
        c.last_use = self.clock;
        let reused = c.descs.len().min(n);
        self.free.extend(c.descs.drain(reused..));
        // The fresh descriptors extend the chain's own list, held out of
        // the map while the pool is drawn on.
        let mut descs = std::mem::take(&mut c.descs);
        let taken = self.take_free(n - reused, &mut descs);
        let c = self.chains.get_mut(&id).expect("candidate exists");
        c.descs = descs;
        if taken.is_err() {
            // Roll back the busy mark; the (shrunk) chain stays usable
            // for smaller requests.
            c.busy = false;
        }
        taken.map(|()| ChainPlan {
            chain: ChainId(id),
            reused,
            fresh: n - reused,
        })
    }

    /// Plans a transfer over explicitly sized segments — the coalesced
    /// issue path, where merged descriptors may differ in size. A
    /// uniform size list delegates to [`ChainManager::plan`] and behaves
    /// byte-for-byte identically; a mixed list is carried by a
    /// geometry-keyed chain that is reused only on an exact size-vector
    /// match (every descriptor's count fields are already right, so the
    /// whole chain goes out with src/dst rewrites alone).
    ///
    /// # Errors
    ///
    /// * [`ChainError::Empty`] on an empty size list.
    /// * [`ChainError::TooLarge`] / [`ChainError::AllBusy`] as for
    ///   [`ChainManager::plan`].
    pub fn plan_segments(&mut self, sizes: &[u64]) -> Result<ChainPlan, ChainError> {
        let Some(&first) = sizes.first() else {
            return Err(ChainError::Empty);
        };
        if sizes.iter().all(|&s| s == first) {
            return self.plan(sizes.len(), first);
        }
        let n = sizes.len();
        if n > self.pool_size {
            return Err(ChainError::TooLarge {
                requested: n,
                pool: self.pool_size,
            });
        }
        self.clock += 1;
        if self.reuse_enabled {
            // Lowest chain id wins among exact matches: unique ids keep
            // the choice independent of the map's iteration order.
            let candidate = self
                .chains
                .iter()
                .filter(|(_, c)| !c.busy && c.sizes.as_deref() == Some(sizes))
                .min_by_key(|(id, _)| **id)
                .map(|(id, _)| *id);
            if let Some(id) = candidate {
                let c = self.chains.get_mut(&id).expect("candidate exists");
                c.busy = true;
                c.last_use = self.clock;
                return Ok(ChainPlan {
                    chain: ChainId(id),
                    reused: n,
                    fresh: 0,
                });
            }
        }
        self.record_fresh(n, 0, Some(sizes))
    }

    /// Marks a chain idle again after its transfer completes or aborts.
    /// With reuse disabled the chain's descriptors return to the pool.
    pub fn release(&mut self, chain: ChainId) {
        if self.reuse_enabled {
            if let Some(c) = self.chains.get_mut(&chain.0) {
                c.busy = false;
            }
        } else {
            self.forget(chain.0);
        }
    }

    /// The descriptors of `chain`, in chain order (empty for a chain
    /// no longer remembered).
    #[must_use]
    pub fn descriptors(&self, chain: ChainId) -> &[u16] {
        self.chains.get(&chain.0).map_or(&[], |c| &c.descs)
    }

    /// Number of chains currently remembered.
    #[must_use]
    pub fn known_chains(&self) -> usize {
        self.chains.len()
    }

    /// Descriptors currently held by busy chains — the pool's in-flight
    /// occupancy. Zero once every transfer has completed or aborted.
    #[must_use]
    pub fn busy_descriptors(&self) -> usize {
        self.chains
            .values()
            .filter(|c| c.busy)
            .map(|c| c.descs.len())
            .sum()
    }

    /// Records a busy chain of `n` descriptors drawn from the pool (with
    /// `sizes` for a mixed-geometry chain).
    fn record_fresh(
        &mut self,
        n: usize,
        bytes_per_desc: u64,
        sizes: Option<&[u64]>,
    ) -> Result<ChainPlan, ChainError> {
        let mut descs = self.spare_descs.pop().unwrap_or_default();
        if let Err(e) = self.take_free(n, &mut descs) {
            self.spare_descs.push(descs);
            return Err(e);
        }
        let sizes = sizes.map(|sizes| {
            let mut v = self.spare_sizes.pop().unwrap_or_default();
            v.extend_from_slice(sizes);
            v
        });
        let id = self.next_chain;
        self.next_chain += 1;
        self.chains.insert(
            id,
            ChainRecord {
                descs,
                bytes_per_desc,
                sizes,
                last_use: self.clock,
                busy: true,
            },
        );
        Ok(ChainPlan {
            chain: ChainId(id),
            reused: 0,
            fresh: n,
        })
    }

    /// Drops chain `id`'s record: its descriptors return to the pool and
    /// its lists to the spares.
    fn forget(&mut self, id: u64) {
        if let Some(c) = self.chains.remove(&id) {
            let mut descs = c.descs;
            self.free.extend_from_slice(&descs);
            descs.clear();
            self.spare_descs.push(descs);
            if let Some(mut sizes) = c.sizes {
                sizes.clear();
                self.spare_sizes.push(sizes);
            }
        }
    }

    /// Moves `n` descriptors from the pool onto the end of `out`,
    /// evicting least-recently-used idle chains while the pool is short.
    fn take_free(&mut self, n: usize, out: &mut Vec<u16>) -> Result<(), ChainError> {
        while self.free.len() < n {
            let victim = self
                .chains
                .iter()
                .filter(|(_, c)| !c.busy)
                .min_by_key(|(id, c)| (c.last_use, **id))
                .map(|(id, _)| *id);
            match victim {
                Some(id) => self.forget(id),
                None => return Err(ChainError::AllBusy),
            }
        }
        let at = self.free.len() - n;
        out.extend(self.free.drain(at..));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_plan_is_all_fresh() {
        let mut m = ChainManager::new(16);
        let p = m.plan(4, 4096).unwrap();
        assert_eq!(p.reused, 0);
        assert_eq!(p.fresh, 4);
        assert_eq!(p.len(), 4);
        assert_eq!(m.free_descriptors(), 12);
    }

    #[test]
    fn released_chain_is_reused_in_full() {
        let mut m = ChainManager::new(16);
        let p1 = m.plan(4, 4096).unwrap();
        let first = m.descriptors(p1.chain).to_vec();
        m.release(p1.chain);
        let p2 = m.plan(4, 4096).unwrap();
        assert_eq!(p2.reused, 4, "whole chain reused");
        assert_eq!(p2.fresh, 0);
        assert_eq!(
            m.descriptors(p2.chain),
            first,
            "same descriptors, same order"
        );
    }

    #[test]
    fn partial_reuse_extends_chain() {
        let mut m = ChainManager::new(16);
        let p1 = m.plan(3, 4096).unwrap();
        m.release(p1.chain);
        let p2 = m.plan(5, 4096).unwrap();
        assert_eq!(p2.reused, 3);
        assert_eq!(p2.fresh, 2);
        m.release(p2.chain);
        // The extended chain now serves 5 in full.
        let p3 = m.plan(5, 4096).unwrap();
        assert_eq!(p3.reused, 5);
    }

    #[test]
    fn prefix_reuse_of_longer_chain() {
        let mut m = ChainManager::new(16);
        let p1 = m.plan(8, 4096).unwrap();
        m.release(p1.chain);
        let p2 = m.plan(2, 4096).unwrap();
        assert_eq!(p2.reused, 2, "reuses part of the whole chain (§5.3)");
        assert_eq!(p2.fresh, 0);
    }

    #[test]
    fn different_page_size_does_not_reuse() {
        let mut m = ChainManager::new(32);
        let p1 = m.plan(4, 4096).unwrap();
        m.release(p1.chain);
        let p2 = m.plan(4, 65_536).unwrap();
        assert_eq!(p2.reused, 0, "4 KiB chain useless for 64 KiB pages");
        assert_eq!(p2.fresh, 4);
    }

    #[test]
    fn busy_chain_is_not_reused() {
        let mut m = ChainManager::new(16);
        let p1 = m.plan(4, 4096).unwrap();
        // p1 not released: in flight.
        let p2 = m.plan(4, 4096).unwrap();
        assert_eq!(p2.reused, 0);
        assert_ne!(m.descriptors(p1.chain), m.descriptors(p2.chain));
    }

    #[test]
    fn lru_eviction_when_pool_exhausted() {
        let mut m = ChainManager::new(8);
        let a = m.plan(4, 4096).unwrap();
        m.release(a.chain);
        let b = m.plan(4, 8192).unwrap();
        m.release(b.chain);
        // Pool empty; a is LRU and idle: must be evicted for a 64 KiB plan.
        let c = m.plan(4, 65_536).unwrap();
        assert_eq!(c.fresh, 4);
        assert_eq!(m.known_chains(), 2, "chain a evicted");
    }

    #[test]
    fn all_busy_is_an_error() {
        let mut m = ChainManager::new(4);
        let _a = m.plan(4, 4096).unwrap();
        assert_eq!(m.plan(1, 4096), Err(ChainError::AllBusy));
    }

    #[test]
    fn too_large_is_an_error() {
        let mut m = ChainManager::new(4);
        assert_eq!(
            m.plan(5, 4096),
            Err(ChainError::TooLarge {
                requested: 5,
                pool: 4
            })
        );
    }

    #[test]
    fn uniform_segments_delegate_to_plan() {
        let mut m = ChainManager::new(16);
        let p1 = m.plan(4, 4096).unwrap();
        m.release(p1.chain);
        let p2 = m.plan_segments(&[4096; 4]).unwrap();
        assert_eq!(p2.reused, 4, "uniform list reuses the uniform chain");
        assert_eq!(p2.fresh, 0);
    }

    #[test]
    fn mixed_chain_reuses_on_exact_match_only() {
        let mut m = ChainManager::new(32);
        let sizes = [8192u64, 4096, 16384];
        let p1 = m.plan_segments(&sizes).unwrap();
        assert_eq!(p1.fresh, 3);
        let first = m.descriptors(p1.chain).to_vec();
        m.release(p1.chain);
        // Exact geometry match: whole chain reused.
        let p2 = m.plan_segments(&sizes).unwrap();
        assert_eq!(p2.reused, 3);
        assert_eq!(p2.fresh, 0);
        assert_eq!(m.descriptors(p2.chain), first);
        m.release(p2.chain);
        // Different geometry: all fresh, even with the old chain idle.
        let p3 = m.plan_segments(&[4096, 8192, 16384]).unwrap();
        assert_eq!(p3.reused, 0);
        assert_eq!(p3.fresh, 3);
    }

    #[test]
    fn mixed_chain_never_serves_uniform_plans() {
        let mut m = ChainManager::new(32);
        let p1 = m.plan_segments(&[4096, 8192]).unwrap();
        m.release(p1.chain);
        let p2 = m.plan(2, 4096).unwrap();
        assert_eq!(p2.reused, 0, "mixed geometry is useless for pages");
        let p3 = m.plan_segments(&[4096; 2]).unwrap();
        assert_eq!(p3.reused, 0, "uniform request skips mixed records");
    }

    #[test]
    fn empty_segment_list_is_an_error() {
        let mut m = ChainManager::new(4);
        assert_eq!(m.plan_segments(&[]), Err(ChainError::Empty));
        assert_eq!(
            m.plan_segments(&[4096, 8192, 4096, 4096, 8192]),
            Err(ChainError::TooLarge {
                requested: 5,
                pool: 4
            })
        );
    }

    #[test]
    fn reuse_disabled_always_fresh() {
        let mut m = ChainManager::new(16);
        m.set_reuse_enabled(false);
        assert!(!m.reuse_enabled());
        let p1 = m.plan(4, 4096).unwrap();
        m.release(p1.chain);
        assert_eq!(m.known_chains(), 0, "no knowledge kept");
        let p2 = m.plan(4, 4096).unwrap();
        assert_eq!(p2.reused, 0);
        assert_eq!(p2.fresh, 4);
    }
}
