//! Per-node physical frame allocation.
//!
//! Each pseudo-NUMA node gets a binary-buddy allocator over 4 KiB
//! granules, supporting every order up to 4 MiB blocks, with coalescing
//! on free. A frame table records order and reference count for every
//! live allocation so migration can free old pages without trusting
//! callers.
//!
//! Both are flat arrays, so every operation is O(1) in the number of
//! live blocks. Each order's free list is a hierarchical bitmap
//! (`BitTree`): allocation takes its lowest set bit, and coalescing
//! test-and-clears the buddy's bit. The frame table is one `u64` per
//! 4 KiB granule of the bank, `refcount << 8 | order` at a live block
//! base and 0 elsewhere; the owning bank is found by a range check. Both
//! grow with the highest block handed out, never with the bank's size.
//! Allocation returns the lowest offset at the lowest order that has
//! room, splitting larger blocks and keeping their upper halves free.

use memif_hwsim::{NodeId, PhysAddr, Topology};

use crate::addr::PageSize;

const GRANULE: u64 = 4096;
const MAX_ORDER: u8 = 10; // up to 4 MiB blocks
/// Frame-table slots hold `refcount << ORDER_BITS | order`.
const ORDER_BITS: u32 = 8;

/// Errors from frame allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The node has no free block large enough.
    OutOfMemory(NodeId),
    /// Unknown node.
    NoSuchNode(NodeId),
    /// Freeing an address that is not an allocated block base.
    BadFree(PhysAddr),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory(n) => write!(f, "{n} out of free pages"),
            AllocError::NoSuchNode(n) => write!(f, "unknown memory {n}"),
            AllocError::BadFree(a) => write!(f, "free of unallocated block {a}"),
        }
    }
}

impl std::error::Error for AllocError {}

/// A growable hierarchical bitmap. `levels[0]` holds one bit per index;
/// bit `j` of `levels[l + 1]` is set iff word `j` of `levels[l]` is
/// non-zero. The top level is always one word, so the lowest set bit is
/// one `trailing_zeros` per level.
#[derive(Debug)]
struct BitTree {
    levels: Vec<Vec<u64>>,
}

impl BitTree {
    fn new() -> Self {
        BitTree {
            levels: vec![vec![0]],
        }
    }

    fn set(&mut self, index: u64) {
        let mut i = index as usize;
        self.grow(i / 64 + 1);
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            let was_empty = *word == 0;
            *word |= 1 << (i % 64);
            if !was_empty {
                break; // the summary bits above are already set
            }
            i /= 64;
        }
    }

    /// Clears bit `index`, returning whether it was set.
    fn take(&mut self, index: u64) -> bool {
        let mut i = index as usize;
        match self.levels[0].get(i / 64) {
            Some(word) if word & (1 << (i % 64)) != 0 => {}
            _ => return false,
        }
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            *word &= !(1 << (i % 64));
            if *word != 0 {
                break;
            }
            i /= 64;
        }
        true
    }

    /// The lowest set index.
    fn first(&self) -> Option<u64> {
        let mut i = 0;
        for level in self.levels.iter().rev() {
            let word = level[i];
            if word == 0 {
                return None; // only the top word can be empty
            }
            i = i * 64 + word.trailing_zeros() as usize;
        }
        Some(i as u64)
    }

    /// Extends the leaf level to `leaf_words` words and every summary
    /// level above it, adding levels until the top is one word again.
    fn grow(&mut self, leaf_words: usize) {
        if self.levels[0].len() >= leaf_words {
            return;
        }
        let mut need = leaf_words;
        let mut l = 0;
        loop {
            if l == self.levels.len() {
                // A new top summarizes the old top's only pre-existing word.
                let below = u64::from(self.levels[l - 1][0] != 0);
                self.levels.push(vec![below]);
            }
            let level = &mut self.levels[l];
            if level.len() < need {
                level.resize(need, 0);
            }
            if level.len() == 1 {
                return;
            }
            need = level.len().div_ceil(64);
            l += 1;
        }
    }
}

/// One node's memory: its buddy free lists and its frame table.
#[derive(Debug)]
struct Bank {
    node: NodeId,
    base: u64,
    end: u64,
    /// Free blocks per order: bit `i` of `free[o]` is the block at offset
    /// `i * (GRANULE << o)` from `base`.
    free: Vec<BitTree>,
    /// One slot per granule from `base`: `refcount << ORDER_BITS | order`
    /// at a live block base, 0 elsewhere.
    frames: Vec<u64>,
    free_bytes: u64,
    total_bytes: u64,
}

impl Bank {
    fn new(node: &memif_hwsim::MemoryNode) -> Self {
        let bytes = node.bytes;
        let mut b = Bank {
            node: node.id,
            base: node.base.as_u64(),
            end: node.base.as_u64() + bytes,
            free: (0..=MAX_ORDER).map(|_| BitTree::new()).collect(),
            frames: Vec::new(),
            free_bytes: 0,
            total_bytes: 0,
        };
        // Seed with maximal aligned blocks.
        let mut off = 0;
        while off + GRANULE <= bytes {
            let mut order = MAX_ORDER;
            loop {
                let block = GRANULE << order;
                if off % block == 0 && off + block <= bytes {
                    break;
                }
                order -= 1;
            }
            let block = GRANULE << order;
            b.free[order as usize].set(off / block);
            b.free_bytes += block;
            b.total_bytes += block;
            off += block;
        }
        b
    }

    /// Takes the lowest free block at the lowest order `>= order` that
    /// has one, splits it down to `order` and records it in the frame
    /// table with one reference. Returns its offset from `base`.
    fn alloc(&mut self, order: u8) -> Option<u64> {
        let (mut o, index) =
            (order..=MAX_ORDER).find_map(|o| self.free[o as usize].first().map(|i| (o, i)))?;
        self.free[o as usize].take(index);
        let off = index * (GRANULE << o);
        // Split down to the requested order, returning upper halves.
        while o > order {
            o -= 1;
            let half = GRANULE << o;
            self.free[o as usize].set(off / half + 1);
        }
        self.free_bytes -= GRANULE << order;
        let slot = (off / GRANULE) as usize;
        if self.frames.len() <= slot {
            self.frames.resize(slot + 1, 0);
        }
        self.frames[slot] = 1 << ORDER_BITS | u64::from(order);
        Some(off)
    }

    /// Returns the block at `off` to the free lists, coalescing with its
    /// buddy while the buddy is free.
    fn release(&mut self, mut off: u64, order: u8) {
        self.free_bytes += GRANULE << order;
        let mut o = order;
        while o < MAX_ORDER {
            let block = GRANULE << o;
            if !self.free[o as usize].take((off ^ block) / block) {
                break;
            }
            off &= !block;
            o += 1;
        }
        self.free[o as usize].set(off / (GRANULE << o));
    }
}

/// Metadata for one live allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Owning node.
    pub node: NodeId,
    /// Buddy order of the block.
    pub order: u8,
    /// Reference count (shared mappings).
    pub refcount: u32,
}

/// The machine-wide frame allocator: one buddy and frame table per
/// online node.
#[derive(Debug)]
pub struct FrameAllocator {
    banks: Vec<Bank>,
    live: usize,
    allocs: u64,
    frees: u64,
}

impl FrameAllocator {
    /// Builds allocators for every *online* node of `topo` — before
    /// [`Topology::complete_boot`] the hidden SRAM bank gets none,
    /// reproducing the §6.1 boot constraint. Call again (or use
    /// [`FrameAllocator::online_node`]) after boot to add late banks.
    #[must_use]
    pub fn new(topo: &Topology) -> Self {
        FrameAllocator {
            banks: topo.online_nodes().map(Bank::new).collect(),
            live: 0,
            allocs: 0,
            frees: 0,
        }
    }

    /// Adds a node that came online after boot.
    ///
    /// # Panics
    ///
    /// Panics if the node already has an allocator.
    pub fn online_node(&mut self, node: &memif_hwsim::MemoryNode) {
        assert!(self.bank(node.id).is_none(), "{} already online", node.id);
        self.banks.push(Bank::new(node));
    }

    fn bank(&self, node: NodeId) -> Option<&Bank> {
        self.banks.iter().find(|b| b.node == node)
    }

    /// `(bank index, frame-table slot)` of the live block based at
    /// `addr`.
    fn live_slot(&self, addr: PhysAddr) -> Option<(usize, usize)> {
        let a = addr.as_u64();
        let b = self
            .banks
            .iter()
            .position(|b| (b.base..b.end).contains(&a))?;
        let off = a - self.banks[b].base;
        let slot = (off / GRANULE) as usize;
        let live =
            off.is_multiple_of(GRANULE) && self.banks[b].frames.get(slot).is_some_and(|&s| s != 0);
        live.then_some((b, slot))
    }

    /// Allocates one `size` page on `node`.
    ///
    /// # Errors
    ///
    /// [`AllocError::NoSuchNode`] or [`AllocError::OutOfMemory`].
    pub fn alloc(&mut self, node: NodeId, size: PageSize) -> Result<PhysAddr, AllocError> {
        let bank = self
            .banks
            .iter_mut()
            .find(|b| b.node == node)
            .ok_or(AllocError::NoSuchNode(node))?;
        let off = bank
            .alloc(size.order())
            .ok_or(AllocError::OutOfMemory(node))?;
        self.live += 1;
        self.allocs += 1;
        Ok(PhysAddr::new(bank.base + off))
    }

    /// Drops one reference to the block at `addr`, freeing it when the
    /// count reaches zero.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadFree`] for an address that is not a live block
    /// base.
    pub fn free(&mut self, addr: PhysAddr) -> Result<(), AllocError> {
        let (b, slot) = self.live_slot(addr).ok_or(AllocError::BadFree(addr))?;
        let bank = &mut self.banks[b];
        bank.frames[slot] -= 1 << ORDER_BITS;
        let entry = bank.frames[slot];
        if entry >> ORDER_BITS == 0 {
            bank.frames[slot] = 0;
            bank.release(slot as u64 * GRANULE, entry as u8);
            self.live -= 1;
            self.frees += 1;
        }
        Ok(())
    }

    /// Adds a reference to a live block (shared mapping).
    ///
    /// # Errors
    ///
    /// [`AllocError::BadFree`] if `addr` is not a live block base.
    pub fn get_ref(&mut self, addr: PhysAddr) -> Result<(), AllocError> {
        let (b, slot) = self.live_slot(addr).ok_or(AllocError::BadFree(addr))?;
        self.banks[b].frames[slot] += 1 << ORDER_BITS;
        Ok(())
    }

    /// Frame metadata for a live block base.
    #[must_use]
    pub fn frame_info(&self, addr: PhysAddr) -> Option<FrameInfo> {
        let (b, slot) = self.live_slot(addr)?;
        let entry = self.banks[b].frames[slot];
        Some(FrameInfo {
            node: self.banks[b].node,
            order: entry as u8,
            refcount: (entry >> ORDER_BITS) as u32,
        })
    }

    /// Free bytes remaining on `node`.
    #[must_use]
    pub fn free_bytes(&self, node: NodeId) -> u64 {
        self.bank(node).map_or(0, |b| b.free_bytes)
    }

    /// Total managed bytes on `node`.
    #[must_use]
    pub fn total_bytes(&self, node: NodeId) -> u64 {
        self.bank(node).map_or(0, |b| b.total_bytes)
    }

    /// `(allocations, frees)` performed so far.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.allocs, self.frees)
    }

    /// Number of live allocations.
    #[must_use]
    pub fn live_frames(&self) -> usize {
        self.live
    }

    /// The nodes with allocators, in id order.
    #[must_use]
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.banks.iter().map(|b| b.node).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memif_hwsim::Topology;

    fn booted_keystone() -> Topology {
        let mut t = Topology::keystone_ii();
        t.complete_boot();
        t
    }

    #[test]
    fn alloc_free_roundtrip() {
        let topo = booted_keystone();
        let mut a = FrameAllocator::new(&topo);
        let before = a.free_bytes(NodeId(1));
        let p = a.alloc(NodeId(1), PageSize::Small4K).unwrap();
        assert_eq!(a.free_bytes(NodeId(1)), before - 4096);
        assert_eq!(a.frame_info(p).unwrap().node, NodeId(1));
        a.free(p).unwrap();
        assert_eq!(a.free_bytes(NodeId(1)), before);
        assert_eq!(a.counters(), (1, 1));
        assert_eq!(a.live_frames(), 0);
    }

    #[test]
    fn sram_capacity_is_six_megabytes() {
        let topo = booted_keystone();
        let mut a = FrameAllocator::new(&topo);
        let mut pages = Vec::new();
        while let Ok(p) = a.alloc(NodeId(1), PageSize::Small4K) {
            pages.push(p);
        }
        assert_eq!(
            pages.len() as u64,
            (6 << 20) / 4096,
            "exactly 6 MiB of 4 KiB pages"
        );
        assert_eq!(
            a.alloc(NodeId(1), PageSize::Small4K),
            Err(AllocError::OutOfMemory(NodeId(1)))
        );
        for p in pages {
            a.free(p).unwrap();
        }
        assert_eq!(a.free_bytes(NodeId(1)), 6 << 20);
    }

    #[test]
    fn hidden_node_absent_until_onlined() {
        let topo = Topology::keystone_ii(); // not booted
        let mut a = FrameAllocator::new(&topo);
        assert_eq!(
            a.alloc(NodeId(1), PageSize::Small4K),
            Err(AllocError::NoSuchNode(NodeId(1)))
        );
        let mut topo2 = topo.clone();
        topo2.complete_boot();
        a.online_node(topo2.node(NodeId(1)).unwrap());
        assert!(a.alloc(NodeId(1), PageSize::Small4K).is_ok());
    }

    #[test]
    fn alignment_per_order() {
        let topo = booted_keystone();
        let mut a = FrameAllocator::new(&topo);
        for size in PageSize::ALL {
            let p = a.alloc(NodeId(0), size).unwrap();
            assert_eq!(
                p.as_u64() % size.bytes(),
                0,
                "{size} block must be naturally aligned"
            );
        }
    }

    #[test]
    fn coalescing_restores_large_blocks() {
        let topo = booted_keystone();
        let mut a = FrameAllocator::new(&topo);
        // Exhaust SRAM with 4 KiB pages, free them all, then grab 2 MiB
        // blocks: coalescing must have restored them.
        let pages: Vec<_> =
            std::iter::from_fn(|| a.alloc(NodeId(1), PageSize::Small4K).ok()).collect();
        for p in &pages {
            a.free(*p).unwrap();
        }
        let blocks: Vec<_> =
            std::iter::from_fn(|| a.alloc(NodeId(1), PageSize::Large2M).ok()).collect();
        assert_eq!(blocks.len(), 3, "6 MiB = 3 coalesced 2 MiB blocks");
    }

    #[test]
    fn refcounting_defers_free() {
        let topo = booted_keystone();
        let mut a = FrameAllocator::new(&topo);
        let p = a.alloc(NodeId(0), PageSize::Small4K).unwrap();
        a.get_ref(p).unwrap();
        a.free(p).unwrap();
        assert!(a.frame_info(p).is_some(), "still referenced");
        a.free(p).unwrap();
        assert!(a.frame_info(p).is_none());
    }

    #[test]
    fn bad_free_detected() {
        let topo = booted_keystone();
        let mut a = FrameAllocator::new(&topo);
        assert!(matches!(
            a.free(PhysAddr::new(0xDEAD_B000)),
            Err(AllocError::BadFree(_))
        ));
        let p = a.alloc(NodeId(0), PageSize::Medium64K).unwrap();
        // Mid-block address is not a block base.
        assert!(matches!(
            a.free(p.offset(4096)),
            Err(AllocError::BadFree(_))
        ));
    }

    #[test]
    fn distinct_nodes_do_not_interfere() {
        let topo = booted_keystone();
        let mut a = FrameAllocator::new(&topo);
        let p0 = a.alloc(NodeId(0), PageSize::Small4K).unwrap();
        let p1 = a.alloc(NodeId(1), PageSize::Small4K).unwrap();
        assert_ne!(
            topo.node_of_addr(p0),
            topo.node_of_addr(p1),
            "allocations land in their node's physical range"
        );
    }
}
