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
//! test-and-clears the buddy's bit. The frame table is one `u32` per
//! 4 KiB granule of the bank, `refcount << 8 | order` at a live block
//! base and 0 elsewhere, so a block holds at most 2^24 − 1 references;
//! the owning bank is found by a range check. Both grow with the
//! highest block handed out, never with the bank's size.
//! Allocation returns the lowest offset at the lowest order that has
//! room, splitting larger blocks and keeping their upper halves free.
//!
//! A move allocates and frees its pages as runs.
//! [`FrameAllocator::alloc_run`] returns what as many single
//! allocations would: those take consecutive sub-blocks of one split
//! block until it is used up, so the run takes the block once and puts
//! back only what it leaves. [`FrameAllocator::free_many`] frees each
//! stretch of adjacent blocks as the aligned blocks that tile it. Both
//! are exact because a buddy allocator's free lists depend only on
//! which granules are free: no two free buddies coexist, so the free
//! blocks are the largest aligned ones the free granules fill.

use memif_hwsim::{NodeId, PhysAddr, Topology};

use crate::addr::PageSize;

const GRANULE: u64 = 4096;
const MAX_ORDER: u8 = 10; // up to 4 MiB blocks
/// Frame-table slots hold `refcount << ORDER_BITS | order`.
const ORDER_BITS: u32 = 8;
/// The most references a block can hold: the count's 24 bits, all set.
pub const MAX_REFS: u32 = u32::MAX >> ORDER_BITS;

/// Errors from frame allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The node has no free block large enough.
    OutOfMemory(NodeId),
    /// Unknown node.
    NoSuchNode(NodeId),
    /// Freeing an address that is not an allocated block base.
    BadFree(PhysAddr),
    /// The block already holds [`MAX_REFS`] references.
    TooManyRefs(PhysAddr),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory(n) => write!(f, "{n} out of free pages"),
            AllocError::NoSuchNode(n) => write!(f, "unknown memory {n}"),
            AllocError::BadFree(a) => write!(f, "free of unallocated block {a}"),
            AllocError::TooManyRefs(a) => write!(f, "block {a} holds too many references"),
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

    /// True if no bit is set: the one-word top level is zero.
    fn is_empty(&self) -> bool {
        self.levels.last().is_some_and(|top| top[0] == 0)
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

    /// Every set index, ascending.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.levels[0].iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| (w * 64 + b) as u64)
        })
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
    /// Bit `o` is set iff `free[o]` holds a block, so allocation finds
    /// its order with one `trailing_zeros` instead of probing each list.
    nonempty: u16,
    /// One slot per granule from `base`: `refcount << ORDER_BITS | order`
    /// at a live block base, 0 elsewhere.
    frames: Vec<u32>,
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
            nonempty: 0,
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
            b.put(order, off / block);
            b.free_bytes += block;
            b.total_bytes += block;
            off += block;
        }
        b
    }

    /// Takes the lowest free block at the lowest order `>= order` that
    /// has one and hands out its first `want` (at least one) sub-blocks
    /// of `order`, each recorded in the frame table with one reference.
    /// The rest of the block goes back to the free lists as the aligned
    /// blocks that cover it. Returns the first sub-block's offset from
    /// `base` and how many were handed out.
    ///
    /// This is what consecutive single-block allocations do: once the
    /// lowest fitting order is above `order`, each call splits off the
    /// next sub-block of the same block, in ascending order, until the
    /// block is used up. A call for `want` blocks leaves the free lists
    /// exactly as `want` such calls would.
    fn take_run(&mut self, order: u8, want: u64) -> Option<(u64, u64)> {
        let fits = self.nonempty >> order << order;
        if fits == 0 {
            return None;
        }
        let o = fits.trailing_zeros() as u8;
        let index = self.free[o as usize]
            .first()
            .expect("order marked non-empty");
        self.take(o, index);
        let block = GRANULE << order;
        let off = index * (GRANULE << o);
        let span = 1u64 << (o - order);
        let got = span.min(want);
        for j in 0..got {
            let slot = ((off + j * block) / GRANULE) as usize;
            if self.frames.len() <= slot {
                self.frames.resize(slot + 1, 0);
            }
            self.frames[slot] = 1 << ORDER_BITS | u32::from(order);
        }
        // Sub-blocks `got..span` go back as aligned blocks: at position
        // `pos` the largest one whose alignment `pos` has.
        let mut pos = got;
        while pos < span {
            let up = pos.trailing_zeros() as u8;
            self.put(order + up, (off + pos * block) / (block << up));
            pos += 1 << up;
        }
        self.free_bytes -= got * block;
        Some((off, got))
    }

    /// Frees the `blocks` consecutive `order` blocks from `off`: the
    /// range goes back as the largest aligned blocks that tile it, each
    /// coalescing with its buddies. A buddy allocator's free lists
    /// depend only on which granules are free, so this leaves them as
    /// freeing each block in turn would.
    fn release_stretch(&mut self, off: u64, order: u8, blocks: u64) {
        let end = off + blocks * (GRANULE << order);
        let mut at = off;
        while at < end {
            let mut o = order;
            while o < MAX_ORDER
                && at.is_multiple_of(GRANULE << (o + 1))
                && at + (GRANULE << (o + 1)) <= end
            {
                o += 1;
            }
            self.release(at, o);
            at += GRANULE << o;
        }
    }

    /// Returns the block at `off` to the free lists, coalescing with its
    /// buddy while the buddy is free.
    fn release(&mut self, mut off: u64, order: u8) {
        self.free_bytes += GRANULE << order;
        let mut o = order;
        while o < MAX_ORDER {
            let block = GRANULE << o;
            if !self.take(o, (off ^ block) / block) {
                break;
            }
            off &= !block;
            o += 1;
        }
        self.put(o, off / (GRANULE << o));
    }

    /// Marks block `index` of order `o` free.
    fn put(&mut self, o: u8, index: u64) {
        self.free[o as usize].set(index);
        self.nonempty |= 1 << o;
    }

    /// Claims block `index` of order `o` if it is free, returning
    /// whether it was.
    fn take(&mut self, o: u8, index: u64) -> bool {
        let list = &mut self.free[o as usize];
        let taken = list.take(index);
        if taken && list.is_empty() {
            self.nonempty &= !(1 << o);
        }
        taken
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

    /// `(bank index, offset from its base)` of `addr`.
    fn locate(&self, addr: PhysAddr) -> Option<(usize, u64)> {
        let a = addr.as_u64();
        let b = self
            .banks
            .iter()
            .position(|b| (b.base..b.end).contains(&a))?;
        Some((b, a - self.banks[b].base))
    }

    /// `(bank index, frame-table slot)` of the live block based at
    /// `addr`.
    fn live_slot(&self, addr: PhysAddr) -> Option<(usize, usize)> {
        let (b, off) = self.locate(addr)?;
        let slot = (off / GRANULE) as usize;
        let live = off.is_multiple_of(GRANULE)
            && self.banks[b]
                .frames
                .get(slot)
                .is_some_and(|&s| s >> ORDER_BITS != 0);
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
        let (off, _) = bank
            .take_run(size.order(), 1)
            .ok_or(AllocError::OutOfMemory(node))?;
        self.live += 1;
        self.allocs += 1;
        Ok(PhysAddr::new(bank.base + off))
    }

    /// Allocates `n` `size` pages on `node`, appending to `out` exactly
    /// the addresses `n` calls of [`alloc`](Self::alloc) would return.
    /// A block split for the run is taken once, and only what the run
    /// leaves of it goes back to the free lists.
    ///
    /// # Errors
    ///
    /// [`AllocError::NoSuchNode`], or [`AllocError::OutOfMemory`] when
    /// the node runs out part-way. Then nothing stays allocated and
    /// `out` is as it was; [`counters`](Self::counters) record the
    /// allocations made and their rollback, as a loop of `alloc` calls
    /// freeing its pages on failure would.
    pub fn alloc_run(
        &mut self,
        node: NodeId,
        size: PageSize,
        n: u32,
        out: &mut Vec<PhysAddr>,
    ) -> Result<(), AllocError> {
        if n == 0 {
            return Ok(());
        }
        let bank = self
            .banks
            .iter_mut()
            .find(|b| b.node == node)
            .ok_or(AllocError::NoSuchNode(node))?;
        let order = size.order();
        let block = size.bytes();
        let (mark, want) = (out.len(), u64::from(n));
        let mut got = 0;
        while got < want {
            let Some((off, k)) = bank.take_run(order, want - got) else {
                break;
            };
            out.extend((0..k).map(|j| PhysAddr::new(bank.base + off + j * block)));
            got += k;
        }
        self.allocs += got;
        if got < want {
            for addr in out.drain(mark..) {
                let off = addr.as_u64() - bank.base;
                bank.frames[(off / GRANULE) as usize] = 0;
                bank.release(off, order);
            }
            self.frees += got;
            return Err(AllocError::OutOfMemory(node));
        }
        self.live += n as usize;
        Ok(())
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

    /// [`free`](Self::free) on every address of `addrs` in turn, with
    /// the buddy work done once per run: every reference is dropped
    /// first, then each stretch of adjacent blocks of one order whose
    /// count reached zero is freed as the aligned blocks that tile it.
    /// The free lists end as per-address frees leave them. Appends the
    /// blocks freed to `released`, ascending.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadFree`] naming the first address that was not a
    /// live block base when its turn came; every other address is still
    /// freed.
    pub fn free_many(
        &mut self,
        addrs: &[PhysAddr],
        released: &mut Vec<PhysAddr>,
    ) -> Result<(), AllocError> {
        let mark = released.len();
        let mut bad = None;
        for &addr in addrs {
            let Some((b, slot)) = self.live_slot(addr) else {
                bad = bad.or(Some(AllocError::BadFree(addr)));
                continue;
            };
            // A slot left at refcount 0 keeps its order for the pass
            // below and is no longer live.
            let entry = &mut self.banks[b].frames[slot];
            *entry -= 1 << ORDER_BITS;
            if *entry >> ORDER_BITS == 0 {
                released.push(addr);
            }
        }
        released[mark..].sort_unstable();
        let mut rest = &released[mark..];
        self.live -= rest.len();
        self.frees += rest.len() as u64;
        while let Some(&first) = rest.first() {
            let (b, start) = self.locate(first).expect("a live block's bank");
            let bank = &mut self.banks[b];
            let order = bank.frames[(start / GRANULE) as usize] as u8;
            let block = GRANULE << order;
            // The stretch: each next block of the bank, if it is of the
            // same order.
            let mut n = 0;
            while let Some(&addr) = rest.get(n) {
                let off = start + n as u64 * block;
                let slot = (off / GRANULE) as usize;
                if addr.as_u64() != bank.base + off
                    || addr.as_u64() >= bank.end
                    || bank.frames[slot] as u8 != order
                {
                    break;
                }
                bank.frames[slot] = 0;
                n += 1;
            }
            bank.release_stretch(start, order, n as u64);
            rest = &rest[n..];
        }
        bad.map_or(Ok(()), Err)
    }

    /// Adds a reference to a live block (shared mapping).
    ///
    /// # Errors
    ///
    /// [`AllocError::BadFree`] if `addr` is not a live block base, or
    /// [`AllocError::TooManyRefs`] if it already holds [`MAX_REFS`]
    /// references; either way the block is left as it was.
    pub fn get_ref(&mut self, addr: PhysAddr) -> Result<(), AllocError> {
        let (b, slot) = self.live_slot(addr).ok_or(AllocError::BadFree(addr))?;
        let entry = &mut self.banks[b].frames[slot];
        if *entry >> ORDER_BITS == MAX_REFS {
            return Err(AllocError::TooManyRefs(addr));
        }
        *entry += 1 << ORDER_BITS;
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
            refcount: entry >> ORDER_BITS,
        })
    }

    /// Every free block on `node` as `(base, order)`, by order and then
    /// address (diagnostics).
    pub fn free_blocks(&self, node: NodeId) -> impl Iterator<Item = (PhysAddr, u8)> + '_ {
        self.bank(node).into_iter().flat_map(|b| {
            (0..=MAX_ORDER).flat_map(move |o| {
                b.free[o as usize]
                    .iter()
                    .map(move |i| (PhysAddr::new(b.base + i * (GRANULE << o)), o))
            })
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
    fn references_stop_at_the_cap() {
        let topo = booted_keystone();
        let mut a = FrameAllocator::new(&topo);
        let p = a.alloc(NodeId(0), PageSize::Medium64K).unwrap();
        for _ in 1..MAX_REFS {
            a.get_ref(p).unwrap();
        }
        let capped = a.frame_info(p).unwrap();
        assert_eq!(capped.refcount, MAX_REFS);
        assert_eq!(a.get_ref(p), Err(AllocError::TooManyRefs(p)));
        assert_eq!(a.frame_info(p), Some(capped), "the slot is unchanged");
        a.free(p).unwrap();
        assert_eq!(a.frame_info(p).unwrap().refcount, MAX_REFS - 1);
        a.get_ref(p).unwrap();
        assert_eq!(a.frame_info(p), Some(capped));
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
