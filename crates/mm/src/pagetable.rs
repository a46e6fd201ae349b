//! The page table, with gang lookup.
//!
//! Geometry follows ARM LPAE-style long descriptors: three levels of
//! 9-bit indices over a 39-bit virtual space, 4 KiB granules. 2 MiB pages
//! are level-2 block entries; 64 KiB pages are represented by one entry
//! at their aligned base granule (the contiguous-hint simplification).
//!
//! *Gang page lookup* (§5.1): all pages of a move request are virtually
//! contiguous, so most of their PTEs are adjacent. Only the first page
//! descends vertically from the root; the rest walk horizontally across
//! neighboring entries, restarting the descent only when the walk crosses
//! into a different leaf table. [`WalkStats`] counts both step kinds so
//! callers can charge the corresponding costs: the simulated walk still
//! charges all three levels per descent.
//!
//! In host memory the table is not a radix tree. It keeps one `Chunk`
//! per 2 MiB of virtual space in a `Vec` indexed by `vaddr >> 21`, grown
//! to the highest chunk written: exactly what a level-2 slot of the tree
//! held. A chunk is empty, one 2 MiB block entry, or a boxed leaf table
//! of 512 entries plus one `live` bit per entry, which keeps "no entry"
//! apart from a stored non-present one. A 2 MiB block and a leaf table
//! never share a chunk, so every lookup is one index and one bit test,
//! and the gang walks ([`PageTable::lookup_range_into`],
//! [`PageTable::update_range`]) resolve each leaf run's chunk once and
//! then index its slots. Only a store allocates: a miss never builds a
//! leaf table.

use crate::addr::{PageSize, VirtAddr};
use crate::pte::Pte;

const LEVEL_BITS: u32 = 9;
const FANOUT: usize = 1 << LEVEL_BITS;
/// log2 of the span of one chunk, a level-2 slot: 2 MiB.
const CHUNK_SHIFT: u32 = 12 + LEVEL_BITS;
/// Chunks in the 39-bit space; addresses above it wrap, as the three
/// 9-bit indices of a radix walk do.
const CHUNKS: u64 = 1 << (2 * LEVEL_BITS);

/// Counts of page-table walking work, for cost charging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkStats {
    /// Full descents from the table root.
    pub vertical: u32,
    /// Steps to an adjacent entry within the same leaf table.
    pub horizontal: u32,
}

impl WalkStats {
    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: WalkStats) {
        self.vertical += other.vertical;
        self.horizontal += other.horizontal;
    }
}

/// One 2 MiB chunk of virtual space.
#[derive(Debug, Default)]
enum Chunk {
    #[default]
    Empty,
    /// A leaf table of 4 KiB and 64 KiB entries.
    Table(Box<Leaf>),
    /// A 2 MiB block entry.
    Block(Pte),
}

/// A leaf table: entry `i` maps granule `i` of its chunk.
#[derive(Debug)]
struct Leaf {
    ptes: [Pte; FANOUT],
    /// Bit `i` is set iff `ptes[i]` holds an entry.
    live: [u64; FANOUT / 64],
}

impl Leaf {
    fn new() -> Box<Self> {
        Box::new(Leaf {
            ptes: [Pte::EMPTY; FANOUT],
            live: [0; FANOUT / 64],
        })
    }

    fn is_live(&self, i: usize) -> bool {
        self.live[i / 64] >> (i % 64) & 1 == 1
    }

    fn get(&self, i: usize) -> Option<Pte> {
        self.is_live(i).then(|| self.ptes[i])
    }

    fn get_mut(&mut self, i: usize) -> Option<&mut Pte> {
        if self.is_live(i) {
            Some(&mut self.ptes[i])
        } else {
            None
        }
    }

    /// Stores `pte` in slot `i`, returning the entry it held.
    fn set(&mut self, i: usize, pte: Pte) -> Option<Pte> {
        let old = self.get(i);
        self.live[i / 64] |= 1 << (i % 64);
        self.ptes[i] = pte;
        old
    }

    /// Empties slot `i`, returning the entry it held.
    fn take(&mut self, i: usize) -> Option<Pte> {
        let old = self.get(i);
        self.live[i / 64] &= !(1 << (i % 64));
        old
    }
}

/// Errors from page-table mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// The virtual address is not aligned to the page size.
    Unaligned(VirtAddr, PageSize),
    /// A mapping of a different granularity occupies the slot.
    Occupied(VirtAddr),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::Unaligned(va, size) => write!(f, "{va} unaligned for {size} page"),
            TableError::Occupied(va) => write!(f, "conflicting mapping at {va}"),
        }
    }
}

impl std::error::Error for TableError {}

/// The chunk holding `vaddr`.
fn chunk_index(vaddr: VirtAddr) -> usize {
    ((vaddr.as_u64() >> CHUNK_SHIFT) % CHUNKS) as usize
}

/// The leaf-table slot of `vaddr`'s 4 KiB granule.
fn granule_index(vaddr: VirtAddr) -> usize {
    (vaddr.as_u64() >> 12) as usize % FANOUT
}

/// Leaf slots between two consecutive `size` pages of a leaf table.
fn slot_stride(size: PageSize) -> usize {
    match size {
        PageSize::Large2M => 1,
        _ => (size.bytes() >> 12) as usize,
    }
}

/// Walk steps for `count` consecutive `size` pages from `start`: with
/// `gang`, one descent per leaf table the run touches (a level-3 table
/// spans 2 MiB, the level-2 table of block entries 1 GiB) and a
/// horizontal step for every other page; without, a descent per page.
fn walk_stats(start: VirtAddr, count: u32, size: PageSize, gang: bool) -> WalkStats {
    if !gang || count == 0 {
        return WalkStats {
            vertical: count,
            horizontal: 0,
        };
    }
    let span = if size == PageSize::Large2M {
        CHUNK_SHIFT + LEVEL_BITS
    } else {
        CHUNK_SHIFT
    };
    let last = start.offset(u64::from(count - 1) * size.bytes());
    let tables = ((last.as_u64() >> span) - (start.as_u64() >> span)) as u32 + 1;
    WalkStats {
        vertical: tables,
        horizontal: count - tables,
    }
}

/// Splits `count` consecutive 4 KiB or 64 KiB pages from `start` into
/// runs whose entries share one leaf table: `(first page, pages, leaf
/// slot of the first page)`. Page `first + j` of a run sits at slot
/// `slot + j * slot_stride(size)` of the chunk that holds `first`.
fn leaf_runs(
    start: VirtAddr,
    count: u32,
    size: PageSize,
) -> impl Iterator<Item = (u32, u32, usize)> {
    let stride = slot_stride(size);
    let mut first = 0;
    std::iter::from_fn(move || {
        if first >= count {
            return None;
        }
        let slot = granule_index(start.offset(u64::from(first) * size.bytes()));
        let room = ((FANOUT - 1 - slot) / stride + 1) as u32;
        let run = (first, room.min(count - first), slot);
        first += run.1;
        Some(run)
    })
}

/// The per-address-space page table.
#[derive(Debug, Default)]
pub struct PageTable {
    /// Chunk `c` covers `[c * 2 MiB, (c + 1) * 2 MiB)`.
    chunks: Vec<Chunk>,
    mapped: usize,
}

impl PageTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live leaf entries.
    #[must_use]
    pub fn mapped_entries(&self) -> usize {
        self.mapped
    }

    /// Installs `pte` at `vaddr` (granularity from `pte.size()`).
    ///
    /// # Errors
    ///
    /// [`TableError::Unaligned`] for a misaligned address;
    /// [`TableError::Occupied`] if a table node blocks a block mapping or
    /// vice versa. Overwriting an existing *leaf* of the same shape is
    /// allowed (it is a remap).
    pub fn map(&mut self, vaddr: VirtAddr, pte: Pte) -> Result<(), TableError> {
        self.store(vaddr, pte).map(drop)
    }

    /// Removes the mapping at `vaddr`, returning the old entry. A miss
    /// changes nothing.
    pub fn unmap(&mut self, vaddr: VirtAddr, size: PageSize) -> Option<Pte> {
        if !vaddr.is_aligned(size) {
            return None;
        }
        let chunk = self.chunks.get_mut(chunk_index(vaddr))?;
        let old = match (chunk, size) {
            (chunk @ Chunk::Block(_), PageSize::Large2M) => match std::mem::take(chunk) {
                Chunk::Block(pte) => Some(pte),
                _ => unreachable!("matched a block"),
            },
            (Chunk::Table(leaf), PageSize::Small4K | PageSize::Medium64K) => {
                leaf.take(granule_index(vaddr))
            }
            _ => None,
        };
        if old.is_some() {
            self.mapped -= 1;
        }
        old
    }

    /// Looks up the entry mapping `vaddr` at `size` granularity, with a
    /// full vertical walk.
    #[must_use]
    pub fn lookup(&self, vaddr: VirtAddr, size: PageSize) -> (Option<Pte>, WalkStats) {
        let stats = WalkStats {
            vertical: 1,
            horizontal: 0,
        };
        (self.peek(vaddr, size), stats)
    }

    /// Entry value without any cost accounting (internal/diagnostics).
    #[must_use]
    pub fn peek(&self, vaddr: VirtAddr, size: PageSize) -> Option<Pte> {
        match (self.chunks.get(chunk_index(vaddr))?, size) {
            (Chunk::Block(pte), PageSize::Large2M) => Some(*pte),
            (Chunk::Table(leaf), PageSize::Small4K | PageSize::Medium64K) => {
                leaf.get(granule_index(vaddr))
            }
            _ => None,
        }
    }

    /// The leaf entry mapping `vaddr` at `size` granularity, for an
    /// in-place read-modify-write. Never allocates: `None` where
    /// [`peek`](Self::peek) finds no entry.
    pub fn entry_mut(&mut self, vaddr: VirtAddr, size: PageSize) -> Option<&mut Pte> {
        match (self.chunks.get_mut(chunk_index(vaddr))?, size) {
            (Chunk::Block(pte), PageSize::Large2M) => Some(pte),
            (Chunk::Table(leaf), PageSize::Small4K | PageSize::Medium64K) => {
                leaf.get_mut(granule_index(vaddr))
            }
            _ => None,
        }
    }

    /// Gang lookup (§5.1): entries for `count` consecutive `size` pages
    /// starting at `start`. Returns one `Option<Pte>` per page plus the
    /// walk statistics (first page vertical, neighbors horizontal,
    /// re-descending on leaf-table boundaries).
    ///
    /// With `gang` false every page performs a full vertical walk — the
    /// per-page baseline behavior, kept for ablation A2.
    #[must_use]
    pub fn lookup_range(
        &self,
        start: VirtAddr,
        count: u32,
        size: PageSize,
        gang: bool,
    ) -> (Vec<Option<Pte>>, WalkStats) {
        let mut out = Vec::with_capacity(count as usize);
        let stats = self.lookup_range_into(start, count, size, gang, &mut out);
        (out, stats)
    }

    /// [`lookup_range`](Self::lookup_range) writing into a caller-owned
    /// buffer (cleared first), so hot paths can reuse one allocation
    /// across requests instead of allocating a result vector per call.
    pub fn lookup_range_into(
        &self,
        start: VirtAddr,
        count: u32,
        size: PageSize,
        gang: bool,
        out: &mut Vec<Option<Pte>>,
    ) -> WalkStats {
        out.clear();
        out.reserve(count as usize);
        self.read_range(start, count, size, |_, entry| out.push(entry));
        walk_stats(start, count, size, gang)
    }

    /// Calls `f(i, entry)` for the `count` consecutive `size` pages from
    /// `start` in order, resolving each leaf run's chunk once.
    pub(crate) fn read_range(
        &self,
        start: VirtAddr,
        count: u32,
        size: PageSize,
        mut f: impl FnMut(u32, Option<Pte>),
    ) {
        let page = |i: u32| start.offset(u64::from(i) * size.bytes());
        if size == PageSize::Large2M {
            for i in 0..count {
                match self.chunks.get(chunk_index(page(i))) {
                    Some(Chunk::Block(pte)) => f(i, Some(*pte)),
                    _ => f(i, None),
                }
            }
            return;
        }
        let stride = slot_stride(size);
        for (first, pages, slot) in leaf_runs(start, count, size) {
            let Some(Chunk::Table(leaf)) = self.chunks.get(chunk_index(page(first))) else {
                (first..first + pages).for_each(|i| f(i, None));
                continue;
            };
            for j in 0..pages {
                f(first + j, leaf.get(slot + j as usize * stride));
            }
        }
    }

    /// [`read_range`](Self::read_range) with each entry lent for an
    /// in-place write: `f(i, None)` where there is no entry.
    pub(crate) fn write_range(
        &mut self,
        start: VirtAddr,
        count: u32,
        size: PageSize,
        mut f: impl FnMut(u32, Option<&mut Pte>),
    ) {
        let page = |i: u32| start.offset(u64::from(i) * size.bytes());
        if size == PageSize::Large2M {
            for i in 0..count {
                match self.chunks.get_mut(chunk_index(page(i))) {
                    Some(Chunk::Block(pte)) => f(i, Some(pte)),
                    _ => f(i, None),
                }
            }
            return;
        }
        let stride = slot_stride(size);
        for (first, pages, slot) in leaf_runs(start, count, size) {
            let Some(Chunk::Table(leaf)) = self.chunks.get_mut(chunk_index(page(first))) else {
                (first..first + pages).for_each(|i| f(i, None));
                continue;
            };
            for j in 0..pages {
                f(first + j, leaf.get_mut(slot + j as usize * stride));
            }
        }
    }

    /// Gang write: the write side of [`lookup_range`](Self::lookup_range).
    /// Visits the `count` consecutive `size` leaves from `start` in
    /// order, resolving each leaf table once instead of once per page,
    /// and calls `update(i, entry)` for page `i`:
    ///
    /// - `entry` is `Ok(Some(pte))` for a leaf, `Ok(None)` for an empty
    ///   slot, and `Err` where [`replace`](Self::replace) would fail (a
    ///   misaligned page, or a mapping of the other granularity in the
    ///   way);
    /// - `update` returns the entry to store, or `None` to leave the
    ///   slot as it is. A store into an empty slot creates its leaf
    ///   table if needed and counts as a new mapping; the return value
    ///   for an `Err` slot is ignored.
    ///
    /// Per-page [`replace`](Self::replace) is `update` returning
    /// `Some(new)`; per-page
    /// [`compare_exchange`](Self::compare_exchange) compares first.
    pub fn update_range(
        &mut self,
        start: VirtAddr,
        count: u32,
        size: PageSize,
        mut update: impl FnMut(u32, Result<Option<Pte>, TableError>) -> Option<Pte>,
    ) {
        let page = |i: u32| start.offset(u64::from(i) * size.bytes());
        if !start.is_aligned(size) {
            for i in 0..count {
                update(i, Err(TableError::Unaligned(page(i), size)));
            }
            return;
        }
        if size == PageSize::Large2M {
            for i in 0..count {
                let c = chunk_index(page(i));
                match self.chunks.get_mut(c) {
                    Some(Chunk::Table(_)) => {
                        update(i, Err(TableError::Occupied(page(i))));
                    }
                    Some(Chunk::Block(pte)) => {
                        if let Some(new) = update(i, Ok(Some(*pte))) {
                            *pte = new;
                        }
                    }
                    _ => {
                        if let Some(new) = update(i, Ok(None)) {
                            *self.chunk_or_grow(c) = Chunk::Block(new);
                            self.mapped += 1;
                        }
                    }
                }
            }
            return;
        }
        let stride = slot_stride(size);
        for (first, pages, slot) in leaf_runs(start, count, size) {
            let c = chunk_index(page(first));
            let mut j = 0;
            match self.chunks.get(c) {
                Some(Chunk::Block(_)) => {
                    for i in first..first + pages {
                        update(i, Err(TableError::Occupied(page(i))));
                    }
                    continue;
                }
                Some(Chunk::Table(_)) => {}
                // No leaf table yet: offer empty slots until a store
                // needs one.
                _ => {
                    while j < pages {
                        let (i, index) = (first + j, slot + j as usize * stride);
                        j += 1;
                        if let Some(new) = update(i, Ok(None)) {
                            let mut leaf = Leaf::new();
                            leaf.set(index, new);
                            *self.chunk_or_grow(c) = Chunk::Table(leaf);
                            self.mapped += 1;
                            break;
                        }
                    }
                    if j == pages {
                        continue;
                    }
                }
            }
            let PageTable { chunks, mapped } = self;
            let Chunk::Table(leaf) = &mut chunks[c] else {
                unreachable!("a leaf table holds the run");
            };
            for j in j..pages {
                let index = slot + j as usize * stride;
                match leaf.get_mut(index) {
                    Some(pte) => {
                        if let Some(new) = update(first + j, Ok(Some(*pte))) {
                            *pte = new;
                        }
                    }
                    None => {
                        if let Some(new) = update(first + j, Ok(None)) {
                            leaf.set(index, new);
                            *mapped += 1;
                        }
                    }
                }
            }
        }
    }

    /// Replaces the entry at `vaddr`, returning the old one.
    ///
    /// # Errors
    ///
    /// Propagates [`TableError`] from slot resolution.
    pub fn replace(&mut self, vaddr: VirtAddr, new: Pte) -> Result<Pte, TableError> {
        Ok(self.store(vaddr, new)?.unwrap_or(Pte::EMPTY))
    }

    /// The compare-and-swap of §5.2: installs `new` only if the current
    /// entry equals `expected`; otherwise returns the entry actually
    /// found. This is how memif's Release detects races: any concurrent
    /// modification of the semi-final PTE makes the swap fail.
    ///
    /// # Errors
    ///
    /// `Err(actual)` when the current entry differs from `expected`.
    pub fn compare_exchange(
        &mut self,
        vaddr: VirtAddr,
        expected: Pte,
        new: Pte,
    ) -> Result<(), Pte> {
        let size = new.size();
        match self.entry_mut(vaddr, size) {
            Some(pte) if *pte == expected && vaddr.is_aligned(size) => {
                *pte = new;
                Ok(())
            }
            Some(pte) => Err(*pte),
            // An empty slot matches only an expected empty entry; the
            // install may have to create its leaf table.
            None if expected == Pte::EMPTY => {
                self.replace(vaddr, new).map_err(|_| Pte::EMPTY)?;
                Ok(())
            }
            None => Err(Pte::EMPTY),
        }
    }

    /// Stores `pte` at `vaddr`, creating its leaf table if needed, and
    /// returns the entry it replaced.
    fn store(&mut self, vaddr: VirtAddr, pte: Pte) -> Result<Option<Pte>, TableError> {
        let size = pte.size();
        if !vaddr.is_aligned(size) {
            return Err(TableError::Unaligned(vaddr, size));
        }
        let chunk = self.chunk_or_grow(chunk_index(vaddr));
        let old = match (size, &mut *chunk) {
            (PageSize::Large2M, Chunk::Table(_))
            | (PageSize::Small4K | PageSize::Medium64K, Chunk::Block(_)) => {
                return Err(TableError::Occupied(vaddr));
            }
            (PageSize::Large2M, Chunk::Block(old)) => Some(std::mem::replace(old, pte)),
            (PageSize::Large2M, Chunk::Empty) => {
                *chunk = Chunk::Block(pte);
                None
            }
            (_, Chunk::Table(leaf)) => leaf.set(granule_index(vaddr), pte),
            (_, Chunk::Empty) => {
                let mut leaf = Leaf::new();
                leaf.set(granule_index(vaddr), pte);
                *chunk = Chunk::Table(leaf);
                None
            }
        };
        if old.is_none() {
            self.mapped += 1;
        }
        Ok(old)
    }

    /// Chunk `c`, growing the table to hold it.
    fn chunk_or_grow(&mut self, c: usize) -> &mut Chunk {
        if self.chunks.len() <= c {
            self.chunks.resize_with(c + 1, Chunk::default);
        }
        &mut self.chunks[c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memif_hwsim::PhysAddr;

    fn pte(frame: u64, size: PageSize) -> Pte {
        Pte::mapping(PhysAddr::new(frame), size)
    }

    #[test]
    fn map_lookup_unmap() {
        let mut t = PageTable::new();
        let va = VirtAddr::new(0x4000_0000);
        t.map(va, pte(0x8000_0000, PageSize::Small4K)).unwrap();
        assert_eq!(t.mapped_entries(), 1);
        let (found, stats) = t.lookup(va, PageSize::Small4K);
        assert_eq!(found.unwrap().frame(), PhysAddr::new(0x8000_0000));
        assert_eq!(stats.vertical, 1);
        assert_eq!(
            t.unmap(va, PageSize::Small4K).unwrap().frame(),
            PhysAddr::new(0x8000_0000)
        );
        assert_eq!(t.mapped_entries(), 0);
        assert!(t.peek(va, PageSize::Small4K).is_none());
    }

    #[test]
    fn large_pages_live_at_level_2() {
        let mut t = PageTable::new();
        let va = VirtAddr::new(0x4000_0000);
        t.map(va, pte(0x8020_0000, PageSize::Large2M)).unwrap();
        assert_eq!(
            t.peek(va, PageSize::Large2M).unwrap().size(),
            PageSize::Large2M
        );
        // A 4 KiB mapping inside the block conflicts.
        assert_eq!(
            t.map(va.offset(4096), pte(0x9000_0000, PageSize::Small4K)),
            Err(TableError::Occupied(va.offset(4096)))
        );
    }

    #[test]
    fn unaligned_map_rejected() {
        let mut t = PageTable::new();
        assert!(matches!(
            t.map(
                VirtAddr::new(0x1234_0000),
                pte(0x8020_0000, PageSize::Large2M)
            ),
            Err(TableError::Unaligned(..))
        ));
    }

    #[test]
    fn gang_lookup_walks_horizontally() {
        let mut t = PageTable::new();
        let base = VirtAddr::new(0x10_0000);
        for i in 0..16u64 {
            t.map(
                base.offset(i * 4096),
                pte(0x8000_0000 + i * 4096, PageSize::Small4K),
            )
            .unwrap();
        }
        let (entries, stats) = t.lookup_range(base, 16, PageSize::Small4K, true);
        assert_eq!(entries.len(), 16);
        assert!(entries.iter().all(Option::is_some));
        assert_eq!(stats.vertical, 1, "one descent for the whole request");
        assert_eq!(stats.horizontal, 15);
    }

    #[test]
    fn gang_lookup_redescends_across_leaf_tables() {
        let mut t = PageTable::new();
        // Straddle a 2 MiB leaf-table boundary: last granule of one L3
        // table and first of the next.
        let base = VirtAddr::new(0x20_0000 - 4096);
        t.map(base, pte(0x8000_0000, PageSize::Small4K)).unwrap();
        t.map(base.offset(4096), pte(0x8000_1000, PageSize::Small4K))
            .unwrap();
        let (_, stats) = t.lookup_range(base, 2, PageSize::Small4K, true);
        assert_eq!(stats.vertical, 2, "boundary crossing forces a re-descent");
        assert_eq!(stats.horizontal, 0);
    }

    #[test]
    fn per_page_lookup_is_all_vertical() {
        let mut t = PageTable::new();
        let base = VirtAddr::new(0x10_0000);
        for i in 0..8u64 {
            t.map(
                base.offset(i * 4096),
                pte(0x8000_0000 + i * 4096, PageSize::Small4K),
            )
            .unwrap();
        }
        let (_, stats) = t.lookup_range(base, 8, PageSize::Small4K, false);
        assert_eq!(stats.vertical, 8, "baseline walks every page from the root");
        assert_eq!(stats.horizontal, 0);
    }

    #[test]
    fn gang_lookup_reports_holes() {
        let mut t = PageTable::new();
        let base = VirtAddr::new(0x10_0000);
        t.map(base, pte(0x8000_0000, PageSize::Small4K)).unwrap();
        t.map(base.offset(2 * 4096), pte(0x8000_2000, PageSize::Small4K))
            .unwrap();
        let (entries, _) = t.lookup_range(base, 3, PageSize::Small4K, true);
        assert!(entries[0].is_some());
        assert!(entries[1].is_none());
        assert!(entries[2].is_some());
    }

    #[test]
    fn compare_exchange_detects_modification() {
        let mut t = PageTable::new();
        let va = VirtAddr::new(0x5000_0000);
        let semi_final = pte(0x0C00_0000, PageSize::Small4K); // young set
        t.map(va, semi_final).unwrap();

        // Undisturbed: CAS succeeds.
        let final_pte = semi_final.with_young(false);
        t.compare_exchange(va, semi_final, final_pte).unwrap();
        assert_eq!(t.peek(va, PageSize::Small4K).unwrap(), final_pte);

        // Disturbed (a reference cleared young already): CAS fails and
        // reports the actual entry.
        t.replace(va, semi_final).unwrap();
        t.replace(va, semi_final.with_young(false)).unwrap(); // the "race"
        let err = t.compare_exchange(va, semi_final, final_pte).unwrap_err();
        assert_eq!(err, semi_final.with_young(false));
    }

    #[test]
    fn entry_mut_miss_allocates_no_table_node() {
        let mut t = PageTable::new();
        let va = VirtAddr::new(0x4000_0000);
        for size in PageSize::ALL {
            assert!(t.entry_mut(va, size).is_none());
        }
        assert_eq!(t.mapped_entries(), 0);
        assert!(t.chunks.is_empty(), "no chunk grown");

        // A hole next to a mapping: the leaf table exists, no entry
        // appears.
        t.map(va, pte(0x8000_0000, PageSize::Small4K)).unwrap();
        assert!(t.entry_mut(va.offset(4096), PageSize::Small4K).is_none());
        assert!(t.peek(va.offset(4096), PageSize::Small4K).is_none());
        assert_eq!(t.mapped_entries(), 1);
    }

    #[test]
    fn unmap_miss_builds_no_table() {
        let mut t = PageTable::new();
        let va = VirtAddr::new(0x4000_0000);
        for size in PageSize::ALL {
            assert_eq!(t.unmap(va, size), None);
        }
        assert_eq!(t.mapped_entries(), 0);
        // A 2 MiB block still fits where the 4 KiB miss looked.
        t.map(va, pte(0x8020_0000, PageSize::Large2M)).unwrap();
        assert_eq!(t.mapped_entries(), 1);
    }

    #[test]
    fn entry_mut_writes_in_place() {
        let mut t = PageTable::new();
        let va = VirtAddr::new(0x4000_0000);
        let mapped = pte(0x8020_0000, PageSize::Large2M);
        t.map(va, mapped).unwrap();
        let entry = t.entry_mut(va, PageSize::Large2M).unwrap();
        assert_eq!(*entry, mapped);
        *entry = mapped.with_dirty(true);
        assert!(t.peek(va, PageSize::Large2M).unwrap().is_dirty());
        assert!(
            t.entry_mut(va, PageSize::Small4K).is_none(),
            "a block entry is not a 4 KiB leaf"
        );
    }

    #[test]
    fn compare_exchange_from_empty_installs() {
        let mut t = PageTable::new();
        let va = VirtAddr::new(0x5000_0000);
        let new = pte(0x8000_0000, PageSize::Small4K);
        t.compare_exchange(va, Pte::EMPTY, new).unwrap();
        assert_eq!(t.peek(va, PageSize::Small4K), Some(new));
        assert_eq!(t.mapped_entries(), 1);
        // An empty slot fails any non-empty expectation, reporting EMPTY.
        let other = va.offset(4096);
        assert_eq!(t.compare_exchange(other, new, new), Err(Pte::EMPTY));
        assert_eq!(t.mapped_entries(), 1);
        // A misaligned target never installs.
        let big = pte(0x8020_0000, PageSize::Large2M);
        assert_eq!(
            t.compare_exchange(va.offset(4096), Pte::EMPTY, big),
            Err(Pte::EMPTY)
        );
    }

    #[test]
    fn replace_returns_old() {
        let mut t = PageTable::new();
        let va = VirtAddr::new(0x10_0000);
        assert_eq!(
            t.replace(va, pte(0x8000_0000, PageSize::Small4K)).unwrap(),
            Pte::EMPTY
        );
        let old = t.replace(va, pte(0x8000_1000, PageSize::Small4K)).unwrap();
        assert_eq!(old.frame(), PhysAddr::new(0x8000_0000));
        assert_eq!(t.mapped_entries(), 1);
    }

    #[test]
    fn walk_stats_merge() {
        let mut a = WalkStats {
            vertical: 1,
            horizontal: 2,
        };
        a.merge(WalkStats {
            vertical: 3,
            horizontal: 4,
        });
        assert_eq!(
            a,
            WalkStats {
                vertical: 4,
                horizontal: 6
            }
        );
    }

    #[test]
    fn medium_pages_at_aligned_base() {
        let mut t = PageTable::new();
        let va = VirtAddr::new(0x100_0000);
        t.map(va, pte(0x8001_0000, PageSize::Medium64K)).unwrap();
        assert_eq!(
            t.peek(va, PageSize::Medium64K).unwrap().size(),
            PageSize::Medium64K
        );
        assert!(
            t.map(
                VirtAddr::new(0x100_1000),
                pte(0x8000_0000, PageSize::Medium64K)
            )
            .is_err(),
            "64 KiB mappings must be 64 KiB aligned"
        );
    }
}
