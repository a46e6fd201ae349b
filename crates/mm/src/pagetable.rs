//! A three-level radix page table with gang lookup.
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
//! callers can charge the corresponding costs.
//!
//! The host walks the same way, on both sides:
//! [`PageTable::lookup_range_into`] reads and [`PageTable::update_range`]
//! writes a run of consecutive leaves with one descent per leaf table,
//! so Remap's PTE installs and Release's compare-and-swaps descend from
//! the root once per leaf table rather than once per page. Each node
//! keeps its 512 slots inline in one allocation.

use crate::addr::{PageSize, VirtAddr};
use crate::pte::Pte;

const LEVEL_BITS: u32 = 9;
const FANOUT: usize = 1 << LEVEL_BITS;

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

#[derive(Debug)]
enum Slot {
    Empty,
    Table(Box<Node>),
    Leaf(Pte),
}

#[derive(Debug)]
struct Node {
    slots: [Slot; FANOUT],
}

impl Node {
    fn new() -> Box<Self> {
        Box::new(Node {
            slots: std::array::from_fn(|_| Slot::Empty),
        })
    }

    /// The child table in `slots[i]`, created if the slot is empty.
    ///
    /// # Errors
    ///
    /// `Err(())` when a block mapping occupies the slot.
    fn child_or_insert(&mut self, i: usize) -> Result<&mut Node, ()> {
        let slot = &mut self.slots[i];
        if matches!(slot, Slot::Empty) {
            *slot = Slot::Table(Node::new());
        }
        match slot {
            Slot::Table(n) => Ok(n),
            _ => Err(()),
        }
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

fn indices(vaddr: VirtAddr) -> [usize; 3] {
    let va = vaddr.as_u64();
    [
        ((va >> (12 + 2 * LEVEL_BITS)) & (FANOUT as u64 - 1)) as usize,
        ((va >> (12 + LEVEL_BITS)) & (FANOUT as u64 - 1)) as usize,
        ((va >> 12) & (FANOUT as u64 - 1)) as usize,
    ]
}

/// Leaf coordinates of a mapping: which table node and which entry.
fn leaf_key(vaddr: VirtAddr, size: PageSize) -> ([usize; 2], usize) {
    let [i1, i2, i3] = indices(vaddr);
    match size {
        PageSize::Large2M => ([i1, usize::MAX], i2),
        _ => ([i1, i2], i3),
    }
}

/// Leaf slots between two consecutive `size` pages of a leaf table.
fn slot_stride(size: PageSize) -> usize {
    match size {
        PageSize::Large2M => 1,
        _ => (size.bytes() >> 12) as usize,
    }
}

/// Splits `count` consecutive `size` pages from `start` into runs whose
/// leaves share one leaf table: `(first page, pages, leaf slot of the
/// first page)`. Page `first + j` of a run sits at slot
/// `slot + j * slot_stride(size)` of the table that holds `first`.
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
        let (_, slot) = leaf_key(start.offset(u64::from(first) * size.bytes()), size);
        let room = ((FANOUT - 1 - slot) / stride + 1) as u32;
        let run = (first, room.min(count - first), slot);
        first += run.1;
        Some(run)
    })
}

/// The per-address-space page table.
#[derive(Debug)]
pub struct PageTable {
    root: Box<Node>,
    mapped: usize,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        PageTable {
            root: Node::new(),
            mapped: 0,
        }
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
        let size = pte.size();
        if !vaddr.is_aligned(size) {
            return Err(TableError::Unaligned(vaddr, size));
        }
        let slot = self.leaf_slot_mut(vaddr, size)?;
        let was_empty = matches!(slot, Slot::Empty);
        *slot = Slot::Leaf(pte);
        if was_empty {
            self.mapped += 1;
        }
        Ok(())
    }

    /// Removes the mapping at `vaddr`, returning the old entry.
    pub fn unmap(&mut self, vaddr: VirtAddr, size: PageSize) -> Option<Pte> {
        match self.leaf_slot_mut(vaddr, size) {
            Ok(slot) => match std::mem::replace(slot, Slot::Empty) {
                Slot::Leaf(pte) => {
                    self.mapped -= 1;
                    Some(pte)
                }
                old => {
                    *slot = old;
                    None
                }
            },
            Err(_) => None,
        }
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
        let (_, slot) = leaf_key(vaddr, size);
        match self.leaf_table(vaddr, size)?.slots[slot] {
            Slot::Leaf(pte) => Some(pte),
            _ => None,
        }
    }

    /// The table holding the `size` leaf for `vaddr`: the level-2 node
    /// for 2 MiB blocks, a level-3 table otherwise. Never allocates.
    fn leaf_table(&self, vaddr: VirtAddr, size: PageSize) -> Option<&Node> {
        let [i1, i2, _] = indices(vaddr);
        let Slot::Table(l2) = &self.root.slots[i1] else {
            return None;
        };
        if size == PageSize::Large2M {
            return Some(l2);
        }
        match &l2.slots[i2] {
            Slot::Table(l3) => Some(l3),
            _ => None,
        }
    }

    /// The leaf entry mapping `vaddr` at `size` granularity, for an
    /// in-place read-modify-write in one descent. Never allocates table
    /// nodes: `None` where [`peek`](Self::peek) finds no entry.
    pub fn entry_mut(&mut self, vaddr: VirtAddr, size: PageSize) -> Option<&mut Pte> {
        let [i1, i2, i3] = indices(vaddr);
        let Slot::Table(l2) = &mut self.root.slots[i1] else {
            return None;
        };
        let slot = if size == PageSize::Large2M {
            &mut l2.slots[i2]
        } else {
            let Slot::Table(l3) = &mut l2.slots[i2] else {
                return None;
            };
            &mut l3.slots[i3]
        };
        match slot {
            Slot::Leaf(pte) => Some(pte),
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
        let stride = slot_stride(size);
        let mut stats = WalkStats::default();
        for (first, pages, slot) in leaf_runs(start, count, size) {
            if gang {
                stats.vertical += 1;
                stats.horizontal += pages - 1;
            } else {
                stats.vertical += pages;
            }
            let table = self.leaf_table(start.offset(u64::from(first) * size.bytes()), size);
            out.extend(
                (0..pages as usize).map(|j| match table?.slots[slot + j * stride] {
                    Slot::Leaf(pte) => Some(pte),
                    _ => None,
                }),
            );
        }
        stats
    }

    /// Gang write: the write side of [`lookup_range`](Self::lookup_range).
    /// Visits the `count` consecutive `size` leaves from `start` in
    /// order, descending from the root once per leaf table instead of
    /// once per page, and calls `update(i, entry)` for page `i`:
    ///
    /// - `entry` is `Ok(Some(pte))` for a leaf, `Ok(None)` for an empty
    ///   slot, and `Err` where [`replace`](Self::replace) would fail (a
    ///   misaligned page, or a mapping of the other granularity in the
    ///   way);
    /// - `update` returns the entry to store, or `None` to leave the
    ///   slot as it is. A store into an empty slot creates the path to
    ///   it and counts as a new mapping; the return value for an `Err`
    ///   slot is ignored.
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
        let stride = slot_stride(size);
        let PageTable { root, mapped } = self;
        for (first, pages, slot) in leaf_runs(start, count, size) {
            let [i1, i2, _] = indices(page(first));
            // The run's leaf table: `Ok(None)` until a store needs it,
            // `Err` when a block mapping stands in the path.
            let mut table = match &mut root.slots[i1] {
                Slot::Empty => Ok(None),
                Slot::Leaf(_) => Err(()),
                Slot::Table(l2) if size == PageSize::Large2M => Ok(Some(&mut **l2)),
                Slot::Table(l2) => match &mut l2.slots[i2] {
                    Slot::Empty => Ok(None),
                    Slot::Leaf(_) => Err(()),
                    Slot::Table(l3) => Ok(Some(&mut **l3)),
                },
            };
            for j in 0..pages {
                let i = first + j;
                let index = slot + j as usize * stride;
                let node = match &mut table {
                    Err(()) => {
                        update(i, Err(TableError::Occupied(page(i))));
                        continue;
                    }
                    Ok(Some(node)) => node,
                    Ok(None) => {
                        if let Some(new) = update(i, Ok(None)) {
                            let l2 = root.child_or_insert(i1).expect("empty above");
                            let node = if size == PageSize::Large2M {
                                l2
                            } else {
                                l2.child_or_insert(i2).expect("empty above")
                            };
                            node.slots[index] = Slot::Leaf(new);
                            *mapped += 1;
                            table = Ok(Some(node));
                        }
                        continue;
                    }
                };
                let slot = &mut node.slots[index];
                match slot {
                    Slot::Table(_) => {
                        update(i, Err(TableError::Occupied(page(i))));
                    }
                    Slot::Leaf(pte) => {
                        if let Some(new) = update(i, Ok(Some(*pte))) {
                            *pte = new;
                        }
                    }
                    Slot::Empty => {
                        if let Some(new) = update(i, Ok(None)) {
                            *slot = Slot::Leaf(new);
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
        let slot = self.leaf_slot_mut(vaddr, new.size())?;
        let old = match std::mem::replace(slot, Slot::Leaf(new)) {
            Slot::Leaf(pte) => pte,
            Slot::Empty => {
                self.mapped += 1;
                Pte::EMPTY
            }
            Slot::Table(_) => unreachable!("leaf_slot_mut never returns a table slot"),
        };
        Ok(old)
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
            // install may have to allocate the path to it.
            None if expected == Pte::EMPTY => {
                self.replace(vaddr, new).map_err(|_| Pte::EMPTY)?;
                Ok(())
            }
            None => Err(Pte::EMPTY),
        }
    }

    fn leaf_slot_mut(&mut self, vaddr: VirtAddr, size: PageSize) -> Result<&mut Slot, TableError> {
        if !vaddr.is_aligned(size) {
            return Err(TableError::Unaligned(vaddr, size));
        }
        let [i1, i2, i3] = indices(vaddr);
        let occupied = |()| TableError::Occupied(vaddr);
        let l2 = self.root.child_or_insert(i1).map_err(occupied)?;
        if size == PageSize::Large2M {
            return match &mut l2.slots[i2] {
                Slot::Table(_) => Err(TableError::Occupied(vaddr)),
                slot => Ok(slot),
            };
        }
        let l3 = l2.child_or_insert(i2).map_err(occupied)?;
        Ok(&mut l3.slots[i3])
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
        let [i1, _, _] = indices(va);
        assert!(matches!(t.root.slots[i1], Slot::Empty), "no L2 node");

        // A hole next to a mapping: the L3 node exists, no entry appears.
        t.map(va, pte(0x8000_0000, PageSize::Small4K)).unwrap();
        assert!(t.entry_mut(va.offset(4096), PageSize::Small4K).is_none());
        assert!(t.peek(va.offset(4096), PageSize::Small4K).is_none());
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
