//! Property-based tests for the memory-management substrate: the buddy
//! allocator, the page table, the TLB and the VMA directory are checked
//! against trivially-correct reference models under random operation
//! sequences. The reference models are the designs the flat structures
//! replaced: `BTreeSet` buddy free lists, a three-level radix page table
//! and a hashed-set TLB.

use std::collections::{BTreeMap, BTreeSet};

use memif_hwsim::hash::IdSet;
use memif_hwsim::{NodeId, PhysAddr, Topology};
use memif_mm::{
    AccessKind, AddressSpace, AllocPolicy, Fault, FrameAllocator, FrameInfo, MmError, PageSize,
    PageTable, Populate, Pte, ScanOutcome, TableError, TlbStats, VirtAddr, WalkStats,
};
use proptest::prelude::*;

fn booted() -> Topology {
    let mut t = Topology::keystone_ii();
    t.complete_boot();
    t
}

fn size_strategy() -> impl Strategy<Value = PageSize> {
    prop_oneof![
        Just(PageSize::Small4K),
        Just(PageSize::Medium64K),
        Just(PageSize::Large2M),
    ]
}

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc(PageSize),
    FreeNth(usize),
}

fn alloc_op() -> impl Strategy<Value = AllocOp> {
    prop_oneof![
        size_strategy().prop_map(AllocOp::Alloc),
        (0usize..64).prop_map(AllocOp::FreeNth),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The buddy allocator never double-allocates, never leaks, returns
    /// naturally aligned blocks inside the node's range, and conserves
    /// free bytes exactly.
    #[test]
    fn buddy_allocator_invariants(ops in proptest::collection::vec(alloc_op(), 1..120)) {
        let topo = booted();
        let mut alloc = FrameAllocator::new(&topo);
        let node = NodeId(1); // 6 MiB SRAM: small enough to exhaust
        let total = alloc.free_bytes(node);
        let mut live: Vec<(PhysAddr, PageSize)> = Vec::new();
        let mut live_bytes = 0u64;

        for op in ops {
            match op {
                AllocOp::Alloc(size) => {
                    match alloc.alloc(node, size) {
                        Ok(addr) => {
                            // Natural alignment and containment.
                            prop_assert_eq!(addr.as_u64() % size.bytes(), 0);
                            let bank = topo.node(node).unwrap();
                            prop_assert!(bank.contains(addr));
                            prop_assert!(bank.contains(addr.offset(size.bytes() - 1)));
                            // No overlap with any live block.
                            for (other, osize) in &live {
                                let disjoint = addr.as_u64() + size.bytes()
                                    <= other.as_u64()
                                    || other.as_u64() + osize.bytes() <= addr.as_u64();
                                prop_assert!(disjoint, "overlap: {addr} vs {other}");
                            }
                            live.push((addr, size));
                            live_bytes += size.bytes();
                        }
                        Err(_) => {
                            // Exhaustion is only legal if a max-order
                            // block genuinely cannot fit.
                            prop_assert!(
                                alloc.free_bytes(node) < total,
                                "spurious OOM with an empty node"
                            );
                        }
                    }
                }
                AllocOp::FreeNth(i) => {
                    if !live.is_empty() {
                        let (addr, size) = live.remove(i % live.len());
                        alloc.free(addr).unwrap();
                        live_bytes -= size.bytes();
                    }
                }
            }
            prop_assert_eq!(alloc.free_bytes(node), total - live_bytes);
            prop_assert_eq!(alloc.live_frames(), live.len());
        }

        // Drain and confirm full restoration (coalescing works).
        for (addr, _) in live {
            alloc.free(addr).unwrap();
        }
        prop_assert_eq!(alloc.free_bytes(node), total);
        let mut blocks = 0;
        while alloc.alloc(node, PageSize::Large2M).is_ok() {
            blocks += 1;
        }
        prop_assert_eq!(blocks, 3, "6 MiB coalesces back into 3 x 2 MiB");
    }
}

fn frame_addr(f: u32, size: PageSize) -> PhysAddr {
    PhysAddr::new(0x8_0000_0000 + u64::from(f) * size.bytes())
}

/// One slot of the reference radix table.
enum RefSlot {
    Empty,
    Table(Box<RefNode>),
    Leaf(Pte),
}

struct RefNode {
    slots: Vec<RefSlot>,
}

impl RefNode {
    fn new() -> Box<Self> {
        Box::new(RefNode {
            slots: (0..512).map(|_| RefSlot::Empty).collect(),
        })
    }
}

/// The three-level radix page table as it was before the flat chunks,
/// with `unmap` fixed to build no node on a miss: the reference model
/// the flat table must match.
struct RefTable {
    root: Box<RefNode>,
    mapped: usize,
}

fn ref_indices(va: VirtAddr) -> [usize; 3] {
    let va = va.as_u64();
    [30, 21, 12].map(|shift| ((va >> shift) & 511) as usize)
}

impl RefTable {
    fn new() -> Self {
        RefTable {
            root: RefNode::new(),
            mapped: 0,
        }
    }

    /// The leaf slot of `(va, size)`, creating the path to it if
    /// `create` (`Ok(None)` for a missing path otherwise).
    fn slot(
        &mut self,
        va: VirtAddr,
        size: PageSize,
        create: bool,
    ) -> Result<Option<&mut RefSlot>, TableError> {
        if !va.is_aligned(size) {
            return Err(TableError::Unaligned(va, size));
        }
        let [i1, i2, i3] = ref_indices(va);
        let (path, leaf) = if size == PageSize::Large2M {
            (&[i1][..], i2)
        } else {
            (&[i1, i2][..], i3)
        };
        let mut node = &mut *self.root;
        for &i in path {
            let slot = &mut node.slots[i];
            if matches!(slot, RefSlot::Empty) {
                if !create {
                    return Ok(None);
                }
                *slot = RefSlot::Table(RefNode::new());
            }
            node = match slot {
                RefSlot::Table(next) => next,
                _ => return Err(TableError::Occupied(va)),
            };
        }
        match &mut node.slots[leaf] {
            RefSlot::Table(_) => Err(TableError::Occupied(va)),
            slot => Ok(Some(slot)),
        }
    }

    /// The entry at `(va, size)`; no alignment check, as `peek` has none.
    fn find_mut(&mut self, va: VirtAddr, size: PageSize) -> Option<&mut Pte> {
        let [i1, i2, i3] = ref_indices(va);
        let RefSlot::Table(l2) = &mut self.root.slots[i1] else {
            return None;
        };
        let slot = match (&mut l2.slots[i2], size) {
            (slot, PageSize::Large2M) => slot,
            (RefSlot::Table(l3), _) => &mut l3.slots[i3],
            _ => return None,
        };
        match slot {
            RefSlot::Leaf(pte) => Some(pte),
            _ => None,
        }
    }

    fn peek(&mut self, va: VirtAddr, size: PageSize) -> Option<Pte> {
        self.find_mut(va, size).copied()
    }

    fn store(&mut self, va: VirtAddr, pte: Pte) -> Result<Pte, TableError> {
        let slot = self.slot(va, pte.size(), true)?.expect("created");
        Ok(match std::mem::replace(slot, RefSlot::Leaf(pte)) {
            RefSlot::Leaf(old) => old,
            _ => {
                self.mapped += 1;
                Pte::EMPTY
            }
        })
    }

    fn unmap(&mut self, va: VirtAddr, size: PageSize) -> Option<Pte> {
        let slot = self.slot(va, size, false).ok().flatten()?;
        match std::mem::replace(slot, RefSlot::Empty) {
            RefSlot::Leaf(pte) => {
                self.mapped -= 1;
                Some(pte)
            }
            old => {
                *slot = old;
                None
            }
        }
    }

    fn compare_exchange(&mut self, va: VirtAddr, expected: Pte, new: Pte) -> Result<(), Pte> {
        let size = new.size();
        match self.find_mut(va, size) {
            Some(pte) if *pte == expected && va.is_aligned(size) => {
                *pte = new;
                Ok(())
            }
            Some(pte) => Err(*pte),
            None if expected == Pte::EMPTY => {
                self.store(va, new).map_err(|_| Pte::EMPTY)?;
                Ok(())
            }
            None => Err(Pte::EMPTY),
        }
    }

    /// Per-page lookup with the tree's walk accounting: one descent per
    /// leaf table (gang) or per page.
    fn lookup_range(
        &mut self,
        start: VirtAddr,
        count: u32,
        size: PageSize,
        gang: bool,
    ) -> (Vec<Option<Pte>>, WalkStats) {
        let mut stats = WalkStats::default();
        let mut prev = None;
        let entries = (0..count)
            .map(|i| {
                let va = start.offset(u64::from(i) * size.bytes());
                let [i1, i2, _] = ref_indices(va);
                let table = if size == PageSize::Large2M {
                    (i1, usize::MAX)
                } else {
                    (i1, i2)
                };
                if !gang || prev != Some(table) {
                    stats.vertical += 1;
                } else {
                    stats.horizontal += 1;
                }
                prev = Some(table);
                self.peek(va, size)
            })
            .collect();
        (entries, stats)
    }
}

/// The hashed-set TLB the presence bits replaced.
#[derive(Default)]
struct RefTlb {
    entries: IdSet<u64>,
    stats: TlbStats,
}

impl RefTlb {
    fn access(&mut self, va: VirtAddr, size: PageSize) {
        if self.entries.insert(va.align_down(size).as_u64()) {
            self.stats.misses += 1;
        } else {
            self.stats.hits += 1;
        }
    }

    fn flush_page(&mut self, va: VirtAddr, size: PageSize) {
        self.entries.remove(&va.align_down(size).as_u64());
        self.stats.page_flushes += 1;
    }

    fn flush_all(&mut self) {
        self.entries.clear();
        self.stats.full_flushes += 1;
    }
}

/// One address space and its reference twin, over a window of
/// `granules` 4 KiB granules from `base`.
struct Side {
    space: AddressSpace,
    table: RefTable,
    tlb: RefTlb,
    base: u64,
    granules: u64,
}

impl Side {
    /// `AddressSpace::access` as it reads on the reference table and TLB,
    /// with the VMA from the space itself.
    fn ref_access(&mut self, va: VirtAddr, kind: AccessKind) -> Result<PhysAddr, Fault> {
        let size = self.space.vma_at(va).ok_or(Fault::Unmapped(va))?.page_size;
        let page = va.align_down(size);
        let pte = self
            .table
            .find_mut(page, size)
            .ok_or(Fault::DemandPage(page))?;
        if pte.is_migration() {
            return Err(Fault::BlockedByMigration(va));
        }
        if !pte.is_present() {
            return Err(Fault::Unmapped(va));
        }
        if kind == AccessKind::Write && pte.is_watched() {
            return Err(Fault::WriteProtected(va));
        }
        let frame = pte.frame();
        *pte = pte.with_young(false);
        if kind == AccessKind::Write {
            *pte = pte.with_dirty(true);
        }
        self.tlb.access(page, size);
        Ok(frame.offset(va.as_u64() - page.as_u64()))
    }

    /// `scan_referenced` on the reference table, page by page.
    fn ref_scan(&mut self, start: VirtAddr, pages: u32, size: PageSize) -> ScanOutcome {
        let mut out = ScanOutcome::default();
        for i in 0..pages {
            let va = start.offset(u64::from(i) * size.bytes());
            match self.table.find_mut(va, size) {
                Some(pte) if pte.is_present() && !pte.is_migration() && !pte.is_watched() => {
                    out.scanned += 1;
                    if !pte.is_young() {
                        out.referenced += 1;
                        *pte = pte.with_young(true);
                    }
                }
                _ => out.skipped += 1,
            }
        }
        out
    }

    /// `scan_transient` on the reference table.
    fn ref_transient(&mut self) -> Vec<(VirtAddr, Pte)> {
        let vmas: Vec<_> = self.space.vmas().cloned().collect();
        let mut out = Vec::new();
        for vma in vmas {
            for i in 0..u64::from(vma.pages) {
                let va = vma.start.offset(i * vma.page_size.bytes());
                if let Some(pte) = self.table.peek(va, vma.page_size) {
                    if pte.is_migration() || pte.is_watched() {
                        out.push((va, pte));
                    }
                }
            }
        }
        out
    }

    /// The window's every entry at every granularity, on both tables.
    fn check_window(&mut self) {
        for g in 0..self.granules {
            let va = VirtAddr::new(self.base + (g << 12));
            for size in PageSize::ALL {
                if va.is_aligned(size) {
                    prop_assert_eq!(self.space.table().peek(va, size), self.table.peek(va, size));
                }
            }
        }
    }
}

/// The two spaces of the model: space 0 holds a lazy 4 KiB, 64 KiB and
/// 2 MiB region across the 2 GiB line (a level-2 table boundary) and a
/// 16-page region of shared frames; space 1 maps the same frames.
fn model_sides() -> [Side; 2] {
    let topo = booted();
    let mut alloc = FrameAllocator::new(&topo);
    let node = NodeId(0);
    let frames: Vec<PhysAddr> = (0..16)
        .map(|_| alloc.alloc(node, PageSize::Small4K).unwrap())
        .collect();
    let lazy = |space: &mut AddressSpace, alloc: &mut FrameAllocator, pages, size| {
        let policy = AllocPolicy::Bind(node);
        space
            .mmap_with(alloc, pages, size, policy, Populate::Lazy)
            .unwrap()
    };
    let mut main = AddressSpace::new();
    // A lazy filler moves the window up to the 2 GiB line.
    lazy(
        &mut main,
        &mut alloc,
        ((1 << 30) - (6 << 20)) >> 12,
        PageSize::Small4K,
    );
    let base = lazy(&mut main, &mut alloc, 1024, PageSize::Small4K).as_u64();
    lazy(&mut main, &mut alloc, 64, PageSize::Medium64K);
    lazy(&mut main, &mut alloc, 2, PageSize::Large2M);
    main.map_shared(&mut alloc, &frames, PageSize::Small4K, node)
        .unwrap();
    let mut remote = AddressSpace::new();
    let remote_base = remote
        .map_shared(&mut alloc, &frames, PageSize::Small4K, node)
        .unwrap()
        .as_u64();
    [(main, base, 7 * 512), (remote, remote_base, 512)].map(|(space, base, granules)| {
        let mut table = RefTable::new();
        let shared = space.vmas().last().unwrap().start;
        for (i, &frame) in frames.iter().enumerate() {
            let va = shared.offset(i as u64 * 4096);
            table
                .store(va, Pte::mapping(frame, PageSize::Small4K))
                .unwrap();
        }
        Side {
            space,
            table,
            tlb: RefTlb::default(),
            base,
            granules,
        }
    })
}

/// One operation of the page-table model, decoded from a drawn seed.
#[derive(Debug, Clone)]
struct TableOp {
    /// 0 map, 1 replace, 2 unmap, 3 CAS, 4 access, 5 gang and per-page
    /// lookup, 6 reference scan, 7 flush.
    kind: u8,
    side: usize,
    /// Granule of the side's window.
    granule: u64,
    size: PageSize,
    /// Round the address down to `size` (else keep the granule).
    aligned: bool,
    /// The entry stored: a mapping, a referenced dirty mapping, a
    /// migration entry, a watched mapping, empty, or empty and watched.
    flavor: u8,
    frame: u32,
    count: u32,
    flag: bool,
}

fn table_op() -> impl Strategy<Value = TableOp> {
    (0u8..8, size_strategy(), any::<u64>()).prop_map(|(kind, size, bits)| TableOp {
        kind,
        side: usize::from(bits & 7 == 0),
        granule: (bits >> 3) & 0xFFF,
        size,
        aligned: (bits >> 15) & 7 != 0,
        flavor: ((bits >> 18) % 6) as u8,
        frame: ((bits >> 24) & 0x3FF) as u32,
        count: ((bits >> 34) % 600) as u32,
        flag: (bits >> 44) & 1 == 1,
    })
}

impl TableOp {
    fn entry(&self) -> Pte {
        let mapping = Pte::mapping(frame_addr(self.frame, self.size), self.size);
        match self.flavor {
            0 => mapping,
            1 => mapping.with_young(false).with_dirty(true),
            2 => Pte::migration_entry(self.size),
            3 => mapping.with_watch(true),
            4 => Pte::EMPTY,
            _ => Pte::EMPTY.with_watch(true),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flat page table and the presence-bit TLB match the radix tree
    /// and the hashed-set TLB they replaced, under random stores,
    /// unmaps, CASes and flushes of 4 KiB, 64 KiB and 2 MiB entries with
    /// holes, block-versus-table conflicts and misaligned addresses, on
    /// a space with lazy regions and shared frames and on a second space
    /// mapping those frames: every result and `TableError`, every entry,
    /// `mapped_entries`, gang-lookup `WalkStats`, the fault of every
    /// `AddressSpace::access` (kind and precedence), reference scans,
    /// transient-entry scans, and `TlbStats`.
    #[test]
    fn page_table_matches_model(ops in proptest::collection::vec(table_op(), 1..120)) {
        let mut sides = model_sides();
        for op in &ops {
            let side = &mut sides[op.side];
            let mut va = VirtAddr::new(side.base + ((op.granule % side.granules) << 12));
            if op.aligned {
                va = va.align_down(op.size);
            }
            let table = side.space.table_mut();
            match op.kind {
                0 => prop_assert_eq!(table.map(va, op.entry()), side.table.store(va, op.entry()).map(drop)),
                1 => prop_assert_eq!(table.replace(va, op.entry()), side.table.store(va, op.entry())),
                2 => prop_assert_eq!(table.unmap(va, op.size), side.table.unmap(va, op.size)),
                3 => {
                    let current = side.table.peek(va, op.entry().size()).unwrap_or(Pte::EMPTY);
                    let expected = if op.flag { current.with_young(!current.is_young()) } else { current };
                    prop_assert_eq!(
                        table.compare_exchange(va, expected, op.entry()),
                        side.table.compare_exchange(va, expected, op.entry())
                    );
                }
                4 => {
                    let at = va.offset(u64::from(op.frame) % op.size.bytes());
                    let kind = if op.flag { AccessKind::Write } else { AccessKind::Read };
                    prop_assert_eq!(side.space.access(at, kind), side.ref_access(at, kind));
                    prop_assert_eq!(side.space.tlb().contains(at, op.size), side.tlb.entries.contains(&at.align_down(op.size).as_u64()));
                }
                5 => {
                    prop_assert_eq!(
                        table.lookup_range(va, op.count, op.size, op.flag),
                        side.table.lookup_range(va, op.count, op.size, op.flag)
                    );
                }
                6 => prop_assert_eq!(side.space.scan_referenced(va, op.count, op.size), side.ref_scan(va, op.count, op.size)),
                _ => {
                    if op.flag {
                        side.space.tlb_mut().flush_all();
                        side.tlb.flush_all();
                    } else {
                        side.space.tlb_mut().flush_page(va, op.size);
                        side.tlb.flush_page(va, op.size);
                    }
                }
            }
            for size in PageSize::ALL {
                let got = side.space.table().peek(va, size);
                prop_assert_eq!(got, side.table.peek(va, size), "{} entry after {:?}", size, op);
            }
            prop_assert_eq!(side.space.table().mapped_entries(), side.table.mapped, "after {:?}", op);
            prop_assert_eq!(side.space.tlb().stats(), side.tlb.stats, "after {:?}", op);
            prop_assert_eq!(side.space.tlb().len(), side.tlb.entries.len(), "after {:?}", op);
        }
        for side in &mut sides {
            side.check_window();
            prop_assert_eq!(side.space.scan_transient(), side.ref_transient());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Gang lookup returns exactly the same entries as per-page lookup;
    /// only the walk statistics differ, and they account every page.
    #[test]
    fn gang_and_per_page_agree(present in proptest::collection::vec(any::<bool>(), 1..64)) {
        let mut table = PageTable::new();
        let base = VirtAddr::new(0x10_0000);
        for (i, p) in present.iter().enumerate() {
            if *p {
                let frame = PhysAddr::new(0x8_0000_0000 + i as u64 * 4096);
                table.map(base.offset(i as u64 * 4096), Pte::mapping(frame, PageSize::Small4K)).unwrap();
            }
        }
        let n = present.len() as u32;
        let (gang, gs) = table.lookup_range(base, n, PageSize::Small4K, true);
        let (per, ps) = table.lookup_range(base, n, PageSize::Small4K, false);
        prop_assert_eq!(&gang, &per);
        prop_assert_eq!(gs.vertical + gs.horizontal, n, "every page walked");
        prop_assert_eq!(ps.vertical, n, "per-page is all vertical");
        prop_assert!(gs.vertical <= ps.vertical);
        for (i, p) in present.iter().enumerate() {
            prop_assert_eq!(gang[i].is_some(), *p);
        }
    }
}

/// Three 2 MiB chunks from 2 MiB below a 1 GiB boundary: runs through
/// the window cross level-3 tables and, for 2 MiB pages, level-2 nodes.
const GANG_BASE: u64 = 0x4000_0000 - (2 << 20);
const GANG_GRANULES: u64 = 3 * 512;

/// A 64-bit mixer for deriving layout choices from one drawn seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a random layout into `table`: per 2 MiB chunk a hole, a block,
/// or 64 KiB sub-chunks that are each a hole, one 64 KiB page, or 4 KiB
/// pages with holes.
fn map_layout(table: &mut PageTable, chunks: &[(u8, u64)]) {
    for (c, &(kind, seed)) in chunks.iter().enumerate() {
        let chunk = VirtAddr::new(GANG_BASE + (c as u64) * (2 << 20));
        match kind {
            0 => {}
            1 => table
                .map(
                    chunk,
                    Pte::mapping(frame_addr(c as u32, PageSize::Large2M), PageSize::Large2M),
                )
                .unwrap(),
            _ => {
                for sub in 0..32u64 {
                    let r = mix(seed ^ sub);
                    let va = chunk.offset(sub << 16);
                    match r % 3 {
                        0 => {}
                        1 => table
                            .map(
                                va,
                                Pte::mapping(
                                    frame_addr(r as u32 % 1024, PageSize::Medium64K),
                                    PageSize::Medium64K,
                                ),
                            )
                            .unwrap(),
                        _ => {
                            for g in 0..16u64 {
                                if (r >> (8 + g)) & 1 == 1 {
                                    let frame = frame_addr(
                                        (r >> 32) as u32 % 4096 + g as u32,
                                        PageSize::Small4K,
                                    );
                                    table
                                        .map(
                                            va.offset(g << 12),
                                            Pte::mapping(frame, PageSize::Small4K),
                                        )
                                        .unwrap();
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Every entry of the window, at every granularity.
fn window_entries(table: &PageTable) -> Vec<Option<Pte>> {
    let mut out = Vec::new();
    for g in 0..GANG_GRANULES {
        let va = VirtAddr::new(GANG_BASE + (g << 12));
        for size in PageSize::ALL {
            if va.is_aligned(size) {
                out.push(table.peek(va, size));
            }
        }
    }
    out
}

#[derive(Debug, Clone)]
struct GangOp {
    size: PageSize,
    /// First page, in granules from the window base.
    granule: u64,
    /// Keep `granule` as drawn instead of aligning it to `size`
    /// (replace only: the CAS range requires aligned pages).
    unaligned: bool,
    count: u32,
    cas: bool,
    seed: u64,
}

fn gang_op() -> impl Strategy<Value = GangOp> {
    (
        size_strategy(),
        0..GANG_GRANULES,
        0u8..8,
        0u32..1200,
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(size, granule, unaligned, count, cas, seed)| {
            let pages_per_window = (GANG_GRANULES << 12) / size.bytes();
            GangOp {
                size,
                granule,
                unaligned: unaligned == 0 && !cas,
                count: count % (pages_per_window as u32 + 2),
                cas,
                seed,
            }
        })
}

/// Applies `op` page by page with `replace` / `compare_exchange`,
/// returning each page's result.
fn per_page(table: &mut PageTable, op: &GangOp, start: VirtAddr) -> Vec<Result<Pte, Pte>> {
    (0..op.count)
        .map(|i| {
            let va = start.offset(u64::from(i) * op.size.bytes());
            let new = gang_new(op, i);
            if op.cas {
                let expected = gang_expected(op, i, table.peek(va, op.size));
                table.compare_exchange(va, expected, new).map(|()| new)
            } else {
                table.replace(va, new).map_err(|_| Pte::EMPTY)
            }
        })
        .collect()
}

fn gang_new(op: &GangOp, i: u32) -> Pte {
    let frame = (mix(op.seed ^ u64::from(i)) % 4096) as u32;
    Pte::mapping(frame_addr(frame, op.size), op.size).with_young(i.is_multiple_of(2))
}

/// The CAS expectation for page `i`: the current entry, the empty
/// entry, or a stale one.
fn gang_expected(op: &GangOp, i: u32, current: Option<Pte>) -> Pte {
    match mix(op.seed.rotate_left(17) ^ u64::from(i)) % 3 {
        0 => current.unwrap_or(Pte::EMPTY),
        1 => Pte::EMPTY,
        _ => current.map_or(Pte::EMPTY, |p| p.with_young(!p.is_young())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The gang write walk is per-page `replace` and `compare_exchange`
    /// with fewer descents: over random layouts of 4 KiB, 64 KiB and
    /// 2 MiB pages with holes, and runs that cross leaf tables, it gives
    /// every page the same result and leaves the same entries and the
    /// same `mapped_entries`. Gang lookup on the result reads what
    /// per-page `peek` reads, with one vertical step per leaf table.
    #[test]
    fn gang_write_matches_per_page_writes(
        chunks in proptest::collection::vec((0u8..4, any::<u64>()), 3),
        ops in proptest::collection::vec(gang_op(), 1..10),
    ) {
        let mut gang = PageTable::new();
        let mut pages = PageTable::new();
        map_layout(&mut gang, &chunks);
        map_layout(&mut pages, &chunks);
        for op in &ops {
            let mut start = VirtAddr::new(GANG_BASE + (op.granule << 12));
            if !op.unaligned {
                start = start.align_down(op.size);
            }
            let want = per_page(&mut pages, op, start);
            let mut got = Vec::new();
            gang.update_range(start, op.count, op.size, |i, current| {
                let new = gang_new(op, i);
                let (result, store) = if op.cas {
                    let expected = gang_expected(op, i, current.ok().flatten());
                    match current {
                        Ok(Some(p)) if p == expected => (Ok(new), Some(new)),
                        Ok(Some(p)) => (Err(p), None),
                        Ok(None) if expected == Pte::EMPTY => (Ok(new), Some(new)),
                        Ok(None) | Err(_) => (Err(Pte::EMPTY), None),
                    }
                } else {
                    match current {
                        Ok(old) => (Ok(old.unwrap_or(Pte::EMPTY)), Some(new)),
                        Err(_) => (Err(Pte::EMPTY), None),
                    }
                };
                got.push(result);
                store
            });
            prop_assert_eq!(&got, &want, "results of {:?}", op);
            prop_assert!(window_entries(&gang) == window_entries(&pages), "entries after {:?}", op);
            prop_assert_eq!(gang.mapped_entries(), pages.mapped_entries());

            let (entries, stats) = gang.lookup_range(start, op.count, op.size, true);
            let mut tables = 0;
            let mut prev = None;
            for (i, entry) in entries.iter().enumerate() {
                let va = start.offset(i as u64 * op.size.bytes());
                prop_assert_eq!(*entry, gang.peek(va, op.size));
                let shift = if op.size == PageSize::Large2M { 30 } else { 21 };
                if prev != Some(va.as_u64() >> shift) {
                    tables += 1;
                }
                prev = Some(va.as_u64() >> shift);
            }
            prop_assert_eq!(stats.vertical, tables);
            prop_assert_eq!(stats.vertical + stats.horizontal, op.count);
        }
    }
}

/// The buddy allocator over `BTreeSet` free lists and a frame map, as it
/// was before the bitmap free lists and the flat frame table: the
/// reference model the flat allocator must match address for address.
struct RefBuddy {
    node: NodeId,
    base: u64,
    free: Vec<BTreeSet<u64>>,
    free_bytes: u64,
    frames: BTreeMap<u64, FrameInfo>,
}

const GRANULE: u64 = 4096;
const MAX_ORDER: u8 = 10;

impl RefBuddy {
    fn new(node: NodeId, base: PhysAddr, bytes: u64) -> Self {
        let mut b = RefBuddy {
            node,
            base: base.as_u64(),
            free: (0..=MAX_ORDER).map(|_| BTreeSet::new()).collect(),
            free_bytes: 0,
            frames: BTreeMap::new(),
        };
        let mut off = 0;
        while off + GRANULE <= bytes {
            let mut order = MAX_ORDER;
            while off % (GRANULE << order) != 0 || off + (GRANULE << order) > bytes {
                order -= 1;
            }
            b.free[order as usize].insert(off);
            b.free_bytes += GRANULE << order;
            off += GRANULE << order;
        }
        b
    }

    fn alloc(&mut self, size: PageSize) -> Option<PhysAddr> {
        let order = size.order();
        let (mut o, off) = (order..=MAX_ORDER)
            .find_map(|o| self.free[o as usize].pop_first().map(|off| (o, off)))?;
        while o > order {
            o -= 1;
            self.free[o as usize].insert(off + (GRANULE << o));
        }
        self.free_bytes -= GRANULE << order;
        let info = FrameInfo {
            node: self.node,
            order,
            refcount: 1,
        };
        self.frames.insert(self.base + off, info);
        Some(PhysAddr::new(self.base + off))
    }

    fn free(&mut self, addr: PhysAddr) -> bool {
        let Some(info) = self.frames.get_mut(&addr.as_u64()) else {
            return false;
        };
        info.refcount -= 1;
        if info.refcount > 0 {
            return true;
        }
        let order = self.frames.remove(&addr.as_u64()).unwrap().order;
        self.free_bytes += GRANULE << order;
        let (mut off, mut o) = (addr.as_u64() - self.base, order);
        while o < MAX_ORDER && self.free[o as usize].remove(&(off ^ (GRANULE << o))) {
            off = off.min(off ^ (GRANULE << o));
            o += 1;
        }
        self.free[o as usize].insert(off);
        true
    }

    fn get_ref(&mut self, addr: PhysAddr) -> bool {
        self.frames
            .get_mut(&addr.as_u64())
            .map(|info| info.refcount += 1)
            .is_some()
    }
}

#[derive(Debug, Clone)]
enum DiffOp {
    /// `n` allocations of one size in a row.
    Alloc(PageSize, u32),
    FreeNth(usize),
    RefNth(usize),
    /// Free or reference an address that is not a block base.
    Stray(u64),
}

fn diff_op() -> impl Strategy<Value = DiffOp> {
    prop_oneof![
        (size_strategy(), 1u32..8).prop_map(|(z, n)| DiffOp::Alloc(z, n)),
        (1u32..600).prop_map(|n| DiffOp::Alloc(PageSize::Small4K, n)),
        (0usize..4096).prop_map(DiffOp::FreeNth),
        (0usize..4096).prop_map(DiffOp::FreeNth),
        (0usize..4096).prop_map(DiffOp::RefNth),
        (0u64..1 << 24).prop_map(DiffOp::Stray),
    ]
}

/// Runs `ops` on `node`'s allocator and on the reference model, checking
/// every result, `free_bytes`, `live_frames` and `frame_info` of every
/// address ever handed out.
fn check_against_reference(node: NodeId, ops: Vec<DiffOp>) {
    let topo = booted();
    let bank = topo.node(node).unwrap();
    let mut alloc = FrameAllocator::new(&topo);
    let mut model = RefBuddy::new(node, bank.base, bank.bytes);
    let mut live: Vec<PhysAddr> = Vec::new();
    let mut seen: BTreeSet<PhysAddr> = BTreeSet::new();

    for op in ops {
        match op {
            DiffOp::Alloc(size, n) => {
                for _ in 0..n {
                    let got = alloc.alloc(node, size).ok();
                    assert_eq!(got, model.alloc(size), "alloc {size}");
                    live.extend(got);
                    seen.extend(got);
                }
            }
            DiffOp::FreeNth(i) if !live.is_empty() => {
                let addr = live.swap_remove(i % live.len());
                assert_eq!(alloc.free(addr).is_ok(), model.free(addr));
            }
            DiffOp::RefNth(i) if !live.is_empty() => {
                let addr = live[i % live.len()];
                assert_eq!(alloc.get_ref(addr).is_ok(), model.get_ref(addr));
                live.push(addr); // one more reference to drop
            }
            DiffOp::Stray(off) => {
                let addr = bank.base.offset(off * 512 + 512);
                assert_eq!(alloc.get_ref(addr).is_ok(), model.get_ref(addr));
                assert_eq!(alloc.free(addr).is_ok(), model.free(addr));
                seen.insert(addr);
            }
            DiffOp::FreeNth(_) | DiffOp::RefNth(_) => {}
        }
        assert_eq!(alloc.free_bytes(node), model.free_bytes);
        assert_eq!(alloc.live_frames(), model.frames.len());
    }
    for &addr in &seen {
        assert_eq!(
            alloc.frame_info(addr),
            model.frames.get(&addr.as_u64()).copied()
        );
    }
    // Draining restores the seed state: the same blocks at every order.
    for addr in live {
        assert_eq!(alloc.free(addr).is_ok(), model.free(addr));
    }
    assert_eq!(alloc.free_bytes(node), model.free_bytes);
    while let Some(addr) = model.alloc(PageSize::Large2M) {
        assert_eq!(alloc.alloc(node, PageSize::Large2M).ok(), Some(addr));
    }
    assert!(alloc.alloc(node, PageSize::Large2M).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The 6 MiB SRAM bank: not a power of two, and small enough that
    /// runs exhaust it.
    #[test]
    fn allocator_matches_reference_on_sram(ops in proptest::collection::vec(diff_op(), 1..60)) {
        check_against_reference(NodeId(1), ops);
    }

    /// The 8 GiB DDR bank: bitmaps and the frame table grow from empty
    /// as blocks are handed out.
    #[test]
    fn allocator_matches_reference_on_ddr(ops in proptest::collection::vec(diff_op(), 1..60)) {
        check_against_reference(NodeId(0), ops);
    }
}

#[derive(Debug, Clone)]
enum RunOp {
    /// `alloc_run` of `n` pages against `n` calls of `alloc`, freed again
    /// if one fails.
    Run(PageSize, u32),
    /// `free_many` against `free` on each address in turn, of `take`
    /// held references from a seeded position, kept in order (`order`
    /// 0), reversed (1) or shuffled (2), with `strays` addresses that
    /// are not block bases and, if `twice`, the first address repeated.
    FreeMany {
        order: u8,
        take: usize,
        strays: u8,
        twice: bool,
        seed: u64,
    },
    /// One more reference to a held block.
    RefNth(usize),
}

fn run_op() -> impl Strategy<Value = RunOp> {
    prop_oneof![
        (size_strategy(), 1u32..8).prop_map(|(z, n)| RunOp::Run(z, n)),
        (1u32..600).prop_map(|n| RunOp::Run(PageSize::Small4K, n)),
        (1u32..40).prop_map(|n| RunOp::Run(PageSize::Medium64K, n)),
        (0u8..3, 1usize..700, 0u8..3, any::<bool>(), any::<u64>()).prop_map(
            |(order, take, strays, twice, seed)| RunOp::FreeMany {
                order,
                take,
                strays,
                twice,
                seed,
            }
        ),
        (0usize..4096).prop_map(RunOp::RefNth),
    ]
}

/// Runs `ops` on two allocators for `node`, one through `alloc_run` and
/// `free_many`, one through per-call `alloc` and `free`, checking every
/// result and address, the `released` lists, `free_bytes`,
/// `live_frames`, `counters` and the set of free blocks.
fn check_runs_against_calls(node: NodeId, ops: Vec<RunOp>) {
    let topo = booted();
    let base = topo.node(node).unwrap().base;
    let mut runs = FrameAllocator::new(&topo);
    let mut calls = FrameAllocator::new(&topo);
    // One entry per reference held.
    let mut held: Vec<PhysAddr> = Vec::new();

    for op in ops {
        match op {
            RunOp::Run(size, n) => {
                let mut got = Vec::new();
                let result = runs.alloc_run(node, size, n, &mut got);
                let mut want = Vec::new();
                let mut failed = None;
                for _ in 0..n {
                    match calls.alloc(node, size) {
                        Ok(addr) => want.push(addr),
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                if let Some(e) = failed {
                    for addr in want.drain(..) {
                        calls.free(addr).unwrap();
                    }
                    assert_eq!(result, Err(e));
                } else {
                    assert_eq!(result, Ok(()));
                }
                assert_eq!(got, want, "run of {n} {size}");
                held.extend(got);
            }
            RunOp::FreeMany {
                order,
                take,
                strays,
                twice,
                seed,
            } => {
                let from = mix(seed) as usize % (held.len() + 1);
                let to = (from + take).min(held.len());
                let mut batch: Vec<PhysAddr> = held.drain(from..to).collect();
                match order {
                    0 => {}
                    1 => batch.reverse(),
                    _ => {
                        for i in (1..batch.len()).rev() {
                            batch.swap(i, mix(seed ^ i as u64) as usize % (i + 1));
                        }
                    }
                }
                for s in 0..u64::from(strays) {
                    let r = mix(seed.rotate_left(7) ^ s);
                    let stray = base.offset((r % (1 << 20)) * 512 + 512);
                    batch.insert(r as usize % (batch.len() + 1), stray);
                }
                if twice {
                    batch.extend(batch.first().copied());
                }
                let mut released = Vec::new();
                let result = runs.free_many(&batch, &mut released);
                let mut want = Vec::new();
                let mut first_bad = None;
                for &addr in &batch {
                    match calls.free(addr) {
                        Ok(()) if calls.frame_info(addr).is_none() => want.push(addr),
                        Ok(()) => {}
                        Err(e) => {
                            first_bad.get_or_insert(e);
                        }
                    }
                }
                want.sort_unstable();
                assert_eq!(released, want, "released by {batch:?}");
                assert_eq!(result, first_bad.map_or(Ok(()), Err));
            }
            RunOp::RefNth(i) if !held.is_empty() => {
                let addr = held[i % held.len()];
                assert_eq!(runs.get_ref(addr), calls.get_ref(addr));
                held.push(addr);
            }
            RunOp::RefNth(_) => {}
        }
        assert_eq!(runs.free_bytes(node), calls.free_bytes(node));
        assert_eq!(runs.live_frames(), calls.live_frames());
        assert_eq!(runs.counters(), calls.counters());
        assert!(
            runs.free_blocks(node).eq(calls.free_blocks(node)),
            "free blocks differ"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `alloc_run` and `free_many` on the 6 MiB SRAM bank, where runs
    /// run out part-way.
    #[test]
    fn runs_match_per_call_on_sram(ops in proptest::collection::vec(run_op(), 1..60)) {
        check_runs_against_calls(NodeId(1), ops);
    }

    /// `alloc_run` and `free_many` on the 8 GiB DDR bank.
    #[test]
    fn runs_match_per_call_on_ddr(ops in proptest::collection::vec(run_op(), 1..60)) {
        check_runs_against_calls(NodeId(0), ops);
    }
}

#[derive(Debug, Clone)]
enum VmaOp {
    Map(PageSize, u32, bool),
    Unmap(usize),
    /// `munmap` at an address inside, not at the start of, a region.
    UnmapInterior(usize),
}

fn vma_op() -> impl Strategy<Value = VmaOp> {
    prop_oneof![
        (1u32..40, any::<bool>()).prop_map(|(n, lazy)| VmaOp::Map(PageSize::Small4K, n, lazy)),
        (1u32..1100, any::<bool>()).prop_map(|(n, lazy)| VmaOp::Map(PageSize::Small4K, n, lazy)),
        (1u32..80, any::<bool>()).prop_map(|(n, lazy)| VmaOp::Map(PageSize::Medium64K, n, lazy)),
        (1u32..4, any::<bool>()).prop_map(|(n, lazy)| VmaOp::Map(PageSize::Large2M, n, lazy)),
        (0usize..64).prop_map(VmaOp::Unmap),
        (0usize..64).prop_map(VmaOp::UnmapInterior),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `vma_at`, and the directory-only range queries `vma_covering`
    /// and `covering_page_size`, agree with a linear scan over the live
    /// regions under random 4 KiB / 64 KiB / 2 MiB mappings (eager and
    /// lazy, many straddling 2 MiB chunks) and unmaps, probed at every
    /// region's edges, below 1 GiB and past the last region. Ranges start
    /// at every probe and run to, just past, or a chunk beyond the end
    /// of a region.
    #[test]
    fn vma_lookup_matches_linear_scan(
        ops in proptest::collection::vec(vma_op(), 1..40),
        probes in proptest::collection::vec(0u64..1 << 36, 16),
    ) {
        let topo = booted();
        let mut alloc = FrameAllocator::new(&topo);
        let mut space = AddressSpace::new();
        // (start, end, page size) of every region, live or unmapped.
        let mut model: Vec<(u64, u64, PageSize, bool)> = Vec::new();

        for op in ops {
            match op {
                VmaOp::Map(size, pages, lazy) => {
                    let populate = if lazy { Populate::Lazy } else { Populate::Eager };
                    let policy = AllocPolicy::Bind(NodeId(0));
                    let va = space.mmap_with(&mut alloc, pages, size, policy, populate).unwrap();
                    let end = va.as_u64() + u64::from(pages) * size.bytes();
                    model.push((va.as_u64(), end, size, true));
                }
                VmaOp::Unmap(i) if !model.is_empty() => {
                    let i = i % model.len();
                    let (start, _, _, was_live) = model[i];
                    let got = space.munmap(&mut alloc, VirtAddr::new(start));
                    prop_assert_eq!(got.is_ok(), was_live);
                    model[i].3 = false;
                }
                VmaOp::UnmapInterior(i) if !model.is_empty() => {
                    let (start, end, _, _) = model[i % model.len()];
                    if end - start > 4096 {
                        let at = VirtAddr::new(start + 4096);
                        prop_assert_eq!(
                            space.munmap(&mut alloc, at),
                            Err(MmError::NoSuchRegion(at))
                        );
                    }
                }
                VmaOp::Unmap(_) | VmaOp::UnmapInterior(_) => {}
            }
            let last_end = model.iter().map(|r| r.1).max().unwrap_or(1 << 30);
            let mut addrs: Vec<u64> = vec![0, (1 << 30) - 1, last_end, last_end + (4 << 20)];
            for &(start, end, _, _) in &model {
                addrs.extend([start, start - 1, end - 1, end, (start + end) / 2]);
            }
            addrs.extend(probes.iter().map(|p| p % (last_end + (8 << 20))));
            for a in addrs {
                let expect = model
                    .iter()
                    .find(|r| r.3 && (r.0..r.1).contains(&a))
                    .map(|r| (r.0, r.2));
                let got = space.vma_at(VirtAddr::new(a)).map(|v| (v.start.as_u64(), v.page_size));
                prop_assert_eq!(got, expect, "lookup of {:#x}", a);

                // Region ends at or past `a`: the regions holding `a`
                // (live or unmapped) and the nearest one beyond.
                let holding = model.iter().filter(|r| r.0 <= a && a < r.1).map(|r| r.1);
                let beyond = model.iter().map(|r| r.1).filter(|&end| end > a).min();
                let mut lens = vec![0, 1, 4095, 4096, 4097, 1 << 16, 1 << 21, (1 << 21) + 4096];
                for end in holding.chain(beyond) {
                    lens.extend([end - a - 1, end - a, end - a + 1]);
                }
                for len in lens {
                    let last = a + len.max(1) - 1;
                    let expect = model
                        .iter()
                        .find(|r| r.3 && r.0 <= a && last < r.1)
                        .map(|r| (r.0, r.2));
                    let got = space
                        .vma_covering(VirtAddr::new(a), len)
                        .map(|v| (v.start.as_u64(), v.page_size));
                    prop_assert_eq!(got, expect, "range {:#x}+{:#x}", a, len);
                    prop_assert_eq!(
                        space.covering_page_size(VirtAddr::new(a), len),
                        expect.map(|e| e.1),
                        "page size of range {:#x}+{:#x}",
                        a,
                        len
                    );
                }
            }
            let live: Vec<u64> = model.iter().filter(|r| r.3).map(|r| r.0).collect();
            let listed: Vec<u64> = space.vmas().map(|v| v.start.as_u64()).collect();
            prop_assert_eq!(listed, live, "vmas() lists live regions in address order");
        }
    }
}
