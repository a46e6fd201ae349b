//! Property-based tests for the memory-management substrate: the buddy
//! allocator, the page table and the VMA directory are checked against
//! trivially-correct reference models under random operation sequences.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use memif_hwsim::{NodeId, PhysAddr, Topology};
use memif_mm::{
    AddressSpace, AllocPolicy, FrameAllocator, FrameInfo, MmError, PageSize, PageTable, Populate,
    Pte, VirtAddr,
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

#[derive(Debug, Clone)]
enum TableOp {
    Map(u8, PageSize, u32),
    Unmap(u8),
    Replace(u8, u32),
    Cas(u8, u32),
}

fn table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (any::<u8>(), size_strategy(), 0u32..1024).prop_map(|(s, z, f)| TableOp::Map(s, z, f)),
        any::<u8>().prop_map(TableOp::Unmap),
        (any::<u8>(), 0u32..1024).prop_map(|(s, f)| TableOp::Replace(s, f)),
        (any::<u8>(), 0u32..1024).prop_map(|(s, f)| TableOp::Cas(s, f)),
    ]
}

/// Slot index → (vaddr, size). Slots are spread 2 MiB apart so any page
/// size fits without overlap; sizes are fixed per slot by the first map.
fn slot_vaddr(slot: u8) -> VirtAddr {
    VirtAddr::new(0x8000_0000 + u64::from(slot) * (2 << 20))
}

fn frame_addr(f: u32, size: PageSize) -> PhysAddr {
    PhysAddr::new(0x8_0000_0000 + u64::from(f) * size.bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The page table agrees with a map-based reference model under
    /// random map/unmap/replace/CAS sequences, and `mapped_entries`
    /// stays exact.
    #[test]
    fn page_table_matches_model(ops in proptest::collection::vec(table_op(), 1..150)) {
        let mut table = PageTable::new();
        let mut model: BTreeMap<u8, Pte> = BTreeMap::new();
        let mut sizes: HashMap<u8, PageSize> = HashMap::new();

        for op in ops {
            match op {
                TableOp::Map(slot, size, frame) => {
                    let size = *sizes.entry(slot).or_insert(size);
                    let pte = Pte::mapping(frame_addr(frame, size), size);
                    table.map(slot_vaddr(slot), pte).unwrap();
                    model.insert(slot, pte);
                }
                TableOp::Unmap(slot) => {
                    let Some(&size) = sizes.get(&slot) else { continue };
                    let got = table.unmap(slot_vaddr(slot), size);
                    prop_assert_eq!(got, model.remove(&slot));
                }
                TableOp::Replace(slot, frame) => {
                    let Some(&size) = sizes.get(&slot) else { continue };
                    let pte = Pte::mapping(frame_addr(frame, size), size);
                    let old = table.replace(slot_vaddr(slot), pte).unwrap();
                    prop_assert_eq!(old, model.insert(slot, pte).unwrap_or(Pte::EMPTY));
                }
                TableOp::Cas(slot, frame) => {
                    let Some(&size) = sizes.get(&slot) else { continue };
                    let current = model.get(&slot).copied().unwrap_or(Pte::EMPTY);
                    let new = Pte::mapping(frame_addr(frame, size), size).with_young(false);
                    // Expected-correct CAS must succeed...
                    table.compare_exchange(slot_vaddr(slot), current, new).unwrap();
                    model.insert(slot, new);
                    // ...and a stale CAS must fail and report the truth.
                    if current != new {
                        let err = table
                            .compare_exchange(slot_vaddr(slot), current, new)
                            .unwrap_err();
                        prop_assert_eq!(err, new);
                    }
                }
            }
            // Model agreement on every slot ever touched.
            for (&slot, &size) in &sizes {
                let got = table.peek(slot_vaddr(slot), size);
                prop_assert_eq!(got, model.get(&slot).copied());
            }
            prop_assert_eq!(table.mapped_entries(), model.len());
        }
    }

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

    /// `vma_at` agrees with a linear scan over the live regions under
    /// random 4 KiB / 64 KiB / 2 MiB mappings (eager and lazy, many
    /// straddling 2 MiB chunks) and unmaps, probed at every region's
    /// edges, below 1 GiB and past the last region.
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
            }
            let live: Vec<u64> = model.iter().filter(|r| r.3).map(|r| r.0).collect();
            let listed: Vec<u64> = space.vmas().map(|v| v.start.as_u64()).collect();
            prop_assert_eq!(listed, live, "vmas() lists live regions in address order");
        }
    }
}
