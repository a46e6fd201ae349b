//! Address spaces: VMAs, demand access, and fault semantics.
//!
//! An [`AddressSpace`] owns a page table, its VMAs, and a TLB. The
//! experiments only move *anonymous* memory (the prototype's own
//! limitation, §6.7: "it can only move anonymous pages but not pages
//! backed by files"), so regions are anonymous: populated eagerly by
//! default, or lazily on first touch.
//!
//! CPU accesses go through [`AddressSpace::access`], which realizes the
//! reference semantics the race-detection design builds on (§5.2): a
//! reference *clears* the young bit of the entry — so memif's Release,
//! which CASes a semi-final young-set entry to its young-cleared final
//! form, fails exactly when the application touched the page mid-flight.
//! Accesses also honor Linux migration entries (they block: the
//! baseline's race prevention) and the write-watch bit used by
//! proceed-and-recover mode.
//!
//! VMAs live in a `Vec` in address order: the bump allocator only ever
//! appends. A radix directory with one entry per 2 MiB of address space
//! maps an address to its VMA's index in two loads. An entry names
//! either the one VMA covering the whole chunk or, for a chunk shared by
//! several VMAs or partly unmapped, one VMA index per 4 KiB granule.
//! Each entry also carries its region's page size in its top bits, so
//! "one region covers this range at page size P" is answered from the
//! directory alone ([`AddressSpace::covering_page_size`]): a region is
//! one contiguous interval, so it covers a range exactly when the
//! range's first and last granules hold its entry. `munmap` is rare and
//! rebuilds the directory.
//!
//! A [`Vma`] is 16 bytes: its start, page count, page size, and a `u16`
//! index into the space's policy table, which holds each distinct
//! [`AllocPolicy`] of the live regions once. Regions mapped under equal
//! policies share one entry, and an entry goes when its last region is
//! unmapped. A region's home node is its policy's
//! [`home`](AllocPolicy::home), stored nowhere else.

use memif_hwsim::{NodeId, PhysAddr, PhysMem};

use crate::addr::{PageSize, VirtAddr};
use crate::alloc::{AllocError, FrameAllocator};
use crate::pagetable::{PageTable, WalkStats};
use crate::pte::Pte;
use crate::tlb::Tlb;

/// Where a region's backing pages come from — the `mbind`-style NUMA
/// allocation policies of the pseudo-NUMA abstraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Allocate strictly on one node; fail when it is full.
    Bind(NodeId),
    /// Try one node first, fall back to the others.
    Preferred(NodeId),
    /// Round-robin pages across a node set (page *i* starts at
    /// `nodes[i % len]`), falling back within the set. An empty set maps
    /// nothing: [`AddressSpace::mmap_with`] rejects it.
    Interleave(Vec<NodeId>),
}

impl AllocPolicy {
    /// Nodes to try for page `index`, in order.
    fn candidates(&self, index: u32) -> impl Iterator<Item = NodeId> + '_ {
        let nodes = match self {
            AllocPolicy::Bind(n) | AllocPolicy::Preferred(n) => std::slice::from_ref(n),
            AllocPolicy::Interleave(nodes) => nodes.as_slice(),
        };
        let k = index as usize % nodes.len();
        nodes[k..].iter().chain(&nodes[..k]).copied()
    }

    /// Whether exhaustion of the candidates may fall back to any node.
    fn strict(&self) -> bool {
        matches!(self, AllocPolicy::Bind(_))
    }

    /// The policy's primary node (the VMA's "home").
    ///
    /// # Panics
    ///
    /// Panics on an [`Interleave`](AllocPolicy::Interleave) over no
    /// nodes, a policy no region of an [`AddressSpace`] holds.
    #[must_use]
    pub fn home(&self) -> NodeId {
        match self {
            AllocPolicy::Bind(n) | AllocPolicy::Preferred(n) => *n,
            AllocPolicy::Interleave(nodes) => nodes[0],
        }
    }
}

/// Whether a mapping is backed at `mmap` time or on first touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Populate {
    /// Allocate and map every page up front.
    #[default]
    Eager,
    /// Leave pages unmapped; a touch demand-allocates per the policy.
    Lazy,
}

/// One virtual memory area of uniform page size: 16 bytes. Its
/// allocation policy lives once in its space's policy table, read with
/// [`AddressSpace::policy`]; the region's home node is that policy's
/// [`AllocPolicy::home`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    /// First address.
    pub start: VirtAddr,
    /// Pages in the region.
    pub pages: u32,
    /// Page granularity.
    pub page_size: PageSize,
    /// Index of the region's policy in its space's policy table.
    policy: u16,
}

impl Vma {
    /// One past the last byte.
    #[must_use]
    pub fn end(&self) -> VirtAddr {
        self.start.offset(self.len_bytes())
    }

    /// Region length in bytes.
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        u64::from(self.pages) * self.page_size.bytes()
    }

    /// True if `vaddr` lies inside the region.
    #[must_use]
    pub fn contains(&self, vaddr: VirtAddr) -> bool {
        vaddr >= self.start && vaddr < self.end()
    }

    /// True if the byte range `[start, start+len)` lies inside.
    #[must_use]
    pub fn covers(&self, start: VirtAddr, len: u64) -> bool {
        start >= self.start && start.offset(len) <= self.end()
    }
}

/// CPU access type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Page-fault outcomes of [`AddressSpace::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No mapping covers the address.
    Unmapped(VirtAddr),
    /// A lazily-populated page was touched for the first time; the
    /// kernel resolves it with
    /// [`AddressSpace::handle_demand_fault`] and the access retries.
    DemandPage(VirtAddr),
    /// A Linux migration entry blocks the access until migration
    /// completes (baseline race prevention, §5.2 / Figure 4a).
    BlockedByMigration(VirtAddr),
    /// The entry is write-watched: the write traps so a custom handler
    /// can abort an in-flight memif migration (proceed-and-recover).
    WriteProtected(VirtAddr),
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Unmapped(va) => write!(f, "unmapped access at {va}"),
            Fault::DemandPage(va) => write!(f, "demand fault at {va}"),
            Fault::BlockedByMigration(va) => write!(f, "access blocked by migration entry at {va}"),
            Fault::WriteProtected(va) => write!(f, "write to watched page at {va}"),
        }
    }
}

impl std::error::Error for Fault {}

/// Errors from region management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmError {
    /// Physical allocation failed.
    Alloc(AllocError),
    /// The address is not the start of a mapped region.
    NoSuchRegion(VirtAddr),
    /// Zero pages requested.
    EmptyRegion,
    /// The space's live regions already use 65,536 distinct allocation
    /// policies, as many as a [`Vma`] can name.
    TooManyPolicies,
    /// An [`AllocPolicy::Interleave`] over no nodes.
    EmptyNodeSet,
}

impl From<AllocError> for MmError {
    fn from(e: AllocError) -> Self {
        MmError::Alloc(e)
    }
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Alloc(e) => write!(f, "allocation failed: {e}"),
            MmError::NoSuchRegion(va) => write!(f, "no region starts at {va}"),
            MmError::EmptyRegion => f.write_str("empty region"),
            MmError::TooManyPolicies => f.write_str("too many distinct allocation policies"),
            MmError::EmptyNodeSet => f.write_str("interleave over no nodes"),
        }
    }
}

impl std::error::Error for MmError {}

/// First address the bump allocator hands out (1 GiB).
const SPACE_BASE: u64 = 1 << 30;
/// log2 of the address span one directory entry covers (2 MiB).
const CHUNK_SHIFT: u32 = 21;
/// 4 KiB granules per directory chunk.
const GRANULES: usize = 512;
/// A directory slot no VMA covers: no entry [`dir_entry`] builds
/// reaches it.
const NO_VMA: u32 = u32::MAX;
/// A directory entry holds its region's page size (the index into
/// [`PageSize::ALL`], at most 2) above this bit and the region's index
/// into `vmas` below it.
const SIZE_SHIFT: u32 = 30;
/// The region-index bits of a directory entry.
const INDEX_MASK: u32 = (1 << SIZE_SHIFT) - 1;

/// The directory entry of region `k` with pages of `size`.
fn dir_entry(k: usize, size: PageSize) -> u32 {
    let k = u32::try_from(k)
        .ok()
        .filter(|&k| k <= INDEX_MASK)
        .expect("a space holds fewer than 2^30 regions");
    let code = PageSize::ALL
        .iter()
        .position(|&p| p == size)
        .expect("every size is listed") as u32;
    code << SIZE_SHIFT | k
}

/// One 2 MiB chunk of the VMA directory.
#[derive(Debug, Clone)]
enum Chunk {
    /// One VMA index (or [`NO_VMA`]) for the whole chunk.
    Whole(u32),
    /// One VMA index per 4 KiB granule.
    Split(Box<[u32; GRANULES]>),
}

/// An application's virtual address space.
///
/// # Examples
///
/// ```
/// use memif_hwsim::{NodeId, Topology};
/// use memif_mm::{AccessKind, AddressSpace, FrameAllocator, PageSize};
///
/// let mut topo = Topology::keystone_ii();
/// topo.complete_boot();
/// let mut alloc = FrameAllocator::new(&topo);
/// let mut space = AddressSpace::new();
///
/// let va = space.mmap_anonymous(&mut alloc, 4, PageSize::Small4K, NodeId(0)).unwrap();
/// let pa = space.access(va, AccessKind::Write).unwrap();
/// assert_eq!(topo.node_of_addr(pa), Some(NodeId(0)));
/// // The access cleared the young bit — the hook memif's race
/// // detection builds on (§5.2).
/// assert!(!space.table().peek(va, PageSize::Small4K).unwrap().is_young());
/// ```
#[derive(Debug)]
pub struct AddressSpace {
    table: PageTable,
    /// Regions in address order.
    vmas: Vec<Vma>,
    /// The distinct allocation policies of the live regions, each once;
    /// a [`Vma`] names its own by index.
    policies: Vec<AllocPolicy>,
    /// Chunk `c` covers `[SPACE_BASE + c * 2 MiB, ...)` (see the module
    /// docs).
    dir: Vec<Chunk>,
    tlb: Tlb,
    next_addr: u64,
    /// Access sampling (off by default): when enabled, every CPU access
    /// through [`AddressSpace::access`] bumps one space-wide counter,
    /// which scenario runs report as workload telemetry. The placement
    /// policy's epochs do not read it: they scan PTE reference bits
    /// ([`AddressSpace::scan_referenced`]).
    sampling: bool,
    sampled_accesses: u64,
}

/// Result of one reference-bit sampling scan
/// ([`AddressSpace::scan_referenced`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// PTEs whose reference state was inspected (and re-armed).
    pub scanned: u32,
    /// Of those, pages referenced since the previous scan.
    pub referenced: u32,
    /// Entries skipped: unmapped, non-present, migration, or watched.
    pub skipped: u32,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// An empty address space; mappings start at 1 GiB.
    #[must_use]
    pub fn new() -> Self {
        AddressSpace {
            table: PageTable::new(),
            vmas: Vec::new(),
            policies: Vec::new(),
            dir: Vec::new(),
            tlb: Tlb::new(),
            next_addr: SPACE_BASE,
            sampling: false,
            sampled_accesses: 0,
        }
    }

    /// Maps an anonymous region of `pages` pages of `page_size` with
    /// backing eagerly allocated on `node` — the common case, equivalent
    /// to [`AddressSpace::mmap_with`] under [`AllocPolicy::Bind`] and
    /// [`Populate::Eager`]. Fresh entries are young.
    ///
    /// # Errors
    ///
    /// [`MmError::EmptyRegion`], [`MmError::TooManyPolicies`], or an
    /// allocation failure (in which case nothing remains mapped).
    pub fn mmap_anonymous(
        &mut self,
        alloc: &mut FrameAllocator,
        pages: u32,
        page_size: PageSize,
        node: NodeId,
    ) -> Result<VirtAddr, MmError> {
        self.mmap_with(
            alloc,
            pages,
            page_size,
            AllocPolicy::Bind(node),
            Populate::Eager,
        )
    }

    /// Maps an anonymous region under an arbitrary allocation policy,
    /// eagerly or lazily populated.
    ///
    /// # Errors
    ///
    /// [`MmError::EmptyRegion`], [`MmError::EmptyNodeSet`],
    /// [`MmError::TooManyPolicies`], or an eager allocation failure (in
    /// which case nothing remains mapped). Nothing is allocated or
    /// indexed before the first two are checked.
    pub fn mmap_with(
        &mut self,
        alloc: &mut FrameAllocator,
        pages: u32,
        page_size: PageSize,
        policy: AllocPolicy,
        populate: Populate,
    ) -> Result<VirtAddr, MmError> {
        if pages == 0 {
            return Err(MmError::EmptyRegion);
        }
        if matches!(&policy, AllocPolicy::Interleave(nodes) if nodes.is_empty()) {
            return Err(MmError::EmptyNodeSet);
        }
        let index = self.policy_index(&policy)?;
        // Align the bump pointer; regions of any size stay naturally
        // aligned for their pages.
        let align = page_size.bytes();
        let start = VirtAddr::new((self.next_addr + align - 1) & !(align - 1));
        if populate == Populate::Eager {
            for i in 0..pages {
                let vaddr = start.offset(u64::from(i) * align);
                match Self::alloc_by_policy(alloc, &policy, i, page_size) {
                    Ok(frame) => {
                        self.table
                            .map(vaddr, Pte::mapping(frame, page_size))
                            .expect("bump allocator never overlaps");
                    }
                    Err(e) => {
                        // Roll back: the earlier pages are the region's
                        // first `i`, each at its own offset.
                        for j in 0..i {
                            let va = start.offset(u64::from(j) * align);
                            if let Some(pte) = self.table.unmap(va, page_size) {
                                let _ = alloc.free(pte.frame());
                            }
                        }
                        return Err(e);
                    }
                }
            }
        }
        self.push_vma(
            Vma {
                start,
                pages,
                page_size,
                policy: index,
            },
            policy,
        );
        Ok(start)
    }

    /// The index `policy` has in the policy table, or takes when
    /// [`push_vma`](Self::push_vma) appends it. A linear scan: a space
    /// holds a handful of distinct policies.
    fn policy_index(&self, policy: &AllocPolicy) -> Result<u16, MmError> {
        let k = self
            .policies
            .iter()
            .position(|p| p == policy)
            .unwrap_or(self.policies.len());
        u16::try_from(k).map_err(|_| MmError::TooManyPolicies)
    }

    /// Appends a region past every existing one and indexes it. `vma`
    /// names `policy` by the index [`policy_index`](Self::policy_index)
    /// gave it.
    fn push_vma(&mut self, vma: Vma, policy: AllocPolicy) {
        if usize::from(vma.policy) == self.policies.len() {
            self.policies.push(policy);
        } else {
            debug_assert_eq!(self.policies[usize::from(vma.policy)], policy);
        }
        self.next_addr = vma.end().as_u64();
        self.vmas.push(vma);
        self.index_vma(self.vmas.len() - 1);
    }

    /// Points every directory slot `vmas[k]` covers at `k`.
    fn index_vma(&mut self, k: usize) {
        let vma = &self.vmas[k];
        let entry = dir_entry(k, vma.page_size);
        let start = vma.start.as_u64() - SPACE_BASE;
        let end = vma.end().as_u64() - SPACE_BASE;
        let chunks = ((end - 1) >> CHUNK_SHIFT) as usize + 1;
        if self.dir.len() < chunks {
            self.dir.resize(chunks, Chunk::Whole(NO_VMA));
        }
        let mut at = start;
        while at < end {
            let c = (at >> CHUNK_SHIFT) as usize;
            let chunk_end = (c as u64 + 1) << CHUNK_SHIFT;
            let stop = end.min(chunk_end);
            if stop - at == 1 << CHUNK_SHIFT {
                self.dir[c] = Chunk::Whole(entry);
            } else {
                if let Chunk::Whole(w) = self.dir[c] {
                    debug_assert_eq!(w, NO_VMA, "regions never overlap");
                    self.dir[c] = Chunk::Split(Box::new([NO_VMA; GRANULES]));
                }
                let Chunk::Split(granules) = &mut self.dir[c] else {
                    unreachable!("converted above")
                };
                let lo = (at >> 12) as usize % GRANULES;
                granules[lo..lo + ((stop - at) >> 12) as usize].fill(entry);
            }
            at = stop;
        }
    }

    fn alloc_by_policy(
        alloc: &mut FrameAllocator,
        policy: &AllocPolicy,
        page_index: u32,
        page_size: PageSize,
    ) -> Result<memif_hwsim::PhysAddr, MmError> {
        let mut last = None;
        for node in policy.candidates(page_index) {
            match alloc.alloc(node, page_size) {
                Ok(frame) => return Ok(frame),
                Err(e) => last = Some(e),
            }
        }
        if !policy.strict() {
            // Preferred/interleave fall back to any node with room.
            for node in alloc.nodes() {
                if let Ok(frame) = alloc.alloc(node, page_size) {
                    return Ok(frame);
                }
            }
        }
        Err(last.expect("at least one candidate").into())
    }

    /// Resolves a [`Fault::DemandPage`]: allocates backing for the
    /// faulting page per its region's policy and installs a young
    /// mapping. The faulting access should then retry.
    ///
    /// # Errors
    ///
    /// [`MmError::NoSuchRegion`] if no VMA covers `vaddr`, or the
    /// allocation failure.
    pub fn handle_demand_fault(
        &mut self,
        alloc: &mut FrameAllocator,
        vaddr: VirtAddr,
    ) -> Result<(), MmError> {
        let vma = *self.vma_at(vaddr).ok_or(MmError::NoSuchRegion(vaddr))?;
        let page = vaddr.align_down(vma.page_size);
        let index = ((page.as_u64() - vma.start.as_u64()) / vma.page_size.bytes()) as u32;
        let frame = Self::alloc_by_policy(alloc, self.policy(&vma), index, vma.page_size)?;
        self.table
            .map(page, Pte::mapping(frame, vma.page_size))
            .expect("demand page was unmapped");
        Ok(())
    }

    /// Maps an *existing* set of frames into this space (a shared
    /// mapping): each frame's reference count is bumped, so the backing
    /// outlives whichever space unmaps first. `node` records the frames'
    /// home for the VMA's allocation policy.
    ///
    /// # Errors
    ///
    /// [`MmError::EmptyRegion`] for no frames,
    /// [`MmError::TooManyPolicies`], or a frame-table failure if any
    /// address is not a live block base or is referenced as often as it
    /// can be (earlier references are rolled back).
    ///
    /// # Panics
    ///
    /// Panics if frames are misaligned for `page_size`.
    pub fn map_shared(
        &mut self,
        alloc: &mut FrameAllocator,
        frames: &[memif_hwsim::PhysAddr],
        page_size: PageSize,
        node: NodeId,
    ) -> Result<VirtAddr, MmError> {
        if frames.is_empty() {
            return Err(MmError::EmptyRegion);
        }
        let policy = AllocPolicy::Bind(node);
        let index = self.policy_index(&policy)?;
        let align = page_size.bytes();
        let start = VirtAddr::new((self.next_addr + align - 1) & !(align - 1));
        for (i, frame) in frames.iter().enumerate() {
            if let Err(e) = alloc.get_ref(*frame) {
                for (j, done) in frames[..i].iter().enumerate() {
                    self.table.unmap(start.offset(j as u64 * align), page_size);
                    let _ = alloc.free(*done);
                }
                return Err(e.into());
            }
            let vaddr = start.offset(i as u64 * align);
            self.table
                .map(vaddr, Pte::mapping(*frame, page_size))
                .expect("bump allocator never overlaps");
        }
        self.push_vma(
            Vma {
                start,
                pages: frames.len() as u32,
                page_size,
                policy: index,
            },
            policy,
        );
        Ok(start)
    }

    /// Unmaps the region starting at `start`, freeing present frames.
    ///
    /// # Errors
    ///
    /// [`MmError::NoSuchRegion`] if `start` is not a region start.
    pub fn munmap(&mut self, alloc: &mut FrameAllocator, start: VirtAddr) -> Result<(), MmError> {
        let k = self
            .vma_index(start)
            .filter(|&k| self.vmas[k].start == start)
            .ok_or(MmError::NoSuchRegion(start))?;
        let vma = self.vmas.remove(k);
        self.release_policy(vma.policy);
        self.dir.clear();
        for k in 0..self.vmas.len() {
            self.index_vma(k);
        }
        for i in 0..vma.pages {
            let vaddr = start.offset(u64::from(i) * vma.page_size.bytes());
            if let Some(pte) = self.table.unmap(vaddr, vma.page_size) {
                if pte.is_present() {
                    let _ = alloc.free(pte.frame());
                }
            }
            self.tlb.flush_page(vaddr, vma.page_size);
        }
        Ok(())
    }

    /// Drops policy `k` from the table once no region names it; the
    /// table's last policy moves into its index.
    fn release_policy(&mut self, k: u16) {
        if self.vmas.iter().any(|v| v.policy == k) {
            return;
        }
        self.policies.swap_remove(usize::from(k));
        let moved = self.policies.len() as u16;
        for vma in self.vmas.iter_mut().filter(|v| v.policy == moved) {
            vma.policy = k;
        }
    }

    /// The allocation policy backing `vma`, a region of this space.
    #[must_use]
    pub fn policy(&self, vma: &Vma) -> &AllocPolicy {
        &self.policies[usize::from(vma.policy)]
    }

    /// The VMA containing `vaddr`.
    #[must_use]
    pub fn vma_at(&self, vaddr: VirtAddr) -> Option<&Vma> {
        self.vma_index(vaddr).map(|k| &self.vmas[k])
    }

    /// Index into `vmas` of the region containing `vaddr`.
    fn vma_index(&self, vaddr: VirtAddr) -> Option<usize> {
        self.dir_entry_at(vaddr.as_u64())
            .map(|e| (e & INDEX_MASK) as usize)
    }

    /// The directory entry of the granule holding `addr`, if a region
    /// covers it.
    fn dir_entry_at(&self, addr: u64) -> Option<u32> {
        let off = addr.checked_sub(SPACE_BASE)?;
        let e = match self.dir.get((off >> CHUNK_SHIFT) as usize)? {
            Chunk::Whole(e) => *e,
            Chunk::Split(granules) => granules[(off >> 12) as usize % GRANULES],
        };
        (e != NO_VMA).then_some(e)
    }

    /// The directory entry of the one region covering the whole byte
    /// range `[start, start + len)`, if one does: the entry its first
    /// and last granules share. An empty range is covered by the region
    /// holding `start`.
    fn covering_entry(&self, start: VirtAddr, len: u64) -> Option<u32> {
        let first = self.dir_entry_at(start.as_u64())?;
        let last = start.as_u64().checked_add(len.max(1) - 1)?;
        (self.dir_entry_at(last)? == first).then_some(first)
    }

    /// The VMA covering the whole byte range, if one does.
    #[must_use]
    pub fn vma_covering(&self, start: VirtAddr, len: u64) -> Option<&Vma> {
        self.covering_entry(start, len)
            .map(|e| &self.vmas[(e & INDEX_MASK) as usize])
    }

    /// The page size of the region covering the whole byte range
    /// `[start, start + len)`, if one region does. Answered from the
    /// directory alone, without reading the [`Vma`] record: the request
    /// path validates every move with it.
    #[must_use]
    pub fn covering_page_size(&self, start: VirtAddr, len: u64) -> Option<PageSize> {
        self.covering_entry(start, len)
            .map(|e| PageSize::ALL[(e >> SIZE_SHIFT) as usize])
    }

    /// All regions, in address order.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.iter()
    }

    /// Performs a CPU access to `vaddr`: translates, pulls the entry into
    /// the TLB, *clears the young bit*, and sets dirty on writes. Returns
    /// the physical address of the accessed byte.
    ///
    /// # Errors
    ///
    /// See [`Fault`].
    pub fn access(&mut self, vaddr: VirtAddr, kind: AccessKind) -> Result<PhysAddr, Fault> {
        let vma = self.vma_at(vaddr).ok_or(Fault::Unmapped(vaddr))?;
        let size = vma.page_size;
        let page = vaddr.align_down(size);
        let pte = self
            .table
            .entry_mut(page, size)
            .ok_or(Fault::DemandPage(page))?;
        if pte.is_migration() {
            return Err(Fault::BlockedByMigration(vaddr));
        }
        if !pte.is_present() {
            return Err(Fault::Unmapped(vaddr));
        }
        if kind == AccessKind::Write && pte.is_watched() {
            return Err(Fault::WriteProtected(vaddr));
        }
        let frame = pte.frame();
        *pte = pte.with_young(false);
        if kind == AccessKind::Write {
            *pte = pte.with_dirty(true);
        }
        self.tlb.access(page, size);
        if self.sampling {
            self.sampled_accesses += 1;
        }
        Ok(frame.offset(vaddr.as_u64() - page.as_u64()))
    }

    /// Turns on access counting (see [`ScanOutcome`] for the companion
    /// reference-bit scan). Idempotent; off by default.
    pub fn enable_sampling(&mut self) {
        self.sampling = true;
    }

    /// True when access counting is on.
    #[must_use]
    pub fn sampling_enabled(&self) -> bool {
        self.sampling
    }

    /// Accesses counted since sampling was enabled or since the last
    /// call; resets the count.
    pub fn take_sampled_accesses(&mut self) -> u64 {
        std::mem::take(&mut self.sampled_accesses)
    }

    /// One sampling epoch's reference-bit scan over `[start, start +
    /// pages * page_size)`: inspects each mapped page's young bit and
    /// re-arms it. In this machine's model a CPU reference *clears*
    /// young (§5.2), so a cleared bit means the page was touched since
    /// the previous scan; re-arming sets it back so the next epoch
    /// observes a fresh interval.
    ///
    /// Pages that are unmapped, non-present, under a migration entry, or
    /// write-watched are skipped (counted in
    /// [`ScanOutcome::skipped`]). Callers must not scan ranges covered
    /// by an *in-flight* move: re-arming young on a semi-final entry
    /// would mask the race check Release performs (the policy daemon
    /// therefore skips regions with moves outstanding).
    pub fn scan_referenced(
        &mut self,
        start: VirtAddr,
        pages: u32,
        page_size: PageSize,
    ) -> ScanOutcome {
        let mut out = ScanOutcome::default();
        self.table
            .write_range(start, pages, page_size, |_, entry| match entry {
                Some(pte) if pte.is_present() && !pte.is_migration() && !pte.is_watched() => {
                    out.scanned += 1;
                    if !pte.is_young() {
                        out.referenced += 1;
                        *pte = pte.with_young(true);
                    }
                }
                _ => out.skipped += 1,
            });
        out
    }

    /// Every transient entry a move left in this space's page table:
    /// migration entries (blocking accessors for the transfer window)
    /// and write-watched entries (proceed-and-recover traps). Crash
    /// recovery scans these and cross-checks them against the move
    /// journal — a transient entry no journal record covers would be a
    /// page stuck unreachable forever.
    #[must_use]
    pub fn scan_transient(&self) -> Vec<(VirtAddr, Pte)> {
        let mut out = Vec::new();
        for vma in &self.vmas {
            let size = vma.page_size;
            self.table
                .read_range(vma.start, vma.pages, size, |i, entry| {
                    if let Some(pte) = entry.filter(|p| p.is_migration() || p.is_watched()) {
                        out.push((vma.start.offset(u64::from(i) * size.bytes()), pte));
                    }
                });
        }
        out
    }

    /// Pure translation: no reference-bit side effects, no TLB insert.
    #[must_use]
    pub fn translate(&self, vaddr: VirtAddr) -> Option<PhysAddr> {
        let vma = self.vma_at(vaddr)?;
        let page = vaddr.align_down(vma.page_size);
        let pte = self.table.peek(page, vma.page_size)?;
        if !pte.is_present() {
            return None;
        }
        Some(pte.frame().offset(vaddr.as_u64() - page.as_u64()))
    }

    /// Writes `data` into the space at `vaddr` through normal accesses
    /// (page by page, with reference-bit effects).
    ///
    /// # Errors
    ///
    /// Any [`Fault`] hit along the way (earlier pages stay written).
    pub fn write_bytes(
        &mut self,
        phys: &mut PhysMem,
        vaddr: VirtAddr,
        data: &[u8],
    ) -> Result<(), Fault> {
        self.chunked(vaddr, data.len() as u64, |space, va, off, len| {
            let pa = space.access(va, AccessKind::Write)?;
            phys.write(pa, &data[off as usize..(off + len) as usize]);
            Ok(())
        })
    }

    /// Reads bytes from the space through normal accesses.
    ///
    /// # Errors
    ///
    /// Any [`Fault`] hit along the way.
    pub fn read_bytes(
        &mut self,
        phys: &PhysMem,
        vaddr: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), Fault> {
        let len = buf.len() as u64;
        self.chunked(vaddr, len, |space, va, off, n| {
            let pa = space.access(va, AccessKind::Read)?;
            phys.read(pa, &mut buf[off as usize..(off + n) as usize]);
            Ok(())
        })
    }

    fn chunked(
        &mut self,
        vaddr: VirtAddr,
        len: u64,
        mut f: impl FnMut(&mut Self, VirtAddr, u64, u64) -> Result<(), Fault>,
    ) -> Result<(), Fault> {
        let mut off = 0;
        while off < len {
            let va = vaddr.offset(off);
            let page_size = self.vma_at(va).ok_or(Fault::Unmapped(va))?.page_size;
            let page_end = va.align_down(page_size).offset(page_size.bytes());
            let n = (page_end.as_u64() - va.as_u64()).min(len - off);
            f(self, va, off, n)?;
            off += n;
        }
        Ok(())
    }

    /// Direct page-table access for the migration drivers.
    #[must_use]
    pub fn table(&self) -> &PageTable {
        &self.table
    }

    /// Mutable page-table access for the migration drivers.
    pub fn table_mut(&mut self) -> &mut PageTable {
        &mut self.table
    }

    /// The space's TLB.
    #[must_use]
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// Mutable TLB access (for flush accounting by drivers).
    pub fn tlb_mut(&mut self) -> &mut Tlb {
        &mut self.tlb
    }

    /// Gang or per-page lookup over a region (see
    /// [`PageTable::lookup_range`]).
    #[must_use]
    pub fn lookup_range(
        &self,
        start: VirtAddr,
        count: u32,
        size: PageSize,
        gang: bool,
    ) -> (Vec<Option<Pte>>, WalkStats) {
        self.table.lookup_range(start, count, size, gang)
    }

    /// Buffer-reusing variant of [`lookup_range`](Self::lookup_range)
    /// (see [`PageTable::lookup_range_into`]).
    pub fn lookup_range_into(
        &self,
        start: VirtAddr,
        count: u32,
        size: PageSize,
        gang: bool,
        out: &mut Vec<Option<Pte>>,
    ) -> WalkStats {
        self.table.lookup_range_into(start, count, size, gang, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memif_hwsim::Topology;

    fn setup() -> (AddressSpace, FrameAllocator, PhysMem) {
        let mut topo = Topology::keystone_ii();
        topo.complete_boot();
        (
            AddressSpace::new(),
            FrameAllocator::new(&topo),
            PhysMem::new(),
        )
    }

    #[test]
    fn mmap_populates_eagerly() {
        let (mut space, mut alloc, _) = setup();
        let va = space
            .mmap_anonymous(&mut alloc, 8, PageSize::Small4K, NodeId(0))
            .unwrap();
        assert_eq!(alloc.live_frames(), 8);
        for i in 0..8 {
            let pa = space.translate(va.offset(i * 4096)).unwrap();
            assert!(pa.as_u64() >= 0x8_0000_0000, "backed by DDR node");
        }
        let vma = space.vma_at(va).unwrap();
        assert_eq!(vma.pages, 8);
        assert_eq!(space.policy(vma), &AllocPolicy::Bind(NodeId(0)));
        assert_eq!(space.policy(vma).home(), NodeId(0));
    }

    #[test]
    fn vma_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Vma>(), 16);
    }

    #[test]
    fn policies_are_shared_and_dropped_with_their_last_region() {
        let (mut space, mut alloc, _) = setup();
        let lazy = |space: &mut AddressSpace, alloc: &mut FrameAllocator, policy| {
            space
                .mmap_with(alloc, 1, PageSize::Small4K, policy, Populate::Lazy)
                .unwrap()
        };
        let spread = AllocPolicy::Interleave(vec![NodeId(1), NodeId(0)]);
        let a = lazy(&mut space, &mut alloc, AllocPolicy::Bind(NodeId(0)));
        let b = lazy(&mut space, &mut alloc, spread.clone());
        let c = lazy(&mut space, &mut alloc, AllocPolicy::Bind(NodeId(0)));
        assert_eq!(space.policies.len(), 2, "equal policies are stored once");
        space.munmap(&mut alloc, a).unwrap();
        assert_eq!(space.policies.len(), 2, "c still uses Bind(0)");
        space.munmap(&mut alloc, c).unwrap();
        assert_eq!(space.policies, std::slice::from_ref(&spread));
        assert_eq!(space.policy(space.vma_at(b).unwrap()), &spread);
        space.handle_demand_fault(&mut alloc, b).unwrap();
        let pa = space.translate(b).unwrap();
        assert_eq!(alloc.frame_info(pa).unwrap().node, NodeId(1));
    }

    #[test]
    fn policy_table_overflow_is_an_error() {
        let (mut space, mut alloc, _) = setup();
        // Fill the table as 65,536 distinct policies would.
        space.policies = vec![AllocPolicy::Bind(NodeId(0)); 1 << 16];
        let taken = AllocPolicy::Bind(NodeId(0));
        let fresh = AllocPolicy::Preferred(NodeId(0));
        assert_eq!(
            space.mmap_with(&mut alloc, 1, PageSize::Small4K, fresh, Populate::Eager),
            Err(MmError::TooManyPolicies)
        );
        let frame = alloc.alloc(NodeId(1), PageSize::Small4K).unwrap();
        assert_eq!(
            space.map_shared(&mut alloc, &[frame], PageSize::Small4K, NodeId(1)),
            Err(MmError::TooManyPolicies)
        );
        assert_eq!(
            alloc.live_frames(),
            1,
            "nothing was allocated or referenced"
        );
        assert_eq!(alloc.frame_info(frame).unwrap().refcount, 1);
        assert_eq!(space.vmas().count(), 0);
        // A policy already in the table still maps.
        let va = space
            .mmap_with(&mut alloc, 1, PageSize::Small4K, taken, Populate::Eager)
            .unwrap();
        assert_eq!(space.vma_at(va).unwrap().policy, 0);
    }

    #[test]
    fn mmap_rolls_back_on_exhaustion() {
        let (mut space, mut alloc, _) = setup();
        // SRAM holds 1536 4 KiB pages; ask for more.
        let err = space.mmap_anonymous(&mut alloc, 2_000, PageSize::Small4K, NodeId(1));
        assert!(matches!(
            err,
            Err(MmError::Alloc(AllocError::OutOfMemory(_)))
        ));
        assert_eq!(alloc.live_frames(), 0, "partial allocation rolled back");
        assert_eq!(space.vmas().count(), 0);
    }

    #[test]
    fn munmap_frees_frames() {
        let (mut space, mut alloc, _) = setup();
        let va = space
            .mmap_anonymous(&mut alloc, 4, PageSize::Medium64K, NodeId(0))
            .unwrap();
        space.munmap(&mut alloc, va).unwrap();
        assert_eq!(alloc.live_frames(), 0);
        assert!(space.translate(va).is_none());
        assert!(matches!(
            space.munmap(&mut alloc, va),
            Err(MmError::NoSuchRegion(_))
        ));
    }

    #[test]
    fn access_clears_young_and_sets_dirty() {
        let (mut space, mut alloc, _) = setup();
        let va = space
            .mmap_anonymous(&mut alloc, 1, PageSize::Small4K, NodeId(0))
            .unwrap();
        assert!(space
            .table()
            .peek(va, PageSize::Small4K)
            .unwrap()
            .is_young());
        space.access(va, AccessKind::Read).unwrap();
        let pte = space.table().peek(va, PageSize::Small4K).unwrap();
        assert!(!pte.is_young(), "reference clears young (§5.2 model)");
        assert!(!pte.is_dirty());
        space.access(va.offset(100), AccessKind::Write).unwrap();
        assert!(space
            .table()
            .peek(va, PageSize::Small4K)
            .unwrap()
            .is_dirty());
    }

    #[test]
    fn sampling_counts_accesses() {
        let (mut space, mut alloc, _) = setup();
        let va = space
            .mmap_anonymous(&mut alloc, 2, PageSize::Small4K, NodeId(0))
            .unwrap();

        // Off by default: accesses leave no trace.
        space.access(va, AccessKind::Read).unwrap();
        assert!(!space.sampling_enabled());
        assert_eq!(space.take_sampled_accesses(), 0);

        space.enable_sampling();
        space.access(va, AccessKind::Read).unwrap();
        space.access(va.offset(8), AccessKind::Write).unwrap();
        space.access(va.offset(4096), AccessKind::Read).unwrap();
        // Faulting accesses are not counted.
        let _ = space.access(VirtAddr::new(0x99), AccessKind::Read);
        assert_eq!(space.take_sampled_accesses(), 3);
        assert_eq!(space.take_sampled_accesses(), 0, "drain resets");
    }

    #[test]
    fn access_to_unmapped_lazy_page_allocates_no_table_node() {
        let (mut space, mut alloc, _) = setup();
        let va = space
            .mmap_with(
                &mut alloc,
                4,
                PageSize::Small4K,
                AllocPolicy::Bind(NodeId(0)),
                Populate::Lazy,
            )
            .unwrap();
        assert_eq!(
            space.access(va.offset(4096), AccessKind::Write),
            Err(Fault::DemandPage(va.offset(4096)))
        );
        assert_eq!(space.table().mapped_entries(), 0);
        assert!(
            space.tlb().is_empty(),
            "a faulting access fills no TLB entry"
        );
        space
            .handle_demand_fault(&mut alloc, va.offset(4096))
            .unwrap();
        assert!(space.access(va.offset(4096), AccessKind::Write).is_ok());
        assert_eq!(space.table().mapped_entries(), 1);
    }

    #[test]
    fn fault_precedence_is_migration_then_not_present_then_watch() {
        let (mut space, mut alloc, _) = setup();
        let va = space
            .mmap_anonymous(&mut alloc, 1, PageSize::Small4K, NodeId(0))
            .unwrap();
        let mapped = space.table().peek(va, PageSize::Small4K).unwrap();
        let cases = [
            (
                Pte::migration_entry(PageSize::Small4K).with_watch(true),
                Fault::BlockedByMigration(va),
            ),
            (Pte::EMPTY.with_watch(true), Fault::Unmapped(va)),
            (mapped.with_watch(true), Fault::WriteProtected(va)),
        ];
        for (entry, fault) in cases {
            space.table_mut().replace(va, entry).unwrap();
            assert_eq!(space.access(va, AccessKind::Write), Err(fault));
            assert_eq!(
                space.table().peek(va, PageSize::Small4K),
                Some(entry),
                "a faulting access leaves the entry untouched"
            );
        }
    }

    #[test]
    fn scan_referenced_reports_and_rearms() {
        let (mut space, mut alloc, _) = setup();
        let va = space
            .mmap_anonymous(&mut alloc, 4, PageSize::Small4K, NodeId(0))
            .unwrap();

        // Fresh mappings are young: nothing referenced yet.
        let first = space.scan_referenced(va, 4, PageSize::Small4K);
        assert_eq!(
            first,
            ScanOutcome {
                scanned: 4,
                referenced: 0,
                skipped: 0
            }
        );

        // Touch two pages; the scan sees exactly those and re-arms them.
        space.access(va, AccessKind::Read).unwrap();
        space
            .access(va.offset(2 * 4096), AccessKind::Write)
            .unwrap();
        let second = space.scan_referenced(va, 4, PageSize::Small4K);
        assert_eq!(second.referenced, 2);
        assert!(
            space
                .table()
                .peek(va, PageSize::Small4K)
                .unwrap()
                .is_young(),
            "scan re-arms the reference bit"
        );

        // Re-armed and untouched: the next epoch reports quiescence.
        let third = space.scan_referenced(va, 4, PageSize::Small4K);
        assert_eq!(third.referenced, 0);

        // Unmapped tail pages are skipped, not scanned.
        let wide = space.scan_referenced(va, 6, PageSize::Small4K);
        assert_eq!(wide.scanned, 4);
        assert_eq!(wide.skipped, 2);
    }

    #[test]
    fn access_faults() {
        let (mut space, mut alloc, _) = setup();
        assert!(matches!(
            space.access(VirtAddr::new(0x99), AccessKind::Read),
            Err(Fault::Unmapped(_))
        ));
        let va = space
            .mmap_anonymous(&mut alloc, 1, PageSize::Small4K, NodeId(0))
            .unwrap();
        // Install a migration entry: accesses block.
        space
            .table_mut()
            .replace(va, Pte::migration_entry(PageSize::Small4K))
            .unwrap();
        assert!(matches!(
            space.access(va, AccessKind::Read),
            Err(Fault::BlockedByMigration(_))
        ));
    }

    #[test]
    fn watched_pages_trap_writes_only() {
        let (mut space, mut alloc, _) = setup();
        let va = space
            .mmap_anonymous(&mut alloc, 1, PageSize::Small4K, NodeId(0))
            .unwrap();
        let pte = space.table().peek(va, PageSize::Small4K).unwrap();
        space.table_mut().replace(va, pte.with_watch(true)).unwrap();
        assert!(space.access(va, AccessKind::Read).is_ok());
        assert!(matches!(
            space.access(va, AccessKind::Write),
            Err(Fault::WriteProtected(_))
        ));
    }

    #[test]
    fn access_fills_tlb_translate_does_not() {
        let (mut space, mut alloc, _) = setup();
        let va = space
            .mmap_anonymous(&mut alloc, 1, PageSize::Small4K, NodeId(0))
            .unwrap();
        space.translate(va).unwrap();
        assert!(
            space.tlb().is_empty(),
            "pure translation leaves no TLB entry"
        );
        space.access(va, AccessKind::Read).unwrap();
        assert!(space.tlb().contains(va, PageSize::Small4K));
    }

    #[test]
    fn byte_io_roundtrip_across_pages() {
        let (mut space, mut alloc, mut phys) = setup();
        let va = space
            .mmap_anonymous(&mut alloc, 3, PageSize::Small4K, NodeId(0))
            .unwrap();
        let data: Vec<u8> = (0..(3 * 4096)).map(|i| (i % 251) as u8).collect();
        space.write_bytes(&mut phys, va, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        space.read_bytes(&phys, va, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn unaligned_byte_io() {
        let (mut space, mut alloc, mut phys) = setup();
        let va = space
            .mmap_anonymous(&mut alloc, 2, PageSize::Small4K, NodeId(0))
            .unwrap();
        let at = va.offset(4000); // crosses the page boundary
        space
            .write_bytes(&mut phys, at, &[1, 2, 3, 4, 5, 6, 7, 8, 9])
            .unwrap();
        let mut buf = [0u8; 9];
        space.read_bytes(&phys, at, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn vma_lookup_edges() {
        let (mut space, mut alloc, _) = setup();
        let a = space
            .mmap_anonymous(&mut alloc, 2, PageSize::Small4K, NodeId(0))
            .unwrap();
        let b = space
            .mmap_anonymous(&mut alloc, 2, PageSize::Small4K, NodeId(0))
            .unwrap();
        assert_eq!(space.vma_at(a).unwrap().start, a);
        assert_eq!(space.vma_at(a.offset(8191)).unwrap().start, a);
        assert_eq!(space.vma_at(b).unwrap().start, b);
        assert!(space.vma_covering(a, 8192).is_some());
        assert!(
            space.vma_covering(a, 8193).is_none(),
            "range exceeds the VMA"
        );
    }

    #[test]
    fn map_shared_failure_unmaps_every_earlier_page() {
        let (mut space, mut alloc, _) = setup();
        let frames: Vec<_> = (0..3)
            .map(|_| alloc.alloc(NodeId(0), PageSize::Small4K).unwrap())
            .collect();
        alloc.free(frames[2]).unwrap();
        assert_eq!(
            space.map_shared(&mut alloc, &frames, PageSize::Small4K, NodeId(0)),
            Err(MmError::Alloc(AllocError::BadFree(frames[2])))
        );
        assert_eq!(space.table().mapped_entries(), 0, "no PTE remains");
        assert_eq!(space.vmas().count(), 0);
        for &frame in &frames[..2] {
            assert_eq!(alloc.frame_info(frame).unwrap().refcount, 1);
        }
        // The failed region's addresses are free for the next mapping.
        let va = space
            .mmap_anonymous(&mut alloc, 4, PageSize::Small4K, NodeId(0))
            .unwrap();
        assert!(space.translate(va.offset(3 * 4096)).is_some());
    }

    #[test]
    fn directory_spans_chunks_and_survives_munmap() {
        let (mut space, mut alloc, _) = setup();
        // 600 pages straddle a 2 MiB chunk boundary; the 2 MiB region
        // takes whole chunks; the 64 KiB region shares a chunk.
        let a = space
            .mmap_anonymous(&mut alloc, 600, PageSize::Small4K, NodeId(0))
            .unwrap();
        let b = space
            .mmap_anonymous(&mut alloc, 2, PageSize::Large2M, NodeId(0))
            .unwrap();
        let c = space
            .mmap_anonymous(&mut alloc, 3, PageSize::Medium64K, NodeId(0))
            .unwrap();
        assert_eq!(space.vma_at(a.offset(599 * 4096)).unwrap().start, a);
        assert!(space.vma_at(a.offset(600 * 4096)).is_none(), "padding");
        assert_eq!(space.vma_at(b.offset((4 << 20) - 1)).unwrap().start, b);
        assert_eq!(space.vma_at(c.offset(3 * 65536 - 1)).unwrap().start, c);
        assert!(space.vma_at(c.offset(3 * 65536)).is_none());
        assert!(space.vma_at(VirtAddr::new(0x1000)).is_none(), "below 1 GiB");

        space.munmap(&mut alloc, b).unwrap();
        assert!(space.vma_at(b).is_none());
        assert_eq!(space.vma_at(a).unwrap().start, a);
        assert_eq!(space.vma_at(c).unwrap().start, c);
        assert_eq!(space.vmas().count(), 2);
    }

    #[test]
    fn regions_have_distinct_page_sizes() {
        let (mut space, mut alloc, _) = setup();
        let small = space
            .mmap_anonymous(&mut alloc, 4, PageSize::Small4K, NodeId(0))
            .unwrap();
        let large = space
            .mmap_anonymous(&mut alloc, 2, PageSize::Large2M, NodeId(0))
            .unwrap();
        assert!(large.is_aligned(PageSize::Large2M));
        assert_eq!(space.vma_at(small).unwrap().page_size, PageSize::Small4K);
        assert_eq!(space.vma_at(large).unwrap().page_size, PageSize::Large2M);
        assert!(space.translate(large.offset(3 << 20)).is_some());
    }
}
