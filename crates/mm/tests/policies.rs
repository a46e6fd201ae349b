//! NUMA allocation policies and demand paging.

use memif_hwsim::{NodeId, PhysMem, Topology};
use memif_mm::{
    AccessKind, AddressSpace, AllocPolicy, Fault, FrameAllocator, MmError, PageSize, Populate,
    VirtAddr,
};

fn setup() -> (AddressSpace, FrameAllocator, Topology) {
    let mut topo = Topology::keystone_ii();
    topo.complete_boot();
    let alloc = FrameAllocator::new(&topo);
    (AddressSpace::new(), alloc, topo)
}

fn node_of(topo: &Topology, space: &AddressSpace, va: VirtAddr) -> NodeId {
    topo.node_of_addr(space.translate(va).unwrap()).unwrap()
}

#[test]
fn interleave_round_robins_pages() {
    let (mut space, mut alloc, topo) = setup();
    let policy = AllocPolicy::Interleave(vec![NodeId(0), NodeId(1)]);
    let va = space
        .mmap_with(&mut alloc, 8, PageSize::Small4K, policy, Populate::Eager)
        .unwrap();
    for i in 0..8u64 {
        let expect = NodeId((i % 2) as u16);
        assert_eq!(
            node_of(&topo, &space, va.offset(i * 4096)),
            expect,
            "page {i}"
        );
    }
}

#[test]
fn interleave_falls_back_within_the_set() {
    let (mut space, mut alloc, topo) = setup();
    // Exhaust the 6 MiB fast node first.
    let hog = space
        .mmap_anonymous(&mut alloc, 1_536, PageSize::Small4K, NodeId(1))
        .unwrap();
    let _ = hog;
    let policy = AllocPolicy::Interleave(vec![NodeId(1), NodeId(0)]);
    let va = space
        .mmap_with(&mut alloc, 4, PageSize::Small4K, policy, Populate::Eager)
        .unwrap();
    for i in 0..4u64 {
        assert_eq!(
            node_of(&topo, &space, va.offset(i * 4096)),
            NodeId(0),
            "fallback to DDR"
        );
    }
}

/// Maps one region under `Interleave(vec![])` with `populate` after a
/// one-page region, and checks that the mapping is refused and leaves
/// the regions and the allocator as they were. Returns the space, the
/// allocator and the address the refused region would have started at.
fn refuse_empty_interleave(populate: Populate) -> (AddressSpace, FrameAllocator, VirtAddr) {
    let (mut space, mut alloc, _) = setup();
    let first = space
        .mmap_anonymous(&mut alloc, 1, PageSize::Small4K, NodeId(0))
        .unwrap();
    let vmas: Vec<_> = space.vmas().copied().collect();
    let free = |alloc: &FrameAllocator| -> Vec<u64> {
        alloc
            .nodes()
            .into_iter()
            .map(|n| alloc.free_bytes(n))
            .collect()
    };
    let (live, free_before) = (alloc.live_frames(), free(&alloc));
    let empty = AllocPolicy::Interleave(Vec::new());
    assert_eq!(
        space.mmap_with(&mut alloc, 4, PageSize::Small4K, empty, populate),
        Err(MmError::EmptyNodeSet)
    );
    assert!(space.vmas().copied().eq(vmas));
    assert_eq!(alloc.live_frames(), live);
    assert_eq!(free(&alloc), free_before);
    (space, alloc, first.offset(4096))
}

#[test]
fn an_eager_interleave_over_no_nodes_is_refused() {
    refuse_empty_interleave(Populate::Eager);
}

#[test]
fn a_lazy_interleave_over_no_nodes_is_refused() {
    refuse_empty_interleave(Populate::Lazy);
}

#[test]
fn a_refused_lazy_interleave_leaves_nothing_to_fault_in() {
    let (mut space, mut alloc, next) = refuse_empty_interleave(Populate::Lazy);
    assert_eq!(
        space.access(next, AccessKind::Write),
        Err(Fault::Unmapped(next))
    );
    assert_eq!(
        space.handle_demand_fault(&mut alloc, next),
        Err(MmError::NoSuchRegion(next))
    );
    assert_eq!(space.vmas().count(), 1);
    assert_eq!(alloc.live_frames(), 1);
}

#[test]
fn preferred_falls_back_bind_does_not() {
    let (mut space, mut alloc, topo) = setup();
    let hog = space
        .mmap_anonymous(&mut alloc, 1_536, PageSize::Small4K, NodeId(1))
        .unwrap();
    let _ = hog;
    // Bind to the full node fails...
    assert!(space
        .mmap_with(
            &mut alloc,
            1,
            PageSize::Small4K,
            AllocPolicy::Bind(NodeId(1)),
            Populate::Eager
        )
        .is_err());
    // ...Preferred succeeds on the other node.
    let va = space
        .mmap_with(
            &mut alloc,
            1,
            PageSize::Small4K,
            AllocPolicy::Preferred(NodeId(1)),
            Populate::Eager,
        )
        .unwrap();
    assert_eq!(node_of(&topo, &space, va), NodeId(0));
}

#[test]
fn lazy_mapping_populates_on_touch() {
    let (mut space, mut alloc, topo) = setup();
    let live_before = alloc.live_frames();
    let va = space
        .mmap_with(
            &mut alloc,
            8,
            PageSize::Small4K,
            AllocPolicy::Bind(NodeId(0)),
            Populate::Lazy,
        )
        .unwrap();
    assert_eq!(alloc.live_frames(), live_before, "no backing yet");
    assert!(space.translate(va).is_none());

    // First touch faults; handling it installs the page; retry works.
    let fault = space.access(va, AccessKind::Write).unwrap_err();
    assert_eq!(fault, Fault::DemandPage(va));
    space.handle_demand_fault(&mut alloc, va).unwrap();
    assert!(space.access(va, AccessKind::Write).is_ok());
    assert_eq!(
        alloc.live_frames(),
        live_before + 1,
        "exactly the touched page"
    );
    assert_eq!(node_of(&topo, &space, va), NodeId(0));

    // Untouched pages stay unbacked.
    assert!(space.translate(va.offset(4 * 4096)).is_none());
}

#[test]
fn lazy_interleave_places_by_page_index() {
    let (mut space, mut alloc, topo) = setup();
    let policy = AllocPolicy::Interleave(vec![NodeId(0), NodeId(1)]);
    let va = space
        .mmap_with(&mut alloc, 4, PageSize::Small4K, policy, Populate::Lazy)
        .unwrap();
    // Touch pages out of order; placement still follows the index.
    for &i in &[3u64, 0, 2, 1] {
        let page = va.offset(i * 4096);
        space.handle_demand_fault(&mut alloc, page).unwrap();
        assert_eq!(
            node_of(&topo, &space, page),
            NodeId((i % 2) as u16),
            "page {i}"
        );
    }
}

#[test]
fn demand_fault_outside_any_region_errors() {
    let (mut space, mut alloc, _) = setup();
    assert!(space
        .handle_demand_fault(&mut alloc, VirtAddr::new(0x1234_0000))
        .is_err());
}

#[test]
fn byte_io_through_lazy_region() {
    let (mut space, mut alloc, _) = setup();
    let mut phys = PhysMem::new();
    let va = space
        .mmap_with(
            &mut alloc,
            4,
            PageSize::Small4K,
            AllocPolicy::Bind(NodeId(0)),
            Populate::Lazy,
        )
        .unwrap();
    // Kernel-style loop: fault, resolve, retry.
    let data = vec![7u8; 3 * 4096];
    let mut wrote = false;
    for _ in 0..8 {
        match space.write_bytes(&mut phys, va, &data) {
            Ok(()) => {
                wrote = true;
                break;
            }
            Err(Fault::DemandPage(p)) => space.handle_demand_fault(&mut alloc, p).unwrap(),
            Err(other) => panic!("unexpected fault {other}"),
        }
    }
    assert!(wrote);
    let mut back = vec![0u8; data.len()];
    loop {
        match space.read_bytes(&phys, va, &mut back) {
            Ok(()) => break,
            Err(Fault::DemandPage(p)) => space.handle_demand_fault(&mut alloc, p).unwrap(),
            Err(other) => panic!("unexpected fault {other}"),
        }
    }
    assert_eq!(back, data);
}
