//! The per-region footprint gate: mapping many single-page regions
//! costs at most `MAX_BYTES_PER_REGION` bytes of heap each, all of
//! `memif-mm`'s tables together: the `Vma` records, the policy table,
//! the frame table, the page table and the VMA directory.
//!
//! A test-local global allocator tracks the calling thread's live heap
//! bytes while armed (allocations add their size, frees subtract it,
//! a reallocation adds the difference), so tests running on other
//! harness threads never leak into the count. Vectors that grow by
//! doubling count their spare capacity too: that is heap the tables
//! hold.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use memif_hwsim::{NodeId, Topology};
use memif_mm::{AddressSpace, FrameAllocator, PageSize};

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = LIVE.try_with(|live| live.set(live.get() + delta));
        }
    });
}

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only adds to a thread-local counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        unsafe { Heap.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        unsafe { Heap.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        unsafe { Heap.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        unsafe { Heap.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Live heap bytes `f` leaves behind on this thread.
fn live_bytes_after<T>(f: impl FnOnce() -> T) -> (T, i64) {
    LIVE.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, LIVE.with(Cell::get))
}

/// Single-page regions the gate maps.
const REGIONS: u32 = 65_536;

/// Most heap bytes one mapped single-page region may hold: a 16-byte
/// `Vma`, a 4-byte frame-table slot, an 8-byte page-table entry and a
/// 4-byte directory slot come to 32, plus the tables' interior nodes.
const MAX_BYTES_PER_REGION: f64 = 36.0;

#[test]
fn single_page_regions_cost_at_most_36_bytes_each() {
    let mut topo = Topology::keystone_ii();
    topo.complete_boot();
    let mut alloc = FrameAllocator::new(&topo);
    let mut space = AddressSpace::new();
    let ((), bytes) = live_bytes_after(|| {
        for _ in 0..REGIONS {
            space
                .mmap_anonymous(&mut alloc, 1, PageSize::Small4K, NodeId(0))
                .unwrap();
        }
    });
    assert_eq!(space.vmas().count(), REGIONS as usize);
    assert_eq!(alloc.live_frames(), REGIONS as usize);
    let per_region = bytes as f64 / f64::from(REGIONS);
    assert!(
        per_region <= MAX_BYTES_PER_REGION,
        "{REGIONS} single-page regions hold {bytes} heap bytes, \
         {per_region:.2} per region (at most {MAX_BYTES_PER_REGION})"
    );
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    let (v, bytes) = live_bytes_after(|| std::hint::black_box(Vec::<u64>::with_capacity(3)));
    assert_eq!(bytes, 24);
    let ((), freed) = live_bytes_after(|| drop(v));
    assert_eq!(freed, -24);
}
