//! Virtual-memory substrate for the memif reproduction.
//!
//! Everything the memif driver and the Linux-migration baseline need
//! from the kernel's memory manager, rebuilt as a library:
//!
//! * [`addr`] — virtual addresses and the three page sizes of the
//!   evaluation (4 KiB / 64 KiB / 2 MiB);
//! * [`pte`] — page-table entries with the *young* bit that carries
//!   memif's lightweight race detection (§5.2), Linux migration entries,
//!   and the write-watch bit of proceed-and-recover mode;
//! * [`pagetable`] — a three-level radix table with the *gang page
//!   lookup* of §5.1 (vertical descent once, horizontal neighbor steps
//!   after) and the PTE compare-and-swap of §5.2;
//! * [`alloc`] — per-node buddy frame allocation over bitmap free
//!   lists, with a flat frame table (refcounts, order) per node;
//! * [`tlb`] — a software TLB model for flush accounting;
//! * [`space`] — address spaces: VMAs behind a 2 MiB radix directory,
//!   eager and lazy anonymous mappings, CPU access semantics (young
//!   clearing, dirty marking), and fault types.
//!
//! Cost charging is deliberately *not* done here: operations return step
//! counts ([`pagetable::WalkStats`], [`tlb::TlbStats`]) and the drivers
//! charge the [`memif_hwsim::CostModel`] prices at their call sites, so
//! the same mechanism serves both the baseline and memif with their
//! respective designs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod alloc;
pub mod pagetable;
pub mod pte;
pub mod space;
pub mod tlb;

pub use addr::{PageSize, VirtAddr};
pub use alloc::{AllocError, FrameAllocator, FrameInfo};
pub use pagetable::{PageTable, TableError, WalkStats};
pub use pte::Pte;
pub use space::{
    AccessKind, AddressSpace, AllocPolicy, Fault, MmError, Populate, ScanOutcome, Vma,
};
pub use tlb::{Tlb, TlbStats};
