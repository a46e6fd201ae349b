//! Hardware substrate simulator for the memif reproduction.
//!
//! The memif paper evaluates on a TI KeyStone II SoC: four Cortex-A15
//! cores, 6 MB of on-chip SRAM next to 8 GB of DDR3, and the EDMA3 DMA
//! engine. That hardware is simulated here as four cooperating pieces:
//!
//! * [`sim`] — a deterministic discrete-event engine with a nanosecond
//!   virtual clock; kernel contexts, interrupts, and the DMA engine are
//!   events against a caller-defined world type.
//! * [`cost`] — the calibrated per-operation cost model (page-table
//!   walks, PTE/TLB updates, descriptor writes, syscalls, ...), with the
//!   paper's KeyStone II numbers as the primary profile.
//! * [`flow`] — a fluid model of bandwidth contention: DMA transfers and
//!   CPU streaming share each memory node's measured bandwidth.
//! * [`phys`] / [`topology`] — sparse byte-backed physical memory and the
//!   pseudo-NUMA abstraction over heterogeneous banks, including the
//!   "SRAM hidden until after boot" bring-up quirk of §6.1.
//! * [`dma`] — the EDMA3-model engine: 512 twelve-field transfer
//!   descriptors in uncached PaRAM, scatter-gather chaining, and the
//!   chain-reuse optimization of §5.3.
//! * [`hash`] — the seedless integer-key hasher behind every per-page
//!   and per-request map.
//!
//! Byte copies are real (backed by [`phys::PhysMem`]), so higher layers
//! can verify data integrity and observe genuine race outcomes; only
//! *time* is simulated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod dma;
pub mod fault;
pub mod flow;
pub mod hash;
pub mod meter;
pub mod phys;
pub mod sim;
pub mod time;
pub mod topology;

pub use cost::CostModel;
pub use dma::{CompletionDelivery, DmaOutcome, LaunchTicket, TcScheduler, TransferId};
pub use fault::{Brownout, FaultInjector, FaultPlan, FaultStats, TransferFault};
pub use flow::{FlowId, FlowNet, FlowSystem, ResourceId, Route};
pub use meter::{Context, Measurement, Phase, PhaseBreakdown, UsageMeter};
pub use phys::{PhysAddr, PhysMem};
pub use sim::{EventId, EventWorld, Sim};
pub use time::{SimDuration, SimTime};
pub use topology::{MemoryKind, MemoryNode, NodeId, TierRank, Topology, TopologyError};
