//! # memif — programming heterogeneous memory asynchronously
//!
//! A library reproduction of *memif: Towards Programming Heterogeneous
//! Memory Asynchronously* (Lin & Liu, ASPLOS 2016): a protected OS
//! service for asynchronous, DMA-accelerated memory move — replication
//! and migration of virtual memory regions across the pseudo-NUMA nodes
//! of a heterogeneous memory hierarchy.
//!
//! The paper's prototype is a Linux kernel module on a TI KeyStone II
//! SoC. This crate rebuilds the complete service against simulated
//! hardware ([`memif_hwsim`]) and a from-scratch memory manager
//! ([`memif_mm`]), with the user/kernel interface running on real
//! lock-free structures ([`memif_lockfree`]), including the paper's
//! novel red–blue queue. All design elements are implemented:
//!
//! * the asynchronous user API — submit without batching, retrieve
//!   without syscalls, sleep in `poll()` (§4.1);
//! * the `SubmitRequest` flush protocol over the red–blue staging queue,
//!   with the single `ioctl(MOV_ONE)` kick-start (§4.4);
//! * gang page lookup (§5.1);
//! * lightweight race *detection* via semi-final PTEs and a young-bit
//!   CAS, plus the proceed-and-recover alternative and a Linux-style
//!   prevention mode for ablation (§5.2);
//! * minimal DMA engine reconfiguration through descriptor-chain reuse
//!   (§5.3);
//! * the three-path driver execution — syscall, interrupt, kernel
//!   thread — with the interrupt/polling mode switch at 512 KB (§5.4).
//!
//! Start with [`System`] (the simulated machine) and [`Memif`] (the
//! per-process handle); the crate-level example on [`Memif`] shows the
//! complete open → submit → poll → retrieve flow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod chain;
mod config;
mod device;
mod driver;
mod error;
mod event;
mod journal;
mod log;
mod recover;
mod system;

pub use api::{Completion, CompletionStatus, Memif, MoveSpec, ReqId};
pub use chain::{ChainStep, MoveChain};
pub use config::{MemifConfig, RaceMode};
pub use device::{DeviceId, DriverStats, MemifDevice};
pub use driver::fault::handle_write_fault;
pub use error::MemifError;
pub use event::{HookId, SimEvent};
pub use journal::{JournalMilestone, JournalPage, JournalRecord, MoveJournal, RecoveryReport};
pub use log::{CompletionLog, CompletionRecord};
pub use system::{Resources, SpaceId, System, TierUsage, TraceEntry};

// Re-export the building blocks user code needs at the API boundary.
pub use memif_hwsim::{
    Brownout, Context, FaultPlan, FaultStats, NodeId, Phase, Sim, SimDuration, SimTime, TierRank,
};
pub use memif_lockfree::{FailReason, MoveKind, MoveStatus};
pub use memif_mm::{PageSize, VirtAddr};
pub use memif_qos::{DrrState, QosRegistry, TenantConfig, TenantId, TenantStats};
