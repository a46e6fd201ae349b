//! The EDMA3-model DMA engine: descriptors, chain reuse, execution.

mod chain;
mod engine;
mod param;
mod tc;

pub use chain::{ChainError, ChainId, ChainManager, ChainPlan};
pub use engine::{
    segments_done, AbortedTransfer, CompletionDelivery, ConfiguredTransfer, DmaEngine, DmaOutcome,
    DmaStats, LaunchTicket, SgSegment, TransferId,
};
pub use param::{ParamSet, NULL_LINK, NUM_PARAM_SETS, PARAM_FIELDS};
pub use tc::TcScheduler;
