//! Benchmark harness for the memif reproduction.
//!
//! Each table and figure of the paper's evaluation has a binary here:
//!
//! | target | experiment |
//! |---|---|
//! | `sec2_microbench` | §2.2 Linux page-migration throughput (ARM + Xeon) |
//! | `fig5_timeline`   | Figure 5: example driver timeline across kernel contexts |
//! | `fig6_breakdown`  | Figure 6: per-request time breakdown + CPU usage |
//! | `fig7_latency`    | Figure 7: completion latency, memif vs batched mbind |
//! | `fig8_throughput` | Figure 8: move throughput across page granularities |
//! | `tab4_streaming`  | Table 4: streaming workloads on the mini runtime |
//! | `tab3_sloc`       | Table 3 analogue: source-line inventory |
//! | `ablation`        | A1–A4: descriptor reuse, gang lookup, race mode, poll threshold |
//! | `future_platform` | E9: §6.7's forward-looking prediction, tested |
//! | `multi_tenant_scaling` | N concurrent applications on one device |
//! | `claims [ID…]`    | the claims table: E10, E12–E19, each with its asserted gates |
//!
//! The claims table lives in [`claims`]: one entry per extension
//! experiment, each returning its tables and asserting its gates.
//! `claims` with no ID runs every entry; `tests/paper_claims.rs` runs
//! every entry that does not read the host clock.
//!
//! Criterion micro-benches (`cargo bench`) cover the real data
//! structures: the red–blue queue, gang lookup, DMA configuration, and
//! an end-to-end simulated move.
//!
//! All binaries print aligned tables and drop CSVs into `./results`
//! (override with `MEMIF_RESULTS_DIR`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod harness;
pub mod table;

pub use harness::{
    bigfast_topology, crash_migrate_nvm, hugefast_topology, nvm_topology, probe_linux_once,
    probe_memif_once, stream, stream_linux, CrashOutcome, ProbeResult, StreamResult, StreamSpec,
};
pub use table::{mbs, results_dir, Table};
