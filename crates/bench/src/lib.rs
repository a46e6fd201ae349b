//! Benchmark harness for the memif reproduction.
//!
//! Each table and figure of the paper's evaluation has a binary here:
//!
//! | target | experiment |
//! |---|---|
//! | `sec2_microbench` | §2.2 Linux page-migration throughput (ARM + Xeon) |
//! | `fig6_breakdown`  | Figure 6: per-request time breakdown + CPU usage |
//! | `fig7_latency`    | Figure 7: completion latency, memif vs batched mbind |
//! | `fig8_throughput` | Figure 8: move throughput across page granularities |
//! | `tab4_streaming`  | Table 4: streaming workloads on the mini runtime |
//! | `tab3_sloc`       | Table 3 analogue: source-line inventory |
//! | `ablation`        | A1–A4: descriptor reuse, gang lookup, race mode, poll threshold |
//! | `e10_degraded`    | E10: throughput under injected DMA faults (degraded mode) |
//! | `e12_batching`    | E12: request batching + segment coalescing on the issue path |
//! | `e13_issue_scaling` | E13: aggregate move rate vs issue shards |
//! | `e14_policy`      | E14: hot/cold placement — none vs sync vs async daemon |
//! | `e15_recovery`    | E15: journal overhead + crash/recover exactly-once convergence |
//!
//! Criterion micro-benches (`cargo bench`) cover the real data
//! structures: the red–blue queue, gang lookup, DMA configuration, and
//! an end-to-end simulated move.
//!
//! All binaries print aligned tables and drop CSVs into `./results`
//! (override with `MEMIF_RESULTS_DIR`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod table;

pub use harness::{
    bigfast_topology, crash_migrate_nvm, hugefast_topology, nvm_topology, probe_linux_once,
    probe_memif_once, stream, stream_linux, CrashOutcome, ProbeResult, StreamResult, StreamSpec,
};
pub use table::{mbs, results_dir, Table};
