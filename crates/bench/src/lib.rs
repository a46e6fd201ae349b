//! Benchmark harness for the memif reproduction.
//!
//! The paper's evaluation and this reproduction's extensions are one
//! table, [`claims`]: one entry per figure, table or experiment, each
//! running its published sweep, returning its tables, and asserting its
//! gates. Two binaries run on top of it:
//!
//! | target | what it runs |
//! |---|---|
//! | `claims [ID…] [--huge]` | the claims table, all entries or the named ones |
//! | `tab3_sloc` | Table 3 analogue: source-line inventory of the tree |
//!
//! | claims ID | experiment |
//! |---|---|
//! | `sec2` | §2.2 Linux page-migration throughput (ARM + Xeon) |
//! | `fig5` | Figure 5: example driver timeline across kernel contexts |
//! | `fig6` | Figure 6: per-request time breakdown + CPU usage |
//! | `fig7` | Figure 7: completion latency, memif vs batched mbind |
//! | `fig8` | Figure 8: move throughput across page granularities (`--huge`: a million regions) |
//! | `tab4` | Table 4: streaming workloads on the mini runtime |
//! | `a1`–`a5` | ablations: descriptor reuse, gang lookup, race mode, poll threshold, pipeline depth |
//! | `e8` | N concurrent applications on one device |
//! | `e9` | §6.7's future-platform prediction, tested |
//! | `e10`, `e12`–`e19` | the extension experiments (`e17 --huge`: a million requests) |
//!
//! `tests/paper_claims.rs` runs every entry that does not read the host
//! clock under `cargo test`.
//!
//! Criterion micro-benches (`cargo bench`) cover the real data
//! structures: the red–blue queue, gang lookup, DMA configuration, and
//! an end-to-end simulated move.
//!
//! Both binaries print aligned tables and drop CSVs into `./results`
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
