//! The paper's evaluation claims, as executable assertions.
//!
//! Each claims-table entry pins the qualitative results of one figure,
//! table or experiment (the *shape*: who wins, by roughly what factor,
//! where the crossovers fall) on its own published sweep. Exact paper
//! magnitudes live in EXPERIMENTS.md; the entries' tolerances are loose
//! enough to survive re-calibration but tight enough to catch a
//! regression that would invalidate the reproduction. The paper's
//! headline claims keep a named test that runs their figure's entry;
//! the one claim with no sweep of its own, §5.2's flush-free Release,
//! is a test here.

use memif::{Memif, MemifConfig, MoveSpec, NodeId, PageSize, Sim, System};
use memif_bench::claims::{Report, CLAIMS};

/// Runs one claims-table entry by ID; it panics, naming the entry, if a
/// gate fails.
fn check(id: &str) -> Report {
    CLAIMS
        .iter()
        .find(|c| c.id == id)
        .unwrap_or_else(|| panic!("no claims-table entry {id}"))
        .check()
}

/// §2.2: Linux's page migration moves well under 10% of the bandwidth
/// (0.25–0.35 GB/s on ARM); gated by the `sec2` entry's sweep.
#[test]
fn claim_linux_migration_is_slow() {
    check("sec2");
}

/// Figure 6: memif costs under 1x (and over 0.5x) of Linux's CPU time
/// for 4 KB x 64, and over 20x less for 2 MB x 4; gated by `fig6`.
#[test]
fn claim_cpu_usage_reductions() {
    check("fig6");
}

/// Figure 7: one ioctl per burst, and memif's mean completion latency
/// well below batched mbind (over 50% lower); gated by `fig7`.
#[test]
fn claim_latency_shape() {
    check("fig7");
}

/// Figure 8: migration beats Linux by the published factors at each
/// page size, and replication keeps up with migration; gated by `fig8`.
#[test]
fn claim_throughput_shape() {
    check("fig8");
}

/// Table 4: each streaming kernel gains 10–55% from asynchronous
/// prefetch; gated by `tab4`.
#[test]
fn claim_streaming_gains() {
    check("tab4");
}

/// §5.2: success-path Release does no TLB flushing (semi-final PTEs
/// never enter the TLB), halving the flush count vs prevention.
#[test]
fn claim_release_needs_no_flush() {
    let mut sys = System::keystone_ii();
    let mut sim = Sim::new();
    let space = sys.new_space();
    let memif = Memif::open(&mut sys, space, MemifConfig::default()).unwrap();
    let va = sys.mmap(space, 32, PageSize::Small4K, NodeId(0)).unwrap();
    let before = sys.space(space).tlb().stats().page_flushes;
    memif
        .submit(
            &mut sys,
            &mut sim,
            MoveSpec::migrate(va, 32, PageSize::Small4K, NodeId(1)),
        )
        .unwrap();
    sim.run(&mut sys);
    assert!(memif
        .retrieve_completed(&mut sys)
        .unwrap()
        .unwrap()
        .status
        .is_ok());
    assert_eq!(sys.space(space).tlb().stats().page_flushes - before, 32);
}

/// The evaluation (§2.2, Figures 5–8, Table 4, A1–A5, E8–E10,
/// E12–E19): every claims-table entry whose gates read only the
/// simulated clock runs its published sweep and asserts every gate at
/// its exact bound. A failure names the entry. E17's wheel ≥ 5× heap
/// gate reads the host clock, so it runs only in the optimized `claims`
/// binary.
#[test]
fn claims_table_holds() {
    for claim in CLAIMS.iter().filter(|c| !c.host_timed) {
        let report = claim.check();
        assert!(
            !report.tables.is_empty() || !report.note.is_empty(),
            "claim {} reported nothing",
            claim.id
        );
    }
}
