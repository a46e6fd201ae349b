//! Whole-stack scenario: several subsystems composed the way a real
//! deployment would use them — a `memif-policy` placement daemon
//! manages fast-memory residency for a job's regions, while a streaming
//! workload runs on the same machine through its own memif instance.

use memif::{Memif, MemifConfig, NodeId, PageSize, Sim, SimDuration, SimTime, System, TierRank};
use memif_mm::AccessKind;
use memif_policy::{PolicyConfig, PolicyDaemon};
use memif_runtime::{Placement, StreamConfig, StreamRuntime};
use memif_workloads::stream_triad;

const REGION_PAGES: u32 = 256; // 1 MiB per region

#[test]
fn pool_and_streaming_coexist() {
    let mut sys = System::keystone_ii();
    let mut sim = Sim::new();

    // Tenant A: a job whose four 1 MiB regions start in slow memory, with
    // a placement daemon on its own device managing their residency.
    let job = sys.new_space();
    let regions: Vec<_> = (0..4u8)
        .map(|i| {
            let vaddr = sys
                .mmap(job, REGION_PAGES, PageSize::Small4K, NodeId(0))
                .unwrap();
            sys.write_user(job, vaddr, &vec![i + 1; 1 << 20]).unwrap();
            vaddr
        })
        .collect();
    let job_memif = Memif::open(&mut sys, job, MemifConfig::default()).unwrap();
    let cfg = PolicyConfig::default();
    let epoch = cfg.epoch;
    let daemon = PolicyDaemon::launch(&mut sys, &mut sim, job_memif, job, cfg);
    for &vaddr in &regions {
        daemon.track(&sys, vaddr, REGION_PAGES, PageSize::Small4K);
    }
    // The job touches every page once, so the first epoch finds every
    // region hot and promotes what fits under the fast node's watermark.
    for &vaddr in &regions {
        for p in 0..u64::from(REGION_PAGES) {
            sys.space_mut(job)
                .access(vaddr.offset(p * 4096), AccessKind::Read)
                .unwrap();
        }
    }

    // Tenant B: a STREAM.triad run through the prefetch runtime (its own
    // device and space), its buffers sharing the fast node with the job.
    let streamer = sys.new_space();
    let stream_memif = Memif::open(&mut sys, streamer, MemifConfig::default()).unwrap();
    let config = StreamConfig {
        placement: Placement::MemifPrefetch,
        total_input: 16 << 20,
        ..StreamConfig::default()
    };
    let rt = StreamRuntime::launch(
        &mut sys,
        &mut sim,
        streamer,
        Some(stream_memif),
        config,
        stream_triad(),
    );

    // Two epochs while the stream runs, then stop the daemon and drain.
    let two_epochs = SimTime::ZERO + SimDuration::from_ns(2 * epoch.as_ns());
    sim.run_until(&mut sys, two_epochs);
    daemon.stop();
    sim.run(&mut sys);

    // Stream finished and produced sane throughput despite sharing the
    // engine with the daemon's moves.
    let report = rt.report();
    assert_eq!(report.input_bytes, 16 << 20);
    assert!(
        report.traffic_gbps > 1.0,
        "stream made progress: {:.2}",
        report.traffic_gbps
    );

    // The daemon is quiescent, it promoted regions into fast memory, its
    // bookkeeping matches the page tables, and all data is intact.
    assert!(!daemon.busy());
    let stats = daemon.stats();
    assert!(stats.promotions > 0, "{stats:?}");
    assert_eq!(stats.moves_failed, 0, "{stats:?}");
    let mut fast = 0;
    for (i, &vaddr) in regions.iter().enumerate() {
        let node = sys
            .space(job)
            .translate(vaddr)
            .and_then(|pa| sys.node_of(pa));
        let tier = daemon.resident_tier(vaddr);
        assert_eq!(
            tier == Some(TierRank(0)),
            node == Some(NodeId(1)),
            "region {i}: daemon says {tier:?}, page table says {node:?}"
        );
        fast += u64::from(node == Some(NodeId(1)));
        let mut buf = vec![0u8; 1 << 20];
        sys.read_user(job, vaddr, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == i as u8 + 1), "region {i} intact");
    }
    assert_eq!(fast, stats.promotions, "every promoted region is resident");
    // The stream's buffers share the fast node, so its watermark holds
    // at least one hot region back.
    assert!(stats.dropped > 0, "{stats:?}");

    // Devices stayed isolated: each instance served only its own work.
    let job_dev = sys.device(job_memif.device()).unwrap();
    assert_eq!(job_dev.stats.completed, stats.retrieved);
    assert_eq!(job_dev.stats.failed, 0);
    let stream_dev = sys.device(stream_memif.device()).unwrap();
    assert_eq!(stream_dev.stats.completed, report.fills);
}
