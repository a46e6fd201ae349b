//! The metric catalogue and the statistics the report uses.
//!
//! Every simulated workload reports every end-to-end metric of
//! [`END_TO_END`], and every workload every per-layer metric, so a name
//! means the same thing on all of them; a per-layer metric whose code a
//! workload never runs reads 0 there. `BENCHMARK.json` declares these
//! lists for the simulated workloads.

/// End-to-end metrics `(name, unit)` of the simulated workloads, as a
/// user of the system sees them: the simulator's host cost, and the
/// modelled machine's throughput and CPU use. The modelled machine's
/// times are the per-layer `sim.*` values: on the stream workloads they
/// read the same for every seed, which an end-to-end time may not.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_gbps", "GB/s"),
    ("sim_cpu_util", "cores"),
];

/// End-to-end metrics of `rt_pipeline`, which has no simulated clock:
/// its latency and CPU use are host measurements.
pub const RT_END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("host_lat_p50_us", "us"),
    ("host_lat_p99_us", "us"),
    ("host_cpu_util", "cores"),
];

/// Spans of the traced run. Each yields `<name>.ns`, the mean host self
/// time per call, and `<name>.n`, the calls per round. The flow network
/// has no span of its own: it delivers every DMA completion inside its
/// tick, so its time is part of `driver.complete`.
pub const SPANS: &[&str] = &[
    "driver.issue",
    "driver.complete",
    "driver.release",
    "dma.launch",
    "api.submit",
    "api.retrieve",
    "api.poll",
    "mm.access",
    "policy.epoch",
    "policy.drain",
    "rt.submit",
    "rt.wait",
];

/// Per-layer metrics other than the spans' `.ns`/`.n` pairs.
pub const LAYER_VALUES: &[(&str, &str)] = &[
    // the modelled machine's times, exact for one seed
    ("sim.wall_ms", "ms"),
    ("sim.lat_p50_us", "us"),
    ("sim.lat_p99_us", "us"),
    // sched (hwsim::sim)
    ("sched.events", "count"),
    ("sched.cancelled", "count"),
    ("sched.peak_pending", "count"),
    ("sched.events_per_host_s", "1/s"),
    ("sched.step_ns", "ns"),
    // driver (core::driver)
    ("driver.ioctls", "count"),
    ("driver.interrupts", "count"),
    ("driver.polled", "count"),
    ("driver.wakeups", "count"),
    ("driver.batched", "count"),
    ("driver.deferred", "count"),
    ("driver.rearm_saved", "count"),
    ("driver.retries", "count"),
    ("driver.notify_sim_ns", "ns"),
    // dma / flow (hwsim::dma, hwsim::flow)
    ("dma.descriptors_written", "count"),
    ("dma.writes_saved", "count"),
    ("dma.segments_coalesced", "count"),
    ("dma.reuse_ratio", "ratio"),
    ("dma.cfg_sim_ns", "ns"),
    ("dma.copy_sim_ns", "ns"),
    ("dma.configure_ns", "ns"),
    // mm
    ("mm.prep_sim_ns", "ns"),
    ("mm.remap_sim_ns", "ns"),
    ("mm.release_sim_ns", "ns"),
    ("mm.gang_lookup_ns_per_page", "ns"),
    ("mm.walk_lookup_ns_per_page", "ns"),
    // api (core::api)
    ("api.interface_sim_ns", "ns"),
    // lockfree
    ("lockfree.submit_ns", "ns"),
    ("lockfree.mpsc_2t_ns", "ns"),
    // journal
    ("journal.records", "count"),
    ("journal.unsealed", "count"),
    // qos
    ("qos.parked", "count"),
    ("qos.readmitted", "count"),
    ("qos.bully_gb", "GB"),
    ("qos.worst_good_p99_us", "us"),
    // policy
    ("policy.epochs", "count"),
    ("policy.pages_scanned", "count"),
    ("policy.promotions", "count"),
    ("policy.demotions", "count"),
    ("policy.cascades", "count"),
    ("policy.dropped", "count"),
    ("policy.moves_failed", "count"),
    ("tier.fast_share", "ratio"),
    ("meter.codec_ms", "ms"),
    // rt
    ("rt.kicks", "count"),
    ("rt.syscall_free_share", "ratio"),
    // the tracing itself
    ("trace.overhead_pct", "%"),
];

/// The median (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The nearest-rank `q`-quantile of `samples` (reordered in place).
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut [7], 0.99), 7);
    }
}
