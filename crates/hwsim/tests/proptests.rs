//! Property-based tests for the hardware simulator: event ordering in
//! the DES, byte conservation in the flow network, and chain-manager
//! descriptor accounting.

use memif_hwsim::dma::ChainManager;
use memif_hwsim::{EventWorld, FlowNet, Route, Sim, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Events always execute in (time, insertion) order, regardless of
    /// the order they were scheduled in.
    #[test]
    fn des_executes_in_time_order(times in proptest::collection::vec(0u64..1_000_000, 1..100)) {
        struct W {
            fired: Vec<u64>,
        }
        impl EventWorld for W {
            type Event = u64;
            fn dispatch(&mut self, sim: &mut Sim<Self>, t: u64) {
                assert_eq!(sim.now().as_ns(), t, "event fires at its scheduled instant");
                self.fired.push(t);
            }
        }
        let mut sim: Sim<W> = Sim::new();
        let mut w = W { fired: Vec::new() };
        for &t in &times {
            sim.schedule_at(SimTime::from_ns(t), t);
        }
        sim.run(&mut w);
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&w.fired, &sorted, "stable time order");
        prop_assert_eq!(sim.executed(), times.len() as u64);
    }

    /// Cancelling a random subset removes exactly those events.
    #[test]
    fn des_cancellation_is_exact(
        times in proptest::collection::vec(0u64..1_000, 1..60),
        cancel_mask in proptest::collection::vec(any::<bool>(), 60),
    ) {
        struct W {
            fired: Vec<usize>,
        }
        impl EventWorld for W {
            type Event = usize;
            fn dispatch(&mut self, _sim: &mut Sim<Self>, i: usize) {
                self.fired.push(i);
            }
        }
        let mut sim: Sim<W> = Sim::new();
        let mut w = W { fired: Vec::new() };
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| sim.schedule_at(SimTime::from_ns(t), i))
            .collect();
        let mut expect: Vec<(u64, usize)> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i] {
                sim.cancel(*id);
            } else {
                expect.push((times[i], i));
            }
        }
        sim.run(&mut w);
        expect.sort_unstable();
        let expect_order: Vec<usize> = expect.into_iter().map(|(_, i)| i).collect();
        prop_assert_eq!(w.fired, expect_order);
    }

    /// The fluid flow network conserves bytes: whatever a flow was
    /// created with is exactly what gets delivered by its completion
    /// (within the ±1-ns rounding of completion times), and resource
    /// sharing never exceeds capacity.
    #[test]
    fn flownet_conserves_bytes(
        flows in proptest::collection::vec((1u64..1_000_000, 1u32..50), 1..20),
    ) {
        let mut net = FlowNet::new();
        let r = net.add_resource("bus", 4.0);
        let mut now = SimTime::ZERO;
        let mut expected_total = 0f64;
        // Stagger the starts.
        for (i, &(bytes, gap)) in flows.iter().enumerate() {
            net.start(now, Route::new(r), bytes, 100.0);
            expected_total += bytes as f64;
            now += memif_hwsim::SimDuration::from_ns(u64::from(gap) * 100);
            let _ = i;
        }
        // Drain to completion.
        let mut guard = 0;
        while let Some(t) = net.next_completion(now) {
            now = t.max(now);
            net.take_finished(now);
            guard += 1;
            prop_assert!(guard < 10_000, "flow drain diverged");
        }
        prop_assert_eq!(net.active(), 0);
        let delivered = net.delivered_bytes(r);
        // Each completion can over-deliver at most (n_flows) bytes due to
        // ceil-rounding of its completion instant.
        let slack = flows.len() as f64 * flows.len() as f64 + 8.0;
        prop_assert!(
            (delivered - expected_total).abs() <= slack,
            "delivered {delivered} vs expected {expected_total}"
        );
        // Aggregate rate never exceeded capacity: delivered/elapsed <= 4.0.
        if now > SimTime::ZERO {
            let rate = delivered / now.as_ns() as f64;
            prop_assert!(rate <= 4.0 + 1e-6, "rate {rate} exceeds capacity");
        }
    }

    /// Chain-manager accounting: descriptors are conserved across any
    /// plan/release sequence, plans never hand out overlapping
    /// descriptors concurrently, and reuse never exceeds what was
    /// previously configured.
    #[test]
    fn chain_manager_conserves_descriptors(
        ops in proptest::collection::vec((1usize..40, prop_oneof![Just(4096u64), Just(65536u64)], any::<bool>()), 1..60),
    ) {
        let pool = 128;
        let mut m = ChainManager::new(pool);
        let mut busy: Vec<(memif_hwsim::dma::ChainId, Vec<u16>)> = Vec::new();
        let mut busy_descs = 0usize;

        for (n, per, release_one) in ops {
            if release_one {
                if let Some((chain, descs)) = busy.pop() {
                    m.release(chain);
                    busy_descs -= descs.len();
                }
                continue;
            }
            match m.plan(n, per) {
                Ok(plan) => {
                    prop_assert_eq!(plan.len(), n);
                    let descs = m.descriptors(plan.chain).to_vec();
                    prop_assert_eq!(descs.len(), n);
                    // No overlap with any concurrently busy chain.
                    for (_, other) in &busy {
                        for d in &descs {
                            prop_assert!(!other.contains(d), "descriptor {d} double-booked");
                        }
                    }
                    // No duplicates within the plan.
                    let mut sorted = descs.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    prop_assert_eq!(sorted.len(), n);
                    busy_descs += n;
                    prop_assert!(busy_descs <= pool, "over-committed the PaRAM");
                    busy.push((plan.chain, descs));
                }
                Err(_) => {
                    // Legal only when the pool genuinely cannot serve n.
                    prop_assert!(
                        busy_descs + n > pool,
                        "spurious failure: {busy_descs} busy, asked {n}, pool {pool}"
                    );
                }
            }
        }
    }
}
