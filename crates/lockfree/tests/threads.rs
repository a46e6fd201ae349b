//! M-producer × 1-consumer cookie stress under real `std::thread`
//! contention (ISSUE 9 satellite).
//!
//! Complements `stress.rs`: where those tests hammer individual queue
//! operations, these drive the *whole submission shape the futures
//! front-end uses* — M producers pushing uniquely-cookied requests
//! through the full §4.4 red-blue protocol against one drainer — across
//! several M values and seeded interleavings (per-thread LCG-jittered
//! backoffs), asserting the io_uring-style correlation invariant the
//! front-end relies on: every cookie surfaces exactly once, no cookie
//! is lost, no cookie is duplicated, and every slot returns home.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use memif_lockfree::{Color, MovReq, QueueId, Region};

/// Deterministic per-thread jitter: a seeded LCG decides how often a
/// producer yields between submissions, so each (M, seed) pair explores
/// a different — but reproducible on a quiet machine — interleaving
/// envelope.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

fn req(cookie: u64) -> MovReq {
    MovReq {
        id: cookie,
        user_data: cookie,
        nr_pages: 1,
        page_shift: 12,
        ..MovReq::default()
    }
}

/// One full run: `producers` threads push `per_producer` uniquely
/// cookied requests through staging (flushing and "kicking" per the
/// red-blue protocol when they observe blue); one consumer drains
/// submission + staging and recolors blue when idle. Returns the
/// multiset of cookies the consumer saw and the kick count.
fn run_mpsc(producers: u64, per_producer: u64, seed: u64) -> (HashMap<u64, u64>, u64) {
    let region = Arc::new(Region::new(64).unwrap());
    let total = producers * per_producer;
    let kicks = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let mut seen: HashMap<u64, u64> = HashMap::new();

    std::thread::scope(|s| {
        // The consumer: the driver-thread analogue.
        let consumer = {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut seen: HashMap<u64, u64> = HashMap::new();
                let mut drained = 0u64;
                loop {
                    let mut moved = false;
                    while let Some(d) = region.dequeue(QueueId::Submission).unwrap() {
                        *seen.entry(d.req.user_data).or_default() += 1;
                        region.free_slot(d.slot).unwrap();
                        drained += 1;
                        moved = true;
                    }
                    while let Some(d) = region.dequeue(QueueId::Staging).unwrap() {
                        *seen.entry(d.req.user_data).or_default() += 1;
                        region.free_slot(d.slot).unwrap();
                        drained += 1;
                        moved = true;
                    }
                    if !moved {
                        let _ = region.set_color(QueueId::Staging, Color::Blue);
                        if stop.load(Ordering::Acquire) && drained == total {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                seen
            })
        };

        let mut handles = Vec::new();
        for p in 0..producers {
            let region = Arc::clone(&region);
            let kicks = Arc::clone(&kicks);
            handles.push(s.spawn(move || {
                let mut rng = Lcg::new(seed ^ (p << 32) ^ p);
                for i in 0..per_producer {
                    let cookie = p * per_producer + i;
                    let slot = loop {
                        match region.alloc_slot() {
                            Ok(s) => break s,
                            Err(_) => std::thread::yield_now(),
                        }
                    };
                    let color = region
                        .enqueue(QueueId::Staging, slot, &req(cookie))
                        .unwrap();
                    if color == Color::Blue {
                        loop {
                            while let Some(d) = region.dequeue(QueueId::Staging).unwrap() {
                                region.enqueue(QueueId::Submission, d.slot, &d.req).unwrap();
                            }
                            match region.set_color(QueueId::Staging, Color::Red) {
                                Err(_) => continue,
                                Ok(Color::Red) => break,
                                Ok(Color::Blue) => {
                                    kicks.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                    }
                    // Seeded jitter: stretch some gaps so flush windows,
                    // back-pressure stalls, and queue-color transitions
                    // interleave differently per (M, seed).
                    for _ in 0..(rng.next() % 4) {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        seen = consumer.join().unwrap();
    });

    assert_eq!(region.stats().free, 64, "every slot returned home");
    (seen, kicks.load(Ordering::Relaxed))
}

/// The tentpole invariant across producer counts and seeds: exactly-once
/// cookie delivery through the shared queues under real contention.
#[test]
fn cookies_exactly_once_across_producer_counts() {
    for &producers in &[1u64, 4, 8] {
        for seed in [1u64, 7, 42] {
            let per_producer = 2_000u64;
            let (seen, kicks) = run_mpsc(producers, per_producer, seed);
            let total = producers * per_producer;
            assert_eq!(
                seen.len() as u64,
                total,
                "M={producers} seed={seed}: lost cookies"
            );
            for (cookie, count) in &seen {
                assert_eq!(
                    *count, 1,
                    "M={producers} seed={seed}: cookie {cookie} delivered {count} times"
                );
            }
            assert!(
                kicks >= 1,
                "M={producers} seed={seed}: at least one kick-start"
            );
            assert!(
                kicks <= total,
                "M={producers} seed={seed}: more kicks than submissions"
            );
        }
    }
}

/// Same shape on a sharded region: producers pinned to shards (as
/// region-affinity routing pins requests), still exactly-once per
/// cookie with the consumer round-robining shards.
#[test]
fn sharded_cookies_exactly_once() {
    let shards = 4usize;
    let producers = 8u64;
    let per_producer = 1_500u64;
    let total = producers * per_producer;
    let region = Arc::new(Region::new_sharded(64, shards).unwrap());

    std::thread::scope(|s| {
        for p in 0..producers {
            let region = Arc::clone(&region);
            s.spawn(move || {
                let shard = p as usize % shards;
                let mut rng = Lcg::new(p + 1);
                for i in 0..per_producer {
                    let cookie = p * per_producer + i;
                    let slot = loop {
                        match region.alloc_slot() {
                            Ok(s) => break s,
                            Err(_) => std::thread::yield_now(),
                        }
                    };
                    region
                        .enqueue_sharded(QueueId::Staging, shard, slot, &req(cookie))
                        .unwrap();
                    for _ in 0..(rng.next() % 3) {
                        std::hint::spin_loop();
                    }
                }
            });
        }
        let region = Arc::clone(&region);
        s.spawn(move || {
            let mut seen: HashMap<u64, u64> = HashMap::new();
            let mut drained = 0u64;
            let mut shard = 0usize;
            while drained < total {
                match region.dequeue_sharded(QueueId::Staging, shard).unwrap() {
                    Some(d) => {
                        *seen.entry(d.req.user_data).or_default() += 1;
                        region.free_slot(d.slot).unwrap();
                        drained += 1;
                    }
                    None => {
                        shard = (shard + 1) % shards;
                        std::hint::spin_loop();
                    }
                }
            }
            assert_eq!(seen.len() as u64, total, "lost cookies across shards");
            assert!(seen.values().all(|&c| c == 1), "duplicated cookie");
        });
    });
    assert_eq!(region.stats().free, 64);
}
