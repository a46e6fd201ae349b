//! Real-thread stress tests for the lock-free region.
//!
//! These exercise the structures under genuine preemptive concurrency:
//! multi-producer/multi-consumer traffic, the full submit protocol with a
//! competing "kernel" drainer, and slot-recycling churn designed to
//! provoke ABA if the tag discipline were broken.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use memif_lockfree::{Color, MovReq, QueueId, Region};

fn req(id: u64) -> MovReq {
    MovReq {
        id,
        nr_pages: 1,
        page_shift: 12,
        ..MovReq::default()
    }
}

/// N producers push unique ids through alloc→staging; M consumers drain
/// staging→free. Every id must come out exactly once, and all slots must
/// return to the free list.
#[test]
fn mpmc_staging_roundtrip() {
    let region = Arc::new(Region::new(64).unwrap());
    let producers = 4;
    let consumers = 3;
    let per_producer = 5_000u64;
    let produced_total = producers as u64 * per_producer;
    let consumed = Arc::new(AtomicU64::new(0));
    let done_producing = Arc::new(AtomicBool::new(false));

    let mut seen: Vec<HashSet<u64>> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for p in 0..producers {
            let region = Arc::clone(&region);
            s.spawn(move || {
                for i in 0..per_producer {
                    let id = (p as u64) * per_producer + i;
                    // Spin until a slot is free: back-pressure, not failure.
                    let slot = loop {
                        match region.alloc_slot() {
                            Ok(s) => break s,
                            Err(_) => std::hint::spin_loop(),
                        }
                    };
                    region.enqueue(QueueId::Staging, slot, &req(id)).unwrap();
                }
            });
        }
        for _ in 0..consumers {
            let region = Arc::clone(&region);
            let consumed = Arc::clone(&consumed);
            let done = Arc::clone(&done_producing);
            handles.push(s.spawn(move || {
                let mut ids = HashSet::new();
                loop {
                    match region.dequeue(QueueId::Staging).unwrap() {
                        Some(d) => {
                            assert!(ids.insert(d.req.id), "duplicate id {}", d.req.id);
                            region.free_slot(d.slot).unwrap();
                            consumed.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            if done.load(Ordering::Acquire)
                                && consumed.load(Ordering::Relaxed) == produced_total
                            {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
                ids
            }));
        }
        // Wait for producers by joining them implicitly at scope end is not
        // possible before consumers exit, so track via a flag thread.
        let region2 = Arc::clone(&region);
        let done = Arc::clone(&done_producing);
        let consumed2 = Arc::clone(&consumed);
        s.spawn(move || {
            // Producers finish when all slots are home or all ids consumed.
            loop {
                if consumed2.load(Ordering::Relaxed) + region2.stats().staging as u64
                    >= produced_total
                {
                    // All ids are at least enqueued; producers are done or
                    // nearly done. Signal consumers to finish the drain.
                    done.store(true, Ordering::Release);
                    break;
                }
                std::thread::yield_now();
            }
        });
        for h in handles {
            seen.push(h.join().unwrap());
        }
    });

    assert_eq!(consumed.load(Ordering::Relaxed), produced_total);
    let mut all = HashSet::new();
    for set in seen {
        for id in set {
            assert!(all.insert(id), "id {id} consumed twice across threads");
        }
    }
    assert_eq!(all.len() as u64, produced_total);
    assert_eq!(region.stats().free, 64);
}

/// The full SubmitRequest protocol of §4.4 under contention: many app
/// threads submit; whichever observes BLUE flushes staging→submission and
/// recolors; a kernel thread drains submission and recolors back to BLUE
/// when idle. Checks that every request reaches the kernel exactly once
/// and that the "only one flusher calls ioctl" guarantee holds.
#[test]
fn submit_protocol_single_flusher() {
    let region = Arc::new(Region::new(128).unwrap());
    let app_threads = 4;
    let per_thread = 3_000u64;
    let total = app_threads as u64 * per_thread;
    let kicks = Arc::new(AtomicU64::new(0)); // ioctl(MOV_ONE) calls
    let drained = Arc::new(AtomicU64::new(0));
    let stop_kernel = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Kernel thread: whenever kicked (or periodically), drain
        // submission AND staging; when both empty, recolor staging BLUE.
        {
            let region = Arc::clone(&region);
            let drained = Arc::clone(&drained);
            let stop = Arc::clone(&stop_kernel);
            s.spawn(move || {
                let mut ids = HashSet::new();
                loop {
                    let mut moved = false;
                    while let Some(d) = region.dequeue(QueueId::Submission).unwrap() {
                        assert!(ids.insert(d.req.id), "kernel saw id {} twice", d.req.id);
                        region.free_slot(d.slot).unwrap();
                        drained.fetch_add(1, Ordering::Relaxed);
                        moved = true;
                    }
                    // Kernel also drains staging directly while RED.
                    while let Some(d) = region.dequeue(QueueId::Staging).unwrap() {
                        assert!(ids.insert(d.req.id), "kernel saw id {} twice", d.req.id);
                        region.free_slot(d.slot).unwrap();
                        drained.fetch_add(1, Ordering::Relaxed);
                        moved = true;
                    }
                    if !moved {
                        // Queues drained: hand flushing duty back to apps.
                        let _ = region.set_color(QueueId::Staging, Color::Blue);
                        if stop.load(Ordering::Acquire) && drained.load(Ordering::Relaxed) == total
                        {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }

        let mut producers = Vec::new();
        for t in 0..app_threads {
            let region = Arc::clone(&region);
            let kicks = Arc::clone(&kicks);
            producers.push(s.spawn(move || {
                for i in 0..per_thread {
                    let id = (t as u64) * per_thread + i;
                    let slot = loop {
                        match region.alloc_slot() {
                            Ok(s) => break s,
                            Err(_) => std::thread::yield_now(),
                        }
                    };
                    // SubmitRequest (§4.4).
                    let color = region.enqueue(QueueId::Staging, slot, &req(id)).unwrap();
                    if color == Color::Blue {
                        loop {
                            // flush:
                            while let Some(d) = region.dequeue(QueueId::Staging).unwrap() {
                                region.enqueue(QueueId::Submission, d.slot, &d.req).unwrap();
                            }
                            match region.set_color(QueueId::Staging, Color::Red) {
                                Err(_) => continue,      // queue refilled: re-flush
                                Ok(Color::Red) => break, // someone else kicked
                                Ok(Color::Blue) => {
                                    kicks.fetch_add(1, Ordering::Relaxed); // ioctl(MOV_ONE)
                                    break;
                                }
                            }
                        }
                    }
                }
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        stop_kernel.store(true, Ordering::Release);
    });

    assert_eq!(drained.load(Ordering::Relaxed), total);
    assert!(
        kicks.load(Ordering::Relaxed) >= 1,
        "at least one kick-start syscall"
    );
    assert!(
        kicks.load(Ordering::Relaxed) <= total,
        "never more kicks than submissions"
    );
    assert_eq!(region.stats().free, 128);
}

/// Rapid recycling through free list and two queues from many threads —
/// the pattern most likely to expose ABA on the link words.
#[test]
fn aba_churn() {
    let region = Arc::new(Region::new(8).unwrap()); // tiny arena: maximal reuse
    let threads = 8;
    let iters = 20_000u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let region = Arc::clone(&region);
            s.spawn(move || {
                for i in 0..iters {
                    if let Ok(slot) = region.alloc_slot() {
                        let id = (t as u64) << 32 | i;
                        let q = if i % 2 == 0 {
                            QueueId::Staging
                        } else {
                            QueueId::Submission
                        };
                        region.enqueue(q, slot, &req(id)).unwrap();
                    }
                    let q = if i % 3 == 0 {
                        QueueId::Staging
                    } else {
                        QueueId::Submission
                    };
                    if let Some(d) = region.dequeue(q).unwrap() {
                        region.free_slot(d.slot).unwrap();
                    }
                }
            });
        }
    });
    // Drain what's left and account for every slot.
    let mut in_queues = 0;
    for q in [QueueId::Staging, QueueId::Submission] {
        while let Some(d) = region.dequeue(q).unwrap() {
            region.free_slot(d.slot).unwrap();
            in_queues += 1;
        }
    }
    let _ = in_queues;
    assert_eq!(
        region.stats().free,
        8,
        "all slots accounted for after churn"
    );
}

/// N producers against ONE dequeuer on a single staging queue. Each
/// producer tags its requests `(producer << 48) | seq` with `seq`
/// strictly increasing; the queue is MPSC-linearizable, so the dequeuer
/// must observe every producer's tags in order (per-producer FIFO) even
/// though the global interleave is arbitrary. Slot counts are conserved:
/// every slot returns to the free list.
#[test]
fn mpsc_per_producer_fifo() {
    let region = Arc::new(Region::new(64).unwrap());
    let producers = 4u64;
    let per_producer = 10_000u64;
    let total = producers * per_producer;

    std::thread::scope(|s| {
        for p in 0..producers {
            let region = Arc::clone(&region);
            s.spawn(move || {
                for seq in 0..per_producer {
                    let slot = loop {
                        match region.alloc_slot() {
                            Ok(s) => break s,
                            Err(_) => std::hint::spin_loop(),
                        }
                    };
                    region
                        .enqueue(QueueId::Staging, slot, &req(p << 48 | seq))
                        .unwrap();
                }
            });
        }
        // The single dequeuer: checks per-producer order as it drains.
        let region = Arc::clone(&region);
        s.spawn(move || {
            let mut next_seq = vec![0u64; producers as usize];
            let mut drained = 0u64;
            while drained < total {
                match region.dequeue(QueueId::Staging).unwrap() {
                    Some(d) => {
                        let p = (d.req.id >> 48) as usize;
                        let seq = d.req.id & 0xffff_ffff_ffff;
                        assert_eq!(
                            seq, next_seq[p],
                            "producer {p} reordered: got seq {seq}, expected {}",
                            next_seq[p]
                        );
                        next_seq[p] += 1;
                        region.free_slot(d.slot).unwrap();
                        drained += 1;
                    }
                    None => std::hint::spin_loop(),
                }
            }
            for (p, n) in next_seq.iter().enumerate() {
                assert_eq!(*n, per_producer, "producer {p} short-counted");
            }
        });
    });
    assert_eq!(
        region.stats().free,
        64,
        "every slot returned to the free list"
    );
}

/// The sharded variant: producers are pinned to shards (as region-affine
/// routing pins requests), one dequeuer round-robins the shards. FIFO
/// must hold per producer because each producer's traffic stays on its
/// shard; slots are shared across shards through the one free list.
#[test]
fn sharded_mpsc_per_producer_fifo() {
    let shards = 2usize;
    let region = Arc::new(Region::new_sharded(32, shards).unwrap());
    let producers = 4u64;
    let per_producer = 5_000u64;
    let total = producers * per_producer;

    std::thread::scope(|s| {
        for p in 0..producers {
            let region = Arc::clone(&region);
            s.spawn(move || {
                let shard = p as usize % shards;
                for seq in 0..per_producer {
                    let slot = loop {
                        match region.alloc_slot() {
                            Ok(s) => break s,
                            Err(_) => std::hint::spin_loop(),
                        }
                    };
                    region
                        .enqueue_sharded(QueueId::Staging, shard, slot, &req(p << 48 | seq))
                        .unwrap();
                }
            });
        }
        let region = Arc::clone(&region);
        s.spawn(move || {
            let mut next_seq = vec![0u64; producers as usize];
            let mut drained = 0u64;
            let mut shard = 0usize;
            while drained < total {
                match region.dequeue_sharded(QueueId::Staging, shard).unwrap() {
                    Some(d) => {
                        let p = (d.req.id >> 48) as usize;
                        let seq = d.req.id & 0xffff_ffff_ffff;
                        assert_eq!(seq, next_seq[p], "producer {p} reordered on shard {shard}");
                        next_seq[p] += 1;
                        region.free_slot(d.slot).unwrap();
                        drained += 1;
                    }
                    None => {
                        shard = (shard + 1) % shards;
                        std::hint::spin_loop();
                    }
                }
            }
        });
    });
    assert_eq!(region.stats().free, 32);
}

/// Concurrent set_color vs enqueue: the red-blue entanglement must never
/// let a color change land on a non-empty queue, and every element must
/// carry the color current at its enqueue.
#[test]
fn color_entanglement_under_contention() {
    let region = Arc::new(Region::new(32).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Flipper: toggles the color whenever the queue is empty.
        {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut color = Color::Red;
                while !stop.load(Ordering::Acquire) {
                    if region.set_color(QueueId::Staging, color).is_ok() {
                        color = color.flipped();
                    }
                    std::hint::spin_loop();
                }
            });
        }
        // Producer/consumer pair hammering the queue.
        {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                for i in 0..30_000u64 {
                    let slot = loop {
                        match region.alloc_slot() {
                            Ok(s) => break s,
                            Err(_) => std::thread::yield_now(),
                        }
                    };
                    let enq_color = region.enqueue(QueueId::Staging, slot, &req(i)).unwrap();
                    let d = loop {
                        if let Some(d) = region.dequeue(QueueId::Staging).unwrap() {
                            break d;
                        }
                    };
                    // Single-producer/single-consumer on this queue (the
                    // flipper only touches empty queues), so FIFO gives us
                    // back our own element and the colors must agree.
                    assert_eq!(d.req.id, i);
                    assert_eq!(d.color, enq_color, "color torn from queue op at i={i}");
                    region.free_slot(d.slot).unwrap();
                }
                stop.store(true, Ordering::Release);
            });
        }
    });
}
