//! `rt_pipeline`: `memif-rt` on real threads.
//!
//! One producer (the calling thread) keeps 32 single-page replications
//! in flight between two registered 64 MiB host windows, visiting the
//! source pages in a seed-permuted order; the runtime's driver thread
//! serves them. Everything here is host time: the red-blue CASes, the
//! wake-table mutex and the kick handshake run on real atomics.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use memif_lockfree::{MovReq, MoveStatus};
use memif_rt::{Backend, MemBackend, MoveDesc, MoveFuture, Rt};

use crate::metrics::percentile;
use crate::rng::Rng;
use crate::{scaled, trace, Round};

const PAGE_SHIFT: u8 = 12;
const PAGE: u64 = 1 << PAGE_SHIFT;
const WINDOW_BYTES: u64 = 64 << 20;
const SRC: u64 = 0x1_0000_0000;
const DST: u64 = 0x2_0000_0000;
const IN_FLIGHT: usize = 32;
const QUEUE_SLOTS: usize = 64;
/// Destination pages compared with their source after each round.
const SAMPLED_PAGES: usize = 256;

pub struct RtPipeline {
    moves: u64,
}

/// Lets the benchmark keep a handle on the backend it gives the runtime,
/// to read the windows back afterwards.
struct Shared(Arc<MemBackend>);

impl Backend for Shared {
    fn execute(&self, req: &MovReq) -> (MoveStatus, u64) {
        self.0.execute(req)
    }
}

/// Host CPU time consumed so far by every thread of this process, ns.
fn process_cpu_ns() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .flatten()
                .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
                .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0)
}

impl RtPipeline {
    /// 400,000 moves per round at full size.
    pub fn new(scale: f64) -> Self {
        RtPipeline {
            moves: scaled(400_000, scale),
        }
    }

    pub fn round(&self, seed: u64, _traced: bool) -> Round {
        let setup = Instant::now();
        let rt = Rt::new();
        let backend = Arc::new(MemBackend::new());
        backend.register(SRC, WINDOW_BYTES);
        backend.register(DST, WINDOW_BYTES);
        let pages = (WINDOW_BYTES / PAGE) as usize;
        let mut fill = Rng::new(seed, 1);
        let mut page = vec![0u8; PAGE as usize];
        for p in 0..pages as u64 {
            for word in page.chunks_exact_mut(8) {
                word.copy_from_slice(&fill.next_u64().to_le_bytes());
            }
            backend.write(SRC + p * PAGE, &page);
        }
        let order = Rng::new(seed, 2).permutation(pages);
        let dev = rt.open(QUEUE_SLOTS, Shared(Arc::clone(&backend)));
        let setup_s = setup.elapsed().as_secs_f64();

        let mut problems = Vec::new();
        let mut lat_ns = Vec::with_capacity(self.moves as usize);
        let mut wait = |(fut, at, cookie): (MoveFuture, Instant, u64)| {
            let c = trace::span("rt.wait", || Rt::block_on(fut));
            lat_ns.push(at.elapsed().as_nanos() as u64);
            if c.status != MoveStatus::Done || c.user_data != cookie || c.bytes != PAGE {
                problems.push(format!("move {cookie} completed as {c:?}"));
            }
        };
        let cpu = process_cpu_ns();
        let start = Instant::now();
        let mut inflight = VecDeque::with_capacity(IN_FLIGHT);
        for i in 0..self.moves {
            if inflight.len() == IN_FLIGHT {
                wait(inflight.pop_front().expect("window full"));
            }
            let p = u64::from(order[i as usize % pages]);
            let desc = MoveDesc::replicate(SRC + p * PAGE, DST + p * PAGE, 1, PAGE_SHIFT)
                .with_user_data(i);
            let at = Instant::now();
            let fut = trace::span("rt.submit", || dev.move_async(desc));
            inflight.push_back((fut, at, i));
        }
        while let Some(entry) = inflight.pop_front() {
            wait(entry);
        }
        let host_s = start.elapsed().as_secs_f64();
        let cpu_s = process_cpu_ns().saturating_sub(cpu) as f64 / 1e9;

        let stats = dev.stats();
        if stats.submitted != self.moves || stats.completed != self.moves || stats.failed != 0 {
            problems.push(format!("{} moves sent, runtime saw {stats:?}", self.moves));
        }
        if stats.kicks + stats.syscall_free != stats.submitted {
            problems.push(format!("kick accounting lost submissions: {stats:?}"));
        }
        let visited = pages.min(self.moves as usize);
        let mut pick = Rng::new(seed, 3);
        for _ in 0..SAMPLED_PAGES.min(visited) {
            let p = u64::from(order[pick.below(visited as u64) as usize]);
            if backend.read(DST + p * PAGE, PAGE) != backend.read(SRC + p * PAGE, PAGE) {
                problems.push(format!("destination page {p} differs from its source"));
            }
        }
        drop(dev);
        drop(rt); // joins the driver thread

        Round {
            setup_s,
            host_s,
            attempted: self.moves,
            failed: stats.failed,
            clock: vec![
                percentile(&mut lat_ns, 0.50) as f64 / 1e3,
                percentile(&mut lat_ns, 0.99) as f64 / 1e3,
                cpu_s / host_s,
            ],
            simulated: false,
            counters: vec![
                ("rt.kicks", stats.kicks as f64),
                (
                    "rt.syscall_free_share",
                    stats.syscall_free as f64 / stats.submitted.max(1) as f64,
                ),
            ],
            problems,
        }
    }
}
