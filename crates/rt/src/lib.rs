//! `memif-rt`: a real-thread, futures-based front-end for memif.
//!
//! Everywhere else in this repository the lock-free red-blue queues are
//! exercised by the single-threaded discrete-event simulation. This
//! crate drives the *same* [`memif_lockfree::Region`] structures with
//! actual OS threads: M producer threads call [`RtDevice::move_async`],
//! which submits through the full §4.4 protocol (enqueue on the staging
//! queue; whoever observes **blue** flushes staging → submission,
//! recolors red, and the single recolor winner makes the kick-start
//! "syscall"), and one driver thread — the kernel-thread analogue —
//! drains the queues, executes each request against a [`Backend`], and
//! completes the matching [`MoveFuture`] through a wake table keyed by
//! `(device, req_id)`. Completions are correlated by cookie exactly as
//! io_uring does, which is already the repo's identity model.
//!
//! The point is not to re-simulate hardware — the [`Backend`] here is a
//! plain memory copier — but to prove under genuine preemptive
//! contention what the DES can only show cooperatively: no lost or
//! duplicated completions, at most one kicker per red-blue transition,
//! and a syscall-free submission fast path that really is syscall-free
//! (counted, not assumed).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle;
use std::time::Duration;

use memif_lockfree::{Color, Dequeued, MovReq, MoveKind, MoveStatus, QueueId, Region};

/// Executes validated move requests for a device. The driver thread is
/// the only caller, so implementations need interior mutability only if
/// they are also inspected from other threads.
pub trait Backend: Send + Sync + 'static {
    /// Runs one request to its terminal status, returning the status
    /// and the bytes actually moved.
    fn execute(&self, req: &MovReq) -> (MoveStatus, u64);
}

/// A [`Backend`] over registered host-memory windows: replications copy
/// bytes between registered ranges, migrations validate their source
/// range (there is no page table to rewrite on the host). Any request
/// touching an unregistered byte completes `Invalid` — the same
/// semantic-error-as-completion model the simulated driver uses.
#[derive(Default)]
pub struct MemBackend {
    windows: Mutex<Vec<(u64, Vec<u8>)>>,
}

impl MemBackend {
    /// An empty backend; register windows before submitting.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `len` zeroed bytes at virtual base `base`. Windows must
    /// not overlap (checked).
    ///
    /// # Panics
    ///
    /// Panics if the new window overlaps a registered one.
    pub fn register(&self, base: u64, len: u64) {
        let mut windows = self.windows.lock().unwrap();
        assert!(
            windows
                .iter()
                .all(|(b, d)| base + len <= *b || b + d.len() as u64 <= base),
            "window [{base:#x}, +{len:#x}) overlaps a registered window"
        );
        windows.push((base, vec![0u8; len as usize]));
    }

    /// Writes `bytes` at `addr` (must lie inside one window).
    ///
    /// # Panics
    ///
    /// Panics if the range is not registered.
    pub fn write(&self, addr: u64, bytes: &[u8]) {
        let mut windows = self.windows.lock().unwrap();
        let (base, data) = windows
            .iter_mut()
            .find(|(b, d)| *b <= addr && addr + bytes.len() as u64 <= b + d.len() as u64)
            .expect("range registered");
        let off = (addr - *base) as usize;
        data[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Reads `len` bytes at `addr` (must lie inside one window).
    ///
    /// # Panics
    ///
    /// Panics if the range is not registered.
    #[must_use]
    pub fn read(&self, addr: u64, len: u64) -> Vec<u8> {
        let windows = self.windows.lock().unwrap();
        let (base, data) = windows
            .iter()
            .find(|(b, d)| *b <= addr && addr + len <= b + d.len() as u64)
            .expect("range registered");
        let off = (addr - *base) as usize;
        data[off..off + len as usize].to_vec()
    }

    fn covered(windows: &[(u64, Vec<u8>)], base: u64, len: u64) -> bool {
        windows
            .iter()
            .any(|(b, d)| *b <= base && base + len <= b + d.len() as u64)
    }
}

impl Backend for MemBackend {
    fn execute(&self, req: &MovReq) -> (MoveStatus, u64) {
        let len = req.len_bytes();
        if req.nr_pages == 0 {
            return (MoveStatus::Invalid, 0);
        }
        let mut windows = self.windows.lock().unwrap();
        if !Self::covered(&windows, req.src_base, len) {
            return (MoveStatus::Invalid, 0);
        }
        match req.kind {
            MoveKind::Migrate => (MoveStatus::Done, len),
            MoveKind::Replicate => {
                if !Self::covered(&windows, req.dst_base, len) {
                    return (MoveStatus::Invalid, 0);
                }
                let src: Vec<u8> = {
                    let (b, d) = windows
                        .iter()
                        .find(|(b, d)| {
                            *b <= req.src_base && req.src_base + len <= b + d.len() as u64
                        })
                        .expect("covered");
                    let off = (req.src_base - b) as usize;
                    d[off..off + len as usize].to_vec()
                };
                let (b, d) = windows
                    .iter_mut()
                    .find(|(b, d)| *b <= req.dst_base && req.dst_base + len <= b + d.len() as u64)
                    .expect("covered");
                let off = (req.dst_base - *b) as usize;
                d[off..off + len as usize].copy_from_slice(&src);
                (MoveStatus::Done, len)
            }
        }
    }
}

/// A move request as submitted to the runtime (the `MoveSpec` analogue;
/// the runtime assigns the request id).
#[derive(Debug, Clone, Copy)]
pub struct MoveDesc {
    /// Replication or migration.
    pub kind: MoveKind,
    /// Source virtual base.
    pub src_base: u64,
    /// Destination virtual base (replication only).
    pub dst_base: u64,
    /// Pages covered.
    pub nr_pages: u32,
    /// log2 of the page size.
    pub page_shift: u8,
    /// Cookie echoed back in the completion.
    pub user_data: u64,
}

impl MoveDesc {
    /// A replication of `nr_pages` pages from `src` to `dst`.
    #[must_use]
    pub fn replicate(src: u64, dst: u64, nr_pages: u32, page_shift: u8) -> Self {
        MoveDesc {
            kind: MoveKind::Replicate,
            src_base: src,
            dst_base: dst,
            nr_pages,
            page_shift,
            user_data: 0,
        }
    }

    /// A migration of `nr_pages` pages at `src` (validation-only on the
    /// host backend).
    #[must_use]
    pub fn migrate(src: u64, nr_pages: u32, page_shift: u8) -> Self {
        MoveDesc {
            kind: MoveKind::Migrate,
            src_base: src,
            dst_base: 0,
            nr_pages,
            page_shift,
            user_data: 0,
        }
    }

    /// Attaches a completion cookie.
    #[must_use]
    pub fn with_user_data(mut self, cookie: u64) -> Self {
        self.user_data = cookie;
        self
    }
}

/// A terminal completion delivered through a [`MoveFuture`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtCompletion {
    /// The runtime-assigned request id.
    pub req_id: u64,
    /// Terminal status.
    pub status: MoveStatus,
    /// The submission's cookie.
    pub user_data: u64,
    /// Bytes moved (0 for failures).
    pub bytes: u64,
}

/// Snapshot of the runtime's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests completed (any terminal status).
    pub completed: u64,
    /// Kick-start "syscalls": red-blue transitions won by a submitter
    /// (at most one per blue window, however many threads raced).
    pub kicks: u64,
    /// Submissions that needed no kick — the syscall-free fast path of
    /// §4.4: they observed **red**, or saw blue but lost the recolor to
    /// a thread that kicked. `kicks + syscall_free == submitted`.
    pub syscall_free: u64,
    /// Completions with a failure status.
    pub failed: u64,
}

#[derive(Default)]
struct WakeEntry {
    result: Option<RtCompletion>,
    waker: Option<Waker>,
}

struct DeviceShared {
    region: Region,
    backend: Box<dyn Backend>,
    next_req_id: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    kicks: AtomicU64,
    syscall_free: AtomicU64,
    failed: AtomicU64,
}

struct RtShared {
    devices: Mutex<Vec<Arc<DeviceShared>>>,
    /// The wake table: pending and unclaimed completions, keyed by
    /// `(device, req_id)`.
    wake: Mutex<HashMap<(usize, u64), WakeEntry>>,
    stop: AtomicBool,
    /// Kick-start handshake: `kicked` set by submitters (the modeled
    /// `ioctl(MOV_ONE)`), driver sleeps on the condvar when every queue
    /// is drained and blue.
    kicked: Mutex<bool>,
    kick_cv: Condvar,
}

impl RtShared {
    fn kick(&self) {
        *self.kicked.lock().unwrap() = true;
        self.kick_cv.notify_one();
    }
}

/// The runtime: owns the driver thread; devices are opened against it.
pub struct Rt {
    shared: Arc<RtShared>,
    driver: Option<JoinHandle<()>>,
}

impl Default for Rt {
    fn default() -> Self {
        Self::new()
    }
}

impl Rt {
    /// Starts the runtime and its driver thread.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn the driver thread.
    #[must_use]
    pub fn new() -> Self {
        let shared = Arc::new(RtShared {
            devices: Mutex::new(Vec::new()),
            wake: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            kicked: Mutex::new(false),
            kick_cv: Condvar::new(),
        });
        let driver_shared = Arc::clone(&shared);
        let driver = std::thread::Builder::new()
            .name("memif-rt-driver".into())
            .spawn(move || drive(&driver_shared))
            .expect("spawn driver thread");
        Rt {
            shared,
            driver: Some(driver),
        }
    }

    /// Opens a device: a fresh shared region with `queue_capacity`
    /// request slots, served by `backend`.
    ///
    /// # Panics
    ///
    /// Panics if the region cannot be built (capacity 0 or over the
    /// index limit).
    #[must_use]
    pub fn open(&self, queue_capacity: usize, backend: impl Backend) -> RtDevice {
        let dev = Arc::new(DeviceShared {
            region: Region::new(queue_capacity).expect("valid capacity"),
            backend: Box::new(backend),
            next_req_id: AtomicU64::new(1),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            kicks: AtomicU64::new(0),
            syscall_free: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        });
        let mut devices = self.shared.devices.lock().unwrap();
        devices.push(Arc::clone(&dev));
        RtDevice {
            shared: Arc::clone(&self.shared),
            dev,
            index: devices.len() - 1,
        }
    }

    /// Drives a [`MoveFuture`] (or any future) to completion on the
    /// calling thread, parking between polls.
    pub fn block_on<F: std::future::Future>(fut: F) -> F::Output {
        struct Unparker(std::thread::Thread);
        impl Wake for Unparker {
            fn wake(self: Arc<Self>) {
                self.0.unpark();
            }
        }
        let waker = Waker::from(Arc::new(Unparker(std::thread::current())));
        let mut cx = Context::from_waker(&waker);
        let mut fut = std::pin::pin!(fut);
        loop {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(out) => return out,
                Poll::Pending => std::thread::park(),
            }
        }
    }
}

impl Drop for Rt {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.kick();
        if let Some(driver) = self.driver.take() {
            let _ = driver.join();
        }
    }
}

/// Handle to an open device; cheap to clone and share across producer
/// threads.
#[derive(Clone)]
pub struct RtDevice {
    shared: Arc<RtShared>,
    dev: Arc<DeviceShared>,
    index: usize,
}

impl RtDevice {
    /// Submits a move and returns a poll-able future for its terminal
    /// completion.
    ///
    /// Submission runs the full §4.4 protocol on the shared region's
    /// red-blue staging queue: observing **red** means an active driver
    /// will pick the request up and no kick is needed (counted in
    /// [`RtStats::syscall_free`]); observing **blue** makes this thread
    /// flush staging → submission and race to recolor red, where the
    /// single winner pays the kick-start "syscall" (counted in
    /// [`RtStats::kicks`]; the losers count as syscall-free). Slot
    /// exhaustion is backpressure: the caller
    /// spins (yielding) until the driver frees a slot.
    ///
    /// # Panics
    ///
    /// Panics if the shared region fails validation (corruption), which
    /// the lock-free crate surfaces as errors on every operation.
    pub fn move_async(&self, desc: MoveDesc) -> MoveFuture {
        let req_id = self.dev.next_req_id.fetch_add(1, Ordering::Relaxed);
        let req = MovReq {
            id: req_id,
            kind: desc.kind,
            src_base: desc.src_base,
            dst_base: desc.dst_base,
            nr_pages: desc.nr_pages,
            page_shift: desc.page_shift,
            dst_node: 0,
            status: MoveStatus::Pending,
            user_data: desc.user_data,
            tenant: 0,
        };
        // Register the wake-table entry *before* the request becomes
        // visible to the driver, or the completion could race the
        // registration and be lost.
        self.shared
            .wake
            .lock()
            .unwrap()
            .insert((self.index, req_id), WakeEntry::default());

        let slot = loop {
            match self.dev.region.alloc_slot() {
                Ok(s) => break s,
                Err(_) => {
                    // All slots in flight: back-pressure. Make sure the
                    // driver is awake to drain, then yield.
                    self.shared.kick();
                    std::thread::yield_now();
                }
            }
        };
        self.dev.submitted.fetch_add(1, Ordering::Relaxed);
        let color = self
            .dev
            .region
            .enqueue(QueueId::Staging, slot, &req)
            .expect("region healthy");
        if color == Color::Blue {
            loop {
                while let Some(d) = self.dev.region.dequeue(QueueId::Staging).expect("region") {
                    self.dev
                        .region
                        .enqueue(QueueId::Submission, d.slot, &d.req)
                        .expect("region");
                }
                match self.dev.region.set_color(QueueId::Staging, Color::Red) {
                    Err(_) => continue, // refilled mid-flush: re-flush
                    Ok(Color::Red) => {
                        // Another thread won the recolor and kicked: this
                        // submission rode the syscall-free path after all.
                        self.dev.syscall_free.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Ok(Color::Blue) => {
                        self.dev.kicks.fetch_add(1, Ordering::Relaxed);
                        self.shared.kick(); // the ioctl(MOV_ONE) analogue
                        break;
                    }
                }
            }
        } else {
            self.dev.syscall_free.fetch_add(1, Ordering::Relaxed);
        }
        MoveFuture {
            shared: Arc::clone(&self.shared),
            key: (self.index, req_id),
        }
    }

    /// Submits and synchronously waits (convenience over
    /// [`Rt::block_on`]).
    pub fn move_blocking(&self, desc: MoveDesc) -> RtCompletion {
        Rt::block_on(self.move_async(desc))
    }

    /// Counter snapshot for this device.
    pub fn stats(&self) -> RtStats {
        RtStats {
            submitted: self.dev.submitted.load(Ordering::Relaxed),
            completed: self.dev.completed.load(Ordering::Relaxed),
            kicks: self.dev.kicks.load(Ordering::Relaxed),
            syscall_free: self.dev.syscall_free.load(Ordering::Relaxed),
            failed: self.dev.failed.load(Ordering::Relaxed),
        }
    }
}

/// A poll-able handle to one submitted move, completed by the driver
/// thread through the wake table.
pub struct MoveFuture {
    shared: Arc<RtShared>,
    key: (usize, u64),
}

impl MoveFuture {
    /// The runtime-assigned request id this future resolves.
    #[must_use]
    pub fn req_id(&self) -> u64 {
        self.key.1
    }
}

impl std::future::Future for MoveFuture {
    type Output = RtCompletion;

    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut wake = self.shared.wake.lock().unwrap();
        let entry = wake.get_mut(&self.key).expect("future polled after ready");
        if let Some(result) = entry.result {
            wake.remove(&self.key);
            Poll::Ready(result)
        } else {
            entry.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// The driver thread: the kernel-thread analogue. Drains submission and
/// staging for every open device, executes requests on the device
/// backend, posts completions into the wake table, and — once all
/// queues are drained — recolors staging **blue** (handing the flush
/// duty back to submitters) before sleeping until the next kick. A
/// recolor refused because the queue refilled keeps the driver
/// draining, so a submission that observed red is never stranded.
fn drive(shared: &Arc<RtShared>) {
    loop {
        let devices: Vec<Arc<DeviceShared>> = shared.devices.lock().unwrap().clone();
        let mut moved = false;
        let mut all_blue = true;
        for (index, dev) in devices.iter().enumerate() {
            let mut dev_moved = false;
            while let Some(d) = dev.region.dequeue(QueueId::Submission).expect("region") {
                complete_one(shared, dev, index, d);
                dev_moved = true;
            }
            while let Some(d) = dev.region.dequeue(QueueId::Staging).expect("region") {
                complete_one(shared, dev, index, d);
                dev_moved = true;
            }
            if dev_moved {
                moved = true;
            }
            // Both queues observed empty: recolor blue so the next
            // submitter flushes + kicks. Failure means a request raced
            // in — stay red and drain it on the next pass.
            if dev.region.set_color(QueueId::Staging, Color::Blue).is_err() {
                all_blue = false;
            }
        }
        if !moved && all_blue {
            let mut kicked = shared.kicked.lock().unwrap();
            if !*kicked {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                // Timed sleep: a belt-and-braces heartbeat against any
                // missed wakeup, exactly like the kernel thread's timed
                // polling sleeps.
                let (guard, _timeout) = shared
                    .kick_cv
                    .wait_timeout(kicked, Duration::from_millis(1))
                    .unwrap();
                kicked = guard;
            }
            *kicked = false;
        }
    }
}

fn complete_one(shared: &Arc<RtShared>, dev: &DeviceShared, index: usize, d: Dequeued) {
    let (status, bytes) = dev.backend.execute(&d.req);
    dev.region.free_slot(d.slot).expect("slot owned by driver");
    dev.completed.fetch_add(1, Ordering::Relaxed);
    if status.is_failure() {
        dev.failed.fetch_add(1, Ordering::Relaxed);
    }
    let completion = RtCompletion {
        req_id: d.req.id,
        status,
        user_data: d.req.user_data,
        bytes,
    };
    let waker = {
        let mut wake = shared.wake.lock().unwrap();
        let entry = wake.entry((index, d.req.id)).or_default();
        debug_assert!(
            entry.result.is_none(),
            "request {} completed twice",
            d.req.id
        );
        entry.result = Some(completion);
        entry.waker.take()
    };
    if let Some(w) = waker {
        w.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE_SHIFT: u8 = 12;
    const PAGE: u64 = 1 << PAGE_SHIFT;

    #[test]
    fn single_move_replicates_bytes() {
        let rt = Rt::new();
        let backend = MemBackend::new();
        backend.register(0x1000, 16 * PAGE);
        backend.register(0x100_000, 16 * PAGE);
        backend.write(0x1000, &[0xAB; 64]);
        let dev = rt.open(8, backend);
        let c = dev.move_blocking(MoveDesc::replicate(0x1000, 0x100_000, 4, PAGE_SHIFT));
        assert_eq!(c.status, MoveStatus::Done);
        assert_eq!(c.bytes, 4 * PAGE);
        let stats = dev.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn unregistered_range_is_invalid_not_a_panic() {
        let rt = Rt::new();
        let backend = MemBackend::new();
        backend.register(0x1000, 4 * PAGE);
        let dev = rt.open(8, backend);
        let c = dev.move_blocking(MoveDesc::migrate(0xDEAD_0000, 4, PAGE_SHIFT));
        assert_eq!(c.status, MoveStatus::Invalid);
        assert_eq!(dev.stats().failed, 1);
    }

    #[test]
    fn contended_producers_drain_exactly_once() {
        let rt = Rt::new();
        let backend = MemBackend::new();
        backend.register(0, 64 * PAGE);
        let dev = rt.open(16, backend); // fewer slots than requests: backpressure
        let producers = 8u64;
        let per_producer = 500u64;
        std::thread::scope(|s| {
            for p in 0..producers {
                let dev = dev.clone();
                s.spawn(move || {
                    for i in 0..per_producer {
                        let cookie = p * per_producer + i;
                        let c = dev.move_blocking(
                            MoveDesc::migrate(0, 1, PAGE_SHIFT).with_user_data(cookie),
                        );
                        assert_eq!(c.status, MoveStatus::Done);
                        assert_eq!(c.user_data, cookie);
                    }
                });
            }
        });
        let stats = dev.stats();
        assert_eq!(stats.submitted, producers * per_producer);
        assert_eq!(stats.completed, producers * per_producer);
        assert!(stats.kicks >= 1, "at least one kick-start");
        assert_eq!(
            stats.kicks + stats.syscall_free,
            stats.submitted,
            "every submission either kicked or rode the syscall-free path, exactly once"
        );
    }

    #[test]
    fn futures_resolve_out_of_submission_order() {
        let rt = Rt::new();
        let backend = MemBackend::new();
        backend.register(0, 64 * PAGE);
        let dev = rt.open(32, backend);
        let futures: Vec<MoveFuture> = (0..16)
            .map(|i| dev.move_async(MoveDesc::migrate(0, 1, PAGE_SHIFT).with_user_data(i)))
            .collect();
        // Await in reverse submission order: completion storage must be
        // per-request (the wake table), not a single head-of-line slot.
        for (i, fut) in futures.into_iter().enumerate().rev() {
            let c = Rt::block_on(fut);
            assert_eq!(c.user_data, i as u64);
            assert_eq!(c.status, MoveStatus::Done);
        }
    }

    #[test]
    fn two_devices_are_isolated() {
        let rt = Rt::new();
        let a_backend = MemBackend::new();
        a_backend.register(0, 4 * PAGE);
        let b_backend = MemBackend::new();
        b_backend.register(0x8000_0000, 4 * PAGE);
        let a = rt.open(8, a_backend);
        let b = rt.open(8, b_backend);
        let ca = a.move_blocking(MoveDesc::migrate(0, 4, PAGE_SHIFT));
        let cb = b.move_blocking(MoveDesc::migrate(0, 4, PAGE_SHIFT));
        assert_eq!(ca.status, MoveStatus::Done);
        assert_eq!(cb.status, MoveStatus::Invalid, "b never registered 0");
        assert_eq!(a.stats().completed, 1);
        assert_eq!(b.stats().completed, 1);
    }
}
