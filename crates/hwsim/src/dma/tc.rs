//! Transfer-controller scheduling.
//!
//! The EDMA3 moves data through several *transfer controllers* (TCs),
//! each an independent read/write pipeline with its own port onto the
//! memory fabric. The paper's prototype drives the engine through one
//! implicit controller; [`TcScheduler`] generalizes that into N
//! *channels*, each backed by its own bandwidth resource in the flow
//! network, so concurrent transfers on different controllers no longer
//! serialize behind a single engine-wide capacity.
//!
//! The scheduler is generic over the ticket type `T` carried by queued
//! launches (the driver uses `(DeviceId, token)`), keeping this layer
//! free of any world type. Admission is two-level:
//!
//! * a **global cap** models the fixed number of hardware controllers —
//!   at most `cap` transfers run engine-wide, matching the pre-TC
//!   `tc_active` counter exactly when one channel is configured;
//! * **least-loaded routing** picks the channel with the fewest active
//!   transfers (ties break to the lowest index, keeping runs
//!   deterministic), and a launch arriving at the cap queues FIFO on the
//!   channel it would have used.

use std::collections::VecDeque;

use crate::flow::ResourceId;

#[derive(Debug)]
struct Channel<T> {
    resource: ResourceId,
    active: usize,
    waiting: VecDeque<T>,
}

/// Routes transfer launches onto N transfer-controller channels.
#[derive(Debug)]
pub struct TcScheduler<T> {
    channels: Vec<Channel<T>>,
    cap: usize,
    active: usize,
}

impl<T> TcScheduler<T> {
    /// A scheduler admitting at most `cap` concurrent transfers
    /// engine-wide (the hardware controller count). Channels are added
    /// with [`TcScheduler::add_channel`].
    #[must_use]
    pub fn new(cap: usize) -> Self {
        TcScheduler {
            channels: Vec::new(),
            cap: cap.max(1),
            active: 0,
        }
    }

    /// Registers a channel backed by `resource` (its share of the
    /// fabric); returns the channel index.
    pub fn add_channel(&mut self, resource: ResourceId) -> usize {
        self.channels.push(Channel {
            resource,
            active: 0,
            waiting: VecDeque::new(),
        });
        self.channels.len() - 1
    }

    /// Number of configured channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// The bandwidth resource behind channel `tc`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range channel index.
    #[must_use]
    pub fn resource(&self, tc: usize) -> ResourceId {
        self.channels[tc].resource
    }

    /// Transfers currently admitted (engine-wide).
    #[must_use]
    pub fn active(&self) -> usize {
        self.active
    }

    /// Drops all volatile scheduler state after a simulated crash:
    /// active counts go to zero and every queued launch ticket is
    /// discarded. Channel registrations (the hardware) survive.
    pub fn reset_volatile(&mut self) {
        self.active = 0;
        for c in &mut self.channels {
            c.active = 0;
            c.waiting.clear();
        }
    }

    /// Launch-ready transfers queued for a free controller.
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.channels.iter().map(|c| c.waiting.len()).sum()
    }

    /// Transfers running on channel `tc` right now.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range channel index.
    #[must_use]
    pub fn channel_active(&self, tc: usize) -> usize {
        self.channels[tc].active
    }

    /// The channel least-loaded routing would pick next (lowest active
    /// count, ties to the lowest index).
    ///
    /// # Panics
    ///
    /// Panics if no channel has been added.
    #[must_use]
    pub fn least_loaded(&self) -> usize {
        assert!(!self.channels.is_empty(), "no TC channels configured");
        let mut best = 0;
        for (i, c) in self.channels.iter().enumerate().skip(1) {
            if c.active < self.channels[best].active {
                best = i;
            }
        }
        best
    }

    /// Tries to admit a transfer: returns `Some(channel)` and occupies a
    /// controller slot, or queues `ticket` on the least-loaded channel
    /// and returns `None` when all controllers are busy.
    ///
    /// # Panics
    ///
    /// Panics if no channel has been added.
    pub fn admit(&mut self, ticket: T) -> Option<usize> {
        let tc = self.least_loaded();
        if self.active >= self.cap {
            self.channels[tc].waiting.push_back(ticket);
            return None;
        }
        self.active += 1;
        self.channels[tc].active += 1;
        Some(tc)
    }

    /// Releases the controller slot a transfer held on channel `tc` and
    /// pops the next queued ticket, if any, for the caller to relaunch
    /// (relaunching re-runs admission, so the popped ticket may land on
    /// a different, now least-loaded channel).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range channel index.
    pub fn release(&mut self, tc: usize) -> Option<T> {
        self.active = self.active.saturating_sub(1);
        self.channels[tc].active = self.channels[tc].active.saturating_sub(1);
        self.take_waiting()
    }

    /// Pops a queued ticket without releasing a slot — used when an
    /// admitted launch turns out to be stale (its request was aborted
    /// before the launch event ran) and its slot should go to whoever is
    /// waiting. Drains the channel with the longest queue first (ties to
    /// the lowest index).
    pub fn take_waiting(&mut self) -> Option<T> {
        let mut best: Option<usize> = None;
        for (i, c) in self.channels.iter().enumerate() {
            if c.waiting.is_empty() {
                continue;
            }
            match best {
                Some(b) if self.channels[b].waiting.len() >= c.waiting.len() => {}
                _ => best = Some(i),
            }
        }
        best.and_then(|i| self.channels[i].waiting.pop_front())
    }

    /// Removes every queued ticket matching `pred` (abort of a request
    /// that never reached a controller).
    pub fn cancel_waiting(&mut self, mut pred: impl FnMut(&T) -> bool) {
        for c in &mut self.channels {
            c.waiting.retain(|t| !pred(t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowNet;

    fn resources(n: usize) -> Vec<ResourceId> {
        let mut net = FlowNet::new();
        (0..n).map(|_| net.add_resource(3.0)).collect()
    }

    #[test]
    fn single_channel_behaves_like_a_counter() {
        let rs = resources(1);
        let mut tc: TcScheduler<u64> = TcScheduler::new(2);
        tc.add_channel(rs[0]);
        assert_eq!(tc.admit(0), Some(0));
        assert_eq!(tc.admit(1), Some(0));
        // At the cap: queues FIFO.
        assert_eq!(tc.admit(2), None);
        assert_eq!(tc.admit(3), None);
        assert_eq!(tc.waiting(), 2);
        assert_eq!(tc.release(0), Some(2));
        assert_eq!(tc.release(0), Some(3));
        assert_eq!(tc.release(0), None);
        assert_eq!(tc.active(), 0);
    }

    #[test]
    fn least_loaded_routing_spreads_transfers() {
        let rs = resources(3);
        let mut tc: TcScheduler<u64> = TcScheduler::new(6);
        for r in &rs {
            tc.add_channel(*r);
        }
        assert_eq!(tc.admit(0), Some(0));
        assert_eq!(tc.admit(1), Some(1), "channel 0 is busier");
        assert_eq!(tc.admit(2), Some(2));
        assert_eq!(tc.admit(3), Some(0), "ties break to the lowest index");
        // Freeing channel 1 makes it least loaded again.
        assert!(tc.release(1).is_none());
        assert_eq!(tc.admit(4), Some(1));
        assert_eq!(tc.channel_active(0), 2);
        assert_eq!(tc.channel_active(1), 1);
    }

    #[test]
    fn cap_is_global_across_channels() {
        let rs = resources(4);
        let mut tc: TcScheduler<u64> = TcScheduler::new(2);
        for r in &rs {
            tc.add_channel(*r);
        }
        assert_eq!(tc.admit(0), Some(0));
        assert_eq!(tc.admit(1), Some(1));
        assert_eq!(tc.admit(2), None, "only two controllers exist");
        assert_eq!(tc.active(), 2);
    }

    #[test]
    fn cancel_waiting_drops_matching_tickets() {
        let rs = resources(2);
        let mut tc: TcScheduler<u64> = TcScheduler::new(1);
        tc.add_channel(rs[0]);
        tc.add_channel(rs[1]);
        assert_eq!(tc.admit(0), Some(0));
        assert_eq!(tc.admit(1), None);
        assert_eq!(tc.admit(2), None);
        tc.cancel_waiting(|t| *t == 1);
        assert_eq!(tc.waiting(), 1);
        assert_eq!(tc.release(0), Some(2));
    }

    #[test]
    fn take_waiting_drains_longest_queue_first() {
        let rs = resources(2);
        let mut tc: TcScheduler<u64> = TcScheduler::new(2);
        tc.add_channel(rs[0]);
        tc.add_channel(rs[1]);
        assert_eq!(tc.admit(10), Some(0));
        assert_eq!(tc.admit(11), Some(1));
        // All three queue on channel 0 (active counts tie at 1-1, so the
        // lowest index wins every time).
        assert_eq!(tc.admit(20), None);
        assert_eq!(tc.admit(21), None);
        assert_eq!(tc.admit(22), None);
        let first = tc.take_waiting().unwrap();
        assert_eq!(first, 20, "longest queue drains first, FIFO within it");
    }
}
