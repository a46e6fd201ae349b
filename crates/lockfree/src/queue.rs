//! The red–blue lock-free queue (paper §4.3).
//!
//! A classic lock-free FIFO in the Michael–Scott style, specialized to an
//! index-linked slot arena, with the paper's novel extension: a queue-wide
//! *color* flag encoded into every link and manipulated atomically as part
//! of the ordinary queue operations. This lets the staging queue and its
//! "who must flush" flag be updated with a **single CAS**, avoiding the
//! lock that a vanilla queue plus a separate flag would require.
//!
//! # Algorithm notes
//!
//! * The queue always contains one *dummy* slot; `head` points at it.
//!   Dequeue advances `head` to the first real element, copies its payload
//!   out, and hands the **old dummy slot** back to the caller (with the
//!   payload deposited into it), so slot counts are conserved without any
//!   deferred reclamation.
//! * Every pointer word (`head`, `tail`, and each slot link) carries a
//!   32-bit modification tag; a CAS only succeeds against the exact tagged
//!   value that was read, which makes the speculative reads inside the
//!   retry loops (possibly of already-recycled slots) harmless.
//! * Tail may lag at most one node behind the last element; both enqueue
//!   and dequeue help swing it, and — as in the original Michael–Scott
//!   algorithm — `head` is never advanced past the node `tail` points to,
//!   so `tail` always references an in-queue slot.
//! * The color invariant: all links in a queue carry the same color.
//!   Enqueue reads the color from the old tail's terminator link and
//!   propagates it into both the new terminator and the new connecting
//!   link; `set_color` succeeds only on an empty queue by CASing the
//!   dummy's NULL terminator.

use std::fmt;

use crate::link::{AtomicLink, Color, Link, SlotIndex, NULL_INDEX};
use crate::movreq::MovReq;
use crate::slot::Slot;

/// Error returned by [`ColorQueue::set_color`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetColorError {
    /// The queue was not empty; per §4.3 a color change "will only succeed
    /// on an empty queue". The paper's C interface signals this as `-1`.
    NotEmpty,
}

impl fmt::Display for SetColorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("queue not empty")
    }
}

impl std::error::Error for SetColorError {}

/// Result of a successful dequeue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dequeued {
    /// The slot now owned by the caller (the queue's old dummy, carrying a
    /// copy of the dequeued payload). Hand it to another queue or back to
    /// the free list.
    pub slot: SlotIndex,
    /// The dequeued request.
    pub req: MovReq,
    /// The queue color observed at the linearization point, extracted from
    /// the dequeued element's link as in the paper.
    pub color: Color,
}

/// A red–blue lock-free queue over an external slot arena.
///
/// All methods take the arena as a parameter so that several queues (and
/// the free list) can share one array of slots, mirroring the layout of
/// the paper's memory-mapped region. Indices passed to `enqueue` must be
/// exclusively owned by the caller (freshly allocated or just dequeued);
/// this is the interface's ownership protocol and is validated by the
/// kernel side of memif before use, not by this type.
#[derive(Debug)]
pub struct ColorQueue {
    head: AtomicLink,
    tail: AtomicLink,
}

impl ColorQueue {
    /// Creates a queue whose dummy is `dummy`, colored `color`.
    ///
    /// The caller must exclusively own `dummy` and never reuse it.
    ///
    /// # Panics
    ///
    /// Panics if `dummy` is out of bounds for `slots`.
    pub fn new(slots: &[Slot], dummy: SlotIndex, color: Color) -> Self {
        let old = slots[dummy as usize].link.load();
        slots[dummy as usize].link.store(Link {
            tag: old.tag.wrapping_add(1),
            color,
            index: NULL_INDEX,
        });
        ColorQueue {
            head: AtomicLink::new(Link {
                tag: 0,
                color: Color::Blue,
                index: dummy,
            }),
            tail: AtomicLink::new(Link {
                tag: 0,
                color: Color::Blue,
                index: dummy,
            }),
        }
    }

    /// Appends the slot `e` (owned by the caller, payload `req`) and
    /// returns the queue color observed at the linearization point.
    ///
    /// Lock-free: a CAS failure implies another operation succeeded.
    pub fn enqueue(&self, slots: &[Slot], e: SlotIndex, req: &MovReq) -> Color {
        let eslot = &slots[e as usize];
        eslot.write_payload(req);
        loop {
            let t = self.tail.load();
            let tslot = &slots[t.index as usize];
            let tlink = tslot.link.load();
            if self.tail.load() != t {
                // `tlink` must be read while the slot is still our tail:
                // a recycled slot (say, the free list's NULL-terminated
                // bottom) would accept the connecting CAS below.
                continue;
            }
            if tlink.index != NULL_INDEX {
                // Tail lags behind the last node: help swing it forward.
                let _ = self.tail.compare_exchange(
                    t,
                    Link {
                        tag: t.tag.wrapping_add(1),
                        color: Color::Blue,
                        index: tlink.index,
                    },
                );
                continue;
            }
            // Write our own terminator first, propagating the color that the
            // connecting CAS below will also carry.
            let own = eslot.link.load();
            eslot.link.store(Link {
                tag: own.tag.wrapping_add(1),
                color: tlink.color,
                index: NULL_INDEX,
            });
            if tslot
                .link
                .compare_exchange(tlink, tlink.successor(e))
                .is_ok()
            {
                let _ = self.tail.compare_exchange(
                    t,
                    Link {
                        tag: t.tag.wrapping_add(1),
                        color: Color::Blue,
                        index: e,
                    },
                );
                return tlink.color;
            }
        }
    }

    /// Removes the oldest element, or returns `None` if the queue is empty.
    ///
    /// See [`Dequeued`] for the slot-ownership hand-off.
    pub fn dequeue(&self, slots: &[Slot]) -> Option<Dequeued> {
        self.dequeue_if(slots, |_| true)
    }

    /// Removes the oldest element only if `pred` accepts its payload;
    /// returns `None` — leaving the queue untouched — when the queue is
    /// empty or the front element does not match.
    ///
    /// The predicate runs on the speculative payload copy taken *before*
    /// the head CAS (the same copy an unconditional dequeue would
    /// commit), so a mismatched front element is never disturbed. This
    /// is how batched issue peels only compatible requests off the
    /// submission queue without a peek/remove race.
    pub fn dequeue_if(
        &self,
        slots: &[Slot],
        mut pred: impl FnMut(&MovReq) -> bool,
    ) -> Option<Dequeued> {
        loop {
            let h = self.head.load();
            let hslot = &slots[h.index as usize];
            let hlink = hslot.link.load();
            if hlink.index == NULL_INDEX {
                // Confirm the head did not move while we read the link, so
                // the NULL we saw belongs to the live dummy and not to a
                // recycled slot.
                if self.head.load() == h {
                    return None;
                }
                continue;
            }
            let t = self.tail.load();
            if self.head.load() != h {
                // Head moved since `hlink` was read: the old dummy may
                // have been recycled to the tail, and swinging tail to
                // the stale `hlink` below would point it backwards.
                continue;
            }
            if t.index == h.index {
                // Queue is non-empty but tail still points at the dummy:
                // help swing it before advancing head past it.
                let _ = self.tail.compare_exchange(
                    t,
                    Link {
                        tag: t.tag.wrapping_add(1),
                        color: Color::Blue,
                        index: hlink.index,
                    },
                );
                continue;
            }
            // Speculatively copy the payload before the head CAS: a
            // successful CAS proves the head (and hence the payload slot)
            // was undisturbed for the whole read.
            let req = slots[hlink.index as usize].read_payload();
            if !pred(&req) {
                // The speculative copy is only trustworthy if the head
                // held still while we read it; re-confirm before
                // reporting a mismatched front.
                if self.head.load() == h {
                    return None;
                }
                continue;
            }
            if self
                .head
                .compare_exchange(
                    h,
                    Link {
                        tag: h.tag.wrapping_add(1),
                        color: Color::Blue,
                        index: hlink.index,
                    },
                )
                .is_ok()
            {
                // We exclusively own the old dummy now; deposit the payload
                // so the caller receives a self-contained request slot.
                hslot.write_payload(&req);
                return Some(Dequeued {
                    slot: h.index,
                    req,
                    color: hlink.color,
                });
            }
        }
    }

    /// Attempts to change the queue color to `new`, which — as a rule —
    /// only succeeds on an empty queue (§4.3). Returns the old color.
    ///
    /// # Errors
    ///
    /// [`SetColorError::NotEmpty`] if the queue holds any element at the
    /// linearization point.
    pub fn set_color(&self, slots: &[Slot], new: Color) -> Result<Color, SetColorError> {
        loop {
            let h = self.head.load();
            let hslot = &slots[h.index as usize];
            let hlink = hslot.link.load();
            if self.head.load() != h {
                // As in enqueue: recolor only a terminator read while its
                // slot was still this queue's dummy.
                continue;
            }
            if hlink.index != NULL_INDEX {
                return Err(SetColorError::NotEmpty);
            }
            if hslot
                .link
                .compare_exchange(hlink, Link::null(hlink.tag.wrapping_add(1), new))
                .is_ok()
            {
                return Ok(hlink.color);
            }
        }
    }

    /// The current queue color, read from the terminator reachable from
    /// the head. Monotonic-snapshot only: by the time the caller acts the
    /// color may have changed, which the submit protocol tolerates.
    pub fn color(&self, slots: &[Slot]) -> Color {
        loop {
            let h = self.head.load();
            let hlink = slots[h.index as usize].link.load();
            if self.head.load() == h {
                return hlink.color;
            }
        }
    }

    /// True if the queue held no element at some instant during the call.
    pub fn is_empty(&self, slots: &[Slot]) -> bool {
        loop {
            let h = self.head.load();
            let hlink = slots[h.index as usize].link.load();
            if self.head.load() == h {
                return hlink.index == NULL_INDEX;
            }
        }
    }

    /// Approximate number of elements, by traversal from the dummy.
    ///
    /// Only meaningful when the queue is quiescent (diagnostics/tests);
    /// under concurrency the value is a best-effort snapshot. The walk is
    /// bounded by the arena size, so a torn traversal cannot loop forever.
    pub fn len_approx(&self, slots: &[Slot]) -> usize {
        let mut n = 0;
        let mut idx = self.head.load().index;
        for _ in 0..slots.len() {
            let link = slots[idx as usize].link.load();
            if link.index == NULL_INDEX {
                break;
            }
            n += 1;
            idx = link.index;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movreq::MoveKind;

    fn arena(n: usize) -> Vec<Slot> {
        (0..n).map(|_| Slot::new()).collect()
    }

    fn req(id: u64) -> MovReq {
        MovReq {
            id,
            kind: MoveKind::Replicate,
            nr_pages: 1,
            page_shift: 12,
            ..MovReq::default()
        }
    }

    #[test]
    fn fifo_order() {
        let slots = arena(8);
        let q = ColorQueue::new(&slots, 0, Color::Blue);
        q.enqueue(&slots, 1, &req(10));
        q.enqueue(&slots, 2, &req(20));
        q.enqueue(&slots, 3, &req(30));
        assert_eq!(q.len_approx(&slots), 3);
        assert_eq!(q.dequeue(&slots).unwrap().req.id, 10);
        assert_eq!(q.dequeue(&slots).unwrap().req.id, 20);
        assert_eq!(q.dequeue(&slots).unwrap().req.id, 30);
        assert!(q.dequeue(&slots).is_none());
    }

    #[test]
    fn slot_conservation() {
        // Dequeue returns the *old dummy*; across an enqueue/dequeue pair
        // the set of owned slots stays the same size.
        let slots = arena(4);
        let q = ColorQueue::new(&slots, 0, Color::Blue);
        q.enqueue(&slots, 1, &req(1));
        let d = q.dequeue(&slots).unwrap();
        assert_eq!(d.slot, 0, "caller receives the old dummy");
        assert_eq!(d.req.id, 1, "payload copied into it");
        // Slot 1 is now the queue's dummy; re-enqueue the returned slot.
        q.enqueue(&slots, d.slot, &req(2));
        let d2 = q.dequeue(&slots).unwrap();
        assert_eq!(d2.slot, 1);
        assert_eq!(d2.req.id, 2);
    }

    #[test]
    fn color_propagates_through_enqueues() {
        let slots = arena(8);
        let q = ColorQueue::new(&slots, 0, Color::Red);
        assert_eq!(q.enqueue(&slots, 1, &req(1)), Color::Red);
        assert_eq!(q.enqueue(&slots, 2, &req(2)), Color::Red);
        let d = q.dequeue(&slots).unwrap();
        assert_eq!(d.color, Color::Red);
    }

    #[test]
    fn set_color_requires_empty() {
        let slots = arena(8);
        let q = ColorQueue::new(&slots, 0, Color::Blue);
        q.enqueue(&slots, 1, &req(1));
        assert_eq!(
            q.set_color(&slots, Color::Red),
            Err(SetColorError::NotEmpty)
        );
        q.dequeue(&slots).unwrap();
        assert_eq!(q.set_color(&slots, Color::Red), Ok(Color::Blue));
        assert_eq!(q.color(&slots), Color::Red);
        // Elements enqueued after the change carry the new color.
        assert_eq!(q.enqueue(&slots, 2, &req(2)), Color::Red);
    }

    #[test]
    fn set_color_is_idempotent_on_empty() {
        let slots = arena(2);
        let q = ColorQueue::new(&slots, 0, Color::Red);
        assert_eq!(q.set_color(&slots, Color::Red), Ok(Color::Red));
        assert_eq!(q.color(&slots), Color::Red);
    }

    #[test]
    fn empty_and_len() {
        let slots = arena(4);
        let q = ColorQueue::new(&slots, 0, Color::Blue);
        assert!(q.is_empty(&slots));
        assert_eq!(q.len_approx(&slots), 0);
        q.enqueue(&slots, 1, &req(1));
        assert!(!q.is_empty(&slots));
    }

    #[test]
    fn dequeue_if_leaves_mismatched_front_in_place() {
        let slots = arena(8);
        let q = ColorQueue::new(&slots, 0, Color::Blue);
        q.enqueue(&slots, 1, &req(10));
        q.enqueue(&slots, 2, &req(20));
        // Front is 10: a predicate wanting 20 must not disturb the queue.
        assert!(q.dequeue_if(&slots, |r| r.id == 20).is_none());
        assert_eq!(q.len_approx(&slots), 2);
        // A matching predicate dequeues normally, FIFO order intact.
        let d = q.dequeue_if(&slots, |r| r.id == 10).unwrap();
        assert_eq!(d.req.id, 10);
        assert_eq!(q.dequeue(&slots).unwrap().req.id, 20);
        // Empty queue: predicate is never called.
        assert!(q
            .dequeue_if(&slots, |_| panic!("must not run on empty"))
            .is_none());
    }

    #[test]
    fn interleaved_enqueue_dequeue() {
        let slots = arena(16);
        let q = ColorQueue::new(&slots, 0, Color::Blue);
        let mut owned: Vec<SlotIndex> = (1..16).collect();
        let mut next_id = 0u64;
        let mut expect_front = 0u64;
        for round in 0..200 {
            if round % 3 != 2 {
                if let Some(slot) = owned.pop() {
                    q.enqueue(&slots, slot, &req(next_id));
                    next_id += 1;
                }
            } else if let Some(d) = q.dequeue(&slots) {
                assert_eq!(d.req.id, expect_front);
                expect_front += 1;
                owned.push(d.slot);
            }
        }
        while let Some(d) = q.dequeue(&slots) {
            assert_eq!(d.req.id, expect_front);
            expect_front += 1;
            owned.push(d.slot);
        }
        assert_eq!(expect_front, next_id);
        assert_eq!(owned.len(), 15);
    }
}
