//! The driver's completion log.
//!
//! Every retired request leaves one [`CompletionRecord`], the raw
//! material for the latency and throughput figures, and the log keeps
//! them all for the device's lifetime. It stores them as a byte stream
//! of LEB128 varints, each field a delta against the previous record or
//! against the record's own completion time, which takes about 11–16
//! bytes a record where the struct takes 56.

use memif_hwsim::{SimDuration, SimTime};
use memif_lockfree::{MoveKind, MoveStatus};

/// One entry of the driver's completion log (the raw material for the
/// latency and throughput figures). [`CompletionLog`] stores it
/// encoded and hands it back by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionRecord {
    /// Request id.
    pub req_id: u64,
    /// Replication or migration.
    pub kind: MoveKind,
    /// Bytes the request covered.
    pub bytes: u64,
    /// When the application submitted it.
    pub submitted_at: SimTime,
    /// When its DMA transfer started (`None` if rejected before launch).
    pub dma_started_at: Option<SimTime>,
    /// When the completion notification was enqueued.
    pub completed_at: SimTime,
    /// Terminal status.
    pub status: MoveStatus,
}

impl CompletionRecord {
    /// Submission-to-notification latency.
    #[must_use]
    pub fn latency(&self) -> SimDuration {
        self.completed_at.since(self.submitted_at)
    }
}

/// Tag bit: the request was a migration.
const MIGRATE: u8 = 1;
/// Tag bit: a DMA start time follows.
const DMA: u8 = 2;
/// The tag's bits above these two hold the status's slot code.
const STATUS_SHIFT: u8 = 2;

/// An append-only log of [`CompletionRecord`]s, in retirement order.
///
/// A record is encoded as one tag byte (the [`MoveKind`] bit, whether
/// a DMA start follows, and [`MoveStatus::code`]) and then these
/// LEB128 varints:
///
/// 1. zigzag(`req_id` − the previous record's `req_id`);
/// 2. zigzag(`completed_at` − the previous record's `completed_at`);
/// 3. zigzag(`completed_at` − `submitted_at`);
/// 4. zigzag(`completed_at` − `dma_started_at`), only if the tag says
///    a DMA start follows;
/// 5. `bytes`.
///
/// The first record's deltas are taken against 0. Every difference
/// wraps, so any `u64` round-trips, out-of-order values included. The
/// last record is also kept decoded: it is the next push's delta base
/// and [`CompletionLog::last`]'s answer.
#[derive(Debug, Clone, Default)]
pub struct CompletionLog {
    bytes: Vec<u8>,
    len: usize,
    last: Option<CompletionRecord>,
}

impl CompletionLog {
    /// Appends one record.
    pub fn push(&mut self, record: CompletionRecord) {
        let (id, at) = base(self.last.as_ref());
        let done = record.completed_at.as_ns();
        let status = u8::try_from(record.status.code()).expect("status codes fit the tag");
        let mut tag = status << STATUS_SHIFT;
        if record.kind == MoveKind::Migrate {
            tag |= MIGRATE;
        }
        if record.dma_started_at.is_some() {
            tag |= DMA;
        }
        // Byte-wise pushes keep the buffer's capacity a power of two:
        // it grows by exact doublings from 8.
        let out = &mut self.bytes;
        out.push(tag);
        put(out, zigzag(record.req_id.wrapping_sub(id)));
        put(out, zigzag(done.wrapping_sub(at)));
        put(out, zigzag(done.wrapping_sub(record.submitted_at.as_ns())));
        if let Some(start) = record.dma_started_at {
            put(out, zigzag(done.wrapping_sub(start.as_ns())));
        }
        put(out, record.bytes);
        self.len += 1;
        self.last = Some(record);
    }

    /// Records appended so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no record has been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most recent record.
    #[must_use]
    pub fn last(&self) -> Option<CompletionRecord> {
        self.last
    }

    /// Every record, oldest first, decoded one at a time.
    #[must_use]
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            bytes: &self.bytes,
            left: self.len,
            prev: None,
        }
    }

    /// Bytes the encoded records take.
    #[must_use]
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Bytes reserved for encoded records.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.bytes.capacity()
    }
}

/// Iterator over a [`CompletionLog`], yielding records by value.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    bytes: &'a [u8],
    left: usize,
    prev: Option<CompletionRecord>,
}

impl Iterator for Iter<'_> {
    type Item = CompletionRecord;

    fn next(&mut self) -> Option<CompletionRecord> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (id, at) = base(self.prev.as_ref());
        let (&tag, rest) = self.bytes.split_first().expect("a record per count");
        self.bytes = rest;
        let req_id = id.wrapping_add(unzigzag(self.get()));
        let done = at.wrapping_add(unzigzag(self.get()));
        let submitted = done.wrapping_sub(unzigzag(self.get()));
        let dma_started_at =
            (tag & DMA != 0).then(|| SimTime::from_ns(done.wrapping_sub(unzigzag(self.get()))));
        let record = CompletionRecord {
            req_id,
            kind: if tag & MIGRATE != 0 {
                MoveKind::Migrate
            } else {
                MoveKind::Replicate
            },
            bytes: self.get(),
            submitted_at: SimTime::from_ns(submitted),
            dma_started_at,
            completed_at: SimTime::from_ns(done),
            status: MoveStatus::from_code(u64::from(tag >> STATUS_SHIFT)),
        };
        self.prev = Some(record);
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl Iter<'_> {
    /// Reads one LEB128 varint.
    fn get(&mut self) -> u64 {
        let mut value = 0;
        for (i, &b) in self.bytes.iter().enumerate() {
            value |= u64::from(b & 0x7f) << (7 * i);
            if b < 0x80 {
                self.bytes = &self.bytes[i + 1..];
                return value;
            }
        }
        unreachable!("a varint runs past the log's end");
    }
}

/// The delta base a record is encoded against: the previous record's
/// id and completion time, or zeros for the first.
fn base(prev: Option<&CompletionRecord>) -> (u64, u64) {
    prev.map_or((0, 0), |r| (r.req_id, r.completed_at.as_ns()))
}

/// Appends `value` as a LEB128 varint.
fn put(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Maps a wrapped difference, read as signed, to an unsigned value
/// that is small when the difference is small either way.
fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

/// Inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memif_lockfree::FailReason;

    fn record(req_id: u64, done: u64) -> CompletionRecord {
        CompletionRecord {
            req_id,
            kind: MoveKind::Migrate,
            bytes: 4096,
            submitted_at: SimTime::from_ns(done - 3_000),
            dma_started_at: Some(SimTime::from_ns(done - 1_500)),
            completed_at: SimTime::from_ns(done),
            status: MoveStatus::Done,
        }
    }

    #[test]
    fn zigzag_keeps_small_deltas_small_both_ways() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(0u64.wrapping_sub(1)), 1);
        for d in [0, 1, 63, 64, u64::MAX, 1 << 63, (1 << 63) - 1] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    #[test]
    fn a_steady_stream_takes_a_dozen_bytes_a_record() {
        let mut log = CompletionLog::default();
        for i in 0..1_000 {
            log.push(record(i, 1_000_000 + 2_500 * i));
        }
        // Tag 1, id 1, spacing 2, latency 2, DMA 2, bytes 2; the first
        // record's spacing from 0 takes 3.
        assert_eq!(log.encoded_bytes(), 10 * 1_000 + 1);
        assert_eq!(log.len(), 1_000);
        assert_eq!(log.last(), Some(record(999, 1_000_000 + 2_500 * 999)));
        assert!(log
            .iter()
            .eq((0..1_000).map(|i| record(i, 1_000_000 + 2_500 * i))));
        assert!(log.capacity().is_power_of_two());
    }

    #[test]
    fn extremes_round_trip() {
        let mut log = CompletionLog::default();
        let records = [
            CompletionRecord {
                req_id: u64::MAX,
                kind: MoveKind::Replicate,
                bytes: u64::MAX,
                submitted_at: SimTime::from_ns(u64::MAX),
                dma_started_at: Some(SimTime::from_ns(1 << 63)),
                completed_at: SimTime::from_ns(0),
                status: MoveStatus::Failed(FailReason::Descriptors),
            },
            CompletionRecord {
                req_id: 0,
                kind: MoveKind::Migrate,
                bytes: 0,
                submitted_at: SimTime::from_ns(0),
                dma_started_at: None,
                completed_at: SimTime::from_ns(u64::MAX),
                status: MoveStatus::Pending,
            },
        ];
        for r in records {
            log.push(r);
        }
        assert!(log.iter().eq(records));
        assert_eq!(log.iter().len(), 2);
    }
}
