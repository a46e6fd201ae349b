//! The driver's completion log.
//!
//! Every retired request leaves one [`CompletionRecord`], the raw
//! material for the latency and throughput figures, and the log keeps
//! them all for the device's lifetime. It stores each record as a
//! residual against a prediction built from the previous record, the
//! delta-of-delta idea of Gorilla (Pelkonen et al., VLDB 2015): a
//! simulated stream is regular, so a steady record takes one byte where
//! the struct takes 56.
//!
//! # Format
//!
//! The log keeps five predicted fields, taken from the previous record
//! (or, before the first, from an all-zero one):
//!
//! | field | predicted value |
//! |---|---|
//! | `req_id` | the previous id + 1 |
//! | `completed_at` | the previous completion time + the previous gap between completion times |
//! | latency, `completed_at` − `submitted_at` | the previous record's |
//! | DMA span, `completed_at` − `dma_started_at` | that of the last record with a DMA start |
//! | `bytes` | the previous record's |
//!
//! Each record begins with one tag byte:
//!
//! | bit | meaning |
//! |---|---|
//! | 0 | the request was a [`MoveKind::Migrate`] |
//! | 1 | the record has a DMA start |
//! | 2–5 | [`MoveStatus::code`] (0–8) |
//! | 6 | PREDICTED: every field equals its prediction |
//!
//! A PREDICTED record is its tag byte alone. Any other record follows
//! its tag with one zigzag-LEB128 varint per field, the field's
//! difference from its prediction, in the table's order: five varints,
//! or four when the record has no DMA start (the span is then skipped
//! and the prediction keeps the last one). A varint takes at most 10
//! bytes, so a record takes at most 51. Every difference wraps, so any
//! `u64` round-trips, out-of-order and decreasing values included.

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
/// Tag bit: the record has a DMA start.
const DMA: u8 = 2;
/// The tag's bits 2–5 hold the status's code.
const STATUS_SHIFT: u8 = 2;
/// The status code's bits, once shifted down.
const STATUS_MASK: u8 = 0xf;
/// Tag bit: every field equals its prediction, and no varint follows.
const PREDICTED: u8 = 64;

/// Field positions in a [`Fields`] array, which is also their order in
/// the encoded stream.
const ID: usize = 0;
const DONE: usize = 1;
const LATENCY: usize = 2;
const SPAN: usize = 3;
const BYTES: usize = 4;

/// A record's predicted fields, in nanoseconds where they are times:
/// `req_id`, `completed_at`, latency, DMA span and `bytes`.
type Fields = [u64; 5];

/// What the next record is expected to hold, learned from the previous
/// one. The encoder and the decoder each keep one and feed it the same
/// records, so they agree on every prediction.
#[derive(Debug, Clone, Copy, Default)]
struct Predictor {
    /// The previous record's fields (the span of the last record with
    /// a DMA start).
    last: Fields,
    /// The previous record's `completed_at` minus the one before it.
    gap: u64,
}

impl Predictor {
    /// The next record's expected fields.
    fn expect(&self) -> Fields {
        let mut next = self.last;
        next[ID] = next[ID].wrapping_add(1);
        next[DONE] = next[DONE].wrapping_add(self.gap);
        next
    }

    /// Takes in a record's fields, as [`fields`] gives them.
    fn learn(&mut self, fields: Fields) {
        self.gap = fields[DONE].wrapping_sub(self.last[DONE]);
        self.last = fields;
    }
}

/// `record`'s fields; a record without a DMA start takes the expected
/// span, so that it neither breaks a prediction nor changes the next.
fn fields(record: &CompletionRecord, expected: &Fields) -> Fields {
    let done = record.completed_at.as_ns();
    let span = record
        .dma_started_at
        .map_or(expected[SPAN], |start| done.wrapping_sub(start.as_ns()));
    [
        record.req_id,
        done,
        done.wrapping_sub(record.submitted_at.as_ns()),
        span,
        record.bytes,
    ]
}

/// An append-only log of [`CompletionRecord`]s, in retirement order.
///
/// A record that matches what the previous one predicts (id + 1,
/// completion time + the previous gap, and the previous latency, DMA
/// span and size) takes one byte; any other takes a tag byte and one
/// varint per field, at most 51 bytes. The byte format is laid out at
/// the top of `crates/core/src/log.rs`. The last record is also kept
/// decoded, for [`CompletionLog::last`].
#[derive(Debug, Clone, Default)]
pub struct CompletionLog {
    bytes: Vec<u8>,
    len: usize,
    last: Option<CompletionRecord>,
    predictor: Predictor,
}

impl CompletionLog {
    /// Appends one record.
    pub fn push(&mut self, record: CompletionRecord) {
        let expected = self.predictor.expect();
        let actual = fields(&record, &expected);
        let status = u8::try_from(record.status.code()).expect("status codes fit the tag");
        let mut tag = status << STATUS_SHIFT;
        if record.kind == MoveKind::Migrate {
            tag |= MIGRATE;
        }
        let dma = record.dma_started_at.is_some();
        if dma {
            tag |= DMA;
        }
        // Byte-wise pushes keep the buffer's capacity a power of two:
        // it grows by exact doublings from 8.
        let out = &mut self.bytes;
        if actual == expected {
            out.push(tag | PREDICTED);
        } else {
            out.push(tag);
            for (i, (a, e)) in actual.into_iter().zip(expected).enumerate() {
                if i != SPAN || dma {
                    put(out, zigzag(a.wrapping_sub(e)));
                }
            }
        }
        self.predictor.learn(actual);
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
            predictor: Predictor::default(),
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
    predictor: Predictor,
}

impl Iterator for Iter<'_> {
    type Item = CompletionRecord;

    fn next(&mut self) -> Option<CompletionRecord> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (&tag, rest) = self.bytes.split_first().expect("a record per count");
        self.bytes = rest;
        let dma = tag & DMA != 0;
        let mut f = self.predictor.expect();
        if tag & PREDICTED == 0 {
            for (i, field) in f.iter_mut().enumerate() {
                if i != SPAN || dma {
                    *field = field.wrapping_add(unzigzag(self.get()));
                }
            }
        }
        self.predictor.learn(f);
        let done = f[DONE];
        Some(CompletionRecord {
            req_id: f[ID],
            kind: if tag & MIGRATE != 0 {
                MoveKind::Migrate
            } else {
                MoveKind::Replicate
            },
            bytes: f[BYTES],
            submitted_at: SimTime::from_ns(done.wrapping_sub(f[LATENCY])),
            dma_started_at: dma.then(|| SimTime::from_ns(done.wrapping_sub(f[SPAN]))),
            completed_at: SimTime::from_ns(done),
            status: MoveStatus::from_code(u64::from((tag >> STATUS_SHIFT) & STATUS_MASK)),
        })
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
    fn a_steady_stream_takes_a_byte_a_record() {
        let mut log = CompletionLog::default();
        for i in 0..1_000 {
            log.push(record(i, 1_000_000 + 2_500 * i));
        }
        // The first record is predicted from zeros: tag 1, id 1,
        // completion 3, latency 2, DMA span 2, bytes 2. The second
        // misses only its completion time (the first gap was 1 ms):
        // tag 1, 3 for it and 1 for each other field. From the third on
        // every record is its tag alone.
        assert_eq!(log.encoded_bytes(), 11 + 8 + 998);
        assert_eq!(log.len(), 1_000);
        assert_eq!(log.last(), Some(record(999, 1_000_000 + 2_500 * 999)));
        assert!(log
            .iter()
            .eq((0..1_000).map(|i| record(i, 1_000_000 + 2_500 * i))));
        assert!(log.capacity().is_power_of_two());
    }

    #[test]
    fn a_broken_prediction_costs_every_field_once() {
        let mut log = CompletionLog::default();
        (0..4).for_each(|i| log.push(record(i, 10_000 + 2_500 * i)));
        let before = log.encoded_bytes();
        // Five residuals follow the tag; +64 bytes zigzags to 128,
        // which takes two varint bytes.
        log.push(CompletionRecord {
            bytes: 4_096 + 64,
            ..record(4, 20_000)
        });
        assert_eq!(log.encoded_bytes(), before + 1 + 5 + 1);
        // Without a DMA start, four residuals follow the tag: the id's
        // and the bytes' (−64 zigzags to 127) break the prediction.
        log.push(CompletionRecord {
            req_id: 9,
            dma_started_at: None,
            ..record(5, 22_500)
        });
        assert_eq!(log.encoded_bytes(), before + 7 + 1 + 4);
        assert_eq!(log.iter().last(), log.last());
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
