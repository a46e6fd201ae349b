//! The completion log's predictive encoding is lossless: after every
//! push, `len`, `last` and `iter` agree with a plain `Vec` of the same
//! records, whatever the times, ids, sizes and statuses. Independent
//! random records almost never match their predictions, so a second
//! strategy draws steady streams, where each record follows the last
//! one's id, gap, latency, DMA span and size, and perturbs single
//! fields; those reach the one-byte form.

use memif::{CompletionLog, CompletionRecord, FailReason, MoveKind, MoveStatus, SimTime};
use proptest::prelude::*;

/// A time anywhere in `u64`, or near a small base so that consecutive
/// records also take the short encodings.
fn time() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), 0u64..10_000, (u64::MAX - 10_000)..=u64::MAX]
}

fn status() -> impl Strategy<Value = MoveStatus> {
    prop_oneof![
        Just(MoveStatus::Pending),
        Just(MoveStatus::Done),
        Just(MoveStatus::Raced),
        Just(MoveStatus::Aborted),
        Just(MoveStatus::Invalid),
        Just(MoveStatus::OutOfMemory),
        Just(MoveStatus::Failed(FailReason::Timeout)),
        Just(MoveStatus::Failed(FailReason::DmaError)),
        Just(MoveStatus::Failed(FailReason::Descriptors)),
    ]
}

fn record() -> impl Strategy<Value = CompletionRecord> {
    (
        prop_oneof![any::<u64>(), 0u64..64],
        any::<bool>(),
        prop_oneof![any::<u64>(), 0u64..1 << 20, Just(u64::MAX)],
        (
            time(),
            prop_oneof![Just(None), time().prop_map(Some)],
            time(),
        ),
        status(),
    )
        .prop_map(
            |(req_id, migrate, bytes, (submitted, dma_started, completed), status)| {
                CompletionRecord {
                    req_id,
                    kind: if migrate {
                        MoveKind::Migrate
                    } else {
                        MoveKind::Replicate
                    },
                    bytes,
                    submitted_at: SimTime::from_ns(submitted),
                    dma_started_at: dma_started.map(SimTime::from_ns),
                    completed_at: SimTime::from_ns(completed),
                    status,
                }
            },
        )
}

/// One step of a steady stream: the next record follows the previous
/// one, with at most one change.
#[derive(Debug, Clone)]
enum Step {
    /// Nothing changes.
    Steady,
    /// Add to the id (one-off), or from here on to the gap between
    /// completion times, the latency, the DMA span or the size.
    Id(u64),
    Gap(u64),
    Latency(u64),
    Span(u64),
    Bytes(u64),
    /// This record has no DMA start.
    NoDma,
    /// From here on, this status.
    Status(MoveStatus),
    /// From here on, the other kind.
    Kind,
}

impl Step {
    /// True if the step leaves every predicted field as predicted.
    fn keeps_the_prediction(&self) -> bool {
        matches!(
            self,
            Step::Steady | Step::NoDma | Step::Status(_) | Step::Kind
        )
    }
}

/// A change to one field: small either way, or anything.
fn delta() -> impl Strategy<Value = u64> {
    prop_oneof![(-64i64..64).prop_map(|d| d as u64), any::<u64>()]
}

/// A step; six in fourteen are `Steady`.
fn step() -> impl Strategy<Value = Step> {
    (0u8..14, delta(), status()).prop_map(|(pick, d, status)| match pick {
        0 => Step::Id(d),
        1 => Step::Gap(d),
        2 => Step::Latency(d),
        3 => Step::Span(d),
        4 => Step::Bytes(d),
        5 => Step::NoDma,
        6 => Step::Status(status),
        7 => Step::Kind,
        _ => Step::Steady,
    })
}

/// A first record (with a DMA start) and the steps that follow it.
fn steady_stream() -> impl Strategy<Value = Vec<(Step, CompletionRecord)>> {
    (
        (time(), time(), time(), time(), time(), time()),
        any::<bool>(),
        status(),
        proptest::collection::vec(step(), 0..64),
    )
        .prop_map(|(start, migrate, status, steps)| {
            let (mut id, mut done, mut gap, mut latency, mut span, mut bytes) = start;
            let mut kind = if migrate {
                MoveKind::Migrate
            } else {
                MoveKind::Replicate
            };
            let mut status = status;
            let mut out = Vec::with_capacity(steps.len() + 1);
            for (i, step) in std::iter::once(Step::Steady).chain(steps).enumerate() {
                if i > 0 {
                    id = id.wrapping_add(1);
                    done = done.wrapping_add(gap);
                }
                match step {
                    Step::Id(d) => id = id.wrapping_add(d),
                    Step::Gap(d) => {
                        gap = gap.wrapping_add(d);
                        done = done.wrapping_add(d);
                    }
                    Step::Latency(d) => latency = latency.wrapping_add(d),
                    Step::Span(d) => span = span.wrapping_add(d),
                    Step::Bytes(d) => bytes = bytes.wrapping_add(d),
                    Step::Status(s) => status = s,
                    Step::Kind => {
                        kind = match kind {
                            MoveKind::Migrate => MoveKind::Replicate,
                            MoveKind::Replicate => MoveKind::Migrate,
                        }
                    }
                    Step::Steady | Step::NoDma => {}
                }
                let dma = !matches!(step, Step::NoDma);
                let record = CompletionRecord {
                    req_id: id,
                    kind,
                    bytes,
                    submitted_at: SimTime::from_ns(done.wrapping_sub(latency)),
                    dma_started_at: dma.then(|| SimTime::from_ns(done.wrapping_sub(span))),
                    completed_at: SimTime::from_ns(done),
                    status,
                };
                out.push((step, record));
            }
            out
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_log_round_trips_every_record(
        records in proptest::collection::vec(record(), 0..48),
    ) {
        let mut log = CompletionLog::default();
        let mut model: Vec<CompletionRecord> = Vec::new();
        prop_assert!(log.is_empty() && log.last().is_none());
        for r in records {
            log.push(r);
            model.push(r);
            prop_assert_eq!(log.len(), model.len());
            prop_assert_eq!(log.last(), model.last().copied());
            prop_assert_eq!(log.iter().len(), model.len());
            prop_assert_eq!(log.iter().collect::<Vec<_>>(), model.clone());
        }
        // A tag byte and at most five 10-byte varints.
        prop_assert!(log.encoded_bytes() <= 51 * model.len());
    }

    #[test]
    fn a_steady_stream_round_trips_at_a_byte_a_record(stream in steady_stream()) {
        let mut log = CompletionLog::default();
        let mut model: Vec<CompletionRecord> = Vec::new();
        for (i, (step, r)) in stream.into_iter().enumerate() {
            let before = log.encoded_bytes();
            log.push(r);
            model.push(r);
            // The first record is predicted from zeros and the second
            // from the first one's distance from time 0; from the third
            // on, a record whose step changed no field is its tag alone.
            if i >= 2 && step.keeps_the_prediction() {
                prop_assert_eq!(log.encoded_bytes(), before + 1, "step {:?}", step);
            }
            prop_assert_eq!(log.last(), Some(r));
            prop_assert_eq!(log.iter().collect::<Vec<_>>(), model.clone());
        }
        prop_assert!(log.encoded_bytes() <= 51 * model.len());
    }
}
