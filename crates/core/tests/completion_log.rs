//! The completion log's delta-varint encoding is lossless: after every
//! push, `len`, `last` and `iter` agree with a plain `Vec` of the same
//! records, whatever the times, ids, sizes and statuses.

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
}
