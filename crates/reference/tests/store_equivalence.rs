//! Golden-equivalence property tests: the dense, incrementally-counted
//! [`ArrivalLog`] must answer **every** window query identically to the
//! retained `BTreeMap` reference implementation over random
//! record/prune/query sequences — including out-of-order duplicate
//! timestamps and local-time wrap-around.

use proptest::prelude::*;
use ssbyz_core::store::ArrivalLog;
use ssbyz_reference::ReferenceArrivalLog;
use ssbyz_types::{Duration, LocalTime, NodeId};

/// Compares every public query surface of the two logs at one instant.
fn assert_logs_agree(dense: &ArrivalLog, reference: &ReferenceArrivalLog, now: u64, n: u32) {
    let now_t = LocalTime::from_nanos(now);
    assert_eq!(
        dense.distinct_total(),
        reference.distinct_total(),
        "distinct_total at {now}"
    );
    assert_eq!(dense.is_empty(), reference.distinct_total() == 0);
    for window in [0u64, 1, 500, 2_500, 10_000, u64::MAX / 4] {
        let w = Duration::from_nanos(window);
        assert_eq!(
            dense.distinct_in_window(now_t, w),
            reference.distinct_in_window(now_t, w),
            "distinct_in_window({now}, {window})"
        );
        assert_eq!(
            dense.senders_in_window(now_t, w).collect::<Vec<_>>(),
            reference.senders_in_window(now_t, w).collect::<Vec<_>>(),
            "senders_in_window({now}, {window})"
        );
        for k in 1..=(n as usize + 1) {
            assert_eq!(
                dense.kth_latest_in_window(now_t, w, k),
                reference.kth_latest_in_window(now_t, w, k),
                "kth_latest_in_window({now}, {window}, {k})"
            );
        }
        for s in 0..n {
            assert_eq!(
                dense.sender_in_window(now_t, w, NodeId::new(s)),
                reference.sender_in_window(now_t, w, NodeId::new(s)),
                "sender_in_window({now}, {window}, {s})"
            );
        }
        // The fused one-pass queries (used by the interned hot path) must
        // agree exactly with their composed two-scan equivalents for
        // every nested window pair.
        for inner in [0u64, 1, 500, 2_500, 10_000, u64::MAX / 4] {
            if inner > window {
                continue;
            }
            let wi = Duration::from_nanos(inner);
            assert_eq!(
                dense.distinct_in_nested_windows(now_t, w, wi),
                (
                    dense.distinct_in_window(now_t, w),
                    dense.distinct_in_window(now_t, wi)
                ),
                "distinct_in_nested_windows({now}, {window}, {inner})"
            );
            for k in 1..=(n as usize + 1) {
                assert_eq!(
                    dense.kth_latest_with_inner_count(now_t, w, k, wi),
                    (
                        dense.kth_latest_in_window(now_t, w, k),
                        dense.distinct_in_window(now_t, wi)
                    ),
                    "kth_latest_with_inner_count({now}, {window}, {k}, {inner})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// Monotone recording with occasional duplicate replays and prunes:
    /// the realistic protocol workload.
    #[test]
    fn dense_log_matches_reference_model(
        ops in prop::collection::vec((0u32..8, 0u64..2_000, 0u32..10), 1..150),
        retention in 2_000u64..30_000,
    ) {
        let n = 8u32;
        let mut dense = ArrivalLog::new();
        let mut reference = ReferenceArrivalLog::new();
        let mut now = 10_000u64;
        let mut recent: Vec<u64> = Vec::new();
        for (sender, dt, action) in ops {
            now += dt;
            let sender_id = NodeId::new(sender);
            match action {
                // Mostly: record at the current instant.
                0..=6 => {
                    dense.record(LocalTime::from_nanos(now), sender_id);
                    reference.record(LocalTime::from_nanos(now), sender_id);
                    recent.push(now);
                }
                // Replay an earlier timestamp (out-of-order duplicate).
                7 => {
                    let t = recent.get(recent.len() / 2).copied().unwrap_or(now);
                    dense.record(LocalTime::from_nanos(t), sender_id);
                    reference.record(LocalTime::from_nanos(t), sender_id);
                }
                // Prune both sides.
                _ => {
                    let r = Duration::from_nanos(retention);
                    dense.prune(LocalTime::from_nanos(now), r);
                    reference.prune(LocalTime::from_nanos(now), r);
                }
            }
            assert_logs_agree(&dense, &reference, now, n);
        }
        // Final full prune keeps them aligned too.
        dense.prune(LocalTime::from_nanos(now), Duration::from_nanos(retention));
        reference.prune(LocalTime::from_nanos(now), Duration::from_nanos(retention));
        assert_logs_agree(&dense, &reference, now, n);
    }

    /// Recording near the wrap-around point of the local clock: interval
    /// queries must stay equivalent across the wrap.
    #[test]
    fn dense_log_matches_reference_across_wraparound(
        ops in prop::collection::vec((0u32..6, 0u64..3_000), 1..80),
    ) {
        let n = 6u32;
        let mut dense = ArrivalLog::new();
        let mut reference = ReferenceArrivalLog::new();
        // Start close enough to u64::MAX that most sequences wrap.
        let mut now = u64::MAX - 60_000;
        for (sender, dt) in ops {
            now = now.wrapping_add(dt);
            let sender_id = NodeId::new(sender);
            dense.record(LocalTime::from_nanos(now), sender_id);
            reference.record(LocalTime::from_nanos(now), sender_id);
            assert_logs_agree(&dense, &reference, now, n);
        }
        dense.prune(LocalTime::from_nanos(now), Duration::from_nanos(20_000));
        reference.prune(LocalTime::from_nanos(now), Duration::from_nanos(20_000));
        assert_logs_agree(&dense, &reference, now, n);
    }
}
