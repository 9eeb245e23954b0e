//! The `BTreeMap`-backed arrival log the dense
//! [`ssbyz_core::store::ArrivalLog`] replaced: the golden model of
//! `tests/store_equivalence.rs` and the baseline side of the
//! `store_hot_path` criterion bench.

use std::collections::{BTreeMap, VecDeque};

use ssbyz_core::store::ArrivalLog;
use ssbyz_types::{Duration, LocalTime, NodeId};

fn in_window(t: LocalTime, now: LocalTime, window: Duration) -> bool {
    !t.is_after(now) && now.since(t) <= window
}

/// Tree-based arrival log with the exact query semantics of
/// [`ArrivalLog`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReferenceArrivalLog {
    per_sender: BTreeMap<NodeId, VecDeque<LocalTime>>,
}

impl ReferenceArrivalLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an arrival (duplicates collapsed anywhere in history).
    pub fn record(&mut self, now: LocalTime, sender: NodeId) {
        let times = self.per_sender.entry(sender).or_default();
        if times.contains(&now) {
            return;
        }
        times.push_back(now);
        while times.len() > ArrivalLog::MAX_PER_SENDER {
            times.pop_front();
        }
    }

    /// Drops old and future-stamped arrivals.
    pub fn prune(&mut self, now: LocalTime, retention: Duration) {
        self.per_sender.retain(|_, times| {
            times.retain(|t| !t.is_after(now) && now.since(*t) <= retention);
            !times.is_empty()
        });
    }

    /// Distinct senders with an arrival in `[now − window, now]`.
    #[must_use]
    pub fn distinct_in_window(&self, now: LocalTime, window: Duration) -> usize {
        self.per_sender
            .values()
            .filter(|times| times.iter().any(|t| in_window(*t, now, window)))
            .count()
    }

    /// Distinct senders with any retained arrival.
    #[must_use]
    pub fn distinct_total(&self) -> usize {
        self.per_sender.len()
    }

    /// Senders with an arrival in the window, ascending.
    pub fn senders_in_window(
        &self,
        now: LocalTime,
        window: Duration,
    ) -> impl Iterator<Item = NodeId> + '_ {
        self.per_sender
            .iter()
            .filter(move |(_, times)| times.iter().any(|t| in_window(*t, now, window)))
            .map(|(s, _)| *s)
    }

    /// The k-th most recent of the per-sender latest in-window arrivals.
    #[must_use]
    pub fn kth_latest_in_window(
        &self,
        now: LocalTime,
        window: Duration,
        k: usize,
    ) -> Option<LocalTime> {
        if k == 0 {
            return None;
        }
        let mut latest: Vec<LocalTime> = self
            .per_sender
            .values()
            .filter_map(|times| {
                times
                    .iter()
                    .copied()
                    .filter(|t| in_window(*t, now, window))
                    .min_by_key(|t| now.since(*t).as_nanos())
            })
            .collect();
        if latest.len() < k {
            return None;
        }
        latest.sort_by_key(|t| now.since(*t).as_nanos());
        Some(latest[k - 1])
    }

    /// Whether `sender` arrived within the window.
    #[must_use]
    pub fn sender_in_window(&self, now: LocalTime, window: Duration, sender: NodeId) -> bool {
        self.per_sender
            .get(&sender)
            .is_some_and(|times| times.iter().any(|t| in_window(*t, now, window)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> LocalTime {
        LocalTime::from_nanos(n)
    }
    fn dur(n: u64) -> Duration {
        Duration::from_nanos(n)
    }
    fn id(n: u32) -> NodeId {
        NodeId::new(n)
    }

    /// The k-th-latest query has two branches: the 128-slot stack-buffer
    /// sort and the heap-free batched-selection fallback for larger
    /// memberships. Drive both on the same data — with duplicate
    /// timestamps so tie batches are exercised — and pin every answer
    /// against the `BTreeMap` reference model.
    #[test]
    fn kth_latest_fallback_matches_reference_past_inline_cap() {
        let senders = 300u32; // well past the 128-slot inline buffer
        let mut dense = ArrivalLog::new();
        let mut reference = ReferenceArrivalLog::new();
        let now = t(1_000_000);
        for s in 0..senders {
            // Clustered times: every 5th sender shares an instant (tie
            // batches), the rest fan out; a third of senders also carry
            // an older, superseded arrival.
            let at = t(900_000 + u64::from(s / 5) * 50);
            dense.record(at, id(s));
            reference.record(at, id(s));
            if s.is_multiple_of(3) {
                let old = t(800_000 + u64::from(s) * 7);
                dense.record(old, id(s));
                reference.record(old, id(s));
            }
        }
        for window in [0u64, 3_000, 100_000, 150_000, 500_000] {
            for k in [1usize, 2, 64, 128, 129, 200, 299, 300, 301] {
                assert_eq!(
                    dense.kth_latest_in_window(now, dur(window), k),
                    reference.kth_latest_in_window(now, dur(window), k),
                    "kth_latest(window={window}, k={k})"
                );
            }
        }
        // Exactly at the boundary: 128 in-window senders stay on the
        // stack path, 129 take the fallback — answers must agree across
        // the switch.
        for boundary in [128u32, 129] {
            let mut d2 = ArrivalLog::new();
            let mut r2 = ReferenceArrivalLog::new();
            for s in 0..boundary {
                let at = t(990_000 + u64::from(s % 13));
                d2.record(at, id(s));
                r2.record(at, id(s));
            }
            for k in 1..=(boundary as usize + 1) {
                assert_eq!(
                    d2.kth_latest_in_window(now, dur(200_000), k),
                    r2.kth_latest_in_window(now, dur(200_000), k),
                    "boundary {boundary}, k={k}"
                );
            }
        }
    }
}
