//! The correctness gate every run passes through: each correct node's
//! committed log is gap-free and in slot order, agrees with every other
//! log on their common prefix, and holds only submitted values, each
//! at most once. Commits still missing at the deadline are not
//! violations; they are counted, and reported as the missing share.

use std::collections::HashSet;

/// Result of gating one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Gate {
    /// Expected (value, node) commits: submitted values × nodes.
    pub expected: u64,
    /// Expected commits absent from the logs at the deadline.
    pub missing: u64,
    /// Safety violations found (empty means the run is correct).
    pub violations: Vec<String>,
}

impl Gate {
    /// Folds another run's gate into this one.
    pub fn merge(&mut self, other: Gate) {
        self.expected += other.expected;
        self.missing += other.missing;
        self.violations.extend(other.violations);
    }
}

/// Gates per-node committed logs `(slot, value)` against the values the
/// client submitted.
#[must_use]
pub fn check_logs(logs: &[Vec<(u64, u64)>], submitted: &[u64]) -> Gate {
    let mut violations = Vec::new();
    let allowed: HashSet<u64> = submitted.iter().copied().collect();
    let mut present = 0u64;
    for (node, log) in logs.iter().enumerate() {
        if let Some((i, (slot, _))) = log
            .iter()
            .enumerate()
            .find(|(i, (slot, _))| *slot != *i as u64)
        {
            violations.push(format!(
                "node {node}: commit #{i} is slot {slot} (slot skipped or reordered)"
            ));
        }
        let mut seen = HashSet::new();
        for &(slot, value) in log {
            if !allowed.contains(&value) {
                violations.push(format!(
                    "node {node}: slot {slot} holds {value}, never submitted"
                ));
            } else if !seen.insert(value) {
                violations.push(format!("node {node}: value {value} committed twice"));
            }
        }
        present += seen.len() as u64;
    }
    // Two logs that disagree inside their common prefix cannot both
    // agree with the longest one, so comparing against it suffices.
    if let Some((longest, reference)) = logs.iter().enumerate().max_by_key(|(_, l)| l.len()) {
        for (node, log) in logs.iter().enumerate() {
            if log[..] != reference[..log.len()] {
                violations.push(format!(
                    "nodes {node} and {longest} diverge within their common prefix"
                ));
            }
        }
    }
    let expected = (submitted.len() * logs.len()) as u64;
    Gate {
        expected,
        missing: expected.saturating_sub(present),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(values: &[u64]) -> Vec<(u64, u64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn healthy_logs_pass_and_count_missing() {
        let g = check_logs(&[log(&[5, 6, 7]), log(&[5, 6])], &[5, 6, 7]);
        assert!(g.violations.is_empty(), "{:?}", g.violations);
        assert_eq!((g.expected, g.missing), (6, 1));
    }

    #[test]
    fn every_violation_kind_is_reported() {
        let skipped = vec![(0, 5), (2, 6)];
        let g = check_logs(&[skipped], &[5, 6]);
        assert!(g.violations[0].contains("skipped"));
        let g = check_logs(&[log(&[5, 9])], &[5, 6]);
        assert!(g.violations[0].contains("never submitted"));
        let g = check_logs(&[log(&[5, 5])], &[5, 6]);
        assert!(g.violations[0].contains("twice"));
        let g = check_logs(&[log(&[5, 6]), log(&[6])], &[5, 6]);
        assert!(g.violations[0].contains("diverge"));
    }
}
