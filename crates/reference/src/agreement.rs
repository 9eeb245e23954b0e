//! The value-keyed `ss-Byz-Agree` body (paper Fig. 1, §3): accepted
//! broadcasts in a `BTreeMap<V, _>`, embedding the value-keyed
//! [`MsgdBroadcast`]. The production [`ssbyz_core::Agreement`] is a port
//! of this state machine onto interned value ids.

use std::collections::BTreeMap;

use ssbyz_core::agreement::max_prefix_with_distinct_representatives;
use ssbyz_core::{AgrAction, BcastKind, MsgdAction, Params};
use ssbyz_types::{DenseNodeMap, Duration, LocalTime, NodeId, Value};

use crate::msgd_broadcast::MsgdBroadcast;

/// The value-keyed per-General agreement state machine at one node.
#[derive(Debug, Clone)]
pub struct Agreement<V: Value> {
    general: NodeId,
    params: Params,
    msgd: MsgdBroadcast<V>,
    /// The anchor `τ_G` of the current execution.
    tau_g: Option<LocalTime>,
    /// Accepted broadcasts: value → flat round table (index `round − 1`,
    /// rounds capped at `max_round`) → dense broadcaster map with accept
    /// times for decay.
    accepted: BTreeMap<V, Vec<DenseNodeMap<LocalTime>>>,
    /// Set once one of blocks R/S/T/U executed: `(decision, at)`.
    returned: Option<(Option<V>, LocalTime)>,
    /// When the post-return reset is due.
    reset_due: Option<LocalTime>,
}

impl<V: Value> Agreement<V> {
    /// Creates a fresh instance for `general` at node `me`.
    #[must_use]
    pub fn new(me: NodeId, general: NodeId, params: Params) -> Self {
        Agreement {
            general,
            params,
            msgd: MsgdBroadcast::new(me, params),
            tau_g: None,
            accepted: BTreeMap::new(),
            returned: None,
            reset_due: None,
        }
    }

    /// The anchor of the current execution, if set.
    #[must_use]
    pub fn tau_g(&self) -> Option<LocalTime> {
        self.tau_g
    }

    /// Whether the node has returned (decided or aborted) this execution.
    #[must_use]
    pub fn has_returned(&self) -> bool {
        self.returned.is_some()
    }

    /// Number of broadcasters detected so far ([TPS-4] feeding block T).
    #[must_use]
    pub fn broadcaster_count(&self) -> usize {
        self.msgd.broadcaster_count()
    }

    /// Read-only access to the embedded `msgd-broadcast` state.
    #[must_use]
    pub fn msgd(&self) -> &MsgdBroadcast<V> {
        &self.msgd
    }

    /// Feeds the I-accept `⟨G, m′, τ_G⟩` from `Initiator-Accept`.
    pub fn on_i_accept(
        &mut self,
        now: LocalTime,
        value: V,
        tau_g: LocalTime,
        out: &mut Vec<AgrAction<V>>,
    ) {
        if self.returned.is_some() || self.tau_g.is_some() {
            // At most one setting of τ_G per execution.
            return;
        }
        self.tau_g = Some(tau_g);
        // Schedule the phase-boundary checks for blocks T and U.
        let eps = Duration::from_nanos(1);
        for r in 1..=self.params.f() as u64 {
            out.push(AgrAction::WakeAt(
                tau_g + self.params.phi() * (2 * r + 1) + eps,
            ));
        }
        out.push(AgrAction::WakeAt(tau_g + self.params.delta_agr() + eps));
        // Block R: fresh I-accept ⇒ decide immediately.
        if now.since_or_zero(tau_g) <= self.params.d() * 4u64 && !tau_g.is_after(now) {
            self.decide(now, value, 1, out);
        } else {
            // Late anchor: evaluate buffered broadcast messages now.
            let mut macts = Vec::new();
            self.msgd.on_anchor(now, tau_g, &mut macts);
            self.absorb_msgd(now, macts, out);
        }
    }

    /// Feeds a `msgd-broadcast` wire message.
    #[allow(clippy::too_many_arguments)]
    pub fn on_bcast_ref(
        &mut self,
        now: LocalTime,
        sender: NodeId,
        kind: BcastKind,
        broadcaster: NodeId,
        value: &V,
        round: u32,
        out: &mut Vec<AgrAction<V>>,
    ) {
        let mut macts = Vec::new();
        self.msgd.on_message_ref(
            now,
            sender,
            kind,
            broadcaster,
            value,
            round,
            self.tau_g,
            &mut macts,
        );
        self.absorb_msgd(now, macts, out);
    }

    /// Converts primitive actions into agreement actions, recording accepts
    /// and running block S.
    fn absorb_msgd(
        &mut self,
        now: LocalTime,
        macts: Vec<MsgdAction<V>>,
        out: &mut Vec<AgrAction<V>>,
    ) {
        let mut try_s = false;
        for act in macts {
            match act {
                MsgdAction::Send {
                    kind,
                    broadcaster,
                    value,
                    round,
                } => out.push(AgrAction::SendBcast {
                    kind,
                    broadcaster,
                    value,
                    round,
                }),
                MsgdAction::Accepted {
                    broadcaster,
                    value,
                    round,
                } => {
                    self.record_accepted(value, round, broadcaster, now);
                    try_s = true;
                }
                MsgdAction::BroadcasterDetected(_) => {}
            }
        }
        if try_s {
            self.try_block_s(now, out);
        }
    }

    /// Records one accepted broadcast in the flat per-round table.
    fn record_accepted(&mut self, value: V, round: u32, broadcaster: NodeId, now: LocalTime) {
        if round == 0 || round > self.params.max_round() {
            return; // no legitimate chain uses such a round
        }
        let rounds = self.accepted.entry(value).or_default();
        let idx = round as usize - 1;
        if idx >= rounds.len() {
            rounds.resize_with(idx + 1, DenseNodeMap::new);
        }
        rounds[idx].insert(broadcaster, now);
    }

    /// Block S: decide once a chain of `r` distinct-broadcaster accepts of
    /// one value exists within the round-`r` deadline. Candidates are
    /// scanned in ascending value order; the first with the smallest relay
    /// round wins.
    fn try_block_s(&mut self, now: LocalTime, out: &mut Vec<AgrAction<V>>) {
        if self.returned.is_some() {
            return;
        }
        let Some(tau_g) = self.tau_g else { return };
        let elapsed = now.since_or_zero(tau_g);
        let mut decision: Option<(V, u32)> = None;
        for (value, rounds) in &self.accepted {
            // Sender sets per round 1..: S requires p_i ≠ G (and the chain
            // uses each round exactly once with pairwise distinct senders).
            let mut sets: Vec<Vec<NodeId>> = Vec::new();
            // Chains are capped at r ≤ f: the S deadline for r = f equals
            // the U hard stop, and deciders relay at r + 1 ≤ f + 1.
            for r in 1..=self.params.f() as u32 {
                let senders: Vec<NodeId> = rounds
                    .get(r as usize - 1)
                    .map(|m| m.keys().filter(|p| *p != self.general).collect())
                    .unwrap_or_default();
                if senders.is_empty() {
                    break;
                }
                sets.push(senders);
            }
            let r = max_prefix_with_distinct_representatives(&sets);
            if r == 0 {
                continue;
            }
            let r64 = r as u64;
            if elapsed <= self.params.phi() * (2 * r64 + 1) {
                let better = match &decision {
                    Some((_, cur)) => r as u32 + 1 < *cur,
                    None => true,
                };
                if better {
                    decision = Some((value.clone(), r as u32 + 1));
                }
            }
        }
        if let Some((value, next_round)) = decision {
            self.decide(now, value, next_round, out);
        }
    }

    /// Blocks R3/S3 + return: relay the decision and stop.
    fn decide(&mut self, now: LocalTime, value: V, relay_round: u32, out: &mut Vec<AgrAction<V>>) {
        let tau_g = self.tau_g.expect("decide requires an anchor");
        let mut macts = Vec::new();
        self.msgd
            .invoke(now, value.clone(), relay_round, &mut macts);
        for act in macts {
            if let MsgdAction::Send {
                kind,
                broadcaster,
                value,
                round,
            } = act
            {
                out.push(AgrAction::SendBcast {
                    kind,
                    broadcaster,
                    value,
                    round,
                });
            }
        }
        self.finish(now, Some(value), tau_g, out);
    }

    fn finish(
        &mut self,
        now: LocalTime,
        decision: Option<V>,
        tau_g: LocalTime,
        out: &mut Vec<AgrAction<V>>,
    ) {
        self.returned = Some((decision.clone(), now));
        let due = now + self.params.d() * 3u64;
        self.reset_due = Some(due);
        out.push(AgrAction::WakeAt(due));
        out.push(AgrAction::Returned { decision, tau_g });
    }

    /// Periodic/deadline tick: runs blocks T and U and the post-return
    /// reset.
    pub fn on_tick(&mut self, now: LocalTime, out: &mut Vec<AgrAction<V>>) {
        // Post-return reset: 3d after returning, drop all execution state.
        if let Some(due) = self.reset_due {
            if now.is_at_or_after(due) {
                self.reset_execution();
                out.push(AgrAction::ExecutionReset);
                return;
            }
        }
        if self.returned.is_some() {
            return;
        }
        let Some(tau_g) = self.tau_g else { return };
        let elapsed = now.since_or_zero(tau_g);
        // Block U — hard deadline.
        if elapsed > self.params.delta_agr() {
            self.finish(now, None, tau_g, out);
            return;
        }
        // Block T — early abort when broadcaster detection has stalled.
        if !self.params.early_abort() {
            return;
        }
        let b = self.msgd.broadcaster_count();
        for r in 1..=self.params.f() as u64 {
            if elapsed > self.params.phi() * (2 * r + 1) && b + 1 < r as usize {
                self.finish(now, None, tau_g, out);
                return;
            }
        }
    }

    /// Decay of agreement-level state (Fig. 1 cleanup: "erase any value or
    /// message older than (2f + 1)Φ + 3d") plus the primitive's own decay.
    pub fn cleanup(&mut self, now: LocalTime) {
        let horizon = self.params.agreement_horizon();
        for rounds in self.accepted.values_mut() {
            for senders in rounds.iter_mut() {
                senders.retain(|_, t| !t.is_after(now) && now.since(*t) <= horizon);
            }
            while rounds.last().is_some_and(DenseNodeMap::is_empty) {
                rounds.pop();
            }
        }
        self.accepted
            .retain(|_, rounds| rounds.iter().any(|m| !m.is_empty()));
        // A bogus (future or ancient) anchor with no returned execution
        // decays too — otherwise a corrupted τ_G could wedge the instance.
        if let Some(tau_g) = self.tau_g {
            if self.returned.is_none()
                && (tau_g.is_after(now) && tau_g.since(now) > horizon
                    || now.since_or_zero(tau_g) > horizon)
            {
                self.reset_execution();
            }
        }
        if let Some((_, at)) = &self.returned {
            if at.is_after(now) || now.since(*at) > horizon {
                self.reset_execution();
            }
        }
        self.msgd.cleanup(now);
    }

    /// Drops every trace of the current execution.
    fn reset_execution(&mut self) {
        self.tau_g = None;
        self.accepted.clear();
        self.returned = None;
        self.reset_due = None;
        self.msgd.reset();
    }
}
