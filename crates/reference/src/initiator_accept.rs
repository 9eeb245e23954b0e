//! The value-keyed `Initiator-Accept` (paper Fig. 2, §4): per-value state
//! in a `BTreeMap<V, _>`. The production [`ssbyz_core::InitiatorAccept`]
//! is a port of this state machine onto interned value ids.

use std::collections::BTreeMap;

use ssbyz_core::initiator_accept::MAX_TRACKED_VALUES;
use ssbyz_core::store::{ArrivalLog, TimedVar};
use ssbyz_core::{IaAction, IaKind, OwnProgress, Params};
use ssbyz_types::{Duration, LocalTime, NodeId, Value};

/// Per-value state of the primitive.
#[derive(Debug, Clone, Default)]
struct ValueState {
    /// `i_values[G, m]`: the recorded local-time estimate.
    i_value: Option<LocalTime>,
    /// `last(G, m)` with change history for the `τq − d` query of line K1.
    last_gm: TimedVar<LocalTime>,
    /// The `ready(G, m)` flag, stamped for decay.
    ready_at: Option<LocalTime>,
    support: ArrivalLog,
    approve: ArrivalLog,
    ready: ArrivalLog,
    /// "ignore all (G, m) messages for 3d" after line N4.
    ignore_until: Option<LocalTime>,
    /// Last send time per [`IaKind`] (resend de-duplication + ``[IG3]``).
    sent: [Option<LocalTime>; 3],
    /// When this node executed N4 for this value.
    accepted_at: Option<LocalTime>,
    /// Most recent touch of any kind, for eviction.
    touched: Option<LocalTime>,
}

impl ValueState {
    fn is_dormant(&self) -> bool {
        self.i_value.is_none()
            && self.ready_at.is_none()
            && self.support.is_empty()
            && self.approve.is_empty()
            && self.ready.is_empty()
            && self.ignore_until.is_none()
            && self.last_gm.is_fresh()
            && self.sent.iter().all(Option::is_none)
            && self.accepted_at.is_none()
    }

    fn log_mut(&mut self, kind: IaKind) -> &mut ArrivalLog {
        match kind {
            IaKind::Support => &mut self.support,
            IaKind::Approve => &mut self.approve,
            IaKind::Ready => &mut self.ready,
        }
    }
}

/// One instance of the value-keyed `Initiator-Accept` primitive: node
/// `me`'s view of General `general`.
#[derive(Debug, Clone)]
pub struct InitiatorAccept<V: Value> {
    params: Params,
    values: BTreeMap<V, ValueState>,
    /// `last(G)` with change history.
    last_g: TimedVar<LocalTime>,
    /// Times at which *this node* sent `(support, G, ·)` — line K1 window.
    own_support_times: Vec<LocalTime>,
}

impl<V: Value> InitiatorAccept<V> {
    /// Creates a fresh instance (all variables ⊥, no messages).
    #[must_use]
    pub fn new(params: Params) -> Self {
        InitiatorAccept {
            params,
            values: BTreeMap::new(),
            last_g: TimedVar::new(),
            own_support_times: Vec::new(),
        }
    }

    /// Block K: the primitive is explicitly invoked by an authenticated
    /// `(Initiator, G, m)` message from the General. The value is cloned
    /// only when the guards pass and state must actually be created.
    pub fn on_initiator_ref(&mut self, now: LocalTime, value: &V, out: &mut Vec<IaAction<V>>) {
        if self.is_ignoring(value, now) {
            return;
        }
        let d = self.params.d();
        // K1 — all four guards.
        let other_i_value = self
            .values
            .iter()
            .any(|(v, st)| v != value && st.i_value.is_some());
        let last_g_set = self.last_g.get().is_some();
        let recent_own_support = self
            .own_support_times
            .iter()
            .any(|t| !t.is_after(now) && now.since(*t) <= d);
        let last_gm_set_d_ago = self
            .values
            .get(value)
            .is_some_and(|st| st.last_gm.at(now - d).is_some());
        if other_i_value || last_g_set || recent_own_support || last_gm_set_d_ago {
            return;
        }
        // K2 — record time (d before now: the message took up to d to
        // arrive), support the value, stamp last(G, m).
        let st = self.state_mut(now, value);
        st.i_value = Some(now - d);
        st.last_gm.set(now, now);
        st.touched = Some(now);
        self.send(now, IaKind::Support, value.clone(), out);
        self.evaluate(now, value, out);
    }

    /// Feeds a stage message from an authenticated `sender` and runs
    /// blocks L/M/N for the value. Duplicate and suppressed deliveries
    /// never clone the payload.
    pub fn on_message_ref(
        &mut self,
        now: LocalTime,
        sender: NodeId,
        kind: IaKind,
        value: &V,
        out: &mut Vec<IaAction<V>>,
    ) {
        if sender.index() >= self.params.n() {
            return; // sender outside the fixed membership
        }
        if self.is_ignoring(value, now) {
            return;
        }
        let st = self.state_mut(now, value);
        st.log_mut(kind).record(now, sender);
        st.touched = Some(now);
        self.evaluate(now, value, out);
    }

    /// Runs lines L1–N4 for `value` against the current logs.
    fn evaluate(&mut self, now: LocalTime, value: &V, out: &mut Vec<IaAction<V>>) {
        let d = self.params.d();
        let weak = self.params.weak_quorum();
        let strong = self.params.quorum();
        let Some(st) = self.values.get_mut(value) else {
            return;
        };

        // L1/L2 — shortest suffix window of ≤ 4d holding a weak quorum of
        // supports; record max(i_value, t_k − 2d).
        if let Some(tk) = st.support.kth_latest_in_window(now, d * 4u64, weak) {
            let candidate = tk - d * 2u64;
            st.i_value = Some(match st.i_value {
                Some(cur) if cur.is_after(candidate) => cur,
                _ => candidate,
            });
            st.last_gm.set(now, now);
        }
        // L3/L4 — strong quorum of supports within 2d ⇒ approve.
        let mut send_approve = false;
        if st.support.distinct_in_window(now, d * 2u64) >= strong {
            send_approve = true;
            st.last_gm.set(now, now);
        }
        // M1/M2 — weak quorum of approves within 5d ⇒ arm ready flag.
        if st.approve.distinct_in_window(now, d * 5u64) >= weak {
            st.ready_at = Some(now);
            st.last_gm.set(now, now);
        }
        // M3/M4 — strong quorum of approves within 3d ⇒ send ready.
        let mut send_ready = false;
        if st.approve.distinct_in_window(now, d * 3u64) >= strong {
            send_ready = true;
            st.last_gm.set(now, now);
        }
        // N1/N2 — untimed: armed + weak quorum of readys ⇒ amplify.
        if st.ready_at.is_some() && st.ready.distinct_total() >= weak {
            send_ready = true;
            st.last_gm.set(now, now);
        }
        // N3/N4 — armed + strong quorum of readys ⇒ I-accept.
        let mut accept: Option<(V, LocalTime)> = None;
        let mut flush_wave = false;
        if st.accepted_at.is_none() && st.ready_at.is_some() && st.ready.distinct_total() >= strong
        {
            if let Some(tau_g) = st.i_value {
                accept = Some((value.clone(), tau_g));
            } else {
                // Stabilization guard: a ready quorum without a recorded
                // i_value can only be transient-fault residue (the paper's
                // Lemma 2 shows the estimate is always defined once the
                // system is stable). Flush the bogus wave rather than
                // accept an undefined anchor.
                flush_wave = true;
            }
        }

        if send_approve {
            self.send(now, IaKind::Approve, value.clone(), out);
        }
        if send_ready {
            self.send(now, IaKind::Ready, value.clone(), out);
        }
        if flush_wave {
            let st = self.values.get_mut(value).expect("state exists");
            st.support.clear();
            st.approve.clear();
            st.ready.clear();
            st.ready_at = None;
            st.ignore_until = Some(now + d * 3u64);
        }
        if let Some((v, tau_g)) = accept {
            self.do_accept(now, &v, tau_g, out);
        }
    }

    /// Line N4 body.
    fn do_accept(
        &mut self,
        now: LocalTime,
        value: &V,
        tau_g: LocalTime,
        out: &mut Vec<IaAction<V>>,
    ) {
        let d = self.params.d();
        // i_values[G, ∗] := ⊥ for every value.
        for st in self.values.values_mut() {
            st.i_value = None;
        }
        let st = self.values.get_mut(value).expect("state exists");
        st.support.clear();
        st.approve.clear();
        st.ready.clear();
        st.ignore_until = Some(now + d * 3u64);
        st.accepted_at = Some(now);
        st.last_gm.set(now, now);
        self.last_g.set(now, now);
        out.push(IaAction::Accepted {
            value: value.clone(),
            tau_g,
        });
    }

    /// Whether `(G, m)` messages are currently being ignored (3d after an
    /// I-accept of `m`).
    fn is_ignoring(&self, value: &V, now: LocalTime) -> bool {
        self.values
            .get(value)
            .and_then(|st| st.ignore_until)
            .is_some_and(|until| until.is_after(now))
    }

    fn state_mut(&mut self, now: LocalTime, value: &V) -> &mut ValueState {
        if !self.values.contains_key(value) {
            if self.values.len() >= MAX_TRACKED_VALUES {
                // Evict the least-recently-touched value to bound memory
                // under a value-minting Byzantine General.
                if let Some(evict) = self
                    .values
                    .iter()
                    .max_by_key(|(_, st)| {
                        st.touched
                            .map_or(u64::MAX, |t| now.since_or_zero(t).as_nanos())
                    })
                    .map(|(v, _)| v.clone())
                {
                    self.values.remove(&evict);
                }
            }
            // The only place the hot path clones the payload: first sight
            // of a value.
            self.values.insert(value.clone(), ValueState::default());
        }
        self.values.get_mut(value).expect("just ensured present")
    }

    fn send(&mut self, now: LocalTime, kind: IaKind, value: V, out: &mut Vec<IaAction<V>>) {
        let gap = self.params.resend_gap();
        let st = self.state_mut(now, &value);
        let slot = &mut st.sent[kind as usize];
        if slot.is_some_and(|last| !last.is_after(now) && now.since(last) < gap) {
            return;
        }
        *slot = Some(now);
        if kind == IaKind::Support {
            self.own_support_times.push(now);
        }
        out.push(IaAction::Send { kind, value });
    }

    /// Fig. 2 cleanup: decays every message, value and guard variable.
    /// Entries stamped in the future of `now` are treated as transient
    /// residue and dropped.
    pub fn cleanup(&mut self, now: LocalTime) {
        let p = self.params;
        let d = p.d();
        let rmv = p.delta_rmv();
        let expired = |t: Option<LocalTime>, horizon: Duration| {
            t.is_some_and(|t| t.is_after(now) || now.since(t) > horizon)
        };
        for st in self.values.values_mut() {
            st.support.prune(now, rmv);
            st.approve.prune(now, rmv);
            st.ready.prune(now, rmv);
            if expired(st.i_value, rmv) {
                st.i_value = None;
            }
            if expired(st.ready_at, rmv) {
                st.ready_at = None;
            }
            if let Some(until) = st.ignore_until {
                // Expired, or stamped absurdly far in the future.
                if !until.is_after(now) || until.since(now) > d * 3u64 {
                    st.ignore_until = None;
                }
            }
            for slot in &mut st.sent {
                if expired(*slot, rmv) {
                    *slot = None;
                }
            }
            if expired(st.accepted_at, rmv) {
                st.accepted_at = None;
            }
            // last(G, m) expiry: > τq or < τq − (2Δ_rmv + 9d).
            let gm_expiry = p.last_gm_expiry();
            if expired(st.last_gm.get().copied(), gm_expiry) {
                st.last_gm.clear(now);
            }
            st.last_gm.prune(now, gm_expiry + d * 2u64);
            // Line K1 only ever queries the history at τq − d: superseded
            // entries past 2d of lookback are dead weight minted at spam
            // rate — compact them.
            st.last_gm.compact_history(now, d * 2u64);
            if expired(st.touched, rmv * 2u64 + d * 16u64) {
                st.touched = None;
            }
        }
        self.values.retain(|_, st| !st.is_dormant());
        // last(G) expiry: > τq or < τq − (Δ0 − 6d).
        if expired(self.last_g.get().copied(), p.last_g_expiry()) {
            self.last_g.clear(now);
        }
        self.last_g.prune(now, p.last_g_expiry() + d * 2u64);
        self.last_g.compact_history(now, d * 2u64);
        self.own_support_times
            .retain(|t| !t.is_after(now) && now.since(*t) <= d * 2u64);
    }

    /// Reset after the surrounding agreement returned (3d grace included
    /// by the caller): clears logs, estimates and the accept latch but
    /// **keeps** the `last(G)` / `last(G, m)` guards, which enforce the
    /// initiation-spacing rules across executions and expire on their own
    /// schedule.
    pub fn reset_for_next_execution(&mut self) {
        for st in self.values.values_mut() {
            st.i_value = None;
            st.ready_at = None;
            st.support.clear();
            st.approve.clear();
            st.ready.clear();
            st.ignore_until = None;
            st.sent = [None; 3];
            st.accepted_at = None;
        }
        self.own_support_times.clear();
        self.values.retain(|_, st| !st.is_dormant());
    }

    /// The General clears all messages of previous invocations of its own
    /// primitive before initiating (paper §4). Guards are kept.
    pub fn clear_messages_before_initiation(&mut self) {
        for st in self.values.values_mut() {
            st.support.clear();
            st.approve.clear();
            st.ready.clear();
            st.ready_at = None;
        }
    }

    /// This node's own sending progress for `value` (``[IG3]`` detection).
    #[must_use]
    pub fn own_progress(&self, value: &V) -> OwnProgress {
        let Some(st) = self.values.get(value) else {
            return OwnProgress::default();
        };
        OwnProgress {
            approve_sent: st.sent[IaKind::Approve as usize],
            ready_sent: st.sent[IaKind::Ready as usize],
            accepted_at: st.accepted_at,
        }
    }
}
