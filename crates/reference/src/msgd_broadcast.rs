//! The value-keyed `msgd-broadcast` (paper Fig. 3, §5): per-value triplet
//! tables in a `BTreeMap<V, _>`. The production
//! [`ssbyz_core::MsgdBroadcast`] is a port of this state machine onto
//! interned value ids.

use std::collections::BTreeMap;

use ssbyz_core::msgd_broadcast::MAX_TRACKED_TRIPLETS;
use ssbyz_core::store::ArrivalLog;
use ssbyz_core::{BcastKind, MsgdAction, Params};
use ssbyz_types::{DenseNodeMap, LocalTime, NodeId, Value};

/// Per-triplet message state.
#[derive(Debug, Clone, Default)]
struct TripletState {
    /// Arrival of `(init, p, m, k)` from `p` itself.
    init_from_p: Option<LocalTime>,
    echo: ArrivalLog,
    init_prime: ArrivalLog,
    echo_prime: ArrivalLog,
    /// "Nodes send specific messages only once."
    sent: [bool; 4],
    accepted_at: Option<LocalTime>,
    /// Most recent arrival, for decay.
    touched: Option<LocalTime>,
}

impl TripletState {
    fn is_dormant(&self) -> bool {
        self.init_from_p.is_none()
            && self.echo.is_empty()
            && self.init_prime.is_empty()
            && self.echo_prime.is_empty()
            && self.accepted_at.is_none()
            && !self.sent.iter().any(|b| *b)
    }
}

/// One broadcaster's per-round triplet states for a single value, indexed
/// flat by `round − 1` (rounds are validated to `1..=max_round`).
#[derive(Debug, Clone, Default)]
struct RoundSlots {
    rounds: Vec<Option<TripletState>>,
}

impl RoundSlots {
    fn get(&self, round: u32) -> Option<&TripletState> {
        self.rounds
            .get((round as usize).wrapping_sub(1))
            .and_then(Option::as_ref)
    }

    fn get_mut(&mut self, round: u32) -> Option<&mut TripletState> {
        self.rounds
            .get_mut((round as usize).wrapping_sub(1))
            .and_then(Option::as_mut)
    }

    /// Creates the slot for `round` if missing; returns whether it was
    /// newly created (so the owner can maintain its triplet counter).
    fn ensure(&mut self, round: u32) -> (&mut TripletState, bool) {
        let idx = round as usize - 1;
        if idx >= self.rounds.len() {
            self.rounds.resize_with(idx + 1, || None);
        }
        let slot = &mut self.rounds[idx];
        let fresh = slot.is_none();
        if fresh {
            *slot = Some(TripletState::default());
        }
        (slot.as_mut().expect("just filled"), fresh)
    }

    fn is_empty(&self) -> bool {
        self.rounds.iter().all(Option::is_none)
    }
}

/// One node's value-keyed `msgd-broadcast` machinery inside the agreement
/// instance of one General.
#[derive(Debug, Clone)]
pub struct MsgdBroadcast<V: Value> {
    me: NodeId,
    params: Params,
    /// Per value: a dense per-broadcaster table of per-round states.
    triplets: BTreeMap<V, DenseNodeMap<RoundSlots>>,
    /// Live [`TripletState`] count across all values (memory bound).
    triplet_count: usize,
    broadcasters: DenseNodeMap<LocalTime>,
}

impl<V: Value> MsgdBroadcast<V> {
    /// Creates fresh (empty) broadcast state.
    #[must_use]
    pub fn new(me: NodeId, params: Params) -> Self {
        MsgdBroadcast {
            me,
            params,
            triplets: BTreeMap::new(),
            triplet_count: 0,
            broadcasters: DenseNodeMap::with_capacity(params.n()),
        }
    }

    fn triplet(&self, broadcaster: NodeId, round: u32, value: &V) -> Option<&TripletState> {
        self.triplets
            .get(value)
            .and_then(|pv| pv.get(broadcaster))
            .and_then(|slots| slots.get(round))
    }

    fn triplet_entry<'a>(
        triplets: &'a mut BTreeMap<V, DenseNodeMap<RoundSlots>>,
        triplet_count: &mut usize,
        broadcaster: NodeId,
        round: u32,
        value: &V,
    ) -> &'a mut TripletState {
        if !triplets.contains_key(value) {
            triplets.insert(value.clone(), DenseNodeMap::new());
        }
        let per_value = triplets.get_mut(value).expect("just ensured present");
        let slots = per_value.get_or_insert_with(broadcaster, RoundSlots::default);
        let (st, fresh) = slots.ensure(round);
        if fresh {
            *triplet_count += 1;
        }
        st
    }

    /// Block V: this node invokes `msgd-broadcast(me, value, round)`.
    pub fn invoke(&mut self, now: LocalTime, value: V, round: u32, out: &mut Vec<MsgdAction<V>>) {
        if round == 0 || round > self.params.max_round() {
            return;
        }
        let me = self.me;
        let st = Self::triplet_entry(
            &mut self.triplets,
            &mut self.triplet_count,
            me,
            round,
            &value,
        );
        if st.sent[BcastKind::Init as usize] {
            return;
        }
        st.sent[BcastKind::Init as usize] = true;
        st.touched = Some(now);
        out.push(MsgdAction::Send {
            kind: BcastKind::Init,
            broadcaster: self.me,
            value,
            round,
        });
    }

    /// Feeds a primitive message from authenticated `sender`. `anchor` is
    /// the node's `τ_G` if already set; without it the message is only
    /// logged. The payload is cloned only on first sight of a value.
    #[allow(clippy::too_many_arguments)]
    pub fn on_message_ref(
        &mut self,
        now: LocalTime,
        sender: NodeId,
        kind: BcastKind,
        broadcaster: NodeId,
        value: &V,
        round: u32,
        anchor: Option<LocalTime>,
        out: &mut Vec<MsgdAction<V>>,
    ) {
        if round == 0 || round > self.params.max_round() {
            return; // bogus round — no legitimate broadcast uses it
        }
        if broadcaster.index() >= self.params.n() || sender.index() >= self.params.n() {
            return; // claimed broadcaster or sender outside the membership
        }
        if self.triplet_count >= MAX_TRACKED_TRIPLETS
            && self.triplet(broadcaster, round, value).is_none()
        {
            return; // bound memory against triplet-minting adversaries
        }
        let st = Self::triplet_entry(
            &mut self.triplets,
            &mut self.triplet_count,
            broadcaster,
            round,
            value,
        );
        st.touched = Some(now);
        match kind {
            BcastKind::Init => {
                // Only an init from the broadcaster itself counts (W2).
                if sender == broadcaster && st.init_from_p.is_none() {
                    st.init_from_p = Some(now);
                }
            }
            BcastKind::Echo => st.echo.record(now, sender),
            BcastKind::InitPrime => st.init_prime.record(now, sender),
            BcastKind::EchoPrime => st.echo_prime.record(now, sender),
        }
        if let Some(anchor) = anchor {
            self.evaluate_triplet(now, anchor, broadcaster, round, value, out);
        }
    }

    /// Called when the anchor `τ_G` becomes known: evaluates every logged
    /// triplet against it, in `(value, broadcaster, round)` order.
    pub fn on_anchor(&mut self, now: LocalTime, anchor: LocalTime, out: &mut Vec<MsgdAction<V>>) {
        let keys: Vec<(NodeId, u32, V)> = self
            .triplets
            .iter()
            .flat_map(|(v, pv)| {
                pv.iter().flat_map(move |(p, slots)| {
                    slots
                        .rounds
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.is_some())
                        .map(move |(i, _)| (p, i as u32 + 1, v.clone()))
                })
            })
            .collect();
        for (p, k, v) in keys {
            self.evaluate_triplet(now, anchor, p, k, &v, out);
        }
    }

    /// Runs blocks W–Z for one triplet.
    fn evaluate_triplet(
        &mut self,
        now: LocalTime,
        anchor: LocalTime,
        broadcaster: NodeId,
        round: u32,
        value: &V,
        out: &mut Vec<MsgdAction<V>>,
    ) {
        let phi = self.params.phi();
        let weak = self.params.weak_quorum();
        let strong = self.params.quorum();
        // Elapsed local time since the anchor; a (bogus) future anchor
        // behaves as "just set".
        let elapsed = now.since_or_zero(anchor);
        let k = u64::from(round);
        let Some(st) = self
            .triplets
            .get_mut(value)
            .and_then(|pv| pv.get_mut(broadcaster))
            .and_then(|slots| slots.get_mut(round))
        else {
            return;
        };
        let mut accepted = false;
        let mut detected = false;
        // All `Send` actions precede `BroadcasterDetected`/`Accepted` in
        // the output; sends are pushed inline as blocks W–Z fire.
        let send = |kind: BcastKind, out: &mut Vec<MsgdAction<V>>| {
            out.push(MsgdAction::Send {
                kind,
                broadcaster,
                value: value.clone(),
                round,
            });
        };

        // Block W — by τ_G + 2kΦ.
        if elapsed <= phi * (2 * k)
            && st.init_from_p.is_some()
            && !st.sent[BcastKind::Echo as usize]
        {
            st.sent[BcastKind::Echo as usize] = true;
            send(BcastKind::Echo, out);
        }
        // Block X — by τ_G + (2k+1)Φ.
        if elapsed <= phi * (2 * k + 1) {
            if st.echo.distinct_total() >= weak && !st.sent[BcastKind::InitPrime as usize] {
                st.sent[BcastKind::InitPrime as usize] = true;
                send(BcastKind::InitPrime, out);
            }
            if st.echo.distinct_total() >= strong && st.accepted_at.is_none() {
                st.accepted_at = Some(now);
                accepted = true;
            }
        }
        // Block Y — by τ_G + (2k+2)Φ.
        if elapsed <= phi * (2 * k + 2) {
            if st.init_prime.distinct_total() >= weak && !self.broadcasters.contains(broadcaster) {
                detected = true;
            }
            if st.init_prime.distinct_total() >= strong && !st.sent[BcastKind::EchoPrime as usize] {
                st.sent[BcastKind::EchoPrime as usize] = true;
                send(BcastKind::EchoPrime, out);
            }
        }
        // Block Z — untimed.
        if st.echo_prime.distinct_total() >= weak && !st.sent[BcastKind::EchoPrime as usize] {
            st.sent[BcastKind::EchoPrime as usize] = true;
            send(BcastKind::EchoPrime, out);
        }
        if st.echo_prime.distinct_total() >= strong && st.accepted_at.is_none() {
            st.accepted_at = Some(now);
            accepted = true;
        }
        if detected {
            self.broadcasters.insert(broadcaster, now);
            out.push(MsgdAction::BroadcasterDetected(broadcaster));
        }
        if accepted {
            out.push(MsgdAction::Accepted {
                broadcaster,
                value: value.clone(),
                round,
            });
        }
    }

    /// Number of detected broadcasters (block T of the agreement).
    #[must_use]
    pub fn broadcaster_count(&self) -> usize {
        self.broadcasters.len()
    }

    /// Number of triplets with live (logged) state — includes messages
    /// buffered before the anchor exists.
    #[must_use]
    pub fn triplet_count(&self) -> usize {
        self.triplet_count
    }

    /// Fig. 3 cleanup: messages older than `(2f + 3)Φ` decay, as do
    /// future-stamped residues.
    pub fn cleanup(&mut self, now: LocalTime) {
        let horizon = self.params.msgd_horizon();
        let stale =
            |t: Option<LocalTime>| t.is_some_and(|t| t.is_after(now) || now.since(t) > horizon);
        let mut removed = 0usize;
        self.triplets.retain(|_, per_value| {
            per_value.retain(|_, slots| {
                for slot in &mut slots.rounds {
                    let Some(st) = slot.as_mut() else { continue };
                    st.echo.prune(now, horizon);
                    st.init_prime.prune(now, horizon);
                    st.echo_prime.prune(now, horizon);
                    if stale(st.init_from_p) {
                        st.init_from_p = None;
                    }
                    if stale(st.accepted_at) {
                        st.accepted_at = None;
                    }
                    if stale(st.touched) {
                        st.touched = None;
                        st.sent = [false; 4];
                    }
                    if st.is_dormant() {
                        *slot = None;
                        removed += 1;
                    }
                }
                !slots.is_empty()
            });
            !per_value.is_empty()
        });
        self.triplet_count -= removed;
        self.broadcasters
            .retain(|_, t| !t.is_after(now) && now.since(*t) <= horizon);
    }

    /// Drops all state (3d after the surrounding agreement returned).
    pub fn reset(&mut self) {
        self.triplets.clear();
        self.triplet_count = 0;
        self.broadcasters.clear();
    }
}
