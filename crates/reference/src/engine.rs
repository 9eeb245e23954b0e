//! The value-keyed, Vec-returning engine dispatch: the golden model the
//! equivalence batteries (`tests/outbox_equivalence.rs`,
//! `tests/intern_equivalence.rs`) check [`ssbyz_core::Engine`] against,
//! call by call, and the tree-walking baseline of the `store_hot_path`
//! engine benches.
//!
//! [`ReferenceEngine`] owns value-keyed per-General instances
//! ([`InitiatorAccept`], [`Agreement`]) and a `last_per_value:
//! BTreeMap<V, _>` guard, and returns a fresh `Vec<Output<V>>` from every
//! call.

use std::collections::BTreeMap;
use std::sync::Arc;

use ssbyz_core::{AgrAction, Event, IaAction, InitiateError, Msg, Output, Params};
use ssbyz_types::{DenseNodeMap, Duration, LocalTime, NodeId, Value};

use crate::agreement::Agreement;
use crate::initiator_accept::InitiatorAccept;

/// Value-keyed General-side state. Keys are the shared wire handles;
/// `Arc<V>` orders and compares through `V`.
#[derive(Debug, Clone)]
struct RefGeneralControl<V> {
    last_initiation: Option<LocalTime>,
    last_per_value: BTreeMap<Arc<V>, LocalTime>,
    failed_at: Option<LocalTime>,
    pending_checks: Vec<RefPendingCheck<V>>,
}

impl<V: Value> Default for RefGeneralControl<V> {
    fn default() -> Self {
        RefGeneralControl {
            last_initiation: None,
            last_per_value: BTreeMap::new(),
            failed_at: None,
            pending_checks: Vec::new(),
        }
    }
}

#[derive(Debug, Clone)]
struct RefPendingCheck<V> {
    value: Arc<V>,
    invoked_at: LocalTime,
    approve_ok: bool,
    ready_ok: bool,
    accept_ok: bool,
}

/// The value-keyed, Vec-returning engine: one node's complete protocol
/// state.
#[derive(Debug, Clone)]
pub struct ReferenceEngine<V: Value> {
    me: NodeId,
    params: Params,
    ia: DenseNodeMap<InitiatorAccept<Arc<V>>>,
    agr: DenseNodeMap<Agreement<Arc<V>>>,
    general_ctl: RefGeneralControl<V>,
    last_cleanup: Option<LocalTime>,
}

impl<V: Value> ReferenceEngine<V> {
    /// Creates a node engine with entirely fresh state.
    #[must_use]
    pub fn new(me: NodeId, params: Params) -> Self {
        ReferenceEngine {
            me,
            params,
            ia: DenseNodeMap::with_capacity(params.n()),
            agr: DenseNodeMap::with_capacity(params.n()),
            general_ctl: RefGeneralControl::default(),
            last_cleanup: None,
        }
    }

    /// Read access to the value-keyed agreement instance.
    #[must_use]
    pub fn agreement(&self, general: NodeId) -> Option<&Agreement<Arc<V>>> {
        self.agr.get(general)
    }

    /// [`ssbyz_core::Engine::initiate`], with outputs returned by value.
    ///
    /// # Errors
    ///
    /// Returns an [`InitiateError`] when ``[IG1]``–``[IG3]`` would be
    /// violated, exactly as the production engine does.
    pub fn initiate(&mut self, now: LocalTime, value: V) -> Result<Vec<Output<V>>, InitiateError> {
        let value = Arc::new(value);
        let p = self.params;
        if let Some(failed) = self.general_ctl.failed_at {
            let elapsed = now.since_or_zero(failed);
            if failed.is_after(now) || elapsed < p.delta_reset() {
                return Err(InitiateError::BackingOff {
                    wait: p.delta_reset().saturating_sub(elapsed),
                });
            }
        }
        if let Some(last) = self.general_ctl.last_initiation {
            let elapsed = now.since_or_zero(last);
            if last.is_after(now) || elapsed < p.delta_0() {
                return Err(InitiateError::TooSoon {
                    wait: p.delta_0().saturating_sub(elapsed),
                });
            }
        }
        if let Some(last) = self.general_ctl.last_per_value.get(&value) {
            let elapsed = now.since_or_zero(*last);
            if last.is_after(now) || elapsed < p.delta_v() {
                return Err(InitiateError::SameValueTooSoon {
                    wait: p.delta_v().saturating_sub(elapsed),
                });
            }
        }
        let me = self.me;
        self.ia_entry(me).clear_messages_before_initiation();
        self.general_ctl.last_initiation = Some(now);
        self.general_ctl.last_per_value.insert(value.clone(), now);
        self.general_ctl.pending_checks.push(RefPendingCheck {
            value: value.clone(),
            invoked_at: now,
            approve_ok: false,
            ready_ok: false,
            accept_ok: false,
        });
        let d = p.d();
        Ok(vec![
            Output::Broadcast(Msg::Initiator {
                general: self.me,
                value,
            }),
            Output::WakeAt(now + d * 2u64 + Duration::from_nanos(1)),
            Output::WakeAt(now + d * 3u64 + Duration::from_nanos(1)),
            Output::WakeAt(now + d * 4u64 + Duration::from_nanos(1)),
        ])
    }

    /// [`ssbyz_core::Engine::on_message_ref`], returning a fresh output
    /// vector and paying a `BTreeMap<V, _>` walk for every per-value
    /// lookup.
    pub fn on_message_ref(
        &mut self,
        now: LocalTime,
        sender: NodeId,
        msg: &Msg<V>,
    ) -> Vec<Output<V>> {
        let mut out = Vec::new();
        let n = self.params.n();
        if sender.index() >= n || msg.general().index() >= n {
            return out;
        }
        self.cleanup_if_due(now);
        match msg {
            Msg::Initiator { general, value } => {
                if sender != *general {
                    return out;
                }
                let mut ia_out = Vec::new();
                self.ia_entry(*general)
                    .on_initiator_ref(now, value, &mut ia_out);
                self.absorb_ia(now, *general, ia_out, &mut out);
            }
            Msg::Ia {
                kind,
                general,
                value,
            } => {
                let mut ia_out = Vec::new();
                self.ia_entry(*general)
                    .on_message_ref(now, sender, *kind, value, &mut ia_out);
                self.absorb_ia(now, *general, ia_out, &mut out);
            }
            Msg::Bcast {
                kind,
                general,
                broadcaster,
                value,
                round,
            } => {
                if *round == 0 || *round > self.params.max_round() || broadcaster.index() >= n {
                    return out;
                }
                let mut agr_out = Vec::new();
                self.agr_entry(*general).on_bcast_ref(
                    now,
                    sender,
                    *kind,
                    *broadcaster,
                    value,
                    *round,
                    &mut agr_out,
                );
                self.absorb_agr(now, *general, agr_out, &mut out);
            }
        }
        out
    }

    /// [`ssbyz_core::Engine::on_tick`], with outputs returned by value.
    pub fn on_tick(&mut self, now: LocalTime) -> Vec<Output<V>> {
        let mut out = Vec::new();
        self.cleanup_if_due(now);
        let generals: Vec<NodeId> = self.agr.keys().collect();
        for g in generals {
            let mut agr_out = Vec::new();
            if let Some(agr) = self.agr.get_mut(g) {
                agr.on_tick(now, &mut agr_out);
            }
            self.absorb_agr(now, g, agr_out, &mut out);
        }
        self.check_own_initiations(now, &mut out);
        out
    }

    fn check_own_initiations(&mut self, now: LocalTime, out: &mut Vec<Output<V>>) {
        let d = self.params.d();
        let me = self.me;
        let checks = std::mem::take(&mut self.general_ctl.pending_checks);
        let mut keep = Vec::new();
        for mut check in checks {
            if check.invoked_at.is_after(now) {
                continue; // corrupted stamp — drop
            }
            let elapsed = now.since(check.invoked_at);
            let prog = self
                .ia
                .get(me)
                .map(|ia| ia.own_progress(&check.value))
                .unwrap_or_default();
            let ok_since =
                |t: Option<LocalTime>| t.is_some_and(|t| t.is_at_or_after(check.invoked_at));
            check.approve_ok |= ok_since(prog.approve_sent);
            check.ready_ok |= ok_since(prog.ready_sent);
            check.accept_ok |= ok_since(prog.accepted_at);
            if check.accept_ok && check.ready_ok && check.approve_ok {
                continue; // all stages satisfied — done
            }
            let failed = (elapsed > d * 2u64 && !check.approve_ok)
                || (elapsed > d * 3u64 && !check.ready_ok)
                || (elapsed > d * 4u64 && !check.accept_ok);
            if failed {
                self.general_ctl.failed_at = Some(now);
                out.push(Output::Event(Event::InitiationFailed {
                    value: check.value,
                    at: now,
                }));
            } else if elapsed <= d * 4u64 {
                keep.push(check);
            }
        }
        self.general_ctl.pending_checks = keep;
    }

    fn absorb_ia(
        &mut self,
        now: LocalTime,
        general: NodeId,
        ia_out: Vec<IaAction<Arc<V>>>,
        out: &mut Vec<Output<V>>,
    ) {
        for act in ia_out {
            match act {
                IaAction::Send { kind, value } => out.push(Output::Broadcast(Msg::Ia {
                    kind,
                    general,
                    value,
                })),
                IaAction::Accepted { value, tau_g } => {
                    out.push(Output::Event(Event::IAccepted {
                        general,
                        value: value.clone(),
                        tau_g,
                    }));
                    let mut agr_out = Vec::new();
                    self.agr_entry(general)
                        .on_i_accept(now, value, tau_g, &mut agr_out);
                    self.absorb_agr(now, general, agr_out, out);
                }
            }
        }
    }

    fn absorb_agr(
        &mut self,
        now: LocalTime,
        general: NodeId,
        agr_out: Vec<AgrAction<Arc<V>>>,
        out: &mut Vec<Output<V>>,
    ) {
        for act in agr_out {
            match act {
                AgrAction::SendBcast {
                    kind,
                    broadcaster,
                    value,
                    round,
                } => out.push(Output::Broadcast(Msg::Bcast {
                    kind,
                    general,
                    broadcaster,
                    value,
                    round,
                })),
                AgrAction::WakeAt(t) => out.push(Output::WakeAt(t)),
                AgrAction::Returned { decision, tau_g } => {
                    let event = match decision {
                        Some(value) => Event::Decided {
                            general,
                            value,
                            tau_g,
                            at: now,
                        },
                        None => Event::Aborted {
                            general,
                            tau_g,
                            at: now,
                        },
                    };
                    out.push(Output::Event(event));
                }
                AgrAction::ExecutionReset => {
                    if let Some(ia) = self.ia.get_mut(general) {
                        ia.reset_for_next_execution();
                    }
                }
            }
        }
    }

    fn cleanup_if_due(&mut self, now: LocalTime) {
        let cadence = self.params.d();
        if let Some(last) = self.last_cleanup {
            if !last.is_after(now) && now.since(last) < cadence {
                return;
            }
        }
        self.last_cleanup = Some(now);
        for ia in self.ia.values_mut() {
            ia.cleanup(now);
        }
        for agr in self.agr.values_mut() {
            agr.cleanup(now);
        }
        let p = self.params;
        if let Some(t) = self.general_ctl.last_initiation {
            if t.is_after(now) || now.since(t) > p.delta_0() {
                self.general_ctl.last_initiation = None;
            }
        }
        self.general_ctl
            .last_per_value
            .retain(|_, t| !t.is_after(now) && now.since(*t) <= p.delta_v());
        if let Some(t) = self.general_ctl.failed_at {
            if t.is_after(now) || now.since(t) > p.delta_reset() {
                self.general_ctl.failed_at = None;
            }
        }
        self.general_ctl
            .pending_checks
            .retain(|c| !c.invoked_at.is_after(now) && now.since(c.invoked_at) <= p.d() * 8u64);
        self.agr.retain(|_, a| {
            a.tau_g().is_some()
                || a.has_returned()
                || a.broadcaster_count() > 0
                || a.msgd().triplet_count() > 0
        });
    }

    fn ia_entry(&mut self, general: NodeId) -> &mut InitiatorAccept<Arc<V>> {
        let params = self.params;
        self.ia
            .get_or_insert_with(general, || InitiatorAccept::new(params))
    }

    fn agr_entry(&mut self, general: NodeId) -> &mut Agreement<Arc<V>> {
        let me = self.me;
        let params = self.params;
        self.agr
            .get_or_insert_with(general, || Agreement::new(me, general, params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssbyz_core::{Engine, IaKind, Outbox};

    const D: u64 = 10_000_000;

    #[test]
    fn reference_engine_matches_interned_on_clean_run() {
        // Smoke-level equivalence (the full batteries live in
        // tests/{outbox,intern}_equivalence.rs): a support wave produces
        // identical outputs from both dispatchers.
        let p = Params::from_d(4, 1, Duration::from_nanos(D), 0).unwrap();
        let id = NodeId::new;
        let mut interned: Engine<u64> = Engine::new(id(1), p);
        let mut golden = ReferenceEngine::new(id(1), p);
        let mut ob = Outbox::new();
        for (i, s) in [0u32, 0, 2, 2, 3].iter().enumerate() {
            let msg = Msg::Ia {
                kind: IaKind::Support,
                general: id(0),
                value: Arc::new(7),
            };
            let now = LocalTime::from_nanos(100_000 * D + i as u64);
            interned.on_message_ref(now, id(*s), &msg, &mut ob);
            let want = golden.on_message_ref(now, id(*s), &msg);
            assert_eq!(ob.outputs(), want.as_slice(), "delivery {i}");
        }
    }
}
