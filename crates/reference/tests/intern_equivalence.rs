//! Golden-model equivalence battery for the value-interned engine
//! dispatch: over random message/tick/initiate interleavings — including
//! Byzantine duplicates, forged senders, out-of-membership ids and
//! out-of-order re-deliveries — the interned [`Engine`] must produce
//! **bit-identical** output sequences to the retained value-keyed
//! `BTreeMap` dispatch (`ssbyz_reference::ReferenceEngine`), call by
//! call.
//!
//! Two value types drive the battery:
//!
//! * `u64` — the plain case (distinct hashes, cheap clones);
//! * [`Collide`] — a hash-collision-forcing `Value` impl whose hash
//!   carries a single bit, so every intern/lookup walks a probe chain and
//!   equality (not hashing) must be what distinguishes values.
//!
//! The deterministic tests at the bottom pin the reclaim/reuse story: a
//! `ValueId` whose state has fully decayed is reclaimed by the sweep, its
//! slot is recycled for a fresh value, and neither the recycled slot nor
//! the re-interned old value inherits any guard state — the `last(G, m)`
//! and ``[IG2]`` suppressions behave exactly as the value-keyed golden
//! model across the cycle.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use proptest::prelude::*;
use ssbyz_core::{BcastKind, Engine, IaKind, InitiateError, Msg, Outbox, Output, Params, Value};
use ssbyz_reference::ReferenceEngine;
use ssbyz_types::{Duration, LocalTime, NodeId};

const D: u64 = 10_000_000; // 10ms in ns

/// A value whose hash retains a single bit: values `0..k` land in two
/// buckets, forcing the interner's open-addressed table through its probe
/// chains on every intern and lookup.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Collide(u64);

impl Hash for Collide {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.0 % 2).hash(state);
    }
}

/// One raw generated op, decoded by [`decode`].
type RawOp = (u32, u32, u64, u32, u32, u64);

enum Op<V> {
    Deliver { sender: NodeId, msg: Msg<V> },
    ReplayEarlier { index: usize },
    Tick,
    Initiate { value: V },
    JumpTick { factor: u64 },
}

fn decode<V: Value>(
    (sel, sender, value, aux, round, _dt): RawOp,
    make: &impl Fn(u64) -> V,
) -> Op<V> {
    let sender_id = NodeId::new(sender);
    match sel {
        // Initiator messages; forged whenever `aux != sender`.
        0..=9 => Op::Deliver {
            sender: sender_id,
            msg: Msg::Initiator {
                general: NodeId::new(aux),
                value: Arc::new(make(value)),
            },
        },
        // Initiator-Accept stage messages.
        10..=39 => Op::Deliver {
            sender: sender_id,
            msg: Msg::Ia {
                kind: IaKind::ALL[(sel % 3) as usize],
                general: NodeId::new(aux),
                value: Arc::new(make(value)),
            },
        },
        // msgd-broadcast stage messages (bogus rounds included).
        40..=69 => Op::Deliver {
            sender: sender_id,
            msg: Msg::Bcast {
                kind: BcastKind::ALL[(sel % 4) as usize],
                general: NodeId::new(sel % 8),
                broadcaster: NodeId::new(aux),
                value: Arc::new(make(value)),
                round,
            },
        },
        // Byzantine duplicate: re-deliver an earlier message now.
        70..=79 => Op::ReplayEarlier {
            index: aux as usize,
        },
        80..=89 => Op::Tick,
        90..=94 => Op::Initiate { value: make(value) },
        _ => Op::JumpTick {
            factor: u64::from(sel - 94),
        },
    }
}

/// Drives both dispatchers through the same op sequence and requires
/// identical outputs after every single call; also bounds the interner
/// occupancy (the op alphabet is tiny, so the id space must stay tiny).
fn run_equivalence<V: Value>(
    me: u32,
    n: usize,
    f: usize,
    ops: Vec<RawOp>,
    make: impl Fn(u64) -> V,
) {
    let params = Params::from_d(n, f, Duration::from_nanos(D), 0).unwrap();
    let mut interned: Engine<V> = Engine::new(NodeId::new(me), params);
    let mut golden: ReferenceEngine<V> = ReferenceEngine::new(NodeId::new(me), params);
    let mut ob: Outbox<V> = Outbox::new();
    let mut now = 1_000_000_000_000u64;
    let mut history: Vec<(NodeId, Msg<V>)> = Vec::new();
    for (i, raw) in ops.into_iter().enumerate() {
        let dt = raw.5;
        now += dt;
        let op = decode(raw, &make);
        let t = LocalTime::from_nanos(now);
        match op {
            Op::Deliver { sender, msg } => {
                interned.on_message_ref(t, sender, &msg, &mut ob);
                let want = golden.on_message_ref(t, sender, &msg);
                assert_eq!(ob.outputs(), want.as_slice(), "deliver op {i} at {now}");
                history.push((sender, msg));
            }
            Op::ReplayEarlier { index } => {
                if history.is_empty() {
                    continue;
                }
                let (sender, msg) = history[index % history.len()].clone();
                interned.on_message_ref(t, sender, &msg, &mut ob);
                let want = golden.on_message_ref(t, sender, &msg);
                assert_eq!(ob.outputs(), want.as_slice(), "replay op {i} at {now}");
            }
            Op::Tick => {
                interned.on_tick(t, &mut ob);
                let want = golden.on_tick(t);
                assert_eq!(ob.outputs(), want.as_slice(), "tick op {i} at {now}");
            }
            Op::Initiate { value } => {
                let got = interned.initiate(t, value.clone(), &mut ob);
                let want = golden.initiate(t, value);
                match (got, want) {
                    (Ok(()), Ok(outs)) => {
                        assert_eq!(ob.outputs(), outs.as_slice(), "initiate op {i} at {now}");
                        history.extend(ob.outputs().iter().filter_map(|o| match o {
                            Output::Broadcast(m) => Some((NodeId::new(me), m.clone())),
                            _ => None,
                        }));
                    }
                    (Err(e), Err(we)) => assert_eq!(e, we, "initiate refusal op {i}"),
                    (got, want) => {
                        panic!("initiate divergence at op {i}: interned {got:?} vs golden {want:?}")
                    }
                }
            }
            Op::JumpTick { factor } => {
                // Long silence: decay horizons expire, the cleanup runs on
                // both sides — and the interner sweep reclaims every id
                // whose state decayed.
                now += dt.saturating_mul(factor * 50);
                let t = LocalTime::from_nanos(now);
                interned.on_tick(t, &mut ob);
                let want = golden.on_tick(t);
                assert_eq!(ob.outputs(), want.as_slice(), "jump-tick op {i} at {now}");
            }
        }
        // The value alphabet has at most a handful of members; interning
        // must never mint more live ids than that.
        assert!(
            interned.interner().occupancy() <= 8,
            "interner occupancy ballooned: {} live ids at op {i}",
            interned.interner().occupancy()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// n = 7, f = 2, engine at node 3: mixed legitimate and hostile
    /// traffic with duplicates, replays, deadline ticks and its own
    /// initiations, over plain `u64` values.
    #[test]
    fn interned_engine_matches_reference_n7(
        ops in prop::collection::vec(
            (0u32..100, 0u32..9, 0u64..4, 0u32..9, 0u32..4, 0u64..40_000_000),
            1..250,
        ),
    ) {
        run_equivalence(3, 7, 2, ops, |v| v);
    }

    /// The same shape with the hash-collision-forcing value type: every
    /// intern and lookup walks a probe chain.
    #[test]
    fn interned_engine_matches_reference_colliding_hashes(
        ops in prop::collection::vec(
            (0u32..100, 0u32..9, 0u64..4, 0u32..9, 0u32..4, 0u64..40_000_000),
            1..250,
        ),
    ) {
        run_equivalence(3, 7, 2, ops, Collide);
    }

    /// n = 4, f = 1: small quorums mean far more emitting calls (accepts,
    /// decides, aborts) per sequence — the densest output interleavings —
    /// again through colliding probe chains.
    #[test]
    fn interned_engine_matches_reference_n4_colliding(
        ops in prop::collection::vec(
            (0u32..100, 0u32..6, 0u64..3, 0u32..6, 0u32..3, 0u64..25_000_000),
            1..250,
        ),
    ) {
        run_equivalence(0, 4, 1, ops, Collide);
    }

    /// Spam shape: a tiny value/sender space replayed heavily, so almost
    /// every delivery is an intern-table hit — plus long decay jumps so
    /// ids cycle through reclaim/reuse mid-sequence.
    #[test]
    fn interned_engine_matches_reference_under_spam_and_decay(
        ops in prop::collection::vec(
            (0u32..100, 0u32..4, 0u64..2, 0u32..4, 1u32..3, 0u64..2_000_000),
            1..400,
        ),
    ) {
        run_equivalence(1, 4, 1, ops, Collide);
    }
}

fn params4() -> Params {
    Params::from_d(4, 1, Duration::from_nanos(D), 0).unwrap()
}

fn t(n: u64) -> LocalTime {
    LocalTime::from_nanos(100_000 * D + n)
}

fn id(n: u32) -> NodeId {
    NodeId::new(n)
}

/// ``[IG2]`` across a reclaim/reuse cycle: the `last_per_value` guard is
/// the fourth value-keyed map, now interned — a decayed value's id is
/// reclaimed, its slot recycled for a *different* value, and neither the
/// recycled slot nor the re-interned original inherits any suppression.
/// Every step is driven against the golden model.
#[test]
fn ig2_suppression_survives_value_id_reuse() {
    let p = params4();
    let mut interned: Engine<u64> = Engine::new(id(0), p);
    let mut golden: ReferenceEngine<u64> = ReferenceEngine::new(id(0), p);
    let mut ob: Outbox<u64> = Outbox::new();

    let step = |interned: &mut Engine<u64>,
                golden: &mut ReferenceEngine<u64>,
                ob: &mut Outbox<u64>,
                now: LocalTime,
                value: u64|
     -> Result<(), InitiateError> {
        let got = interned.initiate(now, value, ob);
        let want = golden.initiate(now, value);
        match (&got, &want) {
            (Ok(()), Ok(outs)) => assert_eq!(ob.outputs(), outs.as_slice()),
            (Err(e), Err(we)) => assert_eq!(e, we),
            _ => panic!("divergence at {now:?}: {got:?} vs {want:?}"),
        }
        got
    };
    let tick = |interned: &mut Engine<u64>,
                golden: &mut ReferenceEngine<u64>,
                ob: &mut Outbox<u64>,
                now: LocalTime| {
        interned.on_tick(now, ob);
        let want = golden.on_tick(now);
        assert_eq!(ob.outputs(), want.as_slice(), "tick at {now:?}");
    };

    // Initiate 7; an immediate same-value retry is IG2-suppressed.
    step(&mut interned, &mut golden, &mut ob, t(0), 7).unwrap();
    let id7 = interned.interner().lookup(&7).expect("7 interned");
    assert!(matches!(
        step(&mut interned, &mut golden, &mut ob, t(0) + p.delta_0(), 7),
        Err(InitiateError::SameValueTooSoon { .. })
    ));

    // Let every guard decay (Δ_v is the longest), tick so the cleanup
    // sweep runs — the id for 7 must be reclaimed.
    let decayed = t(0) + p.delta_v() * 2u64;
    tick(&mut interned, &mut golden, &mut ob, decayed);
    let late = decayed + p.delta_v() * 2u64;
    tick(&mut interned, &mut golden, &mut ob, late);
    assert_eq!(
        interned.interner().occupancy(),
        0,
        "decayed IG2 guard must release its id"
    );
    assert_eq!(interned.interner().lookup(&7), None);

    // A *different* value recycles the slot...
    step(&mut interned, &mut golden, &mut ob, late, 9).unwrap();
    let id9 = interned.interner().lookup(&9).expect("9 interned");
    assert_eq!(id9.index(), id7.index(), "free-list recycles the slot");
    // ...and is guarded under its own identity: 9 is suppressed, but 7 —
    // whose guard lived on the same slot index — is free again after Δ0
    // (no stale suppression), exactly as the golden model says.
    assert!(matches!(
        step(&mut interned, &mut golden, &mut ob, late + p.delta_0(), 9),
        Err(InitiateError::SameValueTooSoon { .. })
    ));
    step(&mut interned, &mut golden, &mut ob, late + p.delta_0(), 7).unwrap();
    // And the fresh guard for 7 (on a brand-new slot) suppresses again.
    assert!(matches!(
        step(
            &mut interned,
            &mut golden,
            &mut ob,
            late + p.delta_0() * 2u64,
            7
        ),
        Err(InitiateError::SameValueTooSoon { .. })
    ));
}

/// `last(G, m)` across a reclaim/reuse cycle: the block-K re-invocation
/// guard keyed by the interned id must suppress exactly like the golden
/// model before decay, release the id after the `2Δ_rmv + 9d` horizon,
/// and leave nothing behind for the value that recycles the slot.
#[test]
fn last_gm_suppression_survives_value_id_reuse() {
    let p = params4();
    let me = id(1);
    let g = id(0);
    let mut interned: Engine<u64> = Engine::new(me, p);
    let mut golden: ReferenceEngine<u64> = ReferenceEngine::new(me, p);
    let mut ob: Outbox<u64> = Outbox::new();

    let deliver = |interned: &mut Engine<u64>,
                   golden: &mut ReferenceEngine<u64>,
                   ob: &mut Outbox<u64>,
                   now: LocalTime,
                   value: u64|
     -> usize {
        let msg = Msg::Initiator {
            general: g,
            value: Arc::new(value),
        };
        interned.on_message_ref(now, g, &msg, ob);
        let want = golden.on_message_ref(now, g, &msg);
        assert_eq!(
            ob.outputs(),
            want.as_slice(),
            "initiator({value}) at {now:?}"
        );
        ob.outputs().len()
    };
    let tick = |interned: &mut Engine<u64>,
                golden: &mut ReferenceEngine<u64>,
                ob: &mut Outbox<u64>,
                now: LocalTime| {
        interned.on_tick(now, ob);
        let want = golden.on_tick(now);
        assert_eq!(ob.outputs(), want.as_slice(), "tick at {now:?}");
    };

    // Block K fires for value 7: support sent, last(G, 7) stamped.
    assert!(
        deliver(&mut interned, &mut golden, &mut ob, t(0), 7) > 0,
        "first initiation must send support"
    );
    let id7 = interned.interner().lookup(&7).expect("7 interned");
    assert!(interned.ia(g).unwrap().last_gm(&7).is_some());
    // A re-invocation 2d later is suppressed (last(G, m) was set at
    // τq − d) — on both engines.
    let d = p.d();
    assert_eq!(
        deliver(&mut interned, &mut golden, &mut ob, t(0) + d * 2u64, 7),
        0,
        "last(G, m) suppression"
    );

    // Decay everything: past 2Δ_rmv + 9d the guard *value* expires and is
    // cleared; the clear itself lives in the change history for one more
    // retention horizon (identically on both engines) before the state
    // goes dormant — only then does the sweep reclaim the id.
    let horizon = t(0) + p.last_gm_expiry() + d * 8u64;
    tick(&mut interned, &mut golden, &mut ob, horizon);
    assert!(
        interned.interner().lookup(&7).is_some(),
        "guard history still pins the id right after the clear"
    );
    let purged = horizon + p.last_gm_expiry() + d * 8u64;
    tick(&mut interned, &mut golden, &mut ob, purged);
    assert_eq!(interned.interner().lookup(&7), None, "id reclaimed");

    // Value 9 recycles the slot and must behave completely fresh: block K
    // fires (no inherited last(G, m), no inherited i_value/ignore state).
    let t2 = purged + d * 4u64;
    assert!(
        deliver(&mut interned, &mut golden, &mut ob, t2, 9) > 0,
        "recycled slot must not inherit suppression"
    );
    let id9 = interned.interner().lookup(&9).expect("9 interned");
    assert_eq!(id9.index(), id7.index(), "slot actually recycled");
    // And its own fresh guard suppresses its own re-invocation.
    assert_eq!(
        deliver(&mut interned, &mut golden, &mut ob, t2 + d * 2u64, 9),
        0
    );
}
