//! Golden-model equivalence battery for the pooled-outbox engine
//! dispatch: over random message/tick/initiate interleavings — including
//! Byzantine duplicates, forged senders, out-of-membership ids and
//! out-of-order re-deliveries — the pooled [`Engine`] must produce
//! **bit-identical** output sequences to the retained Vec-returning
//! dispatch (`ssbyz_reference::ReferenceEngine`), call by call.
//!
//! This mirrors the discipline of `store_equivalence.rs` (dense arrival
//! log vs `BTreeMap` model) and `sched_equivalence.rs` (timer wheel vs
//! heap): the old plumbing is the specification; the refactor must not
//! change a single emitted action or its order.

use std::sync::Arc;

use proptest::prelude::*;
use ssbyz_core::{BcastKind, Engine, IaKind, Msg, Outbox, Output, Params};
use ssbyz_reference::ReferenceEngine;
use ssbyz_types::{Duration, LocalTime, NodeId};

const D: u64 = 10_000_000; // 10ms in ns

/// One raw generated op, decoded by [`decode`].
type RawOp = (u32, u32, u64, u32, u32, u64);

enum Op {
    Deliver { sender: NodeId, msg: Msg<u64> },
    ReplayEarlier { index: usize },
    Tick,
    Initiate { value: u64 },
    JumpTick { factor: u64 },
}

fn decode((sel, sender, value, aux, round, _dt): RawOp) -> Op {
    let sender_id = NodeId::new(sender);
    match sel {
        // Initiator messages; forged whenever `aux != sender`.
        0..=9 => Op::Deliver {
            sender: sender_id,
            msg: Msg::Initiator {
                general: NodeId::new(aux),
                value: Arc::new(value),
            },
        },
        // Initiator-Accept stage messages.
        10..=39 => Op::Deliver {
            sender: sender_id,
            msg: Msg::Ia {
                kind: IaKind::ALL[(sel % 3) as usize],
                general: NodeId::new(aux),
                value: Arc::new(value),
            },
        },
        // msgd-broadcast stage messages (bogus rounds included: round 0
        // and rounds past max_round are generated at the edges).
        40..=69 => Op::Deliver {
            sender: sender_id,
            msg: Msg::Bcast {
                kind: BcastKind::ALL[(sel % 4) as usize],
                general: NodeId::new(sel % 8),
                broadcaster: NodeId::new(aux),
                value: Arc::new(value),
                round,
            },
        },
        // Byzantine duplicate: re-deliver an earlier message now,
        // possibly from a different claimed sender.
        70..=79 => Op::ReplayEarlier {
            index: aux as usize,
        },
        80..=89 => Op::Tick,
        90..=94 => Op::Initiate { value },
        _ => Op::JumpTick {
            factor: u64::from(sel - 94),
        },
    }
}

/// Drives both dispatchers through the same op sequence and requires
/// identical outputs after every single call.
fn run_equivalence(me: u32, n: usize, f: usize, ops: Vec<RawOp>) {
    let params = Params::from_d(n, f, Duration::from_nanos(D), 0).unwrap();
    let mut pooled: Engine<u64> = Engine::new(NodeId::new(me), params);
    let mut golden: ReferenceEngine<u64> = ReferenceEngine::new(NodeId::new(me), params);
    let mut ob: Outbox<u64> = Outbox::new();
    let mut now = 1_000_000_000_000u64;
    let mut history: Vec<(NodeId, Msg<u64>)> = Vec::new();
    for (i, raw) in ops.into_iter().enumerate() {
        let dt = raw.5;
        now += dt;
        let op = decode(raw);
        let t = LocalTime::from_nanos(now);
        match op {
            Op::Deliver { sender, msg } => {
                pooled.on_message_ref(t, sender, &msg, &mut ob);
                let want = golden.on_message_ref(t, sender, &msg);
                assert_eq!(ob.outputs(), want.as_slice(), "deliver op {i} at {now}");
                history.push((sender, msg));
            }
            Op::ReplayEarlier { index } => {
                if history.is_empty() {
                    continue;
                }
                let (sender, msg) = history[index % history.len()].clone();
                pooled.on_message_ref(t, sender, &msg, &mut ob);
                let want = golden.on_message_ref(t, sender, &msg);
                assert_eq!(ob.outputs(), want.as_slice(), "replay op {i} at {now}");
            }
            Op::Tick => {
                pooled.on_tick(t, &mut ob);
                let want = golden.on_tick(t);
                assert_eq!(ob.outputs(), want.as_slice(), "tick op {i} at {now}");
            }
            Op::Initiate { value } => {
                let got = pooled.initiate(t, value, &mut ob);
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
                        panic!("initiate divergence at op {i}: pooled {got:?} vs golden {want:?}")
                    }
                }
            }
            Op::JumpTick { factor } => {
                // Long silence: decay horizons expire, then a tick runs
                // the cleanup on both sides.
                now += dt.saturating_mul(factor * 50);
                let t = LocalTime::from_nanos(now);
                pooled.on_tick(t, &mut ob);
                let want = golden.on_tick(t);
                assert_eq!(ob.outputs(), want.as_slice(), "jump-tick op {i} at {now}");
            }
        }
        // The staging arenas must never leak between calls.
        let caps = ob.capacities();
        assert!(
            caps.iter().all(|&c| c < 1 << 20),
            "runaway capacity {caps:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// n = 7, f = 2, engine at node 3: mixed legitimate and hostile
    /// traffic with duplicates, replays, deadline ticks and its own
    /// initiations.
    #[test]
    fn pooled_engine_matches_reference_n7(
        ops in prop::collection::vec(
            (0u32..100, 0u32..9, 0u64..4, 0u32..9, 0u32..4, 0u64..40_000_000),
            1..250,
        ),
    ) {
        run_equivalence(3, 7, 2, ops);
    }

    /// n = 4, f = 1: small quorums mean far more emitting calls (accepts,
    /// decides, aborts) per sequence — the densest output interleavings.
    #[test]
    fn pooled_engine_matches_reference_n4(
        ops in prop::collection::vec(
            (0u32..100, 0u32..6, 0u64..3, 0u32..6, 0u32..3, 0u64..25_000_000),
            1..250,
        ),
    ) {
        run_equivalence(0, 4, 1, ops);
    }

    /// Spam shape: a tiny value/sender space replayed heavily, so almost
    /// every delivery is a duplicate — the allocation-free path — with
    /// occasional quorum completions.
    #[test]
    fn pooled_engine_matches_reference_under_duplicate_spam(
        ops in prop::collection::vec(
            (0u32..90, 0u32..4, 0u64..2, 0u32..4, 1u32..3, 0u64..2_000_000),
            1..400,
        ),
    ) {
        run_equivalence(1, 4, 1, ops);
    }
}

/// Deterministic end-to-end check: a full fault-free agreement at one
/// node produces identical transcripts from both dispatchers, including
/// the decide and the post-return reset tick.
#[test]
fn full_agreement_transcript_identical() {
    let params = Params::from_d(4, 1, Duration::from_nanos(D), 0).unwrap();
    let me = NodeId::new(1);
    let g = NodeId::new(0);
    let mut pooled: Engine<u64> = Engine::new(me, params);
    let mut golden: ReferenceEngine<u64> = ReferenceEngine::new(me, params);
    let mut ob: Outbox<u64> = Outbox::new();
    let t0 = 1_000_000_000_000u64;
    let step = D / 4;

    let drive = |now: u64,
                 sender: u32,
                 msg: &Msg<u64>,
                 pooled: &mut Engine<u64>,
                 golden: &mut ReferenceEngine<u64>,
                 ob: &mut Outbox<u64>| {
        let t = LocalTime::from_nanos(now);
        pooled.on_message_ref(t, NodeId::new(sender), msg, ob);
        let want = golden.on_message_ref(t, NodeId::new(sender), msg);
        assert_eq!(ob.outputs(), want.as_slice(), "at {now} from {sender}");
    };

    let init = Msg::Initiator {
        general: g,
        value: Arc::new(7),
    };
    drive(t0, 0, &init, &mut pooled, &mut golden, &mut ob);
    for (i, s) in [0u32, 1, 2, 3].iter().enumerate() {
        let m = Msg::Ia {
            kind: IaKind::Support,
            general: g,
            value: Arc::new(7),
        };
        drive(
            t0 + step + i as u64,
            *s,
            &m,
            &mut pooled,
            &mut golden,
            &mut ob,
        );
    }
    for (i, s) in [0u32, 1, 2, 3].iter().enumerate() {
        let m = Msg::Ia {
            kind: IaKind::Approve,
            general: g,
            value: Arc::new(7),
        };
        drive(
            t0 + 2 * step + i as u64,
            *s,
            &m,
            &mut pooled,
            &mut golden,
            &mut ob,
        );
    }
    for (i, s) in [0u32, 1, 2, 3].iter().enumerate() {
        let m = Msg::Ia {
            kind: IaKind::Ready,
            general: g,
            value: Arc::new(7),
        };
        drive(
            t0 + 3 * step + i as u64,
            *s,
            &m,
            &mut pooled,
            &mut golden,
            &mut ob,
        );
    }
    // Both must have decided identically.
    assert!(pooled.agreement(g).unwrap().has_returned());
    assert!(golden.agreement(g).unwrap().has_returned());
    // Post-return reset ticks match too.
    for k in 1..=8u64 {
        let t = LocalTime::from_nanos(t0 + 3 * step + k * D);
        pooled.on_tick(t, &mut ob);
        let want = golden.on_tick(t);
        assert_eq!(ob.outputs(), want.as_slice(), "reset tick {k}");
    }
}
