//! Hot-path micro-benchmarks for the dense per-node state introduced by
//! the flat-state overhaul: `ArrivalLog::{record, prune,
//! distinct_in_window}` and `Engine::on_message` at n ∈ {4, 16, 64},
//! benchmarked **against the retained `BTreeMap` reference
//! implementation** so the baseline-vs-dense comparison is reproducible
//! from one binary. Collected numbers are committed in
//! `BENCH_store_hot_path.json` (regenerate with
//! `SSBYZ_BENCH_JSON=/tmp/b.json cargo bench --bench store_hot_path`).

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ssbyz_core::store::ArrivalLog;
use ssbyz_core::{Engine, IaKind, Msg, Outbox, Params};
use ssbyz_reference::{ReferenceArrivalLog, ReferenceEngine};
use ssbyz_types::{Duration, LocalTime, NodeId};

const SIZES: [usize; 3] = [4, 16, 64];

/// One steady-state protocol step against the dense log: record an
/// arrival, answer the 2d quorum-window query, prune on a cadence.
fn bench_arrival_log_dense(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_hot_path/dense");
    for n in SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut log = ArrivalLog::new();
            let mut t = 0u64;
            // Steady state: every sender has a populated history.
            for i in 0..(n as u64 * 8) {
                log.record(
                    LocalTime::from_nanos(1 + i * 997),
                    NodeId::new((i % n as u64) as u32),
                );
            }
            b.iter(|| {
                t += 1_000;
                log.record(
                    LocalTime::from_nanos(t),
                    NodeId::new((t / 1_000 % n as u64) as u32),
                );
                let count =
                    log.distinct_in_window(LocalTime::from_nanos(t), Duration::from_nanos(40_000));
                if t.is_multiple_of(64_000) {
                    log.prune(LocalTime::from_nanos(t), Duration::from_nanos(100_000));
                }
                black_box(count)
            });
        });
    }
    g.finish();
}

/// The identical workload against the `BTreeMap` reference model.
fn bench_arrival_log_baseline(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_hot_path/baseline_btreemap");
    for n in SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut log = ReferenceArrivalLog::new();
            let mut t = 0u64;
            for i in 0..(n as u64 * 8) {
                log.record(
                    LocalTime::from_nanos(1 + i * 997),
                    NodeId::new((i % n as u64) as u32),
                );
            }
            b.iter(|| {
                t += 1_000;
                log.record(
                    LocalTime::from_nanos(t),
                    NodeId::new((t / 1_000 % n as u64) as u32),
                );
                let count =
                    log.distinct_in_window(LocalTime::from_nanos(t), Duration::from_nanos(40_000));
                if t.is_multiple_of(64_000) {
                    log.prune(LocalTime::from_nanos(t), Duration::from_nanos(100_000));
                }
                black_box(count)
            });
        });
    }
    g.finish();
}

fn params_for(n: usize) -> Params {
    Params::from_d(n, (n - 1) / 3, Duration::from_millis(10), 0).unwrap()
}

/// Engine message throughput on the Initiator-Accept support path: every
/// delivery records an arrival and runs the windowed quorum evaluation.
/// Pooled-outbox dispatch: the steady state allocates nothing.
fn bench_engine_ia_support(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_hot_path/engine_ia_support");
    for n in SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut engine: Engine<u64> = Engine::new(NodeId::new(0), params_for(n));
            let mut ob: Outbox<u64> = Outbox::new();
            let mut t = 1_000_000_000u64;
            let mut sender = 0u32;
            let msg = Msg::Ia {
                kind: IaKind::Support,
                general: NodeId::new(1),
                value: Arc::new(7u64),
            };
            b.iter(|| {
                t += 10_000;
                sender = (sender + 1) % n as u32;
                engine.on_message_ref(LocalTime::from_nanos(t), NodeId::new(sender), &msg, &mut ob);
                black_box(ob.len())
            });
        });
    }
    g.finish();
}

/// The identical support workload against the retained Vec-returning
/// dispatch (`ssbyz_reference::ReferenceEngine`): fresh output + staging
/// vectors per call over the value-keyed state machines.
fn bench_engine_ia_support_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_hot_path/engine_ia_support_reference");
    for n in SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut engine: ReferenceEngine<u64> =
                ReferenceEngine::new(NodeId::new(0), params_for(n));
            let mut t = 1_000_000_000u64;
            let mut sender = 0u32;
            let msg = Msg::Ia {
                kind: IaKind::Support,
                general: NodeId::new(1),
                value: Arc::new(7u64),
            };
            b.iter(|| {
                t += 10_000;
                sender = (sender + 1) % n as u32;
                let outs =
                    engine.on_message_ref(LocalTime::from_nanos(t), NodeId::new(sender), &msg);
                black_box(outs.len())
            });
        });
    }
    g.finish();
}

/// Engine message throughput on the msgd-broadcast echo path: the dense
/// triplet table plus three arrival logs per triplet (pooled outbox).
fn bench_engine_bcast_echo(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_hot_path/engine_bcast_echo");
    for n in SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut engine: Engine<u64> = Engine::new(NodeId::new(0), params_for(n));
            let mut ob: Outbox<u64> = Outbox::new();
            let mut t = 1_000_000_000u64;
            let mut sender = 0u32;
            let msg = Msg::Bcast {
                kind: ssbyz_core::BcastKind::Echo,
                general: NodeId::new(1),
                broadcaster: NodeId::new(2),
                value: Arc::new(7u64),
                round: 1,
            };
            b.iter(|| {
                t += 10_000;
                sender = (sender + 1) % n as u32;
                engine.on_message_ref(LocalTime::from_nanos(t), NodeId::new(sender), &msg, &mut ob);
                black_box(ob.len())
            });
        });
    }
    g.finish();
}

/// The identical echo workload against the Vec-returning reference
/// dispatch.
fn bench_engine_bcast_echo_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_hot_path/engine_bcast_echo_reference");
    for n in SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut engine: ReferenceEngine<u64> =
                ReferenceEngine::new(NodeId::new(0), params_for(n));
            let mut t = 1_000_000_000u64;
            let mut sender = 0u32;
            let msg = Msg::Bcast {
                kind: ssbyz_core::BcastKind::Echo,
                general: NodeId::new(1),
                broadcaster: NodeId::new(2),
                value: Arc::new(7u64),
                round: 1,
            };
            b.iter(|| {
                t += 10_000;
                sender = (sender + 1) % n as u32;
                let outs =
                    engine.on_message_ref(LocalTime::from_nanos(t), NodeId::new(sender), &msg);
                black_box(outs.len())
            });
        });
    }
    g.finish();
}

/// A 1 KiB opaque payload: the heavyweight-value case the clone-free
/// `Arc<V>` emission path exists for. Deep-copying one of these per
/// emitted `Broadcast` — the pre-Arc behaviour — costs a 1 KiB memcpy
/// plus an allocation on every emitting call; the shared-handle path
/// costs a reference bump regardless of payload size.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct Blob([u8; 1024]);

impl Blob {
    fn new(tag: u8) -> Self {
        Blob([tag; 1024])
    }
}

/// The ia_support workload with a 1 KiB blob value: the steady-state
/// delivery is a content hash + interned table hit, and the periodic
/// approve resend emits `Msg<Blob>` broadcasts whose payload is the
/// interner slot's own `Arc` — zero blob copies per emission (pinned by
/// the clone-counter test in `crates/core/tests/alloc_free.rs`).
fn bench_engine_ia_support_heavy(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_hot_path/engine_ia_support_heavy_1k");
    for n in SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut engine: Engine<Blob> = Engine::new(NodeId::new(0), params_for(n));
            let mut ob: Outbox<Blob> = Outbox::new();
            let mut t = 1_000_000_000u64;
            let mut sender = 0u32;
            let msg = Msg::Ia {
                kind: IaKind::Support,
                general: NodeId::new(1),
                value: Arc::new(Blob::new(7)),
            };
            b.iter(|| {
                t += 10_000;
                sender = (sender + 1) % n as u32;
                engine.on_message_ref(LocalTime::from_nanos(t), NodeId::new(sender), &msg, &mut ob);
                black_box(ob.len())
            });
        });
    }
    g.finish();
}

/// The emission-dominated shape for the heavy value: every iteration
/// replays a full accepted echo wave (3 deliveries, the last of which
/// emits an accept, a decide relay carrying the blob, wake-ups and the
/// Decided event) against a fresh value each time. With per-emission
/// deep copies this scales with payload size; with `Arc` resolution it
/// does not.
fn bench_engine_heavy_accept_wave(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_hot_path/engine_heavy_accept_wave_1k");
    g.bench_function("n4", |b| {
        let mut engine: Engine<Blob> = Engine::new(NodeId::new(1), params_for(4));
        let mut ob: Outbox<Blob> = Outbox::new();
        let d = 10_000_000u64;
        let mut t = 1_000_000_000_000u64;
        let mut tag = 0u8;
        b.iter(|| {
            tag = tag.wrapping_add(1);
            let value = Arc::new(Blob::new(tag));
            engine
                .agreement_raw(NodeId::new(0))
                .corrupt_anchor(LocalTime::from_nanos(t - 6 * d));
            for s in [0u32, 2, 3] {
                t += 1_000;
                let msg = Msg::Bcast {
                    kind: ssbyz_core::BcastKind::Echo,
                    general: NodeId::new(0),
                    broadcaster: NodeId::new(2),
                    value: Arc::clone(&value),
                    round: 1,
                };
                engine.on_message_ref(LocalTime::from_nanos(t), NodeId::new(s), &msg, &mut ob);
            }
            // Post-return reset so the next wave starts fresh.
            t += 4 * d;
            engine.on_tick(LocalTime::from_nanos(t), &mut ob);
            t += 4 * d;
            engine.on_tick(LocalTime::from_nanos(t), &mut ob);
            black_box(&ob);
        });
    });
    g.finish();
}

/// The tentpole A/B: 1024 echo arrivals at n = 64 — sixteen
/// full-membership waves for a rotating handful of values — delivered
/// either one `on_message_ref` call at a time (64 triplet-table passes
/// per wave) or as sixteen `on_wave_ref` calls (one intern probe, one
/// bulk arrival record, one double evaluation per wave). The workload is
/// the steady duplicate-heavy state where the per-message path pays the
/// full lookup + window-query cost on every arrival.
fn bench_echo_wave_1k(c: &mut Criterion) {
    const N: usize = 64;
    const WAVES: usize = 16;
    let build_waves = || -> Vec<Vec<(NodeId, Arc<Msg<u64>>)>> {
        (0..WAVES)
            .map(|w| {
                let value = Arc::new(7 + (w % 4) as u64);
                (0..N)
                    .map(|s| {
                        (
                            NodeId::new(s as u32),
                            Arc::new(Msg::Bcast {
                                kind: ssbyz_core::BcastKind::Echo,
                                general: NodeId::new(1),
                                broadcaster: NodeId::new(2),
                                value: Arc::clone(&value),
                                round: 1,
                            }),
                        )
                    })
                    .collect()
            })
            .collect()
    };
    let mut g = c.benchmark_group("store_hot_path/echo_wave_1k");
    g.bench_function("per_message", |b| {
        let mut engine: Engine<u64> = Engine::new(NodeId::new(0), params_for(N));
        let mut ob: Outbox<u64> = Outbox::new();
        let waves = build_waves();
        let mut t = 1_000_000_000u64;
        b.iter(|| {
            for wave in &waves {
                t += 10_000;
                let now = LocalTime::from_nanos(t);
                for (s, m) in wave {
                    engine.on_message_ref(now, *s, m, &mut ob);
                }
            }
            black_box(ob.len())
        });
    });
    g.bench_function("coalesced", |b| {
        let mut engine: Engine<u64> = Engine::new(NodeId::new(0), params_for(N));
        let mut ob: Outbox<u64> = Outbox::new();
        let waves = build_waves();
        let mut t = 1_000_000_000u64;
        b.iter(|| {
            for wave in &waves {
                t += 10_000;
                engine.on_wave_ref(LocalTime::from_nanos(t), wave, &mut ob);
            }
            black_box(ob.len())
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_arrival_log_dense,
    bench_arrival_log_baseline,
    bench_engine_ia_support,
    bench_engine_ia_support_reference,
    bench_engine_bcast_echo,
    bench_engine_bcast_echo_reference,
    bench_engine_ia_support_heavy,
    bench_engine_heavy_accept_wave,
    bench_echo_wave_1k
);
criterion_main!(benches);
