//! Scheduler hot-path micro-benchmarks: the hierarchical timer wheel vs
//! the retained `BinaryHeap` reference queue on the event-dispatch
//! workload that dominates simulation at n ≥ 64 — per-event `WakeAt`
//! rescheduling (cancel + reinsert) plus delivery insert/pop churn.
//! Collected numbers are committed in `BENCH_sched_hot_path.json`
//! (regenerate with
//! `SSBYZ_BENCH_JSON=/tmp/b.json cargo bench --bench sched_hot_path`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ssbyz_reference::ReferenceQueue;
use ssbyz_simnet::sched::{EventQueue, TimerHandle, TimerWheel};

const SIZES: [usize; 3] = [4, 16, 64];

/// Simulated per-event step, ~one link delay apart per node.
const STEP_NS: u64 = 10_000;
/// Delivery latency of the modelled link.
const DELAY_NS: u64 = 150_000;
/// The `WakeAt` deadline horizon (a few `d`).
const WAKE_NS: u64 = 2_000_000;

struct Harness<Q> {
    queue: Q,
    /// One pending deadline per node, rescheduled round-robin.
    wakes: Vec<TimerHandle>,
    now: u64,
    node: usize,
}

impl<Q: EventQueue<u64>> Harness<Q> {
    fn new(mut queue: Q, n: usize) -> Self {
        let wakes = (0..n)
            .map(|i| queue.insert(WAKE_NS + i as u64, i as u64))
            .collect();
        // Steady-state in-flight deliveries: one per node.
        for i in 0..n {
            queue.insert(DELAY_NS + i as u64 * STEP_NS, i as u64);
        }
        Harness {
            queue,
            wakes,
            now: 0,
            node: 0,
        }
    }

    /// One simulated dispatch: the node reschedules its deadline
    /// (cancel + reinsert — the stale-`WakeAt` pattern), a delivery is
    /// enqueued, and everything due is popped.
    fn step(&mut self) -> u64 {
        self.now += STEP_NS;
        self.node = (self.node + 1) % self.wakes.len();
        self.queue.cancel(self.wakes[self.node]);
        self.wakes[self.node] = self.queue.insert(self.now + WAKE_NS, self.node as u64);
        self.queue.insert(self.now + DELAY_NS, self.node as u64);
        let mut popped = 0;
        while self.queue.peek_due().is_some_and(|due| due <= self.now) {
            let e = self.queue.pop().expect("peeked");
            popped += e.payload;
        }
        popped
    }
}

fn bench_wheel(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_hot_path/wheel");
    for n in SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut h = Harness::new(TimerWheel::for_span_hint(DELAY_NS), n);
            b.iter(|| black_box(h.step()));
        });
    }
    g.finish();
}

fn bench_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_hot_path/baseline_heap");
    for n in SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut h = Harness::new(ReferenceQueue::new(), n);
            b.iter(|| black_box(h.step()));
        });
    }
    g.finish();
}

/// Pure insert/pop throughput (no rescheduling): the delivery-only path.
fn bench_insert_pop(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_hot_path/insert_pop");
    for n in SIZES {
        g.bench_with_input(BenchmarkId::new("wheel", n), &n, |b, &n| {
            let mut q: TimerWheel<u64> = TimerWheel::for_span_hint(DELAY_NS);
            let mut now = 0u64;
            for i in 0..n as u64 {
                q.insert(DELAY_NS + i, i);
            }
            b.iter(|| {
                now += STEP_NS;
                q.insert(now + DELAY_NS, now);
                while q.peek_due().is_some_and(|due| due <= now) {
                    black_box(q.pop());
                }
            });
        });
        g.bench_with_input(BenchmarkId::new("heap", n), &n, |b, &n| {
            let mut q: ReferenceQueue<u64> = ReferenceQueue::new();
            let mut now = 0u64;
            for i in 0..n as u64 {
                q.insert(DELAY_NS + i, i);
            }
            b.iter(|| {
                now += STEP_NS;
                q.insert(now + DELAY_NS, now);
                while q.peek_due().is_some_and(|due| due <= now) {
                    black_box(q.pop());
                }
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_wheel, bench_reference, bench_insert_pop);
criterion_main!(benches);
