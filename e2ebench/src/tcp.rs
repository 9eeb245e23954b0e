//! The TCP workload: `PipelineCluster::spawn_tcp` on loopback, one
//! client (this thread) submitting open-loop bursts on a fixed schedule,
//! each value timed from when its burst was due, not from when it was
//! sent, so a stalled generator shows as latency.
//!
//! Bursts rather than a smooth rate: a smooth 1000 values/s keeps the
//! pipeline idle between values, so its sub-millisecond latencies
//! measure thread wake-ups on the shared host, and their p99 swung
//! 1.1–4.7 ms between runs. A burst is drained at the cluster's
//! capacity, so its latencies measure the wire and runtime work per
//! value.

use std::collections::HashMap;
use std::time::{Duration as StdDuration, Instant};

use ssbyz::core::{Params, PipelineConfig};
use ssbyz::runtime::PipelineCluster;
use ssbyz::wire::{TcpTransport, WireConfig};
use ssbyz::{Duration, NodeId};

use crate::gate::{check_logs, Gate};
use crate::sim::{companion, SimSpec};
use crate::{host, mix, wire, RunConfig, Samples, Size, LANE_VALUES, LANE_WIRE};

/// Clusters spawned to time set-up in one process.
const SETUPS: usize = 11;
/// `setup_s` samples per untraced run, taken before the stream with a
/// pause between them so that they spread over the host's drift.
const SETUP_SAMPLES: usize = 9;
const SETUP_GAP: StdDuration = StdDuration::from_millis(250);
const N: usize = 4;
const F: usize = 1;
/// The assumed delay bound `d`; loopback delivers far faster.
const D_MS: u64 = 10;
const TICK: Duration = Duration::from_millis(5);
const WINDOW: u64 = 8;
/// Wall time between spawning a cluster and its first submission.
const SETTLE: StdDuration = StdDuration::from_millis(50);
/// Wall time allowed after the last submission before missing commits
/// count as failed.
const DRAIN: StdDuration = StdDuration::from_secs(10);
/// Values the companion simulation streams to time `core` at n=4.
const COMPANION_VALUES: usize = 400;

type Cluster = PipelineCluster<u64, TcpTransport<u64>>;

/// Offered load: `burst` values due together every `period_s` seconds.
#[derive(Debug, Clone, Copy)]
struct Load {
    burst: usize,
    period_s: f64,
}

impl Load {
    fn of(size: Size) -> Load {
        match size {
            // 1000 values/s on average; a burst drains in about half
            // the period, so bursts do not queue behind each other.
            Size::Full => Load {
                burst: 250,
                period_s: 0.25,
            },
            Size::Tiny => Load {
                burst: 20,
                period_s: 0.05,
            },
        }
    }

    fn rate(self) -> f64 {
        self.burst as f64 / self.period_s
    }

    /// Seconds after the stream start at which value `i` is due.
    fn due_s(self, i: usize) -> f64 {
        (i / self.burst) as f64 * self.period_s
    }
}

/// A cluster, the wall instant its commit clock starts from (taken
/// just before spawning), and the threads spawning it created.
struct Spawned {
    cluster: Cluster,
    epoch: Instant,
    threads: Vec<u32>,
}

fn spawn(seed: u64) -> (Spawned, f64) {
    let params = Params::from_d(N, F, Duration::from_millis(D_MS), 0).expect("valid n/f");
    let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params).with_window(WINDOW);
    let before: Vec<u32> = host::tasks().iter().map(|t| t.tid).collect();
    let epoch = Instant::now();
    let cluster = PipelineCluster::spawn_tcp(
        params,
        pipe_cfg,
        TICK,
        WireConfig::from_seed(mix(seed, LANE_WIRE)),
    )
    .expect("loopback TCP mesh");
    let setup = epoch.elapsed().as_secs_f64();
    let threads = host::tasks()
        .iter()
        .map(|t| t.tid)
        .filter(|tid| !before.contains(tid))
        .collect();
    (
        Spawned {
            cluster,
            epoch,
            threads,
        },
        setup,
    )
}

/// What one stream measured.
#[derive(Default)]
struct StreamOut {
    gate: Gate,
    /// Every (value, node) due-to-commit latency, per burst, sorted.
    bursts_ms: Vec<Vec<f64>>,
    slots: usize,
    span_s: f64,
    host_s: f64,
    cpu_ns: u64,
    submit_us: Vec<f64>,
    late_max_ms: f64,
    frames: u64,
    bytes: u64,
    rejected: u64,
    reactor_cpu_ns: u64,
    node_cpu_ns: u64,
}

fn thread_cpu(threads: &[u32]) -> HashMap<u32, (String, u64)> {
    host::tasks()
        .into_iter()
        .filter(|t| threads.contains(&t.tid))
        .map(|t| (t.tid, (t.comm, t.cpu_ns)))
        .collect()
}

/// Streams `bursts` bursts through a settled cluster, waits for them to
/// commit everywhere, and gates the logs.
fn stream(s: &Spawned, load: Load, bursts: usize, base: u64, traced: bool) -> StreamOut {
    let count = bursts * load.burst;
    let mut out = StreamOut::default();
    let threads0 = if traced {
        thread_cpu(&s.threads)
    } else {
        HashMap::new()
    };
    let stats0 = s.cluster.transport().stats();
    let cpu0 = host::process_cpu_ns();
    let t0 = Instant::now();
    let mut late_max = StdDuration::ZERO;
    for i in 0..count {
        let due = t0 + StdDuration::from_secs_f64(load.due_s(i));
        if i % load.burst == 0 {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late_max = late_max.max(Instant::now().saturating_duration_since(due));
        }
        let t = Instant::now();
        if s.cluster.submit(base + i as u64).is_err() {
            out.gate
                .violations
                .push(format!("cluster shut down at value {i}"));
            break;
        }
        if traced {
            out.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let expected = N * count;
    let _ = s.cluster.wait_for_commits(expected, DRAIN);
    out.host_s = t0.elapsed().as_secs_f64();
    out.cpu_ns = host::process_cpu_ns().saturating_sub(cpu0);
    out.late_max_ms = late_max.as_secs_f64() * 1e3;
    if traced {
        for (tid, (comm, cpu1)) in thread_cpu(&s.threads) {
            let cpu = cpu1.saturating_sub(threads0.get(&tid).map_or(0, |c| c.1));
            if comm.starts_with("ssbyz-wire") {
                out.reactor_cpu_ns += cpu;
            } else {
                out.node_cpu_ns += cpu;
            }
        }
    }
    let stats1 = s.cluster.transport().stats();
    out.frames = stats1.frames_sent - stats0.frames_sent;
    out.bytes = stats1.bytes_sent - stats0.bytes_sent;
    out.rejected = (stats1.rejected_mac + stats1.rejected_header + stats1.rejected_decode)
        - (stats0.rejected_mac + stats0.rejected_header + stats0.rejected_decode);

    let offset = t0.duration_since(s.epoch).as_secs_f64() * 1e3;
    out.bursts_ms = vec![Vec::new(); bursts];
    let mut logs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); N];
    let mut last_ms = 0f64;
    for c in s.cluster.commits() {
        logs[c.node.index()].push((c.slot, *c.value));
        let at_ms = c.elapsed.as_secs_f64() * 1e3 - offset;
        last_ms = last_ms.max(at_ms);
        if let Some(i) = c.value.checked_sub(base).filter(|&i| i < count as u64) {
            let i = i as usize;
            out.bursts_ms[i / load.burst].push(at_ms - load.due_s(i) * 1e3);
        }
    }
    for b in &mut out.bursts_ms {
        b.sort_by(f64::total_cmp);
    }
    let submitted: Vec<u64> = (0..count as u64).map(|i| base + i).collect();
    let violations = std::mem::take(&mut out.gate.violations);
    out.gate = check_logs(&logs, &submitted);
    out.gate.violations.extend(violations);
    out.slots = logs.iter().map(Vec::len).min().unwrap_or(0);
    out.span_s = last_ms / 1e3;
    out
}

/// Median seconds to spawn the cluster (bind, handshake, start threads)
/// over several spawns in this process.
pub(crate) fn setup_seconds(seed: u64) -> f64 {
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let (s, setup) = spawn(seed);
            s.cluster.shutdown();
            setup
        })
        .collect();
    host::median(&setups)
}

/// Runs the TCP workload for the configured time.
pub(crate) fn run(
    cfg: &RunConfig,
    setup_probe: &mut dyn FnMut() -> f64,
) -> (Gate, Samples, Vec<(&'static str, String)>) {
    let load = Load::of(cfg.size);
    let base = 1_000 + mix(cfg.seed, LANE_VALUES) % (1 << 40);
    let start = Instant::now();
    let mut setups = Vec::new();
    for _ in 0..if cfg.trace { 0 } else { SETUP_SAMPLES } {
        setups.push(setup_probe());
        std::thread::sleep(SETUP_GAP);
    }
    let (first, _) = spawn(cfg.seed);
    std::thread::sleep(SETTLE);
    // Untraced runs spend the time on one stream; traced runs split it
    // between an untraced and a traced stream, each on its own cluster.
    let budget = (cfg.seconds - start.elapsed().as_secs_f64() - 0.3).max(0.2);
    let streams = if cfg.trace { 2 } else { 1 };
    let bursts = ((budget / streams as f64 / load.period_s) as usize).max(1);
    let untraced = stream(&first, load, bursts, base, false);
    first.cluster.shutdown();
    let mut gate = untraced.gate.clone();
    let mut samples = Samples::default();
    if cfg.trace {
        let (second, _) = spawn(cfg.seed);
        std::thread::sleep(SETTLE);
        let traced = stream(&second, load, bursts, base, true);
        second.cluster.shutdown();
        gate.merge(traced.gate.clone());
        let comp = companion(&SimSpec::tcp_companion(COMPANION_VALUES), cfg.seed);
        gate.violations.extend(comp.gate.violations.iter().cloned());
        trace_metrics(&untraced, &traced, &comp, cfg.seed, &mut samples, &mut gate);
    } else {
        let slots = untraced.slots.max(1) as f64;
        // Percentiles per burst (each 4 × 250 samples, so 10 beyond the
        // p99), reported as the median over bursts: a stall of the
        // shared host then moves the bursts it hits, not the run's tail.
        for b in &untraced.bursts_ms {
            samples.push("commit_p50_ms", host::quantile_sorted(b, 0.5));
            samples.push("commit_p99_ms", host::quantile_sorted(b, 0.99));
        }
        samples.push("slots_per_s", slots / untraced.span_s.max(1e-9));
        samples.push("host_slots_per_s", slots / untraced.host_s.max(1e-9));
        samples.push("cpu_ms_per_slot", untraced.cpu_ns as f64 / slots / 1e6);
        samples.extend("setup_s", setups);
        samples.push("peak_rss_mb", host::peak_rss_mb());
        samples.push(
            "committed_frac",
            1.0 - gate.missing as f64 / gate.expected.max(1) as f64,
        );
    }
    let tags = vec![
        ("n", N.to_string()),
        ("f", F.to_string()),
        ("d_ms", D_MS.to_string()),
        ("values", (bursts * load.burst).to_string()),
        ("burst", load.burst.to_string()),
        ("burst_period_s", load.period_s.to_string()),
        ("rate_per_s", load.rate().to_string()),
        ("loop", "open".to_string()),
        (
            "latency_samples",
            untraced
                .bursts_ms
                .iter()
                .map(Vec::len)
                .sum::<usize>()
                .to_string(),
        ),
        ("clock", "wall".to_string()),
    ];
    (gate, samples, tags)
}

fn trace_metrics(
    untraced: &StreamOut,
    traced: &StreamOut,
    comp: &crate::sim::Companion,
    seed: u64,
    samples: &mut Samples,
    gate: &mut Gate,
) {
    let slots = traced.slots.max(1) as f64;
    let cpu_per_slot = |s: &StreamOut| s.cpu_ns as f64 / s.slots.max(1) as f64;
    // Wall time is fixed by the offered rate, so the overhead is taken
    // on CPU per slot.
    samples.push(
        "trace.overhead",
        cpu_per_slot(traced) / cpu_per_slot(untraced).max(1.0),
    );
    let attributed = (traced.reactor_cpu_ns + traced.node_cpu_ns) as f64;
    samples.push(
        "trace.unaccounted_share",
        1.0 - attributed / traced.cpu_ns.max(1) as f64,
    );
    samples.push("core.busy_ms_per_slot", comp.core_ms_per_slot);
    samples.push("core.calls_per_slot", comp.calls_per_slot);
    samples.push("core.ns_per_call", comp.ns_per_call);
    samples.push("core.pipeline.aborts_per_slot", comp.aborts_per_slot);
    samples.push("core.pipeline.caught_up_per_slot", comp.caught_up_per_slot);
    for name in [
        "simnet.self_ms_per_slot",
        "simnet.events_per_slot",
        "simnet.msgs_sent_per_slot",
        "simnet.swallowed_per_slot",
        "simnet.queue_peak",
        "simnet.par.windows",
        "simnet.par.parallelism",
        "simnet.par.non_core_share",
    ] {
        samples.push(name, 0.0);
    }
    samples.push("wire.frames_per_slot", traced.frames as f64 / slots);
    samples.push("wire.bytes_per_slot", traced.bytes as f64 / slots);
    samples.push("wire.rejected_frames", traced.rejected as f64);
    if traced.rejected > 0 {
        gate.violations.push(format!(
            "{} frames rejected on a clean mesh",
            traced.rejected
        ));
    }
    match wire::replay(&comp.sample, N, mix(seed, LANE_WIRE)) {
        Ok(cost) => {
            samples.push("wire.codec_ns_per_frame", cost.codec_ns_per_frame);
            samples.push("wire.mac_ns_per_frame", cost.mac_ns_per_frame);
        }
        Err(e) => gate.violations.push(e),
    }
    let mut submit = traced.submit_us.clone();
    submit.sort_by(f64::total_cmp);
    samples.push("runtime.submit_us_p50", host::quantile_sorted(&submit, 0.5));
    samples.push("runtime.gen_late_ms_max", traced.late_max_ms);
    samples.push(
        "runtime.reactor_cpu_ms_per_slot",
        traced.reactor_cpu_ns as f64 / slots / 1e6,
    );
    samples.push(
        "runtime.node_cpu_ms_per_slot",
        traced.node_cpu_ns as f64 / slots / 1e6,
    );
}
