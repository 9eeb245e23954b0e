//! The simulator workloads: a seeded slot-pipeline cluster on
//! `AnySim`, each node a `PipelineProcess` behind a timing wrapper, the
//! stream driven to completion in fixed steps of simulated time.
//!
//! A run repeats the same simulation back to back for the whole
//! measuring time. Every repetition must reproduce the first exactly
//! (same logs, same `events_processed`), traced or not.

use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

use ssbyz::core::{Event, PipeEvent, PipelineConfig, SlotMsg, SlotPipeline};
use ssbyz::harness::pipeline::{PipelineMsg, PipelineObs};
use ssbyz::harness::{PipelineProcess, ScenarioConfig, Workload as Stream, PIPE_TOKEN_WORKLOAD};
use ssbyz::simnet::{
    AnySim, Ctx, DriftClock, LinkConfig, Partition, Process, SimBuilder, SimMode, WaveMode,
};
use ssbyz::{Duration, LocalTime, NodeId, RealTime};

use crate::gate::{check_logs, Gate};
use crate::{
    host, mix, wire, RunConfig, Samples, Size, Workload, LANE_CLOCKS, LANE_FAULTS, LANE_SIM,
    LANE_VALUES, LANE_WIRE, RECONCILE_TOLERANCE,
};

/// Simulated time between two looks at the run: completion check,
/// fault application and queue-length sample.
const STEP: Duration = Duration::from_millis(10);
/// Simulated time allowed after the last submission before missing
/// commits count as failed.
const DRAIN: Duration = Duration::from_secs(5);
/// Set-up batches per `setup_s` sample, and cluster set-ups timed
/// together in each batch (one set-up takes microseconds, too little to
/// time alone).
const SETUP_BATCHES: usize = 21;
const SETUPS_PER_SAMPLE: usize = 100;
/// Fewest `setup_s` samples an untraced run reports.
const MIN_SETUP_SAMPLES: usize = 5;
/// Protocol messages kept per traced repetition for the codec replay.
const SAMPLE_CAP: usize = 4096;

/// Shape of one simulated workload.
#[derive(Debug, Clone)]
pub(crate) struct SimSpec {
    n: usize,
    f: usize,
    values: usize,
    batch: usize,
    period: Duration,
    mode: SimMode,
    /// Number of crash bursts spread over the stream (0: fault-free).
    bursts: usize,
}

impl SimSpec {
    fn of(workload: Workload, size: Size) -> SimSpec {
        let stream = |n, f, values, mode| SimSpec {
            n,
            f,
            values,
            batch: 8,
            period: Duration::from_millis(10),
            mode,
            bursts: 0,
        };
        match (workload, size) {
            (Workload::SimStreamN64, Size::Full) => stream(64, 21, 48, SimMode::Sequential),
            (Workload::SimStreamN64Sharded2, Size::Full) => stream(64, 21, 48, SimMode::Sharded(2)),
            (Workload::SimStreamN64, Size::Tiny) => stream(7, 2, 16, SimMode::Sequential),
            (Workload::SimStreamN64Sharded2, Size::Tiny) => stream(7, 2, 16, SimMode::Sharded(2)),
            (Workload::SimChurnN16, size) => SimSpec {
                n: if size == Size::Full { 16 } else { 7 },
                f: if size == Size::Full { 5 } else { 2 },
                values: if size == Size::Full { 400 } else { 60 },
                batch: 1,
                period: Duration::from_millis(20),
                mode: SimMode::Sequential,
                bursts: if size == Size::Full { 4 } else { 1 },
            },
            (Workload::TcpBurstN4, _) => unreachable!("not a simulated workload"),
        }
    }

    /// The n=4 stream the TCP workload's trace uses to sample protocol
    /// messages and to time `core` at its cluster size.
    pub(crate) fn tcp_companion(values: usize) -> SimSpec {
        SimSpec {
            n: 4,
            f: 1,
            values,
            batch: 2,
            period: Duration::from_millis(2),
            mode: SimMode::Sequential,
            bursts: 0,
        }
    }
}

/// A scheduled fault.
#[derive(Debug, Clone)]
enum Fault {
    Crash(Vec<NodeId>, Duration),
    Partition(Vec<NodeId>),
    Heal,
}

/// Everything generated from the seed: what the program is given.
struct Inputs {
    cfg: ScenarioConfig,
    pipe_cfg: PipelineConfig,
    stream: Stream,
    clocks: Vec<DriftClock>,
    faults: Vec<(RealTime, Fault)>,
    deadline: RealTime,
}

/// `k` distinct followers (never the proposer, node 0), chosen by a
/// seeded partial shuffle.
fn pick_followers(n: usize, k: usize, seed: u64) -> Vec<NodeId> {
    let mut ids: Vec<u32> = (1..n as u32).collect();
    for i in 0..k.min(ids.len()) {
        let j = i + (mix(seed, i as u64) % (ids.len() - i) as u64) as usize;
        ids.swap(i, j);
    }
    ids[..k.min(ids.len())]
        .iter()
        .map(|&i| NodeId::new(i))
        .collect()
}

fn inputs(spec: &SimSpec, seed: u64) -> Inputs {
    let cfg = ScenarioConfig::new(spec.n, spec.f).with_seed(mix(seed, LANE_SIM));
    let params = cfg.params().expect("valid n/f");
    let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params).with_window(8);
    let mut stream = Stream::steady(spec.values, spec.batch, spec.period);
    stream.base = 1_000 + mix(seed, LANE_VALUES) % (1 << 40);
    let skew = cfg.clock_skew_max.as_nanos().max(1);
    let rho = u64::from(cfg.rho_ppm);
    let clocks = (0..spec.n as u64)
        .map(|i| {
            let r = mix(seed, LANE_CLOCKS + 16 * i);
            let offset = LocalTime::from_nanos(r % skew);
            let rate = ((r >> 32) % (2 * rho + 1)) as i32 - rho as i32;
            DriftClock::new(RealTime::ZERO, offset, rate)
        })
        .collect();
    let batches = spec.values.div_ceil(spec.batch) as u64;
    let stream_end = RealTime::ZERO + stream.start + spec.period * batches;
    // Rolling bursts, evenly spread over the stream: each crashes f
    // seeded followers for a while; the middle one partitions them away
    // instead and then heals.
    let mut faults = Vec::new();
    let span = stream_end.as_nanos() - stream.start.as_nanos();
    let outage = Duration::from_millis(120);
    for k in 0..spec.bursts {
        let at = RealTime::from_nanos(
            stream.start.as_nanos() + span * (2 * k as u64 + 1) / (2 * spec.bursts as u64),
        );
        let victims = pick_followers(spec.n, spec.f, mix(seed, LANE_FAULTS + 16 * k as u64));
        if k == spec.bursts / 2 && spec.bursts > 1 {
            faults.push((at, Fault::Partition(victims)));
            faults.push((at + outage, Fault::Heal));
        } else {
            faults.push((at, Fault::Crash(victims, outage)));
        }
    }
    Inputs {
        cfg,
        pipe_cfg,
        stream,
        clocks,
        faults,
        deadline: stream_end + DRAIN,
    }
}

/// A `PipelineProcess` with its callbacks timed from outside. Untraced,
/// it only records when the client stream fired; traced, it also sums
/// the time spent in each callback and samples delivered messages.
struct Timed {
    inner: PipelineProcess,
    traced: bool,
    busy_ns: u64,
    calls: u64,
    /// Local times at which the stream timer fired (proposer only).
    submits: Vec<LocalTime>,
    delivered: u64,
    sample: Vec<(NodeId, PipelineMsg)>,
}

impl Timed {
    fn new(inner: PipelineProcess, traced: bool) -> Self {
        Timed {
            inner,
            traced,
            busy_ns: 0,
            calls: 0,
            submits: Vec::new(),
            delivered: 0,
            sample: Vec::new(),
        }
    }

    fn time<R>(&mut self, call: impl FnOnce(&mut PipelineProcess) -> R) -> R {
        if !self.traced {
            return call(&mut self.inner);
        }
        let t = Instant::now();
        let r = call(&mut self.inner);
        self.busy_ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }

    /// Keeps every 16th delivered message, up to a per-node share of
    /// the sample cap.
    fn keep(&mut self, from: NodeId, msg: &PipelineMsg, cap: usize) {
        self.delivered += 1;
        if self.traced && self.delivered.is_multiple_of(16) && self.sample.len() < cap {
            self.sample.push((from, msg.clone()));
        }
    }
}

type PCtx<'a> = Ctx<'a, PipelineMsg, PipelineObs>;

impl Process<PipelineMsg, PipelineObs> for Timed {
    fn on_start(&mut self, ctx: &mut PCtx<'_>) {
        self.time(|p| p.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut PCtx<'_>, from: NodeId, msg: &PipelineMsg) {
        let cap = SAMPLE_CAP / ctx.n();
        self.time(|p| p.on_message(ctx, from, msg));
        self.keep(from, msg, cap);
    }

    fn on_message_batch(&mut self, ctx: &mut PCtx<'_>, batch: &[(NodeId, Arc<PipelineMsg>)]) {
        let cap = SAMPLE_CAP / ctx.n();
        self.time(|p| p.on_message_batch(ctx, batch));
        for (from, msg) in batch {
            self.keep(*from, msg, cap);
        }
    }

    fn on_timer(&mut self, ctx: &mut PCtx<'_>, token: u64) {
        if token == PIPE_TOKEN_WORKLOAD {
            self.submits.push(ctx.now());
        }
        self.time(|p| p.on_timer(ctx, token));
    }

    fn on_recover(&mut self, ctx: &mut PCtx<'_>) {
        self.time(|p| p.on_recover(ctx));
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

type Sim = AnySim<PipelineMsg, PipelineObs>;

fn build(inp: &Inputs, mode: SimMode, traced: bool) -> Sim {
    let params = inp.cfg.params().expect("valid n/f");
    let mut builder = SimBuilder::new(inp.cfg.seed)
        .link(LinkConfig::uniform(inp.cfg.actual_min, inp.cfg.actual_max))
        .wave_mode(WaveMode::Coalesced)
        .tagger(SlotMsg::tag);
    for (i, clock) in inp.clocks.iter().enumerate() {
        let id = NodeId::new(i as u32);
        let pipe = SlotPipeline::new(id, params, inp.pipe_cfg.clone());
        let mut process = PipelineProcess::new(pipe, inp.cfg.tick);
        if id == inp.pipe_cfg.proposer {
            process = process.with_workload(inp.stream);
        }
        builder = builder.node(Box::new(Timed::new(process, traced)), *clock);
    }
    builder.build_mode(mode)
}

fn apply(sim: &mut Sim, n: usize, fault: &Fault) {
    match fault {
        Fault::Crash(nodes, down_for) => {
            for &node in nodes {
                sim.crash_node(node, *down_for);
            }
        }
        Fault::Partition(minority) => sim.set_partition(Some(Partition::split(n, minority))),
        Fault::Heal => sim.set_partition(None),
    }
}

fn queue_len(sim: &mut Sim) -> usize {
    match sim {
        AnySim::Sequential(s) => s.queue_len(),
        AnySim::Sharded(s) => s.queue_len(),
    }
}

fn timed_node(sim: &mut Sim, node: NodeId) -> &mut Timed {
    sim.process_mut(node)
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<Timed>())
        .expect("every node is a Timed wrapper")
}

/// What one repetition measured.
#[derive(Default)]
struct Rep {
    traced: bool,
    host_ns: u64,
    run_until_ns: u64,
    cpu_ns: u64,
    threads: usize,
    events: u64,
    sent: u64,
    swallowed: u64,
    queue_peak: usize,
    windows: u64,
    parallelism: f64,
    logs: Vec<Vec<(u64, u64)>>,
    /// Every (value, node) submission-to-commit latency, simulated ms.
    latencies_ms: Vec<f64>,
    /// First submission to last commit, simulated seconds.
    span_s: f64,
    slots: usize,
    aborts: u64,
    caught_up: u64,
    core_ns: u64,
    core_calls: u64,
    sample: Vec<(NodeId, PipelineMsg)>,
    gate: Gate,
    /// Process peak RSS when the repetition ended, MiB.
    peak_rss_mb: f64,
}

fn repetition(spec: &SimSpec, inp: &Inputs, traced: bool) -> Rep {
    let mut sim = build(inp, spec.mode, traced);

    let n = spec.n;
    let mut committed = vec![0usize; n];
    let mut done = 0usize;
    let mut scanned = 0usize;
    let mut faults = inp.faults.iter().peekable();
    let mut now = RealTime::ZERO;
    let mut run_until_ns = 0u64;
    let mut queue_peak = 0usize;
    let cpu0 = host::process_cpu_ns();
    let start = Instant::now();
    while done < n && now < inp.deadline {
        let mut next = (now + STEP).min(inp.deadline);
        if let Some((at, _)) = faults.peek() {
            next = next.min(*at);
        }
        let r = Instant::now();
        sim.run_until(next);
        run_until_ns += r.elapsed().as_nanos() as u64;
        now = next;
        while let Some((_, fault)) = faults.next_if(|(at, _)| *at <= now) {
            apply(&mut sim, n, fault);
        }
        queue_peak = queue_peak.max(queue_len(&mut sim));
        let obs = sim.observations();
        for o in &obs[scanned..] {
            if let PipeEvent::Committed { .. } = o.event {
                committed[o.node.index()] += 1;
                if committed[o.node.index()] == spec.values {
                    done += 1;
                }
            }
        }
        scanned = obs.len();
    }
    let host_ns = start.elapsed().as_nanos() as u64;
    let cpu_ns = host::process_cpu_ns().saturating_sub(cpu0);

    let mut rep = Rep {
        traced,
        host_ns,
        run_until_ns,
        cpu_ns,
        threads: match spec.mode {
            SimMode::Sequential => 1,
            SimMode::Sharded(k) => k.max(1),
        },
        events: sim.events_processed(),
        sent: sim.metrics().sent,
        swallowed: sim.metrics().swallowed,
        queue_peak,
        windows: sim.as_sharded().map_or(0, |s| s.windows_run()),
        parallelism: sim.as_sharded().map_or(1.0, |s| s.parallelism()),
        ..Rep::default()
    };
    let proposer = inp.pipe_cfg.proposer;
    let clock = sim.clock(proposer);
    let submits: Vec<RealTime> = timed_node(&mut sim, proposer)
        .submits
        .iter()
        .map(|&l| clock.real_of_local(l))
        .collect();
    for i in 0..n {
        let node = timed_node(&mut sim, NodeId::new(i as u32));
        rep.core_ns += node.busy_ns;
        rep.core_calls += node.calls;
        rep.sample.append(&mut node.sample);
    }

    let base = inp.stream.base;
    let mut logs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    let mut last_commit = RealTime::ZERO;
    let mut violations = Vec::new();
    for o in sim.observations() {
        match &o.event {
            PipeEvent::Committed { slot, value } => {
                logs[o.node.index()].push((*slot, **value));
                last_commit = last_commit.max(o.real);
                let due = value
                    .checked_sub(base)
                    .and_then(|i| submits.get(usize::try_from(i).ok()? / spec.batch));
                match due {
                    Some(due) => rep
                        .latencies_ms
                        .push((o.real.as_nanos() as f64 - due.as_nanos() as f64) / 1e6),
                    None => violations.push(format!("value {value} has no submission time")),
                }
            }
            PipeEvent::CaughtUp { .. } => rep.caught_up += 1,
            PipeEvent::Slot {
                event: Event::Aborted { .. },
                ..
            } => rep.aborts += 1,
            PipeEvent::Slot { .. } => {}
        }
    }
    rep.latencies_ms.sort_by(f64::total_cmp);
    let submitted: Vec<u64> = (0..spec.values as u64).map(|i| base + i).collect();
    rep.gate = check_logs(&logs, &submitted);
    rep.gate.violations.extend(violations);
    rep.slots = logs.iter().map(Vec::len).min().unwrap_or(0);
    let first_submit = submits.first().copied().unwrap_or(RealTime::ZERO);
    rep.span_s = (last_commit
        .as_nanos()
        .saturating_sub(first_submit.as_nanos())) as f64
        / 1e9;
    rep.logs = logs;
    rep.peak_rss_mb = host::peak_rss_mb();
    rep
}

/// A repetition in the layer split: core busy time and the simulator's
/// own (thread) time, per committed slot.
struct Split {
    core_ms_per_slot: f64,
    simnet_self_ms_per_slot: f64,
    non_core_share: f64,
}

fn split(rep: &Rep) -> Split {
    let slots = rep.slots.max(1) as f64;
    let thread_ns = rep.run_until_ns as f64 * rep.threads as f64;
    let self_ns = thread_ns - rep.core_ns as f64;
    Split {
        core_ms_per_slot: rep.core_ns as f64 / slots / 1e6,
        simnet_self_ms_per_slot: self_ns / slots / 1e6,
        non_core_share: if thread_ns > 0.0 {
            self_ns / thread_ns
        } else {
            0.0
        },
    }
}

/// Runs the simulated workload for the configured time.
pub(crate) fn run(
    cfg: &RunConfig,
    setup_probe: &mut dyn FnMut() -> f64,
) -> (Gate, Samples, Vec<(&'static str, String)>) {
    let spec = SimSpec::of(cfg.workload, cfg.size);
    let inp = inputs(&spec, cfg.seed);
    let mut setups = Vec::new();
    let reps = repeat(&spec, &inp, cfg.seconds, cfg.trace, &mut || {
        setups.push(setup_probe());
    });
    while !cfg.trace && setups.len() < MIN_SETUP_SAMPLES {
        setups.push(setup_probe());
    }
    let mut gate = Gate::default();
    let reference = &reps[0];
    for (i, rep) in reps.iter().enumerate() {
        gate.merge(rep.gate.clone());
        if rep.logs != reference.logs || rep.events != reference.events {
            gate.violations.push(format!(
                "repetition {i} (traced: {}) did not reproduce repetition 0: \
                 events {} vs {}",
                rep.traced, rep.events, reference.events
            ));
        }
    }
    let mut samples = Samples::default();
    if cfg.trace {
        trace_metrics(&spec, cfg.seed, &reps, &mut samples, &mut gate);
    } else {
        let slots_total: usize = reps.iter().map(|r| r.slots).sum();
        let cpu_total: u64 = reps.iter().map(|r| r.cpu_ns).sum();
        for rep in &reps {
            let slots = rep.slots.max(1) as f64;
            samples.push(
                "commit_p50_ms",
                host::quantile_sorted(&rep.latencies_ms, 0.5),
            );
            samples.push(
                "commit_p99_ms",
                host::quantile_sorted(&rep.latencies_ms, 0.99),
            );
            samples.push("slots_per_s", slots / rep.span_s.max(1e-9));
            samples.push(
                "host_slots_per_s",
                slots / (rep.host_ns.max(1) as f64 / 1e9),
            );
        }
        // One sample over the whole run: CPU time comes in 10 ms ticks.
        samples.push(
            "cpu_ms_per_slot",
            cpu_total as f64 / slots_total.max(1) as f64 / 1e6,
        );
        samples.extend("setup_s", setups);
        // The first repetition's peak: later ones run on a heap shaped by
        // earlier ones, and how many run depends on host speed.
        samples.push("peak_rss_mb", reference.peak_rss_mb);
        samples.push(
            "committed_frac",
            1.0 - gate.missing as f64 / gate.expected.max(1) as f64,
        );
    }
    let params = inp.cfg.params().expect("valid n/f");
    let tags = vec![
        ("n", spec.n.to_string()),
        ("f", spec.f.to_string()),
        ("d_ms", format!("{}", params.d().as_nanos() as f64 / 1e6)),
        ("values", spec.values.to_string()),
        ("sim_mode", format!("{:?}", spec.mode)),
        ("repetitions", reps.len().to_string()),
        ("latency_samples", reference.latencies_ms.len().to_string()),
        ("clock", "simulated".to_string()),
    ];
    (gate, samples, tags)
}

/// Seconds to build the cluster and boot it (every node's `on_start`),
/// as the mean over a batch of set-ups, each torn down outside the
/// timed part.
fn setup_sample(spec: &SimSpec, inp: &Inputs) -> f64 {
    let mut total = std::time::Duration::ZERO;
    for _ in 0..SETUPS_PER_SAMPLE {
        let t = Instant::now();
        let mut sim = build(inp, spec.mode, false);
        sim.run_until(RealTime::ZERO);
        total += t.elapsed();
        drop(sim);
    }
    total.as_secs_f64() / SETUPS_PER_SAMPLE as f64
}

/// Set-up seconds of a simulated workload, measured in this process:
/// the median over several batches.
pub(crate) fn setup_seconds(workload: Workload, seed: u64, size: Size) -> f64 {
    let spec = SimSpec::of(workload, size);
    let inp = inputs(&spec, seed);
    let batches: Vec<f64> = (0..SETUP_BATCHES)
        .map(|_| setup_sample(&spec, &inp))
        .collect();
    host::median(&batches)
}

/// Repeats the simulation until `seconds` are spent (at least once;
/// traced runs alternate untraced and traced repetitions, at least one
/// of each). Untraced runs take a set-up sample before each repetition.
fn repeat(
    spec: &SimSpec,
    inp: &Inputs,
    seconds: f64,
    trace: bool,
    setup_sample: &mut dyn FnMut(),
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        if !trace {
            setup_sample();
        }
        let traced = trace && reps.len() % 2 == 1;
        reps.push(repetition(spec, inp, traced));
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = elapsed / reps.len() as f64;
        let pair_done = !trace || reps.len().is_multiple_of(2);
        if pair_done && elapsed + per_rep > seconds {
            return reps;
        }
    }
}

fn trace_metrics(spec: &SimSpec, seed: u64, reps: &[Rep], samples: &mut Samples, gate: &mut Gate) {
    let untraced: Vec<f64> = reps
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.host_ns as f64)
        .collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let traced_host: Vec<f64> = traced.iter().map(|r| r.host_ns as f64).collect();
    samples.push(
        "trace.overhead",
        host::median(&traced_host) / host::median(&untraced).max(1.0),
    );
    for rep in &traced {
        let slots = rep.slots.max(1) as f64;
        let s = split(rep);
        samples.push("core.busy_ms_per_slot", s.core_ms_per_slot);
        samples.push("core.calls_per_slot", rep.core_calls as f64 / slots);
        samples.push(
            "core.ns_per_call",
            rep.core_ns as f64 / rep.core_calls.max(1) as f64,
        );
        samples.push("core.pipeline.aborts_per_slot", rep.aborts as f64 / slots);
        samples.push(
            "core.pipeline.caught_up_per_slot",
            rep.caught_up as f64 / slots,
        );
        samples.push("simnet.self_ms_per_slot", s.simnet_self_ms_per_slot);
        samples.push("simnet.events_per_slot", rep.events as f64 / slots);
        samples.push("simnet.msgs_sent_per_slot", rep.sent as f64 / slots);
        samples.push("simnet.swallowed_per_slot", rep.swallowed as f64 / slots);
        samples.push("simnet.queue_peak", rep.queue_peak as f64);
        samples.push("simnet.par.windows", rep.windows as f64);
        samples.push("simnet.par.parallelism", rep.parallelism);
        samples.push("simnet.par.non_core_share", s.non_core_share);
        let unaccounted = 1.0 - rep.run_until_ns as f64 / rep.host_ns.max(1) as f64;
        samples.push("trace.unaccounted_share", unaccounted);
        if rep.threads == 1 && (unaccounted > RECONCILE_TOLERANCE || s.non_core_share < 0.0) {
            gate.violations.push(format!(
                "layer split does not add up: core {:.3} ms/slot + simnet {:.3} ms/slot, \
                 {:.1}% of host time outside run_until (tolerance {:.0}%)",
                s.core_ms_per_slot,
                s.simnet_self_ms_per_slot,
                unaccounted * 100.0,
                RECONCILE_TOLERANCE * 100.0
            ));
        }
    }
    match wire::replay(&traced[0].sample, spec.n, mix(seed, LANE_WIRE)) {
        Ok(cost) => {
            samples.push("wire.codec_ns_per_frame", cost.codec_ns_per_frame);
            samples.push("wire.mac_ns_per_frame", cost.mac_ns_per_frame);
        }
        Err(e) => gate.violations.push(e),
    }
    for name in [
        "wire.frames_per_slot",
        "wire.bytes_per_slot",
        "wire.rejected_frames",
        "runtime.submit_us_p50",
        "runtime.gen_late_ms_max",
        "runtime.reactor_cpu_ms_per_slot",
        "runtime.node_cpu_ms_per_slot",
    ] {
        samples.push(name, 0.0);
    }
}

/// The `core` split and a protocol-message sample from one traced run
/// of `spec`, for workloads whose own pipelines cannot be timed from
/// outside.
pub(crate) struct Companion {
    pub(crate) core_ms_per_slot: f64,
    pub(crate) calls_per_slot: f64,
    pub(crate) ns_per_call: f64,
    pub(crate) aborts_per_slot: f64,
    pub(crate) caught_up_per_slot: f64,
    pub(crate) sample: Vec<(NodeId, PipelineMsg)>,
    pub(crate) gate: Gate,
}

pub(crate) fn companion(spec: &SimSpec, seed: u64) -> Companion {
    let inp = inputs(spec, seed);
    let rep = repetition(spec, &inp, true);
    let slots = rep.slots.max(1) as f64;
    Companion {
        core_ms_per_slot: rep.core_ns as f64 / slots / 1e6,
        calls_per_slot: rep.core_calls as f64 / slots,
        ns_per_call: rep.core_ns as f64 / rep.core_calls.max(1) as f64,
        aborts_per_slot: rep.aborts as f64 / slots,
        caught_up_per_slot: rep.caught_up as f64 / slots,
        sample: rep.sample,
        gate: rep.gate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn followers_are_distinct_and_never_the_proposer() {
        for seed in 0..50 {
            let v = pick_followers(16, 5, seed);
            assert_eq!(v.len(), 5);
            assert!(v.iter().all(|id| id.index() != 0));
            let mut s: Vec<_> = v.iter().map(|id| id.index()).collect();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 5);
        }
    }

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let spec = SimSpec::of(Workload::SimChurnN16, Size::Full);
        let (a, b, c) = (inputs(&spec, 3), inputs(&spec, 3), inputs(&spec, 4));
        assert_eq!(a.stream.base, b.stream.base);
        assert_eq!(a.clocks, b.clocks);
        assert_ne!(a.stream.base, c.stream.base);
        assert_eq!(
            a.faults.len(),
            5,
            "4 bursts, one of them a partition + heal"
        );
    }
}
