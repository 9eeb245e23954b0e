//! End-to-end commit benchmark for the `ssbyz` slot pipeline.
//!
//! One command runs one named workload for a fixed number of seconds,
//! checks every committed log for correctness, and prints every metric
//! by name with its unit. The end-to-end metrics come from untraced
//! runs; `--trace 1` instead runs traced and untraced repetitions side
//! by side and prints the per-layer split. Every layer is measured from
//! outside, by timing calls into its public API:
//!
//! * `core`: the `harness::PipelineProcess` callbacks the simulator
//!   makes, each of which is one `core::SlotPipeline` call;
//! * `simnet`: `AnySim::run_until`, minus the `core` time inside it;
//! * `wire` and `runtime`: `PipelineCluster::submit`, `TcpTransport`
//!   statistics, per-thread CPU, and a replay of the public codec,
//!   frame and MAC functions over a sample of protocol messages.
//!
//! See `README.md` beside this crate for why each workload was chosen
//! and which end-to-end metric each layer metric should move.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

mod gate;
mod host;
mod sim;
mod tcp;
mod wire;

pub use gate::{check_logs, Gate};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of every tuning run, for confirming a claim on
/// inputs the change was not written against.
pub const HELD_OUT_SEED: u64 = 7_919;

/// End-to-end metrics, printed on untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("slots_per_s", "1/s"),
    ("host_slots_per_s", "1/s"),
    ("cpu_ms_per_slot", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("committed_frac", "fraction"),
];

/// Per-layer metrics, printed on traced runs: `(name, unit)`. A metric
/// whose layer a workload does not run reads 0 there.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("core.busy_ms_per_slot", "ms"),
    ("core.calls_per_slot", "count"),
    ("core.ns_per_call", "ns"),
    ("core.pipeline.aborts_per_slot", "count"),
    ("core.pipeline.caught_up_per_slot", "count"),
    ("simnet.self_ms_per_slot", "ms"),
    ("simnet.events_per_slot", "count"),
    ("simnet.msgs_sent_per_slot", "count"),
    ("simnet.swallowed_per_slot", "count"),
    ("simnet.queue_peak", "count"),
    ("simnet.par.windows", "count"),
    ("simnet.par.parallelism", "ratio"),
    ("simnet.par.non_core_share", "fraction"),
    ("wire.frames_per_slot", "count"),
    ("wire.bytes_per_slot", "bytes"),
    ("wire.rejected_frames", "count"),
    ("wire.codec_ns_per_frame", "ns"),
    ("wire.mac_ns_per_frame", "ns"),
    ("runtime.submit_us_p50", "us"),
    ("runtime.gen_late_ms_max", "ms"),
    ("runtime.reactor_cpu_ms_per_slot", "ms"),
    ("runtime.node_cpu_ms_per_slot", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.unaccounted_share", "fraction"),
];

/// Largest share of a traced sequential repetition's host time that may
/// fall outside `run_until` (the driving loop's own bookkeeping) before
/// the layer split is declared not to add up.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// n=64 saturating stream on the sequential simulator. Not listed in
    /// `BENCHMARK.json`: its host metrics follow the shared host's slow
    /// drift by more than any bound allows (see `README.md`).
    SimStreamN64,
    /// The same inputs on the two-thread sharded simulator.
    SimStreamN64Sharded2,
    /// n=16 stream under rolling crash/recover bursts and a partition.
    /// Not listed in `BENCHMARK.json`: some seeds wedge the pipeline
    /// (see `README.md`), so it serves as a reproducer.
    SimChurnN16,
    /// n=4 open-loop bursts over the authenticated TCP loopback mesh.
    TcpBurstN4,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 4] = [
        Workload::SimStreamN64,
        Workload::SimStreamN64Sharded2,
        Workload::SimChurnN16,
        Workload::TcpBurstN4,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimStreamN64 => "sim_stream_n64",
            Workload::SimStreamN64Sharded2 => "sim_stream_n64_sharded2",
            Workload::SimChurnN16 => "sim_churn_n16",
            Workload::TcpBurstN4 => "tcp_burst_n4",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is what the benchmark measures; `Tiny` shrinks
/// every workload so the benchmark's own tests run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few values on a small cluster.
    Tiny,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// How long to measure, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// Raw samples per metric name, as a workload runner collects them.
/// A metric's value is the median of its samples.
#[derive(Debug, Default)]
pub(crate) struct Samples {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    pub(crate) fn push(&mut self, name: &'static str, sample: f64) {
        self.samples.entry(name).or_default().push(sample);
    }

    pub(crate) fn extend(&mut self, name: &'static str, samples: impl IntoIterator<Item = f64>) {
        self.samples.entry(name).or_default().extend(samples);
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Reported value.
    pub value: f64,
    /// The samples it summarizes.
    pub samples: Vec<f64>,
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Correctness gate over every repetition's logs.
    pub gate: Gate,
    /// Reported metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Context every result carries: host, `d`, seed, sizes.
    pub tags: Vec<(&'static str, String)>,
}

impl Outcome {
    fn new(
        gate: Gate,
        mut samples: Samples,
        trace: bool,
        tags: Vec<(&'static str, String)>,
    ) -> Self {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let s = samples.samples.remove(name).unwrap_or_default();
                assert!(!s.is_empty(), "metric {name} was not measured");
                Metric {
                    name,
                    unit,
                    value: host::median(&s),
                    samples: s,
                }
            })
            .collect();
        Outcome {
            gate,
            metrics,
            tags,
        }
    }

    /// Whether the run passed: no safety violation and every metric a
    /// finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.gate.violations.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Looks a reported metric up by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line: `correct`, `attempted` and `failed` (expected
    /// and missing (value, node) commits) and every metric with its
    /// unit.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.gate.expected.max(1),
            self.gate.missing,
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The report line: the run's tags and, per metric, its sample
    /// count, min, median and spread (interquartile range over median).
    #[must_use]
    pub fn report_line(&self) -> String {
        let mut out = String::from("{\"tags\": {");
        for (i, (k, v)) in self.tags.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": \"{}\"", v.replace(['"', '\\'], "'"));
        }
        out.push_str("}, \"samples\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let (min, median, spread) = host::summary(&m.samples);
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"n\": {}, \"min\": {}, \"median\": {}, \"spread\": {}}}",
                m.name,
                m.samples.len(),
                json_number(min),
                json_number(median),
                json_number(spread),
            );
        }
        out.push_str("}, \"violations\": [");
        for (i, v) in self.gate.violations.iter().take(20).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\"", v.replace(['"', '\\'], "'"));
        }
        out.push_str("]}");
        out
    }
}

/// JSON has no NaN or infinity; a non-finite value is printed as 0 and
/// fails the run through [`Outcome::correct`].
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Seed lanes: each generated input draws from its own stream of the
/// workload seed.
const LANE_SIM: u64 = 1;
const LANE_VALUES: u64 = 2;
const LANE_CLOCKS: u64 = 3;
const LANE_FAULTS: u64 = 4;
const LANE_WIRE: u64 = 5;

/// Deterministic 64-bit mix of a seed and a lane (SplitMix64), used to
/// derive every generated input from the one workload seed.
pub(crate) fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(lane.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seconds to set the workload's cluster up, measured in this process:
/// the median over several set-ups. One call is one `setup_s` sample.
#[must_use]
pub fn setup_seconds(workload: Workload, seed: u64, size: Size) -> f64 {
    match workload {
        Workload::TcpBurstN4 => tcp::setup_seconds(seed),
        _ => sim::setup_seconds(workload, seed, size),
    }
}

/// Runs one workload and returns what it measured. `setup_probe` takes
/// one `setup_s` sample; an untraced run calls it several times spread
/// over the run, because set-up time drifts with the host from one
/// second to the next.
pub fn run(cfg: &RunConfig, setup_probe: &mut dyn FnMut() -> f64) -> Outcome {
    let mut tags = vec![
        ("workload", cfg.workload.name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", u8::from(cfg.trace).to_string()),
        ("size", format!("{:?}", cfg.size)),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, std::num::NonZeroUsize::get)
                .to_string(),
        ),
    ];
    let (gate, samples, more) = match cfg.workload {
        Workload::TcpBurstN4 => tcp::run(cfg, setup_probe),
        _ => sim::run(cfg, setup_probe),
    };
    tags.extend(more);
    Outcome::new(gate, samples, cfg.trace, tags)
}
