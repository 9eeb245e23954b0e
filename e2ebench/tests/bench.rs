//! Tests of the benchmark itself: every workload runs at a tiny size
//! and prints every named metric with its unit, the metric tables match
//! `BENCHMARK.json`, and a planted log divergence fails the run.

use ssbyz::core::PipelineConfig;
use ssbyz::harness::{PipelineScenario, ScenarioConfig, Workload as Stream};
use ssbyz::simnet::WaveMode;
use ssbyz::{Duration, NodeId, RealTime};
use ssbyz_e2ebench::{
    check_logs, run, setup_seconds, Outcome, RunConfig, Size, Workload, DEFAULT_SEED, END_TO_END,
    PER_LAYER,
};

fn tiny(workload: Workload, trace: bool) -> Outcome {
    run(
        &RunConfig {
            workload,
            seed: DEFAULT_SEED,
            seconds: 0.5,
            trace,
            size: Size::Tiny,
        },
        &mut || setup_seconds(workload, DEFAULT_SEED, Size::Tiny),
    )
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let o = tiny(workload, trace);
            let what = format!("{} trace={trace}", workload.name());
            assert!(o.correct(), "{what}: {:?}", o.gate.violations);
            assert_eq!(o.gate.missing, 0, "{what}: commits missing");
            let line = o.result_line();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            assert_eq!(o.metrics.len(), table.len(), "{what}");
            for (name, unit) in table {
                let m = o
                    .metric(name)
                    .unwrap_or_else(|| panic!("{what}: {name} missing"));
                assert!(
                    m.value.is_finite() && m.value >= 0.0,
                    "{what}: {name} = {}",
                    m.value
                );
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": "))
                        && line.contains(&format!("\"unit\": \"{unit}\"")),
                    "{what}: {name} not printed with {unit}: {line}"
                );
            }
            if !trace {
                for name in ["commit_p50_ms", "commit_p99_ms", "slots_per_s", "setup_s"] {
                    assert!(o.metric(name).unwrap().value > 0.0, "{what}: {name} is 0");
                }
                assert_eq!(o.metric("committed_frac").unwrap().value, 1.0, "{what}");
            }
        }
    }
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        let listed = json.contains(&format!("\"name\": \"{}\"", w.name()));
        let steady = matches!(w, Workload::SimStreamN64Sharded2 | Workload::TcpBurstN4);
        assert_eq!(listed, steady, "{}", w.name());
    }
}

#[test]
fn planted_log_divergence_fails_the_run() {
    // Real committed logs from a short fault-free stream.
    let cfg = ScenarioConfig::new(4, 1).with_seed(3);
    let params = cfg.params().unwrap();
    let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params);
    let stream = Stream::steady(6, 2, Duration::from_millis(10));
    let mut s = PipelineScenario::new(&cfg, &pipe_cfg, stream, WaveMode::Coalesced);
    s.run_until(RealTime::from_nanos(3_000_000_000));
    let logs: Vec<Vec<(u64, u64)>> = s.committed_logs();
    let submitted: Vec<u64> = (0..6).map(|i| stream.base + i).collect();
    let healthy = check_logs(&logs, &submitted);
    assert!(healthy.violations.is_empty(), "{:?}", healthy.violations);
    assert_eq!(healthy.missing, 0);

    // Node 2 applies a different (but submitted) value at slot 3.
    let mut planted = logs.clone();
    planted[2][3].1 = submitted[5];
    planted[2][5].1 = submitted[3];
    let mut o = tiny(Workload::SimStreamN64, false);
    assert!(o.correct());
    o.gate = check_logs(&planted, &submitted);
    assert!(!o.correct(), "a divergent log must fail the run");
    assert!(o.result_line().starts_with("{\"correct\": false,"));
    assert!(
        o.gate.violations.iter().any(|v| v.contains("diverge")),
        "{:?}",
        o.gate.violations
    );
}
