//! Command line of the end-to-end benchmark:
//!
//! ```text
//! e2ebench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints a human-readable summary, a report line (tags and per-metric
//! sample statistics), and, last, the result line. Exits non-zero on
//! bad arguments.
//!
//! An untraced run takes each `setup_s` sample in a child process of
//! this same program (`--setup-probe 1`, which prints one number), so
//! every sample starts from a fresh heap.

use std::process::{Command, ExitCode};

use ssbyz_e2ebench::{run, setup_seconds, RunConfig, Size, Workload, DEFAULT_SEED};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: e2ebench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] \
         [--setup-probe <0|1>]",
        names.join("|")
    )
}

/// Parses the command line into a run and whether this process is only
/// a set-up probe.
fn parse(args: &[String]) -> Result<(RunConfig, bool), String> {
    let mut cfg = RunConfig {
        workload: Workload::SimStreamN64,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut probe = false;
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => cfg.trace = flag_bool(flag, value)?,
            "--setup-probe" => probe = flag_bool(flag, value)?,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok((cfg, probe))
}

fn flag_bool(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1")),
    }
}

/// Times set-up in a child process of this program.
fn probe_setup(cfg: &RunConfig) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            cfg.workload.name(),
            "--seed",
            &cfg.seed.to_string(),
        ])
        .args(["--setup-probe", "1"])
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse::<f64>()) {
        (true, Ok(seconds)) => Ok(seconds),
        _ => Err(format!("set-up probe failed: {}", out.status)),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, probe) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if probe {
        println!("{}", setup_seconds(cfg.workload, cfg.seed, cfg.size));
        return ExitCode::SUCCESS;
    }
    let outcome = run(&cfg, &mut || probe_setup(&cfg).expect("set-up probe"));
    for m in &outcome.metrics {
        println!("{:<36} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for v in outcome.gate.violations.iter().take(20) {
        println!("VIOLATION: {v}");
    }
    let mut command = vec!["e2ebench".to_string()];
    command.extend(args);
    let mut report = outcome.report_line();
    report.insert_str(
        report.len() - 1,
        &format!(
            ", \"command\": \"{}\", \"commit\": \"{}\"",
            command.join(" ").replace(['"', '\\'], "'"),
            source_commit()
        ),
    );
    println!("{report}");
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}

/// The commit the benchmark was built from, if it runs inside a git
/// checkout (read from `.git` in the working directory; "unknown"
/// otherwise, as in an exported source tree).
fn source_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}
