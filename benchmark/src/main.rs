//! `dfl-benchmark`: end-to-end and per-layer benchmark of the
//! decentralized-FL system on both backends (see `benchmark/README.md`).
//!
//! ```text
//! dfl-benchmark                          # a full result set: every workload, every metric
//! dfl-benchmark --smoke                  # every workload at 2 rounds, all checks, < 60 s
//! dfl-benchmark --compare A.json B.json  # two result sets, row by row
//! dfl-benchmark --workload W --seed N --seconds S --trace 0|1   # one run, one JSON line
//! ```

mod compare;
mod json;
mod kernels;
mod ledger;
mod metrics;
mod report;
mod run;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use json::Value;
use metrics::{end_to_end, unit};
use run::{RunResult, RunSpec};
use workloads::{Scale, Workload, DEFAULT_SEED};

/// Run length `BENCHMARK.json` asks the driver for, and the default here.
pub const RUN_SECONDS: u64 = 20;

/// Sampling time per kernel in a full-size traced run.
const KERNEL_BUDGET: Duration = Duration::from_millis(150);

const USAGE: &str = "usage:
  dfl-benchmark [--runs N] [--seed N] [--seconds S] [--label NAME] [--out DIR]
  dfl-benchmark --smoke
  dfl-benchmark --compare A.json B.json
  dfl-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                [--detail FILE] [--spans FILE] [--skip-kernels]
workloads: fig1_merge fig2_tcp fig2_verifiable overlay_10k";

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    detail: Option<PathBuf>,
    spans: Option<PathBuf>,
    skip_kernels: bool,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
    runs: Option<usize>,
    label: Option<String>,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| {
        text.parse::<u64>()
            .map_err(|_| format!("{flag} takes a whole number, got {text:?}"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => args.seed = Some(number(value(&mut it, flag)?, flag)?),
            "--seconds" => {
                let seconds = number(value(&mut it, flag)?, flag)?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--detail" => args.detail = Some(value(&mut it, flag)?.into()),
            "--spans" => args.spans = Some(value(&mut it, flag)?.into()),
            "--skip-kernels" => args.skip_kernels = true,
            "--smoke" => args.smoke = true,
            "--compare" => {
                args.compare = Some((value(&mut it, flag)?.into(), value(&mut it, flag)?.into()))
            }
            "--runs" => {
                let runs = number(value(&mut it, flag)?, flag)?;
                if !(1..=50).contains(&runs) {
                    return Err("--runs must be between 1 and 50".to_string());
                }
                args.runs = Some(runs as usize);
            }
            "--label" => {
                let label = value(&mut it, flag)?;
                let plain = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
                if label.is_empty() || !label.chars().all(plain) || label.starts_with('.') {
                    return Err("--label takes letters, digits, '_', '.', '-'".to_string());
                }
                args.label = Some(label);
            }
            "--out" => args.out = Some(value(&mut it, flag)?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The one line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`. Untraced runs print the host-measured end-to-end
/// metrics; traced runs print the exact ones and every per-layer metric.
fn contract_line(result: &RunResult, traced: bool) -> String {
    let metrics = result
        .metrics
        .0
        .iter()
        .filter(|m| traced || end_to_end(m.name).is_some_and(|def| !def.exact))
        .map(|m| {
            let unit = unit(m.name).expect("MetricSet::put admits table names only");
            (
                m.name,
                Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(unit))]),
            )
        });
    Value::obj([
        ("correct", Value::Bool(result.correct())),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
    .to_json()
}

/// One run in this process (what the driver and the suite's children do).
fn single_run(workload: &str, args: &Args) -> Result<ExitCode, String> {
    let workload = Workload::parse(workload)
        .ok_or_else(|| format!("unknown workload {workload:?}\n{USAGE}"))?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let (scale, kernel_budget) = if args.smoke {
        (Scale::smoke(), Duration::ZERO)
    } else {
        let seconds = args.seconds.unwrap_or(RUN_SECONDS);
        (Scale::for_seconds(workload, seconds), KERNEL_BUDGET)
    };
    // The suite times the kernels once per result set, not per workload.
    let kernel_budget = (!args.skip_kernels).then_some(kernel_budget);
    let spec = RunSpec {
        workload,
        scale,
        seed,
        traced: args.trace,
        kernel_budget,
        spans_out: args.spans.clone(),
    };
    let result = run::run(&spec).map_err(|e| e.to_string())?;
    for failure in &result.failures {
        eprintln!("check failed: {failure}");
    }
    if let Some(path) = &args.detail {
        let detail = suite::detail_json(&spec, &result).to_json_pretty();
        std::fs::write(path, detail).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", contract_line(&result, args.trace));
    Ok(ExitCode::SUCCESS)
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    if let Some(workload) = &args.workload {
        return single_run(workload, &args);
    }
    suite::run(&suite::Plan {
        smoke: args.smoke,
        runs: args.runs,
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(RUN_SECONDS),
        label: args.label.clone(),
        out: args.out.clone(),
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("dfl-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let args = parse_args(&argv(&[
            "--workload",
            "fig1_merge",
            "--seed",
            "7",
            "--seconds",
            "22",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("fig1_merge"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (Some(7), Some(22), true)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            vec!["--seed"],
            vec!["--seed", "x"],
            vec!["--seconds", "0"],
            vec!["--seconds", "61"],
            vec!["--trace", "2"],
            vec!["--runs", "0"],
            vec!["--label", "../x"],
            vec!["--compare", "a.json"],
            vec!["--bogus"],
        ] {
            assert!(parse_args(&argv(&bad)).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys_and_metrics() {
        let mut metrics = MetricSet::default();
        for def in END_TO_END {
            metrics.put(def.name, 1.5);
        }
        let result = RunResult {
            attempted: 88,
            failed: 0,
            failures: Vec::new(),
            metrics,
            fingerprint: 1,
        };
        let doc = Value::parse(&contract_line(&result, false)).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = doc
            .get("metrics")
            .and_then(Value::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            names,
            ["setup_s", "wall_s", "round_host_ms", "cpu_s", "peak_rss_mb"]
        );
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("wall_s"))
                .and_then(|m| m.get("unit")),
            Some(&Value::str("s"))
        );

        let mut layers = MetricSet::default();
        for def in END_TO_END.iter().filter(|d| d.exact) {
            layers.put(def.name, 0.0);
        }
        for m in PER_LAYER {
            layers.put(m.name, 2.0);
        }
        let traced = RunResult {
            metrics: layers,
            ..result
        };
        let doc = Value::parse(&contract_line(&traced, true)).unwrap();
        let count = doc.get("metrics").and_then(Value::as_obj).unwrap().len();
        assert_eq!(count, PER_LAYER.len() + 3);
    }
}
