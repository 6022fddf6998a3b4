//! A result set: every workload, run in fresh child processes that
//! interleave round-robin (w1 w2 w3 w4 w1 …) so machine drift hits all
//! medians alike, then one traced run each; every output checked, every
//! metric printed by name with unit, median, quartiles and sample count,
//! and the whole set written under `benchmark/results/`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::Value;
use crate::metrics::{per_layer, END_TO_END};
use crate::run::{built_fingerprint, run_task_fingerprint, RunResult, RunSpec};
use crate::stats::{median, quartiles, show, spread};
use crate::workloads::{Scale, Workload};

/// Untraced runs per workload when `--runs` is not given.
const DEFAULT_RUNS: usize = 3;

/// What the suite was asked to do.
#[derive(Clone, Debug)]
pub struct Plan {
    /// `--smoke`: 2 rounds per workload, one untraced and one traced run.
    pub smoke: bool,
    /// Untraced runs per workload.
    pub runs: Option<usize>,
    /// Input seed of every run of the set.
    pub seed: u64,
    /// Run length passed to every child.
    pub seconds: u64,
    /// File name (without `.json`) of the result set.
    pub label: Option<String>,
    /// Directory for result files; `benchmark/results` by default.
    pub out: Option<PathBuf>,
}

/// Everything one child process reports, as written to its `--detail` file.
pub fn detail_json(spec: &RunSpec, result: &RunResult) -> Value {
    Value::obj([
        ("workload", Value::str(spec.workload.name())),
        ("seed", Value::Num(spec.seed as f64)),
        ("traced", Value::Bool(spec.traced)),
        ("rounds", Value::Num(spec.scale.rounds as f64)),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed as f64)),
        ("correct", Value::Bool(result.correct())),
        (
            "failures",
            Value::Arr(result.failures.iter().map(Value::str).collect()),
        ),
        // Hex text: a u64 does not survive a trip through an f64.
        (
            "fingerprint",
            Value::str(format!("{:016x}", result.fingerprint)),
        ),
        (
            "metrics",
            Value::obj(
                result
                    .metrics
                    .0
                    .iter()
                    .map(|m| (m.name, Value::Num(m.value))),
            ),
        ),
    ])
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |text| text.trim().to_string())
}

/// The result header: what a number needs beside it to be comparable.
fn header(plan: &Plan, scales: &[(Workload, Scale)]) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let created = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Value::obj([
        ("benchmark_version", Value::str(env!("CARGO_PKG_VERSION"))),
        (
            "git_commit",
            Value::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::str(tool_line("rustc", &["--version"]))),
        ("nproc", Value::Num(nproc as f64)),
        // The benchmark enables no optional feature of any layer.
        ("cargo_features", Value::str("default")),
        (
            "profile",
            Value::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Value::Num(plan.seed as f64)),
        ("seconds", Value::Num(plan.seconds as f64)),
        ("smoke", Value::Bool(plan.smoke)),
        ("created_unix", Value::Num(created as f64)),
        (
            "rounds",
            Value::obj(
                scales
                    .iter()
                    .map(|(w, s)| (w.name(), Value::Num(s.rounds as f64))),
            ),
        ),
    ])
}

/// Which kind of run a child makes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Kind {
    Untraced,
    Traced,
    /// Traced, and the one run of the set that also times the kernels.
    TracedWithKernels,
}

/// Runs one child (`--workload …`) to completion and reads its detail file.
fn child(
    plan: &Plan,
    workload: Workload,
    kind: Kind,
    dir: &Path,
    tag: &str,
) -> Result<Value, String> {
    let traced = kind != Kind::Untraced;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let detail = dir.join(format!("{tag}.detail.json"));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail);
    if plan.smoke {
        cmd.arg("--smoke");
    } else if traced {
        cmd.arg("--spans").arg(dir.join(format!("{tag}.spans.csv")));
    }
    if kind == Kind::Traced {
        cmd.arg("--skip-kernels");
    }
    // The child's own stdout line is for the driver; the suite reads the
    // detail file. `output()` waits for the child to end.
    let out = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{tag}: child exited with {}", out.status));
    }
    let text =
        std::fs::read_to_string(&detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    let value = Value::parse(&text).map_err(|e| format!("{}: {e}", detail.display()))?;
    // The detail file only carried the child's answer to its parent.
    let _ = std::fs::remove_file(&detail);
    Ok(value)
}

/// One workload's slice of a result set.
fn workload_section(
    workload: Workload,
    scale: Scale,
    untraced: &[Value],
    traced: &Value,
    problems: &mut Vec<String>,
) -> Value {
    let name = workload.name();
    let all_runs = || untraced.iter().chain(std::iter::once(traced));
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_string();
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);

    let fingerprints: Vec<String> = all_runs().map(|r| text(r, "fingerprint")).collect();
    let fingerprints_equal = fingerprints.windows(2).all(|w| w[0] == w[1]);
    if !fingerprints_equal {
        problems.push(format!(
            "{name}: trace fingerprints differ across runs of one seed: {fingerprints:?}"
        ));
    }
    let mut failures = Vec::new();
    for run in all_runs() {
        for f in run.get("failures").and_then(Value::as_arr).unwrap_or(&[]) {
            failures.push(f.clone());
        }
        if run.get("correct").and_then(Value::as_bool) != Some(true) {
            problems.push(format!("{name}: a run reported incorrect outputs"));
        }
    }

    let end_to_end_rows: Vec<Value> = END_TO_END
        .iter()
        .map(|def| {
            let values: Vec<f64> = untraced
                .iter()
                .filter_map(|r| r.get("metrics")?.get(def.name)?.as_f64())
                .collect();
            let (q1, _, q3) = quartiles(&values).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
            if def.exact && values.windows(2).any(|w| w[0].to_bits() != w[1].to_bits()) {
                problems.push(format!(
                    "{name}: {} must repeat exactly per seed, got {values:?}",
                    def.name
                ));
            }
            Value::obj([
                ("name", Value::str(def.name)),
                ("unit", Value::str(def.unit)),
                ("bound", Value::Num(def.bound)),
                ("exact", Value::Bool(def.exact)),
                ("n", Value::Num(values.len() as f64)),
                (
                    "median",
                    Value::Num(if values.is_empty() {
                        f64::NAN
                    } else {
                        median(&values)
                    }),
                ),
                ("q1", Value::Num(q1)),
                ("q3", Value::Num(q3)),
                ("spread", Value::Num(spread(&values).unwrap_or(f64::NAN))),
                (
                    "values",
                    Value::Arr(values.iter().map(|v| Value::Num(*v)).collect()),
                ),
            ])
        })
        .collect();

    // Informational: the traced run's `Simulation::run` against the
    // untraced median. On netsim workloads the difference is tracing
    // overhead plus machine drift; the latter is usually the larger.
    let untraced_wall: Vec<f64> = untraced
        .iter()
        .filter_map(|r| r.get("metrics")?.get("wall_s")?.as_f64())
        .collect();
    let traced_run_s = traced
        .get("metrics")
        .and_then(|m| m.get("netsim.run_s")?.as_f64());
    let traced_over_untraced = match traced_run_s {
        Some(run_s) if !workload.over_tcp() && !untraced_wall.is_empty() => {
            run_s / median(&untraced_wall) - 1.0
        }
        _ => f64::NAN,
    };

    Value::obj([
        ("name", Value::str(name)),
        ("rounds", Value::Num(scale.rounds as f64)),
        (
            "traced_run_over_untraced_wall",
            Value::Num(traced_over_untraced),
        ),
        ("fingerprint", Value::str(fingerprints[0].clone())),
        ("fingerprints_equal", Value::Bool(fingerprints_equal)),
        (
            "attempted",
            Value::Num(all_runs().map(|r| num(r, "attempted")).sum()),
        ),
        (
            "failed",
            Value::Num(all_runs().map(|r| num(r, "failed")).sum()),
        ),
        ("failures", Value::Arr(failures)),
        ("end_to_end", Value::Arr(end_to_end_rows)),
        ("per_layer", Value::Arr(layer_rows(traced, false))),
    ])
}

/// The per-layer metrics of a traced run as report rows: the kernels, or
/// everything but the kernels (a set times the kernels once, not per
/// workload).
fn layer_rows(traced: &Value, kernels: bool) -> Vec<Value> {
    traced
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, value)| {
            let def = per_layer(name).filter(|def| def.kernel == kernels)?;
            Some(Value::obj([
                ("name", Value::str(def.name)),
                ("unit", Value::str(def.unit)),
                ("value", value.clone()),
            ]))
        })
        .collect()
}

/// Prints a result set the way the one command promises: every metric by
/// name, with unit, median, quartiles, sample count, and the measured
/// run-to-run spread beside its bound.
pub fn print_set(set: &Value) {
    for section in set.get("workloads").and_then(Value::as_arr).unwrap_or(&[]) {
        let s = |key: &str| section.get(key).and_then(Value::as_str).unwrap_or("?");
        let n = |key: &str| section.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        println!(
            "\n== {}: {} rounds, fingerprint {}, failed {}/{} rounds",
            s("name"),
            n("rounds"),
            s("fingerprint"),
            n("failed"),
            n("attempted")
        );
        println!(
            "  {:<22} {:<6} {:>12} {:>12} {:>12} {:>3}  {:>8}  {:>6}",
            "end-to-end", "unit", "median", "q1", "q3", "n", "spread", "bound"
        );
        for row in section
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
        {
            let f = |key: &str| row.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
            let spread_text = if row.get("exact").and_then(Value::as_bool) == Some(true) {
                "exact".to_string()
            } else if f("spread").is_nan() {
                "-".to_string()
            } else {
                format!("{:.2}%", f("spread") * 100.0)
            };
            println!(
                "  {:<22} {:<6} {:>12} {:>12} {:>12} {:>3}  {:>8}  {:>5.0}%",
                row.get("name").and_then(Value::as_str).unwrap_or("?"),
                row.get("unit").and_then(Value::as_str).unwrap_or("?"),
                show(f("median")),
                show(f("q1")),
                show(f("q3")),
                f("n"),
                spread_text,
                f("bound") * 100.0
            );
        }
        let drift = section
            .get("traced_run_over_untraced_wall")
            .and_then(Value::as_f64)
            .filter(|d| d.is_finite());
        if let Some(drift) = drift {
            println!(
                "  traced Simulation::run vs untraced median wall_s: {:+.2}% (overhead + drift)",
                drift * 100.0
            );
        }
        println!(
            "  {:<34} {:<6} {:>14}   (traced run, n = 1)",
            "per-layer", "unit", "value"
        );
        print_rows(section.get("per_layer"));
    }
    println!("\n== kernels: public functions timed directly, once per result set");
    println!("  {:<34} {:<6} {:>14}", "kernel", "unit", "median");
    print_rows(set.get("kernels"));
}

fn print_rows(rows: Option<&Value>) {
    for row in rows.and_then(Value::as_arr).unwrap_or(&[]) {
        println!(
            "  {:<34} {:<6} {:>14}",
            row.get("name").and_then(Value::as_str).unwrap_or("?"),
            row.get("unit").and_then(Value::as_str).unwrap_or("?"),
            show(row.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN))
        );
    }
}

/// The wiring check: the benchmark-built deployment must produce the very
/// trace `ipls::run_task` produces for the same inputs.
fn wiring_check(seed: u64, problems: &mut Vec<String>) -> Result<(), String> {
    for workload in Workload::ALL {
        let ours =
            built_fingerprint(workload, Scale::smoke(), seed, None).map_err(|e| e.to_string())?;
        let theirs =
            run_task_fingerprint(workload, Scale::smoke(), seed).map_err(|e| e.to_string())?;
        if ours != theirs {
            problems.push(format!(
                "{}: benchmark-built deployment ({ours:016x}) differs from ipls::run_task ({theirs:016x})",
                workload.name()
            ));
        }
    }
    Ok(())
}

/// Runs the plan; exit code 0 only when every check of every run passed.
pub fn run(plan: &Plan) -> Result<ExitCode, String> {
    let started = Instant::now();
    let runs = if plan.smoke {
        1
    } else {
        plan.runs.unwrap_or(DEFAULT_RUNS)
    };
    let dir = plan
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results")));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let scales: Vec<(Workload, Scale)> = Workload::ALL
        .iter()
        .map(|&w| {
            let scale = if plan.smoke {
                Scale::smoke()
            } else {
                Scale::for_seconds(w, plan.seconds)
            };
            (w, scale)
        })
        .collect();
    let label = plan.label.clone().unwrap_or_else(|| {
        let secs = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        format!("{}-{secs}", if plan.smoke { "smoke" } else { "set" })
    });

    let mut problems = Vec::new();
    eprintln!("wiring check: benchmark-built deployment vs ipls::run_task …");
    wiring_check(plan.seed, &mut problems)?;

    let mut untraced: Vec<Vec<Value>> = vec![Vec::new(); scales.len()];
    for r in 0..runs {
        for (i, (workload, _)) in scales.iter().enumerate() {
            eprintln!("run {}/{runs}: {} …", r + 1, workload.name());
            let tag = format!("{label}.{}.run{r}", workload.name());
            untraced[i].push(child(plan, *workload, Kind::Untraced, &dir, &tag)?);
        }
    }
    let mut sections = Vec::new();
    let mut kernels = Vec::new();
    for (i, (workload, scale)) in scales.iter().enumerate() {
        eprintln!("traced run: {} …", workload.name());
        let tag = format!("{label}.{}.traced", workload.name());
        let kind = if i == 0 {
            Kind::TracedWithKernels
        } else {
            Kind::Traced
        };
        let traced = child(plan, *workload, kind, &dir, &tag)?;
        if kind == Kind::TracedWithKernels {
            kernels = layer_rows(&traced, true);
        }
        sections.push(workload_section(
            *workload,
            *scale,
            &untraced[i],
            &traced,
            &mut problems,
        ));
    }

    let set = Value::obj([
        ("header", header(plan, &scales)),
        ("workloads", Value::Arr(sections)),
        ("kernels", Value::Arr(kernels)),
        (
            "problems",
            Value::Arr(problems.iter().map(Value::str).collect()),
        ),
    ]);
    let path = dir.join(format!("{label}.json"));
    std::fs::write(&path, set.to_json_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "{}",
        set.get("header").map_or_else(String::new, Value::to_json)
    );
    print_set(&set);
    println!(
        "\nresult set written to {} ({:.0} s)",
        path.display(),
        started.elapsed().as_secs_f64()
    );
    if problems.is_empty() {
        println!("all checks passed");
        Ok(ExitCode::SUCCESS)
    } else {
        for problem in &problems {
            println!("PROBLEM: {problem}");
        }
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricSet;

    fn detail(wall: f64, fingerprint: u64, traced: bool) -> Value {
        let mut metrics = MetricSet::default();
        if traced {
            metrics.put("sim_round_s", 27.5);
            metrics.put("ipfs.node_handle_s", 17.0);
            metrics.put("netsim.run_s", 12.1);
            metrics.put("crypto.sha256_mb_s", 200.0);
        } else {
            for def in END_TO_END {
                metrics.put(def.name, if def.name == "wall_s" { wall } else { 2.0 });
            }
        }
        let spec = RunSpec {
            workload: Workload::Fig1Merge,
            scale: Scale::smoke(),
            seed: 14,
            traced,
            kernel_budget: None,
            spans_out: None,
        };
        let result = RunResult {
            attempted: 2,
            failed: 0,
            failures: Vec::new(),
            metrics,
            fingerprint,
        };
        // Through text, the way a child's answer reaches its parent.
        Value::parse(&detail_json(&spec, &result).to_json_pretty()).unwrap()
    }

    #[test]
    fn section_reports_median_quartiles_and_count() {
        let runs = [
            detail(10.0, 7, false),
            detail(12.5, 7, false),
            detail(11.0, 7, false),
        ];
        let mut problems = Vec::new();
        let section = workload_section(
            Workload::Fig1Merge,
            Scale::smoke(),
            &runs,
            &detail(0.0, 7, true),
            &mut problems,
        );
        assert_eq!(problems, Vec::<String>::new());
        let rows = section.get("end_to_end").and_then(Value::as_arr).unwrap();
        let wall = rows
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some("wall_s"))
            .unwrap();
        let f = |key: &str| wall.get(key).and_then(Value::as_f64).unwrap();
        assert_eq!(
            (f("median"), f("q1"), f("q3"), f("n")),
            (11.0, 10.0, 12.5, 3.0)
        );
        assert!((f("spread") - 2.5 / 11.0).abs() < 1e-12);
        let layers = section.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(
            layers.len(),
            2,
            "neither exact end-to-end metrics nor kernels"
        );
        assert_eq!(layer_rows(&detail(0.0, 7, true), true).len(), 1);
        let over = section
            .get("traced_run_over_untraced_wall")
            .and_then(Value::as_f64)
            .unwrap();
        assert!((over - 0.1).abs() < 1e-12);
        assert_eq!(
            section.get("fingerprint").and_then(Value::as_str),
            Some("0000000000000007")
        );
        // The whole set survives a write → parse round trip.
        let set = Value::obj([("workloads", Value::Arr(vec![section]))]);
        assert_eq!(Value::parse(&set.to_json_pretty()).unwrap(), set);
    }

    #[test]
    fn differing_fingerprints_are_a_problem() {
        let runs = [detail(10.0, 7, false), detail(10.0, 8, false)];
        let mut problems = Vec::new();
        workload_section(
            Workload::Fig1Merge,
            Scale::smoke(),
            &runs,
            &detail(0.0, 7, true),
            &mut problems,
        );
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("fingerprints differ"));
    }
}
