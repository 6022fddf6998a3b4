//! `--compare A.json B.json`: two result sets, one row per (workload,
//! end-to-end metric), with both medians, quartiles, the ratio with its
//! base, and a verdict against the bound the benchmark fixed.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Value;
use crate::stats::show;

/// How B stands against A on one metric. All metrics are lower-is-better.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the medians cannot settle the question.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Side {
    /// Median of the untraced runs.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Interquartile distance as a share of the median (`NaN` if unknown).
    pub spread: f64,
}

/// Decides a row. Exact-repeat metrics are compared as counts: any
/// spread is itself an error upstream, so only the medians matter.
pub fn verdict(a: Side, b: Side, bound: f64, exact: bool) -> Verdict {
    let too_wide = |s: Side| !exact && s.spread.is_finite() && s.spread > bound;
    if too_wide(a) || too_wide(b) {
        return Verdict::Unresolved;
    }
    let worse = if a.median == 0.0 {
        b.median > 0.0
    } else {
        (b.median - a.median) / a.median.abs() > bound
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn side(row: &Value) -> Option<Side> {
    let f = |key: &str| row.get(key).and_then(Value::as_f64);
    Some(Side {
        median: f("median")?,
        // Quartiles and spread are null below two samples.
        q1: f("q1").unwrap_or(f64::NAN),
        q3: f("q3").unwrap_or(f64::NAN),
        spread: f("spread").unwrap_or(f64::NAN),
    })
}

fn find<'a>(items: Option<&'a Value>, name: &str) -> Option<&'a Value> {
    items?
        .as_arr()?
        .iter()
        .find(|item| item.get("name").and_then(Value::as_str) == Some(name))
}

/// The rows of a comparison: `(workload, metric, unit, A, B, bound, exact, verdict)`.
type Row = (String, String, String, Side, Side, f64, bool, Verdict);

/// Compares every (workload, end-to-end metric) pair present in both sets.
pub fn rows(a: &Value, b: &Value) -> Vec<Row> {
    let mut out = Vec::new();
    for section_a in a.get("workloads").and_then(Value::as_arr).unwrap_or(&[]) {
        let Some(workload) = section_a.get("name").and_then(Value::as_str) else {
            continue;
        };
        let Some(section_b) = find(b.get("workloads"), workload) else {
            continue;
        };
        for row_a in section_a
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
        {
            let Some(metric) = row_a.get("name").and_then(Value::as_str) else {
                continue;
            };
            let Some(row_b) = find(section_b.get("end_to_end"), metric) else {
                continue;
            };
            let (Some(side_a), Some(side_b)) = (side(row_a), side(row_b)) else {
                continue;
            };
            // The bound travels with the result set (A's: the base).
            let bound = row_a.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let exact = row_a.get("exact").and_then(Value::as_bool).unwrap_or(false);
            let unit = row_a.get("unit").and_then(Value::as_str).unwrap_or("?");
            out.push((
                workload.to_string(),
                metric.to_string(),
                unit.to_string(),
                side_a,
                side_b,
                bound,
                exact,
                verdict(side_a, side_b, bound, exact),
            ));
        }
    }
    out
}

/// Prints the comparison; exit code 1 when any row is `worse`.
pub fn run(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let commit = |set: &Value| {
        set.get("header")
            .and_then(|h| h.get("git_commit"))
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    println!("A = {} (commit {})", a_path.display(), commit(&a));
    println!("B = {} (commit {})", b_path.display(), commit(&b));
    println!(
        "{:<16} {:<19} {:<6} {:>11} {:>23} {:>11} {:>23} {:>16} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "A [q1, q3]",
        "B median",
        "B [q1, q3]",
        "B/A (base A)",
        "bound"
    );
    let rows = rows(&a, &b);
    if rows.is_empty() {
        return Err("the two result sets share no (workload, metric) pair".to_string());
    }
    let mut counts = [0usize; 3];
    for (workload, metric, unit, sa, sb, bound, exact, v) in &rows {
        let ratio = if *exact {
            // Counts, not speeds: equal or not.
            if sa.median.to_bits() == sb.median.to_bits() {
                "equal".to_string()
            } else {
                format!("{:+.6e}", sb.median - sa.median)
            }
        } else if sa.median == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4} x {}", sb.median / sa.median, show(sa.median))
        };
        println!(
            "{:<16} {:<19} {:<6} {:>11} {:>23} {:>11} {:>23} {:>16} {:>5.0}%  {}",
            workload,
            metric,
            unit,
            show(sa.median),
            format!("[{}, {}]", show(sa.q1), show(sa.q3)),
            show(sb.median),
            format!("[{}, {}]", show(sb.q1), show(sb.q3)),
            ratio,
            bound * 100.0,
            v.word()
        );
        counts[*v as usize] += 1;
    }
    println!(
        "{} rows: {} within, {} worse, {} unresolved",
        rows.len(),
        counts[Verdict::Within as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(if counts[Verdict::Worse as usize] == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, spread: f64) -> Side {
        Side {
            median,
            q1: median * (1.0 - spread / 2.0),
            q3: median * (1.0 + spread / 2.0),
            spread,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        assert_eq!(
            verdict(s(10.0, 0.02), s(10.9, 0.02), 0.10, false),
            Verdict::Within
        );
        assert_eq!(
            verdict(s(10.0, 0.02), s(11.1, 0.02), 0.10, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(s(10.0, 0.02), s(5.0, 0.02), 0.10, false),
            Verdict::Within
        );
        assert_eq!(
            verdict(s(10.0, 0.12), s(10.0, 0.02), 0.10, false),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(s(10.0, 0.02), s(20.0, 0.30), 0.10, false),
            Verdict::Unresolved
        );
        // Unknown spread (a single run) cannot make a row unresolved.
        assert_eq!(
            verdict(s(10.0, f64::NAN), s(10.5, f64::NAN), 0.10, false),
            Verdict::Within
        );
    }

    #[test]
    fn exact_metrics_compare_as_counts() {
        assert_eq!(
            verdict(s(27.5, 0.0), s(27.5, 0.0), 0.01, true),
            Verdict::Within
        );
        assert_eq!(
            verdict(s(27.5, 0.0), s(28.0, 0.0), 0.01, true),
            Verdict::Worse
        );
        // failed_share: bound 0, base 0 — any failure is worse.
        assert_eq!(
            verdict(s(0.0, f64::NAN), s(0.0, f64::NAN), 0.0, true),
            Verdict::Within
        );
        assert_eq!(
            verdict(s(0.0, f64::NAN), s(0.25, f64::NAN), 0.0, true),
            Verdict::Worse
        );
    }

    #[test]
    fn rows_pair_metrics_by_workload_and_name() {
        let set = |wall: f64| {
            Value::parse(&format!(
                r#"{{"workloads": [{{"name": "fig1_merge", "end_to_end": [
                    {{"name": "wall_s", "unit": "s", "bound": 0.1, "exact": false,
                      "median": {wall}, "q1": {wall}, "q3": {wall}, "spread": 0.0}},
                    {{"name": "only_in_a", "unit": "s", "bound": 0.1, "exact": false, "median": 1}}
                ]}}, {{"name": "only_in_a", "end_to_end": []}}]}}"#
            ))
            .unwrap()
        };
        let mut b = set(24.0);
        if let Value::Obj(pairs) = &mut b {
            // B lacks the metric A alone has.
            if let Value::Arr(sections) = &mut pairs[0].1 {
                if let Value::Obj(section) = &mut sections[0] {
                    if let Value::Arr(metrics) = &mut section[1].1 {
                        metrics.pop();
                    }
                }
            }
        }
        let out = rows(&set(20.0), &b);
        assert_eq!(out.len(), 1);
        assert_eq!(
            (out[0].0.as_str(), out[0].1.as_str()),
            ("fig1_merge", "wall_s")
        );
        assert_eq!(out[0].7, Verdict::Worse);
    }
}
