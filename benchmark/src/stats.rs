//! Order statistics (the same quartile rule the acceptance check uses) and
//! the `/proc/self` readers behind `cpu_s`, `peak_rss_mb` and thread counts.

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default "exclusive" method). `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Run-to-run spread: the distance between the first and third quartile as
/// a share of the median. `None` below two samples or for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, _, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; the median when the sample cannot support one.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn high_percentile(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 20 {
        return (50.0, median(values));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11])
}

/// A value for a table cell: four decimals, scientific beyond the range
/// that reads well, `-` for "no value".
pub fn show(value: f64) -> String {
    if value.is_nan() {
        "-".to_string()
    } else if value != 0.0 && (value.abs() >= 1e7 || value.abs() < 1e-3) {
        format!("{value:.4e}")
    } else {
        format!("{value:.4}")
    }
}

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux fixes
/// `USER_HZ` at 100 on every architecture Rust targets.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of this process so far, all threads (exited
/// ones included). `None` where `/proc/self/stat` is unreadable.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, so utime/stime (14/15) are items 11/12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

fn status_field(name: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process so far, in MB (10^6 bytes).
pub fn vm_hwm_mb() -> Option<f64> {
    status_field("VmHWM:").map(|kb| kb * 1024.0 / 1e6)
}

/// Live threads of this process.
pub fn thread_count() -> Option<u64> {
    status_field("Threads:").map(|n| n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10.0, 12.5, 11.0], n=4) -> [10.0, 11.0, 12.5]
        assert_eq!(quartiles(&[10.0, 12.5, 11.0]), Some((10.0, 11.0, 12.5)));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) -> [4.0, 5.0, 9.0]
        assert_eq!(
            quartiles(&[2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 11.0]),
            Some((4.0, 5.0, 9.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(high_percentile(&hundred), (90.0, 90.0));
        assert_eq!(high_percentile(&[1.0, 2.0, 3.0]), (50.0, 2.0));
    }

    #[test]
    fn proc_readers_work_on_linux() {
        assert!(cpu_seconds().is_some());
        assert!(vm_hwm_mb().unwrap() > 0.0);
        assert!(thread_count().unwrap() >= 1);
    }
}
