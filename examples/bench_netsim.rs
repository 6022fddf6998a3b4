//! Records the netsim numbers into `BENCH_netsim.json`: the swarm scale
//! sweep (incremental component-scoped reallocation vs the reference
//! global recompute, wall clock and peak RSS per swarm size), the churn
//! sweep's wire-cost accounting, and the aggregation overlay sweep.
//!
//! Run with: `cargo run --release --example bench_netsim`
//!
//! Knobs:
//! - `--test`: CI smoke mode — run only the 2k-trainer scale point (both
//!   allocators), assert the speedup, skip the artifact write.
//! - `--overlay-smoke`: CI smoke mode for the aggregation overlay — one
//!   10k-trainer verifiable round through the branching-8 overlay, with
//!   the per-node work bounds asserted, skip the artifact write.
//! - `BENCH_NETSIM_SCALE`: comma-separated swarm sizes
//!   (default `2000,5000,10000`).
//! - `BENCH_NETSIM_SCALE_REF_MAX`: largest size that also times the
//!   reference allocator (default 2000 — the global recompute is the
//!   "before" and takes minutes beyond that).
//! - `BENCH_NETSIM_OVERLAY`: comma-separated overlay swarm sizes
//!   (default `1000,10000,100000`).

use dfl_bench::{
    churn_sweep, netsim_report_json, overlay_point, overlay_sweep, scale_point, scale_sweep,
};

fn print_scale(points: &[dfl_bench::ScalePoint]) {
    println!(
        "{:>9} {:>9} {:>9} {:>16} {:>14} {:>9} {:>12}",
        "trainers", "nodes", "uploads", "reference (ms)", "incr (ms)", "speedup", "peak RSS kB"
    );
    for p in points {
        println!(
            "{:>9} {:>9} {:>9} {:>16} {:>14.1} {:>9} {:>12}",
            p.trainers,
            p.nodes,
            p.uploads,
            p.reference_ms.map_or("-".into(), |v| format!("{v:.1}")),
            p.incremental_ms,
            p.speedup().map_or("-".into(), |v| format!("{v:.0}x")),
            p.peak_rss_kb.map_or("-".into(), |v| v.to_string()),
        );
    }
}

fn print_overlay(points: &[dfl_bench::OverlayPoint]) {
    println!(
        "{:>9} {:>9} {:>7} {:>13} {:>11} {:>11} {:>12} {:>13}",
        "trainers",
        "branching",
        "levels",
        "agg msgs max",
        "work bound",
        "fan-in max",
        "round (s)",
        "wall (ms)"
    );
    for p in points {
        println!(
            "{:>9} {:>9} {:>7} {:>13} {:>11} {:>11} {:>12.2} {:>13.1}",
            p.trainers,
            p.branching,
            p.levels,
            p.agg_msgs_max,
            p.work_bound,
            p.fan_in_max,
            p.round_secs,
            p.wall_ms,
        );
    }
}

fn main() {
    if std::env::args().any(|a| a == "--overlay-smoke") {
        // CI smoke: one 10k-trainer verifiable round through the overlay.
        // overlay_point asserts completion and the per-node work bounds.
        println!("Overlay smoke (10000 trainers, branching 8, verifiable)");
        let point = overlay_point(10_000);
        print_overlay(std::slice::from_ref(&point));
        println!(
            "ok: busiest aggregator processed {} overlay messages (bound {}, flat would be {})",
            point.agg_msgs_max, point.work_bound, point.trainers
        );
        return;
    }
    if std::env::args().any(|a| a == "--test") {
        // CI smoke: the 2k-trainer point through both allocators.
        println!("Swarm scale smoke (2000 trainers, both allocators)");
        let point = scale_point(2_000, true);
        print_scale(std::slice::from_ref(&point));
        let speedup = point.speedup().expect("reference timed in smoke mode");
        assert!(
            speedup >= 10.0,
            "incremental allocator must be ≥10x at 2k trainers, got {speedup:.1}x"
        );
        println!("ok: {speedup:.0}x at 2000 trainers");
        return;
    }

    let sizes: Vec<usize> = std::env::var("BENCH_NETSIM_SCALE")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![2_000, 5_000, 10_000]);
    let ref_max = std::env::var("BENCH_NETSIM_SCALE_REF_MAX")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(2_000);

    println!("Swarm scale sweep (wall clock, this machine)");
    let scale = scale_sweep(&sizes, ref_max);
    print_scale(&scale);

    println!("\nChurn wire cost (bytes on the wire vs bytes wasted by churn)");
    println!(
        "{:>10} {:>9} {:>14} {:>14} {:>14}",
        "outage (s)", "rounds", "total tx", "wire wasted", "wasted (all)"
    );
    let churn = churn_sweep();
    for p in &churn {
        println!(
            "{:>10} {:>6}/{} {:>14} {:>14} {:>14}",
            p.outage_secs,
            p.completed_rounds,
            p.rounds,
            p.total_tx_bytes,
            p.wire_wasted_bytes,
            p.wasted_bytes
        );
    }

    let overlay_sizes: Vec<usize> = std::env::var("BENCH_NETSIM_OVERLAY")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![1_000, 10_000, 100_000]);
    println!("\nAggregation overlay sweep (verifiable rounds, per-node work)");
    let overlay = overlay_sweep(&overlay_sizes);
    print_overlay(&overlay);

    let json = netsim_report_json(&churn, &scale, &overlay);
    std::fs::write("BENCH_netsim.json", &json).expect("write BENCH_netsim.json");
    println!("\nwrote BENCH_netsim.json");
}
