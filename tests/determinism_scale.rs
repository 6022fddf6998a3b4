//! Run-to-run determinism at swarm scale: the same configuration must
//! produce a bit-identical trace every time, under both allocators and with
//! the crypto kernels that split a large bucket pass across cores (the
//! batched checks below sum ≈ 170-bit RLC vectors over 257 bases, a pass
//! over the split threshold). Any HashMap-iteration-order or
//! thread-scheduling leak into observable behaviour fails here.

use std::collections::HashMap;
use std::time::Instant;

use decentralized_fl::prelude::TaskConfig;
use decentralized_fl::protocol::overlay::OverlayTree;
use decentralized_fl::protocol::{labels, TaskReport};
use dfl_bench::{
    fig2_config, overlay_config, run_network_experiment, trace_fingerprint, SWARM_UPLOADS,
    SWARM_WAVES,
};

#[test]
fn two_thousand_node_swarm_is_run_to_run_deterministic() {
    let first = dfl_bench::swarm_trace(2_000, false);
    assert_eq!(
        first.counter(SWARM_UPLOADS),
        2_000 * SWARM_WAVES as u64,
        "the incremental allocator dropped uploads"
    );
    assert_eq!(
        trace_fingerprint(&first),
        dfl_bench::swarm_trace_hash(2_000, false),
        "incremental allocator diverged across identical runs"
    );
}

#[test]
fn reference_allocator_is_deterministic_and_agrees() {
    // The reference global recompute is quadratic, so the run-twice check
    // uses a smaller swarm. The fingerprint covers the upload counter, so
    // the allocators also agree on every completed upload.
    let incr = dfl_bench::swarm_trace_hash(300, false);
    let ref_first = dfl_bench::swarm_trace_hash(300, true);
    let ref_second = dfl_bench::swarm_trace_hash(300, true);
    assert_eq!(
        ref_first, ref_second,
        "reference allocator diverged across identical runs"
    );
    assert_eq!(
        incr, ref_first,
        "allocators diverged on the 300-trainer swarm"
    );
}

#[test]
fn verifiable_protocol_run_is_run_to_run_deterministic() {
    // Exercises the commitment pipeline, whose results must be
    // bitwise-stable. A small parameter vector keeps the crypto cheap —
    // determinism does not depend on size.
    let cfg = TaskConfig {
        verifiable: true,
        ..fig2_config()
    };
    let params = 1_024;
    let first = run_network_experiment(cfg.clone(), params);
    let second = run_network_experiment(cfg, params);
    assert_eq!(
        first.trace.events().len(),
        second.trace.events().len(),
        "event counts diverged across identical verifiable runs"
    );
    assert_eq!(
        trace_fingerprint(&first.trace),
        trace_fingerprint(&second.trace),
        "verifiable run diverged across identical runs"
    );
}

#[test]
fn batched_verification_preserves_trace_fingerprint() {
    // Deferred batch verification changes only wall-clock cost: the event
    // stream, counter totals, and byte ledger of an honest run must be
    // bit-identical to per-blob mode, whose checks never split across
    // cores where the batched ones do. `trainer_verifies` puts every deferred queue
    // (aggregator own-set, peer-partial drain, trainer downloads,
    // directory audit) in the loop.
    let per_blob = TaskConfig {
        verifiable: true,
        trainer_verifies: true,
        ..fig2_config()
    };
    let batched = TaskConfig {
        batch_verify: true,
        ..per_blob.clone()
    };
    let params = 1_024;
    let baseline = run_network_experiment(per_blob, params);
    let deferred = run_network_experiment(batched.clone(), params);
    let again = run_network_experiment(batched, params);
    assert_eq!(
        trace_fingerprint(&baseline.trace),
        trace_fingerprint(&deferred.trace),
        "batched verification changed the observable trace of an honest run"
    );
    assert_eq!(
        trace_fingerprint(&deferred.trace),
        trace_fingerprint(&again.trace),
        "batched verifiable run diverged across identical runs"
    );
}

#[test]
fn overlay_round_is_run_to_run_deterministic() {
    // A depth-3 overlay (96 trainers at branching 8: levels of 1, 8, 64
    // and 23) with commitment verification at every interior hop: the
    // full trace — partial forwarding order, deadline timers,
    // dissemination — must be bit-identical across runs, and the run must
    // keep the overlay's per-node work bounds.
    let cfg = overlay_config(96);
    let params = dfl_bench::overlay_param_count();
    let first = run_network_experiment(cfg.clone(), params);
    let second = run_network_experiment(cfg.clone(), params);
    assert_eq!(
        first.trace.events().len(),
        second.trace.events().len(),
        "event counts diverged across identical overlay runs"
    );
    assert_eq!(
        trace_fingerprint(&first.trace),
        trace_fingerprint(&second.trace),
        "overlay run diverged across identical runs"
    );
    let work = overlay_work(&cfg, &first);
    assert_eq!(work.levels, 4, "96 trainers at branching 8");
    assert!(
        work.fan_in_max > 0,
        "no interior trainer received a partial"
    );
}

/// Per-node work of one overlay run.
struct OverlayWork {
    levels: usize,
    /// Overlay messages handled by the busiest aggregator.
    agg_msgs_max: u64,
    /// Child partials received by the busiest interior trainer.
    fan_in_max: u64,
}

/// Reads the per-node work off an overlay run's trace and checks the
/// bounds the overlay guarantees: the round completes, the busiest
/// aggregator handles at most b·levels·rounds overlay messages, no
/// interior trainer receives more than b child partials a round, and
/// every trainer forwards exactly one partial a round.
fn overlay_work(cfg: &TaskConfig, report: &TaskReport) -> OverlayWork {
    let b = cfg.overlay_branching.expect("an overlay configuration");
    let n = cfg.trainers;
    assert!(report.succeeded(cfg), "overlay round incomplete at n={n}");
    let mut agg_msgs: HashMap<usize, u64> = HashMap::new();
    let mut fan_in: HashMap<usize, u64> = HashMap::new();
    for e in report.trace.events() {
        let name = report.trace.label_name(e.label);
        if name == labels::OVERLAY_AGG_MSG {
            *agg_msgs.entry(e.node.index()).or_default() += 1;
        } else if name == labels::OVERLAY_CHILD_RECV {
            *fan_in.entry(e.node.index()).or_default() += 1;
        }
    }
    let work = OverlayWork {
        levels: OverlayTree::new(n, b, cfg.seed).levels(),
        agg_msgs_max: agg_msgs.into_values().max().unwrap_or(0),
        fan_in_max: fan_in.into_values().max().unwrap_or(0),
    };
    let bound = (b * work.levels) as u64 * cfg.rounds;
    assert!(
        work.agg_msgs_max <= bound,
        "an aggregator handled {} overlay messages at n={n}, bound {bound}",
        work.agg_msgs_max
    );
    assert!(
        work.fan_in_max <= b as u64 * cfg.rounds,
        "interior fan-in {} exceeds branching {b} at n={n}",
        work.fan_in_max
    );
    assert_eq!(
        report.trace.count(labels::OVERLAY_FORWARDED) as u64,
        n as u64 * cfg.rounds,
        "every trainer forwards one partial a round"
    );
    work
}

/// Prints the overlay's per-node work at 1 000, 10 000 and 100 000
/// trainers (EXPERIMENTS.md, *Aggregation overlay*), checking the same
/// bounds at each size. The largest point takes tens of seconds and over
/// 500 MB, so it runs only on request:
/// `cargo test --release --test determinism_scale overlay_work_table -- --ignored --nocapture`.
#[test]
#[ignore]
fn overlay_work_table() {
    println!("| trainers | levels | busiest aggregator (bound b·levels) | max fan-in | round (sim s) | wall (s) |");
    println!("|---|---|---|---|---|---|");
    for n in [1_000, 10_000, 100_000] {
        let cfg = overlay_config(n);
        let start = Instant::now();
        let report = run_network_experiment(cfg.clone(), dfl_bench::overlay_param_count());
        let wall = start.elapsed().as_secs_f64();
        let work = overlay_work(&cfg, &report);
        let b = cfg.overlay_branching.unwrap_or(0);
        println!(
            "| {n} | {} | {} ({}) | {} | {:.3} | {wall:.1} |",
            work.levels,
            work.agg_msgs_max,
            b * work.levels,
            work.fan_in_max,
            report.rounds.first().map_or(0.0, |r| r.round_duration),
        );
    }
}

#[test]
fn depth_one_overlay_matches_flat_aggregation_bit_for_bit() {
    // The flat verifiable round is the overlay's oracle: a depth-1
    // overlay (branching ≥ trainers − 1, so the root is every other
    // trainer's parent) performs the same exact i128 gradient sum as the
    // flat aggregator and must converge every trainer to bit-identical
    // f32 parameters.
    let trainers = 16;
    let params = dfl_bench::overlay_param_count();
    let flat = TaskConfig {
        overlay_branching: None,
        ..overlay_config(trainers)
    };
    let depth_one = TaskConfig {
        overlay_branching: Some(trainers - 1),
        ..overlay_config(trainers)
    };
    let flat_report = run_network_experiment(flat.clone(), params);
    let overlay_report = run_network_experiment(depth_one.clone(), params);
    assert!(flat_report.succeeded(&flat), "flat round incomplete");
    assert!(
        overlay_report.succeeded(&depth_one),
        "depth-1 overlay round incomplete"
    );
    let flat_params = flat_report
        .consensus_params()
        .expect("flat trainers agree on the final model");
    let overlay_params = overlay_report
        .consensus_params()
        .expect("overlay trainers agree on the final model");
    assert_eq!(flat_params.len(), overlay_params.len());
    for (i, (a, b)) in flat_params.iter().zip(&overlay_params).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "parameter {i} diverged: flat {a} vs overlay {b}"
        );
    }
}
