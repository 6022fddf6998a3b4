//! The memory floor: one small fig2-shaped task over loopback TCP, with
//! blobs large enough to dominate the heap, must peak within 1.3 × what
//! its roles have to hold at their worst instants, plus a fixed allowance
//! for everything that does not scale with the model.
//!
//! `support`'s counting global allocator books every live byte, and the
//! test prints what the peak was made of. It counts the whole process, so
//! this binary holds one test.

mod support;

use decentralized_fl::ml::{data, Model, SgdConfig, SyntheticModel};
use decentralized_fl::prelude::*;
use dfl_backend_tokio::run_task_over_tcp;

use support::MIB;

/// Trainers 4, partitions 2 of 131 072 parameters, 2 aggregators a
/// partition, 2 storage nodes, 2 rounds: a 1 MiB blob per partition.
fn task() -> (TaskConfig, usize) {
    let cfg = TaskConfig {
        trainers: 4,
        partitions: 2,
        aggregators_per_partition: 2,
        ipfs_nodes: 2,
        comm: CommMode::Indirect,
        rounds: 2,
        poll_interval: SimDuration::from_millis(20),
        ..TaskConfig::default()
    };
    (cfg, 2 * 131_072)
}

/// What the roles must hold at the round's worst instant — aggregation —
/// in bytes:
///
/// * a trainer, waiting for its updates, holds its model state: its
///   global model (its `ParamSink` entry, or before its first round
///   completes the initial parameters) and the model's own copy, two
///   model-sized `f32` vectors;
/// * storage holds the round's gradient blobs, one per trainer and
///   partition, 8 bytes a value, until the aggregators have fetched them;
/// * an aggregator summing its partial holds its trainer set's vectors
///   and the partial, 8 bytes a value (the exact sum is taken in place in
///   `i64`).
///
/// A trainer's round start (a third model vector, the gradient and its
/// blobs) comes when nothing of the round is stored or summed yet, and is
/// smaller. The 30 % on top covers what is brief beside these: frames
/// being read, the partials stored, a peer's partial fetched.
fn floor(cfg: &TaskConfig, params: usize) -> usize {
    let model = 4 * params;
    let blob = 8 * (params / cfg.partitions + 1);
    let aggregators = cfg.partitions * cfg.aggregators_per_partition;
    let set = cfg.trainers / cfg.aggregators_per_partition;
    let trainer = 2 * model;
    let storage = cfg.trainers * cfg.partitions * blob;
    let aggregator = (set + 1) * blob;
    cfg.trainers * trainer + storage + aggregators * aggregator
}

/// What does not scale with the model: the readers' 8 KiB buffers, the
/// runtime, the trace, channel blocks and the small messages in flight.
const ALLOWANCE: usize = 2 << 20;

#[test]
fn the_live_heap_peak_stays_within_its_floor() {
    let (cfg, params) = task();
    let model = SyntheticModel::new(params, 1);
    let initial = model.params();
    let dataset = data::make_blobs(16, 2, 2, 0.5, 1);
    let clients = data::partition_iid(&dataset, cfg.trainers, 0);
    let floor = floor(&cfg, params);
    let before = support::start();

    let report = run_task_over_tcp(cfg.clone(), model, initial, clients, SgdConfig::default())
        .expect("TCP run");
    assert!(report.succeeded(&cfg), "every round completes");

    let peak = support::peak_since(before);
    let bound = floor * 13 / 10 + ALLOWANCE;
    println!(
        "live-heap peak {:.1} MiB; floor {:.1} MiB; bound 1.3 × floor + {:.0} MiB = {:.1} MiB",
        peak as f64 / MIB,
        floor as f64 / MIB,
        ALLOWANCE as f64 / MIB,
        bound as f64 / MIB,
    );
    support::print_peak(before);
    assert!(
        peak <= bound,
        "live-heap peak {peak} B exceeds 1.3 × the {floor} B floor + {ALLOWANCE} B"
    );
}
