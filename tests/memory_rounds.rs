//! Memory does not grow with rounds: a task's live-heap peak over 3R
//! rounds stays within one update blob of its peak over R rounds. A block
//! that each round leaves behind on some node — an update cached by a
//! gateway that nothing collects, say — adds up round after round and
//! fails this.
//!
//! The tasks run on the simulator. A simulated run is single-threaded and
//! deterministic, so its peak is exact, and the one-blob bound holds with
//! no slack for timing. Over sockets the same task's peak varies between
//! identical runs by several blobs, with the thread scheduling of the
//! in-flight frames. A leaked block is one allocation shared by every node
//! that holds it in the simulator (each node holds its own copy over
//! sockets), so a leak shows here as at least one blob a round.
//!
//! The same runs pin how many model-sized vectors a trainer keeps: at a
//! task's peak, at most two per trainer — its global model and the
//! model's own copy — and one more for the trainer training at that
//! instant. Each such `f32` vector (a gradient too) is one allocation of
//! exactly `4 × PARAMS` bytes, a size no blob has, so the allocator's size
//! table counts them.
//!
//! `support`'s counting global allocator books every live byte and counts
//! the whole process, so this binary holds one test, which runs its tasks
//! one after another.

mod support;

use decentralized_fl::ml::{data, Model, SgdConfig, SyntheticModel};
use decentralized_fl::prelude::*;

use support::MIB;

/// Rounds of the shorter run; the longer one runs three times as many.
const R: u64 = 2;

/// Model parameters: 64 Ki values, a 512 KiB blob as one partition.
const PARAMS: usize = 65_536;

/// `fig1_merge`'s topology: merge-and-download with 4 providers among 16
/// storage nodes, so 12 trainer gateways are no trainer's upload target
/// and hold only the updates fetched through them.
fn merge(rounds: u64) -> TaskConfig {
    TaskConfig {
        trainers: 16,
        partitions: 1,
        aggregators_per_partition: 1,
        ipfs_nodes: 16,
        providers_per_aggregator: 4,
        comm: CommMode::MergeAndDownload,
        rounds,
        ..TaskConfig::default()
    }
}

/// Indirect with fewer trainers than storage nodes: nodes 2 and 3 are
/// aggregator gateways but no trainer's upload target, so they hold only
/// what their aggregators fetch and store through them.
fn indirect(rounds: u64) -> TaskConfig {
    TaskConfig {
        trainers: 2,
        partitions: 4,
        ipfs_nodes: 4,
        comm: CommMode::Indirect,
        rounds,
        ..TaskConfig::default()
    }
}

/// The live-heap peak of one simulated run of `cfg`, in bytes, and how many
/// model-sized `f32` vectors were live at it.
fn peak(cfg: &TaskConfig) -> (usize, usize) {
    let model = SyntheticModel::new(PARAMS, 1);
    let initial = model.params();
    let dataset = data::make_blobs(4 * cfg.trainers, 2, 2, 0.5, 1);
    let clients = data::partition_iid(&dataset, cfg.trainers, 0);
    let before = support::start();
    let report = run_task(
        cfg.clone(),
        model,
        initial,
        clients,
        SgdConfig::default(),
        &[],
    )
    .expect("simulated run");
    assert!(report.succeeded(cfg), "every round completes");
    let peak = support::peak_since(before);
    let vectors = support::live_at_peak(4 * PARAMS);
    println!(
        "{:?}, {} rounds: live-heap peak {:.2} MiB, {vectors} model vectors",
        cfg.comm,
        cfg.rounds,
        peak as f64 / MIB
    );
    support::print_peak(before);
    (peak, vectors)
}

#[test]
fn the_live_heap_peak_does_not_grow_with_rounds() {
    for task in [merge, indirect] {
        let (short, long) = (task(R), task(3 * R));
        // An update blob: a partition's values, 8 bytes each, and the
        // averaging counter.
        let blob = 8 * (PARAMS / short.partitions + 1);
        let ((short_peak, short_vectors), (long_peak, long_vectors)) = (peak(&short), peak(&long));
        let most = 2 * short.trainers + 1;
        for vectors in [short_vectors, long_vectors] {
            assert!(
                vectors <= most,
                "{:?}: {vectors} model vectors live at the peak, more than \
                 {most}: two per trainer and one training",
                short.comm,
            );
        }
        assert!(
            long_peak <= short_peak + blob,
            "{:?}: the {}-round peak {long_peak} B exceeds the {R}-round peak \
             {short_peak} B by more than one {blob} B update blob",
            short.comm,
            3 * R,
        );
    }
}
