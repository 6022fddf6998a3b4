//! One honest trainer whose local data is 10¹³ times too large diverges:
//! its update quantizes far past the range of one contribution. It still
//! takes part. The trainer clamps every element into ± `BOUND`, so the
//! sum of the round fits in `i64` and every aggregation path — flat plain,
//! flat verifiable, merge-and-download and the overlay — completes every
//! round with one model and no culprit booked.

use decentralized_fl::ml::{data, Dataset, LogisticRegression, Model, SgdConfig};
use decentralized_fl::prelude::*;
use decentralized_fl::protocol::labels;

const TRAINERS: usize = 8;

/// Eight trainers' IID shards, trainer 0's features multiplied by 10¹³.
fn diverging_shards() -> Vec<Dataset> {
    let dataset = data::make_blobs(80, 4, 2, 0.5, 3);
    let mut shards = data::partition_iid(&dataset, TRAINERS, 5);
    let x = &mut shards[0].x;
    for i in 0..x.rows() {
        for j in 0..x.cols() {
            x.set(i, j, x.get(i, j) * 1e13);
        }
    }
    shards
}

#[test]
fn a_diverging_honest_trainer_completes_every_round_in_every_mode() {
    let model = LogisticRegression::new(4, 2);
    let sgd = SgdConfig {
        lr: 0.5,
        batch_size: 10,
        epochs: 1,
        clip: None,
    };
    let base = || {
        TaskConfig::builder()
            .trainers(TRAINERS)
            .partitions(1)
            .rounds(2)
            .seed(46)
    };
    let modes = [
        ("flat plain", base().build()),
        ("flat verifiable", base().verifiable(true).build()),
        (
            "merge-and-download",
            base().comm(CommMode::MergeAndDownload).build(),
        ),
        (
            "overlay, b = 2",
            base().verifiable(true).overlay_branching(Some(2)).build(),
        ),
    ];
    for (mode, cfg) in modes {
        let cfg = cfg.unwrap();
        let report = run_task(
            cfg.clone(),
            model.clone(),
            model.params(),
            diverging_shards(),
            sgd,
            &[],
        )
        .unwrap();
        assert_eq!(report.completed_rounds, 2, "{mode}");
        assert!(
            report.consensus_params().is_some(),
            "{mode}: trainers disagree"
        );
        for culprit in [
            labels::WASTED_BYTES,
            labels::MERGE_FALLBACK,
            labels::OVERLAY_CHILD_REJECTED,
            labels::OVERLAY_PARTIAL_REJECTED,
            labels::TRAINER_REJECTED_UPDATE,
            labels::VERIFICATION_FAILED,
        ] {
            assert_eq!(report.trace.count(culprit), 0, "{mode}: {culprit}");
        }
    }
}
