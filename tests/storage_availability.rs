//! Integration tests for the §VI availability story: data loss at storage
//! nodes, replication as insurance, and provider failover during
//! retrieval.

use decentralized_fl::ml::{data, LogisticRegression, Model, SgdConfig};
use decentralized_fl::prelude::*;

fn sgd() -> SgdConfig {
    SgdConfig {
        lr: 0.3,
        batch_size: 16,
        epochs: 1,
        clip: None,
    }
}

fn cfg() -> TaskConfig {
    TaskConfig::builder()
        .trainers(6)
        .partitions(2)
        .aggregators_per_partition(1)
        .ipfs_nodes(4)
        .comm(CommMode::Indirect)
        .rounds(1)
        .seed(77)
        .t_train(SimDuration::from_secs(20))
        .t_sync(SimDuration::from_secs(40))
        .build()
        .unwrap()
}

fn clients() -> Vec<data::Dataset> {
    let dataset = data::make_blobs(120, 3, 2, 0.5, 4);
    data::partition_iid(&dataset, 6, 2)
}

/// Storage node `k` acknowledges every write from the start but keeps
/// none (node layout: directory, then the storage nodes).
fn lose_writes(k: usize) -> FaultPlan {
    FaultPlan::new().at(SimTime::ZERO, Fault::LoseWrites(NodeId(1 + k)))
}

fn run(cfg: TaskConfig) -> decentralized_fl::protocol::TaskReport {
    let model = LogisticRegression::new(3, 2);
    let params = model.params();
    run_task(cfg, model, params, clients(), sgd(), &[]).expect("valid config")
}

#[test]
fn baseline_without_loss_completes() {
    let c = cfg();
    let report = run(c.clone());
    assert!(report.succeeded(&c));
}

#[test]
fn data_loss_without_replication_stalls_the_round() {
    // One storage node silently loses everything; with replication = 1 any
    // gradient that landed there is unrecoverable and the round fails —
    // the motivation for the §VI availability mechanisms.
    let mut c = cfg();
    c.fault_plan = lose_writes(0);
    c.replication = 1;
    let report = run(c.clone());
    assert!(
        !report.succeeded(&c),
        "a lossy node without replicas must stall the round"
    );
}

#[test]
fn replication_survives_data_loss() {
    // Same loss, but every block is pushed to 2 replicas: provider
    // failover finds the surviving copy and the round completes.
    let mut c = cfg();
    c.fault_plan = lose_writes(0);
    c.replication = 2;
    let report = run(c.clone());
    assert!(report.succeeded(&c), "replication must mask the loss");
    assert!(report.consensus_params().is_some());
}

#[test]
fn replicated_run_matches_unreplicated_model() {
    // Replication changes availability, never the computed model.
    let plain = run(cfg());
    let mut c = cfg();
    c.replication = 3;
    let replicated = run(c);
    assert_eq!(
        plain.consensus_params().expect("consensus"),
        replicated.consensus_params().expect("consensus")
    );
}

#[test]
fn merge_mode_survives_loss_with_replication() {
    let mut c = cfg();
    c.comm = CommMode::MergeAndDownload;
    c.providers_per_aggregator = 2;
    c.fault_plan = lose_writes(1);
    c.replication = 2;
    let report = run(c.clone());
    assert!(
        report.succeeded(&c),
        "merge requests must fetch lost members from replicas"
    );
}

#[test]
fn old_round_data_is_garbage_collected() {
    // §VI: gradients and updates are only needed for a short period. Each
    // participant unpins its previous round's blobs when a new round
    // starts, so storage occupancy stays bounded instead of growing
    // linearly with the number of rounds.
    let mut c = cfg();
    c.rounds = 4;
    let report = run(c.clone());
    assert!(report.succeeded(&c));

    // Peak occupancy per node across the run must stay near one round's
    // working set (gradients of 2 partitions × up to 2 resident rounds),
    // far below 4 rounds' worth.
    let per_round_blocks = 6 * 2 + 2; // 6 trainers × 2 partitions + 2 updates
    let peak = report
        .trace
        .find_all("store_blocks")
        .iter()
        .map(|e| e.value as usize)
        .max()
        .unwrap_or(0);
    assert!(peak > 0, "storage was used");
    assert!(
        peak <= 2 * per_round_blocks,
        "peak {peak} blocks on one node suggests old rounds are not collected"
    );

    // And occupancy must come back down after collection.
    let last = report
        .trace
        .find_all("store_blocks")
        .last()
        .map(|e| e.value as usize)
        .unwrap_or(usize::MAX);
    assert!(
        last <= per_round_blocks * 2,
        "final occupancy {last} too high"
    );
}
