//! Availability under storage failure (§VI "Guarantee availability of
//! gradients in IPFS network"): a storage node silently loses every block
//! it stores. Without replication the round stalls; with replication the
//! retrieval layer fails over to the surviving copies and the task
//! completes with the exact same model.
//!
//! The second half sweeps scheduled storage churn (crash/recover cycles of
//! increasing outage length, `FaultPlan::churn`) and reports how many
//! rounds survive and how much the retry/failover machinery stretches
//! them. Last, it prices the insurance: the simulated round time of one
//! task as the replication factor grows.
//!
//! Run with: `cargo run --release --example availability`

use decentralized_fl::ml::{data, LogisticRegression, Model, SgdConfig};
use decentralized_fl::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = TaskConfig::builder()
        .trainers(8)
        .partitions(2)
        .aggregators_per_partition(1)
        .ipfs_nodes(4)
        .rounds(2)
        .seed(21)
        .t_train(SimDuration::from_secs(20))
        .t_sync(SimDuration::from_secs(40))
        .build()?;
    let dataset = data::make_blobs(320, 3, 2, 0.5, 8);
    let clients = data::partition_iid(&dataset, base.trainers, 3);
    let model = LogisticRegression::new(3, 2);
    let initial = model.params();
    let sgd = SgdConfig {
        lr: 0.3,
        batch_size: 16,
        epochs: 1,
        clip: None,
    };

    println!("Scenario: storage node 0 silently discards everything it is asked to store.\n");

    for (label, replication) in [
        ("replication = 1 (no replicas)", 1usize),
        ("replication = 2", 2),
    ] {
        let mut cfg = base.clone();
        cfg.lossy_ipfs_nodes = vec![0];
        cfg.replication = replication;
        let report = run_task(
            cfg.clone(),
            model.clone(),
            initial.clone(),
            clients.clone(),
            sgd,
            &[],
        )?;
        println!(
            "{label}: completed {}/{} rounds{}",
            report.completed_rounds,
            cfg.rounds,
            if report.succeeded(&cfg) {
                " — survived the data loss"
            } else {
                " — stalled"
            }
        );
    }

    // Replication only buys availability; the computed model is identical.
    let healthy = run_task(
        base.clone(),
        model.clone(),
        initial.clone(),
        clients.clone(),
        sgd,
        &[],
    )?;
    let mut replicated_cfg = base.clone();
    replicated_cfg.lossy_ipfs_nodes = vec![0];
    replicated_cfg.replication = 2;
    let replicated = run_task(replicated_cfg, model, initial, clients, sgd, &[])?;
    let same = healthy.consensus_params() == replicated.consensus_params();
    println!("\nModel under loss+replication identical to the healthy run: {same}");

    println!(
        "\nScenario: storage churn — every 10 s one storage node crashes for the given outage.\n"
    );
    println!(
        "{:>10}  {:>9}  {:>17}  {:>7}  {:>13}  {:>11}",
        "outage (s)", "rounds", "avg duration (s)", "quorum", "total tx (B)", "wasted (B)"
    );
    for p in dfl_bench::churn_sweep() {
        println!(
            "{:>10}  {:>6}/{}  {:>17.2}  {:>7}  {:>13}  {:>11}",
            p.outage_secs,
            p.completed_rounds,
            p.rounds,
            p.avg_round_duration,
            p.quorum_degradations,
            p.total_tx_bytes,
            p.wasted_bytes
        );
    }

    println!("\nScenario: what replication costs (8 trainers, 2 × 0.26 MB partitions, 4 nodes).\n");
    for r in [1, 2, 4] {
        let round = &dfl_bench::replication_run(r).rounds[0];
        println!(
            "replication {r}: round {:.2} s, upload {:.2} s",
            round.round_duration, round.upload_delay_avg
        );
    }
    Ok(())
}
