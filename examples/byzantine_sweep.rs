//! Byzantine sweep: accountability under an increasing number of
//! malicious aggregators. For each adversary count `f` and each attack,
//! runs a 4-aggregator deployment (2 partitions × 2 slots, replication 2)
//! and reports the accountability counters the runner surfaces:
//! detections, evictions, recovered rounds, wasted bytes — and whether the
//! final model still matches the all-honest run bit for bit.
//!
//! With one malicious aggregator per partition (`f ≤ partitions`, i.e.
//! `f < replicas` per slot group), every attack is absorbed: provable
//! misbehavior is evicted, the slot is re-aggregated from the original
//! gradient blobs, and the model is unchanged. At `f = 2` with both slots
//! of one partition malicious there is no honest aggregator left to
//! recover the partition — rounds stall, which the table makes visible.
//!
//! Run with: `cargo run --release --example byzantine_sweep`

use decentralized_fl::ml::{data, LogisticRegression, Model, SgdConfig};
use decentralized_fl::prelude::*;

fn cfg() -> TaskConfig {
    TaskConfig::builder()
        .trainers(6)
        .partitions(2)
        .aggregators_per_partition(2)
        .ipfs_nodes(4)
        .comm(CommMode::Indirect)
        .rounds(2)
        .replication(2)
        .verifiable(true)
        .authenticate(true)
        .accountability(true)
        .seed(11)
        .t_train(SimDuration::from_secs(15))
        .t_sync(SimDuration::from_secs(20))
        .sync_watchdog(Some(SimDuration::from_secs(5)))
        .fetch_timeout(SimDuration::from_secs(2))
        .build()
        .expect("valid config")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let c = cfg();
    let dataset = data::make_blobs(180, 3, 2, 0.5, 9);
    let clients = data::partition_iid(&dataset, c.trainers, 3);
    let model = LogisticRegression::new(3, 2);
    let initial = model.params();
    let sgd = SgdConfig {
        lr: 0.3,
        batch_size: 16,
        epochs: 1,
        clip: None,
    };

    let run = |behaviors: &[(usize, Behavior)]| {
        run_task(
            c.clone(),
            model.clone(),
            initial.clone(),
            clients.clone(),
            sgd,
            behaviors,
        )
        .expect("valid run")
    };

    let honest = run(&[]);
    let reference = honest.consensus_params().expect("honest consensus");

    println!(
        "Deployment: {} trainers, {} partitions x {} aggregator slots, replication {}, \
         {} rounds (verifiable + authenticated + accountable)\n",
        c.trainers, c.partitions, c.aggregators_per_partition, c.replication, c.rounds
    );
    println!(
        "{:<24} {:>2}  {:>7}  {:>6}  {:>7}  {:>9}  {:>11}  {:>6}",
        "attack", "f", "rounds", "detect", "evicted", "recovered", "wasted (B)", "model"
    );

    // Malicious aggregators are assigned one per partition first (slot 0
    // of each), so `f <= partitions` leaves every slot group an honest
    // member; beyond that a partition loses all honest coverage.
    type MkBehavior = fn() -> Behavior;
    let attacks: [(&str, MkBehavior); 3] = [
        ("drop-gradients", || Behavior::DropGradients { count: 2 }),
        ("alter-update", || Behavior::AlterUpdate),
        ("equivocate", || Behavior::Equivocate),
    ];
    let assign = |f: usize, mk: fn() -> Behavior| -> Vec<(usize, Behavior)> {
        // Global indices: 0 = (p0, j0), 1 = (p0, j1), 2 = (p1, j0), ...
        // First spread across partitions (0, 2), then double up (1, 3).
        let order = [0usize, 2, 1, 3];
        order.iter().take(f).map(|&g| (g, mk())).collect()
    };

    for (name, mk) in attacks {
        for f in 1..=3usize {
            let report = run(&assign(f, mk));
            let intact = report.consensus_params().as_ref() == Some(&reference);
            println!(
                "{:<24} {:>2}  {:>4}/{}  {:>6}  {:>7}  {:>9}  {:>11}  {:>6}",
                name,
                f,
                report.completed_rounds,
                c.rounds,
                report.detections,
                report.evictions,
                report.recovered_rounds,
                report.wasted_bytes,
                if intact { "exact" } else { "-" }
            );
        }
    }

    println!(
        "\n'model = exact' means the final parameters are bit-identical to the \
         all-honest run: recovery re-aggregates the original gradient blobs and \
         the order-independent exact sum reproduces the honest bits."
    );
    Ok(())
}
