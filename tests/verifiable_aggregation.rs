//! Integration tests for security against malicious aggregators (§IV):
//! dropped and altered updates are detected via Pedersen commitment
//! verification, honest redundancy recovers the round, and the same
//! attacks silently succeed when verifiability is off — which is exactly
//! why the paper adds it.

use decentralized_fl::ml::{
    data, metrics::param_distance, FedAvg, LogisticRegression, Model, SgdConfig,
};
use decentralized_fl::prelude::*;

fn sgd() -> SgdConfig {
    SgdConfig {
        lr: 0.3,
        batch_size: 16,
        epochs: 1,
        clip: None,
    }
}

fn cfg(verifiable: bool) -> TaskConfig {
    TaskConfig::builder()
        .trainers(6)
        .partitions(2)
        .aggregators_per_partition(1)
        .ipfs_nodes(4)
        .rounds(1)
        .verifiable(verifiable)
        .seed(5)
        // Short deadlines keep failed-round simulations quick.
        .t_train(SimDuration::from_secs(30))
        .t_sync(SimDuration::from_secs(60))
        .build()
        .unwrap()
}

fn clients() -> Vec<data::Dataset> {
    let dataset = data::make_blobs(180, 3, 2, 0.5, 2);
    data::partition_iid(&dataset, 6, 1)
}

fn run(cfg: TaskConfig, behaviors: &[(usize, Behavior)]) -> decentralized_fl::protocol::TaskReport {
    let model = LogisticRegression::new(3, 2);
    let params = model.params();
    run_task(cfg, model, params, clients(), sgd(), behaviors).expect("valid config")
}

#[test]
fn honest_run_has_no_failures() {
    let c = cfg(true);
    let report = run(c.clone(), &[]);
    assert!(report.succeeded(&c));
    assert_eq!(report.verification_failures, 0);
}

#[test]
fn dropping_aggregator_is_detected() {
    // Aggregator 0 silently drops two trainers' gradients (completeness
    // violation). With a single aggregator per partition the round cannot
    // complete — but the attack is *detected*, not silently absorbed.
    let c = cfg(true);
    let report = run(c.clone(), &[(0, Behavior::DropGradients { count: 2 })]);
    assert!(
        report.verification_failures > 0,
        "drop attack must be caught"
    );
    assert!(
        !report.succeeded(&c),
        "partition 0 has no honest aggregator"
    );
}

#[test]
fn altering_aggregator_is_detected() {
    // Correctness violation: the update is perturbed before upload.
    let c = cfg(true);
    let report = run(c.clone(), &[(1, Behavior::AlterUpdate)]);
    assert!(
        report.verification_failures > 0,
        "alter attack must be caught"
    );
    assert!(!report.succeeded(&c));
}

#[test]
fn without_verification_attacks_succeed_silently() {
    // The same alteration with verifiability off: the round "succeeds" and
    // trainers absorb a poisoned model — the §III-A motivation.
    let c = cfg(false);
    let report = run(c.clone(), &[(0, Behavior::AlterUpdate)]);
    assert!(report.succeeded(&c), "attack goes unnoticed");
    assert_eq!(report.verification_failures, 0);

    // And the resulting model deviates from the honest FedAvg reference.
    let reference = {
        let model = LogisticRegression::new(3, 2);
        let mut fed = FedAvg::new(model, clients(), sgd());
        fed.run(1, c.seed)
    };
    let poisoned = report
        .consensus_params()
        .expect("trainers agree on the poisoned model");
    let dist = param_distance(&poisoned, &reference);
    assert!(dist > 0.01, "poison should move the model, distance {dist}");
}

#[test]
fn honest_peer_aggregator_saves_the_round() {
    // |A_i| = 2 with one malicious member: peers verify partial updates
    // against accumulated commitments (§IV-B), ignore the malicious one,
    // recover its trainer set at the sync deadline, and complete the round
    // with the correct model.
    let mut c = cfg(true);
    c.aggregators_per_partition = 2;
    c.t_train = dfl_netsim::SimDuration::from_secs(15);
    c.t_sync = dfl_netsim::SimDuration::from_secs(20);
    // Aggregator slot (partition 0, j=0) is global index 0.
    let report = run(c.clone(), &[(0, Behavior::AlterUpdate)]);
    assert!(report.succeeded(&c), "honest peer must complete the round");

    // The final model equals the honest reference: the poison was excluded.
    let reference = {
        let model = LogisticRegression::new(3, 2);
        let mut fed = FedAvg::new(model, clients(), sgd());
        fed.run(1, c.seed)
    };
    let consensus = report.consensus_params().expect("consensus");
    let dist = param_distance(&consensus, &reference);
    assert!(
        dist < 1e-3,
        "model must match honest FedAvg, distance {dist}"
    );
}

#[test]
fn offline_aggregator_triggers_dropout_recovery() {
    // One of two aggregators of a partition crashes. At t_sync, the honest
    // peer downloads the dead peer's trainer gradients itself (§III-D) and
    // the round still completes with the exact honest model.
    let mut c = cfg(false);
    c.aggregators_per_partition = 2;
    c.t_train = dfl_netsim::SimDuration::from_secs(15);
    c.t_sync = dfl_netsim::SimDuration::from_secs(20);
    // Aggregator 2 (node layout: directory | storage | aggregators |
    // trainers) is down from the start and never recovers.
    c.fault_plan = FaultPlan::new().crash_at(SimTime::ZERO, NodeId(1 + c.ipfs_nodes + 2));
    let report = run(c.clone(), &[]);
    assert!(report.succeeded(&c), "round must survive the dropout");
    assert!(report.dropout_recoveries > 0, "recovery path must have run");

    let reference = {
        let model = LogisticRegression::new(3, 2);
        let mut fed = FedAvg::new(model, clients(), sgd());
        fed.run(1, c.seed)
    };
    let consensus = report.consensus_params().expect("consensus");
    assert!(param_distance(&consensus, &reference) < 1e-3);
}

#[test]
fn all_aggregators_offline_fails_round() {
    // With every aggregator of partition 0 offline the round cannot finish;
    // t_sync bounds the stall (the paper's liveness argument for deadlines).
    let mut c = cfg(false);
    c.aggregators_per_partition = 1;
    // Aggregator 0, partition 0's only one, is down for the whole task.
    c.fault_plan = FaultPlan::new().crash_at(SimTime::ZERO, NodeId(1 + c.ipfs_nodes));
    let report = run(c.clone(), &[]);
    assert!(!report.succeeded(&c));
    assert_eq!(report.completed_rounds, 0);
}

#[test]
fn verifiable_multi_round_with_malicious_minority() {
    // Two rounds, |A_i| = 2, one altering aggregator: every round must
    // complete correctly despite repeated attacks.
    let mut c = cfg(true);
    c.aggregators_per_partition = 2;
    c.rounds = 2;
    c.t_train = dfl_netsim::SimDuration::from_secs(15);
    c.t_sync = dfl_netsim::SimDuration::from_secs(20);
    let report = run(c.clone(), &[(1, Behavior::AlterUpdate)]);
    assert!(
        report.succeeded(&c),
        "completed {}",
        report.completed_rounds
    );

    let reference = {
        let model = LogisticRegression::new(3, 2);
        let mut fed = FedAvg::new(model, clients(), sgd());
        fed.run(2, c.seed)
    };
    let consensus = report.consensus_params().expect("consensus");
    assert!(param_distance(&consensus, &reference) < 1e-3);
}

#[test]
fn forged_registration_defeats_unauthenticated_verification() {
    // THE attack authentication exists for: a malicious aggregator
    // re-registers its first trainer's gradient with a forged commitment
    // to a fabricated (zeroed) gradient and substitutes that gradient in
    // the aggregation. The poisoned update *opens the forged accumulated
    // commitment*, so unauthenticated verification accepts it.
    let mut c = cfg(true);
    c.authenticate = false;
    let report = run(c.clone(), &[(0, Behavior::ForgeRegistration)]);
    assert!(
        report.succeeded(&c),
        "the forgery slips through unauthenticated verification"
    );
    assert_eq!(
        report.verification_failures, 0,
        "verification was defeated, not triggered"
    );

    // And the accepted model is NOT the honest one.
    let reference = {
        let model = LogisticRegression::new(3, 2);
        let mut fed = FedAvg::new(model, clients(), sgd());
        fed.run(1, c.seed)
    };
    let poisoned = report.consensus_params().expect("consensus");
    assert!(
        param_distance(&poisoned, &reference) > 1e-3,
        "model was poisoned"
    );
}

#[test]
fn authentication_stops_registration_forgery() {
    // Same attack with Schnorr-signed registrations: the forgery carries
    // no valid signature, the directory discards it, the accumulated
    // commitment stays honest, and the poisoned update is rejected.
    let mut c = cfg(true);
    c.authenticate = true;
    let report = run(c.clone(), &[(0, Behavior::ForgeRegistration)]);
    assert!(
        report.trace.find_all("forged_registration").len() == 1,
        "the forgery must be flagged"
    );
    assert!(
        report.verification_failures > 0,
        "the poisoned update must be rejected"
    );
    assert!(
        !report.succeeded(&c),
        "no honest aggregator covers partition 0"
    );
}

#[test]
fn authenticated_honest_run_unaffected() {
    let mut c = cfg(true);
    c.authenticate = true;
    let report = run(c.clone(), &[]);
    assert!(report.succeeded(&c));
    assert_eq!(report.verification_failures, 0);
    assert!(report.trace.find_all("forged_registration").is_empty());

    let reference = {
        let model = LogisticRegression::new(3, 2);
        let mut fed = FedAvg::new(model, clients(), sgd());
        fed.run(1, c.seed)
    };
    let consensus = report.consensus_params().expect("consensus");
    assert!(param_distance(&consensus, &reference) < 1e-3);
}

#[test]
fn trainer_side_verification_accepts_honest_updates() {
    // §IV-B: "this can be performed by any participant (trainer or
    // bootstrapper)". Trainers independently verify downloads against the
    // total accumulated commitment.
    let mut c = cfg(true);
    c.trainer_verifies = true;
    let report = run(c.clone(), &[]);
    assert!(report.succeeded(&c));
    assert!(report.trace.find_all("trainer_rejected_update").is_empty());

    let reference = {
        let model = LogisticRegression::new(3, 2);
        let mut fed = FedAvg::new(model, clients(), sgd());
        fed.run(1, c.seed)
    };
    let consensus = report.consensus_params().expect("consensus");
    assert!(param_distance(&consensus, &reference) < 1e-3);
}

#[test]
fn trainer_verification_requires_verifiable_mode() {
    let mut c = cfg(false);
    c.trainer_verifies = true;
    let model = LogisticRegression::new(3, 2);
    let params = model.params();
    let err = run_task(c, model, params, clients(), sgd(), &[]).unwrap_err();
    assert!(err.to_string().contains("verifiable"));
}
