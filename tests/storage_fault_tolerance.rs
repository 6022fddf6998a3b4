//! Integration tests for storage-layer fault tolerance: scheduled crashes
//! ([`FaultPlan`]), client-side retry with alternate-provider failover, and
//! quorum-based deadline degradation.
//!
//! Every role reaches storage through one client rule: a `Put`, `Get` or
//! `Merge` unanswered after `fetch_timeout` is re-sent, under the same
//! request id, to the next storage node, round-robin — trainers,
//! aggregators and the directory alike. So a storage node that dies and
//! stays dead costs time, not rounds, and the round-boundary `Unpin` goes to
//! every node a `Put` was sent to, where the copy was stored. Inside the
//! storage network, a node retrieving a block retries and fails over across
//! providers on its own timer.
//!
//! Node layout for the config below: node 0 = directory, nodes 1–4 =
//! storage, nodes 5–6 = aggregators (one per partition), nodes 7–12 =
//! trainers 0–5.

use decentralized_fl::ml::{data, LogisticRegression, Model, SgdConfig};
use decentralized_fl::prelude::*;
use decentralized_fl::protocol::labels;

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
        .replication(2)
        .t_train(SimDuration::from_secs(20))
        .t_sync(SimDuration::from_secs(40))
        // Short enough that failover finishes well inside t_sync.
        .fetch_timeout(SimDuration::from_secs(2))
        .build()
        .unwrap()
}

fn clients() -> Vec<data::Dataset> {
    let dataset = data::make_blobs(120, 3, 2, 0.5, 4);
    data::partition_iid(&dataset, 6, 2)
}

fn run(cfg: TaskConfig) -> decentralized_fl::protocol::TaskReport {
    let model = LogisticRegression::new(3, 2);
    let params = model.params();
    run_task(cfg, model, params, clients(), sgd(), &[]).expect("valid config")
}

#[test]
fn storage_crash_mid_round_is_masked_by_retry_and_failover() {
    // Storage node 1 — aggregator 0's gateway AND the node holding
    // trainers 0/4's gradients — crashes at 90 ms: after every upload was
    // acknowledged (~63 ms) but before the aggregators fetch (~100 ms).
    // Aggregator 0's Gets are lost and must be re-issued to another
    // storage node after `fetch_timeout`; aggregator 1's gateway must
    // fail over to replicas for the blocks the dead node holds. The node
    // recovers before the (retry-delayed) trainer downloads begin.
    let baseline = run(cfg());

    let mut c = cfg();
    c.fault_plan = FaultPlan::new()
        .crash_at(SimTime::from_micros(90_000), NodeId(1))
        .recover_at(SimTime::from_micros(4_000_000), NodeId(1));
    let report = run(c.clone());

    assert!(report.succeeded(&c), "retry + failover must mask the crash");
    assert_eq!(
        report.quorum_degradations, 0,
        "no quorum configured, none used"
    );
    // The crash really was in the critical path: the round stalls on the
    // retry timers instead of finishing in the baseline's ~0.4 s…
    let faulted = report.rounds[0].round_duration;
    assert!(
        faulted > 1.0,
        "round took {faulted:.3}s — the crash window missed the fetch phase"
    );
    // …and fault tolerance changes availability, never the model.
    assert_eq!(
        report.consensus_params().expect("consensus"),
        baseline.consensus_params().expect("consensus")
    );

    // Node 1 need not come back: every request it leaves unanswered moves
    // on to the next storage node.
    c.fault_plan = FaultPlan::new().crash_at(SimTime::from_micros(90_000), NodeId(1));
    let report = run(c.clone());
    assert!(report.succeeded(&c), "the dead node's requests move on");
    assert_eq!(
        report.consensus_params().expect("consensus"),
        baseline.consensus_params().expect("consensus")
    );
}

/// Storage node `k` crashed at t = 0 and never recovered.
fn dead_from_the_start(k: usize) -> FaultPlan {
    FaultPlan::new().crash_at(SimTime::ZERO, NodeId(1 + k))
}

#[test]
fn any_one_storage_node_dead_from_the_start_costs_no_round() {
    // Whichever node is dead, it is someone's gateway, upload target or
    // provider, and the directory's first choice when it is node 1. Each
    // request sent there is re-sent to the next storage node after
    // `fetch_timeout`, so with a strict quorum every round completes, and
    // the model is the fault-free one.
    for comm in [CommMode::Indirect, CommMode::MergeAndDownload] {
        for replication in [1, 2] {
            let mut c = cfg();
            c.comm = comm;
            c.replication = replication;
            c.rounds = 2;
            let baseline = run(c.clone());
            assert!(baseline.succeeded(&c));
            let expected = baseline.consensus_params().expect("consensus");
            for k in 0..c.ipfs_nodes {
                c.fault_plan = dead_from_the_start(k);
                let report = run(c.clone());
                let case = format!("{comm:?}, replication {replication}, node {k} dead");
                assert_eq!(report.completed_rounds, 2, "{case}");
                assert_eq!(report.consensus_params(), Some(expected.clone()), "{case}");
            }
        }
    }
}

/// The blocks each live storage node holds when the run ends.
fn held_blocks(report: &decentralized_fl::protocol::TaskReport, dead: NodeId) -> Vec<usize> {
    let storage = (1..=4).map(NodeId).filter(|&n| n != dead);
    let held = |node| {
        let samples = report.trace.find(node, labels::STORE_BLOCKS);
        samples.last().map_or(0, |e| e.value as usize)
    };
    storage.map(held).collect()
}

#[test]
fn no_block_outlives_its_round_when_a_put_went_elsewhere() {
    // Node 1 is aggregator 0's gateway and the upload target of some
    // trainers, dead from the start: their Puts are stored by the next
    // node. The round-boundary `Unpin` must reach that copy, so the live
    // nodes hold as many blocks after 3R rounds as after R — the blocks of
    // the last round, and nothing left over from the ones before. One copy
    // a block: replicas go to the nodes nearest each CID, so with more a
    // node's count at the end moves by a few blocks from round to round.
    const R: u64 = 2;
    for comm in [CommMode::Indirect, CommMode::MergeAndDownload] {
        let mut c = cfg();
        c.comm = comm;
        c.replication = 1;
        c.fault_plan = dead_from_the_start(0);
        let held = |rounds| {
            let mut c = c.clone();
            c.rounds = rounds;
            let report = run(c.clone());
            assert!(report.succeeded(&c), "{comm:?}, {rounds} rounds");
            held_blocks(&report, NodeId(1))
        };
        assert_eq!(held(3 * R), held(R), "{comm:?}");
    }
}

#[test]
fn crashed_trainer_stalls_the_round_without_a_quorum() {
    // Default semantics are unchanged: every trainer must report done.
    let mut c = cfg();
    c.t_train = SimDuration::from_secs(2);
    c.t_sync = SimDuration::from_secs(5);
    c.fault_plan = FaultPlan::new().crash_at(SimTime::from_micros(10_000), NodeId(12));
    let report = run(c.clone());
    assert!(
        !report.succeeded(&c),
        "a dead trainer must stall a full-participation round"
    );
}

#[test]
fn quorum_completes_the_round_despite_a_crashed_trainer() {
    // Same dead trainer, but min_quorum = 5: at the sync deadline the
    // aggregators continue with the five received gradients (the FedAvg
    // counter scales the denominator) and the directory closes the round
    // once five trainers report done.
    let mut c = cfg();
    c.t_train = SimDuration::from_secs(2);
    c.t_sync = SimDuration::from_secs(5);
    c.min_quorum = Some(5);
    c.fault_plan = FaultPlan::new().crash_at(SimTime::from_micros(10_000), NodeId(12));
    let report = run(c.clone());

    assert!(report.succeeded(&c), "quorum must complete the round");
    // Both partition aggregators degraded at the deadline.
    assert_eq!(report.quorum_degradations, 2);
    // The dead trainer never finished; the five survivors agree.
    assert_eq!(report.final_params.len(), 5);
    assert!(!report.final_params.contains_key(&5));
    let mut models = report.final_params.values();
    let first = models.next().expect("five survivors");
    assert!(
        models.all(|m| m == first),
        "survivors must agree on the model"
    );
}

#[test]
fn fault_injection_is_deterministic() {
    // Same seed + same plan → byte-identical reports (ISSUE acceptance:
    // churn experiments must be exactly replayable).
    let mk = || {
        let mut c = cfg();
        c.fault_plan = FaultPlan::new()
            .crash_at(SimTime::from_micros(90_000), NodeId(1))
            .recover_at(SimTime::from_micros(4_000_000), NodeId(1));
        run(c)
    };
    let a = mk();
    let b = mk();
    // `final_params` is a HashMap whose Debug order is not stable; compare
    // it sorted, and everything else (including the full trace) verbatim.
    assert_eq!(format!("{:?}", a.rounds), format!("{:?}", b.rounds));
    assert_eq!(a.completed_rounds, b.completed_rounds);
    assert_eq!(a.aggregator_rx_bytes, b.aggregator_rx_bytes);
    assert_eq!(a.quorum_degradations, b.quorum_degradations);
    assert_eq!(a.merge_fallbacks, b.merge_fallbacks);
    let sorted = |r: &decentralized_fl::protocol::TaskReport| {
        let mut v: Vec<_> = r
            .final_params
            .iter()
            .map(|(t, p)| (*t, p.clone()))
            .collect();
        v.sort_by_key(|(t, _)| *t);
        v
    };
    assert_eq!(sorted(&a), sorted(&b));
    // The event log (every fault, timer, and transfer completion, in
    // order) and all per-node byte counters must match exactly; the
    // Trace's own Debug is skipped only because its byte-count maps print
    // in hash order.
    assert_eq!(
        format!("{:?}", a.trace.events()),
        format!("{:?}", b.trace.events())
    );
    for node in 0..13u64 {
        let node = NodeId(node as usize);
        assert_eq!(a.trace.bytes_sent(node), b.trace.bytes_sent(node));
        assert_eq!(a.trace.bytes_received(node), b.trace.bytes_received(node));
    }
}

#[test]
fn fault_plan_node_ids_are_validated() {
    let mut c = cfg();
    c.fault_plan = FaultPlan::new().crash_at(SimTime::from_micros(1), NodeId(99));
    let model = LogisticRegression::new(3, 2);
    let params = model.params();
    let err = run_task(c, model, params, clients(), sgd(), &[]).unwrap_err();
    assert!(err.to_string().contains("fault plan"), "got: {err}");
}

#[test]
fn quorum_composes_with_verifiable_mode() {
    // A degraded round can no longer open the full accumulated commitment,
    // so the directory instead verifies the update against the product of
    // the *claimed contributors'* individual commitments. Same crashed
    // trainer as above, but with commitments on end to end.
    let mut c = cfg();
    c.t_train = SimDuration::from_secs(2);
    c.t_sync = SimDuration::from_secs(5);
    c.min_quorum = Some(5);
    c.verifiable = true;
    c.fault_plan = FaultPlan::new().crash_at(SimTime::from_micros(10_000), NodeId(12));
    let report = run(c.clone());

    assert!(
        report.succeeded(&c),
        "verifiable + quorum must complete the degraded round"
    );
    assert_eq!(report.quorum_degradations, 2);
    assert_eq!(
        report.verification_failures, 0,
        "the subset update must open the per-member commitment product"
    );
    // The five survivors agree on the model.
    assert_eq!(report.final_params.len(), 5);
    let mut models = report.final_params.values();
    let first = models.next().expect("five survivors");
    assert!(models.all(|m| m == first));
}

#[test]
fn directory_update_fetch_fails_over_to_the_next_storage_node() {
    // In verifiable mode the directory fetches each registered update from
    // storage node 0 (node 1) before accepting it. Node 1 crashes at
    // 270 ms, while the directory's Get for partition 0's update is on its
    // way there (sent ≈ 263 ms, arriving ≈ 283 ms) and before partition
    // 1's is sent. Both Gets are lost. After `fetch_timeout` the directory
    // re-sends each to node 2, which holds a replica of partition 0's
    // update (`replication` 2) and finds partition 1's at its provider.
    // Node 1 comes back at 5 s.
    let verifiable = || {
        let mut c = cfg();
        c.verifiable = true;
        c.rounds = 2;
        c
    };
    let baseline = run(verifiable());
    assert!(baseline.succeeded(&verifiable()));

    let mut c = verifiable();
    c.fault_plan = FaultPlan::new()
        .crash_at(SimTime::from_micros(270_000), NodeId(1))
        .recover_at(SimTime::from_micros(5_000_000), NodeId(1));
    let report = run(c.clone());

    assert!(report.succeeded(&c), "the retried fetch must complete");
    let faulted = report.rounds[0].round_duration;
    assert!(
        faulted > 2.0,
        "round took {faulted:.3}s — the crash missed the directory's fetch"
    );
    assert_eq!(
        report.consensus_params().expect("consensus"),
        baseline.consensus_params().expect("consensus")
    );
}
