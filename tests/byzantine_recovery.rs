//! End-to-end Byzantine accountability tests: with `f < replicas` malicious
//! aggregators, every round must complete before its deadline, provable
//! misbehavior must get the offender evicted within one round of first
//! detection, and the final model must be **bit-identical** to the
//! all-honest run — recovery re-aggregates the original gradient blobs and
//! the exact sum is order-independent, so honest and recovered rounds
//! produce the same bits.

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

/// 2 partitions × 2 aggregator slots = 4 aggregators, replication 2,
/// verifiable + authenticated + accountable, with an early watchdog so
/// recovery starts well before the t_sync deadline. `batch_verify` defers
/// commitment checks to round boundaries; every scenario runs both ways
/// and must reach identical verdicts.
fn cfg(comm: CommMode, batch_verify: bool) -> TaskConfig {
    TaskConfig::builder()
        .trainers(6)
        .partitions(2)
        .aggregators_per_partition(2)
        .ipfs_nodes(4)
        .comm(comm)
        .rounds(2)
        .replication(2)
        .verifiable(true)
        .batch_verify(batch_verify)
        .authenticate(true)
        .accountability(true)
        .seed(11)
        .t_train(SimDuration::from_secs(15))
        .t_sync(SimDuration::from_secs(20))
        .sync_watchdog(Some(SimDuration::from_secs(5)))
        .fetch_timeout(SimDuration::from_secs(2))
        .build()
        .unwrap()
}

fn clients() -> Vec<data::Dataset> {
    let dataset = data::make_blobs(180, 3, 2, 0.5, 9);
    data::partition_iid(&dataset, 6, 3)
}

fn run(cfg: TaskConfig, behaviors: &[(usize, Behavior)]) -> decentralized_fl::protocol::TaskReport {
    let model = LogisticRegression::new(3, 2);
    let params = model.params();
    run_task(cfg, model, params, clients(), sgd(), behaviors).expect("valid config")
}

/// The round a trace event falls in: how many rounds had completed when it
/// was recorded.
fn round_at(report: &decentralized_fl::protocol::TaskReport, time_secs: f64) -> usize {
    report
        .trace
        .find_all("round_complete")
        .iter()
        .filter(|e| e.time.as_secs_f64() < time_secs)
        .count()
}

/// Asserts the invariants every Byzantine run must uphold against its
/// honest twin, returning the report for behavior-specific checks.
fn assert_recovers(
    c: &TaskConfig,
    honest: &decentralized_fl::protocol::TaskReport,
    behaviors: &[(usize, Behavior)],
) -> decentralized_fl::protocol::TaskReport {
    let report = run(c.clone(), behaviors);
    assert!(
        report.succeeded(c),
        "{behaviors:?}: completed {} of {} rounds",
        report.completed_rounds,
        c.rounds
    );
    // Every round beat its deadline — recovery ran inside the round, the
    // round did not stall out to the simulation limit.
    let deadline = c.t_sync.as_secs_f64();
    for r in &report.rounds {
        assert!(
            r.round_duration < deadline,
            "{behaviors:?}: round {} took {:.2}s (deadline {deadline}s)",
            r.round,
            r.round_duration
        );
    }
    // Bit-for-bit identical final model: Vec<f32> equality, no tolerance.
    assert_eq!(
        report.consensus_params().expect("trainers agree"),
        honest.consensus_params().expect("honest consensus"),
        "{behaviors:?}: recovered model must match the honest run exactly"
    );
    report
}

/// Provable misbehavior additionally requires: detection, eviction within
/// one round of first detection, and the eviction pinned on the offender.
fn assert_evicted(report: &decentralized_fl::protocol::TaskReport, offender: usize, label: &str) {
    assert!(report.detections >= 1, "{label}: no detection");
    assert!(report.evictions >= 1, "{label}: no eviction");
    let detected = report.trace.find_all("misbehavior_detected");
    let evicted = report.trace.find_all("evicted");
    assert!(
        evicted.iter().any(|e| e.value == offender as f64),
        "{label}: eviction must name aggregator {offender}"
    );
    let first_detection = detected
        .iter()
        .map(|e| e.time.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let first_eviction = evicted
        .iter()
        .map(|e| e.time.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    assert!(
        round_at(report, first_eviction) <= round_at(report, first_detection) + 1,
        "{label}: eviction must land within one round of detection"
    );
}

fn comm_modes() -> [CommMode; 2] {
    [CommMode::Indirect, CommMode::MergeAndDownload]
}

/// Every scenario runs over the full matrix: both storage-backed comm
/// modes, with per-blob and with batched (deferred) verification.
fn modes() -> [(CommMode, bool); 4] {
    [
        (CommMode::Indirect, false),
        (CommMode::Indirect, true),
        (CommMode::MergeAndDownload, false),
        (CommMode::MergeAndDownload, true),
    ]
}

#[test]
fn honest_accountable_run_is_clean() {
    for (comm, batch) in modes() {
        let c = cfg(comm, batch);
        let report = run(c.clone(), &[]);
        assert!(report.succeeded(&c), "{comm:?}");
        assert_eq!(report.detections, 0, "{comm:?}");
        assert_eq!(report.evictions, 0, "{comm:?}");
        assert_eq!(report.recovered_rounds, 0, "{comm:?}");
        assert_eq!(report.wasted_bytes, 0, "{comm:?}");
        assert_eq!(report.verification_failures, 0, "{comm:?}");
    }
}

#[test]
fn dropping_aggregator_is_evicted_and_round_recovers() {
    // Aggregator 0 drops two of its trainers' gradients but *claims* the
    // full set in its signed announce (admitting the subset would be
    // self-incriminating). The partial provably fails the slot accumulator:
    // the peer packages evidence, the directory evicts, and the peer
    // re-aggregates the slot from the original gradient blobs.
    for (comm, batch) in modes() {
        let c = cfg(comm, batch);
        let honest = run(c.clone(), &[]);
        let behaviors = [(0, Behavior::DropGradients { count: 2 })];
        let report = assert_recovers(&c, &honest, &behaviors);
        assert_evicted(&report, 0, &format!("drop/{comm:?}/batch={batch}"));
        assert!(report.recovered_rounds >= 1, "{comm:?}: recovery must run");
        assert!(report.wasted_bytes > 0, "{comm:?}: bad partial was fetched");
    }
}

#[test]
fn altering_aggregator_is_evicted_and_round_recovers() {
    // Aggregator 0's partial is honest but its registered global update is
    // poisoned. The directory verifies the signed registration first-hand
    // (auditing it even if an honest update won the race), issues BadUpdate
    // evidence, and evicts.
    for (comm, batch) in modes() {
        let c = cfg(comm, batch);
        let honest = run(c.clone(), &[]);
        let behaviors = [(0, Behavior::AlterUpdate)];
        let report = assert_recovers(&c, &honest, &behaviors);
        assert_evicted(&report, 0, &format!("alter/{comm:?}/batch={batch}"));
        assert!(report.wasted_bytes > 0, "{comm:?}: rejected update counted");
    }
}

#[test]
fn offline_aggregator_round_recovers_without_eviction() {
    // Silence yields no transferable proof — an offline aggregator is
    // locally blacklisted (timeout suspicion) and its set recovered, but
    // never evicted: eviction is reserved for *provable* misbehavior.
    for (comm, batch) in modes() {
        let mut c = cfg(comm, batch);
        let honest = run(c.clone(), &[]);
        // Aggregator 0 (node layout: directory | storage | aggregators |
        // trainers) crashes before round 0 and never recovers.
        c.fault_plan = FaultPlan::new().crash_at(SimTime::ZERO, NodeId(1 + c.ipfs_nodes));
        let report = assert_recovers(&c, &honest, &[]);
        assert_eq!(report.detections, 0, "{comm:?}: silence is not provable");
        assert_eq!(report.evictions, 0, "{comm:?}: no eviction without proof");
        assert!(report.dropout_recoveries > 0, "{comm:?}");
        assert!(report.recovered_rounds >= 1, "{comm:?}");
    }
}

#[test]
fn equivocating_aggregator_is_evicted_and_round_recovers() {
    // Aggregator 0 uploads two partial variants and sends its peer a
    // validly *signed* announcement of the poisoned one. The signature
    // binds the attacker to the bad blob — exactly the transferable
    // evidence the subsystem exists for.
    for (comm, batch) in modes() {
        let c = cfg(comm, batch);
        let honest = run(c.clone(), &[]);
        let behaviors = [(0, Behavior::Equivocate)];
        let report = assert_recovers(&c, &honest, &behaviors);
        assert_evicted(&report, 0, &format!("equivocate/{comm:?}/batch={batch}"));
        assert!(report.recovered_rounds >= 1, "{comm:?}: recovery must run");
        assert!(
            report.wasted_bytes > 0,
            "{comm:?}: poisoned partial counted"
        );
    }
}

#[test]
fn evicted_aggregator_registrations_are_rejected_next_round() {
    // Round 0 detects and evicts; in round 1 the attacker keeps playing
    // but the directory drops its registration outright.
    for (comm, batch) in modes() {
        let c = cfg(comm, batch);
        let report = run(c.clone(), &[(0, Behavior::Equivocate)]);
        assert!(report.succeeded(&c), "{comm:?}");
        let rejected = report.trace.find_all("evicted_rejected");
        assert!(
            !rejected.is_empty(),
            "{comm:?}: post-eviction registrations must be refused"
        );
        assert!(
            rejected.iter().all(|e| e.value == 0.0),
            "{comm:?}: only the evicted aggregator is refused"
        );
    }
}

#[test]
fn peers_blacklist_via_gossiped_evidence() {
    // The detector is aggregator 1 (slot 1 of partition 0); the directory
    // evicts on the report. Gossip lets *other* aggregators blacklist the
    // offender without re-detecting it themselves; blacklisting shows up
    // as proactive recovery in round 1 with no fresh detection.
    for (comm, batch) in modes() {
        let c = cfg(comm, batch);
        let report = run(c.clone(), &[(0, Behavior::Equivocate)]);
        assert!(report.succeeded(&c), "{comm:?}");
        let blacklisted = report.trace.find_all("peer_blacklisted");
        assert!(
            blacklisted.iter().any(|e| e.value == 0.0),
            "{comm:?}: the offender must be blacklisted by peers"
        );
        // One detection per round at most — round 1 runs on the blacklist,
        // not on re-detecting the same offender.
        assert!(
            report.detections <= c.rounds as usize,
            "{comm:?}: {} detections",
            report.detections
        );
    }
}

#[test]
fn batched_verification_names_identical_culprits() {
    // The batched path bisects a failing RLC check down to the exact
    // offending blobs, so detection, blacklisting, and eviction must pin
    // the same peers as arrival-time per-blob verification — evidence and
    // verdicts may not shift by a single index.
    let sorted_values = |report: &decentralized_fl::protocol::TaskReport, label: &str| {
        let mut v: Vec<f64> = report
            .trace
            .find_all(label)
            .iter()
            .map(|e| e.value)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let scenarios: [&[(usize, Behavior)]; 3] = [
        &[(0, Behavior::DropGradients { count: 2 })],
        &[(0, Behavior::AlterUpdate)],
        &[(0, Behavior::Equivocate)],
    ];
    for comm in comm_modes() {
        for behaviors in scenarios {
            let per_blob = run(cfg(comm, false), behaviors);
            let batched = run(cfg(comm, true), behaviors);
            for label in ["misbehavior_detected", "evicted", "peer_blacklisted"] {
                assert_eq!(
                    sorted_values(&per_blob, label),
                    sorted_values(&batched, label),
                    "{comm:?}/{behaviors:?}: `{label}` culprits must be \
                     identical across verification modes"
                );
            }
        }
    }
}

/// `examples/byzantine_sweep.rs`'s table, row for row: each attack against
/// the first `f` aggregators of the order (0, 2, 1), on the same config.
/// One per partition is absorbed with the model exact; at `f = 3` both
/// slots of partition 0 attack, so no round completes. Each row is
/// `(completed rounds, detections, evictions, recovered rounds, wasted
/// bytes, model bit-equal to the honest run's)`.
#[test]
fn byzantine_sweep_rows_are_pinned() {
    let c = cfg(CommMode::Indirect, false);
    let honest = run(c.clone(), &[])
        .consensus_params()
        .expect("honest consensus");
    let rows = |recovered: [usize; 3]| {
        [
            (2, 1, 1, recovered[0], 40, true),
            (2, 2, 2, recovered[1], 80, true),
            (0, 3, 3, recovered[2], 120, false),
        ]
    };
    let attacks = [
        (Behavior::DropGradients { count: 2 }, rows([2, 2, 1])),
        (Behavior::AlterUpdate, rows([0, 0, 0])),
        (Behavior::Equivocate, rows([2, 2, 1])),
    ];
    for (attack, expected) in attacks {
        for (f, row) in (1..=3).zip(expected) {
            let behaviors: Vec<(usize, Behavior)> =
                [0, 2, 1][..f].iter().map(|&g| (g, attack)).collect();
            let report = run(c.clone(), &behaviors);
            let exact = report.consensus_params().as_ref() == Some(&honest);
            let got = (
                report.completed_rounds,
                report.detections,
                report.evictions,
                report.recovered_rounds,
                report.wasted_bytes,
                exact,
            );
            assert_eq!(got, row, "{attack:?}, f = {f}");
        }
    }
}

/// Misbehaviour lives in `ipls::adversary` alone: no honest-core source
/// names `Behavior` outside its tests, so an honest round runs no attack
/// code and a new adversary adds no branch to an honest core.
#[test]
fn no_honest_core_source_names_behavior() {
    let honest_core = [
        (
            "aggregator.rs",
            include_str!("../crates/core/src/aggregator.rs"),
        ),
        ("trainer.rs", include_str!("../crates/core/src/trainer.rs")),
        (
            "directory.rs",
            include_str!("../crates/core/src/directory.rs"),
        ),
        ("overlay.rs", include_str!("../crates/core/src/overlay.rs")),
        (
            "protocol.rs",
            include_str!("../crates/core/src/protocol.rs"),
        ),
        (
            "gradient.rs",
            include_str!("../crates/core/src/gradient.rs"),
        ),
    ];
    let names = |line: &str| {
        let continues_name = |c: char| c == '_' || c.is_ascii_alphanumeric();
        line.match_indices("Behavior")
            .any(|(at, _)| !line[..at].ends_with(continues_name))
    };
    for (file, src) in honest_core {
        let code = src.split("#[cfg(test)]").next().unwrap_or(src);
        let named: Vec<&str> = code.lines().filter(|line| names(line)).collect();
        assert!(named.is_empty(), "{file} names `Behavior`: {named:?}");
    }
}
