//! Cross-backend chaos harness: one scripted [`FaultPlan`] — connection
//! resets, a transient partition, a trainer crash + restart — runs against
//! real TCP sockets *and* the deterministic simulator, and both backends
//! must reach the same verdict: the same number of completed rounds and
//! the same quorum-degradation outcome.
//!
//! The plan's times are interpreted as wall-clock offsets by the TCP
//! backend and virtual time by netsim, so the scenarios are built from
//! timing-robust anchors: a degraded round ends exactly `t_sync` after it
//! starts in *both* timelines (the directory's deadline timer), and every
//! fault edge sits seconds away from the nearest round boundary.
//!
//! Node layout for the configs below: node 0 = directory, nodes 1–2 =
//! storage, nodes 3–4 = aggregators (one per partition), nodes 5–8 =
//! trainers 0–3. The dead-aggregator scenario has two aggregators per
//! partition: nodes 3–6, partition 0's being 3 and 4.

use std::io::Write as _;

use dfl_backend_tokio::{run_task_over_tcp, TcpTaskReport};
use dfl_ml::{data, LogisticRegression, Model, SgdConfig};
use ipls::labels;
use ipls::prelude::{ChaosSpec, FaultPlan, NodeId, SimDuration, SimTime};
use ipls::{run_task, CommMode, TaskConfig};

fn sgd() -> SgdConfig {
    SgdConfig {
        lr: 0.3,
        batch_size: 16,
        epochs: 1,
        clip: None,
    }
}

fn base_cfg() -> TaskConfig {
    TaskConfig {
        trainers: 4,
        partitions: 2,
        aggregators_per_partition: 1,
        ipfs_nodes: 2,
        comm: CommMode::Indirect,
        rounds: 3,
        seed: 77,
        replication: 2,
        min_quorum: Some(3),
        // Degraded rounds end exactly t_sync after they start, in both
        // wall-clock and virtual time — the cross-backend anchor.
        t_train: SimDuration::from_secs(2),
        t_sync: SimDuration::from_secs(4),
        // Training takes real time in both backends (the trainer arms a
        // TK_TRAIN timer for this long), so a crash scheduled early in a
        // round reliably lands *before* the victim uploads — with zero
        // compute, the wall-clock TCP trainer can finish a round faster
        // than the fault driver's first sleep.
        train_compute: SimDuration::from_millis(500),
        // Lost storage frames are re-requested quickly enough that
        // retries converge well inside a round.
        fetch_timeout: SimDuration::from_millis(500),
        poll_interval: SimDuration::from_millis(50),
        ..TaskConfig::default()
    }
}

fn clients(cfg: &TaskConfig) -> Vec<data::Dataset> {
    let dataset = data::make_blobs(64, 2, 2, 0.5, 1);
    data::partition_iid(&dataset, cfg.trainers, 0)
}

/// When an assertion of the test holding it fails, leaves the TCP run's
/// trace under `target/` and says which trainers never finished the last
/// round — what a failure of a wall-clock scenario is diagnosed from.
struct TraceOnFailure<'a> {
    scenario: &'static str,
    cfg: &'a TaskConfig,
    tcp: &'a TcpTaskReport,
}

impl Drop for TraceOnFailure<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let trace = &self.tcp.trace;
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{}.tcp-trace.jsonl", self.scenario));
        let written = std::fs::File::create(&path).and_then(|file| {
            let mut file = std::io::BufWriter::new(file);
            trace.write_jsonl(&mut file)?;
            file.flush()
        });
        let first_trainer = 1 + self.cfg.ipfs_nodes + self.cfg.total_aggregators();
        let last_round = (self.cfg.rounds - 1) as f64;
        let unfinished: Vec<usize> = (0..self.cfg.trainers)
            .filter(|t| {
                !trace
                    .find(NodeId(first_trainer + t), labels::TRAINER_ROUND_DONE)
                    .iter()
                    .any(|e| e.value == last_round)
            })
            .collect();
        eprintln!(
            "{}: TCP trace at {} ({written:?}); trainers without the last round's {}: {unfinished:?}",
            self.scenario,
            path.display(),
            labels::TRAINER_ROUND_DONE,
        );
    }
}

fn run_both(cfg: TaskConfig) -> (ipls::runner::TaskReport, TcpTaskReport) {
    let model = LogisticRegression::new(2, 2);
    let params = model.params();
    let sim = run_task(
        cfg.clone(),
        model.clone(),
        params.clone(),
        clients(&cfg),
        sgd(),
        &[],
    )
    .expect("netsim run");
    let tcp = run_task_over_tcp(cfg.clone(), model, params, clients(&cfg), sgd()).expect("TCP run");
    (sim, tcp)
}

#[test]
fn scripted_chaos_scenario_matches_the_netsim_oracle() {
    // The acceptance scenario: 25 % connection resets on a storage node,
    // a transient partition of the other storage node, and a trainer that
    // crashes before round 0 can finish and restarts mid-task.
    //
    // Timeline (t_sync = 4 s; degraded rounds end at exactly round_start
    // + t_sync in both backends):
    //   round 0: [0, 4)   — trainer 3 crashes at 10 ms → degraded
    //   round 1: [4, 8)   — trainer 3 restarts at 6 s but missed the
    //                       round-1 StartRound broadcast → degraded
    //   round 2: [8, ~)   — trainer 3 re-joined via the directory's
    //                       broadcast → full participation, no degradation
    // Every fault edge is ≥ 2 s from the nearest round boundary, so
    // wall-clock jitter cannot flip a round's outcome.
    let trainer3 = NodeId(8);
    let storage1 = NodeId(1);
    let storage2 = NodeId(2);
    let mut cfg = base_cfg();
    cfg.fault_plan = FaultPlan::new()
        .chaos_at(
            SimTime::from_micros(0),
            storage1,
            ChaosSpec {
                reset_pct: 25,
                seed: 0xC0FFEE,
                ..ChaosSpec::default()
            },
        )
        .isolate_at(SimTime::from_micros(1_000_000), storage2)
        .heal_at(SimTime::from_micros(2_000_000), storage2)
        .crash_at(SimTime::from_micros(10_000), trainer3)
        .recover_at(SimTime::from_micros(6_000_000), trainer3);

    let (sim, tcp) = run_both(cfg.clone());
    let _trace_on_failure = TraceOnFailure {
        scenario: "scripted_chaos",
        cfg: &cfg,
        tcp: &tcp,
    };

    // The netsim oracle: all rounds complete, the first two degraded
    // (both partition aggregators degrade per round).
    assert!(sim.succeeded(&cfg), "netsim chaos run must complete");
    assert!(
        sim.quorum_degradations > 0,
        "the crash must force degradation in the oracle"
    );

    // The TCP run reaches the same verdict as the oracle.
    assert_eq!(
        tcp.completed_rounds, sim.completed_rounds,
        "both backends must complete the same rounds"
    );
    assert_eq!(
        tcp.quorum_degradations(),
        sim.quorum_degradations as u64,
        "both backends must degrade the same rounds"
    );

    // Survivors converge in both backends; the crashed trainer re-joined,
    // so every trainer reports parameters over TCP too.
    assert_eq!(tcp.final_params.len(), sim.final_params.len());

    // Chaos really happened on the wire, and none of it was silent: the
    // injected resets, the crash-window discards, and the partition drops
    // are all attributed — while the supervised writers themselves never
    // gave a frame up.
    let d = tcp.delivery;
    assert!(d.chaos_resets > 0, "25% reset chaos must fire: {d:?}");
    assert!(d.reconnects > 0, "writers must reconnect after resets");
    assert!(
        d.frames_discarded_down + d.frames_dropped_down > 0,
        "the crash window must discard traffic: {d:?}"
    );
    assert_eq!(
        d.frames_dropped(),
        0,
        "supervision must never give up on a healthy-destination frame: {d:?}"
    );
    assert!(d.frames_sent > 0);
}

#[test]
fn permanent_trainer_loss_degrades_identically_on_both_backends() {
    // The degradation oracle: a trainer dies before the task starts and
    // never returns. Every round must complete degraded — the exact same
    // count of degradations (rounds × partitions) on both backends — and
    // only the survivors report parameters.
    let trainer3 = NodeId(8);
    let mut cfg = base_cfg();
    cfg.rounds = 2;
    cfg.fault_plan = FaultPlan::new().crash_at(SimTime::from_micros(10_000), trainer3);

    let (sim, tcp) = run_both(cfg.clone());
    let _trace_on_failure = TraceOnFailure {
        scenario: "permanent_trainer_loss",
        cfg: &cfg,
        tcp: &tcp,
    };

    assert!(sim.succeeded(&cfg), "quorum must carry the netsim run");
    assert_eq!(
        sim.quorum_degradations as u64,
        cfg.rounds * cfg.partitions as u64,
        "oracle: every round degrades in both partitions"
    );

    assert_eq!(tcp.completed_rounds, sim.completed_rounds);
    assert_eq!(tcp.quorum_degradations(), sim.quorum_degradations as u64);
    assert_eq!(
        tcp.final_params.len(),
        cfg.trainers - 1,
        "the dead trainer must not report parameters"
    );
    assert_eq!(sim.final_params.len(), cfg.trainers - 1);

    // The dead node's traffic is accounted, not silently dropped.
    let d = tcp.delivery;
    assert!(
        d.frames_discarded_down + d.frames_dropped_down > 0,
        "crash-window losses must be attributed: {d:?}"
    );
    assert_eq!(d.frames_dropped(), 0, "no unforced drops: {d:?}");
}

#[test]
fn a_dead_aggregator_is_recovered_identically_on_both_backends() {
    // The §III-D dropout: partition 0's second aggregator is crashed at
    // t = 0 and never recovers. Its partition peer hears no announcement,
    // and once the sync watchdog fires it downloads the dead slot's trainer
    // gradients from storage itself — on both backends, to the same model.
    // Without a quorum nothing degrades, and silence is no evidence.
    let dead_aggregator = NodeId(4);
    let cfg = TaskConfig {
        aggregators_per_partition: 2,
        rounds: 2,
        min_quorum: None,
        // Recovery starts 1 s into a round instead of at t_sync.
        sync_watchdog: Some(SimDuration::from_secs(1)),
        fault_plan: FaultPlan::new().crash_at(SimTime::ZERO, dead_aggregator),
        ..base_cfg()
    };

    let (sim, tcp) = run_both(cfg.clone());
    let _trace_on_failure = TraceOnFailure {
        scenario: "dead_aggregator",
        cfg: &cfg,
        tcp: &tcp,
    };

    for (backend, report) in [("netsim", &sim), ("TCP", &tcp.report)] {
        assert!(
            report.succeeded(&cfg),
            "{backend}: recovery must carry every round"
        );
        assert!(
            report.dropout_recoveries > 0,
            "{backend}: recovery must run"
        );
        assert!(report.recovered_rounds >= 1, "{backend}: a round recovered");
        assert_eq!(report.detections, 0, "{backend}: silence is not provable");
        assert_eq!(report.evictions, 0, "{backend}: no eviction without proof");
    }
    let bits = |report: &ipls::runner::TaskReport| {
        let params = report.consensus_params().expect("trainers agree");
        params.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
    };
    assert_eq!(
        bits(&tcp),
        bits(&sim),
        "TCP and netsim final model bytes differ"
    );

    // Everything the dead node would have sent or received is booked
    // under the crash, and nothing under any other cause.
    let d = tcp.delivery;
    assert!(
        d.frames_discarded_down + d.frames_dropped_down > 0,
        "the dead aggregator's traffic must be attributed: {d:?}"
    );
    assert_eq!(d.frames_dropped(), 0, "no unforced drops: {d:?}");
    assert_eq!(d.frames_faulted(), 0, "no chaos or partition: {d:?}");
}
