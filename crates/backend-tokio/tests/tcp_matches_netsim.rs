//! End-to-end equivalence: the same protocol cores, driven over real
//! localhost TCP sockets, learn bit-for-bit the same model as a netsim run
//! of the same [`TaskConfig`]. Training is seeded per `(task seed, round,
//! trainer)` and aggregation is exact and order-independent, so transport
//! timing must not leak into the result — this test is the proof.

use dfl_backend_tokio::{run_task_over_tcp, TcpTaskReport};
use dfl_ml::{data, LogisticRegression, Model, SgdConfig};
use ipls::prelude::{FaultPlan, NodeId, SimTime};
use ipls::{run_task, CommMode, IplsError, TaskConfig};

fn task_config() -> TaskConfig {
    TaskConfig {
        trainers: 4,
        partitions: 2,
        aggregators_per_partition: 1,
        ipfs_nodes: 2,
        comm: CommMode::Indirect,
        rounds: 2,
        // Real time, not simulated: poll fast so a round completes in
        // tens of milliseconds instead of the simulator-scaled default.
        poll_interval: ipls::prelude::SimDuration::from_millis(20),
        ..TaskConfig::default()
    }
}

#[test]
fn tcp_run_matches_netsim_model_bytes() {
    let cfg = task_config();
    let dataset = data::make_blobs(64, 2, 2, 0.5, 1);
    let clients = data::partition_iid(&dataset, cfg.trainers, 0);
    let model = LogisticRegression::new(2, 2);
    let params = model.params();
    let sgd = SgdConfig::default();

    let sim_report = run_task(
        cfg.clone(),
        model.clone(),
        params.clone(),
        clients.clone(),
        sgd,
        &[],
    )
    .expect("netsim run");
    assert!(sim_report.succeeded(&cfg), "netsim run must complete");
    let sim_params = sim_report
        .consensus_params()
        .expect("netsim trainers agree");

    let tcp_report = run_task_over_tcp(cfg.clone(), model, params, clients, sgd).expect("TCP run");
    assert_eq!(
        tcp_report.completed_rounds, cfg.rounds,
        "TCP run must complete every round"
    );
    assert_eq!(
        tcp_report.final_params.len(),
        cfg.trainers,
        "every trainer reports final parameters"
    );
    let tcp_params = tcp_report.consensus_params().expect("TCP trainers agree");

    // The headline assertion: identical bytes, not approximately-equal
    // floats — both backends interpreted the same state machines.
    assert_eq!(
        tcp_params.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        sim_params.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        "TCP and netsim final model bytes differ"
    );

    // A healthy run loses nothing, and every category proves it: the
    // supervised writers never gave up, no queue overflowed, no fault
    // was injected.
    let delivery = tcp_report.delivery;
    assert_eq!(delivery.frames_dropped(), 0, "healthy run dropped frames");
    assert_eq!(delivery.frames_faulted(), 0, "no faults were injected");
    assert_eq!(delivery.frames_dropped_down, 0, "no node was crashed");
    assert!(delivery.frames_sent > 0, "frames flowed over TCP");

    // The Incr sink mirrors what the simulator traces: storage nodes
    // served provider lookups in both backends. (Exact totals may differ
    // — real-time retries are timing-dependent — but the sink must flow.)
    assert!(
        tcp_report.counter("ipfs/provider_lookups") > 0,
        "storage counters must flow into the TCP report; got {:?}",
        tcp_report.counters
    );
    assert!(
        sim_report.trace.counter("ipfs/provider_lookups") > 0,
        "netsim oracle also counts provider lookups"
    );
    assert_eq!(
        tcp_report.quorum_degradations(),
        0,
        "healthy run must not degrade quorum"
    );
}

/// The same small task on both backends: `(netsim, TCP)`.
fn run_both(
    cfg: &TaskConfig,
) -> (
    Result<ipls::TaskReport, IplsError>,
    Result<TcpTaskReport, IplsError>,
) {
    let dataset = data::make_blobs(64, 2, 2, 0.5, 1);
    let clients = data::partition_iid(&dataset, cfg.trainers, 0);
    let model = LogisticRegression::new(2, 2);
    let params = model.params();
    let sgd = SgdConfig::default();
    let sim = run_task(
        cfg.clone(),
        model.clone(),
        params.clone(),
        clients.clone(),
        sgd,
        &[],
    );
    (
        sim,
        run_task_over_tcp(cfg.clone(), model, params, clients, sgd),
    )
}

#[test]
fn lossy_storage_node_loses_data_over_tcp_too() {
    // Storage node 0 discards everything it is asked to keep; with two
    // replicas every round still completes on both backends, and over TCP
    // too the lossy node never serves a block from its own store.
    let cfg = TaskConfig {
        lossy_ipfs_nodes: vec![0],
        replication: 2,
        ..task_config()
    };
    let (sim, tcp) = run_both(&cfg);
    let (sim, tcp) = (sim.expect("netsim run"), tcp.expect("TCP run"));
    assert!(sim.succeeded(&cfg), "replication masks the loss");
    assert_eq!(tcp.completed_rounds, cfg.rounds);
    assert_eq!(
        tcp.consensus_params().expect("TCP trainers agree"),
        sim.consensus_params().expect("netsim trainers agree"),
    );
    // Node ids: directory 0, storage nodes 1 and 2.
    let hits = |node: usize| tcp.counters[node].get("ipfs/cache_hits").copied();
    assert_eq!(hits(1), None, "{:?}", tcp.counters[1]);
    assert!(tcp.counters[1]
        .get("ipfs/cache_misses")
        .is_some_and(|&n| n > 0));
    assert!(hits(2).is_some_and(|n| n > 0));
}

#[test]
fn a_fault_plan_outside_the_deployment_is_the_same_error_on_both_backends() {
    let cfg = TaskConfig {
        fault_plan: FaultPlan::new().crash_at(SimTime::from_micros(1), NodeId(99)),
        ..task_config()
    };
    let (sim, tcp) = run_both(&cfg);
    let (sim, tcp) = (sim.expect_err("no node 99"), tcp.expect_err("nor over TCP"));
    assert_eq!(tcp.to_string(), sim.to_string());
    assert!(tcp.to_string().contains("fault plan targets node 99"));
}
