//! Byte-conservation invariants of the network trace under fault
//! injection.
//!
//! Every byte the shaper moves is attributed exactly once: a flow that
//! completes and is delivered counts on both the sender's and receiver's
//! ledgers; a flow torn by a *sender* crash counts the transferred prefix
//! on both sides (`flow/torn_outbound`); a flow torn by a *receiver* crash
//! counts it on the sender only (`flow/torn_inbound` — the receiver never
//! took application delivery); a payload that finished transferring into a
//! node that crashed before the delivery event counts on both sides as
//! `flow/undelivered`. The invariant checked throughout:
//!
//! ```text
//! total_tx − total_rx == Σ flow/torn_inbound
//! ```
//!
//! Node layout for the config below: node 0 = directory, nodes 1–4 =
//! storage, nodes 5–6 = aggregators (one per partition), nodes 7–12 =
//! trainers 0–5.

use decentralized_fl::ml::{data, LogisticRegression, Model, SgdConfig};
use decentralized_fl::netsim::engine::{Actor, Context, LinkSpec, Simulation};
use decentralized_fl::netsim::fault::Fault;
use decentralized_fl::netsim::trace::net;
use decentralized_fl::prelude::*;
use decentralized_fl::protocol::TaskReport;

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
        .fetch_timeout(SimDuration::from_secs(2))
        .build()
        .unwrap()
}

fn run(cfg: TaskConfig) -> TaskReport {
    let dataset = data::make_blobs(120, 3, 2, 0.5, 4);
    let clients = data::partition_iid(&dataset, 6, 2);
    let model = LogisticRegression::new(3, 2);
    let params = model.params();
    run_task(cfg, model, params, clients, sgd(), &[]).expect("valid config")
}

/// Checks the conservation invariant and that the report's wire-waste
/// field reconciles with the trace's torn/undelivered ledger.
fn assert_conserved(report: &TaskReport) {
    let trace = &report.trace;
    let tx = trace.total_bytes_sent();
    let rx = trace.total_bytes_received();
    let torn_inbound = trace.sum(net::FLOW_TORN_INBOUND) as u64;
    let torn_outbound = trace.sum(net::FLOW_TORN_OUTBOUND) as u64;
    let undelivered = trace.sum(net::FLOW_UNDELIVERED) as u64;
    assert_eq!(
        tx,
        rx + torn_inbound,
        "bytes leaked: tx {tx} vs rx {rx} + torn_inbound {torn_inbound}"
    );
    assert_eq!(
        report.wire_wasted_bytes,
        torn_inbound + torn_outbound + undelivered,
        "wire_wasted_bytes must equal the trace's torn + undelivered ledger"
    );
    assert!(
        report.wasted_bytes >= report.wire_wasted_bytes,
        "wasted_bytes includes wire waste"
    );
}

#[test]
fn healthy_run_conserves_bytes_with_no_waste() {
    let report = run(cfg());
    assert_conserved(&report);
    let trace = &report.trace;
    assert_eq!(trace.total_bytes_sent(), trace.total_bytes_received());
    assert_eq!(trace.count(net::FLOW_TORN_INBOUND), 0);
    assert_eq!(trace.count(net::FLOW_TORN_OUTBOUND), 0);
    assert_eq!(trace.count(net::FLOW_UNDELIVERED), 0);
    assert_eq!(report.wire_wasted_bytes, 0);
    assert_eq!(report.wasted_bytes, 0);
    assert!(report.total_tx_bytes > 0);
}

#[test]
fn crash_and_recover_mid_round_conserves_bytes() {
    // Storage node 1 crashes at 90 ms — mid-fetch, with gradient transfers
    // in flight in both directions — and recovers at 4 s.
    let mut c = cfg();
    c.fault_plan = FaultPlan::new()
        .crash_at(SimTime::from_micros(90_000), NodeId(1))
        .recover_at(SimTime::from_micros(4_000_000), NodeId(1));
    let report = run(c.clone());
    assert!(report.succeeded(&c), "retry must mask the crash");
    assert_conserved(&report);
    // The crash window is chosen to tear at least one in-flight transfer,
    // so the waste accounting is actually exercised, not vacuous.
    assert!(
        report.wire_wasted_bytes > 0,
        "the 90 ms crash must tear in-flight fetches"
    );
}

#[test]
fn degraded_links_conserve_bytes_without_waste() {
    // Link degradation reshapes flows but never kills them: every byte
    // still arrives, so there is nothing to write off.
    let mut c = cfg();
    c.fault_plan = FaultPlan::new()
        .degrade_link_at(SimTime::from_micros(50_000), NodeId(1), 1e6, 1e6)
        .degrade_link_at(SimTime::from_micros(80_000), NodeId(2), 5e5, 5e5);
    let report = run(c.clone());
    assert!(report.succeeded(&c), "degradation must not stall the round");
    assert_conserved(&report);
    assert_eq!(report.wire_wasted_bytes, 0);
    assert_eq!(
        report.trace.total_bytes_sent(),
        report.trace.total_bytes_received()
    );
    assert!(report.trace.count(net::FAULT_DEGRADE_LINK) == 2);
}

#[test]
fn data_loss_with_replication_conserves_bytes() {
    // A storage node silently drops its blocks after the uploads land; the
    // failover refetches cost extra wire bytes but nothing is torn.
    let mut c = cfg();
    c.fault_plan = FaultPlan::new().data_loss_at(SimTime::from_micros(70_000), NodeId(1));
    let report = run(c.clone());
    assert!(report.succeeded(&c), "replication must mask the data loss");
    assert_conserved(&report);
    assert_eq!(report.wire_wasted_bytes, 0);
}

#[test]
fn churn_schedule_conserves_bytes() {
    // The bench harness's churn shape: every 10 s one storage node crashes
    // for 4 s, across a 3-round task.
    let mut c = cfg();
    c.rounds = 3;
    c.t_train = SimDuration::from_secs(60);
    c.t_sync = SimDuration::from_secs(120);
    let storage: Vec<NodeId> = (1..=4).map(NodeId).collect();
    c.fault_plan = FaultPlan::churn(
        &storage,
        SimTime::from_micros(2_000_000),
        SimTime::from_micros(c.t_sync.as_micros() * c.rounds),
        SimDuration::from_secs(10),
        SimDuration::from_secs(4),
        42,
    );
    let report = run(c);
    assert_conserved(&report);
}

#[test]
fn ten_thousand_concurrent_flows_conserve_bytes_exactly() {
    // 2 500 groups of four senders blasting one sink — 10 000 concurrent
    // shaped flows across 12 500 nodes, with a fifth of the sinks throttled
    // to an awkward 1 234 567 bps mid-transfer so rates fold through
    // non-round floating-point values. Accounting must stay *exact*: every
    // delivered flow contributes precisely its wire size to both ledgers,
    // with no epsilon slack anywhere.
    struct Blast {
        sink: decentralized_fl::netsim::engine::NodeId,
        bytes: u64,
    }
    impl Actor<()> for Blast {
        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            ctx.send(self.sink, self.bytes, ());
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _f: NodeId, _m: ()) {}
    }
    struct Sink;
    impl Actor<()> for Sink {
        fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _f: NodeId, _m: ()) {}
    }

    const GROUPS: usize = 2_500;
    let mut sim: Simulation<()> = Simulation::new();
    let mut expected_total: u64 = 0;
    let mut group_bytes = vec![0u64; GROUPS];
    let mut payloads = Vec::new();
    for (g, group_total) in group_bytes.iter_mut().enumerate() {
        let link = LinkSpec::symmetric_mbps(1 + (g as u64 % 19), SimDuration::from_millis(5));
        let sink = sim.reserve_id(4);
        for k in 0..4 {
            let bytes = 10_000 + ((g * 4 + k) * 7_919 % 90_000) as u64;
            payloads.push(bytes);
            expected_total += bytes;
            *group_total += bytes;
            sim.add_node(Blast { sink, bytes }, link);
        }
        sim.add_node(Sink, link);
        if g % 5 == 0 {
            sim.schedule_fault(
                SimTime::from_micros(50_000),
                Fault::DegradeLink {
                    node: sink,
                    up_bps: 1_234_567.0,
                    down_bps: 1_234_567.0,
                },
            );
        }
    }
    sim.run();

    let trace = sim.trace();
    assert_eq!(trace.total_bytes_sent(), expected_total);
    assert_eq!(trace.total_bytes_received(), expected_total);
    assert_eq!(trace.count(net::FLOW_TORN_INBOUND), 0);
    assert_eq!(trace.count(net::FLOW_TORN_OUTBOUND), 0);
    assert_eq!(trace.count(net::FLOW_UNDELIVERED), 0);
    for g in 0..GROUPS {
        let sink = NodeId(g * 5 + 4);
        assert_eq!(
            trace.bytes_received(sink),
            group_bytes[g],
            "sink {g} ledger not exact"
        );
        for k in 0..4 {
            let sender = NodeId(g * 5 + k);
            assert_eq!(trace.bytes_sent(sender), payloads[g * 4 + k]);
        }
    }
}

#[test]
fn churn_wasted_bytes_regression() {
    // Pins the wasted-byte accounting for the standard churn point
    // (outage 4 s, period 10 s, churn seed 42 — the same point
    // `examples/availability.rs` and EXPERIMENTS.md report). The
    // simulation is deterministic, so any change to this value means the
    // byte accounting (or the protocol's retry behavior) changed and the
    // recorded tables must be regenerated.
    let point = dfl_bench::churn_run(SimDuration::from_secs(4), SimDuration::from_secs(10), 42);
    assert_eq!(point.completed_rounds, point.rounds);
    assert_eq!(
        point.wire_wasted_bytes, 628_849,
        "churn wire waste drifted from the pinned artifact value"
    );
    assert_eq!(point.wasted_bytes, point.wire_wasted_bytes);
    assert!(point.total_tx_bytes > point.wire_wasted_bytes);
}
