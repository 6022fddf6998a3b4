//! Integration tests of the storage layer running over the network
//! simulator: transfer timing, cross-node retrieval, merge-and-download,
//! and pub/sub — the exact substrate behaviours the protocol's delays are
//! built from.

use bytes::Bytes;
use decentralized_fl::ipfs::{Cid, IpfsNode, IpfsWire, WireCost};
use decentralized_fl::netsim::{Actor, Context, LinkSpec, NodeId, SimDuration, Simulation};
use decentralized_fl::protocol::protocol::{IpfsCore, NetsimAdapter};

/// A scripted storage client: performs a sequence of operations, records a
/// trace milestone when each completes.
struct Client {
    script: Vec<IpfsWire>,
    target: NodeId,
    cursor: usize,
    start_delay: SimDuration,
}

impl Client {
    fn new(target: NodeId, script: Vec<IpfsWire>) -> Client {
        Client {
            script,
            target,
            cursor: 0,
            start_delay: SimDuration::ZERO,
        }
    }

    fn delayed(target: NodeId, script: Vec<IpfsWire>, delay: SimDuration) -> Client {
        Client {
            script,
            target,
            cursor: 0,
            start_delay: delay,
        }
    }

    fn step(&mut self, ctx: &mut Context<'_, IpfsWire>) {
        if let Some(op) = self.script.get(self.cursor) {
            let op = op.clone();
            ctx.send(self.target, op.wire_bytes(), op);
        }
    }
}

impl Actor<IpfsWire> for Client {
    fn on_start(&mut self, ctx: &mut Context<'_, IpfsWire>) {
        if self.start_delay == SimDuration::ZERO {
            self.step(ctx);
        } else {
            ctx.set_timer(self.start_delay, 0);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, IpfsWire>, _token: u64) {
        self.step(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, IpfsWire>, _from: NodeId, msg: IpfsWire) {
        match msg {
            IpfsWire::PutAck { .. } => ctx.record("put_ack", ctx.now().as_secs_f64()),
            IpfsWire::GetOk { data, .. } => {
                ctx.record("get_ok", ctx.now().as_secs_f64());
                ctx.record("get_len", data.len() as f64);
            }
            IpfsWire::GetErr { .. } => ctx.record("get_err", ctx.now().as_secs_f64()),
            IpfsWire::MergeOk { .. } => ctx.record("merge_ok", ctx.now().as_secs_f64()),
            IpfsWire::Deliver { .. } => ctx.record("deliver", ctx.now().as_secs_f64()),
            _ => return,
        }
        self.cursor += 1;
        self.step(ctx);
    }
}

fn build(n_nodes: usize, mbps: u64) -> (Simulation<IpfsWire>, Vec<NodeId>) {
    let mut sim = Simulation::new();
    let link = LinkSpec::symmetric_mbps(mbps, SimDuration::from_millis(5));
    let ids: Vec<NodeId> = (0..n_nodes).map(NodeId).collect();
    let roster = IpfsNode::roster_for(&ids);
    for id in &ids {
        let node = IpfsNode::new(*id, roster.clone());
        let added = sim.add_node(NetsimAdapter::new(IpfsCore::new(node)), link);
        assert_eq!(added, *id);
    }
    (sim, ids)
}

#[test]
fn put_timing_matches_bandwidth() {
    // 1.25 MB to a node over 10 Mbps ≈ 1 s + latency.
    let (mut sim, _) = build(2, 10);
    let data = Bytes::from(vec![7u8; 1_250_000]);
    let link = LinkSpec::symmetric_mbps(10, SimDuration::from_millis(5));
    let client = sim.add_node(
        Client::new(
            NodeId(0),
            vec![IpfsWire::Put {
                data,
                req_id: 1,
                replicate: 1,
            }],
        ),
        link,
    );
    sim.run();
    let acks = sim.trace().find(client, "put_ack");
    assert_eq!(acks.len(), 1);
    let t = acks[0].value;
    assert!((1.0..1.2).contains(&t), "put ack at {t}s");
}

#[test]
fn cross_node_get_pays_two_transfers() {
    // Block stored on node 0; fetched via node 1 after the put settles:
    // node 1 must pull the block from node 0 and then serve it, so the
    // Get pays roughly two 0.5 s transfers.
    let (mut sim, _) = build(4, 10);
    let data = Bytes::from(vec![9u8; 625_000]); // 0.5 s per hop at 10 Mbps
    let cid = Cid::of(&data);
    let link = LinkSpec::symmetric_mbps(10, SimDuration::from_millis(5));
    let writer = sim.add_node(
        Client::new(
            NodeId(0),
            vec![IpfsWire::Put {
                data,
                req_id: 1,
                replicate: 1,
            }],
        ),
        link,
    );
    let reader = sim.add_node(
        Client::delayed(
            NodeId(1),
            vec![IpfsWire::Get { cid, req_id: 2 }],
            SimDuration::from_secs(2),
        ),
        link,
    );
    sim.run();
    assert_eq!(sim.trace().find(writer, "put_ack").len(), 1);
    let got = sim.trace().find(reader, "get_ok");
    assert_eq!(got.len(), 1, "cross-node get must succeed");
    assert_eq!(sim.trace().find(reader, "get_len")[0].value, 625_000.0);
    let elapsed = got[0].value - 2.0;
    assert!(
        (0.9..1.5).contains(&elapsed),
        "relay get should take ≈2 transfers, took {elapsed}s"
    );
}

#[test]
fn merge_returns_one_blob_for_many() {
    use decentralized_fl::crypto::quantize::{encode, quantize_vector};
    let (mut sim, _) = build(3, 10);
    let link = LinkSpec::symmetric_mbps(10, SimDuration::from_millis(5));
    let blobs: Vec<Bytes> = (0..4)
        .map(|i| Bytes::from(encode(&quantize_vector(&vec![i as f32; 50_000]))))
        .collect();
    let cids: Vec<Cid> = blobs.iter().map(|b| Cid::of(b)).collect();
    let mut script: Vec<IpfsWire> = blobs
        .into_iter()
        .enumerate()
        .map(|(i, data)| IpfsWire::Put {
            data,
            req_id: i as u64,
            replicate: 1,
        })
        .collect();
    script.push(IpfsWire::Merge { cids, req_id: 99 });
    let client = sim.add_node(Client::new(NodeId(0), script), link);
    sim.run();
    assert_eq!(sim.trace().find(client, "merge_ok").len(), 1);
    // The merged response is one blob (~400 KB), not four.
    let rx = sim.trace().bytes_received(client);
    assert!(
        rx < 450_000,
        "client received {rx} bytes; merge should return one blob"
    );
}

#[test]
fn pubsub_delivery_over_network() {
    struct Subscriber {
        gateway: NodeId,
    }
    impl Actor<IpfsWire> for Subscriber {
        fn on_start(&mut self, ctx: &mut Context<'_, IpfsWire>) {
            let sub = IpfsWire::Subscribe {
                topic: "updates".into(),
            };
            ctx.send(self.gateway, sub.wire_bytes(), sub);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, IpfsWire>, _f: NodeId, msg: IpfsWire) {
            if let IpfsWire::Deliver { data, .. } = msg {
                ctx.record("delivered", data.len() as f64);
            }
        }
    }

    let (mut sim, _) = build(3, 10);
    let link = LinkSpec::symmetric_mbps(10, SimDuration::from_millis(5));
    // Subscribers on two different gateways.
    let sub_a = sim.add_node(Subscriber { gateway: NodeId(0) }, link);
    let sub_b = sim.add_node(Subscriber { gateway: NodeId(2) }, link);

    struct Publisher {
        gateway: NodeId,
    }
    impl Actor<IpfsWire> for Publisher {
        fn on_start(&mut self, ctx: &mut Context<'_, IpfsWire>) {
            // Give subscriptions a head start.
            ctx.set_timer(SimDuration::from_millis(200), 1);
        }
        fn on_message(&mut self, _c: &mut Context<'_, IpfsWire>, _f: NodeId, _m: IpfsWire) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, IpfsWire>, _t: u64) {
            let publish = IpfsWire::Publish {
                topic: "updates".into(),
                data: Bytes::from_static(b"partial-update-hash"),
            };
            ctx.send(self.gateway, publish.wire_bytes(), publish);
        }
    }
    sim.add_node(Publisher { gateway: NodeId(1) }, link);
    sim.run();

    assert_eq!(
        sim.trace().find(sub_a, "delivered").len(),
        1,
        "flood reached gateway 0"
    );
    assert_eq!(
        sim.trace().find(sub_b, "delivered").len(),
        1,
        "flood reached gateway 2"
    );
}

#[test]
fn replicated_put_is_slower_but_bounded() {
    // Pushing replicas costs extra uplink on the storage node, not on the
    // client: the client's ack time should be identical, while total bytes
    // moved grow with the replication factor.
    let mut ack_times = Vec::new();
    let mut node_tx = Vec::new();
    for replicate in [1usize, 3] {
        let (mut sim, _) = build(4, 10);
        let link = LinkSpec::symmetric_mbps(10, SimDuration::from_millis(5));
        let data = Bytes::from(vec![3u8; 500_000]);
        let client = sim.add_node(
            Client::new(
                NodeId(0),
                vec![IpfsWire::Put {
                    data,
                    req_id: 1,
                    replicate,
                }],
            ),
            link,
        );
        sim.run();
        ack_times.push(sim.trace().find(client, "put_ack")[0].value);
        node_tx.push(sim.trace().bytes_sent(NodeId(0)));
    }
    assert!(
        (ack_times[0] - ack_times[1]).abs() < 0.2,
        "ack times {ack_times:?}"
    );
    assert!(
        node_tx[1] > node_tx[0] + 900_000,
        "replication must push ≈2 extra copies: {node_tx:?}"
    );
}
