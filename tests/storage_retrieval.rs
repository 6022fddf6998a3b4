//! One storage node's retrieval, driven through `IpfsNode`'s public API
//! only: a late `Providers` reply must not fetch a block twice, and a dead
//! provider is retried, failed over from and retracted. (The node's own
//! unit tests are not in tier-1; these are.)

use bytes::Bytes;
use decentralized_fl::ipfs::node::stats;
use decentralized_fl::ipfs::{Cid, IpfsNode, IpfsWire, Outgoing};
use decentralized_fl::netsim::NodeId;

const CLIENT: NodeId = NodeId(100);

fn network(n: usize) -> Vec<IpfsNode> {
    let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
    let roster = IpfsNode::roster_for(&ids);
    ids.iter()
        .map(|&id| IpfsNode::new(id, roster.clone()))
        .collect()
}

/// Delivers `sent` (from `from`) and everything it causes, expiring armed
/// timeouts oldest first whenever the network is quiet, while `down` nodes
/// drop what is sent to them. Returns what reached non-node ids.
fn pump(
    nodes: &mut [IpfsNode],
    from: NodeId,
    sent: Vec<Outgoing>,
    down: &[NodeId],
) -> Vec<(NodeId, IpfsWire)> {
    let mut queue: Vec<(NodeId, Outgoing)> = sent.into_iter().map(|o| (from, o)).collect();
    let mut armed: Vec<(usize, u64)> = Vec::new();
    let mut to_clients = Vec::new();
    for _ in 0..10_000 {
        while let Some((from, out)) = queue.pop() {
            let idx = out.to.index();
            if down.contains(&out.to) {
                continue;
            } else if idx < nodes.len() {
                let produced = nodes[idx].handle(from, out.wire);
                queue.extend(produced.into_iter().map(|o| (out.to, o)));
            } else {
                to_clients.push((out.to, out.wire));
            }
        }
        for (idx, node) in nodes.iter_mut().enumerate() {
            armed.extend(
                node.take_timer_requests()
                    .into_iter()
                    .map(|(t, _)| (idx, t)),
            );
        }
        if armed.is_empty() {
            return to_clients;
        }
        let (idx, token) = armed.remove(0);
        let produced = nodes[idx].on_timeout(token);
        queue.extend(produced.into_iter().map(|o| (NodeId(idx), o)));
    }
    panic!("the network did not quiesce");
}

fn stat(node: &mut IpfsNode, label: &str) -> u64 {
    let drained = node.take_stats().into_iter();
    drained.filter(|(l, _)| *l == label).map(|(_, d)| d).sum()
}

/// Regression: a `FindProviders` that timed out and was retried is
/// answered twice. The first answer starts the fetch; the second used to
/// tear that fetch down and start it again, so a second `FetchBlock` went
/// to the same provider and the whole block crossed the network twice.
#[test]
fn a_late_providers_reply_does_not_fetch_the_block_twice() {
    let mut nodes = network(4);
    let asker = &mut nodes[0];
    let cid = Cid::of(b"wanted");
    let lookup = asker.handle(CLIENT, IpfsWire::Get { cid, req_id: 1 });
    let [Outgoing {
        to: holder,
        wire: IpfsWire::FindProviders { req_id, .. },
    }] = lookup[..]
    else {
        panic!("a miss with no local record asks a record holder: {lookup:?}");
    };
    let timers = asker.take_timer_requests();
    assert_eq!(timers.len(), 1);
    let retry = asker.on_timeout(timers[0].0);
    assert!(
        matches!(&retry[..], [Outgoing { to, wire: IpfsWire::FindProviders { .. } }] if *to == holder),
        "the lookup is retried on the same holder: {retry:?}"
    );

    let provider = (1..4).map(NodeId).find(|n| *n != holder).unwrap();
    let reply = IpfsWire::Providers {
        cid,
        providers: vec![provider],
        req_id,
    };
    let first = asker.handle(holder, reply.clone());
    let second = asker.handle(holder, reply);
    let fetches = (first.iter().chain(&second))
        .filter(|o| matches!(o.wire, IpfsWire::FetchBlock { .. }))
        .count();
    assert_eq!(fetches, 1, "first {first:?}, second {second:?}");
    assert!(second.is_empty());
    assert_eq!(stat(asker, stats::STALE_REPLIES), 1);
}

/// The provider listed first in every record (node 0) is dead and a live
/// replica (node 3) is listed second: the retrieval times out on node 0,
/// retries it, gives up, retracts it from the records and succeeds via
/// node 3. Mirrors the node's unit test of the same path.
#[test]
fn a_dead_provider_is_retried_failed_over_and_retracted() {
    let mut nodes = network(4);
    let data = Bytes::from_static(b"resilient");
    let cid = Cid::of(&data);
    // Node 0 stores first, so every record lists it ahead of node 3.
    for id in [NodeId(0), NodeId(3)] {
        let announced = nodes[id.index()].handle(id, IpfsWire::Replicate { data: data.clone() });
        pump(&mut nodes, id, announced, &[]);
    }

    let down = [NodeId(0)];
    let asker = NodeId(1);
    let get = nodes[asker.index()].handle(CLIENT, IpfsWire::Get { cid, req_id: 2 });
    let replies = pump(&mut nodes, asker, get, &down);
    match &replies[..] {
        [(
            to,
            IpfsWire::GetOk {
                cid: got, data: d, ..
            },
        )] => {
            assert_eq!((*to, *got, d), (CLIENT, cid, &data));
        }
        other => panic!("expected failover GetOk, got {other:?}"),
    }
    assert!(stat(&mut nodes[asker.index()], stats::RETRIES) >= 1);

    // Every surviving record dropped the dead provider and kept the
    // replica, so the next retrieval goes straight to node 3.
    let mut records = 0;
    for node in nodes.iter_mut().filter(|n| !down.contains(&n.id())) {
        let id = node.id();
        let answer = node.handle(CLIENT, IpfsWire::FindProviders { cid, req_id: 0 });
        let [Outgoing {
            wire: IpfsWire::Providers { providers, .. },
            ..
        }] = &answer[..]
        else {
            panic!("FindProviders is answered with Providers: {answer:?}");
        };
        if !providers.is_empty() {
            records += 1;
            assert!(
                !providers.contains(&NodeId(0)),
                "{id} lists the dead provider"
            );
            assert!(
                providers.contains(&NodeId(3)),
                "the replica vanished from {id}"
            );
        }
    }
    assert!(records > 0, "some live node holds the record");
}
