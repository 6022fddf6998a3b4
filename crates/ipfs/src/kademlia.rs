//! Kademlia-style XOR-metric routing for provider records.
//!
//! IPFS locates content through a Kademlia DHT: provider records for a CID
//! are stored on the nodes whose keys are XOR-closest to the CID. This
//! module implements the metric and that placement rule; the networked
//! storage layer ([`crate::node`]) knows the whole roster, so
//! [`closest_nodes`] is all the routing it needs for provider placement
//! and record retrieval.

use dfl_crypto::bigint::U256;
use dfl_crypto::sha256::Sha256;
use dfl_netsim::NodeId;

/// A 256-bit DHT key (node identity or content coordinate).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Key(U256);

impl Key {
    /// Derives a node's key from its simulation id (hash of the id, so keys
    /// spread uniformly regardless of how ids were assigned).
    pub fn for_node(id: NodeId) -> Key {
        let mut h = Sha256::new();
        h.update(b"dfl-ipfs-node-key");
        h.update(&(id.index() as u64).to_be_bytes());
        Key(U256::from_be_bytes(h.finalize()))
    }

    /// Wraps a raw 256-bit value (e.g. a CID digest).
    pub const fn from_u256(v: U256) -> Key {
        Key(v)
    }

    /// XOR distance to another key.
    pub fn distance(&self, other: &Key) -> U256 {
        self.0.xor(&other.0)
    }
}

/// Selects the `n` nodes from `nodes` whose keys are closest to `target` —
/// the provider-record placement rule (and the §VI "uniform allocation of
/// gradients to nodes based on the hash" suggestion).
pub fn closest_nodes(nodes: &[(NodeId, Key)], target: &Key, n: usize) -> Vec<NodeId> {
    let mut sorted: Vec<(NodeId, Key)> = nodes.to_vec();
    sorted.sort_by_key(|(_, k)| k.distance(target));
    sorted.into_iter().take(n).map(|(id, _)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn keys(n: usize) -> Vec<(NodeId, Key)> {
        (0..n)
            .map(|i| (NodeId(i), Key::for_node(NodeId(i))))
            .collect()
    }

    #[test]
    fn distance_metric_axioms() {
        let a = Key::for_node(NodeId(1));
        let b = Key::for_node(NodeId(2));
        let c = Key::for_node(NodeId(3));
        assert!(a.distance(&a).is_zero());
        assert_eq!(a.distance(&b), b.distance(&a));
        // XOR triangle equality: d(a,c) = d(a,b) XOR d(b,c).
        assert_eq!(a.distance(&c), a.distance(&b).xor(&b.distance(&c)));
    }

    #[test]
    fn node_keys_are_distinct_and_spread() {
        let ks = keys(64);
        let unique: HashSet<_> = ks.iter().map(|(_, k)| *k).collect();
        assert_eq!(unique.len(), 64);
    }

    #[test]
    fn closest_nodes_sorted_by_distance() {
        let nodes = keys(16);
        let target = Key::from_u256(dfl_crypto::bigint::U256::from_u64(0xABCD));
        let picked = closest_nodes(&nodes, &target, 4);
        assert_eq!(picked.len(), 4);
        // Verify they really are the 4 closest.
        let mut all: Vec<_> = nodes
            .iter()
            .map(|(id, k)| (k.distance(&target), *id))
            .collect();
        all.sort();
        let expect: Vec<NodeId> = all.into_iter().take(4).map(|(_, id)| id).collect();
        assert_eq!(picked, expect);
    }

    proptest! {
        #[test]
        fn prop_closest_nodes_deterministic_and_bounded(
            n in 1usize..32,
            take in 1usize..8,
            seed in any::<u64>(),
        ) {
            let nodes = keys(n);
            let target = Key::from_u256(dfl_crypto::bigint::U256::from_u64(seed));
            let a = closest_nodes(&nodes, &target, take);
            let b = closest_nodes(&nodes, &target, take);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a.len(), take.min(n));
        }
    }
}
