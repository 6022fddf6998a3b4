//! # dfl-ipfs
//!
//! A simulated decentralized storage network standing in for IPFS — the
//! indirect-communication substrate the modified IPLS protocol runs on
//! (§III of the paper).
//!
//! The protocol only relies on a small slice of IPFS, and this crate builds
//! exactly that slice, from scratch, over the [`dfl_netsim`] simulator:
//!
//! * [`cid`] / [`block`] — SHA-256 content addressing, integrity-checked
//!   blocks, a pinning block store.
//! * [`kademlia`] — XOR-metric keys and closest-node selection; used for
//!   provider-record placement and uniform replica allocation.
//! * [`node`] — the networked storage node: put/get with cross-node
//!   resolution, replication, flood pub/sub, and the paper's
//!   **merge-and-download** pre-aggregation RPC (§III-E).
//! * [`merge`] — the pre-aggregation computation itself, shared between
//!   storage nodes and tests.
//! * [`wire`] — the wire schema: the [`WireCost`] trait, its field
//!   primitives, and the table macro that derives each message enum's
//!   encoder, decoder and simulated cost from one per-variant row.
//!
//! A [`Block`] is hashed wherever its bytes enter a process (in the
//! simulator, on a spare core while they travel:
//! [`block::hash_in_flight`]), and a retrieval takes one only under the
//! CID it asked for: the storage network is assumed available but never
//! trusted for correctness (§III-A).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod block;
pub mod chunker;
pub mod cid;
pub mod kademlia;
pub mod merge;
pub mod node;
pub mod wire;

pub use block::{Block, BlockStore};
pub use cid::Cid;
pub use kademlia::Key;
pub use node::{CarriesBlock, IpfsNode, IpfsWire, Outgoing, RetryPolicy, Topic, WireEmbed};
pub use wire::{DecodeError, WireCost, TRANSPORT_OVERHEAD_BYTES};
