//! The networked storage node: put/get by CID, provider routing,
//! replication, flood pub/sub, and the merge-and-download RPC.
//!
//! [`IpfsNode`] is a pure state machine: [`IpfsNode::handle`] consumes one
//! wire message and returns the messages to send in response, so it can be
//! unit-tested without a simulator and embedded into any message type via
//! the [`WireEmbed`] trait. `ipls::protocol::IpfsCore` is the wrapper that
//! drives one on either backend.
//!
//! Protocol participants talk to an assigned node (their *gateway*):
//!
//! * **Put** — the gateway stores the block, announces a provider record on
//!   the XOR-closest nodes, optionally pushes replicas (uniformly allocated
//!   by CID, the §VI availability suggestion), and acks with the CID.
//! * **Get** — served locally when possible; otherwise the gateway resolves
//!   a provider through the record holders, fetches the block node-to-node,
//!   caches it, and responds. A fetched block is taken only if its CID is
//!   the one asked for, and a block's CID is always its bytes' hash
//!   (hashed once per process: by the node that stored it, or by the
//!   decoder where its bytes came off a socket): the storage network is
//!   trusted for availability, never for correctness.
//!   The client's `Release` drops the cached copy once it is done with it,
//!   or keeps a fetch still in flight from caching one.
//! * **Merge** — the §III-E pre-aggregation: sum a set of stored gradient
//!   blobs and return one blob.
//! * **Subscribe/Publish** — flood pub/sub used by aggregators to exchange
//!   partial-update hashes during synchronization (§IV-B).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};

use bytes::Bytes;

use dfl_netsim::{NodeId, SimDuration};

use crate::block::{Block, BlockStore};
use crate::cid::Cid;
use crate::kademlia::{closest_nodes, Key};
use crate::merge::merge_blobs;

/// Number of nodes that hold the provider record for each CID.
pub const RECORD_REPLICAS: usize = 2;

/// Client-side retry/failover policy for node-to-node requests
/// (provider-record lookups and block fetches).
///
/// A request leg that receives no reply within its timeout is retried
/// against the same peer with the timeout doubled; after
/// [`RetryPolicy::attempts_per_peer`] attempts the peer is declared dead,
/// its provider record is retracted (so records self-heal), and the
/// request fails over to the next untried peer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Timeout of the first attempt of each request leg. Must comfortably
    /// exceed the worst-case transfer time of a block under contention —
    /// a premature timeout wastes bandwidth on duplicate fetches.
    pub base_timeout: SimDuration,
    /// Attempts per peer (including the first) before failing over.
    pub attempts_per_peer: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base_timeout: SimDuration::from_secs(30),
            attempts_per_peer: 2,
        }
    }
}

/// A pub/sub topic name.
pub type Topic = String;

/// The storage layer's wire table: every [`IpfsWire`] variant declared
/// once — tag, then fields in wire order. Hands the table to the macro
/// named by its argument: [`wire_enum!`](crate::wire_enum) below turns it
/// into the enum and its [`WireCost`](crate::wire::WireCost) impl; the
/// wire-schema test suite turns the same rows into per-variant samples.
#[macro_export]
macro_rules! ipfs_wire_schema {
    ($($callback:tt)+) => {
        $($callback)+! {
            /// Wire messages of the storage layer.
            #[derive(Clone, Debug)]
            pub enum IpfsWire {
                // -- client → node ------------------------------------------
                /// Store `data`; push `replicate` total copies (1 = local only).
                0 => Put { data: Bytes, req_id: u64, replicate: usize },
                /// Retrieve the block with this CID.
                1 => Get { cid: Cid, req_id: u64 },
                /// Merge-and-download: return the element-wise sum of these
                /// gradient blobs (§III-E).
                2 => Merge { cids: Vec<Cid>, req_id: u64 },
                /// Release the sender's pin on a block (and its replicas);
                /// unpinned blocks are garbage-collected. Ephemeral FL data —
                /// gradients and updates — is only needed for one round (§VI).
                3 => Unpin {
                    /// Block to unpin.
                    cid: Cid,
                    /// The replication factor it was stored with, so replica
                    /// pins are released too.
                    replicate: usize,
                },
                /// The sender is done with a block it fetched through this
                /// node: the cached copy goes unless it is pinned. A cached
                /// copy was never announced, so nothing is retracted.
                22 => Release { cid: Cid },
                /// Subscribe the sender to a topic.
                4 => Subscribe { topic: Topic },
                /// Publish to a topic (flooded to all nodes' subscribers).
                5 => Publish { topic: Topic, data: Bytes },

                // -- node → client ------------------------------------------
                /// Put acknowledged; the data's CID.
                6 => PutAck { cid: Cid, req_id: u64 },
                /// Get succeeded.
                7 => GetOk { cid: Cid, data: Bytes, req_id: u64 },
                /// Get failed (no provider reachable).
                8 => GetErr { cid: Cid, req_id: u64 },
                /// Merge succeeded.
                9 => MergeOk { data: Bytes, req_id: u64 },
                /// Merge failed.
                10 => MergeErr { reason: String, req_id: u64 },
                /// A published message on a subscribed topic.
                11 => Deliver { topic: Topic, data: Bytes, publisher: NodeId },

                // -- node ↔ node --------------------------------------------
                // Retry/failover control traffic (`FindProviders`, `FetchErr`,
                // `Retract`) is encoded — and so charged — like the happy
                // path: failure handling shows up honestly in the byte ledger.
                /// Ask a record holder who provides `cid`.
                12 => FindProviders { cid: Cid, req_id: u64 },
                /// Provider-record response.
                13 => Providers { cid: Cid, providers: Vec<NodeId>, req_id: u64 },
                /// Register `provider` as holding `cid` (sent to record holders).
                14 => Announce { cid: Cid, provider: NodeId },
                /// Fetch a block node-to-node.
                15 => FetchBlock { cid: Cid, req_id: u64 },
                /// Fetch response: the block, hashed where it was made.
                16 => FetchOk { block: Block, req_id: u64 },
                /// Fetch failed (block not held).
                17 => FetchErr { cid: Cid, req_id: u64 },
                /// Push a replica of a block.
                18 => Replicate { data: Bytes },
                /// Remove `provider` from the record for `cid` (block was dropped).
                19 => Retract { cid: Cid, provider: NodeId },
                /// Release a replica pin.
                20 => UnpinReplica { cid: Cid },
                /// Flooded publish.
                21 => PubGossip { topic: Topic, data: Bytes, publisher: NodeId },
            }
        }
    };
}
ipfs_wire_schema!(crate::wire_enum);

/// Embedding of [`IpfsWire`] into a larger application message type, so the
/// same node logic runs inside any simulation message enum.
pub trait WireEmbed: Sized {
    /// Wraps a storage message.
    fn embed(wire: IpfsWire) -> Self;
    /// Unwraps, or returns the original message when it is not a storage
    /// message.
    fn extract(self) -> Result<IpfsWire, Self>;
}

impl WireEmbed for IpfsWire {
    fn embed(wire: IpfsWire) -> Self {
        wire
    }
    fn extract(self) -> Result<IpfsWire, Self> {
        Ok(self)
    }
}

/// A message type a simulator looks into for the bytes of a block on its
/// way to a storage node, to start their hash while they travel
/// ([`hash_in_flight`](crate::block::hash_in_flight)).
pub trait CarriesBlock {
    /// The bytes of a client's `Put`, which the receiving node makes a
    /// [`Block`] of; `None` for any other message. A `Replicate` carries
    /// bytes its sender has just hashed, and is hashed by its receiver.
    fn block_bytes(&self) -> Option<&Bytes> {
        None
    }
}

impl CarriesBlock for IpfsWire {
    fn block_bytes(&self) -> Option<&Bytes> {
        match self {
            IpfsWire::Put { data, .. } => Some(data),
            _ => None,
        }
    }
}

/// An outgoing message produced by [`IpfsNode::handle`].
#[derive(Clone, Debug)]
pub struct Outgoing {
    /// Destination node.
    pub to: NodeId,
    /// The message.
    pub wire: IpfsWire,
}

/// What an in-flight retrieval is for.
#[derive(Debug)]
enum Purpose {
    /// A client `Get`: the block goes back to the client.
    Get { client: NodeId, client_req: u64 },
    /// A block the merge with this id is missing.
    Merge(u64),
}

/// Which reply an in-flight retrieval is waiting for.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Leg {
    /// `Providers` from a record holder.
    Resolve,
    /// `FetchOk` from a provider.
    Fetch,
}

/// One in-flight retrieval of a block this node does not hold, keyed by
/// its request id: what it is for, and its timeout / retry / failover
/// state. While it exists, `peers` is non-empty.
#[derive(Debug)]
struct Retrieval {
    purpose: Purpose,
    cid: Cid,
    leg: Leg,
    /// The leg's candidates in order: the first is the peer being waited
    /// on, the rest are failover targets.
    peers: VecDeque<NodeId>,
    /// Retries already spent on the current peer (0 = first attempt).
    attempt: u32,
    /// Timeouts armed so far; only the latest is live ([`timer_token`]).
    armed: u32,
    /// A client `Get` whose block was released while it was in flight: the
    /// block still goes back to the client, but is not cached.
    released: bool,
}

/// The token of retrieval `id`'s `armed`-th timeout: the id in the high
/// half, the arming in the low half, so an expiry names its retrieval and
/// a superseded arming is recognisably stale.
fn timer_token(id: u64, armed: u32) -> u64 {
    (id << 32) | u64::from(armed)
}

/// An in-progress merge waiting for missing blocks.
#[derive(Debug)]
struct PendingMerge {
    client: NodeId,
    client_req: u64,
    cids: Vec<Cid>,
    missing: HashSet<Cid>,
    /// Blocks fetched for this merge, buffered here so the merge works
    /// even on a node whose store is failing (lossy).
    fetched: HashMap<Cid, Bytes>,
    failed: bool,
}

/// State of one storage node.
pub struct IpfsNode {
    id: NodeId,
    /// All storage nodes in the network (including self), with DHT keys.
    roster: Vec<(NodeId, Key)>,
    store: BlockStore,
    /// Provider records this node holds (as a record holder for the CID).
    records: HashMap<Cid, Vec<NodeId>>,
    /// Local subscriptions: topic → participant node ids.
    subs: HashMap<Topic, HashSet<NodeId>>,
    /// In-flight retrievals by request id.
    retrievals: HashMap<u64, Retrieval>,
    merges: HashMap<u64, PendingMerge>,
    next_req: u64,
    policy: RetryPolicy,
    /// Timeouts requested but not yet armed; the hosting actor drains
    /// these with [`IpfsNode::take_timer_requests`] and arms real timers.
    timer_requests: Vec<(u64, SimDuration)>,
    /// A lossy node acknowledges writes but keeps nothing (a failing
    /// disk; set by a `LoseWrites` fault).
    lossy: bool,
    /// Counter bumps not yet drained into a trace (see [`stats`]). The
    /// hosting actor drains with [`IpfsNode::take_stats`] after every
    /// `handle`/`on_timeout`.
    stat_pending: Vec<(&'static str, u64)>,
}

/// Trace counter labels bumped by [`IpfsNode`] and drained into the shared
/// [`Trace`](dfl_netsim::Trace) by `ipls::protocol::IpfsCore`
/// (`Trace::counter(label)` reads them back after a run).
pub mod stats {
    /// Provider-record lookups started for a block not held locally.
    pub const PROVIDER_LOOKUPS: &str = "ipfs/provider_lookups";
    /// `Get` requests served straight from the local block store.
    pub const CACHE_HITS: &str = "ipfs/cache_hits";
    /// `Get` requests that required remote retrieval.
    pub const CACHE_MISSES: &str = "ipfs/cache_misses";
    /// `Merge` RPCs received.
    pub const MERGE_RPCS: &str = "ipfs/merge_rpcs";
    /// Blocks a merge had to retrieve from other providers.
    pub const MERGE_REMOTE_FETCHES: &str = "ipfs/merge_remote_fetches";
    /// Same-peer retransmissions after a timeout (backoff retries).
    pub const RETRIES: &str = "ipfs/retries";
    /// Failovers to the next provider / record holder.
    pub const FAILOVERS: &str = "ipfs/failovers";
    /// Provider records withdrawn after a peer failed to serve a block.
    pub const RETRACTIONS: &str = "ipfs/retractions";
    /// Retrievals that exhausted every candidate and failed.
    pub const FETCH_FAILURES: &str = "ipfs/fetch_failures";
    /// `Providers` replies naming a request this node is not resolving
    /// (forged, or late: the retrieval already fetches or is done) —
    /// booked and dropped.
    pub const STALE_REPLIES: &str = "ipfs/stale_replies";
    /// Messages a storage node has no handler for (client-facing
    /// responses misrouted to a node) — booked and dropped.
    pub const UNEXPECTED_MESSAGES: &str = "ipfs/unexpected_messages";

    /// Every counter above: what a storage node may put in a trace.
    pub const ALL: &[&str] = &[
        PROVIDER_LOOKUPS,
        CACHE_HITS,
        CACHE_MISSES,
        MERGE_RPCS,
        MERGE_REMOTE_FETCHES,
        RETRIES,
        FAILOVERS,
        RETRACTIONS,
        FETCH_FAILURES,
        STALE_REPLIES,
        UNEXPECTED_MESSAGES,
    ];
}

impl IpfsNode {
    /// Creates a node with the given id and full network roster.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not present in `roster`.
    pub fn new(id: NodeId, roster: Vec<(NodeId, Key)>) -> IpfsNode {
        assert!(
            roster.iter().any(|(n, _)| *n == id),
            "node must appear in roster"
        );
        IpfsNode {
            id,
            roster,
            store: BlockStore::new(),
            records: HashMap::new(),
            subs: HashMap::new(),
            retrievals: HashMap::new(),
            merges: HashMap::new(),
            next_req: 0,
            policy: RetryPolicy::default(),
            timer_requests: Vec::new(),
            lossy: false,
            stat_pending: Vec::new(),
        }
    }

    /// Builds the roster for a set of node ids (keys derived from ids).
    pub fn roster_for(ids: &[NodeId]) -> Vec<(NodeId, Key)> {
        ids.iter().map(|&id| (id, Key::for_node(id))).collect()
    }

    /// Makes the node acknowledge writes without keeping them (the
    /// `Fault::LoseWrites` hook).
    pub fn set_lossy(&mut self, lossy: bool) {
        self.lossy = lossy;
    }

    /// Overrides the retry/failover policy (defaults to
    /// [`RetryPolicy::default`]).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        assert!(
            policy.attempts_per_peer > 0,
            "at least one attempt per peer"
        );
        assert!(
            policy.base_timeout > SimDuration::ZERO,
            "timeout must be positive"
        );
        self.policy = policy;
    }

    /// Drains the timeouts this node wants armed, as `(token, delay)`
    /// pairs. The hosting actor must arm a timer per entry and route its
    /// expiry back into [`IpfsNode::on_timeout`]. `ipls::protocol::IpfsCore`
    /// calls it after every `handle`/`on_timeout`.
    pub fn take_timer_requests(&mut self) -> Vec<(u64, SimDuration)> {
        std::mem::take(&mut self.timer_requests)
    }

    fn bump(&mut self, label: &'static str) {
        self.stat_pending.push((label, 1));
    }

    fn bump_by(&mut self, label: &'static str, delta: u64) {
        if delta > 0 {
            self.stat_pending.push((label, delta));
        }
    }

    /// Drains the counter bumps accumulated since the last drain, as
    /// `(label, delta)` pairs (labels from [`stats`]). The hosting actor
    /// adds them to the run's trace counters.
    pub fn take_stats(&mut self) -> Vec<(&'static str, u64)> {
        std::mem::take(&mut self.stat_pending)
    }

    /// Drops all volatile request state — in-flight retrievals, merges, and
    /// timeout bookkeeping — as a crash would. Stored blocks, provider
    /// records, and subscriptions survive (they model durable state).
    pub fn drop_volatile_state(&mut self) {
        self.retrievals.clear();
        self.merges.clear();
        self.timer_requests.clear();
    }

    /// Silently discards every stored block (durable data loss). Provider
    /// records survive, so peers discover the loss only when a fetch fails
    /// — at which point retraction self-heals the records.
    pub fn drop_stored_data(&mut self) {
        self.store = BlockStore::new();
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Read access to the local block store.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    fn fresh_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// The `n` record holders for `cid` (XOR-closest roster nodes).
    fn record_holders(&self, cid: &Cid, n: usize) -> Vec<NodeId> {
        closest_nodes(&self.roster, &Key::from_u256(cid.as_key()), n)
    }

    /// Handles one incoming message, returning the messages to send.
    pub fn handle(&mut self, from: NodeId, wire: IpfsWire) -> Vec<Outgoing> {
        match wire {
            IpfsWire::Put {
                data,
                req_id,
                replicate,
            } => self.on_put(from, data, req_id, replicate),
            IpfsWire::Unpin { cid, replicate } => self.on_unpin(cid, replicate),
            IpfsWire::Release { cid } => {
                self.store.release(&cid);
                for r in self.retrievals.values_mut() {
                    if r.cid == cid && matches!(r.purpose, Purpose::Get { .. }) {
                        r.released = true;
                    }
                }
                Vec::new()
            }
            IpfsWire::UnpinReplica { cid } => {
                self.store.unpin(&cid);
                self.gc_and_retract(cid)
            }
            IpfsWire::Retract { cid, provider } => {
                self.remove_provider(&cid, provider);
                Vec::new()
            }
            IpfsWire::Get { cid, req_id } => self.on_get(from, cid, req_id),
            IpfsWire::Merge { cids, req_id } => self.on_merge(from, cids, req_id),
            IpfsWire::Subscribe { topic } => {
                self.subs.entry(topic).or_default().insert(from);
                Vec::new()
            }
            IpfsWire::Publish { topic, data } => self.on_publish(from, topic, data),
            IpfsWire::FindProviders { cid, req_id } => {
                let providers = self.records.get(&cid).cloned().unwrap_or_default();
                vec![Outgoing {
                    to: from,
                    wire: IpfsWire::Providers {
                        cid,
                        providers,
                        req_id,
                    },
                }]
            }
            IpfsWire::Providers {
                providers, req_id, ..
            } => self.on_providers(providers, req_id),
            IpfsWire::Announce { cid, provider } => {
                self.add_provider(cid, provider);
                Vec::new()
            }
            IpfsWire::FetchBlock { cid, req_id } => match self.store.get(&cid) {
                Some(block) => vec![Outgoing {
                    to: from,
                    wire: IpfsWire::FetchOk {
                        block: block.clone(),
                        req_id,
                    },
                }],
                None => vec![Outgoing {
                    to: from,
                    wire: IpfsWire::FetchErr { cid, req_id },
                }],
            },
            IpfsWire::FetchOk { block, req_id } => self.on_fetch_ok(from, block, req_id),
            IpfsWire::FetchErr { cid, req_id } => self.on_fetch_err(from, cid, req_id),
            IpfsWire::Replicate { data } => {
                if self.lossy {
                    return Vec::new();
                }
                let cid = self.store.put(Block::new(data));
                self.store.pin(cid);
                // Advertised like the origin, so retrieval can fail over.
                self.provide(cid)
            }
            IpfsWire::PubGossip {
                topic,
                data,
                publisher,
            } => self.deliveries(&topic, &data, publisher),
            // Client-facing responses are never addressed to a node by the
            // protocol, but a misrouted or duplicated frame from a real
            // backend can deliver one here. Book and drop it — the old
            // debug_assert handed remote peers a kill switch in debug
            // builds.
            _ => {
                self.bump(stats::UNEXPECTED_MESSAGES);
                Vec::new()
            }
        }
    }

    /// Adds `provider` to this node's record for `cid`.
    fn add_provider(&mut self, cid: Cid, provider: NodeId) {
        let entry = self.records.entry(cid).or_default();
        if !entry.contains(&provider) {
            entry.push(provider);
        }
    }

    /// Removes `provider` from this node's record for `cid`; an emptied
    /// record goes.
    fn remove_provider(&mut self, cid: &Cid, provider: NodeId) {
        if let Some(entry) = self.records.get_mut(cid) {
            entry.retain(|p| *p != provider);
            if entry.is_empty() {
                self.records.remove(cid);
            }
        }
    }

    /// Advertises this node as a provider of `cid`: in its own record when
    /// it is a record holder, by `Announce` to the other holders.
    fn provide(&mut self, cid: Cid) -> Vec<Outgoing> {
        let mut out = Vec::new();
        for holder in self.record_holders(&cid, RECORD_REPLICAS) {
            if holder == self.id {
                self.add_provider(cid, holder);
            } else {
                out.push(Outgoing {
                    to: holder,
                    wire: IpfsWire::Announce {
                        cid,
                        provider: self.id,
                    },
                });
            }
        }
        out
    }

    /// Withdraws `provider` from the records for `cid`: locally when this
    /// node holds one, by `Retract` on the other record holders. This is
    /// how records self-heal after a provider dies, loses or drops data.
    fn withdraw(&mut self, cid: Cid, provider: NodeId) -> Vec<Outgoing> {
        self.remove_provider(&cid, provider);
        // The provider itself is included: if it is a record holder that
        // merely lost the data (not crashed), its own record heals too.
        self.record_holders(&cid, RECORD_REPLICAS)
            .into_iter()
            .filter(|h| *h != self.id)
            .map(|to| Outgoing {
                to,
                wire: IpfsWire::Retract { cid, provider },
            })
            .collect()
    }

    /// The `replicate − 1` nodes other than this one XOR-closest to `cid`
    /// (uniform allocation): where a `Put` pushes its replicas and an
    /// `Unpin` releases them.
    fn replica_targets(&self, cid: &Cid, replicate: usize) -> Vec<NodeId> {
        if replicate <= 1 {
            return Vec::new();
        }
        let mut targets = self.record_holders(cid, self.roster.len());
        targets.retain(|n| *n != self.id);
        targets.truncate(replicate - 1);
        targets
    }

    /// Releases the local pin, forwards the release to the replica set,
    /// collects garbage, and retracts stale provider records.
    fn on_unpin(&mut self, cid: Cid, replicate: usize) -> Vec<Outgoing> {
        self.store.unpin(&cid);
        let targets = self.replica_targets(&cid, replicate);
        let mut out: Vec<Outgoing> = targets
            .into_iter()
            .map(|to| Outgoing {
                to,
                wire: IpfsWire::UnpinReplica { cid },
            })
            .collect();
        out.extend(self.gc_and_retract(cid));
        out
    }

    /// Garbage-collects, and if `cid` is gone afterwards, withdraws this
    /// node's provider record for it.
    fn gc_and_retract(&mut self, cid: Cid) -> Vec<Outgoing> {
        self.store.gc();
        if self.store.contains(&cid) {
            return Vec::new();
        }
        self.withdraw(cid, self.id)
    }

    fn on_put(
        &mut self,
        from: NodeId,
        data: Bytes,
        req_id: u64,
        replicate: usize,
    ) -> Vec<Outgoing> {
        let block = Block::new(data.clone());
        let cid = block.cid();
        if !self.lossy {
            self.store.put(block);
            self.store.pin(cid);
        }
        let mut out = self.provide(cid);
        for to in self.replica_targets(&cid, replicate) {
            out.push(Outgoing {
                to,
                wire: IpfsWire::Replicate { data: data.clone() },
            });
        }
        out.push(Outgoing {
            to: from,
            wire: IpfsWire::PutAck { cid, req_id },
        });
        out
    }

    fn on_get(&mut self, from: NodeId, cid: Cid, req_id: u64) -> Vec<Outgoing> {
        if let Some(data) = self.store.get(&cid).map(|b| b.data().clone()) {
            self.bump(stats::CACHE_HITS);
            return vec![Outgoing {
                to: from,
                wire: IpfsWire::GetOk { cid, data, req_id },
            }];
        }
        self.bump(stats::CACHE_MISSES);
        let id = self.fresh_req();
        let purpose = Purpose::Get {
            client: from,
            client_req: req_id,
        };
        self.resolve(id, cid, purpose)
    }

    /// Starts retrieval `id` of a block this node does not hold: straight
    /// from the providers in its own record when that names another node,
    /// otherwise via the record holders (our own record may be partial,
    /// e.g. listing only ourselves when we lost the data but a replica
    /// exists elsewhere).
    fn resolve(&mut self, id: u64, cid: Cid, purpose: Purpose) -> Vec<Outgoing> {
        self.bump(stats::PROVIDER_LOOKUPS);
        let providers = self
            .records
            .get(&cid)
            .map(|p| self.others(p.iter().copied()))
            .unwrap_or_default();
        let (leg, peers) = if providers.is_empty() {
            let holders = self.record_holders(&cid, RECORD_REPLICAS);
            (Leg::Resolve, self.others(holders))
        } else {
            (Leg::Fetch, providers)
        };
        let retrieval = Retrieval {
            purpose,
            cid,
            leg,
            peers,
            attempt: 0,
            armed: 0,
            released: false,
        };
        self.retrievals.insert(id, retrieval);
        self.attempt(id)
    }

    /// `peers` without this node, in order.
    fn others(&self, peers: impl IntoIterator<Item = NodeId>) -> VecDeque<NodeId> {
        peers.into_iter().filter(|p| *p != self.id).collect()
    }

    /// Sends retrieval `id`'s request for its leg to its current peer and
    /// arms the attempt's timeout, backing off exponentially across
    /// retries of that peer — or fails the retrieval when the leg has no
    /// peer left.
    fn attempt(&mut self, id: u64) -> Vec<Outgoing> {
        let Some(r) = self.retrievals.get_mut(&id) else {
            return Vec::new();
        };
        let Some(&to) = r.peers.front() else {
            return self.fail(id);
        };
        r.armed += 1;
        let backoff = self.policy.base_timeout.as_micros() << r.attempt.min(16);
        let token = timer_token(id, r.armed);
        self.timer_requests
            .push((token, SimDuration::from_micros(backoff)));
        let (cid, req_id) = (r.cid, id);
        let wire = match r.leg {
            Leg::Resolve => IpfsWire::FindProviders { cid, req_id },
            Leg::Fetch => IpfsWire::FetchBlock { cid, req_id },
        };
        vec![Outgoing { to, wire }]
    }

    /// Gives up on retrieval `id`'s current peer and moves to the next
    /// candidate of its leg.
    fn failover(&mut self, id: u64) -> Vec<Outgoing> {
        let Some(r) = self.retrievals.get_mut(&id) else {
            return Vec::new();
        };
        r.peers.pop_front();
        r.attempt = 0;
        if !r.peers.is_empty() {
            self.bump(stats::FAILOVERS);
        }
        self.attempt(id)
    }

    /// A record holder's answer, acted on only while its retrieval is
    /// resolving: a late reply (a retried `FindProviders` answered twice)
    /// must not restart a fetch already under way.
    fn on_providers(&mut self, providers: Vec<NodeId>, req_id: u64) -> Vec<Outgoing> {
        let candidates = self.others(providers);
        let resolving = self.retrievals.get_mut(&req_id);
        let Some(r) = resolving.filter(|r| r.leg == Leg::Resolve) else {
            self.bump(stats::STALE_REPLIES);
            return Vec::new();
        };
        if candidates.is_empty() {
            // This holder answered but knows no provider; another
            // holder's record may be more complete.
            return self.failover(req_id);
        }
        r.leg = Leg::Fetch;
        r.peers = candidates;
        r.attempt = 0;
        self.attempt(req_id)
    }

    /// A provider's answer to retrieval `req_id`, taken only if it is the
    /// block that retrieval asked for. A [`Block`]'s CID is its bytes'
    /// hash, computed where the block was made — the provider's put, or
    /// the decoder of a socket frame — so comparing CIDs is the whole
    /// integrity check (§III-A). Any other block, honestly hashed or not,
    /// is the provider failing to serve the asked one: it is retracted and
    /// the retrieval fails over. A reply to a retrieval that is over is
    /// dropped.
    fn on_fetch_ok(&mut self, from: NodeId, block: Block, req_id: u64) -> Vec<Outgoing> {
        let r = match self.retrievals.entry(req_id) {
            Entry::Occupied(r) if r.get().cid == block.cid() => r.remove(),
            Entry::Occupied(r) => {
                let asked = r.get().cid;
                return self.on_fetch_err(from, asked, req_id);
            }
            Entry::Vacant(_) => return Vec::new(),
        };
        let data = block.data().clone();
        if !self.lossy && !r.released {
            self.store.put(block);
        }
        self.settle(r, Some(data))
    }

    fn on_fetch_err(&mut self, from: NodeId, cid: Cid, req_id: u64) -> Vec<Outgoing> {
        // The peer is reachable but does not hold the block: withdraw its
        // provider record so later retrievals skip it, then fail over (a
        // replica may still hold the block even when the announced origin
        // lost it). A stale reply from a peer we already failed over from
        // gets the retraction only.
        let mut out = self.retract_provider(cid, from);
        let current = self.retrievals.get(&req_id);
        if current.is_some_and(|r| r.peers.front() == Some(&from)) {
            out.extend(self.failover(req_id));
        }
        out
    }

    fn retract_provider(&mut self, cid: Cid, provider: NodeId) -> Vec<Outgoing> {
        self.bump(stats::RETRACTIONS);
        self.withdraw(cid, provider)
    }

    /// Handles the expiry of a timeout previously requested via
    /// [`IpfsNode::take_timer_requests`]. Retries the current peer with
    /// backoff, then declares it dead: retracts it (fetch leg) and fails
    /// over to the next candidate.
    pub fn on_timeout(&mut self, token: u64) -> Vec<Outgoing> {
        let id = token >> 32;
        let live = self.retrievals.get_mut(&id);
        let Some(r) = live.filter(|r| timer_token(id, r.armed) == token) else {
            return Vec::new(); // stale: the retrieval progressed since
        };
        if r.attempt + 1 < self.policy.attempts_per_peer {
            r.attempt += 1;
            self.bump(stats::RETRIES);
            return self.attempt(id);
        }
        // Peer exhausted its attempts: treat it as dead. A dead provider
        // is retracted so the record heals; a dead record holder is simply
        // skipped (it holds no provider entry to withdraw).
        let mut out = Vec::new();
        if let (Leg::Fetch, Some(&peer)) = (r.leg, r.peers.front()) {
            let cid = r.cid;
            out = self.retract_provider(cid, peer);
        }
        out.extend(self.failover(id));
        out
    }

    /// Ends retrieval `id` with every candidate of its leg exhausted.
    fn fail(&mut self, id: u64) -> Vec<Outgoing> {
        let Some(r) = self.retrievals.remove(&id) else {
            return Vec::new();
        };
        self.bump(stats::FETCH_FAILURES);
        self.settle(r, None)
    }

    /// Hands a finished retrieval's block (`None`: it failed) to what it
    /// was for — the client's `Get`, or its merge.
    fn settle(&mut self, r: Retrieval, data: Option<Bytes>) -> Vec<Outgoing> {
        let cid = r.cid;
        match r.purpose {
            Purpose::Get { client, client_req } => {
                let req_id = client_req;
                let wire = match data {
                    Some(data) => IpfsWire::GetOk { cid, data, req_id },
                    None => IpfsWire::GetErr { cid, req_id },
                };
                vec![Outgoing { to: client, wire }]
            }
            Purpose::Merge(merge_id) => {
                if let Some(merge) = self.merges.get_mut(&merge_id) {
                    merge.missing.remove(&cid);
                    match data {
                        Some(data) => {
                            merge.fetched.insert(cid, data);
                        }
                        None => merge.failed = true,
                    }
                }
                self.try_finish_merge(merge_id)
            }
        }
    }

    fn on_merge(&mut self, from: NodeId, cids: Vec<Cid>, req_id: u64) -> Vec<Outgoing> {
        self.bump(stats::MERGE_RPCS);
        let merge_id = self.fresh_req();
        let missing: HashSet<Cid> = cids
            .iter()
            .filter(|c| !self.store.contains(c))
            .copied()
            .collect();
        self.bump_by(stats::MERGE_REMOTE_FETCHES, missing.len() as u64);
        self.merges.insert(
            merge_id,
            PendingMerge {
                client: from,
                client_req: req_id,
                cids,
                missing: missing.clone(),
                fetched: HashMap::new(),
                failed: false,
            },
        );
        let mut out = Vec::new();
        let mut to_fetch: Vec<Cid> = missing.into_iter().collect();
        to_fetch.sort_unstable(); // deterministic fetch order
        for cid in to_fetch {
            let id = self.fresh_req();
            out.extend(self.resolve(id, cid, Purpose::Merge(merge_id)));
        }
        out.extend(self.try_finish_merge(merge_id));
        out
    }

    fn try_finish_merge(&mut self, merge_id: u64) -> Vec<Outgoing> {
        let done = match self.merges.get(&merge_id) {
            Some(m) => m.missing.is_empty(),
            None => return Vec::new(),
        };
        if !done {
            return Vec::new();
        }
        let Some(merge) = self.merges.remove(&merge_id) else {
            return Vec::new();
        };
        if merge.failed {
            return vec![Outgoing {
                to: merge.client,
                wire: IpfsWire::MergeErr {
                    reason: "some blocks unavailable".to_string(),
                    req_id: merge.client_req,
                },
            }];
        }
        // A block fetched earlier can vanish before assembly (a data-loss
        // fault between fetch and finish) — fail the merge, don't panic.
        let mut blobs: Vec<Bytes> = Vec::with_capacity(merge.cids.len());
        for c in &merge.cids {
            match self
                .store
                .get(c)
                .map(|b| b.data().clone())
                .or_else(|| merge.fetched.get(c).cloned())
            {
                Some(blob) => blobs.push(blob),
                None => {
                    return vec![Outgoing {
                        to: merge.client,
                        wire: IpfsWire::MergeErr {
                            reason: format!("block {c:?} lost before merge"),
                            req_id: merge.client_req,
                        },
                    }];
                }
            }
        }
        match merge_blobs(&blobs) {
            Ok(data) => vec![Outgoing {
                to: merge.client,
                wire: IpfsWire::MergeOk {
                    data: Bytes::from(data),
                    req_id: merge.client_req,
                },
            }],
            Err(e) => vec![Outgoing {
                to: merge.client,
                wire: IpfsWire::MergeErr {
                    reason: e.to_string(),
                    req_id: merge.client_req,
                },
            }],
        }
    }

    fn on_publish(&mut self, from: NodeId, topic: Topic, data: Bytes) -> Vec<Outgoing> {
        let mut out = self.deliveries(&topic, &data, from);
        // Flood to every other storage node for their local subscribers.
        for (peer, _) in self.roster.clone() {
            if peer != self.id {
                out.push(Outgoing {
                    to: peer,
                    wire: IpfsWire::PubGossip {
                        topic: topic.clone(),
                        data: data.clone(),
                        publisher: from,
                    },
                });
            }
        }
        out
    }

    fn deliveries(&self, topic: &str, data: &Bytes, publisher: NodeId) -> Vec<Outgoing> {
        let Some(subscribers) = self.subs.get(topic) else {
            return Vec::new();
        };
        let mut subs: Vec<NodeId> = subscribers.iter().copied().collect();
        subs.sort_unstable_by_key(|n| n.index()); // determinism
        subs.into_iter()
            .filter(|s| *s != publisher)
            .map(|s| Outgoing {
                to: s,
                wire: IpfsWire::Deliver {
                    topic: topic.to_string(),
                    data: data.clone(),
                    publisher,
                },
            })
            .collect()
    }
}

impl std::fmt::Debug for IpfsNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "IpfsNode(id={}, blocks={}, records={}, retrievals={})",
            self.id,
            self.store.len(),
            self.records.len(),
            self.retrievals.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{WireCost, TRANSPORT_OVERHEAD_BYTES};

    fn network(n: usize) -> Vec<IpfsNode> {
        let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        let roster = IpfsNode::roster_for(&ids);
        ids.iter()
            .map(|&id| IpfsNode::new(id, roster.clone()))
            .collect()
    }

    /// Routes messages among nodes until quiescent; returns messages that
    /// were addressed to non-node ids (i.e. clients).
    fn pump(nodes: &mut [IpfsNode], mut queue: Vec<(NodeId, Outgoing)>) -> Vec<(NodeId, IpfsWire)> {
        let mut to_clients = Vec::new();
        while let Some((from, out)) = queue.pop() {
            let idx = out.to.index();
            if idx < nodes.len() {
                let produced = nodes[idx].handle(from, out.wire);
                let self_id = nodes[idx].id();
                queue.extend(produced.into_iter().map(|o| (self_id, o)));
            } else {
                to_clients.push((out.to, out.wire));
            }
        }
        to_clients
    }

    const CLIENT: NodeId = NodeId(100);

    /// Drains a node's stat deltas, summed per label.
    fn drained_stats(node: &mut IpfsNode) -> HashMap<&'static str, u64> {
        let mut sums: HashMap<&'static str, u64> = HashMap::new();
        for (label, delta) in node.take_stats() {
            *sums.entry(label).or_default() += delta;
        }
        sums
    }

    #[test]
    fn put_then_local_get() {
        let mut nodes = network(4);
        let data = Bytes::from_static(b"gradient-partition");
        let out = nodes[0].handle(
            CLIENT,
            IpfsWire::Put {
                data: data.clone(),
                req_id: 1,
                replicate: 1,
            },
        );
        let replies = pump(
            &mut nodes,
            out.into_iter().map(|o| (NodeId(0), o)).collect(),
        );
        let cid = match &replies[..] {
            [(to, IpfsWire::PutAck { cid, req_id: 1 })] if *to == CLIENT => *cid,
            other => panic!("unexpected replies {other:?}"),
        };
        assert_eq!(cid, Cid::of(&data));

        let out = nodes[0].handle(CLIENT, IpfsWire::Get { cid, req_id: 2 });
        let replies = pump(
            &mut nodes,
            out.into_iter().map(|o| (NodeId(0), o)).collect(),
        );
        match &replies[..] {
            [(
                _,
                IpfsWire::GetOk {
                    data: got,
                    req_id: 2,
                    ..
                },
            )] => assert_eq!(*got, data),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn get_resolves_across_nodes() {
        let mut nodes = network(6);
        let data = Bytes::from_static(b"remote-block");
        // Put at node 0.
        let out = nodes[0].handle(
            CLIENT,
            IpfsWire::Put {
                data: data.clone(),
                req_id: 1,
                replicate: 1,
            },
        );
        pump(
            &mut nodes,
            out.into_iter().map(|o| (NodeId(0), o)).collect(),
        );
        let cid = Cid::of(&data);
        // Get from node 3, which does not hold the block.
        assert!(!nodes[3].store().contains(&cid));
        let out = nodes[3].handle(CLIENT, IpfsWire::Get { cid, req_id: 9 });
        let replies = pump(
            &mut nodes,
            out.into_iter().map(|o| (NodeId(3), o)).collect(),
        );
        match &replies[..] {
            [(
                _,
                IpfsWire::GetOk {
                    data: got,
                    req_id: 9,
                    ..
                },
            )] => assert_eq!(*got, data),
            other => panic!("unexpected {other:?}"),
        }
        // And the gateway cached it.
        assert!(nodes[3].store().contains(&cid));
    }

    #[test]
    fn release_drops_a_cached_copy_but_never_a_pinned_block_and_sends_nothing() {
        let mut nodes = network(6);
        let data = Bytes::from_static(b"an-update-blob");
        let cid = Cid::of(&data);
        let put = IpfsWire::Put {
            data: data.clone(),
            req_id: 1,
            replicate: 1,
        };
        let out = nodes[0].handle(CLIENT, put);
        pump(
            &mut nodes,
            out.into_iter().map(|o| (NodeId(0), o)).collect(),
        );
        let out = nodes[3].handle(CLIENT, IpfsWire::Get { cid, req_id: 2 });
        pump(
            &mut nodes,
            out.into_iter().map(|o| (NodeId(3), o)).collect(),
        );
        assert!(nodes[3].store().contains(&cid), "the gateway cached it");
        let other = Bytes::from_static(b"another-cached-block");
        nodes[3].store.put(Block::new(other.clone()));
        let before = nodes[3].store().total_bytes();

        // An unknown CID is a no-op.
        let unknown = Cid::of(b"never-fetched");
        assert!(nodes[3]
            .handle(CLIENT, IpfsWire::Release { cid: unknown })
            .is_empty());
        assert_eq!(nodes[3].store().total_bytes(), before);

        // The cached copy goes, and only it.
        assert!(nodes[3]
            .handle(CLIENT, IpfsWire::Release { cid })
            .is_empty());
        assert!(!nodes[3].store().contains(&cid));
        assert!(nodes[3].store().contains(&Cid::of(&other)));
        assert_eq!(nodes[3].store().total_bytes(), before - data.len());

        // The pinned original stays, and is still served.
        assert!(nodes[0]
            .handle(CLIENT, IpfsWire::Release { cid })
            .is_empty());
        assert!(nodes[0].store().contains(&cid));
        let out = nodes[3].handle(CLIENT, IpfsWire::Get { cid, req_id: 3 });
        let replies = pump(
            &mut nodes,
            out.into_iter().map(|o| (NodeId(3), o)).collect(),
        );
        assert!(
            matches!(&replies[..], [(_, IpfsWire::GetOk { req_id: 3, .. })]),
            "{replies:?}"
        );
    }

    /// A `Release` that reaches the gateway while its fetch is still in
    /// flight leaves no cached copy: the block goes back to the client and
    /// is not stored.
    #[test]
    fn a_fetch_released_while_in_flight_is_delivered_but_not_cached() {
        let mut nodes = network(6);
        let data = Bytes::from_static(b"an-update-blob");
        let cid = Cid::of(&data);
        let put = IpfsWire::Put {
            data: data.clone(),
            req_id: 1,
            replicate: 1,
        };
        let out = nodes[0].handle(CLIENT, put);
        pump(
            &mut nodes,
            out.into_iter().map(|o| (NodeId(0), o)).collect(),
        );
        // Route the gateway's retrieval until the block is on its way back.
        let out = nodes[3].handle(CLIENT, IpfsWire::Get { cid, req_id: 2 });
        let mut queue: Vec<_> = out.into_iter().map(|o| (NodeId(3), o)).collect();
        let mut fetched = None;
        while let Some((from, o)) = queue.pop() {
            if matches!(o.wire, IpfsWire::FetchOk { .. }) {
                fetched = Some((from, o));
                continue;
            }
            let to = o.to;
            let produced = nodes[to.index()].handle(from, o.wire);
            queue.extend(produced.into_iter().map(|p| (to, p)));
        }
        let fetched = fetched.expect("the provider sends the block");
        assert!(nodes[3]
            .handle(CLIENT, IpfsWire::Release { cid })
            .is_empty());
        let replies = pump(&mut nodes, vec![fetched]);
        match &replies[..] {
            [(
                to,
                IpfsWire::GetOk {
                    data: got,
                    req_id: 2,
                    ..
                },
            )] if *to == CLIENT => {
                assert_eq!(*got, data)
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!nodes[3].store().contains(&cid), "nothing cached");
        assert!(nodes[0].store().contains(&cid), "the original stays");
    }

    #[test]
    fn get_unknown_cid_errors() {
        let mut nodes = network(4);
        let cid = Cid::of(b"never-stored");
        let out = nodes[1].handle(CLIENT, IpfsWire::Get { cid, req_id: 5 });
        let replies = pump(
            &mut nodes,
            out.into_iter().map(|o| (NodeId(1), o)).collect(),
        );
        match &replies[..] {
            [(_, IpfsWire::GetErr { req_id: 5, .. })] => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn replication_survives_origin_loss() {
        let mut nodes = network(5);
        let data = Bytes::from_static(b"replicated-block");
        let out = nodes[0].handle(
            CLIENT,
            IpfsWire::Put {
                data: data.clone(),
                req_id: 1,
                replicate: 3,
            },
        );
        pump(
            &mut nodes,
            out.into_iter().map(|o| (NodeId(0), o)).collect(),
        );
        let cid = Cid::of(&data);
        let holders = (0..5).filter(|&i| nodes[i].store().contains(&cid)).count();
        assert_eq!(holders, 3, "3 total replicas");
    }

    #[test]
    fn merge_local_blobs() {
        use dfl_crypto::quantize::{encode, quantize_vector};
        let mut nodes = network(3);
        let b1 = Bytes::from(encode(&quantize_vector(&[1.0, 2.0])));
        let b2 = Bytes::from(encode(&quantize_vector(&[0.5, 0.5])));
        let out1 = nodes[0].handle(
            CLIENT,
            IpfsWire::Put {
                data: b1.clone(),
                req_id: 1,
                replicate: 1,
            },
        );
        pump(
            &mut nodes,
            out1.into_iter().map(|o| (NodeId(0), o)).collect(),
        );
        let out2 = nodes[0].handle(
            CLIENT,
            IpfsWire::Put {
                data: b2.clone(),
                req_id: 2,
                replicate: 1,
            },
        );
        pump(
            &mut nodes,
            out2.into_iter().map(|o| (NodeId(0), o)).collect(),
        );

        let out = nodes[0].handle(
            CLIENT,
            IpfsWire::Merge {
                cids: vec![Cid::of(&b1), Cid::of(&b2)],
                req_id: 3,
            },
        );
        let replies = pump(
            &mut nodes,
            out.into_iter().map(|o| (NodeId(0), o)).collect(),
        );
        match &replies[..] {
            [(_, IpfsWire::MergeOk { data, req_id: 3 })] => {
                let expect = crate::merge::merge_blobs(&[b1.as_ref(), b2.as_ref()]).unwrap();
                assert_eq!(data.as_ref(), &expect[..]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn merge_fetches_missing_blocks() {
        use dfl_crypto::quantize::{encode, quantize_vector};
        let mut nodes = network(5);
        let b1 = Bytes::from(encode(&quantize_vector(&[1.0])));
        let b2 = Bytes::from(encode(&quantize_vector(&[2.0])));
        // Store on different nodes.
        let o = nodes[1].handle(
            CLIENT,
            IpfsWire::Put {
                data: b1.clone(),
                req_id: 1,
                replicate: 1,
            },
        );
        pump(&mut nodes, o.into_iter().map(|o| (NodeId(1), o)).collect());
        let o = nodes[2].handle(
            CLIENT,
            IpfsWire::Put {
                data: b2.clone(),
                req_id: 2,
                replicate: 1,
            },
        );
        pump(&mut nodes, o.into_iter().map(|o| (NodeId(2), o)).collect());
        // Merge at node 0, which holds neither block.
        let o = nodes[0].handle(
            CLIENT,
            IpfsWire::Merge {
                cids: vec![Cid::of(&b1), Cid::of(&b2)],
                req_id: 3,
            },
        );
        let replies = pump(&mut nodes, o.into_iter().map(|o| (NodeId(0), o)).collect());
        match &replies[..] {
            [(_, IpfsWire::MergeOk { data, req_id: 3 })] => {
                let expect = crate::merge::merge_blobs(&[b1.as_ref(), b2.as_ref()]).unwrap();
                assert_eq!(data.as_ref(), &expect[..]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn merge_with_unavailable_block_errors() {
        let mut nodes = network(3);
        let o = nodes[0].handle(
            CLIENT,
            IpfsWire::Merge {
                cids: vec![Cid::of(b"ghost")],
                req_id: 4,
            },
        );
        let replies = pump(&mut nodes, o.into_iter().map(|o| (NodeId(0), o)).collect());
        match &replies[..] {
            [(_, IpfsWire::MergeErr { req_id: 4, .. })] => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pubsub_floods_to_remote_subscribers() {
        let mut nodes = network(3);
        let alice = NodeId(200);
        let bob = NodeId(201);
        // Alice subscribes at node 0, Bob at node 2.
        nodes[0].handle(
            alice,
            IpfsWire::Subscribe {
                topic: "sync".into(),
            },
        );
        nodes[2].handle(
            bob,
            IpfsWire::Subscribe {
                topic: "sync".into(),
            },
        );
        // Bob publishes via node 2.
        let o = nodes[2].handle(
            bob,
            IpfsWire::Publish {
                topic: "sync".into(),
                data: Bytes::from_static(b"hash"),
            },
        );
        let replies = pump(&mut nodes, o.into_iter().map(|o| (NodeId(2), o)).collect());
        // Alice gets one delivery; Bob (the publisher) does not.
        let delivered: Vec<_> = replies
            .iter()
            .filter(|(to, w)| matches!(w, IpfsWire::Deliver { .. }) && *to == alice)
            .collect();
        assert_eq!(delivered.len(), 1);
        assert!(!replies
            .iter()
            .any(|(to, w)| *to == bob && matches!(w, IpfsWire::Deliver { .. })));
    }

    #[test]
    fn gossip_reaches_every_remote_subscriber_exactly_once() {
        // The evidence-gossip pattern of the accountability layer: one
        // detector publishes a misbehavior record; every subscriber on
        // every *other* gateway must receive exactly one Deliver carrying
        // the true publisher id (peers filter their own detections by it),
        // and the publisher must not hear its own record back.
        let mut nodes = network(4);
        let peers: Vec<NodeId> = (300..304).map(NodeId).collect();
        for (i, &peer) in peers.iter().enumerate() {
            nodes[i].handle(
                peer,
                IpfsWire::Subscribe {
                    topic: "ipls/evidence".into(),
                },
            );
        }
        let detector = peers[1];
        let o = nodes[1].handle(
            detector,
            IpfsWire::Publish {
                topic: "ipls/evidence".into(),
                data: Bytes::from_static(b"misbehavior-record"),
            },
        );
        let replies = pump(&mut nodes, o.into_iter().map(|o| (NodeId(1), o)).collect());
        for &peer in &peers {
            let got: Vec<_> = replies
                .iter()
                .filter(|(to, w)| {
                    *to == peer
                        && matches!(
                            w,
                            IpfsWire::Deliver { topic, publisher, .. }
                                if topic == "ipls/evidence" && *publisher == detector
                        )
                })
                .collect();
            let want = usize::from(peer != detector);
            assert_eq!(got.len(), want, "peer {peer:?} deliveries");
        }
    }

    #[test]
    fn lossy_node_loses_data() {
        let mut nodes = network(3);
        nodes[0].set_lossy(true);
        let data = Bytes::from_static(b"doomed");
        let o = nodes[0].handle(
            CLIENT,
            IpfsWire::Put {
                data: data.clone(),
                req_id: 1,
                replicate: 1,
            },
        );
        let replies = pump(&mut nodes, o.into_iter().map(|o| (NodeId(0), o)).collect());
        // Ack still arrives (the loss is silent), but the data is gone.
        assert!(matches!(replies[..], [(_, IpfsWire::PutAck { .. })]));
        assert!(!nodes[0].store().contains(&Cid::of(&data)));
    }

    /// Node 0 of a one-node network, retrieving `cid` for `CLIENT`'s
    /// `Get` 7 as its retrieval 1, from `peers` in order; its own record
    /// for `cid` names them.
    fn fetching(cid: Cid, peers: &[NodeId]) -> IpfsNode {
        let mut node = network(1).pop().unwrap();
        node.records.insert(cid, peers.to_vec());
        let retrieval = Retrieval {
            purpose: Purpose::Get {
                client: CLIENT,
                client_req: 7,
            },
            cid,
            leg: Leg::Fetch,
            peers: peers.iter().copied().collect(),
            attempt: 0,
            armed: 0,
            released: false,
        };
        node.retrievals.insert(1, retrieval);
        node
    }

    /// A provider whose bytes do not hash to the CID it claims: the frame
    /// decodes (to a block named by its own hash), and the gateway serves
    /// nothing — `GetErr` to the client, the provider retracted.
    #[test]
    fn fetch_verifies_content() {
        let cid = Cid::of(b"real-content");
        let forger = NodeId(50);
        let mut node = fetching(cid, &[forger]);
        let forged = b"forged!!";
        let mut frame = vec![16];
        frame.extend_from_slice(cid.as_bytes());
        frame.extend_from_slice(&(forged.len() as u32).to_le_bytes());
        frame.extend_from_slice(forged);
        frame.extend_from_slice(&1u64.to_le_bytes());
        let wire = IpfsWire::decode(&frame).expect("a lie is a well-formed frame");
        let out = node.handle(forger, wire);
        match &out[..] {
            [Outgoing {
                to,
                wire: IpfsWire::GetErr { req_id: 7, .. },
            }] => {
                assert_eq!(*to, CLIENT);
            }
            other => panic!("forged content must yield GetErr, got {other:?}"),
        }
        assert!(!node.records.contains_key(&cid), "the forger is retracted");
        assert_eq!(drained_stats(&mut node)[stats::RETRACTIONS], 1);
        assert!(node.store().is_empty());
    }

    /// Regression: a retrieval matched a `FetchOk` by request id alone and
    /// checked the bytes against the reply's own CID, so an honestly hashed
    /// block B sent in answer to `FetchBlock { A }` went to the client as
    /// `GetOk { cid: A, data: B }` (and a merge would have summed B in A's
    /// place). It is the provider failing to serve A: retracted, and the
    /// retrieval fails over to the next provider, whose A is served.
    #[test]
    fn a_fetch_ok_for_another_cid_fails_over_and_is_not_served() {
        let a = Block::new(Bytes::from_static(b"block-a"));
        let b = Block::new(Bytes::from_static(b"block-b"));
        let (liar, honest) = (NodeId(50), NodeId(51));
        let mut node = fetching(a.cid(), &[liar, honest]);
        let out = node.handle(
            liar,
            IpfsWire::FetchOk {
                block: b.clone(),
                req_id: 1,
            },
        );
        match &out[..] {
            [Outgoing {
                to,
                wire: IpfsWire::FetchBlock { cid, req_id: 1 },
            }] => assert_eq!((*to, *cid), (honest, a.cid())),
            other => panic!("expected a failover to the next provider, got {other:?}"),
        }
        assert_eq!(node.records[&a.cid()], [honest], "the liar is retracted");
        assert!(node.store().is_empty(), "nothing cached");
        let stats = drained_stats(&mut node);
        assert_eq!(stats[stats::RETRACTIONS], 1);
        assert_eq!(stats[stats::FAILOVERS], 1);

        let out = node.handle(
            honest,
            IpfsWire::FetchOk {
                block: a.clone(),
                req_id: 1,
            },
        );
        match &out[..] {
            [Outgoing {
                to,
                wire:
                    IpfsWire::GetOk {
                        cid,
                        data,
                        req_id: 7,
                    },
            }] => assert_eq!((*to, *cid, data), (CLIENT, a.cid(), a.data())),
            other => panic!("expected A's GetOk, got {other:?}"),
        }

        // With no provider left, the client gets `GetErr`.
        let mut node = fetching(a.cid(), &[liar]);
        let out = node.handle(
            liar,
            IpfsWire::FetchOk {
                block: b,
                req_id: 1,
            },
        );
        assert!(
            matches!(
                &out[..],
                [Outgoing {
                    wire: IpfsWire::GetErr { req_id: 7, .. },
                    ..
                }]
            ),
            "{out:?}"
        );
    }

    use crate::cid::hashes;

    /// A block stored at one node and fetched through a second gateway
    /// crosses no process boundary, so it is hashed once: by the put.
    #[test]
    fn a_block_put_at_one_node_and_got_through_another_is_hashed_once() {
        let mut nodes = network(6);
        let data = Bytes::from(vec![7u8; 5000]);
        let before = hashes();
        let put = IpfsWire::Put {
            data: data.clone(),
            req_id: 1,
            replicate: 1,
        };
        let out = nodes[0].handle(CLIENT, put);
        let replies = pump(
            &mut nodes,
            out.into_iter().map(|o| (NodeId(0), o)).collect(),
        );
        let [(_, IpfsWire::PutAck { cid, .. })] = replies[..] else {
            panic!("unexpected {replies:?}");
        };
        let out = nodes[3].handle(CLIENT, IpfsWire::Get { cid, req_id: 2 });
        let replies = pump(
            &mut nodes,
            out.into_iter().map(|o| (NodeId(3), o)).collect(),
        );
        assert!(
            matches!(&replies[..], [(_, IpfsWire::GetOk { data: got, .. })] if *got == data),
            "{replies:?}"
        );
        assert!(nodes[3].store().contains(&cid), "the gateway cached it");
        assert_eq!(hashes() - before, 1);
    }

    /// A block that comes off the wire is hashed once, by the decoder, and
    /// the gateway that takes it hashes it no more.
    #[test]
    fn a_fetch_ok_decoded_from_bytes_is_hashed_once() {
        let block = Block::new(Bytes::from(vec![3u8; 5000]));
        let provider = NodeId(50);
        let mut node = fetching(block.cid(), &[provider]);
        let frame = Bytes::from(IpfsWire::FetchOk { block, req_id: 1 }.encode());
        let before = hashes();
        let wire = IpfsWire::decode_shared(&frame).unwrap();
        assert_eq!(hashes() - before, 1, "the decoder hashes");
        let out = node.handle(provider, wire);
        assert!(
            matches!(
                &out[..],
                [Outgoing {
                    wire: IpfsWire::GetOk { req_id: 7, .. },
                    ..
                }]
            ),
            "{out:?}"
        );
        assert_eq!(hashes() - before, 1, "the gateway does not");
    }

    /// Over a socket no `Put` is hashed in flight: encoding and decoding it
    /// hash nothing, and the receiving node hashes it once.
    #[test]
    fn a_put_off_the_wire_is_hashed_once_by_its_receiver() {
        let mut node = network(1).pop().unwrap();
        let put = IpfsWire::Put {
            data: Bytes::from(vec![5u8; 5000]),
            req_id: 1,
            replicate: 1,
        };
        let before = hashes();
        let frame = Bytes::from(put.encode());
        let wire = IpfsWire::decode_shared(&frame).unwrap();
        assert_eq!(hashes() - before, 0, "the codec hashes nothing");
        let out = node.handle(CLIENT, wire);
        assert!(
            matches!(
                &out[..],
                [
                    ..,
                    Outgoing {
                        wire: IpfsWire::PutAck { req_id: 1, .. },
                        ..
                    }
                ]
            ),
            "{out:?}"
        );
        assert_eq!(hashes() - before, 1, "the receiver hashes it");
    }

    /// Pins the encoded size of every message variant — tag byte, then each
    /// field (`u32` prefixes in parentheses with what they count) — so a
    /// change to the byte accounting (which feeds every traffic figure) is
    /// always deliberate.
    #[test]
    fn wire_bytes_accounting() {
        let cid = Cid::of(b"x");
        let data = Bytes::from(vec![0u8; 1000]);
        let peer = NodeId(3);
        let cases: Vec<(IpfsWire, u64)> = vec![
            (
                IpfsWire::Put {
                    data: data.clone(),
                    req_id: 0,
                    replicate: 1,
                },
                1 + (4 + 1000) + 8 + 8,
            ),
            (IpfsWire::Get { cid, req_id: 0 }, 1 + 32 + 8),
            (
                IpfsWire::Merge {
                    cids: vec![Cid::of(b"a"), Cid::of(b"b")],
                    req_id: 0,
                },
                1 + (4 + 64) + 8,
            ),
            (IpfsWire::Unpin { cid, replicate: 2 }, 1 + 32 + 8),
            (IpfsWire::Release { cid }, 1 + 32),
            (
                IpfsWire::Subscribe {
                    topic: "sync".into(),
                },
                1 + (4 + 4),
            ),
            (
                IpfsWire::Publish {
                    topic: "sync".into(),
                    data: data.clone(),
                },
                1 + (4 + 4) + (4 + 1000),
            ),
            (IpfsWire::PutAck { cid, req_id: 0 }, 1 + 32 + 8),
            (
                IpfsWire::GetOk {
                    cid,
                    data: data.clone(),
                    req_id: 0,
                },
                1 + 32 + (4 + 1000) + 8,
            ),
            (IpfsWire::GetErr { cid, req_id: 0 }, 1 + 32 + 8),
            (
                IpfsWire::MergeOk {
                    data: data.clone(),
                    req_id: 0,
                },
                1 + (4 + 1000) + 8,
            ),
            (
                IpfsWire::MergeErr {
                    reason: "missing".into(),
                    req_id: 0,
                },
                1 + (4 + 7) + 8,
            ),
            (
                IpfsWire::Deliver {
                    topic: "sync".into(),
                    data: data.clone(),
                    publisher: peer,
                },
                1 + (4 + 4) + (4 + 1000) + 8,
            ),
            (IpfsWire::FindProviders { cid, req_id: 0 }, 1 + 32 + 8),
            (
                IpfsWire::Providers {
                    cid,
                    providers: vec![peer, NodeId(4)],
                    req_id: 0,
                },
                1 + 32 + (4 + 16) + 8,
            ),
            (
                IpfsWire::Announce {
                    cid,
                    provider: peer,
                },
                1 + 32 + 8,
            ),
            (IpfsWire::FetchBlock { cid, req_id: 0 }, 1 + 32 + 8),
            (
                IpfsWire::FetchOk {
                    block: Block::new(data.clone()),
                    req_id: 0,
                },
                1 + 32 + (4 + 1000) + 8,
            ),
            (IpfsWire::FetchErr { cid, req_id: 0 }, 1 + 32 + 8),
            (IpfsWire::Replicate { data: data.clone() }, 1 + (4 + 1000)),
            (
                IpfsWire::Retract {
                    cid,
                    provider: peer,
                },
                1 + 32 + 8,
            ),
            (IpfsWire::UnpinReplica { cid }, 1 + 32),
            (
                IpfsWire::PubGossip {
                    topic: "sync".into(),
                    data,
                    publisher: peer,
                },
                1 + (4 + 4) + (4 + 1000) + 8,
            ),
        ];
        for (wire, encoded) in cases {
            assert_eq!(
                wire.wire_bytes(),
                encoded + TRANSPORT_OVERHEAD_BYTES,
                "variant {wire:?}"
            );
        }
    }

    /// Drives `nodes`, delivering messages *and* expiring armed timeouts in
    /// arrival order, while `down` nodes drop everything sent to them.
    /// Returns the messages addressed to clients.
    fn pump_with_timers(
        nodes: &mut [IpfsNode],
        mut queue: Vec<(NodeId, Outgoing)>,
        down: &[NodeId],
    ) -> Vec<(NodeId, IpfsWire)> {
        let mut to_clients = Vec::new();
        let mut armed: Vec<(usize, u64)> = Vec::new();
        for _ in 0..10_000 {
            // Deliver what we can; messages to down nodes vanish.
            while let Some((from, out)) = queue.pop() {
                let idx = out.to.index();
                if down.contains(&out.to) {
                    continue;
                }
                if idx < nodes.len() {
                    let produced = nodes[idx].handle(from, out.wire);
                    let self_id = nodes[idx].id();
                    queue.extend(produced.into_iter().map(|o| (self_id, o)));
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
            // Quiescent: expire the oldest armed timeout, if any.
            if armed.is_empty() {
                return to_clients;
            }
            let (idx, token) = armed.remove(0);
            let produced = nodes[idx].on_timeout(token);
            let self_id = nodes[idx].id();
            queue.extend(produced.into_iter().map(|o| (self_id, o)));
        }
        panic!("pump_with_timers did not quiesce");
    }

    #[test]
    fn timeout_retries_then_fails_over_and_retracts() {
        // Construct the worst case directly: the provider listed FIRST in
        // every record (node 0) is dead, and a live replica (node 3) is
        // listed second. The retrieval must time out on node 0, retry it,
        // give up, retract it from the records, and succeed via node 3.
        let mut nodes = network(4);
        let data = Bytes::from_static(b"resilient");
        let cid = Cid::of(&data);
        for idx in [0usize, 3] {
            let stored = nodes[idx].store.put(Block::new(data.clone()));
            nodes[idx].store.pin(stored);
        }
        let rec_holders = nodes[0].record_holders(&cid, RECORD_REPLICAS);
        for holder in &rec_holders {
            nodes[holder.index()]
                .records
                .insert(cid, vec![NodeId(0), NodeId(3)]);
        }

        let down = [NodeId(0)];
        let asker = (1..nodes.len())
            .map(NodeId)
            .find(|n| *n != NodeId(3))
            .unwrap();
        let o = nodes[asker.index()].handle(CLIENT, IpfsWire::Get { cid, req_id: 2 });
        let replies = pump_with_timers(
            &mut nodes,
            o.into_iter().map(|o| (asker, o)).collect(),
            &down,
        );
        match &replies[..] {
            [(to, IpfsWire::GetOk { cid: got, .. })] => {
                assert_eq!(*to, CLIENT);
                assert_eq!(*got, cid);
            }
            other => panic!("expected failover GetOk, got {other:?}"),
        }

        // The dead provider was retracted: surviving records no longer list
        // node 0 (the replica stays listed), so the next retrieval goes
        // straight to the replica.
        for node in nodes.iter().filter(|n| !down.contains(&n.id())) {
            if let Some(entry) = node.records.get(&cid) {
                assert!(
                    !entry.contains(&NodeId(0)),
                    "node {} still lists the dead provider",
                    node.id()
                );
                assert!(
                    entry.contains(&NodeId(3)),
                    "replica vanished from {}",
                    node.id()
                );
            }
        }
    }

    #[test]
    fn resolve_fails_over_to_next_record_holder() {
        // The first record holder for the CID is down; resolution must ask
        // the next holder instead of giving up.
        let mut nodes = network(5);
        let data = Bytes::from_static(b"holder-failover");
        let cid = Cid::of(&data);
        let o = nodes[0].handle(
            CLIENT,
            IpfsWire::Put {
                data,
                req_id: 1,
                replicate: 2,
            },
        );
        pump(&mut nodes, o.into_iter().map(|o| (NodeId(0), o)).collect());

        let holders = nodes[0].record_holders(&cid, RECORD_REPLICAS);
        assert!(holders.len() >= 2, "need at least two record holders");
        // Ask from a node that is neither a record holder nor a block holder,
        // with the primary record holder down (unless that would also kill
        // the block's only copies — then just verify the happy path).
        let storers: Vec<NodeId> = nodes
            .iter()
            .filter(|n| n.store().contains(&cid))
            .map(|n| n.id())
            .collect();
        let asker = (0..nodes.len())
            .map(NodeId)
            .find(|n| !holders.contains(n) && !storers.contains(n))
            .expect("a neutral asker");
        let down: Vec<NodeId> = holders
            .iter()
            .copied()
            .filter(|h| !storers.contains(h))
            .take(1)
            .collect();
        let o = nodes[asker.index()].handle(CLIENT, IpfsWire::Get { cid, req_id: 9 });
        let replies = pump_with_timers(
            &mut nodes,
            o.into_iter().map(|o| (asker, o)).collect(),
            &down,
        );
        match &replies[..] {
            [(to, IpfsWire::GetOk { cid: got, .. })] => {
                assert_eq!(*to, CLIENT);
                assert_eq!(*got, cid);
            }
            other => panic!("expected GetOk via surviving record holder, got {other:?}"),
        }
    }

    #[test]
    fn fetch_err_heals_provider_records() {
        // A provider that lost its data (stays responsive, answers FetchErr)
        // is withdrawn from the provider records everywhere.
        let mut nodes = network(4);
        let data = Bytes::from_static(b"self-heal");
        let cid = Cid::of(&data);
        let o = nodes[0].handle(
            CLIENT,
            IpfsWire::Put {
                data,
                req_id: 1,
                replicate: 2,
            },
        );
        pump(&mut nodes, o.into_iter().map(|o| (NodeId(0), o)).collect());

        // Node 0 silently loses its durable state.
        nodes[0].drop_stored_data();

        let asker = NodeId(3);
        let o = nodes[asker.index()].handle(CLIENT, IpfsWire::Get { cid, req_id: 2 });
        let replies =
            pump_with_timers(&mut nodes, o.into_iter().map(|o| (asker, o)).collect(), &[]);
        match &replies[..] {
            [(_, IpfsWire::GetOk { cid: got, .. })] => assert_eq!(*got, cid),
            other => panic!("expected GetOk from replica, got {other:?}"),
        }
        // Every surviving record has dropped the data-less provider.
        for node in nodes.iter() {
            if let Some(entry) = node.records.get(&cid) {
                assert!(
                    !entry.contains(&NodeId(0)),
                    "node {} still lists the provider that lost the data",
                    node.id()
                );
            }
        }
    }

    #[test]
    fn crash_drops_volatile_but_not_stored_state() {
        let mut nodes = network(3);
        let data = Bytes::from_static(b"durable");
        let cid = Cid::of(&data);
        let o = nodes[0].handle(
            CLIENT,
            IpfsWire::Put {
                data,
                req_id: 1,
                replicate: 1,
            },
        );
        pump(&mut nodes, o.into_iter().map(|o| (NodeId(0), o)).collect());

        // Arm an in-flight retrieval, then crash.
        let o = nodes[1].handle(
            CLIENT,
            IpfsWire::Get {
                cid: Cid::of(b"missing"),
                req_id: 5,
            },
        );
        assert!(!o.is_empty());
        nodes[0].drop_volatile_state();
        nodes[1].drop_volatile_state();
        assert!(nodes[1].take_timer_requests().is_empty());
        // Stored blocks survive a crash; only request state is gone.
        assert!(nodes[0].store().contains(&cid));
        assert!(nodes[1].retrievals.is_empty());
    }

    #[test]
    fn stale_providers_reply_is_booked_not_fatal() {
        let mut nodes = network(3);
        // Unknown req_id with empty providers used to debug-panic in
        // `fail`; with providers it used to start a phantom fetch.
        let o = nodes[0].handle(
            NodeId(1),
            IpfsWire::Providers {
                cid: Cid::of(b"x"),
                providers: Vec::new(),
                req_id: 424242,
            },
        );
        assert!(o.is_empty());
        let o = nodes[0].handle(
            NodeId(1),
            IpfsWire::Providers {
                cid: Cid::of(b"x"),
                providers: vec![NodeId(2)],
                req_id: 424243,
            },
        );
        assert!(o.is_empty());
        let stats = drained_stats(&mut nodes[0]);
        assert_eq!(stats[stats::STALE_REPLIES], 2);
        assert!(nodes[0].retrievals.is_empty());
    }

    #[test]
    fn client_facing_frames_at_a_node_are_booked_not_fatal() {
        let mut nodes = network(3);
        let o = nodes[0].handle(
            NodeId(1),
            IpfsWire::GetOk {
                cid: Cid::of(b"x"),
                data: Bytes::from_static(b"payload"),
                req_id: 5,
            },
        );
        assert!(o.is_empty());
        let stats = drained_stats(&mut nodes[0]);
        assert_eq!(stats[stats::UNEXPECTED_MESSAGES], 1);
    }
}
