//! The sans-io protocol boundary: event-in / action-out.
//!
//! Every IPLS state machine ([`Trainer`](crate::Trainer),
//! [`Aggregator`](crate::Aggregator), [`Directory`](crate::Directory), and
//! the storage wrapper [`IpfsCore`]) implements [`ProtocolCore`]: a pure
//! function from `(now, event)` to state mutation plus a queue of
//! [`ProtocolAction`]s. The cores never perform I/O, read clocks, or draw
//! randomness — time arrives as an explicit [`SimTime`] argument, messages
//! and timers arrive as [`ProtocolEvent`]s, and everything the node wants
//! done to the outside world leaves as an action.
//!
//! Backends are thin interpreters of the action queue:
//!
//! * [`NetsimAdapter`] replays actions into a [`dfl_netsim::Context`],
//!   making any core a deterministic-simulation [`Actor`]. Because the
//!   simulator's `send`/`set_timer` are themselves buffered until the
//!   callback returns, replaying the queue in push order is
//!   observationally identical to the old inline-`ctx` style — the
//!   fig1/fig2 trace fingerprints prove it bit-for-bit.
//! * the `dfl-backend-tokio` crate replays the same actions onto real TCP
//!   sockets and wall-clock timers.
//!
//! The contract a backend must honour:
//!
//! 1. Deliver each event with a monotonically non-decreasing `now`.
//! 2. Execute the drained actions of one `handle` call **in push order**
//!    before delivering the next event to the same core.
//! 3. Never reorder or drop actions of a live node (a crashed node's
//!    actions may be discarded wholesale, as netsim does).

use dfl_ipfs::{CarriesBlock, Cid, IpfsNode, IpfsWire, Outgoing, WireEmbed};
use dfl_netsim::{Actor, Context, Fault, NodeId, SimDuration, SimTime};
use std::collections::HashMap;
use std::marker::PhantomData;

use crate::config::Topology;
use crate::messages::Msg;

/// An input to a protocol state machine. The type parameter `M` is the
/// application message type (for IPLS tasks, [`Msg`]).
#[derive(Clone, Debug)]
pub enum ProtocolEvent<M> {
    /// The node comes alive (delivered exactly once, before any other
    /// event; `now` is the epoch of the run).
    Start,
    /// A message from another node was fully delivered.
    Message {
        /// Sending node.
        from: NodeId,
        /// The delivered message.
        msg: M,
    },
    /// A timer armed with [`Actions::set_timer`] fired.
    Timer {
        /// The token the timer was armed with.
        token: u64,
    },
    /// An injected fault hit this node (see [`Fault`]).
    Fault {
        /// The fault kind.
        fault: Fault,
    },
    /// The backend gave up delivering a previously queued `Send` to `to`
    /// (connection supervision exhausted its retries, or the outbound
    /// queue overflowed). Purely informational: cores typically count it
    /// ([`labels::DELIVERY_FAILED`](crate::labels::DELIVERY_FAILED)) and
    /// rely on the existing timeout/retry machinery for recovery. The
    /// netsim backend never emits it — simulated sends either deliver or
    /// are dropped by an injected fault, which the trace accounts for.
    DeliveryFailure {
        /// The destination the backend failed to reach.
        to: NodeId,
    },
}

/// An effect a protocol state machine asks its backend to perform.
#[derive(Clone, Debug)]
pub enum ProtocolAction<M> {
    /// Transmit `msg` to `to`. The backend derives the wire cost (netsim)
    /// or the encoding (sockets) from the message itself.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message to transmit.
        msg: M,
    },
    /// Arm a timer that fires `delay` from now, delivering
    /// [`ProtocolEvent::Timer`] with `token`.
    SetTimer {
        /// Relative delay.
        delay: SimDuration,
        /// Token returned when the timer fires.
        token: u64,
    },
    /// Record an observability event (timestamped sample in the trace).
    Record {
        /// Metric label.
        label: &'static str,
        /// Sample value.
        value: f64,
    },
    /// Bump a monotonic counter.
    Incr {
        /// Counter label.
        label: &'static str,
        /// Increment.
        delta: u64,
    },
    /// Feed a histogram sample.
    Observe {
        /// Histogram label.
        label: &'static str,
        /// Sample value.
        value: f64,
    },
}

/// The ordered action queue a [`ProtocolCore`] pushes effects into.
///
/// Handlers call the imperative helpers (`send`, `set_timer`, `record`,
/// ...) exactly where the old code called the simulator context; the
/// backend drains the queue after the handler returns and executes the
/// actions in push order.
#[derive(Debug, Default)]
pub struct Actions<M> {
    queued: Vec<ProtocolAction<M>>,
}

impl<M> Actions<M> {
    /// An empty queue.
    pub fn new() -> Actions<M> {
        Actions { queued: Vec::new() }
    }

    /// Makes room for `additional` more actions at once, for a handler
    /// that knows how many it is about to queue.
    pub fn reserve(&mut self, additional: usize) {
        self.queued.reserve(additional);
    }

    /// Queues a message transmission.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.queued.push(ProtocolAction::Send { to, msg });
    }

    /// Queues arming a timer.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.queued.push(ProtocolAction::SetTimer { delay, token });
    }

    /// Queues a trace sample.
    pub fn record(&mut self, label: &'static str, value: f64) {
        self.queued.push(ProtocolAction::Record { label, value });
    }

    /// Queues a counter increment.
    pub fn incr(&mut self, label: &'static str, delta: u64) {
        self.queued.push(ProtocolAction::Incr { label, delta });
    }

    /// Queues an action as it is.
    pub(crate) fn push(&mut self, action: ProtocolAction<M>) {
        self.queued.push(action);
    }

    /// Queues a histogram sample.
    pub fn observe(&mut self, label: &'static str, value: f64) {
        self.queued.push(ProtocolAction::Observe { label, value });
    }

    /// Removes and returns every queued action, in push order.
    pub fn drain(&mut self) -> std::vec::Drain<'_, ProtocolAction<M>> {
        self.queued.drain(..)
    }

    /// Number of queued actions.
    pub fn len(&self) -> usize {
        self.queued.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queued.is_empty()
    }
}

/// A pure protocol state machine: consumes [`ProtocolEvent`]s, mutates
/// private state, and pushes [`ProtocolAction`]s. Implementations must not
/// perform I/O or read ambient time — `now` is the only clock.
pub trait ProtocolCore {
    /// The application message type the core speaks.
    type Msg;

    /// Handles one event at time `now`, pushing effects into `out`.
    fn handle(
        &mut self,
        now: SimTime,
        event: ProtocolEvent<Self::Msg>,
        out: &mut Actions<Self::Msg>,
    );
}

/// A boxed core is a core, so a backend can hold every role of a deployment
/// in one `Vec` (see [`Deployment`](crate::runner::Deployment)).
impl<C: ProtocolCore + ?Sized> ProtocolCore for Box<C> {
    type Msg = C::Msg;

    fn handle(
        &mut self,
        now: SimTime,
        event: ProtocolEvent<Self::Msg>,
        out: &mut Actions<Self::Msg>,
    ) {
        (**self).handle(now, event, out);
    }
}

/// What a backend needs from a message type: its wire encoding (sockets
/// carry it) and the byte cost derived from that same encoding (the
/// simulator models transfer time from it). Defined beside the field
/// primitives in `dfl_ipfs::wire`, where `IpfsWire`'s table also lives.
pub use dfl_ipfs::wire::WireCost;

/// The one netsim glue type: wraps any [`ProtocolCore`] into a simulation
/// [`Actor`] by translating callbacks into events and replaying the
/// resulting action queue into the [`Context`].
pub struct NetsimAdapter<C: ProtocolCore> {
    core: C,
}

impl<C: ProtocolCore> NetsimAdapter<C> {
    /// Wraps a core.
    pub fn new(core: C) -> NetsimAdapter<C> {
        NetsimAdapter { core }
    }

    /// The wrapped core.
    pub fn core(&self) -> &C {
        &self.core
    }
}

impl<C: ProtocolCore> NetsimAdapter<C>
where
    C::Msg: WireCost + CarriesBlock,
{
    fn dispatch(&mut self, ctx: &mut Context<'_, C::Msg>, event: ProtocolEvent<C::Msg>) {
        // A queue per callback: one kept per node would sit drained between
        // callbacks, sized to that node's largest.
        let mut out = Actions::new();
        self.core.handle(ctx.now(), event, &mut out);
        for action in out.drain() {
            match action {
                ProtocolAction::Send { to, msg } => {
                    // Hashed on a spare core while it travels, as a socket
                    // reader thread hashes beside its node's loop.
                    if let Some(data) = msg.block_bytes() {
                        dfl_ipfs::block::hash_in_flight(data);
                    }
                    ctx.send(to, msg.wire_bytes(), msg)
                }
                ProtocolAction::SetTimer { delay, token } => ctx.set_timer(delay, token),
                ProtocolAction::Record { label, value } => ctx.record(label, value),
                ProtocolAction::Incr { label, delta } => ctx.incr(label, delta),
                ProtocolAction::Observe { label, value } => ctx.observe(label, value),
            }
        }
    }
}

impl<C: ProtocolCore> Actor<C::Msg> for NetsimAdapter<C>
where
    C::Msg: WireCost + CarriesBlock,
{
    fn on_start(&mut self, ctx: &mut Context<'_, C::Msg>) {
        self.dispatch(ctx, ProtocolEvent::Start);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, C::Msg>, from: NodeId, msg: C::Msg) {
        self.dispatch(ctx, ProtocolEvent::Message { from, msg });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, C::Msg>, token: u64) {
        self.dispatch(ctx, ProtocolEvent::Timer { token });
    }

    fn on_fault(&mut self, ctx: &mut Context<'_, C::Msg>, fault: Fault) {
        self.dispatch(ctx, ProtocolEvent::Fault { fault });
    }
}

/// Timer kind (high 32 bits of the token) of a [`StorageRequests`] retry;
/// the low 32 bits carry the request id. Cores that use it keep their own
/// timer kinds clear of it.
pub(crate) const TK_STORAGE_RETRY: u64 = 3 << 32;

/// A role's one storage client: every `Put`, `Get` and `Merge` a trainer,
/// an aggregator or the directory sends goes through it.
///
/// It numbers the requests. Each is re-sent under the same id to the next
/// storage node, round-robin, whenever `fetch_timeout` passes without a
/// reply, until it is [`answered`](StorageRequests::answered). A late reply
/// from an earlier target finds its request gone and is dropped, and so is
/// the retry timer of an answered request.
///
/// It also keeps what the round leaves in storage, for
/// [`end_round`](StorageRequests::end_round): each stored block at every
/// node its `Put` went to (the copy is at whichever of them took it), and,
/// for a client built with [`releasing`](StorageRequests::releasing), each
/// block fetched at every node its `Get` went to (a gateway caches what it
/// fetches for a client).
pub(crate) struct StorageRequests<P> {
    next_req: u64,
    pending: HashMap<u64, Pending<P>>,
    /// Blocks stored this round, one entry per node the `Put` went to.
    pinned: Vec<(NodeId, Cid)>,
    /// Blocks asked for this round, one entry per node the `Get` went to;
    /// `None` for a client that never releases.
    fetched: Option<Vec<(NodeId, Cid)>>,
}

/// An unanswered request: what it is for, every storage node it went to
/// (each once, the current target last), and the wire a retry re-sends.
struct Pending<P> {
    purpose: P,
    targets: Vec<NodeId>,
    wire: IpfsWire,
}

impl<P> Default for StorageRequests<P> {
    fn default() -> Self {
        StorageRequests {
            next_req: 0,
            pending: HashMap::new(),
            pinned: Vec::new(),
            fetched: None,
        }
    }
}

impl<P> StorageRequests<P> {
    /// A client whose request ids count up from `last + 1`: two clients of
    /// one node numbered apart keep their replies and retry timers apart.
    /// Ids must stay below 2³², the low half of a retry token.
    pub(crate) fn numbered_after(last: u64) -> Self {
        StorageRequests {
            next_req: last,
            ..StorageRequests::default()
        }
    }

    /// A client that releases, at the round end, the copies its `Get`s
    /// left in the nodes that no `Unpin` reaches.
    pub(crate) fn releasing() -> Self {
        StorageRequests {
            fetched: Some(Vec::new()),
            ..StorageRequests::default()
        }
    }

    /// Sends the next request, `wire(id)`, for `purpose` to storage node
    /// `to`, and returns its id.
    pub(crate) fn send(
        &mut self,
        out: &mut Actions<Msg>,
        topo: &Topology,
        purpose: P,
        to: NodeId,
        wire: impl FnOnce(u64) -> IpfsWire,
    ) -> u64 {
        self.next_req += 1;
        let req = self.next_req;
        let (targets, wire) = (Vec::new(), wire(req));
        let pending = Pending {
            purpose,
            targets,
            wire,
        };
        self.pending.insert(req, pending);
        self.resend(out, topo, req, to);
        req
    }

    /// Handles the [`TK_STORAGE_RETRY`] timer of request `req`: re-sends it
    /// to the storage node after its last target, unless it was answered.
    pub(crate) fn retry(&mut self, out: &mut Actions<Msg>, topo: &Topology, req: u64) {
        let Some(&last) = self.pending.get(&req).and_then(|p| p.targets.last()) else {
            return; // answered meanwhile
        };
        let ids = topo.ipfs_ids();
        let idx = ids.iter().position(|&n| n == last).unwrap_or(0);
        self.resend(out, topo, req, ids[(idx + 1) % ids.len()]);
    }

    fn resend(&mut self, out: &mut Actions<Msg>, topo: &Topology, req: u64, to: NodeId) {
        let Some(pending) = self.pending.get_mut(&req) else {
            return;
        };
        if let (IpfsWire::Get { cid, .. }, Some(fetched)) = (&pending.wire, &mut self.fetched) {
            if !fetched.contains(&(to, *cid)) {
                fetched.push((to, *cid));
            }
        }
        pending.targets.retain(|&n| n != to);
        pending.targets.push(to);
        let token = TK_STORAGE_RETRY | (req & 0xFFFF_FFFF);
        out.set_timer(topo.config().fetch_timeout, token);
        out.send(to, Msg::Ipfs(pending.wire.clone()));
    }

    /// The purpose of the request `reply` answers, if it is still wanted:
    /// a `PutAck` answers a `Put`, a `GetOk` or `GetErr` a `Get` of the
    /// CID it names, a `MergeOk` or `MergeErr` a `Merge`. A block a
    /// `PutAck` reports stored is unpinned at the round end at every node
    /// its `Put` went to.
    pub(crate) fn answered(&mut self, reply: &IpfsWire) -> Option<P> {
        let req = match *reply {
            IpfsWire::PutAck { req_id, .. }
            | IpfsWire::GetOk { req_id, .. }
            | IpfsWire::GetErr { req_id, .. }
            | IpfsWire::MergeOk { req_id, .. }
            | IpfsWire::MergeErr { req_id, .. } => req_id,
            _ => return None,
        };
        let answers = match (reply, &self.pending.get(&req)?.wire) {
            (IpfsWire::PutAck { .. }, IpfsWire::Put { .. }) => true,
            (
                IpfsWire::GetOk { cid, .. } | IpfsWire::GetErr { cid, .. },
                IpfsWire::Get { cid: asked, .. },
            ) => cid == asked,
            (IpfsWire::MergeOk { .. } | IpfsWire::MergeErr { .. }, IpfsWire::Merge { .. }) => true,
            _ => false,
        };
        if !answers {
            return None; // another kind, or another CID, under a live id: misrouted
        }
        let pending = self.pending.remove(&req)?;
        if let IpfsWire::PutAck { cid, .. } = *reply {
            for to in pending.targets {
                if !self.pinned.contains(&(to, cid)) {
                    self.pinned.push((to, cid));
                }
            }
        }
        Some(pending.purpose)
    }

    /// The purposes of the requests still unanswered.
    pub(crate) fn pending(&self) -> impl Iterator<Item = &P> {
        self.pending.values().map(|p| &p.purpose)
    }

    /// Forgets the unanswered requests whose purpose `keep` refuses: their
    /// retry timers then find nothing to re-send, and late replies are
    /// dropped.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&P) -> bool) {
        self.pending.retain(|_, p| keep(&p.purpose));
    }

    /// Ends the round: forgets its unanswered requests, unpins every block
    /// it stored at every node that may hold it, then releases each block
    /// it fetched at the nodes where no `Unpin` goes (an `Unpin`'s `gc`
    /// collects the cached copies there anyway).
    pub(crate) fn end_round(&mut self, out: &mut Actions<Msg>, topo: &Topology) {
        self.pending.clear();
        let replicate = topo.config().replication;
        let pinned = std::mem::take(&mut self.pinned);
        for &(to, cid) in &pinned {
            out.send(to, Msg::Ipfs(IpfsWire::Unpin { cid, replicate }));
        }
        let fetched = self.fetched.as_mut().map(std::mem::take);
        for (to, cid) in fetched.into_iter().flatten() {
            if !pinned.iter().any(|&(node, _)| node == to) {
                out.send(to, Msg::Ipfs(IpfsWire::Release { cid }));
            }
        }
    }
}

/// Sans-io wrapper for the storage layer: drives an [`IpfsNode`] (already
/// a pure request/response machine) through the [`ProtocolCore`] API, so
/// storage nodes ride the same backends as the IPLS roles.
///
/// After every event it pushes, in this order, the produced wires, the
/// timer requests, the drained stat counters and the store-occupancy sample
/// — the order the trace fingerprints pin.
pub struct IpfsCore<M> {
    node: IpfsNode,
    last_reported_blocks: usize,
    _msg: PhantomData<M>,
}

impl<M: WireEmbed> IpfsCore<M> {
    /// Wraps a node.
    pub fn new(node: IpfsNode) -> IpfsCore<M> {
        IpfsCore {
            node,
            last_reported_blocks: 0,
            _msg: PhantomData,
        }
    }

    /// The wrapped node.
    pub fn node(&self) -> &IpfsNode {
        &self.node
    }

    fn flush(&mut self, outgoing: Vec<Outgoing>, out: &mut Actions<M>) {
        for Outgoing { to, wire } in outgoing {
            out.send(to, M::embed(wire));
        }
        for (token, delay) in self.node.take_timer_requests() {
            out.set_timer(delay, token);
        }
        for (label, delta) in self.node.take_stats() {
            out.incr(label, delta);
        }
        let blocks = self.node.store().len();
        if blocks != self.last_reported_blocks {
            self.last_reported_blocks = blocks;
            out.record(crate::labels::STORE_BLOCKS, blocks as f64);
        }
    }
}

impl<M: WireEmbed> ProtocolCore for IpfsCore<M> {
    type Msg = M;

    fn handle(&mut self, _now: SimTime, event: ProtocolEvent<M>, out: &mut Actions<M>) {
        match event {
            ProtocolEvent::Start => {}
            ProtocolEvent::Message { from, msg } => {
                let wire = match msg.extract() {
                    Ok(wire) => wire,
                    Err(_) => return, // not a storage message; ignore
                };
                let produced = self.node.handle(from, wire);
                self.flush(produced, out);
            }
            ProtocolEvent::Timer { token } => {
                let produced = self.node.on_timeout(token);
                self.flush(produced, out);
            }
            ProtocolEvent::Fault { fault } => match fault {
                // A crash loses volatile state (request tables, armed
                // timers); stored blocks are durable and survive.
                Fault::Crash(_) => self.node.drop_volatile_state(),
                Fault::DataLoss(_) => {
                    self.node.drop_stored_data();
                    self.last_reported_blocks = 0;
                    out.record(crate::labels::STORE_BLOCKS, 0.0);
                }
                // A failing disk: writes are still acknowledged, never kept.
                Fault::LoseWrites(_) => self.node.set_lossy(true),
                // Recovery, link shaping, partitions and frame chaos are
                // transport-level: the storage state machine is unaffected.
                _ => {}
            },
            ProtocolEvent::DeliveryFailure { .. } => {
                out.incr(crate::labels::DELIVERY_FAILED, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfl_ipfs::wire::{DecodeError, Reader, Sink};

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u64);

    impl CarriesBlock for Ping {}

    impl WireCost for Ping {
        fn encode_into<S: Sink>(&self, out: &mut S) {
            self.0.encode_into(out);
        }
        fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Ping, DecodeError> {
            Ok(Ping(u64::decode_from(r, context)?))
        }
        fn encoded_len(&self) -> usize {
            self.0.encoded_len()
        }
    }

    /// Echoes every message back with the token of the last timer fired.
    struct Echo {
        timer_token: u64,
    }

    impl ProtocolCore for Echo {
        type Msg = Ping;

        fn handle(&mut self, _now: SimTime, event: ProtocolEvent<Ping>, out: &mut Actions<Ping>) {
            match event {
                ProtocolEvent::Start => out.set_timer(SimDuration::from_millis(1), 7),
                ProtocolEvent::Message { from, msg } => {
                    out.send(from, Ping(msg.0 + self.timer_token));
                    out.incr("echoed", 1);
                }
                ProtocolEvent::Timer { token } => self.timer_token = token,
                ProtocolEvent::Fault { .. } | ProtocolEvent::DeliveryFailure { .. } => {}
            }
        }
    }

    #[test]
    fn actions_drain_in_push_order() {
        let mut out: Actions<Ping> = Actions::new();
        out.record("a", 1.0);
        out.send(NodeId(3), Ping(9));
        out.observe("h", 2.0);
        assert_eq!(out.len(), 3);
        let drained: Vec<_> = out.drain().collect();
        assert!(matches!(
            drained[0],
            ProtocolAction::Record { label: "a", .. }
        ));
        assert!(matches!(
            drained[1],
            ProtocolAction::Send {
                to: NodeId(3),
                msg: Ping(9)
            }
        ));
        assert!(matches!(
            drained[2],
            ProtocolAction::Observe { label: "h", .. }
        ));
        assert!(out.is_empty());
    }

    /// A reply under a live `Get`'s id that names another CID answers
    /// nothing: the request stays pending, and its retry moves on.
    #[test]
    fn a_get_reply_for_another_cid_is_not_an_answer() {
        let topo = Topology::new(crate::TaskConfig::default(), 8).unwrap();
        let mut requests = StorageRequests::<&str>::default();
        let mut out: Actions<Msg> = Actions::new();
        let (asked, other) = (Cid::of(b"asked"), Cid::of(b"other"));
        let first = topo.ipfs_ids()[0];
        let req = requests.send(&mut out, &topo, "get", first, |req_id| IpfsWire::Get {
            cid: asked,
            req_id,
        });
        let data = bytes::Bytes::from_static(b"other");
        let wrong = [
            IpfsWire::GetOk {
                cid: other,
                data: data.clone(),
                req_id: req,
            },
            IpfsWire::GetErr {
                cid: other,
                req_id: req,
            },
        ];
        for reply in &wrong {
            assert_eq!(requests.answered(reply), None, "{reply:?}");
        }
        assert_eq!(requests.pending().count(), 1);
        out.drain().for_each(drop);
        requests.retry(&mut out, &topo, req);
        let resent: Vec<_> = out
            .drain()
            .filter_map(|action| match action {
                ProtocolAction::Send { to, .. } => Some(to),
                _ => None,
            })
            .collect();
        assert_eq!(resent, [topo.ipfs_ids()[1]], "the retry moves on");
        let right = IpfsWire::GetErr {
            cid: asked,
            req_id: req,
        };
        assert_eq!(requests.answered(&right), Some("get"));
        assert_eq!(requests.pending().count(), 0);
    }

    /// A Fig. 1-shaped round on the simulator, every node behind the
    /// adapter, makes exactly 17 SHA-256 passes: the 16 gradients and the
    /// update, each started in flight by the adapter and taken by the
    /// storage node that stores it, on whichever thread ran it. Merging and
    /// the gateways' fetches hash nothing.
    mod fig1_round {
        use super::*;
        use bytes::Bytes;
        use dfl_ipfs::block::taken_in_flight;
        use dfl_ipfs::cid::hashes;
        use dfl_ipfs::merge::merge_blobs;
        use dfl_netsim::engine::{LinkSpec, Simulation};

        const STORAGE: usize = 16;
        const PROVIDERS: usize = 4;

        /// The clients of one Fig. 1 round, as one node: 16 trainers put a
        /// gradient at their gateways; the aggregator merges them at 4
        /// providers, sums the replies and puts the update; the other 15
        /// gateways fetch it for their trainers.
        struct Round {
            gradients: Vec<Bytes>,
            cids: Vec<Cid>,
            merged: Vec<Bytes>,
            update: Vec<u8>,
        }

        impl ProtocolCore for Round {
            type Msg = Msg;

            fn handle(&mut self, _now: SimTime, event: ProtocolEvent<Msg>, out: &mut Actions<Msg>) {
                let wire = match event {
                    ProtocolEvent::Start => {
                        for (k, data) in self.gradients.iter().enumerate() {
                            let put = IpfsWire::Put {
                                data: data.clone(),
                                req_id: k as u64,
                                replicate: 1,
                            };
                            out.send(NodeId(k), Msg::Ipfs(put));
                        }
                        return;
                    }
                    ProtocolEvent::Message {
                        msg: Msg::Ipfs(wire),
                        ..
                    } => wire,
                    other => panic!("unexpected {other:?}"),
                };
                match wire {
                    IpfsWire::PutAck { cid, req_id } if req_id < STORAGE as u64 => {
                        self.cids.push(cid);
                        if self.cids.len() == STORAGE {
                            self.cids.sort_unstable();
                            let group = STORAGE / PROVIDERS;
                            for (p, cids) in self.cids.chunks(group).enumerate() {
                                let merge = IpfsWire::Merge {
                                    cids: cids.to_vec(),
                                    req_id: 100 + p as u64,
                                };
                                out.send(NodeId(p), Msg::Ipfs(merge));
                            }
                        }
                    }
                    IpfsWire::MergeOk { data, .. } => {
                        self.merged.push(data);
                        if self.merged.len() == PROVIDERS {
                            let sum = Bytes::from(merge_blobs(&self.merged).unwrap());
                            let put = IpfsWire::Put {
                                data: sum,
                                req_id: 200,
                                replicate: 1,
                            };
                            out.send(NodeId(0), Msg::Ipfs(put));
                        }
                    }
                    IpfsWire::PutAck { cid, req_id: 200 } => {
                        for k in 1..STORAGE {
                            let get = IpfsWire::Get {
                                cid,
                                req_id: 300 + k as u64,
                            };
                            out.send(NodeId(k), Msg::Ipfs(get));
                        }
                    }
                    IpfsWire::GetOk { data, .. } => {
                        assert_eq!(data[..], self.update[..]);
                        out.incr("fetched", 1);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }

        #[test]
        fn a_fig1_round_hashes_each_stored_block_once_in_flight() {
            let elements = 2048;
            let gradients: Vec<Bytes> = (0..STORAGE as i64)
                .map(|k| {
                    let values = (0..elements).map(|i| k * 1000 + i).chain([1 << 24]);
                    Bytes::from(values.flat_map(i64::to_le_bytes).collect::<Vec<u8>>())
                })
                .collect();
            let update = merge_blobs(&gradients).unwrap();
            let mut sim: Simulation<Msg> = Simulation::new();
            let link = LinkSpec::symmetric_mbps(10, SimDuration::from_millis(10));
            let ids: Vec<NodeId> = (0..STORAGE).map(NodeId).collect();
            let roster = IpfsNode::roster_for(&ids);
            for &id in &ids {
                let node = IpfsCore::<Msg>::new(IpfsNode::new(id, roster.clone()));
                sim.add_node(NetsimAdapter::new(node), link);
            }
            let round = Round {
                gradients,
                cids: Vec::new(),
                merged: Vec::new(),
                update,
            };
            sim.add_node(NetsimAdapter::new(round), link);
            let (before, taken) = (hashes(), taken_in_flight());
            sim.run();
            assert_eq!(hashes() - before, STORAGE + 1);
            assert_eq!(
                taken_in_flight() - taken,
                STORAGE + 1,
                "each taken by its receiver"
            );
            assert_eq!(sim.into_trace().counter("fetched"), STORAGE as u64 - 1);
        }
    }

    #[test]
    fn adapter_round_trips_through_a_simulation() {
        use dfl_netsim::engine::{LinkSpec, Simulation};
        let mut sim: Simulation<Ping> = Simulation::new();
        let link = LinkSpec::symmetric_mbps(10, SimDuration::from_millis(1));
        let echo = sim.add_node(NetsimAdapter::new(Echo { timer_token: 0 }), link);

        struct Driver {
            echo: NodeId,
        }
        impl Actor<Ping> for Driver {
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                // Give the echo node's start timer (1 ms) room to fire first.
                ctx.set_timer(SimDuration::from_millis(5), 0);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, _token: u64) {
                ctx.send(self.echo, 8, Ping(35));
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, Ping>, _from: NodeId, _msg: Ping) {}
        }
        sim.add_node(Driver { echo }, link);
        sim.run();
        let trace = sim.into_trace();
        // The echo core saw its start timer (token 7) before the ping.
        assert_eq!(trace.counter("echoed"), 1);
    }
}
