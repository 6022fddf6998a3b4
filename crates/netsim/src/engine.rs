//! Discrete-event simulation engine.
//!
//! Protocol code is written as [`Actor`]s: state machines that react to
//! start-up, timers, and delivered messages, and act through a [`Context`]
//! (send a message, set a timer, record a measurement). Message transport is
//! simulated at flow level: every message is a flow with an explicit wire
//! size, shaped by the max–min fair allocator in [`crate::fair`] and the
//! per-node access-link latency.
//!
//! Determinism: the event queue orders by `(time, sequence)` where the
//! sequence number increments per scheduled event, so runs with the same
//! inputs produce identical traces bit-for-bit.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::fair::{max_min_rates, FlowDesc, WaterFiller};
use crate::fault::{Fault, FaultPlan};
use crate::time::{SimDuration, SimTime};
use crate::trace::{net, Trace};

/// Completion horizons beyond this many microseconds (~3 000 simulated
/// years) are treated as starvation: the flow keeps its rate for byte
/// accounting, but no completion is scheduled until a reallocation gives it
/// a usable rate. Prevents `SimTime` overflow from denormal rates.
const MAX_COMPLETION_DELAY_US: f64 = 1e17;

/// Identifies a node in the simulation.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Access-link characteristics of a node.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LinkSpec {
    /// Uplink capacity, bits per second.
    pub up_bps: f64,
    /// Downlink capacity, bits per second.
    pub down_bps: f64,
    /// One-way propagation latency.
    pub latency: SimDuration,
}

impl LinkSpec {
    /// A symmetric link of `mbps` megabits/s with the given latency.
    pub fn symmetric_mbps(mbps: u64, latency: SimDuration) -> LinkSpec {
        let bps = (mbps * 1_000_000) as f64;
        LinkSpec {
            up_bps: bps,
            down_bps: bps,
            latency,
        }
    }
}

/// A protocol participant. Implementations hold their own state and react
/// to events through the [`Context`].
///
/// The type parameter `M` is the application message type shared by all
/// actors in one simulation.
pub trait Actor<M> {
    /// Called once at simulation start (time 0).
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called when a message sent with [`Context::send`] is fully delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M);

    /// Called when a timer set with [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, M>, _token: u64) {}

    /// Called when an injected fault hits this node (see [`Fault`] for the
    /// semantics of each kind). Crashed nodes still receive this callback —
    /// it is how they model losing volatile state — but any command they
    /// issue while down is discarded by the engine.
    fn on_fault(&mut self, _ctx: &mut Context<'_, M>, _fault: Fault) {}
}

/// An in-flight message transfer.
///
/// Byte progress is *exact at rate changes*: `bytes_remaining` is the
/// outstanding amount as of `rate_since`, and is only folded forward
/// (`remaining -= rate/8 · Δt`) when the flow's rate actually changes.
/// Completion is event-driven — scheduled at the predicted `done_at` rather
/// than discovered by scanning — and a completed flow delivers exactly
/// `total_bytes`, so no floating-point drift accumulates into the ledger.
#[derive(Debug)]
struct Flow<M> {
    src: NodeId,
    dst: NodeId,
    /// Bytes outstanding as of `rate_since`.
    bytes_remaining: f64,
    /// Current fair-share rate in bits/s (updated on every reallocation).
    rate_bps: f64,
    /// Instant `rate_bps` took effect and `bytes_remaining` was last exact.
    rate_since: SimTime,
    /// Predicted completion instant; `None` while starved (rate 0).
    done_at: Option<SimTime>,
    msg: M,
    total_bytes: u64,
}

impl<M> Flow<M> {
    /// Bytes outstanding at `now`, folding progress under the current rate.
    fn remaining_at(&self, now: SimTime) -> f64 {
        if self.rate_bps > 0.0 {
            let dt = now.saturating_duration_since(self.rate_since).as_secs_f64();
            (self.bytes_remaining - self.rate_bps / 8.0 * dt).max(0.0)
        } else {
            self.bytes_remaining
        }
    }
}

/// Removes one occurrence of `id` from a sorted id list.
fn remove_sorted(list: &mut Vec<u64>, id: u64) {
    if let Ok(i) = list.binary_search(&id) {
        list.remove(i);
    }
}

/// Queued simulation events.
enum EventKind {
    Start(NodeId),
    Timer {
        node: NodeId,
        token: u64,
    },
    /// Check flow progress; fires at the predicted next completion.
    FlowCheck,
    /// A fully-transferred message arrives after the propagation latency.
    Deliver {
        flow_id: u64,
    },
    /// An injected fault takes effect.
    Fault(Fault),
}

/// Commands produced by actors during a callback; applied by the engine
/// afterwards (so the actor can't observe half-updated engine state).
enum Command<M> {
    Send {
        from: NodeId,
        to: NodeId,
        bytes: u64,
        msg: M,
    },
    Timer {
        node: NodeId,
        delay: SimDuration,
        token: u64,
    },
}

/// The actor's window into the engine during a callback.
pub struct Context<'a, M> {
    now: SimTime,
    self_id: NodeId,
    commands: &'a mut Vec<Command<M>>,
    trace: &'a mut Trace,
}

impl<'a, M> Context<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's node id.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Sends `msg` to `to` as a flow of `bytes` wire bytes. Delivery fires
    /// `on_message` at the destination once the flow completes plus one
    /// propagation latency. A `bytes` of 0 models a latency-only control
    /// message.
    pub fn send(&mut self, to: NodeId, bytes: u64, msg: M) {
        self.commands.push(Command::Send {
            from: self.self_id,
            to,
            bytes,
            msg,
        });
    }

    /// Schedules `on_timer(token)` on this actor after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.commands.push(Command::Timer {
            node: self.self_id,
            delay,
            token,
        });
    }

    /// Records a measurement point in the shared trace.
    pub fn record(&mut self, label: &str, value: f64) {
        let now = self.now;
        let id = self.self_id;
        self.trace.record(now, id, label, value);
    }

    /// Adds `delta` to the typed counter `label` in the shared trace.
    pub fn incr(&mut self, label: &str, delta: u64) {
        self.trace.add(label, delta);
    }

    /// Adds a histogram sample under `label` in the shared trace.
    pub fn observe(&mut self, label: &str, value: f64) {
        self.trace.observe(label, value);
    }

    /// Read access to the trace (e.g. to check a milestone already happened).
    pub fn trace(&self) -> &Trace {
        self.trace
    }
}

/// The simulation: nodes, links, queued events, and in-flight flows.
///
/// ```
/// use dfl_netsim::engine::{Actor, Context, LinkSpec, NodeId, Simulation};
/// use dfl_netsim::time::SimDuration;
///
/// struct Ping { peer: Option<NodeId> }
/// impl Actor<u32> for Ping {
///     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
///         if let Some(peer) = self.peer {
///             ctx.send(peer, 1000, 7);
///         }
///     }
///     fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: NodeId, msg: u32) {
///         ctx.record("got", msg as f64);
///     }
/// }
///
/// let mut sim = Simulation::new();
/// let link = LinkSpec::symmetric_mbps(10, SimDuration::from_millis(5));
/// let b = sim.reserve_id(1);
/// let a = sim.add_node(Ping { peer: Some(b) }, link);
/// sim.add_node(Ping { peer: None }, link);
/// sim.run();
/// assert_eq!(sim.trace().find(b, "got").len(), 1);
/// # let _ = a;
/// ```
pub struct Simulation<M> {
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    links: Vec<LinkSpec>,
    /// Which nodes are currently crashed (no callbacks, no traffic).
    down: Vec<bool>,
    /// Which nodes are currently partitioned away (callbacks run, but no
    /// traffic crosses to or from any other node).
    isolated: Vec<bool>,
    /// Per-node outbound chaos process (spec + its roll stream), installed
    /// by [`Fault::Chaos`].
    chaos: Vec<Option<(crate::fault::ChaosSpec, crate::fault::ChaosRng)>>,
    queue: BinaryHeap<Reverse<(SimTime, u64)>>,
    queued: HashMap<(SimTime, u64), EventKind>,
    seq: u64,
    now: SimTime,
    flows: HashMap<u64, Flow<M>>,
    next_flow_id: u64,
    trace: Trace,
    commands: Vec<Command<M>>,
    limit: Option<SimTime>,
    /// Active bandwidth-shaped flow ids per endpoint node (sorted; ids are
    /// allocated monotonically so pushes keep the order). A flow appears in
    /// both its source's and destination's list.
    node_flows: Vec<Vec<u64>>,
    /// In-flight zero-byte control messages per endpoint (torn on crash
    /// like any flow, but never shaped).
    node_ctrl: Vec<Vec<u64>>,
    /// Predicted flow completions, lazily invalidated against
    /// [`Flow::done_at`] (a rate change abandons the stale entry).
    completions: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Capacity mirrors of `links` (dense arrays handed to the allocator
    /// without being rebuilt per call).
    up_bps: Vec<f64>,
    down_bps: Vec<f64>,
    /// When set, every reallocation recomputes *all* active flows through
    /// the reference [`max_min_rates`] instead of the component-scoped
    /// [`WaterFiller`] — the oracle mode equivalence tests compare against.
    reference_alloc: bool,
    filler: WaterFiller,
    /// Nodes whose constraint component must be reallocated before the
    /// next event is handled (drained by [`Simulation::reallocate`]).
    realloc_seeds: Vec<usize>,
    /// Component-walk bookkeeping: `visit_epoch[n] == epoch` marks node `n`
    /// visited in the current walk, without clearing between walks.
    visit_epoch: Vec<u64>,
    epoch: u64,
    // Persistent scratch for reallocation.
    comp_ids: Vec<u64>,
    comp_descs: Vec<FlowDesc>,
    comp_rates: Vec<f64>,
    walk_stack: Vec<usize>,
}

impl<M> Default for Simulation<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Simulation<M> {
    /// Creates an empty simulation.
    pub fn new() -> Simulation<M> {
        Simulation {
            actors: Vec::new(),
            links: Vec::new(),
            down: Vec::new(),
            isolated: Vec::new(),
            chaos: Vec::new(),
            queue: BinaryHeap::new(),
            queued: HashMap::new(),
            seq: 0,
            now: SimTime::ZERO,
            flows: HashMap::new(),
            next_flow_id: 0,
            trace: Trace::new(),
            commands: Vec::new(),
            limit: None,
            node_flows: Vec::new(),
            node_ctrl: Vec::new(),
            completions: BinaryHeap::new(),
            up_bps: Vec::new(),
            down_bps: Vec::new(),
            reference_alloc: false,
            filler: WaterFiller::new(),
            realloc_seeds: Vec::new(),
            visit_epoch: Vec::new(),
            epoch: 0,
            comp_ids: Vec::new(),
            comp_descs: Vec::new(),
            comp_rates: Vec::new(),
            walk_stack: Vec::new(),
        }
    }

    /// Selects the allocator: `true` recomputes every active flow through
    /// the reference `max_min_rates` on each reallocation (slow oracle),
    /// `false` (default) uses the incremental component-scoped fast path.
    /// Both produce bit-identical traces.
    pub fn set_reference_allocator(&mut self, on: bool) {
        self.reference_alloc = on;
    }

    /// Stops the simulation when simulated time reaches `t` (events after
    /// `t` are not processed).
    pub fn set_time_limit(&mut self, t: SimTime) {
        self.limit = Some(t);
    }

    /// The id the next call to [`Simulation::add_node`] will return, offset
    /// by `ahead`. Lets mutually-referencing actors be constructed before
    /// their peers exist.
    pub fn reserve_id(&self, ahead: usize) -> NodeId {
        NodeId(self.actors.len() + ahead)
    }

    /// Adds an actor behind the given access link; returns its id.
    pub fn add_node(&mut self, actor: impl Actor<M> + 'static, link: LinkSpec) -> NodeId {
        let id = NodeId(self.actors.len());
        self.actors.push(Some(Box::new(actor)));
        self.links.push(link);
        self.down.push(false);
        self.isolated.push(false);
        self.chaos.push(None);
        self.node_flows.push(Vec::new());
        self.node_ctrl.push(Vec::new());
        self.up_bps.push(link.up_bps);
        self.down_bps.push(link.down_bps);
        self.visit_epoch.push(0);
        self.push_event(SimTime::ZERO, EventKind::Start(id));
        id
    }

    /// Schedules an injected fault at absolute time `t`.
    ///
    /// # Panics
    ///
    /// Panics if the fault references a node that has not been added yet
    /// (apply fault plans after building the topology).
    pub fn schedule_fault(&mut self, t: SimTime, fault: Fault) {
        assert!(
            fault.node().0 < self.actors.len(),
            "fault references unknown node {}",
            fault.node()
        );
        self.push_event(t, EventKind::Fault(fault));
    }

    /// Schedules every fault in `plan`. Call after all nodes are added.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for &(t, fault) in plan.events() {
            self.schedule_fault(t, fault);
        }
    }

    /// Whether `node` is currently crashed.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down[node.0]
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The measurement trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the simulation, returning the trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Immutable access to an actor (for post-run inspection).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn actor(&self, id: NodeId) -> &dyn Actor<M> {
        // Proof: a slot is empty only inside `dispatch`, which holds `&mut self`.
        #[allow(clippy::expect_used)]
        self.actors[id.0]
            .as_deref()
            .expect("actor present outside callbacks")
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        let key = (time, self.seq);
        self.seq += 1;
        self.queue.push(Reverse(key));
        self.queued.insert(key, kind);
    }

    /// Runs until the event queue drains (or the time limit is hit).
    pub fn run(&mut self) {
        loop {
            let Some(Reverse(key)) = self.queue.pop() else {
                // Flows born in the final instant are still unrated — their
                // completions are the only future events left, so flush and
                // keep going until rating stops producing new events.
                if self.realloc_seeds.is_empty() {
                    break;
                }
                self.reallocate();
                continue;
            };
            let (time, _) = key;
            if time > self.now && !self.realloc_seeds.is_empty() {
                // Instant-batched reallocation: every dispatch at the
                // current instant deferred its component recompute to this
                // boundary. Max–min rates depend only on the final flow set
                // of the instant (flows created mid-instant have zero
                // elapsed time), so one recompute here assigns exactly the
                // rates the per-dispatch recomputes would have converged
                // to — while turning an N-message same-instant burst from
                // N component walks into one. The flush may predict
                // completions earlier than `time`, so re-queue and re-pop.
                self.queue.push(Reverse(key));
                self.reallocate();
                continue;
            }
            if let Some(limit) = self.limit {
                if time > limit {
                    break;
                }
            }
            // Proof: `push_event` stores a body under every key it queues,
            // and this is the only line that removes one.
            #[allow(clippy::expect_used)]
            let kind = self.queued.remove(&key).expect("queued event has a body");
            debug_assert!(time >= self.now, "time must not run backwards");
            self.now = time;
            match kind {
                EventKind::Start(node) => {
                    if !self.down[node.0] {
                        self.dispatch(node, |actor, ctx| actor.on_start(ctx))
                    }
                }
                EventKind::Timer { node, token } => {
                    // Timers queued for a crashed node are dropped, not
                    // deferred: the actor re-arms what it needs on Recover.
                    if !self.down[node.0] {
                        self.dispatch(node, |actor, ctx| actor.on_timer(ctx, token))
                    }
                }
                EventKind::FlowCheck => self.process_completions(),
                EventKind::Deliver { flow_id } => {
                    if let Some(flow) = self.flows.remove(&flow_id) {
                        if flow.total_bytes == 0 {
                            // Control message: retire it from the teardown
                            // lists (bandwidth flows left them at completion).
                            remove_sorted(&mut self.node_ctrl[flow.src.0], flow_id);
                            remove_sorted(&mut self.node_ctrl[flow.dst.0], flow_id);
                        }
                        if self.down[flow.dst.0] {
                            // Receiver crashed after the transfer completed
                            // but before delivery: the message is lost, but
                            // the full payload still traversed the network.
                            if flow.total_bytes > 0 {
                                self.trace.count_bytes(flow.src, flow.dst, flow.total_bytes);
                                self.trace.record(
                                    self.now,
                                    flow.dst,
                                    net::FLOW_UNDELIVERED,
                                    flow.total_bytes as f64,
                                );
                            }
                            continue;
                        }
                        self.trace.count_bytes(flow.src, flow.dst, flow.total_bytes);
                        self.dispatch(flow.dst, |actor, ctx| {
                            actor.on_message(ctx, flow.src, flow.msg)
                        });
                    }
                }
                EventKind::Fault(fault) => self.apply_fault(fault),
            }
            self.apply_commands();
        }
    }

    fn dispatch(&mut self, node: NodeId, f: impl FnOnce(&mut dyn Actor<M>, &mut Context<'_, M>)) {
        // Proof: a slot is empty only while its actor runs, and an actor
        // reaches the engine only through `Context`, which cannot dispatch.
        #[allow(clippy::expect_used)]
        let mut actor = self.actors[node.0].take().expect("no reentrant dispatch");
        let mut ctx = Context {
            now: self.now,
            self_id: node,
            commands: &mut self.commands,
            trace: &mut self.trace,
        };
        f(actor.as_mut(), &mut ctx);
        self.actors[node.0] = Some(actor);
    }

    /// Applies one injected fault (see [`Fault`] for semantics).
    fn apply_fault(&mut self, fault: Fault) {
        match fault {
            Fault::Crash(node) => {
                if self.down[node.0] {
                    return;
                }
                self.down[node.0] = true;
                self.trace.record(self.now, node, net::FAULT_CRASH, 1.0);
                // Tear down every transfer touching the node: senders see
                // the connection die (no delivery), receivers get nothing.
                // The bytes already on the wire are still accounted — the
                // sender transmitted them either way, and a surviving
                // receiver took delivery of the (useless) prefix.
                let mut torn: Vec<u64> = self.node_flows[node.0].clone();
                torn.extend_from_slice(&self.node_ctrl[node.0]);
                torn.sort_unstable(); // deterministic trace order
                torn.dedup(); // a self-flow lists the node as both endpoints
                for id in torn {
                    // Proof: a flow is in `node_flows` / `node_ctrl` exactly
                    // while it is in `flows`; every removal updates both.
                    #[allow(clippy::expect_used)]
                    let flow = self.flows.remove(&id).expect("listed flow exists");
                    if flow.total_bytes > 0 {
                        remove_sorted(&mut self.node_flows[flow.src.0], id);
                        remove_sorted(&mut self.node_flows[flow.dst.0], id);
                        self.realloc_seeds.push(flow.src.0);
                        self.realloc_seeds.push(flow.dst.0);
                    } else {
                        remove_sorted(&mut self.node_ctrl[flow.src.0], id);
                        remove_sorted(&mut self.node_ctrl[flow.dst.0], id);
                    }
                    let transferred =
                        (flow.total_bytes as f64 - flow.remaining_at(self.now).max(0.0))
                            .clamp(0.0, flow.total_bytes as f64) as u64;
                    if transferred == 0 {
                        continue;
                    }
                    if flow.dst == node {
                        // Receiver crashed: the sender spent uplink on the
                        // prefix, but no application ever received it.
                        self.trace.count_tx(flow.src, transferred);
                        self.trace.record(
                            self.now,
                            node,
                            net::FLOW_TORN_INBOUND,
                            transferred as f64,
                        );
                    } else {
                        // Sender crashed: the surviving receiver did take
                        // delivery of the truncated prefix.
                        self.trace.count_tx(flow.src, transferred);
                        self.trace.count_rx(flow.dst, transferred);
                        self.trace.record(
                            self.now,
                            node,
                            net::FLOW_TORN_OUTBOUND,
                            transferred as f64,
                        );
                    }
                }
                self.dispatch(node, |actor, ctx| actor.on_fault(ctx, fault));
                self.apply_commands(); // discards the down node's commands
            }
            Fault::Recover(node) => {
                if !self.down[node.0] {
                    return;
                }
                self.down[node.0] = false;
                self.trace.record(self.now, node, net::FAULT_RECOVER, 1.0);
                // The node's capacity is usable again: reallocate its
                // component so flows starved against it wake up. (A no-op
                // for flows whose rates come out unchanged.)
                self.realloc_seeds.push(node.0);
                self.dispatch(node, |actor, ctx| actor.on_fault(ctx, fault));
                self.apply_commands();
            }
            Fault::DataLoss(node) | Fault::LoseWrites(node) => {
                let label = match fault {
                    Fault::DataLoss(_) => net::FAULT_DATA_LOSS,
                    _ => net::FAULT_LOSE_WRITES,
                };
                self.trace.record(self.now, node, label, 1.0);
                self.dispatch(node, |actor, ctx| actor.on_fault(ctx, fault));
                self.apply_commands();
            }
            Fault::DegradeLink {
                node,
                up_bps,
                down_bps,
            } => {
                self.trace
                    .record(self.now, node, net::FAULT_DEGRADE_LINK, 1.0);
                self.links[node.0].up_bps = up_bps;
                self.links[node.0].down_bps = down_bps;
                self.up_bps[node.0] = up_bps;
                self.down_bps[node.0] = down_bps;
                // Reshape the node's component immediately — this is also
                // the wake-up path for flows starved by a zero-capacity
                // link that is now restored.
                self.realloc_seeds.push(node.0);
                self.reallocate();
            }
            Fault::Isolate(node) => {
                if self.isolated[node.0] {
                    return;
                }
                self.isolated[node.0] = true;
                self.trace.record(self.now, node, net::FAULT_ISOLATE, 1.0);
                self.dispatch(node, |actor, ctx| actor.on_fault(ctx, fault));
                self.apply_commands();
            }
            Fault::Heal(node) => {
                if !self.isolated[node.0] {
                    return;
                }
                self.isolated[node.0] = false;
                self.trace.record(self.now, node, net::FAULT_HEAL, 1.0);
                self.dispatch(node, |actor, ctx| actor.on_fault(ctx, fault));
                self.apply_commands();
            }
            Fault::Chaos { node, spec } => {
                self.chaos[node.0] = (!spec.is_noop())
                    .then(|| (spec, crate::fault::ChaosRng::for_node(spec.seed, node)));
                self.trace
                    .record(self.now, node, net::FAULT_CHAOS, spec.loss_pct() as f64);
                self.dispatch(node, |actor, ctx| actor.on_fault(ctx, fault));
                self.apply_commands();
            }
        }
    }

    fn apply_commands(&mut self) {
        let commands = std::mem::take(&mut self.commands);
        for cmd in commands {
            match cmd {
                Command::Send {
                    from,
                    to,
                    bytes,
                    msg,
                } => {
                    if self.down[from.0] {
                        // A crashed node cannot transmit (its on_fault may
                        // still run, but its output is discarded).
                        continue;
                    }
                    if from != to {
                        // Partition and chaos apply to the network between
                        // distinct nodes; loopback traffic is untouched.
                        // Messages destroyed here never enter the network:
                        // no tx/rx bytes are accounted, only the chaos
                        // labels below. (Flows already in flight when a
                        // cut forms still arrive — the partition stops new
                        // traffic, it does not tear existing transfers.)
                        if self.isolated[from.0] || self.isolated[to.0] {
                            self.trace.record(
                                self.now,
                                from,
                                net::CHAOS_PARTITION_DROP,
                                bytes as f64,
                            );
                            continue;
                        }
                        if let Some((spec, rng)) = self.chaos[from.0].as_mut() {
                            if rng.roll_pct() < spec.loss_pct() {
                                self.trace.record(
                                    self.now,
                                    from,
                                    net::CHAOS_FRAME_DROP,
                                    bytes as f64,
                                );
                                continue;
                            }
                        }
                    }
                    let id = self.next_flow_id;
                    self.next_flow_id += 1;
                    if bytes == 0 {
                        // Latency-only control message: skip the scheduler.
                        let latency = self.links[from.0].latency + self.links[to.0].latency;
                        self.flows.insert(
                            id,
                            Flow {
                                src: from,
                                dst: to,
                                bytes_remaining: 0.0,
                                rate_bps: 0.0,
                                rate_since: self.now,
                                done_at: None,
                                msg,
                                total_bytes: 0,
                            },
                        );
                        self.node_ctrl[from.0].push(id);
                        if to != from {
                            self.node_ctrl[to.0].push(id);
                        }
                        self.push_event(self.now + latency, EventKind::Deliver { flow_id: id });
                    } else {
                        self.flows.insert(
                            id,
                            Flow {
                                src: from,
                                dst: to,
                                bytes_remaining: bytes as f64,
                                rate_bps: 0.0,
                                rate_since: self.now,
                                done_at: None,
                                msg,
                                total_bytes: bytes,
                            },
                        );
                        self.node_flows[from.0].push(id);
                        if to != from {
                            self.node_flows[to.0].push(id);
                        }
                        self.realloc_seeds.push(from.0);
                        self.realloc_seeds.push(to.0);
                    }
                }
                Command::Timer { node, delay, token } => {
                    if self.down[node.0] {
                        continue;
                    }
                    self.push_event(self.now + delay, EventKind::Timer { node, token });
                }
            }
        }
        // No reallocate here: seeds accumulate across every dispatch of the
        // current instant and are flushed once, when `run` is about to
        // advance the clock (or by an explicit flush on a same-instant
        // completion/fault path). See the batching comment in `run`.
    }

    /// Completes every flow whose predicted `done_at` is due, then
    /// reallocates the components they leave. Stale completion entries
    /// (their flow was re-rated or torn since they were pushed) are
    /// discarded by comparing against the flow's current `done_at`.
    fn process_completions(&mut self) {
        let mut finished: Vec<u64> = Vec::new();
        while let Some(&Reverse((t, id))) = self.completions.peek() {
            if t > self.now {
                break;
            }
            self.completions.pop();
            if self.flows.get(&id).is_some_and(|f| f.done_at == Some(t)) {
                finished.push(id);
            }
        }
        if finished.is_empty() {
            return;
        }
        finished.sort_unstable(); // deterministic delivery order
        finished.dedup();

        for &id in &finished {
            // Proof: the loop above kept only ids found in `flows`, and
            // nothing between here and there removes a flow.
            #[allow(clippy::expect_used)]
            let flow = self.flows.get_mut(&id).expect("validated above");
            flow.bytes_remaining = 0.0;
            flow.rate_bps = 0.0;
            flow.rate_since = self.now;
            flow.done_at = None;
            let (src, dst) = (flow.src.0, flow.dst.0);
            let latency = self.links[src].latency + self.links[dst].latency;
            self.push_event(self.now + latency, EventKind::Deliver { flow_id: id });
            remove_sorted(&mut self.node_flows[src], id);
            remove_sorted(&mut self.node_flows[dst], id);
            self.realloc_seeds.push(src);
            self.realloc_seeds.push(dst);
        }
        self.reallocate();
    }

    /// Recomputes fair-share rates for the constraint components seeded in
    /// `realloc_seeds` (or for every active flow in reference mode), and
    /// reschedules completions for flows whose rate actually changed.
    ///
    /// Rates in untouched components are unchanged by construction:
    /// max–min allocation decomposes over connected components of the
    /// flow/constraint graph, so recomputing one component reproduces
    /// exactly what a global recompute would assign it.
    fn reallocate(&mut self) {
        if self.realloc_seeds.is_empty() {
            return;
        }
        self.comp_ids.clear();
        if self.reference_alloc {
            // Oracle mode: gather every active flow.
            self.realloc_seeds.clear();
            for list in &self.node_flows {
                self.comp_ids.extend_from_slice(list);
            }
        } else {
            // Walk the union of components containing the seed nodes.
            // Nodes carry the visited mark; a node's flows are appended
            // exactly once, when the node is first visited.
            self.epoch += 1;
            self.walk_stack.clear();
            for s in self.realloc_seeds.drain(..) {
                if self.visit_epoch[s] != self.epoch {
                    self.visit_epoch[s] = self.epoch;
                    self.walk_stack.push(s);
                }
            }
            while let Some(u) = self.walk_stack.pop() {
                for &id in &self.node_flows[u] {
                    self.comp_ids.push(id);
                    let f = &self.flows[&id];
                    for v in [f.src.0, f.dst.0] {
                        if self.visit_epoch[v] != self.epoch {
                            self.visit_epoch[v] = self.epoch;
                            self.walk_stack.push(v);
                        }
                    }
                }
            }
        }
        if self.comp_ids.is_empty() {
            return;
        }
        // Each flow was appended once per endpoint visited; dedup after
        // sorting into the deterministic (ascending id) freeze order.
        self.comp_ids.sort_unstable();
        self.comp_ids.dedup();
        self.comp_descs.clear();
        for id in &self.comp_ids {
            let f = &self.flows[id];
            self.comp_descs.push(FlowDesc {
                src: f.src.0,
                dst: f.dst.0,
            });
        }
        if self.reference_alloc {
            self.comp_rates = max_min_rates(&self.comp_descs, &self.up_bps, &self.down_bps);
        } else {
            self.filler.rates_into(
                &self.comp_descs,
                &self.up_bps,
                &self.down_bps,
                &mut self.comp_rates,
            );
        }

        for k in 0..self.comp_ids.len() {
            let id = self.comp_ids[k];
            let new_rate = self.comp_rates[k];
            // Proof: `comp_ids` was read from the active flows above, and
            // the rate computation removes none.
            #[allow(clippy::expect_used)]
            let flow = self.flows.get_mut(&id).expect("component flow exists");
            if new_rate == flow.rate_bps {
                // Unchanged rate: leave progress, prediction, and the
                // scheduled completion untouched. (Skipping the fold here
                // is what keeps reference and incremental mode bit-equal —
                // re-deriving an identical rate must not perturb state.)
                continue;
            }
            // Fold progress made under the old rate, then re-predict.
            flow.bytes_remaining = flow.remaining_at(self.now);
            flow.rate_since = self.now;
            flow.rate_bps = new_rate;
            if new_rate > 0.0 {
                // Round up to the next microsecond so progress strictly
                // advances even for sub-microsecond residues.
                let us = (flow.bytes_remaining * 8.0 / new_rate * 1e6)
                    .ceil()
                    .max(1.0);
                if us < MAX_COMPLETION_DELAY_US {
                    let done = self.now + SimDuration::from_micros(us as u64);
                    flow.done_at = Some(done);
                    self.completions.push(Reverse((done, id)));
                    self.push_event(done, EventKind::FlowCheck);
                } else {
                    flow.done_at = None;
                }
            } else {
                flow.done_at = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fair::mbps;

    /// Echoes every received message back to the sender with the same size.
    struct Echo;
    impl Actor<&'static str> for Echo {
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, &'static str>,
            from: NodeId,
            _m: &'static str,
        ) {
            ctx.record("echoed", 1.0);
            ctx.send(from, 1_000, "reply");
        }
    }

    /// Sends one message at start and records when the reply arrives.
    struct Client {
        server: NodeId,
        bytes: u64,
    }
    impl Actor<&'static str> for Client {
        fn on_start(&mut self, ctx: &mut Context<'_, &'static str>) {
            ctx.send(self.server, self.bytes, "request");
        }
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, &'static str>,
            _f: NodeId,
            _m: &'static str,
        ) {
            ctx.record("reply_at", ctx.now().as_secs_f64());
        }
    }

    fn link_10mbps() -> LinkSpec {
        LinkSpec {
            up_bps: mbps(10),
            down_bps: mbps(10),
            latency: SimDuration::from_millis(10),
        }
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 1.25 MB over 10 Mbps = 1 s + 4 × 10 ms latency (two hops each way).
        let mut sim = Simulation::new();
        let server = sim.reserve_id(1);
        let _client = sim.add_node(
            Client {
                server,
                bytes: 1_250_000,
            },
            link_10mbps(),
        );
        sim.add_node(Echo, link_10mbps());
        sim.run();
        let events = sim.trace().find(NodeId(0), "reply_at");
        assert_eq!(events.len(), 1);
        let t = events[0].value;
        // request: 1s + 20ms; reply: 1000B (0.8ms) + 20ms.
        let expect = 1.0 + 0.02 + 0.0008 + 0.02;
        assert!(
            (t - expect).abs() < 1e-3,
            "reply at {t}, expected ~{expect}"
        );
    }

    #[test]
    fn concurrent_uploads_share_downlink() {
        // Two clients upload 1.25 MB each to one server: the server's 10 Mbps
        // downlink is shared, so both take ~2 s instead of ~1 s.
        struct Sink {
            received: usize,
        }
        impl Actor<&'static str> for Sink {
            fn on_message(
                &mut self,
                ctx: &mut Context<'_, &'static str>,
                _f: NodeId,
                _m: &'static str,
            ) {
                self.received += 1;
                ctx.record("done_at", ctx.now().as_secs_f64());
            }
        }
        let mut sim = Simulation::new();
        let server = sim.reserve_id(2);
        sim.add_node(
            Client {
                server,
                bytes: 1_250_000,
            },
            link_10mbps(),
        );
        sim.add_node(
            Client {
                server,
                bytes: 1_250_000,
            },
            link_10mbps(),
        );
        sim.add_node(Sink { received: 0 }, link_10mbps());
        sim.run();
        let events = sim.trace().find(server, "done_at");
        assert_eq!(events.len(), 2);
        for e in events {
            assert!(
                (e.value - 2.02).abs() < 0.01,
                "shared transfer at {}",
                e.value
            );
        }
    }

    #[test]
    fn zero_byte_message_is_latency_only() {
        let mut sim = Simulation::new();
        let server = sim.reserve_id(1);
        sim.add_node(Client { server, bytes: 0 }, link_10mbps());
        sim.add_node(Echo, link_10mbps());
        sim.run();
        let events = sim.trace().find(NodeId(0), "reply_at");
        assert_eq!(events.len(), 1);
        // 20 ms there + 0.8 ms reply payload + 20 ms back.
        assert!(events[0].value < 0.05);
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timed {
            fired: Vec<u64>,
        }
        impl Actor<()> for Timed {
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(SimDuration::from_secs(3), 3);
                ctx.set_timer(SimDuration::from_secs(1), 1);
                ctx.set_timer(SimDuration::from_secs(2), 2);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _f: NodeId, _m: ()) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, ()>, token: u64) {
                self.fired.push(token);
                ctx.record("fired", token as f64);
            }
        }
        let mut sim = Simulation::new();
        let id = sim.add_node(Timed { fired: Vec::new() }, link_10mbps());
        sim.run();
        let fired: Vec<f64> = sim
            .trace()
            .find(id, "fired")
            .iter()
            .map(|e| e.value)
            .collect();
        assert_eq!(fired, vec![1.0, 2.0, 3.0]);
        assert_eq!(sim.now().as_secs_f64(), 3.0);
    }

    #[test]
    fn byte_accounting() {
        let mut sim = Simulation::new();
        let server = sim.reserve_id(1);
        let client = sim.add_node(
            Client {
                server,
                bytes: 5_000,
            },
            link_10mbps(),
        );
        sim.add_node(Echo, link_10mbps());
        sim.run();
        assert_eq!(sim.trace().bytes_received(server), 5_000);
        assert_eq!(sim.trace().bytes_sent(client), 5_000);
        assert_eq!(sim.trace().bytes_received(client), 1_000); // the echo
    }

    #[test]
    fn determinism_across_runs() {
        fn run_once() -> Vec<(u64, String, f64)> {
            let mut sim = Simulation::new();
            let server = sim.reserve_id(2);
            sim.add_node(
                Client {
                    server,
                    bytes: 777_777,
                },
                link_10mbps(),
            );
            sim.add_node(
                Client {
                    server,
                    bytes: 123_456,
                },
                link_10mbps(),
            );
            sim.add_node(Echo, link_10mbps());
            sim.run();
            let trace = sim.trace();
            trace
                .events()
                .iter()
                .map(|e| {
                    (
                        e.time.as_micros(),
                        trace.label_name(e.label).to_string(),
                        e.value,
                    )
                })
                .collect()
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn crashed_node_drops_messages_and_timers_until_recovery() {
        // A pinger sends to an echo server every second. The server is
        // crashed during [1.5s, 3.5s]: pings sent in that window vanish.
        struct Pinger {
            server: NodeId,
            replies: usize,
        }
        impl Actor<&'static str> for Pinger {
            fn on_start(&mut self, ctx: &mut Context<'_, &'static str>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_message(
                &mut self,
                ctx: &mut Context<'_, &'static str>,
                _f: NodeId,
                _m: &'static str,
            ) {
                self.replies += 1;
                ctx.record("reply", 1.0);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, &'static str>, _t: u64) {
                ctx.send(self.server, 1_000, "ping");
                if ctx.now().as_secs_f64() < 4.5 {
                    ctx.set_timer(SimDuration::from_secs(1), 0);
                }
            }
        }
        let mut sim = Simulation::new();
        let server = sim.reserve_id(1);
        let pinger = sim.add_node(Pinger { server, replies: 0 }, link_10mbps());
        sim.add_node(Echo, link_10mbps());
        sim.schedule_fault(SimTime::from_micros(1_500_000), Fault::Crash(server));
        sim.schedule_fault(SimTime::from_micros(3_500_000), Fault::Recover(server));
        sim.run();
        // Pings at 1s, 4s, 5s get replies; pings at 2s and 3s are lost.
        assert_eq!(sim.trace().find(pinger, "reply").len(), 3);
        assert!(!sim.is_down(server));
        assert_eq!(sim.trace().find(server, "fault/crash").len(), 1);
        assert_eq!(sim.trace().find(server, "fault/recover").len(), 1);
    }

    #[test]
    fn crash_tears_down_inflight_transfers() {
        // 1.25 MB at 10 Mbps takes ~1 s; the receiver crashes at 0.5 s, so
        // the transfer must never complete even after recovery.
        struct Sink;
        impl Actor<&'static str> for Sink {
            fn on_message(
                &mut self,
                ctx: &mut Context<'_, &'static str>,
                _f: NodeId,
                _m: &'static str,
            ) {
                ctx.record("arrived", 1.0);
            }
        }
        let mut sim = Simulation::new();
        let server = sim.reserve_id(1);
        sim.add_node(
            Client {
                server,
                bytes: 1_250_000,
            },
            link_10mbps(),
        );
        sim.add_node(Sink, link_10mbps());
        sim.schedule_fault(SimTime::from_micros(500_000), Fault::Crash(server));
        sim.schedule_fault(SimTime::from_micros(700_000), Fault::Recover(server));
        sim.run();
        assert!(sim.trace().find(server, "arrived").is_empty());
    }

    #[test]
    fn receiver_crash_accounts_partial_bytes() {
        // 1.25 MB at 10 Mbps takes ~1 s; the receiver crashes at 0.5 s,
        // so ~625 kB were already on the wire. The sender's tx must
        // include that prefix; no rx is accounted (nothing was delivered).
        struct Sink;
        impl Actor<&'static str> for Sink {
            fn on_message(
                &mut self,
                _ctx: &mut Context<'_, &'static str>,
                _f: NodeId,
                _m: &'static str,
            ) {
            }
        }
        let mut sim = Simulation::new();
        let server = sim.reserve_id(1);
        let client = sim.add_node(
            Client {
                server,
                bytes: 1_250_000,
            },
            link_10mbps(),
        );
        sim.add_node(Sink, link_10mbps());
        sim.schedule_fault(SimTime::from_micros(500_000), Fault::Crash(server));
        sim.run();
        let tx = sim.trace().bytes_sent(client);
        assert!(
            (600_000..=650_000).contains(&tx),
            "expected ~625 kB partial tx, got {tx}"
        );
        assert_eq!(sim.trace().bytes_received(server), 0);
        let torn = sim.trace().find(server, net::FLOW_TORN_INBOUND);
        assert_eq!(torn.len(), 1);
        assert_eq!(torn[0].value as u64, tx);
        // Conservation: tx − rx equals the torn-inbound partial.
        let trace = sim.trace();
        assert_eq!(
            trace.total_bytes_sent() - trace.total_bytes_received(),
            trace.sum(net::FLOW_TORN_INBOUND) as u64
        );
    }

    #[test]
    fn sender_crash_accounts_partial_bytes_on_both_sides() {
        // The sender crashes mid-transfer: the surviving receiver took
        // delivery of the truncated prefix, so both tx and rx include it.
        struct Sink;
        impl Actor<&'static str> for Sink {
            fn on_message(
                &mut self,
                ctx: &mut Context<'_, &'static str>,
                _f: NodeId,
                _m: &'static str,
            ) {
                ctx.record("arrived", 1.0);
            }
        }
        let mut sim = Simulation::new();
        let server = sim.reserve_id(1);
        let client = sim.add_node(
            Client {
                server,
                bytes: 1_250_000,
            },
            link_10mbps(),
        );
        sim.add_node(Sink, link_10mbps());
        sim.schedule_fault(SimTime::from_micros(500_000), Fault::Crash(client));
        sim.run();
        let tx = sim.trace().bytes_sent(client);
        assert!(
            (600_000..=650_000).contains(&tx),
            "expected ~625 kB partial tx, got {tx}"
        );
        assert_eq!(sim.trace().bytes_received(server), tx);
        assert!(sim.trace().find(server, "arrived").is_empty());
        let torn = sim.trace().find(client, net::FLOW_TORN_OUTBOUND);
        assert_eq!(torn.len(), 1);
        assert_eq!(torn[0].value as u64, tx);
        assert_eq!(
            sim.trace().total_bytes_sent(),
            sim.trace().total_bytes_received()
        );
    }

    #[test]
    fn undelivered_message_to_down_node_is_counted() {
        // Pings sent while the server is crashed complete their transfer
        // (the engine only gates the sender) but are dropped at delivery:
        // the payload traversed the network, so the bytes count and a
        // `flow/undelivered` event marks the loss.
        struct Pinger {
            server: NodeId,
        }
        impl Actor<&'static str> for Pinger {
            fn on_start(&mut self, ctx: &mut Context<'_, &'static str>) {
                ctx.set_timer(SimDuration::from_secs(2), 0);
            }
            fn on_message(
                &mut self,
                _ctx: &mut Context<'_, &'static str>,
                _f: NodeId,
                _m: &'static str,
            ) {
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, &'static str>, _t: u64) {
                ctx.send(self.server, 1_000, "ping");
            }
        }
        struct Sink;
        impl Actor<&'static str> for Sink {
            fn on_message(
                &mut self,
                ctx: &mut Context<'_, &'static str>,
                _f: NodeId,
                _m: &'static str,
            ) {
                ctx.record("arrived", 1.0);
            }
        }
        let mut sim = Simulation::new();
        let server = sim.reserve_id(1);
        let pinger = sim.add_node(Pinger { server }, link_10mbps());
        sim.add_node(Sink, link_10mbps());
        sim.schedule_fault(SimTime::from_micros(1_500_000), Fault::Crash(server));
        sim.schedule_fault(SimTime::from_micros(3_500_000), Fault::Recover(server));
        sim.run();
        assert!(sim.trace().find(server, "arrived").is_empty());
        let undelivered = sim.trace().find(server, net::FLOW_UNDELIVERED);
        assert_eq!(undelivered.len(), 1);
        assert_eq!(undelivered[0].value as u64, 1_000);
        assert_eq!(sim.trace().bytes_sent(pinger), 1_000);
        assert_eq!(sim.trace().bytes_received(server), 1_000);
    }

    #[test]
    fn degrade_link_slows_active_flow() {
        let mut sim = Simulation::new();
        let server = sim.reserve_id(1);
        sim.add_node(
            Client {
                server,
                bytes: 1_250_000,
            },
            link_10mbps(),
        );
        sim.add_node(Echo, link_10mbps());
        // Halfway through the ~1 s transfer, throttle the receiver to 1 Mbps:
        // the remaining ~625 kB now take ~5 s.
        sim.schedule_fault(
            SimTime::from_micros(500_000),
            Fault::DegradeLink {
                node: server,
                up_bps: mbps(1),
                down_bps: mbps(1),
            },
        );
        sim.run();
        let events = sim.trace().find(NodeId(0), "reply_at");
        assert_eq!(events.len(), 1);
        assert!(
            events[0].value > 5.0 && events[0].value < 6.5,
            "reply at {} (expected ~5.5s)",
            events[0].value
        );
    }

    #[test]
    fn fault_plan_determinism() {
        fn run_once() -> Vec<(u64, String, f64)> {
            let mut sim = Simulation::new();
            let server = sim.reserve_id(2);
            sim.add_node(
                Client {
                    server,
                    bytes: 777_777,
                },
                link_10mbps(),
            );
            sim.add_node(
                Client {
                    server,
                    bytes: 123_456,
                },
                link_10mbps(),
            );
            sim.add_node(Echo, link_10mbps());
            let plan = crate::fault::FaultPlan::new()
                .crash_at(SimTime::from_micros(300_000), server)
                .recover_at(SimTime::from_micros(400_000), server)
                .degrade_link_at(SimTime::from_micros(500_000), NodeId(0), mbps(2), mbps(2));
            sim.apply_fault_plan(&plan);
            sim.run();
            let trace = sim.trace();
            trace
                .events()
                .iter()
                .map(|e| {
                    (
                        e.time.as_micros(),
                        trace.label_name(e.label).to_string(),
                        e.value,
                    )
                })
                .collect()
        }
        assert_eq!(run_once(), run_once());
    }

    /// Sends one payload after a delay (for staging flows mid-run).
    struct DelayedSend {
        to: NodeId,
        bytes: u64,
        delay: SimDuration,
    }
    impl Actor<&'static str> for DelayedSend {
        fn on_start(&mut self, ctx: &mut Context<'_, &'static str>) {
            ctx.set_timer(self.delay, 0);
        }
        fn on_message(
            &mut self,
            _ctx: &mut Context<'_, &'static str>,
            _f: NodeId,
            _m: &'static str,
        ) {
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, &'static str>, _t: u64) {
            ctx.send(self.to, self.bytes, "payload");
        }
    }

    /// Records each arrival instant in microseconds.
    struct ArrivalSink;
    impl Actor<&'static str> for ArrivalSink {
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, &'static str>,
            _f: NodeId,
            _m: &'static str,
        ) {
            ctx.record("arrived_us", ctx.now().as_micros() as f64);
        }
    }

    #[test]
    fn starved_flow_resumes_after_link_restore() {
        // 999 983 B at 10 Mbps; the receiver's link drops to zero capacity
        // at 0.3 s (the flow starves with no completion scheduled) and is
        // restored to 2 Mbps at 5 s. The 624 983 B outstanding then drain
        // in ~2.5 s: the transfer must complete instead of hanging.
        let mut sim = Simulation::new();
        let server = sim.reserve_id(1);
        sim.add_node(
            Client {
                server,
                bytes: 999_983,
            },
            link_10mbps(),
        );
        sim.add_node(ArrivalSink, link_10mbps());
        sim.schedule_fault(
            SimTime::from_micros(300_000),
            Fault::DegradeLink {
                node: server,
                up_bps: 0.0,
                down_bps: 0.0,
            },
        );
        sim.schedule_fault(
            SimTime::from_micros(5_000_000),
            Fault::DegradeLink {
                node: server,
                up_bps: mbps(2),
                down_bps: mbps(2),
            },
        );
        sim.run();
        let events = sim.trace().find(server, "arrived_us");
        assert_eq!(events.len(), 1, "starved flow must still complete");
        // 0.3 s head start + 624 983 B at 2 Mbps (≈2.5 s) from t=5 s, plus
        // 20 ms propagation.
        let t = events[0].value / 1e6;
        assert!((7.4..7.7).contains(&t), "resumed completion at {t}");
        assert_eq!(sim.trace().bytes_received(server), 999_983);
    }

    #[test]
    fn flow_born_starved_wakes_on_restore() {
        // The link is already at zero capacity when the flow is created, so
        // the flow never gets a completion scheduled at all — the restore
        // path alone must wake it. (Regression: the old scheduler only
        // re-examined flows from paths that already had a pending check.)
        let mut sim = Simulation::new();
        let server = sim.reserve_id(1);
        sim.add_node(
            DelayedSend {
                to: server,
                bytes: 1_000,
                delay: SimDuration::from_secs(1),
            },
            link_10mbps(),
        );
        sim.add_node(ArrivalSink, link_10mbps());
        sim.schedule_fault(
            SimTime::from_micros(500_000),
            Fault::DegradeLink {
                node: server,
                up_bps: 0.0,
                down_bps: 0.0,
            },
        );
        sim.schedule_fault(
            SimTime::from_micros(3_000_000),
            Fault::DegradeLink {
                node: server,
                up_bps: mbps(10),
                down_bps: mbps(10),
            },
        );
        sim.run();
        let events = sim.trace().find(server, "arrived_us");
        assert_eq!(events.len(), 1, "flow born starved must complete");
        let t = events[0].value / 1e6;
        assert!((3.0..3.1).contains(&t), "woke at {t}, expected ~3.02 s");
        assert_eq!(sim.trace().bytes_received(server), 1_000);
    }

    #[test]
    fn untouched_component_keeps_rates_and_schedule() {
        // A→B runs alone in its component: completion predicted at exactly
        // ceil(999 983·8 / 10⁷ s) = 799 987 µs. A C→D flow starting at
        // 0.5 s lives in a disjoint component — its reallocation must not
        // touch the A→B flow: same rate epoch, same predicted completion,
        // byte-identical delivery time.
        fn build() -> (Simulation<&'static str>, NodeId, NodeId) {
            let mut sim = Simulation::new();
            let b = sim.reserve_id(1);
            let a = sim.add_node(
                Client {
                    server: b,
                    bytes: 999_983,
                },
                link_10mbps(),
            );
            sim.add_node(ArrivalSink, link_10mbps());
            let d = sim.reserve_id(1);
            sim.add_node(
                DelayedSend {
                    to: d,
                    bytes: 777_777,
                    delay: SimDuration::from_millis(500),
                },
                link_10mbps(),
            );
            sim.add_node(ArrivalSink, link_10mbps());
            (sim, a, b)
        }

        // Pause just after the cross-component event and inspect the A→B
        // flow's internals: still rated at its t=0 epoch, prediction intact.
        let (mut sim, a, _) = build();
        sim.set_time_limit(SimTime::from_micros(600_000));
        sim.run();
        let flow = sim
            .flows
            .values()
            .find(|f| f.src == a)
            .expect("A→B still in flight at 0.6 s");
        assert_eq!(
            flow.rate_since,
            SimTime::ZERO,
            "flow was re-rated by a foreign component event"
        );
        assert_eq!(flow.done_at, Some(SimTime::from_micros(799_987)));

        // And end-to-end: delivery lands at exactly prediction + latency.
        let (mut sim, _, b) = build();
        sim.run();
        let events = sim.trace().find(b, "arrived_us");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].value as u64, 799_987 + 20_000);
    }

    #[test]
    fn one_bps_degraded_link_delivers_exact_bytes() {
        // 1 000 B flow throttled to 1 bit/s after 100 µs (125 B already
        // moved): the remaining 875 B take exactly 7 000 s. Completion is
        // event-driven, so the ledger stays exact — no epsilon, no drift
        // from repeated rate·dt subtraction — and the arrival lands at the
        // microsecond the rate arithmetic predicts.
        let mut sim = Simulation::new();
        let server = sim.reserve_id(1);
        let client = sim.add_node(
            Client {
                server,
                bytes: 1_000,
            },
            link_10mbps(),
        );
        sim.add_node(ArrivalSink, link_10mbps());
        sim.schedule_fault(
            SimTime::from_micros(100),
            Fault::DegradeLink {
                node: server,
                up_bps: 1.0,
                down_bps: 1.0,
            },
        );
        sim.run();
        let events = sim.trace().find(server, "arrived_us");
        assert_eq!(events.len(), 1);
        // 100 µs + 875·8 s + 20 ms propagation.
        assert_eq!(events[0].value as u64, 100 + 7_000_000_000 + 20_000);
        assert_eq!(sim.trace().bytes_received(server), 1_000);
        assert_eq!(sim.trace().bytes_sent(client), 1_000);
    }

    #[test]
    fn time_limit_stops_run() {
        struct Forever;
        impl Actor<()> for Forever {
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _f: NodeId, _m: ()) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _token: u64) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
        }
        let mut sim = Simulation::new();
        sim.add_node(Forever, link_10mbps());
        sim.set_time_limit(SimTime::from_micros(10_500_000));
        sim.run();
        assert!(sim.now().as_secs_f64() <= 10.5);
    }

    /// A pinger that sends one message to the server every second and
    /// counts replies — the workload for the partition/chaos fault tests.
    struct PeriodicPinger {
        server: NodeId,
        sent: usize,
    }
    impl Actor<&'static str> for PeriodicPinger {
        fn on_start(&mut self, ctx: &mut Context<'_, &'static str>) {
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, &'static str>,
            _f: NodeId,
            _m: &'static str,
        ) {
            ctx.record("reply", 1.0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, &'static str>, _token: u64) {
            if self.sent < 10 {
                self.sent += 1;
                ctx.send(self.server, 1_000, "ping");
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
        }
    }

    #[test]
    fn isolated_node_exchanges_no_traffic_until_healed() {
        // Pings at 1s..=10s; the server is partitioned during [2.5s, 6.5s]:
        // pings sent at 3,4,5,6 s vanish (booked on the sender), the rest
        // round-trip. Unlike a crash, the server's state machine keeps
        // running throughout.
        let mut sim = Simulation::new();
        let server = sim.reserve_id(1);
        let client = sim.add_node(PeriodicPinger { server, sent: 0 }, link_10mbps());
        sim.add_node(Echo, link_10mbps());
        sim.schedule_fault(SimTime::from_micros(2_500_000), Fault::Isolate(server));
        sim.schedule_fault(SimTime::from_micros(6_500_000), Fault::Heal(server));
        sim.run();
        assert_eq!(sim.trace().find(client, "reply").len(), 6);
        let dropped = sim.trace().find(client, net::CHAOS_PARTITION_DROP);
        assert_eq!(dropped.len(), 4);
        // Dropped messages never entered the network.
        assert_eq!(sim.trace().bytes_sent(client), 6_000);
        assert_eq!(sim.trace().find(server, net::FAULT_ISOLATE).len(), 1);
        assert_eq!(sim.trace().find(server, net::FAULT_HEAL).len(), 1);
    }

    #[test]
    fn chaos_drops_the_seeded_fraction_of_outbound_frames() {
        let spec = crate::fault::ChaosSpec {
            drop_pct: 50,
            reset_pct: 50,
            seed: 11,
            ..Default::default()
        };
        let mut sim = Simulation::new();
        let server = sim.reserve_id(1);
        let client = sim.add_node(PeriodicPinger { server, sent: 0 }, link_10mbps());
        sim.add_node(Echo, link_10mbps());
        // loss = 100%: every outbound ping is destroyed at the sender.
        sim.schedule_fault(SimTime::ZERO, Fault::Chaos { node: client, spec });
        sim.run();
        assert_eq!(sim.trace().find(client, "reply").len(), 0);
        assert_eq!(sim.trace().find(client, net::CHAOS_FRAME_DROP).len(), 10);
        assert_eq!(sim.trace().bytes_sent(client), 0);

        // A no-op spec uninstalls the process.
        let mut sim = Simulation::new();
        let server = sim.reserve_id(1);
        let client = sim.add_node(PeriodicPinger { server, sent: 0 }, link_10mbps());
        sim.add_node(Echo, link_10mbps());
        sim.schedule_fault(SimTime::ZERO, Fault::Chaos { node: client, spec });
        sim.schedule_fault(
            SimTime::from_micros(4_500_000),
            Fault::Chaos {
                node: client,
                spec: crate::fault::ChaosSpec::default(),
            },
        );
        sim.run();
        // Pings at 5..=10 s survive once chaos is lifted.
        assert_eq!(sim.trace().find(client, "reply").len(), 6);
    }

    #[test]
    fn partial_chaos_loss_is_deterministic() {
        let run = || {
            let spec = crate::fault::ChaosSpec {
                drop_pct: 40,
                seed: 7,
                ..Default::default()
            };
            let mut sim = Simulation::new();
            let server = sim.reserve_id(1);
            let client = sim.add_node(PeriodicPinger { server, sent: 0 }, link_10mbps());
            sim.add_node(Echo, link_10mbps());
            sim.schedule_fault(SimTime::ZERO, Fault::Chaos { node: client, spec });
            sim.run();
            (
                sim.trace().find(client, "reply").len(),
                sim.trace().find(client, net::CHAOS_FRAME_DROP).len(),
            )
        };
        let (replies, drops) = run();
        assert_eq!((replies, drops), run());
        assert_eq!(replies + drops, 10);
        assert!(drops > 0, "40% loss over 10 frames should drop something");
        assert!(replies > 0, "40% loss should not drop everything");
    }
}
