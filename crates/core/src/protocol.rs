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
//! * `dfl-backend-tokio` (the `tokio` workspace feature) replays the same
//!   actions onto real TCP sockets and wall-clock timers.
//!
//! The contract a backend must honour:
//!
//! 1. Deliver each event with a monotonically non-decreasing `now`.
//! 2. Execute the drained actions of one `handle` call **in push order**
//!    before delivering the next event to the same core.
//! 3. Never reorder or drop actions of a live node (a crashed node's
//!    actions may be discarded wholesale, as netsim does).

use dfl_ipfs::{IpfsNode, Outgoing, WireEmbed};
use dfl_netsim::{Actor, Context, Fault, NodeId, SimDuration, SimTime};
use std::marker::PhantomData;

/// An input to a protocol state machine. The type parameter `M` is the
/// application message type (for IPLS tasks, [`Msg`](crate::Msg)).
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
    out: Actions<C::Msg>,
}

impl<C: ProtocolCore> NetsimAdapter<C> {
    /// Wraps a core.
    pub fn new(core: C) -> NetsimAdapter<C> {
        NetsimAdapter {
            core,
            out: Actions::new(),
        }
    }

    /// The wrapped core.
    pub fn core(&self) -> &C {
        &self.core
    }
}

impl<C: ProtocolCore> NetsimAdapter<C>
where
    C::Msg: WireCost,
{
    fn dispatch(&mut self, ctx: &mut Context<'_, C::Msg>, event: ProtocolEvent<C::Msg>) {
        self.core.handle(ctx.now(), event, &mut self.out);
        for action in self.out.drain() {
            match action {
                ProtocolAction::Send { to, msg } => ctx.send(to, msg.wire_bytes(), msg),
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
    C::Msg: WireCost,
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
