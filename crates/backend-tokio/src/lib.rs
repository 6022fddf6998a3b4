//! Real-socket backend for the sans-io IPLS protocol cores.
//!
//! The netsim backend ([`ipls::runner::run_task`]) interprets
//! [`ProtocolAction`]s against a simulated
//! network; this crate interprets the *same* actions against localhost TCP
//! sockets and wall-clock timers, driving the *same* state machines
//! ([`ipls::Directory`], [`ipls::Aggregator`], [`ipls::Trainer`],
//! [`ipls::protocol::IpfsCore`]) unmodified. The deployment comes from
//! [`ipls::runner::Deployment::build`] and the report from
//! [`ipls::runner::build_report`], the code the simulator runs; only
//! transport lives here:
//!
//! - every node gets a TCP listener on an ephemeral port; [`codec`] frames
//!   messages as `[u32 len][u64 sender][payload]`;
//! - each node runs on its own blocking thread, draining a channel fed by
//!   socket-reader threads and the fault driver, and keeps its own timers:
//!   `SetTimer` pushes onto a heap the loop fires from between receives.
//!   The loop sleeps until it has work — its next timer deadline or its
//!   next event, whichever is first; shutdown is one more event on the
//!   channel, not a flag the loop wakes up to look at;
//! - `Send` actions go through supervised per-peer writers (`conn`) with
//!   bounded queues and seeded exponential backoff — every way a frame
//!   can be lost is counted in the report's [`DeliveryReport`], never
//!   swallowed;
//! - `Record` / `Incr` / `Observe` go into the run's one
//!   [`Trace`], stamped with wall-clock time since the run
//!   started, and every `Send` and delivered frame books its wire bytes
//!   there — so a TCP run ends in the [`TaskReport`] a simulation ends in;
//! - the run honours the [`TaskConfig::fault_plan`] netsim executes:
//!   crashes, recoveries, partitions, and per-frame chaos are replayed
//!   against wall-clock time by `fault`, so one scripted scenario
//!   exercises both backends.
//!
//! Because training is seeded per `(task seed, round, trainer)` and
//! aggregation is exact and order-independent, a healthy run produces the
//! **same final model bytes** as a simulation of the same [`TaskConfig`] —
//! `tests/tcp_matches_netsim.rs` at the repository root asserts exactly
//! that, label by label of the trace, and the chaos test in this crate
//! asserts a faulted run degrades to `min_quorum` exactly as the netsim
//! oracle does.
//!
//! [`TaskConfig::fault_plan`]: ipls::config::TaskConfig

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dfl_ml::{Dataset, Model, SgdConfig};
use dfl_netsim::{Fault, NodeId, SimTime, Trace};
use ipls::config::TaskConfig;
use ipls::error::IplsError;
use ipls::labels;
use ipls::protocol::{Actions, ProtocolAction, ProtocolCore, ProtocolEvent};
use ipls::runner::{build_report, BoxedCore, Deployment, TaskReport};
use ipls::Msg;

pub mod codec;
mod conn;
mod fault;

pub use conn::DeliveryReport;

use conn::{BackoffPolicy, DeliveryStats, PeerSender};
use fault::NetFaults;

/// The longest the run's waiter blocks before it looks at the fault table
/// again (which changes unannounced).
const TICK: Duration = Duration::from_millis(10);

/// Poison-tolerant locking: a panicking node thread must degrade that
/// node, not cascade a `PoisonError` panic through every thread sharing
/// the mutex (the waiter would otherwise hang the whole run).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What a TCP task run produced: the [`TaskReport`] every backend builds
/// from its trace (read through `Deref`: `completed_rounds`,
/// `final_params`, `rounds`, `trace`, …) plus the transport's delivery
/// accounting. Times in the report and its trace are wall-clock seconds
/// since the run started.
#[derive(Clone, Debug)]
pub struct TcpTaskReport {
    /// The run's report, from [`ipls::runner::build_report`].
    pub report: TaskReport,
    /// The transport's frame-delivery accounting: every dropped,
    /// faulted, or crash-discarded frame of the run, by cause.
    pub delivery: DeliveryReport,
}

impl std::ops::Deref for TcpTaskReport {
    type Target = TaskReport;

    fn deref(&self) -> &TaskReport {
        &self.report
    }
}

impl TcpTaskReport {
    /// How many times `label` was recorded, across nodes.
    pub fn record_count(&self, label: &str) -> u64 {
        self.trace.count(label) as u64
    }

    /// Rounds that completed on a degraded quorum.
    pub fn quorum_degradations(&self) -> u64 {
        self.report.quorum_degradations as u64
    }
}

/// An event delivered to a node's protocol thread.
pub(crate) enum NodeEvent {
    /// A decoded frame from a peer.
    Msg { from: NodeId, msg: Msg },
    /// The fault driver injected a fault on this node.
    Fault { fault: Fault },
    /// This node's transport gave up delivering a frame to `to`.
    SendFailed { to: NodeId },
    /// The run is over: the node loop returns.
    Shutdown,
}

/// Cross-thread state shared by every node of one run.
struct Shared {
    /// Listener address per node index.
    addrs: Vec<SocketAddr>,
    /// Run start; `now` for handlers and trace stamps is elapsed time
    /// since it.
    epoch: Instant,
    /// Set once to stop every acceptor and the fault driver. Node loops
    /// do not poll it: they are sent [`NodeEvent::Shutdown`].
    shutdown: Arc<AtomicBool>,
    /// The run's one trace. Writers read the clock while holding the
    /// lock, so events are in time order.
    trace: Mutex<Trace>,
    /// Signalled when a record the run's waiter looks for lands in
    /// `trace` (`task_complete`, `trainer_round_done`).
    progress: Condvar,
    faults: Arc<NetFaults>,
    stats: Arc<DeliveryStats>,
    /// Connection supervision knobs: the defaults, jittered from the task
    /// seed.
    policy: BackoffPolicy,
}

impl Shared {
    fn new(addrs: Vec<SocketAddr>, seed: u64) -> Shared {
        Shared {
            epoch: Instant::now(),
            shutdown: Arc::new(AtomicBool::new(false)),
            trace: Mutex::new(Trace::new()),
            progress: Condvar::new(),
            faults: Arc::new(NetFaults::new(addrs.len())),
            stats: Arc::new(DeliveryStats::default()),
            policy: BackoffPolicy {
                seed,
                ..BackoffPolicy::default()
            },
            addrs,
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Blocks until `done` holds of the trace or `deadline` passes, looking
    /// again at every signalled record and every [`TICK`] (what `done`
    /// reads beside the trace — the fault table — changes unannounced).
    /// Returns whether `done` held.
    fn wait_until(&self, deadline: Instant, mut done: impl FnMut(&Trace) -> bool) -> bool {
        let mut trace = lock(&self.trace);
        loop {
            if done(&trace) {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            trace = self
                .progress
                .wait_timeout(trace, left.min(TICK))
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
    }
}

/// Accepts inbound connections for one node, spawning a frame-decoding
/// reader thread per connection. Woken by a dummy connect at shutdown.
/// Connections stay accepted even while the node is crashed — its node
/// loop discards (and counts) everything delivered during the outage, the
/// way netsim books undelivered flows to a down node.
fn accept_loop(listener: std::net::TcpListener, tx: mpsc::Sender<NodeEvent>, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        let Ok(conn) = conn else { break };
        let tx = tx.clone();
        std::thread::spawn(move || {
            let mut reader = std::io::BufReader::new(conn);
            // A torn or malformed frame (chaos truncation, hostile
            // header) surfaces as Err: drop the connection cleanly and
            // let the peer's supervised writer reconnect.
            while let Ok(Some((from, msg))) = codec::read_frame(&mut reader) {
                if tx.send(NodeEvent::Msg { from, msg }).is_err() {
                    break;
                }
            }
        });
    }
}

/// One protocol core and everything its thread needs to interpret the
/// core's actions: supervised peer writers, its pending timers and the
/// run's trace. The core never learns it is not in the simulator.
///
/// Crash semantics mirror netsim exactly: while down, inbound frames and
/// timer firings are discarded (counted), the crash event's own actions
/// are discarded wholesale, and recovery resumes normal interpretation —
/// timers armed before the crash that come due during the outage die, and
/// the core re-arms its clocks from the protocol's own recovery paths (the
/// directory's next `StartRound`, the sync watchdog).
struct Node {
    me: NodeId,
    core: BoxedCore,
    /// The fault plan holds this node crashed.
    down: bool,
    /// The core's action queue, reused across events.
    out: Actions<Msg>,
    senders: HashMap<usize, PeerSender>,
    /// Pending timers as `(deadline, arming sequence, token)`, earliest
    /// first; the sequence keeps same-deadline timers in arming order,
    /// the simulator's tie-break.
    timers: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    timers_armed: u64,
    /// This node's own event channel, for its writers' failure reports.
    tx: mpsc::Sender<NodeEvent>,
    shared: Arc<Shared>,
}

impl Node {
    fn new(me: NodeId, core: BoxedCore, tx: mpsc::Sender<NodeEvent>, shared: Arc<Shared>) -> Node {
        Node {
            me,
            core,
            down: false,
            out: Actions::new(),
            senders: HashMap::new(),
            timers: BinaryHeap::new(),
            timers_armed: 0,
            tx,
            shared,
        }
    }

    /// Hands `event` to the core and interprets what it asks for, in push
    /// order. A crashed node's actions are discarded wholesale (the backend
    /// contract allows this; netsim does the same), its sends counted so
    /// the loss is never silent.
    fn deliver(&mut self, event: ProtocolEvent<Msg>) {
        let mut out = std::mem::replace(&mut self.out, Actions::new());
        self.core.handle(self.shared.now(), event, &mut out);
        let armed_at = Instant::now();
        for action in out.drain() {
            match action {
                ProtocolAction::Send { .. } if self.down => {
                    let dropped = &self.shared.stats.frames_dropped_down;
                    dropped.fetch_add(1, Ordering::Relaxed);
                }
                _ if self.down => {}
                ProtocolAction::Send { to, msg } => {
                    lock(&self.shared.trace).count_tx(self.me, msg.wire_bytes());
                    self.sender(to).send(msg);
                }
                ProtocolAction::SetTimer { delay, token } => {
                    let deadline = armed_at + Duration::from_micros(delay.as_micros());
                    self.timers
                        .push(Reverse((deadline, self.timers_armed, token)));
                    self.timers_armed += 1;
                }
                ProtocolAction::Record { label, value } => {
                    let mut trace = lock(&self.shared.trace);
                    trace.record(self.shared.now(), self.me, label, value);
                    if label == labels::TASK_COMPLETE || label == labels::TRAINER_ROUND_DONE {
                        self.shared.progress.notify_all();
                    }
                }
                ProtocolAction::Incr { label, delta } => {
                    lock(&self.shared.trace).add(label, delta);
                }
                ProtocolAction::Observe { label, value } => {
                    lock(&self.shared.trace).observe(label, value);
                }
            }
        }
        self.out = out;
    }

    fn sender(&mut self, to: NodeId) -> &PeerSender {
        let Node {
            me,
            senders,
            tx,
            shared,
            ..
        } = self;
        senders.entry(to.index()).or_insert_with(|| {
            PeerSender::spawn(
                *me,
                to,
                shared.addrs[to.index()],
                shared.policy,
                shared.faults.clone(),
                shared.stats.clone(),
                tx.clone(),
            )
        })
    }

    /// Fires every timer due at `now`, earliest first.
    fn fire_due(&mut self, now: Instant) {
        while let Some(&Reverse((deadline, _, token))) = self.timers.peek() {
            if deadline > now {
                break;
            }
            self.timers.pop();
            if self.down {
                let discarded = &self.shared.stats.timers_discarded_down;
                discarded.fetch_add(1, Ordering::Relaxed);
            } else {
                self.deliver(ProtocolEvent::Timer { token });
            }
        }
    }

    /// How long the loop may block at `now` before a timer is due: to the
    /// next deadline, or without bound when no timer is pending.
    fn idle(&self, now: Instant) -> Option<Duration> {
        let Reverse((deadline, ..)) = self.timers.peek()?;
        Some(deadline.saturating_duration_since(now))
    }

    fn on_event(&mut self, event: NodeEvent) {
        match event {
            // The loop's own business: `run` never hands it on.
            NodeEvent::Shutdown => {}
            NodeEvent::Msg { .. } if self.down => {
                let discarded = &self.shared.stats.frames_discarded_down;
                discarded.fetch_add(1, Ordering::Relaxed);
            }
            NodeEvent::SendFailed { .. } if self.down => {}
            NodeEvent::Msg { from, msg } => {
                lock(&self.shared.trace).count_rx(self.me, msg.wire_bytes());
                self.deliver(ProtocolEvent::Message { from, msg });
            }
            NodeEvent::SendFailed { to } => self.deliver(ProtocolEvent::DeliveryFailure { to }),
            NodeEvent::Fault { fault } => {
                match fault {
                    Fault::Crash(n) if n == self.me => self.down = true,
                    Fault::Recover(n) if n == self.me => self.down = false,
                    _ => {}
                }
                self.deliver(ProtocolEvent::Fault { fault });
            }
        }
    }

    /// Drives the node: `Start`, then due timers and events off the
    /// channel until [`NodeEvent::Shutdown`], asleep whenever neither is
    /// at hand. Timers still pending at shutdown never fire.
    fn run(mut self, rx: mpsc::Receiver<NodeEvent>) {
        self.deliver(ProtocolEvent::Start);
        loop {
            let now = Instant::now();
            self.fire_due(now);
            let event = match self.idle(now) {
                Some(idle) => rx.recv_timeout(idle),
                None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
            };
            match event {
                Ok(NodeEvent::Shutdown) | Err(mpsc::RecvTimeoutError::Disconnected) => break,
                Ok(event) => self.on_event(event),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
            }
        }
    }
}

/// Runs a full task over localhost TCP and reports the outcome.
///
/// Mirrors [`ipls::runner::run_task`] with no [`Behavior`](ipls::Behavior)
/// overrides: every aggregator follows the protocol until the
/// configuration's [`fault_plan`](TaskConfig::fault_plan) says otherwise.
/// The plan is replayed against wall-clock time — crashes (a dead
/// aggregator is one), lost writes, partitions, per-frame chaos — and a
/// wall-clock completion deadline of `t_sync × rounds + 60 s` applies.
/// Connections are supervised with the default backoff, jittered from the
/// task seed.
///
/// The run ends when the last round is quiet, not at `task_complete`:
/// under `min_quorum` the directory completes the task on a quorum of
/// `TrainerDone`s, so the nodes keep running until every trainer the fault
/// plan does not hold down has recorded the last round's
/// `trainer_round_done` — at most `t_sync` longer, and no longer at all
/// when they already have.
///
/// # Errors
///
/// Returns an error when the configuration is invalid or the task misses
/// the deadline.
pub fn run_task_over_tcp<M: Model + Clone + Send + 'static>(
    cfg: TaskConfig,
    model: M,
    initial_params: Vec<f32>,
    datasets: Vec<Dataset>,
    sgd: SgdConfig,
) -> Result<TcpTaskReport, IplsError> {
    let Deployment { topo, cores, sink } =
        Deployment::build(cfg, model, initial_params, datasets, sgd, &[])?;
    let cfg = topo.config();
    let t_sync = Duration::from_micros(cfg.t_sync.as_micros());
    let deadline =
        Duration::from_micros(cfg.t_sync.as_micros() * cfg.rounds) + Duration::from_secs(60);
    let last_round = (cfg.rounds - 1) as f64;
    let trainers: Vec<NodeId> = (0..cfg.trainers).map(|t| topo.trainer(t)).collect();

    // Bind every node's listener first so the address table is complete
    // before any core runs. Listeners stay bound for the whole run — a
    // crashed node keeps its port (rebinding an ephemeral port would
    // race), and "restart" clears the down flag.
    let io = |e: std::io::Error| IplsError::InvalidConfig(format!("listener: {e}"));
    let mut listeners = Vec::with_capacity(cores.len());
    let mut addrs = Vec::with_capacity(cores.len());
    for _ in 0..cores.len() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(io)?;
        addrs.push(listener.local_addr().map_err(io)?);
        listeners.push(listener);
    }
    let shared = Arc::new(Shared::new(addrs, cfg.seed));

    let rt = tokio::runtime::Runtime::new()
        .map_err(|e| IplsError::InvalidConfig(format!("runtime: {e}")))?;
    let completed = rt.block_on(async {
        // Channels first: the fault driver needs every node's sender
        // before any node runs, and shutdown reaches the nodes through them.
        let channels: Vec<_> = (0..cores.len()).map(|_| mpsc::channel()).collect();
        let txs: Vec<_> = channels.iter().map(|(tx, _)| tx.clone()).collect();
        if !cfg.fault_plan.is_empty() {
            let plan = cfg.fault_plan.clone();
            let txs = txs.clone();
            let shared = shared.clone();
            std::thread::spawn(move || {
                fault::drive_plan(
                    plan,
                    shared.epoch,
                    shared.faults.clone(),
                    txs,
                    shared.shutdown.clone(),
                )
            });
        }

        let mut nodes = Vec::with_capacity(cores.len());
        for (index, ((core, listener), (tx, rx))) in
            cores.into_iter().zip(listeners).zip(channels).enumerate()
        {
            let (acceptor_tx, acceptor_shared) = (tx.clone(), shared.clone());
            tokio::task::spawn_blocking(move || {
                accept_loop(listener, acceptor_tx, acceptor_shared)
            });
            let node = Node::new(NodeId(index), core, tx, shared.clone());
            nodes.push(tokio::task::spawn_blocking(move || node.run(rx)));
        }

        // A panicked waiter counts as a missed deadline.
        let waiter = shared.clone();
        let completed = tokio::task::spawn_blocking(move || {
            let completed = waiter.wait_until(waiter.epoch + deadline, |trace| {
                trace.count(labels::TASK_COMPLETE) > 0
            });
            if completed {
                waiter.wait_until(Instant::now() + t_sync, |trace| {
                    let done = trace.find_all(labels::TRAINER_ROUND_DONE);
                    trainers.iter().all(|&t| {
                        waiter.faults.is_down(t)
                            || done.iter().any(|e| e.node == t && e.value == last_round)
                    })
                });
            }
            completed
        })
        .await
        .unwrap_or(false);

        // Stop the node loops, then poke every listener so blocked
        // accept() calls observe the flag and exit.
        shared.shutdown.store(true, Ordering::Relaxed);
        for tx in &txs {
            let _ = tx.send(NodeEvent::Shutdown);
        }
        for addr in &shared.addrs {
            let _ = std::net::TcpStream::connect(*addr);
        }
        for node in nodes {
            let _ = node.await;
        }
        completed
    });
    // Every node loop has been joined: nothing writes the trace any more.
    let trace = std::mem::take(&mut *lock(&shared.trace));
    if !completed {
        return Err(IplsError::RoundFailed {
            round: trace.count(labels::ROUND_COMPLETE) as u64,
            reason: format!("TCP task missed its completion deadline ({deadline:?})"),
        });
    }
    Ok(TcpTaskReport {
        report: build_report(&topo, trace, &sink),
        delivery: shared.stats.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfl_netsim::SimDuration;

    /// Arms its timers at `Start` and reports every token that fires.
    struct Probe {
        arm_ms: Vec<(u64, u64)>,
        fired: mpsc::Sender<u64>,
    }

    impl ProtocolCore for Probe {
        type Msg = Msg;

        fn handle(&mut self, _now: SimTime, event: ProtocolEvent<Msg>, out: &mut Actions<Msg>) {
            match event {
                ProtocolEvent::Start => {
                    for &(ms, token) in &self.arm_ms {
                        out.set_timer(SimDuration::from_millis(ms), token);
                    }
                }
                ProtocolEvent::Timer { token } => self.fired.send(token).expect("test listens"),
                _ => {}
            }
        }
    }

    /// A one-node deployment around a [`Probe`]: the node, its event
    /// receiver and the fired-token receiver.
    fn probe(arm_ms: &[(u64, u64)]) -> (Node, mpsc::Receiver<NodeEvent>, mpsc::Receiver<u64>) {
        let (fired, fired_rx) = mpsc::channel();
        let (tx, rx) = mpsc::channel();
        let nowhere = SocketAddr::from(([127, 0, 0, 1], 1));
        let shared = Arc::new(Shared::new(vec![nowhere], 0));
        let core = Box::new(Probe {
            arm_ms: arm_ms.to_vec(),
            fired,
        });
        (Node::new(NodeId(0), core, tx, shared), rx, fired_rx)
    }

    fn started(arm_ms: &[(u64, u64)]) -> (Node, mpsc::Receiver<u64>) {
        let (mut node, _rx, fired) = probe(arm_ms);
        node.deliver(ProtocolEvent::Start);
        (node, fired)
    }

    #[test]
    fn timers_fire_in_deadline_order_and_only_when_due() {
        let (mut node, fired) = started(&[(3_000, 3), (1_000, 1), (2_000, 2)]);
        let now = Instant::now();
        node.fire_due(now);
        assert!(fired.try_recv().is_err(), "nothing is due yet");
        assert!(node
            .idle(now)
            .is_some_and(|idle| idle <= Duration::from_secs(1)));
        node.fire_due(now + Duration::from_millis(1_500));
        assert_eq!(fired.try_iter().collect::<Vec<_>>(), vec![1]);
        node.fire_due(now + Duration::from_secs(10));
        assert_eq!(fired.try_iter().collect::<Vec<_>>(), vec![2, 3]);
        assert!(node.timers.is_empty());
        // With no timer pending there is nothing to wake up for: the loop
        // blocks in `recv`, without a timeout.
        assert_eq!(node.idle(now), None);
    }

    #[test]
    fn same_deadline_timers_fire_in_arming_order() {
        let tokens: Vec<u64> = (0..8).collect();
        let arm: Vec<(u64, u64)> = tokens.iter().map(|&token| (0, token)).collect();
        let (mut node, fired) = started(&arm);
        node.fire_due(Instant::now());
        assert_eq!(fired.try_iter().collect::<Vec<_>>(), tokens);
    }

    #[test]
    fn a_timer_due_while_the_node_is_down_is_counted_and_never_fires() {
        let (mut node, fired) = started(&[(10, 7)]);
        let stats = node.shared.stats.clone();
        let discarded = || stats.timers_discarded_down.load(Ordering::Relaxed);
        let crash = Fault::Crash(NodeId(0));
        node.on_event(NodeEvent::Fault { fault: crash });
        node.fire_due(Instant::now() + Duration::from_secs(1));
        assert_eq!(discarded(), 1);
        let recover = Fault::Recover(NodeId(0));
        node.on_event(NodeEvent::Fault { fault: recover });
        node.fire_due(Instant::now() + Duration::from_secs(2));
        assert_eq!(discarded(), 1);
        assert!(node.timers.is_empty());
        assert!(fired.try_recv().is_err(), "the timer died with the outage");
    }

    #[test]
    fn nothing_fires_after_the_loop_stops() {
        // An hour-long watchdog is still pending on every node when the run
        // shuts down. The loops are asleep until that hour is up; shutdown
        // is an event on their channel, so each returns as soon as it is
        // sent — not at the next 10 ms tick, which stopping these sixteen
        // one after the other would take ≈ 80 ms to wait out.
        let nodes: Vec<_> = (0..16)
            .map(|_| {
                let (node, rx, fired) = probe(&[(0, 1), (3_600_000, 2)]);
                let tx = node.tx.clone();
                let node = std::thread::spawn(move || node.run(rx));
                assert_eq!(fired.recv_timeout(Duration::from_secs(5)), Ok(1));
                (node, tx, fired)
            })
            .collect();
        let stopping = Instant::now();
        for (node, tx, fired) in nodes {
            tx.send(NodeEvent::Shutdown).expect("node listens");
            node.join().expect("node loop");
            assert_eq!(fired.try_recv(), Err(mpsc::TryRecvError::Disconnected));
        }
        let took = stopping.elapsed();
        assert!(took < Duration::from_millis(30), "shutdown took {took:?}");
    }

    #[test]
    fn an_idle_node_sleeps_until_an_event_arrives() {
        // No timer at all: `idle` is unbounded, the loop sits in `recv`, and
        // an event still gets through at once.
        let (node, rx, _fired) = probe(&[]);
        assert_eq!(node.idle(Instant::now()), None);
        let (tx, stats) = (node.tx.clone(), node.shared.stats.clone());
        let node = std::thread::spawn(move || node.run(rx));
        let crash = Fault::Crash(NodeId(0));
        tx.send(NodeEvent::Fault { fault: crash })
            .expect("node listens");
        let (from, msg) = (NodeId(0), Msg::StartRound { iter: 0 });
        tx.send(NodeEvent::Msg { from, msg }).expect("node listens");
        tx.send(NodeEvent::Shutdown).expect("node listens");
        node.join().expect("node loop");
        assert_eq!(stats.frames_discarded_down.load(Ordering::Relaxed), 1);
    }
}
