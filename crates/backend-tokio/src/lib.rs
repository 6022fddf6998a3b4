//! Real-socket backend for the sans-io IPLS protocol cores.
//!
//! The netsim backend ([`ipls::runner::run_task`]) interprets
//! [`ProtocolAction`]s against a simulated
//! network; this crate interprets the *same* actions against localhost TCP
//! sockets and wall-clock timers, driving the *same* state machines
//! ([`ipls::Directory`], [`ipls::Aggregator`], [`ipls::Trainer`],
//! [`ipls::protocol::IpfsCore`]) unmodified. Nothing protocol-specific
//! lives here — only transport:
//!
//! - every node gets a TCP listener on an ephemeral port; [`codec`] frames
//!   messages as `[u32 len][u64 sender][payload]`;
//! - each node runs on its own blocking thread, draining a channel fed by
//!   socket-reader threads, one heap-based `timer` thread, and the
//!   fault driver;
//! - `Send` actions go through supervised per-peer writers (`conn`) with
//!   bounded queues and seeded exponential backoff — every way a frame
//!   can be lost is counted in the report's [`DeliveryReport`], never
//!   swallowed;
//! - the run honours the [`TaskConfig::fault_plan`] netsim executes:
//!   crashes, recoveries, partitions, and per-frame chaos are replayed
//!   against wall-clock time by `fault`, so one scripted scenario
//!   exercises both backends.
//!
//! Because training is seeded per `(task seed, round, trainer)` and
//! aggregation is exact and order-independent, a healthy run produces the
//! **same final model bytes** as a simulation of the same [`TaskConfig`] —
//! the end-to-end test in this crate asserts exactly that, and the chaos
//! test asserts a faulted run degrades to `min_quorum` exactly as the
//! netsim oracle does.
//!
//! [`TaskConfig::fault_plan`]: ipls::config::TaskConfig

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dfl_ml::{Dataset, Model, SgdConfig};
use dfl_netsim::{Fault, NodeId, SimTime};
use ipls::adversary::Behavior;
use ipls::config::{TaskConfig, Topology};
use ipls::error::IplsError;
use ipls::labels;
use ipls::protocol::{Actions, IpfsCore, ProtocolAction, ProtocolCore, ProtocolEvent};
use ipls::runner::storage_nodes;
use ipls::trainer::ParamSink;
use ipls::{Aggregator, Directory, Msg, Trainer};

pub mod codec;
mod conn;
mod fault;
mod timer;

pub use conn::{BackoffPolicy, DeliveryReport};

use conn::{DeliveryStats, PeerSender};
use fault::NetFaults;
use timer::TimerWheel;

/// Poison-tolerant locking: a panicking node thread must degrade that
/// node, not cascade a `PoisonError` panic through every thread sharing
/// the mutex (the waiter would otherwise hang the whole run).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Running summary of one histogram label (`ProtocolAction::Observe`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ObsSummary {
    /// Samples observed.
    pub count: u64,
    /// Sum of the sample values.
    pub sum: f64,
}

/// What a TCP task run produced. The socket backend has no [`Trace`], so
/// this carries the subset of [`ipls::runner::TaskReport`] that exists
/// outside the simulator — the learned model, progress, per-node
/// observability sinks, and the transport's delivery accounting.
///
/// [`Trace`]: dfl_netsim::Trace
#[derive(Clone, Debug)]
pub struct TcpTaskReport {
    /// Final model parameters per trainer index.
    pub final_params: HashMap<usize, Vec<f32>>,
    /// Rounds that ran to completion.
    pub completed_rounds: u64,
    /// Per-node counter sink (`ProtocolAction::Incr`), indexed like the
    /// simulator's node ids: directory, storage nodes, aggregators,
    /// trainers.
    pub counters: Vec<HashMap<&'static str, u64>>,
    /// Per-node count of `ProtocolAction::Record` events by label.
    pub records: Vec<HashMap<&'static str, u64>>,
    /// Per-node histogram summaries (`ProtocolAction::Observe`).
    pub observations: Vec<HashMap<&'static str, ObsSummary>>,
    /// The transport's frame-delivery accounting: every dropped,
    /// faulted, or crash-discarded frame of the run, by cause.
    pub delivery: DeliveryReport,
}

impl TcpTaskReport {
    /// The parameter vector all trainers converged to, if they agree
    /// (mirrors [`ipls::runner::TaskReport::consensus_params`]).
    pub fn consensus_params(&self) -> Option<Vec<f32>> {
        let mut iter = self.final_params.values();
        let first = iter.next()?.clone();
        for other in iter {
            if *other != first {
                return None;
            }
        }
        Some(first)
    }

    /// Total of `label` across every node's counter sink (mirrors
    /// `Trace::counter`).
    pub fn counter(&self, label: &str) -> u64 {
        self.counters
            .iter()
            .filter_map(|node| node.get(label))
            .sum()
    }

    /// How many times `label` was recorded, across nodes (mirrors
    /// `Trace::count`).
    pub fn record_count(&self, label: &str) -> u64 {
        self.records.iter().filter_map(|node| node.get(label)).sum()
    }

    /// Rounds that completed on a degraded quorum (mirrors
    /// [`ipls::runner::TaskReport::quorum_degradations`]).
    pub fn quorum_degradations(&self) -> u64 {
        self.record_count(labels::QUORUM_DEGRADED)
    }
}

/// An event delivered to a node's protocol thread.
pub(crate) enum NodeEvent {
    /// A decoded frame from a peer.
    Msg { from: NodeId, msg: Msg },
    /// A timer set by the node fired.
    Timer { token: u64 },
    /// The fault driver injected a fault on this node.
    Fault { fault: Fault },
    /// This node's transport gave up delivering a frame to `to`.
    SendFailed { to: NodeId },
}

/// Cross-thread state shared by every node of one run.
struct Shared {
    /// Listener address per node index.
    addrs: Vec<SocketAddr>,
    /// Run start; `now` for handlers is elapsed time since it.
    epoch: Instant,
    /// Set once to stop every node loop and acceptor (shared with the
    /// fault driver, which also honours it).
    shutdown: Arc<AtomicBool>,
    /// Directory `round_complete` records seen.
    completed_rounds: AtomicU64,
    /// Per-node `Incr` sink.
    counters: Vec<Mutex<HashMap<&'static str, u64>>>,
    /// Per-node `Record` occurrence counts.
    records: Vec<Mutex<HashMap<&'static str, u64>>>,
    /// Per-node `Observe` summaries.
    observations: Vec<Mutex<HashMap<&'static str, ObsSummary>>>,
    /// Flipped under the mutex when the directory records `task_complete`.
    done: Mutex<bool>,
    /// Signals `done`.
    done_cv: Condvar,
}

impl Shared {
    fn new(addrs: Vec<SocketAddr>) -> Shared {
        let nodes = addrs.len();
        Shared {
            addrs,
            epoch: Instant::now(),
            shutdown: Arc::new(AtomicBool::new(false)),
            completed_rounds: AtomicU64::new(0),
            counters: (0..nodes).map(|_| Mutex::new(HashMap::new())).collect(),
            records: (0..nodes).map(|_| Mutex::new(HashMap::new())).collect(),
            observations: (0..nodes).map(|_| Mutex::new(HashMap::new())).collect(),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn mark_done(&self) {
        *lock(&self.done) = true;
        self.done_cv.notify_all();
    }

    /// Waits until `task_complete` or the deadline; `true` on completion.
    fn wait_done(&self, deadline: Duration) -> bool {
        let guard = lock(&self.done);
        let (guard, _) = self
            .done_cv
            .wait_timeout_while(guard, deadline, |done| !*done)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *guard
    }
}

/// Everything one node's protocol thread needs to interpret actions:
/// supervised peer writers, the timer wheel, and the observability sinks.
struct NodeCtx {
    me: NodeId,
    senders: HashMap<usize, PeerSender>,
    wheel: TimerWheel,
    tx: mpsc::Sender<NodeEvent>,
    shared: Arc<Shared>,
    faults: Arc<NetFaults>,
    stats: Arc<DeliveryStats>,
    policy: BackoffPolicy,
}

impl NodeCtx {
    fn sender(&mut self, to: NodeId) -> &PeerSender {
        let NodeCtx {
            me,
            senders,
            tx,
            shared,
            faults,
            stats,
            policy,
            ..
        } = self;
        senders.entry(to.index()).or_insert_with(|| {
            PeerSender::spawn(
                *me,
                to,
                shared.addrs[to.index()],
                *policy,
                faults.clone(),
                stats.clone(),
                tx.clone(),
            )
        })
    }

    /// Interprets one batch of actions against sockets, the timer wheel,
    /// and the observability sinks.
    fn flush(&mut self, out: &mut Actions<Msg>) {
        for action in out.drain() {
            match action {
                ProtocolAction::Send { to, msg } => self.sender(to).send(msg),
                ProtocolAction::SetTimer { delay, token } => self
                    .wheel
                    .arm(Duration::from_micros(delay.as_micros()), token),
                ProtocolAction::Record { label, value } => {
                    *lock(&self.shared.records[self.me.index()])
                        .entry(label)
                        .or_insert(0) += 1;
                    if label == labels::ROUND_COMPLETE {
                        self.shared.completed_rounds.fetch_add(1, Ordering::Relaxed);
                    }
                    if label == labels::TASK_COMPLETE {
                        let _ = value; // rounds count; completed_rounds tracks it
                        self.shared.mark_done();
                    }
                }
                ProtocolAction::Incr { label, delta } => {
                    *lock(&self.shared.counters[self.me.index()])
                        .entry(label)
                        .or_insert(0) += delta;
                }
                ProtocolAction::Observe { label, value } => {
                    let mut obs = lock(&self.shared.observations[self.me.index()]);
                    let summary = obs.entry(label).or_default();
                    summary.count += 1;
                    summary.sum += value;
                }
            }
        }
    }

    /// Discards a crashed node's actions wholesale (the backend contract
    /// allows this; netsim does the same), counting the dropped sends so
    /// the loss is never silent.
    fn discard(&mut self, out: &mut Actions<Msg>) {
        for action in out.drain() {
            if let ProtocolAction::Send { .. } = action {
                self.stats
                    .frames_dropped_down
                    .fetch_add(1, Ordering::Relaxed);
            }
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

/// Drives one protocol core: Start, then events off the channel until
/// shutdown. The core never learns it is not in the simulator.
///
/// Crash semantics mirror netsim exactly: while down, inbound frames and
/// timer firings are discarded (counted), the crash event's own actions
/// are discarded wholesale, and recovery resumes normal interpretation —
/// timers armed before the crash that fire during the outage die, and the
/// core re-arms its clocks from the protocol's own recovery paths (the
/// directory's next `StartRound`, the sync watchdog).
fn node_loop(
    me: NodeId,
    mut core: Box<dyn ProtocolCore<Msg = Msg> + Send>,
    rx: mpsc::Receiver<NodeEvent>,
    mut ctx: NodeCtx,
) {
    let mut out = Actions::new();
    let mut down = false;
    core.handle(ctx.shared.now(), ProtocolEvent::Start, &mut out);
    ctx.flush(&mut out);
    while !ctx.shared.shutdown.load(Ordering::Relaxed) {
        let event = match rx.recv_timeout(Duration::from_millis(10)) {
            Ok(event) => event,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        let event = match event {
            NodeEvent::Msg { from, msg } => {
                if down {
                    ctx.stats
                        .frames_discarded_down
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                ProtocolEvent::Message { from, msg }
            }
            NodeEvent::Timer { token } => {
                if down {
                    ctx.stats
                        .timers_discarded_down
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                ProtocolEvent::Timer { token }
            }
            NodeEvent::SendFailed { to } => {
                if down {
                    continue;
                }
                ProtocolEvent::DeliveryFailure { to }
            }
            NodeEvent::Fault { fault } => {
                match fault {
                    Fault::Crash(n) if n == me => {
                        down = true;
                        core.handle(ctx.shared.now(), ProtocolEvent::Fault { fault }, &mut out);
                        ctx.discard(&mut out);
                        continue;
                    }
                    Fault::Recover(n) if n == me => down = false,
                    _ => {}
                }
                ProtocolEvent::Fault { fault }
            }
        };
        core.handle(ctx.shared.now(), event, &mut out);
        if down {
            ctx.discard(&mut out);
        } else {
            ctx.flush(&mut out);
        }
    }
    // Flush pending deadlines so the wheel's Drop join is immediate even
    // when a long watchdog is still armed.
    ctx.wheel.cancel_all();
}

/// Runs a full task over localhost TCP with default [`BackoffPolicy`]
/// supervision (seeded from the task seed) and reports the outcome.
///
/// Mirrors [`ipls::runner::run_task`] with all aggregators honest; the
/// configuration's [`fault_plan`](TaskConfig::fault_plan) is replayed
/// against wall-clock time (crashes, partitions, per-frame chaos), and a
/// wall-clock completion deadline of `t_sync × rounds + 60 s` applies.
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
    let policy = BackoffPolicy {
        seed: cfg.seed,
        ..BackoffPolicy::default()
    };
    run_task_over_tcp_with(cfg, model, initial_params, datasets, sgd, policy)
}

/// [`run_task_over_tcp`] with explicit connection-supervision knobs.
///
/// # Errors
///
/// Returns an error when the configuration is invalid or the task misses
/// the deadline.
pub fn run_task_over_tcp_with<M: Model + Clone + Send + 'static>(
    cfg: TaskConfig,
    model: M,
    initial_params: Vec<f32>,
    datasets: Vec<Dataset>,
    sgd: SgdConfig,
    policy: BackoffPolicy,
) -> Result<TcpTaskReport, IplsError> {
    let topo = Arc::new(Topology::new(cfg.clone(), initial_params.len())?);
    if datasets.len() != cfg.trainers {
        return Err(IplsError::InvalidConfig(format!(
            "{} datasets for {} trainers",
            datasets.len(),
            cfg.trainers
        )));
    }
    if model.param_count() != initial_params.len() {
        return Err(IplsError::InvalidConfig(
            "model parameter count does not match initial parameters".to_string(),
        ));
    }

    let key = cfg.verifiable.then(|| {
        Arc::new(ipls::gradient::derive_key(
            topo.max_partition_len(),
            cfg.seed,
            cfg.commit_precompute,
        ))
    });
    let sink: ParamSink = Arc::new(Mutex::new(HashMap::new()));

    // Same node-id layout as the simulator: directory, storage nodes,
    // aggregators, trainers.
    let mut cores: Vec<Box<dyn ProtocolCore<Msg = Msg> + Send>> = Vec::new();
    cores.push(Box::new(Directory::new(topo.clone(), key.clone())));
    for node in storage_nodes(&topo) {
        cores.push(Box::new(IpfsCore::<Msg>::new(node)));
    }
    for g in 0..cfg.total_aggregators() {
        cores.push(Box::new(Aggregator::new(
            g,
            topo.clone(),
            key.clone(),
            Behavior::Honest,
        )));
    }
    for (t, dataset) in datasets.into_iter().enumerate() {
        cores.push(Box::new(Trainer::new(
            t,
            topo.clone(),
            key.clone(),
            model.clone(),
            initial_params.clone(),
            dataset,
            sgd,
            sink.clone(),
        )));
    }
    debug_assert_eq!(cores.len(), topo.node_count());

    let deadline =
        Duration::from_micros(cfg.t_sync.as_micros() * cfg.rounds) + Duration::from_secs(60);

    let faults = Arc::new(NetFaults::new(cores.len()));
    let stats = Arc::new(DeliveryStats::default());

    let rt = tokio::runtime::Runtime::new()
        .map_err(|e| IplsError::InvalidConfig(format!("runtime: {e}")))?;
    let run = rt.block_on(async {
        // Bind every node's listener first so the address table is
        // complete before any core runs. Listeners stay bound for the
        // whole run — a crashed node keeps its port (rebinding an
        // ephemeral port would race), and "restart" clears the down flag.
        let mut listeners = Vec::with_capacity(cores.len());
        let mut addrs = Vec::with_capacity(cores.len());
        for _ in 0..cores.len() {
            let listener = tokio::net::TcpListener::bind("127.0.0.1:0")
                .await
                .map_err(|e| IplsError::InvalidConfig(format!("bind: {e}")))?;
            addrs.push(
                listener
                    .local_addr()
                    .map_err(|e| IplsError::InvalidConfig(format!("local_addr: {e}")))?,
            );
            listeners.push(listener);
        }
        let shared = Arc::new(Shared::new(addrs));

        // Channels first: the fault driver needs every node's sender
        // before any node runs.
        let channels: Vec<_> = (0..cores.len()).map(|_| mpsc::channel()).collect();
        if !cfg.fault_plan.is_empty() {
            let plan = cfg.fault_plan.clone();
            let epoch = shared.epoch;
            let driver_faults = faults.clone();
            let txs: Vec<_> = channels.iter().map(|(tx, _)| tx.clone()).collect();
            let driver_shutdown = shared.shutdown.clone();
            std::thread::spawn(move || {
                fault::drive_plan(plan, epoch, driver_faults, txs, driver_shutdown)
            });
        }

        let mut nodes = Vec::with_capacity(cores.len());
        for (index, ((core, listener), (tx, rx))) in
            cores.into_iter().zip(listeners).zip(channels).enumerate()
        {
            let me = NodeId(index);
            let std_listener = listener
                .into_std()
                .map_err(|e| IplsError::InvalidConfig(format!("listener: {e}")))?;
            let acceptor_tx = tx.clone();
            let acceptor_shared = shared.clone();
            tokio::task::spawn_blocking(move || {
                accept_loop(std_listener, acceptor_tx, acceptor_shared)
            });
            let ctx = NodeCtx {
                me,
                senders: HashMap::new(),
                wheel: TimerWheel::spawn(tx.clone()),
                tx,
                shared: shared.clone(),
                faults: faults.clone(),
                stats: stats.clone(),
                policy,
            };
            nodes.push(tokio::task::spawn_blocking(move || {
                node_loop(me, core, rx, ctx)
            }));
        }

        let waiter_shared = shared.clone();
        let completed = tokio::task::spawn_blocking(move || waiter_shared.wait_done(deadline))
            .await
            .expect("completion waiter");

        // Stop the node loops, then poke every listener so blocked
        // accept() calls observe the flag and exit.
        shared.shutdown.store(true, Ordering::Relaxed);
        for addr in &shared.addrs {
            let _ = std::net::TcpStream::connect(*addr);
        }
        for node in nodes {
            let _ = node.await;
        }
        Ok::<_, IplsError>((completed, shared))
    })?;
    let (done, shared) = run;
    let completed_rounds = shared.completed_rounds.load(Ordering::Relaxed);
    if !done {
        return Err(IplsError::RoundFailed {
            round: completed_rounds,
            reason: format!("TCP task missed its completion deadline ({deadline:?})"),
        });
    }

    let final_params = lock(&sink).clone();
    Ok(TcpTaskReport {
        final_params,
        completed_rounds,
        counters: shared.counters.iter().map(|m| lock(m).clone()).collect(),
        records: shared.records.iter().map(|m| lock(m).clone()).collect(),
        observations: shared
            .observations
            .iter()
            .map(|m| lock(m).clone())
            .collect(),
        delivery: stats.snapshot(),
    })
}
