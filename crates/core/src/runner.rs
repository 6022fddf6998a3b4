//! Task runner: builds the deployment (directory, storage nodes,
//! aggregators, trainers), runs the configured number of rounds in the
//! simulator, and extracts the delay metrics the paper's evaluation reports
//! from the trace. [`Deployment::build`] and [`build_report`] are the two
//! ends every backend shares; `dfl-backend-tokio` puts sockets between them
//! where [`run_task_in`] puts the simulator.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use dfl_ipfs::{IpfsNode, RetryPolicy};
use dfl_ml::{Dataset, Model, SgdConfig};
use dfl_netsim::{NodeId, SimTime, Simulation, Trace};

use crate::adversary::Behavior;
use crate::config::{TaskConfig, Topology};
use crate::directory::Directory;
use crate::error::IplsError;
use crate::gradient::{derive_key, ProtocolKey};
use crate::labels;
use crate::messages::Msg;
use crate::protocol::{IpfsCore, NetsimAdapter, ProtocolCore};
use crate::trainer::{ParamSink, Trainer};
use crate::Aggregator;

/// Delay metrics of one training round, all in seconds of the run's clock:
/// simulated time under netsim, wall-clock time over sockets.
#[derive(Clone, Debug, Default)]
pub struct RoundMetrics {
    /// Round number.
    pub round: u64,
    /// Mean trainer upload delay (upload start → last store ack, §V).
    pub upload_delay_avg: f64,
    /// Worst trainer upload delay.
    pub upload_delay_max: f64,
    /// Gradient-aggregation delay: first gradient hash written in the
    /// directory → all aggregators finished aggregating (§V).
    pub aggregation_delay: f64,
    /// Mean per-aggregator gradient-gathering span: first own-gradient
    /// fetch or merge RPC → that aggregator's gradients aggregated. Zero in
    /// direct mode (no storage fetch).
    pub merge_delay: f64,
    /// Synchronization delay: gradients aggregated → all partials combined.
    pub sync_delay: f64,
    /// Total aggregation delay (`aggregation_delay + sync_delay`).
    pub total_aggregation_delay: f64,
    /// Duration of the round (announcement → all trainers done).
    pub round_duration: f64,
}

/// Everything a task run produced.
#[derive(Clone, Debug)]
pub struct TaskReport {
    /// Per-round delay metrics (only rounds that completed).
    pub rounds: Vec<RoundMetrics>,
    /// Rounds that ran to completion.
    pub completed_rounds: u64,
    /// Final model parameters per trainer (present for trainers that
    /// finished at least one round).
    pub final_params: HashMap<usize, Vec<f32>>,
    /// Application bytes received by each aggregator over the whole task.
    pub aggregator_rx_bytes: Vec<u64>,
    /// Number of updates the directory rejected for failing commitment
    /// verification.
    pub verification_failures: usize,
    /// Number of dropout recoveries performed by peer aggregators.
    pub dropout_recoveries: usize,
    /// Number of times an aggregator passed its sync deadline and continued
    /// with a quorum of received gradients instead of the full trainer set.
    pub quorum_degradations: usize,
    /// Number of merge RPC failures that degraded to plain per-CID fetches.
    pub merge_fallbacks: usize,
    /// Misbehavior detections: commitment mismatches pinned on a specific
    /// aggregator (by a peer during partial sync or by the directory).
    pub detections: usize,
    /// Aggregators the directory evicted on verified misbehavior evidence.
    pub evictions: usize,
    /// Rounds in which at least one aggregator completed the partition
    /// sync from recovered gradients instead of a peer partial.
    pub recovered_rounds: usize,
    /// Bytes spent on data that never became useful: misbehavior-invalidated
    /// data (bad partials, rejected updates, corrupt recovered blobs) plus
    /// the wire waste in [`TaskReport::wire_wasted_bytes`].
    pub wasted_bytes: u64,
    /// Bytes the network carried that no application consumed: partial
    /// transfers torn by crashes and completed payloads dropped because the
    /// receiver was down at delivery. Zero over sockets, where frames that
    /// die are counted, not weighed, in the backend's `DeliveryReport`.
    pub wire_wasted_bytes: u64,
    /// Application bytes sent across all nodes over the whole task (the
    /// run's total wire cost). Over sockets a frame is booked when its
    /// `Send` is interpreted, and as received when it reaches a live core.
    pub total_tx_bytes: u64,
    /// The run's raw trace, for custom analysis.
    pub trace: Trace,
}

impl TaskReport {
    /// `true` when every configured round completed.
    pub fn succeeded(&self, cfg: &TaskConfig) -> bool {
        self.completed_rounds == cfg.rounds
    }

    /// The parameter vector all trainers converged to, if they agree.
    ///
    /// Returns `None` when trainers disagree (which would indicate a
    /// protocol bug or an undetected attack) or no round completed.
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
}

/// A protocol core behind a pointer, as a backend drives it.
pub type BoxedCore = Box<dyn ProtocolCore<Msg = Msg> + Send>;

/// One task's deployment, built once for whichever backend runs it: the
/// checked topology, every node's core and the sink the trainers write
/// their final parameters to.
pub struct Deployment {
    /// The task's topology (node ids, partitions, gateways).
    pub topo: Arc<Topology>,
    /// One core per node in node-id order: the directory, the storage
    /// nodes, the aggregators, the trainers.
    pub cores: Vec<BoxedCore>,
    /// Final model parameters per trainer index, filled in as trainers
    /// finish rounds.
    pub sink: ParamSink,
}

impl Deployment {
    /// Checks the inputs against each other and builds every core.
    ///
    /// `datasets[t]` is trainer `t`'s local data; `behaviors` overrides the
    /// behaviour of specific aggregators by global index (all others honest).
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid or inconsistent
    /// with the model/datasets.
    pub fn build<M: Model + Clone + 'static>(
        cfg: TaskConfig,
        model: M,
        initial_params: Vec<f32>,
        datasets: Vec<Dataset>,
        sgd: SgdConfig,
        behaviors: &[(usize, Behavior)],
    ) -> Result<Deployment, IplsError> {
        let topo = Arc::new(Topology::new(cfg, initial_params.len())?);
        let cfg = topo.config();
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
        for (g, _) in behaviors {
            if *g >= cfg.total_aggregators() {
                return Err(IplsError::InvalidConfig(format!(
                    "no aggregator with index {g}"
                )));
            }
        }

        let key: Option<Arc<ProtocolKey>> = cfg.verifiable.then(|| {
            Arc::new(derive_key(
                topo.max_partition_len(),
                cfg.seed,
                cfg.commit_precompute,
            ))
        });
        let sink: ParamSink = Arc::new(Mutex::new(HashMap::new()));
        let behavior_of = |g: usize| {
            behaviors
                .iter()
                .find(|(i, _)| *i == g)
                .map_or(Behavior::Honest, |(_, b)| *b)
        };

        let mut cores: Vec<BoxedCore> = Vec::with_capacity(topo.node_count());
        cores.push(Box::new(Directory::new(topo.clone(), key.clone())));
        // Storage nodes share the roster and take `fetch_timeout` as the retry
        // base from the task.
        let roster = IpfsNode::roster_for(&topo.ipfs_ids());
        for k in 0..cfg.ipfs_nodes {
            let mut node = IpfsNode::new(topo.ipfs_node(k), roster.clone());
            node.set_retry_policy(RetryPolicy {
                base_timeout: cfg.fetch_timeout,
                ..RetryPolicy::default()
            });
            cores.push(Box::new(IpfsCore::<Msg>::new(node)));
        }
        for g in 0..cfg.total_aggregators() {
            cores.push(Box::new(Aggregator::new(
                g,
                topo.clone(),
                key.clone(),
                behavior_of(g),
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
        assert_eq!(cores.len(), topo.node_count());
        Ok(Deployment { topo, cores, sink })
    }
}

/// Runs a full task and reports its metrics.
///
/// `datasets[t]` is trainer `t`'s local data; `behaviors` overrides the
/// behaviour of specific aggregators by global index (all others honest).
///
/// # Errors
///
/// Returns an error when the configuration is invalid or inconsistent with
/// the model/datasets.
pub fn run_task<M: Model + Clone + 'static>(
    cfg: TaskConfig,
    model: M,
    initial_params: Vec<f32>,
    datasets: Vec<Dataset>,
    sgd: SgdConfig,
    behaviors: &[(usize, Behavior)],
) -> Result<TaskReport, IplsError> {
    let sim = Simulation::new();
    run_task_in(sim, cfg, model, initial_params, datasets, sgd, behaviors)
}

/// [`run_task`] on a simulation the caller made: the deployment is added to
/// `sim`, which must hold no nodes yet. The allocator-equivalence tests pass
/// one with [`Simulation::set_reference_allocator`] switched on.
///
/// # Errors
///
/// As [`run_task`].
pub fn run_task_in<M: Model + Clone + 'static>(
    mut sim: Simulation<Msg>,
    cfg: TaskConfig,
    model: M,
    initial_params: Vec<f32>,
    datasets: Vec<Dataset>,
    sgd: SgdConfig,
    behaviors: &[(usize, Behavior)],
) -> Result<TaskReport, IplsError> {
    let Deployment { topo, cores, sink } =
        Deployment::build(cfg, model, initial_params, datasets, sgd, behaviors)?;
    let cfg = topo.config();

    // Generous stop-gap: a stalled round ends the simulation at the limit.
    let limit_us = (cfg.t_sync.as_micros() + 120_000_000) * cfg.rounds;
    sim.set_time_limit(SimTime::from_micros(limit_us));

    // Storage nodes may sit on faster infrastructure links.
    let storage = topo.ipfs_ids();
    for (index, core) in cores.into_iter().enumerate() {
        let link = if storage.contains(&NodeId(index)) {
            cfg.ipfs_link()
        } else {
            cfg.link()
        };
        let id = sim.add_node(NetsimAdapter::new(core), link);
        assert_eq!(id, NodeId(index));
    }

    sim.apply_fault_plan(&cfg.fault_plan);

    sim.run();
    Ok(build_report(&topo, sim.into_trace(), &sink))
}

/// One label's events bucketed by round: each event whose value is the
/// round number lands in `out[round]` as `(node, seconds)`. One walk of the
/// label's index, regardless of the round count.
fn by_round(trace: &Trace, label: &str, rounds: u64) -> Vec<Vec<(NodeId, f64)>> {
    let mut out = vec![Vec::new(); rounds as usize];
    for e in trace.find_all(label) {
        let iter = e.value;
        if iter >= 0.0 && iter.fract() == 0.0 && (iter as u64) < rounds {
            out[iter as usize].push((e.node, e.time.as_secs_f64()));
        }
    }
    out
}

/// Turns a finished run's trace into its [`TaskReport`]: the per-round
/// delays of §V, the counter fields and the trainers' final parameters. Both
/// backends end here; over sockets the trace's times are wall-clock seconds
/// since the run started.
pub fn build_report(topo: &Topology, trace: Trace, sink: &ParamSink) -> TaskReport {
    let cfg = topo.config();
    let final_params = sink.lock().unwrap_or_else(PoisonError::into_inner).clone();

    // Bucket every per-round label once, instead of re-querying the trace
    // for each round.
    let complete = by_round(&trace, labels::ROUND_COMPLETE, cfg.rounds);
    let round_starts = by_round(&trace, labels::ROUND_START, cfg.rounds);
    let upload_starts = by_round(&trace, labels::UPLOAD_START, cfg.rounds);
    let upload_dones = by_round(&trace, labels::UPLOAD_DONE, cfg.rounds);
    let first_hashes = by_round(&trace, labels::FIRST_GRADIENT_HASH, cfg.rounds);
    let fetch_starts = by_round(&trace, labels::FETCH_START, cfg.rounds);
    let aggregated = by_round(&trace, labels::GRADS_AGGREGATED, cfg.rounds);
    let syncs = by_round(&trace, labels::SYNC_DONE, cfg.rounds);

    let mut rounds = Vec::new();
    for iter in 0..cfg.rounds as usize {
        if complete[iter].is_empty() {
            break; // this and later rounds did not finish
        }
        let round_start = round_starts[iter].first().map(|(_, t)| *t).unwrap_or(0.0);
        let round_end = complete[iter][0].1;

        // Upload delays, paired per trainer.
        let starts: HashMap<NodeId, f64> = upload_starts[iter].iter().copied().collect();
        let mut delays: Vec<f64> = upload_dones[iter]
            .iter()
            .filter_map(|(node, done)| starts.get(node).map(|start| done - start))
            .collect();
        delays.sort_by(f64::total_cmp);
        let upload_delay_avg = if delays.is_empty() {
            0.0
        } else {
            delays.iter().sum::<f64>() / delays.len() as f64
        };
        let upload_delay_max = delays.last().copied().unwrap_or(0.0);

        let first_hash = first_hashes[iter]
            .first()
            .map(|(_, t)| *t)
            .unwrap_or(round_start);
        let last_aggregated = aggregated[iter]
            .iter()
            .map(|(_, t)| *t)
            .fold(first_hash, f64::max);
        let last_sync = syncs[iter]
            .iter()
            .map(|(_, t)| *t)
            .fold(last_aggregated, f64::max);

        // Merge delay: per-aggregator fetch-start → grads-aggregated span.
        let fetch_by_node: HashMap<NodeId, f64> = fetch_starts[iter].iter().copied().collect();
        let spans: Vec<f64> = aggregated[iter]
            .iter()
            .filter_map(|(node, done)| fetch_by_node.get(node).map(|start| done - start))
            .collect();
        let merge_delay = if spans.is_empty() {
            0.0
        } else {
            spans.iter().sum::<f64>() / spans.len() as f64
        };

        rounds.push(RoundMetrics {
            round: iter as u64,
            upload_delay_avg,
            upload_delay_max,
            aggregation_delay: last_aggregated - first_hash,
            merge_delay,
            sync_delay: last_sync - last_aggregated,
            total_aggregation_delay: last_sync - first_hash,
            round_duration: round_end - round_start,
        });
    }

    let aggregator_rx_bytes = (0..cfg.total_aggregators())
        .map(|g| trace.bytes_received(topo.aggregator(g)))
        .collect();

    // Wire waste: bytes the network carried that no application consumed
    // (crash-torn partial transfers and payloads dropped at delivery).
    // Per-label value sums are maintained incrementally by the trace.
    let wire_wasted_bytes = (trace.sum(dfl_netsim::trace::net::FLOW_TORN_INBOUND)
        + trace.sum(dfl_netsim::trace::net::FLOW_TORN_OUTBOUND)
        + trace.sum(dfl_netsim::trace::net::FLOW_UNDELIVERED)) as u64;
    let protocol_wasted_bytes = trace.sum(labels::WASTED_BYTES) as u64;

    TaskReport {
        completed_rounds: rounds.len() as u64,
        rounds,
        final_params,
        aggregator_rx_bytes,
        verification_failures: trace.count(labels::VERIFICATION_FAILED),
        dropout_recoveries: trace.count(labels::DROPOUT_RECOVERY),
        quorum_degradations: trace.count(labels::QUORUM_DEGRADED),
        merge_fallbacks: trace.count(labels::MERGE_FALLBACK),
        detections: trace.count(labels::MISBEHAVIOR_DETECTED),
        evictions: trace.count(labels::EVICTED),
        recovered_rounds: {
            // Distinct rounds, not events: several aggregators may recover
            // the same round independently.
            let mut iters: Vec<u64> = trace
                .find_all(labels::ROUND_RECOVERED)
                .into_iter()
                .map(|e| e.value as u64)
                .collect();
            iters.sort_unstable();
            iters.dedup();
            iters.len()
        },
        wasted_bytes: protocol_wasted_bytes + wire_wasted_bytes,
        wire_wasted_bytes,
        total_tx_bytes: trace.total_bytes_sent(),
        trace,
    }
}
