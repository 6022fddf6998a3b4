//! Task runner: builds the simulated deployment (directory, storage nodes,
//! aggregators, trainers), runs the configured number of rounds, and
//! extracts the delay metrics the paper's evaluation reports.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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
use crate::protocol::{IpfsCore, NetsimAdapter};
use crate::trainer::{ParamSink, Trainer};
use crate::Aggregator;

/// Delay metrics of one training round (all in seconds of simulated time).
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
    /// Wall-clock duration of the round (announcement → all trainers done).
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
    /// receiver was down at delivery.
    pub wire_wasted_bytes: u64,
    /// Application bytes sent across all nodes over the whole task (the
    /// run's total wire cost).
    pub total_tx_bytes: u64,
    /// The raw simulation trace, for custom analysis.
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

/// The deployment's storage nodes in index order, each configured from the
/// task: the shared roster, `fetch_timeout` as the retry base and the
/// `lossy_ipfs_nodes` fault injection. Every backend builds them here.
pub fn storage_nodes(topo: &Topology) -> Vec<IpfsNode> {
    let cfg = topo.config();
    let roster = IpfsNode::roster_for(&topo.ipfs_ids());
    (0..cfg.ipfs_nodes)
        .map(|k| {
            let mut node = IpfsNode::new(topo.ipfs_node(k), roster.clone());
            node.set_retry_policy(RetryPolicy {
                base_timeout: cfg.fetch_timeout,
                ..RetryPolicy::default()
            });
            node.set_lossy(cfg.lossy_ipfs_nodes.contains(&k));
            node
        })
        .collect()
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

    // Generous stop-gap: a stalled round ends the simulation at the limit.
    let limit_us = (cfg.t_sync.as_micros() + 120_000_000) * cfg.rounds;
    sim.set_time_limit(SimTime::from_micros(limit_us));

    let link = cfg.link();
    let sink: ParamSink = Arc::new(Mutex::new(HashMap::new()));

    // Node 0: the directory (bootstrapper).
    let dir_id = sim.add_node(
        NetsimAdapter::new(Directory::new(topo.clone(), key.clone())),
        link,
    );
    assert_eq!(dir_id, topo.directory());

    // Storage nodes (possibly on faster infrastructure links).
    let ipfs_link = cfg.ipfs_link();
    for (k, node) in storage_nodes(&topo).into_iter().enumerate() {
        let id = sim.add_node(NetsimAdapter::new(IpfsCore::new(node)), ipfs_link);
        assert_eq!(id, topo.ipfs_node(k));
    }

    // Aggregators.
    let behavior_of = |g: usize| {
        behaviors
            .iter()
            .find(|(i, _)| *i == g)
            .map(|(_, b)| *b)
            .unwrap_or(Behavior::Honest)
    };
    for g in 0..cfg.total_aggregators() {
        let id = sim.add_node(
            NetsimAdapter::new(Aggregator::new(
                g,
                topo.clone(),
                key.clone(),
                behavior_of(g),
            )),
            link,
        );
        assert_eq!(id, topo.aggregator(g));
    }

    // Trainers.
    for (t, dataset) in datasets.into_iter().enumerate() {
        let id = sim.add_node(
            NetsimAdapter::new(Trainer::new(
                t,
                topo.clone(),
                key.clone(),
                model.clone(),
                initial_params.clone(),
                dataset,
                sgd,
                sink.clone(),
            )),
            link,
        );
        assert_eq!(id, topo.trainer(t));
    }

    sim.apply_fault_plan(&cfg.fault_plan);

    sim.run();
    let trace = sim.into_trace();
    let params = sink.lock().expect("param sink").clone();
    Ok(build_report(&topo, &trace, &params))
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

fn build_report(topo: &Topology, trace: &Trace, sink: &HashMap<usize, Vec<f32>>) -> TaskReport {
    let cfg = topo.config();

    // Bucket every per-round label once, instead of re-querying the trace
    // for each round.
    let complete = by_round(trace, labels::ROUND_COMPLETE, cfg.rounds);
    let round_starts = by_round(trace, labels::ROUND_START, cfg.rounds);
    let upload_starts = by_round(trace, labels::UPLOAD_START, cfg.rounds);
    let upload_dones = by_round(trace, labels::UPLOAD_DONE, cfg.rounds);
    let first_hashes = by_round(trace, labels::FIRST_GRADIENT_HASH, cfg.rounds);
    let fetch_starts = by_round(trace, labels::FETCH_START, cfg.rounds);
    let aggregated = by_round(trace, labels::GRADS_AGGREGATED, cfg.rounds);
    let syncs = by_round(trace, labels::SYNC_DONE, cfg.rounds);

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
        final_params: sink.clone(),
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
        trace: trace.clone(),
    }
}
