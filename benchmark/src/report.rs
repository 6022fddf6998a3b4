//! What a finished run is judged by, computed from public APIs only: the
//! paper's simulated delay metrics and the counters off the public `Trace`,
//! the benchmark's own trace fingerprint, and an independent reference for
//! the final model (the protocol's aggregation arithmetic replayed with
//! `dfl_ml::local_update` and `ipls::gradient` — no network, no storage).

use std::collections::HashMap;

use dfl_crypto::quantize::encode;
use dfl_ml::local_update;
use dfl_netsim::{NodeId, Trace};
use ipls::gradient::{build_blob, decode_blob, decode_update, sum_gradients};
use ipls::{labels, Topology};

use crate::workloads::{Inputs, SGD};

/// FNV-1a over every observable output of a run: each event's time, node,
/// label name and value bits, then every counter and the byte totals.
/// Histograms (host-time samples) are deliberately outside it.
pub fn fingerprint(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in trace.events() {
        eat(&e.time.as_micros().to_le_bytes());
        eat(&(e.node.index() as u64).to_le_bytes());
        eat(trace.label_name(e.label).as_bytes());
        eat(&e.value.to_bits().to_le_bytes());
    }
    for (name, value) in trace.counters() {
        eat(name.as_bytes());
        eat(&value.to_le_bytes());
    }
    eat(&trace.total_bytes_sent().to_le_bytes());
    eat(&trace.total_bytes_received().to_le_bytes());
    h
}

/// The simulated-side numbers of one netsim run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Rounds that ran to completion (a prefix: a stalled round ends it).
    pub completed_rounds: u64,
    /// Mean simulated round duration, seconds (the paper's axis).
    pub sim_round_s: f64,
    /// Wire bytes sent by all nodes, per configured round.
    pub tx_bytes_per_round: f64,
    /// Mean trainer upload delay (upload start → last store ack).
    pub sim_upload_s: f64,
    /// Mean gradient-aggregation delay (first hash → all aggregated).
    pub sim_aggregation_s: f64,
    /// Mean synchronization delay (aggregated → all partials combined).
    pub sim_sync_s: f64,
    /// Mean megabytes received per aggregator per round (Fig. 2 bottom).
    pub agg_rx_mb_per_round: f64,
    /// Events in the trace.
    pub trace_events: u64,
    /// The benchmark's fingerprint of the trace.
    pub fingerprint: u64,
}

/// One label's events bucketed by the round number they carry as value.
fn by_round(trace: &Trace, label: &str, rounds: u64) -> Vec<Vec<(NodeId, f64)>> {
    let mut out = vec![Vec::new(); rounds as usize];
    for e in trace.find_all(label) {
        if e.value >= 0.0 && e.value.fract() == 0.0 && (e.value as u64) < rounds {
            out[e.value as usize].push((e.node, e.time.as_secs_f64()));
        }
    }
    out
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Reads the §V delay metrics and byte totals off a finished trace.
pub fn sim_report(topo: &Topology, trace: &Trace) -> SimReport {
    let cfg = topo.config();
    let rounds = cfg.rounds;
    let complete = by_round(trace, labels::ROUND_COMPLETE, rounds);
    let starts = by_round(trace, labels::ROUND_START, rounds);
    let upload_starts = by_round(trace, labels::UPLOAD_START, rounds);
    let upload_dones = by_round(trace, labels::UPLOAD_DONE, rounds);
    let first_hashes = by_round(trace, labels::FIRST_GRADIENT_HASH, rounds);
    let aggregated = by_round(trace, labels::GRADS_AGGREGATED, rounds);
    let syncs = by_round(trace, labels::SYNC_DONE, rounds);

    let (mut durations, mut uploads, mut aggregations, mut sync_delays) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in 0..rounds as usize {
        let Some(&(_, end)) = complete[r].first() else {
            break; // this and later rounds did not finish
        };
        let start = starts[r].first().map_or(0.0, |&(_, t)| t);
        durations.push(end - start);

        let begun: HashMap<NodeId, f64> = upload_starts[r].iter().copied().collect();
        let delays: Vec<f64> = upload_dones[r]
            .iter()
            .filter_map(|(node, done)| begun.get(node).map(|b| done - b))
            .collect();
        uploads.push(mean(&delays));

        let first_hash = first_hashes[r].first().map_or(start, |&(_, t)| t);
        let last_aggregated = aggregated[r].iter().fold(first_hash, |m, &(_, t)| m.max(t));
        let last_sync = syncs[r].iter().fold(last_aggregated, |m, &(_, t)| m.max(t));
        aggregations.push(last_aggregated - first_hash);
        sync_delays.push(last_sync - last_aggregated);
    }

    let aggregators = cfg.total_aggregators();
    let agg_rx: u64 = (0..aggregators)
        .map(|g| trace.bytes_received(topo.aggregator(g)))
        .sum();
    SimReport {
        completed_rounds: durations.len() as u64,
        sim_round_s: mean(&durations),
        tx_bytes_per_round: trace.total_bytes_sent() as f64 / rounds as f64,
        sim_upload_s: mean(&uploads),
        sim_aggregation_s: mean(&aggregations),
        sim_sync_s: mean(&sync_delays),
        agg_rx_mb_per_round: agg_rx as f64 / aggregators as f64 / rounds as f64 / 1e6,
        trace_events: trace.events().len() as u64,
        fingerprint: fingerprint(trace),
    }
}

/// Bytes the run spent on data that never became useful: protocol waste
/// plus wire waste (torn and undelivered flows). Zero on a healthy run.
pub fn wasted_bytes(trace: &Trace) -> u64 {
    use dfl_netsim::trace::net;
    (trace.sum(labels::WASTED_BYTES)
        + trace.sum(net::FLOW_TORN_INBOUND)
        + trace.sum(net::FLOW_TORN_OUTBOUND)
        + trace.sum(net::FLOW_UNDELIVERED)) as u64
}

/// The final model every trainer must hold after `rounds` rounds, computed
/// without the system under test: each trainer's seeded local update, the
/// fixed-point blob of every partition, the exact integer sum across
/// trainers, and the division by the appended counter — the arithmetic of
/// Algorithm 1, in the order-independent form every backend must match
/// bit for bit.
///
/// # Panics
///
/// Panics if the inputs are inconsistent with their own configuration
/// (a benchmark bug).
pub fn reference_params(inputs: &Inputs, rounds: u64) -> Vec<f32> {
    let cfg = &inputs.cfg;
    let topo = Topology::new(cfg.clone(), inputs.params.len()).expect("valid workload config");
    let mut models: Vec<_> = (0..cfg.trainers).map(|_| inputs.model.unmarked()).collect();
    let mut params = inputs.params.clone();
    for iter in 0..rounds {
        let locals: Vec<Vec<f32>> = models
            .iter_mut()
            .zip(&inputs.datasets)
            .enumerate()
            .map(|(t, (model, dataset))| {
                // The trainers' documented per-round seed.
                let seed = cfg.seed + iter * 1000 + t as u64;
                local_update(model, &params, dataset, &SGD, seed)
            })
            .collect();
        for i in 0..cfg.partitions {
            let (s, e) = topo.partition_range(i);
            let grads: Vec<_> = locals
                .iter()
                .map(|p| decode_blob(&build_blob(&p[s..e])).expect("own blob decodes"))
                .collect();
            let summed = sum_gradients(&grads).expect("sums stay in range");
            let (averaged, count) = decode_update(&encode(&summed)).expect("own update decodes");
            assert_eq!(count as usize, cfg.trainers, "every trainer contributes");
            params[s..e].copy_from_slice(&averaged);
        }
    }
    params
}
