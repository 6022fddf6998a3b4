//! # dfl-bench
//!
//! The experiment harness that regenerates every figure of the paper's
//! evaluation (§V). Each `figN_*` function reproduces one figure's setup
//! and returns the measured series; the `examples/figN_*` binaries print
//! them and `tests/experiment_shapes.rs` pins their shapes. Two ablations
//! ride along: [`replication_run`] (printed by `examples/availability`)
//! and [`verify_run`] (printed by `examples/fig3_commitment`).
//!
//! Beside the figures it holds the fixtures the root tests and examples
//! share: the storage-churn sweep, the synthetic swarm that drives the
//! flow allocator at scale, the overlay configuration, and
//! [`trace_fingerprint`], the one definition of "two runs behaved alike".
//! Wall-clock timings live in the `benchmark/` package.
//!
//! | Paper figure | Function | Setup |
//! |---|---|---|
//! | Fig. 1 (agg + upload delay vs providers) | [`fig1_providers`] | 16 trainers, 1.3 MB partition, 1 aggregator, 10 Mbps |
//! | Fig. 2 (delay split + bytes vs \|A_i\|)  | [`fig2_aggregators`] | 16 trainers, 8 nodes, 4×1.1 MB partitions, 20 Mbps |
//! | Fig. 3 (hash vs commitment time)         | [`fig3_commitment`] | SHA-256 + Pedersen (k1/r1) vs #parameters |

use std::time::Instant;

use dfl_crypto::curve::{Curve, Scalar, Secp256k1, Secp256r1};
use dfl_crypto::pedersen::CommitKey;
use dfl_crypto::sha256::Sha256;
use dfl_ml::{Dataset, Matrix, SgdConfig, SyntheticModel};
use dfl_netsim::{
    Actor, Context, FaultPlan, LinkSpec, NodeId, SimDuration, SimTime, Simulation, Trace,
};
use ipls::runner::run_task_in;
use ipls::{CommMode, Msg, TaskConfig, TaskReport};

/// Bytes per encoded parameter on the wire (fixed-point i64).
const BYTES_PER_ELEMENT: usize = 8;

/// Runs one network experiment round with a synthetic model of
/// `param_count` parameters and returns the report.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn run_network_experiment(cfg: TaskConfig, param_count: usize) -> TaskReport {
    run_network_experiment_in(Simulation::new(), cfg, param_count)
}

/// [`run_network_experiment`] on a simulation the caller made — how the
/// allocator-equivalence tests run a figure under the reference allocator.
pub fn run_network_experiment_in(
    sim: Simulation<Msg>,
    cfg: TaskConfig,
    param_count: usize,
) -> TaskReport {
    let model = SyntheticModel::new(param_count, cfg.seed);
    let params = dfl_ml::Model::params(&model);
    // Delay experiments do not train on real data; a single dummy example
    // keeps the local-update plumbing exercised.
    let datasets: Vec<Dataset> = (0..cfg.trainers)
        .map(|_| Dataset {
            x: Matrix::zeros(1, 1),
            y: vec![0.0],
        })
        .collect();
    let sgd = SgdConfig {
        lr: 0.01,
        batch_size: 1,
        epochs: 1,
        clip: None,
    };
    run_task_in(sim, cfg, model, params, datasets, sgd, &[]).expect("valid experiment config")
}

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

/// One series point of Fig. 1.
#[derive(Clone, Debug)]
pub struct Fig1Point {
    /// Series label as in the paper ("4", "8 (naive)", "8 (direct)").
    pub label: String,
    /// Providers per aggregator (the x axis).
    pub providers: usize,
    /// Aggregation delay in seconds: first gradient hash in the directory
    /// → all gradients aggregated (Fig. 1 top).
    pub aggregation_delay: f64,
    /// Mean trainer upload delay in seconds: upload start → last store
    /// acknowledgment (Fig. 1 bottom; 0 for the direct series, which has
    /// no store acknowledgment).
    pub upload_delay: f64,
}

/// Fig. 1 base setup: 16 trainers, one 1.3 MB partition, one aggregator,
/// every link 10 Mbps.
pub fn fig1_config() -> TaskConfig {
    TaskConfig {
        trainers: 16,
        partitions: 1,
        aggregators_per_partition: 1,
        ipfs_nodes: 16,
        bandwidth_mbps: 10,
        rounds: 1,
        latency: SimDuration::from_millis(10),
        poll_interval: SimDuration::from_millis(100),
        t_train: SimDuration::from_secs(600),
        t_sync: SimDuration::from_secs(1200),
        seed: 1,
        ..TaskConfig::default()
    }
}

/// Parameter count giving the paper's 1.3 MB partition.
pub fn fig1_param_count() -> usize {
    1_300_000 / BYTES_PER_ELEMENT
}

/// Runs one Fig. 1 point with a partition of `params` parameters
/// ([`fig1_param_count`] is the paper's size).
pub fn fig1_run(comm: CommMode, providers: usize, params: usize) -> Fig1Point {
    let mut cfg = fig1_config();
    cfg.comm = comm;
    cfg.providers_per_aggregator = providers.max(1);
    if comm == CommMode::Indirect {
        // The "naive" series stores gradients on `providers` gateways.
        cfg.ipfs_nodes = providers.max(1);
    }
    let report = run_network_experiment(cfg, params);
    let round = report.rounds.first().expect("round completed");
    Fig1Point {
        label: match comm {
            CommMode::Direct => format!("{providers} (direct)"),
            CommMode::Indirect => format!("{providers} (naive)"),
            CommMode::MergeAndDownload => providers.to_string(),
        },
        providers,
        aggregation_delay: round.aggregation_delay,
        upload_delay: round.upload_delay_avg,
    }
}

/// The full Fig. 1 sweep: merge-and-download with 1–16 providers, plus the
/// naive-indirect and direct baselines at 8 providers.
pub fn fig1_providers() -> Vec<Fig1Point> {
    let params = fig1_param_count();
    let mut points: Vec<Fig1Point> = [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&p| fig1_run(CommMode::MergeAndDownload, p, params))
        .collect();
    points.push(fig1_run(CommMode::Indirect, 8, params));
    points.push(fig1_run(CommMode::Direct, 8, params));
    points
}

// ---------------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------------

/// One series point of Fig. 2.
#[derive(Clone, Debug)]
pub struct Fig2Point {
    /// Aggregators per partition `|A_i|`.
    pub aggregators_per_partition: usize,
    /// Gradient-aggregation delay (seconds).
    pub aggregation_delay: f64,
    /// Synchronization delay (seconds).
    pub sync_delay: f64,
    /// Total aggregation delay (Fig. 2 top).
    pub total_delay: f64,
    /// Mean megabytes received per aggregator in the round (Fig. 2 bottom).
    pub mb_per_aggregator: f64,
    /// The analytic expectation `(|T_ij| + |A_i| − 1) · PartitionSize`.
    pub expected_mb: f64,
}

/// Fig. 2 base setup: 16 trainers, 8 storage nodes, 4 partitions of 1.1 MB,
/// 20 Mbps, naive indirect communication (the paper isolates |A_i| without
/// merge-and-download).
pub fn fig2_config() -> TaskConfig {
    TaskConfig {
        trainers: 16,
        partitions: 4,
        aggregators_per_partition: 1,
        ipfs_nodes: 8,
        comm: CommMode::Indirect,
        bandwidth_mbps: 20,
        // The paper shapes participant links to 20 Mbps; storage nodes run
        // on unshaped mininet infrastructure links (see EXPERIMENTS.md).
        ipfs_bandwidth_mbps: Some(200),
        rounds: 1,
        latency: SimDuration::from_millis(10),
        poll_interval: SimDuration::from_millis(100),
        seed: 2,
        ..TaskConfig::default()
    }
}

/// Parameter count giving four 1.1 MB partitions.
pub fn fig2_param_count() -> usize {
    4 * 1_100_000 / BYTES_PER_ELEMENT
}

/// Runs one Fig. 2 point on a model of `params` parameters
/// ([`fig2_param_count`] is the paper's size).
pub fn fig2_run(aggregators_per_partition: usize, params: usize) -> Fig2Point {
    let mut cfg = fig2_config();
    cfg.aggregators_per_partition = aggregators_per_partition;
    let report = run_network_experiment(cfg.clone(), params);
    let round = report.rounds.first().expect("round completed");
    let mean_bytes = report.aggregator_rx_bytes.iter().sum::<u64>() as f64
        / report.aggregator_rx_bytes.len() as f64;
    // A partition blob is its values plus the averaging counter.
    let partition_mb = ((params / cfg.partitions + 1) * BYTES_PER_ELEMENT) as f64 / 1e6;
    let t_ij = cfg.trainers as f64 / aggregators_per_partition as f64;
    Fig2Point {
        aggregators_per_partition,
        aggregation_delay: round.aggregation_delay,
        sync_delay: round.sync_delay,
        total_delay: round.total_aggregation_delay,
        mb_per_aggregator: mean_bytes / 1e6,
        expected_mb: (t_ij + aggregators_per_partition as f64 - 1.0) * partition_mb,
    }
}

/// The full Fig. 2 sweep over `|A_i| ∈ {1, 2, 4}`.
pub fn fig2_aggregators() -> Vec<Fig2Point> {
    [1usize, 2, 4]
        .iter()
        .map(|&a| fig2_run(a, fig2_param_count()))
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

/// One series point of Fig. 3 (real wall-clock measurements).
#[derive(Clone, Debug)]
pub struct Fig3Point {
    /// Number of model parameters.
    pub elements: usize,
    /// SHA-256 time over the serialized parameters (ms).
    pub sha256_ms: f64,
    /// Pedersen commitment, naive MSM, secp256k1 (ms) — the paper's
    /// "straightforward" implementation.
    pub pedersen_k1_ms: f64,
    /// Pedersen commitment, naive MSM, secp256r1 (ms).
    pub pedersen_r1_ms: f64,
    /// Pedersen commitment on a secp256k1 key without a table (ms): the
    /// batch-affine Pippenger bucket method, the paper's cited future-work
    /// optimization, as an ablation.
    pub batch_affine_k1_ms: f64,
    /// Pedersen commitment through the precomputed-table fast path,
    /// secp256k1 (ms).
    pub fast_k1_ms: f64,
    /// Pedersen commitment through the precomputed-table fast path,
    /// secp256r1 (ms).
    pub fast_r1_ms: f64,
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

fn deterministic_scalars<C: Curve>(n: usize) -> Vec<Scalar<C>> {
    // Realistic quantized-gradient scalars: alternating signs, so half the
    // canonical exponents are ≈256-bit (negatives map to n − |v|) exactly
    // as in the protocol.
    (0..n)
        .map(|i| {
            let magnitude = 0x9E37u64.wrapping_mul(i as u64 + 1) & 0xFF_FFFF;
            if i % 2 == 0 {
                Scalar::<C>::from_u64(magnitude)
            } else {
                Scalar::<C>::from_i64(-(magnitude as i64))
            }
        })
        .collect()
}

/// Measures one Fig. 3 point for a model of `elements` parameters, reusing
/// pre-built commitment keys (generator derivation is setup, not the
/// per-round cost the paper measures): `plain_k1` has no table, `key_k1`
/// and `key_r1` have one.
///
/// # Panics
///
/// Panics if any key has fewer than `elements` generators.
fn fig3_run(
    elements: usize,
    plain_k1: &CommitKey<Secp256k1>,
    key_k1: &CommitKey<Secp256k1>,
    key_r1: &CommitKey<Secp256r1>,
) -> Fig3Point {
    assert!(
        plain_k1.len() >= elements && key_k1.len() >= elements && key_r1.len() >= elements,
        "keys too short"
    );
    let bytes = vec![0xA5u8; elements * BYTES_PER_ELEMENT];
    let sha256_ms = time_ms(|| {
        std::hint::black_box(Sha256::digest(&bytes));
    });

    let scalars_k1 = deterministic_scalars::<Secp256k1>(elements);
    let scalars_r1 = deterministic_scalars::<Secp256r1>(elements);

    let pedersen_k1_ms = time_ms(|| {
        std::hint::black_box(key_k1.commit_naive(&scalars_k1));
    });
    let pedersen_r1_ms = time_ms(|| {
        std::hint::black_box(key_r1.commit_naive(&scalars_r1));
    });
    let batch_affine_k1_ms = time_ms(|| {
        std::hint::black_box(plain_k1.commit(&scalars_k1));
    });
    // The redesigned pipeline: `commit` routes through the precomputed
    // table the key carries.
    let fast_k1_ms = time_ms(|| {
        std::hint::black_box(key_k1.commit(&scalars_k1));
    });
    let fast_r1_ms = time_ms(|| {
        std::hint::black_box(key_r1.commit(&scalars_r1));
    });

    Fig3Point {
        elements,
        sha256_ms,
        pedersen_k1_ms,
        pedersen_r1_ms,
        batch_affine_k1_ms,
        fast_k1_ms,
        fast_r1_ms,
    }
}

/// The Fig. 3 sweep over the given parameter counts.
///
/// The paper sweeps up to ~25 M parameters (minutes per point on Bouncy
/// Castle); pass smaller sizes for a quick run — the series is linear in
/// the parameter count, which is the property the figure demonstrates.
pub fn fig3_commitment(sizes: &[usize]) -> Vec<Fig3Point> {
    let max = sizes.iter().copied().max().unwrap_or(0);
    let plain_k1 = CommitKey::<Secp256k1>::setup(max, b"fig3");
    let mut key_k1 = plain_k1.clone();
    key_k1.precompute();
    let key_r1 = CommitKey::<Secp256r1>::setup_precomputed(max, b"fig3");
    sizes
        .iter()
        .map(|&n| fig3_run(n, &plain_k1, &key_k1, &key_r1))
        .collect()
}

/// Default Fig. 3 sizes (kept laptop-friendly; see EXPERIMENTS.md).
pub fn fig3_default_sizes() -> Vec<usize> {
    vec![1 << 10, 1 << 12, 1 << 14, 1 << 16]
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// Runs the replication ablation (§VI "Guarantee availability of
/// gradients"): 8 trainers, 2 partitions of ≈ 0.26 MB on 4 storage nodes,
/// every block pushed to `replication` of them. The replica pushes are the
/// round-time price of the availability insurance.
pub fn replication_run(replication: usize) -> TaskReport {
    let cfg = TaskConfig {
        trainers: 8,
        partitions: 2,
        ipfs_nodes: 4,
        replication,
        seed: 13,
        ..TaskConfig::default()
    };
    run_network_experiment(cfg, 64 * 1024)
}

/// Simulated cost the verification ablation charges per committed element
/// (µs): the naive-MSM slope Fig. 3 measures on one core.
pub const VERIFY_COMMIT_US: u64 = 120;

/// Parameters of the verification ablation's model.
pub const VERIFY_PARAMS: usize = 1_024;

/// Runs the verification ablation (§V "impact of verifiability"): the same
/// 8-trainer, 2-partition task with commitments off or on, with
/// [`VERIFY_COMMIT_US`] of simulated time charged per committed element.
/// When on, the real group operations run as well.
pub fn verify_run(verifiable: bool) -> TaskReport {
    let cfg = TaskConfig {
        trainers: 8,
        partitions: 2,
        aggregators_per_partition: 2,
        ipfs_nodes: 4,
        verifiable,
        commit_us_per_element: if verifiable { VERIFY_COMMIT_US } else { 0 },
        seed: 9,
        ..TaskConfig::default()
    };
    run_network_experiment(cfg, VERIFY_PARAMS)
}

// ---------------------------------------------------------------------------
// Churn sweep (storage fault tolerance)
// ---------------------------------------------------------------------------

/// One point of the storage-churn sweep: how the protocol degrades as
/// scheduled storage outages get longer.
#[derive(Clone, Debug)]
pub struct ChurnPoint {
    /// Length of each injected storage outage (seconds; 0 = no churn).
    pub outage_secs: f64,
    /// Rounds that ran to completion, out of [`ChurnPoint::rounds`].
    pub completed_rounds: u64,
    /// Rounds the task was configured for.
    pub rounds: u64,
    /// Mean duration of the completed rounds (seconds of simulated time).
    pub avg_round_duration: f64,
    /// Sync-deadline quorum degradations across the task.
    pub quorum_degradations: usize,
    /// Total bytes put on the wire across the task (including partial
    /// transfers torn by crashes).
    pub total_tx_bytes: u64,
    /// Bytes wasted on the wire by churn: torn partial transfers plus
    /// payloads delivered to crashed receivers.
    pub wire_wasted_bytes: u64,
    /// All wasted bytes (wire waste plus misbehavior-invalidated data).
    pub wasted_bytes: u64,
}

/// Churn sweep base setup: 6 trainers on 4 storage nodes, 0.4 MB model in
/// 2 partitions, every block on 2 replicas, 2 s fetch timeout.
fn churn_config() -> TaskConfig {
    TaskConfig {
        trainers: 6,
        partitions: 2,
        aggregators_per_partition: 1,
        ipfs_nodes: 4,
        comm: CommMode::Indirect,
        replication: 2,
        rounds: 3,
        bandwidth_mbps: 10,
        latency: SimDuration::from_millis(10),
        poll_interval: SimDuration::from_millis(100),
        t_train: SimDuration::from_secs(60),
        t_sync: SimDuration::from_secs(120),
        fetch_timeout: SimDuration::from_secs(2),
        seed: 9,
        ..TaskConfig::default()
    }
}

/// Runs the churn task: every `period`, one storage node (drawn
/// deterministically from `churn_seed`) crashes for `outage`. With
/// `outage == 0` no faults are injected (the healthy baseline).
pub fn churn_report(outage: SimDuration, period: SimDuration, churn_seed: u64) -> TaskReport {
    let mut cfg = churn_config();
    if outage > SimDuration::ZERO {
        let storage: Vec<NodeId> = (1..=cfg.ipfs_nodes).map(NodeId).collect();
        cfg.fault_plan = FaultPlan::churn(
            &storage,
            SimTime::from_micros(2_000_000),
            SimTime::from_micros(cfg.t_sync.as_micros() * cfg.rounds),
            period,
            outage,
            churn_seed,
        );
    }
    run_network_experiment(cfg, 400_000 / BYTES_PER_ELEMENT)
}

/// [`churn_report`], summarised as one point of the sweep.
pub fn churn_run(outage: SimDuration, period: SimDuration, churn_seed: u64) -> ChurnPoint {
    let rounds = churn_config().rounds;
    let report = churn_report(outage, period, churn_seed);
    let avg_round_duration = if report.rounds.is_empty() {
        0.0
    } else {
        report.rounds.iter().map(|r| r.round_duration).sum::<f64>() / report.rounds.len() as f64
    };
    ChurnPoint {
        outage_secs: outage.as_secs_f64(),
        completed_rounds: report.completed_rounds,
        rounds,
        avg_round_duration,
        quorum_degradations: report.quorum_degradations,
        total_tx_bytes: report.total_tx_bytes,
        wire_wasted_bytes: report.wire_wasted_bytes,
        wasted_bytes: report.wasted_bytes,
    }
}

/// The churn sweep: outage lengths from "none" to "longer than the retry
/// budget", with a fixed period between outages.
pub fn churn_sweep() -> Vec<ChurnPoint> {
    let period = SimDuration::from_secs(10);
    [0u64, 1, 4, 8]
        .iter()
        .map(|&o| churn_run(SimDuration::from_secs(o), period, 42))
        .collect()
}

// ---------------------------------------------------------------------------
// Swarm workload (incremental flow reallocation at scale)
// ---------------------------------------------------------------------------

/// Message type of the synthetic swarm workload.
#[derive(Clone, Copy, Debug)]
enum SwarmMsg {
    /// A gradient payload from a trainer.
    Upload,
    /// The provider's zero-byte acknowledgment.
    Ack,
}

/// Uploads a gradient-sized payload per wave, the next wave gated on the
/// provider's ack — so flow arrivals and completions churn continuously.
struct SwarmTrainer {
    provider: NodeId,
    bytes: u64,
    waves_left: u32,
    start_delay: SimDuration,
}

impl Actor<SwarmMsg> for SwarmTrainer {
    fn on_start(&mut self, ctx: &mut Context<'_, SwarmMsg>) {
        ctx.set_timer(self.start_delay, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SwarmMsg>, _from: NodeId, _msg: SwarmMsg) {
        self.waves_left -= 1;
        if self.waves_left > 0 {
            // Vary the next wave's size so rates keep shifting.
            self.bytes = 60_000 + self.bytes % 50_000;
            ctx.send(self.provider, self.bytes, SwarmMsg::Upload);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SwarmMsg>, _token: u64) {
        ctx.send(self.provider, self.bytes, SwarmMsg::Upload);
    }
}

/// Counts uploads and acks each one with a zero-byte control message.
struct SwarmProvider;

impl Actor<SwarmMsg> for SwarmProvider {
    fn on_message(&mut self, ctx: &mut Context<'_, SwarmMsg>, from: NodeId, _msg: SwarmMsg) {
        ctx.incr(SWARM_UPLOADS, 1);
        ctx.send(from, 0, SwarmMsg::Ack);
    }
}

/// Waves each trainer uploads in the swarm workload.
pub const SWARM_WAVES: u32 = 2;

/// Counter of the uploads a swarm's providers received: every one of
/// `trainers × SWARM_WAVES` must complete, under either allocator.
pub const SWARM_UPLOADS: &str = "swarm/upload";

/// Builds and runs the synthetic swarm and returns its trace: `trainers`
/// nodes behind 10 Mbps links, each uploading [`SWARM_WAVES`] ~100–130 kB
/// gradients (ack-gated) to one of `trainers/16` providers, paper-style,
/// under the incremental allocator or (`reference`) the global recompute.
pub fn swarm_trace(trainers: usize, reference: bool) -> Trace {
    let providers = (trainers / 16).max(1);
    let mut sim: Simulation<SwarmMsg> = Simulation::new();
    sim.set_reference_allocator(reference);
    let link = LinkSpec::symmetric_mbps(10, SimDuration::from_millis(10));
    for i in 0..trainers {
        sim.add_node(
            SwarmTrainer {
                provider: NodeId(trainers + (i % providers)),
                bytes: 100_000 + (i as u64 * 7_919) % 30_000,
                waves_left: SWARM_WAVES,
                start_delay: SimDuration::from_millis((i % 64) as u64),
            },
            link,
        );
    }
    for _ in 0..providers {
        sim.add_node(SwarmProvider, link);
    }
    // Safety stop well past the contended completion horizon.
    sim.set_time_limit(SimTime::from_micros(600_000_000));
    sim.run();
    sim.into_trace()
}

/// FNV-1a over every observable output of a run: each event's time, node,
/// label name, and value bits, then every counter and per-node byte total.
/// Two runs are behaviourally identical iff their fingerprints match
/// (modulo hash collisions).
pub fn trace_fingerprint(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
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

// ---------------------------------------------------------------------------
// Hierarchical aggregation overlay
// ---------------------------------------------------------------------------

/// Overlay base setup: one verifiable partition, one aggregator,
/// branching-8 overlay, direct communication (the overlay replaces the
/// storage upload path entirely — partials travel trainer-to-trainer).
pub fn overlay_config(trainers: usize) -> TaskConfig {
    TaskConfig {
        trainers,
        partitions: 1,
        aggregators_per_partition: 1,
        ipfs_nodes: 1,
        comm: CommMode::Direct,
        verifiable: true,
        batch_verify: true,
        commit_precompute: true,
        overlay_branching: Some(8),
        rounds: 1,
        bandwidth_mbps: 50,
        latency: SimDuration::from_millis(5),
        poll_interval: SimDuration::from_millis(100),
        t_train: SimDuration::from_secs(60),
        t_sync: SimDuration::from_secs(120),
        seed: 11,
        ..TaskConfig::default()
    }
}

/// Parameter count of the overlay's synthetic model. Small on purpose:
/// the overlay is measured by message-topology work, which does not
/// depend on the payload size.
pub fn overlay_param_count() -> usize {
    32
}
