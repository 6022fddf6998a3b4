//! The four workloads: their `TaskConfig`s, seeded inputs, the benchmark's
//! own `Model` wrapper (round marks, model-time ledger), and the builder
//! that wires a netsim deployment out of public constructors only —
//! mirroring `ipls::run_task` node for node, which the wiring check pins.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dfl_ipfs::{IpfsNode, RetryPolicy};
use dfl_ml::{Dataset, Matrix, Model, SgdConfig, SyntheticModel};
use dfl_netsim::{Actor, LinkSpec, SimDuration, SimTime, Simulation};
use ipls::gradient::{derive_key, ProtocolKey};
use ipls::protocol::{IpfsCore, NetsimAdapter, ProtocolCore};
use ipls::trainer::ParamSink;
use ipls::{
    Aggregator, Behavior, CommMode, Directory, IplsError, Msg, TaskConfig, Topology, Trainer,
};

use crate::ledger::{Layer, Ledger, Timed, TimedActor};

/// Bytes per encoded parameter on the wire (fixed-point i64).
const BYTES_PER_ELEMENT: usize = 8;

/// One pass, one batch: one `loss_and_grad` per trainer per round. The
/// delay workloads do not train on real data; a single example keeps the
/// `local_update` plumbing exercised.
pub const SGD: SgdConfig = SgdConfig {
    lr: 0.01,
    batch_size: 1,
    epochs: 1,
    clip: None,
};

/// A one-example dataset.
pub fn single_example(x: f32, y: f32) -> Dataset {
    let mut features = Matrix::zeros(1, 1);
    features.set(0, 0, x);
    Dataset {
        x: features,
        y: vec![y],
    }
}

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 14;

/// Trainers of the full-size overlay workload (the name pins it).
const OVERLAY_TRAINERS: usize = 10_000;

/// Elements per partition of `fig2_verifiable` (Fig. 3's largest size).
const VERIFIABLE_PARTITION: usize = 8_192;

/// A benchmark workload. The variants are the names later issues cite.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Netsim, paper Fig. 1: put + merge RPC + update get on 1.3 MB blobs.
    Fig1Merge,
    /// Loopback TCP, paper Fig. 2: plain put/get, 4 partitions, 2
    /// aggregators each; the only workload where the transport works.
    Fig2Tcp,
    /// Netsim, Fig. 2 topology with large-d Pedersen commitments.
    Fig2Verifiable,
    /// Netsim, 10 000-trainer verifiable overlay with tiny commitments.
    Overlay10k,
}

impl Workload {
    /// Every workload, in the round-robin order a result set runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Fig1Merge,
        Workload::Fig2Tcp,
        Workload::Fig2Verifiable,
        Workload::Overlay10k,
    ];

    /// The name used on the command line, in `BENCHMARK.json` and reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig1Merge => "fig1_merge",
            Workload::Fig2Tcp => "fig2_tcp",
            Workload::Fig2Verifiable => "fig2_verifiable",
            Workload::Overlay10k => "overlay_10k",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the timed phase runs over loopback TCP instead of netsim.
    pub fn over_tcp(self) -> bool {
        self == Workload::Fig2Tcp
    }

    /// Rounds per second of requested run length. Fixed numbers, the same
    /// on every commit, so `--seconds` selects an amount of *work*, not a
    /// stopwatch: sized so `--seconds N` times ≈ N s on the reference box
    /// (see README, "Run lengths").
    fn rounds_per_second(self) -> f64 {
        match self {
            Workload::Fig1Merge => 4.0,
            Workload::Fig2Tcp => 1.2,
            Workload::Fig2Verifiable => 0.25,
            Workload::Overlay10k => 0.15,
        }
    }
}

/// How big a run is. Full-size runs differ only in `rounds`; `--smoke`
/// and the tests also shrink the two sizes that dominate their run time.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Rounds of the task (strictly sequential: a closed loop).
    pub rounds: u64,
    /// Trainers of `overlay_10k` (10 000 at full size).
    pub overlay_trainers: usize,
    /// Parameters per partition of `fig2_verifiable` (8 192 at full size).
    pub verifiable_partition: usize,
}

impl Scale {
    /// The fixed amount of work `--seconds` selects for `workload`.
    pub fn for_seconds(workload: Workload, seconds: u64) -> Scale {
        let rounds = (workload.rounds_per_second() * seconds as f64).round() as u64;
        Scale {
            rounds: rounds.max(2),
            overlay_trainers: OVERLAY_TRAINERS,
            verifiable_partition: VERIFIABLE_PARTITION,
        }
    }

    /// `--smoke`: 2 rounds, 500 overlay trainers, 1 024-element commitments.
    pub fn smoke() -> Scale {
        Scale {
            rounds: 2,
            overlay_trainers: 500,
            verifiable_partition: 1_024,
        }
    }

    /// The same sizes with another round count.
    pub fn with_rounds(self, rounds: u64) -> Scale {
        Scale { rounds, ..self }
    }
}

/// The `TaskConfig` of a workload at a scale. `seed` is the only thing
/// that varies between runs.
pub fn config(workload: Workload, scale: Scale, seed: u64) -> TaskConfig {
    let fig2 = TaskConfig {
        trainers: 16,
        partitions: 4,
        aggregators_per_partition: 2,
        ipfs_nodes: 8,
        comm: CommMode::Indirect,
        bandwidth_mbps: 20,
        ipfs_bandwidth_mbps: Some(200),
        latency: SimDuration::from_millis(10),
        ..TaskConfig::default()
    };
    let cfg = match workload {
        Workload::Fig1Merge => TaskConfig {
            trainers: 16,
            partitions: 1,
            aggregators_per_partition: 1,
            ipfs_nodes: 16,
            providers_per_aggregator: 4,
            comm: CommMode::MergeAndDownload,
            bandwidth_mbps: 10,
            latency: SimDuration::from_millis(10),
            ..TaskConfig::default()
        },
        Workload::Fig2Tcp => TaskConfig {
            // Wall-clock timers over sockets: a short poll keeps the run
            // CPU-bound instead of sleeping between directory polls.
            poll_interval: SimDuration::from_millis(20),
            ..fig2
        },
        Workload::Fig2Verifiable => TaskConfig {
            verifiable: true,
            batch_verify: true,
            commit_precompute: true,
            ..fig2
        },
        Workload::Overlay10k => TaskConfig {
            trainers: scale.overlay_trainers,
            partitions: 1,
            aggregators_per_partition: 1,
            ipfs_nodes: 1,
            comm: CommMode::Direct,
            verifiable: true,
            batch_verify: true,
            commit_precompute: true,
            overlay_branching: Some(8),
            bandwidth_mbps: 50,
            latency: SimDuration::from_millis(5),
            t_train: SimDuration::from_secs(60),
            t_sync: SimDuration::from_secs(120),
            ..TaskConfig::default()
        },
    };
    TaskConfig {
        rounds: scale.rounds,
        seed,
        ..cfg
    }
}

/// Model parameters of a workload.
pub fn param_count(workload: Workload, scale: Scale) -> usize {
    match workload {
        Workload::Fig1Merge => 1_300_000 / BYTES_PER_ELEMENT,
        Workload::Fig2Tcp => 4 * 1_100_000 / BYTES_PER_ELEMENT,
        Workload::Fig2Verifiable => 4 * scale.verifiable_partition,
        Workload::Overlay10k => 32,
    }
}

// ---------------------------------------------------------------------------
// The benchmark's Model wrapper
// ---------------------------------------------------------------------------

/// What every clone of one [`MarkedModel`] shares.
#[derive(Debug, Default)]
pub struct ModelProbe {
    /// Clones handed out so far; clone `k` belongs to trainer `k` because
    /// both runners clone once per trainer, in trainer order.
    clones: AtomicUsize,
    /// Host instants of trainer 0's `loss_and_grad` calls: one per round.
    marks: Mutex<Vec<Instant>>,
    /// Nanoseconds spent inside `Model` methods, all trainers.
    model_ns: AtomicU64,
    /// `Model` method calls, all trainers.
    model_calls: AtomicU64,
}

impl ModelProbe {
    /// Trainer 0's round marks so far.
    pub fn marks(&self) -> Vec<Instant> {
        self.marks.lock().expect("marks lock").clone()
    }

    /// Seconds inside `Model` methods and the number of calls.
    pub fn model_time(&self) -> (f64, u64) {
        (
            self.model_ns.load(Ordering::Relaxed) as f64 / 1e9,
            self.model_calls.load(Ordering::Relaxed),
        )
    }
}

/// `SyntheticModel` seen through the public `Model` trait, with the
/// benchmark's only in-band instrumentation: trainer 0 stamps the host
/// clock once per round, and every call is timed into `mlcore.model_s`.
#[derive(Debug)]
pub struct MarkedModel {
    inner: SyntheticModel,
    /// `None` for the prototype the runner clones from.
    trainer: Option<usize>,
    probe: Arc<ModelProbe>,
}

impl MarkedModel {
    fn new(inner: SyntheticModel) -> MarkedModel {
        MarkedModel {
            inner,
            trainer: None,
            probe: Arc::new(ModelProbe::default()),
        }
    }

    /// A copy of the wrapped model outside the probe's books, for the
    /// reference computation.
    pub fn unmarked(&self) -> SyntheticModel {
        self.inner.clone()
    }

    /// The state shared by all clones.
    pub fn probe(&self) -> Arc<ModelProbe> {
        self.probe.clone()
    }

    fn timed<R>(&self, f: impl FnOnce(&SyntheticModel) -> R) -> R {
        let start = Instant::now();
        let out = f(&self.inner);
        self.book(start);
        out
    }

    fn book(&self, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        self.probe.model_ns.fetch_add(ns, Ordering::Relaxed);
        self.probe.model_calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl Clone for MarkedModel {
    fn clone(&self) -> MarkedModel {
        MarkedModel {
            inner: self.inner.clone(),
            trainer: Some(self.probe.clones.fetch_add(1, Ordering::Relaxed)),
            probe: self.probe.clone(),
        }
    }
}

impl Model for MarkedModel {
    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn params(&self) -> Vec<f32> {
        self.timed(|m| m.params())
    }

    fn set_params(&mut self, params: &[f32]) {
        let start = Instant::now();
        self.inner.set_params(params);
        self.book(start);
    }

    fn loss_and_grad(&self, x: &Matrix, y: &[f32]) -> (f32, Vec<f32>) {
        if self.trainer == Some(0) {
            self.probe
                .marks
                .lock()
                .expect("marks lock")
                .push(Instant::now());
        }
        self.timed(|m| m.loss_and_grad(x, y))
    }

    fn predict(&self, x: &Matrix) -> Vec<f32> {
        self.timed(|m| m.predict(x))
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Everything a runner takes: generated from the seed, nothing else.
/// Deliberately not `Clone`: cloning the model prototype would hand out
/// trainer 0's mark slot; call [`inputs`] again for a second copy.
#[derive(Debug)]
pub struct Inputs {
    /// Task configuration (`seed` = the benchmark seed).
    pub cfg: TaskConfig,
    /// The model prototype the runner clones per trainer.
    pub model: MarkedModel,
    /// Initial parameters (seeded).
    pub params: Vec<f32>,
    /// One seeded single-example dataset per trainer.
    pub datasets: Vec<Dataset>,
}

/// SplitMix64: the benchmark's own input generator (datasets).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates the inputs of one run. Same seed, same inputs.
pub fn inputs(workload: Workload, scale: Scale, seed: u64) -> Inputs {
    let cfg = config(workload, scale, seed);
    let model = MarkedModel::new(SyntheticModel::new(param_count(workload, scale), seed));
    let params = model.inner.params();
    let mut state = seed ^ 0xD1F1_0000;
    let datasets = (0..cfg.trainers)
        .map(|_| {
            let x = (splitmix(&mut state) % 2048) as f32 / 1024.0 - 1.0;
            single_example(x, (splitmix(&mut state) % 2) as f32)
        })
        .collect();
    Inputs {
        cfg,
        model,
        params,
        datasets,
    }
}

// ---------------------------------------------------------------------------
// The netsim deployment, wired from public constructors
// ---------------------------------------------------------------------------

/// A deployment built up to, but excluding, `Simulation::run`.
pub struct Deployment {
    /// The simulation with every node added.
    pub sim: Simulation<Msg>,
    /// Where trainers leave their final parameters.
    pub sink: ParamSink,
    /// The topology every node shares.
    pub topo: Arc<Topology>,
}

/// Adds one core as a node; with a ledger, inside the two timing wrappers.
fn add_core<C>(
    sim: &mut Simulation<Msg>,
    core: C,
    layer: Layer,
    link: LinkSpec,
    ledger: Option<&Ledger>,
) -> dfl_netsim::NodeId
where
    C: ProtocolCore<Msg = Msg> + 'static,
    NetsimAdapter<C>: Actor<Msg>,
{
    match ledger {
        None => sim.add_node(NetsimAdapter::new(core), link),
        Some(ledger) => sim.add_node(
            TimedActor::new(
                NetsimAdapter::new(Timed::new(core, layer, ledger.clone())),
                ledger.clone(),
            ),
            link,
        ),
    }
}

/// Builds what `ipls::run_task` builds — `Topology`, commit key and
/// tables, directory, storage nodes, aggregators, trainers, in that node
/// order — out of public constructors. This is the benchmark's set-up
/// phase (`setup_s`); with `ledger`, every core and adapter is wrapped.
pub fn build_netsim(inputs: Inputs, ledger: Option<&Ledger>) -> Result<Deployment, IplsError> {
    let Inputs {
        cfg,
        model,
        params,
        datasets,
    } = inputs;
    let topo = Arc::new(Topology::new(cfg.clone(), params.len())?);
    let key: Option<Arc<ProtocolKey>> = cfg.verifiable.then(|| {
        Arc::new(derive_key(
            topo.max_partition_len(),
            cfg.seed,
            cfg.commit_precompute,
        ))
    });

    let mut sim: Simulation<Msg> = Simulation::new();
    let limit_us = (cfg.t_sync.as_micros() + 120_000_000) * cfg.rounds;
    sim.set_time_limit(SimTime::from_micros(limit_us));
    let link = cfg.link();
    let sink: ParamSink = Arc::new(Mutex::new(HashMap::new()));

    let dir = Directory::new(topo.clone(), key.clone());
    let id = add_core(&mut sim, dir, Layer::Directory, link, ledger);
    assert_eq!(id, topo.directory(), "node layout");

    let roster = IpfsNode::roster_for(&topo.ipfs_ids());
    for k in 0..cfg.ipfs_nodes {
        let mut node = IpfsNode::new(topo.ipfs_node(k), roster.clone());
        node.set_retry_policy(RetryPolicy {
            base_timeout: cfg.fetch_timeout,
            ..RetryPolicy::default()
        });
        let core = IpfsCore::<Msg>::new(node);
        let id = add_core(&mut sim, core, Layer::Ipfs, cfg.ipfs_link(), ledger);
        assert_eq!(id, topo.ipfs_node(k), "node layout");
    }

    for g in 0..cfg.total_aggregators() {
        let agg = Aggregator::new(g, topo.clone(), key.clone(), Behavior::Honest);
        let id = add_core(&mut sim, agg, Layer::Aggregator, link, ledger);
        assert_eq!(id, topo.aggregator(g), "node layout");
    }

    for (t, dataset) in datasets.into_iter().enumerate() {
        let trainer = Trainer::new(
            t,
            topo.clone(),
            key.clone(),
            model.clone(),
            params.clone(),
            dataset,
            SGD,
            sink.clone(),
        );
        let id = add_core(&mut sim, trainer, Layer::Trainer, link, ledger);
        assert_eq!(id, topo.trainer(t), "node layout");
    }
    Ok(Deployment { sim, sink, topo })
}
