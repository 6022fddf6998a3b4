//! One run of one workload in this process: warm up, sample the set-up,
//! time the task, check its outputs, and fold everything into metrics.
//! Untraced runs give the end-to-end numbers; a traced run wraps the cores
//! and adapters in the ledger and adds the kernels.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dfl_backend_tokio::{run_task_over_tcp, TcpTaskReport};
use dfl_ipfs::node::stats as ipfs_stats;
use dfl_ml::SyntheticModel;
use dfl_netsim::Trace;
use ipls::{labels, run_task, IplsError, TaskConfig, Topology};

use crate::kernels;
use crate::ledger::{Ledger, LedgerSummary};
use crate::metrics::MetricSet;
use crate::report::{reference_params, sim_report, wasted_bytes, SimReport};
use crate::stats::{cpu_seconds, high_percentile, median, thread_count, vm_hwm_mb};
use crate::workloads::{
    build_netsim, inputs, single_example, Deployment, Inputs, ModelProbe, Scale, Workload, SGD,
};

/// Rounds of the netsim oracle behind `fig2_tcp`: enough for a mean
/// simulated round, short enough to ride along with every run.
const ORACLE_ROUNDS: u64 = 4;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Its size.
    pub scale: Scale,
    /// Input seed.
    pub seed: u64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub traced: bool,
    /// Sampling time per kernel in a traced run; `None` skips the kernels
    /// (the suite times them once per result set).
    pub kernel_budget: Option<Duration>,
    /// Where a traced run writes its spans (CSV), if anywhere.
    pub spans_out: Option<PathBuf>,
}

/// What a run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Rounds attempted.
    pub attempted: u64,
    /// Rounds that did not complete or completed on a degraded quorum; all
    /// of them when any end-of-run check failed.
    pub failed: u64,
    /// End-of-run checks that failed, in words.
    pub failures: Vec<String>,
    /// Untraced: the eight end-to-end metrics. Traced: the three exact
    /// end-to-end metrics and every per-layer metric.
    pub metrics: MetricSet,
    /// Fingerprint of the netsim trace (the oracle's for `fig2_tcp`).
    pub fingerprint: u64,
}

impl RunResult {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }
}

/// A run that could not be carried out at all.
#[derive(Debug)]
pub enum RunError {
    /// The system refused the benchmark's own configuration, or the TCP
    /// task missed its deadline.
    Task(IplsError),
    /// Writing the span file failed.
    Io(std::io::Error),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Task(e) => write!(f, "task failed: {e}"),
            RunError::Io(e) => write!(f, "cannot write spans: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<IplsError> for RunError {
    fn from(e: IplsError) -> RunError {
        RunError::Task(e)
    }
}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> RunError {
        RunError::Io(e)
    }
}

/// One small task through the library's own runner, untimed: pages the
/// code in and warms the allocator, so the first timed round is not a
/// cold-start outlier.
fn warm_up() -> Result<(), IplsError> {
    let cfg = TaskConfig {
        verifiable: true,
        batch_verify: true,
        rounds: 2,
        ..TaskConfig::default()
    };
    let model = SyntheticModel::new(256, 1);
    let params = dfl_ml::Model::params(&model);
    let datasets = (0..cfg.trainers)
        .map(|_| single_example(0.0, 0.0))
        .collect();
    run_task(cfg, model, params, datasets, SGD, &[]).map(drop)
}

/// Samples a set-up by build-and-drop until there are at least 3 samples
/// and 1 s of them (at most 200); the last build is kept and returned.
fn sample_setup<T, E>(mut build: impl FnMut() -> Result<T, E>) -> Result<(T, Vec<f64>), E> {
    let mut samples = Vec::new();
    let mut total = 0.0;
    loop {
        let t = Instant::now();
        let built = build()?;
        let secs = t.elapsed().as_secs_f64();
        samples.push(secs);
        total += secs;
        if (samples.len() >= 3 && total >= 1.0) || samples.len() >= 200 {
            return Ok((built, samples));
        }
    }
}

/// Host milliseconds per round from trainer 0's marks: round `k` runs from
/// mark `k` to mark `k + 1`, the last one to the end of the timed phase.
fn round_durations_ms(marks: &[Instant], end: Instant) -> Vec<f64> {
    marks
        .iter()
        .zip(marks.iter().skip(1).chain(std::iter::once(&end)))
        .map(|(from, to)| to.duration_since(*from).as_secs_f64() * 1e3)
        .collect()
}

/// A finished netsim run.
struct NetsimRun {
    /// `Simulation::run` alone.
    run_s: f64,
    /// `Simulation::run` + report extraction: the timed phase.
    wall_s: f64,
    cpu_s: f64,
    round_ms: Vec<f64>,
    sim: SimReport,
    trace: Trace,
    params: HashMap<usize, Vec<f32>>,
    model_time: (f64, u64),
}

fn run_netsim(dep: Deployment, probe: &ModelProbe) -> NetsimRun {
    let Deployment {
        mut sim,
        sink,
        topo,
    } = dep;
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    sim.run();
    let run_s = start.elapsed().as_secs_f64();
    let trace = sim.into_trace();
    let report = sim_report(&topo, &trace);
    let end = Instant::now();
    let cpu1 = cpu_seconds();
    let params = sink.lock().expect("param sink").clone();
    NetsimRun {
        run_s,
        wall_s: end.duration_since(start).as_secs_f64(),
        cpu_s: cpu1.zip(cpu0).map_or(0.0, |(b, a)| b - a),
        round_ms: round_durations_ms(&probe.marks(), end),
        sim: report,
        trace,
        params,
        model_time: probe.model_time(),
    }
}

/// Builds and runs one netsim deployment of `workload`, optionally traced.
fn netsim_once(
    workload: Workload,
    scale: Scale,
    seed: u64,
    ledger: Option<&Ledger>,
) -> Result<NetsimRun, IplsError> {
    let inp = inputs(workload, scale, seed);
    let probe = inp.model.probe();
    Ok(run_netsim(build_netsim(inp, ledger)?, &probe))
}

/// Bit-for-bit comparison of every trainer's final model with the
/// reference: consensus and correctness in one check.
fn check_params(
    what: &str,
    finals: &HashMap<usize, Vec<f32>>,
    inp: &Inputs,
    rounds: u64,
    failures: &mut Vec<String>,
) {
    if finals.len() != inp.cfg.trainers {
        failures.push(format!(
            "{what}: {} of {} trainers reported a final model",
            finals.len(),
            inp.cfg.trainers
        ));
        return;
    }
    let reference = reference_params(inp, rounds);
    let same = |p: &Vec<f32>| {
        p.len() == reference.len()
            && p.iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    };
    let wrong = finals.values().filter(|p| !same(p)).count();
    if wrong > 0 {
        failures.push(format!(
            "{what}: {wrong} trainers' final parameters differ from the reference model"
        ));
    }
}

/// The end-of-run checks of a netsim run; returns the failed-round count.
fn check_netsim(what: &str, run: &NetsimRun, inp: &Inputs, failures: &mut Vec<String>) -> u64 {
    let rounds = inp.cfg.rounds;
    let trace = &run.trace;
    let degraded = trace.count(labels::QUORUM_DEGRADED) as u64;
    if run.sim.completed_rounds != rounds {
        failures.push(format!(
            "{what}: {} of {rounds} rounds completed",
            run.sim.completed_rounds
        ));
    }
    check_params(what, &run.params, inp, rounds, failures);
    for (label, count) in [
        (
            "verification failures",
            trace.count(labels::VERIFICATION_FAILED) as u64,
        ),
        ("quorum degradations", degraded),
        (
            "merge fallbacks",
            trace.count(labels::MERGE_FALLBACK) as u64,
        ),
        ("wasted bytes", wasted_bytes(trace)),
    ] {
        if count != 0 {
            failures.push(format!("{what}: {count} {label}"));
        }
    }
    (rounds - run.sim.completed_rounds.min(rounds) + degraded).min(rounds)
}

/// A finished TCP run.
struct TcpRun {
    wall_s: f64,
    cpu_s: f64,
    round_ms: Vec<f64>,
    startup_ms: f64,
    threads_peak: u64,
    report: TcpTaskReport,
}

/// Samples the process's thread count every 20 ms until stopped.
fn sample_threads(stop: Arc<AtomicBool>, peak: Arc<AtomicU64>) {
    while !stop.load(Ordering::Relaxed) {
        if let Some(n) = thread_count() {
            peak.fetch_max(n, Ordering::Relaxed);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn run_tcp(inp: Inputs, watch_threads: bool) -> Result<TcpRun, IplsError> {
    let probe = inp.model.probe();
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicU64::new(0));
    let sampler = watch_threads.then(|| {
        let (stop, peak) = (stop.clone(), peak.clone());
        std::thread::spawn(move || sample_threads(stop, peak))
    });

    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let outcome = run_task_over_tcp(inp.cfg, inp.model, inp.params, inp.datasets, SGD);
    let end = Instant::now();
    let cpu1 = cpu_seconds();

    stop.store(true, Ordering::Relaxed);
    if let Some(sampler) = sampler {
        sampler.join().expect("thread sampler panicked");
    }
    let report = outcome?;
    let marks = probe.marks();
    Ok(TcpRun {
        wall_s: end.duration_since(start).as_secs_f64(),
        cpu_s: cpu1.zip(cpu0).map_or(0.0, |(b, a)| b - a),
        startup_ms: marks
            .first()
            .map_or(0.0, |m| m.duration_since(start).as_secs_f64() * 1e3),
        round_ms: round_durations_ms(&marks, end),
        threads_peak: peak.load(Ordering::Relaxed),
        report,
    })
}

/// The end-of-run checks of a TCP run; returns the failed-round count.
fn check_tcp(run: &TcpRun, inp: &Inputs, failures: &mut Vec<String>) -> u64 {
    let rounds = inp.cfg.rounds;
    let report = &run.report;
    if report.completed_rounds != rounds {
        failures.push(format!(
            "tcp: {} of {rounds} rounds completed",
            report.completed_rounds
        ));
    }
    check_params("tcp", &report.final_params, inp, rounds, failures);
    let degraded = report.quorum_degradations();
    for (label, count) in [
        ("frames lost", report.delivery.frames_lost_total()),
        ("quorum degradations", degraded),
        (
            "verification failures",
            report.record_count(labels::VERIFICATION_FAILED),
        ),
        (
            "merge fallbacks",
            report.record_count(labels::MERGE_FALLBACK),
        ),
    ] {
        if count != 0 {
            failures.push(format!("tcp: {count} {label}"));
        }
    }
    (rounds - report.completed_rounds.min(rounds) + degraded).min(rounds)
}

/// The netsim oracle of `fig2_tcp`: the same `TaskConfig` at
/// [`ORACLE_ROUNDS`] rounds (the final model of the full run is checked
/// against the reference directly, which needs no simulation).
fn oracle_scale(scale: Scale) -> Scale {
    scale.with_rounds(scale.rounds.min(ORACLE_ROUNDS))
}

fn put_end_to_end(
    out: &mut MetricSet,
    setup: &[f64],
    wall_s: f64,
    cpu_s: f64,
    round_ms: &[f64],
    rss_mb: f64,
) {
    out.put("setup_s", median(setup));
    out.put("wall_s", wall_s);
    out.put(
        "round_host_ms",
        if round_ms.is_empty() {
            0.0
        } else {
            median(round_ms)
        },
    );
    out.put("cpu_s", cpu_s);
    out.put("peak_rss_mb", rss_mb);
}

/// Closes a run: books the exact end-to-end metrics and the verdict. Any
/// end-of-run check failure fails every round of the run.
fn finish(
    attempted: u64,
    failed_rounds: u64,
    failures: Vec<String>,
    mut metrics: MetricSet,
    sim: &SimReport,
) -> RunResult {
    let failed = if failures.is_empty() {
        failed_rounds.min(attempted)
    } else {
        attempted
    };
    metrics.put("sim_round_s", sim.sim_round_s);
    metrics.put("tx_bytes_per_round", sim.tx_bytes_per_round);
    metrics.put("failed_share", failed as f64 / attempted as f64);
    RunResult {
        attempted,
        failed,
        failures,
        metrics,
        fingerprint: sim.fingerprint,
    }
}

fn untraced(spec: &RunSpec) -> Result<RunResult, RunError> {
    let RunSpec {
        workload,
        scale,
        seed,
        ..
    } = *spec;
    let reference_inputs = inputs(workload, scale, seed);
    let mut failures = Vec::new();
    let mut metrics = MetricSet::default();

    if workload.over_tcp() {
        // Set-up is inputs + topology; socket start-up belongs to wall_s.
        let (inp, setup) = sample_setup(|| {
            let inp = inputs(workload, scale, seed);
            Topology::new(inp.cfg.clone(), inp.params.len()).map(|_| inp)
        })?;
        let run = run_tcp(inp, false)?;
        let rss_mb = vm_hwm_mb().unwrap_or(0.0);
        let mut failed = check_tcp(&run, &reference_inputs, &mut failures);

        let oracle_inputs = inputs(workload, oracle_scale(scale), seed);
        let oracle = netsim_once(workload, oracle_scale(scale), seed, None)?;
        failed += check_netsim("oracle", &oracle, &oracle_inputs, &mut failures);

        put_end_to_end(
            &mut metrics,
            &setup,
            run.wall_s,
            run.cpu_s,
            &run.round_ms,
            rss_mb,
        );
        return Ok(finish(scale.rounds, failed, failures, metrics, &oracle.sim));
    }

    let ((dep, probe), setup) = sample_setup(|| {
        let inp = inputs(workload, scale, seed);
        let probe = inp.model.probe();
        build_netsim(inp, None).map(|dep| (dep, probe))
    })?;
    let run = run_netsim(dep, &probe);
    let rss_mb = vm_hwm_mb().unwrap_or(0.0);
    let failed = check_netsim("netsim", &run, &reference_inputs, &mut failures);
    put_end_to_end(
        &mut metrics,
        &setup,
        run.wall_s,
        run.cpu_s,
        &run.round_ms,
        rss_mb,
    );
    Ok(finish(scale.rounds, failed, failures, metrics, &run.sim))
}

/// Per-layer metrics of one traced netsim run.
fn put_layers(out: &mut MetricSet, ledger: &Ledger, traced: &NetsimRun, round_ms: &[f64]) {
    let s: LedgerSummary = ledger.summary();
    let trace = &traced.trace;
    let counter = |label: &str| trace.counter(label) as f64;

    out.put("ipfs.node_handle_s", s.ipfs.handle_s);
    out.put("ipfs.node_handle_calls", s.ipfs.calls as f64);
    out.put(
        "ipfs.provider_lookups",
        counter(ipfs_stats::PROVIDER_LOOKUPS),
    );
    let (hits, misses) = (
        counter(ipfs_stats::CACHE_HITS),
        counter(ipfs_stats::CACHE_MISSES),
    );
    out.put(
        "ipfs.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.put("ipfs.merge_rpcs", counter(ipfs_stats::MERGE_RPCS));
    out.put(
        "ipfs.merge_remote_fetches",
        counter(ipfs_stats::MERGE_REMOTE_FETCHES),
    );
    out.put(
        "ipfs.merge_fallbacks",
        trace.count(labels::MERGE_FALLBACK) as f64,
    );
    out.put("ipfs.retries", counter(ipfs_stats::RETRIES));
    out.put("ipfs.failovers", counter(ipfs_stats::FAILOVERS));
    out.put("ipfs.fetch_failures", counter(ipfs_stats::FETCH_FAILURES));

    out.put("ipls.trainer_handle_s", s.trainer.handle_s);
    out.put("ipls.trainer_handle_calls", s.trainer.calls as f64);
    out.put("ipls.aggregator_handle_s", s.aggregator.handle_s);
    out.put("ipls.aggregator_handle_calls", s.aggregator.calls as f64);
    out.put("ipls.directory_handle_s", s.directory.handle_s);
    out.put("ipls.directory_handle_calls", s.directory.calls as f64);
    out.put("ipls.handle_max_ms", s.handle_max_ms);
    out.put("ipls.replay_s", s.replay_s);
    let (pct, hi) = if round_ms.is_empty() {
        (0.0, 0.0)
    } else {
        high_percentile(round_ms)
    };
    out.put("ipls.round_host_ms_hi", hi);
    out.put("ipls.round_host_ms_hi_pct", pct);
    out.put("ipls.blobs_verified", counter(labels::BLOBS_VERIFIED));
    out.put(
        "ipls.verification_failures",
        trace.count(labels::VERIFICATION_FAILED) as f64,
    );
    out.put(
        "ipls.quorum_degradations",
        trace.count(labels::QUORUM_DEGRADED) as f64,
    );
    out.put(
        "ipls.overlay_forwarded",
        trace.count(labels::OVERLAY_FORWARDED) as f64,
    );
    out.put(
        "ipls.overlay_rejected",
        (trace.count(labels::OVERLAY_CHILD_REJECTED)
            + trace.count(labels::OVERLAY_PARTIAL_REJECTED)
            + trace.count(labels::OVERLAY_UPDATE_REJECTED)) as f64,
    );
    out.put("ipls.sim_upload_s", traced.sim.sim_upload_s);
    out.put("ipls.sim_aggregation_s", traced.sim.sim_aggregation_s);
    out.put("ipls.sim_sync_s", traced.sim.sim_sync_s);
    out.put("ipls.agg_rx_mb_per_round", traced.sim.agg_rx_mb_per_round);

    let engine_self = (traced.run_s - s.callback_s).max(0.0);
    out.put("netsim.run_s", traced.run_s);
    out.put("netsim.engine_self_s", engine_self);
    out.put("netsim.engine_self_share", engine_self / traced.run_s);
    out.put("netsim.callbacks", s.callbacks as f64);
    out.put(
        "netsim.engine_ns_per_callback",
        if s.callbacks > 0 {
            engine_self * 1e9 / s.callbacks as f64
        } else {
            0.0
        },
    );
    out.put("netsim.trace_events", traced.sim.trace_events as f64);
    out.put("netsim.wasted_bytes", wasted_bytes(trace) as f64);

    out.put("mlcore.model_s", traced.model_time.0);
    out.put("mlcore.model_calls", traced.model_time.1 as f64);

    // Estimated from the calibrated cost of a wrapped callback: two runs
    // of identical code differ by more than the wrappers cost (README).
    out.put(
        "trace.overhead_share",
        s.callbacks as f64 * Ledger::callback_cost_s() / traced.run_s,
    );
    out.put(
        "trace.layer_sum_share",
        (s.parented_handle_s + s.replay_s + engine_self) / traced.run_s,
    );
    out.put("trace.spans", ledger.span_count() as f64);
}

fn put_tokio(out: &mut MetricSet, tcp: Option<(&TcpRun, &NetsimRun)>, rounds: u64) {
    let Some((run, oracle)) = tcp else {
        for name in [
            "tokio.frames_sent",
            "tokio.frames_per_round",
            "tokio.frames_lost",
            "tokio.reconnects",
            "tokio.threads_peak",
            "tokio.startup_ms",
            "tokio.oracle_wall_s",
            "tokio.cpu_over_oracle",
        ] {
            out.put(name, 0.0);
        }
        return;
    };
    let delivery = &run.report.delivery;
    out.put("tokio.frames_sent", delivery.frames_sent as f64);
    out.put(
        "tokio.frames_per_round",
        delivery.frames_sent as f64 / rounds as f64,
    );
    out.put("tokio.frames_lost", delivery.frames_lost_total() as f64);
    out.put("tokio.reconnects", delivery.reconnects as f64);
    out.put("tokio.threads_peak", run.threads_peak as f64);
    out.put("tokio.startup_ms", run.startup_ms);
    out.put("tokio.oracle_wall_s", oracle.wall_s);
    // Per round on both sides: the oracle runs fewer rounds.
    let oracle_rounds = oracle.sim.completed_rounds.max(1) as f64;
    let oracle_cpu_per_round = oracle.cpu_s / oracle_rounds;
    out.put(
        "tokio.cpu_over_oracle",
        if oracle_cpu_per_round > 0.0 {
            run.cpu_s / rounds as f64 / oracle_cpu_per_round
        } else {
            0.0
        },
    );
}

fn traced(spec: &RunSpec) -> Result<RunResult, RunError> {
    let RunSpec {
        workload,
        scale,
        seed,
        ..
    } = *spec;
    let mut failures = Vec::new();
    let mut metrics = MetricSet::default();
    let mut failed = 0;

    // fig2_tcp cannot be wrapped from outside: its transport numbers come
    // from the TCP run, its ipls/ipfs ledger from the netsim oracle.
    let tcp = if workload.over_tcp() {
        let run = run_tcp(inputs(workload, scale, seed), true)?;
        failed += check_tcp(&run, &inputs(workload, scale, seed), &mut failures);
        Some(run)
    } else {
        None
    };
    let sim_scale = if tcp.is_some() {
        oracle_scale(scale)
    } else {
        scale
    };
    let sim_inputs = inputs(workload, sim_scale, seed);

    let ledger = Ledger::new();
    let wrapped = netsim_once(workload, sim_scale, seed, Some(&ledger))?;
    failed += check_netsim("traced netsim", &wrapped, &sim_inputs, &mut failures);

    let round_ms = tcp.as_ref().map_or(&wrapped.round_ms, |run| &run.round_ms);
    put_layers(&mut metrics, &ledger, &wrapped, round_ms);
    put_tokio(
        &mut metrics,
        tcp.as_ref().map(|run| (run, &wrapped)),
        scale.rounds,
    );
    if let Some(budget) = spec.kernel_budget {
        kernels::run(budget, seed, &mut metrics);
    }

    if let Some(path) = &spec.spans_out {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        ledger.write_csv(&mut file)?;
        std::io::Write::flush(&mut file)?;
    }
    Ok(finish(
        scale.rounds,
        failed,
        failures,
        metrics,
        &wrapped.sim,
    ))
}

/// Runs `spec` in this process.
///
/// # Errors
///
/// Returns an error when the task could not run at all; wrong outputs are
/// reported in the result, not as an error.
pub fn run(spec: &RunSpec) -> Result<RunResult, RunError> {
    warm_up()?;
    if spec.traced {
        traced(spec)
    } else {
        untraced(spec)
    }
}

/// Fingerprint of the trace `ipls::run_task` itself produces for the same
/// inputs: what the benchmark-built deployment must reproduce (the wiring
/// check).
///
/// # Errors
///
/// Propagates the runner's configuration errors.
pub fn run_task_fingerprint(workload: Workload, scale: Scale, seed: u64) -> Result<u64, IplsError> {
    let inp = inputs(workload, scale, seed);
    let report = run_task(inp.cfg, inp.model, inp.params, inp.datasets, SGD, &[])?;
    Ok(crate::report::fingerprint(&report.trace))
}

/// Fingerprint of the benchmark-built deployment's trace.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn built_fingerprint(
    workload: Workload,
    scale: Scale,
    seed: u64,
    ledger: Option<&Ledger>,
) -> Result<u64, IplsError> {
    Ok(netsim_once(workload, scale, seed, ledger)?.sim.fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough for a debug-profile test run.
    const TINY: Scale = Scale {
        rounds: 2,
        overlay_trainers: 64,
        verifiable_partition: 128,
    };

    #[test]
    fn built_deployment_matches_run_task_on_every_workload() {
        for w in Workload::ALL {
            let ours = built_fingerprint(w, TINY, 5, None).unwrap();
            let theirs = run_task_fingerprint(w, TINY, 5).unwrap();
            assert_eq!(
                ours,
                theirs,
                "{} wiring differs from ipls::run_task",
                w.name()
            );
        }
    }

    #[test]
    fn same_seed_same_fingerprint_and_other_seed_differs() {
        for w in Workload::ALL {
            let a = built_fingerprint(w, TINY, 5, None).unwrap();
            let b = built_fingerprint(w, TINY, 5, None).unwrap();
            let c = built_fingerprint(w, TINY, 6, None).unwrap();
            assert_eq!(a, b, "{} is not deterministic", w.name());
            assert_ne!(a, c, "{} ignores its seed", w.name());
        }
    }

    #[test]
    fn timing_wrappers_leave_the_fingerprint_unchanged() {
        for w in Workload::ALL {
            let plain = built_fingerprint(w, TINY, 5, None).unwrap();
            let ledger = Ledger::new();
            let wrapped = built_fingerprint(w, TINY, 5, Some(&ledger)).unwrap();
            assert_eq!(plain, wrapped, "{} changed under the wrappers", w.name());
            let s = ledger.summary();
            assert!(s.callbacks > 0 && s.trainer.calls > 0);
            // Every handle ran inside a wrapped callback (sums of the
            // same spans in two orders: equal up to rounding).
            assert!((s.parented_handle_s - s.handle_s()).abs() < 1e-9 * s.handle_s());
        }
    }

    #[test]
    fn netsim_final_model_equals_the_reference_bit_for_bit() {
        for w in Workload::ALL {
            let inp = inputs(w, TINY, 9);
            let run = netsim_once(w, TINY, 9, None).unwrap();
            let mut failures = Vec::new();
            let failed = check_netsim(w.name(), &run, &inp, &mut failures);
            assert_eq!((failed, failures), (0, Vec::new()));
            assert_eq!(run.round_ms.len(), 2, "one mark per round");
        }
    }

    #[test]
    fn a_wrong_model_is_caught() {
        let inp = inputs(Workload::Fig1Merge, TINY, 9);
        let mut run = netsim_once(Workload::Fig1Merge, TINY, 9, None).unwrap();
        run.params.get_mut(&3).unwrap()[0] += 1.0;
        let mut failures = Vec::new();
        check_netsim("netsim", &run, &inp, &mut failures);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("1 trainers' final parameters differ"));
    }

    #[test]
    fn setup_sampling_keeps_the_last_build_and_stops_at_the_cap() {
        let mut built = 0;
        let (last, samples) = sample_setup(|| {
            built += 1;
            Ok::<_, ()>(built)
        })
        .unwrap();
        assert_eq!(samples.len(), 200);
        assert_eq!(last, 200);
        let (_, samples) = sample_setup(|| {
            std::thread::sleep(Duration::from_millis(400));
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(samples.len(), 3);
    }

    #[test]
    fn round_durations_end_with_the_run() {
        let t0 = Instant::now();
        let marks = [
            t0,
            t0 + Duration::from_millis(10),
            t0 + Duration::from_millis(30),
        ];
        let ms = round_durations_ms(&marks, t0 + Duration::from_millis(35));
        assert_eq!(ms.len(), 3);
        assert!(
            (ms[0] - 10.0).abs() < 1e-6
                && (ms[1] - 20.0).abs() < 1e-6
                && (ms[2] - 5.0).abs() < 1e-6
        );
        assert!(round_durations_ms(&[], t0).is_empty());
    }

    #[test]
    fn untraced_and_traced_runs_report_their_metric_sets() {
        let spec = RunSpec {
            workload: Workload::Fig2Tcp,
            scale: TINY,
            seed: 3,
            traced: false,
            kernel_budget: None,
            spans_out: None,
        };
        let plain = run(&spec).unwrap();
        assert!(plain.correct(), "{:?}", plain.failures);
        assert_eq!(plain.metrics.0.len(), crate::metrics::END_TO_END.len());
        assert!(plain.metrics.get("wall_s").unwrap() > 0.0);
        assert_eq!(plain.metrics.get("failed_share"), Some(0.0));
    }
}
