//! `dfl` — command-line driver for the decentralized FL system.
//!
//! ```text
//! dfl report [--trainers N] [--partitions N] [--aggregators N] [--nodes N]
//!            [--rounds N] [--comm direct|indirect|merge] [--providers N]
//!            [--verifiable] [--authenticate] [--compact] [--replication N]
//!            [--bandwidth MBPS] [--seed S] [--export-jsonl PATH]
//!            # runs a task (--comm defaults to merge): per-round latency
//!            # breakdown, protocol counters, verify-time histogram, byte
//!            # accounting, final accuracy and verification failures
//! dfl report --from-jsonl PATH
//!            # re-print counters/histograms/bytes from an exported trace
//! ```
//!
//! Build and run with `cargo run --release --bin dfl -- report --trainers 8`.
//! The paper's figures are printed by `examples/fig{1_providers,
//! 2_aggregators,3_commitment}` (`cargo run --release --example
//! fig1_providers`).
//! Every failure path exits nonzero with a typed [`CliError`] on stderr.

use std::fmt;
use std::process::ExitCode;

use decentralized_fl::ml::{data, metrics, LogisticRegression, Model, SgdConfig};
use decentralized_fl::netsim::{Trace, TraceReadError};
use decentralized_fl::protocol::{run_task, CommMode, TaskConfig, TaskReport};

/// Everything that can go wrong in the CLI, by failure domain. Each
/// variant renders a one-line `error: ...` message and a nonzero exit.
#[derive(Debug)]
enum CliError {
    /// Bad command line (unknown flag value, non-numeric argument, ...).
    Usage(String),
    /// Flags parsed but describe an invalid task configuration.
    Config(String),
    /// The task ran but failed (protocol error, incomplete rounds, ...).
    Task(String),
    /// A file could not be read or written.
    Io {
        path: String,
        source: std::io::Error,
    },
    /// An exported trace file exists but does not parse.
    Trace {
        path: String,
        source: TraceReadError,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage: {m}"),
            CliError::Config(m) => write!(f, "invalid configuration: {m}"),
            CliError::Task(m) => write!(f, "task failed: {m}"),
            CliError::Io { path, source } => write!(f, "{path}: {source}"),
            CliError::Trace { path, source } => write!(f, "{path}: {source}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            CliError::Trace { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => cmd_report(&args[1..]),
        _ => {
            eprintln!("usage: dfl report [flags]  (see --help in source)");
            ExitCode::FAILURE
        }
    }
}

/// Tiny flag parser: `--name value` and boolean `--name`.
struct Flags<'a>(&'a [String]);

impl<'a> Flags<'a> {
    fn get(&self, name: &str) -> Option<&'a str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn num(&self, name: &str, default: u64) -> Result<u64, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("{name} expects a number, got {v:?}"))),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

/// Builds a [`TaskConfig`] from the `report` flag set. `merge` is the
/// default: the breakdown is most informative when gradients travel through
/// storage (merge-and-download, §III-E).
fn parse_config(flags: &Flags<'_>) -> Result<TaskConfig, CliError> {
    let comm = match flags.get("--comm").unwrap_or("merge") {
        "direct" => CommMode::Direct,
        "indirect" => CommMode::Indirect,
        "merge" => CommMode::MergeAndDownload,
        other => {
            return Err(CliError::Usage(format!(
                "unknown --comm {other:?} (direct|indirect|merge)"
            )))
        }
    };
    let cfg = TaskConfig {
        trainers: flags.num("--trainers", 8)? as usize,
        partitions: flags.num("--partitions", 2)? as usize,
        aggregators_per_partition: flags.num("--aggregators", 1)? as usize,
        ipfs_nodes: flags.num("--nodes", 4)? as usize,
        providers_per_aggregator: flags.num("--providers", 2)? as usize,
        comm,
        verifiable: flags.flag("--verifiable"),
        authenticate: flags.flag("--authenticate"),
        compact_registration: flags.flag("--compact"),
        replication: flags.num("--replication", 1)? as usize,
        rounds: flags.num("--rounds", 3)?,
        bandwidth_mbps: flags.num("--bandwidth", 10)?,
        seed: flags.num("--seed", 0)?,
        ..TaskConfig::default()
    };
    cfg.validate()
        .map_err(|e| CliError::Config(e.to_string()))?;
    Ok(cfg)
}

/// Runs a task under `cfg` on the standard synthetic workload, and scores
/// the trainers' common final model on the training data (`None` when
/// they disagree or no round completed).
fn run_with_config(cfg: &TaskConfig) -> Result<(TaskReport, Option<f32>), CliError> {
    let dataset = data::make_blobs(50 * cfg.trainers, 4, 3, 0.5, cfg.seed);
    let clients = data::partition_iid(&dataset, cfg.trainers, cfg.seed);
    let model = LogisticRegression::new(4, 3);
    let initial = model.params();
    let sgd = SgdConfig {
        lr: 0.3,
        batch_size: 16,
        epochs: 1,
        clip: None,
    };
    let report = run_task(cfg.clone(), model.clone(), initial, clients, sgd, &[])
        .map_err(|e| CliError::Task(e.to_string()))?;
    let accuracy = report.consensus_params().map(|params| {
        let mut evaluate = model;
        evaluate.set_params(&params);
        metrics::accuracy(&evaluate.predict(&dataset.x), &dataset.y)
    });
    Ok((report, accuracy))
}

fn cmd_report(rest: &[String]) -> ExitCode {
    match try_report(rest) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Re-prints the trace-derived report sections from a previously exported
/// JSONL trace (`--export-jsonl`), without re-running the simulation.
fn report_from_jsonl(path: &str) -> Result<(), CliError> {
    let file = std::fs::File::open(path).map_err(|source| CliError::Io {
        path: path.to_string(),
        source,
    })?;
    let trace =
        Trace::read_jsonl(std::io::BufReader::new(file)).map_err(|source| CliError::Trace {
            path: path.to_string(),
            source,
        })?;

    println!("trace: {path} ({} events)", trace.events().len());
    print_trace_summary(&trace);
    println!();
    println!("byte accounting:");
    println!(
        "  total sent                   {}",
        trace.total_bytes_sent()
    );
    println!(
        "  total received               {}",
        trace.total_bytes_received()
    );
    Ok(())
}

/// Counters and histograms — shared between live runs and `--from-jsonl`.
fn print_trace_summary(trace: &Trace) {
    let counters: Vec<(&str, u64)> = trace.counters().collect();
    if !counters.is_empty() {
        println!();
        println!("counters:");
        for (name, value) in counters {
            println!("  {name:<28} {value}");
        }
    }

    for (name, h) in trace.histograms() {
        println!();
        println!(
            "{name}: n={} mean={:.3} min={:.3} p50={:.3} p95={:.3} max={:.3}",
            h.count(),
            h.mean(),
            h.min(),
            h.quantile(0.5),
            h.quantile(0.95),
            h.max()
        );
    }
}

fn try_report(rest: &[String]) -> Result<(), CliError> {
    let flags = Flags(rest);
    if let Some(path) = flags.get("--from-jsonl") {
        return report_from_jsonl(path);
    }
    let cfg = parse_config(&flags)?;
    let (report, accuracy) = run_with_config(&cfg)?;

    println!(
        "run: {} trainers, {} partitions × {} aggregators, {} storage nodes, {:?}, \
         {}/{} round(s) completed",
        cfg.trainers,
        cfg.partitions,
        cfg.aggregators_per_partition,
        cfg.ipfs_nodes,
        cfg.comm,
        report.completed_rounds,
        cfg.rounds
    );

    println!();
    println!("per-round latency breakdown (seconds of simulated time):");
    println!(
        "{:>6} {:>10} {:>9} {:>13} {:>8} {:>10}",
        "round", "upload", "merge", "aggregation", "sync", "duration"
    );
    for r in &report.rounds {
        println!(
            "{:>6} {:>10.3} {:>9.3} {:>13.3} {:>8.3} {:>10.3}",
            r.round,
            r.upload_delay_avg,
            r.merge_delay,
            r.aggregation_delay,
            r.sync_delay,
            r.round_duration
        );
    }

    let trace = &report.trace;
    print_trace_summary(trace);

    println!();
    println!("byte accounting:");
    println!("  total sent                   {}", report.total_tx_bytes);
    println!(
        "  total received               {}",
        trace.total_bytes_received()
    );
    println!(
        "  wire wasted (churn)          {}",
        report.wire_wasted_bytes
    );
    println!("  wasted (all causes)          {}", report.wasted_bytes);
    let per_agg: Vec<String> = report
        .aggregator_rx_bytes
        .iter()
        .map(|b| b.to_string())
        .collect();
    println!("  rx per aggregator            [{}]", per_agg.join(", "));

    println!();
    match accuracy {
        Some(acc) => println!("final training accuracy: {:.1}%", acc * 100.0),
        None => println!("final training accuracy: none (no common model)"),
    }
    println!("verification failures: {}", report.verification_failures);

    if let Some(path) = flags.get("--export-jsonl") {
        let mut out = Vec::new();
        trace
            .write_jsonl(&mut out)
            .expect("writing to a Vec cannot fail");
        std::fs::write(path, out).map_err(|source| CliError::Io {
            path: path.to_string(),
            source,
        })?;
        println!("trace exported to {path} (jsonl)");
    }

    if !report.succeeded(&cfg) {
        return Err(CliError::Task(format!(
            "only {}/{} rounds completed (verification failures: {})",
            report.completed_rounds, cfg.rounds, report.verification_failures
        )));
    }
    Ok(())
}
