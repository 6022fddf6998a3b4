//! Every combination of the protocol-mode switches that
//! [`TaskConfig::validate`] accepts, in all three communication modes: a
//! two-round task on a deployment small enough that the whole matrix is a
//! tier-1 test. Whatever `validate` lets through must complete its rounds,
//! leave every trainer with the same model, balance the byte ledger, and
//! put nothing in the trace under a name no registry declares.
//!
//! One test per communication mode, so the harness runs them side by side.

use decentralized_fl::ipfs::node::stats;
use decentralized_fl::ml::{data, LogisticRegression, Model, SgdConfig};
use decentralized_fl::netsim::trace::net;
use decentralized_fl::prelude::*;
use decentralized_fl::protocol::labels;

const TRAINERS: usize = 3;

/// Combinations `validate()` accepts per communication mode: 16 without
/// commitments (`authenticate` × `compact_registration` × `min_quorum` ×
/// `aggregators_per_partition`), 128 verifiable and flat, 32 through the
/// overlay (one aggregator per partition, no `trainer_verifies`). A change
/// to `validate()` or to the switches moves this on purpose or not at all.
const VALID_PER_COMM: usize = 16 + 128 + 32;

/// The nine switches, one bit each.
fn configure(bits: u32, comm: CommMode) -> Result<TaskConfig, IplsError> {
    let on = |bit: u32| bits & (1 << bit) != 0;
    TaskConfig::builder()
        .trainers(TRAINERS)
        .partitions(2)
        .ipfs_nodes(2)
        .providers_per_aggregator(2)
        .rounds(2)
        .seed(18)
        .comm(comm)
        .verifiable(on(0))
        .authenticate(on(1))
        .accountability(on(2))
        .trainer_verifies(on(3))
        .batch_verify(on(4))
        .compact_registration(on(5))
        .min_quorum(on(6).then_some(TRAINERS - 1))
        .aggregators_per_partition(if on(7) { 2 } else { 1 })
        .overlay_branching(on(8).then_some(2))
        .build()
}

/// Runs every accepted combination under `comm` and returns how many ran.
fn run_matrix(comm: CommMode) -> usize {
    // 4 parameters: two 2-element partitions.
    let model = LogisticRegression::new(1, 2);
    let dataset = data::make_blobs(30, 1, 2, 0.5, 4);
    let clients = data::partition_iid(&dataset, TRAINERS, 2);
    let sgd = SgdConfig {
        lr: 0.3,
        batch_size: 8,
        epochs: 1,
        clip: None,
    };
    let mut ran = 0;
    for bits in 0..1u32 << 9 {
        let Ok(cfg) = configure(bits, comm) else {
            continue; // a combination validate() rejects
        };
        let what = format!("{comm:?} switches {bits:#011b}");
        let report = run_task(
            cfg.clone(),
            model.clone(),
            model.params(),
            clients.clone(),
            sgd,
            &[],
        )
        .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(report.succeeded(&cfg), "{what}: a round did not complete");
        assert!(
            report.consensus_params().is_some(),
            "{what}: trainers disagree"
        );
        let trace = &report.trace;
        assert_eq!(
            trace.total_bytes_sent(),
            trace.total_bytes_received(),
            "{what}: bytes leaked"
        );
        for label in [
            net::FLOW_TORN_INBOUND,
            net::FLOW_TORN_OUTBOUND,
            net::FLOW_UNDELIVERED,
        ] {
            assert_eq!(trace.count(label), 0, "{what}: {label}");
        }
        for name in trace.labels() {
            assert!(
                [labels::ALL, stats::ALL, net::ALL]
                    .iter()
                    .any(|registry| registry.contains(&name)),
                "{what}: `{name}` is in no label registry"
            );
        }
        ran += 1;
    }
    println!("mode matrix, {comm:?}: {ran} valid combinations ran");
    ran
}

#[test]
fn the_label_registry_names_each_label_once() {
    let registries = [labels::ALL, stats::ALL, net::ALL];
    let mut names = registries.concat();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), registries.iter().map(|r| r.len()).sum());
}

/// The `pub const` string values declared in `source`'s `pub mod {module}`
/// block.
fn declared_in_module(source: &'static str, module: &str) -> Vec<&'static str> {
    let start = source
        .find(&format!("pub mod {module} {{"))
        .unwrap_or_else(|| panic!("no `pub mod {module}`"));
    source[start..]
        .lines()
        .skip(1)
        .take_while(|line| *line != "}")
        .filter(|line| line.trim_start().starts_with("pub const ") && line.contains(": &str ="))
        .filter_map(|line| line.split('"').nth(1))
        .collect()
}

/// Each storage counter and each simulator label is in its crate's `ALL`,
/// so the "no unregistered name" check above cannot miss a new one.
#[test]
fn every_storage_and_simulator_label_is_registered() {
    for (source, module, registry) in [
        (
            include_str!("../crates/ipfs/src/node.rs"),
            "stats",
            stats::ALL,
        ),
        (
            include_str!("../crates/netsim/src/trace.rs"),
            "net",
            net::ALL,
        ),
    ] {
        let declared = declared_in_module(source, module);
        assert!(!declared.is_empty(), "{module}: no labels found");
        for value in &declared {
            assert!(registry.contains(value), "{module}: `{value}` not in ALL");
        }
        assert_eq!(declared.len(), registry.len(), "{module}");
    }
}

/// Every `ipls` source file but the registry itself.
const IPLS_SOURCES: &[&str] = &[
    include_str!("../crates/core/src/accountability.rs"),
    include_str!("../crates/core/src/adversary.rs"),
    include_str!("../crates/core/src/aggregator.rs"),
    include_str!("../crates/core/src/config.rs"),
    include_str!("../crates/core/src/directory.rs"),
    include_str!("../crates/core/src/error.rs"),
    include_str!("../crates/core/src/gradient.rs"),
    include_str!("../crates/core/src/lib.rs"),
    include_str!("../crates/core/src/messages.rs"),
    include_str!("../crates/core/src/overlay.rs"),
    include_str!("../crates/core/src/protocol.rs"),
    include_str!("../crates/core/src/runner.rs"),
    include_str!("../crates/core/src/trainer.rs"),
];

/// The other direction of the registry check: each label `labels::ALL`
/// declares is named by the non-test code (comments aside) of some `ipls`
/// source, so a change that stops emitting a label retires it too.
#[test]
fn every_registered_label_is_named_by_the_code() {
    let registry = include_str!("../crates/core/src/labels.rs");
    let code: Vec<&str> = IPLS_SOURCES
        .iter()
        .flat_map(|src| src.split("#[cfg(test)]").next().unwrap_or(src).lines())
        .filter(|line| !line.trim_start().starts_with("//"))
        .collect();
    let continues_name = |c: char| c == '_' || c.is_ascii_alphanumeric();
    for value in labels::ALL {
        let declaration = format!(": &str = \"{value}\";");
        let name = registry
            .lines()
            .find(|line| line.ends_with(&declaration))
            .and_then(|line| line.strip_prefix("pub const "))
            .and_then(|line| line.split(':').next())
            .unwrap_or_else(|| panic!("`{value}` has no `pub const` in labels.rs"));
        let path = format!("labels::{name}");
        let named = code.iter().any(|line| {
            line.match_indices(&path)
                .any(|(at, _)| !line[at + path.len()..].starts_with(continues_name))
        });
        assert!(named, "`{path}` (\"{value}\") is named by no ipls code");
    }
}

#[test]
fn every_valid_combination_completes_agrees_and_conserves_bytes_direct() {
    assert_eq!(run_matrix(CommMode::Direct), VALID_PER_COMM);
}

#[test]
fn every_valid_combination_completes_agrees_and_conserves_bytes_indirect() {
    assert_eq!(run_matrix(CommMode::Indirect), VALID_PER_COMM);
}

#[test]
fn every_valid_combination_completes_agrees_and_conserves_bytes_merge_and_download() {
    assert_eq!(run_matrix(CommMode::MergeAndDownload), VALID_PER_COMM);
}
