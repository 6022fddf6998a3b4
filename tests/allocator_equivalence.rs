//! End-to-end proof that the incremental component-scoped allocator is
//! bit-identical to the reference global water-filling on the paper's
//! example configurations: the *entire* protocol trace — every event
//! microsecond, every counter, every byte ledger entry — hashes to the
//! same value under both allocators.

use decentralized_fl::netsim::Simulation;
use decentralized_fl::prelude::TaskConfig;
use dfl_bench::{
    fig1_config, fig1_param_count, fig2_config, fig2_param_count, run_network_experiment,
    run_network_experiment_in, trace_fingerprint,
};

/// Runs `cfg` under both allocators and asserts the two runs agree on
/// every event, counter and byte total, and on the bytes churn wasted.
fn assert_allocators_agree(cfg: TaskConfig, params: usize, figure: &str) {
    let fast = run_network_experiment(cfg.clone(), params);
    let mut reference = Simulation::new();
    reference.set_reference_allocator(true);
    let slow = run_network_experiment_in(reference, cfg, params);
    assert_eq!(
        fast.trace.events().len(),
        slow.trace.events().len(),
        "event counts diverged on {figure} config"
    );
    assert_eq!(
        trace_fingerprint(&fast.trace),
        trace_fingerprint(&slow.trace),
        "trace fingerprint diverged on {figure} config"
    );
    assert_eq!(
        fast.wire_wasted_bytes, slow.wire_wasted_bytes,
        "wasted wire bytes diverged on {figure} config"
    );
}

#[test]
fn fig1_trace_hash_identical_across_allocators() {
    assert_allocators_agree(fig1_config(), fig1_param_count(), "Fig. 1");
}

#[test]
fn fig2_trace_hash_identical_across_allocators() {
    assert_allocators_agree(fig2_config(), fig2_param_count(), "Fig. 2");
}
