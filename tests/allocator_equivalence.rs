//! End-to-end proof that the incremental component-scoped allocator is
//! bit-identical to the reference global water-filling on the paper's
//! example configurations: the *entire* protocol trace — every event
//! microsecond, every counter, every byte ledger entry — hashes to the
//! same value under both allocators.

use decentralized_fl::netsim::Simulation;
use decentralized_fl::prelude::TaskConfig;
use decentralized_fl::protocol::TaskReport;
use dfl_bench::{
    fig1_config, fig1_param_count, fig2_config, fig2_param_count, run_network_experiment,
    run_network_experiment_in,
};

/// FNV-1a over the full observable run outcome.
fn trace_hash(report: &TaskReport) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    let trace = &report.trace;
    for e in trace.events() {
        eat(&e.time.as_micros().to_le_bytes());
        eat(&(e.node.0 as u64).to_le_bytes());
        eat(trace.label_name(e.label).as_bytes());
        eat(&e.value.to_bits().to_le_bytes());
    }
    eat(&trace.total_bytes_sent().to_le_bytes());
    eat(&trace.total_bytes_received().to_le_bytes());
    eat(&report.wire_wasted_bytes.to_le_bytes());
    h
}

fn run_both(cfg: TaskConfig, params: usize) -> (u64, usize, u64, usize) {
    let fast = run_network_experiment(cfg.clone(), params);
    let mut reference = Simulation::new();
    reference.set_reference_allocator(true);
    let slow = run_network_experiment_in(reference, cfg, params);
    (
        trace_hash(&fast),
        fast.trace.events().len(),
        trace_hash(&slow),
        slow.trace.events().len(),
    )
}

#[test]
fn fig1_trace_hash_identical_across_allocators() {
    let (fast, fast_n, slow, slow_n) = run_both(fig1_config(), fig1_param_count());
    assert_eq!(fast_n, slow_n, "event counts diverged on Fig. 1 config");
    assert_eq!(fast, slow, "trace hash diverged on Fig. 1 config");
}

#[test]
fn fig2_trace_hash_identical_across_allocators() {
    let (fast, fast_n, slow, slow_n) = run_both(fig2_config(), fig2_param_count());
    assert_eq!(fast_n, slow_n, "event counts diverged on Fig. 2 config");
    assert_eq!(fast, slow, "trace hash diverged on Fig. 2 config");
}
