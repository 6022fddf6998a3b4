//! Regenerates Figure 3 of the paper: time to compute the SHA-256 hash and
//! the Pedersen commitment of a model's parameters (secp256k1 and
//! secp256r1), versus the number of parameters.
//!
//! The naive-MSM columns correspond to the paper's "rather
//! straight-forward" implementation; the batch-affine column is the commit
//! on a key without a table, which runs Pippenger's bucket method — the
//! multi-exponentiation optimization the paper cites as future work
//! [Möller '01; Borges et al. '17]; the fast columns commit through the
//! key's precomputed table.
//!
//! Sizes default to 2^10 … 2^16 parameters (the paper sweeps to ~25 M,
//! which takes minutes per point — both series are linear, so the shape is
//! fully visible at these sizes; see EXPERIMENTS.md). Set `FIG3_MAX_LOG2`
//! to raise the cap, e.g. `FIG3_MAX_LOG2=18`.
//!
//! It then prints the same cost in situ: one simulated round of a small
//! task with verification off and on, charging the naive slope per
//! committed element (`dfl_bench::verify_run`).
//!
//! Run with: `cargo run --release --example fig3_commitment`

use dfl_bench::{fig3_commitment, fig3_default_sizes, verify_run, VERIFY_COMMIT_US, VERIFY_PARAMS};

fn main() {
    let sizes = match std::env::var("FIG3_MAX_LOG2")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
    {
        Some(max_log2) => (10..=max_log2).step_by(2).map(|l| 1usize << l).collect(),
        None => fig3_default_sizes(),
    };
    println!("Figure 3 — hashing vs commitment time (wall clock, this machine)");
    println!(
        "{:>12} {:>14} {:>18} {:>18} {:>23} {:>14} {:>14}",
        "#params",
        "SHA-256 (ms)",
        "Pedersen k1 (ms)",
        "Pedersen r1 (ms)",
        "batch-affine k1 (ms)",
        "fast k1 (ms)",
        "fast r1 (ms)"
    );
    for p in fig3_commitment(&sizes) {
        println!(
            "{:>12} {:>14.3} {:>18.1} {:>18.1} {:>23.1} {:>14.1} {:>14.1}",
            p.elements,
            p.sha256_ms,
            p.pedersen_k1_ms,
            p.pedersen_r1_ms,
            p.batch_affine_k1_ms,
            p.fast_k1_ms,
            p.fast_r1_ms
        );
    }
    println!(
        "\nExpected shape: every commitment costs more than hashing, the naive ones by \
         orders of magnitude, and the naive columns grow linearly in #params."
    );

    let round = |verifiable| verify_run(verifiable).rounds[0].round_duration;
    println!(
        "\nIn situ ({VERIFY_PARAMS} parameters, {VERIFY_COMMIT_US} µs per committed element, \
         simulated): round {:.3} s with verification off, {:.3} s on.",
        round(false),
        round(true)
    );
}
