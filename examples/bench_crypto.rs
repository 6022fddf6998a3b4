//! Records the commitment-pipeline before/after numbers into
//! `BENCH_crypto.json`: every MSM kernel (naive, wNAF, Jacobian Pippenger,
//! batch-affine Pippenger, precomputed table) plus the end-to-end Pedersen
//! commit, on both protocol curves, at the acceptance size d = 8192 — and
//! the verifiable-round sweep (per-blob vs one RLC batch per round) up to
//! the paper's 10k-trainer swarm.
//!
//! Run with: `cargo run --release --example bench_crypto`
//! (set `BENCH_CRYPTO_ELEMENTS` to override the vector length and
//! `BENCH_VERIFIABLE_TRAINERS` to override the largest sweep point).
//!
//! `-- --test` runs the CI smoke check instead: verifiable rounds of 8 and
//! 16 blobs at d = 8192 where the batched check must beat per-blob
//! verification, and the tiny-d kernels (d = 33 commit, 8-child culprit
//! search) against the naive MSM. `-- --crossover` prints where batching
//! starts to win, at d = 33 and d = 8193.

use dfl_bench::{
    crypto_report, crypto_report_json, verifiable_round_inputs, verifiable_round_point,
    verifiable_round_sweep, VerifiableRound, VerifiableRoundPoint,
};
use dfl_crypto::curve::{Scalar, Secp256k1};
use dfl_crypto::pedersen::BatchEntry;

/// Median per-blob, batched and pure-RLC times over `reps` measurements
/// of one round shape (a single `verifiable_round_point` is one shot of
/// each).
fn median_point(trainers: usize, elements: usize, reps: usize) -> [f64; 3] {
    let points: Vec<_> = (0..reps)
        .map(|_| verifiable_round_point(trainers, elements))
        .collect();
    let median = |column: fn(&VerifiableRoundPoint) -> f64| {
        let mut v: Vec<f64> = points.iter().map(column).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    [
        median(|p| p.per_blob_ms),
        median(|p| p.batched_ms),
        median(|p| p.rlc_ms),
    ]
}

/// Prints sequential `verify` against one RLC (`batch_check`) and against
/// what the protocol calls (`batch_culprits`) on honest rounds of 1–16
/// blobs at the two blob lengths `benchmark/` runs. The first two columns
/// are the measurement behind `RLC_MIN_BATCH` in dfl-crypto's pedersen.rs.
fn crossover() {
    println!("honest round: sequential verify, one RLC, batch_culprits (median of 5, ms)");
    println!(
        "{:>6} {:>4} {:>12} {:>10} {:>16} {:>16}",
        "d", "n", "sequential", "rlc", "batch_culprits", "sequential/rlc"
    );
    for elements in [33, 8193] {
        for trainers in [1, 2, 3, 4, 5, 6, 8, 16] {
            let [per_blob, batched, rlc] = median_point(trainers, elements, 5);
            println!(
                "{elements:>6} {trainers:>4} {per_blob:>12.3} {rlc:>10.3} {batched:>16.3} {:>15.2}x",
                per_blob / rlc
            );
        }
    }
}

/// Correctness only, no timing: on the crossover's d = 33 / n = 8 inputs —
/// an overlay node's own commit and its child-opening check — every
/// commitment and both culprit sets (an honest round, and one whose child
/// 5 sends a doctored opening) must equal what the naive MSM gives.
fn tiny_d_kernels_match_naive() {
    let VerifiableRound {
        key,
        mut vectors,
        commitments,
    } = verifiable_round_inputs(8, 33);
    for (values, commitment) in vectors.iter().zip(&commitments) {
        let committed = key.commit(values);
        assert_eq!(committed, key.commit_naive(values));
        assert_eq!(committed, *commitment);
    }
    for doctored in [None, Some(5)] {
        if let Some(child) = doctored {
            vectors[child][7] += Scalar::<Secp256k1>::ONE;
        }
        let naive: Vec<usize> = (0..vectors.len())
            .filter(|&i| key.commit_naive(&vectors[i]) != commitments[i])
            .collect();
        assert_eq!(naive, Vec::from_iter(doctored));
        let entries: Vec<_> = vectors
            .iter()
            .zip(&commitments)
            .map(|(values, commitment)| BatchEntry::new(values, commitment))
            .collect();
        assert_eq!(key.batch_culprits(&entries), naive);
    }
    println!("smoke: d=33 commit and 8-child batch_culprits (honest, doctored) equal naive");
}

/// CI smoke mode: quick, asserting, no JSON write. One RLC batch must beat
/// per-blob verification at the batch shapes the protocol really flushes
/// (8 and 16 blobs of the acceptance length). Four blobs are printed for
/// information only: since commitments follow the scalar's real length a
/// direct recommit is cheap, so a handful of blobs is verified directly
/// and the two columns are the same work.
fn smoke() {
    for trainers in [4, 8, 16] {
        let [per_blob_ms, batched_ms, _] = median_point(trainers, 8192, 3);
        let speedup = per_blob_ms / batched_ms;
        println!(
            "smoke: {trainers} trainers x d=8192: per-blob {per_blob_ms:.1} ms, \
             batched {batched_ms:.1} ms ({speedup:.2}x)"
        );
        assert!(
            trainers < 8 || speedup > 1.0,
            "batched round check must beat per-blob at {trainers} x d=8192: \
             per-blob {per_blob_ms:.2} ms vs batched {batched_ms:.2} ms"
        );
    }
    tiny_d_kernels_match_naive();
    println!("smoke: OK");
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        smoke();
        return;
    }
    if std::env::args().any(|a| a == "--crossover") {
        crossover();
        return;
    }
    let elements = std::env::var("BENCH_CRYPTO_ELEMENTS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(8192);
    println!("Commitment pipeline, d = {elements} (wall clock, this machine)");
    println!(
        "{:>12} {:>10} {:>10} {:>12} {:>14} {:>12} {:>10} {:>12} {:>10}",
        "curve",
        "naive",
        "wnaf",
        "pippenger",
        "batch-affine",
        "table-build",
        "table",
        "commit-naive",
        "commit"
    );
    let profiles = crypto_report(elements);
    for p in &profiles {
        println!(
            "{:>12} {:>10.1} {:>10.1} {:>12.1} {:>14.1} {:>12.1} {:>10.1} {:>12.1} {:>10.1}",
            p.curve,
            p.naive_ms,
            p.wnaf_ms,
            p.pippenger_ms,
            p.batch_affine_ms,
            p.table_build_ms,
            p.table_ms,
            p.commit_naive_ms,
            p.commit_fast_ms
        );
        println!(
            "{:>12} commit speedup over seed naive path: {:.1}x",
            "",
            p.commit_speedup()
        );
    }

    // Verifiable-round before/after: d = 257 matches the protocol's
    // 256-parameter partitions plus the averaging-counter element.
    let max_trainers = std::env::var("BENCH_VERIFIABLE_TRAINERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(10_000);
    let sizes: Vec<usize> = [100, 1_000, max_trainers]
        .into_iter()
        .filter(|&n| n <= max_trainers)
        .collect();
    println!("\nVerifiable round, d = 257 per blob (wall clock, this machine)");
    println!(
        "{:>10} {:>14} {:>12} {:>9}",
        "trainers", "per-blob(ms)", "batched(ms)", "speedup"
    );
    let rounds = verifiable_round_sweep(&sizes, 257);
    for r in &rounds {
        println!(
            "{:>10} {:>14.1} {:>12.1} {:>8.1}x",
            r.trainers,
            r.per_blob_ms,
            r.batched_ms,
            r.speedup()
        );
    }

    let json = crypto_report_json(&profiles, &rounds);
    std::fs::write("BENCH_crypto.json", &json).expect("write BENCH_crypto.json");
    println!("\nwrote BENCH_crypto.json");
}
