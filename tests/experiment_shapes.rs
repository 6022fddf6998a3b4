//! Regression tests pinning the *shapes* of the paper's figures — the
//! reproduction criteria from EXPERIMENTS.md. A change that breaks any of
//! these breaks the reproduction, even if all functional tests still pass.
//!
//! Each runs the `dfl_bench` function whose series an example prints. The
//! topologies match the paper's; the partition size is scaled down 4× so
//! the suite stays fast (all delays scale linearly, shapes unchanged). The
//! two ablations are held to the same rule: a shape, not a value.

use decentralized_fl::prelude::*;
use dfl_bench::{
    fig1_run, fig2_run, fig3_commitment, replication_run, verify_run, Fig1Point, Fig2Point,
    VERIFY_COMMIT_US, VERIFY_PARAMS,
};

/// ~325 KB partition (the paper's 1.3 MB scaled by 4).
const FIG1_PARAMS: usize = 1_300_000 / 8 / 4;
/// 4 partitions of ~275 KB (the paper's 1.1 MB scaled by 4).
const FIG2_PARAMS: usize = 4 * 1_100_000 / 8 / 4;

fn fig1(comm: CommMode, providers: usize) -> Fig1Point {
    fig1_run(comm, providers, FIG1_PARAMS)
}

fn fig2(aggregators_per_partition: usize) -> Fig2Point {
    fig2_run(aggregators_per_partition, FIG2_PARAMS)
}

#[test]
fn fig1_upload_delay_decreases_with_providers() {
    let mut last = f64::INFINITY;
    for providers in [1usize, 4, 16] {
        let point = fig1(CommMode::MergeAndDownload, providers);
        assert_eq!(point.label, providers.to_string());
        let upload = point.upload_delay;
        assert!(
            upload < last * 0.75,
            "upload delay must drop substantially with providers: {upload} !< {last}"
        );
        last = upload;
    }
}

#[test]
fn fig1_aggregation_delay_increases_with_providers() {
    let mut last = 0.0;
    for providers in [1usize, 4, 16] {
        let agg = fig1(CommMode::MergeAndDownload, providers).aggregation_delay;
        assert!(
            agg > last * 1.5,
            "aggregation delay must grow with providers: {agg} !> {last}"
        );
        last = agg;
    }
}

#[test]
fn fig1_trade_off_optimum_at_sqrt_trainers() {
    // τ = upload + aggregation is minimized at |P| = √16 = 4 (§III-E).
    let mut totals = Vec::new();
    for providers in [1usize, 2, 4, 8, 16] {
        let p = fig1(CommMode::MergeAndDownload, providers);
        totals.push((providers, p.upload_delay + p.aggregation_delay));
    }
    let best = totals
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("points");
    assert_eq!(best.0, 4, "optimum must sit at √16 = 4: {totals:?}");
}

#[test]
fn fig1_merge_beats_naive_indirect() {
    let merged = fig1(CommMode::MergeAndDownload, 8);
    let naive = fig1(CommMode::Indirect, 8);
    assert_eq!(
        (merged.label.as_str(), naive.label.as_str()),
        ("8", "8 (naive)")
    );
    let m = merged.aggregation_delay;
    let n = naive.aggregation_delay;
    assert!(
        n > 1.5 * m,
        "naive indirect ({n}s) must be ≫ merge-and-download ({m}s): §V 'essential mechanism'"
    );
}

#[test]
fn fig2_aggregation_halves_and_total_decreases() {
    let points: Vec<(f64, f64, f64)> = [1usize, 2, 4]
        .iter()
        .map(|&a| fig2(a))
        .map(|p| (p.aggregation_delay, p.sync_delay, p.total_delay))
        .collect();
    // Aggregation ~halves per doubling.
    assert!(points[1].0 < points[0].0 * 0.65, "{points:?}");
    assert!(points[2].0 < points[1].0 * 0.65, "{points:?}");
    // Sync grows with |A_i|.
    assert!(points[1].1 > points[0].1, "{points:?}");
    assert!(points[2].1 > points[1].1, "{points:?}");
    // Total decreases, with diminishing returns.
    assert!(points[1].2 < points[0].2, "{points:?}");
    assert!(points[2].2 < points[1].2, "{points:?}");
    let gain1 = points[0].2 - points[1].2;
    let gain2 = points[1].2 - points[2].2;
    assert!(gain2 < gain1, "diminishing returns expected: {points:?}");
}

#[test]
fn fig2_bytes_match_analytic_formula() {
    // D = (|T_ij| + |A_i| − 1) · PartitionSize.
    for a in [1usize, 2, 4] {
        let p = fig2(a);
        let ratio = p.mb_per_aggregator / p.expected_mb;
        assert!(
            (0.97..1.1).contains(&ratio),
            "|A_i|={a}: measured {:.3} MB vs analytic {:.3} MB (ratio {ratio:.3})",
            p.mb_per_aggregator,
            p.expected_mb
        );
    }
}

#[test]
fn fig3_commitment_costs_more_than_hashing() {
    let points = fig3_commitment(&[256]);
    assert_eq!(points.len(), 1);
    let p = &points[0];
    assert_eq!(p.elements, 256);
    assert!(p.pedersen_k1_ms > p.sha256_ms, "{p:?}");
    assert!(p.pedersen_r1_ms > p.sha256_ms, "{p:?}");
    assert!(p.batch_affine_k1_ms > 0.0 && p.fast_k1_ms > 0.0 && p.fast_r1_ms > 0.0);
}

#[test]
fn replication_ablation_round_time_is_non_decreasing_in_r() {
    // Replica pushes share the storage nodes' uplinks with everything
    // else, so more insurance never makes a round faster (§VI).
    let rounds: Vec<f64> = [1, 2, 4]
        .iter()
        .map(|&r| replication_run(r).rounds[0].round_duration)
        .collect();
    assert!(rounds.windows(2).all(|w| w[0] <= w[1]), "{rounds:?}");
}

#[test]
fn verification_ablation_round_pays_at_least_its_commit_charge() {
    // Every trainer commits its 2 partition blobs (values + counter each)
    // in parallel with the others, so the verifiable round is at least
    // one trainer's commit charge longer than the plain one.
    let plain = verify_run(false).rounds[0].round_duration;
    let verified = verify_run(true).rounds[0].round_duration;
    let charge = (VERIFY_PARAMS + 2) as f64 * VERIFY_COMMIT_US as f64 / 1e6;
    assert!(
        verified >= plain + charge,
        "verified {verified} s < plain {plain} s + commit charge {charge} s"
    );
}
