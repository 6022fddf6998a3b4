//! Ablation: multi-scalar-multiplication strategy for Pedersen commitment
//! computation — naive double-and-add (the paper's implementation),
//! interleaved wNAF, Jacobian Pippenger buckets (the multi-exponentiation
//! optimization the paper cites as future work [27, 28]), batch-affine
//! Pippenger, and the precomputed fixed-base table.
//!
//! Run with `cargo bench -p dfl-bench --bench ablate_msm`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dfl_crypto::curve::{Scalar, Secp256k1};
use dfl_crypto::msm::{Msm, MsmTable, Strategy};
use dfl_crypto::pedersen::CommitKey;

const SIZES: &[usize] = &[256, 1024, 4096];

fn bench_msm(c: &mut Criterion) {
    let max = *SIZES.last().expect("sizes");
    let key = CommitKey::<Secp256k1>::setup(max, b"msm-ablation");
    // Alternate signs so half the canonical exponents are ≈256-bit, as in
    // real quantized-gradient commitments.
    let scalars: Vec<Scalar<Secp256k1>> = (0..max)
        .map(|i| {
            let magnitude = (i as u64 * 0x9E37 + 3) & 0xFF_FFFF;
            if i % 2 == 0 {
                Scalar::<Secp256k1>::from_u64(magnitude)
            } else {
                Scalar::<Secp256k1>::from_i64(-(magnitude as i64))
            }
        })
        .collect();

    let mut group = c.benchmark_group("ablate_msm");
    group.sample_size(10);
    for &n in SIZES {
        let points = &key.generators()[..n];
        let ks = &scalars[..n];
        for (label, strategy) in [
            ("naive", Strategy::Naive),
            ("wnaf", Strategy::Wnaf),
            ("pippenger", Strategy::Pippenger),
            ("batch_affine", Strategy::BatchAffine),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| Msm::new(points).with_strategy(strategy).eval(ks))
            });
        }
        let table = MsmTable::build(points);
        group.bench_with_input(BenchmarkId::new("table", n), &n, |b, _| {
            b.iter(|| Msm::new(points).with_table(&table).eval(ks))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_msm);
criterion_main!(benches);
