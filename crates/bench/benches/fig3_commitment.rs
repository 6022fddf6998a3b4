//! Criterion bench regenerating **Figure 3** of the paper: time to compute
//! the SHA-256 hash and the Pedersen commitment of a model's parameters on
//! secp256k1 and secp256r1, versus the number of parameters.
//!
//! The naive-MSM measurements mirror the paper's "straightforward"
//! implementation; the batch-affine group is the commit on a key without a
//! table, the Pippenger bucket method the paper cites as future work. Run
//! with `cargo bench -p dfl-bench --bench fig3_commitment`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dfl_crypto::curve::{Scalar, Secp256k1, Secp256r1};
use dfl_crypto::pedersen::CommitKey;
use dfl_crypto::sha256::Sha256;

const SIZES: &[usize] = &[1 << 10, 1 << 12, 1 << 14];

fn scalars_k1(n: usize) -> Vec<Scalar<Secp256k1>> {
    (0..n)
        .map(|i| {
            Scalar::<Secp256k1>::from_i64(if i % 2 == 0 {
                7 * i as i64 + 1
            } else {
                -(7 * i as i64) - 1
            })
        })
        .collect()
}

fn scalars_r1(n: usize) -> Vec<Scalar<Secp256r1>> {
    (0..n)
        .map(|i| {
            Scalar::<Secp256r1>::from_i64(if i % 2 == 0 {
                7 * i as i64 + 1
            } else {
                -(7 * i as i64) - 1
            })
        })
        .collect()
}

fn bench_fig3(c: &mut Criterion) {
    let max = *SIZES.last().expect("sizes");
    let key_k1 = CommitKey::<Secp256k1>::setup(max, b"fig3-bench");
    let key_r1 = CommitKey::<Secp256r1>::setup(max, b"fig3-bench");
    let fast_k1 = CommitKey::<Secp256k1>::setup_precomputed(max, b"fig3-bench");
    let fast_r1 = CommitKey::<Secp256r1>::setup_precomputed(max, b"fig3-bench");

    let mut group = c.benchmark_group("fig3_sha256");
    for &n in SIZES {
        let bytes = vec![0xA5u8; n * 8];
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &bytes, |b, bytes| {
            b.iter(|| Sha256::digest(bytes))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fig3_pedersen_secp256k1");
    group.sample_size(10);
    for &n in SIZES {
        let scalars = scalars_k1(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &scalars, |b, s| {
            b.iter(|| key_k1.commit_naive(s))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fig3_pedersen_secp256r1");
    group.sample_size(10);
    for &n in SIZES {
        let scalars = scalars_r1(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &scalars, |b, s| {
            b.iter(|| key_r1.commit_naive(s))
        });
    }
    group.finish();

    // The ablation: the same key has no table, so `commit` runs the
    // batch-affine bucket method.
    let mut group = c.benchmark_group("fig3_pedersen_batch_affine_secp256k1");
    group.sample_size(10);
    for &n in SIZES {
        let scalars = scalars_k1(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &scalars, |b, s| {
            b.iter(|| key_k1.commit(s))
        });
    }
    group.finish();

    // The redesigned pipeline: same commitments, precomputed-table MSM.
    let mut group = c.benchmark_group("fig3_pedersen_fast_secp256k1");
    group.sample_size(10);
    for &n in SIZES {
        let scalars = scalars_k1(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &scalars, |b, s| {
            b.iter(|| fast_k1.commit(s))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fig3_pedersen_fast_secp256r1");
    group.sample_size(10);
    for &n in SIZES {
        let scalars = scalars_r1(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &scalars, |b, s| {
            b.iter(|| fast_r1.commit(s))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
