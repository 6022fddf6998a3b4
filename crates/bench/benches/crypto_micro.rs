//! Microbenchmarks of the cryptographic substrate: field multiplication,
//! curve arithmetic, scalar multiplication, hashing, and quantization —
//! the primitives every higher-level number in Fig. 3 decomposes into.
//!
//! Run with `cargo bench -p dfl-bench --bench crypto_micro`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dfl_crypto::curve::{Affine, Curve, Jacobian, Scalar, Secp256k1, Secp256r1};
use dfl_crypto::field::Fp;
use dfl_crypto::msm::MsmTable;
use dfl_crypto::pedersen::{BatchEntry, CommitKey, Commitment};
use dfl_crypto::quantize::{encode, quantize_vector};
use dfl_crypto::schnorr::SigningKey;
use dfl_crypto::sha256::Sha256;

fn bench_field(c: &mut Criterion) {
    let a = Fp::<<Secp256k1 as Curve>::Base>::from_u64(0xDEADBEEF)
        .pow(&dfl_crypto::bigint::U256::from_u64(12345));
    let b = a.square();
    let mut group = c.benchmark_group("field");
    group.bench_function("mul_secp256k1", |bch| bch.iter(|| a * b));
    group.bench_function("square_secp256k1", |bch| bch.iter(|| a.square()));
    group.bench_function("invert_secp256k1", |bch| bch.iter(|| a.invert()));
    let ar = Fp::<<Secp256r1 as Curve>::Base>::from_u64(0xDEADBEEF);
    group.bench_function("mul_secp256r1", |bch| bch.iter(|| ar * ar));
    group.finish();
}

fn bench_curve(c: &mut Criterion) {
    let g = Secp256k1::generator().to_jacobian();
    let p = g.double();
    let k = Scalar::<Secp256k1>::from_u64(0xFEDCBA9876543210);
    let pa = p.to_affine();
    let mut group = c.benchmark_group("curve");
    group.bench_function("add_jacobian", |b| b.iter(|| g.add(&p)));
    group.bench_function("add_mixed", |b| b.iter(|| g.add_affine(&pa)));
    group.bench_function("double", |b| b.iter(|| g.double()));
    group.bench_function("scalar_mul_wnaf", |b| {
        b.iter(|| Secp256k1::generator().mul(&k))
    });
    group.bench_function("to_affine", |b| b.iter(|| g.to_affine()));
    group.bench_function("decompress", |b| {
        let bytes = Secp256k1::generator().to_compressed();
        b.iter(|| Affine::<Secp256k1>::from_compressed(&bytes))
    });
    group.finish();
}

fn bench_hash_and_quantize(c: &mut Criterion) {
    let data = vec![0x5Au8; 1 << 20];
    let mut group = c.benchmark_group("hash");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha256_1mib", |b| b.iter(|| Sha256::digest(&data)));
    group.finish();

    let values: Vec<f32> = (0..65536).map(|i| (i as f32).sin()).collect();
    let mut group = c.benchmark_group("quantize");
    group.throughput(Throughput::Elements(values.len() as u64));
    group.bench_function("quantize_64k", |b| b.iter(|| quantize_vector(&values)));
    let q = quantize_vector(&values);
    group.bench_function("encode_64k", |b| b.iter(|| encode(&q)));
    group.finish();
}

fn bench_msm_pipeline(c: &mut Criterion) {
    // The building blocks of the batch-affine/table pipeline, plus the
    // commit before/after at one representative size.
    const N: usize = 1024;
    let key = CommitKey::<Secp256k1>::setup(N, b"micro-msm");
    let scalars: Vec<Scalar<Secp256k1>> = (0..N)
        .map(|i| {
            Scalar::<Secp256k1>::from_i64(if i % 2 == 0 {
                i as i64 + 1
            } else {
                -(i as i64)
            })
        })
        .collect();
    let jacobians: Vec<Jacobian<Secp256k1>> = key
        .generators()
        .iter()
        .map(|p| p.to_jacobian().double())
        .collect();
    let field_elems: Vec<Fp<<Secp256k1 as Curve>::Base>> = (1..=N as u64)
        .map(Fp::<<Secp256k1 as Curve>::Base>::from_u64)
        .collect();

    let mut group = c.benchmark_group("msm_pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("batch_invert_1k", |b| {
        b.iter(|| {
            let mut elems = field_elems.clone();
            Fp::batch_invert(&mut elems);
            elems
        })
    });
    group.bench_function("batch_normalize_1k", |b| {
        b.iter(|| Jacobian::batch_normalize(&jacobians))
    });
    group.bench_function("table_build_1k", |b| {
        b.iter(|| MsmTable::build(key.generators()))
    });
    let mut fast_key = key.clone();
    fast_key.precompute();
    group.bench_function("commit_naive_1k", |b| b.iter(|| key.commit_naive(&scalars)));
    group.bench_function("commit_fast_1k", |b| b.iter(|| fast_key.commit(&scalars)));
    group.finish();
}

fn bench_verification(c: &mut Criterion) {
    // Batched vs individual commitment verification: the §VI
    // directory-load reduction, quantified. 8 openings of 256-element
    // vectors ≈ one round of a 4-partition task with |A_i| = 2.
    let key = CommitKey::<Secp256k1>::setup(256, b"micro");
    // Mixed-sign quantized-gradient scalars, ≤ 13 bits of magnitude. The
    // MSM follows the centred representative, so each individual opening
    // costs a 13-bit walk whatever its sign, while the batch commits to
    // `Σ rᵢ·vᵢ` with 128-bit coefficients (≈ 145-bit scalars): at 8
    // openings of this length, without a table, recommitting is the
    // cheaper of the two. `batch_culprits` draws that line for the
    // protocol (`RLC_MIN_BATCH`); `batch_check` here is always one RLC.
    let vectors: Vec<Vec<Scalar<Secp256k1>>> = (0..8)
        .map(|i| {
            (0..256)
                .map(|j| {
                    let v = (i * 1000 + j + 1) as i64;
                    Scalar::<Secp256k1>::from_i64(if j % 2 == 0 { v } else { -v })
                })
                .collect()
        })
        .collect();
    let commits: Vec<Commitment<Secp256k1>> = vectors.iter().map(|v| key.commit(v)).collect();
    let entries: Vec<BatchEntry<'_, Secp256k1>> = vectors
        .iter()
        .zip(&commits)
        .map(|(v, cm)| BatchEntry::new(v, cm))
        .collect();

    let mut group = c.benchmark_group("verification");
    group.sample_size(10);
    group.bench_function("individual_x8", |b| {
        b.iter(|| {
            for (v, cm) in vectors.iter().zip(&commits) {
                assert!(key.verify(v, cm));
            }
        })
    });
    group.bench_function("batched_x8", |b| {
        b.iter(|| assert!(key.batch_check(&entries)))
    });
    group.finish();

    // Schnorr registration authentication.
    let sk = SigningKey::<Secp256k1>::derive(b"bench", 0);
    let vk = sk.verifying_key();
    let sig = sk.sign(b"register gradient");
    let mut group = c.benchmark_group("schnorr");
    group.bench_function("sign", |b| b.iter(|| sk.sign(b"register gradient")));
    group.bench_function("verify", |b| {
        b.iter(|| vk.verify(b"register gradient", &sig))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_field,
    bench_curve,
    bench_hash_and_quantize,
    bench_msm_pipeline,
    bench_verification
);
criterion_main!(benches);
