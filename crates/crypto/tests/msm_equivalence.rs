//! Property tests: every public MSM entry point — `msm::eval` (the
//! interleaved wNAF walk below 32 points, batch-affine Pippenger from 32),
//! `MsmTable::eval` (its bucket pass, split across cores where it is large,
//! and its interleaved walk) and `CommitKey::commit` with and without a
//! table — must be *bit-identical* to `msm::naive`, the double-and-add
//! oracle, on both protocol curves. `msm::tests` holds each private kernel
//! to the oracle on the same inputs.
//!
//! Equality is checked on the canonical compressed encoding, not just the
//! projective equivalence class, because commitments travel as serialized
//! bytes: two peers on different code paths must produce the same wire
//! bytes, or verification breaks between them.
//!
//! Scalars mix random field elements with the adversarial edge values
//! (zero and `group order − 1`); vector shapes cover empty, length 1, and
//! bucket-sized inputs. The kernels walk each scalar's *centred*
//! representative and stop at the longest magnitude in the call, so three
//! more families make every term short at once — mixed-sign ≤ 40-bit
//! fixed-point values (what the protocol commits to), 128-bit values (its
//! RLC coefficients) and the scalars either side of `(n − 1)/2`, where the
//! representative flips sign — because one full-width term anywhere in the
//! vector would put the windowed kernels back on the 256-bit walk.
//!
//! The interleaved wNAF kernel adds every term's digits into *one*
//! accumulator, so what it can get wrong is what meets in that accumulator:
//! the hand-built instances at the bottom put equal and opposite points,
//! identities, zero scalars and lengths from 1 to 256 bits side by side, and
//! walk a d = 33 table across the length at which it stops choosing the
//! walk.
//!
//! The protocol commits to fixed-point integers, whose digits the kernels
//! read from their own sign and `|v|`: at every width a key is used at,
//! an integer vector must commit and verify exactly as its embedding does
//! through the `Scalar` path and through `commit_naive`, with or without
//! a table, and a vector longer than the key must be refused.

use dfl_crypto::bigint::U256;
use dfl_crypto::curve::{Affine, Curve, Jacobian, Scalar, Secp256k1, Secp256r1};
use dfl_crypto::field::FieldParams;
use dfl_crypto::msm::{self, MsmTable};
use dfl_crypto::pedersen::CommitKey;
use dfl_crypto::quantize::{to_scalars, Quantized};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a generated `u64` code becomes a scalar.
#[derive(Copy, Clone, Debug)]
enum Family {
    /// `code % 8`: 0 → zero, 1 → group order − 1 (the largest canonical
    /// scalar, exercising every top digit window), 2 → a short signed
    /// value, else random.
    Mixed,
    /// A signed fixed-point value of 0–40 bits: sign from bit 0, width
    /// from the next six, magnitude from the rest.
    ShortSigned,
    /// A value below 2¹²⁸, the shape of a batch-verification coefficient.
    Coefficient128,
    /// The scalars at which the centred representative changes shape: 0,
    /// ±1, the ends of the `i64` range, `(n − 1)/2` (last positive), the
    /// one after it (first negative) and `n − 1 ≡ −1`.
    Boundary,
    /// A signed value of 1–256 bits, width from the code: every length in
    /// one call, so the shared doubling chain outlives most of its terms.
    AnyLength,
}

use Family::{AnyLength, Boundary, Coefficient128, Mixed, ShortSigned};

/// A signed scalar whose magnitude is exactly `width` bits (1 ..= 255),
/// drawn from `code`.
fn of_width<C: Curve>(width: usize, code: u64) -> Scalar<C> {
    let mut bytes = [0u8; 32];
    StdRng::seed_from_u64(code).fill_bytes(&mut bytes);
    let low = U256::from_be_bytes(bytes).shr(256 - width);
    let magnitude = if low.bit(width - 1) {
        low
    } else {
        low.xor(&U256::ONE.shl(width - 1))
    };
    let scalar = Scalar::<C>::from_canonical(magnitude);
    if code & 1 == 0 {
        scalar
    } else {
        -scalar
    }
}

impl Family {
    fn scalar<C: Curve>(self, code: u64) -> Scalar<C> {
        let order = <C as Curve>::Scalar::MODULUS;
        let minus_one = Scalar::<C>::from_canonical(order.wrapping_sub(&U256::ONE));
        match self {
            Mixed => match code % 8 {
                0 => Scalar::<C>::ZERO,
                1 => minus_one,
                2 => ShortSigned.scalar::<C>(code >> 3),
                _ => Scalar::<C>::random(&mut StdRng::seed_from_u64(code)),
            },
            ShortSigned => {
                let width = (code >> 1) % 41;
                let magnitude = ((code >> 7) & ((1u64 << width) - 1)) as i64;
                Scalar::<C>::from_i64(if code & 1 == 0 { magnitude } else { -magnitude })
            }
            Coefficient128 => {
                let low = code.rotate_left(17).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Scalar::<C>::from_canonical(U256::from_u128((code as u128) << 64 | low as u128))
            }
            Boundary => match code % 8 {
                0 => Scalar::<C>::ZERO,
                1 => Scalar::<C>::ONE,
                2 => -Scalar::<C>::ONE,
                3 => Scalar::<C>::from_i64(i64::MAX),
                4 => Scalar::<C>::from_i64(i64::MIN),
                5 => Scalar::<C>::from_canonical(order.shr(1)),
                6 => Scalar::<C>::from_canonical(order.shr(1).wrapping_add(&U256::ONE)),
                _ => minus_one,
            },
            AnyLength => match 1 + (code >> 1) as usize % 256 {
                256 => Scalar::<C>::random(&mut StdRng::seed_from_u64(code)),
                width => of_width::<C>(width, code),
            },
        }
    }
}

/// Decodes `(point_seed, scalar_code)` pairs into MSM terms.
fn terms<C: Curve>(pairs: &[(u64, u64)], family: Family) -> (Vec<Affine<C>>, Vec<Scalar<C>>) {
    pairs
        .iter()
        .map(|&(p, s)| {
            (
                Affine::<C>::random(&mut StdRng::seed_from_u64(p)),
                family.scalar::<C>(s),
            )
        })
        .unzip()
}

/// Canonical wire form of an MSM result.
fn encode<C: Curve>(p: Jacobian<C>) -> [u8; 33] {
    p.to_affine().to_compressed()
}

/// Asserts every public entry point matches naive on the instance `pairs`
/// decodes to, byte for byte: the two MSMs on its points and scalars, and a
/// commitment to its scalars.
fn assert_all_paths_agree<C: Curve>(
    pairs: &[(u64, u64)],
    family: Family,
) -> Result<(), TestCaseError> {
    let (points, scalars) = terms::<C>(pairs, family);
    assert_terms_agree(&points, &scalars)?;
    assert_commitments_agree::<C>(&scalars)
}

/// `msm::eval` and `MsmTable::eval` against `msm::naive` on explicit terms.
fn assert_terms_agree<C: Curve>(
    points: &[Affine<C>],
    scalars: &[Scalar<C>],
) -> Result<(), TestCaseError> {
    let reference = encode(msm::naive(points, scalars));
    prop_assert_eq!(
        encode(msm::eval(points, scalars)),
        reference,
        "msm::eval diverges from naive on {} ({} terms)",
        C::NAME,
        points.len()
    );
    prop_assert_eq!(
        encode(MsmTable::build(points).eval(scalars)),
        reference,
        "MsmTable::eval diverges from naive on {} ({} terms)",
        C::NAME,
        points.len()
    );
    Ok(())
}

/// `CommitKey::commit` of `scalars` on a key without a table and on the same
/// key with one, against `msm::naive` over the key's generators.
fn assert_commitments_agree<C: Curve>(scalars: &[Scalar<C>]) -> Result<(), TestCaseError> {
    let mut key = CommitKey::<C>::setup(scalars.len(), b"msm-equivalence");
    let reference = encode(msm::naive(key.generators(), scalars));
    for table in [false, true] {
        if table {
            key.precompute();
        }
        prop_assert_eq!(
            key.commit(scalars).to_bytes(),
            reference,
            "commit (table: {}) diverges from naive on {} ({} terms)",
            table,
            C::NAME,
            scalars.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn prop_all_kernels_match_naive(
        pairs in proptest::collection::vec((1u64..u64::MAX, 0u64..u64::MAX), 0..48),
    ) {
        assert_all_paths_agree::<Secp256k1>(&pairs, Mixed)?;
        assert_all_paths_agree::<Secp256r1>(&pairs, Mixed)?;
    }

    #[test]
    fn prop_single_term_matches_naive(seed in 1u64..u64::MAX, code in 0u64..u64::MAX) {
        for family in [Mixed, ShortSigned, Coefficient128, Boundary] {
            assert_all_paths_agree::<Secp256k1>(&[(seed, code)], family)?;
            assert_all_paths_agree::<Secp256r1>(&[(seed, code)], family)?;
        }
    }

    #[test]
    fn prop_short_mixed_sign_scalars_match_naive(
        pairs in proptest::collection::vec((1u64..u64::MAX, 0u64..u64::MAX), 1..48),
    ) {
        // Every magnitude ≤ 40 bits: the windowed kernels stop after a
        // sixth of the digits and the negative terms ride negated points.
        assert_all_paths_agree::<Secp256k1>(&pairs, ShortSigned)?;
        assert_all_paths_agree::<Secp256r1>(&pairs, ShortSigned)?;
    }

    #[test]
    fn prop_128_bit_scalars_match_naive(
        pairs in proptest::collection::vec((1u64..u64::MAX, 0u64..u64::MAX), 1..48),
    ) {
        assert_all_paths_agree::<Secp256k1>(&pairs, Coefficient128)?;
        assert_all_paths_agree::<Secp256r1>(&pairs, Coefficient128)?;
    }

    #[test]
    fn prop_boundary_scalars_match_naive(
        pairs in proptest::collection::vec((1u64..u64::MAX, 0u64..u64::MAX), 1..48),
    ) {
        assert_all_paths_agree::<Secp256k1>(&pairs, Boundary)?;
        assert_all_paths_agree::<Secp256r1>(&pairs, Boundary)?;
    }

    #[test]
    fn prop_every_length_in_one_call_matches_naive(
        pairs in proptest::collection::vec((1u64..u64::MAX, 0u64..u64::MAX), 1..48),
    ) {
        assert_all_paths_agree::<Secp256k1>(&pairs, AnyLength)?;
        assert_all_paths_agree::<Secp256r1>(&pairs, AnyLength)?;
    }

    #[test]
    fn prop_all_zero_scalars_give_identity(
        seeds in proptest::collection::vec(1u64..u64::MAX, 1..20),
    ) {
        // scalar_code 0 → Scalar::ZERO for every term.
        let pairs: Vec<(u64, u64)> = seeds.iter().map(|&s| (s, 0u64)).collect();
        assert_all_paths_agree::<Secp256k1>(&pairs, Mixed)?;
        assert_all_paths_agree::<Secp256r1>(&pairs, Mixed)?;
        let (points, scalars) = terms::<Secp256k1>(&pairs, Mixed);
        prop_assert!(msm::eval(&points, &scalars).is_identity());
    }

    #[test]
    fn prop_order_minus_one_scalars(
        seeds in proptest::collection::vec(1u64..u64::MAX, 1..20),
    ) {
        // scalar_code 1 → n − 1 ≡ −1 for every term: the result must be
        // the negated point sum, and every kernel must agree on it.
        let pairs: Vec<(u64, u64)> = seeds.iter().map(|&s| (s, 1u64)).collect();
        assert_all_paths_agree::<Secp256k1>(&pairs, Mixed)?;
        assert_all_paths_agree::<Secp256r1>(&pairs, Mixed)?;
        let (points, scalars) = terms::<Secp256r1>(&pairs, Mixed);
        let mut negated_sum = Jacobian::<Secp256r1>::identity();
        for p in &points {
            negated_sum = negated_sum.add_affine(&p.negate());
        }
        prop_assert_eq!(
            encode(msm::eval(&points, &scalars)),
            encode(negated_sum)
        );
    }
}

#[test]
fn empty_input_all_paths() {
    let points: Vec<Affine<Secp256k1>> = Vec::new();
    let scalars: Vec<Scalar<Secp256k1>> = Vec::new();
    assert!(msm::naive(&points, &scalars).is_identity());
    assert_all_paths_agree::<Secp256k1>(&[], Mixed).unwrap();
}

/// 300 terms: short openings give the 300-point table a pass of ≈ 16 k
/// field products, which one thread runs; 128-bit coefficients give it
/// ≈ 36 k, over the split threshold, so on a machine with more than one
/// core its buckets are summed in ranges on several threads. Both must be
/// naive's bytes.
#[test]
fn three_hundred_terms_either_side_of_the_split_all_paths() {
    let pairs: Vec<(u64, u64)> = (1..=300u64)
        .map(|i| (i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    assert_all_paths_agree::<Secp256k1>(&pairs, ShortSigned).unwrap();
    assert_all_paths_agree::<Secp256k1>(&pairs, Coefficient128).unwrap();
    assert_all_paths_agree::<Secp256r1>(&pairs, Coefficient128).unwrap();
}

fn seeded_points<C: Curve>(n: usize, seed: u64) -> Vec<Affine<C>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Affine::<C>::random(&mut rng)).collect()
}

/// What meets in the interleaved kernel's one accumulator. `P, P` with
/// equal scalars adds a multiple to itself at their first digit (the
/// doubling branch of `add_affine`), `P, −P` cancels to the identity there
/// and the chain carries on from it, an identity point contributes rows of
/// identities, and a zero scalar no digit at all.
fn colliding_terms_agree<C: Curve>() {
    let [p, q, r] = seeded_points::<C>(3, 0xC0111DE)[..] else {
        unreachable!("three points were asked for")
    };
    let id = Affine::<C>::identity();
    let points = [p, p, q, q.negate(), id, r, p.negate(), r, id];
    for family in [ShortSigned, Coefficient128, AnyLength] {
        let [a, b, c] = [11u64, 12, 13].map(|code| family.scalar::<C>(code));
        let zero = Scalar::<C>::ZERO;
        for scalars in [
            [a, a, b, b, c, zero, a, c, zero],
            [a, -a, b, -b, a, c, a, c, b],
            [zero; 9],
        ] {
            for n in [1, 2, 4, 9] {
                assert_terms_agree(&points[..n], &scalars[..n]).unwrap();
            }
        }
    }
}

#[test]
fn colliding_points_identities_and_zero_scalars_all_paths() {
    colliding_terms_agree::<Secp256k1>();
    colliding_terms_agree::<Secp256r1>();
}

/// The sizes either side of `msm::eval`'s switch (n < 32 walks, n ≥ 32
/// buckets), with every length in each call.
#[test]
fn sizes_around_the_untabled_switch_all_paths() {
    for n in [0u64, 1, 2, 31, 32] {
        let pairs: Vec<(u64, u64)> = (1..=n)
            .map(|i| (i, i.wrapping_mul(0xA24B_AED4_963E_E407)))
            .collect();
        assert_all_paths_agree::<Secp256k1>(&pairs, AnyLength).unwrap();
        assert_all_paths_agree::<Secp256r1>(&pairs, Coefficient128).unwrap();
    }
}

/// `MsmTable::memory_bytes` of a table that keeps `per_base` points a base.
fn table_bytes<C: Curve>(table: &MsmTable<C>, per_base: usize) -> usize {
    table.len() * per_base * std::mem::size_of::<Affine<C>>()
}

/// A d = 33 table keeps the odd multiples and walks them for short scalars,
/// up to ≈ 90 bits; beyond, the same table answers from its buckets. Every
/// length must give naive's bytes, and the walk's answer must be the bucket
/// pass's: a 600-point table keeps no odd multiples, so its 33-element
/// prefix evaluation is the bucket pass over the same bases.
#[test]
fn d33_table_agrees_either_side_of_the_selection_rule() {
    let points = seeded_points::<Secp256k1>(600, 33);
    let small = MsmTable::build(&points[..33]);
    let large = MsmTable::build(&points);
    let shifts = |t: &MsmTable<Secp256k1>| 256usize.div_ceil(t.window());
    assert_eq!(
        small.memory_bytes(),
        table_bytes(&small, shifts(&small) + 8)
    );
    assert_eq!(large.memory_bytes(), table_bytes(&large, shifts(&large)));
    for width in [1, 8, 25, 40, 64, 80, 88, 92, 96, 128, 170, 255] {
        let scalars: Vec<Scalar<Secp256k1>> = (0..33)
            .map(|i| {
                of_width::<Secp256k1>(
                    if i == 0 { width } else { 1 + i % width },
                    1000 * width as u64 + i as u64,
                )
            })
            .collect();
        assert_terms_agree(&points[..33], &scalars).unwrap();
        assert_eq!(
            encode(small.eval(&scalars)),
            encode(large.eval(&scalars)),
            "walk and bucket pass differ at {width} bits"
        );
    }
}

/// 198 terms: the largest table that still keeps odd multiples. From 199
/// bases a pass over the 255 buckets — priced with the two-level running
/// sum it runs — beats the walk even on 25-bit scalars. On scalars short
/// enough the 198-base table walks them on one thread; on full-width ones
/// it takes a bucket pass of ≈ 44 k field products, which splits across
/// cores.
#[test]
fn largest_walking_table_walks_short_scalars_and_splits_long_ones() {
    let points = seeded_points::<Secp256r1>(199, 256);
    let shifts = |t: &MsmTable<Secp256r1>| 256usize.div_ceil(t.window());
    let beyond = MsmTable::build(&points);
    assert_eq!(beyond.memory_bytes(), table_bytes(&beyond, shifts(&beyond)));
    let points = &points[..198];
    let table = MsmTable::build(points);
    assert_eq!(
        table.memory_bytes(),
        table_bytes(&table, shifts(&table) + 8)
    );
    let short: fn(usize) -> usize = |i| 1 + i % 16;
    for width in [short, |_| 255] {
        let scalars: Vec<Scalar<Secp256r1>> = (0..198)
            .map(|i| of_width::<Secp256r1>(width(i), i as u64))
            .collect();
        assert_terms_agree(points, &scalars).unwrap();
    }
}

/// The fixed-point integers at every edge a digit read can get wrong:
/// zero, ±1, either side of one 12-bit window and of two, a value in the
/// fourth window, and the ends of the `i64` range.
const EDGE_INTEGERS: [i64; 15] = [
    0,
    1,
    -1,
    (1 << 12) - 1,
    -((1 << 12) - 1),
    1 << 12,
    -(1 << 12),
    (1 << 24) - 1,
    -((1 << 24) - 1),
    1 << 24,
    -(1 << 24),
    1 << 36,
    -(1 << 36),
    i64::MAX,
    i64::MIN,
];

/// Three `width`-element integer vectors: the edges in turn, every one
/// negative, and all zero.
fn edge_vectors(width: usize) -> [Vec<Quantized>; 3] {
    let edge = |i: usize| EDGE_INTEGERS[i % EDGE_INTEGERS.len()];
    let negative = |v: i64| if v > 0 { -v } else { v.min(-1) };
    [
        (0..width).map(|i| Quantized(edge(i))).collect(),
        (0..width).map(|i| Quantized(negative(edge(i)))).collect(),
        vec![Quantized(0); width],
    ]
}

/// On a `width`-generator key without a table and with one, each edge
/// vector commits to its embedding's `Scalar`-path commitment — and to
/// `commit_naive`'s, where `naive` — and verifies against it; a vector one
/// longer than the key verifies against nothing.
fn integer_commitments_agree<C: Curve>(width: usize, naive: bool) {
    let mut key = CommitKey::<C>::setup(width, b"msm-equivalence-integers");
    let plain = key.clone();
    key.precompute();
    for values in edge_vectors(width) {
        let scalars = to_scalars::<C>(&values);
        let expect = plain.commit(&scalars);
        if naive {
            assert_eq!(expect, plain.commit_naive(&scalars), "naive, d = {width}");
        }
        for (name, key) in [("plain", &plain), ("table", &key)] {
            let got = key.commit(&values);
            assert_eq!(got.to_bytes(), expect.to_bytes(), "{name}, d = {width}");
            assert!(key.verify(&values, &expect), "{name}, d = {width}");
            assert!(!key.verify(&values[1..], &expect) || values.iter().all(|v| v.0 == 0));
        }
    }
    let overlong = vec![Quantized(1); width + 1];
    assert!(!plain.verify(&overlong, &plain.commit(&overlong[..width])));
    assert!(!key.verify(&overlong, &key.commit(&overlong[..width])));
}

#[test]
fn integer_commit_and_verify_equal_the_scalar_path_and_naive() {
    for width in [1, 32, 33, 257] {
        integer_commitments_agree::<Secp256k1>(width, true);
        integer_commitments_agree::<Secp256r1>(width, true);
    }
}

/// The protocol's key width, whose table passes split across cores. The
/// `Scalar` path is held to `commit_naive` at this width by the kernels'
/// own suites; naive over 8 193 terms would dominate the test's time.
#[test]
fn integer_commit_and_verify_equal_the_scalar_path_at_the_protocol_width() {
    integer_commitments_agree::<Secp256k1>(8193, false);
    integer_commitments_agree::<Secp256r1>(8193, false);
}
