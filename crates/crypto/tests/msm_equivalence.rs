//! Property tests: every MSM kernel — wNAF, Jacobian Pippenger,
//! batch-affine Pippenger, the precomputed table, and (with the `rayon`
//! feature) the parallel reductions — must be *bit-identical* to the naive
//! double-and-add reference, on both protocol curves.
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

use dfl_crypto::bigint::U256;
use dfl_crypto::curve::{Affine, Curve, Jacobian, Scalar, Secp256k1, Secp256r1};
use dfl_crypto::field::FieldParams;
use dfl_crypto::msm::{Msm, MsmTable, Strategy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
}

use Family::{Boundary, Coefficient128, Mixed, ShortSigned};

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

/// Asserts every kernel — each `Strategy`, with and without a table —
/// matches naive on this instance, byte for byte.
fn assert_all_paths_agree<C: Curve>(
    pairs: &[(u64, u64)],
    family: Family,
) -> Result<(), TestCaseError> {
    let (points, scalars) = terms::<C>(pairs, family);
    let reference = encode(
        Msm::new(&points)
            .with_strategy(Strategy::Naive)
            .eval(&scalars),
    );
    for strategy in [
        Strategy::Wnaf,
        Strategy::Pippenger,
        Strategy::BatchAffine,
        Strategy::Auto,
    ] {
        prop_assert_eq!(
            encode(Msm::new(&points).with_strategy(strategy).eval(&scalars)),
            reference,
            "{:?} diverges from naive on {} ({} terms)",
            strategy,
            C::NAME,
            points.len()
        );
    }

    let table = MsmTable::build(&points);
    for strategy in [
        Strategy::Naive,
        Strategy::Wnaf,
        Strategy::Pippenger,
        Strategy::BatchAffine,
    ] {
        prop_assert_eq!(
            encode(
                Msm::new(&points)
                    .with_table(&table)
                    .with_strategy(strategy)
                    .eval(&scalars)
            ),
            reference,
            "{:?} with a table attached diverges from naive on {}",
            strategy,
            C::NAME
        );
    }
    prop_assert_eq!(
        encode(table.eval_parallel(&scalars, false)),
        reference,
        "table path diverges from naive on {}",
        C::NAME
    );
    prop_assert_eq!(
        encode(Msm::new(&points).with_table(&table).eval(&scalars)),
        reference,
        "auto-with-table path diverges from naive on {}",
        C::NAME
    );

    #[cfg(feature = "rayon")]
    {
        prop_assert_eq!(
            encode(table.eval_parallel(&scalars, true)),
            reference,
            "parallel table path not bit-identical on {}",
            C::NAME
        );
        prop_assert_eq!(
            encode(
                Msm::new(&points)
                    .with_strategy(Strategy::BatchAffine)
                    .with_parallel(true)
                    .eval(&scalars)
            ),
            reference,
            "parallel batch-affine path not bit-identical on {}",
            C::NAME
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
    fn prop_all_zero_scalars_give_identity(
        seeds in proptest::collection::vec(1u64..u64::MAX, 1..20),
    ) {
        // scalar_code 0 → Scalar::ZERO for every term.
        let pairs: Vec<(u64, u64)> = seeds.iter().map(|&s| (s, 0u64)).collect();
        assert_all_paths_agree::<Secp256k1>(&pairs, Mixed)?;
        assert_all_paths_agree::<Secp256r1>(&pairs, Mixed)?;
        let (points, scalars) = terms::<Secp256k1>(&pairs, Mixed);
        prop_assert!(Msm::new(&points).eval(&scalars).is_identity());
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
            encode(Msm::new(&points).eval(&scalars)),
            encode(negated_sum)
        );
    }
}

#[test]
fn empty_input_all_paths() {
    let points: Vec<Affine<Secp256k1>> = Vec::new();
    let scalars: Vec<Scalar<Secp256k1>> = Vec::new();
    for strategy in [
        Strategy::Naive,
        Strategy::Wnaf,
        Strategy::Pippenger,
        Strategy::BatchAffine,
        Strategy::Auto,
    ] {
        assert!(
            Msm::new(&points)
                .with_strategy(strategy)
                .eval(&scalars)
                .is_identity(),
            "{strategy:?}"
        );
    }
    assert!(MsmTable::build(&points).eval(&scalars).is_identity());
}

/// Above `2 · MIN_PARALLEL_CHUNK` terms the `rayon` build really splits
/// the vector, so each chunk finds its own longest magnitude: the fold of
/// differently-truncated chunks must still be the serial bytes. Without
/// the feature this is one more serial instance at a size the property
/// tests do not reach.
#[test]
fn three_hundred_short_terms_all_paths() {
    let pairs: Vec<(u64, u64)> = (1..=300u64)
        .map(|i| (i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    assert_all_paths_agree::<Secp256k1>(&pairs, ShortSigned).unwrap();
    assert_all_paths_agree::<Secp256r1>(&pairs, Coefficient128).unwrap();
}
