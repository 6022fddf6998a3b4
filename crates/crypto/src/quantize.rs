//! Fixed-point quantization of gradient values into commitment scalars.
//!
//! Pedersen commitments operate over a prime field, while gradients are
//! floating-point vectors. To make commitment addition match gradient
//! addition, each `f32` is scaled by `2^FRACTIONAL_BITS`, rounded to an
//! integer, and embedded into the scalar field with negatives mapped to
//! `n - |v|`. Field addition then agrees with signed fixed-point addition as
//! long as accumulated magnitudes stay far below `n / 2` — trivially true
//! for any realistic number of trainers, since `n ≈ 2^256` and each term is
//! below `2^63`.
//!
//! The protocol commits to the integers themselves: a [`Quantized`] is a
//! [`crate::msm::Multiplier`], whose digits the MSM kernels read straight
//! from its sign and `|v|`, negating the generator for a negative value. So
//! a negative coordinate costs what the positive one of equal magnitude
//! does, and no value is embedded to be committed to. The commitment is the
//! one to the embedding [`to_scalars`]: `n − |v|` is a full 256-bit
//! canonical scalar, but its centred representative is the same sign and
//! `|v|` ([`Quantized::from_scalar`]).
//!
//! Aggregators sum *quantized* values, the directory verifies commitments
//! over the same quantized domain, and trainers dequantize after download,
//! so the verifiable path and the numeric path can never diverge. The range
//! rule ([`BOUND`]) keeps every sum of the protocol inside `i64`, where the
//! integer sum and the commitments' sum are the same number.

use crate::bigint::U256;
use crate::curve::{Curve, Scalar};
use crate::field::{FieldParams, Fp};

/// Number of fractional bits in the fixed-point representation.
///
/// 24 bits keeps quantization error below `6e-8` per element while leaving
/// ~38 bits of integer headroom inside an `i64` before field embedding.
pub const FRACTIONAL_BITS: u32 = 24;

/// Scale factor `2^FRACTIONAL_BITS`.
pub const SCALE: f64 = (1u64 << FRACTIONAL_BITS) as f64;

/// The most contributions one vector may stand for: no task has more
/// trainers, so no sum of the protocol — a partial, a merged reply, an
/// update — counts more.
pub const MAX_CONTRIBUTIONS: usize = 1 << 20;

/// The largest magnitude of an element of one contribution: 2⁴³ − 1, which
/// is ± 524 288 in real units.
///
/// This is the range rule. A vector standing for `n` contributions is
/// admissible when every element, counter included, lies within
/// ± n · `BOUND` ([`admissible`]). Any sum of admissible vectors whose `n`s
/// total at most [`MAX_CONTRIBUTIONS`] then lies within ± `i64::MAX`, so
/// plain `i64` addition is exact in any order, and it equals the sum the
/// commitments add mod the group order.
pub const BOUND: i64 = i64::MAX / MAX_CONTRIBUTIONS as i64;

/// One contribution's quantization of `v`: [`Quantized::from_f64`] clamped
/// into ± [`BOUND`], computed in one clamp, one add and one cast.
///
/// For an `f32`, `x = v · SCALE` is exact in `f64`. Within ± `BOUND`,
/// `x ± 0.5` is exact too when `|x| ≥ 2⁻²⁹` (an `f32`'s 24 significant
/// bits and 2⁻¹ fit in 53), and below that it rounds to within 2⁻²⁹ of
/// ± 0.5. So truncating it toward zero rounds ties away from zero, as
/// `from_f64` does, and NaN casts to 0 in both. The cast truncates; not
/// `f64::trunc`, which on baseline x86-64 is a call into libm.
#[inline]
pub fn quantize_clamped(v: f32) -> Quantized {
    let x = (v as f64 * SCALE).clamp(-(BOUND as f64), BOUND as f64);
    Quantized((x + 0.5f64.copysign(x)) as i64)
}

/// A quantized gradient value: a signed fixed-point integer.
///
/// Kept as an explicit newtype so protocol code can sum gradients cheaply in
/// the integer domain (what IPFS merge nodes do) and commit to them as they
/// are; only a random linear combination embeds them into the field.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Quantized(pub i64);

impl Quantized {
    /// Quantizes an `f32` (or any value convertible to `f64`): `v · SCALE`
    /// rounded to the nearest integer, ties away from zero — what
    /// `f64::round` computes, without the call into libm that `round`
    /// compiles to on x86-64 (this runs once per parameter per round).
    ///
    /// Below 2⁶² the cast truncates without saturating, and the remainder
    /// `x − trunc(x)` is exact: it is zero from 2⁵² up, where every `f64`
    /// is an integer, and below that it lies on `x`'s own grid of
    /// representable values with a smaller magnitude than `x`. Comparing
    /// an exact remainder with ± 0.5 decides exactly as `round` does.
    #[inline]
    pub fn from_f64(v: f64) -> Quantized {
        const CAST_IS_EXACT_BELOW: f64 = (1u64 << 62) as f64;
        let x = v * SCALE;
        if x.abs() < CAST_IS_EXACT_BELOW {
            let truncated = x as i64;
            let frac = x - truncated as f64;
            Quantized(truncated + (frac >= 0.5) as i64 - (frac <= -0.5) as i64)
        } else {
            // An integer already, ± ∞ or NaN: the definition itself.
            Quantized(x.round() as i64)
        }
    }

    /// Recovers the real value.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / SCALE
    }

    /// Embeds the signed value into the scalar field of curve `C`.
    #[inline]
    pub fn to_scalar<C: Curve>(self) -> Scalar<C> {
        Fp::from_i64(self.0)
    }

    /// Extracts a signed value back out of a field element, interpreting
    /// canonical values above `n/2` as negative. Returns `None` if the
    /// magnitude does not fit in an `i64` (which honest protocol data never
    /// produces).
    pub fn from_scalar<C: Curve>(s: &Scalar<C>) -> Option<Quantized> {
        let (negative, magnitude) = s.to_centred();
        let v = i64::try_from(magnitude.to_u128()?).ok()?;
        Some(Quantized(if negative { -v } else { v }))
    }
}

/// Quantizes a slice of `f32` gradient values.
pub fn quantize_vector(values: &[f32]) -> Vec<Quantized> {
    values
        .iter()
        .map(|&v| Quantized::from_f64(v as f64))
        .collect()
}

/// Dequantizes back to `f32`.
pub fn dequantize_vector(values: &[Quantized]) -> Vec<f32> {
    values.iter().map(|q| q.to_f64() as f32).collect()
}

/// Whether `values`, standing for `n` contributions, are admissible: `n` is
/// at most [`MAX_CONTRIBUTIONS`] and every element lies within
/// ± n · [`BOUND`].
///
/// Every intake runs this over a whole blob, so it first ORs the elements'
/// ones'-complement magnitudes (`|v|` for `v ≥ 0`, `|v| − 1` below), which
/// vectorises where a maximum of 64-bit values does not. The OR is at
/// least every one of them, so below the limit it settles the question;
/// only at or above it are the magnitudes compared one by one.
pub fn admissible<I>(values: I, n: usize) -> bool
where
    I: IntoIterator<Item = Quantized>,
    I::IntoIter: Clone,
{
    if n > MAX_CONTRIBUTIONS {
        return false;
    }
    let mut values = values.into_iter();
    let limit = n as u64 * BOUND as u64;
    let ored = values
        .clone()
        .fold(0, |or, q| or | (q.0 ^ (q.0 >> 63)) as u64);
    ored < limit || values.all(|q| q.0.unsigned_abs() <= limit)
}

/// Embeds a quantized vector into the scalar field: the field elements a
/// commitment to the integers opens to.
pub fn to_scalars<C: Curve>(values: &[Quantized]) -> Vec<Scalar<C>> {
    values.iter().map(|q| q.to_scalar::<C>()).collect()
}

/// Serializes a quantized vector to little-endian bytes (8 per element);
/// the wire format gradients travel in over the storage network.
pub fn encode(values: &[Quantized]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for q in values {
        out.extend_from_slice(&q.0.to_le_bytes());
    }
    out
}

/// Deserializes a quantized vector; `None` if the length is not a multiple
/// of 8 bytes.
pub fn decode(bytes: &[u8]) -> Option<Vec<Quantized>> {
    let (words, rest) = bytes.as_chunks::<8>();
    if !rest.is_empty() {
        return None;
    }
    Some(
        words
            .iter()
            .map(|w| Quantized(i64::from_le_bytes(*w)))
            .collect(),
    )
}

/// The largest canonical scalar considered "positive" when decoding; kept
/// public so tests can probe the boundary.
pub fn positive_bound<C: Curve>() -> U256 {
    <C::Scalar as FieldParams>::MODULUS.shr(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::Secp256k1;
    use crate::pedersen::CommitKey;
    use proptest::prelude::*;

    type C = Secp256k1;

    /// The definition [`Quantized::from_f64`] replaced, kept as its oracle.
    fn from_f64_by_libm(v: f64) -> i64 {
        (v * SCALE).round() as i64
    }

    #[track_caller]
    fn assert_rounds_as_libm(v: f64) {
        let bits = v.to_bits();
        assert_eq!(
            Quantized::from_f64(v).0,
            from_f64_by_libm(v),
            "v = {v:e} (bits {bits:#018x})"
        );
        assert_eq!(Quantized::from_f64(-v).0, from_f64_by_libm(-v), "-{v:e}");
    }

    /// `x / SCALE` and its neighbours one and two ulps either side — exact
    /// for every `x` the tie tables use, so `from_f64` sees `x` itself.
    fn around(x: f64) -> [f64; 5] {
        let v = x / SCALE;
        let step = |bits: u64, by: i64| f64::from_bits(bits.wrapping_add_signed(by));
        [-2, -1, 0, 1, 2].map(|by| step(v.to_bits(), by))
    }

    #[test]
    fn from_f64_ties_round_away_from_zero() {
        // k + 0.5 exists as an f64 up to 2⁵²; from 2⁵² to 2⁵³ the grid is
        // the integers, beyond it the even ones.
        for shift in 0..=53u32 {
            for k in [(1u64 << shift) - 1, 1 << shift, (1 << shift) + 1] {
                for x in [k as f64 + 0.5, k as f64, k as f64 - 0.5] {
                    around(x).into_iter().for_each(assert_rounds_as_libm);
                }
            }
        }
        for k in 0..4096u32 {
            assert_rounds_as_libm((k as f64 + 0.5) / SCALE);
        }
        assert_eq!(Quantized::from_f64(0.5 / SCALE), Quantized(1));
        assert_eq!(Quantized::from_f64(-0.5 / SCALE), Quantized(-1));
        assert_eq!(Quantized::from_f64(2.5 / SCALE), Quantized(3));
        assert_eq!(Quantized::from_f64(-2.5 / SCALE), Quantized(-3));
        // The largest f64 below one half must not round up: adding 0.5 and
        // truncating (the folklore shortcut) gets this one wrong.
        let below_half = 0.499_999_999_999_999_94_f64;
        assert_eq!(below_half.to_bits(), 0.5f64.to_bits() - 1);
        assert_eq!(Quantized::from_f64(below_half / SCALE), Quantized(0));
        assert_eq!(Quantized::from_f64(-below_half / SCALE), Quantized(0));
    }

    #[test]
    fn from_f64_edges_of_the_domain() {
        for v in [
            0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),             // smallest subnormal
            f64::from_bits((1 << 52) - 1), // largest subnormal
            f32::MIN_POSITIVE as f64,
            f32::from_bits(1) as f64,
            f32::MAX as f64,
            f64::MAX,
            f64::INFINITY,
            f64::EPSILON,
            i64::MAX as f64,
            i64::MAX as f64 / SCALE,
        ] {
            assert_rounds_as_libm(v);
        }
        assert_eq!(Quantized::from_f64(-0.0), Quantized(0));
        assert_eq!(Quantized::from_f64(f64::NAN), Quantized(0));
        assert_eq!(from_f64_by_libm(f64::NAN), 0);
        assert_eq!(Quantized::from_f64(f64::INFINITY), Quantized(i64::MAX));
        assert_eq!(Quantized::from_f64(f64::NEG_INFINITY), Quantized(i64::MIN));
        // Both sides of the hand-over to `round`, and of the i64 range.
        for x in [
            (1u64 << 62) as f64,
            (1u64 << 63) as f64,
            2.0 * (1u64 << 63) as f64,
        ] {
            around(x).into_iter().for_each(assert_rounds_as_libm);
        }
        // Every f32 exponent, at three mantissas.
        for exponent in 0..=255u32 {
            for mantissa in [0, 1, 0x40_0000, 0x7f_ffff] {
                let v = f32::from_bits(exponent << 23 | mantissa);
                assert_rounds_as_libm(v as f64);
            }
        }
    }

    #[test]
    fn round_trip_exact_values() {
        for v in [-1.0f64, 0.0, 1.0, 0.5, -0.25, 1234.0, -4096.5] {
            let q = Quantized::from_f64(v);
            assert_eq!(q.to_f64(), v, "value {v} should be exactly representable");
        }
    }

    #[test]
    fn quantization_error_bounded() {
        for v in [
            0.1f64,
            -0.3,
            std::f64::consts::PI,
            -std::f64::consts::E,
            1e-6,
        ] {
            let err = (Quantized::from_f64(v).to_f64() - v).abs();
            assert!(err <= 0.5 / SCALE, "error {err} too large for {v}");
        }
    }

    #[test]
    fn scalar_embedding_round_trip() {
        for raw in [0i64, 1, -1, 42, -42, i64::MAX / 2, i64::MIN / 2] {
            let q = Quantized(raw);
            let s = q.to_scalar::<C>();
            assert_eq!(Quantized::from_scalar::<C>(&s), Some(q), "raw={raw}");
        }
    }

    #[test]
    fn scalar_addition_matches_integer_addition() {
        let a = Quantized::from_f64(1.5);
        let b = Quantized::from_f64(-2.25);
        let s = a.to_scalar::<C>() + b.to_scalar::<C>();
        assert_eq!(Quantized::from_scalar::<C>(&s), Some(Quantized(a.0 + b.0)));
        assert_eq!(Quantized::from_scalar::<C>(&s).unwrap().to_f64(), -0.75);
    }

    #[test]
    fn huge_scalar_rejected() {
        // A scalar of magnitude ~2^200 does not fit in i64.
        let big = Scalar::<C>::from_canonical(U256::from_u64(1).shl(200));
        assert_eq!(Quantized::from_scalar::<C>(&big), None);
    }

    /// The element-wise sum of `vectors`, as `i64` addition.
    fn sum(vectors: &[Vec<Quantized>]) -> Vec<Quantized> {
        let add = |a: Vec<Quantized>, b: &Vec<Quantized>| {
            a.iter().zip(b).map(|(x, y)| Quantized(x.0 + y.0)).collect()
        };
        vectors[1..].iter().fold(vectors[0].clone(), add)
    }

    #[test]
    fn quantized_vectors_add_element_wise() {
        let vs = vec![
            quantize_vector(&[1.0, 2.0, 3.0]),
            quantize_vector(&[0.5, -1.0, 0.0]),
            quantize_vector(&[-0.25, 0.25, 1.0]),
        ];
        let real = dequantize_vector(&sum(&vs));
        assert_eq!(real, vec![1.25, 1.25, 4.0]);
    }

    #[test]
    fn the_range_rule_bounds_every_sum_inside_i64() {
        assert_eq!(BOUND, (1 << 43) - 1);
        assert_eq!(Quantized(BOUND).to_f64(), 524_288.0 - 1.0 / SCALE);
        // The largest admissible sum fits, at both ends.
        let most = MAX_CONTRIBUTIONS as i64;
        assert!(most.checked_mul(BOUND).is_some());
        assert!(most.checked_mul(-BOUND).is_some());
        for n in [1, 2, 7, MAX_CONTRIBUTIONS] {
            let edge = n as i64 * BOUND;
            for v in [0, 1, -1, edge, -edge] {
                assert!(admissible([Quantized(v)], n), "{v} for {n}");
            }
            for v in [edge + 1, -edge - 1, i64::MAX, i64::MIN] {
                assert!(!admissible([Quantized(v)], n), "{v} for {n}");
            }
        }
        // Nothing stands for more contributions than a task may have.
        assert!(!admissible([Quantized(0)], MAX_CONTRIBUTIONS + 1));
        assert!(admissible([], 1));
        // One contribution's counter (1.0) is admissible.
        assert!(admissible(quantize_vector(&[1.0]), 1));
    }

    /// The definition [`quantize_clamped`] computes: the rounding oracle,
    /// then the clamp.
    fn quantize_clamped_by_definition(v: f32) -> Quantized {
        Quantized(Quantized::from_f64(v as f64).0.clamp(-BOUND, BOUND))
    }

    #[track_caller]
    fn assert_quantizes_clamped(bits: u32) {
        let v = f32::from_bits(bits);
        assert_eq!(
            quantize_clamped(v),
            quantize_clamped_by_definition(v),
            "v = {v:e} (bits {bits:#010x})"
        );
    }

    #[test]
    fn clamping_keeps_one_contribution_in_range() {
        let bound = Quantized(BOUND).to_f64() as f32;
        for (v, clamped) in [
            (0.0, 0),
            (-0.0, 0),
            (f32::NAN, 0),
            (-f32::NAN, 0),
            (f32::INFINITY, BOUND),
            (f32::NEG_INFINITY, -BOUND),
            (f32::MAX, BOUND),
            (f32::MIN, -BOUND),
            (bound, BOUND),
            (-bound, -BOUND),
            (1.0, SCALE as i64),
            (0.5 / SCALE as f32, 1),
            (-0.5 / SCALE as f32, -1),
            (2.5 / SCALE as f32, 3),
        ] {
            assert_eq!(quantize_clamped(v), Quantized(clamped), "{v:e}");
            assert!(admissible([quantize_clamped(v)], 1));
        }
    }

    /// Every 2¹²-th `f32` bit pattern, and the edges: zeros, subnormals,
    /// the bound and the ties either side of it, NaNs and ± ∞.
    #[test]
    fn quantize_clamped_is_its_definition_on_sampled_f32s() {
        for bits in (0..=u32::MAX).step_by(1 << 12) {
            assert_quantizes_clamped(bits);
            assert_quantizes_clamped(bits | 0xfff);
        }
        let bound = (BOUND as f64 / SCALE) as f32;
        let near = |v: f32| (0..=8).map(move |k| v.to_bits() - 4 + k);
        let ties = (0..64u32).map(|k| ((k as f32 + 0.5) / SCALE as f32).to_bits());
        let edges = [
            0,
            1,
            0x7f_ffff,
            0x80_0000,
            0x7f80_0000,
            0x7fc0_0000,
            0x7f80_0001,
        ];
        for bits in near(bound)
            .chain(near(0.5 / SCALE as f32))
            .chain(ties)
            .chain(edges)
        {
            assert_quantizes_clamped(bits);
            assert_quantizes_clamped(bits | 1 << 31);
        }
    }

    /// All 2³² `f32` bit patterns: about 30 s optimised. CI's release step
    /// runs it (`-- --ignored quantize_clamped_is_its_definition_on_every_f32`).
    #[test]
    #[ignore]
    fn quantize_clamped_is_its_definition_on_every_f32() {
        (0..=u32::MAX).for_each(assert_quantizes_clamped);
    }

    #[test]
    fn encode_decode_round_trip() {
        let v = quantize_vector(&[0.0, 1.5, -3.25, 1e4]);
        assert_eq!(decode(&encode(&v)), Some(v));
        assert_eq!(decode(&[1, 2, 3]), None);
        assert_eq!(decode(&[]), Some(Vec::new()));
    }

    #[test]
    fn commitment_respects_quantized_sum() {
        // The end-to-end property the protocol relies on: committing to each
        // trainer's quantized gradient and combining equals committing to the
        // quantized sum.
        let key = CommitKey::<C>::setup(4, b"q");
        let g1 = quantize_vector(&[0.5, -1.0, 2.0, 0.0]);
        let g2 = quantize_vector(&[1.5, 1.0, -2.0, 3.0]);
        let c1 = key.commit(&to_scalars::<C>(&g1));
        let c2 = key.commit(&to_scalars::<C>(&g2));
        let sum = sum(&[g1, g2]);
        assert_eq!(c1.combine(&c2), key.commit(&to_scalars::<C>(&sum)));
    }

    proptest! {
        #[test]
        fn prop_embedding_round_trip(raw in any::<i64>()) {
            // saturating domain: avoid i64::MIN whose abs overflows
            prop_assume!(raw != i64::MIN);
            let q = Quantized(raw);
            prop_assert_eq!(Quantized::from_scalar::<C>(&q.to_scalar::<C>()), Some(q));
        }

        #[test]
        fn prop_field_add_matches_i128_add(a in -(1i64<<40)..(1i64<<40), b in -(1i64<<40)..(1i64<<40)) {
            let s = Quantized(a).to_scalar::<C>() + Quantized(b).to_scalar::<C>();
            prop_assert_eq!(Quantized::from_scalar::<C>(&s), Some(Quantized(a + b)));
        }

        #[test]
        fn prop_from_f64_rounds_as_libm(bits in any::<u64>(), single in any::<u32>(), unit in any::<i64>()) {
            // Raw bit patterns reach every exponent, NaN payloads included.
            let v = f64::from_bits(bits);
            prop_assert_eq!(Quantized::from_f64(v).0, from_f64_by_libm(v), "bits {:#018x}", bits);
            let v = f32::from_bits(single) as f64;
            prop_assert_eq!(Quantized::from_f64(v).0, from_f64_by_libm(v), "f32 bits {:#010x}", single);
            // And where gradients live: a few units of fixed point, at a tie
            // or one ulp off it.
            let x = (unit >> 12) as f64 + 0.5;
            for v in around(x) {
                prop_assert_eq!(Quantized::from_f64(v).0, from_f64_by_libm(v), "around {:e}", x);
            }
        }

        #[test]
        fn prop_admissible_is_its_definition(
            raw in proptest::collection::vec(any::<i64>(), 0..8),
            shift in 0..64u32,
            small in 0..8usize,
            large in 0..(2 * MAX_CONTRIBUTIONS),
            pick in any::<bool>(),
        ) {
            // Magnitudes on every scale, either side of each limit.
            let values: Vec<Quantized> = raw.iter().map(|v| Quantized(v >> shift)).collect();
            let n = if pick { small } else { large };
            let limit = n as i128 * BOUND as i128;
            let within = values.iter().all(|q| (q.0 as i128).abs() <= limit);
            let definition = n <= MAX_CONTRIBUTIONS && within;
            prop_assert_eq!(admissible(values.iter().copied(), n), definition);
        }

        #[test]
        fn prop_encode_decode(vals in proptest::collection::vec(any::<i64>(), 0..64)) {
            let v: Vec<Quantized> = vals.into_iter().map(Quantized).collect();
            prop_assert_eq!(decode(&encode(&v)), Some(v));
        }
    }
}
