//! Prime-field arithmetic in Montgomery form, generic over the modulus.
//!
//! Both secp256k1 and secp256r1 need a base field (coordinates) and a scalar
//! field (exponents); all four are instances of [`Fp`] with a different
//! [`FieldParams`] marker type. All Montgomery pre-computation (R, R², −p⁻¹
//! mod 2⁶⁴) is derived from the modulus at compile time, so defining a new
//! field is a three-line impl.

use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::bigint::U256;

/// Compile-time parameters of a prime field.
///
/// Implementors only provide [`FieldParams::MODULUS`] (which must be an odd
/// prime with its top bit set, true for all secp256* primes and orders) and a
/// display name; the Montgomery constants are derived automatically.
pub trait FieldParams:
    'static + Copy + Clone + fmt::Debug + PartialEq + Eq + Hash + Send + Sync
{
    /// The field modulus `p` (odd prime, `p > 2^255`).
    const MODULUS: U256;
    /// Human-readable field name used in `Debug` output.
    const NAME: &'static str;

    /// `R = 2^256 mod p`. Derived; do not override.
    const R: U256 = mont_r(&Self::MODULUS);
    /// `R² = 2^512 mod p`. Derived; do not override.
    const R2: U256 = mont_r2(&Self::MODULUS);
    /// `-p⁻¹ mod 2^64`. Derived; do not override.
    const N0: u64 = mont_n0(&Self::MODULUS);
}

/// `2^256 mod p` for `p > 2^255`: exactly `2^256 - p`.
const fn mont_r(p: &U256) -> U256 {
    assert!(p.bit(255), "modulus must have the top bit set");
    U256::ZERO.wrapping_sub(p)
}

/// `2^512 mod p`, computed as R doubled 256 times modulo p.
const fn mont_r2(p: &U256) -> U256 {
    let mut r = mont_r(p);
    let mut i = 0;
    while i < 256 {
        let (sum, carry) = r.adc(&r);
        // sum (+2^256 if carry) is < 2p, so a single subtraction reduces it.
        r = if carry || sum.const_cmp(p) >= 0 {
            sum.wrapping_sub(p)
        } else {
            sum
        };
        i += 1;
    }
    r
}

/// `-p⁻¹ mod 2^64` via Newton iteration on the low limb (p must be odd).
const fn mont_n0(p: &U256) -> u64 {
    let p0 = p.limbs()[0];
    assert!(p0 & 1 == 1, "modulus must be odd");
    // Newton: inv_{k+1} = inv_k * (2 - p0 * inv_k); doubles correct bits.
    let mut inv: u64 = 1;
    let mut i = 0;
    while i < 6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(p0.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
}

/// Montgomery multiplication `a * b * R⁻¹ mod p` (CIOS, 4 limbs).
const fn mont_mul(a: &U256, b: &U256, p: &U256, n0: u64) -> U256 {
    let al = a.limbs();
    let bl = b.limbs();
    let pl = p.limbs();
    let mut t = [0u64; 6];
    let mut i = 0;
    while i < 4 {
        // t += a[i] * b
        let mut carry = 0u64;
        let mut j = 0;
        while j < 4 {
            let s = t[j] as u128 + al[i] as u128 * bl[j] as u128 + carry as u128;
            t[j] = s as u64;
            carry = (s >> 64) as u64;
            j += 1;
        }
        let s = t[4] as u128 + carry as u128;
        t[4] = s as u64;
        t[5] = (s >> 64) as u64;

        // Reduce: add m*p where m makes the low limb vanish, shift right 64.
        let m = t[0].wrapping_mul(n0);
        let s = t[0] as u128 + m as u128 * pl[0] as u128;
        let mut carry = (s >> 64) as u64;
        let mut j = 1;
        while j < 4 {
            let s = t[j] as u128 + m as u128 * pl[j] as u128 + carry as u128;
            t[j - 1] = s as u64;
            carry = (s >> 64) as u64;
            j += 1;
        }
        let s = t[4] as u128 + carry as u128;
        t[3] = s as u64;
        let carry = (s >> 64) as u64;
        t[4] = t[5] + carry;
        t[5] = 0;
        i += 1;
    }
    let r = U256::from_limbs([t[0], t[1], t[2], t[3]]);
    // Result < 2p: one conditional subtraction finishes the reduction.
    if t[4] != 0 || r.const_cmp(p) >= 0 {
        r.wrapping_sub(p)
    } else {
        r
    }
}

/// An element of the prime field defined by `P`, stored in Montgomery form.
///
/// `Fp` is `Copy` and implements the usual arithmetic operators. Construct
/// elements with [`Fp::from_u64`], [`Fp::from_canonical`], or
/// [`Fp::from_i64`] (which maps negatives to `p - |v|`).
///
/// ```
/// use dfl_crypto::curve::Secp256k1Base;
/// use dfl_crypto::field::Fp;
///
/// let a = Fp::<Secp256k1Base>::from_u64(3);
/// let b = Fp::<Secp256k1Base>::from_u64(4);
/// assert_eq!(a + b, Fp::from_u64(7));
/// assert_eq!(a * b.invert().unwrap() * b, a);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Fp<P: FieldParams> {
    /// Montgomery representation: `value * R mod p`.
    mont: U256,
    _marker: PhantomData<P>,
}

impl<P: FieldParams> Fp<P> {
    /// The additive identity.
    pub const ZERO: Fp<P> = Fp {
        mont: U256::ZERO,
        _marker: PhantomData,
    };
    /// The multiplicative identity.
    pub const ONE: Fp<P> = Fp {
        mont: P::R,
        _marker: PhantomData,
    };

    /// Builds an element from a canonical integer, reducing mod p.
    pub fn from_canonical(v: U256) -> Fp<P> {
        // v < 2^256 < 2p, so one conditional subtraction canonicalizes.
        let reduced = v.reduce_once(&P::MODULUS);
        Fp {
            mont: mont_mul(&reduced, &P::R2, &P::MODULUS, P::N0),
            _marker: PhantomData,
        }
    }

    /// Builds an element from a `u64`.
    pub fn from_u64(v: u64) -> Fp<P> {
        Fp::from_canonical(U256::from_u64(v))
    }

    /// Builds an element from an `i64`, mapping negative values to `p - |v|`.
    pub fn from_i64(v: i64) -> Fp<P> {
        if v >= 0 {
            Fp::from_u64(v as u64)
        } else {
            -Fp::from_u64(v.unsigned_abs())
        }
    }

    /// Builds an element from an `i128`, mapping negatives to `p - |v|`.
    pub fn from_i128(v: i128) -> Fp<P> {
        if v >= 0 {
            Fp::from_canonical(U256::from_u128(v as u128))
        } else {
            -Fp::from_canonical(U256::from_u128(v.unsigned_abs()))
        }
    }

    /// Returns the canonical (non-Montgomery) representative in `[0, p)`.
    pub fn to_canonical(&self) -> U256 {
        mont_mul(&self.mont, &U256::ONE, &P::MODULUS, P::N0)
    }

    /// Sign and magnitude of the *centred* representative, the one in
    /// `[−(p−1)/2, (p−1)/2]`: `(false, k)` for a canonical `k ≤ (p−1)/2`,
    /// `(true, p − k)` above it. An embedded signed integer ([`Fp::from_i64`])
    /// comes back as its sign and `|v|`, so the magnitude's bit length is
    /// the value's real length, not the 256 bits of `p − |v|`.
    pub(crate) fn to_centred(self) -> (bool, U256) {
        let k = self.to_canonical();
        if k.const_cmp(&P::MODULUS.shr(1)) <= 0 {
            (false, k)
        } else {
            (true, P::MODULUS.wrapping_sub(&k))
        }
    }

    /// Serializes the canonical value as 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        self.to_canonical().to_be_bytes()
    }

    /// Deserializes from 32 big-endian bytes; `None` if the value is ≥ p.
    pub fn from_be_bytes(bytes: [u8; 32]) -> Option<Fp<P>> {
        let v = U256::from_be_bytes(bytes);
        if v.const_cmp(&P::MODULUS) >= 0 {
            None
        } else {
            Some(Fp::from_canonical(v))
        }
    }

    /// Returns `true` for the additive identity.
    pub fn is_zero(&self) -> bool {
        self.mont.is_zero()
    }

    /// Field addition (also available via the `+` operator).
    fn add_inner(&self, rhs: &Fp<P>) -> Fp<P> {
        let (sum, carry) = self.mont.adc(&rhs.mont);
        let reduced = if carry || sum.const_cmp(&P::MODULUS) >= 0 {
            sum.wrapping_sub(&P::MODULUS)
        } else {
            sum
        };
        Fp {
            mont: reduced,
            _marker: PhantomData,
        }
    }

    /// Field subtraction (also available via the `-` operator).
    fn sub_inner(&self, rhs: &Fp<P>) -> Fp<P> {
        let (diff, borrow) = self.mont.sbb(&rhs.mont);
        let reduced = if borrow {
            diff.wrapping_add(&P::MODULUS)
        } else {
            diff
        };
        Fp {
            mont: reduced,
            _marker: PhantomData,
        }
    }

    /// Additive inverse.
    pub fn negate(&self) -> Fp<P> {
        if self.is_zero() {
            *self
        } else {
            Fp {
                mont: P::MODULUS.wrapping_sub(&self.mont),
                _marker: PhantomData,
            }
        }
    }

    /// Field multiplication (also available via the `*` operator).
    fn mul_inner(&self, rhs: &Fp<P>) -> Fp<P> {
        Fp {
            mont: mont_mul(&self.mont, &rhs.mont, &P::MODULUS, P::N0),
            _marker: PhantomData,
        }
    }

    /// Squaring (currently delegates to `mul`).
    pub fn square(&self) -> Fp<P> {
        self.mul_inner(self)
    }

    /// Doubling.
    pub fn double(&self) -> Fp<P> {
        self.add_inner(self)
    }

    /// Exponentiation by a canonical 256-bit exponent (square-and-multiply).
    pub fn pow(&self, exp: &U256) -> Fp<P> {
        let mut acc = Fp::<P>::ONE;
        let bits = exp.bit_len();
        for i in (0..bits).rev() {
            acc = acc.square();
            if exp.bit(i) {
                acc = acc.mul_inner(self);
            }
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem (`x^(p-2)`).
    ///
    /// Returns `None` for zero.
    pub fn invert(&self) -> Option<Fp<P>> {
        if self.is_zero() {
            return None;
        }
        let exp = P::MODULUS.wrapping_sub(&U256::from_u64(2));
        Some(self.pow(&exp))
    }

    /// Square root for `p ≡ 3 (mod 4)` via `x^((p+1)/4)`.
    ///
    /// Returns `None` if `self` is not a quadratic residue.
    ///
    /// # Panics
    ///
    /// Panics if the field modulus is not ≡ 3 (mod 4); all four secp256*
    /// moduli used in this crate satisfy the condition.
    pub fn sqrt(&self) -> Option<Fp<P>> {
        assert!(
            P::MODULUS.limbs()[0] & 3 == 3,
            "sqrt requires p ≡ 3 (mod 4)"
        );
        let exp = P::MODULUS.wrapping_add(&U256::ONE).shr(2);
        let candidate = self.pow(&exp);
        if candidate.square() == *self {
            Some(candidate)
        } else {
            None
        }
    }

    /// Inverts every nonzero element of `elems` in place using Montgomery's
    /// simultaneous-inversion trick: one field inversion plus `3·(n−1)`
    /// multiplications for `n` nonzero entries, instead of `n` inversions.
    /// Zero entries are left as zero (they have no inverse), mirroring how
    /// [`Fp::invert`] reports them, and do not disturb their neighbours.
    ///
    /// This is the workhorse of the batch-affine MSM path: point additions
    /// in affine coordinates each need one division, and amortizing the
    /// inversion makes an affine add cheaper than a Jacobian one.
    pub fn batch_invert(elems: &mut [Fp<P>]) {
        // Prefix products over the nonzero entries.
        let mut prefix = Vec::with_capacity(elems.len());
        let mut acc = Fp::<P>::ONE;
        for e in elems.iter() {
            prefix.push(acc);
            if !e.is_zero() {
                acc = acc.mul_inner(e);
            }
        }
        // One inversion of the total product (a product of nonzero factors,
        // or ONE when every entry was zero — never zero itself)...
        let mut inv = acc.invert().expect("product of nonzero elements");
        // ...then unwind: inv holds the inverse of the product of all
        // nonzero entries up to (and including) position i.
        for (e, p) in elems.iter_mut().zip(prefix).rev() {
            if e.is_zero() {
                continue;
            }
            let e_inv = inv.mul_inner(&p);
            inv = inv.mul_inner(e);
            *e = e_inv;
        }
    }

    /// Samples a uniformly random element using rejection sampling.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Fp<P> {
        loop {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            let v = U256::from_be_bytes(bytes);
            if v.const_cmp(&P::MODULUS) < 0 {
                return Fp::from_canonical(v);
            }
        }
    }

    /// Sums an iterator of elements.
    pub fn sum<I: IntoIterator<Item = Fp<P>>>(iter: I) -> Fp<P> {
        iter.into_iter().fold(Fp::ZERO, |acc, x| acc.add_inner(&x))
    }
}

impl<P: FieldParams> fmt::Debug for Fp<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", P::NAME, self.to_canonical())
    }
}

impl<P: FieldParams> fmt::Display for Fp<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_canonical())
    }
}

impl<P: FieldParams> Default for Fp<P> {
    fn default() -> Self {
        Fp::ZERO
    }
}

impl<P: FieldParams> Add for Fp<P> {
    type Output = Fp<P>;
    fn add(self, rhs: Fp<P>) -> Fp<P> {
        Fp::add_inner(&self, &rhs)
    }
}

impl<P: FieldParams> AddAssign for Fp<P> {
    fn add_assign(&mut self, rhs: Fp<P>) {
        *self = Fp::add_inner(self, &rhs);
    }
}

impl<P: FieldParams> Sub for Fp<P> {
    type Output = Fp<P>;
    fn sub(self, rhs: Fp<P>) -> Fp<P> {
        Fp::sub_inner(&self, &rhs)
    }
}

impl<P: FieldParams> SubAssign for Fp<P> {
    fn sub_assign(&mut self, rhs: Fp<P>) {
        *self = Fp::sub_inner(self, &rhs);
    }
}

impl<P: FieldParams> Mul for Fp<P> {
    type Output = Fp<P>;
    fn mul(self, rhs: Fp<P>) -> Fp<P> {
        Fp::mul_inner(&self, &rhs)
    }
}

impl<P: FieldParams> MulAssign for Fp<P> {
    fn mul_assign(&mut self, rhs: Fp<P>) {
        *self = Fp::mul_inner(self, &rhs);
    }
}

impl<P: FieldParams> Neg for Fp<P> {
    type Output = Fp<P>;
    fn neg(self) -> Fp<P> {
        self.negate()
    }
}

impl<P: FieldParams> std::iter::Sum for Fp<P> {
    fn sum<I: Iterator<Item = Fp<P>>>(iter: I) -> Fp<P> {
        Fp::sum(iter)
    }
}

impl<P: FieldParams> From<u64> for Fp<P> {
    fn from(v: u64) -> Fp<P> {
        Fp::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{Secp256k1Base, Secp256k1Scalar, Secp256r1Base, Secp256r1Scalar};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type F = Fp<Secp256k1Base>;

    #[test]
    fn montgomery_constants_sane() {
        // R * R⁻¹ ≡ 1: ONE round-trips through canonical form.
        assert_eq!(F::ONE.to_canonical(), U256::ONE);
        assert_eq!(F::ZERO.to_canonical(), U256::ZERO);
        assert_eq!(F::from_u64(12345).to_canonical(), U256::from_u64(12345));
    }

    #[test]
    fn n0_is_inverse() {
        // p * (-N0) ≡ 1 mod 2^64 ⇔ p * N0 ≡ -1.
        let p0 = Secp256k1Base::MODULUS.limbs()[0];
        assert_eq!(p0.wrapping_mul(Secp256k1Base::N0), u64::MAX);
        let p0 = Secp256r1Base::MODULUS.limbs()[0];
        assert_eq!(p0.wrapping_mul(Secp256r1Base::N0), u64::MAX);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = F::from_u64(u64::MAX);
        let b = F::from_u64(12345);
        assert_eq!((a + b) - b, a);
        assert_eq!(a - a, F::ZERO);
        assert_eq!(a + (-a), F::ZERO);
    }

    #[test]
    fn mul_matches_small_integers() {
        let a = F::from_u64(1 << 40);
        let b = F::from_u64(1 << 20);
        assert_eq!(a * b, F::from_canonical(U256::from_u64(1).shl(60)));
    }

    #[test]
    fn wraparound_addition() {
        // (p-1) + 2 = 1 mod p
        let p_minus_1 = F::from_canonical(Secp256k1Base::MODULUS.wrapping_sub(&U256::ONE));
        assert_eq!(p_minus_1 + F::from_u64(2), F::ONE);
    }

    #[test]
    fn from_i64_negative() {
        let a = F::from_i64(-5);
        assert_eq!(a + F::from_u64(5), F::ZERO);
        assert_eq!(F::from_i64(5), F::from_u64(5));
        assert_eq!(F::from_i128(-1), -F::ONE);
    }

    #[test]
    fn inversion() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let a = F::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.invert().unwrap(), F::ONE);
        }
        assert!(F::ZERO.invert().is_none());
    }

    #[test]
    fn batch_invert_matches_individual() {
        let mut rng = StdRng::seed_from_u64(23);
        let originals: Vec<F> = (0..17).map(|_| F::random(&mut rng)).collect();
        let mut batch = originals.clone();
        F::batch_invert(&mut batch);
        for (orig, inv) in originals.iter().zip(&batch) {
            assert_eq!(*inv, orig.invert().unwrap());
        }
    }

    #[test]
    fn batch_invert_skips_zeros() {
        let mut elems = vec![F::from_u64(2), F::ZERO, F::from_u64(3), F::ZERO];
        F::batch_invert(&mut elems);
        assert_eq!(elems[0], F::from_u64(2).invert().unwrap());
        assert!(elems[1].is_zero());
        assert_eq!(elems[2], F::from_u64(3).invert().unwrap());
        assert!(elems[3].is_zero());
        // Degenerate inputs: all zeros, empty.
        let mut zeros = vec![F::ZERO; 4];
        F::batch_invert(&mut zeros);
        assert!(zeros.iter().all(Fp::is_zero));
        F::batch_invert(&mut []);
    }

    #[test]
    fn sqrt_of_squares() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let a = F::random(&mut rng);
            let sq = a.square();
            let root = sq.sqrt().expect("square must have a root");
            assert!(root == a || root == -a);
        }
    }

    #[test]
    fn pow_small_exponents() {
        let a = F::from_u64(3);
        assert_eq!(a.pow(&U256::ZERO), F::ONE);
        assert_eq!(a.pow(&U256::ONE), a);
        assert_eq!(a.pow(&U256::from_u64(5)), F::from_u64(243));
    }

    #[test]
    fn fermat_little_theorem_all_fields() {
        // a^(p-1) = 1 for a ≠ 0, in all four fields.
        fn check<P: FieldParams>() {
            let a = Fp::<P>::from_u64(0xDEADBEEF);
            let exp = P::MODULUS.wrapping_sub(&U256::ONE);
            assert_eq!(a.pow(&exp), Fp::<P>::ONE, "field {}", P::NAME);
        }
        check::<Secp256k1Base>();
        check::<Secp256k1Scalar>();
        check::<Secp256r1Base>();
        check::<Secp256r1Scalar>();
    }

    #[test]
    fn byte_round_trip() {
        let a = F::from_u64(0xABCDEF);
        assert_eq!(F::from_be_bytes(a.to_be_bytes()).unwrap(), a);
        // Modulus itself is rejected.
        assert!(F::from_be_bytes(Secp256k1Base::MODULUS.to_be_bytes()).is_none());
    }

    fn arb_fp() -> impl Strategy<Value = F> {
        any::<[u8; 32]>().prop_map(|b| {
            // Clear the top byte so the value is always < p.
            let mut b = b;
            b[0] = 0;
            F::from_be_bytes(b).expect("top byte cleared means < p")
        })
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in arb_fp(), b in arb_fp()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_mul_commutative(a in arb_fp(), b in arb_fp()) {
            prop_assert_eq!(a * b, b * a);
        }

        #[test]
        fn prop_add_associative(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn prop_mul_associative(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
            prop_assert_eq!((a * b) * c, a * (b * c));
        }

        #[test]
        fn prop_distributive(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_inverse(a in arb_fp()) {
            if !a.is_zero() {
                prop_assert_eq!(a * a.invert().unwrap(), F::ONE);
            }
        }

        #[test]
        fn prop_canonical_round_trip(a in arb_fp()) {
            prop_assert_eq!(F::from_canonical(a.to_canonical()), a);
        }

        #[test]
        fn prop_neg_is_sub_from_zero(a in arb_fp()) {
            prop_assert_eq!(-a, F::ZERO - a);
        }
    }
}
