//! Prime-field arithmetic generic over the modulus, with the reduction the
//! modulus allows.
//!
//! Both secp256k1 and secp256r1 need a base field (coordinates) and a scalar
//! field (exponents); all four are instances of [`Fp`] with a different
//! [`FieldParams`] marker type. Everything a reduction needs is derived from
//! the modulus at compile time, so defining a new field is a three-line impl:
//!
//! * a modulus `p = 2²⁵⁶ − c` with `c` below 2⁶⁴ (secp256k1's base field,
//!   `c = 2³² + 977`) gets [`FieldParams::FOLD`]` = Some(c)`: elements are
//!   stored as plain residues and a product is the 512-bit integer product
//!   with its high half folded into the low as `high · c` (2²⁵⁶ ≡ c), twice,
//!   and one conditional subtraction — 21 limb products, 15 for a squaring;
//! * any other modulus (both group orders, P-256's base field) is kept in
//!   Montgomery form (R, R², −p⁻¹ mod 2⁶⁴) and multiplied by CIOS, 36 limb
//!   products.
//!
//! The choice is a `match` on an associated constant, so each instantiation
//! compiles to one of the two and no caller can see which.
//!
//! Every kernel here and every [`U256`] primitive under it is `#[inline]`:
//! curve and MSM code is generic over the curve, so it is instantiated in
//! whichever crate names the curve, and without the attribute these
//! non-generic leaves would be calls across a crate boundary there.

use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::bigint::{U256, U512};

/// Compile-time parameters of a prime field.
///
/// Implementors only provide [`FieldParams::MODULUS`] (which must be an odd
/// prime with its top bit set, true for all secp256* primes and orders) and a
/// display name; the constants of both reductions are derived automatically.
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
    /// `Some(c)` when `p = 2^256 − c` with `c < 2^64`: the field then stores
    /// plain residues and reduces by folding (see the module docs); `None`
    /// keeps it in Montgomery form. Derived; do not override.
    const FOLD: Option<u64> = fold_constant(&Self::R);
}

/// `c` if `2^256 − p` (which is `R`) fits one limb.
const fn fold_constant(r: &U256) -> Option<u64> {
    match r.limbs() {
        [c, 0, 0, 0] => Some(c),
        _ => None,
    }
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
#[inline]
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
    let (reduced, borrow) = r.sbb(p);
    if t[4] != 0 || !borrow {
        reduced
    } else {
        r
    }
}

/// `wide mod p` for `p = 2^256 − c`. Since `2^256 ≡ c`, the high half folds
/// into the low as `high · c`: once to under `2^320`, then the fifth limb
/// again to under `2^256 + 2^128`, which one subtraction of `p` — an
/// addition of `c` that carries out of 256 bits — brings below `p`.
#[inline]
const fn fold_reduce(wide: &U512, c: u64) -> U256 {
    let w = wide.limbs();
    let mut t = [0u64; 4];
    let mut high = 0u64;
    let mut i = 0;
    while i < 4 {
        let s = w[i] as u128 + w[i + 4] as u128 * c as u128 + high as u128;
        t[i] = s as u64;
        high = (s >> 64) as u64;
        i += 1;
    }
    let (r, wrapped) = U256::from_limbs(t).adc(&U256::from_u128(high as u128 * c as u128));
    // A wrapped `r` is below 2^128, so adding `c` cannot carry a second
    // time; an unwrapped one is at least `p` exactly when adding `c` carries.
    let (minus_p, at_least_p) = r.adc(&U256::from_u64(c));
    if wrapped || at_least_p {
        minus_p
    } else {
        r
    }
}

#[cfg(test)]
thread_local! {
    /// Fermat inversions run on this thread, in any field: lets a test
    /// assert that a path takes none.
    pub(crate) static INVERSIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// An element of the prime field defined by `P`, stored as the reduction
/// wants it: the residue itself where [`FieldParams::FOLD`] is `Some`, in
/// Montgomery form otherwise.
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
    /// `value mod p` for a folding field, `value * R mod p` for a
    /// Montgomery one; below `p` either way.
    repr: U256,
    _marker: PhantomData<P>,
}

impl<P: FieldParams> Fp<P> {
    /// The additive identity.
    pub const ZERO: Fp<P> = Fp {
        repr: U256::ZERO,
        _marker: PhantomData,
    };
    /// The multiplicative identity.
    pub const ONE: Fp<P> = Fp {
        repr: match P::FOLD {
            Some(_) => U256::ONE,
            None => P::R,
        },
        _marker: PhantomData,
    };

    /// Builds an element from a canonical integer, reducing mod p.
    #[inline]
    pub fn from_canonical(v: U256) -> Fp<P> {
        // v < 2^256 < 2p, so one conditional subtraction canonicalizes.
        let reduced = v.reduce_once(&P::MODULUS);
        Fp {
            repr: match P::FOLD {
                Some(_) => reduced,
                None => mont_mul(&reduced, &P::R2, &P::MODULUS, P::N0),
            },
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

    /// Returns the canonical representative in `[0, p)`.
    #[inline]
    pub fn to_canonical(&self) -> U256 {
        match P::FOLD {
            Some(_) => self.repr,
            None => mont_mul(&self.repr, &U256::ONE, &P::MODULUS, P::N0),
        }
    }

    /// Sign and magnitude of the *centred* representative, the one in
    /// `[−(p−1)/2, (p−1)/2]`: `(false, k)` for a canonical `k ≤ (p−1)/2`,
    /// `(true, p − k)` above it. An embedded signed integer ([`Fp::from_i64`])
    /// comes back as its sign and `|v|`, so the magnitude's bit length is
    /// the value's real length, not the 256 bits of `p − |v|`.
    #[inline]
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
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.repr.is_zero()
    }

    /// Field addition (also available via the `+` operator).
    #[inline]
    fn add_inner(&self, rhs: &Fp<P>) -> Fp<P> {
        let (sum, carry) = self.repr.adc(&rhs.repr);
        let (reduced, borrow) = sum.sbb(&P::MODULUS);
        Fp {
            repr: if carry || !borrow { reduced } else { sum },
            _marker: PhantomData,
        }
    }

    /// Field subtraction (also available via the `-` operator).
    #[inline]
    fn sub_inner(&self, rhs: &Fp<P>) -> Fp<P> {
        let (diff, borrow) = self.repr.sbb(&rhs.repr);
        let reduced = if borrow {
            diff.wrapping_add(&P::MODULUS)
        } else {
            diff
        };
        Fp {
            repr: reduced,
            _marker: PhantomData,
        }
    }

    /// Additive inverse.
    #[inline]
    pub fn negate(&self) -> Fp<P> {
        if self.is_zero() {
            *self
        } else {
            Fp {
                repr: P::MODULUS.wrapping_sub(&self.repr),
                _marker: PhantomData,
            }
        }
    }

    /// Field multiplication (also available via the `*` operator). Always
    /// inlined, like [`Fp::square`] and for its reason.
    #[inline(always)]
    fn mul_inner(&self, rhs: &Fp<P>) -> Fp<P> {
        Fp {
            repr: match P::FOLD {
                Some(c) => fold_reduce(&self.repr.widening_mul(&rhs.repr), c),
                None => mont_mul(&self.repr, &rhs.repr, &P::MODULUS, P::N0),
            },
            _marker: PhantomData,
        }
    }

    /// Squaring: a dedicated 10-product square under the fold; the
    /// Montgomery fields square by `mul` (square-then-reduce measured level
    /// or slower than CIOS, EXPERIMENTS.md). Always inlined: as a hint it
    /// stayed a call, and a 32-byte round trip through memory in every
    /// link of a doubling or `pow` chain cost more than the squaring saved.
    #[inline(always)]
    pub fn square(&self) -> Fp<P> {
        match P::FOLD {
            Some(c) => Fp {
                repr: fold_reduce(&self.repr.widening_square(), c),
                _marker: PhantomData,
            },
            None => self.mul_inner(self),
        }
    }

    /// Doubling.
    #[inline]
    pub fn double(&self) -> Fp<P> {
        self.add_inner(self)
    }

    /// Exponentiation by a canonical 256-bit exponent, in fixed 4-bit
    /// windows from the top: four squarings a digit and one product per
    /// non-zero digit (plus 14 for the table of `self¹ … self¹⁵`), where
    /// square-and-multiply pays one per set bit — ≈ 335 operations in
    /// place of ≈ 500 on the nearly all-ones exponents of
    /// [`Fp::invert`] and [`Fp::sqrt`].
    pub fn pow(&self, exp: &U256) -> Fp<P> {
        const WINDOW: usize = 4;
        let mut powers = [*self; (1 << WINDOW) - 1];
        for d in 1..powers.len() {
            powers[d] = powers[d - 1].mul_inner(self);
        }
        let mut acc = Fp::<P>::ONE;
        for w in (0..exp.bit_len().div_ceil(WINDOW)).rev() {
            for _ in 0..WINDOW {
                acc = acc.square();
            }
            let digit = exp.bits(w * WINDOW, WINDOW) as usize;
            if digit != 0 {
                acc = acc.mul_inner(&powers[digit - 1]);
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
        #[cfg(test)]
        INVERSIONS.with(|n| n.set(n.get() + 1));
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
        // or ONE, its own inverse, when every entry was zero — never zero
        // itself)...
        let mut inv = if acc == Fp::ONE {
            acc
        } else {
            // Proof: a product of nonzero elements of a prime field is nonzero.
            #[allow(clippy::expect_used)]
            acc.invert().expect("product of nonzero elements")
        };
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
    #[inline]
    fn add(self, rhs: Fp<P>) -> Fp<P> {
        Fp::add_inner(&self, &rhs)
    }
}

impl<P: FieldParams> AddAssign for Fp<P> {
    #[inline]
    fn add_assign(&mut self, rhs: Fp<P>) {
        *self = Fp::add_inner(self, &rhs);
    }
}

impl<P: FieldParams> Sub for Fp<P> {
    type Output = Fp<P>;
    #[inline]
    fn sub(self, rhs: Fp<P>) -> Fp<P> {
        Fp::sub_inner(&self, &rhs)
    }
}

impl<P: FieldParams> SubAssign for Fp<P> {
    #[inline]
    fn sub_assign(&mut self, rhs: Fp<P>) {
        *self = Fp::sub_inner(self, &rhs);
    }
}

impl<P: FieldParams> Mul for Fp<P> {
    type Output = Fp<P>;
    #[inline]
    fn mul(self, rhs: Fp<P>) -> Fp<P> {
        Fp::mul_inner(&self, &rhs)
    }
}

impl<P: FieldParams> MulAssign for Fp<P> {
    #[inline]
    fn mul_assign(&mut self, rhs: Fp<P>) {
        *self = Fp::mul_inner(self, &rhs);
    }
}

impl<P: FieldParams> Neg for Fp<P> {
    type Output = Fp<P>;
    #[inline]
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

    // -- Differential suite: every kernel against schoolbook arithmetic ------

    /// `wide mod p`, one bit at a time: the remainder so far is below `p`,
    /// so twice it plus a bit is below `2p` and one subtraction restores it.
    fn reference_mod(wide: &U512, p: &U256) -> U256 {
        let mut r = U256::ZERO;
        for limb in wide.limbs().iter().rev() {
            for bit in (0..64).rev() {
                let (doubled, carry) = r.adc(&r);
                // `doubled` is even, so the bit never carries further.
                let next = doubled.wrapping_add(&U256::from_u64((limb >> bit) & 1));
                r = if carry || next.const_cmp(p) >= 0 {
                    next.wrapping_sub(p)
                } else {
                    next
                };
            }
        }
        r
    }

    /// `(a · b) mod p` by a 512-bit product and [`reference_mod`].
    fn reference_mul(a: &U256, b: &U256, p: &U256) -> U256 {
        reference_mod(&a.widening_mul(b), p)
    }

    /// Integers in `[0, 2^256)` that exercise the carries of both
    /// reductions — 0, 1, `c = 2^256 − p`, `c ± 1`, `p − 2`, `p − 1`, `p`,
    /// `p + 1`, `(p − 1)/2` and its successor, `2^256 − 1`, values whose
    /// high limbs are all ones, single high bits — and `random` seeded ones.
    fn edge_integers<P: FieldParams>(random: usize) -> Vec<U256> {
        let p = P::MODULUS;
        let c = U256::ZERO.wrapping_sub(&p);
        let half = p.shr(1);
        let mut v = vec![
            U256::ZERO,
            U256::ONE,
            c,
            c.wrapping_sub(&U256::ONE),
            c.wrapping_add(&U256::ONE),
            p.wrapping_sub(&U256::from_u64(2)),
            p.wrapping_sub(&U256::ONE),
            p,
            p.wrapping_add(&U256::ONE),
            half,
            half.wrapping_add(&U256::ONE),
            U256::MAX,
            U256::from_limbs([0, u64::MAX, u64::MAX, u64::MAX]),
            U256::from_limbs([1, 0, u64::MAX, u64::MAX]),
            U256::from_limbs([u64::MAX, 0, 0, u64::MAX]),
            U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, 0]),
            U256::from_u64(u64::MAX),
            U256::ONE.shl(255),
            U256::ONE.shl(128),
        ];
        let mut rng = StdRng::seed_from_u64(0x5EED ^ p.limbs()[0]);
        for _ in 0..random {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            v.push(U256::from_be_bytes(bytes));
        }
        v
    }

    fn kernels_match_the_reference<P: FieldParams>(random: usize) {
        let p = P::MODULUS;
        let integers = edge_integers::<P>(random);
        let one = Fp::<P>::ONE;
        assert_eq!(one.to_canonical(), U256::ONE, "{}", P::NAME);
        for v in &integers {
            // from_canonical reduces (inputs at and above p included) and
            // to_canonical undoes it.
            let x = Fp::<P>::from_canonical(*v);
            let k = x.to_canonical();
            let expect = if v.const_cmp(&p) >= 0 {
                v.wrapping_sub(&p)
            } else {
                *v
            };
            assert_eq!(k, expect, "{} from/to_canonical {v}", P::NAME);
            assert_eq!(Fp::<P>::from_canonical(k), x);
            assert_eq!(x * one, x);

            let (negative, magnitude) = x.to_centred();
            assert!(magnitude.const_cmp(&p.shr(1)) <= 0);
            let back = if negative && !magnitude.is_zero() {
                p.wrapping_sub(&magnitude)
            } else {
                magnitude
            };
            assert_eq!(back, k, "{} to_centred {v}", P::NAME);
            assert_eq!(negative, k.const_cmp(&p.shr(1)) > 0);

            assert_eq!(
                x.square().to_canonical(),
                reference_mul(&k, &k, &p),
                "{} square {v}",
                P::NAME
            );
            match x.invert() {
                None => assert!(k.is_zero()),
                Some(inv) => {
                    assert_eq!(inv * x, one, "{} invert {v}", P::NAME);
                    assert_eq!(reference_mul(&inv.to_canonical(), &k, &p), U256::ONE);
                }
            }
            for w in &integers {
                let y = Fp::<P>::from_canonical(*w);
                assert_eq!(
                    (x * y).to_canonical(),
                    reference_mul(&k, &y.to_canonical(), &p),
                    "{} mul {v} {w}",
                    P::NAME
                );
            }
        }
    }

    #[test]
    fn kernels_match_the_reference_in_all_four_fields() {
        kernels_match_the_reference::<Secp256k1Base>(40);
        kernels_match_the_reference::<Secp256k1Scalar>(40);
        kernels_match_the_reference::<Secp256r1Base>(40);
        kernels_match_the_reference::<Secp256r1Scalar>(40);
    }

    #[test]
    fn only_the_secp256k1_base_field_folds() {
        assert_eq!(Secp256k1Base::FOLD, Some((1 << 32) + 977));
        assert_eq!(Secp256k1Scalar::FOLD, None);
        assert_eq!(Secp256r1Base::FOLD, None);
        assert_eq!(Secp256r1Scalar::FOLD, None);
    }

    /// The fold on 512-bit inputs no product of reduced operands reaches:
    /// all ones (both folds wrap), a high half of all ones over a zero low
    /// half, and the values one either side of a multiple of `p`.
    #[test]
    fn fold_reduce_handles_every_512_bit_input() {
        let p = Secp256k1Base::MODULUS;
        let c = Secp256k1Base::FOLD.expect("folds");
        let max = u64::MAX;
        let mut inputs = vec![
            U512::from_limbs([max; 8]),
            U512::from_limbs([0, 0, 0, 0, max, max, max, max]),
            U512::from_limbs([max, max, max, max, 0, 0, 0, 0]),
            U512::from_limbs([0, 0, 0, 0, 1, 0, 0, 0]),
            U512::from_u256(&p),
            U512::from_u256(&p.wrapping_sub(&U256::ONE)),
            p.widening_mul(&U256::MAX),
            p.widening_mul(&p),
        ];
        let mut rng = StdRng::seed_from_u64(0xF01D);
        for _ in 0..200 {
            inputs.push(U512::from_limbs(std::array::from_fn(|_| rng.next_u64())));
        }
        for wide in &inputs {
            assert_eq!(fold_reduce(wide, c), reference_mod(wide, &p), "{wide:?}");
        }
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
