//! Short-Weierstrass elliptic curves secp256k1 and secp256r1.
//!
//! These are the two curves the paper evaluates Pedersen commitments on
//! (§V, Fig. 3). Points are represented in affine form ([`Affine`]) for
//! storage/serialization and Jacobian projective form ([`Jacobian`]) for
//! arithmetic. Scalar multiplication uses a width-5 wNAF ladder; the
//! multi-scalar optimizations live in [`crate::msm`].

use std::fmt;
use std::hash::Hash;

use rand::Rng;

use crate::bigint::U256;
use crate::field::{FieldParams, Fp};

// ---------------------------------------------------------------------------
// Field parameter definitions for both curves
// ---------------------------------------------------------------------------

/// Base field of secp256k1: `p = 2^256 - 2^32 - 977`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Secp256k1Base;

impl FieldParams for Secp256k1Base {
    const MODULUS: U256 =
        U256::from_be_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
    const NAME: &'static str = "Fp-k1";
}

/// Scalar field of secp256k1 (the group order `n`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Secp256k1Scalar;

impl FieldParams for Secp256k1Scalar {
    const MODULUS: U256 =
        U256::from_be_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
    const NAME: &'static str = "Fr-k1";
}

/// Base field of secp256r1 (NIST P-256).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Secp256r1Base;

impl FieldParams for Secp256r1Base {
    const MODULUS: U256 =
        U256::from_be_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
    const NAME: &'static str = "Fp-r1";
}

/// Scalar field of secp256r1 (the group order `n`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Secp256r1Scalar;

impl FieldParams for Secp256r1Scalar {
    const MODULUS: U256 =
        U256::from_be_hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");
    const NAME: &'static str = "Fr-r1";
}

// ---------------------------------------------------------------------------
// Curve trait and the two instances
// ---------------------------------------------------------------------------

/// A short-Weierstrass curve `y² = x³ + a·x + b` over a 256-bit prime field
/// with prime group order (cofactor 1, true for both secp256 curves).
pub trait Curve: 'static + Copy + Clone + fmt::Debug + PartialEq + Eq + Hash + Send + Sync {
    /// Base field the coordinates live in.
    type Base: FieldParams;
    /// Scalar field (integers modulo the group order).
    type Scalar: FieldParams;
    /// Human-readable curve name.
    const NAME: &'static str;

    /// Curve coefficient `a`.
    fn a() -> Fp<Self::Base>;
    /// Curve coefficient `b`.
    fn b() -> Fp<Self::Base>;
    /// The standard base point `G`.
    fn generator() -> Affine<Self>;
}

/// The secp256k1 curve (`a = 0`, `b = 7`), as used by Bitcoin.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Secp256k1;

impl Curve for Secp256k1 {
    type Base = Secp256k1Base;
    type Scalar = Secp256k1Scalar;
    const NAME: &'static str = "secp256k1";

    fn a() -> Fp<Secp256k1Base> {
        Fp::ZERO
    }

    fn b() -> Fp<Secp256k1Base> {
        Fp::from_u64(7)
    }

    fn generator() -> Affine<Secp256k1> {
        Affine::from_xy_unchecked(
            Fp::from_canonical(U256::from_be_hex(
                "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
            )),
            Fp::from_canonical(U256::from_be_hex(
                "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8",
            )),
        )
    }
}

/// The secp256r1 / NIST P-256 curve (`a = p - 3`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Secp256r1;

impl Curve for Secp256r1 {
    type Base = Secp256r1Base;
    type Scalar = Secp256r1Scalar;
    const NAME: &'static str = "secp256r1";

    fn a() -> Fp<Secp256r1Base> {
        // a = p - 3
        Fp::from_i64(-3)
    }

    fn b() -> Fp<Secp256r1Base> {
        Fp::from_canonical(U256::from_be_hex(
            "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b",
        ))
    }

    fn generator() -> Affine<Secp256r1> {
        Affine::from_xy_unchecked(
            Fp::from_canonical(U256::from_be_hex(
                "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
            )),
            Fp::from_canonical(U256::from_be_hex(
                "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5",
            )),
        )
    }
}

/// Scalar type alias for a curve.
pub type Scalar<C> = Fp<<C as Curve>::Scalar>;
/// Base-field element type alias for a curve.
pub type BaseField<C> = Fp<<C as Curve>::Base>;

// ---------------------------------------------------------------------------
// Affine points
// ---------------------------------------------------------------------------

/// A point in affine coordinates, or the point at infinity.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Affine<C: Curve> {
    x: BaseField<C>,
    y: BaseField<C>,
    infinity: bool,
}

impl<C: Curve> Affine<C> {
    /// The point at infinity (group identity).
    pub fn identity() -> Affine<C> {
        Affine {
            x: Fp::ZERO,
            y: Fp::ZERO,
            infinity: true,
        }
    }

    /// Builds a point from coordinates without checking the curve equation.
    ///
    /// Used for trusted constants; prefer [`Affine::from_xy`] elsewhere.
    pub fn from_xy_unchecked(x: BaseField<C>, y: BaseField<C>) -> Affine<C> {
        Affine {
            x,
            y,
            infinity: false,
        }
    }

    /// Builds a point from coordinates, returning `None` if `(x, y)` is not
    /// on the curve.
    pub fn from_xy(x: BaseField<C>, y: BaseField<C>) -> Option<Affine<C>> {
        let p = Affine::from_xy_unchecked(x, y);
        if p.is_on_curve() {
            Some(p)
        } else {
            None
        }
    }

    /// X coordinate.
    ///
    /// # Panics
    ///
    /// Panics if called on the point at infinity.
    pub fn x(&self) -> BaseField<C> {
        assert!(!self.infinity, "infinity has no affine coordinates");
        self.x
    }

    /// Y coordinate.
    ///
    /// # Panics
    ///
    /// Panics if called on the point at infinity.
    pub fn y(&self) -> BaseField<C> {
        assert!(!self.infinity, "infinity has no affine coordinates");
        self.y
    }

    /// Returns `true` for the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Checks the curve equation `y² = x³ + a·x + b`.
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        let lhs = self.y.square();
        let rhs = (self.x.square() + C::a()) * self.x + C::b();
        lhs == rhs
    }

    /// Point negation (reflects over the x axis).
    pub fn negate(&self) -> Affine<C> {
        if self.infinity {
            *self
        } else {
            Affine {
                x: self.x,
                y: -self.y,
                infinity: false,
            }
        }
    }

    /// Converts to Jacobian coordinates.
    pub fn to_jacobian(&self) -> Jacobian<C> {
        if self.infinity {
            Jacobian::identity()
        } else {
            Jacobian {
                x: self.x,
                y: self.y,
                z: Fp::ONE,
            }
        }
    }

    /// Scalar multiplication `k · self` using a wNAF ladder.
    pub fn mul(&self, k: &Scalar<C>) -> Jacobian<C> {
        self.to_jacobian().mul(k)
    }

    /// SEC1 compressed encoding: `02/03 || x` (33 bytes), or `[0x00; 33]`
    /// for the identity (a non-standard but unambiguous sentinel).
    pub fn to_compressed(&self) -> [u8; 33] {
        let mut out = [0u8; 33];
        if self.infinity {
            return out;
        }
        out[0] = if self.y.to_canonical().bit(0) {
            0x03
        } else {
            0x02
        };
        out[1..].copy_from_slice(&self.x.to_be_bytes());
        out
    }

    /// Decodes a SEC1 compressed encoding produced by
    /// [`Affine::to_compressed`]. Returns `None` for malformed or
    /// off-curve input.
    pub fn from_compressed(bytes: &[u8; 33]) -> Option<Affine<C>> {
        if bytes.iter().all(|&b| b == 0) {
            return Some(Affine::identity());
        }
        let sign = match bytes[0] {
            0x02 => false,
            0x03 => true,
            _ => return None,
        };
        let mut xb = [0u8; 32];
        xb.copy_from_slice(&bytes[1..]);
        let x = Fp::from_be_bytes(xb)?;
        let rhs = (x.square() + C::a()) * x + C::b();
        let mut y = rhs.sqrt()?;
        if y.to_canonical().bit(0) != sign {
            y = -y;
        }
        Some(Affine {
            x,
            y,
            infinity: false,
        })
    }

    /// Samples a random point by multiplying the generator by a random
    /// scalar (uniform over the group since the order is prime).
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Affine<C> {
        let k = Scalar::<C>::random(rng);
        C::generator().mul(&k).to_affine()
    }
}

impl<C: Curve> fmt::Debug for Affine<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infinity {
            write!(f, "{}::Infinity", C::NAME)
        } else {
            write!(
                f,
                "{}({}, {})",
                C::NAME,
                self.x.to_canonical(),
                self.y.to_canonical()
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Jacobian points
// ---------------------------------------------------------------------------

/// A point in Jacobian projective coordinates `(X, Y, Z)` representing the
/// affine point `(X/Z², Y/Z³)`; `Z = 0` encodes the identity.
#[derive(Copy, Clone)]
pub struct Jacobian<C: Curve> {
    x: BaseField<C>,
    y: BaseField<C>,
    z: BaseField<C>,
}

impl<C: Curve> Jacobian<C> {
    /// The group identity.
    pub fn identity() -> Jacobian<C> {
        Jacobian {
            x: Fp::ONE,
            y: Fp::ONE,
            z: Fp::ZERO,
        }
    }

    /// Returns `true` for the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (general-`a` Jacobian formulas). Where `a` is zero
    /// (secp256k1) the `a·z⁴` term costs nothing: `a` is a constant of the
    /// instantiation and the field product is inlined, so the optimiser
    /// drops the product and the two squarings that feed it — 2M + 5S, as
    /// a hand-written `a = 0` branch measured (EXPERIMENTS.md).
    pub fn double(&self) -> Jacobian<C> {
        if self.is_identity() || self.y.is_zero() {
            return Jacobian::identity();
        }
        let xx = self.x.square();
        let yy = self.y.square();
        let yyyy = yy.square();
        let zz = self.z.square();
        // d = 2·((x + yy)² − xx − yyyy) = 4·x·yy
        let d = ((self.x + yy).square() - xx - yyyy).double();
        let e = xx.double() + xx + C::a() * zz.square();
        let x3 = e.square() - d.double();
        let eight_yyyy = yyyy.double().double().double();
        let y3 = e * (d - x3) - eight_yyyy;
        let z3 = (self.y * self.z).double();
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General point addition.
    pub fn add(&self, rhs: &Jacobian<C>) -> Jacobian<C> {
        if self.is_identity() {
            return *rhs;
        }
        if rhs.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x * z2z2;
        let u2 = rhs.x * z1z1;
        let s1 = self.y * rhs.z * z2z2;
        let s2 = rhs.y * self.z * z1z1;
        if u1 == u2 {
            return if s1 == s2 {
                self.double()
            } else {
                Jacobian::identity()
            };
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - s1).double();
        let v = u1 * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + rhs.z).square() - z1z1 - z2z2) * h;
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point (saves field operations when one
    /// operand has `Z = 1`, the common case in MSM buckets).
    pub fn add_affine(&self, rhs: &Affine<C>) -> Jacobian<C> {
        if rhs.is_identity() {
            return *self;
        }
        if self.is_identity() {
            return rhs.to_jacobian();
        }
        let z1z1 = self.z.square();
        let u2 = rhs.x * z1z1;
        let s2 = rhs.y * self.z * z1z1;
        if self.x == u2 {
            return if self.y == s2 {
                self.double()
            } else {
                Jacobian::identity()
            };
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let r = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Point negation.
    pub fn negate(&self) -> Jacobian<C> {
        Jacobian {
            x: self.x,
            y: -self.y,
            z: self.z,
        }
    }

    /// Scalar multiplication via width-5 wNAF over the scalar's centred
    /// representative (`k` if `k ≤ (n−1)/2`, else `−(n − k)`):
    /// `k·P = |k|·(±P)`, and the ladder is as long as `|k|`, so a short
    /// negative scalar costs what its magnitude costs rather than the 256
    /// doublings of `n − |k|`.
    pub fn mul(&self, k: &Scalar<C>) -> Jacobian<C> {
        const W: u32 = 5;
        let (negative, magnitude) = k.to_centred();
        let naf = wnaf_digits(&magnitude, W);
        let base = if negative { self.negate() } else { *self };
        // Precompute odd multiples 1P, 3P, ... (2^(w-1) − 1)P.
        let table_len = 1usize << (W - 1);
        let mut table = Vec::with_capacity(table_len);
        table.push(base);
        let twice = base.double();
        for i in 1..table_len {
            table.push(table[i - 1].add(&twice));
        }
        let mut acc = Jacobian::identity();
        for &digit in naf.iter().rev() {
            acc = acc.double();
            if digit > 0 {
                acc = acc.add(&table[(digit as usize - 1) / 2]);
            } else if digit < 0 {
                acc = acc.add(&table[((-digit) as usize - 1) / 2].negate());
            }
        }
        acc
    }

    /// Converts back to affine coordinates: one field inversion, or none
    /// for a point that still has `Z = 1` (one that came from affine — a
    /// commitment parsed from its bytes, say — and was not added to since).
    pub fn to_affine(&self) -> Affine<C> {
        if self.z == Fp::ONE {
            return Affine::from_xy_unchecked(self.x, self.y);
        }
        // Only the identity's `Z = 0` has no inverse.
        let Some(zinv) = self.z.invert() else {
            return Affine::identity();
        };
        let zinv2 = zinv.square();
        Affine {
            x: self.x * zinv2,
            y: self.y * zinv2 * zinv,
            infinity: false,
        }
    }

    /// Sums an iterator of points.
    pub fn sum<I: IntoIterator<Item = Jacobian<C>>>(iter: I) -> Jacobian<C> {
        iter.into_iter()
            .fold(Jacobian::identity(), |acc, p| acc.add(&p))
    }

    /// Converts a slice of points to affine form with a *single* field
    /// inversion via [`Fp::batch_invert`], instead of one inversion per
    /// point as repeated [`Jacobian::to_affine`] calls would cost.
    /// Identity points map to the affine identity.
    ///
    /// Affine coordinates are canonical, so the output is bit-identical to
    /// normalizing each point individually — this is what makes results of
    /// differently-parenthesized (e.g. parallel) MSM reductions comparable
    /// byte-for-byte.
    pub fn batch_normalize(points: &[Jacobian<C>]) -> Vec<Affine<C>> {
        let mut out = vec![Affine::identity(); points.len()];
        Jacobian::batch_normalize_into(points, &mut Vec::new(), &mut out);
        out
    }

    /// [`Jacobian::batch_normalize`] into `out`, which must be as long as
    /// `points`, with `zs` as the scratch for the inverted `Z`s: a caller
    /// normalising block after block reuses both, so no block allocates a
    /// point-sized buffer of its own.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `points` differ in length.
    pub(crate) fn batch_normalize_into(
        points: &[Jacobian<C>],
        zs: &mut Vec<BaseField<C>>,
        out: &mut [Affine<C>],
    ) {
        assert_eq!(points.len(), out.len(), "one output slot a point");
        // A `Z = 1` point is affine already: it stays out of the shared
        // inversion (zeros are skipped) and keeps its coordinates.
        zs.clear();
        zs.extend(
            points
                .iter()
                .map(|p| if p.z == Fp::ONE { Fp::ZERO } else { p.z }),
        );
        Fp::batch_invert(zs);
        for ((p, zinv), slot) in points.iter().zip(zs.iter()).zip(out) {
            *slot = if p.is_identity() {
                Affine::identity()
            } else if p.z == Fp::ONE {
                Affine::from_xy_unchecked(p.x, p.y)
            } else {
                let zinv2 = zinv.square();
                Affine {
                    x: p.x * zinv2,
                    y: p.y * zinv2 * *zinv,
                    infinity: false,
                }
            };
        }
    }
}

impl<C: Curve> PartialEq for Jacobian<C> {
    fn eq(&self, other: &Self) -> bool {
        // Compare in the projective equivalence class: X1·Z2² == X2·Z1², etc.
        match (self.is_identity(), other.is_identity()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            (false, false) => {
                let z1z1 = self.z.square();
                let z2z2 = other.z.square();
                self.x * z2z2 == other.x * z1z1
                    && self.y * z2z2 * other.z == other.y * z1z1 * self.z
            }
        }
    }
}

impl<C: Curve> Eq for Jacobian<C> {}

impl<C: Curve> fmt::Debug for Jacobian<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Jacobian({:?})", self.to_affine())
    }
}

/// Computes the width-`w` non-adjacent form of `k` (least-significant digit
/// first). Digits are odd and in `(-2^(w-1), 2^(w-1))`; at most one of any
/// `w` consecutive digits is nonzero.
pub(crate) fn wnaf_digits(k: &U256, w: u32) -> Vec<i8> {
    let mut digits = vec![0; k.bit_len() + 1];
    let len = wnaf_digits_into(k, w, &mut digits);
    digits.truncate(len);
    digits
}

/// [`wnaf_digits`] written to the front of `out`, which must hold
/// `k.bit_len() + 1` digits (no recoding is longer); returns how many it
/// wrote and leaves the rest of `out` as it was.
pub(crate) fn wnaf_digits_into(k: &U256, w: u32, out: &mut [i8]) -> usize {
    assert!((2..=8).contains(&w), "wNAF width must be in 2..=8");
    let mut k = *k;
    let mut len = 0;
    let window = 1u64 << w;
    let half = 1u64 << (w - 1);
    while !k.is_zero() {
        if k.bit(0) {
            let low = k.low_u64() & (window - 1);
            let digit: i64 = if low >= half {
                low as i64 - window as i64
            } else {
                low as i64
            };
            out[len] = digit as i8;
            if digit > 0 {
                k = k.wrapping_sub(&U256::from_u64(digit as u64));
            } else {
                k = k.wrapping_add(&U256::from_u64((-digit) as u64));
            }
        } else {
            out[len] = 0;
        }
        len += 1;
        k = k.shr(1);
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn g_k1() -> Affine<Secp256k1> {
        Secp256k1::generator()
    }

    fn g_r1() -> Affine<Secp256r1> {
        Secp256r1::generator()
    }

    #[test]
    fn generators_on_curve() {
        assert!(g_k1().is_on_curve());
        assert!(g_r1().is_on_curve());
    }

    #[test]
    fn known_vector_2g_secp256k1() {
        let two_g = g_k1().to_jacobian().double().to_affine();
        assert_eq!(
            two_g.x().to_canonical(),
            U256::from_be_hex("c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5")
        );
        assert_eq!(
            two_g.y().to_canonical(),
            U256::from_be_hex("1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a")
        );
    }

    #[test]
    fn known_vector_2g_secp256r1() {
        let two_g = g_r1().to_jacobian().double().to_affine();
        assert_eq!(
            two_g.x().to_canonical(),
            U256::from_be_hex("7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978")
        );
        assert_eq!(
            two_g.y().to_canonical(),
            U256::from_be_hex("07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1")
        );
    }

    #[test]
    fn order_times_generator_is_identity() {
        // n·G = O on both curves: multiply by n−1 and add G.
        fn check<C: Curve>() {
            let n_minus_1 =
                Scalar::<C>::from_canonical(C::Scalar::MODULUS.wrapping_sub(&U256::ONE));
            let p = C::generator().mul(&n_minus_1);
            let sum = p.add_affine(&C::generator());
            assert!(sum.is_identity(), "curve {}", C::NAME);
            // (n−1)·G = −G as well.
            assert_eq!(p.to_affine(), C::generator().negate());
        }
        check::<Secp256k1>();
        check::<Secp256r1>();
    }

    #[test]
    fn double_and_add_agree() {
        // 5G computed two ways.
        let g = g_k1().to_jacobian();
        let four_g = g.double().double();
        let five_g_a = four_g.add(&g);
        let five_g_b = g_k1().mul(&Scalar::<Secp256k1>::from_u64(5));
        assert_eq!(five_g_a, five_g_b);
        assert!(five_g_a.to_affine().is_on_curve());
    }

    /// `double` against the affine tangent formula `λ = (3x² + a) / 2y` on
    /// both curves (`a = 0` and `a = −3`), from points with `Z ≠ 1`.
    /// `add(P, P)` is no oracle here: it detects equal operands and calls
    /// `double` itself — which this checks too.
    #[test]
    fn double_matches_the_affine_tangent_formula() {
        fn check<C: Curve>() {
            let mut rng = StdRng::seed_from_u64(29);
            for _ in 0..8 {
                let p = C::generator().mul(&Scalar::<C>::random(&mut rng));
                assert!(p.z != Fp::ONE);
                let (x, y) = (p.to_affine().x(), p.to_affine().y());
                let lambda = (x.square().double() + x.square() + C::a())
                    * y.double().invert().expect("odd order: y is never zero");
                let x3 = lambda.square() - x.double();
                let y3 = lambda * (x - x3) - y;
                let expected = Affine::<C>::from_xy(x3, y3).expect("2P is on the curve");
                assert_eq!(p.double().to_affine(), expected, "curve {}", C::NAME);
                assert_eq!(p.add(&p).to_affine(), expected);
                assert_eq!(p.add_affine(&p.to_affine()).to_affine(), expected);
            }
        }
        check::<Secp256k1>();
        check::<Secp256r1>();
    }

    #[test]
    fn mixed_addition_agrees_with_full() {
        let g = g_k1();
        let p = g.mul(&Scalar::<Secp256k1>::from_u64(11));
        let full = p.add(&g.to_jacobian());
        let mixed = p.add_affine(&g);
        assert_eq!(full, mixed);
    }

    #[test]
    fn add_inverse_gives_identity() {
        let p = g_k1().mul(&Scalar::<Secp256k1>::from_u64(42));
        let sum = p.add(&p.negate());
        assert!(sum.is_identity());
        // Mixed addition of an affine inverse too.
        let pa = p.to_affine();
        assert!(p.add_affine(&pa.negate()).is_identity());
    }

    #[test]
    fn mul_by_zero_and_one() {
        let g = g_k1();
        assert!(g.mul(&Scalar::<Secp256k1>::ZERO).is_identity());
        assert_eq!(g.mul(&Scalar::<Secp256k1>::ONE).to_affine(), g);
    }

    #[test]
    fn identity_is_additive_identity() {
        let id = Jacobian::<Secp256k1>::identity();
        let p = g_k1().to_jacobian();
        assert_eq!(id.add(&p), p);
        assert_eq!(p.add(&id), p);
        assert!(id.double().is_identity());
        assert_eq!(id.to_affine(), Affine::identity());
    }

    #[test]
    fn scalar_mul_distributes_over_scalar_add() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let a = Scalar::<Secp256k1>::random(&mut rng);
            let b = Scalar::<Secp256k1>::random(&mut rng);
            let lhs = g_k1().mul(&(a + b));
            let rhs = g_k1().mul(&a).add(&g_k1().mul(&b));
            assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn batch_normalize_matches_individual() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut points: Vec<Jacobian<Secp256k1>> = (0..9)
            .map(|_| {
                let k = Scalar::<Secp256k1>::random(&mut rng);
                g_k1().mul(&k)
            })
            .collect();
        points.insert(3, Jacobian::identity());
        points.push(Jacobian::identity());
        let normalized = Jacobian::batch_normalize(&points);
        assert_eq!(normalized.len(), points.len());
        for (j, a) in points.iter().zip(&normalized) {
            assert_eq!(j.to_affine(), *a);
        }
        assert!(normalized[3].is_identity());
        assert!(Jacobian::<Secp256k1>::batch_normalize(&[]).is_empty());
    }

    #[test]
    fn compressed_round_trip() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let p = Affine::<Secp256k1>::random(&mut rng);
            let decoded = Affine::from_compressed(&p.to_compressed()).unwrap();
            assert_eq!(decoded, p);
        }
        // Identity round-trips through the sentinel encoding.
        let id = Affine::<Secp256r1>::identity();
        assert_eq!(Affine::from_compressed(&id.to_compressed()).unwrap(), id);
        // Garbage prefix rejected.
        let mut bad = g_k1().to_compressed();
        bad[0] = 0x05;
        assert!(Affine::<Secp256k1>::from_compressed(&bad).is_none());
    }

    #[test]
    fn from_xy_rejects_off_curve() {
        let x = Fp::<Secp256k1Base>::from_u64(1);
        let y = Fp::<Secp256k1Base>::from_u64(1);
        assert!(Affine::<Secp256k1>::from_xy(x, y).is_none());
    }

    #[test]
    fn wnaf_reconstructs_scalar() {
        for w in 2..=8 {
            for val in [0u64, 1, 2, 3, 31, 32, 255, 0xDEADBEEF] {
                let digits = wnaf_digits(&U256::from_u64(val), w);
                let mut acc: i128 = 0;
                for &d in digits.iter().rev() {
                    acc = acc * 2 + d as i128;
                }
                assert_eq!(acc, val as i128, "w={w} val={val}");
            }
        }
    }

    #[test]
    fn wnaf_digit_constraints() {
        let digits = wnaf_digits(
            &U256::from_be_hex("00000000000000000000000000000000deadbeefcafebabe0123456789abcdef"),
            5,
        );
        for &d in &digits {
            if d != 0 {
                assert!(d % 2 != 0, "wNAF digits must be odd");
                assert!((d as i32).abs() < 16);
            }
        }
        // Non-adjacency within a window.
        for window in digits.windows(5) {
            let nonzero = window.iter().filter(|&&d| d != 0).count();
            assert!(nonzero <= 1, "at most one nonzero digit per width-5 window");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_scalar_mul_matches_double_and_add(k in 1u64..2000) {
            // Reference: repeated addition.
            let g = g_k1().to_jacobian();
            let mut reference = Jacobian::<Secp256k1>::identity();
            for _ in 0..k {
                reference = reference.add(&g);
            }
            let fast = g_k1().mul(&Scalar::<Secp256k1>::from_u64(k));
            prop_assert_eq!(fast, reference);
        }

        #[test]
        fn prop_addition_commutative(a in 1u64..10_000, b in 1u64..10_000) {
            let pa = g_k1().mul(&Scalar::<Secp256k1>::from_u64(a));
            let pb = g_k1().mul(&Scalar::<Secp256k1>::from_u64(b));
            prop_assert_eq!(pa.add(&pb), pb.add(&pa));
        }
    }
}
