//! Fixed-width unsigned big integers used by the field and curve arithmetic.
//!
//! Only the operations required by the rest of the crate are implemented:
//! 256-bit values ([`U256`]) for field elements and scalars, and 512-bit
//! values ([`U512`]) as multiplication intermediates. All core operations are
//! `const fn` so curve constants can be parsed and pre-processed at compile
//! time.

use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer stored as four little-endian `u64` limbs.
///
/// `limbs[0]` is the least significant limb. The type is plain data: all
/// arithmetic is exposed through explicit methods (wrapping or
/// carry-reporting), never through operator overloads, so call sites always
/// state their overflow intent.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    limbs: [u64; 4],
}

/// A 512-bit unsigned integer; the result type of a full 256×256 multiply.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct U512 {
    limbs: [u64; 8],
}

impl U256 {
    /// The value 0.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// The value 1.
    pub const ONE: U256 = U256 {
        limbs: [1, 0, 0, 0],
    };
    /// The maximum representable value, `2^256 - 1`.
    pub const MAX: U256 = U256 {
        limbs: [u64::MAX; 4],
    };

    /// Creates a value from little-endian limbs.
    #[inline]
    pub const fn from_limbs(limbs: [u64; 4]) -> U256 {
        U256 { limbs }
    }

    /// Returns the little-endian limbs.
    #[inline]
    pub const fn limbs(&self) -> [u64; 4] {
        self.limbs
    }

    /// Creates a value from a `u64`.
    #[inline]
    pub const fn from_u64(v: u64) -> U256 {
        U256 {
            limbs: [v, 0, 0, 0],
        }
    }

    /// Creates a value from a `u128`.
    #[inline]
    pub const fn from_u128(v: u128) -> U256 {
        U256 {
            limbs: [v as u64, (v >> 64) as u64, 0, 0],
        }
    }

    /// Parses a big-endian hex string (exactly 64 hex digits, no prefix).
    ///
    /// # Panics
    ///
    /// Panics at compile time (or run time) if the string is not exactly 64
    /// valid hexadecimal characters.
    pub const fn from_be_hex(s: &str) -> U256 {
        let bytes = s.as_bytes();
        assert!(bytes.len() == 64, "expected exactly 64 hex digits");
        let mut limbs = [0u64; 4];
        let mut i = 0;
        while i < 64 {
            let c = bytes[i];
            let digit = match c {
                b'0'..=b'9' => c - b'0',
                b'a'..=b'f' => c - b'a' + 10,
                b'A'..=b'F' => c - b'A' + 10,
                _ => panic!("invalid hex digit"),
            } as u64;
            // Hex digit i contributes to bit position (63 - i) * 4.
            let bit = (63 - i) * 4;
            limbs[bit / 64] |= digit << (bit % 64);
            i += 1;
        }
        U256 { limbs }
    }

    /// Creates a value from 32 big-endian bytes.
    pub const fn from_be_bytes(bytes: [u8; 32]) -> U256 {
        let mut limbs = [0u64; 4];
        let mut i = 0;
        while i < 32 {
            let limb = 3 - i / 8;
            limbs[limb] = (limbs[limb] << 8) | bytes[i] as u64;
            i += 1;
        }
        U256 { limbs }
    }

    /// Serializes to 32 big-endian bytes.
    pub const fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        let mut i = 0;
        while i < 4 {
            let limb = self.limbs[3 - i];
            let mut j = 0;
            while j < 8 {
                out[i * 8 + j] = (limb >> (56 - 8 * j)) as u8;
                j += 1;
            }
            i += 1;
        }
        out
    }

    /// Returns `true` if the value is zero.
    #[inline]
    pub const fn is_zero(&self) -> bool {
        self.limbs[0] == 0 && self.limbs[1] == 0 && self.limbs[2] == 0 && self.limbs[3] == 0
    }

    /// Returns bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    #[inline]
    pub const fn bit(&self, i: usize) -> bool {
        assert!(i < 256);
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Extracts `width` bits starting at bit `start` (0 = least
    /// significant) as a `u64`, reading limb-at-a-time rather than
    /// bit-by-bit. Bits past position 255 read as zero, so windows may
    /// overhang the top. This is the digit-decomposition primitive of the
    /// windowed MSM paths, where it replaces a per-bit loop on the hot
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64, or if `start >= 256`.
    #[inline]
    pub const fn bits(&self, start: usize, width: usize) -> u64 {
        assert!(width >= 1 && width <= 64, "width must be in 1..=64");
        assert!(start < 256, "start must be below 256");
        let limb = start / 64;
        let shift = start % 64;
        let mut v = self.limbs[limb] >> shift;
        // Bits spilling into the next limb (guard shift == 0: `<< 64` is UB).
        if shift != 0 && limb + 1 < 4 {
            v |= self.limbs[limb + 1] << (64 - shift);
        }
        if width == 64 {
            v
        } else {
            v & ((1u64 << width) - 1)
        }
    }

    /// Number of bits required to represent the value (0 for zero).
    #[inline]
    pub const fn bit_len(&self) -> usize {
        let mut i = 3;
        loop {
            if self.limbs[i] != 0 {
                return i * 64 + (64 - self.limbs[i].leading_zeros() as usize);
            }
            if i == 0 {
                return 0;
            }
            i -= 1;
        }
    }

    /// `self + rhs`, returning the sum and the carry-out bit.
    #[inline]
    pub const fn adc(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        let mut i = 0;
        while i < 4 {
            let sum = self.limbs[i] as u128 + rhs.limbs[i] as u128 + carry as u128;
            out[i] = sum as u64;
            carry = (sum >> 64) as u64;
            i += 1;
        }
        (U256 { limbs: out }, carry != 0)
    }

    /// `self - rhs`, returning the difference and the borrow-out bit.
    #[inline]
    pub const fn sbb(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        let mut i = 0;
        while i < 4 {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
            i += 1;
        }
        (U256 { limbs: out }, borrow != 0)
    }

    /// Wrapping addition (mod 2^256).
    #[inline]
    pub const fn wrapping_add(&self, rhs: &U256) -> U256 {
        self.adc(rhs).0
    }

    /// Wrapping subtraction (mod 2^256).
    #[inline]
    pub const fn wrapping_sub(&self, rhs: &U256) -> U256 {
        self.sbb(rhs).0
    }

    /// Full 256×256 → 512-bit multiplication.
    #[inline]
    pub const fn widening_mul(&self, rhs: &U256) -> U512 {
        let mut out = [0u64; 8];
        let mut i = 0;
        while i < 4 {
            let mut carry = 0u64;
            let mut j = 0;
            while j < 4 {
                let prod = self.limbs[i] as u128 * rhs.limbs[j] as u128
                    + out[i + j] as u128
                    + carry as u128;
                out[i + j] = prod as u64;
                carry = (prod >> 64) as u64;
                j += 1;
            }
            out[i + 4] = carry;
            i += 1;
        }
        U512 { limbs: out }
    }

    /// Full 256-bit squaring: each of the six cross products `aᵢ·aⱼ`
    /// (`i < j`) once and doubled, plus the four squares `aᵢ²` — 10 limb
    /// products where [`U256::widening_mul`] spends 16.
    #[inline]
    pub const fn widening_square(&self) -> U512 {
        let a = self.limbs;
        let mut out = [0u64; 8];
        let mut i = 0;
        while i < 3 {
            let mut carry = 0u64;
            let mut j = i + 1;
            while j < 4 {
                let prod = a[i] as u128 * a[j] as u128 + out[i + j] as u128 + carry as u128;
                out[i + j] = prod as u64;
                carry = (prod >> 64) as u64;
                j += 1;
            }
            out[i + 4] = carry;
            i += 1;
        }
        // The cross products sum to under 2^511, so doubling keeps 512 bits.
        let mut k = 7;
        while k > 0 {
            out[k] = (out[k] << 1) | (out[k - 1] >> 63);
            k -= 1;
        }
        out[0] <<= 1;
        let mut carry = 0u64;
        let mut i = 0;
        while i < 4 {
            let sq = a[i] as u128 * a[i] as u128;
            let lo = out[2 * i] as u128 + (sq as u64) as u128 + carry as u128;
            out[2 * i] = lo as u64;
            let hi = out[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
            out[2 * i + 1] = hi as u64;
            carry = (hi >> 64) as u64;
            i += 1;
        }
        U512 { limbs: out }
    }

    /// Compares two values (const-friendly version of `Ord`).
    ///
    /// Returns -1, 0, or 1.
    #[inline]
    pub const fn const_cmp(&self, rhs: &U256) -> i8 {
        let mut i = 3;
        loop {
            if self.limbs[i] < rhs.limbs[i] {
                return -1;
            }
            if self.limbs[i] > rhs.limbs[i] {
                return 1;
            }
            if i == 0 {
                return 0;
            }
            i -= 1;
        }
    }

    /// Shifts right by `n` bits (`n < 256`).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 256`.
    #[inline]
    pub const fn shr(&self, n: usize) -> U256 {
        assert!(n < 256);
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        let mut i = 0;
        while i + limb_shift < 4 {
            let mut v = self.limbs[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 4 {
                v |= self.limbs[i + limb_shift + 1] << (64 - bit_shift);
            }
            out[i] = v;
            i += 1;
        }
        U256 { limbs: out }
    }

    /// Shifts left by `n` bits (`n < 256`).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 256`.
    pub const fn shl(&self, n: usize) -> U256 {
        assert!(n < 256);
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        let mut i = 3;
        loop {
            if i >= limb_shift {
                let mut v = self.limbs[i - limb_shift] << bit_shift;
                if bit_shift > 0 && i - limb_shift >= 1 {
                    v |= self.limbs[i - limb_shift - 1] >> (64 - bit_shift);
                }
                out[i] = v;
            }
            if i == 0 {
                break;
            }
            i -= 1;
        }
        U256 { limbs: out }
    }

    /// Bitwise XOR — the Kademlia distance metric used by the storage
    /// layer's provider routing.
    pub const fn xor(&self, rhs: &U256) -> U256 {
        U256 {
            limbs: [
                self.limbs[0] ^ rhs.limbs[0],
                self.limbs[1] ^ rhs.limbs[1],
                self.limbs[2] ^ rhs.limbs[2],
                self.limbs[3] ^ rhs.limbs[3],
            ],
        }
    }

    /// Number of leading zero bits (256 for zero).
    pub const fn leading_zeros(&self) -> u32 {
        let mut total = 0u32;
        let mut i = 3;
        loop {
            if self.limbs[i] != 0 {
                return total + self.limbs[i].leading_zeros();
            }
            total += 64;
            if i == 0 {
                return total;
            }
            i -= 1;
        }
    }

    /// Reduces `self` modulo `m`, assuming `m > 2^255` (so at most one
    /// subtraction is required). This covers both secp curve moduli and both
    /// group orders.
    ///
    /// # Panics
    ///
    /// Panics if `m` does not have its top bit set.
    #[inline]
    pub const fn reduce_once(&self, m: &U256) -> U256 {
        assert!(m.bit(255), "reduce_once requires a modulus > 2^255");
        let (reduced, borrow) = self.sbb(m);
        if borrow {
            *self
        } else {
            reduced
        }
    }

    /// Interprets the low 64 bits as `u64` (discards upper bits).
    #[inline]
    pub const fn low_u64(&self) -> u64 {
        self.limbs[0]
    }

    /// Returns `self` as `u128`, if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        if self.limbs[2] != 0 || self.limbs[3] != 0 {
            None
        } else {
            Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64)
        }
    }
}

impl U512 {
    /// The value 0.
    pub const ZERO: U512 = U512 { limbs: [0; 8] };

    /// Creates a value from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 8]) -> U512 {
        U512 { limbs }
    }

    /// Returns the little-endian limbs.
    #[inline]
    pub const fn limbs(&self) -> [u64; 8] {
        self.limbs
    }

    /// Splits into (low 256 bits, high 256 bits).
    pub const fn split(&self) -> (U256, U256) {
        (
            U256 {
                limbs: [self.limbs[0], self.limbs[1], self.limbs[2], self.limbs[3]],
            },
            U256 {
                limbs: [self.limbs[4], self.limbs[5], self.limbs[6], self.limbs[7]],
            },
        )
    }

    /// Widens a `U256` into the low half of a `U512`.
    pub const fn from_u256(v: &U256) -> U512 {
        let l = v.limbs;
        U512 {
            limbs: [l[0], l[1], l[2], l[3], 0, 0, 0, 0],
        }
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.const_cmp(other) {
            -1 => Ordering::Less,
            0 => Ordering::Equal,
            _ => Ordering::Greater,
        }
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "U256(0x{:016x}{:016x}{:016x}{:016x})",
            self.limbs[3], self.limbs[2], self.limbs[1], self.limbs[0]
        )
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "0x{:016x}{:016x}{:016x}{:016x}",
            self.limbs[3], self.limbs[2], self.limbs[1], self.limbs[0]
        )
    }
}

impl fmt::Debug for U512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lo, hi) = self.split();
        write!(f, "U512(hi={hi:?}, lo={lo:?})")
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> U256 {
        U256::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> U256 {
        U256::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn hex_round_trip() {
        let v =
            U256::from_be_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
        assert_eq!(v.limbs()[0], 0xfffffffefffffc2f);
        assert_eq!(v.limbs()[3], 0xffffffffffffffff);
        let bytes = v.to_be_bytes();
        assert_eq!(U256::from_be_bytes(bytes), v);
    }

    #[test]
    fn from_be_bytes_matches_hex() {
        let mut bytes = [0u8; 32];
        bytes[31] = 0x2a;
        assert_eq!(U256::from_be_bytes(bytes), U256::from_u64(42));
    }

    #[test]
    fn add_with_carry() {
        let (sum, carry) = U256::MAX.adc(&U256::ONE);
        assert!(carry);
        assert_eq!(sum, U256::ZERO);
        let (sum, carry) = U256::from_u64(1).adc(&U256::from_u64(2));
        assert!(!carry);
        assert_eq!(sum, U256::from_u64(3));
    }

    #[test]
    fn sub_with_borrow() {
        let (diff, borrow) = U256::ZERO.sbb(&U256::ONE);
        assert!(borrow);
        assert_eq!(diff, U256::MAX);
        let (diff, borrow) = U256::from_u64(5).sbb(&U256::from_u64(3));
        assert!(!borrow);
        assert_eq!(diff, U256::from_u64(2));
    }

    #[test]
    fn widening_mul_small() {
        let a = U256::from_u64(u64::MAX);
        let b = U256::from_u64(u64::MAX);
        let prod = a.widening_mul(&b);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        let expect = ((u64::MAX as u128) * (u64::MAX as u128)).to_be_bytes();
        let (lo, hi) = prod.split();
        assert_eq!(hi, U256::ZERO);
        assert_eq!(lo.to_u128().unwrap().to_be_bytes(), expect);
    }

    #[test]
    fn widening_mul_max() {
        // (2^256-1)^2 = 2^512 - 2^257 + 1
        let prod = U256::MAX.widening_mul(&U256::MAX);
        let (lo, hi) = prod.split();
        assert_eq!(lo, U256::ONE);
        // hi = 2^256 - 2 (all ones except lowest bit).
        let mut expect = U256::MAX;
        expect = expect.wrapping_sub(&U256::ONE);
        assert_eq!(hi, expect);
    }

    #[test]
    fn widening_square_is_widening_mul_by_itself() {
        let max = u64::MAX;
        let mut values = vec![
            U256::ZERO,
            U256::ONE,
            U256::MAX,
            U256::from_limbs([max, 0, max, 0]),
            U256::from_limbs([0, max, 0, max]),
            U256::from_limbs([0, 0, 0, max]),
            U256::from_limbs([max, max, max, 1 << 63]),
            U256::ONE.shl(255),
        ];
        let mut rng = StdRng::seed_from_u64(0x5A);
        for _ in 0..200 {
            values.push(U256::from_limbs(std::array::from_fn(|_| rng.next_u64())));
        }
        for v in &values {
            assert_eq!(v.widening_square(), v.widening_mul(v), "{v}");
        }
    }

    #[test]
    fn shifts() {
        let v = U256::from_u64(1).shl(200);
        assert!(v.bit(200));
        assert_eq!(v.shr(200), U256::ONE);
        assert_eq!(U256::from_u64(0b1010).shr(1), U256::from_u64(0b101));
        assert_eq!(U256::from_u64(1).shl(64).limbs()[1], 1);
    }

    #[test]
    fn bits_window_extraction() {
        let v =
            U256::from_be_hex("00000000000000000000000000000000deadbeefcafebabe0123456789abcdef");
        // Windows agree with the per-bit reference at every offset/width.
        for start in (0..256).step_by(7) {
            for width in [1usize, 4, 11, 13, 52, 64] {
                let mut expect = 0u64;
                let mut i = width;
                while i > 0 {
                    i -= 1;
                    if start + i < 256 {
                        expect = (expect << 1) | v.bit(start + i) as u64;
                    } else {
                        expect <<= 1;
                    }
                }
                assert_eq!(v.bits(start, width), expect, "start={start} width={width}");
            }
        }
        // Limb boundary spill and top-of-range overhang.
        assert_eq!(U256::MAX.bits(60, 8), 0xFF);
        assert_eq!(U256::MAX.bits(250, 10), 0x3F);
        assert_eq!(U256::ONE.bits(0, 64), 1);
    }

    #[test]
    fn bit_len() {
        assert_eq!(U256::ZERO.bit_len(), 0);
        assert_eq!(U256::ONE.bit_len(), 1);
        assert_eq!(U256::from_u64(255).bit_len(), 8);
        assert_eq!(U256::MAX.bit_len(), 256);
        assert_eq!(U256::ONE.shl(255).bit_len(), 256);
    }

    #[test]
    fn ordering() {
        let a = U256::from_u64(1).shl(192);
        let b = U256::from_u64(u64::MAX);
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn reduce_once_mod_top_heavy() {
        let p =
            U256::from_be_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
        assert_eq!(p.reduce_once(&p), U256::ZERO);
        let below = p.wrapping_sub(&U256::ONE);
        assert_eq!(below.reduce_once(&p), below);
        let above = p.wrapping_add(&U256::from_u64(7));
        assert_eq!(above.reduce_once(&p), U256::from_u64(7));
    }

    #[test]
    fn u512_split_round_trip() {
        let a =
            U256::from_be_hex("00000000000000010000000000000002000000000000000300000000000000f4");
        let w = U512::from_u256(&a);
        let (lo, hi) = w.split();
        assert_eq!(lo, a);
        assert_eq!(hi, U256::ZERO);
    }

    #[test]
    fn const_evaluation_works() {
        // Ensure the const-fn paths actually evaluate at compile time.
        const P: U256 =
            U256::from_be_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
        const SUM: U256 = P.wrapping_add(&U256::ONE);
        assert!(SUM.const_cmp(&P) > 0);
    }
}
