//! Multi-scalar multiplication (MSM): computing `Σ kᵢ·Pᵢ`.
//!
//! Pedersen vector commitments are exactly one MSM, so this is the hot path
//! the paper identifies as the verifiability bottleneck (§V, Fig. 3). Two
//! entry points compute it, and neither takes a kernel choice:
//!
//! * [`eval`] — an MSM over points with no precomputation. Below 32 points
//!   it runs the interleaved width-5 wNAF walk (Straus): every term's
//!   signed digits ride **one** shared doubling chain, adding from per-point
//!   affine odd multiples `1P, 3P … 15P`, so `n` terms cost one ladder's
//!   doublings instead of `n` ladders'. From 32 points it runs Pippenger's
//!   bucket method — the multi-exponentiation optimization the paper cites
//!   as future work ([Möller '01; Borges et al. '17]) — with the bucket
//!   contents summed in *affine* coordinates, batching the per-addition
//!   division across every bucket with Montgomery's simultaneous-inversion
//!   trick ([`Fp::batch_invert`]): ~6 field multiplications an addition
//!   amortized, against ~11 for a mixed Jacobian one.
//! * [`MsmTable::eval`] — fixed-base precomputation: windowed shift tables
//!   (`2^(w·c)·Pᵢ`) built once per point set collapse the entire MSM into a
//!   **single** batch-affine bucket pass with no doubling chain at all.
//!   This is the commitment fast path; [`crate::pedersen::CommitKey`]
//!   builds one per task. A small point set's table also keeps the odd
//!   multiples and takes the interleaved walk over them whenever the
//!   scalars in the call are short enough that the bucket pass's fixed
//!   cost (running sum, shared inversions) exceeds the whole walk.
//!
//! [`naive`] — one plain double-and-add per term, summed — is the oracle
//! every kernel is tested against, and it models the paper's "rather
//! straight-forward" Bouncy Castle implementation: Fig. 3's baseline.
//!
//! **Cost follows the scalar's real length.** Every kernel but the naive
//! baseline reads digits from a term's *centred* sign and magnitude
//! ([`Multiplier`]), adds the *negated* point or table entry for a negative
//! one — free in affine coordinates, one field subtraction — and stops at
//! the magnitude's bit length (the bucket passes: at the longest magnitude
//! in the call). The protocol's openings are fixed-point integers
//! ([`Quantized`]), and an integer's sign and `|v|` are its own: the digits
//! come from a `u64` with no field embedding and no conversion back. A
//! [`Scalar`]'s are those of its representative in `[−(n−1)/2, (n−1)/2]`
//! (`k` if `k ≤ (n−1)/2`, else `−(n − k)`), read out of the field once per
//! call, so a negative `v` embedded as the 256-bit `n − |v|` costs what
//! its ≤ 40-bit magnitude costs: at most 4 of a d = 8 192 table's 22
//! windows instead of all of them. An integer and its embedding give the
//! same group element, so commitments are byte-identical whichever was
//! committed to. [`naive`] deliberately stays on the canonical
//! representative: it is the paper's implementation, and Fig. 3's baseline.
//!
//! **A large bucket pass uses every core.** A pass worth at least
//! `SPLIT_MIN_MULS` field products — a d = 8 193 commitment or batch
//! check, never a d = 33 one — splits its buckets into contiguous ranges of
//! about equal work, one per core, on scoped threads. The pass counts its
//! buckets' sizes in one cheap pass over the digits; then each range reads
//! the digits again itself, gathers only its own buckets' points, sums and
//! running-sums them, and the ranges' shares are added in a fixed order. No
//! list of entries is built. Elliptic-curve addition is exact, so the result
//! is the same group element whatever the split, and its affine
//! (serialised) form is bit-identical: simulated time, event order and
//! every byte stay put. A table's build splits its bases the same way.
//!
//! **A running sum over thousands of buckets is two short ones.** From
//! about 130 buckets a range sums its buckets into rows and columns by the
//! digit's low and high bits, batch-affine, and runs a running sum over
//! each (`row_column_sum`): ≈ 54 k field products at 4 095 buckets, where
//! the one-level sum costs ≈ 115 k. The choice is an operation count.
//!
//! ```
//! use dfl_crypto::curve::{Affine, Curve, Scalar, Secp256k1};
//! use dfl_crypto::msm;
//!
//! let points = vec![Secp256k1::generator(); 4];
//! let scalars: Vec<_> = (1..=4u64).map(Scalar::<Secp256k1>::from_u64).collect();
//! let sum = msm::eval(&points, &scalars);
//! assert_eq!(sum, Secp256k1::generator().mul(&Scalar::<Secp256k1>::from_u64(10)));
//! assert_eq!(sum, msm::naive(&points, &scalars));
//! ```

use std::num::NonZeroUsize;
use std::sync::OnceLock;

use crate::bigint::U256;
use crate::curve::{wnaf_digits, Affine, Curve, Jacobian, Scalar};
use crate::field::Fp;
use crate::quantize::Quantized;

/// From this many points an untabled MSM runs the batch-affine bucket
/// method; below it, one interleaved wNAF walk.
const BUCKET_MIN_POINTS: usize = 32;

/// Computes `Σ kᵢ·Pᵢ` without precomputation: the interleaved wNAF walk
/// below 32 points, the batch-affine bucket method from 32. The
/// multipliers are [`Scalar`]s or fixed-point [`Quantized`] integers.
///
/// # Panics
///
/// Panics if `points` and `scalars` have different lengths.
pub fn eval<C: Curve, K: Multiplier<C>>(points: &[Affine<C>], scalars: &[K]) -> Jacobian<C> {
    assert_eq!(
        points.len(),
        scalars.len(),
        "points/scalars length mismatch"
    );
    let terms = centred(scalars);
    if points.len() < BUCKET_MIN_POINTS {
        interleaved_wnaf(&odd_multiples(points), &terms)
    } else {
        pippenger_batch_affine(points, &terms)
    }
}

/// Naive MSM: independent double-and-add per term over the *canonical*
/// representative, deliberately unoptimized. It models the paper's
/// implementation (a negative coordinate's `n − |v|` costs all 256 bits),
/// is Fig. 3's baseline, and is the oracle every kernel is tested against.
///
/// # Panics
///
/// Panics if `points` and `scalars` have different lengths.
pub fn naive<C: Curve>(points: &[Affine<C>], scalars: &[Scalar<C>]) -> Jacobian<C> {
    assert_eq!(
        points.len(),
        scalars.len(),
        "points/scalars length mismatch"
    );
    let mut acc = Jacobian::identity();
    for (p, k) in points.iter().zip(scalars) {
        let bits = k.to_canonical();
        let mut term = Jacobian::identity();
        for i in (0..bits.bit_len()).rev() {
            term = term.double();
            if bits.bit(i) {
                term = term.add_affine(p);
            }
        }
        acc = acc.add(&term);
    }
    acc
}

// ---------------------------------------------------------------------------
// What the kernels multiply by
// ---------------------------------------------------------------------------

/// A multiplier the MSM kernels take: a [`Scalar`], or a fixed-point
/// [`Quantized`] integer — the protocol's openings. Every kernel but
/// [`naive`] reads a term's digits from its centred sign and magnitude
/// ([`Multiplier::centred`]), which for an integer are its own sign and
/// `|v|` as a `u64`: no field embedding and no conversion back. An integer
/// gives the group element its embedding [`Quantized::to_scalar`] gives.
pub trait Multiplier<C: Curve> {
    /// The magnitude's type: [`U256`] for a scalar, `u64` for an integer.
    type Magnitude: Magnitude;

    /// Sign and magnitude of the centred representative: `(true, |v|)` for
    /// a negative value.
    fn centred(&self) -> (bool, Self::Magnitude);
}

impl<C: Curve> Multiplier<C> for Scalar<C> {
    type Magnitude = U256;

    fn centred(&self) -> (bool, U256) {
        self.to_centred()
    }
}

impl<C: Curve> Multiplier<C> for Quantized {
    type Magnitude = u64;

    fn centred(&self) -> (bool, u64) {
        (self.0 < 0, self.0.unsigned_abs())
    }
}

/// An unsigned magnitude a kernel reads its digits from.
pub trait Magnitude: Copy + Send + Sync {
    /// Number of bits required to represent the value (0 for zero).
    fn bit_len(&self) -> usize;

    /// The `width ≤ 16` bits from bit `start` up; `start` lies below the
    /// type's own width, and bits past the top read as zero.
    fn digit(&self, start: usize, width: usize) -> usize;

    /// The value as a [`U256`], the wNAF recoding's input.
    fn to_u256(&self) -> U256;
}

impl Magnitude for U256 {
    fn bit_len(&self) -> usize {
        U256::bit_len(self)
    }

    fn digit(&self, start: usize, width: usize) -> usize {
        self.bits(start, width) as usize
    }

    fn to_u256(&self) -> U256 {
        *self
    }
}

impl Magnitude for u64 {
    fn bit_len(&self) -> usize {
        (u64::BITS - self.leading_zeros()) as usize
    }

    fn digit(&self, start: usize, width: usize) -> usize {
        (self >> start & ((1 << width) - 1)) as usize
    }

    fn to_u256(&self) -> U256 {
        U256::from_u64(*self)
    }
}

/// Every multiplier's centred `(negative, magnitude)`, read once per call.
fn centred<C: Curve, K: Multiplier<C>>(scalars: &[K]) -> Vec<(bool, K::Magnitude)> {
    scalars.iter().map(K::centred).collect()
}

/// The bit length of the longest magnitude among `terms`.
fn longest<M: Magnitude>(terms: &[(bool, M)]) -> usize {
    terms.iter().map(|(_, m)| m.bit_len()).max().unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Fixed-base precomputation tables
// ---------------------------------------------------------------------------

/// Fixed-base windowed precomputation for an MSM point set.
///
/// For each base point `Pᵢ` the table stores the shifted points
/// `2^(w·c)·Pᵢ` for every `c`-bit digit window `w` (`c` =
/// [`MsmTable::window`], chosen at build time to minimize the evaluation
/// cost for the set's size). Every scalar then decomposes into digits that
/// each select *one* precomputed point (negated for a negative centred
/// representative), so evaluation is a single bucket-accumulation pass
/// over at most `Σᵢ ⌈bitsᵢ/c⌉` points — `bitsᵢ` the bit length of scalar
/// `i`'s centred magnitude, so `n·⌈bits/c⌉` for same-length scalars, and
/// `n·⌈256/c⌉` only when they are full-width — followed by one running
/// sum over the `2^c − 1` buckets; no doubling chain. Bucket contents are
/// summed in affine coordinates with a shared batched inversion per round
/// ([`Fp::batch_invert`]).
///
/// That pass has a fixed cost whatever the scalars' length — the running
/// sum and two to four shared inversions (`bucket_pass_muls`) — which for
/// a small point set and short scalars is more than a whole interleaved
/// wNAF walk (`interleaved_walk_muls`). A table over a point set small
/// enough for that to happen also keeps each base's affine odd multiples
/// `1P, 3P … 15P`, and [`MsmTable::eval`] walks them instead whenever the
/// operation counts say so for the call's `n` and longest magnitude.
///
/// Build cost is ~256 doublings per point (about one naive scalar
/// multiplication per point) plus one batch normalization per block of
/// bases, paid once per task and split across cores like a large pass;
/// memory is `⌈256/c⌉` affine points per base point (plus 8 where the odd
/// multiples are kept).
#[derive(Clone, Debug)]
pub struct MsmTable<C: Curve> {
    window: usize,
    digits: usize,
    shifts: Vec<Affine<C>>,
    /// [`odd_multiples`] of the base points, or empty when the point set is
    /// too large for the interleaved walk to win a call worth planning for.
    odd: Vec<Affine<C>>,
}

impl<C: Curve> MsmTable<C> {
    /// Builds a table for `points` with a window chosen by
    /// [`MsmTable::suggested_window`].
    pub fn build(points: &[Affine<C>]) -> MsmTable<C> {
        MsmTable::with_window(points, MsmTable::<C>::suggested_window(points.len()))
    }

    /// Builds a table with an explicit `window` size in bits.
    ///
    /// # Panics
    ///
    /// Panics if `window` is outside `1..=16`.
    fn with_window(points: &[Affine<C>], window: usize) -> MsmTable<C> {
        assert!(
            (1..=16).contains(&window),
            "table window must be in 1..=16 bits"
        );
        let n = points.len();
        let walk_can_win = interleaved_walk_muls(n, SHORTEST_PLANNED_BITS)
            < bucket_pass_muls(n, SHORTEST_PLANNED_BITS, window);
        MsmTable {
            window,
            digits: 256usize.div_ceil(window),
            shifts: shift_rows(points, window, ranges_for(n * 256 * DOUBLING_MULS)),
            odd: if walk_can_win {
                odd_multiples(points)
            } else {
                Vec::new()
            },
        }
    }

    /// The window size that minimizes the estimated evaluation cost for an
    /// MSM over `n` points with full-width scalars: `n·⌈256/c⌉`
    /// batch-affine additions (~6 field muls each) plus a running sum over
    /// `2^c` buckets (~14 muls per Jacobian op). Shorter scalars use fewer
    /// of the same windows; the window is a property of the stored table,
    /// so it stays sized for the widest input the key must accept.
    pub fn suggested_window(n: usize) -> usize {
        let n = n.max(1);
        let cost = |c: usize| 6 * n * 256usize.div_ceil(c) + 14 * (1usize << (c + 1));
        (5..=16).fold(4, |best, c| if cost(c) < cost(best) { c } else { best })
    }

    /// The digit window size in bits.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of base points the table covers.
    pub fn len(&self) -> usize {
        self.shifts.len() / self.digits
    }

    /// `true` if the table covers no points.
    pub fn is_empty(&self) -> bool {
        self.shifts.is_empty()
    }

    /// Approximate heap footprint in bytes (for capacity planning).
    pub fn memory_bytes(&self) -> usize {
        (self.shifts.len() + self.odd.len()) * std::mem::size_of::<Affine<C>>()
    }

    /// Evaluates `Σ kᵢ·Pᵢ` over the first `scalars.len()` base points, the
    /// multipliers [`Scalar`]s or [`Quantized`] integers: one bucket pass
    /// over every (point, nonzero digit) pair, then a single running sum,
    /// split across cores when the pass is large — or, where the odd
    /// multiples are kept and the operation counts for this many scalars of
    /// this length favour it, the interleaved walk.
    ///
    /// # Panics
    ///
    /// Panics if `scalars` is longer than the table.
    pub fn eval<K: Multiplier<C>>(&self, scalars: &[K]) -> Jacobian<C> {
        assert!(
            scalars.len() <= self.len(),
            "scalar vector length {} exceeds table length {}",
            scalars.len(),
            self.len()
        );
        let terms = centred(scalars);
        let bits = longest(&terms);
        if !self.odd.is_empty()
            && interleaved_walk_muls(terms.len(), bits)
                < bucket_pass_muls(terms.len(), bits, self.window)
        {
            return interleaved_wnaf(&self.odd, &terms);
        }
        bucket_pass((1 << self.window) - 1, &self.digits_of(&terms))
    }

    /// The bucket entries of `terms` over the table's rows of shifts.
    fn digits_of<'a, M>(&'a self, terms: &'a [(bool, M)]) -> Digits<'a, C, M> {
        Digits {
            rows: &self.shifts,
            stride: self.digits,
            first: 0,
            window: self.window,
            terms,
        }
    }
}

/// The bucket entries of centred terms over rows of points, `stride`
/// points a term: a nonzero digit `d` of window `w` puts the row's point
/// for `w` in bucket `d − 1`, negated for a negative term (one field
/// subtraction in affine). Row `i` serves windows `first .. first +
/// stride` of term `i`, up to its magnitude's top digit. A table's rows
/// are its shifts, every window from the first; a Pippenger window's are
/// the bases themselves, one window each. So the table pass, the untabled
/// bucket method and — through [`Magnitude`] — the interleaved walk read
/// one digit source.
struct Digits<'a, C: Curve, M> {
    rows: &'a [Affine<C>],
    stride: usize,
    first: usize,
    window: usize,
    terms: &'a [(bool, M)],
}

impl<C: Curve, M: Magnitude> Entries<C> for Digits<'_, C, M> {
    fn each(&self, mut f: impl FnMut(usize, &Affine<C>, bool)) {
        let c = self.window;
        let rows = self.rows.chunks_exact(self.stride);
        for (&(negative, magnitude), row) in self.terms.iter().zip(rows) {
            let end = magnitude.bit_len().div_ceil(c);
            for (w, point) in (self.first..end).zip(row) {
                let digit = magnitude.digit(w * c, c);
                if digit != 0 {
                    f(digit - 1, point, negative);
                }
            }
        }
    }
}

/// Bases a table thread doubles in Jacobian form before it normalises them
/// with one shared inversion: at c = 12 a block's rows are ≈ 270 KB, all
/// the scratch a thread holds, where the whole key's are 17 MB.
const NORMALIZE_BLOCK: usize = 128;

/// Every base's shifts `2^(w·c)·Pᵢ`, `⌈256/c⌉` consecutive affine entries
/// a base. The bases split into at most `ranges` contiguous runs, each on
/// its own thread, and each run writes its own part of one output vector
/// allocated here. A thread doubles [`NORMALIZE_BLOCK`] bases at a time
/// and normalises them straight into its part, reusing one block's
/// Jacobian rows and `Z`s. Affine form is canonical, so the table's bytes
/// do not depend on the split.
fn shift_rows<C: Curve>(points: &[Affine<C>], window: usize, ranges: usize) -> Vec<Affine<C>> {
    let digits = 256usize.div_ceil(window);
    let mut shifts = vec![Affine::identity(); points.len() * digits];
    let per_range = points.len().div_ceil(ranges).max(1);
    let parts: Vec<_> = points
        .chunks(per_range)
        .zip(shifts.chunks_mut(per_range * digits))
        .collect();
    map_split(parts, |(points, out)| {
        let mut jac = Vec::with_capacity(points.len().min(NORMALIZE_BLOCK) * digits);
        let mut zs = Vec::with_capacity(jac.capacity());
        let blocks = out.chunks_mut(NORMALIZE_BLOCK * digits);
        for (block, out) in points.chunks(NORMALIZE_BLOCK).zip(blocks) {
            jac.clear();
            for p in block {
                let mut cur = p.to_jacobian();
                jac.push(cur);
                for _ in 1..digits {
                    for _ in 0..window {
                        cur = cur.double();
                    }
                    jac.push(cur);
                }
            }
            Jacobian::batch_normalize_into(&jac, &mut zs, out);
        }
    });
    shifts
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

/// Digit width of the interleaved wNAF kernel: digits are odd, below
/// `2^(WNAF_WIDTH − 1)` in magnitude, and on average one position in
/// `WNAF_WIDTH + 1` holds one.
const WNAF_WIDTH: u32 = 5;

/// Odd multiples `1P, 3P … 15P` the kernel keeps per point.
const ODD_MULTIPLES: usize = 1 << (WNAF_WIDTH - 2);

/// The odd multiples of every point, [`ODD_MULTIPLES`] consecutive entries
/// per point, brought to affine with one shared inversion.
fn odd_multiples<C: Curve>(points: &[Affine<C>]) -> Vec<Affine<C>> {
    let mut multiples = Vec::with_capacity(points.len() * ODD_MULTIPLES);
    for p in points {
        let mut cur = p.to_jacobian();
        let twice = cur.double();
        multiples.push(cur);
        for _ in 1..ODD_MULTIPLES {
            cur = cur.add(&twice);
            multiples.push(cur);
        }
    }
    Jacobian::batch_normalize(&multiples)
}

/// Field products and squarings, by operation count, of
/// [`interleaved_wnaf`] over `n` scalars of at most `bits` bits: a Jacobian
/// doubling (2M + 5S on secp256k1, whose `a = 0` term folds away) per bit
/// and a mixed addition (7M + 4S) per non-zero digit.
fn interleaved_walk_muls(n: usize, bits: usize) -> usize {
    DOUBLING_MULS * bits + 11 * n * bits.div_ceil(WNAF_WIDTH as usize + 1)
}

/// Field products and squarings of one Jacobian doubling on secp256k1.
const DOUBLING_MULS: usize = 7;

/// The same count for one [`MsmTable`] bucket pass with a `window`-bit
/// table over the same input: a batch-affine addition (≈ 6) per table digit,
/// and — whatever the scalars' length — the running sum over the `2^c − 1`
/// buckets ([`running_sum_muls`]) and about three Fermat inversions, one per
/// batch-affine round. Against the clock the two counts cross where the
/// kernels do for n ≤ 64 (n = 33: ≈ 80 bits either way); from n ≈ 128 to
/// the few hundred bases that still keep odd multiples the pass runs
/// cheaper than counted, so a call within a few bits of the crossing can
/// take the walk at a loss of about a tenth (EXPERIMENTS.md has the table).
fn bucket_pass_muls(n: usize, bits: usize, window: usize) -> usize {
    AFFINE_ADD_MULS * n * bits.div_ceil(window)
        + running_sum_muls((1 << window) - 1)
        + 3 * FERMAT_MULS
}

/// Field products of one batch-affine addition, its share of the round's
/// shared inversion included.
const AFFINE_ADD_MULS: usize = 6;

/// Field products one bucket adds to the one-level running sum: a mixed and
/// a full Jacobian addition.
const RUNNING_SUM_MULS: usize = 28;

/// Field products of one Fermat inversion or square root: 256 squarings and
/// [`Fp::pow`]'s ≈ 78 windowed products.
pub(crate) const FERMAT_MULS: usize = 335;

/// The shortest call a table is planned for: one whose longest entry is a
/// single fixed-point unit ([`crate::quantize::SCALE`]). A point set on
/// which the walk loses even that call gets no odd multiples.
const SHORTEST_PLANNED_BITS: usize = crate::quantize::FRACTIONAL_BITS as usize + 1;

/// Interleaved width-5 wNAF (Straus): `Σ ±|kᵢ|·Pᵢ` over centred
/// `(negative, magnitude)` scalars and the points' [`odd_multiples`].
/// Every magnitude's signed digits ride one doubling chain as long as the
/// longest of them, each non-zero digit costing one mixed addition of a
/// stored multiple (negated for a negative digit or scalar, not both).
/// With one term this is the classic wNAF ladder.
fn interleaved_wnaf<C: Curve, M: Magnitude>(
    odd: &[Affine<C>],
    centred: &[(bool, M)],
) -> Jacobian<C> {
    let digits: Vec<Vec<i8>> = centred
        .iter()
        .map(|(_, magnitude)| wnaf_digits(&magnitude.to_u256(), WNAF_WIDTH))
        .collect();
    let longest = digits.iter().map(Vec::len).max().unwrap_or(0);
    let mut acc = Jacobian::identity();
    for position in (0..longest).rev() {
        acc = acc.double();
        let rows = odd.chunks_exact(ODD_MULTIPLES);
        for ((row, naf), (negative, _)) in rows.zip(&digits).zip(centred) {
            match naf.get(position) {
                None | Some(0) => {}
                Some(&digit) => {
                    let multiple = row[usize::from(digit.unsigned_abs()) / 2];
                    acc = acc.add_affine(&if (digit < 0) != *negative {
                        multiple.negate()
                    } else {
                        multiple
                    });
                }
            }
        }
    }
    acc
}

/// Pippenger with batch-affine bucket accumulation: one bucket pass per
/// window over the terms' digits in it ([`Digits`]), the window sums then
/// combined by `c` doublings each.
fn pippenger_batch_affine<C: Curve, M: Magnitude>(
    points: &[Affine<C>],
    terms: &[(bool, M)],
) -> Jacobian<C> {
    let n = points.len();
    if n == 0 {
        return Jacobian::identity();
    }
    let c = window_size(n);
    let window_sums: Vec<Jacobian<C>> = (0..longest(terms).div_ceil(c))
        .map(|w| bucket_pass((1 << c) - 1, &window_digits(points, terms, w, c)))
        .collect();

    let mut acc = Jacobian::identity();
    for sum in window_sums.iter().rev() {
        for _ in 0..c {
            acc = acc.double();
        }
        acc = acc.add(sum);
    }
    acc
}

/// Pippenger window `w`'s bucket entries: each base with its term's digit
/// in bits `w·c .. (w + 1)·c`.
fn window_digits<'a, C: Curve, M>(
    points: &'a [Affine<C>],
    terms: &'a [(bool, M)],
    w: usize,
    c: usize,
) -> Digits<'a, C, M> {
    Digits {
        rows: points,
        stride: 1,
        first: w,
        window: c,
        terms,
    }
}

/// Sums each bucket — the first `lens[i]` of `sizes[i]` consecutive slots
/// of `points`, bucket after bucket — by repeated rounds of pairwise affine
/// additions in place, amortizing the per-addition field division with one
/// [`Fp::batch_invert`] per round across *all* buckets. Returns one sum per
/// bucket: the identity for an empty bucket or one that cancels.
///
/// An affine addition `P + Q` needs `λ = (y_Q − y_P)/(x_Q − x_P)` (or
/// `λ = (3x² + a)/(2y)` when doubling); batching the denominators makes
/// each addition cost ~6 field multiplications amortized. Inverse pairs
/// (`x_P = x_Q`, `y_P = −y_Q`) sum to the identity and are dropped; the
/// curves have prime (odd) order, so no point has `y = 0` and the
/// doubling denominator is never zero.
fn batch_affine_sum_buckets<C: Curve>(
    points: &mut [Affine<C>],
    sizes: &[usize],
    mut lens: Vec<usize>,
) -> Vec<Affine<C>> {
    let starts = offsets(sizes);
    let mut nums: Vec<Fp<C::Base>> = Vec::new();
    let mut dens: Vec<Fp<C::Base>> = Vec::new();
    loop {
        // Phase 1: one numerator/denominator per addable pair, across all
        // buckets in index order. A zero denominator marks an inverse pair
        // (result = identity); batch_invert leaves zeros untouched, which
        // phase 2 uses to drop them.
        nums.clear();
        dens.clear();
        for (&start, &len) in starts.iter().zip(&lens) {
            for pair in points[start..start + len].chunks_exact(2) {
                let (p, q) = (&pair[0], &pair[1]);
                if p.x() == q.x() {
                    if p.y() == q.y() {
                        let xx = p.x().square();
                        nums.push(xx.double() + xx + C::a());
                        dens.push(p.y().double());
                    } else {
                        nums.push(Fp::ZERO);
                        dens.push(Fp::ZERO);
                    }
                } else {
                    nums.push(q.y() - p.y());
                    dens.push(q.x() - p.x());
                }
            }
        }
        if nums.is_empty() {
            break;
        }
        Fp::batch_invert(&mut dens);

        // Phase 2: apply the additions, halving each bucket's list.
        let mut pair_idx = 0;
        for (&start, len) in starts.iter().zip(&mut lens) {
            let bucket = &mut points[start..start + *len];
            let pairs = bucket.len() / 2;
            let mut out = 0;
            for i in 0..pairs {
                let (p, q) = (bucket[2 * i], bucket[2 * i + 1]);
                let den_inv = dens[pair_idx];
                let num = nums[pair_idx];
                pair_idx += 1;
                if den_inv.is_zero() {
                    continue; // inverse pair: contributes the identity
                }
                let lambda = num * den_inv;
                let x3 = lambda.square() - p.x() - q.x();
                let y3 = lambda * (p.x() - x3) - p.y();
                bucket[out] = Affine::from_xy_unchecked(x3, y3);
                out += 1;
            }
            if bucket.len() % 2 == 1 {
                bucket[out] = bucket[bucket.len() - 1];
                out += 1;
            }
            *len = out;
        }
    }
    starts
        .iter()
        .zip(&lens)
        .map(|(&start, &len)| {
            if len == 0 {
                Affine::identity()
            } else {
                points[start]
            }
        })
        .collect()
}

/// Running-sum bucket combine over affine bucket sums:
/// `(Σ (i+1)·Bᵢ, Σ Bᵢ)` with `2·len` point additions — the total, and the
/// running sum it ends on.
fn bucket_running_sum<C: Curve>(sums: &[Affine<C>]) -> (Jacobian<C>, Jacobian<C>) {
    let mut running = Jacobian::identity();
    let mut total = Jacobian::identity();
    for s in sums.iter().rev() {
        running = running.add_affine(s);
        total = total.add(&running);
    }
    (total, running)
}

/// [`bucket_running_sum`]'s `(Σ e·B_e, Σ B_e)`, digit `e` = index + 1, by
/// whichever of it and [`row_column_sum`] costs fewer field products for
/// this many buckets ([`running_sum_muls`]).
fn running_sum<C: Curve>(sums: &[Affine<C>]) -> (Jacobian<C>, Jacobian<C>) {
    if row_column_muls(sums.len()) < RUNNING_SUM_MULS * sums.len() {
        row_column_sum(sums)
    } else {
        bucket_running_sum(sums)
    }
}

/// The same pair as [`bucket_running_sum`] at about half its price over
/// thousands of buckets. Write each digit `e = a + 2^h·b` with `a < 2^h`:
/// row `R_a` sums the buckets whose digit has low part `a`, column `S_b`
/// those with high part `b`. Then `Σ e·B_e = Σ a·R_a + 2^h·Σ b·S_b` and
/// `Σ B_e = Σ R_a`. Every non-empty bucket enters one row and one column,
/// all summed batch-affine in one [`batch_affine_sum_buckets`] call; two
/// short running sums and `h` doublings finish it.
fn row_column_sum<C: Curve>(sums: &[Affine<C>]) -> (Jacobian<C>, Jacobian<C>) {
    let (h, rows, columns) = row_column_shape(sums.len());
    let lines = Lines { sums, h };
    let sizes = bucket_sizes(rows + columns, &lines);
    let (mut points, lens) = gather(&lines, &sizes, 0);
    let lines = batch_affine_sum_buckets(&mut points, &sizes, lens);
    let (row_sums, column_sums) = lines.split_at(rows);
    let (low, rows_total) = bucket_running_sum(&row_sums[1..]);
    let (mut high, _) = bucket_running_sum(&column_sums[1..]);
    for _ in 0..h {
        high = high.double();
    }
    (high.add(&low), rows_total.add_affine(&row_sums[0]))
}

/// [`row_column_sum`]'s entries: bucket `e`'s sum in row `e mod 2^h`,
/// which is line `e mod 2^h`, and in column `e >> h`, which is line
/// `2^h + (e >> h)`.
struct Lines<'a, C: Curve> {
    sums: &'a [Affine<C>],
    h: usize,
}

impl<C: Curve> Entries<C> for Lines<'_, C> {
    fn each(&self, mut f: impl FnMut(usize, &Affine<C>, bool)) {
        let rows = 1 << self.h;
        for (e, sum) in (1..).zip(self.sums) {
            f(e & (rows - 1), sum, false);
            f(rows + (e >> self.h), sum, false);
        }
    }
}

/// `(h, 2^h, columns)` of [`row_column_sum`] over `buckets` buckets
/// (digits `1 ..= buckets`): `h` about half the digits' bits, so rows and
/// columns are about equally many.
fn row_column_shape(buckets: usize) -> (usize, usize, usize) {
    let h = (usize::BITS - buckets.leading_zeros()).div_ceil(2) as usize;
    (h, 1 << h, (buckets >> h) + 1)
}

/// Field products of [`row_column_sum`] over `buckets` buckets: two
/// batch-affine additions a bucket, the two running sums, `h` doublings,
/// and one Fermat inversion a batch-affine round — as many rounds as the
/// longest row or column has halvings.
fn row_column_muls(buckets: usize) -> usize {
    let (h, rows, columns) = row_column_shape(buckets);
    let rounds = (usize::BITS - (rows.max(columns) - 1).leading_zeros()) as usize;
    2 * AFFINE_ADD_MULS * buckets
        + RUNNING_SUM_MULS * (rows + columns)
        + DOUBLING_MULS * h
        + FERMAT_MULS * rounds
}

/// Field products of the running sum [`running_sum`] runs over `buckets`
/// buckets.
fn running_sum_muls(buckets: usize) -> usize {
    row_column_muls(buckets).min(RUNNING_SUM_MULS * buckets)
}

/// Chooses the Pippenger window size for `n` terms (≈ log₂ n − 2, clamped).
fn window_size(n: usize) -> usize {
    let log = usize::BITS as usize - n.leading_zeros() as usize; // ⌈log2⌉-ish
    log.saturating_sub(2).clamp(1, 16)
}

// ---------------------------------------------------------------------------
// Splitting a pass across cores
// ---------------------------------------------------------------------------

/// A bucket pass's input: the `(bucket, point, negated)` entries it sums,
/// streamed in a fixed order from the terms' digits. A pass streams them
/// once to count each bucket's size ([`bucket_sizes`]) and once more on
/// each range thread, which keeps only its own buckets' points
/// ([`gather`]), so no entry list is ever built.
trait Entries<C: Curve>: Sync {
    /// Calls `f` on every entry, in order.
    fn each(&self, f: impl FnMut(usize, &Affine<C>, bool));
}

/// `Σ (i+1)·Bᵢ` over `buckets` buckets, `Bᵢ` the sum of the points that
/// `entries` puts in bucket `i`: each bucket summed batch-affine, then the
/// running sum — on every core when the pass, priced by [`bucket_muls`], is
/// worth [`SPLIT_MIN_MULS`].
fn bucket_pass<C: Curve>(buckets: usize, entries: &impl Entries<C>) -> Jacobian<C> {
    let sizes = bucket_sizes(buckets, entries);
    let price = bucket_muls(buckets);
    let muls = sizes.iter().map(|&n| price(n)).sum();
    bucket_pass_split(&sizes, entries, ranges_for(muls))
}

/// How many of `entries` each of `buckets` buckets holds: digits only, no
/// point is read.
fn bucket_sizes<C: Curve>(buckets: usize, entries: &impl Entries<C>) -> Vec<usize> {
    let mut sizes = vec![0; buckets];
    entries.each(|bucket, _, _| sizes[bucket] += 1);
    sizes
}

/// The points `entries` puts in buckets `lo .. lo + sizes.len()` (negated
/// where marked), bucket after bucket: room for `sizes[i]` points in
/// bucket `i`, of which the first `lens[i]` are filled, by those that are
/// not the identity. Entries outside those buckets are skipped.
fn gather<C: Curve>(
    entries: &impl Entries<C>,
    sizes: &[usize],
    lo: usize,
) -> (Vec<Affine<C>>, Vec<usize>) {
    let starts = offsets(sizes);
    let mut next = starts.clone();
    let mut points = vec![Affine::identity(); sizes.iter().sum()];
    entries.each(|bucket, point, negate| {
        if let Some(slot) = bucket.checked_sub(lo).and_then(|i| next.get_mut(i)) {
            if !point.is_identity() {
                points[*slot] = if negate { point.negate() } else { *point };
                *slot += 1;
            }
        }
    });
    let lens = next
        .iter()
        .zip(&starts)
        .map(|(end, start)| end - start)
        .collect();
    (points, lens)
}

/// Where each of consecutive runs of `sizes` items starts.
fn offsets(sizes: &[usize]) -> Vec<usize> {
    sizes
        .iter()
        .scan(0, |end, &size| {
            *end += size;
            Some(*end - size)
        })
        .collect()
}

/// What a bucket of `n` points costs a pass over `buckets` buckets, in
/// field products: its batch-affine additions and its share of the running
/// sum the pass runs ([`running_sum_muls`]).
fn bucket_muls(buckets: usize) -> impl Fn(usize) -> usize {
    let share = running_sum_muls(buckets) / buckets.max(1);
    move |n| AFFINE_ADD_MULS * n + share
}

/// [`bucket_pass`] over at most `ranges` contiguous bucket ranges of about
/// equal [`bucket_muls`], each on its own thread, which reads the terms'
/// digits itself and gathers only its own buckets' points ([`gather`]). Balancing by work, not bucket
/// count, matters: a ≤ 40-bit opening's top 12-bit window only
/// reaches digits below 16, so the lowest 16 buckets hold a quarter of the
/// entries and an equal-count split would hand the lower half ≈ 62 %.
///
/// The range that starts at bucket `lo` sums its buckets and runs its own
/// running sum ([`running_sum`], one- or two-level by its own bucket count),
/// which yields `T = Σ (i − lo + 1)·Bᵢ` and `S = Σ Bᵢ`. Its share of the
/// whole is `T + lo·S`, and the shares are added in range order. The work
/// is the serial pass's plus, per range, a read of the entries, one scalar
/// multiplication by `lo < 2¹⁶` and its own two to four shared inversions;
/// the serial part is one count of the digits.
/// Splitting the *scalars* instead would run the whole `2^c − 1`-bucket
/// running sum once per chunk.
fn bucket_pass_split<C: Curve>(
    sizes: &[usize],
    entries: &impl Entries<C>,
    ranges: usize,
) -> Jacobian<C> {
    let starts = range_starts(sizes, ranges);
    let ends = starts.iter().skip(1).copied().chain([sizes.len()]);
    let bounds: Vec<(usize, usize)> = starts.iter().copied().zip(ends).collect();
    Jacobian::sum(map_split(bounds, |(lo, hi)| {
        let sizes = &sizes[lo..hi];
        let (mut points, lens) = gather(entries, sizes, lo);
        let (t, s) = running_sum(&batch_affine_sum_buckets(&mut points, sizes, lens));
        if lo == 0 {
            t
        } else {
            t.add(&s.mul(&Scalar::<C>::from_u64(lo as u64)))
        }
    }))
}

/// The first bucket of each of at most `ranges` ranges: range `k` starts at
/// the first bucket reached once the buckets before it hold `k / ranges` of
/// the pass's [`bucket_muls`]. Starts at 0 and strictly increases.
fn range_starts(sizes: &[usize], ranges: usize) -> Vec<usize> {
    let price = bucket_muls(sizes.len());
    let total: usize = sizes.iter().map(|&n| price(n)).sum();
    let mut starts = vec![0];
    let mut done = 0;
    for (i, &n) in sizes.iter().enumerate() {
        if starts.len() < ranges && done * ranges >= total * starts.len() {
            starts.push(i);
        }
        done += price(n);
    }
    starts
}

/// Passes priced below this many field products run on the calling thread
/// alone. Splitting one costs a scoped thread spawn and join, a read of the
/// digits and each extra range's own inversions, so it pays only once half
/// the pass is worth more than that. Measured on the reference box (2
/// vCPUs; `split_crossover` here and `accumulate_crossover` in pedersen.rs,
/// ignored tests run by hand with `--release -- --ignored --nocapture`;
/// median of 31 per run, µs; the median of three runs and the worst ratio
/// of the three):
///
/// | pass | products | 1 thread | 2 threads | worst 2 / 1 |
/// |---|---|---|---|---|
/// | d = 33 commit, ≤ 40-bit | 3 120 | 69 | 84 | 1.23 |
/// | d = 33 RLC sum, 170-bit | 7 392 | 172 | 144 | 0.85 |
/// | d = 257, ≤ 40-bit | 14 820 | 293 | 312 | 1.07 |
/// | d = 129, 170-bit | 23 886 | 564 | 493 | 0.92 |
/// | d = 513, ≤ 40-bit | 29 488 | 647 | 568 | 0.99 |
/// | d = 8 193 commit, ≤ 40-bit integers | 246 723 | 8 753 | 5 911 | 0.71 |
/// | d = 8 193 RLC sum, 170-bit | 778 053 | 39 467 | 20 073 | 0.80 |
/// | `Σ rᵢ·vᵢ`, d = 257, n = 8 | 2 056 | 50 | 61 | 1.68 |
/// | `Σ rᵢ·vᵢ`, d = 1 025, n = 8 | 8 200 | 207 | 143 | 0.71 |
/// | `Σ rᵢ·vᵢ`, d = 8 193, n = 15 | 122 895 | 7 163 | 6 292 | 0.88 |
///
/// No pass from 20 000 products up lost a run; the largest d = 33 pass
/// stays a factor of 2.7 below, on one thread, where a spawn per pass
/// would cost CPU for a gain inside the noise. (The products column of
/// the rows above d = 8 193 was priced with the one-level running sum;
/// passes of 130 buckets and more now price and run the two-level one.
/// The d = 8 193 rows are re-measured with each range reading its own
/// digits, the commit's from integers, on a host in a slow phase: the
/// unchanged `Σ rᵢ·vᵢ` pass read 3 834 µs on one thread before.) Key
/// set-up is priced the same way — a d = 33 key's generators and table
/// clear the threshold, an eight-generator key's do not.
///
/// Not a knob: a split changes which thread computes each bucket, never
/// the group element, so no verdict or byte depends on it.
pub(crate) const SPLIT_MIN_MULS: usize = 20_000;

#[cfg(test)]
thread_local! {
    /// Passes on this thread that cleared [`SPLIT_MIN_MULS`] (each splits
    /// across every core): lets a test assert that a path never splits.
    pub(crate) static SPLITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many ranges a pass worth `muls` field products splits into: one
/// below [`SPLIT_MIN_MULS`], from there one per core, but never so many
/// that a range is worth less than half the threshold. The core count is
/// read once per process — it costs tens of microseconds a call — and only
/// by a pass that has cleared the threshold.
pub(crate) fn ranges_for(muls: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if muls < SPLIT_MIN_MULS {
        return 1;
    }
    #[cfg(test)]
    SPLITS.with(|n| n.set(n.get() + 1));
    let cores =
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
    cores.min(2 * muls / SPLIT_MIN_MULS)
}

/// `f` over every part, results in part order: the first part on the
/// calling thread, each other on a scoped thread of its own. A worker's
/// panic is re-raised on the caller.
pub(crate) fn map_split<T: Send, R: Send>(parts: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let f = &f;
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    if parts.len() == 0 {
        return vec![f(first)];
    }
    std::thread::scope(|scope| {
        let workers: Vec<_> = parts.map(|part| scope.spawn(move || f(part))).collect();
        let mut results = Vec::with_capacity(workers.len() + 1);
        results.push(f(first));
        for worker in workers {
            match worker.join() {
                Ok(result) => results.push(result),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        results
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::curve::{Secp256k1, Secp256r1};
    use crate::field::FieldParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type C = Secp256k1;

    fn random_instance(n: usize, seed: u64) -> (Vec<Affine<C>>, Vec<Scalar<C>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<_> = (0..n).map(|_| Affine::<C>::random(&mut rng)).collect();
        let scalars: Vec<_> = (0..n).map(|_| Scalar::<C>::random(&mut rng)).collect();
        (points, scalars)
    }

    /// Every kernel on the same terms, by name: the interleaved walk, the
    /// batch-affine bucket method, one table bucket pass, and the two entry
    /// points, which pick among them.
    fn kernels<K: Curve, S: Multiplier<K>>(
        points: &[Affine<K>],
        scalars: &[S],
    ) -> Vec<(&'static str, Jacobian<K>)> {
        let terms = centred(scalars);
        let table = MsmTable::build(points);
        let buckets = (1 << table.window) - 1;
        let pass = table.digits_of(&terms);
        vec![
            ("walk", interleaved_wnaf(&odd_multiples(points), &terms)),
            ("batch-affine", pippenger_batch_affine(points, &terms)),
            ("table bucket pass", bucket_pass(buckets, &pass)),
            ("eval", eval(points, scalars)),
            ("table", table.eval(scalars)),
        ]
    }

    /// Every kernel gives `expect` on `points` and `scalars`.
    fn assert_kernels_give<K: Curve, S: Multiplier<K>>(
        points: &[Affine<K>],
        scalars: &[S],
        expect: Jacobian<K>,
    ) {
        for (name, got) in kernels(points, scalars) {
            assert_eq!(got, expect, "{name}, n = {}", points.len());
        }
    }

    /// Every kernel agrees with [`naive`].
    fn assert_kernels_match_naive<K: Curve>(points: &[Affine<K>], scalars: &[Scalar<K>]) {
        assert_kernels_give(points, scalars, naive(points, scalars));
    }

    #[test]
    fn empty_input_is_identity() {
        assert!(naive::<C>(&[], &[]).is_identity());
        assert_kernels_give::<C, Scalar<C>>(&[], &[], Jacobian::identity());
        assert!(MsmTable::<C>::build(&[]).is_empty());
    }

    #[test]
    fn single_term_matches_scalar_mul() {
        let (points, scalars) = random_instance(1, 1);
        let expect = points[0].mul(&scalars[0]);
        assert_eq!(naive(&points, &scalars), expect);
        assert_kernels_give(&points, &scalars, expect);
    }

    #[test]
    fn all_kernels_agree_small() {
        for n in [2, 3, 7, 16] {
            let (points, scalars) = random_instance(n, n as u64);
            assert_kernels_match_naive(&points, &scalars);
        }
    }

    #[test]
    fn all_kernels_agree_medium() {
        let (points, scalars) = random_instance(100, 99);
        assert_kernels_match_naive(&points, &scalars);
    }

    #[test]
    fn zero_scalars_yield_identity() {
        let (points, _) = random_instance(8, 42);
        let zeros = vec![Scalar::<C>::ZERO; 8];
        assert!(naive(&points, &zeros).is_identity());
        assert_kernels_give(&points, &zeros, Jacobian::identity());
    }

    #[test]
    fn order_minus_one_scalar() {
        // k = n − 1 ≡ −1: the largest canonical scalar, exercising the top
        // digit window of every decomposition.
        let (points, _) = random_instance(3, 5);
        let minus_one =
            Scalar::<C>::from_canonical(<C as Curve>::Scalar::MODULUS.wrapping_sub(&U256::ONE));
        assert_kernels_match_naive(&points, &[minus_one; 3]);
    }

    #[test]
    fn sparse_scalars() {
        // Mostly zeros with a couple of small values — exercises empty buckets.
        let (points, _) = random_instance(50, 7);
        let mut scalars = vec![Scalar::<C>::ZERO; 50];
        scalars[3] = Scalar::<C>::from_u64(2);
        scalars[47] = Scalar::<C>::from_u64(1 << 30);
        let expect = points[3]
            .mul(&scalars[3])
            .add(&points[47].mul(&scalars[47]));
        assert_eq!(naive(&points, &scalars), expect);
        assert_kernels_give(&points, &scalars, expect);
    }

    #[test]
    fn repeated_points_accumulate() {
        // Same point many times with scalar 1 = n·P. Repeated equal points
        // in one bucket force the batch-affine doubling branch.
        let mut rng = StdRng::seed_from_u64(64);
        let p = Affine::<C>::random(&mut rng);
        let n = rng.gen_range(33..80); // large enough for the bucket paths
        let points = vec![p; n];
        let scalars = vec![Scalar::<C>::ONE; n];
        let expect = p.mul(&Scalar::<C>::from_u64(n as u64));
        assert_eq!(naive(&points, &scalars), expect);
        assert_kernels_give(&points, &scalars, expect);
    }

    #[test]
    fn inverse_pairs_cancel() {
        // P and −P with equal scalars: batch-affine must drop the inverse
        // pair instead of dividing by zero.
        let mut rng = StdRng::seed_from_u64(81);
        let p = Affine::<C>::random(&mut rng);
        let q = Affine::<C>::random(&mut rng);
        let points = vec![p, p.negate(), q, q, p, p.negate()];
        let k = Scalar::<C>::from_u64(9);
        assert_kernels_give(&points, &[k; 6], q.mul(&(k + k)));
    }

    #[test]
    fn identity_points_are_ignored() {
        let (mut points, scalars) = random_instance(40, 11);
        points[7] = Affine::identity();
        points[23] = Affine::identity();
        assert_kernels_match_naive(&points, &scalars);
    }

    #[test]
    fn table_prefix_evaluation() {
        // A table over n points evaluates shorter scalar vectors (the
        // commit-to-a-prefix case in Pedersen keys).
        let (points, scalars) = random_instance(20, 13);
        let table = MsmTable::build(&points);
        for m in [0, 1, 5, 20] {
            let reference = naive(&points[..m], &scalars[..m]);
            assert_eq!(table.eval(&scalars[..m]), reference, "prefix m={m}");
        }
    }

    #[test]
    fn table_windows_cover_all_sizes() {
        for n in [1, 32, 1 << 10, 1 << 14, 1 << 20] {
            let w = MsmTable::<C>::suggested_window(n);
            assert!((4..=16).contains(&w), "n={n} w={w}");
        }
        // Bigger inputs never get smaller windows.
        let mut last = 0;
        for n in [1, 100, 10_000, 1_000_000] {
            let w = MsmTable::<C>::suggested_window(n);
            assert!(w >= last);
            last = w;
        }
    }

    #[test]
    fn explicit_window_matches_default() {
        let (points, scalars) = random_instance(12, 19);
        let reference = naive(&points, &scalars);
        for w in [1, 4, 8, 13, 16] {
            let table = MsmTable::with_window(&points, w);
            assert_eq!(table.window(), w);
            assert_eq!(table.eval(&scalars), reference, "window {w}");
        }
    }

    #[test]
    fn table_metadata() {
        let (points, _) = random_instance(6, 3);
        let table = MsmTable::with_window(&points, 8);
        assert_eq!(table.len(), 6);
        assert!(!table.is_empty());
        assert!(table.memory_bytes() > 0);
    }

    #[test]
    fn selection_rule_follows_the_operation_counts() {
        // 33 bases: short openings walk, ≈ 170-bit RLC sums take the
        // buckets; the counts cross near 80 bits.
        let c = MsmTable::<C>::suggested_window(33);
        assert!(interleaved_walk_muls(33, 40) < bucket_pass_muls(33, 40, c));
        assert!(interleaved_walk_muls(33, 170) > bucket_pass_muls(33, 170, c));
        let (points, _) = random_instance(33, 33);
        assert_eq!(MsmTable::build(&points).odd.len(), 33 * ODD_MULTIPLES);
        // Thousands of bases lose even the shortest planned call, so their
        // table keeps no odd multiples and never walks.
        for n in [600, 8_193, 65_537] {
            let c = MsmTable::<C>::suggested_window(n);
            assert!(
                interleaved_walk_muls(n, SHORTEST_PLANNED_BITS)
                    > bucket_pass_muls(n, SHORTEST_PLANNED_BITS, c),
                "n = {n}"
            );
        }
    }

    #[test]
    fn both_curves_agree() {
        let mut rng = StdRng::seed_from_u64(55);
        let points: Vec<Affine<Secp256r1>> = (0..40).map(|_| Affine::random(&mut rng)).collect();
        let scalars: Vec<Scalar<Secp256r1>> = (0..40)
            .map(|_| Scalar::<Secp256r1>::random(&mut rng))
            .collect();
        assert_kernels_match_naive(&points, &scalars);
    }

    /// The table's bucket pass over `scalars` split into `ranges`, whatever
    /// its size, and where the ranges start.
    fn split_pass<C: Curve, S: Multiplier<C>>(
        table: &MsmTable<C>,
        scalars: &[S],
        ranges: usize,
    ) -> ([u8; 33], Vec<usize>) {
        let terms = centred(scalars);
        let entries = table.digits_of(&terms);
        let sizes = bucket_sizes((1 << table.window) - 1, &entries);
        let sum = bucket_pass_split(&sizes, &entries, ranges);
        (
            sum.to_affine().to_compressed(),
            range_starts(&sizes, ranges),
        )
    }

    /// Every range count 1 ..= 8 gives the one-range pass's bytes, which are
    /// naive's. Returns every range start seen.
    fn assert_splits_agree<C: Curve>(
        points: &[Affine<C>],
        scalars: &[Scalar<C>],
        window: usize,
    ) -> Vec<usize> {
        let table = MsmTable::with_window(points, window);
        let oracle = naive(points, scalars).to_affine().to_compressed();
        let (serial, _) = split_pass(&table, scalars, 1);
        assert_eq!(serial, oracle, "one range on {}", C::NAME);
        let mut seen = Vec::new();
        for ranges in 2..=8 {
            let (split, starts) = split_pass(&table, scalars, ranges);
            assert_eq!(split, serial, "{ranges} ranges on {}", C::NAME);
            assert!(starts.len() <= ranges && starts.windows(2).all(|w| w[0] < w[1]));
            seen.extend(starts);
        }
        seen
    }

    fn split_cases<C: Curve>() {
        let mut rng = StdRng::seed_from_u64(0x5917);
        let random: Vec<Affine<C>> = (0..24).map(|_| Affine::random(&mut rng)).collect();
        let full: Vec<Scalar<C>> = (0..24).map(|_| Scalar::<C>::random(&mut rng)).collect();
        assert_splits_agree(&random, &full, 6);

        // Two non-empty buckets of 255, and 3 buckets for up to 8 ranges.
        let two = [Scalar::<C>::from_u64(3), Scalar::<C>::from_u64(200)];
        assert_splits_agree(&random[..2], &two, 8);
        assert_splits_agree(&random[..2], &two, 2);

        // Digits piled either side of 2^(c−1) = 8 in a 4-bit table: the
        // split points land on both sides of it.
        let around: Vec<Scalar<C>> = [7u64, 8, 8, 8, 9, 9, 1, 15, 8, 7, 9, 8]
            .iter()
            .map(|&d| Scalar::<C>::from_u64(d))
            .collect();
        let seen = assert_splits_agree(&random[..12], &around, 4);
        assert!(seen.contains(&7) && seen.contains(&8) && seen.contains(&9));

        // 12·P and 2·(−6P) cancel from buckets 12 and 2, which two ranges
        // separate; Q and −Q cancel inside bucket 3; an identity base
        // fills no bucket; zero scalars add no digit.
        let (p, q) = (random[0], random[1]);
        let points = [
            p,
            p.mul(&Scalar::<C>::from_u64(6)).to_affine().negate(),
            q,
            q.negate(),
            Affine::identity(),
            random[2],
            random[3],
        ];
        let minus_one =
            Scalar::<C>::from_canonical(<C as Curve>::Scalar::MODULUS.wrapping_sub(&U256::ONE));
        let scalars = [12, 2, 3, 3, 5, 0, 0].map(Scalar::<C>::from_u64);
        let table = MsmTable::with_window(&points, 4);
        let (_, starts) = split_pass(&table, &scalars, 2);
        assert!((2..=11).contains(&starts[1]), "split at {}", starts[1]);
        assert_splits_agree(&points, &scalars, 4);
        let mut with_minus_one = scalars;
        with_minus_one[5] = minus_one;
        with_minus_one[6] = -Scalar::<C>::from_u64(11);
        assert_splits_agree(&points, &with_minus_one, 4);
        assert_splits_agree(&points, &with_minus_one, 8);

        // A 12-bit table: even split 8 ways, every range holds hundreds of
        // buckets, past the count crossover, so each runs the two-level sum.
        assert_splits_agree(&random, &full, 12);
        let table = MsmTable::with_window(&random, 12);
        let (_, starts) = split_pass(&table, &full, 8);
        let ends = starts.iter().skip(1).copied().chain([4095]);
        for (lo, hi) in starts.iter().copied().zip(ends) {
            assert!(row_column_muls(hi - lo) < RUNNING_SUM_MULS * (hi - lo));
        }
    }

    /// Affine points `Q + i·S`, `i < n`, for two random `Q` and `S`: distinct,
    /// unrelated to any bucket digit, and cheap to make in a debug build.
    fn point_run<K: Curve>(n: usize, seed: u64) -> Vec<Affine<K>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (q, step) = (Affine::<K>::random(&mut rng), Affine::<K>::random(&mut rng));
        let mut cur = q.to_jacobian();
        let run: Vec<Jacobian<K>> = (0..n)
            .map(|_| {
                let here = cur;
                cur = cur.add_affine(&step);
                here
            })
            .collect();
        Jacobian::batch_normalize(&run)
    }

    /// The two-level sum, and the one [`running_sum`] picks, give the
    /// one-level sum's `(Σ e·B_e, Σ B_e)` on `sums`, byte for byte.
    fn assert_sums_agree<K: Curve>(sums: &[Affine<K>], case: &str) {
        let bytes = |(t, s): (Jacobian<K>, Jacobian<K>)| {
            (t.to_affine().to_compressed(), s.to_affine().to_compressed())
        };
        let one = bytes(bucket_running_sum(sums));
        assert_eq!(bytes(row_column_sum(sums)), one, "{case} on {}", K::NAME);
        assert_eq!(bytes(running_sum(sums)), one, "{case} on {}", K::NAME);
    }

    fn two_level_cases<K: Curve>() {
        let m = (1 << 12) - 1;
        let (h, rows, columns) = row_column_shape(m);
        assert_eq!((h, rows, columns), (6, 64, 64));
        let run = point_run::<K>(m, 0x2C01);
        let (p, q) = (run[0], run[1]);
        let empty = vec![Affine::<K>::identity(); m];
        assert_sums_agree(&empty, "no bucket");
        assert_sums_agree(&run, "every bucket");

        // A lone bucket: one row and one column hold it, every other is empty.
        for e in [1, rows - 1, rows, m] {
            let mut sums = empty.clone();
            sums[e - 1] = p;
            assert_sums_agree(&sums, &format!("lone digit {e}"));
        }

        // Only multiples of 2^h: every row but row 0 is empty. Only digits
        // below 2^h: every column but column 0 is. Then the reverse of each.
        let keep = |f: &dyn Fn(usize) -> bool| -> Vec<Affine<K>> {
            let digit =
                |(i, s): (usize, &Affine<K>)| if f(i + 1) { *s } else { Affine::identity() };
            run.iter().enumerate().map(digit).collect()
        };
        assert_sums_agree(&keep(&|e| e % rows == 0), "rows 1.. empty");
        assert_sums_agree(&keep(&|e| e < rows), "columns 1.. empty");
        assert_sums_agree(&keep(&|e| e % rows != 0), "row 0 empty");
        assert_sums_agree(&keep(&|e| e >= rows), "column 0 empty");

        // P and −P meet in row 5 (digits 5 and 5 + 2^h) and in column 1
        // (digits 2^h + 2 and 2^h + 9), each line then summing to the
        // identity; Q at digits 3 and 3 + 2^h doubles in row 3.
        let mut sums = empty.clone();
        for (e, point) in [
            (5, p),
            (5 + rows, p.negate()),
            (rows + 2, p),
            (rows + 9, p.negate()),
            (3, q),
            (3 + rows, q),
        ] {
            sums[e - 1] = point;
        }
        assert_sums_agree(&sums, "inverse pairs");
    }

    #[test]
    fn two_level_sum_is_the_one_level_sum_on_both_curves() {
        two_level_cases::<Secp256k1>();
        two_level_cases::<Secp256r1>();
    }

    #[test]
    fn running_sum_takes_the_cheaper_count_either_side_of_the_crossover() {
        let two_level = |m: usize| row_column_muls(m) < RUNNING_SUM_MULS * m;
        let crossover = (1..4096).find(|&m| two_level(m)).unwrap_or(4096);
        // A d = 33 table's 63 buckets keep the one-level sum; every pass
        // from the crossover up to a 16-bit table's takes the other.
        assert_eq!(crossover, 130);
        assert!(!two_level(63) && (crossover..1 << 16).all(two_level));
        assert_eq!(running_sum_muls(63), RUNNING_SUM_MULS * 63);
        let run = point_run::<C>(crossover + 1, 0x2C02);
        for m in [crossover - 1, crossover, crossover + 1] {
            assert_sums_agree(&run[..m], &format!("{m} buckets"));
        }
    }

    /// The table's rows as one thread built them before set-up split:
    /// every doubling chain in Jacobian form, then one batch normalisation.
    fn serial_shifts<K: Curve>(points: &[Affine<K>], window: usize) -> Vec<Affine<K>> {
        let mut jac = Vec::new();
        for p in points {
            let mut cur = p.to_jacobian();
            jac.push(cur);
            for _ in 1..256usize.div_ceil(window) {
                for _ in 0..window {
                    cur = cur.double();
                }
                jac.push(cur);
            }
        }
        Jacobian::batch_normalize(&jac)
    }

    fn shift_cases<K: Curve>() {
        // 130 bases: one range crosses a normalisation block boundary.
        let points = point_run::<K>(NORMALIZE_BLOCK + 2, 0x5E7);
        let serial = serial_shifts(&points, 16);
        for ranges in 1..=8 {
            assert_eq!(shift_rows(&points, 16, ranges), serial, "{ranges} ranges");
        }
        for n in [0, 3] {
            assert_eq!(
                shift_rows(&points[..n], 16, 8),
                serial_shifts(&points[..n], 16)
            );
        }
    }

    #[test]
    fn table_rows_built_on_any_split_are_the_serial_rows_on_both_curves() {
        shift_cases::<Secp256k1>();
        shift_cases::<Secp256r1>();
    }

    #[test]
    fn every_range_split_is_the_serial_pass_on_both_curves() {
        split_cases::<Secp256k1>();
        split_cases::<Secp256r1>();
    }

    /// The fixed-point integers at every edge a digit read can get wrong:
    /// zero, ±1, either side of one 12-bit window and of two, a value in
    /// the fourth window, and the ends of the `i64` range, whose magnitude
    /// `2⁶³` is the top bit of the `u64`.
    pub(crate) const EDGE_INTEGERS: [i64; 15] = [
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
    pub(crate) fn edge_vectors(width: usize) -> [Vec<Quantized>; 3] {
        let edge = |i: usize| EDGE_INTEGERS[i % EDGE_INTEGERS.len()];
        let negative = |v: i64| if v > 0 { -v } else { v.min(-1) };
        [
            (0..width).map(|i| Quantized(edge(i))).collect(),
            (0..width).map(|i| Quantized(negative(edge(i)))).collect(),
            vec![Quantized(0); width],
        ]
    }

    /// [`pippenger_batch_affine`] with every window's bucket pass split
    /// into `ranges`, whatever its size.
    fn split_windows<K: Curve, S: Multiplier<K>>(
        points: &[Affine<K>],
        scalars: &[S],
        ranges: usize,
    ) -> [u8; 33] {
        let terms = centred(scalars);
        let c = window_size(points.len());
        let mut acc = Jacobian::identity();
        for w in (0..longest(&terms).div_ceil(c)).rev() {
            for _ in 0..c {
                acc = acc.double();
            }
            let window = window_digits(points, &terms, w, c);
            let sizes = bucket_sizes((1 << c) - 1, &window);
            acc = acc.add(&bucket_pass_split(&sizes, &window, ranges));
        }
        acc.to_affine().to_compressed()
    }

    fn integer_cases<K: Curve>() {
        for width in [1, 32, 33, 257] {
            let mut points = point_run::<K>(width, 0x1A7 + width as u64);
            if width > 7 {
                points[7] = Affine::identity();
            }
            let table = MsmTable::build(&points);
            for values in edge_vectors(width) {
                let scalars = crate::quantize::to_scalars::<K>(&values);
                let expect = eval(&points, &scalars);
                if width <= 33 {
                    assert_eq!(expect, naive(&points, &scalars), "width {width}");
                }
                assert_kernels_give(&points, &values, expect);
                let oracle = expect.to_affine().to_compressed();
                for ranges in 1..=8 {
                    let (tabled, _) = split_pass(&table, &values, ranges);
                    assert_eq!(tabled, oracle, "{ranges} ranges, width {width}");
                    let untabled = split_windows(&points, &values, ranges);
                    assert_eq!(untabled, oracle, "{ranges} ranges, width {width}");
                }
            }
        }
    }

    #[test]
    fn integers_give_their_embeddings_group_element_on_every_kernel_and_split() {
        integer_cases::<Secp256k1>();
        integer_cases::<Secp256r1>();
    }

    #[test]
    fn ranges_balance_work_not_bucket_count() {
        // The shape of 8 192 ≤ 40-bit openings on a 12-bit table: three
        // windows spread over all 4 095 buckets, the top one piles into
        // digits 8–15. Priced with the two-level running sum (≈ 13
        // products a bucket), two ranges meet near bucket 1 550, not
        // 2 048, and differ by less than one bucket's work.
        let mut sizes = vec![6; 4095];
        for size in &mut sizes[7..15] {
            *size += 1024;
        }
        let starts = range_starts(&sizes, 2);
        assert_eq!(starts.len(), 2);
        assert!((1500..1600).contains(&starts[1]), "split at {}", starts[1]);
        let (low, high) = sizes.split_at(starts[1]);
        let price = bucket_muls(sizes.len());
        let work = |s: &[usize]| s.iter().copied().map(&price).sum::<usize>();
        assert!(work(low).abs_diff(work(high)) <= price(sizes[starts[1]]));
    }

    /// Median wall time of `f` over `runs` runs, in µs; `setup` is untimed.
    pub(crate) fn median_us<S, T>(
        runs: usize,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> T,
    ) -> f64 {
        let mut runs: Vec<f64> = (0..runs)
            .map(|_| {
                let input = setup();
                let start = std::time::Instant::now();
                std::hint::black_box(f(input));
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    }

    /// Field products, and the median µs over 31 runs on one range and on
    /// `ranges`, of the table's bucket pass over `terms`, counting the
    /// digits included.
    fn time_split<M: Magnitude>(
        table: &MsmTable<C>,
        terms: &[(bool, M)],
        ranges: usize,
    ) -> (usize, f64, f64) {
        let entries = table.digits_of(terms);
        let buckets = (1 << table.window) - 1;
        let muls = bucket_sizes(buckets, &entries)
            .into_iter()
            .map(bucket_muls(buckets))
            .sum();
        let time = |ranges| {
            median_us(
                31,
                || (),
                |()| bucket_pass_split(&bucket_sizes(buckets, &entries), &entries, ranges),
            )
        };
        (muls, time(1), time(ranges))
    }

    /// The measurement behind [`SPLIT_MIN_MULS`]: a table's bucket pass on
    /// one thread and split across every core, for commitment-shaped
    /// (≤ 40-bit integer) and RLC-shaped (170-bit scalar) terms over `d`
    /// bases. Run with `cargo test --release -p dfl-crypto --lib
    /// split_crossover -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing table; run by hand in release"]
    fn split_crossover() {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        println!("bucket pass, 1 vs {cores} ranges, median of 31 (µs)");
        println!(
            "{:>6} {:>5} {:>9} {:>9} {:>9} {:>7}",
            "d", "bits", "muls", "serial", "split", "ratio"
        );
        let mut rng = StdRng::seed_from_u64(0xC505);
        for d in [33, 65, 129, 257, 513, 1025, 2049, 4097, 8193] {
            let (points, _) = random_instance(d, d as u64);
            let table = MsmTable::build(&points);
            let integers: Vec<(bool, u64)> = (0..d)
                .map(|i| (i % 2 == 1, rng.next_u64() >> (64 - 40)))
                .collect();
            let sums: Vec<(bool, U256)> = (0..d)
                .map(|i| {
                    let mut bytes = [0u8; 32];
                    rng.fill_bytes(&mut bytes);
                    (i % 2 == 1, U256::from_be_bytes(bytes).shr(256 - 170))
                })
                .collect();
            for (bits, (muls, serial, split)) in [
                (40, time_split(&table, &integers, cores)),
                (170, time_split(&table, &sums, cores)),
            ] {
                println!(
                    "{d:>6} {bits:>5} {muls:>9} {serial:>9.1} {split:>9.1} {:>7.2}",
                    split / serial
                );
            }
        }
    }

    /// The measurement behind [`running_sum`]'s choice: both running sums
    /// over `m` full buckets on one thread, beside their operation counts.
    /// Run with `cargo test --release -p dfl-crypto --lib
    /// running_sum_crossover -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing table; run by hand in release"]
    fn running_sum_crossover() {
        println!("running sums over m full buckets, median of 31 (µs)");
        println!(
            "{:>5} {:>8} {:>8} {:>9} {:>9} {:>7}",
            "m", "1-level", "2-level", "1 (muls)", "2 (muls)", "ratio"
        );
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let pool: Vec<Affine<C>> = (0..4095).map(|_| Affine::random(&mut rng)).collect();
        for m in [63, 127, 191, 255, 383, 511, 1023, 2047, 4095] {
            let sums = &pool[..m];
            let one = median_us(31, || (), |()| bucket_running_sum(sums));
            let two = median_us(31, || (), |()| row_column_sum(sums));
            println!(
                "{m:>5} {one:>8.1} {two:>8.1} {:>9} {:>9} {:>7.2}",
                RUNNING_SUM_MULS * m,
                row_column_muls(m),
                two / one
            );
        }
    }

    #[test]
    fn only_a_pass_over_the_threshold_splits() {
        let before = SPLITS.get();
        assert_eq!(ranges_for(SPLIT_MIN_MULS - 1), 1);
        assert_eq!(SPLITS.get(), before);
        assert!(ranges_for(SPLIT_MIN_MULS) >= 1);
        assert_eq!(SPLITS.get(), before + 1);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let result = std::panic::catch_unwind(|| {
            map_split(vec![1, 2, 3], |k| assert!(k < 3, "part {k}"));
        });
        assert!(result.is_err());
        assert_eq!(map_split(vec![1, 2, 3], |k| k * 10), vec![10, 20, 30]);
    }

    #[test]
    fn window_size_monotone() {
        let mut last = 0;
        for n in [1, 10, 100, 1_000, 10_000, 100_000] {
            let w = window_size(n);
            assert!(w >= last, "window size should not shrink with n");
            assert!((1..=16).contains(&w));
            last = w;
        }
    }
}
