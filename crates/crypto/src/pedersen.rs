//! Pedersen vector commitments with homomorphic addition (§IV-A of the
//! paper).
//!
//! A commitment to a vector `v` is `C = Π hᵢ^(vᵢ)` where `{hᵢ}` are public
//! generators with unknown discrete-log relations. Written additively:
//! `C = Σ vᵢ·Hᵢ`. The scheme is *vector binding* under the discrete-log
//! assumption and *additively homomorphic*: `C(v₁) + C(v₂) = C(v₁ + v₂)`,
//! which is exactly the property the directory service exploits to verify
//! aggregation (§IV-B).
//!
//! ```
//! use dfl_crypto::curve::Secp256k1;
//! use dfl_crypto::pedersen::CommitKey;
//! use dfl_crypto::curve::Scalar;
//!
//! let key = CommitKey::<Secp256k1>::setup(4, b"example");
//! let v1: Vec<_> = (1..=4u64).map(Scalar::<Secp256k1>::from_u64).collect();
//! let v2: Vec<_> = (5..=8u64).map(Scalar::<Secp256k1>::from_u64).collect();
//! let sum: Vec<_> = v1.iter().zip(&v2).map(|(a, b)| *a + *b).collect();
//!
//! let c1 = key.commit(&v1);
//! let c2 = key.commit(&v2);
//! assert_eq!(c1.combine(&c2), key.commit(&sum));
//! assert!(key.verify(&sum, &c1.combine(&c2)));
//! ```

use std::fmt;
use std::sync::Arc;

use crate::bigint::U256;
use crate::curve::{Affine, Curve, Jacobian, Scalar};
use crate::field::Fp;
use crate::msm::{self, map_split, ranges_for, Magnitude, MsmTable, Multiplier, FERMAT_MULS};
use crate::pool::{self, Pending};
use crate::quantize::{decode, Quantized};
use crate::sha256::Sha256;

/// Public parameters: a vector of generators with no known discrete-log
/// relations, derived from a seed by hash-to-curve (try-and-increment), so
/// any party can recompute and audit them ("nothing up my sleeve").
///
/// A key may additionally carry a fixed-base precomputation table
/// ([`CommitKey::precompute`]) that every subsequent [`CommitKey::commit`]
/// and [`CommitKey::batch_check`] uses transparently. The table caches
/// windowed shifts of the generators (derived data only), so two keys
/// compare equal iff their generators and seed match, table or not.
#[derive(Clone)]
pub struct CommitKey<C: Curve> {
    generators: Vec<Affine<C>>,
    seed: Vec<u8>,
    table: Option<MsmTable<C>>,
}

impl<C: Curve> PartialEq for CommitKey<C> {
    fn eq(&self, other: &Self) -> bool {
        self.generators == other.generators && self.seed == other.seed
    }
}

impl<C: Curve> Eq for CommitKey<C> {}

impl<C: Curve> CommitKey<C> {
    /// Derives `n` generators from `seed`, on every core once that is
    /// worth it by the rule a large bucket pass splits by (see [`msm`]): a
    /// generator costs about two square roots, one Fermat exponentiation
    /// each. The generators do not depend on the split.
    pub fn setup(n: usize, seed: &[u8]) -> CommitKey<C> {
        CommitKey {
            generators: derive_generators(n, seed, ranges_for(n * 2 * FERMAT_MULS)),
            seed: seed.to_vec(),
            table: None,
        }
    }

    /// [`CommitKey::setup`] followed by [`CommitKey::precompute`]: the
    /// one-call constructor for long-lived task keys.
    pub fn setup_precomputed(n: usize, seed: &[u8]) -> CommitKey<C> {
        let mut key = CommitKey::setup(n, seed);
        key.precompute();
        key
    }

    /// Builds (or rebuilds) the fixed-base precomputation table over the
    /// current generators. Costs about one naive scalar multiplication per
    /// generator, paid once; afterwards each commitment is a single
    /// batch-affine bucket pass with no doubling chain. Idempotent.
    pub fn precompute(&mut self) {
        self.table = Some(MsmTable::build(&self.generators));
    }

    /// `true` if a precomputation table is attached.
    pub fn is_precomputed(&self) -> bool {
        self.table.is_some()
    }

    /// Approximate heap footprint of the precomputation table in bytes
    /// (0 when none is attached).
    pub fn table_memory_bytes(&self) -> usize {
        self.table.as_ref().map_or(0, MsmTable::memory_bytes)
    }

    /// Number of generators (the maximum committable vector length).
    pub fn len(&self) -> usize {
        self.generators.len()
    }

    /// `true` if the key holds no generators.
    pub fn is_empty(&self) -> bool {
        self.generators.is_empty()
    }

    /// The generator points.
    pub fn generators(&self) -> &[Affine<C>] {
        &self.generators
    }

    /// The seed the generators were derived from.
    pub fn seed(&self) -> &[u8] {
        &self.seed
    }

    /// Commits to `values` (must not exceed the key length): through the
    /// key's table when it has one, else [`msm::eval`]. The values are
    /// field elements or the protocol's fixed-point integers, whose digits
    /// come straight from their sign and `|v|`; an integer vector commits
    /// to what its embedding ([`crate::quantize::to_scalars`]) commits to.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > self.len()`.
    pub fn commit<K: Multiplier<C>>(&self, values: &[K]) -> Commitment<C> {
        assert!(
            values.len() <= self.generators.len(),
            "vector length {} exceeds key length {}",
            values.len(),
            self.generators.len()
        );
        let point = match &self.table {
            Some(table) => table.eval(values),
            None => msm::eval(&self.generators[..values.len()], values),
        };
        Commitment { point }
    }

    /// [`CommitKey::commit`] to the fixed-point integers that
    /// [`crate::quantize::encode`] wrote into `encoded`, computed on a
    /// spare core while the caller goes on ([`crate::pool`]), or by
    /// [`Pending::wait`] on the caller's thread if no spare core has
    /// started it — with none, at first use. A commitment whose bucket pass
    /// may split across every core (see [`msm`]) already uses them all, and
    /// is computed at once. The group element is the same whichever thread
    /// computes it.
    ///
    /// # Panics
    ///
    /// Panics, here, if `encoded` is not whole 8-byte words or holds more
    /// integers than the key has generators.
    pub fn commit_later<B>(self: &Arc<Self>, encoded: B) -> Pending<Commitment<C>>
    where
        B: AsRef<[u8]> + Send + 'static,
    {
        let (words, ragged) = encoded.as_ref().as_chunks::<8>();
        assert!(
            ragged.is_empty() && words.len() <= self.generators.len(),
            "{} bytes do not encode at most {} integers",
            encoded.as_ref().len(),
            self.generators.len()
        );
        let bits = words
            .iter()
            .map(|w| i64::from_le_bytes(*w).unsigned_abs().bit_len())
            .max();
        let splits = match &self.table {
            Some(table) => table.may_split(words.len(), bits.unwrap_or(0)),
            None => msm::may_split(words.len()),
        };
        // Whole words, as checked above, always decode.
        let commit =
            move |key: &CommitKey<C>| key.commit(&decode(encoded.as_ref()).unwrap_or_default());
        if splits {
            return Pending::ready(commit(self));
        }
        let key = Arc::clone(self);
        pool::defer(move || commit(&key))
    }

    /// Commits using [`msm::naive`] (models the paper's unoptimized
    /// implementation; Fig. 3's baseline).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > self.len()`.
    pub fn commit_naive(&self, values: &[Scalar<C>]) -> Commitment<C> {
        assert!(values.len() <= self.generators.len());
        Commitment {
            point: msm::naive(&self.generators[..values.len()], values),
        }
    }

    /// Verifies that `commitment` opens to `values` by recomputing; a
    /// vector longer than the key opens nothing.
    pub fn verify<K: Multiplier<C>>(&self, values: &[K], commitment: &Commitment<C>) -> bool {
        if values.len() > self.generators.len() {
            return false;
        }
        self.commit(values) == *commitment
    }

    /// Verifies a whole batch of openings with one random linear
    /// combination: sample coefficients `rᵢ`, check that
    /// `commit(Σ rᵢ·vᵢ) = Σ rᵢ·Cᵢ`. One length-`width` MSM plus one
    /// `k`-point Pippenger MSM replaces `k` full MSMs — the §VI
    /// "minimize the query load of the directory service" direction, since
    /// a node can batch every opening of a round boundary into one check.
    ///
    /// Sound for adversarially chosen inputs: if any pair fails
    /// individually, the batched identity holds with probability ≤ 1/2¹²⁸
    /// over the coefficients, which are derived by hashing a transcript of
    /// the full input (Fiat–Shamir style), so the prover cannot choose
    /// openings after seeing them. The coefficients are 128-bit — the low
    /// half of each digest, see `batch_coefficients` — which is exactly
    /// what that bound needs: with every other coefficient fixed, at most
    /// one value of `rⱼ` modulo the (≈ 2²⁵⁶) group order cancels a
    /// non-opening entry `j`, so at most one of the 2¹²⁸ equally likely
    /// ones does. Shorter coefficients are what make the check cheap: the
    /// protocol's openings are ≤ 40-bit signed values, so `Σ rᵢ·vᵢ` — a
    /// field element even where the entries are integers
    /// ([`BatchEntry::quantized`]) — centres to ≈ 170 bits and its
    /// commitment walks two thirds of the windows, and `Σ rᵢ·Cᵢ` needs
    /// half the doublings. Entries longer than the key can never verify
    /// and fail the batch outright.
    ///
    /// At d = 8 193 both the accumulation and the commit split across
    /// every core; field and group arithmetic are exact, so the verdict and
    /// every byte are the single-thread pass's.
    ///
    /// Returns `true` for an empty batch.
    pub fn batch_check(&self, entries: &[BatchEntry<'_, C>]) -> bool {
        if entries.is_empty() {
            return true;
        }
        if entries
            .iter()
            .any(|e| e.opening.len() > self.generators.len())
        {
            return false;
        }
        let coeffs = self.batch_coefficients(entries);
        let points = normalized_points(entries);
        let idxs: Vec<usize> = (0..entries.len()).collect();
        self.check_subset(entries, &coeffs, &points, &idxs)
    }

    /// Identifies exactly which entries of a failing batch do not open:
    /// returns the sorted indices whose `(values, commitment)` pair fails
    /// [`CommitKey::verify`], by bisecting the batch with the *same*
    /// Fiat–Shamir coefficients (derived once from the full transcript,
    /// reused per subrange so a cheating prover cannot adapt). Ranges of
    /// fewer than `RLC_MIN_BATCH` (7) entries — a small batch as a whole
    /// included — fall back to a direct [`CommitKey::verify`] per entry,
    /// so the culprit set matches sequential per-item verification
    /// exactly.
    ///
    /// Cost is one subrange check per bisection node on the path to each
    /// culprit: `O(b · log k)` extra MSMs for `b` culprits in a batch of
    /// `k`, and a single whole-batch check when everything is valid.
    pub fn batch_culprits(&self, entries: &[BatchEntry<'_, C>]) -> Vec<usize> {
        // Over-long vectors can never open; convict them directly and keep
        // the RLC domain to the checkable entries.
        let (overlong, in_range): (Vec<usize>, Vec<usize>) =
            (0..entries.len()).partition(|&i| entries[i].opening.len() > self.generators.len());
        let mut culprits = overlong;
        if in_range.len() < RLC_MIN_BATCH {
            self.verify_each(entries, &in_range, &mut culprits);
        } else {
            let coeffs = self.batch_coefficients(entries);
            let points = normalized_points(entries);
            self.bisect(entries, &coeffs, &points, &in_range, &mut culprits);
        }
        culprits.sort_unstable();
        culprits
    }

    /// Fiat–Shamir coefficients for a batch: hash each entry to a leaf
    /// digest, chain the leaves (in index order) into a root, and derive
    /// `rᵢ` = the low 128 bits of `H(root ‖ i)`. An integer entry's leaf
    /// hashes its binding bytes (cheaper than 32 B per scalar), a scalar
    /// entry's the scalar encodings.
    fn batch_coefficients(&self, entries: &[BatchEntry<'_, C>]) -> Vec<Scalar<C>> {
        let leaf = |e: &BatchEntry<'_, C>| -> [u8; 32] {
            let mut h = Sha256::new();
            h.update(&(e.opening.len() as u64).to_be_bytes());
            match e.opening {
                // Domain-separate the two leaf encodings so a binding can
                // never collide with a scalar transcript.
                Opening::Integers(_, bytes) => {
                    h.update(b"B");
                    h.update(&(bytes.len() as u64).to_be_bytes());
                    h.update(bytes);
                }
                Opening::Scalars(values) => {
                    h.update(b"S");
                    for v in values {
                        h.update(&v.to_be_bytes());
                    }
                }
            }
            h.update(&e.commitment.to_bytes());
            h.finalize()
        };
        let mut transcript = Sha256::new();
        transcript.update(b"dfl-pedersen-batch-v2");
        transcript.update(&self.seed);
        transcript.update(&(entries.len() as u64).to_be_bytes());
        for entry in entries {
            transcript.update(&leaf(entry));
        }
        let root = transcript.finalize();

        (0..entries.len())
            .map(|i| {
                let mut h = Sha256::new();
                h.update(&root);
                h.update(&(i as u64).to_be_bytes());
                // The digest's low 128 bits: exactly uniform below 2¹²⁸,
                // which is all the soundness bound uses, and half the MSM
                // length of a full-width coefficient.
                let low = h.finalize()[16..]
                    .iter()
                    .fold(0u128, |acc, &byte| acc << 8 | u128::from(byte));
                Scalar::<C>::from_canonical(U256::from_u128(low))
            })
            .collect()
    }

    /// One RLC check over the entries selected by `idxs`:
    /// `commit(Σ rᵢ·vᵢ) = Σ rᵢ·Cᵢ` with the precomputed coefficients.
    fn check_subset(
        &self,
        entries: &[BatchEntry<'_, C>],
        coeffs: &[Scalar<C>],
        points: &[Affine<C>],
        idxs: &[usize],
    ) -> bool {
        let width = idxs
            .iter()
            .map(|&i| entries[i].opening.len())
            .max()
            .unwrap_or(0);
        let combined_values = accumulate_values(entries, coeffs, idxs, width);
        let sub_points: Vec<Affine<C>> = idxs.iter().map(|&i| points[i]).collect();
        let sub_coeffs: Vec<Scalar<C>> = idxs.iter().map(|&i| coeffs[i]).collect();
        let combined_commitment = msm::eval(&sub_points, &sub_coeffs);
        self.commit(&combined_values)
            == Commitment {
                point: combined_commitment,
            }
    }

    /// Recursive culprit search: a passing subrange is vouched for by the
    /// RLC identity; a failing one splits in half. Coefficients are fixed
    /// up front, so subrange checks stay sound against adaptive provers.
    fn bisect(
        &self,
        entries: &[BatchEntry<'_, C>],
        coeffs: &[Scalar<C>],
        points: &[Affine<C>],
        idxs: &[usize],
        culprits: &mut Vec<usize>,
    ) {
        if idxs.len() < RLC_MIN_BATCH {
            return self.verify_each(entries, idxs, culprits);
        }
        if self.check_subset(entries, coeffs, points, idxs) {
            return;
        }
        let mid = idxs.len() / 2;
        self.bisect(entries, coeffs, points, &idxs[..mid], culprits);
        self.bisect(entries, coeffs, points, &idxs[mid..], culprits);
    }

    /// The bisection's leaves, with exact sequential semantics: the
    /// verdict for each entry is a direct recommit-and-compare, never an
    /// RLC.
    fn verify_each(
        &self,
        entries: &[BatchEntry<'_, C>],
        idxs: &[usize],
        culprits: &mut Vec<usize>,
    ) {
        culprits.extend(idxs.iter().copied().filter(|&i| {
            let commitment = entries[i].commitment;
            !match entries[i].opening {
                Opening::Scalars(values) => self.verify(values, commitment),
                Opening::Integers(values, _) => self.verify(values, commitment),
            }
        }));
    }
}

/// Ranges of fewer entries than this are verified one by one instead of by
/// one random linear combination. An RLC check commits once to `Σ rᵢ·vᵢ`,
/// whose ≈ 170-bit entries walk 14 of a d = 8 192 table's 22 windows — and
/// at d = 33 are too long for the interleaved walk, so they pay the bucket
/// pass's fixed cost — where a direct recommit of ≤ 40-bit integer
/// openings reads 2–4 windows' digits straight from the integers, or at
/// d = 33 walks one short doubling chain. So an RLC only pays from the
/// batch size at which its fixed cost is shared widely enough. Measured on
/// honest rounds of integer openings (`rlc_crossover` below, an ignored
/// test run by hand with `cargo test --release -p dfl-crypto --lib
/// rlc_crossover -- --ignored --nocapture`; median of 5; sequential
/// `verify` vs one `batch_check`, ms; the median of three runs):
///
/// | n  | d = 8 193     | d = 33        |
/// |----|---------------|---------------|
/// | 2  | 6.50 vs 20.4  | 0.11 vs 0.41  |
/// | 4  | 13.4 vs 21.7  | 0.22 vs 0.47  |
/// | 5  | 17.0 vs 21.9  | 0.31 vs 0.49  |
/// | 6  | 19.4 vs 21.5  | 0.40 vs 0.49  |
/// | 7  | 24.9 vs 22.1  | 0.52 vs 0.59  |
/// | 8  | 26.6 vs 25.7  | 0.64 vs 0.63  |
/// | 16 | 52.3 vs 27.7  | 1.27 vs 0.79  |
///
/// At large d the recommits won n = 6 in all three runs (sequential / RLC
/// 0.83–0.93) and lost n = 7 in all three (1.02–1.14): 7 is the size from
/// which an RLC is never the worse choice there, where the wrong choice
/// costs milliseconds a check. (It was 6 while a recommit embedded its
/// integers into the field and read them back out.) At tiny d the two are
/// level at n ≈ 8, so ranges of 7 get an RLC that costs up to 1.35× their
/// recommits, ≈ 0.1 ms a check.
/// Not a knob: verdicts and culprit sets do not depend on it, only which
/// of two equivalent checks a short range gets.
const RLC_MIN_BATCH: usize = 7;

/// One opening queued for batched verification: a claimed value vector —
/// field elements, or the protocol's fixed-point integers with the
/// canonical wire bytes they were decoded from — and the commitment it
/// should open.
///
/// For integers the Fiat–Shamir transcript hashes those bytes *instead of*
/// the scalar encodings — for the protocol's 8-byte fixed-point elements
/// that is ~4× less hashing per element. Soundness then requires the
/// binding to *determine* the values: the caller must derive `values` from
/// `binding` by a fixed injective decoding (as `decode_blob` does), never
/// accept them separately.
#[derive(Copy, Clone, Debug)]
pub struct BatchEntry<'a, C: Curve> {
    opening: Opening<'a, C>,
    commitment: &'a Commitment<C>,
}

/// A [`BatchEntry`]'s claimed values; integers carry the binding their
/// transcript leaf hashes in their place.
#[derive(Copy, Clone, Debug)]
enum Opening<'a, C: Curve> {
    Scalars(&'a [Scalar<C>]),
    Integers(&'a [Quantized], &'a [u8]),
}

impl<C: Curve> Opening<'_, C> {
    fn len(&self) -> usize {
        match self {
            Opening::Scalars(values) => values.len(),
            Opening::Integers(values, _) => values.len(),
        }
    }

    /// Element `j` (below [`Opening::len`]) as a field element.
    fn scalar(&self, j: usize) -> Scalar<C> {
        match self {
            Opening::Scalars(values) => values[j],
            Opening::Integers(values, _) => values[j].to_scalar::<C>(),
        }
    }
}

impl<'a, C: Curve> BatchEntry<'a, C> {
    /// An entry whose transcript leaf hashes the scalar encodings.
    pub fn new(values: &'a [Scalar<C>], commitment: &'a Commitment<C>) -> BatchEntry<'a, C> {
        BatchEntry {
            opening: Opening::Scalars(values),
            commitment,
        }
    }

    /// An entry of fixed-point integers whose transcript leaf hashes
    /// `binding`, the bytes they were decoded from, in place of their
    /// embedding's scalar encodings. `binding` must uniquely determine
    /// `values` (see the type docs); the commitment is always hashed
    /// alongside either way. The verdict and the culprit set are those of
    /// the embedding ([`Quantized::to_scalar`]); a recommit reads the
    /// integers' digits directly.
    pub fn quantized(
        values: &'a [Quantized],
        commitment: &'a Commitment<C>,
        binding: &'a [u8],
    ) -> BatchEntry<'a, C> {
        BatchEntry {
            opening: Opening::Integers(values, binding),
            commitment,
        }
    }

    /// The commitment the values should open.
    pub fn commitment(&self) -> &'a Commitment<C> {
        self.commitment
    }
}

/// Normalizes every entry's commitment to affine in one shared inversion,
/// so subrange checks can run a batch-affine Pippenger MSM over them.
fn normalized_points<C: Curve>(entries: &[BatchEntry<'_, C>]) -> Vec<Affine<C>> {
    let jacobians: Vec<Jacobian<C>> = entries.iter().map(|e| e.commitment.point()).collect();
    Jacobian::batch_normalize(&jacobians)
}

/// `Σ rᵢ·vᵢ` over the selected entries, as a `width`-element vector: one
/// field product per opening element (an integer embedded first), split by
/// column range across every core once that is worth
/// [`SPLIT_MIN_MULS`](crate::msm::SPLIT_MIN_MULS).
fn accumulate_values<C: Curve>(
    entries: &[BatchEntry<'_, C>],
    coeffs: &[Scalar<C>],
    idxs: &[usize],
    width: usize,
) -> Vec<Scalar<C>> {
    let products = idxs.iter().map(|&i| entries[i].opening.len()).sum();
    accumulate_columns(entries, coeffs, idxs, width, ranges_for(products))
}

/// [`accumulate_values`] over at most `ranges` contiguous column ranges,
/// each on its own thread. A range owns its columns of the sum, so nothing
/// is merged; an opening shorter than a range's first column adds nothing
/// to it.
fn accumulate_columns<C: Curve>(
    entries: &[BatchEntry<'_, C>],
    coeffs: &[Scalar<C>],
    idxs: &[usize],
    width: usize,
    ranges: usize,
) -> Vec<Scalar<C>> {
    let mut acc = vec![Scalar::<C>::ZERO; width];
    let columns = width.div_ceil(ranges).max(1);
    let parts: Vec<_> = acc.chunks_mut(columns).enumerate().collect();
    map_split(parts, |(k, slots)| {
        for &i in idxs {
            let (r, opening) = (coeffs[i], entries[i].opening);
            for (slot, j) in slots.iter_mut().zip(k * columns..opening.len()) {
                *slot += r * opening.scalar(j);
            }
        }
    });
    acc
}

impl<C: Curve> fmt::Debug for CommitKey<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CommitKey<{}>(n={}{})",
            C::NAME,
            self.generators.len(),
            if self.table.is_some() {
                ", precomputed"
            } else {
                ""
            }
        )
    }
}

/// A Pedersen commitment: a single group element, constant size regardless
/// of the committed vector's length.
#[derive(Copy, Clone, PartialEq, Eq)]
pub struct Commitment<C: Curve> {
    point: Jacobian<C>,
}

impl<C: Curve> Commitment<C> {
    /// The commitment to the zero vector (the group identity).
    pub fn identity() -> Commitment<C> {
        Commitment {
            point: Jacobian::identity(),
        }
    }

    /// Homomorphic combination: `C(v₁) ⊕ C(v₂) = C(v₁ + v₂)`.
    pub fn combine(&self, rhs: &Commitment<C>) -> Commitment<C> {
        Commitment {
            point: self.point.add(&rhs.point),
        }
    }

    /// Combines (accumulates) many commitments; the "accumulated
    /// commitment" the directory service stores per partition (§IV-B).
    pub fn accumulate<'a, I: IntoIterator<Item = &'a Commitment<C>>>(iter: I) -> Commitment<C> {
        iter.into_iter()
            .fold(Commitment::identity(), |acc, c| acc.combine(c))
    }

    /// The underlying group element.
    pub fn point(&self) -> Jacobian<C> {
        self.point
    }

    /// Serializes as a 33-byte compressed point.
    pub fn to_bytes(&self) -> [u8; 33] {
        self.point.to_affine().to_compressed()
    }

    /// Deserializes from a 33-byte compressed point.
    pub fn from_bytes(bytes: &[u8; 33]) -> Option<Commitment<C>> {
        Affine::from_compressed(bytes).map(|p| Commitment {
            point: p.to_jacobian(),
        })
    }
}

impl<C: Curve> fmt::Debug for Commitment<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self.to_bytes();
        write!(f, "Commitment<{}>(0x", C::NAME)?;
        for b in &bytes[..9] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

impl<C: Curve> Default for Commitment<C> {
    fn default() -> Self {
        Commitment::identity()
    }
}

/// The first `n` generators of `seed`, their indices split into at most
/// `ranges` contiguous runs, each on its own thread and writing its own
/// part of one vector allocated here. Every generator depends on its
/// index alone, so the key does not depend on the split.
fn derive_generators<C: Curve>(n: usize, seed: &[u8], ranges: usize) -> Vec<Affine<C>> {
    let mut generators = vec![Affine::identity(); n];
    let per_range = n.div_ceil(ranges).max(1);
    let parts: Vec<_> = generators.chunks_mut(per_range).enumerate().collect();
    map_split(parts, |(k, slots)| {
        for (i, slot) in (k * per_range..).zip(slots) {
            *slot = hash_to_curve(seed, i as u64);
        }
    });
    generators
}

/// Derives the `index`-th generator from `seed` by try-and-increment:
/// hash `(seed, index, counter)` to an x-coordinate candidate and take the
/// first that lies on the curve (even-y branch). Both curves have cofactor 1
/// so any curve point generates the full group.
fn hash_to_curve<C: Curve>(seed: &[u8], index: u64) -> Affine<C> {
    let mut counter: u64 = 0;
    loop {
        let mut h = Sha256::new();
        h.update(b"dfl-pedersen-generator");
        h.update(seed);
        h.update(&index.to_be_bytes());
        h.update(&counter.to_be_bytes());
        let digest = h.finalize();
        let candidate = U256::from_be_bytes(digest);
        // Rejection-sample x < p, then require x³ + ax + b to be a square.
        if candidate.const_cmp(&<C::Base as crate::field::FieldParams>::MODULUS) < 0 {
            let x = Fp::<C::Base>::from_canonical(candidate);
            let rhs = (x.square() + C::a()) * x + C::b();
            if let Some(y) = rhs.sqrt() {
                // Deterministic branch: take the even-y root.
                let y = if y.to_canonical().bit(0) { -y } else { y };
                return Affine::from_xy_unchecked(x, y);
            }
        }
        counter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{Secp256k1, Secp256r1};
    use crate::quantize::{encode, to_scalars};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type K1 = Secp256k1;

    fn key(n: usize) -> CommitKey<K1> {
        CommitKey::setup(n, b"test-seed")
    }

    fn random_vector(n: usize, seed: u64) -> Vec<Scalar<K1>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Scalar::<K1>::random(&mut rng)).collect()
    }

    #[test]
    fn generators_on_curve_and_distinct() {
        let key = key(16);
        for g in key.generators() {
            assert!(g.is_on_curve());
            assert!(!g.is_identity());
        }
        for i in 0..16 {
            for j in (i + 1)..16 {
                assert_ne!(key.generators()[i], key.generators()[j]);
            }
        }
    }

    #[test]
    fn setup_is_deterministic() {
        let a = key(8);
        let b = key(8);
        assert_eq!(a.generators(), b.generators());
        let c = CommitKey::<K1>::setup(8, b"other-seed");
        assert_ne!(a.generators(), c.generators());
    }

    fn generator_cases<C: Curve>() {
        let serial: Vec<Affine<C>> = (0..37).map(|i| hash_to_curve(b"split", i)).collect();
        for ranges in 1..=8 {
            assert_eq!(
                derive_generators(37, b"split", ranges),
                serial,
                "{ranges} ranges"
            );
        }
        assert_eq!(derive_generators::<C>(3, b"split", 8), serial[..3]);
        assert!(derive_generators::<C>(0, b"split", 8).is_empty());
    }

    #[test]
    fn generators_derived_on_any_split_are_the_serial_key_on_both_curves() {
        generator_cases::<Secp256k1>();
        generator_cases::<Secp256r1>();
    }

    #[test]
    fn both_curves_work() {
        let k1 = CommitKey::<Secp256k1>::setup(4, b"s");
        let r1 = CommitKey::<Secp256r1>::setup(4, b"s");
        let v: Vec<_> = (1..=4u64).map(Scalar::<Secp256k1>::from_u64).collect();
        let w: Vec<_> = (1..=4u64).map(Scalar::<Secp256r1>::from_u64).collect();
        assert!(k1.verify(&v, &k1.commit(&v)));
        assert!(r1.verify(&w, &r1.commit(&w)));
    }

    #[test]
    fn commit_and_verify() {
        let key = key(32);
        let v = random_vector(32, 1);
        let c = key.commit(&v);
        assert!(key.verify(&v, &c));
        // Any single altered element breaks verification.
        let mut altered = v.clone();
        altered[17] += Scalar::<K1>::ONE;
        assert!(!key.verify(&altered, &c));
    }

    #[test]
    fn homomorphism() {
        let key = key(16);
        let v1 = random_vector(16, 2);
        let v2 = random_vector(16, 3);
        let sum: Vec<_> = v1.iter().zip(&v2).map(|(a, b)| *a + *b).collect();
        assert_eq!(key.commit(&v1).combine(&key.commit(&v2)), key.commit(&sum));
    }

    #[test]
    fn accumulate_many() {
        let key = key(8);
        let vectors: Vec<Vec<_>> = (0..5).map(|i| random_vector(8, 10 + i)).collect();
        let commits: Vec<_> = vectors.iter().map(|v| key.commit(v)).collect();
        let acc = Commitment::accumulate(&commits);
        let total: Vec<_> = (0..8)
            .map(|j| vectors.iter().map(|v| v[j]).sum::<Scalar<K1>>())
            .collect();
        assert_eq!(acc, key.commit(&total));
        assert!(key.verify(&total, &acc));
    }

    #[test]
    fn commit_naive_matches_fast() {
        let key = key(40);
        let v = random_vector(40, 4);
        assert_eq!(key.commit(&v), key.commit_naive(&v));
    }

    #[test]
    fn precomputed_commit_matches_plain() {
        let plain = key(48);
        let pre = CommitKey::<K1>::setup_precomputed(48, b"test-seed");
        assert!(pre.is_precomputed());
        assert!(pre.table_memory_bytes() > 0);
        for seed in 20..24 {
            let v = random_vector(48, seed);
            assert_eq!(plain.commit(&v), pre.commit(&v));
            assert!(pre.verify(&v, &plain.commit(&v)));
        }
        // Shorter-than-key vectors take the table prefix path.
        let short = random_vector(13, 70);
        assert_eq!(plain.commit(&short), pre.commit(&short));
    }

    #[test]
    fn precompute_is_idempotent() {
        let mut key = key(8);
        assert!(!key.is_precomputed());
        assert_eq!(key.table_memory_bytes(), 0);
        let v = random_vector(8, 71);
        let c = key.commit(&v);
        key.precompute();
        assert!(key.is_precomputed());
        assert_eq!(key.commit(&v), c);
        key.precompute();
        assert_eq!(key.commit(&v), c);
    }

    #[test]
    fn equality_ignores_table() {
        let plain = key(6);
        let pre = CommitKey::<K1>::setup_precomputed(6, b"test-seed");
        assert_eq!(plain, pre);
        assert_ne!(plain, CommitKey::<K1>::setup(6, b"other-seed"));
    }

    #[test]
    fn batch_check_uses_table_transparently() {
        let key = CommitKey::<K1>::setup_precomputed(8, b"test-seed");
        let vectors: Vec<Vec<_>> = (0..4).map(|i| random_vector(8, 80 + i)).collect();
        let commits: Vec<_> = vectors.iter().map(|v| key.commit(v)).collect();
        assert!(key.batch_check(&entries(&vectors, &commits)));
    }

    #[test]
    fn empty_and_zero_vectors() {
        let key = key(4);
        assert_eq!(key.commit::<Scalar<K1>>(&[]), Commitment::identity());
        let zeros = vec![Scalar::<K1>::ZERO; 4];
        assert_eq!(key.commit(&zeros), Commitment::identity());
        assert!(key.verify(&zeros, &Commitment::identity()));
    }

    #[test]
    fn shorter_vector_allowed_longer_rejected() {
        let key = key(4);
        let v = random_vector(3, 5);
        assert!(key.verify(&v, &key.commit(&v)));
        let long = random_vector(5, 6);
        assert!(!key.verify(&long, &Commitment::identity()));
    }

    #[test]
    #[should_panic(expected = "exceeds key length")]
    fn commit_too_long_panics() {
        let key = key(2);
        key.commit(&random_vector(3, 7));
    }

    #[test]
    fn serialization_round_trip() {
        let key = key(8);
        let c = key.commit(&random_vector(8, 8));
        let decoded = Commitment::<K1>::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(decoded, c);
        let id = Commitment::<K1>::identity();
        assert_eq!(Commitment::<K1>::from_bytes(&id.to_bytes()).unwrap(), id);
    }

    /// A commitment parsed from its bytes still has `Z = 1`: serialising
    /// it again, or normalising a batch of such, runs no field inversion —
    /// where one that came out of an MSM pays one.
    #[test]
    fn a_parsed_commitment_reserialises_without_an_inversion() {
        use crate::field::INVERSIONS;
        let key = key(8);
        let computed = key.commit(&random_vector(8, 8));
        let bytes = computed.to_bytes();
        let parsed = Commitment::<K1>::from_bytes(&bytes).unwrap();
        let before = INVERSIONS.get();
        assert_eq!(parsed.to_bytes(), bytes);
        let affine = Jacobian::batch_normalize(&[parsed.point(), Jacobian::identity()]);
        assert_eq!(affine[0].to_compressed(), bytes);
        assert!(affine[1].is_identity());
        assert_eq!(INVERSIONS.get(), before);
        assert_eq!(computed.to_bytes(), bytes);
        assert_eq!(INVERSIONS.get(), before + 1);
        // Mixed batches still share one inversion and agree point by point.
        let mixed = [parsed.point(), computed.point(), parsed.point().double()];
        let normalized = Jacobian::batch_normalize(&mixed);
        assert_eq!(INVERSIONS.get(), before + 2);
        for (j, a) in mixed.iter().zip(&normalized) {
            assert_eq!(j.to_affine(), *a);
        }
    }

    #[test]
    fn batch_check_accepts_valid_batches() {
        let key = key(8);
        let vectors: Vec<Vec<_>> = (0..5).map(|i| random_vector(8, 30 + i)).collect();
        let commits: Vec<_> = vectors.iter().map(|v| key.commit(v)).collect();
        assert!(key.batch_check(&entries(&vectors, &commits)));
        assert!(key.batch_check(&[]), "empty batch is trivially valid");
    }

    #[test]
    fn batch_check_rejects_one_bad_pair() {
        let key = key(8);
        let vectors: Vec<Vec<_>> = (0..5).map(|i| random_vector(8, 40 + i)).collect();
        let mut commits: Vec<_> = vectors.iter().map(|v| key.commit(v)).collect();
        // Corrupt exactly one commitment.
        commits[3] = commits[3].combine(&key.commit(&random_vector(8, 99)));
        assert!(!key.batch_check(&entries(&vectors, &commits)));
    }

    #[test]
    fn batch_check_rejects_swapped_openings() {
        // Two valid pairs with their openings exchanged must fail even
        // though the multiset of commitments is unchanged.
        let key = key(4);
        let v1 = random_vector(4, 50);
        let v2 = random_vector(4, 51);
        let c1 = key.commit(&v1);
        let c2 = key.commit(&v2);
        assert!(key.batch_check(&[BatchEntry::new(&v1, &c1), BatchEntry::new(&v2, &c2)]));
        assert!(!key.batch_check(&[BatchEntry::new(&v1, &c2), BatchEntry::new(&v2, &c1)]));
    }

    #[test]
    fn batch_check_mixed_lengths() {
        let key = key(8);
        let short = random_vector(3, 60);
        let long = random_vector(8, 61);
        let cs = key.commit(&short);
        let cl = key.commit(&long);
        assert!(key.batch_check(&[BatchEntry::new(&short, &cs), BatchEntry::new(&long, &cl)]));
        // Over-long vector rejected outright.
        let too_long = random_vector(9, 62);
        assert!(!key.batch_check(&[BatchEntry::new(&too_long, &cs)]));
    }

    /// Builds a batch of `n` openings over `key`, then corrupts the
    /// commitments at `bad` (either by offsetting the commitment or by
    /// perturbing a value, alternating) so sequential verification fails
    /// at exactly those indices.
    fn corrupted_batch(
        key: &CommitKey<K1>,
        n: usize,
        bad: &[usize],
        seed: u64,
    ) -> (Vec<Vec<Scalar<K1>>>, Vec<Commitment<K1>>) {
        let vectors: Vec<Vec<_>> = (0..n)
            .map(|i| random_vector(key.len(), seed + i as u64))
            .collect();
        let mut commits: Vec<_> = vectors.iter().map(|v| key.commit(v)).collect();
        for (k, &i) in bad.iter().enumerate() {
            if k % 2 == 0 {
                commits[i] =
                    commits[i].combine(&key.commit(&random_vector(key.len(), 500 + k as u64)));
            } else {
                let mut altered = vectors[i].clone();
                altered[0] += Scalar::<K1>::ONE;
                commits[i] = key.commit(&altered);
            }
        }
        (vectors, commits)
    }

    fn entries<'a, C: crate::curve::Curve>(
        vectors: &'a [Vec<Scalar<C>>],
        commits: &'a [Commitment<C>],
    ) -> Vec<BatchEntry<'a, C>> {
        vectors
            .iter()
            .zip(commits)
            .map(|(v, c)| BatchEntry::new(v, c))
            .collect()
    }

    #[test]
    fn batch_check_accepts_honest_and_rejects_altered_openings() {
        let key = key(8);
        let (vectors, commits) = corrupted_batch(&key, 6, &[], 100);
        assert!(key.batch_check(&entries(&vectors, &commits)));
        let (vectors, commits) = corrupted_batch(&key, 6, &[2], 110);
        assert!(!key.batch_check(&entries(&vectors, &commits)));
        assert!(key.batch_check(&[]), "empty batch is trivially valid");
    }

    #[test]
    fn batch_culprits_empty_when_all_valid() {
        let key = key(8);
        let (vectors, commits) = corrupted_batch(&key, 7, &[], 120);
        assert!(key.batch_culprits(&entries(&vectors, &commits)).is_empty());
    }

    #[test]
    fn batch_culprits_names_exact_offenders() {
        let key = key(8);
        for bad in [
            vec![0],
            vec![4],
            vec![1, 5],
            vec![0, 3, 6],
            (0..7).collect(),
        ] {
            let (vectors, commits) = corrupted_batch(&key, 7, &bad, 130);
            let found = key.batch_culprits(&entries(&vectors, &commits));
            assert_eq!(found, bad, "culprit set must match the corrupted set");
        }
    }

    #[test]
    fn batch_culprits_flags_overlong_entries() {
        let key = key(4);
        let good = random_vector(4, 140);
        let cg = key.commit(&good);
        let long = random_vector(5, 141);
        let e = [BatchEntry::new(&good, &cg), BatchEntry::new(&long, &cg)];
        assert!(!key.batch_check(&e));
        assert_eq!(key.batch_culprits(&e), vec![1]);
    }

    /// Integer entries with their encodings as bindings.
    fn integer_entries<'a>(
        openings: &'a [Vec<Quantized>],
        commits: &'a [Commitment<K1>],
        bindings: &'a [Vec<u8>],
    ) -> Vec<BatchEntry<'a, K1>> {
        openings
            .iter()
            .zip(commits)
            .zip(bindings)
            .map(|((v, c), b)| BatchEntry::quantized(v, c, b))
            .collect()
    }

    #[test]
    fn integer_entries_accept_and_reject_as_their_embeddings_do() {
        // Binding bytes replace the scalar transcript and the recommits
        // read the integers, but the verdicts and the culprit sets are the
        // embeddings', on either side of the bisection leaf size.
        let key = key(6);
        let mut rng = StdRng::seed_from_u64(150);
        let openings: Vec<Vec<Quantized>> = (0..2 * RLC_MIN_BATCH)
            .map(|_| signed_integers(6, &mut rng))
            .collect();
        let bindings: Vec<Vec<u8>> = openings.iter().map(|v| encode(v)).collect();
        let mut commits: Vec<_> = openings.iter().map(|v| key.commit(v)).collect();
        let scalars: Vec<Vec<Scalar<K1>>> = openings.iter().map(|v| to_scalars::<K1>(v)).collect();
        commits[3] = commits[3].combine(&key.commit(&random_vector(6, 160)));
        for n in [RLC_MIN_BATCH - 1, 2 * RLC_MIN_BATCH] {
            let (openings, commits) = (&openings[..n], &commits[..n]);
            let honest = integer_entries(openings, commits, &bindings[..n]);
            assert!(key.batch_check(&honest[..3]), "n = {n}");
            assert!(!key.batch_check(&honest), "n = {n}");
            assert_eq!(key.batch_culprits(&honest), vec![3], "n = {n}");
            let embedded = entries(&scalars[..n], commits);
            assert_eq!(key.batch_culprits(&embedded), vec![3], "n = {n}");
        }
    }

    #[test]
    fn batch_culprits_both_curves() {
        let r1 = CommitKey::<Secp256r1>::setup(5, b"r1-batch");
        let mut rng = StdRng::seed_from_u64(170);
        let vectors: Vec<Vec<_>> = (0..4)
            .map(|_| {
                (0..5)
                    .map(|_| Scalar::<Secp256r1>::random(&mut rng))
                    .collect()
            })
            .collect();
        let mut commits: Vec<_> = vectors.iter().map(|v| r1.commit(v)).collect();
        commits[2] = commits[2].combine(&r1.commit(&vectors[0]));
        let e: Vec<BatchEntry<'_, Secp256r1>> = vectors
            .iter()
            .zip(&commits)
            .map(|(v, c)| BatchEntry::new(v, c))
            .collect();
        assert!(!r1.batch_check(&e));
        assert_eq!(r1.batch_culprits(&e), vec![2]);
    }

    /// Small signed fixed-point integers, the protocol's opening shape.
    fn signed_integers(n: usize, rng: &mut StdRng) -> Vec<Quantized> {
        use rand::Rng;
        (0..n)
            .map(|_| Quantized(rng.gen_range(-(1i64 << 30)..(1i64 << 30))))
            .collect()
    }

    /// [`signed_integers`], embedded.
    fn signed_vector(n: usize, rng: &mut StdRng) -> Vec<Scalar<K1>> {
        to_scalars::<K1>(&signed_integers(n, rng))
    }

    /// An overlay node's own d = 33 commit and its 8-child check — the
    /// largest passes `overlay_10k` runs, ≈ 960 digit entries under 170-bit
    /// sums — stay on the calling thread and never read the core count.
    #[test]
    fn tiny_d_commits_and_checks_never_split() {
        use crate::msm::SPLITS;
        use rand::Rng;
        let key = CommitKey::<K1>::setup_precomputed(33, b"test-seed");
        let mut rng = StdRng::seed_from_u64(330);
        let before = SPLITS.get();
        let vectors: Vec<Vec<Scalar<K1>>> = (0..8)
            .map(|_| {
                (0..33)
                    .map(|_| Scalar::<K1>::from_i64(rng.gen_range(-(1i64 << 40)..1i64 << 40)))
                    .collect()
            })
            .collect();
        let commits: Vec<_> = vectors.iter().map(|v| key.commit(v)).collect();
        let mut doctored = commits.clone();
        doctored[5] = doctored[5].combine(&commits[0]);
        assert!(key.batch_culprits(&entries(&vectors, &commits)).is_empty());
        assert_eq!(key.batch_culprits(&entries(&vectors, &doctored)), vec![5]);
        assert_eq!(SPLITS.get(), before);
    }

    /// A commitment computed later is the one computed now, on either side
    /// of the split rule: just below it the job is deferred, from it the
    /// commitment is computed at once.
    #[test]
    fn commit_later_equals_commit_on_either_side_of_the_split_rule() {
        let key = Arc::new(CommitKey::<K1>::setup_precomputed(512, b"test-seed"));
        let mut rng = StdRng::seed_from_u64(340);
        let mut values = signed_integers(512, &mut rng);
        values[0] = Quantized((1 << 30) - 1); // the longest has 30 bits
        let table = key.table.as_ref().unwrap();
        let first = (1..=512).find(|&d| table.may_split(d, 30)).unwrap();
        for (d, deferred) in [(33, true), (first - 1, true), (first, false)] {
            let pending = key.commit_later(encode(&values[..d]));
            assert_eq!(pending.is_deferred(), deferred, "d = {d}");
            assert_eq!(pending.wait(), key.commit(&values[..d]), "d = {d}");
        }
    }

    #[test]
    fn column_ranges_sum_what_one_range_sums() {
        // Ragged openings under a width of 11, one entry left out, and range
        // counts from 1 to past the width.
        let vectors: Vec<Vec<Scalar<K1>>> = [11, 3, 0, 7, 11, 1, 10]
            .iter()
            .zip(350..)
            .map(|(&n, seed)| random_vector(n, seed))
            .collect();
        let commits = vec![Commitment::<K1>::identity(); vectors.len()];
        let e = entries(&vectors, &commits);
        let coeffs: Vec<Scalar<K1>> = (0..7u64)
            .map(|i| Scalar::<K1>::from_u64(i * i + 3))
            .collect();
        let idxs = [0, 1, 2, 3, 5, 6];
        let direct: Vec<Scalar<K1>> = (0..11)
            .map(|j| {
                idxs.iter()
                    .filter_map(|&i| vectors[i].get(j).map(|v| coeffs[i] * *v))
                    .sum()
            })
            .collect();
        for ranges in 1..=12 {
            assert_eq!(
                accumulate_columns(&e, &coeffs, &idxs, 11, ranges),
                direct,
                "{ranges} ranges"
            );
        }
        assert!(accumulate_columns(&e, &coeffs, &idxs, 0, 3).is_empty());
    }

    /// The accumulation's half of the measurement behind `SPLIT_MIN_MULS`:
    /// `Σ rᵢ·vᵢ` on one thread and split by columns, for `n` openings of
    /// `d` elements. Run with `cargo test --release -p dfl-crypto --lib
    /// accumulate_crossover -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing table; run by hand in release"]
    fn accumulate_crossover() {
        use crate::msm::tests::median_us;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!("accumulate, 1 vs {cores} ranges, median of 31 (µs)");
        println!(
            "{:>6} {:>4} {:>9} {:>9} {:>9} {:>7}",
            "d", "n", "products", "serial", "split", "ratio"
        );
        for (d, n) in [
            (33, 8),
            (257, 8),
            (1025, 8),
            (2049, 8),
            (4097, 8),
            (8193, 4),
            (8193, 15),
        ] {
            let vectors: Vec<Vec<Scalar<K1>>> =
                (0..n).map(|i| random_vector(d, i as u64)).collect();
            let commits = vec![Commitment::<K1>::identity(); n];
            let e = entries(&vectors, &commits);
            let coeffs = random_vector(n, 99);
            let idxs: Vec<usize> = (0..n).collect();
            let time = |ranges| {
                median_us(
                    31,
                    || (),
                    |()| accumulate_columns(&e, &coeffs, &idxs, d, ranges),
                )
            };
            let (serial, split) = (time(1), time(cores));
            println!(
                "{d:>6} {n:>4} {:>9} {serial:>9.1} {split:>9.1} {:>7.2}",
                d * n,
                split / serial
            );
        }
    }

    /// The measurement behind [`RLC_MIN_BATCH`]: honest rounds of `n`
    /// openings of `d` elements, checked by sequential `verify`, by one
    /// `batch_check`, by `batch_culprits`, and — what a consumer of the sum
    /// alone needs — by one `verify` of `Σvᵢ` against `ΠCᵢ`, the integer sum
    /// included. Each opening is what the protocol checks: a shared vector
    /// of alternating-sign ≤ 24-bit fixed-point integers with one element
    /// bumped, its bytes the binding, on a key with its table. Run with
    /// `cargo test --release -p dfl-crypto --lib rlc_crossover -- --ignored
    /// --nocapture`.
    #[test]
    #[ignore = "timing table; run by hand in release"]
    fn rlc_crossover() {
        use crate::msm::tests::median_us;
        println!(
            "honest round: sequential verify, one RLC, batch_culprits, verify of the sum \
             (median of 5, ms)"
        );
        println!(
            "{:>6} {:>4} {:>12} {:>10} {:>16} {:>10} {:>16}",
            "d", "n", "sequential", "rlc", "batch_culprits", "sum", "sequential/rlc"
        );
        for d in [33, 8193] {
            let key = CommitKey::<K1>::setup_precomputed(d, b"bench-verifiable-round");
            let base: Vec<i64> = (0..d as i64)
                .map(|i| ((0x9E37 * (i + 1)) & 0xFF_FFFF) * if i % 2 == 0 { 1 } else { -1 })
                .collect();
            for n in [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16] {
                let openings: Vec<Vec<Quantized>> = (0..n)
                    .map(|i| {
                        let mut values = base.clone();
                        values[i % d] += ((0x9E37 * i as i64) & 0xFF_FFFF) | 1;
                        values.into_iter().map(Quantized).collect()
                    })
                    .collect();
                let bindings: Vec<Vec<u8>> = openings.iter().map(|v| encode(v)).collect();
                let commits: Vec<_> = openings.iter().map(|v| key.commit(v)).collect();
                let e = integer_entries(&openings, &commits, &bindings);
                let ms = |f: &dyn Fn() -> bool| median_us(5, || (), |()| assert!(f())) / 1e3;
                let sequential =
                    ms(&|| openings.iter().zip(&commits).all(|(v, c)| key.verify(v, c)));
                let rlc = ms(&|| key.batch_check(&e));
                let culprits = ms(&|| key.batch_culprits(&e).is_empty());
                let sum = ms(&|| {
                    let column = |j: usize| openings.iter().map(|v| v[j].0).sum::<i64>();
                    let summed: Vec<Quantized> = (0..d).map(|j| Quantized(column(j))).collect();
                    key.verify(&summed, &Commitment::accumulate(&commits))
                });
                println!(
                    "{d:>6} {n:>4} {sequential:>12.3} {rlc:>10.3} {culprits:>16.3} {sum:>10.3} \
                     {:>15.2}x",
                    sequential / rlc
                );
            }
        }
    }

    #[test]
    fn batch_coefficients_are_short_distinct_and_bound_to_the_whole_batch() {
        let key = key(4);
        let mut rng = StdRng::seed_from_u64(300);
        let openings: Vec<Vec<Quantized>> = (0..9).map(|_| signed_integers(4, &mut rng)).collect();
        let vectors: Vec<Vec<Scalar<K1>>> = openings.iter().map(|v| to_scalars::<K1>(v)).collect();
        let commits: Vec<_> = openings.iter().map(|v| key.commit(v)).collect();
        let bindings: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 32]).collect();
        let bound = |commits: &[Commitment<K1>], bindings: &[Vec<u8>]| {
            key.batch_coefficients(&integer_entries(&openings, commits, bindings))
        };
        let base = bound(&commits, &bindings);
        assert_eq!(base, bound(&commits, &bindings), "deterministic");
        for (i, r) in base.iter().enumerate() {
            assert!(r.to_canonical().bit_len() <= 128, "coefficient {i} is wide");
            assert!(!r.is_zero());
            assert!(!base[..i].contains(r), "coefficient {i} repeats");
        }
        // Any entry's binding, any entry's commitment, or the length:
        // every coefficient moves, not just the touched entry's.
        let mut other = bindings.clone();
        other[8][0] ^= 1;
        let rebound = bound(&commits, &other);
        let mut moved = commits.clone();
        moved[0] = moved[0].combine(&commits[1]);
        let recommitted = bound(&moved, &bindings);
        let shorter = bound(&commits[..8], &bindings[..8]);
        for i in 0..8 {
            assert_ne!(
                base[i], rebound[i],
                "binding of entry 8 not bound into r{i}"
            );
            assert_ne!(base[i], recommitted[i], "commitment 0 not bound into r{i}");
            assert_ne!(base[i], shorter[i], "batch length not bound into r{i}");
        }
        // Without bindings the scalar encodings are the leaf.
        let plain = key.batch_coefficients(&entries(&vectors, &commits));
        let mut altered = vectors.clone();
        altered[4][2] += Scalar::<K1>::ONE;
        assert_ne!(plain, base);
        assert_ne!(
            plain[0],
            key.batch_coefficients(&entries(&altered, &commits))[0]
        );
    }

    #[test]
    fn opposite_errors_at_one_coordinate_do_not_cancel() {
        // Entry 1 claims +δ and entry 4 claims −δ at the same coordinate.
        // Under equal coefficients Σ rᵢ·vᵢ would be unchanged and the
        // batch would pass; distinct per-entry coefficients reject it, at
        // every batch size on either side of the bisection leaf.
        let key = key(6);
        let mut rng = StdRng::seed_from_u64(310);
        for n in [2, RLC_MIN_BATCH - 1, RLC_MIN_BATCH, 2 * RLC_MIN_BATCH + 1] {
            let (a, b) = (n / 4, n - 1);
            let honest: Vec<Vec<_>> = (0..n).map(|_| signed_vector(6, &mut rng)).collect();
            let commits: Vec<_> = honest.iter().map(|v| key.commit(v)).collect();
            let delta = Scalar::<K1>::from_i64(1 << 20);
            let mut claimed = honest.clone();
            claimed[a][3] += delta;
            claimed[b][3] -= delta;
            // The unweighted sums agree, so an equal-coefficient check passes…
            let total = |vs: &[Vec<Scalar<K1>>]| -> Vec<Scalar<K1>> {
                (0..6).map(|j| vs.iter().map(|v| v[j]).sum()).collect()
            };
            assert!(key.verify(&total(&claimed), &Commitment::accumulate(&commits)));
            // …and the real one does not.
            let e = entries(&claimed, &commits);
            assert!(!key.batch_check(&e), "n = {n}");
            assert_eq!(key.batch_culprits(&e), vec![a, b], "n = {n}");
        }
    }

    #[test]
    fn culprits_equal_sequential_rejections_either_side_of_the_leaf_size() {
        // 200 seeded batches of 1 ..= 2·RLC_MIN_BATCH + 2 entries, each
        // entry honest or broken one of five ways — altered value, altered
        // commitment, truncated opening, over-long opening, empty opening
        // of a non-identity commitment — plus honest openings shorter than
        // the key. The bisected set must be the one `verify` rejects.
        use rand::Rng;
        let key = CommitKey::<K1>::setup_precomputed(5, b"test-seed");
        let mut rng = StdRng::seed_from_u64(320);
        let mut sizes_seen = std::collections::BTreeSet::new();
        for case in 0..200 {
            let n = rng.gen_range(1..2 * RLC_MIN_BATCH + 3);
            sizes_seen.insert(n);
            let mut vectors = Vec::with_capacity(n);
            let mut commits = Vec::with_capacity(n);
            for _ in 0..n {
                let len = rng.gen_range(1..6);
                let mut v = signed_vector(len, &mut rng);
                let mut c = key.commit(&v);
                match rng.gen_range(0..12) {
                    0 => v[0] += Scalar::<K1>::ONE,
                    1 => c = c.combine(&key.commit(&signed_vector(2, &mut rng))),
                    2 => v.truncate(len - 1),
                    3 => v.extend(signed_vector(6 - len, &mut rng)),
                    4 => v.clear(),
                    _ => {}
                }
                vectors.push(v);
                commits.push(c);
            }
            let sequential: Vec<usize> = (0..n)
                .filter(|&i| !key.verify(&vectors[i], &commits[i]))
                .collect();
            let e = entries(&vectors, &commits);
            assert_eq!(key.batch_culprits(&e), sequential, "case {case}, n = {n}");
            assert_eq!(key.batch_check(&e), sequential.is_empty(), "case {case}");
        }
        assert!(sizes_seen.contains(&(RLC_MIN_BATCH - 1)) && sizes_seen.contains(&RLC_MIN_BATCH));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The batched verdict and the bisected culprit set must match
        /// sequential per-item verification exactly, over randomized
        /// good/bad mixes.
        #[test]
        fn prop_batch_matches_sequential(
            len in 1usize..12,
            mask in 0u64..4096,
            seed in 0u64..1_000,
        ) {
            let key = key(6);
            let bad: Vec<usize> = (0..len).filter(|i| mask >> i & 1 == 1).collect();
            let (vectors, commits) = corrupted_batch(&key, len, &bad, 1_000 + seed);
            let sequential: Vec<usize> = vectors
                .iter()
                .zip(&commits)
                .enumerate()
                .filter(|(_, (v, c))| !key.verify(v, c))
                .map(|(i, _)| i)
                .collect();
            let e = entries(&vectors, &commits);
            prop_assert_eq!(key.batch_check(&e), sequential.is_empty());
            prop_assert_eq!(key.batch_culprits(&e), sequential);
        }

        #[test]
        fn prop_homomorphism_small_vectors(
            a in proptest::collection::vec(0u64..1_000_000, 6),
            b in proptest::collection::vec(0u64..1_000_000, 6),
        ) {
            let key = key(6);
            let va: Vec<_> = a.iter().map(|&x| Scalar::<K1>::from_u64(x)).collect();
            let vb: Vec<_> = b.iter().map(|&x| Scalar::<K1>::from_u64(x)).collect();
            let sum: Vec<_> = va.iter().zip(&vb).map(|(x, y)| *x + *y).collect();
            prop_assert_eq!(
                key.commit(&va).combine(&key.commit(&vb)),
                key.commit(&sum)
            );
        }

        #[test]
        fn prop_binding_on_distinct_vectors(
            a in proptest::collection::vec(0u64..1_000_000, 5),
            b in proptest::collection::vec(0u64..1_000_000, 5),
        ) {
            prop_assume!(a != b);
            let key = key(5);
            let va: Vec<_> = a.iter().map(|&x| Scalar::<K1>::from_u64(x)).collect();
            let vb: Vec<_> = b.iter().map(|&x| Scalar::<K1>::from_u64(x)).collect();
            prop_assert_ne!(key.commit(&va), key.commit(&vb));
        }
    }
}
