//! Gradient blob codec: how parameter partitions travel over the storage
//! network.
//!
//! Per Algorithm 1, a trainer uploads `[gradU[i], 1]` — the partition's
//! values with an appended counter element — and after aggregation divides
//! the summed vector by the summed counter (lines 14 and 20–21). Values are
//! fixed-point quantized ([`dfl_crypto::quantize`]) so that storage-side
//! merging, aggregator summation, and Pedersen commitments all operate in
//! the same exact arithmetic.

use std::sync::Arc;

use bytes::Bytes;

use dfl_crypto::curve::Secp256k1;
use dfl_crypto::pedersen::{CommitKey, Commitment};
use dfl_crypto::quantize::{admissible, decode, quantize_clamped, Quantized};

use crate::config::TaskConfig;
use crate::error::IplsError;
use crate::protocol::Actions;

/// The curve the protocol's commitments use.
pub type ProtocolCurve = Secp256k1;
/// Commitment key type for the protocol.
pub type ProtocolKey = CommitKey<ProtocolCurve>;
/// Commitment type for the protocol.
pub type ProtocolCommitment = Commitment<ProtocolCurve>;

/// Builds the upload blob for one partition: `quantize(values ++ [1.0])`,
/// each element clamped into one contribution's range
/// ([`dfl_crypto::quantize::BOUND`]) and written as its 8 little-endian
/// bytes as it is rounded. A diverging trainer's blob is therefore still
/// admissible, and still contributes.
pub fn build_blob(values: &[f32]) -> Vec<u8> {
    let element = |v: f32| quantize_clamped(v).0.to_le_bytes();
    let mut out: Vec<[u8; 8]> = Vec::with_capacity(values.len() + 1);
    out.extend(values.iter().map(|&v| element(v)));
    out.push(element(1.0)); // the averaging counter
    out.into_flattened()
}

/// Decodes a blob into its quantized vector (values + counter).
pub fn decode_blob(blob: &[u8]) -> Option<Vec<Quantized>> {
    let v = decode(blob)?;
    if v.len() < 2 {
        return None; // at least one value plus the counter
    }
    Some(v)
}

/// Decodes a blob that must carry one partition of `len` values and stand
/// for `n` contributions: a blob of any other width, or with an element
/// outside ± n · [`BOUND`](dfl_crypto::quantize::BOUND), is as unusable as
/// one that does not decode.
pub fn decode_partition_blob(blob: &[u8], len: usize, n: usize) -> Option<Vec<Quantized>> {
    decode_blob(blob).filter(|v| v.len() == len + 1 && admissible(v.iter().copied(), n))
}

/// Decodes an aggregated update blob and divides by the counter, returning
/// the averaged partition values (Algorithm 1 lines 20–21). The counter is
/// the last element, so it is read first and the values stream from the
/// bytes into the result.
///
/// Returns `None` when the blob is malformed, when the counter is not a
/// positive whole number, or when the values are not admissible for that
/// many contributions ([`admissible`]: at most `MAX_CONTRIBUTIONS`).
pub fn decode_update(blob: &[u8]) -> Option<(Vec<f32>, u64)> {
    let (elements, ragged) = blob.as_chunks::<8>();
    let (counter, values) = elements.split_last()?;
    if !ragged.is_empty() || values.is_empty() {
        return None; // at least one value plus the counter
    }
    let quantized = |bytes: &[u8; 8]| Quantized(i64::from_le_bytes(*bytes));
    let real = |bytes| quantized(bytes).to_f64();
    let count = real(counter);
    if count < 1.0 || count.fract() != 0.0 {
        return None;
    }
    if !admissible(values.iter().map(quantized), count as usize) {
        return None; // past its counter's range, or counting too many
    }
    let averaged = values.iter().map(|v| (real(v) / count) as f32).collect();
    Some((averaged, count as u64))
}

/// Element-wise sum of decoded gradient vectors (values and counters
/// alike), in `i64` addition that wraps. Wrapping is associative, so the
/// result is the true sum, in any order, whenever that fits — always for
/// vectors admitted under the range rule
/// ([`dfl_crypto::quantize::BOUND`]); that same sum is what the
/// commitments add.
///
/// The vectors are borrowed — owned, or slices of what a core holds — so a
/// sum copies nothing but its result.
///
/// Vectors of different widths, or no vector at all, are
/// [`IplsError::MalformedBlob`]: the vectors come from remote blobs, so a
/// shape mismatch is an error, never a panic.
pub fn sum_gradients(grads: &[impl AsRef<[Quantized]>]) -> Result<Vec<Quantized>, IplsError> {
    let (first, rest) = grads.split_first().ok_or(IplsError::MalformedBlob)?;
    let mut sum = first.as_ref().to_vec();
    for g in rest {
        let g = g.as_ref();
        if g.len() != sum.len() {
            return Err(IplsError::MalformedBlob);
        }
        for (a, b) in sum.iter_mut().zip(g) {
            a.0 = a.0.wrapping_add(b.0);
        }
    }
    Ok(sum)
}

/// Commits to a blob's quantized vector (including the counter element),
/// reading each integer's digits straight from its sign and magnitude.
///
/// Returns [`IplsError::MalformedBlob`] when the blob does not decode or
/// decodes to more elements than the key has generators — blobs can
/// arrive from Byzantine peers (e.g. the recovery re-commit path), so a
/// malformed one must never panic an honest node.
pub fn commit_blob(key: &ProtocolKey, blob: &[u8]) -> Result<ProtocolCommitment, IplsError> {
    let v = decode_blob(blob)
        .filter(|v| v.len() <= key.len())
        .ok_or(IplsError::MalformedBlob)?;
    Ok(key.commit(&v))
}

/// Verifies that `blob` opens `commitment`.
pub fn verify_blob(key: &ProtocolKey, blob: &[u8], commitment: &ProtocolCommitment) -> bool {
    decode_blob(blob).is_some_and(|v| key.verify(&v, commitment))
}

/// Verifies a batch of `(blob, commitment)` pairs *now* with one
/// random-linear-combination check ([`CommitKey::batch_check`]), bisecting
/// on failure so the returned indices are exactly the pairs that
/// [`verify_blob`] would reject one at a time — malformed blobs included.
/// The blob bytes double as the Fiat–Shamir binding (they uniquely
/// determine the decoded integers), which keeps transcript hashing at 8
/// bytes per element.
///
/// This is the arrival-time check of every core that consumes what it
/// checks entry by entry, whatever the task's verification policy: a blob
/// that arrives alone (a recovered gradient, an audited update, a peer
/// partial, the overlay root's partial) is a batch of one, a peer-partial
/// stash drain a batch of `n`. Below `RLC_MIN_BATCH` entries
/// `batch_culprits` recommits each entry, so a singleton costs exactly one
/// [`verify_blob`]. A consumer of the batch's sum alone checks it with
/// [`verify_sum_timed`].
///
/// Books one [`labels::VERIFY_MS`](crate::labels::VERIFY_MS) sample for
/// the whole batch (wall-clock time is real, not simulated, and varies
/// run to run; determinism comparisons deliberately cover only events and
/// counters), bumps
/// [`labels::BLOBS_VERIFIED`](crate::labels::BLOBS_VERIFIED) by the batch
/// length, and records the batch size under
/// [`labels::VERIFY_BATCHED`](crate::labels::VERIFY_BATCHED).
///
/// Returns the sorted indices of the failing pairs (empty = all verified).
pub fn verify_blobs_timed<M>(
    out: &mut Actions<M>,
    key: &ProtocolKey,
    items: &[(&[u8], &ProtocolCommitment)],
) -> Vec<usize> {
    checked_now(out, key, items, culprits)
}

/// [`verify_blobs_timed`] for a consumer that uses nothing but the batch's
/// sum — the overlay's child check. Sum first, culprits on failure: the
/// entries must decode to one width, and their [`sum_gradients`] must open
/// the product of their commitments, one short opening in place of the
/// RLC batch. By additive homomorphism and binding that makes the sum the
/// committed one; the callers admit only in-range entries, whose sum is
/// exact. Only when it fails (an undecodable entry, a width mismatch, or a
/// sum that does not open) does the check fall back to
/// [`verify_blobs_timed`]'s per-entry culprits, so one bad entry is
/// named exactly as before. Entries whose alterations cancel across the
/// batch pass unnamed — and, by binding, leave the sum unchanged.
///
/// Books what [`verify_blobs_timed`] books.
pub fn verify_sum_timed<M>(
    out: &mut Actions<M>,
    key: &ProtocolKey,
    items: &[(&[u8], &ProtocolCommitment)],
) -> Vec<usize> {
    checked_now(out, key, items, sum_culprits)
}

/// A check made on arrival: bumps
/// [`labels::BLOBS_VERIFIED`](crate::labels::BLOBS_VERIFIED) by the batch
/// length (a [`VerifyQueue`] bumps it when it admits instead), then runs
/// `check` [`timed`].
fn checked_now<M>(
    out: &mut Actions<M>,
    key: &ProtocolKey,
    items: &[(&[u8], &ProtocolCommitment)],
    check: Check,
) -> Vec<usize> {
    if !items.is_empty() {
        out.incr(crate::labels::BLOBS_VERIFIED, items.len() as u64);
    }
    timed(out, key, items, check)
}

/// Runs one check and books its
/// [`labels::VERIFY_MS`](crate::labels::VERIFY_MS) and
/// [`labels::VERIFY_BATCHED`](crate::labels::VERIFY_BATCHED) samples. An
/// empty batch is no check: nothing runs and nothing is booked.
fn timed<M>(
    out: &mut Actions<M>,
    key: &ProtocolKey,
    items: &[(&[u8], &ProtocolCommitment)],
    check: Check,
) -> Vec<usize> {
    if items.is_empty() {
        return Vec::new();
    }
    let started = std::time::Instant::now();
    let culprits = check(key, items);
    out.observe(
        crate::labels::VERIFY_MS,
        started.elapsed().as_secs_f64() * 1e3,
    );
    out.observe(crate::labels::VERIFY_BATCHED, items.len() as f64);
    culprits
}

/// The sorted indices of the pairs [`verify_blob`] rejects: one RLC batch
/// over the decodable entries, bisected on failure.
fn culprits(key: &ProtocolKey, items: &[(&[u8], &ProtocolCommitment)]) -> Vec<usize> {
    use dfl_crypto::pedersen::BatchEntry;
    // Malformed blobs can never open a commitment: convict them up front
    // and batch the RLC over the decodable remainder.
    let mut culprits: Vec<usize> = Vec::new();
    let mut decoded: Vec<(usize, Vec<Quantized>)> = Vec::new();
    for (i, (blob, _)) in items.iter().enumerate() {
        match decode_blob(blob) {
            Some(v) => decoded.push((i, v)),
            None => culprits.push(i),
        }
    }
    let entries: Vec<BatchEntry<'_, ProtocolCurve>> = decoded
        .iter()
        .map(|(i, values)| BatchEntry::quantized(values, items[*i].1, items[*i].0))
        .collect();
    culprits.extend(key.batch_culprits(&entries).iter().map(|&j| decoded[j].0));
    culprits.sort_unstable();
    culprits
}

/// Sum first, culprits on failure (see [`verify_sum_timed`]): no culprit
/// when the entries' exact sum opens the product of their commitments,
/// else exactly [`culprits`].
fn sum_culprits(key: &ProtocolKey, items: &[(&[u8], &ProtocolCommitment)]) -> Vec<usize> {
    let decoded: Option<Vec<Vec<Quantized>>> =
        items.iter().map(|(blob, _)| decode_blob(blob)).collect();
    // `sum_gradients` refuses mismatched widths; `verify` refuses a sum
    // wider than the key. The sum's integers are ≈ 25 + log₂ n bits, and
    // their digits are read as they are.
    let sum = decoded.and_then(|vectors| sum_gradients(&vectors).ok());
    let product = || Commitment::accumulate(items.iter().map(|&(_, c)| c));
    match sum {
        Some(sum) if key.verify(&sum, &product()) => Vec::new(),
        _ => culprits(key, items),
    }
}

/// An untimed check of a batch: [`culprits`] or [`sum_culprits`].
type Check = fn(&ProtocolKey, &[(&[u8], &ProtocolCommitment)]) -> Vec<usize>;

/// The blobs a core has taken in but not yet used, each with the
/// commitment it must open and a caller-chosen tag `T` naming what to undo
/// if it does not. The task's verification policy is read once, here:
///
/// * **per-blob** — [`admit`](Self::admit) checks the blob on the spot (a
///   batch of one) and nothing is ever pending;
/// * **deferred** (`batch_verify`) — `admit` accepts optimistically and
///   the caller settles everything admitted since the last settle at the
///   point it is about to consume the blobs: with
///   [`settle`](Self::settle), one RLC check with per-entry verdicts, when
///   it consumes the blobs one by one (the trainer's partition updates);
///   with [`settle_sum`](Self::settle_sum), sum first and culprits on
///   failure, when it consumes nothing but their sum (the aggregator's
///   partial).
///
/// Both policies name the same culprits (`batch_culprits` bisects down to
/// per-entry recommits), with one exception: under `settle_sum`, a set of
/// blobs whose alterations cancel in the sum goes unnamed, and by binding
/// the sum is the committed one. Both book the same
/// [`labels::BLOBS_VERIFIED`](crate::labels::BLOBS_VERIFIED) total: a
/// deferred blob is counted when admitted — the instant the per-blob
/// policy verifies it — so the totals agree even for a round that stalls
/// before it settles.
pub struct VerifyQueue<T> {
    key: Arc<ProtocolKey>,
    deferred: bool,
    pending: Vec<(T, Bytes, ProtocolCommitment)>,
}

impl<T> VerifyQueue<T> {
    /// An empty queue checking against `key` under `cfg`'s policy.
    pub fn new(key: Arc<ProtocolKey>, cfg: &TaskConfig) -> VerifyQueue<T> {
        VerifyQueue {
            key,
            deferred: cfg.batch_verify,
            pending: Vec::new(),
        }
    }

    /// Takes `blob` in. `false` means it was checked now and does not open
    /// `commitment`; `true` means it did, or that the verdict waits for
    /// a settle.
    pub fn admit<M>(
        &mut self,
        out: &mut Actions<M>,
        tag: T,
        blob: &Bytes,
        commitment: ProtocolCommitment,
    ) -> bool {
        if self.deferred {
            out.incr(crate::labels::BLOBS_VERIFIED, 1);
            self.pending.push((tag, blob.clone(), commitment));
            return true;
        }
        verify_blobs_timed(out, &self.key, &[(blob, &commitment)]).is_empty()
    }

    /// Checks everything pending as one batch and returns the tags of the
    /// blobs that do not open their commitment, in admission order. Free
    /// when nothing is pending — always, under the per-blob policy.
    pub fn settle<M>(&mut self, out: &mut Actions<M>) -> Vec<T> {
        self.settle_by(out, culprits)
    }

    /// [`settle`](Self::settle) for a caller that consumes nothing but the
    /// pending blobs' sum: one opening of the sum, and per-entry culprits
    /// only if it fails ([`verify_sum_timed`]).
    pub fn settle_sum<M>(&mut self, out: &mut Actions<M>) -> Vec<T> {
        self.settle_by(out, sum_culprits)
    }

    fn settle_by<M>(&mut self, out: &mut Actions<M>, check: Check) -> Vec<T> {
        let pending = std::mem::take(&mut self.pending);
        let items: Vec<(&[u8], &ProtocolCommitment)> =
            pending.iter().map(|(_, blob, c)| (&blob[..], c)).collect();
        let culprits = timed(out, &self.key, &items, check);
        let tags = pending.into_iter().map(|(tag, ..)| tag).enumerate();
        tags.filter(|(i, _)| culprits.binary_search(i).is_ok())
            .map(|(_, tag)| tag)
            .collect()
    }
}

/// Derives the protocol commitment key for a task: enough generators for
/// the largest partition plus the counter element.
///
/// `precompute` additionally builds the key's fixed-base MSM table
/// ([`CommitKey::precompute`]) — a one-time per-task cost that makes every
/// subsequent commit and verification take the table fast path. All peers
/// derive identical keys either way; the table is derived data and does
/// not affect key equality.
pub fn derive_key(max_partition_len: usize, task_seed: u64, precompute: bool) -> ProtocolKey {
    let mut seed = b"ipls-task-".to_vec();
    seed.extend_from_slice(&task_seed.to_be_bytes());
    if precompute {
        CommitKey::setup_precomputed(max_partition_len + 1, &seed)
    } else {
        CommitKey::setup(max_partition_len + 1, &seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfl_crypto::quantize::{encode, BOUND, SCALE};

    /// [`build_blob`] as it was — quantise into a vector, then encode it —
    /// kept as the one-pass version's oracle, with the range rule's clamp.
    fn build_blob_two_pass(values: &[f32]) -> Vec<u8> {
        let mut quantized: Vec<Quantized> = values
            .iter()
            .map(|&v| Quantized(((v as f64 * SCALE).round() as i64).clamp(-BOUND, BOUND)))
            .collect();
        quantized.push(Quantized(SCALE as i64));
        encode(&quantized)
    }

    /// [`decode_update`] as it was: decode the whole vector, then average;
    /// with the range rule written out.
    fn decode_update_two_pass(blob: &[u8]) -> Option<(Vec<f32>, u64)> {
        let v = decode_blob(blob)?;
        let (values, counter) = v.split_at(v.len() - 1);
        let count = counter[0].to_f64();
        if count < 1.0 || count.fract() != 0.0 || count > (1 << 20) as f64 {
            return None;
        }
        let limit = count as i128 * BOUND as i128;
        if values.iter().any(|q| (q.0 as i128).abs() > limit) {
            return None;
        }
        let averaged = values.iter().map(|q| (q.to_f64() / count) as f32).collect();
        Some((averaged, count as u64))
    }

    #[test]
    fn one_pass_codecs_equal_the_two_pass_ones() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let one = SCALE as i64;
        for case in 0..300 {
            // Gradient-sized values, ties, and raw bit patterns (huge, tiny,
            // NaN, ± ∞) — a blob is built from whatever training produced.
            let values: Vec<f32> = (0..rng.gen_range(0..40usize))
                .map(|_| match rng.gen_range(0..4u32) {
                    0 => f32::from_bits(rng.next_u64() as u32),
                    1 => (rng.gen_range(-64i32..64) as f32 + 0.5) / 16_777_216.0,
                    _ => rng.gen_range(-4.0f32..4.0),
                })
                .collect();
            let blob = build_blob(&values);
            assert_eq!(
                blob,
                build_blob_two_pass(&values),
                "case {case}: {values:?}"
            );
            assert_eq!(blob.len(), (values.len() + 1) * 8);

            // The same number of elements as an update, anywhere in the
            // range of one contribution, or raw bit patterns, or one past
            // the range of 16 — under every kind of counter.
            let mut elements: Vec<i64> = (0..values.len())
                .map(|_| match case % 3 {
                    0 => rng.gen_range(-BOUND..BOUND + 1),
                    1 => rng.next_u64() as i64,
                    _ => 16 * BOUND + 1,
                })
                .collect();
            // `i64::MAX` reads as the whole number 2³⁹: `to_f64` rounds it,
            // and it counts more contributions than a task may have.
            for (counter, whole) in [
                (one, true),
                (16 * one, true),
                (17 * one, true),
                (one << 20, true),
                ((one << 20) + one, false),
                (0, false),
                (-one, false),
                (one + 1, false),
                (one / 2, false),
                (i64::MAX, false),
                (i64::MIN, false),
            ] {
                elements.push(counter);
                let update: Vec<u8> = elements.iter().flat_map(|e| e.to_le_bytes()).collect();
                for cut in [0, 1, 7] {
                    let bytes = &update[..update.len() - cut];
                    let (got, expect) = (decode_update(bytes), decode_update_two_pass(bytes));
                    // Bit patterns, not float equality: NaN never occurs
                    // (i64 / positive count) but − 0.0 vs 0.0 must not hide.
                    let bits = |r: &Option<(Vec<f32>, u64)>| {
                        r.as_ref()
                            .map(|(v, n)| (v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), *n))
                    };
                    assert_eq!(
                        bits(&got),
                        bits(&expect),
                        "case {case} counter {counter} cut {cut}"
                    );
                    let count = (counter / one) as i128;
                    let in_range = elements[..values.len()]
                        .iter()
                        .all(|&e| (e as i128).abs() <= count * BOUND as i128);
                    let ok = cut == 0 && !values.is_empty() && whole && in_range;
                    assert_eq!(got.is_some(), ok, "case {case} counter {counter} cut {cut}");
                }
                elements.pop();
            }
        }
        assert_eq!(decode_update(&[]), None);
        assert_eq!(decode_update(&one.to_le_bytes()), None, "counter only");
    }

    #[test]
    fn blob_round_trip_single_trainer() {
        let values = [0.5f32, -1.25, 3.0];
        let blob = build_blob(&values);
        let (avg, count) = decode_update(&blob).unwrap();
        assert_eq!(count, 1);
        assert_eq!(avg, values);
    }

    #[test]
    fn sum_then_average_matches_mean() {
        let blobs = [
            build_blob(&[1.0, 2.0]),
            build_blob(&[3.0, 6.0]),
            build_blob(&[5.0, 1.0]),
        ];
        let decoded: Vec<_> = blobs.iter().map(|b| decode_blob(b).unwrap()).collect();
        let summed = sum_gradients(&decoded).unwrap();
        let (avg, count) = decode_update(&encode(&summed)).unwrap();
        assert_eq!(count, 3);
        assert_eq!(avg, vec![3.0, 3.0]);
    }

    #[test]
    fn storage_merge_equals_aggregator_sum() {
        // The merge-and-download path and the naive path must agree bit-
        // for-bit: merging blobs at a storage node produces exactly the sum
        // the aggregator would compute.
        let b1 = build_blob(&[0.25, -1.0, 2.0]);
        let b2 = build_blob(&[1.75, 1.0, -2.0]);
        let merged = dfl_ipfs::merge::merge_blobs(&[b1.as_slice(), b2.as_slice()]).unwrap();
        let summed =
            sum_gradients(&[decode_blob(&b1).unwrap(), decode_blob(&b2).unwrap()]).unwrap();
        assert_eq!(decode(&merged).unwrap(), summed);
    }

    #[test]
    fn decode_update_rejects_malformed() {
        assert!(decode_update(&[1, 2, 3]).is_none()); // not 8-aligned
        assert!(decode_update(&[]).is_none());
        // A single element (counter only, no values) is rejected.
        assert!(decode_update(&encode(&[Quantized::from_f64(1.0)])).is_none());
        // Zero counter rejected.
        let mut v = decode_blob(&build_blob(&[1.0])).unwrap();
        let last = v.len() - 1;
        v[last] = Quantized(0);
        assert!(decode_update(&encode(&v)).is_none());
    }

    #[test]
    fn commitments_verify_and_accumulate() {
        let key = derive_key(4, 7, false);
        let b1 = build_blob(&[1.0, -2.0, 0.5, 0.0]);
        let b2 = build_blob(&[0.5, 2.0, 1.5, -1.0]);
        let c1 = commit_blob(&key, &b1).unwrap();
        let c2 = commit_blob(&key, &b2).unwrap();
        assert!(verify_blob(&key, &b1, &c1));
        assert!(!verify_blob(&key, &b1, &c2));

        // Accumulated commitment opens the aggregated blob.
        let summed =
            sum_gradients(&[decode_blob(&b1).unwrap(), decode_blob(&b2).unwrap()]).unwrap();
        let agg_blob = encode(&summed);
        let acc = c1.combine(&c2);
        assert!(verify_blob(&key, &agg_blob, &acc));
    }

    #[test]
    fn dropped_gradient_breaks_verification() {
        // Completeness (§III-A): omitting one trainer's gradient makes the
        // update fail against the accumulated commitment.
        let key = derive_key(2, 7, false);
        let blobs = [
            build_blob(&[1.0, 1.0]),
            build_blob(&[2.0, 2.0]),
            build_blob(&[3.0, 3.0]),
        ];
        let commits: Vec<_> = blobs
            .iter()
            .map(|b| commit_blob(&key, b).unwrap())
            .collect();
        let acc = Commitment::accumulate(&commits);
        // Malicious aggregator drops blob 1.
        let partial = sum_gradients(&[
            decode_blob(&blobs[0]).unwrap(),
            decode_blob(&blobs[2]).unwrap(),
        ])
        .unwrap();
        assert!(!verify_blob(&key, &encode(&partial), &acc));
    }

    #[test]
    fn altered_gradient_breaks_verification() {
        // Correctness (§III-A): perturbing one element fails verification.
        let key = derive_key(2, 7, false);
        let blobs = [build_blob(&[1.0, 1.0]), build_blob(&[2.0, 2.0])];
        let commits: Vec<_> = blobs
            .iter()
            .map(|b| commit_blob(&key, b).unwrap())
            .collect();
        let acc = Commitment::accumulate(&commits);
        let mut summed = sum_gradients(&[
            decode_blob(&blobs[0]).unwrap(),
            decode_blob(&blobs[1]).unwrap(),
        ])
        .unwrap();
        summed[0] = Quantized(summed[0].0 + 1);
        assert!(!verify_blob(&key, &encode(&summed), &acc));
    }

    #[test]
    fn sum_refuses_mismatched_widths_and_empty_input_instead_of_panicking() {
        // Regression: both were assertions, and the vectors come from
        // remote blobs.
        let ragged = [vec![Quantized(1); 4], vec![Quantized(1); 8]];
        assert_eq!(sum_gradients(&ragged), Err(IplsError::MalformedBlob));
        let nothing: [Vec<Quantized>; 0] = [];
        assert_eq!(sum_gradients(&nothing), Err(IplsError::MalformedBlob));
        // The one decode every aggregator ingestion goes through.
        let blob = build_blob(&[1.0, 2.0, 3.0]);
        assert!(decode_partition_blob(&blob, 3, 1).is_some());
        assert!(decode_partition_blob(&blob, 2, 1).is_none());
        assert!(decode_partition_blob(&blob, 4, 1).is_none());
        assert!(decode_partition_blob(&blob[..blob.len() - 1], 3, 1).is_none());
    }

    #[test]
    fn a_blob_outside_the_range_of_its_contributions_does_not_decode() {
        // A trainer clamps: a diverging value is one contribution's edge.
        let blob = build_blob(&[1e13, -1e13, f32::INFINITY, 0.5]);
        let v = decode_partition_blob(&blob, 4, 1).unwrap();
        assert_eq!(
            v[..3],
            [Quantized(BOUND), Quantized(-BOUND), Quantized(BOUND)]
        );
        // Past n · BOUND is refused, at either end; at it is not.
        for n in [1, 3] {
            let edge = n as i64 * BOUND;
            for (element, ok) in [
                (edge, true),
                (-edge, true),
                (edge + 1, false),
                (-edge - 1, false),
            ] {
                let blob = encode(&[Quantized(element), Quantized((n as i64) << 24)]);
                assert_eq!(
                    decode_partition_blob(&blob, 1, n).is_some(),
                    ok,
                    "{element}, n = {n}"
                );
                assert!(
                    decode_blob(&blob).is_some(),
                    "the codec itself is width-only"
                );
            }
        }
        // Sums of admissible vectors stay admissible, and exact.
        let (a, b) = (vec![Quantized(BOUND); 2], vec![Quantized(2 * BOUND); 2]);
        let sum = sum_gradients(&[&a[..], &b[..]]).unwrap();
        assert_eq!(sum, vec![Quantized(3 * BOUND); 2]);
        assert!(decode_partition_blob(&encode(&sum), 1, 3).is_some());
        // An update is bounded by its own counter.
        let one = 1i64 << 24;
        for (count, element, ok) in [
            (1, BOUND, true),
            (1, BOUND + 1, false),
            (4, -4 * BOUND, true),
            (4, -4 * BOUND - 1, false),
            (1 << 20, i64::MAX >> 1, true),
        ] {
            let update = encode(&[Quantized(element), Quantized(count * one)]);
            assert_eq!(
                decode_update(&update).is_some(),
                ok,
                "{element} over {count}"
            );
        }
    }

    #[test]
    fn commit_blob_rejects_malformed_instead_of_panicking() {
        // Regression: a truncated blob from a Byzantine peer used to hit
        // `expect("well-formed gradient blob")` and take the node down.
        let key = derive_key(4, 7, false);
        let good = build_blob(&[1.0, -2.0, 0.5, 0.0]);
        let truncated = &good[..good.len() - 3]; // not 8-byte aligned
        assert_eq!(
            commit_blob(&key, truncated).unwrap_err(),
            IplsError::MalformedBlob
        );
        assert_eq!(
            commit_blob(&key, &[]).unwrap_err(),
            IplsError::MalformedBlob
        );
        // Counter-only blob (one element) is malformed too.
        let counter_only = encode(&[Quantized::from_f64(1.0)]);
        assert_eq!(
            commit_blob(&key, &counter_only).unwrap_err(),
            IplsError::MalformedBlob
        );
        // And the well-formed blob still commits.
        assert!(commit_blob(&key, &good).is_ok());
    }

    #[test]
    fn commit_blob_refuses_a_blob_longer_than_the_key_instead_of_panicking() {
        // Regression: the length was `CommitKey::commit`'s assertion, and a
        // recovered blob comes from a peer. With or without a table.
        let fits = build_blob(&[1.0; 4]);
        let overlong = build_blob(&[1.0; 5]);
        for precompute in [false, true] {
            let key = derive_key(4, 7, precompute);
            let commitment = commit_blob(&key, &fits).unwrap();
            assert_eq!(commit_blob(&key, &overlong), Err(IplsError::MalformedBlob));
            assert!(!verify_blob(&key, &overlong, &commitment));
        }
    }

    #[test]
    fn key_derivation_deterministic_per_task() {
        let a = derive_key(3, 1, false);
        let b = derive_key(3, 1, false);
        let c = derive_key(3, 2, false);
        assert_eq!(a.generators(), b.generators());
        assert_ne!(a.generators(), c.generators());
        assert_eq!(a.len(), 4, "max_len + counter element");
    }

    #[test]
    fn precomputed_key_commits_identically() {
        // Protocol-critical: a peer that precomputes and one that does not
        // must produce the same commitments, or verification would fail
        // between them.
        let plain = derive_key(4, 9, false);
        let fast = derive_key(4, 9, true);
        assert!(fast.is_precomputed() && !plain.is_precomputed());
        assert_eq!(plain, fast, "table must not affect key identity");
        let blob = build_blob(&[1.5, -0.25, 3.0, 0.125]);
        let c = commit_blob(&plain, &blob).unwrap();
        assert_eq!(c, commit_blob(&fast, &blob).unwrap());
        assert!(verify_blob(&fast, &blob, &c));
    }

    #[test]
    fn flushed_culprits_equal_per_blob_rejections_malformed_and_overlong_included() {
        // Seeded queues of 1–14 blobs, either side of the batch size from
        // which `batch_culprits` switches to one RLC: honest, altered
        // value, someone else's commitment, undecodable (ragged length,
        // counter only) and longer than the key. The flush must convict
        // exactly the blobs `verify_blob` rejects one at a time.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let key = derive_key(4, 11, true);
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..60 {
            let n = rng.gen_range(1..15);
            let mut blobs = Vec::with_capacity(n);
            let mut commits = Vec::with_capacity(n);
            for _ in 0..n {
                let values: Vec<f32> = (0..rng.gen_range(1..5))
                    .map(|_| rng.gen_range(-4.0f32..4.0))
                    .collect();
                let mut blob = build_blob(&values);
                let mut commitment = commit_blob(&key, &blob).unwrap();
                match rng.gen_range(0..12) {
                    0 => blob[0] ^= 1,
                    1 => commitment = commit_blob(&key, &build_blob(&[0.5])).unwrap(),
                    2 => blob.truncate(blob.len() - 3),
                    3 => blob.truncate(8),
                    4 => blob = build_blob(&[1.0; 7]),
                    _ => {}
                }
                blobs.push(blob);
                commits.push(commitment);
            }
            let items: Vec<(&[u8], &ProtocolCommitment)> =
                blobs.iter().map(Vec::as_slice).zip(&commits).collect();
            let per_blob: Vec<usize> = (0..n)
                .filter(|&i| !verify_blob(&key, items[i].0, items[i].1))
                .collect();
            let mut out = Actions::<()>::new();
            assert_eq!(
                verify_blobs_timed(&mut out, &key, &items),
                per_blob,
                "case {case}, n = {n}"
            );
        }
    }

    #[test]
    fn sum_first_names_no_culprit_exactly_when_the_sum_opens_and_else_the_per_blob_rejects() {
        // Seeded batches of 1–14 blobs of one partition's width: honest,
        // altered value, someone else's commitment, undecodable (ragged
        // length, counter only), longer than the key, another width,
        // near the top of the range (two overflow the sum) — and in some
        // batches a +δ / −δ pair at one coordinate. The sum-first check
        // must name no culprit when the decoded sum opens the product of
        // the commitments, and exactly `verify_blob`'s one-at-a-time
        // rejects otherwise; its ledger is `verify_blobs_timed`'s.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let key = derive_key(4, 13, true);
        let mut rng = StdRng::seed_from_u64(29);
        let (mut cancelled, mut fell_back, mut honest_sums) = (0, 0, 0);
        for case in 0..120 {
            let n = rng.gen_range(1..15);
            let width = rng.gen_range(1..5);
            let mut blobs = Vec::with_capacity(n);
            let mut commits = Vec::with_capacity(n);
            for _ in 0..n {
                let values: Vec<f32> = (0..width).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
                let mut blob = build_blob(&values);
                let mut commitment = commit_blob(&key, &blob).unwrap();
                match rng.gen_range(0..24) {
                    0 => blob[0] ^= 1,
                    1 => commitment = commit_blob(&key, &build_blob(&[0.5])).unwrap(),
                    2 => blob.truncate(blob.len() - 3),
                    3 => blob.truncate(8),
                    4 => blob = build_blob(&[1.0; 7]),
                    5 => {
                        blob = build_blob(&vec![0.25; width % 4 + 1]);
                        commitment = commit_blob(&key, &blob).unwrap();
                    }
                    6 => {
                        blob = encode(&vec![Quantized(i64::MAX - 7); width + 1]);
                        commitment = commit_blob(&key, &blob).unwrap();
                    }
                    _ => {}
                }
                blobs.push(blob);
                commits.push(commitment);
            }
            let pair = n >= 2 && rng.gen_range(0..10) < 3;
            if pair {
                // Committed honestly, then moved apart in opposite
                // directions: the sum cannot tell.
                let (a, b) = (rng.gen_range(0..n - 1), n - 1);
                for (i, delta) in [(a, 1i64 << 20), (b, -(1i64 << 20))] {
                    if let Some(mut v) = decode_blob(&blobs[i]) {
                        v[0] = Quantized(v[0].0.wrapping_add(delta));
                        blobs[i] = encode(&v);
                    }
                }
            }
            let items: Vec<(&[u8], &ProtocolCommitment)> =
                blobs.iter().map(Vec::as_slice).zip(&commits).collect();
            let per_blob: Vec<usize> = (0..n)
                .filter(|&i| !verify_blob(&key, items[i].0, items[i].1))
                .collect();
            let decoded: Option<Vec<_>> = blobs.iter().map(|b| decode_blob(b)).collect();
            let sum = decoded.and_then(|d| sum_gradients(&d).ok());
            let product = Commitment::accumulate(&commits);
            let sum_opens = sum.is_some_and(|sum| verify_blob(&key, &encode(&sum), &product));

            let (mut summed, mut batched) = (Actions::<()>::new(), Actions::<()>::new());
            let got = verify_sum_timed(&mut summed, &key, &items);
            let expected = if sum_opens {
                Vec::new()
            } else {
                per_blob.clone()
            };
            assert_eq!(got, expected, "case {case}, n = {n}, pair = {pair}");
            assert_eq!(verify_blobs_timed(&mut batched, &key, &items), per_blob);
            assert_eq!(ledger(&mut summed), ledger(&mut batched), "case {case}");
            match (sum_opens, per_blob.is_empty()) {
                (true, true) => honest_sums += 1,
                (true, false) => cancelled += 1,
                (false, _) => fell_back += 1,
            }
        }
        assert!(honest_sums > 0 && cancelled > 0 && fell_back > 0);
        let mut out = Actions::<()>::new();
        assert!(verify_sum_timed(&mut out, &key, &[]).is_empty());
        assert!(out.is_empty(), "an empty batch is no check");
    }

    /// The ledger entries one verification books: (`BLOBS_VERIFIED` total,
    /// `VERIFY_MS` samples, `VERIFY_BATCHED` samples).
    fn ledger(out: &mut Actions<()>) -> (u64, usize, Vec<f64>) {
        use crate::labels::{BLOBS_VERIFIED, VERIFY_BATCHED, VERIFY_MS};
        use crate::protocol::ProtocolAction::{Incr, Observe};
        let (mut verified, mut timed, mut batches) = (0, 0, Vec::new());
        for action in out.drain() {
            match action {
                Incr { label, delta } if label == BLOBS_VERIFIED => verified += delta,
                Observe { label, .. } if label == VERIFY_MS => timed += 1,
                Observe { label, value } if label == VERIFY_BATCHED => batches.push(value),
                other => panic!("unexpected action {other:?}"),
            }
        }
        (verified, timed, batches)
    }

    fn queue(key: &Arc<ProtocolKey>, batch_verify: bool) -> VerifyQueue<usize> {
        let cfg = TaskConfig {
            batch_verify,
            ..TaskConfig::default()
        };
        VerifyQueue::new(key.clone(), &cfg)
    }

    #[test]
    fn both_policies_name_the_same_culprits_and_count_the_same_blobs() {
        // Eight blobs, enough for `settle` to take the RLC path: six honest,
        // one altered after it was committed to, one that does not decode.
        let key = Arc::new(derive_key(3, 5, true));
        let mut blobs: Vec<Bytes> = (0..8)
            .map(|i| Bytes::from(build_blob(&[i as f32, 0.5, -1.0])))
            .collect();
        let commits: Vec<ProtocolCommitment> = blobs
            .iter()
            .map(|b| commit_blob(&key, b).unwrap())
            .collect();
        let mut corrupt = blobs[2].to_vec();
        corrupt[0] ^= 1;
        blobs[2] = Bytes::from(corrupt);
        blobs[5] = blobs[5].slice(..blobs[5].len() - 3);

        let mut out = Actions::<()>::new();
        let mut per_blob = queue(&key, false);
        let rejected: Vec<usize> = (0..8)
            .filter(|&i| !per_blob.admit(&mut out, i, &blobs[i], commits[i]))
            .collect();
        assert_eq!(rejected, [2, 5]);
        let (verified, timed, batches) = ledger(&mut out);
        assert_eq!((verified, timed), (8, 8));
        assert_eq!(batches, [1.0; 8]);
        assert!(per_blob.settle(&mut out).is_empty(), "nothing ever pends");
        assert!(out.is_empty(), "and an empty settle books nothing");

        let mut deferred = queue(&key, true);
        for i in 0..8 {
            assert!(deferred.admit(&mut out, i, &blobs[i], commits[i]));
        }
        // Counted when admitted: a round that stalls before it settles has
        // the per-blob policy's total all the same.
        assert_eq!(ledger(&mut out), (8, 0, vec![]));
        assert_eq!(deferred.settle(&mut out), rejected);
        assert_eq!(ledger(&mut out), (0, 1, vec![8.0]));
        assert!(deferred.settle(&mut out).is_empty(), "settled once");
        assert!(out.is_empty());

        // Settling the sum names the same culprits and books the same.
        for i in 0..8 {
            assert!(deferred.admit(&mut out, i, &blobs[i], commits[i]));
        }
        assert_eq!(ledger(&mut out), (8, 0, vec![]));
        assert_eq!(deferred.settle_sum(&mut out), rejected);
        assert_eq!(ledger(&mut out), (0, 1, vec![8.0]));
        assert!(deferred.settle_sum(&mut out).is_empty(), "settled once");
        assert!(out.is_empty());
    }

    #[test]
    fn a_batch_of_one_books_what_a_single_verification_did() {
        // `BLOBS_VERIFIED` + 1, one `VERIFY_MS` sample, `VERIFY_BATCHED`
        // 1.0 — `verify_blob_timed`'s ledger before it became this call.
        let key = Arc::new(derive_key(2, 5, false));
        let blob = Bytes::from(build_blob(&[1.0, 2.0]));
        let commitment = commit_blob(&key, &blob).unwrap();
        let other = commit_blob(&key, &build_blob(&[2.0, 1.0])).unwrap();
        let mut out = Actions::<()>::new();
        for (against, opens) in [(commitment, true), (other, false)] {
            let culprits = verify_blobs_timed(&mut out, &key, &[(&blob, &against)]);
            assert_eq!(culprits.is_empty(), opens);
            assert_eq!(ledger(&mut out), (1, 1, vec![1.0]));
            assert_eq!(queue(&key, false).admit(&mut out, 0, &blob, against), opens);
            assert_eq!(ledger(&mut out), (1, 1, vec![1.0]));
        }
        assert!(verify_blobs_timed(&mut out, &key, &[]).is_empty());
        assert!(out.is_empty(), "an empty batch is no check");
    }
}
