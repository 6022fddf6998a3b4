//! Storage-side gradient pre-aggregation — the *merge-and-download*
//! primitive (§III-E of the paper).
//!
//! Instead of downloading every gradient partition stored on a node, an
//! aggregator sends the node a set of CIDs and asks for their element-wise
//! sum. The node decodes each blob as a fixed-point gradient vector (the
//! wire format from [`dfl_crypto::quantize`]), sums, and returns one blob —
//! cutting the aggregator's download volume from `|T|` partitions to
//! `|P|` pre-merged ones.

/// Why a merge request could not be served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// No CIDs were supplied.
    Empty,
    /// A blob was not a valid encoded gradient vector.
    MalformedBlob { index: usize },
    /// Two blobs had different vector lengths.
    LengthMismatch {
        expected: usize,
        found: usize,
        index: usize,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Empty => write!(f, "merge request contained no blobs"),
            MergeError::MalformedBlob { index } => {
                write!(f, "blob {index} is not a valid encoded gradient vector")
            }
            MergeError::LengthMismatch {
                expected,
                found,
                index,
            } => write!(f, "blob {index} has {found} elements, expected {expected}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Sums a set of encoded gradient blobs into one encoded blob: 8-byte
/// little-endian fixed-point elements, added with saturation, blob after
/// blob into the output's bytes.
///
/// # Errors
///
/// Returns an error if the input is empty, any blob fails to decode, or the
/// vectors disagree in length — for the first blob, in request order, that
/// does either. Every length is checked before a byte is summed.
pub fn merge_blobs<B: AsRef<[u8]>>(blobs: &[B]) -> Result<Vec<u8>, MergeError> {
    let Some((first, rest)) = blobs.split_first() else {
        return Err(MergeError::Empty);
    };
    let expected = first.as_ref().len();
    for (index, blob) in blobs.iter().enumerate() {
        let found = blob.as_ref().len();
        if !found.is_multiple_of(8) {
            return Err(MergeError::MalformedBlob { index });
        }
        if found != expected {
            return Err(MergeError::LengthMismatch {
                expected: expected / 8,
                found: found / 8,
                index,
            });
        }
    }
    let mut out = first.as_ref().to_vec();
    for blob in rest {
        let (sums, _) = out.as_chunks_mut::<8>();
        let (terms, _) = blob.as_ref().as_chunks::<8>();
        for (sum, term) in sums.iter_mut().zip(terms) {
            let total = i64::from_le_bytes(*sum).saturating_add(i64::from_le_bytes(*term));
            *sum = total.to_le_bytes();
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfl_crypto::quantize::{
        decode, dequantize_vector, encode, quantize_vector, sum_quantized, Quantized,
    };
    use proptest::prelude::*;

    fn blob(values: &[f32]) -> Vec<u8> {
        encode(&quantize_vector(values))
    }

    /// [`merge_blobs`] as it was — decode every blob, sum the vectors,
    /// encode the sum — kept as the streaming version's oracle.
    fn merge_blobs_by_decoding<B: AsRef<[u8]>>(blobs: &[B]) -> Result<Vec<u8>, MergeError> {
        if blobs.is_empty() {
            return Err(MergeError::Empty);
        }
        let mut vectors: Vec<Vec<Quantized>> = Vec::with_capacity(blobs.len());
        let mut expected_len = None;
        for (index, blob) in blobs.iter().enumerate() {
            let v = decode(blob.as_ref()).ok_or(MergeError::MalformedBlob { index })?;
            match expected_len {
                None => expected_len = Some(v.len()),
                Some(expected) if expected != v.len() => {
                    return Err(MergeError::LengthMismatch {
                        expected,
                        found: v.len(),
                        index,
                    });
                }
                _ => {}
            }
            vectors.push(v);
        }
        Ok(encode(&sum_quantized(&vectors)))
    }

    fn raw(elements: &[i64]) -> Vec<u8> {
        elements.iter().flat_map(|e| e.to_le_bytes()).collect()
    }

    #[test]
    fn streaming_merge_equals_decode_sum_encode() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for case in 0..200 {
            let len = rng.gen_range(0..24usize);
            let n = rng.gen_range(1..7usize);
            // Half the cases use the whole i64 range, so sums saturate at
            // either end — in request order, as the pairwise adds did.
            let wide = case % 2 == 0;
            let mut blobs: Vec<Vec<u8>> = (0..n)
                .map(|_| {
                    let elements: Vec<i64> = (0..len)
                        .map(|_| match wide {
                            true => rng.next_u64() as i64,
                            false => rng.gen_range(-(1i64 << 40)..1 << 40),
                        })
                        .collect();
                    raw(&elements)
                })
                .collect();
            assert_eq!(
                merge_blobs(&blobs),
                merge_blobs_by_decoding(&blobs),
                "case {case}"
            );
            // One defect, then a second one before or after it: the error
            // names the first bad blob in request order.
            for _ in 0..2 {
                let at = rng.gen_range(0..n);
                let bad = &mut blobs[at];
                match rng.gen_range(0..3u32) {
                    0 => bad.push(0),
                    1 => bad.extend_from_slice(&[0; 8]),
                    _ => bad.truncate(bad.len().saturating_sub(8)),
                }
                assert_eq!(
                    merge_blobs(&blobs),
                    merge_blobs_by_decoding(&blobs),
                    "case {case}, defect at {at}"
                );
            }
        }
    }

    #[test]
    fn malformed_requests_fail_as_before() {
        let good = raw(&[1, 2, 3]);
        let short = raw(&[1, 2]);
        let ragged = vec![0u8; 17];
        let mismatch = |found, index| MergeError::LengthMismatch {
            expected: 3,
            found,
            index,
        };
        type Case<'a> = (Vec<&'a Vec<u8>>, Result<Vec<u8>, MergeError>);
        let table: Vec<Case> = vec![
            (vec![], Err(MergeError::Empty)),
            (vec![&ragged], Err(MergeError::MalformedBlob { index: 0 })),
            (
                vec![&ragged, &good],
                Err(MergeError::MalformedBlob { index: 0 }),
            ),
            (
                vec![&good, &ragged],
                Err(MergeError::MalformedBlob { index: 1 }),
            ),
            (vec![&good, &short], Err(mismatch(2, 1))),
            (vec![&good, &good, &good, &short], Err(mismatch(2, 3))),
            // Two defects: the earlier one is reported, whichever kind.
            (vec![&good, &short, &ragged], Err(mismatch(2, 1))),
            (
                vec![&good, &ragged, &short],
                Err(MergeError::MalformedBlob { index: 1 }),
            ),
            // The first blob sets the length, even when it is the odd one.
            (
                vec![&short, &good, &good],
                Err(MergeError::LengthMismatch {
                    expected: 2,
                    found: 3,
                    index: 1,
                }),
            ),
            (vec![&good, &good], Ok(raw(&[2, 4, 6]))),
        ];
        for (blobs, expect) in table {
            assert_eq!(merge_blobs(&blobs), expect, "{blobs:?}");
            assert_eq!(merge_blobs_by_decoding(&blobs), expect, "oracle, {blobs:?}");
        }
        // Empty vectors are vectors: nothing to add, nothing wrong.
        assert_eq!(merge_blobs(&[[0u8; 0], [0u8; 0]]), Ok(Vec::new()));
        // One past the range saturates, at both ends, and stays there only
        // while later terms do not pull it back (pairwise, in order).
        let (max, min) = (i64::MAX, i64::MIN);
        assert_eq!(
            merge_blobs(&[raw(&[max, min, max]), raw(&[1, -1, 1]), raw(&[0, 0, -5])]),
            Ok(raw(&[max, min, max - 5]))
        );
    }

    #[test]
    fn merge_two_blobs() {
        let merged = merge_blobs(&[blob(&[1.0, 2.0]), blob(&[0.5, -1.0])]).unwrap();
        let out = dequantize_vector(&decode(&merged).unwrap());
        assert_eq!(out, vec![1.5, 1.0]);
    }

    #[test]
    fn merge_single_blob_is_identity() {
        let b = blob(&[3.25, -0.5, 0.0]);
        assert_eq!(merge_blobs(std::slice::from_ref(&b)).unwrap(), b);
    }

    #[test]
    fn merge_equals_sequential_sums() {
        // merge(a, b, c) == merge(merge(a, b), c): associativity lets
        // aggregators combine pre-merged partials safely.
        let a = blob(&[1.0, 2.0, 3.0]);
        let b = blob(&[-0.5, 0.25, 1.0]);
        let c = blob(&[10.0, -2.0, 0.125]);
        let all = merge_blobs(&[a.clone(), b.clone(), c.clone()]).unwrap();
        let ab = merge_blobs(&[a, b]).unwrap();
        let ab_c = merge_blobs(&[ab, c]).unwrap();
        assert_eq!(all, ab_c);
    }

    #[test]
    fn errors() {
        assert_eq!(merge_blobs::<Vec<u8>>(&[]), Err(MergeError::Empty));
        assert_eq!(
            merge_blobs(&[vec![1u8, 2, 3]]),
            Err(MergeError::MalformedBlob { index: 0 })
        );
        assert_eq!(
            merge_blobs(&[blob(&[1.0, 2.0]), blob(&[1.0])]),
            Err(MergeError::LengthMismatch {
                expected: 2,
                found: 1,
                index: 1
            })
        );
    }

    proptest! {
        #[test]
        fn prop_merge_commutative(
            a in proptest::collection::vec(-100.0f32..100.0, 8),
            b in proptest::collection::vec(-100.0f32..100.0, 8),
        ) {
            let x = merge_blobs(&[blob(&a), blob(&b)]).unwrap();
            let y = merge_blobs(&[blob(&b), blob(&a)]).unwrap();
            prop_assert_eq!(x, y);
        }

        #[test]
        fn prop_merge_matches_float_sum(
            vs in proptest::collection::vec(proptest::collection::vec(-10.0f32..10.0, 4), 1..6),
        ) {
            let blobs: Vec<Vec<u8>> = vs.iter().map(|v| blob(v)).collect();
            let merged = dequantize_vector(&decode(&merge_blobs(&blobs).unwrap()).unwrap());
            for j in 0..4 {
                let expect: f32 = vs.iter().map(|v| v[j]).sum();
                prop_assert!((merged[j] - expect).abs() < 1e-3);
            }
        }
    }
}
