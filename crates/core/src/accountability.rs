//! Byzantine accountability: transferable proofs of aggregator
//! misbehavior.
//!
//! Verifiable aggregation (§IV) *detects* a dropped or altered gradient —
//! the offending blob fails its accumulated Pedersen commitment — but
//! detection alone only protects the detector. This module turns a
//! detection into a **self-contained, Schnorr-signed [`Misbehavior`]
//! record** that any party can re-check offline, in the style of
//! accountability systems (PeerReview): because the offender *signed* the
//! announcement binding its identity to the blob's CID, and the blob
//! provably fails the commitment that an honest partial would open, the
//! record is a transferable proof. No voting is needed — peers blacklist
//! and the directory evicts on independently re-verified evidence.
//!
//! Two kinds of evidence exist:
//!
//! * [`MisbehaviorKind::BadPartial`] — a partition peer's partial update
//!   failed commitment verification against the signed announcement's
//!   claimed contributor set. Detected by peer aggregators during sync.
//! * [`MisbehaviorKind::BadUpdate`] — a registered global update failed
//!   commitment verification. Detected by the directory.
//!
//! Signing keys are derived deterministically from the task seed (like
//! trainer registration keys) under a separate domain; a deployment would
//! distribute real keys at enrollment.

use dfl_crypto::schnorr::{SigningKey, VerifyingKey};
use dfl_ipfs::Cid;

use crate::gradient::{verify_blob, ProtocolCommitment, ProtocolCurve, ProtocolKey};
use crate::messages::{announce_message, signed_by, take, update_message, SignatureBytes};

/// Pub/sub topic misbehavior evidence is gossiped on.
pub const EVIDENCE_TOPIC: &str = "ipls/evidence";

/// Sentinel detector id for evidence issued by the directory service.
pub const DIRECTORY_DETECTOR: u64 = u64::MAX;

/// Derives the Schnorr signing key of trainer `t`: what it signs its
/// registrations and overlay partials with (authenticated mode).
pub fn trainer_signing_key(task_seed: u64, t: usize) -> SigningKey<ProtocolCurve> {
    SigningKey::derive(&task_seed.to_be_bytes(), t as u64)
}

/// Public key counterpart of [`trainer_signing_key`].
pub fn trainer_verifying_key(task_seed: u64, t: usize) -> VerifyingKey<ProtocolCurve> {
    trainer_signing_key(task_seed, t).verifying_key()
}

/// Derives the Schnorr signing key of aggregator `g` (global index).
///
/// Uses a domain-separated seed so aggregator identities can never
/// collide with trainer registration keys derived from the raw task seed.
pub fn agg_signing_key(task_seed: u64, g: usize) -> SigningKey<ProtocolCurve> {
    SigningKey::derive(&agg_domain(task_seed), g as u64)
}

/// Public key counterpart of [`agg_signing_key`].
pub fn agg_verifying_key(task_seed: u64, g: usize) -> VerifyingKey<ProtocolCurve> {
    agg_signing_key(task_seed, g).verifying_key()
}

/// Derives the directory's Schnorr signing key (it signs `BadUpdate`
/// evidence as detector [`DIRECTORY_DETECTOR`]).
pub fn directory_signing_key(task_seed: u64) -> SigningKey<ProtocolCurve> {
    SigningKey::derive(&agg_domain(task_seed), DIRECTORY_DETECTOR)
}

fn agg_domain(task_seed: u64) -> Vec<u8> {
    let mut seed = b"ipls-aggregator-identity".to_vec();
    seed.extend_from_slice(&task_seed.to_be_bytes());
    seed
}

/// What the offender provably did.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MisbehaviorKind {
    /// A partial update, announced over pub/sub under the offender's
    /// signature, does not open the accumulated commitment of its claimed
    /// contributor set.
    BadPartial,
    /// A global update, registered at the directory under the offender's
    /// signature, does not open the partition's accumulated commitment.
    BadUpdate,
}

/// A self-contained, transferable proof that an aggregator published a
/// partial or global update inconsistent with its trainers' registered
/// commitments.
///
/// The record embeds the offending blob itself, so re-verification needs
/// no storage round-trip: a verifier recomputes the signed message from
/// the semantic fields, checks both signatures, checks the blob hashes to
/// the signed CID, independently derives the expected accumulated
/// commitment, and confirms the blob fails it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Misbehavior {
    /// Which protocol step the evidence covers.
    pub kind: MisbehaviorKind,
    /// Partition the offender aggregates.
    pub partition: usize,
    /// Offender's slot `j` within the partition's aggregator set.
    pub agg_j: usize,
    /// Round number.
    pub iter: u64,
    /// CID of the offending blob (bound by the offender's signature).
    pub cid: Cid,
    /// Claimed contributor set. For `BadPartial`: ranks within the slot's
    /// trainer set `T_ij`. For `BadUpdate`: global trainer indices, empty
    /// meaning the full partition membership.
    pub contributors: Vec<u32>,
    /// Serialized accumulated commitment the blob was checked against.
    pub accumulator: [u8; 33],
    /// The offending blob itself.
    pub blob: Vec<u8>,
    /// The offender's signature over its announcement / registration.
    pub offender_sig: SignatureBytes,
    /// Who detected it: an aggregator's global index, or
    /// [`DIRECTORY_DETECTOR`].
    pub detector: u64,
    /// Detector's signature over the rest of the record.
    pub detector_sig: SignatureBytes,
}

impl Misbehavior {
    /// Global aggregator index of the offender, given the partition's
    /// aggregator-set size.
    pub fn offender(&self, aggregators_per_partition: usize) -> usize {
        self.partition * aggregators_per_partition + self.agg_j
    }

    /// The canonical byte string the *offender's* signature must cover.
    pub fn offender_message(&self, aggregators_per_partition: usize) -> Vec<u8> {
        match self.kind {
            MisbehaviorKind::BadPartial => {
                let ranks: Vec<u16> = self.contributors.iter().map(|&r| r as u16).collect();
                announce_message(self.partition, self.agg_j, self.iter, &self.cid, &ranks)
            }
            MisbehaviorKind::BadUpdate => {
                let contributors =
                    (!self.contributors.is_empty()).then(|| self.contributors.clone());
                update_message(
                    self.offender(aggregators_per_partition),
                    self.partition,
                    self.iter,
                    &self.cid,
                    &contributors,
                )
            }
        }
    }

    /// The byte string the *detector* signs: the whole record minus the
    /// detector signature itself.
    pub fn detector_message(&self) -> Vec<u8> {
        let mut bytes = self.encode();
        bytes.truncate(bytes.len() - 65);
        bytes
    }

    /// Signs the record as `detector`, filling `detector_sig`.
    pub fn sign_as_detector(&mut self, detector: u64, key: &SigningKey<ProtocolCurve>) {
        self.detector = detector;
        self.detector_sig = key.sign(&self.detector_message()).to_bytes();
    }

    /// Fully re-checks the evidence against an independently derived
    /// expected accumulated commitment.
    ///
    /// Valid evidence requires *all* of:
    /// 1. the offender's signature covers (partition, slot, round, CID,
    ///    contributors) under the offender's identity key;
    /// 2. the detector's signature covers the record;
    /// 3. the embedded blob hashes to the signed CID;
    /// 4. the record's accumulator equals the verifier's independently
    ///    computed `expected` commitment for the claimed contributor set;
    /// 5. the blob **fails** commitment verification against it.
    ///
    /// A forged accusation against an honest aggregator fails at (5): the
    /// honest blob opens the commitment. A doctored blob fails at (3); a
    /// doctored accusation fails at (1) or (2).
    pub fn verify(
        &self,
        key: &ProtocolKey,
        task_seed: u64,
        aggregators_per_partition: usize,
        expected: &ProtocolCommitment,
    ) -> bool {
        let offender_vk = agg_verifying_key(task_seed, self.offender(aggregators_per_partition));
        let offender_message = self.offender_message(aggregators_per_partition);
        if !signed_by(&offender_vk, &offender_message, Some(self.offender_sig)) {
            return false;
        }
        let detector_vk = if self.detector == DIRECTORY_DETECTOR {
            directory_signing_key(task_seed).verifying_key()
        } else {
            agg_verifying_key(task_seed, self.detector as usize)
        };
        if !signed_by(
            &detector_vk,
            &self.detector_message(),
            Some(self.detector_sig),
        ) {
            return false;
        }
        if Cid::of(&self.blob) != self.cid {
            return false;
        }
        if expected.to_bytes() != self.accumulator {
            return false;
        }
        !verify_blob(key, &self.blob, expected)
    }

    /// Serializes the record for gossip and directory reports.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(220 + 4 * self.contributors.len() + self.blob.len());
        out.push(match self.kind {
            MisbehaviorKind::BadPartial => 0,
            MisbehaviorKind::BadUpdate => 1,
        });
        out.extend_from_slice(&(self.partition as u64).to_le_bytes());
        out.extend_from_slice(&(self.agg_j as u64).to_le_bytes());
        out.extend_from_slice(&self.iter.to_le_bytes());
        out.extend_from_slice(self.cid.as_bytes());
        out.extend_from_slice(&(self.contributors.len() as u32).to_le_bytes());
        for c in &self.contributors {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&self.accumulator);
        out.extend_from_slice(&(self.blob.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.blob);
        out.extend_from_slice(&self.offender_sig);
        out.extend_from_slice(&self.detector.to_le_bytes());
        out.extend_from_slice(&self.detector_sig);
        out
    }

    /// Parses a serialized record; `None` when malformed.
    pub fn decode(bytes: &[u8]) -> Option<Misbehavior> {
        let mut rest = bytes;
        let kind = match take::<1>(&mut rest)? {
            [0] => MisbehaviorKind::BadPartial,
            [1] => MisbehaviorKind::BadUpdate,
            _ => return None,
        };
        let partition = u64::from_le_bytes(take(&mut rest)?) as usize;
        let agg_j = u64::from_le_bytes(take(&mut rest)?) as usize;
        let iter = u64::from_le_bytes(take(&mut rest)?);
        let cid = Cid::from_bytes(take(&mut rest)?);
        let count = u32::from_le_bytes(take(&mut rest)?) as usize;
        // Contributor count is bounded by the remaining payload; reject
        // absurd counts before allocating.
        if count > bytes.len() / 4 {
            return None;
        }
        let mut contributors = Vec::with_capacity(count);
        for _ in 0..count {
            contributors.push(u32::from_le_bytes(take(&mut rest)?));
        }
        let accumulator = take(&mut rest)?;
        let blob_len = u64::from_le_bytes(take(&mut rest)?) as usize;
        let blob = rest.split_off(..blob_len)?.to_vec();
        let offender_sig = take(&mut rest)?;
        let detector = u64::from_le_bytes(take(&mut rest)?);
        let detector_sig = take(&mut rest)?;
        if !rest.is_empty() {
            return None;
        }
        Some(Misbehavior {
            kind,
            partition,
            agg_j,
            iter,
            cid,
            contributors,
            accumulator,
            blob,
            offender_sig,
            detector,
            detector_sig,
        })
    }
}

/// The product of `members`' registered commitments, each looked up by
/// global trainer index; `None` while any of them is unknown.
pub fn product<'a>(
    members: impl IntoIterator<Item = usize>,
    commitment: impl Fn(usize) -> Option<&'a ProtocolCommitment>,
) -> Option<ProtocolCommitment> {
    let identity = ProtocolCommitment::identity();
    members
        .into_iter()
        .try_fold(identity, |acc, t| Some(acc.combine(commitment(t)?)))
}

/// What a partial of the slot whose trainer set is `set` must open when it
/// claims the members at `ranks` (§IV-B): the slot's accumulator `full` for
/// a full claim (no ranks, or every one) and whenever no quorum is
/// configured, else the [`product`] over the claimed members. `None` while
/// an input is unknown, or when a rank lies outside the set.
pub fn partial_opens<'a>(
    set: &[usize],
    ranks: impl ExactSizeIterator<Item = usize>,
    quorum: bool,
    full: impl FnOnce() -> Option<ProtocolCommitment>,
    commitment: impl Fn(usize) -> Option<&'a ProtocolCommitment>,
) -> Option<ProtocolCommitment> {
    if !quorum || ranks.len() == 0 || ranks.len() == set.len() {
        return full();
    }
    let members: Option<Vec<usize>> = ranks.map(|r| set.get(r).copied()).collect();
    product(members?, commitment)
}

/// What a global update claiming `contributors` (global trainer indices)
/// must open: the [`product`] over them, or over all of the task's
/// `trainers` when the claim is empty.
pub fn update_opens<'a>(
    trainers: usize,
    contributors: &[u32],
    commitment: impl Fn(usize) -> Option<&'a ProtocolCommitment>,
) -> Option<ProtocolCommitment> {
    if contributors.is_empty() {
        product(0..trainers, commitment)
    } else {
        product(contributors.iter().map(|&t| t as usize), commitment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::{build_blob, commit_blob, derive_key};

    const SEED: u64 = 7;
    const SLOTS: usize = 2;

    /// Builds valid evidence: offender (partition 1, slot 1 → global 3)
    /// signed an announce for a blob that does not open the honest
    /// commitment.
    fn valid_evidence() -> (Misbehavior, ProtocolKey, ProtocolCommitment) {
        let key = derive_key(8, SEED, false);
        let honest = build_blob(&[0.5f32; 8]);
        let expected = commit_blob(&key, &honest).unwrap();
        let altered = build_blob(&[0.75f32; 8]);
        let cid = Cid::of(&altered);
        let ranks: Vec<u16> = vec![0, 1];
        let msg = announce_message(1, 1, 4, &cid, &ranks);
        let offender_sig = agg_signing_key(SEED, 3).sign(&msg).to_bytes();
        let mut record = Misbehavior {
            kind: MisbehaviorKind::BadPartial,
            partition: 1,
            agg_j: 1,
            iter: 4,
            cid,
            contributors: vec![0, 1],
            accumulator: expected.to_bytes(),
            blob: altered,
            offender_sig,
            detector: 0,
            detector_sig: [0u8; 65],
        };
        record.sign_as_detector(2, &agg_signing_key(SEED, 2));
        (record, key, expected)
    }

    #[test]
    fn encode_decode_round_trips() {
        let (record, _, _) = valid_evidence();
        let decoded = Misbehavior::decode(&record.encode()).unwrap();
        assert_eq!(decoded, record);
        assert_eq!(Misbehavior::decode(b"garbage"), None);
        let mut truncated = record.encode();
        truncated.pop();
        assert_eq!(Misbehavior::decode(&truncated), None);
        let mut extended = record.encode();
        extended.push(0);
        assert_eq!(Misbehavior::decode(&extended), None);
    }

    #[test]
    fn valid_evidence_verifies() {
        let (record, key, expected) = valid_evidence();
        assert!(record.verify(&key, SEED, SLOTS, &expected));
    }

    #[test]
    fn honest_blob_cannot_be_framed() {
        // An "accusation" whose blob actually opens the commitment is
        // rejected: detection condition (5).
        let key = derive_key(8, SEED, false);
        let honest = build_blob(&[0.5f32; 8]);
        let expected = commit_blob(&key, &honest).unwrap();
        let cid = Cid::of(&honest);
        let msg = announce_message(1, 1, 4, &cid, &[0, 1]);
        let mut record = Misbehavior {
            kind: MisbehaviorKind::BadPartial,
            partition: 1,
            agg_j: 1,
            iter: 4,
            cid,
            contributors: vec![0, 1],
            accumulator: expected.to_bytes(),
            blob: honest,
            offender_sig: agg_signing_key(SEED, 3).sign(&msg).to_bytes(),
            detector: 0,
            detector_sig: [0u8; 65],
        };
        record.sign_as_detector(2, &agg_signing_key(SEED, 2));
        assert!(!record.verify(&key, SEED, SLOTS, &expected));
    }

    #[test]
    fn tampered_evidence_is_rejected() {
        let (record, key, expected) = valid_evidence();

        // Substituted blob no longer hashes to the signed CID.
        let mut doctored = record.clone();
        doctored.blob = build_blob(&[0.1f32; 8]);
        doctored.sign_as_detector(2, &agg_signing_key(SEED, 2));
        assert!(!doctored.verify(&key, SEED, SLOTS, &expected));

        // Re-attributed offender invalidates the offender signature.
        let mut doctored = record.clone();
        doctored.agg_j = 0;
        doctored.sign_as_detector(2, &agg_signing_key(SEED, 2));
        assert!(!doctored.verify(&key, SEED, SLOTS, &expected));

        // Detector signature must cover the record.
        let mut doctored = record.clone();
        doctored.iter = 5;
        assert!(!doctored.verify(&key, SEED, SLOTS, &expected));

        // Wrong expected accumulator (verifier view mismatch).
        let other = commit_blob(&key, &build_blob(&[0.9f32; 8])).unwrap();
        assert!(!record.verify(&key, SEED, SLOTS, &other));
    }

    #[test]
    fn bad_update_evidence_binds_global_index() {
        let key = derive_key(8, SEED, false);
        let honest = build_blob(&[0.5f32; 8]);
        let expected = commit_blob(&key, &honest).unwrap();
        let altered = build_blob(&[0.25f32; 8]);
        let cid = Cid::of(&altered);
        // Offender: partition 1, slot 1 → global index 3 (SLOTS = 2).
        let msg = update_message(3, 1, 2, &cid, &None);
        let mut record = Misbehavior {
            kind: MisbehaviorKind::BadUpdate,
            partition: 1,
            agg_j: 1,
            iter: 2,
            cid,
            contributors: Vec::new(),
            accumulator: expected.to_bytes(),
            blob: altered,
            offender_sig: agg_signing_key(SEED, 3).sign(&msg).to_bytes(),
            detector: 0,
            detector_sig: [0u8; 65],
        };
        record.sign_as_detector(DIRECTORY_DETECTOR, &directory_signing_key(SEED));
        assert!(record.verify(&key, SEED, SLOTS, &expected));
        // The same record under a different aggregator-set size points at
        // a different offender (1·3 + 1 = 4, not 3) and must fail.
        assert!(!record.verify(&key, SEED, 3, &expected));
    }

    #[test]
    fn identity_keys_are_domain_separated() {
        // Aggregator 0's identity key differs from trainer 0's
        // registration key derived from the raw task seed.
        assert_ne!(
            trainer_verifying_key(SEED, 0).to_bytes(),
            agg_verifying_key(SEED, 0).to_bytes()
        );
        assert_ne!(
            agg_signing_key(SEED, 0).verifying_key().to_bytes(),
            agg_signing_key(SEED, 1).verifying_key().to_bytes()
        );
    }
}
