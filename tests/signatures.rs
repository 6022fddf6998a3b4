//! What a signature covers, kind by kind.
//!
//! Every signed value — the five signed `Msg` variants, the pub/sub sync
//! announce and the two signatures of a misbehavior record — is signed
//! over its kind's domain followed by its own wire encoding with the
//! signature left out (`messages::signed_bytes`). These tests hold each
//! kind to that: the signer's key verifies it, a change to any byte of any
//! field breaks it, and a signature made over one kind never verifies as
//! another, even under the same key.

use std::ops::Range;

use bytes::Bytes;
use decentralized_fl::crypto::schnorr::{SigningKey, VerifyingKey};
use decentralized_fl::crypto::Curve;
use decentralized_fl::ipfs::wire::WireCost;
use decentralized_fl::ipfs::Cid;
use decentralized_fl::protocol::accountability::{
    agg_signing_key, Misbehavior, MisbehaviorKind, DIRECTORY_DETECTOR,
};
use decentralized_fl::protocol::gradient::{ProtocolCommitment, ProtocolCurve};
use decentralized_fl::protocol::messages::{SignatureBytes, Signed, SyncAnnounce};
use decentralized_fl::protocol::Msg;

const SEED: u64 = 11;
/// Aggregators per partition: partition 1, slot 1 is global aggregator 3.
const SLOTS: usize = 2;

/// The one key every kind is signed with here, so only the kind tells two
/// signatures apart.
fn key() -> SigningKey<ProtocolCurve> {
    agg_signing_key(SEED, 3)
}

fn verifying_key() -> VerifyingKey<ProtocolCurve> {
    key().verifying_key()
}

fn signed<T: Signed>(mut value: T) -> T {
    value.sign(&key());
    value
}

fn signature_of<T: Signed>(value: &T) -> SignatureBytes {
    let signature = value.clone().signature_mut().and_then(|s| s.take());
    signature.expect("a signed value carries its signature")
}

/// A curve point: the generator, as a commitment.
fn point() -> ProtocolCommitment {
    let generator = ProtocolCurve::generator().to_compressed();
    ProtocolCommitment::from_bytes(&generator).expect("the generator is a point")
}

/// One unsigned sample of every signed `Msg` variant.
fn messages() -> Vec<Msg> {
    let cid = Cid::from_bytes([0x21; 32]);
    vec![
        Msg::RegisterGradient {
            trainer: 5,
            partition: 1,
            iter: 7,
            cid,
            commitment: Some([0x02; 33]),
            signature: None,
        },
        Msg::RegisterGradientBatch {
            trainer: 5,
            iter: 7,
            entries: vec![(0, cid, None), (1, cid, Some([0x03; 33]))],
            signature: None,
        },
        Msg::RegisterUpdate {
            aggregator: 3,
            partition: 1,
            iter: 7,
            cid,
            contributors: Some(vec![0, 2]),
            signature: None,
        },
        Msg::OverlayPartial {
            trainer: 5,
            partition: 1,
            iter: 7,
            data: Bytes::from_static(&[1, 2, 3, 4, 5, 6, 7, 8]),
            count: 3,
            commitment: point().into(),
            signature: None,
        },
        Msg::OverlayUpdate {
            partition: 1,
            iter: 7,
            data: Bytes::from_static(&[8, 7, 6, 5]),
            signature: None,
        },
    ]
}

fn announce() -> SyncAnnounce {
    SyncAnnounce {
        partition: 1,
        agg_j: 1,
        iter: 7,
        cid: Cid::from_bytes([0x21; 32]),
        contributors: vec![0, 2],
        signature: None,
    }
}

/// A record as its detector signs it: the signature of `announce` as the
/// offender's, and a short stand-in blob (only its bytes matter here).
fn record() -> Misbehavior {
    Misbehavior {
        kind: MisbehaviorKind::BadPartial,
        partition: 1,
        agg_j: 1,
        iter: 7,
        cid: Cid::from_bytes([0x21; 32]),
        contributors: vec![0, 2],
        accumulator: [0x02; 33],
        blob: Bytes::from_static(&[9, 9, 9]),
        offender_sig: signature_of(&signed(announce())),
        detector: DIRECTORY_DETECTOR,
        detector_sig: None,
    }
}

/// `value` verifies, and no one-bit change to a byte before its signature
/// (every signed kind encodes the signature last) that still decodes does.
/// `point` is where `value` holds a curve point, if anywhere: a changed
/// x-coordinate is often no point and fails to decode, so those bytes are
/// kept out of the decode count, but at least one change there must decode
/// (and not verify).
fn every_byte_is_covered<T: Signed + std::fmt::Debug>(value: &T, point: Range<usize>) {
    let vk = verifying_key();
    assert!(value.signed_by(&vk), "the signer's key verifies {value:?}");
    let bytes = value.encode();
    let covered = bytes.len() - 65;
    let (mut decoded, mut point_decoded) = (0, 0);
    for at in 0..covered {
        let mut changed = bytes.clone();
        changed[at] ^= 1;
        if let Ok(other) = T::decode(&changed) {
            if point.contains(&at) {
                point_decoded += 1;
            } else {
                decoded += 1;
            }
            assert!(!other.signed_by(&vk), "byte {at} is not covered: {value:?}");
        }
    }
    // Outside a point, only tags, presence bytes and length prefixes fail
    // to decode.
    let counted = covered - point.len();
    assert!(
        decoded * 4 > counted * 3,
        "{decoded} of {counted}: {value:?}"
    );
    assert!(
        point.is_empty() || point_decoded > 0,
        "no change to the point decoded: {value:?}"
    );
}

/// Where signed `msg`'s encoding holds a curve point: an overlay
/// partial's commitment, the 33 bytes before its signature and that
/// signature's presence byte.
fn point_bytes(msg: &Msg) -> Range<usize> {
    match msg {
        Msg::OverlayPartial { .. } => {
            let end = msg.encode().len() - 65 - 1;
            end - 33..end
        }
        _ => 0..0,
    }
}

#[test]
fn every_signed_message_covers_each_of_its_fields() {
    for msg in messages().into_iter().map(signed) {
        every_byte_is_covered(&msg, point_bytes(&msg));
    }
}

#[test]
fn the_sync_announce_covers_each_of_its_fields() {
    every_byte_is_covered(&signed(announce()), 0..0);
}

#[test]
fn the_detector_signature_covers_each_field_of_the_record() {
    every_byte_is_covered(&signed(record()), 0..0);
}

#[test]
fn the_offender_signature_covers_each_field_it_was_made_over() {
    let partial = record();
    assert!(partial.offender_signed(SEED, SLOTS));
    let registration = signed(Msg::RegisterUpdate {
        aggregator: 3,
        partition: 1,
        iter: 7,
        cid: Cid::from_bytes([0x21; 32]),
        contributors: Some(vec![0, 2]),
        signature: None,
    });
    let update = Misbehavior {
        kind: MisbehaviorKind::BadUpdate,
        offender_sig: signature_of(&registration),
        ..record()
    };
    assert!(update.offender_signed(SEED, SLOTS));
    let changes: [fn(&mut Misbehavior); 7] = [
        |m| m.partition = 0,
        |m| m.agg_j = 0,
        |m| m.iter = 8,
        |m| m.cid = Cid::from_bytes([0x22; 32]),
        |m| m.contributors = vec![0, 3],
        |m| m.contributors.clear(),
        // The other kind: an announce's signature is no registration's,
        // and the other way round.
        |m| {
            m.kind = match m.kind {
                MisbehaviorKind::BadPartial => MisbehaviorKind::BadUpdate,
                MisbehaviorKind::BadUpdate => MisbehaviorKind::BadPartial,
            }
        },
    ];
    for base in [partial, update] {
        for change in changes {
            let mut changed = base.clone();
            change(&mut changed);
            assert!(!changed.offender_signed(SEED, SLOTS), "{changed:?}");
        }
    }
}

/// A signed kind as a checker: its sample, the sample's signature, and
/// whether a given signature verifies in the sample's place.
type Kind = (String, SignatureBytes, Box<dyn Fn(SignatureBytes) -> bool>);

fn kind<T: Signed + std::fmt::Debug + 'static>(unsigned: T) -> Kind {
    let signature = signature_of(&signed(unsigned.clone()));
    let name = format!("{unsigned:?}");
    let verifies = move |signature| {
        let mut value = unsigned.clone();
        *value.signature_mut().expect("a signed kind") = Some(signature);
        value.signed_by(&verifying_key())
    };
    (name, signature, Box::new(verifies))
}

#[test]
fn a_signature_over_one_kind_never_verifies_as_another() {
    // No kind's domain starts another's, so no two kinds sign the same bytes.
    let domains = [Msg::DOMAIN, SyncAnnounce::DOMAIN, Misbehavior::DOMAIN];
    for (i, a) in domains.iter().enumerate() {
        for b in &domains[i + 1..] {
            assert!(!a.starts_with(b) && !b.starts_with(a));
        }
    }
    let mut kinds: Vec<Kind> = messages().into_iter().map(kind).collect();
    kinds.push(kind(announce()));
    kinds.push(kind(record()));
    for (i, (name, signature, verifies)) in kinds.iter().enumerate() {
        assert!(verifies(*signature), "{name} verifies with its own");
        for (j, (other, other_signature, _)) in kinds.iter().enumerate() {
            let crossed = i != j && verifies(*other_signature);
            assert!(!crossed, "{other}'s signature verifies as {name}");
        }
    }
}
