//! The application message type shared by every actor in a task simulation.
//!
//! One enum covers storage traffic (embedded [`IpfsWire`]), directory
//! traffic (register/query, §III-C and §IV-B), and the round schedule the
//! bootstrapper broadcasts. Control messages cost tens of wire bytes; data
//! rides inside the storage messages. The enum, its byte layout and its
//! simulated cost all come from the one table in [`msg_schema!`](crate::msg_schema).

use bytes::Bytes;
use dfl_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use dfl_ipfs::wire::{Reader, Sink};
use dfl_ipfs::{CarriesBlock, Cid, DecodeError, IpfsWire, WireCost, WireEmbed};

use crate::accountability::trainer_verifying_key;
use crate::config::TaskConfig;
use crate::gradient::{ProtocolCommitment, ProtocolCurve};

/// A serialized Pedersen commitment (compressed secp256k1 point).
pub type CommitmentBytes = [u8; 33];

/// A composed commitment as [`Msg::OverlayPartial`] carries it: the point
/// itself, so a simulated hop neither compresses nor parses it, and boxed,
/// so `Msg` stays its size. On the wire it is its [`CommitmentBytes`]:
/// compressed at encode, parsed at decode, where bytes that are not a
/// curve point are a [`DecodeError`].
#[derive(Clone, Debug)]
pub struct PartialCommitment(pub Box<ProtocolCommitment>);

impl From<ProtocolCommitment> for PartialCommitment {
    fn from(point: ProtocolCommitment) -> PartialCommitment {
        PartialCommitment(Box::new(point))
    }
}

impl WireCost for PartialCommitment {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.0.to_bytes().encode_into(out);
    }

    fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError> {
        let bytes = CommitmentBytes::decode_from(r, context)?;
        let point = ProtocolCommitment::from_bytes(&bytes).ok_or(DecodeError { context })?;
        Ok(point.into())
    }

    fn encoded_len(&self) -> usize {
        [0u8; 33].encoded_len()
    }
}

/// A serialized Schnorr signature.
pub type SignatureBytes = [u8; 65];

/// A value a key signs: a [`Msg`], a [`SyncAnnounce`] or a
/// [`Misbehavior`](crate::accountability::Misbehavior) record. What the
/// key signs is [`signed_bytes`], so a signature covers exactly the bytes
/// the value is sent as.
pub trait Signed: WireCost + Clone {
    /// The prefix of every byte string signed for this kind of value. Each
    /// kind has its own, so a signature over one never verifies as
    /// another's; within [`Msg`] the variant tag separates the kinds.
    const DOMAIN: &'static [u8];

    /// The value's signature field, when its kind carries one.
    fn signature_mut(&mut self) -> Option<&mut Option<SignatureBytes>>;

    /// Signs the value with `key`, filling its signature field.
    fn sign(&mut self, key: &SigningKey<ProtocolCurve>) {
        let signature = key.sign(&signed_bytes(self.clone())).to_bytes();
        if let Some(field) = self.signature_mut() {
            *field = Some(signature);
        }
    }

    /// Whether the value carries a well-formed signature by `key` over it.
    fn signed_by(&self, key: &VerifyingKey<ProtocolCurve>) -> bool {
        let mut unsigned = self.clone();
        let signature = unsigned.signature_mut().and_then(Option::take);
        signature
            .and_then(|bytes| Signature::from_bytes(&bytes))
            .is_some_and(|sig| key.verify(&signed_bytes(unsigned), &sig))
    }
}

/// What a signature over `value` covers: its kind's
/// [`DOMAIN`](Signed::DOMAIN), then its wire encoding with the signature
/// left out (encoded as absent).
pub fn signed_bytes<T: Signed>(mut value: T) -> Vec<u8> {
    if let Some(signature) = value.signature_mut() {
        *signature = None;
    }
    let mut out = Vec::with_capacity(T::DOMAIN.len() + value.encoded_len());
    out.extend_from_slice(T::DOMAIN);
    value.encode_into(&mut out);
    out
}

/// An overlay level partial as its receiver holds it: the sending
/// trainer's index, the composed blob, the number of gradients folded into
/// it, the claimed commitment, and the sender's signature (authenticated
/// mode) — [`Msg::OverlayPartial`] less its partition and round.
pub type OverlayPartial = (usize, Bytes, u64, PartialCommitment, Option<SignatureBytes>);

/// The check an overlay level partial passes before its opening is
/// checked: in authenticated mode, the [`Msg::OverlayPartial`] it came in
/// is signed by its sender. Returns the claimed commitment, `None` to
/// reject. The opening check is the caller's (a batch in the trainer, a
/// batch of one in the aggregator).
pub fn overlay_partial_commitment(
    cfg: &TaskConfig,
    partition: usize,
    iter: u64,
    (trainer, blob, count, commitment, signature): &OverlayPartial,
) -> Option<ProtocolCommitment> {
    let authentic = !cfg.authenticate || {
        let msg = Msg::OverlayPartial {
            trainer: *trainer,
            partition,
            iter,
            data: blob.clone(),
            count: *count,
            commitment: commitment.clone(),
            signature: *signature,
        };
        msg.signed_by(&trainer_verifying_key(cfg.seed, *trainer))
    };
    authentic.then_some(*commitment.0)
}

/// The protocol's wire table: every [`Msg`] variant declared once — tag,
/// then fields in wire order. Hands the table to the macro named by its
/// argument: [`wire_enum!`](dfl_ipfs::wire_enum) below turns it into the
/// enum and its [`WireCost`] impl; the wire-schema test suite turns the
/// same rows into per-variant samples.
#[macro_export]
macro_rules! msg_schema {
    ($($callback:tt)+) => {
        $($callback)+! {
            /// Messages exchanged between task participants.
            #[derive(Clone, Debug)]
            pub enum Msg {
                /// Storage-layer traffic.
                0 => Ipfs(wire: IpfsWire),

                /// Bootstrapper → everyone: a new round begins (the schedule message
                /// carrying the iteration number; deadlines are in the shared config).
                1 => StartRound {
                    /// Round number.
                    iter: u64,
                },

                /// Trainer → directory: register a gradient's CID and (optionally) its
                /// commitment under its addressing tuple.
                2 => RegisterGradient {
                    /// Trainer index.
                    trainer: usize,
                    /// Partition index.
                    partition: usize,
                    /// Round number.
                    iter: u64,
                    /// Content identifier of the uploaded gradient blob.
                    cid: Cid,
                    /// Pedersen commitment to the quantized gradient (verifiable mode).
                    commitment: Option<CommitmentBytes>,
                    /// The trainer's signature (authenticated mode).
                    signature: Option<SignatureBytes>,
                },

                /// Trainer → directory, compact mode: register every partition of the
                /// round in one message (§VI directory-load reduction).
                3 => RegisterGradientBatch {
                    /// Trainer index.
                    trainer: usize,
                    /// Round number.
                    iter: u64,
                    /// `(partition, cid, commitment)` per partition.
                    entries: Vec<(usize, Cid, Option<CommitmentBytes>)>,
                    /// The trainer's signature (authenticated mode).
                    signature: Option<SignatureBytes>,
                },

                /// Aggregator → directory: which gradients have been registered for my
                /// partition and trainer set?
                4 => QueryGradients {
                    /// Partition index.
                    partition: usize,
                    /// Aggregator position `j` within `A_i`.
                    agg_j: usize,
                    /// Round number.
                    iter: u64,
                },

                /// Directory → aggregator: gradients registered so far for `(partition,
                /// T_ij, iter)`, with each gradient's commitment in verifiable mode so
                /// the aggregator can check merged downloads and recovered gradients
                /// (§IV-B).
                5 => GradientList {
                    /// Partition index.
                    partition: usize,
                    /// Round number.
                    iter: u64,
                    /// `(trainer, cid, commitment)` triples.
                    entries: Vec<(usize, Cid, Option<CommitmentBytes>)>,
                },

                /// Aggregator → directory: the per-aggregator accumulated commitments
                /// for a partition (used to verify peers' partial updates, §IV-B).
                6 => QueryAccumulators {
                    /// Partition index.
                    partition: usize,
                    /// Round number.
                    iter: u64,
                },

                /// Directory → aggregator: accumulated commitment per aggregator slot
                /// `j` (present once all of `T_ij`'s gradients are registered).
                7 => Accumulators {
                    /// Partition index.
                    partition: usize,
                    /// Round number.
                    iter: u64,
                    /// Index `j` → accumulated commitment over `T_ij`.
                    accumulated: Vec<Option<CommitmentBytes>>,
                },

                /// Trainer → directory: the accumulated commitment over *all* trainers
                /// of a partition, for independent update verification (§IV-B).
                8 => QueryTotalAccumulator {
                    /// Partition index.
                    partition: usize,
                    /// Round number.
                    iter: u64,
                },

                /// Directory → trainer: the total accumulated commitment, once every
                /// trainer's gradient is registered.
                9 => TotalAccumulator {
                    /// Partition index.
                    partition: usize,
                    /// Round number.
                    iter: u64,
                    /// Product of all trainers' commitments for the partition.
                    accumulated: Option<CommitmentBytes>,
                },

                /// Aggregator → directory: register the globally updated partition.
                10 => RegisterUpdate {
                    /// Global aggregator index.
                    aggregator: usize,
                    /// Partition index.
                    partition: usize,
                    /// Round number.
                    iter: u64,
                    /// CID of the uploaded update blob.
                    cid: Cid,
                    /// Global trainer indices the update averages over, when a quorum
                    /// degradation left out part of the membership (`None` = full set).
                    contributors: Option<Vec<u32>>,
                    /// The aggregator's signature (accountability mode).
                    signature: Option<SignatureBytes>,
                },

                /// Directory → aggregator: the update was rejected (failed
                /// verification or arrived after another valid update).
                11 => UpdateRejected {
                    /// Partition index.
                    partition: usize,
                    /// Round number.
                    iter: u64,
                    /// Human-readable reason.
                    reason: String,
                },

                /// Trainer → directory: is the update for `(partition, iter)` ready?
                12 => QueryUpdate {
                    /// Partition index.
                    partition: usize,
                    /// Round number.
                    iter: u64,
                },

                /// Directory → trainer: update CID when available.
                13 => UpdateInfo {
                    /// Partition index.
                    partition: usize,
                    /// Round number.
                    iter: u64,
                    /// CID of the verified global update, if registered yet.
                    cid: Option<Cid>,
                },

                /// Trainer → directory: finished the round (downloaded every updated
                /// partition and rebuilt the model).
                14 => TrainerDone {
                    /// Trainer index.
                    trainer: usize,
                    /// Round number.
                    iter: u64,
                },

                /// Detector → directory: a serialized, transferable
                /// [`Misbehavior`](crate::accountability::Misbehavior) proof. The
                /// directory re-verifies it independently before evicting the offender.
                15 => ReportMisbehavior {
                    /// The encoded evidence record.
                    record: bytes::Bytes,
                },

                /// Trainer → aggregator, direct mode only: the gradient blob itself,
                /// bypassing storage (the original IPLS design Fig. 1 compares against).
                16 => DirectGradient {
                    /// Trainer index.
                    trainer: usize,
                    /// Partition index.
                    partition: usize,
                    /// Round number.
                    iter: u64,
                    /// The encoded gradient blob.
                    data: bytes::Bytes,
                },

                /// Trainer → overlay parent (or tree root → aggregator): one level's
                /// partial aggregate — the sender's gradient summed with its verified
                /// children's partials, the homomorphically composed commitment, and
                /// how many trainers the sum covers.
                17 => OverlayPartial {
                    /// Sending trainer's index.
                    trainer: usize,
                    /// Partition index.
                    partition: usize,
                    /// Round number.
                    iter: u64,
                    /// The encoded partial-sum blob (values + summed counter).
                    data: bytes::Bytes,
                    /// Trainers whose gradients the partial covers.
                    count: u64,
                    /// Composed Pedersen commitment over the partial.
                    commitment: PartialCommitment,
                    /// The sending trainer's signature (authenticated mode).
                    signature: Option<SignatureBytes>,
                },

                /// Aggregator → tree root, then trainer → children: the final
                /// partition update disseminated down the overlay tree (replaces the
                /// flat mode's directory polling, so dissemination is O(|T|) messages
                /// with per-node fan-out bounded by the branching factor).
                18 => OverlayUpdate {
                    /// Partition index.
                    partition: usize,
                    /// Round number.
                    iter: u64,
                    /// The aggregated update blob (same encoding as the flat global
                    /// update, so depth-1 overlays reproduce flat rounds bit for bit).
                    data: bytes::Bytes,
                    /// The aggregator's signature (authenticated mode).
                    signature: Option<SignatureBytes>,
                },
            }
        }
    };
}
msg_schema!(dfl_ipfs::wire_enum);

impl Msg {
    /// [`WireCost::wire_bytes`], callable without importing the trait.
    pub fn wire_bytes(&self) -> u64 {
        WireCost::wire_bytes(self)
    }
}

impl Signed for Msg {
    const DOMAIN: &'static [u8] = b"ipls-msg";

    fn signature_mut(&mut self) -> Option<&mut Option<SignatureBytes>> {
        match self {
            Msg::RegisterGradient { signature, .. }
            | Msg::RegisterGradientBatch { signature, .. }
            | Msg::RegisterUpdate { signature, .. }
            | Msg::OverlayPartial { signature, .. }
            | Msg::OverlayUpdate { signature, .. } => Some(signature),
            _ => None,
        }
    }
}

impl WireEmbed for Msg {
    fn embed(wire: IpfsWire) -> Msg {
        Msg::Ipfs(wire)
    }

    fn extract(self) -> Result<IpfsWire, Msg> {
        match self {
            Msg::Ipfs(wire) => Ok(wire),
            other => Err(other),
        }
    }
}

impl CarriesBlock for Msg {
    fn block_bytes(&self) -> Option<&Bytes> {
        match self {
            Msg::Ipfs(wire) => wire.block_bytes(),
            _ => None,
        }
    }
}

/// Payload published on the sync topic when an aggregator finishes its
/// partial update (§IV-B: "aggregators use the IPFS pub/sub functionality
/// to publish their IPFS hashes for their partial updates").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyncAnnounce {
    /// Partition index.
    pub partition: usize,
    /// Aggregator position `j` within `A_i`.
    pub agg_j: usize,
    /// Round number.
    pub iter: u64,
    /// CID of the partial update blob.
    pub cid: Cid,
    /// Ranks, within the slot's trainer set `T_ij`, of the trainers whose
    /// gradients the partial sums (quorum degradation announces a subset;
    /// the full set otherwise).
    pub contributors: Vec<u16>,
    /// The aggregator's signature (accountability mode); unsigned
    /// announces are discarded by accountability-mode receivers.
    pub signature: Option<SignatureBytes>,
}

/// The announce's pub/sub payload: its fields by the wire primitives, in
/// declaration order, except that the rank list's count is a `u16` (a
/// `Vec`'s is a `u32`) — the layout announces have always had.
impl WireCost for SyncAnnounce {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.partition.encode_into(out);
        self.agg_j.encode_into(out);
        self.iter.encode_into(out);
        self.cid.encode_into(out);
        (self.contributors.len() as u16).encode_into(out);
        for rank in &self.contributors {
            rank.encode_into(out);
        }
        self.signature.encode_into(out);
    }

    fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError> {
        Ok(SyncAnnounce {
            partition: WireCost::decode_from(r, context)?,
            agg_j: WireCost::decode_from(r, context)?,
            iter: WireCost::decode_from(r, context)?,
            cid: WireCost::decode_from(r, context)?,
            contributors: (0..u16::decode_from(r, context)?)
                .map(|_| u16::decode_from(r, context))
                .collect::<Result<_, _>>()?,
            signature: WireCost::decode_from(r, context)?,
        })
    }

    fn encoded_len(&self) -> usize {
        8 + 8 + 8 + 32 + 2 + 2 * self.contributors.len() + self.signature.encoded_len()
    }
}

impl Signed for SyncAnnounce {
    const DOMAIN: &'static [u8] = b"ipls-sync-announce";

    fn signature_mut(&mut self) -> Option<&mut Option<SignatureBytes>> {
        Some(&mut self.signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfl_crypto::Curve;

    #[test]
    fn wire_embedding_round_trips() {
        let wire = IpfsWire::Get {
            cid: Cid::of(b"x"),
            req_id: 1,
        };
        let msg = Msg::embed(wire);
        assert!(matches!(msg, Msg::Ipfs(_)));
        assert!(msg.extract().is_ok());
        let other = Msg::StartRound { iter: 3 };
        assert!(matches!(other.extract(), Err(Msg::StartRound { iter: 3 })));
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let small = Msg::StartRound { iter: 0 };
        let list = Msg::GradientList {
            partition: 0,
            iter: 0,
            entries: vec![(0, Cid::of(b"a"), None), (1, Cid::of(b"b"), None)],
        };
        assert!(list.wire_bytes() > small.wire_bytes());
        let with_commit = Msg::RegisterGradient {
            trainer: 0,
            partition: 0,
            iter: 0,
            cid: Cid::of(b"g"),
            commitment: Some([0u8; 33]),
            signature: None,
        };
        let without = Msg::RegisterGradient {
            trainer: 0,
            partition: 0,
            iter: 0,
            cid: Cid::of(b"g"),
            commitment: None,
            signature: None,
        };
        assert_eq!(with_commit.wire_bytes(), without.wire_bytes() + 33);
        let signed = Msg::RegisterGradient {
            trainer: 0,
            partition: 0,
            iter: 0,
            cid: Cid::of(b"g"),
            commitment: None,
            signature: Some([0u8; 65]),
        };
        assert_eq!(signed.wire_bytes(), without.wire_bytes() + 65);
    }

    /// An announce is sent as the parent's hand-written codec wrote it:
    /// `fig2_tcp` and `fig2_verifiable` publish one a round, so its size is
    /// part of their byte totals.
    #[test]
    fn sync_announce_bytes_are_pinned() {
        let announce = SyncAnnounce {
            partition: 3,
            agg_j: 1,
            iter: 42,
            cid: Cid::from_bytes([0x44; 32]),
            contributors: vec![0, 2, 5],
            signature: Some([0x07; 65]),
        };
        let expected = concat!(
            "0300000000000000", // partition 3
            "0100000000000000", // agg_j 1
            "2a00000000000000", // iter 42
            "4444444444444444444444444444444444444444444444444444444444444444",
            "0300",         // 3 contributors (u16)
            "000002000500", // ranks 0, 2, 5
            "01",           // signature present
            "0707070707070707070707070707070707070707070707070707070707070707",
            "0707070707070707070707070707070707070707070707070707070707070707",
            "07",
        );
        let hex: String = announce
            .encode()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, expected);
        let unsigned = SyncAnnounce {
            signature: None,
            ..announce
        };
        assert_eq!(unsigned.encode().len(), 59 + 6);
    }

    #[test]
    fn overlay_wire_sizes_scale_with_content() {
        let partial = Msg::OverlayPartial {
            trainer: 0,
            partition: 0,
            iter: 0,
            data: bytes::Bytes::from(vec![0u8; 100]),
            count: 1,
            commitment: ProtocolCommitment::identity().into(),
            signature: None,
        };
        let update = Msg::OverlayUpdate {
            partition: 0,
            iter: 0,
            data: bytes::Bytes::from(vec![0u8; 100]),
            signature: None,
        };
        // Partial carries the sender, the contributor count (8 bytes each)
        // and the 33-byte commitment on top of the update's fields.
        assert_eq!(partial.wire_bytes(), update.wire_bytes() + 8 + 8 + 33);
        let update_signed = Msg::OverlayUpdate {
            partition: 0,
            iter: 0,
            data: bytes::Bytes::from(vec![0u8; 100]),
            signature: Some([0u8; 65]),
        };
        assert_eq!(update_signed.wire_bytes(), update.wire_bytes() + 65);
    }

    /// An overlay partial is sent as it was when its commitment field was
    /// the compressed bytes themselves: the point is compressed into the
    /// same 33 bytes, in the same place.
    #[test]
    fn overlay_partial_bytes_are_pinned() {
        let point = ProtocolCommitment::from_bytes(&ProtocolCurve::generator().to_compressed());
        let point = point.unwrap();
        let partial = Msg::OverlayPartial {
            trainer: 5,
            partition: 1,
            iter: 7,
            data: Bytes::from_static(&[1, 2, 3]),
            count: 3,
            commitment: point.into(),
            signature: Some([0x07; 65]),
        };
        let expected = [
            "11",               // tag 17
            "0500000000000000", // trainer 5
            "0100000000000000", // partition 1
            "0700000000000000", // iter 7
            "03000000010203",   // 3 data bytes
            "0300000000000000", // count 3
            // the secp256k1 generator, SEC1-compressed
            "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
            "01", // signature present
            "0707070707070707070707070707070707070707070707070707070707070707",
            "0707070707070707070707070707070707070707070707070707070707070707",
            "07",
        ]
        .concat();
        let hex: String = partial
            .encode()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, expected);
        let back = Msg::decode(&partial.encode()).unwrap();
        assert!(matches!(back, Msg::OverlayPartial { commitment, .. } if *commitment.0 == point));
    }

    /// `Msg` holds an overlay partial's point behind a box: inline (a
    /// 96-byte `Jacobian`) it grew `Msg` from 160 to 224 bytes, and
    /// `overlay_10k`'s `peak_rss_mb` from 48.7 to 57.0 MB with it on a
    /// 2-vCPU Xeon VM, since every message in flight is a `Msg`.
    #[test]
    fn a_msg_is_at_most_160_bytes() {
        assert!(
            std::mem::size_of::<Msg>() <= 160,
            "{}",
            std::mem::size_of::<Msg>()
        );
    }
}
