//! The application message type shared by every actor in a task simulation.
//!
//! One enum covers storage traffic (embedded [`IpfsWire`]), directory
//! traffic (register/query, §III-C and §IV-B), and the round schedule the
//! bootstrapper broadcasts. Control messages cost tens of wire bytes; data
//! rides inside the storage messages. The enum, its byte layout and its
//! simulated cost all come from the one table in [`msg_schema!`](crate::msg_schema).

use bytes::Bytes;
use dfl_crypto::schnorr::{Signature, VerifyingKey};
use dfl_ipfs::{Cid, DecodeError, IpfsWire, WireCost, WireEmbed};

use crate::accountability::trainer_verifying_key;
use crate::config::TaskConfig;
use crate::gradient::{ProtocolCommitment, ProtocolCurve};

/// A serialized Pedersen commitment (compressed secp256k1 point).
pub type CommitmentBytes = [u8; 33];

/// A serialized Schnorr signature.
pub type SignatureBytes = [u8; 65];

/// Whether `signature` is present, well-formed and `key`'s signature over
/// `message` — the one check every signed message below passes through.
pub fn signed_by(
    key: &VerifyingKey<ProtocolCurve>,
    message: &[u8],
    signature: Option<SignatureBytes>,
) -> bool {
    signature
        .and_then(|bytes| Signature::from_bytes(&bytes))
        .is_some_and(|sig| key.verify(message, &sig))
}

/// Canonical byte string a trainer signs when batch-registering a whole
/// round (`compact_registration` mode): one signature binds every
/// partition's CID and commitment.
pub fn batch_registration_message(
    trainer: usize,
    iter: u64,
    entries: &[(usize, Cid, Option<CommitmentBytes>)],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + entries.len() * 80);
    out.extend_from_slice(b"ipls-register-batch");
    out.extend_from_slice(&(trainer as u64).to_be_bytes());
    out.extend_from_slice(&iter.to_be_bytes());
    for (partition, cid, commitment) in entries {
        out.extend_from_slice(&(*partition as u64).to_be_bytes());
        out.extend_from_slice(cid.as_bytes());
        match commitment {
            Some(c) => {
                out.push(1);
                out.extend_from_slice(c);
            }
            None => out.push(0),
        }
    }
    out
}

/// Canonical byte string a trainer signs when registering a gradient, so
/// the directory can authenticate the registration (trainer id, partition,
/// round, CID, and commitment are all bound).
pub fn registration_message(
    trainer: usize,
    partition: usize,
    iter: u64,
    cid: &Cid,
    commitment: &Option<CommitmentBytes>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(b"ipls-register-gradient");
    out.extend_from_slice(&(trainer as u64).to_be_bytes());
    out.extend_from_slice(&(partition as u64).to_be_bytes());
    out.extend_from_slice(&iter.to_be_bytes());
    out.extend_from_slice(cid.as_bytes());
    match commitment {
        Some(c) => {
            out.push(1);
            out.extend_from_slice(c);
        }
        None => out.push(0),
    }
    out
}

/// Canonical byte string an aggregator signs over a partial-update
/// announcement (accountability mode): partition, slot, round, CID, and
/// the claimed contributor ranks are all bound, so a later commitment
/// mismatch against the blob is attributable to the signer.
pub fn announce_message(
    partition: usize,
    agg_j: usize,
    iter: u64,
    cid: &Cid,
    contributors: &[u16],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 2 * contributors.len());
    out.extend_from_slice(b"ipls-sync-announce");
    out.extend_from_slice(&(partition as u64).to_be_bytes());
    out.extend_from_slice(&(agg_j as u64).to_be_bytes());
    out.extend_from_slice(&iter.to_be_bytes());
    out.extend_from_slice(cid.as_bytes());
    out.extend_from_slice(&(contributors.len() as u16).to_be_bytes());
    for rank in contributors {
        out.extend_from_slice(&rank.to_be_bytes());
    }
    out
}

/// Canonical byte string an aggregator signs over a global-update
/// registration (accountability mode). `contributors` is the claimed set
/// of global trainer indices the update averages over (`None` = the full
/// partition membership).
pub fn update_message(
    aggregator: usize,
    partition: usize,
    iter: u64,
    cid: &Cid,
    contributors: &Option<Vec<u32>>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    out.extend_from_slice(b"ipls-register-update");
    out.extend_from_slice(&(aggregator as u64).to_be_bytes());
    out.extend_from_slice(&(partition as u64).to_be_bytes());
    out.extend_from_slice(&iter.to_be_bytes());
    out.extend_from_slice(cid.as_bytes());
    match contributors {
        Some(set) => {
            out.push(1);
            out.extend_from_slice(&(set.len() as u32).to_be_bytes());
            for t in set {
                out.extend_from_slice(&t.to_be_bytes());
            }
        }
        None => out.push(0),
    }
    out
}

/// Canonical byte string a trainer signs over the overlay level partial it
/// forwards up the aggregation tree: sender, partition, round, contributor
/// count, the blob's content hash, and the composed commitment are all
/// bound, so a parent (or the aggregator, for the root) can attribute a
/// bad partial to the exact hop that produced it. Domain-separated from
/// every flat-mode signing context.
pub fn overlay_partial_message(
    trainer: usize,
    partition: usize,
    iter: u64,
    count: u64,
    cid: &Cid,
    commitment: &CommitmentBytes,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(b"ipls-overlay-partial");
    out.extend_from_slice(&(trainer as u64).to_be_bytes());
    out.extend_from_slice(&(partition as u64).to_be_bytes());
    out.extend_from_slice(&iter.to_be_bytes());
    out.extend_from_slice(&count.to_be_bytes());
    out.extend_from_slice(cid.as_bytes());
    out.extend_from_slice(commitment);
    out
}

/// An overlay level partial as its receiver holds it: the sending
/// trainer's index, the composed blob, the number of gradients folded into
/// it, the claimed commitment, and the sender's signature (authenticated
/// mode) — [`Msg::OverlayPartial`] less its partition and round.
pub type OverlayPartial = (usize, Bytes, u64, CommitmentBytes, Option<SignatureBytes>);

/// The checks an overlay level partial passes before its opening is
/// checked: the commitment parses and, in authenticated mode, the
/// signature is the sender's over [`overlay_partial_message`]. Returns the
/// parsed commitment, `None` to reject. The opening check is the caller's
/// (a batch in the trainer, a batch of one in the aggregator).
pub fn overlay_partial_commitment(
    cfg: &TaskConfig,
    partition: usize,
    iter: u64,
    (trainer, blob, count, commitment, signature): &OverlayPartial,
) -> Option<ProtocolCommitment> {
    let point = ProtocolCommitment::from_bytes(commitment)?;
    let authentic = !cfg.authenticate || {
        let (cid, vk) = (Cid::of(blob), trainer_verifying_key(cfg.seed, *trainer));
        let message = overlay_partial_message(*trainer, partition, iter, *count, &cid, commitment);
        signed_by(&vk, &message, *signature)
    };
    authentic.then_some(point)
}

/// Canonical byte string an aggregator signs over the final update it
/// pushes down the overlay dissemination tree (the overlay counterpart of
/// [`update_message`]; trainers check it before applying or forwarding).
pub fn overlay_update_message(
    aggregator: usize,
    partition: usize,
    iter: u64,
    cid: &Cid,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    out.extend_from_slice(b"ipls-overlay-update");
    out.extend_from_slice(&(aggregator as u64).to_be_bytes());
    out.extend_from_slice(&(partition as u64).to_be_bytes());
    out.extend_from_slice(&iter.to_be_bytes());
    out.extend_from_slice(cid.as_bytes());
    out
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
                    /// Schnorr signature over [`registration_message`] (authenticated
                    /// mode).
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
                    /// Schnorr signature over [`batch_registration_message`].
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
                    /// Schnorr signature over [`update_message`] (accountability mode).
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
                    commitment: CommitmentBytes,
                    /// Schnorr signature over [`overlay_partial_message`]
                    /// (authenticated mode).
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
                    /// Schnorr signature over [`overlay_update_message`]
                    /// (authenticated mode).
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

/// Serializes a message to its frame payload.
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    let mut out = Vec::with_capacity(msg.encoded_len());
    msg.encode_into(&mut out);
    out
}

/// Parses a frame payload back into a message.
pub fn decode_msg(buf: &[u8]) -> Result<Msg, DecodeError> {
    Msg::decode(buf)
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
    /// Schnorr signature over [`announce_message`] (accountability mode);
    /// unsigned announces are discarded by accountability-mode receivers.
    pub signature: Option<SignatureBytes>,
}

impl SyncAnnounce {
    /// The canonical byte string the announcement's signature covers.
    pub fn message(&self) -> Vec<u8> {
        announce_message(
            self.partition,
            self.agg_j,
            self.iter,
            &self.cid,
            &self.contributors,
        )
    }

    /// Serializes to the pub/sub payload format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(59 + 2 * self.contributors.len() + 65);
        out.extend_from_slice(&(self.partition as u64).to_le_bytes());
        out.extend_from_slice(&(self.agg_j as u64).to_le_bytes());
        out.extend_from_slice(&self.iter.to_le_bytes());
        out.extend_from_slice(self.cid.as_bytes());
        out.extend_from_slice(&(self.contributors.len() as u16).to_le_bytes());
        for rank in &self.contributors {
            out.extend_from_slice(&rank.to_le_bytes());
        }
        match &self.signature {
            Some(sig) => {
                out.push(1);
                out.extend_from_slice(sig);
            }
            None => out.push(0),
        }
        out
    }

    /// Parses a pub/sub payload; `None` when malformed.
    pub fn decode(bytes: &[u8]) -> Option<SyncAnnounce> {
        let mut rest = bytes;
        let partition = u64::from_le_bytes(take(&mut rest)?) as usize;
        let agg_j = u64::from_le_bytes(take(&mut rest)?) as usize;
        let iter = u64::from_le_bytes(take(&mut rest)?);
        let cid = Cid::from_bytes(take(&mut rest)?);
        let count = u16::from_le_bytes(take(&mut rest)?) as usize;
        if rest.len() < 2 * count + 1 {
            return None;
        }
        let mut contributors = Vec::with_capacity(count);
        for _ in 0..count {
            contributors.push(u16::from_le_bytes(take(&mut rest)?));
        }
        let signature = match rest {
            [0] => None,
            [1, signature @ ..] => Some(signature.try_into().ok()?),
            _ => return None,
        };
        Some(SyncAnnounce {
            partition,
            agg_j,
            iter,
            cid,
            contributors,
            signature,
        })
    }
}

/// Splits the next `N` bytes off the front of `rest`: the one field read of
/// the signed payloads parsed here and in
/// [`Misbehavior::decode`](crate::accountability::Misbehavior::decode).
pub(crate) fn take<const N: usize>(rest: &mut &[u8]) -> Option<[u8; N]> {
    rest.split_off(..N)?.try_into().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn sync_announce_round_trip() {
        let ann = SyncAnnounce {
            partition: 3,
            agg_j: 1,
            iter: 42,
            cid: Cid::of(b"partial"),
            contributors: vec![0, 2, 3],
            signature: None,
        };
        let decoded = SyncAnnounce::decode(&ann.encode()).unwrap();
        assert_eq!(decoded, ann);
        assert_eq!(SyncAnnounce::decode(b"short"), None);

        let signed = SyncAnnounce {
            signature: Some([7u8; 65]),
            ..ann.clone()
        };
        let decoded = SyncAnnounce::decode(&signed.encode()).unwrap();
        assert_eq!(decoded, signed);

        // Truncated signature or trailing garbage must not parse.
        let mut bytes = signed.encode();
        bytes.pop();
        assert_eq!(SyncAnnounce::decode(&bytes), None);
        let mut bytes = ann.encode();
        bytes.push(0);
        assert_eq!(SyncAnnounce::decode(&bytes), None);
    }

    #[test]
    fn announce_message_binds_contributors() {
        let cid = Cid::of(b"partial");
        let a = announce_message(0, 1, 2, &cid, &[0, 1]);
        let b = announce_message(0, 1, 2, &cid, &[0, 2]);
        assert_ne!(a, b);
        let c = update_message(3, 0, 2, &cid, &None);
        let d = update_message(3, 0, 2, &cid, &Some(vec![0, 1, 2]));
        assert_ne!(c, d);
    }

    // -- golden vectors -----------------------------------------------------
    //
    // The canonical signing byte strings are a wire format: every deployed
    // signer and verifier must build the identical bytes, so the layout may
    // never drift. These tests pin it byte for byte against hardcoded hex —
    // if one fails, the change is a protocol break, not a refactor.

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn registration_message_golden_vector() {
        let cid = Cid::from_bytes([0xab; 32]);
        let expected = concat!(
            "69706c732d72656769737465722d6772616469656e74", // "ipls-register-gradient"
            "0000000000000003",                             // trainer 3
            "0000000000000001",                             // partition 1
            "0000000000000002",                             // iter 2
            "abababababababababababababababababababababababababababababababab",
            "01", // commitment present
            "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd",
        );
        assert_eq!(
            hex(&registration_message(3, 1, 2, &cid, &Some([0xcd; 33]))),
            expected
        );

        let expected_bare = concat!(
            "69706c732d72656769737465722d6772616469656e74",
            "0000000000000003",
            "0000000000000001",
            "0000000000000002",
            "abababababababababababababababababababababababababababababababab",
            "00", // no commitment
        );
        assert_eq!(
            hex(&registration_message(3, 1, 2, &cid, &None)),
            expected_bare
        );
    }

    #[test]
    fn batch_registration_message_golden_vector() {
        let entries = vec![
            (0usize, Cid::from_bytes([0x11; 32]), None),
            (1usize, Cid::from_bytes([0x22; 32]), Some([0x33; 33])),
        ];
        let expected = concat!(
            "69706c732d72656769737465722d6261746368", // "ipls-register-batch"
            "0000000000000002",                       // trainer 2
            "0000000000000005",                       // iter 5
            // entry (partition 0, cid 0x11…, no commitment)
            "0000000000000000",
            "1111111111111111111111111111111111111111111111111111111111111111",
            "00",
            // entry (partition 1, cid 0x22…, commitment 0x33…)
            "0000000000000001",
            "2222222222222222222222222222222222222222222222222222222222222222",
            "01",
            "333333333333333333333333333333333333333333333333333333333333333333",
        );
        assert_eq!(hex(&batch_registration_message(2, 5, &entries)), expected);
    }

    #[test]
    fn announce_message_golden_vector() {
        let cid = Cid::from_bytes([0x44; 32]);
        let expected = concat!(
            "69706c732d73796e632d616e6e6f756e6365", // "ipls-sync-announce"
            "0000000000000001",                     // partition 1
            "0000000000000000",                     // agg_j 0
            "0000000000000007",                     // iter 7
            "4444444444444444444444444444444444444444444444444444444444444444",
            "0003",         // 3 contributors
            "000000020005", // ranks 0, 2, 5
        );
        assert_eq!(hex(&announce_message(1, 0, 7, &cid, &[0, 2, 5])), expected);
    }

    #[test]
    fn update_message_golden_vector() {
        let cid = Cid::from_bytes([0x55; 32]);
        let expected = concat!(
            "69706c732d72656769737465722d757064617465", // "ipls-register-update"
            "0000000000000004",                         // aggregator 4
            "0000000000000000",                         // partition 0
            "0000000000000009",                         // iter 9
            "5555555555555555555555555555555555555555555555555555555555555555",
            "01",               // contributor set present
            "00000002",         // 2 contributors
            "0000000100000003", // trainers 1, 3
        );
        assert_eq!(
            hex(&update_message(4, 0, 9, &cid, &Some(vec![1, 3]))),
            expected
        );

        let expected_full = concat!(
            "69706c732d72656769737465722d757064617465",
            "0000000000000004",
            "0000000000000000",
            "0000000000000009",
            "5555555555555555555555555555555555555555555555555555555555555555",
            "00", // full membership
        );
        assert_eq!(hex(&update_message(4, 0, 9, &cid, &None)), expected_full);
    }

    #[test]
    fn overlay_partial_message_golden_vector() {
        let cid = Cid::from_bytes([0xab; 32]);
        let expected = concat!(
            "69706c732d6f7665726c61792d7061727469616c", // "ipls-overlay-partial"
            "0000000000000003",                         // trainer 3
            "0000000000000001",                         // partition 1
            "0000000000000002",                         // iter 2
            "0000000000000005",                         // count 5
            "abababababababababababababababababababababababababababababababab",
            "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd",
        );
        assert_eq!(
            hex(&overlay_partial_message(3, 1, 2, 5, &cid, &[0xcd; 33])),
            expected
        );
    }

    #[test]
    fn overlay_update_message_golden_vector() {
        let cid = Cid::from_bytes([0x55; 32]);
        let expected = concat!(
            "69706c732d6f7665726c61792d757064617465", // "ipls-overlay-update"
            "0000000000000004",                       // aggregator 4
            "0000000000000000",                       // partition 0
            "0000000000000009",                       // iter 9
            "5555555555555555555555555555555555555555555555555555555555555555",
        );
        assert_eq!(hex(&overlay_update_message(4, 0, 9, &cid)), expected);
    }

    #[test]
    fn overlay_wire_sizes_scale_with_content() {
        let partial = Msg::OverlayPartial {
            trainer: 0,
            partition: 0,
            iter: 0,
            data: bytes::Bytes::from(vec![0u8; 100]),
            count: 1,
            commitment: [0u8; 33],
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
}
