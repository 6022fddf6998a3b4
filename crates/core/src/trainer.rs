//! The trainer actor — the TRAINER procedure of Algorithm 1.
//!
//! Per round: train locally from the current model, split the updated
//! parameter vector into partitions, append the averaging counter, upload
//! each partition (to storage or directly to the aggregator depending on
//! the communication mode), register CIDs (and commitments) with the
//! directory, then poll for the globally updated partitions, divide by the
//! counter, and rebuild the model.
//!
//! Its position in the round is one `Stage` value: `Training` while the
//! round's training timer is pending, then `Uploading` (flat) or
//! `Forwarding` (overlay), `Awaiting` the updates, and `Finished`. A
//! partition's blob lives in the stage that still reads it and is dropped
//! at the last point that does: its storage acknowledgment, its overlay
//! forward, or its direct send. Only its commitment outlives that.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};

use bytes::Bytes;

use dfl_ipfs::{Cid, IpfsWire};
use dfl_ml::{local_update, Dataset, Model, SgdConfig};
use dfl_netsim::{NodeId, SimDuration, SimTime};

use dfl_crypto::quantize::encode;
use dfl_crypto::schnorr::SigningKey;

use crate::accountability::{agg_verifying_key, trainer_signing_key};
use crate::config::{CommMode, TaskConfig, Topology};
use crate::gradient::{
    build_blob, commit_blob, decode_blob, decode_partition_blob, decode_update, sum_in_round,
    verify_sum_timed, ProtocolCommitment, ProtocolCurve, ProtocolKey, VerifyQueue,
};
use crate::labels;
use crate::messages::{
    batch_registration_message, overlay_partial_commitment, overlay_partial_message,
    overlay_update_message, registration_message, signed_by, Msg, OverlayPartial,
};
use crate::overlay::OverlayTree;
use crate::protocol::{Actions, ProtocolCore, ProtocolEvent};

// The low 32 bits of a training, retry or level-deadline token carry the
// round it was armed in, so a timer left over from an earlier round is
// told apart from the current round's.
const TK_TRAIN: u64 = 1 << 32;
const TK_POLL: u64 = 2 << 32;
const TK_RETRY: u64 = 3 << 32;
/// Overlay-mode level deadline.
const TK_OVERLAY: u64 = 4 << 32;

/// Shared sink the runner reads trainers' final parameters from after the
/// run ends. `Arc<Mutex<..>>` so socket backends can host each trainer on
/// its own thread; in the single-threaded simulator the lock is free. A
/// trainer's entry is allocated once and each round's parameters are
/// copied into it, a copy that cannot stop half-way, so a lock poisoned by
/// a panicking thread still guards a valid map and is taken regardless.
pub type ParamSink = Arc<Mutex<HashMap<usize, Vec<f32>>>>;

/// The overlay half of a trainer: the tree, the key every child opening
/// is checked against, and the child partials that arrived for this or a
/// later round. Built once, when the task has both a tree and a key, so
/// nothing downstream has to ask for either again.
struct Overlay {
    tree: OverlayTree,
    key: Arc<ProtocolKey>,
    /// Child partials buffered per `(iter, partition)`. Keyed by round
    /// because a fast child can send its level's partial before this
    /// node's own `StartRound` arrives.
    children: HashMap<(u64, usize), Vec<OverlayPartial>>,
    /// Children already counted into a `(iter, partition)` buffer —
    /// duplicates (retransmissions, Byzantine replays) are dropped.
    seen: HashSet<(u64, usize, usize)>,
}

/// Update verification by the trainer itself (`trainer_verifies`, §IV-B
/// "can be performed by any participant").
struct UpdateCheck {
    /// Total accumulated commitment per partition.
    accumulators: HashMap<usize, ProtocolCommitment>,
    /// Update blobs awaiting an accumulator to verify against.
    stashed: HashMap<usize, Bytes>,
    /// Updates taken in, tagged by partition; settled when the last
    /// partition arrives and the round is about to finish.
    queue: VerifyQueue<usize>,
}

/// Where a trainer is in a round. Applying the round's last update ends it
/// from any stage; every other move is made by the one handler that
/// expects it.
enum Stage {
    /// Local training: the round's `TK_TRAIN` timer is pending over the
    /// blobs it built, one per partition in partition order.
    Training(Vec<Bytes>),
    /// Flat upload: Puts are outstanding (request id → partition and the
    /// blob a retry re-sends, dropped at its acknowledgment), and in
    /// compact mode the acked registrations wait for the last ack.
    Uploading {
        acks: HashMap<u64, (usize, Bytes)>,
        batch: Vec<(usize, Cid, Option<[u8; 33]>)>,
    },
    /// Overlay: composing level partials; the own blobs of the partitions
    /// not yet sent up.
    Forwarding(HashMap<usize, Bytes>),
    /// Polling for the round's updates, or being pushed them.
    Awaiting,
    /// The model is rebuilt and `TrainerDone` sent.
    Finished,
}

impl Default for Stage {
    fn default() -> Stage {
        Stage::Training(Vec::new())
    }
}

/// One round of the TRAINER procedure: built when `StartRound` arrives,
/// dropped when the next one does.
#[derive(Default)]
struct Round {
    iter: u64,
    start: SimTime,
    stage: Stage,
    /// Commitment per partition, in partition order; empty when the task
    /// is not verifiable. Registration reads it after the blob is gone. It
    /// stays a point until it is sent: serialising costs a field inversion
    /// and parsing back a square root, and an overlay node combines its own
    /// with its children's before anything goes out.
    commitments: Vec<ProtocolCommitment>,
    /// Get request id → (partition, update cid): the partitions being
    /// fetched (update download de-dup), kept for retransmission.
    pending_gets: HashMap<u64, (usize, Cid)>,
    /// Downloaded averaged partitions.
    received: HashMap<usize, Vec<f32>>,
    /// Present in trainer-verification mode only.
    check: Option<UpdateCheck>,
}

impl Round {
    fn new(iter: u64, start: SimTime, cfg: &TaskConfig, key: Option<&Arc<ProtocolKey>>) -> Round {
        let check = key.filter(|_| cfg.trainer_verifies).cloned();
        Round {
            iter,
            start,
            check: check.map(|key| UpdateCheck {
                accumulators: HashMap::new(),
                stashed: HashMap::new(),
                queue: VerifyQueue::new(key, cfg),
            }),
            ..Round::default()
        }
    }

    /// `kind`'s timer token for this round.
    fn token(&self, kind: u64) -> u64 {
        kind | (self.iter & 0xFFFF_FFFF)
    }

    /// Whether a tagged `token` was armed in this round.
    fn armed(&self, token: u64) -> bool {
        token & 0xFFFF_FFFF == self.iter & 0xFFFF_FFFF
    }

    fn fetching(&self, partition: usize) -> bool {
        self.pending_gets.values().any(|&(p, _)| p == partition)
    }

    fn is_finished(&self) -> bool {
        matches!(self.stage, Stage::Finished)
    }
}

/// The trainer actor. Beside the round it holds only what outlives one:
/// identity, model and data, the blocks to unpin or release when the next
/// round starts, armed-timer flags, the request counter, and the overlay's
/// buffers for rounds this node has not started yet.
pub struct Trainer<M: Model> {
    t: usize,
    topo: Arc<Topology>,
    key: Option<Arc<ProtocolKey>>,
    model: M,
    dataset: Dataset,
    sgd: SgdConfig,
    /// Current global model parameters (updated every round).
    params: Vec<f32>,
    sink: ParamSink,
    round: Round,
    overlay: Option<Overlay>,
    /// Blocks uploaded in the current round, released at the next round
    /// (ephemeral storage lifecycle, §VI).
    uploads: Vec<(NodeId, Cid)>,
    /// Updates asked for through the gateway in the current round: its
    /// cached copies, released at the next round like the uploads.
    fetched: Vec<Cid>,
    /// Registration signing key (authenticated mode).
    signing_key: Option<SigningKey<ProtocolCurve>>,
    polling: bool,
    /// Whether a storage-retransmission timer is armed.
    retrying: bool,
    next_req: u64,
}

impl<M: Model> Trainer<M> {
    /// Creates a trainer with its local dataset.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        t: usize,
        topo: Arc<Topology>,
        key: Option<Arc<ProtocolKey>>,
        model: M,
        initial_params: Vec<f32>,
        dataset: Dataset,
        sgd: SgdConfig,
        sink: ParamSink,
    ) -> Trainer<M> {
        assert_eq!(
            initial_params.len(),
            topo.param_count(),
            "parameter count mismatch"
        );
        let cfg = topo.config();
        let signing_key = cfg.authenticate.then(|| trainer_signing_key(cfg.seed, t));
        let overlay = topo.overlay().zip(key.clone()).map(|(tree, key)| Overlay {
            tree,
            key,
            children: HashMap::new(),
            seen: HashSet::new(),
        });
        Trainer {
            t,
            round: Round::new(0, SimTime::ZERO, topo.config(), key.as_ref()),
            overlay,
            topo,
            key,
            model,
            dataset,
            sgd,
            params: initial_params,
            sink,
            uploads: Vec::new(),
            fetched: Vec::new(),
            signing_key,
            polling: false,
            retrying: false,
            next_req: 0,
        }
    }

    /// Registers partition `partition`'s hash (and commitment) with the
    /// directory, signed in authenticated mode.
    fn register(&self, out: &mut Actions<Msg>, partition: usize, cid: Cid) {
        let commitment = self.round.commitments.get(partition).map(|c| c.to_bytes());
        let signature = self.signing_key.as_ref().map(|key| {
            let message =
                registration_message(self.t, partition, self.round.iter, &cid, &commitment);
            key.sign(&message).to_bytes()
        });
        let msg = Msg::RegisterGradient {
            trainer: self.t,
            partition,
            iter: self.round.iter,
            cid,
            commitment,
            signature,
        };
        out.send(self.topo.directory(), msg);
    }

    /// (Re-)sends the `Put` of `partition`'s blob `data` under request id
    /// `req_id`.
    fn send_put(&self, out: &mut Actions<Msg>, req_id: u64, partition: usize, data: Bytes) {
        let Ok(to) = self.topo.upload_target(partition, self.t) else {
            return; // unreachable: puts only exist in the storage-backed modes
        };
        let put = IpfsWire::Put {
            data,
            req_id,
            replicate: self.topo.config().replication,
        };
        out.send(to, Msg::Ipfs(put));
    }

    fn fresh_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Deterministic per-round training seed, aligned with
    /// [`dfl_ml::FedAvg::run`] so pipelines can be compared exactly.
    fn round_seed(&self) -> u64 {
        self.topo.config().seed + self.round.iter * 1000 + self.t as u64
    }

    fn begin_round(&mut self, now: SimTime, out: &mut Actions<Msg>, iter: u64) {
        self.round = Round::new(iter, now, self.topo.config(), self.key.as_ref());
        // Keep buffered partials for this and later rounds (children may
        // race ahead of our StartRound); drop anything older.
        if let Some(overlay) = &mut self.overlay {
            overlay.children.retain(|&(i, _), _| i >= iter);
            overlay.seen.retain(|&(i, _, _)| i >= iter);
        }

        // Release last round's gradient blobs and the gateway's copies of
        // its updates: they have served their purpose once the round
        // completed (§VI ephemeral-data lifecycle). An `Unpin` at the
        // gateway collects its cached copies anyway.
        let replicate = self.topo.config().replication;
        let gateway = self.topo.trainer_gateway(self.t);
        let unpins_gateway = self.uploads.iter().any(|&(target, _)| target == gateway);
        for (target, cid) in std::mem::take(&mut self.uploads) {
            let unpin = IpfsWire::Unpin { cid, replicate };
            out.send(target, Msg::Ipfs(unpin));
        }
        let fetched = std::mem::take(&mut self.fetched);
        if !unpins_gateway {
            for cid in fetched {
                out.send(gateway, Msg::Ipfs(IpfsWire::Release { cid }));
            }
        }

        // Train now (real computation), charge the virtual compute time,
        // and continue in the TK_TRAIN timer.
        let seed = self.round_seed();
        let new_params = local_update(
            &mut self.model,
            &self.params,
            &self.dataset,
            &self.sgd,
            seed,
        );

        let mut commit_elements = 0u64;
        let mut blobs = Vec::with_capacity(self.topo.config().partitions);
        for i in 0..self.topo.config().partitions {
            let (s, e) = self.topo.partition_range(i);
            let blob = Bytes::from(build_blob(&new_params[s..e]));
            if let Some(key) = &self.key {
                commit_elements += (e - s + 1) as u64;
                // A blob built here decodes: a partition holds at least one value.
                #[allow(clippy::expect_used)]
                let commitment =
                    commit_blob(key, &blob).expect("locally built blob is well-formed");
                self.round.commitments.push(commitment);
            }
            blobs.push(blob);
        }
        self.round.stage = Stage::Training(blobs);

        let compute = self.topo.config().train_compute
            + SimDuration::from_micros(self.topo.config().commit_us_per_element * commit_elements);
        out.set_timer(compute, self.round.token(TK_TRAIN));
    }

    fn upload(&mut self, now: SimTime, out: &mut Actions<Msg>) {
        let Stage::Training(blobs) = std::mem::take(&mut self.round.stage) else {
            return; // unreachable: the training timer counts in `Training` only
        };
        // Overlay mode replaces both the upload and the download path:
        // partials climb the aggregation tree, the final model rides the
        // same edges back down, and lateness is governed by the per-level
        // deadline rather than the flat t_train cut-off.
        if let Some(tree) = self.overlay.as_ref().map(|overlay| overlay.tree) {
            self.upload_overlay(out, tree, blobs);
            return;
        }
        // Abort the round if training blew the t_train deadline
        // (Algorithm 1, lines 10–12): skip uploading, but keep polling so
        // the trainer still picks up the next global model.
        let deadline = self.round.start + self.topo.config().t_train;
        if now > deadline {
            out.record(labels::TRAIN_ABORT, self.round.iter as f64);
            self.await_updates(out);
            return;
        }

        match self.topo.config().comm {
            CommMode::Direct => {
                for (i, data) in blobs.into_iter().enumerate() {
                    let cid = Cid::of(&data);
                    let j = self.topo.agg_for_trainer(i, self.t);
                    let to = self.topo.aggregator(self.topo.agg_index(i, j));
                    let msg = Msg::DirectGradient {
                        trainer: self.t,
                        partition: i,
                        iter: self.round.iter,
                        data,
                    };
                    out.send(to, msg);
                    // Register the hash (and commitment) with the directory
                    // so the aggregation-delay metric and the verification
                    // path work identically across communication modes.
                    self.register(out, i, cid);
                }
                self.await_updates(out);
            }
            CommMode::Indirect | CommMode::MergeAndDownload => {
                out.record(labels::UPLOAD_START, self.round.iter as f64);
                let mut acks = HashMap::new();
                for (i, blob) in blobs.into_iter().enumerate() {
                    let req_id = self.fresh_req();
                    self.send_put(out, req_id, i, blob.clone());
                    acks.insert(req_id, (i, blob));
                }
                let batch = Vec::new();
                self.round.stage = Stage::Uploading { acks, batch };
                self.arm_retry(out);
            }
        }
    }

    /// Moves the round to `Awaiting` and polls for its updates.
    fn await_updates(&mut self, out: &mut Actions<Msg>) {
        self.round.stage = Stage::Awaiting;
        self.start_polling(out);
    }

    /// Overlay upload: leaves forward their partial immediately; interior
    /// nodes arm the level deadline and forward each partition as its
    /// children complete (buffered partials may already be waiting).
    fn upload_overlay(&mut self, out: &mut Actions<Msg>, tree: OverlayTree, blobs: Vec<Bytes>) {
        out.record(labels::UPLOAD_START, self.round.iter as f64);
        self.round.stage = Stage::Forwarding(blobs.into_iter().enumerate().collect());
        if !tree.children(self.t).is_empty() {
            // Deeper interior nodes get earlier deadlines, so a partial
            // forwarded on timeout still has a level's budget to climb
            // each remaining hop before its ancestors give up in turn.
            let depth_below = (tree.levels() - tree.level(self.t)) as u64;
            let deadline =
                SimDuration::from_micros(self.topo.config().t_sync.as_micros() * depth_below);
            out.set_timer(deadline, self.round.token(TK_OVERLAY));
        }
        for i in 0..self.topo.config().partitions {
            self.try_forward_overlay(out, i, false);
        }
    }

    /// Composes and forwards one partition's level partial once every
    /// child contribution has arrived (or unconditionally when `force` —
    /// the level deadline — says so). Each child's Pedersen opening (and
    /// signature, when authenticated) is verified, the accepted blobs are
    /// summed with this node's own gradient, the commitments are combined
    /// homomorphically, and a single blob goes one hop up — to the parent
    /// trainer, or from the root to the partition's aggregator.
    fn try_forward_overlay(&mut self, out: &mut Actions<Msg>, partition: usize, force: bool) {
        let Some(overlay) = &mut self.overlay else {
            return;
        };
        let Stage::Forwarding(unsent) = &mut self.round.stage else {
            return;
        };
        if !unsent.contains_key(&partition) {
            return; // already sent up
        }
        let tree = overlay.tree;
        let expected = tree.children(self.t).len();
        let arrived = overlay
            .children
            .get(&(self.round.iter, partition))
            .map_or(0, Vec::len);
        if arrived < expected {
            if !force {
                return;
            }
            out.record(labels::OVERLAY_TIMEOUT, (expected - arrived) as f64);
        }
        let Some(own_blob) = unsent.remove(&partition) else {
            return; // unreachable: checked above
        };
        let last = unsent.is_empty();
        let buffered = overlay
            .children
            .remove(&(self.round.iter, partition))
            .unwrap_or_default();

        // Validate the children: parseable commitment, authentic
        // signature and this partition's width, then one check that their
        // sum opens the product of their commitments — the level forwards
        // nothing but that sum — naming culprits only if it does not (the
        // batch is empty at leaves and costs nothing).
        let key = &overlay.key;
        let cfg = self.topo.config();
        let width = self.topo.partition_len(partition);
        let mut candidates = Vec::new();
        for partial in buffered {
            let checked = overlay_partial_commitment(cfg, partition, self.round.iter, &partial);
            let (child, blob, count, ..) = partial;
            let decoded = decode_partition_blob(&blob, width);
            let (Some(point), Some(decoded)) = (checked, decoded) else {
                out.record(labels::OVERLAY_CHILD_REJECTED, child as f64);
                continue;
            };
            candidates.push((child, blob, decoded, count, point));
        }
        let items: Vec<(&[u8], &ProtocolCommitment)> = candidates
            .iter()
            .map(|(_, blob, _, _, point)| (&blob[..], point))
            .collect();
        let culprits: HashSet<usize> = verify_sum_timed(out, key, &items).into_iter().collect();

        // Sum the accepted child partials with this node's own gradient.
        // The i128-exact summation makes the composed total bit-identical
        // to the flat aggregator's sum of the same leaves, independent of
        // tree shape — addition never rounds, so association is free.
        let Some(&own_commitment) = self.round.commitments.get(partition) else {
            return; // unreachable: the overlay's key committed every blob of the round
        };
        let Some(own) = decode_blob(&own_blob) else {
            return; // unreachable: a blob built by `begin_round` decodes
        };
        let (mut grads, mut commits, mut count) = (vec![own], vec![own_commitment], 1u64);
        for (i, (child, _, decoded, child_count, point)) in candidates.into_iter().enumerate() {
            if culprits.contains(&i) {
                out.record(labels::OVERLAY_CHILD_REJECTED, child as f64);
                continue;
            }
            grads.push(decoded);
            commits.push(point);
            count += child_count;
        }
        let Some(summed) = sum_in_round(out, self.round.iter, &grads) else {
            return;
        };
        let blob = if grads.len() == 1 {
            own_blob // no accepted children: the partial is the own blob verbatim
        } else {
            Bytes::from(encode(&summed))
        };
        let commitment = ProtocolCommitment::accumulate(commits.iter()).to_bytes();
        let cid = Cid::of(&blob);
        let (t, iter) = (self.t, self.round.iter);
        let message = overlay_partial_message(t, partition, iter, count, &cid, &commitment);
        let signature = self
            .signing_key
            .as_ref()
            .map(|k| k.sign(&message).to_bytes());
        let to = match tree.parent(self.t) {
            Some(p) => self.topo.trainer(p),
            // The root hands the fully composed partial to the
            // partition's (single) aggregator slot.
            None => self.topo.aggregator(self.topo.agg_index(partition, 0)),
        };
        out.send(
            to,
            Msg::OverlayPartial {
                trainer: self.t,
                partition,
                iter: self.round.iter,
                data: blob,
                count,
                commitment,
                signature,
            },
        );
        out.record(labels::OVERLAY_FORWARDED, partition as f64);
        if last {
            out.record(labels::UPLOAD_DONE, self.round.iter as f64);
            self.round.stage = Stage::Awaiting;
        }
    }

    /// Buffers one child partial (de-duplicated) and forwards the level if
    /// it is now complete. Partials for future rounds are held until this
    /// node's own `StartRound` catches up.
    fn on_overlay_partial(
        &mut self,
        out: &mut Actions<Msg>,
        partition: usize,
        iter: u64,
        partial: OverlayPartial,
    ) {
        let trainer = partial.0;
        let Some(overlay) = &mut self.overlay else {
            return; // flat mode: stray frame, nothing listens here
        };
        if iter < self.round.iter {
            return; // late for a level that already went up — harmless
        }
        // Only accept partials from this node's actual children: the tree
        // is a pure function of the shared config, so a partial arriving
        // from anywhere else is misrouted or forged.
        if trainer >= overlay.tree.len()
            || overlay.tree.parent(trainer) != Some(self.t)
            || partition >= self.topo.config().partitions
        {
            out.record(labels::OVERLAY_CHILD_REJECTED, trainer as f64);
            return;
        }
        if !overlay.seen.insert((iter, partition, trainer)) {
            return; // duplicate (retransmission or replay)
        }
        out.record(labels::OVERLAY_CHILD_RECV, partition as f64);
        overlay
            .children
            .entry((iter, partition))
            .or_default()
            .push(partial);
        if iter == self.round.iter {
            self.try_forward_overlay(out, partition, false);
        }
    }

    /// Relays a final update pushed down the dissemination tree verbatim to
    /// this node's children, then applies it.
    fn on_overlay_update(
        &mut self,
        out: &mut Actions<Msg>,
        partition: usize,
        data: Bytes,
        signature: Option<[u8; 65]>,
    ) {
        let Some(overlay) = &self.overlay else {
            return; // flat mode: stray frame, nothing listens here
        };
        if self.round.is_finished() || self.round.received.contains_key(&partition) {
            return; // already applied — and already relayed downward
        }
        if self.topo.config().authenticate {
            let g = self.topo.agg_index(partition, 0);
            let vk = agg_verifying_key(self.topo.config().seed, g);
            let msg = overlay_update_message(g, partition, self.round.iter, &Cid::of(&data));
            if !signed_by(&vk, &msg, signature) {
                out.record(labels::OVERLAY_UPDATE_REJECTED, partition as f64);
                return;
            }
        }
        // Relay before applying: the subtree is waiting on this hop.
        for child in overlay.tree.children(self.t) {
            out.send(
                self.topo.trainer(child),
                Msg::OverlayUpdate {
                    partition,
                    iter: self.round.iter,
                    data: data.clone(),
                    signature,
                },
            );
        }
        self.accept_update(out, partition, data);
    }

    /// Arms the storage-retransmission timer: a Put or Get sent to a
    /// storage node that crashes before answering is silently lost, so
    /// anything still unanswered after `fetch_timeout` is re-sent.
    fn arm_retry(&mut self, out: &mut Actions<Msg>) {
        if !self.retrying {
            self.retrying = true;
            let token = self.round.token(TK_RETRY);
            out.set_timer(self.topo.config().fetch_timeout, token);
        }
    }

    /// Re-sends what the round still waits on (a timer from an earlier
    /// round, or one firing after the round finished, re-sends nothing),
    /// and re-arms while anything is outstanding.
    fn on_retry(&mut self, out: &mut Actions<Msg>, token: u64) {
        self.retrying = false;
        if self.round.armed(token) && !self.round.is_finished() {
            // Re-send in request order — iterating the maps directly would
            // make the wire order (and so the whole simulation)
            // nondeterministic.
            if let Stage::Uploading { acks, .. } = &self.round.stage {
                let mut puts: Vec<(&u64, &(usize, Bytes))> = acks.iter().collect();
                puts.sort_unstable_by_key(|&(&req_id, _)| req_id);
                for (&req_id, (partition, data)) in puts {
                    self.send_put(out, req_id, *partition, data.clone());
                }
            }
            let mut gets: Vec<_> = self.round.pending_gets.iter().collect();
            gets.sort_unstable_by_key(|&(&req_id, _)| req_id);
            let gateway = self.topo.trainer_gateway(self.t);
            for (&req_id, &(_, cid)) in gets {
                out.send(gateway, Msg::Ipfs(IpfsWire::Get { cid, req_id }));
            }
        }
        let uploading = matches!(self.round.stage, Stage::Uploading { .. });
        if uploading || !self.round.pending_gets.is_empty() {
            self.arm_retry(out);
        }
    }

    fn on_put_ack(&mut self, out: &mut Actions<Msg>, cid: Cid, req_id: u64) {
        let Stage::Uploading { acks, batch } = &mut self.round.stage else {
            return;
        };
        // The blob goes with its entry: the ack is the last thing that
        // reads it. Registration reads the commitment, the next round's
        // `Unpin` the CID.
        let Some((partition, _)) = acks.remove(&req_id) else {
            return;
        };
        // A storage acknowledgment whose partition has no storage route is
        // a misrouted or duplicated frame from the backend — per-node
        // request ids are small integers, so a frame delivered to the
        // wrong node can collide with a live id here
        // ([`IplsError::MisroutedAck`](crate::IplsError)). Book and drop
        // it rather than killing the node.
        let Ok(target) = self.topo.upload_target(partition, self.t) else {
            out.incr(labels::MISROUTED_ACK, 1);
            return;
        };
        self.uploads.push((target, cid));
        let compact = self.topo.config().compact_registration;
        if compact {
            // Accumulate; one batched registration goes out with the last
            // acknowledgment (§VI directory-load reduction).
            let commitment = self.round.commitments.get(partition).map(|c| c.to_bytes());
            batch.push((partition, cid, commitment));
        }
        let last = acks.is_empty().then(|| std::mem::take(batch));
        if !compact {
            self.register(out, partition, cid);
        }
        let Some(entries) = last else {
            return;
        };
        if compact {
            let message = batch_registration_message(self.t, self.round.iter, &entries);
            let signature = self
                .signing_key
                .as_ref()
                .map(|key| key.sign(&message).to_bytes());
            let msg = Msg::RegisterGradientBatch {
                trainer: self.t,
                iter: self.round.iter,
                entries,
                signature,
            };
            out.send(self.topo.directory(), msg);
        }
        // Upload delay = last store acknowledgment − upload start (§V).
        out.record(labels::UPLOAD_DONE, self.round.iter as f64);
        self.await_updates(out);
    }

    fn start_polling(&mut self, out: &mut Actions<Msg>) {
        if !self.polling {
            self.polling = true;
            out.set_timer(self.topo.config().poll_interval, TK_POLL);
        }
    }

    fn poll(&mut self, out: &mut Actions<Msg>) {
        if self.round.is_finished() {
            self.polling = false;
            return;
        }
        let mut outstanding = false;
        for i in 0..self.topo.config().partitions {
            if !self.round.received.contains_key(&i) && !self.round.fetching(i) {
                outstanding = true;
                let msg = Msg::QueryUpdate {
                    partition: i,
                    iter: self.round.iter,
                };
                out.send(self.topo.directory(), msg);
            }
            let check = self.round.check.as_ref();
            if check.is_some_and(|c| !c.accumulators.contains_key(&i))
                && !self.round.received.contains_key(&i)
            {
                outstanding = true;
                let msg = Msg::QueryTotalAccumulator {
                    partition: i,
                    iter: self.round.iter,
                };
                out.send(self.topo.directory(), msg);
            }
        }
        if outstanding || !self.round.pending_gets.is_empty() {
            out.set_timer(self.topo.config().poll_interval, TK_POLL);
        } else {
            self.polling = false;
        }
    }

    fn on_update_info(&mut self, out: &mut Actions<Msg>, partition: usize, cid: Option<Cid>) {
        let Some(cid) = cid else { return };
        if self.round.is_finished()
            || self.round.received.contains_key(&partition)
            || (self.round.check.as_ref()).is_some_and(|c| c.stashed.contains_key(&partition))
            || self.round.fetching(partition)
        {
            return;
        }
        let req_id = self.fresh_req();
        self.round.pending_gets.insert(req_id, (partition, cid));
        if !self.fetched.contains(&cid) {
            self.fetched.push(cid);
        }
        let get = IpfsWire::Get { cid, req_id };
        let gateway = self.topo.trainer_gateway(self.t);
        out.send(gateway, Msg::Ipfs(get));
        self.arm_retry(out);
    }

    /// Validates (and in trainer-verification mode, cryptographically
    /// verifies) a downloaded or pushed update blob, then applies it. The
    /// blob stays the buffer it arrived in wherever it has to wait.
    fn accept_update(&mut self, out: &mut Actions<Msg>, partition: usize, data: Bytes) {
        if self.round.is_finished() || self.round.received.contains_key(&partition) {
            return;
        }
        if let Some(check) = &mut self.round.check {
            let Some(&acc) = check.accumulators.get(&partition) else {
                // Accumulator not known yet; stash and re-check later.
                check.stashed.insert(partition, data);
                return;
            };
            if !check.queue.admit(out, partition, &data, acc) {
                // Never accept an unverified update (the poll loop will
                // re-fetch if a correct one appears).
                out.record(labels::TRAINER_REJECTED_UPDATE, partition as f64);
                return;
            }
        }
        let Some((averaged, _count)) = decode_update(&data) else {
            return; // corrupt update: retry via polling
        };
        if averaged.len() != self.topo.partition_len(partition) {
            return;
        }
        self.round.received.insert(partition, averaged);
        if self.round.received.len() < self.topo.config().partitions {
            return;
        }
        // The round is about to consume the updates: settle the ones taken
        // in on trust. A culprit is rejected exactly as it would have been
        // at arrival — dropped again, so the poll loop re-fetches it.
        let culprits = match &mut self.round.check {
            Some(check) => check.queue.settle(out),
            None => Vec::new(),
        };
        for partition in &culprits {
            out.record(labels::TRAINER_REJECTED_UPDATE, *partition as f64);
            self.round.received.remove(partition);
        }
        if culprits.is_empty() {
            self.finish_round(out);
        }
    }

    fn finish_round(&mut self, out: &mut Actions<Msg>) {
        self.round.stage = Stage::Finished;
        // Rebuild the full model by concatenating updated partitions
        // (Algorithm 1, line 23).
        for (i, values) in self.round.received.drain() {
            let (s, e) = self.topo.partition_range(i);
            self.params[s..e].copy_from_slice(&values);
        }
        let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
        sink.entry(self.t).or_default().clone_from(&self.params);
        out.record(labels::TRAINER_ROUND_DONE, self.round.iter as f64);
        let msg = Msg::TrainerDone {
            trainer: self.t,
            iter: self.round.iter,
        };
        out.send(self.topo.directory(), msg);
        self.polling = false;
    }
}

impl<M: Model> ProtocolCore for Trainer<M> {
    type Msg = Msg;

    fn handle(&mut self, now: SimTime, event: ProtocolEvent<Msg>, out: &mut Actions<Msg>) {
        let msg = match event {
            ProtocolEvent::Message { msg, .. } => msg,
            ProtocolEvent::Timer { token } => {
                // A training timer counts only in `Training` of its own
                // round, a level deadline only in `Forwarding` of its own.
                let armed = self.round.armed(token);
                match (token & !0xFFFF_FFFF, &self.round.stage) {
                    (TK_TRAIN, Stage::Training(_)) if armed => self.upload(now, out),
                    (TK_POLL, _) => self.poll(out),
                    (TK_RETRY, _) => self.on_retry(out, token),
                    (TK_OVERLAY, Stage::Forwarding(_)) if armed => {
                        // Level deadline: forward every partition still
                        // waiting on children, with whatever arrived.
                        for i in 0..self.topo.config().partitions {
                            self.try_forward_overlay(out, i, true);
                        }
                    }
                    _ => {}
                }
                return;
            }
            ProtocolEvent::Start | ProtocolEvent::Fault { .. } => return,
            ProtocolEvent::DeliveryFailure { .. } => {
                out.incr(labels::DELIVERY_FAILED, 1);
                return;
            }
        };
        match msg {
            Msg::StartRound { iter } => self.begin_round(now, out, iter),
            Msg::UpdateInfo {
                partition,
                iter,
                cid,
            } if iter == self.round.iter => {
                self.on_update_info(out, partition, cid);
            }
            Msg::TotalAccumulator {
                partition,
                iter,
                accumulated,
            } if iter == self.round.iter => {
                let total = accumulated.and_then(|b| ProtocolCommitment::from_bytes(&b));
                if let (Some(check), Some(c)) = (&mut self.round.check, total) {
                    check.accumulators.entry(partition).or_insert(c);
                    if let Some(blob) = check.stashed.remove(&partition) {
                        self.accept_update(out, partition, blob);
                    }
                }
            }
            Msg::Ipfs(IpfsWire::PutAck { cid, req_id }) => self.on_put_ack(out, cid, req_id),
            Msg::Ipfs(IpfsWire::GetOk { data, req_id, .. }) => {
                if let Some((partition, _)) = self.round.pending_gets.remove(&req_id) {
                    self.accept_update(out, partition, data);
                }
            }
            Msg::Ipfs(IpfsWire::GetErr { req_id, .. }) => {
                // Allow the poll loop to retry the partition.
                self.round.pending_gets.remove(&req_id);
            }
            Msg::OverlayPartial {
                trainer,
                partition,
                iter,
                data,
                count,
                commitment,
                signature,
            } => {
                let partial = (trainer, data, count, commitment, signature);
                self.on_overlay_partial(out, partition, iter, partial);
            }
            Msg::OverlayUpdate {
                partition,
                iter,
                data,
                signature,
            } if iter == self.round.iter => self.on_overlay_update(out, partition, data, signature),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskConfig;
    use crate::gradient::derive_key;
    use crate::protocol::ProtocolAction;
    use dfl_crypto::quantize::Quantized;
    use dfl_ml::{data, LogisticRegression};

    /// Trainer `t` of a task over a 2-feature, 2-class logistic regression
    /// (6 parameters), with the task's commitment key when it is
    /// verifiable.
    fn trainer(
        cfg: TaskConfig,
        t: usize,
    ) -> (Trainer<LogisticRegression>, Option<Arc<ProtocolKey>>) {
        let model = LogisticRegression::new(2, 2);
        let params = model.params();
        let topo = Arc::new(Topology::new(cfg, params.len()).unwrap());
        let key = (topo.config().verifiable)
            .then(|| Arc::new(derive_key(topo.max_partition_len(), 0, true)));
        let dataset = data::make_blobs(8, 2, 2, 0.5, 1);
        let sink: ParamSink = Arc::new(Mutex::new(HashMap::new()));
        let sgd = SgdConfig::default();
        let trainer = Trainer::new(t, topo, key.clone(), model, params, dataset, sgd, sink);
        (trainer, key)
    }

    fn deliver(trainer: &mut Trainer<LogisticRegression>, msg: Msg) -> Vec<ProtocolAction<Msg>> {
        handle(
            trainer,
            ProtocolEvent::Message {
                from: NodeId(1),
                msg,
            },
        )
    }

    fn handle(
        trainer: &mut Trainer<LogisticRegression>,
        event: ProtocolEvent<Msg>,
    ) -> Vec<ProtocolAction<Msg>> {
        let mut out = Actions::new();
        trainer.handle(SimTime::ZERO, event, &mut out);
        out.drain().collect()
    }

    /// The values recorded under `wanted` among `actions`.
    fn recorded(actions: &[ProtocolAction<Msg>], wanted: &str) -> Vec<f64> {
        let value = |action: &ProtocolAction<Msg>| match action {
            ProtocolAction::Record { label, value } if *label == wanted => Some(*value),
            _ => None,
        };
        actions.iter().filter_map(value).collect()
    }

    /// The `(req_id, data)` of every storage `Put` among `actions`.
    fn puts(actions: &[ProtocolAction<Msg>]) -> Vec<(u64, Bytes)> {
        let put = |action: &ProtocolAction<Msg>| match action {
            ProtocolAction::Send {
                msg: Msg::Ipfs(IpfsWire::Put { data, req_id, .. }),
                ..
            } => Some((*req_id, data.clone())),
            _ => None,
        };
        actions.iter().filter_map(put).collect()
    }

    /// Trainer 0 of a verifiable task of `partitions` partitions after its
    /// training timer fired, the task's key, and the Puts it sent — one
    /// per partition, in partition order.
    fn uploading(
        partitions: usize,
        compact_registration: bool,
    ) -> (
        Trainer<LogisticRegression>,
        Arc<ProtocolKey>,
        Vec<(u64, Bytes)>,
    ) {
        let cfg = TaskConfig {
            trainers: 2,
            partitions,
            verifiable: true,
            compact_registration,
            ..TaskConfig::default()
        };
        let (mut trainer, key) = trainer(cfg, 0);
        deliver(&mut trainer, Msg::StartRound { iter: 0 });
        let actions = handle(&mut trainer, ProtocolEvent::Timer { token: TK_TRAIN });
        let puts = puts(&actions);
        assert_eq!(puts.len(), partitions);
        (trainer, key.unwrap(), puts)
    }

    fn ack(
        trainer: &mut Trainer<LogisticRegression>,
        (req_id, data): &(u64, Bytes),
    ) -> Vec<ProtocolAction<Msg>> {
        let cid = Cid::of(data);
        deliver(
            trainer,
            Msg::Ipfs(IpfsWire::PutAck {
                cid,
                req_id: *req_id,
            }),
        )
    }

    /// A partition's blob is released at its storage acknowledgment, the
    /// last point that reads it; its commitment (registration) and its CID
    /// (the next round's `Unpin`) stay.
    #[test]
    fn an_acknowledged_partition_holds_no_blob_but_keeps_its_commitment_and_cid() {
        let (mut trainer, key, puts) = uploading(2, false);
        let registered = ack(&mut trainer, &puts[0]);
        let (blob0, blob1) = (&puts[0].1, &puts[1].1);
        // This test holds the only reference to the acknowledged blob; the
        // trainer still holds the other, which a retry may re-send.
        assert!(blob0.is_unique(), "partition 0's bytes are released");
        assert!(!blob1.is_unique(), "partition 1 waits for its ack");
        let commitment = commit_blob(&key, blob0).unwrap();
        assert!(trainer.round.commitments[0] == commitment);
        let registration = registered.iter().find_map(|action| match action {
            ProtocolAction::Send {
                msg:
                    Msg::RegisterGradient {
                        partition: 0,
                        cid,
                        commitment,
                        ..
                    },
                ..
            } => Some((*cid, *commitment)),
            _ => None,
        });
        let expected = Some((Cid::of(blob0), Some(commitment.to_bytes())));
        assert_eq!(registration, expected);
        // Acknowledged, then the round moves on: the next round unpins it.
        ack(&mut trainer, &puts[1]);
        assert!(blob1.is_unique());
        let next = deliver(&mut trainer, Msg::StartRound { iter: 1 });
        let unpinned: Vec<Cid> = next
            .iter()
            .filter_map(|action| match action {
                ProtocolAction::Send {
                    msg: Msg::Ipfs(IpfsWire::Unpin { cid, .. }),
                    ..
                } => Some(*cid),
                _ => None,
            })
            .collect();
        assert_eq!(unpinned, [Cid::of(blob0), Cid::of(blob1)]);
    }

    /// At the next `StartRound` a trainer releases each update it fetched,
    /// once, at a gateway that none of its upload `Unpin`s reaches — and
    /// sends no `Release` where one does (Indirect), since that `Unpin`'s
    /// collection takes the cached copies too.
    #[test]
    fn the_next_round_releases_fetched_updates_where_no_unpin_reaches_the_gateway() {
        for (comm, releases) in [
            (CommMode::MergeAndDownload, true),
            (CommMode::Indirect, false),
        ] {
            let cfg = TaskConfig {
                providers_per_aggregator: 1,
                comm,
                ..TaskConfig::default()
            };
            let t = 3;
            let (mut trainer, _) = trainer(cfg, t);
            let gateway = trainer.topo.trainer_gateway(t);
            deliver(&mut trainer, Msg::StartRound { iter: 0 });
            let sent = puts(&handle(
                &mut trainer,
                ProtocolEvent::Timer { token: TK_TRAIN },
            ));
            for put in &sent {
                ack(&mut trainer, put);
            }
            let updates = [Cid::of(b"update 0"), Cid::of(b"update 1")];
            for (partition, cid) in updates.into_iter().enumerate() {
                let info = |cid| Msg::UpdateInfo {
                    partition,
                    iter: 0,
                    cid: Some(cid),
                };
                deliver(&mut trainer, info(cid));
                // A failed Get asked for again is still one cached copy.
                let req_id = trainer.next_req;
                deliver(&mut trainer, Msg::Ipfs(IpfsWire::GetErr { cid, req_id }));
                deliver(&mut trainer, info(cid));
            }

            let storage: Vec<(NodeId, IpfsWire)> =
                deliver(&mut trainer, Msg::StartRound { iter: 1 })
                    .into_iter()
                    .filter_map(|action| match action {
                        ProtocolAction::Send {
                            to,
                            msg: Msg::Ipfs(wire),
                        } => Some((to, wire)),
                        _ => None,
                    })
                    .collect();
            let unpinned: Vec<NodeId> = storage
                .iter()
                .filter(|(_, wire)| matches!(wire, IpfsWire::Unpin { .. }))
                .map(|&(to, _)| to)
                .collect();
            let released: Vec<(NodeId, Cid)> = storage
                .iter()
                .filter_map(|(to, wire)| match wire {
                    IpfsWire::Release { cid } => Some((*to, *cid)),
                    _ => None,
                })
                .collect();
            assert_eq!(unpinned.len(), sent.len(), "{comm:?}");
            assert_eq!(unpinned.contains(&gateway), !releases, "{comm:?}");
            let expected = if releases {
                updates.map(|cid| (gateway, cid)).to_vec()
            } else {
                Vec::new()
            };
            assert_eq!(released, expected, "{comm:?}");
        }
    }

    /// A retry re-sends exactly the partitions still unacknowledged, under
    /// their request ids, byte for byte.
    #[test]
    fn a_retry_resends_exactly_the_unacknowledged_partitions_byte_for_byte() {
        let (mut trainer, _, sent) = uploading(3, false);
        ack(&mut trainer, &sent[1]);
        let token = TK_RETRY;
        let resent = puts(&handle(&mut trainer, ProtocolEvent::Timer { token }));
        assert_eq!(resent, [sent[0].clone(), sent[2].clone()]);
        assert!(sent[1].1.is_unique());
    }

    /// In compact mode the one batched registration, sent with the last
    /// acknowledgment after every blob is released, still carries every
    /// partition's commitment.
    #[test]
    fn a_compact_batch_still_carries_every_commitment() {
        let (mut trainer, key, puts) = uploading(3, true);
        let mut actions = Vec::new();
        for put in [&puts[2], &puts[0], &puts[1]] {
            actions.extend(ack(&mut trainer, put));
        }
        assert!(puts.iter().all(|(_, blob)| blob.is_unique()));
        let batches: Vec<_> = actions
            .iter()
            .filter_map(|action| match action {
                ProtocolAction::Send {
                    msg: Msg::RegisterGradientBatch { entries, .. },
                    ..
                } => Some(entries.clone()),
                _ => None,
            })
            .collect();
        let expected: Vec<_> = [2, 0, 1]
            .into_iter()
            .map(|p| {
                let blob = &puts[p].1;
                let commitment = commit_blob(&key, blob).unwrap().to_bytes();
                (p, Cid::of(blob), Some(commitment))
            })
            .collect();
        assert_eq!(batches, [expected]);
    }

    /// Regression: a storage acknowledgment colliding with a live request
    /// id in a mode with no storage route must be booked
    /// ([`IplsError::MisroutedAck`](crate::IplsError)) and dropped — it
    /// used to kill the node via
    /// `.expect("puts are only acked in storage-backed modes")`.
    #[test]
    fn misrouted_put_ack_is_booked_not_fatal() {
        let cfg = TaskConfig {
            trainers: 2,
            partitions: 1,
            comm: CommMode::Direct,
            ..TaskConfig::default()
        };
        let (mut trainer, _) = trainer(cfg, 0);
        // A frame delivered to the wrong node whose req_id collides with
        // a live one — per-node request ids are small integers.
        trainer.round.stage = Stage::Uploading {
            acks: HashMap::from([(7, (0, Bytes::new()))]),
            batch: Vec::new(),
        };
        let ack = IpfsWire::PutAck {
            cid: Cid::of(b"x"),
            req_id: 7,
        };
        let booked = deliver(&mut trainer, Msg::Ipfs(ack)).into_iter().any(
            |a| matches!(a, ProtocolAction::Incr { label, .. } if label == labels::MISROUTED_ACK),
        );
        assert!(booked, "misrouted ack must increment the counter");
    }

    /// The guard on checking a sum: a trainer consumes each partition's
    /// update on its own, so its check keeps per-entry verdicts. Two
    /// updates whose first elements carry +δ and −δ against honest
    /// accumulators would pass one opening of their sum; both are rejected,
    /// under either policy, and the round does not finish.
    #[test]
    fn updates_altered_in_opposite_directions_are_both_rejected() {
        for batch_verify in [false, true] {
            let cfg = TaskConfig {
                trainers: 2,
                verifiable: true,
                trainer_verifies: true,
                batch_verify,
                ..TaskConfig::default()
            };
            let (mut trainer, key) = trainer(cfg, 0);
            let honest = build_blob(&[0.5, -1.0, 2.0]);
            let accumulated = Some(commit_blob(&key.unwrap(), &honest).unwrap().to_bytes());
            let mut actions = Vec::new();
            for (partition, delta) in [(0, 1 << 20), (1, -(1 << 20))] {
                let mut vector = decode_blob(&honest).unwrap();
                vector[0] = Quantized(vector[0].0 + delta);
                let data = Bytes::from(encode(&vector));
                let cid = Cid::of(&data);
                let (iter, cid_info) = (0, Some(cid));
                deliver(
                    &mut trainer,
                    Msg::TotalAccumulator {
                        partition,
                        iter,
                        accumulated,
                    },
                );
                let asked = deliver(
                    &mut trainer,
                    Msg::UpdateInfo {
                        partition,
                        iter,
                        cid: cid_info,
                    },
                );
                let req_id = asked.iter().find_map(|action| match action {
                    ProtocolAction::Send {
                        msg: Msg::Ipfs(IpfsWire::Get { req_id, .. }),
                        ..
                    } => Some(*req_id),
                    _ => None,
                });
                let reply = IpfsWire::GetOk {
                    cid,
                    data,
                    req_id: req_id.unwrap(),
                };
                actions.extend(deliver(&mut trainer, Msg::Ipfs(reply)));
            }
            let rejected = recorded(&actions, labels::TRAINER_REJECTED_UPDATE);
            assert_eq!(rejected, [0.0, 1.0], "batch_verify = {batch_verify}");
            assert!(recorded(&actions, labels::TRAINER_ROUND_DONE).is_empty());
        }
    }

    /// An overlay node drops a child of another width before its check:
    /// such a blob can open its own commitment (a shorter vector, or one
    /// padded with zeros), and summed with the level it would abandon the
    /// whole partial. The level goes up with the other child.
    #[test]
    fn an_overlay_child_of_another_width_is_rejected_before_the_check() {
        let cfg = TaskConfig {
            trainers: 3,
            partitions: 1,
            verifiable: true,
            overlay_branching: Some(2),
            ..TaskConfig::default()
        };
        let root = OverlayTree::new(cfg.trainers, 2, cfg.seed).root();
        let (mut trainer, key) = trainer(cfg, root);
        let (key, tree) = (key.unwrap(), trainer.topo.overlay().unwrap());
        let children = tree.children(root);
        assert_eq!(children.len(), 2);
        deliver(&mut trainer, Msg::StartRound { iter: 0 });
        handle(&mut trainer, ProtocolEvent::Timer { token: TK_TRAIN });
        let Stage::Forwarding(unsent) = &trainer.round.stage else {
            panic!("the root waits for its children");
        };
        let own = unsent[&0].clone();
        let honest = Bytes::from(build_blob(&[0.5; 6]));
        let narrow = Bytes::from(build_blob(&[0.5; 3]));
        let mut actions = Vec::new();
        for (&child, blob) in children.iter().zip([&honest, &narrow]) {
            let commitment = commit_blob(&key, blob).unwrap();
            assert!(crate::gradient::verify_blob(&key, blob, &commitment));
            actions.extend(deliver(
                &mut trainer,
                Msg::OverlayPartial {
                    trainer: child,
                    partition: 0,
                    iter: 0,
                    data: blob.clone(),
                    count: 1,
                    commitment: commitment.to_bytes(),
                    signature: None,
                },
            ));
        }
        assert_eq!(
            recorded(&actions, labels::OVERLAY_CHILD_REJECTED),
            [children[1] as f64]
        );
        assert!(recorded(&actions, labels::SUM_OVERFLOW).is_empty());
        let sum = [decode_blob(&own).unwrap(), decode_blob(&honest).unwrap()];
        let sum = encode(&crate::gradient::sum_gradients(&sum).unwrap());
        let forwarded = actions.iter().any(|action| {
            matches!(action, ProtocolAction::Send { msg: Msg::OverlayPartial { data, count: 2, .. }, .. } if data[..] == sum[..])
        });
        assert!(forwarded, "the level goes up with the other child");
    }
}
