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
//! partition's blob lives in the stage, or the pending `Put`, that still
//! reads it and is dropped at the last point that does: its storage
//! acknowledgment, its overlay forward, or its direct send. Only its
//! commitment outlives that. Puts and Gets go through the role's storage
//! client (`protocol::StorageRequests`), which re-sends an unanswered one
//! to the next storage node.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};

use bytes::Bytes;

use dfl_ipfs::{Cid, IpfsWire};
use dfl_ml::{local_update_in_place, Dataset, Model, SgdConfig};
use dfl_netsim::{NodeId, SimDuration, SimTime};

use dfl_crypto::quantize::encode;
use dfl_crypto::schnorr::SigningKey;
use dfl_crypto::Pending;

use crate::accountability::{agg_verifying_key, trainer_signing_key};
use crate::config::{CommMode, TaskConfig, Topology};
use crate::gradient::{
    build_blob, decode_blob, decode_partition_blob, decode_update, sum_gradients, verify_sum_timed,
    ProtocolCommitment, ProtocolCurve, ProtocolKey, VerifyQueue,
};
use crate::labels;
use crate::messages::{overlay_partial_commitment, Msg, OverlayPartial, Signed};
use crate::overlay::OverlayTree;
use crate::protocol::{Actions, ProtocolCore, ProtocolEvent, StorageRequests, TK_STORAGE_RETRY};

// The low 32 bits of a training or level-deadline token carry the round it
// was armed in, so a timer left over from an earlier round is told apart
// from the current round's. Storage retries use [`TK_STORAGE_RETRY`].
const TK_TRAIN: u64 = 1 << 32;
const TK_POLL: u64 = 2 << 32;
/// Overlay-mode level deadline.
const TK_OVERLAY: u64 = 4 << 32;

/// What a trainer's storage request is for.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Request {
    /// The `Put` of a partition's gradient blob.
    Upload(usize),
    /// The `Get` of a partition's update.
    Download(usize),
}

/// Shared sink the runner reads trainers' final parameters from after the
/// run ends. A trainer's entry is its global model: the only copy it keeps
/// from one completed round to the next. The entry is made when the
/// trainer's first round completes, from the initial parameters it was
/// built with, and each later round's partitions are written into it. A
/// round start copies it out and releases the lock before training, so
/// trainers never wait on each other's training. `Arc<Mutex<..>>` so
/// socket backends can host each trainer on its own thread; in the
/// single-threaded simulator the lock is free. Every write under the lock
/// is a copy that cannot stop half-way, so a lock poisoned by a panicking
/// thread still guards a valid map and is taken regardless.
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
    /// Flat upload: Puts are outstanding (each pending `Put` holds its
    /// blob until its acknowledgment), and in compact mode the acked
    /// registrations wait for the last ack.
    Uploading(Vec<(usize, Cid, Option<[u8; 33]>)>),
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
    /// is not verifiable. Each is computed on a spare core between
    /// `StartRound` and its first read — registration, the compact batch
    /// or the overlay forward — which waits for it, or computes it if no
    /// spare core has started it. It stays a point until it is sent:
    /// serialising costs a field inversion and parsing back a square root,
    /// and an overlay node combines its own with its children's before
    /// anything goes out.
    commitments: Vec<Pending<ProtocolCommitment>>,
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

    /// Partition `partition`'s commitment, waited for if a spare core is
    /// still computing it.
    fn commitment(&self, partition: usize) -> Option<ProtocolCommitment> {
        self.commitments.get(partition).map(Pending::wait)
    }

    /// `kind`'s timer token for this round.
    fn token(&self, kind: u64) -> u64 {
        kind | (self.iter & 0xFFFF_FFFF)
    }

    /// Whether a tagged `token` was armed in this round.
    fn armed(&self, token: u64) -> bool {
        token & 0xFFFF_FFFF == self.iter & 0xFFFF_FFFF
    }

    fn is_finished(&self) -> bool {
        matches!(self.stage, Stage::Finished)
    }
}

/// The trainer actor. Beside the round it holds only what outlives one:
/// identity, model and data, the initial parameters until its first round
/// completes (its [`ParamSink`] entry holds the global model after), the
/// storage client (with the blocks to unpin or release when the next round
/// starts), the poll-timer flag, and the overlay's buffers for rounds this
/// node has not started yet.
pub struct Trainer<M: Model> {
    t: usize,
    topo: Arc<Topology>,
    key: Option<Arc<ProtocolKey>>,
    model: M,
    dataset: Dataset,
    sgd: SgdConfig,
    /// The parameters the trainer was built with, until its first round
    /// completes and moves them into its `sink` entry.
    initial: Option<Vec<f32>>,
    sink: ParamSink,
    round: Round,
    overlay: Option<Overlay>,
    /// Puts and Gets; what the round stored or fetched is unpinned or
    /// released when the next round starts (ephemeral storage, §VI).
    storage: StorageRequests<Request>,
    /// Registration signing key (authenticated mode).
    signing_key: Option<SigningKey<ProtocolCurve>>,
    polling: bool,
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
            initial: Some(initial_params),
            sink,
            storage: StorageRequests::releasing(),
            signing_key,
            polling: false,
        }
    }

    /// Registers partition `partition`'s hash (and commitment) with the
    /// directory, signed in authenticated mode.
    fn register(&self, out: &mut Actions<Msg>, partition: usize, cid: Cid) {
        let commitment = self.round.commitment(partition).map(|c| c.to_bytes());
        let msg = Msg::RegisterGradient {
            trainer: self.t,
            partition,
            iter: self.round.iter,
            cid,
            commitment,
            signature: None,
        };
        self.send_signed(out, self.topo.directory(), msg);
    }

    /// Sends `msg`, signed in authenticated mode.
    fn send_signed(&self, out: &mut Actions<Msg>, to: NodeId, mut msg: Msg) {
        if let Some(key) = &self.signing_key {
            msg.sign(key);
        }
        out.send(to, msg);
    }

    /// Whether `partition`'s update is being fetched.
    fn fetching(&self, partition: usize) -> bool {
        self.storage
            .pending()
            .any(|&r| r == Request::Download(partition))
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

        // Release last round's gradient blobs and the copies of its
        // updates the storage nodes cached for it: they have served their
        // purpose once the round completed (§VI ephemeral-data lifecycle).
        self.storage.end_round(out, &self.topo);

        // Train now (real computation), charge the virtual compute time,
        // and continue in the TK_TRAIN timer. Training steps a copy of the
        // global model, taken with the sink's lock held only to copy it.
        let seed = self.round_seed();
        let start = match &self.initial {
            Some(initial) => initial.clone(),
            None => self.sink.lock().unwrap_or_else(PoisonError::into_inner)[&self.t].clone(),
        };
        let new_params =
            local_update_in_place(&mut self.model, start, &self.dataset, &self.sgd, seed);

        let mut commit_elements = 0u64;
        let mut blobs = Vec::with_capacity(self.topo.config().partitions);
        for i in 0..self.topo.config().partitions {
            let (s, e) = self.topo.partition_range(i);
            let blob = Bytes::from(build_blob(&new_params[s..e]));
            if let Some(key) = &self.key {
                commit_elements += (e - s + 1) as u64;
                self.round.commitments.push(key.commit_later(blob.clone()));
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
                let replicate = self.topo.config().replication;
                for (i, data) in blobs.into_iter().enumerate() {
                    let Some(to) = self.topo.upload_target(i, self.t) else {
                        continue; // unreachable: both modes upload to storage
                    };
                    let put = |req_id| IpfsWire::Put {
                        data,
                        req_id,
                        replicate,
                    };
                    let purpose = Request::Upload(i);
                    self.storage.send(out, &self.topo, purpose, to, put);
                }
                self.round.stage = Stage::Uploading(Vec::new());
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

        // Validate the children: authentic signature, this partition's
        // width and the range of the child's subtree, then one check that
        // their sum opens the product of their commitments — the level
        // forwards nothing but that sum — naming culprits only if it does
        // not (the batch is empty at leaves and costs nothing).
        let key = &overlay.key;
        let cfg = self.topo.config();
        let width = self.topo.partition_len(partition);
        let mut candidates = Vec::new();
        for partial in buffered {
            let checked = overlay_partial_commitment(cfg, partition, self.round.iter, &partial);
            let (child, blob, count, ..) = partial;
            let decoded = decode_partition_blob(&blob, width, tree.subtree_size(child));
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
        // They stand for at most this node's subtree, so the sum is exact:
        // the composed total is bit-identical to the flat aggregator's sum
        // of the same leaves, independent of tree shape.
        let Some(own_commitment) = self.round.commitment(partition) else {
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
        let Ok(summed) = sum_gradients(&grads) else {
            return; // unreachable: every vector has the partition's width
        };
        let blob = if grads.len() == 1 {
            own_blob // no accepted children: the partial is the own blob verbatim
        } else {
            Bytes::from(encode(&summed))
        };
        let commitment = ProtocolCommitment::accumulate(commits.iter()).into();
        let to = match tree.parent(self.t) {
            Some(p) => self.topo.trainer(p),
            // The root hands the fully composed partial to the
            // partition's (single) aggregator slot.
            None => self.topo.aggregator(self.topo.agg_index(partition, 0)),
        };
        let partial = Msg::OverlayPartial {
            trainer: self.t,
            partition,
            iter: self.round.iter,
            data: blob,
            count,
            commitment,
            signature: None,
        };
        self.send_signed(out, to, partial);
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
        let update = Msg::OverlayUpdate {
            partition,
            iter: self.round.iter,
            data: data.clone(),
            signature,
        };
        if self.topo.config().authenticate {
            let g = self.topo.agg_index(partition, 0);
            if !update.signed_by(&agg_verifying_key(self.topo.config().seed, g)) {
                out.record(labels::OVERLAY_UPDATE_REJECTED, partition as f64);
                return;
            }
        }
        // Relay before applying: the subtree is waiting on this hop.
        for child in overlay.tree.children(self.t) {
            out.send(self.topo.trainer(child), update.clone());
        }
        self.accept_update(out, partition, data);
    }

    /// Partition `partition`'s blob is stored as `cid`. The blob went with
    /// its pending `Put`: the ack is the last thing that reads it.
    /// Registration reads the commitment, the next round's `Unpin` the CID.
    fn on_put_ack(&mut self, out: &mut Actions<Msg>, partition: usize, cid: Cid) {
        let Stage::Uploading(batch) = &mut self.round.stage else {
            return; // the round finished without this ack
        };
        let compact = self.topo.config().compact_registration;
        if compact {
            // Accumulate; one batched registration goes out with the last
            // acknowledgment (§VI directory-load reduction).
            let commitment = self.round.commitments.get(partition);
            let commitment = commitment.map(|c| c.wait().to_bytes());
            batch.push((partition, cid, commitment));
        }
        let uploading = self
            .storage
            .pending()
            .any(|r| matches!(r, Request::Upload(_)));
        let last = (!uploading).then(|| std::mem::take(batch));
        if !compact {
            self.register(out, partition, cid);
        }
        let Some(entries) = last else {
            return;
        };
        if compact {
            let msg = Msg::RegisterGradientBatch {
                trainer: self.t,
                iter: self.round.iter,
                entries,
                signature: None,
            };
            self.send_signed(out, self.topo.directory(), msg);
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
            if !self.round.received.contains_key(&i) && !self.fetching(i) {
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
        let downloading = self
            .storage
            .pending()
            .any(|r| matches!(r, Request::Download(_)));
        if outstanding || downloading {
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
            || self.fetching(partition)
        {
            return;
        }
        let gateway = self.topo.trainer_gateway(self.t);
        let get = |req_id| IpfsWire::Get { cid, req_id };
        let purpose = Request::Download(partition);
        self.storage.send(out, &self.topo, purpose, gateway, get);
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
        // Rebuild the full model by writing the updated partitions into
        // it (Algorithm 1, line 23). The first round to complete moves the
        // initial parameters in.
        let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
        let params = sink
            .entry(self.t)
            .or_insert_with(|| self.initial.take().unwrap_or_default());
        for (i, values) in self.round.received.drain() {
            let (s, e) = self.topo.partition_range(i);
            params[s..e].copy_from_slice(&values);
        }
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
                    (TK_STORAGE_RETRY, _) => {
                        self.storage.retry(out, &self.topo, token & 0xFFFF_FFFF);
                    }
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
            Msg::Ipfs(reply) => match (self.storage.answered(&reply), reply) {
                (Some(Request::Upload(partition)), IpfsWire::PutAck { cid, .. }) => {
                    self.on_put_ack(out, partition, cid);
                }
                (Some(Request::Download(partition)), IpfsWire::GetOk { data, .. }) => {
                    self.accept_update(out, partition, data);
                }
                // A `GetErr` leaves the partition to the poll loop.
                _ => {}
            },
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
    use crate::gradient::{commit_blob, derive_key};
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
        assert!(trainer.round.commitment(0) == Some(commitment));
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

    /// The `(to, req_id, cid)` of every storage `Get` among `actions`.
    fn gets(actions: &[ProtocolAction<Msg>]) -> Vec<(NodeId, u64, Cid)> {
        let get = |action: &ProtocolAction<Msg>| match action {
            ProtocolAction::Send {
                to,
                msg: Msg::Ipfs(IpfsWire::Get { cid, req_id }),
            } => Some((*to, *req_id, *cid)),
            _ => None,
        };
        actions.iter().filter_map(get).collect()
    }

    /// The retry timer of storage request `req_id` fires.
    fn retry(trainer: &mut Trainer<LogisticRegression>, req_id: u64) -> Vec<ProtocolAction<Msg>> {
        let token = TK_STORAGE_RETRY | req_id;
        handle(trainer, ProtocolEvent::Timer { token })
    }

    /// At the next `StartRound` a trainer releases each update it fetched,
    /// once, at every node its `Get` went to that none of its upload
    /// `Unpin`s reaches — and sends no `Release` where one does (the
    /// Indirect gateway), since that `Unpin`'s collection takes the cached
    /// copies too. A `Get` that timed out at the gateway and was answered
    /// by the next storage node is released at both.
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
            let t = 2;
            let (mut trainer, _) = trainer(cfg, t);
            let gateway = trainer.topo.trainer_gateway(t);
            let next = trainer.topo.ipfs_node(3);
            assert_eq!(gateway, trainer.topo.ipfs_node(2));
            deliver(&mut trainer, Msg::StartRound { iter: 0 });
            let sent = puts(&handle(
                &mut trainer,
                ProtocolEvent::Timer { token: TK_TRAIN },
            ));
            for put in &sent {
                ack(&mut trainer, put);
            }
            let info = |partition, cid| Msg::UpdateInfo {
                partition,
                iter: 0,
                cid: Some(cid),
            };
            // A failed Get asked for again is still one cached copy.
            let update0 = Cid::of(b"update 0");
            let asked = gets(&deliver(&mut trainer, info(0, update0)));
            let [(_, req_id, _)] = asked[..] else {
                panic!("one Get: {asked:?}");
            };
            let failed = IpfsWire::GetErr {
                cid: update0,
                req_id,
            };
            deliver(&mut trainer, Msg::Ipfs(failed));
            deliver(&mut trainer, info(0, update0));
            // A Get the gateway leaves unanswered goes to the next node,
            // which serves it.
            let data = Bytes::from_static(b"update 1");
            let update1 = Cid::of(&data);
            let asked = gets(&deliver(&mut trainer, info(1, update1)));
            let [(to, req_id, _)] = asked[..] else {
                panic!("one Get: {asked:?}");
            };
            assert_eq!(to, gateway);
            assert_eq!(
                gets(&retry(&mut trainer, req_id)),
                [(next, req_id, update1)]
            );
            let reply = IpfsWire::GetOk {
                cid: update1,
                data,
                req_id,
            };
            deliver(&mut trainer, Msg::Ipfs(reply));

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
            assert!(!unpinned.contains(&next), "{comm:?}");
            assert_eq!(unpinned.contains(&gateway), !releases, "{comm:?}");
            let mut expected = Vec::new();
            if releases {
                expected.extend([(gateway, update0), (gateway, update1)]);
            }
            expected.push((next, update1));
            assert_eq!(released, expected, "{comm:?}");
        }
    }

    /// A retry re-sends exactly the partitions still unacknowledged, under
    /// their request ids, byte for byte, to the storage node after the one
    /// that did not answer.
    #[test]
    fn a_retry_resends_exactly_the_unacknowledged_partitions_byte_for_byte() {
        let (mut trainer, _, sent) = uploading(3, false);
        ack(&mut trainer, &sent[1]);
        let target = trainer.topo.upload_target(0, 0).unwrap();
        assert_eq!(target, trainer.topo.ipfs_node(0));
        let mut resent = Vec::new();
        for (req_id, _) in &sent {
            for action in retry(&mut trainer, *req_id) {
                if let ProtocolAction::Send {
                    to,
                    msg: Msg::Ipfs(IpfsWire::Put { data, req_id, .. }),
                } = action
                {
                    resent.push((to, req_id, data));
                }
            }
        }
        let next = trainer.topo.ipfs_node(1);
        let expected = [&sent[0], &sent[2]].map(|(req_id, data)| (next, *req_id, data.clone()));
        assert_eq!(resent, expected);
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
    /// id in a mode with no storage route must be dropped — it used to kill
    /// the node via `.expect("puts are only acked in storage-backed
    /// modes")`. A `PutAck` answers only a pending `Put`, so the `Get` it
    /// collides with stays pending.
    #[test]
    fn misrouted_put_ack_is_dropped_not_fatal() {
        let cfg = TaskConfig {
            trainers: 2,
            partitions: 1,
            comm: CommMode::Direct,
            ..TaskConfig::default()
        };
        let (mut trainer, _) = trainer(cfg, 0);
        deliver(&mut trainer, Msg::StartRound { iter: 0 });
        let info = Msg::UpdateInfo {
            partition: 0,
            iter: 0,
            cid: Some(Cid::of(b"update")),
        };
        let asked = gets(&deliver(&mut trainer, info));
        let [(_, req_id, _)] = asked[..] else {
            panic!("one Get: {asked:?}");
        };
        // A frame delivered to the wrong node whose req_id collides with
        // a live one — per-node request ids are small integers.
        let ack = IpfsWire::PutAck {
            cid: Cid::of(b"x"),
            req_id,
        };
        assert!(deliver(&mut trainer, Msg::Ipfs(ack)).is_empty());
        assert!(trainer.fetching(0), "the Get is still pending");
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
            let accumulated = commit_blob(&key.unwrap(), &honest).unwrap();
            let mut actions = Vec::new();
            for (partition, delta) in [(0, 1 << 20), (1, -(1 << 20))] {
                let mut vector = decode_blob(&honest).unwrap();
                vector[0] = Quantized(vector[0].0 + delta);
                let data = Bytes::from(encode(&vector));
                let fetched = download(&mut trainer, partition, data, Some(accumulated));
                actions.extend(fetched.expect("the update is fetched"));
            }
            let rejected = recorded(&actions, labels::TRAINER_REJECTED_UPDATE);
            assert_eq!(rejected, [0.0, 1.0], "batch_verify = {batch_verify}");
            assert!(recorded(&actions, labels::TRAINER_ROUND_DONE).is_empty());
        }
    }

    /// Round 0's update `data` of `partition` reaching `trainer`: the total
    /// accumulator, when given, then the update's CID, then the storage
    /// reply to the `Get` that asks for it. `None` when no `Get` went out.
    fn download(
        trainer: &mut Trainer<LogisticRegression>,
        partition: usize,
        data: Bytes,
        accumulated: Option<ProtocolCommitment>,
    ) -> Option<Vec<ProtocolAction<Msg>>> {
        let (cid, iter) = (Cid::of(&data), 0);
        if let Some(total) = accumulated {
            let accumulated = Some(total.to_bytes());
            let msg = Msg::TotalAccumulator {
                partition,
                iter,
                accumulated,
            };
            deliver(trainer, msg);
        }
        let info = Msg::UpdateInfo {
            partition,
            iter,
            cid: Some(cid),
        };
        let asked = deliver(trainer, info);
        let req_id = asked.iter().find_map(|action| match action {
            ProtocolAction::Send {
                msg: Msg::Ipfs(IpfsWire::Get { req_id, .. }),
                ..
            } => Some(*req_id),
            _ => None,
        })?;
        let reply = IpfsWire::GetOk { cid, data, req_id };
        Some(deliver(trainer, Msg::Ipfs(reply)))
    }

    /// The range rule at the update intake: an update with an element
    /// past the range of the contributions its counter claims is not
    /// applied, though it opens its accumulator where the trainer
    /// verifies. The update intake books no label: the poll loop fetches
    /// again, and without verification the next update in range finishes
    /// the round.
    #[test]
    fn an_update_outside_the_range_of_its_counter_is_not_applied_and_fetched_again() {
        use dfl_crypto::quantize::BOUND;
        for trainer_verifies in [false, true] {
            let cfg = TaskConfig {
                trainers: 2,
                partitions: 1,
                verifiable: trainer_verifies,
                trainer_verifies,
                ..TaskConfig::default()
            };
            let (mut trainer, key) = trainer(cfg, 0);
            let opened = |blob: &[u8]| key.as_ref().map(|k| commit_blob(k, blob).unwrap());
            // Two contributions: their counter reads 2.
            let two = |first: i64| {
                let mut vector = decode_blob(&build_blob(&[0.5; 6])).unwrap();
                vector[0] = Quantized(first);
                vector[6] = Quantized(2 << 24);
                Bytes::from(encode(&vector))
            };
            let (past, edge) = (two(2 * BOUND + 1), two(2 * BOUND));
            let case = format!("trainer_verifies = {trainer_verifies}");
            let refused = download(&mut trainer, 0, past.clone(), opened(&past)).unwrap();
            assert!(trainer.round.received.is_empty(), "{case}");
            assert!(
                recorded(&refused, labels::TRAINER_ROUND_DONE).is_empty(),
                "{case}"
            );
            assert!(
                recorded(&refused, labels::TRAINER_REJECTED_UPDATE).is_empty(),
                "{case}"
            );
            // The poll loop fetches again.
            let again = download(&mut trainer, 0, past, None).expect(&case);
            assert!(
                recorded(&again, labels::TRAINER_ROUND_DONE).is_empty(),
                "{case}"
            );
            if !trainer_verifies {
                let done = download(&mut trainer, 0, edge, None).expect(&case);
                assert_eq!(recorded(&done, labels::TRAINER_ROUND_DONE), [0.0]);
            }
        }
    }

    /// The blobs `trainer` trained this round, one per partition.
    fn trained(trainer: &Trainer<LogisticRegression>) -> Vec<Bytes> {
        let Stage::Training(blobs) = &trainer.round.stage else {
            panic!("the round is training");
        };
        blobs.clone()
    }

    /// The blobs the current round trains when it starts from `start`.
    fn trained_from(trainer: &Trainer<LogisticRegression>, start: &[f32]) -> Vec<Bytes> {
        let mut model = LogisticRegression::new(2, 2);
        let seed = trainer.round_seed();
        let updated = dfl_ml::local_update(&mut model, start, &trainer.dataset, &trainer.sgd, seed);
        let partitions = 0..trainer.topo.config().partitions;
        let blob = |i| {
            let (s, e) = trainer.topo.partition_range(i);
            Bytes::from(build_blob(&updated[s..e]))
        };
        partitions.map(blob).collect()
    }

    /// A trainer's one copy of the global model is its sink entry. There is
    /// none before a round completes; the round that completes makes it
    /// from the received partitions; and a round that starts before the
    /// last one's updates arrived trains from the last completed round's
    /// model, not the initial parameters.
    #[test]
    fn the_sink_entry_is_the_global_model_from_the_first_completed_round_on() {
        let cfg = TaskConfig {
            trainers: 2,
            partitions: 2,
            ..TaskConfig::default()
        };
        let (mut trainer, _) = trainer(cfg, 0);
        let initial = trainer.initial.clone().unwrap();
        let entry = |trainer: &Trainer<LogisticRegression>| {
            let sink = trainer.sink.lock().unwrap();
            sink.get(&trainer.t).cloned()
        };
        deliver(&mut trainer, Msg::StartRound { iter: 0 });
        assert_eq!(trained(&trainer), trained_from(&trainer, &initial));
        handle(&mut trainer, ProtocolEvent::Timer { token: TK_TRAIN });
        let updates = [[0.5, -1.0, 2.0], [0.25, 4.0, -0.5]];
        let blob = |i: usize| Bytes::from(build_blob(&updates[i]));
        download(&mut trainer, 0, blob(0), None).expect("partition 0 is fetched");
        assert_eq!(entry(&trainer), None, "no entry before the round completes");
        let done = download(&mut trainer, 1, blob(1), None).expect("partition 1 is fetched");
        assert_eq!(recorded(&done, labels::TRAINER_ROUND_DONE), [0.0]);
        let model = updates.concat();
        assert_eq!(entry(&trainer), Some(model.clone()));
        assert!(trainer.initial.is_none(), "the initial parameters moved");

        // Round 1 gets no updates before round 2 starts: both train from
        // round 0's model.
        for iter in [1, 2] {
            deliver(&mut trainer, Msg::StartRound { iter });
            let blobs = trained(&trainer);
            assert_eq!(blobs, trained_from(&trainer, &model), "round {iter}");
            assert_ne!(blobs, trained_from(&trainer, &initial), "round {iter}");
            assert_eq!(entry(&trainer), Some(model.clone()), "round {iter}");
        }
    }

    /// The root of a three-trainer overlay (b = 2) that was sent each of
    /// its two children's partials, `blobs[k]` from child `k` under its own
    /// commitment: its own blob, the children, and the actions.
    fn root_level(blobs: [&Bytes; 2]) -> (Bytes, Vec<usize>, Vec<ProtocolAction<Msg>>) {
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
        let mut actions = Vec::new();
        for (&child, blob) in children.iter().zip(blobs) {
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
                    commitment: commitment.into(),
                    signature: None,
                },
            ));
        }
        (own, children, actions)
    }

    /// Whether `actions` forward the sum of `own` and `child` as a level
    /// partial of two contributions.
    fn forwards_sum(actions: &[ProtocolAction<Msg>], own: &[u8], child: &[u8]) -> bool {
        let sum = [decode_blob(own).unwrap(), decode_blob(child).unwrap()];
        let sum = encode(&crate::gradient::sum_gradients(&sum).unwrap());
        actions.iter().any(|action| {
            matches!(action, ProtocolAction::Send { msg: Msg::OverlayPartial { data, count: 2, .. }, .. } if data[..] == sum[..])
        })
    }

    /// An overlay node drops a child of another width before its check:
    /// such a blob can open its own commitment (a shorter vector, or one
    /// padded with zeros), and summed with the level it would abandon the
    /// whole partial. The level goes up with the other child.
    #[test]
    fn an_overlay_child_of_another_width_is_rejected_before_the_check() {
        let honest = Bytes::from(build_blob(&[0.5; 6]));
        let narrow = Bytes::from(build_blob(&[0.5; 3]));
        let (own, children, actions) = root_level([&honest, &narrow]);
        assert_eq!(
            recorded(&actions, labels::OVERLAY_CHILD_REJECTED),
            [children[1] as f64]
        );
        assert!(
            forwards_sum(&actions, &own, &honest),
            "the level goes up with the other child"
        );
    }

    /// The same for a child outside the range of its subtree: a leaf's
    /// partial stands for one contribution, so an element past `BOUND` is
    /// refused before the check, though it opens its own commitment.
    #[test]
    fn an_overlay_child_outside_the_range_of_its_subtree_is_rejected_before_the_check() {
        use dfl_crypto::quantize::{Quantized, BOUND};
        let honest = Bytes::from(build_blob(&[0.5; 6]));
        let mut vector = decode_blob(&honest).unwrap();
        vector[0] = Quantized(BOUND + 1);
        let wide = Bytes::from(encode(&vector));
        let (own, children, actions) = root_level([&wide, &honest]);
        assert_eq!(
            recorded(&actions, labels::OVERLAY_CHILD_REJECTED),
            [children[0] as f64]
        );
        assert!(
            forwards_sum(&actions, &own, &honest),
            "the level goes up with the other child"
        );
    }
}
