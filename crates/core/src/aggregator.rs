//! The aggregator actor — the AGGREGATOR procedure of Algorithm 1 plus the
//! verifiable-aggregation modifications of §IV-B.
//!
//! Per round, the aggregator for slot `j` of partition `i`:
//!
//! 1. collects the gradients of its trainer set `T_ij` — directly (original
//!    IPLS), by downloading each blob from storage, or via
//!    merge-and-download requests to its providers (§III-E);
//! 2. sums them into its partial update;
//! 3. with `|A_i| > 1`, uploads the partial, announces its CID on the
//!    partition's pub/sub topic, verifies peers' partials against the
//!    accumulated commitments from the directory, and sums all partials;
//! 4. uploads the globally updated partition and registers it with the
//!    directory (which verifies it against the total accumulated
//!    commitment);
//! 5. if a peer never shows up by the sync deadline (or the earlier
//!    `sync_watchdog`), downloads that peer's trainer gradients itself and
//!    aggregates them on the peer's behalf.
//!
//! Its position in the round is one `Stage` value: `Gather` until its
//! partial is summed (`GRADS_AGGREGATED`), `Sync` while peers' partials
//! are pending, `Done` once the global update is uploaded (`SYNC_DONE`). A
//! partition's only aggregator goes straight from `Gather` to `Done`.
//!
//! With `accountability` on, announcements are Schnorr-signed; a peer
//! partial that fails commitment verification is packaged into a
//! transferable [`Misbehavior`] proof, gossiped on the evidence topic,
//! reported to the directory, and the offending slot is blacklisted and
//! immediately recovered from the trainers' original gradient blobs — so
//! the round completes with the same bits an honest run produces.
//!
//! In overlay mode (§14) the aggregator is only the sink of its
//! partition's tree: one root partial checked in, one update pushed down.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;

use dfl_crypto::quantize::{encode, Quantized};
use dfl_crypto::schnorr::SigningKey;
use dfl_ipfs::{Cid, IpfsWire};
use dfl_netsim::{NodeId, SimTime};

use crate::accountability::{
    self, agg_signing_key, agg_verifying_key, Misbehavior, MisbehaviorKind, EVIDENCE_TOPIC,
};
use crate::adversary::Behavior;
use crate::config::{CommMode, TaskConfig, Topology};
use crate::error::IplsError;
use crate::gradient::{
    build_blob, commit_blob, decode_blob, decode_partition_blob, sum_in_round, verify_blobs_timed,
    ProtocolCommitment, ProtocolCurve, ProtocolKey, VerifyQueue,
};
use crate::labels;
use crate::messages::{
    overlay_partial_commitment, overlay_update_message, signed_by, update_message, Msg,
    OverlayPartial, SyncAnnounce,
};
use crate::overlay::OverlayTree;
use crate::protocol::{Actions, ProtocolCore, ProtocolEvent};

const TK_POLL: u64 = 1 << 32;
const TK_SYNC_DEADLINE: u64 = 2 << 32;
const TK_FETCH: u64 = 3 << 32;
const TK_WATCHDOG: u64 = 4 << 32;

/// What an in-flight storage request is for.
#[derive(Debug)]
enum Request {
    /// Download of one trainer's gradient (own set).
    OwnGradient { trainer: usize },
    /// Merge-and-download result from one provider.
    Merged,
    /// Upload of the partial update blob.
    PutPartial,
    /// Upload of the equivocating second partial (`Behavior::Equivocate`).
    PutAltered,
    /// Upload of the global update blob, registered once stored as the sum
    /// over `contributors` (`None` = every trainer).
    PutGlobal { contributors: Option<Vec<u32>> },
    /// Download of a peer's partial update.
    PeerPartial { j: usize },
    /// Download of a dead peer's trainer gradient (recovery).
    Recovery { j: usize, trainer: usize },
}

/// Where an aggregator is in a round. Every move goes through
/// [`Stage::advance`], which records the label the move stands for.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
enum Stage {
    /// Collecting `T_ij`'s gradients — in overlay mode, waiting for the
    /// root's partial.
    #[default]
    Gather,
    /// Own partial summed; peers' partials pending (`|A_i| > 1` only).
    Sync,
    /// The global update is uploaded — in overlay mode, pushed down.
    Done,
}

impl Stage {
    /// Moves to `next`: leaving `Gather` records `GRADS_AGGREGATED`,
    /// reaching `Done` records `SYNC_DONE`.
    fn advance(&mut self, out: &mut Actions<Msg>, iter: u64, next: Stage) {
        if *self == Stage::Gather {
            out.record(labels::GRADS_AGGREGATED, iter as f64);
        }
        if next == Stage::Done {
            out.record(labels::SYNC_DONE, iter as f64);
        }
        *self = next;
    }
}

/// What a blob admitted to the round's [`VerifyQueue`] was — that is, what
/// to take back out of the round if it does not open its commitment.
#[derive(Copy, Clone)]
enum Admitted {
    /// One trainer's gradient, fetched individually.
    Gradient(usize),
    /// The merged reply to this merge request.
    Merge(u64),
}

/// The vectors a partial is the sum of, borrowed from the round, and the
/// trainers they cover.
type Gathered<'a> = (Vec<&'a [Quantized]>, Vec<usize>);

/// The `(trainer, cid)` pairs one merge request asks a storage node to sum.
type Members = Vec<(usize, Cid)>;

/// Merge-and-download bookkeeping (§III-E); exists in that mode only.
#[derive(Default)]
struct Merging {
    /// The round's merge requests went out.
    sent: bool,
    /// Unanswered merge requests: req → the `(trainer, cid)` members asked
    /// for, kept so a failed merge can degrade to plain per-CID fetches.
    requests: HashMap<u64, Members>,
    /// Merged blobs received so far: req → the sum (`None` once the
    /// partial has summed it) and the members in it.
    merged: HashMap<u64, (Option<Vec<Quantized>>, Members)>,
    /// Trainers being fetched individually after their merge failed.
    fallback_pending: HashSet<usize>,
}

/// Synchronisation with the partition's other aggregators (§IV-B) and
/// recovery of their trainer sets (§III-D); exists only with `|A_i| > 1`.
#[derive(Default)]
struct PeerSync {
    /// Partials by slot index (mine included once computed), each with the
    /// contributor set (global trainer indices) behind it — peer-claimed.
    /// The vector is `None` once the global update has summed it.
    partials: HashMap<usize, (Option<Vec<Quantized>>, Vec<usize>)>,
    /// Peer announcements whose partials are not yet verified: j → announce
    /// (kept afterwards as evidence material).
    announced: HashMap<usize, SyncAnnounce>,
    /// Peer partial blobs fetched but not yet verified (waiting for the
    /// accumulated commitments): j → blob.
    unverified: HashMap<usize, Bytes>,
    /// Accumulated commitment per slot from the directory.
    accumulators: Vec<Option<ProtocolCommitment>>,
    /// Individual registered commitments by global trainer index (for
    /// degraded-quorum verification and recovered-gradient checks).
    commitments_seen: HashMap<usize, ProtocolCommitment>,
    /// Recovery bookkeeping: slot → trainers still to fetch.
    recovery_pending: HashMap<usize, HashSet<usize>>,
    /// Recovery gradients collected: slot → trainer → vector.
    recovery_grads: HashMap<usize, HashMap<usize, Vec<Quantized>>>,
    /// Gossiped evidence that could not be re-verified yet (accumulators
    /// still unknown).
    pending_evidence: Vec<Misbehavior>,
    /// `Behavior::Equivocate`: CIDs of the two uploaded partial variants.
    equiv_honest: Option<Cid>,
    equiv_altered: Option<Cid>,
}

/// One round of the flat AGGREGATOR procedure: built when `StartRound`
/// arrives, dropped when the next one does. Everything but the stage and
/// the summed vectors outlives `Gather`: a straggler admitted after
/// aggregation, or a peer's late partial, is still fetched and checked.
#[derive(Default)]
struct Round {
    iter: u64,
    stage: Stage,
    /// Registered gradient CIDs (and commitments) for my trainer set.
    registered: HashMap<usize, (Cid, Option<ProtocolCommitment>)>,
    /// Downloaded/received gradients by trainer: the vector until the
    /// partial sums it, `None` after. A straggler taken in after the sum
    /// is checked and booked but never summed, so it keeps no vector.
    gradients: HashMap<usize, Option<Vec<Quantized>>>,
    /// Trainers whose download is in flight.
    downloading: HashSet<usize>,
    /// Own-set blobs (and merged blobs) taken in, to be settled when
    /// aggregation is about to consume them. Verifiable mode only.
    admitted: Option<VerifyQueue<Admitted>>,
    merge: Option<Merging>,
    sync: Option<PeerSync>,
    /// `FETCH_START` recorded for this round (first own-gradient fetch or
    /// merge RPC — the start of the merge-delay span).
    fetch_started: bool,
    /// The t_sync deadline passed and `min_quorum` authorized completing
    /// the round with the gradients received so far.
    deadline_degraded: bool,
    /// Unanswered storage requests: req → what it is for, its last target
    /// and the wire to re-issue. On timeout the request is re-sent to the
    /// next storage node, which resolves the data wherever a live replica
    /// exists.
    in_flight: HashMap<u64, (Request, NodeId, IpfsWire)>,
    /// The fabricated gradient substituted by `Behavior::ForgeRegistration`
    /// (set once the forgery has been sent for this round).
    forged: Option<Vec<Quantized>>,
}

impl Round {
    fn new(iter: u64, cfg: &TaskConfig, key: Option<&Arc<ProtocolKey>>) -> Round {
        let slots = cfg.aggregators_per_partition;
        Round {
            iter,
            admitted: key.map(|key| VerifyQueue::new(key.clone(), cfg)),
            merge: (cfg.comm == CommMode::MergeAndDownload).then(Merging::default),
            sync: (slots > 1).then(|| PeerSync {
                accumulators: vec![None; slots],
                ..PeerSync::default()
            }),
            ..Round::default()
        }
    }

    /// Takes in trainer `trainer`'s gradient; the vector is kept only while
    /// a partial may still sum it.
    fn take_gradient(&mut self, trainer: usize, vector: Vec<Quantized>) {
        let vector = (self.stage == Stage::Gather).then_some(vector);
        self.gradients.insert(trainer, vector);
    }

    /// Releases the vectors the stage reached has summed — nothing reads
    /// them again (§VI: gradient data is needed only briefly): past
    /// `Gather` the own-set and merged vectors in the partial, at `Done`
    /// the partials in the global update. Who they came from stays:
    /// de-duplication, the quorum and the straggler checks read the keys,
    /// member lists and contributor sets.
    fn release_summed(&mut self) {
        if self.stage == Stage::Gather {
            return;
        }
        self.gradients.values_mut().for_each(|v| *v = None);
        if let Some(merge) = &mut self.merge {
            merge.merged.values_mut().for_each(|(v, _)| *v = None);
        }
        if let (Some(sync), Stage::Done) = (&mut self.sync, self.stage) {
            sync.partials.values_mut().for_each(|(v, _)| *v = None);
        }
    }
}

/// The aggregator actor: the flat AGGREGATOR procedure, or in overlay mode
/// the sink of its partition's tree.
pub struct Aggregator(Role);

enum Role {
    Flat(Box<FlatAggregator>),
    Overlay(OverlaySink),
}

impl Aggregator {
    /// Creates the aggregator for global index `g`.
    pub fn new(
        g: usize,
        topo: Arc<Topology>,
        key: Option<Arc<ProtocolKey>>,
        behavior: Behavior,
    ) -> Aggregator {
        let role = match topo.overlay().zip(key.clone()) {
            Some((tree, key)) => Role::Overlay(OverlaySink {
                g,
                partition: topo.agg_role(g).0,
                topo,
                tree,
                key,
                iter: 0,
                stage: Stage::Gather,
            }),
            None => Role::Flat(Box::new(FlatAggregator::new(g, topo, key, behavior))),
        };
        Aggregator(role)
    }
}

impl ProtocolCore for Aggregator {
    type Msg = Msg;

    fn handle(&mut self, _now: SimTime, event: ProtocolEvent<Msg>, out: &mut Actions<Msg>) {
        match (&mut self.0, event) {
            (_, ProtocolEvent::DeliveryFailure { .. }) => out.incr(labels::DELIVERY_FAILED, 1),
            (Role::Flat(flat), event) => flat.handle(out, event),
            (Role::Overlay(sink), event) => sink.handle(out, event),
        }
    }
}

/// Overlay mode's aggregator: the sink of its partition's tree. A round is
/// one root partial checked and one update pushed down (`Gather → Done`).
/// It holds no gather or sync state, so the flat path's messages reach
/// nothing here.
struct OverlaySink {
    g: usize,
    partition: usize,
    topo: Arc<Topology>,
    tree: OverlayTree,
    /// The key the root's composed opening is checked against.
    key: Arc<ProtocolKey>,
    iter: u64,
    stage: Stage,
}

impl OverlaySink {
    fn handle(&mut self, out: &mut Actions<Msg>, event: ProtocolEvent<Msg>) {
        let msg = match event {
            ProtocolEvent::Message { msg, .. } => msg,
            // Evidence gossip is subscribed to as in flat mode; a
            // partition's only aggregator has no peer to blacklist.
            ProtocolEvent::Start if self.topo.config().accountability => {
                let topic = EVIDENCE_TOPIC.to_string();
                let gateway = self.topo.aggregator_gateway(self.g);
                out.send(gateway, Msg::Ipfs(IpfsWire::Subscribe { topic }));
                return;
            }
            _ => return,
        };
        match msg {
            Msg::StartRound { iter } => (self.iter, self.stage) = (iter, Stage::Gather),
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
                self.on_partial(out, partition, iter, &partial);
            }
            _ => {}
        }
    }

    /// The tree root delivered the fully composed partial for this
    /// partition. Verify the composed Pedersen opening (and the root's
    /// signature), then push the final update back down the tree.
    ///
    /// The root's blob bytes are reused **verbatim** as the update payload:
    /// they already encode the exact i128 sum the flat path would compute
    /// over the same leaves, so flat and overlay rounds produce
    /// bit-identical models.
    fn on_partial(
        &mut self,
        out: &mut Actions<Msg>,
        partition: usize,
        iter: u64,
        partial: &OverlayPartial,
    ) {
        let (trainer, data) = (partial.0, &partial.1);
        // Every message processed in overlay mode is booked: per-node
        // event counts of this label are the overlay tests' per-aggregator
        // work measurement (bounded by partitions, not by trainers).
        out.record(labels::OVERLAY_AGG_MSG, iter as f64);
        if iter != self.iter || self.stage == Stage::Done {
            return;
        }
        // Only the tree root speaks for the swarm, and only for my
        // partition.
        if partition != self.partition || trainer != self.tree.root() {
            out.record(labels::OVERLAY_PARTIAL_REJECTED, trainer as f64);
            return;
        }
        let cfg = self.topo.config();
        let checked = overlay_partial_commitment(cfg, partition, iter, partial);
        let opens = |point| verify_blobs_timed(out, &self.key, &[(data, &point)]).is_empty();
        if !checked.is_some_and(opens) {
            out.record(labels::OVERLAY_PARTIAL_REJECTED, trainer as f64);
            return;
        }
        self.stage.advance(out, iter, Stage::Done);
        let signature = cfg.authenticate.then(|| {
            let msg = overlay_update_message(self.g, partition, iter, &Cid::of(data));
            agg_signing_key(cfg.seed, self.g).sign(&msg).to_bytes()
        });
        let update = Msg::OverlayUpdate {
            partition,
            iter,
            data: data.clone(),
            signature,
        };
        out.send(self.topo.trainer(self.tree.root()), update);
        out.record(labels::OVERLAY_UPDATE_PUSHED, iter as f64);
    }
}

/// The flat aggregator. Beside the round it holds only what outlives one:
/// identity and keys, the verdicts on its peers, the blocks to unpin when
/// the next round starts, the poll-timer flag and the request counter.
struct FlatAggregator {
    g: usize,
    partition: usize,
    j: usize,
    topo: Arc<Topology>,
    key: Option<Arc<ProtocolKey>>,
    behavior: Behavior,
    /// Trainers in `T_ij`.
    expected: Vec<usize>,
    round: Round,
    /// Partition slots proven or suspected Byzantine; persists across
    /// rounds: their announces are ignored and their trainer sets
    /// proactively recovered at round start.
    blacklist: HashSet<usize>,
    /// `(offender global index, iter)` pairs already reported, so one
    /// detection produces one evidence record.
    accused: HashSet<(usize, u64)>,
    /// Schnorr identity key (accountability mode).
    signing_key: Option<SigningKey<ProtocolCurve>>,
    /// Blocks this aggregator uploaded in the current round, released at
    /// the next round (§VI ephemeral-data lifecycle).
    uploads: Vec<(NodeId, Cid)>,
    polling: bool,
    next_req: u64,
}

impl FlatAggregator {
    fn new(
        g: usize,
        topo: Arc<Topology>,
        key: Option<Arc<ProtocolKey>>,
        behavior: Behavior,
    ) -> FlatAggregator {
        let (partition, j) = topo.agg_role(g);
        let signing_key = topo
            .config()
            .accountability
            .then(|| agg_signing_key(topo.config().seed, g));
        FlatAggregator {
            g,
            partition,
            j,
            expected: topo.trainer_set(partition, j),
            round: Round::new(0, topo.config(), key.as_ref()),
            topo,
            key,
            behavior,
            blacklist: HashSet::new(),
            accused: HashSet::new(),
            signing_key,
            uploads: Vec::new(),
            polling: false,
            next_req: 0,
        }
    }

    fn gateway(&self) -> NodeId {
        self.topo.aggregator_gateway(self.g)
    }

    fn accountability(&self) -> bool {
        self.topo.config().accountability
    }

    /// Decodes a blob for this aggregator's partition. Every blob it takes
    /// in — a gradient, a merged sum, a peer partial, a recovered gradient
    /// — comes through here, so one of another width is refused like one
    /// that does not decode, and never reaches a sum.
    fn decode_own(&self, data: &[u8]) -> Option<Vec<Quantized>> {
        decode_partition_blob(data, self.topo.partition_len(self.partition))
    }

    /// Sends a storage request that must survive a dead target: if no reply
    /// arrives within `fetch_timeout`, the same request (same id) is
    /// re-issued to the next storage node, round-robin, until the round
    /// ends or a reply lands. Late replies from earlier targets find
    /// `in_flight` empty and are dropped.
    fn request(
        &mut self,
        out: &mut Actions<Msg>,
        purpose: Request,
        to: NodeId,
        wire: impl FnOnce(u64) -> IpfsWire,
    ) -> u64 {
        self.next_req += 1;
        let req = self.next_req;
        self.round.in_flight.insert(req, (purpose, to, wire(req)));
        self.send_in_flight(out, req);
        req
    }

    fn send_in_flight(&mut self, out: &mut Actions<Msg>, req: u64) {
        let Some((_, to, wire)) = self.round.in_flight.get(&req) else {
            return; // answered (or the round moved on) meanwhile
        };
        let token = TK_FETCH | (req & 0xFFFF_FFFF);
        out.set_timer(self.topo.config().fetch_timeout, token);
        out.send(*to, Msg::Ipfs(wire.clone()));
    }

    fn on_fetch_retry(&mut self, out: &mut Actions<Msg>, req: u64) {
        if let Some((_, target, _)) = self.round.in_flight.get_mut(&req) {
            let ids = self.topo.ipfs_ids();
            let idx = ids.iter().position(|n| n == target).unwrap_or(0);
            *target = ids[(idx + 1) % ids.len()];
        }
        self.send_in_flight(out, req);
    }

    /// The purpose of the request a reply answers, if it is still wanted.
    fn answered(&mut self, req: u64) -> Option<Request> {
        self.round
            .in_flight
            .remove(&req)
            .map(|(purpose, ..)| purpose)
    }

    /// How many of a trainer set of `set_len` must be in before a degraded
    /// round may go on without the rest: the global `min_quorum` budget of
    /// missing trainers, applied to the set.
    fn quorum_threshold(&self, set_len: usize) -> Option<usize> {
        self.topo.config().min_quorum.map(|q| {
            let missing_allowed = self.topo.config().trainers - q;
            set_len.saturating_sub(missing_allowed).max(1)
        })
    }

    /// The one quorum rule: whether `have` gradients of a trainer set of
    /// `set_len` stand for the `needed` ones — all of them, or the quorum
    /// threshold once the deadline has degraded the round.
    fn enough(&self, have: usize, needed: usize, set_len: usize) -> bool {
        have >= needed
            || (self.round.deadline_degraded
                && self.quorum_threshold(set_len).is_some_and(|th| have >= th))
    }

    fn begin_round(&mut self, out: &mut Actions<Msg>, iter: u64) {
        self.round = Round::new(iter, self.topo.config(), self.key.as_ref());

        // Release last round's partial/global update blobs.
        let replicate = self.topo.config().replication;
        for (target, cid) in std::mem::take(&mut self.uploads) {
            let unpin = IpfsWire::Unpin { cid, replicate };
            out.send(target, Msg::Ipfs(unpin));
        }
        // Direct mode receives gradients without polling, but the poll
        // loop also fetches accumulated commitments for peer verification
        // and drives dropout recovery, so it runs in every mode.
        self.start_polling(out);
        // The deadline drives peer recovery (multi-aggregator) and quorum
        // degradation, so it is armed whenever either can trigger.
        let multi = self.round.sync.is_some();
        if multi || self.topo.config().min_quorum.is_some() {
            let token = TK_SYNC_DEADLINE | (iter & 0xFFFF_FFFF);
            out.set_timer(self.topo.config().t_sync, token);
        }
        // Early watchdog: recover unresponsive slots well before t_sync.
        if multi && self.topo.config().comm != CommMode::Direct {
            if let Some(watchdog) = self.topo.config().sync_watchdog {
                out.set_timer(watchdog, TK_WATCHDOG | (iter & 0xFFFF_FFFF));
            }
            // Blacklisted peers will not produce a usable partial: start
            // re-downloading their trainer sets immediately instead of
            // burning watchdog (or deadline) time on them again.
            let mut listed: Vec<usize> = self.blacklist.iter().copied().collect();
            listed.sort_unstable();
            for j in listed {
                self.start_recovery(out, j);
            }
        }
    }

    /// Begins download-all recovery of slot `j`'s trainer set (§III-D):
    /// fetch the members' original gradient blobs from storage and
    /// re-aggregate them on the slot's behalf. Idempotent per round.
    fn start_recovery(&mut self, out: &mut Actions<Msg>, j: usize) {
        let Some(sync) = &mut self.round.sync else {
            return;
        };
        if j == self.j
            || self.topo.config().comm == CommMode::Direct
            || sync.partials.contains_key(&j)
            || sync.recovery_pending.contains_key(&j)
            || sync.recovery_grads.contains_key(&j)
        {
            return;
        }
        out.record(labels::DROPOUT_RECOVERY, j as f64);
        let trainers = self.topo.trainer_set(self.partition, j);
        sync.recovery_pending
            .insert(j, trainers.into_iter().collect());
        sync.recovery_grads.insert(j, HashMap::new());
        self.start_polling(out);
    }

    fn start_polling(&mut self, out: &mut Actions<Msg>) {
        if !self.polling {
            self.polling = true;
            out.set_timer(self.topo.config().poll_interval, TK_POLL);
        }
    }

    fn poll(&mut self, out: &mut Actions<Msg>) {
        // Gradient discovery (lines 28–34 of Algorithm 1).
        let grads_done =
            self.round.stage != Stage::Gather || self.round.registered.len() == self.expected.len();
        if !grads_done && self.topo.config().comm != CommMode::Direct {
            let msg = Msg::QueryGradients {
                partition: self.partition,
                agg_j: self.j,
                iter: self.round.iter,
            };
            out.send(self.topo.directory(), msg);
        }
        self.maybe_send_merges(out);
        if let Some(sync) = &self.round.sync {
            // Accumulated commitments for peer verification (§IV-B).
            if self.key.is_some() && sync.accumulators.iter().any(Option::is_none) {
                let msg = Msg::QueryAccumulators {
                    partition: self.partition,
                    iter: self.round.iter,
                };
                out.send(self.topo.directory(), msg);
            }
            // Recovery gradient discovery; degraded-quorum verification
            // also needs peer slots' individual commitments, which ride on
            // the same gradient lists.
            let mut slots: Vec<usize> = sync.recovery_pending.keys().copied().collect();
            if self.key.is_some() {
                slots.extend(sync.unverified.keys().copied());
            }
            slots.sort_unstable(); // deterministic query order
            slots.dedup();
            for j in slots {
                let msg = Msg::QueryGradients {
                    partition: self.partition,
                    agg_j: j,
                    iter: self.round.iter,
                };
                out.send(self.topo.directory(), msg);
            }
        }
        if self.round.stage == Stage::Done {
            self.polling = false;
        } else {
            out.set_timer(self.topo.config().poll_interval, TK_POLL);
        }
    }

    // -- gradient collection -------------------------------------------------

    fn on_gradient_list(
        &mut self,
        out: &mut Actions<Msg>,
        iter: u64,
        entries: Vec<(usize, Cid, Option<[u8; 33]>)>,
    ) {
        if iter != self.round.iter {
            return;
        }
        for (trainer, cid, commitment) in entries {
            let c = commitment.and_then(|b| ProtocolCommitment::from_bytes(&b));
            if let (Some(sync), Some(c)) = (&mut self.round.sync, c) {
                sync.commitments_seen.insert(trainer, c);
            }
            let slot = trainer % self.topo.config().aggregators_per_partition;
            if slot == self.j {
                if self.round.registered.contains_key(&trainer) {
                    continue;
                }
                self.round.registered.insert(trainer, (cid, c));
                // Without merging every gradient is fetched individually;
                // merge mode only fetches ones whose merge failed.
                let fetch = match &self.round.merge {
                    Some(merge) => merge.fallback_pending.contains(&trainer),
                    None => true,
                };
                if fetch {
                    self.fetch_own_gradient(out, trainer, cid);
                }
                continue;
            }
            let pending = self.round.sync.as_mut();
            let Some(pending) = pending.and_then(|s| s.recovery_pending.get_mut(&slot)) else {
                continue;
            };
            let Ok(provider) = self.topo.upload_target(self.partition, trainer) else {
                continue; // direct mode never starts recovery
            };
            if pending.remove(&trainer) {
                self.get(out, Request::Recovery { j: slot, trainer }, provider, cid);
            }
        }
        // Freshly learned commitments may unblock stashed peer partials
        // and gossiped evidence.
        self.retry_unverified(out);
        // Registration forgery: once the victim's real registration exists
        // (so ours lands last and wins the directory's last-write slot),
        // register a fabricated gradient under the victim's name.
        if self.behavior == Behavior::ForgeRegistration
            && self.round.forged.is_none()
            && self.round.registered.len() == self.expected.len()
        {
            self.send_forged_registration(out);
        }
        self.maybe_send_merges(out);
    }

    /// Merge-and-download (§III-E): once every trainer of `T_ij` has
    /// registered (or a quorum, after the deadline), issue one merge
    /// request per provider.
    fn maybe_send_merges(&mut self, out: &mut Actions<Msg>) {
        let registered = self.round.registered.len();
        let ready = self.enough(registered, self.expected.len(), self.expected.len());
        if ready && self.round.merge.as_ref().is_some_and(|m| !m.sent) {
            self.send_merges(out);
        }
    }

    fn fetch_own_gradient(&mut self, out: &mut Actions<Msg>, trainer: usize, cid: Cid) {
        // Fetch straight from the storage node the trainer uploaded to
        // (bitswap-style direct retrieval from the provider).
        let Ok(provider) = self.topo.upload_target(self.partition, trainer) else {
            return; // direct mode receives gradients over the wire instead
        };
        if self.round.gradients.contains_key(&trainer) || !self.round.downloading.insert(trainer) {
            return; // already here, or already on its way
        }
        self.mark_fetch_start(out);
        self.get(out, Request::OwnGradient { trainer }, provider, cid);
    }

    /// Marks the start of this round's gradient-gathering span (merge
    /// delay = `GRADS_AGGREGATED − FETCH_START`); no-op after the first
    /// fetch of the round.
    fn mark_fetch_start(&mut self, out: &mut Actions<Msg>) {
        if !self.round.fetch_started {
            self.round.fetch_started = true;
            out.record(labels::FETCH_START, self.round.iter as f64);
        }
    }

    fn send_merges(&mut self, out: &mut Actions<Msg>) {
        let Some(merge) = &mut self.round.merge else {
            return;
        };
        merge.sent = true;
        self.mark_fetch_start(out);
        // Group my trainers' gradients by the provider they uploaded to.
        // Under quorum degradation not every trainer has registered;
        // unregistered ones are simply absent from the merge.
        let mut by_provider: HashMap<NodeId, Vec<(usize, Cid)>> = HashMap::new();
        let dropped = self.dropped_trainers();
        for &t in &self.expected {
            if dropped.contains(&t) {
                continue; // malicious: silently omit
            }
            let Some(&(cid, _)) = self.round.registered.get(&t) else {
                continue;
            };
            let Ok(provider) = self.topo.upload_target(self.partition, t) else {
                continue; // merges only exist when storage is in the path
            };
            by_provider.entry(provider).or_default().push((t, cid));
        }
        let mut providers: Vec<NodeId> = by_provider.keys().copied().collect();
        providers.sort_unstable_by_key(|n| n.index());
        for provider in providers {
            // The member lists derive from directory registration state —
            // remote, possibly Byzantine input. A provider with no group
            // is booked and skipped, never a panic.
            let Ok(members) = Self::take_provider_group(&mut by_provider, provider) else {
                out.incr(labels::UNLISTED_PROVIDER, 1);
                continue;
            };
            let cids = members.iter().map(|&(_, cid)| cid).collect();
            let merge = |req_id| IpfsWire::Merge { cids, req_id };
            let req = self.request(out, Request::Merged, provider, merge);
            if let Some(merge) = &mut self.round.merge {
                merge.requests.insert(req, members);
            }
        }
    }

    /// Pops `provider`'s member group out of the grouped registration map.
    ///
    /// # Errors
    ///
    /// [`IplsError::UnlistedProvider`] when the merge grouping names a
    /// provider absent from the member map — registration state reaches
    /// this aggregator through directory messages, so an inconsistent
    /// (or maliciously crafted) list must surface as a typed error.
    fn take_provider_group(
        by_provider: &mut HashMap<NodeId, Vec<(usize, Cid)>>,
        provider: NodeId,
    ) -> Result<Vec<(usize, Cid)>, IplsError> {
        by_provider
            .remove(&provider)
            .ok_or(IplsError::UnlistedProvider {
                provider: provider.index(),
            })
    }

    /// Fabricates a zero-ish gradient for the first trainer of `T_ij`,
    /// registers it under that trainer's name (no valid signature — the
    /// attacker does not hold the trainer's key), and remembers it for
    /// substitution during aggregation.
    fn send_forged_registration(&mut self, out: &mut Actions<Msg>) {
        let victim = self.expected[0];
        // A "lazy but plausible" fabrication: all zeros with counter 1.
        let fake_blob = build_blob(&vec![0.0f32; self.topo.partition_len(self.partition)]);
        let Some(fake) = decode_blob(&fake_blob) else {
            return; // unreachable: a partition holds at least one value
        };
        let commitment = self
            .key
            .as_ref()
            .and_then(|key| commit_blob(key, &fake_blob).ok());
        let commitment = commitment.map(|c| c.to_bytes());
        let msg = Msg::RegisterGradient {
            trainer: victim,
            partition: self.partition,
            iter: self.round.iter,
            cid: Cid::of(&fake_blob),
            commitment,
            signature: None, // cannot be forged without the trainer's key
        };
        out.send(self.topo.directory(), msg);
        self.round.forged = Some(fake);
    }

    /// Trainers this (malicious) aggregator silently drops.
    fn dropped_trainers(&self) -> HashSet<usize> {
        match self.behavior {
            Behavior::DropGradients { count } => {
                self.expected.iter().take(count).copied().collect()
            }
            _ => HashSet::new(),
        }
    }

    fn on_own_gradient(&mut self, out: &mut Actions<Msg>, trainer: usize, data: &Bytes) {
        self.round.downloading.remove(&trainer);
        if let Some(merge) = &mut self.round.merge {
            merge.fallback_pending.remove(&trainer);
        }
        let Some(vector) = self.decode_own(data) else {
            return;
        };
        // In verifiable mode the blob must open the trainer's registered
        // commitment before it is trusted — now, or when the round settles.
        let registered = self.round.registered.get(&trainer).and_then(|(_, c)| *c);
        if let (Some(queue), Some(commitment)) = (&mut self.round.admitted, registered) {
            if !queue.admit(out, Admitted::Gradient(trainer), data, commitment) {
                return; // corrupt gradient; the poll loop will retry
            }
        }
        self.round.take_gradient(trainer, vector);
        self.maybe_aggregate(out);
    }

    /// One storage node answered a merge request: `Some` blob (`MergeOk`)
    /// or `None` (`MergeErr`). A blob that does not decode, or does not
    /// open what it must, is wasted bytes and otherwise no better than no
    /// blob: either way the request degrades to plain per-CID fetches of
    /// its members. Each Get fails over across replicas at the storage
    /// layer, so one unmergeable blob does not force re-merging everything
    /// through the poll loop.
    fn on_merge_reply(&mut self, out: &mut Actions<Msg>, req: u64, reply: Option<Bytes>) {
        let requests = self.round.merge.as_mut().map(|m| &mut m.requests);
        let Some(members) = requests.and_then(|r| r.remove(&req)) else {
            return;
        };
        let vector = reply.and_then(|data| {
            let vector = self
                .decode_own(&data)
                .filter(|_| self.admit_merged(out, req, &members, &data));
            if vector.is_none() {
                out.record(labels::WASTED_BYTES, data.len() as f64);
            }
            vector
        });
        match (vector, &mut self.round.merge) {
            (Some(vector), Some(merge)) => {
                merge.merged.insert(req, (Some(vector), members));
            }
            _ => self.degrade_merge(out, members),
        }
        self.maybe_aggregate(out);
    }

    /// The §IV-B check extended to merge-and-download: a storage node's sum
    /// must open the product of its members' registered commitments (the
    /// directory sent each with the gradient list; with drops in play the
    /// member set is what was requested). Without it a storage node that
    /// returns a wrong sum gets this aggregator's signed update rejected —
    /// and, under accountability, this aggregator evicted.
    fn admit_merged(
        &mut self,
        out: &mut Actions<Msg>,
        req: u64,
        members: &[(usize, Cid)],
        data: &Bytes,
    ) -> bool {
        let registered = |(t, _): &(usize, Cid)| self.round.registered.get(t)?.1;
        let commitments: Option<Vec<ProtocolCommitment>> = members.iter().map(registered).collect();
        match (&mut self.round.admitted, commitments) {
            (Some(queue), Some(commitments)) => {
                let product = ProtocolCommitment::accumulate(&commitments);
                queue.admit(out, Admitted::Merge(req), data, product)
            }
            // Not verifiable — or a member registered no commitment, which
            // `on_own_gradient` lets through as well.
            _ => true,
        }
    }

    /// Replaces one merge by individual fetches of its members.
    fn degrade_merge(&mut self, out: &mut Actions<Msg>, members: Members) {
        out.record(labels::MERGE_FALLBACK, members.len() as f64);
        for (trainer, cid) in members {
            if self.round.gradients.contains_key(&trainer) {
                continue;
            }
            if let Some(merge) = &mut self.round.merge {
                merge.fallback_pending.insert(trainer);
            }
            self.fetch_own_gradient(out, trainer, cid);
        }
    }

    /// Settles what the round admitted on trust and takes every culprit
    /// back out: a gradient leaves `gradients` — the state an arrival-time
    /// rejection leaves (`registered` keeps its entry under both policies)
    /// — and a merged blob degrades to fetches of its members, as a failed
    /// merge does. Returns the number of culprits.
    ///
    /// The partial is all the round makes of these blobs, so the check is
    /// [`VerifyQueue::settle_sum`]: one opening of their sum, and culprits
    /// named only when it fails.
    fn settle_admitted(&mut self, out: &mut Actions<Msg>) -> usize {
        let Some(queue) = &mut self.round.admitted else {
            return 0;
        };
        let culprits = queue.settle_sum(out);
        for culprit in &culprits {
            match *culprit {
                Admitted::Gradient(trainer) => {
                    self.round.gradients.remove(&trainer);
                }
                Admitted::Merge(req) => {
                    let merge = self.round.merge.as_mut();
                    if let Some((vector, members)) = merge.and_then(|m| m.merged.remove(&req)) {
                        let wasted = vector.map_or(0, |v| v.len() * 8);
                        out.record(labels::WASTED_BYTES, wasted as f64);
                        self.degrade_merge(out, members);
                    }
                }
            }
        }
        culprits.len()
    }

    /// Merge mode's input to the partial, once every merge is answered and
    /// every fallback fetch is in: the merged blobs plus the gradients
    /// fetched individually after a failed merge, and who they cover.
    fn gather_merged(&mut self, out: &mut Actions<Msg>) -> Option<Gathered<'_>> {
        let waiting =
            |m: &Merging| !m.sent || !m.requests.is_empty() || !m.fallback_pending.is_empty();
        if self.round.merge.as_ref().is_none_or(waiting) {
            return None;
        }
        // The round boundary: settle the merged blobs and fallback fetches
        // admitted on trust. A convicted gradient simply drops out of the
        // fallback set, exactly as an arrival-time rejection would have
        // kept it out; a convicted merge is fetched member by member first.
        self.settle_admitted(out);
        let merge = self.round.merge.as_ref().filter(|m| !waiting(m))?;
        // The exact i128 sum does not depend on the order of its terms.
        // Nothing is released before the partial is summed.
        let merged = merge.merged.values().map(|(v, _)| v);
        let fallback = self.round.gradients.values();
        let vectors = merged.chain(fallback).filter_map(Option::as_deref);
        let vectors = vectors.collect();
        let merged = merge.merged.values().flat_map(|(_, members)| members);
        let mut contributors: Vec<usize> = merged.map(|&(t, _)| t).collect();
        contributors.extend(self.round.gradients.keys());
        contributors.sort_unstable();
        Some((vectors, contributors))
    }

    /// The other modes' input to the partial: the gradients of `T_ij`
    /// received or fetched one by one, once enough of them are in.
    fn gather_fetched(&mut self, out: &mut Actions<Msg>) -> Option<Gathered<'_>> {
        let dropped = self.dropped_trainers();
        let needed: Vec<usize> = self
            .expected
            .iter()
            .filter(|t| !dropped.contains(t))
            .copied()
            .collect();
        let mut have: Vec<usize> = needed
            .iter()
            .filter(|t| self.round.gradients.contains_key(t))
            .copied()
            .collect();
        // Normally wait for the full set; a deadline-degraded round may
        // proceed once the quorum is in.
        let set_len = self.expected.len();
        if !self.enough(have.len(), needed.len(), set_len) {
            return None;
        }
        // The round boundary: settle what was admitted on trust, then
        // re-check — an evicted culprit may put the set back below quorum,
        // in which case the round waits exactly as it would have had the
        // blob been rejected at arrival.
        if self.settle_admitted(out) > 0 {
            have.retain(|t| self.round.gradients.contains_key(t));
            if !self.enough(have.len(), needed.len(), set_len) {
                return None;
            }
        }
        let own = |t: &usize| self.round.gradients.get(t)?.as_deref();
        let vectors = if self.behavior == Behavior::ForgeRegistration {
            // Substitute the fabricated gradient for the victim's.
            let fake = self.round.forged.as_deref()?;
            let victim = self.expected[0];
            let pick = |t: &usize| if *t == victim { Some(fake) } else { own(t) };
            have.iter().map(pick).collect::<Option<_>>()?
        } else {
            have.iter().map(own).collect::<Option<_>>()?
        };
        Some((vectors, have))
    }

    fn maybe_aggregate(&mut self, out: &mut Actions<Msg>) {
        if self.round.stage != Stage::Gather {
            // Stragglers admitted after aggregation (quorum-degraded
            // rounds) still get their check here, at the same instant the
            // per-blob policy would have verified them.
            self.settle_admitted(out);
            return;
        }
        let iter = self.round.iter;
        let gathered = match self.round.merge {
            Some(_) => self.gather_merged(out),
            None => self.gather_fetched(out),
        };
        let Some((vectors, contributors)) = gathered else {
            return;
        };
        if vectors.is_empty() {
            return;
        }
        let Some(partial) = sum_in_round(out, iter, &vectors) else {
            return;
        };
        let Some(sync) = &mut self.round.sync else {
            // The partition's only aggregator: the partial is the update.
            let contributors = contributors.iter().map(|&t| t as u32).collect();
            self.upload_global(out, contributors, partial);
            return;
        };
        let blob = encode(&partial);
        // A second, poisoned variant of the partial: announced to half the
        // peers in place of the honest one.
        let altered = (self.behavior == Behavior::Equivocate).then(|| {
            let mut altered = partial.clone();
            altered[0] = Quantized(altered[0].0 + (1 << 20));
            encode(&altered)
        });
        sync.partials.insert(self.j, (Some(partial), contributors));
        self.round.stage.advance(out, self.round.iter, Stage::Sync);
        self.round.release_summed();
        // Upload the partial, then announce its hash over pub/sub.
        let gw = self.gateway();
        self.put(out, Request::PutPartial, gw, blob, 1);
        if let Some(altered) = altered {
            self.put(out, Request::PutAltered, gw, altered, 1);
        }
    }

    /// Ranks within `T_ij` of the trainers summed into my partial (the
    /// announce format).
    fn contributor_ranks(&self) -> Vec<u16> {
        let sync = self.round.sync.as_ref();
        let mine = sync.and_then(|s| s.partials.get(&self.j));
        let contributors = mine.map_or(&[][..], |(_, contributors)| contributors);
        let rank = |t| self.expected.iter().position(|e| e == t).map(|r| r as u16);
        contributors.iter().filter_map(rank).collect()
    }

    fn signed_announce(&self, cid: Cid) -> SyncAnnounce {
        // A gradient-dropping attacker *lies* about its contributor set
        // (claims everyone — empty = full claim): admitting the subset
        // would be self-incriminating. The lie is what makes the partial
        // provably bad — it fails the full slot accumulator.
        let contributors = if matches!(self.behavior, Behavior::DropGradients { .. }) {
            Vec::new()
        } else {
            self.contributor_ranks()
        };
        let mut announce = SyncAnnounce {
            partition: self.partition,
            agg_j: self.j,
            iter: self.round.iter,
            cid,
            contributors,
            signature: None,
        };
        if let Some(sk) = &self.signing_key {
            announce.signature = Some(sk.sign(&announce.message()).to_bytes());
        }
        announce
    }

    // -- synchronization (multi-aggregator) ----------------------------------

    fn on_put_ack(&mut self, out: &mut Actions<Msg>, cid: Cid, req_id: u64) {
        match self.answered(req_id) {
            Some(Request::PutPartial) => {
                self.uploads.push((self.gateway(), cid));
                if self.behavior == Behavior::Equivocate {
                    // Withhold the honest topic publish: each peer receives
                    // its own (forged) per-peer announcement instead.
                    if let Some(sync) = &mut self.round.sync {
                        sync.equiv_honest = Some(cid);
                    }
                    self.maybe_equivocate(out);
                    return;
                }
                let announce = self.signed_announce(cid);
                let publish = IpfsWire::Publish {
                    topic: self.topo.sync_topic(self.partition),
                    data: Bytes::from(announce.encode()),
                };
                let gw = self.gateway();
                out.send(gw, Msg::Ipfs(publish));
                self.maybe_finish_sync(out);
            }
            Some(Request::PutAltered) => {
                self.uploads.push((self.gateway(), cid));
                if let Some(sync) = &mut self.round.sync {
                    sync.equiv_altered = Some(cid);
                }
                self.maybe_equivocate(out);
            }
            Some(Request::PutGlobal { contributors }) => {
                self.uploads.push((self.update_home(), cid));
                let (aggregator, partition, iter) = (self.g, self.partition, self.round.iter);
                let signature = self.signing_key.as_ref().map(|sk| {
                    let msg = update_message(aggregator, partition, iter, &cid, &contributors);
                    sk.sign(&msg).to_bytes()
                });
                let msg = Msg::RegisterUpdate {
                    aggregator,
                    partition,
                    iter,
                    cid,
                    contributors,
                    signature,
                };
                out.send(self.topo.directory(), msg);
            }
            _ => {}
        }
    }

    /// `Behavior::Equivocate`: once both partial variants are stored, send
    /// each partition peer a *direct*, validly signed announcement — the
    /// altered CID to every other peer, the honest CID to the rest — so
    /// different peers observe conflicting signed statements.
    fn maybe_equivocate(&mut self, out: &mut Actions<Msg>) {
        let variants = self.round.sync.as_ref();
        let Some((honest, altered)) = variants.and_then(|s| s.equiv_honest.zip(s.equiv_altered))
        else {
            return;
        };
        let slots = self.topo.config().aggregators_per_partition;
        let topic = self.topo.sync_topic(self.partition);
        let me = self.topo.aggregator(self.g);
        let mut send_altered = true; // altered first: 2-slot partitions still see the attack
        for j in 0..slots {
            if j == self.j {
                continue;
            }
            let cid = if send_altered { altered } else { honest };
            send_altered = !send_altered;
            let announce = self.signed_announce(cid);
            let deliver = IpfsWire::Deliver {
                topic: topic.clone(),
                data: Bytes::from(announce.encode()),
                publisher: me,
            };
            let peer = self.topo.aggregator(self.topo.agg_index(self.partition, j));
            out.send(peer, Msg::Ipfs(deliver));
        }
        self.maybe_finish_sync(out);
    }

    fn on_deliver(&mut self, out: &mut Actions<Msg>, topic: &str, data: &[u8]) {
        if topic == EVIDENCE_TOPIC {
            // Gossiped misbehavior evidence (accountability mode).
            if let Some(record) = Misbehavior::decode(data).filter(|_| self.accountability()) {
                self.consider_evidence(out, record);
            }
            return;
        }
        let (Some(ann), Some(sync)) = (SyncAnnounce::decode(data), &self.round.sync) else {
            return;
        };
        if ann.partition != self.partition || ann.iter != self.round.iter || ann.agg_j == self.j {
            return;
        }
        if sync.partials.contains_key(&ann.agg_j)
            || sync.announced.contains_key(&ann.agg_j)
            || self.blacklist.contains(&ann.agg_j)
        {
            return;
        }
        // Accountability mode only acts on *signed* announcements: the
        // signature is what makes a later commitment mismatch attributable.
        if self.accountability() {
            let sender = self.topo.agg_index(self.partition, ann.agg_j);
            let vk = agg_verifying_key(self.topo.config().seed, sender);
            if !signed_by(&vk, &ann.message(), ann.signature) {
                return;
            }
        }
        // Malformed contributor claims (out-of-range or duplicate ranks)
        // can never verify; drop them outright.
        let set_len = self.topo.trainer_set(self.partition, ann.agg_j).len();
        let mut ranks = ann.contributors.clone();
        ranks.sort_unstable();
        ranks.dedup();
        if ranks.len() != ann.contributors.len()
            || ann.contributors.iter().any(|&r| r as usize >= set_len)
        {
            return;
        }
        // A subset claim below the quorum budget is illegitimate even if
        // the blob opens the subset product (a lazy aggregator shrinking
        // its workload): suspect it locally and recover the set instead.
        // With no quorum configured, only full claims are honest.
        if !ann.contributors.is_empty() && ann.contributors.len() < set_len {
            let claimed = ann.contributors.len();
            let below_quorum = self.quorum_threshold(set_len).is_none_or(|th| claimed < th);
            if below_quorum && self.accountability() {
                self.blacklist_peer(out, ann.agg_j);
                return;
            }
        }
        let cid = ann.cid;
        let j = ann.agg_j;
        if let Some(sync) = &mut self.round.sync {
            sync.announced.insert(j, ann);
        }
        // Partials are stored on the announcing peer's gateway; fetch from
        // there directly.
        let peer = self.topo.agg_index(self.partition, j);
        let gateway = self.topo.aggregator_gateway(peer);
        self.get(out, Request::PeerPartial { j }, gateway, cid);
    }

    /// The accumulated commitment slot `j`'s partial must open when it
    /// claims the contributors at `ranks` of its trainer set
    /// ([`accountability::partial_opens`]; a full claim is checked against
    /// the directory's slot accumulator). `None` while the inputs are
    /// still unknown (the poll loop keeps querying).
    fn expected_accumulator(
        &self,
        j: usize,
        ranks: impl ExactSizeIterator<Item = usize>,
    ) -> Option<ProtocolCommitment> {
        let sync = self.round.sync.as_ref()?;
        accountability::partial_opens(
            &self.topo.trainer_set(self.partition, j),
            ranks,
            self.topo.config().min_quorum.is_some(),
            || sync.accumulators.get(j).copied().flatten(),
            |t| sync.commitments_seen.get(&t),
        )
    }

    /// Takes peer partials that just arrived or came out of the stash, in
    /// slot order. Those whose accumulator is known are checked now, as one
    /// batch, and processed in the same order with their verdicts; the
    /// rest go (back) into the stash until the poll loop learns more.
    fn check_peer_partials(&mut self, out: &mut Actions<Msg>, blobs: Vec<(usize, Bytes)>) {
        let mut ready: Vec<(SyncAnnounce, Bytes, ProtocolCommitment)> = Vec::new();
        for (j, blob) in blobs {
            let Some(sync) = &self.round.sync else {
                return;
            };
            if sync.partials.contains_key(&j) || self.blacklist.contains(&j) {
                continue;
            }
            let Some(ann) = sync.announced.get(&j).cloned() else {
                continue;
            };
            let ranks = ann.contributors.iter().map(|&r| r as usize);
            if self.key.is_none() {
                self.accept_peer_partial(out, &ann, &blob);
            } else if let Some(acc) = self.expected_accumulator(j, ranks) {
                ready.push((ann, blob, acc));
            } else if let Some(sync) = &mut self.round.sync {
                sync.unverified.insert(j, blob);
            }
        }
        let Some(key) = self.key.clone() else {
            return;
        };
        let items: Vec<(&[u8], &ProtocolCommitment)> = ready
            .iter()
            .map(|(_, blob, acc)| (&blob[..], acc))
            .collect();
        let culprits = verify_blobs_timed(out, &key, &items);
        for (i, (ann, blob, acc)) in ready.iter().enumerate() {
            if !culprits.contains(&i) {
                self.accept_peer_partial(out, ann, blob);
            } else if self.accountability() {
                // Provably malicious partial: package the transferable
                // evidence and recover the slot immediately. Without
                // accountability it is ignored and the sync deadline
                // triggers recovery.
                self.convict_peer(out, ann, acc, blob);
            }
        }
    }

    fn accept_peer_partial(&mut self, out: &mut Actions<Msg>, ann: &SyncAnnounce, data: &[u8]) {
        let (Some(vector), Some(sync)) = (self.decode_own(data), &mut self.round.sync) else {
            return;
        };
        let j = ann.agg_j;
        sync.announced.remove(&j);
        let set = self.topo.trainer_set(self.partition, j);
        let claimed: Vec<usize> = if ann.contributors.is_empty() {
            set
        } else {
            ann.contributors.iter().map(|&r| set[r as usize]).collect()
        };
        // One arriving after the global update is summed is never summed.
        let vector = (self.round.stage != Stage::Done).then_some(vector);
        sync.partials.insert(j, (vector, claimed));
        self.maybe_finish_sync(out);
    }

    /// Packages the failed verification into a transferable [`Misbehavior`]
    /// record, gossips it on the evidence topic, reports it to the
    /// directory, and blacklists + recovers the slot.
    fn convict_peer(
        &mut self,
        out: &mut Actions<Msg>,
        ann: &SyncAnnounce,
        expected: &ProtocolCommitment,
        blob: &[u8],
    ) {
        let offender = self.topo.agg_index(self.partition, ann.agg_j);
        out.record(labels::WASTED_BYTES, blob.len() as f64);
        self.blacklist_peer(out, ann.agg_j);
        let Some(offender_sig) = ann.signature else {
            return; // unsigned: suspicion only, no transferable proof
        };
        if !self.accused.insert((offender, self.round.iter)) {
            return; // already reported this offender for this round
        }
        out.record(labels::MISBEHAVIOR_DETECTED, offender as f64);
        let mut record = Misbehavior {
            kind: MisbehaviorKind::BadPartial,
            partition: self.partition,
            agg_j: ann.agg_j,
            iter: self.round.iter,
            cid: ann.cid,
            contributors: ann.contributors.iter().map(|&r| r as u32).collect(),
            accumulator: expected.to_bytes(),
            blob: blob.to_vec(),
            offender_sig,
            detector: 0,
            detector_sig: [0u8; 65],
        };
        let Some(sk) = &self.signing_key else {
            return; // unreachable: only accountability mode convicts, and it has keys
        };
        record.sign_as_detector(self.g as u64, sk);
        let bytes = record.encode();
        let publish = IpfsWire::Publish {
            topic: EVIDENCE_TOPIC.to_string(),
            data: Bytes::from(bytes.clone()),
        };
        let gw = self.gateway();
        out.send(gw, Msg::Ipfs(publish));
        let msg = Msg::ReportMisbehavior {
            record: Bytes::from(bytes),
        };
        out.send(self.topo.directory(), msg);
    }

    /// Locally blacklists partition slot `j` and recovers its trainer set.
    /// Blacklisting is local state — no voting; gossiped evidence lets
    /// every peer reach the same verdict independently.
    fn blacklist_peer(&mut self, out: &mut Actions<Msg>, j: usize) {
        if j == self.j {
            return;
        }
        if self.blacklist.insert(j) {
            let global = self.topo.agg_index(self.partition, j);
            out.record(labels::PEER_BLACKLISTED, global as f64);
        }
        if let Some(sync) = &mut self.round.sync {
            sync.announced.remove(&j);
            sync.unverified.remove(&j);
        }
        self.start_recovery(out, j);
    }

    /// Independently re-verifies a gossiped evidence record and blacklists
    /// the offender if the proof holds. Records that cannot be checked yet
    /// (accumulator still unknown) are parked and retried as the round's
    /// commitments arrive.
    fn consider_evidence(&mut self, out: &mut Actions<Msg>, record: Misbehavior) {
        // Only same-partition evidence affects this aggregator's blacklist,
        // and only for the current round's accumulator view.
        if record.partition != self.partition
            || record.detector == self.g as u64
            || record.agg_j == self.j
            || self.blacklist.contains(&record.agg_j)
        {
            return;
        }
        let Some(key) = self.key.clone() else {
            return; // unreachable: accountability requires verifiable mode
        };
        let Some(expected) = self.evidence_expected(&record) else {
            if let Some(sync) = &mut self.round.sync {
                sync.pending_evidence.push(record);
            }
            return;
        };
        let slots = self.topo.config().aggregators_per_partition;
        if record.verify(&key, self.topo.config().seed, slots, &expected) {
            self.blacklist_peer(out, record.agg_j);
        }
    }

    /// Independently derives the accumulated commitment a gossiped evidence
    /// record's claim must be checked against.
    fn evidence_expected(&self, record: &Misbehavior) -> Option<ProtocolCommitment> {
        match record.kind {
            MisbehaviorKind::BadPartial => {
                let ranks = record.contributors.iter().map(|&r| r as usize);
                self.expected_accumulator(record.agg_j, ranks)
            }
            MisbehaviorKind::BadUpdate => {
                let seen = &self.round.sync.as_ref()?.commitments_seen;
                let trainers = self.topo.config().trainers;
                accountability::update_opens(trainers, &record.contributors, |t| seen.get(&t))
            }
        }
    }

    /// Re-runs verification for stashed peer partials and parked evidence
    /// once new commitments or accumulators arrive.
    fn retry_unverified(&mut self, out: &mut Actions<Msg>) {
        let Some(sync) = &mut self.round.sync else {
            return;
        };
        let mut stashed: Vec<(usize, Bytes)> = sync.unverified.drain().collect();
        stashed.sort_unstable_by_key(|(j, _)| *j); // deterministic order
        let parked = std::mem::take(&mut sync.pending_evidence);
        self.check_peer_partials(out, stashed);
        for record in parked {
            self.consider_evidence(out, record);
        }
    }

    fn on_accumulators(&mut self, out: &mut Actions<Msg>, accumulated: Vec<Option<[u8; 33]>>) {
        let Some(sync) = &mut self.round.sync else {
            return;
        };
        for (known, bytes) in sync.accumulators.iter_mut().zip(accumulated) {
            if known.is_none() {
                *known = bytes.and_then(|b| ProtocolCommitment::from_bytes(&b));
            }
        }
        self.retry_unverified(out);
    }

    fn maybe_finish_sync(&mut self, out: &mut Actions<Msg>) {
        let (Some(sync), Stage::Sync) = (&self.round.sync, self.round.stage) else {
            return;
        };
        let iter = self.round.iter;
        let slots = self.topo.config().aggregators_per_partition;
        // A slot is satisfied by a verified peer partial or by recovery.
        let mut vectors: Vec<Cow<'_, [Quantized]>> = Vec::with_capacity(slots);
        let mut contributors: Vec<u32> = Vec::new();
        let mut recovered = false;
        for j in 0..slots {
            if let Some((v, set)) = sync.partials.get(&j) {
                let Some(v) = v else {
                    return; // unreachable: released only once the round is done
                };
                vectors.push(Cow::Borrowed(v));
                contributors.extend(set.iter().map(|&t| t as u32));
            } else if let Some(grads) = sync.recovery_grads.get(&j) {
                // Recovery normally needs the peer's whole trainer set; a
                // deadline-degraded round accepts the per-set quorum.
                let want = self.topo.trainer_set(self.partition, j).len();
                if grads.is_empty() || !self.enough(grads.len(), want, want) {
                    return;
                }
                // The exact i128 sum is order-independent, so the recovered
                // slot reproduces the honest partial bit for bit.
                let held: Vec<&[Quantized]> = grads.values().map(Vec::as_slice).collect();
                let Some(sum) = sum_in_round(out, iter, &held) else {
                    return;
                };
                vectors.push(Cow::Owned(sum));
                contributors.extend(grads.keys().map(|&t| t as u32));
                recovered = true;
            } else {
                return;
            }
        }
        let Some(global) = sum_in_round(out, iter, &vectors) else {
            return;
        };
        if recovered {
            out.record(labels::ROUND_RECOVERED, iter as f64);
        }
        contributors.sort_unstable();
        contributors.dedup();
        self.upload_global(out, contributors, global);
    }

    /// Uploads the partition's global update, to be registered as the sum
    /// over `contributors` once stored: the move to `Done`.
    fn upload_global(
        &mut self,
        out: &mut Actions<Msg>,
        contributors: Vec<u32>,
        mut global: Vec<Quantized>,
    ) {
        let everyone = contributors.len() == self.topo.config().trainers; // the common case
        let contributors = (!everyone).then_some(contributors);
        self.round.stage.advance(out, self.round.iter, Stage::Done);
        self.round.release_summed();
        if self.behavior == Behavior::AlterUpdate {
            // Poison the first element (correctness violation, §III-A).
            global[0] = Quantized(global[0].0 + (1 << 20));
        }
        let replicate = match self.topo.config().comm {
            CommMode::Direct => 1,
            _ => self.topo.config().replication,
        };
        let home = self.update_home();
        let purpose = Request::PutGlobal { contributors };
        self.put(out, purpose, home, encode(&global), replicate);
    }

    /// Where the global update is stored. Even original IPLS writes it
    /// somewhere the trainers can fetch it; direct mode reuses storage for
    /// that leg.
    fn update_home(&self) -> NodeId {
        match self.topo.config().comm {
            CommMode::Direct => self.topo.ipfs_node(self.g % self.topo.config().ipfs_nodes),
            _ => self.gateway(),
        }
    }

    /// Fetches `cid` from `from` as a retryable `Get` tracked under `purpose`.
    fn get(&mut self, out: &mut Actions<Msg>, purpose: Request, from: NodeId, cid: Cid) {
        self.request(out, purpose, from, |req_id| IpfsWire::Get { cid, req_id });
    }

    /// Uploads `blob` to `gw` as a retryable `Put` tracked under `purpose`.
    fn put(
        &mut self,
        out: &mut Actions<Msg>,
        purpose: Request,
        gw: NodeId,
        blob: Vec<u8>,
        replicate: usize,
    ) {
        let data = Bytes::from(blob);
        self.request(out, purpose, gw, |req_id| IpfsWire::Put {
            data,
            req_id,
            replicate,
        });
    }

    // -- dropout recovery ----------------------------------------------------

    fn on_sync_deadline(&mut self, out: &mut Actions<Msg>, iter: u64) {
        if iter != self.round.iter || self.round.stage == Stage::Done {
            return;
        }
        // t_sync is a hard deadline: with `min_quorum` configured, stop
        // waiting for trainers that never delivered and complete the round
        // with what arrived. The FedAvg denominator scales automatically —
        // blobs carry a contribution counter that averaging divides by.
        if self.topo.config().min_quorum.is_some() && !self.round.deadline_degraded {
            self.round.deadline_degraded = true;
            let received = match self.topo.config().comm {
                CommMode::Direct => self.round.gradients.len(),
                _ => self.round.registered.len(),
            };
            let missing = self.expected.len().saturating_sub(received);
            out.record(labels::QUORUM_DEGRADED, missing as f64);
            self.maybe_send_merges(out);
            self.maybe_aggregate(out);
            self.maybe_finish_sync(out);
            if self.round.stage == Stage::Done {
                return;
            }
        }
        if self.topo.config().comm == CommMode::Direct {
            return; // no storage copy to recover from — the §III-B failure
        }
        // Download the missing peers' trainer gradients ourselves ("another
        // aggregator downloads his gradients on his behalf"). A peer still
        // silent at the hard deadline is suspect: in accountability mode it
        // is blacklisted so later rounds recover it proactively instead of
        // waiting out the timeout again (timeout suspicion is local only —
        // silence yields no transferable proof).
        let slots = 0..self.topo.config().aggregators_per_partition;
        let missing: Vec<(usize, bool)> = match &self.round.sync {
            Some(sync) => slots
                .filter(|j| *j != self.j && !sync.partials.contains_key(j))
                .map(|j| (j, sync.announced.contains_key(&j)))
                .collect(),
            None => Vec::new(),
        };
        for (j, announced) in missing {
            if self.accountability() && !announced {
                self.blacklist_peer(out, j);
            } else {
                self.start_recovery(out, j);
            }
        }
        self.start_polling(out);
    }

    /// The early watchdog (`sync_watchdog`): begins recovery of any slot
    /// that has neither announced nor delivered a verifiable partial yet,
    /// well before the hard `t_sync` deadline, so a round with a dead or
    /// convicted aggregator still completes on time. Recovery is safe to
    /// race with a slow-but-honest peer: the recovered sum and the peer's
    /// partial are bit-identical, and whichever lands first is used.
    fn on_watchdog(&mut self, out: &mut Actions<Msg>, iter: u64) {
        let Some(sync) = &self.round.sync else {
            return;
        };
        if iter != self.round.iter || self.round.stage == Stage::Done {
            return;
        }
        // Alive (or mid-verification) slots are left to finish.
        let alive = |j: &usize| {
            sync.partials.contains_key(j)
                || sync.announced.contains_key(j)
                || sync.unverified.contains_key(j)
        };
        let slots = 0..self.topo.config().aggregators_per_partition;
        let silent: Vec<usize> = slots.filter(|j| !alive(j)).collect();
        for j in silent {
            self.start_recovery(out, j);
        }
    }

    fn on_recovery_gradient(
        &mut self,
        out: &mut Actions<Msg>,
        j: usize,
        trainer: usize,
        data: &[u8],
    ) {
        let (Some(vector), Some(sync)) = (self.decode_own(data), &mut self.round.sync) else {
            return;
        };
        // Each recovered blob is checked, on arrival, against the trainer's
        // registered commitment: recovery must reproduce the honest partial
        // exactly, so a corrupt storage copy is refetched rather than
        // summed.
        if let Some(key) = &self.key {
            let registered = sync.commitments_seen.get(&trainer);
            let opens =
                |c: &ProtocolCommitment| verify_blobs_timed(out, key, &[(data, c)]).is_empty();
            if !registered.is_some_and(opens) {
                out.record(labels::WASTED_BYTES, data.len() as f64);
                sync.recovery_pending.entry(j).or_default().insert(trainer);
                self.start_polling(out);
                return;
            }
        }
        if let Some(grads) = sync.recovery_grads.get_mut(&j) {
            grads.insert(trainer, vector);
        }
        self.maybe_finish_sync(out);
    }
}

impl FlatAggregator {
    fn handle(&mut self, out: &mut Actions<Msg>, event: ProtocolEvent<Msg>) {
        match event {
            ProtocolEvent::Start => self.on_start(out),
            ProtocolEvent::Message { msg, .. } => self.on_message(out, msg),
            ProtocolEvent::Timer { token } => self.on_timer(out, token),
            ProtocolEvent::Fault { .. } | ProtocolEvent::DeliveryFailure { .. } => {}
        }
    }

    fn on_start(&mut self, out: &mut Actions<Msg>) {
        // Subscribe once to the partition's sync topic (pub/sub, §IV-B);
        // evidence gossip rides its own topic (accountability mode).
        let sync = self
            .round
            .sync
            .is_some()
            .then(|| self.topo.sync_topic(self.partition));
        let evidence = self.accountability().then(|| EVIDENCE_TOPIC.to_string());
        for topic in sync.into_iter().chain(evidence) {
            out.send(self.gateway(), Msg::Ipfs(IpfsWire::Subscribe { topic }));
        }
    }

    fn on_message(&mut self, out: &mut Actions<Msg>, msg: Msg) {
        match msg {
            Msg::StartRound { iter } => self.begin_round(out, iter),
            Msg::GradientList {
                partition,
                iter,
                entries,
            } if partition == self.partition => {
                self.on_gradient_list(out, iter, entries);
            }
            Msg::Accumulators {
                partition,
                iter,
                accumulated,
            } if partition == self.partition && iter == self.round.iter => {
                self.on_accumulators(out, accumulated);
            }
            Msg::DirectGradient {
                trainer,
                partition,
                iter,
                data,
            } if partition == self.partition && iter == self.round.iter => {
                if self.dropped_trainers().contains(&trainer) {
                    return;
                }
                if let Some(vector) = self.decode_own(&data) {
                    self.round.take_gradient(trainer, vector);
                    self.maybe_aggregate(out);
                }
            }
            Msg::UpdateRejected { .. } => {
                // Our update failed verification (we were malicious or raced
                // a malicious peer). Nothing to do: an honest peer's update
                // will supersede, or the round stalls and the experiment
                // reports the failure.
            }
            Msg::Ipfs(IpfsWire::PutAck { cid, req_id }) => self.on_put_ack(out, cid, req_id),
            Msg::Ipfs(IpfsWire::GetOk { data, req_id, .. }) => match self.answered(req_id) {
                Some(Request::OwnGradient { trainer }) => self.on_own_gradient(out, trainer, &data),
                Some(Request::PeerPartial { j }) => self.check_peer_partials(out, vec![(j, data)]),
                Some(Request::Recovery { j, trainer }) => {
                    self.on_recovery_gradient(out, j, trainer, &data)
                }
                _ => {}
            },
            Msg::Ipfs(IpfsWire::GetErr { req_id, .. }) => {
                // Allow retries through the poll loop.
                match self.answered(req_id) {
                    Some(Request::OwnGradient { trainer }) => {
                        self.round.downloading.remove(&trainer);
                        self.round.registered.remove(&trainer);
                    }
                    Some(Request::Recovery { j, trainer }) => {
                        if let Some(sync) = &mut self.round.sync {
                            sync.recovery_pending.entry(j).or_default().insert(trainer);
                        }
                    }
                    _ => {}
                }
            }
            Msg::Ipfs(IpfsWire::MergeOk { data, req_id }) => {
                if let Some(Request::Merged) = self.answered(req_id) {
                    self.on_merge_reply(out, req_id, Some(data));
                }
            }
            Msg::Ipfs(IpfsWire::MergeErr { req_id, .. }) => {
                if let Some(Request::Merged) = self.answered(req_id) {
                    self.on_merge_reply(out, req_id, None);
                }
            }
            Msg::Ipfs(IpfsWire::Deliver { topic, data, .. }) => {
                self.on_deliver(out, &topic, &data);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, out: &mut Actions<Msg>, token: u64) {
        match token & !0xFFFF_FFFF {
            TK_POLL => self.poll(out),
            TK_SYNC_DEADLINE => self.on_sync_deadline(out, token & 0xFFFF_FFFF),
            TK_FETCH => self.on_fetch_retry(out, token & 0xFFFF_FFFF),
            TK_WATCHDOG => self.on_watchdog(out, token & 0xFFFF_FFFF),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::{derive_key, sum_gradients};
    use crate::protocol::ProtocolAction;

    /// A merge request as sent: its id and the CIDs to sum.
    type MergeRequest = (u64, Vec<Cid>);

    /// A partition-0 aggregator of a one-partition task over 3 parameters
    /// that was sent its round start and the gradient list of one trainer
    /// per blob — each registered under its CID and, when `cfg` is
    /// verifiable, under the commitment of the matching `committed` blob —
    /// and the actions the list produced.
    fn listed(
        cfg: TaskConfig,
        blobs: &[Bytes],
        committed: &[Bytes],
    ) -> (Aggregator, Vec<ProtocolAction<Msg>>) {
        let topo = Arc::new(Topology::new(cfg, 3).unwrap());
        let key = topo
            .config()
            .verifiable
            .then(|| Arc::new(derive_key(topo.max_partition_len(), 0, true)));
        let mut agg = Aggregator::new(0, topo, key.clone(), Behavior::Honest);
        let entries = blobs.iter().zip(committed).enumerate();
        let registered = |(t, (blob, honest)): (usize, (&Bytes, &Bytes))| {
            let commitment = key.as_ref().map(|k| commit_blob(k, honest).unwrap());
            (t, Cid::of(blob), commitment.map(|c| c.to_bytes()))
        };
        let list = Msg::GradientList {
            partition: 0,
            iter: 0,
            entries: entries.map(registered).collect(),
        };
        deliver(&mut agg, Msg::StartRound { iter: 0 });
        let actions = deliver(&mut agg, list);
        (agg, actions)
    }

    /// One blob per trainer: `[t, 0.5, −2]`.
    fn honest_blobs(trainers: usize) -> Vec<Bytes> {
        (0..trainers)
            .map(|t| Bytes::from(build_blob(&[t as f32, 0.5, -2.0])))
            .collect()
    }

    /// A verifiable merge-and-download aggregator that was sent its round
    /// start and the gradient list of four trainers on two providers, the
    /// trainers' blobs, and the merge requests it issued in answer.
    fn merging(batch_verify: bool) -> (Aggregator, Vec<Bytes>, Vec<MergeRequest>) {
        let cfg = TaskConfig {
            partitions: 1,
            comm: CommMode::MergeAndDownload,
            verifiable: true,
            batch_verify,
            ..TaskConfig::default()
        };
        let blobs = honest_blobs(4);
        let (agg, actions) = listed(cfg, &blobs, &blobs);
        (agg, blobs, merges(actions))
    }

    /// The merge requests among `actions`.
    fn merges(actions: Vec<ProtocolAction<Msg>>) -> Vec<MergeRequest> {
        let merge = |action| match action {
            ProtocolAction::Send {
                msg: Msg::Ipfs(IpfsWire::Merge { cids, req_id }),
                ..
            } => Some((req_id, cids)),
            _ => None,
        };
        actions.into_iter().filter_map(merge).collect()
    }

    /// The `(req_id, cid)` of every storage `Get` among `actions`.
    fn gets(actions: &[ProtocolAction<Msg>]) -> Vec<(u64, Cid)> {
        let get = |action: &ProtocolAction<Msg>| match action {
            ProtocolAction::Send {
                msg: Msg::Ipfs(IpfsWire::Get { cid, req_id }),
                ..
            } => Some((*req_id, *cid)),
            _ => None,
        };
        actions.iter().filter_map(get).collect()
    }

    /// Answers each of `gets` with the blob of that CID among `blobs`.
    fn answer(
        agg: &mut Aggregator,
        gets: &[(u64, Cid)],
        blobs: &[Bytes],
    ) -> Vec<ProtocolAction<Msg>> {
        let mut actions = Vec::new();
        for &(req_id, cid) in gets {
            let data = blobs.iter().find(|b| Cid::of(b) == cid).unwrap().clone();
            let reply = IpfsWire::GetOk { cid, data, req_id };
            actions.extend(deliver(agg, Msg::Ipfs(reply)));
        }
        actions
    }

    /// Whether `actions` upload `blob` to storage.
    fn uploads(actions: &[ProtocolAction<Msg>], blob: &[u8]) -> bool {
        let put = |a: &ProtocolAction<Msg>| matches!(a, ProtocolAction::Send { msg: Msg::Ipfs(IpfsWire::Put { data, .. }), .. } if data[..] == *blob);
        actions.iter().any(put)
    }

    /// The encoded exact sum of `blobs`.
    fn encoded_sum(blobs: &[Bytes]) -> Vec<u8> {
        let decoded: Vec<_> = blobs.iter().map(|b| decode_blob(b).unwrap()).collect();
        encode(&sum_gradients(&decoded).unwrap())
    }

    fn deliver(agg: &mut Aggregator, msg: Msg) -> Vec<ProtocolAction<Msg>> {
        let mut out = Actions::new();
        let from = NodeId(0);
        agg.handle(
            SimTime::ZERO,
            ProtocolEvent::Message { from, msg },
            &mut out,
        );
        out.drain().collect()
    }

    /// The storage node's answer to a merge of `cids`: the true sum, or
    /// with `off_by_one` a sum whose first element is one unit too large.
    fn merge_ok(blobs: &[Bytes], (req_id, cids): &MergeRequest, off_by_one: bool) -> Msg {
        let members: Vec<&[u8]> = blobs
            .iter()
            .filter(|b| cids.contains(&Cid::of(b)))
            .map(|b| &b[..])
            .collect();
        let mut data = dfl_ipfs::merge::merge_blobs(&members).unwrap();
        data[0] ^= u8::from(off_by_one);
        Msg::Ipfs(IpfsWire::MergeOk {
            data: Bytes::from(data),
            req_id: *req_id,
        })
    }

    fn recorded(actions: &[ProtocolAction<Msg>], wanted: &str) -> usize {
        let is = |a: &&ProtocolAction<Msg>| matches!(a, ProtocolAction::Record { label, .. } if *label == wanted);
        actions.iter().filter(is).count()
    }

    /// Regression: in verifiable merge-and-download the merged blob went
    /// into the partial unchecked, so a storage node returning a wrong sum
    /// got the honest aggregator's update rejected at the directory (and,
    /// under accountability, the aggregator evicted). It must be refused,
    /// booked as waste, and its members fetched one by one instead.
    #[test]
    fn a_wrong_merged_sum_is_refused_and_its_members_are_fetched_instead() {
        for batch_verify in [false, true] {
            let (mut agg, blobs, merges) = merging(batch_verify);
            assert_eq!(merges.len(), 2, "one merge per provider");
            let mut actions = deliver(&mut agg, merge_ok(&blobs, &merges[0], true));
            actions.extend(deliver(&mut agg, merge_ok(&blobs, &merges[1], false)));
            assert_eq!(recorded(&actions, labels::GRADS_AGGREGATED), 0);
            assert_eq!(recorded(&actions, labels::MERGE_FALLBACK), 1);
            assert_eq!(recorded(&actions, labels::WASTED_BYTES), 1);
            let gets = gets(&actions);
            let fetched: Vec<Cid> = gets.iter().map(|&(_, cid)| cid).collect();
            assert_eq!(fetched, merges[0].1, "batch_verify = {batch_verify}");

            // The members' own blobs complete the round.
            let actions = answer(&mut agg, &gets, &blobs);
            assert_eq!(recorded(&actions, labels::GRADS_AGGREGATED), 1);
            assert!(uploads(&actions, &encoded_sum(&blobs)));
        }
    }

    #[test]
    fn honest_merged_sums_still_aggregate() {
        for batch_verify in [false, true] {
            let (mut agg, blobs, merges) = merging(batch_verify);
            let mut actions = deliver(&mut agg, merge_ok(&blobs, &merges[0], false));
            assert_eq!(recorded(&actions, labels::GRADS_AGGREGATED), 0, "one to go");
            actions.extend(deliver(&mut agg, merge_ok(&blobs, &merges[1], false)));
            assert_eq!(recorded(&actions, labels::GRADS_AGGREGATED), 1);
            assert_eq!(recorded(&actions, labels::MERGE_FALLBACK), 0);
            assert_eq!(recorded(&actions, labels::WASTED_BYTES), 0);
            // One check per merge reply, under either policy.
            assert_eq!(verified(&actions), 2, "batch_verify = {batch_verify}");
        }
    }

    /// Regression: a blob of the wrong width under its registered CID
    /// reached `sum_gradients`' length assertion and panicked the
    /// aggregator. It is refused like a blob that does not decode: nothing
    /// is summed and the round waits.
    #[test]
    fn a_wrong_width_gradient_is_refused_not_summed() {
        let cfg = TaskConfig {
            trainers: 2,
            partitions: 1,
            ..TaskConfig::default()
        };
        let mut blobs = honest_blobs(2);
        blobs[1] = Bytes::from(build_blob(&[1.0; 7]));
        let (mut agg, actions) = listed(cfg, &blobs, &blobs);
        let gets = gets(&actions);
        assert_eq!(gets.len(), 2);
        let actions = answer(&mut agg, &gets, &blobs);
        assert_eq!(recorded(&actions, labels::GRADS_AGGREGATED), 0);
        assert_eq!(recorded(&actions, labels::SUM_OVERFLOW), 0);
    }

    /// The same over the wire: a `DirectGradient` of the wrong width is
    /// dropped, and the trainer's next blob of the right width completes
    /// the round.
    #[test]
    fn a_wrong_width_direct_gradient_is_refused_not_summed() {
        let cfg = TaskConfig {
            trainers: 2,
            partitions: 1,
            comm: CommMode::Direct,
            ..TaskConfig::default()
        };
        let (mut agg, _) = listed(cfg, &[], &[]);
        let blobs = honest_blobs(2);
        let wide = Bytes::from(build_blob(&[1.0; 7]));
        let mut actions = Vec::new();
        for (trainer, data) in [(0, &blobs[0]), (1, &wide), (1, &blobs[1])] {
            let msg = Msg::DirectGradient {
                trainer,
                partition: 0,
                iter: 0,
                data: data.clone(),
            };
            let answered = deliver(&mut agg, msg);
            let aggregated = recorded(&answered, labels::GRADS_AGGREGATED);
            assert_eq!(
                aggregated,
                usize::from(data == &blobs[1]),
                "trainer {trainer}"
            );
            assert_eq!(recorded(&answered, labels::SUM_OVERFLOW), 0);
            actions.extend(answered);
        }
        assert!(uploads(&actions, &encoded_sum(&blobs)));
    }

    /// And from storage: a merged blob of the wrong width is wasted bytes,
    /// like one that does not decode, and its members are fetched one by
    /// one instead.
    #[test]
    fn a_wrong_width_merged_sum_is_refused_and_its_members_are_fetched_instead() {
        let cfg = TaskConfig {
            partitions: 1,
            comm: CommMode::MergeAndDownload,
            ..TaskConfig::default()
        };
        let blobs = honest_blobs(4);
        let (mut agg, actions) = listed(cfg, &blobs, &blobs);
        let merges = merges(actions);
        assert_eq!(merges.len(), 2, "one merge per provider");
        let wide = IpfsWire::MergeOk {
            data: Bytes::from(build_blob(&[1.0; 7])),
            req_id: merges[0].0,
        };
        let mut actions = deliver(&mut agg, Msg::Ipfs(wide));
        actions.extend(deliver(&mut agg, merge_ok(&blobs, &merges[1], false)));
        assert_eq!(recorded(&actions, labels::GRADS_AGGREGATED), 0);
        assert_eq!(recorded(&actions, labels::MERGE_FALLBACK), 1);
        assert_eq!(recorded(&actions, labels::WASTED_BYTES), 1);
        let gets = gets(&actions);
        let fetched: Vec<Cid> = gets.iter().map(|&(_, cid)| cid).collect();
        assert_eq!(fetched, merges[0].1);
        let actions = answer(&mut agg, &gets, &blobs);
        assert_eq!(recorded(&actions, labels::GRADS_AGGREGATED), 1);
        assert!(uploads(&actions, &encoded_sum(&blobs)));
    }

    /// Sum first, culprits on failure: two trainers registered honest
    /// commitments, but the blobs stored under their CIDs carry +δ and −δ
    /// at one coordinate. The settle's one opening of the sum passes — by
    /// binding, the sum is the committed one — and the uploaded partial is
    /// the honest sum byte for byte. Checked one at a time (the per-blob
    /// policy), both blobs are refused and the round waits.
    #[test]
    fn a_compensating_pair_cannot_change_the_partial() {
        let honest = honest_blobs(4);
        let mut stored = honest.clone();
        for (t, delta) in [(1, 1 << 20), (2, -(1 << 20))] {
            let mut vector = decode_blob(&honest[t]).unwrap();
            vector[0] = Quantized(vector[0].0 + delta);
            stored[t] = Bytes::from(encode(&vector));
        }
        let sum = encoded_sum(&honest);
        assert_eq!(encoded_sum(&stored), sum);
        for batch_verify in [true, false] {
            let cfg = TaskConfig {
                partitions: 1,
                verifiable: true,
                batch_verify,
                ..TaskConfig::default()
            };
            let (mut agg, actions) = listed(cfg, &stored, &honest);
            let actions = answer(&mut agg, &gets(&actions), &stored);
            let aggregated = recorded(&actions, labels::GRADS_AGGREGATED);
            assert_eq!(aggregated, usize::from(batch_verify));
            assert_eq!(uploads(&actions, &sum), batch_verify);
        }
    }

    /// The flat aggregator behind `agg`.
    fn flat(agg: &Aggregator) -> &FlatAggregator {
        match &agg.0 {
            Role::Flat(flat) => flat,
            Role::Overlay(_) => panic!("a flat task"),
        }
    }

    /// The own-set and merged vectors `agg`'s round still holds.
    fn held_vectors(agg: &Aggregator) -> usize {
        let round = &flat(agg).round;
        let merged = round.merge.iter().flat_map(|m| m.merged.values());
        let merged = merged.filter(|(v, _)| v.is_some()).count();
        merged + round.gradients.values().flatten().count()
    }

    fn verified(actions: &[ProtocolAction<Msg>]) -> u64 {
        let delta = |action: &ProtocolAction<Msg>| match action {
            ProtocolAction::Incr { label, delta } if *label == labels::BLOBS_VERIFIED => *delta,
            _ => 0,
        };
        actions.iter().map(delta).sum()
    }

    /// Flat fetch, two slots: once the partial is summed the own-set
    /// vectors are gone, the trainers they came from are not, and the
    /// partial uploaded is the exact sum of the set; once the global update
    /// is summed, the partials go the same way.
    #[test]
    fn a_summed_partial_releases_the_fetched_gradients() {
        let cfg = TaskConfig {
            partitions: 1,
            aggregators_per_partition: 2,
            ..TaskConfig::default()
        };
        let blobs = honest_blobs(4);
        let (mut agg, actions) = listed(cfg, &blobs, &blobs);
        let own = gets(&actions);
        assert_eq!(own.len(), 2, "slot 0 fetches trainers 0 and 2");
        let first = answer(&mut agg, &own[..1], &blobs);
        assert_eq!(recorded(&first, labels::GRADS_AGGREGATED), 0);
        assert_eq!(held_vectors(&agg), 1, "held until the partial sums it");
        let actions = answer(&mut agg, &own[1..], &blobs);
        assert_eq!(recorded(&actions, labels::GRADS_AGGREGATED), 1);
        let own_set = [blobs[0].clone(), blobs[2].clone()];
        assert!(uploads(&actions, &encoded_sum(&own_set)));
        assert_eq!(held_vectors(&agg), 0);
        let round = &flat(&agg).round;
        let mut kept: Vec<usize> = round.gradients.keys().copied().collect();
        kept.sort_unstable();
        assert_eq!(kept, [0, 2]);
        let partial = &round.sync.as_ref().unwrap().partials[&0];
        assert_eq!(encode(partial.0.as_ref().unwrap()), encoded_sum(&own_set));
        assert_eq!(partial.1, [0, 2]);

        // Slot 1 announces its partial; once the global update sums the
        // two, neither partial is held, and both contributor sets are.
        let peer = Bytes::from(encoded_sum(&[blobs[1].clone(), blobs[3].clone()]));
        let announce = SyncAnnounce {
            partition: 0,
            agg_j: 1,
            iter: 0,
            cid: Cid::of(&peer),
            contributors: Vec::new(),
            signature: None,
        };
        let deliver_wire = IpfsWire::Deliver {
            topic: flat(&agg).topo.sync_topic(0),
            data: Bytes::from(announce.encode()),
            publisher: NodeId(9),
        };
        let asked = deliver(&mut agg, Msg::Ipfs(deliver_wire));
        let actions = answer(&mut agg, &gets(&asked), &[peer]);
        assert!(uploads(&actions, &encoded_sum(&blobs)));
        let partials = &flat(&agg).round.sync.as_ref().unwrap().partials;
        assert!(partials.values().all(|(v, _)| v.is_none()));
        let mut sets: Vec<&[usize]> = partials.values().map(|(_, set)| &set[..]).collect();
        sets.sort_unstable();
        assert_eq!(sets, [&[0, 2][..], &[1, 3][..]]);
    }

    /// Merge mode: the merged sums are released once summed; their member
    /// lists stay.
    #[test]
    fn a_summed_partial_releases_the_merged_sums() {
        for batch_verify in [false, true] {
            let (mut agg, blobs, merges) = merging(batch_verify);
            let mut actions = deliver(&mut agg, merge_ok(&blobs, &merges[0], false));
            assert_eq!(held_vectors(&agg), 1);
            actions.extend(deliver(&mut agg, merge_ok(&blobs, &merges[1], false)));
            assert_eq!(recorded(&actions, labels::GRADS_AGGREGATED), 1);
            assert!(uploads(&actions, &encoded_sum(&blobs)));
            assert_eq!(held_vectors(&agg), 0, "batch_verify = {batch_verify}");
            let merge = flat(&agg).round.merge.as_ref().unwrap();
            let members = merge.merged.values().map(|(_, m)| m.len()).sum::<usize>();
            assert_eq!(members, 4);
        }
    }

    /// A quorum-degraded round sums what arrived by the deadline and
    /// releases it; a straggler after that is still verified and booked —
    /// a corrupt one is taken back out — but never held.
    #[test]
    fn a_straggler_after_the_sum_is_checked_and_booked_but_not_held() {
        let honest = honest_blobs(4);
        for batch_verify in [false, true] {
            for corrupt in [false, true] {
                let cfg = TaskConfig {
                    partitions: 1,
                    verifiable: true,
                    batch_verify,
                    min_quorum: Some(3),
                    ..TaskConfig::default()
                };
                let mut stored = honest.clone();
                if corrupt {
                    stored[3] = Bytes::from(build_blob(&[9.0, 0.5, -2.0]));
                }
                let (mut agg, actions) = listed(cfg, &stored, &honest);
                let gets = gets(&actions);
                assert_eq!(gets.len(), 4);
                answer(&mut agg, &gets[..3], &stored);
                let mut out = Actions::new();
                let deadline = ProtocolEvent::Timer {
                    token: TK_SYNC_DEADLINE,
                };
                agg.handle(SimTime::ZERO, deadline, &mut out);
                let actions: Vec<_> = out.drain().collect();
                assert_eq!(recorded(&actions, labels::GRADS_AGGREGATED), 1);
                assert!(uploads(&actions, &encoded_sum(&honest[..3])));
                assert_eq!(held_vectors(&agg), 0);

                let late = answer(&mut agg, &gets[3..], &stored);
                let case = format!("batch_verify = {batch_verify}, corrupt = {corrupt}");
                assert_eq!(verified(&late), 1, "{case}");
                assert_eq!(held_vectors(&agg), 0, "{case}");
                let booked = flat(&agg).round.gradients.contains_key(&3);
                assert_eq!(booked, !corrupt, "{case}");
            }
        }
    }

    /// Regression: a merge group naming a provider absent from the member
    /// map surfaces as [`IplsError::UnlistedProvider`] — the member lists
    /// derive from directory (remote, possibly Byzantine) messages, so
    /// this used to panic via `.expect("listed provider")`.
    #[test]
    fn unlisted_provider_is_a_typed_error_not_a_panic() {
        let mut by_provider: HashMap<NodeId, Vec<(usize, Cid)>> = HashMap::new();
        by_provider.insert(NodeId(3), vec![(0, Cid::of(b"g"))]);
        // The listed provider resolves its group exactly once...
        assert!(FlatAggregator::take_provider_group(&mut by_provider, NodeId(3)).is_ok());
        // ...and an unlisted (or doubly listed) provider is an error.
        let err = FlatAggregator::take_provider_group(&mut by_provider, NodeId(3)).unwrap_err();
        assert!(matches!(err, IplsError::UnlistedProvider { provider: 3 }));
        let err = FlatAggregator::take_provider_group(&mut by_provider, NodeId(9)).unwrap_err();
        assert!(matches!(err, IplsError::UnlistedProvider { provider: 9 }));
    }
}
