//! The aggregator actor — the AGGREGATOR procedure of Algorithm 1 plus the
//! verifiable-aggregation modifications of §IV-B.
//!
//! Per round, the aggregator for slot `j` of partition `i`:
//!
//! 1. gathers the gradients of its trainer set `T_ij` — sent to it
//!    (original IPLS), downloaded one blob at a time from storage, or
//!    summed by its providers on merge-and-download requests (§III-E).
//!    Each blob taken in is one entry of the gather, covering the trainers
//!    it stands for, and is checked by the same intake: a culprit is
//!    wasted, and a refused merge is fetched member by member;
//! 2. sums the entries into its partial update once they cover the whole
//!    set — or, after the deadline, `min_quorum`'s share of it — by one
//!    rule in every comm mode;
//! 3. with `|A_i| > 1`, uploads the partial, announces its CID on the
//!    partition's pub/sub topic, verifies peers' partials against the
//!    accumulated commitments from the directory, and sums all partials;
//! 4. uploads the globally updated partition and registers it with the
//!    directory (which verifies it against the total accumulated
//!    commitment);
//! 5. if a peer never shows up by the sync deadline (or the earlier
//!    `sync_watchdog`), runs its own gather for that peer's slot `j`:
//!    fetches and checks `T_ij`'s gradients as it does its own set's, and
//!    uses their sum, complete by the same rule, as the peer's partial
//!    (§III-D).
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
//!
//! Nothing here knows how attacks are made: a misbehaving aggregator is
//! this honest core inside [`crate::adversary`]'s wrapper.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;

use dfl_crypto::quantize::{encode, Quantized};
use dfl_crypto::schnorr::SigningKey;
use dfl_ipfs::{Cid, IpfsWire, WireCost};
use dfl_netsim::{NodeId, SimTime};

use crate::accountability::{
    self, agg_signing_key, agg_verifying_key, Misbehavior, MisbehaviorKind, EVIDENCE_TOPIC,
};
use crate::config::{CommMode, TaskConfig, Topology};
use crate::gradient::{
    decode_partition_blob, sum_gradients, verify_blobs_timed, ProtocolCommitment, ProtocolCurve,
    ProtocolKey, VerifyQueue,
};
use crate::labels;
use crate::messages::{overlay_partial_commitment, Msg, OverlayPartial, Signed, SyncAnnounce};
use crate::overlay::OverlayTree;
use crate::protocol::{Actions, ProtocolCore, ProtocolEvent, StorageRequests, TK_STORAGE_RETRY};
use crate::runner::BoxedCore;

const TK_POLL: u64 = 1 << 32;
const TK_SYNC_DEADLINE: u64 = 2 << 32;
const TK_WATCHDOG: u64 = 4 << 32;

/// What an in-flight storage request is for.
#[derive(Debug)]
enum Request {
    /// Download of one trainer's gradient for slot `j`'s gather.
    Gradient { j: usize, trainer: usize },
    /// Merge-and-download of these trainers' gradients from one provider;
    /// kept so a failed merge can degrade to plain per-CID fetches.
    Merge { members: Vec<usize> },
    /// Upload of the partial update blob.
    PutPartial,
    /// Upload of the global update blob, registered once stored as the sum
    /// over `contributors` (`None` = every trainer).
    PutGlobal { contributors: Option<Vec<u32>> },
    /// Download of a peer's partial update.
    PeerPartial { j: usize },
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

/// One blob a gather took in: a trainer's gradient, fetched or received
/// on its own, or the sum a merge request returned (§III-E).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
enum Entry {
    Gradient(usize),
    Merge(u64),
}

/// The gather of one trainer set `T_ij`: my own slot's, or a peer slot's
/// being recovered (§III-D: another aggregator downloads the missing one's
/// gradients on his behalf). Either way its blobs are fetched, checked
/// and summed by the same code.
#[derive(Default)]
struct Gather {
    /// The trainer set.
    set: Vec<usize>,
    /// Registered gradient CIDs (and commitments), by trainer.
    registered: HashMap<usize, (Cid, Option<ProtocolCommitment>)>,
    /// Entries taken in: the vector until the sum takes it, `None` after,
    /// and the trainers it covers. No two cover one trainer: a trainer is
    /// fetched only while nothing covers it or is on its way for it. An
    /// entry taken into my own set after its partial is checked and
    /// booked but never summed, so it keeps no vector.
    entries: HashMap<Entry, (Option<Vec<Quantized>>, Vec<usize>)>,
    /// Entries taken in on trust, and their blobs' sizes, to be settled
    /// when the sum is about to consume them. Verifiable mode only.
    admitted: Option<VerifyQueue<(Entry, usize)>>,
}

impl Gather {
    fn new(set: Vec<usize>, cfg: &TaskConfig, key: Option<&Arc<ProtocolKey>>) -> Gather {
        Gather {
            set,
            admitted: key.map(|key| VerifyQueue::new(key.clone(), cfg)),
            ..Gather::default()
        }
    }

    /// Whether an entry covers `trainer`.
    fn covers(&self, trainer: usize) -> bool {
        let mut covered = self.entries.values().flat_map(|(_, covered)| covered);
        covered.any(|&t| t == trainer)
    }

    /// The trainers of the set an entry covers, in set order.
    fn have(&self) -> Vec<usize> {
        let have = self.set.iter().copied();
        have.filter(|&t| self.covers(t)).collect()
    }
}

/// Synchronisation with the partition's other aggregators (§IV-B) and
/// recovery of their trainer sets (§III-D); exists only with `|A_i| > 1`.
#[derive(Default)]
struct PeerSync {
    /// Partials by slot index (mine included once computed, a recovered
    /// slot's once its gather is summed), each with the contributor set
    /// (global trainer indices) behind it — peer-claimed unless recovered.
    /// The vector is `None` once the global update has summed it.
    partials: HashMap<usize, (Option<Vec<Quantized>>, Vec<usize>)>,
    /// Peer announcements, by slot: each partial is fetched once, and the
    /// announce is kept afterwards as evidence material.
    announced: HashMap<usize, SyncAnnounce>,
    /// Peer partial blobs fetched but not yet verified (waiting for the
    /// accumulated commitments): j → blob.
    unverified: HashMap<usize, Bytes>,
    /// Accumulated commitment per slot from the directory.
    accumulators: Vec<Option<ProtocolCommitment>>,
    /// Individual registered commitments by global trainer index (for
    /// degraded-quorum verification and gossiped evidence).
    commitments_seen: HashMap<usize, ProtocolCommitment>,
    /// The gathers of the peer slots being recovered, until each is summed
    /// into `partials` or the peer's own partial lands there first.
    recovering: HashMap<usize, Gather>,
    /// A recovered gather's sum is in `partials`. The peer's own partial is
    /// still fetched and checked if it lands later, but the sum already in
    /// is the one used.
    recovered: bool,
    /// Gossiped evidence that could not be re-verified yet (accumulators
    /// still unknown).
    pending_evidence: Vec<Misbehavior>,
}

/// One round of the flat AGGREGATOR procedure: built when `StartRound`
/// arrives, dropped when the next one does. Everything but the stage and
/// the summed vectors outlives `Gather`: a straggler admitted after
/// aggregation, or a peer's late partial, is still fetched and checked.
#[derive(Default)]
struct Round {
    iter: u64,
    stage: Stage,
    /// My trainer set's gather.
    own: Gather,
    /// Merge-and-download (§III-E): the round's merge requests went out.
    merges_sent: bool,
    sync: Option<PeerSync>,
    /// `FETCH_START` recorded for this round (first own-gradient fetch or
    /// merge RPC — the start of the merge-delay span).
    fetch_started: bool,
    /// The t_sync deadline passed and `min_quorum` authorized completing
    /// the round with the gradients received so far.
    deadline_degraded: bool,
}

impl Round {
    fn new(iter: u64, set: Vec<usize>, cfg: &TaskConfig, key: Option<&Arc<ProtocolKey>>) -> Round {
        let slots = cfg.aggregators_per_partition;
        Round {
            iter,
            own: Gather::new(set, cfg, key),
            sync: (slots > 1).then(|| PeerSync {
                accumulators: vec![None; slots],
                ..PeerSync::default()
            }),
            ..Round::default()
        }
    }

    /// Releases the vectors the stage reached has summed — nothing reads
    /// them again (§VI: gradient data is needed only briefly): past
    /// `Gather` the own set's entries in the partial, at `Done` the
    /// partials in the global update. Who they came from stays:
    /// de-duplication, the quorum and the straggler checks read the
    /// covered trainers and contributor sets.
    fn release_summed(&mut self) {
        if self.stage == Stage::Gather {
            return;
        }
        self.own.entries.values_mut().for_each(|(v, _)| *v = None);
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
    /// An honest aggregator inside a wrapper that rewrites its traffic
    /// ([`crate::adversary`]).
    Wrapped(BoxedCore),
}

impl Aggregator {
    /// The honest aggregator for global index `g`.
    pub(crate) fn honest(
        g: usize,
        topo: Arc<Topology>,
        key: Option<Arc<ProtocolKey>>,
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
            None => Role::Flat(Box::new(FlatAggregator::new(g, topo, key))),
        };
        Aggregator(role)
    }

    /// `core` standing in for an aggregator.
    pub(crate) fn wrapped(core: BoxedCore) -> Aggregator {
        Aggregator(Role::Wrapped(core))
    }
}

impl ProtocolCore for Aggregator {
    type Msg = Msg;

    fn handle(&mut self, now: SimTime, event: ProtocolEvent<Msg>, out: &mut Actions<Msg>) {
        match (&mut self.0, event) {
            (_, ProtocolEvent::DeliveryFailure { .. }) => out.incr(labels::DELIVERY_FAILED, 1),
            (Role::Flat(flat), event) => flat.handle(out, event),
            (Role::Overlay(sink), event) => sink.handle(out, event),
            (Role::Wrapped(core), event) => core.handle(now, event, out),
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
    /// they already encode the exact sum the flat path would compute over
    /// the same leaves, so flat and overlay rounds produce bit-identical
    /// models.
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
        // The root's sum stands for the whole tree: one of another width,
        // or outside the range of that many contributions, is refused
        // before its opening is checked, as a trainer refuses such a child.
        let cfg = self.topo.config();
        let width = self.topo.partition_len(partition);
        let decoded = decode_partition_blob(data, width, self.tree.len());
        let checked = overlay_partial_commitment(cfg, partition, iter, partial);
        let opens = |point| verify_blobs_timed(out, &self.key, &[(data, &point)]).is_empty();
        if decoded.is_none() || !checked.is_some_and(opens) {
            out.record(labels::OVERLAY_PARTIAL_REJECTED, trainer as f64);
            return;
        }
        self.stage.advance(out, iter, Stage::Done);
        let mut update = Msg::OverlayUpdate {
            partition,
            iter,
            data: data.clone(),
            signature: None,
        };
        if cfg.authenticate {
            update.sign(&agg_signing_key(cfg.seed, self.g));
        }
        out.send(self.topo.trainer(self.tree.root()), update);
        out.record(labels::OVERLAY_UPDATE_PUSHED, iter as f64);
    }
}

/// The flat aggregator. Beside the round it holds only what outlives one:
/// identity and keys, the verdicts on its peers, the storage client (with
/// the blocks to unpin when the next round starts) and the poll-timer flag.
struct FlatAggregator {
    g: usize,
    partition: usize,
    j: usize,
    topo: Arc<Topology>,
    key: Option<Arc<ProtocolKey>>,
    round: Round,
    /// Partition slots proven or suspected Byzantine; persists across
    /// rounds: their announces are ignored and their trainer sets
    /// proactively recovered at round start, in slot order.
    blacklist: BTreeSet<usize>,
    /// `(offender global index, iter)` pairs already reported, so one
    /// detection produces one evidence record.
    accused: HashSet<(usize, u64)>,
    /// Schnorr identity key (accountability mode).
    signing_key: Option<SigningKey<ProtocolCurve>>,
    /// Storage requests, by what each is for. On timeout a request is
    /// re-sent to the next storage node, which resolves the data wherever a
    /// live replica exists. The blocks it stored are unpinned at the next
    /// round (§VI ephemeral-data lifecycle).
    storage: StorageRequests<Request>,
    polling: bool,
    /// Whether a `StartRound` has arrived: until then `round` stands for
    /// no round.
    begun: bool,
    /// Direct-mode gradients that cannot be taken in yet, one per trainer
    /// of its set and round: over sockets a trainer's gradient can
    /// overtake the directory's `StartRound` to its aggregator, and with a
    /// key a gradient is checked against its trainer's registered
    /// commitment, which a later gradient list brings. Direct mode keeps no
    /// storage copy to fetch later, so each waits here.
    waiting: Vec<(u64, usize, Bytes)>,
}

impl FlatAggregator {
    fn new(g: usize, topo: Arc<Topology>, key: Option<Arc<ProtocolKey>>) -> FlatAggregator {
        let (partition, j) = topo.agg_role(g);
        let cfg = topo.config();
        let signing_key = cfg.accountability.then(|| agg_signing_key(cfg.seed, g));
        FlatAggregator {
            g,
            partition,
            j,
            round: Round::new(0, topo.trainer_set(partition, j), cfg, key.as_ref()),
            topo,
            key,
            blacklist: BTreeSet::new(),
            accused: HashSet::new(),
            signing_key,
            storage: StorageRequests::default(),
            polling: false,
            begun: false,
            waiting: Vec::new(),
        }
    }

    fn gateway(&self) -> NodeId {
        self.topo.aggregator_gateway(self.g)
    }

    fn accountability(&self) -> bool {
        self.topo.config().accountability
    }

    /// Decodes a blob for this aggregator's partition that stands for `n`
    /// contributions. Every blob it takes in — a gradient (`n` = 1), a
    /// merged sum (its members), a peer partial (its claimed
    /// contributors), a recovered gradient — comes through here, so one of
    /// another width, or outside the range of `n` contributions, is
    /// refused like one that does not decode, and never reaches a sum.
    fn decode_own(&self, data: &[u8], n: usize) -> Option<Vec<Quantized>> {
        decode_partition_blob(data, self.topo.partition_len(self.partition), n)
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

    /// The one quorum rule: whether `have` trainers covered of a trainer
    /// set of `set_len` stand for the set — all of them, or the quorum threshold
    /// once the deadline has degraded the round.
    fn enough(&self, have: usize, set_len: usize) -> bool {
        have >= set_len
            || (self.round.deadline_degraded
                && self.quorum_threshold(set_len).is_some_and(|th| have >= th))
    }

    /// The gather of slot `j`: my own set's, or a recovered peer slot's.
    fn gather(&mut self, j: usize) -> Option<&mut Gather> {
        if j == self.j {
            return Some(&mut self.round.own);
        }
        self.round.sync.as_mut()?.recovering.get_mut(&j)
    }

    fn begin_round(&mut self, out: &mut Actions<Msg>, iter: u64) {
        let set = std::mem::take(&mut self.round.own.set);
        self.round = Round::new(iter, set, self.topo.config(), self.key.as_ref());
        self.begun = true;

        // Release last round's partial/global update blobs.
        self.storage.end_round(out, &self.topo);
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
            for j in self.blacklist.clone() {
                self.start_recovery(out, j);
            }
        }
        self.waiting
            .retain(|&(waiting_iter, ..)| waiting_iter == iter);
        self.take_waiting(out);
    }

    /// Begins download-all recovery of slot `j` (§III-D): a gather of its
    /// trainer set, run as my own is, whose sum stands in for the slot's
    /// partial. Idempotent per round.
    fn start_recovery(&mut self, out: &mut Actions<Msg>, j: usize) {
        let Some(sync) = &mut self.round.sync else {
            return;
        };
        let cfg = self.topo.config();
        if j == self.j
            || cfg.comm == CommMode::Direct
            || sync.partials.contains_key(&j)
            || sync.recovering.contains_key(&j)
        {
            return;
        }
        out.record(labels::DROPOUT_RECOVERY, j as f64);
        let set = self.topo.trainer_set(self.partition, j);
        let gather = Gather::new(set, cfg, self.key.as_ref());
        sync.recovering.insert(j, gather);
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
        let own = &self.round.own;
        let grads_done = self.round.stage != Stage::Gather || own.registered.len() == own.set.len();
        // Direct mode is sent its gradients, but with a key it checks each
        // against the commitment its trainer registered, which the lists
        // carry.
        let listing = self.topo.config().comm != CommMode::Direct || self.key.is_some();
        if !grads_done && listing {
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
            let mut slots: Vec<usize> = sync.recovering.keys().copied().collect();
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
            let Some(gather) = self.gather(slot) else {
                continue; // a peer slot that is not being recovered
            };
            if gather.registered.contains_key(&trainer) {
                continue;
            }
            gather.registered.insert(trainer, (cid, c));
            // My own set's merge mode fetches a gradient one by one only
            // once the merges are out, and only if none of them covers it.
            if slot != self.j || !self.merging() || self.round.merges_sent {
                self.fetch_gradient(out, slot, trainer, cid);
            }
        }
        // Freshly learned commitments may unblock waiting Direct-mode
        // gradients, stashed peer partials and gossiped evidence.
        self.take_waiting(out);
        self.retry_unverified(out);
        self.maybe_send_merges(out);
    }

    fn merging(&self) -> bool {
        self.topo.config().comm == CommMode::MergeAndDownload
    }

    /// Merge-and-download (§III-E): once every trainer of `T_ij` has
    /// registered (or a quorum, after the deadline), issue one merge
    /// request per provider.
    fn maybe_send_merges(&mut self, out: &mut Actions<Msg>) {
        let own = &self.round.own;
        let ready = self.enough(own.registered.len(), own.set.len());
        if ready && self.merging() && !self.round.merges_sent {
            self.send_merges(out);
        }
    }

    /// Fetches `trainer`'s gradient for slot `j`'s gather straight from the
    /// storage node it was uploaded to (bitswap-style direct retrieval from
    /// the provider).
    fn fetch_gradient(&mut self, out: &mut Actions<Msg>, j: usize, trainer: usize, cid: Cid) {
        let Some(provider) = self.topo.upload_target(self.partition, trainer) else {
            return; // direct mode receives gradients over the wire instead
        };
        // Already here, or already on its way, alone or in a merge?
        let asked = |p: &Request| match p {
            Request::Gradient { trainer: t, .. } => *t == trainer,
            Request::Merge { members } => members.contains(&trainer),
            _ => false,
        };
        if self.gather(j).is_some_and(|g| g.covers(trainer)) || self.storage.pending().any(asked) {
            return;
        }
        if j == self.j {
            self.mark_fetch_start(out);
        }
        self.get(out, Request::Gradient { j, trainer }, provider, cid);
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
        self.round.merges_sent = true;
        self.mark_fetch_start(out);
        // Group my trainers' gradients by the provider they uploaded to.
        // Under quorum degradation not every trainer has registered;
        // unregistered ones are simply absent from the merge.
        let mut by_provider: HashMap<NodeId, Vec<(usize, Cid)>> = HashMap::new();
        for &t in &self.round.own.set {
            let Some(&(cid, _)) = self.round.own.registered.get(&t) else {
                continue;
            };
            let Some(provider) = self.topo.upload_target(self.partition, t) else {
                continue; // merges only exist when storage is in the path
            };
            by_provider.entry(provider).or_default().push((t, cid));
        }
        let mut groups: Vec<(NodeId, Vec<(usize, Cid)>)> = by_provider.into_iter().collect();
        groups.sort_unstable_by_key(|(provider, _)| provider.index());
        for (provider, asked) in groups {
            let (members, cids) = asked.into_iter().unzip();
            let merge = |req_id| IpfsWire::Merge { cids, req_id };
            let purpose = Request::Merge { members };
            self.storage.send(out, &self.topo, purpose, provider, merge);
        }
    }

    /// Takes in every waiting Direct-mode gradient of the round that can
    /// be checked: each one without a key, a listed trainer's with one. A
    /// trainer's gradient is taken in once: another for a trainer an entry
    /// already covers is wasted bytes.
    fn take_waiting(&mut self, out: &mut Actions<Msg>) {
        let (iter, own) = (self.round.iter, &self.round.own);
        let keyless = self.key.is_none();
        let ready = |&(i, t, _): &(u64, usize, Bytes)| {
            self.begun && i == iter && (keyless || own.registered.contains_key(&t))
        };
        let (ready, waiting) = std::mem::take(&mut self.waiting)
            .into_iter()
            .partition(ready);
        self.waiting = waiting;
        for (_, trainer, data) in ready {
            if self.round.own.covers(trainer) {
                out.record(labels::WASTED_BYTES, data.len() as f64);
            } else {
                self.on_gradient(out, self.j, trainer, &data);
            }
        }
    }

    /// Takes in `trainer`'s gradient for slot `j`'s gather, mine or a
    /// recovered peer's: fetched from storage, or in Direct mode sent to
    /// me. A refused one stays registered, so it is not fetched again: the
    /// same CID from the same node can only return the same bytes.
    fn on_gradient(&mut self, out: &mut Actions<Msg>, j: usize, trainer: usize, data: &Bytes) {
        if !self.take_in(out, j, Entry::Gradient(trainer), vec![trainer], data) {
            return;
        }
        if j == self.j {
            self.maybe_aggregate(out);
        } else {
            self.maybe_recover(out);
        }
    }

    /// One storage node answered the merge request `req` for `members`:
    /// `Some` blob (`MergeOk`) or `None` (`MergeErr`). A blob refused at
    /// intake is no better than no blob: either way the request degrades to
    /// plain per-CID fetches of its members. Each Get fails over across
    /// replicas at the storage layer, so one unmergeable blob does not
    /// force re-merging everything through the poll loop.
    fn on_merge_reply(
        &mut self,
        out: &mut Actions<Msg>,
        req: u64,
        members: Vec<usize>,
        reply: Option<Bytes>,
    ) {
        let taken = match reply {
            Some(data) => self.take_in(out, self.j, Entry::Merge(req), members.clone(), &data),
            None => false,
        };
        if !taken {
            self.degrade_merge(out, members);
        }
        self.maybe_aggregate(out);
    }

    /// Takes a blob that stands for `trainers` into slot `j`'s gather as
    /// `entry`, and returns whether it was taken. Like every blob this
    /// aggregator takes in, it must decode for that many contributions
    /// ([`decode_own`](Self::decode_own)); in verifiable mode it must also
    /// open the product of their registered commitments (§IV-B, which for a
    /// merged sum extends the check to merge-and-download), now or when the
    /// gather settles. A refused blob (a culprit) is wasted bytes. My own
    /// set keeps the vector only while a partial may still sum it.
    fn take_in(
        &mut self,
        out: &mut Actions<Msg>,
        j: usize,
        entry: Entry,
        trainers: Vec<usize>,
        data: &Bytes,
    ) -> bool {
        let keep = j != self.j || self.round.stage == Stage::Gather;
        let vector = self.decode_own(data, trainers.len());
        let Some(gather) = self.gather(j) else {
            return false; // its slot's partial is in
        };
        // A trainer that registered no commitment goes unchecked.
        let registered = |t: &usize| gather.registered.get(t)?.1;
        let commitments: Option<Vec<ProtocolCommitment>> =
            trainers.iter().map(registered).collect();
        let vector = vector.filter(|_| match (&mut gather.admitted, commitments) {
            (Some(queue), Some(commitments)) => {
                let product = ProtocolCommitment::accumulate(&commitments);
                queue.admit(out, (entry, data.len()), data, product)
            }
            _ => true,
        });
        let Some(vector) = vector else {
            out.record(labels::WASTED_BYTES, data.len() as f64);
            return false;
        };
        let held = keep.then_some(vector);
        gather.entries.insert(entry, (held, trainers));
        true
    }

    /// Replaces one merge by individual fetches of its members.
    fn degrade_merge(&mut self, out: &mut Actions<Msg>, members: Vec<usize>) {
        out.record(labels::MERGE_FALLBACK, members.len() as f64);
        for trainer in members {
            if let Some(&(cid, _)) = self.round.own.registered.get(&trainer) {
                self.fetch_gradient(out, self.j, trainer, cid);
            }
        }
    }

    /// Settles what slot `j`'s gather admitted on trust and takes every
    /// culprit back out, booked as wasted — the state an arrival-time
    /// refusal leaves (`registered` keeps its trainers under both
    /// policies) — and a merged sum's members are fetched one by one, as
    /// after a failed merge. Returns the number of culprits.
    ///
    /// The sum is all the gather makes of these blobs, so the check is
    /// [`VerifyQueue::settle_sum`]: one opening of their sum, and culprits
    /// named only when it fails.
    fn settle_admitted(&mut self, out: &mut Actions<Msg>, j: usize) -> usize {
        let Some(queue) = self.gather(j).and_then(|g| g.admitted.as_mut()) else {
            return 0;
        };
        let culprits = queue.settle_sum(out);
        for &(entry, bytes) in &culprits {
            out.record(labels::WASTED_BYTES, bytes as f64);
            let removed = self.gather(j).and_then(|g| g.entries.remove(&entry));
            if let (Entry::Merge(_), Some((_, members))) = (entry, removed) {
                self.degrade_merge(out, members);
            }
        }
        culprits.len()
    }

    /// Slot `j`'s sum and the trainers in it, in every comm mode, once its
    /// gather has what [`enough`](Self::enough) asks for: the whole set, or
    /// a deadline-degraded round's quorum. That is the round boundary:
    /// settle what was admitted on trust, then re-check — an evicted
    /// culprit may put the set back below the rule, in which case the
    /// gather waits exactly as it would have had the blob been refused at
    /// arrival.
    fn summed(&mut self, out: &mut Actions<Msg>, j: usize) -> Option<(Vec<Quantized>, Vec<usize>)> {
        let enough = |agg: &mut Self| {
            let gather = agg.gather(j)?;
            let (have, set_len) = (gather.have().len(), gather.set.len());
            Some(agg.enough(have, set_len))
        };
        if !enough(self)? || (self.settle_admitted(out, j) > 0 && !enough(self)?) {
            return None;
        }
        // The entries are disjoint, and the exact sum does not depend on
        // the order of its terms. Nothing is released before it is summed.
        let gather: &Gather = self.gather(j)?;
        let vectors = gather.entries.values().map(|(v, _)| v.as_deref());
        let vectors: Vec<&[Quantized]> = vectors.collect::<Option<_>>()?;
        // `None` for no vector at all; every one has the partition's width.
        Some((sum_gradients(&vectors).ok()?, gather.have()))
    }

    fn maybe_aggregate(&mut self, out: &mut Actions<Msg>) {
        if self.round.stage != Stage::Gather {
            // Stragglers admitted after aggregation (quorum-degraded
            // rounds) still get their check here, at the same instant the
            // per-blob policy would have verified them.
            self.settle_admitted(out, self.j);
            return;
        }
        let Some((partial, contributors)) = self.summed(out, self.j) else {
            return;
        };
        let Some(sync) = &mut self.round.sync else {
            // The partition's only aggregator: the partial is the update.
            let contributors = contributors.iter().map(|&t| t as u32).collect();
            self.upload_global(out, contributors, partial);
            return;
        };
        let blob = encode(&partial);
        sync.partials.insert(self.j, (Some(partial), contributors));
        self.round.stage.advance(out, self.round.iter, Stage::Sync);
        self.round.release_summed();
        // Upload the partial, then announce its hash over pub/sub.
        let gw = self.gateway();
        self.put(out, Request::PutPartial, gw, blob, 1);
    }

    /// Ranks within `T_ij` of the trainers summed into my partial (the
    /// announce format).
    fn contributor_ranks(&self) -> Vec<u16> {
        let sync = self.round.sync.as_ref();
        let mine = sync.and_then(|s| s.partials.get(&self.j));
        let contributors = mine.map_or(&[][..], |(_, contributors)| contributors);
        let set = &self.round.own.set;
        let rank = |t| set.iter().position(|e| e == t).map(|r| r as u16);
        contributors.iter().filter_map(rank).collect()
    }

    fn signed_announce(&self, cid: Cid) -> SyncAnnounce {
        let mut announce = SyncAnnounce {
            partition: self.partition,
            agg_j: self.j,
            iter: self.round.iter,
            cid,
            contributors: self.contributor_ranks(),
            signature: None,
        };
        if let Some(sk) = &self.signing_key {
            announce.sign(sk);
        }
        announce
    }

    /// A storage reply to the request for `purpose`.
    fn on_storage_reply(&mut self, out: &mut Actions<Msg>, purpose: Request, reply: IpfsWire) {
        match (purpose, reply) {
            (Request::Gradient { j, trainer }, IpfsWire::GetOk { data, .. }) => {
                self.on_gradient(out, j, trainer, &data);
            }
            (Request::PeerPartial { j }, IpfsWire::GetOk { data, .. }) => {
                self.check_peer_partials(out, vec![(j, data)]);
            }
            // A failed Get un-registers its trainer: the poll loop lists it
            // again, and the listing fetches it again.
            (Request::Gradient { j, trainer }, IpfsWire::GetErr { .. }) => {
                if let Some(gather) = self.gather(j) {
                    gather.registered.remove(&trainer);
                }
            }
            (Request::Merge { members }, IpfsWire::MergeOk { data, req_id }) => {
                self.on_merge_reply(out, req_id, members, Some(data));
            }
            (Request::Merge { members }, IpfsWire::MergeErr { req_id, .. }) => {
                self.on_merge_reply(out, req_id, members, None);
            }
            (purpose, IpfsWire::PutAck { cid, .. }) => self.on_put_ack(out, purpose, cid),
            _ => {}
        }
    }

    // -- synchronization (multi-aggregator) ----------------------------------

    fn on_put_ack(&mut self, out: &mut Actions<Msg>, purpose: Request, cid: Cid) {
        match purpose {
            Request::PutPartial => {
                let announce = self.signed_announce(cid);
                let publish = IpfsWire::Publish {
                    topic: self.topo.sync_topic(self.partition),
                    data: Bytes::from(announce.encode()),
                };
                let gw = self.gateway();
                out.send(gw, Msg::Ipfs(publish));
                self.maybe_finish_sync(out);
            }
            Request::PutGlobal { contributors } => {
                let mut msg = Msg::RegisterUpdate {
                    aggregator: self.g,
                    partition: self.partition,
                    iter: self.round.iter,
                    cid,
                    contributors,
                    signature: None,
                };
                if let Some(sk) = &self.signing_key {
                    msg.sign(sk);
                }
                out.send(self.topo.directory(), msg);
            }
            _ => {}
        }
    }

    fn on_deliver(&mut self, out: &mut Actions<Msg>, topic: &str, data: &[u8]) {
        if topic == EVIDENCE_TOPIC {
            // Gossiped misbehavior evidence (accountability mode).
            if let Some(record) = Misbehavior::decode(data)
                .ok()
                .filter(|_| self.accountability())
            {
                self.consider_evidence(out, record);
            }
            return;
        }
        let (Ok(ann), Some(sync)) = (SyncAnnounce::decode(data), &self.round.sync) else {
            return;
        };
        if ann.partition != self.partition || ann.iter != self.round.iter || ann.agg_j == self.j {
            return;
        }
        if sync.announced.contains_key(&ann.agg_j) || self.blacklist.contains(&ann.agg_j) {
            return;
        }
        // Accountability mode only acts on *signed* announcements: the
        // signature is what makes a later commitment mismatch attributable.
        if self.accountability() {
            let sender = self.topo.agg_index(self.partition, ann.agg_j);
            if !ann.signed_by(&agg_verifying_key(self.topo.config().seed, sender)) {
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
            if self.blacklist.contains(&j) {
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

    /// Takes in slot `j`'s partial. One that does not decode for the
    /// contributors it claims is wasted bytes; its announce stays, so it is
    /// not fetched again, and the slot waits for the deadline's recovery.
    fn accept_peer_partial(&mut self, out: &mut Actions<Msg>, ann: &SyncAnnounce, data: &[u8]) {
        let j = ann.agg_j;
        let set = self.topo.trainer_set(self.partition, j);
        let claimed: Vec<usize> = if ann.contributors.is_empty() {
            set
        } else {
            ann.contributors.iter().map(|&r| set[r as usize]).collect()
        };
        let Some(vector) = self.decode_own(data, claimed.len()) else {
            out.record(labels::WASTED_BYTES, data.len() as f64);
            return;
        };
        let Some(sync) = &mut self.round.sync else {
            return;
        };
        // Landing before the slot's recovered sum, it ends that recovery:
        // the two sums are bit-identical, and the first one in is used.
        sync.recovering.remove(&j);
        // One arriving after the global update is summed is never summed.
        let vector = (self.round.stage != Stage::Done).then_some(vector);
        sync.partials.entry(j).or_insert((vector, claimed));
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
        blob: &Bytes,
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
            blob: blob.clone(),
            offender_sig,
            detector: 0,
            detector_sig: None,
        };
        let Some(sk) = &self.signing_key else {
            return; // unreachable: only accountability mode convicts, and it has keys
        };
        record.sign_as_detector(self.g as u64, sk);
        let bytes = Bytes::from(record.encode());
        let publish = IpfsWire::Publish {
            topic: EVIDENCE_TOPIC.to_string(),
            data: bytes.clone(),
        };
        let gw = self.gateway();
        out.send(gw, Msg::Ipfs(publish));
        let msg = Msg::ReportMisbehavior { record: bytes };
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
        let mut vectors: Vec<&[Quantized]> = Vec::with_capacity(slots);
        let mut contributors: Vec<u32> = Vec::new();
        for j in 0..slots {
            // A vector is released only once the round is done.
            let Some((Some(v), set)) = sync.partials.get(&j) else {
                return;
            };
            vectors.push(v);
            contributors.extend(set.iter().map(|&t| t as u32));
        }
        let Ok(global) = sum_gradients(&vectors) else {
            return; // unreachable: every slot's vector has the partition's width
        };
        if sync.recovered {
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
        global: Vec<Quantized>,
    ) {
        let everyone = contributors.len() == self.topo.config().trainers; // the common case
        let contributors = (!everyone).then_some(contributors);
        self.round.stage.advance(out, self.round.iter, Stage::Done);
        self.round.release_summed();
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
        let get = |req_id| IpfsWire::Get { cid, req_id };
        self.storage.send(out, &self.topo, purpose, from, get);
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
        let put = |req_id| IpfsWire::Put {
            data,
            req_id,
            replicate,
        };
        self.storage.send(out, &self.topo, purpose, gw, put);
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
            // Listed in the storage modes, received in Direct mode.
            let own = &self.round.own;
            let received = match self.topo.config().comm {
                CommMode::Direct => own.have().len(),
                _ => own.registered.len(),
            };
            let missing = own.set.len().saturating_sub(received);
            out.record(labels::QUORUM_DEGRADED, missing as f64);
            self.maybe_send_merges(out);
            self.maybe_aggregate(out);
            self.maybe_recover(out);
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
        let me = self.j;
        for j in (0..self.topo.config().aggregators_per_partition).filter(|&j| j != me) {
            let sync = self.round.sync.as_ref();
            let announced = sync.is_some_and(|s| s.announced.contains_key(&j));
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
        // Alive (or mid-verification) slots are left to finish: a stashed
        // or accepted peer partial keeps its announce.
        let alive = |j: &usize| sync.partials.contains_key(j) || sync.announced.contains_key(j);
        let slots = 0..self.topo.config().aggregators_per_partition;
        let silent: Vec<usize> = slots.filter(|j| !alive(j)).collect();
        for j in silent {
            self.start_recovery(out, j);
        }
    }

    /// Ends the recovery of each slot whose gather has what my own would
    /// need — the whole set, or a deadline-degraded round's quorum: its
    /// sum goes into `partials` as the slot's. The exact sum is
    /// order-independent, so it is the honest partial bit for bit.
    fn maybe_recover(&mut self, out: &mut Actions<Msg>) {
        let me = self.j;
        for j in (0..self.topo.config().aggregators_per_partition).filter(|&j| j != me) {
            let Some((sum, contributors)) = self.summed(out, j) else {
                continue; // still gathering, or not recovered
            };
            if let Some(sync) = &mut self.round.sync {
                sync.recovering.remove(&j);
                sync.partials.insert(j, (Some(sum), contributors));
                sync.recovered = true;
            }
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
            // Only Direct mode's trainers send their gradients: in the
            // storage modes a blob replayed as one would be taken in beside
            // the merged sum or the fetch that already covers its trainer.
            Msg::DirectGradient {
                trainer,
                partition,
                iter,
                data,
            } if partition == self.partition
                && self.topo.config().comm == CommMode::Direct
                && self.round.own.set.contains(&trainer) =>
            {
                let next = if self.begun { self.round.iter + 1 } else { 0 };
                let current = self.begun && iter == self.round.iter;
                let waits = |&(i, t, _): &(u64, usize, Bytes)| (i, t) == (iter, trainer);
                if (current || iter == next) && !self.waiting.iter().any(waits) {
                    self.waiting.push((iter, trainer, data));
                    self.take_waiting(out);
                }
            }
            Msg::UpdateRejected { .. } => {
                // Our update failed verification (we were malicious or raced
                // a malicious peer). Nothing to do: an honest peer's update
                // will supersede, or the round stalls and the experiment
                // reports the failure.
            }
            Msg::Ipfs(IpfsWire::Deliver { topic, data, .. }) => {
                self.on_deliver(out, &topic, &data);
            }
            Msg::Ipfs(reply) => {
                if let Some(purpose) = self.storage.answered(&reply) {
                    self.on_storage_reply(out, purpose, reply);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, out: &mut Actions<Msg>, token: u64) {
        match token & !0xFFFF_FFFF {
            TK_POLL => self.poll(out),
            TK_SYNC_DEADLINE => self.on_sync_deadline(out, token & 0xFFFF_FFFF),
            TK_STORAGE_RETRY => {
                let req = token & 0xFFFF_FFFF;
                self.storage.retry(out, &self.topo, req);
            }
            TK_WATCHDOG => self.on_watchdog(out, token & 0xFFFF_FFFF),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::{build_blob, commit_blob, decode_blob, derive_key, sum_gradients};
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
        let mut agg = Aggregator::honest(0, topo, key);
        let list = gradient_list(&agg, blobs, committed, 0..blobs.len());
        deliver(&mut agg, Msg::StartRound { iter: 0 });
        let actions = deliver(&mut agg, list);
        (agg, actions)
    }

    /// The round-0 gradient list of `trainers`, each registered under the
    /// CID of its blob in `blobs` and, when `agg` is verifiable, under the
    /// commitment of its blob in `committed`.
    fn gradient_list(
        agg: &Aggregator,
        blobs: &[Bytes],
        committed: &[Bytes],
        trainers: impl Iterator<Item = usize>,
    ) -> Msg {
        let key = flat(agg).key.as_ref();
        let registered = |t: usize| {
            let commitment = key.map(|k| commit_blob(k, &committed[t]).unwrap());
            (t, Cid::of(&blobs[t]), commitment.map(|c| c.to_bytes()))
        };
        Msg::GradientList {
            partition: 0,
            iter: 0,
            entries: trainers.map(registered).collect(),
        }
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
        (agg, blobs, merges(&actions))
    }

    /// The merge requests among `actions`.
    fn merges(actions: &[ProtocolAction<Msg>]) -> Vec<MergeRequest> {
        let merge = |action: &ProtocolAction<Msg>| match action {
            ProtocolAction::Send {
                msg: Msg::Ipfs(IpfsWire::Merge { cids, req_id }),
                ..
            } => Some((*req_id, cids.clone())),
            _ => None,
        };
        actions.iter().filter_map(merge).collect()
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
        assert_eq!(recorded(&actions, labels::WASTED_BYTES), 1);
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
            assert_eq!(
                recorded(&answered, labels::WASTED_BYTES),
                usize::from(data == &wide)
            );
            actions.extend(answered);
        }
        assert!(uploads(&actions, &encoded_sum(&blobs)));
    }

    /// Over sockets a trainer's `DirectGradient` can overtake the
    /// directory's `StartRound` to its aggregator. Regression: it was
    /// dropped, and with no storage copy to fetch the round never
    /// aggregated. It waits for its round instead — round 0's and the
    /// next one's alike — and a gradient for a later round, or from a
    /// trainer outside the set, is still dropped.
    #[test]
    fn a_direct_gradient_that_overtakes_its_start_round_waits_for_it() {
        let cfg = TaskConfig {
            trainers: 2,
            partitions: 1,
            rounds: 2,
            comm: CommMode::Direct,
            ..TaskConfig::default()
        };
        let topo = Arc::new(Topology::new(cfg, 3).unwrap());
        let mut agg = Aggregator::honest(0, topo, None);
        let blobs = honest_blobs(2);
        for iter in 0..2 {
            let direct = |trainer: usize, iter: u64| Msg::DirectGradient {
                trainer,
                partition: 0,
                iter,
                data: blobs[trainer % 2].clone(),
            };
            for early in [
                direct(0, iter),
                direct(1, iter),
                direct(0, iter + 1),
                direct(7, iter),
            ] {
                assert!(deliver(&mut agg, early).is_empty(), "round {iter}");
            }
            let started = deliver(&mut agg, Msg::StartRound { iter });
            assert_eq!(
                recorded(&started, labels::GRADS_AGGREGATED),
                1,
                "round {iter}"
            );
            assert!(uploads(&started, &encoded_sum(&blobs)), "round {iter}");
        }
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
        let merges = merges(&actions);
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
            Role::Overlay(_) | Role::Wrapped(_) => panic!("a flat task"),
        }
    }

    /// The own-set vectors, fetched or merged, `agg`'s round still holds.
    fn held_vectors(agg: &Aggregator) -> usize {
        let entries = flat(agg).round.own.entries.values();
        entries.filter(|(v, _)| v.is_some()).count()
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
        assert_eq!(round.own.have(), [0, 2]);
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

    /// Merge mode: the merged sums are released once summed; the trainers
    /// they cover stay.
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
            assert_eq!(flat(&agg).round.own.have(), [0, 1, 2, 3]);
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
                let booked = flat(&agg).round.own.covers(3);
                assert_eq!(booked, !corrupt, "{case}");
            }
        }
    }

    /// A one-partition task of two slots, `T_00 = {0, 2}` and
    /// `T_01 = {1, 3}`, with a sync watchdog.
    fn two_slots(verifiable: bool, batch_verify: bool) -> TaskConfig {
        TaskConfig {
            partitions: 1,
            aggregators_per_partition: 2,
            sync_watchdog: Some(dfl_netsim::SimDuration::from_secs(2)),
            verifiable,
            batch_verify,
            ..TaskConfig::default()
        }
    }

    /// A slot-0 aggregator of `cfg` (a [`two_slots`] task) whose own
    /// partial is summed from `stored` and stored, whose watchdog then
    /// found slot 1 silent, and which was sent the gradient list of slot 1
    /// as the poll loop asks for it; every action since the first list, and
    /// the `Get`s of slot 1's gradients among them.
    fn recovering(
        cfg: TaskConfig,
        stored: &[Bytes],
        honest: &[Bytes],
    ) -> (Aggregator, Vec<ProtocolAction<Msg>>, Vec<(u64, Cid)>) {
        let (mut agg, mut actions) = listed(cfg, stored, honest);
        let own = gets(&actions);
        actions.extend(answer(&mut agg, &own, stored));
        let [(req_id, partial)] = &puts(&actions)[..] else {
            panic!("one partial uploaded: {actions:?}");
        };
        let cid = Cid::of(partial);
        let ack = IpfsWire::PutAck {
            cid,
            req_id: *req_id,
        };
        actions.extend(deliver(&mut agg, Msg::Ipfs(ack)));
        actions.extend(fire(&mut agg, TK_WATCHDOG));
        assert_eq!(recorded(&actions, labels::DROPOUT_RECOVERY), 1);
        let list = gradient_list(&agg, stored, honest, [1, 3].into_iter());
        let listed = deliver(&mut agg, list);
        let recovery = gets(&listed);
        actions.extend(listed);
        (agg, actions, recovery)
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

    /// The blobs `actions` upload.
    fn uploaded(actions: &[ProtocolAction<Msg>]) -> Vec<Bytes> {
        puts(actions).into_iter().map(|(_, data)| data).collect()
    }

    /// The bytes `actions` book as wasted.
    fn wasted(actions: &[ProtocolAction<Msg>]) -> f64 {
        let value = |action: &ProtocolAction<Msg>| match action {
            ProtocolAction::Record { label, value } if *label == labels::WASTED_BYTES => *value,
            _ => 0.0,
        };
        actions.iter().map(value).sum()
    }

    /// Fires `agg`'s round-0 timer of kind `kind`.
    fn fire(agg: &mut Aggregator, kind: u64) -> Vec<ProtocolAction<Msg>> {
        let mut out = Actions::new();
        agg.handle(
            SimTime::ZERO,
            ProtocolEvent::Timer { token: kind },
            &mut out,
        );
        out.drain().collect()
    }

    /// Slot `j`'s announce of `partial`, as the sync topic delivers it.
    fn announced(agg: &Aggregator, j: usize, partial: &[u8]) -> Msg {
        let announce = SyncAnnounce {
            partition: 0,
            agg_j: j,
            iter: 0,
            cid: Cid::of(partial),
            contributors: Vec::new(),
            signature: None,
        };
        Msg::Ipfs(IpfsWire::Deliver {
            topic: flat(agg).topo.sync_topic(0),
            data: Bytes::from(announce.encode()),
            publisher: NodeId(9),
        })
    }

    /// Recovery races the peer it stands in for: slot 1's own partial
    /// lands while its recovery is half-fetched. The round ends once, with
    /// the global update a full recovery uploads, not as a recovered
    /// round, and the recovery replies after it change nothing.
    #[test]
    fn a_peer_partial_that_lands_mid_recovery_ends_the_round_once() {
        let blobs = honest_blobs(4);
        let global = Bytes::from(encoded_sum(&blobs));
        let (mut agg, _, recovery) = recovering(two_slots(false, false), &blobs, &blobs);
        assert_eq!(recovery.len(), 2, "slot 1's trainers 1 and 3");
        let done = answer(&mut agg, &recovery, &blobs);
        assert_eq!(recorded(&done, labels::ROUND_RECOVERED), 1);
        assert_eq!(
            uploaded(&done),
            std::slice::from_ref(&global),
            "all recovered"
        );

        let (mut agg, _, recovery) = recovering(two_slots(false, false), &blobs, &blobs);
        let half = answer(&mut agg, &recovery[..1], &blobs);
        assert!(uploaded(&half).is_empty(), "{half:?}");
        let peer = Bytes::from(encoded_sum(&[blobs[1].clone(), blobs[3].clone()]));
        let announce = announced(&agg, 1, &peer);
        let asked = deliver(&mut agg, announce);
        let done = answer(&mut agg, &gets(&asked), &[peer]);
        assert_eq!(recorded(&done, labels::SYNC_DONE), 1);
        assert_eq!(recorded(&done, labels::ROUND_RECOVERED), 0);
        assert_eq!(uploaded(&done), [global]);
        let late = answer(&mut agg, &recovery[1..], &blobs);
        assert!(late.is_empty(), "{late:?}");
    }

    /// A recovered slot under the per-blob and the deferred policy: the
    /// same global update, and the same number of blobs verified.
    #[test]
    fn a_recovered_slot_is_the_same_under_either_verification_policy() {
        let blobs = honest_blobs(4);
        let runs = [false, true].map(|batch_verify| {
            let cfg = two_slots(true, batch_verify);
            let (mut agg, before, recovery) = recovering(cfg, &blobs, &blobs);
            let done = answer(&mut agg, &recovery, &blobs);
            assert_eq!(recorded(&done, labels::ROUND_RECOVERED), 1);
            (uploaded(&done), verified(&before) + verified(&done))
        });
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], (vec![Bytes::from(encoded_sum(&blobs))], 4));
    }

    /// One culprit rule for every gathered blob, recovered or own: one
    /// that does not open its registered commitment is booked as wasted,
    /// never summed, and not fetched again — the same CID from the same
    /// storage node can only return the same bytes.
    #[test]
    fn a_culprit_gradient_is_wasted_and_not_fetched_again() {
        let honest = honest_blobs(4);
        for batch_verify in [false, true] {
            let case = format!("batch_verify = {batch_verify}");
            // Slot 1's trainer 3, recovered.
            let mut stored = honest.clone();
            stored[3] = Bytes::from(build_blob(&[9.0, 0.5, -2.0]));
            let cfg = two_slots(true, batch_verify);
            let (mut agg, _, recovery) = recovering(cfg, &stored, &honest);
            let mut actions = answer(&mut agg, &recovery, &stored);
            let again = gradient_list(&agg, &stored, &honest, [1, 3].into_iter());
            actions.extend(deliver(&mut agg, again));
            assert_eq!(wasted(&actions), stored[3].len() as f64, "{case}");
            assert!(gets(&actions).is_empty(), "{case}: {actions:?}");
            assert!(uploaded(&actions).is_empty(), "{case}");

            // Trainer 1 of the own set of a one-slot task.
            let mut stored = honest.clone();
            stored[1] = Bytes::from(build_blob(&[9.0, 0.5, -2.0]));
            let cfg = TaskConfig {
                aggregators_per_partition: 1,
                ..two_slots(true, batch_verify)
            };
            let (mut agg, listed) = listed(cfg, &stored, &honest);
            let mut actions = answer(&mut agg, &gets(&listed), &stored);
            let again = gradient_list(&agg, &stored, &honest, 0..4);
            actions.extend(deliver(&mut agg, again));
            assert_eq!(wasted(&actions), stored[1].len() as f64, "{case}");
            assert!(gets(&actions).is_empty(), "{case}: {actions:?}");
            assert!(uploaded(&actions).is_empty(), "{case}");
        }
    }

    /// `[element, 0.5, −2]` with one contribution's counter: past the
    /// range of `n` contributions once `element` exceeds n · `BOUND`.
    fn with_first(element: i64) -> Bytes {
        let tail = dfl_crypto::quantize::quantize_vector(&[0.5, -2.0, 1.0]);
        let mut vector = vec![Quantized(element)];
        vector.extend(tail);
        Bytes::from(encode(&vector))
    }

    const PAST_ONE: i64 = dfl_crypto::quantize::BOUND + 1;

    /// The range rule at the gradient intake, and one culprit verdict
    /// whether the gradient is fetched alone or after its merge: trainer
    /// 1's gradient, three `BOUND`s past zero, is out of range for one
    /// contribution and makes its merge out of range for two. Though it
    /// opens its registered commitment, it is refused — in merge mode the
    /// merge first, its members fetched one by one instead, then the
    /// gradient itself on that fetch — booked as wasted, never summed and
    /// not fetched again. The round waits for the whole set: it does not
    /// aggregate without `min_quorum`, and with one the deadline degrades
    /// it to the other three.
    #[test]
    fn a_fetched_gradient_outside_the_range_is_wasted_and_the_quorum_goes_on() {
        let honest = honest_blobs(4);
        let mut stored = honest.clone();
        stored[1] = with_first(3 * dfl_crypto::quantize::BOUND);
        let rest = encoded_sum(&[honest[0].clone(), honest[2].clone(), honest[3].clone()]);
        for comm in [CommMode::Indirect, CommMode::MergeAndDownload] {
            for (verifiable, min_quorum) in [
                (false, None),
                (true, None),
                (false, Some(3)),
                (true, Some(3)),
            ] {
                let cfg = TaskConfig {
                    partitions: 1,
                    comm,
                    verifiable,
                    min_quorum,
                    ..TaskConfig::default()
                };
                let case =
                    format!("{comm:?}, verifiable = {verifiable}, min_quorum = {min_quorum:?}");
                let (mut agg, mut actions) = listed(cfg, &stored, &stored);
                let merges = merges(&actions);
                for merge in &merges {
                    assert_eq!(merge.1.len(), 2, "{case}: two members a merge");
                    actions.extend(deliver(&mut agg, merge_ok(&stored, merge, false)));
                }
                let fetched = gets(&actions);
                let merged = if merges.is_empty() {
                    assert_eq!(fetched.len(), 4, "{case}");
                    0.0
                } else {
                    assert_eq!(recorded(&actions, labels::MERGE_FALLBACK), 1, "{case}");
                    let bad = Cid::of(&stored[1]);
                    let refused = merges.iter().find(|(_, cids)| cids.contains(&bad));
                    let cids: Vec<Cid> = fetched.iter().map(|&(_, cid)| cid).collect();
                    assert_eq!(cids, refused.unwrap().1, "{case}");
                    stored[1].len() as f64 // a sum is as wide as a member
                };
                assert_eq!(wasted(&actions), merged, "{case}");

                let mut after = answer(&mut agg, &fetched, &stored);
                let again = gradient_list(&agg, &stored, &stored, 0..4);
                after.extend(deliver(&mut agg, again));
                assert_eq!(wasted(&after), stored[1].len() as f64, "{case}");
                assert!(gets(&after).is_empty(), "{case}: {after:?}");
                assert_eq!(recorded(&after, labels::GRADS_AGGREGATED), 0, "{case}");

                let deadline = fire(&mut agg, TK_SYNC_DEADLINE);
                let degraded = min_quorum.is_some();
                let aggregated = recorded(&deadline, labels::GRADS_AGGREGATED);
                assert_eq!(aggregated, usize::from(degraded), "{case}");
                assert_eq!(uploads(&deadline, &rest), degraded, "{case}");
            }
        }
    }

    /// The same for a `DirectGradient`: refused and booked as wasted, and
    /// the trainer's next blob in range completes the round.
    #[test]
    fn a_direct_gradient_outside_the_range_is_wasted() {
        let cfg = TaskConfig {
            trainers: 2,
            partitions: 1,
            comm: CommMode::Direct,
            ..TaskConfig::default()
        };
        let (mut agg, _) = listed(cfg, &[], &[]);
        let blobs = honest_blobs(2);
        let past = with_first(PAST_ONE);
        let mut actions = Vec::new();
        for (trainer, data) in [(0, &blobs[0]), (1, &past), (1, &blobs[1])] {
            let msg = Msg::DirectGradient {
                trainer,
                partition: 0,
                iter: 0,
                data: data.clone(),
            };
            actions.extend(deliver(&mut agg, msg));
        }
        assert_eq!(wasted(&actions), past.len() as f64);
        assert_eq!(recorded(&actions, labels::GRADS_AGGREGATED), 1);
        assert!(uploads(&actions, &encoded_sum(&blobs)));
    }

    /// Regression: a verifiable Direct-mode aggregator never asked for the
    /// gradient lists, so no trainer's commitment was registered and every
    /// `DirectGradient` was taken in unchecked — a forged blob sent as
    /// trainer 0 went into the partial. The poll now asks for the lists; a
    /// gradient whose trainer is not listed yet waits for its listing, and
    /// is then checked against the commitment its trainer registered: the
    /// forged blob is wasted bytes, and trainer 0's honest blob completes
    /// the round with the honest sum. A second blob sent as a trainer
    /// already taken in is wasted too: under `batch_verify` it would
    /// replace the honest entry, and the settle would evict both.
    #[test]
    fn a_verifiable_direct_gradient_is_checked_against_its_registered_commitment() {
        let blobs = honest_blobs(2);
        let forged = Bytes::from(build_blob(&[9.0, 0.5, -2.0]));
        let direct = |trainer: usize, data: &Bytes| Msg::DirectGradient {
            trainer,
            partition: 0,
            iter: 0,
            data: data.clone(),
        };
        for batch_verify in [false, true] {
            let case = format!("batch_verify = {batch_verify}");
            let cfg = TaskConfig {
                trainers: 2,
                partitions: 1,
                comm: CommMode::Direct,
                verifiable: true,
                batch_verify,
                ..TaskConfig::default()
            };
            let (mut agg, _) = listed(cfg, &[], &[]);
            let query = |a: &ProtocolAction<Msg>| {
                matches!(
                    a,
                    ProtocolAction::Send {
                        msg: Msg::QueryGradients { .. },
                        ..
                    }
                )
            };
            assert!(fire(&mut agg, TK_POLL).iter().any(query), "{case}");

            let mut actions = deliver(&mut agg, direct(1, &blobs[1]));
            actions.extend(deliver(&mut agg, direct(0, &forged)));
            assert!(
                actions.is_empty(),
                "{case}: unlisted, both wait: {actions:?}"
            );
            let list = gradient_list(&agg, &blobs, &blobs, 0..2);
            let actions = deliver(&mut agg, list);
            assert_eq!(wasted(&actions), forged.len() as f64, "{case}");
            assert_eq!(recorded(&actions, labels::GRADS_AGGREGATED), 0, "{case}");
            // A trainer's gradient is taken in once: another blob sent as
            // trainer 1 is wasted, whatever it holds.
            let actions = deliver(&mut agg, direct(1, &forged));
            assert_eq!(wasted(&actions), forged.len() as f64, "{case}");

            let actions = deliver(&mut agg, direct(0, &blobs[0]));
            assert_eq!(recorded(&actions, labels::GRADS_AGGREGATED), 1, "{case}");
            assert_eq!(
                uploaded(&actions),
                [Bytes::from(encoded_sum(&blobs))],
                "{case}"
            );
            assert!(verified(&actions) > 0, "{case}");
        }
    }

    /// At the peer-partial intake the range is the claimed contributors':
    /// slot 1's partial past two contributions' range is refused though it
    /// opens slot 1's accumulator — booked as wasted, not fetched again —
    /// and the deadline recovers the slot.
    #[test]
    fn a_peer_partial_outside_the_range_of_its_contributors_is_wasted_and_recovered() {
        let honest = honest_blobs(4);
        let mut stored = honest.clone();
        stored[1] = with_first(3 * dfl_crypto::quantize::BOUND);
        for verifiable in [false, true] {
            let (mut agg, actions) = listed(two_slots(verifiable, false), &stored, &stored);
            answer(&mut agg, &gets(&actions), &stored);
            let peer = Bytes::from(encoded_sum(&[stored[1].clone(), stored[3].clone()]));
            if let Some(key) = &flat(&agg).key {
                let opened = commit_blob(key, &peer).unwrap();
                let accumulated = vec![None, Some(opened.to_bytes())];
                let msg = Msg::Accumulators {
                    partition: 0,
                    iter: 0,
                    accumulated,
                };
                deliver(&mut agg, msg);
            }
            let announce = announced(&agg, 1, &peer);
            let asked = deliver(&mut agg, announce.clone());
            let mut actions = answer(&mut agg, &gets(&asked), std::slice::from_ref(&peer));
            actions.extend(deliver(&mut agg, announce));
            let case = format!("verifiable = {verifiable}");
            assert_eq!(wasted(&actions), peer.len() as f64, "{case}");
            assert!(gets(&actions).is_empty(), "{case}: {actions:?}");
            assert!(uploaded(&actions).is_empty(), "{case}");
            let deadline = fire(&mut agg, TK_SYNC_DEADLINE);
            assert_eq!(recorded(&deadline, labels::DROPOUT_RECOVERY), 1, "{case}");
        }
    }

    /// Regression: a flat aggregator took `Msg::DirectGradient` in every
    /// comm mode. Any node can fetch a trainer's stored blob by its CID
    /// and replay it as one: in merge mode the partial then counted that
    /// trainer twice, beside the merged sum that covers it, and in Indirect
    /// mode the extra vector stayed held for the rest of the round.
    #[test]
    fn a_replayed_direct_gradient_reaches_nothing_outside_direct_mode() {
        let replay = |agg: &mut Aggregator, blobs: &[Bytes]| {
            let msg = Msg::DirectGradient {
                trainer: 0,
                partition: 0,
                iter: 0,
                data: blobs[0].clone(),
            };
            deliver(agg, msg)
        };
        for batch_verify in [false, true] {
            let (mut agg, blobs, merges) = merging(batch_verify);
            let mut actions = replay(&mut agg, &blobs);
            for merge in &merges {
                actions.extend(deliver(&mut agg, merge_ok(&blobs, merge, false)));
            }
            let honest = Bytes::from(encoded_sum(&blobs));
            assert_eq!(
                uploaded(&actions),
                [honest],
                "batch_verify = {batch_verify}"
            );
        }
        let cfg = TaskConfig {
            partitions: 1,
            ..TaskConfig::default()
        };
        let blobs = honest_blobs(4);
        let (mut agg, _) = listed(cfg, &blobs, &blobs);
        assert!(replay(&mut agg, &blobs).is_empty());
        assert_eq!(held_vectors(&agg), 0);
    }

    /// The overlay sink's intake checks the root's range, as a trainer
    /// checks a child's: a root partial past the range of the tree's four
    /// contributions is refused though it opens its commitment — booked
    /// `overlay_partial_rejected`, and no update is pushed down — while one
    /// at the edge of the range is pushed.
    #[test]
    fn an_overlay_root_outside_the_range_of_the_tree_is_rejected() {
        let cfg = TaskConfig {
            trainers: 4,
            partitions: 1,
            verifiable: true,
            overlay_branching: Some(2),
            ..TaskConfig::default()
        };
        let topo = Arc::new(Topology::new(cfg, 3).unwrap());
        let key = Arc::new(derive_key(topo.max_partition_len(), 0, true));
        let root = topo.overlay().unwrap().root();
        let mut agg = Aggregator::honest(0, topo, Some(key.clone()));
        deliver(&mut agg, Msg::StartRound { iter: 0 });
        let mut root_partial = |times: i64| {
            let data = with_first(times * dfl_crypto::quantize::BOUND);
            let msg = Msg::OverlayPartial {
                trainer: root,
                partition: 0,
                iter: 0,
                commitment: commit_blob(&key, &data).unwrap().into(),
                data,
                count: 4,
                signature: None,
            };
            let actions = deliver(&mut agg, msg);
            let update = |a: &&ProtocolAction<Msg>| {
                matches!(
                    a,
                    ProtocolAction::Send {
                        msg: Msg::OverlayUpdate { .. },
                        ..
                    }
                )
            };
            let pushed = actions.iter().filter(update).count();
            (recorded(&actions, labels::OVERLAY_PARTIAL_REJECTED), pushed)
        };
        assert_eq!(root_partial(5), (1, 0), "past the range");
        assert_eq!(root_partial(4), (0, 1), "at its edge");
    }
}
