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
//! With `accountability` on, announcements are Schnorr-signed; a peer
//! partial that fails commitment verification is packaged into a
//! transferable [`Misbehavior`] proof, gossiped on the evidence topic,
//! reported to the directory, and the offending slot is blacklisted and
//! immediately recovered from the trainers' original gradient blobs — so
//! the round completes with the same bits an honest run produces.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;

use dfl_crypto::quantize::{encode, Quantized};
use dfl_crypto::schnorr::{Signature, SigningKey};
use dfl_ipfs::{Cid, IpfsWire};
use dfl_netsim::{NodeId, SimTime};

use crate::accountability::{
    agg_signing_key, agg_verifying_key, Misbehavior, MisbehaviorKind, EVIDENCE_TOPIC,
};
use crate::adversary::Behavior;
use crate::config::{CommMode, Topology};
use crate::error::IplsError;
use crate::gradient::{
    commit_blob, decode_blob, flush_verify_queue, sum_gradients, verify_blob_timed,
    verify_blobs_timed, ProtocolCommitment, ProtocolCurve, ProtocolKey,
};
use crate::labels;
use crate::messages::{
    overlay_partial_message, overlay_update_message, update_message, Msg, SyncAnnounce,
};
use crate::protocol::{Actions, ProtocolCore, ProtocolEvent};

const TK_POLL: u64 = 1 << 32;
const TK_SYNC_DEADLINE: u64 = 2 << 32;
const TK_FETCH: u64 = 3 << 32;
const TK_WATCHDOG: u64 = 4 << 32;

/// What an in-flight storage request is for.
#[derive(Copy, Clone, Debug)]
enum Request {
    /// Download of one trainer's gradient (own set).
    OwnGradient { trainer: usize },
    /// Merge-and-download result from one provider.
    Merged,
    /// Upload of the partial update blob.
    PutPartial,
    /// Upload of the equivocating second partial (`Behavior::Equivocate`).
    PutAltered,
    /// Upload of the global update blob.
    PutGlobal,
    /// Download of a peer's partial update.
    PeerPartial { j: usize },
    /// Download of a dead peer's trainer gradient (recovery).
    Recovery { j: usize, trainer: usize },
}

/// The aggregator actor.
pub struct Aggregator {
    g: usize,
    partition: usize,
    j: usize,
    topo: Arc<Topology>,
    key: Option<Arc<ProtocolKey>>,
    behavior: Behavior,

    // -- per-round state ----------------------------------------------------
    iter: u64,
    round_start: SimTime,
    /// Trainers in `T_ij`.
    expected: Vec<usize>,
    /// Registered gradient CIDs (and commitments) for my trainer set.
    registered: HashMap<usize, (Cid, Option<ProtocolCommitment>)>,
    /// Downloaded/received gradient vectors by trainer.
    gradients: HashMap<usize, Vec<Quantized>>,
    /// Trainers whose download is in flight.
    downloading: HashSet<usize>,
    /// Outstanding merge requests (by provider count).
    merges_outstanding: usize,
    merges_sent: bool,
    /// Merged blobs received so far.
    merged: Vec<Vec<Quantized>>,
    /// Trainers covered by the successful merges.
    merged_members: Vec<usize>,
    /// My partial update, once computed.
    partial: Option<Vec<Quantized>>,
    /// Global trainer indices summed into my partial.
    partial_contributors: Vec<usize>,
    /// Peers' partials by slot index (mine included once computed).
    partials: HashMap<usize, Vec<Quantized>>,
    /// Contributor sets (global trainer indices) behind each slot's
    /// partial — peer-claimed, or observed during recovery.
    slot_contributors: HashMap<usize, Vec<usize>>,
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
    /// Deferred verification queue (`batch_verify` mode): own-set gradient
    /// blobs admitted optimistically at arrival, settled with one RLC
    /// batch check when aggregation is about to consume them.
    pending_verify: Vec<(usize, Bytes, ProtocolCommitment)>,
    /// Recovery bookkeeping: slot → trainers still to fetch.
    recovery_pending: HashMap<usize, HashSet<usize>>,
    /// Recovery gradients collected: slot → trainer → vector.
    recovery_grads: HashMap<usize, HashMap<usize, Vec<Quantized>>>,
    /// Partition slots proven or suspected Byzantine; persists across
    /// rounds: their announces are ignored and their trainer sets
    /// proactively recovered at round start.
    blacklist: HashSet<usize>,
    /// `(offender global index, iter)` pairs already reported, so one
    /// detection produces one evidence record.
    accused: HashSet<(usize, u64)>,
    /// Gossiped evidence that could not be re-verified yet (accumulators
    /// still unknown).
    pending_evidence: Vec<Misbehavior>,
    /// Schnorr identity key (accountability mode).
    signing_key: Option<SigningKey<ProtocolCurve>>,
    /// `Behavior::Equivocate`: CIDs of the two uploaded partial variants.
    equiv_honest: Option<Cid>,
    equiv_altered: Option<Cid>,
    /// The round's sync already completed through at least one recovered
    /// slot (`ROUND_RECOVERED` recorded once).
    round_recovered: bool,
    /// Contributor set registered with the global update (`None` = full).
    update_contributors: Option<Vec<u32>>,
    global_sent: bool,
    sync_recorded: bool,
    /// `FETCH_START` recorded for this round (first own-gradient fetch or
    /// merge RPC — the start of the merge-delay span).
    fetch_started: bool,
    /// The t_sync deadline passed and `min_quorum` authorized completing
    /// the round with the gradients received so far.
    deadline_degraded: bool,
    /// Member `(trainer, cid)` lists of in-flight merge requests, kept so
    /// a failed merge can degrade to plain per-CID fetches.
    merge_members: HashMap<u64, Vec<(usize, Cid)>>,
    /// Trainers being fetched individually after their merge failed.
    fallback_pending: HashSet<usize>,
    in_flight: HashMap<u64, Request>,
    /// Storage requests eligible for client-side retry: req → last target
    /// and the wire to re-issue. On timeout the request is re-sent to the
    /// next storage node, which resolves the data wherever a live replica
    /// exists.
    retry_wires: HashMap<u64, (NodeId, IpfsWire)>,
    /// Blocks this aggregator uploaded in the current round, released at
    /// the next round (§VI ephemeral-data lifecycle).
    uploads: Vec<(NodeId, Cid)>,
    /// The fabricated gradient substituted by `Behavior::ForgeRegistration`
    /// (set once the forgery has been sent for this round).
    forged: Option<Vec<Quantized>>,
    polling: bool,
    next_req: u64,
}

impl Aggregator {
    /// Creates the aggregator for global index `g`.
    pub fn new(
        g: usize,
        topo: Arc<Topology>,
        key: Option<Arc<ProtocolKey>>,
        behavior: Behavior,
    ) -> Aggregator {
        let (partition, j) = topo.agg_role(g);
        let expected = topo.trainer_set(partition, j);
        let slots = topo.config().aggregators_per_partition;
        let signing_key = topo
            .config()
            .accountability
            .then(|| agg_signing_key(topo.config().seed, g));
        Aggregator {
            g,
            partition,
            j,
            topo,
            key,
            behavior,
            iter: 0,
            round_start: SimTime::ZERO,
            expected,
            registered: HashMap::new(),
            gradients: HashMap::new(),
            downloading: HashSet::new(),
            merges_outstanding: 0,
            merges_sent: false,
            merged: Vec::new(),
            merged_members: Vec::new(),
            partial: None,
            partial_contributors: Vec::new(),
            partials: HashMap::new(),
            slot_contributors: HashMap::new(),
            announced: HashMap::new(),
            unverified: HashMap::new(),
            accumulators: vec![None; slots],
            commitments_seen: HashMap::new(),
            pending_verify: Vec::new(),
            recovery_pending: HashMap::new(),
            recovery_grads: HashMap::new(),
            blacklist: HashSet::new(),
            accused: HashSet::new(),
            pending_evidence: Vec::new(),
            signing_key,
            equiv_honest: None,
            equiv_altered: None,
            round_recovered: false,
            update_contributors: None,
            global_sent: false,
            sync_recorded: false,
            fetch_started: false,
            deadline_degraded: false,
            merge_members: HashMap::new(),
            fallback_pending: HashSet::new(),
            in_flight: HashMap::new(),
            retry_wires: HashMap::new(),
            uploads: Vec::new(),
            forged: None,
            polling: false,
            next_req: 0,
        }
    }

    fn gateway(&self) -> NodeId {
        self.topo.aggregator_gateway(self.g)
    }

    fn multi(&self) -> bool {
        self.topo.config().aggregators_per_partition > 1
    }

    fn verifiable(&self) -> bool {
        self.key.is_some()
    }

    fn accountability(&self) -> bool {
        self.topo.config().accountability
    }

    fn fresh_req(&mut self, purpose: Request) -> u64 {
        self.next_req += 1;
        self.in_flight.insert(self.next_req, purpose);
        self.next_req
    }

    fn send_ipfs(&mut self, out: &mut Actions<Msg>, to: NodeId, wire: IpfsWire) {
        out.send(to, Msg::Ipfs(wire));
    }

    /// Sends a storage request that must survive a dead target: if no reply
    /// arrives within `fetch_timeout`, the same request (same `req`) is
    /// re-issued to the next storage node, round-robin, until the round
    /// ends or a reply lands. Late replies from earlier targets dedupe via
    /// `in_flight`.
    fn send_retryable(&mut self, out: &mut Actions<Msg>, to: NodeId, wire: IpfsWire, req: u64) {
        self.retry_wires.insert(req, (to, wire.clone()));
        out.set_timer(
            self.topo.config().fetch_timeout,
            TK_FETCH | (req & 0xFFFF_FFFF),
        );
        self.send_ipfs(out, to, wire);
    }

    fn on_fetch_retry(&mut self, out: &mut Actions<Msg>, req: u64) {
        if !self.in_flight.contains_key(&req) {
            self.retry_wires.remove(&req);
            return; // answered (or the round moved on) meanwhile
        }
        let Some((last, wire)) = self.retry_wires.get(&req).cloned() else {
            return;
        };
        let ids = self.topo.ipfs_ids();
        let idx = ids.iter().position(|n| *n == last).unwrap_or(0);
        let next = ids[(idx + 1) % ids.len()];
        self.send_retryable(out, next, wire, req);
    }

    /// How many of `expected` must be in before a degraded round may
    /// complete: the global `min_quorum` budget of missing trainers,
    /// applied to this aggregator's set.
    fn quorum_threshold(&self) -> Option<usize> {
        self.quorum_threshold_for(self.expected.len())
    }

    /// The same budget applied to a trainer set of `set_len` (used for the
    /// trainer sets recovered on a dead peer's behalf).
    fn quorum_threshold_for(&self, set_len: usize) -> Option<usize> {
        self.topo.config().min_quorum.map(|q| {
            let missing_allowed = self.topo.config().trainers - q;
            set_len.saturating_sub(missing_allowed).max(1)
        })
    }

    fn begin_round(&mut self, now: SimTime, out: &mut Actions<Msg>, iter: u64) {
        self.iter = iter;
        self.round_start = now;
        self.registered.clear();
        self.gradients.clear();
        self.downloading.clear();
        self.merges_outstanding = 0;
        self.merges_sent = false;
        self.merged.clear();
        self.merged_members.clear();
        self.partial = None;
        self.partial_contributors.clear();
        self.partials.clear();
        self.slot_contributors.clear();
        self.announced.clear();
        self.unverified.clear();
        self.accumulators = vec![None; self.topo.config().aggregators_per_partition];
        self.commitments_seen.clear();
        self.pending_verify.clear();
        self.recovery_pending.clear();
        self.recovery_grads.clear();
        self.pending_evidence.clear();
        self.equiv_honest = None;
        self.equiv_altered = None;
        self.round_recovered = false;
        self.update_contributors = None;
        self.global_sent = false;
        self.sync_recorded = false;
        self.fetch_started = false;
        self.deadline_degraded = false;
        self.merge_members.clear();
        self.fallback_pending.clear();
        self.in_flight.clear();
        self.retry_wires.clear();
        self.forged = None;

        // Release last round's partial/global update blobs.
        let replicate = self.topo.config().replication;
        for (target, cid) in std::mem::take(&mut self.uploads) {
            let unpin = IpfsWire::Unpin { cid, replicate };
            self.send_ipfs(out, target, unpin);
        }
        // (Unpins are best-effort control messages; an Offline aggregator
        // below never uploaded anything last round anyway.)
        if self.behavior == Behavior::Offline {
            return;
        }
        // Overlay mode is push-driven: the tree root delivers one composed
        // partial and this aggregator pushes one update back down. There
        // is nothing to poll for and no peer sync to deadline.
        if self.topo.overlay().is_some() {
            return;
        }
        // Direct mode receives gradients without polling, but the poll
        // loop also fetches accumulated commitments for peer verification
        // and drives dropout recovery, so it runs in every mode.
        self.start_polling(out);
        // The deadline drives peer recovery (multi-aggregator) and quorum
        // degradation, so it is armed whenever either can trigger.
        if self.multi() || self.topo.config().min_quorum.is_some() {
            out.set_timer(
                self.topo.config().t_sync,
                TK_SYNC_DEADLINE | (iter & 0xFFFF_FFFF),
            );
        }
        // Early watchdog: recover unresponsive slots well before t_sync.
        if self.multi() && self.topo.config().comm != CommMode::Direct {
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
        if j == self.j
            || self.topo.config().comm == CommMode::Direct
            || self.partials.contains_key(&j)
            || self.recovery_pending.contains_key(&j)
            || self.recovery_grads.contains_key(&j)
        {
            return;
        }
        out.record(labels::DROPOUT_RECOVERY, j as f64);
        let trainers: HashSet<usize> = self
            .topo
            .trainer_set(self.partition, j)
            .into_iter()
            .collect();
        self.recovery_pending.insert(j, trainers);
        self.recovery_grads.insert(j, HashMap::new());
        self.start_polling(out);
    }

    fn start_polling(&mut self, out: &mut Actions<Msg>) {
        if !self.polling {
            self.polling = true;
            out.set_timer(self.topo.config().poll_interval, TK_POLL);
        }
    }

    fn poll(&mut self, out: &mut Actions<Msg>) {
        let mut outstanding = false;
        // Gradient discovery (lines 28–34 of Algorithm 1).
        let grads_done = self.partial.is_some() || self.registered.len() == self.expected.len();
        if !grads_done && self.topo.config().comm != CommMode::Direct {
            outstanding = true;
            let msg = Msg::QueryGradients {
                partition: self.partition,
                agg_j: self.j,
                iter: self.iter,
            };
            out.send(self.topo.directory(), msg);
        }
        // Merge requests may need re-issuing after a MergeErr.
        if self.topo.config().comm == CommMode::MergeAndDownload
            && !self.merges_sent
            && self.partial.is_none()
            && self.merge_ready()
        {
            self.send_merges(out);
        }
        // Accumulated commitments for peer verification (§IV-B).
        if self.verifiable() && self.multi() && self.accumulators.iter().any(Option::is_none) {
            outstanding = true;
            let msg = Msg::QueryAccumulators {
                partition: self.partition,
                iter: self.iter,
            };
            out.send(self.topo.directory(), msg);
        }
        // Recovery gradient discovery; degraded-quorum verification also
        // needs peer slots' individual commitments, which ride on the same
        // gradient lists.
        let mut slot_queries: HashSet<usize> = self.recovery_pending.keys().copied().collect();
        if self.verifiable() {
            slot_queries.extend(self.unverified.keys().copied());
        }
        if !slot_queries.is_empty() {
            outstanding = true;
            let mut pending: Vec<usize> = slot_queries.into_iter().collect();
            pending.sort_unstable(); // deterministic query order
            for j in pending {
                let msg = Msg::QueryGradients {
                    partition: self.partition,
                    agg_j: j,
                    iter: self.iter,
                };
                out.send(self.topo.directory(), msg);
            }
        }
        if outstanding || !self.global_sent {
            if !self.global_sent {
                out.set_timer(self.topo.config().poll_interval, TK_POLL);
            } else {
                self.polling = false;
            }
        } else {
            self.polling = false;
        }
    }

    // -- gradient collection -------------------------------------------------

    fn on_gradient_list(
        &mut self,
        out: &mut Actions<Msg>,
        iter: u64,
        entries: Vec<(usize, Cid, Option<[u8; 33]>)>,
    ) {
        if iter != self.iter {
            return;
        }
        for (trainer, cid, commitment) in entries {
            let c = commitment.and_then(|b| ProtocolCommitment::from_bytes(&b));
            if let Some(c) = &c {
                self.commitments_seen.insert(trainer, *c);
            }
            let slot = trainer % self.topo.config().aggregators_per_partition;
            if slot == self.j {
                if self.registered.contains_key(&trainer) {
                    continue;
                }
                self.registered.insert(trainer, (cid, c));
                // Indirect mode fetches every gradient individually; merge
                // mode only fetches ones whose merge failed (fallback).
                if self.topo.config().comm == CommMode::Indirect
                    || self.fallback_pending.contains(&trainer)
                {
                    self.fetch_own_gradient(out, trainer, cid);
                }
            } else if let Some(pending) = self.recovery_pending.get_mut(&slot) {
                let Ok(provider) = self.topo.upload_target(self.partition, trainer) else {
                    continue; // direct mode never starts recovery
                };
                if pending.remove(&trainer) {
                    let req = self.fresh_req(Request::Recovery { j: slot, trainer });
                    self.send_retryable(out, provider, IpfsWire::Get { cid, req_id: req }, req);
                }
            }
        }
        // Freshly learned commitments may unblock stashed peer partials
        // and gossiped evidence.
        self.retry_unverified(out);
        // Registration forgery: once the victim's real registration exists
        // (so ours lands last and wins the directory's last-write slot),
        // register a fabricated gradient under the victim's name.
        if self.behavior == Behavior::ForgeRegistration
            && self.forged.is_none()
            && self.registered.len() == self.expected.len()
        {
            self.send_forged_registration(out);
        }
        // Merge-and-download: once every trainer of T_ij has registered
        // (or a quorum, after the deadline), issue one merge request per
        // provider (§III-E).
        if self.topo.config().comm == CommMode::MergeAndDownload
            && !self.merges_sent
            && self.merge_ready()
        {
            self.send_merges(out);
        }
    }

    /// Whether enough gradients are registered to issue the merges: the
    /// full trainer set normally, or the quorum threshold once the round
    /// is deadline-degraded.
    fn merge_ready(&self) -> bool {
        self.registered.len() == self.expected.len()
            || (self.deadline_degraded
                && self
                    .quorum_threshold()
                    .is_some_and(|th| self.registered.len() >= th))
    }

    fn fetch_own_gradient(&mut self, out: &mut Actions<Msg>, trainer: usize, cid: Cid) {
        if self.downloading.contains(&trainer) || self.gradients.contains_key(&trainer) {
            return;
        }
        // Fetch straight from the storage node the trainer uploaded to
        // (bitswap-style direct retrieval from the provider).
        let Ok(provider) = self.topo.upload_target(self.partition, trainer) else {
            return; // direct mode receives gradients over the wire instead
        };
        self.mark_fetch_start(out);
        self.downloading.insert(trainer);
        let req = self.fresh_req(Request::OwnGradient { trainer });
        self.send_retryable(out, provider, IpfsWire::Get { cid, req_id: req }, req);
    }

    /// Marks the start of this round's gradient-gathering span (merge
    /// delay = `GRADS_AGGREGATED − FETCH_START`); no-op after the first
    /// fetch of the round.
    fn mark_fetch_start(&mut self, out: &mut Actions<Msg>) {
        if !self.fetch_started {
            self.fetch_started = true;
            out.record(labels::FETCH_START, self.iter as f64);
        }
    }

    fn send_merges(&mut self, out: &mut Actions<Msg>) {
        self.merges_sent = true;
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
            let Some(&(cid, _)) = self.registered.get(&t) else {
                continue;
            };
            let Ok(provider) = self.topo.upload_target(self.partition, t) else {
                continue; // merges only exist when storage is in the path
            };
            by_provider.entry(provider).or_default().push((t, cid));
        }
        let mut providers: Vec<NodeId> = by_provider.keys().copied().collect();
        providers.sort_unstable_by_key(|n| n.index());
        self.merges_outstanding = providers.len();
        for provider in providers {
            // The member lists derive from directory registration state —
            // remote, possibly Byzantine input. A provider with no group
            // is booked and skipped, never a panic.
            let members = match Self::take_provider_group(&mut by_provider, provider) {
                Ok(members) => members,
                Err(_) => {
                    self.merges_outstanding -= 1;
                    out.incr(labels::UNLISTED_PROVIDER, 1);
                    continue;
                }
            };
            let cids = members.iter().map(|&(_, cid)| cid).collect();
            let req = self.fresh_req(Request::Merged);
            self.merge_members.insert(req, members);
            self.send_retryable(out, provider, IpfsWire::Merge { cids, req_id: req }, req);
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
        let fake_blob =
            crate::gradient::build_blob(&vec![0.0f32; self.topo.partition_len(self.partition)]);
        let commitment = self.key.as_ref().map(|key| {
            commit_blob(key, &fake_blob)
                .expect("locally built fabrication is well-formed")
                .to_bytes()
        });
        let msg = Msg::RegisterGradient {
            trainer: victim,
            partition: self.partition,
            iter: self.iter,
            cid: Cid::of(&fake_blob),
            commitment,
            signature: None, // cannot be forged without the trainer's key
        };
        out.send(self.topo.directory(), msg);
        self.forged = Some(decode_blob(&fake_blob).expect("well-formed fabrication"));
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
        self.downloading.remove(&trainer);
        self.fallback_pending.remove(&trainer);
        let Some(vector) = decode_blob(data) else {
            return;
        };
        // In verifiable mode, check the blob against the trainer's
        // registered commitment before trusting it.
        if let (Some(key), Some((_, Some(commitment)))) =
            (self.key.clone(), self.registered.get(&trainer).cloned())
        {
            if self.topo.config().batch_verify {
                // Deferred mode: admit the vector optimistically and queue
                // the blob; the flush in `maybe_aggregate` evicts it again
                // if the batch check names it. Count it now — the instant
                // the per-blob path verifies — so `blobs_verified` totals
                // match per-blob mode even in rounds that never flush.
                out.incr(labels::BLOBS_VERIFIED, 1);
                self.pending_verify
                    .push((trainer, data.clone(), commitment));
            } else if !verify_blob_timed(out, &key, data, &commitment) {
                return; // corrupt gradient; the poll loop will retry
            }
        }
        self.gradients.insert(trainer, vector);
        self.maybe_aggregate(out);
    }

    fn on_merged(&mut self, out: &mut Actions<Msg>, members: &[(usize, Cid)], data: &[u8]) {
        let Some(vector) = decode_blob(data) else {
            return;
        };
        // Verify the merged blob against the product of its members'
        // commitments (§IV-B merge extension). The directory gave us each
        // trainer's commitment with the gradient list.
        // Note: with drops in play the member set is what we requested.
        self.merged.push(vector);
        self.merged_members.extend(members.iter().map(|&(t, _)| t));
        self.merges_outstanding -= 1;
        self.maybe_aggregate(out);
    }

    /// Whether `have` gradients satisfy the aggregation precondition: the
    /// full `needed` set normally, or the quorum threshold once the round
    /// is deadline-degraded.
    fn have_enough(&self, have: usize, needed: usize) -> bool {
        have >= needed
            || (self.deadline_degraded && self.quorum_threshold().is_some_and(|th| have >= th))
    }

    /// Settles the deferred verification queue (`batch_verify` mode): one
    /// RLC batch check over every own-set blob admitted optimistically
    /// since the last flush, bisecting on failure so exactly the corrupt
    /// blobs are evicted from `gradients` — the same state an
    /// arrival-time per-blob rejection leaves (`registered` keeps its
    /// entry in both modes). Returns the number of culprits.
    fn flush_pending_verify(&mut self, out: &mut Actions<Msg>) -> usize {
        if self.pending_verify.is_empty() {
            return 0;
        }
        let pending = std::mem::take(&mut self.pending_verify);
        let Some(key) = self.key.clone() else {
            return 0; // unreachable: entries only queue in verifiable mode
        };
        let items: Vec<(&[u8], &ProtocolCommitment)> =
            pending.iter().map(|(_, blob, c)| (&blob[..], c)).collect();
        // Blobs were counted at enqueue time; the flush books only the
        // wall-clock and batch-size metrics.
        let culprits = flush_verify_queue(out, &key, &items);
        for &i in &culprits {
            self.gradients.remove(&pending[i].0);
        }
        culprits.len()
    }

    fn maybe_aggregate(&mut self, out: &mut Actions<Msg>) {
        if self.partial.is_some() {
            // Stragglers admitted after aggregation (quorum-degraded
            // rounds) still get their deferred check here, at the same
            // instant the per-blob path would have verified them.
            self.flush_pending_verify(out);
            return;
        }
        let (vectors, contributors): (Vec<Vec<Quantized>>, Vec<usize>) =
            match self.topo.config().comm {
                CommMode::MergeAndDownload => {
                    if !self.merges_sent
                        || self.merges_outstanding > 0
                        || !self.fallback_pending.is_empty()
                    {
                        return;
                    }
                    // Fallback fetches were admitted optimistically in
                    // batch mode; settle them before summing. A convicted
                    // blob simply drops out of the fallback set, exactly
                    // as an arrival-time rejection would have kept it out.
                    self.flush_pending_verify(out);
                    // Merged blobs plus any gradients fetched individually
                    // after a failed merge, in deterministic trainer order.
                    let mut vectors = self.merged.clone();
                    let mut fallback: Vec<usize> = self.gradients.keys().copied().collect();
                    fallback.sort_unstable();
                    vectors.extend(fallback.iter().map(|t| self.gradients[t].clone()));
                    let mut contributors = self.merged_members.clone();
                    contributors.extend(fallback);
                    contributors.sort_unstable();
                    (vectors, contributors)
                }
                _ => {
                    let dropped = self.dropped_trainers();
                    let needed: Vec<usize> = self
                        .expected
                        .iter()
                        .filter(|t| !dropped.contains(t))
                        .copied()
                        .collect();
                    let mut have: Vec<usize> = needed
                        .iter()
                        .filter(|t| self.gradients.contains_key(t))
                        .copied()
                        .collect();
                    // Normally wait for the full set; a deadline-degraded
                    // round may proceed once the quorum is in.
                    if !self.have_enough(have.len(), needed.len()) {
                        return;
                    }
                    // The round boundary: settle the deferred batch, then
                    // re-check — an evicted culprit may put the set back
                    // below quorum, in which case the round waits exactly
                    // as it would have had the blob been rejected at
                    // arrival.
                    if self.flush_pending_verify(out) > 0 {
                        have.retain(|t| self.gradients.contains_key(t));
                        if !self.have_enough(have.len(), needed.len()) {
                            return;
                        }
                    }
                    let vectors = if self.behavior == Behavior::ForgeRegistration {
                        let Some(fake) = self.forged.clone() else {
                            return;
                        };
                        // Substitute the fabricated gradient for the victim's.
                        have.iter()
                            .map(|t| {
                                if *t == self.expected[0] {
                                    fake.clone()
                                } else {
                                    self.gradients[t].clone()
                                }
                            })
                            .collect()
                    } else {
                        have.iter().map(|t| self.gradients[t].clone()).collect()
                    };
                    (vectors, have)
                }
            };
        if vectors.is_empty() {
            return;
        }
        let partial = match sum_gradients(&vectors) {
            Ok(partial) => partial,
            Err(_) => {
                out.record(labels::SUM_OVERFLOW, self.iter as f64);
                return;
            }
        };
        out.record(labels::GRADS_AGGREGATED, self.iter as f64);
        self.partial = Some(partial.clone());
        self.partial_contributors = contributors.clone();
        self.partials.insert(self.j, partial.clone());
        self.slot_contributors.insert(self.j, contributors);

        if self.multi() {
            // Upload the partial, then announce its hash over pub/sub.
            let gw = self.gateway();
            self.put(out, Request::PutPartial, gw, encode(&partial), 1);
            if self.behavior == Behavior::Equivocate {
                // A second, poisoned variant of the partial: announced to
                // half the peers in place of the honest one.
                let mut altered = partial.clone();
                altered[0] = Quantized(altered[0].0 + (1 << 20));
                self.put(out, Request::PutAltered, gw, encode(&altered), 1);
            }
        } else {
            self.finish_global(out);
        }
    }

    /// Ranks of `partial_contributors` within `T_ij` (the announce format).
    fn contributor_ranks(&self) -> Vec<u16> {
        self.partial_contributors
            .iter()
            .filter_map(|t| self.expected.iter().position(|e| e == t))
            .map(|r| r as u16)
            .collect()
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
            iter: self.iter,
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
        self.retry_wires.remove(&req_id);
        match self.in_flight.remove(&req_id) {
            Some(Request::PutPartial) => {
                self.uploads.push((self.gateway(), cid));
                if self.behavior == Behavior::Equivocate {
                    // Withhold the honest topic publish: each peer receives
                    // its own (forged) per-peer announcement instead.
                    self.equiv_honest = Some(cid);
                    self.maybe_equivocate(out);
                    return;
                }
                let announce = self.signed_announce(cid);
                let publish = IpfsWire::Publish {
                    topic: self.topo.sync_topic(self.partition),
                    data: Bytes::from(announce.encode()),
                };
                let gw = self.gateway();
                self.send_ipfs(out, gw, publish);
                self.maybe_finish_sync(out);
            }
            Some(Request::PutAltered) => {
                self.uploads.push((self.gateway(), cid));
                self.equiv_altered = Some(cid);
                self.maybe_equivocate(out);
            }
            Some(Request::PutGlobal) => {
                let gw = match self.topo.config().comm {
                    CommMode::Direct => self.topo.ipfs_node(self.g % self.topo.config().ipfs_nodes),
                    _ => self.gateway(),
                };
                self.uploads.push((gw, cid));
                let contributors = self.update_contributors.clone();
                let signature = self.signing_key.as_ref().map(|sk| {
                    let msg =
                        update_message(self.g, self.partition, self.iter, &cid, &contributors);
                    sk.sign(&msg).to_bytes()
                });
                let msg = Msg::RegisterUpdate {
                    aggregator: self.g,
                    partition: self.partition,
                    iter: self.iter,
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
        let (Some(honest), Some(altered)) = (self.equiv_honest, self.equiv_altered) else {
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
            self.send_ipfs(out, peer, deliver);
        }
        self.maybe_finish_sync(out);
    }

    fn on_deliver(&mut self, out: &mut Actions<Msg>, topic: &str, data: &[u8]) {
        if topic == EVIDENCE_TOPIC {
            self.on_evidence(out, data);
            return;
        }
        let Some(ann) = SyncAnnounce::decode(data) else {
            return;
        };
        if ann.partition != self.partition || ann.iter != self.iter || ann.agg_j == self.j {
            return;
        }
        if self.partials.contains_key(&ann.agg_j)
            || self.announced.contains_key(&ann.agg_j)
            || self.blacklist.contains(&ann.agg_j)
        {
            return;
        }
        // Accountability mode only acts on *signed* announcements: the
        // signature is what makes a later commitment mismatch attributable.
        if self.accountability() {
            let Some(sig) = ann.signature.and_then(|b| Signature::from_bytes(&b)) else {
                return;
            };
            let sender = self.topo.agg_index(self.partition, ann.agg_j);
            let vk = agg_verifying_key(self.topo.config().seed, sender);
            if !vk.verify(&ann.message(), &sig) {
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
        if !ann.contributors.is_empty() && ann.contributors.len() < set_len {
            let below_quorum = match self.quorum_threshold_for(set_len) {
                Some(th) => ann.contributors.len() < th,
                None => true, // no quorum configured: only full claims are honest
            };
            if below_quorum && self.accountability() {
                self.blacklist_peer(out, ann.agg_j);
                return;
            }
        }
        let cid = ann.cid;
        let j = ann.agg_j;
        self.announced.insert(j, ann);
        let req = self.fresh_req(Request::PeerPartial { j });
        // Partials are stored on the announcing peer's gateway; fetch from
        // there directly.
        let peer_gateway = self
            .topo
            .aggregator_gateway(self.topo.agg_index(self.partition, j));
        self.send_retryable(out, peer_gateway, IpfsWire::Get { cid, req_id: req }, req);
    }

    /// The accumulated commitment an announced partial must open: the full
    /// slot accumulator when no quorum is configured or the claim covers
    /// the whole trainer set, else the product of the claimed subset's
    /// individual registered commitments. `None` while the inputs are
    /// still unknown (the poll loop keeps querying).
    fn expected_accumulator(&self, ann: &SyncAnnounce) -> Option<ProtocolCommitment> {
        let set = self.topo.trainer_set(self.partition, ann.agg_j);
        let full_claim = ann.contributors.is_empty() || ann.contributors.len() == set.len();
        if self.topo.config().min_quorum.is_none() || full_claim {
            self.accumulators[ann.agg_j]
        } else {
            let mut acc = ProtocolCommitment::identity();
            for &r in &ann.contributors {
                let t = set.get(r as usize)?;
                acc = acc.combine(self.commitments_seen.get(t)?);
            }
            Some(acc)
        }
    }

    fn on_peer_partial(&mut self, out: &mut Actions<Msg>, j: usize, data: &Bytes) {
        self.process_peer_partial(out, j, data, None);
    }

    /// Handles one peer partial. `verdict` carries a verification result
    /// precomputed by the batched stash drain ([`Self::retry_unverified`]);
    /// `None` means verify here (the per-blob path).
    fn process_peer_partial(
        &mut self,
        out: &mut Actions<Msg>,
        j: usize,
        data: &Bytes,
        verdict: Option<bool>,
    ) {
        if self.partials.contains_key(&j) || self.blacklist.contains(&j) {
            return;
        }
        let Some(ann) = self.announced.get(&j).cloned() else {
            return;
        };
        if self.verifiable() {
            match self.expected_accumulator(&ann) {
                Some(acc) => {
                    let valid = match verdict {
                        Some(v) => v,
                        None => {
                            // Truly local invariant: verifiable() is the
                            // key's presence test, never remote input.
                            let key = self.key.as_ref().expect("verifiable").clone();
                            verify_blob_timed(out, &key, data, &acc)
                        }
                    };
                    if !valid {
                        // Provably malicious partial: in accountability
                        // mode, package the transferable evidence and
                        // recover the slot immediately; otherwise ignore it
                        // and let the sync deadline trigger recovery.
                        self.unverified.remove(&j);
                        if self.accountability() {
                            self.convict_peer(out, &ann, &acc, data);
                        }
                        return;
                    }
                }
                None => {
                    // Accumulators/commitments not known yet; stash and
                    // re-check once the poll loop learns them.
                    self.unverified.insert(j, data.clone());
                    return;
                }
            }
        }
        let Some(vector) = decode_blob(data) else {
            return;
        };
        self.unverified.remove(&j);
        self.announced.remove(&j);
        let set = self.topo.trainer_set(self.partition, j);
        let claimed: Vec<usize> = if ann.contributors.is_empty() {
            set
        } else {
            ann.contributors.iter().map(|&r| set[r as usize]).collect()
        };
        self.slot_contributors.insert(j, claimed);
        self.partials.insert(j, vector);
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
        if !self.accused.insert((offender, self.iter)) {
            return; // already reported this offender for this round
        }
        out.record(labels::MISBEHAVIOR_DETECTED, offender as f64);
        let mut record = Misbehavior {
            kind: MisbehaviorKind::BadPartial,
            partition: self.partition,
            agg_j: ann.agg_j,
            iter: self.iter,
            cid: ann.cid,
            contributors: ann.contributors.iter().map(|&r| r as u32).collect(),
            accumulator: expected.to_bytes(),
            blob: blob.to_vec(),
            offender_sig,
            detector: 0,
            detector_sig: [0u8; 65],
        };
        // Truly local invariant: convictions only happen in accountability
        // mode, which derives the signing key at construction.
        let sk = self.signing_key.as_ref().expect("accountability keys");
        record.sign_as_detector(self.g as u64, sk);
        let bytes = record.encode();
        let publish = IpfsWire::Publish {
            topic: EVIDENCE_TOPIC.to_string(),
            data: Bytes::from(bytes.clone()),
        };
        let gw = self.gateway();
        self.send_ipfs(out, gw, publish);
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
        self.announced.remove(&j);
        self.unverified.remove(&j);
        self.start_recovery(out, j);
    }

    /// Handles gossiped misbehavior evidence: independently re-verify, and
    /// blacklist the offender if the proof holds. Records that cannot be
    /// checked yet (accumulator still unknown) are parked and retried as
    /// the round's commitments arrive.
    fn on_evidence(&mut self, out: &mut Actions<Msg>, data: &[u8]) {
        if !self.accountability() {
            return;
        }
        let Some(record) = Misbehavior::decode(data) else {
            return;
        };
        self.consider_evidence(out, record);
    }

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
        match self.evidence_expected(&record) {
            Some(expected) => {
                // Truly local invariant: on_evidence gates on
                // accountability(), and validate ties that to verifiable —
                // the commitment key exists whenever evidence is handled.
                let key = self.key.as_ref().expect("accountability keys").clone();
                let slots = self.topo.config().aggregators_per_partition;
                if record.verify(&key, self.topo.config().seed, slots, &expected) {
                    self.blacklist_peer(out, record.agg_j);
                }
            }
            None => self.pending_evidence.push(record),
        }
    }

    /// Independently derives the accumulated commitment a gossiped evidence
    /// record's claim must be checked against (same rule as
    /// [`Self::expected_accumulator`]).
    fn evidence_expected(&self, record: &Misbehavior) -> Option<ProtocolCommitment> {
        match record.kind {
            MisbehaviorKind::BadPartial => {
                let set = self.topo.trainer_set(record.partition, record.agg_j);
                let full_claim =
                    record.contributors.is_empty() || record.contributors.len() == set.len();
                if self.topo.config().min_quorum.is_none() || full_claim {
                    self.accumulators[record.agg_j]
                } else {
                    let mut acc = ProtocolCommitment::identity();
                    for &r in &record.contributors {
                        let t = set.get(r as usize)?;
                        acc = acc.combine(self.commitments_seen.get(t)?);
                    }
                    Some(acc)
                }
            }
            MisbehaviorKind::BadUpdate => {
                // A global update must open the product over its claimed
                // contributors (the full membership when empty).
                let contributors: Vec<usize> = if record.contributors.is_empty() {
                    (0..self.topo.config().trainers).collect()
                } else {
                    record.contributors.iter().map(|&t| t as usize).collect()
                };
                let mut acc = ProtocolCommitment::identity();
                for t in contributors {
                    acc = acc.combine(self.commitments_seen.get(&t)?);
                }
                Some(acc)
            }
        }
    }

    /// Re-runs verification for stashed peer partials and parked evidence
    /// once new commitments or accumulators arrive. In `batch_verify` mode
    /// the whole drain is checked with one RLC batch up front; the
    /// per-item processing below then replays the per-blob event order
    /// (convictions, inserts, sync completion) using the precomputed
    /// verdicts, so both modes produce identical event streams and name
    /// identical culprits.
    fn retry_unverified(&mut self, out: &mut Actions<Msg>) {
        let mut stashed: Vec<(usize, Bytes)> = self.unverified.drain().collect();
        stashed.sort_unstable_by_key(|(j, _)| *j); // deterministic order
        let mut verdicts: Vec<Option<bool>> = vec![None; stashed.len()];
        if self.topo.config().batch_verify && !stashed.is_empty() {
            if let Some(key) = self.key.clone() {
                // Precompute only for items the per-item pass would verify
                // now: announced, not settled, accumulator known. The rest
                // keep `None` and re-stash below, as per-blob mode does.
                let mut idx: Vec<usize> = Vec::new();
                let mut accs: Vec<ProtocolCommitment> = Vec::new();
                for (i, (j, _)) in stashed.iter().enumerate() {
                    if self.partials.contains_key(j) || self.blacklist.contains(j) {
                        continue;
                    }
                    let Some(ann) = self.announced.get(j) else {
                        continue;
                    };
                    if let Some(acc) = self.expected_accumulator(ann) {
                        idx.push(i);
                        accs.push(acc);
                    }
                }
                let items: Vec<(&[u8], &ProtocolCommitment)> = idx
                    .iter()
                    .zip(&accs)
                    .map(|(&i, acc)| (&stashed[i].1[..], acc))
                    .collect();
                let culprits = verify_blobs_timed(out, &key, &items);
                for (k, &i) in idx.iter().enumerate() {
                    verdicts[i] = Some(!culprits.contains(&k));
                }
            }
        }
        for (i, (j, blob)) in stashed.iter().enumerate() {
            self.process_peer_partial(out, *j, blob, verdicts[i]);
        }
        let parked = std::mem::take(&mut self.pending_evidence);
        for record in parked {
            self.consider_evidence(out, record);
        }
    }

    fn on_accumulators(&mut self, out: &mut Actions<Msg>, accumulated: Vec<Option<[u8; 33]>>) {
        for (j, bytes) in accumulated.into_iter().enumerate() {
            if self.accumulators[j].is_none() {
                self.accumulators[j] = bytes.and_then(|b| ProtocolCommitment::from_bytes(&b));
            }
        }
        self.retry_unverified(out);
    }

    fn maybe_finish_sync(&mut self, out: &mut Actions<Msg>) {
        if self.global_sent || self.partial.is_none() {
            return;
        }
        let slots = self.topo.config().aggregators_per_partition;
        // A slot is satisfied by a verified peer partial or by recovery.
        let mut vectors = Vec::with_capacity(slots);
        let mut contributors: Vec<u32> = Vec::new();
        let mut recovered = false;
        for j in 0..slots {
            if let Some(v) = self.partials.get(&j) {
                vectors.push(v.clone());
                match self.slot_contributors.get(&j) {
                    Some(set) => contributors.extend(set.iter().map(|&t| t as u32)),
                    None => contributors.extend(
                        self.topo
                            .trainer_set(self.partition, j)
                            .iter()
                            .map(|&t| t as u32),
                    ),
                }
            } else if let Some(grads) = self.recovery_grads.get(&j) {
                // Recovery normally needs the peer's whole trainer set; a
                // deadline-degraded round accepts the per-set quorum.
                let want = self.topo.trainer_set(self.partition, j).len();
                let enough = grads.len() == want
                    || (self.deadline_degraded
                        && self
                            .quorum_threshold_for(want)
                            .is_some_and(|th| grads.len() >= th));
                if !enough || grads.is_empty() {
                    return;
                }
                // Deterministic trainer order; the i128 sum is order-
                // independent anyway, so the recovered slot reproduces the
                // honest partial bit for bit.
                let mut members: Vec<usize> = grads.keys().copied().collect();
                members.sort_unstable();
                let recovered_vecs: Vec<Vec<Quantized>> =
                    members.iter().map(|t| grads[t].clone()).collect();
                match sum_gradients(&recovered_vecs) {
                    Ok(sum) => vectors.push(sum),
                    Err(_) => {
                        out.record(labels::SUM_OVERFLOW, self.iter as f64);
                        return;
                    }
                }
                contributors.extend(members.iter().map(|&t| t as u32));
                recovered = true;
            } else {
                return;
            }
        }
        if recovered && !self.round_recovered {
            self.round_recovered = true;
            out.record(labels::ROUND_RECOVERED, self.iter as f64);
        }
        contributors.sort_unstable();
        contributors.dedup();
        self.update_contributors = if contributors.len() == self.topo.config().trainers {
            None // full membership: the common case
        } else {
            Some(contributors)
        };
        if !self.sync_recorded {
            self.sync_recorded = true;
            out.record(labels::SYNC_DONE, self.iter as f64);
        }
        let global = match sum_gradients(&vectors) {
            Ok(global) => global,
            Err(_) => {
                out.record(labels::SUM_OVERFLOW, self.iter as f64);
                return;
            }
        };
        self.upload_global(out, global);
    }

    fn finish_global(&mut self, out: &mut Actions<Msg>) {
        if self.global_sent {
            return;
        }
        self.update_contributors = if self.partial_contributors.len() == self.topo.config().trainers
        {
            None
        } else {
            Some(
                self.partial_contributors
                    .iter()
                    .map(|&t| t as u32)
                    .collect(),
            )
        };
        if !self.sync_recorded {
            self.sync_recorded = true;
            out.record(labels::SYNC_DONE, self.iter as f64);
        }
        // Truly local invariant: finish_global's only caller runs after
        // this aggregator computed its own partial.
        let global = self.partial.clone().expect("partial computed");
        self.upload_global(out, global);
    }

    fn upload_global(&mut self, out: &mut Actions<Msg>, mut global: Vec<Quantized>) {
        self.global_sent = true;
        if self.behavior == Behavior::AlterUpdate {
            // Poison the first element (correctness violation, §III-A).
            global[0] = Quantized(global[0].0 + (1 << 20));
        }
        let blob = encode(&global);
        match self.topo.config().comm {
            CommMode::Direct => {
                // Even original IPLS writes the update somewhere the
                // trainers can fetch it; we reuse storage for that leg.
                let gw = self.topo.ipfs_node(self.g % self.topo.config().ipfs_nodes);
                self.put(out, Request::PutGlobal, gw, blob, 1);
            }
            _ => {
                let replicate = self.topo.config().replication;
                self.put(out, Request::PutGlobal, self.gateway(), blob, replicate);
            }
        }
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
        let req_id = self.fresh_req(purpose);
        let data = Bytes::from(blob);
        let wire = IpfsWire::Put {
            data,
            req_id,
            replicate,
        };
        self.send_retryable(out, gw, wire, req_id);
    }

    // -- dropout recovery ----------------------------------------------------

    fn on_sync_deadline(&mut self, out: &mut Actions<Msg>, iter: u64) {
        if iter != self.iter || self.global_sent || self.behavior == Behavior::Offline {
            return;
        }
        // t_sync is a hard deadline: with `min_quorum` configured, stop
        // waiting for trainers that never delivered and complete the round
        // with what arrived. The FedAvg denominator scales automatically —
        // blobs carry a contribution counter that averaging divides by.
        if self.quorum_threshold().is_some() && !self.deadline_degraded {
            self.deadline_degraded = true;
            let received = match self.topo.config().comm {
                CommMode::Direct => self.gradients.len(),
                _ => self.registered.len(),
            };
            let missing = self.expected.len().saturating_sub(received);
            out.record(labels::QUORUM_DEGRADED, missing as f64);
            if self.topo.config().comm == CommMode::MergeAndDownload
                && !self.merges_sent
                && self.merge_ready()
            {
                self.send_merges(out);
            }
            self.maybe_aggregate(out);
            self.maybe_finish_sync(out);
            if self.global_sent {
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
        let slots = self.topo.config().aggregators_per_partition;
        for j in 0..slots {
            if j == self.j || self.partials.contains_key(&j) {
                continue;
            }
            if self.accountability() && !self.announced.contains_key(&j) {
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
        if iter != self.iter || self.global_sent {
            return;
        }
        let slots = self.topo.config().aggregators_per_partition;
        for j in 0..slots {
            if self.partials.contains_key(&j)
                || self.announced.contains_key(&j)
                || self.unverified.contains_key(&j)
            {
                continue; // alive (or mid-verification): let it finish
            }
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
        let Some(vector) = decode_blob(data) else {
            return;
        };
        // Each recovered blob is checked against the trainer's registered
        // commitment: recovery must reproduce the honest partial exactly,
        // so a corrupt storage copy is refetched rather than summed.
        if let Some(key) = self.key.clone() {
            let valid = match self.commitments_seen.get(&trainer).cloned() {
                // Recovered blobs arrive as separate storage replies, so
                // batch mode sees them as singleton batches — same ledger,
                // same `WASTED_BYTES` timing on a corrupt copy.
                Some(c) if self.topo.config().batch_verify => {
                    verify_blobs_timed(out, &key, &[(data, &c)]).is_empty()
                }
                Some(c) => verify_blob_timed(out, &key, data, &c),
                None => false,
            };
            if !valid {
                out.record(labels::WASTED_BYTES, data.len() as f64);
                self.recovery_pending.entry(j).or_default().insert(trainer);
                self.start_polling(out);
                return;
            }
        }
        if let Some(grads) = self.recovery_grads.get_mut(&j) {
            grads.insert(trainer, vector);
        }
        self.maybe_finish_sync(out);
    }
}

impl ProtocolCore for Aggregator {
    type Msg = Msg;

    fn handle(&mut self, now: SimTime, event: ProtocolEvent<Msg>, out: &mut Actions<Msg>) {
        match event {
            ProtocolEvent::Start => self.on_start(out),
            ProtocolEvent::Message { msg, .. } => self.on_message(now, out, msg),
            ProtocolEvent::Timer { token } => self.on_timer(out, token),
            ProtocolEvent::Fault { .. } => {}
            ProtocolEvent::DeliveryFailure { .. } => out.incr(labels::DELIVERY_FAILED, 1),
        }
    }
}

impl Aggregator {
    fn on_start(&mut self, out: &mut Actions<Msg>) {
        // Subscribe once to the partition's sync topic (pub/sub, §IV-B).
        if self.multi() && self.behavior != Behavior::Offline {
            let sub = IpfsWire::Subscribe {
                topic: self.topo.sync_topic(self.partition),
            };
            let gw = self.gateway();
            self.send_ipfs(out, gw, sub);
        }
        // Evidence gossip rides its own topic (accountability mode).
        if self.accountability() && self.behavior != Behavior::Offline {
            let sub = IpfsWire::Subscribe {
                topic: EVIDENCE_TOPIC.to_string(),
            };
            let gw = self.gateway();
            self.send_ipfs(out, gw, sub);
        }
    }

    fn on_message(&mut self, now: SimTime, out: &mut Actions<Msg>, msg: Msg) {
        if self.behavior == Behavior::Offline {
            return;
        }
        match msg {
            Msg::StartRound { iter } => self.begin_round(now, out, iter),
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
            } if partition == self.partition && iter == self.iter => {
                self.on_accumulators(out, accumulated);
            }
            Msg::DirectGradient {
                trainer,
                partition,
                iter,
                data,
            } if partition == self.partition && iter == self.iter => {
                if self.dropped_trainers().contains(&trainer) {
                    return;
                }
                if let Some(vector) = decode_blob(&data) {
                    self.gradients.insert(trainer, vector);
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
            Msg::Ipfs(IpfsWire::GetOk { data, req_id, .. }) => {
                self.retry_wires.remove(&req_id);
                match self.in_flight.remove(&req_id) {
                    Some(Request::OwnGradient { trainer }) => {
                        self.on_own_gradient(out, trainer, &data)
                    }
                    Some(Request::PeerPartial { j }) => self.on_peer_partial(out, j, &data),
                    Some(Request::Recovery { j, trainer }) => {
                        self.on_recovery_gradient(out, j, trainer, &data)
                    }
                    _ => {}
                }
            }
            Msg::Ipfs(IpfsWire::GetErr { req_id, .. }) => {
                self.retry_wires.remove(&req_id);
                // Allow retries through the poll loop.
                match self.in_flight.remove(&req_id) {
                    Some(Request::OwnGradient { trainer }) => {
                        self.downloading.remove(&trainer);
                        self.registered.remove(&trainer);
                    }
                    Some(Request::Recovery { j, trainer }) => {
                        self.recovery_pending.entry(j).or_default().insert(trainer);
                    }
                    _ => {}
                }
            }
            Msg::Ipfs(IpfsWire::MergeOk { data, req_id }) => {
                self.retry_wires.remove(&req_id);
                let members = self.merge_members.remove(&req_id).unwrap_or_default();
                if let Some(Request::Merged) = self.in_flight.remove(&req_id) {
                    self.on_merged(out, &members, &data);
                }
            }
            Msg::Ipfs(IpfsWire::MergeErr { req_id, .. }) => {
                self.retry_wires.remove(&req_id);
                // Degrade this merge to plain per-CID fetches of its
                // members; each Get fails over across replicas at the
                // storage layer, so one unmergeable blob no longer forces
                // re-merging everything through the poll loop.
                if let Some(Request::Merged) = self.in_flight.remove(&req_id) {
                    self.merges_outstanding = self.merges_outstanding.saturating_sub(1);
                    let members = self.merge_members.remove(&req_id).unwrap_or_default();
                    out.record(labels::MERGE_FALLBACK, members.len() as f64);
                    for (trainer, cid) in members {
                        if self.gradients.contains_key(&trainer) {
                            continue;
                        }
                        self.fallback_pending.insert(trainer);
                        self.fetch_own_gradient(out, trainer, cid);
                    }
                    self.maybe_aggregate(out);
                }
            }
            Msg::Ipfs(IpfsWire::Deliver { topic, data, .. }) => {
                self.on_deliver(out, &topic, &data);
            }
            Msg::OverlayPartial {
                trainer,
                partition,
                iter,
                data,
                count,
                commitment,
                signature,
            } => self.on_overlay_partial(
                out, trainer, partition, iter, &data, count, commitment, signature,
            ),
            _ => {}
        }
    }

    /// Overlay mode: the tree root delivered the fully composed partial
    /// for this partition. Verify the composed Pedersen opening (and the
    /// root's signature), then push the final update back down the tree.
    ///
    /// The root's blob bytes are reused **verbatim** as the update payload:
    /// they already encode the exact i128 sum the flat path would compute
    /// over the same leaves, so flat and overlay rounds produce
    /// bit-identical models.
    #[allow(clippy::too_many_arguments)]
    fn on_overlay_partial(
        &mut self,
        out: &mut Actions<Msg>,
        trainer: usize,
        partition: usize,
        iter: u64,
        data: &Bytes,
        count: u64,
        commitment: [u8; 33],
        signature: Option<[u8; 65]>,
    ) {
        let Some(tree) = self.topo.overlay() else {
            return; // flat mode: stray frame, nothing listens here
        };
        if self.behavior == Behavior::Offline {
            return;
        }
        // Every message processed in overlay mode is booked: per-node
        // event counts of this label are the bench's per-aggregator work
        // measurement (bounded by partitions, not by trainers).
        out.record(labels::OVERLAY_AGG_MSG, iter as f64);
        if iter != self.iter || self.global_sent {
            return;
        }
        // Only the tree root speaks for the swarm, and only for my
        // partition.
        if partition != self.partition || trainer != tree.root() {
            out.record(labels::OVERLAY_PARTIAL_REJECTED, trainer as f64);
            return;
        }
        let Some(point) = ProtocolCommitment::from_bytes(&commitment) else {
            out.record(labels::OVERLAY_PARTIAL_REJECTED, trainer as f64);
            return;
        };
        if self.topo.config().authenticate {
            let seed = self.topo.config().seed.to_be_bytes();
            let vk = SigningKey::<ProtocolCurve>::derive(&seed, trainer as u64).verifying_key();
            let msg = overlay_partial_message(
                trainer,
                partition,
                iter,
                count,
                &Cid::of(data),
                &commitment,
            );
            let authentic = signature
                .and_then(|b| Signature::<ProtocolCurve>::from_bytes(&b))
                .is_some_and(|sig| vk.verify(&msg, &sig));
            if !authentic {
                out.record(labels::OVERLAY_PARTIAL_REJECTED, trainer as f64);
                return;
            }
        }
        // Truly local invariant: TaskConfig::validate requires verifiable
        // mode for the overlay, so the commitment key exists.
        let key = self
            .key
            .as_ref()
            .expect("overlay requires verifiable mode")
            .clone();
        if !verify_blob_timed(out, &key, data, &point) {
            out.record(labels::OVERLAY_PARTIAL_REJECTED, trainer as f64);
            return;
        }
        out.record(labels::GRADS_AGGREGATED, self.iter as f64);
        out.record(labels::SYNC_DONE, self.iter as f64);
        self.global_sent = true;
        let cid = Cid::of(data);
        let update_sig = self.topo.config().authenticate.then(|| {
            let msg = overlay_update_message(self.g, self.partition, self.iter, &cid);
            agg_signing_key(self.topo.config().seed, self.g)
                .sign(&msg)
                .to_bytes()
        });
        out.send(
            self.topo.trainer(tree.root()),
            Msg::OverlayUpdate {
                partition: self.partition,
                iter: self.iter,
                data: data.clone(),
                signature: update_sig,
            },
        );
        out.record(labels::OVERLAY_UPDATE_PUSHED, self.iter as f64);
    }

    fn on_timer(&mut self, out: &mut Actions<Msg>, token: u64) {
        if self.behavior == Behavior::Offline {
            return;
        }
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

    /// Regression: a merge group naming a provider absent from the member
    /// map surfaces as [`IplsError::UnlistedProvider`] — the member lists
    /// derive from directory (remote, possibly Byzantine) messages, so
    /// this used to panic via `.expect("listed provider")`.
    #[test]
    fn unlisted_provider_is_a_typed_error_not_a_panic() {
        let mut by_provider: HashMap<NodeId, Vec<(usize, Cid)>> = HashMap::new();
        by_provider.insert(NodeId(3), vec![(0, Cid::of(b"g"))]);
        // The listed provider resolves its group exactly once...
        assert!(Aggregator::take_provider_group(&mut by_provider, NodeId(3)).is_ok());
        // ...and an unlisted (or doubly listed) provider is an error.
        let err = Aggregator::take_provider_group(&mut by_provider, NodeId(3)).unwrap_err();
        assert!(matches!(err, IplsError::UnlistedProvider { provider: 3 }));
        let err = Aggregator::take_provider_group(&mut by_provider, NodeId(9)).unwrap_err();
        assert!(matches!(err, IplsError::UnlistedProvider { provider: 9 }));
    }
}
