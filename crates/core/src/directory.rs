//! The directory service (§III-C) — run by the trusted bootstrapper.
//!
//! Maintains the map from addressing tuples to CIDs, accumulates Pedersen
//! commitments per partition and per aggregator slot (§IV-B), verifies
//! registered updates against the accumulated commitments, answers
//! participant queries, and drives the round schedule.
//!
//! A round's facts live in one `Round` value, created when the round is
//! announced and dropped when the round after next is: the directory holds
//! the current round and the one before it (which still receives late
//! `TrainerDone`s, a second aggregator's registration and its audit).
//! Messages about any other round change nothing; queries about one get the
//! answer for a round with nothing registered.
//!
//! With `accountability` on, the directory is also the eviction authority:
//! a registered update that fails verification under the aggregator's own
//! signature becomes a [`Misbehavior`] proof (the directory signs it as
//! detector [`DIRECTORY_DETECTOR`] and gossips it on the evidence topic),
//! and peer-reported evidence is independently re-verified before the
//! offender is evicted — evicted aggregators' registrations are dropped.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;

use dfl_ipfs::{Cid, IpfsWire, WireCost};
use dfl_netsim::{NodeId, SimDuration, SimTime};

use dfl_crypto::schnorr::VerifyingKey;

use crate::accountability::{
    self, agg_verifying_key, directory_signing_key, trainer_verifying_key, Misbehavior,
    MisbehaviorKind, DIRECTORY_DETECTOR, EVIDENCE_TOPIC,
};
use crate::config::Topology;
use crate::gradient::{verify_blobs_timed, ProtocolCommitment, ProtocolCurve, ProtocolKey};
use crate::labels;
use crate::messages::{Msg, SignatureBytes, Signed};
use crate::protocol::{Actions, ProtocolCore, ProtocolEvent, StorageRequests, TK_STORAGE_RETRY};

/// Timer token kinds (high 32 bits of the token); storage fetches retry
/// under [`TK_STORAGE_RETRY`].
const TK_VERIFY: u64 = 1 << 32;

/// An update verification: the blob is being fetched (in
/// `Directory::fetches`), or it arrived and the virtual compute time is
/// being charged (in `Directory::verifications`) before `verdict` applies.
struct PendingVerify {
    partition: usize,
    iter: u64,
    aggregator: usize,
    cid: Cid,
    from: NodeId,
    verdict: bool,
    /// Claimed contributor set (quorum-degraded updates; `None` = full).
    contributors: Option<Vec<u32>>,
    /// The registrant's signature (accountability mode) — what turns a
    /// failed verification into transferable evidence.
    signature: Option<SignatureBytes>,
    /// The fetched update blob, kept for the evidence record.
    blob: Bytes,
}

/// One partition's registrations in one round.
#[derive(Default)]
struct Slot {
    /// Gradient registrations, trainer → cid.
    gradients: HashMap<usize, Cid>,
    /// Individual gradient commitments, trainer → C.
    commitments: HashMap<usize, ProtocolCommitment>,
    /// The accepted global update, with the contributor set of a
    /// quorum-degraded one so `QueryTotalAccumulator` answers with the
    /// accumulator the update actually opens.
    update: Option<(Cid, Option<Vec<u32>>)>,
}

/// What the directory knows about one announced round.
#[derive(Default)]
struct Round {
    /// Indexed by partition.
    slots: Vec<Slot>,
    /// Trainers that reported the round done.
    done: HashSet<usize>,
    /// Whether the round's first gradient hash has been recorded.
    first_hash_seen: bool,
    /// Whether the round was recorded complete (quorum completion would
    /// otherwise re-fire on each late `TrainerDone`).
    completed: bool,
    /// Offenders evidence was already issued for in this round.
    evidence_issued: HashSet<usize>,
}

/// Directory + bootstrapper actor.
pub struct Directory {
    topo: Arc<Topology>,
    key: Option<Arc<ProtocolKey>>,
    /// Announced rounds still held: the latest and the one before it.
    rounds: BTreeMap<u64, Round>,
    /// Update blobs being fetched, by storage request id.
    fetches: StorageRequests<PendingVerify>,
    /// Fetched updates whose verification time is being charged, by the
    /// request id that fetched them.
    verifications: HashMap<u64, PendingVerify>,
    /// Trainer verifying keys (authenticated mode).
    trainer_keys: Vec<VerifyingKey<ProtocolCurve>>,
    /// Evicted aggregators (global indices); their registrations are
    /// dropped for the rest of the task.
    evicted: HashSet<usize>,
}

impl Directory {
    /// Creates the directory actor. `key` must be `Some` exactly when the
    /// task runs in verifiable mode.
    pub fn new(topo: Arc<Topology>, key: Option<Arc<ProtocolKey>>) -> Directory {
        assert_eq!(
            key.is_some(),
            topo.config().verifiable,
            "commitment key must match the verifiable flag"
        );
        let cfg = topo.config();
        let trainer_keys = if cfg.authenticate {
            (0..cfg.trainers)
                .map(|t| trainer_verifying_key(cfg.seed, t))
                .collect()
        } else {
            Vec::new()
        };
        Directory {
            topo,
            key,
            rounds: BTreeMap::new(),
            fetches: StorageRequests::default(),
            verifications: HashMap::new(),
            trainer_keys,
            evicted: HashSet::new(),
        }
    }

    /// Whether `trainer` signed `msg`; `true` outright when the task does
    /// not require authentication.
    fn trainer_signed(&self, trainer: usize, msg: &Msg) -> bool {
        if !self.topo.config().authenticate {
            return true;
        }
        let key = self.trainer_keys.get(trainer);
        key.is_some_and(|vk| msg.signed_by(vk))
    }

    /// Announces round `iter` — the only place a round is created — and
    /// forgets every round before `iter − 1`, with the update fetches
    /// still pending for them.
    fn broadcast_round(&mut self, out: &mut Actions<Msg>, iter: u64) {
        if self.rounds.keys().next_back() >= Some(&iter) {
            return; // announced already
        }
        let slots = (0..self.topo.config().partitions).map(|_| Slot::default());
        let round = Round {
            slots: slots.collect(),
            ..Round::default()
        };
        self.rounds.insert(iter, round);
        let oldest = iter.saturating_sub(1);
        self.rounds = self.rounds.split_off(&oldest);
        self.fetches.retain(|pv| pv.iter >= oldest);
        out.record(labels::ROUND_START, iter as f64);
        let msg = Msg::StartRound { iter };
        // One allocation for the whole broadcast. Grown by doubling, a
        // 10 000-send queue ends 64 % larger than it needs, and freeing it
        // raises glibc's dynamic mmap threshold to that size: the trace
        // log's later doublings then move within the heap and leave
        // resident holes.
        let cfg = self.topo.config();
        out.reserve(cfg.total_aggregators() + cfg.trainers);
        for g in 0..cfg.total_aggregators() {
            out.send(self.topo.aggregator(g), msg.clone());
        }
        for t in 0..cfg.trainers {
            out.send(self.topo.trainer(t), msg.clone());
        }
    }

    /// Round `iter`'s registrations for `partition`, when the table holds
    /// that round and the partition exists.
    fn slot(&self, partition: usize, iter: u64) -> Option<&Slot> {
        self.rounds.get(&iter)?.slots.get(partition)
    }

    /// The accumulated commitment of slot `agg_j`'s whole trainer set.
    fn accumulated_for_slot(
        &self,
        partition: usize,
        iter: u64,
        agg_j: usize,
    ) -> Option<ProtocolCommitment> {
        let commits = &self.slot(partition, iter)?.commitments;
        let set = self.topo.trainer_set(partition, agg_j);
        accountability::product(set, |t| commits.get(&t))
    }

    /// What an update claiming `contributors` must open (§IV-B): the
    /// product over every trainer when `None`, over the set otherwise.
    fn expected_for_update(
        &self,
        partition: usize,
        iter: u64,
        contributors: Option<&[u32]>,
    ) -> Option<ProtocolCommitment> {
        let commits = &self.slot(partition, iter)?.commitments;
        let trainers = self.topo.config().trainers;
        accountability::update_opens(trainers, contributors.unwrap_or(&[]), |t| commits.get(&t))
    }

    /// Whether a claimed contributor set is even admissible: only under a
    /// configured quorum, well-formed (strictly ascending, in range), and
    /// at least the quorum large.
    fn contributors_admissible(&self, contributors: &Option<Vec<u32>>) -> bool {
        let Some(set) = contributors else {
            return true;
        };
        let Some(q) = self.topo.config().min_quorum else {
            return false; // no quorum configured: only full-set updates
        };
        set.len() >= q
            && set.windows(2).all(|w| w[0] < w[1])
            && set
                .last()
                .is_none_or(|&t| (t as usize) < self.topo.config().trainers)
    }

    #[allow(clippy::too_many_arguments)]
    fn on_register_update(
        &mut self,
        out: &mut Actions<Msg>,
        from: NodeId,
        aggregator: usize,
        partition: usize,
        iter: u64,
        cid: Cid,
        contributors: Option<Vec<u32>>,
        signature: Option<SignatureBytes>,
    ) {
        if self.evicted.contains(&aggregator) {
            // Evicted aggregators are out of the protocol: their
            // registrations are dropped unconditionally.
            out.record(labels::EVICTED_REJECTED, aggregator as f64);
            return;
        }
        if self.topo.config().accountability {
            // Accountability requires the registration to be signed by the
            // aggregator's identity key — the signature is what makes a
            // failed verification attributable (and evictable).
            let registration = Msg::RegisterUpdate {
                aggregator,
                partition,
                iter,
                cid,
                contributors: contributors.clone(),
                signature,
            };
            let vk = agg_verifying_key(self.topo.config().seed, aggregator);
            if !registration.signed_by(&vk) {
                out.record(labels::FORGED_REGISTRATION, aggregator as f64);
                return;
            }
        }
        let Some(slot) = self.slot(partition, iter) else {
            return; // a round (or partition) the directory does not hold
        };
        if let Some((accepted, _)) = &slot.update {
            // Someone already registered a valid update; only the first
            // counts (§IV-B). But under accountability a *conflicting*
            // registration (different bits for the same slot) is still
            // audited: if the loser's blob fails verification, that is
            // provable misbehavior even though the round already has its
            // update — without the audit an attacker who loses the race
            // escapes detection forever.
            let audit = self.topo.config().accountability && self.key.is_some() && *accepted != cid;
            if !audit {
                return;
            }
        }
        let pv = PendingVerify {
            partition,
            iter,
            aggregator,
            cid,
            from,
            verdict: false,
            contributors,
            signature,
            blob: Bytes::new(),
        };
        if !self.contributors_admissible(&pv.contributors) {
            self.reject_update(out, &pv);
        } else if self.key.is_some() {
            // Fetch the update blob from storage, then verify.
            let get = |req_id| IpfsWire::Get { cid, req_id };
            let to = self.topo.ipfs_node(0);
            self.fetches.send(out, &self.topo, pv, to, get);
        } else {
            self.accept_update(out, pv);
        }
    }

    /// Makes a verified registration the round's update, unless the slot
    /// already has one (an audited loser of the race that verified, or a
    /// round no longer held: nothing to do).
    fn accept_update(&mut self, out: &mut Actions<Msg>, pv: PendingVerify) {
        let round = self.rounds.get_mut(&pv.iter);
        let Some(slot) = round.and_then(|r| r.slots.get_mut(pv.partition)) else {
            return;
        };
        if slot.update.is_none() {
            slot.update = Some((pv.cid, pv.contributors));
            out.record(labels::UPDATE_REGISTERED, pv.partition as f64);
        }
    }

    fn reject_update(&mut self, out: &mut Actions<Msg>, pv: &PendingVerify) {
        out.record(labels::VERIFICATION_FAILED, pv.partition as f64);
        // A second event keyed by the offender, for forensic reports.
        out.record(labels::VERIFICATION_FAILED_BY, pv.aggregator as f64);
        if !pv.blob.is_empty() {
            out.record(labels::WASTED_BYTES, pv.blob.len() as f64);
        }
        self.maybe_issue_evidence(out, pv);
        let msg = Msg::UpdateRejected {
            partition: pv.partition,
            iter: pv.iter,
            reason: "update does not open the accumulated commitment".to_string(),
        };
        out.send(pv.from, msg);
    }

    /// Turns a failed, *signed* update verification into a transferable
    /// `BadUpdate` proof: the directory evicts the offender directly (it
    /// verified first-hand) and gossips the evidence so peer aggregators
    /// blacklist the slot too.
    fn maybe_issue_evidence(&mut self, out: &mut Actions<Msg>, pv: &PendingVerify) {
        if !self.topo.config().accountability || pv.blob.is_empty() {
            return;
        }
        let Some(offender_sig) = pv.signature else {
            return;
        };
        let contributors = pv.contributors.as_deref();
        let Some(expected) = self.expected_for_update(pv.partition, pv.iter, contributors) else {
            return; // commitments incomplete: nothing provable
        };
        let round = self.rounds.get_mut(&pv.iter);
        if !round.is_some_and(|r| r.evidence_issued.insert(pv.aggregator)) {
            return;
        }
        out.record(labels::MISBEHAVIOR_DETECTED, pv.aggregator as f64);
        let slots = self.topo.config().aggregators_per_partition;
        let mut record = Misbehavior {
            kind: MisbehaviorKind::BadUpdate,
            partition: pv.partition,
            agg_j: pv.aggregator % slots,
            iter: pv.iter,
            cid: pv.cid,
            contributors: pv.contributors.clone().unwrap_or_default(),
            accumulator: expected.to_bytes(),
            blob: pv.blob.clone(),
            offender_sig,
            detector: 0,
            detector_sig: None,
        };
        let sk = directory_signing_key(self.topo.config().seed);
        record.sign_as_detector(DIRECTORY_DETECTOR, &sk);
        self.evict(out, pv.aggregator);
        let publish = IpfsWire::Publish {
            topic: EVIDENCE_TOPIC.to_string(),
            data: Bytes::from(record.encode()),
        };
        out.send(self.topo.ipfs_node(0), Msg::Ipfs(publish));
    }

    fn evict(&mut self, out: &mut Actions<Msg>, offender: usize) {
        if self.evicted.insert(offender) {
            out.record(labels::EVICTED, offender as f64);
        }
    }

    /// Independently re-verifies peer-reported evidence and evicts the
    /// offender when the proof holds. The expected accumulator is derived
    /// from the directory's own registered commitments — never taken from
    /// the report.
    fn on_report(&mut self, out: &mut Actions<Msg>, record_bytes: &[u8]) {
        if !self.topo.config().accountability {
            return;
        }
        let Ok(record) = Misbehavior::decode(record_bytes) else {
            return;
        };
        let slots = self.topo.config().aggregators_per_partition;
        let offender = record.offender(slots);
        if offender >= self.topo.config().total_aggregators() || self.evicted.contains(&offender) {
            return;
        }
        let (partition, iter) = (record.partition, record.iter);
        let expected = match record.kind {
            MisbehaviorKind::BadPartial => {
                let commits = self.slot(partition, iter).map(|s| &s.commitments);
                accountability::partial_opens(
                    &self.topo.trainer_set(partition, record.agg_j),
                    record.contributors.iter().map(|&r| r as usize),
                    self.topo.config().min_quorum.is_some(),
                    || self.accumulated_for_slot(partition, iter, record.agg_j),
                    |t| commits?.get(&t),
                )
            }
            MisbehaviorKind::BadUpdate => {
                self.expected_for_update(partition, iter, Some(&record.contributors))
            }
        };
        let (Some(expected), Some(key)) = (expected, self.key.as_ref()) else {
            return;
        };
        if record.verify(key, self.topo.config().seed, slots, &expected) {
            self.evict(out, offender);
        }
    }

    /// Verification `pv`'s update blob arrived, fetched by request `req_id`.
    fn on_update_blob(
        &mut self,
        out: &mut Actions<Msg>,
        req_id: u64,
        mut pv: PendingVerify,
        data: Bytes,
    ) {
        // An update blob reply reaching the verification path without a
        // commitment key means a storage frame was spoofed or misrouted
        // into a non-verifiable task: book it under
        // `labels::MISSING_COMMIT_KEY` and drop the reply instead of
        // panicking.
        let Some(key) = self.key.clone() else {
            out.incr(labels::MISSING_COMMIT_KEY, 1);
            return;
        };
        // Updates arrive one storage reply at a time: each is checked on
        // arrival as a batch of one. `None` = not all gradients registered.
        let expected = self.expected_for_update(pv.partition, pv.iter, pv.contributors.as_deref());
        let opens = |acc| verify_blobs_timed(out, &key, &[(&data[..], &acc)]).is_empty();
        pv.verdict = expected.is_some_and(opens);
        // Charge the virtual verification time, then apply the verdict.
        let elements = (data.len() / 8).max(1) as u64;
        let us = self.topo.config().commit_us_per_element * elements;
        pv.blob = data;
        self.verifications.insert(req_id, pv);
        out.set_timer(SimDuration::from_micros(us), TK_VERIFY | req_id);
    }

    /// Books one gradient registration, unless it names a round the
    /// directory does not hold, or a trainer or partition outside the task.
    fn register_gradient(
        &mut self,
        out: &mut Actions<Msg>,
        trainer: usize,
        partition: usize,
        iter: u64,
        cid: Cid,
        commitment: Option<[u8; 33]>,
    ) {
        let in_task = trainer < self.topo.config().trainers;
        let Some(round) = self.rounds.get_mut(&iter).filter(|_| in_task) else {
            return;
        };
        let Some(slot) = round.slots.get_mut(partition) else {
            return;
        };
        if !round.first_hash_seen {
            round.first_hash_seen = true;
            out.record(labels::FIRST_GRADIENT_HASH, iter as f64);
        }
        slot.gradients.insert(trainer, cid);
        if let Some(c) = commitment.and_then(|b| ProtocolCommitment::from_bytes(&b)) {
            slot.commitments.insert(trainer, c);
        }
    }

    /// Books `trainer`'s report that round `iter` is done, and completes
    /// the round once enough trainers have.
    fn on_trainer_done(&mut self, out: &mut Actions<Msg>, trainer: usize, iter: u64) {
        let cfg = self.topo.config();
        // With a quorum configured, the round completes once that many
        // trainers report done: a crashed trainer must not stall the task.
        let (needed, rounds) = (cfg.min_quorum.unwrap_or(cfg.trainers), cfg.rounds);
        let in_task = trainer < cfg.trainers;
        let Some(round) = self.rounds.get_mut(&iter).filter(|_| in_task) else {
            return;
        };
        if !round.done.insert(trainer) || round.completed || round.done.len() < needed {
            return;
        }
        round.completed = true;
        out.record(labels::ROUND_COMPLETE, iter as f64);
        if iter + 1 < rounds {
            self.broadcast_round(out, iter + 1);
        } else {
            out.record(labels::TASK_COMPLETE, rounds as f64);
        }
    }
}

impl ProtocolCore for Directory {
    type Msg = Msg;

    fn handle(&mut self, _now: SimTime, event: ProtocolEvent<Msg>, out: &mut Actions<Msg>) {
        let (from, msg) = match event {
            ProtocolEvent::Start => {
                self.broadcast_round(out, 0);
                return;
            }
            ProtocolEvent::Timer { token } => {
                self.on_timer(out, token);
                return;
            }
            ProtocolEvent::Fault { .. } => return,
            ProtocolEvent::DeliveryFailure { .. } => {
                out.incr(labels::DELIVERY_FAILED, 1);
                return;
            }
            ProtocolEvent::Message { from, msg } => (from, msg),
        };
        self.on_message(out, from, msg);
    }
}

impl Directory {
    fn on_timer(&mut self, out: &mut Actions<Msg>, token: u64) {
        let req = token & 0xFFFF_FFFF;
        match token & !0xFFFF_FFFF {
            TK_STORAGE_RETRY => self.fetches.retry(out, &self.topo, req),
            TK_VERIFY => match self.verifications.remove(&req) {
                Some(pv) if pv.verdict => self.accept_update(out, pv),
                Some(pv) => self.reject_update(out, &pv),
                None => {}
            },
            _ => {}
        }
    }

    fn on_message(&mut self, out: &mut Actions<Msg>, from: NodeId, msg: Msg) {
        match msg {
            // Forged or unsigned registration: discard and flag.
            Msg::RegisterGradientBatch { trainer, .. } | Msg::RegisterGradient { trainer, .. }
                if !self.trainer_signed(trainer, &msg) =>
            {
                out.record(labels::FORGED_REGISTRATION, trainer as f64);
            }
            Msg::RegisterGradientBatch {
                trainer,
                iter,
                entries,
                ..
            } => {
                for (partition, cid, commitment) in entries {
                    self.register_gradient(out, trainer, partition, iter, cid, commitment);
                }
            }
            Msg::RegisterGradient {
                trainer,
                partition,
                iter,
                cid,
                commitment,
                ..
            } => {
                self.register_gradient(out, trainer, partition, iter, cid, commitment);
            }
            Msg::QueryGradients {
                partition,
                agg_j,
                iter,
            } => {
                let trainers = self.topo.trainer_set(partition, agg_j);
                let slot = self.slot(partition, iter);
                let entries: Vec<(usize, Cid, Option<[u8; 33]>)> = trainers
                    .into_iter()
                    .filter_map(|t| {
                        let slot = slot?;
                        let cid = slot.gradients.get(&t)?;
                        let commitment = slot.commitments.get(&t).map(|c| c.to_bytes());
                        Some((t, *cid, commitment))
                    })
                    .collect();
                let reply = Msg::GradientList {
                    partition,
                    iter,
                    entries,
                };
                out.send(from, reply);
            }
            Msg::QueryAccumulators { partition, iter } => {
                let accumulated: Vec<Option<[u8; 33]>> =
                    (0..self.topo.config().aggregators_per_partition)
                        .map(|j| {
                            self.accumulated_for_slot(partition, iter, j)
                                .map(|c| c.to_bytes())
                        })
                        .collect();
                let reply = Msg::Accumulators {
                    partition,
                    iter,
                    accumulated,
                };
                out.send(from, reply);
            }
            Msg::RegisterUpdate {
                aggregator,
                partition,
                iter,
                cid,
                contributors,
                signature,
            } => {
                self.on_register_update(
                    out,
                    from,
                    aggregator,
                    partition,
                    iter,
                    cid,
                    contributors,
                    signature,
                );
            }
            Msg::ReportMisbehavior { record } => {
                self.on_report(out, &record);
            }
            Msg::QueryTotalAccumulator { partition, iter } => {
                // After a quorum-degraded round the accepted update opens
                // the product over its contributor set, not the full total
                // — answer with what the accepted update actually opens.
                let update = self.slot(partition, iter).and_then(|s| s.update.as_ref());
                let contributors = update.and_then(|(_, set)| set.as_deref());
                let accumulated = self.expected_for_update(partition, iter, contributors);
                let accumulated = accumulated.map(|c| c.to_bytes());
                let reply = Msg::TotalAccumulator {
                    partition,
                    iter,
                    accumulated,
                };
                out.send(from, reply);
            }
            Msg::QueryUpdate { partition, iter } => {
                let update = self.slot(partition, iter).and_then(|s| s.update.as_ref());
                let reply = Msg::UpdateInfo {
                    partition,
                    iter,
                    cid: update.map(|(cid, _)| *cid),
                };
                out.send(from, reply);
            }
            Msg::TrainerDone { trainer, iter } => self.on_trainer_done(out, trainer, iter),
            Msg::Ipfs(reply @ IpfsWire::GetOk { .. }) => {
                let pv = self.fetches.answered(&reply);
                if let (Some(pv), IpfsWire::GetOk { data, req_id, .. }) = (pv, reply) {
                    self.on_update_blob(out, req_id, pv, data);
                }
            }
            // A `GetErr` says the node found no copy, not that the update
            // is bad: the fetch stays pending, and its retry timer moves it
            // to the next storage node. Only a blob that arrived is judged.
            // Other storage responses (acks for nothing we sent) and
            // protocol messages not addressed to the directory are ignored.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskConfig;

    fn topo(verifiable: bool) -> Arc<Topology> {
        let cfg = TaskConfig {
            trainers: 4,
            partitions: 2,
            aggregators_per_partition: 2,
            ipfs_nodes: 2,
            verifiable,
            ..TaskConfig::default()
        };
        Arc::new(Topology::new(cfg, 8).unwrap())
    }

    #[test]
    fn key_flag_mismatch_panics() {
        let result = std::panic::catch_unwind(|| Directory::new(topo(true), None));
        assert!(result.is_err());
    }

    #[test]
    fn accumulators_require_full_trainer_set() {
        use crate::gradient::{commit_blob, derive_key};
        let topo = topo(true);
        let key = Arc::new(derive_key(topo.max_partition_len(), 0, true));
        let mut dir = Directory::new(topo.clone(), Some(key.clone()));
        dir.broadcast_round(&mut Actions::new(), 0);

        // Register commitments for trainers 0 and 2 (slot j=0 of |A_i|=2).
        let blob = crate::gradient::build_blob(&[1.0; 4]);
        let c = commit_blob(&key, &blob).unwrap();
        for t in [0usize, 2] {
            dir.rounds.get_mut(&0).unwrap().slots[0]
                .commitments
                .insert(t, c);
        }
        // Slot 0 (T_00 = {0, 2}) is complete; slot 1 (T_01 = {1, 3}) is not.
        assert!(dir.accumulated_for_slot(0, 0, 0).is_some());
        assert!(dir.accumulated_for_slot(0, 0, 1).is_none());
        // Total accumulation needs all 4 trainers.
        assert!(dir.expected_for_update(0, 0, None).is_none());
        for t in [1usize, 3] {
            dir.rounds.get_mut(&0).unwrap().slots[0]
                .commitments
                .insert(t, c);
        }
        assert!(dir.expected_for_update(0, 0, None).is_some());
    }

    /// Regression: a storage reply reaching the update-verification path
    /// in a non-verifiable task (spoofed or misrouted frame) must be
    /// booked (`labels::MISSING_COMMIT_KEY`) and
    /// dropped — it used to kill the directory via
    /// `.expect("verifiable mode")`.
    #[test]
    fn update_blob_without_commit_key_is_booked_not_fatal() {
        use crate::protocol::{Actions, ProtocolAction};
        let topo = topo(false);
        let mut dir = Directory::new(topo.clone(), None);
        let pv = PendingVerify {
            partition: 0,
            iter: 0,
            aggregator: 0,
            cid: Cid::of(b"u"),
            from: NodeId(1),
            verdict: false,
            contributors: None,
            signature: None,
            blob: Bytes::new(),
        };
        let cid = pv.cid;
        let get = |req_id| IpfsWire::Get { cid, req_id };
        let mut out = Actions::new();
        let req_id = dir.fetches.send(&mut out, &topo, pv, NodeId(0), get);
        let data = Bytes::from_static(b"update-bytes");
        let reply = IpfsWire::GetOk { cid, data, req_id };
        dir.on_message(&mut out, NodeId(0), Msg::Ipfs(reply));
        let booked = out.drain().any(|a| {
            matches!(a, ProtocolAction::Incr { label, .. } if label == labels::MISSING_COMMIT_KEY)
        });
        assert!(booked, "missing commit key must increment the counter");
        assert!(
            dir.verifications.is_empty(),
            "nothing must reach the verdict stage"
        );
    }

    /// A `GetErr` for an update blob says only that the node had no copy:
    /// nothing is judged, nothing is rejected, and the fetch's retry timer
    /// sends the `Get` on to the next storage node.
    #[test]
    fn an_update_fetch_that_finds_no_copy_is_retried_not_rejected() {
        use crate::gradient::derive_key;
        use crate::protocol::ProtocolAction;
        let topo = topo(true);
        let key = Arc::new(derive_key(topo.max_partition_len(), 0, true));
        let mut dir = Directory::new(topo.clone(), Some(key));
        let mut handle = |event: ProtocolEvent<Msg>| {
            let mut out = Actions::new();
            dir.handle(SimTime::ZERO, event, &mut out);
            out.drain().collect::<Vec<_>>()
        };
        let gets = |actions: &[ProtocolAction<Msg>]| -> Vec<(NodeId, u64)> {
            let get = |action: &ProtocolAction<Msg>| match action {
                ProtocolAction::Send {
                    to,
                    msg: Msg::Ipfs(IpfsWire::Get { req_id, .. }),
                } => Some((*to, *req_id)),
                _ => None,
            };
            actions.iter().filter_map(get).collect()
        };
        handle(ProtocolEvent::Start);
        let cid = Cid::of(b"update");
        let msg = Msg::RegisterUpdate {
            aggregator: 0,
            partition: 0,
            iter: 0,
            cid,
            contributors: None,
            signature: None,
        };
        let from = topo.aggregator(0);
        let asked = gets(&handle(ProtocolEvent::Message { from, msg }));
        let [(to, req_id)] = asked[..] else {
            panic!("one Get: {asked:?}");
        };
        assert_eq!(to, topo.ipfs_node(0));

        let msg = Msg::Ipfs(IpfsWire::GetErr { cid, req_id });
        let actions = handle(ProtocolEvent::Message { from: to, msg });
        let judged = actions.iter().any(|action| match action {
            ProtocolAction::Record { label, .. } => {
                [labels::VERIFICATION_FAILED, labels::VERIFICATION_FAILED_BY].contains(label)
            }
            ProtocolAction::Send { msg, .. } => matches!(msg, Msg::UpdateRejected { .. }),
            _ => false,
        });
        assert!(!judged, "an unavailable blob is not a failed verification");

        let token = TK_STORAGE_RETRY | req_id;
        let retried = gets(&handle(ProtocolEvent::Timer { token }));
        assert_eq!(retried, [(topo.ipfs_node(1), req_id)]);
    }

    /// Regression: forgetting a round left its pending update fetches in
    /// place, so the fetch of a `RegisterUpdate` naming a CID no node holds
    /// went round the storage nodes, one `Get` per `fetch_timeout`, until
    /// the run ended. The fetch goes with its round: it is retried while
    /// round 0 is held (rounds 0 and 1), and not once round 2 forgets it.
    #[test]
    fn a_fetch_for_a_forgotten_round_is_not_retried() {
        use crate::gradient::derive_key;
        use crate::protocol::ProtocolAction;
        let topo = topo(true);
        let key = Arc::new(derive_key(topo.max_partition_len(), 0, true));
        let mut dir = Directory::new(topo.clone(), Some(key));
        let mut out = Actions::new();
        dir.handle(SimTime::ZERO, ProtocolEvent::Start, &mut out);
        let msg = Msg::RegisterUpdate {
            aggregator: 0,
            partition: 0,
            iter: 0,
            cid: Cid::of(b"held nowhere"),
            contributors: None,
            signature: None,
        };
        let from = topo.aggregator(0);
        dir.handle(
            SimTime::ZERO,
            ProtocolEvent::Message { from, msg },
            &mut out,
        );
        let token = TK_STORAGE_RETRY | 1; // the directory's first request
        let mut retried = |dir: &mut Directory| {
            out.drain();
            dir.handle(SimTime::ZERO, ProtocolEvent::Timer { token }, &mut out);
            let get = |a: &ProtocolAction<Msg>| {
                matches!(
                    a,
                    ProtocolAction::Send {
                        msg: Msg::Ipfs(IpfsWire::Get { .. }),
                        ..
                    }
                )
            };
            out.drain().filter(get).count()
        };
        dir.broadcast_round(&mut Actions::new(), 1);
        assert_eq!(retried(&mut dir), 1, "round 0 is still held");
        dir.broadcast_round(&mut Actions::new(), 2);
        assert_eq!(retried(&mut dir), 0, "round 0 is forgotten");
    }
}
