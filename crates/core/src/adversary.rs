//! Malicious-aggregator behaviours (the adversarial model of §III-A), as
//! one wrapper around an honest aggregator.
//!
//! The paper secures the protocol against aggregators that *drop* or
//! *alter* gradients; detecting them is what the *other* parties do (§IV-B).
//! So the honest core holds no attack code: [`Aggregator::new`] wraps it in
//! an `Adversary` wrapper for every behaviour but [`Behavior::Honest`].
//!
//! The wrapper passes every event to the core and watches what it emits.
//! All four attacks are one mechanism, **hold and rename**. The message
//! that names one of the core's uploads — the sync announce of its partial,
//! or the registration of its global update — is held. The wrapper `Put`s
//! a tampered copy of that blob itself, under request ids apart from the
//! core's, and on the ack sends the held message naming the copy,
//! re-signed with the node's own key. The attacks differ only in the
//! tampering.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;

use dfl_crypto::quantize::{encode, Quantized};
use dfl_crypto::schnorr::SigningKey;
use dfl_ipfs::{Cid, IpfsWire, WireCost};
use dfl_netsim::{NodeId, SimTime};

use crate::accountability::agg_signing_key;
use crate::config::{CommMode, Topology};
use crate::gradient::{build_blob, commit_blob, decode_blob, ProtocolCurve, ProtocolKey};
use crate::messages::{Msg, Signed, SyncAnnounce};
use crate::protocol::{
    Actions, ProtocolAction, ProtocolCore, ProtocolEvent, StorageRequests, TK_STORAGE_RETRY,
};
use crate::Aggregator;

/// How an aggregator behaves.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Behavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Omits the gradients of the first `count` trainers of `T_ij` from its
    /// partial and its global update, yet claims the full set — violating
    /// *completeness* (a lazy aggregator, §III-A). It still downloads what
    /// it drops: the vectors come out of the honest sums.
    DropGradients {
        /// How many trainers' gradients to silently drop.
        count: usize,
    },
    /// Adds 2²⁰ to the first element of its global update — violating
    /// *correctness* (model poisoning, §III-A).
    AlterUpdate,
    /// Registers a *forged*, unsigned gradient commitment — all zeros —
    /// under its first trainer's name once its set is registered, and
    /// substitutes that gradient for the trainer's in its partial and its
    /// global update. With unauthenticated registrations this defeats the
    /// §IV verification: the poisoned update opens the forged accumulated
    /// commitment. With Schnorr-authenticated registrations the forgery is
    /// discarded and the attack is caught.
    ForgeRegistration,
    /// Computes the honest partial but *equivocates* during partial sync:
    /// instead of one publish, each partition peer gets a direct, validly
    /// signed announce — the partial with 2²⁰ added to its first element,
    /// and the honest one, alternately. Receivers of the altered variant
    /// hold a transferable proof of misbehavior: the signed announce plus
    /// the blob that fails its accumulated commitment. A partition with one
    /// slot has no sync, so there this degenerates to `Honest`.
    Equivocate,
}

/// Request ids of the wrapper's own storage client start after this one,
/// clear of the core's (which count up from 1) and below 2³², the retry
/// token's low half.
const OWN_REQUESTS: u64 = 1 << 31;

impl Aggregator {
    /// Creates the aggregator for global index `g`: the honest core, or for
    /// any other `behavior` that core inside an `Adversary`. An overlay
    /// sink names no upload, so around one the wrapper never attacks;
    /// [`Deployment::build`](crate::runner::Deployment::build) refuses that.
    pub fn new(
        g: usize,
        topo: Arc<Topology>,
        key: Option<Arc<ProtocolKey>>,
        behavior: Behavior,
    ) -> Aggregator {
        let core = Aggregator::honest(g, topo.clone(), key.clone());
        if behavior == Behavior::Honest {
            return core;
        }
        let (partition, j) = topo.agg_role(g);
        let set = topo.trainer_set(partition, j);
        let victims = match behavior {
            Behavior::DropGradients { count } => count.min(set.len()),
            Behavior::ForgeRegistration => set.len().min(1),
            _ => 0,
        };
        Aggregator::wrapped(Box::new(Adversary {
            core,
            attack: behavior,
            g,
            partition,
            set,
            victims,
            signing_key: agg_signing_key(topo.config().seed, g),
            topo,
            key,
            storage: StorageRequests::numbered_after(OWN_REQUESTS),
            iter: 0,
            round: Round::default(),
        }))
    }
}

/// A misbehaving aggregator: an honest one whose traffic it rewrites. It
/// holds the node's own signing key and nothing else the core lacks.
struct Adversary {
    core: Aggregator,
    attack: Behavior,
    g: usize,
    partition: usize,
    /// `T_ij`; the vectors of its first `victims` trainers are dropped, or
    /// replaced by the forged one.
    set: Vec<usize>,
    victims: usize,
    signing_key: SigningKey<ProtocolCurve>,
    topo: Arc<Topology>,
    key: Option<Arc<ProtocolKey>>,
    /// The tampered copies and, in merge mode, the victims' blobs; their
    /// replies and retry timers never reach the core.
    storage: StorageRequests<Job>,
    iter: u64,
    round: Round,
}

/// One of the core's `Put`s: the node it went to, its replication, its blob.
type Upload = (NodeId, usize, Bytes);

/// What the wrapper knows of the current round.
#[derive(Default)]
struct Round {
    /// The CIDs `T_ij`'s trainers first registered.
    listed: HashMap<usize, Cid>,
    forged: bool,
    /// The victims' vectors, taken from the blobs the core was handed.
    /// Adversaries run in netsim, where a round's gradients follow its
    /// `StartRound`.
    taken: HashMap<usize, Vec<Quantized>>,
    /// The core's uploads, by request id until acked, then by CID.
    puts: HashMap<u64, Upload>,
    stored: HashMap<Cid, Upload>,
    /// Held messages, with where they were going and the upload each
    /// names, until a victim's vector lets the copy be made.
    held: Vec<(NodeId, Msg, Upload)>,
}

/// What one of the wrapper's own storage requests is for.
enum Job {
    /// A victim's gradient, which merge mode sums without fetching.
    Victim(usize),
    /// A tampered copy; its ack renames the held message to `to`.
    Rename(NodeId, Msg),
}

impl ProtocolCore for Adversary {
    type Msg = Msg;

    fn handle(&mut self, now: SimTime, event: ProtocolEvent<Msg>, out: &mut Actions<Msg>) {
        let mut emitted = Actions::new();
        if !self.intercept(&event, out) {
            self.core.handle(now, event, &mut emitted);
        }
        for action in emitted.drain() {
            match action {
                ProtocolAction::Send { to, msg } => self.watch(out, to, msg),
                action => out.push(action),
            }
        }
        let listed = self.victims > 0 && self.round.listed.len() == self.set.len();
        if self.attack == Behavior::ForgeRegistration && listed && !self.round.forged {
            self.forge(out);
        }
        for (to, msg, upload) in std::mem::take(&mut self.round.held) {
            self.tamper_and_put(out, to, msg, upload);
        }
    }
}

impl Adversary {
    /// Reads an event before the core does; `true` when it is the
    /// wrapper's own, which the core must not see.
    fn intercept(&mut self, event: &ProtocolEvent<Msg>, out: &mut Actions<Msg>) -> bool {
        if let ProtocolEvent::Timer { token } = *event {
            let req = token & 0xFFFF_FFFF;
            let own = token - req == TK_STORAGE_RETRY && req > OWN_REQUESTS;
            if own {
                self.storage.retry(out, &self.topo, req);
            }
            return own;
        }
        let ProtocolEvent::Message { msg, .. } = event else {
            return false;
        };
        match msg {
            Msg::StartRound { iter } => {
                self.iter = *iter;
                self.storage.end_round(out, &self.topo);
                self.round = Round::default();
            }
            // An aggregator is sent its own partition's lists and gradients.
            Msg::GradientList { iter, entries, .. } if *iter == self.iter => {
                for &(t, cid, _) in entries {
                    self.list(out, t, cid);
                }
            }
            Msg::DirectGradient {
                trainer,
                iter,
                data,
                ..
            } if *iter == self.iter => {
                self.take(*trainer, data);
            }
            Msg::Ipfs(reply) => return self.on_storage(out, reply),
            _ => {}
        }
        false
    }

    /// Notes trainer `t`'s first registered CID. Merge mode sums a victim's
    /// blob at the storage node, so the wrapper fetches it itself.
    fn list(&mut self, out: &mut Actions<Msg>, t: usize, cid: Cid) {
        if !self.set.contains(&t) || self.round.listed.contains_key(&t) {
            return;
        }
        self.round.listed.insert(t, cid);
        let merging = self.topo.config().comm == CommMode::MergeAndDownload;
        let provider = self.topo.upload_target(self.partition, t);
        if let (true, true, Some(provider)) = (merging, self.is_victim(t), provider) {
            let get = |req_id| IpfsWire::Get { cid, req_id };
            let job = Job::Victim(t);
            self.storage.send(out, &self.topo, job, provider, get);
        }
    }

    /// Takes a storage reply: the wrapper's own (`true`), or one of the
    /// core's that hands it a victim's blob or an upload's CID.
    fn on_storage(&mut self, out: &mut Actions<Msg>, reply: &IpfsWire) -> bool {
        let job = self.storage.answered(reply);
        let own = job.is_some();
        match (job, reply) {
            (Some(Job::Victim(t)), IpfsWire::GetOk { data, .. }) => self.take(t, data),
            (Some(Job::Rename(to, msg)), IpfsWire::PutAck { cid, .. }) => {
                self.rename(out, to, msg, *cid);
            }
            (None, IpfsWire::GetOk { cid, data, .. }) => {
                let listed = |t: &&usize| self.round.listed.get(t) == Some(cid);
                let named: Vec<usize> = self.set[..self.victims]
                    .iter()
                    .filter(listed)
                    .copied()
                    .collect();
                for t in named {
                    self.take(t, data);
                }
            }
            (None, IpfsWire::PutAck { cid, req_id }) => {
                if let Some(upload) = self.round.puts.remove(req_id) {
                    self.round.stored.insert(*cid, upload);
                }
            }
            _ => {} // a victim's blob no node holds leaves its upload held
        }
        own
    }

    fn is_victim(&self, t: usize) -> bool {
        self.set[..self.victims].contains(&t)
    }

    fn take(&mut self, t: usize, data: &[u8]) {
        if let Some(vector) = decode_blob(data).filter(|_| self.is_victim(t)) {
            self.round.taken.insert(t, vector);
        }
    }

    /// Passes one message the core sends, or holds it when it names an
    /// upload this attack tampers with: the sync announce of the partial,
    /// or the registration of the global update.
    fn watch(&mut self, out: &mut Actions<Msg>, to: NodeId, msg: Msg) {
        let named = match &msg {
            Msg::Ipfs(IpfsWire::Put {
                data,
                req_id,
                replicate,
            }) => {
                let upload = (to, *replicate, data.clone());
                self.round.puts.insert(*req_id, upload);
                None
            }
            Msg::Ipfs(IpfsWire::Publish { topic, data })
                if self.attack != Behavior::AlterUpdate
                    && *topic == self.topo.sync_topic(self.partition) =>
            {
                SyncAnnounce::decode(data).ok().map(|a| a.cid)
            }
            Msg::RegisterUpdate { cid, .. } if self.attack != Behavior::Equivocate => Some(*cid),
            _ => None,
        };
        match named.and_then(|cid| self.round.stored.remove(&cid)) {
            Some(upload) => self.round.held.push((to, msg, upload)),
            None => out.send(to, msg),
        }
    }

    /// Uploads the tampered copy of the blob a held message names, or sends
    /// the message as it was when the copy would be the same bytes. Keeps
    /// it held while a victim's vector is missing.
    fn tamper_and_put(&mut self, out: &mut Actions<Msg>, to: NodeId, msg: Msg, upload: Upload) {
        let Some(blob) = self.tamper(&msg, &upload.2) else {
            return self.round.held.push((to, msg, upload));
        };
        if blob[..] == upload.2[..] {
            return out.send(to, msg);
        }
        let (node, replicate, data) = (upload.0, upload.1, Bytes::from(blob));
        let put = |req_id| IpfsWire::Put {
            data,
            req_id,
            replicate,
        };
        let job = Job::Rename(to, msg);
        self.storage.send(out, &self.topo, job, node, put);
    }

    /// The attack's copy of the blob `msg` names: `None` while it needs a
    /// victim's vector the wrapper has not seen yet.
    fn tamper(&self, msg: &Msg, blob: &[u8]) -> Option<Vec<u8>> {
        let mut vector = decode_blob(blob)?;
        if matches!(self.attack, Behavior::AlterUpdate | Behavior::Equivocate) {
            vector[0].0 = vector[0].0.wrapping_add(1 << 20);
        }
        // Each victim the core summed: − its vector + the forged one (all
        // zeros but the counter), or + nothing when dropped.
        let fake = match self.attack {
            Behavior::ForgeRegistration => decode_blob(&build_blob(&vec![0.0; vector.len() - 1]))?,
            _ => vec![Quantized(0); vector.len()],
        };
        for (rank, t) in self.set[..self.victims].iter().enumerate() {
            let summed = match msg {
                Msg::RegisterUpdate { contributors, .. } => contributors
                    .as_ref()
                    .is_none_or(|c| c.contains(&(*t as u32))),
                Msg::Ipfs(IpfsWire::Publish { data, .. }) => SyncAnnounce::decode(data)
                    .is_ok_and(|a| a.contributors.contains(&(rank as u16))),
                _ => false,
            };
            if !summed {
                continue;
            }
            let taken = self.round.taken.get(t)?;
            for ((v, taken), fake) in vector.iter_mut().zip(taken).zip(&fake) {
                v.0 = v.0.wrapping_sub(taken.0).wrapping_add(fake.0);
            }
        }
        Some(encode(&vector))
    }

    /// The tampered copy is stored as `cid`: sends the held message naming
    /// it, re-signed — or, equivocating, one direct announce per peer, the
    /// copy's and the honest one alternately.
    fn rename(&self, out: &mut Actions<Msg>, to: NodeId, mut msg: Msg, cid: Cid) {
        if let Msg::RegisterUpdate { cid: named, .. } = &mut msg {
            *named = cid;
            return out.send(to, self.resign(msg));
        }
        let Msg::Ipfs(IpfsWire::Publish { topic, data }) = msg else {
            return;
        };
        let Ok(honest) = SyncAnnounce::decode(&data) else {
            return;
        };
        let altered = self.resign(SyncAnnounce {
            cid,
            ..honest.clone()
        });
        if self.attack != Behavior::Equivocate {
            let data = Bytes::from(altered.encode());
            return out.send(to, Msg::Ipfs(IpfsWire::Publish { topic, data }));
        }
        let slots = 0..self.topo.config().aggregators_per_partition;
        for (k, j) in slots.filter(|&j| j != honest.agg_j).enumerate() {
            let announce = if k % 2 == 0 { &altered } else { &honest };
            let (topic, data) = (topic.clone(), Bytes::from(announce.encode()));
            let publisher = self.topo.aggregator(self.g);
            let deliver = IpfsWire::Deliver {
                topic,
                data,
                publisher,
            };
            let peer = self.topo.agg_index(self.partition, j);
            out.send(self.topo.aggregator(peer), Msg::Ipfs(deliver));
        }
    }

    /// Re-signs `value` with the node's key, if the core had signed it.
    fn resign<T: Signed>(&self, mut value: T) -> T {
        if value.signature_mut().is_some_and(|s| s.is_some()) {
            value.sign(&self.signing_key);
        }
        value
    }

    /// Registers the all-zero gradient under the first trainer's name once
    /// every real registration of the set exists, so the forgery lands last
    /// and takes the directory's last-write slot. Unsigned: the attacker
    /// does not hold the trainer's key.
    fn forge(&mut self, out: &mut Actions<Msg>) {
        self.round.forged = true;
        let fake = build_blob(&vec![0.0; self.topo.partition_len(self.partition)]);
        let commitment = self.key.as_ref().map(|key| commit_blob(key, &fake));
        let msg = Msg::RegisterGradient {
            trainer: self.set[0],
            partition: self.partition,
            iter: self.iter,
            cid: Cid::of(&fake),
            commitment: commitment.and_then(Result::ok).map(|c| c.to_bytes()),
            signature: None,
        };
        out.send(self.topo.directory(), msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_honest() {
        assert_eq!(Behavior::default(), Behavior::Honest);
    }
}
