//! The trainer's and the aggregator's progress through a round, driven
//! through the public sans-io API. Each core acts only on the events its
//! stage expects: a training timer counts only while its own round trains,
//! an overlay aggregator takes nothing but its tree root's partial, and
//! nothing that arrives after a round's end starts its end again.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use decentralized_fl::ipfs::{Cid, IpfsWire};
use decentralized_fl::ml::{data, LogisticRegression, Model, SgdConfig};
use decentralized_fl::netsim::{NodeId, SimDuration, SimTime};
use decentralized_fl::protocol::gradient::{build_blob, commit_blob, derive_key, ProtocolKey};
use decentralized_fl::protocol::messages::SyncAnnounce;
use decentralized_fl::protocol::protocol::{Actions, ProtocolAction};
use decentralized_fl::protocol::trainer::ParamSink;
use decentralized_fl::protocol::{
    labels, Aggregator, Behavior, CommMode, Msg, ProtocolCore, ProtocolEvent, TaskConfig, Topology,
    Trainer,
};

/// `LogisticRegression::new(2, 2)` has six parameters.
const PARAMS: usize = 6;

type Effects = Vec<ProtocolAction<Msg>>;

fn topology(cfg: TaskConfig) -> Arc<Topology> {
    Arc::new(Topology::new(cfg, PARAMS).unwrap())
}

fn key(topo: &Topology) -> Option<Arc<ProtocolKey>> {
    let cfg = topo.config();
    let key = || derive_key(topo.max_partition_len(), cfg.seed, true);
    cfg.verifiable.then(|| Arc::new(key()))
}

fn trainer(topo: Arc<Topology>, t: usize) -> Trainer<LogisticRegression> {
    let model = LogisticRegression::new(2, 2);
    let params = model.params();
    let dataset = data::make_blobs(8, 2, 2, 0.5, 1);
    let sink: ParamSink = Arc::new(Mutex::new(HashMap::new()));
    let key = key(&topo);
    let sgd = SgdConfig::default();
    Trainer::new(t, topo, key, model, params, dataset, sgd, sink)
}

/// Hands `event` to `core` at `secs` seconds and returns what it did.
fn run<C: ProtocolCore<Msg = Msg>>(core: &mut C, secs: u64, event: ProtocolEvent<Msg>) -> Effects {
    let mut out = Actions::new();
    core.handle(SimTime::from_micros(secs * 1_000_000), event, &mut out);
    out.drain().collect()
}

fn msg(msg: Msg) -> ProtocolEvent<Msg> {
    let from = NodeId(0);
    ProtocolEvent::Message { from, msg }
}

fn timer(token: u64) -> ProtocolEvent<Msg> {
    ProtocolEvent::Timer { token }
}

fn start(iter: u64) -> ProtocolEvent<Msg> {
    msg(Msg::StartRound { iter })
}

fn recorded(actions: &Effects, label: &str) -> usize {
    let is = |a: &&ProtocolAction<Msg>| matches!(a, ProtocolAction::Record { label: l, .. } if *l == label);
    actions.iter().filter(is).count()
}

fn sent(actions: &Effects) -> impl Iterator<Item = &Msg> {
    actions.iter().filter_map(|a| match a {
        ProtocolAction::Send { msg, .. } => Some(msg),
        _ => None,
    })
}

/// The token of the one timer armed with `delay`.
fn armed(actions: &Effects, delay: SimDuration) -> u64 {
    let tokens: Vec<u64> = actions
        .iter()
        .filter_map(|a| match a {
            ProtocolAction::SetTimer { delay: d, token } if *d == delay => Some(*token),
            _ => None,
        })
        .collect();
    assert_eq!(tokens.len(), 1, "one timer of {delay:?}: {actions:?}");
    tokens[0]
}

/// The `(request id, data)` of every storage `Put` sent.
fn puts(actions: &Effects) -> Vec<(u64, Bytes)> {
    let put = |m: &Msg| match m {
        Msg::Ipfs(IpfsWire::Put { data, req_id, .. }) => Some((*req_id, data.clone())),
        _ => None,
    };
    sent(actions).filter_map(put).collect()
}

/// The `(cid, request id)` of every storage `Get` sent.
fn gets(actions: &Effects) -> Vec<(Cid, u64)> {
    let get = |m: &Msg| match m {
        Msg::Ipfs(IpfsWire::Get { cid, req_id }) => Some((*cid, *req_id)),
        _ => None,
    };
    sent(actions).filter_map(get).collect()
}

fn count(actions: &Effects, wanted: impl Fn(&Msg) -> bool) -> usize {
    sent(actions).filter(|m| wanted(m)).count()
}

fn blob(value: f32) -> Bytes {
    Bytes::from(build_blob(&[value; PARAMS]))
}

fn get_ok(cid: Cid, req_id: u64, data: Bytes) -> ProtocolEvent<Msg> {
    msg(Msg::Ipfs(IpfsWire::GetOk { cid, data, req_id }))
}

/// A verifiable single-partition task on a binary overlay of 4 trainers.
fn overlay(comm: CommMode, train_compute: SimDuration) -> TaskConfig {
    TaskConfig {
        trainers: 4,
        partitions: 1,
        comm,
        verifiable: true,
        overlay_branching: Some(2),
        train_compute,
        ..TaskConfig::default()
    }
}

/// A trainer with no children in the overlay tree.
fn leaf(topo: &Topology) -> usize {
    let tree = topo.overlay().unwrap();
    (0..tree.len())
        .find(|&t| tree.children(t).is_empty())
        .unwrap()
}

/// The partition update an overlay aggregator pushes down the tree.
fn overlay_update(iter: u64) -> Msg {
    let (partition, data, signature) = (0, blob(0.5), None);
    Msg::OverlayUpdate {
        partition,
        iter,
        data,
        signature,
    }
}

/// A well-formed root partial of round `iter` that opens its commitment.
fn root_partial(key: &ProtocolKey, root: usize, iter: u64) -> Msg {
    let data = blob(2.0);
    let commitment = commit_blob(key, &data).unwrap().to_bytes();
    Msg::OverlayPartial {
        trainer: root,
        partition: 0,
        iter,
        data,
        count: 4,
        commitment,
        signature: None,
    }
}

/// Regression: the training timer's token did not carry its round, so
/// round 0's timer, firing after round 1 had started, uploaded round 1's
/// blobs a second before round 1's own timer uploaded them again.
#[test]
fn a_training_timer_from_an_earlier_round_uploads_nothing() {
    let cfg = TaskConfig {
        partitions: 2,
        train_compute: SimDuration::from_secs(5),
        ..TaskConfig::default()
    };
    let train = cfg.train_compute;
    let mut trainer = trainer(topology(cfg), 0);
    let round0 = armed(&run(&mut trainer, 0, start(0)), train);
    let round1 = armed(&run(&mut trainer, 1, start(1)), train);

    let stale = run(&mut trainer, 5, timer(round0));
    assert!(puts(&stale).is_empty(), "{stale:?}");
    assert_eq!(recorded(&stale, labels::UPLOAD_START), 0);

    let own = run(&mut trainer, 6, timer(round1));
    assert_eq!(puts(&own).len(), 2, "one Put per partition");
    assert_eq!(recorded(&own, labels::UPLOAD_START), 1);
}

/// Regression: an overlay leaf that applied a pushed update before its
/// training time was up still forwarded a partial when the training timer
/// fired, and recorded an upload for a round it had finished.
#[test]
fn an_overlay_trainer_sends_nothing_after_its_round_finished() {
    let cfg = overlay(CommMode::Indirect, SimDuration::from_secs(5));
    let train = cfg.train_compute;
    let topo = topology(cfg);
    let mut trainer = trainer(topo.clone(), leaf(&topo));
    let training = armed(&run(&mut trainer, 0, start(0)), train);

    let applied = run(&mut trainer, 1, msg(overlay_update(0)));
    assert_eq!(recorded(&applied, labels::TRAINER_ROUND_DONE), 1);

    let late = run(&mut trainer, 5, timer(training));
    assert!(late.is_empty(), "{late:?}");
}

/// Regression: four `DirectGradient`s, from any sender, made an overlay
/// aggregator aggregate them on the flat path, upload a global update
/// built from them, and then drop the real root partial.
#[test]
fn flat_gradients_reach_nothing_at_an_overlay_aggregator() {
    let topo = topology(overlay(CommMode::Direct, SimDuration::ZERO));
    let key = key(&topo).unwrap();
    let root = topo.overlay().unwrap().root();
    let mut agg = Aggregator::new(0, topo, Some(key.clone()), Behavior::Honest);
    run(&mut agg, 0, start(0));

    let mut flat = Vec::new();
    for trainer in 0..4 {
        let (partition, iter, data) = (0, 0, blob(trainer as f32));
        let gradient = Msg::DirectGradient {
            trainer,
            partition,
            iter,
            data,
        };
        flat.extend(run(&mut agg, 1, msg(gradient)));
    }
    assert!(flat.is_empty(), "{flat:?}");

    let pushed = run(&mut agg, 2, msg(root_partial(&key, root, 0)));
    assert_eq!(recorded(&pushed, labels::GRADS_AGGREGATED), 1);
    assert_eq!(recorded(&pushed, labels::SYNC_DONE), 1);
    let update = |m: &Msg| matches!(m, Msg::OverlayUpdate { .. });
    assert_eq!(count(&pushed, update), 1);
}

/// After `Done`, a second root partial pushes no second update.
#[test]
fn an_overlay_aggregator_pushes_one_update_a_round() {
    let topo = topology(overlay(CommMode::Indirect, SimDuration::ZERO));
    let key = key(&topo).unwrap();
    let root = topo.overlay().unwrap().root();
    let mut agg = Aggregator::new(0, topo, Some(key.clone()), Behavior::Honest);
    run(&mut agg, 0, start(0));
    let update = |m: &Msg| matches!(m, Msg::OverlayUpdate { .. });
    let pushed = run(&mut agg, 1, msg(root_partial(&key, root, 0)));
    assert_eq!(count(&pushed, update), 1);

    let again = run(&mut agg, 2, msg(root_partial(&key, root, 0)));
    assert_eq!(count(&again, update), 0, "{again:?}");
    assert_eq!(recorded(&again, labels::SYNC_DONE), 0);
    assert_eq!(recorded(&again, labels::OVERLAY_AGG_MSG), 1, "still booked");

    // The next round takes its own root partial.
    run(&mut agg, 3, start(1));
    let next = run(&mut agg, 4, msg(root_partial(&key, root, 1)));
    assert_eq!(count(&next, update), 1);
}

/// A flat aggregator of slot 0 in a two-slot partition, driven to `Done`
/// with its own gradients and slot 1's recovered from storage. After it,
/// neither a deadline or watchdog timer nor slot 1's late partial ends
/// the round again.
#[test]
fn after_the_global_update_a_flat_aggregator_uploads_nothing() {
    let t_sync = SimDuration::from_secs(1200);
    let watchdog = SimDuration::from_secs(2);
    let cfg = TaskConfig {
        partitions: 1,
        aggregators_per_partition: 2,
        sync_watchdog: Some(watchdog),
        t_sync,
        ..TaskConfig::default()
    };
    let mut agg = Aggregator::new(0, topology(cfg), None, Behavior::Honest);
    let started = run(&mut agg, 0, start(0));
    let (deadline, watchdog) = (armed(&started, t_sync), armed(&started, watchdog));

    // Own set T_00 = {0, 2}: registered, fetched, summed, uploaded.
    let list = |trainers: [usize; 2]| {
        let entries = trainers.map(|t| (t, Cid::of(&blob(t as f32)), None));
        msg(Msg::GradientList {
            partition: 0,
            iter: 0,
            entries: entries.to_vec(),
        })
    };
    let fetch = |agg: &mut Aggregator, secs, requested: &Effects| {
        let mut actions = Vec::new();
        for (cid, req_id) in gets(requested) {
            let t = (0..4).find(|&t| Cid::of(&blob(t as f32)) == cid).unwrap();
            actions.extend(run(agg, secs, get_ok(cid, req_id, blob(t as f32))));
        }
        actions
    };
    let requested = run(&mut agg, 1, list([0, 2]));
    let summed = fetch(&mut agg, 1, &requested);
    assert_eq!(recorded(&summed, labels::GRADS_AGGREGATED), 1);
    let [(req_id, partial)] = &puts(&summed)[..] else {
        panic!("one partial uploaded: {summed:?}");
    };
    let ack = IpfsWire::PutAck {
        cid: Cid::of(partial),
        req_id: *req_id,
    };
    run(&mut agg, 1, msg(Msg::Ipfs(ack)));

    // Slot 1 stays silent: the watchdog recovers T_01 = {1, 3}.
    let recovering = run(&mut agg, 2, timer(watchdog));
    assert_eq!(recorded(&recovering, labels::DROPOUT_RECOVERY), 1);
    let requested = run(&mut agg, 3, list([1, 3]));
    let done = fetch(&mut agg, 3, &requested);
    assert_eq!(recorded(&done, labels::ROUND_RECOVERED), 1);
    assert_eq!(recorded(&done, labels::SYNC_DONE), 1);
    assert_eq!(puts(&done).len(), 1, "the global update");

    // After `Done`: the timers, and slot 1's late partial.
    let mut after = run(&mut agg, 4, timer(watchdog));
    after.extend(run(&mut agg, 1200, timer(deadline)));
    let announce = SyncAnnounce {
        partition: 0,
        agg_j: 1,
        iter: 0,
        cid: Cid::of(&blob(4.0)),
        contributors: Vec::new(),
        signature: None,
    };
    let deliver = IpfsWire::Deliver {
        topic: "ipls/sync/0".to_string(),
        data: Bytes::from(announce.encode()),
        publisher: NodeId(0),
    };
    let fetching = run(&mut agg, 5, msg(Msg::Ipfs(deliver)));
    let [(cid, req_id)] = gets(&fetching)[..] else {
        panic!("the late partial is still fetched: {fetching:?}");
    };
    after.extend(run(&mut agg, 5, get_ok(cid, req_id, blob(4.0))));
    assert_eq!(recorded(&after, labels::SYNC_DONE), 0, "{after:?}");
    assert!(puts(&after).is_empty(), "{after:?}");
    let register = |m: &Msg| matches!(m, Msg::RegisterUpdate { .. });
    assert_eq!(count(&after, register), 0);
}

/// After `Finished`, a late `UpdateInfo` (flat) or `OverlayUpdate`
/// (overlay) sends no second `TrainerDone`.
#[test]
fn after_finishing_a_trainer_reports_done_once() {
    let done = |m: &Msg| matches!(m, Msg::TrainerDone { .. });

    // Flat, direct mode: upload at once, then fetch the announced update.
    let cfg = TaskConfig {
        partitions: 1,
        comm: CommMode::Direct,
        ..TaskConfig::default()
    };
    let mut flat = trainer(topology(cfg), 0);
    let training = armed(&run(&mut flat, 0, start(0)), SimDuration::ZERO);
    run(&mut flat, 0, timer(training));
    let (cid, update) = (Cid::of(&blob(0.5)), blob(0.5));
    let info = || {
        let (partition, iter, cid) = (0, 0, Some(cid));
        msg(Msg::UpdateInfo {
            partition,
            iter,
            cid,
        })
    };
    let [(_, req_id)] = gets(&run(&mut flat, 1, info()))[..] else {
        panic!("the announced update is fetched");
    };
    let finished = run(&mut flat, 1, get_ok(cid, req_id, update.clone()));
    assert_eq!(count(&finished, done), 1);
    let mut late = run(&mut flat, 2, info());
    late.extend(run(&mut flat, 2, get_ok(cid, req_id, update)));
    assert!(late.is_empty(), "{late:?}");

    // Overlay: forward the own partial, apply the pushed update.
    let topo = topology(overlay(CommMode::Indirect, SimDuration::ZERO));
    let mut leaf = trainer(topo.clone(), leaf(&topo));
    let training = armed(&run(&mut leaf, 0, start(0)), SimDuration::ZERO);
    let forwarded = run(&mut leaf, 0, timer(training));
    assert_eq!(recorded(&forwarded, labels::OVERLAY_FORWARDED), 1);
    let finished = run(&mut leaf, 1, msg(overlay_update(0)));
    assert_eq!(count(&finished, done), 1);
    let late = run(&mut leaf, 2, msg(overlay_update(0)));
    assert!(late.is_empty(), "{late:?}");
}
