//! The directory core driven through its public sans-io API: it holds a
//! round from its announcement until the round after next is announced,
//! and only announced rounds — with trainers and partitions inside the
//! task — can be completed or registered into.

use std::sync::Arc;

use decentralized_fl::ipfs::Cid;
use decentralized_fl::netsim::{NodeId, SimTime};
use decentralized_fl::protocol::gradient::{build_blob, commit_blob, derive_key};
use decentralized_fl::protocol::protocol::{Actions, ProtocolAction};
use decentralized_fl::protocol::{
    labels, Directory, Msg, ProtocolCore, ProtocolEvent, TaskConfig, Topology,
};

const PEER: NodeId = NodeId(999);

fn directory(cfg: TaskConfig) -> Directory {
    let topo = Arc::new(Topology::new(cfg, 4).unwrap());
    let key = topo.config().verifiable.then(|| {
        Arc::new(derive_key(
            topo.max_partition_len(),
            topo.config().seed,
            true,
        ))
    });
    let mut dir = Directory::new(topo, key);
    dir.handle(SimTime::ZERO, ProtocolEvent::Start, &mut Actions::new());
    dir
}

fn deliver(dir: &mut Directory, msg: Msg) -> Vec<ProtocolAction<Msg>> {
    let mut out = Actions::new();
    let from = PEER;
    dir.handle(
        SimTime::ZERO,
        ProtocolEvent::Message { from, msg },
        &mut out,
    );
    out.drain().collect()
}

/// The values recorded under `label` by `actions`.
fn recorded(actions: &[ProtocolAction<Msg>], label: &str) -> Vec<f64> {
    let values = actions.iter().filter_map(|a| match a {
        ProtocolAction::Record { label: l, value } if *l == label => Some(*value),
        _ => None,
    });
    values.collect()
}

fn trainer_done(
    dir: &mut Directory,
    trainers: impl IntoIterator<Item = usize>,
    iter: u64,
) -> Vec<f64> {
    let mut completed = Vec::new();
    for trainer in trainers {
        let actions = deliver(dir, Msg::TrainerDone { trainer, iter });
        completed.extend(recorded(&actions, labels::ROUND_COMPLETE));
    }
    completed
}

fn update_cid(dir: &mut Directory, iter: u64) -> Option<Cid> {
    let actions = deliver(dir, Msg::QueryUpdate { partition: 0, iter });
    match &actions[..] {
        [ProtocolAction::Send {
            msg: Msg::UpdateInfo { cid, .. },
            ..
        }] => *cid,
        other => panic!("QueryUpdate is answered with UpdateInfo: {other:?}"),
    }
}

fn plain(trainers: usize, rounds: u64) -> TaskConfig {
    TaskConfig {
        trainers,
        partitions: 1,
        rounds,
        ..TaskConfig::default()
    }
}

/// The observable form of "holds at most two rounds": once round 2 is
/// announced, round 0's update is forgotten while rounds 1 and 2 still
/// answer with theirs.
#[test]
fn the_directory_forgets_a_round_once_the_round_after_next_is_announced() {
    let mut dir = directory(plain(2, 6));
    let cid = |iter: u64| Cid::of(&iter.to_be_bytes());
    for iter in 0..3 {
        let register = Msg::RegisterUpdate {
            aggregator: 0,
            partition: 0,
            iter,
            cid: cid(iter),
            contributors: None,
            signature: None,
        };
        let actions = deliver(&mut dir, register);
        assert_eq!(recorded(&actions, labels::UPDATE_REGISTERED), [0.0]);
        if iter == 1 {
            assert_eq!(update_cid(&mut dir, 0), Some(cid(0)), "round 0 is kept");
        }
        if iter < 2 {
            assert_eq!(trainer_done(&mut dir, 0..2, iter), [iter as f64]);
        }
    }
    assert_eq!(update_cid(&mut dir, 0), None, "round 0 is forgotten");
    assert_eq!(update_cid(&mut dir, 1), Some(cid(1)));
    assert_eq!(update_cid(&mut dir, 2), Some(cid(2)));
    // Messages about a forgotten round change nothing.
    assert!(trainer_done(&mut dir, 0..2, 0).is_empty());
}

/// Regression: `TrainerDone`s for a round the directory never announced
/// used to complete it (and announce the round after it).
#[test]
fn trainer_done_for_an_unannounced_round_completes_nothing() {
    let mut dir = directory(plain(4, 8));
    for trainer in 0..4 {
        let actions = deliver(&mut dir, Msg::TrainerDone { trainer, iter: 5 });
        assert!(actions.is_empty(), "{actions:?}");
    }
    assert_eq!(
        trainer_done(&mut dir, 0..4, 0),
        [0.0],
        "round 0 still completes"
    );
}

/// Regression: trainer indices outside the task used to count toward the
/// `trainers` (or `min_quorum`) a round needs to complete.
#[test]
fn out_of_range_trainers_do_not_complete_a_round() {
    let mut dir = directory(plain(4, 2));
    assert!(trainer_done(&mut dir, [4, 5, 1000, usize::MAX], 0).is_empty());
    assert!(trainer_done(&mut dir, 0..3, 0).is_empty());
    assert_eq!(trainer_done(&mut dir, [3], 0), [0.0]);
}

/// Regression: an unauthenticated registration naming a trainer outside
/// the task used to add a commitment of its own, so the partition's
/// accumulator (the product over every trainer) was never formed and the
/// honest update could not verify.
#[test]
fn out_of_range_registrations_do_not_poison_the_accumulator() {
    let cfg = TaskConfig {
        verifiable: true,
        ..plain(4, 1)
    };
    let key = derive_key(4, cfg.seed, true);
    let registration = |trainer: usize, partition: usize| {
        let blob = build_blob(&[trainer as f32; 4]);
        let commitment = commit_blob(&key, &blob).unwrap().to_bytes();
        Msg::RegisterGradient {
            trainer,
            partition,
            iter: 0,
            cid: Cid::of(&blob),
            commitment: Some(commitment),
            signature: None,
        }
    };
    let total = |dir: &mut Directory| {
        let query = Msg::QueryTotalAccumulator {
            partition: 0,
            iter: 0,
        };
        match &deliver(dir, query)[..] {
            [ProtocolAction::Send {
                msg: Msg::TotalAccumulator { accumulated, .. },
                ..
            }] => *accumulated,
            other => panic!("answered with TotalAccumulator: {other:?}"),
        }
    };

    let mut honest = directory(cfg.clone());
    let mut attacked = directory(cfg);
    for trainer in 0..4 {
        deliver(&mut honest, registration(trainer, 0));
        deliver(&mut attacked, registration(trainer, 0));
    }
    deliver(&mut attacked, registration(9, 0));
    deliver(&mut attacked, registration(0, 7));
    let expected = total(&mut honest);
    assert!(expected.is_some());
    assert_eq!(total(&mut attacked), expected);
}
