//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a clock-driven schedule of failures — crashes,
//! recoveries, silent data loss, per-link degradation — applied to a
//! [`crate::engine::Simulation`] before it runs. Because the plan is an
//! explicit list of `(time, fault)` pairs and the engine's event queue is
//! totally ordered, the same plan on the same workload reproduces the same
//! trace bit-for-bit: churn experiments are exactly replayable per seed.
//!
//! Fault semantics (implemented by the engine):
//!
//! * **Crash** — the node stops responding: in-flight transfers touching it
//!   are torn down, queued timers and deliveries addressed to it are
//!   dropped, and it receives no callbacks until recovery. The actor is
//!   notified via [`crate::engine::Actor::on_fault`] so it can model losing
//!   volatile state (e.g. in-RAM request tables).
//! * **Recover** — callbacks resume; the actor is notified so it can re-arm
//!   timers (dead timers do not resurrect on their own).
//! * **DataLoss** — the node stays up but the actor is told to silently
//!   drop durable state (e.g. stored blocks); peers observe nothing until
//!   they next ask for the data.
//! * **LoseWrites** — the node stays up and keeps acknowledging writes,
//!   but from then on the actor is told to keep none of them (a failing
//!   disk); what it already holds is unaffected.
//! * **DegradeLink** — the node's access-link capacities are replaced and
//!   all active flows are re-shaped from that instant.
//! * **Isolate / Heal** — a transient partition: while isolated, the node
//!   exchanges no traffic with any *other* node (loopback is unaffected,
//!   and the node itself keeps running — unlike a crash, no state is lost
//!   and timers keep firing).
//! * **Chaos** — a seeded per-frame failure process ([`ChaosSpec`]) on the
//!   node's *outbound* traffic: drops, connection resets, truncations,
//!   duplicates, and delays. The simulator and the real-socket backend
//!   interpret the same spec (see the field docs for the per-backend
//!   mapping), so one scripted plan drives chaos on both.
//!
//! This module is deliberately engine-independent (it only needs
//! [`NodeId`] and the clock types), so real-socket backends consume the
//! exact same plan type the simulator does.

use crate::engine::NodeId;
use crate::time::{SimDuration, SimTime};

/// A seeded per-frame failure process applied to one node's outbound
/// traffic. Percentages are rolled per frame, in the order the fields are
/// declared, from one deterministic SplitMix64 stream per `(node, seed)` —
/// the same plan replays the same fault sequence on a given backend.
///
/// The two backends interpret the spec as faithfully as their transport
/// allows:
///
/// * **netsim** — `drop_pct`, `reset_pct`, and `truncate_pct` all destroy
///   the frame before it enters the network (in the fluid flow model a
///   reset or truncation *is* the loss of the message). `dup_pct` and
///   `delay_pct` are ignored: the simulator's messages are moves of owned
///   values with modelled transfer latency, so duplication and extra
///   delay have no meaningful fluid-model counterpart.
/// * **backend-tokio** — `drop_pct` silently skips the write,
///   `reset_pct` kills the live connection (the frame is lost and the
///   writer must reconnect), `truncate_pct` writes a frame prefix and then
///   kills the connection (the receiver sees a torn frame), `dup_pct`
///   writes the frame twice (the protocol must deduplicate), and
///   `delay_pct` sleeps `delay` before writing (head-of-line blocking on
///   that peer's queue).
///
/// All knobs at zero (the [`Default`]) disables chaos on the node.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ChaosSpec {
    /// Percent of frames dropped outright (0–100).
    pub drop_pct: u8,
    /// Percent of frames lost to a connection reset (0–100).
    pub reset_pct: u8,
    /// Percent of frames truncated mid-write (0–100).
    pub truncate_pct: u8,
    /// Percent of frames duplicated (0–100; sockets only).
    pub dup_pct: u8,
    /// Percent of frames delayed by `delay` before the write (0–100;
    /// sockets only).
    pub delay_pct: u8,
    /// How long a delayed frame waits.
    pub delay: SimDuration,
    /// Seed of the node's fault stream.
    pub seed: u64,
}

impl ChaosSpec {
    /// Percent of frames that never arrive (drop + reset + truncate).
    pub fn loss_pct(&self) -> u32 {
        self.drop_pct as u32 + self.reset_pct as u32 + self.truncate_pct as u32
    }

    /// Whether the spec injects anything at all.
    pub fn is_noop(&self) -> bool {
        self.loss_pct() == 0 && self.dup_pct == 0 && self.delay_pct == 0
    }
}

/// SplitMix64 (Steele et al., "Fast splittable pseudorandom number
/// generators"): advances `state` by the golden-ratio increment and returns
/// the mixed result. Every seeded draw of the runtime comes from it.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic per-frame roll stream backing a [`ChaosSpec`]
/// ([`splitmix64`]). Both backends draw from this generator so a plan's fault
/// sequence is reproducible per backend.
#[derive(Clone, Debug)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// A stream seeded for `node` from the spec's seed.
    pub fn for_node(seed: u64, node: NodeId) -> ChaosRng {
        ChaosRng {
            state: seed ^ (node.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// A roll in `0..100`, the unit every [`ChaosSpec`] percentage uses.
    pub fn roll_pct(&mut self) -> u32 {
        (self.next_u64() % 100) as u32
    }
}

/// One injectable failure.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Fault {
    /// The node stops responding (loses volatile state, drops connections).
    Crash(NodeId),
    /// A crashed node starts responding again.
    Recover(NodeId),
    /// The node silently loses durable state (it stays responsive).
    DataLoss(NodeId),
    /// From now on the node acknowledges writes but keeps none of them
    /// (it stays responsive).
    LoseWrites(NodeId),
    /// The node's access link is re-provisioned to the given capacities
    /// (bits/s). Use the original capacities to lift a degradation.
    DegradeLink {
        node: NodeId,
        up_bps: f64,
        down_bps: f64,
    },
    /// Partition the node away from every other node (loopback traffic
    /// and the node's own execution are unaffected).
    Isolate(NodeId),
    /// Lift an [`Fault::Isolate`] partition.
    Heal(NodeId),
    /// Install (or, with a no-op spec, remove) a seeded per-frame failure
    /// process on the node's outbound traffic.
    Chaos {
        /// The node whose outbound frames are subjected to the spec.
        node: NodeId,
        /// The failure process.
        spec: ChaosSpec,
    },
}

impl Fault {
    /// The node the fault applies to.
    pub fn node(&self) -> NodeId {
        match *self {
            Fault::Crash(n) | Fault::Recover(n) | Fault::DataLoss(n) | Fault::LoseWrites(n) => n,
            Fault::Isolate(n) | Fault::Heal(n) => n,
            Fault::DegradeLink { node, .. } | Fault::Chaos { node, .. } => node,
        }
    }
}

/// A clock-driven schedule of faults, reproducible by construction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<(SimTime, Fault)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules `fault` at absolute simulated time `t`.
    pub fn at(mut self, t: SimTime, fault: Fault) -> FaultPlan {
        self.events.push((t, fault));
        self
    }

    /// Crashes `node` at `t`.
    pub fn crash_at(self, t: SimTime, node: NodeId) -> FaultPlan {
        self.at(t, Fault::Crash(node))
    }

    /// Recovers `node` at `t`.
    pub fn recover_at(self, t: SimTime, node: NodeId) -> FaultPlan {
        self.at(t, Fault::Recover(node))
    }

    /// Makes `node` silently lose its durable state at `t`.
    pub fn data_loss_at(self, t: SimTime, node: NodeId) -> FaultPlan {
        self.at(t, Fault::DataLoss(node))
    }

    /// Re-provisions `node`'s access link at `t`.
    pub fn degrade_link_at(
        self,
        t: SimTime,
        node: NodeId,
        up_bps: f64,
        down_bps: f64,
    ) -> FaultPlan {
        self.at(
            t,
            Fault::DegradeLink {
                node,
                up_bps,
                down_bps,
            },
        )
    }

    /// Partitions `node` away from every other node at `t`.
    pub fn isolate_at(self, t: SimTime, node: NodeId) -> FaultPlan {
        self.at(t, Fault::Isolate(node))
    }

    /// Lifts `node`'s partition at `t`.
    pub fn heal_at(self, t: SimTime, node: NodeId) -> FaultPlan {
        self.at(t, Fault::Heal(node))
    }

    /// Installs a seeded outbound failure process on `node` at `t`.
    pub fn chaos_at(self, t: SimTime, node: NodeId, spec: ChaosSpec) -> FaultPlan {
        self.at(t, Fault::Chaos { node, spec })
    }

    /// A churn schedule: starting at `start` and every `period` until `end`,
    /// one node drawn deterministically from `nodes` (SplitMix64 on `seed`)
    /// crashes and recovers after `outage`. Crash/recover pairs may overlap
    /// across nodes; repeated crashes of an already-down node are harmless.
    pub fn churn(
        nodes: &[NodeId],
        start: SimTime,
        end: SimTime,
        period: SimDuration,
        outage: SimDuration,
        seed: u64,
    ) -> FaultPlan {
        assert!(!nodes.is_empty(), "churn needs at least one candidate node");
        assert!(period.as_micros() > 0, "churn period must be positive");
        let mut plan = FaultPlan::new();
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut t = start;
        while t <= end {
            let victim = nodes[(splitmix64(&mut state) % nodes.len() as u64) as usize];
            plan = plan.crash_at(t, victim).recover_at(t + outage, victim);
            t += period;
        }
        plan
    }

    /// Whether the plan injects anything.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled `(time, fault)` pairs, in insertion order.
    pub fn events(&self) -> &[(SimTime, Fault)] {
        &self.events
    }

    /// The nodes the plan touches (with repeats), for validation against a
    /// deployment's node count.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.events.iter().map(|(_, f)| f.node())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_in_order() {
        let n = NodeId(3);
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_micros(5), n)
            .recover_at(SimTime::from_micros(9), n)
            .data_loss_at(SimTime::from_micros(12), NodeId(1));
        assert_eq!(plan.events().len(), 3);
        assert_eq!(plan.events()[0], (SimTime::from_micros(5), Fault::Crash(n)));
        assert_eq!(
            plan.events()[1],
            (SimTime::from_micros(9), Fault::Recover(n))
        );
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn chaos_and_partition_builders() {
        let spec = ChaosSpec {
            drop_pct: 5,
            reset_pct: 20,
            ..ChaosSpec::default()
        };
        let plan = FaultPlan::new()
            .chaos_at(SimTime::from_micros(0), NodeId(2), spec)
            .isolate_at(SimTime::from_micros(10), NodeId(1))
            .heal_at(SimTime::from_micros(20), NodeId(1));
        assert_eq!(plan.events().len(), 3);
        assert_eq!(
            plan.events()[0],
            (
                SimTime::from_micros(0),
                Fault::Chaos {
                    node: NodeId(2),
                    spec
                }
            )
        );
        assert_eq!(plan.events()[1].1.node(), NodeId(1));
        assert_eq!(spec.loss_pct(), 25);
        assert!(!spec.is_noop());
        assert!(ChaosSpec::default().is_noop());
    }

    #[test]
    fn chaos_rng_is_deterministic_and_node_scoped() {
        let mut a = ChaosRng::for_node(7, NodeId(3));
        let mut b = ChaosRng::for_node(7, NodeId(3));
        let mut c = ChaosRng::for_node(7, NodeId(4));
        let seq_a: Vec<u32> = (0..32).map(|_| a.roll_pct()).collect();
        let seq_b: Vec<u32> = (0..32).map(|_| b.roll_pct()).collect();
        let seq_c: Vec<u32> = (0..32).map(|_| c.roll_pct()).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
        assert!(seq_a.iter().all(|&r| r < 100));
    }

    #[test]
    fn splitmix64_is_the_reference_stream() {
        let mut state = 0;
        let draws = [splitmix64(&mut state), splitmix64(&mut state)];
        assert_eq!(draws, [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4]);
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let nodes = [NodeId(1), NodeId(2), NodeId(3)];
        let mk = |seed| {
            FaultPlan::churn(
                &nodes,
                SimTime::from_micros(1_000_000),
                SimTime::from_micros(60_000_000),
                SimDuration::from_secs(10),
                SimDuration::from_secs(5),
                seed,
            )
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
        // 1s, 11s, ..., 51s -> 6 windows, each a crash + a recover.
        assert_eq!(mk(7).events().len(), 12);
        for pair in mk(7).events().chunks(2) {
            assert!(matches!(pair[0].1, Fault::Crash(_)));
            assert!(matches!(pair[1].1, Fault::Recover(_)));
            assert_eq!(pair[1].0, pair[0].0 + SimDuration::from_secs(5));
        }
    }
}
