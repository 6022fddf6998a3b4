//! Wall-clock interpretation of netsim's [`FaultPlan`] for real sockets.
//!
//! The simulator applies a plan's `(time, fault)` pairs against virtual
//! time; here a driver thread replays the same pairs against the run's
//! wall-clock epoch. The transport-visible consequences live in
//! [`NetFaults`], a lock-light table every writer, acceptor, and node
//! loop consults:
//!
//! * **Crash / Recover** — `down[n]` gates everything the node does: its
//!   outbound frames are dropped at the writer (counted), inbound frames
//!   and timer firings are discarded by its node loop (counted), and its
//!   acceptor refuses new connections. The node's cached outbound
//!   connections are torn down (generation bump) so peers observe real
//!   resets. The OS listener itself stays bound for the node's whole
//!   life — rebinding an ephemeral port after recovery would race other
//!   sockets (see DESIGN.md §13) — so "restart" means the down flag
//!   clears and the still-running threads resume service.
//! * **Isolate / Heal** — frames between an isolated node and any *other*
//!   node are dropped at the sending writer (self-sends unaffected),
//!   exactly where netsim drops them.
//! * **Chaos** — installs a seeded [`ChaosSpec`] consulted per outbound
//!   frame by [`NetFaults::verdict`]. One SplitMix64 roll per frame is
//!   partitioned across the spec's percentages in field order, so a spec
//!   whose knobs sum ≤ 100 injects each fault kind at its stated rate.
//! * **DataLoss / LoseWrites / DegradeLink** — no transport meaning on
//!   loopback TCP; the fault event is still delivered to the core (storage
//!   nodes drop their blocks on `DataLoss` and stop keeping writes on
//!   `LoseWrites`), and link shaping is documented as netsim-only.
//!
//! Every fault is also forwarded to the target node's event channel as
//! [`ProtocolEvent::Fault`], so cores observe the same callbacks they get
//! from the simulator's `on_fault` dispatch.
//!
//! [`ProtocolEvent::Fault`]: ipls::protocol::ProtocolEvent

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dfl_netsim::{ChaosRng, ChaosSpec, Fault, FaultPlan, NodeId};

use crate::{lock, NodeEvent};

/// What the fault table decides about one outbound frame.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Verdict {
    /// Write the frame normally.
    Deliver,
    /// The sender is crashed: drop the frame (counted, no retry).
    SenderDown,
    /// Sender or receiver is partitioned away: drop the frame.
    Isolated,
    /// Chaos: silently skip the write.
    ChaosDrop,
    /// Chaos: kill the connection instead of writing (frame lost, the
    /// writer reconnects for the next frame).
    ChaosReset,
    /// Chaos: write a frame prefix, then kill the connection (the
    /// receiver sees a torn frame and a decode error).
    ChaosTruncate,
    /// Chaos: write the frame twice (receiver must deduplicate).
    ChaosDup,
    /// Chaos: sleep this long, then write (head-of-line blocking on the
    /// peer's queue).
    ChaosDelay(Duration),
}

/// Shared fault state for one run, indexed by node.
pub(crate) struct NetFaults {
    /// `down[n]`: node `n` is crashed.
    down: Vec<AtomicBool>,
    /// `isolated[n]`: node `n` is partitioned from every other node.
    isolated: Vec<AtomicBool>,
    /// Connection generation per node; a bump tells the node's writers to
    /// drop their cached streams (crash teardown).
    conn_gen: Vec<AtomicU64>,
    /// Installed chaos process per node (spec + its roll stream).
    chaos: Vec<Mutex<Option<(ChaosSpec, ChaosRng)>>>,
}

impl NetFaults {
    pub(crate) fn new(nodes: usize) -> NetFaults {
        NetFaults {
            down: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            isolated: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            conn_gen: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            chaos: (0..nodes).map(|_| Mutex::new(None)).collect(),
        }
    }

    pub(crate) fn is_down(&self, node: NodeId) -> bool {
        self.down[node.index()].load(Ordering::Relaxed)
    }

    /// The sender-side connection generation for `node`; writers re-check
    /// it per frame and drop their stream when it moves.
    pub(crate) fn conn_gen(&self, node: NodeId) -> u64 {
        self.conn_gen[node.index()].load(Ordering::Relaxed)
    }

    /// Decides the fate of one `from → to` frame. Loopback (`from == to`)
    /// skips partitions and chaos, mirroring the simulator; a crashed
    /// sender drops even loopback frames (its actions are discarded).
    pub(crate) fn verdict(&self, from: NodeId, to: NodeId) -> Verdict {
        if self.is_down(from) {
            return Verdict::SenderDown;
        }
        if from == to {
            return Verdict::Deliver;
        }
        if self.isolated[from.index()].load(Ordering::Relaxed)
            || self.isolated[to.index()].load(Ordering::Relaxed)
        {
            return Verdict::Isolated;
        }
        let mut guard = lock(&self.chaos[from.index()]);
        let Some((spec, rng)) = guard.as_mut() else {
            return Verdict::Deliver;
        };
        // One roll per frame, partitioned across the knobs in field
        // order — the same draw discipline netsim uses for its combined
        // loss band, extended to the socket-only fault kinds.
        let roll = rng.roll_pct();
        let mut band = spec.drop_pct as u32;
        if roll < band {
            return Verdict::ChaosDrop;
        }
        band += spec.reset_pct as u32;
        if roll < band {
            return Verdict::ChaosReset;
        }
        band += spec.truncate_pct as u32;
        if roll < band {
            return Verdict::ChaosTruncate;
        }
        band += spec.dup_pct as u32;
        if roll < band {
            return Verdict::ChaosDup;
        }
        band += spec.delay_pct as u32;
        if roll < band {
            return Verdict::ChaosDelay(Duration::from_micros(spec.delay.as_micros()));
        }
        Verdict::Deliver
    }

    pub(crate) fn apply(&self, fault: &Fault) {
        match *fault {
            Fault::Crash(node) => {
                self.down[node.index()].store(true, Ordering::Relaxed);
                // Tear the node's outbound connections so peers see real
                // resets, as netsim tears a crashed node's flows.
                self.conn_gen[node.index()].fetch_add(1, Ordering::Relaxed);
            }
            Fault::Recover(node) => self.down[node.index()].store(false, Ordering::Relaxed),
            Fault::Isolate(node) => self.isolated[node.index()].store(true, Ordering::Relaxed),
            Fault::Heal(node) => self.isolated[node.index()].store(false, Ordering::Relaxed),
            Fault::Chaos { node, spec } => {
                *lock(&self.chaos[node.index()]) =
                    (!spec.is_noop()).then(|| (spec, ChaosRng::for_node(spec.seed, node)));
            }
            // Durable-state loss is a core-level event; link shaping has
            // no loopback-TCP counterpart (netsim-only, DESIGN.md §13).
            Fault::DataLoss(_) | Fault::LoseWrites(_) | Fault::DegradeLink { .. } => {}
        }
    }
}

/// Replays `plan` against wall-clock time: sleeps until each event's
/// offset from `epoch`, flips the [`NetFaults`] state, and forwards the
/// fault to the target node's event channel. Exits when the plan is
/// exhausted or `shutdown` flips.
pub(crate) fn drive_plan(
    plan: FaultPlan,
    epoch: Instant,
    faults: Arc<NetFaults>,
    txs: Vec<mpsc::Sender<NodeEvent>>,
    shutdown: Arc<AtomicBool>,
) {
    let mut events: Vec<_> = plan.events().to_vec();
    // Stable by time: same-instant faults keep plan order, like netsim's
    // ordered event queue.
    events.sort_by_key(|(t, _)| *t);
    for (t, fault) in events {
        let due = Duration::from_micros(t.as_micros());
        loop {
            if shutdown.load(Ordering::Relaxed) {
                return;
            }
            let elapsed = epoch.elapsed();
            if elapsed >= due {
                break;
            }
            // Sleep in short slices so shutdown is honoured promptly.
            std::thread::sleep((due - elapsed).min(Duration::from_millis(20)));
        }
        faults.apply(&fault);
        let _ = txs[fault.node().index()].send(NodeEvent::Fault { fault });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_gates_sends_and_bumps_conn_generation() {
        let faults = NetFaults::new(3);
        assert_eq!(faults.verdict(NodeId(1), NodeId(2)), Verdict::Deliver);
        let gen = faults.conn_gen(NodeId(1));
        faults.apply(&Fault::Crash(NodeId(1)));
        assert!(faults.is_down(NodeId(1)));
        assert_eq!(faults.verdict(NodeId(1), NodeId(2)), Verdict::SenderDown);
        assert_eq!(faults.conn_gen(NodeId(1)), gen + 1);
        faults.apply(&Fault::Recover(NodeId(1)));
        assert_eq!(faults.verdict(NodeId(1), NodeId(2)), Verdict::Deliver);
    }

    #[test]
    fn isolation_cuts_both_directions_but_not_loopback() {
        let faults = NetFaults::new(3);
        faults.apply(&Fault::Isolate(NodeId(2)));
        assert_eq!(faults.verdict(NodeId(2), NodeId(0)), Verdict::Isolated);
        assert_eq!(faults.verdict(NodeId(0), NodeId(2)), Verdict::Isolated);
        assert_eq!(faults.verdict(NodeId(2), NodeId(2)), Verdict::Deliver);
        assert_eq!(faults.verdict(NodeId(0), NodeId(1)), Verdict::Deliver);
        faults.apply(&Fault::Heal(NodeId(2)));
        assert_eq!(faults.verdict(NodeId(2), NodeId(0)), Verdict::Deliver);
    }

    #[test]
    fn chaos_bands_partition_the_roll_space() {
        let faults = NetFaults::new(2);
        let spec = ChaosSpec {
            drop_pct: 100,
            seed: 9,
            ..ChaosSpec::default()
        };
        faults.apply(&Fault::Chaos {
            node: NodeId(0),
            spec,
        });
        for _ in 0..16 {
            assert_eq!(faults.verdict(NodeId(0), NodeId(1)), Verdict::ChaosDrop);
        }
        // Loopback is exempt even under total chaos.
        assert_eq!(faults.verdict(NodeId(0), NodeId(0)), Verdict::Deliver);
        // A no-op spec uninstalls the process.
        faults.apply(&Fault::Chaos {
            node: NodeId(0),
            spec: ChaosSpec::default(),
        });
        assert_eq!(faults.verdict(NodeId(0), NodeId(1)), Verdict::Deliver);
    }

    #[test]
    fn chaos_mix_is_deterministic_per_seed() {
        let run = || {
            let faults = NetFaults::new(2);
            faults.apply(&Fault::Chaos {
                node: NodeId(0),
                spec: ChaosSpec {
                    drop_pct: 20,
                    reset_pct: 20,
                    truncate_pct: 10,
                    dup_pct: 10,
                    delay_pct: 10,
                    delay: dfl_netsim::SimDuration::from_millis(5),
                    seed: 42,
                },
            });
            (0..64)
                .map(|_| faults.verdict(NodeId(0), NodeId(1)))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains(&Verdict::Deliver));
        assert!(a.iter().any(|v| *v != Verdict::Deliver));
    }
}
