//! Max–min fair bandwidth allocation (progressive water-filling).
//!
//! Each node has an access link with finite uplink and downlink capacity —
//! the same model mininet emulates for the paper's testbed, where trainers,
//! aggregators, and IPFS nodes all sit behind 10–20 Mbps links. Every active
//! flow is constrained by its source's uplink and its destination's
//! downlink; rates are assigned max–min fairly: the most contended link is
//! saturated first, its flows are frozen at the fair share, and the process
//! repeats on the residual network.
//!
//! This is the standard fluid approximation of TCP fair sharing and is what
//! makes the Fig. 1 provider-count trade-off appear: many trainers uploading
//! into one IPFS provider split its downlink, while an aggregator fetching
//! from many providers splits its own downlink.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One directed flow between two nodes, described by the link constraints it
/// crosses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FlowDesc {
    /// Index of the source node (constrains via its uplink).
    pub src: usize,
    /// Index of the destination node (constrains via its downlink).
    pub dst: usize,
}

/// Computes max–min fair rates (in bits/s) for `flows`, given per-node
/// uplink and downlink capacities (bits/s).
///
/// Returns one rate per flow, in input order. Nodes with zero capacity
/// starve their flows (rate 0) rather than panicking, so callers can model
/// dead links.
///
/// # Panics
///
/// Panics if a flow references a node index out of bounds.
pub fn max_min_rates(flows: &[FlowDesc], up_bps: &[f64], down_bps: &[f64]) -> Vec<f64> {
    assert_eq!(up_bps.len(), down_bps.len(), "capacity arrays must align");
    let n_nodes = up_bps.len();
    for f in flows {
        assert!(
            f.src < n_nodes && f.dst < n_nodes,
            "flow references unknown node"
        );
    }

    // Constraint indices: 0..n = uplinks, n..2n = downlinks.
    let mut remaining: Vec<f64> = up_bps.iter().chain(down_bps.iter()).copied().collect();
    let mut unfrozen_count = vec![0usize; 2 * n_nodes];
    for f in flows {
        unfrozen_count[f.src] += 1;
        unfrozen_count[n_nodes + f.dst] += 1;
    }

    let mut rates = vec![0.0f64; flows.len()];
    let mut frozen = vec![false; flows.len()];
    let mut n_frozen = 0;

    while n_frozen < flows.len() {
        // Find the bottleneck: the constraint with the smallest fair share.
        let mut best: Option<(usize, f64)> = None;
        for (c, &cap) in remaining.iter().enumerate() {
            if unfrozen_count[c] == 0 {
                continue;
            }
            let share = (cap / unfrozen_count[c] as f64).max(0.0);
            match best {
                Some((_, s)) if s <= share => {}
                _ => best = Some((c, share)),
            }
        }
        // Proof: an unfrozen flow counts in both constraints it crosses, so
        // at least one constraint has `unfrozen_count > 0`.
        #[allow(clippy::expect_used)]
        let (bottleneck, share) = best.expect("unfrozen flows imply an active constraint");

        // Freeze every unfrozen flow crossing the bottleneck at the share,
        // and charge its rate to the other constraint it crosses.
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let up_c = f.src;
            let down_c = n_nodes + f.dst;
            if up_c == bottleneck || down_c == bottleneck {
                rates[i] = share;
                frozen[i] = true;
                n_frozen += 1;
                for c in [up_c, down_c] {
                    if c != bottleneck {
                        remaining[c] = (remaining[c] - share).max(0.0);
                        unfrozen_count[c] -= 1;
                    } else {
                        unfrozen_count[c] -= 1;
                    }
                }
            }
        }
        remaining[bottleneck] = 0.0;
    }
    rates
}

/// Convenience: megabits/s → bits/s.
pub const fn mbps(v: u64) -> f64 {
    (v * 1_000_000) as f64
}

/// An `f64` fair share with a total order (shares are finite and
/// non-negative, so `total_cmp` agrees with the numeric order the reference
/// scan uses).
#[derive(Copy, Clone, Debug)]
struct Share(f64);

impl PartialEq for Share {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0).is_eq()
    }
}
impl Eq for Share {}
impl PartialOrd for Share {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Share {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Incremental water-filler: same progressive algorithm as
/// [`max_min_rates`], but the O(C) bottleneck scan per freeze round is
/// replaced by a min-heap of constraint fair-shares with lazy invalidation,
/// and all working storage persists across calls so the per-call cost is
/// proportional to the flows passed in, not to the whole network.
///
/// Produces **bit-identical** rates to [`max_min_rates`]: the heap pops the
/// `(share, constraint)` minimum — the same tie-break (lowest constraint
/// index among equal shares) the reference's first-strict-minimum scan
/// uses — flows freeze in input order, and every residual-capacity update
/// performs the identical floating-point operation sequence.
///
/// Heap entries are invalidated lazily: every `(remaining, unfrozen)`
/// mutation pushes a fresh entry, and a popped entry is discarded unless
/// the share recomputed from current state equals the stored one.
#[derive(Debug, Default)]
pub struct WaterFiller {
    /// Residual capacity per constraint (0..n uplinks, n..2n downlinks).
    remaining: Vec<f64>,
    /// Unfrozen flows crossing each constraint.
    unfrozen: Vec<usize>,
    /// Flow indices crossing each constraint, in input order. Only the
    /// entries listed in `active` are populated; they are cleared on the
    /// next call so the buffers keep their capacity.
    crossing: Vec<Vec<u32>>,
    /// Constraints touched by the current call.
    active: Vec<usize>,
    frozen: Vec<bool>,
    heap: BinaryHeap<Reverse<(Share, usize)>>,
}

impl WaterFiller {
    /// Creates a filler with empty scratch buffers.
    pub fn new() -> WaterFiller {
        WaterFiller::default()
    }

    /// Computes max–min fair rates for `flows` into `out` (cleared and
    /// resized), given per-node capacities. Semantics and results are
    /// exactly those of [`max_min_rates`].
    ///
    /// # Panics
    ///
    /// Panics if a flow references a node index out of bounds or the
    /// capacity arrays differ in length.
    pub fn rates_into(
        &mut self,
        flows: &[FlowDesc],
        up_bps: &[f64],
        down_bps: &[f64],
        out: &mut Vec<f64>,
    ) {
        assert_eq!(up_bps.len(), down_bps.len(), "capacity arrays must align");
        let n_nodes = up_bps.len();
        if self.crossing.len() < 2 * n_nodes {
            self.remaining.resize(2 * n_nodes, 0.0);
            self.unfrozen.resize(2 * n_nodes, 0);
            self.crossing.resize_with(2 * n_nodes, Vec::new);
        }
        for &c in &self.active {
            self.crossing[c].clear();
        }
        self.active.clear();
        self.heap.clear();

        out.clear();
        out.resize(flows.len(), 0.0);
        self.frozen.clear();
        self.frozen.resize(flows.len(), false);

        for (i, f) in flows.iter().enumerate() {
            assert!(
                f.src < n_nodes && f.dst < n_nodes,
                "flow references unknown node"
            );
            for c in [f.src, n_nodes + f.dst] {
                if self.crossing[c].is_empty() {
                    self.active.push(c);
                }
                self.crossing[c].push(i as u32);
            }
        }
        for &c in &self.active {
            self.remaining[c] = if c < n_nodes {
                up_bps[c]
            } else {
                down_bps[c - n_nodes]
            };
            self.unfrozen[c] = self.crossing[c].len();
            let share = (self.remaining[c] / self.unfrozen[c] as f64).max(0.0);
            self.heap.push(Reverse((Share(share), c)));
        }

        let mut n_frozen = 0;
        while n_frozen < flows.len() {
            // Proof: a constraint with an unfrozen flow always has an entry
            // at its current share, so the heap cannot drain first.
            #[allow(clippy::expect_used)]
            let Reverse((Share(share), bottleneck)) = self
                .heap
                .pop()
                .expect("unfrozen flows imply an active constraint");
            if self.unfrozen[bottleneck] == 0 {
                continue; // fully frozen; stale entry
            }
            let current = (self.remaining[bottleneck] / self.unfrozen[bottleneck] as f64).max(0.0);
            if current != share {
                continue; // superseded by a fresher entry
            }
            // Freeze every unfrozen flow crossing the bottleneck at the
            // share, charging its rate to the other constraint it crosses —
            // in flow input order, exactly like the reference.
            for k in 0..self.crossing[bottleneck].len() {
                let i = self.crossing[bottleneck][k] as usize;
                if self.frozen[i] {
                    continue;
                }
                out[i] = share;
                self.frozen[i] = true;
                n_frozen += 1;
                let f = flows[i];
                for c in [f.src, n_nodes + f.dst] {
                    if c != bottleneck {
                        self.remaining[c] = (self.remaining[c] - share).max(0.0);
                        self.unfrozen[c] -= 1;
                        if self.unfrozen[c] > 0 {
                            let s = (self.remaining[c] / self.unfrozen[c] as f64).max(0.0);
                            self.heap.push(Reverse((Share(s), c)));
                        }
                    } else {
                        self.unfrozen[c] -= 1;
                    }
                }
            }
            self.remaining[bottleneck] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const EPS: f64 = 1e-6;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < EPS * b.abs().max(1.0)
    }

    #[test]
    fn single_flow_gets_bottleneck_rate() {
        // Source uplink 10 Mbps, destination downlink 4 Mbps → flow gets 4.
        let rates = max_min_rates(
            &[FlowDesc { src: 0, dst: 1 }],
            &[mbps(10), mbps(10)],
            &[mbps(10), mbps(4)],
        );
        assert!(close(rates[0], mbps(4)));
    }

    #[test]
    fn two_flows_share_downlink_equally() {
        // Two sources into one sink with 10 Mbps downlink → 5 Mbps each.
        let flows = [FlowDesc { src: 0, dst: 2 }, FlowDesc { src: 1, dst: 2 }];
        let rates = max_min_rates(&flows, &[mbps(100); 3], &[mbps(10); 3]);
        assert!(close(rates[0], mbps(5)));
        assert!(close(rates[1], mbps(5)));
    }

    #[test]
    fn asymmetric_sources_max_min() {
        // Source 0 is limited to 2 Mbps uplink; source 1 is fast. Sink has
        // 10 Mbps downlink. Max–min: flow 0 gets 2, flow 1 gets the rest (8).
        let flows = [FlowDesc { src: 0, dst: 2 }, FlowDesc { src: 1, dst: 2 }];
        let rates = max_min_rates(&flows, &[mbps(2), mbps(100), mbps(100)], &[mbps(10); 3]);
        assert!(close(rates[0], mbps(2)), "slow source pinned at its uplink");
        assert!(close(rates[1], mbps(8)), "fast source takes the residual");
    }

    #[test]
    fn fan_out_shares_uplink() {
        // One source sending to 4 sinks over a 8 Mbps uplink → 2 Mbps each.
        let flows: Vec<_> = (1..=4).map(|d| FlowDesc { src: 0, dst: d }).collect();
        let rates = max_min_rates(&flows, &[mbps(8); 5], &[mbps(100); 5]);
        for r in rates {
            assert!(close(r, mbps(2)));
        }
    }

    #[test]
    fn independent_flows_unconstrained_by_each_other() {
        let flows = [FlowDesc { src: 0, dst: 1 }, FlowDesc { src: 2, dst: 3 }];
        let rates = max_min_rates(&flows, &[mbps(10); 4], &[mbps(10); 4]);
        assert!(close(rates[0], mbps(10)));
        assert!(close(rates[1], mbps(10)));
    }

    #[test]
    fn zero_capacity_starves() {
        let rates = max_min_rates(
            &[FlowDesc { src: 0, dst: 1 }],
            &[0.0, mbps(10)],
            &[mbps(10), mbps(10)],
        );
        assert_eq!(rates[0], 0.0);
    }

    #[test]
    fn empty_input() {
        assert!(max_min_rates(&[], &[mbps(1)], &[mbps(1)]).is_empty());
    }

    #[test]
    fn paper_fig1_topology_shape() {
        // 16 trainers upload to P providers (trainers assigned round-robin),
        // all links 10 Mbps. With P=1 the provider downlink is the
        // bottleneck (10/16 Mbps per trainer); with P=16 each trainer gets
        // its full uplink.
        for (p, expect_per_flow) in [(1usize, mbps(10) / 16.0), (16, mbps(10))] {
            let n = 16 + p;
            let flows: Vec<_> = (0..16)
                .map(|t| FlowDesc {
                    src: t,
                    dst: 16 + (t % p),
                })
                .collect();
            let rates = max_min_rates(&flows, &vec![mbps(10); n], &vec![mbps(10); n]);
            for r in &rates {
                assert!(
                    close(*r, expect_per_flow),
                    "P={p}: rate {r} != {expect_per_flow}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_rates_respect_capacities(
            n_nodes in 2usize..6,
            flow_pairs in proptest::collection::vec((0usize..6, 0usize..6), 1..12),
            caps in proptest::collection::vec(1u64..100, 12),
        ) {
            let flows: Vec<_> = flow_pairs
                .iter()
                .map(|&(s, d)| FlowDesc { src: s % n_nodes, dst: d % n_nodes })
                .collect();
            let up: Vec<f64> = (0..n_nodes).map(|i| mbps(caps[i])).collect();
            let down: Vec<f64> = (0..n_nodes).map(|i| mbps(caps[i + 6])).collect();
            let rates = max_min_rates(&flows, &up, &down);

            // No link is oversubscribed.
            for node in 0..n_nodes {
                let out: f64 = flows.iter().zip(&rates).filter(|(f, _)| f.src == node).map(|(_, r)| r).sum();
                let inn: f64 = flows.iter().zip(&rates).filter(|(f, _)| f.dst == node).map(|(_, r)| r).sum();
                prop_assert!(out <= up[node] * (1.0 + 1e-9) + 1.0);
                prop_assert!(inn <= down[node] * (1.0 + 1e-9) + 1.0);
            }
            // Every flow with positive capacities gets a positive rate.
            for (f, r) in flows.iter().zip(&rates) {
                if up[f.src] > 0.0 && down[f.dst] > 0.0 {
                    prop_assert!(*r > 0.0);
                }
            }
        }

        #[test]
        fn prop_work_conserving(
            n_nodes in 2usize..6,
            flow_pairs in proptest::collection::vec((0usize..6, 0usize..6), 1..12),
            caps in proptest::collection::vec(1u64..100, 12),
        ) {
            // Max–min optimality: no flow's rate can be raised without
            // violating a constraint, i.e. every flow crosses at least one
            // saturated link. (A merely feasible allocation — e.g. all
            // zeros — would fail this.)
            let flows: Vec<_> = flow_pairs
                .iter()
                .map(|&(s, d)| FlowDesc { src: s % n_nodes, dst: d % n_nodes })
                .collect();
            let up: Vec<f64> = (0..n_nodes).map(|i| mbps(caps[i])).collect();
            let down: Vec<f64> = (0..n_nodes).map(|i| mbps(caps[i + 6])).collect();
            let rates = max_min_rates(&flows, &up, &down);

            for f in &flows {
                let out: f64 = flows.iter().zip(&rates).filter(|(g, _)| g.src == f.src).map(|(_, r)| r).sum();
                let inn: f64 = flows.iter().zip(&rates).filter(|(g, _)| g.dst == f.dst).map(|(_, r)| r).sum();
                let up_saturated = out >= up[f.src] * (1.0 - 1e-9) - 1.0;
                let down_saturated = inn >= down[f.dst] * (1.0 - 1e-9) - 1.0;
                prop_assert!(
                    up_saturated || down_saturated,
                    "flow {f:?} crosses no saturated link (out={out}, up={}, in={inn}, down={})",
                    up[f.src],
                    down[f.dst]
                );
            }
        }

        #[test]
        fn prop_rates_invariant_under_flow_permutation(
            n_nodes in 2usize..6,
            flow_pairs in proptest::collection::vec((0usize..6, 0usize..6), 1..12),
            caps in proptest::collection::vec(1u64..100, 12),
            rotation in 0usize..12,
        ) {
            // A flow's rate depends only on the network, never on its
            // position in the input: rotating the flow list rotates the
            // rate vector identically. (Guards against order-dependent
            // tie-breaking in the water-filling loop leaking into rates —
            // the determinism the fault-injection replays rely on.)
            let flows: Vec<_> = flow_pairs
                .iter()
                .map(|&(s, d)| FlowDesc { src: s % n_nodes, dst: d % n_nodes })
                .collect();
            let up: Vec<f64> = (0..n_nodes).map(|i| mbps(caps[i])).collect();
            let down: Vec<f64> = (0..n_nodes).map(|i| mbps(caps[i + 6])).collect();
            let base = max_min_rates(&flows, &up, &down);

            let k = rotation % flows.len();
            let mut rotated = flows.clone();
            rotated.rotate_left(k);
            let rotated_rates = max_min_rates(&rotated, &up, &down);
            for i in 0..flows.len() {
                let j = (i + k) % flows.len();
                prop_assert!(
                    (base[j] - rotated_rates[i]).abs() <= 1e-9 * base[j].abs().max(1.0),
                    "rate of flow {:?} changed with input order: {} vs {}",
                    rotated[i],
                    base[j],
                    rotated_rates[i]
                );
            }
        }

        #[test]
        fn prop_waterfiller_bit_identical_to_reference(
            n_nodes in 2usize..8,
            flow_pairs in proptest::collection::vec((0usize..8, 0usize..8), 0..24),
            caps in proptest::collection::vec(0u64..100, 16),
        ) {
            // The heap-based filler must reproduce the reference scan's
            // rates *bit for bit* — including zero-capacity (starved)
            // constraints and heavy share ties from equal capacities.
            let flows: Vec<_> = flow_pairs
                .iter()
                .map(|&(s, d)| FlowDesc { src: s % n_nodes, dst: d % n_nodes })
                .collect();
            let up: Vec<f64> = (0..n_nodes).map(|i| mbps(caps[i])).collect();
            let down: Vec<f64> = (0..n_nodes).map(|i| mbps(caps[i + 8])).collect();
            let reference = max_min_rates(&flows, &up, &down);
            let mut filler = WaterFiller::new();
            let mut fast = Vec::new();
            filler.rates_into(&flows, &up, &down, &mut fast);
            prop_assert_eq!(&reference, &fast);
        }

        #[test]
        fn prop_waterfiller_scratch_reuse_is_stateless(
            n_nodes in 2usize..8,
            rounds in proptest::collection::vec(
                proptest::collection::vec((0usize..8, 0usize..8), 0..16),
                1..6,
            ),
            caps in proptest::collection::vec(1u64..100, 16),
        ) {
            // Churn of adds/removes: one filler reused across a sequence of
            // differing flow sets must match a fresh reference run each
            // time — leftover scratch state from earlier calls must never
            // leak into later results.
            let up: Vec<f64> = (0..n_nodes).map(|i| mbps(caps[i])).collect();
            let down: Vec<f64> = (0..n_nodes).map(|i| mbps(caps[i + 8])).collect();
            let mut filler = WaterFiller::new();
            let mut fast = Vec::new();
            for pairs in &rounds {
                let flows: Vec<_> = pairs
                    .iter()
                    .map(|&(s, d)| FlowDesc { src: s % n_nodes, dst: d % n_nodes })
                    .collect();
                let reference = max_min_rates(&flows, &up, &down);
                filler.rates_into(&flows, &up, &down, &mut fast);
                prop_assert_eq!(&reference, &fast);
            }
        }

        #[test]
        fn prop_single_bottleneck_equal_shares(n_flows in 1usize..20, cap in 1u64..1000) {
            // n flows from distinct sources into one sink: all equal.
            let flows: Vec<_> = (0..n_flows).map(|i| FlowDesc { src: i, dst: n_flows }).collect();
            let up = vec![mbps(cap) * 10.0; n_flows + 1];
            let down = vec![mbps(cap); n_flows + 1];
            let rates = max_min_rates(&flows, &up, &down);
            let expect = mbps(cap) / n_flows as f64;
            for r in rates {
                prop_assert!((r - expect).abs() < 1e-6 * expect.max(1.0));
            }
        }
    }
}
