//! The multi-level aggregation overlay: deterministic peer partitioning
//! into levels (Handel-style), owned by [`Topology`](crate::Topology) so
//! every backend derives the identical tree from the shared `TaskConfig`.
//!
//! The `trainers` of a task are arranged as a complete `b`-ary heap over a
//! seeded permutation of their indices: heap position 0 is the root, and
//! the children of position `p` are `p·b + 1 ..= p·b + b`. Leaves send
//! their gradient one hop up; each interior trainer verifies its
//! children's Pedersen openings, composes the commitments homomorphically,
//! signs its level partial, and forwards one blob upward; the root hands a
//! single partial to the partition's aggregator. The final model travels
//! the same edges in reverse. Fan-in is therefore bounded by `b` at every
//! level, and per-node work is O(b · log_b |T|) instead of the flat
//! aggregator's O(|T|).
//!
//! The permutation is affine — `position(t) = (a·t + c) mod n` with
//! `gcd(a, n) = 1` and `a`, `c` derived from the task seed — so both
//! directions evaluate in O(1) per query without materializing an O(n)
//! table. At the 100k-trainer scale the overlay bench runs, every node
//! holding its own shuffled copy of the membership would dwarf the model
//! itself; the closed form keeps [`OverlayTree`] a few machine words.

use dfl_netsim::splitmix64;

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Modular inverse of `a` modulo `n` (requires `gcd(a, n) == 1`).
fn mod_inverse(a: u64, n: u64) -> u64 {
    let (mut old_r, mut r) = (a as i128, n as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
    }
    debug_assert_eq!(old_r, 1, "inverse requires coprime inputs");
    old_s.rem_euclid(n as i128) as u64
}

/// The deterministic `b`-ary aggregation tree over a task's trainer
/// indices. Construct via [`Topology::overlay`](crate::Topology::overlay);
/// a pure function of `(trainers, branching, seed)`, so every participant
/// (and every backend) agrees on parents, children, and levels without
/// exchanging a single message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverlayTree {
    n: u64,
    b: u64,
    a: u64,
    a_inv: u64,
    c: u64,
}

impl OverlayTree {
    /// Builds the tree over `trainers` indices with branching factor
    /// `branching`, seeded from the task seed.
    ///
    /// # Panics
    ///
    /// Panics if `trainers == 0` or `branching < 2` (both rejected by
    /// `TaskConfig::validate` before any tree is built).
    pub fn new(trainers: usize, branching: usize, seed: u64) -> OverlayTree {
        assert!(trainers > 0, "overlay over an empty trainer set");
        assert!(branching >= 2, "overlay branching below 2");
        let n = trainers as u64;
        // Multiplier: first candidate coprime with n at or after a seeded
        // start point. Scanning wraps at most n steps (1 is always coprime).
        // gcd(0, n) = n, so 0 is rejected for every n > 1 — and accepted
        // for the degenerate n = 1 tree, where 0 is the only residue.
        let mut a = splitmix64(&mut { seed }) % n;
        while gcd(a, n) != 1 {
            a = (a + 1) % n;
        }
        let c = splitmix64(&mut seed.wrapping_add(1)) % n;
        OverlayTree {
            n,
            b: branching as u64,
            a,
            a_inv: mod_inverse(a, n),
            c,
        }
    }

    /// Number of trainers in the tree.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True only for the degenerate single-trainer tree.
    pub fn is_empty(&self) -> bool {
        false // `new` rejects empty trainer sets
    }

    /// The branching factor `b` (maximum fan-in at any node).
    pub fn branching(&self) -> usize {
        self.b as usize
    }

    /// Heap position of trainer `t` under the seeded permutation.
    fn position(&self, t: usize) -> u64 {
        ((self.a as u128 * t as u128 + self.c as u128) % self.n as u128) as u64
    }

    /// Trainer occupying heap position `pos` (inverse permutation).
    fn trainer_at(&self, pos: u64) -> usize {
        let shifted = (pos + self.n - self.c) % self.n;
        ((self.a_inv as u128 * shifted as u128) % self.n as u128) as usize
    }

    /// The root trainer — the one that hands the fully composed partial to
    /// the partition's aggregator.
    pub fn root(&self) -> usize {
        self.trainer_at(0)
    }

    /// Trainer `t`'s parent in the tree, or `None` for the root.
    pub fn parent(&self, t: usize) -> Option<usize> {
        let pos = self.position(t);
        if pos == 0 {
            None
        } else {
            Some(self.trainer_at((pos - 1) / self.b))
        }
    }

    /// Trainer `t`'s children, in deterministic (heap-position) order.
    /// Empty for leaves; never longer than the branching factor.
    pub fn children(&self, t: usize) -> Vec<usize> {
        let pos = self.position(t);
        let first = pos * self.b + 1;
        (first..first + self.b)
            .take_while(|&p| p < self.n)
            .map(|p| self.trainer_at(p))
            .collect()
    }

    /// The number of trainers in the subtree rooted at `t`, `t` included:
    /// the most contributions a partial from `t` may stand for.
    pub fn subtree_size(&self, t: usize) -> usize {
        // One level at a time: the heap positions `first..=last` below `t`.
        let below = |p: u64, k: u64| p.saturating_mul(self.b).saturating_add(k);
        let (mut first, mut last, mut size) = (self.position(t), self.position(t), 0);
        while first < self.n {
            size += last.min(self.n - 1) - first + 1;
            (first, last) = (below(first, 1), below(last, self.b));
        }
        size as usize
    }

    /// Trainer `t`'s level: 0 at the root, increasing toward the leaves.
    pub fn level(&self, t: usize) -> usize {
        let mut pos = self.position(t);
        let mut level = 0;
        while pos != 0 {
            pos = (pos - 1) / self.b;
            level += 1;
        }
        level
    }

    /// Number of levels in the tree (depth of the deepest leaf plus one).
    /// A "depth 1" overlay — every non-root trainer a direct child of the
    /// root — has 2 levels.
    pub fn levels(&self) -> usize {
        // The deepest heap position is n-1; its level is the tree depth.
        let mut pos = self.n - 1;
        let mut level = 0;
        while pos != 0 {
            pos = (pos - 1) / self.b;
            level += 1;
        }
        level + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn permutation_is_a_bijection() {
        for n in [1usize, 2, 5, 16, 97, 100, 1024] {
            let tree = OverlayTree::new(n, 4, 7);
            let positions: HashSet<u64> = (0..n).map(|t| tree.position(t)).collect();
            assert_eq!(positions.len(), n, "positions collide at n={n}");
            for t in 0..n {
                assert_eq!(
                    tree.trainer_at(tree.position(t)),
                    t,
                    "inverse broken at n={n}"
                );
            }
        }
    }

    #[test]
    fn parent_and_children_are_mutually_consistent() {
        for (n, b) in [(16usize, 2usize), (100, 4), (257, 8)] {
            let tree = OverlayTree::new(n, b, 3);
            let mut seen_as_child = HashSet::new();
            for t in 0..n {
                let children = tree.children(t);
                assert!(children.len() <= b, "fan-in exceeds branching");
                for &c in &children {
                    assert_eq!(tree.parent(c), Some(t));
                    assert!(seen_as_child.insert(c), "trainer {c} has two parents");
                }
            }
            // Everyone except the root is someone's child.
            assert_eq!(seen_as_child.len(), n - 1);
            assert!(!seen_as_child.contains(&tree.root()));
            assert_eq!(tree.parent(tree.root()), None);
        }
    }

    #[test]
    fn every_trainer_reaches_the_root_within_levels_hops() {
        let tree = OverlayTree::new(1000, 8, 11);
        let levels = tree.levels();
        for t in 0..1000 {
            let mut cur = t;
            let mut hops = 0;
            while let Some(p) = tree.parent(cur) {
                cur = p;
                hops += 1;
                assert!(hops < levels, "walk exceeded tree depth");
            }
            assert_eq!(cur, tree.root());
            assert_eq!(tree.level(t), hops);
        }
    }

    #[test]
    fn a_subtree_is_its_root_and_its_childrens_subtrees() {
        for (n, b) in [
            (1usize, 2usize),
            (2, 2),
            (16, 2),
            (100, 4),
            (257, 8),
            (1000, 3),
        ] {
            let tree = OverlayTree::new(n, b, 5);
            assert_eq!(tree.subtree_size(tree.root()), n);
            for t in 0..n {
                let children: usize = tree.children(t).iter().map(|&c| tree.subtree_size(c)).sum();
                assert_eq!(
                    tree.subtree_size(t),
                    1 + children,
                    "n = {n}, b = {b}, t = {t}"
                );
            }
        }
    }

    #[test]
    fn levels_shrink_logarithmically() {
        // 100k trainers at branching 8: ⌈log₈ 100000⌉-ish, not 100k.
        let tree = OverlayTree::new(100_000, 8, 0);
        assert!(tree.levels() <= 7, "levels = {}", tree.levels());
        // Depth-1 shape: branching ≥ n−1 puts every non-root under the root.
        let flatish = OverlayTree::new(16, 16, 5);
        assert_eq!(flatish.levels(), 2);
        assert_eq!(flatish.children(flatish.root()).len(), 15);
    }

    #[test]
    fn seed_changes_the_arrangement_deterministically() {
        let a = OverlayTree::new(97, 4, 1);
        let b = OverlayTree::new(97, 4, 1);
        assert_eq!(a, b, "same seed must give the same tree");
        let c = OverlayTree::new(97, 4, 2);
        let order_a: Vec<u64> = (0..97).map(|t| a.position(t)).collect();
        let order_c: Vec<u64> = (0..97).map(|t| c.position(t)).collect();
        assert_ne!(
            order_a, order_c,
            "different seeds should shuffle differently"
        );
    }
}
