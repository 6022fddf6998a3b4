//! Synthetic datasets and federated partitioning.
//!
//! The paper trains on edge-device data that never leaves the trainers; as a
//! stand-in we generate labelled synthetic datasets and split them across
//! trainers either IID or with Dirichlet label skew (the standard non-IID
//! federated benchmark protocol).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::linalg::Matrix;

/// A supervised dataset: feature matrix plus one target per row.
///
/// Targets are class indices stored as `f32`.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Feature matrix, one row per example.
    pub x: Matrix,
    /// Targets, `y.len() == x.rows()`.
    pub y: Vec<f32>,
}

impl Dataset {
    /// Number of examples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// `true` when the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.x.cols()
    }

    /// The subset with the given row indices.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_rows(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
        }
    }
}

/// Samples from a standard normal via Box–Muller (keeps us off external
/// distribution crates).
fn normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Gaussian-blob classification data: `classes` isotropic clusters in
/// `dim` dimensions, `n` points total, cluster centres on a scaled simplex.
pub fn make_blobs(n: usize, dim: usize, classes: usize, spread: f32, seed: u64) -> Dataset {
    assert!(classes >= 2, "need at least two classes");
    assert!(dim >= 1, "need at least one feature");
    let mut rng = StdRng::seed_from_u64(seed);
    // Random but well-separated centres: resample any centre that lands too
    // close to an earlier one (separation is what callers rely on — the
    // learning tests assume the classes are actually distinguishable), and
    // keep the best candidate if the box is too crowded to separate fully.
    let min_sep = (5.0 * spread).max(2.0);
    let mut centres: Vec<Vec<f32>> = Vec::with_capacity(classes);
    for _ in 0..classes {
        let mut best: Option<(f32, Vec<f32>)> = None;
        for _ in 0..64 {
            let cand: Vec<f32> = (0..dim).map(|_| rng.gen_range(-4.0..4.0)).collect();
            let sep = centres
                .iter()
                .map(|c| {
                    c.iter()
                        .zip(&cand)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f32>()
                        .sqrt()
                })
                .fold(f32::INFINITY, f32::min);
            let better = best.as_ref().is_none_or(|(b, _)| sep > *b);
            if better {
                best = Some((sep, cand));
            }
            if sep >= min_sep {
                break;
            }
        }
        centres.push(best.expect("at least one candidate").1);
    }
    let mut x = Matrix::zeros(n, dim);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % classes;
        for (j, centre) in centres[class].iter().enumerate() {
            x.set(i, j, centre + spread * normal(&mut rng));
        }
        y.push(class as f32);
    }
    // Shuffle rows so partitions are not trivially ordered.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let ds = Dataset { x, y };
    ds.subset(&order)
}

/// Splits `dataset` into `parts` IID shards of (near-)equal size.
///
/// # Panics
///
/// Panics if `parts` is zero or exceeds the number of examples.
pub fn partition_iid(dataset: &Dataset, parts: usize, seed: u64) -> Vec<Dataset> {
    assert!(parts > 0 && parts <= dataset.len(), "invalid part count");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    order.shuffle(&mut rng);
    (0..parts)
        .map(|p| {
            let indices: Vec<usize> = order.iter().skip(p).step_by(parts).copied().collect();
            dataset.subset(&indices)
        })
        .collect()
}

/// Splits a classification dataset non-IID with Dirichlet(`alpha`) label
/// skew: each class's examples are divided across parts with proportions
/// drawn from a Dirichlet distribution. Small `alpha` → heavy skew.
///
/// # Panics
///
/// Panics if `parts` is zero or `alpha` is not positive.
pub fn partition_dirichlet(dataset: &Dataset, parts: usize, alpha: f64, seed: u64) -> Vec<Dataset> {
    assert!(parts > 0, "invalid part count");
    assert!(alpha > 0.0, "alpha must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let classes = dataset
        .y
        .iter()
        .map(|&y| y as usize)
        .max()
        .map_or(1, |m| m + 1);
    let mut part_indices: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for class in 0..classes {
        let members: Vec<usize> = (0..dataset.len())
            .filter(|&i| dataset.y[i] as usize == class)
            .collect();
        let weights = dirichlet(&mut rng, alpha, parts);
        // Cumulative assignment of this class's members by the weights.
        let mut cursor = 0usize;
        for (p, w) in weights.iter().enumerate() {
            let take = if p == parts - 1 {
                members.len() - cursor
            } else {
                ((members.len() as f64 * w).round() as usize).min(members.len() - cursor)
            };
            part_indices[p].extend(&members[cursor..cursor + take]);
            cursor += take;
        }
    }
    part_indices
        .into_iter()
        .map(|idx| dataset.subset(&idx))
        .collect()
}

/// Draws Dirichlet(`alpha`) proportions via normalized Gamma samples
/// (Marsaglia–Tsang for alpha >= 1, boost trick below 1).
fn dirichlet(rng: &mut StdRng, alpha: f64, k: usize) -> Vec<f64> {
    let samples: Vec<f64> = (0..k).map(|_| gamma_sample(rng, alpha)).collect();
    let total: f64 = samples.iter().sum();
    if total <= 0.0 {
        return vec![1.0 / k as f64; k];
    }
    samples.into_iter().map(|s| s / total).collect()
}

fn gamma_sample(rng: &mut StdRng, alpha: f64) -> f64 {
    if alpha < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return gamma_sample(rng, alpha + 1.0) * u.powf(1.0 / alpha);
    }
    // Marsaglia–Tsang squeeze method.
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn blobs_shape_and_labels() {
        let ds = make_blobs(100, 4, 3, 0.5, 1);
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.dim(), 4);
        let labels: HashSet<u32> = ds.y.iter().map(|&y| y as u32).collect();
        assert_eq!(labels, HashSet::from([0, 1, 2]));
    }

    #[test]
    fn blobs_deterministic_per_seed() {
        let a = make_blobs(50, 3, 2, 0.5, 7);
        let b = make_blobs(50, 3, 2, 0.5, 7);
        assert_eq!(a.x.as_slice(), b.x.as_slice());
        assert_eq!(a.y, b.y);
        let c = make_blobs(50, 3, 2, 0.5, 8);
        assert_ne!(a.x.as_slice(), c.x.as_slice());
    }

    #[test]
    fn iid_partition_covers_everything_once() {
        let ds = make_blobs(100, 2, 2, 0.5, 3);
        let parts = partition_iid(&ds, 7, 0);
        let total: usize = parts.iter().map(Dataset::len).sum();
        assert_eq!(total, 100);
        for p in &parts {
            assert!(p.len() >= 100 / 7);
        }
    }

    #[test]
    fn dirichlet_partition_covers_everything() {
        let ds = make_blobs(300, 2, 3, 0.5, 4);
        let parts = partition_dirichlet(&ds, 5, 0.3, 0);
        let total: usize = parts.iter().map(Dataset::len).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn small_alpha_skews_labels() {
        let ds = make_blobs(600, 2, 3, 0.5, 5);
        let skewed = partition_dirichlet(&ds, 6, 0.05, 1);
        // With alpha = 0.05 most parts should be dominated by one class.
        let mut dominated = 0;
        for p in &skewed {
            if p.is_empty() {
                continue;
            }
            let mut counts = [0usize; 3];
            for &y in &p.y {
                counts[y as usize] += 1;
            }
            let max = *counts.iter().max().unwrap();
            if max as f64 / p.len() as f64 > 0.8 {
                dominated += 1;
            }
        }
        assert!(
            dominated >= 3,
            "expected heavy skew, got {dominated} dominated parts"
        );
    }

    #[test]
    fn subset_preserves_rows() {
        let ds = make_blobs(10, 2, 2, 0.5, 6);
        let sub = ds.subset(&[3, 7]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.x.row(0), ds.x.row(3));
        assert_eq!(sub.y[1], ds.y[7]);
    }
}
