//! Trainable models with flat parameter vectors.
//!
//! The IPLS protocol works on the model's *parameter vector*: it is split
//! into partitions, aggregated per-partition, and reassembled (§II). The
//! [`Model`] trait therefore exposes parameters as a flat `Vec<f32>` with
//! explicit get/set, so protocol code never needs to know the architecture.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::linalg::{argmax, axpy, dot, softmax_in_place, Matrix};

/// A differentiable model with a flat parameter vector.
pub trait Model: Send {
    /// Number of parameters.
    fn param_count(&self) -> usize;

    /// The flattened parameter vector.
    fn params(&self) -> Vec<f32>;

    /// Replaces the parameters from a flattened vector.
    ///
    /// # Panics
    ///
    /// Implementations panic if `params.len() != self.param_count()`.
    fn set_params(&mut self, params: &[f32]);

    /// Mean loss and mean gradient over a batch.
    fn loss_and_grad(&self, x: &Matrix, y: &[f32]) -> (f32, Vec<f32>);

    /// Predicted class index per row.
    fn predict(&self, x: &Matrix) -> Vec<f32>;
}

// ---------------------------------------------------------------------------
// Softmax (multinomial logistic) regression
// ---------------------------------------------------------------------------

/// Multinomial logistic regression with cross-entropy loss.
#[derive(Clone, Debug)]
pub struct LogisticRegression {
    dim: usize,
    classes: usize,
    /// Row-major `classes × dim` weight matrix followed by biases.
    w: Vec<f32>,
    b: Vec<f32>,
}

impl LogisticRegression {
    /// Zero-initialized model.
    ///
    /// # Panics
    ///
    /// Panics if `classes < 2`.
    pub fn new(dim: usize, classes: usize) -> LogisticRegression {
        assert!(classes >= 2, "need at least two classes");
        LogisticRegression {
            dim,
            classes,
            w: vec![0.0; classes * dim],
            b: vec![0.0; classes],
        }
    }

    fn logits(&self, row: &[f32]) -> Vec<f32> {
        (0..self.classes)
            .map(|c| dot(&self.w[c * self.dim..(c + 1) * self.dim], row) + self.b[c])
            .collect()
    }
}

impl Model for LogisticRegression {
    fn param_count(&self) -> usize {
        self.classes * self.dim + self.classes
    }

    fn params(&self) -> Vec<f32> {
        let mut p = self.w.clone();
        p.extend_from_slice(&self.b);
        p
    }

    fn set_params(&mut self, params: &[f32]) {
        assert_eq!(
            params.len(),
            self.param_count(),
            "parameter length mismatch"
        );
        let (w, b) = params.split_at(self.w.len());
        self.w.copy_from_slice(w);
        self.b.copy_from_slice(b);
    }

    fn loss_and_grad(&self, x: &Matrix, y: &[f32]) -> (f32, Vec<f32>) {
        assert_eq!(x.rows(), y.len(), "feature/target count mismatch");
        let n = x.rows().max(1) as f32;
        let mut grad = vec![0.0f32; self.param_count()];
        let mut loss = 0.0f32;
        let (gw, gb) = grad.split_at_mut(self.w.len());
        for (i, &label) in y.iter().enumerate() {
            let row = x.row(i);
            let mut probs = self.logits(row);
            softmax_in_place(&mut probs);
            let target = label as usize;
            loss -= probs[target].max(1e-12).ln();
            for c in 0..self.classes {
                let delta = probs[c] - if c == target { 1.0 } else { 0.0 };
                axpy(&mut gw[c * self.dim..(c + 1) * self.dim], delta / n, row);
                gb[c] += delta / n;
            }
        }
        (loss / n, grad)
    }

    fn predict(&self, x: &Matrix) -> Vec<f32> {
        (0..x.rows())
            .map(|i| argmax(&self.logits(x.row(i))) as f32)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// One-hidden-layer MLP
// ---------------------------------------------------------------------------

/// A one-hidden-layer perceptron: `softmax(W2 · tanh(W1 x + b1) + b2)`,
/// trained with cross-entropy via manual backprop.
#[derive(Clone, Debug)]
pub struct Mlp {
    dim: usize,
    hidden: usize,
    classes: usize,
    /// Flat parameters: `W1 (hidden×dim) | b1 | W2 (classes×hidden) | b2`.
    params: Vec<f32>,
}

impl Mlp {
    /// Creates an MLP with small random init (deterministic per seed).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `classes < 2`.
    pub fn new(dim: usize, hidden: usize, classes: usize, seed: u64) -> Mlp {
        assert!(dim > 0 && hidden > 0, "dimensions must be positive");
        assert!(classes >= 2, "need at least two classes");
        let count = hidden * dim + hidden + classes * hidden + classes;
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = (1.0 / dim as f32).sqrt();
        let params = (0..count).map(|_| rng.gen_range(-scale..scale)).collect();
        Mlp {
            dim,
            hidden,
            classes,
            params,
        }
    }

    fn split(&self) -> (&[f32], &[f32], &[f32], &[f32]) {
        let w1 = self.hidden * self.dim;
        let b1 = w1 + self.hidden;
        let w2 = b1 + self.classes * self.hidden;
        (
            &self.params[..w1],
            &self.params[w1..b1],
            &self.params[b1..w2],
            &self.params[w2..],
        )
    }

    fn forward(&self, row: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let (w1, b1, w2, b2) = self.split();
        let mut hidden = vec![0.0f32; self.hidden];
        for h in 0..self.hidden {
            hidden[h] = (dot(&w1[h * self.dim..(h + 1) * self.dim], row) + b1[h]).tanh();
        }
        let mut logits = vec![0.0f32; self.classes];
        for c in 0..self.classes {
            logits[c] = dot(&w2[c * self.hidden..(c + 1) * self.hidden], &hidden) + b2[c];
        }
        (hidden, logits)
    }
}

impl Model for Mlp {
    fn param_count(&self) -> usize {
        self.params.len()
    }

    fn params(&self) -> Vec<f32> {
        self.params.clone()
    }

    fn set_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.params.len(), "parameter length mismatch");
        self.params.copy_from_slice(params);
    }

    fn loss_and_grad(&self, x: &Matrix, y: &[f32]) -> (f32, Vec<f32>) {
        assert_eq!(x.rows(), y.len(), "feature/target count mismatch");
        let n = x.rows().max(1) as f32;
        let w1_len = self.hidden * self.dim;
        let b1_len = self.hidden;
        let w2_len = self.classes * self.hidden;
        let mut grad = vec![0.0f32; self.params.len()];
        let mut loss = 0.0f32;
        let (_, _, w2, _) = self.split();
        let w2 = w2.to_vec();

        for (i, &label) in y.iter().enumerate() {
            let row = x.row(i);
            let (hidden, mut probs) = self.forward(row);
            softmax_in_place(&mut probs);
            let target = label as usize;
            loss -= probs[target].max(1e-12).ln();

            // Output layer deltas.
            let mut dlogits = probs;
            dlogits[target] -= 1.0;

            // Backprop into hidden activations.
            let mut dhidden = vec![0.0f32; self.hidden];
            for c in 0..self.classes {
                let dl = dlogits[c] / n;
                // dW2, db2
                axpy(
                    &mut grad[w1_len + b1_len + c * self.hidden
                        ..w1_len + b1_len + (c + 1) * self.hidden],
                    dl,
                    &hidden,
                );
                grad[w1_len + b1_len + w2_len + c] += dl;
                axpy(
                    &mut dhidden,
                    dlogits[c],
                    &w2[c * self.hidden..(c + 1) * self.hidden],
                );
            }
            // Through tanh: dpre = dhidden * (1 - h²).
            for h in 0..self.hidden {
                let dpre = dhidden[h] * (1.0 - hidden[h] * hidden[h]) / n;
                axpy(&mut grad[h * self.dim..(h + 1) * self.dim], dpre, row);
                grad[w1_len + h] += dpre;
            }
        }
        (loss / n, grad)
    }

    fn predict(&self, x: &Matrix) -> Vec<f32> {
        (0..x.rows())
            .map(|i| {
                let (_, logits) = self.forward(x.row(i));
                argmax(&logits) as f32
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Synthetic model (network experiments)
// ---------------------------------------------------------------------------

/// A model stub with a configurable parameter count and pseudo-random
/// "gradients".
///
/// The paper's delay experiments (Figs. 1–2) only care about *how many
/// bytes* move, not what the gradients contain; this stub lets the network
/// experiments use multi-megabyte parameter vectors without paying for real
/// training. Accuracy experiments use the real models above.
#[derive(Clone, Debug)]
pub struct SyntheticModel {
    params: Vec<f32>,
    seed: u64,
    step: u64,
}

impl SyntheticModel {
    /// Creates a stub with `count` parameters.
    pub fn new(count: usize, seed: u64) -> SyntheticModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = (0..count).map(|_| rng.gen_range(-1.0..1.0)).collect();
        SyntheticModel {
            params,
            seed,
            step: 0,
        }
    }
}

impl Model for SyntheticModel {
    fn param_count(&self) -> usize {
        self.params.len()
    }

    fn params(&self) -> Vec<f32> {
        self.params.clone()
    }

    fn set_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.params.len(), "parameter length mismatch");
        self.params.copy_from_slice(params);
        self.step += 1;
    }

    fn loss_and_grad(&self, _x: &Matrix, _y: &[f32]) -> (f32, Vec<f32>) {
        // Deterministic pseudo-gradient that varies per step.
        let mut rng = StdRng::seed_from_u64(self.seed ^ self.step.wrapping_mul(0x9E3779B97F4A7C15));
        let grad = (0..self.params.len())
            .map(|_| rng.gen_range(-0.01..0.01))
            .collect();
        (1.0, grad)
    }

    fn predict(&self, x: &Matrix) -> Vec<f32> {
        vec![0.0; x.rows()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::make_blobs;

    fn numeric_grad_check<M: Model + Clone>(model: &M, x: &Matrix, y: &[f32], indices: &[usize]) {
        let (_, grad) = model.loss_and_grad(x, y);
        let base = model.params();
        let eps = 1e-3f32;
        for &i in indices {
            let mut plus = base.clone();
            plus[i] += eps;
            let mut minus = base.clone();
            minus[i] -= eps;
            let mut m = model.clone();
            m.set_params(&plus);
            let (lp, _) = m.loss_and_grad(x, y);
            m.set_params(&minus);
            let (lm, _) = m.loss_and_grad(x, y);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad[i]).abs() < 2e-2 * (1.0 + numeric.abs()),
                "param {i}: numeric {numeric} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn logistic_regression_gradient_check() {
        let ds = make_blobs(32, 3, 3, 0.5, 2);
        let mut model = LogisticRegression::new(3, 3);
        let p: Vec<f32> = (0..model.param_count())
            .map(|i| (i as f32 * 0.1).sin() * 0.2)
            .collect();
        model.set_params(&p);
        numeric_grad_check(&model, &ds.x, &ds.y, &[0, 4, 8, 9, 11]);
    }

    #[test]
    fn mlp_gradient_check() {
        let ds = make_blobs(16, 3, 2, 0.5, 3);
        let model = Mlp::new(3, 5, 2, 42);
        let indices = [0, 7, 14, 15, 20, 26, 30, 31];
        numeric_grad_check(&model, &ds.x, &ds.y, &indices);
    }

    #[test]
    fn param_round_trip_all_models() {
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(LogisticRegression::new(4, 3)),
            Box::new(Mlp::new(4, 6, 3, 1)),
            Box::new(SyntheticModel::new(10, 2)),
        ];
        for mut m in models {
            let p: Vec<f32> = (0..m.param_count()).map(|i| i as f32 * 0.01).collect();
            m.set_params(&p);
            assert_eq!(m.params(), p);
        }
    }

    #[test]
    fn mlp_param_count_formula() {
        let m = Mlp::new(7, 11, 4, 0);
        assert_eq!(m.param_count(), 136); // 11·7 + 11 + 4·11 + 4
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        // A few full-batch steps must reduce training loss on every model.
        let cls = make_blobs(100, 4, 3, 0.4, 5);
        let mut models: Vec<(Box<dyn Model>, &Matrix, &Vec<f32>)> = vec![
            (Box::new(LogisticRegression::new(4, 3)), &cls.x, &cls.y),
            (Box::new(Mlp::new(4, 8, 3, 9)), &cls.x, &cls.y),
        ];
        for (model, x, y) in models.iter_mut() {
            let (initial, _) = model.loss_and_grad(x, y);
            for _ in 0..50 {
                let (_, grad) = model.loss_and_grad(x, y);
                let mut p = model.params();
                axpy(&mut p, -0.1, &grad);
                model.set_params(&p);
            }
            let (fin, _) = model.loss_and_grad(x, y);
            assert!(
                fin < initial * 0.8,
                "loss {initial} -> {fin} did not drop enough"
            );
        }
    }

    #[test]
    fn logistic_learns_separable_blobs() {
        let ds = make_blobs(300, 2, 2, 0.3, 7);
        let mut model = LogisticRegression::new(2, 2);
        for _ in 0..200 {
            let (_, grad) = model.loss_and_grad(&ds.x, &ds.y);
            let mut p = model.params();
            axpy(&mut p, -0.5, &grad);
            model.set_params(&p);
        }
        let preds = model.predict(&ds.x);
        let correct = preds.iter().zip(&ds.y).filter(|(p, y)| p == y).count();
        assert!(
            correct as f32 / 300.0 > 0.95,
            "accuracy {}",
            correct as f32 / 300.0
        );
    }

    #[test]
    fn synthetic_model_gradient_changes_per_step() {
        let mut m = SyntheticModel::new(8, 3);
        let (_, g1) = m.loss_and_grad(&Matrix::zeros(1, 1), &[0.0]);
        let p = m.params();
        m.set_params(&p); // advances the step counter
        let (_, g2) = m.loss_and_grad(&Matrix::zeros(1, 1), &[0.0]);
        assert_ne!(g1, g2);
        assert_eq!(g1.len(), 8);
    }
}
