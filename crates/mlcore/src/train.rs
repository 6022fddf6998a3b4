//! Local training: the computation each IPLS trainer runs per round
//! (`train(M)` in Algorithm 1 of the paper).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::data::Dataset;
use crate::linalg::axpy;
use crate::model::Model;

/// Hyper-parameters of one local training pass.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Mini-batch size (clamped to the dataset size).
    pub batch_size: usize,
    /// Number of passes over the local data per round.
    pub epochs: usize,
    /// Gradient-norm clip; `None` disables clipping.
    pub clip: Option<f32>,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.1,
            batch_size: 32,
            epochs: 1,
            clip: None,
        }
    }
}

/// Runs local SGD starting from `start_params` and returns the locally
/// updated parameter vector — the "gradient update" a trainer uploads
/// (FedAvg-style local update, which is what Algorithm 1 averages).
///
/// Deterministic given `seed`.
///
/// # Panics
///
/// Panics if `dataset` is empty or `start_params` has the wrong length.
pub fn local_update<M: Model>(
    model: &mut M,
    start_params: &[f32],
    dataset: &Dataset,
    cfg: &SgdConfig,
    seed: u64,
) -> Vec<f32> {
    local_update_in_place(model, start_params.to_vec(), dataset, cfg, seed)
}

/// [`local_update`] from a start vector the caller hands over: each SGD
/// step updates `params` in place and loads it into `model`, and `params`
/// is returned. The model's parameters are never read back, so no step
/// clones them. For a model whose `params` returns what `set_params` last
/// loaded, as every model here does, this is the vector reading it back
/// would give.
///
/// # Panics
///
/// Panics if `dataset` is empty or `params` has the wrong length.
pub fn local_update_in_place<M: Model>(
    model: &mut M,
    mut params: Vec<f32>,
    dataset: &Dataset,
    cfg: &SgdConfig,
    seed: u64,
) -> Vec<f32> {
    assert!(!dataset.is_empty(), "cannot train on an empty dataset");
    model.set_params(&params);
    let mut rng = StdRng::seed_from_u64(seed);
    let batch = cfg.batch_size.max(1).min(dataset.len());
    let mut order: Vec<usize> = (0..dataset.len()).collect();

    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(batch) {
            let sub = dataset.subset(chunk);
            let (_, mut grad) = model.loss_and_grad(&sub.x, &sub.y);
            if let Some(clip) = cfg.clip {
                clip_gradient(&mut grad, clip);
            }
            axpy(&mut params, -cfg.lr, &grad);
            model.set_params(&params);
        }
    }
    params
}

/// Scales `grad` down so its L2 norm is at most `max_norm`.
pub fn clip_gradient(grad: &mut [f32], max_norm: f32) {
    let norm: f32 = grad.iter().map(|g| g * g).sum::<f32>().sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grad.iter_mut() {
            *g *= scale;
        }
    }
}

/// Averages parameter vectors element-wise — what the aggregation of
/// Algorithm 1 computes once trainers divide by the appended counter.
///
/// # Panics
///
/// Panics if `updates` is empty or lengths differ.
pub fn average_params(updates: &[Vec<f32>]) -> Vec<f32> {
    assert!(!updates.is_empty(), "no updates to average");
    let len = updates[0].len();
    let mut acc = vec![0.0f32; len];
    for u in updates {
        assert_eq!(u.len(), len, "update length mismatch");
        axpy(&mut acc, 1.0, u);
    }
    let scale = 1.0 / updates.len() as f32;
    for a in acc.iter_mut() {
        *a *= scale;
    }
    acc
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::data::make_blobs;
    use crate::linalg::Matrix;
    use crate::model::{LogisticRegression, Mlp, SyntheticModel};

    #[test]
    fn local_update_is_deterministic() {
        let ds = make_blobs(64, 3, 2, 0.4, 1);
        let mut model = LogisticRegression::new(3, 2);
        let start = model.params();
        let cfg = SgdConfig {
            epochs: 2,
            ..SgdConfig::default()
        };
        let a = local_update(&mut model, &start, &ds, &cfg, 42);
        let b = local_update(&mut model, &start, &ds, &cfg, 42);
        assert_eq!(a, b);
        let c = local_update(&mut model, &start, &ds, &cfg, 43);
        assert_ne!(a, c, "different seed shuffles differently");
    }

    #[test]
    fn local_update_reduces_loss() {
        let ds = make_blobs(128, 3, 2, 0.4, 2);
        let mut model = LogisticRegression::new(3, 2);
        let start = model.params();
        let (loss_before, _) = model.loss_and_grad(&ds.x, &ds.y);
        let updated = local_update(
            &mut model,
            &start,
            &ds,
            &SgdConfig {
                lr: 0.3,
                epochs: 5,
                ..SgdConfig::default()
            },
            1,
        );
        model.set_params(&updated);
        let (loss_after, _) = model.loss_and_grad(&ds.x, &ds.y);
        assert!(loss_after < loss_before, "{loss_before} -> {loss_after}");
    }

    /// A call into a model: the parameters it was set to, or the rows of
    /// the batch it took a gradient over.
    #[derive(Debug, PartialEq)]
    enum Call {
        Params,
        SetParams(Vec<u32>),
        LossAndGrad(Vec<u32>),
    }

    /// A model that logs every call into it.
    struct Logged<M> {
        inner: M,
        calls: RefCell<Vec<Call>>,
    }

    impl<M: Model> Logged<M> {
        fn new(inner: M) -> Logged<M> {
            let calls = RefCell::new(Vec::new());
            Logged { inner, calls }
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    impl<M: Model> Model for Logged<M> {
        fn param_count(&self) -> usize {
            self.inner.param_count()
        }

        fn params(&self) -> Vec<f32> {
            self.calls.borrow_mut().push(Call::Params);
            self.inner.params()
        }

        fn set_params(&mut self, params: &[f32]) {
            self.calls.get_mut().push(Call::SetParams(bits(params)));
            self.inner.set_params(params);
        }

        fn loss_and_grad(&self, x: &Matrix, y: &[f32]) -> (f32, Vec<f32>) {
            let batch = Call::LossAndGrad(bits(x.as_slice()));
            self.calls.borrow_mut().push(batch);
            self.inner.loss_and_grad(x, y)
        }

        fn predict(&self, x: &Matrix) -> Vec<f32> {
            self.inner.predict(x)
        }
    }

    /// The reference the by-value loop must equal: local SGD that reads the
    /// parameters back out of the model at every step, and once more for
    /// the result.
    fn read_back_update<M: Model>(
        model: &mut M,
        start_params: &[f32],
        dataset: &Dataset,
        cfg: &SgdConfig,
        seed: u64,
    ) -> Vec<f32> {
        model.set_params(start_params);
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = cfg.batch_size.max(1).min(dataset.len());
        let mut order: Vec<usize> = (0..dataset.len()).collect();
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(batch) {
                let sub = dataset.subset(chunk);
                let (_, mut grad) = model.loss_and_grad(&sub.x, &sub.y);
                if let Some(clip) = cfg.clip {
                    clip_gradient(&mut grad, clip);
                }
                let mut params = model.params();
                axpy(&mut params, -cfg.lr, &grad);
                model.set_params(&params);
            }
        }
        model.params()
    }

    /// The by-value loop steps its vector in place: it returns what
    /// reading the parameters back out of the model after every step
    /// returned, bit for bit, and makes the same `set_params` and
    /// `loss_and_grad` calls in the same order, with the same arguments —
    /// so a model that counts its steps (`SyntheticModel`) draws the same
    /// gradients. It never reads the model's parameters.
    fn check_by_value_loop<M: Model + Clone>(name: &str, model: M) {
        let ds = make_blobs(40, 3, 3, 0.5, 4);
        let cfg = SgdConfig {
            lr: 0.2,
            batch_size: 6,
            epochs: 3,
            clip: Some(0.5),
        };
        // 40 examples in batches of 6, three times.
        let steps = 3 * 7;
        let start = model.params();
        let logged = || Logged::new(model.clone());
        let (mut before, mut wrapped, mut owned) = (logged(), logged(), logged());
        let expected = read_back_update(&mut before, &start, &ds, &cfg, 9);
        let by_ref = local_update(&mut wrapped, &start, &ds, &cfg, 9);
        let by_value = local_update_in_place(&mut owned, start.clone(), &ds, &cfg, 9);
        assert_eq!(bits(&by_value), bits(&expected), "{name}");
        assert_eq!(bits(&by_ref), bits(&expected), "{name}");

        let mut calls = before.calls.into_inner();
        let reads = calls.iter().filter(|&c| *c == Call::Params).count();
        assert_eq!(reads, steps + 1, "{name}: one read a step, one at the end");
        calls.retain(|c| *c != Call::Params);
        assert_eq!(calls.len(), 1 + 2 * steps, "{name}");
        assert_eq!(owned.calls.into_inner(), calls, "{name}");
        assert_eq!(wrapped.calls.into_inner(), calls, "{name}");
    }

    #[test]
    fn the_by_value_loop_reads_no_parameters_and_equals_reading_them_back() {
        let mlp = Mlp::new(3, 5, 3, 7);
        let synthetic = SyntheticModel::new(mlp.param_count(), 7);
        check_by_value_loop("mlp", mlp);
        check_by_value_loop("synthetic", synthetic);
    }

    #[test]
    fn clip_bounds_norm() {
        let mut g = vec![3.0, 4.0]; // norm 5
        clip_gradient(&mut g, 1.0);
        let norm: f32 = g.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-6);
        // Under the bound: untouched.
        let mut small = vec![0.1, 0.1];
        clip_gradient(&mut small, 1.0);
        assert_eq!(small, vec![0.1, 0.1]);
    }

    #[test]
    fn average_params_is_mean() {
        let avg = average_params(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        assert_eq!(avg, vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "no updates")]
    fn average_empty_panics() {
        average_params(&[]);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn train_empty_dataset_panics() {
        let ds = Dataset {
            x: crate::linalg::Matrix::zeros(0, 2),
            y: vec![],
        };
        let mut model = LogisticRegression::new(2, 2);
        let start = model.params();
        local_update(&mut model, &start, &ds, &SgdConfig::default(), 0);
    }
}
