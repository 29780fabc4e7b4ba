//! Binary logistic regression with L2 regularization.
//!
//! The HIGGS experiment in the paper is a two-class problem; softmax with
//! `C = 2` is mathematically identical, but a dedicated binary implementation
//! is (a) the form most readers know, (b) cheaper (one margin per sample),
//! and (c) a useful cross-check: the tests verify it agrees with
//! [`crate::SoftmaxCrossEntropy`] at `C = 2`.
//!
//! Labels are `{0, 1}`; the model is `Pr(y=1|a) = σ(⟨a, x⟩)` and
//! `F(x) = Σ_i log(1 + e^{⟨a_i,x⟩}) − Σ_i y_i ⟨a_i, x⟩ + λ‖x‖²/2`.

use crate::traits::{HvpState, Objective};
use nadmm_data::Dataset;
use nadmm_device::{Device, Workspace};
use nadmm_linalg::{reduce, Matrix};
use std::sync::Arc;

/// Binary logistic regression objective, executing its matrix–vector kernels
/// through the [`Device`] engine, on the dataset's own (shared) features.
#[derive(Debug, Clone)]
pub struct BinaryLogistic {
    features: Arc<Matrix>,
    labels: Vec<f64>,
    device: Device,
    /// L2 regularization weight λ.
    pub lambda: f64,
}

impl BinaryLogistic {
    /// Builds the objective from a two-class dataset.
    ///
    /// # Panics
    /// Panics if the dataset has more than two classes.
    pub fn new(data: &Dataset, lambda: f64) -> Self {
        assert_eq!(data.num_classes(), 2, "BinaryLogistic needs a two-class dataset");
        Self {
            features: data.shared_features(),
            labels: data.labels().iter().map(|&l| if l == 0 { 1.0 } else { 0.0 }).collect(),
            device: Device::default(),
            lambda,
        }
    }

    /// Attaches the execution engine all kernels launch on.
    pub fn with_device(mut self, device: Device) -> Self {
        self.device = device;
        self
    }

    /// Stable sigmoid σ(t) = 1/(1+e^{−t}).
    pub fn sigmoid(t: f64) -> f64 {
        if t >= 0.0 {
            1.0 / (1.0 + (-t).exp())
        } else {
            let e = t.exp();
            e / (1.0 + e)
        }
    }

    /// Classification accuracy (threshold 0.5) on a labelled dataset with the
    /// same label convention as the constructor.
    pub fn accuracy(&self, data: &Dataset, x: &[f64]) -> f64 {
        let margins = data.features().matvec(x).expect("accuracy matvec");
        let correct = margins
            .iter()
            .zip(data.labels())
            .filter(|(&m, &l)| {
                let pred_class0 = Self::sigmoid(m) >= 0.5;
                (pred_class0 && l == 0) || (!pred_class0 && l == 1)
            })
            .count();
        correct as f64 / data.num_samples().max(1) as f64
    }

    /// Margins `A x` into pooled storage.
    fn pooled_margins(&self, x: &[f64], ws: &mut Workspace) -> Vec<f64> {
        let mut margins = ws.acquire(self.features.rows());
        self.device.matvec_into(&self.features, x, &mut margins);
        margins
    }

    /// Bills one element-wise pass over the per-sample margins.
    fn charge_row_pass(&self, flops_per_row: f64) {
        let n = self.features.rows() as f64;
        self.device.charge_kernel(flops_per_row * n, 3.0 * n * 8.0);
    }

    /// `Σ_i log(1 + e^{m_i}) − y_i m_i` over the margins.
    fn loss(&self, margins: &[f64]) -> f64 {
        self.charge_row_pass(5.0);
        reduce::par_sum_over(margins.len(), |i| {
            let m = margins[i];
            // log(1 + e^m) computed stably.
            let log1pexp = if m > 0.0 { m + (-m).exp().ln_1p() } else { m.exp().ln_1p() };
            log1pexp - self.labels[i] * m
        })
    }

    /// Turns the margins into the residuals `σ(m) − y` in place.
    fn residuals(&self, margins: &mut [f64]) {
        self.charge_row_pass(4.0);
        for (m, y) in margins.iter_mut().zip(&self.labels) {
            *m = Self::sigmoid(*m) - y;
        }
    }

    /// `out = Aᵀr + λx`, returning the per-sample buffer `r` to the pool.
    fn accumulate_into(&self, r: Vec<f64>, x: &[f64], out: &mut [f64], ws: &mut Workspace) {
        self.device.t_matvec_into(&self.features, &r, out);
        ws.release(r);
        self.device.axpy(self.lambda, x, out);
    }
}

impl Objective for BinaryLogistic {
    fn dim(&self) -> usize {
        self.features.cols()
    }

    fn num_samples(&self) -> usize {
        self.features.rows()
    }

    fn device(&self) -> &Device {
        &self.device
    }

    fn value_ws(&self, x: &[f64], ws: &mut Workspace) -> f64 {
        let margins = self.pooled_margins(x, ws);
        let loss = self.loss(&margins);
        ws.release(margins);
        loss + 0.5 * self.lambda * self.device.dot(x, x)
    }

    fn gradient_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace) {
        let mut margins = self.pooled_margins(x, ws);
        self.residuals(&mut margins);
        self.accumulate_into(margins, x, out, ws);
    }

    fn value_and_gradient_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace) -> f64 {
        let mut margins = self.pooled_margins(x, ws);
        let loss = self.loss(&margins);
        self.residuals(&mut margins);
        self.accumulate_into(margins, x, out, ws);
        loss + 0.5 * self.lambda * self.device.dot(x, x)
    }

    fn prepare_hvp(&self, x: &[f64], ws: &mut Workspace) -> HvpState {
        // The Hessian is Aᵀ diag(σ(1−σ)) A + λI: hold the weights.
        let mut weights = self.pooled_margins(x, ws);
        self.charge_row_pass(5.0);
        for w in weights.iter_mut() {
            let s = Self::sigmoid(*w);
            *w = s * (1.0 - s);
        }
        HvpState::with_buf(weights)
    }

    fn hvp_prepared_into(&self, state: &HvpState, v: &[f64], out: &mut [f64], ws: &mut Workspace) {
        let mut av = self.pooled_margins(v, ws);
        self.charge_row_pass(1.0);
        for (u, w) in av.iter_mut().zip(state.buf()) {
            *u *= w;
        }
        self.accumulate_into(av, v, out, ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finite_diff;
    use crate::softmax::SoftmaxCrossEntropy;
    use nadmm_data::SyntheticConfig;
    use nadmm_linalg::gen;

    fn higgs_small() -> Dataset {
        let (train, _) = SyntheticConfig::higgs_like()
            .with_train_size(60)
            .with_test_size(10)
            .with_num_features(7)
            .generate(21);
        train
    }

    #[test]
    fn sigmoid_is_stable_and_correct() {
        assert!((BinaryLogistic::sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(BinaryLogistic::sigmoid(1000.0) <= 1.0);
        assert!(BinaryLogistic::sigmoid(-1000.0) >= 0.0);
        assert!((BinaryLogistic::sigmoid(2.0) + BinaryLogistic::sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_objective_shares_the_dataset_features_instead_of_copying_them() {
        let data = higgs_small();
        let obj = BinaryLogistic::new(&data, 1e-3).with_device(Device::default());
        assert!(Arc::ptr_eq(&obj.features, &data.shared_features()));
    }

    #[test]
    fn gradient_and_hvp_match_finite_differences() {
        let data = higgs_small();
        let obj = BinaryLogistic::new(&data, 1e-3);
        let mut rng = gen::seeded_rng(2);
        let x = gen::gaussian_vector_with(obj.dim(), 0.0, 0.2, &mut rng);
        let v = gen::gaussian_vector(obj.dim(), &mut rng);
        assert!(finite_diff::max_relative_gradient_error(&obj, &x, 1e-5) < 1e-5);
        assert!(finite_diff::relative_hvp_error(&obj, &x, &v, 1e-5) < 1e-4);
    }

    #[test]
    fn agrees_with_softmax_at_two_classes() {
        // Softmax with C = 2 parameterises class 0's weight vector (class 1
        // is the reference), exactly matching BinaryLogistic with labels
        // y=1 for class 0.
        let data = higgs_small();
        let logistic = BinaryLogistic::new(&data, 1e-3);
        let softmax = SoftmaxCrossEntropy::new(&data, 1e-3);
        assert_eq!(logistic.dim(), softmax.dim());
        let mut rng = gen::seeded_rng(3);
        let x = gen::gaussian_vector_with(logistic.dim(), 0.0, 0.3, &mut rng);
        assert!((logistic.value(&x) - softmax.value(&x)).abs() < 1e-8 * (1.0 + softmax.value(&x).abs()));
        let gl = logistic.gradient(&x);
        let gs = softmax.gradient(&x);
        for (a, b) in gl.iter().zip(&gs) {
            assert!((a - b).abs() < 1e-8);
        }
        let v = gen::gaussian_vector(logistic.dim(), &mut rng);
        let hl = logistic.hessian_vec(&x, &v);
        let hs = softmax.hessian_vec(&x, &v);
        for (a, b) in hl.iter().zip(&hs) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn hvp_operator_caches_correctly() {
        // Three products from one prepared state equal the one-shot HVP.
        let data = higgs_small();
        let obj = BinaryLogistic::new(&data, 1e-2);
        let mut rng = gen::seeded_rng(4);
        let x = gen::gaussian_vector(obj.dim(), &mut rng);
        let mut ws = Workspace::new();
        let state = obj.prepare_hvp(&x, &mut ws);
        let mut a = vec![0.0; obj.dim()];
        for _ in 0..3 {
            let v = gen::gaussian_vector(obj.dim(), &mut rng);
            obj.hvp_prepared_into(&state, &v, &mut a, &mut ws);
            let b = obj.hessian_vec(&x, &v);
            for (u, w) in a.iter().zip(&b) {
                assert!((u - w).abs() < 1e-10);
            }
        }
        obj.release_hvp(state, &mut ws);
        assert_eq!(ws.stats().outstanding, 0);
    }

    #[test]
    fn accuracy_is_in_unit_interval_and_beats_chance_after_a_step() {
        let data = higgs_small();
        let obj = BinaryLogistic::new(&data, 1e-4);
        let x = vec![0.0; obj.dim()];
        let acc = obj.accuracy(&data, &x);
        assert!((0.0..=1.0).contains(&acc));
        assert!(obj.num_samples() == 60);
    }

    #[test]
    #[should_panic]
    fn multiclass_data_is_rejected() {
        let (train, _) = SyntheticConfig::mnist_like()
            .with_train_size(20)
            .with_test_size(5)
            .with_num_features(4)
            .generate(1);
        BinaryLogistic::new(&train, 0.1);
    }
}
