//! Multiclass softmax cross-entropy with L2 regularization (paper §5–6).
//!
//! With `C` classes and `p` features the variable is
//! `x = [x_1; …; x_{C−1}] ∈ R^{(C−1)p}` (the last class is the reference
//! class with weight pinned at zero). For training data `{(a_i, b_i)}`:
//!
//! ```text
//! F(x) = Σ_i [ log(1 + Σ_{c<C} e^{⟨a_i, x_c⟩}) − Σ_{c<C} 1(b_i = c) ⟨a_i, x_c⟩ ]
//!        + λ/2 ‖x‖²
//! ```
//!
//! Gradient and Hessian-vector products are computed in matrix form:
//! `Z = A Wᵀ`, `P = softmax_rows(Z)` (with the implicit reference class),
//! `∇F = (P − Y)ᵀ A + λW`, and for the HVP with direction `V`:
//! `U = A Vᵀ`, `S_i = diag(p_i) u_i − p_i (p_iᵀ u_i)`, `Hv = Sᵀ A + λV`.
//! All exponentials go through the Log-Sum-Exp trick of §6.
//!
//! Both are one pass over `A`: the row-wise steps between the two products
//! (softmax, `P − Y`, the loss term; the `S` transform) are the row map of
//! [`Device::gemm_nt_map_tn_into`].

use crate::traits::{HvpState, Objective};
use nadmm_data::Dataset;
use nadmm_device::{Device, Workspace};
use nadmm_linalg::{reduce, DenseMatrix, Matrix, SweepBuffers};
use std::sync::Arc;

/// Softmax cross-entropy objective over a dataset shard.
///
/// All dense kernel work (margins GEMM, row softmax, gradient/HVP sweeps)
/// executes through the attached [`Device`] engine, which charges the
/// simulated-GPU cost model per launch, reusing pooled buffers: zero heap
/// allocations once warm. The features are the shard's own storage, shared.
#[derive(Debug, Clone)]
pub struct SoftmaxCrossEntropy {
    features: Arc<Matrix>,
    one_hot: DenseMatrix,
    labels: Vec<usize>,
    num_classes: usize,
    device: Device,
    /// L2 regularization weight λ.
    pub lambda: f64,
}

impl SoftmaxCrossEntropy {
    /// Builds the objective for a dataset with regularization weight
    /// `lambda` (the paper uses `λ ∈ {10⁻³, 10⁻⁵}`), executing on a default
    /// P100-class device. Use [`SoftmaxCrossEntropy::with_device`] to share
    /// one device (one simulated clock) across a worker's objectives.
    pub fn new(data: &Dataset, lambda: f64) -> Self {
        Self {
            features: data.shared_features(),
            one_hot: data.one_hot_reduced(),
            labels: data.labels().to_vec(),
            num_classes: data.num_classes(),
            device: Device::default(),
            lambda,
        }
    }

    /// Attaches the execution engine all kernels launch on.
    pub fn with_device(mut self, device: Device) -> Self {
        self.device = device;
        self
    }

    /// Number of classes C.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of features p.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// Reshapes the flat variable into the `(C−1) × p` weight matrix.
    pub fn weights_from_flat(&self, x: &[f64]) -> DenseMatrix {
        assert_eq!(x.len(), self.dim(), "weight vector has wrong length");
        DenseMatrix::from_vec(self.num_classes - 1, self.num_features(), x.to_vec())
    }

    /// Wraps the flat variable `x` in a pooled `(C−1) × p` weight matrix
    /// (copy into pooled storage; no allocation once the pool is warm).
    fn pooled_weights(&self, x: &[f64], ws: &mut Workspace) -> DenseMatrix {
        assert_eq!(x.len(), self.dim(), "weight vector has wrong length");
        let mut buf = ws.acquire(self.dim());
        buf.copy_from_slice(x);
        DenseMatrix::from_vec(self.num_classes - 1, self.num_features(), buf)
    }

    /// Margin kernel into pooled storage: returns `Z = X Wᵀ` (n × (C−1)).
    fn pooled_margins(&self, x: &[f64], ws: &mut Workspace) -> DenseMatrix {
        self.margins_in_pool(&self.features, x, true, ws)
    }

    /// `features · Wᵀ` into pooled storage, launched on the device when
    /// `billed`, else run directly (instrumentation).
    fn margins_in_pool(&self, features: &Matrix, x: &[f64], billed: bool, ws: &mut Workspace) -> DenseMatrix {
        let w = self.pooled_weights(x, ws);
        let n = features.rows();
        let c1 = self.num_classes - 1;
        let mut margins = DenseMatrix::from_vec(n, c1, ws.acquire(n * c1));
        // Dense features take no scratch, and asking the pool for an empty
        // buffer would still count as an acquire.
        let scratch_len = features.gemm_nt_scratch_len(c1);
        let mut scratch = if scratch_len == 0 {
            Vec::new()
        } else {
            ws.acquire(scratch_len)
        };
        if billed {
            self.device.gemm_nt_scratch_into(features, &w, &mut scratch, &mut margins);
        } else {
            features
                .gemm_nt_scratch_into(&w, &mut scratch, &mut margins)
                .expect("margins: shape mismatch");
        }
        if scratch_len != 0 {
            ws.release(scratch);
        }
        ws.release(w.into_vec());
        margins
    }

    /// Predicted class labels for a feature matrix given flat weights.
    pub fn predict(&self, features: &Matrix, x: &[f64]) -> Vec<usize> {
        let w = self.weights_from_flat(x);
        let margins = features.gemm_nt(&w).expect("predict gemm");
        (0..margins.rows())
            .map(|i| reduce::argmax_with_reference(margins.row(i)))
            .collect()
    }

    /// Classification accuracy on a labelled dataset.
    pub fn accuracy(&self, data: &Dataset, x: &[f64]) -> f64 {
        self.accuracy_ws(data, x, &mut Workspace::new())
    }

    /// [`SoftmaxCrossEntropy::accuracy`] with every buffer drawn from `ws`,
    /// so a warm call allocates nothing. Instrumentation: it launches
    /// nothing on the device and bills no simulated time.
    pub fn accuracy_ws(&self, data: &Dataset, x: &[f64], ws: &mut Workspace) -> f64 {
        let margins = self.margins_in_pool(data.features(), x, false, ws);
        let correct = (0..margins.rows())
            .zip(data.labels())
            .filter(|&(i, &label)| reduce::argmax_with_reference(margins.row(i)) == label)
            .count();
        ws.release(margins.into_vec());
        correct as f64 / data.num_samples().max(1) as f64
    }
}

impl Objective for SoftmaxCrossEntropy {
    fn dim(&self) -> usize {
        (self.num_classes - 1) * self.features.cols()
    }

    fn num_samples(&self) -> usize {
        self.features.rows()
    }

    fn device(&self) -> &Device {
        &self.device
    }

    fn value_ws(&self, x: &[f64], ws: &mut Workspace) -> f64 {
        let margins = self.pooled_margins(x, ws);
        let n = margins.rows();
        let c1 = margins.cols();
        // Row-wise log-sum-exp + label lookup: one memory-bound pass.
        self.device.charge_kernel(5.0 * (n * c1) as f64, (n * c1) as f64 * 8.0);
        let loss = reduce::par_sum_over(n, |i| {
            let row = margins.row(i);
            let logz = reduce::log1p_sum_exp(row);
            let label = self.labels[i];
            let correct_margin = if label < self.num_classes - 1 { row[label] } else { 0.0 };
            logz - correct_margin
        });
        ws.release(margins.into_vec());
        loss + 0.5 * self.lambda * self.device.dot(x, x)
    }

    fn gradient_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace) {
        let (n, c1) = (self.features.rows(), self.num_classes - 1);
        // Softmax rows, then R = P − Y.
        let costs = [Device::softmax_rows_cost(n, c1), Device::axpy_cost(n * c1)];
        let to_residual = |first: usize, rows: &mut [f64], kept: &mut [f64]| self.residual_rows(first, rows, kept);
        self.sweep_into(x, &costs, &mut [], to_residual, out, ws);
    }

    fn value_and_gradient_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace) -> f64 {
        let mut loss_terms = ws.acquire(self.features.rows());
        let value = self.value_sweep_into(x, &mut loss_terms, out, ws);
        ws.release(loss_terms);
        value
    }

    fn prepare_hvp(&self, x: &[f64], ws: &mut Workspace) -> HvpState {
        // The per-sample class probabilities (n × (C−1), reference class
        // implicit); the log-partition values are not needed.
        let mut probs = self.pooled_margins(x, ws);
        let mut logz = ws.acquire(probs.rows());
        let mut row_scratch = ws.acquire(probs.cols());
        self.device.softmax_rows_into(&mut probs, &mut row_scratch, &mut logz);
        ws.release(row_scratch);
        ws.release(logz);
        HvpState::with_buf(probs.into_vec())
    }

    /// `Hv = Sᵀ X + λv` with `S_i = diag(p_i) u_i − p_i (p_iᵀ u_i)`,
    /// `U = X Vᵀ`, from the class probabilities `state` holds: one row per
    /// sample, starting with its C−1 probabilities (`prepare_hvp`'s rows are
    /// exactly those; the shared forward's end in the sample's loss term).
    /// This is the kernel CG launches every inner iteration.
    fn hvp_prepared_into(&self, state: &HvpState, v: &[f64], out: &mut [f64], ws: &mut Workspace) {
        assert_eq!(v.len(), self.dim(), "direction vector has wrong length");
        let probs = state.buf();
        let (n, c1) = (self.features.rows(), self.num_classes - 1);
        let stride = probs.len() / n.max(1);
        let nc = n * c1;
        // S_i = diag(p_i) u_i − p_i (p_iᵀ u_i), overwriting U row by row.
        let costs = [(4.0 * nc as f64, 3.0 * nc as f64 * 8.0)];
        let to_s = |first: usize, rows: &mut [f64], _: &mut [f64]| {
            for (urow, p) in rows.chunks_exact_mut(c1).zip(probs[first * stride..].chunks_exact(stride)) {
                let pu: f64 = p[..c1].iter().zip(urow.iter()).map(|(a, b)| a * b).sum();
                for c in 0..c1 {
                    urow[c] = p[c] * urow[c] - p[c] * pu;
                }
            }
        };
        self.sweep_into(v, &costs, &mut [], to_s, out, ws);
    }

    /// The gradient sweep of [`Objective::value_and_gradient_into`] with each
    /// sample's probabilities, taken before `P − Y`, kept as the HVP state:
    /// one forward product serves the value, the gradient and every CG
    /// product of the Newton step, and `prepare_hvp`'s margin and softmax
    /// launches are neither run nor billed.
    fn value_gradient_and_hvp_into(&self, x: &[f64], grad: &mut [f64], ws: &mut Workspace) -> (f64, HvpState) {
        let (n, c1) = (self.features.rows(), self.num_classes - 1);
        let mut kept = ws.acquire(n * (c1 + 1));
        let value = self.value_sweep_into(x, &mut kept, grad, ws);
        (value, HvpState::with_buf(kept))
    }
}

impl SoftmaxCrossEntropy {
    /// The gradient sweep that also writes every sample's loss term as the
    /// last of its `m` values in `row_out` (`n × m`: `m` is 1, or C when
    /// the probabilities come first), and returns `F(x)`.
    fn value_sweep_into(&self, x: &[f64], row_out: &mut [f64], out: &mut [f64], ws: &mut Workspace) -> f64 {
        let (n, c1) = (self.features.rows(), self.num_classes - 1);
        // Softmax rows, the per-sample loss terms, then R = P − Y.
        let costs = [
            Device::softmax_rows_cost(n, c1),
            (3.0 * n as f64, 2.0 * n as f64 * 8.0),
            Device::axpy_cost(n * c1),
        ];
        let to_residual = |first: usize, rows: &mut [f64], kept: &mut [f64]| self.residual_rows(first, rows, kept);
        self.sweep_into(x, &costs, row_out, to_residual, out, ws);
        let m = row_out.len() / n.max(1);
        let loss = reduce::par_sum_over(n, |i| row_out[i * m + m - 1]);
        loss + 0.5 * self.lambda * self.device.dot(x, x)
    }

    /// One sweep over the features with all scratch pooled:
    /// `out = Mᵀ X + λw` where `M = map(X Wᵀ)` for the flat `(C−1) × p`
    /// weights `w` ([`Device::gemm_nt_map_tn_into`]). `map_costs` are the
    /// launches the row map stands for; `row_out` is empty or takes the
    /// same number of values for every sample.
    fn sweep_into<F>(&self, w: &[f64], map_costs: &[(f64, f64)], row_out: &mut [f64], map: F, out: &mut [f64], ws: &mut Workspace)
    where
        F: Fn(usize, &mut [f64], &mut [f64]) + Sync,
    {
        let wm = self.pooled_weights(w, ws);
        let n = self.features.rows();
        let c1 = self.num_classes - 1;
        let mut mid = DenseMatrix::from_vec(n, c1, ws.acquire(n * c1));
        let mut acc = DenseMatrix::from_vec(c1, self.num_features(), ws.acquire(self.dim()));
        let mut scratch = ws.acquire(self.features.sweep_scratch_len(c1));
        let bufs = SweepBuffers {
            mid: &mut mid,
            row_out,
            scratch: &mut scratch,
        };
        self.device
            .gemm_nt_map_tn_into(&self.features, &wm, map_costs, bufs, map, &mut acc);
        out.copy_from_slice(acc.as_slice());
        ws.release(scratch);
        ws.release(acc.into_vec());
        ws.release(mid.into_vec());
        ws.release(wm.into_vec());
        self.device.axpy(self.lambda, w, out);
    }

    /// Row map of the gradient sweep: turns the margins of samples
    /// `first..` into `R = P − Y` in place. When `kept` has values for these
    /// samples (`m` each, 1 or C), each sample's last one is its loss
    /// `logZ_i − m_{i,b_i}`, recovering the true-class margin from its
    /// probability (`m_c = log(p_c) + logZ`), and any before it are its
    /// C−1 probabilities.
    fn residual_rows(&self, first: usize, rows: &mut [f64], kept: &mut [f64]) {
        let c1 = self.num_classes - 1;
        let m = kept.len() * c1 / rows.len().max(1);
        let mut kept_rows = kept.chunks_exact_mut(m.max(1));
        for (r, row) in rows.chunks_exact_mut(c1).enumerate() {
            let i = first + r;
            let logz = reduce::softmax_with_reference_in_place(row);
            if let Some((term, probs)) = kept_rows.next().and_then(<[f64]>::split_last_mut) {
                let label = self.labels[i];
                let correct_margin = if label < c1 {
                    row[label].max(f64::MIN_POSITIVE).ln() + logz
                } else {
                    0.0
                };
                *term = logz - correct_margin;
                if !probs.is_empty() {
                    probs.copy_from_slice(row);
                }
            }
            for (p, y) in row.iter_mut().zip(self.one_hot.row(i)) {
                *p += -1.0 * y;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finite_diff;
    use nadmm_data::SyntheticConfig;
    use nadmm_linalg::{gen, vector};

    fn small_problem(classes: usize, sparse: bool) -> (Dataset, SoftmaxCrossEntropy) {
        let mut cfg = SyntheticConfig::mnist_like()
            .with_train_size(40)
            .with_test_size(10)
            .with_num_features(6)
            .with_num_classes(classes);
        if sparse {
            cfg.density = 0.4;
        }
        let (train, _) = cfg.generate(42);
        let obj = SoftmaxCrossEntropy::new(&train, 1e-3);
        (train, obj)
    }

    #[test]
    fn dimensions_are_consistent() {
        let (train, obj) = small_problem(5, false);
        assert_eq!(obj.dim(), 4 * 6);
        assert_eq!(obj.num_samples(), 40);
        assert_eq!(obj.num_classes(), 5);
        assert_eq!(obj.num_features(), 6);
        assert_eq!(train.weight_dim(), obj.dim());
    }

    #[test]
    fn the_objective_shares_the_shard_features_instead_of_copying_them() {
        use crate::proximal::ProximalAugmented;
        for sparse in [false, true] {
            let (train, obj) = small_problem(4, sparse);
            assert!(Arc::ptr_eq(&obj.features, &train.shared_features()));
            // `AdmmWorker::new`'s construction: the shard's objective on the
            // rank's device, owned by the augmented objective.
            let local = SoftmaxCrossEntropy::new(&train, 0.0).with_device(Device::default());
            let aug = ProximalAugmented::new(local, vec![0.0; obj.dim()], vec![0.0; obj.dim()], 1.0);
            assert!(Arc::ptr_eq(&aug.base().features, &train.shared_features()));
            assert!(Arc::ptr_eq(&aug.base().clone().features, &train.shared_features()));
        }
    }

    #[test]
    fn value_at_zero_is_n_log_c() {
        // With x = 0 every class has probability 1/C, so the loss is n·log C.
        let (_, obj) = small_problem(5, false);
        let x = vec![0.0; obj.dim()];
        let expect = 40.0 * (5.0f64).ln();
        assert!((obj.value(&x) - expect).abs() < 1e-9);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (_, obj) = small_problem(4, false);
        let mut rng = gen::seeded_rng(3);
        let x = gen::gaussian_vector_with(obj.dim(), 0.0, 0.1, &mut rng);
        let rel = finite_diff::max_relative_gradient_error(&obj, &x, 1e-5);
        assert!(rel < 1e-5, "gradient finite-difference error {rel}");
    }

    #[test]
    fn gradient_matches_finite_differences_sparse() {
        let (_, obj) = small_problem(3, true);
        let mut rng = gen::seeded_rng(4);
        let x = gen::gaussian_vector_with(obj.dim(), 0.0, 0.1, &mut rng);
        let rel = finite_diff::max_relative_gradient_error(&obj, &x, 1e-5);
        assert!(rel < 1e-5, "sparse gradient finite-difference error {rel}");
    }

    #[test]
    fn hessian_vec_matches_finite_differences() {
        let (_, obj) = small_problem(4, false);
        let mut rng = gen::seeded_rng(5);
        let x = gen::gaussian_vector_with(obj.dim(), 0.0, 0.1, &mut rng);
        let v = gen::gaussian_vector(obj.dim(), &mut rng);
        let rel = finite_diff::relative_hvp_error(&obj, &x, &v, 1e-5);
        assert!(rel < 1e-4, "hvp finite-difference error {rel}");
    }

    #[test]
    fn hessian_is_symmetric_and_psd() {
        let (_, obj) = small_problem(3, false);
        let mut rng = gen::seeded_rng(6);
        let x = gen::gaussian_vector_with(obj.dim(), 0.0, 0.2, &mut rng);
        let u = gen::gaussian_vector(obj.dim(), &mut rng);
        let v = gen::gaussian_vector(obj.dim(), &mut rng);
        let hu = obj.hessian_vec(&x, &u);
        let hv = obj.hessian_vec(&x, &v);
        // ⟨Hu, v⟩ = ⟨u, Hv⟩
        let a = vector::dot(&hu, &v);
        let b = vector::dot(&u, &hv);
        assert!((a - b).abs() < 1e-8 * (1.0 + a.abs()));
        // vᵀ H v ≥ λ‖v‖² (the loss Hessian is PSD and the regulariser adds λI).
        let quad = vector::dot(&v, &hv);
        assert!(quad >= obj.lambda * vector::norm2_sq(&v) - 1e-9);
    }

    #[test]
    fn value_and_gradient_agree_with_separate_calls() {
        let (_, obj) = small_problem(4, false);
        let mut rng = gen::seeded_rng(7);
        let x = gen::gaussian_vector_with(obj.dim(), 0.0, 0.3, &mut rng);
        let (v, g) = obj.value_and_gradient(&x);
        assert!((v - obj.value(&x)).abs() < 1e-8 * (1.0 + v.abs()));
        let g2 = obj.gradient(&x);
        for (a, b) in g.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn hvp_operator_matches_hessian_vec() {
        // Three products from one prepared state equal the one-shot HVP.
        let (_, obj) = small_problem(4, false);
        let mut rng = gen::seeded_rng(8);
        let x = gen::gaussian_vector_with(obj.dim(), 0.0, 0.1, &mut rng);
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
    fn regularizer_increases_value_and_gradient() {
        let (train, _) = small_problem(3, false);
        let weak = SoftmaxCrossEntropy::new(&train, 0.0);
        let strong = SoftmaxCrossEntropy::new(&train, 1.0);
        let mut rng = gen::seeded_rng(9);
        let x = gen::gaussian_vector(weak.dim(), &mut rng);
        assert!(strong.value(&x) > weak.value(&x));
    }

    #[test]
    fn prediction_and_accuracy_are_sane() {
        let (train, obj) = small_problem(4, false);
        let zero = vec![0.0; obj.dim()];
        let acc0 = obj.accuracy(&train, &zero);
        assert!((0.0..=1.0).contains(&acc0));
        let preds = obj.predict(train.features(), &zero);
        assert_eq!(preds.len(), train.num_samples());
        assert!(preds.iter().all(|&p| p < train.num_classes()));
        // The pooled form, cold and warm, is the same measurement and
        // returns every buffer it took.
        let mut rng = gen::seeded_rng(10);
        let x = gen::gaussian_vector(obj.dim(), &mut rng);
        let mut ws = Workspace::new();
        for _ in 0..2 {
            assert_eq!(obj.accuracy_ws(&train, &x, &mut ws), obj.accuracy(&train, &x));
            assert_eq!(ws.stats().outstanding, 0);
        }
        assert_eq!(obj.device().stats().kernels_launched, 0, "accuracy is not billed");
    }

    #[test]
    fn training_direction_reduces_loss() {
        // A single gradient step with a small step size must reduce the loss
        // (basic sanity that the gradient points uphill).
        let (_, obj) = small_problem(4, false);
        let x = vec![0.0; obj.dim()];
        let g = obj.gradient(&x);
        let mut x2 = x.clone();
        vector::axpy(-1e-3, &g, &mut x2);
        assert!(obj.value(&x2) < obj.value(&x));
    }

    #[test]
    fn cost_estimates_are_positive_and_scale_with_data() {
        let (_, small_obj) = small_problem(4, false);
        let cfg = SyntheticConfig::mnist_like()
            .with_train_size(200)
            .with_test_size(10)
            .with_num_features(6)
            .with_num_classes(4);
        let (big_train, _) = cfg.generate(1);
        let big_obj = SoftmaxCrossEntropy::new(&big_train, 1e-3);
        // What one gradient and one Hessian-vector product charge the
        // objective's device clock — the billing in force.
        let billed = |obj: &SoftmaxCrossEntropy| {
            let device = obj.device();
            let x = vec![0.0; obj.dim()];
            let start = device.elapsed();
            obj.gradient(&x);
            let after_grad = device.elapsed();
            obj.hessian_vec(&x, &x);
            (after_grad - start, device.elapsed() - after_grad)
        };
        let (small_grad, _) = billed(&small_obj);
        let (big_grad, big_hvp) = billed(&big_obj);
        assert!(small_grad > 0.0);
        assert!(big_grad > small_grad);
        assert!(big_hvp > 0.0);
    }
}
