//! Ridge regression (least squares with L2 penalty).
//!
//! `F(x) = ½‖A x − b‖² + λ‖x‖²/2` has the closed-form minimiser
//! `x* = (AᵀA + λI)⁻¹ Aᵀ b`, which makes it the reference problem for
//! verifying that inexact Newton, GIANT, DANE and ADMM all converge to the
//! same point.

use crate::quadratic::solve_dense;
use crate::traits::{HvpState, Objective};
use nadmm_device::{Device, Workspace};
use nadmm_linalg::{vector, Matrix};

/// Ridge-regression objective, executing its matrix–vector kernels through
/// the [`Device`] engine.
#[derive(Debug, Clone)]
pub struct RidgeRegression {
    features: Matrix,
    targets: Vec<f64>,
    device: Device,
    /// L2 regularization weight λ.
    pub lambda: f64,
}

impl RidgeRegression {
    /// Builds the objective from a feature matrix and real-valued targets.
    ///
    /// # Panics
    /// Panics if `targets.len() != features.rows()`.
    pub fn new(features: Matrix, targets: Vec<f64>, lambda: f64) -> Self {
        assert_eq!(features.rows(), targets.len(), "targets must match feature rows");
        Self {
            features,
            targets,
            device: Device::default(),
            lambda,
        }
    }

    /// Attaches the execution engine all kernels launch on.
    pub fn with_device(mut self, device: Device) -> Self {
        self.device = device;
        self
    }

    /// Closed-form minimiser `x* = (AᵀA + λI)⁻¹ Aᵀ b` (dense solve — only for
    /// test-sized problems).
    pub fn exact_minimizer(&self) -> Vec<f64> {
        let p = self.features.cols();
        let dense = self.features.to_dense();
        let mut ata = dense.gemm_tn(&dense).expect("AᵀA");
        for i in 0..p {
            ata.set(i, i, ata.get(i, i) + self.lambda);
        }
        let atb = self.features.t_matvec(&self.targets).expect("Aᵀb");
        solve_dense(&ata, &atb)
    }

    /// Residual `A x − b` into pooled storage.
    fn residual_into(&self, x: &[f64], ws: &mut Workspace) -> Vec<f64> {
        let mut r = ws.acquire(self.features.rows());
        self.device.matvec_into(&self.features, x, &mut r);
        self.device.axpy(-1.0, &self.targets, &mut r);
        r
    }
}

impl Objective for RidgeRegression {
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
        let r = self.residual_into(x, ws);
        let value = 0.5 * self.device.dot(&r, &r) + 0.5 * self.lambda * self.device.dot(x, x);
        ws.release(r);
        value
    }

    fn gradient_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace) {
        let r = self.residual_into(x, ws);
        self.device.t_matvec_into(&self.features, &r, out);
        ws.release(r);
        self.device.axpy(self.lambda, x, out);
    }

    fn value_and_gradient_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace) -> f64 {
        let r = self.residual_into(x, ws);
        let value = 0.5 * self.device.dot(&r, &r) + 0.5 * self.lambda * self.device.dot(x, x);
        self.device.t_matvec_into(&self.features, &r, out);
        ws.release(r);
        self.device.axpy(self.lambda, x, out);
        value
    }

    fn prepare_hvp(&self, _x: &[f64], _ws: &mut Workspace) -> HvpState {
        // The Gauss-Newton Hessian AᵀA + λI is constant in x.
        HvpState::empty()
    }

    fn hvp_prepared_into(&self, _state: &HvpState, v: &[f64], out: &mut [f64], ws: &mut Workspace) {
        let mut av = ws.acquire(self.features.rows());
        self.device.matvec_into(&self.features, v, &mut av);
        self.device.t_matvec_into(&self.features, &av, out);
        ws.release(av);
        self.device.axpy(self.lambda, v, out);
    }
}

/// Generates a random ridge-regression problem with known planted solution:
/// returns `(objective, planted_x)` where `targets = A·planted_x + noise`.
pub fn random_ridge_problem(n: usize, p: usize, lambda: f64, noise: f64, seed: u64) -> (RidgeRegression, Vec<f64>) {
    let mut rng = nadmm_linalg::gen::seeded_rng(seed);
    let a = nadmm_linalg::gen::gaussian_matrix(n, p, &mut rng);
    let planted = nadmm_linalg::gen::gaussian_vector(p, &mut rng);
    let mut targets = a.matvec(&planted).expect("planted targets");
    let noise_vec = nadmm_linalg::gen::gaussian_vector_with(n, 0.0, noise, &mut rng);
    vector::add_assign(&mut targets, &noise_vec);
    (RidgeRegression::new(Matrix::Dense(a), targets, lambda), planted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finite_diff;
    use nadmm_linalg::gen;

    #[test]
    fn gradient_vanishes_at_exact_minimizer() {
        let (obj, _) = random_ridge_problem(50, 8, 0.5, 0.1, 7);
        let xstar = obj.exact_minimizer();
        assert!(vector::norm2(&obj.gradient(&xstar)) < 1e-8);
        // Any perturbation increases the value.
        let mut rng = gen::seeded_rng(8);
        for _ in 0..5 {
            let mut xp = xstar.clone();
            let d = gen::gaussian_vector_with(xp.len(), 0.0, 0.01, &mut rng);
            vector::add_assign(&mut xp, &d);
            assert!(obj.value(&xp) >= obj.value(&xstar));
        }
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let (obj, _) = random_ridge_problem(40, 6, 0.2, 0.05, 3);
        let mut rng = gen::seeded_rng(4);
        let x = gen::gaussian_vector(obj.dim(), &mut rng);
        let v = gen::gaussian_vector(obj.dim(), &mut rng);
        assert!(finite_diff::max_relative_gradient_error(&obj, &x, 1e-6) < 1e-6);
        assert!(finite_diff::relative_hvp_error(&obj, &x, &v, 1e-6) < 1e-6);
    }

    #[test]
    fn low_noise_recovers_planted_solution() {
        let (obj, planted) = random_ridge_problem(200, 5, 1e-6, 0.0, 11);
        let xstar = obj.exact_minimizer();
        for (a, b) in xstar.iter().zip(&planted) {
            assert!((a - b).abs() < 1e-4, "recovered {a} vs planted {b}");
        }
    }

    #[test]
    fn accessors_and_costs() {
        let (obj, _) = random_ridge_problem(10, 3, 0.1, 0.1, 1);
        assert_eq!(obj.dim(), 3);
        assert_eq!(obj.num_samples(), 10);
    }

    #[test]
    #[should_panic]
    fn mismatched_targets_are_rejected() {
        let a = nadmm_linalg::DenseMatrix::zeros(3, 2);
        RidgeRegression::new(Matrix::Dense(a), vec![1.0], 0.1);
    }
}
