//! The ADMM-augmented local objective (paper Eq. 6a).
//!
//! In each Newton-ADMM outer iteration, worker `i` minimises
//!
//! ```text
//! L_i(x) = f_i(x) + ρ_i/2 ‖ z − x + y_i/ρ_i ‖²
//! ```
//!
//! over its local shard. `ProximalAugmented` wraps any base [`Objective`]
//! `f_i` with this proximal term, so the exact same inexact Newton-CG solver
//! (Algorithm 1) can be reused unchanged for the subproblem. The proximal
//! term also makes the subproblem strongly convex with parameter at least
//! `ρ_i`, which is what gives ADMM its robustness on ill-conditioned shards.

use crate::traits::{HvpState, Objective};
use nadmm_device::{Device, Workspace};
use nadmm_linalg::vector;

/// `f(x) + ρ/2 ‖z − x + y/ρ‖²` wrapper around a base objective.
#[derive(Debug, Clone)]
pub struct ProximalAugmented<O> {
    base: O,
    z: Vec<f64>,
    y: Vec<f64>,
    rho: f64,
}

impl<O: Objective> ProximalAugmented<O> {
    /// Wraps `base` with the ADMM proximal term defined by the consensus
    /// variable `z`, the scaled dual `y` and the penalty `rho`.
    ///
    /// # Panics
    /// Panics if the vector lengths do not match `base.dim()` or `rho <= 0`.
    pub fn new(base: O, z: Vec<f64>, y: Vec<f64>, rho: f64) -> Self {
        assert_eq!(z.len(), base.dim(), "consensus variable has wrong length");
        assert_eq!(y.len(), base.dim(), "dual variable has wrong length");
        assert!(rho > 0.0, "penalty must be positive");
        Self { base, z, y, rho }
    }

    /// The wrapped base objective.
    pub fn base(&self) -> &O {
        &self.base
    }

    /// Re-anchors the proximal term in place (no reallocation): copies the
    /// new consensus/dual vectors into the existing buffers and updates ρ.
    /// This is what the ADMM drivers call every outer iteration so the base
    /// objective (and its feature matrices) is wrapped exactly once.
    ///
    /// # Panics
    /// Panics if the vector lengths do not match `base.dim()` or `rho <= 0`.
    pub fn set_anchor(&mut self, z: &[f64], y: &[f64], rho: f64) {
        assert_eq!(z.len(), self.base.dim(), "consensus variable has wrong length");
        assert_eq!(y.len(), self.base.dim(), "dual variable has wrong length");
        assert!(rho > 0.0, "penalty must be positive");
        self.z.copy_from_slice(z);
        self.y.copy_from_slice(y);
        self.rho = rho;
    }

    /// The ADMM penalty ρ.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The anchor point of the proximal term, `z + y/ρ`.
    pub fn anchor(&self) -> Vec<f64> {
        let mut a = self.z.clone();
        vector::axpy(1.0 / self.rho, &self.y, &mut a);
        a
    }

    /// Offset `x − (z + y/ρ)` into pooled storage, charged on the base
    /// objective's device.
    fn offset_into(&self, x: &[f64], ws: &mut Workspace) -> Vec<f64> {
        let mut d = ws.acquire(x.len());
        d.copy_from_slice(x);
        let dev = self.base.device();
        dev.axpy(-1.0, &self.z, &mut d);
        dev.axpy(-1.0 / self.rho, &self.y, &mut d);
        d
    }

    /// Adds the proximal gradient term `ρ·(x − anchor)` to `g`.
    fn add_proximal_gradient(&self, d: &[f64], g: &mut [f64]) {
        self.base.device().axpy(self.rho, d, g);
    }

    /// Adds the proximal term's gradient to `g`, which holds the base
    /// gradient at `x`, and returns `base_value` plus its value.
    fn add_proximal_terms(&self, x: &[f64], base_value: f64, g: &mut [f64], ws: &mut Workspace) -> f64 {
        let d = self.offset_into(x, ws);
        self.add_proximal_gradient(&d, g);
        let value = base_value + 0.5 * self.rho * self.base.device().dot(&d, &d);
        ws.release(d);
        value
    }
}

impl<O: Objective> Objective for ProximalAugmented<O> {
    fn dim(&self) -> usize {
        self.base.dim()
    }

    fn num_samples(&self) -> usize {
        self.base.num_samples()
    }

    fn device(&self) -> &Device {
        self.base.device()
    }

    fn value_ws(&self, x: &[f64], ws: &mut Workspace) -> f64 {
        let base_value = self.base.value_ws(x, ws);
        let d = self.offset_into(x, ws);
        let value = base_value + 0.5 * self.rho * self.base.device().dot(&d, &d);
        ws.release(d);
        value
    }

    fn gradient_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace) {
        self.base.gradient_into(x, out, ws);
        let d = self.offset_into(x, ws);
        self.add_proximal_gradient(&d, out);
        ws.release(d);
    }

    fn value_and_gradient_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace) -> f64 {
        let base_value = self.base.value_and_gradient_into(x, out, ws);
        self.add_proximal_terms(x, base_value, out, ws)
    }

    fn prepare_hvp(&self, x: &[f64], ws: &mut Workspace) -> HvpState {
        self.base.prepare_hvp(x, ws)
    }

    fn hvp_prepared_into(&self, state: &HvpState, v: &[f64], out: &mut [f64], ws: &mut Workspace) {
        self.base.hvp_prepared_into(state, v, out, ws);
        self.add_proximal_gradient(v, out);
    }

    /// The base objective's shared forward, then the proximal terms as
    /// [`Objective::value_and_gradient_into`] adds them; the state is the
    /// base's (the proximal Hessian `ρI` needs none).
    fn value_gradient_and_hvp_into(&self, x: &[f64], grad: &mut [f64], ws: &mut Workspace) -> (f64, HvpState) {
        let (base_value, state) = self.base.value_gradient_and_hvp_into(x, grad, ws);
        (self.add_proximal_terms(x, base_value, grad, ws), state)
    }

    fn release_hvp(&self, state: HvpState, ws: &mut Workspace) {
        self.base.release_hvp(state, ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finite_diff;
    use crate::quadratic::Quadratic;
    use crate::softmax::SoftmaxCrossEntropy;
    use nadmm_data::SyntheticConfig;
    use nadmm_linalg::gen;

    fn quadratic_base() -> Quadratic {
        let mut rng = gen::seeded_rng(5);
        let a = gen::spd_with_condition(4, 10.0, &mut rng);
        let b = gen::gaussian_vector(4, &mut rng);
        Quadratic::new(a, b)
    }

    #[test]
    fn value_reduces_to_base_when_proximal_term_vanishes() {
        let base = quadratic_base();
        let mut rng = gen::seeded_rng(6);
        let x = gen::gaussian_vector(4, &mut rng);
        // If z = x and y = 0, the proximal term is exactly zero.
        let aug = ProximalAugmented::new(base.clone(), x.clone(), vec![0.0; 4], 2.0);
        assert!((aug.value(&x) - base.value(&x)).abs() < 1e-12);
        let ganchor = aug.anchor();
        for (a, b) in ganchor.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let base = quadratic_base();
        let mut rng = gen::seeded_rng(7);
        let z = gen::gaussian_vector(4, &mut rng);
        let y = gen::gaussian_vector(4, &mut rng);
        let aug = ProximalAugmented::new(base, z, y, 3.5);
        let x = gen::gaussian_vector(4, &mut rng);
        let v = gen::gaussian_vector(4, &mut rng);
        assert!(finite_diff::max_relative_gradient_error(&aug, &x, 1e-6) < 1e-6);
        assert!(finite_diff::relative_hvp_error(&aug, &x, &v, 1e-6) < 1e-6);
        let (val, grad) = aug.value_and_gradient(&x);
        assert!((val - aug.value(&x)).abs() < 1e-10);
        let g2 = aug.gradient(&x);
        for (a, b) in grad.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn hessian_gains_rho_on_the_diagonal() {
        let base = quadratic_base();
        let rho = 4.0;
        let aug = ProximalAugmented::new(base.clone(), vec![0.0; 4], vec![0.0; 4], rho);
        let x = vec![0.0; 4];
        for i in 0..4 {
            let mut e = vec![0.0; 4];
            e[i] = 1.0;
            let hv_base = base.hessian_vec(&x, &e);
            let hv_aug = aug.hessian_vec(&x, &e);
            assert!((hv_aug[i] - (hv_base[i] + rho)).abs() < 1e-12);
        }
    }

    #[test]
    fn works_with_softmax_base() {
        let (train, _) = SyntheticConfig::mnist_like()
            .with_train_size(25)
            .with_test_size(5)
            .with_num_features(5)
            .with_num_classes(3)
            .generate(2);
        let base = SoftmaxCrossEntropy::new(&train, 1e-3);
        let d = base.dim();
        let mut rng = gen::seeded_rng(9);
        let z = gen::gaussian_vector_with(d, 0.0, 0.1, &mut rng);
        let y = gen::gaussian_vector_with(d, 0.0, 0.1, &mut rng);
        let aug = ProximalAugmented::new(base, z, y, 1.5);
        let x = gen::gaussian_vector_with(d, 0.0, 0.1, &mut rng);
        assert!(finite_diff::max_relative_gradient_error(&aug, &x, 1e-5) < 1e-5);
        let mut ws = Workspace::new();
        let state = aug.prepare_hvp(&x, &mut ws);
        let mut a = vec![0.0; d];
        for _ in 0..3 {
            let v = gen::gaussian_vector(d, &mut rng);
            aug.hvp_prepared_into(&state, &v, &mut a, &mut ws);
            let b = aug.hessian_vec(&x, &v);
            for (u, w) in a.iter().zip(&b) {
                assert!((u - w).abs() < 1e-9);
            }
        }
        aug.release_hvp(state, &mut ws);
        assert_eq!(ws.stats().outstanding, 0);
        assert_eq!(aug.num_samples(), 25);
        assert_eq!(aug.rho(), 1.5);
        assert_eq!(aug.base().dim(), d);
    }

    #[test]
    fn allocating_forms_bill_the_device_like_the_workspace_forms() {
        // (kernel launches, simulated seconds) `call` bills a fresh device.
        let billed = |call: &mut dyn FnMut(&ProximalAugmented<Quadratic>)| {
            let device = Device::default();
            let base = quadratic_base().with_device(device.clone());
            call(&ProximalAugmented::new(base, vec![0.5; 4], vec![-0.25; 4], 2.0));
            (device.stats().kernels_launched, device.elapsed())
        };
        let (x, v) = ([1.0, -2.0, 0.5, 3.0], [0.1, 0.2, -0.3, 0.4]);
        let mut ws = Workspace::new();
        let vg = billed(&mut |aug| drop(aug.value_and_gradient(&x)));
        let vg_into = billed(&mut |aug| {
            aug.value_and_gradient_into(&x, &mut [0.0; 4], &mut ws);
        });
        assert_eq!(vg, vg_into);
        let hv = billed(&mut |aug| drop(aug.hessian_vec(&x, &v)));
        let hv_into = billed(&mut |aug| aug.hessian_vec_into(&x, &v, &mut [0.0; 4], &mut ws));
        assert_eq!(hv, hv_into);
        assert!(vg.0 > hv.0 && hv.0 > 0, "the proximal term must be billed: {vg:?} {hv:?}");
    }

    #[test]
    #[should_panic]
    fn zero_rho_is_rejected() {
        ProximalAugmented::new(quadratic_base(), vec![0.0; 4], vec![0.0; 4], 0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_consensus_length_is_rejected() {
        ProximalAugmented::new(quadratic_base(), vec![0.0; 3], vec![0.0; 4], 1.0);
    }
}
