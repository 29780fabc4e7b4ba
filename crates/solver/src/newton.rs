//! Inexact Newton-CG (paper Algorithm 1).
//!
//! At each iterate `x_k` the search direction solves `H(x_k) p = −g(x_k)`
//! inexactly via CG (relative tolerance θ, fixed iteration budget), then an
//! Armijo backtracking line search chooses the step. The method is globally
//! linearly convergent for the strongly-convex objectives used here
//! (Roosta-Khorasani & Mahoney 2016), with a problem-independent local rate.

use crate::cg::{conjugate_gradient_into, CgConfig};
use crate::linesearch::{armijo_backtracking_ws, LineSearchConfig};
use crate::trace::ConvergenceTrace;
use nadmm_device::Workspace;
use nadmm_linalg::vector;
use nadmm_objective::{HvpState, Objective};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Configuration of the inexact Newton-CG solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NewtonConfig {
    /// Maximum number of Newton iterations.
    pub max_iters: usize,
    /// Stop when `‖∇F(x)‖ < grad_tol`.
    pub grad_tol: f64,
    /// CG (inner solve) configuration.
    pub cg: CgConfig,
    /// Line-search configuration.
    pub line_search: LineSearchConfig,
}

impl Default for NewtonConfig {
    fn default() -> Self {
        Self {
            max_iters: 100,
            grad_tol: 1e-8,
            cg: CgConfig::default(),
            line_search: LineSearchConfig::default(),
        }
    }
}

impl NewtonConfig {
    /// Rejects a zero iteration budget, a negative tolerance, or invalid
    /// CG/line-search sub-configurations.
    pub fn validate(&self) -> Result<(), crate::validate::ConfigError> {
        crate::validate::require_nonzero("NewtonConfig", "max_iters", self.max_iters)?;
        crate::validate::require_non_negative("NewtonConfig", "grad_tol", self.grad_tol)?;
        self.cg.validate()?;
        self.line_search.validate()
    }
}

/// Result of a Newton-CG run.
#[derive(Debug, Clone)]
pub struct NewtonResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Objective value at the final iterate.
    pub value: f64,
    /// Gradient norm at the final iterate.
    pub grad_norm: f64,
    /// Number of Newton (outer) iterations performed.
    pub iterations: usize,
    /// Total CG (inner) iterations across all Newton steps.
    pub total_cg_iterations: usize,
    /// Total objective evaluations spent in line searches.
    pub total_line_search_evals: usize,
    /// Whether `‖∇F‖ < grad_tol` was reached.
    pub converged: bool,
    /// Per-iteration convergence trace.
    pub trace: ConvergenceTrace,
}

impl NewtonResult {
    /// Scrubs the host wall-clock stamps (the trace's `elapsed_sec`), the
    /// one non-deterministic part of a result — after this, identical runs
    /// yield identical results. Mirrors the `--deterministic` report path.
    pub fn zero_wall_clock(&mut self) {
        self.trace.zero_elapsed();
    }
}

/// The inexact Newton-CG solver (paper Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct NewtonCg {
    config: NewtonConfig,
}

impl NewtonCg {
    /// Creates a solver with the given configuration.
    pub fn new(config: NewtonConfig) -> Self {
        Self { config }
    }

    /// The solver configuration.
    pub fn config(&self) -> &NewtonConfig {
        &self.config
    }

    /// Performs a single Newton step from `x`: returns the new iterate along
    /// with `(cg_iterations, line_search_evaluations)`. This is the primitive
    /// each ADMM worker calls on its augmented local objective.
    ///
    /// Allocating convenience wrapper over [`NewtonCg::step_ws`].
    pub fn step(&self, obj: &dyn Objective, x: &[f64]) -> (Vec<f64>, usize, usize) {
        let mut x_new = x.to_vec();
        let stats = self.step_ws(obj, &mut x_new, &mut Workspace::new());
        (x_new, stats.cg_iterations, stats.line_search_evals)
    }

    /// In-place Newton step: advances `x` by one inexact Newton-CG step,
    /// drawing every scratch vector from the workspace pool. With a warm
    /// pool, one step's inner CG loop performs zero heap allocations per
    /// iteration — the per-`x` Hessian state comes with the value and the
    /// gradient ([`Objective::value_gradient_and_hvp_into`]) and is reused
    /// across all CG iterations of the step.
    pub fn step_ws(&self, obj: &dyn Objective, x: &mut [f64], ws: &mut Workspace) -> NewtonStepStats {
        let n = x.len();
        let mut grad = ws.acquire(n);
        let (fx, hvp_state) = obj.value_gradient_and_hvp_into(x, &mut grad, ws);
        let stats = self.step_from(obj, x, fx, &grad, hvp_state, ws);
        ws.release(grad);
        stats
    }

    /// Step core shared by [`NewtonCg::step_ws`] and [`NewtonCg::minimize`]:
    /// runs CG on `H p = −g` with the Hessian captured in `hvp_state` (which
    /// it releases) and applies the Armijo step to `x` in place.
    fn step_from(
        &self,
        obj: &dyn Objective,
        x: &mut [f64],
        fx: f64,
        grad: &[f64],
        hvp_state: HvpState,
        ws: &mut Workspace,
    ) -> NewtonStepStats {
        nadmm_trace::span_begin(nadmm_trace::Tag::NewtonStep);
        let n = x.len();
        let mut neg_grad = ws.acquire(n);
        for (ng, g) in neg_grad.iter_mut().zip(grad) {
            *ng = -g;
        }
        let mut direction = ws.acquire(n);
        let cg = conjugate_gradient_into(
            |v, out, ws| obj.hvp_prepared_into(&hvp_state, v, out, ws),
            &neg_grad,
            &mut direction,
            &self.config.cg,
            ws,
        );
        obj.release_hvp(hvp_state, ws);
        ws.release(neg_grad);
        let ls = armijo_backtracking_ws(obj, x, &direction, fx, grad, &self.config.line_search, ws);
        vector::axpy(ls.step, &direction, x);
        ws.release(direction);
        nadmm_trace::span_end(nadmm_trace::Tag::NewtonStep);
        NewtonStepStats {
            cg_iterations: cg.iterations,
            line_search_evals: ls.evaluations,
            value: ls.value,
        }
    }

    /// Minimises `obj` starting from `x0`.
    pub fn minimize(&self, obj: &dyn Objective, x0: &[f64]) -> NewtonResult {
        self.minimize_ws(obj, x0, &mut Workspace::new())
    }

    /// Minimises `obj` starting from `x0`, reusing the caller's workspace
    /// pool across all Newton iterations (and across calls).
    pub fn minimize_ws(&self, obj: &dyn Objective, x0: &[f64], ws: &mut Workspace) -> NewtonResult {
        assert_eq!(x0.len(), obj.dim(), "initial point has wrong dimension");
        let start = Instant::now();
        let n = x0.len();
        let mut x = x0.to_vec();
        let mut trace = ConvergenceTrace::new();
        let mut total_cg = 0usize;
        let mut total_ls = 0usize;
        let mut grad = ws.acquire(n);
        let (mut value, mut hvp_state) = obj.value_gradient_and_hvp_into(&x, &mut grad, ws);
        let mut grad_norm = vector::norm2(&grad);
        trace.push(0, value, grad_norm, start.elapsed().as_secs_f64());
        let mut iterations = 0usize;
        let mut converged = grad_norm < self.config.grad_tol;
        while iterations < self.config.max_iters && !converged {
            let stats = self.step_from(obj, &mut x, value, &grad, hvp_state, ws);
            total_cg += stats.cg_iterations;
            total_ls += stats.line_search_evals;
            (value, hvp_state) = obj.value_gradient_and_hvp_into(&x, &mut grad, ws);
            grad_norm = vector::norm2(&grad);
            iterations += 1;
            trace.push(iterations, value, grad_norm, start.elapsed().as_secs_f64());
            converged = grad_norm < self.config.grad_tol;
        }
        obj.release_hvp(hvp_state, ws);
        ws.release(grad);
        NewtonResult {
            x,
            value,
            grad_norm,
            iterations,
            total_cg_iterations: total_cg,
            total_line_search_evals: total_ls,
            converged,
            trace,
        }
    }
}

/// Statistics of one in-place Newton step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonStepStats {
    /// CG iterations spent on the direction solve.
    pub cg_iterations: usize,
    /// Objective evaluations spent in the line search.
    pub line_search_evals: usize,
    /// Objective value at the accepted line-search point.
    pub value: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadmm_data::SyntheticConfig;
    use nadmm_linalg::gen;
    use nadmm_objective::{Quadratic, RidgeRegression, SoftmaxCrossEntropy};

    fn quadratic(n: usize, cond: f64, seed: u64) -> Quadratic {
        let mut rng = gen::seeded_rng(seed);
        let a = gen::spd_with_condition(n, cond, &mut rng);
        let b = gen::gaussian_vector(n, &mut rng);
        Quadratic::new(a, b)
    }

    #[test]
    fn one_exact_step_solves_a_quadratic() {
        let q = quadratic(8, 100.0, 1);
        let cfg = NewtonConfig {
            cg: CgConfig {
                max_iters: 100,
                tolerance: 1e-14,
            },
            ..Default::default()
        };
        let res = NewtonCg::new(cfg).minimize(&q, &[0.0; 8]);
        assert!(res.converged);
        assert!(
            res.iterations <= 2,
            "exact Newton should converge in one step, took {}",
            res.iterations
        );
        let xstar = q.exact_minimizer();
        for (a, b) in res.x.iter().zip(&xstar) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn inexact_newton_still_converges_on_ill_conditioned_quadratics() {
        let q = quadratic(20, 1e4, 2);
        let cfg = NewtonConfig {
            max_iters: 200,
            grad_tol: 1e-7,
            cg: CgConfig {
                max_iters: 10,
                tolerance: 1e-4,
            },
            ..Default::default()
        };
        let res = NewtonCg::new(cfg).minimize(&q, &[0.0; 20]);
        assert!(res.converged, "grad norm stalled at {}", res.grad_norm);
        assert!(res.trace.is_monotone_decreasing(1e-9));
    }

    #[test]
    fn solves_ridge_regression_to_the_closed_form() {
        let (obj, _) = nadmm_objective::ridge::random_ridge_problem(80, 10, 1.0, 0.1, 5);
        let res = NewtonCg::new(NewtonConfig {
            cg: CgConfig {
                max_iters: 50,
                tolerance: 1e-12,
            },
            ..Default::default()
        })
        .minimize(&obj, &vec![0.0; obj.dim()]);
        let xstar: Vec<f64> = RidgeRegression::exact_minimizer(&obj);
        let err: f64 = res.x.iter().zip(&xstar).map(|(a, b)| (a - b).powi(2)).sum::<f64>().sqrt();
        assert!(err < 1e-5, "error to closed form {err}");
        assert!(res.converged);
    }

    #[test]
    fn reduces_softmax_loss_and_improves_accuracy() {
        let (train, _) = SyntheticConfig::mnist_like()
            .with_train_size(150)
            .with_test_size(30)
            .with_num_features(12)
            .with_num_classes(5)
            .generate(3);
        let obj = SoftmaxCrossEntropy::new(&train, 1e-4);
        let x0 = vec![0.0; obj.dim()];
        let acc_before = obj.accuracy(&train, &x0);
        let res = NewtonCg::new(NewtonConfig {
            max_iters: 20,
            ..Default::default()
        })
        .minimize(&obj, &x0);
        let acc_after = obj.accuracy(&train, &res.x);
        assert!(res.value < obj.value(&x0), "loss must decrease");
        assert!(acc_after > acc_before, "accuracy should improve: {acc_before} -> {acc_after}");
        assert!(
            res.trace.is_monotone_decreasing(1e-9),
            "Newton with line search must be monotone"
        );
        assert!(res.total_cg_iterations > 0);
        assert!(res.total_line_search_evals >= res.iterations);
    }

    #[test]
    fn single_step_primitive_matches_minimize_first_iteration() {
        let q = quadratic(6, 10.0, 7);
        let solver = NewtonCg::new(NewtonConfig::default());
        let x0 = vec![0.5; 6];
        let (x1, cg_iters, ls_evals) = solver.step(&q, &x0);
        assert!(cg_iters > 0);
        assert!(ls_evals > 0);
        assert!(q.value(&x1) < q.value(&x0));
    }

    #[test]
    fn respects_gradient_tolerance_stop() {
        let q = quadratic(4, 10.0, 9);
        let xstar = q.exact_minimizer();
        // Starting at the optimum: should stop immediately.
        let res = NewtonCg::new(NewtonConfig::default()).minimize(&q, &xstar);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert_eq!(res.trace.len(), 1);
    }

    #[test]
    #[should_panic]
    fn wrong_dimension_is_rejected() {
        let q = quadratic(4, 10.0, 9);
        NewtonCg::new(NewtonConfig::default()).minimize(&q, &[0.0; 3]);
    }
}
