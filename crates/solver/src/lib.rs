//! # nadmm-solver
//!
//! Single-node solvers used both standalone and as the per-worker subproblem
//! solvers inside the distributed methods:
//!
//! * [`cg`] — conjugate gradient with the relative-residual stopping rule of
//!   paper Eq. (3b),
//! * [`linesearch`] — Armijo backtracking line search (paper Algorithm 3),
//! * [`newton`] — the inexact Newton-CG method (paper Algorithm 1), the
//!   building block run on every worker inside Newton-ADMM,
//! * [`trace`] — convergence-trace bookkeeping shared by all solvers.

pub mod cg;
pub mod linesearch;
pub mod newton;
pub mod trace;
pub mod validate;

pub use cg::{conjugate_gradient, conjugate_gradient_into, CgConfig, CgResult, CgStats};
pub use linesearch::{armijo_backtracking, armijo_backtracking_ws, LineSearchConfig, LineSearchResult};
pub use newton::{NewtonCg, NewtonConfig, NewtonResult, NewtonStepStats};
pub use trace::{ConvergenceTrace, TraceEntry};
pub use validate::ConfigError;

#[cfg(test)]
mod tests {
    use super::*;
    use nadmm_objective::Objective;

    #[test]
    fn newton_solves_a_ridge_problem_end_to_end() {
        let (obj, _) = nadmm_objective::ridge::random_ridge_problem(60, 6, 0.5, 0.05, 1);
        let result = NewtonCg::new(NewtonConfig::default()).minimize(&obj, &vec![0.0; obj.dim()]);
        let xstar = obj.exact_minimizer();
        let err: f64 = result.x.iter().zip(&xstar).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        assert!(err < 1e-4, "newton solution off by {err}");
    }
}
