//! Configuration of the Newton-ADMM solver.

use crate::penalty::PenaltyRule;
use nadmm_device::DeviceSpec;
use nadmm_solver::validate::{require_non_negative, require_nonzero, require_positive, ConfigError};
use nadmm_solver::{CgConfig, LineSearchConfig, NewtonConfig};
use serde::{Deserialize, Serialize};

/// Rank-dropout fault injection: simulates a worker crashing mid-run.
///
/// From iteration `at_iter` onward, rank `rank` stops doing local work and
/// contributes **zero weight** to every consensus round, so the z-update's
/// average is automatically re-weighted over the surviving ranks (the dead
/// rank's `ρ_i x_i − y_i` and `ρ_i` terms vanish from the sums). The dead
/// rank's thread keeps participating in the collective *data path* — exactly
/// like an MPI job whose failed rank is replaced by a zero-contributing
/// stub — so the run completes and reports how well the fleet tolerated the
/// loss. The master rank (0) performs the z-update and cannot be dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropoutSpec {
    /// The rank that dies (must not be the master rank 0).
    pub rank: usize,
    /// First outer iteration the rank is dead for (1-based; iteration
    /// numbers match the run history).
    pub at_iter: usize,
}

/// Full configuration of a Newton-ADMM run (paper Algorithm 2 parameters plus
/// the simulated-hardware knobs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NewtonAdmmConfig {
    /// Number of outer ADMM iterations (the paper's "epochs": one pass over
    /// the local shard per outer iteration).
    pub max_iters: usize,
    /// Global L2 regularization weight λ of `g(z) = λ‖z‖²/2` (the paper uses
    /// 1e-3 and 1e-5).
    pub lambda: f64,
    /// Number of inexact Newton steps each worker takes on its augmented
    /// subproblem per outer iteration (the paper runs Algorithm 1 once).
    pub newton_steps_per_iter: usize,
    /// CG budget/tolerance for the Newton direction (paper: 10 iterations,
    /// tolerance 1e-4 in Fig. 1; 10–30 iterations in Fig. 4).
    pub cg: CgConfig,
    /// Armijo line-search parameters (paper Algorithm 3; max 10 iterations).
    pub line_search: LineSearchConfig,
    /// Initial penalty parameter ρ⁰ for every worker.
    pub rho0: f64,
    /// Penalty-adaptation rule (spectral by default, as in the paper).
    pub penalty: PenaltyRule,
    /// Hardware model used to charge local compute time.
    pub device: DeviceSpec,
    /// Bounded-staleness consensus mode: a per-iteration deadline (simulated
    /// seconds) on each rank's local Newton work. A rank whose solve passes
    /// the deadline stops after the current Newton step and joins the
    /// consensus round with however inexact a local iterate it has — on a
    /// straggling rank that can mean contributing a solution still anchored
    /// at the previous round's consensus vector. This is exactly the
    /// inexactness Newton-ADMM tolerates and exact-averaging methods do not;
    /// at least one Newton step always runs, so staleness is bounded by one
    /// round. `None` (the default) runs every configured step —
    /// bit-identical to the synchronous path.
    pub staleness_deadline_sec: Option<f64>,
    /// Rank-dropout fault injection (`None` = no faults, bit-identical to
    /// the fault-free path).
    pub dropout: Option<DropoutSpec>,
}

impl Default for NewtonAdmmConfig {
    fn default() -> Self {
        Self {
            max_iters: 100,
            lambda: 1e-5,
            newton_steps_per_iter: 1,
            cg: CgConfig {
                max_iters: 10,
                tolerance: 1e-4,
            },
            line_search: LineSearchConfig::default(),
            rho0: 1.0,
            penalty: PenaltyRule::default(),
            device: DeviceSpec::tesla_p100(),
            staleness_deadline_sec: None,
            dropout: None,
        }
    }
}

impl NewtonAdmmConfig {
    /// Rejects nonsense parameters (`rho0 <= 0`, `lambda < 0`, zero
    /// iteration budgets, invalid penalty constants) before a run starts.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_nonzero("NewtonAdmmConfig", "max_iters", self.max_iters)?;
        require_non_negative("NewtonAdmmConfig", "lambda", self.lambda)?;
        require_nonzero("NewtonAdmmConfig", "newton_steps_per_iter", self.newton_steps_per_iter)?;
        require_positive("NewtonAdmmConfig", "rho0", self.rho0)?;
        if let Some(deadline) = self.staleness_deadline_sec {
            if !deadline.is_finite() || deadline <= 0.0 {
                return Err(ConfigError::new(
                    "NewtonAdmmConfig",
                    "staleness_deadline_sec",
                    format!("must be positive and finite when set, got {deadline}"),
                ));
            }
        }
        if let Some(dropout) = self.dropout {
            if dropout.rank == 0 {
                return Err(ConfigError::new(
                    "NewtonAdmmConfig",
                    "dropout.rank",
                    "the master rank (0) performs the z-update and cannot be dropped",
                ));
            }
            require_nonzero("NewtonAdmmConfig", "dropout.at_iter", dropout.at_iter)?;
        }
        self.cg.validate()?;
        self.line_search.validate()?;
        self.penalty.validate()
    }

    /// The Newton-CG configuration each worker uses on its subproblem.
    pub fn newton_config(&self) -> NewtonConfig {
        NewtonConfig {
            max_iters: self.newton_steps_per_iter,
            grad_tol: 0.0, // run exactly `newton_steps_per_iter` steps
            cg: self.cg,
            line_search: self.line_search,
        }
    }

    /// Builder-style override of the outer iteration count.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Builder-style override of λ.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Builder-style override of the CG budget.
    pub fn with_cg_iters(mut self, iters: usize) -> Self {
        self.cg.max_iters = iters;
        self
    }

    /// Builder-style override of the penalty rule.
    pub fn with_penalty(mut self, rule: PenaltyRule) -> Self {
        self.penalty = rule;
        self
    }

    /// Builder-style bounded-staleness deadline (simulated seconds of local
    /// Newton work per outer iteration).
    pub fn with_staleness_deadline(mut self, seconds: f64) -> Self {
        self.staleness_deadline_sec = Some(seconds);
        self
    }

    /// Builder-style rank-dropout fault injection.
    pub fn with_dropout(mut self, rank: usize, at_iter: usize) -> Self {
        self.dropout = Some(DropoutSpec { rank, at_iter });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = NewtonAdmmConfig::default();
        assert_eq!(c.max_iters, 100);
        assert_eq!(c.cg.max_iters, 10);
        assert!((c.cg.tolerance - 1e-4).abs() < 1e-15);
        assert_eq!(c.line_search.max_iters, 10);
        assert_eq!(c.newton_steps_per_iter, 1);
        assert!(matches!(c.penalty, PenaltyRule::Spectral(_)));
    }

    #[test]
    fn builders_override_fields() {
        let c = NewtonAdmmConfig::default()
            .with_max_iters(7)
            .with_lambda(1e-3)
            .with_cg_iters(30)
            .with_penalty(PenaltyRule::Fixed);
        assert_eq!(c.max_iters, 7);
        assert_eq!(c.lambda, 1e-3);
        assert_eq!(c.cg.max_iters, 30);
        assert!(matches!(c.penalty, PenaltyRule::Fixed));
        let n = c.newton_config();
        assert_eq!(n.max_iters, 1);
        assert_eq!(n.cg.max_iters, 30);
    }

    #[test]
    fn heterogeneity_knobs_default_off_and_validate() {
        let c = NewtonAdmmConfig::default();
        assert_eq!(c.staleness_deadline_sec, None);
        assert_eq!(c.dropout, None);
        c.validate().unwrap();

        let c = NewtonAdmmConfig::default().with_staleness_deadline(1e-3).with_dropout(2, 5);
        c.validate().unwrap();
        assert_eq!(c.staleness_deadline_sec, Some(1e-3));
        assert_eq!(c.dropout, Some(DropoutSpec { rank: 2, at_iter: 5 }));

        let bad = NewtonAdmmConfig::default().with_staleness_deadline(0.0);
        assert_eq!(bad.validate().unwrap_err().field, "staleness_deadline_sec");
        let bad = NewtonAdmmConfig::default().with_staleness_deadline(f64::INFINITY);
        assert_eq!(bad.validate().unwrap_err().field, "staleness_deadline_sec");
        let bad = NewtonAdmmConfig::default().with_dropout(0, 3);
        assert_eq!(bad.validate().unwrap_err().field, "dropout.rank");
        let bad = NewtonAdmmConfig::default().with_dropout(1, 0);
        assert_eq!(bad.validate().unwrap_err().field, "dropout.at_iter");
    }
}
