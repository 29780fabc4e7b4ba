//! Relative-objective (θ) computations used by the paper's Figure 3.
//!
//! The paper measures "speed of convergence to relative objective value
//! θ < 0.05", with `θ = (F(x_k) − F(x*)) / F(x*)` and `x*` obtained by
//! running single-node Newton to high precision.

use crate::record::RunHistory;

/// Relative objective `θ = (f − f*) / |f*|`.
///
/// # Panics
/// Panics if `f_star` is zero (the paper's datasets always have a strictly
/// positive optimal loss).
pub fn relative_objective(f: f64, f_star: f64) -> f64 {
    assert!(f_star != 0.0, "relative objective undefined for f* = 0");
    (f - f_star) / f_star.abs()
}

/// First simulated time at which a run reached `θ ≤ threshold` relative to
/// `f_star`, if ever.
pub fn time_to_relative_objective(history: &RunHistory, f_star: f64, threshold: f64) -> Option<f64> {
    history
        .records
        .iter()
        .find(|r| relative_objective(r.objective, f_star) <= threshold)
        .map(|r| r.sim_time_sec)
}

/// The paper's speed-up ratio: time for the `baseline` run to reach
/// `θ ≤ threshold` divided by the time for the `candidate` run to do the
/// same. Returns `None` if either run never reaches the threshold.
pub fn speedup_ratio(candidate: &RunHistory, baseline: &RunHistory, f_star: f64, threshold: f64) -> Option<f64> {
    let tc = time_to_relative_objective(candidate, f_star, threshold)?;
    let tb = time_to_relative_objective(baseline, f_star, threshold)?;
    if tc <= 0.0 {
        return None;
    }
    Some(tb / tc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::IterationRecord;

    fn history(name: &str, times_and_objectives: &[(f64, f64)]) -> RunHistory {
        let mut h = RunHistory::new(name, "test", 4);
        for (i, &(t, f)) in times_and_objectives.iter().enumerate() {
            h.push(IterationRecord::new(i, t, t, f));
        }
        h
    }

    #[test]
    fn relative_objective_formula() {
        assert!((relative_objective(1.05, 1.0) - 0.05).abs() < 1e-12);
        assert!((relative_objective(1.0, 1.0) - 0.0).abs() < 1e-12);
        assert!(relative_objective(2.0, 1.0) > relative_objective(1.5, 1.0));
    }

    #[test]
    #[should_panic]
    fn zero_reference_is_rejected() {
        relative_objective(1.0, 0.0);
    }

    #[test]
    fn time_and_iterations_to_threshold() {
        let h = history("a", &[(0.0, 2.0), (1.0, 1.2), (2.0, 1.04), (3.0, 1.01)]);
        // f* = 1.0, threshold 0.05 -> first reached at objective 1.04 (t=2).
        assert_eq!(time_to_relative_objective(&h, 1.0, 0.05), Some(2.0));
        assert_eq!(time_to_relative_objective(&h, 1.0, 0.001), None);
    }

    #[test]
    fn speedup_ratio_matches_paper_definition() {
        let fast = history("newton-admm", &[(0.0, 2.0), (1.0, 1.02)]);
        let slow = history("giant", &[(0.0, 2.0), (2.0, 1.5), (5.0, 1.02)]);
        let s = speedup_ratio(&fast, &slow, 1.0, 0.05).unwrap();
        assert!((s - 5.0).abs() < 1e-12);
        // If the baseline never converges the ratio is undefined.
        let never = history("giant", &[(0.0, 2.0), (2.0, 1.5)]);
        assert_eq!(speedup_ratio(&fast, &never, 1.0, 0.05), None);
        assert_eq!(speedup_ratio(&never, &fast, 1.0, 0.05), None);
    }
}
