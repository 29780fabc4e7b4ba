//! # nadmm-metrics
//!
//! Run records shared by the Newton-ADMM driver, the baselines, the
//! experiment reports and the `claims` binary: per-iteration records, run
//! histories, and the relative objective θ that Figure 3's claims are
//! measured in.

pub mod record;
pub mod relative;

pub use record::{IterationRecord, RunHistory};
pub use relative::{relative_objective, time_to_relative_objective};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_work_together() {
        let mut h = RunHistory::new("newton-admm", "mnist-like", 8);
        h.push(IterationRecord::new(0, 0.0, 0.0, 2.3));
        h.push(IterationRecord::new(1, 0.5, 0.4, 0.3));
        assert_eq!(h.len(), 2);
        assert!(relative_objective(0.3, 0.25) > 0.0);
    }
}
