//! Per-iteration run records and run histories.

use serde::{Deserialize, Serialize};

/// One outer-iteration (or epoch) record of a distributed solver run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Outer iteration / epoch index (0 = initial point).
    pub iteration: usize,
    /// Simulated cluster time in seconds (max over ranks) at which this
    /// iterate became available.
    pub sim_time_sec: f64,
    /// Real wall-clock seconds spent by the reproduction itself.
    pub wall_time_sec: f64,
    /// Global training objective `F(x_k)`.
    pub objective: f64,
    /// Test accuracy in `[0, 1]`, when a test set was supplied.
    pub test_accuracy: Option<f64>,
    /// Norm of the global gradient, when the solver computes it.
    pub grad_norm: Option<f64>,
    /// Consensus residual `max_i ‖x_i − z‖` (ADMM-family solvers only).
    pub consensus_residual: Option<f64>,
    /// Cumulative bytes communicated per rank up to this iteration.
    pub comm_bytes: f64,
    /// Mean penalty parameter across workers (ADMM-family solvers only).
    pub mean_rho: Option<f64>,
}

impl IterationRecord {
    /// Creates a record with the required fields; optional diagnostics start
    /// as `None` / zero and can be filled in by the caller.
    pub fn new(iteration: usize, sim_time_sec: f64, wall_time_sec: f64, objective: f64) -> Self {
        Self {
            iteration,
            sim_time_sec,
            wall_time_sec,
            objective,
            test_accuracy: None,
            grad_norm: None,
            consensus_residual: None,
            comm_bytes: 0.0,
            mean_rho: None,
        }
    }

    /// Builder-style setter for the test accuracy.
    pub fn with_accuracy(mut self, acc: f64) -> Self {
        self.test_accuracy = Some(acc);
        self
    }

    /// Builder-style setter for the consensus residual.
    pub fn with_consensus_residual(mut self, r: f64) -> Self {
        self.consensus_residual = Some(r);
        self
    }

    /// Builder-style setter for the cumulative communication volume.
    pub fn with_comm_bytes(mut self, b: f64) -> Self {
        self.comm_bytes = b;
        self
    }

    /// Builder-style setter for the mean penalty parameter.
    pub fn with_mean_rho(mut self, rho: f64) -> Self {
        self.mean_rho = Some(rho);
        self
    }
}

/// A complete run of one solver on one dataset/worker configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunHistory {
    /// Solver name (e.g. `"newton-admm"`, `"giant"`, `"sync-sgd"`).
    pub solver: String,
    /// Dataset name (e.g. `"mnist-like"`).
    pub dataset: String,
    /// Number of workers.
    pub num_workers: usize,
    /// Per-iteration records, in order.
    pub records: Vec<IterationRecord>,
}

impl RunHistory {
    /// Creates an empty history.
    pub fn new(solver: impl Into<String>, dataset: impl Into<String>, num_workers: usize) -> Self {
        Self {
            solver: solver.into(),
            dataset: dataset.into(),
            num_workers,
            records: Vec::new(),
        }
    }

    /// Appends a record.
    pub fn push(&mut self, record: IterationRecord) {
        self.records.push(record);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Final objective value, if any iterations were recorded.
    pub fn final_objective(&self) -> Option<f64> {
        self.records.last().map(|r| r.objective)
    }

    /// Final test accuracy, if recorded.
    pub fn final_accuracy(&self) -> Option<f64> {
        self.records.last().and_then(|r| r.test_accuracy)
    }

    /// Total simulated time of the run (time of the last record).
    pub fn total_sim_time(&self) -> f64 {
        self.records.last().map(|r| r.sim_time_sec).unwrap_or(0.0)
    }

    /// Average simulated seconds per iteration/epoch (excluding the initial
    /// record at iteration 0), i.e. the paper's "avg. epoch time".
    pub fn avg_epoch_time(&self) -> f64 {
        let iters = self.records.iter().map(|r| r.iteration).max().unwrap_or(0);
        if iters == 0 {
            0.0
        } else {
            self.total_sim_time() / iters as f64
        }
    }

    /// First iteration at which the objective dropped to or below
    /// `threshold`, if ever.
    pub fn iterations_to_objective(&self, threshold: f64) -> Option<usize> {
        self.records.iter().find(|r| r.objective <= threshold).map(|r| r.iteration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_history() -> RunHistory {
        let mut h = RunHistory::new("newton-admm", "mnist-like", 8);
        h.push(IterationRecord::new(0, 0.0, 0.0, 2.30).with_accuracy(0.1));
        h.push(IterationRecord::new(1, 1.0, 0.2, 0.90).with_accuracy(0.6).with_mean_rho(1.0));
        h.push(
            IterationRecord::new(2, 2.0, 0.4, 0.40)
                .with_accuracy(0.8)
                .with_consensus_residual(0.01)
                .with_comm_bytes(1e6),
        );
        h
    }

    #[test]
    fn builders_populate_fields() {
        let r = IterationRecord::new(3, 1.5, 0.7, 0.25)
            .with_accuracy(0.9)
            .with_consensus_residual(0.02)
            .with_comm_bytes(123.0)
            .with_mean_rho(2.5);
        assert_eq!(r.iteration, 3);
        assert_eq!(r.test_accuracy, Some(0.9));
        assert_eq!(r.grad_norm, None);
        assert_eq!(r.consensus_residual, Some(0.02));
        assert_eq!(r.comm_bytes, 123.0);
        assert_eq!(r.mean_rho, Some(2.5));
    }

    #[test]
    fn history_queries() {
        let h = sample_history();
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
        assert_eq!(h.final_objective(), Some(0.40));
        assert_eq!(h.final_accuracy(), Some(0.8));
        assert_eq!(h.total_sim_time(), 2.0);
        assert_eq!(h.avg_epoch_time(), 1.0);
        assert_eq!(h.iterations_to_objective(1.0), Some(1));
        assert_eq!(h.iterations_to_objective(0.01), None);
    }

    #[test]
    fn empty_history_defaults() {
        let h = RunHistory::new("x", "y", 1);
        assert!(h.is_empty());
        assert_eq!(h.final_objective(), None);
        assert_eq!(h.avg_epoch_time(), 0.0);
        assert_eq!(h.total_sim_time(), 0.0);
    }

    #[test]
    fn json_round_trip() {
        let h = sample_history();
        let json = serde_json::to_string_pretty(&h).unwrap();
        let parsed: RunHistory = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, h);
        assert!(serde_json::from_str::<RunHistory>("not json").is_err());
    }
}
