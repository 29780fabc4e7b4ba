//! The object-safe [`Solver`] trait unifying Newton-ADMM and the baselines.
//!
//! Every distributed solver of the workspace runs behind this one interface:
//! `run` executes the solver inside one rank of a communicator (every rank
//! calls it with its own shard, exactly like the underlying
//! `run_distributed` methods) and returns a structured [`RunReport`]. The
//! experiment layer runs it on every rank, in process ([`crate::run_spec_on`])
//! or as one rank of an external transport ([`crate::run_spec_over`]).

use crate::report::RunReport;
use nadmm_baselines::{AideConfig, Disco, Giant, InexactDane, SyncSgd};
use nadmm_cluster::Communicator;
use nadmm_data::Dataset;
use nadmm_solver::ConfigError;
use newton_admm::NewtonAdmm;

/// A distributed solver that can run inside one rank of a communicator.
///
/// The trait is object-safe and `Send + Sync`, so `Box<dyn Solver>` values
/// can be handed to every rank thread of a simulated cluster.
pub trait Solver: Send + Sync {
    /// Stable solver name, matching the `solver` field of its run histories
    /// (e.g. `"newton-admm"`, `"giant"`).
    fn name(&self) -> &str;

    /// Validates the solver's configuration without running anything.
    fn validate(&self) -> Result<(), ConfigError>;

    /// Runs the solver inside one rank. Every rank of the communicator must
    /// call this with its own `shard`; `test` is optional instrumentation
    /// (per-iteration test accuracy, evaluated at the root).
    fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport;
}

impl Solver for NewtonAdmm {
    fn name(&self) -> &str {
        "newton-admm"
    }

    fn validate(&self) -> Result<(), ConfigError> {
        self.config().validate()
    }

    fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport {
        let out = self.run_distributed(comm, shard, test);
        RunReport::from_parts(out.history, out.comm_stats, out.workspace, out.z, Some(out.final_rho))
    }
}

impl Solver for Giant {
    fn name(&self) -> &str {
        "giant"
    }

    fn validate(&self) -> Result<(), ConfigError> {
        self.config().validate()
    }

    fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport {
        let out = self.run_distributed(comm, shard, test);
        RunReport::from_parts(out.history, out.comm_stats, out.workspace, out.w, None)
    }
}

impl Solver for InexactDane {
    fn name(&self) -> &str {
        "inexact-dane"
    }

    fn validate(&self) -> Result<(), ConfigError> {
        self.config().validate()
    }

    fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport {
        let out = self.run_distributed(comm, shard, test);
        RunReport::from_parts(out.history, out.comm_stats, out.workspace, out.w, None)
    }
}

impl Solver for Disco {
    fn name(&self) -> &str {
        "disco"
    }

    fn validate(&self) -> Result<(), ConfigError> {
        self.config().validate()
    }

    fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport {
        let out = self.run_distributed(comm, shard, test);
        RunReport::from_parts(out.history, out.comm_stats, out.workspace, out.w, None)
    }
}

impl Solver for SyncSgd {
    fn name(&self) -> &str {
        "sync-sgd"
    }

    fn validate(&self) -> Result<(), ConfigError> {
        self.config().validate()
    }

    fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport {
        let out = self.run_distributed(comm, shard, test);
        RunReport::from_parts(out.history, out.comm_stats, out.workspace, out.w, None)
    }
}

/// AIDE as a standalone solver: InexactDANE (the inner configuration lives
/// in [`AideConfig::dane`]) wrapped in catalyst acceleration.
#[derive(Debug, Clone, Default)]
pub struct Aide {
    config: AideConfig,
}

impl Aide {
    /// Creates the solver from the full AIDE configuration.
    pub fn new(config: AideConfig) -> Self {
        Self { config }
    }

    /// The solver configuration.
    pub fn config(&self) -> &AideConfig {
        &self.config
    }
}

impl Solver for Aide {
    fn name(&self) -> &str {
        "aide"
    }

    fn validate(&self) -> Result<(), ConfigError> {
        self.config.validate()
    }

    fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport {
        let out = InexactDane::new(self.config.dane).run_distributed_aide(comm, shard, test, &self.config);
        RunReport::from_parts(out.history, out.comm_stats, out.workspace, out.w, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadmm_cluster::{Cluster, NetworkModel};
    use nadmm_data::{partition_strong, SyntheticConfig};
    use newton_admm::NewtonAdmmConfig;

    #[test]
    fn a_boxed_solver_runs_through_the_shared_scaffolding() {
        let (train, test) = SyntheticConfig::mnist_like()
            .with_train_size(60)
            .with_test_size(20)
            .with_num_features(6)
            .with_num_classes(3)
            .generate(5);
        let (shards, _) = partition_strong(&train, 2);
        let cluster = Cluster::new(2, NetworkModel::ideal());
        let solver: Box<dyn Solver> = Box::new(NewtonAdmm::new(
            NewtonAdmmConfig::default().with_max_iters(3).with_lambda(1e-3),
        ));
        assert_eq!(solver.name(), "newton-admm");
        solver.validate().unwrap();
        let report = cluster
            .run_sharded(&shards, |comm, shard| solver.run(comm, shard, Some(&test)))
            .swap_remove(0);
        assert_eq!(report.solver, "newton-admm");
        assert_eq!(report.num_workers, 2);
        assert_eq!(report.history.len(), 4);
        assert!(report.final_objective.unwrap().is_finite());
        assert!(report.final_accuracy.is_some());
        assert!(report.final_rho.is_some());
        assert!(report.comm_stats.collectives > 0);
        report.validate_schema().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected_before_running() {
        let bad = NewtonAdmm::new(NewtonAdmmConfig {
            rho0: -1.0,
            ..Default::default()
        });
        let err = Solver::validate(&bad).unwrap_err();
        assert_eq!(err.field, "rho0");
    }
}
