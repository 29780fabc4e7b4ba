//! JSON scenario specs: a whole experiment in one committed file.
//!
//! A [`ScenarioSpec`] is the serializable mirror of an [`Experiment`]:
//! data + partition + cluster + solvers, plus a name for reporting. The
//! `scenario_runner` example executes one end-to-end
//! (`scenarios/smoke.json` is the CI-gated instance), and
//! [`ScenarioSpec::run`] is the library entry the example is built on.

use crate::experiment::{Experiment, ExperimentError};
use crate::report::{non_finite_path, to_finite_json_pretty, NonFiniteJsonError, RunReport};
use crate::spec::{ClusterSpec, DataSpec, PartitionSpec, SolverSpec};
use serde::{Deserialize, Serialize};

/// A complete, serializable experiment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name, used in reports and logs.
    pub name: String,
    /// Where the `(train, test)` datasets come from.
    pub data: DataSpec,
    /// How the training set is sharded across ranks.
    pub partition: PartitionSpec,
    /// The simulated cluster to run on.
    pub cluster: ClusterSpec,
    /// The solvers to compare, in run order.
    pub solvers: Vec<SolverSpec>,
}

impl ScenarioSpec {
    /// Serializes the scenario as pretty JSON. Non-finite hardware models
    /// (e.g. `NetworkModel::ideal()`'s infinite bandwidth) have no JSON
    /// form; they are a loud [`NonFiniteJsonError`] naming the field instead
    /// of `null` garbage that cannot be parsed back.
    pub fn to_json(&self) -> Result<String, NonFiniteJsonError> {
        to_finite_json_pretty(self)
    }

    /// Parses a scenario from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Validates the scenario: everything [`Experiment::validate`] checks,
    /// plus JSON-serializability — a *scenario* is an on-disk artifact, so
    /// non-finite hardware fields (fine for in-memory experiments) are
    /// rejected up front here.
    pub fn validate(&self) -> Result<(), ExperimentError> {
        self.require_finite()?;
        self.to_experiment().validate()
    }

    /// The scenario-specific half of [`ScenarioSpec::validate`]: rejects
    /// fields JSON cannot represent.
    fn require_finite(&self) -> Result<(), ExperimentError> {
        if let Some(path) = non_finite_path(&serde::Serialize::to_value(self)) {
            return Err(ExperimentError::Config(nadmm_solver::ConfigError::new(
                "ScenarioSpec",
                path,
                "must be finite: scenario files serialize to JSON, which has no NaN/Infinity \
                 (use a finite fabric/device model instead of the ideal() presets)",
            )));
        }
        Ok(())
    }

    /// Converts the scenario into a runnable [`Experiment`].
    pub fn to_experiment(&self) -> Experiment {
        Experiment::new()
            .with_data_spec(self.data.clone())
            .with_partition(self.partition)
            .with_cluster(self.cluster.clone())
            .with_solvers(self.solvers.iter().cloned())
    }

    /// Validates and runs the scenario, returning one report per solver.
    /// (The experiment is built and validated once: only the finiteness
    /// check is scenario-specific, everything else happens inside
    /// [`Experiment::run`].)
    pub fn run(&self) -> Result<Vec<RunReport>, ExperimentError> {
        self.require_finite()?;
        self.to_experiment().run()
    }

    /// Validates and runs the scenario with this process as one rank of a
    /// transport-connected cluster (see
    /// [`Experiment::run_with_transport`]). Returns `Some(reports)` on
    /// rank 0 and `None` on every other rank.
    pub fn run_with_transport(
        &self,
        transport: Box<dyn nadmm_cluster::Transport>,
    ) -> Result<Option<Vec<RunReport>>, ExperimentError> {
        self.require_finite()?;
        self.to_experiment().run_with_transport(transport)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadmm_cluster::NetworkModel;
    use nadmm_data::SyntheticConfig;
    use newton_admm::NewtonAdmmConfig;

    fn tiny_scenario() -> ScenarioSpec {
        ScenarioSpec {
            name: "unit-tiny".into(),
            data: DataSpec::Synthetic {
                config: SyntheticConfig::mnist_like()
                    .with_train_size(40)
                    .with_test_size(10)
                    .with_num_features(5)
                    .with_num_classes(3),
                seed: 2,
            },
            partition: PartitionSpec::Strong,
            // A finite fabric: the infinite-bandwidth `ideal()` model has no
            // JSON form (infinity is not a JSON number).
            cluster: ClusterSpec::new(2, NetworkModel::infiniband_100g()),
            solvers: vec![SolverSpec::NewtonAdmm(
                NewtonAdmmConfig::default().with_max_iters(2).with_lambda(1e-3),
            )],
        }
    }

    #[test]
    fn scenarios_round_trip_through_json() {
        let scenario = tiny_scenario();
        let back = ScenarioSpec::from_json(&scenario.to_json().unwrap()).unwrap();
        assert_eq!(back, scenario);
    }

    #[test]
    fn a_parsed_scenario_runs_end_to_end() {
        let json = tiny_scenario().to_json().unwrap();
        let reports = ScenarioSpec::from_json(&json).unwrap().run().unwrap();
        assert_eq!(reports.len(), 1);
        reports[0].validate_schema().unwrap();
        // The runner annotates every report with the fleet's skew summary.
        let skew = reports[0].rank_skew.as_ref().expect("experiment runs carry rank skew");
        assert_eq!(skew.per_rank_compute_sec.len(), 2);
    }

    #[test]
    fn non_finite_hardware_is_rejected_up_front() {
        let mut scenario = tiny_scenario();
        scenario.cluster.network = NetworkModel::ideal();
        // Serialization names the field…
        let err = scenario.to_json().unwrap_err();
        assert_eq!(err.path, "cluster.network.bandwidth");
        // …and validation rejects it before any rank spawns.
        let err = scenario.validate().unwrap_err();
        match err {
            crate::ExperimentError::Config(e) => {
                assert_eq!(e.config, "ScenarioSpec");
                assert_eq!(e.field, "cluster.network.bandwidth");
            }
            other => panic!("expected a config error, got {other:?}"),
        }
        assert!(scenario.run().is_err());
    }

    #[test]
    fn a_one_class_synthetic_spec_is_a_config_error_not_a_panic() {
        let mut scenario = tiny_scenario();
        let DataSpec::Synthetic { config, .. } = &mut scenario.data else {
            unreachable!("the tiny scenario is synthetic")
        };
        config.num_classes = 1;
        match scenario.run().unwrap_err() {
            crate::ExperimentError::Config(e) => {
                assert_eq!(e.config, "SyntheticConfig");
                assert_eq!(e.field, "num_classes");
            }
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(ScenarioSpec::from_json("{\"name\": 3}").is_err());
        assert!(ScenarioSpec::from_json("not json at all").is_err());
    }
}
