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
use serde::{DeError, Deserialize, Serialize, Value};

/// Solver options that were removed, each with the value every run used
/// while it existed. A file may still set one to that value and runs as
/// before; any other value is refused, because unknown keys are skipped and
/// the run would silently differ from the one the file asks for.
const REMOVED_OPTIONS: [(&str, &str, Value); 4] = [
    ("NewtonAdmm", "consensus_tol", Value::Num(0.0)),
    ("NewtonAdmm", "record_accuracy", Value::Bool(true)),
    ("Giant", "grad_tol", Value::Num(0.0)),
    ("SyncSgd", "momentum", Value::Num(0.0)),
];

/// Why a scenario file did not load.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioParseError {
    /// Not JSON, or not the shape of a scenario.
    Json(serde_json::Error),
    /// A removed solver option set to a value other than its old default.
    RemovedOption {
        /// The solver variant whose configuration sets it.
        solver: &'static str,
        /// The removed key.
        key: &'static str,
        /// The value the file sets, as JSON.
        value: String,
    },
}

impl std::fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioParseError::Json(e) => write!(f, "{e}"),
            ScenarioParseError::RemovedOption { solver, key, value } => write!(
                f,
                "`{solver}.{key}` is set to {value}, but the option was removed; \
                 delete the key (only its old default is accepted)"
            ),
        }
    }
}

impl std::error::Error for ScenarioParseError {}

impl From<serde_json::Error> for ScenarioParseError {
    fn from(e: serde_json::Error) -> Self {
        ScenarioParseError::Json(e)
    }
}

impl From<DeError> for ScenarioParseError {
    fn from(e: DeError) -> Self {
        ScenarioParseError::Json(e.into())
    }
}

/// Refuses a parsed scenario document whose solvers set a removed option
/// to anything but its old default (a `SyncSgdGrid`'s `base` counts as
/// `SyncSgd`).
pub fn refuse_removed_options(scenario: &Value) -> Result<(), ScenarioParseError> {
    let Some(Value::Seq(solvers)) = scenario.get("solvers") else {
        return Ok(());
    };
    for entry in solvers {
        let Value::Map(variants) = entry else { continue };
        for (variant, body) in variants {
            let (variant, body) = match (variant.as_str(), body.get("base")) {
                ("SyncSgdGrid", Some(base)) => ("SyncSgd", base),
                (variant, _) => (variant, body),
            };
            for (solver, key, default) in REMOVED_OPTIONS.iter().filter(|(s, ..)| *s == variant) {
                if let Some(value) = body.get(key).filter(|v| *v != default) {
                    return Err(ScenarioParseError::RemovedOption {
                        solver,
                        key,
                        value: serde_json::to_string(value)?,
                    });
                }
            }
        }
    }
    Ok(())
}

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

    /// Parses a scenario from JSON, refusing removed solver options set to
    /// anything but their old default ([`refuse_removed_options`]).
    pub fn from_json(s: &str) -> Result<Self, ScenarioParseError> {
        let doc = serde_json::parse_value(s)?;
        refuse_removed_options(&doc)?;
        Ok(Self::from_value(&doc)?)
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
    fn sgd_momentum_is_refused_unless_zero_in_either_sgd_variant() {
        for variant in [
            r#"{"SyncSgd": {"momentum": M}}"#,
            r#"{"SyncSgdGrid": {"base": {"momentum": M}}}"#,
        ] {
            let doc = |m: &str| serde_json::parse_value(&format!(r#"{{"solvers": [{}]}}"#, variant.replace('M', m))).unwrap();
            assert_eq!(refuse_removed_options(&doc("0")), Ok(()), "{variant}");
            let err = refuse_removed_options(&doc("0.9")).unwrap_err();
            assert_eq!(
                err,
                ScenarioParseError::RemovedOption {
                    solver: "SyncSgd",
                    key: "momentum",
                    value: "0.9".into()
                }
            );
        }
        // Another solver's key of the same name is not the removed option.
        let disco = serde_json::parse_value(r#"{"solvers": [{"Disco": {"momentum": 0.9}}]}"#).unwrap();
        assert_eq!(refuse_removed_options(&disco), Ok(()));
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(ScenarioSpec::from_json("{\"name\": 3}").is_err());
        assert!(ScenarioSpec::from_json("not json at all").is_err());
    }
}
