//! Declarative serving scenarios: arrivals, batching knobs, and the
//! train→save→load→serve pipeline description.
//!
//! A [`ServeSpec`] describes one serving-simulation run (how requests
//! arrive, how the scheduler batches them, what hardware serves them); a
//! [`ServingScenario`] couples it with a training [`ScenarioSpec`] and an
//! artifact path, which is exactly what `scenarios/serving.json` commits and
//! `examples/serve_bench.rs` executes end-to-end.

use crate::artifact::{fnv1a64, ArtifactError, ModelArtifact, Provenance};
use nadmm_device::DeviceSpec;
use nadmm_experiment::{
    refuse_removed_options, validate_device, ConfigError, NonFiniteJsonError, RunReport, ScenarioParseError, ScenarioSpec,
};
use serde::{Deserialize, Serialize};

/// How requests arrive at the serving engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalSpec {
    /// Open loop: requests arrive by a seeded Poisson process regardless of
    /// how the server keeps up (the load-test model).
    OpenLoopPoisson {
        /// Mean arrival rate λ, requests per simulated second.
        rate_per_sec: f64,
        /// Total requests to generate.
        num_requests: usize,
        /// Seed of the exponential inter-arrival draws.
        seed: u64,
    },
    /// Closed loop: `clients` callers that each wait for their previous
    /// response, think, and ask again (the interactive-traffic model).
    ClosedLoop {
        /// Concurrent clients.
        clients: usize,
        /// Seconds a client thinks between response and next request.
        think_time_sec: f64,
        /// Requests each client issues before leaving.
        requests_per_client: usize,
    },
}

impl ArrivalSpec {
    /// Total requests the process will generate.
    pub fn total_requests(&self) -> usize {
        match self {
            ArrivalSpec::OpenLoopPoisson { num_requests, .. } => *num_requests,
            ArrivalSpec::ClosedLoop {
                clients,
                requests_per_client,
                ..
            } => clients * requests_per_client,
        }
    }

    /// Rejects degenerate arrival processes.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            ArrivalSpec::OpenLoopPoisson {
                rate_per_sec,
                num_requests,
                ..
            } => {
                if !rate_per_sec.is_finite() || *rate_per_sec <= 0.0 {
                    return Err(ConfigError::new(
                        "ArrivalSpec::OpenLoopPoisson",
                        "rate_per_sec",
                        format!("must be positive and finite, got {rate_per_sec}"),
                    ));
                }
                if *num_requests == 0 {
                    return Err(ConfigError::new(
                        "ArrivalSpec::OpenLoopPoisson",
                        "num_requests",
                        "must be at least 1",
                    ));
                }
                Ok(())
            }
            ArrivalSpec::ClosedLoop {
                clients,
                think_time_sec,
                requests_per_client,
            } => {
                if *clients == 0 {
                    return Err(ConfigError::new("ArrivalSpec::ClosedLoop", "clients", "must be at least 1"));
                }
                if !think_time_sec.is_finite() || *think_time_sec < 0.0 {
                    return Err(ConfigError::new(
                        "ArrivalSpec::ClosedLoop",
                        "think_time_sec",
                        format!("must be non-negative and finite, got {think_time_sec}"),
                    ));
                }
                if *requests_per_client == 0 {
                    return Err(ConfigError::new(
                        "ArrivalSpec::ClosedLoop",
                        "requests_per_client",
                        "must be at least 1",
                    ));
                }
                Ok(())
            }
        }
    }
}

/// The batching scheduler's two knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchingSpec {
    /// A batch dispatches as soon as this many requests are queued.
    pub max_batch: usize,
    /// …or as soon as the oldest queued request has waited this long.
    pub max_queue_delay_sec: f64,
}

impl BatchingSpec {
    /// Rejects degenerate batching configurations.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_batch == 0 {
            return Err(ConfigError::new("BatchingSpec", "max_batch", "must be at least 1"));
        }
        if !self.max_queue_delay_sec.is_finite() || self.max_queue_delay_sec < 0.0 {
            return Err(ConfigError::new(
                "BatchingSpec",
                "max_queue_delay_sec",
                format!("must be non-negative and finite, got {}", self.max_queue_delay_sec),
            ));
        }
        Ok(())
    }
}

/// One serving-simulation run: arrivals + batching + hardware.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSpec {
    /// Name used in the emitted [`crate::ServeReport`].
    pub name: String,
    /// The request arrival process.
    pub arrival: ArrivalSpec,
    /// Batching-scheduler knobs.
    pub batching: BatchingSpec,
    /// Accelerator every model serves on (one device replica per model).
    pub device: DeviceSpec,
    /// Seed of the synthetic request feature vectors.
    pub request_seed: u64,
    /// Registry names to serve, in report order. `None` serves every
    /// registered model; requests round-robin across the served models.
    pub models: Option<Vec<String>>,
}

impl ServeSpec {
    /// Rejects degenerate specs before any simulation starts.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.name.is_empty() {
            return Err(ConfigError::new("ServeSpec", "name", "must not be empty"));
        }
        self.arrival.validate()?;
        self.batching.validate()?;
        validate_device("ServeSpec", &self.device)?;
        if let Some(models) = &self.models {
            if models.is_empty() {
                return Err(ConfigError::new(
                    "ServeSpec",
                    "models",
                    "must name at least one model (or be omitted to serve all)",
                ));
            }
            for (i, name) in models.iter().enumerate() {
                if models[..i].contains(name) {
                    return Err(ConfigError::new(
                        "ServeSpec",
                        "models",
                        format!("names model `{name}` twice — each served model must be listed once"),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The committed end-to-end pipeline: train a scenario, persist the model,
/// reload it, and drive serving traffic against it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingScenario {
    /// Scenario name (for logs and reports).
    pub name: String,
    /// The training half: a full experiment scenario. Its *first* solver's
    /// report becomes the served model.
    pub train: ScenarioSpec,
    /// Where the trained artifact is saved (and reloaded from).
    pub artifact_path: String,
    /// The serving half.
    pub serve: ServeSpec,
}

impl ServingScenario {
    /// Serializes as pretty JSON (loud error on non-finite fields).
    pub fn to_json(&self) -> Result<String, NonFiniteJsonError> {
        nadmm_experiment::to_finite_json_pretty(self)
    }

    /// Parses a serving scenario from JSON, refusing removed solver options
    /// in its `train` spec ([`nadmm_experiment::refuse_removed_options`]).
    pub fn from_json(s: &str) -> Result<Self, ScenarioParseError> {
        let doc = serde_json::parse_value(s)?;
        if let Some(train) = doc.get("train") {
            refuse_removed_options(train)?;
        }
        Ok(Self::from_value(&doc)?)
    }

    /// Validates both halves.
    pub fn validate(&self) -> Result<(), nadmm_experiment::ExperimentError> {
        if self.name.is_empty() {
            return Err(ConfigError::new("ServingScenario", "name", "must not be empty").into());
        }
        if self.artifact_path.is_empty() {
            return Err(ConfigError::new("ServingScenario", "artifact_path", "must not be empty").into());
        }
        self.train.validate()?;
        self.serve.validate()?;
        Ok(())
    }
}

/// Hex FNV-1a 64 fingerprint of a scenario's JSON form — the provenance
/// field that ties an artifact back to the exact scenario that trained it.
pub fn scenario_fingerprint(scenario: &ScenarioSpec) -> Result<String, NonFiniteJsonError> {
    Ok(format!("{:016x}", fnv1a64(scenario.to_json()?.as_bytes())))
}

/// Builds a [`ModelArtifact`] from a finished training run: the experiment
/// layer's export hook. Dimensions and class count come from materializing
/// the scenario's data spec (the report alone does not carry them); the
/// weights are the report's final iterate, and provenance records solver,
/// dataset, scenario fingerprint, and the headline training numbers.
pub fn artifact_for_scenario(scenario: &ScenarioSpec, report: &RunReport) -> Result<ModelArtifact, ArtifactError> {
    let (train, _) = scenario.data.load().map_err(|e| ArtifactError::Invalid {
        message: format!("cannot materialize the scenario's data spec: {e}"),
    })?;
    let provenance = Provenance {
        solver: report.solver.clone(),
        dataset: report.dataset.clone(),
        scenario_hash: Some(scenario_fingerprint(scenario).map_err(|e| ArtifactError::Invalid {
            message: format!("scenario does not serialize: {e}"),
        })?),
        final_objective: report.final_objective,
        final_accuracy: report.final_accuracy,
        iterations: report.history.len(),
        binary_checksum: None,
    };
    ModelArtifact::new(
        train.num_features(),
        train.num_classes(),
        (0..train.num_classes()).map(|c| format!("class-{c}")).collect(),
        report.final_w.clone(),
        provenance,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadmm_cluster::NetworkModel;
    use nadmm_data::SyntheticConfig;
    use nadmm_experiment::{ClusterSpec, DataSpec, PartitionSpec, SolverSpec};
    use newton_admm::NewtonAdmmConfig;

    fn serve_spec() -> ServeSpec {
        ServeSpec {
            name: "unit-serve".into(),
            arrival: ArrivalSpec::OpenLoopPoisson {
                rate_per_sec: 1000.0,
                num_requests: 64,
                seed: 3,
            },
            batching: BatchingSpec {
                max_batch: 8,
                max_queue_delay_sec: 2e-3,
            },
            device: DeviceSpec::tesla_p100(),
            request_seed: 5,
            models: None,
        }
    }

    fn train_scenario() -> ScenarioSpec {
        ScenarioSpec {
            name: "unit-train".into(),
            data: DataSpec::Synthetic {
                config: SyntheticConfig::mnist_like()
                    .with_train_size(40)
                    .with_test_size(12)
                    .with_num_features(5)
                    .with_num_classes(3),
                seed: 2,
            },
            partition: PartitionSpec::Strong,
            cluster: ClusterSpec::new(2, NetworkModel::infiniband_100g()),
            solvers: vec![SolverSpec::NewtonAdmm(
                NewtonAdmmConfig::default().with_max_iters(2).with_lambda(1e-3),
            )],
        }
    }

    #[test]
    fn serving_scenarios_round_trip_through_json() {
        let scenario = ServingScenario {
            name: "unit-pipeline".into(),
            train: train_scenario(),
            artifact_path: "target/unit_model.nadmm".into(),
            serve: serve_spec(),
        };
        scenario.validate().unwrap();
        let back = ServingScenario::from_json(&scenario.to_json().unwrap()).unwrap();
        assert_eq!(back, scenario);
    }

    #[test]
    fn degenerate_specs_are_named_field_errors() {
        let mut s = serve_spec();
        s.batching.max_batch = 0;
        assert_eq!(s.validate().unwrap_err().field, "max_batch");

        let mut s = serve_spec();
        s.arrival = ArrivalSpec::OpenLoopPoisson {
            rate_per_sec: f64::NAN,
            num_requests: 1,
            seed: 0,
        };
        assert_eq!(s.validate().unwrap_err().field, "rate_per_sec");

        let mut s = serve_spec();
        s.arrival = ArrivalSpec::ClosedLoop {
            clients: 0,
            think_time_sec: 0.0,
            requests_per_client: 1,
        };
        assert_eq!(s.validate().unwrap_err().field, "clients");

        let mut s = serve_spec();
        s.models = Some(vec![]);
        assert_eq!(s.validate().unwrap_err().field, "models");

        let mut s = serve_spec();
        s.models = Some(vec!["alpha".into(), "beta".into(), "alpha".into()]);
        let err = s.validate().unwrap_err();
        assert_eq!(err.field, "models");
        assert!(err.to_string().contains("twice"), "must name the duplicate: {err}");

        let mut s = serve_spec();
        s.device.flops_per_sec = -1.0;
        assert_eq!(s.validate().unwrap_err().field, "device.flops_per_sec");
    }

    #[test]
    fn closed_loop_counts_total_requests() {
        let arrival = ArrivalSpec::ClosedLoop {
            clients: 3,
            think_time_sec: 0.1,
            requests_per_client: 4,
        };
        assert_eq!(arrival.total_requests(), 12);
    }

    #[test]
    fn artifacts_export_from_finished_runs_with_provenance() {
        let scenario = train_scenario();
        let report = scenario.run().unwrap().remove(0);
        let artifact = artifact_for_scenario(&scenario, &report).unwrap();
        assert_eq!(artifact.num_features, 5);
        assert_eq!(artifact.num_classes, 3);
        assert_eq!(artifact.weights, report.final_w);
        assert_eq!(artifact.provenance.solver, "newton-admm");
        assert_eq!(artifact.provenance.final_objective, report.final_objective);
        assert_eq!(
            artifact.provenance.scenario_hash.as_deref().unwrap().len(),
            16,
            "fingerprint is a 16-hex-digit FNV hash"
        );
        // The fingerprint is a pure function of the scenario JSON.
        assert_eq!(
            scenario_fingerprint(&scenario).unwrap(),
            scenario_fingerprint(&scenario).unwrap()
        );
    }
}
