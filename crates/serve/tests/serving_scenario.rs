//! Pins the committed `scenarios/serving.json` to its canonical in-code
//! form: the file must parse to exactly the [`ServingScenario`] built here
//! (so schema drift is caught at test time, not in CI's serve-smoke job),
//! and `NADMM_REGEN_GOLDEN=1` rewrites it after intentional changes.

use nadmm_cluster::NetworkModel;
use nadmm_data::SyntheticConfig;
use nadmm_device::DeviceSpec;
use nadmm_experiment::{ClusterSpec, DataSpec, PartitionSpec, ScenarioSpec, SolverSpec};
use nadmm_serve::{ArrivalSpec, BatchingSpec, ServeSpec, ServingScenario};
use newton_admm::NewtonAdmmConfig;

fn committed_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/serving.json")
}

/// The canonical end-to-end serving scenario: train a 10-class MNIST-like
/// problem on 4 ranks, persist the model, then load-test it with a seeded
/// open-loop Poisson stream against a 32-wide batching scheduler on the
/// paper's P100 device model.
fn canonical_scenario() -> ServingScenario {
    ServingScenario {
        name: "serving".into(),
        train: ScenarioSpec {
            name: "serving-train".into(),
            data: DataSpec::Synthetic {
                config: SyntheticConfig::mnist_like()
                    .with_train_size(240)
                    .with_test_size(60)
                    .with_num_features(16),
                seed: 42,
            },
            partition: PartitionSpec::Strong,
            cluster: ClusterSpec::new(4, NetworkModel::infiniband_100g()),
            solvers: vec![SolverSpec::NewtonAdmm(
                NewtonAdmmConfig::default().with_max_iters(3).with_lambda(1e-3),
            )],
        },
        artifact_path: "target/serving_model.nadmm".into(),
        serve: ServeSpec {
            name: "serving".into(),
            arrival: ArrivalSpec::OpenLoopPoisson {
                rate_per_sec: 200_000.0,
                num_requests: 4_000,
                seed: 7,
            },
            batching: BatchingSpec {
                max_batch: 32,
                max_queue_delay_sec: 250e-6,
            },
            device: DeviceSpec::tesla_p100(),
            request_seed: 23,
            models: None,
        },
    }
}

#[test]
fn committed_serving_scenario_matches_the_canonical_form() {
    let text = std::fs::read_to_string(committed_path()).expect("scenarios/serving.json exists");
    let parsed = ServingScenario::from_json(&text).expect("scenarios/serving.json parses");
    assert_eq!(
        parsed,
        canonical_scenario(),
        "scenarios/serving.json drifted — regenerate with NADMM_REGEN_GOLDEN=1 if intentional"
    );
    parsed.validate().expect("the committed scenario validates");
}

#[test]
fn removed_options_in_the_train_spec_are_refused_by_name_unless_at_their_old_default() {
    let text = std::fs::read_to_string(committed_path()).expect("scenarios/serving.json exists");
    let with = |line: &str| text.replacen(r#""rho0": 1,"#, &format!(r#""rho0": 1, {line}"#), 1);
    let old = ServingScenario::from_json(&with(r#""consensus_tol": 0, "record_accuracy": true,"#)).unwrap();
    assert_eq!(old, canonical_scenario());
    let err = ServingScenario::from_json(&with(r#""consensus_tol": 1e-3,"#)).unwrap_err();
    assert!(err.to_string().contains("`NewtonAdmm.consensus_tol`"), "{err}");
}

#[test]
fn canonical_scenario_round_trips_through_json() {
    let scenario = canonical_scenario();
    let json = scenario.to_json().expect("canonical scenario is finite");
    assert_eq!(ServingScenario::from_json(&json).unwrap(), scenario);
}

/// Rewrites the committed scenario from the canonical form when
/// `NADMM_REGEN_GOLDEN=1` (for intentional schema changes); a no-op
/// otherwise.
#[test]
fn regenerate_committed_scenario_when_requested() {
    if std::env::var("NADMM_REGEN_GOLDEN").ok().as_deref() == Some("1") {
        let json = canonical_scenario().to_json().expect("canonical scenario is finite");
        std::fs::write(committed_path(), json + "\n").expect("scenarios/serving.json writes");
    }
}
