//! Keeps the committed CI smoke scenario (`scenarios/smoke.json`) honest:
//! the file must parse to exactly the canonical definition below, validate,
//! and (cheaply) run. The CI workflow additionally executes it through the
//! `scenario_runner` example and schema-checks the emitted reports.
//!
//! `scenarios/sparse.json` is pinned the same way: it is the one committed
//! scenario with CSR features, so the `--deterministic` `cmp` gates of the
//! `thread-matrix` job run the sparse kernels only while it stays sparse.

use nadmm_baselines::{AideConfig, DaneConfig, DiscoConfig, GiantConfig, SyncSgdConfig};
use nadmm_cluster::NetworkModel;
use nadmm_data::SyntheticConfig;
use nadmm_experiment::{ClusterSpec, DataSpec, PartitionSpec, ScenarioParseError, ScenarioSpec, SolverSpec};
use newton_admm::NewtonAdmmConfig;

const SMOKE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/smoke.json");
const SPARSE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/sparse.json");
const HETEROGENEOUS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/heterogeneous.json");

/// `scenarios/heterogeneous.json` as written while solver configurations
/// still had `consensus_tol`, `record_accuracy` and GIANT's `grad_tol`, each
/// at the value every run used.
const HETEROGENEOUS_WITH_REMOVED_DEFAULTS: &str = r#"
{"name": "heterogeneous", "data": {"Synthetic": {"config": {"kind": "Mnist", "train_size": 240,
"test_size": 60, "num_features": 16, "num_classes": 10, "class_separation": 3, "spectrum_decay": 0.005,
"density": 1, "label_noise": 0.02}, "seed": 42}}, "partition": "Strong", "cluster": {"ranks": 4,
"network": {"name": "infiniband-100g", "latency": 0.0000015, "bandwidth": 12500000000}, "collectives":
"Auto", "device": null, "rank_devices": null, "straggler": {"jitter": 0.05, "seed": 42, "slow_ranks":
[{"rank": 3, "factor": 4}]}}, "solvers": [{"NewtonAdmm": {"max_iters": 8, "lambda": 0.001,
"newton_steps_per_iter": 4, "cg": {"max_iters": 10, "tolerance": 0.0001}, "line_search":
{"initial_step": 1, "beta": 0.0001, "shrink": 0.5, "max_iters": 10}, "rho0": 1, "penalty": {"Spectral":
{"correlation_threshold": 0.2, "update_every": 2, "safeguard": 10000000000, "rho_min": 0.000001,
"rho_max": 1000000}}, "consensus_tol": 0, "device": {"name": "tesla-p100", "flops_per_sec":
2820000000000, "mem_bandwidth": 512399999999.99994, "launch_latency": 0.000005, "pcie_bandwidth":
12000000000, "pcie_latency": 0.00001}, "record_accuracy": true, "staleness_deadline_sec": 0.002,
"dropout": null}}, {"Giant": {"max_iters": 8, "lambda": 0.001, "cg": {"max_iters": 10, "tolerance":
0.0001}, "line_search_steps": 10, "armijo_beta": 0.0001, "device": {"name": "tesla-p100",
"flops_per_sec": 2820000000000, "mem_bandwidth": 512399999999.99994, "launch_latency": 0.000005,
"pcie_bandwidth": 12000000000, "pcie_latency": 0.00001}, "grad_tol": 0}}, {"InexactDane": {"max_iters":
8, "lambda": 0.001, "eta": 1, "mu": 0, "svrg_iters": 10, "svrg_batch": 8, "svrg_step": 0.001, "seed": 7,
"device": {"name": "tesla-p100", "flops_per_sec": 2820000000000, "mem_bandwidth": 512399999999.99994,
"launch_latency": 0.000005, "pcie_bandwidth": 12000000000, "pcie_latency": 0.00001}}}]}
"#;

/// The canonical smoke scenario: mnist-like × 4 ranks, 2 iterations per
/// solver, every solver variant represented.
fn smoke_scenario() -> ScenarioSpec {
    let lambda = 1e-3;
    let dane = DaneConfig {
        max_iters: 2,
        lambda,
        svrg_iters: 10,
        svrg_batch: 8,
        svrg_step: 1e-3,
        ..Default::default()
    };
    ScenarioSpec {
        name: "smoke".into(),
        data: DataSpec::Synthetic {
            config: SyntheticConfig::mnist_like()
                .with_train_size(240)
                .with_test_size(60)
                .with_num_features(16),
            seed: 42,
        },
        partition: PartitionSpec::Strong,
        cluster: ClusterSpec::new(4, NetworkModel::infiniband_100g()),
        solvers: vec![
            SolverSpec::NewtonAdmm(NewtonAdmmConfig::default().with_max_iters(2).with_lambda(lambda)),
            SolverSpec::Giant(GiantConfig {
                max_iters: 2,
                lambda,
                ..Default::default()
            }),
            SolverSpec::InexactDane(dane),
            SolverSpec::Aide(AideConfig {
                dane,
                tau: 0.5,
                zeta: 0.5,
            }),
            SolverSpec::Disco(DiscoConfig {
                max_iters: 2,
                lambda,
                ..Default::default()
            }),
            SolverSpec::SyncSgdGrid {
                base: SyncSgdConfig {
                    epochs: 2,
                    lambda,
                    batch_size: 16,
                    ..Default::default()
                },
                grid: vec![1e-2, 0.5],
            },
        ],
    }
}

/// The canonical sparse scenario: the E18 kind (5 % density, 20 classes)
/// scaled to 600 × 400, 2 ranks, 3 Newton-ADMM iterations.
fn sparse_scenario() -> ScenarioSpec {
    ScenarioSpec {
        name: "sparse".into(),
        data: DataSpec::Synthetic {
            config: SyntheticConfig::e18_like()
                .with_train_size(600)
                .with_test_size(60)
                .with_num_features(400),
            seed: 42,
        },
        partition: PartitionSpec::Strong,
        cluster: ClusterSpec::new(2, NetworkModel::infiniband_100g()),
        solvers: vec![SolverSpec::NewtonAdmm(
            NewtonAdmmConfig::default().with_max_iters(3).with_lambda(1e-3),
        )],
    }
}

#[test]
fn committed_sparse_scenario_matches_the_canonical_definition_and_is_csr() {
    let committed = std::fs::read_to_string(SPARSE_PATH).expect("scenarios/sparse.json exists");
    let parsed = ScenarioSpec::from_json(&committed).expect("sparse scenario parses");
    assert_eq!(
        parsed,
        sparse_scenario(),
        "scenarios/sparse.json diverged from the canonical definition"
    );
    parsed.to_experiment().validate().expect("sparse scenario validates");
    let (train, _) = parsed.data.load().expect("sparse scenario data generates");
    assert!(train.is_sparse(), "the sparse scenario must train on CSR features");
}

#[test]
fn committed_smoke_scenario_matches_the_canonical_definition() {
    let committed = std::fs::read_to_string(SMOKE_PATH).expect("scenarios/smoke.json exists");
    let parsed = ScenarioSpec::from_json(&committed).expect("smoke scenario parses");
    assert_eq!(
        parsed,
        smoke_scenario(),
        "scenarios/smoke.json diverged from the canonical definition"
    );
    parsed.to_experiment().validate().expect("smoke scenario validates");
}

#[test]
fn smoke_scenario_runs_and_reports_validate() {
    let reports = smoke_scenario().run().expect("smoke scenario runs");
    assert_eq!(reports.len(), 6);
    for report in &reports {
        report.validate_schema().unwrap_or_else(|e| panic!("{}: {e}", report.solver));
        assert_eq!(report.num_workers, 4);
        assert_eq!(
            report.history.len(),
            3,
            "{}: 2 iterations + the initial record",
            report.solver
        );
    }
    let names: Vec<&str> = reports.iter().map(|r| r.solver.as_str()).collect();
    assert_eq!(names, ["newton-admm", "giant", "inexact-dane", "aide", "disco", "sync-sgd"]);
}

/// Rewrites the committed smoke and sparse scenarios from the canonical
/// definitions when `NADMM_REGEN_GOLDEN=1`; a no-op otherwise.
#[test]
fn regenerate_smoke_scenario_when_requested() {
    if std::env::var("NADMM_REGEN_GOLDEN").ok().as_deref() == Some("1") {
        for (path, scenario) in [(SMOKE_PATH, smoke_scenario()), (SPARSE_PATH, sparse_scenario())] {
            std::fs::write(path, scenario.to_json().expect("scenario is finite") + "\n").expect("scenario writes");
        }
    }
}

#[test]
fn removed_options_load_at_their_old_defaults_and_are_refused_by_name_otherwise() {
    let committed = ScenarioSpec::from_json(&std::fs::read_to_string(HETEROGENEOUS_PATH).unwrap()).unwrap();
    let old = ScenarioSpec::from_json(HETEROGENEOUS_WITH_REMOVED_DEFAULTS).expect("old defaults load");
    assert_eq!(old, committed);
    let report = |scenario: &ScenarioSpec| {
        let mut reports = scenario.run().expect("heterogeneous scenario runs");
        for r in &mut reports {
            r.wall_time_sec = 0.0;
            r.history.records.iter_mut().for_each(|x| x.wall_time_sec = 0.0);
        }
        serde_json::to_string(&reports).unwrap()
    };
    assert_eq!(report(&old), report(&committed));

    for (solver, key, old_value, new_value) in [
        ("NewtonAdmm", "consensus_tol", "0", "1e-3"),
        ("NewtonAdmm", "record_accuracy", "true", "false"),
        ("Giant", "grad_tol", "0", "1e-7"),
    ] {
        let from = format!(r#""{key}": {old_value}"#);
        assert_eq!(HETEROGENEOUS_WITH_REMOVED_DEFAULTS.matches(&from).count(), 1, "{key}");
        let edited = HETEROGENEOUS_WITH_REMOVED_DEFAULTS.replace(&from, &format!(r#""{key}": {new_value}"#));
        let err = ScenarioSpec::from_json(&edited).unwrap_err();
        assert!(
            matches!(&err, ScenarioParseError::RemovedOption { solver: s, key: k, .. } if *s == solver && *k == key),
            "{err:?}"
        );
        assert!(err.to_string().contains(&format!("`{solver}.{key}`")), "{err}");
    }
}
