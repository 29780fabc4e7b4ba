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
use nadmm_experiment::{ClusterSpec, DataSpec, PartitionSpec, ScenarioSpec, SolverSpec};
use newton_admm::NewtonAdmmConfig;

const SMOKE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/smoke.json");
const SPARSE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/sparse.json");

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
