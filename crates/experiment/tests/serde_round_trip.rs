//! Serde round-trip coverage for every config/spec type of the experiment
//! API, plus a golden-file test pinning the on-disk JSON schema of
//! [`ScenarioSpec`] (the format `scenarios/*.json` and the CI smoke job
//! rely on).

use nadmm_baselines::{AideConfig, DaneConfig, DiscoConfig, GiantConfig, SyncSgdConfig};
use nadmm_cluster::{CollectiveAlgorithm, CollectiveSelector, Compression, NetworkModel, SlowRank, StragglerModel};
use nadmm_data::SyntheticConfig;
use nadmm_device::DeviceSpec;
use nadmm_experiment::{ClusterSpec, DataSpec, PartitionSpec, ScenarioSpec, SolverSpec};
use nadmm_solver::{CgConfig, LineSearchConfig, NewtonConfig};
use newton_admm::{NewtonAdmmConfig, PenaltyRule, SpectralConfig};
use serde::{Deserialize, Serialize};

fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: &T) {
    let json = serde_json::to_string_pretty(value).expect("serializes");
    let back: T = serde_json::from_str(&json).unwrap_or_else(|e| panic!("deserializes: {e} in\n{json}"));
    assert_eq!(&back, value, "round trip changed the value");
}

#[test]
fn solver_configs_round_trip() {
    round_trip(&CgConfig {
        max_iters: 17,
        tolerance: 3e-7,
    });
    round_trip(&LineSearchConfig {
        initial_step: 0.75,
        beta: 2e-4,
        shrink: 0.25,
        max_iters: 6,
    });
    round_trip(&NewtonConfig {
        max_iters: 9,
        grad_tol: 1e-9,
        ..Default::default()
    });
}

#[test]
fn penalty_rules_round_trip_in_every_variant() {
    round_trip(&PenaltyRule::Fixed);
    round_trip(&PenaltyRule::ResidualBalancing { mu: 12.0, tau: 1.5 });
    round_trip(&PenaltyRule::Spectral(SpectralConfig {
        correlation_threshold: 0.3,
        update_every: 3,
        safeguard: 1e8,
        rho_min: 1e-5,
        rho_max: 1e5,
    }));
}

#[test]
fn newton_admm_config_round_trips() {
    round_trip(&NewtonAdmmConfig {
        max_iters: 42,
        lambda: 1e-3,
        newton_steps_per_iter: 2,
        rho0: 0.5,
        penalty: PenaltyRule::ResidualBalancing { mu: 10.0, tau: 2.0 },
        device: DeviceSpec::tesla_v100(),
        ..Default::default()
    });
    // The heterogeneity knobs round-trip both disabled (None) and enabled.
    round_trip(&NewtonAdmmConfig::default().with_staleness_deadline(2.5e-4).with_dropout(3, 7));
}

#[test]
fn baseline_configs_round_trip() {
    round_trip(&GiantConfig {
        max_iters: 21,
        lambda: 2e-4,
        line_search_steps: 8,
        ..Default::default()
    });
    round_trip(&DaneConfig {
        max_iters: 7,
        svrg_iters: 55,
        svrg_batch: 32,
        svrg_step: 2e-3,
        seed: 99,
        ..Default::default()
    });
    round_trip(&AideConfig {
        tau: 0.25,
        zeta: 0.9,
        ..Default::default()
    });
    round_trip(&DiscoConfig {
        max_iters: 11,
        cg_iters: 20,
        cg_tolerance: 1e-6,
        ..Default::default()
    });
    round_trip(&SyncSgdConfig {
        epochs: 13,
        batch_size: 64,
        step_size: 0.1,
        seed: 5,
        ..Default::default()
    });
}

#[test]
fn experiment_specs_round_trip() {
    round_trip(&DataSpec::Synthetic {
        config: SyntheticConfig::cifar10_like().with_train_size(500).with_num_features(32),
        seed: 11,
    });
    round_trip(&DataSpec::Libsvm {
        train_path: "data/train.svm".into(),
        test_path: Some("data/test.svm".into()),
    });
    round_trip(&PartitionSpec::Strong);
    round_trip(&PartitionSpec::Weak { per_worker: 128 });
    round_trip(&ClusterSpec::new(8, NetworkModel::ethernet_10g()));
    // Note: `DeviceSpec::cpu_like()` and `NetworkModel::ideal()` carry
    // infinite fields and therefore have no JSON form; scenario files must
    // use finite hardware models.
    round_trip(
        &ClusterSpec::new(16, NetworkModel::infiniband_100g())
            .with_collectives(CollectiveSelector::Force(CollectiveAlgorithm::Ring))
            .with_device(DeviceSpec::tesla_v100()),
    );
    // Compressed collectives round-trip in every policy, and scenario files
    // written before the `compression` key existed still parse (missing key
    // → `Compression::None`).
    for compression in Compression::ALL {
        round_trip(&ClusterSpec::new(4, NetworkModel::ethernet_10g()).with_compression(compression));
    }
    let with_key = serde_json::to_string(&ClusterSpec::new(4, NetworkModel::ethernet_10g())).expect("serializes");
    let without_key = with_key.replace("\"compression\":\"none\",", "");
    assert_ne!(with_key, without_key, "the compression key must appear in serialized form");
    let legacy: ClusterSpec = serde_json::from_str(&without_key).expect("pre-compression scenario files still parse");
    assert_eq!(legacy.compression, Compression::None);
    // Heterogeneous fleets: per-rank devices and straggler models.
    round_trip(&StragglerModel::jitter(0.25, 99).with_slow_rank(1, 4.0));
    round_trip(&SlowRank { rank: 2, factor: 8.0 });
    round_trip(
        &ClusterSpec::new(2, NetworkModel::infiniband_100g())
            .with_rank_devices([DeviceSpec::tesla_p100(), DeviceSpec::tesla_v100()])
            .with_straggler(StragglerModel::jitter(0.1, 3)),
    );
}

#[test]
fn every_solver_spec_variant_round_trips() {
    let specs = vec![
        SolverSpec::NewtonAdmm(NewtonAdmmConfig::default()),
        SolverSpec::Giant(GiantConfig::default()),
        SolverSpec::InexactDane(DaneConfig::default()),
        SolverSpec::Aide(AideConfig::default()),
        SolverSpec::Disco(DiscoConfig::default()),
        SolverSpec::SyncSgd(SyncSgdConfig::default()),
        SolverSpec::SyncSgdGrid {
            base: SyncSgdConfig::default(),
            grid: vec![1e-2, 1e-1, 1.0],
        },
    ];
    for spec in &specs {
        round_trip(spec);
    }
    round_trip(&specs);
}

/// The canonical scenario pinned by the golden file: every solver variant on
/// a mnist-like problem over 4 Infiniband ranks.
fn golden_scenario() -> ScenarioSpec {
    ScenarioSpec {
        name: "golden".into(),
        data: DataSpec::Synthetic {
            config: SyntheticConfig::mnist_like()
                .with_train_size(96)
                .with_test_size(24)
                .with_num_features(8)
                .with_num_classes(3),
            seed: 42,
        },
        partition: PartitionSpec::Strong,
        // The golden cluster pins the heterogeneity schema too: a straggler
        // model with one designated slow rank.
        cluster: ClusterSpec::new(4, NetworkModel::infiniband_100g())
            .with_straggler(StragglerModel::jitter(0.0, 42).with_slow_rank(3, 2.0)),
        solvers: vec![
            SolverSpec::NewtonAdmm(
                NewtonAdmmConfig::default()
                    .with_max_iters(2)
                    .with_lambda(1e-3)
                    .with_staleness_deadline(1e-3),
            ),
            SolverSpec::Giant(GiantConfig {
                max_iters: 2,
                lambda: 1e-3,
                ..Default::default()
            }),
            SolverSpec::InexactDane(DaneConfig {
                max_iters: 2,
                lambda: 1e-3,
                svrg_iters: 10,
                ..Default::default()
            }),
            SolverSpec::Aide(AideConfig {
                dane: DaneConfig {
                    max_iters: 2,
                    lambda: 1e-3,
                    svrg_iters: 10,
                    ..Default::default()
                },
                tau: 0.5,
                zeta: 0.5,
            }),
            SolverSpec::Disco(DiscoConfig {
                max_iters: 2,
                lambda: 1e-3,
                ..Default::default()
            }),
            SolverSpec::SyncSgdGrid {
                base: SyncSgdConfig {
                    epochs: 2,
                    lambda: 1e-3,
                    batch_size: 16,
                    ..Default::default()
                },
                grid: vec![1e-2, 0.5],
            },
        ],
    }
}

#[test]
fn golden_scenario_file_matches_the_schema_exactly() {
    let committed = include_str!("golden/scenario.json");
    // Parsing the committed file must reproduce the canonical value …
    let parsed = ScenarioSpec::from_json(committed).expect("golden file parses");
    assert_eq!(parsed, golden_scenario(), "golden file diverged from the canonical scenario");
    // … and serializing the canonical value must reproduce the committed
    // bytes (catches schema drift: renamed fields, reordered variants,
    // changed number formatting).
    assert_eq!(
        golden_scenario().to_json().expect("golden scenario is finite").trim(),
        committed.trim(),
        "JSON schema drifted — regenerate tests/golden/scenario.json if the change is intentional"
    );
}

#[test]
fn scenario_specs_round_trip() {
    round_trip(&golden_scenario());
}

/// Rewrites the golden file from the canonical scenario when
/// `NADMM_REGEN_GOLDEN=1` (for intentional schema changes); a no-op
/// otherwise.
#[test]
fn regenerate_golden_when_requested() {
    if std::env::var("NADMM_REGEN_GOLDEN").ok().as_deref() == Some("1") {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/scenario.json");
        std::fs::write(path, golden_scenario().to_json().expect("golden scenario is finite") + "\n").expect("golden file writes");
    }
}
