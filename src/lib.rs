//! # newton-admm-repro
//!
//! Umbrella crate of the Newton-ADMM reproduction workspace. It re-exports
//! the individual crates under short module names so the examples and the
//! workspace-level integration tests can use one import root:
//!
//! ```rust
//! use newton_admm_repro::prelude::*;
//!
//! let (train, _test) = SyntheticConfig::mnist_like()
//!     .with_train_size(60)
//!     .with_test_size(10)
//!     .with_num_features(8)
//!     .generate(0);
//! let (shards, _) = partition_strong(&train, 2);
//! let cfg = NewtonAdmmConfig::default().with_max_iters(3).with_lambda(1e-3);
//! let out = NewtonAdmm::new(cfg).run_reference(&shards, None);
//! assert!(out.history.final_objective().unwrap().is_finite());
//! ```

pub use nadmm_baselines as baselines;
pub use nadmm_cluster as cluster;
pub use nadmm_data as data;
pub use nadmm_device as device;
pub use nadmm_experiment as experiment;
pub use nadmm_linalg as linalg;
pub use nadmm_metrics as metrics;
pub use nadmm_objective as objective;
pub use nadmm_serve as serve;
pub use nadmm_solver as solver;
pub use nadmm_trace as trace;
pub use newton_admm as core;

/// Commonly used items for examples and quick experiments.
pub mod prelude {
    pub use nadmm_baselines::{
        AideConfig, DaneConfig, Disco, DiscoConfig, Giant, GiantConfig, InexactDane, SyncSgd, SyncSgdConfig,
    };
    pub use nadmm_cluster::{
        reserve_loopback_peers, Cluster, CollectiveAlgorithm, CollectiveKind, CollectiveSelector, CommStats, Communicator,
        Compression, NetworkModel, SlowRank, StragglerModel, TcpTransport, Transport, TransportKind, TransportSpec,
        TRANSPORT_ENV,
    };
    pub use nadmm_data::{partition_strong, partition_weak, Dataset, DatasetKind, SyntheticConfig};
    pub use nadmm_device::{Device, DeviceSpec, Workspace};
    pub use nadmm_experiment::{
        ClusterSpec, ConfigError, DataSpec, Experiment, ExperimentError, NonFiniteJsonError, PartitionSpec, RankSkew, RunReport,
        ScenarioSpec, Solver, SolverSpec,
    };
    pub use nadmm_metrics::{relative_objective, IterationRecord, RunHistory};
    pub use nadmm_objective::{BinaryLogistic, Objective, SoftmaxCrossEntropy};
    pub use nadmm_serve::{
        artifact_for_scenario, run_serve, scenario_fingerprint, ArrivalSpec, ArtifactError, BatchingSpec, InferenceSession,
        ModelArtifact, ModelRegistry, Provenance, ServeReport, ServeSpec, ServingScenario, TensorEncoding,
    };
    pub use nadmm_solver::{CgConfig, LineSearchConfig, NewtonCg, NewtonConfig};
    pub use nadmm_trace::{
        export_chrome_trace, trace_path_from_env, validate_chrome_value, ChromeStats, LaneTrace, TraceProfile, TRACE_ENV,
    };
    pub use newton_admm::{DropoutSpec, NewtonAdmm, NewtonAdmmConfig, PenaltyRule, SpectralConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_runs_a_tiny_problem() {
        let (train, _) = SyntheticConfig::higgs_like()
            .with_train_size(40)
            .with_test_size(10)
            .with_num_features(5)
            .generate(1);
        let obj = SoftmaxCrossEntropy::new(&train, 1e-3);
        let res = NewtonCg::new(NewtonConfig::default()).minimize(&obj, &vec![0.0; obj.dim()]);
        assert!(res.value.is_finite());
    }
}
