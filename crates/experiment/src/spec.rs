//! Declarative experiment specs: data, partitioning, cluster, and solvers.
//!
//! Every spec type serializes to JSON through the serde shims, so a whole
//! experiment — which dataset, how it is sharded, what cluster it runs on,
//! and which solver configurations to compare — can live in a committed
//! scenario file (see `scenarios/smoke.json`) and be executed by the
//! `scenario_runner` example.

use crate::solver::{Aide, Solver};
use nadmm_baselines::{AideConfig, DaneConfig, Disco, DiscoConfig, Giant, GiantConfig, InexactDane, SyncSgd, SyncSgdConfig};
use nadmm_cluster::{Cluster, CollectiveSelector, Compression, NetworkModel, StragglerModel, TransportSpec};
use nadmm_data::{read_libsvm, read_libsvm_pair, strong_range, Dataset, PartitionPlan, SyntheticConfig};
use nadmm_device::DeviceSpec;
use nadmm_solver::validate::{require_non_negative, require_nonzero, require_positive, ConfigError};
use newton_admm::{NewtonAdmm, NewtonAdmmConfig};
use serde::{Deserialize, Serialize};

/// Where an experiment's `(train, test)` datasets come from.
///
/// In-memory datasets are supported through
/// [`Experiment::with_data`](crate::Experiment::with_data) rather than a
/// spec variant: a materialized dataset has no canonical JSON form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DataSpec {
    /// Generate a synthetic dataset pair from a preset and a seed.
    Synthetic {
        /// The generator configuration (one of the paper's four analogues,
        /// possibly with overridden sizes).
        config: SyntheticConfig,
        /// RNG seed of the generator.
        seed: u64,
    },
    /// Read LIBSVM-format files from disk (the channel for the paper's real
    /// datasets when available).
    Libsvm {
        /// Path of the training file.
        train_path: String,
        /// Optional path of the test file.
        test_path: Option<String>,
    },
}

impl DataSpec {
    /// Short human-readable description of the source.
    pub fn describe(&self) -> String {
        match self {
            DataSpec::Synthetic { config, seed } => {
                format!("synthetic {} (seed {seed})", config.kind.paper_name())
            }
            DataSpec::Libsvm { train_path, .. } => format!("libsvm {train_path}"),
        }
    }

    /// Rejects empty sizes/paths, a single-class problem, and generator
    /// parameters that would yield all-zero or non-finite features before
    /// any generation or file IO happens.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            DataSpec::Synthetic { config, .. } => {
                require_nonzero("SyntheticConfig", "train_size", config.train_size)?;
                require_nonzero("SyntheticConfig", "num_features", config.num_features)?;
                if config.num_classes < 2 {
                    return Err(ConfigError::new(
                        "SyntheticConfig",
                        "num_classes",
                        format!("a classifier needs at least 2 classes, got {}", config.num_classes),
                    ));
                }
                if !(config.density > 0.0 && config.density <= 1.0) {
                    return Err(ConfigError::new(
                        "SyntheticConfig",
                        "density",
                        format!("must lie in (0, 1], got {}", config.density),
                    ));
                }
                if !(0.0..=1.0).contains(&config.label_noise) {
                    return Err(ConfigError::new(
                        "SyntheticConfig",
                        "label_noise",
                        format!("must lie in [0, 1], got {}", config.label_noise),
                    ));
                }
                require_non_negative("SyntheticConfig", "spectrum_decay", config.spectrum_decay)
            }
            DataSpec::Libsvm { train_path, .. } => {
                if train_path.is_empty() {
                    Err(ConfigError::new("DataSpec::Libsvm", "train_path", "must not be empty"))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Materializes the datasets. The test set is `None` when the spec does
    /// not define one (`test_size == 0` / no test path).
    pub fn load(&self) -> Result<(Dataset, Option<Dataset>), crate::ExperimentError> {
        match self {
            DataSpec::Synthetic { config, seed } => {
                let (train, test) = config.generate(*seed);
                let test = (config.test_size > 0).then_some(test);
                Ok((train, test))
            }
            DataSpec::Libsvm { train_path, test_path } => match test_path {
                // A paired load parses both splits under one shared schema
                // (dims = union of the two files, label map = the train
                // split), so the two always agree dimensionally — per-file
                // inference used to let a sparse test split come out with
                // fewer features or a different label mapping.
                Some(p) => {
                    let (train, test) =
                        read_libsvm_pair(train_path, p).map_err(|e| crate::ExperimentError::Data(e.to_string()))?;
                    Ok((train, Some(test)))
                }
                None => {
                    let train = read_libsvm(train_path).map_err(|e| crate::ExperimentError::Data(e.to_string()))?;
                    Ok((train, None))
                }
            },
        }
    }
}

/// How the training set is split across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionSpec {
    /// Strong scaling: the whole dataset split evenly across the ranks.
    Strong,
    /// Weak scaling: every rank gets exactly `per_worker` samples.
    Weak {
        /// Samples per rank.
        per_worker: usize,
    },
}

impl PartitionSpec {
    /// Cuts only `rank`'s shard of `data` split across `ranks`; a dataset too
    /// small for the requested layout is an error, not a panic.
    pub fn shard(&self, data: &Dataset, ranks: usize, rank: usize) -> Result<Dataset, crate::ExperimentError> {
        assert!(rank < ranks, "rank {rank} is not one of {ranks} ranks");
        let n = data.num_samples();
        let rows = match self {
            PartitionSpec::Strong => {
                if ranks > n {
                    return Err(crate::ExperimentError::Partition(format!(
                        "cannot split {n} samples across {ranks} ranks"
                    )));
                }
                strong_range(n, ranks, rank)
            }
            PartitionSpec::Weak { per_worker } => {
                if *per_worker == 0 {
                    return Err(crate::ExperimentError::Partition("per_worker must be at least 1".into()));
                }
                let needed = ranks.checked_mul(*per_worker).ok_or_else(|| {
                    crate::ExperimentError::Partition(format!(
                        "weak scaling with {ranks} ranks × {per_worker} samples/worker overflows usize"
                    ))
                })?;
                if needed > n {
                    return Err(crate::ExperimentError::Partition(format!(
                        "weak scaling needs {needed} samples but the dataset has {n}"
                    )));
                }
                rank * per_worker..(rank + 1) * per_worker
            }
        };
        Ok(data.slice(rows.start, rows.end))
    }

    /// Splits `data` into one shard per rank: [`PartitionSpec::shard`] for
    /// every rank, with the same errors.
    pub fn apply(&self, data: &Dataset, ranks: usize) -> Result<(Vec<Dataset>, PartitionPlan), crate::ExperimentError> {
        let shards = (0..ranks).map(|r| self.shard(data, ranks, r)).collect::<Result<Vec<_>, _>>()?;
        let mode = if *self == PartitionSpec::Strong { "strong" } else { "weak" };
        let plan = PartitionPlan::of(mode, &shards);
        Ok((shards, plan))
    }
}

/// The simulated cluster an experiment runs on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of ranks (workers).
    pub ranks: usize,
    /// Interconnect cost model.
    pub network: NetworkModel,
    /// Collective-algorithm selection rule (`Auto` = payload-size crossover).
    pub collectives: CollectiveSelector,
    /// Wire compression of collective payloads (`None` = full-width `f64`,
    /// bit-identical to the uncompressed communicator). Scenario files
    /// written before this field existed simply omit it and get `None`.
    pub compression: Compression,
    /// Optional cluster-wide accelerator override: when set, it replaces the
    /// `device` field of every solver configuration in the experiment, so a
    /// scenario file states its hardware exactly once.
    pub device: Option<DeviceSpec>,
    /// Optional *per-rank* accelerator overrides (one entry per rank, in
    /// rank order): a heterogeneous fleet mixing device generations. Mutually
    /// exclusive with `device`.
    pub rank_devices: Option<Vec<DeviceSpec>>,
    /// Optional deterministic straggler model: per-rank multiplicative
    /// compute slowdowns (seeded jitter and/or designated slow ranks).
    pub straggler: Option<StragglerModel>,
    /// Transport backend the cluster's collectives run over: the in-process
    /// thread fabric (default; pre-transport scenario files decode to it) or
    /// TCP sockets with per-rank peer addresses. Reports are byte-identical
    /// across backends — billing is model-driven, never wall-clock.
    pub transport: TransportSpec,
}

impl ClusterSpec {
    /// A `ranks`-node cluster over `network` with automatic collective
    /// selection, per-solver device settings, and homogeneous rank speeds.
    pub fn new(ranks: usize, network: NetworkModel) -> Self {
        Self {
            ranks,
            network,
            collectives: CollectiveSelector::Auto,
            compression: Compression::None,
            device: None,
            rank_devices: None,
            straggler: None,
            transport: TransportSpec::default(),
        }
    }

    /// Builder-style override of the collective-selection rule.
    pub fn with_collectives(mut self, selector: CollectiveSelector) -> Self {
        self.collectives = selector;
        self
    }

    /// Builder-style override of the collective wire compression.
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Builder-style cluster-wide accelerator override.
    pub fn with_device(mut self, device: DeviceSpec) -> Self {
        self.device = Some(device);
        self
    }

    /// Builder-style per-rank accelerator overrides (one entry per rank).
    pub fn with_rank_devices(mut self, devices: impl IntoIterator<Item = DeviceSpec>) -> Self {
        self.rank_devices = Some(devices.into_iter().collect());
        self
    }

    /// Builder-style straggler model.
    pub fn with_straggler(mut self, model: StragglerModel) -> Self {
        self.straggler = Some(model);
        self
    }

    /// Builder-style transport backend override.
    pub fn with_transport(mut self, transport: TransportSpec) -> Self {
        self.transport = transport;
        self
    }

    /// Rejects an empty cluster, a degenerate network model, malformed
    /// per-rank device lists, and invalid straggler models. An *infinite*
    /// bandwidth (the `ideal()` model) is valid for in-memory experiments,
    /// but note it has no JSON form — scenario files must use finite
    /// fabrics.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_nonzero("ClusterSpec", "ranks", self.ranks)?;
        if self.network.bandwidth.is_nan() || self.network.bandwidth <= 0.0 {
            return Err(ConfigError::new(
                "ClusterSpec",
                "network.bandwidth",
                format!("must be positive, got {}", self.network.bandwidth),
            ));
        }
        if !self.network.latency.is_finite() || self.network.latency < 0.0 {
            return Err(ConfigError::new(
                "ClusterSpec",
                "network.latency",
                format!("must be a non-negative finite number, got {}", self.network.latency),
            ));
        }
        if let Some(device) = &self.device {
            validate_device("ClusterSpec", device)?;
        }
        if let Some(devices) = &self.rank_devices {
            if self.device.is_some() {
                return Err(ConfigError::new(
                    "ClusterSpec",
                    "rank_devices",
                    "cannot combine a cluster-wide `device` override with per-rank `rank_devices`",
                ));
            }
            if devices.len() != self.ranks {
                return Err(ConfigError::new(
                    "ClusterSpec",
                    "rank_devices",
                    format!(
                        "need exactly one device per rank: got {} for {} ranks",
                        devices.len(),
                        self.ranks
                    ),
                ));
            }
            for device in devices {
                validate_device("ClusterSpec", device)?;
            }
        }
        if let Some(model) = &self.straggler {
            if let Err(msg) = model.validate(self.ranks) {
                return Err(ConfigError::new("ClusterSpec", "straggler", msg));
            }
        }
        if let Err(msg) = self.transport.validate(self.ranks) {
            return Err(ConfigError::new("ClusterSpec", "transport", msg));
        }
        Ok(())
    }

    /// Builds the simulated cluster (straggler model included).
    pub fn build(&self) -> Cluster {
        let cluster = Cluster::new(self.ranks, self.network)
            .with_collectives(self.collectives)
            .with_compression(self.compression);
        match &self.straggler {
            Some(model) => cluster.with_straggler(model),
            None => cluster,
        }
    }
}

impl Default for ClusterSpec {
    /// Four ranks on the paper's 100 Gbps Infiniband fabric.
    fn default() -> Self {
        Self::new(4, NetworkModel::infiniband_100g())
    }
}

/// Rejects degenerate accelerator models (negative/NaN latencies, zero
/// throughputs). Infinite *bandwidths* are permitted — `cpu_like()` models a
/// host executor with no PCIe hop — mirroring the network-model rule.
/// `DeviceSpec` lives below the validation layer, so the experiment crate
/// checks it wherever a spec can carry one (cluster override and every
/// solver config).
pub fn validate_device(config: &str, device: &DeviceSpec) -> Result<(), ConfigError> {
    let positive = [
        ("device.flops_per_sec", device.flops_per_sec),
        ("device.mem_bandwidth", device.mem_bandwidth),
        ("device.pcie_bandwidth", device.pcie_bandwidth),
    ];
    for (field, value) in positive {
        if value.is_nan() || value <= 0.0 {
            return Err(ConfigError::new(config, field, format!("must be positive, got {value}")));
        }
    }
    let latencies = [
        ("device.launch_latency", device.launch_latency),
        ("device.pcie_latency", device.pcie_latency),
    ];
    for (field, value) in latencies {
        if !value.is_finite() || value < 0.0 {
            return Err(ConfigError::new(
                config,
                field,
                format!("must be a non-negative finite number, got {value}"),
            ));
        }
    }
    Ok(())
}

/// A solver plus its full typed configuration — the unit an experiment
/// sweeps over. The AIDE acceleration and the SGD step-size grid search are
/// first-class variants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SolverSpec {
    /// The paper's method.
    NewtonAdmm(NewtonAdmmConfig),
    /// GIANT (Wang et al.).
    Giant(GiantConfig),
    /// InexactDANE (Reddi et al.).
    InexactDane(DaneConfig),
    /// AIDE: catalyst-accelerated InexactDANE.
    Aide(AideConfig),
    /// DiSCO (Zhang & Lin).
    Disco(DiscoConfig),
    /// Synchronous minibatch SGD with a fixed step size.
    SyncSgd(SyncSgdConfig),
    /// The paper's SGD protocol: grid-search the step size, report the best
    /// run by final objective.
    SyncSgdGrid {
        /// Configuration shared by every candidate (its `step_size` is
        /// replaced by each grid value in turn).
        base: SyncSgdConfig,
        /// Candidate step sizes.
        grid: Vec<f64>,
    },
}

impl SolverSpec {
    /// The solver's stable name (matches `RunHistory::solver`).
    pub fn name(&self) -> &'static str {
        match self {
            SolverSpec::NewtonAdmm(_) => "newton-admm",
            SolverSpec::Giant(_) => "giant",
            SolverSpec::InexactDane(_) => "inexact-dane",
            SolverSpec::Aide(_) => "aide",
            SolverSpec::Disco(_) => "disco",
            SolverSpec::SyncSgd(_) => "sync-sgd",
            SolverSpec::SyncSgdGrid { .. } => "sync-sgd",
        }
    }

    /// Validates the embedded configuration — including its device model —
    /// and, for the grid variant, the grid itself.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            SolverSpec::NewtonAdmm(c) => {
                c.validate()?;
                validate_device("NewtonAdmmConfig", &c.device)
            }
            SolverSpec::Giant(c) => {
                c.validate()?;
                validate_device("GiantConfig", &c.device)
            }
            SolverSpec::InexactDane(c) => {
                c.validate()?;
                validate_device("DaneConfig", &c.device)
            }
            SolverSpec::Aide(c) => {
                c.validate()?;
                validate_device("DaneConfig", &c.dane.device)
            }
            SolverSpec::Disco(c) => {
                c.validate()?;
                validate_device("DiscoConfig", &c.device)
            }
            SolverSpec::SyncSgd(c) => {
                c.validate()?;
                validate_device("SyncSgdConfig", &c.device)
            }
            SolverSpec::SyncSgdGrid { base, grid } => {
                base.validate()?;
                validate_device("SyncSgdConfig", &base.device)?;
                if grid.is_empty() {
                    return Err(ConfigError::new("SolverSpec::SyncSgdGrid", "grid", "must not be empty"));
                }
                for &step in grid {
                    require_positive("SolverSpec::SyncSgdGrid", "grid", step)?;
                }
                Ok(())
            }
        }
    }

    /// Replaces the embedded configuration's device with the cluster-wide
    /// override.
    pub fn with_device(&self, device: DeviceSpec) -> Self {
        let mut spec = self.clone();
        match &mut spec {
            SolverSpec::NewtonAdmm(c) => c.device = device,
            SolverSpec::Giant(c) => c.device = device,
            SolverSpec::InexactDane(c) => c.device = device,
            SolverSpec::Aide(c) => c.dane.device = device,
            SolverSpec::Disco(c) => c.device = device,
            SolverSpec::SyncSgd(c) => c.device = device,
            SolverSpec::SyncSgdGrid { base, .. } => base.device = device,
        }
        spec
    }

    /// Instantiates the solver behind the [`Solver`] trait. Returns `None`
    /// for [`SolverSpec::SyncSgdGrid`], which is not a single per-rank run —
    /// the experiment runner resolves it into one run per grid candidate.
    pub fn build(&self) -> Option<Box<dyn Solver>> {
        match self {
            SolverSpec::NewtonAdmm(c) => Some(Box::new(NewtonAdmm::new(*c))),
            SolverSpec::Giant(c) => Some(Box::new(Giant::new(*c))),
            SolverSpec::InexactDane(c) => Some(Box::new(InexactDane::new(*c))),
            SolverSpec::Aide(c) => Some(Box::new(Aide::new(*c))),
            SolverSpec::Disco(c) => Some(Box::new(Disco::new(*c))),
            SolverSpec::SyncSgd(c) => Some(Box::new(SyncSgd::new(*c))),
            SolverSpec::SyncSgdGrid { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_buildable_spec_names_itself_consistently() {
        let specs = [
            SolverSpec::NewtonAdmm(NewtonAdmmConfig::default()),
            SolverSpec::Giant(GiantConfig::default()),
            SolverSpec::InexactDane(DaneConfig::default()),
            SolverSpec::Aide(AideConfig::default()),
            SolverSpec::Disco(DiscoConfig::default()),
            SolverSpec::SyncSgd(SyncSgdConfig::default()),
        ];
        for spec in specs {
            spec.validate().unwrap();
            let solver = spec.build().unwrap();
            assert_eq!(solver.name(), spec.name());
        }
    }

    #[test]
    fn the_grid_variant_is_resolved_by_the_runner_not_build() {
        let spec = SolverSpec::SyncSgdGrid {
            base: SyncSgdConfig::default(),
            grid: vec![0.1, 1.0],
        };
        spec.validate().unwrap();
        assert!(spec.build().is_none());
        assert_eq!(spec.name(), "sync-sgd");
    }

    #[test]
    fn grid_validation_rejects_empty_and_nonpositive_grids() {
        let base = SyncSgdConfig::default();
        assert!(SolverSpec::SyncSgdGrid { base, grid: vec![] }.validate().is_err());
        assert!(SolverSpec::SyncSgdGrid {
            base,
            grid: vec![0.1, -1.0]
        }
        .validate()
        .is_err());
    }

    /// The field `validate` names for an E18-like spec after `edit`.
    fn rejected_synthetic_field(edit: impl FnOnce(&mut SyntheticConfig)) -> Option<String> {
        let mut config = SyntheticConfig::e18_like();
        edit(&mut config);
        let spec = DataSpec::Synthetic { config, seed: 42 };
        spec.validate().err().map(|e| {
            assert_eq!(e.config, "SyntheticConfig");
            e.field
        })
    }

    #[test]
    fn a_density_outside_the_unit_interval_is_rejected() {
        for density in [0.0, -0.5, 1.5, f64::NAN] {
            assert_eq!(
                rejected_synthetic_field(|c| c.density = density).as_deref(),
                Some("density"),
                "density {density}"
            );
        }
        for density in [1e-3, 0.05, 1.0] {
            assert_eq!(rejected_synthetic_field(|c| c.density = density), None, "density {density}");
        }
    }

    #[test]
    fn a_label_noise_outside_the_unit_interval_is_rejected() {
        for noise in [-0.1, 1.1, f64::NAN] {
            assert_eq!(
                rejected_synthetic_field(|c| c.label_noise = noise).as_deref(),
                Some("label_noise"),
                "label_noise {noise}"
            );
        }
        for noise in [0.0, 0.05, 1.0] {
            assert_eq!(
                rejected_synthetic_field(|c| c.label_noise = noise),
                None,
                "label_noise {noise}"
            );
        }
    }

    #[test]
    fn a_negative_spectrum_decay_is_rejected() {
        for decay in [-10.0, -1e-9, f64::NAN, f64::INFINITY] {
            assert_eq!(
                rejected_synthetic_field(|c| c.spectrum_decay = decay).as_deref(),
                Some("spectrum_decay"),
                "spectrum_decay {decay}"
            );
        }
        for decay in [0.0, 0.002] {
            assert_eq!(
                rejected_synthetic_field(|c| c.spectrum_decay = decay),
                None,
                "spectrum_decay {decay}"
            );
        }
    }

    #[test]
    fn cluster_spec_builds_a_matching_cluster() {
        let spec = ClusterSpec::new(3, NetworkModel::ethernet_10g())
            .with_collectives(CollectiveSelector::Force(nadmm_cluster::CollectiveAlgorithm::Ring))
            .with_compression(Compression::F16);
        spec.validate().unwrap();
        let cluster = spec.build();
        assert_eq!(cluster.size(), 3);
        assert_eq!(cluster.network(), NetworkModel::ethernet_10g());
        assert_eq!(
            cluster.selector(),
            CollectiveSelector::Force(nadmm_cluster::CollectiveAlgorithm::Ring)
        );
        assert_eq!(cluster.compression(), Compression::F16);
        // The default spec stays on the bit-identical uncompressed path.
        assert_eq!(ClusterSpec::default().compression, Compression::None);
        assert_eq!(ClusterSpec::default().build().compression(), Compression::None);
    }

    #[test]
    fn cluster_device_override_rewrites_every_variant() {
        let slow = DeviceSpec::cpu_like();
        for spec in [
            SolverSpec::NewtonAdmm(NewtonAdmmConfig::default()),
            SolverSpec::Giant(GiantConfig::default()),
            SolverSpec::InexactDane(DaneConfig::default()),
            SolverSpec::Aide(AideConfig::default()),
            SolverSpec::Disco(DiscoConfig::default()),
            SolverSpec::SyncSgd(SyncSgdConfig::default()),
            SolverSpec::SyncSgdGrid {
                base: SyncSgdConfig::default(),
                grid: vec![0.1],
            },
        ] {
            let overridden = spec.with_device(slow);
            let device = match &overridden {
                SolverSpec::NewtonAdmm(c) => c.device,
                SolverSpec::Giant(c) => c.device,
                SolverSpec::InexactDane(c) => c.device,
                SolverSpec::Aide(c) => c.dane.device,
                SolverSpec::Disco(c) => c.device,
                SolverSpec::SyncSgd(c) => c.device,
                SolverSpec::SyncSgdGrid { base, .. } => base.device,
            };
            assert_eq!(device, slow);
        }
    }

    #[test]
    fn degenerate_device_models_are_rejected_before_running() {
        let bad_latency = DeviceSpec {
            launch_latency: -1e-3,
            ..DeviceSpec::tesla_p100()
        };
        let err = SolverSpec::NewtonAdmm(NewtonAdmmConfig {
            device: bad_latency,
            ..Default::default()
        })
        .validate()
        .unwrap_err();
        assert_eq!(err.field, "device.launch_latency");

        let nan_flops = DeviceSpec {
            flops_per_sec: f64::NAN,
            ..DeviceSpec::tesla_p100()
        };
        let err = ClusterSpec::default().with_device(nan_flops).validate().unwrap_err();
        assert_eq!(err.field, "device.flops_per_sec");

        // The infinite-PCIe host model stays valid (mirrors ideal networks).
        validate_device("test", &DeviceSpec::cpu_like()).unwrap();
    }

    #[test]
    fn heterogeneous_cluster_specs_validate_and_build() {
        let spec = ClusterSpec::new(2, NetworkModel::infiniband_100g())
            .with_rank_devices([DeviceSpec::tesla_p100(), DeviceSpec::tesla_v100()])
            .with_straggler(StragglerModel::jitter(0.2, 5).with_slow_rank(1, 4.0));
        spec.validate().unwrap();
        let cluster = spec.build();
        assert_eq!(cluster.rank_scale(0), StragglerModel::jitter(0.2, 5).scale_for(0));
        assert!(cluster.rank_scale(1) >= 4.0);

        // One device per rank, exactly.
        let bad = ClusterSpec::new(3, NetworkModel::infiniband_100g()).with_rank_devices([DeviceSpec::tesla_p100()]);
        assert_eq!(bad.validate().unwrap_err().field, "rank_devices");
        // Per-rank and cluster-wide overrides are mutually exclusive.
        let bad = ClusterSpec::new(1, NetworkModel::infiniband_100g())
            .with_device(DeviceSpec::tesla_p100())
            .with_rank_devices([DeviceSpec::tesla_v100()]);
        assert_eq!(bad.validate().unwrap_err().field, "rank_devices");
        // Degenerate per-rank devices are caught like every other device.
        let bad = ClusterSpec::new(1, NetworkModel::infiniband_100g()).with_rank_devices([DeviceSpec {
            flops_per_sec: f64::NAN,
            ..DeviceSpec::tesla_p100()
        }]);
        assert_eq!(bad.validate().unwrap_err().field, "device.flops_per_sec");
        // Straggler models are validated against the rank count.
        let bad =
            ClusterSpec::new(2, NetworkModel::infiniband_100g()).with_straggler(StragglerModel::none().with_slow_rank(7, 2.0));
        assert_eq!(bad.validate().unwrap_err().field, "straggler");
    }

    #[test]
    fn transport_specs_round_trip_and_validate_against_the_rank_count() {
        use serde::{Deserialize, Serialize};
        // TCP with one peer address per rank round-trips through the value
        // form scenario files serialize to.
        let spec = ClusterSpec::new(2, NetworkModel::infiniband_100g()).with_transport(TransportSpec::Tcp {
            peers: vec!["127.0.0.1:7001".into(), "127.0.0.1:7002".into()],
        });
        spec.validate().unwrap();
        let back = ClusterSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back, spec);
        // Pre-transport scenario files simply omit the field and decode to
        // the thread fabric.
        let legacy = ClusterSpec::default();
        let mut value = legacy.to_value();
        if let serde::Value::Map(fields) = &mut value {
            fields.retain(|(k, _)| k != "transport");
        } else {
            panic!("ClusterSpec must serialize to a map");
        }
        let decoded = ClusterSpec::from_value(&value).unwrap();
        assert_eq!(decoded.transport, TransportSpec::Thread);
        assert_eq!(decoded, legacy);
        // Peer-list arity must match the rank count.
        let bad = ClusterSpec::new(3, NetworkModel::infiniband_100g()).with_transport(TransportSpec::Tcp {
            peers: vec!["127.0.0.1:7001".into()],
        });
        assert_eq!(bad.validate().unwrap_err().field, "transport");
        // Addresses without a port are rejected before any socket opens.
        let bad = ClusterSpec::new(1, NetworkModel::infiniband_100g()).with_transport(TransportSpec::Tcp {
            peers: vec!["localhost".into()],
        });
        assert_eq!(bad.validate().unwrap_err().field, "transport");
    }

    #[test]
    fn partition_spec_errors_instead_of_panicking() {
        let (train, _) = SyntheticConfig::mnist_like()
            .with_train_size(10)
            .with_test_size(2)
            .with_num_features(4)
            .generate(1);
        assert!(PartitionSpec::Strong.apply(&train, 11).is_err());
        assert!(PartitionSpec::Weak { per_worker: 6 }.apply(&train, 2).is_err());
        assert!(PartitionSpec::Weak { per_worker: 0 }.apply(&train, 2).is_err());
        let (shards, plan) = PartitionSpec::Weak { per_worker: 5 }.apply(&train, 2).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(plan.total_samples(), 10);
    }

    #[test]
    fn one_rank_shards_equal_the_whole_partition_and_fail_the_same_way() {
        let (train, _) = SyntheticConfig::mnist_like()
            .with_train_size(23)
            .with_test_size(0)
            .with_num_features(4)
            .generate(1);
        for ranks in 1..=5 {
            for spec in [PartitionSpec::Strong, PartitionSpec::Weak { per_worker: 4 }] {
                let (shards, plan) = spec.apply(&train, ranks).unwrap();
                assert_eq!(plan.num_workers, ranks);
                assert_eq!(plan.mode, if spec == PartitionSpec::Strong { "strong" } else { "weak" });
                for (r, whole) in shards.iter().enumerate() {
                    let one = spec.shard(&train, ranks, r).unwrap();
                    assert_eq!(one.features(), whole.features());
                    assert_eq!(one.labels(), whole.labels());
                    assert_eq!(one.name(), whole.name());
                    assert_eq!(plan.samples_per_worker[r], one.num_samples());
                }
            }
            // The row ranges are `nadmm_data`'s.
            let (reference, reference_plan) = nadmm_data::partition_strong(&train, ranks);
            let (shards, plan) = PartitionSpec::Strong.apply(&train, ranks).unwrap();
            assert_eq!(plan, reference_plan);
            for (a, b) in shards.iter().zip(&reference) {
                assert_eq!((a.features(), a.name()), (b.features(), b.name()));
            }
        }
        let weak = PartitionSpec::Weak { per_worker: 4 };
        assert_eq!(weak.apply(&train, 3).unwrap().1, nadmm_data::partition_weak(&train, 3, 4).1);
        let huge = PartitionSpec::Weak {
            per_worker: usize::MAX / 2,
        };
        for (spec, ranks) in [
            (PartitionSpec::Strong, 24),
            (PartitionSpec::Weak { per_worker: 6 }, 4),
            (PartitionSpec::Weak { per_worker: 0 }, 2),
            (huge, 3),
        ] {
            let whole = spec.apply(&train, ranks).unwrap_err();
            assert!(matches!(whole, crate::ExperimentError::Partition(_)));
            for r in 0..ranks {
                assert_eq!(spec.shard(&train, ranks, r).unwrap_err(), whole);
            }
        }
        let err = PartitionSpec::Strong.shard(&train, 24, 23).unwrap_err();
        assert_eq!(
            err.to_string(),
            "partitioning failed: cannot split 23 samples across 24 ranks"
        );
    }

    #[test]
    fn synthetic_data_spec_loads_and_honours_zero_test_size() {
        let spec = DataSpec::Synthetic {
            config: SyntheticConfig::higgs_like()
                .with_train_size(30)
                .with_test_size(0)
                .with_num_features(4),
            seed: 3,
        };
        spec.validate().unwrap();
        let (train, test) = spec.load().unwrap();
        assert_eq!(train.num_samples(), 30);
        assert!(test.is_none());
    }

    #[test]
    fn weak_partition_overflow_is_an_error_not_a_wrap() {
        let (train, _) = SyntheticConfig::mnist_like()
            .with_train_size(10)
            .with_test_size(0)
            .with_num_features(4)
            .generate(1);
        let err = PartitionSpec::Weak {
            per_worker: usize::MAX / 2,
        }
        .apply(&train, 3)
        .unwrap_err();
        assert!(format!("{err}").contains("overflows"), "{err}");
    }

    #[test]
    fn libsvm_pair_specs_load_with_a_shared_schema() {
        let dir = std::env::temp_dir();
        let train_path = dir.join("nadmm_spec_pair_train.svm");
        let test_path = dir.join("nadmm_spec_pair_test.svm");
        // The test split misses feature 4 and labels 1 and 2.
        std::fs::write(&train_path, "1 1:0.5 4:1.0\n2 2:2.0\n3 3:0.25\n").unwrap();
        std::fs::write(&test_path, "3 1:1.0\n3 2:0.5\n").unwrap();
        let spec = DataSpec::Libsvm {
            train_path: train_path.to_string_lossy().into_owned(),
            test_path: Some(test_path.to_string_lossy().into_owned()),
        };
        let (train, test) = spec.load().unwrap();
        let test = test.unwrap();
        assert_eq!(train.num_features(), test.num_features());
        assert_eq!(train.num_classes(), test.num_classes());
        assert_eq!(test.labels(), &[2, 2]);
        std::fs::remove_file(&train_path).ok();
        std::fs::remove_file(&test_path).ok();
    }

    #[test]
    fn libsvm_data_spec_surfaces_io_errors() {
        let spec = DataSpec::Libsvm {
            train_path: "/nonexistent/file.svm".into(),
            test_path: None,
        };
        assert!(spec.load().is_err());
    }
}
