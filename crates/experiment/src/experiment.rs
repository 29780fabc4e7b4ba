//! The [`Experiment`] builder: declaratively compose data, partitioning,
//! cluster, and solvers, then run everything through one code path.

use crate::report::{RankSkew, RunReport};
use crate::solver::{run_rank_solvers_on, run_solver_on, Solver};
use crate::spec::{ClusterSpec, DataSpec, PartitionSpec, SolverSpec};
use nadmm_baselines::SyncSgdConfig;
use nadmm_cluster::{Cluster, Communicator, Transport};
use nadmm_data::Dataset;
use nadmm_device::DeviceSpec;
use nadmm_solver::ConfigError;

/// Why an experiment could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// A solver/cluster/data configuration failed validation.
    Config(ConfigError),
    /// The data source could not be materialized (IO/parse failure).
    Data(String),
    /// The dataset cannot be partitioned as requested.
    Partition(String),
    /// The experiment has no solvers to run.
    NoSolvers,
    /// Every candidate of an SGD step-size grid diverged.
    GridDiverged,
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Config(e) => write!(f, "{e}"),
            ExperimentError::Data(msg) => write!(f, "data source failed: {msg}"),
            ExperimentError::Partition(msg) => write!(f, "partitioning failed: {msg}"),
            ExperimentError::NoSolvers => write!(f, "experiment has no solvers"),
            ExperimentError::GridDiverged => {
                write!(f, "no SGD grid candidate produced a finite objective")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<ConfigError> for ExperimentError {
    fn from(e: ConfigError) -> Self {
        ExperimentError::Config(e)
    }
}

/// The experiment's data source: a declarative spec or materialized
/// in-memory datasets.
#[derive(Debug, Clone)]
enum DataSource {
    Spec(DataSpec),
    InMemory { train: Dataset, test: Option<Dataset> },
}

/// A declarative experiment: one dataset, one partitioning, one cluster,
/// and any number of solvers to run on it.
///
/// ```
/// use nadmm_experiment::{ClusterSpec, DataSpec, Experiment, PartitionSpec, SolverSpec};
/// use nadmm_cluster::NetworkModel;
/// use nadmm_data::SyntheticConfig;
/// use newton_admm::NewtonAdmmConfig;
///
/// let reports = Experiment::new()
///     .with_data_spec(DataSpec::Synthetic {
///         config: SyntheticConfig::mnist_like()
///             .with_train_size(80)
///             .with_test_size(20)
///             .with_num_features(8),
///         seed: 1,
///     })
///     .with_partition(PartitionSpec::Strong)
///     .with_cluster(ClusterSpec::new(2, NetworkModel::infiniband_100g()))
///     .with_solver(SolverSpec::NewtonAdmm(
///         NewtonAdmmConfig::default().with_max_iters(2).with_lambda(1e-3),
///     ))
///     .run()
///     .unwrap();
/// assert_eq!(reports.len(), 1);
/// assert!(reports[0].final_objective.unwrap().is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    data: Option<DataSource>,
    partition: PartitionSpec,
    cluster: ClusterSpec,
    solvers: Vec<SolverSpec>,
}

impl Experiment {
    /// An empty experiment: strong partitioning on the default 4-rank
    /// Infiniband cluster, no data, no solvers.
    pub fn new() -> Self {
        Self {
            data: None,
            partition: PartitionSpec::Strong,
            cluster: ClusterSpec::default(),
            solvers: Vec::new(),
        }
    }

    /// Sets a declarative data source (synthetic preset or LIBSVM paths).
    pub fn with_data_spec(mut self, spec: DataSpec) -> Self {
        self.data = Some(DataSource::Spec(spec));
        self
    }

    /// Sets materialized in-memory datasets (no JSON form; scenario files
    /// must use [`Experiment::with_data_spec`] sources instead).
    pub fn with_data(mut self, train: Dataset, test: Option<Dataset>) -> Self {
        self.data = Some(DataSource::InMemory { train, test });
        self
    }

    /// Sets the partitioning rule (strong by default).
    pub fn with_partition(mut self, partition: PartitionSpec) -> Self {
        self.partition = partition;
        self
    }

    /// Sets the cluster spec (4 ranks on Infiniband by default).
    pub fn with_cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = cluster;
        self
    }

    /// Appends one solver to the run list.
    pub fn with_solver(mut self, solver: SolverSpec) -> Self {
        self.solvers.push(solver);
        self
    }

    /// Appends several solvers to the run list.
    pub fn with_solvers(mut self, solvers: impl IntoIterator<Item = SolverSpec>) -> Self {
        self.solvers.extend(solvers);
        self
    }

    /// The solvers queued so far.
    pub fn solvers(&self) -> &[SolverSpec] {
        &self.solvers
    }

    /// Validates every spec without materializing data or spawning ranks.
    pub fn validate(&self) -> Result<(), ExperimentError> {
        if self.solvers.is_empty() {
            return Err(ExperimentError::NoSolvers);
        }
        self.cluster.validate()?;
        if let Some(DataSource::Spec(spec)) = &self.data {
            spec.validate()?;
        }
        for solver in &self.solvers {
            solver.validate()?;
            // Cross-spec check only the experiment can do: fault injection
            // must name a rank that exists on this cluster.
            if let SolverSpec::NewtonAdmm(c) = solver {
                if let Some(dropout) = c.dropout {
                    if dropout.rank >= self.cluster.ranks {
                        return Err(ConfigError::new(
                            "NewtonAdmmConfig",
                            "dropout.rank",
                            format!(
                                "names rank {} but the cluster has only {} ranks",
                                dropout.rank, self.cluster.ranks
                            ),
                        )
                        .into());
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs every solver on the shared problem instance and returns one
    /// report per solver, in the order they were added.
    ///
    /// The pipeline is: validate all specs → materialize the data →
    /// partition into one shard per rank → spawn the simulated cluster once
    /// per solver run. A grid spec contributes one *report* (its best
    /// candidate) but runs the cluster once per candidate.
    pub fn run(&self) -> Result<Vec<RunReport>, ExperimentError> {
        self.validate()?;
        let loaded;
        let (train, test): (&Dataset, Option<&Dataset>) = match &self.data {
            None => return Err(ExperimentError::Data("no data source configured".into())),
            Some(DataSource::InMemory { train, test }) => (train, test.as_ref()),
            Some(DataSource::Spec(spec)) => {
                loaded = spec.load()?;
                (&loaded.0, loaded.1.as_ref())
            }
        };
        let (shards, _plan) = self.partition.apply(train, self.cluster.ranks)?;
        let cluster = self.cluster.build();
        let rank_devices = self.cluster.rank_devices.as_deref();
        let mut reports = Vec::with_capacity(self.solvers.len());
        for spec in &self.solvers {
            let spec = match self.cluster.device {
                Some(device) => spec.with_device(device),
                None => spec.clone(),
            };
            reports.push(run_spec_on(&cluster, &spec, &shards, test, rank_devices)?);
        }
        Ok(reports)
    }

    /// Runs every solver with this process acting as **one rank** of a
    /// cluster connected over `transport` (e.g. TCP sockets to peer
    /// processes started by the launcher). Every rank loads the same data
    /// identically and cuts only its own shard of it; collectives run
    /// over the transport against the same simulated cost models as
    /// [`Experiment::run`], so the reports are byte-identical to the
    /// thread-backed ones. Returns `Some(reports)` on rank 0 — the rank
    /// that gathers every peer's communication counters for the skew
    /// summary — and `None` on every other rank.
    pub fn run_with_transport(&self, mut transport: Box<dyn Transport>) -> Result<Option<Vec<RunReport>>, ExperimentError> {
        self.validate()?;
        if transport.size() != self.cluster.ranks {
            return Err(ConfigError::new(
                "ClusterSpec",
                "transport",
                format!(
                    "connects {} ranks but the cluster declares {}",
                    transport.size(),
                    self.cluster.ranks
                ),
            )
            .into());
        }
        let loaded;
        let (train, test): (&Dataset, Option<&Dataset>) = match &self.data {
            None => return Err(ExperimentError::Data("no data source configured".into())),
            Some(DataSource::InMemory { train, test }) => (train, test.as_ref()),
            Some(DataSource::Spec(spec)) => {
                loaded = spec.load()?;
                (&loaded.0, loaded.1.as_ref())
            }
        };
        let rank = transport.rank();
        let shard = &self.partition.shard(train, self.cluster.ranks, rank)?;
        let cluster = self.cluster.build();
        let rank_devices = self.cluster.rank_devices.as_deref();
        let root = rank == 0;
        let mut reports = Vec::with_capacity(self.solvers.len());
        for spec in &self.solvers {
            let spec = match self.cluster.device {
                Some(device) => spec.with_device(device),
                None => spec.clone(),
            };
            let (report, reclaimed) = run_spec_over(&cluster, &spec, shard, test, rank_devices, transport)?;
            transport = reclaimed;
            if root {
                reports.push(report.expect("rank 0 gathers every report"));
            }
        }
        Ok(root.then_some(reports))
    }
}

impl Default for Experiment {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs one solver spec on a cluster: a single run for ordinary specs, one
/// run per candidate (keeping the best by final objective) for the SGD grid.
/// With `rank_devices` set, every run instantiates one solver per rank so
/// rank `i` computes on `rank_devices[i]` (a heterogeneous fleet).
pub fn run_spec_on(
    cluster: &Cluster,
    spec: &SolverSpec,
    shards: &[Dataset],
    test: Option<&Dataset>,
    rank_devices: Option<&[DeviceSpec]>,
) -> Result<RunReport, ExperimentError> {
    let run_one = |spec: &SolverSpec| -> RunReport {
        match rank_devices {
            None => {
                let solver = spec.build().expect("every non-grid spec builds a solver");
                run_solver_on(cluster, solver.as_ref(), shards, test)
            }
            Some(devices) => {
                let solvers: Vec<Box<dyn Solver>> = devices
                    .iter()
                    .map(|d| spec.with_device(*d).build().expect("every non-grid spec builds a solver"))
                    .collect();
                run_rank_solvers_on(cluster, &solvers, shards, test)
            }
        }
    };
    match spec {
        SolverSpec::SyncSgdGrid { base, grid } => {
            best_of_grid(base, grid, |candidate| Some(run_one(candidate))).ok_or(ExperimentError::GridDiverged)
        }
        other => Ok(run_one(other)),
    }
}

/// The paper's SGD protocol, shared by [`run_spec_on`] and [`run_spec_over`]:
/// runs one `SyncSgd` candidate per grid step, in grid order, and keeps the
/// first report whose final objective is finite and strictly below every
/// earlier one's. `run` returns `None` on ranks that hold no report; `None`
/// overall means no candidate held a finite objective.
fn best_of_grid(base: &SyncSgdConfig, grid: &[f64], mut run: impl FnMut(&SolverSpec) -> Option<RunReport>) -> Option<RunReport> {
    let mut best: Option<RunReport> = None;
    for &step in grid {
        let candidate = SolverSpec::SyncSgd(SyncSgdConfig {
            step_size: step,
            ..*base
        });
        let Some(report) = run(&candidate) else {
            continue;
        };
        let objective = report.final_objective.unwrap_or(f64::INFINITY);
        let is_better = best
            .as_ref()
            .and_then(|b| b.final_objective)
            .map(|b| objective < b)
            .unwrap_or(true);
        if objective.is_finite() && is_better {
            best = Some(report);
        }
    }
    best
}

/// One-rank counterpart of [`run_spec_on`]: runs one solver spec over an
/// external transport, reclaiming the transport between candidate runs so a
/// single connection serves the whole experiment. Rank 0 receives every
/// peer's communication counters through the transport's stats side channel
/// and annotates its own report with the fleet's [`RankSkew`] — exactly the
/// scaffolding [`run_solver_on`] applies to thread-backed runs. Returns
/// `(Some(report), transport)` on rank 0 and `(None, transport)` elsewhere.
pub fn run_spec_over(
    cluster: &Cluster,
    spec: &SolverSpec,
    shard: &Dataset,
    test: Option<&Dataset>,
    rank_devices: Option<&[DeviceSpec]>,
    transport: Box<dyn Transport>,
) -> Result<(Option<RunReport>, Box<dyn Transport>), ExperimentError> {
    match spec {
        SolverSpec::SyncSgdGrid { base, grid } => {
            // Every rank runs every candidate (the collectives need the
            // whole fleet), but only rank 0 holds reports to select among.
            let root = transport.rank() == 0;
            let mut slot = Some(transport);
            let best = best_of_grid(base, grid, |candidate| {
                let transport = slot.take().expect("each candidate hands the transport back");
                let (report, back) = run_candidate_over(cluster, candidate, shard, test, rank_devices, transport);
                slot = Some(back);
                report
            });
            let reclaimed = slot.expect("each candidate hands the transport back");
            if root {
                Ok((Some(best.ok_or(ExperimentError::GridDiverged)?), reclaimed))
            } else {
                Ok((None, reclaimed))
            }
        }
        other => Ok(run_candidate_over(cluster, other, shard, test, rank_devices, transport)),
    }
}

/// Runs one non-grid candidate over the transport: connect a fresh
/// communicator (fresh clocks and counters, like each `run_sharded` spawn),
/// run the solver, gather the fleet's counters at rank 0, and hand the
/// transport back for the next run.
fn run_candidate_over(
    cluster: &Cluster,
    spec: &SolverSpec,
    shard: &Dataset,
    test: Option<&Dataset>,
    rank_devices: Option<&[DeviceSpec]>,
    transport: Box<dyn Transport>,
) -> (Option<RunReport>, Box<dyn Transport>) {
    let mut comm = cluster.connect(transport);
    let solver = match rank_devices {
        None => spec.build().expect("every non-grid spec builds a solver"),
        Some(devices) => spec
            .with_device(devices[comm.rank()])
            .build()
            .expect("every non-grid spec builds a solver"),
    };
    let report = solver.run(&mut comm, shard, test);
    let gathered = comm.gather_comm_stats();
    let transport = comm.into_transport();
    let master = gathered.map(|stats| {
        let mut master = report;
        master.rank_skew = Some(RankSkew::from_rank_stats(&stats));
        master
    });
    (master, transport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadmm_cluster::NetworkModel;
    use nadmm_data::SyntheticConfig;
    use newton_admm::NewtonAdmmConfig;

    fn tiny_data_spec() -> DataSpec {
        DataSpec::Synthetic {
            config: SyntheticConfig::mnist_like()
                .with_train_size(60)
                .with_test_size(20)
                .with_num_features(6)
                .with_num_classes(3),
            seed: 7,
        }
    }

    #[test]
    fn an_experiment_runs_multiple_solvers_in_order() {
        let reports = Experiment::new()
            .with_data_spec(tiny_data_spec())
            .with_cluster(ClusterSpec::new(2, NetworkModel::ideal()))
            .with_solver(SolverSpec::NewtonAdmm(
                NewtonAdmmConfig::default().with_max_iters(2).with_lambda(1e-3),
            ))
            .with_solver(SolverSpec::Giant(nadmm_baselines::GiantConfig {
                max_iters: 2,
                lambda: 1e-3,
                ..Default::default()
            }))
            .run()
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].solver, "newton-admm");
        assert_eq!(reports[1].solver, "giant");
        for r in &reports {
            r.validate_schema().unwrap();
            assert_eq!(r.num_workers, 2);
            assert!(r.final_accuracy.is_some(), "test set must flow into instrumentation");
        }
    }

    #[test]
    fn validation_happens_before_any_rank_spawns() {
        let err = Experiment::new()
            .with_data_spec(tiny_data_spec())
            .with_solver(SolverSpec::NewtonAdmm(NewtonAdmmConfig {
                rho0: 0.0,
                ..Default::default()
            }))
            .run()
            .unwrap_err();
        match err {
            ExperimentError::Config(e) => assert_eq!(e.field, "rho0"),
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn missing_pieces_are_reported() {
        assert_eq!(Experiment::new().run().unwrap_err(), ExperimentError::NoSolvers);
        let err = Experiment::new()
            .with_solver(SolverSpec::NewtonAdmm(NewtonAdmmConfig::default()))
            .run()
            .unwrap_err();
        assert!(matches!(err, ExperimentError::Data(_)));
    }

    #[test]
    fn partition_errors_surface_instead_of_panicking() {
        let err = Experiment::new()
            .with_data_spec(tiny_data_spec())
            .with_cluster(ClusterSpec::new(61, NetworkModel::ideal()))
            .with_solver(SolverSpec::NewtonAdmm(
                NewtonAdmmConfig::default().with_max_iters(1).with_lambda(1e-3),
            ))
            .run()
            .unwrap_err();
        assert!(matches!(err, ExperimentError::Partition(_)));
    }

    #[test]
    fn the_grid_spec_reports_its_best_candidate() {
        let base = SyncSgdConfig {
            epochs: 3,
            lambda: 1e-3,
            batch_size: 10,
            ..Default::default()
        };
        let reports = Experiment::new()
            .with_data_spec(tiny_data_spec())
            .with_cluster(ClusterSpec::new(2, NetworkModel::ideal()))
            .with_solver(SolverSpec::SyncSgdGrid {
                base,
                grid: vec![1e-7, 0.5],
            })
            .run()
            .unwrap();
        assert_eq!(reports.len(), 1, "a grid contributes one report");
        let grid_best = reports[0].final_objective.unwrap();
        // The tiny step barely moves; the grid must have picked the better one.
        let tiny = Experiment::new()
            .with_data_spec(tiny_data_spec())
            .with_cluster(ClusterSpec::new(2, NetworkModel::ideal()))
            .with_solver(SolverSpec::SyncSgd(SyncSgdConfig { step_size: 1e-7, ..base }))
            .run()
            .unwrap();
        assert!(grid_best <= tiny[0].final_objective.unwrap() + 1e-12);
    }

    /// Newton-ADMM that first notes, per rank, the address of the first
    /// feature value of the shard it was handed.
    struct ShardProbe {
        inner: newton_admm::NewtonAdmm,
        first_values: std::sync::Mutex<Vec<(usize, usize)>>,
    }

    impl Solver for ShardProbe {
        fn name(&self) -> &str {
            Solver::name(&self.inner)
        }

        fn validate(&self) -> Result<(), ConfigError> {
            Solver::validate(&self.inner)
        }

        fn run(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> RunReport {
            let nadmm_linalg::Matrix::Dense(x) = shard.features() else {
                panic!("expected dense features")
            };
            let first = x.as_slice().as_ptr() as usize;
            self.first_values.lock().unwrap().push((comm.rank(), first));
            self.inner.run(comm, shard, test)
        }
    }

    #[test]
    fn every_rank_of_a_two_rank_run_reads_its_shard_from_the_train_buffer() {
        let (train, test) = tiny_data_spec().load().unwrap();
        let nadmm_linalg::Matrix::Dense(x) = train.features() else {
            panic!("expected dense features")
        };
        let row_address = |row: usize| x.row(row).as_ptr() as usize;
        let probe = ShardProbe {
            inner: newton_admm::NewtonAdmm::new(NewtonAdmmConfig::default().with_max_iters(1).with_lambda(1e-3)),
            first_values: std::sync::Mutex::new(Vec::new()),
        };
        // The two steps of `Experiment::run`: cut the shards, then hand one
        // to each rank.
        let (shards, _) = PartitionSpec::Strong.apply(&train, 2).unwrap();
        let report = run_solver_on(
            &ClusterSpec::new(2, NetworkModel::ideal()).build(),
            &probe,
            &shards,
            test.as_ref(),
        );
        assert!(report.final_objective.unwrap().is_finite());
        let mut seen = probe.first_values.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, row_address(0)), (1, row_address(30))]);
        // `run_with_transport` cuts only its own rank's shard: a view too.
        for rank in 0..2 {
            let shard = PartitionSpec::Weak { per_worker: 20 }.shard(&train, 2, rank).unwrap();
            let nadmm_linalg::Matrix::Dense(s) = shard.features() else {
                panic!("expected dense features")
            };
            assert_eq!(s.as_slice().as_ptr() as usize, row_address(20 * rank));
        }
    }

    #[test]
    fn per_rank_devices_make_the_fleet_heterogeneous() {
        use nadmm_device::DeviceSpec;
        let cfg = NewtonAdmmConfig::default().with_max_iters(2).with_lambda(1e-3);
        let run_with = |cluster: ClusterSpec| {
            Experiment::new()
                .with_data_spec(tiny_data_spec())
                .with_cluster(cluster)
                .with_solver(SolverSpec::NewtonAdmm(cfg))
                .run()
                .unwrap()
                .remove(0)
        };
        let homogeneous = run_with(ClusterSpec::new(2, NetworkModel::infiniband_100g()));
        let hetero = run_with(
            ClusterSpec::new(2, NetworkModel::infiniband_100g())
                .with_rank_devices([DeviceSpec::tesla_p100(), DeviceSpec::cpu_like()]),
        );
        // The math is device-independent…
        assert_eq!(homogeneous.final_w, hetero.final_w);
        // …but the slow rank shows up in the fleet's skew summary.
        // (Identical devices still show a little imbalance — different
        // shards converge differently — but mixing a CPU in dwarfs it.)
        let homo_skew = homogeneous.rank_skew.as_ref().unwrap();
        let hetero_skew = hetero.rank_skew.as_ref().unwrap();
        assert!(
            hetero_skew.compute_imbalance() > 2.0 * homo_skew.compute_imbalance(),
            "a cpu-like rank should be far slower than a P100 rank: imbalance {} vs homogeneous {}",
            hetero_skew.compute_imbalance(),
            homo_skew.compute_imbalance()
        );
        assert!(
            hetero_skew.max_idle_wait_sec > 0.0,
            "the fast rank must wait for the slow one"
        );
        // Direct plumbing proof: rank 1's device changed, so its simulated
        // compute time changed. (The *fleet* time need not: it is governed
        // by the slowest rank, the P100 in both runs.)
        assert_ne!(hetero_skew.per_rank_compute_sec[1], homo_skew.per_rank_compute_sec[1]);
        assert_eq!(hetero_skew.per_rank_compute_sec[0], homo_skew.per_rank_compute_sec[0]);
    }

    #[test]
    fn straggled_experiments_slow_the_whole_fleet_deterministically() {
        use nadmm_cluster::StragglerModel;
        let cfg = NewtonAdmmConfig::default().with_max_iters(2).with_lambda(1e-3);
        let run_with = |cluster: ClusterSpec| {
            Experiment::new()
                .with_data_spec(tiny_data_spec())
                .with_cluster(cluster)
                .with_solver(SolverSpec::NewtonAdmm(cfg))
                .run()
                .unwrap()
                .remove(0)
        };
        let base = run_with(ClusterSpec::new(2, NetworkModel::infiniband_100g()));
        let spec =
            ClusterSpec::new(2, NetworkModel::infiniband_100g()).with_straggler(StragglerModel::none().with_slow_rank(1, 4.0));
        let slow_a = run_with(spec.clone());
        let slow_b = run_with(spec);
        assert_eq!(base.final_w, slow_a.final_w, "stragglers change time, never math");
        assert!(slow_a.total_sim_time_sec > base.total_sim_time_sec);
        assert_eq!(
            slow_a.total_sim_time_sec.to_bits(),
            slow_b.total_sim_time_sec.to_bits(),
            "same seed, same fleet, same simulated times"
        );
        assert_eq!(slow_a.rank_skew, slow_b.rank_skew);
    }

    #[test]
    fn cluster_device_override_reaches_the_simulated_clocks() {
        let cfg = NewtonAdmmConfig::default().with_max_iters(2).with_lambda(1e-3);
        let run_with = |cluster: ClusterSpec| {
            Experiment::new()
                .with_data_spec(tiny_data_spec())
                .with_cluster(cluster)
                .with_solver(SolverSpec::NewtonAdmm(cfg))
                .run()
                .unwrap()
                .remove(0)
        };
        let p100 = run_with(ClusterSpec::new(2, NetworkModel::ideal()));
        let cpu = run_with(ClusterSpec::new(2, NetworkModel::ideal()).with_device(nadmm_device::DeviceSpec::cpu_like()));
        // On this tiny problem the P100's kernel-launch latency dominates, so
        // the exact ordering is not the point — the override must reach the
        // simulated clocks at all.
        assert_ne!(
            p100.total_sim_time_sec, cpu.total_sim_time_sec,
            "the device override must change the simulated time"
        );
        // The math is device-independent: identical iterates.
        assert_eq!(p100.final_w, cpu.final_w);
    }
}
