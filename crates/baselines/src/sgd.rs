//! Distributed synchronous minibatch SGD (the paper's Figure 4 comparator).
//!
//! Every worker repeatedly samples a minibatch from its shard, computes the
//! minibatch gradient, and a *synchronous allreduce per minibatch* sums the
//! gradients before the shared iterate is updated. That allreduce is the one
//! collective round of a step — exactly the overhead the paper contrasts
//! with Newton-ADMM's single round per outer iteration. Everything else a
//! step needs from the other ranks is loop-invariant and is agreed on once,
//! before the first epoch: the total sample count, which normalises the
//! step, and the number of steps per epoch, the most any rank needs for one
//! pass over its shard (`⌈n_local / batch⌉`), so that ranks with uneven
//! shards still enter every round together.

use crate::common::{local_objective_on, record_iteration, DistributedRun, EngineSync, Minibatches};
use nadmm_cluster::{Communicator, Contribution};
use nadmm_data::Dataset;
use nadmm_device::{Device, DeviceSpec};
use nadmm_linalg::vector;
use nadmm_metrics::RunHistory;
use nadmm_objective::Objective;
use nadmm_solver::validate::{require_non_negative, require_nonzero, require_positive, ConfigError};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Synchronous SGD configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyncSgdConfig {
    /// Number of epochs (full passes over each local shard).
    pub epochs: usize,
    /// Global L2 regularization weight λ.
    pub lambda: f64,
    /// Minibatch size per worker (the paper uses 128).
    pub batch_size: usize,
    /// Step size η (the paper grid-searches 1e-8…1e8 and reports the best).
    pub step_size: f64,
    /// RNG seed for minibatch sampling.
    pub seed: u64,
    /// Hardware model for local compute time.
    pub device: DeviceSpec,
}

impl Default for SyncSgdConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            lambda: 1e-5,
            batch_size: 128,
            step_size: 1e-2,
            seed: 0,
            device: DeviceSpec::tesla_p100(),
        }
    }
}

impl SyncSgdConfig {
    /// Rejects zero budgets and non-positive step sizes.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_nonzero("SyncSgdConfig", "epochs", self.epochs)?;
        require_non_negative("SyncSgdConfig", "lambda", self.lambda)?;
        require_nonzero("SyncSgdConfig", "batch_size", self.batch_size)?;
        require_positive("SyncSgdConfig", "step_size", self.step_size)
    }
}

/// The distributed synchronous SGD solver.
#[derive(Debug, Clone, Default)]
pub struct SyncSgd {
    config: SyncSgdConfig,
}

impl SyncSgd {
    /// Creates a solver with the given configuration.
    pub fn new(config: SyncSgdConfig) -> Self {
        Self { config }
    }

    /// The solver configuration.
    pub fn config(&self) -> &SyncSgdConfig {
        &self.config
    }

    /// Runs synchronous SGD inside one rank of a communicator.
    pub fn run_distributed(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> DistributedRun {
        let cfg = &self.config;
        let n_workers = comm.size();
        let device = Device::new(cfg.device);
        let local = local_objective_on(shard, cfg.lambda, n_workers, &device);
        let mut engine = EngineSync::new(&device);
        let dim = local.dim();
        let n_local = shard.num_samples();
        let batch = cfg.batch_size.min(n_local.max(1));
        let mut minibatches = Minibatches::new(shard, batch, cfg.seed.wrapping_add(comm.rank() as u64 * 7919));
        // The run's one setup round: the total sample count (a sum) and the
        // steps per epoch (a max), which every rank then runs in lockstep.
        let mut counts = [n_local as f64, n_local.div_ceil(batch) as f64];
        let handle = comm.start_allreduce_sum_max(Contribution::Data(&counts), 1);
        comm.wait_into(handle, &mut counts);
        let total_samples = counts[0].max(1.0);
        let steps_per_epoch = (counts[1] as usize).max(1);

        let mut w = vec![0.0; dim];
        let mut g = vec![0.0; dim];
        let mut ws = nadmm_device::Workspace::new();
        let wall_start = Instant::now();
        let mut history = RunHistory::new("sync-sgd", shard.name(), n_workers);
        let mut record_ws = nadmm_device::Workspace::new();
        record_iteration(
            comm,
            &local,
            &mut engine,
            &mut record_ws,
            test,
            &w,
            0,
            wall_start,
            &mut history,
        );

        for epoch in 1..=cfg.epochs {
            for _ in 0..steps_per_epoch {
                // Minibatch objective scaled so that it estimates the *local*
                // sum objective (loss scaled up by n_local/batch, plus this
                // worker's regulariser share). The minibatch kernels launch
                // on the rank's shared device engine.
                let mini_obj = minibatches.draw(0.0, &device);
                mini_obj.gradient_into(&w, &mut g, &mut ws);
                vector::scale(n_local as f64 / batch as f64, &mut g);
                vector::axpy(cfg.lambda / n_workers as f64, &w, &mut g);
                engine.sync(comm, &device);
                // The step's one collective: the synchronous in-place
                // allreduce the paper points at. The sum is normalised by the
                // total sample count, so the step size has a per-sample scale
                // (standard minibatch SGD convention).
                comm.allreduce_sum_into(&mut g);
                vector::axpy(-cfg.step_size / total_samples, &g, &mut w);
            }
            record_iteration(
                comm,
                &local,
                &mut engine,
                &mut record_ws,
                test,
                &w,
                epoch,
                wall_start,
                &mut history,
            );
        }

        DistributedRun {
            w,
            history,
            comm_stats: comm.stats(),
            workspace: ws.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadmm_cluster::{Cluster, NetworkModel};
    use nadmm_data::{partition_strong, partition_weak, SyntheticConfig};
    use nadmm_linalg::gen;
    use nadmm_objective::SoftmaxCrossEntropy;

    /// Runs `cfg` on one rank per shard and keeps rank 0's output.
    fn run_on(cfg: SyncSgdConfig, cluster: &Cluster, shards: &[Dataset], test: Option<&Dataset>) -> DistributedRun {
        let mut outputs = cluster.run_sharded(shards, |comm, shard| SyncSgd::new(cfg).run_distributed(comm, shard, test));
        outputs.swap_remove(0)
    }

    fn dataset(n: usize, seed: u64) -> (Dataset, Dataset) {
        SyntheticConfig::mnist_like()
            .with_train_size(n)
            .with_test_size(n / 4)
            .with_num_features(6)
            .with_num_classes(3)
            .generate(seed)
    }

    #[test]
    fn sgd_reduces_the_objective_and_improves_accuracy() {
        let (train, test) = dataset(120, 1);
        let (shards, _) = partition_weak(&train, 2, 60);
        let cluster = Cluster::new(2, NetworkModel::ideal());
        let cfg = SyncSgdConfig {
            epochs: 10,
            lambda: 1e-3,
            batch_size: 16,
            step_size: 0.5,
            ..Default::default()
        };
        let run = run_on(cfg, &cluster, &shards, Some(&test));
        let first = run.history.records[0].objective;
        let last = run.history.final_objective().unwrap();
        assert!(last < first, "SGD should reduce the objective: {first} -> {last}");
        assert!(run.history.final_accuracy().unwrap() >= run.history.records[0].test_accuracy.unwrap());
    }

    #[test]
    fn sgd_communicates_once_per_minibatch() {
        let (train, _) = dataset(64, 2);
        let (shards, _) = partition_weak(&train, 2, 32);
        let cluster = Cluster::new(2, NetworkModel::ideal());
        let cfg = SyncSgdConfig {
            epochs: 2,
            batch_size: 8,
            lambda: 1e-3,
            step_size: 0.1,
            ..Default::default()
        };
        let run = run_on(cfg, &cluster, &shards, None);
        // One setup round, then 32/8 = 4 minibatches per epoch with one
        // gradient allreduce each, plus 1 instrumentation allreduce per
        // epoch and one for epoch 0.
        let expected = 1 + 2 * 4 + (2 + 1);
        assert_eq!(run.comm_stats.collectives, expected as u64);
    }

    #[test]
    fn ranks_with_uneven_shards_run_the_most_steps_any_rank_needs() {
        let (train, _) = dataset(33, 3);
        let (shards, _) = partition_strong(&train, 2);
        assert_eq!([shards[0].num_samples(), shards[1].num_samples()], [17, 16]);
        let cfg = SyncSgdConfig {
            epochs: 2,
            batch_size: 16,
            lambda: 1e-3,
            step_size: 0.1,
            ..Default::default()
        };
        let runs = Cluster::new(2, NetworkModel::ideal())
            .run_sharded(&shards, |comm, shard| SyncSgd::new(cfg).run_distributed(comm, shard, None));
        // ⌈17/16⌉ = 2 steps on rank 0 and ⌈16/16⌉ = 1 on rank 1: both run 2.
        for run in &runs {
            assert_eq!(run.comm_stats.collectives, 1 + 2 * 2 + (2 + 1));
            assert_eq!(run.history.len(), 3);
        }
        assert_eq!(bits(&runs[0].w), bits(&runs[1].w), "every rank ends on one iterate");
        let first = runs[0].history.records[0].objective;
        let last = runs[0].history.final_objective().unwrap();
        assert!(
            last.is_finite() && last < first,
            "SGD should reduce the objective: {first} -> {last}"
        );
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The step loop `SyncSgd` ran before its loop-invariant round was
    /// hoisted: a fresh minibatch `select` and a scalar sample-count
    /// allreduce on every step. The reference the one-round loop must match
    /// bit for bit.
    fn per_step_reference(
        cfg: &SyncSgdConfig,
        comm: &mut dyn Communicator,
        shard: &Dataset,
        test: Option<&Dataset>,
    ) -> DistributedRun {
        let n_workers = comm.size();
        let device = Device::new(cfg.device);
        let local = local_objective_on(shard, cfg.lambda, n_workers, &device);
        let mut engine = EngineSync::new(&device);
        let dim = local.dim();
        let n_local = shard.num_samples();
        let batch = cfg.batch_size.min(n_local.max(1));
        let batches_per_epoch = n_local.div_ceil(batch).max(1);
        let mut rng = gen::seeded_rng(cfg.seed.wrapping_add(comm.rank() as u64 * 7919));
        let (mut w, mut g) = (vec![0.0; dim], vec![0.0; dim]);
        let mut ws = nadmm_device::Workspace::new();
        let wall_start = Instant::now();
        let mut history = RunHistory::new("sync-sgd", shard.name(), n_workers);
        let mut record_ws = nadmm_device::Workspace::new();
        record_iteration(
            comm,
            &local,
            &mut engine,
            &mut record_ws,
            test,
            &w,
            0,
            wall_start,
            &mut history,
        );
        for epoch in 1..=cfg.epochs {
            for _ in 0..batches_per_epoch {
                let idx = gen::sample_without_replacement(n_local, batch, &mut rng);
                let mini = shard.select(&idx);
                let mini_obj = SoftmaxCrossEntropy::new(&mini, 0.0).with_device(device.clone());
                mini_obj.gradient_into(&w, &mut g, &mut ws);
                vector::scale(n_local as f64 / batch as f64, &mut g);
                vector::axpy(cfg.lambda / n_workers as f64, &w, &mut g);
                engine.sync(comm, &device);
                comm.allreduce_sum_into(&mut g);
                let total_samples = comm.allreduce_scalar_sum(n_local as f64).max(1.0);
                vector::axpy(-cfg.step_size / total_samples, &g, &mut w);
            }
            record_iteration(
                comm,
                &local,
                &mut engine,
                &mut record_ws,
                test,
                &w,
                epoch,
                wall_start,
                &mut history,
            );
        }
        DistributedRun {
            w,
            history,
            comm_stats: comm.stats(),
            workspace: ws.stats(),
        }
    }

    #[test]
    fn one_round_per_step_keeps_the_per_step_reference_bits() {
        let (train, test) = dataset(96, 5);
        let (epochs, per_rank, batch) = (3, 24usize, 5);
        let steps = per_rank.div_ceil(batch);
        for ranks in [1, 4] {
            let (shards, _) = partition_weak(&train, ranks, per_rank);
            let cluster = Cluster::new(ranks, NetworkModel::ideal());
            let cfg = SyncSgdConfig {
                epochs,
                lambda: 1e-3,
                batch_size: batch,
                step_size: 0.3,
                seed: 9,
                ..Default::default()
            };
            let run = run_on(cfg, &cluster, &shards, Some(&test));
            let reference = cluster
                .run_sharded(&shards, |comm, shard| per_step_reference(&cfg, comm, shard, Some(&test)))
                .swap_remove(0);
            let case = format!("{ranks} ranks");
            assert_eq!(bits(&run.w), bits(&reference.w), "final w, {case}");
            let series = |r: &DistributedRun| -> Vec<(u64, u64)> {
                let records = &r.history.records;
                records
                    .iter()
                    .map(|x| (x.objective.to_bits(), x.test_accuracy.unwrap().to_bits()))
                    .collect()
            };
            assert_eq!(series(&run), series(&reference), "objectives and accuracies, {case}");
            assert_eq!(
                run.comm_stats.collectives,
                (1 + epochs * steps + 2 * (epochs + 1)) as u64,
                "{case}"
            );
            assert_eq!(
                reference.comm_stats.collectives,
                (2 * epochs * steps + 2 * (epochs + 1)) as u64,
                "{case}"
            );
        }
    }
}
