//! Equivalence proofs: the `Experiment` builder adds nothing to the solver.
//! Every solver run through it produces **bit-identical** iteration records
//! to spawning the ranks by hand (`Cluster::run_sharded`) and calling the
//! solver's own `run_distributed`, for every solver and for ranks ∈ {1, 4}.
//!
//! "Bit-identical" means every numeric field of every record compares equal
//! by `f64::to_bits`, *except* `wall_time_sec`, which measures the host
//! machine and differs between any two runs by construction. The final
//! iterates are also compared exactly.

use nadmm_baselines::{
    AideConfig, DaneConfig, Disco, DiscoConfig, DistributedRun, Giant, GiantConfig, InexactDane, SyncSgd, SyncSgdConfig,
};
use nadmm_cluster::{Cluster, Communicator, NetworkModel};
use nadmm_data::{partition_strong, Dataset, SyntheticConfig};
use nadmm_experiment::{ClusterSpec, Experiment, RunReport, SolverSpec};
use nadmm_metrics::RunHistory;
use newton_admm::{NewtonAdmm, NewtonAdmmConfig};

fn data(seed: u64) -> (Dataset, Dataset) {
    SyntheticConfig::mnist_like()
        .with_train_size(96)
        .with_test_size(24)
        .with_num_features(8)
        .with_num_classes(3)
        .generate(seed)
}

fn bits_equal(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn opt_bits_equal(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => bits_equal(a, b),
        _ => false,
    }
}

/// Asserts two histories are identical except for wall time.
fn assert_histories_bit_identical(old: &RunHistory, new: &RunHistory) {
    assert_eq!(old.solver, new.solver);
    assert_eq!(old.dataset, new.dataset);
    assert_eq!(old.num_workers, new.num_workers);
    assert_eq!(old.records.len(), new.records.len(), "record counts differ");
    for (o, n) in old.records.iter().zip(&new.records) {
        assert_eq!(o.iteration, n.iteration);
        assert!(
            bits_equal(o.objective, n.objective),
            "objective differs at iteration {}: {} vs {}",
            o.iteration,
            o.objective,
            n.objective
        );
        assert!(
            bits_equal(o.sim_time_sec, n.sim_time_sec),
            "sim time differs at iteration {}: {} vs {}",
            o.iteration,
            o.sim_time_sec,
            n.sim_time_sec
        );
        assert!(
            bits_equal(o.comm_bytes, n.comm_bytes),
            "comm bytes differ at iteration {}",
            o.iteration
        );
        assert!(
            opt_bits_equal(o.test_accuracy, n.test_accuracy),
            "accuracy differs at iteration {}",
            o.iteration
        );
        assert!(
            opt_bits_equal(o.grad_norm, n.grad_norm),
            "grad norm differs at iteration {}",
            o.iteration
        );
        assert!(
            opt_bits_equal(o.consensus_residual, n.consensus_residual),
            "residual differs at iteration {}",
            o.iteration
        );
        assert!(
            opt_bits_equal(o.mean_rho, n.mean_rho),
            "mean rho differs at iteration {}",
            o.iteration
        );
    }
}

fn assert_iterates_bit_identical(old: &[f64], new: &[f64]) {
    assert_eq!(old.len(), new.len());
    for (o, n) in old.iter().zip(new) {
        assert!(bits_equal(*o, *n), "final iterates differ: {o} vs {n}");
    }
}

/// Runs `run` on one rank per shard of a strong partition of `train` and
/// keeps rank 0's output: the solver without the experiment layer.
fn run_direct<T: Send>(train: &Dataset, ranks: usize, run: impl Fn(&mut dyn Communicator, &Dataset) -> T + Sync) -> T {
    let (shards, _) = partition_strong(train, ranks);
    let cluster = Cluster::new(ranks, NetworkModel::infiniband_100g());
    cluster.run_sharded(&shards, |comm, shard| run(comm, shard)).swap_remove(0)
}

/// Runs one solver spec through the Experiment API on an in-memory dataset.
fn run_new_api(spec: SolverSpec, train: &Dataset, test: Option<&Dataset>, ranks: usize) -> RunReport {
    Experiment::new()
        .with_data(train.clone(), test.cloned())
        .with_cluster(ClusterSpec::new(ranks, NetworkModel::infiniband_100g()))
        .with_solver(spec)
        .run()
        .expect("experiment runs")
        .remove(0)
}

#[test]
fn newton_admm_is_bit_identical_through_the_experiment_api() {
    let (train, test) = data(1);
    let cfg = NewtonAdmmConfig::default().with_max_iters(5).with_lambda(1e-3);
    for ranks in [1usize, 4] {
        let old = run_direct(&train, ranks, |comm, shard| {
            NewtonAdmm::new(cfg).run_distributed(comm, shard, Some(&test))
        });
        let new = run_new_api(SolverSpec::NewtonAdmm(cfg), &train, Some(&test), ranks);
        assert_histories_bit_identical(&old.history, &new.history);
        assert_iterates_bit_identical(&old.z, &new.final_w);
        assert_eq!(old.comm_stats, new.comm_stats);
        assert!(bits_equal(old.final_rho, new.final_rho.unwrap()));
    }
}

#[test]
fn giant_is_bit_identical_through_the_experiment_api() {
    let (train, test) = data(2);
    let cfg = GiantConfig {
        max_iters: 4,
        lambda: 1e-3,
        ..Default::default()
    };
    for ranks in [1usize, 4] {
        let old = run_direct(&train, ranks, |comm, shard| {
            Giant::new(cfg).run_distributed(comm, shard, Some(&test))
        });
        let new = run_new_api(SolverSpec::Giant(cfg), &train, Some(&test), ranks);
        assert_histories_bit_identical(&old.history, &new.history);
        assert_iterates_bit_identical(&old.w, &new.final_w);
        assert_eq!(old.comm_stats, new.comm_stats);
    }
}

#[test]
fn inexact_dane_is_bit_identical_through_the_experiment_api() {
    let (train, test) = data(3);
    let cfg = DaneConfig {
        max_iters: 3,
        lambda: 1e-3,
        svrg_iters: 20,
        svrg_batch: 8,
        svrg_step: 5e-3,
        ..Default::default()
    };
    for ranks in [1usize, 4] {
        let old = run_direct(&train, ranks, |comm, shard| {
            InexactDane::new(cfg).run_distributed(comm, shard, Some(&test))
        });
        let new = run_new_api(SolverSpec::InexactDane(cfg), &train, Some(&test), ranks);
        assert_histories_bit_identical(&old.history, &new.history);
        assert_iterates_bit_identical(&old.w, &new.final_w);
        assert_eq!(old.comm_stats, new.comm_stats);
    }
}

#[test]
fn aide_is_bit_identical_through_the_experiment_api() {
    let (train, test) = data(4);
    let aide = AideConfig {
        dane: DaneConfig {
            max_iters: 3,
            lambda: 1e-3,
            svrg_iters: 20,
            svrg_batch: 8,
            svrg_step: 5e-3,
            ..Default::default()
        },
        tau: 0.5,
        zeta: 0.5,
    };
    for ranks in [1usize, 4] {
        let old = run_direct(&train, ranks, |comm, shard| {
            InexactDane::new(aide.dane).run_distributed_aide(comm, shard, Some(&test), &aide)
        });
        let new = run_new_api(SolverSpec::Aide(aide), &train, Some(&test), ranks);
        assert_eq!(new.solver, "aide");
        assert_histories_bit_identical(&old.history, &new.history);
        assert_iterates_bit_identical(&old.w, &new.final_w);
        assert_eq!(old.comm_stats, new.comm_stats);
    }
}

#[test]
fn disco_is_bit_identical_through_the_experiment_api() {
    let (train, test) = data(5);
    let cfg = DiscoConfig {
        max_iters: 4,
        lambda: 1e-3,
        ..Default::default()
    };
    for ranks in [1usize, 4] {
        let old = run_direct(&train, ranks, |comm, shard| {
            Disco::new(cfg).run_distributed(comm, shard, Some(&test))
        });
        let new = run_new_api(SolverSpec::Disco(cfg), &train, Some(&test), ranks);
        assert_histories_bit_identical(&old.history, &new.history);
        assert_iterates_bit_identical(&old.w, &new.final_w);
        assert_eq!(old.comm_stats, new.comm_stats);
    }
}

#[test]
fn sync_sgd_is_bit_identical_through_the_experiment_api() {
    let (train, test) = data(6);
    let cfg = SyncSgdConfig {
        epochs: 3,
        lambda: 1e-3,
        batch_size: 16,
        step_size: 0.5,
        ..Default::default()
    };
    for ranks in [1usize, 4] {
        let old = run_direct(&train, ranks, |comm, shard| {
            SyncSgd::new(cfg).run_distributed(comm, shard, Some(&test))
        });
        let new = run_new_api(SolverSpec::SyncSgd(cfg), &train, Some(&test), ranks);
        assert_histories_bit_identical(&old.history, &new.history);
        assert_iterates_bit_identical(&old.w, &new.final_w);
        assert_eq!(old.comm_stats, new.comm_stats);
    }
}

#[test]
fn sgd_grid_search_is_bit_identical_through_the_experiment_api() {
    let (train, test) = data(7);
    let base = SyncSgdConfig {
        epochs: 3,
        lambda: 1e-3,
        batch_size: 16,
        ..Default::default()
    };
    let grid = [1e-7, 0.5, 1e3];
    for ranks in [1usize, 4] {
        // The expected winner, picked here from one direct run per
        // candidate: the first strictly lowest finite final objective.
        let candidates: Vec<DistributedRun> = grid
            .iter()
            .map(|&step| {
                let cfg = SyncSgdConfig { step_size: step, ..base };
                run_direct(&train, ranks, |comm, shard| {
                    SyncSgd::new(cfg).run_distributed(comm, shard, Some(&test))
                })
            })
            .collect();
        let final_objective = |run: &DistributedRun| run.history.final_objective().unwrap();
        let old = candidates
            .iter()
            .filter(|run| final_objective(run).is_finite())
            .min_by(|a, b| final_objective(a).total_cmp(&final_objective(b)))
            .expect("some candidate converges");
        assert!(
            final_objective(old) < final_objective(&candidates[0]),
            "the grid must do better than its first step"
        );
        let new = run_new_api(
            SolverSpec::SyncSgdGrid {
                base,
                grid: grid.to_vec(),
            },
            &train,
            Some(&test),
            ranks,
        );
        assert_histories_bit_identical(&old.history, &new.history);
        assert_iterates_bit_identical(&old.w, &new.final_w);
        assert_eq!(old.comm_stats, new.comm_stats);
    }
}

#[test]
fn runs_without_a_test_set_are_also_identical() {
    // The `test: None` path skips the accuracy instrumentation entirely —
    // make sure the experiment layer does not sneak a test set in.
    let (train, _) = data(8);
    let cfg = NewtonAdmmConfig::default().with_max_iters(4).with_lambda(1e-3);
    let old = run_direct(&train, 4, |comm, shard| {
        NewtonAdmm::new(cfg).run_distributed(comm, shard, None)
    });
    let new = run_new_api(SolverSpec::NewtonAdmm(cfg), &train, None, 4);
    assert_histories_bit_identical(&old.history, &new.history);
    assert!(new.final_accuracy.is_none());
}
