//! Compare Newton-ADMM with GIANT, InexactDANE and synchronous SGD on the
//! synthetic MNIST analogue — a miniature version of the paper's Figure 1 /
//! Figure 4 workload, expressed as one declarative experiment.
//!
//! Run with:
//! ```text
//! cargo run --release --example mnist_multiclass
//! ```

use newton_admm_repro::prelude::*;

fn main() {
    let lambda = 1e-5;
    let iters = 20;

    let reports = Experiment::new()
        .with_data_spec(DataSpec::Synthetic {
            config: SyntheticConfig::mnist_like()
                .with_train_size(1_600)
                .with_test_size(400)
                .with_num_features(48),
            seed: 7,
        })
        .with_cluster(ClusterSpec::new(4, NetworkModel::infiniband_100g()))
        // Newton-ADMM (the paper's method).
        .with_solver(SolverSpec::NewtonAdmm(
            NewtonAdmmConfig::default().with_lambda(lambda).with_max_iters(iters),
        ))
        // GIANT with the same CG budget and line-search length.
        .with_solver(SolverSpec::Giant(GiantConfig {
            max_iters: iters,
            lambda,
            ..Default::default()
        }))
        // InexactDANE (few iterations — its epoch time is the point).
        .with_solver(SolverSpec::InexactDane(DaneConfig {
            max_iters: 5,
            lambda,
            svrg_iters: 60,
            svrg_step: 1e-3,
            ..Default::default()
        }))
        // Synchronous SGD, batch size 128, best step size from a small grid.
        .with_solver(SolverSpec::SyncSgdGrid {
            base: SyncSgdConfig {
                epochs: iters,
                lambda,
                batch_size: 128,
                ..Default::default()
            },
            grid: vec![1e-2, 1e-1, 1.0, 10.0],
        })
        .run()
        .expect("comparison runs");

    println!("== MNIST-like, 4 workers: objective / accuracy / time ==");
    println!(
        "{:>12}  {:>15}  {:>8}  {:>14}  {:>18}  {:>12}",
        "solver", "final objective", "test acc", "avg epoch (ms)", "total sim time (s)", "bytes/worker"
    );
    for r in &reports {
        let acc = r.final_accuracy.map(|a| format!("{:.1}%", 100.0 * a)).unwrap_or_default();
        println!(
            "{:>12}  {:>15.4}  {acc:>8}  {:>14.3}  {:>18.4}  {:>12.0}",
            r.solver,
            r.final_objective.unwrap(),
            1e3 * r.history.avg_epoch_time(),
            r.total_sim_time_sec,
            r.comm_stats.bytes_sent
        );
    }

    println!(
        "Newton-ADMM reached objective {:.4} in {:.3}s simulated time; GIANT reached {:.4} in {:.3}s.",
        reports[0].final_objective.unwrap(),
        reports[0].total_sim_time_sec,
        reports[1].final_objective.unwrap(),
        reports[1].total_sim_time_sec,
    );
}
