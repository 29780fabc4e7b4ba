//! Quickstart: train a multiclass classifier with distributed Newton-ADMM on
//! a synthetic MNIST-like dataset, using the declarative experiment API, and
//! print the convergence history.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use newton_admm_repro::prelude::*;

fn main() {
    // 1. Describe the data: a synthetic MNIST-like dataset (10 classes, 784
    //    features in the paper; scaled down so the example finishes in
    //    seconds).
    let data = DataSpec::Synthetic {
        config: SyntheticConfig::mnist_like()
            .with_train_size(2_000)
            .with_test_size(400)
            .with_num_features(64),
        seed: 42,
    };

    // 2. Describe the cluster: 4 simulated workers with P100-class
    //    accelerators on a 100 Gbps interconnect, strong-scaling partition.
    let cluster = ClusterSpec::new(4, NetworkModel::infiniband_100g());

    // 3. Configure Newton-ADMM exactly as the paper's Figure 1: λ = 1e-5,
    //    10 CG iterations, spectral penalty selection.
    let config = NewtonAdmmConfig::default().with_lambda(1e-5).with_max_iters(30);

    // 4. Compose and run the experiment. The builder validates every config,
    //    generates and partitions the data, and spawns the cluster.
    let report = Experiment::new()
        .with_data_spec(data)
        .with_partition(PartitionSpec::Strong)
        .with_cluster(cluster)
        .with_solver(SolverSpec::NewtonAdmm(config))
        .run()
        .expect("experiment runs")
        .remove(0);

    println!(
        "dataset: {} ({} workers, {} iterations recorded)",
        report.dataset,
        report.num_workers,
        report.history.len()
    );

    // 5. Report the convergence history from the structured RunReport.
    println!("== Newton-ADMM on mnist-like (4 workers) ==");
    println!(
        "{:>4}  {:>10}  {:>8}  {:>12}",
        "iter", "objective", "test acc", "sim time (s)"
    );
    for r in &report.history.records {
        if r.iteration % 5 == 0 || r.iteration == report.history.records.len() - 1 {
            let acc = r.test_accuracy.map(|a| format!("{:.1}%", 100.0 * a)).unwrap_or_default();
            println!(
                "{:>4}  {:>10.4}  {acc:>8}  {:>12.4}",
                r.iteration, r.objective, r.sim_time_sec
            );
        }
    }
    println!(
        "final objective {:.4}, final accuracy {:.1}%, avg epoch time {:.2} ms, {} bytes sent per worker",
        report.final_objective.unwrap(),
        100.0 * report.final_accuracy.unwrap(),
        1e3 * report.history.avg_epoch_time(),
        report.comm_stats.bytes_sent,
    );
}
