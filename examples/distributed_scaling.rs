//! Strong- and weak-scaling demo: how the average epoch time of Newton-ADMM
//! and GIANT changes with the number of simulated workers (a miniature of the
//! paper's Figure 2), how a slower interconnect changes the picture, and
//! where each solver's communication time goes (per-collective breakdown
//! with the algorithm the crossover rule selected). Every run goes through
//! the experiment builder; only the cluster/partition specs vary.
//!
//! Run with:
//! ```text
//! cargo run --release --example distributed_scaling
//! ```

use newton_admm_repro::prelude::*;

/// Prints a solver's per-collective-kind communication breakdown.
fn print_breakdown(solver: &str, stats: &CommStats) {
    println!("== {solver} — communication breakdown (rank 0) ==");
    println!(
        "{:>10}  {:>5}  {:>12}  {:>11}  {:>9}",
        "collective", "count", "bytes sent", "sim seconds", "algorithm"
    );
    for [kind, count, bytes, seconds, algorithm] in stats.breakdown_rows() {
        println!("{kind:>10}  {count:>5}  {bytes:>12}  {seconds:>11}  {algorithm:>9}");
    }
}

/// One Newton-ADMM + one GIANT run on the given cluster/partition layout,
/// returning the two average epoch times (and the full reports for the
/// breakdown section).
fn run_pair(network: NetworkModel, workers: usize, train: &Dataset, weak_per_worker: Option<usize>) -> (RunReport, RunReport) {
    let lambda = 1e-5;
    let iters = 5;
    let partition = match weak_per_worker {
        Some(per_worker) => PartitionSpec::Weak { per_worker },
        None => PartitionSpec::Strong,
    };
    let mut reports = Experiment::new()
        .with_data(train.clone(), None)
        .with_partition(partition)
        .with_cluster(ClusterSpec::new(workers, network))
        .with_solver(SolverSpec::NewtonAdmm(
            NewtonAdmmConfig::default().with_lambda(lambda).with_max_iters(iters),
        ))
        .with_solver(SolverSpec::Giant(GiantConfig {
            max_iters: iters,
            lambda,
            ..Default::default()
        }))
        .run()
        .expect("scaling run");
    let giant = reports.remove(1);
    let admm = reports.remove(0);
    (admm, giant)
}

fn epoch_times(network: NetworkModel, workers: usize, train: &Dataset, weak_per_worker: Option<usize>) -> (f64, f64) {
    let (admm, giant) = run_pair(network, workers, train, weak_per_worker);
    (admm.history.avg_epoch_time(), giant.history.avg_epoch_time())
}

fn main() {
    let (train, _) = SyntheticConfig::mnist_like()
        .with_train_size(2_048)
        .with_test_size(128)
        .with_num_features(48)
        .generate(11);

    // Strong scaling: fixed total problem, more workers.
    println!("== Strong scaling (avg epoch time, ms) ==");
    println!("{:>7}  {:>11}  {:>7}", "workers", "newton-admm", "giant");
    for workers in [1usize, 2, 4, 8] {
        let (a, g) = epoch_times(NetworkModel::infiniband_100g(), workers, &train, None);
        println!("{:>7}  {:>11.3}  {:>7.3}", format!("s{workers}"), 1e3 * a, 1e3 * g);
    }

    // Weak scaling: fixed per-worker problem, more workers.
    let per_worker = 256;
    println!("== Weak scaling (avg epoch time, ms) ==");
    println!("{:>7}  {:>11}  {:>7}", "workers", "newton-admm", "giant");
    for workers in [1usize, 2, 4, 8] {
        let (a, g) = epoch_times(NetworkModel::infiniband_100g(), workers, &train, Some(per_worker));
        println!("{:>7}  {:>11.3}  {:>7.3}", format!("w{workers}"), 1e3 * a, 1e3 * g);
    }

    // Interconnect ablation: the paper argues Newton-ADMM's single round per
    // iteration matters most on slow networks.
    println!("== Interconnect ablation, 8 workers (avg epoch time, ms) ==");
    println!(
        "{:>16}  {:>11}  {:>7}  {:>19}",
        "network", "newton-admm", "giant", "giant / newton-admm"
    );
    for network in [
        NetworkModel::infiniband_100g(),
        NetworkModel::ethernet_10g(),
        NetworkModel::ethernet_1g(),
    ] {
        let (a, g) = epoch_times(network, 8, &train, None);
        println!(
            "{:>16}  {:>11.3}  {:>7.3}  {:>19}",
            network.name,
            1e3 * a,
            1e3 * g,
            format!("{:.2}x", g / a)
        );
    }

    // Where does communication time go? Per-collective breakdown of an
    // 8-worker run, including which algorithm the payload-size crossover
    // rule picked for each collective kind — straight off the RunReports.
    let (admm, giant) = run_pair(NetworkModel::infiniband_100g(), 8, &train, None);
    print_breakdown("newton-admm", &admm.comm_stats);
    print_breakdown("giant", &giant.comm_stats);
    println!(
        "newton-admm comm fraction: {:.1}%   giant comm fraction: {:.1}%",
        100.0 * admm.comm_stats.comm_fraction(),
        100.0 * giant.comm_stats.comm_fraction()
    );
}
