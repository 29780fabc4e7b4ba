//! Workspace-level integration tests: whole solvers, run end-to-end across
//! crates through the experiment API, on small synthetic problems.

use newton_admm_repro::prelude::*;

fn mnist_like(n: usize, features: usize, classes: usize, seed: u64) -> (Dataset, Dataset) {
    SyntheticConfig::mnist_like()
        .with_train_size(n)
        .with_test_size(n / 4)
        .with_num_features(features)
        .with_num_classes(classes)
        .generate(seed)
}

/// Runs a list of solver specs on one shared problem through the experiment
/// builder and returns their reports.
fn run_all(
    train: &Dataset,
    test: Option<&Dataset>,
    workers: usize,
    network: NetworkModel,
    partition: PartitionSpec,
    solvers: Vec<SolverSpec>,
) -> Vec<RunReport> {
    Experiment::new()
        .with_data(train.clone(), test.cloned())
        .with_partition(partition)
        .with_cluster(ClusterSpec::new(workers, network))
        .with_solvers(solvers)
        .run()
        .expect("experiment runs")
}

#[test]
fn newton_admm_and_giant_converge_to_the_same_optimum() {
    let lambda = 1e-2;
    let (train, _) = mnist_like(160, 10, 4, 1);
    let reference = newton_admm_repro::baselines::reference_optimum(&train, lambda);

    let reports = run_all(
        &train,
        None,
        4,
        NetworkModel::infiniband_100g(),
        PartitionSpec::Strong,
        vec![
            SolverSpec::NewtonAdmm(NewtonAdmmConfig::default().with_lambda(lambda).with_max_iters(40)),
            SolverSpec::Giant(GiantConfig {
                max_iters: 40,
                lambda,
                ..Default::default()
            }),
        ],
    );

    let theta_admm = relative_objective(reports[0].final_objective.unwrap(), reference.f_star);
    let theta_giant = relative_objective(reports[1].final_objective.unwrap(), reference.f_star);
    assert!(theta_admm < 0.05, "Newton-ADMM did not reach θ<0.05 (θ={theta_admm})");
    assert!(theta_giant < 0.05, "GIANT did not reach θ<0.05 (θ={theta_giant})");
}

#[test]
fn newton_admm_uses_fewer_communication_rounds_than_giant() {
    let (train, _) = mnist_like(120, 8, 3, 2);
    let iters = 10;
    let reports = run_all(
        &train,
        None,
        4,
        NetworkModel::infiniband_100g(),
        PartitionSpec::Strong,
        vec![
            SolverSpec::NewtonAdmm(NewtonAdmmConfig::default().with_lambda(1e-3).with_max_iters(iters)),
            SolverSpec::Giant(GiantConfig {
                max_iters: iters,
                lambda: 1e-3,
                ..Default::default()
            }),
        ],
    );
    // Per iteration Newton-ADMM needs 2 algorithmic collectives (reduce +
    // broadcast) vs GIANT's 3; both add the same instrumentation overhead, so
    // the total count must be strictly smaller.
    assert!(
        reports[0].comm_stats.collectives < reports[1].comm_stats.collectives,
        "ADMM rounds {} should be below GIANT rounds {}",
        reports[0].comm_stats.collectives,
        reports[1].comm_stats.collectives
    );
}

#[test]
fn newton_admm_beats_sync_sgd_in_time_to_objective() {
    // The Figure 4 claim, at miniature scale: to reach the same objective
    // value, Newton-ADMM needs less simulated time than synchronous SGD.
    let lambda = 1e-5;
    let (train, test) = mnist_like(240, 12, 4, 3);
    let reports = run_all(
        &train,
        Some(&test),
        4,
        NetworkModel::infiniband_100g(),
        PartitionSpec::Weak { per_worker: 60 },
        vec![
            SolverSpec::NewtonAdmm(NewtonAdmmConfig::default().with_lambda(lambda).with_max_iters(25)),
            SolverSpec::SyncSgd(SyncSgdConfig {
                epochs: 25,
                lambda,
                batch_size: 16,
                step_size: 1.0,
                ..Default::default()
            }),
        ],
    );

    let (admm, sgd) = (&reports[0], &reports[1]);
    let target = sgd.final_objective.unwrap();
    let t_admm = admm
        .history
        .records
        .iter()
        .find(|r| r.objective <= target)
        .map(|r| r.sim_time_sec);
    assert!(t_admm.is_some(), "Newton-ADMM never reached SGD's final objective {target}");
    assert!(
        t_admm.unwrap() <= sgd.total_sim_time_sec,
        "Newton-ADMM ({:?}s) should reach SGD's final objective faster than SGD's total time ({}s)",
        t_admm,
        sgd.total_sim_time_sec
    );
}

#[test]
fn sparse_e18_like_problems_run_through_the_full_stack() {
    let reports = Experiment::new()
        .with_data_spec(DataSpec::Synthetic {
            config: SyntheticConfig::e18_like()
                .with_train_size(160)
                .with_test_size(40)
                .with_num_features(300),
            seed: 4,
        })
        .with_cluster(ClusterSpec::new(4, NetworkModel::infiniband_100g()))
        .with_solver(SolverSpec::NewtonAdmm(
            NewtonAdmmConfig::default().with_lambda(1e-3).with_max_iters(10),
        ))
        .run()
        .expect("sparse experiment runs");
    let report = &reports[0];
    assert!(report.dataset.starts_with("e18-like"), "dataset name flows into the report");
    let first = report.history.records[0].objective;
    let last = report.final_objective.unwrap();
    assert!(
        last < 0.8 * first,
        "objective must clearly decrease on the sparse problem: {first} -> {last}"
    );
    // With only 160 heavily-sparsified samples for a 20-class model the test
    // accuracy is near chance; just require it to be a valid, not-degenerate
    // probability (the convergence assertions above carry the real check).
    let acc = report.final_accuracy.unwrap();
    assert!((0.0..=1.0).contains(&acc), "accuracy must be a probability, got {acc}");
}

#[test]
fn binary_higgs_like_problems_converge_in_very_few_iterations() {
    // The paper notes HIGGS is well-conditioned and both second-order methods
    // reach θ<0.05 in one iteration; at our scale a handful suffices.
    let lambda = 1e-5;
    let (train, _) = SyntheticConfig::higgs_like()
        .with_train_size(400)
        .with_test_size(100)
        .generate(5);
    let reference = newton_admm_repro::baselines::reference_optimum(&train, lambda);
    let reports = run_all(
        &train,
        None,
        4,
        NetworkModel::infiniband_100g(),
        PartitionSpec::Strong,
        vec![SolverSpec::NewtonAdmm(
            NewtonAdmmConfig::default().with_lambda(lambda).with_max_iters(10),
        )],
    );
    let theta = reports[0]
        .history
        .records
        .iter()
        .find(|r| relative_objective(r.objective, reference.f_star) <= 0.05)
        .map(|r| r.iteration);
    assert!(theta.is_some(), "never reached θ<0.05 on the well-conditioned binary problem");
    assert!(theta.unwrap() <= 6, "took {} iterations, expected only a few", theta.unwrap());
}

#[test]
fn slower_interconnects_hurt_giant_more_than_newton_admm() {
    // Qualitative claim from the paper's §3: GIANT's extra communication
    // rounds hurt more on slower networks. Moving from Infiniband to 1 Gbps
    // ethernet must (a) keep Newton-ADMM's epoch time below GIANT's and
    // (b) increase GIANT's epoch time by more seconds than Newton-ADMM's.
    let (train, _) = mnist_like(160, 10, 3, 6);
    let iters = 5;
    let epoch_times = |net: NetworkModel| {
        let reports = run_all(
            &train,
            None,
            8,
            net,
            PartitionSpec::Strong,
            vec![
                SolverSpec::NewtonAdmm(NewtonAdmmConfig::default().with_lambda(1e-3).with_max_iters(iters)),
                SolverSpec::Giant(GiantConfig {
                    max_iters: iters,
                    lambda: 1e-3,
                    ..Default::default()
                }),
            ],
        );
        (reports[0].history.avg_epoch_time(), reports[1].history.avg_epoch_time())
    };
    let (admm_fast, giant_fast) = epoch_times(NetworkModel::infiniband_100g());
    let (admm_slow, giant_slow) = epoch_times(NetworkModel::ethernet_1g());
    assert!(
        admm_slow < giant_slow,
        "Newton-ADMM ({admm_slow}s) should stay below GIANT ({giant_slow}s) on a slow network"
    );
    let admm_penalty = admm_slow - admm_fast;
    let giant_penalty = giant_slow - giant_fast;
    assert!(
        giant_penalty > admm_penalty,
        "GIANT's slow-network penalty ({giant_penalty}s) should exceed Newton-ADMM's ({admm_penalty}s)"
    );
}
