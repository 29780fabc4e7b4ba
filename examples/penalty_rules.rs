//! Ablation of the ADMM penalty-selection rule: fixed ρ vs residual balancing
//! vs the paper's spectral (ACADMM) rule, on an ill-conditioned CIFAR-10-like
//! problem where the choice matters most. The three variants are three
//! `SolverSpec::NewtonAdmm` entries of one experiment.
//!
//! Run with:
//! ```text
//! cargo run --release --example penalty_rules
//! ```

use newton_admm_repro::prelude::*;

fn main() {
    let workers = 4;
    let lambda = 1e-5;
    let iters = 25;

    let rules: Vec<(&str, PenaltyRule)> = vec![
        ("fixed rho=1", PenaltyRule::Fixed),
        ("residual balancing", PenaltyRule::ResidualBalancing { mu: 10.0, tau: 2.0 }),
        ("spectral (paper)", PenaltyRule::Spectral(SpectralConfig::default())),
    ];

    let reports = Experiment::new()
        .with_data_spec(DataSpec::Synthetic {
            config: SyntheticConfig::cifar10_like()
                .with_train_size(1_200)
                .with_test_size(300)
                .with_num_features(64),
            seed: 17,
        })
        .with_cluster(ClusterSpec::new(workers, NetworkModel::infiniband_100g()))
        .with_solvers(rules.iter().map(|(_, rule)| {
            SolverSpec::NewtonAdmm(
                NewtonAdmmConfig::default()
                    .with_lambda(lambda)
                    .with_max_iters(iters)
                    .with_penalty(*rule),
            )
        }))
        .run()
        .expect("ablation runs");

    let best_drop = reports.iter().map(|r| r.final_objective.unwrap()).fold(f64::MAX, f64::min);

    println!("== Penalty-rule ablation on cifar10-like ({workers} workers, {iters} iterations) ==");
    println!(
        "{:>18}  {:>15}  {:>8}  {:>16}  {:>25}",
        "rule", "final objective", "test acc", "mean rho (final)", "iters to 90% of best drop"
    );
    for ((name, _), report) in rules.iter().zip(&reports) {
        let first = report.history.records[0].objective;
        let target = first - 0.9 * (first - best_drop);
        let iters_to_target = report
            .history
            .iterations_to_objective(target)
            .map(|i| i.to_string())
            .unwrap_or_else(|| "-".to_string());
        let acc = report.final_accuracy.map(|a| format!("{:.1}%", 100.0 * a)).unwrap_or_default();
        let rho = report
            .history
            .records
            .last()
            .and_then(|r| r.mean_rho)
            .map(|r| format!("{r:.3}"))
            .unwrap_or_default();
        println!(
            "{name:>18}  {:>15.4}  {acc:>8}  {rho:>16}  {iters_to_target:>25}",
            report.final_objective.unwrap()
        );
    }
}
