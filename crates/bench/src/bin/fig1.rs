//! Figure 1: training objective vs time for Newton-ADMM, GIANT, InexactDANE
//! and AIDE on the MNIST-like dataset with λ = 1e-5, 8 workers.
//!
//! The paper's qualitative result: Newton-ADMM and GIANT reach low objective
//! values in seconds, while InexactDANE/AIDE start lower (their first step is
//! a full subproblem solve) but cost orders of magnitude more time per epoch.
//!
//! ```text
//! cargo run --release -p nadmm-bench --bin fig1
//! ```

use nadmm_baselines::{AideConfig, DaneConfig, GiantConfig};
use nadmm_bench::{bench_dataset, paper_cluster, strong_shards};
use nadmm_data::DatasetKind;
use nadmm_experiment::{run_spec_on, SolverSpec};
use nadmm_metrics::{RunHistory, TextTable};
use newton_admm::NewtonAdmmConfig;

fn print_series(history: &RunHistory) {
    let mut table = TextTable::new(
        format!("{} — objective vs simulated time", history.solver),
        &["iter", "sim time (s)", "objective"],
    );
    let stride = (history.records.len() / 12).max(1);
    for r in history.records.iter().step_by(stride) {
        table.add_row(&[
            r.iteration.to_string(),
            format!("{:.5}", r.sim_time_sec),
            format!("{:.4}", r.objective),
        ]);
    }
    if let Some(last) = history.records.last() {
        table.add_row(&[
            last.iteration.to_string(),
            format!("{:.5}", last.sim_time_sec),
            format!("{:.4}", last.objective),
        ]);
    }
    println!("{}", table.to_text());
}

fn main() {
    let lambda = 1e-5;
    let workers = 8;
    let (train, _test) = bench_dataset(DatasetKind::Mnist, 1);
    let shards = strong_shards(&train, workers);
    let cluster = paper_cluster(workers);

    // Paper settings: 10 CG iterations, tol 1e-4, 10 line-search iterations,
    // 100 epochs for Newton-ADMM and GIANT, 10 for InexactDANE/AIDE.
    let second_order_epochs = 100;
    let dane_epochs = 10;

    let admm = SolverSpec::NewtonAdmm(
        NewtonAdmmConfig::default()
            .with_lambda(lambda)
            .with_max_iters(second_order_epochs),
    );
    let giant = SolverSpec::Giant(GiantConfig {
        max_iters: second_order_epochs,
        lambda,
        ..Default::default()
    });
    let dane_cfg = DaneConfig {
        max_iters: dane_epochs,
        lambda,
        svrg_iters: 100,
        svrg_step: 3e-4,
        ..Default::default()
    };
    let aide = SolverSpec::Aide(AideConfig {
        dane: dane_cfg,
        tau: 10.0,
        zeta: 0.3,
    });
    let [admm, giant, dane, aide] = [admm, giant, SolverSpec::InexactDane(dane_cfg), aide]
        .map(|spec| run_spec_on(&cluster, &spec, &shards, None, None).expect("a non-grid spec always reports"));

    for history in [&admm.history, &giant.history, &dane.history, &aide.history] {
        print_series(history);
    }

    let mut summary = TextTable::new(
        "Figure 1 summary (MNIST-like, λ=1e-5, 8 workers)",
        &[
            "solver",
            "epochs",
            "avg epoch time (s)",
            "final objective",
            "time to objective < 0.45·F(0) (s)",
        ],
    );
    let f0 = admm.history.records[0].objective;
    let target = 0.45 * f0;
    for history in [&admm.history, &giant.history, &dane.history, &aide.history] {
        summary.add_row(&[
            history.solver.clone(),
            (history.records.len() - 1).to_string(),
            format!("{:.5}", history.avg_epoch_time()),
            format!("{:.4}", history.final_objective().expect("fig1 run recorded no objective")),
            history
                .time_to_objective(target)
                .map(|t| format!("{t:.4}"))
                .unwrap_or_else(|| "never".to_string()),
        ]);
    }
    println!("{}", summary.to_text());
    println!(
        "Paper shape check: InexactDANE/AIDE avg epoch time should be orders of magnitude above Newton-ADMM/GIANT \
         (here {:.2e}s and {:.2e}s vs {:.2e}s and {:.2e}s).",
        dane.history.avg_epoch_time(),
        aide.history.avg_epoch_time(),
        admm.history.avg_epoch_time(),
        giant.history.avg_epoch_time()
    );
}
