//! Figure 4: convergence comparison between Newton-ADMM and synchronous SGD —
//! test accuracy and training objective vs simulated time, weak scaling with
//! 8 workers (16 for the E18-like dataset), λ = 1e-5.
//!
//! As in the paper, SGD uses batch size 128 with the best step size from a
//! grid, and Newton-ADMM picks its best CG budget among {10, 20, 30}.
//!
//! ```text
//! cargo run --release -p nadmm-bench --bin fig4
//! ```

use nadmm_baselines::SyncSgdConfig;
use nadmm_bench::{bench_dataset, paper_cluster, weak_shards};
use nadmm_data::DatasetKind;
use nadmm_experiment::{run_spec_on, RunReport, SolverSpec};
use nadmm_metrics::{RunHistory, TextTable};
use newton_admm::NewtonAdmmConfig;

const LAMBDA: f64 = 1e-5;
const EPOCHS: usize = 30;

fn print_series(dataset: &str, history: &RunHistory) {
    let mut t = TextTable::new(
        format!("{dataset} — {}: objective / accuracy vs time", history.solver),
        &["iter", "sim time (s)", "objective", "test acc"],
    );
    let stride = (history.records.len() / 10).max(1);
    for r in history.records.iter().step_by(stride) {
        t.add_row(&[
            r.iteration.to_string(),
            format!("{:.5}", r.sim_time_sec),
            format!("{:.4}", r.objective),
            r.test_accuracy.map(|a| format!("{:.1}%", 100.0 * a)).unwrap_or_default(),
        ]);
    }
    println!("{}", t.to_text());
}

fn main() {
    let mut summary = TextTable::new(
        "Figure 4 summary (weak scaling, λ=1e-5)",
        &[
            "dataset",
            "workers",
            "solver",
            "total sim time (s)",
            "final objective",
            "final acc",
            "speedup (sgd/admm time)",
        ],
    );

    for kind in [DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::Higgs, DatasetKind::E18] {
        let workers = if kind == DatasetKind::E18 { 16 } else { 8 };
        let (train, test) = bench_dataset(kind, 4);
        let per_worker = train.num_samples() / workers;
        let shards = weak_shards(&train, workers, per_worker);
        let cluster = paper_cluster(workers);

        // Newton-ADMM: best of CG ∈ {10, 20, 30}, as in the paper.
        let mut best_admm: Option<RunReport> = None;
        for cg in [10usize, 20, 30] {
            let cfg = NewtonAdmmConfig::default()
                .with_lambda(LAMBDA)
                .with_max_iters(EPOCHS)
                .with_cg_iters(cg);
            let run = run_spec_on(&cluster, &SolverSpec::NewtonAdmm(cfg), &shards, Some(&test), None)
                .expect("a non-grid spec always reports");
            let better = best_admm
                .as_ref()
                .map(|b| {
                    let ours = run.history.final_objective().expect("rho-sweep run recorded no objective");
                    let best = b.history.final_objective().expect("best rho-sweep run recorded no objective");
                    ours < best
                })
                .unwrap_or(true);
            if better {
                best_admm = Some(run);
            }
        }
        let admm = best_admm.expect("at least one Newton-ADMM run");

        // Synchronous SGD: batch 128, best step size from a small grid.
        let sgd_cfg = SyncSgdConfig {
            epochs: EPOCHS,
            lambda: LAMBDA,
            batch_size: 128,
            ..Default::default()
        };
        let sgd_grid = SolverSpec::SyncSgdGrid {
            base: sgd_cfg,
            grid: vec![1e-2, 1e-1, 1.0, 10.0],
        };
        let sgd = run_spec_on(&cluster, &sgd_grid, &shards, Some(&test), None)
            .expect("at least one SGD step size must produce a finite objective");

        let name = format!("{}-like", kind.paper_name().to_lowercase());
        print_series(&name, &admm.history);
        print_series(&name, &sgd.history);

        let speedup = sgd.history.total_sim_time() / admm.history.total_sim_time().max(1e-12);
        for (solver_history, total) in [
            (&admm.history, admm.history.total_sim_time()),
            (&sgd.history, sgd.history.total_sim_time()),
        ] {
            summary.add_row(&[
                name.clone(),
                workers.to_string(),
                solver_history.solver.clone(),
                format!("{total:.4}"),
                format!(
                    "{:.4}",
                    solver_history.final_objective().expect("fig4 run recorded no objective")
                ),
                solver_history
                    .final_accuracy()
                    .map(|a| format!("{:.1}%", 100.0 * a))
                    .unwrap_or_default(),
                format!("{speedup:.2}x"),
            ]);
        }
    }

    println!("{}", summary.to_text());
    println!("Paper shape check: Newton-ADMM total time should be well below synchronous SGD for every dataset (paper: 22.5x HIGGS, 2.48x MNIST, 2.06x CIFAR-10, 3.69x E18).");
}
