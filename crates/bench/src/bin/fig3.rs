//! Figure 3: speed-up ratio of Newton-ADMM over GIANT — the time GIANT needs
//! to reach relative objective θ < 0.05 divided by the time Newton-ADMM
//! needs, under strong and weak scaling, with λ = 1e-5.
//!
//! The reference optimum `x*` is obtained by running single-node Newton to
//! high precision, exactly as in the paper. (As in the paper, the E18 weak
//! scaling column is omitted: the combined dataset would not fit a single
//! node / single reference solve.)
//!
//! ```text
//! cargo run --release -p nadmm-bench --bin fig3
//! ```

use nadmm_baselines::{reference_optimum, Giant, GiantConfig};
use nadmm_bench::{bench_dataset, paper_cluster, strong_shards, weak_shards, WORKER_SWEEP};
use nadmm_data::{Dataset, DatasetKind};
use nadmm_experiment::run_solver_on;
use nadmm_metrics::relative::{iterations_to_relative_objective, speedup_ratio};
use nadmm_metrics::TextTable;
use newton_admm::{NewtonAdmm, NewtonAdmmConfig};

const LAMBDA: f64 = 1e-5;
const THETA: f64 = 0.05;
const MAX_EPOCHS: usize = 60;

fn run_pair(shards: &[Dataset], workers: usize) -> (nadmm_metrics::RunHistory, nadmm_metrics::RunHistory) {
    let cluster = paper_cluster(workers);
    let admm = NewtonAdmm::new(NewtonAdmmConfig::default().with_lambda(LAMBDA).with_max_iters(MAX_EPOCHS));
    let giant = Giant::new(GiantConfig {
        max_iters: MAX_EPOCHS,
        lambda: LAMBDA,
        ..Default::default()
    });
    let admm = run_solver_on(&cluster, &admm, shards, None);
    let giant = run_solver_on(&cluster, &giant, shards, None);
    (admm.history, giant.history)
}

fn main() {
    let kinds = [DatasetKind::Higgs, DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::E18];

    let mut strong = TextTable::new(
        "Figure 3a: strong scaling speed-up ratio (GIANT time / Newton-ADMM time to θ<0.05)",
        &["dataset", "workers", "speedup", "admm iters to θ", "giant iters to θ"],
    );
    let mut weak = TextTable::new(
        "Figure 3b: weak scaling speed-up ratio",
        &["dataset", "workers", "speedup", "admm iters to θ", "giant iters to θ"],
    );

    for kind in kinds {
        let (train, _) = bench_dataset(kind, 3);
        let reference = reference_optimum(&train, LAMBDA);
        for &workers in &WORKER_SWEEP {
            let shards = strong_shards(&train, workers);
            let (admm, giant) = run_pair(&shards, workers);
            let ratio = speedup_ratio(&admm, &giant, reference.f_star, THETA);
            strong.add_row(&[
                format!("{}-like", kind.paper_name().to_lowercase()),
                format!("s{workers}"),
                ratio.map(|r| format!("{r:.2}x")).unwrap_or_else(|| "n/a".to_string()),
                iterations_to_relative_objective(&admm, reference.f_star, THETA)
                    .map(|i| i.to_string())
                    .unwrap_or_else(|| "-".into()),
                iterations_to_relative_objective(&giant, reference.f_star, THETA)
                    .map(|i| i.to_string())
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        // Weak scaling: skip E18 (no single-node reference), as in the paper.
        if kind == DatasetKind::E18 {
            continue;
        }
        let per_worker = train.num_samples() / 8;
        for &workers in &WORKER_SWEEP {
            let shards = weak_shards(&train, workers, per_worker);
            // The reference optimum is recomputed on the union of the shards
            // actually used (weak scaling changes the training set).
            let union: Vec<usize> = (0..workers * per_worker).collect();
            let weak_train = train.select(&union);
            let weak_ref = reference_optimum(&weak_train, LAMBDA);
            let (admm, giant) = run_pair(&shards, workers);
            let ratio = speedup_ratio(&admm, &giant, weak_ref.f_star, THETA);
            weak.add_row(&[
                format!("{}-like", kind.paper_name().to_lowercase()),
                format!("w{workers}"),
                ratio.map(|r| format!("{r:.2}x")).unwrap_or_else(|| "n/a".to_string()),
                iterations_to_relative_objective(&admm, weak_ref.f_star, THETA)
                    .map(|i| i.to_string())
                    .unwrap_or_else(|| "-".into()),
                iterations_to_relative_objective(&giant, weak_ref.f_star, THETA)
                    .map(|i| i.to_string())
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
    }

    println!("{}", strong.to_text());
    println!("{}", weak.to_text());
    println!(
        "Paper shape check: ratios should be ≥ 1 (Newton-ADMM no slower), largest on the ill-conditioned CIFAR-10-like dataset."
    );
}
