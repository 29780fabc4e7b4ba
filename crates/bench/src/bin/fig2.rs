//! Figure 2: average epoch time under strong and weak scaling for
//! Newton-ADMM and GIANT on all four datasets, workers ∈ {1, 2, 4, 8}.
//!
//! ```text
//! cargo run --release -p nadmm-bench --bin fig2
//! ```

use nadmm_baselines::{Giant, GiantConfig};
use nadmm_bench::{bench_dataset, paper_cluster, strong_shards, weak_shards, WORKER_SWEEP};
use nadmm_data::{Dataset, DatasetKind};
use nadmm_experiment::run_solver_on;
use nadmm_metrics::TextTable;
use newton_admm::{NewtonAdmm, NewtonAdmmConfig};

const EPOCHS: usize = 10;
const LAMBDA: f64 = 1e-5;

fn epoch_times(shards: &[Dataset], workers: usize) -> (f64, f64) {
    let cluster = paper_cluster(workers);
    let admm = NewtonAdmm::new(NewtonAdmmConfig::default().with_lambda(LAMBDA).with_max_iters(EPOCHS));
    let giant = Giant::new(GiantConfig {
        max_iters: EPOCHS,
        lambda: LAMBDA,
        ..Default::default()
    });
    let admm = run_solver_on(&cluster, &admm, shards, None);
    let giant = run_solver_on(&cluster, &giant, shards, None);
    (admm.history.avg_epoch_time(), giant.history.avg_epoch_time())
}

fn main() {
    let kinds = [DatasetKind::Higgs, DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::E18];

    let mut strong = TextTable::new(
        "Figure 2 (left): strong scaling — avg epoch time (ms)",
        &["dataset", "workers", "newton-admm", "giant"],
    );
    let mut weak = TextTable::new(
        "Figure 2 (right): weak scaling — avg epoch time (ms)",
        &["dataset", "workers", "newton-admm", "giant"],
    );

    for kind in kinds {
        let (train, _) = bench_dataset(kind, 2);
        // Strong scaling: whole training set split across the workers.
        for &workers in &WORKER_SWEEP {
            let shards = strong_shards(&train, workers);
            let (a, g) = epoch_times(&shards, workers);
            strong.add_row(&[
                format!("{}-like", kind.paper_name().to_lowercase()),
                format!("s{workers}"),
                format!("{:.3}", 1e3 * a),
                format!("{:.3}", 1e3 * g),
            ]);
        }
        // Weak scaling: fixed per-worker shard (an eighth of the bench-scale
        // training set, mirroring the paper's per-node constant size).
        let per_worker = train.num_samples() / 8;
        for &workers in &WORKER_SWEEP {
            let shards = weak_shards(&train, workers, per_worker);
            let (a, g) = epoch_times(&shards, workers);
            weak.add_row(&[
                format!("{}-like", kind.paper_name().to_lowercase()),
                format!("w{workers}"),
                format!("{:.3}", 1e3 * a),
                format!("{:.3}", 1e3 * g),
            ]);
        }
    }

    println!("{}", strong.to_text());
    println!("{}", weak.to_text());
    println!(
        "Paper shape check: under strong scaling epoch time should roughly halve as workers double; \
         under weak scaling it should stay roughly constant; Newton-ADMM should not be slower than GIANT."
    );
}
