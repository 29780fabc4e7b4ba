//! The five workloads: what each runs, and why it exists.
//!
//! Ranks = 2 wherever a workload is distributed because the reference host
//! has two cores: one rank thread per core, no oversubscription. Wall-clock
//! rank scaling is deliberately not a workload.

use nadmm_baselines::SyncSgdConfig;
use nadmm_data::SyntheticConfig;
use nadmm_experiment::SolverSpec;
use newton_admm::NewtonAdmmConfig;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 7;
/// Default `--seconds`; `BENCHMARK.json`'s `run_seconds` (a test keeps the
/// two equal).
pub const RUN_SECONDS: u64 = 12;
/// `--smoke` divides every row count by this.
pub const SMOKE_DIVISOR: usize = 16;
/// Largest batch of the serving mix; the request pool never holds fewer rows.
pub const MAX_BATCH: usize = 256;
/// Seconds of the serving mix a training workload runs on the model it just
/// trained (the serving workload runs `--seconds`).
pub const TRAINING_SERVE_SECONDS: f64 = 1.0;
/// In `--smoke` the committed targets do not apply (1/16 of the rows is a
/// different problem); a run only has to get below this share of the
/// starting objective and above this accuracy.
pub const SMOKE_TARGET_REL: f64 = 0.1;
pub const SMOKE_ACCURACY_FLOOR: f64 = 0.5;

/// How the ranks of a workload talk to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// `Experiment::run`: rank threads on the in-process fabric.
    Thread,
    /// Rank threads that each hold a `TcpTransport` over loopback, through
    /// `Experiment::run_with_transport`.
    Tcp,
}

impl Wire {
    pub fn name(self) -> &'static str {
        match self {
            Wire::Thread => "thread",
            Wire::Tcp => "tcp",
        }
    }
}

/// One workload of the benchmark.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (`BENCHMARK.json`'s `why`).
    pub why: &'static str,
    pub data: SyntheticConfig,
    pub ranks: usize,
    /// Width of the rayon-shim pool (`NADMM_THREADS`) the workload runs at.
    pub threads: usize,
    pub wire: Wire,
    pub solver: SolverSpec,
    /// The quality target: `objective <= target_rel * objective[0]`. One
    /// committed constant per workload, placed between two iterations of the
    /// 60–80 % stretch of the budget with as much margin to both as the
    /// solver's convergence allows (see README, "Targets").
    pub target_rel: f64,
    /// A repetition whose final test accuracy is below this has failed.
    pub accuracy_floor: f64,
    /// Training happens in set-up and the measured part is the serving mix.
    pub serving: bool,
}

impl Workload {
    /// The workload at 1/16 of its rows, for `--smoke`.
    pub fn smoke(mut self) -> Self {
        self.data.train_size = (self.data.train_size / SMOKE_DIVISOR).max(2 * self.ranks);
        self.data.test_size = (self.data.test_size / SMOKE_DIVISOR).max(MAX_BATCH);
        self.target_rel = SMOKE_TARGET_REL;
        self.accuracy_floor = SMOKE_ACCURACY_FLOOR;
        self
    }

    /// Flat weight dimension `(C − 1) · p`, the length of every collective
    /// payload and CG vector.
    pub fn weight_dim(&self) -> usize {
        (self.data.num_classes - 1) * self.data.num_features
    }
}

fn mnist_dense() -> SyntheticConfig {
    SyntheticConfig::mnist_like().with_train_size(16_000).with_test_size(2_000)
}

fn admm(iters: usize, lambda: f64) -> SolverSpec {
    // Defaults otherwise: spectral penalty, CG budget 10, one Newton step
    // per outer iteration — the paper's configuration.
    SolverSpec::NewtonAdmm(NewtonAdmmConfig::default().with_max_iters(iters).with_lambda(lambda))
}

/// Every workload, in the order the benchmark runs them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "mnist_dense_2r",
            why: "Paper's headline shape (16000x784, 10 classes), Newton-ADMM on 2 ranks: dense GEMM does the work, 31 collectives should be invisible",
            data: mnist_dense(),
            ranks: 2,
            threads: 1,
            wire: Wire::Thread,
            solver: admm(10, 1e-5),
            target_rel: 1.3e-6,
            accuracy_floor: 0.98,
            serving: false,
        },
        Workload {
            name: "mnist_dense_1r_pool",
            why: "Single-worker baseline of the same task at NADMM_THREADS=2: the only workload where the thread pool dispatches, so pool changes show here alone",
            data: mnist_dense(),
            ranks: 1,
            threads: 2,
            wire: Wire::Thread,
            solver: admm(10, 1e-5),
            target_rel: 9.7e-7,
            accuracy_floor: 0.98,
            serving: false,
        },
        Workload {
            name: "e18_sparse_2r",
            why: "Same solver on 12000x2800 CSR data, 20 classes: sparse products and 7.5x longer vectors and payloads; a dense-GEMM change must not move it",
            data: SyntheticConfig::e18_like(),
            ranks: 2,
            threads: 1,
            wire: Wire::Thread,
            solver: admm(10, 1e-3),
            target_rel: 1.38e-3,
            accuracy_floor: 0.95,
            serving: false,
        },
        Workload {
            name: "sgd_mnist_tcp_2r",
            why: "Sync SGD (batch 32, 30 epochs) over loopback TCP: 15000 latency-bound collectives on the real wire path, the opposite use of the cluster layer",
            data: mnist_dense(),
            ranks: 2,
            threads: 1,
            wire: Wire::Tcp,
            solver: SolverSpec::SyncSgd(SyncSgdConfig {
                epochs: 30,
                batch_size: 32,
                step_size: 0.1,
                ..Default::default()
            }),
            target_rel: 4.07e-5,
            accuracy_floor: 0.98,
            serving: false,
        },
        Workload {
            name: "serve_mnist_mix",
            why: "Serving half: train 4000x784 in set-up, save and load the artifact, then one closed-loop client sends batches of 1/8/32/256 rows at 40/30/20/10 %",
            data: SyntheticConfig::mnist_like().with_train_size(4_000).with_test_size(2_000),
            ranks: 2,
            threads: 1,
            wire: Wire::Thread,
            solver: admm(5, 1e-5),
            target_rel: 4.6e-5,
            accuracy_floor: 0.98,
            serving: true,
        },
    ]
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_divides_rows_and_keeps_the_pool_large_enough() {
        let w = find("mnist_dense_2r").unwrap().smoke();
        assert_eq!(w.data.train_size, 1_000);
        assert_eq!(w.data.test_size, MAX_BATCH);
        assert_eq!(w.target_rel, SMOKE_TARGET_REL);
        let e18 = find("e18_sparse_2r").unwrap();
        assert_eq!(e18.weight_dim(), 53_200);
        assert_eq!(e18.smoke().data.train_size, 750);
    }

    #[test]
    fn exactly_one_workload_runs_wider_than_one_thread() {
        let wide: Vec<_> = all().into_iter().filter(|w| w.threads > 1).map(|w| w.name).collect();
        assert_eq!(wide, ["mnist_dense_1r_pool"]);
        // One rank thread per core of the 2-core reference host.
        assert!(all().iter().all(|w| w.ranks * w.threads <= 2));
    }
}
