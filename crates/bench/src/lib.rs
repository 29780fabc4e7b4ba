//! # nadmm-bench
//!
//! The checks of the reproduction that need a whole workspace behind them:
//!
//! * the `claims` binary, which runs the experiments behind the paper's
//!   Table 1 and Figures 1–5 once and checks every claim they support
//!   against the committed `CLAIMS.json` ([`claims`] holds the parser and
//!   the comparison; every verdict is on the simulated clock),
//! * the `check_trace_report` gate over a traced scenario run's report and
//!   Chrome export, and
//! * the counting allocator ([`alloc_counter`]) behind the zero-allocation
//!   proofs in `tests/zero_alloc.rs`.
//!
//! Host-clock numbers come from one place, the `bench_e2e` benchmark under
//! `benchmark/`; the few wall-clock bounds worth asserting are the ignored
//! tests of `tests/timing_gates.rs`.

use nadmm_data::{Dataset, DatasetKind, SyntheticConfig};

/// The dataset configurations the `claims` experiments run on: scaled-down
/// versions of the paper's four datasets that run on one machine.
pub fn bench_config(kind: DatasetKind) -> SyntheticConfig {
    match kind {
        DatasetKind::Higgs => SyntheticConfig::higgs_like()
            .with_train_size(4_096)
            .with_test_size(512)
            .with_num_features(28),
        DatasetKind::Mnist => SyntheticConfig::mnist_like()
            .with_train_size(2_048)
            .with_test_size(512)
            .with_num_features(96),
        DatasetKind::Cifar10 => SyntheticConfig::cifar10_like()
            .with_train_size(1_536)
            .with_test_size(384)
            .with_num_features(128),
        DatasetKind::E18 => SyntheticConfig::e18_like()
            .with_train_size(2_048)
            .with_test_size(256)
            .with_num_features(512),
    }
}

/// Generates `(train, test)` for a dataset kind at bench scale.
pub fn bench_dataset(kind: DatasetKind, seed: u64) -> (Dataset, Dataset) {
    bench_config(kind).generate(seed)
}

/// The worker counts the paper sweeps in Figures 2 and 3.
pub const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_configs_cover_all_kinds() {
        for kind in [DatasetKind::Higgs, DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::E18] {
            let cfg = bench_config(kind);
            assert_eq!(cfg.kind, kind);
            assert!(cfg.train_size >= 64);
        }
    }

    #[test]
    fn shard_helpers_produce_expected_counts() {
        // Weak scaling gives every rank an eighth of the bench-scale set, or
        // a sixteenth on fig 4's and fig 5's 16-rank E18 runs; each sweep must
        // fit in the generated training set.
        for kind in [DatasetKind::Higgs, DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::E18] {
            let (train, _) = bench_dataset(kind, 1);
            for workers in [8, 16] {
                let per_worker = train.num_samples() / workers;
                let (shards, _) = nadmm_data::partition_weak(&train, workers, per_worker);
                assert_eq!(shards.len(), workers);
                assert!(shards.iter().all(|s| s.num_samples() == per_worker), "{kind:?}");
            }
        }
    }
}

pub mod alloc_counter;
pub mod claims;
pub mod report;
