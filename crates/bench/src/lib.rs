//! # nadmm-bench
//!
//! Benchmark harness of the reproduction:
//!
//! * the `claims` binary, which runs the experiments behind the paper's
//!   Table 1 and Figures 1–5 once and checks every claim they support
//!   against the committed `CLAIMS.json` ([`claims`] holds the parser and
//!   the comparison; every verdict is on the simulated clock), and
//! * criterion micro-benches for the kernels the solvers are built from
//!   (GEMM, Hessian-vector products, CG, collectives, epoch time, penalty
//!   rules), with `check_*_report` gates over the numbers they record.

use nadmm_data::{Dataset, DatasetKind, SyntheticConfig};

/// Environment variable switching the criterion benches into the fast CI
/// smoke mode (fewer sizes and samples).
pub const BENCH_SMOKE_ENV: &str = "NADMM_BENCH_SMOKE";

/// The values [`BENCH_SMOKE_ENV`] accepts, for error messages.
const BENCH_SMOKE_ACCEPTED: &str = "accepted values: 1/true/yes/on (smoke mode) or 0/false/no/off (full mode)";

/// Whether the benches should run in CI smoke mode, from [`BENCH_SMOKE_ENV`].
///
/// # Panics
/// Panics when the variable is set to a value that is neither a truthy nor a
/// falsy spelling, naming the variable, the bad value, and the accepted
/// values. The old parse (`v != "0"`) silently treated any typo as smoke
/// mode, which quietly shrank a full bench run into a meaningless one —
/// failing loudly is the only safe behaviour (the `NADMM_COLLECTIVE_ALGO`
/// and `NADMM_PAR_THRESHOLD` parsers apply the same rule).
pub fn smoke_mode() -> bool {
    match std::env::var(BENCH_SMOKE_ENV) {
        Ok(raw) => parse_smoke_value(&raw),
        Err(std::env::VarError::NotPresent) => false,
        Err(std::env::VarError::NotUnicode(raw)) => {
            panic!("{BENCH_SMOKE_ENV} is set to a non-UTF-8 value ({raw:?}); {BENCH_SMOKE_ACCEPTED}")
        }
    }
}

/// Parses a [`BENCH_SMOKE_ENV`] value (see [`smoke_mode`] for the contract).
pub fn parse_smoke_value(raw: &str) -> bool {
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => true,
        "0" | "false" | "no" | "off" | "" => false,
        _ => panic!("{BENCH_SMOKE_ENV}='{raw}' is not a valid smoke-mode switch; {BENCH_SMOKE_ACCEPTED}"),
    }
}

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
    fn smoke_values_parse_or_panic_loudly() {
        for truthy in ["1", "true", "YES", " on "] {
            assert!(parse_smoke_value(truthy), "{truthy:?} must enable smoke mode");
        }
        for falsy in ["0", "false", "No", "off", ""] {
            assert!(!parse_smoke_value(falsy), "{falsy:?} must disable smoke mode");
        }
        for bad in ["2", "smoke", "-1", "tru"] {
            let err = std::panic::catch_unwind(|| parse_smoke_value(bad)).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("NADMM_BENCH_SMOKE") && msg.contains("accepted values"),
                "panic for {bad:?} must name the variable and the accepted values: {msg}"
            );
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
