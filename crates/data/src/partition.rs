//! Data partitioning for strong- and weak-scaling experiments.
//!
//! * **Strong scaling** (paper Figure 2/3, "s1..s8"): the total number of
//!   training samples is fixed and split evenly across the workers, so more
//!   workers ⇒ fewer samples each.
//! * **Weak scaling** ("w1..w8"): every worker holds a fixed number of
//!   samples, so more workers ⇒ a proportionally bigger total problem.

use crate::dataset::Dataset;
use serde::{Deserialize, Serialize};

/// Describes how a dataset was split across workers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionPlan {
    /// Number of workers.
    pub num_workers: usize,
    /// Number of samples assigned to each worker (by rank).
    pub samples_per_worker: Vec<usize>,
    /// `"strong"` or `"weak"`.
    pub mode: String,
}

impl PartitionPlan {
    /// The plan that describes `shards` (one per worker, in rank order).
    pub fn of(mode: &str, shards: &[Dataset]) -> Self {
        Self {
            num_workers: shards.len(),
            samples_per_worker: shards.iter().map(Dataset::num_samples).collect(),
            mode: mode.to_string(),
        }
    }

    /// Total number of samples across all workers.
    pub fn total_samples(&self) -> usize {
        self.samples_per_worker.iter().sum()
    }
}

/// Rows of worker `w` when `n` samples are strong-scaled across `num_workers`:
/// contiguous, (nearly) equal, the first `n % num_workers` one sample longer.
pub fn strong_range(n: usize, num_workers: usize, w: usize) -> std::ops::Range<usize> {
    let (base, extra) = (n / num_workers, n % num_workers);
    let start = w * base + w.min(extra);
    start..start + base + usize::from(w < extra)
}

/// Strong-scaling partition: splits the *entire* dataset across `num_workers`
/// shards of (nearly) equal size. Every sample is assigned to exactly one
/// worker, in the rows [`strong_range`] gives it. Shards are views of
/// `data`'s feature storage, dense or CSR, not copies (see
/// [`Dataset::slice`]).
///
/// # Panics
/// Panics if `num_workers == 0` or exceeds the number of samples.
pub fn partition_strong(data: &Dataset, num_workers: usize) -> (Vec<Dataset>, PartitionPlan) {
    assert!(num_workers > 0, "need at least one worker");
    let n = data.num_samples();
    assert!(num_workers <= n, "cannot split {n} samples across {num_workers} workers");
    let ranges = (0..num_workers).map(|w| strong_range(n, num_workers, w));
    let shards: Vec<Dataset> = ranges.map(|r| data.slice(r.start, r.end)).collect();
    let plan = PartitionPlan::of("strong", &shards);
    (shards, plan)
}

/// Weak-scaling partition: every worker receives exactly `per_worker`
/// samples taken from the front of the dataset (worker `w` gets samples
/// `[w·per_worker, (w+1)·per_worker)`).
///
/// # Panics
/// Panics if the dataset does not contain `num_workers * per_worker`
/// samples.
pub fn partition_weak(data: &Dataset, num_workers: usize, per_worker: usize) -> (Vec<Dataset>, PartitionPlan) {
    assert!(num_workers > 0, "need at least one worker");
    // An unchecked multiply would wrap in release builds, letting an absurd
    // request slip past the size check below and panic later with an
    // unrelated slicing error.
    let needed = num_workers
        .checked_mul(per_worker)
        .unwrap_or_else(|| panic!("weak scaling with {num_workers} workers × {per_worker} samples/worker overflows usize"));
    assert!(
        data.num_samples() >= needed,
        "weak scaling needs {needed} samples but the dataset has {}",
        data.num_samples()
    );
    let mut shards = Vec::with_capacity(num_workers);
    for w in 0..num_workers {
        shards.push(data.slice(w * per_worker, (w + 1) * per_worker));
    }
    let plan = PartitionPlan::of("weak", &shards);
    (shards, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadmm_linalg::{DenseMatrix, Matrix};

    fn dataset(n: usize) -> Dataset {
        let x = DenseMatrix::from_fn(n, 3, |i, j| (i * 3 + j) as f64);
        let labels: Vec<usize> = (0..n).map(|i| i % 4).collect();
        Dataset::new("part-test", Matrix::Dense(x), labels, 4)
    }

    #[test]
    fn strong_partition_covers_all_samples() {
        let d = dataset(10);
        let (shards, plan) = partition_strong(&d, 3);
        assert_eq!(shards.len(), 3);
        assert_eq!(plan.total_samples(), 10);
        assert_eq!(plan.samples_per_worker, vec![4, 3, 3]);
        assert_eq!(plan.mode, "strong");
        // Shards are disjoint contiguous slices: first rows line up.
        assert_eq!(shards[0].features().to_dense().get(0, 0), 0.0);
        assert_eq!(shards[1].features().to_dense().get(0, 0), 12.0);
    }

    #[test]
    fn strong_partition_halves_shard_size_when_workers_double() {
        let d = dataset(64);
        let (s2, _) = partition_strong(&d, 2);
        let (s4, _) = partition_strong(&d, 4);
        assert_eq!(s2[0].num_samples(), 32);
        assert_eq!(s4[0].num_samples(), 16);
    }

    #[test]
    fn weak_partition_keeps_per_worker_constant() {
        let d = dataset(40);
        let (shards, plan) = partition_weak(&d, 4, 10);
        assert_eq!(shards.len(), 4);
        assert!(shards.iter().all(|s| s.num_samples() == 10));
        assert_eq!(plan.total_samples(), 40);
        assert_eq!(plan.mode, "weak");
    }

    #[test]
    #[should_panic]
    fn weak_partition_requires_enough_samples() {
        let d = dataset(10);
        partition_weak(&d, 4, 10);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn weak_partition_rejects_overflowing_requests_loudly() {
        let d = dataset(10);
        partition_weak(&d, usize::MAX / 2, 3);
    }

    #[test]
    #[should_panic]
    fn strong_partition_rejects_zero_workers() {
        let d = dataset(10);
        partition_strong(&d, 0);
    }

    #[test]
    fn single_worker_partitions_are_identity() {
        let d = dataset(7);
        let (s, plan) = partition_strong(&d, 1);
        assert_eq!(s[0].num_samples(), 7);
        assert_eq!(plan.samples_per_worker, vec![7]);
        let (w, _) = partition_weak(&d, 1, 7);
        assert_eq!(w[0].num_samples(), 7);
    }

    #[test]
    fn a_single_worker_partition_shares_the_feature_storage() {
        let d = dataset(7);
        let shares = |shard: &Dataset| std::sync::Arc::ptr_eq(&shard.shared_features(), &d.shared_features());
        let (s, _) = partition_strong(&d, 1);
        assert!(shares(&s[0]));
        assert_eq!(s[0].name(), "part-test[0..7]");
        assert!(shares(&partition_weak(&d, 1, 7).0[0]));
    }

    #[test]
    fn every_shard_reads_its_rows_from_the_parent_buffer() {
        let d = dataset(13);
        let Matrix::Dense(parent) = d.features() else {
            panic!("expected dense features")
        };
        let first_value = |shard: &Dataset| match shard.features() {
            Matrix::Dense(m) => m.as_slice().as_ptr(),
            Matrix::Sparse(_) => panic!("expected dense features"),
        };
        for workers in 2..=4 {
            let (strong, _) = partition_strong(&d, workers);
            let (weak, _) = partition_weak(&d, workers, 3);
            for w in 0..workers {
                let start = strong_range(13, workers, w).start;
                assert!(std::ptr::eq(first_value(&strong[w]), parent.row(start).as_ptr()));
                assert!(std::ptr::eq(first_value(&weak[w]), parent.row(3 * w).as_ptr()));
            }
        }
    }

    #[test]
    fn every_csr_shard_reads_its_rows_from_the_parent_arrays() {
        let d = crate::SyntheticConfig::e18_like()
            .with_train_size(13)
            .with_test_size(1)
            .with_num_features(60)
            .generate(3)
            .0;
        let Matrix::Sparse(parent) = d.features() else {
            panic!("e18-like features are CSR")
        };
        let reads_rows = |shard: &Dataset, start: usize| {
            let Matrix::Sparse(m) = shard.features() else {
                panic!("a shard of CSR features is CSR")
            };
            (0..m.rows()).all(|i| {
                let ((sc, sv), (pc, pv)) = (m.row(i), parent.row(start + i));
                std::ptr::eq(sc, pc) && std::ptr::eq(sv, pv)
            })
        };
        for workers in 2..=4 {
            let (strong, _) = partition_strong(&d, workers);
            let (weak, _) = partition_weak(&d, workers, 3);
            for w in 0..workers {
                assert!(reads_rows(&strong[w], strong_range(13, workers, w).start));
                assert!(reads_rows(&weak[w], 3 * w));
            }
            let shard_nnz: usize = strong.iter().map(|s| s.features().stored_entries()).sum();
            assert_eq!(shard_nnz, parent.nnz(), "strong shards split the stored entries");
        }
    }

    #[test]
    fn strong_ranges_tile_the_samples_in_rank_order() {
        for n in [1usize, 7, 10, 64] {
            for workers in 1..=n.min(5) {
                let mut next = 0;
                for w in 0..workers {
                    let r = strong_range(n, workers, w);
                    assert_eq!(r.start, next);
                    assert_eq!(r.len(), n / workers + usize::from(w < n % workers));
                    next = r.end;
                }
                assert_eq!(next, n);
            }
        }
    }
}
