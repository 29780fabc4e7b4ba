//! # nadmm-data
//!
//! Datasets for the Newton-ADMM reproduction.
//!
//! The paper evaluates on four public datasets (Table 1): HIGGS, MNIST,
//! CIFAR-10 and E18. Those datasets (and the disk space / download channel to
//! fetch them) are not available here, so this crate provides *synthetic
//! analogues* with matched shape: the same class counts, (scaled) feature
//! dimensions, sparsity patterns and — most importantly for the optimizer
//! comparison — matched conditioning (HIGGS well-conditioned and nearly
//! separable, CIFAR-10 ill-conditioned with heavily correlated features, E18
//! sparse and extremely high-dimensional). A LIBSVM reader is included so
//! that the real datasets can be dropped in unchanged when available.
//!
//! The crate also provides the strong/weak-scaling partitioners used by every
//! distributed experiment (Figures 2–5).

pub mod dataset;
pub mod libsvm;
pub mod partition;
pub mod synthetic;

pub use dataset::Dataset;
pub use libsvm::{
    parse_libsvm, parse_libsvm_pair, parse_libsvm_with_schema, read_libsvm, read_libsvm_pair, read_libsvm_with_schema,
    LibsvmError, LibsvmSchema,
};
pub use partition::{partition_strong, partition_weak, strong_range, PartitionPlan};
pub use synthetic::{DatasetKind, SyntheticConfig};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_are_usable() {
        let cfg = SyntheticConfig::mnist_like().with_train_size(50).with_test_size(10);
        let (train, test) = cfg.generate(1);
        assert_eq!(train.num_samples(), 50);
        assert_eq!(test.num_samples(), 10);
        assert_eq!(train.num_classes(), 10);
    }
}
