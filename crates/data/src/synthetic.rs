//! Synthetic analogues of the paper's four datasets (Table 1).
//!
//! Every generator draws class-conditional Gaussian data `x | y=c ~ N(μ_c, Σ)`
//! where the class means `μ_c` control separability (test accuracy head-room)
//! and the shared covariance `Σ` controls conditioning of the logistic
//! regression Hessian (`Σ` with a fast-decaying spectrum ⇒ ill-conditioned
//! problem, which is exactly the CIFAR-10-vs-HIGGS distinction the paper's
//! convergence discussion relies on). The E18 analogue additionally applies a
//! sparsification mask and a non-negativity clamp so the feature matrix is a
//! realistic sparse count-like matrix stored in CSR form.
//!
//! The sparse generator's memory is O(nnz): it never builds the dense
//! `n × p` matrix its draws describe. It saves the RNG at the start of each
//! row's normals (32 bytes a row), and computes a normal only where the mask
//! keeps its entry, so it runs Box–Muller for about `density` of the entries.
//! The draws, their order and the arithmetic are those of drawing the whole
//! dense matrix and then masking it, so its output has the same bits
//! (`crates/data/tests/golden_fingerprint.rs` pins them).

use crate::dataset::Dataset;
use nadmm_linalg::{gen, CsrMatrix, DenseMatrix, Matrix};
use rand::{Rng, StdRng};
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Which of the paper's datasets a synthetic config mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetKind {
    /// HIGGS: 2 classes, 28 dense features, 11M samples, well-conditioned.
    Higgs,
    /// MNIST: 10 classes, 784 dense features, 70k samples.
    Mnist,
    /// CIFAR-10: 10 classes, 3072 dense features, 60k samples, ill-conditioned.
    Cifar10,
    /// E18: 20 classes, ~280k sparse features, 1.3M samples.
    E18,
}

impl DatasetKind {
    /// Paper name of the dataset.
    pub fn paper_name(&self) -> &'static str {
        match self {
            DatasetKind::Higgs => "HIGGS",
            DatasetKind::Mnist => "MNIST",
            DatasetKind::Cifar10 => "CIFAR-10",
            DatasetKind::E18 => "E18",
        }
    }

    /// Table 1 row: (classes, samples, test size, features) as in the paper.
    pub fn paper_table1(&self) -> (usize, usize, usize, usize) {
        match self {
            DatasetKind::Higgs => (2, 11_000_000, 1_000_000, 28),
            DatasetKind::Mnist => (10, 70_000, 10_000, 784),
            DatasetKind::Cifar10 => (10, 60_000, 10_000, 3_072),
            DatasetKind::E18 => (20, 1_306_128, 6_000, 279_998),
        }
    }
}

/// Configuration of a synthetic dataset generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Which paper dataset this mimics.
    pub kind: DatasetKind,
    /// Number of training samples to generate.
    pub train_size: usize,
    /// Number of test samples to generate.
    pub test_size: usize,
    /// Feature dimension p.
    pub num_features: usize,
    /// Number of classes C.
    pub num_classes: usize,
    /// Distance between class means (larger ⇒ more separable ⇒ higher
    /// achievable accuracy).
    pub class_separation: f64,
    /// Exponential decay rate of the feature covariance spectrum; `0` gives
    /// an isotropic (well-conditioned) covariance, larger values concentrate
    /// variance in a few directions (ill-conditioned Hessian).
    pub spectrum_decay: f64,
    /// Fraction of feature entries kept (1.0 = dense). Values below 1 switch
    /// the output to CSR storage.
    pub density: f64,
    /// Label noise: probability that a sample's label is replaced by a
    /// uniformly random class.
    pub label_noise: f64,
}

impl SyntheticConfig {
    /// HIGGS analogue: binary, 28 dense features, well-conditioned, modest
    /// separability (the paper reports ~64% test accuracy).
    pub fn higgs_like() -> Self {
        Self {
            kind: DatasetKind::Higgs,
            train_size: 110_000,
            test_size: 10_000,
            num_features: 28,
            num_classes: 2,
            class_separation: 1.0,
            spectrum_decay: 0.02,
            density: 1.0,
            label_noise: 0.25,
        }
    }

    /// MNIST analogue: 10 classes, 784 dense features, fairly separable.
    pub fn mnist_like() -> Self {
        Self {
            kind: DatasetKind::Mnist,
            train_size: 7_000,
            test_size: 1_000,
            num_features: 784,
            num_classes: 10,
            class_separation: 3.0,
            spectrum_decay: 0.005,
            density: 1.0,
            label_noise: 0.02,
        }
    }

    /// CIFAR-10 analogue: 10 classes, 3072 dense features, heavily correlated
    /// (ill-conditioned) and weakly separable — linear models plateau around
    /// 40% accuracy, as in the paper.
    pub fn cifar10_like() -> Self {
        Self {
            kind: DatasetKind::Cifar10,
            train_size: 6_000,
            test_size: 1_000,
            num_features: 3_072,
            num_classes: 10,
            class_separation: 0.8,
            spectrum_decay: 0.01,
            density: 1.0,
            label_noise: 0.3,
        }
    }

    /// E18 analogue: 20 classes, very high-dimensional sparse counts.
    /// The paper's strong-scaling runs subsample 60k training points; the
    /// feature dimension here defaults to a scaled-down 27,998/10 ≈ 2,800
    /// (override with [`SyntheticConfig::with_num_features`]).
    pub fn e18_like() -> Self {
        Self {
            kind: DatasetKind::E18,
            train_size: 12_000,
            test_size: 1_200,
            num_features: 2_800,
            num_classes: 20,
            class_separation: 2.5,
            spectrum_decay: 0.002,
            density: 0.05,
            label_noise: 0.05,
        }
    }

    /// Returns the config for a dataset kind with its default scaled sizes.
    pub fn for_kind(kind: DatasetKind) -> Self {
        match kind {
            DatasetKind::Higgs => Self::higgs_like(),
            DatasetKind::Mnist => Self::mnist_like(),
            DatasetKind::Cifar10 => Self::cifar10_like(),
            DatasetKind::E18 => Self::e18_like(),
        }
    }

    /// Overrides the number of training samples.
    pub fn with_train_size(mut self, n: usize) -> Self {
        self.train_size = n;
        self
    }

    /// Overrides the number of test samples.
    pub fn with_test_size(mut self, n: usize) -> Self {
        self.test_size = n;
        self
    }

    /// Overrides the feature dimension.
    pub fn with_num_features(mut self, p: usize) -> Self {
        self.num_features = p;
        self
    }

    /// Overrides the number of classes.
    pub fn with_num_classes(mut self, c: usize) -> Self {
        self.num_classes = c;
        self
    }

    /// Ratio between this config's sizes and the paper's Table 1 sizes (the
    /// `table1` bench binary prints it for every bench dataset).
    pub fn scale_factor(&self) -> f64 {
        let (_, n_paper, _, _) = self.kind.paper_table1();
        self.train_size as f64 / n_paper as f64
    }

    /// Generates `(train, test)` datasets with the given RNG seed. The two
    /// splits share the same class means and covariance (they are drawn from
    /// the same distribution), so test accuracy measures real generalisation.
    pub fn generate(&self, seed: u64) -> (Dataset, Dataset) {
        let mut rng = gen::seeded_rng(seed);
        let (train, means) = self.generate_split(self.train_size, &mut rng, "train", None);
        let (test, _) = self.generate_split(self.test_size, &mut rng, "test", Some(&means));
        (train, test)
    }

    fn generate_split(
        &self,
        n: usize,
        rng: &mut StdRng,
        split: &str,
        shared_means: Option<&[Vec<f64>]>,
    ) -> (Dataset, Vec<Vec<f64>>) {
        let p = self.num_features;
        let c = self.num_classes;
        let normal = Normal::new(0.0, 1.0).expect("valid normal");

        // Class means: random directions scaled by the separation parameter
        // (reused for the test split so both splits share one distribution).
        let means: Vec<Vec<f64>> = match shared_means {
            Some(m) => m.to_vec(),
            None => (0..c)
                .map(|_| {
                    let mut m = gen::gaussian_vector(p, rng);
                    let norm = nadmm_linalg::vector::norm2(&m).max(1e-12);
                    for v in m.iter_mut() {
                        *v *= self.class_separation / norm * (p as f64).sqrt() / 4.0;
                    }
                    m
                })
                .collect(),
        };

        // Per-feature standard deviations following an exponentially decaying
        // spectrum: sqrt(λ_j) with λ_j = exp(-decay * j).
        let stds: Vec<f64> = (0..p).map(|j| (-self.spectrum_decay * j as f64 / 2.0).exp()).collect();

        let name = format!("{}-like/{split}", self.kind.paper_name().to_lowercase());
        let draw_label = |rng: &mut StdRng| {
            let mut label = rng.gen_range(0..c);
            if self.label_noise > 0.0 && rng.gen::<f64>() < self.label_noise {
                label = rng.gen_range(0..c);
            }
            label
        };
        let mut labels = Vec::with_capacity(n);
        let dataset = if self.density >= 1.0 {
            let mut dense = DenseMatrix::zeros(n, p);
            for i in 0..n {
                let label = draw_label(rng);
                labels.push(label);
                let mu = &means[label];
                let row = dense.row_mut(i);
                for j in 0..p {
                    row[j] = mu[j] + stds[j] * normal.sample(rng);
                }
            }
            Dataset::new(name, Matrix::Dense(dense), labels, c)
        } else {
            // The draws are those of the dense loop above followed by a
            // row-major mask: keep each entry with probability `density`,
            // clamp to non-negative counts (gene-expression-like), drop
            // exact zeros. Pass 1 draws the labels and saves the RNG at each
            // row's normals, skipping the 2p words they take (two uniforms
            // per Box–Muller normal, one word per uniform), which leaves the
            // RNG where the mask starts. Pass 2 reads the mask and computes
            // a row's normal from its saved RNG only where the mask keeps
            // the entry, so no dense matrix is ever built.
            let mut row_rngs = Vec::with_capacity(n);
            for _ in 0..n {
                labels.push(draw_label(rng));
                row_rngs.push(rng.clone());
                for _ in 0..2 * p {
                    rng.next_u64();
                }
            }
            let (mut indptr, mut indices, mut values) = (Vec::with_capacity(n + 1), Vec::new(), Vec::new());
            indptr.push(0);
            for (row_rng, &label) in row_rngs.iter_mut().zip(&labels) {
                let mu = &means[label];
                for j in 0..p {
                    if rng.gen::<f64>() < self.density {
                        let v = mu[j] + stds[j] * normal.sample(row_rng);
                        if v.abs() > 1e-9 {
                            indices.push(j);
                            values.push(v.abs());
                        }
                    } else {
                        row_rng.next_u64();
                        row_rng.next_u64();
                    }
                }
                indptr.push(indices.len());
            }
            indices.shrink_to_fit();
            values.shrink_to_fit();
            let csr = CsrMatrix::from_raw(n, p, indptr, indices, values);
            Dataset::new(name, Matrix::Sparse(csr), labels, c)
        };
        (dataset, means)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_numbers() {
        assert_eq!(DatasetKind::Higgs.paper_table1(), (2, 11_000_000, 1_000_000, 28));
        assert_eq!(DatasetKind::Mnist.paper_table1(), (10, 70_000, 10_000, 784));
        assert_eq!(DatasetKind::Cifar10.paper_table1(), (10, 60_000, 10_000, 3_072));
        assert_eq!(DatasetKind::E18.paper_table1(), (20, 1_306_128, 6_000, 279_998));
        assert_eq!(DatasetKind::E18.paper_name(), "E18");
    }

    #[test]
    fn generators_produce_requested_shapes() {
        let cfg = SyntheticConfig::mnist_like()
            .with_train_size(120)
            .with_test_size(30)
            .with_num_features(20);
        let (train, test) = cfg.generate(7);
        assert_eq!(train.num_samples(), 120);
        assert_eq!(test.num_samples(), 30);
        assert_eq!(train.num_features(), 20);
        assert_eq!(train.num_classes(), 10);
        assert!(!train.is_sparse());
    }

    #[test]
    fn higgs_like_is_binary() {
        let cfg = SyntheticConfig::higgs_like().with_train_size(100).with_test_size(20);
        let (train, _) = cfg.generate(3);
        assert_eq!(train.num_classes(), 2);
        assert!(train.labels().iter().all(|&l| l < 2));
    }

    #[test]
    fn e18_like_is_sparse() {
        let cfg = SyntheticConfig::e18_like()
            .with_train_size(80)
            .with_test_size(20)
            .with_num_features(200);
        let (train, _) = cfg.generate(11);
        assert!(train.is_sparse());
        assert_eq!(train.num_classes(), 20);
        // Density should be roughly the configured 5%.
        let density = train.features().stored_entries() as f64 / (80.0 * 200.0);
        assert!(density < 0.15, "density {density} too high for a sparse dataset");
    }

    #[test]
    fn the_sparse_generator_equals_from_triplets_of_the_same_draws() {
        let sparse_cfg = SyntheticConfig::e18_like().with_train_size(300).with_num_features(200);
        // Density only matters after the dense draws, so the dense twin
        // replays them and leaves the RNG where the mask starts.
        let dense_cfg = SyntheticConfig {
            density: 1.0,
            ..sparse_cfg.clone()
        };
        for seed in [11, 23] {
            let mut rng = gen::seeded_rng(seed);
            let (dense, _) = dense_cfg.generate_split(300, &mut rng, "train", None);
            let dense = dense.features().to_dense();
            let mut triplets = Vec::new();
            for i in 0..300 {
                for j in 0..200 {
                    if rng.gen::<f64>() < sparse_cfg.density && dense.get(i, j).abs() > 1e-9 {
                        triplets.push((i, j, dense.get(i, j).abs()));
                    }
                }
            }
            let expected = CsrMatrix::from_triplets(300, 200, &triplets);
            let (generated, _) = sparse_cfg.generate_split(300, &mut gen::seeded_rng(seed), "train", None);
            let Matrix::Sparse(generated) = generated.features() else {
                panic!("an e18-like dataset is CSR");
            };
            assert_eq!(generated, &expected);
            let bits = |m: &CsrMatrix| (0..300).flat_map(|i| m.row(i).1.to_vec()).map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(generated), bits(&expected));
            assert!(generated.nnz() > 2_000, "the mask kept about 5 % of 60 000 entries");
        }
    }

    #[test]
    fn all_classes_are_represented_for_reasonable_sizes() {
        let cfg = SyntheticConfig::mnist_like()
            .with_train_size(500)
            .with_test_size(50)
            .with_num_features(10);
        let (train, _) = cfg.generate(5);
        let hist = train.class_histogram();
        assert!(hist.iter().all(|&h| h > 0), "every class should appear: {hist:?}");
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let cfg = SyntheticConfig::higgs_like()
            .with_train_size(50)
            .with_test_size(10)
            .with_num_features(5);
        let (a, _) = cfg.generate(1);
        let (b, _) = cfg.generate(1);
        let (c, _) = cfg.generate(2);
        assert_eq!(a.features().to_dense(), b.features().to_dense());
        assert_ne!(a.features().to_dense(), c.features().to_dense());
    }

    #[test]
    fn scale_factor_is_fraction_of_paper_size() {
        let cfg = SyntheticConfig::mnist_like().with_train_size(7_000);
        assert!((cfg.scale_factor() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn for_kind_round_trips() {
        for kind in [DatasetKind::Higgs, DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::E18] {
            assert_eq!(SyntheticConfig::for_kind(kind).kind, kind);
        }
    }

    #[test]
    fn train_and_test_share_class_means() {
        // The two splits must come from the same distribution, otherwise test
        // accuracy is meaningless. Check that per-class empirical means of
        // train and test point in the same direction.
        let cfg = SyntheticConfig::mnist_like()
            .with_train_size(400)
            .with_test_size(400)
            .with_num_features(12)
            .with_num_classes(3);
        let (train, test) = cfg.generate(13);
        for class in 0..3 {
            let mean_of = |d: &crate::dataset::Dataset| {
                let idx: Vec<usize> = d
                    .labels()
                    .iter()
                    .enumerate()
                    .filter(|(_, &l)| l == class)
                    .map(|(i, _)| i)
                    .collect();
                let sel = d.select(&idx).features().to_dense();
                sel.col_means()
            };
            let m_train = mean_of(&train);
            let m_test = mean_of(&test);
            let dot: f64 = m_train.iter().zip(&m_test).map(|(a, b)| a * b).sum();
            let na: f64 = m_train.iter().map(|v| v * v).sum::<f64>().sqrt();
            let nb: f64 = m_test.iter().map(|v| v * v).sum::<f64>().sqrt();
            let cosine = dot / (na * nb).max(1e-12);
            assert!(cosine > 0.8, "class {class} train/test means disagree (cosine {cosine})");
        }
    }

    #[test]
    fn builder_overrides_apply() {
        let cfg = SyntheticConfig::cifar10_like()
            .with_num_classes(4)
            .with_num_features(16)
            .with_train_size(40)
            .with_test_size(8);
        let (train, test) = cfg.generate(9);
        assert_eq!(train.num_classes(), 4);
        assert_eq!(train.num_features(), 16);
        assert_eq!(test.num_samples(), 8);
    }
}
