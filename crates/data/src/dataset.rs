//! Labelled classification datasets.

use nadmm_linalg::{gen, DenseMatrix, Matrix};
use rand::Rng;
use std::sync::Arc;

/// A labelled multiclass classification dataset.
///
/// Labels are class indices in `0..num_classes`. Following the paper's
/// parameterisation (§5), class `num_classes − 1` acts as the reference class
/// whose weight vector is pinned to zero, so the model has `(C−1)·p` degrees
/// of freedom.
#[derive(Debug, Clone)]
pub struct Dataset {
    features: Arc<Matrix>,
    labels: Vec<usize>,
    num_classes: usize,
    name: String,
}

impl Dataset {
    /// Creates a dataset from a feature matrix and labels; dense features are
    /// moved behind a shared handle ([`DenseMatrix::into_shared`]).
    ///
    /// # Panics
    /// Panics if the number of labels differs from the number of feature
    /// rows, if `num_classes < 2`, or if a label is out of range.
    pub fn new(name: impl Into<String>, features: Matrix, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(features.rows(), labels.len(), "features/labels length mismatch");
        assert!(num_classes >= 2, "need at least two classes");
        assert!(labels.iter().all(|&l| l < num_classes), "label out of range");
        let features = match features {
            Matrix::Dense(d) => Matrix::Dense(d.into_shared()),
            sparse => sparse,
        };
        Self {
            features: Arc::new(features),
            labels,
            num_classes,
            name: name.into(),
        }
    }

    /// Dataset name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The feature matrix (n × p).
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The shared, immutable handle to the feature matrix: what a clone, a
    /// whole-range slice and an objective built on this dataset hold instead
    /// of a copy.
    pub fn shared_features(&self) -> Arc<Matrix> {
        Arc::clone(&self.features)
    }

    /// The label vector (length n).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of samples n.
    pub fn num_samples(&self) -> usize {
        self.labels.len()
    }

    /// Number of features p.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// Number of classes C.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Dimension of the optimisation variable, `(C−1)·p`.
    pub fn weight_dim(&self) -> usize {
        (self.num_classes - 1) * self.num_features()
    }

    /// Whether the feature matrix is stored sparsely.
    pub fn is_sparse(&self) -> bool {
        self.features.is_sparse()
    }

    /// Returns a new dataset containing rows `start..end`. A slice of every
    /// row shares this dataset's feature matrix; any other slice is a view
    /// of its storage (copy-on-write for dense features; CSR features are
    /// never written), so no feature value is copied.
    pub fn slice(&self, start: usize, end: usize) -> Dataset {
        let features = if (start, end) == (0, self.num_samples()) {
            Arc::clone(&self.features)
        } else {
            Arc::new(self.features.slice_rows(start, end))
        };
        Dataset {
            features,
            labels: self.labels[start..end].to_vec(),
            num_classes: self.num_classes,
            name: format!("{}[{start}..{end}]", self.name),
        }
    }

    /// Returns a new dataset containing the rows selected by `indices`.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset {
            features: Arc::new(self.features.select_rows(&[])),
            labels: Vec::with_capacity(indices.len()),
            num_classes: self.num_classes,
            name: format!("{}[selected {}]", self.name, indices.len()),
        };
        self.select_into(indices, &mut out);
        out
    }

    /// Overwrites `out` with the rows selected by `indices`, keeping `out`'s
    /// name. The features and labels are gathered into `out`'s own buffers
    /// ([`Matrix::select_rows_into`]), so refilling a dense dataset of the
    /// same shape allocates nothing — provided nothing else still holds its
    /// features (an objective built on it, say). If something does, `out`
    /// gets fresh features and the holder keeps the old ones.
    pub fn select_into(&self, indices: &[usize], out: &mut Dataset) {
        if Arc::get_mut(&mut out.features).is_none() {
            out.features = Arc::new(self.features.select_rows(&[]));
        }
        let features = Arc::get_mut(&mut out.features).expect("a fresh feature handle is unique");
        self.features.select_rows_into(indices, features);
        out.labels.clear();
        out.labels.extend(indices.iter().map(|&i| self.labels[i]));
        out.num_classes = self.num_classes;
    }

    /// Randomly subsamples `k` rows without replacement.
    ///
    /// # Panics
    /// Panics if `k > num_samples()`.
    pub fn subsample(&self, k: usize, rng: &mut impl Rng) -> Dataset {
        let idx = gen::sample_without_replacement(self.num_samples(), k, rng);
        self.select(&idx)
    }

    /// Returns a shuffled copy of the dataset.
    pub fn shuffled(&self, rng: &mut impl Rng) -> Dataset {
        let perm = gen::permutation(self.num_samples(), rng);
        self.select(&perm)
    }

    /// Splits into `(train, test)` at `train_fraction` of the samples.
    ///
    /// # Panics
    /// Panics if the fraction is not in `(0, 1)` or the dataset has fewer
    /// than two samples (each side must get at least one).
    pub fn split(&self, train_fraction: f64) -> (Dataset, Dataset) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train_fraction must be in (0,1)"
        );
        let (n, name) = (self.num_samples(), &self.name);
        assert!(n >= 2, "cannot split dataset `{name}` with {n} sample(s): need at least 2");
        let n_train = ((n as f64) * train_fraction).round() as usize;
        let n_train = n_train.clamp(1, n - 1);
        (self.slice(0, n_train), self.slice(n_train, n))
    }

    /// Standardises every feature column (zero mean, unit variance) for dense
    /// feature matrices; sparse matrices are left untouched (centering would
    /// destroy sparsity), matching standard practice for sparse text/genomics
    /// data.
    pub fn standardized(&self) -> Dataset {
        match &*self.features {
            Matrix::Sparse(_) => self.clone(),
            Matrix::Dense(d) => {
                let means = d.col_means();
                let stds = d.col_stds();
                let mut out = d.clone();
                for i in 0..out.rows() {
                    let row = out.row_mut(i);
                    for (j, v) in row.iter_mut().enumerate() {
                        let s = if stds[j] > 1e-12 { stds[j] } else { 1.0 };
                        *v = (*v - means[j]) / s;
                    }
                }
                Dataset {
                    features: Arc::new(Matrix::Dense(out)),
                    labels: self.labels.clone(),
                    num_classes: self.num_classes,
                    name: self.name.clone(),
                }
            }
        }
    }

    /// Per-class sample counts.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.num_classes];
        for &l in &self.labels {
            h[l] += 1;
        }
        h
    }

    /// One-hot indicator matrix over the first `C−1` classes (the reference
    /// class row is all zeros), shape `n × (C−1)`. This is the `Y` matrix in
    /// the softmax gradient `G = (P − Y)ᵀ X`.
    pub fn one_hot_reduced(&self) -> DenseMatrix {
        let c1 = self.num_classes - 1;
        let mut y = DenseMatrix::zeros(self.num_samples(), c1);
        for (i, &l) in self.labels.iter().enumerate() {
            if l < c1 {
                y.set(i, l, 1.0);
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadmm_linalg::gen::seeded_rng;

    fn toy() -> Dataset {
        let x = DenseMatrix::from_vec(4, 2, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        Dataset::new("toy", Matrix::Dense(x), vec![0, 1, 2, 0], 3)
    }

    #[test]
    fn basic_accessors() {
        let d = toy();
        assert_eq!(d.name(), "toy");
        assert_eq!(d.num_samples(), 4);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.num_classes(), 3);
        assert_eq!(d.weight_dim(), 4);
        assert!(!d.is_sparse());
        assert_eq!(d.class_histogram(), vec![2, 1, 1]);
    }

    #[test]
    #[should_panic]
    fn label_out_of_range_is_rejected() {
        let x = DenseMatrix::zeros(1, 1);
        Dataset::new("bad", Matrix::Dense(x), vec![5], 3);
    }

    #[test]
    #[should_panic]
    fn length_mismatch_is_rejected() {
        let x = DenseMatrix::zeros(2, 1);
        Dataset::new("bad", Matrix::Dense(x), vec![0], 2);
    }

    #[test]
    fn slicing_and_selection() {
        let d = toy();
        let s = d.slice(1, 3);
        assert_eq!(s.num_samples(), 2);
        assert_eq!(s.labels(), &[1, 2]);
        let sel = d.select(&[3, 0]);
        assert_eq!(sel.labels(), &[0, 0]);
        assert_eq!(sel.features().to_dense().get(0, 0), 6.0);
    }

    #[test]
    fn select_into_refills_the_same_buffer_with_what_select_returns() {
        let d = toy();
        let mut batch = d.select(&[0, 1]);
        let values = |b: &Dataset| match b.features() {
            Matrix::Dense(m) => m.as_slice().as_ptr(),
            Matrix::Sparse(_) => unreachable!("dense toy"),
        };
        let before = values(&batch);
        for idx in [[3, 0], [2, 2], [1, 3]] {
            d.select_into(&idx, &mut batch);
            let fresh = d.select(&idx);
            assert_eq!((batch.features(), batch.labels()), (fresh.features(), fresh.labels()));
            assert_eq!(batch.name(), "toy[selected 2]", "a refill keeps the name");
            assert_eq!(values(&batch), before, "a warm refill reuses the buffer");
        }
        // Something else holding the features gets to keep them.
        let held = batch.shared_features();
        d.select_into(&[0, 1], &mut batch);
        assert_eq!(held.as_ref(), d.select(&[1, 3]).features());
        assert_eq!(batch.features(), d.select(&[0, 1]).features());
        let csr = nadmm_linalg::CsrMatrix::from_dense(&d.features().to_dense());
        let sparse = Dataset::new("toy-csr", Matrix::Sparse(csr), d.labels().to_vec(), 3);
        let mut sparse_batch = sparse.select(&[0]);
        sparse.select_into(&[3, 1], &mut sparse_batch);
        assert_eq!(sparse_batch.features(), sparse.select(&[3, 1]).features());
    }

    #[test]
    fn subsample_and_shuffle_preserve_population() {
        let d = toy();
        let mut rng = seeded_rng(1);
        let sub = d.subsample(2, &mut rng);
        assert_eq!(sub.num_samples(), 2);
        let sh = d.shuffled(&mut rng);
        assert_eq!(sh.num_samples(), 4);
        let mut h1 = d.class_histogram();
        let mut h2 = sh.class_histogram();
        h1.sort_unstable();
        h2.sort_unstable();
        assert_eq!(h1, h2);
    }

    #[test]
    fn split_fractions() {
        let d = toy();
        let (tr, te) = d.split(0.5);
        assert_eq!(tr.num_samples(), 2);
        assert_eq!(te.num_samples(), 2);
        let (tr, te) = d.split(0.9);
        assert_eq!(tr.num_samples() + te.num_samples(), 4);
        assert!(te.num_samples() >= 1);
    }

    #[test]
    #[should_panic(expected = "cannot split dataset `one` with 1 sample(s)")]
    fn split_rejects_a_single_sample_dataset() {
        Dataset::new("one", Matrix::Dense(DenseMatrix::zeros(1, 2)), vec![0], 2).split(0.5);
    }

    #[test]
    #[should_panic(expected = "cannot split dataset `none` with 0 sample(s)")]
    fn split_rejects_an_empty_dataset() {
        Dataset::new("none", Matrix::Dense(DenseMatrix::zeros(0, 2)), vec![], 2).split(0.5);
    }

    fn shares_storage(a: &Dataset, b: &Dataset) -> bool {
        Arc::ptr_eq(&a.shared_features(), &b.shared_features())
    }

    #[test]
    fn identity_slices_clones_and_sparse_standardization_share_the_features() {
        let d = toy();
        let whole = d.slice(0, 4);
        assert!(shares_storage(&d, &whole));
        assert_eq!(whole.name(), "toy[0..4]");
        assert_eq!(whole.labels(), d.labels());
        assert!(shares_storage(&d, &d.clone()));
        let csr = nadmm_linalg::CsrMatrix::from_dense(&d.features().to_dense());
        let sparse = Dataset::new("toy-csr", Matrix::Sparse(csr), d.labels().to_vec(), 3);
        assert!(shares_storage(&sparse, &sparse.standardized()));
        assert!(shares_storage(&sparse, &sparse.slice(0, 4)));
    }

    /// Whether the first value of `part` is the very value `whole` holds at
    /// `row`: `part` reads `whole`'s buffer rather than a copy of it.
    fn reads_rows_of(part: &Dataset, whole: &Dataset, row: usize) -> bool {
        let (Matrix::Dense(p), Matrix::Dense(w)) = (part.features(), whole.features()) else {
            panic!("expected dense features")
        };
        std::ptr::eq(p.as_slice().as_ptr(), w.row(row).as_ptr())
    }

    #[test]
    fn proper_slices_view_their_rows_selections_and_dense_standardization_copy() {
        let d = toy();
        let tail = d.slice(1, 4);
        assert!(reads_rows_of(&tail, &d, 1), "a proper slice is a view of the parent's rows");
        assert_eq!(tail.features(), &d.features().slice_rows(1, 4));
        assert_eq!(tail.name(), "toy[1..4]");
        let (train, test) = d.split(0.5);
        assert!(reads_rows_of(&train, &d, 0));
        assert!(reads_rows_of(&test, &d, 2));
        assert!(reads_rows_of(&tail.slice(1, 3), &d, 2), "a slice of a view is a view");
        let all = d.select(&[0, 1, 2, 3]);
        assert!(
            !shares_storage(&d, &all) && !reads_rows_of(&all, &d, 0),
            "a selection is a copy even when it names every row"
        );
        assert_eq!(all.features(), &d.features().select_rows(&[0, 1, 2, 3]));
        let standardized = d.standardized();
        assert!(!shares_storage(&d, &standardized) && !reads_rows_of(&standardized, &d, 0));
        assert_eq!(d.features().to_dense().get(3, 1), 7.0, "the source is never written through");
        assert_eq!(tail.features().to_dense().get(2, 1), 7.0, "nor is a view of it");
    }

    #[test]
    fn csr_slices_and_split_halves_read_the_parents_arrays() {
        let d = toy();
        let csr = nadmm_linalg::CsrMatrix::from_dense(&d.features().to_dense());
        let sparse = Dataset::new("toy-csr", Matrix::Sparse(csr), d.labels().to_vec(), 3);
        let Matrix::Sparse(whole) = sparse.features() else {
            unreachable!("built from CSR")
        };
        let reads_row = |part: &Dataset, first: usize| {
            let Matrix::Sparse(m) = part.features() else {
                panic!("a slice of CSR features is CSR")
            };
            (0..m.rows()).all(|i| {
                let ((pc, pv), (wc, wv)) = (m.row(i), whole.row(first + i));
                std::ptr::eq(pc, wc) && std::ptr::eq(pv, wv)
            })
        };
        let (train, test) = sparse.split(0.5);
        assert!(reads_row(&train, 0) && reads_row(&test, 2));
        assert!(reads_row(&sparse.slice(1, 4).slice(1, 3), 2), "a slice of a view is a view");
        let copy = sparse.select(&[2, 3]);
        assert_eq!(test.features(), copy.features());
        assert_eq!(test.features().storage_bytes(), copy.features().storage_bytes());
    }

    #[test]
    fn standardization_centres_dense_columns() {
        let d = toy().standardized();
        if let Matrix::Dense(m) = d.features() {
            let means = m.col_means();
            for mval in means {
                assert!(mval.abs() < 1e-10);
            }
        } else {
            panic!("expected dense");
        }
    }

    #[test]
    fn one_hot_reduced_shape_and_content() {
        let d = toy();
        let y = d.one_hot_reduced();
        assert_eq!(y.rows(), 4);
        assert_eq!(y.cols(), 2);
        assert_eq!(y.get(0, 0), 1.0);
        assert_eq!(y.get(1, 1), 1.0);
        // Sample 2 has the reference class -> all zeros.
        assert_eq!(y.row(2), &[0.0, 0.0]);
    }
}
