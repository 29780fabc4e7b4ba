//! Batched inference sessions: the zero-allocation serving hot path.
//!
//! An [`InferenceSession`] pins a loaded [`ModelArtifact`]'s weights next to
//! a [`Workspace`] pool and a simulated [`Device`], and answers batched
//! classification requests through the same `gemm_nt_into` /
//! `softmax_rows_into` kernels the trainer uses — so serving cost is billed
//! by the same `DeviceSpec` roofline model as training, and a warm
//! [`InferenceSession::predict_batch_into`] call makes **zero** heap
//! allocations (proven by the workspace's pool counters and the
//! counting-allocator test in `crates/bench/tests/zero_alloc.rs`).
//!
//! Decoding reproduces training-time semantics exactly: argmax over the raw
//! margins with the reference class (margin 0) winning ties, the same loop
//! `SoftmaxCrossEntropy::predict` runs. Loading an artifact and predicting
//! on the held-out rows therefore reproduces the `RunReport`'s recorded test
//! accuracy bit-for-bit.

use crate::artifact::{ArtifactError, ModelArtifact};
use nadmm_data::Dataset;
use nadmm_device::{Device, DeviceSpec, Workspace, WorkspaceStats};
use nadmm_linalg::{reduce, DenseMatrix, Matrix};

/// Simulated cost of one batched predict call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchTiming {
    /// Rows in the batch.
    pub batch: usize,
    /// Simulated seconds the batch occupied the device (transfers included).
    pub sim_seconds: f64,
    /// Kernel launches the batch required.
    pub kernels: u64,
}

/// A model pinned to a device and a warm buffer pool, ready to serve.
#[derive(Debug)]
pub struct InferenceSession {
    weights: DenseMatrix,
    num_features: usize,
    num_classes: usize,
    label_names: Vec<String>,
    device: Device,
    ws: Workspace,
}

impl InferenceSession {
    /// Builds a session for `artifact` executing on a device of the given
    /// spec. The weight matrix is uploaded once here (and billed as a
    /// transfer); per-request work only moves batches.
    pub fn new(artifact: &ModelArtifact, spec: DeviceSpec) -> Result<Self, ArtifactError> {
        if artifact.weights.len() != artifact.weight_dim() {
            return Err(ArtifactError::DimMismatch {
                what: "weight count",
                expected: artifact.weight_dim(),
                found: artifact.weights.len(),
            });
        }
        let device = Device::new(spec);
        device.charge_transfer(artifact.weights.len() as f64 * 8.0);
        Ok(Self {
            weights: DenseMatrix::from_vec(artifact.num_classes - 1, artifact.num_features, artifact.weights.clone()),
            num_features: artifact.num_features,
            num_classes: artifact.num_classes,
            label_names: artifact.label_names.clone(),
            device: device.clone(),
            ws: Workspace::new(),
        })
    }

    /// Number of input features `p` a request row must have.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of classes `C` predictions range over.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Human-readable name of a class index.
    pub fn label_name(&self, class: usize) -> &str {
        &self.label_names[class]
    }

    /// The simulated device the session executes on (shared clock).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Total simulated seconds of device activity so far.
    pub fn sim_elapsed(&self) -> f64 {
        self.device.elapsed()
    }

    /// Buffer-pool counters (the zero-allocation proof reads these).
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.ws.stats()
    }

    /// Resets the buffer-pool counters, keeping the pooled buffers.
    pub fn reset_workspace_stats(&mut self) {
        self.ws.reset_stats();
    }

    /// Pre-warms the buffer pool for batches of `batch` rows, so the first
    /// real request at that batch size already runs allocation-free. Runs a
    /// throwaway predict of each decode shape, then resets the pool
    /// counters so warm-path proofs start clean. The throwaway work *is*
    /// billed to the (shared, monotonic) device clock as setup cost — read
    /// [`InferenceSession::sim_elapsed`] before and after if you need to
    /// exclude it.
    pub fn warm(&mut self, batch: usize) {
        assert!(batch > 0, "warm: batch must be at least 1");
        let rows = self.ws.acquire_zeroed(batch * self.num_features);
        let mut out = vec![0usize; batch];
        let elapsed_before = self.device.elapsed();
        // Temporarily move the buffer out so predict can pool-cycle it.
        self.predict_batch_into(&rows, &mut out);
        if self.num_classes >= 2 {
            let mut probs = vec![0.0; batch * self.num_classes.min(2)];
            let mut classes = vec![0usize; batch * self.num_classes.min(2)];
            self.predict_topk_into(&rows, self.num_classes.min(2), &mut classes, &mut probs);
        }
        self.ws.release(rows);
        self.ws.reset_stats();
        debug_assert!(self.device.elapsed() >= elapsed_before);
    }

    /// Classifies a batch given as `out.len()` dense rows of
    /// `num_features()` values each, writing one class index per row. Zero
    /// heap allocations once the pool has seen this batch size.
    ///
    /// # Panics
    /// Panics if `rows.len() != out.len() * num_features()` or the batch is
    /// empty.
    pub fn predict_batch_into(&mut self, rows: &[f64], out: &mut [usize]) -> BatchTiming {
        let batch = out.len();
        assert!(batch > 0, "predict_batch_into: empty batch");
        assert_eq!(
            rows.len(),
            batch * self.num_features,
            "predict_batch_into: need batch × num_features row values"
        );
        let (t0, k0) = (self.device.elapsed(), self.device.stats().kernels_launched);
        // Host → device: the request batch crosses PCIe.
        self.device.charge_transfer(rows.len() as f64 * 8.0);
        let mut input = self.ws.acquire(rows.len());
        input.copy_from_slice(rows);
        let x = Matrix::Dense(DenseMatrix::from_vec(batch, self.num_features, input));
        self.margins_decode(&x, out);
        let Matrix::Dense(input) = x else { unreachable!() };
        self.ws.release(input.into_vec());
        // Device → host: one class index per row comes back.
        self.device.charge_transfer(batch as f64 * 8.0);
        BatchTiming {
            batch,
            sim_seconds: self.device.elapsed() - t0,
            kernels: self.device.stats().kernels_launched - k0,
        }
    }

    /// Classifies every row of a feature matrix (dense or sparse) that is
    /// already device-resident — the bulk-evaluation path. Runs the *same*
    /// margin kernel and decode loop as training-time prediction, so the
    /// results are bit-identical to `SoftmaxCrossEntropy::predict`.
    pub fn predict_matrix_into(&mut self, x: &Matrix, out: &mut [usize]) -> BatchTiming {
        assert_eq!(x.rows(), out.len(), "predict_matrix_into: one output slot per row");
        assert_eq!(x.cols(), self.num_features, "predict_matrix_into: feature-count mismatch");
        assert!(!out.is_empty(), "predict_matrix_into: empty batch");
        let (t0, k0) = (self.device.elapsed(), self.device.stats().kernels_launched);
        self.margins_decode(x, out);
        BatchTiming {
            batch: out.len(),
            sim_seconds: self.device.elapsed() - t0,
            kernels: self.device.stats().kernels_launched - k0,
        }
    }

    /// Shared core: margins = X·Wᵀ through the device GEMM, then the exact
    /// training-time argmax ([`reduce::argmax_with_reference`]). CSR
    /// features take the kernel's class-interleaved copy of `W` from the
    /// pool too.
    fn margins_decode(&mut self, x: &Matrix, out: &mut [usize]) {
        let batch = out.len();
        let c1 = self.num_classes - 1;
        let mut margins = DenseMatrix::from_vec(batch, c1, self.ws.acquire(batch * c1));
        // Dense features take no scratch, and asking the pool for an empty
        // buffer would still count as an acquire.
        let scratch_len = x.gemm_nt_scratch_len(c1);
        let mut scratch = if scratch_len == 0 {
            Vec::new()
        } else {
            self.ws.acquire(scratch_len)
        };
        self.device.gemm_nt_scratch_into(x, &self.weights, &mut scratch, &mut margins);
        if scratch_len != 0 {
            self.ws.release(scratch);
        }
        // Decode pass: one read per margin element.
        self.device
            .charge_kernel(batch as f64 * c1 as f64, batch as f64 * c1 as f64 * 8.0);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = reduce::argmax_with_reference(margins.row(i));
        }
        self.ws.release(margins.into_vec());
    }

    /// Top-`k` decoding with class probabilities: for every row, writes the
    /// `k` most probable class indices (descending) into `classes` and their
    /// softmax probabilities into `probs` (both laid out row-major,
    /// `batch × k`). The implicit reference class participates with
    /// probability `1 − Σ p_c`. Zero allocations once warm.
    ///
    /// Slot 0 is always **the model's prediction** — the same raw-margin
    /// argmax [`InferenceSession::predict_batch_into`] returns (reference
    /// class wins ties at margin 0) — so top-1 and argmax never disagree,
    /// even on exactly tied or numerically-adjacent probabilities. Later
    /// slots order by probability, the reference class winning exact ties.
    ///
    /// # Panics
    /// Panics on shape mismatches or `k` outside `1..=num_classes()`.
    pub fn predict_topk_into(&mut self, rows: &[f64], k: usize, classes: &mut [usize], probs: &mut [f64]) -> BatchTiming {
        assert!(k >= 1 && k <= self.num_classes, "predict_topk_into: k must be in 1..=C");
        assert_eq!(classes.len() % k, 0, "predict_topk_into: classes must hold batch × k slots");
        let batch = classes.len() / k;
        assert!(batch > 0, "predict_topk_into: empty batch");
        assert_eq!(probs.len(), batch * k, "predict_topk_into: probs must hold batch × k slots");
        assert_eq!(
            rows.len(),
            batch * self.num_features,
            "predict_topk_into: need batch × num_features row values"
        );
        let (t0, k0) = (self.device.elapsed(), self.device.stats().kernels_launched);
        self.device.charge_transfer(rows.len() as f64 * 8.0);
        let mut input = self.ws.acquire(rows.len());
        input.copy_from_slice(rows);
        let x = Matrix::Dense(DenseMatrix::from_vec(batch, self.num_features, input));
        let c1 = self.num_classes - 1;
        let mut margins = DenseMatrix::from_vec(batch, c1, self.ws.acquire(batch * c1));
        self.device.gemm_nt_into(&x, &self.weights, &mut margins);
        let Matrix::Dense(input) = x else { unreachable!() };
        self.ws.release(input.into_vec());
        // Raw-margin argmax per row, captured before softmax overwrites the
        // margins in place: slot 0 of the top-k must be the exact class
        // `predict_batch_into` would return (indices fit f64 exactly).
        let mut argmax = self.ws.acquire(batch);
        for (i, slot) in argmax.iter_mut().enumerate() {
            *slot = reduce::argmax_with_reference(margins.row(i)) as f64;
        }
        let mut logz = self.ws.acquire(batch);
        let mut row_scratch = self.ws.acquire(c1);
        self.device.softmax_rows_into(&mut margins, &mut row_scratch, &mut logz);
        self.ws.release(row_scratch);
        self.ws.release(logz);
        // Selection pass: k sweeps over C candidate classes per row.
        self.device
            .charge_kernel((batch * k * self.num_classes) as f64, (batch * c1) as f64 * 8.0);
        for i in 0..batch {
            let row = margins.row(i);
            let explicit_sum: f64 = row.iter().sum();
            let reference_prob = (1.0 - explicit_sum).max(0.0);
            let prob_of = |c: usize| if c < c1 { row[c] } else { reference_prob };
            let out_classes = &mut classes[i * k..(i + 1) * k];
            let out_probs = &mut probs[i * k..(i + 1) * k];
            out_classes[0] = argmax[i] as usize;
            out_probs[0] = prob_of(out_classes[0]);
            for slot in 1..k {
                let mut best = usize::MAX;
                let mut best_prob = f64::NEG_INFINITY;
                // Reference class first so it wins exact probability ties,
                // mirroring the margin argmax's tie-breaking.
                for c in std::iter::once(c1).chain(0..c1) {
                    if out_classes[..slot].contains(&c) {
                        continue;
                    }
                    let p = prob_of(c);
                    if p > best_prob {
                        best_prob = p;
                        best = c;
                    }
                }
                out_classes[slot] = best;
                out_probs[slot] = best_prob;
            }
        }
        self.ws.release(argmax);
        self.ws.release(margins.into_vec());
        self.device.charge_transfer((batch * k) as f64 * 16.0);
        BatchTiming {
            batch,
            sim_seconds: self.device.elapsed() - t0,
            kernels: self.device.stats().kernels_launched - k0,
        }
    }

    /// Classification accuracy on a labelled dataset, through the bulk
    /// prediction path. Reproduces the training-time accuracy exactly on
    /// the same held-out split.
    pub fn accuracy(&mut self, data: &Dataset) -> f64 {
        assert_eq!(data.num_features(), self.num_features, "accuracy: feature-count mismatch");
        let n = data.num_samples();
        if n == 0 {
            return 0.0;
        }
        let mut preds = vec![0usize; n];
        self.predict_matrix_into(data.features(), &mut preds);
        let correct = preds.iter().zip(data.labels()).filter(|(p, l)| p == l).count();
        correct as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Provenance, TensorEncoding};
    use nadmm_data::SyntheticConfig;
    use nadmm_objective::SoftmaxCrossEntropy;

    fn trained_like_problem() -> (Dataset, Dataset, ModelArtifact) {
        let (train, test) = SyntheticConfig::mnist_like()
            .with_train_size(60)
            .with_test_size(24)
            .with_num_features(7)
            .with_num_classes(4)
            .generate(17);
        // A deterministic nontrivial weight vector (not all zeros, so argmax
        // decoding is exercised across classes).
        let dim = train.weight_dim();
        let weights: Vec<f64> = (0..dim).map(|i| ((i as f64) * 0.37).sin() * 0.5).collect();
        let artifact = ModelArtifact::new(
            train.num_features(),
            train.num_classes(),
            (0..train.num_classes()).map(|c| format!("class-{c}")).collect(),
            weights,
            Provenance::default(),
        )
        .unwrap();
        (train, test, artifact)
    }

    #[test]
    fn batched_predictions_match_training_time_predict_exactly() {
        let (train, test, artifact) = trained_like_problem();
        let obj = SoftmaxCrossEntropy::new(&train, 1e-3);
        let expected = obj.predict(test.features(), &artifact.weights);

        let mut session = InferenceSession::new(&artifact, DeviceSpec::tesla_p100()).unwrap();
        let mut preds = vec![0usize; test.num_samples()];
        let timing = session.predict_matrix_into(test.features(), &mut preds);
        assert_eq!(preds, expected, "serving must reproduce training-time predictions");
        assert!(timing.sim_seconds > 0.0);
        assert!(timing.kernels >= 2);

        // Row-batched path over dense rows agrees too.
        let dense = test.features().to_dense();
        let mut row_preds = vec![0usize; test.num_samples()];
        for (i, slot) in row_preds.iter_mut().enumerate() {
            let mut one = [0usize];
            session.predict_batch_into(dense.row(i), &mut one);
            *slot = one[0];
        }
        assert_eq!(row_preds, expected);
    }

    #[test]
    fn accuracy_matches_objective_accuracy_exactly() {
        let (train, test, artifact) = trained_like_problem();
        let obj = SoftmaxCrossEntropy::new(&train, 1e-3);
        let expected = obj.accuracy(&test, &artifact.weights);
        let mut session = InferenceSession::new(&artifact, DeviceSpec::tesla_p100()).unwrap();
        assert_eq!(session.accuracy(&test), expected);
    }

    #[test]
    fn warm_batches_hit_the_pool_and_never_miss() {
        let (_, test, artifact) = trained_like_problem();
        let mut session = InferenceSession::new(&artifact, DeviceSpec::tesla_p100()).unwrap();
        session.warm(8);
        session.reset_workspace_stats();
        let dense = test.features().to_dense();
        let mut out = [0usize; 8];
        for _ in 0..4 {
            session.predict_batch_into(&dense.as_slice()[..8 * session.num_features()], &mut out);
        }
        let stats = session.workspace_stats();
        assert_eq!(stats.pool_misses, 0, "warm predict must not miss the pool: {stats:?}");
        assert!(stats.pool_hits > 0);
        assert_eq!(stats.outstanding, 0, "every pooled buffer must be returned");
    }

    #[test]
    fn larger_batches_amortize_fixed_costs() {
        let (_, test, artifact) = trained_like_problem();
        let mut session = InferenceSession::new(&artifact, DeviceSpec::tesla_p100()).unwrap();
        let dense = test.features().to_dense();
        let p = session.num_features();
        session.warm(1);
        session.warm(16);
        let mut one = [0usize; 1];
        let t1 = session.predict_batch_into(&dense.as_slice()[..p], &mut one);
        let mut sixteen = [0usize; 16];
        let t16 = session.predict_batch_into(&dense.as_slice()[..16 * p], &mut sixteen);
        let per_row_1 = t1.sim_seconds;
        let per_row_16 = t16.sim_seconds / 16.0;
        assert!(
            per_row_16 < per_row_1 / 4.0,
            "batch-16 must amortize launch/transfer latency ≥4×: {per_row_1:.3e}s vs {per_row_16:.3e}s/row"
        );
    }

    /// An artifact of the given shape whose weights are
    /// `sin(0.37·i) · scale(i)`: deterministic, nonzero in every class.
    fn synthetic_artifact(features: usize, classes: usize, scale: impl Fn(usize) -> f64) -> ModelArtifact {
        ModelArtifact::new(
            features,
            classes,
            (0..classes).map(|c| format!("class-{c}")).collect(),
            (0..(classes - 1) * features)
                .map(|i| ((i as f64) * 0.37).sin() * scale(i))
                .collect(),
            Provenance::default(),
        )
        .unwrap()
    }

    #[test]
    fn batch_32_clears_the_batch_speedup_gate_over_batch_1() {
        // The batching scheduler's premise, at the paper's MNIST serving
        // shape on the P100 model: 32-row batches serve at least
        // BATCH_SPEEDUP_GATE times the rows per simulated second of 1-row
        // requests, because launches and transfers amortise.
        let mut session = InferenceSession::new(&synthetic_artifact(784, 10, |_| 0.5), DeviceSpec::tesla_p100()).unwrap();
        let p = session.num_features();
        let mut rows_per_sec = |batch: usize| {
            let rows: Vec<f64> = (0..batch * p).map(|i| ((i as f64) * 0.013).sin()).collect();
            let mut preds = vec![0usize; batch];
            session.warm(batch);
            let timing = session.predict_batch_into(&rows, &mut preds);
            assert!(timing.sim_seconds > 0.0, "the device model must bill the batch");
            batch as f64 / timing.sim_seconds
        };
        let (one, thirty_two) = (rows_per_sec(1), rows_per_sec(32));
        let speedup = thirty_two / one;
        assert!(
            speedup >= crate::BATCH_SPEEDUP_GATE,
            "batch-32 serves {speedup:.2}× the rows/s of batch-1 ({thirty_two:.0} vs {one:.0}; gate: ≥ {}×)",
            crate::BATCH_SPEEDUP_GATE
        );
    }

    #[test]
    fn f16_weights_predict_the_f64_class_on_at_least_99_percent_of_512_rows() {
        // Weights spanning five decades, so f16 rounding is felt at both ends.
        let full = synthetic_artifact(64, 10, |i| 10f64.powi((i % 5) as i32 - 2));
        let half = full.clone().with_weight_encoding(TensorEncoding::F16);
        assert_ne!(half.weights, full.weights, "f16 must round some weights");
        let rows = 512;
        let features: Vec<f64> = (0..rows * full.num_features).map(|i| ((i as f64) * 0.23).sin()).collect();
        let predict = |artifact: &ModelArtifact| {
            let mut session = InferenceSession::new(artifact, DeviceSpec::tesla_p100()).unwrap();
            let mut preds = vec![0usize; rows];
            session.predict_batch_into(&features, &mut preds);
            preds
        };
        let (full_preds, half_preds) = (predict(&full), predict(&half));
        let agree = full_preds.iter().zip(&half_preds).filter(|(a, b)| a == b).count();
        assert!(
            agree as f64 >= 0.99 * rows as f64,
            "f16 weights predict the f64 class on {agree} of {rows} rows (bound: ≥ 99 %)"
        );
    }

    #[test]
    fn topk_orders_probabilities_and_includes_the_reference_class() {
        let (_, test, artifact) = trained_like_problem();
        let c = artifact.num_classes;
        let mut session = InferenceSession::new(&artifact, DeviceSpec::tesla_p100()).unwrap();
        let dense = test.features().to_dense();
        let batch = 6;
        let p = session.num_features();
        let mut classes = vec![0usize; batch * c];
        let mut probs = vec![0.0; batch * c];
        session.predict_topk_into(&dense.as_slice()[..batch * p], c, &mut classes, &mut probs);
        let mut argmax = vec![0usize; batch];
        session.predict_batch_into(&dense.as_slice()[..batch * p], &mut argmax);
        for i in 0..batch {
            let cls = &classes[i * c..(i + 1) * c];
            let pr = &probs[i * c..(i + 1) * c];
            // Probabilities are sorted descending and form a distribution.
            // (Slot 0 is anchored to the raw-margin argmax, so at an exact
            // numerical tie it may trail slot 1 by a rounding error — never
            // more.)
            assert!(pr[0] >= pr[1] - 1e-15, "top-1 must carry the top probability: {pr:?}");
            for w in pr[1..].windows(2) {
                assert!(w[0] >= w[1], "top-k probabilities must be descending: {pr:?}");
            }
            let total: f64 = pr.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "full top-C must sum to 1, got {total}");
            // Every class appears exactly once; the top-1 agrees with argmax.
            let mut seen = vec![false; c];
            for &cl in cls {
                assert!(!seen[cl], "class {cl} listed twice: {cls:?}");
                seen[cl] = true;
            }
            assert_eq!(cls[0], argmax[i], "top-1 must agree with argmax decoding");
        }
    }

    #[test]
    fn topk_top1_matches_argmax_even_on_exact_ties() {
        // All-zero weights: every class (reference included) ties exactly,
        // and the training-time argmax picks the reference class. Top-1
        // must agree — it is the model's prediction, not a float race.
        let (features, c) = (5usize, 4usize);
        let artifact = ModelArtifact::new(
            features,
            c,
            (0..c).map(|i| format!("class-{i}")).collect(),
            vec![0.0; (c - 1) * features],
            Provenance::default(),
        )
        .unwrap();
        let mut session = InferenceSession::new(&artifact, DeviceSpec::tesla_p100()).unwrap();
        let batch = 3;
        let rows: Vec<f64> = (0..batch * features).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut argmax = vec![0usize; batch];
        session.predict_batch_into(&rows, &mut argmax);
        let mut classes = vec![0usize; batch * c];
        let mut probs = vec![0.0; batch * c];
        session.predict_topk_into(&rows, c, &mut classes, &mut probs);
        for i in 0..batch {
            assert_eq!(argmax[i], c - 1, "zero margins must decode to the reference class");
            assert_eq!(classes[i * c], argmax[i], "top-1 must agree with argmax on exact ties");
        }
    }

    #[test]
    fn dimension_mismatches_panic_loudly() {
        let (_, _, artifact) = trained_like_problem();
        let mut session = InferenceSession::new(&artifact, DeviceSpec::tesla_p100()).unwrap();
        let p = session.num_features();
        let rows = vec![0.0; p];
        let mut out = [0usize; 2];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.predict_batch_into(&rows, &mut out);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("num_features"), "panic must name the mismatch: {msg}");
    }

    #[test]
    fn corrupt_artifacts_cannot_build_sessions() {
        let (_, _, mut artifact) = trained_like_problem();
        artifact.weights.pop();
        match InferenceSession::new(&artifact, DeviceSpec::tesla_p100()) {
            Err(ArtifactError::DimMismatch {
                what: "weight count", ..
            }) => {}
            other => panic!("expected a weight-count mismatch, got {other:?}"),
        }
    }
}
