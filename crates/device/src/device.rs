//! The simulated device: executes linalg kernels and charges the cost model.

use crate::clock::SimClock;
use crate::spec::DeviceSpec;
use nadmm_linalg::{vector, DenseMatrix, Matrix, SweepBuffers};
use parking_lot::Mutex;
use std::sync::Arc;

/// Running counters describing everything a device has executed. Useful for
/// the benches and for asserting that an algorithm launched the expected
/// number of kernels.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStats {
    /// Number of kernel launches charged.
    pub kernels_launched: u64,
    /// Total floating-point operations charged.
    pub flops: f64,
    /// Total device-memory bytes charged.
    pub bytes_moved: f64,
    /// Total host↔device transfer bytes charged.
    pub transfer_bytes: f64,
    /// Number of host↔device transfers charged.
    pub transfers: u64,
}

/// A simulated accelerator.
///
/// `Device` is cheaply clonable (`Arc` internally) so that a worker can share
/// one device between its objective, solver, and ADMM bookkeeping code; all
/// clones advance the same simulated clock.
#[derive(Debug, Clone)]
pub struct Device {
    spec: DeviceSpec,
    state: Arc<Mutex<DeviceState>>,
}

#[derive(Debug)]
struct DeviceState {
    clock: SimClock,
    stats: DeviceStats,
}

impl Device {
    /// Creates a device with the given hardware spec.
    pub fn new(spec: DeviceSpec) -> Self {
        Self {
            spec,
            state: Arc::new(Mutex::new(DeviceState {
                clock: SimClock::new(),
                stats: DeviceStats::default(),
            })),
        }
    }

    /// Creates a Tesla-P100-class device (the paper's accelerator).
    pub fn p100() -> Self {
        Self::new(DeviceSpec::tesla_p100())
    }

    /// The hardware spec this device simulates.
    pub fn spec(&self) -> DeviceSpec {
        self.spec
    }

    /// Total simulated seconds of device activity so far.
    pub fn elapsed(&self) -> f64 {
        self.state.lock().clock.elapsed()
    }

    /// Snapshot of the execution counters.
    pub fn stats(&self) -> DeviceStats {
        self.state.lock().stats
    }

    /// Resets the clock and counters (e.g. between benchmark repetitions).
    pub fn reset(&self) {
        let mut s = self.state.lock();
        s.clock.reset();
        s.stats = DeviceStats::default();
    }

    /// Charges a kernel with the given FLOP and byte footprint without
    /// executing anything. Building block for composite operations.
    pub fn charge_kernel(&self, flops: f64, bytes: f64) {
        let dt = self.spec.kernel_time(flops, bytes);
        let mut s = self.state.lock();
        s.clock.advance(dt);
        s.stats.kernels_launched += 1;
        s.stats.flops += flops;
        s.stats.bytes_moved += bytes;
        drop(s);
        nadmm_trace::span_dur(nadmm_trace::Tag::KernelLaunch, dt);
    }

    /// Charges a host→device or device→host transfer of `bytes`.
    pub fn charge_transfer(&self, bytes: f64) {
        let dt = self.spec.transfer_time(bytes);
        let mut s = self.state.lock();
        s.clock.advance(dt);
        s.stats.transfers += 1;
        s.stats.transfer_bytes += bytes;
        drop(s);
        nadmm_trace::span_dur(nadmm_trace::Tag::KernelLaunch, dt);
    }

    // --------------------------------------------------------------------
    // Kernels. Each one executes numerically via nadmm-linalg and charges
    // the roofline cost model with its FLOP / byte footprint.
    // --------------------------------------------------------------------

    /// In-place margin kernel `out = X Wᵀ` (`X`: n×p features, `W`: k×p
    /// weights, `out` pre-sized to n×k); sparse `X` allocates its scratch
    /// ([`Device::gemm_nt_scratch_into`] takes it from the caller).
    pub fn gemm_nt_into(&self, x: &Matrix, w: &DenseMatrix, out: &mut DenseMatrix) {
        self.charge_gemm_nt(x, w);
        x.gemm_nt_into(w, out).expect("device gemm_nt: shape mismatch");
    }

    /// In-place margin kernel `out = X Wᵀ` (`out` pre-sized to n×k),
    /// allocating nothing: `scratch` holds at least
    /// [`Matrix::gemm_nt_scratch_len`]`(k)` elements (none for dense `X`).
    pub fn gemm_nt_scratch_into(&self, x: &Matrix, w: &DenseMatrix, scratch: &mut [f64], out: &mut DenseMatrix) {
        self.charge_gemm_nt(x, w);
        x.gemm_nt_scratch_into(w, scratch, out).expect("device gemm_nt: shape mismatch");
    }

    /// Bills one `X Wᵀ` launch.
    fn charge_gemm_nt(&self, x: &Matrix, w: &DenseMatrix) {
        let n = x.rows() as f64;
        let k = w.rows() as f64;
        let nnz = x.stored_entries() as f64;
        // 2 flops per stored feature entry per output class.
        let flops = 2.0 * nnz * k;
        let bytes = (x.storage_bytes() as f64) + (w.len() as f64 + n * k) * 8.0;
        self.charge_kernel(flops, bytes);
    }

    /// Bills one gradient-accumulation launch `Mᵀ X` (`M`: n×k, `X`: n×p).
    fn charge_gemm_tn(&self, x: &Matrix, m: &DenseMatrix) {
        let k = m.cols() as f64;
        let nnz = x.stored_entries() as f64;
        let flops = 2.0 * nnz * k;
        let bytes = (x.storage_bytes() as f64) + (m.len() as f64 + k * x.cols() as f64) * 8.0;
        self.charge_kernel(flops, bytes);
    }

    /// Fused `out = Mᵀ X` with `M = map(X Wᵀ)`, one sweep over `X`
    /// ([`Matrix::gemm_nt_map_tn_into`]). Billing does not know about the
    /// fusion: the margin launch, one launch per `(flops, bytes)` entry of
    /// `map_costs` (the element-wise kernels the row map stands for), then
    /// the accumulation launch are charged in that order before the sweep
    /// runs — the launches of [`Device::gemm_nt_into`], those kernels and
    /// an `Mᵀ X` accumulation called one after another.
    pub fn gemm_nt_map_tn_into<F>(
        &self,
        x: &Matrix,
        w: &DenseMatrix,
        map_costs: &[(f64, f64)],
        bufs: SweepBuffers<'_>,
        map: F,
        out: &mut DenseMatrix,
    ) where
        F: Fn(usize, &mut [f64], &mut [f64]) + Sync,
    {
        self.charge_gemm_nt(x, w);
        for &(flops, bytes) in map_costs {
            self.charge_kernel(flops, bytes);
        }
        self.charge_gemm_tn(x, bufs.mid);
        x.gemm_nt_map_tn_into(w, bufs, map, out)
            .expect("device gemm_nt_map_tn: shape mismatch");
    }

    /// In-place matrix–vector product `out = X v`.
    pub fn matvec_into(&self, x: &Matrix, v: &[f64], out: &mut [f64]) {
        let nnz = x.stored_entries() as f64;
        self.charge_kernel(2.0 * nnz, x.storage_bytes() as f64 + (v.len() + x.rows()) as f64 * 8.0);
        x.matvec_into(v, out).expect("device matvec: shape mismatch");
    }

    /// In-place transposed matrix–vector product `out = Xᵀ v`.
    pub fn t_matvec_into(&self, x: &Matrix, v: &[f64], out: &mut [f64]) {
        let nnz = x.stored_entries() as f64;
        self.charge_kernel(2.0 * nnz, x.storage_bytes() as f64 + (v.len() + x.cols()) as f64 * 8.0);
        x.t_matvec_into(v, out).expect("device t_matvec: shape mismatch");
    }

    /// Dot product of two device-sized vectors.
    pub fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        self.charge_kernel(2.0 * a.len() as f64, (a.len() + b.len()) as f64 * 8.0);
        vector::dot(a, b)
    }

    /// AXPY `y ← a·x + y`.
    pub fn axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        let (flops, bytes) = Self::axpy_cost(x.len());
        self.charge_kernel(flops, bytes);
        vector::axpy(a, x, y);
    }

    /// `(flops, bytes)` [`Device::axpy`] bills for `len` elements.
    pub fn axpy_cost(len: usize) -> (f64, f64) {
        (2.0 * len as f64, (2 * len) as f64 * 8.0)
    }

    /// Fused AXPY + squared norm: `y ← a·x + y`, returning `‖y‖₂²` of the
    /// updated vector. One kernel launch (and one pass over `y`) instead of
    /// the separate [`Device::axpy`] + [`Device::norm2`] pair — this is the
    /// CG residual-update kernel.
    pub fn axpy_dot(&self, a: f64, x: &[f64], y: &mut [f64]) -> f64 {
        self.charge_kernel(4.0 * x.len() as f64, (2 * x.len()) as f64 * 8.0);
        vector::axpy_dot(a, x, y)
    }

    /// Euclidean norm of a device-sized vector.
    pub fn norm2(&self, x: &[f64]) -> f64 {
        self.charge_kernel(2.0 * x.len() as f64, x.len() as f64 * 8.0);
        vector::norm2(x)
    }

    /// Scale `x ← a·x`.
    pub fn scale(&self, a: f64, x: &mut [f64]) {
        self.charge_kernel(x.len() as f64, (2 * x.len()) as f64 * 8.0);
        vector::scale(a, x);
    }

    /// Copy kernel `dst ← src`.
    pub fn copy(&self, src: &[f64], dst: &mut [f64]) {
        self.charge_kernel(0.0, (2 * src.len()) as f64 * 8.0);
        vector::copy(src, dst);
    }

    /// In-place row-wise softmax-with-reference-class kernel: overwrites each
    /// row of `margins` (n×(C−1)) with its class probabilities and writes the
    /// per-row log-partition values into `logz`. `row_scratch` must have
    /// `margins.cols()` elements; it is the only working storage, so repeated
    /// launches with pooled buffers allocate nothing.
    pub fn softmax_rows_into(&self, margins: &mut DenseMatrix, row_scratch: &mut [f64], logz: &mut [f64]) {
        let n = margins.rows();
        let c = margins.cols();
        assert_eq!(row_scratch.len(), c, "softmax_rows_into: scratch must hold one row");
        assert_eq!(logz.len(), n, "softmax_rows_into: logz must hold one value per row");
        let (flops, bytes) = Self::softmax_rows_cost(n, c);
        self.charge_kernel(flops, bytes);
        for (i, lz) in logz.iter_mut().enumerate() {
            let row = margins.row_mut(i);
            *lz = nadmm_linalg::reduce::softmax_with_reference(row, row_scratch);
            row.copy_from_slice(row_scratch);
        }
    }

    /// `(flops, bytes)` [`Device::softmax_rows_into`] bills for `rows × cols`
    /// margins: exp + div per element, max/add per row — call it 5
    /// flops/element.
    pub fn softmax_rows_cost(rows: usize, cols: usize) -> (f64, f64) {
        (5.0 * (rows * cols) as f64, 2.0 * (rows * cols) as f64 * 8.0)
    }
}

impl Default for Device {
    fn default() -> Self {
        Self::p100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadmm_linalg::CsrMatrix;

    fn feature_matrix() -> Matrix {
        Matrix::Dense(DenseMatrix::from_vec(3, 2, vec![1.0, 0.0, 0.5, -1.0, 2.0, 3.0]))
    }

    #[test]
    fn kernels_advance_the_clock_and_counters() {
        let d = Device::p100();
        let x = feature_matrix();
        let w = DenseMatrix::from_vec(2, 2, vec![1.0, 1.0, -1.0, 0.5]);
        let mut z = DenseMatrix::zeros(3, 2);
        d.gemm_nt_into(&x, &w, &mut z);
        assert!(d.elapsed() > 0.0);
        let stats = d.stats();
        assert_eq!(stats.kernels_launched, 1);
        assert!(stats.flops > 0.0);
    }

    #[test]
    fn gemm_results_match_direct_linalg() {
        let d = Device::new(DeviceSpec::cpu_like());
        let x = feature_matrix();
        let w = DenseMatrix::from_vec(2, 2, vec![1.0, 1.0, -1.0, 0.5]);
        let mut z = DenseMatrix::zeros(3, 2);
        d.gemm_nt_into(&x, &w, &mut z);
        assert_eq!(z, x.gemm_nt(&w).unwrap());
        let v = [1.0, -1.0];
        let mut xv = [0.0; 3];
        d.matvec_into(&x, &v, &mut xv);
        assert_eq!(xv.to_vec(), x.matvec(&v).unwrap());
        let u = [1.0, 2.0, 3.0];
        let mut xtu = [0.0; 2];
        d.t_matvec_into(&x, &u, &mut xtu);
        assert_eq!(xtu.to_vec(), x.t_matvec(&u).unwrap());
    }

    #[test]
    fn sparse_matrices_charge_by_nnz() {
        let dense_dev = Device::p100();
        let sparse_dev = Device::p100();
        let dense_x = Matrix::Dense(DenseMatrix::from_fn(100, 50, |i, j| if j == i % 50 { 1.0 } else { 0.0 }));
        let sparse_x = Matrix::Sparse(CsrMatrix::from_dense(&dense_x.to_dense()));
        let w = DenseMatrix::from_fn(4, 50, |_, j| j as f64 * 0.01);
        let (mut zd, mut zs) = (DenseMatrix::zeros(100, 4), DenseMatrix::zeros(100, 4));
        dense_dev.gemm_nt_into(&dense_x, &w, &mut zd);
        sparse_dev.gemm_nt_into(&sparse_x, &w, &mut zs);
        assert_eq!(zd, zs);
        // The sparse kernel touches ~50x fewer entries, so it must be cheaper.
        assert!(sparse_dev.stats().flops < dense_dev.stats().flops);
    }

    #[test]
    fn transfers_are_charged() {
        let d = Device::p100();
        for _ in 0..3 {
            d.charge_transfer(24.0);
        }
        let s = d.stats();
        assert_eq!(s.transfers, 3);
        assert!(s.transfer_bytes > 0.0);
        assert!(d.elapsed() > 0.0);
    }

    #[test]
    fn vector_kernels_match_linalg() {
        let d = Device::new(DeviceSpec::cpu_like());
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert!((d.dot(&a, &b) - 32.0).abs() < 1e-12);
        assert!((d.norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        let mut y = [1.0, 1.0, 1.0];
        d.axpy(2.0, &a, &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
    }

    #[test]
    fn softmax_rows_produces_probabilities() {
        let d = Device::p100();
        let mut m = DenseMatrix::from_vec(2, 3, vec![1.0, 0.0, -1.0, 5.0, 5.0, 5.0]);
        let mut logz = [0.0; 2];
        d.softmax_rows_into(&mut m, &mut [0.0; 3], &mut logz);
        assert!(logz.iter().all(|&lz| lz > 0.0));
        for i in 0..2 {
            let s: f64 = m.row(i).iter().sum();
            assert!(s < 1.0 && s > 0.0);
            assert!(m.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn clones_share_the_clock() {
        let d = Device::p100();
        let d2 = d.clone();
        d2.charge_kernel(1e9, 1e6);
        assert!(d.elapsed() > 0.0);
        assert_eq!(d.elapsed(), d2.elapsed());
        d.reset();
        assert_eq!(d2.elapsed(), 0.0);
        assert_eq!(d2.stats(), DeviceStats::default());
    }

    #[test]
    fn device_kernels_are_bit_identical_across_pool_widths() {
        // The device's compute path runs on the shared linalg kernels, so
        // the objective's forward pass (gemm_nt + softmax rows) must be
        // bit-invariant to the pool width and the par-threshold cutover —
        // the solver-level determinism guarantee starts here.
        let mut rng = nadmm_linalg::gen::seeded_rng(19);
        let x = Matrix::Dense(nadmm_linalg::gen::gaussian_matrix(40, 12, &mut rng));
        let w = nadmm_linalg::gen::gaussian_matrix(5, 12, &mut rng);
        let run = || {
            let d = Device::new(DeviceSpec::cpu_like());
            let mut margins = DenseMatrix::zeros(40, 5);
            d.gemm_nt_into(&x, &w, &mut margins);
            let mut logz = vec![0.0; 40];
            d.softmax_rows_into(&mut margins, &mut [0.0; 5], &mut logz);
            let mut out: Vec<u64> = margins.as_slice().iter().map(|v| v.to_bits()).collect();
            out.extend(logz.iter().map(|v| v.to_bits()));
            out
        };
        rayon::set_num_threads(1);
        nadmm_linalg::set_par_threshold(usize::MAX);
        let reference = run();
        for width in [2, 3, 8] {
            rayon::set_num_threads(width);
            for threshold in [0, usize::MAX] {
                nadmm_linalg::set_par_threshold(threshold);
                assert_eq!(run(), reference, "width={width} threshold={threshold}");
            }
        }
        nadmm_linalg::reset_par_threshold();
        rayon::reset_num_threads();
    }
}
