//! The simulated device: executes linalg kernels and charges the cost model.

use crate::clock::SimClock;
use crate::spec::{DeviceSpec, Precision};
use nadmm_linalg::{half, vector, DenseMatrix, Matrix, SweepBuffers};
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

    /// Charges a kernel like [`Device::charge_kernel`], but with the compute
    /// term running at `precision`'s multiple of the FP64 rate (the caller
    /// passes bytes already scaled to the storage width).
    pub fn charge_kernel_at(&self, precision: Precision, flops: f64, bytes: f64) {
        let dt = self.spec.kernel_time_at(precision, flops, bytes);
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

    /// In-place gradient-accumulation kernel `out = Mᵀ X` (`M`: n×k, `X`: n×p,
    /// `out` pre-sized to k×p).
    pub fn gemm_tn_into(&self, x: &Matrix, m: &DenseMatrix, out: &mut DenseMatrix) {
        self.charge_gemm_tn(x, m);
        x.gemm_tn_from_dense_into(m, out).expect("device gemm_tn: shape mismatch");
    }

    /// Bills one `Mᵀ X` launch.
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
    /// [`Device::gemm_tn_into`] called one after another.
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

    // --------------------------------------------------------------------
    // Mixed-precision kernels. Each variant stores operands and results at
    // the spec's `precision` (outputs rounded through the storage format),
    // accumulates in the full-width carrier, and bills the roofline with
    // byte footprints scaled to the storage width and the compute term at
    // the precision's throughput multiple. Results are exactly
    // `precision.round(plain_kernel_result)` — the equivalence the tests
    // pin.
    // --------------------------------------------------------------------

    /// f32→f16/bf16 pack kernel: converts `src` into 16-bit storage. One
    /// launch; one conversion per element, reading full-width and writing
    /// half-width.
    pub fn pack_half_into(&self, precision: Precision, src: &[f64], dst: &mut [u16]) {
        assert_eq!(src.len(), dst.len(), "pack_half_into: length mismatch");
        let n = src.len() as f64;
        self.charge_kernel_at(precision, n, n * (8.0 + 2.0));
        match precision {
            Precision::F16 => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = half::f32_to_f16_bits(s as f32);
                }
            }
            Precision::Bf16 => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = half::f32_to_bf16_bits(s as f32);
                }
            }
            Precision::F32 => panic!("pack_half_into: F32 is not a 16-bit storage format"),
        }
    }

    /// f16/bf16→f32 unpack kernel: the inverse of [`Device::pack_half_into`]
    /// (exact — every 16-bit value is representable in the carrier).
    pub fn unpack_half_into(&self, precision: Precision, src: &[u16], dst: &mut [f64]) {
        assert_eq!(src.len(), dst.len(), "unpack_half_into: length mismatch");
        let n = src.len() as f64;
        self.charge_kernel_at(precision, n, n * (2.0 + 8.0));
        match precision {
            Precision::F16 => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = half::f16_bits_to_f32(s) as f64;
                }
            }
            Precision::Bf16 => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = half::bf16_bits_to_f32(s) as f64;
                }
            }
            Precision::F32 => panic!("unpack_half_into: F32 is not a 16-bit storage format"),
        }
    }

    /// Mixed-precision margin kernel `out = X Wᵀ`: operands stream at the
    /// spec's storage width, products accumulate full-width, and the stored
    /// result is rounded through the storage format.
    pub fn gemm_nt_into_mixed(&self, x: &Matrix, w: &DenseMatrix, out: &mut DenseMatrix) {
        let p = self.spec.precision;
        let n = x.rows() as f64;
        let k = w.rows() as f64;
        let nnz = x.stored_entries() as f64;
        let flops = 2.0 * nnz * k;
        let bpe = p.bytes_per_element();
        // The feature operand's storage shrinks with the element width too
        // (the model scales the whole operand, treating sparse index storage
        // as proportionally packed).
        let bytes = (x.storage_bytes() as f64) * (bpe / 8.0) + (w.len() as f64 + n * k) * bpe;
        self.charge_kernel_at(p, flops, bytes);
        x.gemm_nt_into(w, out).expect("device gemm_nt_mixed: shape mismatch");
        for v in out.as_mut_slice() {
            *v = p.round(*v);
        }
    }

    /// Mixed-precision matrix–vector product `out = X v` (accumulate
    /// full-width, store rounded).
    pub fn matvec_into_mixed(&self, x: &Matrix, v: &[f64], out: &mut [f64]) {
        let p = self.spec.precision;
        let nnz = x.stored_entries() as f64;
        let bpe = p.bytes_per_element();
        let bytes = (x.storage_bytes() as f64) * (bpe / 8.0) + (v.len() + x.rows()) as f64 * bpe;
        self.charge_kernel_at(p, 2.0 * nnz, bytes);
        x.matvec_into(v, out).expect("device matvec_mixed: shape mismatch");
        for o in out.iter_mut() {
            *o = p.round(*o);
        }
    }

    /// Mixed-precision row-wise softmax: probabilities are stored rounded to
    /// the spec's precision; the per-row log-partition values stay
    /// full-width (they feed scalar reductions, not storage).
    pub fn softmax_rows_into_mixed(&self, margins: &mut DenseMatrix, row_scratch: &mut [f64], logz: &mut [f64]) {
        let p = self.spec.precision;
        let n = margins.rows();
        let c = margins.cols();
        assert_eq!(row_scratch.len(), c, "softmax_rows_into_mixed: scratch must hold one row");
        assert_eq!(logz.len(), n, "softmax_rows_into_mixed: logz must hold one value per row");
        self.charge_kernel_at(p, 5.0 * (n * c) as f64, 2.0 * (n * c) as f64 * p.bytes_per_element());
        for (i, lz) in logz.iter_mut().enumerate() {
            let row = margins.row_mut(i);
            *lz = nadmm_linalg::reduce::softmax_with_reference(row, row_scratch);
            for (dst, &src) in row.iter_mut().zip(row_scratch.iter()) {
                *dst = p.round(src);
            }
        }
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
        let m = DenseMatrix::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        let mut g = DenseMatrix::zeros(2, 2);
        d.gemm_tn_into(&x, &m, &mut g);
        assert_eq!(g, x.gemm_tn_from_dense(&m).unwrap());
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
    fn pack_unpack_round_trips_and_is_billed() {
        let d = Device::p100();
        let src: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.37).sin() * 3.0).collect();
        for p in [Precision::F16, Precision::Bf16] {
            let mut packed = vec![0u16; src.len()];
            let mut back = vec![0.0f64; src.len()];
            d.pack_half_into(p, &src, &mut packed);
            d.unpack_half_into(p, &packed, &mut back);
            for (&b, &s) in back.iter().zip(&src) {
                assert_eq!(b, p.round(s), "unpack(pack(x)) must equal the rounding of x at {p:?}");
            }
        }
        assert_eq!(d.stats().kernels_launched, 4);
        assert!(d.elapsed() > 0.0);
    }

    #[test]
    fn mixed_kernels_equal_rounded_full_precision_results() {
        for p in [Precision::F32, Precision::F16, Precision::Bf16] {
            let full = Device::p100();
            let mixed = Device::new(DeviceSpec::tesla_p100().with_precision(p));
            let x = feature_matrix();
            let w = DenseMatrix::from_vec(2, 2, vec![1.0, 1.0, -1.0, 0.5]);

            let mut z_full = DenseMatrix::zeros(3, 2);
            full.gemm_nt_into(&x, &w, &mut z_full);
            let mut z_mixed = DenseMatrix::zeros(3, 2);
            mixed.gemm_nt_into_mixed(&x, &w, &mut z_mixed);
            for (m, f) in z_mixed.as_slice().iter().zip(z_full.as_slice()) {
                assert_eq!(*m, p.round(*f), "gemm at {p:?} must store the rounded accumulation");
            }

            let v = [0.25, -1.5];
            let mut mv_full = vec![0.0; 3];
            full.matvec_into(&x, &v, &mut mv_full);
            let mut mv_mixed = vec![0.0; 3];
            mixed.matvec_into_mixed(&x, &v, &mut mv_mixed);
            for (m, f) in mv_mixed.iter().zip(&mv_full) {
                assert_eq!(*m, p.round(*f));
            }

            let mut margins_full = DenseMatrix::from_vec(2, 3, vec![1.0, 0.0, -1.0, 5.0, 5.0, 5.0]);
            let mut margins_mixed = margins_full.clone();
            let mut scratch = vec![0.0; 3];
            let mut logz_full = vec![0.0; 2];
            let mut logz_mixed = vec![0.0; 2];
            full.softmax_rows_into(&mut margins_full, &mut scratch, &mut logz_full);
            mixed.softmax_rows_into_mixed(&mut margins_mixed, &mut scratch, &mut logz_mixed);
            assert_eq!(logz_mixed, logz_full, "log-partition values stay full-width");
            for (m, f) in margins_mixed.as_slice().iter().zip(margins_full.as_slice()) {
                assert_eq!(*m, p.round(*f));
            }
        }
    }

    #[test]
    fn mixed_kernels_are_cheaper_than_full_precision() {
        // A compute-bound GEMM: f16 must beat f32 must beat the FP64 path,
        // both in billed time and in billed bytes.
        let x = Matrix::Dense(DenseMatrix::from_fn(64, 48, |i, j| ((i * 7 + j) as f64 * 0.01).cos()));
        let w = DenseMatrix::from_fn(16, 48, |i, j| ((i + j) as f64 * 0.02).sin());
        let mut out = DenseMatrix::zeros(64, 16);

        let mut elapsed = Vec::new();
        let mut bytes = Vec::new();
        let full = Device::p100();
        full.gemm_nt_into(&x, &w, &mut out);
        elapsed.push(full.elapsed());
        bytes.push(full.stats().bytes_moved);
        for p in [Precision::F32, Precision::F16] {
            let d = Device::new(DeviceSpec::tesla_p100().with_precision(p));
            d.gemm_nt_into_mixed(&x, &w, &mut out);
            elapsed.push(d.elapsed());
            bytes.push(d.stats().bytes_moved);
        }
        assert!(elapsed[1] < elapsed[0], "f32 mixed must beat FP64: {elapsed:?}");
        assert!(elapsed[2] < elapsed[1], "f16 must beat f32: {elapsed:?}");
        assert!(
            bytes[1] == bytes[0] / 2.0 && bytes[2] == bytes[0] / 4.0,
            "storage bytes must scale: {bytes:?}"
        );
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
