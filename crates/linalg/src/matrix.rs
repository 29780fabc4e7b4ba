//! A unified feature-matrix type over dense and sparse storage.
//!
//! The objectives (`nadmm-objective`) and solvers never care whether the
//! feature matrix is dense (HIGGS/MNIST/CIFAR-like) or sparse (E18-like);
//! they only need the four kernels below. `Matrix` dispatches to the right
//! implementation.

use crate::dense::{self, DenseMatrix};
use crate::error::{LinalgError, Result};
use crate::sparse::{self, CsrMatrix};
use crate::vector::SendMutPtr;

/// Caller-owned buffers of one [`Matrix::gemm_nt_map_tn_into`] sweep, so the
/// sweep itself never allocates.
pub struct SweepBuffers<'a> {
    /// `rows × W.rows` scratch the sweep carries `X·Wᵀ` and its mapped form
    /// through; it holds the mapped matrix `M` afterwards.
    pub mid: &'a mut DenseMatrix,
    /// One scalar per row for the row map to write (a per-sample loss term),
    /// or empty when the map produces none.
    pub row_out: &'a mut [f64],
    /// At least [`Matrix::sweep_scratch_len`]`(W.rows)` elements, contents
    /// unspecified: the chunk partials, and for sparse features the
    /// class-interleaved copies of `W` and of the accumulator.
    pub scratch: &'a mut [f64],
}

/// The storage-independent part of one [`Matrix::gemm_nt_map_tn_into`] call.
struct Sweep<F> {
    rows: usize,
    k: usize,
    use_pool: bool,
    /// `rows × k`.
    mid: SendMutPtr,
    /// `rows × row_out_cols`.
    row_out: SendMutPtr,
    row_out_cols: usize,
    map: F,
}

impl<F> Sweep<F>
where
    F: Fn(usize, &mut [f64], &mut [f64]) + Sync,
{
    /// Drives the sweep through [`crate::scatter_rows`] into `acc`:
    /// `nt(b, be, block)` writes rows `b..be` of `A · Wᵀ` into `block`, and
    /// `tn(b, be, block, dst)` accumulates the products of the mapped `block`
    /// with those rows of `A` into `dst`, which is laid out like `acc`.
    fn run<NT, TN>(&self, acc: &mut [f64], partials: &mut [f64], nt: NT, tn: TN)
    where
        NT: Fn(usize, usize, &mut [f64]) + Sync,
        TN: Fn(usize, usize, &[f64], &mut [f64]) + Sync,
    {
        let (k, row_out_cols) = (self.k, self.row_out_cols);
        crate::scatter_rows(self.rows, self.use_pool, acc, partials, |dst, s, e| {
            for b in (s..e).step_by(crate::SWEEP_ROWS) {
                let be = (b + crate::SWEEP_ROWS).min(e);
                // SAFETY: canonical chunks are disjoint row ranges and the
                // sub-blocks of one chunk are visited one after another, so
                // this call owns rows `b..be` of `mid` and of `row_out`
                // exclusively; both ranges lie inside their buffers (`mid` is
                // `rows × k`, `row_out` is `rows × row_out_cols`).
                let (block, scalars) = unsafe {
                    (
                        std::slice::from_raw_parts_mut(self.mid.get().add(b * k), (be - b) * k),
                        std::slice::from_raw_parts_mut(self.row_out.get().add(b * row_out_cols), (be - b) * row_out_cols),
                    )
                };
                nt(b, be, block);
                (self.map)(b, block, scalars);
                tn(b, be, block, dst);
            }
        });
    }
}

/// Feature matrix that is either dense or CSR sparse.
#[derive(Debug, Clone, PartialEq)]
pub enum Matrix {
    /// Dense row-major storage.
    Dense(DenseMatrix),
    /// Compressed sparse row storage.
    Sparse(CsrMatrix),
}

impl Matrix {
    /// Number of rows (samples).
    pub fn rows(&self) -> usize {
        match self {
            Matrix::Dense(m) => m.rows(),
            Matrix::Sparse(m) => m.rows(),
        }
    }

    /// Number of columns (features).
    pub fn cols(&self) -> usize {
        match self {
            Matrix::Dense(m) => m.cols(),
            Matrix::Sparse(m) => m.cols(),
        }
    }

    /// Number of stored entries: `rows*cols` for dense, `nnz` for sparse.
    pub fn stored_entries(&self) -> usize {
        match self {
            Matrix::Dense(m) => m.len(),
            Matrix::Sparse(m) => m.nnz(),
        }
    }

    /// Whether this matrix uses sparse storage.
    pub fn is_sparse(&self) -> bool {
        matches!(self, Matrix::Sparse(_))
    }

    /// Matrix–vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        match self {
            Matrix::Dense(m) => m.matvec(x),
            Matrix::Sparse(m) => m.matvec(x),
        }
    }

    /// Transposed matrix–vector product `Aᵀ x`.
    pub fn t_matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        match self {
            Matrix::Dense(m) => m.t_matvec(x),
            Matrix::Sparse(m) => m.t_matvec(x),
        }
    }

    /// In-place matrix–vector product `y = A x`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        match self {
            Matrix::Dense(m) => m.matvec_into(x, y),
            Matrix::Sparse(m) => m.matvec_into(x, y),
        }
    }

    /// In-place transposed matrix–vector product `y = Aᵀ x`.
    pub fn t_matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        match self {
            Matrix::Dense(m) => m.t_matvec_into(x, y),
            Matrix::Sparse(m) => m.t_matvec_into(x, y),
        }
    }

    /// `A · Wᵀ` with dense `W` (shape `k × cols`); returns dense `rows × k`.
    ///
    /// This computes the per-sample class margins `Z = X Wᵀ`.
    pub fn gemm_nt(&self, w: &DenseMatrix) -> Result<DenseMatrix> {
        match self {
            Matrix::Dense(m) => m.gemm_nt(w),
            Matrix::Sparse(m) => m.gemm_nt(w),
        }
    }

    /// `Mᵀ · A` with dense `M` (shape `rows × k`); returns dense `k × cols`.
    ///
    /// This accumulates gradients / Hessian-vector products back into weight
    /// space: `G = (P − Y)ᵀ X`.
    pub fn gemm_tn_from_dense(&self, m: &DenseMatrix) -> Result<DenseMatrix> {
        match self {
            Matrix::Dense(a) => m.gemm_tn(a),
            Matrix::Sparse(a) => a.gemm_tn_from_dense(m),
        }
    }

    /// In-place `A · Wᵀ` into a pre-sized dense `out` (`rows × W.rows`);
    /// sparse features allocate their scratch
    /// ([`Matrix::gemm_nt_scratch_into`] takes it from the caller).
    pub fn gemm_nt_into(&self, w: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        match self {
            Matrix::Dense(m) => m.gemm_nt_into(w, out),
            Matrix::Sparse(m) => m.gemm_nt_into(w, out),
        }
    }

    /// Scratch elements [`Matrix::gemm_nt_scratch_into`] needs for `k`
    /// classes: none for dense features, [`CsrMatrix::packed_len`] for
    /// sparse ones.
    pub fn gemm_nt_scratch_len(&self, k: usize) -> usize {
        match self {
            Matrix::Dense(_) => 0,
            Matrix::Sparse(m) => m.packed_len(k),
        }
    }

    /// In-place `A · Wᵀ` into a pre-sized dense `out` (`rows × W.rows`),
    /// allocating nothing: `scratch` holds at least
    /// [`Matrix::gemm_nt_scratch_len`]`(W.rows)` elements (contents
    /// unspecified).
    pub fn gemm_nt_scratch_into(&self, w: &DenseMatrix, scratch: &mut [f64], out: &mut DenseMatrix) -> Result<()> {
        match self {
            Matrix::Dense(m) => m.gemm_nt_into(w, out),
            Matrix::Sparse(m) => m.gemm_nt_scratch_into(w, scratch, out),
        }
    }

    /// In-place `Mᵀ · A` into a pre-sized dense `out` (`M.cols × cols`).
    pub fn gemm_tn_from_dense_into(&self, m: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        match self {
            Matrix::Dense(a) => m.gemm_tn_into(a, out),
            Matrix::Sparse(a) => a.gemm_tn_from_dense_into(m, out),
        }
    }

    /// Fused `out = Mᵀ · A` with `M = map(A · Wᵀ)`, reading `A` once: the
    /// result of [`Matrix::gemm_nt_into`], a row-wise map, then
    /// [`Matrix::gemm_tn_from_dense_into`], bit for bit, at every pool width
    /// and threshold.
    ///
    /// Within each canonical row chunk (the crate's
    /// [reduction order](crate#reduction-order)) the sweep takes
    /// `SWEEP_ROWS` (32) rows at a time — their rows of
    /// `A · Wᵀ`, then `map(first_row, block, row_out)` on those rows of `mid`
    /// (row-major, `W.rows` per row) and of `bufs.row_out`, then their
    /// products into the chunk's partial — so the feature rows are still in
    /// cache for the second product. The order contract is `scatter_rows`':
    /// rows of `A · Wᵀ` are independent, every partial starts from exact
    /// zeros and receives its rows in ascending order, and partials fold
    /// left to right in chunk order. `map` must treat rows independently of
    /// each other and of how they are grouped into calls; it runs on the
    /// pool workers.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] unless `W` is `k × cols`, `mid`
    /// is `rows × k`, `out` is `k × cols`, and `row_out` is empty or `rows`
    /// long.
    ///
    /// # Panics
    /// Panics if `bufs.scratch` is shorter than the stated minimum.
    pub fn gemm_nt_map_tn_into<F>(&self, w: &DenseMatrix, bufs: SweepBuffers<'_>, map: F, out: &mut DenseMatrix) -> Result<()>
    where
        F: Fn(usize, &mut [f64], &mut [f64]) + Sync,
    {
        let SweepBuffers { mid, row_out, scratch } = bufs;
        let (rows, k) = (self.rows(), w.rows());
        let shapes_agree = w.cols() == self.cols()
            && (mid.rows(), mid.cols()) == (rows, k)
            && (out.rows(), out.cols()) == (k, self.cols())
            && (row_out.is_empty() || row_out.len() == rows);
        if !shapes_agree {
            return Err(LinalgError::ShapeMismatch(format!(
                "gemm_nt_map_tn_into: A is {rows}x{}, W is {k}x{}, mid is {}x{}, out is {}x{}, row_out has length {}",
                self.cols(),
                w.cols(),
                mid.rows(),
                mid.cols(),
                out.rows(),
                out.cols(),
                row_out.len()
            )));
        }
        if k == 0 {
            return Ok(());
        }
        let sweep = Sweep {
            rows,
            k,
            use_pool: self.stored_entries().max(w.len()).max(mid.len()) >= crate::par_threshold(),
            mid: SendMutPtr(mid.as_mut_slice().as_mut_ptr()),
            row_out: SendMutPtr(row_out.as_mut_ptr()),
            row_out_cols: usize::from(!row_out.is_empty()),
            map,
        };
        match self {
            Matrix::Dense(a) => sweep.run(
                out.as_mut_slice(),
                scratch,
                |b, be, block| a.nt_rows(b, be, w, block),
                |b, be, block, dst| dense::tn_rows_acc(block, k, a.rows_slice(b, be), a.cols(), dst),
            ),
            Matrix::Sparse(a) => {
                // `W` goes in and the accumulator comes out class-interleaved,
                // each converted once per sweep; the partials fold
                // elementwise, so they never leave that layout.
                let (wt, rest) = scratch.split_at_mut(a.packed_len(k));
                let (acc_t, partials) = rest.split_at_mut(a.packed_len(k));
                sparse::pack_classes(w, wt);
                let wt = &*wt;
                sweep.run(
                    acc_t,
                    partials,
                    |b, be, block| a.nt_rows(b, be, wt, k, block),
                    |b, be, block, dst_t| a.tn_rows_acc(b, be, block, k, dst_t),
                );
                sparse::unpack_classes(acc_t, out);
            }
        }
        Ok(())
    }

    /// Scratch elements one [`Matrix::gemm_nt_map_tn_into`] sweep with a
    /// `k`-row `W` needs: [`crate::row_partials`]`(rows)` accumulators of
    /// `k × cols`, and for sparse features two more, all of them in the
    /// class-interleaved layout ([`CsrMatrix::packed_len`]).
    pub fn sweep_scratch_len(&self, k: usize) -> usize {
        let partials = crate::row_partials(self.rows());
        match self {
            Matrix::Dense(m) => partials * k * m.cols(),
            Matrix::Sparse(m) => (2 + partials) * m.packed_len(k),
        }
    }

    /// Returns a new matrix containing rows `start..end`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        match self {
            Matrix::Dense(m) => Matrix::Dense(m.slice_rows(start, end)),
            Matrix::Sparse(m) => Matrix::Sparse(m.slice_rows(start, end)),
        }
    }

    /// Returns a new matrix containing the rows selected by `indices`.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        match self {
            Matrix::Dense(m) => Matrix::Dense(m.select_rows(indices)),
            Matrix::Sparse(m) => Matrix::Sparse(m.select_rows(indices)),
        }
    }

    /// Returns a dense copy (potentially large for big sparse matrices).
    pub fn to_dense(&self) -> DenseMatrix {
        match self {
            Matrix::Dense(m) => m.clone(),
            Matrix::Sparse(m) => m.to_dense(),
        }
    }

    /// Approximate number of bytes used to store the matrix payload. Used by
    /// the device/cluster cost models to size transfers.
    pub fn storage_bytes(&self) -> usize {
        match self {
            Matrix::Dense(m) => m.len() * std::mem::size_of::<f64>(),
            Matrix::Sparse(m) => m.nnz() * (std::mem::size_of::<f64>() + std::mem::size_of::<usize>()),
        }
    }
}

impl From<DenseMatrix> for Matrix {
    fn from(m: DenseMatrix) -> Self {
        Matrix::Dense(m)
    }
}

impl From<CsrMatrix> for Matrix {
    fn from(m: CsrMatrix) -> Self {
        Matrix::Sparse(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense() -> DenseMatrix {
        DenseMatrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 2.0, 3.0, 4.0])
    }

    #[test]
    fn dense_and_sparse_agree_on_all_kernels() {
        let d = dense();
        let s = CsrMatrix::from_dense(&d);
        let md = Matrix::from(d.clone());
        let ms = Matrix::from(s);
        assert_eq!(md.rows(), ms.rows());
        assert_eq!(md.cols(), ms.cols());
        assert!(!md.is_sparse());
        assert!(ms.is_sparse());

        let x = [1.0, -1.0];
        assert_eq!(md.matvec(&x).unwrap(), ms.matvec(&x).unwrap());

        let y = [1.0, 2.0, 3.0];
        let a = md.t_matvec(&y).unwrap();
        let b = ms.t_matvec(&y).unwrap();
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }

        let w = DenseMatrix::from_fn(4, 2, |i, j| (i + j) as f64);
        let za = md.gemm_nt(&w).unwrap();
        let zb = ms.gemm_nt(&w).unwrap();
        for (u, v) in za.as_slice().iter().zip(zb.as_slice()) {
            assert!((u - v).abs() < 1e-12);
        }

        let m = DenseMatrix::from_fn(3, 4, |i, j| (i as f64) - (j as f64));
        let ga = md.gemm_tn_from_dense(&m).unwrap();
        let gb = ms.gemm_tn_from_dense(&m).unwrap();
        assert_eq!(ga.rows(), 4);
        assert_eq!(ga.cols(), 2);
        for (u, v) in ga.as_slice().iter().zip(gb.as_slice()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn slicing_preserves_variant() {
        let d = Matrix::from(dense());
        let s = Matrix::from(CsrMatrix::from_dense(&dense()));
        assert!(!d.slice_rows(0, 2).is_sparse());
        assert!(s.slice_rows(0, 2).is_sparse());
        assert_eq!(d.select_rows(&[2, 0]).rows(), 2);
        assert_eq!(s.select_rows(&[2]).rows(), 1);
    }

    #[test]
    fn storage_accounting() {
        let d = Matrix::from(dense());
        assert_eq!(d.stored_entries(), 6);
        assert_eq!(d.storage_bytes(), 6 * 8);
        let s = Matrix::from(CsrMatrix::from_dense(&dense()));
        assert_eq!(s.stored_entries(), 4);
        assert!(s.storage_bytes() > 0);
        assert_eq!(s.to_dense(), dense());
    }
}
