//! Compressed sparse row (CSR) matrices and the kernels the objectives need.
//!
//! The E18-like dataset in the paper has a very high-dimensional, very sparse
//! feature space (single-cell gene counts), so the feature matrix must support
//! a sparse representation. Only the operations used by the softmax objective
//! are implemented: `A·x`, `Aᵀ·x`, `A·Bᵀ` (dense result) and `Mᵀ·A` (dense
//! result), plus row slicing for data partitioning.

use crate::dense::DenseMatrix;
use crate::error::{LinalgError, Result};
use crate::vector;
use crate::vector::SendMutPtr;
use serde::{Deserialize, Serialize};

/// Compressed sparse row matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices of stored values, length `nnz`.
    indices: Vec<usize>,
    /// Stored values, length `nnz`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets. Duplicate
    /// entries are summed. Zero values are kept (callers may rely on explicit
    /// zeros for structural purposes).
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
        for &(r, c, v) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds for {rows}x{cols}");
            per_row[r].push((c, v));
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        indptr.push(0);
        for row in per_row.iter_mut() {
            row.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let c = row[i].0;
                let mut v = row[i].1;
                let mut j = i + 1;
                while j < row.len() && row[j].0 == c {
                    v += row[j].1;
                    j += 1;
                }
                indices.push(c);
                values.push(v);
                i = j;
            }
            indptr.push(indices.len());
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Builds a CSR matrix directly from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are structurally inconsistent.
    pub fn from_raw(rows: usize, cols: usize, indptr: Vec<usize>, indices: Vec<usize>, values: Vec<f64>) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length must be rows+1");
        assert_eq!(indices.len(), values.len(), "indices/values length mismatch");
        assert_eq!(
            *indptr.last().expect("indptr has rows+1 >= 1 entries"),
            indices.len(),
            "last indptr must equal nnz"
        );
        for w in indptr.windows(2) {
            assert!(w[0] <= w[1], "indptr must be non-decreasing");
        }
        assert!(indices.iter().all(|&c| c < cols), "column index out of bounds");
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Converts a dense matrix to CSR, dropping exact zeros.
    pub fn from_dense(m: &DenseMatrix) -> Self {
        let mut triplets = Vec::new();
        for i in 0..m.rows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        Self::from_triplets(m.rows(), m.cols(), &triplets)
    }

    /// Converts to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                out.set(i, c, v);
            }
        }
        out
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of stored entries relative to a dense matrix of equal shape.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// Returns the column-index and value slices of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let s = self.indptr[i];
        let e = self.indptr[i + 1];
        (&self.indices[s..e], &self.values[s..e])
    }

    /// Sparse matrix–vector product `y = A x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// In-place sparse matrix–vector product `y = A x` (the core that
    /// [`CsrMatrix::matvec`] wraps).
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != cols` or
    /// `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.cols || y.len() != self.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "csr matvec_into: A is {}x{}, x has length {}, y has length {}",
                self.rows,
                self.cols,
                x.len(),
                y.len()
            )));
        }
        let yp = SendMutPtr(y.as_mut_ptr());
        rayon::det::run(self.rows, 1, self.nnz() >= crate::par_threshold(), |s, e| {
            // SAFETY: canonical chunks are disjoint row ranges of `y`.
            let yc = unsafe { std::slice::from_raw_parts_mut(yp.get().add(s), e - s) };
            for (i, yi) in (s..e).zip(yc) {
                let (cols, vals) = self.row(i);
                *yi = vector::gather_dot(cols, vals, x);
            }
        });
        Ok(())
    }

    /// Transposed sparse matrix–vector product `y = Aᵀ x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != rows`.
    pub fn t_matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.cols];
        self.t_matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// In-place transposed sparse matrix–vector product `y = Aᵀ x` (the core
    /// that [`CsrMatrix::t_matvec`] wraps). Reduces through the canonical row
    /// chunking (see [`crate::scatter_rows`]); the single-chunk case scatters
    /// directly into `y` with no scratch allocations.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != rows` or
    /// `y.len() != cols`.
    pub fn t_matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.rows || y.len() != self.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "csr t_matvec_into: A is {}x{}, x has length {}, y has length {}",
                self.rows,
                self.cols,
                x.len(),
                y.len()
            )));
        }
        crate::scatter_rows_alloc(self.rows, self.nnz() >= crate::par_threshold(), y, |dst, s, e| {
            for (i, &xi) in (s..e).zip(&x[s..e]) {
                if xi != 0.0 {
                    let (cols, vals) = self.row(i);
                    for (&c, &v) in cols.iter().zip(vals) {
                        dst[c] += v * xi;
                    }
                }
            }
        });
        Ok(())
    }

    /// `C = A · Bᵀ` with a dense `B` (rows of `B` are the class-weight
    /// vectors). The result is dense of shape `A.rows × B.rows`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `A.cols != B.cols`.
    pub fn gemm_nt(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(self.rows, b.rows());
        self.gemm_nt_into(b, &mut out)?;
        Ok(out)
    }

    /// In-place `C = A · Bᵀ` with dense `B`, writing into a pre-sized dense
    /// `out` (the core that [`CsrMatrix::gemm_nt`] wraps).
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `A.cols != B.cols` or `out`
    /// is not `A.rows × B.rows`.
    pub fn gemm_nt_into(&self, b: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if self.cols != b.cols() || out.rows() != self.rows || out.cols() != b.rows() {
            return Err(LinalgError::ShapeMismatch(format!(
                "csr gemm_nt_into: {}x{} times ({}x{})ᵀ into {}x{}",
                self.rows,
                self.cols,
                b.rows(),
                b.cols(),
                out.rows(),
                out.cols()
            )));
        }
        let brows = b.rows();
        if out.as_slice().is_empty() {
            return Ok(());
        }
        let use_pool = self.nnz().max(b.len()).max(out.len()) >= crate::par_threshold();
        let op = SendMutPtr(out.as_mut_slice().as_mut_ptr());
        rayon::det::run(self.rows, 1, use_pool, |s, e| {
            // SAFETY: canonical chunks are disjoint row ranges of `out`.
            let block = unsafe { std::slice::from_raw_parts_mut(op.get().add(s * brows), (e - s) * brows) };
            self.nt_rows(s, e, b, block);
        });
        Ok(())
    }

    /// Rows `s..e` of `A · Bᵀ` into `out_rows` (`(e − s) × B.rows`, row-major,
    /// `B.rows > 0`); rows are independent, so callers may cut `s..e`
    /// anywhere.
    pub(crate) fn nt_rows(&self, s: usize, e: usize, b: &DenseMatrix, out_rows: &mut [f64]) {
        for (i, out_row) in (s..e).zip(out_rows.chunks_exact_mut(b.rows())) {
            let (cols, vals) = self.row(i);
            for (j, oj) in out_row.iter_mut().enumerate() {
                *oj = vector::gather_dot(cols, vals, b.row(j));
            }
        }
    }

    /// `C = Mᵀ · A` with dense `M` of shape `A.rows × k`; the result is dense
    /// of shape `k × A.cols`. This is the gradient-accumulation kernel
    /// `G = (P − Y)ᵀ X` when `X` is sparse.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `M.rows != A.rows`.
    pub fn gemm_tn_from_dense(&self, m: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(m.cols(), self.cols);
        self.gemm_tn_from_dense_into(m, &mut out)?;
        Ok(out)
    }

    /// In-place `C = Mᵀ · A`, writing into a pre-sized dense `out` (the core
    /// that [`CsrMatrix::gemm_tn_from_dense`] wraps). Reduces through the
    /// canonical row chunking (see [`crate::scatter_rows`]); the single-chunk
    /// case scatters directly into `out` with no scratch.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `M.rows != A.rows` or `out`
    /// is not `M.cols × A.cols`.
    pub fn gemm_tn_from_dense_into(&self, m: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if m.rows() != self.rows || out.rows() != m.cols() || out.cols() != self.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "csr gemm_tn_from_dense_into: M is {}x{}, A is {}x{}, out is {}x{}",
                m.rows(),
                m.cols(),
                self.rows,
                self.cols,
                out.rows(),
                out.cols()
            )));
        }
        crate::scatter_rows_alloc(
            self.rows,
            self.nnz().max(m.len()) >= crate::par_threshold(),
            out.as_mut_slice(),
            |dst, s, e| self.tn_rows_acc(s, e, m.rows_slice(s, e), m.cols(), dst),
        );
        Ok(())
    }

    /// `dst += Mᵀ · A` over rows `s..e`: `m_rows` holds those rows of `M`
    /// (`(e − s) × k`, row-major, `k > 0`), `dst` is `k × A.cols`. Products
    /// arrive in ascending row order and an exact-zero coefficient adds
    /// nothing, so callers may cut `s..e` anywhere within a canonical chunk.
    pub(crate) fn tn_rows_acc(&self, s: usize, e: usize, m_rows: &[f64], k: usize, dst: &mut [f64]) {
        for (i, mrow) in (s..e).zip(m_rows.chunks_exact(k)) {
            let (cols, vals) = self.row(i);
            for (c_idx, &mv) in mrow.iter().enumerate() {
                if mv != 0.0 {
                    let row_dst = &mut dst[c_idx * self.cols..(c_idx + 1) * self.cols];
                    for (&c, &v) in cols.iter().zip(vals) {
                        row_dst[c] += mv * v;
                    }
                }
            }
        }
    }

    /// Returns a new CSR matrix containing rows `start..end`.
    pub fn slice_rows(&self, start: usize, end: usize) -> CsrMatrix {
        assert!(
            start <= end && end <= self.rows,
            "slice_rows: invalid range {start}..{end} of {}",
            self.rows
        );
        let vs = self.indptr[start];
        let ve = self.indptr[end];
        let indptr: Vec<usize> = self.indptr[start..=end].iter().map(|p| p - vs).collect();
        CsrMatrix {
            rows: end - start,
            cols: self.cols,
            indptr,
            indices: self.indices[vs..ve].to_vec(),
            values: self.values[vs..ve].to_vec(),
        }
    }

    /// Returns a new CSR matrix containing the rows selected by `indices`.
    pub fn select_rows(&self, rows: &[usize]) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut idx = Vec::new();
        let mut vals = Vec::new();
        indptr.push(0);
        for &r in rows {
            assert!(r < self.rows, "select_rows: row {r} out of {}", self.rows);
            let (cs, vs) = self.row(r);
            idx.extend_from_slice(cs);
            vals.extend_from_slice(vs);
            indptr.push(idx.len());
        }
        CsrMatrix {
            rows: rows.len(),
            cols: self.cols,
            indptr,
            indices: idx,
            values: vals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0)])
    }

    #[test]
    fn construction_and_shape() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 5);
        assert!((m.density() - 5.0 / 9.0).abs() < 1e-12);
        let (cols, vals) = m.row(2);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[4.0, 5.0]);
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let m = CsrMatrix::from_triplets(1, 2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(m.nnz(), 1);
        let (_, vals) = m.row(0);
        assert_eq!(vals, &[3.5]);
    }

    #[test]
    fn from_raw_validates() {
        let m = CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    #[should_panic]
    fn from_raw_rejects_bad_indptr() {
        CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
    }

    #[test]
    fn dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d.get(0, 2), 2.0);
        assert_eq!(d.get(1, 0), 0.0);
        let back = CsrMatrix::from_dense(&d);
        assert_eq!(back, m);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let d = m.to_dense();
        let x = [1.0, -1.0, 2.0];
        assert_eq!(m.matvec(&x).unwrap(), d.matvec(&x).unwrap());
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn t_matvec_matches_dense() {
        let m = sample();
        let d = m.to_dense();
        let x = [1.0, 2.0, 3.0];
        let a = m.t_matvec(&x).unwrap();
        let b = d.t_matvec(&x).unwrap();
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
        assert!(m.t_matvec(&[1.0]).is_err());
    }

    #[test]
    fn gemm_nt_matches_dense() {
        let m = sample();
        let d = m.to_dense();
        let b = DenseMatrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64 * 0.5);
        let s = m.gemm_nt(&b).unwrap();
        let expect = d.gemm_nt(&b).unwrap();
        for (u, v) in s.as_slice().iter().zip(expect.as_slice()) {
            assert!((u - v).abs() < 1e-12);
        }
        assert!(m.gemm_nt(&DenseMatrix::zeros(2, 4)).is_err());
    }

    #[test]
    fn gemm_tn_matches_dense() {
        let m = sample();
        let d = m.to_dense();
        let p = DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f64 - 1.0);
        let s = m.gemm_tn_from_dense(&p).unwrap();
        let expect = p.gemm_tn(&d).unwrap();
        for (u, v) in s.as_slice().iter().zip(expect.as_slice()) {
            assert!((u - v).abs() < 1e-12);
        }
        assert!(m.gemm_tn_from_dense(&DenseMatrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn slicing_and_selection() {
        let m = sample();
        let s = m.slice_rows(1, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.to_dense().get(1, 2), 5.0);
        let sel = m.select_rows(&[2, 0]);
        assert_eq!(sel.to_dense().get(0, 0), 4.0);
        assert_eq!(sel.to_dense().get(1, 0), 1.0);
    }

    #[test]
    fn empty_matrix_density() {
        let m = CsrMatrix::from_triplets(0, 0, &[]);
        assert_eq!(m.density(), 0.0);
        assert_eq!(m.nnz(), 0);
    }
}
