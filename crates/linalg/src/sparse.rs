//! Compressed sparse row (CSR) matrices and the kernels the objectives need.
//!
//! The E18-like dataset in the paper has a very high-dimensional, very sparse
//! feature space (single-cell gene counts), so the feature matrix must support
//! a sparse representation. Only the operations used by the softmax objective
//! are implemented: `A·x`, `Aᵀ·x`, `A·Bᵀ` (dense result) and `Mᵀ·A` (dense
//! result), plus row slicing for data partitioning.
//!
//! ## Class-interleaved layout
//!
//! The two matrix products read each sparse row once for all `k` classes.
//! Their weight-space operand — `B` of `A·Bᵀ`, the accumulator of `Mᵀ·A`,
//! both `k × cols` — is held *feature-major*: `cols` runs of
//! `packed_width(k)` classes (`k` rounded up to a whole `CLASS_BLOCK`, the
//! padding classes zero and never read back), so a stored entry `(j, v)`
//! meets its `k` partners in one contiguous run instead of in `k` rows
//! `cols` apart. `pack_classes` and `unpack_classes` convert once per
//! product, or once per fused sweep ([`crate::Matrix::gemm_nt_map_tn_into`]).
//! The layout moves operands, not operations: every output element still
//! receives the additions of the class-at-a-time kernels in their order
//! (stated at `row_dots` and `CsrMatrix::tn_rows_acc`), and the chunk
//! partials of [`crate::scatter_rows`] fold elementwise, which no layout
//! changes. `crates/linalg/tests/proptest_parallel.rs` holds the kernels to
//! the arithmetic spelled out one scalar at a time.

use crate::dense::DenseMatrix;
use crate::error::{LinalgError, Result};
use crate::vector;
use crate::vector::SendMutPtr;

/// Compressed sparse row matrix.
#[derive(Debug, Clone, PartialEq)]
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
    /// `out`: [`CsrMatrix::gemm_nt_scratch_into`] with freshly allocated
    /// scratch.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `A.cols != B.cols` or `out`
    /// is not `A.rows × B.rows`.
    pub fn gemm_nt_into(&self, b: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        self.gemm_nt_scratch_into(b, &mut vec![0.0; self.packed_len(b.rows())], out)
    }

    /// Elements of one class-interleaved `k`-class weight-space buffer (the
    /// module docs' layout) for this matrix: the scratch
    /// [`CsrMatrix::gemm_nt_scratch_into`] takes.
    pub fn packed_len(&self, k: usize) -> usize {
        self.cols * packed_width(k)
    }

    /// In-place `C = A · Bᵀ` with dense `B` into a pre-sized dense `out`,
    /// allocating nothing: `scratch` (at least
    /// [`CsrMatrix::packed_len`]`(B.rows)` elements, contents unspecified)
    /// receives the class-interleaved copy of `B` the kernel reads.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `A.cols != B.cols` or `out`
    /// is not `A.rows × B.rows`.
    ///
    /// # Panics
    /// Panics if `scratch` is shorter than the stated minimum.
    pub fn gemm_nt_scratch_into(&self, b: &DenseMatrix, scratch: &mut [f64], out: &mut DenseMatrix) -> Result<()> {
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
        let k = b.rows();
        if out.as_slice().is_empty() {
            return Ok(());
        }
        let wt = &mut scratch[..self.packed_len(k)];
        pack_classes(b, wt);
        let wt = &*wt;
        let use_pool = self.nnz().max(b.len()).max(out.len()) >= crate::par_threshold();
        let op = SendMutPtr(out.as_mut_slice().as_mut_ptr());
        rayon::det::run(self.rows, 1, use_pool, |s, e| {
            // SAFETY: canonical chunks are disjoint row ranges of `out`.
            let block = unsafe { std::slice::from_raw_parts_mut(op.get().add(s * k), (e - s) * k) };
            self.nt_rows(s, e, wt, k, block);
        });
        Ok(())
    }

    /// Rows `s..e` of `A · Bᵀ` into `out_rows` (`(e − s) × k`, row-major,
    /// `k > 0`), reading `B` from its class-interleaved copy `wt`
    /// ([`pack_classes`]); rows are independent, so callers may cut `s..e`
    /// anywhere.
    pub(crate) fn nt_rows(&self, s: usize, e: usize, wt: &[f64], k: usize, out_rows: &mut [f64]) {
        let kp = packed_width(k);
        for (i, out_row) in (s..e).zip(out_rows.chunks_exact_mut(k)) {
            let (cols, vals) = self.row(i);
            for (out_block, kb) in out_row.chunks_mut(CLASS_BLOCK).zip((0..kp).step_by(CLASS_BLOCK)) {
                let dots = row_dots(cols, vals, wt, kp, kb);
                out_block.copy_from_slice(&dots[..out_block.len()]);
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
    /// canonical row chunking (see [`crate::scatter_rows`]) in the
    /// class-interleaved layout, in scratch it allocates: the accumulator
    /// and one partial per chunk when there are several.
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
        let k = m.cols();
        if out.as_slice().is_empty() {
            return Ok(());
        }
        let mut acc_t = vec![0.0; self.packed_len(k)];
        crate::scatter_rows_alloc(
            self.rows,
            self.nnz().max(m.len()) >= crate::par_threshold(),
            &mut acc_t,
            |dst_t, s, e| self.tn_rows_acc(s, e, m.rows_slice(s, e), k, dst_t),
        );
        unpack_classes(&acc_t, out);
        Ok(())
    }

    /// `dst_t += (Mᵀ · A)ᵀ` over rows `s..e`: `m_rows` holds those rows of
    /// `M` (`(e − s) × k`, row-major, `k > 0`), `dst_t` is the
    /// class-interleaved `k × A.cols` accumulator ([`unpack_classes`] reads it
    /// back). Products arrive in ascending row order and an exact-zero
    /// coefficient adds nothing, so callers may cut `s..e` anywhere within a
    /// canonical chunk.
    pub(crate) fn tn_rows_acc(&self, s: usize, e: usize, m_rows: &[f64], k: usize, dst_t: &mut [f64]) {
        let kp = packed_width(k);
        for (i, mrow) in (s..e).zip(m_rows.chunks_exact(k)) {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let d = &mut dst_t[c * kp..][..k];
                if v.is_finite() {
                    // No select needed: a zero coefficient times a finite
                    // value is a zero, and adding a zero of either sign
                    // changes no bit of an accumulator that is never −0.0
                    // (it started from +0.0, and only −0.0 + −0.0 is −0.0).
                    for (d, &mv) in d.iter_mut().zip(mrow) {
                        *d += mv * v;
                    }
                } else {
                    for (d, &mv) in d.iter_mut().zip(mrow) {
                        *d = if mv != 0.0 { *d + mv * v } else { *d };
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

/// Classes the class-interleaved kernels carry through one pass over a
/// sparse row: four lanes of this many accumulators fit the sixteen 128-bit
/// registers of baseline x86-64.
const CLASS_BLOCK: usize = 4;

/// Width of one feature's run of classes in the class-interleaved layout:
/// `k` rounded up to whole [`CLASS_BLOCK`]s.
fn packed_width(k: usize) -> usize {
    k.next_multiple_of(CLASS_BLOCK)
}

/// Writes `b` (`k × cols`, `k > 0`) class-interleaved into `wt`
/// (`cols × packed_width(k)`): `wt[j][c] = b[c][j]`, the padding classes
/// zero.
pub(crate) fn pack_classes(b: &DenseMatrix, wt: &mut [f64]) {
    let k = b.rows();
    for (j, classes) in wt.chunks_exact_mut(packed_width(k)).enumerate() {
        let (real, padding) = classes.split_at_mut(k);
        for (c, slot) in real.iter_mut().enumerate() {
            *slot = b.get(c, j);
        }
        padding.fill(0.0);
    }
}

/// Reads the class-interleaved `acc_t` (`cols × packed_width(k)`) back into
/// the row-major `out` (`k × cols`, `k > 0`): `out[c][j] = acc_t[j][c]`.
pub(crate) fn unpack_classes(acc_t: &[f64], out: &mut DenseMatrix) {
    let k = out.rows();
    for (j, classes) in acc_t.chunks_exact(packed_width(k)).enumerate() {
        for (c, &v) in classes[..k].iter().enumerate() {
            out.set(c, j, v);
        }
    }
}

/// The dot products of one sparse row with classes `kb..kb + CLASS_BLOCK` of
/// the class-interleaved `wt` (rows `kp` wide). Each class sees exactly the
/// additions of the scalar gather-dot in [`crate::vector`]: four entry lanes,
/// a sequential tail, folded `(a0 + a1) + (a2 + a3) + tail`.
#[inline]
fn row_dots(cols: &[usize], vals: &[f64], wt: &[f64], kp: usize, kb: usize) -> [f64; CLASS_BLOCK] {
    let classes_of = |c: usize| -> &[f64; CLASS_BLOCK] {
        wt[c * kp + kb..][..CLASS_BLOCK]
            .try_into()
            .expect("a slice of CLASS_BLOCK elements")
    };
    let mut acc = [[0.0f64; CLASS_BLOCK]; 4];
    let mut ic = cols.chunks_exact(4);
    let mut vc = vals.chunks_exact(4);
    for (ci, cv) in (&mut ic).zip(&mut vc) {
        for lane in 0..4 {
            let w = classes_of(ci[lane]);
            for q in 0..CLASS_BLOCK {
                acc[lane][q] += cv[lane] * w[q];
            }
        }
    }
    let mut tail = [0.0f64; CLASS_BLOCK];
    for (&c, &v) in ic.remainder().iter().zip(vc.remainder()) {
        let w = classes_of(c);
        for q in 0..CLASS_BLOCK {
            tail[q] += v * w[q];
        }
    }
    std::array::from_fn(|q| (acc[0][q] + acc[1][q]) + (acc[2][q] + acc[3][q]) + tail[q])
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
