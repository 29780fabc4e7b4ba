//! Compressed sparse row (CSR) matrices and the kernels the objectives need.
//!
//! The E18-like dataset in the paper has a very high-dimensional, very sparse
//! feature space (single-cell gene counts), so the feature matrix must support
//! a sparse representation. Only the operations used by the softmax objective
//! are implemented: `A·x`, `Aᵀ·x`, `A·Bᵀ` (dense result) and `Mᵀ·A` (dense
//! result), plus row slicing for data partitioning (a slice is a view of
//! the parent's arrays, see [`CsrMatrix`]).
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
//! partials of the crate's [reduction order](crate#reduction-order) fold
//! elementwise, which no layout changes.
//! `crates/linalg/tests/proptest_parallel.rs` holds the kernels to the
//! arithmetic spelled out one scalar at a time.
//!
//! ## Two bodies per product
//!
//! `CsrMatrix::nt_rows` and `CsrMatrix::tn_rows_acc` each have a portable
//! body — the only one off x86-64, and the reference — and an AVX2 one,
//! picked inside the kernel by `is_x86_feature_detected!("avx2")`, as in
//! `dense.rs`. A class block is one 256-bit register: `A·Bᵀ` walks a
//! row's entries once per three blocks (twelve accumulators) instead of
//! once per block, and `Mᵀ·A` holds a row's coefficients in registers and
//! passes each stored entry over its feature's whole run once. Each class
//! still gets a multiply, then an add, in the portable body's order (FMA is
//! never enabled), so the bodies agree bit for bit; this module's unit tests
//! hold both to the scalar arithmetic.

use crate::dense::DenseMatrix;
use crate::error::{LinalgError, Result};
use crate::vector;
use crate::vector::SendMutPtr;
use std::sync::Arc;

/// Compressed sparse row matrix.
///
/// A row slice ([`CsrMatrix::slice_rows`]) is a view, not a copy: it shares
/// its parent's column indices and values and holds only its own `rows + 1`
/// row pointers. Nothing mutates a CSR matrix after construction, so views
/// need no copy-on-write. Equality compares rows, so a view equals a copy of
/// the same rows.
#[derive(Clone)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`: absolute offsets into
    /// `indices` and `values`, so a view's first entry need not be zero.
    indptr: Vec<usize>,
    /// Column indices of stored values, shared with every view.
    indices: Arc<Vec<usize>>,
    /// Stored values, shared with every view.
    values: Arc<Vec<f64>>,
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
        Self::from_parts(rows, cols, indptr, indices, values)
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
        Self::from_parts(rows, cols, indptr, indices, values)
    }

    /// Moves already-consistent arrays behind the shared handles.
    fn from_parts(rows: usize, cols: usize, indptr: Vec<usize>, indices: Vec<usize>, values: Vec<f64>) -> Self {
        Self {
            rows,
            cols,
            indptr,
            indices: Arc::new(indices),
            values: Arc::new(values),
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

    /// Number of stored (structurally non-zero) entries in this matrix's
    /// rows.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indptr[self.rows] - self.indptr[0]
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
    /// chunking (see the crate's [reduction order](crate#reduction-order));
    /// the single-chunk case scatters directly into `y` with no scratch
    /// allocations.
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
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU running this code reports AVX2, the one
            // feature `nt_rows_avx2` is compiled for.
            return unsafe { self.nt_rows_avx2(s, e, wt, k, out_rows) };
        }
        self.nt_rows_portable(s, e, wt, k, out_rows)
    }

    /// [`CsrMatrix::nt_rows`] in portable Rust: the only body on other
    /// hosts, and the reference the AVX2 body is held to.
    fn nt_rows_portable(&self, s: usize, e: usize, wt: &[f64], k: usize, out_rows: &mut [f64]) {
        let kp = packed_width(k);
        for (i, out_row) in (s..e).zip(out_rows.chunks_exact_mut(k)) {
            let (cols, vals) = self.row(i);
            for (out_block, kb) in out_row.chunks_mut(CLASS_BLOCK).zip((0..kp).step_by(CLASS_BLOCK)) {
                let dots = row_dots(cols, vals, wt, kp, kb);
                out_block.copy_from_slice(&dots[..out_block.len()]);
            }
        }
    }

    /// [`CsrMatrix::nt_rows`] for AVX2 hosts: each row's entries are walked
    /// once per [`NT_GROUP_BLOCKS`] class blocks instead of once per block,
    /// and a block's four classes are one 256-bit register per entry lane.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn nt_rows_avx2(&self, s: usize, e: usize, wt: &[f64], k: usize, out_rows: &mut [f64]) {
        let kp = packed_width(k);
        for (i, out_row) in (s..e).zip(out_rows.chunks_exact_mut(k)) {
            let (cols, vals) = self.row(i);
            for kb in (0..kp).step_by(NT_GROUP_BLOCKS * CLASS_BLOCK) {
                let blocks = ((kp - kb) / CLASS_BLOCK).min(NT_GROUP_BLOCKS);
                let out_group = &mut out_row[kb..k.min(kb + blocks * CLASS_BLOCK)];
                match blocks {
                    NT_GROUP_BLOCKS => row_dots_avx2::<NT_GROUP_BLOCKS>(cols, vals, wt, kp, kb, out_group),
                    2 => row_dots_avx2::<2>(cols, vals, wt, kp, kb, out_group),
                    _ => row_dots_avx2::<1>(cols, vals, wt, kp, kb, out_group),
                }
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
    /// canonical row chunking (see the crate's
    /// [reduction order](crate#reduction-order)) in the
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
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU running this code reports AVX2, the one
            // feature `tn_rows_acc_avx2` is compiled for.
            return unsafe { self.tn_rows_acc_avx2(s, e, m_rows, k, dst_t) };
        }
        self.tn_rows_acc_portable(s, e, m_rows, k, dst_t)
    }

    /// [`CsrMatrix::tn_rows_acc`] in portable Rust: the only body on other
    /// hosts, and the reference the AVX2 body is held to.
    fn tn_rows_acc_portable(&self, s: usize, e: usize, m_rows: &[f64], k: usize, dst_t: &mut [f64]) {
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
                    select_add(d, mrow, v);
                }
            }
        }
    }

    /// [`CsrMatrix::tn_rows_acc`] for AVX2 hosts: a row's coefficients,
    /// zero-padded to whole class blocks, sit in registers while its entries
    /// pass, so a finite stored entry is one multiply and add per block over
    /// its feature's run (the padding classes gain `0 · v`, a zero, and are
    /// never read back). A non-finite entry takes the portable select. Runs
    /// longer than [`TN_GROUP_BLOCKS`] blocks take one pass per group.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn tn_rows_acc_avx2(&self, s: usize, e: usize, m_rows: &[f64], k: usize, dst_t: &mut [f64]) {
        let kp = packed_width(k);
        for (i, mrow) in (s..e).zip(m_rows.chunks_exact(k)) {
            let (cols, vals) = self.row(i);
            for kb in (0..kp).step_by(TN_GROUP_BLOCKS * CLASS_BLOCK) {
                let blocks = ((kp - kb) / CLASS_BLOCK).min(TN_GROUP_BLOCKS);
                let coefs = &mrow[kb..k.min(kb + blocks * CLASS_BLOCK)];
                match blocks {
                    8 => scatter_entries_avx2::<8>(cols, vals, coefs, kp, kb, dst_t),
                    7 => scatter_entries_avx2::<7>(cols, vals, coefs, kp, kb, dst_t),
                    6 => scatter_entries_avx2::<6>(cols, vals, coefs, kp, kb, dst_t),
                    5 => scatter_entries_avx2::<5>(cols, vals, coefs, kp, kb, dst_t),
                    4 => scatter_entries_avx2::<4>(cols, vals, coefs, kp, kb, dst_t),
                    3 => scatter_entries_avx2::<3>(cols, vals, coefs, kp, kb, dst_t),
                    2 => scatter_entries_avx2::<2>(cols, vals, coefs, kp, kb, dst_t),
                    _ => scatter_entries_avx2::<1>(cols, vals, coefs, kp, kb, dst_t),
                }
            }
        }
    }

    /// Returns rows `start..end` as a view: it shares this matrix's column
    /// indices and values and copies only `rows + 1` row pointers.
    pub fn slice_rows(&self, start: usize, end: usize) -> CsrMatrix {
        assert!(
            start <= end && end <= self.rows,
            "slice_rows: invalid range {start}..{end} of {}",
            self.rows
        );
        CsrMatrix {
            rows: end - start,
            cols: self.cols,
            indptr: self.indptr[start..=end].to_vec(),
            indices: Arc::clone(&self.indices),
            values: Arc::clone(&self.values),
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
        Self::from_parts(rows.len(), self.cols, indptr, idx, vals)
    }
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && (0..self.rows).all(|i| self.row(i) == other.row(i))
    }
}

/// Prints the shape and this matrix's own entries, never a parent's.
impl std::fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (first, last) = (self.indptr[0], self.indptr[self.rows]);
        f.debug_struct("CsrMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("indptr", &self.indptr.iter().map(|p| p - first).collect::<Vec<_>>())
            .field("indices", &&self.indices[first..last])
            .field("values", &&self.values[first..last])
            .finish()
    }
}

/// Classes in one block of the class-interleaved layout: one 256-bit AVX2
/// register of f64, and the portable bodies' unit of work per pass over a
/// sparse row.
const CLASS_BLOCK: usize = 4;

/// Class blocks the AVX2 `A·Bᵀ` body carries through one pass over a row's
/// entries: four entry lanes per block make twelve 256-bit accumulators,
/// which with the broadcast value and the loaded run fit AVX2's sixteen
/// registers.
#[cfg(target_arch = "x86_64")]
const NT_GROUP_BLOCKS: usize = 3;

/// Class blocks of coefficients the AVX2 `Mᵀ·A` body holds in registers
/// while a row's entries pass: up to 32 classes in one pass.
#[cfg(target_arch = "x86_64")]
const TN_GROUP_BLOCKS: usize = 8;

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

/// [`row_dots`] for `G` class blocks at once, `kb..kb + G·CLASS_BLOCK`,
/// written to `out` (the first `out.len()` of those classes): each block's
/// four entry lanes are four 256-bit accumulators, each lane a multiply and
/// then an add per entry, folded `(a0 + a1) + (a2 + a3) + tail` — every
/// class gets [`row_dots`]' additions in its order. One broadcast of a
/// stored value serves all `G` blocks.
///
/// # Panics
/// Panics if a column's run in `wt` is out of bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn row_dots_avx2<const G: usize>(cols: &[usize], vals: &[f64], wt: &[f64], kp: usize, kb: usize, out: &mut [f64]) {
    use std::arch::x86_64::{_mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd};
    let width = G * CLASS_BLOCK;
    assert!(
        kb + width <= kp && out.len() <= width,
        "row_dots_avx2: {G} blocks at {kb} of {kp}"
    );
    // The slice is the bounds check: an out-of-range column panics here.
    let run_of = |c: usize| wt[c * kp + kb..][..width].as_ptr();
    let mut acc = [[_mm256_setzero_pd(); G]; 4];
    let mut ic = cols.chunks_exact(4);
    let mut vc = vals.chunks_exact(4);
    for (ci, cv) in (&mut ic).zip(&mut vc) {
        for (lane, acc) in acc.iter_mut().enumerate() {
            let (w, v) = (run_of(ci[lane]), _mm256_set1_pd(cv[lane]));
            for (b, a) in acc.iter_mut().enumerate() {
                // SAFETY: `w` points at `width = G · CLASS_BLOCK` elements of
                // `wt` and `b < G`, so the four loaded elements are in bounds.
                *a = _mm256_add_pd(*a, _mm256_mul_pd(v, unsafe { _mm256_loadu_pd(w.add(b * CLASS_BLOCK)) }));
            }
        }
    }
    // The lanes fold before the tail starts, so the tail's `G` accumulators
    // take the registers the lanes free.
    let lanes: [_; G] =
        std::array::from_fn(|b| _mm256_add_pd(_mm256_add_pd(acc[0][b], acc[1][b]), _mm256_add_pd(acc[2][b], acc[3][b])));
    let mut tail = [_mm256_setzero_pd(); G];
    for (&c, &v) in ic.remainder().iter().zip(vc.remainder()) {
        let (w, v) = (run_of(c), _mm256_set1_pd(v));
        for (b, t) in tail.iter_mut().enumerate() {
            // SAFETY: as in the loop above.
            *t = _mm256_add_pd(*t, _mm256_mul_pd(v, unsafe { _mm256_loadu_pd(w.add(b * CLASS_BLOCK)) }));
        }
    }
    let mut dots = [[0.0f64; CLASS_BLOCK]; G];
    for ((d, l), t) in dots.iter_mut().zip(lanes).zip(tail) {
        // SAFETY: `d` holds CLASS_BLOCK = 4 elements.
        unsafe { _mm256_storeu_pd(d.as_mut_ptr(), _mm256_add_pd(l, t)) };
    }
    out.copy_from_slice(&dots.as_flattened()[..out.len()]);
}

/// `dst_t[c·kp + kb..][..G·CLASS_BLOCK] += coefs · v` for every stored
/// entry `(c, v)` of one row, the coefficients
/// zero-padded to `G` blocks and held in registers. Each class gets the
/// portable body's `d + m·v` (a multiply, then an add) or, for a non-finite
/// `v`, its select.
///
/// # Panics
/// Panics if a column's run in `dst_t` is out of bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scatter_entries_avx2<const G: usize>(cols: &[usize], vals: &[f64], coefs: &[f64], kp: usize, kb: usize, dst_t: &mut [f64]) {
    use std::arch::x86_64::{_mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd};
    let width = G * CLASS_BLOCK;
    assert!(
        kb + width <= kp && coefs.len() <= width,
        "scatter_entries_avx2: {G} blocks at {kb} of {kp}"
    );
    let mut padded = [[0.0f64; CLASS_BLOCK]; G];
    padded.as_flattened_mut()[..coefs.len()].copy_from_slice(coefs);
    // SAFETY: each block of `padded` holds CLASS_BLOCK = 4 elements.
    let m = padded.map(|block| unsafe { _mm256_loadu_pd(block.as_ptr()) });
    for (&c, &v) in cols.iter().zip(vals) {
        // The slice is the bounds check: an out-of-range column panics here.
        let d = &mut dst_t[c * kp + kb..][..width];
        if v.is_finite() {
            let v = _mm256_set1_pd(v);
            for (b, &mb) in m.iter().enumerate() {
                // SAFETY: `d` holds `G · CLASS_BLOCK` elements and `b < G`,
                // so the four elements loaded and stored are in bounds.
                unsafe {
                    let p = d.as_mut_ptr().add(b * CLASS_BLOCK);
                    _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), _mm256_mul_pd(mb, v)));
                }
            }
        } else {
            select_add(&mut d[..coefs.len()], coefs, v);
        }
    }
}

/// `d[q] += m[q] · v` for a non-finite `v`, skipping each exact-zero `m[q]`:
/// `0 · ±∞` and `0 · NaN` are NaN, and a zero coefficient must add nothing.
#[inline]
fn select_add(d: &mut [f64], m: &[f64], v: f64) {
    for (d, &mv) in d.iter_mut().zip(m) {
        *d = if mv != 0.0 { *d + mv * v } else { *d };
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

    /// Six rows, two of them empty, so views start and end mid-array.
    fn ragged() -> CsrMatrix {
        CsrMatrix::from_triplets(
            6,
            4,
            &[
                (0, 1, 1.0),
                (0, 3, 2.0),
                (2, 0, 3.0),
                (3, 1, 4.0),
                (3, 2, 5.0),
                (3, 3, 6.0),
                (5, 0, 7.0),
            ],
        )
    }

    #[test]
    fn a_view_shares_its_parents_arrays() {
        let m = ragged();
        let v = m.slice_rows(2, 5);
        for i in 0..3 {
            let ((vc, vv), (pc, pv)) = (v.row(i), m.row(i + 2));
            assert!(std::ptr::eq(vc, pc) && std::ptr::eq(vv, pv));
        }
        assert!(Arc::ptr_eq(&v.indices, &m.indices) && Arc::ptr_eq(&v.values, &m.values));
    }

    #[test]
    fn a_view_counts_only_its_own_rows() {
        let m = ragged();
        let v = m.slice_rows(2, 5);
        assert_eq!(v.nnz(), 4);
        assert!((v.density() - 4.0 / 12.0).abs() < 1e-12);
        let bytes = crate::Matrix::Sparse(v).storage_bytes();
        assert_eq!(bytes, 4 * (std::mem::size_of::<f64>() + std::mem::size_of::<usize>()));
        assert_eq!(m.slice_rows(4, 5).nnz(), 0);
        assert_eq!(m.slice_rows(6, 6).nnz(), 0);
    }

    #[test]
    fn a_view_equals_the_copied_rows() {
        let m = ragged();
        for (s, e) in [(0, 6), (0, 1), (1, 4), (2, 5), (4, 4), (5, 6)] {
            let rows: Vec<usize> = (s..e).collect();
            let view = m.slice_rows(s, e);
            let copy = m.select_rows(&rows);
            assert_eq!(view, copy, "rows {s}..{e}");
            assert_eq!(format!("{view:?}"), format!("{copy:?}"));
        }
        assert_ne!(m.slice_rows(0, 2), m.slice_rows(1, 3));
    }

    #[test]
    fn a_view_and_a_view_of_a_view_densify_to_their_rows() {
        let m = ragged();
        let full = m.to_dense();
        let v = m.slice_rows(1, 6);
        let vv = v.slice_rows(2, 4);
        for (view, first) in [(&v, 1), (&vv, 3)] {
            let d = view.to_dense();
            assert_eq!(d.rows(), view.rows());
            for i in 0..view.rows() {
                assert_eq!(d.row(i), full.row(first + i));
            }
        }
        assert_eq!(vv, m.slice_rows(3, 5));
        assert!(std::ptr::eq(vv.row(0).1, m.row(3).1));
    }

    #[test]
    fn kernels_on_a_view_match_kernels_on_a_copy() {
        let m = ragged();
        let view = m.slice_rows(2, 6);
        let copy = m.select_rows(&[2, 3, 4, 5]);
        let x = [1.0, -2.0, 0.5, 3.0];
        assert_eq!(view.matvec(&x).unwrap(), copy.matvec(&x).unwrap());
        let y = [1.0, 2.0, -1.0, 0.5];
        assert_eq!(view.t_matvec(&y).unwrap(), copy.t_matvec(&y).unwrap());
        let b = DenseMatrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64 * 0.25 - 1.0);
        assert_eq!(view.gemm_nt(&b).unwrap(), copy.gemm_nt(&b).unwrap());
        let p = DenseMatrix::from_fn(4, 3, |i, j| (i + 2 * j) as f64 - 2.0);
        assert_eq!(view.gemm_tn_from_dense(&p).unwrap(), copy.gemm_tn_from_dense(&p).unwrap());
    }

    #[test]
    fn empty_matrix_density() {
        let m = CsrMatrix::from_triplets(0, 0, &[]);
        assert_eq!(m.density(), 0.0);
        assert_eq!(m.nnz(), 0);
    }

    /// Bit patterns, every NaN folded to one (its payload is unspecified).
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() })
            .collect()
    }

    /// Twenty rows holding 0 to 9 stored entries twice over, each non-empty
    /// row's last entry in the last column (the last run of packed `W`).
    /// Values are Gaussian with `+0.0` and `−0.0` mixed in, and the second ten
    /// rows also hold `+∞`, `−∞` and NaN, in entry lanes and in tails.
    fn entry_edges(cols: usize) -> CsrMatrix {
        let mut rng = crate::gen::seeded_rng(5);
        let mut triplets = Vec::new();
        for i in 0..20 {
            let n = i % 10;
            for t in 0..n {
                let c = if t + 1 == n { cols - 1 } else { i % 3 + t };
                let v = match (i * 5 + t * 3) % 13 {
                    0 => 0.0,
                    1 => -0.0,
                    2 if i >= 10 => f64::INFINITY,
                    3 if i >= 10 => f64::NEG_INFINITY,
                    4 if i >= 10 => f64::NAN,
                    _ => crate::gen::gaussian_vector(1, &mut rng)[0],
                };
                triplets.push((i, c, v));
            }
        }
        let x = CsrMatrix::from_triplets(20, cols, &triplets);
        assert_eq!(x.nnz(), 90, "one entry per triplet");
        x
    }

    /// Gaussian `rows × cols` with exact zeros of both signs.
    fn with_zeros(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut m = crate::gen::gaussian_matrix(rows, cols, &mut crate::gen::seeded_rng(seed));
        for i in 0..rows {
            for j in 0..cols {
                match (i * 5 + j * 3) % 7 {
                    0 => m.set(i, j, 0.0),
                    1 => m.set(i, j, -0.0),
                    _ => {}
                }
            }
        }
        m
    }

    /// Rows `s..e` of `x · wᵀ` from every body this host can run, reading
    /// the packed `wt`.
    fn nt_bodies(x: &CsrMatrix, s: usize, e: usize, wt: &[f64], k: usize) -> Vec<(&'static str, Vec<f64>)> {
        let fresh = || vec![7.0; (e - s) * k];
        let mut outs = vec![("portable", fresh()), ("chosen", fresh())];
        x.nt_rows_portable(s, e, wt, k, &mut outs[0].1);
        x.nt_rows(s, e, wt, k, &mut outs[1].1);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut out = fresh();
            // SAFETY: AVX2 was detected on the line above.
            unsafe { x.nt_rows_avx2(s, e, wt, k, &mut out) };
            outs.push(("avx2", out));
        }
        outs
    }

    /// `(x · mᵀ)ᵀ` over rows `s..e`, class-interleaved, from every body this
    /// host can run, each into an accumulator of exact zeros.
    fn tn_bodies(x: &CsrMatrix, s: usize, e: usize, m: &DenseMatrix) -> Vec<(&'static str, Vec<f64>)> {
        let (k, m_rows) = (m.cols(), m.rows_slice(s, e));
        let fresh = || vec![0.0; x.packed_len(k)];
        let mut outs = vec![("portable", fresh()), ("chosen", fresh())];
        x.tn_rows_acc_portable(s, e, m_rows, k, &mut outs[0].1);
        x.tn_rows_acc(s, e, m_rows, k, &mut outs[1].1);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut out = fresh();
            // SAFETY: AVX2 was detected on the line above.
            unsafe { x.tn_rows_acc_avx2(s, e, m_rows, k, &mut out) };
            outs.push(("avx2", out));
        }
        outs
    }

    #[test]
    fn sparse_kernel_nt_rows_bodies_equal_the_gather_dot_spelled_out_scalar_by_scalar() {
        let cols = 13;
        let x = entry_edges(cols);
        // Every remainder mod 4, one to three blocks per register group, and
        // groups of three followed by one, two and three.
        for k in 1..=24 {
            let w = with_zeros(k, cols, k as u64);
            // Per class: four entry lanes, a sequential tail, folded
            // `(a0 + a1) + (a2 + a3) + tail`.
            let expect = DenseMatrix::from_fn(x.rows(), k, |i, q| {
                let (cs, vs) = x.row(i);
                let full = cs.len() / 4 * 4;
                let mut lanes = [0.0f64; 4];
                for t in 0..full {
                    lanes[t % 4] += vs[t] * w.get(q, cs[t]);
                }
                let mut tail = 0.0;
                for t in full..cs.len() {
                    tail += vs[t] * w.get(q, cs[t]);
                }
                (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
            });
            let mut wt = vec![f64::NAN; x.packed_len(k)];
            pack_classes(&w, &mut wt);
            for (s, e) in [(0, 20), (3, 17)] {
                for (body, out) in nt_bodies(&x, s, e, &wt, k) {
                    assert_eq!(
                        bits(&out),
                        bits(&expect.as_slice()[s * k..e * k]),
                        "{body} nt_rows of rows {s}..{e}, k = {k}"
                    );
                }
            }
            // The public product, its scratch holding garbage on entry.
            let mut out = DenseMatrix::zeros(x.rows(), k);
            x.gemm_nt_scratch_into(&w, &mut vec![f64::NAN; x.packed_len(k) + 3], &mut out)
                .unwrap();
            assert_eq!(bits(out.as_slice()), bits(expect.as_slice()), "gemm_nt_scratch_into, k = {k}");
        }
    }

    #[test]
    fn sparse_kernel_tn_rows_acc_bodies_equal_ascending_row_adds_with_exact_zeros_skipped() {
        let cols = 13;
        let x = entry_edges(cols);
        // As above, plus 37 classes: ten blocks, more than one register group.
        for k in (1..=24).chain([37]) {
            let m = with_zeros(x.rows(), k, 100 + k as u64);
            // Each element gets its rows' products one at a time, in
            // ascending row order, skipping exact-zero coefficients.
            let expect = |s: usize, e: usize| {
                let mut acc = DenseMatrix::zeros(k, cols);
                for i in s..e {
                    let (cs, vs) = x.row(i);
                    for (&c, &v) in cs.iter().zip(vs) {
                        for q in (0..k).filter(|&q| m.get(i, q) != 0.0) {
                            acc.set(q, c, acc.get(q, c) + m.get(i, q) * v);
                        }
                    }
                }
                acc
            };
            for (s, e) in [(0, 20), (3, 17)] {
                let want = expect(s, e);
                for (body, out_t) in tn_bodies(&x, s, e, &m) {
                    let mut out = DenseMatrix::zeros(k, cols);
                    unpack_classes(&out_t, &mut out);
                    assert_eq!(
                        bits(out.as_slice()),
                        bits(want.as_slice()),
                        "{body} tn_rows_acc of rows {s}..{e}, k = {k}"
                    );
                }
            }
            let mut out = DenseMatrix::zeros(k, cols);
            x.gemm_tn_from_dense_into(&m, &mut out).unwrap();
            assert_eq!(
                bits(out.as_slice()),
                bits(expect(0, 20).as_slice()),
                "gemm_tn_from_dense_into, k = {k}"
            );
        }
    }

    #[test]
    fn an_out_of_range_column_panics_in_every_body_instead_of_reading_past_the_run() {
        let x = CsrMatrix::from_triplets(1, 3, &[(0, 2, 1.0)]);
        let m = DenseMatrix::from_fn(1, 5, |_, q| q as f64 + 1.0);
        // Packed for two columns, not three: column 2's run is past the end.
        let short = vec![0.0; 2 * packed_width(5)];
        let panics = |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
        assert!(panics(&|| x.nt_rows_portable(0, 1, &short, 5, &mut [0.0; 5])));
        assert!(panics(&|| x.tn_rows_acc_portable(0, 1, m.as_slice(), 5, &mut short.clone())));
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected on the line above.
            assert!(panics(&|| unsafe { x.nt_rows_avx2(0, 1, &short, 5, &mut [0.0; 5]) }));
            // SAFETY: as above.
            assert!(panics(&|| unsafe {
                x.tn_rows_acc_avx2(0, 1, m.as_slice(), 5, &mut short.clone())
            }));
        }
    }
}
