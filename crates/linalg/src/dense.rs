//! Row-major dense matrix with rayon-parallel kernels.
//!
//! Every kernel is bit-identical across thread counts and across the
//! `NADMM_PAR_THRESHOLD` cutover: gather-style kernels (`Ax`, `A·Bᵀ`) write
//! each output element from the same row arithmetic on both paths, and
//! scatter-style kernels (`Aᵀx`, `AᵀB`) reduce through the canonical chunk
//! layout (the crate's [reduction order](crate#reduction-order)).
//!
//! The fused sweep [`crate::Matrix::gemm_nt_map_tn_into`] is built from two
//! row-block kernels — `nt_rows` (rows of `A·Bᵀ`, each element
//! [`vector::dot`]'s value) and `tn_rows_acc` (`dst += Mᵀ·X` over a run of
//! rows, every element taking its rows' products in ascending order,
//! exact-zero coefficients skipped) — applied to the same rows a sub-block at
//! a time inside `scatter_rows`' chunks. `gemm_tn_into` applies `tn_rows_acc`
//! chunk by chunk and `gemm_nt_into` applies `nt_rows` chunk by chunk, which
//! is why one pass over the features and two passes give the same bits.
//!
//! Both row-block kernels have two bodies: the portable one, and on x86-64
//! hosts whose CPUID reports AVX2 a 256-bit one, picked inside the kernel on
//! every call ([`dense_kernel_path`] says which). The AVX2 bodies keep the
//! portable arithmetic operation for operation — the same eight dot lanes,
//! the same reduction tree, a multiply and then an add, never a fused
//! multiply-add — so the two bodies agree bit for bit (NaN payloads aside,
//! which no Rust source pins down) and the choice moves cost only.

use crate::error::{LinalgError, Result};
use crate::vector;
use crate::vector::SendMutPtr;
use std::sync::Arc;

/// A row-major dense matrix of `f64` values.
///
/// The layout is row-major so that a "row" of the matrix (a sample in the ML
/// setting, or a class-weight vector when the matrix stores `W ∈ R^{(C-1)×p}`)
/// is a contiguous slice, which is what the objective kernels iterate over.
///
/// A row slice of a [`DenseMatrix::into_shared`] matrix is a view of its
/// buffer, not a copy. Reads go through [`DenseMatrix::as_slice`]; writes go
/// through [`DenseMatrix::as_mut_slice`], which first copies a view's rows
/// (copy-on-write), so a write never reaches a parent or a sibling.
#[derive(Clone)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Values,
}

/// Where a [`DenseMatrix`]'s values live.
#[derive(Clone)]
enum Values {
    /// Exactly `rows × cols` values that only this matrix holds.
    Owned(Vec<f64>),
    /// `rows × cols` values from the offset on, in a buffer others read too.
    Shared(Arc<Vec<f64>>, usize),
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_vec(rows, cols, vec![0.0; rows * cols])
    }

    /// Creates a matrix from an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: buffer length {} != {rows}x{cols}",
            data.len()
        );
        Self {
            rows,
            cols,
            data: Values::Owned(data),
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Creates an identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: inconsistent row length");
            data.extend_from_slice(r);
        }
        Self::from_vec(rows.len(), cols, data)
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

    /// Total number of stored elements (`rows * cols`).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `rows × cols` values, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        match &self.data {
            Values::Owned(v) => v,
            Values::Shared(buf, start) => &buf[*start..*start + self.len()],
        }
    }

    /// The values for writing; a view first copies its rows to its own buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        if let Values::Shared(..) = self.data {
            self.data = Values::Owned(self.as_slice().to_vec());
        }
        match &mut self.data {
            Values::Owned(v) => v,
            Values::Shared(..) => unreachable!("a view was copied on write above"),
        }
    }

    /// Consumes the matrix and returns its row-major values (a view's copied).
    pub fn into_vec(self) -> Vec<f64> {
        match self.data {
            Values::Owned(v) => v,
            Values::Shared(..) => self.as_slice().to_vec(),
        }
    }

    /// This matrix with its buffer moved, not copied, behind a shared
    /// handle, so that its row slices are views of it.
    pub fn into_shared(self) -> Self {
        let data = match self.data {
            Values::Owned(v) => Values::Shared(Arc::new(v), 0),
            shared => shared,
        };
        Self { data, ..self }
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.as_slice()[i * self.cols + j]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        let k = i * self.cols + j;
        self.as_mut_slice()[k] = v;
    }

    /// Contiguous slice holding row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        self.rows_slice(i, i + 1)
    }

    /// Mutable contiguous slice holding row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let cols = self.cols;
        &mut self.as_mut_slice()[i * cols..(i + 1) * cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Returns a matrix holding rows `start..end`: a view of the same buffer
    /// when this matrix is shared, a copy when it is owned.
    pub fn slice_rows(&self, start: usize, end: usize) -> DenseMatrix {
        assert!(
            start <= end && end <= self.rows,
            "slice_rows: invalid range {start}..{end} of {}",
            self.rows
        );
        let data = match &self.data {
            Values::Owned(_) => Values::Owned(self.rows_slice(start, end).to_vec()),
            Values::Shared(buf, offset) => Values::Shared(Arc::clone(buf), offset + start * self.cols),
        };
        DenseMatrix {
            rows: end - start,
            cols: self.cols,
            data,
        }
    }

    /// Returns a new matrix containing the rows selected by `indices`.
    pub fn select_rows(&self, indices: &[usize]) -> DenseMatrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            assert!(i < self.rows, "select_rows: row {i} out of {}", self.rows);
            data.extend_from_slice(self.row(i));
        }
        DenseMatrix::from_vec(indices.len(), self.cols, data)
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        vector::norm2(self.as_slice())
    }

    /// Matrix–vector product `y = A x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// In-place matrix–vector product `y = A x` writing into `y` (the
    /// allocation-free core that [`DenseMatrix::matvec`] wraps).
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != cols` or
    /// `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.cols || y.len() != self.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "matvec_into: A is {}x{}, x has length {}, y has length {}",
                self.rows,
                self.cols,
                x.len(),
                y.len()
            )));
        }
        let yp = SendMutPtr(y.as_mut_ptr());
        rayon::det::run(self.rows, 1, self.len() >= crate::par_threshold(), |s, e| {
            // SAFETY: canonical chunks are disjoint row ranges, so each
            // closure call owns its span of `y` exclusively.
            let yc = unsafe { std::slice::from_raw_parts_mut(yp.get().add(s), e - s) };
            for (i, yi) in (s..e).zip(yc) {
                *yi = vector::dot(self.row(i), x);
            }
        });
        Ok(())
    }

    /// Transposed matrix–vector product `y = Aᵀ x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != rows`.
    pub fn t_matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.cols];
        self.t_matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// In-place transposed matrix–vector product `y = Aᵀ x` (the core that
    /// [`DenseMatrix::t_matvec`] wraps). Reduces through the canonical row
    /// chunking (see the crate's [reduction order](crate#reduction-order));
    /// the single-chunk case accumulates directly into `y` with no scratch.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != rows` or
    /// `y.len() != cols`.
    pub fn t_matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.rows || y.len() != self.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "t_matvec_into: A is {}x{}, x has length {}, y has length {}",
                self.rows,
                self.cols,
                x.len(),
                y.len()
            )));
        }
        crate::scatter_rows_alloc(self.rows, self.len() >= crate::par_threshold(), y, |dst, s, e| {
            for (i, &xi) in (s..e).zip(&x[s..e]) {
                vector::axpy(xi, self.row(i), dst);
            }
        });
        Ok(())
    }

    /// General matrix–matrix product `C = A · B`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `A.cols != B.rows`.
    pub fn matmul(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != b.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "matmul: {}x{} times {}x{}",
                self.rows, self.cols, b.rows, b.cols
            )));
        }
        let mut out = DenseMatrix::zeros(self.rows, b.cols);
        let bcols = b.cols;
        if out.is_empty() {
            return Ok(out);
        }
        let use_pool = self.len().max(b.len()).max(out.len()) >= crate::par_threshold();
        let op = SendMutPtr(out.as_mut_slice().as_mut_ptr());
        rayon::det::run(self.rows, 1, use_pool, |s, e| {
            // SAFETY: canonical chunks are disjoint row ranges of `out`.
            let block = unsafe { std::slice::from_raw_parts_mut(op.get().add(s * bcols), (e - s) * bcols) };
            for (i, out_row) in (s..e).zip(block.chunks_exact_mut(bcols)) {
                let arow = self.row(i);
                for (k, &aik) in arow.iter().enumerate() {
                    if aik != 0.0 {
                        let brow = b.row(k);
                        for (j, bv) in brow.iter().enumerate() {
                            out_row[j] += aik * bv;
                        }
                    }
                }
            }
        });
        Ok(out)
    }

    /// `C = A · Bᵀ` where both operands are row-major; this is the natural
    /// kernel for computing sample-by-class margin matrices `Z = X Wᵀ`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `A.cols != B.cols`.
    pub fn gemm_nt(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(self.rows, b.rows);
        self.gemm_nt_into(b, &mut out)?;
        Ok(out)
    }

    /// In-place `C = A · Bᵀ` writing into a pre-sized `out` (the core that
    /// [`DenseMatrix::gemm_nt`] wraps).
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `A.cols != B.cols` or `out`
    /// is not `A.rows × B.rows`.
    pub fn gemm_nt_into(&self, b: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if self.cols != b.cols || out.rows != self.rows || out.cols != b.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "gemm_nt_into: {}x{} times ({}x{})ᵀ into {}x{}",
                self.rows, self.cols, b.rows, b.cols, out.rows, out.cols
            )));
        }
        let brows = b.rows;
        if out.is_empty() {
            return Ok(());
        }
        let use_pool = self.len().max(b.len()).max(out.len()) >= crate::par_threshold();
        let op = SendMutPtr(out.as_mut_slice().as_mut_ptr());
        rayon::det::run(self.rows, 1, use_pool, |s, e| {
            // SAFETY: canonical chunks are disjoint row ranges of `out`.
            let block = unsafe { std::slice::from_raw_parts_mut(op.get().add(s * brows), (e - s) * brows) };
            self.nt_rows(s, e, b, block);
        });
        Ok(())
    }

    /// Rows `s..e` of `A · Bᵀ` into `out_rows` (`(e − s) × B.rows`, row-major,
    /// `B.rows > 0`): the kernel of the fused sweep and of
    /// [`DenseMatrix::gemm_nt_into`]. Every element is bit for bit
    /// [`vector::dot`] of its row pair, without entering the `rayon::det`
    /// dispatcher once per element; rows are independent, so callers may cut
    /// `s..e` anywhere.
    pub(crate) fn nt_rows(&self, s: usize, e: usize, b: &DenseMatrix, out_rows: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU running this code reports AVX2, the one
            // feature `nt_rows_avx2` is compiled for.
            return unsafe { self.nt_rows_avx2(s, e, b, out_rows) };
        }
        self.nt_rows_portable(s, e, b, out_rows)
    }

    /// [`DenseMatrix::nt_rows`] in portable Rust: the only body on other
    /// hosts, and the reference the AVX2 body is held to.
    fn nt_rows_portable(&self, s: usize, e: usize, b: &DenseMatrix, out_rows: &mut [f64]) {
        let chunk_len = vector::reduce_chunk_len(self.cols);
        for (i, out_row) in (s..e).zip(out_rows.chunks_exact_mut(b.rows)) {
            let arow = self.row(i);
            for (j, oj) in out_row.iter_mut().enumerate() {
                *oj = vector::dot_in_chunk(arow, b.row(j), chunk_len);
            }
        }
    }

    /// [`DenseMatrix::nt_rows`] for AVX2 hosts: a row of `A` is walked once
    /// per [`NT_CLASS_BLOCK`] rows of `B` instead of once per row, see
    /// [`row_dots_avx2`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn nt_rows_avx2(&self, s: usize, e: usize, b: &DenseMatrix, out_rows: &mut [f64]) {
        let chunk_len = vector::reduce_chunk_len(self.cols);
        for (i, out_row) in (s..e).zip(out_rows.chunks_exact_mut(b.rows)) {
            let arow = self.row(i);
            for (block, out_block) in out_row.chunks_mut(NT_CLASS_BLOCK).enumerate() {
                let j = block * NT_CLASS_BLOCK;
                let b_rows = b.rows_slice(j, j + out_block.len());
                match out_block.len() {
                    NT_CLASS_BLOCK => row_dots_avx2::<NT_CLASS_BLOCK>(arow, b_rows, chunk_len, out_block),
                    2 => row_dots_avx2::<2>(arow, b_rows, chunk_len, out_block),
                    _ => row_dots_avx2::<1>(arow, b_rows, chunk_len, out_block),
                }
            }
        }
    }

    /// `C = Aᵀ · B` — used for gradient accumulation `G = (P − Y)ᵀ X`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `A.rows != B.rows`.
    pub fn gemm_tn(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(self.cols, b.cols);
        self.gemm_tn_into(b, &mut out)?;
        Ok(out)
    }

    /// In-place `C = Aᵀ · B` writing into a pre-sized `out` (the core that
    /// [`DenseMatrix::gemm_tn`] wraps). Reduces through the canonical row
    /// chunking (see the crate's [reduction order](crate#reduction-order));
    /// the single-chunk case accumulates directly into `out`, above 256 rows
    /// the chunk partials are one allocation per call. The solver hot loop
    /// does not come through here: it takes
    /// [`crate::Matrix::gemm_nt_map_tn_into`] with pooled scratch.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `A.rows != B.rows` or `out`
    /// is not `A.cols × B.cols`.
    pub fn gemm_tn_into(&self, b: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if self.rows != b.rows || out.rows != self.cols || out.cols != b.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "gemm_tn_into: ({}x{})ᵀ times {}x{} into {}x{}",
                self.rows, self.cols, b.rows, b.cols, out.rows, out.cols
            )));
        }
        crate::scatter_rows_alloc(
            self.rows,
            self.len().max(b.len()) >= crate::par_threshold(),
            out.as_mut_slice(),
            |dst, s, e| tn_rows_acc(self.rows_slice(s, e), self.cols, b.rows_slice(s, e), b.cols, dst),
        );
        Ok(())
    }

    /// The contiguous storage of rows `s..e`.
    #[inline]
    pub(crate) fn rows_slice(&self, s: usize, e: usize) -> &[f64] {
        &self.as_slice()[s * self.cols..e * self.cols]
    }

    /// In-place scalar multiplication.
    pub fn scale(&mut self, a: f64) {
        vector::scale(a, self.as_mut_slice());
    }

    /// In-place addition `self += other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] on dimension mismatch.
    pub fn add_assign(&mut self, other: &DenseMatrix) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "add_assign: {}x{} vs {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        vector::add_assign(self.as_mut_slice(), other.as_slice());
        Ok(())
    }

    /// In-place AXPY on matrices: `self += a * other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] on dimension mismatch.
    pub fn axpy(&mut self, a: f64, other: &DenseMatrix) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "axpy: {}x{} vs {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        vector::axpy(a, other.as_slice(), self.as_mut_slice());
        Ok(())
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        vector::norm_inf(self.as_slice())
    }

    /// Mean of every column, returned as a length-`cols` vector.
    pub fn col_means(&self) -> Vec<f64> {
        let mut m = vec![0.0; self.cols];
        for i in 0..self.rows {
            vector::add_assign(&mut m, self.row(i));
        }
        if self.rows > 0 {
            vector::scale(1.0 / self.rows as f64, &mut m);
        }
        m
    }

    /// Per-column standard deviation (population convention).
    pub fn col_stds(&self) -> Vec<f64> {
        let means = self.col_means();
        let mut s = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (j, v) in self.row(i).iter().enumerate() {
                let d = v - means[j];
                s[j] += d * d;
            }
        }
        if self.rows > 0 {
            for v in s.iter_mut() {
                *v = (*v / self.rows as f64).sqrt();
            }
        }
        s
    }
}

/// Equal shapes and equal values, wherever the values live.
impl PartialEq for DenseMatrix {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.as_slice() == other.as_slice()
    }
}

/// Prints the shape and this matrix's own values, never a parent buffer.
impl std::fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &self.as_slice())
            .finish()
    }
}

/// Which bodies the dense row-block kernels (`X·Wᵀ` and `Mᵀ·X`) run on this
/// host: `"avx2"` or `"portable"`. Same bits either way; benches record it
/// next to their timings.
pub fn dense_kernel_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// Rows of `B` the AVX2 `A·Bᵀ` body takes through one pass over a row of `A`;
/// `nt_rows_avx2` finishes a row count that is no multiple with a block of 2
/// or of 1.
#[cfg(target_arch = "x86_64")]
const NT_CLASS_BLOCK: usize = 3;

/// `out[c] = x · w[c·p..(c+1)·p]` for `B` contiguous rows of length
/// `p = x.len()`, each [`vector::dot_in_chunk`]'s value bit for bit:
/// [`vector::dot_kernel`]'s eight lanes are two 256-bit accumulators per row
/// (a multiply, then an add), finished by its reduction tree and sequential
/// tail, and the `chunk_len` partials fold left to right. One load of `x`
/// serves all `B` rows, whose `2·B` accumulators are independent add chains.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn row_dots_avx2<const B: usize>(x: &[f64], w: &[f64], chunk_len: usize, out: &mut [f64]) {
    use std::arch::x86_64::{_mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_setzero_pd, _mm256_storeu_pd};
    let p = x.len();
    assert!(
        w.len() == B * p && out.len() == B,
        "row_dots_avx2: {} weights, {} outputs for {B} rows of {p}",
        w.len(),
        out.len()
    );
    out.fill(0.0);
    for s in (0..p).step_by(chunk_len) {
        let e = (s + chunk_len).min(p);
        let tail_start = e - (e - s) % 8;
        let mut lanes = [[_mm256_setzero_pd(); 2]; B];
        for g in (s..tail_start).step_by(8) {
            // SAFETY: `g + 8 <= tail_start <= p`, `x` holds `p` elements and
            // `w` holds `B` rows of `p` (asserted above), so all four-element
            // loads at `g` and `g + 4` of `x` and of row `c < B` are in bounds.
            unsafe {
                let (x_lo, x_hi) = (_mm256_loadu_pd(x.as_ptr().add(g)), _mm256_loadu_pd(x.as_ptr().add(g + 4)));
                for (c, [lo, hi]) in lanes.iter_mut().enumerate() {
                    let w_c = w.as_ptr().add(c * p + g);
                    *lo = _mm256_add_pd(*lo, _mm256_mul_pd(x_lo, _mm256_loadu_pd(w_c)));
                    *hi = _mm256_add_pd(*hi, _mm256_mul_pd(x_hi, _mm256_loadu_pd(w_c.add(4))));
                }
            }
        }
        for (c, (o, [lo, hi])) in out.iter_mut().zip(lanes).enumerate() {
            let mut acc = [0.0f64; 8];
            // SAFETY: `acc` holds eight elements, four per store.
            unsafe {
                _mm256_storeu_pd(acc.as_mut_ptr(), lo);
                _mm256_storeu_pd(acc.as_mut_ptr().add(4), hi);
            }
            let mut tail = 0.0;
            for (a, b) in x[tail_start..e].iter().zip(&w[c * p + tail_start..c * p + e]) {
                tail += a * b;
            }
            let part = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail;
            if s == 0 {
                *o = part;
            } else {
                *o += part;
            }
        }
    }
}

/// `drow += a · x_row`, unless `a` is an exact zero.
#[inline]
fn add_scaled_row(a: f64, x_row: &[f64], drow: &mut [f64]) {
    if a != 0.0 {
        for (d, xv) in drow.iter_mut().zip(x_row) {
            *d += a * xv;
        }
    }
}

/// `dst += Mᵀ · X` over a run of sample rows: `m_rows` is `r × k`, `x_rows`
/// is `r × p`, `dst` is `k × p`, all row-major. Every element of `dst`
/// receives its rows' products one at a time in ascending row order, and a
/// coefficient that is an exact zero adds nothing (so a `−0.0` in `dst` and
/// an `∞` or NaN in `X` survive it). Four sample rows share each load and
/// store of a `dst` row; a group holding an exact zero for a class goes row
/// by row for that class.
pub(crate) fn tn_rows_acc(m_rows: &[f64], k: usize, x_rows: &[f64], p: usize, dst: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU running this code reports AVX2, the one feature
        // `tn_rows_acc_avx2` is compiled for.
        return unsafe { tn_rows_acc_avx2(m_rows, k, x_rows, p, dst) };
    }
    tn_rows_acc_portable(m_rows, k, x_rows, p, dst)
}

/// [`tn_rows_acc_portable`]'s source compiled a second time, for AVX2: the
/// elementwise loop runs four elements to a register. Rust never contracts a
/// multiply and an add into one rounding, so no bit can differ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tn_rows_acc_avx2(m_rows: &[f64], k: usize, x_rows: &[f64], p: usize, dst: &mut [f64]) {
    tn_rows_acc_portable(m_rows, k, x_rows, p, dst)
}

/// [`tn_rows_acc`]'s one source, inlined into each of its two builds.
#[inline(always)]
fn tn_rows_acc_portable(m_rows: &[f64], k: usize, x_rows: &[f64], p: usize, dst: &mut [f64]) {
    if k == 0 || p == 0 {
        return;
    }
    let mut m_groups = m_rows.chunks_exact(4 * k);
    let mut x_groups = x_rows.chunks_exact(4 * p);
    for (m4, x4) in (&mut m_groups).zip(&mut x_groups) {
        let (x0, rest) = x4.split_at(p);
        let (x1, rest) = rest.split_at(p);
        let (x2, x3) = rest.split_at(p);
        for (c, drow) in dst.chunks_exact_mut(p).enumerate() {
            let (a0, a1, a2, a3) = (m4[c], m4[k + c], m4[2 * k + c], m4[3 * k + c]);
            if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
                for ((((d, v0), v1), v2), v3) in drow.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
                    *d = (((*d + a0 * v0) + a1 * v1) + a2 * v2) + a3 * v3;
                }
            } else {
                for (a, x_row) in [(a0, x0), (a1, x1), (a2, x2), (a3, x3)] {
                    add_scaled_row(a, x_row, drow);
                }
            }
        }
    }
    for (m_row, x_row) in m_groups.remainder().chunks_exact(k).zip(x_groups.remainder().chunks_exact(p)) {
        for (drow, &a) in dst.chunks_exact_mut(p).zip(m_row) {
            add_scaled_row(a, x_row, drow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DenseMatrix {
        DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn construction_and_access() {
        let m = small();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
        assert!(!m.is_empty());
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn from_fn_and_identity() {
        let id = DenseMatrix::identity(3);
        assert_eq!(id.get(0, 0), 1.0);
        assert_eq!(id.get(0, 1), 0.0);
        let f = DenseMatrix::from_fn(2, 2, |i, j| (i + j) as f64);
        assert_eq!(f.get(1, 1), 2.0);
    }

    #[test]
    fn from_rows_builds_matrix() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(1, 0), 3.0);
        let e = DenseMatrix::from_rows(&[]);
        assert_eq!(e.rows(), 0);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = small();
        let y = m.matvec(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn t_matvec_matches_transpose_matvec() {
        let m = small();
        let y = m.t_matvec(&[1.0, 2.0]).unwrap();
        let yt = m.transpose().matvec(&[1.0, 2.0]).unwrap();
        assert_eq!(y, yt);
        assert!(m.t_matvec(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn t_matvec_parallel_path() {
        let rows = 600;
        let cols = 64;
        let m = DenseMatrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 7) % 17) as f64 * 0.1);
        let x: Vec<f64> = (0..rows).map(|i| (i % 5) as f64 - 2.0).collect();
        let par = m.t_matvec(&x).unwrap();
        let seq = m.transpose().matvec(&x).unwrap();
        for (a, b) in par.iter().zip(&seq) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn matmul_and_gemm_variants_agree() {
        let a = DenseMatrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let b = DenseMatrix::from_fn(3, 5, |i, j| (i as f64 - j as f64) * 0.5);
        let c = a.matmul(&b).unwrap();
        // gemm_nt with Bᵀ should equal matmul with B.
        let bt = b.transpose();
        let c2 = a.gemm_nt(&bt).unwrap();
        assert_eq!(c, c2);
        // gemm_tn: Aᵀ B computed directly vs via transpose.
        let atb = a.gemm_tn(&b.transpose().transpose());
        assert!(atb.is_err() || atb.is_ok()); // shape check below
        let d = DenseMatrix::from_fn(4, 2, |i, j| (i + j) as f64);
        let atd = a.gemm_tn(&d).unwrap();
        let expect = a.transpose().matmul(&d).unwrap();
        for (x, y) in atd.as_slice().iter().zip(expect.as_slice()) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
        assert!(a.gemm_nt(&DenseMatrix::zeros(2, 4)).is_err());
        assert!(a.gemm_tn(&DenseMatrix::zeros(3, 3)).is_err());
        let mut c = DenseMatrix::zeros(2, 3);
        assert!(c.add_assign(&DenseMatrix::zeros(3, 2)).is_err());
        assert!(c.axpy(1.0, &DenseMatrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn slicing_and_selection() {
        let m = DenseMatrix::from_fn(5, 2, |i, j| (i * 2 + j) as f64);
        let s = m.slice_rows(1, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.row(0), &[2.0, 3.0]);
        let sel = m.select_rows(&[4, 0]);
        assert_eq!(sel.row(0), &[8.0, 9.0]);
        assert_eq!(sel.row(1), &[0.0, 1.0]);
    }

    /// A shared 5×2 parent holding `0.0..10.0`, its rows 1..3 and its rows
    /// 3..5.
    fn parent_and_views() -> (DenseMatrix, DenseMatrix, DenseMatrix) {
        let parent = DenseMatrix::from_fn(5, 2, |i, j| (i * 2 + j) as f64).into_shared();
        let (view, sibling) = (parent.slice_rows(1, 3), parent.slice_rows(3, 5));
        (parent, view, sibling)
    }

    /// Whether `part`'s first value is the very value `whole` holds at `row`.
    fn aliases(part: &DenseMatrix, whole: &DenseMatrix, row: usize) -> bool {
        std::ptr::eq(part.as_slice().as_ptr(), whole.row(row).as_ptr())
    }

    #[test]
    fn slices_of_a_shared_matrix_are_views_of_its_rows() {
        let (parent, view, sibling) = parent_and_views();
        assert!(aliases(&view, &parent, 1) && aliases(&sibling, &parent, 3));
        assert_eq!((view.rows(), view.cols(), view.len()), (2, 2, 4));
        assert_eq!(view.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!((view.row(1), view.get(1, 1)), (&[4.0, 5.0][..], 5.0));
        assert!(aliases(&view.clone(), &parent, 1), "a clone of a view still aliases");
        assert!(aliases(&view.slice_rows(1, 2), &parent, 2), "so does a view of a view");
        assert_eq!(
            view.clone().into_vec(),
            vec![2.0, 3.0, 4.0, 5.0],
            "into_vec returns exactly its rows"
        );
        let elsewhere = DenseMatrix::from_vec(3, 2, vec![9.0, 9.0, 2.0, 3.0, 4.0, 5.0]).into_shared();
        assert_eq!(view, elsewhere.slice_rows(1, 3), "views over equal rows compare equal");
        assert_eq!(view, DenseMatrix::from_vec(2, 2, vec![2.0, 3.0, 4.0, 5.0]));
        assert_ne!(view, sibling);
        assert_eq!(
            format!("{view:?}"),
            "DenseMatrix { rows: 2, cols: 2, data: [2.0, 3.0, 4.0, 5.0] }"
        );
        let owned = DenseMatrix::from_fn(5, 2, |i, j| (i * 2 + j) as f64);
        assert!(
            !aliases(&owned.slice_rows(1, 3), &owned, 1),
            "a slice of an owned matrix copies"
        );
    }

    #[test]
    fn every_mutator_copies_a_view_before_writing_to_it() {
        let delta = DenseMatrix::from_vec(2, 2, vec![0.0, 0.0, -5.0, 0.0]);
        type Mutator = fn(&mut DenseMatrix, &DenseMatrix);
        let mutators: [(&str, Mutator); 6] = [
            ("row_mut", |m, _| m.row_mut(1)[0] = -1.0),
            ("set", |m, _| m.set(1, 0, -1.0)),
            ("as_mut_slice", |m, _| m.as_mut_slice()[2] = -1.0),
            ("scale", |m, _| m.scale(-0.25)),
            ("add_assign", |m, d| m.add_assign(d).unwrap()),
            ("axpy", |m, d| m.axpy(1.0, d).unwrap()),
        ];
        for (name, mutate) in mutators {
            let (parent, mut view, sibling) = parent_and_views();
            mutate(&mut view, &delta);
            assert_eq!(view.get(1, 0), -1.0, "{name}: the view reads back what was written");
            assert!(!aliases(&view, &parent, 1), "{name}: the view wrote to rows of its own");
            assert_eq!(
                bits(parent.as_slice()),
                bits(&(0..10).map(f64::from).collect::<Vec<_>>()),
                "{name}: parent"
            );
            assert!(aliases(&sibling, &parent, 3), "{name}: the sibling still reads the parent");
            assert_eq!(sibling.as_slice(), &[6.0, 7.0, 8.0, 9.0], "{name}: sibling");
        }
    }

    #[test]
    fn scale_add_axpy_norms() {
        let mut m = small();
        m.scale(2.0);
        assert_eq!(m.get(0, 0), 2.0);
        let other = small();
        m.add_assign(&other).unwrap();
        assert_eq!(m.get(0, 0), 3.0);
        m.axpy(-1.0, &other).unwrap();
        assert_eq!(m.get(0, 0), 2.0);
        assert!(m.frobenius_norm() > 0.0);
        assert_eq!(small().max_abs(), 6.0);
    }

    #[test]
    fn column_statistics() {
        let m = DenseMatrix::from_vec(2, 2, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(m.col_means(), vec![1.0, 2.0]);
        let stds = m.col_stds();
        assert!((stds[0] - 1.0).abs() < 1e-12);
        assert!((stds[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transpose_round_trip() {
        let m = small();
        assert_eq!(m.transpose().transpose(), m);
    }

    /// The bits of `v`, every NaN alike: when two NaNs meet, which payload
    /// survives depends on the operand order the compiler picked — in the
    /// portable body as much as in the AVX2 one.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() })
            .collect()
    }

    /// Gaussian entries with `+0.0`, `−0.0`, both infinities and a NaN mixed
    /// in (`awkward_features` of `proptest_parallel.rs`, plus the NaN).
    fn awkward(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut x = crate::gen::gaussian_matrix(rows, cols, &mut crate::gen::seeded_rng(seed));
        for i in 0..rows {
            for j in 0..cols {
                match (i * 7 + j * 5) % 17 {
                    0 => x.set(i, j, 0.0),
                    1 => x.set(i, j, -0.0),
                    _ => {}
                }
            }
        }
        for (i, j, v) in [
            (0, 11, f64::NAN),
            (1, 0, f64::INFINITY),
            (2, 1, f64::NEG_INFINITY),
            (2, 9, f64::INFINITY),
        ] {
            if i < rows && j < cols {
                x.set(i, j, v);
            }
        }
        x
    }

    /// `(rows, k, cols)`: every class-block remainder (`k`), column tails and
    /// one, two and three `REDUCE_CHUNK`s (`cols`), row groups of four with
    /// and without a remainder (`rows`) — the full cross product below a few
    /// hundred columns, and past that every `k` at one row count and every
    /// row count at one `k`.
    fn kernel_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::new();
        for cols in [1, 7, 8, 9, 15, 783, 784, 4096, 4097, 8200] {
            for k in 1..=21 {
                for rows in [1, 3, 4, 5, 31, 32, 33] {
                    if cols < 783 || rows == 5 || k == 4 {
                        shapes.push((rows, k, cols));
                    }
                }
            }
        }
        shapes
    }

    /// `vector::dot` one scalar at a time: eight lanes, `dot_kernel`'s tree,
    /// the sequential tail, and the `REDUCE_CHUNK` partials left to right.
    fn dot_spelled_out(x: &[f64], w: &[f64]) -> f64 {
        let mut total: Option<f64> = None;
        for (xc, wc) in x.chunks(4096).zip(w.chunks(4096)) {
            let full = xc.len() / 8 * 8;
            let mut lanes = [0.0f64; 8];
            for t in 0..full {
                lanes[t % 8] += xc[t] * wc[t];
            }
            let mut tail = 0.0;
            for t in full..xc.len() {
                tail += xc[t] * wc[t];
            }
            let part = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])) + tail;
            total = Some(total.map_or(part, |t| t + part));
        }
        total.unwrap_or(0.0)
    }

    /// Rows `s..e` of `x · wᵀ` from every body this host can run.
    fn nt_bodies(x: &DenseMatrix, s: usize, e: usize, w: &DenseMatrix) -> Vec<(&'static str, Vec<f64>)> {
        let fresh = || vec![7.0; (e - s) * w.rows()];
        let mut outs = vec![("portable", fresh()), ("chosen", fresh())];
        x.nt_rows_portable(s, e, w, &mut outs[0].1);
        x.nt_rows(s, e, w, &mut outs[1].1);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut out = fresh();
            // SAFETY: AVX2 was detected on the line above.
            unsafe { x.nt_rows_avx2(s, e, w, &mut out) };
            outs.push(("avx2", out));
        }
        outs
    }

    /// `dst + mᵀ · x` from every body this host can run.
    fn tn_bodies(m: &DenseMatrix, x: &DenseMatrix, dst: &[f64]) -> Vec<(&'static str, Vec<f64>)> {
        let (k, p) = (m.cols(), x.cols());
        let mut outs = vec![("portable", dst.to_vec()), ("chosen", dst.to_vec())];
        tn_rows_acc_portable(m.as_slice(), k, x.as_slice(), p, &mut outs[0].1);
        tn_rows_acc(m.as_slice(), k, x.as_slice(), p, &mut outs[1].1);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut out = dst.to_vec();
            // SAFETY: AVX2 was detected on the line above.
            unsafe { tn_rows_acc_avx2(m.as_slice(), k, x.as_slice(), p, &mut out) };
            outs.push(("avx2", out));
        }
        outs
    }

    #[test]
    fn dense_kernel_nt_rows_bodies_equal_the_dot_spelled_out_scalar_by_scalar() {
        for (rows, k, cols) in kernel_shapes() {
            // One spare row on either side: the kernels take a row range.
            let x = awkward(rows + 2, cols, (rows * 31 + k) as u64);
            let w = awkward(k, cols, (cols + 17 * k) as u64);
            let expect = DenseMatrix::from_fn(rows, k, |i, c| dot_spelled_out(x.row(i + 1), w.row(c)));
            assert_eq!(expect.get(0, 0).to_bits(), vector::dot(x.row(1), w.row(0)).to_bits());
            for (body, out) in nt_bodies(&x, 1, rows + 1, &w) {
                assert_eq!(
                    bits(&out),
                    bits(expect.as_slice()),
                    "{body} nt_rows at {rows}x{cols}, k = {k}"
                );
            }
        }
        // The public product is the same kernel chunk by chunk.
        let (x, w) = (awkward(300, 15, 1), awkward(5, 15, 2));
        let expect = DenseMatrix::from_fn(300, 5, |i, c| dot_spelled_out(x.row(i), w.row(c)));
        assert_eq!(bits(x.gemm_nt(&w).unwrap().as_slice()), bits(expect.as_slice()));
    }

    #[test]
    fn dense_kernel_tn_rows_acc_bodies_equal_ascending_row_adds_with_exact_zeros_skipped() {
        for (rows, k, cols) in kernel_shapes() {
            let x = awkward(rows, cols, (rows * 13 + k) as u64);
            // Coefficients with exact zeros of both signs (so some groups of
            // four rows take the shared pass and some go row by row) and an
            // accumulator that already holds `−0.0` and an infinity.
            let mut m = crate::gen::gaussian_matrix(rows, k, &mut crate::gen::seeded_rng((cols + k) as u64));
            for i in 0..rows {
                for c in 0..k {
                    match (i * 5 + c * 3) % 11 {
                        0 => m.set(i, c, 0.0),
                        1 => m.set(i, c, -0.0),
                        _ => {}
                    }
                }
            }
            let mut dst = awkward(k, cols, 3).into_vec();
            dst[0] = -0.0;
            let mut expect = dst.clone();
            for i in 0..rows {
                for c in 0..k {
                    let a = m.get(i, c);
                    if a == 0.0 {
                        continue;
                    }
                    for j in 0..cols {
                        expect[c * cols + j] += a * x.get(i, j);
                    }
                }
            }
            for (body, out) in tn_bodies(&m, &x, &dst) {
                assert_eq!(bits(&out), bits(&expect), "{body} tn_rows_acc at {rows}x{cols}, k = {k}");
            }
        }
    }

    #[test]
    fn dense_kernel_path_names_the_bodies_the_tests_above_exercised() {
        let ran = nt_bodies(&small(), 0, 2, &small()).len();
        match dense_kernel_path() {
            "avx2" => {
                assert_eq!(ran, 3);
                println!("dense kernels: avx2");
            }
            "portable" => {
                assert_eq!(ran, 2);
                println!("dense kernels: portable (AVX2 body not exercised on this host)");
            }
            other => panic!("unknown dense kernel path {other:?}"),
        }
    }
}
