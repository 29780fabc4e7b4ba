//! BLAS-1 style kernels over `&[f64]` slices.
//!
//! All kernels run inline below [`crate::par_threshold()`] elements
//! (runtime-configurable via `NADMM_PAR_THRESHOLD` or
//! [`crate::set_par_threshold`]) and on the shared thread pool above it.
//! Every reduction states its combine order once through the canonical chunk
//! layout in [`rayon::det`] — a pure function of the input length, never of
//! the thread count — and both the inline and pooled paths fold partials in
//! that same chunk order. The threshold and `NADMM_THREADS` therefore change
//! cost, never bits.

use rayon::prelude::*;

/// Canonical granularity (elements) for BLAS-1 reductions: large enough that
/// a chunk amortizes dispatch, small enough to spread across workers.
pub(crate) const REDUCE_CHUNK: usize = 4096;

/// Raw mutable base pointer smuggled into a `Sync` chunk closure. Sound
/// because canonical chunks are disjoint index ranges, so concurrent chunk
/// bodies touch disjoint memory.
pub(crate) struct SendMutPtr(pub(crate) *mut f64);
// SAFETY: the pointer is only dereferenced inside canonical chunk bodies,
// which write disjoint index ranges (see the struct doc); sharing the wrapper
// across threads therefore never produces aliasing mutable access.
unsafe impl Send for SendMutPtr {}
// SAFETY: as for Send — all access goes through disjoint chunk ranges.
unsafe impl Sync for SendMutPtr {}

impl SendMutPtr {
    /// Accessor (rather than direct field access) so closures capture the
    /// `Sync` wrapper, not the raw pointer field (edition-2021 closures
    /// capture individual fields).
    #[inline]
    pub(crate) fn get(&self) -> *mut f64 {
        self.0
    }
}

/// Unrolled sequential dot kernel: eight independent accumulators break the
/// floating-point add dependency chain, which is the difference between
/// ~1 add per FP latency (the naive `zip().map().sum()` loop — the compiler
/// may not reassociate float sums) and one per issue slot. All dot-shaped
/// reductions in the workspace route through this kernel, so the allocating
/// and in-place code paths stay bit-identical.
#[inline]
pub(crate) fn dot_kernel(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut xc = x.chunks_exact(8);
    let mut yc = y.chunks_exact(8);
    for (cx, cy) in (&mut xc).zip(&mut yc) {
        acc[0] += cx[0] * cy[0];
        acc[1] += cx[1] * cy[1];
        acc[2] += cx[2] * cy[2];
        acc[3] += cx[3] * cy[3];
        acc[4] += cx[4] * cy[4];
        acc[5] += cx[5] * cy[5];
        acc[6] += cx[6] * cy[6];
        acc[7] += cx[7] * cy[7];
    }
    let mut tail = 0.0;
    for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
        tail += a * b;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// Dot product `xᵀ y`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch {} vs {}", x.len(), y.len());
    rayon::det::fold(
        x.len(),
        REDUCE_CHUNK,
        x.len() >= crate::par_threshold(),
        |s, e| dot_kernel(&x[s..e], &y[s..e]),
        |a, b| a + b,
    )
    .unwrap_or(0.0)
}

/// [`dot`]'s reduction granularity resolved once for vectors of `len`
/// elements: the chunk length [`dot_in_chunk`] takes.
#[inline]
pub(crate) fn reduce_chunk_len(len: usize) -> usize {
    rayon::det::layout(len, REDUCE_CHUNK).0.max(1)
}

/// [`dot`] for callers already inside a canonical chunk (one GEMM output
/// row): the same [`REDUCE_CHUNK`] partials folded left to right, without
/// re-entering the `rayon::det` dispatcher once per output element.
/// `chunk_len` is [`reduce_chunk_len`] of the operand length.
#[inline]
pub(crate) fn dot_in_chunk(x: &[f64], y: &[f64], chunk_len: usize) -> f64 {
    let mut parts = x.chunks(chunk_len).zip(y.chunks(chunk_len));
    let Some((x0, y0)) = parts.next() else {
        return 0.0;
    };
    let mut acc = dot_kernel(x0, y0);
    for (xc, yc) in parts {
        acc += dot_kernel(xc, yc);
    }
    acc
}

/// Unrolled gather-dot for sparse rows: `Σ values[i] · x[indices[i]]`.
#[inline]
pub fn gather_dot(indices: &[usize], values: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(indices.len(), values.len());
    let mut acc = [0.0f64; 4];
    let mut ic = indices.chunks_exact(4);
    let mut vc = values.chunks_exact(4);
    for (ci, cv) in (&mut ic).zip(&mut vc) {
        acc[0] += cv[0] * x[ci[0]];
        acc[1] += cv[1] * x[ci[1]];
        acc[2] += cv[2] * x[ci[2]];
        acc[3] += cv[3] * x[ci[3]];
    }
    let mut tail = 0.0;
    for (&c, &v) in ic.remainder().iter().zip(vc.remainder()) {
        tail += v * x[c];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Euclidean norm `‖x‖₂`.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Squared Euclidean norm `‖x‖₂²`.
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Infinity norm `‖x‖_∞`.
pub fn norm_inf(x: &[f64]) -> f64 {
    rayon::det::fold(
        x.len(),
        REDUCE_CHUNK,
        x.len() >= crate::par_threshold(),
        |s, e| x[s..e].iter().fold(0.0_f64, |acc, v| acc.max(v.abs())),
        f64::max,
    )
    .unwrap_or(0.0)
}

/// `y ← a·x + y` (classic AXPY).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch {} vs {}", x.len(), y.len());
    if x.len() < crate::par_threshold() {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += a * xi;
        }
    } else {
        y.par_iter_mut().zip(x.par_iter()).for_each(|(yi, xi)| *yi += a * xi);
    }
}

/// One canonical chunk of [`axpy_dot`]: fused update + four-accumulator
/// squared sum over a contiguous range.
#[inline]
fn axpy_dot_chunk(a: f64, x: &[f64], y: &mut [f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut yc = y.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    for (cy, cx) in (&mut yc).zip(&mut xc) {
        cy[0] += a * cx[0];
        cy[1] += a * cx[1];
        cy[2] += a * cx[2];
        cy[3] += a * cx[3];
        acc[0] += cy[0] * cy[0];
        acc[1] += cy[1] * cy[1];
        acc[2] += cy[2] * cy[2];
        acc[3] += cy[3] * cy[3];
    }
    let mut tail = 0.0;
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += a * xi;
        tail += *yi * *yi;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Fused AXPY + squared norm: `y ← a·x + y`, returning `‖y‖₂²` of the
/// updated `y` in the same pass. This is the CG residual-update kernel
/// (`r ← r − α·Ap; ‖r‖²`) fused so the hot loop touches `r` once instead of
/// twice. The sum uses four unrolled accumulators per canonical chunk, so
/// its rounding differs from the unfused [`axpy`] + [`norm2_sq`] pair by the
/// usual reassociation noise; every CG path in the workspace routes through
/// this one kernel, and the fused form runs on both sides of the parallel
/// threshold, so solver results stay bit-identical across entry points,
/// thresholds, and thread counts.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn axpy_dot(a: f64, x: &[f64], y: &mut [f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "axpy_dot: length mismatch {} vs {}", x.len(), y.len());
    let yp = SendMutPtr(y.as_mut_ptr());
    rayon::det::fold(
        x.len(),
        REDUCE_CHUNK,
        x.len() >= crate::par_threshold(),
        |s, e| {
            // SAFETY: canonical chunks are disjoint, so each closure call
            // owns its sub-slice of `y` exclusively.
            let yc = unsafe { std::slice::from_raw_parts_mut(yp.get().add(s), e - s) };
            axpy_dot_chunk(a, &x[s..e], yc)
        },
        |p, q| p + q,
    )
    .unwrap_or(0.0)
}

/// `y ← a·x + b·y`.
pub fn axpby(a: f64, x: &[f64], b: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpby: length mismatch {} vs {}", x.len(), y.len());
    if x.len() < crate::par_threshold() {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = a * xi + b * *yi;
        }
    } else {
        y.par_iter_mut().zip(x.par_iter()).for_each(|(yi, xi)| *yi = a * xi + b * *yi);
    }
}

/// `x ← a·x`.
pub fn scale(a: f64, x: &mut [f64]) {
    if x.len() < crate::par_threshold() {
        for xi in x.iter_mut() {
            *xi *= a;
        }
    } else {
        x.par_iter_mut().for_each(|xi| *xi *= a);
    }
}

/// Returns `a·x` as a new vector.
pub fn scaled(a: f64, x: &[f64]) -> Vec<f64> {
    x.iter().map(|v| a * v).collect()
}

/// Element-wise sum `x + y` as a new vector.
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "add: length mismatch {} vs {}", x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a + b).collect()
}

/// Element-wise difference `x - y` as a new vector.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch {} vs {}", x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// In-place element-wise addition `x += y`.
pub fn add_assign(x: &mut [f64], y: &[f64]) {
    axpy(1.0, y, x);
}

/// In-place element-wise subtraction `x -= y`.
pub fn sub_assign(x: &mut [f64], y: &[f64]) {
    axpy(-1.0, y, x);
}

/// Sets every element of `x` to `value`.
pub fn fill(x: &mut [f64], value: f64) {
    for xi in x.iter_mut() {
        *xi = value;
    }
}

/// Copies `src` into `dst`.
///
/// # Panics
/// Panics if lengths differ.
pub fn copy(src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "copy: length mismatch {} vs {}", src.len(), dst.len());
    dst.copy_from_slice(src);
}

/// Sum of all elements.
pub fn sum(x: &[f64]) -> f64 {
    rayon::det::fold(
        x.len(),
        REDUCE_CHUNK,
        x.len() >= crate::par_threshold(),
        |s, e| x[s..e].iter().sum::<f64>(),
        |a, b| a + b,
    )
    .unwrap_or(0.0)
}

/// Arithmetic mean of all elements; `0.0` for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        sum(x) / x.len() as f64
    }
}

/// Euclidean distance `‖x − y‖₂`.
pub fn distance(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "distance: length mismatch {} vs {}", x.len(), y.len());
    x.iter()
        .zip(y)
        .map(|(a, b)| {
            let d = a - b;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Returns `true` if all elements are finite (no NaN / ±∞).
pub fn all_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// Linear combination `Σ cᵢ · vᵢ` of equally-long vectors.
///
/// # Panics
/// Panics if `coeffs.len() != vectors.len()`, if `vectors` is empty, or if the
/// vectors have differing lengths.
pub fn linear_combination(coeffs: &[f64], vectors: &[&[f64]]) -> Vec<f64> {
    assert_eq!(
        coeffs.len(),
        vectors.len(),
        "linear_combination: {} coeffs vs {} vectors",
        coeffs.len(),
        vectors.len()
    );
    assert!(!vectors.is_empty(), "linear_combination: empty input");
    let n = vectors[0].len();
    let mut out = vec![0.0; n];
    for (c, v) in coeffs.iter().zip(vectors) {
        assert_eq!(v.len(), n, "linear_combination: vector length mismatch");
        axpy(*c, v, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_small() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 5.0, 6.0];
        assert!((dot(&x, &y) - 32.0).abs() < 1e-12);
    }

    #[test]
    fn dot_large_matches_sequential() {
        let n = crate::DEFAULT_PAR_THRESHOLD * 2 + 7;
        let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 * 0.5).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 * 0.25).collect();
        let seq: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let par = dot(&x, &y);
        assert!((seq - par).abs() < 1e-6 * seq.abs().max(1.0));
    }

    #[test]
    fn norms() {
        let x = [3.0, -4.0];
        assert!((norm2(&x) - 5.0).abs() < 1e-12);
        assert!((norm2_sq(&x) - 25.0).abs() < 1e-12);
        assert!((norm_inf(&x) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_dot_matches_unfused_pair() {
        for n in [0usize, 1, 3, 4, 7, 8, 19, 64, 257] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let y0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
            let a = -0.625;
            let mut fused = y0.clone();
            let rs = axpy_dot(a, &x, &mut fused);
            let mut unfused = y0.clone();
            axpy(a, &x, &mut unfused);
            assert_eq!(fused, unfused, "n={n}: updated vectors must be identical");
            let expect = norm2_sq(&unfused);
            assert!((rs - expect).abs() <= 1e-12 * expect.max(1.0), "n={n}: {rs} vs {expect}");
        }
    }

    #[test]
    fn gather_dot_matches_dense_dot() {
        let x: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        for nnz in [0usize, 1, 3, 4, 5, 9, 31] {
            let indices: Vec<usize> = (0..nnz).map(|i| (i * 7) % 50).collect();
            let values: Vec<f64> = (0..nnz).map(|i| (i as f64 * 0.3).cos()).collect();
            let expect: f64 = indices.iter().zip(&values).map(|(&c, &v)| v * x[c]).sum();
            let got = gather_dot(&indices, &values, &x);
            assert!(
                (got - expect).abs() < 1e-12 * expect.abs().max(1.0),
                "nnz={nnz}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn axpy_and_axpby() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        axpby(1.0, &x, 0.5, &mut y);
        assert_eq!(y, [7.0, 14.0]);
    }

    #[test]
    fn scale_and_fill_and_copy() {
        let mut x = vec![1.0, 2.0, 3.0];
        scale(3.0, &mut x);
        assert_eq!(x, vec![3.0, 6.0, 9.0]);
        fill(&mut x, 0.5);
        assert_eq!(x, vec![0.5, 0.5, 0.5]);
        let src = vec![9.0, 8.0, 7.0];
        copy(&src, &mut x);
        assert_eq!(x, src);
        assert_eq!(scaled(2.0, &src), vec![18.0, 16.0, 14.0]);
    }

    #[test]
    fn add_sub_helpers() {
        let x = [1.0, 2.0];
        let y = [3.0, 5.0];
        assert_eq!(add(&x, &y), vec![4.0, 7.0]);
        assert_eq!(sub(&y, &x), vec![2.0, 3.0]);
        let mut z = vec![1.0, 1.0];
        add_assign(&mut z, &x);
        assert_eq!(z, vec![2.0, 3.0]);
        sub_assign(&mut z, &x);
        assert_eq!(z, vec![1.0, 1.0]);
    }

    #[test]
    fn sum_mean_distance() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((sum(&x) - 10.0).abs() < 1e-12);
        assert!((mean(&x) - 2.5).abs() < 1e-12);
        assert!((mean(&[]) - 0.0).abs() < 1e-12);
        assert!((distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn finite_check() {
        assert!(all_finite(&[1.0, -2.0, 0.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }

    #[test]
    fn linear_combination_basic() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        let out = linear_combination(&[2.0, 3.0], &[&a, &b]);
        assert_eq!(out, vec![2.0, 3.0]);
    }

    #[test]
    #[should_panic]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
