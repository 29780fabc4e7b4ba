//! # nadmm-linalg
//!
//! Dense and sparse linear-algebra kernels used throughout the Newton-ADMM
//! reproduction.
//!
//! The crate intentionally avoids external BLAS bindings: every kernel is a
//! plain-Rust, rayon-parallel implementation (the two dense row-block kernels
//! also carry a `std::arch` AVX2 body with the same bits, see [`dense`]) so
//! that the whole workspace builds offline and the simulated GPU device
//! (`nadmm-device`) can reuse the same kernels while attaching an analytic
//! cost model to them.
//!
//! The main building blocks are:
//!
//! * [`DenseMatrix`] — row-major dense matrix with parallel GEMM/GEMV,
//! * [`CsrMatrix`] — compressed sparse row matrix with SpMV / SpMM kernels,
//! * [`Matrix`] — an enum unifying dense and sparse feature matrices behind
//!   the handful of operations the objectives need, including the fused
//!   sweep [`Matrix::gemm_nt_map_tn_into`] (`X·Wᵀ → row map → Mᵀ·X` in one
//!   pass over `X`),
//! * [`vector`] — BLAS-1 style slice kernels (`dot`, `axpy`, norms, …),
//! * [`reduce`] — numerically-stable reductions (log-sum-exp, softmax rows),
//! * [`gen`] — random matrix/vector generation with controllable spectra
//!   (used by the tests and the synthetic dataset generators),
//! * [`half`] — hand-rolled f16 conversions (the reduced-precision seam:
//!   compressed collectives and f16 artifact weight blocks both use these).
//!
//! ## Reduction order
//!
//! Scatter-shaped kernels (`Aᵀx`, `AᵀB`, and the fused sweep) share one
//! order contract, stated at `scatter_rows`: rows are cut by the canonical
//! layout of `rayon::det` at multiples of 256, every chunk accumulates into a
//! partial that starts from exact zeros and takes its rows in ascending
//! order, and partials fold left to right in chunk order. The fused sweep
//! adds nothing to that contract — rows of `X·Wᵀ` and of the row map are
//! independent of each other, so carrying a sub-block of rows through both
//! products before moving on changes which bytes are in cache, not which
//! additions happen in which order. Neither do the CSR kernels, which hold
//! their weight-space operands class-interleaved (see [`sparse`]): that
//! moves operands, not operations. Nor do the AVX2 bodies of the dense
//! kernels (see [`dense`]): the same operations, four to a register, a
//! multiply and an add never fused. Scratch comes from the caller
//! ([`row_partials`] and [`Matrix::sweep_scratch_len`] say how much), so none
//! of these drivers allocates.

pub mod dense;
pub mod error;
pub mod gen;
pub mod half;
pub mod matrix;
pub mod reduce;
pub mod sparse;
pub mod vector;

pub use dense::{dense_kernel_path, DenseMatrix};
pub use error::{LinalgError, Result};
pub use matrix::{Matrix, SweepBuffers};
pub use sparse::CsrMatrix;

use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default rayon cutover threshold when neither the environment variable nor
/// [`set_par_threshold`] overrides it.
///
/// Tuned from measurement: one pooled dispatch costs ~1.5µs with workers
/// engaged, and the sequential `dot` kernel moves ~2 elements/ns, so a
/// region needs ~32k
/// scalar elements before the launch overhead falls under ~10% of the
/// region's work. Below this, inline execution wins at any width.
pub const DEFAULT_PAR_THRESHOLD: usize = 32 * 1024;

/// Environment variable overriding the rayon cutover threshold.
pub const PAR_THRESHOLD_ENV: &str = "NADMM_PAR_THRESHOLD";

static PAR_THRESHOLD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static PAR_THRESHOLD_OVERRIDDEN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
static PAR_THRESHOLD_ENV_VALUE: OnceLock<usize> = OnceLock::new();

/// Threshold (in number of scalar elements touched) below which kernels run
/// sequentially instead of paying rayon's fork/join overhead.
///
/// Resolution order: the last value passed to [`set_par_threshold`], then the
/// `NADMM_PAR_THRESHOLD` environment variable (read once), then
/// [`DEFAULT_PAR_THRESHOLD`]. Small-problem test suites can force the
/// sequential path (`NADMM_PAR_THRESHOLD=18446744073709551615`) and large
/// benches can force the parallel one (`NADMM_PAR_THRESHOLD=0`) without
/// recompiling.
#[inline]
pub fn par_threshold() -> usize {
    if PAR_THRESHOLD_OVERRIDDEN.load(Ordering::Relaxed) {
        return PAR_THRESHOLD_OVERRIDE.load(Ordering::Relaxed);
    }
    *PAR_THRESHOLD_ENV_VALUE.get_or_init(|| match std::env::var(PAR_THRESHOLD_ENV) {
        Ok(raw) => parse_par_threshold_env(&raw),
        Err(std::env::VarError::NotPresent) => DEFAULT_PAR_THRESHOLD,
        Err(std::env::VarError::NotUnicode(raw)) => {
            panic!("{PAR_THRESHOLD_ENV} is set to a non-UTF-8 value ({raw:?}); {PAR_THRESHOLD_ACCEPTED}")
        }
    })
}

/// The values [`PAR_THRESHOLD_ENV`] accepts, for error messages.
const PAR_THRESHOLD_ACCEPTED: &str =
    "accepted values: a non-negative element count (0 forces the parallel kernels, 18446744073709551615 disables them)";

/// Parses a [`PAR_THRESHOLD_ENV`] value.
///
/// # Panics
/// Panics when the value is not a non-negative integer, naming the variable,
/// the bad value, and the accepted values. A garbled threshold used to fall
/// back silently to the default, which turns an intended sequential/parallel
/// ablation into a wrong experiment — failing loudly is the only safe
/// behaviour (the `NADMM_THREADS` parser applies the same rule).
pub fn parse_par_threshold_env(raw: &str) -> usize {
    raw.trim()
        .parse()
        .unwrap_or_else(|_| panic!("{PAR_THRESHOLD_ENV}='{raw}' is not a valid threshold; {PAR_THRESHOLD_ACCEPTED}"))
}

/// Overrides the rayon cutover threshold at runtime (process-wide). Passing
/// `usize::MAX` disables parallel kernels entirely; passing `0` forces them.
pub fn set_par_threshold(threshold: usize) {
    PAR_THRESHOLD_OVERRIDE.store(threshold, Ordering::Relaxed);
    PAR_THRESHOLD_OVERRIDDEN.store(true, Ordering::Relaxed);
}

/// Clears any [`set_par_threshold`] override, returning to the environment /
/// default resolution.
pub fn reset_par_threshold() {
    PAR_THRESHOLD_OVERRIDDEN.store(false, Ordering::Relaxed);
}

/// Canonical row granularity for scatter-style kernels (`Aᵀx`, `AᵀB`): rows
/// are cut into chunks of multiples of this many rows, each chunk reduced
/// into its own partial accumulator.
pub(crate) const ROW_CHUNK: usize = 256;

/// Rows the fused sweep ([`Matrix::gemm_nt_map_tn_into`]) carries through
/// `X·Wᵀ → map → Mᵀ·X` at a time: a few dozen feature rows stay in L2
/// between the two products. A multiple of four (the `Mᵀ·X` kernel's row
/// group) that divides [`ROW_CHUNK`]; it moves cost, never bits.
pub(crate) const SWEEP_ROWS: usize = 32;

/// Number of partial accumulators (each as long as the output) the
/// row-chunked reducers need as scratch for `rows` rows: none while the rows
/// form a single canonical chunk, one per chunk otherwise. A function of
/// `rows` alone — not of the pool width or the threshold — so a caller's
/// pooled-scratch footprint is the same on every execution path.
pub fn row_partials(rows: usize) -> usize {
    match rayon::det::layout(rows, ROW_CHUNK).1 {
        0 | 1 => 0,
        chunks => chunks,
    }
}

/// Shared scatter-accumulate driver for `Aᵀx` / `AᵀB`-shaped kernels:
/// `eval_into(dst, s, e)` must *accumulate* the contribution of rows `s..e`
/// into `dst`. The canonical contract: each chunk of the
/// [`rayon::det::layout`] for `(items, ROW_CHUNK)` produces a partial starting
/// from exact zeros, and partials fold into `out` left-to-right in chunk
/// order — so bits never depend on the thread count or the threshold.
///
/// `partials` is the caller's scratch, at least [`row_partials`]`(items)`
/// accumulators of `out.len()` elements (contents unspecified); the driver
/// itself never allocates. The single-chunk case accumulates straight into
/// `out` (bitwise the same because `out` is zero-filled exactly like a fresh
/// partial), the inline multi-chunk case does the same for the first chunk
/// and reuses one partial for every later one, and the pooled case fills one
/// partial per chunk on the workers before the same left-to-right fold.
pub(crate) fn scatter_rows<E>(items: usize, use_pool: bool, out: &mut [f64], partials: &mut [f64], eval_into: E)
where
    E: Fn(&mut [f64], usize, usize) + Sync,
{
    // Resolve the width unconditionally: a garbage `NADMM_THREADS` must
    // panic loudly on the first kernel call, not only once a region happens
    // to clear the par-threshold gate.
    let pool_width = rayon::current_num_threads();
    let (chunk_len, num_chunks) = rayon::det::layout(items, ROW_CHUNK);
    let width = out.len();
    if num_chunks <= 1 || width == 0 {
        vector::fill(out, 0.0);
        if num_chunks == 1 {
            eval_into(out, 0, items);
        }
        return;
    }
    assert!(
        partials.len() >= num_chunks * width,
        "scatter_rows: {} scratch elements for {num_chunks} partials of {width}",
        partials.len()
    );
    let chunk_range = |c: usize| (c * chunk_len, ((c + 1) * chunk_len).min(items));
    if use_pool && pool_width > 1 {
        let partials = &mut partials[..num_chunks * width];
        partials.par_chunks_mut(width).enumerate().for_each(|(c, partial)| {
            vector::fill(partial, 0.0);
            let (s, e) = chunk_range(c);
            eval_into(partial, s, e);
        });
        let mut folded = partials.chunks_exact(width);
        out.copy_from_slice(folded.next().expect("scatter_rows: at least two partials here"));
        for partial in folded {
            vector::add_assign(out, partial);
        }
        return;
    }
    vector::fill(out, 0.0);
    eval_into(out, 0, chunk_len);
    let partial = &mut partials[..width];
    for c in 1..num_chunks {
        vector::fill(partial, 0.0);
        let (s, e) = chunk_range(c);
        eval_into(partial, s, e);
        vector::add_assign(out, partial);
    }
}

/// [`scatter_rows`] for the two-pass entry points, which are handed no
/// scratch: one allocation for all partials, none for a single chunk.
pub(crate) fn scatter_rows_alloc<E>(items: usize, use_pool: bool, out: &mut [f64], eval_into: E)
where
    E: Fn(&mut [f64], usize, usize) + Sync,
{
    let mut partials = vec![0.0; row_partials(items) * out.len()];
    scatter_rows(items, use_pool, out, &mut partials, eval_into);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_threshold_override_round_trips() {
        let before = par_threshold();
        set_par_threshold(42);
        assert_eq!(par_threshold(), 42);
        set_par_threshold(0);
        assert_eq!(par_threshold(), 0);
        // Kernels must still be correct when forced onto the parallel path.
        let x: Vec<f64> = (0..100).map(|i| i as f64 * 0.25).collect();
        let y: Vec<f64> = (0..100).map(|i| (i % 7) as f64).collect();
        let forced_par = vector::dot(&x, &y);
        set_par_threshold(usize::MAX);
        let forced_seq = vector::dot(&x, &y);
        assert!((forced_par - forced_seq).abs() < 1e-9 * forced_seq.abs().max(1.0));
        reset_par_threshold();
        assert_eq!(par_threshold(), before);
    }

    #[test]
    fn par_threshold_env_values_parse_or_panic_loudly() {
        assert_eq!(parse_par_threshold_env("0"), 0);
        assert_eq!(parse_par_threshold_env(" 16384 "), 16 * 1024);
        assert_eq!(parse_par_threshold_env("18446744073709551615"), usize::MAX);
        for bad in ["", "garbage", "-1", "1.5", "0x10"] {
            let err = std::panic::catch_unwind(|| parse_par_threshold_env(bad)).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("NADMM_PAR_THRESHOLD") && msg.contains("accepted values"),
                "panic for {bad:?} must name the variable and the accepted values: {msg}"
            );
        }
    }

    #[test]
    fn crate_level_reexports_work() {
        let m = DenseMatrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        let s = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]);
        assert_eq!(s.nnz(), 2);
        let v = vec![3.0, 4.0];
        assert!((vector::norm2(&v) - 5.0).abs() < 1e-12);
    }
}
