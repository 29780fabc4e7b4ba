//! Bit-identity proofs for the execution engine: every kernel must produce
//! the **same bits** regardless of how many pool workers execute it and
//! regardless of which side of the `NADMM_PAR_THRESHOLD` cutover it lands
//! on. This is the determinism contract of the canonical-chunk combine
//! order (`rayon::det`): chunk layout depends only on `(items, grain)`,
//! partials combine left-to-right in chunk order, and the sequential
//! fallback folds in exactly the same association.
//!
//! The tests sweep widths {1, 2, 3, 8} (non-power-of-two included) crossed
//! with thresholds {0 = always pooled, MAX = always inline} and compare
//! `f64::to_bits` of every output element against the width-1/inline
//! reference. Shapes include empty, single-element, non-power-of-two, and
//! multi-chunk (> one `ROW_CHUNK` / `REDUCE_CHUNK`) cases.

use nadmm_linalg::{gen, vector, CsrMatrix, DenseMatrix, Matrix, SweepBuffers};
use proptest::prelude::*;
use std::sync::Mutex;

/// Thread widths under test: sequential, even, odd, and oversubscribed
/// relative to the container.
const WIDTHS: [usize; 4] = [1, 2, 3, 8];

/// Both sides of the par-threshold cutover: 0 forces every kernel through
/// the pool dispatch path, `usize::MAX` forces the inline fold.
const THRESHOLDS: [usize; 2] = [0, usize::MAX];

/// Pool width and par-threshold are process-wide; the test binary runs test
/// functions on concurrent threads, so every sweep holds this lock.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under every (width, threshold) combination and asserts the
/// returned bit-vector is identical to the width=1/inline reference.
fn assert_bits_invariant(label: &str, f: impl Fn() -> Vec<u64>) {
    // A failed sweep poisons the lock; every later sweep must still give
    // its own verdict (each one sets the knobs it needs first).
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    rayon::set_num_threads(1);
    nadmm_linalg::set_par_threshold(usize::MAX);
    let reference = f();
    for &width in &WIDTHS {
        rayon::set_num_threads(width);
        for &threshold in &THRESHOLDS {
            nadmm_linalg::set_par_threshold(threshold);
            let got = f();
            assert_eq!(
                got, reference,
                "{label}: bits diverged at width={width} threshold={threshold}"
            );
        }
    }
    nadmm_linalg::reset_par_threshold();
    rayon::reset_num_threads();
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Sparsifies a dense matrix (~half the entries zeroed, deterministically).
fn sparsify(d: &DenseMatrix) -> CsrMatrix {
    let mut m = d.clone();
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            if (i * 31 + j * 17) % 2 == 0 {
                m.set(i, j, 0.0);
            }
        }
    }
    CsrMatrix::from_dense(&m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dense_kernels_are_bit_identical_across_widths(
        rows in 1usize..40, cols in 1usize..24, bcols in 1usize..12, seed in 0u64..1000,
    ) {
        let mut rng = gen::seeded_rng(seed);
        let a = gen::gaussian_matrix(rows, cols, &mut rng);
        let b = gen::gaussian_matrix(bcols, cols, &mut rng); // for gemm_nt: A·Bᵀ
        let c = gen::gaussian_matrix(cols, bcols, &mut rng); // for matmul: A·C
        let x = gen::gaussian_vector(cols, &mut rng);
        let y = gen::gaussian_vector(rows, &mut rng);
        assert_bits_invariant("dense matvec", || bits(&a.matvec(&x).unwrap()));
        assert_bits_invariant("dense t_matvec", || bits(&a.t_matvec(&y).unwrap()));
        assert_bits_invariant("dense gemm_nt", || bits(a.gemm_nt(&b).unwrap().as_slice()));
        assert_bits_invariant("dense gemm_tn", || bits(a.gemm_tn(&a).unwrap().as_slice()));
        assert_bits_invariant("dense matmul", || bits(a.matmul(&c).unwrap().as_slice()));
    }

    #[test]
    fn sparse_kernels_are_bit_identical_across_widths(
        rows in 1usize..40, cols in 1usize..24, bcols in 1usize..12, seed in 0u64..1000,
    ) {
        let mut rng = gen::seeded_rng(seed);
        let d = gen::gaussian_matrix(rows, cols, &mut rng);
        let s = sparsify(&d);
        let b = gen::gaussian_matrix(bcols, cols, &mut rng);
        let m = gen::gaussian_matrix(rows, bcols, &mut rng);
        let x = gen::gaussian_vector(cols, &mut rng);
        let y = gen::gaussian_vector(rows, &mut rng);
        assert_bits_invariant("sparse matvec", || bits(&s.matvec(&x).unwrap()));
        assert_bits_invariant("sparse t_matvec", || bits(&s.t_matvec(&y).unwrap()));
        assert_bits_invariant("sparse gemm_nt", || bits(s.gemm_nt(&b).unwrap().as_slice()));
        assert_bits_invariant("sparse gemm_tn_from_dense", || {
            bits(s.gemm_tn_from_dense(&m).unwrap().as_slice())
        });
    }

    #[test]
    fn blas1_kernels_are_bit_identical_across_widths(n in 1usize..200, seed in 0u64..1000) {
        let mut rng = gen::seeded_rng(seed);
        let x = gen::gaussian_vector(n, &mut rng);
        let y = gen::gaussian_vector(n, &mut rng);
        let a = 1.25;
        assert_bits_invariant("dot", || vec![vector::dot(&x, &y).to_bits()]);
        assert_bits_invariant("norm_inf", || vec![vector::norm_inf(&x).to_bits()]);
        assert_bits_invariant("sum", || vec![vector::sum(&x).to_bits()]);
        assert_bits_invariant("axpy", || {
            let mut z = y.clone();
            vector::axpy(a, &x, &mut z);
            bits(&z)
        });
        assert_bits_invariant("axpy_dot", || {
            let mut z = y.clone();
            let d = vector::axpy_dot(a, &x, &mut z);
            let mut out = bits(&z);
            out.push(d.to_bits());
            out
        });
        assert_bits_invariant("scale", || {
            let mut z = x.clone();
            vector::scale(a, &mut z);
            bits(&z)
        });
        assert_bits_invariant("par_sum_over", || {
            vec![nadmm_linalg::reduce::par_sum_over(n, |i| x[i] * x[i]).to_bits()]
        });
    }
}

#[test]
fn empty_and_single_element_inputs_are_invariant() {
    let empty: Vec<f64> = vec![];
    let one = [std::f64::consts::PI];
    assert_bits_invariant("dot empty", || vec![vector::dot(&empty, &empty).to_bits()]);
    assert_bits_invariant("sum empty", || vec![vector::sum(&empty).to_bits()]);
    assert_bits_invariant("norm_inf empty", || vec![vector::norm_inf(&empty).to_bits()]);
    assert_bits_invariant("dot single", || vec![vector::dot(&one, &one).to_bits()]);
    assert_bits_invariant("par_sum_over zero rows", || {
        vec![nadmm_linalg::reduce::par_sum_over(0, |_| 1.0).to_bits()]
    });
    let a = DenseMatrix::zeros(0, 3);
    let x: Vec<f64> = vec![1.0, 2.0, 3.0];
    assert_bits_invariant("matvec zero rows", || bits(&a.matvec(&x).unwrap()));
    assert_bits_invariant("t_matvec zero rows", || bits(&a.t_matvec(&[]).unwrap()));
}

/// A scatter kernel big enough to span several `ROW_CHUNK = 256` chunks, so
/// the multi-partial combine path (not just the single-chunk fast path) is
/// exercised, and a reduction long enough to span several
/// `REDUCE_CHUNK = 4096` chunks.
#[test]
fn multi_chunk_shapes_are_bit_identical_across_widths() {
    let mut rng = gen::seeded_rng(42);
    let a = gen::gaussian_matrix(700, 9, &mut rng);
    let y = gen::gaussian_vector(700, &mut rng);
    assert_bits_invariant("t_matvec multi-chunk", || bits(&a.t_matvec(&y).unwrap()));
    let s = sparsify(&a);
    assert_bits_invariant("sparse t_matvec multi-chunk", || bits(&s.t_matvec(&y).unwrap()));

    let n = 300_000usize; // ~73 REDUCE_CHUNKs — more chunks than MAX_SLOTS pre-rounding
    let x: Vec<f64> = (0..n)
        .map(|i| ((i.wrapping_mul(2654435761)) % 1000) as f64 * 1e-3 - 0.5)
        .collect();
    let z: Vec<f64> = (0..n).map(|i| ((i.wrapping_mul(40503)) % 997) as f64 * 1e-3).collect();
    assert_bits_invariant("dot multi-chunk", || vec![vector::dot(&x, &z).to_bits()]);
    assert_bits_invariant("sum multi-chunk", || vec![vector::sum(&x).to_bits()]);
    assert_bits_invariant("norm_inf multi-chunk", || vec![vector::norm_inf(&x).to_bits()]);
}

// ---------------------------------------------------------------------------
// The fused sweep `X·Wᵀ → row map → Mᵀ·X` against its two-pass reference and
// against the arithmetic spelled out one product at a time.
// ---------------------------------------------------------------------------

/// `ROW_CHUNK`: the row granularity of the scatter kernels' canonical chunks.
const ROW_CHUNK: usize = 256;

/// A row map with every awkward output: exact zeros and negative zeros in
/// whole rows and in single entries (the `!= 0.0` skip of `Mᵀ·X`), an
/// infinity here and there, and per-row values (as many as `row_out` holds
/// per row). A function of the row index and the row's values only, so it
/// does not care how rows are grouped into calls.
fn awkward_map(k: usize) -> impl Fn(usize, &mut [f64], &mut [f64]) + Sync {
    move |first, rows, row_out| {
        let m = row_out.len() / (rows.len() / k);
        for (r, row) in rows.chunks_exact_mut(k).enumerate() {
            let i = first + r;
            let total: f64 = row.iter().sum();
            for (j, slot) in row_out[r * m..(r + 1) * m].iter_mut().enumerate() {
                *slot = total * (j + 1) as f64 + i as f64;
            }
            for (c, v) in row.iter_mut().enumerate() {
                *v = match (i + 3 * c) % 11 {
                    0 => 0.0,
                    1 => -0.0,
                    _ if i % 13 == 5 => 0.0,
                    2 if i % 5 == 2 => f64::INFINITY,
                    _ => 0.5 * *v - 0.125 * total,
                };
            }
        }
    }
}

/// `out`, `mid` and `row_out` (`m` values per row) of one fused sweep, as
/// bits.
fn fused_bits(x: &Matrix, w: &DenseMatrix, m: usize) -> Vec<u64> {
    let (rows, k) = (x.rows(), w.rows());
    let mut mid = DenseMatrix::from_fn(rows, k, |_, _| f64::NAN);
    let mut out = DenseMatrix::from_fn(k, x.cols(), |_, _| f64::NAN);
    let mut row_out = vec![f64::NAN; rows * m];
    let mut scratch = vec![f64::NAN; x.sweep_scratch_len(k)];
    let bufs = SweepBuffers {
        mid: &mut mid,
        row_out: &mut row_out,
        scratch: &mut scratch,
    };
    x.gemm_nt_map_tn_into(w, bufs, awkward_map(k), &mut out).unwrap();
    [out.as_slice(), mid.as_slice(), &row_out].into_iter().flat_map(bits).collect()
}

/// The reference: the two public products with the map applied to the whole
/// matrix in between.
fn two_pass_bits(x: &Matrix, w: &DenseMatrix, m: usize) -> Vec<u64> {
    let mut mid = x.gemm_nt(w).unwrap();
    let mut row_out = vec![f64::NAN; x.rows() * m];
    awkward_map(w.rows())(0, mid.as_mut_slice(), &mut row_out);
    let out = x.gemm_tn_from_dense(&mid).unwrap();
    [out.as_slice(), mid.as_slice(), &row_out].into_iter().flat_map(bits).collect()
}

/// The same arithmetic one scalar product at a time, the way the kernels
/// were first written: `vector::dot` (or the gather-dot on CSR rows) per
/// element of `X·Wᵀ`; for `Mᵀ·X` one partial per canonical chunk, each
/// sample row added in ascending order with exact-zero coefficients skipped,
/// partials folded left to right.
fn spelled_out_bits(x: &Matrix, w: &DenseMatrix, m: usize) -> Vec<u64> {
    let (rows, k, p) = (x.rows(), w.rows(), x.cols());
    let dense = x.to_dense();
    let mut mid = DenseMatrix::from_fn(rows, k, |i, c| match x {
        Matrix::Dense(a) => vector::dot(a.row(i), w.row(c)),
        Matrix::Sparse(a) => {
            let (cols, vals) = a.row(i);
            vector::gather_dot(cols, vals, w.row(c))
        }
    });
    let mut row_out = vec![f64::NAN; rows * m];
    awkward_map(k)(0, mid.as_mut_slice(), &mut row_out);
    let (chunk_len, num_chunks) = rayon::det::layout(rows, ROW_CHUNK);
    let mut out = vec![0.0; k * p];
    for chunk in 0..num_chunks {
        let mut partial = vec![0.0; k * p];
        for i in chunk * chunk_len..((chunk + 1) * chunk_len).min(rows) {
            for c in 0..k {
                let coeff = mid.get(i, c);
                if coeff == 0.0 {
                    continue;
                }
                match x {
                    Matrix::Dense(_) => {
                        for j in 0..p {
                            partial[c * p + j] += coeff * dense.get(i, j);
                        }
                    }
                    Matrix::Sparse(a) => {
                        let (cols, vals) = a.row(i);
                        for (&j, &v) in cols.iter().zip(vals) {
                            partial[c * p + j] += coeff * v;
                        }
                    }
                }
            }
        }
        if chunk == 0 {
            out = partial;
        } else {
            for (o, v) in out.iter_mut().zip(&partial) {
                *o += v;
            }
        }
    }
    [&out, mid.as_slice(), &row_out].into_iter().flat_map(bits).collect()
}

/// Gaussian features with exact zeros, negative zeros and two infinities
/// mixed in (what a skipped coefficient must not touch).
fn awkward_features(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = gen::seeded_rng(seed);
    let mut x = gen::gaussian_matrix(rows, cols, &mut rng);
    for i in 0..rows {
        for j in 0..cols {
            match (i * 7 + j * 5) % 17 {
                0 => x.set(i, j, 0.0),
                1 => x.set(i, j, -0.0),
                _ => {}
            }
        }
    }
    // Row 5 is one the map zeroes out entirely (5 % 13 == 5).
    if rows > 5 {
        x.set(5, 0, f64::INFINITY);
    }
    // Row 6 keeps some coefficients and loses others.
    if rows > 6 && cols > 1 {
        x.set(6, 1, f64::NEG_INFINITY);
    }
    x
}

/// CSR copy of every other entry of `d`, stored zeros, negative zeros and
/// infinities included. Five rows in eight are cut short at 0, 1, 3, 4 and 5
/// stored entries: nothing, a tail alone, one full group of four entry lanes,
/// and a group with a tail.
fn awkward_sparse(d: &DenseMatrix) -> CsrMatrix {
    let mut triplets = Vec::new();
    for i in 0..d.rows() {
        let cap = [0, 1, 3, 4, 5].get(i % 8).copied().unwrap_or(usize::MAX);
        let kept = (0..d.cols()).filter(|j| (i * 31 + j * 17) % 2 == 1).take(cap);
        triplets.extend(kept.map(|j| (i, j, d.get(i, j))));
    }
    CsrMatrix::from_triplets(d.rows(), d.cols(), &triplets)
}

fn assert_fused_matches_references(rows: usize, k: usize, cols: usize, seed: u64) {
    let dense = awkward_features(rows, cols, seed);
    let mut rng = gen::seeded_rng(seed ^ 0x5EED);
    let w = gen::gaussian_matrix(k, cols, &mut rng);
    for x in [Matrix::Sparse(awkward_sparse(&dense)), Matrix::Dense(dense)] {
        for m in [0, 1, 3] {
            let label = format!("fused sweep {rows}x{cols}, k={k}, sparse={}, row_out={m}", x.is_sparse());
            let spelled_out = spelled_out_bits(&x, &w, m);
            assert_bits_invariant(&label, || {
                let fused = fused_bits(&x, &w, m);
                assert_eq!(fused, two_pass_bits(&x, &w, m), "{label}: fused vs two-pass");
                fused
            });
            assert_eq!(fused_bits(&x, &w, m), spelled_out, "{label}: fused vs spelled out");
        }
    }
}

/// Every edge of the sweep's blocking: rows below, at and above the row-group
/// (4), sub-block (32) and chunk (256) sizes and not a multiple of any of
/// them, one class, fewer features than the dot kernel's eight lanes,
/// features past one and two `REDUCE_CHUNK`s, and class counts below, at and
/// above multiples of the CSR kernels' class block (4) on rows wide enough
/// for every stored-entry count of `awkward_sparse`.
#[test]
fn fused_sweep_is_bit_identical_to_the_two_pass_kernels() {
    for &(rows, k, cols) in &[
        (1, 1, 1),
        (3, 2, 5),
        (4, 1, 7),
        (31, 3, 8),
        (33, 9, 9),
        (255, 2, 6),
        (256, 4, 3),
        (257, 1, 12),
        (515, 3, 7),
        (1030, 2, 4),
        (6, 2, 4100),
        (261, 2, 8200),
        (40, 5, 12),
        (9, 7, 11),
        (33, 8, 10),
        (17, 12, 13),
        (300, 19, 30),
        (64, 20, 16),
        (23, 21, 10),
    ] {
        assert_fused_matches_references(rows, k, cols, (rows * 31 + k * 7 + cols) as u64);
    }
}

/// The dense `X·Wᵀ` kernel's four-row groups inside the sweep: every
/// remainder of the group (2, 5, 6, 7, 8 and 9 rows) for every class count
/// up to 21, at MNIST's width and at one and two `REDUCE_CHUNK`s plus a tail,
/// the same shapes the kernel's unit test holds to the dot spelled out. A
/// few hundred shapes of up to 8200 columns, so each is checked once
/// against the scalar oracle (these row counts make one chunk at any width).
#[test]
fn fused_sweep_equals_the_scalar_oracle_at_every_four_row_remainder() {
    for cols in [784, 4097, 8200] {
        for rows in [2, 5, 6, 7, 8, 9] {
            for k in 1..=21 {
                let seed = (rows * 31 + k * 7 + cols) as u64;
                let dense = awkward_features(rows, cols, seed);
                let w = gen::gaussian_matrix(k, cols, &mut gen::seeded_rng(seed ^ 0x5EED));
                let m = k % 3;
                for x in [Matrix::Sparse(awkward_sparse(&dense)), Matrix::Dense(dense.clone())] {
                    assert_eq!(
                        fused_bits(&x, &w, m),
                        spelled_out_bits(&x, &w, m),
                        "fused sweep {rows}x{cols}, k={k}, sparse={}, row_out={m}",
                        x.is_sparse()
                    );
                }
            }
        }
    }
}

#[test]
fn fused_sweep_rejects_mismatched_shapes() {
    let x = Matrix::Dense(DenseMatrix::zeros(6, 3));
    let w = DenseMatrix::zeros(2, 3);
    let run = |w: &DenseMatrix, mid: (usize, usize), out: (usize, usize), row_out: usize| {
        let mut mid = DenseMatrix::zeros(mid.0, mid.1);
        let mut out = DenseMatrix::zeros(out.0, out.1);
        let mut row_out = vec![0.0; row_out];
        let bufs = SweepBuffers {
            mid: &mut mid,
            row_out: &mut row_out,
            scratch: &mut [],
        };
        x.gemm_nt_map_tn_into(w, bufs, |_, _, _| {}, &mut out)
    };
    assert!(run(&w, (6, 2), (2, 3), 0).is_ok());
    assert!(run(&w, (6, 2), (2, 3), 6).is_ok());
    assert!(run(&w, (6, 2), (2, 3), 18).is_ok());
    assert!(run(&w, (6, 2), (2, 3), 7).is_err());
    assert!(run(&DenseMatrix::zeros(2, 4), (6, 2), (2, 3), 0).is_err());
    assert!(run(&w, (5, 2), (2, 3), 0).is_err());
    assert!(run(&w, (6, 2), (3, 2), 0).is_err());
    assert!(run(&w, (6, 2), (2, 3), 5).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fused_sweep_matches_references_on_random_shapes(
        rows in 1usize..700, k in 1usize..24, cols in 1usize..20, seed in 0u64..1000,
    ) {
        assert_fused_matches_references(rows, k, cols, seed);
    }
}
