//! Property tests for the execution engine's in-place hot paths.
//!
//! The zero-allocation workspace methods (`gradient_into`,
//! `hessian_vec_into`, `value_ws`, CG-with-workspace) must be **bit
//! identical** to the allocating reference API — they are thin wrappers over
//! one shared kernel path, and these tests pin that property down so the two
//! families can never silently diverge. Buffer reuse is exercised explicitly:
//! every workspace is used twice, so reused (dirty) pooled buffers that are
//! not fully overwritten would show up as exact-equality failures.

use nadmm_objective::{ProximalAugmented, Quadratic, RidgeRegression};
use nadmm_solver::conjugate_gradient_into;
use newton_admm_repro::prelude::*;
use proptest::prelude::*;

fn softmax_data(samples: usize, features: usize, classes: usize, seed: u64) -> Dataset {
    SyntheticConfig::mnist_like()
        .with_train_size(samples)
        .with_test_size(4)
        .with_num_features(features)
        .with_num_classes(classes)
        .generate(seed)
        .0
}

fn softmax_problem(samples: usize, features: usize, classes: usize, seed: u64) -> SoftmaxCrossEntropy {
    SoftmaxCrossEntropy::new(&softmax_data(samples, features, classes, seed), 1e-3)
}

/// The softmax objective's value, gradient and Hessian-vector product
/// written as the two-pass sequence the fused sweep replaces — margins
/// GEMM, row softmax, element-wise kernels, accumulation GEMM — on the public
/// linalg kernels: `(value, gradient, hvp)` at `x` in direction `v`, and how
/// many entries of `P − Y` are exact zeros.
fn two_pass_softmax(data: &Dataset, lambda: f64, x: &[f64], v: &[f64]) -> (f64, Vec<f64>, Vec<f64>, usize) {
    use nadmm_linalg::{reduce, vector, DenseMatrix};
    let (features, one_hot, labels) = (data.features(), data.one_hot_reduced(), data.labels());
    let (n, c1, p) = (features.rows(), data.num_classes() - 1, features.cols());
    let mut probs = features.gemm_nt(&DenseMatrix::from_vec(c1, p, x.to_vec())).unwrap();
    let mut scratch = vec![0.0; c1];
    let logz: Vec<f64> = (0..n)
        .map(|i| {
            let lz = reduce::softmax_with_reference(probs.row(i), &mut scratch);
            probs.row_mut(i).copy_from_slice(&scratch);
            lz
        })
        .collect();
    let loss = reduce::par_sum_over(n, |i| {
        let correct_margin = if labels[i] < c1 {
            probs.get(i, labels[i]).max(f64::MIN_POSITIVE).ln() + logz[i]
        } else {
            0.0
        };
        logz[i] - correct_margin
    });
    let mut u = features.gemm_nt(&DenseMatrix::from_vec(c1, p, v.to_vec())).unwrap();
    for i in 0..n {
        let pr = probs.row(i);
        let urow = u.row_mut(i);
        let pu: f64 = pr.iter().zip(urow.iter()).map(|(a, b)| a * b).sum();
        for c in 0..c1 {
            urow[c] = pr[c] * urow[c] - pr[c] * pu;
        }
    }
    let mut hv = features.gemm_tn_from_dense(&u).unwrap().into_vec();
    vector::axpy(lambda, v, &mut hv);
    vector::axpy(-1.0, one_hot.as_slice(), probs.as_mut_slice());
    let exact_zeros = probs.as_slice().iter().filter(|&&r| r == 0.0).count();
    let mut grad = features.gemm_tn_from_dense(&probs).unwrap().into_vec();
    vector::axpy(lambda, x, &mut grad);
    (loss + 0.5 * lambda * vector::dot(x, x), grad, hv, exact_zeros)
}

/// Pool width and par-threshold are process-wide; the sweep below holds this
/// lock so its (width, threshold) pairs are the ones in force.
static ENGINE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The fused sweeps behind `gradient_into`, `value_and_gradient_into` and
/// `hvp_prepared_into` must reproduce the two-pass sequence bit for bit —
/// dense and CSR features, one row chunk and several, every pool width and
/// both sides of the par-threshold — including with saturated softmax rows,
/// whose exact-zero probabilities take the accumulation kernel's skip branch.
#[test]
fn softmax_sweeps_match_the_two_pass_reference_bit_for_bit() {
    let _guard = ENGINE_LOCK.lock().unwrap();
    for &(samples, features, classes, density, scale) in &[
        (37, 5, 3, 1.0, 0.3),
        (300, 9, 4, 1.0, 0.3),
        (700, 6, 10, 1.0, 400.0),
        (530, 12, 5, 0.3, 0.3),
        (530, 12, 2, 0.3, 400.0),
    ] {
        let mut cfg = SyntheticConfig::mnist_like()
            .with_train_size(samples)
            .with_test_size(4)
            .with_num_features(features)
            .with_num_classes(classes);
        cfg.density = density;
        let (data, _) = cfg.generate(samples as u64);
        assert_eq!(data.features().is_sparse(), density < 1.0);
        let obj = SoftmaxCrossEntropy::new(&data, 1e-3);
        let mut rng = nadmm_linalg::gen::seeded_rng(7 + samples as u64);
        let x = nadmm_linalg::gen::gaussian_vector_with(obj.dim(), 0.0, scale, &mut rng);
        let v = nadmm_linalg::gen::gaussian_vector(obj.dim(), &mut rng);
        let bits = |values: &[f64]| values.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
        for width in [1, 2, 3] {
            rayon::set_num_threads(width);
            for threshold in [0, usize::MAX] {
                nadmm_linalg::set_par_threshold(threshold);
                let label =
                    format!("{samples}x{features}, {classes} classes, density {density}, width {width}, threshold {threshold}");
                let (value_ref, grad_ref, hv_ref, exact_zeros) = two_pass_softmax(&data, obj.lambda, &x, &v);
                assert_eq!(exact_zeros > 0, scale > 1.0, "saturation as intended: {label}");
                let mut ws = Workspace::new();
                let mut grad = vec![f64::NAN; obj.dim()];
                let value = obj.value_and_gradient_into(&x, &mut grad, &mut ws);
                assert_eq!(value.to_bits(), value_ref.to_bits(), "value: {label}");
                assert_eq!(bits(&grad), bits(&grad_ref), "value_and_gradient_into: {label}");
                grad.fill(f64::NAN);
                obj.gradient_into(&x, &mut grad, &mut ws);
                assert_eq!(bits(&grad), bits(&grad_ref), "gradient_into: {label}");
                let mut hv = vec![f64::NAN; obj.dim()];
                let state = obj.prepare_hvp(&x, &mut ws);
                obj.hvp_prepared_into(&state, &v, &mut hv, &mut ws);
                obj.release_hvp(state, &mut ws);
                assert_eq!(bits(&hv), bits(&hv_ref), "hvp_prepared_into: {label}");
            }
        }
    }
    nadmm_linalg::reset_par_threshold();
    rayon::reset_num_threads();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `gradient_into` / `value_ws` / `value_and_gradient_into` must equal
    /// the allocating API bit-for-bit, including on a reused dirty pool.
    #[test]
    fn softmax_in_place_matches_allocating(samples in 8usize..40, features in 2usize..8, classes in 2usize..5, seed in 0u64..500) {
        let obj = softmax_problem(samples, features, classes, seed);
        let mut rng = nadmm_linalg::gen::seeded_rng(seed ^ 0xABCD);
        let mut ws = Workspace::new();
        for trial in 0..2 {
            let x = nadmm_linalg::gen::gaussian_vector_with(obj.dim(), 0.0, 0.3, &mut rng);
            let (value_ref, grad_ref) = (obj.value(&x), obj.gradient(&x));
            prop_assert!(value_ref.is_finite());
            let mut grad = vec![f64::NAN; obj.dim()];
            obj.gradient_into(&x, &mut grad, &mut ws);
            prop_assert_eq!(&grad, &grad_ref, "gradient_into diverged on trial {}", trial);
            prop_assert_eq!(obj.value_ws(&x, &mut ws), value_ref);
            let mut grad2 = vec![f64::NAN; obj.dim()];
            let value2 = obj.value_and_gradient_into(&x, &mut grad2, &mut ws);
            let (value_vg, grad_vg) = obj.value_and_gradient(&x);
            prop_assert_eq!(value2, value_vg);
            prop_assert_eq!(&grad2, &grad_vg);
        }
    }

    /// `hessian_vec_into` and the prepared-HVP operator must equal the
    /// allocating `hessian_vec` bit-for-bit across repeated products.
    #[test]
    fn softmax_hvp_in_place_matches_allocating(samples in 8usize..40, features in 2usize..8, classes in 2usize..5, seed in 0u64..500) {
        let obj = softmax_problem(samples, features, classes, seed);
        let mut rng = nadmm_linalg::gen::seeded_rng(seed ^ 0x1234);
        let x = nadmm_linalg::gen::gaussian_vector_with(obj.dim(), 0.0, 0.2, &mut rng);
        let mut ws = Workspace::new();
        let state = obj.prepare_hvp(&x, &mut ws);
        for _ in 0..3 {
            let v = nadmm_linalg::gen::gaussian_vector(obj.dim(), &mut rng);
            let hv_ref = obj.hessian_vec(&x, &v);
            let mut hv = vec![f64::NAN; obj.dim()];
            obj.hvp_prepared_into(&state, &v, &mut hv, &mut ws);
            prop_assert_eq!(&hv, &hv_ref);
            let mut hv2 = vec![f64::NAN; obj.dim()];
            obj.hessian_vec_into(&x, &v, &mut hv2, &mut ws);
            prop_assert_eq!(&hv2, &hv_ref);
        }
        obj.release_hvp(state, &mut ws);
    }

    /// The proximal wrapper (the objective every ADMM worker actually
    /// minimises) must preserve the same parity on top of any base.
    #[test]
    fn proximal_in_place_matches_allocating(samples in 8usize..30, features in 2usize..6, seed in 0u64..300, rho in 0.1f64..5.0) {
        let base = softmax_problem(samples, features, 3, seed);
        let dim = base.dim();
        let mut rng = nadmm_linalg::gen::seeded_rng(seed ^ 0x55AA);
        let z = nadmm_linalg::gen::gaussian_vector_with(dim, 0.0, 0.2, &mut rng);
        let y = nadmm_linalg::gen::gaussian_vector_with(dim, 0.0, 0.2, &mut rng);
        let aug = ProximalAugmented::new(base, z, y, rho);
        let x = nadmm_linalg::gen::gaussian_vector_with(dim, 0.0, 0.2, &mut rng);
        let v = nadmm_linalg::gen::gaussian_vector(dim, &mut rng);
        let mut ws = Workspace::new();
        for _ in 0..2 {
            let mut grad = vec![f64::NAN; dim];
            let value = aug.value_and_gradient_into(&x, &mut grad, &mut ws);
            let (value_ref, grad_ref) = aug.value_and_gradient(&x);
            prop_assert_eq!(value, value_ref);
            prop_assert_eq!(&grad, &grad_ref);
            let mut hv = vec![f64::NAN; dim];
            aug.hessian_vec_into(&x, &v, &mut hv, &mut ws);
            prop_assert_eq!(&hv, &aug.hessian_vec(&x, &v));
        }
    }

    /// CG with a workspace must produce the same iterates, iteration count
    /// and residual as the allocating reference CG, bit for bit.
    #[test]
    fn cg_with_workspace_matches_allocating(n in 2usize..24, cond in 1.0f64..500.0, seed in 0u64..300, budget in 2usize..40) {
        let mut rng = nadmm_linalg::gen::seeded_rng(seed);
        let a = nadmm_linalg::gen::spd_with_condition(n, cond, &mut rng);
        let b = nadmm_linalg::gen::gaussian_vector(n, &mut rng);
        let q = Quadratic::new(a, b.clone());
        let cfg = CgConfig { max_iters: budget, tolerance: 1e-10 };
        let reference = nadmm_solver::conjugate_gradient(|v| q.hessian_vec(&[], v), &b, &cfg);
        let mut ws = Workspace::new();
        let mut x = vec![f64::NAN; n];
        for _ in 0..2 {
            let stats = conjugate_gradient_into(
                |v, out, ws| q.hessian_vec_into(&[], v, out, ws),
                &b,
                &mut x,
                &cfg,
                &mut ws,
            );
            prop_assert_eq!(&x, &reference.x);
            prop_assert_eq!(stats.iterations, reference.iterations);
            prop_assert_eq!(stats.residual_norm, reference.residual_norm);
            prop_assert_eq!(stats.converged, reference.converged);
        }
    }

    /// Ridge regression: same parity through its Gauss-Newton HVP.
    #[test]
    fn ridge_in_place_matches_allocating(n in 4usize..40, p in 2usize..8, seed in 0u64..300) {
        let (obj, _) = nadmm_objective::ridge::random_ridge_problem(n, p, 0.3, 0.1, seed);
        let mut rng = nadmm_linalg::gen::seeded_rng(seed ^ 0x77);
        let x = nadmm_linalg::gen::gaussian_vector(p, &mut rng);
        let v = nadmm_linalg::gen::gaussian_vector(p, &mut rng);
        let mut ws = Workspace::new();
        for _ in 0..2 {
            let mut g = vec![f64::NAN; p];
            obj.gradient_into(&x, &mut g, &mut ws);
            prop_assert_eq!(&g, &obj.gradient(&x));
            prop_assert_eq!(obj.value_ws(&x, &mut ws), obj.value(&x));
            let mut hv = vec![f64::NAN; p];
            obj.hessian_vec_into(&x, &v, &mut hv, &mut ws);
            prop_assert_eq!(&hv, &obj.hessian_vec(&x, &v));
        }
        let _ = RidgeRegression::exact_minimizer(&obj);
    }

    /// A full Newton minimisation with a shared workspace must reproduce the
    /// allocating run exactly (trace values included).
    #[test]
    fn newton_minimize_ws_matches_allocating(samples in 10usize..30, features in 2usize..6, seed in 0u64..100) {
        let obj = softmax_problem(samples, features, 3, seed);
        let x0 = vec![0.0; obj.dim()];
        let cfg = NewtonConfig { max_iters: 4, ..Default::default() };
        let reference = NewtonCg::new(cfg).minimize(&obj, &x0);
        let mut ws = Workspace::new();
        let repeat = NewtonCg::new(cfg).minimize_ws(&obj, &x0, &mut ws);
        prop_assert_eq!(&repeat.x, &reference.x);
        prop_assert_eq!(repeat.value, reference.value);
        prop_assert_eq!(repeat.total_cg_iterations, reference.total_cg_iterations);
        // And again on the now-warm pool.
        let warm = NewtonCg::new(cfg).minimize_ws(&obj, &x0, &mut ws);
        prop_assert_eq!(&warm.x, &reference.x);
    }
}
