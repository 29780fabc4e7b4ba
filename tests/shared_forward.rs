//! One forward product per Newton point.
//!
//! [`Objective::value_gradient_and_hvp_into`] must hand back exactly what
//! `value_and_gradient_into` followed by `prepare_hvp` at the same point
//! does — the value, the gradient and every Hessian-vector product taken
//! from the returned state, bit for bit, at every pool width and on both
//! sides of the par-threshold. The solvers that take it instead of the two
//! calls must reproduce the iterates of the step they replaced, and bill
//! exactly the two launches the second forward cost (the margins GEMM and
//! the softmax rows) less per Newton step.

use nadmm_linalg::{gen, vector};
use nadmm_objective::{Objective, ProximalAugmented, Quadratic};
use nadmm_solver::{armijo_backtracking_ws, conjugate_gradient_into};
use newton_admm::NewtonAdmmOutput;
use newton_admm_repro::prelude::*;

/// Pool width and par-threshold are process-wide; every test that sets them
/// holds this lock.
static ENGINE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn engine_lock() -> std::sync::MutexGuard<'static, ()> {
    ENGINE_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn softmax_data(samples: usize, features: usize, classes: usize, density: f64, seed: u64) -> Dataset {
    let mut cfg = SyntheticConfig::mnist_like()
        .with_train_size(samples)
        .with_test_size(4)
        .with_num_features(features)
        .with_num_classes(classes);
    cfg.density = density;
    let (data, _) = cfg.generate(seed);
    assert_eq!(data.features().is_sparse(), density < 1.0);
    data
}

/// The value, gradient and three Hessian-vector products at `x`, as bits,
/// from one call (`shared`) or from the two calls it replaces.
fn newton_point_bits(obj: &dyn Objective, x: &[f64], directions: &[Vec<f64>], shared: bool) -> Vec<u64> {
    let mut ws = Workspace::new();
    let mut grad = vec![f64::NAN; obj.dim()];
    let (value, state) = if shared {
        obj.value_gradient_and_hvp_into(x, &mut grad, &mut ws)
    } else {
        let value = obj.value_and_gradient_into(x, &mut grad, &mut ws);
        (value, obj.prepare_hvp(x, &mut ws))
    };
    let mut out = vec![value.to_bits()];
    out.extend(bits(&grad));
    for v in directions {
        let mut hv = vec![f64::NAN; obj.dim()];
        obj.hvp_prepared_into(&state, v, &mut hv, &mut ws);
        out.extend(bits(&hv));
    }
    obj.release_hvp(state, &mut ws);
    assert_eq!(ws.stats().outstanding, 0, "every buffer goes back to the pool");
    out
}

fn assert_shared_forward_matches_two_calls(label: &str, obj: &dyn Objective, x: &[f64], seed: u64) {
    let mut rng = gen::seeded_rng(seed);
    let directions: Vec<Vec<f64>> = (0..3).map(|_| gen::gaussian_vector(obj.dim(), &mut rng)).collect();
    rayon::set_num_threads(1);
    nadmm_linalg::set_par_threshold(usize::MAX);
    let reference = newton_point_bits(obj, x, &directions, false);
    for width in [1, 4] {
        rayon::set_num_threads(width);
        for threshold in [0, usize::MAX] {
            nadmm_linalg::set_par_threshold(threshold);
            let at = format!("{label} at width {width}, threshold {threshold}");
            assert_eq!(
                newton_point_bits(obj, x, &directions, true),
                reference,
                "shared forward: {at}"
            );
            assert_eq!(newton_point_bits(obj, x, &directions, false), reference, "two calls: {at}");
        }
    }
    nadmm_linalg::reset_par_threshold();
    rayon::reset_num_threads();
}

/// Dense and CSR features over one row chunk and several, probabilities that
/// saturate to exact zeros (scale 400), the proximal wrapper every ADMM
/// worker minimises, and the provided default (`Quadratic`).
#[test]
fn the_shared_forward_equals_value_and_gradient_then_prepare_hvp_bit_for_bit() {
    let _guard = engine_lock();
    for &(samples, features, classes, density, scale) in &[
        (37, 5, 3, 1.0, 0.3),
        (300, 9, 4, 1.0, 0.3),
        (700, 6, 10, 1.0, 400.0),
        (530, 12, 5, 0.3, 0.3),
        (530, 12, 2, 0.3, 400.0),
    ] {
        let data = softmax_data(samples, features, classes, density, samples as u64);
        let obj = SoftmaxCrossEntropy::new(&data, 1e-3);
        let dim = obj.dim();
        let mut rng = gen::seeded_rng(3 + samples as u64);
        let x = gen::gaussian_vector_with(dim, 0.0, scale, &mut rng);
        let label = format!("{samples}x{features}, {classes} classes, density {density}, scale {scale}");
        assert_shared_forward_matches_two_calls(&format!("softmax {label}"), &obj, &x, 11);
        let z = gen::gaussian_vector_with(dim, 0.0, 0.2, &mut rng);
        let y = gen::gaussian_vector_with(dim, 0.0, 0.2, &mut rng);
        let aug = ProximalAugmented::new(obj, z, y, 1.7);
        assert_shared_forward_matches_two_calls(&format!("proximal softmax {label}"), &aug, &x, 12);
    }
    let mut rng = gen::seeded_rng(5);
    let a = gen::spd_with_condition(6, 50.0, &mut rng);
    let q = Quadratic::new(a, gen::gaussian_vector(6, &mut rng));
    assert_shared_forward_matches_two_calls("quadratic", &q, &gen::gaussian_vector(6, &mut rng), 13);
}

/// The Newton step as it ran before the shared forward: the value and the
/// gradient, then [`two_call_step_from`]. Returns `(cg iterations,
/// line-search evaluations)`.
fn two_call_step(cfg: &NewtonConfig, obj: &dyn Objective, x: &mut [f64], ws: &mut Workspace) -> (usize, usize) {
    let mut grad = vec![0.0; x.len()];
    let fx = obj.value_and_gradient_into(x, &mut grad, ws);
    two_call_step_from(cfg, obj, x, fx, &grad, ws)
}

/// The rest of that step from the value and gradient at `x`: `prepare_hvp`
/// at the same point, CG, and the Armijo step.
fn two_call_step_from(
    cfg: &NewtonConfig,
    obj: &dyn Objective,
    x: &mut [f64],
    fx: f64,
    grad: &[f64],
    ws: &mut Workspace,
) -> (usize, usize) {
    let state = obj.prepare_hvp(x, ws);
    let neg_grad: Vec<f64> = grad.iter().map(|g| -g).collect();
    let mut direction = vec![0.0; x.len()];
    let cg = conjugate_gradient_into(
        |v, out, ws| obj.hvp_prepared_into(&state, v, out, ws),
        &neg_grad,
        &mut direction,
        &cfg.cg,
        ws,
    );
    obj.release_hvp(state, ws);
    let ls = armijo_backtracking_ws(obj, x, &direction, fx, grad, &cfg.line_search, ws);
    vector::axpy(ls.step, &direction, x);
    (cg.iterations, ls.evaluations)
}

fn launches(obj: &dyn Objective) -> u64 {
    obj.device().stats().kernels_launched
}

/// `NewtonCg::step_ws` on the ADMM subproblem (dense and CSR shards) takes
/// the two-call step's iterates bit for bit, step after step, and launches
/// exactly two kernels fewer per step.
#[test]
fn newton_steps_reproduce_the_two_call_step_with_two_fewer_launches() {
    let _guard = engine_lock();
    let cfg = NewtonConfig::default();
    for density in [1.0, 0.3] {
        let data = softmax_data(260, 10, 4, density, 21);
        let build = || {
            let base = SoftmaxCrossEntropy::new(&data, 0.0).with_device(Device::default());
            let dim = base.dim();
            let mut rng = gen::seeded_rng(8);
            let z = gen::gaussian_vector_with(dim, 0.0, 0.1, &mut rng);
            let y = gen::gaussian_vector_with(dim, 0.0, 0.1, &mut rng);
            ProximalAugmented::new(base, z, y, 0.5)
        };
        let (shared, two_calls) = (build(), build());
        let mut x_shared = vec![0.0; shared.dim()];
        let mut x_two_calls = x_shared.clone();
        let (mut ws_shared, mut ws_two_calls) = (Workspace::new(), Workspace::new());
        let solver = NewtonCg::new(cfg);
        for step in 0..4 {
            let before = (launches(&shared), launches(&two_calls));
            let stats = solver.step_ws(&shared, &mut x_shared, &mut ws_shared);
            let (cg_iterations, line_search_evals) = two_call_step(&cfg, &two_calls, &mut x_two_calls, &mut ws_two_calls);
            let at = format!("density {density}, step {step}");
            assert_eq!(bits(&x_shared), bits(&x_two_calls), "iterate: {at}");
            assert_eq!(
                (stats.cg_iterations, stats.line_search_evals),
                (cg_iterations, line_search_evals),
                "{at}"
            );
            let shared_launches = launches(&shared) - before.0;
            let two_call_launches = launches(&two_calls) - before.1;
            assert_eq!(
                two_call_launches - shared_launches,
                2,
                "{at}: {two_call_launches} vs {shared_launches}"
            );
        }
        assert_eq!(ws_shared.stats().outstanding, 0);
    }
}

/// `NewtonCg::minimize` against the loop it ran before, two calls per step:
/// the same final iterate, trace values and counts, two launches fewer for
/// every step taken.
#[test]
fn newton_minimize_reproduces_the_two_call_loop() {
    let _guard = engine_lock();
    let cfg = NewtonConfig {
        max_iters: 6,
        ..Default::default()
    };
    let data = softmax_data(150, 12, 5, 1.0, 3);
    let (shared, two_calls) = (
        SoftmaxCrossEntropy::new(&data, 1e-4).with_device(Device::default()),
        SoftmaxCrossEntropy::new(&data, 1e-4).with_device(Device::default()),
    );
    let x0 = vec![0.0; shared.dim()];
    let result = NewtonCg::new(cfg).minimize(&shared, &x0);

    let mut ws = Workspace::new();
    let mut x = x0.clone();
    let mut grad = vec![0.0; x.len()];
    let mut values = vec![two_calls.value_and_gradient_into(&x, &mut grad, &mut ws)];
    let (mut iterations, mut total_cg, mut total_ls) = (0, 0, 0);
    while iterations < cfg.max_iters && vector::norm2(&grad) >= cfg.grad_tol {
        let fx = values[iterations];
        let (cg_iterations, line_search_evals) = two_call_step_from(&cfg, &two_calls, &mut x, fx, &grad, &mut ws);
        total_cg += cg_iterations;
        total_ls += line_search_evals;
        values.push(two_calls.value_and_gradient_into(&x, &mut grad, &mut ws));
        iterations += 1;
    }
    assert!(iterations > 1, "the run must take several steps");
    assert_eq!(bits(&result.x), bits(&x));
    assert_eq!(result.value.to_bits(), values[iterations].to_bits());
    let traced: Vec<f64> = result.trace.entries().iter().map(|e| e.value).collect();
    assert_eq!(bits(&traced), bits(&values));
    assert_eq!(
        (result.iterations, result.total_cg_iterations, result.total_line_search_evals),
        (iterations, total_cg, total_ls)
    );
    // Every point takes one gradient pass either way; the two-call loop adds
    // the margins and softmax launches of `prepare_hvp` at each step.
    assert_eq!(launches(&two_calls) - launches(&shared), 2 * iterations as u64);
}

/// FNV-1a over a run's iterate bits: the final consensus and local
/// iterates, the final penalty, and every recorded objective, accuracy,
/// consensus residual and mean penalty. Simulated-clock fields are left out.
fn iterate_fingerprint(out: &NewtonAdmmOutput) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: f64| {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    out.z.iter().chain(&out.local_x).for_each(|&v| eat(v));
    eat(out.final_rho);
    for r in &out.history.records {
        eat(r.objective);
        [r.test_accuracy, r.consensus_residual, r.mean_rho]
            .into_iter()
            .for_each(|v| eat(v.unwrap_or(f64::NAN)));
    }
    hash
}

/// A 2-rank Newton-ADMM run, dense and CSR, takes the iterates the solver
/// took with the two-call step. The fingerprints were recorded from that
/// solver (before `value_gradient_and_hvp_into` existed) on these exact
/// runs, one per rank.
#[test]
fn two_rank_newton_admm_reproduces_the_two_call_iterates() {
    for (density, expected) in [
        (1.0, [0xc91f_5ecb_3178_a7f2_u64, 0xba5d_91bf_d133_cd68]),
        (0.3, [0x14ef_ff47_d332_dc17, 0x1f14_91e6_acbc_c366]),
    ] {
        let mut cfg = SyntheticConfig::mnist_like()
            .with_train_size(240)
            .with_test_size(60)
            .with_num_features(14)
            .with_num_classes(5);
        cfg.density = density;
        let (train, test) = cfg.generate(29);
        let (shards, _) = partition_strong(&train, 2);
        let solver = NewtonAdmm::new(NewtonAdmmConfig::default().with_max_iters(6).with_lambda(1e-3));
        let outputs = Cluster::new(2, NetworkModel::infiniband_100g()).run(|comm| {
            let rank = comm.rank();
            solver.run_distributed(comm, &shards[rank], Some(&test))
        });
        for (rank, out) in outputs.iter().enumerate() {
            let got = iterate_fingerprint(out);
            assert_eq!(got, expected[rank], "density {density}, rank {rank}: fingerprint {got:#018x}");
        }
    }
}
