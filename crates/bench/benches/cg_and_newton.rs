//! Criterion benches for the solver building blocks: CG at the paper's
//! iteration budgets (10/20/30) over the prepared Hessian-vector product,
//! and full inexact Newton-CG steps from a fresh and from a warm workspace.
//!
//! The final "bench" merges every measurement — plus directly-measured
//! allocations per warm CG solve — into `BENCH_kernels.json`, so future PRs
//! have a perf trajectory to compare against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nadmm_bench::alloc_counter::{count_allocations, CountingAllocator};
use nadmm_bench::report::{criterion_entries, merge_bench_json, report_path, BenchEntry};
use nadmm_data::SyntheticConfig;
use nadmm_device::Workspace;
use nadmm_linalg::gen;
use nadmm_objective::{Objective, SoftmaxCrossEntropy};
use nadmm_solver::{conjugate_gradient_into, CgConfig, NewtonCg, NewtonConfig};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn problem() -> (SoftmaxCrossEntropy, Vec<f64>) {
    let (train, _) = SyntheticConfig::mnist_like()
        .with_train_size(512)
        .with_test_size(64)
        .with_num_features(96)
        .generate(1);
    let obj = SoftmaxCrossEntropy::new(&train, 1e-5);
    let mut rng = gen::seeded_rng(2);
    let x = gen::gaussian_vector_with(obj.dim(), 0.0, 0.05, &mut rng);
    (obj, x)
}

fn bench_cg_budgets(c: &mut Criterion) {
    // The paper's Figure 4 sweeps the CG budget (10/20/30); this bench
    // isolates the cost of that choice on the path the solvers run.
    let (obj, x) = problem();
    let g = obj.gradient(&x);
    let neg_g: Vec<f64> = g.iter().map(|v| -v).collect();
    let mut group = c.benchmark_group("cg_budget");
    for &iters in &[10usize, 20, 30] {
        group.bench_with_input(BenchmarkId::new("ws", iters), &iters, |b, &iters| {
            let cfg = CgConfig {
                max_iters: iters,
                tolerance: 1e-10,
            };
            let mut ws = Workspace::new();
            let state = obj.prepare_hvp(&x, &mut ws);
            let mut solution = vec![0.0; obj.dim()];
            b.iter(|| {
                black_box(conjugate_gradient_into(
                    |v, out, ws| obj.hvp_prepared_into(&state, v, out, ws),
                    &neg_g,
                    &mut solution,
                    &cfg,
                    &mut ws,
                ))
            });
        });
    }
    group.finish();
}

fn bench_newton_step(c: &mut Criterion) {
    let (obj, x) = problem();
    let mut group = c.benchmark_group("newton");
    group.bench_function("single_step_cg10", |b| {
        let solver = NewtonCg::new(NewtonConfig::default());
        b.iter(|| black_box(solver.step(&obj, &x)));
    });
    group.bench_function("single_step_cg10_ws", |b| {
        let solver = NewtonCg::new(NewtonConfig::default());
        let mut ws = Workspace::new();
        let mut iterate = x.clone();
        b.iter(|| {
            iterate.copy_from_slice(&x);
            black_box(solver.step_ws(&obj, &mut iterate, &mut ws))
        });
    });
    group.finish();
}

/// Measures allocations per warm CG solve and writes the merged
/// machine-readable report. Runs last in the group.
fn emit_report(_c: &mut Criterion) {
    let (obj, x) = problem();
    let g = obj.gradient(&x);
    let neg_g: Vec<f64> = g.iter().map(|v| -v).collect();
    let cfg = CgConfig {
        max_iters: 10,
        tolerance: 1e-10,
    };

    let mut ws = Workspace::new();
    let state = obj.prepare_hvp(&x, &mut ws);
    let mut solution = vec![0.0; obj.dim()];
    // Warm the pool, then measure the steady state.
    conjugate_gradient_into(
        |v, out, ws| obj.hvp_prepared_into(&state, v, out, ws),
        &neg_g,
        &mut solution,
        &cfg,
        &mut ws,
    );
    let (ws_allocs, _) = count_allocations(|| {
        black_box(conjugate_gradient_into(
            |v, out, ws| obj.hvp_prepared_into(&state, v, out, ws),
            &neg_g,
            &mut solution,
            &cfg,
            &mut ws,
        ))
    });

    // Forced-sequential kernels: above the parallel threshold the chunked
    // reductions use thread-local accumulators; below it (or with the
    // threshold maxed) the engine is exactly allocation-free.
    nadmm_linalg::set_par_threshold(usize::MAX);
    conjugate_gradient_into(
        |v, out, ws| obj.hvp_prepared_into(&state, v, out, ws),
        &neg_g,
        &mut solution,
        &cfg,
        &mut ws,
    );
    let (ws_seq_allocs, _) = count_allocations(|| {
        black_box(conjugate_gradient_into(
            |v, out, ws| obj.hvp_prepared_into(&state, v, out, ws),
            &neg_g,
            &mut solution,
            &cfg,
            &mut ws,
        ))
    });
    nadmm_linalg::reset_par_threshold();

    let mut entries = criterion_entries();
    for (id, allocs) in [("ws_warm", ws_allocs), ("ws_warm_sequential", ws_seq_allocs)] {
        entries.push(BenchEntry {
            group: "cg_allocations_per_solve".into(),
            id: id.into(),
            ns_per_iter: 0.0,
            ops_per_sec: 0.0,
            allocs_per_iter: Some(allocs as f64),
        });
    }
    let path = report_path();
    merge_bench_json(&path, &entries).expect("write BENCH_kernels.json");
    println!("cg allocations/solve: workspace_warm={ws_allocs} workspace_warm_sequential={ws_seq_allocs}");
    println!("merged report into {path}");
}

criterion_group!(benches, bench_cg_budgets, bench_newton_step, emit_report);
criterion_main!(benches);
