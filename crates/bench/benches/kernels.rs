//! Criterion micro-benches for the linear-algebra kernels the solvers are
//! built from: dense/sparse GEMM (allocating vs in-place), softmax rows, and
//! Hessian-vector products through the execution engine.
//!
//! The final "bench" merges every measurement — plus allocation counts for
//! the gradient paths — into `BENCH_kernels.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nadmm_bench::alloc_counter::{count_allocations, CountingAllocator};
use nadmm_bench::report::{criterion_entries, merge_bench_json, report_path, BenchEntry};
use nadmm_data::{partition_strong, Dataset, SyntheticConfig};
use nadmm_device::Workspace;
use nadmm_linalg::{gen, DenseMatrix, Matrix};
use nadmm_objective::{Objective, SoftmaxCrossEntropy};
use std::hint::black_box;
use std::sync::OnceLock;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_nt");
    for &n in &[256usize, 1024] {
        let p = 128;
        let classes = 10;
        let mut rng = gen::seeded_rng(1);
        let x = Matrix::Dense(gen::gaussian_matrix(n, p, &mut rng));
        let w = gen::gaussian_matrix(classes - 1, p, &mut rng);
        group.bench_with_input(BenchmarkId::new("dense", n), &n, |b, _| {
            b.iter(|| black_box(x.gemm_nt(&w).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("dense_into", n), &n, |b, _| {
            let mut out = DenseMatrix::zeros(n, classes - 1);
            b.iter(|| {
                x.gemm_nt_into(&w, &mut out).unwrap();
                black_box(out.as_slice()[0])
            });
        });
        // Sparse counterpart at ~5% density.
        let mut dense = gen::gaussian_matrix(n, p, &mut rng);
        for i in 0..n {
            for j in 0..p {
                if (i * 31 + j * 7) % 20 != 0 {
                    dense.set(i, j, 0.0);
                }
            }
        }
        let xs = Matrix::Sparse(nadmm_linalg::CsrMatrix::from_dense(&dense));
        group.bench_with_input(BenchmarkId::new("sparse_5pct", n), &n, |b, _| {
            b.iter(|| black_box(xs.gemm_nt(&w).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("sparse_5pct_into", n), &n, |b, _| {
            let mut out = DenseMatrix::zeros(n, classes - 1);
            b.iter(|| {
                xs.gemm_nt_into(&w, &mut out).unwrap();
                black_box(out.as_slice()[0])
            });
        });
    }
    // One rank's shard of the paper's MNIST shape (`mnist_dense_2r`).
    let (n, p, c1) = SHARD;
    let mut rng = gen::seeded_rng(1);
    let x = Matrix::Dense(gen::gaussian_matrix(n, p, &mut rng));
    let w = gen::gaussian_matrix(c1, p, &mut rng);
    let mut out = DenseMatrix::zeros(n, c1);
    group.bench_function(format!("dense_into/{SHARD_ID}"), |b| {
        b.iter(|| {
            x.gemm_nt_into(&w, &mut out).unwrap();
            black_box(out.as_slice()[0])
        });
    });
    // Served shapes: `serve_mnist_mix`'s four batch sizes, and one E18 batch
    // (requests are dense rows). The id ends in the kernel path that ran.
    for (batch, p, c1) in [(1, 784, 9), (8, 784, 9), (32, 784, 9), (256, 784, 9), (256, 2800, 19)] {
        let shape = if c1 == 9 {
            format!("{batch}x{p}")
        } else {
            format!("{batch}x{p}x{c1}")
        };
        let x = Matrix::Dense(gen::gaussian_matrix(batch, p, &mut rng));
        let w = gen::gaussian_matrix(c1, p, &mut rng);
        let mut out = DenseMatrix::zeros(batch, c1);
        group.bench_function(format!("dense_into/{shape}/{}", nadmm_linalg::dense_kernel_path()), |b| {
            b.iter(|| {
                x.gemm_nt_into(&w, &mut out).unwrap();
                black_box(out.as_slice()[0])
            });
        });
    }
    let shard = csr_shard();
    let xs = shard.features();
    let (n, p, c1) = CSR_SHARD;
    let w = gen::gaussian_matrix(c1, p, &mut rng);
    let mut out = DenseMatrix::zeros(n, c1);
    group.bench_function(format!("sparse_5pct_into/{CSR_SHARD_ID}"), |b| {
        b.iter(|| {
            xs.gemm_nt_into(&w, &mut out).unwrap();
            black_box(out.as_slice()[0])
        });
    });
    group.finish();
}

/// Rows × features × explicit classes of one rank's shard in the
/// `mnist_dense_2r` benchmark workload, and the id suffix of its rows.
const SHARD: (usize, usize, usize) = (8000, 784, 9);
const SHARD_ID: &str = "8000x784";

/// The same for `e18_sparse_2r`, whose features are CSR at 5 % density.
const CSR_SHARD: (usize, usize, usize) = (6000, 2800, 19);
const CSR_SHARD_ID: &str = "6000x2800";

/// Generated once: three groups bench on it.
fn csr_shard() -> &'static Dataset {
    static SHARD: OnceLock<Dataset> = OnceLock::new();
    SHARD.get_or_init(|| {
        let (train, _) = SyntheticConfig::e18_like()
            .with_train_size(CSR_SHARD.0)
            .with_test_size(64)
            .generate(2);
        assert!(train.is_sparse() && train.weight_dim() == CSR_SHARD.1 * CSR_SHARD.2);
        train
    })
}

fn bench_gemm_tn(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_tn");
    for (id, (n, p, c1)) in [("1024", (1024, 128, 9)), (SHARD_ID, SHARD)] {
        let mut rng = gen::seeded_rng(5);
        let x = Matrix::Dense(gen::gaussian_matrix(n, p, &mut rng));
        let m = gen::gaussian_matrix(n, c1, &mut rng);
        let mut out = DenseMatrix::zeros(c1, p);
        group.bench_function(format!("dense_into/{id}"), |b| {
            b.iter(|| {
                x.gemm_tn_from_dense_into(&m, &mut out).unwrap();
                black_box(out.as_slice()[0])
            });
        });
    }
    let shard = csr_shard();
    let (n, p, c1) = CSR_SHARD;
    let m = gen::gaussian_matrix(n, c1, &mut gen::seeded_rng(5));
    let mut out = DenseMatrix::zeros(c1, p);
    group.bench_function(format!("sparse_5pct_into/{CSR_SHARD_ID}"), |b| {
        b.iter(|| {
            shard.features().gemm_tn_from_dense_into(&m, &mut out).unwrap();
            black_box(out.as_slice()[0])
        });
    });
    group.finish();
}

fn softmax_problem() -> (SoftmaxCrossEntropy, Vec<f64>, Vec<f64>) {
    softmax_problem_of(1024, 128)
}

fn softmax_problem_of(samples: usize, features: usize) -> (SoftmaxCrossEntropy, Vec<f64>, Vec<f64>) {
    let (train, _) = SyntheticConfig::mnist_like()
        .with_train_size(samples)
        .with_test_size(64)
        .with_num_features(features)
        .generate(2);
    let obj = SoftmaxCrossEntropy::new(&train, 1e-5);
    let mut rng = gen::seeded_rng(3);
    let x = gen::gaussian_vector_with(obj.dim(), 0.0, 0.1, &mut rng);
    let v = gen::gaussian_vector(obj.dim(), &mut rng);
    (obj, x, v)
}

fn bench_softmax_objective(c: &mut Criterion) {
    let mut group = c.benchmark_group("softmax_objective");
    let (obj, x, v) = softmax_problem();
    group.bench_function("value_and_gradient", |b| b.iter(|| black_box(obj.value_and_gradient(&x))));
    group.bench_function("hessian_vec", |b| b.iter(|| black_box(obj.hessian_vec(&x, &v))));
    bench_warm_paths(&mut group, "", &obj, &x, &v);
    let (obj, x, v) = softmax_problem_of(SHARD.0, SHARD.1);
    bench_warm_paths(&mut group, &format!("/{SHARD_ID}"), &obj, &x, &v);
    let obj = SoftmaxCrossEntropy::new(csr_shard(), 1e-3);
    let mut rng = gen::seeded_rng(3);
    let x = gen::gaussian_vector_with(obj.dim(), 0.0, 0.1, &mut rng);
    let v = gen::gaussian_vector(obj.dim(), &mut rng);
    bench_warm_paths(&mut group, "/csr", &obj, &x, &v);
    group.finish();
}

/// The two calls a Newton-CG step is made of, on a warm pool.
fn bench_warm_paths(group: &mut criterion::BenchmarkGroup, suffix: &str, obj: &SoftmaxCrossEntropy, x: &[f64], v: &[f64]) {
    group.bench_function(format!("value_and_gradient_into{suffix}"), |b| {
        let mut ws = Workspace::new();
        let mut g = vec![0.0; obj.dim()];
        b.iter(|| black_box(obj.value_and_gradient_into(x, &mut g, &mut ws)));
    });
    group.bench_function(format!("hvp_prepared_into{suffix}"), |b| {
        let mut ws = Workspace::new();
        let state = obj.prepare_hvp(x, &mut ws);
        let mut out = vec![0.0; obj.dim()];
        b.iter(|| {
            obj.hvp_prepared_into(&state, v, &mut out, &mut ws);
            black_box(out[0])
        });
    });
}

/// Who pays for a copy of the features: partitioning the `mnist_dense_*`
/// training set onto 1 or 2 ranks, then building a rank's objective.
fn bench_feature_residency(c: &mut Criterion) {
    let cfg = SyntheticConfig::mnist_like().with_train_size(2 * SHARD.0).with_test_size(64);
    let (train, _) = cfg.generate(2);
    let mut group = c.benchmark_group("data");
    for ranks in [1, 2] {
        let id = format!("partition_strong/16000x784/{ranks}");
        group.bench_function(id, |b| b.iter(|| black_box(partition_strong(&train, ranks))));
    }
    group.finish();
    let shard = train.slice(0, SHARD.0);
    let mut group = c.benchmark_group("softmax_objective");
    group.bench_function(format!("new/{SHARD_ID}"), |b| {
        b.iter(|| black_box(SoftmaxCrossEntropy::new(&shard, 1e-5)))
    });
    group.finish();
}

fn bench_transpose_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("t_matvec");
    let mut rng = gen::seeded_rng(4);
    let a: DenseMatrix = gen::gaussian_matrix(2048, 256, &mut rng);
    let x = gen::gaussian_vector(2048, &mut rng);
    group.bench_function("dense_2048x256", |b| b.iter(|| black_box(a.t_matvec(&x).unwrap())));
    group.bench_function("dense_2048x256_into", |b| {
        let mut y = vec![0.0; 256];
        b.iter(|| {
            a.t_matvec_into(&x, &mut y).unwrap();
            black_box(y[0])
        });
    });
    group.finish();
}

/// Measures allocations per gradient/HVP evaluation for both paths — at the
/// small shape (one row chunk) and at shard scale (several) — and merges
/// everything into the machine-readable report. Runs last.
fn emit_report(_c: &mut Criterion) {
    let (obj, x, _) = softmax_problem();
    let (grad_allocs, _) = count_allocations(|| black_box(obj.gradient(&x)));
    let mut entries = criterion_entries();
    let mut record = |id: String, allocs: u64| {
        println!("softmax allocations/eval: {id} = {allocs}");
        entries.push(BenchEntry {
            group: "softmax_allocations_per_eval".into(),
            id,
            ns_per_iter: 0.0,
            ops_per_sec: 0.0,
            allocs_per_iter: Some(allocs as f64),
        });
    };
    record("gradient_alloc".into(), grad_allocs);
    for (suffix, (obj, x, v)) in [
        (String::new(), softmax_problem()),
        (format!("/{SHARD_ID}"), softmax_problem_of(SHARD.0, SHARD.1)),
    ] {
        let mut ws = Workspace::new();
        let mut g = vec![0.0; obj.dim()];
        obj.gradient_into(&x, &mut g, &mut ws); // warm the pool
        let (grad_into_allocs, _) = count_allocations(|| obj.gradient_into(&x, &mut g, &mut ws));
        let state = obj.prepare_hvp(&x, &mut ws);
        obj.hvp_prepared_into(&state, &v, &mut g, &mut ws); // warm
        let (hvp_allocs, _) = count_allocations(|| obj.hvp_prepared_into(&state, &v, &mut g, &mut ws));
        record(format!("gradient_into_warm{suffix}"), grad_into_allocs);
        record(format!("hvp_prepared_into_warm{suffix}"), hvp_allocs);
    }
    let path = report_path();
    merge_bench_json(&path, &entries).expect("write BENCH_kernels.json");
    println!("merged report into {path}");
}

criterion_group!(
    benches,
    bench_gemm,
    bench_gemm_tn,
    bench_softmax_objective,
    bench_feature_residency,
    bench_transpose_kernels,
    emit_report
);
criterion_main!(benches);
