//! Criterion bench for whole-epoch wall-clock cost: one Newton-ADMM outer
//! iteration vs one GIANT outer iteration on the same simulated cluster
//! (this is the real-time analogue of the simulated Figure 2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nadmm_baselines::GiantConfig;
use nadmm_cluster::{Cluster, NetworkModel};
use nadmm_data::{partition_strong, SyntheticConfig};
use nadmm_experiment::{run_spec_on, SolverSpec};
use newton_admm::NewtonAdmmConfig;
use std::hint::black_box;

fn bench_epoch(c: &mut Criterion) {
    let (train, _) = SyntheticConfig::mnist_like()
        .with_train_size(512)
        .with_test_size(64)
        .with_num_features(64)
        .generate(1);
    let mut group = c.benchmark_group("one_epoch_wallclock");
    group.sample_size(10);
    for &workers in &[2usize, 4] {
        let (shards, _) = partition_strong(&train, workers);
        group.bench_with_input(BenchmarkId::new("newton_admm", workers), &workers, |b, &workers| {
            b.iter(|| {
                let cluster = Cluster::new(workers, NetworkModel::infiniband_100g());
                let cfg = NewtonAdmmConfig::default().with_lambda(1e-5).with_max_iters(1);
                black_box(run_spec_on(&cluster, &SolverSpec::NewtonAdmm(cfg), &shards, None, None))
            });
        });
        group.bench_with_input(BenchmarkId::new("giant", workers), &workers, |b, &workers| {
            b.iter(|| {
                let cluster = Cluster::new(workers, NetworkModel::infiniband_100g());
                let cfg = GiantConfig {
                    max_iters: 1,
                    lambda: 1e-5,
                    ..Default::default()
                };
                black_box(run_spec_on(&cluster, &SolverSpec::Giant(cfg), &shards, None, None))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_epoch);
criterion_main!(benches);
