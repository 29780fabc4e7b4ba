//! Tracer-overhead benches: the same warm Newton-ADMM outer iteration with
//! the span tracer off and on, the raw ring-buffer push rate, and the
//! traced warm path's allocation count (must be zero — the ring is
//! pre-allocated and `Event` is `Copy`).
//!
//! Everything merges into `BENCH_kernels.json` under the `tracing` group;
//! `check_trace_report` gates the recorded numbers in CI. Set
//! `NADMM_BENCH_SMOKE=1` for the CI smoke mode.

use criterion::{criterion_group, criterion_main, Criterion};
use nadmm_bench::alloc_counter::{count_allocations, CountingAllocator};
use nadmm_bench::report::{criterion_entries, merge_bench_json, report_path, BenchEntry};
use nadmm_cluster::{Cluster, ClusterComm, NetworkModel, ThreadFabric};
use nadmm_data::{Dataset, SyntheticConfig};
use nadmm_trace::{Recorder, Tag};
use newton_admm::{AdmmWorker, NewtonAdmmConfig};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn smoke() -> bool {
    nadmm_bench::smoke_mode()
}

fn shard() -> Dataset {
    let (train, _) = SyntheticConfig::mnist_like()
        .with_train_size(96)
        .with_test_size(16)
        .with_num_features(16)
        .with_num_classes(4)
        .generate(7);
    train
}

/// One warm worker + the communicator of a 1-rank cluster, past the
/// allocating start-up.
fn warm_worker(shard: &Dataset) -> (AdmmWorker, ClusterComm) {
    let cfg = NewtonAdmmConfig {
        lambda: 1e-3,
        ..Default::default()
    };
    let mut worker = AdmmWorker::new(&cfg, shard);
    let mut comm = Cluster::new(1, NetworkModel::ideal()).connect(Box::new(ThreadFabric::new(1).endpoint(0)));
    for k in 1..=3 {
        worker.outer_iteration(&mut comm, k);
    }
    (worker, comm)
}

fn bench_warm_iteration(c: &mut Criterion) {
    let data = shard();
    let mut group = c.benchmark_group("tracing");
    group.sample_size(10);

    let (mut worker, mut comm) = warm_worker(&data);
    let mut k = 4usize;
    group.bench_function("warm_admm_iteration/untraced", |b| {
        b.iter(|| {
            worker.outer_iteration(&mut comm, k);
            k += 1;
            black_box(worker.rho())
        })
    });

    // Same iteration with the tracer armed. The ring wraps silently once
    // full (drop-oldest), so a long measurement stays warm and bounded.
    nadmm_trace::set_enabled(true);
    nadmm_trace::install_with_capacity(0, 4096);
    let (mut worker, mut comm) = warm_worker(&data);
    let mut k = 4usize;
    group.bench_function("warm_admm_iteration/traced", |b| {
        b.iter(|| {
            worker.outer_iteration(&mut comm, k);
            k += 1;
            black_box(worker.rho())
        })
    });
    let trace = nadmm_trace::uninstall().expect("the traced bench installed a recorder");
    nadmm_trace::set_enabled(false);
    assert!(
        trace.dropped > 0 || !trace.events.is_empty(),
        "the traced bench must actually record events"
    );

    group.finish();
}

fn bench_ring_push(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracing");
    // Raw recorder throughput: one span_dur call = clock advance + agg
    // close + ring push. events/sec lands in the report via ops_per_sec.
    let mut rec = Recorder::new(0, 4096);
    group.bench_function("ring_push", |b| {
        b.iter(|| {
            rec.span_dur(Tag::KernelLaunch, 1e-6);
            black_box(rec.clock_sec())
        })
    });
    group.finish();
}

/// Appends the measured rows criterion cannot produce: the traced warm
/// iteration's allocation count (the zero-alloc contract, recorded so the
/// gate can check it) — then merges everything into the report.
fn emit_report(_c: &mut Criterion) {
    let mut entries = criterion_entries();

    let data = shard();
    nadmm_trace::set_enabled(true);
    nadmm_trace::install_with_capacity(0, 4096);
    let (mut worker, mut comm) = warm_worker(&data);
    worker.outer_iteration(&mut comm, 4); // warm the traced path itself
    let iters = if smoke() { 2 } else { 8 };
    let (allocs, _) = count_allocations(|| {
        for k in 0..iters {
            worker.outer_iteration(&mut comm, 5 + k);
        }
        worker.rho()
    });
    let trace = nadmm_trace::uninstall().expect("emit_report installed a recorder");
    nadmm_trace::set_enabled(false);
    let events = trace.events.len() as u64 + trace.dropped;
    assert!(events > 0, "the traced iterations must record events");

    entries.push(BenchEntry {
        group: "tracing".into(),
        id: "warm_traced_admm_allocs".into(),
        ns_per_iter: 0.0,
        ops_per_sec: f64::INFINITY,
        allocs_per_iter: Some(allocs as f64 / iters as f64),
    });

    let path = report_path();
    merge_bench_json(&path, &entries).expect("cannot write the bench report");
    println!("tracing rows merged into {path} ({allocs} allocs over {iters} traced iterations)");
}

criterion_group!(benches, bench_warm_iteration, bench_ring_push, emit_report);
criterion_main!(benches);
