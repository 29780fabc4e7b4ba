//! Criterion benches for the simulated cluster substrate: the per-algorithm
//! collective cost model (tree vs ring vs halving-doubling across payload
//! sizes, including the modeled crossover), wall-clock cost of the in-place
//! allreduce (cold and warm), and the warm-path allocation count of the
//! engine.
//!
//! The final "bench" merges everything into `BENCH_kernels.json` under the
//! `collectives` group, so the recorded perf trajectory shows ring allreduce
//! beating the binomial tree above the modeled crossover payload — the
//! selection rule the communicator applies automatically.
//!
//! Set `NADMM_BENCH_SMOKE=1` for the CI smoke mode (fewer sizes/samples).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nadmm_bench::alloc_counter::{count_allocations, CountingAllocator};
use nadmm_bench::report::{criterion_entries, merge_bench_json, report_path, BenchEntry};
use nadmm_cluster::{Cluster, CollectiveAlgorithm, CollectiveKind, CollectiveSelector, Communicator, Contribution, NetworkModel};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn smoke() -> bool {
    nadmm_bench::smoke_mode()
}

/// Payload sizes (in f64 elements) spanning the tree/ring crossover: the
/// scalar instrumentation regime, a mid-size model, and MNIST/CIFAR-scale
/// d×k parameter vectors.
fn payload_lens() -> Vec<usize> {
    if smoke() {
        vec![256, 65_536]
    } else {
        vec![16, 256, 4_096, 65_536, 524_288]
    }
}

fn bench_allreduce_wallclock(c: &mut Criterion) {
    let mut group = c.benchmark_group("allreduce_wallclock");
    group.sample_size(10);
    let workers: &[usize] = if smoke() { &[4] } else { &[2, 4, 8] };
    for &n in workers {
        let payload = vec![1.0f64; 8192];
        group.bench_with_input(BenchmarkId::new("into", n), &n, |b, &n| {
            b.iter(|| {
                let cluster = Cluster::new(n, NetworkModel::infiniband_100g());
                black_box(cluster.run(|comm| {
                    let mut buf = payload.clone();
                    comm.allreduce_sum_into(&mut buf);
                    buf[0]
                }))
            });
        });
        // Amortised: one cluster, many warm in-place collectives — the
        // regime the solvers actually run in.
        group.bench_with_input(BenchmarkId::new("into_warm_x16", n), &n, |b, &n| {
            b.iter(|| {
                let cluster = Cluster::new(n, NetworkModel::infiniband_100g());
                black_box(cluster.run(|comm| {
                    let mut buf = payload.clone();
                    for _ in 0..16 {
                        comm.allreduce_sum_into(&mut buf);
                    }
                    buf[0]
                }))
            });
        });
    }
    group.finish();
}

fn bench_network_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_cost_model");
    let nets = [
        NetworkModel::infiniband_100g(),
        NetworkModel::ethernet_10g(),
        NetworkModel::ethernet_1g(),
    ];
    group.bench_function("allreduce_cost_sweep", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for net in &nets {
                for workers in [2usize, 4, 8, 16] {
                    for algo in CollectiveAlgorithm::ALL {
                        total += net.collective_cost(CollectiveKind::Allreduce, algo, workers, 8.0 * 62_720.0);
                    }
                    total += net.gather(workers, 8.0 * 62_720.0);
                    total += net.broadcast(workers, 8.0 * 62_720.0);
                }
            }
            black_box(total)
        });
    });
    group.finish();
}

/// Records the modeled per-algorithm allreduce costs across payload sizes,
/// the tree→ring crossover, and the warm-path allocation counts, then merges
/// every measurement into the machine-readable report. Runs last.
fn emit_report(_c: &mut Criterion) {
    let net = NetworkModel::infiniband_100g();
    let mut entries = criterion_entries();
    let ranks: &[usize] = if smoke() { &[8] } else { &[4, 8, 16] };

    // Modeled cost per algorithm and payload: ns_per_iter is the modeled
    // simulated time (in ns) of one collective.
    for &n in ranks {
        for &len in &payload_lens() {
            let bytes = len as f64 * 8.0;
            for algo in [
                CollectiveAlgorithm::Naive,
                CollectiveAlgorithm::BinomialTree,
                CollectiveAlgorithm::Ring,
                CollectiveAlgorithm::RecursiveHalvingDoubling,
            ] {
                let cost_ns = net.collective_cost(CollectiveKind::Allreduce, algo, n, bytes) * 1e9;
                entries.push(BenchEntry {
                    group: "collectives".into(),
                    id: format!("allreduce_model/{}/n{}/{}B", algo.name(), n, bytes as u64),
                    ns_per_iter: cost_ns,
                    ops_per_sec: if cost_ns > 0.0 { 1e9 / cost_ns } else { f64::INFINITY },
                    allocs_per_iter: None,
                });
            }
            let (chosen, _) = net.select(CollectiveKind::Allreduce, n, bytes, CollectiveSelector::Auto);
            entries.push(BenchEntry {
                group: "collectives".into(),
                id: format!("allreduce_auto_pick/n{}/{}B={}", n, bytes as u64, chosen.name()),
                ns_per_iter: net.collective_cost(CollectiveKind::Allreduce, chosen, n, bytes) * 1e9,
                ops_per_sec: 0.0,
                allocs_per_iter: None,
            });
        }
        // The modeled crossover payload (bytes) above which ring beats tree.
        if let Some(crossover) = net.crossover_bytes(
            CollectiveKind::Allreduce,
            CollectiveAlgorithm::BinomialTree,
            CollectiveAlgorithm::Ring,
            n,
        ) {
            entries.push(BenchEntry {
                group: "collectives".into(),
                id: format!("allreduce_crossover_bytes_tree_to_ring/n{n}"),
                ns_per_iter: crossover, // bytes, not ns — see the id
                ops_per_sec: 0.0,
                allocs_per_iter: None,
            });
        }
    }

    // Warm-path allocation proof at the bench level: after one warm-up, an
    // in-place allreduce and a split-phase handle allocate nothing.
    let allocs = Cluster::new(4, NetworkModel::infiniband_100g())
        .run(|comm| {
            let mut buf = vec![0.5f64; 8192];
            comm.allreduce_sum_into(&mut buf); // warm-up
            let h = comm.start_allreduce_sum_max(Contribution::Data(&buf), buf.len());
            comm.wait_into(h, &mut buf); // warm-up the handle pool
            let (blocking_allocs, _) = count_allocations(|| comm.allreduce_sum_into(&mut buf));
            let (split_allocs, _) = count_allocations(|| {
                let h = comm.start_allreduce_sum_max(Contribution::Data(&buf), buf.len());
                comm.wait_into(h, &mut buf);
            });
            (blocking_allocs, split_allocs)
        })
        .into_iter()
        .fold((0u64, 0u64), |acc, (b, s)| (acc.0.max(b), acc.1.max(s)));
    for (id, count) in [
        ("allreduce_into_warm_allocs", allocs.0),
        ("allreduce_split_phase_warm_allocs", allocs.1),
    ] {
        entries.push(BenchEntry {
            group: "collectives".into(),
            id: id.into(),
            ns_per_iter: 0.0,
            ops_per_sec: 0.0,
            allocs_per_iter: Some(count as f64),
        });
    }

    let path = report_path();
    merge_bench_json(&path, &entries).expect("write BENCH_kernels.json");
    println!(
        "collectives: warm in-place allreduce allocs={} split-phase allocs={}",
        allocs.0, allocs.1
    );
    println!("merged report into {path}");
}

criterion_group!(benches, bench_allreduce_wallclock, bench_network_model, emit_report);
criterion_main!(benches);
