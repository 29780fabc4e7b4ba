//! Criterion benches for the reduced-precision path, end to end: f16/bf16
//! rounding wall clock, compressed-collective cost modeling (including the
//! logical-byte crossover shift), artifact sizes per encoding, and the f16
//! artifact's prediction agreement with full precision.
//!
//! Everything merges into `BENCH_kernels.json` under the `precision` group;
//! `check_precision_report` gates the recorded numbers in CI. Set
//! `NADMM_BENCH_SMOKE=1` for the CI smoke mode.

use criterion::{criterion_group, criterion_main, Criterion};
use nadmm_bench::alloc_counter::{count_allocations, CountingAllocator};
use nadmm_bench::report::{criterion_entries, merge_bench_json, report_path, BenchEntry};
use nadmm_cluster::{Cluster, CollectiveAlgorithm, CollectiveKind, Communicator, Compression, NetworkModel};
use nadmm_device::DeviceSpec;
use nadmm_linalg::half::{round_bf16, round_f16};
use nadmm_serve::{InferenceSession, ModelArtifact, Provenance, TensorEncoding};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn smoke() -> bool {
    nadmm_bench::smoke_mode()
}

/// A deterministic MNIST-shaped artifact (64 features × 10 classes) whose
/// weights exercise a wide dynamic range.
fn reference_artifact() -> ModelArtifact {
    let (features, classes) = (64usize, 10usize);
    let weights: Vec<f64> = (0..(classes - 1) * features)
        .map(|i| ((i as f64) * 0.37).sin() * 10f64.powi((i % 5) as i32 - 2))
        .collect();
    let labels = (0..classes).map(|c| format!("digit-{c}")).collect();
    ModelArtifact::new(features, classes, labels, weights, Provenance::default()).unwrap()
}

fn bench_pack_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("half_pack");
    let len = if smoke() { 4_096 } else { 65_536 };
    let values: Vec<f64> = (0..len).map(|i| ((i as f64) * 0.11).sin() * 3.0).collect();
    group.bench_function("round_f16_sweep", |b| {
        b.iter(|| values.iter().map(|&v| round_f16(v)).sum::<f64>())
    });
    group.bench_function("round_bf16_sweep", |b| {
        b.iter(|| values.iter().map(|&v| round_bf16(v)).sum::<f64>())
    });
    group.finish();
}

fn bench_compressed_allreduce_wallclock(c: &mut Criterion) {
    let mut group = c.benchmark_group("compressed_allreduce_wallclock");
    group.sample_size(10);
    let payload = vec![1.0f64; 8192];
    for compression in [Compression::None, Compression::F16] {
        group.bench_function(compression.name(), |b| {
            b.iter(|| {
                let cluster = Cluster::new(4, NetworkModel::ethernet_10g()).with_compression(compression);
                black_box(cluster.run(|comm| {
                    let mut buf = payload.clone();
                    for _ in 0..8 {
                        comm.allreduce_sum_into(&mut buf);
                    }
                    buf[0]
                }))
            });
        });
    }
    group.finish();
}

/// Records the compressed-collective cost model (and its logical-byte
/// crossover shift), artifact sizes per encoding, the f16 artifact's
/// prediction agreement, and the compressed warm-path allocation count.
/// Runs last.
fn emit_report(_c: &mut Criterion) {
    let mut entries = criterion_entries();

    // Compressed allreduce cost model: the same logical payload billed at
    // full width vs f16 on the wire (ethernet, ring regime).
    let net = NetworkModel::ethernet_10g();
    let n = 8usize;
    let logical_lens: &[usize] = if smoke() { &[65_536] } else { &[4_096, 65_536, 524_288] };
    for compression in [Compression::None, Compression::F16, Compression::Bf16] {
        for &len in logical_lens {
            let logical_bytes = len as f64 * 8.0;
            let wire_bytes = len as f64 * compression.wire_bytes_per_element();
            let ns = net.collective_cost(CollectiveKind::Allreduce, CollectiveAlgorithm::Ring, n, wire_bytes) * 1e9;
            entries.push(BenchEntry {
                group: "precision".into(),
                id: format!("allreduce_model/{}/n{}/{}B", compression.name(), n, logical_bytes as u64),
                ns_per_iter: ns,
                ops_per_sec: 0.0,
                allocs_per_iter: None,
            });
        }
        // The tree→ring crossover expressed in *logical* bytes: compression
        // quarters the wire payload, so the switch point moves 4× later in
        // logical terms.
        if let Some(crossover_wire) = net.crossover_bytes(
            CollectiveKind::Allreduce,
            CollectiveAlgorithm::BinomialTree,
            CollectiveAlgorithm::Ring,
            n,
        ) {
            let logical = crossover_wire * 8.0 / compression.wire_bytes_per_element();
            entries.push(BenchEntry {
                group: "precision".into(),
                id: format!("allreduce_crossover_logical_bytes/{}/n{n}", compression.name()),
                ns_per_iter: logical, // bytes, not ns — see the id
                ops_per_sec: 0.0,
                allocs_per_iter: None,
            });
        }
    }

    // Artifact bytes per weight encoding, same model.
    let artifact = reference_artifact();
    for encoding in TensorEncoding::ALL {
        let encoded = artifact
            .clone()
            .with_weight_encoding(encoding)
            .expect("the reference weights are finite");
        entries.push(BenchEntry {
            group: "precision".into(),
            id: format!("artifact_bytes/{}", encoding.name()),
            ns_per_iter: encoded.to_bytes().len() as f64, // bytes, not ns — see the id
            ops_per_sec: 0.0,
            allocs_per_iter: None,
        });
    }

    // Prediction agreement: fraction of deterministic synthetic rows on
    // which the f16-encoded model predicts the same class as full f64.
    let rows = if smoke() { 64 } else { 512 };
    let p = artifact.num_features;
    let f16 = artifact
        .clone()
        .with_weight_encoding(TensorEncoding::F16)
        .expect("the reference weights are finite");
    let mut full_session = InferenceSession::new(&artifact, DeviceSpec::tesla_p100()).unwrap();
    let mut half_session = InferenceSession::new(&f16, DeviceSpec::tesla_p100()).unwrap();
    let features: Vec<f64> = (0..rows * p).map(|i| ((i as f64) * 0.23).sin()).collect();
    let mut full_preds = vec![0usize; rows];
    let mut half_preds = vec![0usize; rows];
    full_session.predict_batch_into(&features, &mut full_preds);
    half_session.predict_batch_into(&features, &mut half_preds);
    let agree = full_preds.iter().zip(&half_preds).filter(|(a, b)| a == b).count();
    entries.push(BenchEntry {
        group: "precision".into(),
        id: format!("f16_prediction_agreement/rows{rows}"),
        ns_per_iter: agree as f64 / rows as f64, // fraction, not ns — see the id
        ops_per_sec: 0.0,
        allocs_per_iter: None,
    });

    // The compressed warm path must stay allocation-free, exactly like the
    // full-width one.
    let allocs = Cluster::new(4, NetworkModel::ethernet_10g())
        .with_compression(Compression::F16)
        .run(|comm| {
            let mut buf = vec![0.5f64; 8192];
            comm.allreduce_sum_into(&mut buf); // warm-up
            let (warm_allocs, _) = count_allocations(|| comm.allreduce_sum_into(&mut buf));
            warm_allocs
        })
        .into_iter()
        .max()
        .unwrap_or(0);
    entries.push(BenchEntry {
        group: "precision".into(),
        id: "compressed_allreduce_warm_allocs".into(),
        ns_per_iter: 0.0,
        ops_per_sec: 0.0,
        allocs_per_iter: Some(allocs as f64),
    });

    let path = report_path();
    merge_bench_json(&path, &entries).expect("write BENCH_kernels.json");
    println!("precision: f16 prediction agreement {agree}/{rows}, compressed warm allocs={allocs}");
    println!("merged report into {path}");
}

criterion_group!(benches, bench_pack_kernels, bench_compressed_allreduce_wallclock, emit_report);
criterion_main!(benches);
