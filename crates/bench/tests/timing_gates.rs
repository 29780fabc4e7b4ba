//! The three wall-clock bounds worth asserting outside the benchmark.
//!
//! Host clocks are noisy, so every test here is `#[ignore]`d and run on
//! purpose, in release and one test at a time:
//!
//! ```text
//! cargo test -p nadmm-bench --release --test timing_gates -- --ignored --test-threads=1
//! ```
//!
//! * the work-sharing pool clears 2× the forced-sequential throughput of
//!   `gemm_nt` and `dot` when at least 4 of its threads can run at once —
//!   4 threads on at least 4 cores (skipped otherwise: a small host, or a
//!   wide pool time-sharing fewer cores, cannot show a parallel speed-up);
//! * a warm Newton-ADMM outer iteration with the span tracer armed costs at
//!   most 2× the same iteration untraced;
//! * the tracer's ring takes more than 1e5 events per second.
//!
//! Each side of a comparison is timed in alternating blocks and compared by
//! its median, so a drift of the host clock during the test hits both sides.
//! The measured numbers themselves live in `bench_e2e`'s per-layer metrics
//! (`linalg.pool_speedup`, `trace.overhead_ratio`).

use nadmm_cluster::{Cluster, ClusterComm, NetworkModel, ThreadFabric};
use nadmm_data::{Dataset, SyntheticConfig};
use nadmm_linalg::{gen, DenseMatrix};
use nadmm_trace::{Recorder, Tag};
use newton_admm::{AdmmWorker, NewtonAdmmConfig};
use std::hint::black_box;
use std::time::Instant;

/// Both comparisons retune process-wide state (the pool threshold, the
/// tracer switch); each holds this lock so a parallel test run cannot mix
/// them.
static GLOBAL_KNOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn global_knobs() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_KNOBS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Median of the samples.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Seconds per call of `f`, timed over `reps` calls.
fn secs_per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Times `f(true)` and `f(false)` in `rounds` alternating blocks of `reps`
/// calls and returns the median seconds per call of each, in that order.
fn paired_medians(rounds: usize, reps: usize, mut f: impl FnMut(bool)) -> (f64, f64) {
    let mut first = Vec::with_capacity(rounds);
    let mut second = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        first.push(secs_per_call(reps, || f(true)));
        second.push(secs_per_call(reps, || f(false)));
    }
    (median(first), median(second))
}

/// Median seconds per call of `f` with the pool forced on (threshold 0) and
/// forced off (`usize::MAX`), in that order.
fn pooled_and_sequential(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    let times = paired_medians(7, reps, |pooled| {
        nadmm_linalg::set_par_threshold(if pooled { 0 } else { usize::MAX });
        f();
    });
    nadmm_linalg::reset_par_threshold();
    times
}

#[test]
#[ignore = "wall-clock bound: run in release with --ignored --test-threads=1"]
fn pooled_gemm_nt_and_dot_clear_twice_sequential_at_four_threads() {
    let _knobs = global_knobs();
    let threads = rayon::current_num_threads();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Four pool threads on fewer cores time-share them: what can run at once
    // is the smaller of the two, and the bound is for four at once.
    if threads.min(cores) < 4 {
        println!(
            "SKIP: the pool has {threads} threads on {cores} cores (< 4 at once); a small host cannot show a parallel speed-up"
        );
        return;
    }
    let mut rng = gen::seeded_rng(5);
    let n = 1 << 20;
    let x = gen::gaussian_vector(n, &mut rng);
    let y = gen::gaussian_vector(n, &mut rng);
    let (rows, cols, classes) = (1024, 128, 10);
    let a = gen::gaussian_matrix(rows, cols, &mut rng);
    let w = gen::gaussian_matrix(classes - 1, cols, &mut rng);
    let mut out = DenseMatrix::zeros(rows, classes - 1);

    // One pooled call first spawns the lazily created workers.
    nadmm_linalg::set_par_threshold(0);
    black_box(nadmm_linalg::vector::dot(&x, &y));

    let (dot_pooled, dot_seq) = pooled_and_sequential(20, || {
        black_box(nadmm_linalg::vector::dot(&x, &y));
    });
    let (gemm_pooled, gemm_seq) = pooled_and_sequential(20, || {
        a.gemm_nt_into(&w, &mut out).unwrap();
        black_box(out.as_slice()[0]);
    });
    for (kernel, pooled, seq) in [("dot", dot_pooled, dot_seq), ("gemm_nt", gemm_pooled, gemm_seq)] {
        let speedup = seq / pooled;
        println!("{kernel}: pooled {speedup:.2}× sequential at {threads} threads on {cores} cores");
        assert!(
            speedup >= 2.0,
            "{kernel}: pooled is only {speedup:.2}× sequential at {threads} threads on {cores} cores \
             ({pooled:.3e} s vs {seq:.3e} s per call; bound: ≥ 2× with ≥ 4 threads on ≥ 4 cores)"
        );
    }
}

/// A 1-rank worker and its communicator, past the allocating start-up.
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

#[test]
#[ignore = "wall-clock bound: run in release with --ignored --test-threads=1"]
fn traced_warm_admm_iteration_costs_at_most_twice_untraced() {
    let _knobs = global_knobs();
    let (shard, _) = SyntheticConfig::mnist_like()
        .with_train_size(96)
        .with_test_size(16)
        .with_num_features(16)
        .with_num_classes(4)
        .generate(7);
    let (mut plain, mut plain_comm) = warm_worker(&shard);
    let (mut traced, mut traced_comm) = warm_worker(&shard);
    let (mut k_plain, mut k_traced) = (4usize, 4usize);

    // One recorder stays installed on this thread; the process-wide switch
    // turns it off for the untraced side, where every span is then a single
    // atomic load. Spans open and close inside one outer iteration, so the
    // switch never flips under an open span. The 4096-event ring wraps
    // (drop-oldest), so the traced side runs the steady state of a long run.
    nadmm_trace::set_enabled(true);
    nadmm_trace::install_with_capacity(0, 4096);
    let (traced_sec, untraced_sec) = paired_medians(9, 40, |armed| {
        nadmm_trace::set_enabled(armed);
        let (worker, comm, k) = if armed {
            (&mut traced, &mut traced_comm, &mut k_traced)
        } else {
            (&mut plain, &mut plain_comm, &mut k_plain)
        };
        worker.outer_iteration(comm, *k);
        *k += 1;
        black_box(worker.rho());
    });
    nadmm_trace::set_enabled(false);
    let trace = nadmm_trace::uninstall().expect("the test installed a recorder");
    assert!(
        trace.dropped > 0 || !trace.events.is_empty(),
        "the traced iterations must record events"
    );
    let ratio = traced_sec / untraced_sec;
    println!("traced warm iteration: {traced_sec:.3e} s vs {untraced_sec:.3e} s untraced ({ratio:.2}×)");
    assert!(
        ratio <= 2.0,
        "a traced warm ADMM iteration costs {ratio:.2}× an untraced one ({traced_sec:.3e} s vs {untraced_sec:.3e} s; bound: ≤ 2×)"
    );
}

#[test]
#[ignore = "wall-clock bound: run in release with --ignored --test-threads=1"]
fn trace_ring_takes_more_than_1e5_events_per_second() {
    // One `span_dur` = clock advance + aggregate close + ring push.
    let mut rec = Recorder::new(0, 4096);
    let events = 200_000usize;
    let rate = median(
        (0..5)
            .map(|_| {
                1.0 / secs_per_call(events, || {
                    rec.span_dur(Tag::KernelLaunch, 1e-6);
                    black_box(rec.clock_sec());
                })
            })
            .collect(),
    );
    println!("trace ring: {rate:.3e} events/s");
    assert!(rate > 1e5, "the trace ring takes only {rate:.3e} events/s (bound: > 1e5)");
}
