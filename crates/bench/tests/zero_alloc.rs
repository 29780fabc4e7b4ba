//! Proof that the execution-engine hot paths are allocation-free once warm.
//!
//! Uses the counting global allocator to assert that, after warm-up
//! populates the workspace pools, (a) a full CG solve (including every
//! Hessian-vector product through the softmax objective and the Device
//! kernels), (b) a **full distributed ADMM outer iteration** — local
//! Newton solve, in-place reduce/broadcast consensus round, penalty
//! adaptation, the root's test-accuracy pass and the split-phase
//! instrumentation allreduce — (c) a warm
//! in-place `allreduce_sum_into`, full width and f16 on the wire — and (d) a
//! **batched inference call** (`InferenceSession::predict_batch_into` and
//! its top-k variant, the serving engine's hot path, and
//! `predict_matrix_into` on CSR features) perform **zero** heap
//! allocations, and that the device and communication pools report zero
//! misses. A warm SGD minibatch step is pinned too: a fixed, small number of
//! allocations, none of them the size of the batch.

use nadmm_baselines::common::{local_objective_on, record_iteration, EngineSync, Minibatches};
use nadmm_bench::alloc_counter::{count_allocations, peak_bytes, CountingAllocator};
use nadmm_cluster::{Cluster, Communicator, Compression, NetworkModel};
use nadmm_data::{partition_strong, SyntheticConfig};
use nadmm_device::{Device, DeviceSpec, Workspace};
use nadmm_linalg::gen;
use nadmm_metrics::RunHistory;
use nadmm_objective::{BinaryLogistic, Objective, ProximalAugmented, SoftmaxCrossEntropy};
use nadmm_serve::{InferenceSession, ModelArtifact, Provenance};
use nadmm_solver::{conjugate_gradient_into, CgConfig, NewtonCg, NewtonConfig};
use newton_admm::{AdmmWorker, NewtonAdmmConfig};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Two tests below retune the process-wide pool (`rayon::set_num_threads`,
/// `set_par_threshold`); a proof measured while another test holds those
/// knobs takes the pooled multi-chunk path and counts its allocations. Every
/// test holds this lock, so each proof sees only the knobs it set itself.
static POOL_KNOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn pool_knobs() -> std::sync::MutexGuard<'static, ()> {
    // A failed proof poisons the lock; the other proofs must still run.
    POOL_KNOBS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn problem() -> (SoftmaxCrossEntropy, Vec<f64>) {
    let (train, _) = SyntheticConfig::mnist_like()
        .with_train_size(96)
        .with_test_size(16)
        .with_num_features(24)
        .with_num_classes(4)
        .generate(7);
    let obj = SoftmaxCrossEntropy::new(&train, 1e-4);
    let mut rng = gen::seeded_rng(11);
    let x = gen::gaussian_vector_with(obj.dim(), 0.0, 0.1, &mut rng);
    (obj, x)
}

#[test]
fn warm_cg_solve_performs_zero_heap_allocations() {
    let _knobs = pool_knobs();
    let (obj, x) = problem();
    let mut ws = Workspace::new();
    let mut grad = vec![0.0; obj.dim()];
    obj.gradient_into(&x, &mut grad, &mut ws);
    let neg_g: Vec<f64> = grad.iter().map(|v| -v).collect();
    let cfg = CgConfig {
        max_iters: 10,
        tolerance: 1e-12,
    };
    let mut solution = vec![0.0; obj.dim()];

    // Warm-up solve populates the pool (this one may allocate).
    let state = obj.prepare_hvp(&x, &mut ws);
    conjugate_gradient_into(
        |v, out, ws| obj.hvp_prepared_into(&state, v, out, ws),
        &neg_g,
        &mut solution,
        &cfg,
        &mut ws,
    );
    obj.release_hvp(state, &mut ws);

    // Steady state: prepare + full CG solve + release, zero allocations.
    ws.reset_stats();
    let (allocs, stats) = count_allocations(|| {
        let state = obj.prepare_hvp(&x, &mut ws);
        let stats = conjugate_gradient_into(
            |v, out, ws| obj.hvp_prepared_into(&state, v, out, ws),
            &neg_g,
            &mut solution,
            &cfg,
            &mut ws,
        );
        obj.release_hvp(state, &mut ws);
        stats
    });
    assert!(stats.iterations > 1, "CG must actually iterate (ran {})", stats.iterations);
    assert_eq!(allocs, 0, "warm CG solve made {allocs} heap allocations (expected zero)");
    let pool = ws.stats();
    assert_eq!(pool.pool_misses, 0, "warm CG solve missed the pool: {pool:?}");
    assert!(pool.pool_hits > 0, "the solve must actually draw from the pool");
}

#[test]
fn warm_newton_step_performs_zero_heap_allocations() {
    let _knobs = pool_knobs();
    let (obj, x) = problem();
    let aug = ProximalAugmented::new(obj.clone(), x.clone(), vec![0.0; x.len()], 1.5);
    let solver = NewtonCg::new(NewtonConfig::default());
    let mut ws = Workspace::new();
    let mut iterate = x.clone();
    solver.step_ws(&aug, &mut iterate, &mut ws); // warm-up

    iterate.copy_from_slice(&x);
    ws.reset_stats();
    let (allocs, _) = count_allocations(|| solver.step_ws(&aug, &mut iterate, &mut ws));
    // One full Newton step = value, gradient and HVP state from one sweep
    // (inline HvpState, pooled buffers), 10 CG iterations (each an HVP through the Device
    // engine), and an Armijo line search — none of it may allocate.
    assert_eq!(allocs, 0, "warm Newton step made {allocs} heap allocations");
    assert_eq!(
        ws.stats().pool_misses,
        0,
        "warm Newton step missed the pool: {:?}",
        ws.stats()
    );
}

#[test]
fn shard_scale_softmax_evaluations_perform_zero_heap_allocations() {
    let _knobs = pool_knobs();
    // More rows than one canonical row chunk (256), so the gradient and
    // Hessian-vector reductions fold several chunk partials — which must come
    // from the pooled workspace both on the inline path (width 1) and on the
    // pooled path (width 2: 600 × 64 stored entries clear the default
    // par-threshold, so the sweep dispatches one partial per chunk).
    let (train, _) = SyntheticConfig::mnist_like()
        .with_train_size(600)
        .with_test_size(16)
        .with_num_features(64)
        .with_num_classes(4)
        .generate(7);
    assert!(!train.is_sparse() && nadmm_linalg::row_partials(train.num_samples()) > 1);
    assert_warm_evaluations_do_not_allocate(&SoftmaxCrossEntropy::new(&train, 1e-4));
}

#[test]
fn shard_scale_csr_softmax_evaluations_perform_zero_heap_allocations() {
    let _knobs = pool_knobs();
    // The same on CSR features at the `e18_sparse_2r` workload's density and
    // class count, scaled down: the class-interleaved copies of the weights
    // and of the accumulator the sparse kernels work in must come from the
    // pooled workspace too (600 × 400 × 0.05 stored entries times 19 explicit
    // classes clear the default par-threshold at width 2).
    let (train, _) = SyntheticConfig::e18_like()
        .with_train_size(600)
        .with_test_size(16)
        .with_num_features(400)
        .generate(7);
    assert!(train.is_sparse() && train.num_classes() == 20 && nadmm_linalg::row_partials(train.num_samples()) > 1);
    assert_warm_evaluations_do_not_allocate(&SoftmaxCrossEntropy::new(&train, 1e-3));
}

/// Warm `value_and_gradient_into`, `hvp_prepared_into`, `value_ws`,
/// `prepare_hvp` and `value_gradient_and_hvp_into`: no heap allocation and no
/// pool miss, at pool widths 1 and 2.
fn assert_warm_evaluations_do_not_allocate(obj: &dyn Objective) {
    let mut rng = gen::seeded_rng(11);
    let x = gen::gaussian_vector_with(obj.dim(), 0.0, 0.1, &mut rng);
    let v = gen::gaussian_vector(obj.dim(), &mut rng);
    let mut grad = vec![0.0; obj.dim()];
    let mut hv = vec![0.0; obj.dim()];
    for width in [1, 2] {
        rayon::set_num_threads(width);
        let mut ws = Workspace::new();
        // Warm-up populates the pool (and spawns the pool worker).
        obj.value_and_gradient_into(&x, &mut grad, &mut ws);
        obj.value_ws(&x, &mut ws);
        let state = obj.prepare_hvp(&x, &mut ws);
        obj.hvp_prepared_into(&state, &v, &mut hv, &mut ws);
        obj.release_hvp(state, &mut ws);
        let (_, state) = obj.value_gradient_and_hvp_into(&x, &mut grad, &mut ws);
        obj.release_hvp(state, &mut ws);

        ws.reset_stats();
        let (grad_allocs, value) = count_allocations(|| obj.value_and_gradient_into(&x, &mut grad, &mut ws));
        let (value_allocs, value_alone) = count_allocations(|| obj.value_ws(&x, &mut ws));
        let (prepare_allocs, state) = count_allocations(|| obj.prepare_hvp(&x, &mut ws));
        let (hvp_allocs, ()) = count_allocations(|| obj.hvp_prepared_into(&state, &v, &mut hv, &mut ws));
        obj.release_hvp(state, &mut ws);
        let (shared_allocs, (_, state)) = count_allocations(|| obj.value_gradient_and_hvp_into(&x, &mut grad, &mut ws));
        let (shared_hvp_allocs, ()) = count_allocations(|| obj.hvp_prepared_into(&state, &v, &mut hv, &mut ws));
        obj.release_hvp(state, &mut ws);
        assert!(value.is_finite() && value_alone.is_finite());
        assert_eq!(grad_allocs, 0, "warm value_and_gradient_into at width {width}");
        assert_eq!(value_allocs, 0, "warm value_ws at width {width}");
        assert_eq!(prepare_allocs, 0, "warm prepare_hvp at width {width}");
        assert_eq!(hvp_allocs, 0, "warm hvp_prepared_into at width {width}");
        assert_eq!(shared_allocs, 0, "warm value_gradient_and_hvp_into at width {width}");
        assert_eq!(
            shared_hvp_allocs, 0,
            "warm hvp_prepared_into on the shared state at width {width}"
        );
        assert_eq!(ws.stats().pool_misses, 0, "width {width}: {:?}", ws.stats());
    }
    rayon::reset_num_threads();
}

#[test]
fn warm_minibatch_refill_and_gradient_allocate_no_batch_sized_buffer() {
    let _knobs = pool_knobs();
    // The `sgd_mnist_tcp_2r` step shape: 32 rows of 784 features, 10
    // classes. A warm draw gathers into the sampler's own batch buffer. What
    // still allocates is small: the sampled index set, and the three buffers
    // `SoftmaxCrossEntropy::new` builds (its labels, its one-hot matrix and
    // the default device that `with_device` replaces).
    let (batch, p) = (32, 784);
    let (shard, _) = SyntheticConfig::mnist_like()
        .with_train_size(256)
        .with_test_size(16)
        .generate(7);
    assert_eq!(shard.num_features(), p);
    let device = Device::new(DeviceSpec::tesla_p100());
    let mut minibatches = Minibatches::new(&shard, batch, 5);
    let mut ws = Workspace::new();
    let x = vec![0.01; shard.weight_dim()];
    let mut g = vec![0.0; x.len()];
    // A twin of the sampler's RNG replays its index draws, so the index
    // set's allocations (B-tree nodes, which vary with the draw) can be
    // told apart from the rest of the step's.
    let mut twin = gen::seeded_rng(5);
    let mut index_allocs = || count_allocations(|| gen::sample_without_replacement(shard.num_samples(), batch, &mut twin)).0;
    for _ in 0..2 {
        minibatches.draw(0.0, &device).gradient_into(&x, &mut g, &mut ws);
        index_allocs();
    }
    let batch_bytes = batch * p * 8;
    for step in 0..8 {
        let (peak, (allocs, ())) =
            peak_bytes(|| count_allocations(|| minibatches.draw(0.0, &device).gradient_into(&x, &mut g, &mut ws)));
        let index = index_allocs();
        assert_eq!(
            allocs - index,
            3,
            "step {step}: {allocs} allocations, {index} of them the index set"
        );
        assert!(
            peak < batch_bytes,
            "step {step}: peak {peak} B reaches a {batch_bytes} B batch buffer"
        );
    }
    // The per-step gather the sampler replaced does allocate one.
    let mut rng = gen::seeded_rng(5);
    let (peak, ()) = peak_bytes(|| {
        let idx = gen::sample_without_replacement(shard.num_samples(), batch, &mut rng);
        SoftmaxCrossEntropy::new(&shard.select(&idx), 0.0).gradient_into(&x, &mut g, &mut ws);
    });
    assert!(peak >= batch_bytes, "a fresh select holds {peak} B");
}

#[test]
fn warm_binary_logistic_evaluations_perform_zero_heap_allocations() {
    let _knobs = pool_knobs();
    // One canonical row chunk: above 256 rows `t_matvec_into` still allocates
    // its chunk partials (the README's scoping caveat).
    let (train, _) = SyntheticConfig::higgs_like()
        .with_train_size(200)
        .with_test_size(16)
        .with_num_features(12)
        .generate(7);
    assert_eq!(nadmm_linalg::row_partials(train.num_samples()), 0);
    assert_warm_evaluations_do_not_allocate(&BinaryLogistic::new(&train, 1e-3));
}

#[test]
fn warm_distributed_admm_outer_iteration_is_allocation_free() {
    let _knobs = pool_knobs();
    // The engine's contract: a warm distributed Newton-ADMM outer iteration
    // — compute *and* collectives, instrumentation included — allocates
    // nothing on any rank. The allocation counters are per-thread,
    // so each rank proves its own hot path independently (including
    // whichever rank happens to finalize the rendezvous reductions).
    let workers = 4;
    let (train, test) = SyntheticConfig::mnist_like()
        .with_train_size(128)
        .with_test_size(16)
        .with_num_features(20)
        .with_num_classes(4)
        .generate(13);
    let (shards, _) = partition_strong(&train, workers);
    // Default config ⇒ spectral penalty: the measured iteration (k = 4,
    // update_every = 2) exercises the BB penalty estimator too.
    let cfg = NewtonAdmmConfig {
        lambda: 1e-3,
        ..Default::default()
    };
    let wall_start = Instant::now();
    let results = Cluster::new(workers, NetworkModel::infiniband_100g()).run(|comm| {
        let shard = &shards[comm.rank()];
        let mut worker = AdmmWorker::new(&cfg, shard);
        // Warm-up: three full iterations populate the device workspace, the
        // rendezvous staging buffers and the comm pool (k = 2 also fires the
        // spectral update so its path is warm).
        for k in 1..=3 {
            worker.outer_iteration(comm, k);
            let h = worker.start_instrumentation(comm, Some(&test));
            let _ = worker.finish_instrumentation(comm, h, k, wall_start);
        }
        worker.reset_workspace_stats();
        comm.reset_comm_pool_stats();
        // With a test set the root also measures accuracy at `z`, as every
        // run given one does.
        let (allocs, record) = count_allocations(|| {
            worker.outer_iteration(comm, 4);
            let h = worker.start_instrumentation(comm, Some(&test));
            worker.finish_instrumentation(comm, h, 4, wall_start)
        });
        assert!(record.objective.is_finite());
        assert!(record.test_accuracy.is_some_and(|acc| (0.0..=1.0).contains(&acc)));
        (comm.rank(), allocs, worker.workspace_stats(), comm.comm_pool_stats())
    });
    for (rank, allocs, device_pool, comm_pool) in results {
        assert_eq!(
            allocs, 0,
            "rank {rank}: warm distributed outer iteration made {allocs} heap allocations"
        );
        assert_eq!(
            device_pool.pool_misses, 0,
            "rank {rank}: device workspace missed the pool: {device_pool:?}"
        );
        assert!(device_pool.pool_hits > 0, "rank {rank}: the solve must draw from the pool");
        assert_eq!(
            comm_pool.pool_misses, 0,
            "rank {rank}: comm workspace missed the pool: {comm_pool:?}"
        );
        assert_eq!(comm_pool.outstanding, 0, "rank {rank}: leaked collective handles");
    }
}

#[test]
fn warm_in_place_allreduce_is_allocation_free() {
    let _knobs = pool_knobs();
    // The blocking in-place allreduce is the collective GIANT and SGD run
    // every step; the ADMM proof above reaches only reduce, broadcast and
    // the split-phase round. Warm, it allocates nothing on any rank, at
    // full width and with f16 on the wire.
    for compression in [Compression::None, Compression::F16] {
        let results = Cluster::new(4, NetworkModel::ethernet_10g())
            .with_compression(compression)
            .run(|comm| {
                let mut buf: Vec<f64> = (0..8192).map(|i| (i as f64 * 0.01).sin()).collect();
                comm.allreduce_sum_into(&mut buf); // warm-up fills the staging buffers
                comm.reset_comm_pool_stats();
                let (allocs, _) = count_allocations(|| {
                    for _ in 0..4 {
                        comm.allreduce_sum_into(&mut buf);
                    }
                });
                assert!(buf.iter().all(|v| v.is_finite()));
                (comm.rank(), allocs, comm.comm_pool_stats())
            });
        for (rank, allocs, pool) in results {
            assert_eq!(
                allocs,
                0,
                "rank {rank}: warm {} allreduce_sum_into made {allocs} heap allocations",
                compression.name()
            );
            assert_eq!(pool.pool_misses, 0, "rank {rank}: comm workspace missed the pool: {pool:?}");
            assert_eq!(pool.outstanding, 0, "rank {rank}: leaked collective buffers");
        }
    }
}

#[test]
fn warm_baseline_iteration_record_is_allocation_free() {
    let _knobs = pool_knobs();
    // GIANT, DANE/AIDE, DiSCO and SyncSgd record every iteration through
    // `record_iteration`: the objective allreduce and the root's
    // test-accuracy pass. Warm, a record allocates nothing on any rank.
    let (train, test) = SyntheticConfig::mnist_like()
        .with_train_size(128)
        .with_test_size(16)
        .with_num_features(20)
        .with_num_classes(4)
        .generate(13);
    let (shards, _) = partition_strong(&train, 2);
    let wall_start = Instant::now();
    let results = Cluster::new(2, NetworkModel::infiniband_100g()).run(|comm| {
        let device = Device::default();
        let local = local_objective_on(&shards[comm.rank()], 1e-3, 2, &device);
        let mut engine = EngineSync::new(&device);
        let mut ws = Workspace::new();
        let w = vec![0.01; local.dim()];
        let mut history = RunHistory::new("test", "d", 2);
        history.records.reserve(2);
        record_iteration(
            comm,
            &local,
            &mut engine,
            &mut ws,
            Some(&test),
            &w,
            0,
            wall_start,
            &mut history,
        );
        ws.reset_stats();
        let (allocs, ()) = count_allocations(|| {
            record_iteration(
                comm,
                &local,
                &mut engine,
                &mut ws,
                Some(&test),
                &w,
                1,
                wall_start,
                &mut history,
            )
        });
        assert!(history.records[1].test_accuracy.is_some());
        (comm.rank(), allocs, ws.stats())
    });
    for (rank, allocs, pool) in results {
        assert_eq!(
            allocs, 0,
            "rank {rank}: a warm iteration record made {allocs} heap allocations"
        );
        assert_eq!(
            pool.pool_misses, 0,
            "rank {rank}: the record missed its workspace pool: {pool:?}"
        );
    }
}

#[test]
fn traced_warm_admm_outer_iteration_is_allocation_free() {
    let _knobs = pool_knobs();
    // Arming the span tracer must not break the zero-alloc contract. Same
    // warm distributed outer iteration as above, but with a per-rank
    // recorder installed. The ring capacity is deliberately tiny so warm-up
    // wraps it and the measured iteration runs entirely on the drop-oldest
    // path — the steady state of a long run.
    //
    // `set_enabled` is process-global, but span calls on threads without a
    // recorder are no-ops, so concurrently running tests stay unaffected.
    let workers = 2;
    let (train, _) = SyntheticConfig::mnist_like()
        .with_train_size(96)
        .with_test_size(16)
        .with_num_features(16)
        .with_num_classes(4)
        .generate(17);
    let (shards, _) = partition_strong(&train, workers);
    let cfg = NewtonAdmmConfig {
        lambda: 1e-3,
        ..Default::default()
    };
    nadmm_trace::set_enabled(true);
    let results = Cluster::new(workers, NetworkModel::infiniband_100g()).run(|comm| {
        nadmm_trace::install_with_capacity(comm.rank(), 256);
        let shard = &shards[comm.rank()];
        let mut worker = AdmmWorker::new(&cfg, shard);
        for k in 1..=3 {
            worker.outer_iteration(comm, k);
        }
        let (allocs, _) = count_allocations(|| {
            worker.outer_iteration(comm, 4);
            worker.rho()
        });
        let trace = nadmm_trace::uninstall().expect("each rank installed a recorder");
        (comm.rank(), allocs, trace)
    });
    nadmm_trace::set_enabled(false);
    for (rank, allocs, trace) in results {
        assert_eq!(
            allocs, 0,
            "rank {rank}: traced warm outer iteration made {allocs} heap allocations"
        );
        assert!(
            trace.dropped > 0,
            "rank {rank}: the tiny ring must wrap during warm-up (got {} events, 0 dropped)",
            trace.events.len()
        );
        assert!(!trace.events.is_empty(), "rank {rank}: the ring kept no events");
    }
}

#[test]
fn warm_batched_predict_performs_zero_heap_allocations() {
    let _knobs = pool_knobs();
    // The serving engine's contract: its hot path — a warm
    // `predict_batch_into` call (batched GEMM margins + argmax decode) and
    // the top-k/softmax variant — makes zero heap allocations once the
    // session's pool has seen the batch size.
    let (features, classes, batch) = (24usize, 10usize, 32usize);
    let artifact = ModelArtifact::new(
        features,
        classes,
        (0..classes).map(|c| format!("class-{c}")).collect(),
        (0..(classes - 1) * features).map(|i| ((i as f64) * 0.37).sin()).collect(),
        Provenance::default(),
    )
    .unwrap();
    let mut session = InferenceSession::new(&artifact, DeviceSpec::tesla_p100()).unwrap();
    let rows: Vec<f64> = (0..batch * features).map(|i| ((i as f64) * 0.13).cos()).collect();
    let mut preds = vec![0usize; batch];
    let k = 3usize;
    let mut topk_classes = vec![0usize; batch * k];
    let mut topk_probs = vec![0.0f64; batch * k];

    // Warm-up: one call of each shape populates the pool.
    session.predict_batch_into(&rows, &mut preds);
    session.predict_topk_into(&rows, k, &mut topk_classes, &mut topk_probs);
    session.reset_workspace_stats();

    let (argmax_allocs, timing) = count_allocations(|| session.predict_batch_into(&rows, &mut preds));
    assert_eq!(timing.batch, batch);
    assert!(timing.sim_seconds > 0.0, "the device model must bill the batch");
    assert_eq!(
        argmax_allocs, 0,
        "warm predict_batch_into made {argmax_allocs} heap allocations (expected zero)"
    );

    let (topk_allocs, _) = count_allocations(|| session.predict_topk_into(&rows, k, &mut topk_classes, &mut topk_probs));
    assert_eq!(
        topk_allocs, 0,
        "warm predict_topk_into made {topk_allocs} heap allocations (expected zero)"
    );

    let pool = session.workspace_stats();
    assert_eq!(pool.pool_misses, 0, "warm predict missed the pool: {pool:?}");
    assert!(pool.pool_hits > 0, "predict must actually draw from the pool");
    assert_eq!(pool.outstanding, 0, "every pooled buffer must be returned");
}

#[test]
fn warm_csr_predict_matrix_performs_zero_heap_allocations() {
    let _knobs = pool_knobs();
    // The bulk-evaluation path on CSR features at the `e18_sparse_2r`
    // workload's density and class count, scaled down: the sparse kernel's
    // class-interleaved copy of the weights must come from the session's
    // pool, not from a fresh allocation per call.
    let (_, test) = SyntheticConfig::e18_like()
        .with_train_size(64)
        .with_test_size(48)
        .with_num_features(400)
        .generate(7);
    assert!(test.is_sparse());
    let (features, classes) = (test.num_features(), test.num_classes());
    let artifact = ModelArtifact::new(
        features,
        classes,
        (0..classes).map(|c| format!("class-{c}")).collect(),
        (0..(classes - 1) * features).map(|i| ((i as f64) * 0.37).sin()).collect(),
        Provenance::default(),
    )
    .unwrap();
    let mut session = InferenceSession::new(&artifact, DeviceSpec::tesla_p100()).unwrap();
    let mut preds = vec![0usize; test.num_samples()];
    session.predict_matrix_into(test.features(), &mut preds);
    session.reset_workspace_stats();

    let (allocs, timing) = count_allocations(|| session.predict_matrix_into(test.features(), &mut preds));
    assert_eq!(timing.batch, test.num_samples());
    assert_eq!(
        allocs, 0,
        "warm CSR predict_matrix_into made {allocs} heap allocations (expected zero)"
    );
    let pool = session.workspace_stats();
    assert_eq!(pool.pool_misses, 0, "warm CSR predict missed the pool: {pool:?}");
    assert_eq!(pool.outstanding, 0, "every pooled buffer must be returned");
}

#[test]
fn workspace_pool_hits_after_warmup_in_minimize() {
    let _knobs = pool_knobs();
    let (obj, x0) = problem();
    let solver = NewtonCg::new(NewtonConfig {
        max_iters: 3,
        ..Default::default()
    });
    let mut ws = Workspace::new();
    let first = solver.minimize_ws(&obj, &x0, &mut ws);
    ws.reset_stats();
    let second = solver.minimize_ws(&obj, &x0, &mut ws);
    assert_eq!(first.value, second.value, "repeated runs must be deterministic");
    assert_eq!(
        ws.stats().pool_misses,
        0,
        "second minimize run must be served entirely from the pool"
    );
}

#[test]
fn forced_thread_pool_dispatch_performs_zero_heap_allocations() {
    let _knobs = pool_knobs();
    // The work-sharing pool's dispatch path must be allocation-free: the job
    // is published as a raw fat pointer in a pre-existing slot (no boxing),
    // chunk indices come from an atomic counter, and `det::fold` keeps its
    // partials in a stack-allocated slot array. Force every kernel through
    // the pool (`par_threshold = 0`) at an oversubscribed width and assert
    // the dispatcher thread allocates nothing. The allocation counter is
    // per-thread, but the dispatcher *participates* in chunk execution, so
    // this also proves the (shared) chunk closures of the BLAS-1/2/3 warm
    // paths allocate nothing.
    let mut rng = gen::seeded_rng(3);
    let a = nadmm_linalg::gen::gaussian_matrix(64, 48, &mut rng);
    let b = nadmm_linalg::gen::gaussian_matrix(32, 48, &mut rng);
    let x = gen::gaussian_vector(48, &mut rng);
    let mut y = vec![0.0; 64];
    let mut out = nadmm_linalg::DenseMatrix::zeros(64, 32);
    let mut z = gen::gaussian_vector(48, &mut rng);

    rayon::set_num_threads(4);
    nadmm_linalg::set_par_threshold(0);
    // Warm-up dispatch spawns the (lazily created) worker threads.
    let warm = nadmm_linalg::vector::dot(&x, &z);
    a.matvec_into(&x, &mut y).unwrap();
    a.gemm_nt_into(&b, &mut out).unwrap();

    let (allocs, checksum) = count_allocations(|| {
        let mut acc = 0.0;
        for _ in 0..8 {
            acc += nadmm_linalg::vector::dot(&x, &z);
            acc += nadmm_linalg::vector::norm_inf(&z);
            nadmm_linalg::vector::axpy(0.5, &x, &mut z);
            acc += nadmm_linalg::vector::axpy_dot(-0.25, &x, &mut z);
            a.matvec_into(&x, &mut y).unwrap();
            a.gemm_nt_into(&b, &mut out).unwrap();
            acc += y[0] + out.get(0, 0);
        }
        acc
    });
    nadmm_linalg::reset_par_threshold();
    rayon::reset_num_threads();
    assert!(checksum.is_finite() && warm.is_finite());
    assert_eq!(
        allocs, 0,
        "forced-pool warm kernels made {allocs} heap allocations on the dispatcher (expected zero)"
    );
}
