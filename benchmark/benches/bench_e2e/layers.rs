//! The traced run of one workload (`--trace 1`): the per-layer numbers.
//!
//! Layers are measured from outside, by timing calls into their public
//! functions. Three full runs come first — untraced (A), with the program's
//! own `nadmm_trace` on for exact call counts (B), and driven by the
//! benchmark itself through the same public calls the solver makes, with a
//! host-clock span around each (C) — then every layer's functions are called
//! in isolation at the workload's shapes.

use crate::e2e::{self, Repetitions};
use crate::results::{Check, Measured, WorkloadResult};
use crate::serve::{self, Deployed, MixOutcome};
use crate::spans::{self, Span, SpanRecorder};
use crate::train::{self, Prepared};
use crate::workloads::{Wire, Workload};
use crate::{alloc, stats, Options};
use nadmm_baselines::{SyncSgd, SyncSgdConfig};
use nadmm_cluster::{Cluster, ClusterComm, Communicator, Compression, Transport};
use nadmm_data::Dataset;
use nadmm_device::{Device, Workspace};
use nadmm_experiment::{RunReport, SolverSpec};
use nadmm_linalg::{gen, vector, DenseMatrix};
use nadmm_objective::{Objective, ProximalAugmented, SoftmaxCrossEntropy};
use nadmm_serve::{ArrivalSpec, BatchingSpec, InferenceSession, ModelRegistry, ServeSpec};
use nadmm_solver::NewtonCg;
use nadmm_trace::{EventKind, LaneTrace, Tag, TraceProfile};
use newton_admm::{AdmmWorker, NewtonAdmmConfig};
use std::sync::Barrier;
use std::time::Instant;

/// Runs `f` on every rank of `cluster` over the workload's wire, rank `i`
/// holding shard `i`, and returns the results in rank order.
fn on_every_rank<T: Send>(
    w: &Workload,
    cluster: &Cluster,
    shards: &[Dataset],
    f: impl Fn(&mut ClusterComm, &Dataset) -> T + Sync,
) -> Result<Vec<T>, String> {
    match w.wire {
        Wire::Thread => Ok(cluster.run_sharded(shards, f)),
        Wire::Tcp => {
            let mesh = train::connect_mesh(w.ranks)?;
            std::thread::scope(|scope| {
                let handles: Vec<_> = mesh
                    .into_iter()
                    .zip(shards)
                    .map(|(transport, shard)| {
                        let f = &f;
                        scope.spawn(move || f(&mut cluster.connect(Box::new(transport)), shard))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().map_err(|_| "a rank panicked".to_string()))
                    .collect()
            })
        }
    }
}

/// What the bench-driven run produced.
struct Driven {
    wall_s: f64,
    /// Final iterate of rank 0.
    final_w: Vec<f64>,
    spans: Vec<Vec<Span>>,
}

/// Run C: `body` runs on every rank over the workload's wire, under a `run`
/// span of a recorder that shares one epoch with the other ranks, and returns
/// the rank's final iterate.
fn drive(
    w: &Workload,
    prepared: &Prepared,
    span_capacity: usize,
    body: impl Fn(&mut ClusterComm, &Dataset, &mut SpanRecorder) -> Vec<f64> + Sync,
) -> Result<Driven, String> {
    let cluster = train::cluster_spec(w).build();
    let epoch = Instant::now();
    let outputs = on_every_rank(w, &cluster, &prepared.shards, |comm, shard| {
        let mut rec = SpanRecorder::new(epoch, comm.rank(), span_capacity);
        let run = rec.begin("run", 0);
        let iterate = body(comm, shard, &mut rec);
        rec.end(run);
        (iterate, rec.finish())
    })?;
    let wall_s = epoch.elapsed().as_secs_f64();
    let (mut iterates, spans): (Vec<_>, Vec<_>) = outputs.into_iter().unzip();
    Ok(Driven {
        wall_s,
        final_w: iterates.swap_remove(0),
        spans,
    })
}

/// Run C for Newton-ADMM: the loop of `NewtonAdmm::run_distributed`, call
/// for call, with a host-clock span around each public `AdmmWorker` method.
fn drive_admm(w: &Workload, cfg: &NewtonAdmmConfig, prepared: &Prepared) -> Result<Driven, String> {
    let test = Some(&prepared.test);
    drive(w, prepared, 8 * (cfg.max_iters + 2), |comm, shard, rec| {
        let mut worker = rec.time("worker_new", 0, || AdmmWorker::new(cfg, shard));
        let wall_start = Instant::now();
        rec.time("instrumentation", 0, || {
            let h = worker.start_instrumentation(comm, test);
            worker.finish_instrumentation(comm, h, 0, wall_start)
        });
        let mut pending = None;
        for k in 1..=cfg.max_iters {
            let iteration = rec.begin("iteration", k);
            rec.time("local_solve", k, || worker.local_solve(comm));
            if let Some((kp, h)) = pending.take() {
                rec.time("instrumentation", k, || {
                    worker.finish_instrumentation(comm, h, kp, wall_start)
                });
            }
            rec.time("consensus", k, || worker.consensus_update(comm, k));
            let h = rec.time("instrumentation", k, || worker.start_instrumentation(comm, test));
            pending = Some((k, h));
            rec.end(iteration);
        }
        if let Some((kp, h)) = pending.take() {
            rec.time("instrumentation", kp, || {
                worker.finish_instrumentation(comm, h, kp, wall_start)
            });
        }
        worker.z().to_vec()
    })
}

/// Run C for the SGD baseline: `SyncSgd::run_distributed` called directly on
/// each rank's communicator, one span around it (the baseline exposes no
/// finer public seam).
fn drive_sgd(w: &Workload, cfg: &SyncSgdConfig, prepared: &Prepared) -> Result<Driven, String> {
    let test = Some(&prepared.test);
    drive(w, prepared, 4, |comm, shard, rec| {
        rec.time("sgd_run", 0, || SyncSgd::new(*cfg).run_distributed(comm, shard, test))
            .w
    })
}

/// Host seconds ranks spent waiting for the slowest local solve of each
/// iteration, averaged over ranks: a rank that finishes its solve early sits
/// in the consensus reduce until the last one arrives.
fn idle_wait_s(per_rank: &[Vec<Span>]) -> f64 {
    let solves = |spans: &[Span], k: usize| {
        spans
            .iter()
            .find(|s| s.name == "local_solve" && s.iteration == k)
            .map(|s| s.end_ns)
    };
    let iterations = per_rank.iter().flatten().map(|s| s.iteration).max().unwrap_or(0);
    let mut idle_ns = 0.0;
    for k in 1..=iterations {
        let ends: Vec<u64> = per_rank.iter().filter_map(|spans| solves(spans, k)).collect();
        if let Some(&latest) = ends.iter().max() {
            idle_ns += ends.iter().map(|&e| (latest - e) as f64).sum::<f64>() / ends.len() as f64;
        }
    }
    idle_ns * 1e-9
}

/// Exact call counts of run B, from the program's own tracer.
struct Counts {
    launches: u64,
    cg_iters: u64,
    newton_steps: u64,
    /// Kernel launches recorded inside line-search spans.
    linesearch_launches: u64,
    dropped_events: u64,
}

fn tag_count(profile: &TraceProfile, tag: &str) -> u64 {
    profile.merged.iter().find(|t| t.tag == tag).map_or(0, |t| t.count)
}

/// Kernel launches inside line searches, from the raw events. Spans are
/// stored when they close, after their children, so the launches of a span
/// at depth `d` are the `KernelLaunch` events at depth `d + 1` recorded
/// since the previous span closed at depth `d`.
fn linesearch_launches(lanes: &[LaneTrace]) -> u64 {
    let mut total = 0;
    for rank in lanes.iter().flat_map(|lane| &lane.ranks) {
        let mut launches_at = [0u64; nadmm_trace::MAX_DEPTH + 2];
        for event in &rank.events {
            let depth = event.depth as usize;
            match (event.tag, event.kind) {
                (Tag::KernelLaunch, _) => launches_at[depth] += 1,
                (tag, EventKind::Span) => {
                    if tag == Tag::LineSearch {
                        total += launches_at[depth + 1];
                    }
                    launches_at[depth + 1] = 0;
                }
                _ => {}
            }
        }
    }
    total
}

fn counts_of(report: &RunReport, lanes: &[LaneTrace]) -> Result<Counts, String> {
    let profile = report.trace_profile.as_ref().ok_or("the traced run carries no trace profile")?;
    Ok(Counts {
        launches: tag_count(profile, "KernelLaunch"),
        cg_iters: tag_count(profile, "CgIter"),
        newton_steps: tag_count(profile, "NewtonStep"),
        linesearch_launches: linesearch_launches(lanes),
        dropped_events: profile.per_rank.iter().map(|r| r.dropped_events).sum(),
    })
}

/// Median host seconds of one call of `f`, over as many calls as fit into
/// `budget_s` (at least three), after one untimed call.
fn probe(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3 || started.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    stats::median(&samples)
}

/// Numbers of the isolated linalg/device/objective/solver calls at the
/// shape of rank 0's shard.
struct ComputeProbes {
    gemm_nt_gflops: f64,
    gemm_tn_gflops: f64,
    spmm_gflops: f64,
    dot_gbps: f64,
    pool_speedup: f64,
    device_model_ratio: f64,
    value_grad_s: f64,
    hvp_s: f64,
    allocs_per_eval: u64,
    newton_step_s: f64,
    ws_peak_bytes: i64,
    /// Kernel launches of one `value_ws` of the proximal objective — what
    /// one line-search evaluation costs.
    launches_per_value: u64,
}

fn compute_probes(w: &Workload, shard: &Dataset, weights: &[f64], rho: f64, budget_s: f64) -> ComputeProbes {
    let x = shard.features();
    let (n, p, c1) = (x.rows(), x.cols(), shard.num_classes() - 1);
    let wmat = DenseMatrix::from_vec(c1, p, weights.to_vec());
    let mut margins = DenseMatrix::zeros(n, c1);
    let mut weight_space = DenseMatrix::zeros(c1, p);
    let products = 2.0 * x.stored_entries() as f64 * c1 as f64;

    // linalg: the two products of every gradient and Hessian-vector product.
    let nt_s = probe(budget_s, || x.gemm_nt_into(&wmat, &mut margins).expect("shapes agree"));
    let tn_s = probe(budget_s, || {
        x.gemm_tn_from_dense_into(&margins, &mut weight_space).expect("shapes agree")
    });
    let (dense_nt, dense_tn, sparse) = if x.is_sparse() {
        (0.0, 0.0, products / (0.5 * (nt_s + tn_s)) / 1e9)
    } else {
        (products / nt_s / 1e9, products / tn_s / 1e9, 0.0)
    };
    // The same kernel at one and at two pool threads.
    rayon::set_num_threads(1);
    let one = probe(budget_s, || x.gemm_nt_into(&wmat, &mut margins).expect("shapes agree"));
    rayon::set_num_threads(2);
    let two = probe(budget_s, || x.gemm_nt_into(&wmat, &mut margins).expect("shapes agree"));
    rayon::reset_num_threads();
    // Weight-dimension vectors: the CG and penalty working set.
    let dim = weights.len();
    let other: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.37).sin()).collect();
    const DOTS: usize = 256;
    let dots_s = probe(budget_s / 4.0, || {
        for _ in 0..DOTS {
            std::hint::black_box(vector::dot(std::hint::black_box(weights), &other));
        }
    });

    // device: host seconds per billed second of the same product.
    let device = Device::new(admm_config(w).device);
    let billed_before = device.elapsed();
    let mut calls = 0u32;
    let host_s = probe(budget_s, || {
        calls += 1;
        device.gemm_nt_into(x, &wmat, &mut margins);
    });
    let billed_s = (device.elapsed() - billed_before) / f64::from(calls);

    // objective: value + gradient, and one Hessian-vector product with its
    // share of `prepare_hvp` (CG makes about ten products per preparation).
    let local = SoftmaxCrossEntropy::new(shard, 0.0).with_device(device.clone());
    let mut ws = Workspace::new();
    let mut grad = vec![0.0; dim];
    let value_grad_s = probe(budget_s, || {
        std::hint::black_box(local.value_and_gradient_into(weights, &mut grad, &mut ws));
    });
    let (allocs_per_eval, _) = alloc::count_allocations(|| local.value_and_gradient_into(weights, &mut grad, &mut ws));
    let mut hv = vec![0.0; dim];
    let mut state = Some(local.prepare_hvp(weights, &mut ws));
    let prepare_s = probe(budget_s, || {
        local.release_hvp(state.take().expect("a prepared state"), &mut ws);
        state = Some(local.prepare_hvp(weights, &mut ws));
    });
    let prepared_state = state.take().expect("a prepared state");
    let product_s = probe(budget_s, || {
        local.hvp_prepared_into(&prepared_state, &other, &mut hv, &mut ws)
    });
    local.release_hvp(prepared_state, &mut ws);
    let hvp_s = product_s + prepare_s / 10.0;

    // solver: one Newton-CG step on the proximal objective, anchored at the
    // final iterate with a zero dual — the shape of a late outer iteration.
    let newton = NewtonCg::new(admm_config(w).newton_config());
    let aug = ProximalAugmented::new(local, weights.to_vec(), vec![0.0; dim], rho);
    let launched = device.stats().kernels_launched;
    aug.value_ws(weights, &mut ws);
    let launches_per_value = device.stats().kernels_launched - launched;
    let mut iterate = weights.to_vec();
    let heap_before = alloc::thread_net_bytes();
    let mut step_ws = Workspace::new();
    let newton_step_s = probe(budget_s, || {
        iterate.copy_from_slice(weights);
        newton.step_ws(&aug, &mut iterate, &mut step_ws);
    });
    // Everything the steps acquired is back in the pool, which never
    // shrinks: what the pool holds now is the most it ever held.
    let ws_peak_bytes = alloc::thread_net_bytes() - heap_before;
    drop(step_ws);

    ComputeProbes {
        gemm_nt_gflops: dense_nt,
        gemm_tn_gflops: dense_tn,
        spmm_gflops: sparse,
        dot_gbps: (DOTS * 2 * 8 * dim) as f64 / dots_s / 1e9,
        pool_speedup: one / two,
        device_model_ratio: host_s / billed_s,
        value_grad_s,
        hvp_s,
        allocs_per_eval,
        newton_step_s,
        ws_peak_bytes,
        launches_per_value,
    }
}

/// The solver configuration whose Newton/CG/line-search settings the solver
/// probe uses: the workload's own for Newton-ADMM, the defaults otherwise.
fn admm_config(w: &Workload) -> NewtonAdmmConfig {
    match &w.solver {
        SolverSpec::NewtonAdmm(cfg) => *cfg,
        _ => NewtonAdmmConfig::default(),
    }
}

/// Host and modelled microseconds of one weight-dimension allreduce on the
/// workload's wire.
fn allreduce_probe(w: &Workload, cluster: &Cluster, shards: &[Dataset], rounds: usize) -> Result<(f64, f64), String> {
    let dim = w.weight_dim();
    let barrier = Barrier::new(w.ranks);
    let per_rank = on_every_rank(w, cluster, shards, |comm, _| {
        let mut buf = vec![1.0; dim];
        for _ in 0..3 {
            comm.allreduce_sum_into(&mut buf);
        }
        let modelled_before = comm.stats().comm_time;
        barrier.wait();
        let t = Instant::now();
        for _ in 0..rounds {
            comm.allreduce_sum_into(&mut buf);
        }
        let host_s = t.elapsed().as_secs_f64();
        (
            host_s / rounds as f64,
            (comm.stats().comm_time - modelled_before) / rounds as f64,
        )
    })?;
    let host = per_rank.iter().map(|r| r.0).fold(0.0, f64::max);
    Ok((1e6 * host, 1e6 * per_rank[0].1))
}

/// Round trip of an 8-byte frame between two ranks over loopback TCP, and
/// the wall clock of connecting the two-rank mesh.
fn tcp_probe(round_trips: usize) -> Result<(f64, f64), String> {
    let mut connects = Vec::new();
    let mut mesh = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        mesh = train::connect_mesh(2)?;
        connects.push(1e3 * t.elapsed().as_secs_f64());
    }
    let mut ranks = mesh.into_iter();
    let (mut a, mut b) = (ranks.next().expect("rank 0"), ranks.next().expect("rank 1"));
    let frame = [7u8; 8];
    let seconds = std::thread::scope(|scope| {
        let echo = scope.spawn(move || {
            let mut buf = Vec::new();
            for _ in 0..round_trips {
                b.recv_into(0, &mut buf);
                b.send(0, &buf);
            }
        });
        let mut buf = Vec::new();
        let t = Instant::now();
        for _ in 0..round_trips {
            a.send(1, &frame);
            a.recv_into(1, &mut buf);
        }
        let seconds = t.elapsed().as_secs_f64();
        echo.join().map(|()| seconds).map_err(|_| "the echo rank panicked".to_string())
    })?;
    Ok((1e6 * seconds / round_trips as f64, stats::median(&connects)))
}

/// Host microseconds of one local SGD step (sample, gather the minibatch,
/// gradient, scale) — the compute between two allreduces of the baseline.
fn sgd_step_probe(cfg: &SyncSgdConfig, shard: &Dataset, weights: &[f64], budget_s: f64) -> f64 {
    let device = Device::new(cfg.device);
    let n_local = shard.num_samples();
    let batch = cfg.batch_size.min(n_local);
    let mut rng = gen::seeded_rng(cfg.seed);
    let mut ws = Workspace::new();
    let mut g = vec![0.0; weights.len()];
    1e6 * probe(budget_s, || {
        let idx = gen::sample_without_replacement(n_local, batch, &mut rng);
        let mini = shard.select(&idx);
        let objective = SoftmaxCrossEntropy::new(&mini, 0.0).with_device(device.clone());
        objective.gradient_into(weights, &mut g, &mut ws);
        vector::scale(n_local as f64 / batch as f64, &mut g);
    })
}

/// Host milliseconds of `run_serve` over a small closed-loop scenario.
fn serve_sim_probe(deployed: &Deployed, seed: u64) -> Result<f64, String> {
    let session = InferenceSession::new(&deployed.artifact, serve::serving_device()).map_err(|e| e.to_string())?;
    let mut registry = ModelRegistry::new();
    registry.insert("primary", session);
    let spec = ServeSpec {
        name: "bench-e2e".into(),
        arrival: ArrivalSpec::ClosedLoop {
            clients: 8,
            think_time_sec: 0.0,
            requests_per_client: 250,
        },
        batching: BatchingSpec {
            max_batch: 32,
            max_queue_delay_sec: 1e-4,
        },
        device: serve::serving_device(),
        request_seed: seed,
        models: None,
    };
    let t = Instant::now();
    nadmm_serve::run_serve(&spec, &mut registry).map_err(|e| format!("run_serve failed: {e}"))?;
    Ok(1e3 * t.elapsed().as_secs_f64())
}

fn serve_metrics(deployed: &Deployed, calls: &[serve::Call], outcome: &MixOutcome, sim_run_ms: f64) -> Vec<Measured> {
    let all = outcome.latencies_us(calls, None);
    let (_, tail) = stats::tail_percentile(&all);
    let class_median = |class: u8| {
        let v = outcome.latencies_us(calls, Some(class));
        (if v.is_empty() { 0.0 } else { stats::median(&v) }, v.len() as u64)
    };
    let (b1, b1_n) = class_median(0);
    let (b256, b256_n) = class_median(serve::MIX.len() as u8 - 1);
    let busy_s: f64 = outcome.latency_ns.iter().map(|&ns| f64::from(ns) * 1e-9).sum();
    vec![
        Measured::summary("serve.batch_p99_us", tail, outcome.calls),
        Measured::summary("serve.predict_b1_us", b1, b1_n),
        Measured::summary("serve.predict_b256_us", b256, b256_n),
        Measured::summary(
            "serve.allocs_per_batch",
            outcome.allocations as f64 / outcome.calls as f64,
            outcome.calls,
        ),
        Measured::one("serve.artifact_save_ms", deployed.save_ms),
        Measured::one("serve.artifact_load_ms", deployed.load_ms),
        Measured::one("serve.artifact_bytes", deployed.artifact_bytes as f64),
        Measured::summary("serve.model_ratio", busy_s / outcome.sim_s, outcome.calls),
        Measured::one("serve.sim_run_ms", sim_run_ms),
    ]
}

/// Runs `w` traced and reports every per-layer metric.
pub fn run(w: &Workload, opts: &Options) -> Result<WorkloadResult, String> {
    let budget_s = if opts.smoke { 0.01 } else { 0.1 };
    let mut checks = Vec::new();
    let mut prepared = train::prepare(w, opts.seed)?;
    let mesh = prepared.mesh.take();
    let prepared = prepared;
    let shard0 = &prepared.shards[0];

    // Warm-up (on TCP: the thread-transport reference run), then run A.
    let thread_reference = match w.wire {
        Wire::Thread => {
            train::warm_up(w, &prepared)?;
            None
        }
        Wire::Tcp => Some(train::run_thread(&prepared.experiment)?),
    };
    let mut reps = Repetitions::default();
    reps.record(w, train::run_on_wire(w, &prepared.experiment, mesh));
    let wall_a = *reps
        .walls
        .first()
        .ok_or_else(|| format!("the untraced run failed: {:?}", reps.failures))?;

    // Run B: the same experiment with the program's tracer on, always on
    // the thread transport (only `Experiment::run` attaches a trace profile;
    // the counts are the same on every transport by the byte-identity
    // contract). Its wall clock is compared with the untraced thread run.
    nadmm_trace::set_enabled(true);
    let traced = train::run_thread(&prepared.experiment);
    nadmm_trace::set_enabled(false);
    let lanes = nadmm_trace::sink_drain();
    let traced = traced?;
    let counts = counts_of(&traced.report, &lanes)?;
    let untraced_thread_s = thread_reference.as_ref().map_or(wall_a, |run| run.wall_s);
    reps.record(w, Ok(traced));
    let wall_b = *reps
        .walls
        .get(1)
        .ok_or_else(|| format!("the traced run failed: {:?}", reps.failures))?;
    checks.push(match &thread_reference {
        Some(run) => reps.agree_with("tcp iterate equals thread transport", &run.report.final_w),
        None => reps.agree_with("traced run equals untraced run", &reps.reports[0].final_w),
    });
    let report = &reps.reports[0];
    let hit = reps.hits[0];

    // Run C: the benchmark drives the loop itself.
    let driven = match &w.solver {
        SolverSpec::NewtonAdmm(cfg) => drive_admm(w, cfg, &prepared)?,
        SolverSpec::SyncSgd(cfg) => drive_sgd(w, cfg, &prepared)?,
        other => return Err(format!("no bench-driven loop for solver {}", other.name())),
    };
    checks.push(Check {
        name: "bench-driven iterate equals Experiment::run",
        passed: train::same_bits(&driven.final_w, &report.final_w),
        detail: format!(
            "{} weights compared bit for bit; walls: untraced {wall_a:.3} s, nadmm_trace on {wall_b:.3} s, bench-driven {:.3} s",
            report.final_w.len(),
            driven.wall_s
        ),
    });
    let trace_path = opts.out_dir.join(format!("{}.trace.json", w.name));
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let trace_text = serde_json::to_string(&spans::chrome_trace(&driven.spans)).expect("a value tree always serializes");
    std::fs::write(&trace_path, trace_text).map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    let is_admm = matches!(w.solver, SolverSpec::NewtonAdmm(_));
    let phase = |name| spans::blocking_seconds(&driven.spans, "local_solve", name);
    let (local_solve_s, consensus_s, instrumentation_s) = (phase("local_solve"), phase("consensus"), phase("instrumentation"));
    let phase_sum_ratio = (local_solve_s + consensus_s + instrumentation_s) / driven.wall_s;
    if is_admm && !opts.smoke {
        checks.push(Check {
            name: "phases sum to the traced wall clock",
            passed: (0.95..=1.05).contains(&phase_sum_ratio),
            detail: format!("ratio {phase_sum_ratio:.4}, must be within 0.95–1.05"),
        });
    }

    // Every layer in isolation, at the workload's shapes.
    let rho = report.final_rho.unwrap_or(1.0);
    let compute = compute_probes(w, shard0, &report.final_w, rho, budget_s);
    let cluster = train::cluster_spec(w).build();
    let rounds = if opts.smoke { 20 } else { 200 };
    let (allreduce_us, modelled_us) = allreduce_probe(w, &cluster, &prepared.shards, rounds)?;
    let f16 = cluster.clone().with_compression(Compression::F16);
    let (allreduce_f16_us, _) = allreduce_probe(w, &f16, &prepared.shards, rounds / 2)?;
    let (tcp_roundtrip_us, tcp_connect_ms) = tcp_probe(10 * rounds)?;
    let (sgd_steps, sgd_step_us) = match &w.solver {
        SolverSpec::SyncSgd(cfg) => {
            let per_epoch = shard0.num_samples().div_ceil(cfg.batch_size.min(shard0.num_samples()));
            (
                (cfg.epochs * per_epoch) as f64,
                sgd_step_probe(cfg, shard0, &report.final_w, budget_s),
            )
        }
        _ => (0.0, 0.0),
    };
    let t = Instant::now();
    let json = report.to_json().map_err(|e| format!("the report does not serialize: {e}"))?;
    let report_json_ms = 1e3 * t.elapsed().as_secs_f64();

    let linesearch_evals = if compute.launches_per_value > 0 && counts.linesearch_launches % compute.launches_per_value == 0 {
        counts.linesearch_launches / compute.launches_per_value
    } else {
        checks.push(Check {
            name: "line-search launches divide into evaluations",
            passed: false,
            detail: format!(
                "{} launches inside line searches, {} per evaluation",
                counts.linesearch_launches, compute.launches_per_value
            ),
        });
        0
    };
    let steps_per_rank = counts.newton_steps as f64 / w.ranks as f64;
    let explained = if local_solve_s > 0.0 {
        compute.newton_step_s * steps_per_rank / local_solve_s
    } else {
        0.0
    };

    // The serving half on the model run A trained.
    let mut deployed = serve::deploy(w.name, report, &prepared.test, &opts.out_dir)?;
    checks.extend(deployed.checks(report));
    let (calls, outcome) = e2e::serve_mix(w, &mut deployed, opts);
    let sim_run_ms = serve_sim_probe(&deployed, opts.seed)?;

    let stats_a = &report.comm_stats;
    let acquires = report.workspace.acquires.max(1) as f64;
    let mut metrics = vec![
        Measured::one("linalg.gemm_nt_gflops", compute.gemm_nt_gflops),
        Measured::one("linalg.gemm_tn_gflops", compute.gemm_tn_gflops),
        Measured::one("linalg.spmm_gflops", compute.spmm_gflops),
        Measured::one("linalg.dot_gbps", compute.dot_gbps),
        Measured::one("linalg.pool_speedup", compute.pool_speedup),
        Measured::one("device.launches", counts.launches as f64),
        Measured::one("device.sim_compute_s", stats_a.compute_time),
        Measured::one("device.model_ratio", compute.device_model_ratio),
        Measured::one("device.ws_hit_rate", report.workspace.pool_hits as f64 / acquires),
        Measured::one("device.ws_peak_bytes", compute.ws_peak_bytes as f64),
        Measured::one("objective.value_grad_ms", 1e3 * compute.value_grad_s),
        Measured::one("objective.hvp_ms", 1e3 * compute.hvp_s),
        Measured::one("objective.allocs_per_eval", compute.allocs_per_eval as f64),
        Measured::one("solver.newton_step_ms", 1e3 * compute.newton_step_s),
        Measured::one("solver.cg_iters", counts.cg_iters as f64),
        Measured::one("solver.linesearch_evals", linesearch_evals as f64),
        Measured::one("core.local_solve_s", local_solve_s),
        Measured::one("core.consensus_s", consensus_s),
        Measured::one("core.instrumentation_s", instrumentation_s),
        Measured::one("core.phase_sum_ratio", phase_sum_ratio),
        Measured::one("core.local_solve_explained", explained),
        Measured::one("core.iters_to_target", hit.iteration as f64),
        Measured::one("core.final_rho", report.final_rho.unwrap_or(0.0)),
        Measured::one("cluster.collectives", stats_a.collectives as f64),
        Measured::one("cluster.bytes_sent", stats_a.bytes_sent),
        Measured::one("cluster.sim_comm_s", stats_a.comm_time),
        Measured::summary("cluster.allreduce_us", allreduce_us, rounds as u64),
        Measured::summary("cluster.allreduce_f16_us", allreduce_f16_us, rounds as u64 / 2),
        Measured::summary("cluster.tcp_roundtrip_us", tcp_roundtrip_us, 10 * rounds as u64),
        Measured::summary("cluster.tcp_connect_ms", tcp_connect_ms, 3),
        Measured::one(
            "cluster.comm_share",
            stats_a.collectives as f64 * allreduce_us * 1e-6 / wall_a,
        ),
        Measured::one("cluster.idle_wait_share", idle_wait_s(&driven.spans) / driven.wall_s),
        Measured::one(
            "cluster.model_ratio",
            if modelled_us > 0.0 { allreduce_us / modelled_us } else { 0.0 },
        ),
        Measured::one("baselines.sgd_steps", sgd_steps),
        Measured::one("baselines.sgd_step_us", sgd_step_us),
        Measured::one("experiment.overhead_s", wall_a - driven.wall_s),
        Measured::one("experiment.report_json_ms", report_json_ms),
        Measured::one("experiment.report_bytes", json.len() as f64),
        Measured::one("data.generate_s", prepared.generate_s),
        Measured::one("data.partition_s", prepared.partition_s),
        Measured::one("data.train_bytes", prepared.train_bytes as f64),
    ];
    metrics.extend(serve_metrics(&deployed, &calls, &outcome, sim_run_ms));
    metrics.push(Measured::one("trace.overhead_ratio", wall_b / untraced_thread_s));
    metrics.push(Measured::one("trace.dropped_events", counts.dropped_events as f64));

    Ok(WorkloadResult {
        workload: w.name.into(),
        traced: true,
        attempted: reps.attempted + outcome.calls,
        failed: reps.failed() + outcome.failed,
        checks,
        metrics,
        provenance: opts.provenance(w, reps.walls.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, rank: usize, iteration: usize, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            rank,
            iteration,
            parent: None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn idle_wait_is_the_mean_gap_to_the_slowest_solve() {
        let rank0 = vec![
            span("local_solve", 0, 1, 0, 1_000_000_000),
            span("local_solve", 0, 2, 0, 500_000_000),
        ];
        let rank1 = vec![
            span("local_solve", 1, 1, 0, 400_000_000),
            span("local_solve", 1, 2, 0, 900_000_000),
        ];
        // Iteration 1: gaps 0 and 0.6 s → mean 0.3; iteration 2: 0.4 and 0 → 0.2.
        assert!((idle_wait_s(&[rank0.clone(), rank1]) - 0.5).abs() < 1e-12);
        assert_eq!(idle_wait_s(&[rank0]), 0.0);
    }

    #[test]
    fn probe_reports_a_median_of_at_least_three_calls() {
        let mut calls = 0;
        let seconds = probe(0.0, || calls += 1);
        assert_eq!(calls, 4, "one untimed call plus three samples");
        assert!(seconds >= 0.0);
    }
}
