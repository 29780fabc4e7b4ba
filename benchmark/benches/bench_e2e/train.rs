//! The training half of a workload: set-up, full runs on the workload's
//! wire, and the checks that decide whether a repetition failed.

use crate::workloads::{Wire, Workload};
use nadmm_cluster::{reserve_loopback_peers, NetworkModel, TcpTransport};
use nadmm_data::{partition_strong, Dataset};
use nadmm_experiment::{run_spec_on, ClusterSpec, Experiment, RunReport, SolverSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::Instant;

/// Everything set-up produces.
pub struct Prepared {
    /// The experiment a user would build: data, cluster, one solver.
    pub experiment: Experiment,
    pub test: Dataset,
    /// One shard per rank, for the warm-up, the bench-driven loop and the
    /// probes (`Experiment::run` partitions the data again itself). The
    /// end-to-end run drops them after the warm-up.
    pub shards: Vec<Dataset>,
    /// A connected loopback mesh for the first TCP run.
    pub mesh: Option<Vec<TcpTransport>>,
    pub generate_s: f64,
    pub partition_s: f64,
    /// Bytes of the training features as stored (dense or CSR).
    pub train_bytes: usize,
}

/// The cluster every workload runs on: the paper's 100 Gb/s fabric model.
pub fn cluster_spec(w: &Workload) -> ClusterSpec {
    ClusterSpec::new(w.ranks, NetworkModel::infiniband_100g())
}

/// Reserves loopback ports and connects a full mesh, one transport per rank.
pub fn connect_mesh(ranks: usize) -> Result<Vec<TcpTransport>, String> {
    let peers = reserve_loopback_peers(ranks).map_err(|e| format!("cannot reserve loopback ports: {e}"))?;
    let connected: Vec<std::io::Result<TcpTransport>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ranks)
            .map(|rank| {
                let peers = &peers;
                scope.spawn(move || TcpTransport::connect(rank, peers))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("connect thread panicked")))
            })
            .collect()
    });
    connected
        .into_iter()
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("tcp bootstrap failed: {e}"))
}

/// Set-up: generate the data from `seed`, partition it, build the
/// experiment, and connect the transport.
pub fn prepare(w: &Workload, seed: u64) -> Result<Prepared, String> {
    let t = Instant::now();
    let (train, test) = w.data.generate(seed);
    let generate_s = t.elapsed().as_secs_f64();
    let train_bytes = train.features().storage_bytes();

    let t = Instant::now();
    let (shards, _) = partition_strong(&train, w.ranks);
    let partition_s = t.elapsed().as_secs_f64();

    let experiment = Experiment::new()
        .with_data(train, Some(test.clone()))
        .with_cluster(cluster_spec(w))
        .with_solver(w.solver.clone());
    experiment.validate().map_err(|e| format!("invalid experiment: {e}"))?;

    let mesh = match w.wire {
        Wire::Thread => None,
        Wire::Tcp => Some(connect_mesh(w.ranks)?),
    };
    Ok(Prepared {
        experiment,
        test,
        shards,
        mesh,
        generate_s,
        partition_s,
        train_bytes,
    })
}

/// Warm-up for the Newton-ADMM workloads: one outer iteration of the same
/// solver on the same shards. It makes every allocation a full run makes, so
/// the heap is grown and the pool threads exist before anything is timed; a
/// cold first repetition of a 2-rank run is otherwise ~10 % slower. (The SGD
/// workload's warm-up is its thread-transport reference run.)
pub fn warm_up(w: &Workload, prepared: &Prepared) -> Result<(), String> {
    let SolverSpec::NewtonAdmm(cfg) = &w.solver else {
        return Ok(());
    };
    let spec = SolverSpec::NewtonAdmm(cfg.with_max_iters(1));
    let cluster = cluster_spec(w).build();
    catch_unwind(AssertUnwindSafe(|| {
        run_spec_on(&cluster, &spec, &prepared.shards, Some(&prepared.test), None)
    }))
    .map_err(|p| format!("warm-up panicked: {}", panic_message(p)))?
    .map_err(|e| format!("warm-up failed: {e}"))?;
    Ok(())
}

/// One full run and its host wall-clock seconds.
pub struct TimedRun {
    pub report: RunReport,
    pub wall_s: f64,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic without a message".into())
}

/// `Experiment::run` on the in-process thread fabric. A panic inside the
/// run is an error, not a crash of the benchmark.
pub fn run_thread(experiment: &Experiment) -> Result<TimedRun, String> {
    let t = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| experiment.run()));
    let wall_s = t.elapsed().as_secs_f64();
    let mut reports = outcome
        .map_err(|p| format!("run panicked: {}", panic_message(p)))?
        .map_err(|e| format!("run failed: {e}"))?;
    Ok(TimedRun {
        report: reports.swap_remove(0),
        wall_s,
    })
}

/// `Experiment::run_with_transport` with every rank a thread holding one
/// transport of `mesh`. The clock starts when all ranks are at the barrier
/// and stops when the last rank returns.
pub fn run_tcp(experiment: &Experiment, mesh: Vec<TcpTransport>) -> Result<TimedRun, String> {
    let barrier = Barrier::new(mesh.len());
    let outcomes: Vec<Result<(Option<RunReport>, f64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|transport| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let t = Instant::now();
                    let reports = experiment
                        .run_with_transport(Box::new(transport))
                        .map_err(|e| format!("run failed: {e}"))?;
                    Ok((reports.map(|mut r| r.swap_remove(0)), t.elapsed().as_secs_f64()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| Err(format!("rank panicked: {}", panic_message(p)))))
            .collect()
    });
    let mut report = None;
    let mut wall_s = 0.0f64;
    for outcome in outcomes {
        let (rank_report, seconds) = outcome?;
        wall_s = wall_s.max(seconds);
        report = report.or(rank_report);
    }
    Ok(TimedRun {
        report: report.ok_or("rank 0 returned no report")?,
        wall_s,
    })
}

/// One full run on the workload's own wire. TCP runs use `mesh` when given
/// and connect a fresh one otherwise (a transport serves one run).
pub fn run_on_wire(w: &Workload, experiment: &Experiment, mesh: Option<Vec<TcpTransport>>) -> Result<TimedRun, String> {
    match w.wire {
        Wire::Thread => run_thread(experiment),
        Wire::Tcp => {
            let mesh = match mesh {
                Some(m) => m,
                None => connect_mesh(w.ranks)?,
            };
            run_tcp(experiment, mesh)
        }
    }
}

/// Where a run first met the workload's target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetHit {
    pub iteration: usize,
    /// `IterationRecord::wall_time_sec` of that record.
    pub wall_s: f64,
}

/// The first record with `objective <= target_rel * objective[0]`.
pub fn target_hit(report: &RunReport, target_rel: f64) -> Option<TargetHit> {
    let records = &report.history.records;
    let threshold = target_rel * records.first()?.objective;
    records.iter().find(|r| r.objective <= threshold).map(|r| TargetHit {
        iteration: r.iteration,
        wall_s: r.wall_time_sec,
    })
}

/// Whether a repetition counts as failed: schema, target, accuracy floor.
pub fn check_run(w: &Workload, report: &RunReport) -> Result<TargetHit, String> {
    report.validate_schema().map_err(|e| format!("schema: {e}"))?;
    let hit = target_hit(report, w.target_rel).ok_or_else(|| {
        let rel = report.final_objective.unwrap_or(f64::NAN) / report.history.records[0].objective;
        format!("target {:e} never reached (final relative objective {rel:e})", w.target_rel)
    })?;
    let accuracy = report.final_accuracy.ok_or("no test accuracy recorded")?;
    if accuracy < w.accuracy_floor {
        return Err(format!("test accuracy {accuracy} is under the floor {}", w.accuracy_floor));
    }
    Ok(hit)
}

/// Whether two iterates are the same bit for bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use nadmm_cluster::CommStats;
    use nadmm_device::WorkspaceStats;
    use nadmm_metrics::{IterationRecord, RunHistory};

    fn report(objectives: &[f64], accuracy: f64) -> RunReport {
        let mut h = RunHistory::new("newton-admm", "d", 2);
        for (k, &f) in objectives.iter().enumerate() {
            h.push(IterationRecord::new(k, k as f64, 0.5 * k as f64, f).with_accuracy(accuracy));
        }
        RunReport::from_parts(h, CommStats::default(), WorkspaceStats::default(), vec![0.0], None)
    }

    #[test]
    fn the_target_is_the_first_record_at_or_below_the_threshold() {
        let r = report(&[100.0, 10.0, 1.0, 2.0, 0.5], 1.0);
        assert_eq!(
            target_hit(&r, 0.02),
            Some(TargetHit {
                iteration: 2,
                wall_s: 1.0
            })
        );
        assert_eq!(target_hit(&r, 1.0).unwrap().iteration, 0);
        assert_eq!(target_hit(&r, 1e-9), None);
    }

    #[test]
    fn a_run_fails_on_a_missed_target_or_low_accuracy() {
        let mut w = workloads::find("mnist_dense_2r").unwrap();
        w.target_rel = 0.02;
        w.accuracy_floor = 0.9;
        assert_eq!(check_run(&w, &report(&[100.0, 10.0, 1.0], 0.95)).unwrap().iteration, 2);
        assert!(check_run(&w, &report(&[100.0, 10.0, 5.0], 0.95))
            .unwrap_err()
            .contains("never reached"));
        assert!(check_run(&w, &report(&[100.0, 10.0, 1.0], 0.5))
            .unwrap_err()
            .contains("under the floor"));
    }

    #[test]
    fn same_bits_tells_negative_zero_from_zero() {
        assert!(same_bits(&[1.0, -0.0], &[1.0, -0.0]));
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(!same_bits(&[1.0], &[1.0, 2.0]));
    }
}
