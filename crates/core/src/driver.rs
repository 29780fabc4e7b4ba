//! The Newton-ADMM driver (paper Algorithms 2 and 4).
//!
//! The distributed path is built around [`AdmmWorker`], a per-rank state
//! machine whose warm outer iteration — local Newton-CG solve, in-place
//! reduce of `[ρ_i x_i − y_i ‖ ρ_i]`, in-place broadcast of `z`, dual and
//! penalty updates — performs **zero heap allocations** (proven by the
//! counting-allocator test in the bench crate). Instrumentation (global
//! objective, mean penalty, consensus residual, test accuracy) runs as
//! *split-phase* allreduces started at the end of each iteration and waited
//! after the *next* iteration's local solve, so its communication time
//! overlaps with compute and only the non-overlapped tail is billed on the
//! simulated clocks.

use crate::config::NewtonAdmmConfig;
use crate::penalty::{residual_balancing_update, spectral_update, PenaltyRule, SpectralState};
use nadmm_cluster::{CollectiveHandle, CommStats, Communicator, Contribution};
use nadmm_data::Dataset;
use nadmm_device::{Device, Workspace, WorkspaceStats};
use nadmm_linalg::vector;
use nadmm_metrics::{IterationRecord, RunHistory};
use nadmm_objective::{Objective, ProximalAugmented, SoftmaxCrossEntropy};
use nadmm_solver::NewtonCg;
use std::time::Instant;

/// Output of a Newton-ADMM run (per rank; the consensus iterate and history
/// are identical on every rank).
#[derive(Debug, Clone)]
pub struct NewtonAdmmOutput {
    /// Final consensus iterate `z`.
    pub z: Vec<f64>,
    /// Per-iteration history (objective, accuracy, simulated time, …).
    pub history: RunHistory,
    /// Communication counters of this rank.
    pub comm_stats: CommStats,
    /// Final penalty parameter of this rank.
    pub final_rho: f64,
    /// Final local iterate `x_i` of this rank.
    pub local_x: Vec<f64>,
    /// Device-workspace pool counters of this rank (zero-allocation proof
    /// material: a warm run shows `pool_misses == 0`).
    pub workspace: WorkspaceStats,
    /// Number of Newton steps this rank *shed* to meet the bounded-staleness
    /// deadline (0 when the mode is off or the rank always finished in
    /// time).
    pub shed_newton_steps: u64,
}

/// In-flight split-phase instrumentation of one outer iteration: a single
/// mixed allreduce of `[local loss, ρ_i, root-only accuracy | ‖x_i − z‖]`
/// (sum over the first three, max over the residual).
#[derive(Debug)]
pub struct InstrumentationHandles {
    handle: CollectiveHandle,
    has_accuracy: bool,
}

/// Per-rank state of the distributed Newton-ADMM solver.
///
/// All iteration-to-iteration buffers (`x`, `y`, `z`, `ŷ`, the reduce
/// payload) are allocated once at construction and updated in place; the
/// collectives go through the communicator's in-place/split-phase API. One
/// warm call of [`AdmmWorker::outer_iteration`] followed by
/// [`AdmmWorker::start_instrumentation`]/[`AdmmWorker::finish_instrumentation`]
/// allocates nothing.
pub struct AdmmWorker {
    cfg: NewtonAdmmConfig,
    device: Device,
    ws: Workspace,
    aug: ProximalAugmented<SoftmaxCrossEntropy>,
    newton: NewtonCg,
    dim: usize,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    yhat: Vec<f64>,
    /// Reduce payload `[ρ x − y ‖ ρ]` (dim + 1 elements).
    payload: Vec<f64>,
    rho: f64,
    spectral: SpectralState,
    /// Whether this rank has been killed by the dropout fault injection.
    dead: bool,
    /// Newton steps shed to meet the bounded-staleness deadline.
    shed_newton_steps: u64,
}

impl AdmmWorker {
    /// Builds the per-rank state for one shard. The execution engine
    /// ([`Device`]) bills every kernel the local objective launches; the
    /// accrued time is charged to the communicator per local solve.
    pub fn new(config: &NewtonAdmmConfig, shard: &Dataset) -> Self {
        let device = Device::new(config.device);
        // The global regulariser g(z) = λ‖z‖²/2 is handled in the z-update
        // (Eq. 7), so the local objectives carry no regularisation.
        let local = SoftmaxCrossEntropy::new(shard, 0.0).with_device(device.clone());
        let dim = local.dim();
        let z = vec![0.0; dim];
        let y = vec![0.0; dim];
        // The augmented objective owns the one copy of the shard's objective
        // (instrumentation reads it through `aug.base()`); each outer
        // iteration only re-anchors it in place (no reallocation).
        let aug = ProximalAugmented::new(local, z.clone(), y.clone(), config.rho0);
        Self {
            cfg: *config,
            device,
            ws: Workspace::new(),
            aug,
            newton: NewtonCg::new(config.newton_config()),
            dim,
            x: vec![0.0; dim],
            y,
            z,
            yhat: vec![0.0; dim],
            payload: vec![0.0; dim + 1],
            rho: config.rho0,
            spectral: SpectralState::new(dim),
            dead: false,
            shed_newton_steps: 0,
        }
    }

    /// The consensus iterate `z`.
    pub fn z(&self) -> &[f64] {
        &self.z
    }

    /// This rank's local iterate `x_i`.
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// This rank's current penalty ρ_i.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Whether this rank has been killed by the dropout fault injection.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Kills (or revives) this rank; dead ranks contribute zero weight to
    /// every consensus round. Driven by [`NewtonAdmmConfig::dropout`].
    pub fn set_dead(&mut self, dead: bool) {
        self.dead = dead;
    }

    /// Newton steps shed so far to meet the bounded-staleness deadline.
    pub fn shed_newton_steps(&self) -> u64 {
        self.shed_newton_steps
    }

    /// Pool counters of the device workspace (for the zero-allocation
    /// proofs).
    pub fn workspace_stats(&self) -> nadmm_device::WorkspaceStats {
        self.ws.stats()
    }

    /// Resets the device-workspace counters.
    pub fn reset_workspace_stats(&mut self) {
        self.ws.reset_stats();
    }

    /// Step 1 of the outer iteration: a few inexact Newton-CG steps on the
    /// ADMM-augmented local objective (Eq. 6a / Algorithm 1). The simulated
    /// time of the actual kernel launches (GEMMs, softmax rows, HVPs,
    /// line-search values) is billed to this rank's clock.
    ///
    /// With [`NewtonAdmmConfig::staleness_deadline_sec`] set, each rank
    /// stops after the Newton step that crosses the deadline on its own
    /// simulated clock (which includes any straggler slowdown): a slow rank
    /// sheds steps instead of stalling the fleet, joining the consensus
    /// round with a less-exact — *staler* — local iterate. At least one step
    /// always runs, so a rank's contribution is never more than one
    /// consensus round stale. A dead rank does nothing.
    pub fn local_solve(&mut self, comm: &mut dyn Communicator) {
        if self.dead {
            return;
        }
        self.aug.set_anchor(&self.z, &self.y, self.rho);
        match self.cfg.staleness_deadline_sec {
            None => {
                // Synchronous mode: one compute charge for the whole solve
                // (kept exactly as-is so the disabled path is bit-identical).
                let compute_start = self.device.elapsed();
                for _ in 0..self.cfg.newton_steps_per_iter {
                    self.newton.step_ws(&self.aug, &mut self.x, &mut self.ws);
                }
                comm.advance_compute(self.device.elapsed() - compute_start);
            }
            Some(deadline) => {
                let iter_start = comm.elapsed();
                let mut mark = self.device.elapsed();
                for step in 0..self.cfg.newton_steps_per_iter {
                    self.newton.step_ws(&self.aug, &mut self.x, &mut self.ws);
                    let now = self.device.elapsed();
                    // Charged per step so the deadline sees the rank's
                    // *scaled* clock (straggler slowdowns included).
                    comm.advance_compute(now - mark);
                    mark = now;
                    if comm.elapsed() - iter_start >= deadline {
                        self.shed_newton_steps += (self.cfg.newton_steps_per_iter - step - 1) as u64;
                        nadmm_trace::instant(nadmm_trace::Tag::ShedSteps);
                        break;
                    }
                }
            }
        }
    }

    /// Steps 2–3 of outer iteration `k`: one round of communication
    /// (Remark 1) — an in-place reduce of `[ρ_i x_i − y_i ‖ ρ_i]` to the
    /// master and an in-place broadcast of the new consensus iterate back —
    /// followed by the local dual update (Eq. 6c) and penalty adaptation.
    pub fn consensus_update(&mut self, comm: &mut dyn Communicator, k: usize) {
        let dim = self.dim;
        if self.dead {
            // A dead rank contributes zero weight: its `ρ_i x_i − y_i` and
            // `ρ_i` terms vanish from the reduce, so the z-update's average
            // is re-weighted over the surviving ranks automatically. The
            // contribution is a tombstone — an op-tagged empty frame billed
            // exactly like an explicit zero payload, skipping the staging
            // and fold work — and the dead rank's `z` keeps tracking the
            // survivors' consensus through the broadcast.
            comm.reduce_sum_root_into(Contribution::Tombstone(self.payload.len()));
            comm.broadcast_root_into(&mut self.z);
            return;
        }
        // Intermediate dual ŷ_i (uses the *old* consensus iterate) — needed
        // by the spectral penalty estimator.
        for i in 0..dim {
            self.yhat[i] = self.y[i] + self.rho * (self.z[i] - self.x[i]);
            self.payload[i] = self.rho * self.x[i] - self.y[i];
        }
        self.payload[dim] = self.rho;
        if comm.reduce_sum_root_into(Contribution::Data(&mut self.payload)) {
            let sum_rho = self.payload[dim];
            for i in 0..dim {
                self.z[i] = self.payload[i] / (self.cfg.lambda + sum_rho);
            }
        }
        comm.broadcast_root_into(&mut self.z);

        for i in 0..dim {
            self.y[i] += self.rho * (self.z[i] - self.x[i]);
        }
        nadmm_trace::span_begin(nadmm_trace::Tag::PenaltyUpdate);
        self.rho = match self.cfg.penalty {
            PenaltyRule::Fixed => self.rho,
            PenaltyRule::ResidualBalancing { mu, tau } => {
                let primal = vector::distance(&self.x, &self.z);
                // Dual residual of consensus ADMM, approximated by the
                // standard ρ·‖z^{k+1} − z^k‖ pair against the stored
                // snapshot.
                let dual = self.rho * vector::distance(&self.z, &self.spectral.z0);
                self.spectral.z0.copy_from_slice(&self.z);
                residual_balancing_update(self.rho, primal, dual, mu, tau)
            }
            PenaltyRule::Spectral(spec_cfg) => spectral_update(
                &spec_cfg,
                &mut self.spectral,
                k,
                self.rho,
                &self.x,
                &self.yhat,
                &self.z,
                &self.y,
            ),
        };
        nadmm_trace::span_end(nadmm_trace::Tag::PenaltyUpdate);
    }

    /// One full outer iteration (local solve + consensus round), without
    /// instrumentation. Zero heap allocations once warm.
    pub fn outer_iteration(&mut self, comm: &mut dyn Communicator, k: usize) {
        self.local_solve(comm);
        self.consensus_update(comm, k);
    }

    /// Starts the split-phase instrumentation allreduce for the current
    /// iterate: one mixed collective carrying the global objective, mean
    /// penalty and root-evaluated accuracy (sum) plus the consensus residual
    /// (max). The local evaluations are instrumentation and not billed as
    /// solver compute.
    pub fn start_instrumentation(&mut self, comm: &mut dyn Communicator, test: Option<&Dataset>) -> InstrumentationHandles {
        let has_accuracy = self.cfg.record_accuracy && test.is_some();
        if self.dead {
            // A dead rank's shard has left the problem: it contributes zero
            // loss, penalty, and residual (as a tombstone frame, billed like
            // the explicit zeros it stands for), so the recorded objective
            // is the survivors' objective (plus regulariser) and `mean_rho`
            // averages dead ranks as 0.
            let handle = comm.start_allreduce_sum_max(Contribution::Tombstone(4), 3);
            return InstrumentationHandles { handle, has_accuracy };
        }
        let loss = self.aug.base().value_ws(&self.z, &mut self.ws);
        // Only the root contributes a non-zero accuracy, so the *sum* equals
        // the root's measurement — no extra collective needed.
        let acc = match test {
            Some(t) if self.cfg.record_accuracy && comm.is_root() => self.aug.base().accuracy(t, &self.z),
            _ => 0.0,
        };
        let residual = vector::distance(&self.x, &self.z);
        let handle = comm.start_allreduce_sum_max(Contribution::Data(&[loss, self.rho, acc, residual]), 3);
        InstrumentationHandles { handle, has_accuracy }
    }

    /// Completes the instrumentation allreduces and assembles the iteration
    /// record. The record's simulated time is the cluster-wide completion
    /// time of the collectives — independent of how much of the *next*
    /// iteration's solve this rank overlapped with them.
    pub fn finish_instrumentation(
        &mut self,
        comm: &mut dyn Communicator,
        handles: InstrumentationHandles,
        iteration: usize,
        wall_start: Instant,
    ) -> IterationRecord {
        let sim_time = handles.handle.complete_at();
        let mut reduced = [0.0; 4];
        comm.wait_into(handles.handle, &mut reduced);
        let objective = reduced[0] + 0.5 * self.cfg.lambda * vector::norm2_sq(&self.z);
        let mut record = IterationRecord::new(iteration, sim_time, wall_start.elapsed().as_secs_f64(), objective)
            .with_mean_rho(reduced[1] / comm.size() as f64)
            .with_comm_bytes(comm.stats().bytes_sent)
            .with_consensus_residual(reduced[3]);
        if handles.has_accuracy {
            record = record.with_accuracy(reduced[2]);
        }
        record
    }
}

/// The distributed Newton-ADMM solver.
#[derive(Debug, Clone, Default)]
pub struct NewtonAdmm {
    config: NewtonAdmmConfig,
}

impl NewtonAdmm {
    /// Creates a solver with the given configuration.
    pub fn new(config: NewtonAdmmConfig) -> Self {
        Self { config }
    }

    /// The solver configuration.
    pub fn config(&self) -> &NewtonAdmmConfig {
        &self.config
    }

    /// Runs Newton-ADMM inside one rank of a communicator. Every rank of the
    /// communicator must call this with its own data shard; the returned
    /// consensus iterate and history are identical across ranks.
    ///
    /// `test` is optional and only used for instrumentation (test accuracy
    /// per iteration); it is evaluated on the root rank and its measurement
    /// reaches every rank's history through the instrumentation allreduce.
    ///
    /// Iteration `k`'s instrumentation allreduces overlap with iteration
    /// `k+1`'s local Newton solve, except when `consensus_tol > 0` forces a
    /// blocking wait (early stopping needs the residual before deciding to
    /// continue).
    pub fn run_distributed(&self, comm: &mut dyn Communicator, shard: &Dataset, test: Option<&Dataset>) -> NewtonAdmmOutput {
        let cfg = &self.config;
        let mut worker = AdmmWorker::new(cfg, shard);
        let wall_start = Instant::now();
        let mut history = RunHistory::new("newton-admm", shard.name(), comm.size());

        let h0 = worker.start_instrumentation(comm, test);
        let r0 = worker.finish_instrumentation(comm, h0, 0, wall_start);
        history.push(r0);

        let mut pending: Option<(usize, InstrumentationHandles)> = None;
        for k in 1..=cfg.max_iters {
            nadmm_trace::span_begin(nadmm_trace::Tag::AdmmIteration);
            if let Some(dropout) = cfg.dropout {
                if comm.rank() == dropout.rank && k >= dropout.at_iter {
                    worker.set_dead(true);
                }
            }
            worker.local_solve(comm);
            // The previous iteration's instrumentation has been in flight
            // during the solve above; settle it now.
            if let Some((kp, h)) = pending.take() {
                let record = worker.finish_instrumentation(comm, h, kp, wall_start);
                history.push(record);
            }
            worker.consensus_update(comm, k);
            let handles = worker.start_instrumentation(comm, test);
            if cfg.consensus_tol > 0.0 {
                // Early stopping consumes the residual immediately — no
                // overlap on this configuration.
                let record = worker.finish_instrumentation(comm, handles, k, wall_start);
                let residual = record.consensus_residual.unwrap_or(f64::INFINITY);
                history.push(record);
                if residual < cfg.consensus_tol {
                    nadmm_trace::span_end(nadmm_trace::Tag::AdmmIteration);
                    break;
                }
            } else {
                pending = Some((k, handles));
            }
            nadmm_trace::span_end(nadmm_trace::Tag::AdmmIteration);
        }
        if let Some((kp, h)) = pending.take() {
            let record = worker.finish_instrumentation(comm, h, kp, wall_start);
            history.push(record);
        }

        NewtonAdmmOutput {
            z: worker.z.clone(),
            history,
            comm_stats: comm.stats(),
            final_rho: worker.rho,
            workspace: worker.workspace_stats(),
            shed_newton_steps: worker.shed_newton_steps,
            local_x: worker.x,
        }
    }

    /// Sequential single-process reference implementation of Algorithm 2,
    /// mathematically identical to the distributed path but with no
    /// communicator and no simulated timing (sim time = iteration index).
    /// Used by the tests to validate the distributed execution. The
    /// heterogeneity knobs (`staleness_deadline_sec`, `dropout`) are
    /// time/fault behaviours of the distributed path and are ignored here.
    pub fn run_reference(&self, shards: &[Dataset], test: Option<&Dataset>) -> NewtonAdmmOutput {
        assert!(!shards.is_empty(), "need at least one shard");
        let cfg = &self.config;
        let dim = shards[0].weight_dim();
        let n = shards.len();
        let newton = NewtonCg::new(cfg.newton_config());

        let mut xs = vec![vec![0.0; dim]; n];
        let mut ys = vec![vec![0.0; dim]; n];
        let mut z = vec![0.0; dim];
        let mut rhos = vec![cfg.rho0; n];
        let mut states: Vec<SpectralState> = (0..n).map(|_| SpectralState::new(dim)).collect();
        let mut workspaces: Vec<Workspace> = (0..n).map(|_| Workspace::new()).collect();
        let mut yhats = vec![vec![0.0; dim]; n];
        // One augmented wrapper per worker, re-anchored in place each outer
        // iteration (rebuilding the shard-holding objective every iteration
        // would dominate the hot loop).
        let mut augs: Vec<ProximalAugmented<SoftmaxCrossEntropy>> = shards
            .iter()
            .map(|s| ProximalAugmented::new(SoftmaxCrossEntropy::new(s, 0.0), z.clone(), z.clone(), cfg.rho0))
            .collect();

        let wall_start = Instant::now();
        let mut history = RunHistory::new("newton-admm-reference", shards[0].name(), n);
        let objective = |z: &[f64], augs: &[ProximalAugmented<SoftmaxCrossEntropy>]| -> f64 {
            augs.iter().map(|a| a.base().value(z)).sum::<f64>() + 0.5 * cfg.lambda * vector::norm2_sq(z)
        };
        let mut record = IterationRecord::new(0, 0.0, wall_start.elapsed().as_secs_f64(), objective(&z, &augs));
        if let Some(t) = test {
            record = record.with_accuracy(augs[0].base().accuracy(t, &z));
        }
        history.push(record);

        for k in 1..=cfg.max_iters {
            let mut numerator = vec![0.0; dim];
            let mut sum_rho = 0.0;
            for w in 0..n {
                augs[w].set_anchor(&z, &ys[w], rhos[w]);
                for _ in 0..cfg.newton_steps_per_iter {
                    newton.step_ws(&augs[w], &mut xs[w], &mut workspaces[w]);
                }
                for i in 0..dim {
                    yhats[w][i] = ys[w][i] + rhos[w] * (z[i] - xs[w][i]);
                    numerator[i] += rhos[w] * xs[w][i] - ys[w][i];
                }
                sum_rho += rhos[w];
            }
            for zi in numerator.iter_mut() {
                *zi /= cfg.lambda + sum_rho;
            }
            z = numerator;
            for w in 0..n {
                for i in 0..dim {
                    ys[w][i] += rhos[w] * (z[i] - xs[w][i]);
                }
                rhos[w] = match cfg.penalty {
                    PenaltyRule::Fixed => rhos[w],
                    PenaltyRule::ResidualBalancing { mu, tau } => {
                        let primal = vector::distance(&xs[w], &z);
                        let dual = rhos[w] * vector::distance(&z, &states[w].z0);
                        states[w].z0.copy_from_slice(&z);
                        residual_balancing_update(rhos[w], primal, dual, mu, tau)
                    }
                    PenaltyRule::Spectral(spec_cfg) => {
                        spectral_update(&spec_cfg, &mut states[w], k, rhos[w], &xs[w], &yhats[w], &z, &ys[w])
                    }
                };
            }
            let mut record = IterationRecord::new(k, k as f64, wall_start.elapsed().as_secs_f64(), objective(&z, &augs))
                .with_mean_rho(rhos.iter().sum::<f64>() / n as f64)
                .with_consensus_residual(xs.iter().map(|x| vector::distance(x, &z)).fold(0.0, f64::max));
            if let Some(t) = test {
                record = record.with_accuracy(augs[0].base().accuracy(t, &z));
            }
            history.push(record);
        }

        NewtonAdmmOutput {
            z,
            history,
            comm_stats: CommStats::default(),
            final_rho: rhos.iter().sum::<f64>() / n as f64,
            workspace: workspaces[0].stats(),
            shed_newton_steps: 0,
            local_x: xs.swap_remove(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::penalty::SpectralConfig;
    use nadmm_cluster::{Cluster, NetworkModel};
    use nadmm_data::{partition_strong, SyntheticConfig};
    use nadmm_solver::{CgConfig, NewtonConfig};

    /// Runs `cfg` on one rank per shard and keeps rank 0's output.
    fn run_on(cluster: &Cluster, cfg: NewtonAdmmConfig, shards: &[Dataset], test: Option<&Dataset>) -> NewtonAdmmOutput {
        let mut outputs = cluster.run_sharded(shards, |comm, shard| NewtonAdmm::new(cfg).run_distributed(comm, shard, test));
        outputs.swap_remove(0)
    }

    fn small_dataset(n: usize, classes: usize, features: usize, seed: u64) -> (Dataset, Dataset) {
        SyntheticConfig::mnist_like()
            .with_train_size(n)
            .with_test_size(n / 4)
            .with_num_features(features)
            .with_num_classes(classes)
            .generate(seed)
    }

    fn quick_config(iters: usize) -> NewtonAdmmConfig {
        NewtonAdmmConfig {
            max_iters: iters,
            lambda: 1e-3,
            ..Default::default()
        }
    }

    #[test]
    fn reference_run_decreases_the_objective_monotonically_enough() {
        let (train, test) = small_dataset(120, 4, 10, 1);
        let (shards, _) = partition_strong(&train, 3);
        let out = NewtonAdmm::new(quick_config(20)).run_reference(&shards, Some(&test));
        let first = out.history.records[0].objective;
        let last = out.history.final_objective().unwrap();
        assert!(last < 0.5 * first, "objective should at least halve: {first} -> {last}");
        // Better than chance (4 classes ⇒ 25%) by a clear margin.
        assert!(out.history.final_accuracy().unwrap() > 0.4);
    }

    #[test]
    fn distributed_and_reference_agree() {
        let (train, _) = small_dataset(90, 3, 8, 2);
        let (shards, _) = partition_strong(&train, 3);
        let cfg = quick_config(8);
        let reference = NewtonAdmm::new(cfg).run_reference(&shards, None);
        let cluster = Cluster::new(3, NetworkModel::infiniband_100g());
        let distributed = run_on(&cluster, cfg, &shards, None);
        // The consensus iterates must agree to floating-point reduction noise.
        let dist = vector::distance(&reference.z, &distributed.z);
        let scale = vector::norm2(&reference.z).max(1.0);
        assert!(dist / scale < 1e-8, "distributed z deviates from reference by {dist}");
        // And so must the recorded objective values.
        assert_eq!(reference.history.len(), distributed.history.len());
        for (a, b) in reference.history.records.iter().zip(&distributed.history.records) {
            assert_eq!(a.iteration, b.iteration);
            assert!((a.objective - b.objective).abs() < 1e-6 * (1.0 + a.objective.abs()));
        }
    }

    #[test]
    fn consensus_residual_shrinks_over_iterations() {
        let (train, _) = small_dataset(80, 3, 6, 3);
        let (shards, _) = partition_strong(&train, 4);
        let out = NewtonAdmm::new(quick_config(20)).run_reference(&shards, None);
        let residuals: Vec<f64> = out.history.records.iter().filter_map(|r| r.consensus_residual).collect();
        assert!(residuals.len() > 5);
        let early = residuals[1];
        let late = *residuals.last().unwrap();
        assert!(late < early, "consensus residual should shrink: {early} -> {late}");
    }

    #[test]
    fn distributed_records_the_consensus_residual_too() {
        let (train, _) = small_dataset(80, 3, 6, 3);
        let (shards, _) = partition_strong(&train, 2);
        let cluster = Cluster::new(2, NetworkModel::ideal());
        let out = run_on(&cluster, quick_config(6), &shards, None);
        let residuals: Vec<f64> = out.history.records.iter().filter_map(|r| r.consensus_residual).collect();
        assert_eq!(residuals.len(), 7, "every distributed record carries the residual");
        assert!(residuals[1] > 0.0);
    }

    #[test]
    fn matches_single_node_newton_on_a_single_shard() {
        // With one worker and λ folded into the z-update, ADMM should reach
        // (approximately) the same optimum as plain Newton on the full
        // regularised objective.
        let (train, _) = small_dataset(100, 3, 6, 4);
        let lambda = 1e-2;
        let obj = SoftmaxCrossEntropy::new(&train, lambda);
        let newton = NewtonCg::new(NewtonConfig {
            max_iters: 50,
            cg: CgConfig {
                max_iters: 50,
                tolerance: 1e-10,
            },
            ..Default::default()
        })
        .minimize(&obj, &vec![0.0; obj.dim()]);
        let cfg = NewtonAdmmConfig {
            max_iters: 60,
            lambda,
            ..Default::default()
        };
        let admm = NewtonAdmm::new(cfg).run_reference(std::slice::from_ref(&train), None);
        let admm_value = obj.value(&admm.z);
        assert!(
            (admm_value - newton.value) / newton.value.abs() < 1e-2,
            "ADMM value {admm_value} vs Newton value {}",
            newton.value
        );
    }

    #[test]
    fn fixed_and_spectral_penalties_both_converge_spectral_no_slower() {
        let (train, _) = small_dataset(120, 4, 8, 5);
        let (shards, _) = partition_strong(&train, 4);
        let iters = 25;
        let fixed = NewtonAdmm::new(quick_config(iters).with_penalty(PenaltyRule::Fixed)).run_reference(&shards, None);
        let spectral = NewtonAdmm::new(quick_config(iters).with_penalty(PenaltyRule::Spectral(SpectralConfig::default())))
            .run_reference(&shards, None);
        let f_fixed = fixed.history.final_objective().unwrap();
        let f_spectral = spectral.history.final_objective().unwrap();
        assert!(
            f_spectral <= f_fixed * 1.10,
            "spectral ({f_spectral}) should not lag fixed ({f_fixed}) badly"
        );
    }

    #[test]
    fn residual_balancing_also_converges() {
        let (train, _) = small_dataset(80, 3, 6, 6);
        let (shards, _) = partition_strong(&train, 2);
        let cfg = quick_config(20).with_penalty(PenaltyRule::ResidualBalancing { mu: 10.0, tau: 2.0 });
        let out = NewtonAdmm::new(cfg).run_reference(&shards, None);
        let first = out.history.records[0].objective;
        assert!(out.history.final_objective().unwrap() < first);
    }

    #[test]
    fn simulated_time_and_comm_counters_advance() {
        let (train, _) = small_dataset(80, 3, 6, 7);
        let (shards, _) = partition_strong(&train, 4);
        let cluster = Cluster::new(4, NetworkModel::infiniband_100g());
        let out = run_on(&cluster, quick_config(5), &shards, None);
        assert!(out.history.total_sim_time() > 0.0);
        assert!(out.comm_stats.collectives > 0);
        assert!(out.comm_stats.bytes_sent > 0.0);
        assert!(out.comm_stats.compute_time > 0.0);
        // One reduce + one broadcast per iteration plus one fused split-phase
        // instrumentation allreduce per recorded iteration (and one for
        // iteration 0): exactly 3 per iteration + 1.
        assert_eq!(out.comm_stats.collectives, 3 * 5 + 1);
        // The breakdown attributes them to the right kinds.
        use nadmm_cluster::CollectiveKind;
        assert_eq!(out.comm_stats.kind(CollectiveKind::Reduce).count, 5);
        assert_eq!(out.comm_stats.kind(CollectiveKind::Broadcast).count, 5);
        assert_eq!(out.comm_stats.kind(CollectiveKind::Allreduce).count, 6);
    }

    #[test]
    fn overlap_makes_instrumentation_cheaper_not_wronger() {
        // The same run on the same cluster must produce identical iterates
        // whether instrumentation overlaps (consensus_tol == 0) or blocks
        // (consensus_tol > 0 with an unreachably small tolerance).
        let (train, _) = small_dataset(90, 3, 8, 9);
        let (shards, _) = partition_strong(&train, 3);
        let cluster = Cluster::new(3, NetworkModel::ethernet_10g());
        let overlapped = run_on(&cluster, quick_config(6), &shards, None);
        let blocking_cfg = NewtonAdmmConfig {
            consensus_tol: 1e-300,
            ..quick_config(6)
        };
        let blocking = run_on(&cluster, blocking_cfg, &shards, None);
        assert_eq!(overlapped.z, blocking.z, "overlap must not change the math");
        for (a, b) in overlapped.history.records.iter().zip(&blocking.history.records) {
            assert!((a.objective - b.objective).abs() < 1e-12 * (1.0 + a.objective.abs()));
        }
        // Overlap hides instrumentation time behind the next solve, so the
        // overlapped run cannot be slower.
        assert!(overlapped.history.total_sim_time() <= blocking.history.total_sim_time() + 1e-12);
    }

    #[test]
    fn early_stopping_on_consensus_tolerance() {
        let (train, _) = small_dataset(60, 3, 5, 8);
        let (shards, _) = partition_strong(&train, 2);
        let cfg = NewtonAdmmConfig {
            max_iters: 100,
            lambda: 1e-2,
            consensus_tol: 1e-1,
            ..Default::default()
        };
        let cluster = Cluster::new(2, NetworkModel::ideal());
        let out = run_on(&cluster, cfg, &shards, None);
        assert!(out.history.len() < 101, "should stop well before 100 iterations");
    }

    #[test]
    fn disabled_heterogeneity_knobs_are_bit_identical_to_the_synchronous_path() {
        let (train, test) = small_dataset(90, 3, 8, 11);
        let (shards, _) = partition_strong(&train, 3);
        let cluster = Cluster::new(3, NetworkModel::infiniband_100g());
        let base = run_on(&cluster, quick_config(5), &shards, Some(&test));
        // `None` knobs are the *same* config, so run the explicit struct to
        // prove the defaults are the disabled values.
        let cfg = NewtonAdmmConfig {
            staleness_deadline_sec: None,
            dropout: None,
            ..quick_config(5)
        };
        let explicit = run_on(&cluster, cfg, &shards, Some(&test));
        assert_eq!(base.z, explicit.z);
        assert_eq!(base.shed_newton_steps, 0);
        for (a, b) in base.history.records.iter().zip(&explicit.history.records) {
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(a.sim_time_sec.to_bits(), b.sim_time_sec.to_bits());
        }
    }

    #[test]
    fn staleness_deadline_sheds_steps_on_a_straggler_and_bounds_its_iteration_time() {
        let (train, _) = small_dataset(120, 3, 8, 12);
        let (shards, _) = partition_strong(&train, 4);
        let slow = nadmm_cluster::StragglerModel::none().with_slow_rank(3, 8.0);
        let cluster = Cluster::new(4, NetworkModel::infiniband_100g()).with_straggler(&slow);
        let mut cfg = quick_config(6);
        cfg.newton_steps_per_iter = 4;

        // Measure a fast rank's synchronous per-iteration compute to pick a
        // deadline that fits all 4 steps at 1× but not at 8×.
        let sync = run_on(&cluster, cfg, &shards, None);
        let per_iter = sync.comm_stats.compute_time / 6.0;
        let deadline = per_iter * 1.5;

        let stale_cfg = NewtonAdmmConfig {
            staleness_deadline_sec: Some(deadline),
            ..cfg
        };
        let outputs = cluster.run_sharded(&shards, |comm, shard| {
            NewtonAdmm::new(stale_cfg).run_distributed(comm, shard, None)
        });
        assert_eq!(outputs[0].shed_newton_steps, 0, "fast ranks meet the deadline");
        assert!(
            outputs[3].shed_newton_steps > 0,
            "the 8× rank must shed Newton steps to meet the deadline"
        );
        // Shedding bounds the fleet's iteration time: the stale run is
        // faster than the synchronous run on the same straggled cluster.
        assert!(
            outputs[0].history.total_sim_time() < sync.history.total_sim_time(),
            "bounded staleness should beat full synchronisation under a straggler: {} vs {}",
            outputs[0].history.total_sim_time(),
            sync.history.total_sim_time()
        );
        // And the math still converges.
        let first = outputs[0].history.records[0].objective;
        let last = outputs[0].history.final_objective().unwrap();
        assert!(last < first, "stale run must still make progress: {first} -> {last}");
    }

    #[test]
    fn rank_dropout_reweights_the_consensus_over_survivors() {
        let (train, _) = small_dataset(120, 3, 8, 13);
        let (shards, _) = partition_strong(&train, 4);
        let cluster = Cluster::new(4, NetworkModel::ideal());
        let drop_at = 3;
        let cfg = NewtonAdmmConfig {
            dropout: Some(crate::config::DropoutSpec {
                rank: 2,
                at_iter: drop_at,
            }),
            ..quick_config(40)
        };
        let outputs = cluster.run_sharded(&shards, |comm, shard| NewtonAdmm::new(cfg).run_distributed(comm, shard, None));
        // Every rank (including the dead one) reports the same consensus.
        for out in &outputs[1..] {
            assert_eq!(out.z, outputs[0].z);
        }
        // The surviving fleet re-weights its average over ranks {0, 1, 3},
        // so the consensus must head towards the *survivors'* optimum, away
        // from the full-fleet optimum that includes the dead shard.
        let survivors: Vec<Dataset> = [0usize, 1, 3].iter().map(|&r| shards[r].clone()).collect();
        let survivors_opt = NewtonAdmm::new(quick_config(60)).run_reference(&survivors, None);
        let full_opt = NewtonAdmm::new(quick_config(60)).run_reference(&shards, None);
        let to_survivors = vector::distance(&outputs[0].z, &survivors_opt.z);
        let to_full = vector::distance(&outputs[0].z, &full_opt.z);
        assert!(
            to_survivors < to_full,
            "post-dropout consensus should be closer to the survivors' optimum \
             ({to_survivors}) than to the full-fleet optimum ({to_full})"
        );
        // The run must not have collapsed: objective still finite & improving.
        let hist = &outputs[0].history;
        assert!(hist.final_objective().unwrap().is_finite());
        assert!(hist.final_objective().unwrap() < hist.records[0].objective);
    }

    #[test]
    fn dropout_tombstones_are_bit_identical_to_explicit_zero_contributions() {
        // A forwarding communicator that turns every tombstone into the
        // explicit zero-filled buffer it stands for, so the dead rank walks
        // the full collective data path.
        struct ZeroFill<'a, C: Communicator>(&'a mut C);
        impl<C: Communicator> Communicator for ZeroFill<'_, C> {
            fn rank(&self) -> usize {
                self.0.rank()
            }
            fn size(&self) -> usize {
                self.0.size()
            }
            fn barrier(&mut self) {
                self.0.barrier()
            }
            fn allreduce_sum_into(&mut self, buf: &mut [f64]) {
                self.0.allreduce_sum_into(buf)
            }
            fn allreduce_max_into(&mut self, buf: &mut [f64]) {
                self.0.allreduce_max_into(buf)
            }
            fn reduce_sum_root_into(&mut self, buf: Contribution<&mut [f64]>) -> bool {
                match buf {
                    Contribution::Tombstone(len) => self.0.reduce_sum_root_into(Contribution::Data(&mut vec![0.0; len])),
                    data => self.0.reduce_sum_root_into(data),
                }
            }
            fn broadcast_root_into(&mut self, buf: &mut [f64]) {
                self.0.broadcast_root_into(buf)
            }
            fn start_allreduce_sum_max(&mut self, data: Contribution<&[f64]>, sum_len: usize) -> CollectiveHandle {
                match data {
                    Contribution::Tombstone(len) => self.0.start_allreduce_sum_max(Contribution::Data(&vec![0.0; len]), sum_len),
                    data => self.0.start_allreduce_sum_max(data, sum_len),
                }
            }
            fn wait_into(&mut self, handle: CollectiveHandle, out: &mut [f64]) {
                self.0.wait_into(handle, out)
            }
            fn advance_compute(&mut self, dt: f64) {
                self.0.advance_compute(dt)
            }
            fn elapsed(&self) -> f64 {
                self.0.elapsed()
            }
            fn stats(&self) -> CommStats {
                self.0.stats()
            }
        }

        let (train, _) = small_dataset(120, 3, 8, 13);
        let (shards, _) = partition_strong(&train, 3);
        let cluster = Cluster::new(3, NetworkModel::infiniband_100g());
        let cfg = NewtonAdmmConfig {
            dropout: Some(crate::config::DropoutSpec { rank: 1, at_iter: 2 }),
            ..quick_config(8)
        };
        let tombstoned = cluster.run_sharded(&shards, |comm, shard| {
            let out = NewtonAdmm::new(cfg).run_distributed(comm, shard, None);
            (out, comm.stats())
        });
        let zero_filled = cluster.run_sharded(&shards, |comm, shard| {
            let mut wrapped = ZeroFill(comm);
            let out = NewtonAdmm::new(cfg).run_distributed(&mut wrapped, shard, None);
            (out, comm.stats())
        });
        for (rank, ((a, a_s), (b, b_s))) in tombstoned.iter().zip(&zero_filled).enumerate() {
            for (x, y) in a.z.iter().zip(&b.z) {
                assert_eq!(x.to_bits(), y.to_bits(), "rank {rank} consensus deviated");
            }
            for (ra, rb) in a.history.records.iter().zip(&b.history.records) {
                assert_eq!(ra.objective.to_bits(), rb.objective.to_bits());
                assert_eq!(ra.sim_time_sec.to_bits(), rb.sim_time_sec.to_bits());
            }
            assert_eq!(a_s, b_s, "rank {rank} billing deviated");
        }
    }

    #[test]
    #[should_panic]
    fn shard_count_must_match_cluster_size() {
        let (train, _) = small_dataset(40, 3, 4, 9);
        let (shards, _) = partition_strong(&train, 2);
        let cluster = Cluster::new(3, NetworkModel::ideal());
        run_on(&cluster, quick_config(2), &shards, None);
    }
}
