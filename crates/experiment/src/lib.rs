//! # nadmm-experiment
//!
//! The unified experiment API of the Newton-ADMM reproduction.
//!
//! The paper's headline results are a *matrix* of runs — {Newton-ADMM,
//! GIANT, InexactDANE/AIDE, DiSCO, synchronous SGD} × {datasets} × {worker
//! counts} × {λ, CG budgets} — and this crate is the one place that matrix
//! is expressed:
//!
//! * [`Solver`] — the object-safe trait every distributed solver implements
//!   (`name`, `validate`, per-rank `run` returning a [`RunReport`]);
//! * [`SolverSpec`] — a solver plus its full typed configuration, with AIDE
//!   acceleration and the SGD step-size grid as first-class variants;
//! * [`DataSpec`] / [`PartitionSpec`] / [`ClusterSpec`] — declarative
//!   problem-instance descriptions (synthetic preset or LIBSVM path,
//!   strong/weak sharding, ranks + network + collective algorithm + optional
//!   cluster-wide device override);
//! * [`Experiment`] — the builder composing all of the above; in process
//!   ([`run_spec_on`]) and over an external transport ([`run_spec_over`])
//!   every rank runs the same per-rank body, and rank 0's report carries
//!   the fleet's [`RankSkew`] gathered over the communicator;
//! * [`ScenarioSpec`] — the JSON-serializable mirror of an experiment,
//!   executed end-to-end by the `scenario_runner` example and gated in CI
//!   via `scenarios/smoke.json`;
//! * [`RunReport`] — the structured result of every run: iteration records,
//!   final objective/accuracy, per-collective [`CommStats`] breakdown,
//!   workspace-pool counters, simulated and wall time; serializes to JSON.
//!
//! Every run through this layer is bit-identical to spawning the ranks by
//! hand and calling each solver's `run_distributed` (proven by the
//! equivalence tests in `tests/equivalence.rs`): the experiment layer adds
//! validation, uniform reporting and declarative composition, not new
//! numerics.

pub mod experiment;
pub mod report;
pub mod scenario;
pub mod solver;
pub mod spec;

pub use experiment::{run_spec_on, run_spec_over, Experiment, ExperimentError};
pub use report::{non_finite_path, to_finite_json_pretty, NonFiniteJsonError, RankSkew, RunReport};
pub use scenario::{refuse_removed_options, ScenarioParseError, ScenarioSpec};
pub use solver::{Aide, Solver};
pub use spec::{validate_device, ClusterSpec, DataSpec, PartitionSpec, SolverSpec};

// Re-exported so downstream users of the experiment API can name the shared
// validation error without depending on nadmm-solver directly.
pub use nadmm_cluster::CommStats;
pub use nadmm_solver::ConfigError;
