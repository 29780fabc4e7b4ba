//! # nadmm-cluster
//!
//! A simulated distributed cluster with a pluggable collective engine.
//!
//! The paper evaluates Newton-ADMM on up to 16 MPI ranks connected by a
//! 100 Gbps Infiniband fabric. This crate substitutes that substrate with an
//! in-process cluster: every simulated rank runs on its own OS thread,
//! collectives are implemented with a shared-memory rendezvous, and the
//! *time* each collective would have taken on a real fabric is charged
//! against a latency/bandwidth [`NetworkModel`].
//!
//! Unlike the seed's single ⌈log₂N⌉-tree asymptotic, each collective is
//! costed per [`CollectiveAlgorithm`] (naive star, binomial tree, ring,
//! recursive halving-doubling) with automatic payload-size crossover
//! selection — ring allreduce wins the large d×k parameter reductions of the
//! ADMM outer loop, trees win the scalar instrumentation reductions — and
//! the choice is recorded per collective kind in [`CommStats`].
//!
//! Because the algorithms in this workspace differ mainly in *how many
//! communication rounds and bytes* they need per iteration (Newton-ADMM: one
//! reduce + one broadcast; GIANT: three rounds; synchronous SGD: one
//! allreduce per minibatch), simulating the network with per-algorithm α+β
//! models retains exactly the trade-off the paper studies, while the
//! numerical results are identical to a real multi-node run (the collectives
//! are exact, and bit-identical across algorithm choices by construction).
//!
//! Entry points:
//! * [`Cluster::run`] — spawn `n` ranks, run a closure on each, collect
//!   results in rank order;
//! * [`Communicator`] — the MPI-flavoured interface the solvers code
//!   against: in-place collectives (`*_into`, zero-alloc once warm) and one
//!   split-phase allreduce (`start_allreduce_sum_max` → `wait_into`,
//!   overlapping compute with communication on the simulated clocks); a
//!   dead rank passes [`Contribution::Tombstone`] where a live one passes
//!   its buffer;
//! * [`SingleProcessComm`] — a size-1 communicator for single-node runs.

pub mod cluster;
pub mod comm;
pub mod engine;
pub mod network;
pub mod stats;
pub mod straggler;
pub mod transport;
pub mod workspace;

pub use cluster::Cluster;
pub use comm::{CollectiveHandle, Communicator, Contribution, SingleProcessComm, ROOT_RANK};
pub use engine::ClusterComm;
pub use network::{
    CollectiveAlgorithm, CollectiveKind, CollectiveSelector, Compression, NetworkModel, COLLECTIVE_ALGO_ENV, COMPRESSION_ENV,
};
pub use stats::{CommStats, KindStats};
pub use straggler::{SlowRank, StragglerModel};
pub use transport::tcp::{reserve_loopback_peers, TcpTransport};
pub use transport::thread::{ThreadFabric, ThreadTransport};
pub use transport::{Transport, TransportKind, TransportSpec, TRANSPORT_ENV};
pub use workspace::{CommWorkspace, CommWorkspaceStats};

/// The engine's and the cluster builder's unit tests: every one drives the
/// engine through [`Cluster::run`], so they share one file. The module keeps
/// the path the recorded test ids were taken under.
#[cfg(test)]
#[path = "engine_tests.rs"]
mod thread_comm;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_a_trivial_cluster() {
        let results = Cluster::new(4, NetworkModel::infiniband_100g()).run(|comm| comm.rank() * 10);
        assert_eq!(results, vec![0, 10, 20, 30]);
    }
}
