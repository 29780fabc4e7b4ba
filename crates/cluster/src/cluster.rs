//! The simulated cluster: a [`Cluster`] describes the ranks, the cost model
//! and the straggler scales, and either spawns one thread per rank over an
//! in-process fabric ([`Cluster::run`], [`Cluster::run_sharded`]) or builds
//! one rank's engine over a caller-supplied transport ([`Cluster::connect`]).
//!
//! # Oversubscription policy
//!
//! Each simulated rank is a host thread, but there is only **one**
//! process-wide compute pool (the `rayon` shim's work-sharing pool). When a
//! rank reaches a parallel kernel while another rank holds the pool, its
//! dispatch attempt fails the pool's `try_lock` and the rank simply runs
//! the region **inline on its own thread** — same canonical chunk order,
//! same bits, no queueing and no deadlock. Oversubscription therefore
//! degrades throughput gracefully (ranks compute concurrently with each
//! other, sequentially within themselves) and never changes results.

use crate::comm::Communicator;
use crate::engine::ClusterComm;
use crate::network::{refuse_retired_env_overrides, CollectiveSelector, Compression, NetworkModel};
use crate::straggler::StragglerModel;
use crate::transport::thread::ThreadFabric;
use crate::transport::Transport;

/// A simulated cluster: spawns one thread per rank and runs a closure on each.
#[derive(Debug, Clone)]
pub struct Cluster {
    size: usize,
    network: NetworkModel,
    selector: CollectiveSelector,
    compression: Compression,
    /// Per-rank compute scales resolved from the straggler model (empty =
    /// homogeneous, every rank at exactly 1.0).
    scales: Vec<f64>,
}

impl Cluster {
    /// Creates a cluster description with `size` ranks over `network`,
    /// automatic payload-size crossover selection of the collective
    /// algorithms, and the uncompressed `f64` wire.
    ///
    /// # Panics
    /// Panics if `size == 0`, or if the retired `NADMM_COLLECTIVE_ALGO` or
    /// `NADMM_COMPRESSION` override is set (the message names the
    /// `ClusterSpec` field to set instead).
    pub fn new(size: usize, network: NetworkModel) -> Self {
        assert!(size > 0, "a cluster needs at least one rank");
        refuse_retired_env_overrides();
        Self {
            size,
            network,
            selector: CollectiveSelector::Auto,
            compression: Compression::None,
            scales: Vec::new(),
        }
    }

    /// Overrides the collective-algorithm selection rule.
    pub fn with_collectives(mut self, selector: CollectiveSelector) -> Self {
        self.selector = selector;
        self
    }

    /// Overrides the wire-compression policy collective payloads go through.
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Attaches a deterministic straggler model: every rank's compute
    /// charges are multiplied by its resolved scale, so slow ranks arrive
    /// late at collectives and (because completion is the max over
    /// arrivals) delay everyone.
    ///
    /// # Panics
    /// Panics if the model fails [`StragglerModel::validate`] for this
    /// cluster size.
    pub fn with_straggler(mut self, model: &StragglerModel) -> Self {
        if let Err(msg) = model.validate(self.size) {
            panic!("invalid straggler model: {msg}");
        }
        self.scales = model.scales(self.size);
        self
    }

    /// The compute scale of one rank (1.0 when no straggler model is set).
    pub fn rank_scale(&self, rank: usize) -> f64 {
        self.scales.get(rank).copied().unwrap_or(1.0)
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The network model used by the cluster.
    pub fn network(&self) -> NetworkModel {
        self.network
    }

    /// The collective-algorithm selection rule ranks will use.
    pub fn selector(&self) -> CollectiveSelector {
        self.selector
    }

    /// The wire-compression policy ranks will apply to collective payloads.
    pub fn compression(&self) -> Compression {
        self.compression
    }

    /// Builds the collective engine of one rank over an arbitrary
    /// transport — the multi-process entry point: each process connects its
    /// own [`crate::transport::tcp::TcpTransport`] and runs its rank's
    /// solver against the resulting communicator. The transport decides the
    /// rank; the cluster decides the cost model and the rank's straggler
    /// scale.
    ///
    /// # Panics
    /// Panics if the transport's size disagrees with the cluster's.
    pub fn connect(&self, transport: Box<dyn Transport>) -> ClusterComm {
        let rank = transport.rank();
        ClusterComm::new(
            self.size,
            self.network,
            self.selector,
            self.compression,
            self.rank_scale(rank),
            transport,
        )
    }

    /// Runs `f` on every rank (each on its own thread) and returns the
    /// results in rank order. The closure receives a mutable [`ClusterComm`]
    /// implementing [`Communicator`].
    ///
    /// Any rank's panic poisons the shared fabric first, so ranks blocked
    /// mid-collective panic too instead of deadlocking, and is then
    /// propagated with its original message.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut ClusterComm) -> T + Sync,
    {
        let fabric = ThreadFabric::new(self.size);
        let mut results: Vec<Option<T>> = (0..self.size).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.size);
            for (rank, slot) in results.iter_mut().enumerate() {
                let fabric = std::sync::Arc::clone(&fabric);
                let f = &f;
                let this = &*self;
                handles.push(scope.spawn(move || {
                    let transport = fabric.endpoint(rank);
                    let mut comm = this.connect(Box::new(transport));
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm))) {
                        Ok(out) => *slot = Some(out),
                        Err(payload) => {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| format!("rank {rank} panicked"));
                            fabric.poison(&msg);
                            std::panic::resume_unwind(payload);
                        }
                    }
                }));
            }
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        results.into_iter().map(|r| r.expect("rank produced no result")).collect()
    }

    /// Runs `f` on every rank, handing rank `i` the `i`-th shard. This is the
    /// one copy of the "spawn ranks, hand off shards, collect in rank order"
    /// scaffolding the experiment layer runs every solver through.
    ///
    /// # Panics
    /// Panics if the shard count does not match the cluster size.
    pub fn run_sharded<S, T, F>(&self, shards: &[S], f: F) -> Vec<T>
    where
        S: Sync,
        T: Send,
        F: Fn(&mut ClusterComm, &S) -> T + Sync,
    {
        assert_eq!(self.size, shards.len(), "need exactly one shard per rank");
        self.run(|comm| f(comm, &shards[comm.rank()]))
    }
}
