//! The communicator interface the distributed solvers code against, plus the
//! trivial single-process implementation.
//!
//! One surface, two calling styles:
//!
//! * **In-place collectives** (`allreduce_sum_into`, `reduce_sum_root_into`,
//!   `broadcast_root_into`, …): the caller's buffer is both input and output
//!   and implementations stage through a pooled [`crate::CommWorkspace`], so
//!   a warm outer iteration allocates nothing.
//! * **Split-phase** ([`Communicator::start_allreduce_sum_max`] →
//!   [`Communicator::wait_into`]): the result materialises in a
//!   [`CollectiveHandle`] whose completion *time* is fixed at start, and
//!   local compute issued between `start` and `wait` overlaps with the
//!   collective on the simulated clocks (only the non-overlapped tail is
//!   billed).
//!
//! The two collectives a dead rank still has to enter take a
//! [`Contribution`], so "I have nothing to add" is an argument, not a second
//! method.

use crate::network::{CollectiveAlgorithm, CollectiveKind};
use crate::stats::CommStats;

/// The rank that plays the role of the paper's "master node".
pub const ROOT_RANK: usize = 0;

/// What one rank puts into a collective round; `B` is the buffer type the
/// collective works on (`&mut [f64]` in place, `&[f64]` split-phase).
#[derive(Debug)]
pub enum Contribution<B> {
    /// A payload of elements.
    Data(B),
    /// A dead rank's contribution: this many logical elements, all exact
    /// zeros. Results, billing and stats are identical to `Data` over an
    /// explicit zero-filled buffer; implementations may skip the payload
    /// entirely as long as reports stay bit-identical.
    Tombstone(usize),
}

impl<B: std::ops::Deref<Target = [f64]>> Contribution<B> {
    /// Number of logical elements contributed.
    pub fn len(&self) -> usize {
        match self {
            Contribution::Data(buf) => buf.len(),
            Contribution::Tombstone(len) => *len,
        }
    }

    /// Whether no element is contributed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The same contribution over a shared borrow of the buffer.
    pub fn as_slice(&self) -> Contribution<&[f64]> {
        match self {
            Contribution::Data(buf) => Contribution::Data(buf),
            Contribution::Tombstone(len) => Contribution::Tombstone(*len),
        }
    }
}

/// An in-flight split-phase collective: the exchanged result plus the
/// simulated time at which the collective completes cluster-wide.
///
/// Produced by [`Communicator::start_allreduce_sum_max`] and consumed by
/// [`Communicator::wait_into`] **on the same communicator that created it**.
/// Handles must be waited in the order they were started.
#[derive(Debug)]
pub struct CollectiveHandle {
    pub(crate) result: Vec<f64>,
    pub(crate) complete_at: f64,
    pub(crate) kind: CollectiveKind,
    pub(crate) algo: CollectiveAlgorithm,
    pub(crate) sent_bytes: f64,
    pub(crate) recv_bytes: f64,
    /// Full-width (pre-compression) byte counters recorded at `wait`; equal
    /// to the wire counters unless the payload was compressed.
    pub(crate) logical_sent_bytes: f64,
    pub(crate) logical_recv_bytes: f64,
}

impl CollectiveHandle {
    /// Builds a handle around an already-exchanged result.
    pub fn new(
        result: Vec<f64>,
        complete_at: f64,
        kind: CollectiveKind,
        algo: CollectiveAlgorithm,
        sent_bytes: f64,
        recv_bytes: f64,
    ) -> Self {
        Self {
            result,
            complete_at,
            kind,
            algo,
            sent_bytes,
            recv_bytes,
            logical_sent_bytes: sent_bytes,
            logical_recv_bytes: recv_bytes,
        }
    }

    /// Overrides the full-width (pre-compression) byte counters billed at
    /// `wait`. [`CollectiveHandle::new`] defaults them to the wire counters,
    /// which is correct for uncompressed payloads.
    pub fn with_logical_bytes(mut self, sent: f64, received: f64) -> Self {
        self.logical_sent_bytes = sent;
        self.logical_recv_bytes = received;
        self
    }

    /// Number of elements of the eventual result.
    pub fn len(&self) -> usize {
        self.result.len()
    }

    /// Whether the eventual result is empty.
    pub fn is_empty(&self) -> bool {
        self.result.is_empty()
    }

    /// Simulated time at which this collective completes on every rank
    /// (latest start across ranks plus the modeled cost). A rank's own clock
    /// only advances to this at `wait`.
    pub fn complete_at(&self) -> f64 {
        self.complete_at
    }

    /// The collective kind this handle belongs to.
    pub fn kind(&self) -> CollectiveKind {
        self.kind
    }

    /// The algorithm the selector chose for it.
    pub fn algorithm(&self) -> CollectiveAlgorithm {
        self.algo
    }
}

/// MPI-flavoured collective interface over `f64` payloads.
///
/// All collectives must be called by every rank of the communicator in the
/// same order (exactly like MPI); implementations detect and loudly reject
/// mismatched calls. The root of rooted collectives is always [`ROOT_RANK`],
/// matching the paper's master-node formulation (Algorithm 4).
///
/// Besides moving data, implementations account simulated time: local compute
/// charged through [`Communicator::advance_compute`] and communication time
/// charged internally from the network model. [`Communicator::elapsed`]
/// exposes the per-rank simulated clock the experiment harness reads.
pub trait Communicator {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Whether this rank is the master/root.
    fn is_root(&self) -> bool {
        self.rank() == ROOT_RANK
    }

    /// Synchronises all ranks (and their simulated clocks).
    fn barrier(&mut self);

    /// Element-wise sum across ranks, in place: `buf` is this rank's
    /// contribution on entry and the global sum on exit. Every rank must
    /// supply the same length.
    fn allreduce_sum_into(&mut self, buf: &mut [f64]);

    /// Element-wise max across ranks, in place.
    fn allreduce_max_into(&mut self, buf: &mut [f64]);

    /// Element-wise sum to the root, in place: on the root a
    /// [`Contribution::Data`] buffer holds the global sum on exit; elsewhere
    /// its contents are unspecified afterwards. A tombstoning root discards
    /// the sum (a dead rank never reads it). Returns whether this rank is
    /// the root.
    fn reduce_sum_root_into(&mut self, buf: Contribution<&mut [f64]>) -> bool;

    /// Broadcast from the root, in place: the root's `buf` is the payload,
    /// every other rank's same-length `buf` is overwritten with it.
    fn broadcast_root_into(&mut self, buf: &mut [f64]);

    /// Allgather into a caller buffer: `out` (length `size() * data.len()`)
    /// receives every rank's contribution concatenated in rank order.
    fn allgather_into(&mut self, data: &[f64], out: &mut [f64]);

    /// Starts a nonblocking mixed allreduce of `data`: the first `sum_len`
    /// elements are reduced by sum, the rest by max — one collective instead
    /// of two, the way MPI codes pack instrumentation reductions into a
    /// single user-defined-op allreduce (`sum_len = data.len()` is a plain
    /// sum, `sum_len = 0` a plain max). The result becomes visible, and the
    /// clock is charged, at [`Communicator::wait_into`].
    fn start_allreduce_sum_max(&mut self, data: Contribution<&[f64]>, sum_len: usize) -> CollectiveHandle;

    /// Completes a split-phase collective: copies the result into `out`
    /// (same length), advances this rank's clock to the collective's
    /// completion time if it has not naturally passed it (the overlap
    /// credit) and bills the non-overlapped tail.
    fn wait_into(&mut self, handle: CollectiveHandle, out: &mut [f64]);

    /// Sum of a scalar across ranks, available everywhere.
    fn allreduce_scalar_sum(&mut self, v: f64) -> f64 {
        let mut buf = [v];
        self.allreduce_sum_into(&mut buf);
        buf[0]
    }

    /// Maximum of a scalar across ranks, available everywhere.
    fn allreduce_scalar_max(&mut self, v: f64) -> f64 {
        let mut buf = [v];
        self.allreduce_max_into(&mut buf);
        buf[0]
    }

    /// Charges `dt` simulated seconds of local compute to this rank.
    fn advance_compute(&mut self, dt: f64);

    /// Simulated seconds elapsed on this rank (compute + communication,
    /// including waiting for stragglers at collectives).
    fn elapsed(&self) -> f64;

    /// Snapshot of this rank's communication counters.
    fn stats(&self) -> CommStats;
}

/// A size-1 communicator for single-node runs (collectives are identities and
/// cost nothing). The simulated clock still advances through
/// [`Communicator::advance_compute`], so single-node baselines report
/// comparable timings.
#[derive(Debug, Default, Clone)]
pub struct SingleProcessComm {
    elapsed: f64,
    stats: CommStats,
}

impl SingleProcessComm {
    /// Creates a fresh single-rank communicator.
    pub fn new() -> Self {
        Self::default()
    }

    fn note(&mut self, kind: CollectiveKind) {
        self.stats.record_collective(kind, CollectiveAlgorithm::Naive, 0.0, 0.0, 0.0);
    }
}

impl Communicator for SingleProcessComm {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn barrier(&mut self) {}

    // Collectives are identities on one rank: no copies, no allocations.
    fn allreduce_sum_into(&mut self, _buf: &mut [f64]) {
        self.note(CollectiveKind::Allreduce);
    }

    fn allreduce_max_into(&mut self, _buf: &mut [f64]) {
        self.note(CollectiveKind::Allreduce);
    }

    fn reduce_sum_root_into(&mut self, _buf: Contribution<&mut [f64]>) -> bool {
        self.note(CollectiveKind::Reduce);
        true
    }

    fn broadcast_root_into(&mut self, _buf: &mut [f64]) {
        self.note(CollectiveKind::Broadcast);
    }

    fn allgather_into(&mut self, data: &[f64], out: &mut [f64]) {
        self.note(CollectiveKind::Allgather);
        assert_eq!(out.len(), data.len(), "allgather_into on one rank copies the contribution");
        out.copy_from_slice(data);
    }

    fn start_allreduce_sum_max(&mut self, data: Contribution<&[f64]>, sum_len: usize) -> CollectiveHandle {
        assert!(sum_len <= data.len());
        self.note(CollectiveKind::Allreduce);
        let result = match data {
            Contribution::Data(data) => data.to_vec(),
            Contribution::Tombstone(len) => vec![0.0; len],
        };
        CollectiveHandle::new(
            result,
            self.elapsed,
            CollectiveKind::Allreduce,
            CollectiveAlgorithm::Naive,
            0.0,
            0.0,
        )
    }

    fn wait_into(&mut self, handle: CollectiveHandle, out: &mut [f64]) {
        out.copy_from_slice(&handle.result);
    }

    fn advance_compute(&mut self, dt: f64) {
        self.elapsed += dt.max(0.0);
        self.stats.record_compute(dt.max(0.0));
    }

    fn elapsed(&self) -> f64 {
        self.elapsed
    }

    fn stats(&self) -> CommStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_process_collectives_are_identities() {
        let mut c = SingleProcessComm::new();
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 1);
        assert!(c.is_root());
        c.barrier();
        assert_eq!(c.allreduce_scalar_sum(2.5), 2.5);
        assert_eq!(c.allreduce_scalar_max(-1.0), -1.0);
    }

    #[test]
    fn single_process_in_place_collectives_are_identities() {
        let mut c = SingleProcessComm::new();
        let mut buf = [1.0, 2.0];
        c.allreduce_sum_into(&mut buf);
        assert_eq!(buf, [1.0, 2.0]);
        assert!(c.reduce_sum_root_into(Contribution::Data(&mut buf)));
        c.broadcast_root_into(&mut buf);
        assert_eq!(buf, [1.0, 2.0]);
        let mut out = [0.0, 0.0];
        c.allgather_into(&[3.0, 4.0], &mut out);
        assert_eq!(out, [3.0, 4.0]);
        assert_eq!(c.stats().kind(CollectiveKind::Allreduce).count, 1);
    }

    #[test]
    fn single_process_split_phase_completes_eagerly() {
        let mut c = SingleProcessComm::new();
        for sum_len in [2, 0] {
            let h = c.start_allreduce_sum_max(Contribution::Data(&[5.0, 6.0]), sum_len);
            assert_eq!(h.len(), 2);
            assert_eq!(h.kind(), CollectiveKind::Allreduce);
            let mut out = [0.0, 0.0];
            c.wait_into(h, &mut out);
            assert_eq!(out, [5.0, 6.0]);
        }
        // A tombstone is indistinguishable from the zeros it stands for.
        let run = |dead: bool| {
            let mut c = SingleProcessComm::new();
            let mut zeros = [0.0; 3];
            let (reduce, start): (Contribution<&mut [f64]>, Contribution<&[f64]>) = if dead {
                (Contribution::Tombstone(3), Contribution::Tombstone(4))
            } else {
                (Contribution::Data(&mut zeros), Contribution::Data(&[0.0; 4]))
            };
            assert!(c.reduce_sum_root_into(reduce));
            let h = c.start_allreduce_sum_max(start, 3);
            let mut out = [1.0; 4];
            c.wait_into(h, &mut out);
            (out, c.elapsed().to_bits(), c.stats())
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(true).0, [0.0; 4]);
    }

    #[test]
    fn single_process_clock_tracks_compute() {
        let mut c = SingleProcessComm::new();
        c.advance_compute(1.25);
        c.advance_compute(0.75);
        assert!((c.elapsed() - 2.0).abs() < 1e-12);
        assert!((c.stats().compute_time - 2.0).abs() < 1e-12);
        assert_eq!(c.stats().comm_time, 0.0);
    }
}
