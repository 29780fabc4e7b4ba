//! The collective engine over a pluggable [`Transport`]: [`ClusterComm`], the
//! round protocol and the billing against the network model.
//!
//! Collectives run a *root-coordinated round protocol* over byte frames
//! ([`crate::transport::wire`]): every rank sends its contribution to rank 0,
//! rank 0 folds the contributions **in fixed rank order** (which is what
//! makes every cost-model algorithm bit-identical by construction) and
//! replies with the reduced result and the round's arrival-time summary.
//! The engine is transport-agnostic — the in-process
//! [`crate::transport::thread::ThreadFabric`] and the multi-process
//! [`crate::transport::tcp::TcpTransport`] carry identical frames — and all
//! *billing* is driven by the network cost model and logical payload sizes,
//! never by transport wall time, so a scenario produces byte-identical
//! reports on either backend.
//!
//! All engine scratch (frame buffers, the fold accumulator) is reused
//! across rounds, so a warm collective performs zero heap allocations on
//! the thread backend.
//!
//! Collective-order violations (mismatched operation or payload length
//! across ranks) poison the transport and panic **loudly** on every rank,
//! naming the offending rank and the expected payload — a silent wrong
//! answer is the one failure mode a consensus solver cannot afford.

use crate::comm::{CollectiveHandle, Communicator, Contribution, ROOT_RANK};
use crate::network::{CollectiveAlgorithm, CollectiveKind, CollectiveSelector, Compression, NetworkModel};
use crate::stats::CommStats;
use crate::transport::wire::{self, RoundOp};
use crate::transport::Transport;
use nadmm_device::{Workspace, WorkspaceStats};

/// The tracer's mirror of [`CollectiveKind`] (keeps `nadmm-trace` a leaf).
fn trace_kind(kind: CollectiveKind) -> nadmm_trace::CollKind {
    match kind {
        CollectiveKind::Barrier => nadmm_trace::CollKind::Barrier,
        CollectiveKind::Broadcast => nadmm_trace::CollKind::Broadcast,
        CollectiveKind::Reduce => nadmm_trace::CollKind::Reduce,
        CollectiveKind::Allreduce => nadmm_trace::CollKind::Allreduce,
        CollectiveKind::Gather => nadmm_trace::CollKind::Gather,
        CollectiveKind::Scatter => nadmm_trace::CollKind::Scatter,
        CollectiveKind::Allgather => nadmm_trace::CollKind::Allgather,
    }
}

/// The tracer's mirror of [`CollectiveAlgorithm`].
fn trace_algo(algo: CollectiveAlgorithm) -> nadmm_trace::CollAlgo {
    match algo {
        CollectiveAlgorithm::Naive => nadmm_trace::CollAlgo::Naive,
        CollectiveAlgorithm::BinomialTree => nadmm_trace::CollAlgo::BinomialTree,
        CollectiveAlgorithm::Ring => nadmm_trace::CollAlgo::Ring,
        CollectiveAlgorithm::RecursiveHalvingDoubling => nadmm_trace::CollAlgo::RecursiveHalvingDoubling,
    }
}

/// Arrival-time summary of one completed collective round: the latest and
/// earliest per-rank arrival on the simulated clocks. The latest arrival
/// gates completion (a straggler delays everyone); the spread is the round
/// skew surfaced through [`CommStats`].
#[derive(Debug, Clone, Copy)]
struct RoundTiming {
    max_time: f64,
    min_time: f64,
}

/// Reusable engine scratch: every buffer keeps its capacity across rounds,
/// so a warm collective allocates nothing.
#[derive(Default)]
struct Scratch {
    /// Outgoing frame bytes.
    tx: Vec<u8>,
    /// Incoming frame bytes.
    rx: Vec<u8>,
    /// The round's result elements (on the root: the fold accumulator).
    acc: Vec<f64>,
}

/// Communicator handle owned by one rank, layered over a boxed transport.
pub struct ClusterComm {
    rank: usize,
    size: usize,
    network: NetworkModel,
    selector: CollectiveSelector,
    compression: Compression,
    transport: Box<dyn Transport>,
    /// Number of collective rounds this rank has entered.
    rounds: u64,
    elapsed: f64,
    /// Multiplicative straggler factor applied to every compute charge
    /// (exactly 1.0 on homogeneous clusters, which multiplies bit-exactly).
    compute_scale: f64,
    stats: CommStats,
    pool: Workspace,
    scratch: Scratch,
}

const F64_BYTES: f64 = std::mem::size_of::<f64>() as f64;

impl ClusterComm {
    pub(crate) fn new(
        size: usize,
        network: NetworkModel,
        selector: CollectiveSelector,
        compression: Compression,
        compute_scale: f64,
        transport: Box<dyn Transport>,
    ) -> Self {
        assert_eq!(transport.size(), size, "transport size disagrees with the cluster size");
        Self {
            rank: transport.rank(),
            size,
            network,
            selector,
            compression,
            transport,
            rounds: 0,
            elapsed: 0.0,
            compute_scale,
            stats: CommStats::default(),
            pool: Workspace::new(),
            scratch: Scratch::default(),
        }
    }

    /// The network model this communicator charges.
    pub fn network(&self) -> NetworkModel {
        self.network
    }

    /// The collective-algorithm selection rule in effect.
    pub fn selector(&self) -> CollectiveSelector {
        self.selector
    }

    /// The wire-compression policy collective payloads go through.
    pub fn compression(&self) -> Compression {
        self.compression
    }

    /// The straggler compute-slowdown factor of this rank (1.0 when no
    /// straggler model is configured).
    pub fn straggler_scale(&self) -> f64 {
        self.compute_scale
    }

    /// Short name of the transport backend underneath ("thread", "tcp").
    pub fn transport_backend(&self) -> &'static str {
        self.transport.backend()
    }

    /// Pool counters of the communication workspace — the device crate's
    /// [`Workspace`], staging compressed payloads and the split-phase
    /// handles' result buffers. Used by the zero-allocation proofs.
    pub fn comm_pool_stats(&self) -> WorkspaceStats {
        self.pool.stats()
    }

    /// Resets the communication-workspace counters (buffers are kept).
    pub fn reset_comm_pool_stats(&mut self) {
        self.pool.reset_stats();
    }

    /// Tears the engine down, handing back the transport (and its cached
    /// connections) for the next run on the same fabric.
    pub fn into_transport(self) -> Box<dyn Transport> {
        self.transport
    }

    /// Gathers every rank's [`CommStats`] at the root, in rank order
    /// (`None` elsewhere). This is a transport-level side channel — nothing
    /// is billed on the simulated clocks — and the one source of the
    /// cluster-wide skew summary on every transport.
    pub fn gather_comm_stats(&mut self) -> Option<Vec<CommStats>> {
        if self.size == 1 {
            return Some(vec![self.stats]);
        }
        if self.rank == ROOT_RANK {
            let mut all = Vec::with_capacity(self.size);
            all.push(self.stats);
            let mut rx = std::mem::take(&mut self.scratch.rx);
            for peer in 1..self.size {
                self.transport.recv_into(peer, &mut rx);
                let stats = match wire::decode(&rx) {
                    Ok(wire::Frame::Raw { bytes }) => CommStats::from_le_bytes(bytes)
                        .unwrap_or_else(|e| panic!("stats gather: rank {peer} sent undecodable stats: {e}")),
                    Ok(wire::Frame::Error { message }) => panic!("{message}"),
                    Ok(other) => panic!("stats gather: rank {peer} sent an unexpected {other:?}"),
                    Err(e) => panic!("stats gather: corrupt frame from rank {peer}: {e}"),
                };
                all.push(stats);
            }
            self.scratch.rx = rx;
            Some(all)
        } else {
            let mut bytes = Vec::new();
            self.stats.to_le_bytes(&mut bytes);
            let mut tx = std::mem::take(&mut self.scratch.tx);
            wire::encode_raw(&mut tx, &bytes);
            self.transport.send(ROOT_RANK, &tx);
            self.scratch.tx = tx;
            None
        }
    }

    fn begin_round(&mut self) -> u64 {
        let r = self.rounds;
        self.rounds += 1;
        r
    }

    /// Bytes one payload element occupies on the simulated wire (8 without
    /// compression, 2 under f16/bf16). The network model — algorithm
    /// selection, crossover payloads, billed volume — sees this size.
    fn wire_bpe(&self) -> f64 {
        self.compression.wire_bytes_per_element()
    }

    /// Poisons the transport with `msg` (so peers blocked in a receive
    /// panic too instead of deadlocking in a round that can never
    /// complete) and panics with it.
    fn poison_and_panic(&mut self, msg: String) -> ! {
        self.transport.poison(&msg);
        panic!("{msg}");
    }

    /// Runs one collective round: contributes `give`, synchronises with
    /// every rank through the root, and leaves the round's result in
    /// `scratch.acc`. With `compress`, payload elements are rounded
    /// through the wire format first (staged in the pooled workspace) — the
    /// compress→send→decompress pipeline; every rank then observes the
    /// identical compressed values, including its own.
    ///
    /// The root folds contributions in fixed rank order with the same
    /// arithmetic regardless of the selected cost-model algorithm, and a
    /// tombstone folds exactly like an explicit all-zeros payload —
    /// bit-identity by construction in both cases.
    fn run_round(&mut self, op: RoundOp, give: Contribution<&[f64]>, compress: bool) -> RoundTiming {
        // Stage the outgoing payload through the wire format if requested
        // (pooled, so warm compressed rounds stay allocation-free).
        let staged = match give {
            Contribution::Data(data) if compress && !self.compression.is_identity() => {
                let compression = self.compression;
                let mut s = self.pool.acquire(data.len());
                for (w, &v) in s.iter_mut().zip(data) {
                    *w = compression.round(v);
                }
                Some(s)
            }
            _ => None,
        };
        let (payload, len, tombstone): (&[f64], usize, bool) = match (&staged, give) {
            (Some(s), _) => (s, s.len(), false),
            (None, Contribution::Data(data)) => (data, data.len(), false),
            (None, Contribution::Tombstone(len)) => (&[], len, true),
        };
        let timing = self.exchange(op, payload, len as u64, tombstone);
        if let Some(s) = staged {
            self.pool.release(s);
        }
        timing
    }

    /// The wire half of a round: `len_field` logical elements, carried by
    /// `payload` unless it is empty — a tombstone, or a broadcast receiver
    /// declaring the buffer length it expects back so the root can reject a
    /// mismatch before anyone copies.
    fn exchange(&mut self, op: RoundOp, payload: &[f64], len_field: u64, tombstone: bool) -> RoundTiming {
        let my_round = self.begin_round();
        let my_time = self.elapsed;
        if self.rank == ROOT_RANK {
            self.root_round(my_round, op, payload, len_field, tombstone, my_time)
        } else {
            self.peer_round(my_round, op, payload, len_field, tombstone, my_time)
        }
    }

    /// The root's side of a round: seed the fold with its own contribution,
    /// fold every peer's contribution in rank order, reply with the result.
    fn root_round(
        &mut self,
        my_round: u64,
        op: RoundOp,
        payload: &[f64],
        len_field: u64,
        tombstone: bool,
        my_time: f64,
    ) -> RoundTiming {
        let n = self.size;
        let acc = &mut self.scratch.acc;
        acc.clear();
        // Seed in rank order: the root's own contribution is slot 0. A
        // tombstone seeds explicit zeros — the identical bits a dead rank
        // used to deposit.
        if tombstone {
            acc.extend(std::iter::repeat_n(0.0, len_field as usize));
        } else {
            acc.extend_from_slice(payload);
        }
        let root_len = acc.len();
        // Completion is governed by the *latest* arrival — a straggling rank
        // delays everyone — and the max−min spread is the round's skew. The
        // folds mirror the rank-order iteration of the former in-process
        // rendezvous bit for bit.
        let mut max_time = 0.0f64.max(my_time);
        let mut min_time = f64::INFINITY.min(my_time);
        let mut rx = std::mem::take(&mut self.scratch.rx);
        let mut violation: Option<String> = None;
        'peers: for peer in 1..n {
            self.transport.recv_into(peer, &mut rx);
            nadmm_trace::instant(nadmm_trace::Tag::TransportSendRecv);
            let frame = match wire::decode(&rx) {
                Ok(f) => f,
                Err(e) => {
                    violation = Some(format!("collective protocol violation: corrupt frame from rank {peer}: {e}"));
                    break 'peers;
                }
            };
            let (round, peer_op, peer_tomb, time, len, peer_payload) = match frame {
                wire::Frame::Contribution {
                    round,
                    op,
                    tombstone,
                    time,
                    len,
                    payload,
                } => (round, op, tombstone, time, len, payload),
                wire::Frame::Error { message } => {
                    let message = message.to_string();
                    self.scratch.rx = rx;
                    self.poison_and_panic(message);
                }
                other => {
                    violation = Some(format!(
                        "collective protocol violation: rank {peer} sent {other:?} where a contribution was expected"
                    ));
                    break 'peers;
                }
            };
            if round != my_round {
                violation = Some(format!(
                    "collective-order violation: rank {peer} is in collective round {round} while rank 0 is in round {my_round}"
                ));
                break 'peers;
            }
            if peer_op != op {
                violation = Some(format!(
                    "collective-order violation: rank {peer} entered {peer_op:?} while rank 0 is executing {op:?}"
                ));
                break 'peers;
            }
            if peer_tomb && !matches!(op, RoundOp::Sum | RoundOp::Max | RoundOp::SumMax { .. }) {
                violation = Some(format!(
                    "collective protocol violation: rank {peer} sent a tombstone for {op:?}"
                ));
                break 'peers;
            }
            let contributed = if peer_tomb { len as usize } else { peer_payload.count() };
            match op {
                RoundOp::Sum | RoundOp::Max | RoundOp::SumMax { .. } => {
                    if contributed != root_len {
                        violation = Some(format!(
                            "collective-order violation: rank {peer} contributed {contributed} elements to {op:?}, \
                             expected {root_len} (as contributed by rank 0)"
                        ));
                        break 'peers;
                    }
                }
                RoundOp::CopyRoot => {
                    if len as usize != root_len {
                        violation = Some(format!(
                            "collective-order violation: rank {peer} supplied a broadcast buffer of {len} elements \
                             but the root broadcast {root_len}"
                        ));
                        break 'peers;
                    }
                }
                RoundOp::Barrier => {}
            }
            let acc = &mut self.scratch.acc;
            match op {
                RoundOp::Barrier | RoundOp::CopyRoot => {}
                RoundOp::Sum => {
                    if peer_tomb {
                        for a in acc.iter_mut() {
                            *a += 0.0;
                        }
                    } else {
                        for (i, a) in acc.iter_mut().enumerate() {
                            *a += peer_payload.get(i);
                        }
                    }
                }
                RoundOp::Max => {
                    if peer_tomb {
                        for a in acc.iter_mut() {
                            *a = a.max(0.0);
                        }
                    } else {
                        for (i, a) in acc.iter_mut().enumerate() {
                            *a = a.max(peer_payload.get(i));
                        }
                    }
                }
                RoundOp::SumMax { sum_len } => {
                    for (i, a) in acc.iter_mut().enumerate() {
                        let v = if peer_tomb { 0.0 } else { peer_payload.get(i) };
                        if i < sum_len {
                            *a += v;
                        } else {
                            *a = a.max(v);
                        }
                    }
                }
            }
            max_time = max_time.max(time);
            min_time = min_time.min(time);
        }
        self.scratch.rx = rx;
        if let Some(msg) = violation {
            self.poison_and_panic(msg);
        }
        // Reply with the folded result (peers that contributed after a
        // violation never get one — they panic on the poison notice).
        let mut tx = std::mem::take(&mut self.scratch.tx);
        wire::encode_result(&mut tx, my_round, max_time, min_time, &self.scratch.acc);
        for peer in 1..n {
            self.transport.send(peer, &tx);
            nadmm_trace::instant(nadmm_trace::Tag::TransportSendRecv);
        }
        self.scratch.tx = tx;
        RoundTiming { max_time, min_time }
    }

    /// A non-root rank's side of a round: contribute to the root, block on
    /// its result frame.
    fn peer_round(
        &mut self,
        my_round: u64,
        op: RoundOp,
        payload: &[f64],
        len_field: u64,
        tombstone: bool,
        my_time: f64,
    ) -> RoundTiming {
        let mut tx = std::mem::take(&mut self.scratch.tx);
        wire::encode_contribution(&mut tx, my_round, op, tombstone, my_time, len_field, payload);
        self.transport.send(ROOT_RANK, &tx);
        nadmm_trace::instant(nadmm_trace::Tag::TransportSendRecv);
        self.scratch.tx = tx;
        let mut rx = std::mem::take(&mut self.scratch.rx);
        self.transport.recv_into(ROOT_RANK, &mut rx);
        nadmm_trace::instant(nadmm_trace::Tag::TransportSendRecv);
        let timing = match wire::decode(&rx) {
            Ok(wire::Frame::Result {
                round,
                max_time,
                min_time,
                payload,
            }) => {
                if round != my_round {
                    let msg = format!(
                        "collective-order violation: rank {} received the result of round {round} while in round {my_round}",
                        self.rank
                    );
                    self.scratch.rx = rx;
                    self.poison_and_panic(msg);
                }
                let acc = &mut self.scratch.acc;
                acc.clear();
                payload.extend_into(acc);
                RoundTiming { max_time, min_time }
            }
            // The root (or a peer, relayed by its poison) hit a violation:
            // re-panic with the original message on this rank too.
            Ok(wire::Frame::Error { message }) => {
                let message = message.to_string();
                self.scratch.rx = rx;
                panic!("{message}");
            }
            Ok(other) => {
                let msg = format!("collective protocol violation: rank 0 sent {other:?} where a round result was expected");
                self.scratch.rx = rx;
                self.poison_and_panic(msg);
            }
            Err(e) => {
                let msg = format!("collective protocol violation: corrupt frame from rank 0: {e}");
                self.scratch.rx = rx;
                self.poison_and_panic(msg);
            }
        };
        self.scratch.rx = rx;
        timing
    }

    /// Charges one completed blocking collective: the rank's clock advances
    /// to `max(arrivals) + cost` — collectives complete at the *latest*
    /// arrival, so a straggling rank delays everyone — and the elapsed wall
    /// (including the straggler wait) is recorded against `kind`. The wait
    /// itself (`max(arrivals) − my arrival`) and the round's arrival spread
    /// feed the idle-wait/skew counters of [`CommStats`].
    /// `cost_bytes`, `sent`, and `received` are *on-wire* (post-compression)
    /// volumes; `logical_sent`/`logical_received` the full-width ones.
    #[allow(clippy::too_many_arguments)]
    fn bill_blocking(
        &mut self,
        kind: CollectiveKind,
        cost_bytes: f64,
        sent: f64,
        received: f64,
        logical_sent: f64,
        logical_received: f64,
        timing: RoundTiming,
    ) {
        let (algo, cost) = self.network.select(kind, self.size, cost_bytes, self.selector);
        let start = self.elapsed;
        self.stats
            .record_skew(timing.max_time - start, timing.max_time - timing.min_time);
        let finish = timing.max_time + cost;
        if finish > self.elapsed {
            self.elapsed = finish;
        }
        self.stats.record_collective_wire(
            kind,
            algo,
            sent,
            received,
            logical_sent,
            logical_received,
            self.elapsed - start,
        );
        if nadmm_trace::enabled() {
            // Split the round's billed wall into straggler wait (arrivals
            // later than this rank) and the collective's own cost, so the
            // trace clock lands exactly on the billed comm clock.
            let total = self.elapsed - start;
            let idle = (timing.max_time - start).clamp(0.0, total);
            nadmm_trace::sync_to(start);
            nadmm_trace::span_dur(nadmm_trace::Tag::IdleWait, idle);
            nadmm_trace::span_dur(
                nadmm_trace::Tag::CollectiveRound {
                    kind: trace_kind(kind),
                    algo: trace_algo(algo),
                },
                total - idle,
            );
        }
    }
}

impl Communicator for ClusterComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn barrier(&mut self) {
        let timing = self.run_round(RoundOp::Barrier, Contribution::Data(&[]), false);
        self.bill_blocking(CollectiveKind::Barrier, 0.0, 0.0, 0.0, 0.0, 0.0, timing);
    }

    // ------------------------------------------------------------------
    // In-place collectives: zero heap allocations once the engine scratch
    // is warm.
    // ------------------------------------------------------------------

    fn allreduce_sum_into(&mut self, buf: &mut [f64]) {
        let logical = buf.len() as f64 * F64_BYTES;
        let wire = buf.len() as f64 * self.wire_bpe();
        let timing = self.run_round(RoundOp::Sum, Contribution::Data(buf), true);
        buf.copy_from_slice(&self.scratch.acc);
        self.bill_blocking(CollectiveKind::Allreduce, wire, wire, wire, logical, logical, timing);
    }

    fn allreduce_max_into(&mut self, buf: &mut [f64]) {
        let logical = buf.len() as f64 * F64_BYTES;
        let wire = buf.len() as f64 * self.wire_bpe();
        let timing = self.run_round(RoundOp::Max, Contribution::Data(buf), true);
        buf.copy_from_slice(&self.scratch.acc);
        self.bill_blocking(CollectiveKind::Allreduce, wire, wire, wire, logical, logical, timing);
    }

    fn reduce_sum_root_into(&mut self, buf: Contribution<&mut [f64]>) -> bool {
        let logical = buf.len() as f64 * F64_BYTES;
        let wire = buf.len() as f64 * self.wire_bpe();
        let peers = self.size as f64 - 1.0;
        let is_root = self.rank == ROOT_RANK;
        let timing = self.run_round(RoundOp::Sum, buf.as_slice(), true);
        // A tombstoning root has no buffer to fill: the sum is discarded.
        if let (true, Contribution::Data(buf)) = (is_root, buf) {
            buf.copy_from_slice(&self.scratch.acc);
        }
        let (received, logical_received) = if is_root {
            (wire * peers, logical * peers)
        } else {
            (0.0, 0.0)
        };
        self.bill_blocking(
            CollectiveKind::Reduce,
            wire,
            wire,
            received,
            logical,
            logical_received,
            timing,
        );
        is_root
    }

    fn broadcast_root_into(&mut self, buf: &mut [f64]) {
        let is_root = self.rank == ROOT_RANK;
        let sent = if is_root { buf.len() as f64 * self.wire_bpe() } else { 0.0 };
        let logical_sent = if is_root { buf.len() as f64 * F64_BYTES } else { 0.0 };
        // Under compression the root must read back its own compressed
        // payload too: its buffer holds full-width values the other ranks
        // will never see, and broadcast leaves every rank bit-identical.
        let root_copies = !self.compression.is_identity();
        // Non-root ranks declare their buffer length on an otherwise empty
        // contribution frame; the root validates it against its payload and
        // poisons the round on a mismatch, so every rank panics instead of
        // deadlocking.
        let timing = if is_root {
            self.run_round(RoundOp::CopyRoot, Contribution::Data(buf), true)
        } else {
            self.exchange(RoundOp::CopyRoot, &[], buf.len() as u64, false)
        };
        if !is_root || root_copies {
            buf.copy_from_slice(&self.scratch.acc);
        }
        let wire = buf.len() as f64 * self.wire_bpe();
        let logical = buf.len() as f64 * F64_BYTES;
        let (received, logical_received) = if is_root { (0.0, 0.0) } else { (wire, logical) };
        self.bill_blocking(
            CollectiveKind::Broadcast,
            wire,
            sent,
            received,
            logical_sent,
            logical_received,
            timing,
        );
    }

    // ------------------------------------------------------------------
    // Split-phase collectives: the data exchange happens at `start` (the
    // round synchronises the ranks), but the *simulated clock* is only
    // advanced at `wait`, so compute issued in between overlaps with the
    // collective and only the non-overlapped tail is billed.
    // ------------------------------------------------------------------

    /// Round skew is recorded at start; idle wait is not (a split-phase
    /// collective's wait is deliberately overlapped with compute).
    fn start_allreduce_sum_max(&mut self, data: Contribution<&[f64]>, sum_len: usize) -> CollectiveHandle {
        let len = data.len();
        assert!(
            sum_len <= len,
            "start_allreduce_sum_max: sum_len {sum_len} exceeds payload length {len}"
        );
        let logical = len as f64 * F64_BYTES;
        let wire = len as f64 * self.wire_bpe();
        let (algo, cost) = self.network.select(CollectiveKind::Allreduce, self.size, wire, self.selector);
        let timing = self.run_round(RoundOp::SumMax { sum_len }, data, true);
        let mut result = self.pool.acquire(len);
        result.copy_from_slice(&self.scratch.acc);
        self.stats.record_skew(0.0, timing.max_time - timing.min_time);
        CollectiveHandle::new(result, timing.max_time + cost, CollectiveKind::Allreduce, algo, wire, wire)
            .with_logical_bytes(logical, logical)
    }

    fn wait_into(&mut self, handle: CollectiveHandle, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            handle.result.len(),
            "wait_into: output buffer length {} != collective result length {}",
            out.len(),
            handle.result.len()
        );
        out.copy_from_slice(&handle.result);
        let start = self.elapsed;
        if handle.complete_at > self.elapsed {
            self.elapsed = handle.complete_at;
        }
        self.stats.record_collective_wire(
            handle.kind,
            handle.algo,
            handle.sent_bytes,
            handle.recv_bytes,
            handle.logical_sent_bytes,
            handle.logical_recv_bytes,
            self.elapsed - start,
        );
        if nadmm_trace::enabled() && self.elapsed > start {
            // The un-overlapped tail of a split-phase collective: compute
            // did not fully hide it, so the wait surfaces on the timeline.
            nadmm_trace::sync_to(start);
            nadmm_trace::span_dur(
                nadmm_trace::Tag::CollectiveRound {
                    kind: trace_kind(handle.kind),
                    algo: trace_algo(handle.algo),
                },
                self.elapsed - start,
            );
        }
        self.pool.release(handle.result);
    }

    fn advance_compute(&mut self, dt: f64) {
        // The straggler factor scales compute only; communication costs are
        // charged unscaled (the fabric is shared). On a homogeneous cluster
        // the scale is exactly 1.0 and `dt * 1.0 == dt` bit-for-bit.
        let dt = dt.max(0.0) * self.compute_scale;
        self.elapsed += dt;
        self.stats.record_compute(dt);
        // Re-anchor the trace clock to the billed comm clock: on a straggler
        // the scaled charge exceeds the raw device time the kernel spans
        // already advanced, and the forward clamp absorbs the difference.
        nadmm_trace::sync_to(self.elapsed);
    }

    fn elapsed(&self) -> f64 {
        self.elapsed
    }

    fn stats(&self) -> CommStats {
        self.stats
    }
}
