//! Per-rank communication statistics, with a per-collective-kind breakdown.

use crate::network::{CollectiveAlgorithm, CollectiveKind};
use serde::{Deserialize, Serialize};

/// Counters for one collective kind (allreduce, broadcast, …): how often it
/// ran, how much it moved, how long it took, and which algorithms the
/// selector chose for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct KindStats {
    /// Number of collectives of this kind.
    pub count: u64,
    /// Payload bytes this rank contributed.
    pub bytes_sent: f64,
    /// Payload bytes this rank received.
    pub bytes_received: f64,
    /// Simulated seconds spent (for split-phase collectives: only the
    /// non-overlapped tail billed at `wait`).
    pub seconds: f64,
    /// How often each [`CollectiveAlgorithm`] was chosen, indexed by
    /// [`CollectiveAlgorithm::index`].
    pub algo_counts: [u64; CollectiveAlgorithm::COUNT],
}

impl KindStats {
    /// The most frequently chosen algorithm for this kind, if any ran.
    pub fn dominant_algorithm(&self) -> Option<CollectiveAlgorithm> {
        CollectiveAlgorithm::ALL
            .into_iter()
            .max_by_key(|a| self.algo_counts[a.index()])
            .filter(|a| self.algo_counts[a.index()] > 0)
    }
}

/// Counters describing everything a rank has communicated. The figure
/// binaries use these to report "rounds per iteration" and "bytes per
/// iteration" — the quantities the paper's communication argument is about —
/// and the per-kind breakdown shows *where* the communication time goes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CommStats {
    /// Number of collective operations this rank participated in.
    pub collectives: u64,
    /// Total *on-wire* payload bytes this rank contributed to collectives
    /// (after any [`crate::Compression`]; equal to the logical counters when
    /// compression is off).
    pub bytes_sent: f64,
    /// Total *on-wire* payload bytes this rank received from collectives.
    pub bytes_received: f64,
    /// Total full-width (`f64`, pre-compression) payload bytes this rank
    /// contributed — the logical volume the solver asked to move. The gap to
    /// [`CommStats::bytes_sent`] is what wire compression saved.
    pub logical_bytes_sent: f64,
    /// Total full-width payload bytes this rank received.
    pub logical_bytes_received: f64,
    /// Simulated seconds spent inside communication calls.
    pub comm_time: f64,
    /// Simulated seconds spent in local compute (as charged by the caller).
    pub compute_time: f64,
    /// Simulated seconds this rank spent idle at *blocking* collectives,
    /// waiting for later-arriving ranks before the transfer could start.
    /// A fast rank in a heterogeneous fleet accumulates a large value here;
    /// the slowest rank accumulates (nearly) none. Split-phase collectives
    /// are excluded: their wait is deliberately overlapped with compute, so
    /// attributing it as idle time would double-count.
    pub idle_wait_time: f64,
    /// Largest per-round arrival skew (latest minus earliest rank arrival,
    /// in simulated seconds) observed across every rendezvous this rank
    /// participated in — the headline "how uneven is this fleet" number.
    pub max_round_skew: f64,
    /// Per-collective-kind breakdown, indexed by [`CollectiveKind::index`].
    pub per_kind: [KindStats; CollectiveKind::COUNT],
}

impl CommStats {
    /// Records one collective of a known kind and algorithm. `sent` and
    /// `received` are on-wire bytes, `logical_*` the full-width bytes they
    /// stand for (equal when the payload was not compressed). The per-kind
    /// breakdown tracks the on-wire volume (what the network actually
    /// carried).
    #[allow(clippy::too_many_arguments)]
    pub fn record_collective_wire(
        &mut self,
        kind: CollectiveKind,
        algo: CollectiveAlgorithm,
        sent: f64,
        received: f64,
        logical_sent: f64,
        logical_received: f64,
        time: f64,
    ) {
        self.collectives += 1;
        self.bytes_sent += sent;
        self.bytes_received += received;
        self.logical_bytes_sent += logical_sent;
        self.logical_bytes_received += logical_received;
        self.comm_time += time;
        let k = &mut self.per_kind[kind.index()];
        k.count += 1;
        k.bytes_sent += sent;
        k.bytes_received += received;
        k.seconds += time;
        k.algo_counts[algo.index()] += 1;
    }

    /// On-wire fraction of the logical sent volume: 1.0 when nothing was
    /// compressed (or nothing was sent), 0.25 when every payload went over
    /// the wire as f16.
    pub fn wire_fraction(&self) -> f64 {
        if self.logical_bytes_sent > 0.0 {
            self.bytes_sent / self.logical_bytes_sent
        } else {
            1.0
        }
    }

    /// The breakdown entry for one collective kind.
    pub fn kind(&self, kind: CollectiveKind) -> &KindStats {
        &self.per_kind[kind.index()]
    }

    /// Records local compute time.
    pub fn record_compute(&mut self, time: f64) {
        self.compute_time += time;
    }

    /// Records the straggler accounting of one rendezvous round: `wait` is
    /// how long this rank sat idle before the last rank arrived, `skew` is
    /// the round's arrival spread (latest − earliest).
    pub fn record_skew(&mut self, wait: f64, skew: f64) {
        self.idle_wait_time += wait.max(0.0);
        if skew > self.max_round_skew {
            self.max_round_skew = skew;
        }
    }

    /// Total simulated time attributable to this rank.
    pub fn total_time(&self) -> f64 {
        self.comm_time + self.compute_time
    }

    /// Fraction of total time spent communicating (0 if nothing recorded).
    pub fn comm_fraction(&self) -> f64 {
        let total = self.total_time();
        if total > 0.0 {
            self.comm_time / total
        } else {
            0.0
        }
    }

    /// Exact size of the fixed little-endian layout written by
    /// [`CommStats::to_le_bytes`].
    pub const LE_BYTES: usize = 9 * 8 + CollectiveKind::COUNT * (8 * (1 + 3 + CollectiveAlgorithm::COUNT));

    /// Serialises the counters into a fixed little-endian byte layout
    /// (fields in declaration order, `f64` via its IEEE bit pattern) — the
    /// transport side channel the multi-process stats gather uses. Clears
    /// `out` first; capacity is kept.
    pub fn to_le_bytes(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.collectives.to_le_bytes());
        for v in [
            self.bytes_sent,
            self.bytes_received,
            self.logical_bytes_sent,
            self.logical_bytes_received,
            self.comm_time,
            self.compute_time,
            self.idle_wait_time,
            self.max_round_skew,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for k in &self.per_kind {
            out.extend_from_slice(&k.count.to_le_bytes());
            for v in [k.bytes_sent, k.bytes_received, k.seconds] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for c in &k.algo_counts {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        debug_assert_eq!(out.len(), Self::LE_BYTES);
    }

    /// Reverses [`CommStats::to_le_bytes`] bit-exactly. Errors (with a
    /// description) on a size mismatch rather than guessing.
    pub fn from_le_bytes(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() != Self::LE_BYTES {
            return Err(format!(
                "CommStats: expected exactly {} serialized bytes, got {}",
                Self::LE_BYTES,
                bytes.len()
            ));
        }
        let mut at = 0usize;
        let mut next_u64 = || {
            let v = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("stats counter field is 8 bytes"));
            at += 8;
            v
        };
        let mut s = CommStats {
            collectives: next_u64(),
            bytes_sent: f64::from_bits(next_u64()),
            bytes_received: f64::from_bits(next_u64()),
            logical_bytes_sent: f64::from_bits(next_u64()),
            logical_bytes_received: f64::from_bits(next_u64()),
            comm_time: f64::from_bits(next_u64()),
            compute_time: f64::from_bits(next_u64()),
            idle_wait_time: f64::from_bits(next_u64()),
            max_round_skew: f64::from_bits(next_u64()),
            per_kind: [KindStats::default(); CollectiveKind::COUNT],
        };
        for k in s.per_kind.iter_mut() {
            k.count = next_u64();
            k.bytes_sent = f64::from_bits(next_u64());
            k.bytes_received = f64::from_bits(next_u64());
            k.seconds = f64::from_bits(next_u64());
            for c in k.algo_counts.iter_mut() {
                *c = next_u64();
            }
        }
        Ok(s)
    }

    /// Pre-formatted rows for a "where does communication time go" table:
    /// `[kind, count, bytes sent, seconds, dominant algorithm]` for every
    /// kind that ran at least once.
    pub fn breakdown_rows(&self) -> Vec<[String; 5]> {
        CollectiveKind::ALL
            .into_iter()
            .filter(|k| self.kind(*k).count > 0)
            .map(|k| {
                let s = self.kind(k);
                [
                    k.name().to_string(),
                    s.count.to_string(),
                    format!("{:.0}", s.bytes_sent),
                    format!("{:.6}", s.seconds),
                    s.dominant_algorithm().map(|a| a.name()).unwrap_or("-").to_string(),
                ]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CollectiveAlgorithm::{BinomialTree, Ring};
    use CollectiveKind::{Allreduce, Broadcast, Reduce};

    /// Records one uncompressed collective: wire and logical bytes agree.
    fn record(s: &mut CommStats, kind: CollectiveKind, algo: CollectiveAlgorithm, sent: f64, received: f64, time: f64) {
        s.record_collective_wire(kind, algo, sent, received, sent, received, time);
    }

    #[test]
    fn record_accumulates() {
        let mut s = CommStats::default();
        record(&mut s, Allreduce, Ring, 100.0, 200.0, 0.5);
        record(&mut s, Broadcast, BinomialTree, 50.0, 0.0, 0.25);
        s.record_compute(0.25);
        assert_eq!(s.collectives, 2);
        assert_eq!(s.bytes_sent, 150.0);
        assert_eq!(s.bytes_received, 200.0);
        assert!((s.comm_time - 0.75).abs() < 1e-12);
        assert!((s.total_time() - 1.0).abs() < 1e-12);
        assert!((s.comm_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn uncompressed_records_keep_logical_and_wire_counters_equal() {
        let mut s = CommStats::default();
        record(&mut s, Reduce, BinomialTree, 100.0, 200.0, 0.5);
        record(&mut s, Allreduce, Ring, 80.0, 80.0, 1e-4);
        assert_eq!(s.logical_bytes_sent, s.bytes_sent);
        assert_eq!(s.logical_bytes_received, s.bytes_received);
        assert_eq!(s.wire_fraction(), 1.0);
    }

    #[test]
    fn compressed_records_track_wire_and_logical_volume_separately() {
        let mut s = CommStats::default();
        // 100 f64 elements sent as f16: 800 logical bytes, 200 on the wire.
        s.record_collective_wire(
            CollectiveKind::Allreduce,
            CollectiveAlgorithm::Ring,
            200.0,
            200.0,
            800.0,
            800.0,
            1e-4,
        );
        assert_eq!(s.bytes_sent, 200.0);
        assert_eq!(s.logical_bytes_sent, 800.0);
        assert_eq!(s.bytes_received, 200.0);
        assert_eq!(s.logical_bytes_received, 800.0);
        assert_eq!(s.wire_fraction(), 0.25);
        // The per-kind breakdown carries the on-wire volume.
        assert_eq!(s.kind(CollectiveKind::Allreduce).bytes_sent, 200.0);
    }

    #[test]
    fn empty_stats_have_zero_fraction() {
        let s = CommStats::default();
        assert_eq!(s.comm_fraction(), 0.0);
        assert_eq!(s.total_time(), 0.0);
        assert!(s.breakdown_rows().is_empty());
        assert_eq!(s.idle_wait_time, 0.0);
        assert_eq!(s.max_round_skew, 0.0);
    }

    #[test]
    fn skew_accumulates_waits_and_keeps_the_worst_round() {
        let mut s = CommStats::default();
        s.record_skew(0.5, 0.7);
        s.record_skew(0.25, 0.3);
        s.record_skew(-1.0, 0.0); // negative waits are clamped, not subtracted
        assert!((s.idle_wait_time - 0.75).abs() < 1e-12);
        assert_eq!(s.max_round_skew, 0.7);
    }

    #[test]
    fn per_kind_breakdown_attributes_collectives() {
        let mut s = CommStats::default();
        record(&mut s, Allreduce, Ring, 80.0, 80.0, 1e-4);
        record(&mut s, Allreduce, Ring, 80.0, 80.0, 1e-4);
        record(&mut s, Allreduce, BinomialTree, 8.0, 8.0, 1e-6);
        record(&mut s, Broadcast, BinomialTree, 0.0, 40.0, 2e-5);
        assert_eq!(s.collectives, 4);
        let ar = s.kind(CollectiveKind::Allreduce);
        assert_eq!(ar.count, 3);
        assert_eq!(ar.bytes_sent, 168.0);
        assert_eq!(ar.algo_counts[CollectiveAlgorithm::Ring.index()], 2);
        assert_eq!(ar.algo_counts[CollectiveAlgorithm::BinomialTree.index()], 1);
        assert_eq!(ar.dominant_algorithm(), Some(CollectiveAlgorithm::Ring));
        assert_eq!(s.kind(CollectiveKind::Broadcast).count, 1);
        assert_eq!(s.kind(CollectiveKind::Gather).count, 0);
        let rows = s.breakdown_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][0], "allreduce");
        assert_eq!(rows[1][4], "ring");
    }

    #[test]
    fn dominant_algorithm_is_none_when_kind_never_ran() {
        let s = KindStats::default();
        assert_eq!(s.dominant_algorithm(), None);
    }

    #[test]
    fn le_bytes_round_trip_is_bit_exact() {
        let mut s = CommStats::default();
        s.record_collective_wire(
            CollectiveKind::Allreduce,
            CollectiveAlgorithm::Ring,
            200.0,
            200.0,
            800.0,
            800.0,
            1e-4,
        );
        record(&mut s, Broadcast, BinomialTree, 0.0, 40.0, 2e-5);
        s.record_compute(0.125);
        s.record_skew(0.5, 0.7);
        // Adversarial values must survive bit-exactly too.
        s.max_round_skew = f64::MIN_POSITIVE / 2.0; // subnormal
        s.idle_wait_time = -0.0;
        let mut bytes = Vec::new();
        s.to_le_bytes(&mut bytes);
        assert_eq!(bytes.len(), CommStats::LE_BYTES);
        let back = CommStats::from_le_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.idle_wait_time.to_bits(), s.idle_wait_time.to_bits());
        assert_eq!(back.max_round_skew.to_bits(), s.max_round_skew.to_bits());
    }

    #[test]
    fn le_bytes_rejects_wrong_sizes() {
        let err = CommStats::from_le_bytes(&[0u8; 3]).unwrap_err();
        assert!(err.contains("expected exactly"), "got: {err}");
    }
}
