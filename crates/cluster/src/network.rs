//! Latency/bandwidth network cost model with a pluggable collective-algorithm
//! layer.
//!
//! Every collective can be executed by several classical algorithms whose
//! α+β costs differ in how they trade *latency rounds* against *bandwidth
//! volume*: a binomial tree finishes in ⌈log₂N⌉ rounds but re-sends the whole
//! payload at every level, while a ring allreduce needs 2(N−1) rounds but
//! moves only 2(N−1)/N of the payload per rank — bandwidth-optimal, and the
//! winner for the large d×k parameter vectors the Newton-ADMM outer loop
//! reduces. [`NetworkModel::select`] picks the cheapest algorithm for a given
//! payload size (the *crossover* rule), unless a [`CollectiveSelector`]
//! forces one (configurable per [`crate::Cluster`] or via the
//! `NADMM_COLLECTIVE_ALGO` environment variable).
//!
//! The algorithm menu prices the *simulated clock* only. On the wire, every
//! round on either transport backend is a star through rank 0 (see
//! [`crate::engine`]), so every algorithm is bit-identical by construction
//! (and the cluster test-suite asserts it). `Gather`, `Scatter` and
//! `Allgather` are priced here and keep their slots in [`crate::CommStats`],
//! though no communicator method issues them.

use serde::{Deserialize, Serialize};

/// Environment variable overriding the collective-algorithm selection
/// (`naive`, `tree`, `ring`, `rhd`, or `auto`).
pub const COLLECTIVE_ALGO_ENV: &str = "NADMM_COLLECTIVE_ALGO";

/// Environment variable overriding the wire compression of collective
/// payloads (`none`, `f16`, or `bf16`).
pub const COMPRESSION_ENV: &str = "NADMM_COMPRESSION";

/// The collective operations the communicator layer charges for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// Synchronisation only, no payload.
    Barrier,
    /// Root's payload delivered to every rank.
    Broadcast,
    /// Element-wise reduction landing on the root.
    Reduce,
    /// Element-wise reduction available on every rank.
    Allreduce,
    /// Per-rank payloads collected at the root.
    Gather,
    /// Per-rank payloads distributed from the root.
    Scatter,
    /// Per-rank payloads collected on every rank.
    Allgather,
}

impl CollectiveKind {
    /// Number of collective kinds (size of per-kind stat arrays).
    pub const COUNT: usize = 7;

    /// All kinds, in [`CollectiveKind::index`] order.
    pub const ALL: [CollectiveKind; Self::COUNT] = [
        CollectiveKind::Barrier,
        CollectiveKind::Broadcast,
        CollectiveKind::Reduce,
        CollectiveKind::Allreduce,
        CollectiveKind::Gather,
        CollectiveKind::Scatter,
        CollectiveKind::Allgather,
    ];

    /// Stable index into per-kind arrays.
    pub fn index(self) -> usize {
        match self {
            CollectiveKind::Barrier => 0,
            CollectiveKind::Broadcast => 1,
            CollectiveKind::Reduce => 2,
            CollectiveKind::Allreduce => 3,
            CollectiveKind::Gather => 4,
            CollectiveKind::Scatter => 5,
            CollectiveKind::Allgather => 6,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Broadcast => "broadcast",
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::Allreduce => "allreduce",
            CollectiveKind::Gather => "gather",
            CollectiveKind::Scatter => "scatter",
            CollectiveKind::Allgather => "allgather",
        }
    }
}

/// The algorithm executing a collective (cost-model level; the simulated data
/// path is identical for all of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveAlgorithm {
    /// Star topology through the root: `N−1` sequential point-to-points.
    Naive,
    /// Binomial tree: `⌈log₂N⌉` rounds, full payload per round.
    BinomialTree,
    /// Ring (reduce-scatter + allgather): `2(N−1)` rounds, bandwidth-optimal
    /// `2(N−1)/N` payload fractions.
    Ring,
    /// Recursive halving-doubling (butterfly): `2⌈log₂N⌉` rounds at the
    /// bandwidth-optimal volume; non-power-of-two rank counts pay one extra
    /// full exchange to fold the remainder ranks in.
    RecursiveHalvingDoubling,
}

impl CollectiveAlgorithm {
    /// Number of algorithms (size of per-algorithm stat arrays).
    pub const COUNT: usize = 4;

    /// All algorithms, in [`CollectiveAlgorithm::index`] order. Ties in the
    /// automatic selection resolve to the earliest entry.
    pub const ALL: [CollectiveAlgorithm; Self::COUNT] = [
        CollectiveAlgorithm::Naive,
        CollectiveAlgorithm::BinomialTree,
        CollectiveAlgorithm::Ring,
        CollectiveAlgorithm::RecursiveHalvingDoubling,
    ];

    /// Stable index into per-algorithm arrays.
    pub fn index(self) -> usize {
        match self {
            CollectiveAlgorithm::Naive => 0,
            CollectiveAlgorithm::BinomialTree => 1,
            CollectiveAlgorithm::Ring => 2,
            CollectiveAlgorithm::RecursiveHalvingDoubling => 3,
        }
    }

    /// Short name used in reports and the env override.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveAlgorithm::Naive => "naive",
            CollectiveAlgorithm::BinomialTree => "tree",
            CollectiveAlgorithm::Ring => "ring",
            CollectiveAlgorithm::RecursiveHalvingDoubling => "rhd",
        }
    }

    /// Parses a [`CollectiveAlgorithm::name`] (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "naive" | "star" => Some(CollectiveAlgorithm::Naive),
            "tree" | "binomial" => Some(CollectiveAlgorithm::BinomialTree),
            "ring" => Some(CollectiveAlgorithm::Ring),
            "rhd" | "halving-doubling" | "butterfly" => Some(CollectiveAlgorithm::RecursiveHalvingDoubling),
            _ => None,
        }
    }
}

/// How a communicator picks the algorithm for each collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CollectiveSelector {
    /// Pick the cheapest algorithm for the payload size (crossover rule).
    #[default]
    Auto,
    /// Always use one algorithm (ablations / the bit-identity tests).
    Force(CollectiveAlgorithm),
}

impl CollectiveSelector {
    /// Parses `auto` or a [`CollectiveAlgorithm::parse`] name.
    pub fn parse(s: &str) -> Option<Self> {
        if s.trim().eq_ignore_ascii_case("auto") {
            Some(CollectiveSelector::Auto)
        } else {
            CollectiveAlgorithm::parse(s).map(CollectiveSelector::Force)
        }
    }

    /// Reads the [`COLLECTIVE_ALGO_ENV`] override, defaulting to `Auto` when
    /// the variable is unset.
    ///
    /// # Panics
    /// Panics when the variable is set to an unparseable value, naming the
    /// bad value and the accepted spellings. A typo in
    /// `NADMM_COLLECTIVE_ALGO` used to silently fall back to `Auto`, which
    /// turns an intended ablation into a wrong experiment — failing loudly
    /// is the only safe behaviour.
    pub fn from_env() -> Self {
        match std::env::var(COLLECTIVE_ALGO_ENV) {
            Ok(raw) => Self::parse_env_value(&raw),
            Err(std::env::VarError::NotPresent) => Self::default(),
            Err(std::env::VarError::NotUnicode(raw)) => {
                panic!("{COLLECTIVE_ALGO_ENV} is set to a non-UTF-8 value ({raw:?}); {ACCEPTED_SPELLINGS}")
            }
        }
    }

    /// Parses the value of the [`COLLECTIVE_ALGO_ENV`] override, panicking
    /// with the accepted spellings when it does not name a selection.
    pub fn parse_env_value(raw: &str) -> Self {
        Self::parse(raw)
            .unwrap_or_else(|| panic!("{COLLECTIVE_ALGO_ENV}='{raw}' does not name a collective selection; {ACCEPTED_SPELLINGS}"))
    }
}

/// The spellings [`CollectiveSelector::parse`] accepts, for error messages.
const ACCEPTED_SPELLINGS: &str = "accepted values: auto, naive (star), tree (binomial), ring, rhd (halving-doubling, butterfly)";

/// Wire compression applied to collective payloads (gradient/parameter
/// compression).
///
/// Under compression every rank rounds its contribution through the reduced
/// wire format before it is exchanged — exactly the compress→send→decompress
/// pipeline of gradient-compression allreduce — and the reduction itself runs
/// at full width on the decompressed values, so the *result* is always a
/// full-width `f64` vector. Every rank observes the identical compressed
/// payloads (including its own contribution), which keeps the consensus
/// state bit-identical across ranks.
///
/// The on-wire footprint is what the network model sees: payload bytes are
/// billed at [`Compression::wire_bytes_per_element`], so compressed
/// collectives cost less and their tree↔ring crossover payloads shift
/// accordingly. [`Compression::None`] bills the full 8 bytes per `f64` and
/// leaves every payload untouched — bit-identical to the uncompressed
/// communicator by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Compression {
    /// Full-width `f64` on the wire (the default; bit-identical data path).
    #[default]
    None,
    /// IEEE 754 binary16 on the wire: 2 bytes per element, ~3 decimal digits.
    F16,
    /// bfloat16 on the wire: 2 bytes per element, f32's exponent range at
    /// ~2 decimal digits.
    Bf16,
}

impl Compression {
    /// All policies, for exhaustive tests.
    pub const ALL: [Compression; 3] = [Compression::None, Compression::F16, Compression::Bf16];

    /// The spellings [`Compression::parse`] accepts, for error messages.
    pub const ACCEPTED_SPELLINGS: &'static str = "none (off, f64), f16 (fp16, half), bf16 (bfloat16)";

    /// Short name used in reports, specs, and the env override.
    pub fn name(self) -> &'static str {
        match self {
            Compression::None => "none",
            Compression::F16 => "f16",
            Compression::Bf16 => "bf16",
        }
    }

    /// Parses a [`Compression::name`] or one of its aliases
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "none" | "off" | "f64" => Some(Compression::None),
            "f16" | "fp16" | "half" => Some(Compression::F16),
            "bf16" | "bfloat16" => Some(Compression::Bf16),
            _ => None,
        }
    }

    /// Bytes one payload element occupies on the simulated wire (8 for the
    /// uncompressed `f64` path, 2 for the half-precision formats). This is
    /// the size the network model bills and the crossover rule sees.
    pub fn wire_bytes_per_element(self) -> f64 {
        match self {
            Compression::None => 8.0,
            Compression::F16 | Compression::Bf16 => 2.0,
        }
    }

    /// Rounds one value through the wire format (identity for
    /// [`Compression::None`]).
    pub fn round(self, x: f64) -> f64 {
        match self {
            Compression::None => x,
            Compression::F16 => nadmm_linalg::half::round_f16(x),
            Compression::Bf16 => nadmm_linalg::half::round_bf16(x),
        }
    }

    /// Whether payloads cross the wire untouched.
    pub fn is_identity(self) -> bool {
        self == Compression::None
    }

    /// Reads the [`COMPRESSION_ENV`] override, defaulting to
    /// [`Compression::None`] when the variable is unset.
    ///
    /// # Panics
    /// Panics when the variable is set to an unparseable value, naming the
    /// bad value and the accepted spellings — a typo must not silently run
    /// the uncompressed experiment (the `NADMM_COLLECTIVE_ALGO` parser
    /// applies the same rule).
    pub fn from_env() -> Self {
        match std::env::var(COMPRESSION_ENV) {
            Ok(raw) => Self::parse_env_value(&raw),
            Err(std::env::VarError::NotPresent) => Self::default(),
            Err(std::env::VarError::NotUnicode(raw)) => {
                panic!(
                    "{COMPRESSION_ENV} is set to a non-UTF-8 value ({raw:?}); accepted values: {}",
                    Self::ACCEPTED_SPELLINGS
                )
            }
        }
    }

    /// Parses the value of the [`COMPRESSION_ENV`] override, panicking with
    /// the accepted spellings when it does not name a policy.
    pub fn parse_env_value(raw: &str) -> Self {
        Self::parse(raw).unwrap_or_else(|| {
            panic!(
                "{COMPRESSION_ENV}='{raw}' does not name a compression policy; accepted values: {}",
                Self::ACCEPTED_SPELLINGS
            )
        })
    }
}

impl Serialize for Compression {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

impl Deserialize for Compression {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            // Pre-compression specs omit the field entirely; the shim hands
            // deserializers `Null` for missing keys.
            serde::Value::Null => Ok(Compression::default()),
            serde::Value::Str(s) => Compression::parse(s).ok_or_else(|| {
                serde::DeError(format!(
                    "`{s}` does not name a compression policy; accepted values: {}",
                    Compression::ACCEPTED_SPELLINGS
                ))
            }),
            other => Err(serde::DeError::expected("compression string", other)),
        }
    }
}

/// α+β cost model of the interconnect.
///
/// A point-to-point message of `b` bytes costs `latency + b / bandwidth`
/// seconds; collectives are charged per algorithm through
/// [`NetworkModel::collective_cost`] / [`NetworkModel::select`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Human-readable name of the fabric.
    pub name: &'static str,
    /// One-way message latency in seconds (α).
    pub latency: f64,
    /// Link bandwidth in bytes per second (1/β).
    pub bandwidth: f64,
}

impl NetworkModel {
    /// 100 Gbps Infiniband (the paper's cluster): ~1.5 µs latency,
    /// 100 Gbit/s ≈ 12.5 GB/s.
    pub fn infiniband_100g() -> Self {
        Self {
            name: "infiniband-100g",
            latency: 1.5e-6,
            bandwidth: 12.5e9,
        }
    }

    /// 10 Gbps Ethernet: ~50 µs latency, 1.25 GB/s. Used in the "slower
    /// interconnect" ablation the paper discusses qualitatively.
    pub fn ethernet_10g() -> Self {
        Self {
            name: "ethernet-10g",
            latency: 50.0e-6,
            bandwidth: 1.25e9,
        }
    }

    /// 1 Gbps Ethernet: ~100 µs latency, 125 MB/s — the "high latency, low
    /// bandwidth" environment where single-round methods shine.
    pub fn ethernet_1g() -> Self {
        Self {
            name: "ethernet-1g",
            latency: 100.0e-6,
            bandwidth: 125.0e6,
        }
    }

    /// An idealised zero-cost network (useful to isolate compute behaviour).
    pub fn ideal() -> Self {
        Self {
            name: "ideal",
            latency: 0.0,
            bandwidth: f64::INFINITY,
        }
    }

    fn per_byte(&self, bytes: f64) -> f64 {
        if self.bandwidth.is_infinite() {
            0.0
        } else {
            bytes / self.bandwidth
        }
    }

    /// Number of tree rounds for `n` participants.
    pub fn tree_depth(n: usize) -> f64 {
        if n <= 1 {
            0.0
        } else {
            (n as f64).log2().ceil()
        }
    }

    /// The `(latency_multiplier, bandwidth_multiplier)` of one collective:
    /// `cost = lm·α + bm·(bytes/B)`. Both terms are affine in the payload,
    /// which is what makes the crossover payload size between two algorithms
    /// solvable in closed form ([`NetworkModel::crossover_bytes`]).
    ///
    /// With `L = ⌈log₂N⌉`, `m = N−1`, `r = (N−1)/N`:
    ///
    /// | kind       | naive      | tree       | ring            | rhd            |
    /// |------------|------------|------------|-----------------|----------------|
    /// | barrier    | (2m, 0)    | (2L, 0)    | (N, 0)          | (L, 0)         |
    /// | broadcast  | (m, m)     | (L, L)     | (L+m, 2r)       | (2L, 2r)       |
    /// | reduce     | (m, m)     | (L, L)     | (L+m, 2r)       | (2L, 2r)       |
    /// | allreduce  | (2m, 2m)   | (2L, 2L)   | (2m, 2r)        | (2L, 2r) [^p2] |
    /// | gather     | (m, m)     | (L, m)     | (m, m)          | (L, m)         |
    /// | scatter    | (m, m)     | (L, m)     | (m, m)          | (L, m)         |
    /// | allgather  | (m, m)     | (2L, m+Ln) | (m, m)          | (L, m)         |
    ///
    /// [^p2]: non-power-of-two rank counts add one full exchange `(2, 2)`.
    pub fn collective_terms(kind: CollectiveKind, algo: CollectiveAlgorithm, n: usize) -> (f64, f64) {
        if n <= 1 {
            return (0.0, 0.0);
        }
        let l = Self::tree_depth(n);
        let m = n as f64 - 1.0;
        let r = m / n as f64;
        use CollectiveAlgorithm::*;
        use CollectiveKind::*;
        match (kind, algo) {
            (Barrier, Naive) => (2.0 * m, 0.0),
            (Barrier, BinomialTree) => (2.0 * l, 0.0),
            (Barrier, Ring) => (n as f64, 0.0),
            (Barrier, RecursiveHalvingDoubling) => (l, 0.0),

            (Broadcast | Reduce, Naive) => (m, m),
            (Broadcast | Reduce, BinomialTree) => (l, l),
            (Broadcast | Reduce, Ring) => (l + m, 2.0 * r),
            (Broadcast | Reduce, RecursiveHalvingDoubling) => (2.0 * l, 2.0 * r),

            (Allreduce, Naive) => (2.0 * m, 2.0 * m),
            (Allreduce, BinomialTree) => (2.0 * l, 2.0 * l),
            (Allreduce, Ring) => (2.0 * m, 2.0 * r),
            (Allreduce, RecursiveHalvingDoubling) => {
                if n.is_power_of_two() {
                    (2.0 * l, 2.0 * r)
                } else {
                    // Remainder ranks fold in/out with one extra exchange.
                    (2.0 * l + 2.0, 2.0 * r + 2.0)
                }
            }

            (Gather | Scatter, Naive | Ring) => (m, m),
            (Gather | Scatter, BinomialTree | RecursiveHalvingDoubling) => (l, m),

            (Allgather, Naive | Ring) => (m, m),
            (Allgather, BinomialTree) => (2.0 * l, m + l * n as f64),
            (Allgather, RecursiveHalvingDoubling) => (l, m),
        }
    }

    /// Cost in seconds of one collective of `bytes` payload per rank over `n`
    /// ranks with a fixed algorithm.
    pub fn collective_cost(&self, kind: CollectiveKind, algo: CollectiveAlgorithm, n: usize, bytes: f64) -> f64 {
        let (lm, bm) = Self::collective_terms(kind, algo, n);
        lm * self.latency + bm * self.per_byte(bytes)
    }

    /// Picks the algorithm for one collective: the forced one under
    /// [`CollectiveSelector::Force`], otherwise the cheapest for this payload
    /// (ties resolve to the earliest entry of [`CollectiveAlgorithm::ALL`]).
    /// Returns the algorithm and its cost in seconds.
    pub fn select(&self, kind: CollectiveKind, n: usize, bytes: f64, selector: CollectiveSelector) -> (CollectiveAlgorithm, f64) {
        match selector {
            CollectiveSelector::Force(algo) => (algo, self.collective_cost(kind, algo, n, bytes)),
            CollectiveSelector::Auto => {
                let mut best = (CollectiveAlgorithm::Naive, f64::INFINITY);
                for algo in CollectiveAlgorithm::ALL {
                    let cost = self.collective_cost(kind, algo, n, bytes);
                    if cost < best.1 {
                        best = (algo, cost);
                    }
                }
                best
            }
        }
    }

    /// The payload size (bytes) above which `challenger` becomes cheaper than
    /// `incumbent` for this collective, if the two cost lines cross at a
    /// positive payload. `None` when they never cross (one dominates).
    pub fn crossover_bytes(
        &self,
        kind: CollectiveKind,
        incumbent: CollectiveAlgorithm,
        challenger: CollectiveAlgorithm,
        n: usize,
    ) -> Option<f64> {
        if self.bandwidth.is_infinite() {
            return None;
        }
        let (la, ba) = Self::collective_terms(kind, incumbent, n);
        let (lb, bb) = Self::collective_terms(kind, challenger, n);
        // la·α + ba·x/B = lb·α + bb·x/B  ⇒  x = α·B·(lb − la)/(ba − bb).
        if ba <= bb || lb <= la {
            return None; // challenger never strictly wins on bandwidth
        }
        Some(self.latency * self.bandwidth * (lb - la) / (ba - bb))
    }

    /// Cost of a barrier among `n` ranks (auto-selected algorithm).
    pub fn barrier(&self, n: usize) -> f64 {
        self.select(CollectiveKind::Barrier, n, 0.0, CollectiveSelector::Auto).1
    }

    /// Cost of a broadcast of `bytes` from the root to `n` ranks
    /// (auto-selected algorithm).
    pub fn broadcast(&self, n: usize, bytes: f64) -> f64 {
        self.select(CollectiveKind::Broadcast, n, bytes, CollectiveSelector::Auto).1
    }

    /// Cost of gathering `bytes` from each of `n` ranks at the root
    /// (bottlenecked by the root's incoming link; auto-selected algorithm).
    pub fn gather(&self, n: usize, bytes: f64) -> f64 {
        self.select(CollectiveKind::Gather, n, bytes, CollectiveSelector::Auto).1
    }

    /// Cost of an allreduce of a `bytes`-sized vector (auto-selected
    /// algorithm).
    pub fn allreduce(&self, n: usize, bytes: f64) -> f64 {
        self.select(CollectiveKind::Allreduce, n, bytes, CollectiveSelector::Auto).1
    }

    /// Cost of a reduction of `bytes` to the root (auto-selected algorithm).
    pub fn reduce(&self, n: usize, bytes: f64) -> f64 {
        self.select(CollectiveKind::Reduce, n, bytes, CollectiveSelector::Auto).1
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::infiniband_100g()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_depth_values() {
        assert_eq!(NetworkModel::tree_depth(1), 0.0);
        assert_eq!(NetworkModel::tree_depth(2), 1.0);
        assert_eq!(NetworkModel::tree_depth(8), 3.0);
        assert_eq!(NetworkModel::tree_depth(9), 4.0);
    }

    #[test]
    fn collectives_are_free_for_single_rank() {
        let net = NetworkModel::infiniband_100g();
        assert_eq!(net.allreduce(1, 1e6), 0.0);
        assert_eq!(net.gather(1, 1e6), 0.0);
        assert_eq!(net.reduce(1, 1e6), 0.0);
        assert_eq!(net.barrier(1), 0.0);
        for kind in CollectiveKind::ALL {
            for algo in CollectiveAlgorithm::ALL {
                assert_eq!(net.collective_cost(kind, algo, 1, 1e6), 0.0);
            }
        }
    }

    #[test]
    fn slower_networks_cost_more() {
        let ib = NetworkModel::infiniband_100g();
        let e10 = NetworkModel::ethernet_10g();
        let e1 = NetworkModel::ethernet_1g();
        let bytes = 8.0 * 7840.0; // a MNIST-sized weight vector
        assert!(ib.allreduce(8, bytes) < e10.allreduce(8, bytes));
        assert!(e10.allreduce(8, bytes) < e1.allreduce(8, bytes));
    }

    #[test]
    fn ideal_network_is_free_modulo_latency() {
        let net = NetworkModel::ideal();
        assert_eq!(net.allreduce(8, 1e9), 0.0);
        assert_eq!(net.broadcast(8, 1e9), 0.0);
    }

    #[test]
    fn cost_grows_with_bytes_and_ranks() {
        let net = NetworkModel::infiniband_100g();
        assert!(net.gather(8, 1e6) > net.gather(8, 1e3));
        assert!(net.gather(16, 1e6) > net.gather(8, 1e6));
        assert!(net.broadcast(16, 1e6) > net.broadcast(2, 1e6));
    }

    #[test]
    fn ring_beats_tree_above_the_crossover_payload() {
        let net = NetworkModel::infiniband_100g();
        let n = 8;
        let crossover = net
            .crossover_bytes(
                CollectiveKind::Allreduce,
                CollectiveAlgorithm::BinomialTree,
                CollectiveAlgorithm::Ring,
                n,
            )
            .expect("ring and tree allreduce cost lines must cross");
        assert!(crossover > 0.0);
        let small = crossover / 4.0;
        let large = crossover * 4.0;
        let cost = |algo, b| net.collective_cost(CollectiveKind::Allreduce, algo, n, b);
        assert!(
            cost(CollectiveAlgorithm::BinomialTree, small) < cost(CollectiveAlgorithm::Ring, small),
            "tree should win small payloads"
        );
        assert!(
            cost(CollectiveAlgorithm::Ring, large) < cost(CollectiveAlgorithm::BinomialTree, large),
            "ring should win large payloads"
        );
    }

    #[test]
    fn auto_selection_is_never_worse_than_any_fixed_algorithm() {
        let net = NetworkModel::ethernet_10g();
        for kind in CollectiveKind::ALL {
            for n in [2usize, 3, 4, 7, 8, 9, 16] {
                for bytes in [0.0, 64.0, 8192.0, 8.0e6] {
                    let (_, auto) = net.select(kind, n, bytes, CollectiveSelector::Auto);
                    for algo in CollectiveAlgorithm::ALL {
                        assert!(auto <= net.collective_cost(kind, algo, n, bytes) + 1e-18);
                    }
                }
            }
        }
    }

    #[test]
    fn forced_selection_is_honoured() {
        let net = NetworkModel::infiniband_100g();
        let (algo, cost) = net.select(
            CollectiveKind::Allreduce,
            8,
            1e7,
            CollectiveSelector::Force(CollectiveAlgorithm::Naive),
        );
        assert_eq!(algo, CollectiveAlgorithm::Naive);
        assert!(cost >= net.select(CollectiveKind::Allreduce, 8, 1e7, CollectiveSelector::Auto).1);
    }

    #[test]
    fn selector_parsing() {
        assert_eq!(CollectiveSelector::parse("auto"), Some(CollectiveSelector::Auto));
        assert_eq!(
            CollectiveSelector::parse("ring"),
            Some(CollectiveSelector::Force(CollectiveAlgorithm::Ring))
        );
        assert_eq!(
            CollectiveSelector::parse("RHD"),
            Some(CollectiveSelector::Force(CollectiveAlgorithm::RecursiveHalvingDoubling))
        );
        assert_eq!(CollectiveSelector::parse("bogus"), None);
        for algo in CollectiveAlgorithm::ALL {
            assert_eq!(CollectiveAlgorithm::parse(algo.name()), Some(algo));
        }
    }

    #[test]
    fn env_value_parsing_accepts_every_spelling() {
        assert_eq!(CollectiveSelector::parse_env_value("auto"), CollectiveSelector::Auto);
        assert_eq!(
            CollectiveSelector::parse_env_value("Ring"),
            CollectiveSelector::Force(CollectiveAlgorithm::Ring)
        );
        for algo in CollectiveAlgorithm::ALL {
            assert_eq!(
                CollectiveSelector::parse_env_value(algo.name()),
                CollectiveSelector::Force(algo)
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not name a collective selection")]
    fn unparseable_env_value_panics_loudly_instead_of_falling_back_to_auto() {
        CollectiveSelector::parse_env_value("rinf"); // a typo of "ring"
    }

    #[test]
    fn compression_parsing_accepts_every_spelling() {
        for c in Compression::ALL {
            assert_eq!(Compression::parse(c.name()), Some(c));
        }
        assert_eq!(Compression::parse("off"), Some(Compression::None));
        assert_eq!(Compression::parse("F64"), Some(Compression::None));
        assert_eq!(Compression::parse("FP16"), Some(Compression::F16));
        assert_eq!(Compression::parse("half"), Some(Compression::F16));
        assert_eq!(Compression::parse("BFloat16"), Some(Compression::Bf16));
        assert_eq!(Compression::parse("gzip"), None);
        assert_eq!(Compression::parse_env_value(" bf16 "), Compression::Bf16);
    }

    #[test]
    fn compression_wire_bytes_and_rounding() {
        assert_eq!(Compression::None.wire_bytes_per_element(), 8.0);
        assert_eq!(Compression::F16.wire_bytes_per_element(), 2.0);
        assert_eq!(Compression::Bf16.wire_bytes_per_element(), 2.0);
        assert!(Compression::None.is_identity());
        assert!(!Compression::F16.is_identity());
        let x = 1.0 / 3.0;
        assert_eq!(Compression::None.round(x).to_bits(), x.to_bits());
        for c in [Compression::F16, Compression::Bf16] {
            let r = c.round(x);
            assert_ne!(r.to_bits(), x.to_bits(), "{} must actually quantize", c.name());
            assert!((r - x).abs() < 0.01);
            // Rounding is idempotent: the wire format is a fixed point.
            assert_eq!(c.round(r).to_bits(), r.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "does not name a compression policy")]
    fn unparseable_compression_env_value_panics_loudly() {
        Compression::parse_env_value("f8"); // not a supported wire format
    }

    #[test]
    fn compression_serde_round_trips_and_defaults_to_none() {
        for c in Compression::ALL {
            let v = c.to_value();
            assert_eq!(Compression::from_value(&v).unwrap(), c);
        }
        // A spec written before wire compression existed has no key at all:
        // the shim hands `Null`, which must decode as the uncompressed path.
        assert_eq!(Compression::from_value(&serde::Value::Null).unwrap(), Compression::None);
        let err = Compression::from_value(&serde::Value::Str("gzip".into())).unwrap_err();
        assert!(err.0.contains("bfloat16"), "error must list accepted spellings: {}", err.0);
    }

    #[test]
    fn power_of_two_ranks_prefer_halving_doubling_large_ranks_prefer_ring_when_odd() {
        let net = NetworkModel::infiniband_100g();
        let big = 8.0e6;
        let (algo_pow2, _) = net.select(CollectiveKind::Allreduce, 8, big, CollectiveSelector::Auto);
        assert_eq!(algo_pow2, CollectiveAlgorithm::RecursiveHalvingDoubling);
        let (algo_odd, _) = net.select(CollectiveKind::Allreduce, 9, big, CollectiveSelector::Auto);
        assert_eq!(algo_odd, CollectiveAlgorithm::Ring, "non-power-of-two large payloads go ring");
    }
}
