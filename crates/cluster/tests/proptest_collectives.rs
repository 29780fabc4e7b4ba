//! Property tests for the collective engine.
//!
//! Two families of invariants:
//!
//! 1. **Bit-identity** — the cost-model algorithm (naive/tree/ring/rhd) must
//!    never change the *data*: for arbitrary rank counts (2–9) and payload
//!    sizes, every forced algorithm produces results bit-identical to the
//!    forced-naive reference, for every collective shape the solvers use.
//! 2. **Cost-model sanity** — per-algorithm costs are monotone in the
//!    payload size; the stable algorithms (naive, tree, ring) are monotone
//!    in the rank count; and the automatic crossover selection is never
//!    worse than any fixed algorithm and itself monotone in bytes.
//!    (Recursive halving-doubling is deliberately *not* monotone in N for
//!    allreduce: power-of-two rank counts dodge the remainder-fold penalty,
//!    exactly as on real fabrics.)

use nadmm_cluster::{
    Cluster, CollectiveAlgorithm, CollectiveKind, CollectiveSelector, Communicator, Compression, Contribution, NetworkModel,
};
use proptest::prelude::*;

/// One deterministic pseudo-random payload per (rank, length, seed).
fn payload(rank: usize, len: usize, seed: u64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let x = (seed as f64 + 1.0) * 0.1 + rank as f64 * 1.7 + i as f64 * 0.013;
            (x.sin() * 1e3).fract() * 10.0
        })
        .collect()
}

/// Runs the full collective repertoire on a cluster under one selector and
/// returns everything each rank observed.
#[allow(clippy::type_complexity)]
fn repertoire(n: usize, len: usize, seed: u64, selector: CollectiveSelector) -> Vec<(Vec<f64>, Vec<f64>, Vec<f64>, f64)> {
    Cluster::new(n, NetworkModel::infiniband_100g())
        .with_collectives(selector)
        .run(|comm| {
            let mine = payload(comm.rank(), len, seed);
            // In-place allreduce sum.
            let mut sum = mine.clone();
            comm.allreduce_sum_into(&mut sum);
            // Reduce to root + broadcast back (the ADMM consensus round).
            let mut consensus = mine.clone();
            if comm.reduce_sum_root_into(Contribution::Data(&mut consensus)) {
                for v in consensus.iter_mut() {
                    *v *= 0.5;
                }
            }
            comm.broadcast_root_into(&mut consensus);
            // Split-phase fused sum|max allreduce.
            let h = comm.start_allreduce_sum_max(Contribution::Data(&mine), len / 2);
            let mut fused = vec![0.0; len];
            comm.wait_into(h, &mut fused);
            (sum, consensus, fused, comm.elapsed())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_algorithm_is_bit_identical_to_the_naive_reference(
        n in 2usize..10,
        len in 1usize..96,
        seed in 0u64..1000,
    ) {
        let reference = repertoire(n, len, seed, CollectiveSelector::Force(CollectiveAlgorithm::Naive));
        for algo in [
            CollectiveAlgorithm::BinomialTree,
            CollectiveAlgorithm::Ring,
            CollectiveAlgorithm::RecursiveHalvingDoubling,
        ] {
            let candidate = repertoire(n, len, seed, CollectiveSelector::Force(algo));
            for (rank, (r, c)) in reference.iter().zip(&candidate).enumerate() {
                prop_assert_eq!(&r.0, &c.0, "allreduce_sum differs on rank {} under {:?}", rank, algo);
                prop_assert_eq!(&r.1, &c.1, "reduce+broadcast differs on rank {} under {:?}", rank, algo);
                prop_assert_eq!(&r.2, &c.2, "fused sum|max differs on rank {} under {:?}", rank, algo);
            }
        }
        // Auto selection also matches (it can only pick from the same menu).
        let auto = repertoire(n, len, seed, CollectiveSelector::Auto);
        for (r, c) in reference.iter().zip(&auto) {
            prop_assert_eq!(&r.0, &c.0);
            prop_assert_eq!(&r.1, &c.1);
            prop_assert_eq!(&r.2, &c.2);
        }
    }

    #[test]
    fn per_algorithm_cost_is_monotone_in_bytes(
        n in 2usize..10,
        small in 0.0f64..1e6,
        factor in 1.0f64..100.0,
    ) {
        let net = NetworkModel::ethernet_10g();
        let large = small * factor;
        for kind in CollectiveKind::ALL {
            for algo in CollectiveAlgorithm::ALL {
                let a = net.collective_cost(kind, algo, n, small);
                let b = net.collective_cost(kind, algo, n, large);
                prop_assert!(
                    a <= b + 1e-18,
                    "{:?}/{:?} not monotone in bytes: cost({}) = {} > cost({}) = {}",
                    kind, algo, small, a, large, b
                );
            }
        }
    }

    #[test]
    fn stable_algorithms_are_monotone_in_rank_count(
        n in 2usize..16,
        bytes in 0.0f64..1e7,
    ) {
        let net = NetworkModel::infiniband_100g();
        for kind in CollectiveKind::ALL {
            for algo in [
                CollectiveAlgorithm::Naive,
                CollectiveAlgorithm::BinomialTree,
                CollectiveAlgorithm::Ring,
            ] {
                let a = net.collective_cost(kind, algo, n, bytes);
                let b = net.collective_cost(kind, algo, n + 1, bytes);
                prop_assert!(
                    a <= b + 1e-18,
                    "{:?}/{:?} not monotone in ranks: cost(n={}) = {} > cost(n={}) = {}",
                    kind, algo, n, a, n + 1, b
                );
            }
        }
    }

    #[test]
    fn auto_selection_is_optimal_and_monotone_in_bytes(
        n in 2usize..10,
        small in 0.0f64..1e6,
        factor in 1.0f64..100.0,
    ) {
        let net = NetworkModel::infiniband_100g();
        let large = small * factor;
        for kind in CollectiveKind::ALL {
            let (_, auto_small) = net.select(kind, n, small, CollectiveSelector::Auto);
            let (_, auto_large) = net.select(kind, n, large, CollectiveSelector::Auto);
            prop_assert!(auto_small <= auto_large + 1e-18, "auto cost not monotone in bytes for {:?}", kind);
            for algo in CollectiveAlgorithm::ALL {
                prop_assert!(
                    auto_small <= net.collective_cost(kind, algo, n, small) + 1e-18,
                    "auto selection worse than {:?} for {:?}",
                    algo, kind
                );
            }
        }
    }

    #[test]
    fn compressed_allreduce_matches_the_full_width_path_within_tolerance(
        n in 2usize..10,
        len in 1usize..96,
        seed in 0u64..1000,
    ) {
        let run = |compression: Compression| {
            Cluster::new(n, NetworkModel::infiniband_100g())
                .with_compression(compression)
                .run(|comm| {
                    let mut sum = payload(comm.rank(), len, seed);
                    comm.allreduce_sum_into(&mut sum);
                    (sum, comm.stats())
                })
        };
        let exact = run(Compression::None);
        // Explicit `None` must be *exactly* the uncompressed path (same
        // bits), and its wire volume the full logical volume.
        for (rank, (sum, stats)) in exact.iter().enumerate() {
            let reference = run(Compression::None);
            prop_assert_eq!(&reference[rank].0, sum);
            prop_assert_eq!(stats.bytes_sent, stats.logical_bytes_sent);
        }
        for compression in [Compression::F16, Compression::Bf16] {
            let rel = match compression {
                Compression::F16 => nadmm_linalg::half::F16_RELATIVE_ERROR,
                _ => nadmm_linalg::half::BF16_RELATIVE_ERROR,
            };
            let compressed = run(compression);
            for (rank, (sum, stats)) in compressed.iter().enumerate() {
                // Every rank's contribution is quantized once before the
                // full-width reduction: the element-wise error is bounded by
                // the sum of per-contribution relative errors (plus a tiny
                // absolute floor for subnormal wire values).
                for (i, (&got, &want)) in sum.iter().zip(&exact[rank].0).enumerate() {
                    let bound: f64 = (0..n)
                        .map(|r| payload(r, len, seed)[i].abs() * rel + 1e-7)
                        .sum();
                    prop_assert!(
                        (got - want).abs() <= bound,
                        "{} rank {} element {}: {} vs {} (bound {})",
                        compression.name(), rank, i, got, want, bound
                    );
                }
                // The wire carried a quarter of the logical volume.
                prop_assert_eq!(stats.bytes_sent, stats.logical_bytes_sent / 4.0);
                prop_assert_eq!(stats.logical_bytes_sent, exact[rank].1.bytes_sent);
            }
        }
    }

    #[test]
    fn ring_allreduce_beats_tree_above_the_modeled_crossover(
        n in 3usize..10,
        factor in 1.5f64..50.0,
    ) {
        let net = NetworkModel::infiniband_100g();
        if let Some(crossover) = net.crossover_bytes(
            CollectiveKind::Allreduce,
            CollectiveAlgorithm::BinomialTree,
            CollectiveAlgorithm::Ring,
            n,
        ) {
            let above = crossover * factor;
            let below = crossover / factor;
            let ring = |b| net.collective_cost(CollectiveKind::Allreduce, CollectiveAlgorithm::Ring, n, b);
            let tree = |b| net.collective_cost(CollectiveKind::Allreduce, CollectiveAlgorithm::BinomialTree, n, b);
            prop_assert!(ring(above) < tree(above), "ring must win above the crossover (n={})", n);
            prop_assert!(tree(below) <= ring(below), "tree must win below the crossover (n={})", n);
        }
    }
}
