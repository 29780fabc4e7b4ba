//! Property-based integration tests on the distributed substrates and the
//! ADMM consensus machinery.

use newton_admm_repro::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Collectives must be exact for any rank count and payload.
    #[test]
    fn allreduce_is_exact_for_any_cluster_size(workers in 1usize..6, len in 1usize..20, seed in 0u64..100) {
        let mut rng = nadmm_linalg::gen::seeded_rng(seed);
        let payloads: Vec<Vec<f64>> = (0..workers).map(|_| nadmm_linalg::gen::gaussian_vector(len, &mut rng)).collect();
        let mut expected = vec![0.0; len];
        for p in &payloads {
            for (e, v) in expected.iter_mut().zip(p) {
                *e += v;
            }
        }
        let results = Cluster::new(workers, NetworkModel::ideal()).run(|comm| {
            let mut buf = payloads[comm.rank()].clone();
            comm.allreduce_sum_into(&mut buf);
            buf
        });
        for r in results {
            for (a, b) in r.iter().zip(&expected) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// The distributed Newton-ADMM run must agree with the sequential
    /// reference implementation for any small problem shape.
    #[test]
    fn distributed_matches_reference(workers in 1usize..4, classes in 2usize..4, features in 3usize..7, seed in 0u64..50) {
        let (train, _) = SyntheticConfig::mnist_like()
            .with_train_size(workers * 20)
            .with_test_size(8)
            .with_num_features(features)
            .with_num_classes(classes)
            .generate(seed);
        let (shards, _) = partition_strong(&train, workers);
        let cfg = NewtonAdmmConfig::default().with_lambda(1e-3).with_max_iters(4);
        let reference = NewtonAdmm::new(cfg).run_reference(&shards, None);
        let cluster = Cluster::new(workers, NetworkModel::infiniband_100g());
        let distributed = cluster
            .run_sharded(&shards, |comm, shard| NewtonAdmm::new(cfg).run_distributed(comm, shard, None))
            .swap_remove(0);
        let dist: f64 = reference.z.iter().zip(&distributed.z).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        let scale: f64 = reference.z.iter().map(|v| v * v).sum::<f64>().sqrt().max(1.0);
        prop_assert!(dist / scale < 1e-7, "distributed z deviates by {dist}");
    }

    /// The ADMM objective never increases dramatically across iterations
    /// (ADMM is not strictly monotone, but the recorded objective must stay
    /// bounded and finite and end below its start).
    #[test]
    fn admm_objective_stays_finite_and_improves(workers in 1usize..4, seed in 0u64..50) {
        let (train, _) = SyntheticConfig::mnist_like()
            .with_train_size(60 * workers)
            .with_test_size(10)
            .with_num_features(6)
            .with_num_classes(3)
            .generate(seed);
        let (shards, _) = partition_strong(&train, workers);
        let out = NewtonAdmm::new(NewtonAdmmConfig::default().with_lambda(1e-3).with_max_iters(8)).run_reference(&shards, None);
        let first = out.history.records[0].objective;
        for r in &out.history.records {
            prop_assert!(r.objective.is_finite());
            prop_assert!(r.objective <= first * 1.5 + 1.0);
        }
        prop_assert!(out.history.final_objective().unwrap() < first);
    }

    /// Strong-scaling partitions always cover the dataset exactly once.
    #[test]
    fn partitions_are_exact_covers(n in 10usize..200, workers in 1usize..9) {
        prop_assume!(workers <= n);
        let (train, _) = SyntheticConfig::higgs_like().with_train_size(n).with_test_size(4).with_num_features(4).generate(1);
        let (shards, plan) = partition_strong(&train, workers);
        prop_assert_eq!(plan.total_samples(), n);
        prop_assert_eq!(shards.iter().map(|s| s.num_samples()).sum::<usize>(), n);
        let max = shards.iter().map(|s| s.num_samples()).max().unwrap();
        let min = shards.iter().map(|s| s.num_samples()).min().unwrap();
        prop_assert!(max - min <= 1, "shards must be balanced");
    }
}
