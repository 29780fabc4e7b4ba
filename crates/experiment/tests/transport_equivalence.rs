//! The experiment-level transport determinism contract: a scenario run as
//! one process per rank over loopback TCP must emit reports **byte
//! identical** (after zeroing host wall clocks, which is what the runner's
//! `--deterministic` flag does) to the same scenario on the in-process
//! thread cluster. This is the library-level half of the CI
//! `transport-smoke` job, which additionally proves it across real OS
//! processes with `cmp`.

use nadmm_baselines::SyncSgdConfig;
use nadmm_cluster::transport::tcp::reserve_loopback_peers;
use nadmm_cluster::{Compression, NetworkModel, StragglerModel, TcpTransport};
use nadmm_data::SyntheticConfig;
use nadmm_device::DeviceSpec;
use nadmm_experiment::{ClusterSpec, DataSpec, PartitionSpec, RunReport, ScenarioSpec, SolverSpec};
use newton_admm::NewtonAdmmConfig;

/// A scenario exercising the paths most likely to diverge across
/// transports: a rooted grid search (per-candidate reconnects), wire
/// compression, a straggled heterogeneous fleet, and plain Newton-ADMM.
fn scenario(cluster: ClusterSpec) -> ScenarioSpec {
    ScenarioSpec {
        name: "transport-equivalence".into(),
        data: DataSpec::Synthetic {
            config: SyntheticConfig::mnist_like()
                .with_train_size(60)
                .with_test_size(20)
                .with_num_features(6)
                .with_num_classes(3),
            seed: 9,
        },
        partition: PartitionSpec::Strong,
        cluster,
        solvers: vec![
            SolverSpec::NewtonAdmm(NewtonAdmmConfig::default().with_max_iters(2).with_lambda(1e-3)),
            SolverSpec::SyncSgdGrid {
                base: SyncSgdConfig {
                    epochs: 2,
                    lambda: 1e-3,
                    batch_size: 10,
                    ..Default::default()
                },
                grid: vec![1e-7, 0.5],
            },
        ],
    }
}

/// Runs the scenario with every rank as a thread owning a real TCP socket
/// on a loopback star through rank 0, returning rank 0's reports.
fn run_over_tcp(scenario: &ScenarioSpec) -> Vec<RunReport> {
    let ranks = scenario.cluster.ranks;
    let peers = reserve_loopback_peers(ranks).expect("loopback ports");
    let mut outcomes = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for rank in 0..ranks {
            let peers = peers.clone();
            handles.push(scope.spawn(move || {
                let transport = TcpTransport::connect(rank, &peers).expect("tcp bootstrap");
                scenario.run_with_transport(Box::new(transport)).expect("tcp rank runs")
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("tcp rank panicked"))
            .collect::<Vec<_>>()
    });
    for other in &outcomes[1..] {
        assert!(other.is_none(), "only rank 0 assembles reports");
    }
    outcomes.swap_remove(0).expect("rank 0 reports")
}

/// Zeroes the host wall-clock fields — the only nondeterministic part of a
/// report — exactly like the runner's `--deterministic` flag.
fn deterministic(mut reports: Vec<RunReport>) -> Vec<RunReport> {
    for report in reports.iter_mut() {
        report.wall_time_sec = 0.0;
        for record in report.history.records.iter_mut() {
            record.wall_time_sec = 0.0;
        }
    }
    reports
}

fn assert_reports_byte_identical(scenario: &ScenarioSpec) {
    let thread = deterministic(scenario.run().expect("thread run"));
    let tcp = deterministic(run_over_tcp(scenario));
    assert_eq!(thread.len(), tcp.len());
    for (a, b) in thread.iter().zip(&tcp) {
        let a = a.to_json().expect("thread report serializes");
        let b = b.to_json().expect("tcp report serializes");
        assert_eq!(a, b, "reports deviated across transports");
    }
}

#[test]
fn tcp_experiments_match_thread_experiments_byte_for_byte() {
    let cluster = ClusterSpec::new(2, NetworkModel::infiniband_100g());
    assert_reports_byte_identical(&scenario(cluster));
}

#[test]
fn tcp_experiments_match_under_compression_stragglers_and_hetero_devices() {
    let cluster = ClusterSpec::new(2, NetworkModel::ethernet_10g())
        .with_compression(Compression::F16)
        .with_rank_devices([DeviceSpec::tesla_p100(), DeviceSpec::tesla_v100()])
        .with_straggler(StragglerModel::jitter(0.3, 11).with_slow_rank(1, 2.0));
    assert_reports_byte_identical(&scenario(cluster));
}

/// Sync SGD on 33 rows split 17/16 at batch 16: the ranks need 2 and 1
/// steps per epoch, and both run 2.
#[test]
fn tcp_sgd_on_uneven_shards_matches_the_thread_run() {
    let mut spec = scenario(ClusterSpec::new(2, NetworkModel::infiniband_100g()));
    spec.name = "transport-equivalence-uneven-sgd".into();
    spec.data = DataSpec::Synthetic {
        config: SyntheticConfig::mnist_like()
            .with_train_size(33)
            .with_test_size(10)
            .with_num_features(6)
            .with_num_classes(3),
        seed: 9,
    };
    spec.solvers = vec![SolverSpec::SyncSgd(SyncSgdConfig {
        epochs: 2,
        lambda: 1e-3,
        batch_size: 16,
        step_size: 0.1,
        ..Default::default()
    })];
    assert_reports_byte_identical(&spec);
}
