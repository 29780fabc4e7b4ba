//! A CSR all-zero row block through the scenario path: a LIBSVM file whose
//! first half is label-only rows, so rank 0's strong shard stores no entry at
//! all and every sparse kernel it runs takes its empty-row path. The run must
//! complete with a finite objective and schema-valid reports, and the reports
//! (host wall clock zeroed, as `scenario_runner --deterministic` does) must be
//! byte-identical at pool widths 1 and 4, pooled and inline.

use nadmm_cluster::NetworkModel;
use nadmm_experiment::{ClusterSpec, DataSpec, PartitionSpec, RunReport, ScenarioSpec, SolverSpec};
use newton_admm::NewtonAdmmConfig;

/// 40 rows over 3 classes and 6 features; rows 0–19 carry a label and no
/// feature.
fn label_only_first_half() -> String {
    let mut text = String::new();
    for i in 0..40 {
        text.push_str(&format!("{}", 1 + i % 3));
        if i >= 20 {
            for j in 1..=6 {
                if (i + j) % 3 != 0 {
                    text.push_str(&format!(" {j}:{:.3}", ((i * 7 + j * 5) as f64 * 0.37).sin() + (i % 3) as f64));
                }
            }
        }
        text.push('\n');
    }
    text
}

fn deterministic_json(mut reports: Vec<RunReport>) -> String {
    for report in reports.iter_mut() {
        report.wall_time_sec = 0.0;
        for record in report.history.records.iter_mut() {
            record.wall_time_sec = 0.0;
        }
    }
    serde_json::to_string_pretty(&reports).expect("reports serialize")
}

#[test]
fn a_shard_of_label_only_csr_rows_trains_to_the_same_bits_at_every_width() {
    let path = std::env::temp_dir().join(format!("nadmm_csr_empty_rows_{}.svm", std::process::id()));
    std::fs::write(&path, label_only_first_half()).unwrap();
    let scenario = ScenarioSpec {
        name: "csr-empty-rows".into(),
        data: DataSpec::Libsvm {
            train_path: path.to_string_lossy().into_owned(),
            test_path: None,
        },
        partition: PartitionSpec::Strong,
        cluster: ClusterSpec::new(2, NetworkModel::infiniband_100g()),
        solvers: vec![SolverSpec::NewtonAdmm(
            NewtonAdmmConfig::default().with_max_iters(3).with_lambda(1e-3),
        )],
    };
    let (train, _) = scenario.data.load().unwrap();
    assert!(train.is_sparse() && train.num_classes() == 3);
    let (shards, _) = scenario.partition.apply(&train, 2).unwrap();
    assert_eq!(shards[0].features().stored_entries(), 0, "rank 0 holds only label-only rows");
    assert!(shards[1].features().stored_entries() > 0);

    rayon::set_num_threads(1);
    nadmm_linalg::set_par_threshold(usize::MAX);
    let reports = scenario.run().unwrap();
    let objective = reports[0].final_objective.expect("the run records an objective");
    assert!(objective.is_finite(), "final objective {objective}");
    for report in &reports {
        report.validate_schema().unwrap();
    }
    let reference = deterministic_json(reports);
    for width in [1, 4] {
        rayon::set_num_threads(width);
        for threshold in [0, usize::MAX] {
            nadmm_linalg::set_par_threshold(threshold);
            assert_eq!(
                deterministic_json(scenario.run().unwrap()),
                reference,
                "reports at width {width}, threshold {threshold}"
            );
        }
    }
    nadmm_linalg::reset_par_threshold();
    rayon::reset_num_threads();
    std::fs::remove_file(&path).ok();
}
