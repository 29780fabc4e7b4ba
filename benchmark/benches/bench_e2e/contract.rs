//! The metric lists: every name the benchmark prints, with unit, direction
//! and (end to end) regression bound. `BENCHMARK.json` at the repository root
//! repeats these lists; a unit test below fails when the two disagree.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One metric of the contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression. End-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every clock-based metric sits at the
/// contract's cap of 25 %: on the 2-vCPU reference host ten runs spread by
/// 5–16 % of the median, and a bound has to clear three times the spread
/// (README, "Bounds").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("train_wall_s", "s", Lower, 0.25),
    e2e("time_to_target_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
    e2e("serve_rows_per_s", "rows/s", Higher, 0.25),
    e2e("serve_p50_us", "us", Lower, 0.25),
];

/// One layer each, prefix = crate directory. No bounds.
pub const PER_LAYER: &[MetricDef] = &[
    layer("linalg.gemm_nt_gflops", "GFLOP/s", Higher),
    layer("linalg.gemm_tn_gflops", "GFLOP/s", Higher),
    layer("linalg.spmm_gflops", "GFLOP/s", Higher),
    layer("linalg.dot_gbps", "GB/s", Higher),
    layer("linalg.pool_speedup", "ratio", Higher),
    layer("device.launches", "count", Lower),
    layer("device.sim_compute_s", "s", Lower),
    layer("device.model_ratio", "ratio", Lower),
    layer("device.ws_hit_rate", "ratio", Higher),
    layer("device.ws_peak_bytes", "bytes", Lower),
    layer("objective.value_grad_ms", "ms", Lower),
    layer("objective.hvp_ms", "ms", Lower),
    layer("objective.allocs_per_eval", "count", Lower),
    layer("solver.newton_step_ms", "ms", Lower),
    layer("solver.cg_iters", "count", Lower),
    layer("solver.linesearch_evals", "count", Lower),
    layer("core.local_solve_s", "s", Lower),
    layer("core.consensus_s", "s", Lower),
    layer("core.instrumentation_s", "s", Lower),
    layer("core.phase_sum_ratio", "ratio", Lower),
    layer("core.local_solve_explained", "ratio", Higher),
    layer("core.iters_to_target", "count", Lower),
    layer("core.final_rho", "value", Lower),
    layer("cluster.collectives", "count", Lower),
    layer("cluster.bytes_sent", "bytes", Lower),
    layer("cluster.sim_comm_s", "s", Lower),
    layer("cluster.allreduce_us", "us", Lower),
    layer("cluster.allreduce_f16_us", "us", Lower),
    layer("cluster.tcp_roundtrip_us", "us", Lower),
    layer("cluster.tcp_connect_ms", "ms", Lower),
    layer("cluster.comm_share", "ratio", Lower),
    layer("cluster.idle_wait_share", "ratio", Lower),
    layer("cluster.model_ratio", "ratio", Lower),
    layer("baselines.sgd_steps", "count", Lower),
    layer("baselines.sgd_step_us", "us", Lower),
    layer("experiment.overhead_s", "s", Lower),
    layer("experiment.report_json_ms", "ms", Lower),
    layer("experiment.report_bytes", "bytes", Lower),
    layer("data.generate_s", "s", Lower),
    layer("data.partition_s", "s", Lower),
    layer("data.train_bytes", "bytes", Lower),
    layer("serve.batch_p99_us", "us", Lower),
    layer("serve.predict_b1_us", "us", Lower),
    layer("serve.predict_b256_us", "us", Lower),
    layer("serve.allocs_per_batch", "count", Lower),
    layer("serve.artifact_save_ms", "ms", Lower),
    layer("serve.artifact_load_ms", "ms", Lower),
    layer("serve.artifact_bytes", "bytes", Lower),
    layer("serve.model_ratio", "ratio", Lower),
    layer("serve.sim_run_ms", "ms", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.dropped_events", "count", Lower),
];

/// Counts that must repeat exactly between two runs of the same code.
pub const EXACT_COUNTS: &[&str] = &[
    "solver.cg_iters",
    "solver.linesearch_evals",
    "cluster.collectives",
    "cluster.bytes_sent",
    "device.launches",
    "baselines.sgd_steps",
    "core.iters_to_target",
];

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The contract's rule for names: starts with a letter or digit, at most 64
/// of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let tail_ok = name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
    name.len() <= 64 && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()) && tail_ok
}

/// The contract's rule for units: 1–16 of letters, digits, `_ / % . -`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use serde::Value;

    /// `BENCHMARK.json` as this file and `workloads.rs` define it.
    fn benchmark_json() -> Value {
        let text = |s: &str| Value::Str(s.to_string());
        let command = [
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--bin",
            "bench_e2e",
            "--",
        ];
        let metric = |m: &MetricDef| {
            let mut entry = vec![
                ("name".to_string(), text(m.name)),
                ("unit".to_string(), text(m.unit)),
                ("better".to_string(), text(m.better.name())),
            ];
            if let Some(bound) = m.bound {
                entry.push(("bound".to_string(), Value::Num(bound)));
            }
            Value::Map(entry)
        };
        let workloads = workloads::all()
            .iter()
            .map(|w| Value::Map(vec![("name".to_string(), text(w.name)), ("why".to_string(), text(w.why))]))
            .collect();
        Value::Map(vec![
            ("command".to_string(), Value::Seq(command.iter().map(|s| text(s)).collect())),
            ("paths".to_string(), Value::Seq(vec![text("benchmark")])),
            ("run_seconds".to_string(), Value::Num(workloads::RUN_SECONDS as f64)),
            ("workloads".to_string(), Value::Seq(workloads)),
            ("end_to_end".to_string(), Value::Seq(END_TO_END.iter().map(metric).collect())),
            ("per_layer".to_string(), Value::Seq(PER_LAYER.iter().map(metric).collect())),
        ])
    }

    #[test]
    fn benchmark_json_repeats_the_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let expected = serde_json::to_string_pretty(&benchmark_json()).unwrap() + "\n";
        let committed = std::fs::read_to_string(path).unwrap_or_default();
        assert!(committed.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
        assert!(
            committed == expected,
            "{path} is out of date with contract.rs/workloads.rs; it should read:\n{expected}"
        );
    }

    #[test]
    fn the_name_rule_rejects_what_the_contract_rejects() {
        assert!(valid_name("serve.predict_b256_us"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("GFLOP/s") && valid_unit("%") && !valid_unit("") && !valid_unit("µs"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        let workloads = workloads::all();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(workloads.iter().map(|w| w.name));
        for name in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        }
    }

    #[test]
    fn bounds_and_list_sizes_stay_inside_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&workloads::all().len()));
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "set-up time carries the largest bound");
        for w in workloads::all() {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{} why is {} chars",
                w.name,
                w.why.len()
            );
        }
        for name in EXACT_COUNTS {
            assert!(find(name).is_some(), "{name} is not a metric");
        }
    }
}
