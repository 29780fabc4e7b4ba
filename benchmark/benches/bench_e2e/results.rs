//! What one run of one workload produced: measured metrics, correctness
//! checks, operation counts and provenance — and its three renderings: the
//! contract's last stdout line, the result file, and the human table.

use crate::contract::{self, MetricDef};
use crate::stats;
use serde::Value;

/// Who produced a row: enough to tell a stale number from a fresh one.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    pub commit: String,
    pub rustc: String,
    pub host_cores: usize,
    pub threads: usize,
    pub ranks: usize,
    pub transport: String,
    pub seed: u64,
    /// Timed repetitions behind the training medians.
    pub repetitions: usize,
    pub smoke: bool,
}

impl Provenance {
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("commit".into(), Value::Str(self.commit.clone())),
            ("rustc".into(), Value::Str(self.rustc.clone())),
            ("host_cores".into(), Value::Num(self.host_cores as f64)),
            ("threads".into(), Value::Num(self.threads as f64)),
            ("ranks".into(), Value::Num(self.ranks as f64)),
            ("transport".into(), Value::Str(self.transport.clone())),
            ("seed".into(), Value::Num(self.seed as f64)),
            ("repetitions".into(), Value::Num(self.repetitions as f64)),
            ("smoke".into(), Value::Bool(self.smoke)),
        ])
    }
}

/// First line of `program args…`'s stdout, or "unknown" when it cannot run
/// (the driver's checkout, for one, is not a git repository).
pub fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    /// The reported number (a median wherever `samples` has several).
    pub value: f64,
    /// The observations behind `value` (repetitions, set-ups, calls are
    /// summarised — never more than a handful).
    pub samples: Vec<f64>,
    /// How many raw observations `value` summarises (calls, repetitions).
    pub count: u64,
}

impl Measured {
    /// A single observation.
    pub fn one(name: &'static str, value: f64) -> Self {
        Self {
            name,
            value,
            samples: vec![value],
            count: 1,
        }
    }

    /// The median of several observations.
    pub fn median_of(name: &'static str, samples: Vec<f64>) -> Self {
        Self {
            name,
            value: stats::median(&samples),
            count: samples.len() as u64,
            samples,
        }
    }

    /// A statistic over `count` raw observations.
    pub fn summary(name: &'static str, value: f64, count: u64) -> Self {
        Self {
            name,
            value,
            samples: vec![value],
            count,
        }
    }

    fn def(&self) -> &'static MetricDef {
        contract::find(self.name).unwrap_or_else(|| panic!("metric {} is not in the contract", self.name))
    }
}

/// One correctness check of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// Everything one `--workload` invocation reports.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub traced: bool,
    /// Operations: timed training repetitions plus predict calls.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Measured>,
    pub provenance: Provenance,
}

impl WorkloadResult {
    /// No failed operation and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, compact, on one line.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::Map(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.def().unit.into())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        let doc = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&doc).expect("a value tree always serializes")
    }

    /// The result-file form: one row per metric, each carrying the full
    /// provenance, plus the checks.
    pub fn to_value(&self) -> Value {
        let rows = self
            .metrics
            .iter()
            .map(|m| {
                let def = m.def();
                let mut row = vec![
                    ("workload".into(), Value::Str(self.workload.clone())),
                    ("metric".into(), Value::Str(m.name.into())),
                    (
                        "kind".into(),
                        Value::Str(if def.bound.is_some() { "end_to_end" } else { "per_layer" }.into()),
                    ),
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(def.unit.into())),
                    ("better".into(), Value::Str(def.better.name().into())),
                    (
                        "samples".into(),
                        Value::Seq(m.samples.iter().map(|&s| Value::Num(s)).collect()),
                    ),
                    ("count".into(), Value::Num(m.count as f64)),
                ];
                if let Some(bound) = def.bound {
                    row.push(("bound".into(), Value::Num(bound)));
                }
                row.push(("provenance".into(), self.provenance.to_value()));
                Value::Map(row)
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Value::Map(vec![
                    ("name".into(), Value::Str(c.name.into())),
                    ("passed".into(), Value::Bool(c.passed)),
                    ("detail".into(), Value::Str(c.detail.clone())),
                ])
            })
            .collect();
        Value::Map(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("traced".into(), Value::Bool(self.traced)),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("checks".into(), Value::Seq(checks)),
            ("rows".into(), Value::Seq(rows)),
        ])
    }

    /// The human rendering: every metric by name with its unit, then the
    /// checks.
    pub fn print(&self) {
        let p = &self.provenance;
        println!(
            "== {} ({}) — seed {} · {} rank(s) · {} thread(s) · {} · {} repetition(s){} · {} cores · {} · {}",
            self.workload,
            if self.traced { "traced, per layer" } else { "end to end" },
            p.seed,
            p.ranks,
            p.threads,
            p.transport,
            p.repetitions,
            if p.smoke { " · SMOKE" } else { "" },
            p.host_cores,
            p.commit,
            p.rustc,
        );
        for m in &self.metrics {
            let def = m.def();
            let bound = def.bound.map_or(String::new(), |b| format!("  bound {:.0} %", 100.0 * b));
            let samples = if m.samples.len() > 1 {
                let list: Vec<String> = m.samples.iter().map(|s| format!("{s:.6}")).collect();
                format!("  median of [{}]", list.join(", "))
            } else if m.count > 1 {
                format!("  over {} samples", m.count)
            } else {
                String::new()
            };
            println!(
                "  {:<28} {:>16.6} {:<8} ({} is better){bound}{samples}",
                m.name,
                m.value,
                def.unit,
                def.better.name()
            );
        }
        for c in &self.checks {
            println!(
                "  check {:<34} {}  {}",
                c.name,
                if c.passed { "ok  " } else { "FAIL" },
                c.detail
            );
        }
        println!(
            "  operations: {} attempted, {} failed → {}",
            self.attempted,
            self.failed,
            if self.correct() { "correct" } else { "NOT CORRECT" }
        );
    }
}

/// Reads `key` of a map as a number.
pub fn num(v: &Value, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    }
}

/// Reads `key` of a map as a string.
pub fn text<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Reads `key` of a map as a sequence.
pub fn seq<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Seq(items)) => items,
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> WorkloadResult {
        WorkloadResult {
            workload: "mnist_dense_2r".into(),
            traced: false,
            attempted: 3,
            failed: 0,
            checks: vec![Check {
                name: "repetitions agree",
                passed: true,
                detail: String::new(),
            }],
            metrics: vec![
                Measured::median_of("train_wall_s", vec![4.7, 4.5, 4.6]),
                Measured::one("peak_rss_mb", 512.25),
            ],
            provenance: Provenance {
                commit: "abc".into(),
                rustc: "rustc 1.0".into(),
                host_cores: 2,
                threads: 1,
                ranks: 2,
                transport: "thread".into(),
                seed: 7,
                repetitions: 3,
                smoke: false,
            },
        }
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys() {
        let line = result().contract_line();
        assert!(!line.contains('\n'));
        let Value::Map(entries) = serde_json::parse_value(&line).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let doc = Value::Map(entries);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        let wall = doc.get("metrics").and_then(|m| m.get("train_wall_s")).unwrap();
        assert_eq!(num(wall, "value"), Some(4.6));
        assert_eq!(text(wall, "unit"), Some("s"));
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let mut r = result();
        r.failed = 1;
        assert!(!r.correct());
        let mut r = result();
        r.checks[0].passed = false;
        assert!(!r.correct());
        assert!(r.contract_line().contains("\"correct\":false"));
    }

    #[test]
    fn every_result_row_carries_the_provenance() {
        let doc = result().to_value();
        let rows = seq(&doc, "rows");
        assert_eq!(rows.len(), 2);
        for row in rows {
            let p = row.get("provenance").unwrap();
            for key in [
                "commit",
                "rustc",
                "host_cores",
                "threads",
                "ranks",
                "transport",
                "seed",
                "repetitions",
                "smoke",
            ] {
                assert!(p.get(key).is_some(), "row lacks provenance.{key}");
            }
        }
        assert_eq!(num(&rows[0], "bound"), Some(0.25));
        assert_eq!(seq(&rows[0], "samples").len(), 3);
    }

    #[test]
    fn an_unrunnable_tool_reads_unknown() {
        assert_eq!(tool_line("definitely-not-a-program-xyz", &[]), "unknown");
    }
}
