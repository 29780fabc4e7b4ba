//! `bench_e2e compare A.json B.json`: per workload × metric, B's ratio to its
//! base A and — for bounded metrics — a verdict against the bound.

use crate::contract::{Better, EXACT_COUNTS};
use crate::results::{num, seq, text};
use crate::stats;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// One metric of one workload as read back from a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub value: f64,
    pub samples: Vec<f64>,
    pub unit: String,
    pub better: Better,
    pub bound: Option<f64>,
    /// `provenance.seed` of the run that produced the row.
    pub seed: Option<f64>,
}

/// How B's value stands against A's under the metric's bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the base by more than the bound.
    Within,
    /// Worse than the base by more than the bound.
    Worse,
    /// The spread of the samples exceeds the bound, so the medians cannot
    /// settle it (unless every sample of B beats every sample of A).
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Spread of one row's samples as a share of their median: the quartile
/// distance from four samples up, the range for two or three, unknown (0)
/// for one.
pub fn spread(samples: &[f64]) -> f64 {
    if samples.len() >= 4 {
        return stats::iqr_share(samples).unwrap_or(0.0);
    }
    let v = stats::sorted(samples);
    match (v.first(), v.last()) {
        (Some(lo), Some(hi)) if v.len() >= 2 && stats::median(&v) != 0.0 => (hi - lo) / stats::median(&v).abs(),
        _ => 0.0,
    }
}

/// By how large a share of the base `b` is worse than `a` (negative when it
/// is better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict of section 6.5 of the metrics guide.
pub fn verdict(a: &Row, b: &Row, bound: f64) -> Verdict {
    if spread(&a.samples).max(spread(&b.samples)) > bound {
        let b_always_better = a
            .samples
            .iter()
            .all(|&x| b.samples.iter().all(|&y| worse_by(x, y, a.better) < 0.0));
        return if b_always_better {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(a.value, b.value, a.better) > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

type Table = BTreeMap<(String, String), Row>;

/// Collects the rows of a result file: a full set (`{"runs": […]}`) or the
/// file of a single run.
pub fn rows_of(doc: &Value) -> Result<Table, String> {
    let runs = match doc.get("runs") {
        Some(Value::Seq(runs)) => runs.as_slice(),
        _ => std::slice::from_ref(doc),
    };
    let mut table = Table::new();
    for run in runs {
        for row in seq(run, "rows") {
            let field = |key: &str| text(row, key).ok_or_else(|| format!("a row lacks `{key}`"));
            let better = Better::parse(field("better")?).ok_or("a row has a bad `better`")?;
            let samples = seq(row, "samples")
                .iter()
                .filter_map(|v| if let Value::Num(n) = v { Some(*n) } else { None })
                .collect();
            let parsed = Row {
                value: num(row, "value").ok_or("a row lacks `value`")?,
                samples,
                unit: field("unit")?.to_string(),
                better,
                bound: num(row, "bound"),
                seed: row.get("provenance").and_then(|p| num(p, "seed")),
            };
            table.insert((field("workload")?.to_string(), field("metric")?.to_string()), parsed);
        }
    }
    if table.is_empty() {
        return Err("no result rows found".into());
    }
    Ok(table)
}

fn load(path: &Path) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))?;
    rows_of(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the comparison; `Ok(true)` when no bounded metric is worse and
/// every exact count repeats.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("base A = {}, B = {}; ratio = B / A", a_path.display(), b_path.display());
    println!(
        "{:<20} {:<28} {:>16} {:>16} {:>8}  {:<8} verdict",
        "workload", "metric", "A (base)", "B", "ratio", "unit"
    );
    let mut clean = true;
    for (key, row_a) in &a {
        let Some(row_b) = b.get(key) else {
            println!("{:<20} {:<28} only in A", key.0, key.1);
            continue;
        };
        let ratio = if row_a.value != 0.0 {
            row_b.value / row_a.value
        } else {
            f64::NAN
        };
        let note = if let Some(bound) = row_a.bound {
            let v = verdict(row_a, row_b, bound);
            clean &= v != Verdict::Worse;
            format!(
                "{} (bound {:.0} %, spread {:.1} %)",
                v.name(),
                100.0 * bound,
                100.0 * spread(&row_a.samples).max(spread(&row_b.samples))
            )
        } else if EXACT_COUNTS.contains(&key.1.as_str()) {
            // A count has to repeat only on the same inputs.
            let same = row_a.value == row_b.value;
            if row_a.seed != row_b.seed {
                "exact count (seeds differ, not compared)".to_string()
            } else {
                clean &= same;
                if same { "exact count repeats" } else { "EXACT COUNT DIFFERS" }.to_string()
            }
        } else {
            String::new()
        };
        println!(
            "{:<20} {:<28} {:>16.6} {:>16.6} {:>8.4}  {:<8} {note}",
            key.0, key.1, row_a.value, row_b.value, ratio, row_a.unit
        );
    }
    for key in b.keys().filter(|k| !a.contains_key(*k)) {
        println!("{:<20} {:<28} only in B", key.0, key.1);
    }
    println!(
        "{}",
        if clean {
            "no metric is worse than its bound allows"
        } else {
            "REGRESSION: see `worse` / `DIFFERS` above"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(value: f64, samples: &[f64], better: Better) -> Row {
        Row {
            value,
            samples: samples.to_vec(),
            unit: "s".into(),
            better,
            bound: Some(0.05),
            seed: Some(7.0),
        }
    }

    #[test]
    fn worse_by_respects_the_direction() {
        assert!((worse_by(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn spread_uses_quartiles_from_four_samples_and_range_below() {
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        let many = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert!((spread(&many) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = row(10.0, &[9.9, 10.0, 10.1], Better::Lower);
        assert_eq!(
            verdict(&base, &row(10.4, &[10.3, 10.4, 10.5], Better::Lower), 0.05),
            Verdict::Within
        );
        assert_eq!(
            verdict(&base, &row(10.6, &[10.5, 10.6, 10.7], Better::Lower), 0.05),
            Verdict::Worse
        );
        // A noisy side: the medians cannot settle it…
        assert_eq!(
            verdict(&base, &row(10.6, &[9.5, 10.6, 11.5], Better::Lower), 0.05),
            Verdict::Unresolved
        );
        // …unless every sample of B beats every sample of A.
        assert_eq!(
            verdict(&base, &row(8.0, &[7.0, 8.0, 9.0], Better::Lower), 0.05),
            Verdict::Within
        );
        let up = row(100.0, &[100.0], Better::Higher);
        assert_eq!(verdict(&up, &row(90.0, &[90.0], Better::Higher), 0.05), Verdict::Worse);
    }

    #[test]
    fn rows_are_read_from_a_set_or_a_single_run() {
        let text = r#"{"runs": [{"workload": "w", "rows": [
            {"workload": "w", "metric": "train_wall_s", "value": 4.5, "unit": "s", "better": "lower",
             "samples": [4.4, 4.5, 4.6], "bound": 0.1, "provenance": {"seed": 7}}]}]}"#;
        let doc = serde_json::parse_value(text).unwrap();
        let table = rows_of(&doc).unwrap();
        let row = &table[&("w".to_string(), "train_wall_s".to_string())];
        assert_eq!(
            (row.value, row.samples.len(), row.bound, row.seed),
            (4.5, 3, Some(0.1), Some(7.0))
        );
        let single = seq(&doc, "runs")[0].clone();
        assert_eq!(rows_of(&single).unwrap(), table);
        assert!(rows_of(&Value::Map(vec![])).is_err());
    }
}
