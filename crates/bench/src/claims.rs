//! The paper's claims as data.
//!
//! `CLAIMS.json` at the workspace root holds one row per claim of the
//! paper's Table 1 and Figures 1–5, plus the `"figure": "options"` rows that
//! keep the options only the simulator exercises (the straggler deadline on
//! `scenarios/heterogeneous.json`, f16 compression and f16 artifacts on
//! `scenarios/compressed.json`): an option whose row stops reproducing has
//! lost its reason to exist. Each row holds the sentence, the quantity that
//! tests it, one bound, and `reproduced` — the verdict the `claims` binary
//! measured at its default sizes, which may be `false`. A `false` row is a
//! recorded finding, not a failure: the binary fails only when a verdict
//! changes, a row goes unmeasured, or a measurement has no row. This module
//! parses the file and compares measurements against it; the binary runs
//! the experiments.
//!
//! Every verdict rests on the simulated clock (`"clock": "simulated"`),
//! whose numbers are bit-identical across thread-pool widths.

use crate::report::{num, str_field};
use serde::Value;
use std::fmt;

/// The committed claims file, resolved from the crate to the workspace root.
pub fn claims_path() -> String {
    format!("{}/../../CLAIMS.json", env!("CARGO_MANIFEST_DIR"))
}

/// The keys a row may carry; any other key is a typo and an error.
const FIELDS: [&str; 8] = [
    "id",
    "figure",
    "clock",
    "claim",
    "measure",
    "at_least",
    "at_most",
    "reproduced",
];

/// The one bound a claim's measured value is held to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The claim holds when the measured value is `≥` this.
    AtLeast(f64),
    /// The claim holds when the measured value is `≤` this.
    AtMost(f64),
}

impl Bound {
    /// Whether `measured` satisfies the bound.
    pub fn holds(self, measured: f64) -> bool {
        match self {
            Bound::AtLeast(b) => measured >= b,
            Bound::AtMost(b) => measured <= b,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::AtLeast(b) => write!(f, "at_least {b}"),
            Bound::AtMost(b) => write!(f, "at_most {b}"),
        }
    }
}

/// One row of `CLAIMS.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Unique id, e.g. `"fig3.strong.mnist"`.
    pub id: String,
    /// The table or figure the claim comes from, e.g. `"fig3"`.
    pub figure: String,
    /// The clock the measurement is taken on (`"simulated"`).
    pub clock: String,
    /// The paper's sentence.
    pub claim: String,
    /// What the measured number is.
    pub measure: String,
    /// The bound the measured number must meet for the claim to hold.
    pub bound: Bound,
    /// The verdict recorded at the default sizes.
    pub reproduced: bool,
}

/// Parses `CLAIMS.json`: a JSON array of rows, each with a unique `id`, the
/// string fields `figure`, `clock` (`"simulated"`), `claim` and `measure`,
/// exactly one of `at_least` / `at_most`, and a boolean `reproduced`.
///
/// # Errors
/// A message naming the offending claim (or row index, when the id itself
/// is missing).
pub fn parse_claims(text: &str) -> Result<Vec<Claim>, String> {
    let rows = match serde_json::parse_value(text) {
        Ok(Value::Seq(rows)) => rows,
        Ok(_) => return Err("expected a JSON array of claim rows".to_string()),
        Err(e) => return Err(format!("not JSON: {e}")),
    };
    let mut claims: Vec<Claim> = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let id = str_field(row, "id").ok_or_else(|| format!("row {i}: no string `id`"))?;
        let err = |msg: String| format!("claim {id}: {msg}");
        if let Value::Map(entries) = row {
            if let Some((key, _)) = entries.iter().find(|(k, _)| !FIELDS.contains(&k.as_str())) {
                return Err(err(format!("unknown field `{key}`")));
            }
        }
        let text_field = |key: &str| {
            str_field(row, key)
                .map(str::to_string)
                .ok_or_else(|| err(format!("no string `{key}`")))
        };
        let bound_field = |key: &str| match row.get(key) {
            None => Ok(None),
            Some(_) => num(row, key).map(Some).ok_or_else(|| err(format!("`{key}` is not a number"))),
        };
        let bound = match (bound_field("at_least")?, bound_field("at_most")?) {
            (Some(b), None) => Bound::AtLeast(b),
            (None, Some(b)) => Bound::AtMost(b),
            (Some(_), Some(_)) => return Err(err("has both `at_least` and `at_most`; a claim has one bound".into())),
            (None, None) => return Err(err("has no bound; give `at_least` or `at_most`".into())),
        };
        let reproduced = match row.get("reproduced") {
            Some(Value::Bool(b)) => *b,
            _ => return Err(err("no boolean `reproduced`".into())),
        };
        let clock = text_field("clock")?;
        if clock != "simulated" {
            return Err(err(format!("clock `{clock}`: every verdict is on the simulated clock")));
        }
        if claims.iter().any(|c| c.id == id) {
            return Err(err("duplicate id".into()));
        }
        claims.push(Claim {
            id: id.to_string(),
            figure: text_field("figure")?,
            clock,
            claim: text_field("claim")?,
            measure: text_field("measure")?,
            bound,
            reproduced,
        });
    }
    Ok(claims)
}

/// A disagreement between a run and `CLAIMS.json`.
#[derive(Debug, Clone, PartialEq)]
pub enum Mismatch {
    /// The measured verdict differs from the recorded one.
    ChangedVerdict {
        /// The claim.
        id: String,
        /// The measured value.
        measured: f64,
        /// The claim's bound.
        bound: Bound,
        /// The recorded `reproduced`.
        recorded: bool,
    },
    /// A row the run did not measure (or measured as NaN).
    NoMeasurement {
        /// The claim.
        id: String,
    },
    /// A measurement with no row.
    UnknownClaim {
        /// The measurement's id.
        id: String,
    },
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mismatch::ChangedVerdict {
                id,
                measured,
                bound,
                recorded,
            } => write!(
                f,
                "claim {id}: verdict changed: measured {measured} against {bound} gives reproduced = {}, CLAIMS.json records {recorded}",
                !recorded
            ),
            Mismatch::NoMeasurement { id } => write!(f, "claim {id}: no measurement"),
            Mismatch::UnknownClaim { id } => write!(f, "claim {id}: measured but has no row in CLAIMS.json"),
        }
    }
}

/// The measured value for `id`, if the run produced a non-NaN one.
pub fn measured_value(measured: &[(String, f64)], id: &str) -> Option<f64> {
    measured.iter().find(|(m, _)| m == id).map(|&(_, v)| v).filter(|v| !v.is_nan())
}

/// Compares a run's measurements with the recorded claims: every changed
/// verdict, every claim with no measurement and every measurement with no
/// claim, in that file's order followed by the run's.
pub fn check(claims: &[Claim], measured: &[(String, f64)]) -> Vec<Mismatch> {
    let mut out = Vec::new();
    for c in claims {
        match measured_value(measured, &c.id) {
            None => out.push(Mismatch::NoMeasurement { id: c.id.clone() }),
            Some(v) if c.bound.holds(v) != c.reproduced => out.push(Mismatch::ChangedVerdict {
                id: c.id.clone(),
                measured: v,
                bound: c.bound,
                recorded: c.reproduced,
            }),
            Some(_) => {}
        }
    }
    for (id, _) in measured {
        if !claims.iter().any(|c| &c.id == id) {
            out.push(Mismatch::UnknownClaim { id: id.clone() });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> Vec<Claim> {
        let path = claims_path();
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        parse_claims(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// Measurements that reproduce every committed verdict exactly.
    fn agreeing(claims: &[Claim]) -> Vec<(String, f64)> {
        claims
            .iter()
            .map(|c| {
                let (inside, outside) = match c.bound {
                    Bound::AtLeast(b) => (b + 1.0, b - 1.0),
                    Bound::AtMost(b) => (b - 1.0, b + 1.0),
                };
                (c.id.clone(), if c.reproduced { inside } else { outside })
            })
            .collect()
    }

    const ROW: &str = r#"{"id": "fig9.x", "figure": "fig9", "clock": "simulated", "claim": "c", "measure": "m", "at_least": 1, "reproduced": true}"#;

    #[test]
    fn committed_claims_parse_with_unique_ids_and_one_bound_each() {
        let claims = committed();
        assert!(!claims.is_empty());
        for (i, c) in claims.iter().enumerate() {
            assert!(claims[..i].iter().all(|o| o.id != c.id), "duplicate id {}", c.id);
            assert_eq!(c.clock, "simulated", "{}", c.id);
            assert!(c.id.starts_with(&c.figure), "{} is not under {}", c.id, c.figure);
        }
        assert!(check(&claims, &agreeing(&claims)).is_empty());
    }

    #[test]
    fn rows_without_exactly_one_bound_are_rejected_by_name() {
        let both = ROW.replace(r#""at_least": 1"#, r#""at_least": 1, "at_most": 2"#);
        let none = ROW.replace(r#""at_least": 1, "#, "");
        for bad in [both, none] {
            let err = parse_claims(&format!("[{bad}]")).unwrap_err();
            assert!(err.contains("claim fig9.x") && err.contains("bound"), "{err}");
        }
        assert_eq!(parse_claims(&format!("[{ROW}]")).unwrap()[0].bound, Bound::AtLeast(1.0));
    }

    #[test]
    fn duplicate_ids_unknown_fields_and_other_clocks_are_rejected_by_name() {
        let err = parse_claims(&format!("[{ROW}, {ROW}]")).unwrap_err();
        assert!(err.contains("claim fig9.x") && err.contains("duplicate"), "{err}");
        let err = parse_claims(&format!("[{}]", ROW.replace("at_least", "at_leats"))).unwrap_err();
        assert!(err.contains("claim fig9.x") && err.contains("at_leats"), "{err}");
        let err = parse_claims(&format!("[{}]", ROW.replace(r#""simulated""#, r#""host""#))).unwrap_err();
        assert!(err.contains("claim fig9.x") && err.contains("host"), "{err}");
        assert!(parse_claims("{}").is_err());
    }

    #[test]
    fn a_flipped_verdict_is_an_error_naming_the_claim() {
        let mut claims = committed();
        let measured = agreeing(&claims);
        claims[0].reproduced = !claims[0].reproduced;
        let id = claims[0].id.clone();
        let found = check(&claims, &measured);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(matches!(&found[0], Mismatch::ChangedVerdict { id: m, .. } if *m == id));
        assert!(found[0].to_string().contains(&format!("claim {id}:")));
    }

    #[test]
    fn unknown_and_missing_measurements_are_errors_naming_the_claim() {
        let claims = committed();
        let mut measured = agreeing(&claims);
        let (dropped, _) = measured.remove(1);
        measured.push(("fig9.unlisted".to_string(), 1.0));
        let found = check(&claims, &measured);
        assert_eq!(
            found,
            vec![
                Mismatch::NoMeasurement { id: dropped.clone() },
                Mismatch::UnknownClaim {
                    id: "fig9.unlisted".into()
                }
            ]
        );
        assert!(found[0].to_string().contains(&dropped));
        assert!(found[1].to_string().contains("fig9.unlisted"));
        // A NaN is no measurement at all.
        let mut nan = agreeing(&claims);
        nan[0].1 = f64::NAN;
        assert_eq!(
            check(&claims, &nan),
            vec![Mismatch::NoMeasurement {
                id: claims[0].id.clone()
            }]
        );
    }
}
