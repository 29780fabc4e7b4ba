//! Field readers for parsed JSON rows, shared by the `claims` checker and
//! the `check_trace_report` gate.

use serde::Value;

/// Reads a numeric field of a parsed JSON object.
pub fn num(v: &Value, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    }
}

/// Reads a string field of a parsed JSON object.
pub fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}
