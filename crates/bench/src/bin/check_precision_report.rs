//! CI gate for the precision bench: asserts that `BENCH_kernels.json`
//! contains the `precision` section and that the recorded numbers prove the
//! reduced-precision path pays off at every layer — f16-on-the-wire
//! allreduce beats full width and shifts the tree→ring crossover ~4× later
//! in logical bytes, the f16 artifact is under half the f64 file, its
//! predictions agree with full precision, and the compressed warm path
//! allocates nothing.
//!
//! ```text
//! NADMM_BENCH_SMOKE=1 cargo bench -p nadmm-bench --bench precision
//! cargo run --release -p nadmm-bench --bin check_precision_report
//! ```

use nadmm_bench::report::{num, report_path, str_field};
use serde::Value;
use serde_json::parse_value;
use std::cmp::Ordering;

/// `value < bound`, where NaN counts as a miss (a poisoned metric can never
/// slip through a gate).
fn strictly_below(value: f64, bound: f64) -> bool {
    value.partial_cmp(&bound) == Some(Ordering::Less)
}

fn fail(msg: &str) -> ! {
    eprintln!("check_precision_report: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let path = report_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e} (run the precision bench first)")));
    let rows = match parse_value(&text) {
        Ok(Value::Seq(rows)) => rows,
        other => fail(&format!("{path} is not a JSON array: {other:?}")),
    };

    let precision: Vec<&Value> = rows.iter().filter(|r| str_field(r, "group") == Some("precision")).collect();
    if precision.is_empty() {
        fail("no `precision` section in the report");
    }
    let value_of = |prefix: &str| -> Option<f64> {
        precision
            .iter()
            .find(|r| str_field(r, "id").is_some_and(|id| id.starts_with(prefix)))
            .and_then(|r| num(r, "ns_per_iter"))
    };

    // 1. Compressed allreduce: every logical payload must cost strictly less
    //    on the wire with f16 than at full width.
    let mut allreduce_pairs = 0;
    for row in &precision {
        let id = str_field(row, "id").unwrap_or("");
        let Some(rest) = id.strip_prefix("allreduce_model/f16/") else {
            continue;
        };
        let f16_ns = num(row, "ns_per_iter").unwrap_or(f64::NAN);
        let none_ns = value_of(&format!("allreduce_model/none/{rest}"))
            .unwrap_or_else(|| fail(&format!("no full-width twin for allreduce_model/f16/{rest}")));
        if !strictly_below(f16_ns, none_ns) {
            fail(&format!(
                "compressed allreduce at {rest} modeled {f16_ns:.1}ns, not below full width's {none_ns:.1}ns"
            ));
        }
        allreduce_pairs += 1;
    }
    if allreduce_pairs == 0 {
        fail("no compressed/full-width allreduce model pairs found");
    }

    // 2. Crossover shift: f16 payloads are 2 of 8 bytes per element, so the
    //    tree→ring switch point must land ~4× later in logical bytes.
    let none_cross = value_of("allreduce_crossover_logical_bytes/none/").unwrap_or_else(|| fail("no full-width crossover row"));
    let f16_cross = value_of("allreduce_crossover_logical_bytes/f16/").unwrap_or_else(|| fail("no f16 crossover row"));
    let shift = f16_cross / none_cross;
    if !(3.5..=4.5).contains(&shift) {
        fail(&format!(
            "f16 shifts the logical crossover {shift:.2}× ({none_cross:.0}B → {f16_cross:.0}B), expected ~4×"
        ));
    }

    // 3. Artifact sizes: the f16 file must be under half the f64 file.
    let f64_bytes = value_of("artifact_bytes/f64").unwrap_or_else(|| fail("no f64 artifact size row"));
    let f16_bytes = value_of("artifact_bytes/f16").unwrap_or_else(|| fail("no f16 artifact size row"));
    if !strictly_below(f16_bytes, 0.5 * f64_bytes) {
        fail(&format!(
            "f16 artifact is {f16_bytes:.0}B vs {f64_bytes:.0}B for f64 (expected strictly under half)"
        ));
    }

    // 4. The f16 model must agree with full precision on ≥99% of rows.
    let agreement = value_of("f16_prediction_agreement/").unwrap_or_else(|| fail("no f16 prediction agreement row"));
    if strictly_below(agreement, 0.99) || agreement.is_nan() {
        fail(&format!("f16 prediction agreement is {agreement:.4}, below the 0.99 gate"));
    }

    // 5. Compressed warm path stays allocation-free.
    for row in &precision {
        if str_field(row, "id") == Some("compressed_allreduce_warm_allocs") {
            let allocs = num(row, "allocs_per_iter").unwrap_or(f64::NAN);
            if allocs != 0.0 {
                fail(&format!(
                    "compressed warm allreduce recorded {allocs} allocations (expected 0)"
                ));
            }
        }
    }

    println!(
        "check_precision_report: OK ({} precision rows, {allreduce_pairs} allreduce pairs, \
         crossover shift {shift:.2}×, agreement {agreement:.3})",
        precision.len()
    );
}
