//! CI gate for the span tracer, in two modes:
//!
//! * **`--report PATH`** — validates the flat profiles embedded in a
//!   scenario report array: schema-valid, one rank profile per worker, and
//!   (the straggler physics) fleet-wide `IdleWait` self-time dominating the
//!   actual `CollectiveRound` transfer time, heavily skewed across ranks
//!   because the straggler itself never waits.
//! * **`--chrome PATH`** — validates an exported Chrome trace: parses,
//!   passes the structural validator, carries the four compute layers
//!   (`solver`, `core`, `cluster`, `device`) on every rank pid, and covers
//!   all five instrumented layers (the `serve` layer rides the artifact-io
//!   lane) across the file.
//!
//! ```text
//! cargo run --release -p nadmm-bench --bin check_trace_report -- --report report.json
//! cargo run --release -p nadmm-bench --bin check_trace_report -- --chrome trace.json
//! ```

use nadmm_bench::report::{num, str_field};
use nadmm_trace::{validate_chrome_value, TagProfile, TraceProfile};
use serde::{Deserialize, Value};
use serde_json::parse_value;
use std::cmp::Ordering;

/// `value < bound`, where NaN counts as a miss (a poisoned metric can never
/// slip through a gate).
fn strictly_below(value: f64, bound: f64) -> bool {
    value.partial_cmp(&bound) == Some(Ordering::Less)
}

fn fail(msg: &str) -> ! {
    eprintln!("check_trace_report: FAIL: {msg}");
    std::process::exit(1);
}

fn read_json(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    parse_value(&text).unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e}")))
}

/// The `tag` row of a profile table, if the tag recorded anything.
fn row<'a>(rows: &'a [TagProfile], tag: &str) -> Option<&'a TagProfile> {
    rows.iter().find(|t| t.tag == tag)
}

fn check_run_reports(path: &str) {
    let Value::Seq(reports) = read_json(path) else {
        fail(&format!("{path} is not a JSON array of run reports"));
    };
    if reports.is_empty() {
        fail(&format!("{path} holds no reports"));
    }
    for report in &reports {
        let solver = str_field(report, "solver").unwrap_or_else(|| fail("report has no `solver` field"));
        let workers = num(report, "num_workers").unwrap_or_else(|| fail(&format!("{solver}: no `num_workers` field"))) as usize;
        let Value::Map(fields) = report else {
            fail(&format!("{solver}: report is not a JSON object"));
        };
        let Some((_, profile_value)) = fields.iter().find(|(k, _)| k == "trace_profile") else {
            fail(&format!("{solver}: report carries no `trace_profile` (was tracing enabled?)"));
        };
        let profile = TraceProfile::from_value(profile_value)
            .unwrap_or_else(|e| fail(&format!("{solver}: trace_profile does not deserialize: {e:?}")));
        profile
            .validate_schema()
            .unwrap_or_else(|e| fail(&format!("{solver}: malformed trace_profile: {e}")));
        if profile.per_rank.len() != workers {
            fail(&format!(
                "{solver}: profile covers {} ranks, scenario ran {workers}",
                profile.per_rank.len()
            ));
        }

        // Straggler physics: the fleet spends far more simulated time
        // *waiting* at collectives than actually transferring bytes…
        let idle = row(&profile.merged, "IdleWait")
            .unwrap_or_else(|| fail(&format!("{solver}: no IdleWait time anywhere in the fleet")));
        let coll = row(&profile.merged, "CollectiveRound")
            .unwrap_or_else(|| fail(&format!("{solver}: no CollectiveRound spans in the profile")));
        if !strictly_below(coll.self_sec, idle.self_sec) {
            fail(&format!(
                "{solver}: fleet idle-wait {:.6}s does not dominate transfer time {:.6}s — no straggler signature",
                idle.self_sec, coll.self_sec
            ));
        }
        // …and the waiting is heavily skewed: the straggler sets the pace,
        // so it (the min-idle rank) idles an order of magnitude less than
        // the rank that waits the most.
        let per_rank_idle: Vec<f64> = profile
            .per_rank
            .iter()
            .map(|r| row(&r.tags, "IdleWait").map_or(0.0, |t| t.self_sec))
            .collect();
        let max_idle = per_rank_idle.iter().cloned().fold(0.0, f64::max);
        let min_idle = per_rank_idle.iter().cloned().fold(f64::INFINITY, f64::min);
        if !(strictly_below(0.0, max_idle) && strictly_below(min_idle * 10.0, max_idle)) {
            fail(&format!(
                "{solver}: per-rank idle-wait {per_rank_idle:?} is not straggler-skewed (min {min_idle:.6}s, max {max_idle:.6}s)"
            ));
        }
        println!(
            "check_trace_report: {solver}: OK — {} ranks, idle {:.4}s vs transfer {:.4}s, idle skew {:?}",
            workers, idle.self_sec, coll.self_sec, per_rank_idle
        );
    }
}

fn check_chrome_trace(path: &str) {
    let value = read_json(path);
    let stats = validate_chrome_value(&value).unwrap_or_else(|e| fail(&format!("{path} is malformed: {e}")));
    if stats.event_count == 0 {
        fail(&format!("{path} holds no span or instant events"));
    }
    if stats.pids.len() < 2 {
        fail(&format!(
            "{path} covers only {} rank pid(s) — not a distributed trace",
            stats.pids.len()
        ));
    }
    // Every rank pid must carry all four compute layers.
    const COMPUTE_LAYERS: [&str; 4] = ["cluster", "core", "device", "solver"];
    for (pid, cats) in &stats.cats_by_pid {
        for layer in COMPUTE_LAYERS {
            if !cats.iter().any(|c| c == layer) {
                fail(&format!("pid {pid} has no `{layer}` events (cats: {cats:?})"));
            }
        }
    }
    // The file as a whole must cover all five instrumented layers (`serve`
    // arrives on the artifact-io lane).
    for layer in ["cluster", "core", "device", "serve", "solver"] {
        if !stats.all_cats.iter().any(|c| c == layer) {
            fail(&format!(
                "{path} has no `{layer}` events anywhere (cats: {:?})",
                stats.all_cats
            ));
        }
    }
    println!(
        "check_trace_report: OK — {} events, pids {:?}, layers {:?}",
        stats.event_count, stats.pids, stats.all_cats
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, path] if flag == "--report" => check_run_reports(path),
        [flag, path] if flag == "--chrome" => check_chrome_trace(path),
        _ => fail("usage: check_trace_report --report PATH | --chrome PATH"),
    }
}
