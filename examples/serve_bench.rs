//! End-to-end serving pipeline: **train → save → load → serve**.
//!
//! Executes a committed [`ServingScenario`] (`scenarios/serving.json` by
//! default):
//!
//! 1. runs the training half (a full experiment `ScenarioSpec`) and exports
//!    the first solver's iterate as a versioned `.nadmm` model artifact,
//! 2. reloads the artifact from disk and proves the round trip: the loaded
//!    bytes are bit-identical and the reloaded model reproduces the
//!    training-time test accuracy recorded in the `RunReport` **exactly**,
//! 3. self-gates the batching claim: batch-32 predict throughput (rows per
//!    simulated second) must exceed batch-1 by ≥ 4× on the scenario's
//!    device model (the paper's P100 in the committed scenario),
//! 4. drives the serving simulator over the reloaded model and writes the
//!    structured [`ServeReport`] JSON, then re-reads and schema-validates
//!    the emitted file.
//!
//! Any failure — parse, train, artifact corruption, accuracy drift, a
//! missed throughput gate, or a schema-invalid report — exits non-zero;
//! this is the CI `serve-smoke` entry point.
//!
//! ```text
//! cargo run --release --example serve_bench -- scenarios/serving.json \
//!     [--out REPORT.json] [--deterministic]
//! ```
//!
//! `--deterministic` zeroes the one wall-clock field of the report, so two
//! runs of the same scenario emit **byte-identical** files (CI diffs them).

use newton_admm_repro::prelude::*;
use std::process::ExitCode;

/// Batch sizes of the throughput self-gate.
const GATE_SMALL: usize = 1;
const GATE_LARGE: usize = 32;
/// The large batch must serve at least this many times more rows per
/// simulated second than the small one (shared with the `session` unit tests).
const GATE_SPEEDUP: f64 = newton_admm_repro::serve::BATCH_SPEEDUP_GATE;

/// Rows served per simulated second at one batch size, measured on a warm
/// session over deterministic synthetic rows.
fn modeled_rows_per_sec(session: &mut InferenceSession, batch: usize) -> f64 {
    let p = session.num_features();
    let rows: Vec<f64> = (0..batch * p).map(|i| ((i as f64) * 0.11).sin()).collect();
    let mut preds = vec![0usize; batch];
    session.warm(batch);
    let timing = session.predict_batch_into(&rows, &mut preds);
    assert!(timing.sim_seconds > 0.0, "the device model must charge nonzero time");
    batch as f64 / timing.sim_seconds
}

fn run(scenario_path: &str, out_path: &str, deterministic: bool) -> Result<(), String> {
    let json = std::fs::read_to_string(scenario_path).map_err(|e| format!("cannot read {scenario_path}: {e}"))?;
    let scenario = ServingScenario::from_json(&json).map_err(|e| format!("cannot parse {scenario_path}: {e}"))?;
    scenario.validate().map_err(|e| format!("invalid serving scenario: {e}"))?;

    // ── 1. Train ─────────────────────────────────────────────────────────
    println!(
        "serving scenario `{}`: training `{}` on {} ranks …",
        scenario.name, scenario.train.name, scenario.train.cluster.ranks
    );
    let report = scenario
        .train
        .run()
        .map_err(|e| format!("training failed: {e}"))?
        .into_iter()
        .next()
        .ok_or("training produced no report")?;
    let trained_accuracy = report
        .final_accuracy
        .ok_or("training report has no test accuracy (the serving gate needs a test split)")?;
    println!(
        "trained `{}`: objective {:.6}, test accuracy {:.2}% over {} iterations",
        report.solver,
        report.final_objective.unwrap_or(f64::NAN),
        100.0 * trained_accuracy,
        report.history.records.len()
    );

    // ── 2. Save → load round trip ────────────────────────────────────────
    let artifact =
        artifact_for_scenario(&scenario.train, &report).map_err(|e| format!("cannot export the model artifact: {e}"))?;
    artifact
        .save(&scenario.artifact_path)
        .map_err(|e| format!("cannot save the model artifact: {e}"))?;
    let loaded = ModelArtifact::load(&scenario.artifact_path).map_err(|e| format!("cannot reload the artifact: {e}"))?;
    // `save()` stamps the binary checksum into the sidecar, so the loaded
    // provenance carries the mirror; everything else must round-trip
    // bit-identically.
    let mut expected = artifact.clone();
    expected.provenance.binary_checksum = Some(artifact.binary_checksum_hex());
    if loaded != expected {
        return Err("reloaded artifact differs from the saved one (round trip must be bit-identical)".into());
    }
    println!(
        "artifact round trip OK: {} ({} weights, scenario {})",
        scenario.artifact_path,
        loaded.weights.len(),
        loaded.provenance.scenario_hash.as_deref().unwrap_or("?"),
    );

    // The reloaded model must reproduce the training-time accuracy exactly
    // on the same held-out rows.
    let (_, test) = scenario
        .train
        .data
        .load()
        .map_err(|e| format!("cannot reload the scenario data: {e}"))?;
    let test = test.ok_or("the training scenario has no test split (the serving gate needs one)")?;
    let mut session =
        InferenceSession::new(&loaded, scenario.serve.device).map_err(|e| format!("cannot build a session: {e}"))?;
    let served_accuracy = session.accuracy(&test);
    if served_accuracy != trained_accuracy {
        return Err(format!(
            "serving accuracy {served_accuracy} != training-time accuracy {trained_accuracy} \
             (the reloaded model must reproduce it bit-for-bit)"
        ));
    }
    println!("held-out accuracy reproduced exactly: {:.2}%", 100.0 * served_accuracy);

    // ── 3. Batch-throughput self-gate ────────────────────────────────────
    let small = modeled_rows_per_sec(&mut session, GATE_SMALL);
    let large = modeled_rows_per_sec(&mut session, GATE_LARGE);
    let speedup = large / small;
    println!(
        "batched predict on `{}`: batch-{GATE_SMALL} {:.0} rows/s, batch-{GATE_LARGE} {:.0} rows/s ({speedup:.1}×)",
        scenario.serve.device.name, small, large
    );
    if speedup < GATE_SPEEDUP {
        return Err(format!(
            "batch-{GATE_LARGE} throughput is only {speedup:.2}× batch-{GATE_SMALL} (gate: ≥ {GATE_SPEEDUP}×)"
        ));
    }

    // ── 4. Serve ─────────────────────────────────────────────────────────
    let mut registry = ModelRegistry::new();
    registry
        .load("primary", &scenario.artifact_path, scenario.serve.device)
        .map_err(|e| e.to_string())?;
    let mut serve_report = run_serve(&scenario.serve, &mut registry).map_err(|e| format!("serving failed: {e}"))?;
    if deterministic {
        serve_report.wall_time_sec = 0.0;
    }

    // Archive, then re-read the file and validate the bytes on disk.
    let serialized = serve_report
        .to_json()
        .map_err(|e| format!("cannot serialize the serve report: {e}"))?;
    if let Some(parent) = std::path::Path::new(out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(out_path, &serialized).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let reread = std::fs::read_to_string(out_path).map_err(|e| format!("cannot re-read {out_path}: {e}"))?;
    let parsed = ServeReport::from_json(&reread).map_err(|e| format!("emitted serve report does not parse: {e}"))?;
    parsed
        .validate_schema()
        .map_err(|e| format!("schema-invalid serve report: {e}"))?;

    println!("== serve `{}` — validated report → {out_path} ==", parsed.scenario);
    println!(
        "{:>12}  {:>8}  {:>7}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}  {:>5}",
        "model", "requests", "batches", "mean occ", "rps", "p50 (µs)", "p95 (µs)", "p99 (µs)", "max q"
    );
    for m in &parsed.per_model {
        println!(
            "{:>12}  {:>8}  {:>7}  {:>8.2}  {:>8.0}  {:>8.1}  {:>8.1}  {:>8.1}  {:>5}",
            m.model,
            m.requests,
            m.batches,
            m.mean_batch_occupancy,
            m.throughput_rps,
            1e6 * m.latency.p50_sec,
            1e6 * m.latency.p95_sec,
            1e6 * m.latency.p99_sec,
            m.max_queue_depth
        );
    }
    println!(
        "aggregate: {} requests in {:.3} sim-ms → {:.0} req/s, p99 {:.1} µs",
        parsed.total_requests,
        1e3 * parsed.sim_duration_sec,
        parsed.throughput_rps,
        1e6 * parsed.latency.p99_sec
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario_path: Option<String> = None;
    let mut out_path = "target/serve_report.json".to_string();
    let mut deterministic = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--deterministic" => deterministic = true,
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`\nusage: serve_bench [SCENARIO.json] [--out REPORT.json] [--deterministic]");
                return ExitCode::FAILURE;
            }
            path => {
                if let Some(first) = &scenario_path {
                    eprintln!("unexpected extra argument `{path}` (scenario is already `{first}`)");
                    return ExitCode::FAILURE;
                }
                scenario_path = Some(path.to_string());
            }
        }
    }
    let scenario_path = scenario_path.unwrap_or_else(|| "scenarios/serving.json".to_string());
    match run(&scenario_path, &out_path, deterministic) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
