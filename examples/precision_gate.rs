//! Reduced-precision acceptance gate: compressed collectives and quantized
//! model artifacts must pay their way without giving up accuracy.
//!
//! Takes a scenario whose cluster opts into gradient compression
//! (`scenarios/compressed.json`, `"compression": "f16"`) and runs it twice —
//! once as committed and once with compression forced off — then gates:
//!
//! 1. **Wire bytes** — the compressed run moves ≤ half the on-wire bytes of
//!    the uncompressed run (f16 payloads are 2 of 8 bytes per element, so
//!    the observed ratio is ~4×), while the *logical* byte counts of the two
//!    runs are identical.
//! 2. **Communication time** — the simulated comm time strictly drops.
//! 3. **Training accuracy** — half-precision gradient exchange shifts the
//!    final test accuracy by at most 2 percentage points.
//! 4. **Artifact precision** — the trained iterate is exported at f64 and
//!    f16; the f16 file must be less than half the f64 file's size and the
//!    reloaded f16 model must serve held-out accuracy within 0.1%
//!    (absolute) of the f64 model's.
//!
//! Any missed gate exits non-zero; CI runs this as part of the scenario
//! smoke job.
//!
//! ```text
//! cargo run --release --example precision_gate -- scenarios/compressed.json
//! ```

use newton_admm_repro::prelude::*;
use std::cmp::Ordering;
use std::process::ExitCode;

/// Gate 1: compressed wire bytes must be at most this fraction of the
/// uncompressed run's.
const WIRE_BYTES_GATE: f64 = 0.5;
/// Gate 3: max absolute shift in final test accuracy from compressed
/// training (2 percentage points).
const TRAIN_ACCURACY_GATE: f64 = 0.02;
/// Gate 4: max absolute served-accuracy delta between the f16 and f64
/// artifacts (0.1%).
const SERVE_ACCURACY_GATE: f64 = 0.001;

fn file_len(path: &str) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("cannot stat {path}: {e}"))
}

/// `value ≤ bound`, where NaN counts as a miss (so a poisoned metric can
/// never slip through a gate).
fn within(value: f64, bound: f64) -> bool {
    matches!(value.partial_cmp(&bound), Some(Ordering::Less | Ordering::Equal))
}

/// `value < bound`, where NaN counts as a miss.
fn strictly_below(value: f64, bound: f64) -> bool {
    value.partial_cmp(&bound) == Some(Ordering::Less)
}

fn run(scenario_path: &str) -> Result<(), String> {
    let json = std::fs::read_to_string(scenario_path).map_err(|e| format!("cannot read {scenario_path}: {e}"))?;
    let scenario = ScenarioSpec::from_json(&json).map_err(|e| format!("cannot parse {scenario_path}: {e}"))?;
    if scenario.cluster.compression == Compression::None {
        return Err(format!(
            "scenario `{}` does not enable gradient compression; this gate needs `cluster.compression` set",
            scenario.name
        ));
    }
    let mut full_width = scenario.clone();
    full_width.cluster.compression = Compression::None;

    println!(
        "scenario `{}`: {} solver(s) on {} ranks, compression {} vs none …",
        scenario.name,
        scenario.solvers.len(),
        scenario.cluster.ranks,
        scenario.cluster.compression.name(),
    );
    let compressed = scenario.run().map_err(|e| format!("compressed run failed: {e}"))?;
    let baseline = full_width.run().map_err(|e| format!("full-width run failed: {e}"))?;

    // ── Gates 1–3, per solver ────────────────────────────────────────────
    println!(
        "== compressed ({}) vs full-width collectives ==",
        scenario.cluster.compression.name()
    );
    println!(
        "{:>12}  {:>10}  {:>16}  {:>5}  {:>15}  {:>10}",
        "solver", "wire bytes", "full-width bytes", "ratio", "comm time ratio", "test acc Δ"
    );
    for (comp, full) in compressed.iter().zip(&baseline) {
        if comp.solver != full.solver {
            return Err(format!("report order diverged: `{}` vs `{}`", comp.solver, full.solver));
        }
        let (cs, fs) = (&comp.comm_stats, &full.comm_stats);
        // The compression layer must not change *what* is communicated —
        // only how many bytes it costs on the wire.
        if cs.logical_bytes_sent != fs.logical_bytes_sent {
            return Err(format!(
                "`{}`: logical bytes diverged ({} compressed vs {} full-width) — compression must be transparent",
                comp.solver, cs.logical_bytes_sent, fs.logical_bytes_sent
            ));
        }
        let byte_ratio = cs.bytes_sent / fs.bytes_sent;
        let time_ratio = cs.comm_time / fs.comm_time;
        let acc_delta = match (comp.final_accuracy, full.final_accuracy) {
            (Some(c), Some(f)) => Some(c - f),
            _ => None,
        };
        println!(
            "{:>12}  {:>10.0}  {:>16.0}  {byte_ratio:>5.3}  {time_ratio:>15.3}  {:>10}",
            comp.solver,
            cs.bytes_sent,
            fs.bytes_sent,
            acc_delta.map(|d| format!("{:+.2}%", 100.0 * d)).unwrap_or_default()
        );
        if !within(byte_ratio, WIRE_BYTES_GATE) {
            return Err(format!(
                "`{}`: compressed wire bytes are {byte_ratio:.3}× the full-width run's (gate: ≤ {WIRE_BYTES_GATE})",
                comp.solver
            ));
        }
        if !strictly_below(time_ratio, 1.0) {
            return Err(format!(
                "`{}`: compressed comm time is {time_ratio:.3}× the full-width run's (gate: strictly < 1)",
                comp.solver
            ));
        }
        if let Some(delta) = acc_delta {
            if !within(delta.abs(), TRAIN_ACCURACY_GATE) {
                return Err(format!(
                    "`{}`: compressed training shifted test accuracy by {:+.2}% (gate: ≤ {:.0}%)",
                    comp.solver,
                    100.0 * delta,
                    100.0 * TRAIN_ACCURACY_GATE
                ));
            }
        }
    }

    // ── Gate 4: f16 artifact serves within 0.1% of f64 ───────────────────
    // Export the full-width run's first iterate both ways; the scenario's
    // test split is the serving set and the P100 the serving device.
    let report = &baseline[0];
    let f64_path = "target/precision_gate_f64.nadmm";
    let f16_path = "target/precision_gate_f16.nadmm";
    let artifact = artifact_for_scenario(&full_width, report).map_err(|e| format!("cannot export the model artifact: {e}"))?;
    artifact.save(f64_path).map_err(|e| format!("cannot save {f64_path}: {e}"))?;
    artifact
        .clone()
        .with_weight_encoding(TensorEncoding::F16)
        .map_err(|e| format!("cannot encode the weights as f16: {e}"))?
        .save(f16_path)
        .map_err(|e| format!("cannot save {f16_path}: {e}"))?;

    let (f64_len, f16_len) = (file_len(f64_path)?, file_len(f16_path)?);
    if !strictly_below(f16_len as f64, 0.5 * f64_len as f64) {
        return Err(format!(
            "f16 artifact is {f16_len} bytes vs {f64_len} for f64 (gate: strictly less than half)"
        ));
    }

    let (_, test) = scenario
        .data
        .load()
        .map_err(|e| format!("cannot reload the scenario data: {e}"))?;
    let test = test.ok_or("the scenario has no test split (the serving gate needs one)")?;
    let device = DeviceSpec::tesla_p100();
    let mut served = Vec::new();
    for path in [f64_path, f16_path] {
        let loaded = ModelArtifact::load(path).map_err(|e| format!("cannot reload {path}: {e}"))?;
        let mut session = InferenceSession::new(&loaded, device).map_err(|e| format!("cannot build a session: {e}"))?;
        served.push(session.accuracy(&test));
    }
    let (acc_f64, acc_f16) = (served[0], served[1]);
    println!(
        "artifacts: f64 {f64_len} B → {:.2}% held-out, f16 {f16_len} B ({:.2}× smaller) → {:.2}% held-out",
        100.0 * acc_f64,
        f64_len as f64 / f16_len as f64,
        100.0 * acc_f16
    );
    if !within((acc_f16 - acc_f64).abs(), SERVE_ACCURACY_GATE) {
        return Err(format!(
            "f16 artifact serves {:.3}% vs {:.3}% for f64 (gate: within {:.1}% absolute)",
            100.0 * acc_f16,
            100.0 * acc_f64,
            100.0 * SERVE_ACCURACY_GATE
        ));
    }

    println!(
        "PASS: wire bytes ≤ {WIRE_BYTES_GATE}× full-width, comm time strictly down, \
         f16 artifact < half size within {:.1}% accuracy",
        100.0 * SERVE_ACCURACY_GATE
    );
    Ok(())
}

fn main() -> ExitCode {
    let scenario_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "scenarios/compressed.json".to_string());
    match run(&scenario_path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("precision_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
