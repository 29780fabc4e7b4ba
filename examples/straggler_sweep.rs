//! Straggler sweep: Newton-ADMM vs exact-averaging baselines under one slow
//! rank.
//!
//! The paper's central claim is that Newton-ADMM tolerates *inexact, uneven
//! local work* far better than methods whose updates require exact
//! synchronized averaging (GIANT, InexactDANE). This example makes that
//! claim measurable on the simulated cluster: it takes a scenario whose
//! straggler model designates one slow rank, sweeps the rank's slowdown
//! factor over {1×, 2×, 4×, 8×}, and reports each solver's **time to
//! target** (simulated seconds until the objective first reaches a target
//! every run attains).
//!
//! Newton-ADMM runs with a bounded-staleness deadline: the slow rank sheds
//! Newton steps to meet it, contributing a staler local solution instead of
//! stalling the fleet — so its time-to-target degrades only mildly as the
//! slow rank gets slower. GIANT and DANE wait for the straggler at every
//! collective, so their time-to-target grows with the slowdown factor. The
//! example **exits non-zero** if Newton-ADMM's degradation is not strictly
//! smaller than GIANT's at every factor (a self-gating acceptance check).
//!
//! Run with:
//! ```text
//! cargo run --release --example straggler_sweep -- scenarios/heterogeneous.json
//! ```

use newton_admm_repro::prelude::*;
use std::process::ExitCode;

const FACTORS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

struct SweepRun {
    solver: String,
    factor: f64,
    history: Vec<(f64, f64)>, // (sim time, objective)
    final_objective: f64,
    skew: Option<RankSkew>,
}

fn run_sweep(scenario: &ScenarioSpec) -> Result<Vec<SweepRun>, String> {
    let straggler = scenario
        .cluster
        .straggler
        .as_ref()
        .ok_or("scenario must define cluster.straggler")?;
    if straggler.slow_ranks.len() != 1 {
        return Err(format!(
            "scenario must designate exactly one slow rank to sweep, found {}",
            straggler.slow_ranks.len()
        ));
    }
    let slow_rank = straggler.slow_ranks[0].rank;
    let mut runs = Vec::new();
    for factor in FACTORS {
        let mut swept = scenario.clone();
        swept.cluster.straggler.as_mut().expect("checked above").slow_ranks[0].factor = factor;
        println!("running `{}` with rank {slow_rank} at {factor}× slowdown …", swept.name);
        let reports = swept.run().map_err(|e| format!("sweep at {factor}× failed: {e}"))?;
        for report in reports {
            runs.push(SweepRun {
                solver: report.solver.clone(),
                factor,
                history: report.history.records.iter().map(|r| (r.sim_time_sec, r.objective)).collect(),
                final_objective: report.final_objective.unwrap_or(f64::INFINITY),
                skew: report.rank_skew,
            });
        }
    }
    Ok(runs)
}

/// The per-solver target: the worst final objective the solver reaches over
/// the whole sweep (so every run of that solver attains it), padded by a
/// hair of floating-point tolerance.
fn target_for(runs: &[SweepRun], solver: &str) -> f64 {
    runs.iter()
        .filter(|r| r.solver == solver)
        .map(|r| r.final_objective)
        .fold(f64::NEG_INFINITY, f64::max)
        * (1.0 + 1e-9)
}

/// Simulated seconds until the run's objective first reaches `target`.
fn time_to_target(run: &SweepRun, target: f64) -> Option<f64> {
    run.history.iter().find(|(_, obj)| *obj <= target).map(|(t, _)| *t)
}

fn main() -> ExitCode {
    let scenario_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "scenarios/heterogeneous.json".to_string());
    let json = match std::fs::read_to_string(&scenario_path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot read {scenario_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scenario = match ScenarioSpec::from_json(&json) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot parse {scenario_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let runs = match run_sweep(&scenario) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("straggler_sweep: {e}");
            return ExitCode::FAILURE;
        }
    };

    let solvers: Vec<String> = {
        let mut names: Vec<String> = Vec::new();
        for r in &runs {
            if !names.contains(&r.solver) {
                names.push(r.solver.clone());
            }
        }
        names
    };

    // Time-to-target table: one row per slowdown factor, one column pair
    // (seconds, degradation vs 1×) per solver.
    println!("== time to target objective under one slow rank (`{}`) ==", scenario.name);
    let mut header = format!("{:>16}", "slow-rank factor");
    let mut widths = Vec::new();
    for s in &solvers {
        let (time, ratio) = (format!("{s} t→target (s)"), format!("{s} ×1x"));
        widths.push((time.chars().count(), ratio.chars().count()));
        header += &format!("  {time}  {ratio}");
    }
    println!("{header}");
    let mut baseline: Vec<f64> = vec![f64::NAN; solvers.len()];
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); solvers.len()];
    for factor in FACTORS {
        let mut row = format!("{:>16}", format!("{factor}×"));
        for (i, solver) in solvers.iter().enumerate() {
            let target = target_for(&runs, solver);
            let run = runs
                .iter()
                .find(|r| r.solver == *solver && r.factor == factor)
                .expect("every solver ran at every factor");
            match time_to_target(run, target) {
                Some(t) => {
                    if factor == 1.0 {
                        baseline[i] = t;
                    }
                    let ratio = t / baseline[i];
                    ratios[i].push(ratio);
                    row += &format!(
                        "  {t:>tw$.6}  {:>rw$}",
                        format!("{ratio:.2}×"),
                        tw = widths[i].0,
                        rw = widths[i].1
                    );
                }
                None => {
                    row += &format!("  {:>tw$}  {:>rw$}", "never", "∞", tw = widths[i].0, rw = widths[i].1);
                    ratios[i].push(f64::INFINITY);
                }
            }
        }
        println!("{row}");
    }

    // Per-rank skew of the Newton-ADMM runs (the RunReport field this
    // example exists to surface).
    println!("== newton-admm per-rank skew ==");
    println!(
        "{:>6}  {:>15}  {:>17}  {:>18}",
        "factor", "compute max/min", "max idle wait (s)", "max round skew (s)"
    );
    for run in runs.iter().filter(|r| r.solver == "newton-admm") {
        let skew = run.skew.as_ref().expect("experiment reports carry rank skew");
        println!(
            "{:>6}  {:>15}  {:>17.6}  {:>18.6}",
            format!("{}×", run.factor),
            format!("{:.2}×", skew.compute_imbalance()),
            skew.max_idle_wait_sec,
            skew.max_round_skew_sec
        );
    }

    // The acceptance gate: Newton-ADMM's time-to-target must degrade
    // strictly less than GIANT's as the slow rank slows down.
    let nadmm = solvers.iter().position(|s| s == "newton-admm");
    let giant = solvers.iter().position(|s| s == "giant");
    match (nadmm, giant) {
        (Some(n), Some(g)) => {
            for (i, factor) in FACTORS.iter().enumerate().skip(1) {
                let (rn, rg) = (ratios[n][i], ratios[g][i]);
                // "Not strictly less" must also trip on NaN, so compare via
                // partial_cmp instead of a negated `<`.
                if rn.partial_cmp(&rg) != Some(std::cmp::Ordering::Less) {
                    eprintln!(
                        "FAIL: at {factor}× slowdown newton-admm degraded {rn:.2}×, \
                         not strictly less than giant's {rg:.2}×"
                    );
                    return ExitCode::FAILURE;
                }
            }
            println!(
                "PASS: newton-admm's time-to-target degrades strictly less than giant's at every factor \
                 (8×: {:.2}× vs {:.2}×)",
                ratios[n][FACTORS.len() - 1],
                ratios[g][FACTORS.len() - 1]
            );
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("scenario must include both newton-admm and giant solvers");
            ExitCode::FAILURE
        }
    }
}
