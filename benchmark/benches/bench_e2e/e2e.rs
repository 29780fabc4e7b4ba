//! The end-to-end run of one workload (`--trace 0`): tracing off, nothing
//! measured but what a user of the system sees.

use crate::results::{Check, Measured, WorkloadResult};
use crate::serve::{self, Deployed, MixOutcome};
use crate::train::{self, Prepared, TargetHit, TimedRun};
use crate::workloads::{Wire, Workload, TRAINING_SERVE_SECONDS};
use crate::{stats, Options};
use nadmm_experiment::RunReport;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. The serving workload trains
/// inside its set-up, so its set-ups are also the only samples behind its
/// `train_wall_s` and `time_to_target_s` — sub-second runs with nothing to
/// warm them up, which need five for a steady median.
pub const SETUP_REPETITIONS: usize = 3;
pub const SERVING_SETUP_REPETITIONS: usize = 5;
/// Timed training repetitions per run, at least. More are made only while
/// the next one still fits into `--seconds`.
pub const MIN_REPETITIONS: usize = 3;

/// `VmHWM` of this process, in MB (2^20 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// The training runs of one benchmark run that count as operations.
#[derive(Default)]
pub struct Repetitions {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub walls: Vec<f64>,
    pub hits: Vec<TargetHit>,
    /// The reports of the repetitions that passed, in order.
    pub reports: Vec<RunReport>,
}

impl Repetitions {
    /// Books one repetition: a run that errored, panicked, or missed its
    /// schema, target or accuracy floor is a failed operation.
    pub fn record(&mut self, w: &Workload, outcome: Result<TimedRun, String>) {
        self.attempted += 1;
        match outcome.and_then(|run| train::check_run(w, &run.report).map(|hit| (run, hit))) {
            Ok((run, hit)) => {
                self.walls.push(run.wall_s);
                self.hits.push(hit);
                self.reports.push(run.report);
            }
            Err(why) => self.failures.push(why),
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Every passing repetition ended on `reference`, bit for bit.
    pub fn agree_with(&self, name: &'static str, reference: &[f64]) -> Check {
        let same = self.reports.iter().all(|r| train::same_bits(&r.final_w, reference));
        Check {
            name,
            passed: same && !self.reports.is_empty(),
            detail: format!("{} run(s) compared, failures: {:?}", self.reports.len(), self.failures),
        }
    }
}

/// Seconds of serving mix a workload runs.
pub fn mix_seconds(w: &Workload, opts: &Options) -> f64 {
    let full = if w.serving { opts.seconds } else { TRAINING_SERVE_SECONDS };
    if opts.smoke {
        full.min(0.25)
    } else {
        full
    }
}

/// One closed-loop pass of the seeded mix over a deployed model.
pub fn serve_mix(w: &Workload, deployed: &mut Deployed, opts: &Options) -> (Vec<serve::Call>, MixOutcome) {
    let calls = serve::schedule(opts.seed, deployed.expected.len());
    let outcome = serve::run_mix(deployed, &calls, mix_seconds(w, opts));
    (calls, outcome)
}

/// The timed repetitions of a training workload, after its warm-up. Every
/// repetition must end on the same iterate bit for bit; on TCP that iterate
/// is the one the same experiment reaches on the thread transport (the
/// README's byte-identity contract), computed here as the warm-up.
fn train_repetitions(w: &Workload, prepared: &mut Prepared, opts: &Options, reps: &mut Repetitions) -> Result<Check, String> {
    let reference = match w.wire {
        Wire::Thread => {
            train::warm_up(w, prepared)?;
            None
        }
        Wire::Tcp => Some(train::run_thread(&prepared.experiment)?.report.final_w),
    };
    // A user's process holds the experiment, not a second copy of the data.
    prepared.shards = Vec::new();
    let started = Instant::now();
    loop {
        let mesh = prepared.mesh.take();
        reps.record(w, train::run_on_wire(w, &prepared.experiment, mesh));
        if (reps.attempted as usize) < MIN_REPETITIONS {
            continue;
        }
        // `--smoke` checks the plumbing: the minimum is enough.
        let next_fits = !reps.walls.is_empty() && started.elapsed().as_secs_f64() + stats::median(&reps.walls) <= opts.seconds;
        if reps.failed() > 0 || opts.smoke || !next_fits {
            break;
        }
    }
    Ok(match reference {
        Some(thread_w) => reps.agree_with("tcp iterate equals thread transport", &thread_w),
        None => reps.agree_with(
            "repetitions agree bit for bit",
            reps.reports.first().map_or(&[], |r| &r.final_w),
        ),
    })
}

/// Runs `w` end to end and reports the six end-to-end metrics.
pub fn run(w: &Workload, opts: &Options) -> Result<WorkloadResult, String> {
    let mut reps = Repetitions::default();
    let mut checks = Vec::new();
    let setup_repetitions = if w.serving {
        SERVING_SETUP_REPETITIONS
    } else {
        SETUP_REPETITIONS
    };
    let mut setups = Vec::with_capacity(setup_repetitions);
    let mut prepared: Option<Prepared> = None;
    let mut deployed: Option<Deployed> = None;

    // Set-up, several times over: the median goes into `setup_s`, the last
    // one is used. The previous one is dropped first so two data sets never
    // coexist (peak RSS is a metric). For the serving workload training,
    // save, load and warm-up all belong to set-up.
    for _ in 0..setup_repetitions {
        drop(deployed.take());
        drop(prepared.take());
        let t = Instant::now();
        let p = train::prepare(w, opts.seed)?;
        if w.serving {
            reps.record(w, train::run_thread(&p.experiment));
            let report = reps
                .reports
                .last()
                .ok_or_else(|| format!("set-up training failed: {:?}", reps.failures))?;
            deployed = Some(serve::deploy(w.name, report, &p.test, &opts.out_dir)?);
        }
        setups.push(t.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let mut prepared = prepared.expect("at least one set-up ran");

    if w.serving {
        let first = reps.reports[0].final_w.clone();
        checks.push(reps.agree_with("set-up trainings agree bit for bit", &first));
    } else {
        checks.push(train_repetitions(w, &mut prepared, opts, &mut reps)?);
    }
    let last = reps
        .reports
        .last()
        .ok_or_else(|| format!("no training repetition passed: {:?}", reps.failures))?;
    let mut deployed = match deployed {
        Some(d) => d,
        None => serve::deploy(w.name, last, &prepared.test, &opts.out_dir)?,
    };
    checks.extend(deployed.checks(last));
    let (calls, outcome) = serve_mix(w, &mut deployed, opts);
    let all_us = outcome.latencies_us(&calls, None);

    let metrics = vec![
        Measured::median_of("setup_s", setups),
        Measured::median_of("train_wall_s", reps.walls.clone()),
        Measured::median_of("time_to_target_s", reps.hits.iter().map(|h| h.wall_s).collect()),
        Measured::one("peak_rss_mb", peak_rss_mb()?),
        Measured::summary("serve_rows_per_s", outcome.rows_per_s(), outcome.calls),
        Measured::summary("serve_p50_us", stats::median(&all_us), outcome.calls),
    ];
    Ok(WorkloadResult {
        workload: w.name.into(),
        traced: false,
        attempted: reps.attempted + outcome.calls,
        failed: reps.failed() + outcome.failed,
        checks,
        metrics,
        provenance: opts.provenance(w, reps.walls.len()),
    })
}
