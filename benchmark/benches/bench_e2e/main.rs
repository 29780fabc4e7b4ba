//! `bench_e2e`: the host-clock benchmark of the Newton-ADMM reproduction.
//!
//! ```text
//! bench_e2e                                   every workload, end to end then traced
//! bench_e2e --workload NAME --trace 0|1       one workload (the driver's form)
//! bench_e2e compare A.json B.json             two result files, metric by metric
//! ```
//!
//! Options: `--seed N` (default 7), `--seconds S` (default 12), `--smoke`
//! (1/16 of the rows), `--out-dir DIR` (default `benchmark/out`), `--out FILE`
//! (the combined result file of a full set), `--threads N` (run one workload
//! at another pool width than its own; the provenance records it). See
//! `benchmark/README.md`.

mod alloc;
mod compare;
mod contract;
mod e2e;
mod layers;
mod results;
mod serve;
mod spans;
mod stats;
mod train;
mod workloads;

use results::{Provenance, WorkloadResult};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Environment knobs of the program under test other than the pool width.
/// The benchmark sets the width itself and clears these, so an ambient value
/// cannot change what a workload measures.
const CLEARED_ENV: [&str; 5] = [
    nadmm_linalg::PAR_THRESHOLD_ENV,
    nadmm_cluster::COLLECTIVE_ALGO_ENV,
    nadmm_cluster::COMPRESSION_ENV,
    nadmm_cluster::TRANSPORT_ENV,
    nadmm_trace::TRACE_ENV,
];

/// What every run needs to know.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Pool width to run at instead of the workload's own.
    pub threads: Option<usize>,
    pub out_dir: PathBuf,
    pub commit: String,
    pub rustc: String,
}

impl Options {
    /// The provenance of a row `w` produced with `repetitions` timed runs.
    pub fn provenance(&self, w: &Workload, repetitions: usize) -> Provenance {
        Provenance {
            commit: self.commit.clone(),
            rustc: self.rustc.clone(),
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: rayon::current_num_threads(),
            ranks: w.ranks,
            transport: w.wire.name().into(),
            seed: self.seed,
            repetitions,
            smoke: self.smoke,
        }
    }
}

struct Cli {
    workload: Option<String>,
    trace: Option<bool>,
    out: Option<PathBuf>,
    options: Options,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "bench_e2e: {problem}\n\
         usage: bench_e2e [--workload NAME] [--trace 0|1] [--seed N] [--seconds S] [--smoke] [--threads N] [--out-dir DIR] [--out FILE]\n\
         \x20      bench_e2e compare A.json B.json\n\
         workloads: {}",
        workloads::all().iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        trace: None,
        out: None,
        options: Options {
            seed: workloads::DEFAULT_SEED,
            seconds: workloads::RUN_SECONDS as f64,
            smoke: false,
            threads: None,
            out_dir: PathBuf::from("benchmark/out"),
            commit: String::new(),
            rustc: String::new(),
        },
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                let raw = value("--seed")?;
                cli.options.seed = raw.parse().map_err(|_| format!("--seed {raw:?} is not a whole number"))?;
            }
            "--seconds" => {
                let raw = value("--seconds")?;
                let seconds: f64 = raw.parse().map_err(|_| format!("--seconds {raw:?} is not a number"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {raw}"));
                }
                cli.options.seconds = seconds;
            }
            "--trace" => {
                cli.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--smoke" => cli.options.smoke = true,
            "--threads" => {
                let raw = value("--threads")?;
                let threads: usize = raw.parse().map_err(|_| format!("--threads {raw:?} is not a whole number"))?;
                if !(1..=rayon::MAX_THREADS).contains(&threads) {
                    return Err(format!("--threads must be in 1..={}, got {raw}", rayon::MAX_THREADS));
                }
                cli.options.threads = Some(threads);
            }
            "--out-dir" => cli.options.out_dir = PathBuf::from(value("--out-dir")?),
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn write_json(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    let text = serde_json::to_string_pretty(doc).expect("a value tree always serializes");
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn result_path(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    out_dir.join(format!("{workload}.{}.json", if traced { "layers" } else { "e2e" }))
}

/// Runs one workload in this process and prints its result; the contract's
/// JSON object is the last line of stdout.
fn run_one(name: &str, traced: bool, opts: &Options) -> Result<WorkloadResult, String> {
    let w = workloads::find(name).ok_or_else(|| format!("no workload named {name:?}"))?;
    let mut w = if opts.smoke { w.smoke() } else { w };
    if let Some(threads) = opts.threads {
        w.threads = threads;
    }

    // Thread width is part of what a workload is. Set it before the pool
    // reads it, then refuse to run if another width is in effect.
    std::env::set_var(rayon::THREADS_ENV, w.threads.to_string());
    for knob in CLEARED_ENV {
        std::env::remove_var(knob);
    }
    let width = rayon::current_num_threads();
    if width != w.threads {
        return Err(format!(
            "{} runs at {} thread(s) but the pool resolved {width}; refusing to measure at another width",
            w.name, w.threads
        ));
    }

    let result = if traced { layers::run(&w, opts)? } else { e2e::run(&w, opts)? };
    if result.provenance.threads != w.threads {
        return Err(format!(
            "thread width changed to {} during the run (recorded {})",
            result.provenance.threads, w.threads
        ));
    }
    write_json(&result_path(&opts.out_dir, w.name, traced), &result.to_value())?;
    result.print();
    println!("{}", result.contract_line());
    Ok(result)
}

/// Runs every workload, each in a child process of its own (so thread width
/// and peak RSS are per workload), and writes the combined result file.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let opts = &cli.options;
    let started = std::time::Instant::now();
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in workloads::all() {
        for traced in [false, true] {
            if cli.trace.is_some_and(|only| only != traced) {
                continue;
            }
            let path = result_path(&opts.out_dir, w.name, traced);
            // A stale file must not pass for this run's result.
            let _ = std::fs::remove_file(&path);
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", if traced { "1" } else { "0" }])
                .args(["--seed", &opts.seed.to_string(), "--seconds", &opts.seconds.to_string()])
                .arg("--out-dir")
                .arg(&opts.out_dir);
            if opts.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("cannot start the {} run: {e}", w.name))?;
            if !status.success() {
                return Err(format!(
                    "the {} run (trace {}) exited with {status}",
                    w.name,
                    u8::from(traced)
                ));
            }
            let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let doc = serde_json::parse_value(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))?;
            all_correct &= doc.get("correct") == Some(&Value::Bool(true));
            runs.push(doc);
        }
    }
    let out = cli.out.clone().unwrap_or_else(|| opts.out_dir.join("results.json"));
    write_json(&out, &Value::Map(vec![("runs".into(), Value::Seq(runs))]))?;
    println!(
        "bench_e2e: full set in {:.1} s → {} ({})",
        started.elapsed().as_secs_f64(),
        out.display(),
        if all_correct {
            "every check passed, 0 failed operations"
        } else {
            "NOT CORRECT, see above"
        }
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => match compare::run(Path::new(a), Path::new(b)) {
                Ok(clean) => ExitCode::from(u8::from(!clean)),
                Err(e) => {
                    eprintln!("bench_e2e compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => usage("compare takes exactly two result files"),
        };
    }
    let mut cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => return usage(&e),
    };
    let outcome = match cli.workload.clone() {
        Some(name) => {
            cli.options.commit = results::tool_line("git", &["rev-parse", "--short=12", "HEAD"]);
            cli.options.rustc = results::tool_line("rustc", &["--version"]);
            // A run that printed its result line exits 0; `correct` in that
            // line says whether the outputs were right.
            run_one(&name, cli.trace.unwrap_or(false), &cli.options).map(|_| true)
        }
        None if cli.options.threads.is_some() => return usage("--threads needs --workload"),
        None => run_all(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(1)
        }
    }
}
