//! Executes a JSON scenario spec end-to-end: parse → validate → run every
//! solver → write the `RunReport`s as JSON → re-read and schema-check them.
//!
//! This is the CI smoke entry point (`scenarios/smoke.json`): any parse
//! failure, run failure, or schema-invalid report exits non-zero.
//!
//! Run with:
//! ```text
//! cargo run --release --example scenario_runner -- scenarios/smoke.json \
//!     [--out PATH] [--save-model MODEL.nadmm] [--precision f16] [--deterministic] \
//!     [--transport thread|tcp] [--rank N --peers host:port,...]
//! ```
//!
//! `--deterministic` zeroes the host wall-clock fields of every report
//! before writing, so two runs of the same scenario with the same seeds
//! emit **byte-identical** files — the CI heterogeneity job diffs exactly
//! that.
//!
//! `--transport` selects the collective substrate (flag beats the
//! `NADMM_TRANSPORT` env var, which beats the scenario's `cluster.transport`
//! field). `thread` is the in-process simulated cluster. `tcp` runs every
//! rank as its **own OS process** over loopback sockets: without `--rank`
//! this process is the launcher — it reserves one port per rank, spawns one
//! child per rank (`--rank N --peers ...`), and waits for all of them; with
//! `--rank N` it is rank `N` of the star (only rank 0 writes reports).
//! Billing is model-driven, never wall-clock, so the TCP reports are
//! byte-identical to the thread ones under `--deterministic`.
//!
//! `--save-model PATH` additionally persists the *first* solver's trained
//! iterate as a versioned `.nadmm` model artifact (plus its provenance
//! sidecar `PATH.json`), ready for `examples/serve_bench.rs` or any
//! `nadmm_serve::ModelRegistry` to reload and serve.
//!
//! `--precision f16` (requires `--save-model`) stores the weights in f16,
//! shrinking the artifact's weight block 4× at a bounded accuracy cost. The
//! default `f64` keeps the trained iterate bit-for-bit.
//!
//! `--trace PATH` (or the `NADMM_TRACE` env var; the flag wins) enables the
//! span tracer for the run and writes a Chrome trace-event JSON to `PATH` —
//! load it at `ui.perfetto.dev`. One pid per rank, timestamps on the
//! *simulated* clock, so with `--deterministic` two runs emit byte-identical
//! trace files. The reports additionally embed a per-rank flat profile.
//! Tracing needs every rank in this process: combined with the tcp
//! transport it is a hard error.

use newton_admm_repro::prelude::*;
use std::process::ExitCode;

/// Everything the CLI resolves before the run starts.
struct Options {
    scenario_path: String,
    out_path: String,
    save_model: Option<String>,
    precision: TensorEncoding,
    deterministic: bool,
    transport: Option<TransportKind>,
    rank: Option<usize>,
    peers: Option<Vec<String>>,
    trace: Option<String>,
}

/// Runs the scenario's solvers on this process: on the thread transport all
/// ranks live here; on TCP this process is exactly one rank of the star.
/// Returns `None` for non-root TCP ranks, which emit no reports.
fn execute(scenario: &ScenarioSpec, opts: &Options) -> Result<Option<Vec<RunReport>>, String> {
    let kind = opts
        .transport
        .or_else(TransportKind::from_env)
        .unwrap_or_else(|| scenario.cluster.transport.kind());
    match kind {
        TransportKind::Thread => {
            if opts.rank.is_some() {
                return Err("--rank only applies to the tcp transport".into());
            }
            scenario.run().map(Some).map_err(|e| format!("scenario failed: {e}"))
        }
        TransportKind::Tcp => {
            let rank = opts.rank.expect("the launcher handles rank-less tcp runs");
            let peers = match (&opts.peers, &scenario.cluster.transport) {
                (Some(peers), _) => peers.clone(),
                (None, TransportSpec::Tcp { peers }) => peers.clone(),
                (None, _) => return Err("tcp rank needs --peers (or peers in the scenario's cluster.transport)".into()),
            };
            if peers.len() != scenario.cluster.ranks {
                return Err(format!(
                    "got {} peer addresses for {} ranks",
                    peers.len(),
                    scenario.cluster.ranks
                ));
            }
            if rank >= peers.len() {
                return Err(format!("--rank {rank} is outside the {}-rank star", peers.len()));
            }
            let transport = TcpTransport::connect(rank, &peers).map_err(|e| format!("tcp bootstrap failed: {e}"))?;
            scenario
                .run_with_transport(Box::new(transport))
                .map_err(|e| format!("scenario failed on rank {rank}: {e}"))
        }
    }
}

/// TCP launcher: reserve one loopback port per rank, spawn one child process
/// per rank with `--rank N --peers ...` (rank 0 keeps the output flags), and
/// wait for the whole fleet.
fn launch_tcp_fleet(scenario: &ScenarioSpec, opts: &Options) -> Result<(), String> {
    let ranks = scenario.cluster.ranks;
    let peers = match (&opts.peers, &scenario.cluster.transport) {
        (Some(peers), _) => peers.clone(),
        (None, TransportSpec::Tcp { peers }) if !peers.is_empty() => peers.clone(),
        (None, _) => reserve_loopback_peers(ranks).map_err(|e| format!("cannot reserve loopback ports: {e}"))?,
    };
    if peers.len() != ranks {
        return Err(format!("got {} peer addresses for {ranks} ranks", peers.len()));
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    println!("launching {ranks} tcp ranks on {}", peers.join(", "));
    let mut children = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg(&opts.scenario_path)
            .arg("--transport")
            .arg("tcp")
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--peers")
            .arg(peers.join(","));
        if opts.deterministic {
            cmd.arg("--deterministic");
        }
        if rank == 0 {
            cmd.arg("--out").arg(&opts.out_path);
            if let Some(model_path) = &opts.save_model {
                cmd.arg("--save-model").arg(model_path);
                cmd.arg("--precision").arg(opts.precision.name());
            }
        }
        let child = cmd.spawn().map_err(|e| format!("cannot spawn rank {rank}: {e}"))?;
        children.push((rank, child));
    }
    let mut failed = Vec::new();
    for (rank, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("rank {rank} exited with {status}")),
            Err(e) => failed.push(format!("rank {rank} could not be awaited: {e}")),
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

fn run(opts: &Options) -> Result<(), String> {
    let json = std::fs::read_to_string(&opts.scenario_path).map_err(|e| format!("cannot read {}: {e}", opts.scenario_path))?;
    let scenario = ScenarioSpec::from_json(&json).map_err(|e| format!("cannot parse {}: {e}", opts.scenario_path))?;

    // A rank-less tcp invocation is the multi-process launcher, not a rank.
    let kind = opts
        .transport
        .or_else(TransportKind::from_env)
        .unwrap_or_else(|| scenario.cluster.transport.kind());
    if opts.trace.is_some() {
        if kind == TransportKind::Tcp {
            return Err(
                "--trace / NADMM_TRACE requires the thread transport: the tracer collects every \
                 rank in this process, and tcp ranks live in their own processes"
                    .into(),
            );
        }
        newton_admm_repro::trace::set_enabled(true);
    }
    if kind == TransportKind::Tcp && opts.rank.is_none() {
        return launch_tcp_fleet(&scenario, opts);
    }

    println!(
        "scenario `{}`: {} on {} ranks, {} solver(s) [{} transport]",
        scenario.name,
        scenario.data.describe(),
        scenario.cluster.ranks,
        scenario.solvers.len(),
        kind.name(),
    );

    let mut reports = match execute(&scenario, opts)? {
        Some(reports) => reports,
        None => {
            // A non-root tcp rank: it contributed to every collective and
            // has nothing to archive.
            println!("rank {} finished", opts.rank.unwrap_or(0));
            return Ok(());
        }
    };
    if let Some(model_path) = &opts.save_model {
        // Export the first solver's trained iterate as a versioned model
        // artifact; any dimension lie or unwritable path is a hard failure.
        // The save runs under its own recorder so the ArtifactIo instant
        // lands in the trace as a dedicated lane (no-op when tracing is off).
        let artifact = artifact_for_scenario(&scenario, &reports[0])
            .map_err(|e| format!("cannot build a model artifact from `{}`: {e}", reports[0].solver))?
            .with_weight_encoding(opts.precision);
        newton_admm_repro::trace::install(0);
        let saved = artifact.save(model_path);
        if let Some(io_trace) = newton_admm_repro::trace::uninstall() {
            newton_admm_repro::trace::sink_deposit("artifact-io", vec![io_trace]);
        }
        saved.map_err(|e| format!("cannot save the model artifact: {e}"))?;
        println!(
            "saved `{}` model ({} features × {} classes, {} weights, scenario {}) → {model_path} (+ sidecar {})",
            artifact.provenance.solver,
            artifact.num_features,
            artifact.num_classes,
            artifact.weight_encoding.name(),
            artifact.provenance.scenario_hash.as_deref().unwrap_or("?"),
            ModelArtifact::sidecar_path(model_path),
        );
    }
    if opts.deterministic {
        // Everything in a report is a deterministic function of the
        // scenario except the host wall clock; zero it so same-seed runs
        // are byte-identical.
        for report in reports.iter_mut() {
            report.wall_time_sec = 0.0;
            for record in report.history.records.iter_mut() {
                record.wall_time_sec = 0.0;
            }
        }
    }

    // Archive the reports, then *re-read the file* and validate what was
    // actually written — the schema gate must see the bytes on disk.
    let serialized = serde_json::to_string_pretty(&reports).map_err(|e| format!("cannot serialize reports: {e}"))?;
    let out_path = &opts.out_path;
    if let Some(parent) = std::path::Path::new(out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(out_path, &serialized).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let reread = std::fs::read_to_string(out_path).map_err(|e| format!("cannot re-read {out_path}: {e}"))?;
    let parsed: Vec<RunReport> = serde_json::from_str(&reread).map_err(|e| format!("emitted report JSON does not parse: {e}"))?;
    if parsed.len() != scenario.solvers.len() {
        return Err(format!(
            "expected {} reports, the file holds {}",
            scenario.solvers.len(),
            parsed.len()
        ));
    }
    for report in &parsed {
        report
            .validate_schema()
            .map_err(|e| format!("schema-invalid report for `{}`: {e}", report.solver))?;
    }

    if let Some(trace_path) = &opts.trace {
        // One lane per solver run (deposited by the experiment layer) plus
        // the artifact-io lane when a model was saved. Validate the emitted
        // JSON before calling the run a success — a trace no tool can load
        // is a bug, not an artifact.
        let lanes = newton_admm_repro::trace::sink_drain();
        if lanes.is_empty() {
            return Err("--trace was set but no trace lanes were recorded".into());
        }
        let chrome = export_chrome_trace(&lanes, opts.deterministic);
        let value = serde_json::parse_value(&chrome).map_err(|e| format!("emitted Chrome trace does not parse as JSON: {e}"))?;
        let stats = validate_chrome_value(&value).map_err(|e| format!("emitted Chrome trace is malformed: {e}"))?;
        if let Some(parent) = std::path::Path::new(trace_path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
            }
        }
        std::fs::write(trace_path, &chrome).map_err(|e| format!("cannot write {trace_path}: {e}"))?;
        println!(
            "trace: {} events across {} lane(s)/{} pid(s) → {trace_path} (load at ui.perfetto.dev)",
            stats.event_count,
            lanes.len(),
            stats.pids.len(),
        );
    }

    println!(
        "== scenario `{}` — {} validated report(s) → {out_path} ==",
        scenario.name,
        parsed.len()
    );
    println!(
        "{:>12}  {:>15}  {:>8}  {:>12}  {:>11}  {:>14}",
        "solver", "final objective", "test acc", "sim time (s)", "collectives", "rank imbalance"
    );
    for r in &parsed {
        let acc = r.final_accuracy.map(|a| format!("{:.1}%", 100.0 * a)).unwrap_or_default();
        let imbalance = r
            .rank_skew
            .as_ref()
            .map(|s| format!("{:.2}×", s.compute_imbalance()))
            .unwrap_or_default();
        println!(
            "{:>12}  {:>15.4}  {acc:>8}  {:>12.5}  {:>11}  {imbalance:>14}",
            r.solver,
            r.final_objective.unwrap(),
            r.total_sim_time_sec,
            r.comm_stats.collectives
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario_path: Option<String> = None;
    let mut out_path = "target/scenario_report.json".to_string();
    let mut save_model: Option<String> = None;
    let mut precision: Option<TensorEncoding> = None;
    let mut deterministic = false;
    let mut transport: Option<TransportKind> = None;
    let mut rank: Option<usize> = None;
    let mut peers: Option<Vec<String>> = None;
    let mut trace: Option<String> = None;
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
            "--save-model" => match it.next() {
                Some(p) => save_model = Some(p),
                None => {
                    eprintln!("--save-model requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--precision" => match it.next() {
                Some(value) => match TensorEncoding::parse(&value) {
                    Some(enc) => precision = Some(enc),
                    None => {
                        eprintln!(
                            "--precision got unknown encoding `{value}`; accepted: {}",
                            TensorEncoding::ACCEPTED_SPELLINGS
                        );
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--precision requires an encoding: {}", TensorEncoding::ACCEPTED_SPELLINGS);
                    return ExitCode::FAILURE;
                }
            },
            "--deterministic" => deterministic = true,
            "--transport" => match it.next() {
                Some(value) => match TransportKind::parse(&value) {
                    Some(kind) => transport = Some(kind),
                    None => {
                        eprintln!(
                            "--transport got unknown backend `{value}`; accepted: {}",
                            TransportKind::ACCEPTED_SPELLINGS
                        );
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--transport requires a backend: {}", TransportKind::ACCEPTED_SPELLINGS);
                    return ExitCode::FAILURE;
                }
            },
            "--rank" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(r) => rank = Some(r),
                None => {
                    eprintln!("--rank requires a rank number");
                    return ExitCode::FAILURE;
                }
            },
            "--peers" => match it.next() {
                Some(list) => peers = Some(list.split(',').map(|s| s.trim().to_string()).collect()),
                None => {
                    eprintln!("--peers requires a comma-separated host:port list");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match it.next() {
                Some(p) => trace = Some(p),
                None => {
                    eprintln!("--trace requires a path for the Chrome trace JSON");
                    return ExitCode::FAILURE;
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!(
                    "unknown flag `{flag}`\nusage: scenario_runner [SCENARIO.json] [--out REPORT.json] \
                     [--save-model MODEL.nadmm] [--precision ENC] [--deterministic] \
                     [--transport thread|tcp] [--rank N --peers host:port,...] [--trace TRACE.json]"
                );
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
    if precision.is_some() && save_model.is_none() {
        eprintln!("--precision only affects the saved artifact; pass --save-model PATH as well");
        return ExitCode::FAILURE;
    }
    let opts = Options {
        scenario_path: scenario_path.unwrap_or_else(|| "scenarios/smoke.json".to_string()),
        out_path,
        save_model,
        precision: precision.unwrap_or(TensorEncoding::F64),
        deterministic,
        transport,
        rank,
        peers,
        // The flag wins over the `NADMM_TRACE` env var (whose single parse
        // point lives in `nadmm_trace::env`).
        trace: trace.or_else(|| trace_path_from_env().map(|p| p.display().to_string())),
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scenario_runner: {e}");
            ExitCode::FAILURE
        }
    }
}
