//! The paper's claims, measured: runs the experiments behind Table 1 and
//! Figures 1–5 once at their default sizes, and the committed scenarios
//! behind the rows that keep the straggler deadline and f16 compression,
//! prints each claim's measured value, bound and verdict, and checks them
//! against the committed `CLAIMS.json` (see `nadmm_bench::claims`).
//!
//! Exits non-zero naming every claim whose verdict changed, every claim the
//! run did not measure and every measurement with no claim. Every number is
//! on the simulated clock, so stdout is byte-identical across thread-pool
//! widths and commits that do not change what is simulated.
//!
//! ```text
//! cargo run --release -p nadmm-bench --bin claims
//! ```

use nadmm_baselines::{reference_optimum, AideConfig, DaneConfig, GiantConfig, SyncSgdConfig};
use nadmm_bench::claims::{check, claims_path, measured_value, parse_claims};
use nadmm_bench::{bench_config, bench_dataset, WORKER_SWEEP};
use nadmm_cluster::{Cluster, Compression, NetworkModel};
use nadmm_data::{partition_strong, partition_weak, Dataset, DatasetKind};
use nadmm_device::DeviceSpec;
use nadmm_experiment::{run_spec_on, RunReport, ScenarioSpec, SolverSpec};
use nadmm_metrics::relative::speedup_ratio;
use nadmm_metrics::{time_to_relative_objective, RunHistory};
use nadmm_serve::{artifact_for_scenario, InferenceSession, ModelArtifact, TensorEncoding};
use newton_admm::NewtonAdmmConfig;

const KINDS: [DatasetKind; 4] = [DatasetKind::Higgs, DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::E18];
const LAMBDA: f64 = 1e-5;

/// Measured values, keyed by claim id.
type Measured = Vec<(String, f64)>;

/// The dataset's key in claim ids: `higgs`, `mnist`, `cifar10`, `e18`.
fn key(kind: DatasetKind) -> String {
    kind.paper_name().to_lowercase().replace('-', "")
}

/// Runs one spec on the paper's interconnect (100 Gbps Infiniband).
fn run(spec: &SolverSpec, shards: &[Dataset], test: Option<&Dataset>) -> RunHistory {
    let cluster = Cluster::new(shards.len(), NetworkModel::infiniband_100g());
    run_spec_on(&cluster, spec, shards, test, None)
        .expect("every claim's spec reports")
        .history
}

fn newton_admm(lambda: f64, epochs: usize) -> SolverSpec {
    SolverSpec::NewtonAdmm(NewtonAdmmConfig::default().with_lambda(lambda).with_max_iters(epochs))
}

fn giant(lambda: f64, epochs: usize) -> SolverSpec {
    SolverSpec::Giant(GiantConfig {
        max_iters: epochs,
        lambda,
        ..Default::default()
    })
}

/// The objective a run had reached by simulated time `t`.
fn objective_at(history: &RunHistory, t: f64) -> f64 {
    history
        .records
        .iter()
        .take_while(|r| r.sim_time_sec <= t)
        .last()
        .expect("iteration 0 is recorded at time 0")
        .objective
}

/// Table 1: each synthetic analogue keeps the paper's class count, and E18
/// alone is stored sparse.
fn table1(m: &mut Measured) {
    let (mut classes, mut storage) = (0, 0);
    for kind in KINDS {
        let (train, _) = bench_config(kind).generate(1);
        classes += usize::from(train.num_classes() != kind.paper_table1().0);
        storage += usize::from(train.is_sparse() != (kind == DatasetKind::E18));
    }
    m.push(("table1.class_counts".into(), classes as f64));
    m.push(("table1.e18_alone_csr".into(), storage as f64));
}

/// Figure 1: MNIST-like, 8 workers; 100 epochs of Newton-ADMM and GIANT,
/// 10 of InexactDANE and AIDE.
fn fig1(m: &mut Measured) {
    let (train, _) = bench_dataset(DatasetKind::Mnist, 1);
    let shards = partition_strong(&train, 8).0;
    let dane = DaneConfig {
        max_iters: 10,
        lambda: LAMBDA,
        svrg_iters: 100,
        svrg_step: 3e-4,
        ..Default::default()
    };
    let aide = SolverSpec::Aide(AideConfig {
        dane,
        tau: 10.0,
        zeta: 0.3,
    });
    let [admm, giant, dane, aide] = [
        newton_admm(LAMBDA, 100),
        giant(LAMBDA, 100),
        SolverSpec::InexactDane(dane),
        aide,
    ]
    .map(|s| run(&s, &shards, None));
    let second_order_epoch = admm.avg_epoch_time().max(giant.avg_epoch_time());
    let first = |h: &RunHistory| h.records[1].objective;
    m.push((
        "fig1.dane_aide_epoch_cost".into(),
        dane.avg_epoch_time().min(aide.avg_epoch_time()) / second_order_epoch,
    ));
    m.push((
        "fig1.dane_aide_start_lower".into(),
        first(&dane).max(first(&aide)) / first(&admm).min(first(&giant)),
    ));
}

/// Figure 2: average epoch time over 10 epochs, strong and weak scaling
/// (an eighth of the training set per rank) on 1, 2, 4, 8 workers.
fn fig2(m: &mut Measured) {
    let (mut doubling, mut weak_spread, mut admm_over_giant) = (0.0_f64, 0.0_f64, 0.0_f64);
    for kind in KINDS {
        let (train, _) = bench_dataset(kind, 2);
        let per_worker = train.num_samples() / 8;
        let epoch_times =
            |shards: &[Dataset]| [newton_admm(LAMBDA, 10), giant(LAMBDA, 10)].map(|s| run(&s, shards, None).avg_epoch_time());
        let strong_t = WORKER_SWEEP.map(|w| epoch_times(&partition_strong(&train, w).0));
        let weak_t = WORKER_SWEEP.map(|w| epoch_times(&partition_weak(&train, w, per_worker).0));
        for solver in 0..2 {
            for pair in strong_t.windows(2) {
                doubling = doubling.max(pair[1][solver] / pair[0][solver]);
            }
            let (lo, hi) = weak_t
                .iter()
                .fold((f64::INFINITY, 0.0_f64), |(lo, hi), t| (lo.min(t[solver]), hi.max(t[solver])));
            weak_spread = weak_spread.max(hi / lo);
        }
        for [a, g] in strong_t.iter().chain(&weak_t) {
            admm_over_giant = admm_over_giant.max(a / g);
        }
    }
    m.push(("fig2.strong_halves".into(), doubling));
    m.push(("fig2.weak_flat".into(), weak_spread));
    m.push(("fig2.admm_not_slower".into(), admm_over_giant));
}

/// Figure 3: GIANT's time to θ < 0.05 over Newton-ADMM's, 60 epochs each:
/// 0 when Newton-ADMM never reaches θ, ∞ when only GIANT never does.
fn fig3(m: &mut Measured) {
    const THETA: f64 = 0.05;
    let speedup = |shards: &[Dataset], f_star: f64| {
        let [admm, giant] = [newton_admm(LAMBDA, 60), giant(LAMBDA, 60)].map(|s| run(&s, shards, None));
        speedup_ratio(&admm, &giant, f_star, THETA).unwrap_or_else(|| match time_to_relative_objective(&admm, f_star, THETA) {
            None => 0.0,
            Some(_) => f64::INFINITY,
        })
    };
    let (mut cifar_best, mut other_best) = (0.0_f64, 0.0_f64);
    for kind in KINDS {
        let (train, _) = bench_dataset(kind, 3);
        let f_star = reference_optimum(&train, LAMBDA).f_star;
        let mut ratios = vec![(
            "strong",
            WORKER_SWEEP.map(|w| speedup(&partition_strong(&train, w).0, f_star)),
        )];
        // No weak-scaling E18 column, as in the paper: the union of the
        // shards has no single-node reference.
        if kind != DatasetKind::E18 {
            let per_worker = train.num_samples() / 8;
            let weak_ratios = WORKER_SWEEP.map(|w| {
                // Weak scaling trains on the union of the shards, so θ needs
                // that union's optimum.
                let union: Vec<usize> = (0..w * per_worker).collect();
                speedup(
                    &partition_weak(&train, w, per_worker).0,
                    reference_optimum(&train.select(&union), LAMBDA).f_star,
                )
            });
            ratios.push(("weak", weak_ratios));
        }
        for (scaling, r) in ratios {
            m.push((
                format!("fig3.{scaling}.{}", key(kind)),
                r.iter().copied().fold(f64::INFINITY, f64::min),
            ));
            let best = if kind == DatasetKind::Cifar10 {
                &mut cifar_best
            } else {
                &mut other_best
            };
            *best = r.iter().copied().fold(*best, f64::max);
        }
    }
    m.push(("fig3.cifar10_largest".into(), cifar_best / other_best));
}

/// Figure 4: SGD's total simulated time over Newton-ADMM's, 30 epochs each,
/// weak scaling on 8 workers (16 on E18). Newton-ADMM keeps the best final
/// objective of CG ∈ {10, 20, 30}; SGD (batch 128) the best step size of a
/// grid.
fn fig4(m: &mut Measured) {
    for kind in KINDS {
        let workers = if kind == DatasetKind::E18 { 16 } else { 8 };
        let (train, test) = bench_dataset(kind, 4);
        let shards = partition_weak(&train, workers, train.num_samples() / workers).0;
        let admm = [10, 20, 30]
            .map(|cg| {
                let cfg = NewtonAdmmConfig::default()
                    .with_lambda(LAMBDA)
                    .with_max_iters(30)
                    .with_cg_iters(cg);
                run(&SolverSpec::NewtonAdmm(cfg), &shards, Some(&test))
            })
            .into_iter()
            .reduce(|best, h| {
                if h.final_objective() < best.final_objective() {
                    h
                } else {
                    best
                }
            })
            .expect("three CG budgets");
        let sgd = SolverSpec::SyncSgdGrid {
            base: SyncSgdConfig {
                epochs: 30,
                lambda: LAMBDA,
                batch_size: 128,
                ..Default::default()
            },
            grid: vec![1e-2, 1e-1, 1.0, 10.0],
        };
        let sgd = run(&sgd, &shards, Some(&test));
        m.push((format!("fig4.{}", key(kind)), sgd.total_sim_time() / admm.total_sim_time()));
    }
}

/// Figure 5: E18-like, weak scaling on 16 workers, 100 epochs each at
/// λ = 1e-3 and 1e-5.
fn fig5(m: &mut Measured) {
    let (train, test) = bench_dataset(DatasetKind::E18, 5);
    let shards = partition_weak(&train, 16, train.num_samples() / 16).0;
    let mut epoch_ratio = 0.0_f64;
    for (lambda, label) in [(1e-3, "1e-3"), (1e-5, "1e-5")] {
        let [admm, giant] = [newton_admm(lambda, 100), giant(lambda, 100)].map(|s| run(&s, &shards, Some(&test)));
        epoch_ratio = epoch_ratio.max(admm.avg_epoch_time() / giant.avg_epoch_time());
        let t = admm.total_sim_time().min(giant.total_sim_time());
        m.push((
            format!("fig5.converges_faster.lambda_{label}"),
            objective_at(&giant, t) / objective_at(&admm, t),
        ));
    }
    m.push(("fig5.epoch_time_below_giant".into(), epoch_ratio));
}

/// A committed scenario from the workspace's `scenarios/`.
fn scenario(name: &str) -> ScenarioSpec {
    let path = format!("{}/../../scenarios/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The largest of `values`, NaN if any is NaN (so a poisoned value is no
/// measurement rather than a pass).
fn worst(values: impl IntoIterator<Item = f64>) -> f64 {
    values
        .into_iter()
        .fold(f64::NEG_INFINITY, |a, v| if v.is_nan() || v > a { v } else { a })
}

/// The report of `solver` among a scenario's reports.
fn report<'a>(reports: &'a [RunReport], solver: &str) -> &'a RunReport {
    reports
        .iter()
        .find(|r| r.solver == solver)
        .expect("the scenario runs the solver")
}

/// Options, straggler deadline: `scenarios/heterogeneous.json` with its slow
/// rank at 1×, 2×, 4× and 8×. Each solver's target is the worst final
/// objective it reaches over the sweep; a run's degradation is its time to
/// that target over the 1× run's.
fn staleness(m: &mut Measured) {
    let base = scenario("heterogeneous");
    let sweep = [1.0, 2.0, 4.0, 8.0].map(|factor| {
        let mut slowed = base.clone();
        let straggler = slowed.cluster.straggler.as_mut().expect("the scenario has a straggler model");
        straggler.slow_ranks[0].factor = factor;
        slowed.run().expect("the straggler sweep runs")
    });
    let degradation = |solver: &str| {
        let runs = sweep.each_ref().map(|reports| report(reports, solver));
        let target = worst(runs.map(|r| r.final_objective.unwrap_or(f64::INFINITY))) * (1.0 + 1e-9);
        let times = runs.map(|r| {
            let reached = r.history.records.iter().find(|x| x.objective <= target);
            reached.map_or(f64::INFINITY, |x| x.sim_time_sec)
        });
        times.map(|t| t / times[0])
    };
    let (admm, giant) = (degradation("newton-admm"), degradation("giant"));
    let strict_wins = (1..4).filter(|&i| admm[i] < giant[i]).count();
    m.push(("options.staleness.straggler_wins".into(), strict_wins as f64));
}

/// Options, f16: `scenarios/compressed.json` run with its f16 collectives
/// and at full width, then the full-width Newton-ADMM iterate as f64 and f16
/// artifacts, each served over the test split on the P100 model.
fn f16(m: &mut Measured) {
    let compressed = scenario("compressed");
    let mut full_width = compressed.clone();
    full_width.cluster.compression = Compression::None;
    let [f16_runs, f64_runs] = [&compressed, &full_width].map(|s| s.run().expect("the compressed scenario runs"));
    let pairs: Vec<_> = f16_runs.iter().zip(&f64_runs).collect();
    assert!(pairs.iter().all(|(a, b)| a.solver == b.solver), "report order diverged");
    let count = |holds: fn(&RunReport, &RunReport) -> bool| pairs.iter().filter(|(a, b)| holds(a, b)).count() as f64;
    m.push((
        "options.f16.wire_bytes".into(),
        worst(pairs.iter().map(|(a, b)| a.comm_stats.bytes_sent / b.comm_stats.bytes_sent)),
    ));
    m.push((
        "options.f16.logical_bytes".into(),
        count(|a, b| a.comm_stats.logical_bytes_sent != b.comm_stats.logical_bytes_sent),
    ));
    m.push((
        "options.f16.comm_time".into(),
        count(|a, b| a.comm_stats.comm_time < b.comm_stats.comm_time),
    ));
    m.push((
        "options.f16.train_accuracy".into(),
        worst(
            pairs
                .iter()
                .filter_map(|(a, b)| Some((a.final_accuracy? - b.final_accuracy?).abs())),
        ),
    ));

    let model = artifact_for_scenario(&full_width, report(&f64_runs, "newton-admm")).expect("the iterate exports");
    let half = model.clone().with_weight_encoding(TensorEncoding::F16);
    let (_, test) = full_width.data.load().expect("the scenario data loads");
    let test = test.expect("the scenario has a test split");
    let [full_bytes, half_bytes] = [model, half].map(|a| a.to_bytes());
    let [full_acc, half_acc] = [&full_bytes, &half_bytes].map(|bytes| {
        let loaded = ModelArtifact::from_bytes(bytes).expect("the artifact reloads");
        InferenceSession::new(&loaded, DeviceSpec::tesla_p100())
            .expect("the artifact serves")
            .accuracy(&test)
    });
    m.push((
        "options.f16.artifact_size".into(),
        full_bytes.len() as f64 - 2.0 * half_bytes.len() as f64,
    ));
    m.push(("options.f16.served_accuracy".into(), (half_acc - full_acc).abs()));
}

fn main() {
    let path = claims_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let claims = parse_claims(&text).unwrap_or_else(|e| panic!("{path}: {e}"));

    let mut measured = Measured::new();
    for figure in [table1, fig1, fig2, fig3, fig4, fig5, staleness, f16] {
        figure(&mut measured);
    }

    println!(
        "{:<34} {:>10}  {:<14} verdict",
        "claim (simulated clock)", "measured", "bound"
    );
    for c in &claims {
        let (value, verdict) = match measured_value(&measured, &c.id) {
            Some(v) => (
                format!("{v:.3}"),
                if c.bound.holds(v) { "reproduced" } else { "not reproduced" },
            ),
            None => ("-".to_string(), "no measurement"),
        };
        println!("{:<34} {value:>10}  {:<14} {verdict}", c.id, c.bound.to_string());
    }
    let reproduced = claims
        .iter()
        .filter(|c| measured_value(&measured, &c.id).is_some_and(|v| c.bound.holds(v)))
        .count();
    println!("{reproduced} of {} claims reproduced", claims.len());

    let mismatches = check(&claims, &measured);
    if !mismatches.is_empty() {
        for mismatch in &mismatches {
            eprintln!("{mismatch}");
        }
        eprintln!("{} disagreement(s) with {path}", mismatches.len());
        std::process::exit(1);
    }
}
