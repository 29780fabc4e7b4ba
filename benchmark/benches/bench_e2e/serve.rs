//! The serving half of a workload: export the trained model, save → load
//! the `.nadmm` artifact, and drive one closed-loop client through the
//! batch-size mix.

use crate::results::Check;
use crate::stats;
use crate::workloads::MAX_BATCH;
use nadmm_data::Dataset;
use nadmm_device::DeviceSpec;
use nadmm_experiment::RunReport;
use nadmm_linalg::Matrix;
use nadmm_serve::{InferenceSession, ModelArtifact, Provenance};
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;

/// Batch sizes of the mix and the share of calls each gets. The median call
/// falls inside the batch-8 class (cumulative 40–70 %), away from a class
/// boundary.
pub const MIX: [(usize, f64); 4] = [(1, 0.4), (8, 0.3), (32, 0.2), (MAX_BATCH, 0.1)];
/// Calls in one cycle of the seeded schedule; the client repeats the cycle.
pub const SCHEDULE_LEN: usize = 4096;

/// A loaded model ready to serve, plus the request pool with the
/// predictions every pooled row must get.
pub struct Deployed {
    pub session: InferenceSession,
    /// Dense request rows, row-major: the workload's test rows.
    pub pool: Vec<f64>,
    /// The model's class for every pooled row, from the bulk path.
    pub expected: Vec<usize>,
    /// The artifact as loaded from disk (further sessions are built from it).
    pub artifact: ModelArtifact,
    pub save_ms: f64,
    pub load_ms: f64,
    pub artifact_bytes: u64,
    /// The loaded artifact equals the saved one bit for bit.
    pub round_trip_identical: bool,
    /// Accuracy of the loaded model on the test rows; must equal the
    /// training-time `final_accuracy` exactly.
    pub served_accuracy: f64,
}

/// The device model every serving session bills against.
pub fn serving_device() -> DeviceSpec {
    DeviceSpec::tesla_p100()
}

/// Exports `report`'s final iterate as an artifact under `dir`, loads it
/// back, and builds a warm session from the loaded copy. Whether the round
/// trip was bit identical and the accuracy reproduced is recorded, not
/// assumed: the caller turns both into checks.
pub fn deploy(name: &str, report: &RunReport, test: &Dataset, dir: &Path) -> Result<Deployed, String> {
    let provenance = Provenance {
        solver: report.solver.clone(),
        dataset: report.dataset.clone(),
        scenario_hash: None,
        final_objective: report.final_objective,
        final_accuracy: report.final_accuracy,
        iterations: report.history.len(),
        binary_checksum: None,
    };
    let labels = (0..test.num_classes()).map(|c| format!("class-{c}")).collect();
    let artifact = ModelArtifact::new(
        test.num_features(),
        test.num_classes(),
        labels,
        report.final_w.clone(),
        provenance,
    )
    .map_err(|e| format!("cannot export the model: {e}"))?;

    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.nadmm"));
    let t = Instant::now();
    artifact.save(&path).map_err(|e| format!("cannot save the artifact: {e}"))?;
    let save_ms = 1e3 * t.elapsed().as_secs_f64();
    let artifact_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("cannot stat the artifact: {e}"))?
        .len();
    let t = Instant::now();
    let loaded = ModelArtifact::load(&path).map_err(|e| format!("cannot load the artifact: {e}"))?;
    let load_ms = 1e3 * t.elapsed().as_secs_f64();
    // `save` stamps the binary checksum into the sidecar; everything else
    // must come back bit for bit.
    let mut saved = artifact;
    saved.provenance.binary_checksum = Some(saved.binary_checksum_hex());
    let round_trip_identical = loaded == saved;

    let mut session = InferenceSession::new(&loaded, serving_device()).map_err(|e| format!("cannot build a session: {e}"))?;
    let served_accuracy = session.accuracy(test);

    let pool_rows = test.num_samples();
    if pool_rows < MAX_BATCH {
        return Err(format!("the request pool has {pool_rows} rows, fewer than the largest batch"));
    }
    let mut expected = vec![0usize; pool_rows];
    session.predict_matrix_into(test.features(), &mut expected);
    let pool = match test.features() {
        Matrix::Dense(m) => m.as_slice().to_vec(),
        sparse => sparse.to_dense().into_vec(),
    };
    for (batch, _) in MIX {
        session.warm(batch);
    }
    Ok(Deployed {
        session,
        pool,
        expected,
        artifact: loaded,
        save_ms,
        load_ms,
        artifact_bytes,
        round_trip_identical,
        served_accuracy,
    })
}

/// One call of the schedule: `batch` consecutive pool rows from `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    pub class: u8,
    pub batch: usize,
    pub offset: usize,
}

/// The seeded request schedule: batch sizes drawn from [`MIX`], offsets
/// uniform over the pool.
pub fn schedule(seed: u64, pool_rows: usize) -> Vec<Call> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5e21_7e5e);
    (0..SCHEDULE_LEN)
        .map(|_| {
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            let mut class = MIX.len() - 1;
            for (i, (_, share)) in MIX.iter().enumerate() {
                acc += share;
                if u < acc {
                    class = i;
                    break;
                }
            }
            let batch = MIX[class].0;
            Call {
                class: class as u8,
                batch,
                offset: rng.gen_range(0..pool_rows - batch + 1),
            }
        })
        .collect()
}

/// What one pass of the client measured.
pub struct MixOutcome {
    pub calls: u64,
    /// Calls whose predictions differed from the bulk path's.
    pub failed: u64,
    pub rows: u64,
    pub wall_s: f64,
    /// Simulated seconds the device model billed for the same calls.
    pub sim_s: f64,
    /// Host nanoseconds of every call, in call order.
    pub latency_ns: Vec<u32>,
    /// Heap allocations the client thread made inside the predict calls.
    pub allocations: u64,
}

impl Deployed {
    /// The two checks of the save → load satellite, against the report the
    /// model came from.
    pub fn checks(&self, report: &RunReport) -> [Check; 2] {
        [
            Check {
                name: "artifact round trip is bit identical",
                passed: self.round_trip_identical,
                detail: format!("{} bytes", self.artifact_bytes),
            },
            Check {
                name: "served accuracy equals training accuracy",
                passed: Some(self.served_accuracy) == report.final_accuracy,
                detail: format!(
                    "served {} vs trained {:?} on {} rows",
                    self.served_accuracy,
                    report.final_accuracy,
                    self.expected.len()
                ),
            },
        ]
    }
}

impl MixOutcome {
    pub fn rows_per_s(&self) -> f64 {
        self.rows as f64 / self.wall_s
    }

    /// Sorted per-call microseconds of one batch class (`None` = all calls).
    pub fn latencies_us(&self, schedule: &[Call], class: Option<u8>) -> Vec<f64> {
        let picked: Vec<f64> = self
            .latency_ns
            .iter()
            .enumerate()
            .filter(|(i, _)| class.is_none_or(|c| schedule[i % schedule.len()].class == c))
            .map(|(_, &ns)| f64::from(ns) / 1e3)
            .collect();
        stats::sorted(&picked)
    }
}

/// Closed loop, one client: issues the schedule's calls back to back for
/// `seconds` (the call in flight at the deadline completes), timing each call
/// and checking each reply against `expected`.
pub fn run_mix(deployed: &mut Deployed, calls: &[Call], seconds: f64) -> MixOutcome {
    let p = deployed.session.num_features();
    let mut out = vec![0usize; MAX_BATCH];
    let mut latency_ns: Vec<u32> = Vec::with_capacity((seconds * 60_000.0) as usize + SCHEDULE_LEN);
    let (mut failed, mut rows, mut sim_s) = (0u64, 0u64, 0.0f64);
    let mut allocations = 0u64;
    let start = Instant::now();
    let mut wall_s;
    let mut i = 0usize;
    loop {
        let call = calls[i % calls.len()];
        let input = &deployed.pool[call.offset * p..(call.offset + call.batch) * p];
        let reply = &mut out[..call.batch];
        let t0 = Instant::now();
        let (allocs, timing) = crate::alloc::count_allocations(|| deployed.session.predict_batch_into(input, reply));
        let t1 = Instant::now();
        allocations += allocs;
        latency_ns.push((t1 - t0).as_nanos().min(u128::from(u32::MAX)) as u32);
        sim_s += timing.sim_seconds;
        rows += call.batch as u64;
        if reply != &deployed.expected[call.offset..call.offset + call.batch] {
            failed += 1;
        }
        i += 1;
        wall_s = (t1 - start).as_secs_f64();
        if wall_s >= seconds {
            break;
        }
    }
    MixOutcome {
        calls: i as u64,
        failed,
        rows,
        wall_s,
        sim_s,
        latency_ns,
        allocations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_is_seeded_and_follows_the_mix() {
        let a = schedule(7, 2_000);
        assert_eq!(a, schedule(7, 2_000));
        assert_ne!(a, schedule(11, 2_000));
        assert_eq!(a.len(), SCHEDULE_LEN);
        for (class, (batch, share)) in MIX.iter().enumerate() {
            let got = a.iter().filter(|c| c.class as usize == class).count() as f64 / a.len() as f64;
            assert!((got - share).abs() < 0.03, "batch {batch}: share {got} vs {share}");
        }
        assert!(a
            .iter()
            .all(|c| c.offset + c.batch <= 2_000 && c.batch == MIX[c.class as usize].0));
        // The smallest allowed pool still fits the largest batch.
        assert!(schedule(7, MAX_BATCH).iter().all(|c| c.offset + c.batch <= MAX_BATCH));
    }

    #[test]
    fn the_median_call_is_a_batch_of_eight() {
        let mut sizes: Vec<usize> = schedule(7, 2_000).iter().map(|c| c.batch).collect();
        sizes.sort_unstable();
        assert_eq!(sizes[sizes.len() / 2], 8);
    }
}
