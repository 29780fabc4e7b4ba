//! The synthetic generators give the same bits at every pool width and on
//! both sides of the `NADMM_PAR_THRESHOLD` cutover, and those bits are the
//! ones a single pass over the rows draws.
//!
//! The reference is a copy of the generator as one loop: each row draws its
//! label, then its normals, all from one RNG; the sparse features then mask
//! the dense draws in row-major order. When the pool runs, the crate's
//! generator draws dense rows per canonical chunk on pool workers, and it
//! replays sparse rows after skipping to the mask: it must put every word
//! where this loop puts it.

use nadmm_data::{Dataset, SyntheticConfig};
use nadmm_linalg::{gen, vector, Matrix};
use rand::Rng;
use rand_distr::{Distribution, Normal};
use std::sync::Mutex;

const WIDTHS: [usize; 3] = [1, 2, 4];

/// 0 sends every generation above the cutover to the pool; `usize::MAX`
/// keeps it on the calling thread.
const THRESHOLDS: [usize; 2] = [0, usize::MAX];

/// Row counts around one and many canonical chunks. 1000 rows are not a
/// multiple of their chunk length (16), and 2000 × 20 features are above
/// the default pool gate.
const ROWS: [usize; 6] = [1, 63, 64, 65, 1000, 2000];

/// Pool width and par-threshold are process-wide; each sweep holds this.
static KNOBS: Mutex<()> = Mutex::new(());

/// Every stored `(column, value bits)` pair row by row, a separator after
/// each row, then the labels.
fn dataset_bits(data: &Dataset) -> Vec<u64> {
    let features = data.features();
    let mut bits = vec![
        u64::from(features.is_sparse()),
        features.rows() as u64,
        features.cols() as u64,
    ];
    for i in 0..features.rows() {
        let (cols, vals): (Vec<usize>, Vec<f64>) = match features {
            Matrix::Dense(m) => m.row(i).iter().copied().enumerate().unzip(),
            Matrix::Sparse(m) => (m.row(i).0.to_vec(), m.row(i).1.to_vec()),
        };
        for (j, v) in cols.into_iter().zip(vals) {
            bits.extend([j as u64, v.to_bits()]);
        }
        bits.push(u64::MAX);
    }
    bits.extend(data.labels().iter().map(|&l| l as u64));
    bits
}

/// The generator as a single pass, in [`dataset_bits`]' format, train then
/// test.
fn single_pass_bits(cfg: &SyntheticConfig, seed: u64) -> [Vec<u64>; 2] {
    let (p, c) = (cfg.num_features, cfg.num_classes);
    let normal = Normal::new(0.0, 1.0).expect("valid normal");
    let mut rng = gen::seeded_rng(seed);
    let means: Vec<Vec<f64>> = (0..c)
        .map(|_| {
            let mut m = gen::gaussian_vector(p, &mut rng);
            let norm = vector::norm2(&m).max(1e-12);
            for v in m.iter_mut() {
                *v *= cfg.class_separation / norm * (p as f64).sqrt() / 4.0;
            }
            m
        })
        .collect();
    let stds: Vec<f64> = (0..p).map(|j| (-cfg.spectrum_decay * j as f64 / 2.0).exp()).collect();
    let sparse = cfg.density < 1.0;
    [cfg.train_size, cfg.test_size].map(|n| {
        let mut dense = vec![0.0; n * p];
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let mut label = rng.gen_range(0..c);
            if cfg.label_noise > 0.0 && rng.gen::<f64>() < cfg.label_noise {
                label = rng.gen_range(0..c);
            }
            labels.push(label as u64);
            for j in 0..p {
                dense[i * p + j] = means[label][j] + stds[j] * normal.sample(&mut rng);
            }
        }
        let mut bits = vec![u64::from(sparse), n as u64, p as u64];
        for row in dense.chunks_exact(p) {
            for (j, &v) in row.iter().enumerate() {
                if !sparse {
                    bits.extend([j as u64, v.to_bits()]);
                } else if rng.gen::<f64>() < cfg.density && v.abs() > 1e-9 {
                    bits.extend([j as u64, v.abs().to_bits()]);
                }
            }
            bits.push(u64::MAX);
        }
        bits.extend(labels);
        bits
    })
}

/// Generates `cfg` at every width × threshold and asserts each split's bits
/// equal the single pass's.
fn assert_single_pass_bits_at_every_width(cfg: &SyntheticConfig, seed: u64) {
    let expected = single_pass_bits(cfg, seed);
    let _knobs = KNOBS.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    for width in WIDTHS {
        rayon::set_num_threads(width);
        for threshold in THRESHOLDS {
            nadmm_linalg::set_par_threshold(threshold);
            let (train, test) = cfg.generate(seed);
            for (split, data, want) in [("train", &train, &expected[0]), ("test", &test, &expected[1])] {
                assert!(
                    dataset_bits(data) == *want,
                    "{} rows, label noise {}: {split} bits differ from the single pass at width={width} \
                     threshold={threshold}",
                    data.num_samples(),
                    cfg.label_noise
                );
            }
        }
    }
    nadmm_linalg::reset_par_threshold();
    rayon::reset_num_threads();
}

#[test]
fn dense_generation_draws_the_single_pass_bits_at_every_width() {
    for label_noise in [0.0, 0.02] {
        for n in ROWS {
            let cfg = SyntheticConfig {
                label_noise,
                ..SyntheticConfig::mnist_like()
                    .with_train_size(n)
                    .with_test_size(n)
                    .with_num_features(20)
            };
            assert_single_pass_bits_at_every_width(&cfg, 17);
        }
    }
}

#[test]
fn sparse_generation_draws_the_single_pass_bits_at_every_width() {
    for label_noise in [0.0, 0.05] {
        for n in ROWS {
            let cfg = SyntheticConfig {
                label_noise,
                ..SyntheticConfig::e18_like()
                    .with_train_size(n)
                    .with_test_size(n)
                    .with_num_features(60)
            };
            assert_single_pass_bits_at_every_width(&cfg, 17);
        }
    }
}
