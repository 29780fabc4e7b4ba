//! Golden fingerprints of the synthetic generators: the bits of every
//! feature and label they produce, train and test, for three configs.
//!
//! The constants were recorded from the dense-then-sparsify generator. The
//! sparse generator now replays each row's normals from a saved RNG state
//! instead of materialising the dense matrix, and must still produce these
//! exact bits; any change to the draw order or the arithmetic shows up here.

use nadmm_data::{Dataset, SyntheticConfig};
use nadmm_linalg::{gen, Matrix};
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hashes the storage format, every row's stored `(column, value bits)`
/// pairs, and the labels.
fn fingerprint(data: &Dataset) -> u64 {
    let mut h = Fnv::new();
    let features = data.features();
    h.word(u64::from(features.is_sparse()));
    h.word(features.rows() as u64);
    h.word(features.cols() as u64);
    for i in 0..features.rows() {
        match features {
            Matrix::Dense(m) => {
                for (j, v) in m.row(i).iter().enumerate() {
                    h.word(j as u64);
                    h.word(v.to_bits());
                }
            }
            Matrix::Sparse(m) => {
                let (cols, vals) = m.row(i);
                for (&j, v) in cols.iter().zip(vals) {
                    h.word(j as u64);
                    h.word(v.to_bits());
                }
            }
        }
        h.word(u64::MAX);
    }
    for &label in data.labels() {
        h.word(label as u64);
    }
    h.0
}

fn fingerprints(cfg: &SyntheticConfig, seed: u64) -> [u64; 2] {
    let (train, test) = cfg.generate(seed);
    [fingerprint(&train), fingerprint(&test)]
}

fn small_e18() -> SyntheticConfig {
    SyntheticConfig::e18_like()
        .with_train_size(300)
        .with_test_size(60)
        .with_num_features(400)
}

#[test]
fn e18_like_with_label_noise_keeps_its_bits() {
    let cfg = small_e18();
    assert_eq!(cfg.label_noise, 0.05);
    assert_eq!(fingerprints(&cfg, 7), [0x8d28_d23d_150f_08e7, 0xd3d2_2b46_71d0_9b59]);
}

#[test]
fn e18_like_without_label_noise_keeps_its_bits() {
    let cfg = SyntheticConfig {
        label_noise: 0.0,
        ..small_e18()
    };
    assert_eq!(fingerprints(&cfg, 7), [0x9dd4_64c8_989d_2587, 0xc173_7e02_0fe1_e133]);
}

#[test]
fn mnist_like_keeps_its_bits() {
    let cfg = SyntheticConfig::mnist_like()
        .with_train_size(200)
        .with_test_size(50)
        .with_num_features(30);
    assert_eq!(fingerprints(&cfg, 7), [0x52fb_64a3_acbd_39be, 0x0860_f23c_a269_97ca]);
}

#[test]
fn one_normal_sample_advances_the_rng_by_two_words() {
    let normal = Normal::new(0.0, 1.0).expect("valid normal");
    for seed in [0, 7, 42] {
        let mut sampled = gen::seeded_rng(seed);
        let mut skipped = sampled.clone();
        for _ in 0..100 {
            normal.sample(&mut sampled);
            skipped.next_u64();
            skipped.next_u64();
            assert_eq!(sampled.next_u64(), skipped.next_u64());
        }
    }
}
