//! Property tests for the `.nadmm` artifact format.
//!
//! Four families of invariants:
//!
//! 1. **Round trip** — for arbitrary dimensions, label maps (unicode
//!    included), and weight *bit patterns* (negative zero, subnormals, huge
//!    magnitudes), save→load reproduces the artifact bit-identically.
//! 2. **Corruption is typed** — truncating the file anywhere, flipping any
//!    byte, or stamping another format version never yields `Ok` and never
//!    panics: each lands on the specific [`ArtifactError`] variant the
//!    format documentation promises for that region of the file.
//! 3. **Checksum totality** — a flipped bit in the checksummed body is
//!    *always* a `ChecksumMismatch`, regardless of where it lands.
//! 4. **Reduced precision** — f16 weights round-trip the attach-time-rounded
//!    values bit-for-bit, over the same adversarial bit patterns.

use nadmm_serve::{fnv1a64, ArtifactError, ModelArtifact, Provenance, TensorEncoding, ARTIFACT_MAGIC, ARTIFACT_VERSION};
use proptest::prelude::*;

/// Pool of label fragments covering ASCII, unicode, and the empty string.
const LABEL_POOL: [&str; 6] = ["", "a", "classe-α", "ψ1", "mnist digit", "ζ/0"];

/// Deterministic artifact from sampled parameters: weights cycle through
/// adversarial bit patterns, labels through the unicode pool.
fn build_artifact(features: usize, classes: usize, weight_seed: u64, label_seed: usize) -> ModelArtifact {
    let dim = (classes - 1) * features;
    let weights: Vec<f64> = (0..dim)
        .map(|i| match (i as u64 + weight_seed) % 7 {
            0 => -0.0,
            1 => f64::MIN_POSITIVE / 2.0, // subnormal
            2 => 1.0e300,
            3 => -1.0e-300,
            4 => ((i as f64) + weight_seed as f64).sin(),
            5 => f64::from_bits(weight_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64) >> 12),
            _ => i as f64 * 0.5,
        })
        .collect();
    let labels: Vec<String> = (0..classes)
        .map(|c| format!("{}-{c}", LABEL_POOL[(c + label_seed) % LABEL_POOL.len()]))
        .collect();
    ModelArtifact::new(features, classes, labels, weights, Provenance::default()).unwrap()
}

fn temp_path(tag: &str, case: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("nadmm_prop_{tag}_{}_{case}.nadmm", std::process::id()))
}

/// Bitwise weight comparison: `==` on f64 misses NaN payloads and conflates
/// ±0.0; the format must preserve the exact bits.
fn weights_bits(a: &ModelArtifact) -> Vec<u64> {
    a.weights.iter().map(|w| w.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn save_load_is_bit_identical(
        features in 1usize..40,
        classes in 2usize..12,
        weight_seed in 0u64..1_000_000,
        label_seed in 0usize..6,
    ) {
        let artifact = build_artifact(features, classes, weight_seed, label_seed);
        let path = temp_path("roundtrip", weight_seed ^ (features as u64) << 32 ^ (classes as u64) << 16);
        artifact.save(&path).map_err(|e| format!("save failed: {e}"))?;
        let loaded = ModelArtifact::load(&path).map_err(|e| format!("load failed: {e}"))?;
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(ModelArtifact::sidecar_path(&path)).ok();
        prop_assert_eq!(loaded.num_features, artifact.num_features);
        prop_assert_eq!(loaded.num_classes, artifact.num_classes);
        prop_assert_eq!(&loaded.label_names, &artifact.label_names);
        prop_assert_eq!(weights_bits(&loaded), weights_bits(&artifact), "weights must round-trip bit-for-bit");
        // `save` mirrors the binary checksum into the sidecar, so the loaded
        // provenance is the original plus the mirror.
        let expected_provenance = Provenance {
            binary_checksum: Some(artifact.binary_checksum_hex()),
            ..artifact.provenance.clone()
        };
        prop_assert_eq!(loaded.provenance, expected_provenance);
    }

    #[test]
    fn reduced_precision_artifacts_round_trip_exactly(
        features in 1usize..24,
        classes in 2usize..8,
        weight_seed in 0u64..1_000_000,
    ) {
        // Rounding happens when the encoding is attached, so save→load must
        // reproduce the (already rounded) in-memory weights bit-for-bit —
        // including values that overflow f16 to infinity.
        let artifact = build_artifact(features, classes, weight_seed, 0).with_weight_encoding(TensorEncoding::F16);
        let path = temp_path("reduced", weight_seed ^ (features as u64) << 32);
        artifact.save(&path).map_err(|e| format!("save failed: {e}"))?;
        let loaded = ModelArtifact::load(&path).map_err(|e| format!("load failed: {e}"))?;
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(ModelArtifact::sidecar_path(&path)).ok();
        prop_assert_eq!(loaded.weight_encoding, TensorEncoding::F16, "the encoding tag must survive");
        prop_assert_eq!(
            weights_bits(&loaded),
            weights_bits(&artifact),
            "rounded f16 weights must round-trip bit-for-bit"
        );
    }

    #[test]
    fn truncation_is_always_a_typed_error(
        features in 1usize..16,
        classes in 2usize..8,
        cut_fraction in 0.0f64..1.0,
    ) {
        let bytes = build_artifact(features, classes, 17, 1).to_bytes();
        // Every strict prefix, from the empty file to one byte short.
        let cut = ((bytes.len() as f64 * cut_fraction) as usize).min(bytes.len() - 1);
        match ModelArtifact::from_bytes(&bytes[..cut]) {
            Err(ArtifactError::Truncated { .. }) | Err(ArtifactError::ChecksumMismatch { .. }) => {}
            Err(ArtifactError::BadMagic { .. }) if cut < ARTIFACT_MAGIC.len() => {
                return Err("a short magic must be Truncated, not BadMagic".into());
            }
            other => return Err(format!("truncation at {cut}/{} must be typed, got {other:?}", bytes.len())),
        }
    }

    #[test]
    fn any_flipped_body_byte_is_the_documented_error(
        features in 1usize..16,
        classes in 2usize..8,
        pos_fraction in 0.0f64..1.0,
        flip_bit in 0u32..8,
    ) {
        let good = build_artifact(features, classes, 23, 2).to_bytes();
        let pos = ((good.len() as f64 * pos_fraction) as usize).min(good.len() - 1);
        let mut bytes = good.clone();
        bytes[pos] ^= 1u8 << flip_bit;
        let result = ModelArtifact::from_bytes(&bytes);
        if pos < ARTIFACT_MAGIC.len() {
            // Magic is checked before everything else.
            prop_assert!(
                matches!(result, Err(ArtifactError::BadMagic { .. })),
                "flip in magic at {pos} must be BadMagic, got {result:?}"
            );
        } else if pos < ARTIFACT_MAGIC.len() + 4 {
            // A flipped version byte names a version other than the one
            // this build reads, which is checked before the checksum.
            prop_assert!(
                matches!(result, Err(ArtifactError::UnsupportedVersion { .. })),
                "flip in version at {pos} must be UnsupportedVersion, got {result:?}"
            );
        } else {
            // Everything else — dims, labels, weights, and the trailing
            // checksum itself — is covered by the integrity check.
            prop_assert!(
                matches!(result, Err(ArtifactError::ChecksumMismatch { .. })),
                "flip at {pos} must be ChecksumMismatch, got {result:?}"
            );
        }
    }

    #[test]
    fn future_versions_are_refused_even_with_a_valid_checksum(
        features in 1usize..16,
        classes in 2usize..8,
        version_bump in 1u32..1000,
    ) {
        let mut bytes = build_artifact(features, classes, 29, 3).to_bytes();
        let future = ARTIFACT_VERSION + version_bump;
        bytes[8..12].copy_from_slice(&future.to_le_bytes());
        // Restamp the checksum so the *only* defect is the version: the
        // version gate must fire before (and independently of) integrity.
        let body_len = bytes.len() - 8;
        let checksum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        match ModelArtifact::from_bytes(&bytes) {
            Err(ArtifactError::UnsupportedVersion { found, supported }) => {
                prop_assert_eq!(found, future);
                prop_assert_eq!(supported, ARTIFACT_VERSION);
            }
            other => return Err(format!("future version {future} must be UnsupportedVersion, got {other:?}")),
        }
    }

    #[test]
    fn truncated_files_on_disk_are_typed_errors_too(
        features in 1usize..12,
        classes in 2usize..6,
        cut_fraction in 0.0f64..1.0,
    ) {
        // Same property as the in-memory one, but through the `load` path —
        // a half-written artifact on disk must never load.
        let artifact = build_artifact(features, classes, 31, 4);
        let bytes = artifact.to_bytes();
        let cut = ((bytes.len() as f64 * cut_fraction) as usize).min(bytes.len() - 1);
        let path = temp_path("truncdisk", (features as u64) << 32 ^ (classes as u64) << 16 ^ cut as u64);
        std::fs::write(&path, &bytes[..cut]).map_err(|e| format!("write failed: {e}"))?;
        let result = ModelArtifact::load(&path);
        std::fs::remove_file(&path).ok();
        prop_assert!(
            matches!(
                result,
                Err(ArtifactError::Truncated { .. }) | Err(ArtifactError::ChecksumMismatch { .. })
            ),
            "truncated file at {cut}/{} must be a typed error, got {result:?}",
            bytes.len()
        );
    }
}
