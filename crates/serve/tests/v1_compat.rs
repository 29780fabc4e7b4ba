//! Version-1 `.nadmm` artifacts (a single implicit f64 weight block, no
//! tensor table) are no longer read. The committed fixture is a v1 file
//! with a valid checksum; loading it must fail with the typed version
//! error, never parse as something else.

use nadmm_serve::{ArtifactError, ModelArtifact};

#[test]
fn committed_v1_fixture_is_refused_as_unsupported() {
    let bytes = include_bytes!("fixtures/v1_model.nadmm");
    assert_eq!(&bytes[8..12], &1u32.to_le_bytes(), "the fixture must actually be v1");
    assert_eq!(
        ModelArtifact::from_bytes(bytes),
        Err(ArtifactError::UnsupportedVersion { found: 1, supported: 2 })
    );
}
