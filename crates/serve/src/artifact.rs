//! Versioned model artifacts: the `.nadmm` binary format.
//!
//! A trained iterate used to die inside `RunReport::final_w`; a
//! [`ModelArtifact`] gives it a life after training. The artifact carries
//! everything inference needs (weights, dimensions, label names) plus the
//! training provenance (solver, dataset, scenario hash, final
//! objective/accuracy), and persists as two files:
//!
//! * **`<path>` (binary, checksummed)** — the load-bearing half. Version-2
//!   layout, all integers little-endian:
//!
//!   ```text
//!   offset size  field
//!   0      8     magic  b"NADMMART"
//!   8      4     format version (u32, always 2)
//!   12     8     num_features  (u64)
//!   20     8     num_classes   (u64)
//!   28     8     label count   (u64, == num_classes)
//!          …     per label: byte length (u32) + UTF-8 bytes
//!          8     tensor count  (u64, always 1)
//!          …     the tensor:
//!                  name length (u32) + UTF-8 name bytes (`"weights"`)
//!                  encoding tag (u8: 0=f64 2=f16)
//!                  element count (u64)
//!                  payload (count × bytes-per-element, per the encoding)
//!   end−8  8     FNV-1a 64 checksum of every preceding byte
//!   ```
//!
//!   Any other version is refused as [`ArtifactError::UnsupportedVersion`].
//!
//! * **`<path>.json` (sidecar)** — the human-readable provenance. Written on
//!   every save; a *missing* sidecar downgrades to empty provenance (the
//!   binary alone fully determines inference), but a present-and-garbled one
//!   is a loud [`ArtifactError::SidecarInvalid`]. Since format v2 the
//!   sidecar also mirrors the binary checksum
//!   ([`Provenance::binary_checksum`]), so a binary paired with the *wrong*
//!   sidecar is a typed [`ArtifactError::SidecarChecksumMismatch`].
//!
//! Every malformed-input path is a distinct [`ArtifactError`] variant —
//! truncation, bad magic, unsupported versions, checksum mismatches,
//! unknown encodings, and dimension inconsistencies each name exactly what
//! went wrong.
//!
//! [`TensorEncoding`] picks the on-disk width of the weights (f64 or f16),
//! and the in-memory values are always the *decoded* `f64`s — applying an
//! encoding through [`ModelArtifact::with_weight_encoding`] rounds the
//! values immediately, so what you hold is exactly what a save→load round
//! trip returns, and [`crate::InferenceSession`] decodes once at load and
//! serves from the same zero-allocation batched path.

use nadmm_linalg::half;
use serde::{DeError, Deserialize, Serialize, Value};
use std::path::Path;

/// Magic bytes opening every `.nadmm` file.
pub const ARTIFACT_MAGIC: [u8; 8] = *b"NADMMART";

/// The format version this build writes and the only one it reads.
pub const ARTIFACT_VERSION: u32 = 2;

/// Name of the one tensor in the version-2 tensor table.
pub const WEIGHTS_TENSOR: &str = "weights";

/// How the weights are stored on disk. In memory they are always `f64`;
/// the encoding decides the on-disk width and the rounding applied when it
/// is attached (so in-memory values always equal their decoded on-disk
/// form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TensorEncoding {
    /// Full-width f64 bit patterns (8 bytes/element, bit-exact).
    #[default]
    F64,
    /// IEEE binary16 (2 bytes/element).
    F16,
}

impl TensorEncoding {
    /// Every encoding, in tag order.
    pub const ALL: [TensorEncoding; 2] = [TensorEncoding::F64, TensorEncoding::F16];

    /// The spellings [`TensorEncoding::parse`] accepts, for error messages.
    pub const ACCEPTED_SPELLINGS: &'static str = "f64 (full, none), f16 (fp16, half)";

    /// Canonical lowercase name (also the serialized form).
    pub fn name(self) -> &'static str {
        match self {
            TensorEncoding::F64 => "f64",
            TensorEncoding::F16 => "f16",
        }
    }

    /// Parses a user spelling (CLI flags, config files), case-insensitive.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "f64" | "full" | "none" => Some(TensorEncoding::F64),
            "f16" | "fp16" | "half" => Some(TensorEncoding::F16),
            _ => None,
        }
    }

    /// The on-disk tag byte.
    pub fn tag(self) -> u8 {
        match self {
            TensorEncoding::F64 => 0,
            TensorEncoding::F16 => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        TensorEncoding::ALL.into_iter().find(|e| e.tag() == tag)
    }

    /// Bytes one element occupies on disk.
    pub fn bytes_per_element(self) -> usize {
        match self {
            TensorEncoding::F64 => 8,
            TensorEncoding::F16 => 2,
        }
    }

    /// Rounds values through this encoding in place — exactly what a
    /// save→load round trip does to them. Idempotent: rounding already
    /// rounded values changes nothing.
    pub fn round_values(self, values: &mut [f64]) {
        if self == TensorEncoding::F16 {
            values.iter_mut().for_each(|v| *v = half::round_f16(*v));
        }
    }

    /// Appends the encoded payload of `values`.
    fn encode_payload(self, values: &[f64], out: &mut Vec<u8>) {
        match self {
            TensorEncoding::F64 => values.iter().for_each(|v| out.extend_from_slice(&v.to_le_bytes())),
            TensorEncoding::F16 => values
                .iter()
                .for_each(|v| out.extend_from_slice(&half::f32_to_f16_bits(*v as f32).to_le_bytes())),
        }
    }

    /// Reads `count` encoded elements back into `f64`s.
    fn decode_payload(self, count: usize, r: &mut Reader<'_>) -> Result<Vec<f64>, ArtifactError> {
        let mut values = Vec::with_capacity(count.min(1 << 24));
        for _ in 0..count {
            let raw = r.take(self.bytes_per_element(), "tensor values")?;
            values.push(match self {
                TensorEncoding::F64 => f64::from_le_bytes(raw.try_into().expect("take() returned the requested length")),
                TensorEncoding::F16 => half::f16_bits_to_f32(u16::from_le_bytes(
                    raw.try_into().expect("take() returned the requested length"),
                )) as f64,
            });
        }
        Ok(values)
    }
}

impl Serialize for TensorEncoding {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for TensorEncoding {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            // Missing key: files written before encodings existed are f64.
            Value::Null => Ok(TensorEncoding::F64),
            Value::Str(s) => TensorEncoding::parse(s).ok_or_else(|| {
                DeError(format!(
                    "`{s}` does not name a tensor encoding; accepted values: {}",
                    TensorEncoding::ACCEPTED_SPELLINGS
                ))
            }),
            other => Err(DeError::expected("tensor encoding string", other)),
        }
    }
}

/// Why an artifact could not be saved or loaded.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// The file could not be read or written.
    Io {
        /// Path of the offending file.
        path: String,
        /// Operating-system error text.
        message: String,
    },
    /// The file does not open with [`ARTIFACT_MAGIC`] — not an artifact.
    BadMagic {
        /// The first bytes actually found.
        found: Vec<u8>,
    },
    /// The file's format version is not the one this build reads.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// The one version this build reads.
        supported: u32,
    },
    /// The file ends before a field it promises.
    Truncated {
        /// What was being read when the bytes ran out.
        reading: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The trailing checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the file's bytes.
        computed: u64,
    },
    /// Internally inconsistent dimensions (or dimensions that do not match
    /// what a caller requires).
    DimMismatch {
        /// What was being checked (e.g. `"weight count"`).
        what: &'static str,
        /// The value the format/ caller requires.
        expected: usize,
        /// The value actually found.
        found: usize,
    },
    /// A value field is structurally invalid (e.g. fewer than two classes).
    Invalid {
        /// Description of the violated invariant.
        message: String,
    },
    /// The provenance sidecar exists but cannot be parsed.
    SidecarInvalid {
        /// Path of the sidecar file.
        path: String,
        /// Parse error text.
        message: String,
    },
    /// The weights carry an encoding tag this build does not know.
    UnknownEncoding {
        /// The tag byte actually found.
        found: u8,
    },
    /// The sidecar's mirrored binary checksum does not match the binary it
    /// sits next to — the two halves come from different saves.
    SidecarChecksumMismatch {
        /// Checksum the sidecar claims (hex).
        sidecar: String,
        /// Checksum the binary actually carries (hex).
        binary: String,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io { path, message } => write!(f, "artifact io error on `{path}`: {message}"),
            ArtifactError::BadMagic { found } => {
                write!(
                    f,
                    "not a .nadmm artifact: file opens with {found:?}, expected {ARTIFACT_MAGIC:?}"
                )
            }
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is not supported (this build reads version {supported} only)"
            ),
            ArtifactError::Truncated {
                reading,
                needed,
                remaining,
            } => write!(
                f,
                "artifact truncated while reading {reading}: needed {needed} bytes, {remaining} remain"
            ),
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: file stores {stored:#018x}, contents hash to {computed:#018x} (corrupt file)"
            ),
            ArtifactError::DimMismatch { what, expected, found } => {
                write!(f, "artifact dimension mismatch: {what} must be {expected}, found {found}")
            }
            ArtifactError::Invalid { message } => write!(f, "invalid artifact: {message}"),
            ArtifactError::SidecarInvalid { path, message } => {
                write!(f, "artifact sidecar `{path}` is unreadable: {message}")
            }
            ArtifactError::UnknownEncoding { found } => {
                write!(f, "artifact tensor uses unknown encoding tag {found} (known: 0=f64 2=f16)")
            }
            ArtifactError::SidecarChecksumMismatch { sidecar, binary } => write!(
                f,
                "artifact sidecar mirrors binary checksum {sidecar} but the binary carries {binary} — \
                 the sidecar belongs to a different save of this artifact"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// Where a model came from: recorded at save time, carried in the JSON
/// sidecar, and reported by serving tools so a deployed model can always be
/// traced back to the run that produced it.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Provenance {
    /// Solver that trained the model (e.g. `"newton-admm"`).
    pub solver: String,
    /// Dataset the model was trained on.
    pub dataset: String,
    /// FNV-1a 64 hash of the scenario JSON (hex), when trained from one.
    pub scenario_hash: Option<String>,
    /// Final training objective.
    pub final_objective: Option<f64>,
    /// Final test accuracy recorded at training time (the serving engine
    /// reproduces this exactly on the same held-out rows).
    pub final_accuracy: Option<f64>,
    /// Outer iterations the training run executed.
    pub iterations: usize,
    /// Hex FNV-1a 64 checksum of the binary half, mirrored here at save
    /// time so a binary paired with the wrong sidecar is detected at load.
    /// `None` when the sidecar carries no mirror (then no check runs).
    pub binary_checksum: Option<String>,
}

/// A persisted multiclass linear model: the downstream half of the paper's
/// pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelArtifact {
    /// Number of input features `p`.
    pub num_features: usize,
    /// Number of classes `C` (class `C − 1` is the implicit reference class
    /// with weights pinned at zero, matching the training parameterisation).
    pub num_classes: usize,
    /// Human-readable class names, one per class index.
    pub label_names: Vec<String>,
    /// Flat weights, row-major `(C − 1) × p` — exactly `RunReport::final_w`
    /// when the encoding is f64, its rounded image otherwise.
    pub weights: Vec<f64>,
    /// On-disk storage width of the weight tensor. The in-memory `weights`
    /// are always already rounded through it.
    pub weight_encoding: TensorEncoding,
    /// Training provenance (lives in the JSON sidecar on disk).
    pub provenance: Provenance,
}

/// FNV-1a 64-bit hash (the artifact checksum; also used for scenario
/// fingerprints). Stable, dependency-free, and plenty for integrity checks —
/// this guards against corruption, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Sequential little-endian reader over the artifact bytes, with every
/// out-of-bytes condition reported as a typed [`ArtifactError::Truncated`].
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, reading: &'static str) -> Result<&'a [u8], ArtifactError> {
        let remaining = self.bytes.len() - self.pos;
        if n > remaining {
            return Err(ArtifactError::Truncated {
                reading,
                needed: n,
                remaining,
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self, reading: &'static str) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(
            self.take(4, reading)?.try_into().expect("take(4) returned 4 bytes"),
        ))
    }

    fn u64(&mut self, reading: &'static str) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(
            self.take(8, reading)?.try_into().expect("take(8) returned 8 bytes"),
        ))
    }
}

/// Reads a length-prefixed UTF-8 string (labels, the tensor name).
fn read_string(r: &mut Reader<'_>, len_field: &'static str, bytes_field: &'static str) -> Result<String, ArtifactError> {
    let len = r.u32(len_field)? as usize;
    let raw = r.take(len, bytes_field)?;
    Ok(std::str::from_utf8(raw)
        .map_err(|e| ArtifactError::Invalid {
            message: format!("{bytes_field} are not UTF-8: {e}"),
        })?
        .to_string())
}

impl ModelArtifact {
    /// Assembles an artifact, checking the dimensional invariants the binary
    /// format promises.
    pub fn new(
        num_features: usize,
        num_classes: usize,
        label_names: Vec<String>,
        weights: Vec<f64>,
        provenance: Provenance,
    ) -> Result<Self, ArtifactError> {
        let artifact = Self {
            num_features,
            num_classes,
            label_names,
            weights,
            weight_encoding: TensorEncoding::F64,
            provenance,
        };
        artifact.check_dims()?;
        Ok(artifact)
    }

    /// Stores the weights under `encoding`, rounding the in-memory values
    /// through it immediately — the artifact you hold equals what a
    /// save→load round trip returns.
    pub fn with_weight_encoding(mut self, encoding: TensorEncoding) -> Self {
        self.weight_encoding = encoding;
        encoding.round_values(&mut self.weights);
        self
    }

    /// Dimension of the weight vector, `(C − 1) · p`.
    pub fn weight_dim(&self) -> usize {
        (self.num_classes - 1) * self.num_features
    }

    fn check_dims(&self) -> Result<(), ArtifactError> {
        if self.num_classes < 2 {
            return Err(ArtifactError::Invalid {
                message: format!("need at least two classes, got {}", self.num_classes),
            });
        }
        if self.num_features == 0 {
            return Err(ArtifactError::Invalid {
                message: "need at least one feature".into(),
            });
        }
        if self.label_names.len() != self.num_classes {
            return Err(ArtifactError::DimMismatch {
                what: "label count",
                expected: self.num_classes,
                found: self.label_names.len(),
            });
        }
        if self.weights.len() != self.weight_dim() {
            return Err(ArtifactError::DimMismatch {
                what: "weight count",
                expected: self.weight_dim(),
                found: self.weights.len(),
            });
        }
        Ok(())
    }

    /// Serializes the binary half (magic, version, dims, labels, the
    /// one-tensor table, trailing checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.weights.len() * self.weight_encoding.bytes_per_element());
        out.extend_from_slice(&ARTIFACT_MAGIC);
        out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.num_features as u64).to_le_bytes());
        out.extend_from_slice(&(self.num_classes as u64).to_le_bytes());
        out.extend_from_slice(&(self.label_names.len() as u64).to_le_bytes());
        for name in &self.label_names {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&(WEIGHTS_TENSOR.len() as u32).to_le_bytes());
        out.extend_from_slice(WEIGHTS_TENSOR.as_bytes());
        out.push(self.weight_encoding.tag());
        out.extend_from_slice(&(self.weights.len() as u64).to_le_bytes());
        self.weight_encoding.encode_payload(&self.weights, &mut out);
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// The FNV-1a 64 checksum [`ModelArtifact::to_bytes`] appends (and
    /// [`ModelArtifact::save`] mirrors into the sidecar), as lowercase hex.
    pub fn binary_checksum_hex(&self) -> String {
        let bytes = self.to_bytes();
        format!(
            "{:016x}",
            u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("checksum tail is 8 bytes"))
        )
    }

    /// Parses the binary half, validating magic, version, checksum, and
    /// every dimensional invariant. The inverse of
    /// [`ModelArtifact::to_bytes`] up to the sidecar-only provenance (left
    /// empty here). The payload decodes to `f64` here, once — serving never
    /// touches encoded bytes again.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(ARTIFACT_MAGIC.len(), "magic")?;
        if magic != ARTIFACT_MAGIC {
            return Err(ArtifactError::BadMagic { found: magic.to_vec() });
        }
        let version = r.u32("format version")?;
        if version != ARTIFACT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: version,
                supported: ARTIFACT_VERSION,
            });
        }
        // Integrity before structure: the checksum covers everything except
        // its own trailing 8 bytes, so a flipped bit anywhere (weights
        // included) is a checksum error, not a confusing parse error.
        if bytes.len() < r.pos + 8 {
            return Err(ArtifactError::Truncated {
                reading: "checksum",
                needed: 8,
                remaining: bytes.len().saturating_sub(r.pos),
            });
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("checksum tail is 8 bytes"));
        let computed = fnv1a64(body);
        if stored != computed {
            return Err(ArtifactError::ChecksumMismatch { stored, computed });
        }
        let mut r = Reader { bytes: body, pos: r.pos };
        let num_features = r.u64("num_features")? as usize;
        let num_classes = r.u64("num_classes")? as usize;
        let label_count = r.u64("label count")? as usize;
        if label_count != num_classes {
            return Err(ArtifactError::DimMismatch {
                what: "label count",
                expected: num_classes,
                found: label_count,
            });
        }
        let mut label_names = Vec::with_capacity(label_count.min(1 << 16));
        for _ in 0..label_count {
            label_names.push(read_string(&mut r, "label length", "label bytes")?);
        }
        let tensor_count = r.u64("tensor count")?;
        if tensor_count != 1 {
            return Err(ArtifactError::Invalid {
                message: format!("artifact holds {tensor_count} tensors; the format has exactly one, `{WEIGHTS_TENSOR}`"),
            });
        }
        let name = read_string(&mut r, "tensor name length", "tensor name bytes")?;
        if name != WEIGHTS_TENSOR {
            return Err(ArtifactError::Invalid {
                message: format!("artifact tensor is named `{name}`, not `{WEIGHTS_TENSOR}`"),
            });
        }
        let tag = r.take(1, "tensor encoding tag")?[0];
        let weight_encoding = TensorEncoding::from_tag(tag).ok_or(ArtifactError::UnknownEncoding { found: tag })?;
        let count = r.u64("tensor element count")? as usize;
        let weights = weight_encoding.decode_payload(count, &mut r)?;
        if r.pos != body.len() {
            return Err(ArtifactError::Invalid {
                message: format!("{} trailing bytes after the weights", body.len() - r.pos),
            });
        }
        let artifact = Self {
            num_features,
            num_classes,
            label_names,
            weights,
            weight_encoding,
            provenance: Provenance::default(),
        };
        artifact.check_dims()?;
        Ok(artifact)
    }

    /// Path of the provenance sidecar for an artifact at `path`.
    pub fn sidecar_path(path: impl AsRef<Path>) -> String {
        format!("{}.json", path.as_ref().display())
    }

    /// Writes the binary artifact to `path` and the provenance sidecar to
    /// `<path>.json`.
    ///
    /// Both halves are staged as `*.tmp` files and renamed into place only
    /// after every write succeeded, so a failed write (disk full,
    /// permissions) never clobbers an existing artifact — in particular it
    /// cannot leave a *new* binary paired with a *stale* sidecar, which
    /// would load cleanly with the wrong provenance. (The residual window
    /// is a same-directory rename failing between the two renames, which
    /// the OS makes far rarer than a failed write.)
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        nadmm_trace::instant(nadmm_trace::Tag::ArtifactIo);
        self.check_dims()?;
        let path = path.as_ref();
        let io_err = |p: &str, e: std::io::Error| ArtifactError::Io {
            path: p.to_string(),
            message: e.to_string(),
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err(&parent.display().to_string(), e))?;
            }
        }
        let sidecar = Self::sidecar_path(path);
        // Mirror the binary checksum into the sidecar so a mismatched
        // binary/sidecar pairing is detected at load.
        let bytes = self.to_bytes();
        let mut provenance = self.provenance.clone();
        provenance.binary_checksum = Some(format!(
            "{:016x}",
            u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("checksum tail is 8 bytes"))
        ));
        let json = nadmm_experiment::to_finite_json_pretty(&provenance).map_err(|e| ArtifactError::Invalid {
            message: format!("provenance does not serialize: {e}"),
        })?;
        let binary_tmp = format!("{}.tmp", path.display());
        let sidecar_tmp = format!("{sidecar}.tmp");
        let staged = (|| -> Result<(), ArtifactError> {
            std::fs::write(&binary_tmp, &bytes).map_err(|e| io_err(&binary_tmp, e))?;
            std::fs::write(&sidecar_tmp, json).map_err(|e| io_err(&sidecar_tmp, e))
        })();
        if let Err(e) = staged {
            std::fs::remove_file(&binary_tmp).ok();
            std::fs::remove_file(&sidecar_tmp).ok();
            return Err(e);
        }
        // Publish the sidecar first so the load-bearing binary lands last;
        // if either rename fails the caller gets an Err and knows the pair
        // on disk is not the one it asked for.
        std::fs::rename(&sidecar_tmp, &sidecar).map_err(|e| io_err(&sidecar, e))?;
        std::fs::rename(&binary_tmp, path).map_err(|e| io_err(&path.display().to_string(), e))
    }

    /// Loads an artifact from `path`, validating checksum, version, and
    /// dimensions, and attaching the sidecar provenance when present. A
    /// missing sidecar yields empty provenance; an unparseable one is a
    /// loud [`ArtifactError::SidecarInvalid`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        nadmm_trace::instant(nadmm_trace::Tag::ArtifactIo);
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| ArtifactError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        let mut artifact = Self::from_bytes(&bytes)?;
        let sidecar = Self::sidecar_path(path);
        match std::fs::read_to_string(&sidecar) {
            Ok(text) => {
                let provenance: Provenance = serde_json::from_str(&text).map_err(|e| ArtifactError::SidecarInvalid {
                    path: sidecar,
                    message: e.to_string(),
                })?;
                // Sidecars mirror the binary checksum; a mismatch means
                // the two halves come from different saves. A sidecar
                // without the mirror skips the check.
                if let Some(mirror) = &provenance.binary_checksum {
                    let actual = format!(
                        "{:016x}",
                        u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("checksum tail is 8 bytes"))
                    );
                    if *mirror != actual {
                        return Err(ArtifactError::SidecarChecksumMismatch {
                            sidecar: mirror.clone(),
                            binary: actual,
                        });
                    }
                }
                artifact.provenance = provenance;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(ArtifactError::Io {
                    path: sidecar,
                    message: e.to_string(),
                })
            }
        }
        Ok(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> ModelArtifact {
        ModelArtifact::new(
            3,
            3,
            vec!["ant".into(), "bee".into(), "other".into()],
            vec![0.5, -1.25, 3.0, 0.0, 2.5, -0.125],
            Provenance {
                solver: "newton-admm".into(),
                dataset: "unit".into(),
                scenario_hash: Some("deadbeef".into()),
                final_objective: Some(1.5),
                final_accuracy: Some(0.875),
                iterations: 7,
                binary_checksum: None,
            },
        )
        .unwrap()
    }

    fn temp_path(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("nadmm_artifact_{tag}_{}.nadmm", std::process::id()))
            .display()
            .to_string()
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let a = artifact();
        let mut b = ModelArtifact::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(b.provenance, Provenance::default(), "provenance lives in the sidecar");
        b.provenance = a.provenance.clone();
        assert_eq!(a, b);
    }

    /// What `load` should return for a freshly saved artifact: identical up
    /// to the checksum mirror `save` stamps into the sidecar.
    fn with_mirror(a: &ModelArtifact) -> ModelArtifact {
        let mut expected = a.clone();
        expected.provenance.binary_checksum = Some(a.binary_checksum_hex());
        expected
    }

    #[test]
    fn save_load_round_trips_including_provenance() {
        let path = temp_path("roundtrip");
        let a = artifact();
        a.save(&path).unwrap();
        let b = ModelArtifact::load(&path).unwrap();
        assert_eq!(b, with_mirror(&a));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(ModelArtifact::sidecar_path(&path)).ok();
    }

    #[test]
    fn failed_saves_never_clobber_the_existing_pair() {
        let path = temp_path("atomic");
        let a = artifact();
        a.save(&path).unwrap();
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists(), "no staging residue");
        // Force the sidecar stage to fail: a directory squats on its tmp
        // path, so fs::write errors after the binary was already staged.
        let sidecar_tmp = format!("{}.tmp", ModelArtifact::sidecar_path(&path));
        std::fs::create_dir_all(&sidecar_tmp).unwrap();
        let mut b = a.clone();
        b.weights[0] = 42.0;
        b.provenance.solver = "other-solver".into();
        match b.save(&path) {
            Err(ArtifactError::Io { .. }) => {}
            other => panic!("expected Io from the staged write, got {other:?}"),
        }
        // The old pair is fully intact — weights *and* provenance — and the
        // staged binary was cleaned up.
        assert_eq!(ModelArtifact::load(&path).unwrap(), with_mirror(&a));
        assert!(
            !std::path::Path::new(&format!("{path}.tmp")).exists(),
            "staged binary must be removed after a failed save"
        );
        std::fs::remove_dir(&sidecar_tmp).ok();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(ModelArtifact::sidecar_path(&path)).ok();
    }

    #[test]
    fn missing_sidecar_degrades_to_empty_provenance() {
        let path = temp_path("nosidecar");
        let a = artifact();
        a.save(&path).unwrap();
        std::fs::remove_file(ModelArtifact::sidecar_path(&path)).unwrap();
        let b = ModelArtifact::load(&path).unwrap();
        assert_eq!(b.provenance, Provenance::default());
        assert_eq!(b.weights, a.weights);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbled_sidecar_is_a_loud_typed_error() {
        let path = temp_path("badsidecar");
        artifact().save(&path).unwrap();
        std::fs::write(ModelArtifact::sidecar_path(&path), "{not json").unwrap();
        match ModelArtifact::load(&path) {
            Err(ArtifactError::SidecarInvalid { .. }) => {}
            other => panic!("expected SidecarInvalid, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(ModelArtifact::sidecar_path(&path)).ok();
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = artifact().to_bytes();
        bytes[0] = b'X';
        match ModelArtifact::from_bytes(&bytes) {
            Err(ArtifactError::BadMagic { found }) => assert_eq!(found[0], b'X'),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn future_versions_are_refused_by_name() {
        let mut bytes = artifact().to_bytes();
        bytes[8..12].copy_from_slice(&(ARTIFACT_VERSION + 1).to_le_bytes());
        match ModelArtifact::from_bytes(&bytes) {
            Err(ArtifactError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, ARTIFACT_VERSION + 1);
                assert_eq!(supported, ARTIFACT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn any_flipped_payload_byte_is_a_checksum_error() {
        let good = artifact().to_bytes();
        // Flip one byte in the weights block and one in the trailing checksum.
        for &pos in &[good.len() - 20, good.len() - 4] {
            let mut bytes = good.clone();
            bytes[pos] ^= 0x40;
            match ModelArtifact::from_bytes(&bytes) {
                Err(ArtifactError::ChecksumMismatch { stored, computed }) => assert_ne!(stored, computed),
                other => panic!("flipping byte {pos} should be a checksum mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_names_the_missing_field() {
        let good = artifact().to_bytes();
        match ModelArtifact::from_bytes(&good[..6]) {
            Err(ArtifactError::Truncated { reading, .. }) => assert_eq!(reading, "magic"),
            other => panic!("expected Truncated, got {other:?}"),
        }
        match ModelArtifact::from_bytes(&good[..14]) {
            Err(ArtifactError::Truncated { reading, .. }) => assert_eq!(reading, "checksum"),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn dimension_lies_are_loud() {
        assert!(matches!(
            ModelArtifact::new(3, 3, vec!["a".into(); 2], vec![0.0; 6], Provenance::default()),
            Err(ArtifactError::DimMismatch { what: "label count", .. })
        ));
        assert!(matches!(
            ModelArtifact::new(3, 3, vec!["a".into(); 3], vec![0.0; 5], Provenance::default()),
            Err(ArtifactError::DimMismatch {
                what: "weight count",
                expected: 6,
                found: 5
            })
        ));
        assert!(matches!(
            ModelArtifact::new(3, 1, vec!["a".into()], vec![], Provenance::default()),
            Err(ArtifactError::Invalid { .. })
        ));
    }

    #[test]
    fn io_failures_carry_the_path() {
        match ModelArtifact::load("/nonexistent/deep/model.nadmm") {
            Err(ArtifactError::Io { path, .. }) => assert!(path.contains("model.nadmm")),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn with_weight_encoding_rounds_the_in_memory_values() {
        let a = artifact().with_weight_encoding(TensorEncoding::F16);
        let expected: Vec<f64> = artifact().weights.iter().map(|&w| half::round_f16(w)).collect();
        assert_eq!(a.weights, expected);
        // 0.1-style values actually quantize (the rounding is not a no-op
        // in general), while the artifact fixture's dyadic values survive.
        assert_ne!(half::round_f16(0.1), 0.1);
    }

    #[test]
    fn reduced_encodings_shrink_the_file() {
        let wide = ModelArtifact::new(
            64,
            3,
            vec!["a".into(), "b".into(), "c".into()],
            (0..128).map(|i| (i as f64 * 0.37).sin()).collect(),
            Provenance::default(),
        )
        .unwrap();
        let f64_bytes = wide.to_bytes().len();
        let f16_bytes = wide.with_weight_encoding(TensorEncoding::F16).to_bytes().len();
        assert_eq!(f64_bytes - f16_bytes, 128 * 6, "f16 drops 6 bytes per weight");
        assert!(
            (f16_bytes as f64) < 0.5 * f64_bytes as f64,
            "f16 artifact must be under half the f64 size: {f16_bytes} vs {f64_bytes}"
        );
    }

    #[test]
    fn unknown_encoding_tags_are_typed() {
        let good = artifact().to_bytes();
        // The weights tensor's tag byte sits right after its name bytes.
        let name_at = good
            .windows(WEIGHTS_TENSOR.len())
            .position(|w| w == WEIGHTS_TENSOR.as_bytes())
            .unwrap();
        let tag_at = name_at + WEIGHTS_TENSOR.len();
        assert_eq!(good[tag_at], TensorEncoding::F64.tag());
        // 1, 3 and 4 were the f32, bf16 and qi8 tags; 9 was never assigned.
        for tag in [1u8, 3, 4, 9] {
            let mut bytes = good.clone();
            bytes[tag_at] = tag;
            restamp_checksum(&mut bytes);
            match ModelArtifact::from_bytes(&bytes) {
                Err(ArtifactError::UnknownEncoding { found }) => assert_eq!(found, tag),
                other => panic!("tag {tag}: expected UnknownEncoding, got {other:?}"),
            }
        }
    }

    /// Rewrites the trailing checksum after a deliberate edit of the body.
    fn restamp_checksum(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let checksum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn tensor_tables_other_than_one_weights_tensor_are_invalid() {
        let good = artifact().to_bytes();
        let name_at = good
            .windows(WEIGHTS_TENSOR.len())
            .position(|w| w == WEIGHTS_TENSOR.as_bytes())
            .unwrap();
        // The tensor count (u64) precedes the name's u32 length.
        let count_at = name_at - 4 - 8;
        assert_eq!(good[count_at..count_at + 8], 1u64.to_le_bytes());
        for count in [0u64, 2] {
            let mut bytes = good.clone();
            bytes[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
            restamp_checksum(&mut bytes);
            match ModelArtifact::from_bytes(&bytes) {
                Err(ArtifactError::Invalid { message }) => assert!(message.contains("exactly one"), "{message}"),
                other => panic!("tensor count {count}: expected Invalid, got {other:?}"),
            }
        }
        let mut bytes = good;
        bytes[name_at..name_at + WEIGHTS_TENSOR.len()].copy_from_slice(b"biasing");
        restamp_checksum(&mut bytes);
        match ModelArtifact::from_bytes(&bytes) {
            Err(ArtifactError::Invalid { message }) => assert!(message.contains("`biasing`"), "{message}"),
            other => panic!("expected Invalid for a tensor not named weights, got {other:?}"),
        }
    }

    #[test]
    fn on_disk_bytes_are_frozen() {
        // FNV-1a of `to_bytes()` for one fixed artifact in f64 and in f16.
        // The round-trip tests pass after any self-consistent format change;
        // these constants fail on one, so files already written keep
        // loading. The weights cover rounding, an f16 subnormal, −0.0 and
        // f16 overflow to ∞.
        let a = ModelArtifact::new(
            3,
            3,
            vec!["ant".into(), "bee".into(), "other".into()],
            vec![0.1, -1.0 / 3.0, 1e-6, -0.0, 70000.0, 2.5],
            Provenance::default(),
        )
        .unwrap();
        assert_eq!(fnv1a64(&a.to_bytes()), 0x4a71_3851_6867_f1dd, "f64 bytes moved");
        let half = a.with_weight_encoding(TensorEncoding::F16);
        assert_eq!(fnv1a64(&half.to_bytes()), 0x8309_98cf_4c97_c0ea, "f16 bytes moved");
    }

    #[test]
    fn mismatched_sidecar_is_a_typed_checksum_error() {
        let path_a = temp_path("mismatch_a");
        let path_b = temp_path("mismatch_b");
        let a = artifact();
        let mut b = artifact();
        b.weights[0] = 99.0;
        a.save(&path_a).unwrap();
        b.save(&path_b).unwrap();
        // Pair a's binary with b's sidecar: both halves are individually
        // valid, but they come from different saves.
        std::fs::copy(ModelArtifact::sidecar_path(&path_b), ModelArtifact::sidecar_path(&path_a)).unwrap();
        match ModelArtifact::load(&path_a) {
            Err(ArtifactError::SidecarChecksumMismatch { sidecar, binary }) => {
                assert_eq!(sidecar, b.binary_checksum_hex());
                assert_eq!(binary, a.binary_checksum_hex());
            }
            other => panic!("expected SidecarChecksumMismatch, got {other:?}"),
        }
        for p in [&path_a, &path_b] {
            std::fs::remove_file(p).ok();
            std::fs::remove_file(ModelArtifact::sidecar_path(p)).ok();
        }
    }

    #[test]
    fn encoding_spellings_parse_and_serde_round_trips() {
        for (spelling, expected) in [
            ("f64", TensorEncoding::F64),
            ("NONE", TensorEncoding::F64),
            (" half ", TensorEncoding::F16),
            ("FP16", TensorEncoding::F16),
        ] {
            assert_eq!(TensorEncoding::parse(spelling), Some(expected), "{spelling}");
        }
        for gone in ["f8", "f32", "bf16", "qi8"] {
            assert_eq!(TensorEncoding::parse(gone), None, "{gone}");
        }
        for encoding in TensorEncoding::ALL {
            assert_eq!(TensorEncoding::from_value(&encoding.to_value()), Ok(encoding));
            assert_eq!(TensorEncoding::from_tag(encoding.tag()), Some(encoding));
        }
        assert_eq!(TensorEncoding::from_value(&Value::Null), Ok(TensorEncoding::F64));
        let err = TensorEncoding::from_value(&Value::Str("f8".into())).unwrap_err();
        assert!(err.0.contains("fp16"), "error must list accepted spellings: {}", err.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
