//! LIBSVM / SVMlight format parser.
//!
//! The paper's datasets (HIGGS, MNIST, CIFAR-10, E18) are commonly
//! distributed in LIBSVM format (`label idx:value idx:value …`, 1-based
//! indices). This parser lets users drop the real datasets into the
//! reproduction unchanged; the tests and benches use the synthetic analogues
//! from [`crate::synthetic`].
//!
//! ## Schemas: keeping train/test splits dimensionally consistent
//!
//! [`parse_libsvm`] *infers* the feature count from the largest index seen
//! and remaps labels per file, which is a classic LIBSVM footgun: a test
//! split that happens to miss the highest feature index (sparse tails often
//! do) or a label class produces a dataset that disagrees dimensionally
//! with its train split, and the trained `d×k` iterate cannot even be
//! evaluated on it. [`LibsvmSchema`] pins both explicitly, and
//! [`read_libsvm_pair`] parses both splits under one shared schema (dims =
//! union of the two files, label map = train split) so the pair always
//! agrees.

use crate::dataset::Dataset;
use nadmm_linalg::{CsrMatrix, Matrix};
use std::io::BufRead;
use std::path::Path;

/// Errors from parsing LIBSVM data.
#[derive(Debug)]
pub enum LibsvmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (bad label, bad index:value pair, non-finite number, …).
    Parse { line: usize, message: String },
    /// The file does not fit the declared [`LibsvmSchema`].
    Schema { line: usize, message: String },
}

impl std::fmt::Display for LibsvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LibsvmError::Io(e) => write!(f, "i/o error: {e}"),
            LibsvmError::Parse { line, message } => write!(f, "parse error on line {line}: {message}"),
            LibsvmError::Schema { line, message } => write!(f, "schema violation on line {line}: {message}"),
        }
    }
}

impl std::error::Error for LibsvmError {}

impl From<std::io::Error> for LibsvmError {
    fn from(e: std::io::Error) -> Self {
        LibsvmError::Io(e)
    }
}

/// An explicit LIBSVM schema: the feature dimensionality and the label
/// universe. Datasets parsed under the same schema are guaranteed to agree
/// on `num_features`, `num_classes`, and the label → class-index mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibsvmSchema {
    /// Number of features (1-based LIBSVM indices run `1..=num_features`).
    pub num_features: usize,
    /// The raw labels, in ascending order; label `labels[i]` maps to class
    /// index `i`. (Constructors sort and dedup for you.)
    pub labels: Vec<i64>,
}

impl LibsvmSchema {
    /// Builds a schema from a feature count and any collection of raw
    /// labels (sorted and deduplicated internally).
    pub fn new(num_features: usize, labels: impl IntoIterator<Item = i64>) -> Self {
        let mut labels: Vec<i64> = labels.into_iter().collect();
        labels.sort_unstable();
        labels.dedup();
        Self { num_features, labels }
    }

    /// The number of classes the schema defines (at least 2, matching the
    /// multiclass objectives downstream).
    pub fn num_classes(&self) -> usize {
        self.labels.len().max(2)
    }

    /// The class index of a raw label, if it is part of the schema.
    pub fn class_of(&self, label: i64) -> Option<usize> {
        self.labels.binary_search(&label).ok()
    }
}

/// One parsed file before label remapping / matrix assembly.
struct RawFile {
    raw_labels: Vec<i64>,
    triplets: Vec<(usize, usize, f64)>,
    max_col: usize,
    /// 1-based source line of each sample (for schema error messages).
    lines: Vec<usize>,
}

fn parse_raw(reader: impl BufRead) -> Result<RawFile, LibsvmError> {
    let mut raw = RawFile {
        raw_labels: Vec::new(),
        triplets: Vec::new(),
        max_col: 0,
        lines: Vec::new(),
    };
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let row = raw.raw_labels.len();
        let mut parts = line.split_whitespace();
        let label_tok = parts.next().ok_or_else(|| LibsvmError::Parse {
            line: lineno + 1,
            message: "missing label".into(),
        })?;
        let label = parse_finite(label_tok, "label", lineno + 1)?.round() as i64;
        raw.raw_labels.push(label);
        raw.lines.push(lineno + 1);
        for tok in parts {
            let (idx, val) = tok.split_once(':').ok_or_else(|| LibsvmError::Parse {
                line: lineno + 1,
                message: format!("expected idx:value, got '{tok}'"),
            })?;
            let idx: usize = idx.parse().map_err(|e| LibsvmError::Parse {
                line: lineno + 1,
                message: format!("bad index '{idx}': {e}"),
            })?;
            if idx == 0 {
                return Err(LibsvmError::Parse {
                    line: lineno + 1,
                    message: "LIBSVM indices are 1-based".into(),
                });
            }
            let val = parse_finite(val, "value", lineno + 1)?;
            raw.max_col = raw.max_col.max(idx);
            raw.triplets.push((row, idx - 1, val));
        }
    }
    if raw.raw_labels.is_empty() {
        return Err(LibsvmError::Parse {
            line: 0,
            message: "empty input".into(),
        });
    }
    Ok(raw)
}

/// Parses token `tok` of line `line` as a finite number: NaN, the infinities
/// and overflows (`1e400`) are errors, as reports are bit-identical only on finite data.
fn parse_finite(tok: &str, what: &str, line: usize) -> Result<f64, LibsvmError> {
    let message = match tok.parse::<f64>() {
        Ok(v) if v.is_finite() => return Ok(v),
        Ok(v) => format!("bad {what} '{tok}': {v} is not finite"),
        Err(e) => format!("bad {what} '{tok}': {e}"),
    };
    Err(LibsvmError::Parse { line, message })
}

/// Assembles a parsed file into a [`Dataset`] under a schema.
fn assemble(raw: &RawFile, name: &str, schema: &LibsvmSchema) -> Result<Dataset, LibsvmError> {
    if raw.max_col > schema.num_features {
        let (row, _, _) = raw
            .triplets
            .iter()
            .find(|(_, col, _)| col + 1 == raw.max_col)
            .copied()
            .expect("max_col came from a triplet");
        return Err(LibsvmError::Schema {
            line: raw.lines[row],
            message: format!(
                "feature index {} exceeds the schema's num_features {}",
                raw.max_col, schema.num_features
            ),
        });
    }
    let mut labels = Vec::with_capacity(raw.raw_labels.len());
    for (row, &label) in raw.raw_labels.iter().enumerate() {
        match schema.class_of(label) {
            Some(class) => labels.push(class),
            None => {
                return Err(LibsvmError::Schema {
                    line: raw.lines[row],
                    message: format!("label {label} is not part of the schema's label set {:?}", schema.labels),
                })
            }
        }
    }
    let features = CsrMatrix::from_triplets(raw.raw_labels.len(), schema.num_features.max(1), &raw.triplets);
    Ok(Dataset::new(name, Matrix::Sparse(features), labels, schema.num_classes()))
}

/// The schema a file *implies*: `num_features` from the largest index seen,
/// labels from the distinct values encountered.
fn inferred_schema(raw: &RawFile) -> LibsvmSchema {
    LibsvmSchema::new(raw.max_col.max(1), raw.raw_labels.iter().copied())
}

/// Parses LIBSVM-formatted text into a sparse [`Dataset`], inferring the
/// schema from the file itself: `num_features` is the largest index seen and
/// labels are remapped to contiguous class indices `0..C` in sorted order of
/// the distinct labels encountered.
///
/// When parsing a train/test *pair*, prefer [`read_libsvm_pair`] (or
/// [`parse_libsvm_with_schema`] with an explicit schema): per-file inference
/// can make the two splits disagree dimensionally.
pub fn parse_libsvm(reader: impl BufRead, name: &str) -> Result<Dataset, LibsvmError> {
    let raw = parse_raw(reader)?;
    let schema = inferred_schema(&raw);
    assemble(&raw, name, &schema)
}

/// Parses LIBSVM-formatted text under an explicit [`LibsvmSchema`]. Feature
/// indices beyond `schema.num_features` and labels outside `schema.labels`
/// are loud [`LibsvmError::Schema`] errors instead of silently reshaping the
/// dataset.
pub fn parse_libsvm_with_schema(reader: impl BufRead, name: &str, schema: &LibsvmSchema) -> Result<Dataset, LibsvmError> {
    let raw = parse_raw(reader)?;
    assemble(&raw, name, schema)
}

/// Parses a `(train, test)` pair from readers under one shared schema, so
/// the two datasets agree on `num_features`, `num_classes`, and the label
/// mapping even when the test split misses the highest feature index or a
/// label class. The feature dimensionality is the *union* of both splits —
/// real sparse pairs (news20, rcv1, …) routinely carry test-only feature
/// indices, which are benign (the trained iterate simply has zero weight
/// there) — while the label map comes from the **train split alone**: a
/// test label the model was never trained on is a loud error.
pub fn parse_libsvm_pair(
    train: impl BufRead,
    train_name: &str,
    test: impl BufRead,
    test_name: &str,
) -> Result<(Dataset, Dataset), LibsvmError> {
    let raw_train = parse_raw(train)?;
    let raw_test = parse_raw(test)?;
    let schema = LibsvmSchema::new(
        raw_train.max_col.max(raw_test.max_col).max(1),
        raw_train.raw_labels.iter().copied(),
    );
    let train = assemble(&raw_train, train_name, &schema)?;
    let test = assemble(&raw_test, test_name, &schema)?;
    Ok((train, test))
}

fn stem_of(path: &Path) -> String {
    path.file_stem().and_then(|s| s.to_str()).unwrap_or("libsvm").to_string()
}

/// Reads and parses a LIBSVM file from disk (schema inferred from the file).
pub fn read_libsvm(path: impl AsRef<Path>) -> Result<Dataset, LibsvmError> {
    let file = std::fs::File::open(path.as_ref())?;
    parse_libsvm(std::io::BufReader::new(file), &stem_of(path.as_ref()))
}

/// Reads and parses a LIBSVM file from disk under an explicit schema.
pub fn read_libsvm_with_schema(path: impl AsRef<Path>, schema: &LibsvmSchema) -> Result<Dataset, LibsvmError> {
    let file = std::fs::File::open(path.as_ref())?;
    parse_libsvm_with_schema(std::io::BufReader::new(file), &stem_of(path.as_ref()), schema)
}

/// Reads a `(train, test)` pair from disk with the train split's schema
/// applied to both (see [`parse_libsvm_pair`]).
pub fn read_libsvm_pair(train_path: impl AsRef<Path>, test_path: impl AsRef<Path>) -> Result<(Dataset, Dataset), LibsvmError> {
    let train = std::fs::File::open(train_path.as_ref())?;
    let test = std::fs::File::open(test_path.as_ref())?;
    parse_libsvm_pair(
        std::io::BufReader::new(train),
        &stem_of(train_path.as_ref()),
        std::io::BufReader::new(test),
        &stem_of(test_path.as_ref()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_simple_multiclass_file() {
        let text = "1 1:0.5 3:1.0\n2 2:2.0\n3 1:-1.0 2:0.25 3:0.75\n";
        let d = parse_libsvm(Cursor::new(text), "toy").unwrap();
        assert_eq!(d.num_samples(), 3);
        assert_eq!(d.num_features(), 3);
        assert_eq!(d.num_classes(), 3);
        assert_eq!(d.labels(), &[0, 1, 2]);
        let dense = d.features().to_dense();
        assert_eq!(dense.get(0, 0), 0.5);
        assert_eq!(dense.get(0, 2), 1.0);
        assert_eq!(dense.get(1, 1), 2.0);
    }

    #[test]
    fn remaps_plus_minus_one_labels() {
        let text = "-1 1:1.0\n+1 1:2.0\n-1 2:0.5\n";
        let d = parse_libsvm(Cursor::new(text), "binary").unwrap();
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.labels(), &[0, 1, 0]);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# header\n\n1 1:1.0\n2 1:2.0\n";
        let d = parse_libsvm(Cursor::new(text), "c").unwrap();
        assert_eq!(d.num_samples(), 2);
    }

    #[test]
    fn rejects_zero_based_indices() {
        let text = "1 0:1.0\n";
        let err = parse_libsvm(Cursor::new(text), "bad").unwrap_err();
        assert!(matches!(err, LibsvmError::Parse { .. }));
        assert!(format!("{err}").contains("1-based"));
    }

    #[test]
    fn rejects_malformed_pairs_and_labels() {
        assert!(parse_libsvm(Cursor::new("abc 1:1.0\n"), "bad").is_err());
        assert!(parse_libsvm(Cursor::new("1 12\n"), "bad").is_err());
        assert!(parse_libsvm(Cursor::new("1 x:1.0\n"), "bad").is_err());
        assert!(parse_libsvm(Cursor::new("1 1:zz\n"), "bad").is_err());
        assert!(parse_libsvm(Cursor::new(""), "bad").is_err());
    }

    /// `text`, whose second line is bad, fails to parse with an error that
    /// names that line and `token`.
    fn assert_rejected_on_line_2(text: &str, token: &str) {
        let err = parse_libsvm(Cursor::new(text), "bad").unwrap_err();
        assert!(matches!(err, LibsvmError::Parse { line: 2, .. }), "{err}");
        assert!(format!("{err}").contains(&format!("'{token}'")), "{err}");
    }

    #[test]
    fn rejects_a_nan_value() {
        assert_rejected_on_line_2("1 1:0.5\n2 3:nan\n", "nan");
    }

    #[test]
    fn rejects_an_infinite_value() {
        assert_rejected_on_line_2("1 1:0.5\n2 7:inf\n", "inf");
    }

    #[test]
    fn rejects_a_value_that_overflows_to_infinity() {
        assert_rejected_on_line_2("1 1:0.5\n2 5:1e400\n", "1e400");
    }

    #[test]
    fn rejects_a_nan_label() {
        assert_rejected_on_line_2("1 1:0.5\nnan 1:1.0\n", "nan");
    }

    #[test]
    fn read_from_disk_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join("nadmm_libsvm_test.txt");
        std::fs::write(&path, "1 1:1.5\n2 2:2.5\n").unwrap();
        let d = read_libsvm(&path).unwrap();
        assert_eq!(d.num_samples(), 2);
        std::fs::remove_file(&path).ok();
        assert!(read_libsvm(dir.join("does_not_exist_nadmm.txt")).is_err());
    }

    #[test]
    fn schema_pins_dims_and_label_map() {
        let schema = LibsvmSchema::new(5, [3, 1, 3, 7]); // sorted+deduped to [1, 3, 7]
        assert_eq!(schema.labels, vec![1, 3, 7]);
        assert_eq!(schema.num_classes(), 3);
        assert_eq!(schema.class_of(3), Some(1));
        assert_eq!(schema.class_of(2), None);
        let d = parse_libsvm_with_schema(Cursor::new("7 2:1.0\n1 1:0.5\n"), "s", &schema).unwrap();
        assert_eq!(d.num_features(), 5, "schema dims beat the max index seen");
        assert_eq!(d.num_classes(), 3);
        assert_eq!(d.labels(), &[2, 0], "labels map through the schema, not file order");
    }

    #[test]
    fn schema_violations_are_loud() {
        let schema = LibsvmSchema::new(3, [1, 2]);
        let err = parse_libsvm_with_schema(Cursor::new("1 4:1.0\n"), "s", &schema).unwrap_err();
        assert!(matches!(err, LibsvmError::Schema { .. }));
        assert!(format!("{err}").contains("num_features 3"), "{err}");
        let err = parse_libsvm_with_schema(Cursor::new("1 1:1.0\n9 2:1.0\n"), "s", &schema).unwrap_err();
        assert!(format!("{err}").contains("label 9"), "{err}");
        assert!(format!("{err}").contains("line 2"), "{err}");
    }

    /// The regression this module exists for: a test split missing the
    /// highest feature index *and* a label class used to come out with
    /// different `num_features`/`num_classes`/label mapping than its train
    /// split. Under `parse_libsvm_pair` the pair must agree exactly.
    #[test]
    fn paired_parsing_keeps_test_split_dimensionally_consistent_with_train() {
        let train_text = "1 1:0.5 4:1.0\n2 2:2.0\n3 3:0.25\n"; // features 1..=4, labels {1,2,3}
        let test_text = "3 1:1.0\n3 2:0.5\n"; // misses feature 4 and labels 1, 2
                                              // Per-file inference disagrees — the historic bug:
        let lone_test = parse_libsvm(Cursor::new(test_text), "test").unwrap();
        assert_eq!(lone_test.num_features(), 2, "inference sees only 2 features");
        assert_eq!(lone_test.labels(), &[0, 0], "inference remaps label 3 to class 0");
        // The paired parse agrees with the train split:
        let (train, test) = parse_libsvm_pair(Cursor::new(train_text), "train", Cursor::new(test_text), "test").unwrap();
        assert_eq!(train.num_features(), 4);
        assert_eq!(test.num_features(), 4);
        assert_eq!(train.num_classes(), 3);
        assert_eq!(test.num_classes(), 3);
        assert_eq!(test.labels(), &[2, 2], "label 3 keeps the train split's class index");
    }

    #[test]
    fn paired_parsing_widens_dims_to_the_union_but_rejects_unseen_labels() {
        let train_text = "1 1:0.5\n2 2:2.0\n";
        // Test-only feature indices are benign: both splits widen to the
        // union dimensionality (the trained iterate has zero weight there).
        let (train, test) = parse_libsvm_pair(Cursor::new(train_text), "tr", Cursor::new("1 5:1.0\n"), "te").unwrap();
        assert_eq!(train.num_features(), 5);
        assert_eq!(test.num_features(), 5);
        // A test label the model was never trained on is a loud error.
        let err = parse_libsvm_pair(Cursor::new(train_text), "tr", Cursor::new("4 1:1.0\n"), "te").unwrap_err();
        assert!(format!("{err}").contains("label 4"), "{err}");
    }

    #[test]
    fn read_pair_from_disk() {
        let dir = std::env::temp_dir();
        let train_path = dir.join("nadmm_libsvm_pair_train.txt");
        let test_path = dir.join("nadmm_libsvm_pair_test.txt");
        std::fs::write(&train_path, "1 1:1.0 3:0.5\n2 2:1.0\n").unwrap();
        std::fs::write(&test_path, "1 1:2.0\n").unwrap();
        let (train, test) = read_libsvm_pair(&train_path, &test_path).unwrap();
        assert_eq!(train.num_features(), 3);
        assert_eq!(test.num_features(), 3);
        std::fs::remove_file(&train_path).ok();
        std::fs::remove_file(&test_path).ok();
    }
}
