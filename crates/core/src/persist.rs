//! Persistence of trained printed models: serialize every component value
//! (conductances, filter R/C, activation η) to JSON and restore it into a
//! freshly built model — the "design file" a printing service would consume.

use serde::{Deserialize, Serialize};

use crate::models::{FilterOrder, PrintedModel};
use crate::pdk::Pdk;

/// The snapshot format version this build writes and understands.
///
/// Bump when the on-disk layout changes incompatibly; [`restore`] rejects
/// snapshots from a newer format instead of misinterpreting them.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

fn default_format_version() -> u32 {
    // Snapshots written before the field existed are format 1.
    SNAPSHOT_FORMAT_VERSION
}

/// A serializable snapshot of a trained printed model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSnapshot {
    /// On-disk format version (see [`SNAPSHOT_FORMAT_VERSION`]).
    #[serde(default = "default_format_version")]
    pub format_version: u32,
    /// Input feature count.
    pub input_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Class count.
    pub classes: usize,
    /// Filter stages per filter (1, 2 or 3).
    pub filter_stages: usize,
    /// Nominal coupling factor μ the filters were designed at.
    pub mu_nominal: f64,
    /// Optional serving-precision hint: the canonical name of the kernel
    /// precision to compile the snapshot at (`"f64"`, `"f32"`,
    /// `"i32q24"`, …). Absent or `null` — including every snapshot written
    /// before the field existed — means the reference `f64`, so parity and
    /// bitwise guarantees of default deployments are untouched.
    #[serde(default)]
    pub precision: Option<String>,
    /// Every parameter tensor's data, in [`PrintedModel::parameters`] order.
    pub parameters: Vec<Vec<f64>>,
}

/// Errors when restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RestoreError {
    /// The snapshot declares a format this build does not understand.
    UnsupportedVersion(u32),
    /// The stored filter stage count is not 1, 2 or 3.
    BadFilterOrder(usize),
    /// Parameter list length differs from the rebuilt architecture.
    ParameterCountMismatch {
        /// Parameters expected by the architecture.
        expected: usize,
        /// Parameters found in the snapshot.
        found: usize,
    },
    /// One parameter tensor has the wrong number of elements.
    ParameterShapeMismatch {
        /// Index in the parameter list.
        index: usize,
        /// Elements expected.
        expected: usize,
        /// Elements found.
        found: usize,
    },
    /// One parameter tensor contains a NaN or infinity (reported when
    /// compiling a snapshot for inference, which demands finite weights).
    NonFiniteParameter {
        /// Index in the parameter list.
        index: usize,
    },
    /// The snapshot's `precision` hint is not a known precision name, or
    /// names a fixed-point format this architecture cannot execute.
    BadPrecision(String),
    /// A filter stage that does not decay at the snapshot's `mu_nominal`
    /// and stage R/C values (reported when compiling a snapshot for
    /// inference).
    UnstableFilter {
        /// Layer index (0 = hidden).
        layer: usize,
        /// Stage index within the filter.
        stage: usize,
        /// Filter index within the layer.
        filter: usize,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::UnsupportedVersion(v) => write!(
                f,
                "snapshot format version {v} is not supported \
                 (this build reads version {SNAPSHOT_FORMAT_VERSION})"
            ),
            RestoreError::BadFilterOrder(n) => write!(f, "unsupported filter stage count {n}"),
            RestoreError::ParameterCountMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot has {found} parameter tensors, architecture needs {expected}"
                )
            }
            RestoreError::ParameterShapeMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "parameter {index} has {found} elements, architecture needs {expected}"
            ),
            RestoreError::NonFiniteParameter { index } => {
                write!(f, "parameter {index} contains a non-finite value")
            }
            RestoreError::BadPrecision(hint) => {
                write!(f, "unusable precision hint {hint:?}")
            }
            RestoreError::UnstableFilter {
                layer,
                stage,
                filter,
            } => write!(
                f,
                "filter {filter} of layer {layer} does not decay at stage {stage}"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Errors when loading a model from its serialized form: either the JSON
/// itself is malformed, or the decoded snapshot is inconsistent with the
/// architecture it declares.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PersistError {
    /// The payload is not valid snapshot JSON.
    Json(String),
    /// The snapshot decoded but could not be restored.
    Restore(RestoreError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Json(msg) => write!(f, "malformed snapshot JSON: {msg}"),
            PersistError::Restore(e) => write!(f, "invalid snapshot: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Json(_) => None,
            PersistError::Restore(e) => Some(e),
        }
    }
}

impl From<RestoreError> for PersistError {
    fn from(e: RestoreError) -> Self {
        PersistError::Restore(e)
    }
}

/// Captures a model's architecture and every component value.
pub fn snapshot(model: &PrintedModel) -> ModelSnapshot {
    ModelSnapshot {
        format_version: SNAPSHOT_FORMAT_VERSION,
        input_dim: model.input_dim(),
        hidden: model.hidden(),
        classes: model.num_classes(),
        filter_stages: model.order().stages(),
        mu_nominal: model.mu_nominal(),
        precision: None,
        parameters: model.parameters().iter().map(|p| p.to_vec()).collect(),
    }
}

/// Rebuilds a model from a snapshot (stored μ, default PDK).
///
/// # Errors
///
/// Returns [`RestoreError`] when the snapshot is inconsistent with the
/// architecture it declares.
pub fn restore(snap: &ModelSnapshot) -> Result<PrintedModel, RestoreError> {
    if snap.format_version != SNAPSHOT_FORMAT_VERSION {
        return Err(RestoreError::UnsupportedVersion(snap.format_version));
    }
    let order = match snap.filter_stages {
        1 => FilterOrder::First,
        2 => FilterOrder::Second,
        3 => FilterOrder::Third,
        n => return Err(RestoreError::BadFilterOrder(n)),
    };
    // Deterministic scaffold; every value is overwritten below.
    let mut rng = ptnc_tensor::init::rng(0);
    let model = PrintedModel::with_mu(
        snap.input_dim,
        snap.hidden,
        snap.classes,
        order,
        &Pdk::paper_default(),
        snap.mu_nominal,
        &mut rng,
    );
    let params = model.parameters();
    if params.len() != snap.parameters.len() {
        return Err(RestoreError::ParameterCountMismatch {
            expected: params.len(),
            found: snap.parameters.len(),
        });
    }
    for (index, (p, data)) in params.iter().zip(&snap.parameters).enumerate() {
        if p.len() != data.len() {
            return Err(RestoreError::ParameterShapeMismatch {
                index,
                expected: p.len(),
                found: data.len(),
            });
        }
        p.set_data(data.clone());
    }
    Ok(model)
}

/// Serializes a model to a JSON string.
///
/// # Panics
///
/// Panics only if JSON serialization of plain floats fails (it cannot).
pub fn to_json(model: &PrintedModel) -> String {
    serde_json::to_string_pretty(&snapshot(model)).expect("plain data serializes")
}

/// Restores a model from [`to_json`] output.
///
/// # Errors
///
/// Returns [`PersistError::Json`] for malformed JSON, or wraps the
/// [`RestoreError`] for snapshots inconsistent with their declared
/// architecture.
pub fn from_json(json: &str) -> Result<PrintedModel, PersistError> {
    let snap: ModelSnapshot =
        serde_json::from_str(json).map_err(|e| PersistError::Json(e.to_string()))?;
    restore(&snap).map_err(PersistError::from)
}

/// Writes `bytes` to `path` atomically: the data lands in a temporary
/// sibling first, is fsynced, and only then renamed over the target — a
/// crash mid-write leaves either the old file or the new one, never a
/// truncated design file.
///
/// # Errors
///
/// Propagates I/O errors; the temporary file is removed on failure.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let write = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return write;
    }
    // Persist the rename itself; not all filesystems support fsync on a
    // directory handle, so failures here are non-fatal.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Serializes a model with [`to_json`] and writes it atomically (see
/// [`write_atomic`]) — the way bench binaries persist trained models.
///
/// # Errors
///
/// Propagates I/O errors from [`write_atomic`].
pub fn save_json_atomic(model: &PrintedModel, path: &std::path::Path) -> std::io::Result<()> {
    write_atomic(path, to_json(model).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptnc_tensor::{init, Tensor};

    fn model() -> PrintedModel {
        PrintedModel::adapt_pnc(2, 5, 3, &mut init::rng(7))
    }

    fn steps() -> Vec<Tensor> {
        (0..12)
            .map(|k| Tensor::full(&[3, 2], (k as f64 * 0.4).sin()))
            .collect()
    }

    #[test]
    fn snapshot_round_trip_preserves_behavior() {
        let m = model();
        let restored = restore(&snapshot(&m)).unwrap();
        let a = m.forward_nominal(&steps()).to_vec();
        let b = restored.forward_nominal(&steps()).to_vec();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn json_round_trip() {
        let m = model();
        let json = to_json(&m);
        assert!(json.contains("\"hidden\": 5"));
        let restored = from_json(&json).unwrap();
        let a = m.forward_nominal(&steps()).to_vec();
        let b = restored.forward_nominal(&steps()).to_vec();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn bad_filter_order_rejected() {
        let mut snap = snapshot(&model());
        snap.filter_stages = 9;
        assert!(matches!(
            restore(&snap),
            Err(RestoreError::BadFilterOrder(9))
        ));
    }

    #[test]
    fn parameter_count_mismatch_rejected() {
        let mut snap = snapshot(&model());
        snap.parameters.pop();
        assert!(matches!(
            restore(&snap),
            Err(RestoreError::ParameterCountMismatch { .. })
        ));
    }

    #[test]
    fn parameter_shape_mismatch_rejected() {
        let mut snap = snapshot(&model());
        snap.parameters[0].push(0.0);
        let err = restore(&snap).unwrap_err();
        assert!(matches!(
            err,
            RestoreError::ParameterShapeMismatch { index: 0, .. }
        ));
        assert!(err.to_string().contains("parameter 0"));
    }

    #[test]
    fn malformed_json_reports_error() {
        assert!(from_json("{not json").is_err());
        assert!(matches!(
            from_json("{not json").unwrap_err(),
            PersistError::Json(_)
        ));
    }

    #[test]
    fn inconsistent_snapshot_wraps_restore_error() {
        use std::error::Error;
        let mut snap = snapshot(&model());
        snap.filter_stages = 9;
        let json = serde_json::to_string(&snap).unwrap();
        let err = from_json(&json).unwrap_err();
        assert!(matches!(
            err,
            PersistError::Restore(RestoreError::BadFilterOrder(9))
        ));
        // The underlying restore failure stays reachable via source().
        assert!(err.source().unwrap().to_string().contains("stage count 9"));
    }

    #[test]
    fn atomic_save_round_trips_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("ptnc-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let m = model();
        save_json_atomic(&m, &path).unwrap();
        assert!(!dir.join("model.json.tmp").exists());
        let restored = from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let a = m.forward_nominal(&steps()).to_vec();
        let b = restored.forward_nominal(&steps()).to_vec();
        assert_eq!(a, b);
        // Overwriting an existing file is also atomic and lands cleanly.
        save_json_atomic(&m, &path).unwrap();
        assert!(from_json(&std::fs::read_to_string(&path).unwrap()).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_into_missing_directory_fails_cleanly() {
        let path = std::path::Path::new("/nonexistent-ptnc-dir/model.json");
        assert!(write_atomic(path, b"{}").is_err());
    }

    #[test]
    fn snapshot_declares_current_format_version() {
        let snap = snapshot(&model());
        assert_eq!(snap.format_version, SNAPSHOT_FORMAT_VERSION);
        assert!(to_json(&model()).contains("\"format_version\": 1"));
    }

    #[test]
    fn unknown_format_version_rejected() {
        let mut snap = snapshot(&model());
        snap.format_version = 99;
        let err = restore(&snap).unwrap_err();
        assert!(matches!(err, RestoreError::UnsupportedVersion(99)));
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn precision_hint_round_trips_and_defaults_to_none() {
        let mut snap = snapshot(&model());
        assert_eq!(snap.precision, None);
        // A fresh snapshot serializes a null hint, and legacy JSON with no
        // `precision` key at all decodes to None as well.
        let json = serde_json::to_string(&snap).unwrap();
        let back: ModelSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.precision, None);
        let stripped: String = to_json(&model())
            .lines()
            .filter(|l| !l.contains("precision"))
            .collect::<Vec<_>>()
            .join("\n");
        let legacy: ModelSnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(legacy.precision, None);
        // An explicit hint survives the round trip.
        snap.precision = Some("i32q24".into());
        let json = serde_json::to_string(&snap).unwrap();
        let back: ModelSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.precision.as_deref(), Some("i32q24"));
        assert!(restore(&back).is_ok(), "hint must not affect restore");
    }

    #[test]
    fn legacy_json_without_version_defaults_to_one() {
        // Snapshots written before the field existed must keep loading.
        let json = to_json(&model());
        let stripped: String = json
            .lines()
            .filter(|l| !l.contains("format_version"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!stripped.contains("format_version"));
        let snap: ModelSnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(snap.format_version, 1);
        assert!(restore(&snap).is_ok());
    }

    #[test]
    fn json_round_trip_is_bit_identical_across_orders() {
        for (seed, order) in [
            (1u64, FilterOrder::First),
            (2, FilterOrder::Second),
            (3, FilterOrder::Third),
        ] {
            let m = PrintedModel::new(2, 4, 3, order, &Pdk::paper_default(), &mut init::rng(seed));
            let snap = snapshot(&m);
            // The design file must never carry non-finite component values.
            for p in &snap.parameters {
                assert!(
                    p.iter().all(|v| v.is_finite()),
                    "{order:?} snapshot has NaN"
                );
            }
            let json = serde_json::to_string(&snap).unwrap();
            let back: ModelSnapshot = serde_json::from_str(&json).unwrap();
            // Bit-identical parameters: JSON floats print shortest-round-trip.
            assert_eq!(back, snap, "{order:?} snapshot changed across JSON");
            let restored = restore(&back).unwrap();
            let direct: Vec<Vec<f64>> = m.parameters().iter().map(|p| p.to_vec()).collect();
            let loaded: Vec<Vec<f64>> = restored.parameters().iter().map(|p| p.to_vec()).collect();
            assert_eq!(
                direct, loaded,
                "{order:?} parameters changed across restore"
            );
        }
    }
}
