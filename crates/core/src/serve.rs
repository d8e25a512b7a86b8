//! Freezing design-time models into the graph-free serving runtime
//! ([`ptnc_infer`]).
//!
//! The inference crate is deliberately independent of the tensor stack, so
//! this module owns the conversion in both directions: a live
//! [`PrintedModel`] or an on-disk [`ModelSnapshot`] compiles into an
//! [`InferModel`], and a design-time [`VariationConfig`] maps onto the
//! runtime's [`VariationDistribution`]. The frozen model matches the
//! autograd forward pass within 1e-9 (see the `infer_parity` integration
//! tests).
//!
//! The one entry point is [`ServeModel`]: a builder that compiles from a
//! live model, a decoded snapshot, snapshot JSON, or a snapshot file, and
//! reports every failure through a single [`ServeError`].

use std::path::Path;

use ptnc_infer::{BuildError, InferModel, InferSpec, Precision, VariationDistribution};
use ptnc_nn::FrozenParams;

use crate::models::PrintedModel;
use crate::pdk::LOGIT_SCALE;
use crate::persist::{ModelSnapshot, PersistError, RestoreError, SNAPSHOT_FORMAT_VERSION};
use crate::variation::VariationConfig;

impl From<&VariationConfig> for VariationDistribution {
    fn from(cfg: &VariationConfig) -> Self {
        VariationDistribution {
            delta: cfg.delta,
            mu_lo: cfg.mu_lo,
            mu_hi: cfg.mu_hi,
            v0_amp: cfg.v0_amp,
        }
    }
}

/// Everything that can go wrong turning a design-time artifact into a
/// servable model, unified: compiling a live model ([`BuildError`]),
/// decoding/validating a snapshot ([`RestoreError`], [`PersistError`]),
/// and reading a snapshot file from disk.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The parameter list is inconsistent with the declared architecture.
    Build(BuildError),
    /// The snapshot is inconsistent with its own declared architecture, or
    /// declares an unsupported format version.
    Restore(RestoreError),
    /// The snapshot JSON itself is malformed.
    Persist(PersistError),
    /// The snapshot file could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// An empty step sequence was given to [`ServeModel::flatten_steps`].
    EmptySteps,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Build(e) => write!(f, "cannot compile model: {e}"),
            ServeError::Restore(e) => write!(f, "invalid snapshot: {e}"),
            ServeError::Persist(e) => write!(f, "{e}"),
            ServeError::Io { path, source } => write!(f, "cannot read {path}: {source}"),
            ServeError::EmptySteps => write!(f, "empty input sequence"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Build(e) => Some(e),
            ServeError::Restore(e) => Some(e),
            ServeError::Persist(e) => Some(e),
            ServeError::Io { source, .. } => Some(source),
            ServeError::EmptySteps => None,
        }
    }
}

impl From<BuildError> for ServeError {
    fn from(e: BuildError) -> Self {
        ServeError::Build(e)
    }
}

impl From<RestoreError> for ServeError {
    fn from(e: RestoreError) -> Self {
        ServeError::Restore(e)
    }
}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> Self {
        // A snapshot that decoded but failed validation is a restore
        // problem; keep the variant flat so callers match one place.
        match e {
            PersistError::Restore(r) => ServeError::Restore(r),
            other => ServeError::Persist(other),
        }
    }
}

/// Optional overrides for quantities a snapshot does not record.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeModelBuilder {
    dt: Option<f64>,
    logit_scale: Option<f64>,
    precision: Option<Precision>,
}

impl ServeModelBuilder {
    /// Overrides the filter discretization Δt (defaults to the paper PDK's
    /// Δt for snapshots, the live model's own Δt otherwise).
    #[must_use]
    pub fn dt(mut self, dt: f64) -> Self {
        self.dt = Some(dt);
        self
    }

    /// Overrides the sense-stage logit scale (defaults to the PDK's).
    #[must_use]
    pub fn logit_scale(mut self, scale: f64) -> Self {
        self.logit_scale = Some(scale);
        self
    }

    /// Compiles the engine's kernels at the given [`Precision`]. When not
    /// set, snapshots follow their own `precision` hint and everything
    /// else defaults to the reference `f64`.
    #[must_use]
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = Some(precision);
        self
    }

    /// Compiles a live design-time model.
    ///
    /// # Errors
    ///
    /// [`ServeError::Build`] if the model carries non-finite parameters (a
    /// structurally valid live model always has consistent shapes).
    pub fn from_live(self, model: &PrintedModel) -> Result<ServeModel, ServeError> {
        let mut spec = ServeModel::spec_of(model);
        if let Some(dt) = self.dt {
            spec.dt = dt;
        }
        if let Some(scale) = self.logit_scale {
            spec.logit_scale = scale;
        }
        let frozen = FrozenParams::capture(&model.parameters());
        let engine = InferModel::build_with_precision(
            spec,
            frozen.values(),
            self.precision.unwrap_or_default(),
        )?;
        Ok(ServeModel { spec, engine })
    }

    /// Compiles a decoded on-disk snapshot directly, without building a
    /// design-time scaffold model first. Uses the default PDK's Δt unless
    /// overridden (snapshots do not record it), matching
    /// [`crate::persist::restore`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Restore`] when the snapshot declares an unsupported
    /// format, is inconsistent with its own architecture, or carries a
    /// `precision` hint that cannot be parsed or executed
    /// ([`RestoreError::BadPrecision`]).
    pub fn from_snapshot(self, snap: &ModelSnapshot) -> Result<ServeModel, ServeError> {
        if snap.format_version != SNAPSHOT_FORMAT_VERSION {
            return Err(RestoreError::UnsupportedVersion(snap.format_version).into());
        }
        if !(1..=3).contains(&snap.filter_stages) {
            return Err(RestoreError::BadFilterOrder(snap.filter_stages).into());
        }
        // An explicit builder override beats the snapshot's own hint.
        let precision = match (self.precision, &snap.precision) {
            (Some(p), _) => p,
            (None, Some(hint)) => hint
                .parse::<Precision>()
                .map_err(|_| RestoreError::BadPrecision(hint.clone()))?,
            (None, None) => Precision::F64,
        };
        let spec = InferSpec {
            input_dim: snap.input_dim,
            hidden: snap.hidden,
            classes: snap.classes,
            stages: snap.filter_stages,
            mu_nominal: snap.mu_nominal,
            dt: self.dt.unwrap_or(crate::pdk::Pdk::paper_default().dt),
            logit_scale: self.logit_scale.unwrap_or(LOGIT_SCALE),
        };
        let engine = InferModel::build_with_precision(spec, &snap.parameters, precision).map_err(
            |e| match e {
                BuildError::BadStageCount(n) => RestoreError::BadFilterOrder(n),
                BuildError::BadQFormat { .. } | BuildError::QFormatOverflow { .. } => {
                    RestoreError::BadPrecision(precision.name())
                }
                BuildError::ParameterCountMismatch { expected, found } => {
                    RestoreError::ParameterCountMismatch { expected, found }
                }
                BuildError::ParameterShapeMismatch {
                    index,
                    expected,
                    found,
                } => RestoreError::ParameterShapeMismatch {
                    index,
                    expected,
                    found,
                },
                BuildError::NonFiniteParameter { index } => {
                    RestoreError::NonFiniteParameter { index }
                }
                // ZeroDimension and future variants: a zero-sized snapshot
                // cannot match any parameter count, so surface it as a count
                // mismatch.
                _ => RestoreError::ParameterCountMismatch {
                    expected: 0,
                    found: snap.parameters.len(),
                },
            },
        )?;
        Ok(ServeModel { spec, engine })
    }

    /// Decodes snapshot JSON and compiles it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] for malformed JSON, otherwise the errors of
    /// [`ServeModelBuilder::from_snapshot`].
    pub fn from_json(self, json: &str) -> Result<ServeModel, ServeError> {
        let snap: ModelSnapshot =
            serde_json::from_str(json).map_err(|e| PersistError::Json(e.to_string()))?;
        self.from_snapshot(&snap)
    }

    /// Reads a snapshot file, decodes and compiles it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for read failures, otherwise the errors of
    /// [`ServeModelBuilder::from_json`].
    pub fn from_file(self, path: &Path) -> Result<ServeModel, ServeError> {
        let json = std::fs::read_to_string(path).map_err(|source| ServeError::Io {
            path: path.display().to_string(),
            source,
        })?;
        self.from_json(&json)
    }
}

/// A design-time model compiled for the serving runtime: the graph-free
/// engine plus the [`InferSpec`] it was compiled at. Build one with
/// [`ServeModel::builder`] (or the `from_*` shortcuts), then hand the
/// engine to batched/streaming/perturbed inference or a serving layer.
#[derive(Debug, Clone)]
pub struct ServeModel {
    spec: InferSpec,
    engine: InferModel,
}

impl ServeModel {
    /// Starts a builder (for Δt / logit-scale overrides).
    pub fn builder() -> ServeModelBuilder {
        ServeModelBuilder::default()
    }

    /// Compiles a live model at default settings.
    ///
    /// # Errors
    ///
    /// See [`ServeModelBuilder::from_live`].
    pub fn from_live(model: &PrintedModel) -> Result<Self, ServeError> {
        Self::builder().from_live(model)
    }

    /// Compiles a decoded snapshot at default settings.
    ///
    /// # Errors
    ///
    /// See [`ServeModelBuilder::from_snapshot`].
    pub fn from_snapshot(snap: &ModelSnapshot) -> Result<Self, ServeError> {
        Self::builder().from_snapshot(snap)
    }

    /// Decodes and compiles snapshot JSON at default settings.
    ///
    /// # Errors
    ///
    /// See [`ServeModelBuilder::from_json`].
    pub fn from_json(json: &str) -> Result<Self, ServeError> {
        Self::builder().from_json(json)
    }

    /// Reads, decodes and compiles a snapshot file at default settings.
    ///
    /// # Errors
    ///
    /// See [`ServeModelBuilder::from_file`].
    pub fn from_file(path: &Path) -> Result<Self, ServeError> {
        Self::builder().from_file(path)
    }

    /// The spec the engine was compiled at.
    pub fn spec(&self) -> &InferSpec {
        &self.spec
    }

    /// The precision the engine's kernels were compiled at.
    pub fn precision(&self) -> Precision {
        self.engine.precision()
    }

    /// The compiled inference engine.
    pub fn engine(&self) -> &InferModel {
        &self.engine
    }

    /// Unwraps into the compiled engine (plain data, `Send + Sync`).
    pub fn into_engine(self) -> InferModel {
        self.engine
    }

    /// Unwraps into a shared handle on the compiled engine — the form the
    /// serving tier's registry swaps and long-lived stream sessions
    /// ([`ptnc_infer::StreamSession`]) pin across hot reloads.
    pub fn into_shared_engine(self) -> std::sync::Arc<InferModel> {
        std::sync::Arc::new(self.engine)
    }

    /// The inference-runtime spec describing `model`'s architecture, at
    /// default (non-overridden) Δt and logit scale.
    pub fn spec_of(model: &PrintedModel) -> InferSpec {
        InferSpec {
            input_dim: model.input_dim(),
            hidden: model.hidden(),
            classes: model.num_classes(),
            stages: model.order().stages(),
            mu_nominal: model.mu_nominal(),
            dt: model.layers()[0].filters().dt(),
            logit_scale: LOGIT_SCALE,
        }
    }

    /// Flattens a time-major tensor sequence (each step `[batch, dim]`)
    /// into the contiguous layout [`InferModel::run_batch`] consumes.
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptySteps`] if `steps` is empty.
    pub fn flatten_steps(steps: &[ptnc_tensor::Tensor]) -> Result<Vec<f64>, ServeError> {
        if steps.is_empty() {
            return Err(ServeError::EmptySteps);
        }
        let mut flat = Vec::with_capacity(steps.len() * steps[0].len());
        for s in steps {
            flat.extend_from_slice(&s.to_vec());
        }
        Ok(flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::snapshot;
    use ptnc_tensor::{init, Tensor};

    fn model() -> PrintedModel {
        PrintedModel::adapt_pnc(2, 4, 3, &mut init::rng(11))
    }

    fn steps() -> Vec<Tensor> {
        (0..10)
            .map(|k| Tensor::full(&[3, 2], (k as f64 * 0.5).sin()))
            .collect()
    }

    #[test]
    fn from_live_matches_autograd_forward() {
        let m = model();
        let served = ServeModel::from_live(&m).unwrap();
        let expected = m.forward_nominal(&steps()).to_vec();
        let flat = ServeModel::flatten_steps(&steps()).unwrap();
        let got = served.engine().run_batch(&flat, 3).unwrap();
        for (a, b) in expected.iter().zip(&got) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn from_snapshot_matches_from_live() {
        let m = model();
        let direct = ServeModel::from_live(&m).unwrap();
        let compiled = ServeModel::from_snapshot(&snapshot(&m)).unwrap();
        assert_eq!(direct.spec(), compiled.spec());
        let flat = ServeModel::flatten_steps(&steps()).unwrap();
        assert_eq!(
            direct.engine().run_batch(&flat, 3).unwrap(),
            compiled.engine().run_batch(&flat, 3).unwrap()
        );
    }

    #[test]
    fn from_json_and_from_file_round_trip() {
        let m = model();
        let json = crate::persist::to_json(&m);
        let via_json = ServeModel::from_json(&json).unwrap();
        let dir = std::env::temp_dir().join(format!("ptnc-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        crate::persist::write_atomic(&path, json.as_bytes()).unwrap();
        let via_file = ServeModel::from_file(&path).unwrap();
        let flat = ServeModel::flatten_steps(&steps()).unwrap();
        assert_eq!(
            via_json.engine().run_batch(&flat, 3).unwrap(),
            via_file.engine().run_batch(&flat, 3).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn builder_overrides_take_effect() {
        let m = model();
        let default = ServeModel::from_live(&m).unwrap();
        let scaled = ServeModel::builder()
            .logit_scale(2.0 * default.spec().logit_scale)
            .from_live(&m)
            .unwrap();
        let flat = ServeModel::flatten_steps(&steps()).unwrap();
        let a = default.engine().run_batch(&flat, 3).unwrap();
        let b = scaled.engine().run_batch(&flat, 3).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((y - 2.0 * x).abs() < 1e-12);
        }
        let snap = snapshot(&m);
        let dt = ServeModel::builder().dt(0.5).from_snapshot(&snap).unwrap();
        assert_eq!(dt.spec().dt, 0.5);
    }

    #[test]
    fn snapshot_precision_hint_selects_backend() {
        let m = model();
        let mut snap = snapshot(&m);
        // No hint → reference f64.
        let default = ServeModel::from_snapshot(&snap).unwrap();
        assert_eq!(default.precision(), Precision::F64);
        // Hint selects the quantized backend and its logits stay close to
        // the reference.
        snap.precision = Some("f32".into());
        let quantized = ServeModel::from_snapshot(&snap).unwrap();
        assert_eq!(quantized.precision(), Precision::F32);
        let flat = ServeModel::flatten_steps(&steps()).unwrap();
        let a = default.engine().run_batch(&flat, 3).unwrap();
        let b = quantized.engine().run_batch(&flat, 3).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
        // Builder override beats the snapshot hint.
        let overridden = ServeModel::builder()
            .precision(Precision::F64)
            .from_snapshot(&snap)
            .unwrap();
        assert_eq!(overridden.precision(), Precision::F64);
        assert_eq!(a, overridden.engine().run_batch(&flat, 3).unwrap());
        // From-live compiles quantized too.
        let live = ServeModel::builder()
            .precision("i32q24".parse().unwrap())
            .from_live(&m)
            .unwrap();
        assert_eq!(live.precision().name(), "i32q24");
    }

    #[test]
    fn bad_precision_hint_is_a_restore_error() {
        let mut snap = snapshot(&model());
        snap.precision = Some("f16".into());
        let err = ServeModel::from_snapshot(&snap).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Restore(RestoreError::BadPrecision(_))
        ));
        assert!(err.to_string().contains("f16"));
    }

    #[test]
    fn bad_version_is_a_restore_error() {
        let mut snap = snapshot(&model());
        snap.format_version = 7;
        assert!(matches!(
            ServeModel::from_snapshot(&snap),
            Err(ServeError::Restore(RestoreError::UnsupportedVersion(7)))
        ));
    }

    #[test]
    fn non_finite_is_a_restore_error() {
        let mut snap = snapshot(&model());
        snap.parameters[2][0] = f64::INFINITY;
        assert!(matches!(
            ServeModel::from_snapshot(&snap),
            Err(ServeError::Restore(RestoreError::NonFiniteParameter {
                index: 2
            }))
        ));
    }

    #[test]
    fn malformed_json_is_a_persist_error() {
        let err = ServeModel::from_json("{not json").unwrap_err();
        assert!(matches!(err, ServeError::Persist(PersistError::Json(_))));
        assert!(err.to_string().contains("malformed"));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = ServeModel::from_file(Path::new("/nonexistent-ptnc/m.json")).unwrap_err();
        assert!(matches!(err, ServeError::Io { .. }));
        use std::error::Error;
        assert!(err.source().is_some());
    }

    #[test]
    fn empty_steps_is_a_typed_error() {
        assert!(matches!(
            ServeModel::flatten_steps(&[]),
            Err(ServeError::EmptySteps)
        ));
    }

    #[test]
    fn error_conversions_unify() {
        let e: ServeError = BuildError::ZeroDimension.into();
        assert!(matches!(e, ServeError::Build(_)));
        let e: ServeError = RestoreError::UnsupportedVersion(9).into();
        assert!(matches!(e, ServeError::Restore(_)));
        // PersistError::Restore flattens to the Restore variant.
        let e: ServeError = PersistError::Restore(RestoreError::BadFilterOrder(9)).into();
        assert!(matches!(
            e,
            ServeError::Restore(RestoreError::BadFilterOrder(9))
        ));
        let e: ServeError = PersistError::Json("bad".into()).into();
        assert!(matches!(e, ServeError::Persist(_)));
    }

    #[test]
    fn distribution_conversion_copies_fields() {
        let cfg = VariationConfig::paper_default();
        let dist = VariationDistribution::from(&cfg);
        assert_eq!(dist.delta, cfg.delta);
        assert_eq!(dist.mu_lo, cfg.mu_lo);
        assert_eq!(dist.mu_hi, cfg.mu_hi);
        assert_eq!(dist.v0_amp, cfg.v0_amp);
    }
}
