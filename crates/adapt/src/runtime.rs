//! The closed loop: detect → refit → redeploy.
//!
//! [`AdaptController`] owns one [`DriftDetector`] per stream and one
//! shared [`ReplayBuffer`]. Serving code feeds it per-stream statistics
//! (resident state RMS, guard fault fractions) and labeled traffic
//! windows; when any detector trips and enough replay has accumulated,
//! [`AdaptController::adapt`] re-reads the live snapshot from the
//! [`ModelRegistry`]'s path, refits only the filter betas against the
//! replay ([`refit_filters`]), and publishes the result atomically through
//! [`ModelRegistry::redeploy_json`] — in-flight traffic sees the complete
//! old model or the complete new one, never a torn mix, and resident
//! sessions honor their `PinOld`/`ResetOnReload` policies at their next
//! chunk exactly as for any other hot reload.
//!
//! Every refit round draws its minibatch seed as
//! `mix4(controller seed, _, round, _)`, so the whole loop is a pure
//! function of `(seed, observation sequence, replay sequence)` — the
//! wall clock only enters through the optional refit budget.

use std::path::Path;

use adapt_pnc::persist::{self, PersistError};
use ptnc_faultsim::mix4;
use ptnc_serve::{ModelRegistry, ReloadOutcome};

use crate::detector::{DetectorConfig, DriftDetector};
use crate::refit::{refit_filters, RefitConfig, RefitError, RefitReport};
use crate::replay::{LabeledWindow, ReplayBuffer};

/// Domain-separation word for per-round refit seeds ("rond").
const ROUND_STREAM: u64 = 0x726F_6E64;

/// Tuning knobs for the whole adaptation loop.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptConfig {
    /// Per-stream drift detector settings.
    pub detector: DetectorConfig,
    /// Refit settings; the `seed` field is re-derived per round from
    /// [`AdaptConfig::seed`], so its value here is ignored.
    pub refit: RefitConfig,
    /// Replay reservoir capacity (windows).
    pub replay_capacity: usize,
    /// Minimum retained windows before a trip may turn into a refit.
    pub min_replay: usize,
    /// Master seed for replay sampling and per-round refit seeds.
    pub seed: u64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            detector: DetectorConfig::default(),
            refit: RefitConfig::default(),
            replay_capacity: 64,
            min_replay: 8,
            seed: 0xADA7,
        }
    }
}

/// What one adaptation round produced.
#[derive(Debug)]
pub struct AdaptOutcome {
    /// The refit's step-by-step account.
    pub report: RefitReport,
    /// How the registry took the redeploy (normally `Swapped`; `Unchanged`
    /// if the refit was a numerical no-op).
    pub reload: ReloadOutcome,
}

/// Why an adaptation round failed. The live model keeps serving in every
/// case — failures here never touch the registry's current engine.
#[derive(Debug)]
pub enum AdaptError {
    /// The loop was asked to adapt before any detector tripped or before
    /// enough replay accumulated.
    NotReady,
    /// The refit itself failed.
    Refit(RefitError),
    /// The live snapshot file could not be read or rewritten.
    Io(std::io::Error),
    /// The live snapshot file did not parse back into a model.
    Persist(PersistError),
}

impl std::fmt::Display for AdaptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptError::NotReady => write!(f, "no tripped detector with sufficient replay"),
            AdaptError::Refit(e) => write!(f, "refit failed: {e}"),
            AdaptError::Io(e) => write!(f, "snapshot io failed: {e}"),
            AdaptError::Persist(e) => write!(f, "live snapshot unparsable: {e}"),
        }
    }
}

impl std::error::Error for AdaptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdaptError::NotReady => None,
            AdaptError::Refit(e) => Some(e),
            AdaptError::Io(e) => Some(e),
            AdaptError::Persist(e) => Some(e),
        }
    }
}

impl From<RefitError> for AdaptError {
    fn from(e: RefitError) -> Self {
        AdaptError::Refit(e)
    }
}

/// Closed-loop adaptation state for a fixed set of streams.
#[derive(Debug)]
pub struct AdaptController {
    cfg: AdaptConfig,
    detectors: Vec<DriftDetector>,
    replay: ReplayBuffer,
    rounds: u64,
}

impl AdaptController {
    /// A controller watching `streams` streams.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is zero, `min_replay` is zero, or `min_replay`
    /// exceeds `replay_capacity` (the loop could then never fire).
    pub fn new(cfg: AdaptConfig, streams: usize) -> Self {
        assert!(streams > 0, "controller needs at least one stream");
        assert!(cfg.min_replay > 0, "min_replay must be positive");
        assert!(
            cfg.min_replay <= cfg.replay_capacity,
            "min_replay exceeds replay capacity"
        );
        let detectors = (0..streams)
            .map(|_| DriftDetector::new(cfg.detector.clone()))
            .collect();
        let replay = ReplayBuffer::new(cfg.replay_capacity, cfg.seed);
        AdaptController {
            cfg,
            detectors,
            replay,
            rounds: 0,
        }
    }

    /// Number of streams under watch.
    pub fn streams(&self) -> usize {
        self.detectors.len()
    }

    /// Completed adaptation rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The replay reservoir (for inspection/tests).
    pub fn replay(&self) -> &ReplayBuffer {
        &self.replay
    }

    /// Feeds one resident-state statistic (e.g. state RMS) for `stream`;
    /// returns that stream's latched trip state.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range.
    pub fn observe_state(&mut self, stream: usize, statistic: f64) -> bool {
        self.detectors[stream].observe(statistic)
    }

    /// Feeds one guard-window fault fraction for `stream`; returns that
    /// stream's latched trip state.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range.
    pub fn observe_fault_fraction(&mut self, stream: usize, fraction: f64) -> bool {
        self.detectors[stream].observe_fault_fraction(fraction)
    }

    /// Captures one labeled traffic window into the replay reservoir.
    pub fn record_window(&mut self, stream: usize, steps: Vec<f64>, label: usize) {
        self.replay.push(LabeledWindow {
            stream,
            steps,
            label,
        });
    }

    /// Streams whose detectors have tripped, in index order.
    pub fn tripped_streams(&self) -> Vec<usize> {
        self.detectors
            .iter()
            .enumerate()
            .filter(|(_, d)| d.tripped())
            .map(|(i, _)| i)
            .collect()
    }

    /// True when at least one detector has tripped and the replay holds
    /// enough windows to refit against.
    pub fn should_adapt(&self) -> bool {
        self.replay.len() >= self.cfg.min_replay && self.detectors.iter().any(|d| d.tripped())
    }

    /// Runs one adaptation round against the registry's live snapshot and
    /// publishes the result. On success all detectors re-arm (the adapted
    /// model has a new statistic distribution, so baselines re-form) and
    /// the round counter advances; the replay is kept — drift is ongoing
    /// and recent windows stay representative.
    ///
    /// Returns [`AdaptError::NotReady`] unless
    /// [`should_adapt`](Self::should_adapt) holds; any failure leaves the
    /// registry's current engine untouched.
    pub fn adapt(&mut self, registry: &ModelRegistry) -> Result<AdaptOutcome, AdaptError> {
        if !self.should_adapt() {
            return Err(AdaptError::NotReady);
        }
        let snap = read_snapshot(registry.path())?;
        let round_cfg = RefitConfig {
            seed: mix4(self.cfg.seed, ROUND_STREAM, self.rounds, 0),
            ..self.cfg.refit.clone()
        };
        let (adapted, report) = refit_filters(&snap, self.replay.windows(), &round_cfg)?;
        let reload = registry
            .redeploy_json(&persist::to_json(&adapted))
            .map_err(AdaptError::Io)?;
        self.rounds += 1;
        for d in &mut self.detectors {
            d.reset();
        }
        ptnc_telemetry::span("adapt.round")
            .field("round", self.rounds)
            .field("steps_taken", report.steps_taken as u64)
            .field("skipped_non_finite", report.skipped_non_finite as u64)
            .field("initial_loss", report.initial_loss)
            .field("final_loss", report.final_loss)
            .field("swapped", matches!(reload, ReloadOutcome::Swapped(_)))
            .finish();
        Ok(AdaptOutcome { report, reload })
    }
}

fn read_snapshot(path: &Path) -> Result<adapt_pnc::persist::ModelSnapshot, AdaptError> {
    let json = std::fs::read_to_string(path).map_err(AdaptError::Io)?;
    let model = persist::from_json(&json).map_err(AdaptError::Persist)?;
    Ok(persist::snapshot(&model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_pnc::models::PrintedModel;
    use adapt_pnc::serve::ServeModel;
    use ptnc_tensor::init;
    use std::path::PathBuf;

    const DIM: usize = 2;
    const CLASSES: usize = 3;
    const T: usize = 10;

    fn model_json(seed: u64) -> String {
        persist::to_json(&PrintedModel::adapt_pnc(
            DIM,
            4,
            CLASSES,
            &mut init::rng(seed),
        ))
    }

    fn scratch_file(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ptnc-adapt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{test}.json"))
    }

    fn quick_cfg() -> AdaptConfig {
        AdaptConfig {
            refit: RefitConfig {
                steps: 10,
                ..RefitConfig::default()
            },
            replay_capacity: 16,
            min_replay: 4,
            ..AdaptConfig::default()
        }
    }

    fn feed_windows(ctl: &mut AdaptController, labeler_seed: u64, n: usize) {
        let labeler = ServeModel::from_json(&model_json(labeler_seed)).unwrap();
        for w in 0..n {
            let steps: Vec<f64> = (0..T * DIM)
                .map(|i| (ptnc_faultsim::unit(7, w as u64, i as u64, 0) * 2.0 - 1.0) * 0.8)
                .collect();
            let logits = labeler.engine().run_batch(&steps, 1).unwrap();
            let label = logits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            ctl.record_window(w % 2, steps, label);
        }
    }

    fn trip(ctl: &mut AdaptController, stream: usize) {
        for i in 0..64 {
            ctl.observe_state(stream, 1.0 + 0.1 * (i as f64).sin());
        }
        for i in 0..256 {
            if ctl.observe_state(stream, 6.0 + 0.1 * (i as f64).sin()) {
                return;
            }
        }
        panic!("detector never tripped");
    }

    #[test]
    fn adapt_gates_on_trip_and_replay_depth() {
        let path = scratch_file("gates");
        std::fs::write(&path, model_json(1)).unwrap();
        let reg = ModelRegistry::open(&path).unwrap();

        let mut ctl = AdaptController::new(quick_cfg(), 2);
        assert!(!ctl.should_adapt());
        assert!(matches!(ctl.adapt(&reg), Err(AdaptError::NotReady)));

        trip(&mut ctl, 1);
        assert_eq!(ctl.tripped_streams(), vec![1]);
        assert!(!ctl.should_adapt(), "trip without replay must not fire");

        feed_windows(&mut ctl, 2, 8);
        assert!(ctl.should_adapt());
    }

    #[test]
    fn adapt_round_swaps_the_registry_and_rearms_detectors() {
        let path = scratch_file("swaps");
        std::fs::write(&path, model_json(3)).unwrap();
        let reg = ModelRegistry::open(&path).unwrap();
        assert_eq!(reg.version(), 1);

        let mut ctl = AdaptController::new(quick_cfg(), 2);
        trip(&mut ctl, 0);
        feed_windows(&mut ctl, 4, 8);
        let outcome = ctl.adapt(&reg).unwrap();
        assert!(matches!(outcome.reload, ReloadOutcome::Swapped(_)));
        assert!(outcome.report.steps_taken > 0);
        assert_eq!(reg.version(), 2);
        assert_eq!(ctl.rounds(), 1);
        assert!(ctl.tripped_streams().is_empty(), "detectors must re-arm");
        assert!(!ctl.should_adapt());

        // The file on disk is the adapted model, so a restart resumes it.
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert!(persist::from_json(&on_disk).is_ok());
        assert_ne!(on_disk, model_json(3));
    }

    #[test]
    fn successive_rounds_draw_distinct_refit_seeds_and_stay_deterministic() {
        let run = |tag: &str| {
            let path = scratch_file(tag);
            std::fs::write(&path, model_json(5)).unwrap();
            let reg = ModelRegistry::open(&path).unwrap();
            let mut ctl = AdaptController::new(quick_cfg(), 1);
            feed_windows(&mut ctl, 6, 8);
            let mut jsons = Vec::new();
            for _ in 0..2 {
                trip(&mut ctl, 0);
                ctl.adapt(&reg).unwrap();
                jsons.push(std::fs::read_to_string(&path).unwrap());
            }
            jsons
        };
        let a = run("det-a");
        let b = run("det-b");
        assert_eq!(a, b, "controller loop diverged between identical runs");
        assert_ne!(a[0], a[1], "rounds reused the same refit trajectory");
    }
}
