//! The one model shape and the seeded inputs every workload draws from.

use std::path::{Path, PathBuf};
use std::time::Duration;

use adapt_pnc::models::PrintedModel;
use adapt_pnc::parallel::seed_split;
use ptnc_datasets::preprocess::Preprocess;
use ptnc_datasets::{benchmark_by_name, DataSplit, Dataset};
use ptnc_infer::GuardConfig;
use ptnc_serve::BatchConfig;
use ptnc_tensor::init;

use crate::schedule::SplitMix;

/// The paper dataset generator the windows come from.
pub const DATASET: &str = "Slope";
/// Hidden width of the ADAPT-pNC network.
pub const HIDDEN: usize = 6;
/// Timesteps per window (the paper's resampled length).
pub const WINDOW: usize = 64;
/// Timesteps per session chunk.
pub const CHUNK: usize = 8;
/// Resident sessions in `session_stream`.
pub const SESSIONS: usize = 20_000;
/// Latency limit the rate ladders hold, microseconds. It sits above the
/// wake-up noise of a shared two-core host (tails of 0.5 to 3 ms at any
/// rate below the knee), so a rung fails when a backlog forms, not when
/// the host stalls.
pub const LIMIT_US: f64 = 5_000.0;
/// A generator whose sends were still this late (median of the last tenth
/// of a block, microseconds) fell behind its own schedule: the run then
/// measured the generator, not the system, and is invalid.
pub const GEN_BEHIND_US: f64 = 1_000.0;

const MODEL_STREAM: u64 = 0x6D6F_6465;

/// The seed's dataset, preprocessed and split 60/20/20 like Table I.
pub fn split(seed: u64) -> DataSplit {
    let raw = benchmark_by_name(DATASET, seed).expect("Slope is a registered benchmark");
    Preprocess::paper_default()
        .apply(&raw)
        .shuffle_split(0.6, 0.2, seed)
}

/// Every series of `ds` as one univariate 64-step window.
pub fn windows(ds: &Dataset) -> Vec<Vec<f64>> {
    ds.iter().map(|it| it.values.clone()).collect()
}

/// All windows of the seed's dataset (train, validation and test).
pub fn all_windows(split: &DataSplit) -> Vec<Vec<f64>> {
    let mut w = windows(&split.train);
    w.extend(windows(&split.val));
    w.extend(windows(&split.test));
    w
}

/// Univariate ADAPT-pNC (SO-LF, order 2) with weights drawn from the seed;
/// `variant` picks an independent draw (hot-swap targets).
pub fn model(seed: u64, variant: u64, classes: usize) -> PrintedModel {
    let mut rng = init::rng(seed_split(seed, MODEL_STREAM, variant));
    PrintedModel::adapt_pnc(1, HIDDEN, classes, &mut rng)
}

/// Which window a stream plays at window slot `slot`.
pub fn stream_window(seed: u64, stream: usize, slot: usize, count: usize) -> usize {
    SplitMix::new(seed, ((stream as u64) << 32) | slot as u64).below(count)
}

/// Scheduler configuration for one-shot windows behind the wire: one lane
/// per connection, so a batch runs as soon as both connections have a
/// request queued and otherwise after the 200 µs window.
pub fn wire_batch_config() -> BatchConfig {
    BatchConfig {
        max_batch: 2,
        max_steps: WINDOW,
        queue_capacity: 1024,
        batch_window: Duration::from_micros(200),
        workers: 1,
        guard: None,
        max_sessions: 1024,
        session_sweep_interval: None,
        ..BatchConfig::default()
    }
}

/// Scheduler configuration for resident sessions: guard on, 32 lanes.
pub fn session_batch_config() -> BatchConfig {
    BatchConfig {
        max_batch: 8,
        max_steps: WINDOW,
        queue_capacity: 8192,
        batch_window: Duration::ZERO,
        workers: 1,
        guard: Some(GuardConfig::default_policy()),
        max_sessions: SESSIONS + 4096,
        session_sweep_interval: None,
        ..BatchConfig::default()
    }
}

/// JSON description of a scheduler configuration.
pub fn batch_config_json(cfg: &BatchConfig) -> String {
    format!(
        "{{\"max_batch\": {}, \"max_steps\": {}, \"queue_capacity\": {}, \"batch_window_us\": {}, \"workers\": {}, \"guard\": {}, \"max_sessions\": {}}}",
        cfg.max_batch,
        cfg.max_steps,
        cfg.queue_capacity,
        cfg.batch_window.as_micros(),
        cfg.workers,
        cfg.guard.is_some(),
        cfg.max_sessions
    )
}

/// A scratch directory for model snapshots, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<out>/tmp-<pid>-<tag>`.
    pub fn new(out: &Path, tag: &str) -> Self {
        let dir = out.join(format!("tmp-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    /// Path of `name` inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
