//! # ADAPT-pNC
//!
//! A from-scratch Rust reproduction of **“ADAPT-pNC: Mitigating Device
//! Variability and Sensor Noise in Printed Neuromorphic Circuits with SO
//! Adaptive Learnable Filters”** (DATE 2025).
//!
//! Printed neuromorphic circuits (pNCs) realize small neural networks with
//! additively printed resistor crossbars, tanh-like transfer circuits and —
//! for temporal processing — printed RC low-pass filters. This crate models
//! those primitives faithfully (conductance-ratio weights, inverter-based
//! negative weights, printable component ranges) and implements the paper's
//! contribution on top of them:
//!
//! * **second-order learnable filters (SO-LF)** with separately trainable
//!   resistors/capacitors and the crossbar-coupling factor μ (§III-1/2),
//! * **variation-aware Monte-Carlo training** with the reparameterization
//!   `θ = θ₀ ⊙ ε` over all printed components (§III-A, Eq. 12–14),
//! * **data-augmented training and testing** via [`ptnc_augment`] (§III-B),
//! * the **hardware cost and power model** behind the paper's Table III,
//! * the **baseline pTPNC** (first-order filters, no robustness measures) and
//!   the **Elman RNN reference** (via [`ptnc_nn`]) for every comparison in
//!   the evaluation.
//!
//! # Quickstart
//!
//! ```
//! use adapt_pnc::prelude::*;
//!
//! // A tiny ADAPT-pNC for a 3-class task on univariate series.
//! let mut rng = ptnc_tensor::init::rng(0);
//! let model = PrintedModel::adapt_pnc(1, 4, 3, &mut rng);
//! let steps = vec![ptnc_tensor::Tensor::ones(&[2, 1]); 8];
//! let logits = model.forward_nominal(&steps);
//! assert_eq!(logits.dims(), &[2, 3]);
//! ```

pub mod ablation;
pub mod eval;
pub mod experiments;
pub mod faults;
pub mod filter_design;
pub mod guide;
pub mod hardware;
pub mod models;
pub mod netlist_export;
pub mod parallel;
pub mod pdk;
pub mod persist;
pub mod power;
pub mod primitives;
pub mod robustness;
pub mod search;
pub mod serve;
pub mod training;
pub mod variation;

/// The graph-free inference runtime — re-exported so downstream code can
/// name `InferModel` and friends without a direct `ptnc-infer` dependency.
pub use ptnc_infer as infer;

/// Structured-event telemetry (spans, counters, gauges, JSONL sinks) —
/// re-exported so downstream code scopes collection without a direct
/// `ptnc-telemetry` dependency.
pub use ptnc_telemetry as telemetry;

/// Deterministic temporal fault injection and device-drift models —
/// re-exported so downstream code can build fault schedules without a
/// direct `ptnc-faultsim` dependency.
pub use ptnc_faultsim as faultsim;

/// Convenience re-exports for examples and benches: everything a typical
/// train-evaluate script needs, including the dataset registry and the
/// deterministic [`parallel::ParallelRunner`] fan-out layer.
pub mod prelude {
    pub use crate::eval::{dataset_to_steps, evaluate, evaluate_with_runner, EvalCondition};
    pub use crate::hardware::{DeviceCount, HardwareReport};
    pub use crate::models::{FilterOrder, PrintedModel};
    pub use crate::parallel::{rng_for, seed_split, streams, ParallelRunner};
    pub use crate::pdk::Pdk;
    pub use crate::robustness::{sensor_fault_sweep, RobustnessConfig, SweepPoint};
    pub use crate::serve::{ServeError, ServeModel};
    pub use crate::training::{
        train, train_with_runner, TrainConfig, TrainConfigBuilder, TrainedModel,
    };
    pub use crate::variation::{ModelNoise, VariationConfig};
    pub use ptnc_datasets::{
        all_specs, benchmark, benchmark_by_name, preprocess::Preprocess, BenchmarkSpec, DataSplit,
        Dataset,
    };
}
