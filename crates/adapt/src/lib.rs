//! Closed-loop online adaptation runtime for printed neuromorphic
//! circuits (`ptnc-adapt`).
//!
//! ADAPT-pNC argues that second-order adaptive learnable filters let a
//! printed classifier track sensor drift and device aging without
//! re-printing the crossbar. This crate closes that loop at *serving*
//! time, end to end:
//!
//! 1. **Detect** ([`DriftDetector`]): per-stream two-sided CUSUM over the
//!    resident filter-state statistics that [`ptnc_infer`] exports
//!    (`StreamSession::state_rms`, `Scratch::lane_state_rms`), plus a
//!    direct trip on the guard window's fault fraction
//!    (`InputGuard::fault_fraction`). Pure function of the observation
//!    sequence — no clocks, no RNG.
//! 2. **Capture** ([`ReplayBuffer`]): a bounded, seeded reservoir of
//!    recent labeled traffic windows; the kept sample is deterministic in
//!    `(seed, push sequence)`.
//! 3. **Refit** ([`refit_filters`]): SGD on *only* the per-stage filter
//!    betas (`log R`, `log C`); crossbar and activation parameters are
//!    captured in a [`ptnc_nn::FrozenParams`] snapshot and restored after
//!    every step, so they stay bitwise identical. Minibatches come from
//!    the counter-based RNG keyed on `(seed, round, step, lane)`; an
//!    optional wall-clock budget can only stop the deterministic step
//!    schedule early.
//! 4. **Redeploy** ([`AdaptController::adapt`]): the refit model is
//!    serialized and published atomically through
//!    [`ptnc_serve::ModelRegistry::redeploy_json`] — live traffic sees the
//!    complete old model or the complete new one, and resident sessions
//!    honor their `PinOld`/`ResetOnReload` policies at their next chunk.
//!
//! Because every stochastic choice routes through
//! [`ptnc_faultsim::mix4`], the full detect → refit → hot-swap loop is
//! bit-identical across runs and across `PNC_THREADS` settings; see
//! `crates/bench/src/bin/adapt_loop.rs` for the accuracy-over-time
//! harness that pins this.

mod detector;
mod refit;
mod replay;
mod runtime;

pub use detector::{DetectorConfig, DriftDetector};
pub use refit::{filter_param_indices, refit_filters, RefitConfig, RefitError, RefitReport};
pub use replay::{LabeledWindow, ReplayBuffer};
pub use runtime::{AdaptConfig, AdaptController, AdaptError, AdaptOutcome};
