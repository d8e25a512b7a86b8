//! # ptnc-infer — graph-free inference for printed temporal models
//!
//! Every evaluation workload in the ADAPT-pNC reproduction — Table I
//! accuracy, the Fig. 5/7 variation sweeps, the Monte-Carlo robustness
//! trials — is pure forward-pass work. Running it through the reverse-mode
//! autograd graph in `ptnc-tensor` allocates tape nodes that are never
//! backpropagated. This crate is the serving path: a trained model is
//! *frozen* into an [`InferModel`] of plain `Vec<f64>` weight buffers, and
//! the SO-LF filter recurrence + `ptanh` + crossbar layers execute with
//! preallocated, reusable [`Scratch`] buffers — no tensors, no graph, no
//! per-step allocation.
//!
//! The crate is deliberately free of any dependency on the tensor or core
//! crates (only the vendored `rand` for variation sampling and the
//! zero-dependency `ptnc-telemetry` for guard-health counters), so the
//! dependency arrow points *from* the design-time stack *to* the runtime:
//! `adapt-pnc` freezes models into this crate's types and routes its
//! Monte-Carlo evaluation through them.
//!
//! ## The execution modes
//!
//! * **Batched** — [`InferModel::run_batch`] processes `B` sequences at
//!   once with filter-major inner loops over the batch lanes (the serving
//!   fast path).
//! * **Sessions** — [`StreamSession`] owns (an `Arc` of) its engine and
//!   the resident filter state of one stream, which persists between
//!   [`StreamSession::run_chunk`] calls; a one-step chunk is one
//!   streaming step, and feeding a sequence in any chunking produces
//!   exactly the logits of the batched run. Sessions gather into and
//!   scatter out of shared [`Scratch`] lanes for batched forwards, and
//!   survive model hot-reloads (pin-old vs reset-on-reload is the
//!   caller's policy via [`StreamSession::adopt_model`]). `B` streams in
//!   lockstep step together through [`InferModel::run_chunk_into`] on a
//!   fresh [`InferModel::make_scratch`]`(B)`.
//! * **Perturbed** — [`InferModel::perturbed`] compiles a cheap per-trial
//!   instance from a [`VariationSample`], so Monte-Carlo variation trials
//!   share one frozen model across threads (`InferModel` is plain data and
//!   therefore `Send + Sync`).
//! * **Guarded** — an [`InputGuard`] sanitizes each timestep in front of
//!   either streaming path ([`InputGuard::sanitize`]), and
//!   [`InferModel::run_batch_guarded`] does the same for a whole batch:
//!   NaN/Inf/out-of-range samples are repaired by a configurable
//!   [`DegradePolicy`] before they can poison filter state, and each
//!   stream carries a [`Health`] classification derived from its recent
//!   fault density ([`InputGuard::fault_fraction`]).
//!
//! ## One kernel, three number formats
//!
//! A model compiles at a [`Precision`]: `f64` (the reference), `f32` or
//! saturating `i32` fixed point ([`QFormat`]). All three run one
//! filter-major kernel, crossbar → SO-LF sections → `ptanh`, with a
//! section plan per number format: `f64` runs one first-order section per
//! RC stage, whose state *is* the stage voltages; `f32` and `i32` run a
//! biquad plus an optional tail and convert their state to stage voltages,
//! so lane state has one `f64` wire format at every precision.
//!
//! The `f64` lane keeps the autograd kernels' per-element arithmetic
//! (same accumulation order in the crossbar mat-mul, same
//! `a⊙state + b⊙input` filter step) and swaps only `f64::tanh` in `ptanh`
//! for a vectorizable one within 4 ulp, so frozen logits match the
//! autograd forward within the 1e-9 bound the integration tests assert.
//! Every lane runs the same operations in the same order, so results are
//! bitwise identical across batch width, chunking, thread count and
//! served vs direct calls, at each precision. A build rejects a filter
//! that does not decay ([`BuildError::UnstableFilter`]). [`VariationSample`]
//! draws its multipliers in exactly the order the design-time model
//! samples its `ModelNoise`, so a seeded trial sees identical noise on
//! both paths.

//! ## Fallible request path
//!
//! Every request-shaped entry point — batched runs, scratch allocation,
//! session chunks, guard construction — validates its input and returns
//! a typed [`InferError`] instead of panicking, so a serving layer can
//! shed malformed requests without losing the worker.

mod error;
mod guard;
mod model;
mod precision;
mod session;
mod tanh;
mod variation;

pub use error::InferError;
pub use guard::{DegradePolicy, GuardConfig, GuardStats, Health, InputGuard};
pub use model::{BuildError, InferModel, InferSpec, Scratch};
pub use precision::{Precision, PrecisionParseError, QFormat};
pub use session::StreamSession;
pub use variation::{LayerVariation, VariationDistribution, VariationSample};

/// Classification accuracy of flat logits `[batch × classes]` against
/// integer labels. Ties resolve to the first maximum — the same convention
/// as the design-time `argmax_axis`, so both evaluation paths agree on
/// every prediction.
///
/// # Panics
///
/// Panics if `classes == 0` or `logits.len() != labels.len() * classes`.
pub fn accuracy(logits: &[f64], classes: usize, labels: &[usize]) -> f64 {
    assert!(classes > 0, "zero classes");
    assert_eq!(
        logits.len(),
        labels.len() * classes,
        "logits length {} does not match {} labels x {classes} classes",
        logits.len(),
        labels.len()
    );
    let mut correct = 0usize;
    for (b, &label) in labels.iter().enumerate() {
        let row = &logits[b * classes..(b + 1) * classes];
        let mut best = 0usize;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        if best == label {
            correct += 1;
        }
    }
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_ties_resolve_to_first() {
        // Row [1, 1]: argmax is class 0.
        assert_eq!(accuracy(&[1.0, 1.0], 2, &[0]), 1.0);
        assert_eq!(accuracy(&[1.0, 1.0], 2, &[1]), 0.0);
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = [0.1, 0.9, 0.8, 0.2, 0.3, 0.7];
        assert_eq!(accuracy(&logits, 2, &[1, 0, 0]), 2.0 / 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn accuracy_rejects_bad_shape() {
        accuracy(&[1.0, 2.0, 3.0], 2, &[0]);
    }
}
