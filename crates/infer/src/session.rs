//! Owned, long-lived stream sessions: resident SO-LF filter state that
//! survives between submissions and across model hot-reloads.
//!
//! A [`StreamSession`] holds an `Arc<InferModel>` plus the flat resident
//! filter state of **one** logical stream. It is the one way to step a
//! stream: [`StreamSession::run_chunk`] advances it by any number of
//! timesteps, and a one-step chunk is one streaming step. Because it owns
//! its engine it can outlive a registry swap: a session pinned to the old
//! model keeps that engine alive through its `Arc` until the session
//! itself adopts a new one (or is dropped). Put an
//! [`InputGuard`](crate::InputGuard) in front of `run_chunk` for raw
//! sensor input.
//!
//! The state is stored in the flat `[layer][stage][filter]` layout of
//! [`Scratch::export_lane_state`], which is what lets a batching scheduler
//! gather many sessions' states into the lanes of one shared [`Scratch`],
//! run a single wide [`InferModel::run_chunk_into`] forward, and scatter
//! the advanced states back — zero allocations in steady state.

use std::sync::Arc;

use crate::error::InferError;
use crate::model::{InferModel, InferSpec, Scratch};

/// One logical sensor stream with resident filter state, owning (a share
/// of) its compiled model. Create with [`StreamSession::new`] or
/// [`InferModel::session`].
#[derive(Debug, Clone)]
pub struct StreamSession {
    model: Arc<InferModel>,
    /// Flat resident filter state, `[layer][stage][filter]`.
    state: Vec<f64>,
    steps_seen: u64,
}

impl StreamSession {
    /// Opens a session on `model` with freshly initialized filter state
    /// (the model's initial stage voltages).
    pub fn new(model: Arc<InferModel>) -> Self {
        let mut state = vec![0.0; model.lane_state_len()];
        model
            .reset_lane_state(&mut state)
            .expect("state sized from the same model");
        StreamSession {
            model,
            state,
            steps_seen: 0,
        }
    }

    /// The engine this session is pinned to.
    pub fn model(&self) -> &Arc<InferModel> {
        &self.model
    }

    /// The architecture being served.
    pub fn spec(&self) -> &InferSpec {
        self.model.spec()
    }

    /// Whether this session runs on exactly `other` (pointer identity —
    /// how a scheduler decides which sessions can share one batched
    /// forward, and whether a registry reload has happened since the
    /// session last resolved its model).
    pub fn runs_on(&self, other: &Arc<InferModel>) -> bool {
        Arc::ptr_eq(&self.model, other)
    }

    /// Timesteps consumed since creation or the last reset.
    pub fn steps_seen(&self) -> u64 {
        self.steps_seen
    }

    /// The resident filter state (flat `[layer][stage][filter]`).
    pub fn state(&self) -> &[f64] {
        &self.state
    }

    /// Whether every resident state value is finite. One NaN or ±∞ input
    /// sample poisons the filter recurrence permanently (see the hazard on
    /// [`InferModel::run_chunk_into`]), so watchdogs audit this between
    /// chunks.
    pub fn state_is_finite(&self) -> bool {
        self.state.iter().all(|v| v.is_finite())
    }

    /// Root-mean-square of the resident filter state — a cheap scalar
    /// summary of filter excitation. Drift detectors watch this between
    /// submissions: a sustained shift in state RMS under stationary input
    /// statistics is a degradation signal long before accuracy collapses.
    /// Non-finite states yield a non-finite RMS (itself a trigger).
    pub fn state_rms(&self) -> f64 {
        if self.state.is_empty() {
            return 0.0;
        }
        let sum_sq: f64 = self.state.iter().map(|v| v * v).sum();
        (sum_sq / self.state.len() as f64).sqrt()
    }

    /// Rewinds the resident state to the model's initial stage voltages,
    /// ready for a fresh window. No allocation.
    pub fn reset(&mut self) {
        self.model
            .reset_lane_state(&mut self.state)
            .expect("state sized from the same model");
        self.steps_seen = 0;
    }

    /// Switches this session to a different engine and resets the
    /// resident state (filter state is meaningless under new
    /// coefficients) — the *reset-on-reload* policy of a serving tier.
    /// The *pin-old* policy is simply never calling this.
    ///
    /// # Errors
    ///
    /// [`InferError::SpecMismatch`] if `model` serves a different
    /// architecture; the session is untouched on error.
    pub fn adopt_model(&mut self, model: Arc<InferModel>) -> Result<(), InferError> {
        if model.lane_state_len() != self.state.len() {
            return Err(InferError::SpecMismatch {
                what: "session state",
                expected: self.state.len(),
                found: model.lane_state_len(),
            });
        }
        self.model = model;
        self.reset();
        Ok(())
    }

    /// Gathers this session's resident state into lane `lane` of a shared
    /// scratch, ahead of a batched [`InferModel::run_chunk_into`].
    ///
    /// # Errors
    ///
    /// [`InferError::ShapeMismatch`] if the scratch was sized for a
    /// different architecture or `lane` is out of range.
    pub fn load_into(&self, scratch: &mut Scratch, lane: usize) -> Result<(), InferError> {
        scratch.import_lane_state(lane, &self.state)
    }

    /// Scatters lane `lane`'s advanced state back into this session after
    /// a batched forward, and accounts the `t` timesteps it ran.
    ///
    /// # Errors
    ///
    /// [`InferError::ShapeMismatch`] if the scratch was sized for a
    /// different architecture or `lane` is out of range; the session is
    /// untouched on error.
    pub fn store_from(
        &mut self,
        scratch: &Scratch,
        lane: usize,
        t: usize,
    ) -> Result<(), InferError> {
        scratch.export_lane_state(lane, &mut self.state)?;
        self.steps_seen += t as u64;
        Ok(())
    }

    /// Runs one chunk of this stream standalone (no batching): `steps` is
    /// `t × input_dim` time-major values, `scratch` a **batch-1** scratch
    /// from this session's model, `out` receives the logits as of the
    /// chunk's last step. The resident state carries across calls, so
    /// feeding a window in chunks yields exactly the logits of
    /// [`InferModel::run_batch`] on the concatenated window. Zero
    /// allocations per call.
    ///
    /// # Errors
    ///
    /// [`InferError::ShapeMismatch`] on a non-batch-1 scratch or malformed
    /// `steps`/`out`; resident state is untouched on error.
    pub fn run_chunk(
        &mut self,
        steps: &[f64],
        scratch: &mut Scratch,
        out: &mut [f64],
    ) -> Result<(), InferError> {
        if scratch.batch() != 1 {
            return Err(InferError::ShapeMismatch {
                what: "session scratch batch",
                expected: 1,
                found: scratch.batch(),
            });
        }
        let dim = self.model.spec().input_dim;
        if steps.is_empty() || !steps.len().is_multiple_of(dim) {
            return Err(InferError::ShapeMismatch {
                what: "steps",
                expected: dim,
                found: steps.len(),
            });
        }
        self.load_into(scratch, 0)?;
        self.model.run_chunk_into(steps, 1, scratch, out)?;
        self.store_from(scratch, 0, steps.len() / dim)
    }
}

impl InferModel {
    /// Opens an owned long-lived session on this engine (resident filter
    /// state, survives registry swaps — see [`StreamSession`]).
    pub fn session(self: &Arc<Self>) -> StreamSession {
        StreamSession::new(Arc::clone(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::InferSpec;

    fn model(stages: usize) -> Arc<InferModel> {
        let spec = InferSpec {
            input_dim: 2,
            hidden: 3,
            classes: 2,
            stages,
            mu_nominal: 1.15,
            dt: 0.01,
            logit_scale: 4.0,
        };
        let params: Vec<Vec<f64>> = spec
            .param_lens()
            .iter()
            .enumerate()
            .map(|(k, &n)| (0..n).map(|i| 0.15 + 0.07 * (k + i) as f64).collect())
            .collect();
        Arc::new(InferModel::build(spec, &params).unwrap())
    }

    fn window(t: usize) -> Vec<f64> {
        (0..t * 2).map(|i| (i as f64 * 0.29).sin()).collect()
    }

    #[test]
    fn chunked_session_matches_one_shot_batch_bitwise() {
        for stages in 1..=3 {
            let m = model(stages);
            let steps = window(24);
            let expected = m.run_batch(&steps, 1).unwrap();
            let mut session = m.session();
            let mut scratch = m.make_scratch(1).unwrap();
            let mut out = vec![0.0; m.spec().classes];
            // Uneven chunking: 5 + 1 + 10 + 8 timesteps.
            for chunk in [&steps[..10], &steps[10..12], &steps[12..32], &steps[32..]] {
                session.run_chunk(chunk, &mut scratch, &mut out).unwrap();
            }
            assert_eq!(session.steps_seen(), 24);
            assert_eq!(out, expected, "order {stages}: chunked ≠ one-shot");
        }
    }

    #[test]
    fn streaming_matches_batched_final_logits() {
        let m = model(2);
        let steps = window(12);
        let batched = m.run_batch(&steps, 1).unwrap();
        let mut session = m.session();
        let mut scratch = m.make_scratch(1).unwrap();
        let mut last = vec![0.0; 2];
        for step in steps.chunks_exact(2) {
            session.run_chunk(step, &mut scratch, &mut last).unwrap();
        }
        assert_eq!(session.steps_seen(), 12);
        assert_eq!(last, batched, "stream final logits must equal batched");
    }

    #[test]
    fn reset_replays_identically() {
        let m = model(2);
        let steps: Vec<f64> = (0..10).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut session = m.session();
        let mut scratch = m.make_scratch(1).unwrap();
        let mut run = |session: &mut StreamSession| {
            let mut last = vec![0.0; 2];
            for step in steps.chunks_exact(2) {
                session.run_chunk(step, &mut scratch, &mut last).unwrap();
            }
            last
        };
        let first = run(&mut session);
        session.reset();
        assert_eq!(session.steps_seen(), 0);
        assert_eq!(session.state(), m.session().state());
        let second = run(&mut session);
        assert_eq!(first, second);
    }

    #[test]
    fn wrong_input_width_is_a_typed_error() {
        let m = model(2);
        let mut session = m.session();
        let mut scratch = m.make_scratch(1).unwrap();
        let mut out = vec![0.0; 2];
        assert_eq!(
            session.run_chunk(&[0.1, 0.2, 0.3], &mut scratch, &mut out),
            Err(InferError::ShapeMismatch {
                what: "steps",
                expected: 2,
                found: 3,
            })
        );
        assert_eq!(session.steps_seen(), 0, "failed step must not advance");
        assert_eq!(session.state(), m.session().state());
    }

    #[test]
    fn session_state_round_trips_through_scratch_lanes() {
        let m = model(2);
        let mut session = m.session();
        let mut scratch = m.make_scratch(1).unwrap();
        let mut out = vec![0.0; 2];
        session
            .run_chunk(&window(7), &mut scratch, &mut out)
            .unwrap();
        let before = session.state().to_vec();
        // Export into a wider scratch lane and back: bit-identical.
        let mut wide = m.make_scratch(4).unwrap();
        session.load_into(&mut wide, 3).unwrap();
        let mut copy = m.session();
        copy.store_from(&wide, 3, 7).unwrap();
        assert_eq!(copy.state(), &before[..]);
        assert_eq!(wide.lane_state_len(), m.lane_state_len());
    }

    #[test]
    fn adopt_model_resets_and_checks_spec() {
        let m = model(2);
        let mut session = m.session();
        let mut scratch = m.make_scratch(1).unwrap();
        let mut out = vec![0.0; 2];
        session
            .run_chunk(&window(5), &mut scratch, &mut out)
            .unwrap();
        assert!(session.steps_seen() > 0);

        // Same-architecture engine: adopted, state reset.
        let other = model(2);
        assert!(!session.runs_on(&other));
        session.adopt_model(Arc::clone(&other)).unwrap();
        assert!(session.runs_on(&other));
        assert_eq!(session.steps_seen(), 0);

        // Different filter order: typed rejection, session untouched.
        let wrong = model(3);
        assert!(matches!(
            session.adopt_model(wrong),
            Err(InferError::SpecMismatch { .. })
        ));
        assert!(session.runs_on(&other));
    }

    #[test]
    fn state_rms_summarizes_resident_state() {
        let m = model(1);
        let mut session = m.session();
        assert_eq!(session.state_rms(), 0.0, "nominal initial state is zero");
        let mut scratch = m.make_scratch(1).unwrap();
        let mut out = vec![0.0; 2];
        session
            .run_chunk(&window(12), &mut scratch, &mut out)
            .unwrap();
        let expected = {
            let s = session.state();
            (s.iter().map(|v| v * v).sum::<f64>() / s.len() as f64).sqrt()
        };
        assert_eq!(session.state_rms(), expected);
        assert!(session.state_rms() > 0.0);
        // The scratch-lane spelling agrees with the session spelling.
        session.load_into(&mut scratch, 0).unwrap();
        assert_eq!(scratch.lane_state_rms(0).unwrap(), expected);
        assert!(scratch.lane_state_rms(9).is_err());
    }

    #[test]
    fn malformed_chunks_are_typed_errors() {
        let m = model(1);
        let mut session = m.session();
        let mut scratch = m.make_scratch(1).unwrap();
        let mut out = vec![0.0; 2];
        // Odd-length payload (not a whole number of dim-2 steps).
        assert!(session
            .run_chunk(&[0.1; 3], &mut scratch, &mut out)
            .is_err());
        // Wrong scratch width.
        let mut wide = m.make_scratch(2).unwrap();
        assert!(session.run_chunk(&[0.1; 4], &mut wide, &mut out).is_err());
        assert_eq!(session.steps_seen(), 0, "failed chunks must not advance");
    }
}
