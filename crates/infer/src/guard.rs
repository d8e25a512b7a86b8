//! Guarded input path: sample validation, degradation policies and
//! per-stream health tracking for hostile sensor streams.
//!
//! The streaming paths ([`StreamSession::run_chunk`] and
//! [`InferModel::run_chunk_into`]) trust their inputs completely — one
//! NaN reading poisons the SO-LF recurrence forever (the filter state is
//! `a⊙state + b⊙input`, and NaN propagates through both terms from then
//! on). [`InputGuard`] is the hardened front door: [`InputGuard::sanitize`]
//! checks every sample of a timestep for finiteness and range **before**
//! it can touch filter state, repairs invalid samples with a configurable
//! [`DegradePolicy`], and tracks a [`Health`] state per stream derived
//! from its recent fault density. Call it on each timestep ahead of
//! either streaming path; [`InferModel::run_batch_guarded`] does the same
//! for a whole batch. The invariant the integration tests pin down: **no
//! non-finite value can ever enter or persist in filter state through a
//! guarded path**, for any input whatsoever.
//!
//! [`StreamSession::run_chunk`]: crate::StreamSession::run_chunk
//!
//! Health transitions are reported as `ptnc-telemetry` counters
//! (`infer.guard.to_degraded`, `infer.guard.to_faulted`,
//! `infer.guard.to_healthy`) when a collection scope is active; aggregate
//! numbers are available synchronously via [`GuardStats`].

use crate::error::InferError;
use crate::model::InferModel;

/// How an invalid (non-finite or out-of-range) sample is repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradePolicy {
    /// Clamp into the valid range. Out-of-range values snap to the nearer
    /// bound, `+∞`/`−∞` to the upper/lower bound; NaN carries no ordering,
    /// so it falls back to the last good value (range midpoint before any
    /// good sample arrives).
    Clamp,
    /// Repeat the last good value seen on the channel (range midpoint
    /// before any good sample arrives).
    HoldLast,
    /// Median of the last `k` good values on the channel (range midpoint
    /// before any good sample arrives). Robust to the spike-heavy fault
    /// mix at the cost of a small per-channel history.
    MedianOfLast(usize),
}

/// Configuration of the guarded input path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Repair policy for invalid samples.
    pub policy: DegradePolicy,
    /// Lower bound of the valid sensor range.
    pub lo: f64,
    /// Upper bound of the valid sensor range.
    pub hi: f64,
    /// Sliding-window length (timesteps) for health classification.
    pub window: usize,
    /// Fault fraction in the window at or above which a stream is
    /// [`Health::Degraded`].
    pub degraded_frac: f64,
    /// Fault fraction in the window at or above which a stream is
    /// [`Health::Faulted`].
    pub faulted_frac: f64,
}

impl GuardConfig {
    /// Defaults matched to the z-normalized benchmark streams: hold-last
    /// repair, valid range ±6σ, 32-step health window, degraded at ≥ 10 %
    /// faulty steps, faulted at ≥ 50 %.
    pub fn default_policy() -> Self {
        GuardConfig {
            policy: DegradePolicy::HoldLast,
            lo: -6.0,
            hi: 6.0,
            window: 32,
            degraded_frac: 0.10,
            faulted_frac: 0.50,
        }
    }

    /// Replaces the repair policy (builder style).
    #[must_use]
    pub fn with_policy(mut self, policy: DegradePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Checks the configuration for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::InvalidGuardConfig`] naming the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<(), InferError> {
        if !(self.lo.is_finite() && self.hi.is_finite() && self.lo < self.hi) {
            return Err(InferError::InvalidGuardConfig {
                reason: "guard range must be a finite non-empty interval",
            });
        }
        if self.window == 0 {
            return Err(InferError::InvalidGuardConfig {
                reason: "zero-length health window",
            });
        }
        if !((0.0..=1.0).contains(&self.degraded_frac)
            && (0.0..=1.0).contains(&self.faulted_frac)
            && self.degraded_frac <= self.faulted_frac)
        {
            return Err(InferError::InvalidGuardConfig {
                reason: "health thresholds must satisfy 0 <= degraded <= faulted <= 1",
            });
        }
        if matches!(self.policy, DegradePolicy::MedianOfLast(0)) {
            return Err(InferError::InvalidGuardConfig {
                reason: "median-of-last-0 is not a policy",
            });
        }
        Ok(())
    }
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self::default_policy()
    }
}

/// Health of one stream, classified from the fault fraction of its recent
/// window: `Healthy < degraded_frac <= Degraded < faulted_frac <= Faulted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Recent fault density below the degraded threshold.
    Healthy,
    /// Enough recent faults that outputs are repair-dominated but still
    /// plausibly informative.
    Degraded,
    /// The stream is mostly repairs; downstream consumers should stop
    /// trusting its logits.
    Faulted,
}

impl Health {
    /// Short label for tables and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Faulted => "faulted",
        }
    }
}

/// Aggregate guard counters (monotonic over the guard's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Samples inspected.
    pub samples: u64,
    /// Samples rejected for being NaN or ±∞.
    pub nonfinite: u64,
    /// Finite samples rejected for leaving the valid range.
    pub out_of_range: u64,
    /// Samples replaced by the degradation policy (= rejected samples).
    pub repaired: u64,
    /// Health-state transitions across all streams.
    pub transitions: u64,
}

/// The guard state machine for one batch of streams: validates one
/// timestep of readings at a time, repairs invalid samples in place and
/// tracks per-stream health. Sits in front of a streaming session or
/// scratch, and inside [`InferModel::run_batch_guarded`]; it has no
/// dependency on the model, so it can also sanitize inputs for any other
/// consumer.
#[derive(Debug, Clone)]
pub struct InputGuard {
    cfg: GuardConfig,
    batch: usize,
    dim: usize,
    /// Last good value per channel `[batch × dim]`.
    last_good: Vec<f64>,
    /// Whether a good value was ever seen per channel.
    seen_good: Vec<bool>,
    /// Ring of recent good values per channel `[batch × dim × k]`
    /// (median policy only, `k = 0` otherwise).
    history: Vec<f64>,
    /// Good values recorded per channel (caps at `k`).
    hist_len: Vec<u32>,
    /// Next ring slot per channel.
    hist_pos: Vec<u32>,
    /// Scratch for median extraction.
    median_buf: Vec<f64>,
    /// Fault bits of the last `window` steps per stream `[batch × window]`.
    fault_ring: Vec<bool>,
    /// Faulty steps currently in the window per stream.
    fault_count: Vec<u32>,
    /// Current health per stream.
    health: Vec<Health>,
    steps: usize,
    stats: GuardStats,
}

impl InputGuard {
    /// Builds a guard for `batch` streams of `dim` channels each.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::ZeroBatch`] if `batch` or `dim` is zero and
    /// [`InferError::InvalidGuardConfig`] if the config is inconsistent.
    pub fn new(cfg: GuardConfig, batch: usize, dim: usize) -> Result<Self, InferError> {
        cfg.validate()?;
        if batch == 0 || dim == 0 {
            return Err(InferError::ZeroBatch);
        }
        let channels = batch * dim;
        let k = match cfg.policy {
            DegradePolicy::MedianOfLast(k) => k,
            _ => 0,
        };
        let midpoint = 0.5 * (cfg.lo + cfg.hi);
        Ok(InputGuard {
            cfg,
            batch,
            dim,
            last_good: vec![midpoint; channels],
            seen_good: vec![false; channels],
            history: vec![0.0; channels * k],
            hist_len: vec![0; channels],
            hist_pos: vec![0; channels],
            median_buf: Vec::with_capacity(k),
            fault_ring: vec![false; batch * cfg.window],
            fault_count: vec![0; batch],
            health: vec![Health::Healthy; batch],
            steps: 0,
            stats: GuardStats::default(),
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &GuardConfig {
        &self.cfg
    }

    /// Current health per stream.
    pub fn health(&self) -> &[Health] {
        &self.health
    }

    /// Aggregate counters since creation or [`InputGuard::reset`].
    pub fn stats(&self) -> &GuardStats {
        &self.stats
    }

    /// Timesteps sanitized since creation or [`InputGuard::reset`].
    pub fn steps_seen(&self) -> usize {
        self.steps
    }

    /// Fraction of faulty timesteps in stream `stream`'s current health
    /// window — the raw statistic behind the [`Health`] classification,
    /// exported so drift detectors can watch degradation *before* it
    /// crosses a health threshold. `0.0` before any step is sanitized.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::ShapeMismatch`] if `stream` is out of range.
    pub fn fault_fraction(&self, stream: usize) -> Result<f64, InferError> {
        if stream >= self.batch {
            return Err(InferError::ShapeMismatch {
                what: "guard stream",
                expected: self.batch,
                found: stream,
            });
        }
        if self.steps == 0 {
            return Ok(0.0);
        }
        let seen = self.steps.min(self.cfg.window);
        Ok(f64::from(self.fault_count[stream]) / seen as f64)
    }

    /// Clears all state (counters included) for a fresh sequence.
    pub fn reset(&mut self) {
        let midpoint = 0.5 * (self.cfg.lo + self.cfg.hi);
        self.last_good.fill(midpoint);
        self.seen_good.fill(false);
        self.hist_len.fill(0);
        self.hist_pos.fill(0);
        self.fault_ring.fill(false);
        self.fault_count.fill(0);
        self.health.fill(Health::Healthy);
        self.steps = 0;
        self.stats = GuardStats::default();
    }

    /// Validates and repairs one timestep of readings
    /// (`[batch × dim]`) in place, then updates stream health. Valid
    /// samples pass through bit-unchanged; after the call every value is
    /// finite and within `[lo, hi]` — the guarded-path invariant.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::ShapeMismatch`] if `input` has the wrong
    /// length; no guard state changes on error.
    pub fn sanitize(&mut self, input: &mut [f64]) -> Result<(), InferError> {
        if input.len() != self.batch * self.dim {
            return Err(InferError::ShapeMismatch {
                what: "guard input",
                expected: self.batch * self.dim,
                found: input.len(),
            });
        }
        let k = match self.cfg.policy {
            DegradePolicy::MedianOfLast(k) => k,
            _ => 0,
        };
        for b in 0..self.batch {
            let mut stream_faulty = false;
            for i in 0..self.dim {
                let ch = b * self.dim + i;
                let v = input[ch];
                let nonfinite = !v.is_finite();
                let out_of_range = !nonfinite && !(self.cfg.lo..=self.cfg.hi).contains(&v);
                self.stats.samples += 1;
                if !nonfinite && !out_of_range {
                    self.last_good[ch] = v;
                    self.seen_good[ch] = true;
                    if k > 0 {
                        self.history[ch * k + self.hist_pos[ch] as usize] = v;
                        self.hist_pos[ch] = (self.hist_pos[ch] + 1) % k as u32;
                        self.hist_len[ch] = (self.hist_len[ch] + 1).min(k as u32);
                    }
                    continue;
                }
                stream_faulty = true;
                if nonfinite {
                    self.stats.nonfinite += 1;
                } else {
                    self.stats.out_of_range += 1;
                }
                self.stats.repaired += 1;
                input[ch] = self.replacement(ch, v, k);
                debug_assert!(input[ch].is_finite());
            }
            self.update_health(b, stream_faulty);
        }
        self.steps += 1;
        Ok(())
    }

    /// The repaired value for channel `ch` whose reading `v` was rejected.
    /// Always finite and inside `[lo, hi]`.
    fn replacement(&mut self, ch: usize, v: f64, k: usize) -> f64 {
        let fallback = self.last_good[ch]; // midpoint until a good sample
        let repaired = match self.cfg.policy {
            DegradePolicy::Clamp => {
                if v.is_nan() {
                    fallback
                } else {
                    // Finite out-of-range and ±∞ both snap to a bound.
                    v.clamp(self.cfg.lo, self.cfg.hi)
                }
            }
            DegradePolicy::HoldLast => fallback,
            DegradePolicy::MedianOfLast(_) => {
                let len = self.hist_len[ch] as usize;
                if len == 0 {
                    fallback
                } else {
                    self.median_buf.clear();
                    self.median_buf
                        .extend_from_slice(&self.history[ch * k..ch * k + len]);
                    self.median_buf
                        .sort_unstable_by(|a, b| a.partial_cmp(b).expect("history is finite"));
                    if len % 2 == 1 {
                        self.median_buf[len / 2]
                    } else {
                        0.5 * (self.median_buf[len / 2 - 1] + self.median_buf[len / 2])
                    }
                }
            }
        };
        debug_assert!(repaired.is_finite());
        repaired
    }

    /// Slides the health window of stream `b` by one step and reclassifies.
    fn update_health(&mut self, b: usize, faulty: bool) {
        let w = self.cfg.window;
        let slot = b * w + self.steps % w;
        if self.fault_ring[slot] {
            self.fault_count[b] -= 1;
        }
        self.fault_ring[slot] = faulty;
        if faulty {
            self.fault_count[b] += 1;
        }
        let seen = (self.steps + 1).min(w);
        let frac = f64::from(self.fault_count[b]) / seen as f64;
        let next = if frac >= self.cfg.faulted_frac {
            Health::Faulted
        } else if frac >= self.cfg.degraded_frac {
            Health::Degraded
        } else {
            Health::Healthy
        };
        if next != self.health[b] {
            self.stats.transitions += 1;
            let name = match next {
                Health::Healthy => "infer.guard.to_healthy",
                Health::Degraded => "infer.guard.to_degraded",
                Health::Faulted => "infer.guard.to_faulted",
            };
            ptnc_telemetry::counter(name, 1);
            self.health[b] = next;
        }
    }
}

impl InferModel {
    /// Runs `batch` sequences like [`InferModel::run_batch`], but through
    /// the guarded input path: each timestep is sanitized by `guard`
    /// before entering the recurrence, so the returned logits are finite
    /// for arbitrary input. `guard` accumulates stats and per-stream
    /// health across the run (reset it between unrelated runs).
    ///
    /// # Errors
    ///
    /// Returns [`InferError::ZeroBatch`] if `batch` is zero and
    /// [`InferError::ShapeMismatch`] if `steps` is empty or not a whole
    /// number of timesteps, or if `guard` was sized for a different
    /// `[batch × input_dim]`. Guard state is untouched on error.
    pub fn run_batch_guarded(
        &self,
        steps: &[f64],
        batch: usize,
        guard: &mut InputGuard,
    ) -> Result<Vec<f64>, InferError> {
        if batch == 0 {
            return Err(InferError::ZeroBatch);
        }
        let dim = self.spec().input_dim;
        let step_len = batch * dim;
        if steps.is_empty() || !steps.len().is_multiple_of(step_len) {
            return Err(InferError::ShapeMismatch {
                what: "steps",
                expected: step_len,
                found: steps.len(),
            });
        }
        if guard.batch != batch {
            return Err(InferError::ShapeMismatch {
                what: "guard batch",
                expected: batch,
                found: guard.batch,
            });
        }
        if guard.dim != dim {
            return Err(InferError::ShapeMismatch {
                what: "guard dim",
                expected: dim,
                found: guard.dim,
            });
        }
        let mut sanitized = steps.to_vec();
        for step in sanitized.chunks_exact_mut(step_len) {
            guard
                .sanitize(step)
                .expect("buffer sized to the guard above");
        }
        self.run_batch(&sanitized, batch)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::model::InferSpec;

    fn model() -> Arc<InferModel> {
        let spec = InferSpec {
            input_dim: 2,
            hidden: 3,
            classes: 2,
            stages: 2,
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

    #[test]
    fn clean_input_passes_through_bit_identical() {
        let m = model();
        let steps: Vec<f64> = (0..48).map(|i| (i as f64 * 0.3).sin()).collect();
        let clean = m.run_batch(&steps, 1).unwrap();
        let mut guard = InputGuard::new(GuardConfig::default_policy(), 1, 2).unwrap();
        let guarded = m.run_batch_guarded(&steps, 1, &mut guard).unwrap();
        assert_eq!(clean, guarded, "guard must not disturb valid input");
        assert_eq!(guard.stats().repaired, 0);
        assert_eq!(guard.health(), &[Health::Healthy]);
    }

    #[test]
    fn nan_never_reaches_filter_state() {
        let m = model();
        let mut guard = InputGuard::new(GuardConfig::default_policy(), 1, 2).unwrap();
        let mut session = m.session();
        let mut scratch = m.make_scratch(1).unwrap();
        let mut logits = [0.0; 2];
        for t in 0..64 {
            let x = if t % 3 == 0 { f64::NAN } else { 0.2 };
            let mut step = [x, f64::INFINITY];
            guard.sanitize(&mut step).unwrap();
            session.run_chunk(&step, &mut scratch, &mut logits).unwrap();
            assert!(logits.iter().all(|v| v.is_finite()), "step {t}");
            assert!(session.state_is_finite(), "state poisoned at step {t}");
        }
        assert!(guard.stats().nonfinite > 0);
    }

    #[test]
    fn hold_last_repeats_last_good_value() {
        let mut guard = InputGuard::new(GuardConfig::default_policy(), 1, 1).unwrap();
        let mut a = [1.5];
        guard.sanitize(&mut a).unwrap();
        let mut b = [f64::NAN];
        guard.sanitize(&mut b).unwrap();
        assert_eq!(b[0], 1.5);
        assert_eq!(guard.stats().repaired, 1);
    }

    #[test]
    fn clamp_snaps_to_bounds() {
        let cfg = GuardConfig::default_policy().with_policy(DegradePolicy::Clamp);
        let mut guard = InputGuard::new(cfg, 1, 4).unwrap();
        let mut v = [100.0, f64::NEG_INFINITY, f64::NAN, -0.5];
        guard.sanitize(&mut v).unwrap();
        assert_eq!(v[0], 6.0);
        assert_eq!(v[1], -6.0);
        assert_eq!(v[2], 0.0, "NaN falls back to midpoint before good data");
        assert_eq!(v[3], -0.5);
    }

    #[test]
    fn median_policy_resists_spikes() {
        let cfg = GuardConfig::default_policy().with_policy(DegradePolicy::MedianOfLast(5));
        let mut guard = InputGuard::new(cfg, 1, 1).unwrap();
        for x in [1.0, 2.0, 100.0f64.min(3.0), 2.0, 1.0] {
            guard.sanitize(&mut [x]).unwrap();
        }
        let mut v = [f64::NAN];
        guard.sanitize(&mut v).unwrap();
        assert_eq!(v[0], 2.0, "median of 1,2,3,2,1");
        // Even history length averages the middle pair.
        let cfg = GuardConfig::default_policy().with_policy(DegradePolicy::MedianOfLast(4));
        let mut guard = InputGuard::new(cfg, 1, 1).unwrap();
        for x in [1.0, 2.0] {
            guard.sanitize(&mut [x]).unwrap();
        }
        let mut v = [f64::INFINITY];
        guard.sanitize(&mut v).unwrap();
        assert_eq!(v[0], 1.5);
    }

    #[test]
    fn health_degrades_and_recovers() {
        let cfg = GuardConfig {
            window: 8,
            ..GuardConfig::default_policy()
        };
        let mut guard = InputGuard::new(cfg, 1, 1).unwrap();
        // Healthy on clean data.
        for _ in 0..8 {
            guard.sanitize(&mut [0.1]).unwrap();
        }
        assert_eq!(guard.health(), &[Health::Healthy]);
        // A solid NaN burst drives the stream to Faulted...
        for _ in 0..8 {
            guard.sanitize(&mut [f64::NAN]).unwrap();
        }
        assert_eq!(guard.health(), &[Health::Faulted]);
        // ...and clean data flushes the window back to Healthy.
        for _ in 0..8 {
            guard.sanitize(&mut [0.1]).unwrap();
        }
        assert_eq!(guard.health(), &[Health::Healthy]);
        assert!(guard.stats().transitions >= 2);
    }

    #[test]
    fn transitions_are_reported_as_telemetry_counters() {
        let ((), events) = ptnc_telemetry::collect(|| {
            let cfg = GuardConfig {
                window: 4,
                ..GuardConfig::default_policy()
            };
            let mut guard = InputGuard::new(cfg, 1, 1).unwrap();
            for _ in 0..4 {
                guard.sanitize(&mut [f64::NAN]).unwrap();
            }
            for _ in 0..8 {
                guard.sanitize(&mut [0.0]).unwrap();
            }
        });
        assert!(ptnc_telemetry::counter_total(&events, "infer.guard.to_faulted") >= 1.0);
        assert!(ptnc_telemetry::counter_total(&events, "infer.guard.to_healthy") >= 1.0);
    }

    #[test]
    fn fault_fraction_tracks_window_density() {
        let cfg = GuardConfig {
            window: 4,
            ..GuardConfig::default_policy()
        };
        let mut guard = InputGuard::new(cfg, 2, 1).unwrap();
        assert_eq!(guard.fault_fraction(0).unwrap(), 0.0, "no steps yet");
        // Stream 0 clean, stream 1 faulty every other step.
        for t in 0..4 {
            let s1 = if t % 2 == 0 { f64::NAN } else { 0.1 };
            guard.sanitize(&mut [0.2, s1]).unwrap();
        }
        assert_eq!(guard.fault_fraction(0).unwrap(), 0.0);
        assert_eq!(guard.fault_fraction(1).unwrap(), 0.5);
        assert!(matches!(
            guard.fault_fraction(2),
            Err(InferError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn per_stream_health_is_independent() {
        let m = model();
        let mut guard = InputGuard::new(GuardConfig::default_policy(), 2, 2).unwrap();
        let mut scratch = m.make_scratch(2).unwrap();
        let mut logits = [0.0; 4];
        for _ in 0..32 {
            // Stream 0 clean, stream 1 all-NaN.
            let mut step = [0.3, -0.1, f64::NAN, f64::NAN];
            guard.sanitize(&mut step).unwrap();
            m.run_chunk_into(&step, 2, &mut scratch, &mut logits)
                .unwrap();
        }
        assert_eq!(guard.health()[0], Health::Healthy);
        assert_eq!(guard.health()[1], Health::Faulted);
        assert!(scratch.states_are_finite());
    }

    #[test]
    fn guarded_reset_replays_identically() {
        let m = model();
        let mut guard = InputGuard::new(GuardConfig::default_policy(), 1, 2).unwrap();
        let mut session = m.session();
        let mut scratch = m.make_scratch(1).unwrap();
        let inputs: Vec<[f64; 2]> = (0..20)
            .map(|t| {
                if t % 4 == 0 {
                    [f64::NAN, 0.5]
                } else {
                    [(t as f64 * 0.3).sin(), 0.5]
                }
            })
            .collect();
        let mut run = |guard: &mut InputGuard, session: &mut crate::StreamSession| {
            let mut logits = vec![0.0; 2];
            for x in &inputs {
                let mut step = *x;
                guard.sanitize(&mut step).unwrap();
                session.run_chunk(&step, &mut scratch, &mut logits).unwrap();
            }
            logits
        };
        let first = run(&mut guard, &mut session);
        guard.reset();
        session.reset();
        assert_eq!(guard.stats().samples, 0);
        let second = run(&mut guard, &mut session);
        assert_eq!(first, second);
    }

    #[test]
    fn wrong_width_is_a_typed_error() {
        let mut guard = InputGuard::new(GuardConfig::default_policy(), 1, 2).unwrap();
        assert_eq!(
            guard.sanitize(&mut [0.0]).unwrap_err(),
            InferError::ShapeMismatch {
                what: "guard input",
                expected: 2,
                found: 1,
            }
        );
        assert_eq!(guard.stats().samples, 0, "failed step must not count");
        assert_eq!(guard.steps_seen(), 0);
    }

    #[test]
    fn inconsistent_thresholds_are_a_typed_error() {
        let cfg = GuardConfig {
            degraded_frac: 0.9,
            faulted_frac: 0.1,
            ..GuardConfig::default_policy()
        };
        assert!(matches!(
            InputGuard::new(cfg, 1, 1),
            Err(InferError::InvalidGuardConfig { reason })
                if reason.contains("thresholds")
        ));
        assert!(matches!(
            InputGuard::new(GuardConfig::default_policy(), 0, 1),
            Err(InferError::ZeroBatch)
        ));
        let median0 = GuardConfig::default_policy().with_policy(DegradePolicy::MedianOfLast(0));
        assert!(matches!(
            InputGuard::new(median0, 1, 1),
            Err(InferError::InvalidGuardConfig { .. })
        ));
    }
}
