//! Deterministic per-stream drift detection.
//!
//! Each stream gets a [`DriftDetector`] fed with one scalar statistic per
//! observation — typically the resident SO-LF state RMS exported by
//! [`ptnc_infer::StreamSession::state_rms`] or
//! [`ptnc_infer::Scratch::lane_state_rms`] — plus the guard-window fault
//! fraction from [`ptnc_infer::InputGuard::fault_fraction`]. The
//! detector freezes a baseline over the first `baseline_window`
//! observations (Welford mean/variance), then runs a two-sided CUSUM on
//! the normalized deviation from that baseline. A sustained mean shift in
//! either direction trips the detector; a single-step fault-fraction spike
//! past `fault_fraction_trip` trips it immediately.
//!
//! The detector is a pure function of its observation sequence: no clocks,
//! no RNG, no thread state. Feeding the same scalars in the same order
//! always produces the same trip decision on the same step.

/// Tuning knobs for one [`DriftDetector`].
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Observations used to freeze the baseline mean/std before the CUSUM
    /// arms. Must be at least 2.
    pub baseline_window: usize,
    /// CUSUM slack `k`: per-step allowance (in baseline standard
    /// deviations) subtracted before accumulating. Larger values ignore
    /// slower drifts. Must be non-negative.
    pub slack: f64,
    /// CUSUM decision threshold `h` (in accumulated standard deviations).
    /// Must be positive.
    pub threshold: f64,
    /// Guard-window fault fraction that trips the detector immediately,
    /// bypassing the CUSUM. Must be in `(0, 1]`.
    pub fault_fraction_trip: f64,
    /// Floor on the baseline standard deviation, so a near-constant
    /// baseline does not turn measurement noise into infinite z-scores.
    /// Must be positive.
    pub min_std: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            baseline_window: 16,
            slack: 0.5,
            threshold: 5.0,
            fault_fraction_trip: 0.5,
            min_std: 1e-6,
        }
    }
}

impl DetectorConfig {
    fn validate(&self) {
        assert!(
            self.baseline_window >= 2,
            "baseline_window must be at least 2"
        );
        assert!(self.slack >= 0.0, "slack must be non-negative");
        assert!(
            self.threshold > 0.0 && self.threshold.is_finite(),
            "threshold must be positive and finite"
        );
        assert!(
            self.fault_fraction_trip > 0.0 && self.fault_fraction_trip <= 1.0,
            "fault_fraction_trip must be in (0, 1]"
        );
        assert!(
            self.min_std > 0.0 && self.min_std.is_finite(),
            "min_std must be positive and finite"
        );
    }
}

/// Two-sided CUSUM drift detector for one stream's scalar statistic.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    cfg: DetectorConfig,
    // Welford accumulator while the baseline is still forming.
    count: usize,
    mean: f64,
    m2: f64,
    // Frozen once `count == baseline_window`.
    base_mean: f64,
    base_std: f64,
    pos: f64,
    neg: f64,
    tripped: bool,
}

impl DriftDetector {
    /// A fresh, un-armed detector.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is out of range (see the field docs on
    /// [`DetectorConfig`]).
    pub fn new(cfg: DetectorConfig) -> Self {
        cfg.validate();
        DriftDetector {
            cfg,
            count: 0,
            mean: 0.0,
            m2: 0.0,
            base_mean: 0.0,
            base_std: 0.0,
            pos: 0.0,
            neg: 0.0,
            tripped: false,
        }
    }

    /// Whether the detector has tripped. Latches until [`reset`](Self::reset).
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Whether the baseline window has filled and the CUSUM is armed.
    pub fn armed(&self) -> bool {
        self.count >= self.cfg.baseline_window
    }

    /// Feeds one statistic observation; returns the (latched) trip state.
    ///
    /// Non-finite observations trip immediately: a NaN state statistic
    /// means the resident filter state is already poisoned.
    pub fn observe(&mut self, value: f64) -> bool {
        if self.tripped {
            return true;
        }
        if !value.is_finite() {
            self.tripped = true;
            return true;
        }
        if self.count < self.cfg.baseline_window {
            // Welford update while the baseline forms.
            self.count += 1;
            let delta = value - self.mean;
            self.mean += delta / self.count as f64;
            self.m2 += delta * (value - self.mean);
            if self.count == self.cfg.baseline_window {
                self.base_mean = self.mean;
                let var = self.m2 / (self.count - 1) as f64;
                self.base_std = var.sqrt().max(self.cfg.min_std);
            }
            return false;
        }
        let z = (value - self.base_mean) / self.base_std;
        self.pos = (self.pos + z - self.cfg.slack).max(0.0);
        self.neg = (self.neg - z - self.cfg.slack).max(0.0);
        if self.pos > self.cfg.threshold || self.neg > self.cfg.threshold {
            self.tripped = true;
        }
        self.tripped
    }

    /// Feeds one guard-window fault fraction; returns the trip state.
    ///
    /// Unlike [`observe`](Self::observe) this is a direct threshold, not a
    /// CUSUM: a window whose fault density crosses the configured trip
    /// level is already degraded and should not wait for accumulation.
    pub fn observe_fault_fraction(&mut self, fraction: f64) -> bool {
        if self.tripped {
            return true;
        }
        if !fraction.is_finite() || fraction >= self.cfg.fault_fraction_trip {
            self.tripped = true;
        }
        self.tripped
    }

    /// Re-arms the detector after an adaptation round: the refit model has
    /// a new statistic distribution, so the baseline re-forms from scratch.
    pub fn reset(&mut self) {
        self.count = 0;
        self.mean = 0.0;
        self.m2 = 0.0;
        self.base_mean = 0.0;
        self.base_std = 0.0;
        self.pos = 0.0;
        self.neg = 0.0;
        self.tripped = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            baseline_window: 8,
            slack: 0.5,
            threshold: 4.0,
            fault_fraction_trip: 0.5,
            min_std: 1e-6,
        }
    }

    /// Deterministic wiggle around `center` with unit-ish spread.
    fn wiggle(center: f64, i: usize) -> f64 {
        center + 0.3 * ((i as f64) * 1.7).sin()
    }

    #[test]
    fn stationary_statistics_never_trip() {
        let mut d = DriftDetector::new(cfg());
        for i in 0..500 {
            assert!(!d.observe(wiggle(1.0, i)), "false trip at step {i}");
        }
        assert!(d.armed());
        assert!(!d.tripped());
    }

    #[test]
    fn sustained_mean_shift_trips_in_either_direction() {
        for shift in [2.0, -2.0] {
            let mut d = DriftDetector::new(cfg());
            for i in 0..50 {
                d.observe(wiggle(1.0, i));
            }
            assert!(!d.tripped());
            let mut trip_step = None;
            for i in 0..200 {
                if d.observe(wiggle(1.0 + shift, i)) {
                    trip_step = Some(i);
                    break;
                }
            }
            assert!(
                trip_step.is_some(),
                "shift {shift} never tripped the detector"
            );
        }
    }

    #[test]
    fn trip_latches_and_reset_rearms() {
        let mut d = DriftDetector::new(cfg());
        for i in 0..20 {
            d.observe(wiggle(0.0, i));
        }
        for i in 0..200 {
            if d.observe(wiggle(5.0, i)) {
                break;
            }
        }
        assert!(d.tripped());
        // Latched: healthy observations do not clear it.
        d.observe(0.0);
        assert!(d.tripped());
        d.reset();
        assert!(!d.tripped());
        assert!(!d.armed());
        for i in 0..100 {
            assert!(
                !d.observe(wiggle(5.0, i)),
                "re-baselined level false-tripped"
            );
        }
    }

    #[test]
    fn fault_fraction_trips_immediately_and_nan_statistic_trips() {
        let mut d = DriftDetector::new(cfg());
        assert!(!d.observe_fault_fraction(0.2));
        assert!(d.observe_fault_fraction(0.5));
        assert!(d.tripped());

        let mut d = DriftDetector::new(cfg());
        assert!(d.observe(f64::NAN));
        assert!(d.tripped());
    }

    #[test]
    fn detection_is_a_pure_function_of_the_observation_sequence() {
        let seq: Vec<f64> = (0..120)
            .map(|i| wiggle(if i < 60 { 1.0 } else { 2.5 }, i))
            .collect();
        let run = || {
            let mut d = DriftDetector::new(cfg());
            seq.iter().map(|&v| d.observe(v)).collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
        assert!(run().iter().any(|&t| t), "sequence should trip");
    }
}
