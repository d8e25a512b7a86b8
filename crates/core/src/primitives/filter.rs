//! Learnable printed low-pass filters: first-order (baseline pTPNC, prior
//! work [8]) and the paper's **second-order learnable filter (SO-LF)**.
//!
//! Each filter stage is an RC section with the discrete-time update of paper
//! Eq. (10)/(11), which includes the crossbar-coupling factor μ:
//!
//! ```text
//! V[k] = a·V[k−1] + b·Vin[k],   a = RC/(μRC + Δt),   b = Δt/(μRC + Δt)
//! ```
//!
//! R and C are trained *separately* (in log-space; the paper calls this out
//! as the difference from prior work) and projected to printable ranges after
//! every optimizer step. μ and the initial voltage V₀ are random but not
//! trainable (§III-A).

use rand::Rng;

use ptnc_tensor::Tensor;

use crate::pdk::Pdk;
use crate::variation::VariationConfig;

/// Filter order: first-order for the baseline pTPNC, second-order (two
/// cascaded learnable RC sections) for ADAPT-pNC, third-order as the
/// architecture-search extension the paper's future-work section suggests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterOrder {
    /// One RC section per filter (prior work / baseline).
    First,
    /// Two back-to-back RC sections per filter (the paper's SO-LF).
    Second,
    /// Three cascaded RC sections (extension beyond the paper).
    Third,
}

impl FilterOrder {
    /// Number of RC stages.
    pub fn stages(self) -> usize {
        match self {
            FilterOrder::First => 1,
            FilterOrder::Second => 2,
            FilterOrder::Third => 3,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FilterOrder::First => "1st",
            FilterOrder::Second => "2nd",
            FilterOrder::Third => "3rd",
        }
    }
}

/// One joint variation sample for a filter bank.
#[derive(Debug, Clone)]
pub struct FilterNoise {
    /// ε for each stage's resistors, each `[width]`.
    pub eps_r: Vec<Tensor>,
    /// ε for each stage's capacitors, each `[width]`.
    pub eps_c: Vec<Tensor>,
    /// Coupling factor μ per stage, each `[width]`.
    pub mu: Vec<Tensor>,
    /// Initial stage voltage per stage, each `[width]`.
    pub v0: Vec<Tensor>,
}

/// Per-stage recurrence coefficients and initial voltages for one variation
/// sample, materialized once per forward pass.
#[derive(Debug, Clone)]
pub struct FilterCoefficients {
    /// Decay factors `a = RC/(μRC + Δt)` per stage, each `[width]`.
    pub a: Vec<Tensor>,
    /// Input factors `b = Δt/(μRC + Δt)` per stage, each `[width]`.
    pub b: Vec<Tensor>,
    /// Initial stage voltages per stage, each `[width]` (zero at nominal).
    pub v0: Vec<Tensor>,
}

/// A bank of `width` independent learnable low-pass filters.
#[derive(Debug, Clone)]
pub struct FilterBank {
    order: FilterOrder,
    width: usize,
    log_r: Vec<Tensor>,
    log_c: Vec<Tensor>,
    dt: f64,
    mu_nominal: f64,
}

impl FilterBank {
    /// Creates a bank of `width` filters with time constants initialized
    /// log-uniformly across the printable window, so the bank covers a range
    /// of cutoff frequencies before training.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(
        order: FilterOrder,
        width: usize,
        pdk: &Pdk,
        mu_nominal: f64,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(width > 0, "zero-width filter bank");
        let stages = order.stages();
        let mut log_r = Vec::with_capacity(stages);
        let mut log_c = Vec::with_capacity(stages);
        for _ in 0..stages {
            let r: Vec<f64> = (0..width)
                .map(|_| {
                    rng.gen_range((2.0 * pdk.filter_r_min).ln()..(0.9 * pdk.filter_r_max).ln())
                })
                .collect();
            let c: Vec<f64> = (0..width)
                .map(|_| rng.gen_range((10.0 * pdk.cap_min).ln()..(0.5 * pdk.cap_max).ln()))
                .collect();
            log_r.push(Tensor::leaf(&[width], r));
            log_c.push(Tensor::leaf(&[width], c));
        }
        FilterBank {
            order,
            width,
            log_r,
            log_c,
            dt: pdk.dt,
            mu_nominal,
        }
    }

    /// Filter order.
    pub fn order(&self) -> FilterOrder {
        self.order
    }

    /// Number of filters in the bank.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The nominal crossbar-coupling factor μ the bank was designed at.
    pub fn mu_nominal(&self) -> f64 {
        self.mu_nominal
    }

    /// The discretization step the bank integrates with.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Capacitors used by the bank (one per stage per filter) — the Table III
    /// hardware driver.
    pub fn capacitor_count(&self) -> usize {
        self.order.stages() * self.width
    }

    /// Resistors used by the bank.
    pub fn resistor_count(&self) -> usize {
        self.order.stages() * self.width
    }

    /// Materializes the per-stage recurrence coefficients `a`, `b` and the
    /// initial voltages `V₀` (each `[width]`) for one variation sample — the
    /// sub-graph shared by every time step of a forward pass. Differentiable
    /// through R and C; μ and V₀ are not trainable (§III-A).
    pub fn coefficients(&self, noise: Option<&FilterNoise>) -> FilterCoefficients {
        let stages = self.order.stages();
        let mut coeff_a = Vec::with_capacity(stages);
        let mut coeff_b = Vec::with_capacity(stages);
        let mut v0s = Vec::with_capacity(stages);
        for s in 0..stages {
            let mut r = self.log_r[s].exp();
            let mut c = self.log_c[s].exp();
            if let Some(n) = noise {
                r = r.mul(&n.eps_r[s]);
                c = c.mul(&n.eps_c[s]);
            }
            let rc = r.mul(&c);
            let mu = match noise {
                Some(n) => n.mu[s].clone(),
                None => Tensor::full(&[self.width], self.mu_nominal),
            };
            let denom = mu.mul(&rc).add_scalar(self.dt);
            coeff_a.push(rc.div(&denom));
            coeff_b.push(denom.powf(-1.0).mul_scalar(self.dt));
            v0s.push(match noise {
                Some(n) => n.v0[s].clone(),
                None => Tensor::zeros(&[self.width]),
            });
        }
        FilterCoefficients {
            a: coeff_a,
            b: coeff_b,
            v0: v0s,
        }
    }

    /// Filters a sequence of `[batch, width]` tensors, returning the filtered
    /// sequence (same length). Differentiable through R and C.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or widths mismatch.
    pub fn forward_sequence(&self, steps: &[Tensor], noise: Option<&FilterNoise>) -> Vec<Tensor> {
        assert!(!steps.is_empty(), "empty sequence");
        assert_eq!(
            steps[0].dims()[1],
            self.width,
            "filter bank width {} does not match input {:?}",
            self.width,
            steps[0].dims()
        );
        let batch = steps[0].dims()[0];
        let stages = self.order.stages();
        let co = self.coefficients(noise);
        // Initial stage voltages broadcast over the batch.
        let mut states: Vec<Tensor> = co
            .v0
            .iter()
            .map(|v0| Tensor::zeros(&[batch, self.width]).add(v0))
            .collect();

        let mut out = Vec::with_capacity(steps.len());
        for x in steps {
            let mut stage_in = x.clone();
            for (state, (a, b)) in states.iter_mut().zip(co.a.iter().zip(&co.b)) {
                // Fused a⊙state + b⊙input kernel (one node per stage-step).
                *state = Tensor::filter_step(state, a, &stage_in, b);
                stage_in = state.clone();
            }
            out.push(states[stages - 1].clone());
        }
        out
    }

    /// The trainable parameters (log R then log C per stage).
    pub fn parameters(&self) -> Vec<Tensor> {
        let mut p = Vec::new();
        for s in 0..self.order.stages() {
            p.push(self.log_r[s].clone());
            p.push(self.log_c[s].clone());
        }
        p
    }

    /// Samples a joint variation instance (component ε, μ and V₀).
    pub fn sample_noise(&self, cfg: &VariationConfig, rng: &mut impl Rng) -> FilterNoise {
        let stages = self.order.stages();
        FilterNoise {
            eps_r: (0..stages)
                .map(|_| cfg.epsilon(&[self.width], rng))
                .collect(),
            eps_c: (0..stages)
                .map(|_| cfg.epsilon(&[self.width], rng))
                .collect(),
            mu: (0..stages).map(|_| cfg.mu(&[self.width], rng)).collect(),
            v0: (0..stages).map(|_| cfg.v0(&[self.width], rng)).collect(),
        }
    }

    /// Projects R and C into the printable window after an optimizer step.
    pub fn project(&self, pdk: &Pdk) {
        let (r_lo, r_hi) = (pdk.filter_r_min.ln(), pdk.filter_r_max.ln());
        let (c_lo, c_hi) = (pdk.cap_min.ln(), pdk.cap_max.ln());
        for s in 0..self.order.stages() {
            self.log_r[s].map_data_in_place(|v| v.clamp(r_lo, r_hi));
            self.log_c[s].map_data_in_place(|v| v.clamp(c_lo, c_hi));
        }
    }

    /// Nominal per-stage time constants `R·C` in seconds, `[stage][filter]`.
    pub fn time_constants(&self) -> Vec<Vec<f64>> {
        (0..self.order.stages())
            .map(|s| {
                self.log_r[s]
                    .to_vec()
                    .iter()
                    .zip(self.log_c[s].to_vec().iter())
                    .map(|(lr, lc)| (lr + lc).exp())
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptnc_tensor::{gradcheck, init};

    fn pdk() -> Pdk {
        Pdk::paper_default()
    }

    fn bank(order: FilterOrder, width: usize, seed: u64) -> FilterBank {
        FilterBank::new(order, width, &pdk(), 1.15, &mut init::rng(seed))
    }

    fn constant_steps(n: usize, batch: usize, width: usize, value: f64) -> Vec<Tensor> {
        (0..n)
            .map(|_| Tensor::full(&[batch, width], value))
            .collect()
    }

    #[test]
    fn step_response_is_monotone_and_bounded() {
        let fb = bank(FilterOrder::First, 1, 0);
        let out = fb.forward_sequence(&constant_steps(100, 1, 1, 1.0), None);
        let trace: Vec<f64> = out.iter().map(|t| t.item()).collect();
        for w in trace.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "step response must be monotone");
        }
        // With μ > 1 the DC gain is below 1 (lossy coupling).
        let steady = trace.last().unwrap();
        assert!(*steady < 1.0 && *steady > 0.3, "steady state {steady}");
    }

    #[test]
    fn dc_gain_matches_theory() {
        // Steady state of V = aV + b·1 is b/(1−a) = Δt/(Δt + (μ−1)RC).
        let fb = bank(FilterOrder::First, 1, 1);
        let rc = fb.time_constants()[0][0];
        let expected = 0.01 / (0.01 + 0.15 * rc);
        let out = fb.forward_sequence(&constant_steps(5000, 1, 1, 1.0), None);
        let steady = out.last().unwrap().item();
        assert!(
            (steady - expected).abs() < 1e-6,
            "steady {steady}, expected {expected}"
        );
    }

    #[test]
    fn second_order_lags_first_order() {
        let f1 = bank(FilterOrder::First, 1, 2);
        let f2 = bank(FilterOrder::Second, 1, 2);
        // Same RC on every stage for a fair comparison.
        for p in f1.parameters().iter().chain(f2.parameters().iter()) {
            p.set_data(vec![if p.to_vec()[0] < 0.0 {
                (2e-5f64).ln()
            } else {
                (500.0f64).ln()
            }]);
        }
        let steps = constant_steps(8, 1, 1, 1.0);
        let o1 = f1.forward_sequence(&steps, None);
        let o2 = f2.forward_sequence(&steps, None);
        assert!(
            o2[7].item() < o1[7].item(),
            "second-order early response must lag"
        );
    }

    #[test]
    fn filters_suppress_high_frequency_noise() {
        let fb = bank(FilterOrder::Second, 1, 3);
        // Pin both stages at a long time constant (R = 800 Ω, C = 50 µF).
        for p in fb.parameters() {
            let is_log_c = p.to_vec()[0] < 0.0;
            p.set_data(vec![if is_log_c {
                (5e-5f64).ln()
            } else {
                (800.0f64).ln()
            }]);
        }
        // Alternating ±1: the fastest representable signal.
        let steps: Vec<Tensor> = (0..200)
            .map(|k| Tensor::full(&[1, 1], if k % 2 == 0 { 1.0 } else { -1.0 }))
            .collect();
        let out = fb.forward_sequence(&steps, None);
        let tail_amp = out[150..]
            .iter()
            .map(|t| t.item().abs())
            .fold(0.0f64, f64::max);
        assert!(tail_amp < 0.3, "HF residual {tail_amp}");
    }

    #[test]
    fn gradients_flow_to_r_and_c() {
        let fb = bank(FilterOrder::Second, 3, 4);
        let steps = constant_steps(10, 2, 3, 0.5);
        let out = fb.forward_sequence(&steps, None);
        out.last().unwrap().sum_all().backward();
        for p in fb.parameters() {
            let g = p.grad_opt().expect("gradient missing");
            assert!(g.iter().any(|v| v.abs() > 0.0), "zero gradient");
        }
    }

    #[test]
    fn gradcheck_through_recurrence() {
        let fb = bank(FilterOrder::Second, 2, 5);
        let steps: Vec<Tensor> = (0..6)
            .map(|k| {
                Tensor::from_vec(
                    &[1, 2],
                    vec![(k as f64 * 0.9).sin(), (k as f64 * 0.4).cos()],
                )
            })
            .collect();
        gradcheck::check(
            || {
                let out = fb.forward_sequence(&steps, None);
                out.last().unwrap().square().sum_all()
            },
            &fb.parameters(),
            1e-4,
        );
    }

    #[test]
    fn projection_keeps_printable() {
        let fb = bank(FilterOrder::First, 2, 6);
        fb.parameters()[0].set_data(vec![100.0, -100.0]); // absurd log R
        fb.project(&pdk());
        let r: Vec<f64> = fb.parameters()[0]
            .to_vec()
            .iter()
            .map(|v| v.exp())
            .collect();
        assert!(r[0] <= 1000.0 + 1e-9 && r[1] >= 50.0 - 1e-9);
    }

    #[test]
    fn v0_noise_changes_transient_only() {
        let fb = bank(FilterOrder::First, 1, 7);
        let cfg = VariationConfig {
            delta: 0.0,
            mu_lo: 1.15,
            mu_hi: 1.15 + 1e-12,
            v0_amp: 0.05,
        };
        let noise = fb.sample_noise(&cfg, &mut init::rng(8));
        let steps = constant_steps(300, 1, 1, 1.0);
        let nom = fb.forward_sequence(&steps, None);
        let var = fb.forward_sequence(&steps, Some(&noise));
        // Early samples differ (initial condition)…
        assert!((nom[0].item() - var[0].item()).abs() > 1e-9);
        // …but the steady state does not.
        assert!((nom[299].item() - var[299].item()).abs() < 1e-6);
    }

    #[test]
    fn capacitor_counts_match_order() {
        assert_eq!(bank(FilterOrder::First, 5, 9).capacitor_count(), 5);
        assert_eq!(bank(FilterOrder::Second, 5, 9).capacitor_count(), 10);
    }
}
