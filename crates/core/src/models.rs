//! The printed temporal-processing models: the baseline **pTPNC** (first-
//! order filters, prior work \[8\]) and the proposed **ADAPT-pNC** (SO-LF).
//!
//! Both are stacks of printed temporal processing blocks (pTPB, paper
//! Fig. 4): `crossbar → learnable filter bank → ptanh`, with one filter per
//! crossbar output (`N_F` matches the layer fan-out, §IV-A3). Classification
//! reads the last-time-step voltages of the final layer.

use rand::Rng;

use ptnc_tensor::{PtpbValues, Tensor};

use crate::pdk::{Pdk, LOGIT_SCALE};
pub use crate::primitives::FilterOrder;
use crate::primitives::{FilterBank, PrintedCrossbar, PtanhActivation};
use crate::variation::{LayerNoise, ModelNoise, VariationConfig};

/// One printed temporal processing block.
#[derive(Debug, Clone)]
pub struct Ptpb {
    crossbar: PrintedCrossbar,
    filters: FilterBank,
    activation: PtanhActivation,
}

impl Ptpb {
    /// Creates a block mapping `fan_in` inputs to `fan_out` outputs.
    pub fn new(
        fan_in: usize,
        fan_out: usize,
        order: FilterOrder,
        pdk: &Pdk,
        mu_nominal: f64,
        rng: &mut impl Rng,
    ) -> Self {
        Ptpb {
            crossbar: PrintedCrossbar::new(fan_in, fan_out, pdk, rng),
            filters: FilterBank::new(order, fan_out, pdk, mu_nominal, rng),
            activation: PtanhActivation::new(fan_out, rng),
        }
    }

    /// Processes a sequence of `[batch, fan_in]` tensors into a sequence of
    /// `[batch, fan_out]` tensors.
    ///
    /// The noise-perturbed effective conductances and η are materialized once
    /// and shared by every time step.
    pub fn forward_sequence(&self, steps: &[Tensor], noise: Option<&LayerNoise>) -> Vec<Tensor> {
        let eff = self.crossbar.effective(noise.map(|n| &n.crossbar));
        let weighted: Vec<Tensor> = steps
            .iter()
            .map(|x| self.crossbar.forward_with(x, &eff))
            .collect();
        let filtered = self
            .filters
            .forward_sequence(&weighted, noise.map(|n| &n.filter));
        let eta = self.activation.effective_eta(noise.map(|n| &n.ptanh));
        filtered
            .iter()
            .map(|v| self.activation.forward_with(v, &eta))
            .collect()
    }

    /// Processes a stacked time-major sequence `[steps·batch, fan_in]`
    /// through the block as **one** fused graph node
    /// ([`Tensor::ptpb_scan`]: crossbar, normalization, SO-LF scan and
    /// ptanh) instead of `4·steps` per-step nodes. Values and parameter
    /// gradients are bit-identical to [`Ptpb::forward_sequence`].
    pub fn forward_stacked(
        &self,
        stacked: &Tensor,
        steps: usize,
        noise: Option<&LayerNoise>,
    ) -> Tensor {
        let eta = self.activation.effective_eta(noise.map(|n| &n.ptanh));
        self.scan(stacked, steps, noise, Some(&eta))
    }

    /// Final-layer variant of [`Ptpb::forward_stacked`]: the fused node
    /// stops at the filter's last time step, which feeds a single
    /// `[batch, fan_out]` activation — interior read-outs are dead in the
    /// per-step graph, so none are materialized.
    pub fn forward_stacked_last(
        &self,
        stacked: &Tensor,
        steps: usize,
        noise: Option<&LayerNoise>,
    ) -> Tensor {
        let filtered = self.scan(stacked, steps, noise, None);
        let eta = self.activation.effective_eta(noise.map(|n| &n.ptanh));
        self.activation.forward_with(&filtered, &eta)
    }

    /// Materializes the block's effective values for one variation sample
    /// and records the fused scan node over them.
    fn scan(
        &self,
        stacked: &Tensor,
        steps: usize,
        noise: Option<&LayerNoise>,
        eta: Option<&[Tensor]>,
    ) -> Tensor {
        let eff = self.crossbar.effective(noise.map(|n| &n.crossbar));
        let co = self.filters.coefficients(noise.map(|n| &n.filter));
        let layer = PtpbValues {
            tw: &eff.tw,
            tb: &eff.tb,
            g: &eff.g,
            a: &co.a,
            b: &co.b,
            v0: &co.v0,
            eta,
        };
        Tensor::ptpb_scan(stacked, layer, steps)
    }

    /// All trainable parameters of the block.
    pub fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.crossbar.parameters();
        p.extend(self.filters.parameters());
        p.extend(self.activation.parameters());
        p
    }

    /// Samples a joint variation instance for the block.
    pub fn sample_noise(&self, cfg: &VariationConfig, rng: &mut impl Rng) -> LayerNoise {
        LayerNoise {
            crossbar: self.crossbar.sample_noise(cfg, rng),
            filter: self.filters.sample_noise(cfg, rng),
            ptanh: self.activation.sample_noise(cfg, rng),
        }
    }

    /// Projects all component values into printable ranges.
    pub fn project(&self, pdk: &Pdk) {
        self.crossbar.project(pdk);
        self.filters.project(pdk);
        self.activation.project();
    }

    /// The block's crossbar (hardware/power analysis).
    pub fn crossbar(&self) -> &PrintedCrossbar {
        &self.crossbar
    }

    /// The block's filter bank.
    pub fn filters(&self) -> &FilterBank {
        &self.filters
    }

    /// The block's activation bank.
    pub fn activation(&self) -> &PtanhActivation {
        &self.activation
    }
}

/// A 2-layer printed temporal-processing network.
#[derive(Debug, Clone)]
pub struct PrintedModel {
    layers: Vec<Ptpb>,
    order: FilterOrder,
    input_dim: usize,
    hidden: usize,
    classes: usize,
}

impl PrintedModel {
    /// Builds a 2-layer model with the given filter order.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        input_dim: usize,
        hidden: usize,
        classes: usize,
        order: FilterOrder,
        pdk: &Pdk,
        rng: &mut impl Rng,
    ) -> Self {
        Self::with_mu(
            input_dim,
            hidden,
            classes,
            order,
            pdk,
            VariationConfig::paper_default().mu_nominal(),
            rng,
        )
    }

    /// Builds a 2-layer model assuming the given nominal coupling factor μ.
    ///
    /// All paper configurations design at the SPICE-calibrated midpoint
    /// (1.15); passing 1.0 models a coupling-unaware design for the
    /// design-choice ablation (`ablate_design` bench).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `mu_nominal < 1`.
    pub fn with_mu(
        input_dim: usize,
        hidden: usize,
        classes: usize,
        order: FilterOrder,
        pdk: &Pdk,
        mu_nominal: f64,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            input_dim > 0 && hidden > 0 && classes > 0,
            "zero-sized model"
        );
        assert!(mu_nominal >= 1.0, "coupling factor must be at least 1");
        let layers = vec![
            Ptpb::new(input_dim, hidden, order, pdk, mu_nominal, rng),
            Ptpb::new(hidden, classes, order, pdk, mu_nominal, rng),
        ];
        PrintedModel {
            layers,
            order,
            input_dim,
            hidden,
            classes,
        }
    }

    /// The baseline pTPNC of prior work: first-order filters.
    pub fn ptpnc(input_dim: usize, hidden: usize, classes: usize, rng: &mut impl Rng) -> Self {
        Self::new(
            input_dim,
            hidden,
            classes,
            FilterOrder::First,
            &Pdk::paper_default(),
            rng,
        )
    }

    /// The proposed ADAPT-pNC: second-order learnable filters.
    pub fn adapt_pnc(input_dim: usize, hidden: usize, classes: usize, rng: &mut impl Rng) -> Self {
        Self::new(
            input_dim,
            hidden,
            classes,
            FilterOrder::Second,
            &Pdk::paper_default(),
            rng,
        )
    }

    /// Filter order used by every layer.
    pub fn order(&self) -> FilterOrder {
        self.order
    }

    /// Input feature count.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// The model's layers.
    pub fn layers(&self) -> &[Ptpb] {
        &self.layers
    }

    /// The nominal coupling factor μ the model's filters were designed at
    /// (needed to rebuild a behaviorally identical replica).
    pub fn mu_nominal(&self) -> f64 {
        self.layers[0].filters().mu_nominal()
    }

    /// Forward pass over a sequence of `[batch, input_dim]` steps, returning
    /// loss-ready logits `[batch, classes]` (final-step voltages times the
    /// sense-stage scale).
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or the noise has the wrong number of
    /// layers.
    pub fn forward(&self, steps: &[Tensor], noise: Option<&ModelNoise>) -> Tensor {
        assert!(!steps.is_empty(), "empty input sequence");
        self.forward_time_major(&Tensor::concat(steps, 0), steps.len(), noise)
    }

    /// Reference forward pass on the per-step tape: one graph node per
    /// primitive per time step, chaining [`Ptpb::forward_sequence`] through
    /// the layers. It produces bit-identical logits and parameter gradients
    /// to [`PrintedModel::forward`], which records O(layers) instead of
    /// O(layers·steps) nodes. Kept only as the test oracle for the fused
    /// scan kernels; training and evaluation never call it.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or the noise has the wrong number of
    /// layers.
    pub fn forward_per_step(&self, steps: &[Tensor], noise: Option<&ModelNoise>) -> Tensor {
        assert!(!steps.is_empty(), "empty input sequence");
        if let Some(n) = noise {
            assert_eq!(
                n.layers.len(),
                self.layers.len(),
                "noise layer count mismatch"
            );
        }
        let mut seq: Vec<Tensor> = steps.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            seq = layer.forward_sequence(&seq, noise.map(|n| &n.layers[i]));
        }
        seq.last()
            .expect("non-empty sequence")
            .mul_scalar(LOGIT_SCALE)
    }

    /// Fused forward on an already time-major stacked input `[steps·batch, d]`
    /// (step `t` occupies rows `t·batch..(t+1)·batch`, exactly the layout of
    /// `Tensor::concat(steps, 0)`). This is the allocation-lean entry the
    /// Monte-Carlo training loop uses: workers hold inputs as raw `f64`
    /// buffers and stack once instead of building one tensor per time step.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero, does not divide the row count, or the
    /// noise has the wrong number of layers.
    pub fn forward_time_major(
        &self,
        stacked: &Tensor,
        steps: usize,
        noise: Option<&ModelNoise>,
    ) -> Tensor {
        assert!(steps > 0, "empty input sequence");
        if let Some(n) = noise {
            assert_eq!(
                n.layers.len(),
                self.layers.len(),
                "noise layer count mismatch"
            );
        }
        let mut stacked = stacked.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let ln = noise.map(|n| &n.layers[i]);
            stacked = if i == last {
                layer.forward_stacked_last(&stacked, steps, ln)
            } else {
                layer.forward_stacked(&stacked, steps, ln)
            };
        }
        stacked.mul_scalar(LOGIT_SCALE)
    }

    /// Forward pass at nominal (variation-free) conditions.
    pub fn forward_nominal(&self, steps: &[Tensor]) -> Tensor {
        self.forward(steps, None)
    }

    /// All trainable parameters.
    pub fn parameters(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(|l| l.parameters()).collect()
    }

    /// Samples a joint variation instance for the whole model.
    pub fn sample_noise(&self, cfg: &VariationConfig, rng: &mut impl Rng) -> ModelNoise {
        ModelNoise {
            layers: self
                .layers
                .iter()
                .map(|l| l.sample_noise(cfg, rng))
                .collect(),
        }
    }

    /// Projects every component value into its printable range.
    pub fn project(&self, pdk: &Pdk) {
        for l in &self.layers {
            l.project(pdk);
        }
    }

    /// Sum of all printed conductances (S) — the power-regularization term
    /// of the training objective (see [`crate::power`]).
    pub fn conductance_sum(&self) -> Tensor {
        let mut total = Tensor::scalar(0.0);
        for l in &self.layers {
            for p in l.crossbar().parameters() {
                total = total.add(&p.abs().sum_all());
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptnc_tensor::init;

    fn steps(t: usize, batch: usize, dim: usize, v: f64) -> Vec<Tensor> {
        (0..t).map(|_| Tensor::full(&[batch, dim], v)).collect()
    }

    #[test]
    fn forward_shapes() {
        let mut rng = init::rng(0);
        let m = PrintedModel::adapt_pnc(2, 5, 3, &mut rng);
        let out = m.forward_nominal(&steps(16, 4, 2, 0.3));
        assert_eq!(out.dims(), &[4, 3]);
    }

    #[test]
    fn baseline_uses_first_order() {
        let mut rng = init::rng(1);
        let base = PrintedModel::ptpnc(1, 4, 2, &mut rng);
        let adapt = PrintedModel::adapt_pnc(1, 4, 2, &mut rng);
        assert_eq!(base.order(), FilterOrder::First);
        assert_eq!(adapt.order(), FilterOrder::Second);
        assert!(adapt.parameters().len() > base.parameters().len());
    }

    #[test]
    fn logits_are_bounded_by_sense_scale() {
        let mut rng = init::rng(2);
        let m = PrintedModel::adapt_pnc(1, 4, 2, &mut rng);
        let out = m.forward_nominal(&steps(32, 2, 1, 1.0));
        assert!(out.data().iter().all(|&v| v.abs() <= LOGIT_SCALE));
    }

    #[test]
    fn variation_noise_perturbs_logits() {
        let mut rng = init::rng(3);
        let m = PrintedModel::adapt_pnc(1, 4, 2, &mut rng);
        let s = steps(16, 2, 1, 0.5);
        let nominal = m.forward_nominal(&s).to_vec();
        let noise = m.sample_noise(&VariationConfig::paper_default(), &mut rng);
        let varied = m.forward(&s, Some(&noise)).to_vec();
        assert_ne!(nominal, varied);
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let mut rng = init::rng(4);
        let m = PrintedModel::adapt_pnc(2, 3, 2, &mut rng);
        // A time-varying input so the filters see dynamics.
        let s: Vec<Tensor> = (0..12)
            .map(|k| Tensor::full(&[2, 2], (k as f64 * 0.7).sin()))
            .collect();
        m.forward_nominal(&s).square().sum_all().backward();
        for (i, p) in m.parameters().iter().enumerate() {
            assert!(p.grad_opt().is_some(), "parameter {i} missing gradient");
        }
    }

    #[test]
    fn fused_mode_matches_unfused_bitwise() {
        for order in [FilterOrder::First, FilterOrder::Second, FilterOrder::Third] {
            let mut rng = init::rng(8);
            let m = PrintedModel::new(2, 4, 3, order, &Pdk::paper_default(), &mut rng);
            let s: Vec<Tensor> = (0..10)
                .map(|k| Tensor::full(&[3, 2], (k as f64 * 0.7).sin()))
                .collect();
            let noise = m.sample_noise(&VariationConfig::paper_default(), &mut rng);

            let a = m.forward_per_step(&s, Some(&noise));
            let b = m.forward(&s, Some(&noise));
            assert_eq!(a.to_vec(), b.to_vec(), "{order:?}: logits diverged");

            a.square().sum_all().backward();
            let unfused_grads: Vec<Vec<f64>> = m.parameters().iter().map(|p| p.grad()).collect();
            for p in m.parameters() {
                p.zero_grad();
            }
            b.square().sum_all().backward();
            for ((p, want), i) in m.parameters().iter().zip(&unfused_grads).zip(0..) {
                assert_eq!(&p.grad(), want, "{order:?}: parameter {i} grad diverged");
            }
        }
    }

    #[test]
    fn conductance_sum_is_positive_and_differentiable() {
        let mut rng = init::rng(5);
        let m = PrintedModel::ptpnc(1, 3, 2, &mut rng);
        let s = m.conductance_sum();
        assert!(s.item() > 0.0);
        s.backward();
        // Crossbar θ received gradients from the power term.
        assert!(m.layers()[0].crossbar().parameters()[0]
            .grad_opt()
            .is_some());
    }

    #[test]
    fn project_is_idempotent_on_fresh_model() {
        let mut rng = init::rng(6);
        let m = PrintedModel::adapt_pnc(1, 4, 3, &mut rng);
        let before: Vec<Vec<f64>> = m.parameters().iter().map(|p| p.to_vec()).collect();
        m.project(&Pdk::paper_default());
        let after: Vec<Vec<f64>> = m.parameters().iter().map(|p| p.to_vec()).collect();
        assert_eq!(before, after, "fresh init must already be printable");
    }

    #[test]
    #[should_panic(expected = "empty input sequence")]
    fn empty_sequence_panics() {
        let mut rng = init::rng(7);
        let m = PrintedModel::ptpnc(1, 2, 2, &mut rng);
        m.forward_nominal(&[]);
    }
}
