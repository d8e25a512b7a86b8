//! The robustness-aware training objective (paper Eq. 12–14) and the
//! training harness for printed models.
//!
//! The three robustness ingredients are individually switchable — exactly
//! what the Fig. 7 ablation needs:
//!
//! * **VA** — variation-aware Monte-Carlo sampling of all component values,
//! * **AT** — augmented training (augmented copies appended to the training
//!   and validation sets),
//! * **SO-LF** — second-order instead of first-order learnable filters.
//!
//! A conductance-sum (static power) regularizer follows the power-aware pNC
//! training of prior work and produces the Table III power reduction.
//!
//! # The training tape
//!
//! Every forward pass records one graph node per printed layer
//! ([`Tensor::ptpb_scan`] behind [`PrintedModel::forward`]): the
//! crossbar, filter cascade and activation of all time steps, with one
//! analytic BPTT adjoint. Only the small parameter → effective-value
//! sub-graph, the read-out activation, the logit scale and the loss are
//! ordinary per-op nodes. The tape is bitwise identical to the per-step
//! oracle [`PrintedModel::forward_per_step`].
//!
//! # Parallel Monte-Carlo execution
//!
//! The `N` variation samples of each epoch evaluate in parallel through the
//! shared [`ParallelRunner`]: every sample rebuilds a thread-local model
//! replica (tensors are `Rc`-based and not `Send`), draws its noise from a
//! counter-based RNG stream keyed by `(master_seed, epoch, sample)` via
//! [`crate::parallel::seed_split`], and returns its loss value plus
//! per-parameter gradients. The main thread averages the gradients in
//! sample order and injects them into the live parameters through a
//! surrogate loss `Σᵢ⟨θᵢ, ḡᵢ⟩`, whose `backward()` deposits exactly the
//! accumulated Monte-Carlo gradient. Because the per-sample RNG streams
//! never depend on scheduling, training results are **bit-identical for
//! any thread count**.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ptnc_datasets::{DataSplit, Dataset};
use ptnc_nn::{
    accuracy, cross_entropy, EpochCtx, FnObjective, ReduceLrOnPlateau, TrainObjective, TrainReport,
    Trainer,
};
use ptnc_tensor::Tensor;

use crate::eval::{dataset_to_steps, perturb_dataset};
use crate::models::{FilterOrder, PrintedModel};
use crate::parallel::{rng_for, streams, ModelTemplate, ParallelRunner, RawSteps};
use crate::pdk::Pdk;
use crate::variation::VariationConfig;

/// Configuration of one training run.
///
/// Construct via the presets ([`TrainConfig::baseline_ptpnc`],
/// [`TrainConfig::adapt_pnc`]) or the builder ([`TrainConfig::builder`],
/// [`TrainConfig::to_builder`]); the struct is `#[non_exhaustive]`, so raw
/// literals no longer compile outside this module.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct TrainConfig {
    /// Hidden width of the 2-layer network.
    pub hidden: usize,
    /// Filter order (SO-LF ⇔ [`FilterOrder::Second`]).
    pub filter_order: FilterOrder,
    /// Variation-aware training (Monte-Carlo sampling of Eq. 14).
    pub variation_aware: bool,
    /// Monte-Carlo samples `N` per epoch when variation-aware.
    pub mc_samples: usize,
    /// Augmented training: append augmented copies of the training and
    /// validation sets.
    pub augmented: bool,
    /// Augmentation pipeline strength in `[0, 1]`.
    pub augment_strength: f64,
    /// Weight of the conductance-sum (power) regularizer.
    pub power_reg: f64,
    /// Fraction of the epoch budget (from the end) during which the power
    /// regularizer is active in the training loss. Accuracy is learned
    /// first; the power phase then descends along the crossbar's
    /// scale-invariant direction (weight ratios are conductance ratios, so
    /// shrinking all conductances preserves the function). The validation
    /// objective includes the power term throughout so the best-snapshot
    /// selection prefers equally-accurate, lower-power epochs.
    pub power_phase_frac: f64,
    /// Hard epoch cap.
    pub max_epochs: usize,
    /// Plateau patience (epochs) before halving the learning rate.
    pub patience: usize,
    /// Initial learning rate.
    pub initial_lr: f64,
    /// Training stops when the learning rate falls below this.
    pub min_lr: f64,
    /// Variation distributions used during training.
    pub variation: VariationConfig,
    /// Nominal coupling factor μ assumed when designing the filters. All
    /// paper configurations use the SPICE-calibrated midpoint (1.15), since
    /// prior work \[8\] already modeled crossbar coupling; set 1.0 to ablate a
    /// coupling-unaware design (see the design-ablation bench).
    pub mu_nominal: f64,
    /// Printable ranges.
    pub pdk: Pdk,
}

impl TrainConfig {
    /// The baseline pTPNC of prior work: first-order filters, no variation
    /// awareness, no augmentation, no power regularization.
    pub fn baseline_ptpnc(hidden: usize) -> Self {
        TrainConfig {
            hidden,
            filter_order: FilterOrder::First,
            variation_aware: false,
            mc_samples: 1,
            augmented: false,
            augment_strength: 0.0,
            power_reg: 0.0,
            power_phase_frac: 1.0,
            max_epochs: 400,
            patience: 40,
            initial_lr: 0.01,
            min_lr: 2e-4,
            variation: VariationConfig::paper_default(),
            mu_nominal: VariationConfig::paper_default().mu_nominal(),
            pdk: Pdk::paper_default(),
        }
    }

    /// The full robustness-aware ADAPT-pNC: SO-LF + VA + AT + power-aware.
    pub fn adapt_pnc(hidden: usize) -> Self {
        TrainConfig {
            filter_order: FilterOrder::Second,
            variation_aware: true,
            mc_samples: 3,
            augmented: true,
            augment_strength: 0.5,
            power_reg: 10_000.0,
            ..Self::baseline_ptpnc(hidden)
        }
    }

    /// Starts a builder from the baseline preset at the given hidden width.
    pub fn builder(hidden: usize) -> TrainConfigBuilder {
        TrainConfigBuilder {
            cfg: Self::baseline_ptpnc(hidden),
        }
    }

    /// Turns an existing configuration (e.g. a preset) back into a builder
    /// for field-level tweaks.
    pub fn to_builder(&self) -> TrainConfigBuilder {
        TrainConfigBuilder { cfg: self.clone() }
    }

    /// Overrides the epoch budget (used by the scaled-down benches).
    pub fn with_epochs(mut self, max_epochs: usize) -> Self {
        self.max_epochs = max_epochs;
        self
    }

    /// Overrides the augmentation strength (the Ray-Tune-substitute grid
    /// search tunes this per dataset).
    pub fn with_augment_strength(mut self, strength: f64) -> Self {
        self.augment_strength = strength;
        self
    }
}

/// Builder for [`TrainConfig`] — the only way to set individual fields
/// outside this crate.
///
/// ```
/// use adapt_pnc::training::TrainConfig;
///
/// let cfg = TrainConfig::builder(8)
///     .variation_aware(true)
///     .mc_samples(2)
///     .max_epochs(50)
///     .build();
/// assert!(cfg.variation_aware);
/// assert_eq!(cfg.mc_samples, 2);
/// ```
#[derive(Debug, Clone)]
pub struct TrainConfigBuilder {
    cfg: TrainConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $name(mut self, value: $ty) -> Self {
                self.cfg.$name = value;
                self
            }
        )*
    };
}

impl TrainConfigBuilder {
    builder_setters! {
        /// Hidden width of the 2-layer network.
        hidden: usize,
        /// Filter order (SO-LF ⇔ `FilterOrder::Second`).
        filter_order: FilterOrder,
        /// Toggles variation-aware Monte-Carlo training.
        variation_aware: bool,
        /// Monte-Carlo samples per epoch when variation-aware.
        mc_samples: usize,
        /// Toggles augmented training.
        augmented: bool,
        /// Augmentation pipeline strength in `[0, 1]`.
        augment_strength: f64,
        /// Weight of the conductance-sum (power) regularizer.
        power_reg: f64,
        /// Fraction of the epoch budget with the power term active.
        power_phase_frac: f64,
        /// Hard epoch cap.
        max_epochs: usize,
        /// Plateau patience (epochs) before halving the learning rate.
        patience: usize,
        /// Initial learning rate.
        initial_lr: f64,
        /// Learning-rate floor that stops training.
        min_lr: f64,
        /// Variation distributions used during training.
        variation: VariationConfig,
        /// Nominal coupling factor μ the filters are designed at.
        mu_nominal: f64,
        /// Printable ranges.
        pdk: Pdk,
    }

    /// Finalizes the configuration.
    #[must_use]
    pub fn build(self) -> TrainConfig {
        self.cfg
    }
}

/// A trained printed model plus its training report.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// The trained model (best-on-validation parameters restored).
    pub model: PrintedModel,
    /// Training statistics.
    pub report: TrainReport,
    /// Validation accuracy of the restored parameters (nominal conditions).
    pub val_accuracy: f64,
}

impl TrainedModel {
    /// Captures the trained model as a serializable design file.
    pub fn snapshot(&self) -> crate::persist::ModelSnapshot {
        crate::persist::snapshot(&self.model)
    }

    /// Freezes the trained model into the graph-free inference runtime.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Build`](crate::serve::ServeError::Build) only
    /// if training left a non-finite parameter (the non-finite guards make
    /// that an error earlier, during training itself).
    pub fn freeze(&self) -> Result<ptnc_infer::InferModel, crate::serve::ServeError> {
        crate::serve::ServeModel::from_live(&self.model).map(crate::serve::ServeModel::into_engine)
    }
}

/// Packs `(epoch, sample)` into one counter-based stream index — the two
/// halves of a `u64`, so no two pairs collide for any realistic epoch or
/// sample count.
fn mc_index(epoch: usize, sample: usize) -> u64 {
    ((epoch as u64) << 32) | sample as u64
}

/// Evaluates `samples` Monte-Carlo variation draws of the cross-entropy in
/// parallel, each on a thread-local replica with its own
/// `(master_seed, epoch, sample)` RNG stream. Returns the mean loss value
/// and (when `with_grads`) the per-parameter gradients averaged in sample
/// order — deterministic for any thread count.
#[allow(clippy::too_many_arguments)]
fn mc_samples_parallel(
    runner: &ParallelRunner,
    master_seed: u64,
    stream: u64,
    epoch: usize,
    samples: usize,
    template: &ModelTemplate,
    raw_steps: &RawSteps,
    labels: &[usize],
    variation: &VariationConfig,
    with_grads: bool,
) -> (f64, Vec<Vec<f64>>) {
    assert!(samples > 0, "need at least one Monte-Carlo sample");
    let results: Vec<(f64, Vec<Vec<f64>>)> =
        runner.run((0..samples).collect(), |_, sample: usize| {
            let replica = template.instantiate();
            let mut rng = rng_for(master_seed, stream, mc_index(epoch, sample));
            let noise = replica.sample_noise(variation, &mut rng);
            // Loss-only samples (validation) skip tape recording entirely:
            // same forward values, no closures or stashes.
            let _tape_off = (!with_grads).then(ptnc_tensor::no_grad);
            // Workers stack the raw input once instead of building one
            // tensor per time step; the layouts are bitwise identical.
            let (stacked, t) = raw_steps.to_stacked();
            let logits = replica.forward_time_major(&stacked, t, Some(&noise));
            let ce = cross_entropy(&logits, labels);
            if ptnc_telemetry::is_enabled() {
                ptnc_telemetry::gauge("train.mc_sample_loss", ce.item());
            }
            if with_grads {
                ce.backward();
                let grads = replica
                    .parameters()
                    .iter()
                    .map(|p| p.grad_opt().unwrap_or_else(|| vec![0.0; p.len()]))
                    .collect();
                (ce.item(), grads)
            } else {
                (ce.item(), Vec::new())
            }
        });

    let mean_ce = results.iter().map(|(ce, _)| ce).sum::<f64>() / samples as f64;
    if !with_grads {
        return (mean_ce, Vec::new());
    }
    let mut mean_grads: Vec<Vec<f64>> = results[0].1.iter().map(|g| vec![0.0; g.len()]).collect();
    for (_, grads) in &results {
        for (acc, g) in mean_grads.iter_mut().zip(grads) {
            for (a, v) in acc.iter_mut().zip(g) {
                *a += v;
            }
        }
    }
    for g in &mut mean_grads {
        for v in g.iter_mut() {
            *v /= samples as f64;
        }
    }
    (mean_ce, mean_grads)
}

/// The printed-model training objective: assembles the per-epoch batch,
/// fans the Monte-Carlo variation samples out through the epoch's runner,
/// and keeps the validation/selection objective aligned with training.
struct PrintedObjective {
    cfg: TrainConfig,
    model: PrintedModel,
    template: ModelTemplate,
    train_set: Dataset,
    clean_train_steps: Vec<Tensor>,
    clean_train_labels: Vec<usize>,
    val_steps: Vec<Tensor>,
    val_labels: Vec<usize>,
    raw_val: RawSteps,
    power_start_epoch: usize,
}

impl PrintedObjective {
    /// The power-regularization term on the live graph (differentiable).
    fn power_term(&self) -> Tensor {
        // Static power ∝ Σg; θ is in g_unit units, so scale accordingly.
        self.model
            .conductance_sum()
            .mul_scalar(self.cfg.pdk.g_unit * self.cfg.power_reg)
    }
}

impl TrainObjective for PrintedObjective {
    fn train_loss(&mut self, ctx: &mut EpochCtx<'_>) -> Tensor {
        // Assemble this epoch's batch: originals plus (when augmenting) a
        // freshly drawn augmented copy. The augmentation seed is the only
        // sequential draw per epoch — thread-count independent.
        let (train_steps, train_labels) = if self.cfg.augmented {
            let aug = perturb_dataset(&self.train_set, self.cfg.augment_strength, ctx.rng.gen());
            let combined = self.train_set.merged_with(&aug);
            dataset_to_steps(&combined)
        } else {
            (
                self.clean_train_steps.clone(),
                self.clean_train_labels.clone(),
            )
        };

        let ce = if self.cfg.variation_aware {
            self.template.refresh(&self.model);
            let raw_steps = RawSteps::capture(&train_steps);
            let (mean_ce, mean_grads) = mc_samples_parallel(
                ctx.runner,
                ctx.master_seed,
                streams::TRAIN_MC,
                ctx.epoch,
                self.cfg.mc_samples,
                &self.template,
                &raw_steps,
                &train_labels,
                &self.cfg.variation,
                true,
            );
            // Inject the accumulated replica gradients into the live
            // parameters: d/dθ Σ⟨θ, ḡ⟩ = ḡ, and subtracting the detached
            // value re-centers the loss at the true mean cross-entropy.
            let params = self.model.parameters();
            let mut surrogate = Tensor::scalar(0.0);
            for (p, g) in params.iter().zip(&mean_grads) {
                let grad = Tensor::from_vec(p.dims(), g.clone());
                surrogate = surrogate.add(&p.mul(&grad).sum_all());
            }
            surrogate.sub(&surrogate.detach()).add_scalar(mean_ce)
        } else {
            cross_entropy(&self.model.forward(&train_steps, None), &train_labels)
        };

        if self.cfg.power_reg > 0.0 && ctx.epoch >= self.power_start_epoch {
            // Power phase: accuracy has been learned; now descend along the
            // crossbar's scale-invariant direction.
            ce.add(&self.power_term())
        } else {
            ce
        }
    }

    fn val_loss(&mut self, ctx: &mut EpochCtx<'_>) -> f64 {
        // Validation under the same regime as training. Averaging the same
        // number of variation draws as the training objective keeps the
        // best-snapshot selection from chasing lucky single draws.
        let ce = if self.cfg.variation_aware {
            self.template.refresh(&self.model);
            let (mean_ce, _) = mc_samples_parallel(
                ctx.runner,
                ctx.master_seed,
                streams::VAL_MC,
                ctx.epoch,
                self.cfg.mc_samples,
                &self.template,
                &self.raw_val,
                &self.val_labels,
                &self.cfg.variation,
                false,
            );
            mean_ce
        } else {
            let _tape_off = ptnc_tensor::no_grad();
            cross_entropy(&self.model.forward(&self.val_steps, None), &self.val_labels).item()
        };
        if ptnc_telemetry::is_enabled() {
            // The nominal accuracy pass is extra work, so only compute it
            // when a telemetry scope is actually collecting.
            let acc = accuracy(
                &self.model.forward_nominal(&self.val_steps),
                &self.val_labels,
            );
            ptnc_telemetry::gauge("train.val_accuracy", acc);
        }
        // Keep the selection objective aligned with training: otherwise the
        // best-on-validation snapshot would systematically prefer the early,
        // high-conductance (high-power) epochs.
        ce + self.cfg.power_reg * self.cfg.pdk.g_unit * self.model.conductance_sum().item()
    }

    fn project(&mut self, _params: &[Tensor]) {
        self.model.project(&self.cfg.pdk);
    }
}

/// Trains a printed model on a data split with the given configuration and
/// seed, using an environment-sized [`ParallelRunner`] (`PNC_THREADS`) for
/// the per-epoch Monte-Carlo fan-out. See [`train_with_runner`].
pub fn train(split: &DataSplit, config: &TrainConfig, seed: u64) -> TrainedModel {
    train_with_runner(split, config, seed, &ParallelRunner::from_env())
}

/// Trains a printed model on a data split with the given configuration,
/// seed and fan-out runner (the paper repeats this over seeds 0..9 and
/// keeps the top models). Results are bit-identical for any runner thread
/// count.
///
/// # Panics
///
/// Panics if the split's class counts are inconsistent or the config is
/// degenerate (`mc_samples == 0` while variation-aware).
pub fn train_with_runner(
    split: &DataSplit,
    config: &TrainConfig,
    seed: u64,
    runner: &ParallelRunner,
) -> TrainedModel {
    assert!(
        !config.variation_aware || config.mc_samples > 0,
        "variation-aware training needs mc_samples > 0"
    );
    let classes = split.train.num_classes();
    let input_dim = 1; // univariate benchmarks

    // --- data ---------------------------------------------------------
    // Augmented copies are appended to the originals (paper §IV-A2: "the
    // augmented data was combined with the original unaugmented data, and
    // both were used during training, validation and testing"). Training
    // copies are REDRAWN every epoch so the model learns invariance to the
    // augmentation distribution rather than to one fixed draw; validation
    // copies stay fixed for a stable model-selection signal.
    let val_set = if config.augmented {
        let aug_val = perturb_dataset(&split.val, config.augment_strength, seed ^ 0x22);
        split.val.merged_with(&aug_val)
    } else {
        split.val.clone()
    };
    let train_set = split.train.clone();
    let (clean_train_steps, clean_train_labels) = dataset_to_steps(&train_set);
    let (val_steps, val_labels) = dataset_to_steps(&val_set);

    // --- model ---------------------------------------------------------
    let mut init_rng = StdRng::seed_from_u64(seed.wrapping_mul(0x51_7C_C1_B7_27_22_0A_95));
    let model = PrintedModel::with_mu(
        input_dim,
        config.hidden,
        classes,
        config.filter_order,
        &config.pdk,
        config.mu_nominal,
        &mut init_rng,
    );

    // --- objective -----------------------------------------------------
    let power_start_epoch =
        ((1.0 - config.power_phase_frac.clamp(0.0, 1.0)) * config.max_epochs as f64) as usize;
    let raw_val = RawSteps::capture(&val_steps);
    let mut objective = PrintedObjective {
        cfg: config.clone(),
        model: model.clone(),
        template: ModelTemplate::capture(&model),
        train_set,
        clean_train_steps,
        clean_train_labels,
        val_steps: val_steps.clone(),
        val_labels: val_labels.clone(),
        raw_val,
        power_start_epoch,
    };

    // --- loop ---------------------------------------------------------
    let trainer = Trainer::new(config.max_epochs, seed)
        .with_schedule(ReduceLrOnPlateau::new(
            config.initial_lr,
            0.5,
            config.patience,
            config.min_lr,
        ))
        .with_runner(runner.clone());
    let report = trainer.run(model.parameters(), &mut objective);

    let val_accuracy = {
        let _tape_off = ptnc_tensor::no_grad();
        accuracy(&model.forward_nominal(&val_steps), &val_labels)
    };
    TrainedModel {
        model,
        report,
        val_accuracy,
    }
}

/// Trains the Elman RNN reference with an environment-sized runner. See
/// [`train_elman_with_runner`].
pub fn train_elman(
    split: &DataSplit,
    hidden: usize,
    max_epochs: usize,
    seed: u64,
) -> (ptnc_nn::ElmanRnn, TrainReport) {
    train_elman_with_runner(split, hidden, max_epochs, seed, &ParallelRunner::from_env())
}

/// Trains the Elman RNN reference on the same split through the same
/// [`Trainer`]/[`TrainObjective`] loop as the printed models, returning its
/// test-ready model and training report (paper Table I column 1).
pub fn train_elman_with_runner(
    split: &DataSplit,
    hidden: usize,
    max_epochs: usize,
    seed: u64,
    runner: &ParallelRunner,
) -> (ptnc_nn::ElmanRnn, TrainReport) {
    let (train_steps, train_labels) = dataset_to_steps(&split.train);
    let (val_steps, val_labels) = dataset_to_steps(&split.val);
    let classes = split.train.num_classes();
    let mut init_rng = StdRng::seed_from_u64(seed.wrapping_add(0x517C_C1B7));
    let model = ptnc_nn::ElmanRnn::new(1, hidden, classes, &mut init_rng);

    let m = model.clone();
    let m2 = model.clone();
    let trainer = Trainer::new(max_epochs, seed)
        .with_schedule(ReduceLrOnPlateau::new(0.05, 0.5, 30, 1e-3))
        .with_runner(runner.clone());
    let report = trainer.run(
        model.parameters(),
        &mut FnObjective {
            train: move |_: &mut EpochCtx<'_>| {
                cross_entropy(&m.forward(&train_steps), &train_labels)
            },
            val: move |_: &mut EpochCtx<'_>| {
                cross_entropy(&m2.forward(&val_steps), &val_labels).item()
            },
            project: |_: &[Tensor]| {},
        },
    );
    (model, report)
}

/// Draws `count` training seeds from a base seed (the paper uses seeds 0–9).
pub fn seeds(count: usize) -> Vec<u64> {
    (0..count as u64).collect()
}

/// Deterministic helper: picks the indices of the `k` best scores.
pub fn top_k_indices(scores: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptnc_datasets::{benchmark_by_name, preprocess::Preprocess};

    fn quick_split(name: &str) -> DataSplit {
        let ds = Preprocess::paper_default().apply(&benchmark_by_name(name, 0).unwrap());
        ds.shuffle_split(0.6, 0.2, 0)
    }

    fn quick_config() -> TrainConfig {
        TrainConfig::builder(4).max_epochs(40).patience(15).build()
    }

    #[test]
    fn baseline_learns_easy_dataset_above_chance() {
        let split = quick_split("GPOVY");
        let trained = train(&split, &quick_config(), 0);
        assert!(
            trained.val_accuracy > 0.6,
            "val accuracy {} not above chance",
            trained.val_accuracy
        );
    }

    #[test]
    fn adapt_config_trains_and_respects_ranges() {
        let split = quick_split("GPOVY");
        let cfg = TrainConfig::adapt_pnc(4)
            .to_builder()
            .max_epochs(15)
            .mc_samples(2)
            .build();
        let trained = train(&split, &cfg, 0);
        // All parameters must sit inside printable ranges after training.
        let pdk = Pdk::paper_default();
        for layer in trained.model.layers() {
            let (tw, tb, td) = layer.crossbar().conductances();
            for v in tw.to_vec().iter().chain(&tb.to_vec()).chain(&td.to_vec()) {
                let mag = v.abs();
                assert!(
                    mag >= pdk.g_min / pdk.g_unit - 1e-12 && mag <= pdk.g_max / pdk.g_unit + 1e-12,
                    "conductance {mag} escaped printable window"
                );
            }
        }
    }

    #[test]
    fn training_is_seed_deterministic() {
        let split = quick_split("Slope");
        let cfg = quick_config().with_epochs(10);
        let a = train(&split, &cfg, 3);
        let b = train(&split, &cfg, 3);
        assert_eq!(
            a.model.parameters()[0].to_vec(),
            b.model.parameters()[0].to_vec()
        );
        assert_eq!(a.report.best_val_loss, b.report.best_val_loss);
    }

    #[test]
    fn variation_aware_training_is_thread_count_invariant() {
        let split = quick_split("Slope");
        let cfg = TrainConfig::adapt_pnc(3)
            .to_builder()
            .max_epochs(6)
            .mc_samples(3)
            .build();
        let serial = train_with_runner(&split, &cfg, 1, &ParallelRunner::serial());
        let parallel =
            train_with_runner(&split, &cfg, 1, &ParallelRunner::serial().with_threads(4));
        assert_eq!(
            serial.report.val_history, parallel.report.val_history,
            "loss histories diverged across thread counts"
        );
        for (a, b) in serial
            .model
            .parameters()
            .iter()
            .zip(parallel.model.parameters())
        {
            assert_eq!(a.to_vec(), b.to_vec(), "parameters diverged");
        }
    }

    #[test]
    fn builder_round_trips_presets() {
        let preset = TrainConfig::adapt_pnc(6);
        assert_eq!(preset.to_builder().build(), preset);
        let tweaked = preset.to_builder().power_reg(0.0).build();
        assert_eq!(tweaked.power_reg, 0.0);
        assert_eq!(tweaked.mc_samples, preset.mc_samples);
    }

    #[test]
    fn elman_reference_trains() {
        let split = quick_split("GPOVY");
        let (model, _report) = train_elman(&split, 8, 60, 0);
        let (steps, labels) = dataset_to_steps(&split.val);
        let acc = accuracy(&model.forward(&steps), &labels);
        assert!(acc > 0.55, "elman val accuracy {acc}");
    }

    #[test]
    fn top_k_orders_descending() {
        assert_eq!(top_k_indices(&[0.1, 0.9, 0.5, 0.7], 2), vec![1, 3]);
    }

    #[test]
    fn power_reg_reduces_conductance() {
        let split = quick_split("Slope");
        // Adam drifts conductances down at ~lr per epoch once the power
        // term dominates, so give it enough epochs to show a clear drop.
        let low = quick_config()
            .to_builder()
            .max_epochs(150)
            .power_reg(0.0)
            .build();
        let high = low.to_builder().power_reg(20_000.0).build();
        let a = train(&split, &low, 0);
        let b = train(&split, &high, 0);
        let ga = a.model.conductance_sum().item();
        let gb = b.model.conductance_sum().item();
        assert!(
            gb < ga * 0.8,
            "power regularizer had no effect: {gb} !< 0.8·{ga}"
        );
    }
}
