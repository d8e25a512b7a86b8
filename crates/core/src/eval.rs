//! Evaluation: dataset→tensor conversion, test-time perturbation, and
//! accuracy under nominal / varied / perturbed conditions (the Table I
//! protocol: "evaluated on an augmented test set with a 10 % variation in
//! physical components").

use rand::rngs::StdRng;
use rand::SeedableRng;

use ptnc_augment::{Augment, Compose};
use ptnc_datasets::Dataset;
use ptnc_nn::accuracy;
use ptnc_tensor::Tensor;

use ptnc_infer::VariationSample;

use crate::models::PrintedModel;
use crate::parallel::{rng_for, streams, ModelTemplate, ParallelRunner, RawSteps};
use crate::serve;
use crate::variation::VariationConfig;

/// Converts a multivariate dataset into a time-major sequence of
/// `[N, channels]` tensors plus the label vector — for multi-sensor pTPBs
/// (paper Fig. 4 shows a six-input block).
pub fn multi_dataset_to_steps(
    ds: &ptnc_datasets::multivariate::MultiDataset,
) -> (Vec<Tensor>, Vec<usize>) {
    let n = ds.len();
    let channels = ds.num_channels();
    let t = ds.series_len();
    let mut steps = Vec::with_capacity(t);
    for k in 0..t {
        let mut data = Vec::with_capacity(n * channels);
        for it in ds.items() {
            for c in 0..channels {
                data.push(it.channels[c][k]);
            }
        }
        steps.push(Tensor::from_vec(&[n, channels], data));
    }
    let labels = ds.items().iter().map(|it| it.label).collect();
    (steps, labels)
}

/// Converts a univariate dataset into a time-major sequence of `[N, 1]`
/// tensors plus the label vector — the input format of every model here.
pub fn dataset_to_steps(ds: &Dataset) -> (Vec<Tensor>, Vec<usize>) {
    let n = ds.len();
    let t = ds.series_len();
    let mut steps = Vec::with_capacity(t);
    for k in 0..t {
        let col: Vec<f64> = ds.iter().map(|it| it.values[k]).collect();
        steps.push(Tensor::from_vec(&[n, 1], col));
    }
    let labels = ds.iter().map(|it| it.label).collect();
    (steps, labels)
}

/// Applies the paper's combined augmentation pipeline to every series of a
/// dataset (used both to enlarge training sets and to perturb test sets).
pub fn perturb_dataset(ds: &Dataset, strength: f64, seed: u64) -> Dataset {
    let pipeline = Compose::paper_pipeline(strength);
    let mut rng = StdRng::seed_from_u64(seed);
    ds.map_series(|v| pipeline.apply(v, &mut rng))
}

/// Test-time condition under which a printed model is scored.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalCondition {
    /// Variation-free components, clean inputs.
    Nominal,
    /// Sampled component variation (averaged over `trials` Monte-Carlo
    /// instances), clean inputs.
    Variation {
        /// Variation distributions.
        config: VariationConfig,
        /// Monte-Carlo instances to average over.
        trials: usize,
    },
    /// Nominal components, inputs perturbed at the given augmentation
    /// strength.
    Perturbed {
        /// Pipeline strength in `[0, 1]`.
        strength: f64,
    },
    /// The paper's Table I condition: sampled variation *and* perturbed
    /// inputs.
    VariationAndPerturbed {
        /// Variation distributions.
        config: VariationConfig,
        /// Monte-Carlo instances to average over.
        trials: usize,
        /// Pipeline strength in `[0, 1]`.
        strength: f64,
    },
}

impl EvalCondition {
    /// The paper's Table I test condition: ±10 % variation plus perturbed
    /// input data, averaged over a few variation instances.
    pub fn paper_test() -> Self {
        EvalCondition::VariationAndPerturbed {
            config: VariationConfig::paper_default(),
            trials: 5,
            strength: 0.5,
        }
    }
}

/// Scores a printed model on a dataset under the given condition using an
/// environment-sized runner (`PNC_THREADS`) for the Monte-Carlo variation
/// trials. Returns classification accuracy in `[0, 1]`.
pub fn evaluate(model: &PrintedModel, ds: &Dataset, condition: &EvalCondition, seed: u64) -> f64 {
    evaluate_with_runner(model, ds, condition, seed, &ParallelRunner::from_env())
}

/// Scores a printed model on a dataset under the given condition, fanning
/// the Monte-Carlo variation trials out through `runner`. Each trial draws
/// its noise from a counter-based RNG stream keyed by
/// `(seed, trial index)`, so the score is bit-identical for any thread
/// count.
pub fn evaluate_with_runner(
    model: &PrintedModel,
    ds: &Dataset,
    condition: &EvalCondition,
    seed: u64,
    runner: &ParallelRunner,
) -> f64 {
    match condition {
        EvalCondition::Nominal => {
            let (steps, labels) = dataset_to_steps(ds);
            accuracy(&model.forward_nominal(&steps), &labels)
        }
        EvalCondition::Perturbed { strength } => {
            let perturbed = perturb_dataset(ds, *strength, seed);
            let (steps, labels) = dataset_to_steps(&perturbed);
            accuracy(&model.forward_nominal(&steps), &labels)
        }
        EvalCondition::Variation { config, trials } => {
            let (steps, labels) = dataset_to_steps(ds);
            variation_trials(model, &steps, &labels, config, *trials, seed, runner)
        }
        EvalCondition::VariationAndPerturbed {
            config,
            trials,
            strength,
        } => {
            let perturbed = perturb_dataset(ds, *strength, seed);
            let (steps, labels) = dataset_to_steps(&perturbed);
            variation_trials(model, &steps, &labels, config, *trials, seed, runner)
        }
    }
}

/// Monte-Carlo variation trials on the compiled graph-free runtime: the
/// model is frozen once, each trial compiles a cheap perturbed instance
/// from its seed-split noise sample and scores the whole batch through
/// preallocated buffers.
#[allow(clippy::too_many_arguments)]
fn variation_trials(
    model: &PrintedModel,
    steps: &[Tensor],
    labels: &[usize],
    config: &VariationConfig,
    trials: usize,
    seed: u64,
    runner: &ParallelRunner,
) -> f64 {
    assert!(trials > 0, "need at least one variation trial");
    let engine = serve::ServeModel::from_live(model)
        .expect("cannot freeze model with non-finite parameters")
        .into_engine();
    let flat = serve::ServeModel::flatten_steps(steps).expect("non-empty step sequence");
    let batch = steps[0].dims()[0];
    let classes = engine.spec().classes;
    let dist = (config).into();
    let accs = runner.run((0..trials).collect(), |_, trial: usize| {
        let mut rng = rng_for(seed, streams::EVAL_TRIAL, trial as u64);
        let sample = VariationSample::draw(engine.spec(), &dist, &mut rng);
        let instance = engine
            .perturbed(&sample)
            .expect("sample drawn on this engine's spec");
        ptnc_telemetry::counter("infer.trial.graphfree", 1);
        let logits = instance
            .run_batch(&flat, batch)
            .expect("steps flattened for this batch");
        ptnc_infer::accuracy(&logits, classes, labels)
    });
    accs.iter().sum::<f64>() / trials as f64
}

/// Monte-Carlo variation trials through the reverse-mode autograd graph:
/// each trial rebuilds a thread-local tensor replica and runs the full
/// design-time forward pass.
///
/// This is the test oracle the compiled runtime is validated against
/// (the `graphfree_and_autograd_paths_agree` test, `tests/infer_parity.rs`
/// and the benchmark's output checks). Evaluation always runs the
/// graph-free path, which produces the same accuracies without tape-node
/// allocation.
#[allow(clippy::too_many_arguments)]
pub fn variation_trials_autograd(
    model: &PrintedModel,
    steps: &[Tensor],
    labels: &[usize],
    config: &VariationConfig,
    trials: usize,
    seed: u64,
    runner: &ParallelRunner,
) -> f64 {
    assert!(trials > 0, "need at least one variation trial");
    let template = ModelTemplate::capture(model);
    let raw_steps = RawSteps::capture(steps);
    let accs = runner.run((0..trials).collect(), |_, trial: usize| {
        let replica = template.instantiate();
        let steps = raw_steps.to_tensors();
        let mut rng = rng_for(seed, streams::EVAL_TRIAL, trial as u64);
        let noise = replica.sample_noise(config, &mut rng);
        ptnc_telemetry::counter("infer.trial.autograd", 1);
        // Accuracy trials never backpropagate — skip tape recording.
        let _tape_off = ptnc_tensor::no_grad();
        accuracy(&replica.forward(&steps, Some(&noise)), labels)
    });
    accs.iter().sum::<f64>() / trials as f64
}

/// Mean and (population) standard deviation of a slice of scores — the
/// `mean ± std` entries of Tables I.
pub fn mean_std(scores: &[f64]) -> (f64, f64) {
    assert!(!scores.is_empty(), "no scores");
    let mean = scores.iter().sum::<f64>() / scores.len() as f64;
    let var = scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / scores.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptnc_datasets::benchmark_by_name;
    use ptnc_datasets::preprocess::Preprocess;
    use ptnc_tensor::init;

    fn small_dataset() -> Dataset {
        let raw = benchmark_by_name("CBF", 0).unwrap();
        let ds = Preprocess::paper_default().apply(&raw);
        ds.shuffle_split(0.6, 0.2, 0).test
    }

    #[test]
    fn steps_conversion_layout() {
        let ds = small_dataset();
        let (steps, labels) = dataset_to_steps(&ds);
        assert_eq!(steps.len(), 64);
        assert_eq!(steps[0].dims(), &[ds.len(), 1]);
        assert_eq!(labels.len(), ds.len());
        // Spot-check one element: series 3, time 10.
        assert_eq!(steps[10].at(&[3, 0]), ds.items()[3].values[10]);
    }

    #[test]
    fn perturb_changes_values_not_labels() {
        let ds = small_dataset();
        let p = perturb_dataset(&ds, 0.5, 1);
        assert_eq!(p.len(), ds.len());
        for (a, b) in ds.iter().zip(p.iter()) {
            assert_eq!(a.label, b.label);
        }
        assert_ne!(ds.items()[0].values, p.items()[0].values);
    }

    #[test]
    fn evaluate_returns_valid_accuracy() {
        let ds = small_dataset();
        let mut rng = init::rng(0);
        let model = crate::models::PrintedModel::adapt_pnc(1, 4, 3, &mut rng);
        for cond in [
            EvalCondition::Nominal,
            EvalCondition::Perturbed { strength: 0.5 },
            EvalCondition::Variation {
                config: VariationConfig::paper_default(),
                trials: 2,
            },
            EvalCondition::paper_test(),
        ] {
            let acc = evaluate(&model, &ds, &cond, 0);
            assert!((0.0..=1.0).contains(&acc), "{cond:?} gave {acc}");
        }
    }

    #[test]
    fn evaluation_is_seed_deterministic() {
        let ds = small_dataset();
        let mut rng = init::rng(1);
        let model = crate::models::PrintedModel::adapt_pnc(1, 4, 3, &mut rng);
        let cond = EvalCondition::paper_test();
        assert_eq!(
            evaluate(&model, &ds, &cond, 7),
            evaluate(&model, &ds, &cond, 7)
        );
    }

    #[test]
    fn graphfree_and_autograd_paths_agree() {
        let ds = small_dataset();
        let mut rng = init::rng(2);
        let model = crate::models::PrintedModel::adapt_pnc(1, 4, 3, &mut rng);
        let (steps, labels) = dataset_to_steps(&ds);
        let config = VariationConfig::paper_default();
        let runner = ParallelRunner::serial();
        let fast = variation_trials(&model, &steps, &labels, &config, 3, 5, &runner);
        let slow = variation_trials_autograd(&model, &steps, &labels, &config, 3, 5, &runner);
        assert_eq!(fast, slow, "A/B paths must score identically");
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 1.0, 1.0]);
        assert_eq!(m, 1.0);
        assert_eq!(s, 0.0);
        let (m, s) = mean_std(&[0.0, 2.0]);
        assert_eq!(m, 1.0);
        assert_eq!(s, 1.0);
    }
}
