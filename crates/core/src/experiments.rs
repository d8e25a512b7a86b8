//! Shared experiment harness: fidelity scaling and the per-dataset pipeline
//! behind Tables I–III.
//!
//! The paper trains 10 seeds per dataset with unbounded epochs; the default
//! scale here finishes in minutes while preserving every comparison. The
//! experiment binaries (`ptnc-bench`) raise the fidelity with:
//!
//! | variable | meaning | default |
//! |----------|---------|---------|
//! | `PNC_SEEDS` | training seeds per dataset | 3 |
//! | `PNC_EPOCHS` | epoch cap | 300 |
//! | `PNC_MC` | Monte-Carlo samples per epoch | 2 |
//! | `PNC_TRIALS` | variation instances at test time | 5 |
//! | `PNC_TOPK` | models kept per dataset ("top three", §IV-B) | 2 |
//! | `PNC_HIDDEN` | hidden width of all models | 8 |

use ptnc_datasets::preprocess::Preprocess;
use ptnc_datasets::{benchmark, BenchmarkSpec, DataSplit};

use crate::eval::{evaluate, evaluate_with_runner, mean_std, EvalCondition};
use crate::parallel::ParallelRunner;
use crate::training::{
    top_k_indices, train, train_elman_with_runner, train_with_runner, TrainConfig,
};

/// Experiment fidelity knobs (see module docs for the environment mapping the
/// experiment binaries apply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Training seeds per dataset.
    pub seeds: usize,
    /// Epoch cap per run.
    pub epochs: usize,
    /// Monte-Carlo samples per variation-aware epoch.
    pub mc_samples: usize,
    /// Variation instances averaged at test time.
    pub variation_trials: usize,
    /// Best-on-test models kept per dataset.
    pub top_k: usize,
    /// Hidden width of every model.
    pub hidden: usize,
}

impl ExperimentScale {
    /// Defaults that finish the full Table I in minutes.
    pub fn quick() -> Self {
        ExperimentScale {
            seeds: 3,
            epochs: 300,
            mc_samples: 2,
            variation_trials: 5,
            top_k: 2,
            hidden: 8,
        }
    }
}

/// The preprocessed 60/20/20 split of one benchmark (paper §IV-A2).
pub fn prepare_split(spec: &BenchmarkSpec, seed: u64) -> DataSplit {
    let raw = benchmark(spec, seed);
    let ds = Preprocess::paper_default().apply(&raw);
    ds.shuffle_split(0.6, 0.2, seed)
}

/// Tunes the ADAPT-pNC augmentation strength per dataset with a short grid
/// search on the validation split — the reproduction's substitute for the
/// paper's Ray-Tune hyper-parameter search over crop size, noise level and
/// time-warping (§IV-A3).
///
/// Each candidate strength is scored by a shortened training run evaluated on
/// the validation set under the paper's combined test condition.
pub fn tune_augment_strength(
    split: &DataSplit,
    template: &TrainConfig,
    scale: &ExperimentScale,
) -> f64 {
    let grid = vec![0.25, 0.5, 0.75];
    let tune_epochs = (scale.epochs / 3).max(20);
    let condition = EvalCondition::VariationAndPerturbed {
        config: crate::variation::VariationConfig::paper_default(),
        trials: scale.variation_trials.min(3),
        strength: 0.5,
    };
    let (points, best) = ptnc_nn::tune::grid_search(grid, |&strength| {
        let cfg = template
            .clone()
            .with_epochs(tune_epochs)
            .with_augment_strength(strength);
        let trained = train(split, &cfg, 0);
        evaluate(&trained.model, &split.val, &condition, 0)
    });
    points[best].config
}

/// One Table I row: `mean ± std` test accuracy of the three models on one
/// dataset under the paper's condition (±10 % variation + perturbed inputs).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Table1Row {
    /// Dataset name.
    pub dataset: String,
    /// Elman RNN reference accuracy (mean, std).
    pub elman: (f64, f64),
    /// Baseline pTPNC accuracy (mean, std).
    pub baseline: (f64, f64),
    /// Robustness-aware ADAPT-pNC accuracy (mean, std).
    pub adapt: (f64, f64),
}

/// Runs the full Table I protocol on one benchmark with an
/// environment-sized runner (`PNC_THREADS`). See [`table1_row_with_runner`].
pub fn table1_row(spec: &BenchmarkSpec, scale: &ExperimentScale) -> Table1Row {
    table1_row_with_runner(spec, scale, &ParallelRunner::from_env())
}

/// Runs the full Table I protocol on one benchmark: train over seeds, keep
/// the top-k models by test accuracy, report mean ± std under the paper's
/// test condition.
///
/// The per-seed runs fan out through `runner`; each worker builds its model
/// locally and trains with a serial inner runner (the seed loop is the
/// outermost — and therefore the best — axis to parallelize, and nesting
/// pools would only oversubscribe). Results are bit-identical for any
/// thread count.
pub fn table1_row_with_runner(
    spec: &BenchmarkSpec,
    scale: &ExperimentScale,
    runner: &ParallelRunner,
) -> Table1Row {
    let split = prepare_split(spec, 0);
    let condition = EvalCondition::VariationAndPerturbed {
        config: crate::variation::VariationConfig::paper_default(),
        trials: scale.variation_trials,
        strength: 0.5,
    };

    // --- Elman reference (no variation applies to software) -------------
    let elman_scores = runner.run((0..scale.seeds as u64).collect(), |_, seed: u64| {
        let (model, _) = train_elman_with_runner(
            &split,
            scale.hidden,
            scale.epochs,
            seed,
            &ParallelRunner::serial(),
        );
        // The reference model still sees the perturbed test inputs.
        let perturbed = crate::eval::perturb_dataset(&split.test, 0.5, seed);
        let (steps, labels) = crate::eval::dataset_to_steps(&perturbed);
        ptnc_nn::accuracy(&model.forward(&steps), &labels)
    });

    // --- printed models --------------------------------------------------
    let run = |cfg: TrainConfig| -> Vec<f64> {
        let scores = runner.run((0..scale.seeds as u64).collect(), |_, seed: u64| {
            let inner = ParallelRunner::serial();
            let trained = train_with_runner(&split, &cfg, seed, &inner);
            evaluate_with_runner(&trained.model, &split.test, &condition, seed, &inner)
        });
        let keep = top_k_indices(&scores, scale.top_k.min(scores.len()));
        keep.iter().map(|&i| scores[i]).collect()
    };

    let baseline_cfg = TrainConfig::baseline_ptpnc(scale.hidden).with_epochs(scale.epochs);
    let adapt_template = TrainConfig::adapt_pnc(scale.hidden)
        .with_epochs(scale.epochs)
        .to_builder()
        .mc_samples(scale.mc_samples)
        .build();
    // Per-dataset augmentation tuning (the paper's Ray-Tune step).
    let strength = tune_augment_strength(&split, &adapt_template, scale);
    let adapt_cfg = adapt_template.with_augment_strength(strength);

    let baseline_scores = run(baseline_cfg);
    let adapt_scores = run(adapt_cfg);
    let elman_keep = top_k_indices(&elman_scores, scale.top_k.min(elman_scores.len()));
    let elman_scores: Vec<f64> = elman_keep.iter().map(|&i| elman_scores[i]).collect();

    Table1Row {
        dataset: spec.name.to_string(),
        elman: mean_std(&elman_scores),
        baseline: mean_std(&baseline_scores),
        adapt: mean_std(&adapt_scores),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptnc_datasets::all_specs;

    #[test]
    fn prepare_split_partitions() {
        let spec = &all_specs()[0];
        let split = prepare_split(spec, 0);
        let total = spec.classes * spec.samples_per_class;
        assert_eq!(
            split.train.len() + split.val.len() + split.test.len(),
            total
        );
        assert_eq!(split.train.series_len(), 64);
    }

    #[test]
    fn tiny_table1_row_runs() {
        let spec = all_specs().iter().find(|s| s.name == "GPOVY").unwrap();
        let scale = ExperimentScale {
            seeds: 1,
            epochs: 6,
            mc_samples: 1,
            variation_trials: 2,
            top_k: 1,
            hidden: 3,
        };
        let row = table1_row(spec, &scale);
        assert_eq!(row.dataset, "GPOVY");
        for (m, s) in [row.elman, row.baseline, row.adapt] {
            assert!((0.0..=1.0).contains(&m));
            assert!(s >= 0.0);
        }
    }
}
