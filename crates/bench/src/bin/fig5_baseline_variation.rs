//! Regenerates **Fig. 5**: the motivating observation — a trained
//! no-variation-aware baseline pTPNC collapses when tested under physical
//! variation and perturbed sensor inputs.
//!
//! ```text
//! cargo run -p ptnc-bench --release --bin fig5_baseline_variation
//! ```

use adapt_pnc::eval::{evaluate_with_runner, EvalCondition};
use adapt_pnc::experiments::prepare_split;
use adapt_pnc::parallel::ParallelRunner;
use adapt_pnc::training::{train_with_runner, TrainConfig};
use adapt_pnc::variation::VariationConfig;
use ptnc_bench::{mean, print_row, print_rule, scale_from_env, selected_specs};

fn main() {
    let scale = scale_from_env();
    let runner = ParallelRunner::from_env();
    eprintln!(
        "fig5_baseline_variation: scale = {scale:?}, threads = {}",
        runner.threads()
    );

    let widths = [10usize, 9, 9, 9, 9];
    print_row(
        &[
            "Dataset".into(),
            "clean".into(),
            "vary".into(),
            "perturb".into(),
            "both".into(),
        ],
        &widths,
    );
    print_rule(&widths);

    let variation = VariationConfig::paper_default();
    // One shared fan-out over datasets; each worker trains the baseline and
    // scores all four conditions with a serial inner runner.
    let per_spec = runner.run(selected_specs(), |_, spec| {
        let inner = ParallelRunner::serial();
        let split = prepare_split(spec, 0);
        let cfg = TrainConfig::baseline_ptpnc(scale.hidden).with_epochs(scale.epochs);
        let trained = train_with_runner(&split, &cfg, 0, &inner);
        let conditions = [
            EvalCondition::Nominal,
            EvalCondition::Variation {
                config: variation,
                trials: scale.variation_trials,
            },
            EvalCondition::Perturbed { strength: 0.5 },
            EvalCondition::VariationAndPerturbed {
                config: variation,
                trials: scale.variation_trials,
                strength: 0.5,
            },
        ];
        let accs: Vec<f64> = conditions
            .iter()
            .map(|cond| evaluate_with_runner(&trained.model, &split.test, cond, 0, &inner))
            .collect();
        (spec.name.to_string(), accs)
    });

    let mut cols = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for (name, accs) in per_spec {
        let mut cells = vec![name];
        for (i, acc) in accs.into_iter().enumerate() {
            cells.push(format!("{acc:.3}"));
            cols[i].push(acc);
        }
        print_row(&cells, &widths);
    }
    print_rule(&widths);
    print_row(
        &[
            "Average".into(),
            format!("{:.3}", mean(&cols[0])),
            format!("{:.3}", mean(&cols[1])),
            format!("{:.3}", mean(&cols[2])),
            format!("{:.3}", mean(&cols[3])),
        ],
        &widths,
    );
    println!();
    println!(
        "accuracy drop clean -> variation+perturbed: {:.1} pp (the paper's Fig. 5 motivation)",
        (mean(&cols[0]) - mean(&cols[3])) * 100.0
    );
}
