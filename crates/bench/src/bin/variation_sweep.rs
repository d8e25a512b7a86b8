//! Extension study: accuracy as a function of the printing precision δ —
//! a finer-grained version of the paper's Fig. 5 that sweeps the variation
//! magnitude instead of evaluating the single ±10 % point, for both the
//! baseline and the robustness-aware model.
//!
//! ```text
//! PNC_DATASETS=GPOVY,PowerCons cargo run -p ptnc-bench --release --bin variation_sweep
//! ```

use adapt_pnc::eval::{evaluate_with_runner, EvalCondition};
use adapt_pnc::experiments::prepare_split;
use adapt_pnc::parallel::ParallelRunner;
use adapt_pnc::training::{train_with_runner, TrainConfig};
use adapt_pnc::variation::VariationConfig;
use ptnc_bench::{mean, print_row, print_rule, scale_from_env, selected_specs, with_run_manifest};

fn main() {
    with_run_manifest("variation_sweep", run);
}

fn run() {
    let scale = scale_from_env();
    let runner = ParallelRunner::from_env();
    eprintln!(
        "variation_sweep: scale = {scale:?}, threads = {}",
        runner.threads()
    );
    let deltas = [0.0, 0.05, 0.10, 0.20, 0.30];

    let mut header = vec!["model".to_string()];
    header.extend(deltas.iter().map(|d| format!("d={d:.2}")));
    let widths: Vec<usize> = std::iter::once(10usize)
        .chain(deltas.iter().map(|_| 8usize))
        .collect();

    // Accuracy per model per delta, averaged across datasets.
    let mut rows: Vec<(String, Vec<Vec<f64>>)> = vec![
        ("baseline".into(), vec![Vec::new(); deltas.len()]),
        ("adapt".into(), vec![Vec::new(); deltas.len()]),
    ];

    // One shared fan-out over datasets; each worker trains both models and
    // sweeps every delta with a serial inner runner, returning a
    // `[model][delta]` accuracy grid.
    let grids = runner.run(selected_specs(), |_, spec| {
        let inner = ParallelRunner::serial();
        let split = prepare_split(spec, 0);
        let models = [
            train_with_runner(
                &split,
                &TrainConfig::baseline_ptpnc(scale.hidden).with_epochs(scale.epochs),
                0,
                &inner,
            ),
            train_with_runner(
                &split,
                &TrainConfig::adapt_pnc(scale.hidden)
                    .with_epochs(scale.epochs)
                    .to_builder()
                    .mc_samples(scale.mc_samples)
                    .build(),
                0,
                &inner,
            ),
        ];
        models
            .iter()
            .map(|trained| {
                deltas
                    .iter()
                    .map(|&delta| {
                        let condition = if delta == 0.0 {
                            EvalCondition::Nominal
                        } else {
                            EvalCondition::Variation {
                                config: VariationConfig::with_delta(delta),
                                trials: scale.variation_trials,
                            }
                        };
                        evaluate_with_runner(&trained.model, &split.test, &condition, 0, &inner)
                    })
                    .collect::<Vec<f64>>()
            })
            .collect::<Vec<Vec<f64>>>()
    });

    for grid in grids {
        for (row, accs) in rows.iter_mut().zip(grid) {
            for (i, acc) in accs.into_iter().enumerate() {
                row.1[i].push(acc);
            }
        }
    }

    print_row(&header, &widths);
    print_rule(&widths);
    for (name, cols) in &rows {
        let mut cells = vec![name.clone()];
        cells.extend(cols.iter().map(|scores| format!("{:.3}", mean(scores))));
        print_row(&cells, &widths);
    }
    println!();
    println!("(mean test accuracy across the selected datasets; d = relative component variation)");
}
