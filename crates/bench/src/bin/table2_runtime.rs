//! Regenerates **Table II**: average runtime of the three models.
//!
//! The paper reports the average wall-clock cost of evaluating each model
//! class; absolute numbers depend on the host, but the *ordering* — Elman RNN
//! ≪ baseline pTPNC < robustness-aware ADAPT-pNC (whose Monte-Carlo sampling
//! over augmented data multiplies the work) — is the table's point. We report
//! both one training epoch and one full-test-set inference per model,
//! averaged over datasets.
//!
//! Per-epoch training cost comes from the trainer's own epoch clock
//! ([`ptnc_nn::timing`]), so dataset preparation and model setup are
//! excluded.
//!
//! ```text
//! cargo run -p ptnc-bench --release --bin table2_runtime
//! ```

use std::time::Instant;

use adapt_pnc::eval::dataset_to_steps;
use adapt_pnc::experiments::prepare_split;
use adapt_pnc::models::PrintedModel;
use adapt_pnc::training::{train, train_elman, TrainConfig};
use ptnc_bench::{mean, print_row, print_rule, scale_from_env, selected_specs};
use ptnc_nn::timing;
use ptnc_tensor::init;

fn main() {
    let scale = scale_from_env();
    eprintln!("table2_runtime: scale = {scale:?}");
    // A handful of epochs is enough to time a steady-state epoch.
    let timing_epochs = 10;

    let mut elman_train = Vec::new();
    let mut base_train = Vec::new();
    let mut adapt_train = Vec::new();
    let mut elman_infer = Vec::new();
    let mut base_infer = Vec::new();
    let mut adapt_infer = Vec::new();

    for spec in selected_specs() {
        let split = prepare_split(spec, 0);
        let (steps, _labels) = dataset_to_steps(&split.test);

        // --- per-epoch training cost (trainer epoch clock) ------------
        timing::begin_capture();
        let (elman, _) = train_elman(&split, scale.hidden, timing_epochs, 0);
        elman_train.push(timing::end_capture().seconds_per_epoch());

        timing::begin_capture();
        let base = train(
            &split,
            &TrainConfig::baseline_ptpnc(scale.hidden).with_epochs(timing_epochs),
            0,
        );
        base_train.push(timing::end_capture().seconds_per_epoch());

        timing::begin_capture();
        let adapt = train(
            &split,
            &TrainConfig::adapt_pnc(scale.hidden)
                .with_epochs(timing_epochs)
                .to_builder()
                .mc_samples(scale.mc_samples)
                .build(),
            0,
        );
        adapt_train.push(timing::end_capture().seconds_per_epoch());

        // --- test-set inference cost ----------------------------------
        let t0 = Instant::now();
        let _ = elman.forward(&steps);
        elman_infer.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let _ = base.model.forward_nominal(&steps);
        base_infer.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let _ = adapt.model.forward_nominal(&steps);
        adapt_infer.push(t0.elapsed().as_secs_f64());

        // Keep optimizer effects out of the next iteration.
        let _ = PrintedModel::ptpnc(1, 2, 2, &mut init::rng(0));
    }

    let widths = [26usize, 14, 14, 18];
    print_row(
        &[
            "Metric".into(),
            "Elman RNN".into(),
            "pTPNC (base)".into(),
            "ADAPT-pNC".into(),
        ],
        &widths,
    );
    print_rule(&widths);
    print_row(
        &[
            "train epoch (avg, ms)".into(),
            format!("{:.2}", mean(&elman_train) * 1e3),
            format!("{:.2}", mean(&base_train) * 1e3),
            format!("{:.2}", mean(&adapt_train) * 1e3),
        ],
        &widths,
    );
    print_row(
        &[
            "test inference (avg, ms)".into(),
            format!("{:.2}", mean(&elman_infer) * 1e3),
            format!("{:.2}", mean(&base_infer) * 1e3),
            format!("{:.2}", mean(&adapt_infer) * 1e3),
        ],
        &widths,
    );
    println!();
    println!(
        "training-cost ratio ADAPT/baseline: {:.1}x (paper: 2.537 s vs 0.230 s ≈ 11x)",
        mean(&adapt_train) / mean(&base_train)
    );
}
