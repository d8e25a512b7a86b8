//! Manufacturing-yield analysis under catastrophic printing defects (missing
//! droplets / merged traces) — the extension study built on
//! [`adapt_pnc::faults`]. Compares how the baseline pTPNC and ADAPT-pNC
//! tolerate increasing open-defect rates.
//!
//! ```text
//! PNC_DATASETS=GPOVY,PowerCons cargo run -p ptnc-bench --release --bin fault_yield
//! ```

use adapt_pnc::eval::dataset_to_steps;
use adapt_pnc::experiments::prepare_split;
use adapt_pnc::faults::{yield_rate, FaultConfig};
use adapt_pnc::parallel::ParallelRunner;
use adapt_pnc::pdk::Pdk;
use adapt_pnc::training::{train_with_runner, TrainConfig};
use adapt_pnc::variation::VariationConfig;
use ptnc_bench::{print_row, print_rule, scale_from_env, selected_specs};
use ptnc_tensor::init;

fn main() {
    let scale = scale_from_env();
    let runner = ParallelRunner::from_env();
    eprintln!(
        "fault_yield: scale = {scale:?}, threads = {}",
        runner.threads()
    );
    let pdk = Pdk::paper_default();
    let trials = 20;
    // A batch instance "yields" if it keeps ≥ 90 % of the fault-free
    // accuracy of its own model.
    let retain = 0.9;

    let widths = [10usize, 10, 12, 9, 9];
    print_row(
        &[
            "Dataset".into(),
            "model".into(),
            "open_rate".into(),
            "yield".into(),
            "acc_ok".into(),
        ],
        &widths,
    );
    print_rule(&widths);

    // One shared fan-out over datasets; each worker trains both models and
    // sweeps the open-defect rates with a serial inner runner, returning the
    // finished table rows for its dataset.
    let spec_rows = runner.run(selected_specs(), |_, spec| {
        let inner = ParallelRunner::serial();
        let split = prepare_split(spec, 0);
        let (steps, labels) = dataset_to_steps(&split.test);
        let models = [
            (
                "baseline",
                train_with_runner(
                    &split,
                    &TrainConfig::baseline_ptpnc(scale.hidden).with_epochs(scale.epochs),
                    0,
                    &inner,
                ),
            ),
            (
                "adapt",
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
            ),
        ];
        let mut out = Vec::new();
        for (name, trained) in &models {
            let fault_free = ptnc_nn::accuracy(&trained.model.forward_nominal(&steps), &labels);
            let threshold = retain * fault_free;
            for open_rate in [0.01, 0.05, 0.10] {
                let cfg = FaultConfig {
                    open_rate,
                    stuck_max_rate: open_rate / 2.0,
                    variation: VariationConfig::paper_default(),
                };
                let mut rng = init::rng(42);
                let y = yield_rate(
                    &trained.model,
                    &steps,
                    &labels,
                    &cfg,
                    &pdk,
                    threshold,
                    trials,
                    &mut rng,
                );
                out.push(vec![
                    spec.name.to_string(),
                    name.to_string(),
                    format!("{open_rate:.2}"),
                    format!("{y:.2}"),
                    format!("{threshold:.3}"),
                ]);
            }
        }
        out
    });

    for cells in spec_rows.into_iter().flatten() {
        print_row(&cells, &widths);
    }
    println!();
    println!("yield = fraction of {trials} simulated printed instances retaining {:.0}% of fault-free accuracy", retain * 100.0);
}
