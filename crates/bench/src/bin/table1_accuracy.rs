//! Regenerates **Table I**: test accuracy of the Elman RNN reference, the
//! baseline pTPNC and the robustness-aware ADAPT-pNC on the 15 benchmarks,
//! under ±10 % component variation and perturbed input data.
//!
//! ```text
//! cargo run -p ptnc-bench --release --bin table1_accuracy
//! PNC_SEEDS=10 PNC_EPOCHS=400 cargo run ... # closer to paper fidelity
//! ```

use adapt_pnc::experiments::table1_row_with_runner;
use adapt_pnc::parallel::ParallelRunner;
use ptnc_bench::{
    fmt_pm, mean, print_row, print_rule, scale_from_env, selected_specs, with_run_manifest,
};

fn main() {
    with_run_manifest("table1_accuracy", run);
}

fn run() {
    let scale = scale_from_env();
    let runner = ParallelRunner::from_env();
    eprintln!(
        "table1_accuracy: scale = {scale:?}, threads = {}",
        runner.threads()
    );

    let widths = [10usize, 16, 16, 16];
    print_row(
        &[
            "Dataset".into(),
            "Elman RNN".into(),
            "pTPNC (base)".into(),
            "ADAPT-pNC".into(),
        ],
        &widths,
    );
    print_rule(&widths);

    let mut elman_means = Vec::new();
    let mut base_means = Vec::new();
    let mut adapt_means = Vec::new();
    let mut elman_stds = Vec::new();
    let mut base_stds = Vec::new();
    let mut adapt_stds = Vec::new();

    // One shared fan-out over datasets; each worker runs its row (training,
    // tuning, evaluation) with a serial inner runner. Rows come back in
    // dataset order, so the table — and the numbers — are thread-count
    // independent.
    let rows = runner.run(selected_specs(), |_, spec| {
        table1_row_with_runner(spec, &scale, &ParallelRunner::serial())
    });

    for row in rows {
        print_row(
            &[
                row.dataset.clone(),
                fmt_pm(row.elman.0, row.elman.1),
                fmt_pm(row.baseline.0, row.baseline.1),
                fmt_pm(row.adapt.0, row.adapt.1),
            ],
            &widths,
        );
        elman_means.push(row.elman.0);
        base_means.push(row.baseline.0);
        adapt_means.push(row.adapt.0);
        elman_stds.push(row.elman.1);
        base_stds.push(row.baseline.1);
        adapt_stds.push(row.adapt.1);
    }

    print_rule(&widths);
    print_row(
        &[
            "Average".into(),
            fmt_pm(mean(&elman_means), mean(&elman_stds)),
            fmt_pm(mean(&base_means), mean(&base_stds)),
            fmt_pm(mean(&adapt_means), mean(&adapt_stds)),
        ],
        &widths,
    );
    let improvement = mean(&adapt_means) - mean(&base_means);
    println!();
    println!(
        "ADAPT-pNC improvement over baseline: {:+.1} percentage points (paper: ≈ +14.4 pp / ≈24.7 % relative)",
        improvement * 100.0
    );
}
