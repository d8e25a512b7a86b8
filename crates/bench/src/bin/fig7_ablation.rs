//! Regenerates **Fig. 7**: the ablation of the three robustness ingredients —
//! baseline, +VA, +AT, +SO-LF and the full VA+SO-LF+AT — on clean and
//! perturbed test data, both under 10 % physical variation.
//!
//! ```text
//! cargo run -p ptnc-bench --release --bin fig7_ablation
//! PNC_DATASETS=CBF,PowerCons,Symbols cargo run ... # subset for speed
//! ```

use adapt_pnc::ablation::{run_arm_with_runner, AblationArm};
use adapt_pnc::experiments::prepare_split;
use adapt_pnc::parallel::ParallelRunner;
use ptnc_bench::{mean, print_row, print_rule, scale_from_env, selected_specs, with_run_manifest};

fn main() {
    with_run_manifest("fig7_ablation", run);
}

fn run() {
    let scale = scale_from_env();
    let runner = ParallelRunner::from_env();
    eprintln!(
        "fig7_ablation: scale = {scale:?}, threads = {}",
        runner.threads()
    );

    let arms = AblationArm::all();
    let widths = [12usize, 12, 9, 9];
    print_row(
        &[
            "Dataset".into(),
            "Arm".into(),
            "clean".into(),
            "perturb".into(),
        ],
        &widths,
    );
    print_rule(&widths);

    // One shared fan-out over every (dataset × arm) pair — the finest
    // independent unit of work here. Results come back in item order, so the
    // printed table is identical for any thread count.
    let mut pairs = Vec::new();
    for spec in selected_specs() {
        for arm in arms {
            pairs.push((spec, arm));
        }
    }
    let results = runner.run(pairs.clone(), |_, (spec, arm)| {
        let split = prepare_split(spec, 0);
        run_arm_with_runner(
            arm,
            &split,
            scale.hidden,
            scale.epochs,
            scale.variation_trials,
            0,
            &ParallelRunner::serial(),
        )
    });

    let mut clean: Vec<Vec<f64>> = vec![Vec::new(); arms.len()];
    let mut perturbed: Vec<Vec<f64>> = vec![Vec::new(); arms.len()];
    for ((spec, arm), result) in pairs.iter().zip(&results) {
        let i = arms.iter().position(|a| a == arm).unwrap();
        print_row(
            &[
                spec.name.to_string(),
                arm.label().to_string(),
                format!("{:.3}", result.clean),
                format!("{:.3}", result.perturbed),
            ],
            &widths,
        );
        clean[i].push(result.clean);
        perturbed[i].push(result.perturbed);
    }

    print_rule(&widths);
    println!();
    println!("## Fig. 7 summary (mean accuracy across datasets, under 10 % variation)");
    println!("{:<14} {:>8} {:>10}", "arm", "clean", "perturbed");
    for (i, arm) in arms.iter().enumerate() {
        println!(
            "{:<14} {:>8.3} {:>10.3}",
            arm.label(),
            mean(&clean[i]),
            mean(&perturbed[i])
        );
    }
    println!();
    let base = mean(&clean[0]);
    for (i, arm) in arms.iter().enumerate().skip(1) {
        println!(
            "{}: {:+.1} pp clean vs baseline (paper: VA +11.6, AT +13.3, SO-LF +24.6, full +23.7 — relative %)",
            arm.label(),
            (mean(&clean[i]) - base) * 100.0
        );
    }
}
