//! Regenerates **Table III**: hardware cost (transistor/resistor/capacitor/
//! total device counts) and static power of the baseline pTPNC vs the
//! proposed ADAPT-pNC, per dataset and averaged.
//!
//! ```text
//! cargo run -p ptnc-bench --release --bin table3_hardware
//! ```

use adapt_pnc::experiments::prepare_split;
use adapt_pnc::hardware::{count_devices, HardwareReport};
use adapt_pnc::power::model_power;
use adapt_pnc::training::{train, TrainConfig};
use ptnc_bench::{print_row, print_rule, scale_from_env, selected_specs};

fn main() {
    let scale = scale_from_env();
    eprintln!("table3_hardware: scale = {scale:?}");
    let pdk = adapt_pnc::pdk::Pdk::paper_default();

    let widths = [10usize, 9, 9, 9, 9, 9, 9, 11, 11, 11, 11];
    print_row(
        &[
            "Dataset".into(),
            "T_base".into(),
            "T_prop".into(),
            "R_base".into(),
            "R_prop".into(),
            "C_base".into(),
            "C_prop".into(),
            "Tot_base".into(),
            "Tot_prop".into(),
            "P_base_mW".into(),
            "P_prop_mW".into(),
        ],
        &widths,
    );
    print_rule(&widths);

    let mut reports = Vec::new();
    for spec in selected_specs() {
        let split = prepare_split(spec, 0);
        let base = train(
            &split,
            &TrainConfig::baseline_ptpnc(scale.hidden).with_epochs(scale.epochs),
            0,
        );
        let prop = train(
            &split,
            &TrainConfig::adapt_pnc(scale.hidden)
                .with_epochs(scale.epochs)
                .to_builder()
                .mc_samples(scale.mc_samples)
                .build(),
            0,
        );
        let report = HardwareReport {
            dataset: spec.name.to_string(),
            baseline: count_devices(&base.model),
            proposed: count_devices(&prop.model),
            baseline_power: model_power(&base.model, &pdk).total(),
            proposed_power: model_power(&prop.model, &pdk).total(),
        };
        print_row(
            &[
                report.dataset.clone(),
                report.baseline.transistors.to_string(),
                report.proposed.transistors.to_string(),
                report.baseline.resistors.to_string(),
                report.proposed.resistors.to_string(),
                report.baseline.capacitors.to_string(),
                report.proposed.capacitors.to_string(),
                report.baseline.total().to_string(),
                report.proposed.total().to_string(),
                format!("{:.3}", report.baseline_power * 1e3),
                format!("{:.3}", report.proposed_power * 1e3),
            ],
            &widths,
        );
        reports.push(report);
    }

    print_rule(&widths);
    let avg = |f: &dyn Fn(&HardwareReport) -> f64| -> f64 {
        reports.iter().map(f).sum::<f64>() / reports.len() as f64
    };
    print_row(
        &[
            "Average".into(),
            format!("{:.0}", avg(&|r| r.baseline.transistors as f64)),
            format!("{:.0}", avg(&|r| r.proposed.transistors as f64)),
            format!("{:.0}", avg(&|r| r.baseline.resistors as f64)),
            format!("{:.0}", avg(&|r| r.proposed.resistors as f64)),
            format!("{:.0}", avg(&|r| r.baseline.capacitors as f64)),
            format!("{:.0}", avg(&|r| r.proposed.capacitors as f64)),
            format!("{:.0}", avg(&|r| r.baseline.total() as f64)),
            format!("{:.0}", avg(&|r| r.proposed.total() as f64)),
            format!("{:.3}", avg(&|r| r.baseline_power * 1e3)),
            format!("{:.3}", avg(&|r| r.proposed_power * 1e3)),
        ],
        &widths,
    );
    println!();
    println!(
        "device overhead: {:.2}x (paper: ≈1.9x)   power saving: {:.1}% (paper: ≈91%)",
        avg(&|r| r.device_overhead()),
        avg(&|r| r.power_saving()) * 100.0
    );
}
