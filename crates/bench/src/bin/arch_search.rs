//! Architecture search (the paper's §V future work): sweep hidden width ×
//! filter order, score under the robustness condition, and print the
//! accuracy/device Pareto front.
//!
//! ```text
//! PNC_DATASETS=CBF cargo run -p ptnc-bench --release --bin arch_search
//! ```

use adapt_pnc::experiments::prepare_split;
use adapt_pnc::search::{architecture_search, pareto_front, SearchSpace};
use ptnc_bench::{print_row, print_rule, scale_from_env, selected_specs};

fn main() {
    let scale = scale_from_env();
    eprintln!("arch_search: scale = {scale:?}");
    let space = SearchSpace::compact();
    // Search candidates train briefly; the winner would be retrained at full
    // budget in a real flow.
    let epochs = (scale.epochs / 2).max(20);

    for spec in selected_specs() {
        println!("## {}", spec.name);
        let split = prepare_split(spec, 0);
        let (candidates, best) = architecture_search(&split, &space, epochs, 0);
        let front = pareto_front(&candidates);

        let widths = [8usize, 7, 9, 9, 10, 8];
        print_row(
            &[
                "hidden".into(),
                "order".into(),
                "score".into(),
                "devices".into(),
                "power_mW".into(),
                "pareto".into(),
            ],
            &widths,
        );
        print_rule(&widths);
        for (i, c) in candidates.iter().enumerate() {
            let on_front = front.iter().any(|f| f == c);
            print_row(
                &[
                    c.hidden.to_string(),
                    c.order.label().into(),
                    format!("{:.3}", c.score),
                    c.devices.total().to_string(),
                    format!("{:.4}", c.power * 1e3),
                    format!(
                        "{}{}",
                        if on_front { "*" } else { "" },
                        if i == best { " best" } else { "" }
                    ),
                ],
                &widths,
            );
        }
        println!();
    }
}
