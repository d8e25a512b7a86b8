//! Precision sweep for the multi-precision inference kernels: throughput
//! and accuracy of the `f32` and `i32` fixed-point biquad SO-LF backends
//! against the `f64` reference.
//!
//! ```text
//! cargo run -p ptnc-bench --release --bin quant_sweep
//! PNC_SMOKE=1 PNC_QUANT_ENFORCE=1 cargo run -p ptnc-bench --release --bin quant_sweep
//! ```
//!
//! Three phases:
//!
//! 1. **Throughput** — seqs/sec, timesteps/sec and allocations per forward
//!    for each backend at the default serving shape (batched
//!    `run_batch_into`, scratch reused).
//! 2. **Q-format sweep** — the i32 backend across fraction widths, with
//!    max logit divergence and argmax agreement against f64 on the same
//!    inputs.
//! 3. **Accuracy** — short Table I training runs, each trained model
//!    evaluated on its test split under every backend.
//!
//! Knobs: `PNC_SMOKE=1` shrinks everything for CI; `PNC_QUANT_BATCH`,
//! `PNC_QUANT_STEPS`, `PNC_QUANT_HIDDEN`, `PNC_QUANT_EPOCHS` and
//! `PNC_DATASETS` override the workload. Results are written as JSON to
//! `PNC_QUANT_JSON` (default `BENCH_quant.json`). `PNC_QUANT_ENFORCE=1`
//! fails the run if any backend allocates per forward or the i32 argmax
//! agreement with f64 at the default Q-format falls below
//! `PNC_QUANT_MIN_AGREEMENT` (default 0.90); outside smoke mode it also
//! requires f32 to clear 1.5x the f64 timestep throughput and the best
//! i32 Q-format to sit within 0.5 pp of f64 mean accuracy.

use std::time::Instant;

use adapt_pnc::eval::dataset_to_steps;
use adapt_pnc::experiments::prepare_split;
use adapt_pnc::infer::{accuracy, InferModel, Precision, QFormat};
use adapt_pnc::models::{FilterOrder, PrintedModel};
use adapt_pnc::parallel::ParallelRunner;
use adapt_pnc::pdk::Pdk;
use adapt_pnc::serve::ServeModel;
use adapt_pnc::training::{train_with_runner, TrainConfig};
use ptnc_bench::{env_usize, mean, print_row, print_rule, selected_specs, with_run_manifest};
use ptnc_tensor::init;

#[global_allocator]
static GLOBAL: ptnc_bench::CountingAlloc = ptnc_bench::CountingAlloc;

const SEED: u64 = 0;
const SWEEP_FRAC_BITS: [u32; 4] = [12, 16, 20, 24];

struct Workload {
    smoke: bool,
    batch: usize,
    steps: usize,
    hidden: usize,
    classes: usize,
    forwards: usize,
    epochs: usize,
    datasets: usize,
}

impl Workload {
    fn from_env() -> Self {
        let smoke = std::env::var("PNC_SMOKE").is_ok_and(|v| v != "0");
        let (batch, steps, hidden, forwards, epochs, datasets) = if smoke {
            (8, 16, 4, 8, 6, 2)
        } else {
            (32, 64, 16, 128, 80, usize::MAX)
        };
        Workload {
            smoke,
            batch: env_usize("PNC_QUANT_BATCH", batch),
            steps: env_usize("PNC_QUANT_STEPS", steps),
            hidden: env_usize("PNC_QUANT_HIDDEN", hidden),
            classes: 4,
            forwards,
            epochs: env_usize("PNC_QUANT_EPOCHS", epochs),
            datasets,
        }
    }
}

struct BackendResult {
    name: String,
    seqs_per_sec: f64,
    timesteps_per_sec: f64,
    allocs_per_forward: f64,
    max_abs_logit_err: f64,
    argmax_agreement: f64,
}

/// Argmax of one logit row; ties resolve to the first maximum, matching
/// [`adapt_pnc::infer::accuracy`].
fn argmax(row: &[f64]) -> usize {
    let mut best = 0;
    for (j, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = j;
        }
    }
    best
}

/// Times `run_batch_into` for `engine` on a shared synthetic batch and
/// compares its logits against the f64 reference output.
fn measure_backend(
    name: String,
    engine: &InferModel,
    steps: &[f64],
    wl: &Workload,
    reference: Option<&[f64]>,
) -> BackendResult {
    let mut scratch = engine
        .make_scratch(wl.batch)
        .expect("synthetic batch is non-zero");
    let mut out = vec![0.0; wl.batch * wl.classes];
    engine
        .run_batch_into(steps, wl.batch, &mut scratch, &mut out)
        .expect("buffers sized above"); // warm-up: first-touch allocations
    let alloc_start = ptnc_bench::allocations();
    let clock = Instant::now();
    for _ in 0..wl.forwards {
        engine
            .run_batch_into(steps, wl.batch, &mut scratch, &mut out)
            .expect("buffers sized above");
    }
    let elapsed = clock.elapsed().as_secs_f64().max(1e-9);
    let allocs = ptnc_bench::allocations() - alloc_start;
    let (max_abs_logit_err, argmax_agreement) = match reference {
        None => (0.0, 1.0),
        Some(base) => {
            let err = out
                .iter()
                .zip(base)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            let agree = (0..wl.batch)
                .filter(|&b| {
                    let row = b * wl.classes..(b + 1) * wl.classes;
                    argmax(&out[row.clone()]) == argmax(&base[row])
                })
                .count();
            (err, agree as f64 / wl.batch as f64)
        }
    };
    let seqs_per_sec = (wl.forwards * wl.batch) as f64 / elapsed;
    BackendResult {
        name,
        seqs_per_sec,
        timesteps_per_sec: seqs_per_sec * wl.steps as f64,
        allocs_per_forward: allocs as f64 / wl.forwards as f64,
        max_abs_logit_err,
        argmax_agreement,
    }
}

/// Per-dataset accuracy of one trained model under every backend, plus the
/// i32 default-Q argmax agreement with f64 on the test split.
struct AccuracyRow {
    dataset: String,
    /// Accuracies in the order of [`precisions`]: f64, f32, then each i32 Q.
    accs: Vec<f64>,
    agreement_default_q: f64,
}

/// The sweep's backend list: f64 reference, f32, and each i32 Q-format.
fn precisions() -> Vec<Precision> {
    let mut out = vec![Precision::F64, Precision::F32];
    out.extend(
        SWEEP_FRAC_BITS.iter().map(|&fb| {
            Precision::I32(QFormat::new(fb).expect("sweep Q-formats are within bounds"))
        }),
    );
    out
}

fn main() {
    with_run_manifest("quant_sweep", run);
}

fn run() {
    let wl = Workload::from_env();
    eprintln!(
        "quant_sweep: batch {} x {} steps, hidden {}, {} classes, {} epochs{}",
        wl.batch,
        wl.steps,
        wl.hidden,
        wl.classes,
        wl.epochs,
        if wl.smoke { " (smoke)" } else { "" }
    );

    // ---- Phase 1 + 2: synthetic throughput and Q-format sweep ----------
    let model = PrintedModel::new(
        1,
        wl.hidden,
        wl.classes,
        FilterOrder::Second,
        &Pdk::paper_default(),
        &mut init::rng(SEED),
    );
    // Time-major `[steps][batch]` synthetic input (input_dim = 1).
    let steps: Vec<f64> = (0..wl.steps * wl.batch)
        .map(|i| ((i as f64) * 0.17).sin())
        .collect();

    let engines: Vec<(Precision, InferModel)> = precisions()
        .into_iter()
        .map(|p| {
            let engine = ServeModel::builder()
                .precision(p)
                .from_live(&model)
                .expect("fresh model compiles under every backend")
                .into_engine();
            (p, engine)
        })
        .collect();

    // f64 reference logits for divergence/agreement columns.
    let mut reference = vec![0.0; wl.batch * wl.classes];
    {
        let engine = &engines[0].1;
        let mut scratch = engine.make_scratch(wl.batch).expect("non-zero batch");
        engine
            .run_batch_into(&steps, wl.batch, &mut scratch, &mut reference)
            .expect("buffers sized above");
    }

    let results: Vec<BackendResult> = engines
        .iter()
        .enumerate()
        .map(|(i, (p, engine))| {
            measure_backend(
                p.name(),
                engine,
                &steps,
                &wl,
                (i > 0).then_some(reference.as_slice()),
            )
        })
        .collect();

    let widths = [10usize, 14, 18, 18, 14, 12];
    print_row(
        &[
            "backend",
            "seqs/sec",
            "timesteps/sec",
            "allocs/forward",
            "max |dlogit|",
            "agreement",
        ]
        .map(String::from),
        &widths,
    );
    print_rule(&widths);
    let f64_timesteps = results[0].timesteps_per_sec;
    for r in &results {
        ptnc_telemetry::span("quant.backend")
            .field("backend", r.name.as_str())
            .field("timesteps_per_sec", r.timesteps_per_sec)
            .field("allocs_per_forward", r.allocs_per_forward)
            .field("argmax_agreement", r.argmax_agreement)
            .finish();
        print_row(
            &[
                r.name.clone(),
                format!("{:.0}", r.seqs_per_sec),
                format!("{:.0}", r.timesteps_per_sec),
                format!("{:.1}", r.allocs_per_forward),
                format!("{:.2e}", r.max_abs_logit_err),
                format!("{:.3}", r.argmax_agreement),
            ],
            &widths,
        );
    }
    let f32_speedup = results[1].timesteps_per_sec / f64_timesteps;
    ptnc_telemetry::gauge("quant.speedup.f32_vs_f64", f32_speedup);

    // ---- Phase 3: Table I accuracy under every backend -----------------
    let specs: Vec<_> = selected_specs().into_iter().take(wl.datasets).collect();
    eprintln!(
        "quant_sweep: training {} Table I dataset(s) at {} epochs",
        specs.len(),
        wl.epochs
    );
    let runner = ParallelRunner::from_env();
    let cfg = TrainConfig::builder(wl.hidden)
        .filter_order(FilterOrder::Second)
        .initial_lr(0.05)
        .max_epochs(wl.epochs)
        .patience(20)
        .build();
    let rows: Vec<AccuracyRow> = runner.run(specs, |_, spec| {
        let split = prepare_split(spec, SEED);
        let trained = train_with_runner(&split, &cfg, SEED, &ParallelRunner::serial()).model;
        let (test_steps, labels) = dataset_to_steps(&split.test);
        let flat = ServeModel::flatten_steps(&test_steps).expect("test split is non-empty");
        let n = labels.len();
        let classes = split.test.num_classes();
        let mut accs = Vec::new();
        let mut f64_logits = Vec::new();
        let mut default_q_logits = Vec::new();
        for p in precisions() {
            let engine = ServeModel::builder()
                .precision(p)
                .from_live(&trained)
                .expect("trained model compiles under every backend")
                .into_engine();
            let mut scratch = engine.make_scratch(n).expect("non-empty test split");
            let mut out = vec![0.0; n * classes];
            engine
                .run_batch_into(&flat, n, &mut scratch, &mut out)
                .expect("buffers sized above");
            accs.push(accuracy(&out, classes, &labels));
            if p == Precision::F64 {
                f64_logits = out.clone();
            }
            if p == Precision::I32(QFormat::DEFAULT) {
                default_q_logits = out.clone();
            }
        }
        let agree = (0..n)
            .filter(|&b| {
                let row = b * classes..(b + 1) * classes;
                argmax(&default_q_logits[row.clone()]) == argmax(&f64_logits[row])
            })
            .count();
        AccuracyRow {
            dataset: spec.name.to_string(),
            accs,
            agreement_default_q: agree as f64 / n as f64,
        }
    });

    let backend_names: Vec<String> = precisions().iter().map(Precision::name).collect();
    println!();
    let acc_widths = vec![12usize; backend_names.len() + 2];
    let mut header = vec!["Dataset".to_string()];
    header.extend(backend_names.iter().cloned());
    header.push("agree@q24".into());
    print_row(&header, &acc_widths);
    print_rule(&acc_widths);
    for row in &rows {
        let mut cells = vec![row.dataset.clone()];
        cells.extend(row.accs.iter().map(|a| format!("{:.3}", a)));
        cells.push(format!("{:.3}", row.agreement_default_q));
        print_row(&cells, &acc_widths);
    }
    let mean_accs: Vec<f64> = (0..backend_names.len())
        .map(|i| mean(&rows.iter().map(|r| r.accs[i]).collect::<Vec<_>>()))
        .collect();
    let agreement_default_q = mean(
        &rows
            .iter()
            .map(|r| r.agreement_default_q)
            .collect::<Vec<_>>(),
    );
    print_rule(&acc_widths);
    let mut cells = vec!["Average".to_string()];
    cells.extend(mean_accs.iter().map(|a| format!("{:.3}", a)));
    cells.push(format!("{:.3}", agreement_default_q));
    print_row(&cells, &acc_widths);

    // Best i32 Q-format by mean-accuracy distance from the f64 reference.
    let (best_i32_idx, best_i32_delta_pp) = mean_accs
        .iter()
        .enumerate()
        .skip(2)
        .map(|(i, &a)| (i, (a - mean_accs[0]).abs() * 100.0))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("sweep has i32 backends");
    println!();
    println!(
        "f32 timestep throughput: {:.2}x f64; best i32 backend {} within {:.2} pp of f64",
        f32_speedup, backend_names[best_i32_idx], best_i32_delta_pp
    );
    ptnc_telemetry::gauge("quant.agreement.default_q", agreement_default_q);
    ptnc_telemetry::gauge("quant.best_i32_delta_pp", best_i32_delta_pp);

    // ---- JSON + enforce gate -------------------------------------------
    let json_path = std::env::var("PNC_QUANT_JSON").unwrap_or_else(|_| "BENCH_quant.json".into());
    let throughput_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"backend\": \"{}\",\n      \"seqs_per_sec\": {:.1},\n      \"timesteps_per_sec\": {:.1},\n      \"allocs_per_forward\": {:.2},\n      \"max_abs_logit_err_vs_f64\": {:.3e},\n      \"argmax_agreement_vs_f64\": {:.4}\n    }}",
                r.name,
                r.seqs_per_sec,
                r.timesteps_per_sec,
                r.allocs_per_forward,
                r.max_abs_logit_err,
                r.argmax_agreement,
            )
        })
        .collect();
    let accuracy_json: Vec<String> = rows
        .iter()
        .map(|row| {
            let accs: Vec<String> = backend_names
                .iter()
                .zip(&row.accs)
                .map(|(n, a)| format!("\"{n}\": {a:.4}"))
                .collect();
            format!(
                "    {{\n      \"dataset\": \"{}\",\n      \"accuracy\": {{ {} }},\n      \"argmax_agreement_default_q\": {:.4}\n    }}",
                row.dataset,
                accs.join(", "),
                row.agreement_default_q,
            )
        })
        .collect();
    let mean_acc_json: Vec<String> = backend_names
        .iter()
        .zip(&mean_accs)
        .map(|(n, a)| format!("\"{n}\": {a:.4}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"quant_sweep\",\n  \"batch\": {},\n  \"steps\": {},\n  \"hidden\": {},\n  \"classes\": {},\n  \"epochs\": {},\n  \"datasets\": {},\n  \"throughput\": [\n{}\n  ],\n  \"accuracy\": [\n{}\n  ],\n  \"summary\": {{\n    \"f32_speedup_vs_f64\": {:.3},\n    \"mean_accuracy\": {{ {} }},\n    \"argmax_agreement_default_q\": {:.4},\n    \"best_i32_backend\": \"{}\",\n    \"best_i32_delta_pp\": {:.3}\n  }}\n}}\n",
        wl.batch,
        wl.steps,
        wl.hidden,
        wl.classes,
        wl.epochs,
        rows.len(),
        throughput_json.join(",\n"),
        accuracy_json.join(",\n"),
        f32_speedup,
        mean_acc_json.join(", "),
        agreement_default_q,
        backend_names[best_i32_idx],
        best_i32_delta_pp,
    );
    std::fs::write(&json_path, json).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    eprintln!("wrote {json_path}");

    if std::env::var("PNC_QUANT_ENFORCE").is_ok_and(|v| v != "0") {
        let min_agreement = std::env::var("PNC_QUANT_MIN_AGREEMENT")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.90);
        let mut gate_failed = false;
        for r in &results {
            if r.allocs_per_forward != 0.0 {
                eprintln!(
                    "PNC_QUANT_ENFORCE: {} backend allocates ({:.2}/forward) — failing",
                    r.name, r.allocs_per_forward
                );
                gate_failed = true;
            }
        }
        if agreement_default_q < min_agreement {
            eprintln!(
                "PNC_QUANT_ENFORCE: i32@default-Q argmax agreement {agreement_default_q:.4} \
                 < {min_agreement} — failing"
            );
            gate_failed = true;
        }
        if !wl.smoke {
            if f32_speedup < 1.5 {
                eprintln!(
                    "PNC_QUANT_ENFORCE: f32 is only {f32_speedup:.2}x f64 timestep \
                     throughput (< 1.5x) — failing"
                );
                gate_failed = true;
            }
            if best_i32_delta_pp > 0.5 {
                eprintln!(
                    "PNC_QUANT_ENFORCE: best i32 Q-format is {best_i32_delta_pp:.2} pp \
                     from f64 mean accuracy (> 0.5 pp) — failing"
                );
                gate_failed = true;
            }
        }
        if gate_failed {
            std::process::exit(1);
        }
    }
}
