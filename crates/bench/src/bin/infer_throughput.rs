//! Serving-style throughput harness: sequences/sec and per-forward heap
//! allocations for the three inference paths —
//!
//! * **autograd** — the design-time reverse-mode graph, one sequence per
//!   forward (the pre-`ptnc-infer` evaluation path),
//! * **graphfree** — the compiled runtime, one sequence per forward with a
//!   reused scratch buffer (the streaming/serving shape),
//! * **batched** — the compiled runtime, all sequences in one forward, its
//!   inner loops running over the batch lanes.
//!
//! ```text
//! cargo run -p ptnc-bench --release --bin infer_throughput
//! PNC_SMOKE=1 PNC_TELEMETRY=BENCH_infer.jsonl cargo run -p ptnc-bench --release --bin infer_throughput
//! ```
//!
//! Knobs: `PNC_SMOKE=1` shrinks everything for CI; `PNC_INFER_SEQS`,
//! `PNC_INFER_STEPS`, `PNC_INFER_HIDDEN` override the workload. Results
//! are recorded as telemetry spans/gauges under the `infer` scope when
//! `PNC_TELEMETRY=<path>` is set, and written as JSON to `PNC_INFER_JSON`
//! (default `BENCH_infer.json`). `PNC_INFER_ENFORCE=1` fails the run if a
//! graph-free path allocates per forward or the batched path falls below
//! 1.5x autograd throughput.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use adapt_pnc::models::{FilterOrder, PrintedModel};
use adapt_pnc::pdk::Pdk;
use adapt_pnc::serve;
use ptnc_bench::{print_row, print_rule, with_run_manifest};
use ptnc_tensor::{init, Tensor};

/// System allocator wrapped with an allocation counter, so the harness can
/// report per-forward allocation counts for each path.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic
// side effect and does not affect allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Workload {
    seqs: usize,
    steps: usize,
    hidden: usize,
    classes: usize,
}

fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be an integer, got `{v}`")),
    }
}

impl Workload {
    fn from_env() -> Self {
        let smoke = std::env::var("PNC_SMOKE").is_ok_and(|v| v != "0");
        let (seqs, steps, hidden) = if smoke { (8, 16, 4) } else { (256, 64, 16) };
        Workload {
            seqs: env_usize("PNC_INFER_SEQS", seqs),
            steps: env_usize("PNC_INFER_STEPS", steps),
            hidden: env_usize("PNC_INFER_HIDDEN", hidden),
            classes: 4,
        }
    }
}

struct PathResult {
    name: &'static str,
    seqs_per_sec: f64,
    allocs_per_forward: f64,
}

/// Times `forwards` calls of `body`, returning throughput in sequences/sec
/// (`seqs_per_call` sequences each) and allocations per call.
fn measure(
    name: &'static str,
    forwards: usize,
    seqs_per_call: usize,
    mut body: impl FnMut(),
) -> PathResult {
    body(); // warm-up: first-touch allocations (scratch, graph caches)
    let alloc_start = ALLOCATIONS.load(Ordering::Relaxed);
    let clock = Instant::now();
    for _ in 0..forwards {
        body();
    }
    let elapsed = clock.elapsed().as_secs_f64().max(1e-9);
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - alloc_start;
    PathResult {
        name,
        seqs_per_sec: (forwards * seqs_per_call) as f64 / elapsed,
        allocs_per_forward: allocs as f64 / forwards as f64,
    }
}

fn main() {
    with_run_manifest("infer_throughput", run);
}

fn run() {
    let wl = Workload::from_env();
    eprintln!(
        "infer_throughput: {} seqs x {} steps, hidden {}, {} classes",
        wl.seqs, wl.steps, wl.hidden, wl.classes
    );

    let model = PrintedModel::new(
        1,
        wl.hidden,
        wl.classes,
        FilterOrder::Second,
        &Pdk::paper_default(),
        &mut init::rng(0),
    );
    let engine = serve::ServeModel::from_live(&model)
        .expect("fresh model has finite parameters")
        .into_engine();

    // One shared input pool: `seqs` univariate sequences of `steps` samples.
    let series: Vec<Vec<f64>> = (0..wl.seqs)
        .map(|s| {
            (0..wl.steps)
                .map(|t| ((s * wl.steps + t) as f64 * 0.17).sin())
                .collect()
        })
        .collect();
    // Batched layout: time-major `[steps][seqs]` (input_dim = 1).
    let mut batched_steps = vec![0.0; wl.steps * wl.seqs];
    for (t, chunk) in batched_steps.chunks_exact_mut(wl.seqs).enumerate() {
        for (s, slot) in chunk.iter_mut().enumerate() {
            *slot = series[s][t];
        }
    }
    // Per-sequence tensors for the autograd path.
    let tensor_steps: Vec<Vec<Tensor>> = series
        .iter()
        .map(|v| {
            v.iter()
                .map(|&x| Tensor::from_vec(&[1, 1], vec![x]))
                .collect()
        })
        .collect();

    let mut sink = 0.0f64;

    // Path 1: autograd, one sequence per forward.
    let mut seq = 0;
    let autograd = measure("autograd", wl.seqs, 1, || {
        let logits = model.forward_nominal(&tensor_steps[seq % wl.seqs]);
        sink += logits.to_vec()[0];
        seq += 1;
    });

    // Path 2: graph-free, one sequence per forward, scratch reused.
    let mut scratch = engine.make_scratch(1).expect("batch of one");
    let mut out = vec![0.0; wl.classes];
    let mut seq = 0;
    let graphfree = measure("graphfree", wl.seqs, 1, || {
        engine
            .run_batch_into(&series[seq % wl.seqs], 1, &mut scratch, &mut out)
            .expect("buffers sized above");
        sink += out[0];
        seq += 1;
    });

    // Path 3: graph-free batched, all sequences per forward.
    let mut scratch = engine.make_scratch(wl.seqs).expect("non-zero batch");
    let mut out = vec![0.0; wl.seqs * wl.classes];
    let batched = measure("batched", 4, wl.seqs, || {
        engine
            .run_batch_into(&batched_steps, wl.seqs, &mut scratch, &mut out)
            .expect("buffers sized above");
        sink += out[0];
    });

    let results = [autograd, graphfree, batched];
    let widths = [10usize, 14, 18, 10];
    print_row(
        &["path", "seqs/sec", "allocs/forward", "speedup"].map(String::from),
        &widths,
    );
    print_rule(&widths);
    let base = results[0].seqs_per_sec;
    for r in &results {
        ptnc_telemetry::span("infer.path")
            .field("path", r.name)
            .field("seqs_per_sec", r.seqs_per_sec)
            .field("allocs_per_forward", r.allocs_per_forward)
            .finish();
        print_row(
            &[
                r.name.to_string(),
                format!("{:.0}", r.seqs_per_sec),
                format!("{:.1}", r.allocs_per_forward),
                format!("{:.1}x", r.seqs_per_sec / base),
            ],
            &widths,
        );
    }
    ptnc_telemetry::gauge(
        "infer.speedup.graphfree_vs_autograd",
        results[1].seqs_per_sec / base,
    );
    ptnc_telemetry::gauge(
        "infer.speedup.batched_vs_autograd",
        results[2].seqs_per_sec / base,
    );
    println!();
    println!("(single-thread; graph-free paths reuse preallocated scratch buffers)");
    // Keep the computed logits observable so the timed loops cannot be
    // optimized away.
    eprintln!("checksum: {sink:.6}");

    let json_path = std::env::var("PNC_INFER_JSON").unwrap_or_else(|_| "BENCH_infer.json".into());
    let paths_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"path\": \"{}\",\n      \"seqs_per_sec\": {:.1},\n      \"timesteps_per_sec\": {:.1},\n      \"allocs_per_forward\": {:.2},\n      \"speedup_vs_autograd\": {:.2}\n    }}",
                r.name,
                r.seqs_per_sec,
                r.seqs_per_sec * wl.steps as f64,
                r.allocs_per_forward,
                r.seqs_per_sec / base,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"infer_throughput\",\n  \"seqs\": {},\n  \"steps\": {},\n  \"hidden\": {},\n  \"classes\": {},\n  \"paths\": [\n{}\n  ],\n  \"notes\": \"f64 kernel is filter-major with a vectorizable tanh; in three runs alternated with the lane-major kernel before it on one 2-vCPU host, graphfree rose from ~21500 to ~32700 and batched from ~24900 to ~63500 seqs/sec at the default shape\"\n}}\n",
        wl.seqs,
        wl.steps,
        wl.hidden,
        wl.classes,
        paths_json.join(",\n"),
    );
    std::fs::write(&json_path, json).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    eprintln!("wrote {json_path}");

    if std::env::var("PNC_INFER_ENFORCE").is_ok_and(|v| v != "0") {
        let mut gate_failed = false;
        for r in &results[1..] {
            if r.allocs_per_forward != 0.0 {
                eprintln!(
                    "PNC_INFER_ENFORCE: {} path allocates ({:.2}/forward) — failing",
                    r.name, r.allocs_per_forward
                );
                gate_failed = true;
            }
        }
        let batched_speedup = results[2].seqs_per_sec / base;
        if batched_speedup < 1.5 {
            eprintln!(
                "PNC_INFER_ENFORCE: batched path is only {batched_speedup:.2}x autograd (< 1.5x) — failing"
            );
            gate_failed = true;
        }
        if gate_failed {
            std::process::exit(1);
        }
    }
}
