//! Shared utilities for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Each binary prints its table/figure data to stdout in the paper's row
//! order. Fidelity is controlled by the `PNC_*` environment variables read
//! by [`scale_from_env`]; additionally `PNC_DATASETS` (comma-separated
//! names) restricts the benchmark list and `PNC_TELEMETRY=<path>` dumps a
//! run-manifest JSONL (see [`with_run_manifest`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use adapt_pnc::experiments::ExperimentScale;
use ptnc_datasets::{all_specs, BenchmarkSpec};

/// System allocator wrapped with a process-wide allocation counter, so a
/// throughput binary can report per-forward and per-request allocation
/// counts. The library does not install it; a binary opts in and reads the
/// running total with [`allocations`]:
///
/// ```
/// #[global_allocator]
/// static GLOBAL: ptnc_bench::CountingAlloc = ptnc_bench::CountingAlloc;
///
/// let before = ptnc_bench::allocations();
/// let buf = std::hint::black_box(vec![0u8; 64]);
/// assert!(ptnc_bench::allocations() > before);
/// drop(buf);
/// ```
pub struct CountingAlloc;

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

/// Allocations (including reallocations) counted by [`CountingAlloc`] so
/// far in this process, on every thread. Always zero unless the binary
/// installed [`CountingAlloc`] as its global allocator.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Reads an integer knob from the environment, falling back to `default`
/// when it is unset.
///
/// # Panics
///
/// Panics if the variable is set but is not a valid integer.
pub fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be an integer, got `{v}`")),
    }
}

/// Reads the experiment scale from `PNC_SEEDS`, `PNC_EPOCHS`, `PNC_MC`,
/// `PNC_TRIALS`, `PNC_TOPK` and `PNC_HIDDEN`, falling back to
/// [`ExperimentScale::quick`] for each unset knob.
///
/// # Panics
///
/// Panics if a knob is set but is not a valid integer (see [`env_usize`]).
pub fn scale_from_env() -> ExperimentScale {
    let q = ExperimentScale::quick();
    ExperimentScale {
        seeds: env_usize("PNC_SEEDS", q.seeds).max(1),
        epochs: env_usize("PNC_EPOCHS", q.epochs).max(1),
        mc_samples: env_usize("PNC_MC", q.mc_samples).max(1),
        variation_trials: env_usize("PNC_TRIALS", q.variation_trials).max(1),
        top_k: env_usize("PNC_TOPK", q.top_k).max(1),
        hidden: env_usize("PNC_HIDDEN", q.hidden).max(2),
    }
}

/// Formats `mean ± std` like the paper's tables.
pub fn fmt_pm(mean: f64, std: f64) -> String {
    format!("{mean:.3} ± {std:.3}")
}

/// Prints one aligned table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a rule matching the given column widths.
pub fn print_rule(widths: &[usize]) {
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

/// The benchmark list, optionally filtered by the `PNC_DATASETS`
/// environment variable (comma-separated paper names).
pub fn selected_specs() -> Vec<&'static BenchmarkSpec> {
    match std::env::var("PNC_DATASETS") {
        Err(_) => all_specs().iter().collect(),
        Ok(filter) => {
            let wanted: Vec<&str> = filter.split(',').map(str::trim).collect();
            all_specs()
                .iter()
                .filter(|s| wanted.iter().any(|w| w.eq_ignore_ascii_case(s.name)))
                .collect()
        }
    }
}

/// Arithmetic mean of a slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Runs an experiment binary's body under a telemetry scope when
/// `PNC_TELEMETRY=<path>` is set, writing a run-manifest JSONL to `path`:
/// a `run` header span (binary name plus the `PNC_*` knobs in effect)
/// followed by every event the run emitted, in deterministic order.
///
/// Without the variable the body runs with telemetry disabled and nothing
/// is written.
///
/// # Panics
///
/// Panics if the manifest file cannot be written.
pub fn with_run_manifest<R>(bin: &str, body: impl FnOnce() -> R) -> R {
    let Ok(path) = std::env::var("PNC_TELEMETRY") else {
        return body();
    };
    let (result, events) = ptnc_telemetry::collect(body);
    let mut manifest = vec![run_header(bin)];
    manifest.extend(events);
    ptnc_telemetry::write_jsonl(&path, &manifest)
        .unwrap_or_else(|e| panic!("writing telemetry manifest {path}: {e}"));
    eprintln!(
        "[{bin}] wrote {} telemetry events to {path}",
        manifest.len()
    );
    result
}

/// The `run` header event: binary name and the fidelity knobs in effect.
fn run_header(bin: &str) -> ptnc_telemetry::Event {
    let mut event = ptnc_telemetry::Event::new(ptnc_telemetry::Kind::Span, "run").field("bin", bin);
    for knob in ["PNC_DATASETS", "PNC_EPOCHS", "PNC_SEEDS", "PNC_THREADS"] {
        if let Ok(v) = std::env::var(knob) {
            event = event.field(knob.to_ascii_lowercase(), v);
        }
    }
    event
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_pm_matches_paper_style() {
        assert_eq!(fmt_pm(0.7261, 0.0141), "0.726 ± 0.014");
    }

    #[test]
    fn all_specs_selected_without_filter() {
        // The test environment does not set PNC_DATASETS.
        if std::env::var("PNC_DATASETS").is_err() {
            assert_eq!(selected_specs().len(), 15);
        }
    }

    #[test]
    fn scale_from_env_respects_defaults() {
        // No PNC_* variables set in the test environment ⇒ quick defaults.
        let s = scale_from_env();
        assert!(s.seeds >= 1 && s.epochs >= 1 && s.hidden >= 2);
    }

    #[test]
    fn mean_works() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn manifest_disabled_without_env_var() {
        // The test environment does not set PNC_TELEMETRY: the body runs
        // with telemetry off and nothing is written.
        if std::env::var("PNC_TELEMETRY").is_err() {
            let enabled = with_run_manifest("test_bin", ptnc_telemetry::is_enabled);
            assert!(!enabled);
        }
    }

    #[test]
    fn manifest_written_when_env_var_set() {
        let path = std::env::temp_dir().join("ptnc_bench_manifest_test.jsonl");
        // Only this test touches PNC_TELEMETRY, so the set/remove pair
        // cannot race with the rest of the suite.
        std::env::set_var("PNC_TELEMETRY", &path);
        with_run_manifest("test_bin", || {
            ptnc_telemetry::counter("test.events", 3);
        });
        std::env::remove_var("PNC_TELEMETRY");
        let contents = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut lines = contents.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("\"name\":\"run\""), "header: {header}");
        assert!(header.contains("test_bin"), "header: {header}");
        let body = lines.next().unwrap();
        assert!(body.contains("test.events"), "body: {body}");
    }
}
