//! One benchmark for the ADAPT-pNC stack, from the socket to the trainer.
//!
//! ```text
//! cargo run --release --manifest-path stackbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. With `--trace 0` the last stdout
//! line carries the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics and the spans go to `.bench_out/`. The line before it
//! records the host, revision, configuration and the output checks. The
//! process exits non-zero if an output check fails or the load generator
//! fell behind its own schedule.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

mod host;
mod inputs;
mod loadgen;
mod metrics;
mod probe;
mod schedule;
mod stats;
mod trace;
mod workloads;

use metrics::{json_str, Report, END_TO_END, PER_LAYER};

/// Process-wide counting allocator for the `*.allocs_*` metrics. Counts are
/// read only around isolated replays with no server threads alive.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call delegates to `System` with the caller's arguments; the
// counter is a relaxed atomic side effect that does not touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
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

/// Heap allocations made by the whole process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A named workload and why it exists.
pub struct Workload {
    /// CLI name.
    pub name: &'static str,
    /// What it stresses.
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists it, so that a change must hold its
    /// bounds on it. An ungated workload runs by hand only.
    pub gated: bool,
    run: fn(&mut Ctx) -> Result<(), Invalid>,
}

/// Every workload; the gated ones in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "wire_oneshot",
        why: "open-loop one-shot windows over loopback TCP: socket, framing, CRC and the batch window",
        gated: true,
        run: workloads::wire::run,
    },
    Workload {
        name: "mc_variation",
        why: "Table I Monte-Carlo variation trials: the kernel does nearly all the work",
        gated: true,
        run: workloads::mc::run,
    },
    Workload {
        name: "train_variation",
        why: "variation-aware fused training: autograd, buffer pool and trainer",
        gated: true,
        run: workloads::train::run,
    },
    // Ungated: with hot swaps, pinned and reset sessions leave two engines
    // in the queue, batches hold one or two lanes, and the capacity this
    // workload measures swings between runs by a factor of three on a
    // two-core host. Its low- and high-rate latencies and its traced
    // per-layer numbers are steady.
    Workload {
        name: "session_stream",
        why: "open-loop chunks on 20k resident sessions with guard faults and hot swaps",
        gated: false,
        run: workloads::session::run,
    },
];

/// A seed never used while writing the benchmark; a claimed gain must also
/// hold on it.
pub const HELD_OUT_SEED: u64 = 20_250_917;

/// A run whose load generator fell behind its own schedule: its numbers
/// describe the generator, not the system, so none are reported.
#[derive(Debug)]
pub struct Invalid(pub String);

/// State one workload run writes into.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where spans and temporary model snapshots go.
    pub out_dir: PathBuf,
    /// Measured values.
    pub report: Report,
    /// Operations attempted (requests, chunks, trials, epochs and checks).
    pub attempted: u64,
    /// Operations failed: shed, typed errors and wrong answers.
    pub failed: u64,
    checks: Vec<(String, bool, String)>,
    meta: Vec<(String, String)>,
}

impl Ctx {
    /// Records an output check; a failed check is a failed operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("stackbench: check `{name}` FAILED: {detail}");
        }
        self.checks.push((name.to_string(), ok, detail));
    }

    /// Adds operations to the run's totals.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a metadata entry; `json` must be a JSON value.
    pub fn meta(&mut self, key: &str, json: String) {
        self.meta.push((key.to_string(), json));
    }

    /// `frac` of the measurement budget, in seconds.
    pub fn budget(&self, frac: f64) -> f64 {
        self.seconds * frac
    }

    fn all_checks_passed(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "stackbench: {e}\nusage: stackbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("stackbench: unknown workload `{}`", args.workload);
        std::process::exit(2);
    };
    let out_dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out_dir).expect("create .bench_out");
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir,
        report: Report::default(),
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
        meta: Vec::new(),
    };
    let waited = host::wait_for_calm();
    ctx.meta("host_wait_s", waited.to_string());
    if let Err(Invalid(why)) = (workload.run)(&mut ctx) {
        eprintln!("stackbench: run invalid, not reported: {why}");
        std::process::exit(3);
    }
    ctx.report.set("peak_rss_mb", host::peak_rss_mb());
    let tag = format!(
        "{}-seed{}-trace{}",
        workload.name,
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        let spans = trace::collect();
        ctx.report.set("trace.spans", spans.len() as f64);
        let path = ctx.out_dir.join(format!("spans-{tag}.jsonl"));
        trace::write_jsonl(&path, &spans).expect("write span file");
        ctx.meta("span_file", json_str(&path.display().to_string()));
    }

    let checks: Vec<String> = ctx
        .checks
        .iter()
        .map(|(name, ok, detail)| {
            format!(
                "{{\"name\": {}, \"ok\": {ok}, \"detail\": {}}}",
                json_str(name),
                json_str(detail)
            )
        })
        .collect();
    let mut meta = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"host\": {}, \"checks\": [{}]",
        json_str(workload.name),
        args.seed,
        args.seconds,
        args.trace,
        host::fingerprint_json(),
        checks.join(", ")
    );
    for (k, v) in &ctx.meta {
        meta.push_str(&format!(", {}: {v}", json_str(k)));
    }
    meta.push('}');
    let _ = std::fs::write(ctx.out_dir.join(format!("meta-{tag}.json")), &meta);

    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        if let Some(v) = ctx.report.get(d.name) {
            eprintln!("{:<36} {:>16.3} {}", d.name, v, d.unit);
        }
    }
    let metrics = match ctx.report.metrics_json(defs) {
        Ok(m) => m,
        Err(missing) => {
            eprintln!("stackbench: metrics not measured: {missing:?}");
            std::process::exit(4);
        }
    };
    let correct = ctx.all_checks_passed();
    println!("{meta}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        ctx.attempted.max(1),
        ctx.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
