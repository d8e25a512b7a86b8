//! Serving-layer load generator: drives the `ptnc-serve` micro-batching
//! scheduler with many concurrent client streams and reports
//!
//! * request latency (p50/p99, from the server's own per-tenant histograms),
//! * aggregate timesteps/sec across all streams,
//! * heap allocations per request end to end (submit → wait),
//! * allocations per batched forward on the worker hot path (must be 0),
//! * snapshot hot-reload swap latency under this load.
//!
//! ```text
//! cargo run -p ptnc-bench --release --bin serve_throughput
//! PNC_SMOKE=1 PNC_TELEMETRY=BENCH_serve.jsonl cargo run -p ptnc-bench --release --bin serve_throughput
//! ```
//!
//! A second phase exercises **resident stream sessions**: it opens
//! `PNC_SERVE_SESSIONS` concurrent logical streams (default 100k, smoke
//! 2k; `0` skips the phase), feeds each `PNC_SERVE_SESSION_CHUNKS` chunks
//! of `PNC_SERVE_CHUNK_STEPS` timesteps through the session batching
//! path, and spot-checks that chunked session logits are bitwise equal to
//! the one-shot batched run of the concatenated window.
//!
//! Knobs: `PNC_SMOKE=1` shrinks the workload for CI; `PNC_SERVE_STREAMS`
//! (client threads), `PNC_SERVE_REQUESTS` (requests per stream),
//! `PNC_SERVE_STEPS` (timesteps per request), `PNC_SERVE_BATCH_WINDOW`
//! (batching window, µs) and `PNC_SERVE_HIDDEN` override it.
//! `PNC_SERVE_ENFORCE=1` exits non-zero if the batched forward allocates,
//! if any request or session chunk fails, if the session parity
//! spot-check diverges, or if a hot swap never lands (the CI gate). A
//! JSON summary is written to `PNC_SERVE_JSON` (default `BENCH_serve.json`);
//! spans/gauges go to the `serve` telemetry scope when
//! `PNC_TELEMETRY=<path>` is set.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adapt_pnc::models::PrintedModel;
use adapt_pnc::persist;
use adapt_pnc::serve::ServeModel;
use ptnc_bench::{env_usize, print_row, print_rule, with_run_manifest};
use ptnc_serve::{
    BatchConfig, MicroBatcher, ModelRegistry, ReloadOutcome, ReloadPolicy, Server, ServingError,
    SessionId,
};
use ptnc_tensor::init;

#[global_allocator]
static GLOBAL: ptnc_bench::CountingAlloc = ptnc_bench::CountingAlloc;

const DIM: usize = 3;
const CLASSES: usize = 4;

struct Workload {
    streams: usize,
    requests: usize,
    steps: usize,
    window_micros: usize,
    hidden: usize,
    /// Concurrent logical streams in the session phase (0 skips it).
    sessions: usize,
    /// Chunk submissions per session.
    session_chunks: usize,
    /// Timesteps per chunk.
    chunk_steps: usize,
}

impl Workload {
    fn from_env() -> Self {
        let smoke = std::env::var("PNC_SMOKE").is_ok_and(|v| v != "0");
        let (streams, requests, steps, hidden, sessions, session_chunks) = if smoke {
            (4, 32, 24, 4, 2_000, 2)
        } else {
            (8, 200, 64, 6, 100_000, 3)
        };
        Workload {
            streams: env_usize("PNC_SERVE_STREAMS", streams),
            requests: env_usize("PNC_SERVE_REQUESTS", requests),
            steps: env_usize("PNC_SERVE_STEPS", steps),
            window_micros: env_usize("PNC_SERVE_BATCH_WINDOW", 200),
            hidden: env_usize("PNC_SERVE_HIDDEN", hidden),
            sessions: env_usize("PNC_SERVE_SESSIONS", sessions),
            session_chunks: env_usize("PNC_SERVE_SESSION_CHUNKS", session_chunks),
            chunk_steps: env_usize("PNC_SERVE_CHUNK_STEPS", 8),
        }
    }
}

fn snapshot_json(hidden: usize, seed: u64) -> String {
    persist::to_json(&PrintedModel::adapt_pnc(
        DIM,
        hidden,
        CLASSES,
        &mut init::rng(seed),
    ))
}

fn request_steps(stream: usize, t: usize) -> Vec<f64> {
    (0..t * DIM)
        .map(|i| ((stream * 211 + i) as f64 * 0.19).sin())
        .collect()
}

/// Steady-state allocations per `begin → load → forward` round on the
/// worker hot path, measured on a standalone [`MicroBatcher`].
fn forward_allocs(engine: &adapt_pnc::infer::InferModel, cfg: &BatchConfig, t: usize) -> f64 {
    const ROUNDS: u64 = 32;
    let mut mb = MicroBatcher::new(engine, cfg).expect("bench config is valid");
    let lanes: Vec<Vec<f64>> = (0..cfg.max_batch).map(|l| request_steps(l, t)).collect();
    let round = |mb: &mut MicroBatcher| {
        mb.begin(t).expect("t fits the staging window");
        for (lane, steps) in lanes.iter().enumerate() {
            mb.load_lane(lane, steps).expect("lane fits the batch");
        }
        mb.forward(engine).expect("buffers sized at construction");
        assert!(mb.lane_logits(0).iter().all(|v| v.is_finite()));
    };
    round(&mut mb); // warm-up
    let before = ptnc_bench::allocations();
    for _ in 0..ROUNDS {
        round(&mut mb);
    }
    (ptnc_bench::allocations() - before) as f64 / ROUNDS as f64
}

/// Steady-state allocations per resident-session round (`begin →
/// load/import → forward_resident → export`) on a standalone
/// [`MicroBatcher`] — the session analog of [`forward_allocs`].
fn session_forward_allocs(
    engine: &Arc<adapt_pnc::infer::InferModel>,
    cfg: &BatchConfig,
    t: usize,
) -> f64 {
    const ROUNDS: u64 = 32;
    let mut mb = MicroBatcher::new(engine, cfg).expect("bench config is valid");
    let mut sessions: Vec<_> = (0..cfg.max_batch).map(|_| engine.session()).collect();
    let lanes: Vec<Vec<f64>> = (0..cfg.max_batch).map(|l| request_steps(l, t)).collect();
    let round = |mb: &mut MicroBatcher, sessions: &mut [adapt_pnc::infer::StreamSession]| {
        mb.begin(t).expect("t fits the staging window");
        for (lane, (steps, session)) in lanes.iter().zip(sessions.iter()).enumerate() {
            mb.load_lane(lane, steps).expect("lane fits the batch");
            mb.import_session(lane, session).expect("same engine");
        }
        mb.forward_resident(engine)
            .expect("buffers sized at construction");
        for (lane, session) in sessions.iter_mut().enumerate() {
            mb.export_session(lane, session).expect("same engine");
        }
        assert!(mb.lane_logits(0).iter().all(|v| v.is_finite()));
    };
    round(&mut mb, &mut sessions); // warm-up
    let before = ptnc_bench::allocations();
    for _ in 0..ROUNDS {
        round(&mut mb, &mut sessions);
    }
    (ptnc_bench::allocations() - before) as f64 / ROUNDS as f64
}

struct LoadResult {
    completed: u64,
    failed: u64,
    elapsed: Duration,
    allocs_per_request: f64,
    swap_reports: Vec<u64>,
    swaps_attempted: u64,
}

/// Hammers the server from `wl.streams` client threads while the main
/// thread flips the snapshot file and polls the registry — the swap
/// latency is measured under live traffic, not on an idle server.
fn drive_load(server: &Server, reg: &Arc<ModelRegistry>, wl: &Workload) -> LoadResult {
    let completed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let alloc_start = ptnc_bench::allocations();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for s in 0..wl.streams {
            let completed = Arc::clone(&completed);
            let failed = Arc::clone(&failed);
            scope.spawn(move || {
                let steps = request_steps(s, wl.steps);
                let tenant = format!("stream-{s}");
                for _ in 0..wl.requests {
                    match server.infer(&tenant, &steps) {
                        Ok(_) => completed.fetch_add(1, Ordering::Relaxed),
                        Err(_) => failed.fetch_add(1, Ordering::Relaxed),
                    };
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let allocs = ptnc_bench::allocations() - alloc_start;

    // Hot swaps under a fresh burst of the same traffic.
    let mut swap_reports = Vec::new();
    let mut swaps_attempted = 0u64;
    std::thread::scope(|scope| {
        for s in 0..wl.streams.min(2) {
            scope.spawn(move || {
                let steps = request_steps(s, wl.steps);
                for _ in 0..wl.requests.min(32) {
                    let _ = server.infer("reload-burst", &steps);
                }
            });
        }
        for flip in 0..4u64 {
            let json = snapshot_json(wl.hidden, 100 + flip);
            persist::write_atomic(reg.path(), json.as_bytes()).expect("rewrite snapshot");
            swaps_attempted += 1;
            match reg.poll() {
                ReloadOutcome::Swapped(report) => swap_reports.push(report.swap_micros),
                other => panic!("hot swap {flip} failed under load: {other:?}"),
            }
        }
    });

    let done = completed.load(Ordering::Relaxed);
    LoadResult {
        completed: done,
        failed: failed.load(Ordering::Relaxed),
        elapsed,
        allocs_per_request: allocs as f64 / done.max(1) as f64,
        swap_reports,
        swaps_attempted,
    }
}

fn session_chunk(stream: usize, round: usize, t: usize) -> Vec<f64> {
    (0..t * DIM)
        .map(|i| ((stream * 131 + round * 977 + i) as f64 * 0.23).sin())
        .collect()
}

struct SessionLoad {
    opened: u64,
    open_elapsed: Duration,
    chunks_completed: u64,
    chunks_failed: u64,
    elapsed: Duration,
    allocs_per_chunk: f64,
    parity_checked: usize,
    parity_ok: bool,
}

/// Opens `wl.sessions` resident logical streams, then feeds each
/// `wl.session_chunks` chunks from `wl.streams` client threads in bounded
/// waves (submit a group of chunks, wait their tickets, move on) so every
/// session keeps at most one chunk in flight while the scheduler coalesces
/// chunks *across* sessions into full batches. Ends with a parity
/// spot-check: a chunked session must reproduce the one-shot run of the
/// concatenated window bit for bit.
fn drive_sessions(server: &Server, wl: &Workload) -> Option<SessionLoad> {
    if wl.sessions == 0 || wl.session_chunks == 0 {
        return None;
    }
    let open_start = Instant::now();
    let ids: Vec<SessionId> = (0..wl.sessions)
        .map(|s| {
            server
                .open_session(&format!("cohort-{}", s % 8), ReloadPolicy::PinOld)
                .expect("session capacity sized for the workload")
        })
        .collect();
    let open_elapsed = open_start.elapsed();
    assert_eq!(server.open_sessions(), wl.sessions);

    let completed = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let alloc_start = ptnc_bench::allocations();
    let start = Instant::now();
    let shard_len = ids.len().div_ceil(wl.streams.max(1));
    std::thread::scope(|scope| {
        for (shard_idx, shard) in ids.chunks(shard_len).enumerate() {
            let completed = &completed;
            let failed = &failed;
            scope.spawn(move || {
                let base = shard_idx * shard_len;
                // Bounded in-flight wave per thread so one shard can never
                // saturate the shared queue on its own.
                let wave = 64.min(shard.len()).max(1);
                for round in 0..wl.session_chunks {
                    for (g, group) in shard.chunks(wave).enumerate() {
                        let mut tickets = Vec::with_capacity(group.len());
                        for (k, id) in group.iter().enumerate() {
                            let chunk = session_chunk(base + g * wave + k, round, wl.chunk_steps);
                            loop {
                                match server.submit_chunk(*id, &chunk) {
                                    Ok(t) => break tickets.push(t),
                                    Err(ServingError::Backpressure { .. }) => {
                                        std::thread::yield_now();
                                    }
                                    Err(_) => {
                                        failed.fetch_add(1, Ordering::Relaxed);
                                        break;
                                    }
                                }
                            }
                        }
                        for t in tickets {
                            match t.wait() {
                                Ok(_) => completed.fetch_add(1, Ordering::Relaxed),
                                Err(_) => failed.fetch_add(1, Ordering::Relaxed),
                            };
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let allocs = ptnc_bench::allocations() - alloc_start;
    let done = completed.load(Ordering::Relaxed);

    // Parity spot-check against the server's own one-shot path (both run
    // on the engine the sessions pinned — no reloads happen in between).
    let parity_checked = 3usize;
    let mut parity_ok = true;
    for p in 0..parity_checked {
        let id = server
            .open_session("parity", ReloadPolicy::PinOld)
            .expect("parity session opens");
        let mut window = Vec::new();
        let mut last = Vec::new();
        for round in 0..wl.session_chunks {
            let chunk = session_chunk(1_000_000 + p, round, wl.chunk_steps);
            window.extend_from_slice(&chunk);
            last = server
                .submit_chunk(id, &chunk)
                .expect("parity chunk accepted")
                .wait()
                .expect("parity chunk completes");
        }
        let oneshot = server.infer("parity", &window).expect("one-shot completes");
        parity_ok &= last == oneshot;
        server.close_session(id);
    }

    Some(SessionLoad {
        opened: ids.len() as u64,
        open_elapsed,
        chunks_completed: done,
        chunks_failed: failed.load(Ordering::Relaxed),
        elapsed,
        allocs_per_chunk: allocs as f64 / done.max(1) as f64,
        parity_checked,
        parity_ok,
    })
}

fn main() {
    with_run_manifest("serve_throughput", run);
}

fn run() {
    let wl = Workload::from_env();
    eprintln!(
        "serve_throughput: {} streams x {} requests x {} steps, hidden {}, window {}µs, \
         {} sessions x {} chunks x {} steps",
        wl.streams,
        wl.requests,
        wl.steps,
        wl.hidden,
        wl.window_micros,
        wl.sessions,
        wl.session_chunks,
        wl.chunk_steps
    );

    let dir = std::env::temp_dir().join(format!("ptnc-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("model.json");
    persist::write_atomic(&path, snapshot_json(wl.hidden, 1).as_bytes()).expect("seed snapshot");

    let reg = Arc::new(ModelRegistry::open(&path).expect("open registry"));
    let cfg = BatchConfig {
        max_batch: wl.streams.clamp(2, 32),
        // Cover both one-shot requests and the concatenated parity window.
        max_steps: wl.steps.max(64).max(wl.session_chunks * wl.chunk_steps),
        batch_window: Duration::from_micros(wl.window_micros as u64),
        max_sessions: wl.sessions.max(1) + 16,
        ..BatchConfig::default()
    };
    // Worker hot path in isolation (measured before any server thread
    // exists, so no other thread can perturb the allocation counter).
    let direct = ServeModel::from_file(&path)
        .expect("snapshot compiles")
        .into_shared_engine();
    let allocs_per_forward = forward_allocs(&direct, &cfg, wl.steps);
    let session_allocs_per_forward = session_forward_allocs(&direct, &cfg, wl.chunk_steps.max(1));
    drop(direct);

    let server = Server::start(Arc::clone(&reg), cfg).expect("start server");
    let load = drive_load(&server, &reg, &wl);
    let sessions = drive_sessions(&server, &wl);

    let timesteps = load.completed * wl.steps as u64;
    let timesteps_per_sec = timesteps as f64 / load.elapsed.as_secs_f64().max(1e-9);
    let requests_per_sec = load.completed as f64 / load.elapsed.as_secs_f64().max(1e-9);
    let snaps = server.stats().snapshots();
    let stream_snaps: Vec<_> = snaps
        .iter()
        .filter(|s| s.tenant.starts_with("stream-"))
        .collect();
    let p50 = stream_snaps.iter().map(|s| s.p50_micros).max().unwrap_or(0);
    let p99 = stream_snaps.iter().map(|s| s.p99_micros).max().unwrap_or(0);
    let swap_best = load.swap_reports.iter().copied().min().unwrap_or(0);
    let swap_worst = load.swap_reports.iter().copied().max().unwrap_or(0);
    let mean_fill = server.mean_batch_fill();
    let batches = server.batches();

    let widths = [26usize, 14];
    print_row(&["metric", "value"].map(String::from), &widths);
    print_rule(&widths);
    let rows: [(&str, String); 9] = [
        ("requests completed", load.completed.to_string()),
        ("requests failed", load.failed.to_string()),
        ("requests/sec", format!("{requests_per_sec:.1}")),
        ("timesteps/sec", format!("{timesteps_per_sec:.0}")),
        ("latency p50 (µs)", p50.to_string()),
        ("latency p99 (µs)", p99.to_string()),
        ("allocs/request", format!("{:.1}", load.allocs_per_request)),
        ("allocs/batched forward", format!("{allocs_per_forward:.2}")),
        ("mean batch fill", format!("{mean_fill:.2}")),
    ];
    for (k, v) in &rows {
        print_row(&[k.to_string(), v.clone()], &widths);
    }
    if let Some(sl) = &sessions {
        let chunks_per_sec = sl.chunks_completed as f64 / sl.elapsed.as_secs_f64().max(1e-9);
        let session_steps_per_sec = chunks_per_sec * wl.chunk_steps as f64;
        let session_rows: [(&str, String); 7] = [
            ("sessions (concurrent)", sl.opened.to_string()),
            (
                "session opens (ms)",
                sl.open_elapsed.as_millis().to_string(),
            ),
            ("session chunks done", sl.chunks_completed.to_string()),
            ("session chunks failed", sl.chunks_failed.to_string()),
            ("session chunks/sec", format!("{chunks_per_sec:.1}")),
            (
                "session timesteps/sec",
                format!("{session_steps_per_sec:.0}"),
            ),
            (
                "allocs/session forward",
                format!("{session_allocs_per_forward:.2}"),
            ),
        ];
        for (k, v) in &session_rows {
            print_row(&[k.to_string(), v.clone()], &widths);
        }
    }
    println!();
    println!(
        "hot reload under load: {}/{} swaps landed, swap lock held {swap_best}–{swap_worst}µs",
        load.swap_reports.len(),
        load.swaps_attempted
    );
    if let Some(sl) = &sessions {
        println!(
            "session parity: {}/{} chunked streams bitwise-equal to one-shot",
            if sl.parity_ok { sl.parity_checked } else { 0 },
            sl.parity_checked
        );
    }

    ptnc_telemetry::gauge("serve.requests_per_sec", requests_per_sec);
    ptnc_telemetry::gauge("serve.timesteps_per_sec", timesteps_per_sec);
    ptnc_telemetry::gauge("serve.latency.p50_micros", p50 as f64);
    ptnc_telemetry::gauge("serve.latency.p99_micros", p99 as f64);
    ptnc_telemetry::gauge("serve.allocs_per_request", load.allocs_per_request);
    ptnc_telemetry::gauge("serve.allocs_per_forward", allocs_per_forward);
    ptnc_telemetry::gauge("serve.mean_batch_fill", mean_fill);
    ptnc_telemetry::gauge("serve.swap_micros.worst", swap_worst as f64);
    if let Some(sl) = &sessions {
        let chunks_per_sec = sl.chunks_completed as f64 / sl.elapsed.as_secs_f64().max(1e-9);
        ptnc_telemetry::gauge("serve.sessions.concurrent", sl.opened as f64);
        ptnc_telemetry::gauge("serve.sessions.chunks_per_sec", chunks_per_sec);
        ptnc_telemetry::gauge(
            "serve.sessions.allocs_per_forward",
            session_allocs_per_forward,
        );
    }
    server.stats().emit_telemetry();

    let json_path = std::env::var("PNC_SERVE_JSON").unwrap_or_else(|_| "BENCH_serve.json".into());
    let sessions_json = match &sessions {
        None => "null".to_string(),
        Some(sl) => {
            let chunks_per_sec = sl.chunks_completed as f64 / sl.elapsed.as_secs_f64().max(1e-9);
            format!(
                "{{\n    \"concurrent_streams\": {},\n    \"chunks_per_stream\": {},\n    \"chunk_steps\": {},\n    \"open_millis\": {},\n    \"chunks_completed\": {},\n    \"chunks_failed\": {},\n    \"chunks_per_sec\": {:.1},\n    \"timesteps_per_sec\": {:.1},\n    \"allocs_per_chunk\": {:.2},\n    \"allocs_per_session_forward\": {:.2},\n    \"parity_checked\": {},\n    \"parity_ok\": {}\n  }}",
                sl.opened,
                wl.session_chunks,
                wl.chunk_steps,
                sl.open_elapsed.as_millis(),
                sl.chunks_completed,
                sl.chunks_failed,
                chunks_per_sec,
                chunks_per_sec * wl.chunk_steps as f64,
                sl.allocs_per_chunk,
                session_allocs_per_forward,
                sl.parity_checked,
                sl.parity_ok,
            )
        }
    };
    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"streams\": {},\n  \"requests_per_stream\": {},\n  \"steps_per_request\": {},\n  \"hidden\": {},\n  \"batch_window_micros\": {},\n  \"max_batch\": {},\n  \"requests_completed\": {},\n  \"requests_failed\": {},\n  \"requests_per_sec\": {:.3},\n  \"timesteps_per_sec\": {:.1},\n  \"latency_p50_micros\": {},\n  \"latency_p99_micros\": {},\n  \"allocs_per_request\": {:.2},\n  \"allocs_per_batched_forward\": {:.2},\n  \"mean_batch_fill\": {:.3},\n  \"batches\": {},\n  \"hot_swaps_landed\": {},\n  \"hot_swaps_attempted\": {},\n  \"swap_lock_micros_best\": {},\n  \"swap_lock_micros_worst\": {},\n  \"sessions\": {}\n}}\n",
        wl.streams,
        wl.requests,
        wl.steps,
        wl.hidden,
        wl.window_micros,
        cfg.max_batch,
        load.completed,
        load.failed,
        requests_per_sec,
        timesteps_per_sec,
        p50,
        p99,
        load.allocs_per_request,
        allocs_per_forward,
        mean_fill,
        batches,
        load.swap_reports.len(),
        load.swaps_attempted,
        swap_best,
        swap_worst,
        sessions_json,
    );
    std::fs::write(&json_path, json).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    eprintln!("wrote {json_path}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    if std::env::var("PNC_SERVE_ENFORCE").is_ok_and(|v| v != "0") {
        let mut gate_failed = false;
        if allocs_per_forward != 0.0 {
            eprintln!("PNC_SERVE_ENFORCE: batched forward allocates ({allocs_per_forward:.2}/forward) — failing");
            gate_failed = true;
        }
        if load.failed > 0 || load.completed == 0 {
            eprintln!(
                "PNC_SERVE_ENFORCE: {}/{} requests failed — failing",
                load.failed,
                load.completed + load.failed
            );
            gate_failed = true;
        }
        if load.swap_reports.len() as u64 != load.swaps_attempted {
            eprintln!("PNC_SERVE_ENFORCE: hot swap failed under load — failing");
            gate_failed = true;
        }
        if session_allocs_per_forward != 0.0 {
            eprintln!(
                "PNC_SERVE_ENFORCE: session forward allocates \
                 ({session_allocs_per_forward:.2}/forward) — failing"
            );
            gate_failed = true;
        }
        if let Some(sl) = &sessions {
            if sl.chunks_failed > 0 || sl.chunks_completed == 0 {
                eprintln!(
                    "PNC_SERVE_ENFORCE: {}/{} session chunks failed — failing",
                    sl.chunks_failed,
                    sl.chunks_completed + sl.chunks_failed
                );
                gate_failed = true;
            }
            if !sl.parity_ok {
                eprintln!("PNC_SERVE_ENFORCE: session parity spot-check diverged — failing");
                gate_failed = true;
            }
        }
        if gate_failed {
            std::process::exit(1);
        }
    }
}
