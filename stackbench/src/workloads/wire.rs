//! `wire_oneshot`: open loop over loopback TCP. Two `WireClient`
//! connections, one generator thread each, submit full 64-step windows
//! one-shot on a seeded jittered schedule.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adapt_pnc::persist;
use ptnc_datasets::DataSplit;
use ptnc_infer::InferModel;
use ptnc_serve::{ModelRegistry, Server};
use ptnc_wire::{Endpoint, WireClient, WireClientConfig, WireServer, WireServerConfig};

use super::{measure_rounds, overhead_pct, timed_setup, ROUNDS};
use crate::inputs::{self, ScratchDir, GEN_BEHIND_US, LIMIT_US, WINDOW};
use crate::loadgen::{self, wait_until, Phase};
use crate::probe;
use crate::schedule::{arrivals, SplitMix};
use crate::stats::summarize;
use crate::{trace, Ctx, Invalid};

const SETUP_REPS: usize = 9;
const CONNECTIONS: usize = 2;
const LOW_RPS: f64 = 2_000.0;
const HIGH_RPS: f64 = 6_000.0;
/// Share of the budget per open-loop block and per ladder rung.
const BLOCK_FRAC: f64 = 0.024;
const RUNG_FRAC: f64 = 0.008;
/// Walks up the ladder.
const WALKS: usize = 5;
/// Rungs of the ladder: coarse from the low rate up to 14k req/s, then 6 %
/// steps across the knee (16k to 26k req/s on a two-core host).
fn ladder_rps() -> Vec<f64> {
    loadgen::ladder_rates(&[LOW_RPS, HIGH_RPS, 10e3], 14e3, 1.06, 14)
}
/// Every this many requests per connection, the answer is kept for the
/// bitwise check against the kernel.
const KEEP_EVERY: usize = 32;

struct World {
    // Field order is teardown order: clients hang up before the server drains.
    clients: Vec<WireClient>,
    wire: WireServer,
    server: Arc<Server>,
    engine: Arc<InferModel>,
    split: DataSplit,
    _dir: ScratchDir,
}

impl World {
    fn start(ctx: &Ctx) -> World {
        let split = inputs::split(ctx.seed);
        let dir = ScratchDir::new(&ctx.out_dir, "wire");
        let path = dir.file("model.json");
        let model = inputs::model(ctx.seed, 0, split.train.num_classes());
        persist::write_atomic(&path, persist::to_json(&model).as_bytes()).expect("write snapshot");
        let registry = Arc::new(ModelRegistry::open(&path).expect("snapshot compiles"));
        let engine = registry.current();
        let server =
            Arc::new(Server::start(registry, inputs::wire_batch_config()).expect("valid config"));
        let wire = WireServer::bind(
            Arc::clone(&server),
            &Endpoint::Tcp("127.0.0.1:0".parse().expect("literal address")),
            WireServerConfig {
                max_connections: 8,
                ..WireServerConfig::default()
            },
        )
        .expect("bind loopback");
        let clients = (0..CONNECTIONS)
            .map(|i| {
                let mut c = WireClient::new(
                    wire.endpoint().clone(),
                    WireClientConfig {
                        breaker_threshold: u32::MAX,
                        jitter_seed: ctx.seed ^ i as u64,
                        ..WireClientConfig::default()
                    },
                );
                c.ping().expect("loopback connects");
                c
            })
            .collect();
        World {
            clients,
            wire,
            server,
            engine,
            split,
            _dir: dir,
        }
    }
}

/// One connection's share of a phase.
#[derive(Default)]
struct ClientRun {
    phase: Phase,
    rtt_us: Vec<f64>,
    kept: Vec<(usize, Vec<f64>)>,
}

/// Drives one connection open loop at `rate` (per connection) for `secs`.
fn drive_client(
    client: &mut WireClient,
    windows: &[Vec<f64>],
    seed: u64,
    stream: u64,
    rate: f64,
    secs: f64,
    start: Instant,
) -> ClientRun {
    let tenant = format!("wire-{}", stream % 16);
    let mut pick = SplitMix::new(seed, stream ^ 0x7069_636B);
    let mut run = ClientRun::default();
    let mut prev_done = start;
    for (k, due_ns) in arrivals(seed, stream, rate, secs).into_iter().enumerate() {
        let due = start + Duration::from_nanos(due_ns);
        wait_until(due);
        let sent = Instant::now();
        run.phase.late_us.push(
            sent.saturating_duration_since(due.max(prev_done))
                .as_secs_f64()
                * 1e6,
        );
        let w = pick.below(windows.len());
        let req = (stream << 40) | k as u64;
        let out = trace::span("wire.submit", req, || client.submit(&tenant, &windows[w]));
        let done = Instant::now();
        prev_done = done;
        run.rtt_us.push((done - sent).as_secs_f64() * 1e6);
        let latency = out.as_ref().ok().map(|_| (done - due).as_secs_f64() * 1e6);
        run.phase.record(due_ns, latency);
        if let Ok(c) = out {
            if k % KEEP_EVERY == 0 {
                run.kept.push((w, c.logits));
            }
        }
    }
    run.phase.elapsed_s = (Instant::now() - start).as_secs_f64();
    trace::flush_thread();
    run
}

/// Runs one phase on both connections at `rate` in total.
fn phase(
    w: &mut World,
    windows: &[Vec<f64>],
    seed: u64,
    tag: u64,
    rate: f64,
    secs: f64,
) -> ClientRun {
    let start = Instant::now() + Duration::from_millis(2);
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = w
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let per_conn = rate / CONNECTIONS as f64;
                let stream = tag * 16 + i as u64;
                s.spawn(move || drive_client(client, windows, seed, stream, per_conn, secs, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut all = ClientRun::default();
    for r in runs {
        all.phase.merge(r.phase);
        all.rtt_us.extend(r.rtt_us);
        all.kept.extend(r.kept);
    }
    all
}

/// An open-loop phase, counted as the workload's operations; invalid if the
/// generator fell behind its schedule.
fn timed_phase(
    ctx: &mut Ctx,
    w: &mut World,
    windows: &[Vec<f64>],
    tag: u64,
    rate: f64,
    secs: f64,
) -> Result<ClientRun, Invalid> {
    let run = phase(w, windows, ctx.seed, tag, rate, secs);
    ctx.ops(run.phase.attempted, run.phase.failed);
    if run.phase.generator_behind(GEN_BEHIND_US) {
        return Err(Invalid(format!(
            "wire generator fell behind its schedule at {rate} req/s"
        )));
    }
    Ok(run)
}

pub fn run(ctx: &mut Ctx) -> Result<(), Invalid> {
    let mut w = timed_setup(ctx, SETUP_REPS, World::start);
    let seed = ctx.seed;
    let windows = inputs::all_windows(&w.split);
    ctx.meta(
        "server",
        inputs::batch_config_json(&inputs::wire_batch_config()),
    );
    ctx.meta(
        "load",
        format!(
            "{{\"connections\": {CONNECTIONS}, \"low_rps\": {LOW_RPS}, \"high_rps\": {HIGH_RPS}, \"window\": {WINDOW}, \"limit_us\": {LIMIT_US}, \"rounds\": {ROUNDS}}}"
        ),
    );
    let warm = phase(&mut w, &windows, seed, 1, HIGH_RPS, 0.3);
    ctx.ops(warm.phase.attempted, warm.phase.failed);
    if ctx.trace {
        return run_traced(ctx, w, &windows);
    }

    // Each round runs one block at each rate.
    let mut kept = Vec::new();
    let block = ctx.budget(BLOCK_FRAC);
    measure_rounds(ctx, |ctx, round| {
        let tag = 20 + 2 * round;
        let mut low = timed_phase(ctx, &mut w, &windows, tag, LOW_RPS, block)?;
        let mut high = timed_phase(ctx, &mut w, &windows, tag + 1, HIGH_RPS, block)?;
        kept.append(&mut low.kept);
        kept.append(&mut high.kept);
        Ok((low.phase, high.phase, ()))
    })?;
    let rung_secs = ctx.budget(RUNG_FRAC);
    let mut tag = 10_000;
    // Ladder rungs probe past capacity on purpose; their requests are not
    // counted as the workload's operations.
    let cap = loadgen::capacity(WALKS, &ladder_rps(), LIMIT_US, |rate| {
        tag += 1;
        phase(&mut w, &windows, seed, tag, rate, rung_secs).phase
    });
    ctx.report.set("max_rate_rps", cap.max_rate);
    ctx.report
        .set("timesteps_per_s", cap.sustained_rps * WINDOW as f64);
    ctx.meta("ladder", loadgen::walks_json(&cap.walks));
    ctx.meta("disturbed_walks", cap.disturbed.to_string());
    check_answers(ctx, &w, &windows, &kept);
    Ok(())
}

/// The traced run: the high-rate phase untraced and traced (the difference
/// is the tracing overhead), then the waterfall with the real fill.
fn run_traced(ctx: &mut Ctx, mut w: World, windows: &[Vec<f64>]) -> Result<(), Invalid> {
    let untraced = timed_phase(ctx, &mut w, windows, 10, HIGH_RPS, ctx.budget(0.2))?;
    trace::set_enabled(true);
    let traced = timed_phase(ctx, &mut w, windows, 10, HIGH_RPS, ctx.budget(0.2))?;
    let overhead = overhead_pct(untraced.phase.summary().p50, traced.phase.summary().p50);
    ctx.report.set("trace.overhead_pct", overhead);
    let (late, late_n) = traced.phase.lateness();
    ctx.report.set("gen.late_us.p99", late);
    ctx.report.set("gen.late_count", late_n as f64);
    let mut rtt = traced.rtt_us.clone();
    let rtt = summarize(&mut rtt);
    check_answers(ctx, &w, windows, &traced.kept);

    let fill = w.server.mean_batch_fill();
    let batches = w.server.batches();
    let stats = w.wire.stats();
    let (retries, connects) = w.clients.iter().fold((0, 0), |acc, c| {
        (acc.0 + c.stats().retries, acc.1 + c.stats().connects)
    });
    let World {
        clients,
        wire,
        server,
        split,
        ..
    } = w;
    drop(clients);
    wire.shutdown();
    drop(server);
    probe::run(
        ctx,
        &probe::Shape {
            split: &split,
            cfg: inputs::wire_batch_config(),
            t: WINDOW,
            fill: fill.round().max(1.0) as usize,
        },
    );
    // This workload's own load supersedes the replay where it has numbers.
    let r = &mut ctx.report;
    r.set("wire.rtt_us.p50", rtt.p50);
    r.set("wire.rtt_us.p99", rtt.tail);
    probe::set_wire_counters(r, &stats, retries, connects);
    r.set("serve.batch_fill_mean", fill);
    r.set("serve.batches", batches as f64);
    Ok(())
}

/// Checks kept answers bitwise against the kernel run directly.
fn check_answers(ctx: &mut Ctx, w: &World, windows: &[Vec<f64>], kept: &[(usize, Vec<f64>)]) {
    let mismatched = kept
        .iter()
        .filter(|(i, logits)| {
            let direct = w.engine.run_batch(&windows[*i], 1).expect("one window");
            direct
                .iter()
                .map(|v| v.to_bits())
                .ne(logits.iter().map(|v| v.to_bits()))
        })
        .count();
    ctx.check(
        "wire_answers_bitwise_equal_run_batch",
        mismatched == 0 && !kept.is_empty(),
        format!("{mismatched} of {} sampled answers differ", kept.len()),
    );
}
