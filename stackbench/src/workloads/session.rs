//! `session_stream`: open loop, in process. 20k resident sessions each send
//! 8-step chunks on their own period through `Server::submit_chunk`; one
//! generator thread submits, one thread waits on the tickets. The guard is
//! on, a tenth of the streams carry sensor faults, and a hot swap arrives
//! through `ModelRegistry::redeploy_json` every five seconds.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use adapt_pnc::persist;
use ptnc_datasets::DataSplit;
use ptnc_faultsim::{FaultInjector, FaultKind, FaultSchedule};
use ptnc_infer::{Health, InferModel};
use ptnc_serve::{
    ModelRegistry, ReloadOutcome, ReloadPolicy, Server, ServingError, SessionId, Ticket,
};

use super::{measure_rounds, overhead_pct, timed_setup, ROUNDS};
use crate::inputs::{self, ScratchDir, CHUNK, GEN_BEHIND_US, LIMIT_US, SESSIONS, WINDOW};
use crate::loadgen::{self, wait_until, Phase};
use crate::probe;
use crate::schedule::{stream_clocks, SplitMix};
use crate::stats::{median, summarize};
use crate::{trace, Ctx, Invalid};

const SETUP_REPS: usize = 5;
const LOW_CPS: f64 = 10_000.0;
const HIGH_CPS: f64 = 20_000.0;
/// Share of the budget per open-loop block and per ladder rung.
const BLOCK_FRAC: f64 = 0.024;
const RUNG_FRAC: f64 = 0.008;
/// Walks up the ladder.
const WALKS: usize = 5;
/// Rungs of the ladder: coarse from the low rate up to 60k chunks/s, then
/// 5 % steps across the knee (40k to 130k chunks/s on a two-core host).
fn ladder_cps() -> Vec<f64> {
    loadgen::ladder_rates(&[LOW_CPS, HIGH_CPS, 40e3], 60e3, 1.05, 20)
}
const SWAP_EVERY: Duration = Duration::from_secs(5);
const FAULTED_FRAC: f64 = 0.1;
const PARITY_SESSIONS: usize = 16;

struct World {
    server: Server,
    registry: Arc<ModelRegistry>,
    /// The engine every session opened on; pinned sessions stay on it.
    origin: Arc<InferModel>,
    ids: Vec<SessionId>,
    faulted: Vec<bool>,
    faults: FaultSchedule,
    /// Hot-swap targets, alternated.
    snapshots: [String; 2],
    split: DataSplit,
    windows: Vec<Vec<f64>>,
    open_us: f64,
    _dir: ScratchDir,
}

fn pinned(s: usize) -> bool {
    s.is_multiple_of(2)
}

impl World {
    fn start(ctx: &Ctx) -> World {
        let seed = ctx.seed;
        let split = inputs::split(seed);
        let windows = inputs::all_windows(&split);
        let classes = split.train.num_classes();
        let dir = ScratchDir::new(&ctx.out_dir, "session");
        let path = dir.file("model.json");
        let model = inputs::model(seed, 0, classes);
        persist::write_atomic(&path, persist::to_json(&model).as_bytes()).expect("write snapshot");
        let registry = Arc::new(ModelRegistry::open(&path).expect("snapshot compiles"));
        let origin = registry.current();
        let server = Server::start(Arc::clone(&registry), inputs::session_batch_config())
            .expect("valid config");
        let t0 = Instant::now();
        let ids: Vec<SessionId> = (0..SESSIONS)
            .map(|s| {
                let policy = if pinned(s) {
                    ReloadPolicy::PinOld
                } else {
                    ReloadPolicy::ResetOnReload
                };
                trace::span("serve.open_session", 0, || {
                    server.open_session(&format!("cohort-{}", s % 8), policy)
                })
                .expect("capacity sized for the sessions")
            })
            .collect();
        let open_us = t0.elapsed().as_secs_f64() * 1e6 / SESSIONS as f64;
        let mut pick = SplitMix::new(seed, 0x6661_756C);
        let faulted = (0..SESSIONS).map(|_| pick.unit() < FAULTED_FRAC).collect();
        World {
            server,
            registry,
            origin,
            ids,
            faulted,
            faults: FaultSchedule::new(seed)
                .with_fault(FaultKind::Dropout, 0.4)
                .with_fault(FaultKind::SpikeNoise, 0.4)
                .with_fault(FaultKind::StuckSensor, 0.2),
            snapshots: [
                persist::to_json(&inputs::model(seed, 1, classes)),
                persist::to_json(&model),
            ],
            split,
            windows,
            open_us,
            _dir: dir,
        }
    }
}

/// The clean samples of chunk `k` of stream `s`: the stream plays seeded
/// windows back to back.
fn clean_chunk(windows: &[Vec<f64>], seed: u64, s: usize, k: usize, out: &mut [f64]) {
    let pos = k * CHUNK;
    let w = inputs::stream_window(seed, s, pos / WINDOW, windows.len());
    out.copy_from_slice(&windows[w][pos % WINDOW..pos % WINDOW + CHUNK]);
}

/// Per-stream generator state, carried across phases.
struct Streams<'w> {
    next: Vec<usize>,
    injectors: Vec<Option<FaultInjector<'w>>>,
}

impl<'w> Streams<'w> {
    fn new(w: &'w World) -> Self {
        Streams {
            next: vec![0; SESSIONS],
            injectors: (0..SESSIONS)
                .map(|s| w.faulted[s].then(|| w.faults.injector(s, 1)))
                .collect(),
        }
    }
}

struct Msg {
    ticket: Ticket,
    due_ns: u64,
    due: Instant,
    submitted: Instant,
    session: usize,
    req: u64,
}

#[derive(Default)]
struct SessionRun {
    phase: Phase,
    serve_us: Vec<f64>,
    shed: u64,
    busy: u64,
    last: Vec<(usize, Vec<f64>)>,
}

/// One open-loop phase at `rate` chunks per second: the calling thread
/// generates, a scoped thread waits.
fn drive(
    w: &World,
    st: &mut Streams<'_>,
    rate: f64,
    secs: f64,
    seed: u64,
    tag: u64,
    keep: &[bool],
) -> SessionRun {
    let start = Instant::now() + Duration::from_millis(2);
    let (tx, rx) = mpsc::channel::<Msg>();
    let mut gen = SessionRun::default();
    let mut late_us = Vec::new();
    let mut buf = [0.0; CHUNK];
    let mut k = 0u64;
    let waited = std::thread::scope(|sc| {
        let waiter = sc.spawn(move || {
            let mut run = SessionRun::default();
            for m in rx {
                let out = trace::span("serve.wait", m.req, || m.ticket.wait());
                let done = Instant::now();
                match out {
                    Ok(logits) => {
                        run.phase
                            .record(m.due_ns, Some((done - m.due).as_secs_f64() * 1e6));
                        run.serve_us.push((done - m.submitted).as_secs_f64() * 1e6);
                        if keep[m.session] {
                            run.last.push((m.session, logits));
                        }
                    }
                    Err(_) => run.phase.record(m.due_ns, None),
                }
            }
            trace::flush_thread();
            run
        });
        let mut submit = |s: usize, due: Instant, due_ns: u64| {
            clean_chunk(&w.windows, seed, s, st.next[s], &mut buf);
            if let Some(inj) = &mut st.injectors[s] {
                inj.corrupt_sequence(&mut buf);
            }
            k += 1;
            let req = (tag << 40) | k;
            let submitted = Instant::now();
            match trace::span("serve.submit_chunk", req, || {
                w.server.submit_chunk(w.ids[s], &buf)
            }) {
                Ok(ticket) => {
                    st.next[s] += 1;
                    tx.send(Msg {
                        ticket,
                        due_ns,
                        due,
                        submitted,
                        session: s,
                        req,
                    })
                    .expect("waiter outlives the generator");
                }
                Err(e) => {
                    gen.phase.record(due_ns, None);
                    match e {
                        ServingError::Backpressure { .. } => gen.shed += 1,
                        ServingError::SessionBusy => gen.busy += 1,
                        _ => {}
                    }
                }
            }
        };
        let clocks = stream_clocks(seed ^ tag, SESSIONS, rate);
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = clocks
            .iter()
            .enumerate()
            .map(|(s, c)| Reverse((c.first_ns, s)))
            .collect();
        let end_ns = (secs * 1e9) as u64;
        while let Some(Reverse((due_ns, s))) = heap.pop() {
            if due_ns >= end_ns {
                break;
            }
            let due = start + Duration::from_nanos(due_ns);
            let late = wait_until(due);
            late_us.push(late.as_secs_f64() * 1e6);
            submit(s, due, due_ns);
            heap.push(Reverse((due_ns + clocks[s].period_ns, s)));
        }
        drop(tx);
        trace::flush_thread();
        waiter.join().expect("waiter thread panicked")
    });
    let mut run = waited;
    gen.phase.late_us = late_us;
    run.phase.merge(gen.phase);
    run.shed = gen.shed;
    run.busy = gen.busy;
    run.phase.elapsed_s = (Instant::now() - start).as_secs_f64();
    run
}

/// What the monitor thread saw while the load ran.
#[derive(Default)]
struct Monitor {
    redeploy_ms: Vec<f64>,
    swap_us: Vec<f64>,
    rejected: u64,
    queue_depth_max: usize,
}

/// Hot-swaps every [`SWAP_EVERY`] and samples the queue depth until `stop`.
fn monitor(w: &World, stop: &AtomicBool) -> Monitor {
    let mut m = Monitor::default();
    // The first swap lands during the warm-up, so every measured phase
    // sees the steady mix of pinned and reset sessions on two engines.
    let mut next_swap = Instant::now();
    let mut flip = 0;
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(5));
        m.queue_depth_max = m.queue_depth_max.max(w.server.queue_depth());
        if Instant::now() < next_swap {
            continue;
        }
        next_swap += SWAP_EVERY;
        let t0 = Instant::now();
        let outcome = trace::span("serve.registry.redeploy_json", 0, || {
            w.registry.redeploy_json(&w.snapshots[flip % 2])
        });
        flip += 1;
        m.redeploy_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match outcome {
            Ok(ReloadOutcome::Swapped(rep)) => m.swap_us.push(rep.swap_micros as f64),
            _ => m.rejected += 1,
        }
    }
    trace::flush_thread();
    m
}

/// An open-loop phase; invalid if the generator fell behind its schedule.
fn open_phase(
    w: &World,
    st: &mut Streams<'_>,
    seed: u64,
    tag: u64,
    rate: f64,
    secs: f64,
    keep: &[bool],
) -> Result<SessionRun, Invalid> {
    let run = drive(w, st, rate, secs, seed, tag, keep);
    if run.phase.generator_behind(GEN_BEHIND_US) {
        return Err(Invalid(format!(
            "session generator fell behind its schedule at {rate} chunks/s"
        )));
    }
    Ok(run)
}

pub fn run(ctx: &mut Ctx) -> Result<(), Invalid> {
    let w = timed_setup(ctx, SETUP_REPS, World::start);
    let seed = ctx.seed;
    ctx.meta(
        "server",
        inputs::batch_config_json(&inputs::session_batch_config()),
    );
    ctx.meta(
        "load",
        format!(
            "{{\"sessions\": {SESSIONS}, \"chunk\": {CHUNK}, \"low_cps\": {LOW_CPS}, \"high_cps\": {HIGH_CPS}, \"faulted_frac\": {FAULTED_FRAC}, \"swap_every_ms\": {}, \"limit_us\": {LIMIT_US}, \"rounds\": {ROUNDS}}}",
            SWAP_EVERY.as_millis()
        ),
    );
    // Parity sample: clean, pinned streams (never reset by a swap).
    let mut pick = SplitMix::new(seed, 0x7061_7269);
    let mut keep = vec![false; SESSIONS];
    while keep.iter().filter(|&&k| k).count() < PARITY_SESSIONS {
        let s = pick.below(SESSIONS);
        keep[s] = pinned(s) && !w.faulted[s];
    }
    let mut st = Streams::new(&w);
    let stop = AtomicBool::new(false);
    let mut last: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut totals = (0u64, 0u64, 0u64, 0u64); // attempted, failed, shed, busy
    let mut book = |r: &SessionRun, last: &mut Vec<(usize, Vec<f64>)>| {
        totals.0 += r.phase.attempted;
        totals.1 += r.phase.failed;
        totals.2 += r.shed;
        totals.3 += r.busy;
        last.extend(r.last.iter().cloned());
    };

    let (outcome, mon) = std::thread::scope(|sc| {
        let mon = sc.spawn(|| monitor(&w, &stop));
        let outcome = (|| -> Result<Option<(f64, Summary2)>, Invalid> {
            let warm = drive(&w, &mut st, LOW_CPS, 0.3, seed, 1, &keep);
            book(&warm, &mut last);
            if ctx.trace {
                let untraced = open_phase(&w, &mut st, seed, 10, HIGH_CPS, ctx.budget(0.2), &keep)?;
                trace::set_enabled(true);
                let traced = open_phase(&w, &mut st, seed, 10, HIGH_CPS, ctx.budget(0.2), &keep)?;
                book(&untraced, &mut last);
                book(&traced, &mut last);
                let overhead =
                    overhead_pct(untraced.phase.summary().p50, traced.phase.summary().p50);
                let mut serve = traced.serve_us.clone();
                let (late, late_n) = traced.phase.lateness();
                return Ok(Some((overhead, (summarize(&mut serve), late, late_n))));
            }
            // Each round runs one block at each rate.
            let block = ctx.budget(BLOCK_FRAC);
            measure_rounds(ctx, |_, round| {
                let tag = 20 + 2 * round;
                let low = open_phase(&w, &mut st, seed, tag, LOW_CPS, block, &keep)?;
                let high = open_phase(&w, &mut st, seed, tag + 1, HIGH_CPS, block, &keep)?;
                book(&low, &mut last);
                book(&high, &mut last);
                Ok((low.phase, high.phase, ()))
            })?;
            let rung_secs = ctx.budget(RUNG_FRAC);
            let mut tag = 10_000;
            // Ladder rungs probe past capacity on purpose; their chunks are
            // not counted as the workload's operations, but their answers
            // still feed the parity check.
            let cap = loadgen::capacity(WALKS, &ladder_cps(), LIMIT_US, |rate| {
                tag += 1;
                let run = drive(&w, &mut st, rate, rung_secs, seed, tag, &keep);
                last.extend(run.last);
                run.phase
            });
            ctx.report.set("max_rate_rps", cap.max_rate);
            ctx.report
                .set("timesteps_per_s", cap.sustained_rps * CHUNK as f64);
            ctx.meta("ladder", loadgen::walks_json(&cap.walks));
            ctx.meta("disturbed_walks", cap.disturbed.to_string());
            Ok(None)
        })();
        stop.store(true, Ordering::Relaxed);
        (outcome, mon.join().expect("monitor thread panicked"))
    });
    let traced = outcome?;
    ctx.ops(totals.0, totals.1);
    ctx.meta(
        "swaps",
        format!(
            "{{\"swapped\": {}, \"rejected\": {}, \"redeploy_ms_median\": {}}}",
            mon.swap_us.len(),
            mon.rejected,
            if mon.redeploy_ms.is_empty() {
                0.0
            } else {
                median(&mon.redeploy_ms)
            }
        ),
    );
    check_parity(ctx, &w, &st, &last);
    ctx.check(
        "hot_swaps_land",
        mon.rejected == 0 && !mon.swap_us.is_empty(),
        format!("{} swapped, {} rejected", mon.swap_us.len(), mon.rejected),
    );

    let Some((overhead, (serve, late, late_n))) = traced else {
        return Ok(());
    };
    let (mut degraded, mut faulted) = (0, 0);
    for id in &w.ids {
        match w.server.session_snapshot(*id).map(|s| s.health) {
            Some(Health::Degraded) => degraded += 1,
            Some(Health::Faulted) => faulted += 1,
            _ => {}
        }
    }
    let main = [
        ("trace.overhead_pct", overhead),
        ("gen.late_us.p99", late),
        ("gen.late_count", late_n as f64),
        ("serve.latency_us.p50", serve.p50),
        ("serve.latency_us.p99", serve.tail),
        ("serve.batches", w.server.batches() as f64),
        ("serve.batch_fill_mean", w.server.mean_batch_fill()),
        ("serve.queue_depth_max", mon.queue_depth_max as f64),
        ("serve.shed", totals.2 as f64),
        ("serve.session_busy", totals.3 as f64),
        ("serve.session.open_us", w.open_us),
        ("serve.session.open", w.server.sessions_opened() as f64),
        ("serve.session.evicted", w.server.sessions_evicted() as f64),
        (
            "serve.registry.redeploy_ms",
            median_or_zero(&mon.redeploy_ms),
        ),
        (
            "serve.registry.swap_us",
            mon.swap_us.iter().sum::<f64>() / mon.swap_us.len().max(1) as f64,
        ),
        ("serve.registry.swaps", mon.swap_us.len() as f64),
        ("infer.guard.repaired", w.server.guard_repaired() as f64),
        ("infer.guard.degraded", degraded as f64),
        ("infer.guard.faulted", faulted as f64),
    ];
    let fill = w.server.mean_batch_fill();
    let split = w.split.clone();
    drop(st);
    drop(w);
    probe::run(
        ctx,
        &probe::Shape {
            split: &split,
            cfg: inputs::session_batch_config(),
            t: CHUNK,
            fill: fill.round().max(1.0) as usize,
        },
    );
    // This workload's own load supersedes the replay where it has numbers;
    // queue wait is measured latency minus the replayed forward.
    for (name, v) in main {
        ctx.report.set(name, v);
    }
    let forward = ctx
        .report
        .get("serve.batcher.forward_resident_us")
        .unwrap_or(0.0);
    ctx.report
        .set("serve.queue_wait_us.p50", serve.p50 - forward);
    Ok(())
}

type Summary2 = (crate::stats::Summary, f64, u64);

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Chunked pinned streams must equal the one-shot run of their whole
/// concatenated stream on the engine they opened on, bit for bit.
fn check_parity(ctx: &mut Ctx, w: &World, st: &Streams<'_>, last: &[(usize, Vec<f64>)]) {
    let mut latest: Vec<Option<&Vec<f64>>> = vec![None; SESSIONS];
    for (s, logits) in last {
        latest[*s] = Some(logits);
    }
    let mut checked = 0;
    let mut mismatched = 0;
    let mut buf = [0.0; CHUNK];
    for (s, logits) in latest.iter().enumerate() {
        let Some(logits) = logits else { continue };
        let mut window = Vec::with_capacity(st.next[s] * CHUNK);
        for k in 0..st.next[s] {
            clean_chunk(&w.windows, ctx.seed, s, k, &mut buf);
            window.extend_from_slice(&buf);
        }
        let direct = w.origin.run_batch(&window, 1).expect("one stream");
        checked += 1;
        if direct
            .iter()
            .map(|v| v.to_bits())
            .ne(logits.iter().map(|v| v.to_bits()))
        {
            mismatched += 1;
        }
    }
    ctx.check(
        "chunked_sessions_bitwise_equal_oneshot",
        checked > 0 && mismatched == 0,
        format!("{mismatched} of {checked} pinned clean streams differ"),
    );
}
