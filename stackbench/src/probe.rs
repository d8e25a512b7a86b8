//! The waterfall: the workload's inputs replayed through one layer at a
//! time, from the kernel up to the socket, so each layer's self time is a
//! subtraction. Runs in the traced run after the workload's own servers
//! are gone, so the allocation counts see no other threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use adapt_pnc::eval::perturb_dataset;
use adapt_pnc::parallel::{rng_for, streams, ParallelRunner};
use adapt_pnc::persist;
use adapt_pnc::serve::ServeModel;
use adapt_pnc::training::{train_with_runner, TrainConfig};
use adapt_pnc::variation::VariationConfig;
use ptnc_datasets::DataSplit;
use ptnc_faultsim::{FaultKind, FaultSchedule};
use ptnc_infer::{Health, InferModel, VariationDistribution, VariationSample};
use ptnc_serve::{BatchConfig, MicroBatcher, ModelRegistry, ReloadOutcome, ReloadPolicy, Server};
use ptnc_tensor::pool;
use ptnc_wire::{
    Endpoint, Request, Response, WireClient, WireServer, WireServerConfig, HEADER_LEN,
};

use crate::inputs::{self, ScratchDir, WINDOW};
use crate::stats::{median, summarize};
use crate::{allocations, trace, Ctx};

/// Calls replayed per timing probe.
const REPS: usize = 600;
/// Sequential requests per server and wire probe.
const REQUESTS: usize = 600;

/// The shape a workload replays through the layers.
pub struct Shape<'a> {
    /// The workload's data.
    pub split: &'a DataSplit,
    /// Scheduler configuration the workload serves with.
    pub cfg: BatchConfig,
    /// Timesteps per request.
    pub t: usize,
    /// Batch fill the workload produced (lanes per forward).
    pub fill: usize,
}

/// Median microseconds per call of `f` (each call in a span named `name`)
/// and heap allocations per call, counted with tracing paused.
pub fn time_calls(name: &'static str, reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    f();
    let traced = trace::enabled();
    trace::set_enabled(false);
    let rounds = 32u64;
    let before = allocations();
    for _ in 0..rounds {
        f();
    }
    let allocs = (allocations() - before) as f64 / rounds as f64;
    trace::set_enabled(traced);
    let mut micros = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        trace::span(name, 0, &mut f);
        micros.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    (median(&micros), allocs)
}

/// Median milliseconds of `reps` calls of `f`, each in a span.
fn time_ms(name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            trace::span(name, 0, &mut f);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}

/// Interleaves `lanes` windows (each `t` steps, univariate) time-major.
pub fn time_major(lanes: &[&[f64]]) -> Vec<f64> {
    let t = lanes[0].len();
    (0..t)
        .flat_map(|k| lanes.iter().map(move |l| l[k]))
        .collect()
}

/// Runs every layer probe and records its per-layer metrics.
pub fn run(ctx: &mut Ctx, shape: &Shape<'_>) {
    let seed = ctx.seed;
    let classes = shape.split.train.num_classes();
    let model = inputs::model(seed, 0, classes);
    let windows = inputs::all_windows(shape.split);
    let test = inputs::windows(&shape.split.test);
    let r = &mut ctx.report;

    // core.eval: freezing the trained graph into the kernel.
    r.set(
        "core.eval.freeze_ms",
        time_ms("core.eval.from_live", 20, || {
            std::hint::black_box(ServeModel::from_live(&model).expect("finite model"));
        }),
    );
    let engine = Arc::new(
        ServeModel::from_live(&model)
            .expect("finite model")
            .into_engine(),
    );
    kernel_probes(r, &engine, &windows, &test, seed);
    batcher_probes(r, &engine, shape, &windows, seed);

    // runner: Monte-Carlo trials fanned out over two threads.
    let runner = ParallelRunner::serial().with_threads(2);
    let test_flat = time_major(&test.iter().map(Vec::as_slice).collect::<Vec<_>>());
    let dist: VariationDistribution = (&VariationConfig::paper_default()).into();
    let busy_ns = AtomicU64::new(0);
    let t0 = Instant::now();
    let accs = trace::span("runner.run", 0, || {
        runner.run((0..8u64).collect(), |_, trial| {
            let c0 = Instant::now();
            let mut rng = rng_for(seed, streams::EVAL_TRIAL, trial);
            let sample = VariationSample::draw(engine.spec(), &dist, &mut rng);
            let logits = engine
                .perturbed(&sample)
                .and_then(|m| m.run_batch(&test_flat, test.len()))
                .expect("sample drawn on this spec");
            busy_ns.fetch_add(c0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            logits[0]
        })
    });
    let wall = t0.elapsed().as_secs_f64();
    std::hint::black_box(accs);
    let busy = busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
    r.set("runner.wall_ms", wall * 1e3);
    r.set("runner.busy_ms", busy * 1e3);
    r.set("runner.busy_frac", busy / (wall * runner.threads() as f64));

    // augment: the Table I test-set perturbation.
    r.set(
        "augment.perturb_ms",
        time_ms("augment.perturb_dataset", 10, || {
            std::hint::black_box(perturb_dataset(&shape.split.test, 0.5, seed));
        }),
    );
    train_probes(r, shape.split, seed);
    server_probes(ctx, &model, shape, &windows);
}

fn kernel_probes(
    r: &mut crate::metrics::Report,
    engine: &Arc<InferModel>,
    windows: &[Vec<f64>],
    test: &[Vec<f64>],
    seed: u64,
) {
    let classes = engine.spec().classes;
    // Wire shape: two lanes of a full window.
    let wire_steps = time_major(&[&windows[0], &windows[1]]);
    let mut scratch = engine.make_scratch(2).expect("batch 2");
    let mut out = vec![0.0; 2 * classes];
    let (forward_us, allocs) = time_calls("infer.run_batch_into", REPS, || {
        engine
            .run_batch_into(&wire_steps, 2, &mut scratch, &mut out)
            .expect("wire shape");
    });
    r.set("infer.forward_us", forward_us);
    r.set("infer.allocs_per_forward", allocs);

    // Session shape: 32 lanes of one 8-step chunk, resuming state.
    let lanes: Vec<&[f64]> = (0..32)
        .map(|l| &windows[l % windows.len()][..inputs::CHUNK])
        .collect();
    let chunk_steps = time_major(&lanes);
    let mut scratch = engine.make_scratch(32).expect("batch 32");
    let mut out = vec![0.0; 32 * classes];
    let (chunk_us, _) = time_calls("infer.run_chunk_into", REPS, || {
        engine
            .run_chunk_into(&chunk_steps, 32, &mut scratch, &mut out)
            .expect("session shape");
    });
    r.set("infer.chunk_us", chunk_us);

    // Monte-Carlo shape: the whole test split in one batch.
    let test_flat = time_major(&test.iter().map(Vec::as_slice).collect::<Vec<_>>());
    let (batch_us, _) = time_calls("infer.run_batch", REPS / 4, || {
        std::hint::black_box(engine.run_batch(&test_flat, test.len()).expect("mc shape"));
    });
    r.set("infer.batch_us", batch_us);
    r.set(
        "infer.timesteps_per_s",
        (test.len() * WINDOW) as f64 / (batch_us / 1e6),
    );
    let dist: VariationDistribution = (&VariationConfig::paper_default()).into();
    let sample = VariationSample::draw(
        engine.spec(),
        &dist,
        &mut rng_for(seed, streams::EVAL_TRIAL, 0),
    );
    let (perturb_us, _) = time_calls("infer.perturbed", REPS / 4, || {
        std::hint::black_box(engine.perturbed(&sample).expect("same spec"));
    });
    r.set("infer.perturb_us", perturb_us);

    // Computed from the shape, not measured: per lane and timestep, each
    // layer does a crossbar MAC over its inputs plus bias, a divide by the
    // conductance sum, two one-pole filter updates (2 mul + 1 add each)
    // and a ptanh (counted as 4 flops around one tanh). Bytes are the lane
    // state read and written once plus the input sample.
    let spec = engine.spec();
    let flops: usize = spec
        .layer_dims()
        .iter()
        .map(|&(i, o)| o * (2 * (i + 1) + 1 + spec.stages * 3 + 4))
        .sum();
    r.set("infer.flops_per_timestep", flops as f64);
    r.set(
        "infer.bytes_per_timestep",
        (engine.lane_state_len() * 2 * 8 + spec.input_dim * 8) as f64,
    );
}

fn batcher_probes(
    r: &mut crate::metrics::Report,
    engine: &Arc<InferModel>,
    shape: &Shape<'_>,
    windows: &[Vec<f64>],
    seed: u64,
) {
    let cfg = shape.cfg;
    let fill = shape.fill.clamp(1, cfg.max_batch);
    let lanes: Vec<Vec<f64>> = (0..fill)
        .map(|l| windows[l % windows.len()][..shape.t].to_vec())
        .collect();
    let mut mb = MicroBatcher::new(engine, &cfg).expect("valid config");
    let (load_us, _) = time_calls("serve.batcher.load", REPS, || {
        mb.begin(shape.t).expect("t fits");
        for (lane, steps) in lanes.iter().enumerate() {
            mb.load_lane(lane, steps).expect("lane fits");
        }
    });
    r.set("serve.batcher.load_us", load_us);
    let (forward_us, allocs) = time_calls("serve.batcher.forward", REPS, || {
        mb.forward(engine).expect("sized at construction");
    });
    r.set("serve.batcher.forward_us", forward_us);
    r.set("serve.batcher.allocs_per_forward", allocs);

    let mut sessions: Vec<_> = (0..fill).map(|_| engine.session()).collect();
    let (import_us, _) = time_calls("serve.batcher.import_session", REPS, || {
        for (lane, s) in sessions.iter().enumerate() {
            mb.import_session(lane, s).expect("same engine");
        }
    });
    let (resident_us, _) = time_calls("serve.batcher.forward_resident", REPS, || {
        mb.forward_resident(engine).expect("sized at construction");
    });
    let (export_us, _) = time_calls("serve.batcher.export_session", REPS, || {
        for (lane, s) in sessions.iter_mut().enumerate() {
            mb.export_session(lane, s).expect("same engine");
        }
    });
    r.set("serve.batcher.import_us", import_us);
    r.set("serve.batcher.forward_resident_us", resident_us);
    r.set("serve.batcher.export_us", export_us);

    // infer.guard: the same faulted inputs with and without the guard.
    let faults = FaultSchedule::new(seed)
        .with_fault(FaultKind::Dropout, 0.5)
        .with_fault(FaultKind::SpikeNoise, 0.5);
    let faulted: Vec<Vec<f64>> = lanes
        .iter()
        .enumerate()
        .map(|(l, w)| {
            let mut w = w.clone();
            faults.injector(l, 1).corrupt_sequence(&mut w);
            w
        })
        .collect();
    let guarded_cost = |guard| {
        let cfg = BatchConfig { guard, ..cfg };
        let mut mb = MicroBatcher::new(engine, &cfg).expect("valid config");
        time_calls("serve.batcher.forward", REPS, || {
            mb.begin(shape.t).expect("t fits");
            for (lane, steps) in faulted.iter().enumerate() {
                mb.load_lane(lane, steps).expect("lane fits");
            }
            mb.forward(engine).expect("sized at construction");
        })
        .0
    };
    let with = guarded_cost(Some(ptnc_infer::GuardConfig::default_policy()));
    let without = guarded_cost(None);
    r.set("infer.guard.cost_us", with - without);
}

fn train_probes(r: &mut crate::metrics::Report, split: &DataSplit, seed: u64) {
    let cfg = TrainConfig::adapt_pnc(inputs::HIDDEN)
        .to_builder()
        .max_epochs(2)
        .mc_samples(4)
        .build();
    // Serial replay: the pool's statistics are thread-local.
    let pool0 = pool::stats();
    let a0 = allocations();
    let serial = trace::span("core.train.train_with_runner", 0, || {
        train_with_runner(split, &cfg, seed, &ParallelRunner::serial())
    });
    let allocs = allocations() - a0;
    let pool1 = pool::stats();
    let steps = (serial.report.epochs * cfg.mc_samples).max(1);
    r.set("core.train.allocs_per_step", allocs as f64 / steps as f64);
    let (hits, misses) = (pool1.hits - pool0.hits, pool1.misses - pool0.misses);
    r.set(
        "tensor.pool.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    ptnc_nn::timing::begin_capture();
    let t0 = Instant::now();
    let out = trace::span("core.train.train_with_runner", 0, || {
        train_with_runner(split, &cfg, seed, &ParallelRunner::serial().with_threads(2))
    });
    let wall = t0.elapsed().as_secs_f64();
    let cap = ptnc_nn::timing::end_capture();
    r.set("core.train.epoch_ms", cap.seconds_per_epoch() * 1e3);
    r.set("core.train.outside_epoch_ms", (wall - cap.seconds) * 1e3);
    r.set("core.train.skipped_steps", out.report.skipped_steps as f64);
    r.set("core.train.clipped_steps", out.report.clipped_steps as f64);
}

/// Sequential submit→wait latencies through `server`, microseconds.
fn serve_latencies(server: &Server, windows: &[Vec<f64>], t: usize) -> Vec<f64> {
    (0..REQUESTS)
        .map(|k| {
            let steps = &windows[k % windows.len()][..t];
            let t0 = Instant::now();
            let ticket = trace::span("serve.submit", k as u64, || server.submit("probe", steps))
                .expect("probe request accepted");
            trace::span("serve.wait", k as u64, || ticket.wait()).expect("probe request served");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

fn server_probes(
    ctx: &mut Ctx,
    model: &adapt_pnc::models::PrintedModel,
    shape: &Shape<'_>,
    windows: &[Vec<f64>],
) {
    let dir = ScratchDir::new(&ctx.out_dir, "probe");
    let path = dir.file("model.json");
    persist::write_atomic(&path, persist::to_json(model).as_bytes()).expect("write snapshot");
    let registry = Arc::new(ModelRegistry::open(&path).expect("snapshot compiles"));
    let server = Server::start(Arc::clone(&registry), shape.cfg).expect("valid config");
    let mut lat = serve_latencies(&server, windows, shape.t);
    let serve = summarize(&mut lat);
    let r = &mut ctx.report;
    r.set("serve.latency_us.p50", serve.p50);
    r.set("serve.latency_us.p99", serve.tail);
    r.set(
        "serve.queue_wait_us.p50",
        serve.p50
            - r.get("serve.batcher.forward_us")
                .expect("batcher probed first"),
    );
    r.set("serve.batches", server.batches() as f64);
    r.set("serve.batch_fill_mean", server.mean_batch_fill());
    r.set("serve.queue_depth_max", server.queue_depth() as f64);
    r.set("serve.shed", 0.0);
    r.set("serve.session_busy", 0.0);
    r.set("infer.guard.repaired", server.guard_repaired() as f64);
    r.set("infer.guard.degraded", 0.0);
    r.set("infer.guard.faulted", 0.0);

    let mut open_us = Vec::with_capacity(REQUESTS);
    for _ in 0..REQUESTS {
        let t0 = Instant::now();
        trace::span("serve.open_session", 0, || {
            server.open_session("probe", ReloadPolicy::PinOld)
        })
        .expect("capacity for probe sessions");
        open_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    r.set("serve.session.open_us", median(&open_us));
    r.set("serve.session.open", server.sessions_opened() as f64);
    r.set("serve.session.evicted", server.sessions_evicted() as f64);

    let snapshots = [
        persist::to_json(&inputs::model(ctx.seed, 1, model.num_classes())),
        persist::to_json(model),
    ];
    let mut redeploy_ms = Vec::new();
    let mut swap_us = Vec::new();
    for k in 0..6 {
        let t0 = Instant::now();
        let outcome = trace::span("serve.registry.redeploy_json", 0, || {
            registry.redeploy_json(&snapshots[k % 2])
        });
        redeploy_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Ok(ReloadOutcome::Swapped(rep)) = outcome {
            swap_us.push(rep.swap_micros as f64);
        }
    }
    r.set("serve.registry.redeploy_ms", median(&redeploy_ms));
    r.set(
        "serve.registry.swap_us",
        swap_us.iter().sum::<f64>() / swap_us.len().max(1) as f64,
    );
    r.set("serve.registry.swaps", swap_us.len() as f64);
    server.shutdown();

    // wire: the same requests through a loopback socket.
    let registry = Arc::new(ModelRegistry::open(&path).expect("snapshot compiles"));
    let server = Arc::new(Server::start(registry, shape.cfg).expect("valid config"));
    let wire = WireServer::bind(
        Arc::clone(&server),
        &Endpoint::Tcp("127.0.0.1:0".parse().expect("literal address")),
        WireServerConfig::default(),
    )
    .expect("bind loopback");
    let mut client = WireClient::new(wire.endpoint().clone(), Default::default());
    let mut rtt: Vec<f64> = (0..REQUESTS)
        .map(|k| {
            let steps = &windows[k % windows.len()][..shape.t];
            let t0 = Instant::now();
            trace::span("wire.submit", k as u64, || client.submit("probe", steps))
                .expect("probe request served");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let rtt = summarize(&mut rtt);
    let stats = wire.stats();
    let cstats = client.stats();
    drop(client);
    wire.shutdown();
    drop(server);

    let r = &mut ctx.report;
    r.set("wire.rtt_us.p50", rtt.p50);
    r.set("wire.rtt_us.p99", rtt.tail);
    r.set("wire.self_us.p50", rtt.p50 - serve.p50);
    r.set(
        "wire.bytes_per_req",
        wire_bytes(&windows[0][..shape.t], model.num_classes()),
    );
    set_wire_counters(r, &stats, cstats.retries, cstats.connects);
}

/// Request plus response frame bytes for one one-shot window.
pub fn wire_bytes(steps: &[f64], classes: usize) -> f64 {
    let mut req = Vec::new();
    Request::Submit {
        tenant: "wire-0".into(),
        steps: steps.to_vec(),
    }
    .encode(&mut req)
    .expect("window fits a frame");
    let mut resp = Vec::new();
    Response::Logits {
        logits: vec![0.0; classes],
        health: Health::Healthy,
    }
    .encode(&mut resp);
    (2 * HEADER_LEN + req.len() + resp.len()) as f64
}

/// Records the transport counters.
pub fn set_wire_counters(
    r: &mut crate::metrics::Report,
    s: &ptnc_wire::WireStatsSnapshot,
    retries: u64,
    connects: u64,
) {
    r.set("wire.frames_read", s.frames_read as f64);
    r.set("wire.frames_written", s.frames_written as f64);
    r.set("wire.crc_rejected", s.crc_rejected as f64);
    r.set("wire.deadline_closes", s.deadline_closes as f64);
    r.set("wire.connections_shed", s.connections_shed as f64);
    r.set("wire.client_retries", retries as f64);
    r.set("wire.client_connects", connects as f64);
}
