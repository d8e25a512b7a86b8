//! `train_variation`: variation-aware training, offline.
//! `train_with_runner` runs `TrainConfig::adapt_pnc(6)` on the fused path
//! with 4 Monte-Carlo samples per epoch over a two-thread runner.

use std::time::Instant;

use adapt_pnc::parallel::{seed_split, ParallelRunner};
use adapt_pnc::training::{train_with_runner, TrainConfig, TrainedModel};
use ptnc_datasets::DataSplit;

use super::{measure_rounds, overhead_pct, timed_setup};
use crate::inputs::{self, WINDOW};
use crate::loadgen::Phase;
use crate::probe;
use crate::stats::rate_over_blocks;
use crate::{trace, Ctx, Invalid};

const SETUP_REPS: usize = 41;
/// Share of the budget per block of one-epoch jobs and per throughput
/// block.
const BLOCK_FRAC: f64 = 0.035;
const BATCH_FRAC: f64 = 0.06;
const MC_SAMPLES: usize = 4;
/// Epochs per training call in the throughput blocks (the `high` requests).
const EPOCHS: usize = 6;
/// Validation accuracy the best of the throughput phase's models must
/// reach (the dataset has two balanced classes).
const VAL_FLOOR: f64 = 0.7;
const TRAIN_STREAM: u64 = 0x7472_6169;

fn config(epochs: usize) -> TrainConfig {
    TrainConfig::adapt_pnc(inputs::HIDDEN)
        .to_builder()
        .max_epochs(epochs)
        .mc_samples(MC_SAMPLES)
        .build()
}

fn train(split: &DataSplit, runner: &ParallelRunner, epochs: usize, seed: u64) -> TrainedModel {
    trace::span("core.train.train_with_runner", seed, || {
        train_with_runner(split, &config(epochs), seed, runner)
    })
}

/// Training calls back to back for `secs`. Each call is one sample; its
/// epochs are the operations. With `fixed_seed` every call repeats the
/// same job, otherwise each call trains a fresh seed.
fn phase(
    split: &DataSplit,
    runner: &ParallelRunner,
    epochs: usize,
    secs: f64,
    seed: u64,
    fixed_seed: bool,
    out: &mut Vec<TrainedModel>,
) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    let mut prev = start;
    let mut k = 0u64;
    while (Instant::now() - start).as_secs_f64() < secs {
        let t0 = Instant::now();
        p.late_us.push((t0 - prev).as_secs_f64() * 1e6);
        let call_seed = if fixed_seed {
            seed
        } else {
            seed_split(seed, TRAIN_STREAM, k)
        };
        let trained = train(split, runner, epochs, call_seed);
        prev = Instant::now();
        let finite = finite_report(&trained);
        p.record(
            (t0 - start).as_nanos() as u64,
            finite.then(|| (prev - t0).as_secs_f64() * 1e6),
        );
        out.push(trained);
        k += 1;
    }
    p.elapsed_s = (Instant::now() - start).as_secs_f64();
    p
}

fn finite_report(t: &TrainedModel) -> bool {
    t.report.best_val_loss.is_finite()
        && t.report.val_history.iter().all(|v| v.is_finite())
        && t.val_accuracy.is_finite()
}

/// Input timesteps of one training epoch: every Monte-Carlo sample runs
/// forward and backward once over the originals plus one augmented copy.
fn timesteps_per_epoch(split: &DataSplit) -> f64 {
    (MC_SAMPLES * 2 * split.train.len() * WINDOW) as f64
}

pub fn run(ctx: &mut Ctx) -> Result<(), Invalid> {
    let split = timed_setup(ctx, SETUP_REPS, |c: &Ctx| inputs::split(c.seed));
    let seed = ctx.seed;
    let serial = ParallelRunner::serial();
    let two = ParallelRunner::serial().with_threads(2);
    ctx.meta(
        "load",
        format!(
            "{{\"dataset\": \"{}\", \"train_windows\": {}, \"window\": {WINDOW}, \"hidden\": {}, \"mc_samples\": {MC_SAMPLES}, \"epochs_per_call\": {EPOCHS}, \"val_floor\": {VAL_FLOOR}, \"runner_threads\": 2, \"check_runner_threads\": [1, 2]}}",
            inputs::DATASET,
            split.train.len(),
            inputs::HIDDEN
        ),
    );
    let mut models = Vec::new();
    train(&split, &two, 1, seed);

    if ctx.trace {
        let untraced = phase(
            &split,
            &two,
            EPOCHS,
            ctx.budget(0.2),
            seed,
            false,
            &mut models,
        );
        trace::set_enabled(true);
        let traced = phase(
            &split,
            &two,
            EPOCHS,
            ctx.budget(0.2),
            seed,
            false,
            &mut models,
        );
        for p in [&untraced, &traced] {
            ctx.ops(p.attempted * EPOCHS as u64, p.failed * EPOCHS as u64);
        }
        ctx.report.set(
            "trace.overhead_pct",
            overhead_pct(untraced.summary().p50, traced.summary().p50),
        );
        let (late, late_n) = traced.lateness();
        ctx.report.set("gen.late_us.p99", late);
        ctx.report.set("gen.late_count", late_n as f64);
        check_accuracy(ctx, &models);
        probe::run(
            ctx,
            &probe::Shape {
                split: &split,
                cfg: inputs::wire_batch_config(),
                t: WINDOW,
                fill: 1,
            },
        );
        return Ok(());
    }

    // Each round: a block of one-epoch refit jobs, as the adapt loop issues
    // them, then a throughput block of fresh six-epoch trainings, both on
    // the two-thread runner. A one-thread runner's speed depends on which
    // core the host gives it for the whole run, so it only serves the
    // determinism check: the same refit job trains identically every time,
    // at either width.
    let mut refits = Vec::new();
    let (block, batch) = (ctx.budget(BLOCK_FRAC), ctx.budget(BATCH_FRAC));
    let epoch_rates = measure_rounds(ctx, |ctx, round| {
        let low = phase(&split, &two, 1, block, seed, true, &mut refits);
        ctx.ops(low.attempted, low.failed);
        let before = models.len();
        let round_seed = seed_split(seed, TRAIN_STREAM, u64::MAX - round);
        let high = phase(&split, &two, EPOCHS, batch, round_seed, false, &mut models);
        ctx.ops(high.attempted * EPOCHS as u64, high.failed * EPOCHS as u64);
        let epochs: usize = models[before..].iter().map(|m| m.report.epochs).sum();
        let rate = epochs as f64 / high.elapsed_s;
        Ok((low, high, rate))
    })?;
    refits.push(train(&split, &serial, 1, seed));
    let differing = refits
        .iter()
        .filter(|t| t.report != refits[0].report)
        .count();
    ctx.check(
        "train_identical_at_1_and_2_threads",
        differing == 0,
        format!(
            "{differing} of {} one-epoch jobs differ from the first",
            refits.len()
        ),
    );
    let epochs_per_s = rate_over_blocks(&epoch_rates);
    ctx.report.set(
        "timesteps_per_s",
        epochs_per_s * timesteps_per_epoch(&split),
    );
    ctx.report.set("max_rate_rps", epochs_per_s);
    check_accuracy(ctx, &models);
    Ok(())
}

fn check_accuracy(ctx: &mut Ctx, models: &[TrainedModel]) {
    let finite = models.iter().all(finite_report);
    let accs: Vec<f64> = models.iter().map(|m| m.val_accuracy).collect();
    let best = accs.iter().copied().fold(0.0, f64::max);
    let mean = accs.iter().sum::<f64>() / accs.len().max(1) as f64;
    let worst = accs.iter().copied().fold(1.0, f64::min);
    ctx.check(
        "train_report_finite_and_above_floor",
        !models.is_empty() && finite && best >= VAL_FLOOR,
        format!(
            "{} models, finite {finite}, validation accuracy best {best:.4} mean {mean:.4} worst {worst:.4} (floor on the best: {VAL_FLOOR})",
            models.len()
        ),
    );
}
