//! `mc_variation`: the Table I protocol, offline. `evaluate_with_runner`
//! scores the seed's model on the perturbed test split (augmentation
//! strength 0.5) under ±10 % component variation, fanning Monte-Carlo
//! trials out over a two-thread runner.

use std::time::Instant;

use adapt_pnc::eval::{
    dataset_to_steps, evaluate_with_runner, perturb_dataset, variation_trials_autograd,
    EvalCondition,
};
use adapt_pnc::models::PrintedModel;
use adapt_pnc::parallel::{seed_split, ParallelRunner};
use adapt_pnc::variation::VariationConfig;
use ptnc_datasets::DataSplit;

use super::{measure_rounds, overhead_pct, timed_setup};
use crate::inputs::{self, WINDOW};
use crate::loadgen::Phase;
use crate::probe;
use crate::stats::rate_over_blocks;
use crate::{trace, Ctx, Invalid};

const SETUP_REPS: usize = 41;
/// Share of the budget per block of small requests and per throughput
/// block.
const BLOCK_FRAC: f64 = 0.035;
const BATCH_FRAC: f64 = 0.06;
/// Trials per small request (`low`: one per runner thread).
const REQUEST_TRIALS: usize = 2;
/// Trials per large request (`high`), the throughput blocks' calls.
const BATCH_TRIALS: usize = 32;
const STRENGTH: f64 = 0.5;
const EVAL_STREAM: u64 = 0x6576_616C;

struct World {
    model: PrintedModel,
    split: DataSplit,
}

fn start(ctx: &Ctx) -> World {
    let split = inputs::split(ctx.seed);
    World {
        model: inputs::model(ctx.seed, 0, split.train.num_classes()),
        split,
    }
}

fn condition(trials: usize) -> EvalCondition {
    EvalCondition::VariationAndPerturbed {
        config: VariationConfig::paper_default(),
        trials,
        strength: STRENGTH,
    }
}

fn evaluate(w: &World, runner: &ParallelRunner, trials: usize, eval_seed: u64) -> f64 {
    trace::span("core.eval.evaluate_with_runner", eval_seed, || {
        evaluate_with_runner(
            &w.model,
            &w.split.test,
            &condition(trials),
            eval_seed,
            runner,
        )
    })
}

/// Calls `evaluate` back to back for `secs`; each call is one sample, and
/// the gap between calls is the generator's lateness.
fn phase(
    w: &World,
    runner: &ParallelRunner,
    trials: usize,
    secs: f64,
    seed: u64,
    tag: u64,
) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    let mut prev = start;
    let mut k = 0u64;
    while (Instant::now() - start).as_secs_f64() < secs {
        let t0 = Instant::now();
        p.late_us.push((t0 - prev).as_secs_f64() * 1e6);
        let acc = evaluate(w, runner, trials, seed_split(seed, EVAL_STREAM ^ tag, k));
        prev = Instant::now();
        let ok = (0.0..=1.0).contains(&acc);
        p.record(
            (t0 - start).as_nanos() as u64,
            ok.then(|| (prev - t0).as_secs_f64() * 1e6),
        );
        k += 1;
    }
    p.elapsed_s = (Instant::now() - start).as_secs_f64();
    p
}

pub fn run(ctx: &mut Ctx) -> Result<(), Invalid> {
    let w = timed_setup(ctx, SETUP_REPS, start);
    let seed = ctx.seed;
    let serial = ParallelRunner::serial();
    let two = ParallelRunner::serial().with_threads(2);
    let test_len = w.split.test.len();
    ctx.meta(
        "load",
        format!(
            "{{\"dataset\": \"{}\", \"test_windows\": {test_len}, \"window\": {WINDOW}, \"hidden\": {}, \"request_trials\": {REQUEST_TRIALS}, \"batch_trials\": {BATCH_TRIALS}, \"strength\": {STRENGTH}, \"runner_threads\": 2, \"check_runner_threads\": [1, 2]}}",
            inputs::DATASET,
            inputs::HIDDEN
        ),
    );
    evaluate(&w, &two, REQUEST_TRIALS, seed);
    let trials_of =
        |p: &Phase, trials: usize| (p.attempted * trials as u64, p.failed * trials as u64);

    if ctx.trace {
        let untraced = phase(&w, &two, BATCH_TRIALS, ctx.budget(0.2), seed, 3);
        trace::set_enabled(true);
        let traced = phase(&w, &two, BATCH_TRIALS, ctx.budget(0.2), seed, 3);
        for p in [&untraced, &traced] {
            let (a, f) = trials_of(p, BATCH_TRIALS);
            ctx.ops(a, f);
        }
        ctx.report.set(
            "trace.overhead_pct",
            overhead_pct(untraced.summary().p50, traced.summary().p50),
        );
        let (late, late_n) = traced.lateness();
        ctx.report.set("gen.late_us.p99", late);
        ctx.report.set("gen.late_count", late_n as f64);
        check(ctx, &w, &serial, &two);
        probe::run(
            ctx,
            &probe::Shape {
                split: &w.split,
                cfg: inputs::wire_batch_config(),
                t: WINDOW,
                fill: 1,
            },
        );
        return Ok(());
    }

    // Each round: a block of small requests, then a throughput block of
    // large ones, both on the two-thread runner. A one-thread runner's
    // speed depends on which core the host gives it for the whole run, so
    // it only serves the determinism check.
    let (block, batch) = (ctx.budget(BLOCK_FRAC), ctx.budget(BATCH_FRAC));
    let trial_rates = measure_rounds(ctx, |ctx, round| {
        let tag = 10 + 2 * round;
        let low = phase(&w, &two, REQUEST_TRIALS, block, seed, tag);
        let (a, f) = trials_of(&low, REQUEST_TRIALS);
        ctx.ops(a, f);
        let high = phase(&w, &two, BATCH_TRIALS, batch, seed, tag + 1);
        let (trials, failed) = trials_of(&high, BATCH_TRIALS);
        ctx.ops(trials, failed);
        let rate = (trials - failed) as f64 / high.elapsed_s;
        Ok((low, high, rate))
    })?;
    let trials_per_s = rate_over_blocks(&trial_rates);
    ctx.report
        .set("timesteps_per_s", trials_per_s * (test_len * WINDOW) as f64);
    ctx.report.set("max_rate_rps", trials_per_s);
    check(ctx, &w, &serial, &two);
    Ok(())
}

/// Accuracy is identical at one and two runner threads, and within 1e-9
/// of the autograd reference on one trial.
fn check(ctx: &mut Ctx, w: &World, serial: &ParallelRunner, two: &ParallelRunner) {
    let eval_seed = seed_split(ctx.seed, EVAL_STREAM, u64::MAX);
    let one_thread = evaluate(w, serial, 4, eval_seed);
    let two_threads = evaluate(w, two, 4, eval_seed);
    ctx.check(
        "mc_accuracy_identical_at_1_and_2_threads",
        one_thread.to_bits() == two_threads.to_bits(),
        format!("{one_thread} vs {two_threads}"),
    );
    let graph_free = evaluate(w, serial, 1, eval_seed);
    let perturbed = perturb_dataset(&w.split.test, STRENGTH, eval_seed);
    let (steps, labels) = dataset_to_steps(&perturbed);
    let reference = variation_trials_autograd(
        &w.model,
        &steps,
        &labels,
        &VariationConfig::paper_default(),
        1,
        eval_seed,
        serial,
    );
    ctx.check(
        "mc_accuracy_matches_autograd",
        (graph_free - reference).abs() <= 1e-9,
        format!("graph-free {graph_free} vs autograd {reference}"),
    );
}
