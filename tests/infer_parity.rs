//! Parity between the design-time autograd forward pass and the compiled
//! graph-free inference runtime (`ptnc-infer`): logits must agree within
//! 1e-9 for every filter order, batched and streaming, at nominal
//! conditions and under seeded variation samples.

use adapt_pnc::infer::{InferModel, VariationSample};
use adapt_pnc::prelude::*;
use adapt_pnc::serve;
use ptnc_tensor::{init, Tensor};

const ORDERS: [FilterOrder; 3] = [FilterOrder::First, FilterOrder::Second, FilterOrder::Third];
const PARITY: f64 = 1e-9;

fn model_with_order(order: FilterOrder, seed: u64) -> PrintedModel {
    PrintedModel::new(2, 5, 3, order, &Pdk::paper_default(), &mut init::rng(seed))
}

/// A deterministic time-varying sequence of `[batch, dim]` steps.
fn seeded_steps(t: usize, batch: usize, dim: usize) -> Vec<Tensor> {
    (0..t)
        .map(|k| {
            let data: Vec<f64> = (0..batch * dim)
                .map(|i| ((k * batch * dim + i) as f64 * 0.37).sin())
                .collect();
            Tensor::from_vec(&[batch, dim], data)
        })
        .collect()
}

fn assert_close(autograd: &[f64], graphfree: &[f64], what: &str) {
    assert_eq!(autograd.len(), graphfree.len(), "{what}: length mismatch");
    for (i, (a, g)) in autograd.iter().zip(graphfree).enumerate() {
        assert!(
            (a - g).abs() < PARITY,
            "{what}: logit {i} diverged: autograd {a} vs graph-free {g}"
        );
    }
}

/// Streams `steps` (each `[batch, dim]`) through a fresh scratch one
/// timestep per call and returns the logits after the last step.
fn stream_one_step_at_a_time(engine: &InferModel, steps: &[Tensor]) -> Vec<f64> {
    let batch = steps[0].dims()[0];
    let mut scratch = engine.make_scratch(batch).unwrap();
    let mut last = vec![0.0; batch * engine.spec().classes];
    for s in steps {
        engine
            .run_chunk_into(&s.to_vec(), batch, &mut scratch, &mut last)
            .unwrap();
    }
    last
}

#[test]
fn batched_parity_all_orders() {
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 20 + k as u64);
        let steps = seeded_steps(14, 4, 2);
        let engine = serve::ServeModel::from_live(&model).unwrap().into_engine();
        let expected = model.forward_nominal(&steps).to_vec();
        let flat = serve::ServeModel::flatten_steps(&steps).unwrap();
        let got = engine.run_batch(&flat, 4).unwrap();
        assert_close(&expected, &got, &format!("{order:?} batched"));
    }
}

#[test]
fn streaming_parity_all_orders() {
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 30 + k as u64);
        let steps = seeded_steps(11, 3, 2);
        let engine = serve::ServeModel::from_live(&model).unwrap().into_engine();
        let expected = model.forward_nominal(&steps).to_vec();
        let last = stream_one_step_at_a_time(&engine, &steps);
        assert_close(&expected, &last, &format!("{order:?} streaming"));
    }
}

#[test]
fn streaming_equals_batched_exactly() {
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 40 + k as u64);
        let steps = seeded_steps(9, 2, 2);
        let engine = serve::ServeModel::from_live(&model).unwrap().into_engine();
        let flat = serve::ServeModel::flatten_steps(&steps).unwrap();
        let batched = engine.run_batch(&flat, 2).unwrap();
        let last = stream_one_step_at_a_time(&engine, &steps);
        // Same recurrence, same arithmetic: bitwise equality, not just 1e-9.
        assert_eq!(batched, last, "{order:?}: stream must equal batch bitwise");
    }
}

#[test]
fn perturbed_parity_all_orders() {
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 50 + k as u64);
        let steps = seeded_steps(12, 3, 2);
        let engine = serve::ServeModel::from_live(&model).unwrap().into_engine();
        let flat = serve::ServeModel::flatten_steps(&steps).unwrap();
        let dist = (&VariationConfig::paper_default()).into();
        for trial in 0..3u64 {
            // Identical RNG stream on both paths → identical noise draw.
            let mut rng_a = rng_for(77, streams::EVAL_TRIAL, trial);
            let noise = model.sample_noise(&VariationConfig::paper_default(), &mut rng_a);
            let mut rng_b = rng_for(77, streams::EVAL_TRIAL, trial);
            let sample = VariationSample::draw(engine.spec(), &dist, &mut rng_b);

            let expected = model.forward(&steps, Some(&noise)).to_vec();
            let got = engine
                .perturbed(&sample)
                .unwrap()
                .run_batch(&flat, 3)
                .unwrap();
            assert_close(
                &expected,
                &got,
                &format!("{order:?} perturbed trial {trial}"),
            );
        }
    }
}

#[test]
fn compiled_snapshot_serves_identically() {
    let model = model_with_order(FilterOrder::Second, 60);
    let steps = seeded_steps(10, 2, 2);
    let flat = serve::ServeModel::flatten_steps(&steps).unwrap();
    let live = serve::ServeModel::from_live(&model).unwrap().into_engine();
    let json = adapt_pnc::persist::to_json(&model);
    let loaded = serve::ServeModel::from_json(&json).unwrap().into_engine();
    assert_eq!(
        live.run_batch(&flat, 2).unwrap(),
        loaded.run_batch(&flat, 2).unwrap(),
        "snapshot round trip must not change served logits"
    );
}

#[test]
fn graphfree_evaluation_invariant_across_thread_counts() {
    let model = model_with_order(FilterOrder::Second, 70);
    let raw = benchmark_by_name("CBF", 0).unwrap();
    let ds = Preprocess::paper_default()
        .apply(&raw)
        .shuffle_split(0.6, 0.2, 0)
        .test;
    let cond = EvalCondition::Variation {
        config: VariationConfig::paper_default(),
        trials: 6,
    };
    let serial = evaluate_with_runner(&model, &ds, &cond, 13, &ParallelRunner::serial());
    for threads in [2, 4] {
        let runner = ParallelRunner::serial().with_threads(threads);
        let parallel = evaluate_with_runner(&model, &ds, &cond, 13, &runner);
        assert_eq!(
            serial, parallel,
            "graph-free MC evaluation must be bit-identical at {threads} threads"
        );
    }
}
