//! The fused-training contract: the one-node-per-layer scan kernel
//! (`Tensor::ptpb_scan`) behind `PrintedModel::forward` must be
//! interchangeable with the per-step reference tape
//! (`PrintedModel::forward_per_step`) — same logits, same gradients —
//! across filter orders, batch shapes, sequence lengths, variation noise
//! and awkward inputs (exact and negative zeros, NaN). Forward values and
//! parameter gradients are required to be **bit-identical**; finite
//! differences independently validate the hand-derived BPTT rules.

use adapt_pnc::prelude::*;
use ptnc_tensor::{gradcheck, init, PtpbValues, Tensor};

fn wave_steps(t: usize, batch: usize, dim: usize) -> Vec<Tensor> {
    (0..t)
        .map(|k| {
            let data: Vec<f64> = (0..batch * dim)
                .map(|i| (0.31 * (k * batch * dim + i) as f64).sin() * 0.8)
                .collect();
            Tensor::from_vec(&[batch, dim], data)
        })
        .collect()
}

fn model(order: FilterOrder, seed: u64) -> PrintedModel {
    let mut rng = init::rng(seed);
    PrintedModel::new(2, 4, 3, order, &Pdk::paper_default(), &mut rng)
}

const ORDERS: [FilterOrder; 3] = [FilterOrder::First, FilterOrder::Second, FilterOrder::Third];

/// The fused tape and the per-step oracle agree bitwise — orders 1–3, lane
/// counts that do and do not fill a vector register (1, 3, 33), sequences
/// of 1, 9 and 64 steps, nominal and under variation noise.
#[test]
fn fused_gradients_bit_identical_to_unfused() {
    for (oi, order) in ORDERS.into_iter().enumerate() {
        for batch in [1usize, 3, 33] {
            for t in [1usize, 9, 64] {
                let m = model(order, 10 + oi as u64);
                let steps = wave_steps(t, batch, 2);
                let mut rng = init::rng(99 + oi as u64);
                let noise = m.sample_noise(&VariationConfig::paper_default(), &mut rng);
                for n in [None, Some(&noise)] {
                    let params = m.parameters();
                    // tol 0.0 ⇒ loss values and every gradient element must be
                    // bitwise equal between the two tapes.
                    gradcheck::compare(
                        || m.forward(&steps, n).square().sum_all(),
                        || m.forward_per_step(&steps, n).square().sum_all(),
                        &params,
                        &params,
                        0.0,
                    );
                }
            }
        }
    }
}

/// The fused tape's analytic gradients agree with central finite differences
/// through the full model (crossbar → SO-LF scan → ptanh → logits).
#[test]
fn fused_gradients_match_finite_differences() {
    for (oi, order) in ORDERS.into_iter().enumerate() {
        let m = model(order, 20 + oi as u64);
        let steps = wave_steps(6, 2, 2);
        gradcheck::check(
            || m.forward(&steps, None).square().sum_all(),
            &m.parameters(),
            1e-6,
        );
    }
}

/// Finite differences also hold under a variation sample (noise multiplies
/// into every effective component, changing the gradient path).
#[test]
fn fused_gradients_match_finite_differences_under_noise() {
    let m = model(FilterOrder::Second, 31);
    let steps = wave_steps(5, 1, 2);
    let mut rng = init::rng(32);
    let noise = m.sample_noise(&VariationConfig::paper_default(), &mut rng);
    gradcheck::check(
        || m.forward(&steps, Some(&noise)).square().sum_all(),
        &m.parameters(),
        1e-6,
    );
}

/// Forward logits are bit-identical between the two tapes for every order, with
/// and without noise — the value-side half of the contract.
#[test]
fn fused_forward_bit_identical() {
    for (oi, order) in ORDERS.into_iter().enumerate() {
        let m = model(order, 40 + oi as u64);
        let steps = wave_steps(12, 2, 2);
        let mut rng = init::rng(50 + oi as u64);
        let noise = m.sample_noise(&VariationConfig::paper_default(), &mut rng);
        for n in [None, Some(&noise)] {
            let a = m.forward_per_step(&steps, n);
            let b = m.forward(&steps, n);
            assert_eq!(a.to_vec(), b.to_vec(), "{order:?}: logits diverged");
        }
    }
}

/// A single time step is the degenerate case where both tapes coincide
/// structurally; it must still round-trip through the scan kernels.
#[test]
fn single_step_sequences_agree() {
    let m = model(FilterOrder::Second, 60);
    let steps = wave_steps(1, 4, 2);
    let a = m.forward_per_step(&steps, None);
    let b = m.forward(&steps, None);
    assert_eq!(a.to_vec(), b.to_vec());
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Logits and every parameter gradient of one tape, as bit patterns (so
/// NaNs compare too).
fn run_tape(m: &PrintedModel, forward: impl Fn() -> Tensor) -> (Vec<u64>, Vec<Vec<u64>>) {
    for p in m.parameters() {
        p.zero_grad();
    }
    let logits = forward();
    logits.square().sum_all().backward();
    let grads = m
        .parameters()
        .iter()
        .map(|p| bits(&p.grad_opt().expect("every parameter is reached")))
        .collect();
    (bits(&logits.to_vec()), grads)
}

fn assert_tapes_agree(m: &PrintedModel, steps: &[Tensor], noise: Option<&ModelNoise>, what: &str) {
    let fused = run_tape(m, || m.forward(steps, noise));
    let oracle = run_tape(m, || m.forward_per_step(steps, noise));
    assert_eq!(fused.0, oracle.0, "{what}: logits diverged");
    for (i, (f, o)) in fused.1.iter().zip(&oracle.1).enumerate() {
        assert_eq!(f, o, "{what}: parameter {i} gradient diverged");
    }
}

/// Exact zeros take `mat_mul_raw`'s skip path (no `0·w` term is added),
/// and negative zeros must sum like the per-step chain's, including a
/// whole step of zeros.
#[test]
fn zero_and_negative_zero_inputs_match_oracle() {
    let steps: Vec<Tensor> = wave_steps(10, 3, 2)
        .into_iter()
        .enumerate()
        .map(|(k, t)| {
            let data = t
                .to_vec()
                .into_iter()
                .enumerate()
                .map(|(i, v)| match (k, i % 3) {
                    (4, _) => 0.0,
                    (_, 0) => 0.0,
                    (_, 1) if k % 2 == 0 => -0.0,
                    _ => v,
                })
                .collect();
            Tensor::from_vec(&[3, 2], data)
        })
        .collect();
    for (oi, order) in ORDERS.into_iter().enumerate() {
        let m = model(order, 90 + oi as u64);
        let mut rng = init::rng(95 + oi as u64);
        let noise = m.sample_noise(&VariationConfig::paper_default(), &mut rng);
        for n in [None, Some(&noise)] {
            assert_tapes_agree(&m, &steps, n, &format!("{order:?} zeros"));
        }
    }
}

/// A NaN in one input sample lands in the same logits and gradient
/// elements as on the per-step tape, and every other element keeps its
/// bits. A NaN's sign bit is not part of the contract: the θ_b gradient's
/// NaN is positive on the fused tape and negative on the per-step one.
#[test]
fn nan_input_lands_where_the_oracle_puts_it() {
    let mut steps = wave_steps(7, 3, 2);
    let mut poisoned = steps[3].to_vec();
    poisoned[2] = f64::NAN;
    steps[3] = Tensor::from_vec(&[3, 2], poisoned);
    let canonical = |v: &[u64]| -> Vec<u64> {
        v.iter()
            .map(|&b| {
                if f64::from_bits(b).is_nan() {
                    u64::MAX
                } else {
                    b
                }
            })
            .collect()
    };
    for (oi, order) in ORDERS.into_iter().enumerate() {
        let m = model(order, 100 + oi as u64);
        let fused = run_tape(&m, || m.forward(&steps, None));
        let oracle = run_tape(&m, || m.forward_per_step(&steps, None));
        assert!(
            fused.0.iter().any(|&b| f64::from_bits(b).is_nan()),
            "the NaN must reach the logits"
        );
        assert_eq!(
            canonical(&fused.0),
            canonical(&oracle.0),
            "{order:?}: logits"
        );
        for (i, (f, o)) in fused.1.iter().zip(&oracle.1).enumerate() {
            assert_eq!(
                canonical(f),
                canonical(o),
                "{order:?}: parameter {i} gradient"
            );
        }
    }
}

/// The per-step chain of one printed layer from public per-step ops, as
/// `Ptpb::forward_sequence` records it.
fn per_step_layer(x: &[Tensor], layer: &PtpbValues<'_>) -> Vec<Tensor> {
    let (batch, width) = (x[0].dims()[0], layer.tw.dims()[1]);
    let mut states: Vec<Tensor> = layer
        .v0
        .iter()
        .map(|v| Tensor::zeros(&[batch, width]).add(v))
        .collect();
    let mut out = Vec::with_capacity(x.len());
    for xt in x {
        let mut inp = Tensor::bias_div(&xt.matmul(layer.tw), layer.tb, layer.g);
        for (s, state) in states.iter_mut().enumerate() {
            *state = Tensor::filter_step(state, &layer.a[s], &inp, &layer.b[s]);
            inp = state.clone();
        }
        out.push(match layer.eta {
            Some(e) => Tensor::ptanh(&inp, &e[0], &e[1], &e[2], &e[3]),
            None => inp,
        });
    }
    out
}

fn row(cols: usize, lo: f64, hi: f64, phase: f64) -> Vec<f64> {
    (0..cols)
        .map(|j| lo + (hi - lo) * (0.5 + 0.5 * (1.7 * j as f64 + phase).sin()))
        .collect()
}

/// The refit shape: crossbar values that do not require gradients (frozen
/// conductances) in front of trainable filters and activations, for a
/// hidden layer whose input is trainable and for a read-out layer. The
/// fused node deposits nothing into the frozen tensors and bit-identical
/// totals everywhere else.
#[test]
fn frozen_crossbar_layer_matches_per_step_chain() {
    let (steps, batch, k, m) = (9, 3, 2, 4);
    let chunk = batch * k;
    let stacked: Vec<f64> = (0..steps * chunk)
        .map(|i| (0.37 * i as f64).sin())
        .collect();
    let tw = Tensor::from_vec(&[k, m], row(k * m, -0.9, 0.9, 0.3));
    let tb = Tensor::from_vec(&[m], row(m, -0.4, 0.4, 0.0));
    let g = Tensor::from_vec(&[m], row(m, 2.0, 3.0, 1.1));
    for stages in 1..=3 {
        for hidden in [true, false] {
            let leaves = |lo: f64, hi: f64, phase: f64| -> Vec<Tensor> {
                (0..stages)
                    .map(|s| Tensor::leaf(&[m], row(m, lo, hi, phase + s as f64)))
                    .collect()
            };
            let eta_leaves = || -> Vec<Tensor> {
                [(-0.1, 0.1), (0.5, 0.9), (-0.2, 0.2), (1.0, 3.0)]
                    .iter()
                    .enumerate()
                    .map(|(i, &(lo, hi))| Tensor::leaf(&[m], row(m, lo, hi, 0.2 * i as f64)))
                    .collect()
            };
            let v0: Vec<Tensor> = (0..stages)
                .map(|s| Tensor::from_vec(&[m], row(m, -0.2, 0.2, 4.0 + s as f64)))
                .collect();
            let (a, b, eta) = (leaves(0.3, 0.9, 0.0), leaves(0.1, 0.7, 2.0), eta_leaves());
            let (a2, b2, eta2) = (leaves(0.3, 0.9, 0.0), leaves(0.1, 0.7, 2.0), eta_leaves());
            let x = Tensor::leaf(&[steps * batch, k], stacked.clone());
            let fused_vals = PtpbValues {
                tw: &tw,
                tb: &tb,
                g: &g,
                a: &a,
                b: &b,
                v0: &v0,
                eta: hidden.then_some(&eta[..]),
            };
            let fused = Tensor::ptpb_scan(&x, fused_vals, steps);
            fused.square().sum_all().backward();

            let x_steps: Vec<Tensor> = stacked
                .chunks(chunk)
                .map(|c| Tensor::leaf(&[batch, k], c.to_vec()))
                .collect();
            let chain_vals = PtpbValues {
                a: &a2,
                b: &b2,
                eta: hidden.then_some(&eta2[..]),
                ..fused_vals
            };
            let chain = per_step_layer(&x_steps, &chain_vals);
            let (chain_out, loss) = if hidden {
                // Summed so the per-step closures run latest step first,
                // as in the training graph.
                let mut loss = chain[0].square().sum_all();
                for t in &chain[1..] {
                    loss = loss.add(&t.square().sum_all());
                }
                let flat: Vec<f64> = chain.iter().flat_map(|t| t.to_vec()).collect();
                (flat, loss)
            } else {
                let last = chain.last().unwrap();
                (last.to_vec(), last.square().sum_all())
            };
            loss.backward();

            let what = format!("stages {stages}, hidden {hidden}");
            assert_eq!(bits(&fused.to_vec()), bits(&chain_out), "{what}: forward");
            for (p, q) in a.iter().chain(&b).zip(a2.iter().chain(&b2)) {
                assert_eq!(bits(&p.grad()), bits(&q.grad()), "{what}: a/b gradient");
            }
            if hidden {
                for (p, q) in eta.iter().zip(&eta2) {
                    assert_eq!(bits(&p.grad()), bits(&q.grad()), "{what}: eta gradient");
                }
            }
            let gx = x.grad();
            for (t, xt) in x_steps.iter().enumerate() {
                assert_eq!(
                    bits(&gx[t * chunk..(t + 1) * chunk]),
                    bits(&xt.grad()),
                    "{what}: input gradient at step {t}"
                );
            }
            for frozen in [&tw, &tb, &g] {
                assert!(
                    frozen.grad_opt().is_none(),
                    "{what}: frozen tensor got a gradient"
                );
            }
        }
    }
}
