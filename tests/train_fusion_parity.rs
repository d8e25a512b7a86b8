//! The fused-training contract: the whole-sequence scan kernels
//! (`matmul_scan`, `bias_div_scan`, `filter_scan`, `filter_scan_last`,
//! `ptanh_scan`) behind `PrintedModel::forward` must be interchangeable with
//! the per-step reference tape (`PrintedModel::forward_per_step`) — same
//! logits, same gradients — across filter orders, batch shapes and
//! variation noise. Forward values and parameter gradients are required to
//! be **bit-identical**; finite differences independently validate the
//! hand-derived BPTT rules.

use adapt_pnc::prelude::*;
use ptnc_tensor::{gradcheck, init, Tensor};

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

/// The fused tape and the per-step oracle agree bitwise — orders 1–3, batched and
/// single-sequence, nominal and under variation noise.
#[test]
fn fused_gradients_bit_identical_to_unfused() {
    for (oi, order) in ORDERS.into_iter().enumerate() {
        for batch in [1usize, 3] {
            let m = model(order, 10 + oi as u64);
            let steps = wave_steps(9, batch, 2);
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
