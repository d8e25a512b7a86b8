//! Numerical gradient checking via central differences.
//!
//! Used by the test suites of every downstream crate to validate that the
//! analytic printed-circuit gradients (crossbar normalization, ptanh,
//! SO-LF recurrences) match finite differences.

use crate::tensor::Tensor;
use crate::Scalar;

/// Verifies that reverse-mode gradients of a scalar-valued function match
/// central finite differences for every listed parameter.
///
/// `f` must rebuild the computation graph from the current parameter data on
/// each call (the parameters are mutated in place while probing).
///
/// # Panics
///
/// Panics (with a diagnostic message) if any element's analytic and numeric
/// gradients disagree beyond `tol` in the normalized metric
/// `|a − n| / max(1, |a|, |n|)`.
///
/// # Example
///
/// ```
/// use ptnc_tensor::{gradcheck, Tensor};
/// let x = Tensor::leaf(&[2], vec![0.5, -0.3]);
/// gradcheck::check(|| x.tanh().sum_all(), &[x.clone()], 1e-6);
/// ```
pub fn check(f: impl Fn() -> Tensor, params: &[Tensor], tol: Scalar) {
    let eps: Scalar = 1e-5;

    // Analytic gradients.
    for p in params {
        p.zero_grad();
    }
    let loss = f();
    assert_eq!(loss.len(), 1, "gradcheck target must be scalar");
    loss.backward();
    let analytic: Vec<Vec<Scalar>> = params
        .iter()
        .map(|p| p.grad_opt().unwrap_or_else(|| vec![0.0; p.len()]))
        .collect();

    // Numeric gradients by central differences.
    for (pi, p) in params.iter().enumerate() {
        let original = p.to_vec();
        for i in 0..p.len() {
            let mut plus = original.clone();
            plus[i] += eps;
            p.set_data(plus);
            let f_plus = f().item();

            let mut minus = original.clone();
            minus[i] -= eps;
            p.set_data(minus);
            let f_minus = f().item();

            p.set_data(original.clone());
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let a = analytic[pi][i];
            let denom = a.abs().max(numeric.abs()).max(1.0);
            let err = (a - numeric).abs() / denom;
            assert!(
                err <= tol,
                "gradient mismatch: param {pi} element {i}: analytic={a}, numeric={numeric}, err={err}"
            );
        }
    }
}

/// Verifies that two computation-graph variants of the same scalar loss
/// (e.g. fused scan kernels vs the per-step node chain) produce matching
/// analytic gradients on paired parameter lists.
///
/// Both closures are rebuilt and back-propagated from scratch; gradients are
/// compared element-wise in the normalized metric `|a − b| / max(1, |a|,
/// |b|)`. Use `tol = 0.0` to demand bitwise identity.
///
/// # Panics
///
/// Panics if the losses' values differ, the parameter lists are not paired
/// shape-for-shape, or any gradient element disagrees beyond `tol`.
pub fn compare(
    f: impl Fn() -> Tensor,
    g: impl Fn() -> Tensor,
    params_f: &[Tensor],
    params_g: &[Tensor],
    tol: Scalar,
) {
    assert_eq!(
        params_f.len(),
        params_g.len(),
        "parameter lists must be paired"
    );
    let clear = || {
        for p in params_f.iter().chain(params_g) {
            p.zero_grad();
        }
    };
    clear();
    let (lf, lg) = (f(), g());
    assert_eq!(lf.len(), 1, "compare target must be scalar");
    assert_eq!(lg.len(), 1, "compare target must be scalar");
    assert_eq!(lf.item(), lg.item(), "loss values differ between variants");
    // One variant at a time: the lists may share tensors (one model, two
    // tapes), which would otherwise accumulate both passes into one sum.
    lf.backward();
    let grads_f: Vec<Vec<Scalar>> = params_f.iter().map(Tensor::grad).collect();
    clear();
    lg.backward();
    for (pi, (ga, pg)) in grads_f.iter().zip(params_g).enumerate() {
        assert_eq!(ga.len(), pg.len(), "param {pi} length mismatch");
        let gb = pg.grad();
        for i in 0..ga.len() {
            let (a, b) = (ga[i], gb[i]);
            let denom = a.abs().max(b.abs()).max(1.0);
            let err = (a - b).abs() / denom;
            assert!(
                err <= tol,
                "gradient divergence: param {pi} element {i}: {a} vs {b}, err={err}"
            );
        }
    }
}

/// Convenience wrapper checking a single unary op at the given probe points.
///
/// # Panics
///
/// Panics if the gradients disagree beyond `tol` (see [`check`]).
pub fn check_unary(op: impl Fn(&Tensor) -> Tensor, points: &[Scalar], tol: Scalar) {
    let x = Tensor::leaf(&[points.len()], points.to_vec());
    // Weight each output differently so per-element errors cannot cancel.
    let w: Vec<Scalar> = (0..points.len())
        .map(|i| 0.5 + 0.37 * i as Scalar)
        .collect();
    let w = Tensor::from_vec(&[points.len()], w);
    check(|| op(&x).mul(&w).sum_all(), std::slice::from_ref(&x), tol);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_for_correct_gradient() {
        let x = Tensor::leaf(&[3], vec![0.2, -0.8, 1.1]);
        check(|| x.square().sum_all(), std::slice::from_ref(&x), 1e-7);
    }

    #[test]
    fn multi_parameter() {
        let a = Tensor::leaf(&[2], vec![0.4, 0.6]);
        let b = Tensor::leaf(&[2], vec![-0.3, 0.9]);
        check(|| a.mul(&b).tanh().sum_all(), &[a.clone(), b.clone()], 1e-6);
    }

    #[test]
    #[should_panic(expected = "gradient mismatch")]
    fn catches_wrong_gradient() {
        // detach() deliberately severs the graph: analytic grad is zero while
        // numeric is not.
        let x = Tensor::leaf(&[1], vec![0.7]);
        check(
            || x.detach().square().sum_all(),
            std::slice::from_ref(&x),
            1e-6,
        );
    }
}
