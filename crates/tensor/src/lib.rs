//! Dense tensors with reverse-mode automatic differentiation.
//!
//! `ptnc-tensor` is the numerical substrate of the ADAPT-pNC reproduction. It
//! provides exactly the machinery the printed-neuromorphic training stack needs:
//!
//! * an n-dimensional, row-major, `f64` [`Tensor`] type,
//! * a dynamically built computation graph with reverse-mode differentiation
//!   ([`Tensor::backward`]),
//! * broadcasting elementwise arithmetic, matrix multiplication, reductions,
//!   the nonlinearities used by printed circuits (`tanh`, `abs`, `exp`, `ln`),
//!   and a numerically stable fused [`Tensor::log_softmax`],
//! * numerical gradient checking ([`gradcheck`]) used extensively by the test
//!   suite,
//! * a buffer [`pool`] that recycles tape allocations across the repeated
//!   forward/backward passes of Monte-Carlo training.
//!
//! The design mirrors a miniature PyTorch: leaf tensors created with
//! [`Tensor::leaf`] (or [`Tensor::from_vec`] + [`Tensor::requires_grad`])
//! accumulate gradients, and every op records a closure that propagates the
//! adjoint to its parents.
//!
//! # Example
//!
//! ```
//! use ptnc_tensor::Tensor;
//!
//! // y = sum(tanh(W x)) ; dy/dW via reverse mode.
//! let w = Tensor::from_vec(&[2, 2], vec![0.5, -0.3, 0.1, 0.8]).requires_grad();
//! let x = Tensor::from_vec(&[2, 1], vec![1.0, -1.0]);
//! let y = w.matmul(&x).tanh().sum_all();
//! y.backward();
//! assert_eq!(w.grad().len(), 4);
//! ```

mod graph;
mod ops;
mod shape;
mod tensor;

pub mod gradcheck;
pub mod init;
pub mod pool;

pub use graph::{is_grad_enabled, no_grad, NoGradGuard};
pub use ops::scan::PtpbValues;
pub use shape::{broadcast_shapes, Shape};
pub use tensor::Tensor;

/// Crate-wide scalar type. Printed-circuit training uses `f64` so that the
/// SPICE-calibrated constants, the Monte-Carlo variation sampling and the
/// numerical gradient checks all share one precision.
pub type Scalar = f64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_smoke() {
        let a = Tensor::from_vec(&[2], vec![1.0, 2.0]).requires_grad();
        let b = a.mul(&a).sum_all();
        b.backward();
        assert_eq!(a.grad(), vec![2.0, 4.0]);
    }
}
