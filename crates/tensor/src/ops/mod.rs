//! Differentiable tensor operations.
//!
//! Every op returns a fresh [`Tensor`](crate::Tensor) and, when any input is
//! differentiable, records a backward closure that propagates adjoints to the
//! inputs. Ops are grouped by family:
//!
//! * [`elementwise`] — broadcasting arithmetic (`add`, `sub`, `mul`, `div`)
//!   and scalar variants,
//! * [`unary`] — pointwise nonlinearities (`tanh`, `abs`, `exp`, …),
//! * [`matmul`] — 2-D matrix product,
//! * [`reduce`] — sums and means (full and per-axis),
//! * [`softmax`] — numerically stable fused `log_softmax`,
//! * [`shape_ops`] — reshape/transpose/select/concat/stack,
//! * [`fused`] — single-node kernels for the printed-circuit hot paths
//!   (`filter_step`, `ptanh`, `bias_div`),
//! * [`scan`] — the whole-sequence BPTT kernel `ptpb_scan`, which records a
//!   printed layer's entire T-step crossbar → SO-LF → ptanh recurrence as
//!   one node with an analytic, bit-parity backward rule.

pub(crate) mod elementwise;
pub(crate) mod extrema;
pub(crate) mod fused;
pub(crate) mod matmul;
pub(crate) mod reduce;
pub(crate) mod scan;
pub(crate) mod shape_ops;
pub(crate) mod softmax;
pub(crate) mod unary;

use crate::graph::BackwardFn;
use crate::tensor::Tensor;
use crate::{Scalar, Shape};

/// Builds an op output node: `requires_grad` is inherited from the parents and
/// the backward rule is only recorded when gradients can actually flow.
pub(crate) fn make_node(
    shape: Shape,
    data: Vec<Scalar>,
    parents: Vec<Tensor>,
    backward: impl Fn(&[Scalar], &[Scalar]) + 'static,
) -> Tensor {
    let requires_grad =
        crate::graph::is_grad_enabled() && parents.iter().any(|p| p.inner.requires_grad);
    if requires_grad {
        let parents_for_sort = parents.clone();
        let bw: BackwardFn = Box::new(backward);
        Tensor::raw(shape, data, true, parents_for_sort, Some(bw))
    } else {
        Tensor::raw(shape, data, false, Vec::new(), None)
    }
}
