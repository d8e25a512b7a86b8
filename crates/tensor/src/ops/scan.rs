//! Whole-sequence fused kernels ("scan ops") for BPTT training.
//!
//! The per-step training graph records one node per time step per primitive:
//! T crossbar matmuls, T bias-divs, T·S SO-LF filter steps and T ptanh nodes
//! per layer per Monte-Carlo sample. These ops record the same T-step
//! computation as a **single graph node each**, with hand-derived analytic
//! BPTT rules, collapsing O(T) tape nodes into O(1) and reusing the stacked
//! kernel structure proven in the graph-free `ptnc-infer` runtime.
//!
//! All ops take rank-2 stacked input `[steps·batch, cols]` in time-major
//! layout (chunk `t` is rows `t·batch .. (t+1)·batch`) plus the step count.
//!
//! # Bit-exact parity with the per-step graph
//!
//! Each op is engineered so that both forward values and accumulated
//! parameter gradients are **bit-identical** to the equivalent chain of
//! per-step nodes (`matmul`, `bias_div`, `filter_step`, `ptanh`):
//!
//! * forward loops evaluate the exact per-element expressions of the
//!   per-step kernels, and
//! * backward rules fold per-time-step partial gradients into the running
//!   total in *reverse* time order, with a copy (not an add onto zeros) for
//!   the first chunk — precisely the order and first-contribution semantics
//!   with which a reverse-topological traversal of the per-step graph calls
//!   `accumulate_grad`.
//!
//! The bitwise fused-vs-per-step parity suite relies on this contract.

use std::cell::Ref;

use crate::ops::make_node;
use crate::ops::matmul::mat_mul_raw;
use crate::pool::{self, PoolBuf};
use crate::tensor::Tensor;
use crate::{Scalar, Shape};

/// Validates a stacked `[steps·batch, cols]` input; returns (rows, cols,
/// batch).
fn stacked_dims(x: &Tensor, steps: usize) -> (usize, usize, usize) {
    assert_eq!(
        x.dims().len(),
        2,
        "scan input must be rank-2 [steps*batch, cols], got {:?}",
        x.dims()
    );
    assert!(steps > 0, "scan needs at least one time step");
    let (rows, cols) = (x.dims()[0], x.dims()[1]);
    assert_eq!(
        rows % steps,
        0,
        "stacked rows {rows} not divisible by steps {steps}"
    );
    (rows, cols, rows / steps)
}

/// Folds a per-time-step partial gradient into the running total with the
/// same semantics as `accumulate_grad`: the first (latest-time) contribution
/// is a copy, later ones add.
#[inline]
fn fold_first_copy(total: &mut [Scalar], partial: &[Scalar], first: bool) {
    if first {
        total.copy_from_slice(partial);
    } else {
        for (o, &p) in total.iter_mut().zip(partial) {
            *o += p;
        }
    }
}

/// Calls `f(i, j)` for `i` in `0..len` with `j` cycling through `0..cols` —
/// the column index `i % cols` without the per-element integer division
/// (which would otherwise dominate these row-vector-broadcast loops).
#[inline]
fn for_each_col(len: usize, cols: usize, mut f: impl FnMut(usize, usize)) {
    let mut j = 0;
    for i in 0..len {
        f(i, j);
        j += 1;
        if j == cols {
            j = 0;
        }
    }
}

impl Tensor {
    /// Stacked matrix product `[steps·batch, k] × [k, m] → [steps·batch, m]`
    /// — T per-step crossbar matmuls as one node. `dW` is folded per time
    /// chunk in reverse time order to match the per-step accumulation.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches or when rows are not divisible by
    /// `steps`.
    pub fn matmul_scan(x: &Tensor, w: &Tensor, steps: usize) -> Tensor {
        let (rows, k, batch) = stacked_dims(x, steps);
        assert_eq!(w.dims().len(), 2, "matmul_scan weights must be rank-2");
        let (k2, m) = (w.dims()[0], w.dims()[1]);
        assert_eq!(
            k, k2,
            "matmul_scan inner dimensions differ: [{rows}, {k}] × [{k2}, {m}]"
        );

        let out = mat_mul_raw(&x.data(), &w.data(), rows, k, m, false, false);
        let (px, pw) = (x.clone(), w.clone());
        make_node(
            Shape::new(&[rows, m]),
            out,
            vec![x.clone(), w.clone()],
            move |g, _| {
                // dX rows are independent, so one big [rows,m]×[m,k] product
                // is bitwise equal to the per-chunk products.
                if px.inner.requires_grad {
                    let gx = mat_mul_raw(g, &pw.data(), rows, m, k, false, true);
                    px.accumulate_grad_owned(gx);
                }
                // dW accumulates across time: fold per-chunk [k,m] partials
                // latest-first, exactly like the per-step nodes would.
                if pw.inner.requires_grad {
                    let xd = px.data();
                    let mut total = pool::take_uninit(k * m);
                    for t in (0..steps).rev() {
                        let partial = mat_mul_raw(
                            &xd[t * batch * k..(t + 1) * batch * k],
                            &g[t * batch * m..(t + 1) * batch * m],
                            k,
                            batch,
                            m,
                            true,
                            false,
                        );
                        fold_first_copy(&mut total, &partial, t + 1 == steps);
                        pool::recycle(partial);
                    }
                    drop(xd);
                    pw.accumulate_grad_owned(total);
                }
            },
        )
    }

    /// Stacked crossbar normalization `(x + b) / g` over `[steps·batch,
    /// cols]` — T per-step [`Tensor::bias_div`] nodes as one. `db`/`dg` fold
    /// per time chunk in reverse time order.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn bias_div_scan(x: &Tensor, b: &Tensor, g: &Tensor, steps: usize) -> Tensor {
        let (rows, cols, batch) = stacked_dims(x, steps);
        assert_eq!(b.dims(), &[cols], "bias must be a [{cols}] row vector");
        assert_eq!(g.dims(), &[cols], "divisor must be a [{cols}] row vector");
        let chunk = batch * cols;
        let n = rows * cols;
        let out = {
            let xd = x.data();
            let bd = b.data();
            let gd = g.data();
            let mut out = pool::take_uninit(n);
            for_each_col(n, cols, |i, j| out[i] = (xd[i] + bd[j]) / gd[j]);
            out
        };
        let (px, pb, pg) = (x.clone(), b.clone(), g.clone());
        // Parent order [g, b, x]: same ordering contract as `bias_div`.
        make_node(
            Shape::new(&[rows, cols]),
            out,
            vec![g.clone(), b.clone(), x.clone()],
            move |grad, out_data| {
                let gd = pg.data();
                if px.inner.requires_grad {
                    let mut gx = pool::take_uninit(n);
                    for_each_col(n, cols, |i, j| gx[i] = grad[i] / gd[j]);
                    px.accumulate_grad_owned(gx);
                }
                if pb.inner.requires_grad {
                    let mut total = pool::take_uninit(cols);
                    let mut partial = pool::take_zeroed(cols);
                    for t in (0..steps).rev() {
                        partial.fill(0.0);
                        let base = t * chunk;
                        for_each_col(chunk, cols, |i, j| partial[j] += grad[base + i] / gd[j]);
                        fold_first_copy(&mut total, &partial, t + 1 == steps);
                    }
                    pool::recycle(partial);
                    pb.accumulate_grad_owned(total);
                }
                if pg.inner.requires_grad {
                    // d/dg [(x+b)/g] = −(x+b)/g² = −out/g
                    let mut total = pool::take_uninit(cols);
                    let mut partial = pool::take_zeroed(cols);
                    for t in (0..steps).rev() {
                        partial.fill(0.0);
                        let base = t * chunk;
                        for_each_col(chunk, cols, |i, j| {
                            partial[j] += -grad[base + i] * out_data[base + i] / gd[j];
                        });
                        fold_first_copy(&mut total, &partial, t + 1 == steps);
                    }
                    pool::recycle(partial);
                    pg.accumulate_grad_owned(total);
                }
            },
        )
    }

    /// Stacked printed-tanh `η₁ + η₂·tanh((x − η₃)·η₄)` over `[steps·batch,
    /// cols]` — T per-step [`Tensor::ptanh`] nodes as one. The η gradients
    /// fold per time chunk in reverse time order.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn ptanh_scan(
        x: &Tensor,
        eta1: &Tensor,
        eta2: &Tensor,
        eta3: &Tensor,
        eta4: &Tensor,
        steps: usize,
    ) -> Tensor {
        let (rows, cols, batch) = stacked_dims(x, steps);
        for (e, name) in [
            (eta1, "eta1"),
            (eta2, "eta2"),
            (eta3, "eta3"),
            (eta4, "eta4"),
        ] {
            assert_eq!(e.dims(), &[cols], "{name} must be a [{cols}] row vector");
        }
        let chunk = batch * cols;
        let n = rows * cols;
        // The tanh values are stashed for the backward pass: recomputing
        // them would dominate the whole backward (tanh is ~10x the cost of
        // the surrounding arithmetic), and the stashed value is bitwise
        // what a recomputation would produce.
        let (out, th_stash) = {
            let xd = x.data();
            let (e1, e2, e3, e4) = (eta1.data(), eta2.data(), eta3.data(), eta4.data());
            let mut ths = pool::take_uninit(n);
            let mut out = pool::take_uninit(n);
            for_each_col(n, cols, |i, j| {
                let th = ((xd[i] - e3[j]) * e4[j]).tanh();
                ths[i] = th;
                out[i] = e1[j] + e2[j] * th;
            });
            (out, PoolBuf::new(ths))
        };
        let (px, p1, p2, p3, p4) = (
            x.clone(),
            eta1.clone(),
            eta2.clone(),
            eta3.clone(),
            eta4.clone(),
        );
        make_node(
            Shape::new(&[rows, cols]),
            out,
            vec![
                x.clone(),
                eta1.clone(),
                eta2.clone(),
                eta3.clone(),
                eta4.clone(),
            ],
            move |g, _| {
                let xd = px.data();
                let (e2, e3, e4) = (p2.data(), p3.data(), p4.data());
                let need_gx = px.inner.requires_grad;
                let mut gx = if need_gx {
                    pool::take_uninit(n)
                } else {
                    Vec::new()
                };
                let mut t1 = pool::take_uninit(cols);
                let mut t2 = pool::take_uninit(cols);
                let mut t3 = pool::take_uninit(cols);
                let mut t4 = pool::take_uninit(cols);
                let mut p1b = pool::take_zeroed(cols);
                let mut p2b = pool::take_zeroed(cols);
                let mut p3b = pool::take_zeroed(cols);
                let mut p4b = pool::take_zeroed(cols);
                for t in (0..steps).rev() {
                    let first = t + 1 == steps;
                    p1b.fill(0.0);
                    p2b.fill(0.0);
                    p3b.fill(0.0);
                    p4b.fill(0.0);
                    let base = t * chunk;
                    for_each_col(chunk, cols, |o, j| {
                        let i = base + o;
                        let th = th_stash[i];
                        let sech2 = 1.0 - th * th;
                        if need_gx {
                            gx[i] = g[i] * e2[j] * sech2 * e4[j];
                        }
                        p1b[j] += g[i];
                        p2b[j] += g[i] * th;
                        p3b[j] += -g[i] * e2[j] * sech2 * e4[j];
                        p4b[j] += g[i] * e2[j] * sech2 * (xd[i] - e3[j]);
                    });
                    fold_first_copy(&mut t1, &p1b, first);
                    fold_first_copy(&mut t2, &p2b, first);
                    fold_first_copy(&mut t3, &p3b, first);
                    fold_first_copy(&mut t4, &p4b, first);
                }
                for buf in [p1b, p2b, p3b, p4b] {
                    pool::recycle(buf);
                }
                drop((xd, e2, e3, e4));
                if need_gx {
                    px.accumulate_grad_owned(gx);
                }
                for (p, total) in [(&p1, t1), (&p2, t2), (&p3, t3), (&p4, t4)] {
                    if p.inner.requires_grad {
                        p.accumulate_grad_owned(total);
                    } else {
                        pool::recycle(total);
                    }
                }
            },
        )
    }

    /// Whole-sequence SO-LF filter scan: runs `steps` time steps of the
    /// cascaded per-stage recurrence `V_s[t] = a_s⊙V_s[t−1] + b_s⊙V_{s−1}[t]`
    /// (stage 0 reads the stacked input `x`; states start at `0 + v0`) and
    /// returns the **last stage at every time step**, `[steps·batch, width]`.
    ///
    /// One node replaces `steps × stages` [`Tensor::filter_step`] nodes; its
    /// backward is the full analytic BPTT λ-recursion.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches or empty stage lists.
    pub fn filter_scan(
        x: &Tensor,
        a: &[Tensor],
        b: &[Tensor],
        v0: &[Tensor],
        steps: usize,
    ) -> Tensor {
        filter_scan_impl(x, a, b, v0, steps, false)
    }

    /// Like [`Tensor::filter_scan`] but returns only the final time step,
    /// `[batch, width]` — the classification read-out. Interior time steps of
    /// the last stage receive no adjoint (`λ = a⊙λ_next` exactly), matching
    /// the per-step graph where those nodes are dead.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches or empty stage lists.
    pub fn filter_scan_last(
        x: &Tensor,
        a: &[Tensor],
        b: &[Tensor],
        v0: &[Tensor],
        steps: usize,
    ) -> Tensor {
        filter_scan_impl(x, a, b, v0, steps, true)
    }
}

fn filter_scan_impl(
    x: &Tensor,
    a: &[Tensor],
    b: &[Tensor],
    v0: &[Tensor],
    steps: usize,
    last_only: bool,
) -> Tensor {
    let (rows, width, batch) = stacked_dims(x, steps);
    let stages = a.len();
    assert!(stages > 0, "filter scan needs at least one stage");
    assert_eq!(b.len(), stages, "a/b stage count mismatch");
    assert_eq!(v0.len(), stages, "a/v0 stage count mismatch");
    for (coeffs, name) in [(a, "a"), (b, "b"), (v0, "v0")] {
        for c in coeffs {
            assert_eq!(
                c.dims(),
                &[width],
                "coefficient {name} must be a [{width}] row vector, got {:?}",
                c.dims()
            );
        }
    }
    let chunk = batch * width;

    // Forward: hist[s][t·chunk + i] = V_s[t], written t-outer / s-inner so
    // every read (previous step of this stage, current step of the stage
    // below) is already in place — the same evaluation order and per-element
    // expression as the per-step `filter_step` chain.
    let mut hist: Vec<Vec<Scalar>> = (0..stages)
        .map(|_| pool::take_uninit(rows * width))
        .collect();
    {
        let xd = x.data();
        let a_d: Vec<Ref<'_, Vec<Scalar>>> = a.iter().map(|t| t.data()).collect();
        let b_d: Vec<Ref<'_, Vec<Scalar>>> = b.iter().map(|t| t.data()).collect();
        let v0_d: Vec<Ref<'_, Vec<Scalar>>> = v0.iter().map(|t| t.data()).collect();
        for t in 0..steps {
            let base = t * chunk;
            for s in 0..stages {
                let (head, tail) = hist.split_at_mut(s);
                let cur = &mut tail[0];
                let inp: &[Scalar] = if s == 0 {
                    &xd[base..base + chunk]
                } else {
                    &head[s - 1][base..base + chunk]
                };
                let (ad, bd, vd) = (&a_d[s], &b_d[s], &v0_d[s]);
                for_each_col(chunk, width, |i, j| {
                    // The initial state is broadcast as 0.0 + v0[j], exactly
                    // like the per-step path's `zeros().add(&v0)`.
                    let prev = if t == 0 {
                        0.0 + vd[j]
                    } else {
                        cur[base - chunk + i]
                    };
                    cur[base + i] = ad[j] * prev + bd[j] * inp[i];
                });
            }
        }
    }

    // The top-stage history doubles as the output for the full scan (the
    // backward closure reads it back via `out_data`); the last-only variant
    // stashes it alongside the lower stages.
    let top = hist.pop().expect("at least one stage");
    let (out, top_stash) = if last_only {
        let out = pool::take_copy(&top[(steps - 1) * chunk..]);
        (out, Some(PoolBuf::new(top)))
    } else {
        (top, None)
    };
    let lower_stash: Vec<PoolBuf> = hist.into_iter().map(PoolBuf::new).collect();

    let out_shape = if last_only {
        Shape::new(&[batch, width])
    } else {
        Shape::new(&[rows, width])
    };
    let mut parents = Vec::with_capacity(1 + 3 * stages);
    parents.push(x.clone());
    parents.extend(a.iter().cloned());
    parents.extend(b.iter().cloned());
    parents.extend(v0.iter().cloned());

    let px = x.clone();
    let pa: Vec<Tensor> = a.to_vec();
    let pb: Vec<Tensor> = b.to_vec();
    let pv: Vec<Tensor> = v0.to_vec();

    make_node(out_shape, out, parents, move |g, out_data| {
        let a_d: Vec<Ref<'_, Vec<Scalar>>> = pa.iter().map(|t| t.data()).collect();
        let b_d: Vec<Ref<'_, Vec<Scalar>>> = pb.iter().map(|t| t.data()).collect();
        let v0_d: Vec<Ref<'_, Vec<Scalar>>> = pv.iter().map(|t| t.data()).collect();
        let state_of = |s: usize, t: usize| -> &[Scalar] {
            if s + 1 == stages {
                match &top_stash {
                    Some(stash) => &stash[t * chunk..(t + 1) * chunk],
                    None => &out_data[t * chunk..(t + 1) * chunk],
                }
            } else {
                &lower_stash[s][t * chunk..(t + 1) * chunk]
            }
        };
        let xd = px.data();
        let need_gx = px.inner.requires_grad;
        let mut gx = if need_gx {
            pool::take_uninit(rows * width)
        } else {
            Vec::new()
        };
        // λ_s[t] = ∂L/∂V_s[t]; `lam` holds the step being computed, `lam_next`
        // the step above it in time.
        let mut lam: Vec<Vec<Scalar>> = (0..stages).map(|_| pool::take_uninit(chunk)).collect();
        let mut lam_next: Vec<Vec<Scalar>> =
            (0..stages).map(|_| pool::take_uninit(chunk)).collect();
        let mut ga_tot: Vec<Vec<Scalar>> = (0..stages).map(|_| pool::take_uninit(width)).collect();
        let mut gb_tot: Vec<Vec<Scalar>> = (0..stages).map(|_| pool::take_uninit(width)).collect();
        let mut partial = pool::take_zeroed(width);

        for t in (0..steps).rev() {
            let base = t * chunk;
            let first = t + 1 == steps;
            // λ recursion, stages descending: the per-step graph delivers a
            // node's recurrence adjoint (a⊙λ from the next step) before the
            // incoming one (from the stage above / the consumer), so the
            // expressions below list the a-term first.
            for s in (0..stages).rev() {
                let (head, tail) = lam.split_at_mut(s + 1);
                let cur = &mut head[s];
                let ad = &a_d[s];
                if s + 1 == stages {
                    if last_only {
                        if first {
                            cur.copy_from_slice(g);
                        } else {
                            // Interior read-out steps are dead in the
                            // per-step graph: no adjoint is added.
                            for_each_col(chunk, width, |i, j| {
                                cur[i] = lam_next[s][i] * ad[j];
                            });
                        }
                    } else if first {
                        cur.copy_from_slice(&g[base..base + chunk]);
                    } else {
                        for_each_col(chunk, width, |i, j| {
                            cur[i] = lam_next[s][i] * ad[j] + g[base + i];
                        });
                    }
                } else {
                    let up = &tail[0];
                    let bu = &b_d[s + 1];
                    if first {
                        for_each_col(chunk, width, |i, j| {
                            cur[i] = up[i] * bu[j];
                        });
                    } else {
                        for_each_col(chunk, width, |i, j| {
                            cur[i] = lam_next[s][i] * ad[j] + up[i] * bu[j];
                        });
                    }
                }
            }
            for s in 0..stages {
                let lam_s = &lam[s];
                if pa[s].inner.requires_grad {
                    partial.fill(0.0);
                    if t == 0 {
                        let vd = &v0_d[s];
                        for_each_col(chunk, width, |i, j| {
                            partial[j] += lam_s[i] * (0.0 + vd[j]);
                        });
                    } else {
                        let prev = state_of(s, t - 1);
                        for_each_col(chunk, width, |i, j| partial[j] += lam_s[i] * prev[i]);
                    }
                    fold_first_copy(&mut ga_tot[s], &partial, first);
                }
                if pb[s].inner.requires_grad {
                    partial.fill(0.0);
                    if s == 0 {
                        for_each_col(chunk, width, |i, j| {
                            partial[j] += lam_s[i] * xd[base + i];
                        });
                    } else {
                        let inp = state_of(s - 1, t);
                        for_each_col(chunk, width, |i, j| partial[j] += lam_s[i] * inp[i]);
                    }
                    fold_first_copy(&mut gb_tot[s], &partial, first);
                }
                if t == 0 && pv[s].inner.requires_grad {
                    // ∂L/∂v0 via the broadcast initial state, rows ascending
                    // like the per-step `zeros().add(&v0)` backward.
                    partial.fill(0.0);
                    let ad = &a_d[s];
                    for_each_col(chunk, width, |i, j| partial[j] += lam_s[i] * ad[j]);
                    pv[s].accumulate_grad(&partial);
                }
            }
            if need_gx {
                let b0 = &b_d[0];
                let lam0 = &lam[0];
                for_each_col(chunk, width, |i, j| gx[base + i] = lam0[i] * b0[j]);
            }
            std::mem::swap(&mut lam, &mut lam_next);
        }
        drop(xd);
        pool::recycle(partial);
        for buf in lam.into_iter().chain(lam_next) {
            pool::recycle(buf);
        }
        if need_gx {
            px.accumulate_grad_owned(gx);
        }
        for (s, (ga, gb)) in ga_tot.into_iter().zip(gb_tot).enumerate() {
            if pa[s].inner.requires_grad {
                pa[s].accumulate_grad_owned(ga);
            } else {
                pool::recycle(ga);
            }
            if pb[s].inner.requires_grad {
                pb[s].accumulate_grad_owned(gb);
            } else {
                pool::recycle(gb);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use crate::{gradcheck, Tensor};

    /// Splits a stacked `[steps·batch, cols]` buffer into per-step tensors.
    fn unstack(x: &Tensor, steps: usize) -> Vec<Tensor> {
        let (rows, cols) = (x.dims()[0], x.dims()[1]);
        let batch = rows / steps;
        let d = x.to_vec();
        (0..steps)
            .map(|t| {
                Tensor::from_vec(
                    &[batch, cols],
                    d[t * batch * cols..(t + 1) * batch * cols].to_vec(),
                )
            })
            .collect()
    }

    /// Sums every step's output into one loss such that the per-step op
    /// closures execute in *descending* time order, like the real training
    /// graph (a closure runs only after all of its consumers). Building the
    /// add-chain ascending puts the latest step in the shallowest
    /// (first-executed) subtree.
    fn chain_loss(per_step: &[Tensor]) -> Tensor {
        let mut loss = per_step[0].sum_all();
        for t in per_step.iter().skip(1) {
            loss = loss.add(&t.sum_all());
        }
        loss
    }

    fn seq_input(steps: usize, batch: usize, cols: usize) -> Tensor {
        let data: Vec<f64> = (0..steps * batch * cols)
            .map(|i| (0.37 * i as f64).sin())
            .collect();
        Tensor::from_vec(&[steps * batch, cols], data)
    }

    fn row(cols: usize, lo: f64, hi: f64, phase: f64) -> Vec<f64> {
        (0..cols)
            .map(|j| lo + (hi - lo) * (0.5 + 0.5 * (1.7 * j as f64 + phase).sin()))
            .collect()
    }

    #[test]
    fn matmul_scan_matches_per_step_chain_bitwise() {
        let (steps, batch, k, m) = (5, 3, 4, 2);
        let x = seq_input(steps, batch, k);
        let w = Tensor::leaf(&[k, m], row(k * m, -0.8, 0.8, 0.3));
        let w2 = Tensor::leaf(&[k, m], w.to_vec());

        let fused = Tensor::matmul_scan(&x, &w, steps);
        fused.sum_all().backward();

        let per_step: Vec<Tensor> = unstack(&x, steps).iter().map(|xt| xt.matmul(&w2)).collect();
        chain_loss(&per_step).backward();

        let flat: Vec<f64> = per_step.iter().flat_map(|t| t.to_vec()).collect();
        assert_eq!(fused.to_vec(), flat, "forward mismatch");
        assert_eq!(w.grad(), w2.grad(), "dW mismatch");
    }

    #[test]
    fn bias_div_scan_matches_per_step_chain() {
        let (steps, batch, cols) = (4, 2, 3);
        let x = seq_input(steps, batch, cols);
        let b = Tensor::leaf(&[cols], row(cols, -0.4, 0.4, 0.0));
        let g = Tensor::leaf(&[cols], row(cols, 1.0, 3.0, 1.1));
        let (b2, g2) = (
            Tensor::leaf(&[cols], b.to_vec()),
            Tensor::leaf(&[cols], g.to_vec()),
        );

        let fused = Tensor::bias_div_scan(&x, &b, &g, steps);
        fused.sum_all().backward();

        let per_step: Vec<Tensor> = unstack(&x, steps)
            .iter()
            .map(|xt| Tensor::bias_div(xt, &b2, &g2))
            .collect();
        chain_loss(&per_step).backward();

        let flat: Vec<f64> = per_step.iter().flat_map(|t| t.to_vec()).collect();
        assert_eq!(fused.to_vec(), flat, "forward mismatch");
        assert_eq!(b.grad(), b2.grad(), "db mismatch");
        assert_eq!(g.grad(), g2.grad(), "dg mismatch");
    }

    #[test]
    fn ptanh_scan_matches_per_step_chain() {
        let (steps, batch, cols) = (6, 2, 3);
        let x = seq_input(steps, batch, cols);
        let e: Vec<Tensor> = [
            row(cols, -0.1, 0.1, 0.2),
            row(cols, 0.5, 0.9, 0.4),
            row(cols, -0.2, 0.2, 0.6),
            row(cols, 1.0, 3.0, 0.8),
        ]
        .into_iter()
        .map(|d| Tensor::leaf(&[cols], d))
        .collect();
        let e2: Vec<Tensor> = e
            .iter()
            .map(|t| Tensor::leaf(&[cols], t.to_vec()))
            .collect();

        let fused = Tensor::ptanh_scan(&x, &e[0], &e[1], &e[2], &e[3], steps);
        fused.sum_all().backward();

        let per_step: Vec<Tensor> = unstack(&x, steps)
            .iter()
            .map(|xt| Tensor::ptanh(xt, &e2[0], &e2[1], &e2[2], &e2[3]))
            .collect();
        chain_loss(&per_step).backward();

        let flat: Vec<f64> = per_step.iter().flat_map(|t| t.to_vec()).collect();
        assert_eq!(fused.to_vec(), flat, "forward mismatch");
        for k in 0..4 {
            assert_eq!(e[k].grad(), e2[k].grad(), "eta{} grad mismatch", k + 1);
        }
    }

    fn stage_coeffs(stages: usize, width: usize) -> (Vec<Tensor>, Vec<Tensor>, Vec<Tensor>) {
        let a: Vec<Tensor> = (0..stages)
            .map(|s| Tensor::leaf(&[width], row(width, 0.3, 0.9, s as f64)))
            .collect();
        let b: Vec<Tensor> = (0..stages)
            .map(|s| Tensor::leaf(&[width], row(width, 0.1, 0.7, 2.0 + s as f64)))
            .collect();
        let v0: Vec<Tensor> = (0..stages)
            .map(|s| Tensor::from_vec(&[width], row(width, -0.2, 0.2, 4.0 + s as f64)))
            .collect();
        (a, b, v0)
    }

    fn clone_leaves(src: &[Tensor]) -> Vec<Tensor> {
        src.iter()
            .map(|t| {
                if t.is_differentiable() {
                    Tensor::leaf(t.dims(), t.to_vec())
                } else {
                    Tensor::from_vec(t.dims(), t.to_vec())
                }
            })
            .collect()
    }

    /// Reference implementation: the per-step `filter_step` chain.
    fn per_step_filter(
        x: &Tensor,
        a: &[Tensor],
        b: &[Tensor],
        v0: &[Tensor],
        steps: usize,
    ) -> Vec<Tensor> {
        per_step_filter_from(&unstack(x, steps), a, b, v0)
    }

    fn per_step_filter_from(
        x_steps: &[Tensor],
        a: &[Tensor],
        b: &[Tensor],
        v0: &[Tensor],
    ) -> Vec<Tensor> {
        let (batch, width) = (x_steps[0].dims()[0], x_steps[0].dims()[1]);
        let mut states: Vec<Tensor> = v0
            .iter()
            .map(|v| Tensor::zeros(&[batch, width]).add(v))
            .collect();
        let mut out = Vec::with_capacity(x_steps.len());
        for xt in x_steps {
            let mut stage_in = xt.clone();
            for s in 0..a.len() {
                states[s] = Tensor::filter_step(&states[s], &a[s], &stage_in, &b[s]);
                stage_in = states[s].clone();
            }
            out.push(states[a.len() - 1].clone());
        }
        out
    }

    #[test]
    fn filter_scan_matches_per_step_chain_orders_1_to_3() {
        for stages in 1..=3 {
            for batch in [1usize, 3] {
                let (steps, width) = (7, 2);
                let x = seq_input(steps, batch, width);
                let (a, b, v0) = stage_coeffs(stages, width);
                let (a2, b2, v02) = (clone_leaves(&a), clone_leaves(&b), clone_leaves(&v0));

                let fused = Tensor::filter_scan(&x, &a, &b, &v0, steps);
                fused.sum_all().backward();

                let per_step = per_step_filter(&x, &a2, &b2, &v02, steps);
                let mut loss = per_step[steps - 1].sum_all();
                for t in (0..steps - 1).rev() {
                    loss = loss.add(&per_step[t].sum_all());
                }
                loss.backward();

                let flat: Vec<f64> = per_step.iter().flat_map(|t| t.to_vec()).collect();
                assert_eq!(
                    fused.to_vec(),
                    flat,
                    "forward mismatch (stages {stages}, batch {batch})"
                );
                for s in 0..stages {
                    assert_eq!(a[s].grad(), a2[s].grad(), "ga mismatch stage {s}");
                    assert_eq!(b[s].grad(), b2[s].grad(), "gb mismatch stage {s}");
                }
            }
        }
    }

    #[test]
    fn filter_scan_last_matches_final_step_chain() {
        for stages in 1..=3 {
            let (steps, batch, width) = (6, 2, 3);
            let x = seq_input(steps, batch, width);
            let (a, b, v0) = stage_coeffs(stages, width);
            let (a2, b2, v02) = (clone_leaves(&a), clone_leaves(&b), clone_leaves(&v0));

            let fused = Tensor::filter_scan_last(&x, &a, &b, &v0, steps);
            fused.sum_all().backward();

            let per_step = per_step_filter(&x, &a2, &b2, &v02, steps);
            per_step[steps - 1].sum_all().backward();

            assert_eq!(
                fused.to_vec(),
                per_step[steps - 1].to_vec(),
                "forward mismatch (stages {stages})"
            );
            for s in 0..stages {
                assert_eq!(a[s].grad(), a2[s].grad(), "ga mismatch stage {s}");
                assert_eq!(b[s].grad(), b2[s].grad(), "gb mismatch stage {s}");
            }
        }
    }

    #[test]
    fn filter_scan_propagates_input_gradients() {
        let (steps, batch, width) = (4, 2, 2);
        let chunk = batch * width;
        let stacked = seq_input(steps, batch, width).to_vec();
        let x = Tensor::leaf(&[steps * batch, width], stacked.clone());
        // Reference: one differentiable leaf per time step.
        let x_steps: Vec<Tensor> = (0..steps)
            .map(|t| {
                Tensor::leaf(
                    &[batch, width],
                    stacked[t * chunk..(t + 1) * chunk].to_vec(),
                )
            })
            .collect();
        let (a, b, v0) = stage_coeffs(2, width);
        let (a2, b2, v02) = (clone_leaves(&a), clone_leaves(&b), clone_leaves(&v0));

        Tensor::filter_scan(&x, &a, &b, &v0, steps)
            .sum_all()
            .backward();

        let per_step = per_step_filter_from(&x_steps, &a2, &b2, &v02);
        chain_loss(&per_step).backward();

        let gx = x.grad();
        for (t, xt) in x_steps.iter().enumerate() {
            assert_eq!(
                &gx[t * chunk..(t + 1) * chunk],
                &xt.grad()[..],
                "dX mismatch at step {t}"
            );
        }
    }

    #[test]
    fn filter_scan_gradcheck() {
        let (steps, batch, width) = (5, 2, 2);
        let x = seq_input(steps, batch, width);
        let (a, b, v0) = stage_coeffs(2, width);
        let mut params = a.clone();
        params.extend(b.iter().cloned());
        gradcheck::check(
            || {
                Tensor::filter_scan(&x, &a, &b, &v0, steps)
                    .square()
                    .sum_all()
            },
            &params,
            1e-6,
        );
    }

    #[test]
    fn filter_scan_last_gradcheck() {
        let (steps, batch, width) = (5, 2, 2);
        let x = seq_input(steps, batch, width);
        let (a, b, v0) = stage_coeffs(3, width);
        let mut params = a.clone();
        params.extend(b.iter().cloned());
        gradcheck::check(
            || {
                Tensor::filter_scan_last(&x, &a, &b, &v0, steps)
                    .square()
                    .sum_all()
            },
            &params,
            1e-6,
        );
    }

    #[test]
    fn ptanh_scan_gradcheck() {
        let (steps, batch, cols) = (3, 2, 2);
        let x = Tensor::leaf(
            &[steps * batch, cols],
            seq_input(steps, batch, cols).to_vec(),
        );
        let e: Vec<Tensor> = [
            row(cols, -0.1, 0.1, 0.2),
            row(cols, 0.5, 0.9, 0.4),
            row(cols, -0.2, 0.2, 0.6),
            row(cols, 1.0, 3.0, 0.8),
        ]
        .into_iter()
        .map(|d| Tensor::leaf(&[cols], d))
        .collect();
        let mut params = vec![x.clone()];
        params.extend(e.iter().cloned());
        gradcheck::check(
            || {
                Tensor::ptanh_scan(&x, &e[0], &e[1], &e[2], &e[3], steps)
                    .square()
                    .sum_all()
            },
            &params,
            1e-6,
        );
    }

    #[test]
    fn matmul_scan_gradcheck() {
        let (steps, batch, k, m) = (3, 2, 3, 2);
        let x = Tensor::leaf(&[steps * batch, k], seq_input(steps, batch, k).to_vec());
        let w = Tensor::leaf(&[k, m], row(k * m, -0.8, 0.8, 0.3));
        gradcheck::check(
            || Tensor::matmul_scan(&x, &w, steps).square().sum_all(),
            &[x.clone(), w.clone()],
            1e-6,
        );
    }

    #[test]
    fn bias_div_scan_gradcheck() {
        let (steps, batch, cols) = (3, 2, 2);
        let x = Tensor::leaf(
            &[steps * batch, cols],
            seq_input(steps, batch, cols).to_vec(),
        );
        let b = Tensor::leaf(&[cols], row(cols, -0.4, 0.4, 0.0));
        let g = Tensor::leaf(&[cols], row(cols, 1.0, 3.0, 1.1));
        gradcheck::check(
            || Tensor::bias_div_scan(&x, &b, &g, steps).square().sum_all(),
            &[x.clone(), b.clone(), g.clone()],
            1e-6,
        );
    }

    #[test]
    fn single_step_scan_equals_single_node() {
        // steps == 1 degenerates to the per-step kernels.
        let x = seq_input(1, 4, 3);
        let (a, b, v0) = stage_coeffs(2, 3);
        let fused = Tensor::filter_scan(&x, &a, &b, &v0, 1);
        let chain = per_step_filter(&x, &a, &b, &v0, 1);
        assert_eq!(fused.to_vec(), chain[0].to_vec());
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_rows_panic() {
        let x = Tensor::zeros(&[5, 2]);
        let w = Tensor::zeros(&[2, 2]);
        Tensor::matmul_scan(&x, &w, 2);
    }
}
