//! The whole-sequence printed-layer kernel for BPTT training.
//!
//! The per-step training graph records one node per time step per
//! primitive: T crossbar matmuls, T bias-divs, T·S SO-LF filter steps and
//! T ptanh nodes per layer per Monte-Carlo sample. [`Tensor::ptpb_scan`]
//! records the same T-step computation of one printed temporal processing
//! block (crossbar → `(x + θ_b)/G` → SO-LF cascade → ptanh) as a **single
//! graph node** with one hand-derived BPTT adjoint.
//!
//! The input is rank-2 stacked `[steps·batch, fan_in]` in time-major layout
//! (chunk `t` is rows `t·batch .. (t+1)·batch`). Internally the kernel runs
//! filter-major: each output filter's whole sequence is a contiguous
//! `[steps·batch]` lane vector, so every per-element loop runs across
//! independent lanes and the recurrences run along time.
//!
//! # Bit-exact parity with the per-step graph
//!
//! Forward values and accumulated gradients are **bit-identical** to the
//! equivalent chain of per-step nodes (`matmul`, `bias_div`, `filter_step`,
//! `ptanh`):
//!
//! * every per-element expression is the per-step kernel's, operand order
//!   included: the crossbar accumulates from `0.0` and skips zero inputs
//!   like `mat_mul_raw`, the initial filter state is `0.0 + v0`, tanh is
//!   `f64::tanh`, and no `mul_add` or reciprocal is introduced;
//! * each time chunk's contribution to a parameter is a sum over lanes in
//!   ascending order from `0.0`, and the chunk totals fold into the running
//!   total in *reverse* time order, with a copy (not an add onto zeros) for
//!   the first — precisely the order and first-contribution semantics with
//!   which a reverse-topological traversal of the per-step graph calls
//!   `accumulate_grad`;
//! * the node's parents are listed in the order the per-step chain's
//!   depth-first traversal meets them, so every tensor shared with the rest
//!   of the graph still receives its contributions in the same order.
//!
//! The bitwise fused-vs-per-step parity suite relies on this contract.

use std::cell::Ref;

use crate::ops::make_node;
use crate::pool::{self, PoolBuf};
use crate::tensor::Tensor;
use crate::{Scalar, Shape};

/// Longest SO-LF cascade the kernel runs (third-order filters).
const MAX_STAGES: usize = 3;

/// The effective values one printed layer reads during one forward pass:
/// the crossbar's conductances, the SO-LF stage coefficients and, for a
/// hidden layer, the ptanh parameters. Every vector is a `[fan_out]` row
/// that broadcasts over the batch.
#[derive(Clone, Copy)]
pub struct PtpbValues<'a> {
    /// Signed crossbar conductances `θ_w`, `[fan_in, fan_out]`.
    pub tw: &'a Tensor,
    /// Signed bias conductances `θ_b`.
    pub tb: &'a Tensor,
    /// Column normalization `G`.
    pub g: &'a Tensor,
    /// Per-stage decay factors `a`, one tensor per stage.
    pub a: &'a [Tensor],
    /// Per-stage input factors `b`, one tensor per stage.
    pub b: &'a [Tensor],
    /// Per-stage initial voltages `V₀`, one tensor per stage.
    pub v0: &'a [Tensor],
    /// `η₁..η₄` of the activation bank. `None` marks the read-out layer:
    /// the node then stops at the filter's final time step and returns
    /// `[batch, fan_out]`, leaving the activation to the caller.
    pub eta: Option<&'a [Tensor]>,
}

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

fn expect_row(t: &Tensor, cols: usize, name: &str) {
    assert_eq!(
        t.dims(),
        &[cols],
        "{name} must be a [{cols}] row vector, got {:?}",
        t.dims()
    );
}

/// Folds one time chunk's partial into a running total with the semantics
/// of `accumulate_grad`: the first (latest-time) contribution is a copy,
/// later ones add.
#[inline]
fn fold(total: &mut Scalar, partial: Scalar, first: bool) {
    *total = if first { partial } else { *total + partial };
}

/// `[rows, cols]` row-major into a pooled `[cols][rows]` buffer.
fn transpose(src: &[Scalar], rows: usize, cols: usize) -> Vec<Scalar> {
    let mut out = pool::take_uninit(rows * cols);
    for (r, row) in src.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            out[c * rows + r] = v;
        }
    }
    out
}

fn borrow_all(ts: &[Tensor]) -> Vec<Ref<'_, Vec<Scalar>>> {
    ts.iter().map(Tensor::data).collect()
}

impl Tensor {
    /// One printed temporal processing block over a whole stacked sequence
    /// `[steps·batch, fan_in]` as a single graph node: crossbar product,
    /// `(y + θ_b)/G`, the cascaded SO-LF recurrence
    /// `V_s[t] = a_s⊙V_s[t−1] + b_s⊙V_{s−1}[t]` (states start at `0 + V₀`)
    /// and `η₁ + η₂·tanh((V − η₃)·η₄)`, returning `[steps·batch, fan_out]`.
    ///
    /// With `layer.eta == None` (the read-out layer) it returns only the
    /// last stage's final time step, `[batch, fan_out]`; interior read-outs
    /// receive no adjoint, matching the per-step graph where they are dead.
    ///
    /// The tape holds the normalized crossbar output, every stage's state
    /// history and the tanh values; the backward is the full analytic BPTT
    /// λ-recursion.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches, empty stage lists or when the rows are
    /// not divisible by `steps`.
    pub fn ptpb_scan(x: &Tensor, layer: PtpbValues<'_>, steps: usize) -> Tensor {
        let (rows, k, batch) = stacked_dims(x, steps);
        let PtpbValues {
            tw,
            tb,
            g,
            a,
            b,
            v0,
            eta,
        } = layer;
        assert_eq!(tw.dims().len(), 2, "crossbar weights must be rank-2");
        let (k2, m) = (tw.dims()[0], tw.dims()[1]);
        assert_eq!(
            k, k2,
            "crossbar inner dimensions differ: [{rows}, {k}] × [{k2}, {m}]"
        );
        expect_row(tb, m, "bias");
        expect_row(g, m, "divisor");
        let stages = a.len();
        assert!(
            (1..=MAX_STAGES).contains(&stages),
            "the SO-LF cascade has 1 to {MAX_STAGES} stages, got {stages}"
        );
        assert_eq!(b.len(), stages, "a/b stage count mismatch");
        assert_eq!(v0.len(), stages, "a/v0 stage count mismatch");
        for (coeffs, name) in [(a, "a"), (b, "b"), (v0, "v0")] {
            for c in coeffs {
                expect_row(c, m, name);
            }
        }
        if let Some(eta) = eta {
            assert_eq!(eta.len(), 4, "ptanh needs four eta vectors");
            for e in eta {
                expect_row(e, m, "eta");
            }
        }
        let last_only = eta.is_none();

        // Tape, filter-major: `[m][rows]` each.
        let mut u = pool::take_uninit(m * rows);
        let mut st: Vec<Vec<Scalar>> = (0..stages).map(|_| pool::take_uninit(m * rows)).collect();
        let mut th = if last_only {
            Vec::new()
        } else {
            pool::take_uninit(m * rows)
        };
        let mut out = pool::take_uninit(if last_only { batch * m } else { rows * m });
        {
            let xt = transpose(&x.data(), rows, k);
            let (twd, tbd, gd) = (tw.data(), tb.data(), g.data());
            let (a_d, b_d, v0_d) = (borrow_all(a), borrow_all(b), borrow_all(v0));
            let eta_d = eta.map(borrow_all);
            for j in 0..m {
                let span = j * rows..(j + 1) * rows;
                // Crossbar column j, accumulated like `mat_mul_raw`, then
                // `bias_div`'s (y + θ_b)/G.
                let uj = &mut u[span.clone()];
                uj.fill(0.0);
                for l in 0..k {
                    let w = twd[l * m + j];
                    for (acc, &xv) in uj.iter_mut().zip(&xt[l * rows..(l + 1) * rows]) {
                        if xv != 0.0 {
                            *acc += xv * w;
                        }
                    }
                }
                let (bias, div) = (tbd[j], gd[j]);
                for acc in uj.iter_mut() {
                    *acc = (*acc + bias) / div;
                }
                // SO-LF cascade: stage by stage, each along time.
                for s in 0..stages {
                    let (lower, upper) = st.split_at_mut(s);
                    let cur = &mut upper[0][span.clone()];
                    let inp: &[Scalar] = if s == 0 {
                        &u[span.clone()]
                    } else {
                        &lower[s - 1][span.clone()]
                    };
                    let (aj, bj) = (a_d[s][j], b_d[s][j]);
                    let init = 0.0 + v0_d[s][j];
                    for (o, &iv) in cur[..batch].iter_mut().zip(&inp[..batch]) {
                        *o = aj * init + bj * iv;
                    }
                    for t in 1..steps {
                        let (done, rest) = cur.split_at_mut(t * batch);
                        let prev = &done[(t - 1) * batch..];
                        let inp_t = &inp[t * batch..(t + 1) * batch];
                        for ((o, &p), &iv) in rest[..batch].iter_mut().zip(prev).zip(inp_t) {
                            *o = aj * p + bj * iv;
                        }
                    }
                }
                let top = &st[stages - 1][span.clone()];
                match &eta_d {
                    Some(e) => {
                        let (e1, e2, e3, e4) = (e[0][j], e[1][j], e[2][j], e[3][j]);
                        let thj = &mut th[span];
                        for (i, (&v, t_out)) in top.iter().zip(thj.iter_mut()).enumerate() {
                            let t = ((v - e3) * e4).tanh();
                            *t_out = t;
                            out[i * m + j] = e1 + e2 * t;
                        }
                    }
                    None => {
                        for (lane, &v) in top[(steps - 1) * batch..].iter().enumerate() {
                            out[lane * m + j] = v;
                        }
                    }
                }
            }
            pool::recycle(xt);
        }

        let out_shape = if last_only {
            Shape::new(&[batch, m])
        } else {
            Shape::new(&[rows, m])
        };
        // The order in which a depth-first traversal of the per-step chain
        // (ptanh → filter → bias_div → matmul) meets these tensors.
        let mut parents = Vec::with_capacity(4 + 3 * stages + 4);
        parents.extend([g, tb, x, tw].map(Tensor::clone));
        parents.extend(a.iter().chain(b).chain(v0).cloned());
        parents.extend(eta.into_iter().flatten().cloned());
        if !(crate::graph::is_grad_enabled() && parents.iter().any(Tensor::is_differentiable)) {
            pool::recycle(u);
            st.into_iter().for_each(pool::recycle);
            pool::recycle(th);
            return make_node(out_shape, out, parents, |_, _| {});
        }

        let tape = Tape {
            x: x.clone(),
            tw: tw.clone(),
            tb: tb.clone(),
            g: g.clone(),
            a: a.to_vec(),
            b: b.to_vec(),
            v0: v0.to_vec(),
            eta: eta.map(<[Tensor]>::to_vec),
            u: PoolBuf::new(u),
            st: st.into_iter().map(PoolBuf::new).collect(),
            th: PoolBuf::new(th),
            steps,
            batch,
        };
        make_node(out_shape, out, parents, move |grad, _| tape.backward(grad))
    }
}

/// What the backward pass of one [`Tensor::ptpb_scan`] node reads: its
/// parents and the forward stashes.
struct Tape {
    x: Tensor,
    tw: Tensor,
    tb: Tensor,
    g: Tensor,
    a: Vec<Tensor>,
    b: Vec<Tensor>,
    v0: Vec<Tensor>,
    eta: Option<Vec<Tensor>>,
    /// `(y + θ_b)/G`, `[m][rows]`.
    u: PoolBuf,
    /// Stage state histories, `stages × [m][rows]`.
    st: Vec<PoolBuf>,
    /// `tanh((V − η₃)·η₄)`, `[m][rows]` (empty for the read-out layer).
    th: PoolBuf,
    steps: usize,
    batch: usize,
}

/// `[m][rows]` buffer's column `j`.
fn column(buf: &[Scalar], j: usize, rows: usize) -> &[Scalar] {
    &buf[j * rows..(j + 1) * rows]
}

/// How the top stage's adjoint λ is formed at one reverse time step.
#[derive(Clone, Copy)]
enum Top {
    /// The latest step: λ is the consumer's adjoint, copied.
    Copy,
    /// A hidden layer's interior step: `a⊙λ[t+1] + ptanh adjoint`.
    Add,
    /// A read-out layer's interior step, dead in the per-step graph:
    /// `a⊙λ[t+1]` with nothing added.
    Recurrence,
}

impl Tape {
    fn backward(&self, grad: &[Scalar]) {
        match self.a.len() {
            1 => self.backward_cascade::<1>(grad),
            2 => self.backward_cascade::<2>(grad),
            3 => self.backward_cascade::<3>(grad),
            _ => unreachable!("stage count checked in the forward"),
        }
    }

    /// The BPTT adjoint for an `S`-stage cascade, one filter at a time in
    /// reverse time. Per step, one lane pass forms the ptanh adjoint and
    /// the four η sums, and a second forms λ for every stage together with
    /// the a, b, θ_b and G sums, so that independent sums overlap.
    fn backward_cascade<const S: usize>(&self, grad: &[Scalar]) {
        let (steps, batch) = (self.steps, self.batch);
        let rows = steps * batch;
        let (k, m) = (self.tw.dims()[0], self.tw.dims()[1]);
        let needs = Tensor::is_differentiable;
        let need_gx = needs(&self.x);
        let need_gw = needs(&self.tw);
        let need_v0 = self.v0.iter().any(needs);
        let need_crossbar = need_gx || need_gw || needs(&self.tb) || needs(&self.g);
        let need_filter = need_crossbar || need_v0 || self.a.iter().chain(&self.b).any(needs);

        let twd = self.tw.data();
        let gd = self.g.data();
        let (a_d, b_d) = (borrow_all(&self.a), borrow_all(&self.b));
        let v0_d = borrow_all(&self.v0);
        let eta_d = self.eta.as_deref().map(borrow_all);
        let xt = if need_gw {
            transpose(&self.x.data(), rows, k)
        } else {
            Vec::new()
        };
        let mut gxt = if need_gx {
            pool::take_zeroed(k * rows)
        } else {
            Vec::new()
        };
        // Per-parameter totals; column j is written once its fold is done.
        let mut gw = pool::take_uninit(k * m);
        let mut gtb = pool::take_uninit(m);
        let mut gg = pool::take_uninit(m);
        let mut ga: [Vec<Scalar>; S] = std::array::from_fn(|_| pool::take_uninit(m));
        let mut gb: [Vec<Scalar>; S] = std::array::from_fn(|_| pool::take_uninit(m));
        let mut gv0: [Vec<Scalar>; S] = std::array::from_fn(|_| pool::take_uninit(m));
        let mut geta: [Vec<Scalar>; 4] = std::array::from_fn(|_| pool::take_uninit(m));

        // λ_s = ∂L/∂V_s for the step being computed and for the step above
        // it in time; `init` broadcasts each stage's initial state 0 + V₀;
        // gv is the top stage's incoming adjoint. The crossbar product's
        // adjoint gy is kept for every step, filter-major, for the weight
        // and input adjoints after the filter loop.
        let lane_buf = |_| pool::take_uninit(batch);
        let mut lam: [Vec<Scalar>; S] = std::array::from_fn(lane_buf);
        let mut lam_next: [Vec<Scalar>; S] = std::array::from_fn(lane_buf);
        let mut init: [Vec<Scalar>; S] = std::array::from_fn(lane_buf);
        let mut gv = pool::take_uninit(batch);
        let mut gy_all = pool::take_uninit(m * rows);

        for j in 0..m {
            let uj = column(&self.u, j, rows);
            let st: [&[Scalar]; S] = std::array::from_fn(|s| column(&self.st[s], j, rows));
            let aj: [Scalar; S] = std::array::from_fn(|s| a_d[s][j]);
            let bj: [Scalar; S] = std::array::from_fn(|s| b_d[s][j]);
            for (buf, v0) in init.iter_mut().zip(&v0_d) {
                buf.fill(0.0 + v0[j]);
            }
            let div = gd[j];
            for t in (0..steps).rev() {
                let base = t * batch;
                let lanes = base..base + batch;
                let first = t + 1 == steps;

                // ptanh adjoint: gv into the top stage, η partials.
                let interior = match &eta_d {
                    Some(e) => {
                        let (e2, e3, e4) = (e[1][j], e[2][j], e[3][j]);
                        let thj = &column(&self.th, j, rows)[lanes.clone()];
                        let top = &st[S - 1][lanes.clone()];
                        let (mut p1, mut p2, mut p3, mut p4) = (0.0, 0.0, 0.0, 0.0);
                        for (lane, ((g_out, &th), &v)) in
                            gv.iter_mut().zip(thj).zip(top).enumerate()
                        {
                            let gh = grad[(base + lane) * m + j];
                            let sech2 = 1.0 - th * th;
                            *g_out = gh * e2 * sech2 * e4;
                            p1 += gh;
                            p2 += gh * th;
                            p3 += -gh * e2 * sech2 * e4;
                            p4 += gh * e2 * sech2 * (v - e3);
                        }
                        for (total, p) in geta.iter_mut().zip([p1, p2, p3, p4]) {
                            fold(&mut total[j], p, first);
                        }
                        Top::Add
                    }
                    None => {
                        if first {
                            for (lane, g_out) in gv.iter_mut().enumerate() {
                                *g_out = grad[lane * m + j];
                            }
                        }
                        Top::Recurrence
                    }
                };
                if !need_filter {
                    continue;
                }
                let top = if first { Top::Copy } else { interior };

                // λ down the cascade (the per-step graph delivers a state's
                // recurrence adjoint a⊙λ[t+1] before its consumer's, so the
                // a-term comes first), the a/b partials λ⊙(previous state)
                // and λ⊙(stage input), and the crossbar adjoint
                // gy = λ₀·b₀/G, which is also θ_b's term; G's is −gu·u/G.
                let prev: [&[Scalar]; S] = std::array::from_fn(|s| {
                    if t == 0 {
                        &init[s][..]
                    } else {
                        &st[s][base - batch..base]
                    }
                });
                let inp: [&[Scalar]; S] = std::array::from_fn(|s| {
                    if s == 0 {
                        &uj[lanes.clone()]
                    } else {
                        &st[s - 1][lanes.clone()]
                    }
                });
                let gy = &mut gy_all[j * rows + base..j * rows + base + batch];
                let gv = &gv[..batch];
                let next: [&[Scalar]; S] = std::array::from_fn(|s| &lam_next[s][..batch]);
                let cur: [&mut [Scalar]; S] = lam.each_mut().map(|l| &mut l[..batch]);
                let (mut pa, mut pb) = ([0.0; S], [0.0; S]);
                let (mut pbias, mut pdiv) = (0.0, 0.0);
                for lane in 0..batch {
                    let mut l = [0.0; S];
                    l[S - 1] = match top {
                        Top::Copy => gv[lane],
                        Top::Add => next[S - 1][lane] * aj[S - 1] + gv[lane],
                        Top::Recurrence => next[S - 1][lane] * aj[S - 1],
                    };
                    for s in (0..S - 1).rev() {
                        l[s] = if first {
                            l[s + 1] * bj[s + 1]
                        } else {
                            next[s][lane] * aj[s] + l[s + 1] * bj[s + 1]
                        };
                    }
                    for s in 0..S {
                        cur[s][lane] = l[s];
                        pa[s] += l[s] * prev[s][lane];
                        pb[s] += l[s] * inp[s][lane];
                    }
                    let gu = l[0] * bj[0];
                    let y = gu / div;
                    gy[lane] = y;
                    pbias += y;
                    pdiv += -gu * inp[0][lane] / div;
                }
                for s in 0..S {
                    fold(&mut ga[s][j], pa[s], first);
                    fold(&mut gb[s][j], pb[s], first);
                }
                fold(&mut gtb[j], pbias, first);
                fold(&mut gg[j], pdiv, first);
                if t == 0 && need_v0 {
                    for s in 0..S {
                        let mut p = 0.0;
                        for &l in &lam[s] {
                            p += l * aj[s];
                        }
                        gv0[s][j] = p;
                    }
                }
                std::mem::swap(&mut lam, &mut lam_next);
            }
        }
        // The crossbar product's adjoints, skipping zero factors like
        // `mat_mul_raw`. dW: per time chunk, one lane sum per (input l,
        // filter j) pair, up to eight pairs per pass so the sums overlap;
        // the pair index is the element's index in `gw`.
        if need_gw {
            for t in (0..steps).rev() {
                let lanes = t * batch..(t + 1) * batch;
                let mut partial = [0.0; 8];
                for (p0, dst) in (0..k * m).step_by(8).zip(gw.chunks_mut(8)) {
                    let q = dst.len();
                    let xs: [&[Scalar]; 8] = std::array::from_fn(|i| {
                        &column(&xt, (p0 + i.min(q - 1)) / m, rows)[lanes.clone()]
                    });
                    let ys: [&[Scalar]; 8] = std::array::from_fn(|i| {
                        &column(&gy_all, (p0 + i.min(q - 1)) % m, rows)[lanes.clone()]
                    });
                    zero_skipping_dots(&xs[..q], &ys[..q], &mut partial[..q]);
                    for (total, &p) in dst.iter_mut().zip(&partial) {
                        fold(total, p, t + 1 == steps);
                    }
                }
            }
        }
        // dX: gx[r, l] = Σ_j gy[r, j]·θ_w[l, j], filters ascending.
        if need_gx {
            for (l, gxl) in gxt.chunks_exact_mut(rows).enumerate() {
                for (j, gyj) in gy_all.chunks_exact(rows).enumerate() {
                    let w = twd[l * m + j];
                    for (o, &y) in gxl.iter_mut().zip(gyj) {
                        *o = if y != 0.0 { *o + y * w } else { *o };
                    }
                }
            }
        }
        drop((twd, gd, a_d, b_d, v0_d, eta_d));
        let scratch = lam.into_iter().chain(lam_next).chain(init);
        for buf in scratch.chain([gv, gy_all, xt]) {
            pool::recycle(buf);
        }

        let deposit = |p: &Tensor, total: Vec<Scalar>| {
            if p.is_differentiable() {
                p.accumulate_grad_owned(total);
            } else {
                pool::recycle(total);
            }
        };
        if need_gx {
            deposit(&self.x, transpose(&gxt, k, rows));
        }
        pool::recycle(gxt);
        deposit(&self.tw, gw);
        deposit(&self.tb, gtb);
        deposit(&self.g, gg);
        for (s, ((ga, gb), gv0)) in ga.into_iter().zip(gb).zip(gv0).enumerate() {
            deposit(&self.a[s], ga);
            deposit(&self.b[s], gb);
            deposit(&self.v0[s], gv0);
        }
        match &self.eta {
            Some(eta) => {
                for (p, total) in eta.iter().zip(geta) {
                    deposit(p, total);
                }
            }
            None => geta.into_iter().for_each(pool::recycle),
        }
    }
}

/// Lane sums `out[q] = Σ xs[q]·ys[q]` in ascending lane order from `0.0`,
/// skipping zero `x` like `mat_mul_raw`, for up to eight pairs in one
/// pass so that the sums' dependency chains overlap.
fn zero_skipping_dots(xs: &[&[Scalar]], ys: &[&[Scalar]], out: &mut [Scalar]) {
    fn dots<const Q: usize>(xs: &[&[Scalar]], ys: &[&[Scalar]], out: &mut [Scalar]) {
        let len = xs[0].len();
        let xs: [&[Scalar]; Q] = std::array::from_fn(|q| &xs[q][..len]);
        let ys: [&[Scalar]; Q] = std::array::from_fn(|q| &ys[q][..len]);
        let mut p = [0.0; Q];
        for lane in 0..len {
            for q in 0..Q {
                let xv = xs[q][lane];
                if xv != 0.0 {
                    p[q] += xv * ys[q][lane];
                }
            }
        }
        out.copy_from_slice(&p);
    }
    match xs.len() {
        1 => dots::<1>(xs, ys, out),
        2 => dots::<2>(xs, ys, out),
        3 => dots::<3>(xs, ys, out),
        4 => dots::<4>(xs, ys, out),
        5 => dots::<5>(xs, ys, out),
        6 => dots::<6>(xs, ys, out),
        7 => dots::<7>(xs, ys, out),
        8 => dots::<8>(xs, ys, out),
        n => unreachable!("{n} dot products in one pass"),
    }
}

#[cfg(test)]
mod tests {
    //! Each test keeps the name of the per-primitive scan op whose stage of
    //! the fused node it exercises: matmul (the crossbar product and its θ_w
    //! and input adjoints), bias_div (θ_b and G), filter (a and b, and the
    //! read-out variant) and ptanh (η). Every bitwise test checks the whole
    //! node against the per-step chain of `matmul`, `bias_div`,
    //! `filter_step` and `ptanh` nodes.

    use crate::{gradcheck, PtpbValues, Tensor};

    fn row(cols: usize, lo: f64, hi: f64, phase: f64) -> Vec<f64> {
        (0..cols)
            .map(|j| lo + (hi - lo) * (0.5 + 0.5 * (1.7 * j as f64 + phase).sin()))
            .collect()
    }

    fn bits(t: &Tensor) -> Vec<u64> {
        t.grad().iter().map(|v| v.to_bits()).collect()
    }

    /// One layer's values as leaves (the initial voltages are constants).
    struct Layer {
        tw: Tensor,
        tb: Tensor,
        g: Tensor,
        a: Vec<Tensor>,
        b: Vec<Tensor>,
        v0: Vec<Tensor>,
        eta: Vec<Tensor>,
    }

    impl Layer {
        fn new(k: usize, m: usize, stages: usize) -> Self {
            let per_stage = |lo, hi, phase: f64| -> Vec<Tensor> {
                (0..stages)
                    .map(|s| Tensor::leaf(&[m], row(m, lo, hi, phase + s as f64)))
                    .collect()
            };
            Layer {
                tw: Tensor::leaf(&[k, m], row(k * m, -0.8, 0.8, 0.3)),
                tb: Tensor::leaf(&[m], row(m, -0.4, 0.4, 0.0)),
                g: Tensor::leaf(&[m], row(m, 1.5, 3.0, 1.1)),
                a: per_stage(0.3, 0.9, 0.0),
                b: per_stage(0.1, 0.7, 2.0),
                v0: (0..stages)
                    .map(|s| Tensor::from_vec(&[m], row(m, -0.2, 0.2, 4.0 + s as f64)))
                    .collect(),
                eta: [(-0.1, 0.1), (0.5, 0.9), (-0.2, 0.2), (1.0, 3.0)]
                    .iter()
                    .enumerate()
                    .map(|(i, &(lo, hi))| Tensor::leaf(&[m], row(m, lo, hi, 0.2 * i as f64)))
                    .collect(),
            }
        }

        fn values(&self, hidden: bool) -> PtpbValues<'_> {
            PtpbValues {
                tw: &self.tw,
                tb: &self.tb,
                g: &self.g,
                a: &self.a,
                b: &self.b,
                v0: &self.v0,
                eta: hidden.then_some(&self.eta[..]),
            }
        }
    }

    /// The per-step chain of one layer over per-step `[batch, k]` inputs.
    fn per_step(x: &[Tensor], v: &PtpbValues<'_>) -> Vec<Tensor> {
        let (batch, m) = (x[0].dims()[0], v.tw.dims()[1]);
        let mut states: Vec<Tensor> =
            v.v0.iter()
                .map(|v0| Tensor::zeros(&[batch, m]).add(v0))
                .collect();
        let mut out = Vec::with_capacity(x.len());
        for xt in x {
            let mut inp = Tensor::bias_div(&xt.matmul(v.tw), v.tb, v.g);
            for (s, state) in states.iter_mut().enumerate() {
                *state = Tensor::filter_step(state, &v.a[s], &inp, &v.b[s]);
                inp = state.clone();
            }
            out.push(match v.eta {
                Some(e) => Tensor::ptanh(&inp, &e[0], &e[1], &e[2], &e[3]),
                None => inp,
            });
        }
        out
    }

    /// Runs the fused node and the per-step chain on twin leaves, each
    /// back-propagated from the sum of its squared outputs (for a hidden
    /// layer summed so the per-step closures run latest step first, as in
    /// training), and asserts bitwise equal outputs, parameter gradients
    /// and input gradients.
    fn assert_matches_chain(
        steps: usize,
        batch: usize,
        k: usize,
        m: usize,
        stages: usize,
        hidden: bool,
    ) {
        let chunk = batch * k;
        let data: Vec<f64> = (0..steps * chunk)
            .map(|i| (0.37 * i as f64).sin())
            .collect();
        let (fused, chain) = (Layer::new(k, m, stages), Layer::new(k, m, stages));

        let x = Tensor::leaf(&[steps * batch, k], data.clone());
        let out = Tensor::ptpb_scan(&x, fused.values(hidden), steps);
        out.square().sum_all().backward();

        let x_steps: Vec<Tensor> = data
            .chunks(chunk)
            .map(|c| Tensor::leaf(&[batch, k], c.to_vec()))
            .collect();
        let outs = per_step(&x_steps, &chain.values(hidden));
        let want: Vec<f64> = if hidden {
            let mut loss = outs[0].square().sum_all();
            for t in &outs[1..] {
                loss = loss.add(&t.square().sum_all());
            }
            loss.backward();
            outs.iter().flat_map(Tensor::to_vec).collect()
        } else {
            let last = &outs[steps - 1];
            last.square().sum_all().backward();
            last.to_vec()
        };
        let what = format!("stages {stages}, batch {batch}, hidden {hidden}");
        assert_eq!(out.to_vec(), want, "{what}: forward mismatch");
        let params = |l: &Layer| -> Vec<Tensor> {
            let mut p = vec![l.tw.clone(), l.tb.clone(), l.g.clone()];
            p.extend(l.a.iter().chain(&l.b).cloned());
            if hidden {
                p.extend(l.eta.iter().cloned());
            }
            p
        };
        for (i, (p, q)) in params(&fused).iter().zip(&params(&chain)).enumerate() {
            assert_eq!(bits(p), bits(q), "{what}: parameter {i} gradient mismatch");
        }
        assert!(hidden || fused.eta.iter().all(|e| e.grad_opt().is_none()));
        let gx = x.grad();
        for (t, xt) in x_steps.iter().enumerate() {
            let dx = &gx[t * chunk..(t + 1) * chunk];
            assert_eq!(dx, &xt.grad()[..], "{what}: dX mismatch at step {t}");
        }
    }

    #[test]
    fn matmul_scan_matches_per_step_chain_bitwise() {
        assert_matches_chain(5, 3, 4, 2, 2, true);
    }

    #[test]
    fn bias_div_scan_matches_per_step_chain() {
        assert_matches_chain(4, 2, 3, 3, 1, true);
    }

    #[test]
    fn ptanh_scan_matches_per_step_chain() {
        assert_matches_chain(6, 2, 2, 3, 2, true);
    }

    #[test]
    fn filter_scan_matches_per_step_chain_orders_1_to_3() {
        for stages in 1..=3 {
            for batch in [1usize, 3] {
                assert_matches_chain(7, batch, 2, 2, stages, true);
            }
        }
    }

    #[test]
    fn filter_scan_last_matches_final_step_chain() {
        for stages in 1..=3 {
            assert_matches_chain(6, 2, 3, 3, stages, false);
        }
    }

    #[test]
    fn filter_scan_propagates_input_gradients() {
        for hidden in [true, false] {
            assert_matches_chain(4, 2, 3, 2, 2, hidden);
        }
    }

    #[test]
    fn single_step_scan_equals_single_node() {
        // steps == 1 degenerates to one node per primitive.
        for hidden in [true, false] {
            assert_matches_chain(1, 4, 3, 2, 2, hidden);
        }
    }

    /// Central finite differences through the fused node for the tensors
    /// `pick` selects (the input is index 0, then the layer's leaves).
    fn gradcheck_layer(stages: usize, hidden: bool, pick: fn(&Tensor, &Layer) -> Vec<Tensor>) {
        let (steps, batch, k, m) = (4, 2, 3, 2);
        let data = (0..steps * batch * k)
            .map(|i| (0.37 * i as f64).sin())
            .collect();
        let x = Tensor::leaf(&[steps * batch, k], data);
        let l = Layer::new(k, m, stages);
        gradcheck::check(
            || {
                let out = Tensor::ptpb_scan(&x, l.values(hidden), steps);
                out.square().sum_all()
            },
            &pick(&x, &l),
            1e-6,
        );
    }

    #[test]
    fn filter_scan_gradcheck() {
        gradcheck_layer(2, true, |_, l| l.a.iter().chain(&l.b).cloned().collect());
    }

    #[test]
    fn filter_scan_last_gradcheck() {
        gradcheck_layer(3, false, |x, l| {
            let mut p = vec![x.clone(), l.tw.clone(), l.tb.clone(), l.g.clone()];
            p.extend(l.a.iter().chain(&l.b).cloned());
            p
        });
    }

    #[test]
    fn ptanh_scan_gradcheck() {
        gradcheck_layer(1, true, |x, l| {
            std::iter::once(x.clone())
                .chain(l.eta.iter().cloned())
                .collect()
        });
    }

    #[test]
    fn matmul_scan_gradcheck() {
        gradcheck_layer(2, true, |x, l| vec![x.clone(), l.tw.clone()]);
    }

    #[test]
    fn bias_div_scan_gradcheck() {
        gradcheck_layer(2, true, |_, l| vec![l.tb.clone(), l.g.clone()]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_rows_panic() {
        let l = Layer::new(2, 2, 1);
        Tensor::ptpb_scan(&Tensor::zeros(&[5, 2]), l.values(true), 2);
    }
}
