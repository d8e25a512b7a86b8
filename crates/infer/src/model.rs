//! The compiled inference model and its one forward kernel.
//!
//! A frozen model compiles in two steps. [`CompiledLayer`] turns the raw
//! parameters (nominal, or under one variation sample) into `f64` design
//! values: crossbar weights, column sums `G`, and one first-order
//! recurrence `v ← a·v + b·u` per RC stage. A [`Kernel`] compiles those
//! into one number format, a [`Lane`] (`f64`, `f32` or `i32`), with the
//! section plan of that lane ([`SectionBank`]).
//!
//! There is one timestep body, [`Layer::step`]: crossbar → SO-LF sections
//! → `ptanh`, filter-major. Every buffer is `[filter][lane]` (state
//! `[slot][filter][lane]`), so per-filter coefficients are loop-invariant
//! scalars and the inner loops run over contiguous lanes and vectorize.
//! Blocks of [`XBAR_BLOCK`] lanes keep their crossbar sums in registers,
//! and a one-lane batch runs its section and `ptanh` loops flat. Every
//! lane runs the same operations in the same order whatever the batch
//! width, so results are bitwise identical across batch width, chunking,
//! thread count and served vs direct calls. Request-shaped entry points
//! ([`InferModel::run_batch_into`] and friends) validate their input and
//! return [`InferError`] instead of panicking.

use std::sync::Arc;

use crate::error::InferError;
use crate::precision::{fixed_section_decays, Lane, Precision};
use crate::variation::{LayerVariation, VariationSample};

/// Architecture and operating constants of a frozen 2-layer printed
/// temporal-processing model — everything needed to interpret a flat
/// parameter list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferSpec {
    /// Input feature count.
    pub input_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Class count.
    pub classes: usize,
    /// RC stages per learnable filter (1, 2 or 3).
    pub stages: usize,
    /// Nominal crossbar-coupling factor μ the filters were designed at.
    pub mu_nominal: f64,
    /// Temporal discretization Δt of the filter recurrence (s).
    pub dt: f64,
    /// Sense-stage scale applied to the final-step voltages.
    pub logit_scale: f64,
}

impl InferSpec {
    /// `(fan_in, fan_out)` of the two layers.
    pub fn layer_dims(&self) -> [(usize, usize); 2] {
        [(self.input_dim, self.hidden), (self.hidden, self.classes)]
    }

    /// Parameter tensors per layer: `θ_w, θ_b, θ_d`, then `log R, log C`
    /// per stage, then the four `ptanh` η vectors.
    pub fn params_per_layer(&self) -> usize {
        3 + 2 * self.stages + 4
    }

    /// Total parameter tensors in model order.
    pub fn param_count(&self) -> usize {
        2 * self.params_per_layer()
    }

    /// Element counts of every parameter tensor, in model parameter order
    /// (the order `PrintedModel::parameters` exposes).
    pub fn param_lens(&self) -> Vec<usize> {
        let mut lens = Vec::with_capacity(self.param_count());
        for (fan_in, fan_out) in self.layer_dims() {
            lens.push(fan_in * fan_out); // θ_w
            lens.push(fan_out); // θ_b
            lens.push(fan_out); // θ_d
            for _ in 0..self.stages {
                lens.push(fan_out); // log R
                lens.push(fan_out); // log C
            }
            for _ in 0..4 {
                lens.push(fan_out); // η₁..η₄
            }
        }
        lens
    }
}

/// Errors when compiling a parameter list into an [`InferModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// A dimension of the spec is zero.
    ZeroDimension,
    /// The stage count is not 1, 2 or 3.
    BadStageCount(usize),
    /// Parameter list length differs from the declared architecture.
    ParameterCountMismatch {
        /// Parameters the architecture needs.
        expected: usize,
        /// Parameters found.
        found: usize,
    },
    /// One parameter tensor has the wrong number of elements.
    ParameterShapeMismatch {
        /// Index in the parameter list.
        index: usize,
        /// Elements expected.
        expected: usize,
        /// Elements found.
        found: usize,
    },
    /// One parameter tensor contains a NaN or infinity — a frozen model
    /// must never serve non-finite weights.
    NonFiniteParameter {
        /// Index in the parameter list.
        index: usize,
    },
    /// A fixed-point format outside the supported fractional-bit range.
    BadQFormat {
        /// Fractional bits requested.
        frac_bits: u32,
    },
    /// A fixed-point format too fine for this architecture's fan-in: the
    /// crossbar's `i64` accumulator could overflow.
    QFormatOverflow {
        /// Fractional bits requested.
        frac_bits: u32,
        /// Finest format the architecture supports.
        max_frac_bits: u32,
    },
    /// A filter that does not decay: a nominal stage with decay `a`
    /// outside `[0, 1)` or an input gain `b` that is not finite and
    /// positive, or (`i32`) a quantized section that fails the Jury
    /// stability conditions. A biquad section reports its first stage.
    UnstableFilter {
        /// Layer index (0 = hidden).
        layer: usize,
        /// Stage index within the filter.
        stage: usize,
        /// Filter (output column) index within the layer.
        filter: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::ZeroDimension => write!(f, "zero-sized model dimension"),
            BuildError::BadStageCount(n) => write!(f, "unsupported filter stage count {n}"),
            BuildError::ParameterCountMismatch { expected, found } => write!(
                f,
                "parameter list has {found} tensors, architecture needs {expected}"
            ),
            BuildError::ParameterShapeMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "parameter {index} has {found} elements, architecture needs {expected}"
            ),
            BuildError::NonFiniteParameter { index } => {
                write!(f, "parameter {index} contains a non-finite value")
            }
            BuildError::BadQFormat { frac_bits } => {
                write!(f, "unsupported fixed-point format q{frac_bits}")
            }
            BuildError::QFormatOverflow {
                frac_bits,
                max_frac_bits,
            } => write!(
                f,
                "fixed-point format q{frac_bits} too fine for this fan-in \
                 (accumulator overflow; finest supported is q{max_frac_bits})"
            ),
            BuildError::UnstableFilter {
                layer,
                stage,
                filter,
            } => write!(
                f,
                "filter {filter} of layer {layer} does not decay at stage {stage}"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// One layer's `f64` design values: effective conductances, the column
/// normalization `G`, per-stage filter recurrence coefficients and initial
/// voltages, and the (possibly perturbed) η vectors. Every backend's
/// [`Layer`] compiles from this one quantization point.
#[derive(Debug, Clone)]
struct CompiledLayer {
    fan_in: usize,
    fan_out: usize,
    /// Effective `θ_w` `[fan_in × fan_out]` (noise applied if any).
    w: Vec<f64>,
    /// Effective `θ_b` `[fan_out]`.
    b: Vec<f64>,
    /// Column conductance sum `G` `[fan_out]`.
    g: Vec<f64>,
    /// Filter decay coefficient `a = RC/(μRC + Δt)` per stage `[fan_out]`.
    a: Vec<Vec<f64>>,
    /// Filter input coefficient `b = Δt/(μRC + Δt)` per stage `[fan_out]`.
    bc: Vec<Vec<f64>>,
    /// Initial stage voltage per stage `[fan_out]`.
    v0: Vec<Vec<f64>>,
    /// Effective η₁..η₄ `[fan_out]` each.
    eta: [Vec<f64>; 4],
}

impl CompiledLayer {
    /// Compiles a layer at nominal conditions or under one variation
    /// sample, replicating the design-time arithmetic exactly: `G` sums
    /// `|θ_w|` row-by-row before adding `|θ_b|`, `|θ_d|` and the `1e-12`
    /// floor, and the filter coefficients use `denom⁻¹·Δt` for `b` (the
    /// autograd expression) rather than the algebraically equal `Δt/denom`.
    fn compile(
        l: usize,
        params: &[Vec<f64>],
        spec: &InferSpec,
        noise: Option<&LayerVariation>,
    ) -> Self {
        let (fan_in, fan_out) = spec.layer_dims()[l];
        let p = &params[l * spec.params_per_layer()..];
        // `v ⊙ ε` under a variation sample, `v` at nominal.
        let vary = |v: &[f64], eps: Option<&Vec<f64>>| -> Vec<f64> {
            match eps {
                Some(e) => v.iter().zip(e).map(|(v, e)| v * e).collect(),
                None => v.to_vec(),
            }
        };
        // Stage R or C values from their log leaves.
        let exp = |v: &[f64]| -> Vec<f64> { v.iter().map(|v| v.exp()).collect() };
        let w = vary(&p[0], noise.map(|n| &n.eps_w));
        let b = vary(&p[1], noise.map(|n| &n.eps_b));
        let d = vary(&p[2], noise.map(|n| &n.eps_d));
        let mut g = vec![0.0; fan_out];
        for i in 0..fan_in {
            for (j, gj) in g.iter_mut().enumerate() {
                *gj += w[i * fan_out + j].abs();
            }
        }
        for (j, gj) in g.iter_mut().enumerate() {
            *gj += b[j].abs();
            *gj += d[j].abs();
            *gj += 1e-12;
        }

        let (mut a, mut bc, mut v0) = (Vec::new(), Vec::new(), Vec::new());
        for s in 0..spec.stages {
            let r = vary(&exp(&p[3 + 2 * s]), noise.map(|n| &n.eps_r[s]));
            let c = vary(&exp(&p[4 + 2 * s]), noise.map(|n| &n.eps_c[s]));
            let (a_s, bc_s) = (0..fan_out)
                .map(|j| {
                    let rc = r[j] * c[j];
                    let mu = noise.map_or(spec.mu_nominal, |n| n.mu[s][j]);
                    let denom = mu * rc + spec.dt;
                    (rc / denom, denom.powf(-1.0) * spec.dt)
                })
                .unzip();
            a.push(a_s);
            bc.push(bc_s);
            v0.push(noise.map_or_else(|| vec![0.0; fan_out], |n| n.v0[s].clone()));
        }
        CompiledLayer {
            fan_in,
            fan_out,
            w,
            b,
            g,
            a,
            bc,
            v0,
            eta: std::array::from_fn(|k| {
                vary(&p[3 + 2 * spec.stages + k], noise.map(|n| &n.eps_eta[k]))
            }),
        }
    }

    /// The first `(stage, filter)` that does not decay: `a ∉ [0, 1)`, or
    /// `b` not finite and positive. `μ < 1`, a NaN `μ` or an overflowing
    /// `exp(log R)` all land here instead of serving a diverging filter.
    fn unstable_stage(&self) -> Option<(usize, usize)> {
        let decays = |(s, j): (usize, usize)| {
            let (a, b) = (self.a[s][j], self.bc[s][j]);
            (0.0..1.0).contains(&a) && b.is_finite() && b > 0.0
        };
        (0..self.a.len())
            .flat_map(|s| (0..self.fan_out).map(move |j| (s, j)))
            .find(|&c| !decays(c))
    }
}

/// One SO-LF section of a layer's plan, with per-filter coefficients.
/// The first section reads the crossbar output; each later one reads the
/// output slot of the section before it.
#[derive(Debug, Clone)]
pub(crate) enum Section<T> {
    /// `v ← a·v + b·u` in state slot `slot`.
    First { slot: usize, a: Vec<T>, b: Vec<T> },
    /// `y ← b₀·u + p₁·y₁ + p₂·y₂` over slots 0 (`y₁ = y_{n−1}`, the
    /// output) and 1 (`y₂ = y_{n−2}`); always the first section.
    Biquad { b0: Vec<T>, p1: Vec<T>, p2: Vec<T> },
}

impl<T> Section<T> {
    /// The slot holding this section's output.
    fn out_slot(&self) -> usize {
        match self {
            Section::First { slot, .. } => *slot,
            Section::Biquad { .. } => 0,
        }
    }
}

/// The section plan and state layout of one layer's SO-LF bank, shared by
/// a compiled [`Layer`] and every scratch it runs on. State is
/// `[slot][filter][lane]` with one slot per stage. In direct form the
/// slots are the stage voltages. In the biquad plan slots 0–1 hold the
/// delayed outputs `[y_{n−1}, y_{n−2}]` and slot 2 the tail voltage `v₃`;
/// they convert to and from stage voltages exactly
/// (`v₁ = (v₂ − a₂·v₂')/b₂` and its inverse).
#[derive(Debug)]
struct SectionBank {
    stages: usize,
    fan_out: usize,
    /// The biquad's raw stage-2 decay `a₂` and input gain `b₂`, which the
    /// slot conversion divides by; empty when no biquad runs.
    a2: Vec<f64>,
    b2: Vec<f64>,
}

impl SectionBank {
    /// The plan for `layer` in lane `T`: direct form, or with
    /// [`Lane::BIQUAD`] (and at least two stages) a biquad of stages 1–2
    /// plus a first-order tail for stage 3, with `p₁ = a₁+a₂`,
    /// `p₂ = −a₁a₂` and `b₀ = b₁b₂` composed in `f64`.
    fn plan<T: Lane>(layer: &CompiledLayer, ctx: T::Ctx) -> (SectionBank, Vec<Section<T>>) {
        let (a, b) = (&layer.a, &layer.bc);
        let stages = a.len();
        let coeff = |v: &[f64]| v.iter().map(|&c| T::coeff(ctx, c)).collect();
        let pairs = |x: &[f64], y: &[f64], f: fn(f64, f64) -> f64| {
            x.iter()
                .zip(y)
                .map(|(&x, &y)| T::coeff(ctx, f(x, y)))
                .collect()
        };
        let first = |s: usize| Section::First {
            slot: s,
            a: coeff(&a[s]),
            b: coeff(&b[s]),
        };
        let direct = !T::BIQUAD || stages == 1;
        let sections = if direct {
            (0..stages).map(first).collect()
        } else {
            let biquad = Section::Biquad {
                b0: pairs(&b[0], &b[1], |x, y| x * y),
                p1: pairs(&a[0], &a[1], |x, y| x + y),
                p2: pairs(&a[0], &a[1], |x, y| -(x * y)),
            };
            std::iter::once(biquad)
                .chain((stages == 3).then(|| first(2)))
                .collect()
        };
        let stage2 = |v: &[Vec<f64>]| if direct { Vec::new() } else { v[1].clone() };
        let bank = SectionBank {
            stages,
            fan_out: layer.fan_out,
            a2: stage2(a),
            b2: stage2(b),
        };
        (bank, sections)
    }

    /// Every `(slot, filter)` of one lane's state, in `[slot][filter]`
    /// order.
    fn cells(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.stages).flat_map(move |s| (0..self.fan_out).map(move |j| (s, j)))
    }

    /// Stage `s`'s voltage for filter `j`, from its state slots.
    fn wire(&self, s: usize, j: usize, slot: impl Fn(usize) -> f64) -> f64 {
        match (self.a2.is_empty(), s) {
            (false, 0) => (slot(0) - self.a2[j] * slot(1)) / self.b2[j],
            (false, 1) => slot(0),
            _ => slot(s),
        }
    }

    /// State slot `s` for filter `j`, from its stage voltages (the inverse
    /// of [`wire`](Self::wire)).
    fn slot(&self, s: usize, j: usize, wire: impl Fn(usize) -> f64) -> f64 {
        match (self.a2.is_empty(), s) {
            (false, 0) => wire(1),
            (false, 1) => (wire(1) - self.b2[j] * wire(0)) / self.a2[j],
            _ => wire(s),
        }
    }
}

/// One layer compiled for lane type `T`.
#[derive(Debug, Clone)]
struct Layer<T: Lane> {
    fan_in: usize,
    fan_out: usize,
    /// Crossbar weights `[fan_in × fan_out]` row-major.
    w: Vec<T>,
    /// Crossbar constant per output `[fan_out]`.
    col: Vec<T::Col>,
    sections: Vec<Section<T>>,
    eta: [Vec<T>; 4],
    /// Initial state `[slot][filter]`.
    v0: Vec<T>,
    bank: Arc<SectionBank>,
}

impl<T: Lane> Layer<T> {
    fn compile(layer: &CompiledLayer, ctx: T::Ctx) -> Self {
        let (fan_in, fan_out) = (layer.fan_in, layer.fan_out);
        let (bank, sections) = SectionBank::plan::<T>(layer, ctx);
        let wire = |v: &[f64]| v.iter().map(|&x| T::from_wire(ctx, x)).collect();
        let v0 = (bank.cells())
            .map(|(s, j)| T::from_wire(ctx, bank.slot(s, j, |k| layer.v0[k][j])))
            .collect();
        Layer {
            fan_in,
            fan_out,
            w: (0..fan_in * fan_out)
                .map(|k| T::weight(ctx, layer.w[k], layer.g[k % fan_out]))
                .collect(),
            col: (0..fan_out)
                .map(|j| T::column(ctx, layer.b[j], layer.g[j]))
                .collect(),
            sections,
            eta: std::array::from_fn(|k| wire(&layer.eta[k])),
            v0,
            bank: Arc::new(bank),
        }
    }

    /// One timestep through the layer, filter-major: crossbar → sections
    /// → ptanh. `x` is `[fan_in][batch]`, the activation lands in
    /// `act[..fan_out × batch]` as `[fan_out][batch]`, and `states` holds
    /// the section state `[slot][filter][lane]`, updated in place.
    ///
    /// Every lane sees the same operations in the same order, so the
    /// vectorized lane loops and their scalar remainders round identically
    /// and a lane's result does not depend on the batch width.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        ctx: T::Ctx,
        x: &[T],
        batch: usize,
        xb: &mut [T],
        col: &mut [T::Acc],
        states: &mut [T],
        act: &mut [T],
    ) {
        let n = self.fan_out * batch;
        let xb = &mut xb[..n];
        self.crossbar(ctx, x, batch, xb, col);
        // The previous section's output slot; the crossbar feeds the first.
        let mut input = None;
        for sec in &self.sections {
            match sec {
                Section::First { slot, a, b } => {
                    let (head, rest) = states.split_at_mut(slot * n);
                    let u: &[T] = input.map_or(&*xb, |s: usize| &head[s * n..][..n]);
                    let coeff = a.iter().zip(b);
                    lanes(batch, coeff, &mut rest[..n], u, |(&a, &b), v, u| {
                        *v = T::first_order(ctx, a, b, *v, u)
                    });
                }
                Section::Biquad { b0, p1, p2 } => {
                    let (y1, rest) = states.split_at_mut(n);
                    let y2 = &mut rest[..n];
                    let coeff = b0.iter().zip(p1.iter().zip(p2));
                    let update = |(&b0, (&p1, &p2)): (&T, (&T, &T)), y1: &mut T, y2: &mut T, u| {
                        let y = T::biquad(ctx, b0, p1, p2, u, *y1, *y2);
                        *y2 = *y1;
                        *y1 = y;
                    };
                    if batch == 1 {
                        for (((y1, y2), &u), c) in y1.iter_mut().zip(y2).zip(&*xb).zip(coeff) {
                            update(c, y1, y2, u);
                        }
                    } else {
                        let rows = y1.chunks_exact_mut(batch).zip(y2.chunks_exact_mut(batch));
                        for ((r1, r2), (urow, c)) in rows.zip(xb.chunks_exact(batch).zip(coeff)) {
                            for ((y1, y2), &u) in r1.iter_mut().zip(r2).zip(urow) {
                                update(c, y1, y2, u);
                            }
                        }
                    }
                }
            }
            input = Some(sec.out_slot());
        }
        // ptanh: η₁ + η₂·tanh((V − η₃)·η₄) on the last section's output.
        let last = &states[input.unwrap_or(0) * n..][..n];
        let [e1, e2, e3, e4] = &self.eta;
        let eta = e1.iter().zip(e2).zip(e3.iter().zip(e4));
        lanes(
            batch,
            eta,
            &mut act[..n],
            last,
            |((&e1, &e2), (&e3, &e4)), o, v| *o = T::ptanh(ctx, [e1, e2, e3, e4], v),
        );
    }

    /// Crossbar, summed over `i` ascending (the mat-mul kernel's order)
    /// from [`Lane::acc_init`]. Whole blocks of [`XBAR_BLOCK`] lanes keep
    /// each output's sum in registers across the fan-in. The remaining
    /// lanes go one at a time through `col`, a contiguous `[fan_out]`
    /// accumulator, so every output of the lane sums at once.
    fn crossbar(&self, ctx: T::Ctx, x: &[T], batch: usize, xb: &mut [T], col: &mut [T::Acc]) {
        let (fi, fo) = (self.fan_in, self.fan_out);
        let blocked = batch - batch % XBAR_BLOCK;
        for (j, out) in xb.chunks_exact_mut(batch).enumerate() {
            let cj = self.col[j];
            for (k, block) in out[..blocked].chunks_exact_mut(XBAR_BLOCK).enumerate() {
                let mut acc = [T::acc_init(ctx, cj); XBAR_BLOCK];
                for i in 0..fi {
                    let wv = self.w[i * fo + j];
                    let xs = &x[i * batch + k * XBAR_BLOCK..][..XBAR_BLOCK];
                    for (a, &xv) in acc.iter_mut().zip(xs) {
                        *a = T::acc_add(*a, xv, wv);
                    }
                }
                for (o, a) in block.iter_mut().zip(acc) {
                    *o = T::acc_finish(ctx, a, cj);
                }
            }
        }
        let col = &mut col[..fo];
        for lane in blocked..batch {
            for (c, &cj) in col.iter_mut().zip(&self.col) {
                *c = T::acc_init(ctx, cj);
            }
            for (i, w_row) in self.w.chunks_exact(fo).enumerate() {
                let xv = x[i * batch + lane];
                for (c, &wv) in col.iter_mut().zip(w_row) {
                    *c = T::acc_add(*c, xv, wv);
                }
            }
            for (j, (&c, &cj)) in col.iter().zip(&self.col).enumerate() {
                xb[j * batch + lane] = T::acc_finish(ctx, c, cj);
            }
        }
    }
}

/// Applies `f(coeff, out, input)` to every element of two `[filter][lane]`
/// buffers, with `coeffs` yielding one coefficient set per filter. A
/// one-lane batch is laid out like a flat `[filter]` vector, so it runs
/// as one loop instead of a loop per one-element row.
#[inline(always)]
fn lanes<T: Copy, C: Copy>(
    batch: usize,
    coeffs: impl Iterator<Item = C>,
    out: &mut [T],
    input: &[T],
    f: impl Fn(C, &mut T, T),
) {
    if batch == 1 {
        for ((o, &u), c) in out.iter_mut().zip(input).zip(coeffs) {
            f(c, o, u);
        }
        return;
    }
    let rows = out.chunks_exact_mut(batch).zip(input.chunks_exact(batch));
    for ((orow, urow), c) in rows.zip(coeffs) {
        for (o, &u) in orow.iter_mut().zip(urow) {
            f(c, o, u);
        }
    }
}

/// Lanes per crossbar register block.
const XBAR_BLOCK: usize = 8;

/// The whole model compiled for lane type `T`.
#[derive(Debug, Clone)]
struct Kernel<T: Lane> {
    ctx: T::Ctx,
    input_dim: usize,
    layers: [Layer<T>; 2],
}

impl<T: Lane> Kernel<T> {
    fn compile(layers: &[CompiledLayer; 2], input_dim: usize, ctx: T::Ctx) -> Self {
        Kernel {
            ctx,
            input_dim,
            layers: std::array::from_fn(|l| Layer::compile(&layers[l], ctx)),
        }
    }

    /// Buffers for `batch` lanes, every lane's state at V₀.
    fn make_scratch(&self, batch: usize) -> Buffers<T> {
        let [l0, l1] = &self.layers;
        let zeros = |n: usize| vec![T::default(); n * batch];
        let max_w = l0.fan_out.max(l1.fan_out);
        let mut s = Buffers {
            ctx: self.ctx,
            x0: zeros(self.input_dim),
            xb: zeros(max_w),
            col: vec![T::Acc::default(); max_w],
            hidden_act: zeros(l0.fan_out),
            class_act: zeros(l1.fan_out),
            states: [zeros(l0.v0.len()), zeros(l1.v0.len())],
            banks: [Arc::clone(&l0.bank), Arc::clone(&l1.bank)],
        };
        self.reset(&mut s, batch);
        s
    }

    /// Sets every lane's state to this instance's V₀.
    fn reset(&self, s: &mut Buffers<T>, batch: usize) {
        for (layer, states) in self.layers.iter().zip(&mut s.states) {
            for (row, &v) in states.chunks_exact_mut(batch).zip(&layer.v0) {
                row.fill(v);
            }
        }
    }

    /// Advances every layer by one timestep. `src` is `[batch × input_dim]`;
    /// afterwards `s.class_act` holds the final-layer output.
    fn advance(&self, src: &[f64], s: &mut Buffers<T>, batch: usize) {
        let (ctx, dim) = (self.ctx, self.input_dim);
        for (i, row) in s.x0.chunks_exact_mut(batch).enumerate() {
            for (lane, o) in row.iter_mut().enumerate() {
                *o = T::from_wire(ctx, src[lane * dim + i]);
            }
        }
        let [st0, st1] = &mut s.states;
        let (xb, col) = (&mut s.xb, &mut s.col);
        let [l0, l1] = &self.layers;
        l0.step(ctx, &s.x0, batch, xb, col, st0, &mut s.hidden_act);
        l1.step(ctx, &s.hidden_act, batch, xb, col, st1, &mut s.class_act);
    }

    /// Writes the sense-stage logits (final-layer activation × `scale`)
    /// into `out`, `[batch × classes]`.
    fn read_logits(&self, s: &Buffers<T>, batch: usize, scale: f64, out: &mut [f64]) {
        let classes = self.layers[1].fan_out;
        for (j, row) in s.class_act.chunks_exact(batch).enumerate() {
            for (lane, &v) in row.iter().enumerate() {
                out[lane * classes + j] = T::to_wire(self.ctx, v) * scale;
            }
        }
    }
}

/// A kernel's working memory, filter-major (`[filter][lane]`).
#[derive(Debug, Clone)]
struct Buffers<T: Lane> {
    ctx: T::Ctx,
    /// Model input transposed to `[input_dim][batch]`.
    x0: Vec<T>,
    /// Crossbar output, `[max_width][batch]`.
    xb: Vec<T>,
    /// Crossbar accumulator for lanes outside the register blocks,
    /// `[max_width]`.
    col: Vec<T::Acc>,
    /// Hidden-layer activation, `[hidden][batch]`.
    hidden_act: Vec<T>,
    /// Class-layer activation, `[classes][batch]`.
    class_act: Vec<T>,
    /// Section state per layer, `[slot][filter][lane]`.
    states: [Vec<T>; 2],
    /// Section banks shared with the kernel, for the wire conversion.
    banks: [Arc<SectionBank>; 2],
}

impl<T: Lane> Buffers<T> {
    /// Calls `f(i, v)` for each stage voltage `v` of lane `lane`, where `i`
    /// is its index in `[layer][stage][filter]` wire order.
    fn each_wire(&self, lane: usize, batch: usize, mut f: impl FnMut(usize, f64)) {
        let mut i = 0;
        for (bank, st) in self.banks.iter().zip(&self.states) {
            let fo = bank.fan_out;
            for (s, j) in bank.cells() {
                let slot = |k: usize| T::to_wire(self.ctx, st[(k * fo + j) * batch + lane]);
                f(i, bank.wire(s, j, slot));
                i += 1;
            }
        }
    }

    fn import(&mut self, lane: usize, batch: usize, state: &[f64]) {
        let mut at = 0;
        for (bank, st) in self.banks.iter().zip(&mut self.states) {
            let fo = bank.fan_out;
            for (s, j) in bank.cells() {
                let v = bank.slot(s, j, |k| state[at + k * fo + j]);
                st[(s * fo + j) * batch + lane] = T::from_wire(self.ctx, v);
            }
            at += bank.stages * fo;
        }
    }
}

/// Preallocated, reusable working memory for one batch size. Create once
/// with [`InferModel::make_scratch`] and reuse across forwards — the hot
/// loop performs no allocation.
///
/// A scratch carries the precision of the model that created it: its
/// internal buffers are `f64`, `f32` or quantized `i32` depending on the
/// backend, and the batch entry points reject a scratch whose precision
/// does not match the model's. The lane-state API below always speaks
/// `f64` wire format (stage voltages in `[layer][stage][filter]` order)
/// regardless of the backend, so sessions persist and migrate state the
/// same way at every precision.
#[derive(Debug, Clone)]
pub struct Scratch {
    batch: usize,
    repr: ScratchRepr,
}

#[derive(Debug, Clone)]
enum ScratchRepr {
    F64(Buffers<f64>),
    F32(Buffers<f32>),
    I32(Buffers<i32>),
}

/// Evaluates `$body` with `$s` bound to the backend's typed buffers.
macro_rules! with_buffers {
    ($repr:expr, $s:ident => $body:expr) => {
        match $repr {
            ScratchRepr::F64($s) => $body,
            ScratchRepr::F32($s) => $body,
            ScratchRepr::I32($s) => $body,
        }
    };
}

impl Scratch {
    /// The batch size this scratch was sized for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The precision of the model this scratch was created by.
    pub fn precision(&self) -> Precision {
        match &self.repr {
            ScratchRepr::F64(_) => Precision::F64,
            ScratchRepr::F32(_) => Precision::F32,
            ScratchRepr::I32(s) => Precision::I32(s.ctx),
        }
    }

    /// Length of one lane's flat resident filter state: the values of
    /// every `[layer][stage]` buffer that belong to a single batch lane,
    /// in `[layer][stage][filter]` order. Sessions persist exactly this
    /// many `f64`s between submissions.
    pub fn lane_state_len(&self) -> usize {
        with_buffers!(&self.repr, s => s.states.iter().map(|st| st.len()).sum::<usize>() / self.batch)
    }

    fn check_lane(&self, lane: usize, state_len: usize) -> Result<(), InferError> {
        if lane >= self.batch {
            return Err(InferError::ShapeMismatch {
                what: "state lane",
                expected: self.batch,
                found: lane,
            });
        }
        if state_len != self.lane_state_len() {
            return Err(InferError::ShapeMismatch {
                what: "lane state",
                expected: self.lane_state_len(),
                found: state_len,
            });
        }
        Ok(())
    }

    /// Copies lane `lane`'s filter states into `out` (flat
    /// `[layer][stage][filter]` wire order, [`Scratch::lane_state_len`]
    /// values). Quantized backends dequantize and convert their internal
    /// delayed-output state into stage voltages on the fly.
    ///
    /// # Errors
    ///
    /// [`InferError::ShapeMismatch`] on a lane out of range or an `out`
    /// of the wrong length; nothing is written on error.
    pub fn export_lane_state(&self, lane: usize, out: &mut [f64]) -> Result<(), InferError> {
        self.check_lane(lane, out.len())?;
        with_buffers!(&self.repr, s => s.each_wire(lane, self.batch, |i, v| out[i] = v));
        Ok(())
    }

    /// Writes a flat lane state (as produced by
    /// [`Scratch::export_lane_state`]) into lane `lane`'s filter states.
    /// Quantized backends convert the stage voltages to their internal
    /// state and re-quantize, so an export/import round trip is stable.
    ///
    /// # Errors
    ///
    /// [`InferError::ShapeMismatch`] on a lane out of range or a `state`
    /// of the wrong length; the scratch is untouched on error.
    pub fn import_lane_state(&mut self, lane: usize, state: &[f64]) -> Result<(), InferError> {
        self.check_lane(lane, state.len())?;
        with_buffers!(&mut self.repr, s => s.import(lane, self.batch, state));
        Ok(())
    }

    /// Root-mean-square of lane `lane`'s resident filter-state values (in
    /// wire format, summed in `[layer][stage][filter]` order) — a cheap
    /// scalar summary of filter excitation that drift detectors can track
    /// over time. NaN states propagate into the result (a non-finite RMS
    /// is itself a detection signal).
    ///
    /// # Errors
    ///
    /// Returns [`InferError::ShapeMismatch`] if `lane` is out of range.
    pub fn lane_state_rms(&self, lane: usize) -> Result<f64, InferError> {
        self.check_lane(lane, self.lane_state_len())?;
        let mut sum_sq = 0.0;
        with_buffers!(&self.repr, s => s.each_wire(lane, self.batch, |_, v| sum_sq += v * v));
        let n = self.lane_state_len();
        Ok(if n == 0 {
            0.0
        } else {
            (sum_sq / n as f64).sqrt()
        })
    }

    /// Whether every filter-state value is finite. One non-finite input
    /// sample poisons the `a⊙state + b⊙input` recurrence permanently, so
    /// watchdogs (and the guarded-path tests) use this to audit state
    /// health between forwards. The `i32` backend is finite by
    /// construction (saturating arithmetic), so it always reports `true`.
    pub fn states_are_finite(&self) -> bool {
        with_buffers!(&self.repr, s => s.states.iter().flatten().all(|&v| Lane::is_finite(v)))
    }
}

/// A frozen, graph-free printed model: plain weight buffers plus a
/// compiled execution plan. Plain data throughout, so it is `Send + Sync`
/// and one instance can serve every worker thread of a Monte-Carlo
/// fan-out.
#[derive(Debug, Clone)]
pub struct InferModel {
    spec: InferSpec,
    /// The nominal parameter list, shared by every perturbed instance so
    /// each compiles from the nominal values.
    params: Arc<[Vec<f64>]>,
    /// Initial lane state in wire format, `[layer][stage][filter]`.
    v0: Vec<f64>,
    precision: Precision,
    backend: Backend,
}

/// The compiled kernel at the model's precision. Every backend compiles
/// from the same `f64` [`CompiledLayer`]s, so `perturbed()` requantizes
/// for free after recompiling the layers.
#[derive(Debug, Clone)]
enum Backend {
    F64(Kernel<f64>),
    F32(Kernel<f32>),
    I32(Kernel<i32>),
}

/// Evaluates `$body` with `$k` bound to the backend's kernel and `$s` to
/// the scratch's buffers of the same lane type.
macro_rules! with_kernel {
    ($backend:expr, $repr:expr, $k:ident, $s:ident => $body:expr) => {
        match ($backend, $repr) {
            (Backend::F64($k), ScratchRepr::F64($s)) => $body,
            (Backend::F32($k), ScratchRepr::F32($s)) => $body,
            (Backend::I32($k), ScratchRepr::I32($s)) => $body,
            _ => unreachable!("scratch precision checked before kernel dispatch"),
        }
    };
}

impl Backend {
    fn compile(
        precision: Precision,
        spec: &InferSpec,
        layers: &[CompiledLayer; 2],
    ) -> Result<Backend, BuildError> {
        let dim = spec.input_dim;
        Ok(match precision {
            Precision::F64 => Backend::F64(Kernel::compile(layers, dim, ())),
            Precision::F32 => Backend::F32(Kernel::compile(layers, dim, ())),
            Precision::I32(q) => {
                q.validate_for(spec.input_dim.max(spec.hidden))?;
                Backend::I32(Kernel::compile(layers, dim, q))
            }
        })
    }
}

impl Layer<i32> {
    /// The first `(stage, filter)` whose quantized section fails the Jury
    /// conditions ([`fixed_section_decays`]); a section reports its first
    /// stage, which is its output slot.
    fn unstable_section(&self) -> Option<(usize, usize)> {
        let first_bad = |sec| (0..self.fan_out).find(|&j| !fixed_section_decays(sec, j));
        (self.sections.iter()).find_map(|sec| Some((sec.out_slot(), first_bad(sec)?)))
    }
}

impl InferModel {
    /// Compiles a flat parameter list (in `PrintedModel::parameters`
    /// order) into an executable model at the reference `f64` precision.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when the parameters are inconsistent with
    /// the declared architecture, contain non-finite values, or compile to
    /// a filter that does not decay.
    pub fn build(spec: InferSpec, params: &[Vec<f64>]) -> Result<Self, BuildError> {
        Self::build_with_precision(spec, params, Precision::F64)
    }

    /// Like [`InferModel::build`] but compiling the execution kernels at
    /// the given [`Precision`]. The raw parameters are kept regardless of
    /// backend (quantization happens from their `f64` compilation), so
    /// the lane-state wire format and `reset_lane_state` are
    /// precision-independent.
    ///
    /// # Errors
    ///
    /// The [`BuildError`]s of [`InferModel::build`], plus
    /// [`BuildError::QFormatOverflow`] if an `i32` format is too fine for
    /// the architecture's fan-in and [`BuildError::UnstableFilter`] if a
    /// nominal filter section does not decay at this precision.
    pub fn build_with_precision(
        spec: InferSpec,
        params: &[Vec<f64>],
        precision: Precision,
    ) -> Result<Self, BuildError> {
        if spec.input_dim == 0 || spec.hidden == 0 || spec.classes == 0 {
            return Err(BuildError::ZeroDimension);
        }
        if !(1..=3).contains(&spec.stages) {
            return Err(BuildError::BadStageCount(spec.stages));
        }
        let lens = spec.param_lens();
        if params.len() != lens.len() {
            return Err(BuildError::ParameterCountMismatch {
                expected: lens.len(),
                found: params.len(),
            });
        }
        for (index, (p, &expected)) in params.iter().zip(&lens).enumerate() {
            if p.len() != expected {
                return Err(BuildError::ParameterShapeMismatch {
                    index,
                    expected,
                    found: p.len(),
                });
            }
            if p.iter().any(|v| !v.is_finite()) {
                return Err(BuildError::NonFiniteParameter { index });
            }
        }

        Self::compile(spec, params.into(), precision, None)
    }

    /// Compiles `params` into a model at `precision`, under one variation
    /// sample or at nominal conditions. A nominal compile also checks that
    /// every filter decays, and (`i32`) that every quantized section does.
    fn compile(
        spec: InferSpec,
        params: Arc<[Vec<f64>]>,
        precision: Precision,
        sample: Option<&VariationSample>,
    ) -> Result<Self, BuildError> {
        let layers: [CompiledLayer; 2] = std::array::from_fn(|l| {
            CompiledLayer::compile(l, &params, &spec, sample.map(|s| &s.layers[l]))
        });
        let backend = Backend::compile(precision, &spec, &layers)?;
        // Only the nominal design is checked: a variation sample models one
        // printed instance as it comes out.
        let nominal = if sample.is_none() { &layers[..] } else { &[] };
        for (layer, compiled) in nominal.iter().enumerate() {
            let fixed = match &backend {
                Backend::I32(k) => k.layers[layer].unstable_section(),
                _ => None,
            };
            if let Some((stage, filter)) = compiled.unstable_stage().or(fixed) {
                return Err(BuildError::UnstableFilter {
                    layer,
                    stage,
                    filter,
                });
            }
        }
        Ok(InferModel {
            v0: (layers.iter().flat_map(|l| l.v0.concat())).collect(),
            spec,
            params,
            precision,
            backend,
        })
    }

    /// The architecture this model was compiled for.
    pub fn spec(&self) -> &InferSpec {
        &self.spec
    }

    /// The precision the execution kernels were compiled at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Compiles a per-trial instance under one variation sample. The raw
    /// weights are shared nominal values, so perturbing a perturbed
    /// instance yields the same result as perturbing the original.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::SpecMismatch`] if the sample's shape does not
    /// match this architecture (samples drawn via [`VariationSample::draw`]
    /// on the same spec always match).
    pub fn perturbed(&self, sample: &VariationSample) -> Result<InferModel, InferError> {
        if sample.layers.len() != 2 {
            return Err(InferError::SpecMismatch {
                what: "variation layers",
                expected: 2,
                found: sample.layers.len(),
            });
        }
        for ((fan_in, fan_out), lv) in self.spec.layer_dims().into_iter().zip(&sample.layers) {
            if lv.eps_w.len() != fan_in * fan_out {
                return Err(InferError::SpecMismatch {
                    what: "crossbar variation",
                    expected: fan_in * fan_out,
                    found: lv.eps_w.len(),
                });
            }
            if lv.eps_r.len() != self.spec.stages {
                return Err(InferError::SpecMismatch {
                    what: "filter stages",
                    expected: self.spec.stages,
                    found: lv.eps_r.len(),
                });
            }
        }
        // Q-format fan-in validation depends only on the spec, which this
        // model already passed at build time.
        let params = Arc::clone(&self.params);
        Ok(
            Self::compile(self.spec, params, self.precision, Some(sample))
                .expect("precision was validated against this spec at build time"),
        )
    }

    /// Allocates working memory for batches of exactly `batch` sequences,
    /// with every lane's filter states at this instance's initial stage
    /// voltages (zero at nominal, the sampled V₀ when perturbed), so a
    /// fresh scratch is a fresh stream for
    /// [`run_chunk_into`](Self::run_chunk_into).
    ///
    /// # Errors
    ///
    /// Returns [`InferError::ZeroBatch`] if `batch == 0`.
    pub fn make_scratch(&self, batch: usize) -> Result<Scratch, InferError> {
        if batch == 0 {
            return Err(InferError::ZeroBatch);
        }
        let repr = match &self.backend {
            Backend::F64(k) => ScratchRepr::F64(k.make_scratch(batch)),
            Backend::F32(k) => ScratchRepr::F32(k.make_scratch(batch)),
            Backend::I32(k) => ScratchRepr::I32(k.make_scratch(batch)),
        };
        Ok(Scratch { batch, repr })
    }

    /// Length of one stream's flat resident filter state
    /// (`stages × (hidden + classes)` values) — what a session persists
    /// between submissions.
    pub fn lane_state_len(&self) -> usize {
        self.spec.stages * (self.spec.hidden + self.spec.classes)
    }

    /// Writes this instance's initial stage voltages (zero at nominal, the
    /// sampled V₀ when perturbed) into a flat lane state, in the
    /// `[layer][stage][filter]` order of [`Scratch::export_lane_state`].
    ///
    /// # Errors
    ///
    /// [`InferError::ShapeMismatch`] if `state` is not
    /// [`lane_state_len`](Self::lane_state_len) long.
    pub fn reset_lane_state(&self, state: &mut [f64]) -> Result<(), InferError> {
        if state.len() != self.lane_state_len() {
            return Err(InferError::ShapeMismatch {
                what: "lane state",
                expected: self.lane_state_len(),
                found: state.len(),
            });
        }
        state.copy_from_slice(&self.v0);
        Ok(())
    }

    /// Resets the filter states in `scratch` to this instance's initial
    /// stage voltages (zero at nominal, the sampled V₀ when perturbed).
    fn reset_states(&self, scratch: &mut Scratch) {
        with_kernel!(&self.backend, &mut scratch.repr, k, s => k.reset(s, scratch.batch))
    }

    /// Advances every layer by one timestep. `src` is `[batch × input_dim]`;
    /// afterwards the scratch's class activation holds the final-layer
    /// output. Callers must have validated the scratch against this model
    /// (every public entry point does).
    fn advance(&self, src: &[f64], scratch: &mut Scratch) {
        with_kernel!(&self.backend, &mut scratch.repr, k, s => k.advance(src, s, scratch.batch))
    }

    /// Writes the sense-stage logits (final-layer activation × logit
    /// scale) into `out`.
    fn read_logits(&self, scratch: &Scratch, out: &mut [f64]) {
        let scale = self.spec.logit_scale;
        with_kernel!(&self.backend, &scratch.repr, k, s => k.read_logits(s, scratch.batch, scale, out))
    }

    /// Runs `batch` sequences through the model using preallocated
    /// scratch, writing final-step logits `[batch × classes]` into `out`.
    ///
    /// `steps` is time-major contiguous data: timestep `t`, sequence `b`,
    /// feature `i` lives at `((t * batch) + b) * input_dim + i`.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::ZeroBatch`] if `batch == 0`, and
    /// [`InferError::ShapeMismatch`] if `steps` is empty or not a whole
    /// number of timesteps, if `scratch` was sized for a different batch,
    /// or if `out` is not `[batch × classes]`. On error nothing is
    /// written: `scratch` and `out` are untouched.
    pub fn run_batch_into(
        &self,
        steps: &[f64],
        batch: usize,
        scratch: &mut Scratch,
        out: &mut [f64],
    ) -> Result<(), InferError> {
        self.validate_batch(steps, batch, scratch, out)?;
        self.reset_states(scratch);
        self.run_chunk_into(steps, batch, scratch, out)
    }

    /// Like [`InferModel::run_batch_into`] but **resumes from the filter
    /// states already resident in `scratch`** instead of resetting them —
    /// the streaming path for `batch` streams at once, one timestep per
    /// call or any longer chunk. Feeding a window in chunks through this
    /// call, starting from a fresh [`make_scratch`](Self::make_scratch),
    /// produces exactly the logits of one
    /// [`run_batch_into`](Self::run_batch_into) on the concatenated
    /// window, because the per-lane recurrence is identical; only the
    /// call granularity differs.
    ///
    /// # NaN poisoning hazard
    ///
    /// This path trusts its inputs. Because the decayed previous state is
    /// part of every `a⊙state + b⊙input` update, a **single** NaN or ±∞
    /// sample poisons the affected lane's filter states permanently,
    /// however clean the later input. Put an
    /// [`InputGuard::sanitize`](crate::InputGuard::sanitize) in front of
    /// each timestep for raw sensor streams;
    /// [`Scratch::states_are_finite`] audits state health between calls.
    ///
    /// # Errors
    ///
    /// The same [`InferError`]s as [`InferModel::run_batch_into`]; on
    /// error nothing is written and the resident states are untouched.
    pub fn run_chunk_into(
        &self,
        steps: &[f64],
        batch: usize,
        scratch: &mut Scratch,
        out: &mut [f64],
    ) -> Result<(), InferError> {
        self.validate_batch(steps, batch, scratch, out)?;
        let step_len = batch * self.spec.input_dim;
        for chunk in steps.chunks_exact(step_len) {
            self.advance(chunk, scratch);
        }
        self.read_logits(scratch, out);
        Ok(())
    }

    fn validate_batch(
        &self,
        steps: &[f64],
        batch: usize,
        scratch: &Scratch,
        out: &[f64],
    ) -> Result<(), InferError> {
        if batch == 0 {
            return Err(InferError::ZeroBatch);
        }
        let step_len = batch * self.spec.input_dim;
        if steps.is_empty() || !steps.len().is_multiple_of(step_len) {
            return Err(InferError::ShapeMismatch {
                what: "steps",
                expected: step_len,
                found: steps.len(),
            });
        }
        if scratch.batch != batch {
            return Err(InferError::ShapeMismatch {
                what: "scratch batch",
                expected: batch,
                found: scratch.batch,
            });
        }
        let found = scratch.precision();
        if found != self.precision {
            return Err(InferError::PrecisionMismatch {
                expected: self.precision,
                found,
            });
        }
        if out.len() != batch * self.spec.classes {
            return Err(InferError::ShapeMismatch {
                what: "output buffer",
                expected: batch * self.spec.classes,
                found: out.len(),
            });
        }
        Ok(())
    }

    /// Convenience wrapper around [`InferModel::run_batch_into`] that
    /// allocates its own scratch and output.
    ///
    /// # Errors
    ///
    /// Returns the same [`InferError`]s as [`InferModel::run_batch_into`].
    pub fn run_batch(&self, steps: &[f64], batch: usize) -> Result<Vec<f64>, InferError> {
        let mut scratch = self.make_scratch(batch)?;
        let mut out = vec![0.0; batch * self.spec.classes];
        self.run_batch_into(steps, batch, &mut scratch, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny hand-specified spec: 1 input, 2 hidden, 2 classes, order 1.
    fn tiny_spec() -> InferSpec {
        InferSpec {
            input_dim: 1,
            hidden: 2,
            classes: 2,
            stages: 1,
            mu_nominal: 1.15,
            dt: 0.01,
            logit_scale: 4.0,
        }
    }

    fn tiny_params(spec: &InferSpec) -> Vec<Vec<f64>> {
        spec.param_lens()
            .iter()
            .enumerate()
            .map(|(k, &n)| (0..n).map(|i| 0.2 + 0.1 * (k + i) as f64).collect())
            .collect()
    }

    /// Parameters in the ranges a trained model has: RC near Δt and
    /// ptanh arguments of order one, so no stage saturates and a one-ulp
    /// difference anywhere reaches the logits.
    fn varied_params(spec: &InferSpec) -> Vec<Vec<f64>> {
        let per_layer = spec.params_per_layer();
        let filters = 3..3 + 2 * spec.stages;
        spec.param_lens()
            .iter()
            .enumerate()
            .map(|(k, &n)| {
                let role = k % per_layer;
                (0..n)
                    .map(|i| {
                        let u = ((k * 7 + i * 13) as f64 * 0.61).sin();
                        match role {
                            0..=2 => u,                                  // θ_w, θ_b, θ_d
                            r if filters.contains(&r) => -2.3 + 0.5 * u, // log R, log C
                            r if r == per_layer - 3 => 1.0 + 0.2 * u,    // η₂
                            r if r == per_layer - 1 => 2.0 + u,          // η₄
                            _ => 0.1 * u,                                // η₁, η₃
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn build_validates_shapes() {
        let spec = tiny_spec();
        let mut params = tiny_params(&spec);
        assert!(InferModel::build(spec, &params).is_ok());

        params[0].push(1.0);
        assert!(matches!(
            InferModel::build(spec, &params),
            Err(BuildError::ParameterShapeMismatch { index: 0, .. })
        ));
        params[0].pop();

        params.pop();
        assert!(matches!(
            InferModel::build(spec, &params),
            Err(BuildError::ParameterCountMismatch { .. })
        ));
    }

    #[test]
    fn build_rejects_non_finite() {
        let spec = tiny_spec();
        let mut params = tiny_params(&spec);
        params[1][0] = f64::NAN;
        assert!(matches!(
            InferModel::build(spec, &params),
            Err(BuildError::NonFiniteParameter { index: 1 })
        ));
    }

    #[test]
    fn build_rejects_bad_stage_count() {
        let mut spec = tiny_spec();
        spec.stages = 4;
        assert!(matches!(
            InferModel::build(spec, &tiny_params(&spec)),
            Err(BuildError::BadStageCount(4))
        ));
    }

    /// Every backend, at the default and a coarse fixed-point format.
    fn precisions() -> [Precision; 4] {
        let q = |f| Precision::I32(crate::precision::QFormat::new(f).unwrap());
        [Precision::F64, Precision::F32, q(24), q(12)]
    }

    /// The first filter of the hidden layer does not decay at stage 0.
    const FIRST_UNSTABLE: BuildError = BuildError::UnstableFilter {
        layer: 0,
        stage: 0,
        filter: 0,
    };

    /// A filter that does not decay is rejected at build, at every
    /// precision: `μ = 0.5` (`a ≈ 2`), a NaN `μ`, and a finite `log R`
    /// whose `exp` overflows (`a = ∞/∞`).
    #[test]
    fn build_rejects_filters_that_do_not_decay() {
        for p in precisions() {
            for mu in [0.5, f64::NAN] {
                let spec = InferSpec {
                    mu_nominal: mu,
                    ..tiny_spec()
                };
                let err = InferModel::build_with_precision(spec, &tiny_params(&spec), p);
                assert_eq!(err.unwrap_err(), FIRST_UNSTABLE, "{p}, μ = {mu}");
            }
            let spec = tiny_spec();
            let mut params = tiny_params(&spec);
            params[3] = vec![800.0; spec.hidden]; // log R, layer 0, stage 0
            let err = InferModel::build_with_precision(spec, &params, p);
            assert_eq!(err.unwrap_err(), FIRST_UNSTABLE, "{p}, log R = 800");
        }
    }

    /// A pole inside the unit circle in `f64` that rounds onto it in Q2.29
    /// builds in `f64` and `f32` but not in `i32`: stages with
    /// `RC = e²¹ s` at `μ = 1` have `a = 1 − 8e-12`, as a first-order
    /// section and as a biquad of two.
    #[test]
    fn fixed_point_rejects_poles_that_round_onto_the_unit_circle() {
        for stages in [1, 2] {
            let spec = InferSpec {
                stages,
                mu_nominal: 1.0,
                ..tiny_spec()
            };
            let mut params = tiny_params(&spec);
            for p in &mut params[3..3 + 2 * stages] {
                p.fill(10.5); // log R and log C of layer 0
            }
            for p in precisions() {
                let built = InferModel::build_with_precision(spec, &params, p);
                match p {
                    Precision::I32(_) => assert_eq!(built.unwrap_err(), FIRST_UNSTABLE, "{p}"),
                    _ => assert!(built.is_ok(), "{p}"),
                }
            }
        }
    }

    /// Lane `k` of a `B`-lane run equals that sequence run alone, bitwise,
    /// at every precision and at widths that land lanes in the crossbar's
    /// register blocks, in their scalar remainder and in the vector loops'
    /// tails.
    #[test]
    fn batched_equals_per_sequence() {
        let t_len = 8;
        for (stages, precision) in (1..=3).flat_map(|s| precisions().map(|p| (s, p))) {
            let spec = InferSpec {
                input_dim: 2,
                hidden: 3,
                stages,
                ..tiny_spec()
            };
            let model =
                InferModel::build_with_precision(spec, &varied_params(&spec), precision).unwrap();
            for batch in [1, 2, 3, 31, 32, 33] {
                // Lane b's sequence, time-major `[t][input_dim]`.
                let series: Vec<Vec<f64>> = (0..batch)
                    .map(|b| {
                        (0..t_len * spec.input_dim)
                            .map(|k| ((b * 7 + k) as f64 * 0.37).sin())
                            .collect()
                    })
                    .collect();
                let mut steps = Vec::with_capacity(t_len * batch * spec.input_dim);
                for t in 0..t_len {
                    for s in &series {
                        steps.extend_from_slice(&s[t * spec.input_dim..][..spec.input_dim]);
                    }
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let batched = model.run_batch(&steps, batch).unwrap();
                for (b, s) in series.iter().enumerate() {
                    let single = model.run_batch(s, 1).unwrap();
                    assert_eq!(
                        bits(&single),
                        bits(&batched[b * spec.classes..(b + 1) * spec.classes]),
                        "{precision} order {stages}: lane {b} of {batch} diverged from its solo run"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let spec = tiny_spec();
        let model = InferModel::build(spec, &tiny_params(&spec)).unwrap();
        let steps: Vec<f64> = (0..16).map(|t| (t as f64 * 0.21).cos()).collect();
        let mut scratch = model.make_scratch(1).unwrap();
        let mut first = vec![0.0; spec.classes];
        let mut second = vec![0.0; spec.classes];
        model
            .run_batch_into(&steps, 1, &mut scratch, &mut first)
            .unwrap();
        model
            .run_batch_into(&steps, 1, &mut scratch, &mut second)
            .unwrap();
        assert_eq!(first, second, "scratch reuse must not leak state");
    }

    #[test]
    fn quantized_backends_track_reference() {
        use crate::precision::QFormat;
        let spec = tiny_spec();
        let params = tiny_params(&spec);
        let steps: Vec<f64> = (0..24).map(|t| (t as f64 * 0.31).sin() * 0.8).collect();
        let reference = InferModel::build(spec, &params)
            .unwrap()
            .run_batch(&steps, 1)
            .unwrap();
        for precision in [Precision::F32, Precision::I32(QFormat::DEFAULT)] {
            let model = InferModel::build_with_precision(spec, &params, precision).unwrap();
            assert_eq!(model.precision(), precision);
            let got = model.run_batch(&steps, 1).unwrap();
            for (g, r) in got.iter().zip(&reference) {
                assert!(
                    (g - r).abs() < 1e-3,
                    "{precision} diverged: {g} vs {r} (all: {got:?} vs {reference:?})"
                );
            }
        }
    }

    #[test]
    fn mismatched_scratch_precision_is_rejected() {
        let spec = tiny_spec();
        let params = tiny_params(&spec);
        let f64_model = InferModel::build(spec, &params).unwrap();
        let f32_model = InferModel::build_with_precision(spec, &params, Precision::F32).unwrap();
        let mut scratch = f32_model.make_scratch(1).unwrap();
        assert_eq!(scratch.precision(), Precision::F32);
        let mut out = vec![0.0; spec.classes];
        let err = f64_model
            .run_batch_into(&[0.5, 0.25], 1, &mut scratch, &mut out)
            .unwrap_err();
        assert!(matches!(
            err,
            InferError::PrecisionMismatch {
                expected: Precision::F64,
                found: Precision::F32,
            }
        ));
    }

    #[test]
    fn too_fine_qformat_is_rejected_at_build() {
        use crate::precision::QFormat;
        let spec = InferSpec {
            hidden: 300,
            ..tiny_spec()
        };
        let params: Vec<Vec<f64>> = spec.param_lens().iter().map(|&n| vec![0.1; n]).collect();
        let err = InferModel::build_with_precision(spec, &params, Precision::I32(QFormat::DEFAULT))
            .unwrap_err();
        assert!(matches!(err, BuildError::QFormatOverflow { .. }));
        // A coarser format fits the same architecture.
        let coarse = Precision::I32(QFormat::new(16).unwrap());
        assert!(InferModel::build_with_precision(spec, &params, coarse).is_ok());
    }

    #[test]
    fn logit_scale_is_applied() {
        let spec = tiny_spec();
        let mut scaled = spec;
        scaled.logit_scale = 8.0;
        let params = tiny_params(&spec);
        let a = InferModel::build(spec, &params).unwrap();
        let b = InferModel::build(scaled, &params).unwrap();
        let steps = [0.4, -0.2, 0.9];
        let la = a.run_batch(&steps, 1).unwrap();
        let lb = b.run_batch(&steps, 1).unwrap();
        for (x, y) in la.iter().zip(&lb) {
            assert!((y - 2.0 * x).abs() < 1e-15);
        }
    }
}
