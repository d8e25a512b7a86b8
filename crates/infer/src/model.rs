//! The compiled inference model: flat weight buffers, precompiled filter
//! coefficients, and the allocation-free batched forward pass.
//!
//! The `f64` kernel runs filter-major: every buffer is `[filter][lane]`
//! (filter states `[stage][filter][lane]`), so the per-filter coefficients
//! are loop-invariant scalars and the inner loops run over contiguous
//! batch lanes and vectorize. The per-element arithmetic is the autograd
//! forward's: the crossbar sums `x·θ_w` in ascending input order, adds
//! `θ_b` and divides by `G`; the filter stages update
//! `v ← a·v + b·input` in a chain, so the state *is* the wire-format stage
//! voltages; and `ptanh` uses [`tanh_f64`], within 4 ulp of `f64::tanh`.
//! Logits match the autograd forward within 1e-9 and are bitwise
//! identical across batch width, chunking, thread count and served vs
//! direct calls.
//!
//! Every request-shaped entry point ([`InferModel::run_batch_into`] and
//! friends) validates its input and returns [`InferError`] — the serving
//! layer sheds malformed requests instead of panicking.

use crate::error::InferError;
use crate::precision::{KernelF32, KernelI32, Precision, ScratchF32, ScratchI32};
use crate::tanh::tanh_f64;
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
        }
    }
}

impl std::error::Error for BuildError {}

/// Raw (uncompiled) per-layer weights, kept so perturbed instances always
/// compile from the nominal values.
#[derive(Debug, Clone)]
struct LayerParams {
    fan_in: usize,
    fan_out: usize,
    theta_w: Vec<f64>,
    theta_b: Vec<f64>,
    theta_d: Vec<f64>,
    /// Nominal stage resistances `exp(log R)`, `[stage][filter]`.
    r: Vec<Vec<f64>>,
    /// Nominal stage capacitances `exp(log C)`, `[stage][filter]`.
    c: Vec<Vec<f64>>,
    eta: [Vec<f64>; 4],
}

/// One layer compiled for execution: effective conductances, the column
/// normalization `G`, per-stage filter recurrence coefficients and initial
/// voltages, and the (possibly perturbed) η vectors.
#[derive(Debug, Clone)]
pub(crate) struct CompiledLayer {
    pub(crate) fan_in: usize,
    pub(crate) fan_out: usize,
    /// Effective `θ_w` `[fan_in × fan_out]` (noise applied if any).
    pub(crate) w: Vec<f64>,
    /// Effective `θ_b` `[fan_out]`.
    pub(crate) b: Vec<f64>,
    /// Column conductance sum `G` `[fan_out]`.
    pub(crate) g: Vec<f64>,
    /// Filter decay coefficient `a = RC/(μRC + Δt)` per stage `[fan_out]`.
    pub(crate) a: Vec<Vec<f64>>,
    /// Filter input coefficient `b = Δt/(μRC + Δt)` per stage `[fan_out]`.
    pub(crate) bc: Vec<Vec<f64>>,
    /// Initial stage voltage per stage `[fan_out]`.
    pub(crate) v0: Vec<Vec<f64>>,
    /// Effective η₁..η₄ `[fan_out]` each.
    pub(crate) eta: [Vec<f64>; 4],
}

impl CompiledLayer {
    /// Compiles a layer at nominal conditions or under one variation
    /// sample, replicating the design-time arithmetic exactly: `G` sums
    /// `|θ_w|` row-by-row before adding `|θ_b|`, `|θ_d|` and the `1e-12`
    /// floor, and the filter coefficients use `denom⁻¹·Δt` for `b` (the
    /// autograd expression) rather than the algebraically equal `Δt/denom`.
    fn compile(p: &LayerParams, spec: &InferSpec, noise: Option<&LayerVariation>) -> Self {
        let (fan_in, fan_out) = (p.fan_in, p.fan_out);
        let mut w = p.theta_w.clone();
        let mut b = p.theta_b.clone();
        let mut d = p.theta_d.clone();
        if let Some(n) = noise {
            for (v, e) in w.iter_mut().zip(&n.eps_w) {
                *v *= e;
            }
            for (v, e) in b.iter_mut().zip(&n.eps_b) {
                *v *= e;
            }
            for (v, e) in d.iter_mut().zip(&n.eps_d) {
                *v *= e;
            }
        }
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

        let mut a = Vec::with_capacity(spec.stages);
        let mut bc = Vec::with_capacity(spec.stages);
        let mut v0 = Vec::with_capacity(spec.stages);
        for s in 0..spec.stages {
            let mut a_s = vec![0.0; fan_out];
            let mut bc_s = vec![0.0; fan_out];
            for j in 0..fan_out {
                let mut r = p.r[s][j];
                let mut c = p.c[s][j];
                if let Some(n) = noise {
                    r *= n.eps_r[s][j];
                    c *= n.eps_c[s][j];
                }
                let rc = r * c;
                let mu = match noise {
                    Some(n) => n.mu[s][j],
                    None => spec.mu_nominal,
                };
                let denom = mu * rc + spec.dt;
                a_s[j] = rc / denom;
                bc_s[j] = denom.powf(-1.0) * spec.dt;
            }
            a.push(a_s);
            bc.push(bc_s);
            v0.push(match noise {
                Some(n) => n.v0[s].clone(),
                None => vec![0.0; fan_out],
            });
        }

        let eta = std::array::from_fn(|k| {
            let mut e = p.eta[k].clone();
            if let Some(n) = noise {
                for (v, eps) in e.iter_mut().zip(&n.eps_eta[k]) {
                    *v *= eps;
                }
            }
            e
        });

        CompiledLayer {
            fan_in,
            fan_out,
            w,
            b,
            g,
            a,
            bc,
            v0,
            eta,
        }
    }

    /// One timestep through the layer, filter-major: crossbar → filter
    /// stages → ptanh. `x` is `[fan_in][batch]`, the activation lands in
    /// `act[..fan_out × batch]` as `[fan_out][batch]`, and `states` holds
    /// the stage voltages `[stage][filter][lane]`, updated in place.
    ///
    /// Every lane sees the same operations in the same order, with no
    /// `mul_add`, so the vectorized lane loops and their scalar remainders
    /// round identically and a lane's result does not depend on the
    /// batch width. A one-lane batch is already laid out like a lane-major
    /// one, so its stage and ptanh loops run flat over the filters instead
    /// of paying a loop per one-element row.
    fn step(
        &self,
        x: &[f64],
        batch: usize,
        xb: &mut [f64],
        col: &mut [f64],
        states: &mut [f64],
        act: &mut [f64],
    ) {
        let n = self.fan_out * batch;
        let xb = &mut xb[..n];
        self.crossbar(x, batch, xb, col);
        // Filter stages: v ← a·v + b·input, chained; stage s reads the
        // voltage stage s−1 just produced.
        for s in 0..self.a.len() {
            let (prev, rest) = states.split_at_mut(s * n);
            let input: &[f64] = if s == 0 { xb } else { &prev[(s - 1) * n..] };
            let coeff = self.a[s].iter().zip(&self.bc[s]);
            let state = &mut rest[..n];
            if batch == 1 {
                for ((v, &iv), (&av, &bv)) in state.iter_mut().zip(input).zip(coeff) {
                    *v = av * *v + bv * iv;
                }
                continue;
            }
            let rows = state.chunks_exact_mut(batch).zip(input.chunks_exact(batch));
            for ((vrow, irow), (&av, &bv)) in rows.zip(coeff) {
                for (v, &iv) in vrow.iter_mut().zip(irow) {
                    *v = av * *v + bv * iv;
                }
            }
        }
        // ptanh: η₁ + η₂·tanh((V − η₃)·η₄).
        let last = &states[(self.a.len() - 1) * n..][..n];
        let [e1, e2, e3, e4] = &self.eta;
        let eta = e1.iter().zip(e2).zip(e3.iter().zip(e4));
        if batch == 1 {
            for ((o, &v), ((&e1, &e2), (&e3, &e4))) in act[..n].iter_mut().zip(last).zip(eta) {
                *o = e1 + e2 * tanh_f64((v - e3) * e4);
            }
            return;
        }
        let rows = act[..n]
            .chunks_exact_mut(batch)
            .zip(last.chunks_exact(batch));
        for ((arow, vrow), ((&e1, &e2), (&e3, &e4))) in rows.zip(eta) {
            for (o, &v) in arow.iter_mut().zip(vrow) {
                *o = e1 + e2 * tanh_f64((v - e3) * e4);
            }
        }
    }

    /// Crossbar `y = (Σᵢ x·θ_w + θ_b) / G`, summed over `i` ascending (the
    /// mat-mul kernel's order) from `0.0`. Whole blocks of [`XBAR_BLOCK`]
    /// lanes keep each output's sum in registers across the fan-in. The
    /// remaining lanes go one at a time through `col`, a contiguous
    /// `[fan_out]` accumulator, so every output of the lane sums at once.
    fn crossbar(&self, x: &[f64], batch: usize, xb: &mut [f64], col: &mut [f64]) {
        let (fi, fo) = (self.fan_in, self.fan_out);
        let blocked = batch - batch % XBAR_BLOCK;
        for (j, out) in xb.chunks_exact_mut(batch).enumerate() {
            let (bj, gj) = (self.b[j], self.g[j]);
            for (k, block) in out[..blocked].chunks_exact_mut(XBAR_BLOCK).enumerate() {
                let mut acc = [0.0; XBAR_BLOCK];
                for i in 0..fi {
                    let wv = self.w[i * fo + j];
                    let xs = &x[i * batch + k * XBAR_BLOCK..][..XBAR_BLOCK];
                    for (a, &xv) in acc.iter_mut().zip(xs) {
                        *a += xv * wv;
                    }
                }
                for (o, a) in block.iter_mut().zip(acc) {
                    *o = (a + bj) / gj;
                }
            }
        }
        let col = &mut col[..fo];
        for lane in blocked..batch {
            col.fill(0.0);
            for (i, w_row) in self.w.chunks_exact(fo).enumerate() {
                let xv = x[i * batch + lane];
                for (c, &wv) in col.iter_mut().zip(w_row) {
                    *c += xv * wv;
                }
            }
            let coeff = self.b.iter().zip(&self.g);
            for (j, (&c, (&bj, &gj))) in col.iter().zip(coeff).enumerate() {
                xb[j * batch + lane] = (c + bj) / gj;
            }
        }
    }
}

/// Lanes per crossbar register block.
const XBAR_BLOCK: usize = 8;

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
    F64(SoaScratchF64),
    F32(ScratchF32),
    I32(ScratchI32),
}

/// The `f64` backend's buffers, filter-major (`[filter][lane]`, a
/// structure of arrays) like the `f32` kernel's.
#[derive(Debug, Clone)]
struct SoaScratchF64 {
    /// Model input transposed to `[input_dim][batch]`.
    x0: Vec<f64>,
    /// Crossbar output, `[max_width][batch]`.
    xb: Vec<f64>,
    /// Crossbar accumulator for lanes outside the register blocks,
    /// `[max_width]`.
    col: Vec<f64>,
    /// Hidden-layer activation, `[hidden][batch]`.
    hidden_act: Vec<f64>,
    /// Class-layer activation, `[classes][batch]`.
    class_act: Vec<f64>,
    /// Stage voltages per layer, `[stage][filter][lane]`. Row `w` of a
    /// layer is wire-format entry `w` of every lane's state.
    states: [Vec<f64>; 2],
}

impl SoaScratchF64 {
    /// Each lane's wire-format state values, in `[layer][stage][filter]`
    /// order: the `lane` column of every state row.
    fn lane_values(&self, lane: usize, batch: usize) -> impl Iterator<Item = &f64> {
        self.states
            .iter()
            .flat_map(move |st| st[lane..].iter().step_by(batch))
    }
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
            ScratchRepr::I32(s) => Precision::I32(s.qformat()),
        }
    }

    /// Length of one lane's flat resident filter state: the values of
    /// every `[layer][stage]` buffer that belong to a single batch lane,
    /// in `[layer][stage][filter]` order. Sessions persist exactly this
    /// many `f64`s between submissions.
    pub fn lane_state_len(&self) -> usize {
        match &self.repr {
            ScratchRepr::F64(s) => s.states.iter().map(|st| st.len() / self.batch).sum(),
            ScratchRepr::F32(s) => s.lane_state_len(),
            ScratchRepr::I32(s) => s.lane_state_len(),
        }
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
        match &self.repr {
            ScratchRepr::F64(s) => {
                for (o, &v) in out.iter_mut().zip(s.lane_values(lane, self.batch)) {
                    *o = v;
                }
            }
            ScratchRepr::F32(s) => s.export_lane_state(lane, self.batch, out),
            ScratchRepr::I32(s) => s.export_lane_state(lane, self.batch, out),
        }
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
        let batch = self.batch;
        match &mut self.repr {
            ScratchRepr::F64(s) => {
                let slots = s
                    .states
                    .iter_mut()
                    .flat_map(|st| st[lane..].iter_mut().step_by(batch));
                for (slot, &v) in slots.zip(state) {
                    *slot = v;
                }
            }
            ScratchRepr::F32(s) => s.import_lane_state(lane, batch, state),
            ScratchRepr::I32(s) => s.import_lane_state(lane, batch, state),
        }
        Ok(())
    }

    /// Root-mean-square of lane `lane`'s resident filter-state values (in
    /// wire format) — a cheap scalar summary of filter excitation that
    /// drift detectors can track over time. NaN states propagate into the
    /// result (a non-finite RMS is itself a detection signal).
    ///
    /// # Errors
    ///
    /// Returns [`InferError::ShapeMismatch`] if `lane` is out of range.
    pub fn lane_state_rms(&self, lane: usize) -> Result<f64, InferError> {
        if lane >= self.batch {
            return Err(InferError::ShapeMismatch {
                what: "state lane",
                expected: self.batch,
                found: lane,
            });
        }
        Ok(match &self.repr {
            ScratchRepr::F64(s) => {
                let mut sum_sq = 0.0;
                let mut n = 0usize;
                for &v in s.lane_values(lane, self.batch) {
                    sum_sq += v * v;
                    n += 1;
                }
                if n == 0 {
                    0.0
                } else {
                    (sum_sq / n as f64).sqrt()
                }
            }
            ScratchRepr::F32(s) => s.lane_state_rms(lane, self.batch),
            ScratchRepr::I32(s) => s.lane_state_rms(lane, self.batch),
        })
    }

    /// Whether every filter-state value is finite. One non-finite input
    /// sample poisons the `a⊙state + b⊙input` recurrence permanently, so
    /// watchdogs (and the guarded-path tests) use this to audit state
    /// health between forwards. The `i32` backend is finite by
    /// construction (saturating arithmetic), so it always reports `true`.
    pub fn states_are_finite(&self) -> bool {
        match &self.repr {
            ScratchRepr::F64(s) => s.states.iter().flatten().all(|v| v.is_finite()),
            ScratchRepr::F32(s) => s.states_are_finite(),
            ScratchRepr::I32(_) => true,
        }
    }
}

/// A frozen, graph-free printed model: plain weight buffers plus a
/// compiled execution plan. Plain data throughout, so it is `Send + Sync`
/// and one instance can serve every worker thread of a Monte-Carlo
/// fan-out.
#[derive(Debug, Clone)]
pub struct InferModel {
    spec: InferSpec,
    raw: [LayerParams; 2],
    layers: [CompiledLayer; 2],
    precision: Precision,
    backend: Backend,
}

/// The compiled execution backend. `F64` runs [`CompiledLayer::step`]
/// on the compiled layers themselves; the reduced-precision kernels are
/// compiled *from* them (a single quantization point), so `perturbed()`
/// requantizes for free after recompiling the layers.
#[derive(Debug, Clone)]
enum Backend {
    F64,
    F32(KernelF32),
    I32(KernelI32),
}

impl Backend {
    fn compile(
        precision: Precision,
        spec: &InferSpec,
        layers: &[CompiledLayer; 2],
    ) -> Result<Backend, BuildError> {
        match precision {
            Precision::F64 => Ok(Backend::F64),
            Precision::F32 => Ok(Backend::F32(KernelF32::compile(layers, spec.input_dim))),
            Precision::I32(q) => {
                q.validate_for(spec.input_dim.max(spec.hidden))?;
                Ok(Backend::I32(KernelI32::compile(layers, spec.input_dim, q)))
            }
        }
    }
}

impl InferModel {
    /// Compiles a flat parameter list (in `PrintedModel::parameters`
    /// order) into an executable model at the reference `f64` precision.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when the parameters are inconsistent with
    /// the declared architecture or contain non-finite values.
    pub fn build(spec: InferSpec, params: &[Vec<f64>]) -> Result<Self, BuildError> {
        Self::build_with_precision(spec, params, Precision::F64)
    }

    /// Like [`InferModel::build`] but compiling the execution kernels at
    /// the given [`Precision`]. The raw parameters and the f64 compiled
    /// layers are kept regardless of backend (quantization happens from
    /// them), so the lane-state wire format and `reset_lane_state` are
    /// precision-independent.
    ///
    /// # Errors
    ///
    /// The [`BuildError`]s of [`InferModel::build`], plus
    /// [`BuildError::QFormatOverflow`] if an `i32` format is too fine for
    /// the architecture's fan-in.
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

        let per_layer = spec.params_per_layer();
        let raw: [LayerParams; 2] = std::array::from_fn(|l| {
            let (fan_in, fan_out) = spec.layer_dims()[l];
            let base = l * per_layer;
            let mut r = Vec::with_capacity(spec.stages);
            let mut c = Vec::with_capacity(spec.stages);
            for s in 0..spec.stages {
                r.push(params[base + 3 + 2 * s].iter().map(|v| v.exp()).collect());
                c.push(
                    params[base + 3 + 2 * s + 1]
                        .iter()
                        .map(|v| v.exp())
                        .collect(),
                );
            }
            let eta_base = base + 3 + 2 * spec.stages;
            LayerParams {
                fan_in,
                fan_out,
                theta_w: params[base].clone(),
                theta_b: params[base + 1].clone(),
                theta_d: params[base + 2].clone(),
                r,
                c,
                eta: std::array::from_fn(|k| params[eta_base + k].clone()),
            }
        });
        let layers = std::array::from_fn(|l| CompiledLayer::compile(&raw[l], &spec, None));
        let backend = Backend::compile(precision, &spec, &layers)?;
        Ok(InferModel {
            spec,
            raw,
            layers,
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
        for (raw, lv) in self.raw.iter().zip(&sample.layers) {
            if lv.eps_w.len() != raw.fan_in * raw.fan_out {
                return Err(InferError::SpecMismatch {
                    what: "crossbar variation",
                    expected: raw.fan_in * raw.fan_out,
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
        let layers = std::array::from_fn(|l| {
            CompiledLayer::compile(&self.raw[l], &self.spec, Some(&sample.layers[l]))
        });
        // Q-format fan-in validation depends only on the spec, which this
        // model already passed at build time.
        let backend = Backend::compile(self.precision, &self.spec, &layers)
            .expect("precision was validated against this spec at build time");
        Ok(InferModel {
            spec: self.spec,
            raw: self.raw.clone(),
            layers,
            precision: self.precision,
            backend,
        })
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
            Backend::F64 => {
                let max_w = self.spec.hidden.max(self.spec.classes);
                ScratchRepr::F64(SoaScratchF64 {
                    x0: vec![0.0; self.spec.input_dim * batch],
                    xb: vec![0.0; max_w * batch],
                    col: vec![0.0; max_w],
                    hidden_act: vec![0.0; self.spec.hidden * batch],
                    class_act: vec![0.0; self.spec.classes * batch],
                    states: std::array::from_fn(|l| {
                        let fan_out = self.spec.layer_dims()[l].1;
                        vec![0.0; self.spec.stages * fan_out * batch]
                    }),
                })
            }
            Backend::F32(k) => ScratchRepr::F32(k.make_scratch(batch)),
            Backend::I32(k) => ScratchRepr::I32(k.make_scratch(batch)),
        };
        let mut scratch = Scratch { batch, repr };
        self.reset_states(&mut scratch);
        Ok(scratch)
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
        let mut at = 0;
        for layer in &self.layers {
            for v0 in &layer.v0 {
                state[at..at + layer.fan_out].copy_from_slice(v0);
                at += layer.fan_out;
            }
        }
        Ok(())
    }

    /// Resets the filter states in `scratch` to this instance's initial
    /// stage voltages (zero at nominal, the sampled V₀ when perturbed).
    fn reset_states(&self, scratch: &mut Scratch) {
        match (&self.backend, &mut scratch.repr) {
            (Backend::F64, ScratchRepr::F64(sc)) => {
                let batch = scratch.batch;
                for (layer, states) in self.layers.iter().zip(sc.states.iter_mut()) {
                    let v0 = layer.v0.iter().flatten();
                    for (row, &v) in states.chunks_exact_mut(batch).zip(v0) {
                        row.fill(v);
                    }
                }
            }
            (Backend::F32(k), ScratchRepr::F32(sc)) => k.reset(sc, scratch.batch),
            (Backend::I32(k), ScratchRepr::I32(sc)) => k.reset(sc, scratch.batch),
            _ => unreachable!("scratch precision checked before kernel dispatch"),
        }
    }

    /// Advances every layer by one timestep. `src` is `[batch × input_dim]`;
    /// afterwards the scratch's class activation holds the final-layer
    /// output. Callers must have validated the scratch against this model
    /// (every public entry point does).
    fn advance(&self, src: &[f64], scratch: &mut Scratch) {
        let batch = scratch.batch;
        match (&self.backend, &mut scratch.repr) {
            (Backend::F64, ScratchRepr::F64(sc)) => {
                let dim = self.spec.input_dim;
                for (i, row) in sc.x0.chunks_exact_mut(batch).enumerate() {
                    for (lane, o) in row.iter_mut().enumerate() {
                        *o = src[lane * dim + i];
                    }
                }
                let [st0, st1] = &mut sc.states;
                let (xb, col) = (&mut sc.xb, &mut sc.col);
                self.layers[0].step(&sc.x0, batch, xb, col, st0, &mut sc.hidden_act);
                self.layers[1].step(&sc.hidden_act, batch, xb, col, st1, &mut sc.class_act);
            }
            (Backend::F32(k), ScratchRepr::F32(sc)) => k.advance(src, sc, batch),
            (Backend::I32(k), ScratchRepr::I32(sc)) => k.advance(src, sc, batch),
            _ => unreachable!("scratch precision checked before kernel dispatch"),
        }
    }

    /// Writes the sense-stage logits (final-layer activation × logit
    /// scale) into `out`.
    fn read_logits(&self, scratch: &Scratch, out: &mut [f64]) {
        match (&self.backend, &scratch.repr) {
            (Backend::F64, ScratchRepr::F64(sc)) => {
                let classes = self.spec.classes;
                for (j, row) in sc.class_act.chunks_exact(scratch.batch).enumerate() {
                    for (lane, &v) in row.iter().enumerate() {
                        out[lane * classes + j] = v * self.spec.logit_scale;
                    }
                }
            }
            (Backend::F32(k), ScratchRepr::F32(sc)) => {
                k.read_logits(sc, scratch.batch, self.spec.logit_scale, out)
            }
            (Backend::I32(k), ScratchRepr::I32(sc)) => {
                k.read_logits(sc, scratch.batch, self.spec.logit_scale, out)
            }
            _ => unreachable!("scratch precision checked before kernel dispatch"),
        }
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

    /// Lane `k` of a `B`-lane run equals that sequence run alone, bitwise,
    /// at widths that land lanes in the crossbar's register blocks, in
    /// their scalar remainder and in the vector loops' tails.
    #[test]
    fn batched_equals_per_sequence() {
        let t_len = 8;
        for stages in 1..=3 {
            let spec = InferSpec {
                input_dim: 2,
                hidden: 3,
                stages,
                ..tiny_spec()
            };
            let model = InferModel::build(spec, &varied_params(&spec)).unwrap();
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
                        "order {stages}: lane {b} of {batch} diverged from its solo run"
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
            input_dim: 1,
            hidden: 300,
            classes: 2,
            stages: 1,
            mu_nominal: 1.15,
            dt: 0.01,
            logit_scale: 4.0,
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
