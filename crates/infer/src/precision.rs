//! Reduced-precision inference backends: `f32` and `i32` fixed-point
//! compilations of the crossbar → SO-LF → ptanh pipeline.
//!
//! The `f64` reference path in [`model`](crate::model) runs filter-major
//! too, but keeps the autograd kernels' per-element arithmetic: the SO-LF
//! bank as a chain of first-order stages whose state is the wire-format
//! stage voltages, and the crossbar divided by `G` after summing. Its only
//! departure is a vectorizable `tanh` within 4 ulp of `f64::tanh`, so it
//! matches autograd within 1e-9. The backends here trade that fidelity
//! for throughput and hardware fidelity:
//!
//! * **Biquad reformulation.** A cascade of first-order RC sections
//!   `v_n = a·v_{n−1} + b·x_n` collapses algebraically into the canonical
//!   `[b0, b1, b2, a1, a2]` biquad form. For two stages,
//!   `y_n = b₁b₂·x_n + (a₁+a₂)·y_{n−1} − a₁a₂·y_{n−2}` — a pure-gain
//!   numerator (no input history), so the internal state is just the two
//!   delayed outputs. Order 1 keeps its single first-order section and
//!   order 3 runs the biquad plus a first-order tail. The decomposition
//!   is computed **once at compile time** ([`SectionBank::from_layer`])
//!   from the same `(Δt, RC, μ)` parameterization the f64 path uses, so
//!   `build()` and `perturbed()` both get it for free.
//! * **SoA filter-major layout.** Quantized buffers are laid out
//!   `[filter][lane]`: the per-filter coefficients become loop-invariant
//!   scalars and the inner loop runs over contiguous batch lanes with
//!   `chunks_exact` — no bounds checks, no branches, exactly the shape
//!   LLVM autovectorizes. Layer activations are produced filter-major
//!   too, so the second layer consumes them without a transpose; only
//!   the model input (one transpose per step) and the final logits are
//!   converted.
//! * **Folded normalization.** The crossbar's `1/G` column normalization
//!   is folded into the quantized weights at compile time, removing the
//!   per-element division from the hot loop.
//! * **Wire-format state.** Sessions and the serving tier persist lane
//!   state as `f64` stage voltages (`[layer][stage][filter]`). The
//!   delayed-output internal state converts to and from that wire format
//!   exactly (`v₁ = (v₂ − a₂·v₂')/b₂` and its inverse — the divisors are
//!   strictly inside `(0, 1)`), so quantized engines round-trip through
//!   the existing `StreamSession`/`Scratch` APIs unchanged, and chunked
//!   submission stays bit-identical to a one-shot run *within* a backend.
//!
//! The `i32` backend uses a configurable signal Q-format ([`QFormat`],
//! default Q7.24), `i64` intermediates with round-to-nearest rescaling,
//! and **saturating** arithmetic everywhere — biquad state clamps at the
//! representable range instead of wrapping (anti-windup), so a fault
//! burst can pin a filter at full scale but never flip its sign or wrap.
//! Section coefficients are held at fixed Q2.29 (they are bounded by 2)
//! and the `tanh` lookup table at Q1.30, independent of the signal
//! format.

use std::sync::Arc;

use crate::model::{BuildError, CompiledLayer};

/// Fixed-point signal format for the `i32` backend: values are stored as
/// `round(x · 2^frac_bits)` in a saturating `i32`, i.e. `Q(31−f).f` with
/// representable range `±2^(31−f)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    frac_bits: u32,
}

impl QFormat {
    /// Fewest fractional bits supported (coarser would leave the `tanh`
    /// LUT without interpolation bits).
    pub const MIN_FRAC_BITS: u32 = 8;
    /// Most fractional bits supported (finer would overflow the `i64`
    /// crossbar accumulator even at fan-in 1).
    pub const MAX_FRAC_BITS: u32 = 28;
    /// The default serving format, Q7.24: ±128 range, ~6e-8 resolution.
    pub const DEFAULT: QFormat = QFormat { frac_bits: 24 };

    /// A format with `frac_bits` fractional bits.
    ///
    /// # Errors
    ///
    /// [`BuildError::BadQFormat`] outside
    /// [`MIN_FRAC_BITS`](Self::MIN_FRAC_BITS)`..=`[`MAX_FRAC_BITS`](Self::MAX_FRAC_BITS).
    pub fn new(frac_bits: u32) -> Result<QFormat, BuildError> {
        if !(Self::MIN_FRAC_BITS..=Self::MAX_FRAC_BITS).contains(&frac_bits) {
            return Err(BuildError::BadQFormat { frac_bits });
        }
        Ok(QFormat { frac_bits })
    }

    /// Fractional bits of the format.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Largest magnitude the format can represent (`≈ 2^(31−frac_bits)`).
    pub fn range(&self) -> f64 {
        i32::MAX as f64 / (1i64 << self.frac_bits) as f64
    }

    /// The finest format whose `i64` crossbar accumulator cannot overflow
    /// at `fan_in` (one product per input plus the bias term, each bounded
    /// by `2^(31+f)` since folded weights satisfy `|w/G| ≤ 1`).
    pub fn max_frac_bits_for(fan_in: usize) -> u32 {
        let terms = (fan_in + 1).next_power_of_two().trailing_zeros();
        31u32.saturating_sub(terms).min(Self::MAX_FRAC_BITS)
    }

    /// Checks this format against an architecture's widest fan-in.
    ///
    /// # Errors
    ///
    /// [`BuildError::QFormatOverflow`] when `fan_in` products could
    /// overflow the accumulator at this many fractional bits.
    pub fn validate_for(&self, fan_in: usize) -> Result<(), BuildError> {
        let max = Self::max_frac_bits_for(fan_in);
        if self.frac_bits > max {
            return Err(BuildError::QFormatOverflow {
                frac_bits: self.frac_bits,
                max_frac_bits: max,
            });
        }
        Ok(())
    }
}

impl Default for QFormat {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl std::fmt::Display for QFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.frac_bits)
    }
}

/// Which arithmetic an [`InferModel`](crate::InferModel) compiles its
/// kernels in. `F64` is the reference; `F32` and `I32` are the
/// throughput/hardware-fidelity backends of this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// The reference path: filter-major direct-form kernels that match
    /// the autograd forward within 1e-9 (its `tanh` is within 4 ulp of
    /// `f64::tanh`) and are bitwise identical across batch width,
    /// chunking, thread count and served vs direct calls.
    #[default]
    F64,
    /// Single-precision SoA kernels with a polynomial `tanh`.
    F32,
    /// Saturating fixed-point SoA kernels in the given signal format,
    /// with a LUT + linear-interpolation `tanh`.
    I32(QFormat),
}

impl Precision {
    /// Canonical lowercase name: `"f64"`, `"f32"`, `"i32q24"`, … — the
    /// spelling snapshots carry in their `precision` hint.
    pub fn name(&self) -> String {
        match self {
            Precision::F64 => "f64".into(),
            Precision::F32 => "f32".into(),
            Precision::I32(q) => format!("i32{q}"),
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// A precision string that could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrecisionParseError {
    input: String,
}

impl std::fmt::Display for PrecisionParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown precision {:?} (expected \"f64\", \"f32\", \"i32\" or \"i32q<bits>\" \
             with {}..={} fractional bits)",
            self.input,
            QFormat::MIN_FRAC_BITS,
            QFormat::MAX_FRAC_BITS
        )
    }
}

impl std::error::Error for PrecisionParseError {}

impl std::str::FromStr for Precision {
    type Err = PrecisionParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || PrecisionParseError { input: s.into() };
        match s {
            "f64" => Ok(Precision::F64),
            "f32" => Ok(Precision::F32),
            "i32" => Ok(Precision::I32(QFormat::DEFAULT)),
            _ => {
                let bits = s.strip_prefix("i32q").ok_or_else(err)?;
                let bits: u32 = bits.parse().map_err(|_| err())?;
                let q = QFormat::new(bits).map_err(|_| err())?;
                Ok(Precision::I32(q))
            }
        }
    }
}

/// The canonical section decomposition of one layer's SO-LF bank, in
/// `f64`: biquad coefficients, the optional first-order tail, the raw
/// stage-2 coefficients needed for wire-format state conversion, and the
/// initial internal (delayed-output) states.
///
/// Internal state layout is `[slot][filter]` with `stages` slots:
/// order 1 → `[v₁]`; order 2 → `[y_{n−1}, y_{n−2}]` (delayed biquad
/// outputs); order 3 → `[y_{n−1}, y_{n−2}, v₃]`.
#[derive(Debug)]
pub(crate) struct SectionBank {
    pub(crate) stages: usize,
    pub(crate) fan_out: usize,
    /// Biquad feedback `a₁+a₂` per filter (empty unless `stages ≥ 2`).
    p1: Vec<f64>,
    /// Biquad feedback `−a₁a₂` per filter.
    p2: Vec<f64>,
    /// Biquad gain `b₁b₂` per filter.
    b0: Vec<f64>,
    /// Raw stage-2 decay `a₂` (state transforms divide by it; strictly in
    /// `(0, 1)` by construction).
    a2: Vec<f64>,
    /// Raw stage-2 input gain `b₂` (ditto).
    b2: Vec<f64>,
    /// First-order section decay (order 1: the only stage; order 3: the
    /// tail stage; empty for order 2).
    at: Vec<f64>,
    /// First-order section input gain.
    bt: Vec<f64>,
    /// Initial internal state `[slot][filter]`, converted from the
    /// layer's wire-format initial stage voltages.
    v0_slots: Vec<Vec<f64>>,
}

impl SectionBank {
    pub(crate) fn from_layer(layer: &CompiledLayer) -> SectionBank {
        let stages = layer.a.len();
        let fan_out = layer.fan_out;
        let (mut p1, mut p2, mut b0) = (Vec::new(), Vec::new(), Vec::new());
        let (mut a2, mut b2) = (Vec::new(), Vec::new());
        let (mut at, mut bt) = (Vec::new(), Vec::new());
        if stages >= 2 {
            p1 = (0..fan_out)
                .map(|j| layer.a[0][j] + layer.a[1][j])
                .collect();
            p2 = (0..fan_out)
                .map(|j| -(layer.a[0][j] * layer.a[1][j]))
                .collect();
            b0 = (0..fan_out)
                .map(|j| layer.bc[0][j] * layer.bc[1][j])
                .collect();
            a2 = layer.a[1].clone();
            b2 = layer.bc[1].clone();
        }
        if stages == 1 {
            at = layer.a[0].clone();
            bt = layer.bc[0].clone();
        } else if stages == 3 {
            at = layer.a[2].clone();
            bt = layer.bc[2].clone();
        }
        let mut bank = SectionBank {
            stages,
            fan_out,
            p1,
            p2,
            b0,
            a2,
            b2,
            at,
            bt,
            v0_slots: Vec::new(),
        };
        let mut v0_slots = vec![vec![0.0; fan_out]; stages];
        for j in 0..fan_out {
            let mut wire = [0.0; 3];
            for (s, v0) in layer.v0.iter().enumerate() {
                wire[s] = v0[j];
            }
            let slots = bank.slots_from_wire(j, wire);
            for (s, slot) in v0_slots.iter_mut().enumerate() {
                slot[j] = slots[s];
            }
        }
        bank.v0_slots = v0_slots;
        bank
    }

    /// Which internal slot holds the bank's output (`y_n` for orders 1–2,
    /// the tail voltage for order 3).
    pub(crate) fn out_slot(&self) -> usize {
        if self.stages == 3 {
            2
        } else {
            0
        }
    }

    /// Converts filter `j`'s internal slots into wire-format stage
    /// voltages `[v₁, v₂, v₃]` (unused trailing entries stay 0).
    pub(crate) fn wire_from_slots(&self, j: usize, slots: [f64; 3]) -> [f64; 3] {
        match self.stages {
            1 => [slots[0], 0.0, 0.0],
            2 => [
                (slots[0] - self.a2[j] * slots[1]) / self.b2[j],
                slots[0],
                0.0,
            ],
            _ => [
                (slots[0] - self.a2[j] * slots[1]) / self.b2[j],
                slots[0],
                slots[2],
            ],
        }
    }

    /// Inverse of [`wire_from_slots`](Self::wire_from_slots).
    pub(crate) fn slots_from_wire(&self, j: usize, wire: [f64; 3]) -> [f64; 3] {
        match self.stages {
            1 => [wire[0], 0.0, 0.0],
            2 => [wire[1], (wire[1] - self.b2[j] * wire[0]) / self.a2[j], 0.0],
            _ => [
                wire[1],
                (wire[1] - self.b2[j] * wire[0]) / self.a2[j],
                wire[2],
            ],
        }
    }
}

/// Branch-free rational `tanh` approximation (Eigen's vectorizable
/// `x·P(x²)/Q(x²)` form), accurate to a few f32 ulps over the clamp
/// range. NaN propagates, matching `f64::tanh`.
#[inline(always)]
fn tanh_f32(x: f32) -> f32 {
    const CLAMP: f32 = 7.905_31;
    const A1: f32 = 4.893_525e-3;
    const A3: f32 = 6.372_619e-4;
    const A5: f32 = 1.485_722_4e-5;
    const A7: f32 = 5.122_297e-8;
    const A9: f32 = -8.604_672e-11;
    const A11: f32 = 2.000_188e-13;
    const A13: f32 = -2.760_768_5e-16;
    const B0: f32 = 4.893_525e-3;
    const B2: f32 = 2.268_434_6e-3;
    const B4: f32 = 1.185_347_1e-4;
    const B6: f32 = 1.198_258_4e-6;
    let x = x.clamp(-CLAMP, CLAMP);
    let x2 = x * x;
    let mut p = A13;
    p = x2 * p + A11;
    p = x2 * p + A9;
    p = x2 * p + A7;
    p = x2 * p + A5;
    p = x2 * p + A3;
    p = x2 * p + A1;
    p *= x;
    let mut q = B6;
    q = x2 * q + B4;
    q = x2 * q + B2;
    q = x2 * q + B0;
    p / q
}

// ---------------------------------------------------------------------------
// f32 backend
// ---------------------------------------------------------------------------

/// One layer compiled for `f32` SoA execution. Weights are pre-divided by
/// the column normalization `G`; section coefficients come from the
/// layer's [`SectionBank`].
#[derive(Debug, Clone)]
struct F32Layer {
    fan_in: usize,
    fan_out: usize,
    /// `θ_w/G`, `[fan_in × fan_out]` row-major.
    w: Vec<f32>,
    /// `θ_b/G`, `[fan_out]`.
    b: Vec<f32>,
    p1: Vec<f32>,
    p2: Vec<f32>,
    b0: Vec<f32>,
    at: Vec<f32>,
    bt: Vec<f32>,
    eta: [Vec<f32>; 4],
    /// Initial internal state `[slot][filter]`.
    v0: Vec<Vec<f32>>,
    sections: Arc<SectionBank>,
}

impl F32Layer {
    fn compile(layer: &CompiledLayer) -> F32Layer {
        let sections = Arc::new(SectionBank::from_layer(layer));
        let (fan_in, fan_out) = (layer.fan_in, layer.fan_out);
        let mut w = vec![0.0f32; fan_in * fan_out];
        for i in 0..fan_in {
            for j in 0..fan_out {
                w[i * fan_out + j] = (layer.w[i * fan_out + j] / layer.g[j]) as f32;
            }
        }
        let narrow = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
        F32Layer {
            fan_in,
            fan_out,
            w,
            b: (0..fan_out)
                .map(|j| (layer.b[j] / layer.g[j]) as f32)
                .collect(),
            p1: narrow(&sections.p1),
            p2: narrow(&sections.p2),
            b0: narrow(&sections.b0),
            at: narrow(&sections.at),
            bt: narrow(&sections.bt),
            eta: std::array::from_fn(|k| narrow(&layer.eta[k])),
            v0: sections.v0_slots.iter().map(|s| narrow(s)).collect(),
            sections,
        }
    }

    /// One timestep: filter-major crossbar → sections → ptanh. `x` is
    /// `[fan_in][batch]`, `act` receives `[fan_out][batch]`.
    fn step(&self, x: &[f32], batch: usize, xb: &mut [f32], states: &mut [f32], act: &mut [f32]) {
        let fo = self.fan_out;
        let xb = &mut xb[..fo * batch];
        // Crossbar: per output filter, a contiguous lane row accumulates
        // x·(θ_w/G) + θ_b/G; the weight is a loop-invariant scalar.
        for (j, out_row) in xb.chunks_exact_mut(batch).enumerate() {
            out_row.fill(self.b[j]);
            for (i, x_row) in x[..self.fan_in * batch].chunks_exact(batch).enumerate() {
                let wv = self.w[i * fo + j];
                for (o, &xv) in out_row.iter_mut().zip(x_row) {
                    *o += wv * xv;
                }
            }
        }
        // Biquad: y_n = b₀x + p₁y_{n−1} + p₂y_{n−2} over slots 0/1.
        if !self.p1.is_empty() {
            let (y1s, rest) = states.split_at_mut(fo * batch);
            let y2s = &mut rest[..fo * batch];
            for j in 0..fo {
                let (p1, p2, b0) = (self.p1[j], self.p2[j], self.b0[j]);
                let y1 = &mut y1s[j * batch..][..batch];
                let y2 = &mut y2s[j * batch..][..batch];
                let xr = &xb[j * batch..][..batch];
                for ((y1v, y2v), &xv) in y1.iter_mut().zip(y2.iter_mut()).zip(xr) {
                    let y = b0 * xv + p1 * *y1v + p2 * *y2v;
                    *y2v = *y1v;
                    *y1v = y;
                }
            }
        }
        // First-order section: the whole bank (order 1) or the tail fed
        // by the biquad output (order 3).
        if !self.at.is_empty() {
            let slot = self.sections.stages - 1;
            let (head, tail) = states.split_at_mut(slot * fo * batch);
            let vs = &mut tail[..fo * batch];
            for j in 0..fo {
                let (a, b) = (self.at[j], self.bt[j]);
                let v = &mut vs[j * batch..][..batch];
                let inp = if slot == 0 {
                    &xb[j * batch..][..batch]
                } else {
                    &head[j * batch..][..batch]
                };
                for (vv, &xv) in v.iter_mut().zip(inp) {
                    *vv = a * *vv + b * xv;
                }
            }
        }
        // ptanh from the bank's output slot.
        let out_rows = &states[self.sections.out_slot() * fo * batch..][..fo * batch];
        for (j, arow) in act[..fo * batch].chunks_exact_mut(batch).enumerate() {
            let (e1, e2, e3, e4) = (
                self.eta[0][j],
                self.eta[1][j],
                self.eta[2][j],
                self.eta[3][j],
            );
            for (o, &v) in arow.iter_mut().zip(&out_rows[j * batch..][..batch]) {
                *o = e1 + e2 * tanh_f32((v - e3) * e4);
            }
        }
    }
}

/// The whole model compiled for `f32` execution.
#[derive(Debug, Clone)]
pub(crate) struct KernelF32 {
    layers: [F32Layer; 2],
    input_dim: usize,
}

/// Working memory for the `f32` backend; buffers are filter-major
/// (`[filter][lane]`).
#[derive(Debug, Clone)]
pub(crate) struct ScratchF32 {
    /// Transposed+narrowed model input, `[input_dim][batch]`.
    x0: Vec<f32>,
    /// Crossbar output, `[max_width][batch]`.
    xb: Vec<f32>,
    hidden_act: Vec<f32>,
    class_act: Vec<f32>,
    /// Internal filter state per layer, `[slot][filter][lane]`.
    states: [Vec<f32>; 2],
    /// Section banks shared with the kernel — lane-state export/import
    /// converts through them without reaching back into the model.
    sections: [Arc<SectionBank>; 2],
}

impl KernelF32 {
    pub(crate) fn compile(layers: &[CompiledLayer; 2], input_dim: usize) -> KernelF32 {
        KernelF32 {
            layers: [F32Layer::compile(&layers[0]), F32Layer::compile(&layers[1])],
            input_dim,
        }
    }

    pub(crate) fn make_scratch(&self, batch: usize) -> ScratchF32 {
        let (hidden, classes) = (self.layers[0].fan_out, self.layers[1].fan_out);
        let max_w = hidden.max(classes);
        ScratchF32 {
            x0: vec![0.0; self.input_dim * batch],
            xb: vec![0.0; max_w * batch],
            hidden_act: vec![0.0; hidden * batch],
            class_act: vec![0.0; classes * batch],
            states: std::array::from_fn(|l| {
                vec![0.0; self.layers[l].sections.stages * self.layers[l].fan_out * batch]
            }),
            sections: std::array::from_fn(|l| Arc::clone(&self.layers[l].sections)),
        }
    }

    pub(crate) fn reset(&self, s: &mut ScratchF32, batch: usize) {
        for (layer, states) in self.layers.iter().zip(s.states.iter_mut()) {
            for (slot, v0) in layer.v0.iter().enumerate() {
                let rows = &mut states[slot * layer.fan_out * batch..][..layer.fan_out * batch];
                for (j, row) in rows.chunks_exact_mut(batch).enumerate() {
                    row.fill(v0[j]);
                }
            }
        }
    }

    pub(crate) fn advance(&self, src: &[f64], s: &mut ScratchF32, batch: usize) {
        let dim = self.input_dim;
        for (i, row) in s.x0.chunks_exact_mut(batch).enumerate() {
            for (lane, o) in row.iter_mut().enumerate() {
                *o = src[lane * dim + i] as f32;
            }
        }
        let [st0, st1] = &mut s.states;
        self.layers[0].step(&s.x0, batch, &mut s.xb, st0, &mut s.hidden_act);
        self.layers[1].step(&s.hidden_act, batch, &mut s.xb, st1, &mut s.class_act);
    }

    pub(crate) fn read_logits(&self, s: &ScratchF32, batch: usize, scale: f64, out: &mut [f64]) {
        let classes = self.layers[1].fan_out;
        for (j, row) in s.class_act.chunks_exact(batch).enumerate() {
            for (lane, &v) in row.iter().enumerate() {
                out[lane * classes + j] = v as f64 * scale;
            }
        }
    }
}

impl ScratchF32 {
    pub(crate) fn lane_state_len(&self) -> usize {
        self.sections.iter().map(|b| b.stages * b.fan_out).sum()
    }

    pub(crate) fn export_lane_state(&self, lane: usize, batch: usize, out: &mut [f64]) {
        let mut at = 0;
        for (bank, states) in self.sections.iter().zip(&self.states) {
            let fo = bank.fan_out;
            for j in 0..fo {
                let mut slots = [0.0; 3];
                for (s, slot) in slots.iter_mut().take(bank.stages).enumerate() {
                    *slot = states[(s * fo + j) * batch + lane] as f64;
                }
                let wire = bank.wire_from_slots(j, slots);
                for (s, &w) in wire.iter().take(bank.stages).enumerate() {
                    out[at + s * fo + j] = w;
                }
            }
            at += bank.stages * fo;
        }
    }

    pub(crate) fn import_lane_state(&mut self, lane: usize, batch: usize, state: &[f64]) {
        let mut at = 0;
        for (bank, states) in self.sections.iter().zip(self.states.iter_mut()) {
            let fo = bank.fan_out;
            for j in 0..fo {
                let mut wire = [0.0; 3];
                for (s, w) in wire.iter_mut().take(bank.stages).enumerate() {
                    *w = state[at + s * fo + j];
                }
                let slots = bank.slots_from_wire(j, wire);
                for (s, &v) in slots.iter().take(bank.stages).enumerate() {
                    states[(s * fo + j) * batch + lane] = v as f32;
                }
            }
            at += bank.stages * fo;
        }
    }

    pub(crate) fn lane_state_rms(&self, lane: usize, batch: usize) -> f64 {
        let (mut sum_sq, mut n) = (0.0f64, 0usize);
        for (bank, states) in self.sections.iter().zip(&self.states) {
            let fo = bank.fan_out;
            for j in 0..fo {
                let mut slots = [0.0; 3];
                for (s, slot) in slots.iter_mut().take(bank.stages).enumerate() {
                    *slot = states[(s * fo + j) * batch + lane] as f64;
                }
                let wire = bank.wire_from_slots(j, slots);
                for &w in wire.iter().take(bank.stages) {
                    sum_sq += w * w;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            (sum_sq / n as f64).sqrt()
        }
    }

    pub(crate) fn states_are_finite(&self) -> bool {
        self.states.iter().all(|s| s.iter().all(|v| v.is_finite()))
    }
}

// ---------------------------------------------------------------------------
// i32 fixed-point backend
// ---------------------------------------------------------------------------

/// Section coefficients are bounded by 2 (`|a₁+a₂| < 2`, `|a₁a₂| < 1`,
/// `|b₁b₂| < 1`), so they live at fixed Q2.29 regardless of the signal
/// format.
const COEFF_FRAC: u32 = 29;
/// `tanh` output lives in Q1.30 (`|tanh| < 1`).
const TANH_FRAC: u32 = 30;
/// LUT resolution: 1024 intervals of width 1/128 over `[0, 8)`.
const LUT_SHIFT: u32 = 7;

/// Saturate an `i64` intermediate into a symmetric `i32`.
#[inline(always)]
fn sat(v: i64) -> i32 {
    v.clamp(-(i32::MAX as i64), i32::MAX as i64) as i32
}

/// Quantize an `f64` to the given fractional format, saturating (NaN → 0,
/// the format's additive identity — guarded inputs are finite anyway).
#[inline]
fn quantize(x: f64, frac: u32) -> i32 {
    let v = (x * (1i64 << frac) as f64).round();
    if v.is_nan() {
        0
    } else {
        v.clamp(-(i32::MAX as f64), i32::MAX as f64) as i32
    }
}

#[inline]
fn dequant(v: i32, frac: u32) -> f64 {
    v as f64 / (1i64 << frac) as f64
}

/// `tanh` lookup table in Q1.30: `tanh(k/128)` for `k = 0..=1024`, with
/// the last entry duplicated so a saturated index interpolates flat.
/// Stored inline in the `OnceLock` — initialization performs no heap
/// allocation, preserving the zero-allocs-per-forward property.
static TANH_LUT: std::sync::OnceLock<[i32; 1026]> = std::sync::OnceLock::new();

fn tanh_lut() -> &'static [i32; 1026] {
    TANH_LUT.get_or_init(|| {
        let mut t = [0i32; 1026];
        let one = (1i64 << TANH_FRAC) as f64;
        for (k, slot) in t.iter_mut().take(1025).enumerate() {
            *slot = ((k as f64 / 128.0).tanh() * one).round() as i32;
        }
        t[1025] = t[1024];
        t
    })
}

/// Branch-free LUT + linear interpolation `tanh`: signal-format argument
/// in, Q1.30 out. Arguments beyond ±8 clamp to the table edge.
#[inline(always)]
fn tanh_i32(lut: &[i32; 1026], arg: i32, frac: u32) -> i32 {
    let shift = frac - LUT_SHIFT;
    let a = (arg as i64).abs().min(8i64 << frac);
    let idx = (a >> shift) as usize;
    let fbits = a & ((1i64 << shift) - 1);
    let t0 = lut[idx] as i64;
    let t1 = lut[idx + 1] as i64;
    let val = (t0 + (((t1 - t0) * fbits) >> shift)) as i32;
    if arg < 0 {
        -val
    } else {
        val
    }
}

/// One layer compiled for saturating `i32` fixed-point execution.
#[derive(Debug, Clone)]
struct I32Layer {
    fan_in: usize,
    fan_out: usize,
    /// `θ_w/G` in the signal format, `[fan_in × fan_out]` row-major
    /// (`|θ_w/G| ≤ 1`, so the value always fits).
    w: Vec<i32>,
    /// `θ_b/G` in the signal format.
    b: Vec<i32>,
    /// Biquad/tail coefficients in Q2.29.
    p1: Vec<i32>,
    p2: Vec<i32>,
    b0: Vec<i32>,
    at: Vec<i32>,
    bt: Vec<i32>,
    /// η vectors in the signal format.
    eta: [Vec<i32>; 4],
    /// Initial internal state `[slot][filter]` in the signal format.
    v0: Vec<Vec<i32>>,
    sections: Arc<SectionBank>,
}

impl I32Layer {
    fn compile(layer: &CompiledLayer, q: QFormat) -> I32Layer {
        let sections = Arc::new(SectionBank::from_layer(layer));
        let (fan_in, fan_out) = (layer.fan_in, layer.fan_out);
        let f = q.frac_bits;
        let mut w = vec![0i32; fan_in * fan_out];
        for i in 0..fan_in {
            for j in 0..fan_out {
                w[i * fan_out + j] = quantize(layer.w[i * fan_out + j] / layer.g[j], f);
            }
        }
        let coeff = |v: &[f64]| v.iter().map(|&x| quantize(x, COEFF_FRAC)).collect();
        let signal = |v: &[f64]| v.iter().map(|&x| quantize(x, f)).collect::<Vec<i32>>();
        I32Layer {
            fan_in,
            fan_out,
            w,
            b: (0..fan_out)
                .map(|j| quantize(layer.b[j] / layer.g[j], f))
                .collect(),
            p1: coeff(&sections.p1),
            p2: coeff(&sections.p2),
            b0: coeff(&sections.b0),
            at: coeff(&sections.at),
            bt: coeff(&sections.bt),
            eta: std::array::from_fn(|k| signal(&layer.eta[k])),
            v0: sections.v0_slots.iter().map(|s| signal(s)).collect(),
            sections,
        }
    }

    /// One timestep in the signal format; layout mirrors
    /// [`F32Layer::step`]. All intermediates are `i64` with
    /// round-to-nearest rescaling and saturation on narrowing.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        x: &[i32],
        batch: usize,
        frac: u32,
        acc: &mut [i64],
        xb: &mut [i32],
        states: &mut [i32],
        act: &mut [i32],
    ) {
        let fo = self.fan_out;
        let xb = &mut xb[..fo * batch];
        let acc = &mut acc[..batch];
        let half_sig = 1i64 << (frac - 1);
        let half_coeff = 1i64 << (COEFF_FRAC - 1);
        // Crossbar: i64 lane accumulators; overflow is impossible by the
        // QFormat fan-in validation at compile time.
        for (j, out_row) in xb.chunks_exact_mut(batch).enumerate() {
            acc.fill((self.b[j] as i64) << frac);
            for (i, x_row) in x[..self.fan_in * batch].chunks_exact(batch).enumerate() {
                let wv = self.w[i * fo + j] as i64;
                for (a, &xv) in acc.iter_mut().zip(x_row) {
                    *a += wv * xv as i64;
                }
            }
            for (o, &a) in out_row.iter_mut().zip(acc.iter()) {
                *o = sat((a + half_sig) >> frac);
            }
        }
        // Biquad with saturating (anti-windup) state update.
        if !self.p1.is_empty() {
            let (y1s, rest) = states.split_at_mut(fo * batch);
            let y2s = &mut rest[..fo * batch];
            for j in 0..fo {
                let (p1, p2, b0) = (self.p1[j] as i64, self.p2[j] as i64, self.b0[j] as i64);
                let y1 = &mut y1s[j * batch..][..batch];
                let y2 = &mut y2s[j * batch..][..batch];
                let xr = &xb[j * batch..][..batch];
                for ((y1v, y2v), &xv) in y1.iter_mut().zip(y2.iter_mut()).zip(xr) {
                    let t = b0 * xv as i64 + p1 * *y1v as i64 + p2 * *y2v as i64;
                    let y = sat((t + half_coeff) >> COEFF_FRAC);
                    *y2v = *y1v;
                    *y1v = y;
                }
            }
        }
        if !self.at.is_empty() {
            let slot = self.sections.stages - 1;
            let (head, tail) = states.split_at_mut(slot * fo * batch);
            let vs = &mut tail[..fo * batch];
            for j in 0..fo {
                let (a, b) = (self.at[j] as i64, self.bt[j] as i64);
                let v = &mut vs[j * batch..][..batch];
                let inp = if slot == 0 {
                    &xb[j * batch..][..batch]
                } else {
                    &head[j * batch..][..batch]
                };
                for (vv, &xv) in v.iter_mut().zip(inp) {
                    let t = a * *vv as i64 + b * xv as i64;
                    *vv = sat((t + half_coeff) >> COEFF_FRAC);
                }
            }
        }
        // ptanh: η₁ + η₂·tanh((V − η₃)·η₄), LUT in Q1.30.
        let lut = tanh_lut();
        let half_tanh = 1i64 << (TANH_FRAC - 1);
        let out_rows = &states[self.sections.out_slot() * fo * batch..][..fo * batch];
        for (j, arow) in act[..fo * batch].chunks_exact_mut(batch).enumerate() {
            let (e1, e2, e3, e4) = (
                self.eta[0][j] as i64,
                self.eta[1][j] as i64,
                self.eta[2][j] as i64,
                self.eta[3][j] as i64,
            );
            for (o, &v) in arow.iter_mut().zip(&out_rows[j * batch..][..batch]) {
                let d = sat(v as i64 - e3);
                let a = sat((d as i64 * e4 + half_sig) >> frac);
                let t = tanh_i32(lut, a, frac) as i64;
                *o = sat(e1 + ((e2 * t + half_tanh) >> TANH_FRAC));
            }
        }
    }
}

/// The whole model compiled for saturating fixed-point execution.
#[derive(Debug, Clone)]
pub(crate) struct KernelI32 {
    layers: [I32Layer; 2],
    input_dim: usize,
    q: QFormat,
}

/// Working memory for the `i32` backend.
#[derive(Debug, Clone)]
pub(crate) struct ScratchI32 {
    x0: Vec<i32>,
    xb: Vec<i32>,
    /// Crossbar lane accumulators, `[batch]`.
    acc: Vec<i64>,
    hidden_act: Vec<i32>,
    class_act: Vec<i32>,
    states: [Vec<i32>; 2],
    sections: [Arc<SectionBank>; 2],
    frac_bits: u32,
}

impl KernelI32 {
    pub(crate) fn compile(layers: &[CompiledLayer; 2], input_dim: usize, q: QFormat) -> KernelI32 {
        KernelI32 {
            layers: [
                I32Layer::compile(&layers[0], q),
                I32Layer::compile(&layers[1], q),
            ],
            input_dim,
            q,
        }
    }

    pub(crate) fn make_scratch(&self, batch: usize) -> ScratchI32 {
        let (hidden, classes) = (self.layers[0].fan_out, self.layers[1].fan_out);
        let max_w = hidden.max(classes);
        ScratchI32 {
            x0: vec![0; self.input_dim * batch],
            xb: vec![0; max_w * batch],
            acc: vec![0; batch],
            hidden_act: vec![0; hidden * batch],
            class_act: vec![0; classes * batch],
            states: std::array::from_fn(|l| {
                vec![0; self.layers[l].sections.stages * self.layers[l].fan_out * batch]
            }),
            sections: std::array::from_fn(|l| Arc::clone(&self.layers[l].sections)),
            frac_bits: self.q.frac_bits,
        }
    }

    pub(crate) fn reset(&self, s: &mut ScratchI32, batch: usize) {
        for (layer, states) in self.layers.iter().zip(s.states.iter_mut()) {
            for (slot, v0) in layer.v0.iter().enumerate() {
                let rows = &mut states[slot * layer.fan_out * batch..][..layer.fan_out * batch];
                for (j, row) in rows.chunks_exact_mut(batch).enumerate() {
                    row.fill(v0[j]);
                }
            }
        }
    }

    pub(crate) fn advance(&self, src: &[f64], s: &mut ScratchI32, batch: usize) {
        let dim = self.input_dim;
        let f = self.q.frac_bits;
        for (i, row) in s.x0.chunks_exact_mut(batch).enumerate() {
            for (lane, o) in row.iter_mut().enumerate() {
                *o = quantize(src[lane * dim + i], f);
            }
        }
        let [st0, st1] = &mut s.states;
        self.layers[0].step(
            &s.x0,
            batch,
            f,
            &mut s.acc,
            &mut s.xb,
            st0,
            &mut s.hidden_act,
        );
        self.layers[1].step(
            &s.hidden_act,
            batch,
            f,
            &mut s.acc,
            &mut s.xb,
            st1,
            &mut s.class_act,
        );
    }

    pub(crate) fn read_logits(&self, s: &ScratchI32, batch: usize, scale: f64, out: &mut [f64]) {
        let classes = self.layers[1].fan_out;
        let f = self.q.frac_bits;
        for (j, row) in s.class_act.chunks_exact(batch).enumerate() {
            for (lane, &v) in row.iter().enumerate() {
                out[lane * classes + j] = dequant(v, f) * scale;
            }
        }
    }
}

impl ScratchI32 {
    pub(crate) fn qformat(&self) -> QFormat {
        QFormat {
            frac_bits: self.frac_bits,
        }
    }

    pub(crate) fn lane_state_len(&self) -> usize {
        self.sections.iter().map(|b| b.stages * b.fan_out).sum()
    }

    pub(crate) fn export_lane_state(&self, lane: usize, batch: usize, out: &mut [f64]) {
        let f = self.frac_bits;
        let mut at = 0;
        for (bank, states) in self.sections.iter().zip(&self.states) {
            let fo = bank.fan_out;
            for j in 0..fo {
                let mut slots = [0.0; 3];
                for (s, slot) in slots.iter_mut().take(bank.stages).enumerate() {
                    *slot = dequant(states[(s * fo + j) * batch + lane], f);
                }
                let wire = bank.wire_from_slots(j, slots);
                for (s, &w) in wire.iter().take(bank.stages).enumerate() {
                    out[at + s * fo + j] = w;
                }
            }
            at += bank.stages * fo;
        }
    }

    pub(crate) fn import_lane_state(&mut self, lane: usize, batch: usize, state: &[f64]) {
        let f = self.frac_bits;
        let mut at = 0;
        for (bank, states) in self.sections.iter().zip(self.states.iter_mut()) {
            let fo = bank.fan_out;
            for j in 0..fo {
                let mut wire = [0.0; 3];
                for (s, w) in wire.iter_mut().take(bank.stages).enumerate() {
                    *w = state[at + s * fo + j];
                }
                let slots = bank.slots_from_wire(j, wire);
                for (s, &v) in slots.iter().take(bank.stages).enumerate() {
                    states[(s * fo + j) * batch + lane] = quantize(v, f);
                }
            }
            at += bank.stages * fo;
        }
    }

    pub(crate) fn lane_state_rms(&self, lane: usize, batch: usize) -> f64 {
        let f = self.frac_bits;
        let (mut sum_sq, mut n) = (0.0f64, 0usize);
        for (bank, states) in self.sections.iter().zip(&self.states) {
            let fo = bank.fan_out;
            for j in 0..fo {
                let mut slots = [0.0; 3];
                for (s, slot) in slots.iter_mut().take(bank.stages).enumerate() {
                    *slot = dequant(states[(s * fo + j) * batch + lane], f);
                }
                let wire = bank.wire_from_slots(j, slots);
                for &w in wire.iter().take(bank.stages) {
                    sum_sq += w * w;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            (sum_sq / n as f64).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qformat_bounds_are_enforced() {
        assert!(QFormat::new(7).is_err());
        assert!(QFormat::new(29).is_err());
        assert_eq!(QFormat::new(24).unwrap(), QFormat::DEFAULT);
        assert_eq!(QFormat::DEFAULT.frac_bits(), 24);
        assert!((QFormat::DEFAULT.range() - 128.0).abs() < 1e-6);
    }

    #[test]
    fn qformat_fan_in_headroom() {
        // 16 inputs: 17 terms round up to 32 = 2^5 → 26 fractional bits.
        assert_eq!(QFormat::max_frac_bits_for(16), 26);
        assert_eq!(QFormat::max_frac_bits_for(64), 24);
        assert!(QFormat::DEFAULT.validate_for(64).is_ok());
        assert!(matches!(
            QFormat::DEFAULT.validate_for(256),
            Err(BuildError::QFormatOverflow { .. })
        ));
        // Tiny fan-in is capped by MAX_FRAC_BITS, not the headroom rule.
        assert_eq!(QFormat::max_frac_bits_for(1), 28);
    }

    #[test]
    fn precision_names_round_trip() {
        for p in [
            Precision::F64,
            Precision::F32,
            Precision::I32(QFormat::DEFAULT),
            Precision::I32(QFormat::new(12).unwrap()),
        ] {
            assert_eq!(p.name().parse::<Precision>().unwrap(), p);
        }
        assert_eq!(
            "i32".parse::<Precision>().unwrap(),
            Precision::I32(QFormat::DEFAULT)
        );
        assert!("f16".parse::<Precision>().is_err());
        assert!("i32q99".parse::<Precision>().is_err());
        assert!("i32qx".parse::<Precision>().is_err());
        assert_eq!(Precision::default(), Precision::F64);
    }

    #[test]
    fn tanh_f32_tracks_reference() {
        let mut max_err = 0.0f64;
        for k in -4000..=4000 {
            let x = k as f64 * 0.0025; // covers ±10 incl. the clamp region
            let err = (tanh_f32(x as f32) as f64 - x.tanh()).abs();
            max_err = max_err.max(err);
        }
        assert!(max_err < 2e-6, "poly tanh max err {max_err}");
        assert_eq!(tanh_f32(0.0), 0.0);
        assert!(tanh_f32(f32::NAN).is_nan());
    }

    #[test]
    fn tanh_i32_tracks_reference() {
        let lut = tanh_lut();
        let q = QFormat::DEFAULT;
        let f = q.frac_bits();
        let mut max_err = 0.0f64;
        for k in -4000..=4000 {
            let x = k as f64 * 0.0025;
            let got = dequant(tanh_i32(lut, quantize(x, f), f), TANH_FRAC);
            max_err = max_err.max((got - x.tanh()).abs());
        }
        assert!(max_err < 5e-5, "LUT tanh max err {max_err}");
        // Odd symmetry and saturation.
        assert_eq!(
            tanh_i32(lut, quantize(1.5, f), f),
            -tanh_i32(lut, quantize(-1.5, f), f)
        );
        let sat_hi = tanh_i32(lut, i32::MAX, f);
        assert!(dequant(sat_hi, TANH_FRAC) > 0.9999);
    }

    #[test]
    fn quantize_saturates_and_round_trips() {
        let f = 24;
        assert_eq!(quantize(f64::NAN, f), 0);
        assert_eq!(quantize(1e12, f), i32::MAX);
        assert_eq!(quantize(-1e12, f), -i32::MAX);
        for x in [0.0, 0.5, -0.125, 3.75, -100.0] {
            assert_eq!(dequant(quantize(x, f), f), x, "{x} not exact");
        }
        // sat clamps symmetric.
        assert_eq!(sat(i64::MAX), i32::MAX);
        assert_eq!(sat(i64::MIN), -i32::MAX);
        assert_eq!(sat(-7), -7);
    }
}
