//! Number formats of the inference kernel: the [`Precision`] a model
//! compiles at, the `i32` signal format [`QFormat`], and one [`Lane`] impl
//! per format that the single kernel in [`model`](crate::model) runs.
//!
//! * **`f64`** is the reference. Its crossbar sums `x·θ_w` from `0.0` in
//!   ascending input order and then computes `(acc + θ_b)/G`, with no
//!   `mul_add`; its SO-LF bank runs in direct form; `ptanh` uses a
//!   vectorizable `tanh` within 4 ulp of `f64::tanh`.
//! * **`f32`** folds `1/G` into the weights at compile time, starting the
//!   accumulator at `θ_b/G`, runs the bank as a biquad plus optional
//!   tail, and uses a rational `tanh`.
//! * **`i32`** is saturating fixed point in a configurable signal format
//!   ([`QFormat`], default Q7.24): folded weights, `i64` crossbar
//!   accumulators, round-to-nearest rescaling, and saturation on every
//!   narrowing — state clamps at full scale instead of wrapping, so a fault
//!   burst can pin a filter but never flip its sign. Section coefficients
//!   are fixed Q2.29 (they are bounded by 2) and the `tanh` lookup table is
//!   Q1.30, independent of the signal format.
//!
//! The biquad is the first-order cascade `v_n = a·v_{n−1} + b·u_n` composed
//! at compile time: `y_n = b₁b₂·u_n + (a₁+a₂)·y_{n−1} − a₁a₂·y_{n−2}`, whose
//! state is the two delayed outputs. Lane state still travels as `f64`
//! stage voltages at every precision.

use std::ops::{Add, Mul};

use crate::model::{BuildError, Section};
use crate::tanh::tanh_f64;

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
/// kernel in. `F64` is the reference; `F32` and `I32` are the
/// throughput/hardware-fidelity lanes of the same kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// The reference: direct-form filter sections that match the autograd
    /// forward within 1e-9 (its `tanh` is within 4 ulp of `f64::tanh`).
    /// Every precision is bitwise identical across batch width, chunking,
    /// thread count and served vs direct calls.
    #[default]
    F64,
    /// Single precision: biquad sections and a polynomial `tanh`.
    F32,
    /// Saturating fixed point in the given signal format: biquad sections
    /// and a LUT + linear-interpolation `tanh`.
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

/// One number format the inference kernel runs in. The kernel in
/// [`model`](crate::model) is written once against this trait; each impl
/// supplies the per-element arithmetic of its backend, and the section
/// plan it runs ([`Lane::BIQUAD`]).
///
/// Every hot-loop method takes the lane's runtime context (`()` for the
/// float lanes, the [`QFormat`] for `i32`), which is loop-invariant.
pub(crate) trait Lane:
    Copy + Default + std::fmt::Debug + Send + Sync + 'static + Add<Output = Self> + Mul<Output = Self>
{
    /// Crossbar accumulator.
    type Acc: Copy + Default + std::fmt::Debug + Send + Sync;
    /// Per-output crossbar constant: `(θ_b, G)` for `f64`, the folded
    /// `θ_b/G` for the other lanes.
    type Col: Copy + std::fmt::Debug + Send + Sync;
    /// Runtime context of the hot loop.
    type Ctx: Copy + std::fmt::Debug + Send + Sync;

    /// Whether the SO-LF bank runs as a biquad plus optional first-order
    /// tail; `false` runs the direct form, one first-order section per
    /// stage.
    const BIQUAD: bool;

    /// Crossbar weight `θ_w` of a column with conductance sum `g`.
    fn weight(ctx: Self::Ctx, w: f64, g: f64) -> Self;
    /// Crossbar constant of a column with bias `θ_b` and sum `g`.
    fn column(ctx: Self::Ctx, b: f64, g: f64) -> Self::Col;
    /// A wire-format `f64` (input sample, η, stage voltage) in this lane.
    fn from_wire(ctx: Self::Ctx, v: f64) -> Self;
    /// A filter-section coefficient; a wire-format value unless the lane
    /// keeps coefficients in a format of their own.
    fn coeff(ctx: Self::Ctx, c: f64) -> Self {
        Self::from_wire(ctx, c)
    }
    /// This lane's value as wire-format `f64`.
    fn to_wire(ctx: Self::Ctx, v: Self) -> f64;
    /// Crossbar accumulator before the first input.
    fn acc_init(ctx: Self::Ctx, col: Self::Col) -> Self::Acc;
    /// Adds one `x·θ_w` product.
    fn acc_add(acc: Self::Acc, x: Self, w: Self) -> Self::Acc;
    /// The crossbar output from a finished accumulator.
    fn acc_finish(ctx: Self::Ctx, acc: Self::Acc, col: Self::Col) -> Self;
    /// First-order section `a·v + b·u`, in the lane's own arithmetic
    /// unless overridden.
    #[inline(always)]
    fn first_order(_ctx: Self::Ctx, a: Self, b: Self, v: Self, u: Self) -> Self {
        a * v + b * u
    }
    /// Biquad output `b₀·u + p₁·y₁ + p₂·y₂`, summed left to right.
    #[inline(always)]
    fn biquad(_ctx: Self::Ctx, b0: Self, p1: Self, p2: Self, u: Self, y1: Self, y2: Self) -> Self {
        b0 * u + p1 * y1 + p2 * y2
    }
    /// `ptanh`: `η₁ + η₂·tanh((v − η₃)·η₄)`.
    fn ptanh(ctx: Self::Ctx, eta: [Self; 4], v: Self) -> Self;
    /// Whether the value is finite.
    fn is_finite(v: Self) -> bool;
}

/// The reference lane: the autograd forward's arithmetic, with the
/// crossbar divided by `G` after summing and no `mul_add`.
impl Lane for f64 {
    type Acc = f64;
    type Col = (f64, f64);
    type Ctx = ();
    const BIQUAD: bool = false;

    fn weight((): (), w: f64, _g: f64) -> f64 {
        w
    }
    fn column((): (), b: f64, g: f64) -> (f64, f64) {
        (b, g)
    }
    fn from_wire((): (), v: f64) -> f64 {
        v
    }
    fn to_wire((): (), v: f64) -> f64 {
        v
    }
    #[inline(always)]
    fn acc_init((): (), _col: (f64, f64)) -> f64 {
        0.0
    }
    #[inline(always)]
    fn acc_add(acc: f64, x: f64, w: f64) -> f64 {
        acc + x * w
    }
    #[inline(always)]
    fn acc_finish((): (), acc: f64, (b, g): (f64, f64)) -> f64 {
        (acc + b) / g
    }
    #[inline(always)]
    fn ptanh((): (), [e1, e2, e3, e4]: [f64; 4], v: f64) -> f64 {
        e1 + e2 * tanh_f64((v - e3) * e4)
    }
    fn is_finite(v: f64) -> bool {
        v.is_finite()
    }
}

/// Single precision with `1/G` folded into the weights and a polynomial
/// `tanh`.
impl Lane for f32 {
    type Acc = f32;
    type Col = f32;
    type Ctx = ();
    const BIQUAD: bool = true;

    fn weight((): (), w: f64, g: f64) -> f32 {
        (w / g) as f32
    }
    fn column((): (), b: f64, g: f64) -> f32 {
        (b / g) as f32
    }
    fn from_wire((): (), v: f64) -> f32 {
        v as f32
    }
    fn to_wire((): (), v: f32) -> f64 {
        v as f64
    }
    #[inline(always)]
    fn acc_init((): (), col: f32) -> f32 {
        col
    }
    #[inline(always)]
    fn acc_add(acc: f32, x: f32, w: f32) -> f32 {
        acc + w * x
    }
    #[inline(always)]
    fn acc_finish((): (), acc: f32, _col: f32) -> f32 {
        acc
    }
    #[inline(always)]
    fn ptanh((): (), [e1, e2, e3, e4]: [f32; 4], v: f32) -> f32 {
        e1 + e2 * tanh_f32((v - e3) * e4)
    }
    fn is_finite(v: f32) -> bool {
        v.is_finite()
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

/// Rescales a Q2.29 product sum to the signal format, rounding to
/// nearest and saturating.
#[inline(always)]
fn rescale_coeff(t: i64) -> i32 {
    sat((t + (1i64 << (COEFF_FRAC - 1))) >> COEFF_FRAC)
}

/// Saturating fixed point in the signal format its [`QFormat`] context
/// names, with `i64` intermediates, round-to-nearest rescaling and a LUT
/// `tanh`. The crossbar's `1/G` is folded into the weights; section
/// coefficients are Q2.29.
impl Lane for i32 {
    type Acc = i64;
    type Col = i32;
    type Ctx = QFormat;
    const BIQUAD: bool = true;

    fn weight(q: QFormat, w: f64, g: f64) -> i32 {
        quantize(w / g, q.frac_bits)
    }
    fn column(q: QFormat, b: f64, g: f64) -> i32 {
        quantize(b / g, q.frac_bits)
    }
    fn coeff(_q: QFormat, c: f64) -> i32 {
        quantize(c, COEFF_FRAC)
    }
    fn from_wire(q: QFormat, v: f64) -> i32 {
        quantize(v, q.frac_bits)
    }
    fn to_wire(q: QFormat, v: i32) -> f64 {
        dequant(v, q.frac_bits)
    }
    #[inline(always)]
    fn acc_init(q: QFormat, col: i32) -> i64 {
        (col as i64) << q.frac_bits
    }
    /// Cannot overflow: the Q-format's fan-in validation bounds the sum.
    #[inline(always)]
    fn acc_add(acc: i64, x: i32, w: i32) -> i64 {
        acc + w as i64 * x as i64
    }
    #[inline(always)]
    fn acc_finish(q: QFormat, acc: i64, _col: i32) -> i32 {
        sat((acc + (1i64 << (q.frac_bits - 1))) >> q.frac_bits)
    }
    #[inline(always)]
    fn first_order(_q: QFormat, a: i32, b: i32, v: i32, u: i32) -> i32 {
        rescale_coeff(a as i64 * v as i64 + b as i64 * u as i64)
    }
    #[inline(always)]
    fn biquad(_q: QFormat, b0: i32, p1: i32, p2: i32, u: i32, y1: i32, y2: i32) -> i32 {
        rescale_coeff(b0 as i64 * u as i64 + p1 as i64 * y1 as i64 + p2 as i64 * y2 as i64)
    }
    #[inline(always)]
    fn ptanh(q: QFormat, [e1, e2, e3, e4]: [i32; 4], v: i32) -> i32 {
        let frac = q.frac_bits;
        let d = sat(v as i64 - e3 as i64);
        let a = sat((d as i64 * e4 as i64 + (1i64 << (frac - 1))) >> frac);
        let t = tanh_i32(tanh_lut(), a, frac) as i64;
        sat(e1 as i64 + ((e2 as i64 * t + (1i64 << (TANH_FRAC - 1))) >> TANH_FRAC))
    }
    /// Saturating arithmetic keeps every value finite.
    fn is_finite(_v: i32) -> bool {
        true
    }
}

/// Whether quantized section `sec` decays for filter `j`: the Jury
/// conditions on the Q2.29 coefficients, in integer arithmetic. A biquad
/// `y = p₁·y₁ + p₂·y₂ + …` needs `|p₂| < 1`, `1 − p₁ − p₂ > 0` and
/// `1 + p₁ − p₂ > 0`; a first-order section needs `|a| < 1`. This catches
/// a pole that is inside the unit circle in `f64` but rounds onto it.
pub(crate) fn fixed_section_decays(sec: &Section<i32>, j: usize) -> bool {
    let one = 1i64 << COEFF_FRAC;
    match sec {
        Section::First { a, .. } => (a[j] as i64).abs() < one,
        Section::Biquad { p1, p2, .. } => {
            let (p1, p2) = (p1[j] as i64, p2[j] as i64);
            p2.abs() < one && one - p1 - p2 > 0 && one + p1 - p2 > 0
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
