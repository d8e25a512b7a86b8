//! AC small-signal analysis: linearize at the DC operating point and solve
//! the complex MNA system over a logarithmic frequency sweep.

use crate::complex::Complex;
use crate::dc::DcAnalysis;
use crate::error::SpiceError;
use crate::linalg::Matrix;
use crate::netlist::{Circuit, Element, Node};

/// AC small-signal analysis.
///
/// The `input`-th voltage source (insertion order, default 0) is driven with
/// a unit small-signal amplitude; every other independent source is
/// AC-grounded. The reported transfer function is therefore `V(node)/V_in`.
#[derive(Debug)]
pub struct AcAnalysis<'c> {
    circuit: &'c Circuit,
    input: usize,
}

impl<'c> AcAnalysis<'c> {
    /// Prepares an AC analysis with voltage source 0 as the input.
    pub fn new(circuit: &'c Circuit) -> Self {
        AcAnalysis { circuit, input: 0 }
    }

    /// Selects which voltage source (by insertion order) carries the unit AC
    /// stimulus.
    pub fn input_source(mut self, index: usize) -> Self {
        self.input = index;
        self
    }

    /// Solves the transfer function at one frequency (Hz).
    ///
    /// # Errors
    ///
    /// Propagates operating-point and factorization failures.
    pub fn solve_at(&self, output: Node, freq_hz: f64) -> Result<Complex, SpiceError> {
        let x = self.solve_vector(freq_hz)?;
        Ok(match self.circuit.row(output) {
            None => Complex::ZERO,
            Some(r) => x[r],
        })
    }

    fn solve_vector(&self, freq_hz: f64) -> Result<Vec<Complex>, SpiceError> {
        let c = self.circuit;
        if self.input >= c.num_vsources() {
            return Err(SpiceError::InvalidCircuit(format!(
                "AC input source index {} out of range ({} sources)",
                self.input,
                c.num_vsources()
            )));
        }
        let op = DcAnalysis::new(c).solve();
        // Purely reactive circuits may be DC-singular; linearization then
        // happens around zero bias, which is exact for linear circuits.
        let op_x = match op {
            Ok(sol) => sol.unknowns().to_vec(),
            Err(SpiceError::SingularMatrix { .. }) => vec![0.0; c.num_unknowns()],
            Err(e) => return Err(e),
        };
        let v_of = |node: Node| -> f64 {
            match c.row(node) {
                None => 0.0,
                Some(r) => op_x[r],
            }
        };

        let omega = 2.0 * std::f64::consts::PI * freq_hz;
        let n = c.num_unknowns();
        let mut a = Matrix::<Complex>::zeros(n);
        let mut z = vec![Complex::ZERO; n];

        let stamp_admittance = |a: &mut Matrix<Complex>, na: Node, nb: Node, y: Complex| {
            if let Some(r) = c.row(na) {
                a.add_at(r, r, y);
                if let Some(r2) = c.row(nb) {
                    a.add_at(r, r2, -y);
                }
            }
            if let Some(r) = c.row(nb) {
                a.add_at(r, r, y);
                if let Some(r2) = c.row(na) {
                    a.add_at(r, r2, -y);
                }
            }
        };
        let stamp_vccs = |a: &mut Matrix<Complex>,
                          out_pos: Node,
                          out_neg: Node,
                          ctrl_pos: Node,
                          ctrl_neg: Node,
                          gm: f64| {
            for (out, sign) in [(out_pos, 1.0), (out_neg, -1.0)] {
                if let Some(ro) = c.row(out) {
                    if let Some(rc) = c.row(ctrl_pos) {
                        a.add_at(ro, rc, Complex::real(sign * gm));
                    }
                    if let Some(rc) = c.row(ctrl_neg) {
                        a.add_at(ro, rc, Complex::real(-sign * gm));
                    }
                }
            }
        };

        let mut vsrc_idx = 0usize;
        for e in c.elements() {
            match e {
                Element::Resistor { a: na, b: nb, ohms } => {
                    stamp_admittance(&mut a, *na, *nb, Complex::real(1.0 / ohms));
                }
                Element::Capacitor {
                    a: na,
                    b: nb,
                    farads,
                    ..
                } => {
                    stamp_admittance(&mut a, *na, *nb, Complex::imag(omega * farads));
                }
                Element::VoltageSource { pos, neg, .. } => {
                    let br = c.vsource_row(vsrc_idx);
                    if let Some(r) = c.row(*pos) {
                        a.add_at(r, br, Complex::ONE);
                        a.add_at(br, r, Complex::ONE);
                    }
                    if let Some(r) = c.row(*neg) {
                        a.add_at(r, br, -Complex::ONE);
                        a.add_at(br, r, -Complex::ONE);
                    }
                    if vsrc_idx == self.input {
                        z[br] = Complex::ONE;
                    }
                    vsrc_idx += 1;
                }
                Element::CurrentSource { .. } => {
                    // Independent current sources are AC-open (zero stimulus).
                }
                Element::Vccs {
                    out_pos,
                    out_neg,
                    ctrl_pos,
                    ctrl_neg,
                    gm,
                } => {
                    stamp_vccs(&mut a, *out_pos, *out_neg, *ctrl_pos, *ctrl_neg, *gm);
                }
                Element::Egt {
                    drain,
                    gate,
                    source,
                    model,
                } => {
                    let vgs = v_of(*gate) - v_of(*source);
                    let vds = v_of(*drain) - v_of(*source);
                    stamp_admittance(&mut a, *drain, *source, Complex::real(model.gds(vgs, vds)));
                    stamp_vccs(&mut a, *drain, *source, *gate, *source, model.gm(vgs, vds));
                }
            }
        }
        a.solve(z)
    }

    /// Logarithmic frequency sweep of the transfer function to `output`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures at any frequency point.
    ///
    /// # Panics
    ///
    /// Panics if the frequency range is not positive and increasing or
    /// `points_per_decade` is zero.
    pub fn sweep(
        &self,
        output: Node,
        f_start: f64,
        f_stop: f64,
        points_per_decade: usize,
    ) -> Result<AcSweep, SpiceError> {
        assert!(
            f_start > 0.0 && f_stop > f_start,
            "need 0 < f_start < f_stop"
        );
        assert!(points_per_decade > 0, "points_per_decade must be positive");
        let decades = (f_stop / f_start).log10();
        let total = (decades * points_per_decade as f64).ceil() as usize + 1;
        let mut points = Vec::with_capacity(total);
        for i in 0..total {
            let f = f_start * 10f64.powf(i as f64 / points_per_decade as f64);
            let f = f.min(f_stop);
            let value = self.solve_at(output, f)?;
            points.push(AcPoint { freq_hz: f, value });
            if f >= f_stop {
                break;
            }
        }
        Ok(AcSweep { points })
    }
}

/// A single AC sweep sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcPoint {
    /// Frequency in Hz.
    pub freq_hz: f64,
    /// Complex transfer-function value at this frequency.
    pub value: Complex,
}

impl AcPoint {
    /// Magnitude in dB.
    pub fn magnitude_db(&self) -> f64 {
        20.0 * self.value.abs().log10()
    }
}

/// The result of a logarithmic AC sweep.
#[derive(Debug, Clone)]
pub struct AcSweep {
    /// Samples in increasing frequency order.
    pub points: Vec<AcPoint>,
}

impl AcSweep {
    /// The −3 dB cutoff: the first frequency at which the magnitude falls to
    /// `1/√2` of the lowest-frequency magnitude, log-interpolated between
    /// samples. `None` if the response never crosses within the sweep.
    pub fn cutoff_frequency(&self) -> Option<f64> {
        let dc_mag = self.points.first()?.value.abs();
        let target = dc_mag / 2f64.sqrt();
        for w in self.points.windows(2) {
            let (p0, p1) = (w[0], w[1]);
            let (m0, m1) = (p0.value.abs(), p1.value.abs());
            if m0 >= target && m1 < target {
                // Log-log linear interpolation.
                let lf0 = p0.freq_hz.ln();
                let lf1 = p1.freq_hz.ln();
                let frac = (m0 - target) / (m0 - m1);
                return Some((lf0 + frac * (lf1 - lf0)).exp());
            }
        }
        None
    }

    /// High-frequency asymptotic roll-off in dB per decade, estimated from
    /// the last two sample points.
    pub fn rolloff_db_per_decade(&self) -> Option<f64> {
        if self.points.len() < 2 {
            return None;
        }
        let a = &self.points[self.points.len() - 2];
        let b = &self.points[self.points.len() - 1];
        let ddec = (b.freq_hz / a.freq_hz).log10();
        if ddec <= 0.0 {
            return None;
        }
        Some((b.magnitude_db() - a.magnitude_db()) / ddec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Circuit, Waveform};

    fn rc_lowpass(r: f64, cap: f64) -> (Circuit, Node) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vin, Circuit::GROUND, Waveform::Dc(0.0));
        c.resistor(vin, out, r);
        c.capacitor(out, Circuit::GROUND, cap);
        (c, out)
    }

    #[test]
    fn first_order_magnitude_matches_analytic() {
        let (c, out) = rc_lowpass(1e3, 1e-6);
        let tau = 1e-3;
        let ac = AcAnalysis::new(&c);
        for &f in &[10.0, 100.0, 1_000.0, 10_000.0] {
            let h = ac.solve_at(out, f).unwrap();
            let expected = 1.0 / (1.0 + (2.0 * std::f64::consts::PI * f * tau).powi(2)).sqrt();
            assert!(
                (h.abs() - expected).abs() < 1e-9,
                "f={f}: |H|={}, expected {expected}",
                h.abs()
            );
        }
    }

    #[test]
    fn cutoff_matches_one_over_two_pi_rc() {
        let (c, out) = rc_lowpass(10e3, 100e-9);
        let fc_expected = 1.0 / (2.0 * std::f64::consts::PI * 10e3 * 100e-9);
        let sweep = AcAnalysis::new(&c).sweep(out, 1.0, 1e5, 40).unwrap();
        let fc = sweep.cutoff_frequency().unwrap();
        assert!(
            (fc - fc_expected).abs() / fc_expected < 0.02,
            "fc={fc}, expected {fc_expected}"
        );
    }

    #[test]
    fn first_order_rolloff_is_20db_per_decade() {
        let (c, out) = rc_lowpass(1e3, 1e-6);
        let sweep = AcAnalysis::new(&c).sweep(out, 1.0, 1e6, 10).unwrap();
        let roll = sweep.rolloff_db_per_decade().unwrap();
        assert!((roll + 20.0).abs() < 1.0, "rolloff {roll} dB/dec");
    }

    #[test]
    fn second_order_rolls_off_twice_as_fast() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        let out = c.node("out");
        c.vsource(vin, Circuit::GROUND, Waveform::Dc(0.0));
        c.resistor(vin, mid, 1e3);
        c.capacitor(mid, Circuit::GROUND, 1e-6);
        c.resistor(mid, out, 1e3);
        c.capacitor(out, Circuit::GROUND, 1e-6);
        let sweep = AcAnalysis::new(&c).sweep(out, 1.0, 1e6, 10).unwrap();
        let roll = sweep.rolloff_db_per_decade().unwrap();
        assert!((roll + 40.0).abs() < 2.0, "rolloff {roll} dB/dec");
    }

    #[test]
    fn phase_approaches_minus_90() {
        let (c, out) = rc_lowpass(1e3, 1e-6);
        let p = AcAnalysis::new(&c).solve_at(out, 1e6).unwrap();
        let phase = p.arg().to_degrees();
        assert!(phase < -85.0, "phase {phase}");
    }

    #[test]
    fn bad_input_index_errors() {
        let (c, out) = rc_lowpass(1e3, 1e-6);
        let err = AcAnalysis::new(&c)
            .input_source(3)
            .solve_at(out, 100.0)
            .unwrap_err();
        assert!(matches!(err, SpiceError::InvalidCircuit(_)));
    }
}
