//! Shockley diode model with junction-voltage limiting.
//!
//! Used for MOSFET bulk (body) junctions and ESD structures. The paper's
//! Fig 10a leakage path — the intrinsic drain–bulk diode of a plain CMOS
//! pad loading the partner oscillator when Vdd floats — is exactly this
//! device.

use crate::thermal_voltage;

/// Large-signal diode: `I = Is (exp(V / (n Vt)) − 1)`, linearized above a
/// critical voltage so Newton iterations cannot overflow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiodeModel {
    /// Saturation current in amperes.
    pub is: f64,
    /// Emission coefficient (ideality factor).
    pub n: f64,
    /// Junction temperature in kelvin.
    pub temp_k: f64,
}

impl Default for DiodeModel {
    fn default() -> Self {
        DiodeModel::new(1e-14, 1.0, 300.0)
    }
}

impl DiodeModel {
    /// Creates a diode model.
    ///
    /// # Panics
    ///
    /// Panics unless `is > 0`, `n > 0` and `temp_k > 0`.
    pub fn new(is: f64, n: f64, temp_k: f64) -> Self {
        assert!(is > 0.0, "saturation current must be positive");
        assert!(n > 0.0, "emission coefficient must be positive");
        DiodeModel { is, n, temp_k }
    }

    /// Typical bulk junction of the 0.35 µm process used by the paper.
    pub fn bulk_junction_035um() -> Self {
        DiodeModel::new(5e-15, 1.05, 300.0)
    }

    /// Effective thermal slope `n * Vt` in volts.
    pub(crate) fn n_vt(&self) -> f64 {
        self.n * thermal_voltage(self.temp_k)
    }

    /// Critical voltage above which the exponential is linearized
    /// (SPICE-style limiting).
    pub(crate) fn v_crit(&self) -> f64 {
        let nvt = self.n_vt();
        nvt * (nvt / (self.is * std::f64::consts::SQRT_2)).ln()
    }

    /// Diode current at junction voltage `v` (anode minus cathode), with the
    /// exponential continued linearly above the critical voltage `v_crit`.
    pub fn current(&self, v: f64) -> f64 {
        let nvt = self.n_vt();
        let vc = self.v_crit();
        if v <= vc {
            self.is * ((v / nvt).exp() - 1.0)
        } else {
            // First-order continuation: I(vc) + g(vc) (v − vc).
            let ic = self.is * ((vc / nvt).exp() - 1.0);
            let gc = self.is / nvt * (vc / nvt).exp();
            ic + gc * (v - vc)
        }
    }

    /// Small-signal conductance `dI/dV` at junction voltage `v`.
    pub fn conductance(&self, v: f64) -> f64 {
        let nvt = self.n_vt();
        let vc = self.v_crit();
        let ve = v.min(vc);
        self.is / nvt * (ve / nvt).exp()
    }

    /// Linearized companion model `(g, i_eq)` for Newton iteration:
    /// the device behaves as a conductance `g` in parallel with a current
    /// source `i_eq` such that `i = g v + i_eq` matches current and slope at
    /// the expansion point `v`.
    pub fn companion(&self, v: f64) -> (f64, f64) {
        let g = self.conductance(v);
        let i = self.current(v);
        (g, i - g * v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_saturation() {
        let d = DiodeModel::default();
        let i = d.current(-5.0);
        assert!((i + d.is).abs() < 1e-20, "reverse current {i}");
    }

    #[test]
    fn zero_bias_zero_current() {
        let d = DiodeModel::default();
        assert_eq!(d.current(0.0), 0.0);
    }

    #[test]
    fn current_is_monotone_increasing() {
        let d = DiodeModel::default();
        let mut prev = d.current(-1.0);
        let mut v = -1.0;
        while v < 1.5 {
            v += 0.01;
            let i = d.current(v);
            assert!(i >= prev, "non-monotone at {v}");
            prev = i;
        }
    }

    #[test]
    fn current_is_finite_at_large_bias() {
        let d = DiodeModel::default();
        assert!(d.current(20.0).is_finite());
        assert!(d.conductance(20.0).is_finite());
    }

    #[test]
    fn continuation_is_c1_at_v_crit() {
        let d = DiodeModel::default();
        let vc = d.v_crit();
        let eps = 1e-9;
        let below = d.current(vc - eps);
        let above = d.current(vc + eps);
        // Continuous value...
        assert!((above - below).abs() < d.conductance(vc) * 3.0 * eps);
        // ...and continuous slope.
        let g_below = (d.current(vc) - d.current(vc - eps)) / eps;
        let g_above = (d.current(vc + eps) - d.current(vc)) / eps;
        assert!((g_above / g_below - 1.0).abs() < 1e-3);
    }

    #[test]
    fn companion_model_reconstructs_current() {
        let d = DiodeModel::default();
        for v in [-1.0, 0.0, 0.3, 0.6, 0.8] {
            let (g, ieq) = d.companion(v);
            assert!((g * v + ieq - d.current(v)).abs() < 1e-12);
        }
    }

    #[test]
    fn conductance_matches_numeric_derivative() {
        let d = DiodeModel::default();
        for v in [0.2, 0.4, 0.55] {
            let h = 1e-7;
            let num = (d.current(v + h) - d.current(v - h)) / (2.0 * h);
            let ana = d.conductance(v);
            assert!((num / ana - 1.0).abs() < 1e-4, "at {v}: {num} vs {ana}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn new_rejects_zero_is() {
        let _ = DiodeModel::new(0.0, 1.0, 300.0);
    }
}
