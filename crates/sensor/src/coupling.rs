//! Rotor-dependent coupling between the excitation coil and the two
//! receiving coils.
//!
//! A classic inductive resolver: the receiving coils are laid out so their
//! coupling to the excitation field varies as the sine and cosine of the
//! (electrical) rotor angle. Signs carry through — the demodulator output
//! is signed, which is what makes the full-circle `atan2` decode possible.

/// Quadrature coupling profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RotorCoupling {
    k_peak: f64,
    pole_pairs: u32,
}

impl RotorCoupling {
    /// Creates a profile with peak coupling `k_peak` (fraction of the
    /// excitation amplitude reaching a receiving coil at best alignment)
    /// and the number of electrical pole pairs per mechanical revolution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < k_peak <= 1` and `pole_pairs >= 1`.
    pub fn new(k_peak: f64, pole_pairs: u32) -> Self {
        assert!(k_peak > 0.0 && k_peak <= 1.0, "coupling must be in (0, 1]");
        assert!(pole_pairs >= 1, "need at least one pole pair");
        RotorCoupling { k_peak, pole_pairs }
    }

    /// A typical sensor: 25 % peak coupling, one pole pair.
    pub fn typical() -> Self {
        RotorCoupling::new(0.25, 1)
    }

    /// Peak coupling factor.
    pub fn k_peak(&self) -> f64 {
        self.k_peak
    }

    /// Signed coupling factors `(k_sin, k_cos)` at mechanical angle
    /// `theta` radians.
    pub fn at(&self, theta: f64) -> (f64, f64) {
        let e = self.pole_pairs as f64 * theta;
        (self.k_peak * e.sin(), self.k_peak * e.cos())
    }

    /// Electrical angle corresponding to a mechanical angle (wrapped to
    /// `(-π, π]`).
    pub fn electrical_angle(&self, theta: f64) -> f64 {
        let e = self.pole_pairs as f64 * theta;
        e.sin().atan2(e.cos())
    }
}

impl Default for RotorCoupling {
    fn default() -> Self {
        RotorCoupling::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn quadrature_at_cardinal_angles() {
        let c = RotorCoupling::typical();
        let (s, k) = c.at(0.0);
        assert!((s - 0.0).abs() < 1e-12 && (k - 0.25).abs() < 1e-12);
        let (s, k) = c.at(FRAC_PI_2);
        assert!((s - 0.25).abs() < 1e-12 && k.abs() < 1e-12);
        let (s, k) = c.at(PI);
        assert!(s.abs() < 1e-9 && (k + 0.25).abs() < 1e-12);
    }

    #[test]
    fn magnitude_is_angle_independent() {
        let c = RotorCoupling::typical();
        for i in 0..32 {
            let theta = i as f64 * 2.0 * PI / 32.0;
            let (s, k) = c.at(theta);
            assert!(((s * s + k * k).sqrt() - 0.25).abs() < 1e-12, "at {theta}");
        }
    }

    #[test]
    fn pole_pairs_multiply_electrical_angle() {
        let c = RotorCoupling::new(0.25, 4);
        // Mechanical 45° = one full electrical half-turn for 4 pole pairs.
        let e = c.electrical_angle(PI / 4.0);
        assert!((e - PI).abs() < 1e-9 || (e + PI).abs() < 1e-9, "e {e}");
    }

    #[test]
    fn electrical_angle_wraps() {
        let c = RotorCoupling::typical();
        let e = c.electrical_angle(2.0 * PI + 0.1);
        assert!((e - 0.1).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "coupling")]
    fn rejects_bad_coupling() {
        let _ = RotorCoupling::new(1.5, 1);
    }
}
