//! The current-limited transconductance driver (paper Fig 2).
//!
//! Amplitude regulation inserts non-linearity by limiting the driver output
//! current to ±I_M; the DAC code sets I_M. Three static I–V shapes are
//! provided: the paper's linear-with-saturation approximation (Fig 2), an
//! ideal hard limiter, and a smooth `tanh` (closer to a real differential
//! pair). The shape determines the power factor *k* of eq 3 — ≈0.9 for the
//! linear approximation, as the paper states.

/// Static I–V shape of the limited driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriverShape {
    /// Ideal comparator-like limiter: `i = I_M · sign(v)`.
    HardLimit,
    /// Linear region with slope `gm` clipped at ±I_M (the paper's Fig 2).
    LinearSaturate {
        /// Small-signal transconductance in siemens.
        gm: f64,
    },
    /// Smooth saturation `i = I_M · tanh(gm·v / I_M)`.
    Tanh {
        /// Small-signal transconductance in siemens.
        gm: f64,
    },
}

/// A current-limited transconductor.
///
/// # Example
///
/// ```
/// use lcosc_core::gm_driver::{DriverShape, GmDriver};
///
/// let drv = GmDriver::new(DriverShape::LinearSaturate { gm: 10e-3 }, 1e-3);
/// assert_eq!(drv.current(10.0), 1e-3);        // saturated
/// assert!((drv.current(0.01) - 1e-4).abs() < 1e-12); // linear region
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmDriver {
    shape: DriverShape,
    i_max: f64,
}

impl GmDriver {
    /// Creates a driver with the given shape and current limit.
    ///
    /// # Panics
    ///
    /// Panics if `i_max` is negative, or a shape `gm` is not positive.
    pub fn new(shape: DriverShape, i_max: f64) -> Self {
        assert!(
            i_max >= 0.0 && i_max.is_finite(),
            "i_max must be non-negative"
        );
        match shape {
            DriverShape::LinearSaturate { gm } | DriverShape::Tanh { gm } => {
                assert!(gm > 0.0, "gm must be positive");
            }
            DriverShape::HardLimit => {}
        }
        GmDriver { shape, i_max }
    }

    /// Current limit I_M.
    pub fn i_max(&self) -> f64 {
        self.i_max
    }

    /// Shape of the static characteristic.
    pub fn shape(&self) -> DriverShape {
        self.shape
    }

    /// Updates the current limit (the regulation loop does this every tick).
    ///
    /// # Panics
    ///
    /// Panics if `i_max` is negative or non-finite.
    pub fn set_i_max(&mut self, i_max: f64) {
        assert!(
            i_max >= 0.0 && i_max.is_finite(),
            "i_max must be non-negative"
        );
        self.i_max = i_max;
    }

    /// Updates the small-signal transconductance (the `OscE` bus enables
    /// more parallel Gm stages at higher codes, Fig 7). No effect on the
    /// hard limiter, whose origin slope is unbounded anyway.
    ///
    /// # Panics
    ///
    /// Panics if `gm` is not positive.
    pub fn set_gm(&mut self, new_gm: f64) {
        assert!(new_gm > 0.0, "gm must be positive");
        match &mut self.shape {
            DriverShape::LinearSaturate { gm } | DriverShape::Tanh { gm } => *gm = new_gm,
            DriverShape::HardLimit => {}
        }
    }

    /// Static output current for an input voltage (odd, saturating).
    pub fn current(&self, v: f64) -> f64 {
        match self.shape {
            DriverShape::HardLimit => {
                if v > 0.0 {
                    self.i_max
                } else if v < 0.0 {
                    -self.i_max
                } else {
                    0.0
                }
            }
            DriverShape::LinearSaturate { gm } => (gm * v).clamp(-self.i_max, self.i_max),
            DriverShape::Tanh { gm } => {
                if self.i_max == 0.0 {
                    0.0
                } else {
                    self.i_max * (gm * v / self.i_max).tanh()
                }
            }
        }
    }

    /// Small-signal transconductance at the origin (∞ for the hard limiter,
    /// represented as `f64::INFINITY`).
    pub fn gm_small_signal(&self) -> f64 {
        match self.shape {
            DriverShape::HardLimit => f64::INFINITY,
            DriverShape::LinearSaturate { gm } | DriverShape::Tanh { gm } => gm,
        }
    }

    /// Describing function `N(a)`: equivalent transconductance for a
    /// sinusoidal input of amplitude `a` (fundamental component of the
    /// output divided by `a`).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not positive.
    pub fn describing_function(&self, a: f64) -> f64 {
        assert!(a > 0.0, "amplitude must be positive");
        match self.shape {
            DriverShape::HardLimit => 4.0 * self.i_max / (std::f64::consts::PI * a),
            DriverShape::LinearSaturate { gm } => {
                if self.i_max == 0.0 {
                    return 0.0;
                }
                let ac = self.i_max / gm; // clipping corner
                if a <= ac {
                    gm
                } else {
                    let r = ac / a;
                    2.0 * gm / std::f64::consts::PI * (r.asin() + r * (1.0 - r * r).sqrt())
                }
            }
            DriverShape::Tanh { .. } => {
                // No closed form: integrate the fundamental numerically.
                let n = 400;
                let mut acc = 0.0;
                for k in 0..n {
                    let th = std::f64::consts::PI * (k as f64 + 0.5) / n as f64;
                    acc += self.current(a * th.sin()) * th.sin();
                }
                // (2/π)·∫ i(a sin θ) sin θ dθ over 0..π equals the
                // fundamental amplitude; divide by a for N(a).
                2.0 / std::f64::consts::PI * acc * (std::f64::consts::PI / n as f64) / a
            }
        }
    }

    /// Power factor `k` of paper eq 3 at oscillation amplitude `a` (peak,
    /// per driver input): `P_drv = k · V_rms · I_M` per driver.
    ///
    /// For the deeply limited linear driver this approaches `2√2/π ≈ 0.90`,
    /// the paper's *k ≈ 0.9*.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not positive.
    pub fn power_factor(&self, a: f64) -> f64 {
        assert!(a > 0.0, "amplitude must be positive");
        if self.i_max == 0.0 {
            return 0.0;
        }
        // P = mean(i(a sin θ) · a sin θ); k = P / (V_rms · I_M),
        // V_rms = a/√2.
        let n = 1000;
        let mut p = 0.0;
        for k in 0..n {
            let th = 2.0 * std::f64::consts::PI * (k as f64 + 0.5) / n as f64;
            let v = a * th.sin();
            p += self.current(v) * v;
        }
        p /= n as f64;
        p / (a / std::f64::consts::SQRT_2 * self.i_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PI: f64 = std::f64::consts::PI;

    #[test]
    fn shapes_are_odd_and_limited() {
        for shape in [
            DriverShape::HardLimit,
            DriverShape::LinearSaturate { gm: 1e-2 },
            DriverShape::Tanh { gm: 1e-2 },
        ] {
            let d = GmDriver::new(shape, 1e-3);
            for v in [-10.0, -0.5, -0.01, 0.01, 0.5, 10.0] {
                let i = d.current(v);
                assert!(
                    (i + d.current(-v)).abs() < 1e-15,
                    "{shape:?} not odd at {v}"
                );
                assert!(i.abs() <= 1e-3 + 1e-15, "{shape:?} exceeds limit at {v}");
            }
            assert_eq!(d.current(0.0), 0.0);
        }
    }

    #[test]
    fn linear_region_has_design_slope() {
        let d = GmDriver::new(DriverShape::LinearSaturate { gm: 5e-3 }, 1e-3);
        assert!((d.current(0.1) - 5e-4).abs() < 1e-15);
        assert_eq!(d.gm_small_signal(), 5e-3);
    }

    #[test]
    fn hard_limit_describing_function() {
        let d = GmDriver::new(DriverShape::HardLimit, 1e-3);
        let a = 0.5;
        assert!((d.describing_function(a) - 4.0 * 1e-3 / (PI * a)).abs() < 1e-12);
    }

    #[test]
    fn linear_describing_function_continuous_at_corner() {
        let d = GmDriver::new(DriverShape::LinearSaturate { gm: 1e-2 }, 1e-3);
        let ac = 0.1;
        let below = d.describing_function(ac * 0.999);
        let above = d.describing_function(ac * 1.001);
        assert!((below - above).abs() < 1e-4 * below);
        assert!((below - 1e-2).abs() < 1e-12);
    }

    #[test]
    fn describing_function_decreases_with_amplitude() {
        let d = GmDriver::new(DriverShape::LinearSaturate { gm: 1e-2 }, 1e-3);
        let mut prev = d.describing_function(0.05);
        for a in [0.1, 0.2, 0.5, 1.0, 2.0] {
            let n = d.describing_function(a);
            assert!(n <= prev + 1e-15, "N not decreasing at {a}");
            prev = n;
        }
    }

    #[test]
    fn tanh_describing_function_between_limits() {
        let d = GmDriver::new(DriverShape::Tanh { gm: 1e-2 }, 1e-3);
        // Deeply limited: approaches the hard-limit value.
        let a = 5.0;
        let hard = 4.0 * 1e-3 / (PI * a);
        let n = d.describing_function(a);
        assert!((n / hard - 1.0).abs() < 0.02, "{n} vs {hard}");
        // Small signal: approaches gm.
        let n0 = d.describing_function(1e-4);
        assert!((n0 / 1e-2 - 1.0).abs() < 0.01, "{n0}");
    }

    #[test]
    fn power_factor_is_0_9_when_deeply_limited() {
        // Paper: "for linear approximation (Fig 2) k ≈ 0.9".
        let d = GmDriver::new(DriverShape::LinearSaturate { gm: 1e-2 }, 1e-3);
        let k = d.power_factor(2.0); // 20x the clipping corner
        assert!((k - 2.0 * 2f64.sqrt() / PI).abs() < 0.01, "k {k}");
        assert!((k - 0.9).abs() < 0.01, "k {k}");
    }

    #[test]
    fn power_factor_in_linear_region_scales_with_amplitude() {
        let d = GmDriver::new(DriverShape::LinearSaturate { gm: 1e-2 }, 1e-3);
        // Below the corner the driver is linear: P = gm·V_rms², so
        // k = gm·V_rms/I_M < deep-limit k.
        let k_small = d.power_factor(0.05);
        let k_large = d.power_factor(2.0);
        assert!(k_small < k_large);
    }

    #[test]
    fn set_i_max_rescales_limit() {
        let mut d = GmDriver::new(DriverShape::LinearSaturate { gm: 10e-3 }, 1e-3);
        d.set_i_max(2e-3);
        assert_eq!(d.i_max(), 2e-3);
        assert_eq!(d.current(10.0), 2e-3);
    }

    #[test]
    fn zero_limit_driver_is_dead() {
        let d = GmDriver::new(DriverShape::Tanh { gm: 1e-2 }, 0.0);
        assert_eq!(d.current(1.0), 0.0);
        assert_eq!(d.power_factor(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_limit() {
        let _ = GmDriver::new(DriverShape::HardLimit, -1.0);
    }

    #[test]
    #[should_panic(expected = "amplitude must be positive")]
    fn describing_function_rejects_zero_amplitude() {
        let _ = GmDriver::new(DriverShape::HardLimit, 1e-3).describing_function(0.0);
    }
}
