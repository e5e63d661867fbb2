//! Averaged (envelope) amplitude dynamics.
//!
//! Millisecond-scale behavior — startup settling, regulation sweeps, FMEA
//! matrices — would need millions of cycle-accurate ODE steps. Averaging
//! over one oscillation period gives the classical envelope equation
//!
//! ```text
//! da/dt = a · (N(a) − Gm₀) / (2·C)
//! ```
//!
//! where `a` is the per-pin peak amplitude, `N(a)` the driver's describing
//! function and `Gm₀` the critical transconductance. Its fixed point is the
//! steady-state amplitude of [`crate::condition::OscillationCondition`],
//! and the model is validated against the cycle-accurate ODE in the
//! integration tests.

use crate::condition::OscillationCondition;
use crate::gm_driver::GmDriver;
use crate::tank::LcTank;

/// Averaged amplitude model.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvelopeModel {
    tank: LcTank,
    driver: GmDriver,
    gm_crit: f64,
    a_clamp: f64,
    /// Cached fixed point a* (0 when the oscillation cannot be sustained).
    a_star: f64,
}

impl EnvelopeModel {
    /// Creates the model without a rail clamp.
    pub fn new(tank: LcTank, driver: GmDriver) -> Self {
        let gm_crit = OscillationCondition::new(tank).critical_gm();
        let mut m = EnvelopeModel {
            tank,
            driver,
            gm_crit,
            a_clamp: f64::INFINITY,
            a_star: 0.0,
        };
        m.a_star = m.compute_steady();
        m
    }

    /// Returns a copy whose per-pin amplitude is clamped to `a_max` (the
    /// supply rails limit the swing to `min(vref, vdd − vref)`).
    ///
    /// # Panics
    ///
    /// Panics if `a_max` is not positive.
    pub fn with_clamp(mut self, a_max: f64) -> Self {
        assert!(a_max > 0.0, "clamp must be positive");
        self.a_clamp = a_max;
        self.a_star = self.compute_steady();
        self
    }

    /// Updates the driver current limit.
    pub fn set_i_max(&mut self, i_max: f64) {
        self.driver.set_i_max(i_max);
        self.a_star = self.compute_steady();
    }

    /// Updates the driver small-signal transconductance (Gm-stage enables).
    pub fn set_gm(&mut self, gm: f64) {
        self.driver.set_gm(gm);
        self.a_star = self.compute_steady();
    }

    /// Instantaneous exponential growth rate `λ(a) = (N(a) − Gm₀)/(2C)` in
    /// 1/s (`da/dt = λ·a`).
    pub fn lambda(&self, a: f64) -> f64 {
        if a <= 0.0 {
            return 0.0;
        }
        (self.driver.describing_function(a) - self.gm_crit) / (2.0 * self.tank.c_avg().value())
    }

    /// Advances the amplitude by `dt` seconds.
    ///
    /// Uses an exponential integrator with internal sub-stepping bounded by
    /// `|λ|·h ≤ 0.2`. Because `λ(a)` is strictly decreasing in `a`, the
    /// continuous envelope approaches the fixed point monotonically and
    /// never crosses it; each sub-iterate is clamped at the cached a* so
    /// the discrete map inherits that property (no limit cycling, no bias)
    /// and stays stable however long the caller's `dt` is.
    pub fn step(&self, mut a: f64, dt: f64) -> f64 {
        // Below this amplitude the oscillation is considered extinguished;
        // without the floor an over-damped decay would crawl through
        // hundreds of subnormal decades one sub-step at a time.
        const A_FLOOR: f64 = 1e-9;
        let mut remaining = dt;
        // Hard bound on iterations in case λ is extreme.
        for _ in 0..1_000_000 {
            if remaining <= 0.0 || a <= 0.0 {
                break;
            }
            let lam = self.lambda(a);
            let h = if lam.abs() > 1e-30 {
                remaining.min(0.2 / lam.abs())
            } else {
                remaining
            };
            let mut next = (a * (lam * h).exp()).clamp(0.0, self.a_clamp);
            // Monotone approach: never step across the fixed point.
            if self.a_star > 0.0 {
                if lam > 0.0 {
                    next = next.min(self.a_star.min(self.a_clamp));
                } else if lam < 0.0 && a > self.a_star {
                    next = next.max(self.a_star);
                }
            }
            a = next;
            if lam < 0.0 && a <= A_FLOOR {
                break;
            }
            remaining -= h;
        }
        a
    }

    /// Advances by `dt` using `substeps` internal steps (for large tick
    /// intervals).
    ///
    /// # Panics
    ///
    /// Panics if `substeps == 0`.
    pub fn advance(&self, mut a: f64, dt: f64, substeps: usize) -> f64 {
        assert!(substeps > 0, "need at least one substep");
        let h = dt / substeps as f64;
        for _ in 0..substeps {
            a = self.step(a, h);
        }
        a
    }

    /// Steady-state per-pin amplitude (fixed point of the rate), or 0 when
    /// the oscillation cannot be sustained.
    pub fn steady_amplitude(&self) -> f64 {
        self.a_star
    }

    /// Recomputes the fixed point (bisection on the monotone `N(a)`).
    fn compute_steady(&self) -> f64 {
        if self.driver.i_max() == 0.0 || self.driver.gm_small_signal() <= self.gm_crit {
            return 0.0;
        }
        // For the limited driver the fixed point is where N(a) = Gm0; the
        // hard-limit expression gives a* directly, other shapes are close —
        // refine by bisection on the monotone N(a).
        let hard = 4.0 * self.driver.i_max() / (std::f64::consts::PI * self.gm_crit);
        let f = |a: f64| self.driver.describing_function(a) - self.gm_crit;
        let mut lo = hard * 0.1;
        let mut hi = hard * 2.0;
        if f(lo) < 0.0 {
            return 0.0; // cannot even sustain a tenth of the target
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if f(mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (0.5 * (lo + hi)).min(self.a_clamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gm_driver::DriverShape;
    use lcosc_num::units::{Amps, Farads, Henries};

    fn test_tank() -> LcTank {
        LcTank::with_q(Henries::from_micro(25.0), Farads::from_nano(2.0), 10.0).unwrap()
    }

    fn driver(i_max: f64) -> GmDriver {
        GmDriver::new(DriverShape::LinearSaturate { gm: 10e-3 }, i_max)
    }

    #[test]
    fn steady_amplitude_matches_condition_formula() {
        let tank = test_tank();
        let m = EnvelopeModel::new(tank, driver(1e-3));
        let analytic = OscillationCondition::new(tank)
            .steady_amplitude_peak(Amps(1e-3))
            .value();
        let fixed_point = m.steady_amplitude();
        assert!(
            (fixed_point / analytic - 1.0).abs() < 0.02,
            "{fixed_point} vs {analytic}"
        );
    }

    #[test]
    fn lambda_positive_below_and_negative_above_fixed_point() {
        let m = EnvelopeModel::new(test_tank(), driver(1e-3));
        let a_star = m.steady_amplitude();
        assert!(m.lambda(0.5 * a_star) > 0.0);
        assert!(m.lambda(1.5 * a_star) < 0.0);
        // da/dt = λ·a, so |da/dt(a*)| < 5 % of da/dt(a*/2) is this bound.
        assert!(m.lambda(a_star).abs() < m.lambda(0.5 * a_star) * 0.025);
    }

    #[test]
    fn integration_converges_to_fixed_point_from_both_sides() {
        let m = EnvelopeModel::new(test_tank(), driver(1e-3));
        let a_star = m.steady_amplitude();
        for a0 in [0.01 * a_star, 3.0 * a_star] {
            let a = m.advance(a0, 200e-6, 20_000);
            assert!(
                (a / a_star - 1.0).abs() < 0.01,
                "from {a0}: {a} vs {a_star}"
            );
        }
    }

    #[test]
    fn dead_driver_decays_to_zero() {
        let mut m = EnvelopeModel::new(test_tank(), driver(1e-3));
        m.set_i_max(0.0);
        assert_eq!(m.steady_amplitude(), 0.0);
        let a = m.advance(0.5, 100e-6, 10_000);
        assert!(a < 1e-3, "should ring down, got {a}");
    }

    #[test]
    fn subcritical_gm_cannot_sustain() {
        let tank = test_tank();
        let crit = OscillationCondition::new(tank).critical_gm();
        let weak = GmDriver::new(DriverShape::LinearSaturate { gm: 0.8 * crit }, 1e-3);
        let m = EnvelopeModel::new(tank, weak);
        assert_eq!(m.steady_amplitude(), 0.0);
    }

    #[test]
    fn zero_amplitude_is_an_equilibrium() {
        let m = EnvelopeModel::new(test_tank(), driver(1e-3));
        assert_eq!(m.lambda(0.0), 0.0);
        assert_eq!(m.step(0.0, 1e-6), 0.0);
    }

    #[test]
    fn rail_clamp_caps_amplitude() {
        // Unclamped fixed point ≈ 1.0 V; rails at 0.4 V win.
        let m = EnvelopeModel::new(test_tank(), driver(1e-3)).with_clamp(0.4);
        assert_eq!(m.steady_amplitude(), 0.4);
        let a = m.advance(1e-3, 200e-6, 1_000);
        assert!((a - 0.4).abs() < 1e-9, "clamped at {a}");
        assert_eq!(m.a_clamp, 0.4);
    }

    #[test]
    fn step_is_stable_for_huge_dt() {
        // The adaptive exponential integrator must land on the fixed point
        // even when one step spans thousands of time constants.
        let m = EnvelopeModel::new(test_tank(), driver(1e-3));
        let a_star = m.steady_amplitude();
        let a = m.step(1e-3, 1.0);
        assert!((a / a_star - 1.0).abs() < 0.05, "{a} vs {a_star}");
    }
}
